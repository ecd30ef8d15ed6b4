//! **E1 — §3.1 / Figure 2: ARP-Path vs STP path latency.**
//!
//! The demo's headline: on the 4-NetFPGA + 2-NIC fabric, ARP-Path's
//! race finds the minimum-latency path between hosts A and B, while
//! STP confines traffic to a tree rooted at an (arbitrary) bridge and
//! pays detours. We ping A→B under ARP-Path once and under STP once
//! per possible root, and report the RTT distributions.

use super::{attach_ping_pair, stp_convergence_time};
use arppath::ArpPathConfig;
use arppath_host::{PingConfig, PingHost};
use arppath_metrics::{LatencyStats, Table};
use arppath_netsim::{SimDuration, SimTime};
use arppath_stp::StpConfig;
use arppath_topo::{BridgeKind, Fig2, TopoBuilder};

/// Per-link propagation delays (µs) in Fig-2 wiring order.
/// Heterogeneous delays: the minimum-latency A↔B route is
/// NICA—NF2—NF3—NICB (1+2+1 µs); the NICA—NF1 and NICB—NF4 "short-cut
/// looking" links are actually slow (5 µs).
const LINK_DELAYS_US: [u64; 8] = [5, 1, 1, 1, 2, 1, 1, 5];

/// Parameters of one E1 run. Every bridge runs in the NetFPGA pipeline
/// model, the demo's configuration.
#[derive(Debug, Clone, Copy)]
pub struct E1Params {
    /// Ping probes per configuration.
    pub probes: u64,
}

impl Default for E1Params {
    fn default() -> Self {
        E1Params { probes: 100 }
    }
}

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct E1Row {
    /// `"arp-path"` or `"stp(root=X)"`.
    pub config: String,
    /// RTT samples.
    pub rtt: LatencyStats,
    /// Probes lost.
    pub lost: u64,
}

/// Full E1 output.
#[derive(Debug, Clone)]
pub struct E1Result {
    /// ARP-Path first, then one row per STP root placement.
    pub rows: Vec<E1Row>,
}

fn run_one(kind: BridgeKind, params: &E1Params, root: Option<usize>) -> E1Row {
    let mut t = TopoBuilder::new(kind);
    let fig = Fig2::build_with_delays(&mut t, &LINK_DELAYS_US);
    if let Some(r) = root {
        t.stp_priority(fig.all_bridges()[r], 0x1000);
    }
    let warmup = match kind {
        BridgeKind::StpNetFpga(_) => stp_convergence_time(),
        _ => SimDuration::millis(100),
    };
    let ping_cfg = PingConfig {
        start_at: warmup,
        interval: SimDuration::millis(10),
        count: params.probes,
        ..Default::default()
    };
    let (p_ix, _r_ix) = attach_ping_pair(&mut t, fig.nic_a, fig.nic_b, 1, 2, ping_cfg);
    let mut built = t.build();
    let deadline = warmup + SimDuration::millis(10).times(params.probes + 50);
    built.net.run_until(SimTime(deadline.as_nanos()));
    let prober = built.net.device::<PingHost>(built.host_nodes[p_ix]);
    let label = match root {
        None => "arp-path".to_string(),
        Some(r) => format!("stp(root={})", ["NF1", "NF2", "NF3", "NF4", "NICA", "NICB"][r]),
    };
    E1Row {
        config: label,
        rtt: prober.rtt.clone(),
        lost: prober.sent().saturating_sub(prober.received),
    }
}

/// Run the full experiment.
pub fn run(params: &E1Params) -> E1Result {
    let mut rows =
        vec![run_one(BridgeKind::ArpPathNetFpga(ArpPathConfig::default()), params, None)];
    for root in 0..6 {
        rows.push(run_one(BridgeKind::StpNetFpga(StpConfig::default()), params, Some(root)));
    }
    E1Result { rows }
}

/// Render the paper-style table.
pub fn table(result: &E1Result) -> Table {
    let mut t = Table::new(
        "E1 (Fig. 2, §3.1): A↔B ping RTT, ARP-Path vs STP per root placement",
        &["config", "n", "min (us)", "p50 (us)", "p99 (us)", "max (us)", "lost"],
    );
    for row in &result.rows {
        let n = row.rtt.count();
        t.row(&[
            row.config.clone(),
            n.to_string(),
            format!("{:.2}", row.rtt.min() as f64 / 1e3),
            format!("{:.2}", row.rtt.percentile(50.0) as f64 / 1e3),
            format!("{:.2}", row.rtt.percentile(99.0) as f64 / 1e3),
            format!("{:.2}", row.rtt.max() as f64 / 1e3),
            row.lost.to_string(),
        ]);
    }
    t
}

/// The headline check: ARP-Path's median RTT is no worse than every
/// STP placement's, and strictly better than the worst one.
pub fn verify_headline(result: &E1Result) -> bool {
    let ap = result.rows[0].rtt.percentile(50.0);
    let stp_medians: Vec<u64> = result.rows[1..].iter().map(|r| r.rtt.percentile(50.0)).collect();
    let all_geq = stp_medians.iter().all(|&s| s >= ap);
    let some_worse = stp_medians.iter().any(|&s| s > ap);
    all_geq && some_worse
}
