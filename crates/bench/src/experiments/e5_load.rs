//! **E5 — §2.2 "load distribution and path diversity".**
//!
//! The paper lists load spreading as a core advantage: ARP-Path paths
//! follow per-flow races, so different host pairs settle on different
//! links, while STP funnels every flow onto one tree (and never uses
//! blocked links at all). We attach many host pairs to a grid fabric,
//! run an all-pairs ping workload, and compare how the data traffic
//! spreads over the fabric links — Jain's fairness index plus the
//! fraction of links carrying any data.

use super::{attach_ping_pair, stp_convergence_time};
use arppath::ArpPathConfig;
use arppath_host::{PingConfig, PingHost};
use arppath_metrics::{jain_index, Table};
use arppath_netsim::{SimDuration, SimTime};
use arppath_stp::StpConfig;
use arppath_topo::{generic, BridgeKind, TopoBuilder};

/// Parameters of one E5 run.
#[derive(Debug, Clone, Copy)]
pub struct E5Params {
    /// Grid side (the fabric is `side × side`).
    pub side: usize,
    /// Ping probes per pair.
    pub probes: u64,
    /// STP timer divisor (tests use >1 for speed; harness uses 1).
    pub stp_timer_divisor: u64,
}

impl Default for E5Params {
    fn default() -> Self {
        E5Params { side: 4, probes: 50, stp_timer_divisor: 1 }
    }
}

/// One protocol's spreading metrics.
#[derive(Debug, Clone)]
pub struct E5Row {
    /// `"arp-path"` or `"stp"`.
    pub config: &'static str,
    /// Jain fairness of per-link data-frame counts (fabric links only).
    pub jain: f64,
    /// Fraction of fabric links carrying a meaningful share of the
    /// traffic (> 5% of the mean link load).
    pub links_used: f64,
    /// Mean RTT across all pairs (µs).
    pub mean_rtt_us: f64,
    /// Total bytes the fabric carried.
    pub total_frames: u64,
}

/// Full E5 output.
#[derive(Debug, Clone)]
pub struct E5Result {
    /// ARP-Path row then STP row.
    pub rows: Vec<E5Row>,
}

fn run_one(kind: BridgeKind, params: &E5Params, label: &'static str) -> E5Row {
    let mut t = TopoBuilder::new(kind);
    let bridges = generic::grid(&mut t, params.side, params.side);
    // Host pairs on opposite corners of every row: corner-to-corner
    // flows must cross the fabric.
    let warmup = match kind {
        BridgeKind::Stp(_) | BridgeKind::StpNetFpga(..) => {
            if params.stp_timer_divisor > 1 {
                SimDuration::nanos(stp_convergence_time().as_nanos() / params.stp_timer_divisor)
            } else {
                stp_convergence_time()
            }
        }
        _ => SimDuration::millis(100),
    };
    let mut probers = Vec::new();
    let mut host_id = 1u32;
    for row in 0..params.side {
        let left = bridges[row * params.side];
        let right = bridges[row * params.side + params.side - 1];
        let cfg = PingConfig {
            start_at: warmup + SimDuration::millis(7 * row as u64),
            interval: SimDuration::millis(10),
            count: params.probes,
            // Big probes so data bytes dwarf control chatter in the
            // per-link load measurement below.
            payload_len: 1000,
            ..Default::default()
        };
        let (p, _r) = attach_ping_pair(&mut t, left, right, host_id, host_id + 1, cfg);
        probers.push(p);
        host_id += 2;
    }
    // Column pairs as well, to cross flows.
    for col in 0..params.side {
        let top = bridges[col];
        let bottom = bridges[(params.side - 1) * params.side + col];
        let cfg = PingConfig {
            start_at: warmup + SimDuration::millis(3 + 7 * col as u64),
            interval: SimDuration::millis(10),
            count: params.probes,
            payload_len: 1000,
            ..Default::default()
        };
        let (p, _r) = attach_ping_pair(&mut t, top, bottom, host_id, host_id + 1, cfg);
        probers.push(p);
        host_id += 2;
    }
    let mut built = t.build();
    let deadline = warmup + SimDuration::millis(10).times(params.probes + 100);
    built.net.run_until(SimTime(deadline.as_nanos()));

    // Per-fabric-link transmitted bytes. With 1000-byte probes the
    // data dwarfs control chatter (60-byte hellos at 1 pps per port,
    // 60-byte BPDUs every 2 s), so byte loads measure data spreading.
    // "Used" means the link carried a meaningful share — above 5% of
    // the mean load — which excludes links carrying only control.
    let loads: Vec<f64> = built
        .bridge_links
        .iter()
        .map(|&l| {
            let link = built.net.link(l);
            (link.stats(arppath_netsim::Dir::AtoB).tx_bytes
                + link.stats(arppath_netsim::Dir::BtoA).tx_bytes) as f64
        })
        .collect();
    let mean = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
    let used =
        loads.iter().filter(|&&x| x > mean * 0.05).count() as f64 / loads.len().max(1) as f64;
    let mut rtt_sum = 0.0;
    let mut rtt_n = 0u64;
    for &p in &probers {
        let prober = built.net.device::<PingHost>(built.host_nodes[p]);
        rtt_sum += prober.rtt.mean() * prober.rtt.count() as f64;
        rtt_n += prober.rtt.count() as u64;
    }
    E5Row {
        config: label,
        jain: jain_index(&loads),
        links_used: used,
        mean_rtt_us: if rtt_n > 0 { rtt_sum / rtt_n as f64 / 1e3 } else { f64::NAN },
        total_frames: loads.iter().sum::<f64>() as u64,
    }
}

/// Run both protocols.
pub fn run(params: &E5Params) -> E5Result {
    let stp_cfg = if params.stp_timer_divisor > 1 {
        StpConfig::scaled_down(params.stp_timer_divisor)
    } else {
        StpConfig::default()
    };
    E5Result {
        rows: vec![
            run_one(BridgeKind::ArpPath(ArpPathConfig::default()), params, "arp-path"),
            run_one(BridgeKind::Stp(stp_cfg), params, "stp"),
        ],
    }
}

/// Render the paper-style table.
pub fn table(result: &E5Result) -> Table {
    let mut t = Table::new(
        "E5 (§2.2): load distribution across fabric links (grid, crossing flows)",
        &["config", "jain index", "links carrying traffic", "mean RTT (us)", "total frames"],
    );
    for r in &result.rows {
        t.row(&[
            r.config.to_string(),
            format!("{:.3}", r.jain),
            format!("{:.0}%", r.links_used * 100.0),
            format!("{:.2}", r.mean_rtt_us),
            r.total_frames.to_string(),
        ]);
    }
    t
}
