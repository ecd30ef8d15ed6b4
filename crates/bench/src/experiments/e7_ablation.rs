//! **E7 — design ablations: lock timer and hardware table size.**
//!
//! Two knobs the NetFPGA implementation had to choose and the paper's
//! §2.1.1 design implies:
//!
//! * the **lock timer** must outlive the ARP round trip (or the reply
//!   finds no lock and the path never confirms) and stay well under
//!   the learning timer (or stale locks block re-discovery);
//! * the **hardware table** bounds how many stations can hold locks /
//!   paths; overflow forces drops (the safe overflow policy) and
//!   repairs.
//!
//! Both sweeps run the Fig-2 ping scenario and report delivery health.

use super::attach_ping_pair;
use arppath::ArpPathConfig;
use arppath_host::{PingConfig, PingHost};
use arppath_metrics::Table;
use arppath_netfpga::NetFpgaParams;
use arppath_netsim::{SimDuration, SimTime};
use arppath_topo::{BridgeIx, BridgeKind, Fig2, TopoBuilder};

/// Parameters of the ablation sweeps.
#[derive(Debug, Clone, Copy)]
pub struct E7Params {
    /// Ping probes per configuration.
    pub probes: u64,
    /// Lock timer values to sweep (µs).
    pub lock_us: [u64; 5],
    /// Hardware table capacities to sweep.
    pub capacities: [usize; 4],
    /// Extra host pairs for the capacity sweep (table pressure).
    pub pressure_pairs: u32,
}

impl Default for E7Params {
    fn default() -> Self {
        E7Params {
            probes: 50,
            // The Fig-2 ARP RTT is ~20 µs; a 10 µs lock dies before
            // the reply returns.
            lock_us: [10, 50, 500, 50_000, 500_000],
            capacities: [2, 8, 64, 512],
            pressure_pairs: 6,
        }
    }
}

/// One sweep point.
#[derive(Debug, Clone)]
pub struct E7Row {
    /// Description of the point.
    pub config: String,
    /// Probes delivered / sent.
    pub delivered: u64,
    /// Probes sent.
    pub sent: u64,
    /// Repairs initiated fabric-wide.
    pub repairs: u64,
    /// Table-full rejections fabric-wide.
    pub table_full: u64,
    /// Median RTT (µs), NaN when nothing delivered.
    pub median_rtt_us: f64,
}

/// Full E7 output.
#[derive(Debug, Clone)]
pub struct E7Result {
    /// Lock-timer sweep rows then capacity sweep rows.
    pub rows: Vec<E7Row>,
}

fn run_point(cfg: ArpPathConfig, label: String, probes: u64, pressure_pairs: u32) -> E7Row {
    let mut t = TopoBuilder::new(BridgeKind::ArpPathNetFpga(cfg, NetFpgaParams::default()));
    let fig = Fig2::build(&mut t);
    let ping_cfg = PingConfig {
        start_at: SimDuration::millis(100),
        interval: SimDuration::millis(10),
        count: probes,
        ..Default::default()
    };
    let (p_ix, _) = attach_ping_pair(&mut t, fig.nic_a, fig.nic_b, 1, 2, ping_cfg);
    // Table pressure: extra chatty pairs across the fabric.
    let mut id = 10u32;
    for i in 0..pressure_pairs {
        let a = fig.all_bridges()[i as usize % 4];
        let b = fig.all_bridges()[(i as usize + 2) % 4];
        let cfg = PingConfig {
            start_at: SimDuration::millis(50 + 5 * i as u64),
            interval: SimDuration::millis(20),
            count: probes / 2,
            ..Default::default()
        };
        attach_ping_pair(&mut t, a, b, id, id + 1, cfg);
        id += 2;
    }
    let mut built = t.build();
    built.net.run_until(SimTime(SimDuration::secs(3).as_nanos()));
    let mut repairs = 0;
    let mut table_full = 0;
    for i in 0..6 {
        let ap = built.arppath(BridgeIx(i)).ap_counters();
        repairs += ap.repairs_initiated;
        table_full += ap.table_full_rejections;
    }
    let prober = built.net.device::<PingHost>(built.host_nodes[p_ix]);
    let rtt = prober.rtt.clone();
    E7Row {
        config: label,
        delivered: prober.received,
        sent: prober.sent(),
        repairs,
        table_full,
        median_rtt_us: if rtt.is_empty() { f64::NAN } else { rtt.percentile(50.0) as f64 / 1e3 },
    }
}

/// Run both sweeps.
pub fn run(params: &E7Params) -> E7Result {
    let mut rows = Vec::new();
    for &us in &params.lock_us {
        let cfg = ArpPathConfig { lock_time: SimDuration::micros(us), ..Default::default() };
        rows.push(run_point(cfg, format!("lock={us}us"), params.probes, 0));
    }
    for &cap in &params.capacities {
        let cfg = ArpPathConfig::default().with_table_capacity(cap);
        rows.push(run_point(cfg, format!("table={cap}"), params.probes, params.pressure_pairs));
    }
    E7Result { rows }
}

/// Render the paper-style table.
pub fn table(result: &E7Result) -> Table {
    let mut t = Table::new(
        "E7: ablations — lock timer and hardware table capacity (Fig. 2 fabric)",
        &["config", "delivered", "sent", "repairs", "table-full drops", "median RTT (us)"],
    );
    for r in &result.rows {
        t.row(&[
            r.config.clone(),
            r.delivered.to_string(),
            r.sent.to_string(),
            r.repairs.to_string(),
            r.table_full.to_string(),
            if r.median_rtt_us.is_nan() { "-".into() } else { format!("{:.2}", r.median_rtt_us) },
        ]);
    }
    t
}
