//! **E2 — §3.2 / Figure 3: path repair under successive link failures
//! during a video stream.**
//!
//! Host A streams CBR "video" to host B across the four-NetFPGA
//! fabric; links on the active path are cut one after another. For
//! ARP-Path, PathFail/PathRequest/PathReply re-establish the path
//! within a few network round trips and the viewer barely notices; the
//! STP baseline reconverges on protocol timers (tens of seconds with
//! standard values); the repair-disabled ablation only heals by entry
//! expiry.

use arppath::ArpPathConfig;
use arppath_host::{StreamClient, StreamClientConfig, StreamConfig, StreamServer};
use arppath_metrics::Table;
use arppath_netsim::{SimDuration, SimTime};
use arppath_stp::StpConfig;
use arppath_topo::{fig3_topology, BridgeKind};

use super::{host_ip, host_mac};

/// Which protocol variant a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum E2Variant {
    /// Full ARP-Path with repair (the paper's demo).
    ArpPath,
    /// ARP-Path with repair disabled (ablation: heal by expiry only).
    ArpPathNoRepair,
    /// 802.1D STP baseline.
    Stp,
}

impl E2Variant {
    /// Stable label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            E2Variant::ArpPath => "arp-path",
            E2Variant::ArpPathNoRepair => "arp-path (no repair)",
            E2Variant::Stp => "stp",
        }
    }
}

/// Parameters of one E2 run.
#[derive(Debug, Clone, Copy)]
pub struct E2Params {
    /// Stream rate (chunks per second).
    pub rate_pps: u64,
    /// Chunk payload bytes.
    pub chunk_len: usize,
    /// Stream duration.
    pub duration: SimDuration,
    /// Instants of the successive link cuts, as offsets into the run.
    /// Cut #1 takes NF2—NF4 (on the initial A→B path), cut #2 takes
    /// NF1—NF3 (on the repaired path) — each hits live traffic.
    pub failures: [SimDuration; 2],
    /// STP timer scale-down divisor (1 = standard timers). The tests
    /// use a larger divisor to keep wall-clock small; the shipped
    /// harness uses 1.
    pub stp_timer_divisor: u64,
}

/// A stall is a gap longer than this.
const STALL_THRESHOLD: SimDuration = SimDuration::millis(50);

impl Default for E2Params {
    fn default() -> Self {
        E2Params {
            rate_pps: 500,
            chunk_len: 1000,
            duration: SimDuration::secs(60),
            failures: [SimDuration::secs(10), SimDuration::secs(30)],
            stp_timer_divisor: 1,
        }
    }
}

/// Result of one variant's run.
#[derive(Debug, Clone)]
pub struct E2Row {
    /// Variant label.
    pub variant: &'static str,
    /// Chunks the server transmitted.
    pub sent: u64,
    /// Chunks the client received.
    pub received: u64,
    /// Chunks lost.
    pub lost: u64,
    /// Per-failure recovery time: first chunk delivered after the cut,
    /// minus the cut instant (`None` when the stream never recovered).
    pub recovery: Vec<Option<SimDuration>>,
    /// Longest stall the viewer saw.
    pub max_stall: SimDuration,
    /// Stalls longer than the threshold.
    pub stall_count: usize,
}

/// Full E2 output.
#[derive(Debug, Clone)]
pub struct E2Result {
    /// One row per variant.
    pub rows: Vec<E2Row>,
}

/// Run one variant.
pub fn run_variant(variant: E2Variant, params: &E2Params) -> E2Row {
    let kind = match variant {
        E2Variant::ArpPath => BridgeKind::ArpPathNetFpga(ArpPathConfig::default()),
        E2Variant::ArpPathNoRepair => {
            BridgeKind::ArpPathNetFpga(ArpPathConfig::default().without_repair())
        }
        E2Variant::Stp => {
            let cfg = if params.stp_timer_divisor > 1 {
                StpConfig::scaled_down(params.stp_timer_divisor)
            } else {
                StpConfig::default()
            };
            BridgeKind::StpNetFpga(cfg)
        }
    };
    let (mut t, fig) = fig3_topology(kind);
    // With homogeneous links the engine's deterministic FIFO tiebreak
    // makes the initial ARP race win via NF2 (NF1's lower port), so
    // the A→B path starts as NF1→NF2→NF4; the scripted cuts below are
    // chosen to hit the active path each time. STP with NF1 as root
    // also forwards A→B via NF2 (lower bridge id wins the tiebreak).
    t.stp_priority(fig.nf[0], 0x1000);

    // STP needs its tree up before the stream starts.
    let warmup = match variant {
        E2Variant::Stp => {
            let cfg = if params.stp_timer_divisor > 1 {
                StpConfig::scaled_down(params.stp_timer_divisor)
            } else {
                StpConfig::default()
            };
            SimDuration::nanos(cfg.forward_delay.as_nanos() * 2 + cfg.hello_time.as_nanos() * 4)
        }
        _ => SimDuration::millis(100),
    };

    let total_chunks = params.rate_pps * params.duration.as_nanos() / 1_000_000_000;
    let server = StreamServer::new(
        "A",
        host_mac(1),
        host_ip(1),
        StreamConfig {
            client: host_ip(2),
            start_at: warmup,
            rate_pps: params.rate_pps,
            chunk_len: params.chunk_len,
            total_chunks,
        },
    );
    let client = StreamClient::new(
        "B",
        host_mac(2),
        host_ip(2),
        StreamClientConfig { server: host_ip(1), report_interval: SimDuration::millis(500) },
    );
    let a_ix = t.host(fig.host_a_bridge(), Box::new(server));
    let b_ix = t.host(fig.host_b_bridge(), Box::new(client));
    let mut built = t.build();

    // Scripted failures, each hitting the then-active path:
    // the flood tiebreak makes the initial path A—NF1—NF2—NF4—B, so
    // cut #1 takes NF2—NF4 (repair re-routes via NF1—NF3—NF4), and
    // cut #2 takes NF1—NF3 (forcing the final NF1—NF2—NF3—NF4 route).
    let l1 = built.link_between(fig.nf[1], fig.nf[3]).expect("NF2—NF4 exists");
    let l2 = built.link_between(fig.nf[0], fig.nf[2]).expect("NF1—NF3 exists");
    let f1 = SimTime((warmup + params.failures[0]).as_nanos());
    let f2 = SimTime((warmup + params.failures[1]).as_nanos());
    built.net.schedule_link_down(l1, f1);
    built.net.schedule_link_down(l2, f2);

    let end = warmup + params.duration + SimDuration::secs(2);
    built.net.run_until(SimTime(end.as_nanos()));

    let server = built.net.device::<StreamServer>(built.host_nodes[a_ix]);
    let sent = server.sent;
    let client = built.net.device::<StreamClient>(built.host_nodes[b_ix]);
    let recovery = [f1, f2]
        .iter()
        .map(|f| {
            client
                .arrivals
                .points()
                .iter()
                .find(|&&(t, _)| t >= f.as_nanos())
                .map(|&(t, _)| SimDuration::nanos(t - f.as_nanos()))
        })
        .collect();
    let stalls = client.stalls_over(STALL_THRESHOLD);
    E2Row {
        variant: variant.label(),
        sent,
        received: client.received,
        lost: sent.saturating_sub(client.received),
        recovery,
        max_stall: SimDuration::nanos(client.arrivals.max_gap().map(|(_, g)| g).unwrap_or(0)),
        stall_count: stalls.len(),
    }
}

/// Run all three variants.
pub fn run(params: &E2Params) -> E2Result {
    E2Result {
        rows: vec![
            run_variant(E2Variant::ArpPath, params),
            run_variant(E2Variant::ArpPathNoRepair, params),
            run_variant(E2Variant::Stp, params),
        ],
    }
}

/// Render the paper-style table.
pub fn table(result: &E2Result) -> Table {
    let mut t = Table::new(
        "E2 (Fig. 3, §3.2): video stream across successive link failures",
        &[
            "variant",
            "sent",
            "received",
            "lost",
            "recovery #1",
            "recovery #2",
            "max stall",
            "stalls >50ms",
        ],
    );
    for row in &result.rows {
        let rec = |r: &Option<SimDuration>| match r {
            Some(d) => format!("{d}"),
            None => "never".to_string(),
        };
        t.row(&[
            row.variant.to_string(),
            row.sent.to_string(),
            row.received.to_string(),
            row.lost.to_string(),
            rec(&row.recovery[0]),
            rec(&row.recovery[1]),
            format!("{}", row.max_stall),
            row.stall_count.to_string(),
        ]);
    }
    t
}
