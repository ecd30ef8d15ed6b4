//! Experiment implementations, one module per paper anchor.
//!
//! Each experiment is a plain function from a parameter struct to a
//! result struct, plus a `table()` renderer — so the `repro` binary,
//! the integration tests and `benchmark/`'s fidelity checks all share
//! one implementation.
//!
//! # Numbering: where is E4?
//!
//! The experiment numbers E1–E8 are stable across the repository
//! (README table, `docs/EXPERIMENTS.md`, the `repro` binary, CI), and
//! **E4 is deliberately absent from this module list**: it is the
//! paper's Figure 1 *discovery walkthrough* — a step-by-step assertion
//! suite over one ARP exchange, not a parameterized run that produces
//! a table. It lives as the integration suite
//! `tests/fig1_walkthrough.rs` (and the `quickstart` example replays
//! it interactively). Every other number has both a module here and a
//! `repro` subcommand.

pub mod e11_churn;
pub mod e12_scale;
pub mod e1_latency;
pub mod e2_repair;
pub mod e3_linerate;
pub mod e5_load;
pub mod e6_proxy;
pub mod e7_ablation;
pub mod e8_fattree;
pub mod e9_congestion;

use arppath_host::{PingConfig, PingHost, TrafficPattern};
use arppath_netsim::{Dir, DirStats, Engine, NetworkStats, SimDuration, SimTime};
use arppath_topo::{BridgeIx, FatTree, Partition, TopoBuilder, Topology};
use arppath_wire::MacAddr;
use std::net::Ipv4Addr;

/// What one delivery-traced run leaves behind: the byte-comparable
/// trace plus the counters a golden regression pin
/// (`tests/event_elision_golden.rs`) records next to it. The
/// experiments' `delivery_trace` functions are the `.trace` of their
/// `traced_run`.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// Merged, timestamp-sorted delivery trace.
    pub trace: Vec<String>,
    /// Engine counters (boundary-corrected on a sharded run).
    pub stats: NetworkStats,
    /// Per-direction link counters summed over every link, both
    /// directions (`peak_queue_bytes` is therefore a sum of peaks).
    pub links: DirStats,
}

impl TracedRun {
    /// Collect from a finished run built with its delivery trace on.
    pub(crate) fn of<N: Engine>(topo: &Topology<N>) -> Self {
        let links = topo.bridge_links.iter().chain(&topo.host_links);
        TracedRun {
            trace: topo.net.delivery_trace(),
            stats: topo.net.stats(),
            links: sum_dirs(links.flat_map(|&l| DIRS.map(|d| topo.net.link_stats(l, d)))),
        }
    }
}

/// The rack-major partition of a fat-tree with `hosts_per_edge` hosts
/// per rack over `shards` workers. Rack-major assigns whole pods, so
/// callers clamp `shards` to the pod count `k` (a k=4 fabric can use at
/// most 4 workers even when a sweep's larger fabrics use more).
pub(crate) fn rack_major(ft: &FatTree, hosts_per_edge: usize, shards: usize) -> Partition {
    Partition::rack_major(ft, hosts_per_edge, ft.host_capacity(hosts_per_edge), shards)
}

/// Table label for a workload pattern.
pub(crate) fn pattern_label(pattern: TrafficPattern) -> &'static str {
    match pattern {
        TrafficPattern::Permutation => "permutation",
        TrafficPattern::Hotspot { .. } => "hotspot",
    }
}

/// Run `topo` to `deadline` and hand it back for measurement.
pub(crate) fn run_to<N: Engine>(mut topo: Topology<N>, deadline: SimTime) -> Topology<N> {
    topo.net.run_until(deadline);
    topo
}

const DIRS: [Dir; 2] = [Dir::AtoB, Dir::BtoA];

fn sum_dirs(stats: impl Iterator<Item = DirStats>) -> DirStats {
    stats.fold(DirStats::default(), |mut sum, s| {
        sum.tx_frames += s.tx_frames;
        sum.tx_bytes += s.tx_bytes;
        sum.dropped_queue_full += s.dropped_queue_full;
        sum.dropped_link_down += s.dropped_link_down;
        sum.busy = sum.busy + s.busy;
        sum.pause_events += s.pause_events;
        sum.paused_for = sum.paused_for + s.paused_for;
        sum.peak_queue_bytes += s.peak_queue_bytes;
        sum.watchdog_fires += s.watchdog_fires;
        sum.dropped_watchdog += s.dropped_watchdog;
        sum
    })
}

/// Host addressing convention used across experiments: host `i` gets
/// MAC `02:01::i` and IP `10.0.x.y`.
pub fn host_mac(i: u32) -> MacAddr {
    MacAddr::from_index(1, i)
}

/// IP of host `i` (supports up to 2^16 hosts).
pub fn host_ip(i: u32) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, (i >> 8) as u8, (i & 0xff) as u8)
}

/// Attach a probing ping host and its responder peer to two bridges.
/// Returns the prober's host index so callers can read its samples
/// after the run (`built.host_nodes[ix]`).
pub fn attach_ping_pair(
    t: &mut TopoBuilder,
    prober_bridge: BridgeIx,
    responder_bridge: BridgeIx,
    prober_host_id: u32,
    responder_host_id: u32,
    cfg: PingConfig,
) -> (usize, usize) {
    let prober = PingHost::new(
        format!("h{prober_host_id}"),
        host_mac(prober_host_id),
        host_ip(prober_host_id),
        prober_host_id as u16,
        PingConfig { target: host_ip(responder_host_id), ..cfg },
    );
    let responder = PingHost::new(
        format!("h{responder_host_id}"),
        host_mac(responder_host_id),
        host_ip(responder_host_id),
        responder_host_id as u16,
        PingConfig::default(), // pure responder
    );
    let p = t.host(prober_bridge, Box::new(prober));
    let r = t.host(responder_bridge, Box::new(responder));
    (p, r)
}

/// Standard warmup before measurements: lets STP converge with
/// standard timers (two forward delays + margin) and ARP-Path settle
/// its hellos. Experiments that scale timers down scale this too.
pub fn stp_convergence_time() -> SimDuration {
    SimDuration::secs(35)
}
