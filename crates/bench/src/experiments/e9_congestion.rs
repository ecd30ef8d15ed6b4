//! **E9 — congested fabrics: finite queues, PFC backpressure, and
//! closed-loop flows.**
//!
//! E8 established that ARP-Path's race spreads load across a fat-tree's
//! parallel cores when queues are infinite. This experiment asks what
//! the paper's bridges do when the fabric *fills*: the same jittered
//! fat-trees now carry sized go-back-N flows ([`FlowHost`]) under three
//! port-queue regimes —
//!
//! * **infinite** — the E1–E8 default, drop-free and pause-free;
//! * **drop-tail** — 16 KiB per port direction, overflow discards;
//! * **PFC** — lossless pause/resume backpressure at the same 16 KiB
//!   threshold (resume at 8 KiB).
//!
//! Per (k, pattern, mode) the harness reports flow-completion-time
//! percentiles, retransmission and drop counts, pause accounting,
//! queue-depth shape, and the race's core spread — so the table shows
//! both *what congestion costs* (FCT tails under drop-tail, pause time
//! under PFC) and *how ARP-Path's race-based path choice shifts when
//! queues fill* (jain/core-spread per mode: under backpressure the race
//! is decided by queueing delay, not just propagation jitter).
//!
//! Everything is a pure function of [`E9Params`]; same seed ⇒ identical
//! tables, and the delivery trace is byte-identical between the
//! single-threaded and sharded engines (`tests/sharded_equivalence.rs`
//! pins it, pause frames crossing shard cuts included).

use super::e8_fattree::{core_diversity, core_loads};
use super::{host_ip, host_mac, pattern_label, rack_major, run_to, TracedRun};
use arppath::ArpPathConfig;
use arppath_host::{pairings, Aimd, FixedWindow, FlowConfig, FlowHost, TrafficPattern};
use arppath_metrics::{jain_index, DropCounter, FctSummary, QueueDepthSeries, Table};
use arppath_netsim::{Dir, Engine, PauseWatchdog, QueuePolicy, SimDuration, SimTime};
use arppath_topo::{generic, BridgeKind, BuiltTopology, FatTree, TopoBuilder, Topology};

/// Per-port-direction byte cap (drop-tail) and PFC pause threshold.
const QUEUE_CAP_BYTES: usize = 16 * 1024;

/// Default pause-watchdog deadline for the PFC regime. Well above any
/// pause a *draining* 16 KiB queue can sustain (~131 µs at 1 Gb/s, a
/// couple of ms with pause cascades), so it only ever fires on a
/// genuine cyclic-buffer-dependency deadlock; far below the run
/// horizon, so a wedged incast gets unstuck many times over before the
/// deadline. `tests/watchdog_properties.rs` pins the no-false-positive
/// side empirically.
const WATCHDOG_DEADLINE_MS: u64 = 10;

/// The queueing regime a fabric instance runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueMode {
    /// Unbounded FIFOs — the E1–E8 baseline.
    Infinite,
    /// 16 KiB drop-tail per port direction.
    DropTail,
    /// PFC pause at 16 KiB, resume at 8 KiB — lossless.
    Pfc,
}

impl QueueMode {
    /// All three regimes, in report order.
    pub const ALL: [QueueMode; 3] = [QueueMode::Infinite, QueueMode::DropTail, QueueMode::Pfc];

    /// The link-level policy this mode stamps over the fabric.
    pub fn policy(self) -> QueuePolicy {
        match self {
            QueueMode::Infinite => QueuePolicy::Infinite,
            QueueMode::DropTail => QueuePolicy::drop_tail(QUEUE_CAP_BYTES),
            QueueMode::Pfc => QueuePolicy::pfc(QUEUE_CAP_BYTES),
        }
    }

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            QueueMode::Infinite => "infinite",
            QueueMode::DropTail => "drop-tail",
            QueueMode::Pfc => "pfc",
        }
    }
}

/// The congestion controller every sender runs — the second axis of
/// the E9 grid since the PFC deadlock fix: a fixed window that keeps
/// pushing into a wedged fabric, versus AIMD senders that back off on
/// timeout and so mostly keep the fabric out of the deadlock region in
/// the first place (the watchdog stays as the backstop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcMode {
    /// `FixedWindow(8)` — the pre-PR-7 sender, window never moves.
    Fixed,
    /// [`Aimd`] from 2 segments, +1 per ack round, halved on timeout.
    Aimd,
}

impl CcMode {
    /// Both controllers, in report order.
    pub const ALL: [CcMode; 2] = [CcMode::Fixed, CcMode::Aimd];

    /// A fresh controller instance for one sender.
    pub fn controller(self) -> Box<dyn arppath_host::CongestionControl> {
        match self {
            CcMode::Fixed => Box::new(FixedWindow(8)),
            CcMode::Aimd => Box::new(Aimd::new(2, 64)),
        }
    }

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            CcMode::Fixed => "fixed",
            CcMode::Aimd => "aimd",
        }
    }
}

/// Parameters of one E9 run (one fabric size, all modes × patterns).
#[derive(Debug, Clone, Copy)]
pub struct E9Params {
    /// Fat-tree arity (even).
    pub k: usize,
    /// Hosts attached per edge switch.
    pub hosts_per_edge: usize,
    /// Segments per flow (each host sends one sized flow).
    pub segments: u64,
    /// UDP payload bytes per segment.
    pub segment_len: usize,
    /// Workload + jitter seed.
    pub seed: u64,
    /// Hot receivers for the incast pattern.
    pub hot_receivers: usize,
    /// Shards; `1` = single engine, `≥ 2` = sharded
    /// (rack-major, clamped to `k` like E8).
    pub shards: usize,
    /// Pause watchdog stamped over the PFC regime's links (the other
    /// regimes never pause, so it is not armed there). `Off` reproduces
    /// the PR-6 deadlock.
    pub watchdog: PauseWatchdog,
}

impl Default for E9Params {
    fn default() -> Self {
        E9Params {
            k: 4,
            hosts_per_edge: 4,
            segments: 32,
            segment_len: 700,
            seed: 0xE9,
            hot_receivers: 2,
            shards: 1,
            watchdog: PauseWatchdog::force_resume(SimDuration::millis(WATCHDOG_DEADLINE_MS)),
        }
    }
}

/// One (pattern, mode) cell of the congestion study.
#[derive(Debug, Clone)]
pub struct E9Row {
    /// `"permutation"` or `"hotspot"`.
    pub pattern: &'static str,
    /// Queueing regime label.
    pub mode: &'static str,
    /// Congestion-controller label (`"fixed"` or `"aimd"`).
    pub cc: &'static str,
    /// Fat-tree arity.
    pub k: usize,
    /// Hosts attached (= flows offered).
    pub hosts: usize,
    /// Flow-completion times (incomplete-at-deadline counted apart).
    pub fct: FctSummary,
    /// Go-back-N retransmissions summed over all senders.
    pub retransmits: u64,
    /// Labelled drop counts fabric-wide.
    pub drops: DropCounter,
    /// Pause assertions observed across all link directions.
    pub pause_events: u64,
    /// Pause-watchdog fires fabric-wide (stuck pauses broken).
    pub watchdog_fires: u64,
    /// Total paused time across all link directions, nanoseconds.
    pub pause_time_ns: u64,
    /// High-water queue depth across all link directions, bytes.
    pub peak_queue_bytes: u64,
    /// Fabric-wide queued bytes over time (single-engine runs; empty
    /// when sharded — per-shard queues aren't sampled mid-run).
    pub depth: QueueDepthSeries,
    /// Distinct core switches crossed by at least one learned path.
    pub distinct_cores: usize,
    /// Core switches in the fabric.
    pub total_cores: usize,
    /// Jain fairness of per-core-link byte loads.
    pub jain_core: f64,
}

/// Full E9 output for one fabric size: `patterns × modes` rows.
#[derive(Debug, Clone)]
pub struct E9Result {
    /// Rows in (pattern, mode) order: permutation then hotspot, each
    /// infinite/drop-tail/pfc.
    pub rows: Vec<E9Row>,
}

/// Lay out one E9 scenario: the E8 jittered fabric, one sized
/// go-back-N flow per host under `cc`'s controller, and the mode's
/// queue policy (plus, for PFC, the pause watchdog) stamped over every
/// link — fabric cables and host attachments alike. Shared by the
/// measurement run, the delivery-trace capture, and the differential
/// fuzzer (`crate::difftest`), which varies the partition on top.
pub(crate) fn scenario(
    params: &E9Params,
    mode: QueueMode,
    cc: CcMode,
    pattern: TrafficPattern,
) -> (TopoBuilder, FatTree, Vec<usize>, SimTime) {
    // Path-table geometry is derived from the host count by
    // TopoBuilder at build time (see E8's scenario note).
    let mut t = TopoBuilder::new(BridgeKind::ArpPath(ArpPathConfig::default()));
    // Same jitter derivation as E8: one seed pins the whole scenario.
    let ft = generic::fat_tree_jittered(&mut t, params.k, params.seed.wrapping_add(0xFA7));
    let n = ft.host_capacity(params.hosts_per_edge);
    let pairs = pairings(n, pattern, params.seed);

    let warmup = SimDuration::millis(100);
    // Tighter stagger than E8's open-loop workload: closed-loop flows
    // are short (window-clocked), so congestion requires them to
    // actually overlap. 11 µs still keeps ARP floods off one another's
    // timestamps.
    let stagger = SimDuration::micros(11);
    for (i, &dst) in pairs.iter().enumerate() {
        let id = (i + 1) as u32;
        let cfg = FlowConfig {
            target: Some(host_ip((dst + 1) as u32)),
            start_at: warmup + stagger.times(i as u64),
            segments: params.segments,
            segment_len: params.segment_len,
            rto: SimDuration::millis(5),
            ..FlowConfig::default()
        };
        let host = FlowHost::with_controller(
            format!("h{id}"),
            host_mac(id),
            host_ip(id),
            cfg,
            cc.controller(),
        );
        t.host(ft.edge_of_host(i, params.hosts_per_edge), Box::new(host));
    }
    // Stamp the regime over everything declared above. Only the PFC
    // regime arms the watchdog: the other modes never pause, and
    // keeping their link parameters untouched keeps their traces
    // byte-identical to PR 6's.
    t.set_queue_policy(mode.policy());
    if mode == QueueMode::Pfc {
        t.set_watchdog(params.watchdog);
    }

    // Horizon: enough for heavy go-back-N recovery under incast;
    // stragglers are *counted* (FctSummary::incomplete), not hidden.
    let deadline = warmup + stagger.times(n as u64) + SimDuration::millis(400);
    (t, ft, pairs, SimTime(deadline.as_nanos()))
}

/// Measure one (mode, cc, pattern) cell. Public so the watchdog
/// property tests can probe individual cells (fires, drops,
/// completion) without paying for the full grid.
pub fn run_cell(params: &E9Params, mode: QueueMode, cc: CcMode, pattern: TrafficPattern) -> E9Row {
    let (t, ft, pairs, deadline) = scenario(params, mode, cc, pattern);
    let shards = params.shards.min(ft.k);
    if shards > 1 {
        let partition = rack_major(&ft, params.hosts_per_edge, shards);
        let topo = run_to(t.build_sharded(&partition, false), deadline);
        measure(params, mode, cc, pattern, &ft, &pairs, &topo)
    } else {
        let mut topo = t.build();
        let depth = run_sampling_depth(&mut topo, deadline);
        E9Row { depth, ..measure(params, mode, cc, pattern, &ft, &pairs, &topo) }
    }
}

/// Run the single engine to `deadline` in slices, sampling fabric-wide
/// queued bytes on a fixed cadence (slicing is behaviorally identical
/// to one `run_until` — the event order is unchanged).
fn run_sampling_depth(topo: &mut BuiltTopology, deadline: SimTime) -> QueueDepthSeries {
    let mut depth = QueueDepthSeries::new();
    // A 16 KiB queue drains in ~131 us at 1 Gb/s, so the cadence must
    // be well below that to see occupancy at all.
    let tick = SimDuration::micros(50);
    let links = [topo.bridge_links.clone(), topo.host_links.clone()].concat();
    let mut at = SimTime(tick.as_nanos());
    while at < deadline {
        topo.net.run_until(at);
        let queued: u64 = links
            .iter()
            .flat_map(|&l| [Dir::AtoB, Dir::BtoA].map(|d| topo.net.link(l).queue_depth(d).1 as u64))
            .sum();
        depth.push(at.as_nanos(), queued);
        at += tick;
    }
    topo.net.run_until(deadline);
    depth
}

/// One cell's metrics off a finished run, on either engine (`depth` is
/// left empty: only the single engine samples it mid-run).
fn measure<N: Engine>(
    params: &E9Params,
    mode: QueueMode,
    cc: CcMode,
    pattern: TrafficPattern,
    ft: &FatTree,
    pairs: &[usize],
    topo: &Topology<N>,
) -> E9Row {
    let now = topo.net.now();

    // Flow completion, per sender.
    let mut fct = FctSummary::new();
    let mut retransmits = 0u64;
    for &h in &topo.host_nodes {
        let host = topo.net.device::<FlowHost>(h);
        retransmits += host.retransmits;
        match host.fct {
            Some(d) => fct.record(d.as_nanos()),
            None => fct.record_incomplete(),
        }
    }

    // Drop + pause accounting. Pause time includes a still-open pause
    // interval at `now` — a deadlocked direction stays paused through
    // the deadline and would otherwise report zero.
    let stats = topo.net.stats();
    let mut drops = DropCounter::new();
    drops.add("queue_full", stats.drops_queue_full);
    drops.add("link_down", stats.drops_link_down);
    drops.add("watchdog", stats.drops_watchdog);
    let mut pause_events = 0u64;
    let mut pause_time_ns = 0u64;
    let mut peak_queue_bytes = 0u64;
    for &l in topo.bridge_links.iter().chain(&topo.host_links) {
        for dir in [Dir::AtoB, Dir::BtoA] {
            let s = topo.net.link_stats(l, dir);
            pause_events += s.pause_events;
            pause_time_ns += topo.net.link_paused_for(l, dir, now).as_nanos();
            peak_queue_bytes = peak_queue_bytes.max(s.peak_queue_bytes);
        }
    }

    // Core spread of the learned paths (the path-shift observable).
    let core_loads = core_loads(ft, topo);
    let diversity = core_diversity(ft, params.hosts_per_edge, pairs, topo);

    E9Row {
        pattern: pattern_label(pattern),
        mode: mode.label(),
        cc: cc.label(),
        k: params.k,
        hosts: pairs.len(),
        fct,
        retransmits,
        drops,
        pause_events,
        watchdog_fires: stats.watchdog_fires,
        pause_time_ns,
        peak_queue_bytes,
        depth: QueueDepthSeries::new(),
        distinct_cores: diversity.distinct_items(),
        total_cores: ft.core.len(),
        jain_core: jain_index(&core_loads),
    }
}

/// The merged, timestamp-sorted delivery trace of one (mode, cc,
/// pattern) run — the byte-comparable artifact CI diffs between the
/// single-threaded and sharded engines. With PFC this includes every
/// pause/resume control frame's delivery, so the comparison also pins
/// backpressure crossing shard cuts.
pub fn delivery_trace_cc(
    params: &E9Params,
    mode: QueueMode,
    cc: CcMode,
    pattern: TrafficPattern,
) -> Vec<String> {
    traced_run(params, mode, cc, pattern).trace
}

/// [`delivery_trace_cc`] plus the engine and link counters of the
/// same run.
pub fn traced_run(
    params: &E9Params,
    mode: QueueMode,
    cc: CcMode,
    pattern: TrafficPattern,
) -> TracedRun {
    let (t, ft, _pairs, deadline) = scenario(params, mode, cc, pattern);
    let shards = params.shards.min(ft.k);
    if shards > 1 {
        let partition = rack_major(&ft, params.hosts_per_edge, shards);
        TracedRun::of(&run_to(t.build_sharded(&partition, true), deadline))
    } else {
        TracedRun::of(&run_to(t.build_single(true), deadline))
    }
}

/// Run all modes × both patterns × both controllers on one fabric
/// size.
pub fn run(params: &E9Params) -> E9Result {
    let mut rows = Vec::new();
    for pattern in [
        TrafficPattern::Permutation,
        TrafficPattern::Hotspot { hot_receivers: params.hot_receivers },
    ] {
        for mode in QueueMode::ALL {
            for cc in CcMode::ALL {
                rows.push(run_cell(params, mode, cc, pattern));
            }
        }
    }
    E9Result { rows }
}

/// Render the congestion summary across fabric sizes.
pub fn table(results: &[E9Result]) -> Table {
    let mut t = Table::new(
        "E9: congested fabrics — FCT, drops and pause time per queueing mode",
        &[
            "k",
            "pattern",
            "mode",
            "cc",
            "flows",
            "done",
            "fct p50 (ms)",
            "fct p99 (ms)",
            "retx",
            "drops",
            "wd fires",
            "pause (ms)",
            "peak q (B)",
            "cores used",
            "jain (core)",
        ],
    );
    for result in results {
        for r in &result.rows {
            let done = if r.fct.incomplete() > 0 {
                format!("{}/{}", r.fct.completed(), r.hosts)
            } else {
                r.fct.completed().to_string()
            };
            t.row(&[
                r.k.to_string(),
                r.pattern.to_string(),
                r.mode.to_string(),
                r.cc.to_string(),
                r.hosts.to_string(),
                done,
                format!("{:.3}", r.fct.percentile(50.0) as f64 / 1e6),
                format!("{:.3}", r.fct.percentile(99.0) as f64 / 1e6),
                r.retransmits.to_string(),
                r.drops.get("queue_full").to_string(),
                r.watchdog_fires.to_string(),
                format!("{:.3}", r.pause_time_ns as f64 / 1e6),
                r.peak_queue_bytes.to_string(),
                format!("{}/{}", r.distinct_cores, r.total_cores),
                format!("{:.3}", r.jain_core),
            ]);
        }
    }
    t
}

/// The FixedWindow-vs-AIMD comparison, one row per congested regime:
/// the committed evidence (and CI gate input) behind "AIMD shows a
/// lower p99 FCT than the fixed window in at least one congested
/// regime".
pub fn fct_comparison_table(results: &[E9Result]) -> Table {
    let mut t = Table::new(
        "E9: FixedWindow vs AIMD flow-completion times per congested regime",
        &[
            "k",
            "pattern",
            "mode",
            "fixed p50 (ms)",
            "fixed p99 (ms)",
            "aimd p50 (ms)",
            "aimd p99 (ms)",
            "aimd wins p99",
        ],
    );
    let ms = |ns: u64| format!("{:.3}", ns as f64 / 1e6);
    for (fixed, aimd) in regime_pairs(results) {
        t.row(&[
            fixed.k.to_string(),
            fixed.pattern.to_string(),
            fixed.mode.to_string(),
            ms(fixed.fct.percentile(50.0)),
            ms(fixed.fct.percentile(99.0)),
            ms(aimd.fct.percentile(50.0)),
            ms(aimd.fct.percentile(99.0)),
            if aimd_beats_fixed(fixed, aimd) { "yes" } else { "no" }.to_string(),
        ]);
    }
    t
}

/// Pair up fixed/aimd rows of the same congested (k, pattern, mode)
/// regime, across all fabric sizes. Infinite-queue rows are excluded:
/// nothing is congested there, so the comparison says nothing.
fn regime_pairs(results: &[E9Result]) -> Vec<(&E9Row, &E9Row)> {
    let mut pairs = Vec::new();
    for result in results {
        for fixed in result.rows.iter().filter(|r| r.cc == "fixed" && r.mode != "infinite") {
            let aimd = result.rows.iter().find(|r| {
                r.cc == "aimd"
                    && r.mode == fixed.mode
                    && r.pattern == fixed.pattern
                    && r.k == fixed.k
            });
            if let Some(aimd) = aimd {
                pairs.push((fixed, aimd));
            }
        }
    }
    pairs
}

/// `aimd` strictly improves on `fixed` in this regime: every AIMD flow
/// completed and the p99 FCT is strictly lower.
fn aimd_beats_fixed(fixed: &E9Row, aimd: &E9Row) -> bool {
    aimd.fct.incomplete() == 0
        && aimd.fct.completed() > 0
        && aimd.fct.percentile(99.0) < fixed.fct.percentile(99.0)
}

/// The tentpole gate: every PFC row — incast at k = 8 included — ends
/// with **all flows complete and zero drops**, under both controllers.
/// The watchdog may fire (that's its job); fires are counted in the
/// table, not hidden.
pub fn verify_pfc_lossless_completion(results: &[E9Result]) -> bool {
    results.iter().all(|result| {
        result.rows.iter().filter(|r| r.mode == "pfc").all(|r| {
            r.fct.incomplete() == 0
                && r.fct.completed() == r.hosts as u64
                && r.drops.get("queue_full") == 0
                && r.drops.get("watchdog") == 0
        })
    })
}

/// The AIMD gate: at least one congested regime where AIMD's p99 FCT
/// strictly beats the fixed window's.
pub fn verify_aimd_beats_fixed_somewhere(results: &[E9Result]) -> bool {
    regime_pairs(results).iter().any(|(fixed, aimd)| aimd_beats_fixed(fixed, aimd))
}

/// Render the queue-depth shape per mode for one fabric size (max and
/// time-weighted mean of fabric-wide queued bytes; single-engine runs).
pub fn depth_table(result: &E9Result) -> Table {
    let k = result.rows.first().map(|r| r.k).unwrap_or(0);
    let mut t = Table::new(
        format!("E9: fabric-wide queued bytes over time, k={k}"),
        &["pattern", "mode", "cc", "samples", "max (B)", "mean (B)", "time>cap (ms)"],
    );
    for r in &result.rows {
        t.row(&[
            r.pattern.to_string(),
            r.mode.to_string(),
            r.cc.to_string(),
            r.depth.len().to_string(),
            r.depth.max_bytes().to_string(),
            format!("{:.0}", r.depth.mean_bytes()),
            format!("{:.3}", r.depth.time_above(QUEUE_CAP_BYTES as u64) as f64 / 1e6),
        ]);
    }
    t
}

/// The acceptance gate: at the same offered load, per fabric size —
///
/// * the infinite baseline neither drops nor pauses,
/// * drop-tail drops (the load is genuinely past the cap),
/// * PFC drops **nothing** and its pause accounting is nonzero (the
///   backpressure did the work the drops would have done).
pub fn verify_congestion(results: &[E9Result]) -> bool {
    results.iter().all(|result| {
        let total = |mode: &str, f: &dyn Fn(&E9Row) -> u64| -> u64 {
            result.rows.iter().filter(|r| r.mode == mode).map(f).sum()
        };
        let drops = |mode: &str| total(mode, &|r| r.drops.get("queue_full"));
        drops("infinite") == 0
            && total("infinite", &|r| r.pause_events) == 0
            && drops("drop-tail") > 0
            && drops("pfc") == 0
            && total("pfc", &|r| r.pause_time_ns) > 0
    })
}
