//! The sharded engine's contract, held at the trace level: a sharded
//! run's **merged, timestamp-sorted delivery trace** is byte-for-byte
//! identical to the single-threaded engine's on the same scenario —
//! the paper's figure topologies and seeded fat-tree workloads alike —
//! and the aggregate engine counters agree after boundary correction.
//!
//! Companion of `tests/engine_batching.rs`: that suite proves the
//! batched run loop equals single-stepping *within* one engine; this
//! one proves the partitioned engine equals the whole, across every
//! partition tried. Between them, every execution strategy in the
//! repository is pinned to one observable behaviour.

use arppath::ArpPathConfig;
use arppath_bench::difftest::Spec;
use arppath_bench::experiments::e11_churn::{self, E11Params, TableRegime};
use arppath_bench::experiments::e8_fattree::{self, E8Params};
use arppath_bench::experiments::e9_congestion::{self, CcMode, E9Params, QueueMode};
use arppath_host::{PingConfig, PingHost, TrafficPattern};
use arppath_metrics::QueueDepthSeries;
use arppath_netsim::difftest::{check, Outcome};
use arppath_netsim::{Engine, NetworkStats, SimDuration, SimTime};
use arppath_topo::{BridgeKind, Fig1, Fig2, Partition, TopoBuilder, Topology};
use arppath_wire::MacAddr;
use std::net::Ipv4Addr;

/// Attach the standard prober/responder ping pair used across the
/// repository's determinism suites.
fn attach_ping_pair(
    t: &mut TopoBuilder,
    at_a: arppath_topo::BridgeIx,
    at_b: arppath_topo::BridgeIx,
) {
    let prober = PingHost::new(
        "A",
        MacAddr::from_index(1, 1),
        Ipv4Addr::new(10, 0, 0, 1),
        1,
        PingConfig {
            target: Ipv4Addr::new(10, 0, 0, 2),
            start_at: SimDuration::millis(5),
            interval: SimDuration::millis(7),
            count: 10,
            ..Default::default()
        },
    );
    let responder = PingHost::new(
        "B",
        MacAddr::from_index(1, 2),
        Ipv4Addr::new(10, 0, 0, 2),
        2,
        PingConfig::default(),
    );
    t.host(at_a, Box::new(prober));
    t.host(at_b, Box::new(responder));
}

/// Run a built topology to `horizon`, returning the canonical delivery
/// trace and the engine counters (boundary-corrected when sharded).
fn run<N: Engine>(mut topo: Topology<N>, horizon: SimTime) -> (Vec<String>, NetworkStats) {
    topo.net.run_until(horizon);
    (topo.net.delivery_trace(), topo.net.stats())
}

fn fig1_scenario() -> (TopoBuilder, usize) {
    let mut t = TopoBuilder::new(BridgeKind::ArpPath(ArpPathConfig::default()));
    let fig = Fig1::build(&mut t);
    attach_ping_pair(&mut t, fig.host_s_bridge(), fig.host_d_bridge());
    let bridges = t.bridge_count();
    (t, bridges)
}

fn fig2_scenario() -> (TopoBuilder, usize) {
    let mut t = TopoBuilder::new(BridgeKind::ArpPath(ArpPathConfig::default()));
    // Heterogeneous delays: the minimum-latency path differs from the
    // minimum-hop path, so the race actually races — and every arrival
    // time is distinct, the regime the figures are studied in.
    let fig = Fig2::build_with_delays(&mut t, &[2, 3, 1, 4, 2, 5, 1, 3]);
    attach_ping_pair(&mut t, fig.nic_a, fig.nic_b);
    let bridges = t.bridge_count();
    (t, bridges)
}

#[test]
fn fig1_sharded_trace_is_byte_identical() {
    let horizon = SimTime(SimDuration::millis(150).as_nanos());
    let (t, bridges) = fig1_scenario();
    let (reference, ref_stats) = run(t.build_single(true), horizon);
    assert!(!reference.is_empty(), "scenario must produce traffic");
    for shards in [2usize, 3] {
        let (t, _) = fig1_scenario();
        let partition = Partition::round_robin(bridges, 2, shards);
        let (trace, stats) = run(t.build_sharded(&partition, true), horizon);
        assert_eq!(trace, reference, "Fig-1 delivery trace diverged at {shards} shards");
        assert_eq!(stats, ref_stats, "Fig-1 counters diverged at {shards} shards");
    }
}

#[test]
fn fig2_sharded_trace_is_byte_identical() {
    let horizon = SimTime(SimDuration::millis(250).as_nanos());
    let (t, bridges) = fig2_scenario();
    let (reference, ref_stats) = run(t.build_single(true), horizon);
    assert!(!reference.is_empty(), "scenario must produce traffic");
    for shards in [2usize, 3] {
        let (t, _) = fig2_scenario();
        let partition = Partition::round_robin(bridges, 2, shards);
        let (trace, stats) = run(t.build_sharded(&partition, true), horizon);
        assert_eq!(trace, reference, "Fig-2 delivery trace diverged at {shards} shards");
        assert_eq!(stats, ref_stats, "Fig-2 counters diverged at {shards} shards");
    }
}

#[test]
fn seeded_fat_tree_workloads_are_trace_identical() {
    // The E8 scenario end to end (jittered fabric, seeded permutation
    // workload, rack-major partition) — exactly what
    // `repro -- e8 --quick --shards N --trace-out` captures for CI.
    for seed in [0xE8u64, 7] {
        let params = |shards| E8Params {
            k: 4,
            hosts_per_edge: 2,
            datagrams: 3,
            seed,
            shards,
            ..Default::default()
        };
        let reference = e8_fattree::delivery_trace(&params(1), TrafficPattern::Permutation);
        assert!(!reference.is_empty(), "seed {seed:#x}: scenario must produce traffic");
        for shards in [2usize, 4] {
            let trace = e8_fattree::delivery_trace(&params(shards), TrafficPattern::Permutation);
            assert_eq!(
                trace, reference,
                "seed {seed:#x}: fat-tree delivery trace diverged at {shards} shards"
            );
        }
    }
}

#[test]
fn hotspot_pattern_is_trace_identical_too() {
    // Incast concentrates frames onto few receivers — the densest
    // cross-shard arrival schedule the workload generator produces.
    let params = |shards| E8Params {
        k: 4,
        hosts_per_edge: 2,
        datagrams: 3,
        hot_receivers: 2,
        shards,
        ..Default::default()
    };
    let pattern = TrafficPattern::Hotspot { hot_receivers: 2 };
    let reference = e8_fattree::delivery_trace(&params(1), pattern);
    let trace = e8_fattree::delivery_trace(&params(2), pattern);
    assert_eq!(trace, reference, "hotspot delivery trace diverged");
}

#[test]
fn congested_queues_and_pfc_are_trace_identical_across_shards() {
    // E9's finite-queue regimes stress exactly what the conservative
    // lookahead must not reorder: admission drops depend on queue
    // occupancy at enqueue time, and PFC pause frames are *wire bytes*
    // that cross shard cuts (the boundary stub forwards them) before
    // halting a transmitter on the far side. One early or late frame
    // flips a drop or a pause edge, so byte-identity here pins the
    // whole backpressure machinery.
    let params =
        |shards| E9Params { k: 4, hosts_per_edge: 2, segments: 8, shards, ..Default::default() };
    let pattern = TrafficPattern::Hotspot { hot_receivers: 2 };
    for mode in [QueueMode::DropTail, QueueMode::Pfc] {
        let reference = e9_congestion::delivery_trace_cc(&params(1), mode, CcMode::Fixed, pattern);
        assert!(!reference.is_empty(), "{mode:?}: scenario must produce traffic");
        let trace = e9_congestion::delivery_trace_cc(&params(2), mode, CcMode::Fixed, pattern);
        assert_eq!(trace, reference, "{mode:?}: congested delivery trace diverged at 2 shards");
    }
}

#[test]
fn watchdog_fires_are_shard_invariant() {
    // The pause watchdog's twin test: a PFC incast that genuinely
    // wedges (fixed-window senders, default k=4 geometry at full
    // segment count), so the watchdog must fire —
    // and every fire synthesizes a wire-visible resume record. If the
    // sharded engine armed or fired a watchdog at a different virtual
    // time, or resolved the deadlock in a different order, the merged
    // trace would diverge byte-for-byte. It must not: fires are
    // scheduled engine events under the same (time, seq) order as
    // everything else, so lookahead already covers them.
    let params = |shards| E9Params { shards, ..Default::default() };
    let pattern = TrafficPattern::Hotspot { hot_receivers: params(1).hot_receivers };

    // Precondition: this scenario actually deadlocks and recovers.
    let single = e9_congestion::run_cell(&params(1), QueueMode::Pfc, CcMode::Fixed, pattern);
    assert!(single.watchdog_fires > 0, "scenario must wedge for the twin test to mean anything");
    assert_eq!(single.fct.incomplete(), 0, "watchdog must unwedge every flow");

    let reference =
        e9_congestion::delivery_trace_cc(&params(1), QueueMode::Pfc, CcMode::Fixed, pattern);
    assert!(!reference.is_empty(), "scenario must produce traffic");
    for shards in [2usize, 3] {
        let trace = e9_congestion::delivery_trace_cc(
            &params(shards),
            QueueMode::Pfc,
            CcMode::Fixed,
            pattern,
        );
        assert_eq!(trace, reference, "watchdog fire order diverged at {shards} shards");
        let sharded =
            e9_congestion::run_cell(&params(shards), QueueMode::Pfc, CcMode::Fixed, pattern);
        assert_eq!(
            sharded.watchdog_fires, single.watchdog_fires,
            "watchdog fire count diverged at {shards} shards"
        );
        assert_eq!(sharded.fct.incomplete(), 0);
    }
}

#[test]
fn churned_fabrics_are_trace_identical_across_shards() {
    // E11's station churn layers three event kinds on top of E9's
    // congestion machinery, each with its own reordering hazard: host
    // link-admin flips (carrier edges must land between the same two
    // frames on every engine), d-left eviction storms (which entry a
    // storm displaces depends on exact insert order), and aging
    // mass-expiry sweeps (a sweep racing an arriving refresh flips a
    // learn into a re-flood). The undersized regime reaches all three;
    // byte-identity pins them to one schedule. Rack-major keeps every
    // host access link intra-shard — link admin across a cut is
    // illegal by construction.
    let params =
        |shards| E11Params { horizon: SimDuration::millis(60), shards, ..E11Params::for_k(4) };
    let reference = e11_churn::delivery_trace(&params(1), TableRegime::Undersized);
    assert!(!reference.is_empty(), "churn scenario must produce traffic");
    for shards in [2usize, 3] {
        let trace = e11_churn::delivery_trace(&params(shards), TableRegime::Undersized);
        assert_eq!(trace, reference, "churned delivery trace diverged at {shards} shards");
    }
    // The headroom regime takes the no-eviction path through the same
    // script — the branch the zero-eviction contract runs under.
    let reference = e11_churn::delivery_trace(&params(1), TableRegime::Headroom);
    let trace = e11_churn::delivery_trace(&params(2), TableRegime::Headroom);
    assert_eq!(trace, reference, "headroom churn delivery trace diverged at 2 shards");
}

#[test]
fn minimized_churn_spec_replays_clean() {
    // The churn family's representative one-line reproducer, in the
    // exact shape `repro -- difftest` would minimize a churn
    // divergence to: smallest fabric, hot departure rate, every other
    // axis at its quiet default. Pinned here so the spec format's
    // churn axes keep round-tripping through the fuzzer harness.
    let spec = Spec::parse(
        "k=4 hosts_per_edge=1 segments=4 seed=3 pattern=permutation mode=infinite \
         watchdog=off shards=2 partition=rack churn=25 mobility=500",
    );
    assert_eq!(check(&spec), Outcome::Identical, "the churn reproducer diverged");
}

#[test]
fn k6_and_k8_fabrics_are_trace_identical() {
    // Larger arities than the k=4 suites above. k=6 is the fabric that
    // historically diverged: the jittered builder draws whole-µs
    // delays from ten values, so parallel equal-delay two-link paths
    // are common, and the same ARP flood then reaches one switch on
    // two ports in the same nanosecond. Until the canonical
    // (time, key, seq) event order landed, the single-threaded engine
    // broke that tie by global insertion order while the sharded
    // engine broke it by cross-shard merge key — divergent traces.
    // Byte-identity here pins the fix at every arity × shard count.
    for k in [4usize, 6, 8] {
        for shards in [2usize, 3] {
            let spec = Spec::parse(&format!(
                "k={k} hosts_per_edge=2 segments=4 seed=233 pattern=permutation \
                 mode=infinite watchdog=off shards={shards} partition=rack"
            ));
            assert_eq!(
                check(&spec),
                Outcome::Identical,
                "k={k} fabric diverged at {shards} shards"
            );
        }
    }
}

#[test]
fn minimized_k6_reproducer_replays_clean() {
    // The exact spec line `repro -- difftest` minimized the k=6
    // divergence to (round-robin partition maximizes the cut, so every
    // equal-delay flood race crosses a shard boundary). Replayed
    // verbatim, the way any future fuzzer-found reproducer should be
    // promoted into this suite.
    let spec = Spec::parse(
        "k=6 hosts_per_edge=2 segments=4 seed=233 pattern=permutation mode=infinite \
         watchdog=off shards=2 partition=round-robin",
    );
    assert_eq!(check(&spec), Outcome::Identical, "the k=6 reproducer regressed");
}

#[test]
fn difftest_fuzz_smoke_finds_no_divergence() {
    // A handful of generated scenarios straight through the fuzzer
    // API — the same path `repro -- difftest --seeds N` and the CI
    // smoke job take. Any divergence fails with a minimized,
    // replayable spec line in the panic message.
    let mut lines = Vec::new();
    let found = arppath_bench::difftest::fuzz(6, &mut |l| lines.push(l.to_string()));
    if let Some(report) = found {
        panic!(
            "fuzzer found a divergence ({:?}); minimized reproducer: {}",
            report.outcome,
            report.scenario.render()
        );
    }
    assert_eq!(lines.len(), 6, "one progress line per seed");
}

#[test]
fn sharded_runs_are_reproducible() {
    // Sharded execution must not cost the determinism contract: two
    // identical sharded runs give identical traces and counters.
    let horizon = SimTime(SimDuration::millis(150).as_nanos());
    let sharded_run = || {
        let (t, bridges) = fig1_scenario();
        let partition = Partition::round_robin(bridges, 2, 3);
        run(t.build_sharded(&partition, true), horizon)
    };
    let (a, stats_a) = sharded_run();
    let (b, stats_b) = sharded_run();
    assert_eq!(a, b, "two identical sharded runs diverged");
    assert_eq!(stats_a, stats_b);
}

#[test]
fn e8_metrics_match_across_engines() {
    // Beyond the trace: the full measured E8 row (core-load fairness,
    // path diversity, delivery counts) is identical, because every
    // link's byte counters and every bridge's learned table are.
    let params = |shards| E8Params {
        k: 4,
        hosts_per_edge: 2,
        datagrams: 3,
        hot_receivers: 2,
        shards,
        ..Default::default()
    };
    let single = e8_fattree::run(&params(1));
    let sharded = e8_fattree::run(&params(2));
    for (a, b) in single.rows.iter().zip(&sharded.rows) {
        assert_eq!(a.pattern, b.pattern);
        assert_eq!(a.delivered, b.delivered, "{}: delivered diverged", a.pattern);
        assert_eq!(a.sent, b.sent, "{}: sent diverged", a.pattern);
        assert_eq!(a.jain_core, b.jain_core, "{}: core-load fairness diverged", a.pattern);
        assert_eq!(a.distinct_cores, b.distinct_cores, "{}: diversity diverged", a.pattern);
        assert_eq!(
            a.pairs_per_core_jain, b.pairs_per_core_jain,
            "{}: pair spread diverged",
            a.pattern
        );
    }
}

#[test]
fn e9_metrics_match_across_engines() {
    // E9's whole measured row, beyond its trace: FCT percentiles,
    // retransmits, drops, pause events and time (cut links' paused
    // intervals included), peak queue, core spread and Jain. Only the
    // queue-depth series differs by design — the single engine alone
    // samples it mid-run.
    let params =
        |shards| E9Params { k: 4, hosts_per_edge: 2, segments: 8, shards, ..Default::default() };
    let pattern = TrafficPattern::Hotspot { hot_receivers: 2 };
    for mode in [QueueMode::DropTail, QueueMode::Pfc] {
        let single = e9_congestion::run_cell(&params(1), mode, CcMode::Fixed, pattern);
        let sharded = e9_congestion::run_cell(&params(2), mode, CcMode::Fixed, pattern);
        assert!(!single.depth.is_empty() && sharded.depth.is_empty());
        // The rows hold metric types without `PartialEq`; their Debug
        // renderings are exact (f64s print round-trip).
        let row = |r: e9_congestion::E9Row| {
            format!("{:?}", e9_congestion::E9Row { depth: QueueDepthSeries::new(), ..r })
        };
        assert_eq!(row(sharded), row(single), "{mode:?}: E9 row diverged at 2 shards");
    }
    // The full grid E9's tables render: one row per pattern × queue
    // mode × controller, each offering every host's flow.
    let rows = e9_congestion::run(&params(1)).rows;
    let cells: Vec<_> = rows.iter().map(|r| (r.pattern, r.mode, r.cc, r.hosts)).collect();
    let mut grid = Vec::new();
    for pattern in ["permutation", "hotspot"] {
        for mode in QueueMode::ALL {
            for cc in CcMode::ALL {
                grid.push((pattern, mode.label(), cc.label(), 16));
            }
        }
    }
    assert_eq!(cells, grid);
}

#[test]
fn e11_metrics_match_across_engines() {
    // E11's whole measured row under the undersized regime: aggregated
    // table statistics (evictions, sweeps, victim life left), peak
    // occupancy, probes and replies, stale-path corrections and the
    // per-epoch fairness series — every bridge's table read through
    // the sharded engine's `arppath()` accessor.
    let params =
        |shards| E11Params { horizon: SimDuration::millis(60), shards, ..E11Params::for_k(4) };
    // The pressure table has a row per regime, in report order.
    let all = e11_churn::run(&params(1));
    let regimes: Vec<&str> = all.rows.iter().map(|r| r.regime).collect();
    assert_eq!(regimes, ["undersized", "headroom", "oversized"]);
    let single = &all.rows[0];
    let sharded = e11_churn::run_cell(&params(2), TableRegime::Undersized);
    assert!(single.table.evictions > 0, "the undersized regime must evict");
    assert!(!single.epochs.rows().is_empty(), "the per-epoch fairness series is empty");
    assert_eq!(format!("{sharded:?}"), format!("{single:?}"), "E11 row diverged at 2 shards");
}
