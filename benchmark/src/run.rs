//! One benchmark run of one workload: timed reps for the end-to-end
//! metrics, or (with `trace`) the traced run, its replays and — for the
//! workload that has one — the sharded twin, for the per-layer metrics.

use crate::json::Json;
use crate::layers::{self, ScheduleTrace};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::scenario::{Outcome, Scenario, Shape, Workload};
use crate::stats::{peak_rss_mb, Summary};
use crate::trace::{self, Capture, BCAST, UCAST};
use arppath_topo::{BridgeIx, BridgeKind, Partition};
use std::time::Instant;

/// Reps every workload gets however short the time budget: enough for a
/// minimum and a median.
pub const MIN_REPS: usize = 3;
/// Set-up is milliseconds; sample it at least this often per run.
const MIN_SETUPS: usize = 50;
/// Reps of the 2-worker sharded twin (its wall time is bimodal here, so
/// it is reported with its spread and bounded by nothing).
const SHARDED_REPS: usize = 5;
const SHARDED_WORKERS: usize = 2;
/// Replays of one capture; the fastest of each class is reported, like
/// the fastest timed rep they are set against.
const REPLAYS: usize = 3;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// For timed metrics: the spread the value was taken from.
    pub spread: Option<Summary>,
    /// For timed metrics: every sample, in the order taken.
    pub samples: Vec<f64>,
}

/// A named interval of the run, for the report's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_s: f64,
    pub end_s: f64,
}

/// Everything one invocation measured.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub reps: usize,
    /// Empty when every output check passed.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    pub outcome: Outcome,
    pub spans: Vec<Span>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The driver's result line.
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.outcome.ops_attempted as f64)),
            ("failed", Json::Num(self.outcome.ops_failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
        ])
    }

    /// The full record `--out` writes and `compare` reads.
    pub fn record(&self) -> Json {
        let o = &self.outcome;
        let metric = |m: &Metric| {
            let mut fields = vec![
                ("value".to_owned(), Json::Num(m.value)),
                ("unit".to_owned(), Json::str(m.unit)),
            ];
            if let Some(s) = m.spread {
                fields.push(("min".to_owned(), Json::Num(s.min)));
                fields.push(("median".to_owned(), Json::Num(s.median)));
                fields.push(("max".to_owned(), Json::Num(s.max)));
                fields.push(("reps".to_owned(), Json::Num(s.reps as f64)));
                let samples = m.samples.iter().map(|&x| Json::Num(x)).collect();
                fields.push(("samples".to_owned(), Json::Arr(samples)));
            }
            if let Some(layer) = PER_LAYER.iter().find(|l| l.name == m.name) {
                fields.push(("moves".to_owned(), Json::str(layer.moves)));
            }
            (m.name, Json::Obj(fields))
        };
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("trace", Json::Bool(self.trace)),
            ("reps", Json::Num(self.reps as f64)),
            ("correct", Json::Bool(self.correct())),
            ("problems", Json::Arr(self.problems.iter().map(Json::str).collect())),
            ("metrics", Json::obj(self.metrics.iter().map(metric))),
            (
                "sim",
                Json::obj([
                    ("events", Json::Num(o.stats.events as f64)),
                    ("frames_sent", Json::Num(o.stats.frames_sent as f64)),
                    ("frames_delivered", Json::Num(o.stats.frames_delivered as f64)),
                    ("ops_attempted", Json::Num(o.ops_attempted as f64)),
                    ("ops_failed", Json::Num(o.ops_failed as f64)),
                    ("stations", Json::Num(o.stations as f64)),
                    ("fct_p99_ms", Json::Num(o.fct_p99_ns as f64 / 1e6)),
                    ("correction_p99_ms", Json::Num(o.correction_p99_ns as f64 / 1e6)),
                ]),
            ),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("name", Json::str(s.name)),
                                ("parent", s.parent.map_or(Json::Null, Json::str)),
                                ("start_s", Json::Num(s.start_s)),
                                ("end_s", Json::Num(s.end_s)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Collects spans against one origin.
struct Spans {
    origin: Instant,
    done: Vec<Span>,
}

impl Spans {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_s = self.origin.elapsed().as_secs_f64();
        let out = f();
        let end_s = self.origin.elapsed().as_secs_f64();
        self.done.push(Span { name, parent: Some("run"), start_s, end_s });
        out
    }

    fn finish(mut self) -> Vec<Span> {
        let end_s = self.origin.elapsed().as_secs_f64();
        self.done.insert(0, Span { name: "run", parent: None, start_s: 0.0, end_s });
        self.done
    }
}

/// The timed reps of one workload.
struct Timed {
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    outcome: Outcome,
    /// Every rep produced the first rep's outcome exactly.
    agree: bool,
    /// `VmHWM` once the first rep is done: what one run needs, before
    /// a time-dependent number of further reps can fragment the heap.
    peak_rss_mb: Option<f64>,
}

/// Build-and-run `shape` until `seconds` have passed and at least
/// `min_reps` reps are in. Every rep rebuilds the fabric from the seed;
/// only `run_until` is inside `wall_s`.
fn timed_reps(shape: Shape, seed: u64, seconds: f64, min_reps: usize) -> Timed {
    let started = Instant::now();
    let mut timed: Option<Timed> = None;
    loop {
        let t0 = Instant::now();
        let mut fabric = Scenario::new(shape, seed).build();
        let setup = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        fabric.run();
        let wall = t1.elapsed().as_secs_f64();
        let outcome = fabric.outcome();
        drop(fabric);
        let t = timed.get_or_insert_with(|| Timed {
            setup_s: Vec::new(),
            wall_s: Vec::new(),
            outcome: outcome.clone(),
            agree: true,
            peak_rss_mb: peak_rss_mb(),
        });
        t.setup_s.push(setup);
        t.wall_s.push(wall);
        t.agree &= t.outcome == outcome;
        if t.wall_s.len() >= min_reps && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let mut timed = timed.expect("at least one rep ran");
    // Slow workloads get few reps; set-up is cheap, so top its sample up.
    while timed.setup_s.len() < MIN_SETUPS {
        let t0 = Instant::now();
        let fabric = Scenario::new(shape, seed).build();
        timed.setup_s.push(t0.elapsed().as_secs_f64());
        drop(fabric);
    }
    timed
}

/// Run one workload once, as the driver invokes it.
pub fn run(workload: &Workload, seed: u64, seconds: f64, trace: bool, min_reps: usize) -> Report {
    let mut spans = Spans { origin: Instant::now(), done: Vec::new() };
    // A traced run spends half its time on the reps that give it
    // `wall_s` to take shares of, the rest on the trace and its replays.
    let budget = if trace { seconds / 2.0 } else { seconds };
    let timed = spans.time("timed_reps", || timed_reps(workload.shape, seed, budget, min_reps));
    let mut problems = Vec::new();
    let o = &timed.outcome;
    if !timed.agree {
        problems.push("reps of one seed disagree on simulated results".to_owned());
    }
    if !o.shape_ok {
        problems.push("the workload's own acceptance condition failed".to_owned());
    }
    if o.ops_attempted == 0 {
        problems.push("the workload attempted nothing".to_owned());
    }
    let wall = Summary::of(&timed.wall_s);
    let setup = Summary::of(&timed.setup_s);

    let metrics = if trace {
        let values = layer_metrics(workload, seed, &timed, &mut spans, &mut problems);
        assert_eq!(values.len(), PER_LAYER.len());
        PER_LAYER
            .iter()
            .zip(values)
            .map(|(m, (name, value))| {
                assert_eq!(m.name, name, "per-layer values out of table order");
                Metric { name, unit: m.unit, value, spread: None, samples: Vec::new() }
            })
            .collect()
    } else {
        let rss = timed.peak_rss_mb.unwrap_or_else(|| {
            problems.push("no VmHWM in /proc/self/status".to_owned());
            0.0
        });
        let values = [
            // Noise only ever adds time to a deterministic program: the
            // minimum is the steadiest estimate of a run, the median of
            // the many small set-ups the steadiest of those.
            (setup.median, Some(setup), timed.setup_s.clone()),
            (wall.min, Some(wall), timed.wall_s.clone()),
            (rss, None, Vec::new()),
            (o.table_bytes as f64 / o.stations.max(1) as f64, None, Vec::new()),
            (o.stats.frames_delivered as f64, None, Vec::new()),
            (
                (o.ops_attempted - o.ops_failed) as f64 / o.ops_attempted.max(1) as f64,
                None,
                Vec::new(),
            ),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, (value, spread, samples))| Metric {
                name: m.name,
                unit: m.unit,
                value,
                spread,
                samples,
            })
            .collect()
    };
    Report {
        workload: workload.name,
        seed,
        trace,
        reps: wall.reps,
        problems,
        metrics,
        outcome: timed.outcome,
        spans: spans.finish(),
    }
}

/// The traced run and everything replayed from it; returns the
/// per-layer values by name, in [`PER_LAYER`] order.
fn layer_metrics(
    workload: &Workload,
    seed: u64,
    timed: &Timed,
    spans: &mut Spans,
    problems: &mut Vec<String>,
) -> Vec<(&'static str, f64)> {
    let shape = workload.shape;
    let o = &timed.outcome;
    let wall_s = Summary::of(&timed.wall_s).min;
    let wall_ns = wall_s * 1e9;

    // The traced run: same scenario, capture tracer installed from t=0.
    let (mut traced, captured) = Capture::install(Scenario::new(shape, seed));
    let traced_wall_s = spans.time("traced_run", || {
        let started = Instant::now();
        traced.run();
        started.elapsed().as_secs_f64()
    });
    if traced.outcome() != *o {
        problems.push("the traced run's simulated results differ from the timed reps'".to_owned());
    }
    drop(traced);
    let capture = Capture::take(&captured);

    // What the scenario looks like before it runs: who is a bridge, the
    // table geometry, and what `on_start` alone sends.
    let (twin, twin_start) = Capture::install(Scenario::new(shape, seed));
    let twin_start = Capture::take(&twin_start);
    let nodes = twin.built.net.node_count();
    let links = twin.built.net.link_count();
    let mut is_bridge = vec![false; nodes];
    for b in &twin.built.bridge_nodes {
        is_bridge[b.0] = true;
    }
    let is_host: Vec<bool> = is_bridge.iter().map(|b| !b).collect();
    let BridgeKind::ArpPath(config) = twin.built.kind else {
        unreachable!("every workload runs ideal ARP-Path bridges")
    };

    let schedule = ScheduleTrace::of(&twin.built.net, &capture.recs);
    let keys = layers::bridge_key_stream(&capture.recs, &is_bridge);
    let wire = spans.time("layers.wire", || layers::wire_cost(&capture.recs));
    drop(twin);

    // Device replays: each into a fresh un-run twin, the fastest kept.
    let sent_bridges = capture.sent_by(&is_bridge);
    let sent_hosts = capture.sent_by(&is_host);
    let (bridge_recs, host_recs) = trace::split(capture.recs, &is_bridge);
    let mut fastest: Option<(trace::Replay, trace::Replay)> = None;
    for _ in 0..REPLAYS {
        let mut twin = Scenario::new(shape, seed).build();
        let b = spans
            .time("replay.bridges", || trace::replay_bridges(&mut twin, &bridge_recs, &is_bridge));
        let h = spans.time("replay.hosts", || trace::replay_hosts(&mut twin, &host_recs, &is_host));
        match &mut fastest {
            None => fastest = Some((b, h)),
            Some((bridges, hosts)) => {
                for e in [bridges.keep_fastest(&b), hosts.keep_fastest(&h)] {
                    problems.extend(e.err());
                }
            }
        }
    }
    let (bridges, hosts) = fastest.expect("REPLAYS is at least one");
    for (class, captured, start, replayed) in [
        ("bridge", sent_bridges, twin_start.sent_by(&is_bridge), bridges.sends),
        ("host", sent_hosts, twin_start.sent_by(&is_host), hosts.sends),
    ] {
        if let Err(e) = trace::sends_match(captured, start, replayed) {
            problems.push(format!("{class} replay rejected: {e}"));
        }
    }

    let armed: Vec<_> = bridges.timers.iter().chain(&hosts.timers).copied().collect();
    let ops = schedule.finish(&armed);
    let sched = spans.time("layers.scheduler", || layers::scheduler_cost(&ops));
    drop(ops);
    let tables = spans.time("layers.tables", || {
        layers::table_cost(config.geometry_bits(), config.learn_time, &keys)
    });

    let sharded = if workload.sharded_twin {
        spans.time("sharded_twin", || sharded_twin(shape, seed, &wire, problems))
    } else {
        Sharded::default()
    };

    let events = o.stats.events as f64;
    let bridge_share = bridges.total_busy_ns() / wall_ns;
    let host_share = hosts.total_busy_ns() / wall_ns;
    // By construction the three shares sum to one.
    let self_share = 1.0 - bridge_share - host_share;
    let frames_in = bridges.callbacks[BCAST] + bridges.callbacks[UCAST];
    let per = |ns: f64, n: u64| if n == 0 { 0.0 } else { ns / n as f64 };
    // A flooded input looks its source up; a unicast input its source
    // and its destination.
    let lookups = bridges.callbacks[BCAST] + 2 * bridges.callbacks[UCAST];
    let table_ns = lookups as f64 * tables.get_hit_ns + o.table_writes as f64 * tables.insert_ns;
    vec![
        ("wire.parse_ns_per_frame", wire.parse_ns_per_frame),
        ("wire.encode_ns_per_frame", wire.encode_ns_per_frame),
        ("wire.bcast_share", wire.bcast_share),
        ("netsim.calq.ns_per_event", sched.calq_ns_per_event),
        ("netsim.calq.vs_heap_ratio", sched.heap_ns_per_event / sched.calq_ns_per_event),
        ("netsim.calq.share", sched.calq_ns_per_event * events / wall_ns),
        ("netsim.engine.events", events),
        ("netsim.engine.events_per_s", events / wall_s),
        ("netsim.engine.events_per_hop", events / o.stats.frames_delivered.max(1) as f64),
        ("netsim.engine.self_share", self_share),
        ("netsim.engine.self_ns_per_event", self_share * wall_ns / events),
        ("netsim.link.peak_queue_bytes", o.peak_queue_bytes as f64),
        ("netsim.link.drops_queue_full", o.stats.drops_queue_full as f64),
        ("netsim.link.pause_events", o.pause_events as f64),
        ("netsim.link.paused_ms", o.paused_ns as f64 / 1e6),
        ("netsim.link.watchdog_fires", o.stats.watchdog_fires as f64),
        ("netsim.trace.overhead_ratio", traced_wall_s / wall_s),
        ("netsim.sharded.wall_s_min", sharded.wall.min),
        ("netsim.sharded.wall_s_median", sharded.wall.median),
        ("netsim.sharded.wall_s_max", sharded.wall.max),
        ("netsim.sharded.slowdown", sharded.wall.median / wall_s),
        ("netsim.sharded.sync_rounds", sharded.sync_rounds),
        ("netsim.sharded.rounds_per_sim_ms", sharded.rounds_per_sim_ms),
        ("netsim.sharded.cross_frames", sharded.cross_frames),
        ("netsim.sharded.event_imbalance", sharded.event_imbalance),
        ("netsim.sharded.boundary_codec_share", sharded.boundary_codec_share),
        ("netsim.sharded.trace_equal", sharded.trace_equal),
        ("switch.dleft.get_hit_ns", tables.get_hit_ns),
        ("switch.dleft.get_miss_ns", tables.get_miss_ns),
        ("switch.dleft.insert_ns", tables.insert_ns),
        ("switch.dleft.sweep_ns_per_expired", tables.sweep_ns_per_expired),
        (
            "switch.dleft.hit_ratio",
            1.0 - o.unicast_misses as f64 / bridges.callbacks[UCAST].max(1) as f64,
        ),
        (
            "switch.dleft.occupancy_ratio",
            o.table_high_water as f64 / o.table_capacity.max(1) as f64,
        ),
        ("switch.dleft.evictions", o.evictions as f64),
        ("switch.dleft.swept_total", o.swept_total as f64),
        ("switch.dleft.swept_max", o.swept_max as f64),
        ("switch.dleft.share", table_ns / wall_ns),
        ("switch.wheel.insert_ns", tables.wheel_insert_ns),
        ("switch.wheel.advance_ns_per_due", tables.wheel_advance_ns_per_due),
        ("core.bridge.busy_share", bridge_share),
        ("core.bridge.ns_per_frame_bcast", per(bridges.busy_ns[BCAST], bridges.callbacks[BCAST])),
        ("core.bridge.ns_per_frame_ucast", per(bridges.busy_ns[UCAST], bridges.callbacks[UCAST])),
        ("core.bridge.fanout", per(bridges.sends as f64, frames_in)),
        ("core.bridge.frames_in", frames_in as f64),
        ("core.bridge.lost_race_drops", o.lost_race_drops as f64),
        ("core.bridge.repairs", o.repairs as f64),
        ("host.busy_share", host_share),
        ("host.ns_per_callback", per(hosts.total_busy_ns(), hosts.total_callbacks())),
        ("host.retransmits", o.retransmits as f64),
        ("host.arp_requests", o.arp_requests as f64),
        ("host.fct_p99_ms", o.fct_p99_ns as f64 / 1e6),
        ("host.correction_p99_ms", o.correction_p99_ns as f64 / 1e6),
        ("topo.build_ns_per_node", Summary::of(&timed.setup_s).median * 1e9 / nodes as f64),
        ("topo.nodes", nodes as f64),
        ("topo.links", links as f64),
        ("topo.cut_links", sharded.cut_links),
    ]
}

/// The sharded twin's numbers; all zero on workloads without one.
#[derive(Debug, Clone, Copy, Default)]
struct Sharded {
    wall: Summary,
    sync_rounds: f64,
    rounds_per_sim_ms: f64,
    cross_frames: f64,
    event_imbalance: f64,
    boundary_codec_share: f64,
    trace_equal: f64,
    cut_links: f64,
}

/// Run the same scenario on the sharded engine, rack-major over
/// [`SHARDED_WORKERS`] workers: [`SHARDED_REPS`] timed reps, then one
/// more with the delivery trace on, which must equal the single
/// engine's.
fn sharded_twin(
    shape: Shape,
    seed: u64,
    wire: &layers::WireCost,
    problems: &mut Vec<String>,
) -> Sharded {
    let build = |record_trace: bool| {
        let scenario = Scenario::new(shape, seed);
        let hosts = scenario.ft.host_capacity(scenario.hosts_per_edge);
        let partition =
            Partition::rack_major(&scenario.ft, scenario.hosts_per_edge, hosts, SHARDED_WORKERS);
        (scenario.topo.build_sharded(&partition, record_trace), scenario.deadline, partition)
    };
    let mut walls = Vec::new();
    for _ in 0..SHARDED_REPS {
        let (mut topo, deadline, _) = build(false);
        let started = Instant::now();
        topo.net.run_until(deadline);
        walls.push(started.elapsed().as_secs_f64());
    }
    let wall = Summary::of(&walls);

    // One more run with the delivery trace on; its counters are every
    // rep's counters (the engine is deterministic).
    let (mut topo, deadline, partition) = build(true);
    topo.net.run_until(deadline);
    let equal = topo.net.delivery_trace() == Scenario::new(shape, seed).delivery_trace();
    if !equal {
        problems.push("sharded delivery trace differs from the single engine's".to_owned());
    }
    let shards = topo.net.shard_stats();
    let most = shards.iter().map(|s| s.events).max().unwrap_or(0) as f64;
    let mean = shards.iter().map(|s| s.events).sum::<u64>() as f64 / shards.len().max(1) as f64;
    let sync_rounds = topo.net.sync_rounds() as f64;
    let cross_frames = topo.net.cross_frames() as f64;
    let cut_links = topo.bridge_links.iter().filter(|&&l| {
        // Bridges are the first nodes: node id = bridge index.
        let (a, b) = topo.net.link_endpoints(l);
        partition.bridge_shard(BridgeIx(a.node.0)) != partition.bridge_shard(BridgeIx(b.node.0))
    });
    Sharded {
        wall,
        sync_rounds,
        rounds_per_sim_ms: sync_rounds / (deadline.as_nanos() as f64 / 1e6),
        cross_frames,
        event_imbalance: most / mean.max(1.0),
        // Every cut crossing is encoded by the sender's shard and parsed
        // again by the receiver's.
        boundary_codec_share: cross_frames * (wire.encode_ns_per_frame + wire.parse_ns_per_frame)
            / (wall.median * 1e9),
        trace_equal: if equal { 1.0 } else { 0.0 },
        cut_links: cut_links.count() as f64,
    }
}
