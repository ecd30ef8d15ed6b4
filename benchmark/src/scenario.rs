//! The five workloads, built from public APIs only.
//!
//! Each is one of the repository's experiments (E8/E12, E9, E11) at a
//! benchmark size: same fabric, same host placement, same warm-up and
//! stagger, same deadline formula. `fidelity::check` pins that — at the
//! experiments' own k=4 defaults these functions produce the
//! experiments' delivery traces byte for byte.

use arppath::{ArpPathBridge, ArpPathConfig};
use arppath_host::{
    pairings, Aimd, ChurnConfig, ChurnHost, ChurnSpec, ChurnWorkload, FlowConfig, FlowHost,
    TrafficConfig, TrafficHost, TrafficPattern,
};
use arppath_metrics::LatencyStats;
use arppath_netsim::{
    DeliveryTracer, Dir, NetworkStats, PauseWatchdog, QueuePolicy, SimDuration, SimTime,
};
use arppath_switch::{bucket_bits_for, DropReason, IdealSwitch, SwitchLogic};
use arppath_topo::{
    generic, BridgeIx, BridgeKind, BuiltTopology, ChurnGrid, FatTree, GridRole, StationLife,
    TopoBuilder,
};
use arppath_wire::MacAddr;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};

/// The device type every bridge of every workload runs.
pub type Bridge = IdealSwitch<ArpPathBridge>;

/// What a workload simulates. All sizes are parameters so the fidelity
/// check and the smoke test can instantiate the same code at k=4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// E8/E12: every host streams UDP datagrams to its permutation
    /// peer over infinite queues.
    PermUdp { k: usize, hosts_per_edge: usize, datagrams: u64, payload_len: usize },
    /// E9's hotspot/PFC/AIMD cell: every host runs one go-back-N flow
    /// toward one of `hot_receivers` hosts, 16 KiB PFC queues, 10 ms
    /// force-resume watchdog.
    IncastPfc { k: usize, hosts_per_edge: usize, hot_receivers: usize, segments: u64 },
    /// E11's undersized-table cell: seeded arrivals, departures and
    /// rack moves over `horizon_ms`, echo probes chasing anchors.
    Churn { k: usize, stations_per_rack: usize, horizon_ms: u64, repair: bool },
}

/// One named workload of the closed set.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    /// Why it is in the set (also printed into `BENCHMARK.json`).
    pub why: &'static str,
    /// Whether the traced run also times a 2-worker sharded twin.
    pub sharded_twin: bool,
}

/// The benchmark's closed workload set, in report order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "k8_perm",
        shape: Shape::PermUdp { k: 8, hosts_per_edge: 32, datagrams: 10, payload_len: 700 },
        why: "E8 shape, 1024 hosts: 96% of hops are ARP-flood copies, so engine batching, \
              the calendar ring and the bridge broadcast/lock path do the work",
        sharded_twin: true,
    },
    Workload {
        name: "k16_perm",
        shape: Shape::PermUdp { k: 16, hosts_per_edge: 8, datagrams: 2, payload_len: 700 },
        why: "E12 shape, 320 bridges: same path as k8_perm but 16-port fan-out and tables \
              larger than cache, where table geometry and footprint can show",
        sharded_twin: false,
    },
    Workload {
        name: "k8_unicast",
        shape: Shape::PermUdp { k: 8, hosts_per_edge: 8, datagrams: 2000, payload_len: 18 },
        why: "the inverse mix: >95% of hops are unicast table hits at the smallest frame \
              size plus one host build/parse per datagram; floods are bypassed",
        sharded_twin: false,
    },
    Workload {
        name: "k8_incast_pfc",
        shape: Shape::IncastPfc { k: 8, hosts_per_edge: 4, hot_receivers: 16, segments: 256 },
        why: "E9 shape: the only workload with finite queues, pause/resume frames, \
              retransmit timers and watchdog events; link/flow changes must not move the others",
        sharded_twin: false,
    },
    Workload {
        name: "k8_churn",
        shape: Shape::Churn { k: 8, stations_per_rack: 24, horizon_ms: 600, repair: false },
        why: "E11 shape on undersized tables: inserts, evictions, wheel-driven mass expiry, \
              link-admin events and repair floods beside k8_unicast's pure reads",
        sharded_twin: false,
    },
];

/// The k=4 stand-in for `shape`'s code path: seconds of debug-build
/// time, used by the smoke test and nowhere near the reported numbers.
#[cfg(test)]
pub fn smoke_shape(shape: Shape) -> Shape {
    match shape {
        Shape::PermUdp { .. } => {
            Shape::PermUdp { k: 4, hosts_per_edge: 2, datagrams: 2, payload_len: 64 }
        }
        Shape::IncastPfc { .. } => {
            Shape::IncastPfc { k: 4, hosts_per_edge: 4, hot_receivers: 2, segments: 32 }
        }
        Shape::Churn { .. } => {
            Shape::Churn { k: 4, stations_per_rack: 6, horizon_ms: 40, repair: false }
        }
    }
}

/// Host `i` (1-based) gets MAC `02:01::i` — the experiments' convention.
pub fn host_mac(i: u32) -> MacAddr {
    MacAddr::from_index(1, i)
}

/// Host `i` (1-based) gets IP `10.0.x.y` — the experiments' convention.
pub fn host_ip(i: u32) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, (i >> 8) as u8, (i & 0xff) as u8)
}

/// E9's queue cap, watchdog deadline and sender parameters.
const QUEUE_CAP_BYTES: usize = 16 * 1024;
const WATCHDOG_DEADLINE: SimDuration = SimDuration::millis(10);
const SEGMENT_LEN: usize = 700;

/// E11's settling and drain windows around the churn horizon.
const CHURN_BASE: SimDuration = SimDuration::millis(10);
const CHURN_DRAIN: SimDuration = SimDuration::millis(50);
/// How long a churn station must stay attached to count as an
/// operation: a stale path dies with `learn_time` (40 ms); the rest is
/// re-ARP and the round trip.
const CORRECTION_GRACE: SimDuration = SimDuration::millis(50);

/// A laid-out, not yet instantiated workload.
pub struct Scenario {
    pub shape: Shape,
    pub topo: TopoBuilder,
    pub ft: FatTree,
    /// Uniform attachments per rack (the rack-major partition's unit).
    pub hosts_per_edge: usize,
    pub deadline: SimTime,
    /// Churn only: the placement whose carrier events `build` schedules.
    grid: Option<ChurnGrid>,
}

impl Scenario {
    /// Lay out `shape` from `seed`: the jittered fabric, the seeded
    /// pairing or churn script, and every host with its send schedule.
    pub fn new(shape: Shape, seed: u64) -> Scenario {
        match shape {
            Shape::PermUdp { k, hosts_per_edge, datagrams, payload_len } => {
                perm_udp(shape, k, hosts_per_edge, datagrams, payload_len, seed)
            }
            Shape::IncastPfc { k, hosts_per_edge, hot_receivers, segments } => {
                incast_pfc(shape, k, hosts_per_edge, hot_receivers, segments, seed)
            }
            Shape::Churn { k, stations_per_rack, horizon_ms, repair } => {
                churn(shape, k, stations_per_rack, horizon_ms, repair, seed)
            }
        }
    }

    /// Instantiate on the single-threaded engine, ready to run.
    pub fn build(self) -> Fabric {
        let mut built = self.topo.build();
        if let Some(grid) = &self.grid {
            // E11's `apply_churn`: cells that start absent go dark at
            // t = 0; lifecycle instants are offset by the settling time.
            for inst in &grid.instances {
                let link = built.host_links[inst.host_index];
                if inst.starts_down {
                    built.net.schedule_link_down(link, SimTime(0));
                }
                if let Some(at) = inst.up_at {
                    built.net.schedule_link_up(link, SimTime((CHURN_BASE + at).as_nanos()));
                }
                if let Some(at) = inst.down_at {
                    built.net.schedule_link_down(link, SimTime((CHURN_BASE + at).as_nanos()));
                }
            }
        }
        Fabric { shape: self.shape, built, deadline: self.deadline, grid: self.grid }
    }

    /// The merged, sorted delivery trace of one single-engine run — the
    /// artifact the experiments' `delivery_trace` functions return.
    pub fn delivery_trace(mut self) -> Vec<String> {
        let sink = Arc::new(Mutex::new(DeliveryTracer::new()));
        self.topo.set_tracer(Box::new(sink.clone()));
        let mut fabric = self.build();
        fabric.run();
        let records = std::mem::take(&mut sink.lock().expect("tracer lock").records);
        DeliveryTracer::render_sorted(records)
    }
}

fn perm_udp(
    shape: Shape,
    k: usize,
    hosts_per_edge: usize,
    datagrams: u64,
    payload_len: usize,
    seed: u64,
) -> Scenario {
    let mut t = TopoBuilder::new(BridgeKind::ArpPath(ArpPathConfig::default()));
    let ft = generic::fat_tree_jittered(&mut t, k, seed.wrapping_add(0xFA7));
    let n = ft.host_capacity(hosts_per_edge);
    let pairs = pairings(n, TrafficPattern::Permutation, seed);
    let warmup = SimDuration::millis(100);
    let stagger = SimDuration::micros(137);
    let interval = SimDuration::millis(5);
    for (i, &dst) in pairs.iter().enumerate() {
        let id = (i + 1) as u32;
        let cfg = TrafficConfig {
            target: host_ip((dst + 1) as u32),
            start_at: warmup + stagger.times(i as u64),
            interval,
            count: datagrams,
            payload_len,
            ..Default::default()
        };
        let host = TrafficHost::new(format!("h{id}"), host_mac(id), host_ip(id), cfg);
        t.host(ft.edge_of_host(i, hosts_per_edge), Box::new(host));
    }
    let deadline =
        warmup + stagger.times(n as u64) + interval.times(datagrams) + SimDuration::millis(200);
    Scenario {
        shape,
        topo: t,
        ft,
        hosts_per_edge,
        deadline: SimTime(deadline.as_nanos()),
        grid: None,
    }
}

fn incast_pfc(
    shape: Shape,
    k: usize,
    hosts_per_edge: usize,
    hot_receivers: usize,
    segments: u64,
    seed: u64,
) -> Scenario {
    let mut t = TopoBuilder::new(BridgeKind::ArpPath(ArpPathConfig::default()));
    let ft = generic::fat_tree_jittered(&mut t, k, seed.wrapping_add(0xFA7));
    let n = ft.host_capacity(hosts_per_edge);
    let pairs = pairings(n, TrafficPattern::Hotspot { hot_receivers }, seed);
    let warmup = SimDuration::millis(100);
    let stagger = SimDuration::micros(11);
    for (i, &dst) in pairs.iter().enumerate() {
        let id = (i + 1) as u32;
        let cfg = FlowConfig {
            target: Some(host_ip((dst + 1) as u32)),
            start_at: warmup + stagger.times(i as u64),
            segments,
            segment_len: SEGMENT_LEN,
            rto: SimDuration::millis(5),
            ..FlowConfig::default()
        };
        let host = FlowHost::with_controller(
            format!("h{id}"),
            host_mac(id),
            host_ip(id),
            cfg,
            Box::new(Aimd::new(2, 64)),
        );
        t.host(ft.edge_of_host(i, hosts_per_edge), Box::new(host));
    }
    t.set_queue_policy(QueuePolicy::pfc(QUEUE_CAP_BYTES));
    t.set_watchdog(PauseWatchdog::force_resume(WATCHDOG_DEADLINE));
    let deadline = warmup + stagger.times(n as u64) + SimDuration::millis(400);
    Scenario {
        shape,
        topo: t,
        ft,
        hosts_per_edge,
        deadline: SimTime(deadline.as_nanos()),
        grid: None,
    }
}

fn churn(
    shape: Shape,
    k: usize,
    stations_per_rack: usize,
    horizon_ms: u64,
    repair: bool,
    seed: u64,
) -> Scenario {
    // `E11Params::for_k`: six stations per rack, three quarters of
    // them present from the start.
    let racks = k * k / 2;
    let stations = racks * stations_per_rack;
    let initial = stations * 3 / 4;
    let horizon = SimDuration::millis(horizon_ms);
    let spec = ChurnSpec {
        stations,
        initial,
        racks,
        horizon,
        slot: SimDuration::millis(1),
        arrival_per_mille: 20,
        departure_per_mille: 4,
        mobility_per_mille: 400,
        seed,
    };
    let wl = ChurnWorkload::generate(&spec);
    let lives: Vec<StationLife> = wl
        .plans
        .iter()
        .map(|p| StationLife {
            station: p.station,
            home_rack: p.home_rack,
            arrive_at: p.arrive_at,
            move_to: p.move_to,
            depart_at: p.depart_at,
        })
        .collect();
    let grid = ChurnGrid::layout(racks, &lives);

    // E11's undersized regime: aging scaled to the churn window, and
    // the largest geometry (8 slots << bits) strictly below the station
    // count, so every table is 1-2x overloaded at any fabric size.
    let mut bits = 0u32;
    while 8usize << (bits + 1) < stations {
        bits += 1;
    }
    debug_assert!(bits < bucket_bits_for(stations));

    let config = ArpPathConfig {
        lock_time: SimDuration::millis(5),
        learn_time: SimDuration::millis(40),
        repair_hold: SimDuration::millis(10),
        table_bucket_bits: Some(bits),
        repair,
        ..ArpPathConfig::default()
    };
    let mut t = TopoBuilder::new(BridgeKind::ArpPath(config));
    let ft = generic::fat_tree_jittered(&mut t, k, seed.wrapping_add(0xFA7));

    // Every station probes a fixed anchor: an initial station that
    // never departs or moves.
    let anchors: Vec<usize> = wl
        .plans
        .iter()
        .filter(|p| p.station < initial && p.depart_at.is_none() && p.move_to.is_none())
        .map(|p| p.station)
        .collect();
    let probe_target = |station: usize| -> usize {
        (0..anchors.len())
            .map(|i| anchors[(station + i) % anchors.len()])
            .find(|&a| a != station)
            .unwrap_or((station + 1) % initial.max(1))
    };
    for inst in &grid.instances {
        let device = match inst.role {
            GridRole::Home { station } | GridRole::MoveTarget { station } => {
                let id = (station + 1) as u32;
                let cfg = ChurnConfig {
                    target: host_ip((probe_target(station) + 1) as u32),
                    start_at: SimDuration::millis(1)
                        + SimDuration::micros(7 * inst.host_index as u64),
                    ident: station as u16,
                    active_at_start: !inst.starts_down,
                    ..ChurnConfig::default()
                };
                ChurnHost::new(format!("c{station}"), host_mac(id), host_ip(id), cfg)
            }
            GridRole::Filler => {
                let id = (inst.host_index + 1) as u32;
                let ip = Ipv4Addr::new(10, 3, (id >> 8) as u8, (id & 0xff) as u8);
                let cfg = ChurnConfig { active_at_start: false, ..ChurnConfig::default() };
                ChurnHost::new(format!("f{}", inst.host_index), MacAddr::from_index(3, id), ip, cfg)
            }
        };
        t.host(ft.edge[inst.rack], Box::new(device));
    }
    let deadline = CHURN_BASE + horizon + CHURN_DRAIN;
    Scenario {
        shape,
        topo: t,
        ft,
        hosts_per_edge: grid.slots_per_rack,
        deadline: SimTime(deadline.as_nanos()),
        grid: Some(grid),
    }
}

/// An instantiated workload on the single-threaded engine.
pub struct Fabric {
    pub shape: Shape,
    pub built: BuiltTopology,
    pub deadline: SimTime,
    grid: Option<ChurnGrid>,
}

/// Everything one run's simulated side produced. Deterministic in
/// `(shape, seed)`: reps of one workload must agree on all of it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Outcome {
    pub stats: NetworkStats,
    /// Operations the workload set out to complete (datagrams, flows,
    /// or station activations) and how many did not.
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// Stations the fabric had to learn (attached, non-filler hosts).
    pub stations: u64,
    pub table_bytes: u64,
    pub table_capacity: u64,
    pub table_high_water: u64,
    pub evictions: u64,
    pub swept_total: u64,
    pub swept_max: u64,
    pub lost_race_drops: u64,
    pub repairs: u64,
    pub unicast_misses: u64,
    /// Path-table entries written: locks created plus promotions.
    pub table_writes: u64,
    pub arp_requests: u64,
    pub retransmits: u64,
    /// p99 flow completion time; 0 unless the workload runs flows.
    pub fct_p99_ns: u64,
    /// p99 stale-path correction latency; 0 unless stations move.
    pub correction_p99_ns: u64,
    pub peak_queue_bytes: u64,
    pub pause_events: u64,
    pub paused_ns: u64,
    /// The workload's own acceptance condition (beyond `ops_failed`).
    pub shape_ok: bool,
}

impl Fabric {
    /// The timed call: every event up to the deadline.
    pub fn run(&mut self) {
        self.built.net.run_until(self.deadline);
    }

    /// Read the run's simulated results off devices, links and tables.
    pub fn outcome(&self) -> Outcome {
        let net = &self.built.net;
        let stats = net.stats();
        let now = net.now();
        let mut o = Outcome { stats, shape_ok: true, ..Outcome::default() };
        for ix in 0..self.built.bridge_nodes.len() {
            let b = self.built.arppath(BridgeIx(ix));
            let t = b.table_stats();
            o.table_bytes += b.table_heap_bytes() as u64;
            o.table_capacity += b.table_slot_capacity() as u64;
            o.table_high_water += t.occupancy_high_water as u64;
            o.evictions += t.evictions;
            o.swept_total += t.swept_total;
            o.swept_max = o.swept_max.max(t.swept_max as u64);
            o.shape_ok &= t.occupancy_high_water <= b.table_slot_capacity();
            let ap = b.ap_counters();
            o.repairs += ap.repairs_initiated;
            o.unicast_misses += ap.unicast_misses;
            o.table_writes += ap.locks_created + ap.promotions;
            o.lost_race_drops += b.counters().dropped(DropReason::LostRace);
        }
        for (_, link) in net.links() {
            for dir in [Dir::AtoB, Dir::BtoA] {
                let s = link.stats(dir);
                o.peak_queue_bytes = o.peak_queue_bytes.max(s.peak_queue_bytes);
                o.pause_events += s.pause_events;
                o.paused_ns += link.paused_for(dir, now).as_nanos();
            }
        }
        let hosts = &self.built.host_nodes;
        match self.shape {
            Shape::PermUdp { datagrams, .. } => {
                let mut delivered = 0;
                for &h in hosts {
                    let host = net.device::<TrafficHost>(h);
                    o.ops_attempted += host.sent();
                    delivered += host.rx_datagrams;
                    o.arp_requests += host.stack.counters().arp_requests_tx;
                }
                o.stations = hosts.len() as u64;
                o.ops_failed = o.ops_attempted - delivered;
                o.shape_ok &= o.ops_attempted == hosts.len() as u64 * datagrams;
                o.shape_ok &= o.evictions == 0;
            }
            Shape::IncastPfc { .. } => {
                let mut fct = LatencyStats::new();
                for &h in hosts {
                    let host = net.device::<FlowHost>(h);
                    o.ops_attempted += 1;
                    match host.fct {
                        Some(d) => fct.record(d.as_nanos()),
                        None => o.ops_failed += 1,
                    }
                    o.retransmits += host.retransmits;
                    o.arp_requests += host.stack.counters().arp_requests_tx;
                    o.shape_ok &= host.corrupt == 0;
                }
                o.stations = hosts.len() as u64;
                // Incomplete flows count as missing any limit.
                o.fct_p99_ns = if o.ops_failed == 0 { fct.percentile(99.0) } else { u64::MAX };
                // PFC is lossless, and the incast must actually pause.
                o.shape_ok &= stats.drops_queue_full == 0 && stats.drops_watchdog == 0;
                o.shape_ok &= o.pause_events > 0;
            }
            Shape::Churn { stations_per_rack, .. } => {
                let grid = self.grid.as_ref().expect("churn fabric carries its grid");
                let mut corrections = LatencyStats::new();
                let mut movers = 0u64;
                for inst in &grid.instances {
                    let host = net.device::<ChurnHost>(hosts[inst.host_index]);
                    o.arp_requests += host.stack.counters().arp_requests_tx;
                    if matches!(inst.role, GridRole::Filler) {
                        continue;
                    }
                    // One operation per attachment that lasts: a station
                    // that comes up (at start, on arrival, or behind a
                    // new rack after a move) and stays past the longest
                    // a stale path can live must complete an echo round
                    // trip. Shorter stays can end first by script.
                    let up = inst.up_at.map_or(0, |at| (CHURN_BASE + at).as_nanos());
                    let down = inst
                        .down_at
                        .map_or(self.deadline.as_nanos(), |at| (CHURN_BASE + at).as_nanos());
                    if host.activations > 0 && down - up >= CORRECTION_GRACE.as_nanos() {
                        o.ops_attempted += 1;
                        o.ops_failed += u64::from(host.correction_ns.is_empty());
                    }
                    if matches!(inst.role, GridRole::MoveTarget { .. }) && host.activations > 0 {
                        movers += 1;
                        if let Some(&first) = host.correction_ns.first() {
                            corrections.record(first);
                        }
                    }
                }
                // The station index space the tables are sized against;
                // how many of them ever attach varies with the seed.
                o.stations = (grid.racks * stations_per_rack) as u64;
                o.correction_p99_ns = corrections.percentile(99.0);
                // The regime under test: tables really overflow, and
                // movers really get corrected.
                o.shape_ok &= o.evictions > 0 && movers > 0 && corrections.count() > 0;
            }
        }
        o
    }
}
