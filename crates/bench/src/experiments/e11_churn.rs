//! **E11 — seeded station churn: table pressure, eviction storms, and
//! stale-path correction.**
//!
//! E1–E9 run static host populations, which PR 8's zero-eviction gate
//! pins: autosized d-left tables never evict under them, so the CAM
//! model's eviction machinery was untested *in situ*. This experiment
//! makes churn the workload: a seeded script of Poisson-shaped station
//! arrivals and departures plus MAC mobility between racks
//! ([`ChurnWorkload`]) plays out on the jittered fat-trees as
//! administrative carrier events on host access links — a departing
//! station's edge bridge flushes its port immediately
//! (`link_down_flushes`), a mover reappears behind a different rack
//! with the same MAC and IP, and every bridge's d-left table rides
//! through the resulting insert/expire/evict traffic.
//!
//! The same script runs under three **table regimes**:
//!
//! * **undersized** — `table_bucket_bits = 2` (32 slots), well under
//!   the active population: eviction storms are the *expected*
//!   behavior;
//! * **headroom** — the builder's autosized default (≥ 2× headroom):
//!   the zero-eviction contract must survive churn;
//! * **oversized** — autosize + 2 bits: control for the control.
//!
//! Per (k, regime) the harness reports eviction counts, occupancy
//! high-water marks, mass-expiry sweep shapes, the median life the
//! eviction victims had left (near zero when the earliest-expiry rule
//! only throws away nearly-dead state), the **stale-path correction
//! latency** distribution (per mover: activation behind the new rack
//! → first echo reply back — the fabric's flush + re-learn + re-lock
//! time), and a per-epoch Jain fairness series over station
//! deliveries ([`ChurnEpochs`]).
//!
//! Everything is a pure function of [`E11Params`]; the delivery trace
//! is byte-identical between the single-threaded and sharded engines
//! (churn events stay shard-local under rack-major partitions —
//! `tests/sharded_equivalence.rs` pins it).

use super::{host_ip, host_mac, rack_major, run_to, TracedRun};
use arppath::ArpPathConfig;
use arppath_host::{ChurnConfig, ChurnHost, ChurnSpec, ChurnWorkload};
use arppath_metrics::{ChurnEpochs, LatencyStats, Table};
use arppath_netsim::{Engine, SimDuration, SimTime};
use arppath_switch::{bucket_bits_for, TableStats, VICTIM_LIFE_BUCKETS};
use arppath_topo::{
    generic, BridgeIx, BridgeKind, ChurnGrid, FatTree, GridRole, StationLife, TopoBuilder, Topology,
};

/// Settling time before the churn window opens: the initial population
/// attaches, ARPs and locks its paths first, so the churn observables
/// measure churn, not cold start.
const BASE_MS: u64 = 10;

/// Drain after the churn window closes: movers near the horizon still
/// get their correction round trips measured.
const DRAIN_MS: u64 = 50;

/// Fairness epoch length for the per-epoch Jain series.
const EPOCH_MS: u64 = 10;

/// The d-left geometry a fabric instance runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableRegime {
    /// The largest geometry still strictly below the station count
    /// (1–2× population overload) — the eviction-storm regime.
    ///
    /// Deliberately *scale-aware* rather than a fixed tiny table: the
    /// overload ratio is what the regime studies, and it must stay
    /// comparable across fabric sizes. A fixed 32-slot table is a
    /// 1.5× overload at k=4 but 4.5× at k=8 — and past roughly 2× the
    /// fabric does not produce a measurable eviction storm, it
    /// collapses entirely (every eviction is a unicast miss, every
    /// miss a repair flood; once the event backlog delays flood
    /// copies past `lock_time`, the dedup state for a wave expires
    /// before its last copies arrive and re-floods sustain themselves
    /// — a livelock, tens of millions of evictions in tens of
    /// simulated milliseconds).
    Undersized,
    /// The builder's autosized default (≥ 2× headroom over attached
    /// hosts); PR 8's zero-eviction contract must hold here.
    Headroom,
    /// Autosize + 2 bits (≥ 8× headroom): the sanity control.
    Oversized,
}

impl TableRegime {
    /// All three regimes, in report order.
    pub const ALL: [TableRegime; 3] =
        [TableRegime::Undersized, TableRegime::Headroom, TableRegime::Oversized];

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            TableRegime::Undersized => "undersized",
            TableRegime::Headroom => "headroom",
            TableRegime::Oversized => "oversized",
        }
    }

    /// The bridge config for a fabric attaching `hosts` stations (the
    /// headroom regime leaves geometry unset so the topology builder
    /// autosizes it, exactly like every other experiment).
    ///
    /// Aging timers are scaled to the churn window and identical
    /// across regimes — only table geometry differs between cells.
    /// The 200 ms script stands in for hours of station lifetime, so
    /// the aging clock shrinks with it (E2 scales the STP timers the
    /// same way), and `learn_time` well under the horizon is what
    /// makes the aging behavior observable at all: a moved station's
    /// re-discovery floods race-lose against the fabric's stale
    /// `Learnt` entries until those age out (repair only fires on
    /// unicast *misses*, and a stale entry is a hit), and departed
    /// stations' entries must mass-expire through the aging scrubber
    /// within the run instead of lingering past it.
    fn config(self, hosts: usize, stations: usize) -> ArpPathConfig {
        let base = ArpPathConfig {
            lock_time: SimDuration::millis(5),
            learn_time: SimDuration::millis(40),
            repair_hold: SimDuration::millis(10),
            ..ArpPathConfig::default()
        };
        match self {
            TableRegime::Undersized => {
                ArpPathConfig { table_bucket_bits: Some(undersized_bits(stations)), ..base }
            }
            TableRegime::Headroom => base,
            TableRegime::Oversized => {
                ArpPathConfig { table_bucket_bits: Some(bucket_bits_for(hosts) + 2), ..base }
            }
        }
    }
}

/// The largest `table_bucket_bits` whose geometry (4 ways × 2^bits
/// buckets × 2 slots) stays strictly below `stations`: the resulting
/// table is overloaded by 1–2× regardless of fabric size. See
/// [`TableRegime::Undersized`] for why the overload ratio must not
/// grow with the fabric.
fn undersized_bits(stations: usize) -> u32 {
    let mut bits = 0u32;
    while 8usize << (bits + 1) < stations {
        bits += 1;
    }
    bits
}

/// Parameters of one E11 run (one fabric size, all table regimes).
#[derive(Debug, Clone, Copy)]
pub struct E11Params {
    /// Fat-tree arity (even); racks = k²/2.
    pub k: usize,
    /// Station index space of the churn script.
    pub stations: usize,
    /// Stations present from the start.
    pub initial: usize,
    /// Churn window length.
    pub horizon: SimDuration,
    /// Per-slot arrival probability (‰) — see [`ChurnSpec`].
    pub arrival_per_mille: u32,
    /// Per-slot departure probability (‰).
    pub departure_per_mille: u32,
    /// Fraction of departures that are rack moves (‰).
    pub mobility_per_mille: u32,
    /// Script + jitter seed.
    pub seed: u64,
    /// Shards; `1` = single engine, `≥ 2` = sharded
    /// (rack-major, clamped to `k` like E8/E9).
    pub shards: usize,
}

impl E11Params {
    /// Canonical sizing for arity `k`: the station population scales
    /// with the rack count and deliberately overshoots the undersized
    /// regime's 32 slots from the start (`initial` = ¾ of the index
    /// space), so eviction pressure is structural, not luck.
    pub fn for_k(k: usize) -> Self {
        let racks = k * k / 2;
        let stations = racks * 6;
        E11Params {
            k,
            stations,
            initial: stations * 3 / 4,
            horizon: SimDuration::millis(200),
            arrival_per_mille: 20,
            departure_per_mille: 4,
            mobility_per_mille: 400,
            seed: 0xE11,
            shards: 1,
        }
    }
}

impl Default for E11Params {
    fn default() -> Self {
        E11Params::for_k(4)
    }
}

/// One (k, regime) cell of the churn study.
#[derive(Debug, Clone)]
pub struct E11Row {
    /// Fat-tree arity.
    pub k: usize,
    /// Table regime label.
    pub regime: &'static str,
    /// Host attachments (stations + mover second instances + fillers).
    pub hosts: usize,
    /// Stations that ever exist.
    pub stations: usize,
    /// Late arrivals / final departures / rack moves in the script.
    pub arrivals: usize,
    /// Final departures.
    pub departures: usize,
    /// Rack moves.
    pub moves: usize,
    /// Per-bridge d-left slot capacity under this regime.
    pub table_capacity: usize,
    /// Aggregated table statistics over every bridge.
    pub table: TableStats,
    /// Highest per-bridge occupancy high-water mark.
    pub peak_occupancy: usize,
    /// Echo probes sent across all station instances.
    pub probes_tx: u64,
    /// Echo replies received across all station instances.
    pub replies_rx: u64,
    /// Stale-path correction latencies: per mover, activation behind
    /// the new rack → first echo reply (nanoseconds).
    pub corrections: LatencyStats,
    /// Movers whose post-move instance activated.
    pub movers_activated: usize,
    /// Per-epoch Jain fairness over station deliveries.
    pub epochs: ChurnEpochs,
}

/// Full E11 output for one fabric size: one row per table regime.
#[derive(Debug, Clone)]
pub struct E11Result {
    /// Rows in [`TableRegime::ALL`] order.
    pub rows: Vec<E11Row>,
}

/// Lay out one E11 scenario: generate the churn script, place it on
/// the rack grid, and attach one [`ChurnHost`] per grid cell (station
/// instances carry the station's MAC/IP — a mover's two instances
/// share them — fillers are inert). Shared by the measurement run, the
/// delivery-trace capture and the differential fuzzer.
pub(crate) fn scenario(
    params: &E11Params,
    regime: TableRegime,
) -> (TopoBuilder, FatTree, ChurnGrid, ChurnWorkload, SimDuration, SimTime) {
    let racks = params.k * params.k / 2;
    let spec = ChurnSpec {
        stations: params.stations,
        initial: params.initial,
        racks,
        horizon: params.horizon,
        slot: SimDuration::millis(1),
        arrival_per_mille: params.arrival_per_mille,
        departure_per_mille: params.departure_per_mille,
        mobility_per_mille: params.mobility_per_mille,
        seed: params.seed,
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

    let mut t = TopoBuilder::new(BridgeKind::ArpPath(regime.config(grid.hosts(), params.stations)));
    let ft = generic::fat_tree_jittered(&mut t, params.k, params.seed.wrapping_add(0xFA7));
    assert_eq!(ft.edge.len(), racks);

    // Every station probes a fixed *anchor* — an initial station that
    // never departs or moves — so the closed-loop reply stream chases
    // each prober across racks (a mover keeps its MAC/IP and its
    // anchor; only its location changes) and correction latency is
    // never confounded by the peer itself winking out mid-episode.
    let anchors: Vec<usize> = wl
        .plans
        .iter()
        .filter(|p| p.station < params.initial && p.depart_at.is_none() && p.move_to.is_none())
        .map(|p| p.station)
        .collect();
    let probe_target = |station: usize| -> usize {
        for i in 0..anchors.len() {
            let a = anchors[(station + i) % anchors.len()];
            if a != station {
                return a;
            }
        }
        // Degenerate script (everyone churns): fall back to the next
        // initial station so the workload still closes the loop.
        (station + 1) % params.initial.max(1)
    };
    let probe_base = SimDuration::millis(1);
    for inst in &grid.instances {
        let device: Box<ChurnHost> = match inst.role {
            GridRole::Home { station } | GridRole::MoveTarget { station } => {
                let target = probe_target(station);
                let id = (station + 1) as u32;
                let cfg = ChurnConfig {
                    target: host_ip((target + 1) as u32),
                    // Stagger activation bursts so one slot's arrivals
                    // do not ARP-flood on a single timestamp.
                    start_at: probe_base + SimDuration::micros(7 * inst.host_index as u64),
                    ident: station as u16,
                    active_at_start: !inst.starts_down,
                    ..ChurnConfig::default()
                };
                Box::new(ChurnHost::new(format!("c{station}"), host_mac(id), host_ip(id), cfg))
            }
            GridRole::Filler => {
                // Distinct address space (02:03::): never active, never
                // learned.
                let id = (inst.host_index + 1) as u32;
                let ip = std::net::Ipv4Addr::new(10, 3, (id >> 8) as u8, (id & 0xff) as u8);
                let cfg = ChurnConfig { active_at_start: false, ..ChurnConfig::default() };
                Box::new(ChurnHost::new(
                    format!("f{}", inst.host_index),
                    arppath_wire::MacAddr::from_index(3, id),
                    ip,
                    cfg,
                ))
            }
        };
        t.host(ft.edge[inst.rack], device);
    }

    let base = SimDuration::millis(BASE_MS);
    let deadline = base + params.horizon + SimDuration::millis(DRAIN_MS);
    (t, ft, grid, wl, base, SimTime(deadline.as_nanos()))
}

/// Schedule the churn script's carrier events on the built fabric and
/// run it to `deadline`. `starts_down` cells go dark at t = 0 (before
/// the settling window); lifecycle instants are offset by `base`. Host
/// access links are intra-shard under rack-major partitions, so this
/// is legal on both engines.
fn run_churned<N: Engine>(
    mut topo: Topology<N>,
    grid: &ChurnGrid,
    base: SimDuration,
    deadline: SimTime,
) -> Topology<N> {
    for inst in &grid.instances {
        let link = topo.host_links[inst.host_index];
        if inst.starts_down {
            topo.net.schedule_link_down(link, SimTime(0));
        }
        if let Some(at) = inst.up_at {
            topo.net.schedule_link_up(link, SimTime((base + at).as_nanos()));
        }
        if let Some(at) = inst.down_at {
            topo.net.schedule_link_down(link, SimTime((base + at).as_nanos()));
        }
    }
    run_to(topo, deadline)
}

/// Measure one (k, regime) cell.
pub fn run_cell(params: &E11Params, regime: TableRegime) -> E11Row {
    let (t, ft, grid, wl, base, deadline) = scenario(params, regime);
    let shards = params.shards.min(ft.k);
    if shards > 1 {
        let topo = t.build_sharded(&rack_major(&ft, grid.slots_per_rack, shards), false);
        measure(params, regime, &grid, &wl, &run_churned(topo, &grid, base, deadline))
    } else {
        measure(params, regime, &grid, &wl, &run_churned(t.build(), &grid, base, deadline))
    }
}

/// One cell's metrics off a finished run, on either engine.
fn measure<N: Engine>(
    params: &E11Params,
    regime: TableRegime,
    grid: &ChurnGrid,
    wl: &ChurnWorkload,
    topo: &Topology<N>,
) -> E11Row {
    // Table pressure, aggregated over every bridge.
    let mut table = TableStats::default();
    for b in 0..topo.bridge_nodes.len() {
        let s = topo.arppath(BridgeIx(b)).table_stats();
        table.evictions += s.evictions;
        table.expiry_sweeps += s.expiry_sweeps;
        table.swept_total += s.swept_total;
        table.swept_max = table.swept_max.max(s.swept_max);
        table.occupancy_high_water = table.occupancy_high_water.max(s.occupancy_high_water);
        for (acc, n) in table.victim_life_histogram.iter_mut().zip(s.victim_life_histogram) {
            *acc += n;
        }
    }
    let table_capacity = topo.arppath(BridgeIx(0)).table_slot_capacity();

    // Station-side observables: probe/reply totals, the per-epoch
    // fairness series, and — from each mover's post-move instance —
    // the stale-path correction latency.
    let mut probes_tx = 0u64;
    let mut replies_rx = 0u64;
    let mut corrections = LatencyStats::new();
    let mut movers_activated = 0usize;
    let mut epochs = ChurnEpochs::new(SimDuration::millis(EPOCH_MS).as_nanos());
    for inst in &grid.instances {
        let host = topo.net.device::<ChurnHost>(topo.host_nodes[inst.host_index]);
        probes_tx += host.probes_tx;
        replies_rx += host.replies_rx;
        if let Some(station) = grid.station_of(inst.host_index) {
            for &at in &host.reply_times {
                epochs.record(station, at.as_nanos());
            }
        }
        if matches!(inst.role, GridRole::MoveTarget { .. }) && host.activations > 0 {
            movers_activated += 1;
            if let Some(&first) = host.correction_ns.first() {
                corrections.record(first);
            }
        }
    }

    E11Row {
        k: params.k,
        regime: regime.label(),
        hosts: grid.hosts(),
        stations: wl.plans.len(),
        arrivals: wl.arrivals,
        departures: wl.departures,
        moves: wl.moves,
        table_capacity,
        table,
        peak_occupancy: table.occupancy_high_water,
        probes_tx,
        replies_rx,
        corrections,
        movers_activated,
        epochs,
    }
}

/// The merged, timestamp-sorted delivery trace of one (k, regime) run —
/// the byte-comparable artifact the equivalence suite diffs between the
/// single-threaded and sharded engines, carrier events and all.
pub fn delivery_trace(params: &E11Params, regime: TableRegime) -> Vec<String> {
    traced_run(params, regime).trace
}

/// [`delivery_trace`] plus the engine and link counters of the same
/// run.
pub fn traced_run(params: &E11Params, regime: TableRegime) -> TracedRun {
    let (t, ft, grid, _wl, base, deadline) = scenario(params, regime);
    let shards = params.shards.min(ft.k);
    if shards > 1 {
        let topo = t.build_sharded(&rack_major(&ft, grid.slots_per_rack, shards), true);
        TracedRun::of(&run_churned(topo, &grid, base, deadline))
    } else {
        TracedRun::of(&run_churned(t.build_single(true), &grid, base, deadline))
    }
}

/// Run all three table regimes on one fabric size.
pub fn run(params: &E11Params) -> E11Result {
    E11Result { rows: TableRegime::ALL.iter().map(|&r| run_cell(params, r)).collect() }
}

/// Median life the eviction victims had left, from the histogram, as
/// a human-readable bucket label (`-` when nothing was evicted).
fn victim_life_p50(stats: &TableStats) -> String {
    let total = stats.victims_total();
    if total == 0 {
        return "-".into();
    }
    let mut seen = 0u64;
    for (b, &n) in stats.victim_life_histogram.iter().enumerate() {
        seen += n;
        if seen * 2 >= total {
            return if b == 0 {
                "<1us".into()
            } else if b + 1 == VICTIM_LIFE_BUCKETS {
                format!(">={}us", 1u64 << (b - 1))
            } else {
                format!("{}-{}us", 1u64 << (b - 1), 1u64 << b)
            };
        }
    }
    unreachable!("cumulative count reaches the total")
}

/// Render the churn summary across fabric sizes.
pub fn table(results: &[E11Result]) -> Table {
    let mut t = Table::new(
        "E11: station churn — table pressure and stale-path correction per regime",
        &[
            "k",
            "regime",
            "slots",
            "peak occ",
            "evictions",
            "sweeps",
            "max sweep",
            "victim life left p50",
            "arr/dep/moves",
            "corr p50 (us)",
            "corr p99 (us)",
            "movers",
            "replies",
            "worst jain",
        ],
    );
    for result in results {
        for r in &result.rows {
            let us = |ns: u64| format!("{:.1}", ns as f64 / 1e3);
            let (p50, p99) = if r.corrections.is_empty() {
                ("-".into(), "-".into())
            } else {
                (us(r.corrections.percentile(50.0)), us(r.corrections.percentile(99.0)))
            };
            t.row(&[
                r.k.to_string(),
                r.regime.to_string(),
                r.table_capacity.to_string(),
                r.peak_occupancy.to_string(),
                r.table.evictions.to_string(),
                r.table.expiry_sweeps.to_string(),
                r.table.swept_max.to_string(),
                victim_life_p50(&r.table),
                format!("{}/{}/{}", r.arrivals, r.departures, r.moves),
                p50,
                p99,
                format!("{}/{}", r.corrections.count(), r.moves),
                r.replies_rx.to_string(),
                format!("{:.3}", r.epochs.worst_jain()),
            ]);
        }
    }
    t
}

/// Render the per-epoch fairness series of one row (the churn-storm
/// dip-and-recovery shape).
pub fn epoch_table(row: &E11Row) -> Table {
    let mut t = Table::new(
        format!("E11: per-epoch delivery fairness, k={} {}", row.k, row.regime),
        &["epoch", "start (ms)", "deliveries", "stations", "jain"],
    );
    for e in row.epochs.rows() {
        t.row(&[
            e.index.to_string(),
            format!("{:.0}", e.start_ns as f64 / 1e6),
            e.deliveries.to_string(),
            e.stations.to_string(),
            format!("{:.3}", e.jain),
        ]);
    }
    t
}

/// The tentpole pressure gate, per fabric size:
///
/// * **undersized** tables evict (the storm actually happened) and
///   their occupancy high-water mark never exceeds capacity;
/// * **headroom** tables evict **nothing** — churn does not break
///   PR 8's zero-eviction contract for autosized tables;
/// * **oversized** tables evict nothing either.
pub fn verify_pressure(results: &[E11Result]) -> bool {
    results.iter().all(|result| {
        result.rows.iter().all(|r| {
            let occupancy_ok = r.peak_occupancy <= r.table_capacity;
            let evictions_ok = match r.regime {
                "undersized" => r.table.evictions > 0,
                _ => r.table.evictions == 0,
            };
            occupancy_ok && evictions_ok
        })
    })
}

/// The correction gate, per fabric size and regime: whenever the
/// script moves stations, post-move instances activate and at least
/// one stale-path correction round trip completes — and the probe loop
/// as a whole stays alive (replies flow in every regime).
pub fn verify_correction(results: &[E11Result]) -> bool {
    results.iter().all(|result| {
        result.rows.iter().all(|r| {
            let moved = r.moves > 0;
            let corrected = !moved || (r.movers_activated > 0 && r.corrections.count() > 0);
            corrected && r.replies_rx > 0
        })
    })
}
