//! **E12 — the k=16 fabric: footprint and trace identity at scale.**
//!
//! The All-Path scalability question (arXiv:1703.08744) is ultimately
//! about how far per-host-pair path state scales. E8 stops at k=8; this
//! experiment instantiates the k=16 jittered fat-tree — 320 switches,
//! 128 edge racks, up to 16k hosts (`hosts_per_edge` ≤ 128; table
//! geometry auto-sized to the fabric) — and reports:
//!
//! * **bytes per station** — the d-left path tables' heap footprint
//!   (SoA planes, 16 B per slot, plus one 8-byte aging bound per 64
//!   slots) summed
//!   over every bridge and divided by the attached host count, held under
//!   an absolute ceiling ([`MAX_BYTES_PER_STATION`]) — and beside it
//!   the event storage the single-engine run's scheduler ended up
//!   holding ([`MAX_SCHEDULER_RESERVED_BYTES`]): the other memory every
//!   frame hop writes, and the links' state
//!   ([`MAX_LINK_STATE_BYTES_PER_STATION`]);
//! * **delivery** on the single engine and on the sharded twin at 2
//!   and 4 shards: every run must deliver every datagram;
//! * **trace identity**: the merged delivery trace must be
//!   byte-identical across *all* shard counts
//!   ([`verify_trace_identity`]; CI additionally diffs `--trace-out`
//!   files).
//!
//! Each sweep point is simulated once, with delivery tracing on: the
//! same run yields its delivery counts, its footprint and the trace
//! the identity check compares.

use super::e8_fattree::{self, E8Params};
use super::{rack_major, run_to};
use arppath_host::TrafficPattern;
use arppath_metrics::Table;
use arppath_netsim::{Engine, SimTime};
use arppath_topo::{BridgeIx, FatTree, TopoBuilder, Topology};

/// Parameters of one E12 sweep (one fabric at every [`SHARD_COUNTS`]).
#[derive(Debug, Clone)]
pub struct E12Params {
    /// Fat-tree arity (even). The headline configuration is 16.
    pub k: usize,
    /// Hosts attached per edge switch (`k²/2` edges; 128 at k=16, so
    /// up to 16 384 hosts at full racks of 128).
    pub hosts_per_edge: usize,
    /// UDP datagrams each host sends to its permutation peer.
    pub datagrams: u64,
    /// UDP payload bytes.
    pub payload_len: usize,
    /// Workload + jitter seed.
    pub seed: u64,
}

/// Shard counts every sweep runs (each clamped to the pod count `k`);
/// the first, the single engine, supplies the scheduler reading.
pub const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

impl Default for E12Params {
    fn default() -> Self {
        E12Params { k: 16, hosts_per_edge: 16, datagrams: 5, payload_len: 700, seed: 0xE12 }
    }
}

impl E12Params {
    /// The CI-sized configuration: same k=16 fabric shape, one host
    /// per rack (128 hosts), two datagrams each — small enough to
    /// sweep every shard count and diff traces in seconds.
    pub fn quick() -> Self {
        E12Params { hosts_per_edge: 1, datagrams: 2, ..Default::default() }
    }
}

/// One shard count's measurements.
#[derive(Debug, Clone)]
pub struct E12Row {
    /// Shard count actually used (requested, clamped to `k`).
    pub shards: usize,
    /// Datagrams delivered fabric-wide.
    pub delivered: u64,
    /// Datagrams sent fabric-wide.
    pub sent: u64,
}

/// Full E12 output.
#[derive(Debug, Clone)]
pub struct E12Result {
    /// Fat-tree arity.
    pub k: usize,
    /// Hosts attached.
    pub hosts: usize,
    /// Bridges in the fabric.
    pub bridges: usize,
    /// One row per swept shard count.
    pub rows: Vec<E12Row>,
    /// Σ path-table heap bytes over every bridge.
    pub table_bytes: usize,
    /// `Network::scheduler_reserved_bytes` at the end of the
    /// single-engine run (the 1-shard sweep point).
    pub scheduler_reserved_bytes: usize,
    /// `Network::link_state_bytes` at the end of the single-engine
    /// run.
    pub link_state_bytes: usize,
    /// Links in the fabric, host links included.
    pub links: usize,
    /// Whether the first sweep point's merged delivery trace is
    /// nonempty and every later point's equals it byte for byte.
    pub traces_identical: bool,
}

/// Ceiling on [`E12Result::bytes_per_station`]: the quick geometry's
/// figure (20,640 B: a 512-slot floor geometry of 16-byte slots and
/// eight 8-byte aging bounds per bridge) plus 2 %. One station per
/// rack is the worst case E12 runs — each bridge's fixed cost, its
/// minimum table geometry, is spread over the fewest stations; the
/// full sweep reads 10,320 B.
pub const MAX_BYTES_PER_STATION: f64 = 21_060.0;

/// Ceiling on [`E12Result::scheduler_reserved_bytes`]. With drained
/// calendar buckets recycled the ring reserves what was pending at
/// once: 4.7 MB at the end of the full sweep's 2,048-host run and
/// 1.7 MB on the quick geometry (PR 15). Keeping every ring index's
/// high-water storage reserved 28.7 and 9.3 MB for the same ~1,100
/// events pending in steady state, and cycled through all of it.
pub const MAX_SCHEDULER_RESERVED_BYTES: usize = 6 << 20;

/// Ceiling on [`E12Result::link_state_bytes_per_station`]: the quick
/// geometry's figure (4,352 B: 2,176 links of 256 B, 17 per station,
/// and no direction that ever queued, dropped or paused) plus 2 %. At
/// the 640 B a link took while every direction carried its queue and
/// rare counters inline, the quick run reads 10,880 B; the full sweep
/// reads 556 B (4,096 links and 620 out-of-line records over 2,048
/// stations).
pub const MAX_LINK_STATE_BYTES_PER_STATION: f64 = 4_440.0;

impl E12Result {
    /// The headline footprint figure: table heap bytes per attached
    /// station.
    pub fn bytes_per_station(&self) -> f64 {
        self.table_bytes as f64 / self.hosts.max(1) as f64
    }

    /// Link state bytes per attached station.
    pub fn link_state_bytes_per_station(&self) -> f64 {
        self.link_state_bytes as f64 / self.hosts.max(1) as f64
    }
}

/// Lay out one E12 scenario — E8's jittered k-ary fabric and seeded
/// permutation workload at E12's size — shared by every sweep point
/// and the trace capture, so all of them simulate the *same* network.
fn scenario(params: &E12Params) -> (TopoBuilder, FatTree, SimTime) {
    let e8 = E8Params {
        k: params.k,
        hosts_per_edge: params.hosts_per_edge,
        datagrams: params.datagrams,
        payload_len: params.payload_len,
        seed: params.seed,
        ..E8Params::default()
    };
    let (t, ft, _pairs, deadline) = e8_fattree::scenario(&e8, TrafficPattern::Permutation);
    (t, ft, deadline)
}

/// Run the sweep: one fresh, traced instantiation of the same scenario
/// per shard count. The table footprint is read off the first run's
/// bridges (the geometry is identical at every point). Each point's
/// merged delivery trace is handed to `on_trace` with its shard count,
/// then compared with the first point's; at most two traces are held
/// at once.
pub fn run(params: &E12Params, mut on_trace: impl FnMut(usize, &[String])) -> E12Result {
    let mut rows = Vec::new();
    let mut footprint: Option<(usize, usize)> = None; // (bridges, table bytes)
    let mut single_engine = None;
    let mut hosts = 0;
    let mut reference: Option<Vec<String>> = None;
    let mut traces_identical = false;
    for requested in SHARD_COUNTS {
        let point = run_point(params, requested);
        hosts = point.hosts;
        footprint.get_or_insert(point.tables);
        single_engine = point.single_engine.or(single_engine);
        on_trace(point.row.shards, &point.trace);
        rows.push(point.row);
        match &reference {
            Some(first) => traces_identical &= point.trace == *first,
            None => {
                traces_identical = !point.trace.is_empty();
                reference = Some(point.trace);
            }
        }
    }
    let (bridges, table_bytes) = footprint.expect("SHARD_COUNTS is nonempty");
    let memory = single_engine.expect("SHARD_COUNTS runs the single engine");
    E12Result {
        k: params.k,
        hosts,
        bridges,
        rows,
        table_bytes,
        scheduler_reserved_bytes: memory.scheduler_reserved_bytes,
        link_state_bytes: memory.link_state_bytes,
        links: memory.links,
        traces_identical,
    }
}

/// One sweep point's traced run.
struct Point {
    row: E12Row,
    hosts: usize,
    /// `(bridges, Σ path-table heap bytes)`.
    tables: (usize, usize),
    /// The single engine's memory readings (1-shard points only).
    single_engine: Option<SingleEngine>,
    trace: Vec<String>,
}

/// What the single engine reports of its own memory.
#[derive(Debug, Clone, Copy)]
struct SingleEngine {
    scheduler_reserved_bytes: usize,
    link_state_bytes: usize,
    links: usize,
}

/// Run the scenario once at `shards` (clamped to `k`) with delivery
/// tracing on, and measure it.
fn run_point(params: &E12Params, shards: usize) -> Point {
    let (t, ft, deadline) = scenario(params);
    let hosts = ft.host_capacity(params.hosts_per_edge);
    let shards = shards.min(ft.k);
    let (measured, single_engine, trace) = if shards > 1 {
        let partition = rack_major(&ft, params.hosts_per_edge, shards);
        let topo = run_to(t.build_sharded(&partition, true), deadline);
        (measure(&topo), None, topo.net.delivery_trace())
    } else {
        let topo = run_to(t.build_single(true), deadline);
        let memory = SingleEngine {
            scheduler_reserved_bytes: topo.net.scheduler_reserved_bytes(),
            link_state_bytes: topo.net.link_state_bytes(),
            links: topo.net.link_count(),
        };
        (measure(&topo), Some(memory), topo.net.delivery_trace())
    };
    let (sent, delivered, tables) = measured;
    Point { row: E12Row { shards, delivered, sent }, hosts, tables, single_engine, trace }
}

/// `(sent, delivered, (bridges, Σ path-table heap bytes))` off a
/// finished run, on either engine.
fn measure<N: Engine>(topo: &Topology<N>) -> (u64, u64, (usize, usize)) {
    let (sent, delivered) = e8_fattree::sent_delivered(topo);
    let bridges = topo.bridge_nodes.len();
    let table_bytes = (0..bridges).map(|ix| topo.arppath(BridgeIx(ix)).table_heap_bytes()).sum();
    (sent, delivered, (bridges, table_bytes))
}

/// The merged, timestamp-sorted delivery trace of one run at `shards`
/// shards — the byte-comparable artifact CI diffs across shard counts
/// (`repro -- e12 --quick --shards N --trace-out FILE`); [`run`] hands
/// the same trace to its `on_trace` at each sweep point.
pub fn delivery_trace(params: &E12Params, shards: usize) -> Vec<String> {
    run_point(params, shards).trace
}

/// The equivalence half of the acceptance bar: every swept shard count
/// produced the byte-identical merged trace.
pub fn verify_trace_identity(result: &E12Result) -> bool {
    result.traces_identical
}

/// Delivery sanity over the sweep: nothing lost at any shard count.
pub fn verify_delivery(result: &E12Result) -> bool {
    !result.rows.is_empty() && result.rows.iter().all(|r| r.sent > 0 && r.delivered == r.sent)
}

/// The footprint half of the acceptance bar: the path tables stay
/// under [`MAX_BYTES_PER_STATION`].
pub fn verify_footprint(result: &E12Result) -> bool {
    result.bytes_per_station() <= MAX_BYTES_PER_STATION
}

/// The transient-memory half: the single-engine scheduler's reserved
/// event storage stays under [`MAX_SCHEDULER_RESERVED_BYTES`].
pub fn verify_scheduler(result: &E12Result) -> bool {
    result.scheduler_reserved_bytes <= MAX_SCHEDULER_RESERVED_BYTES
}

/// The link half: the single engine's link state stays under
/// [`MAX_LINK_STATE_BYTES_PER_STATION`].
pub fn verify_link_state(result: &E12Result) -> bool {
    result.link_state_bytes_per_station() <= MAX_LINK_STATE_BYTES_PER_STATION
}

/// Render the delivery table, one row per shard count.
pub fn table(result: &E12Result) -> Table {
    let mut t = Table::new(
        format!(
            "E12 (scale): k={} fat-tree, {} hosts, {} bridges",
            result.k, result.hosts, result.bridges
        ),
        &["shards", "delivered"],
    );
    for r in &result.rows {
        t.row(&[r.shards.to_string(), format!("{}/{}", r.delivered, r.sent)]);
    }
    t
}

/// Render the memory report: path tables, and the scheduler's reserved
/// event storage and the link state beside them.
pub fn footprint_table(result: &E12Result) -> Table {
    let mut t = Table::new(
        format!("E12: memory footprint, k={} ({} stations)", result.k, result.hosts),
        &["what", "total bytes", "bytes/station"],
    );
    t.row(&[
        "d-left path tables (SoA planes, 16 B per slot + 8 B per 64)".into(),
        result.table_bytes.to_string(),
        format!("{:.0}", result.bytes_per_station()),
    ]);
    let bytes = result.scheduler_reserved_bytes;
    t.row(&[
        "scheduler events, reserved (1 shard)".into(),
        bytes.to_string(),
        format!("{:.0}", bytes as f64 / result.hosts.max(1) as f64),
    ]);
    t.row(&[
        format!("link state, {} links (1 shard)", result.links),
        result.link_state_bytes.to_string(),
        format!("{:.0}", result.link_state_bytes_per_station()),
    ]);
    t
}
