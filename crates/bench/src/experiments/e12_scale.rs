//! **E12 — shard-scaling push: the k=16 fabric on 1/2/4/8 workers.**
//!
//! The All-Path scalability question (arXiv:1703.08744) is ultimately
//! about how far per-host-pair path state and the machinery simulating
//! it scale. E8 stops at k=8; this experiment instantiates the k=16
//! jittered fat-tree — 320 switches, 128 edge racks, up to 16k hosts
//! (`hosts_per_edge` ≤ 128; geometry auto-derived per PR 8's
//! autosizing) — and sweeps the sharded engine's worker count,
//! reporting three numbers per point:
//!
//! * **wall clock** per shard count (the scaling curve itself);
//! * **sync rounds per simulated millisecond** — how often the
//!   conservative window protocol made the workers rendezvous; the
//!   per-pair lookahead matrix (PR 10) exists to push this down;
//! * **bytes per station** — the d-left path tables' heap footprint
//!   (SoA planes, 32 B per slot, plus the timer wheel) summed over
//!   every bridge and divided by the attached host count, held under
//!   an absolute ceiling ([`MAX_BYTES_PER_STATION`]) — and beside it
//!   the event storage the single-engine run's scheduler ended up
//!   holding ([`MAX_SCHEDULER_RESERVED_BYTES`]): the other memory every
//!   frame hop writes.
//!
//! Correctness rides along: every run must deliver every datagram, and
//! the merged delivery trace must be byte-identical across *all* shard
//! counts ([`verify_trace_identity`]; CI additionally diffs
//! `--trace-out` files).

use super::e8_fattree::{self, E8Params};
use super::{rack_major, run_to};
use arppath_host::TrafficPattern;
use arppath_metrics::Table;
use arppath_netsim::{Engine, SimTime};
use arppath_topo::{BridgeIx, FatTree, TopoBuilder, Topology};
use std::time::Instant;

/// Parameters of one E12 sweep (one fabric, several worker counts).
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
    /// Worker counts to sweep (each clamped to the pod count `k`).
    pub shard_counts: Vec<usize>,
}

impl Default for E12Params {
    fn default() -> Self {
        E12Params {
            k: 16,
            hosts_per_edge: 16,
            datagrams: 5,
            payload_len: 700,
            seed: 0xE12,
            shard_counts: vec![1, 2, 4, 8],
        }
    }
}

impl E12Params {
    /// The CI-sized configuration: same k=16 fabric shape, one host
    /// per rack (128 hosts), two datagrams each — small enough to
    /// sweep all four shard counts and diff traces in seconds.
    pub fn quick() -> Self {
        E12Params { hosts_per_edge: 1, datagrams: 2, ..Default::default() }
    }
}

/// One worker count's measurements.
#[derive(Debug, Clone)]
pub struct E12Row {
    /// Worker count actually used (requested, clamped to `k`).
    pub shards: usize,
    /// Wall-clock milliseconds for the run.
    pub wall_ms: f64,
    /// Exchange-barrier rounds the window protocol executed (0 for the
    /// single-threaded engine).
    pub sync_rounds: u64,
    /// `sync_rounds` per simulated millisecond.
    pub rounds_per_sim_ms: f64,
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
    /// One row per swept worker count.
    pub rows: Vec<E12Row>,
    /// Σ path-table heap bytes over every bridge.
    pub table_bytes: usize,
    /// `Network::scheduler_reserved_bytes` at the end of the
    /// single-engine run (the 1-worker sweep point), if the sweep had
    /// one.
    pub scheduler_reserved_bytes: Option<usize>,
}

/// Ceiling on [`E12Result::bytes_per_station`]: the quick geometry's
/// figure with 36-byte table slots (82,124 B) plus 2 %; packing a
/// path-table value into 4 bytes (32-byte slots) brought it to
/// 77,004 B. One station per rack is the worst case E12 runs — each
/// bridge's fixed costs (minimum table geometry, wheel spine) are
/// spread over the fewest stations — so fuller fabrics sit well under
/// it (50,772 B at 16 hosts per edge).
pub const MAX_BYTES_PER_STATION: f64 = 83_800.0;

/// Ceiling on [`E12Result::scheduler_reserved_bytes`]. With drained
/// calendar buckets recycled the ring reserves what was pending at
/// once: 4.7 MB at the end of the full sweep's 2,048-host run and
/// 1.7 MB on the quick geometry (PR 15). Keeping every ring index's
/// high-water storage reserved 28.7 and 9.3 MB for the same ~1,100
/// events pending in steady state, and cycled through all of it.
pub const MAX_SCHEDULER_RESERVED_BYTES: usize = 6 << 20;

impl E12Result {
    /// The headline footprint figure: table heap bytes per attached
    /// station.
    pub fn bytes_per_station(&self) -> f64 {
        self.table_bytes as f64 / self.hosts.max(1) as f64
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

/// Run the sweep: one fresh instantiation of the same scenario per
/// worker count, wall-clocked; the table footprint is read off the
/// first run's bridges (the geometry is identical at every point).
pub fn run(params: &E12Params) -> E12Result {
    let mut rows = Vec::new();
    let mut footprint: Option<(usize, usize)> = None; // (bridges, table bytes)
    let mut scheduler_reserved_bytes = None;
    let mut hosts = 0;
    for &requested in &params.shard_counts {
        let (t, ft, deadline) = scenario(params);
        hosts = ft.host_capacity(params.hosts_per_edge);
        let shards = requested.min(ft.k);
        let started = Instant::now();
        let (sync_rounds, (sent, delivered, tables)) = if shards > 1 {
            let partition = rack_major(&ft, params.hosts_per_edge, shards);
            let topo = run_to(t.build_sharded(&partition, false), deadline);
            (topo.net.sync_rounds(), measure(&topo))
        } else {
            let topo = run_to(t.build(), deadline);
            scheduler_reserved_bytes = Some(topo.net.scheduler_reserved_bytes());
            (0, measure(&topo))
        };
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        footprint.get_or_insert(tables);
        rows.push(E12Row {
            shards,
            wall_ms,
            sync_rounds,
            rounds_per_sim_ms: sync_rounds as f64 / (deadline.0 as f64 / 1e6),
            delivered,
            sent,
        });
    }
    let (bridges, table_bytes) = footprint.expect("shard_counts must be nonempty");
    E12Result { k: params.k, hosts, bridges, rows, table_bytes, scheduler_reserved_bytes }
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
/// workers — the byte-comparable artifact CI diffs across shard
/// counts (`repro -- e12 --quick --shards N --trace-out FILE`).
pub fn delivery_trace(params: &E12Params, shards: usize) -> Vec<String> {
    let (t, ft, deadline) = scenario(params);
    let shards = shards.min(ft.k);
    if shards > 1 {
        let partition = rack_major(&ft, params.hosts_per_edge, shards);
        run_to(t.build_sharded(&partition, true), deadline).net.delivery_trace()
    } else {
        run_to(t.build_single(true), deadline).net.delivery_trace()
    }
}

/// The equivalence half of the acceptance bar: every swept shard count
/// produces the byte-identical merged trace. Runs the scenario once
/// per count with tracing on — call on quick geometry unless you mean
/// to pay full-scale runs twice.
pub fn verify_trace_identity(params: &E12Params) -> bool {
    let mut traces = params.shard_counts.iter().map(|&shards| delivery_trace(params, shards));
    let Some(reference) = traces.next() else { return false };
    !reference.is_empty() && traces.all(|trace| trace == reference)
}

/// Delivery sanity over the sweep: nothing lost at any worker count.
pub fn verify_delivery(result: &E12Result) -> bool {
    !result.rows.is_empty() && result.rows.iter().all(|r| r.sent > 0 && r.delivered == r.sent)
}

/// The footprint half of the acceptance bar: the path tables stay
/// under [`MAX_BYTES_PER_STATION`].
pub fn verify_footprint(result: &E12Result) -> bool {
    result.bytes_per_station() <= MAX_BYTES_PER_STATION
}

/// The transient-memory half: the single-engine scheduler's reserved
/// event storage stays under [`MAX_SCHEDULER_RESERVED_BYTES`]. `None`
/// when the sweep had no 1-worker point to read it from.
pub fn verify_scheduler(result: &E12Result) -> Option<bool> {
    result.scheduler_reserved_bytes.map(|bytes| bytes <= MAX_SCHEDULER_RESERVED_BYTES)
}

/// Render the scaling table.
pub fn table(result: &E12Result) -> Table {
    let mut t = Table::new(
        format!(
            "E12 (shard scaling): k={} fat-tree, {} hosts, {} bridges",
            result.k, result.hosts, result.bridges
        ),
        &["shards", "wall ms", "sync rounds", "rounds/sim ms", "delivered"],
    );
    for r in &result.rows {
        t.row(&[
            r.shards.to_string(),
            format!("{:.0}", r.wall_ms),
            r.sync_rounds.to_string(),
            format!("{:.1}", r.rounds_per_sim_ms),
            format!("{}/{}", r.delivered, r.sent),
        ]);
    }
    t
}

/// Render the memory report: path tables, and the scheduler's reserved
/// event storage beside them.
pub fn footprint_table(result: &E12Result) -> Table {
    let mut t = Table::new(
        format!("E12: memory footprint, k={} ({} stations)", result.k, result.hosts),
        &["what", "total bytes", "bytes/station"],
    );
    t.row(&[
        "d-left path tables (SoA planes, 32 B per slot)".into(),
        result.table_bytes.to_string(),
        format!("{:.0}", result.bytes_per_station()),
    ]);
    if let Some(bytes) = result.scheduler_reserved_bytes {
        t.row(&[
            "scheduler events, reserved (1 worker)".into(),
            bytes.to_string(),
            format!("{:.0}", bytes as f64 / result.hosts.max(1) as f64),
        ]);
    }
    t
}
