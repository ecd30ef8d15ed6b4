//! **E8 — datacenter-scale fat-tree load balance (All-Path direction,
//! arXiv:1703.08744).**
//!
//! The paper's §2.2 claims path diversity; the All-Path scalability
//! study shows the behaviour only becomes interesting at datacenter
//! scale, on multipath fabrics with many concurrent flows. This
//! experiment stitches a rack-major host array onto a k-ary fat-tree,
//! drives a seeded [`TrafficPattern`] (fixed-point-free permutation, or
//! an incast hotspot) through plain ARP + UDP, and measures what the
//! parallel core layer did with it:
//!
//! * per-core-link byte loads → Jain fairness + a utilization
//!   histogram (shape, not just a scalar);
//! * path diversity → which core switch each host pair's learned path
//!   crosses, how many distinct cores are in use, and how evenly pairs
//!   spread over them;
//! * delivery — every datagram sent must arrive (the fabric is
//!   loss-free at these rates; a shortfall means paths broke).
//!
//! Everything is a pure function of the parameter struct: same seed ⇒
//! identical tables, which `tests/fat_tree_workload.rs` pins.

use super::{host_ip, host_mac, pattern_label, rack_major, run_to, TracedRun};
use arppath::{ArpPathBridge, ArpPathConfig};
use arppath_host::{pairings, TrafficConfig, TrafficHost, TrafficPattern};
use arppath_metrics::{jain_index, DiversityCounter, Table, UtilizationHistogram};
use arppath_netsim::{Dir, Engine, NodeId, PortNo, SimDuration, SimTime};
use arppath_topo::{generic, BridgeIx, BridgeKind, FatTree, TopoBuilder, Topology};
use arppath_wire::MacAddr;
use std::collections::BTreeMap;

/// Parameters of one E8 run (one fabric size, both patterns).
#[derive(Debug, Clone, Copy)]
pub struct E8Params {
    /// Fat-tree arity (even): `5k²/4` switches, `k³/2` links.
    pub k: usize,
    /// Hosts attached per edge switch (the canonical tree uses `k/2`;
    /// larger values over-subscribe the fabric).
    pub hosts_per_edge: usize,
    /// UDP datagrams each host sends to its assigned peer.
    pub datagrams: u64,
    /// UDP payload bytes (big enough that data dwarfs control chatter
    /// in the per-link byte loads).
    pub payload_len: usize,
    /// Workload seed: drives both patterns' pairings.
    pub seed: u64,
    /// Hot receivers for the hotspot pattern (clamped to the host
    /// count).
    pub hot_receivers: usize,
    /// Shards for the simulation. `1` runs the single engine; `≥ 2`
    /// runs [`arppath_netsim::ShardedNetwork`] under the rack-major
    /// partition ([`arppath_topo::Partition::rack_major`]), clamped to
    /// the fabric's pod count `k` — same scenario, same results
    /// (`tests/sharded_equivalence.rs` pins trace identity).
    pub shards: usize,
}

impl Default for E8Params {
    fn default() -> Self {
        E8Params {
            k: 4,
            hosts_per_edge: 4,
            datagrams: 10,
            payload_len: 700,
            seed: 0xE8,
            hot_receivers: 4,
            shards: 1,
        }
    }
}

/// One pattern's load-balance metrics on one fabric.
#[derive(Debug, Clone)]
pub struct E8Row {
    /// `"permutation"` or `"hotspot"`.
    pub pattern: &'static str,
    /// Fat-tree arity.
    pub k: usize,
    /// Hosts attached.
    pub hosts: usize,
    /// Aggregation↔core links in the fabric.
    pub core_links: usize,
    /// Jain fairness of per-core-link byte loads.
    pub jain_core: f64,
    /// Fraction of core links carrying a meaningful share (> 5 % of
    /// the mean core-link load).
    pub core_links_used: f64,
    /// Distinct core switches crossed by at least one learned path.
    pub distinct_cores: usize,
    /// Core switches in the fabric (`(k/2)²`).
    pub total_cores: usize,
    /// Jain fairness of host pairs per core switch (how evenly the
    /// pair→core assignment spread).
    pub pairs_per_core_jain: f64,
    /// Host pairs whose learned path crosses the core (inter-pod
    /// pairs; intra-pod traffic never needs to).
    pub core_crossing_pairs: usize,
    /// Datagrams delivered fabric-wide.
    pub delivered: u64,
    /// Datagrams sent fabric-wide.
    pub sent: u64,
    /// Core-link utilization histogram (load relative to mean).
    pub histogram: UtilizationHistogram,
}

/// Full E8 output for one fabric size.
#[derive(Debug, Clone)]
pub struct E8Result {
    /// Permutation row then hotspot row.
    pub rows: Vec<E8Row>,
}

/// Walks learned unicast paths over one built topology. The fabric
/// adjacency maps are built once at construction, so walking every
/// host pair (1024 at k=8) costs hops, not map rebuilds.
pub struct PathWalker<'a> {
    /// ARP-Path logic per bridge, by [`BridgeIx`].
    bridges: Vec<&'a ArpPathBridge>,
    /// (bridge ix, port) → peer bridge ix, over fabric links only.
    peer: BTreeMap<(usize, PortNo), usize>,
}

impl<'a> PathWalker<'a> {
    /// Index the fabric adjacency of `topo`, on either engine.
    pub fn new<N: Engine>(topo: &'a Topology<N>) -> Self {
        let ix_of: BTreeMap<NodeId, usize> =
            topo.bridge_nodes.iter().enumerate().map(|(i, &node)| (node, i)).collect();
        let mut peer = BTreeMap::new();
        for &l in &topo.bridge_links {
            let (a, b) = topo.net.link_endpoints(l);
            peer.insert((ix_of[&a.node], a.port), ix_of[&b.node]);
            peer.insert((ix_of[&b.node], b.port), ix_of[&a.node]);
        }
        let bridges = (0..topo.bridge_nodes.len()).map(|i| topo.arppath(BridgeIx(i))).collect();
        PathWalker { bridges, peer }
    }

    /// Walk the learned unicast path from `from` toward `target`,
    /// returning the bridges visited in order (starting with `from`).
    /// Stops when a bridge has no entry for `target` or the next hop
    /// is the host itself.
    pub fn walk(&self, from: BridgeIx, target: MacAddr, now: SimTime) -> Vec<BridgeIx> {
        let mut visited = vec![from];
        let mut cur = from;
        for _ in 0..self.bridges.len() {
            let Some(e) = self.bridges[cur.0].entry_of(target, now) else { break };
            let Some(&next) = self.peer.get(&(cur.0, e.port)) else {
                break; // the entry points at a host port: destination reached
            };
            let next_ix = BridgeIx(next);
            if visited.contains(&next_ix) {
                break; // defensive: a loop here would be a protocol bug
            }
            visited.push(next_ix);
            cur = next_ix;
        }
        visited
    }
}

/// Lay out one E8 scenario: the jittered fabric, the seeded workload's
/// hosts, and the run deadline. Shared verbatim by the single-threaded
/// path, the sharded path and the delivery-trace capture, so all three
/// simulate the *same* network — and by E12, whose k=16 sweep is this
/// scenario's permutation pattern at a larger size.
pub(crate) fn scenario(
    params: &E8Params,
    pattern: TrafficPattern,
) -> (TopoBuilder, FatTree, Vec<usize>, SimTime) {
    // The bridges' d-left path tables size themselves: TopoBuilder
    // derives the geometry from the declared host count at build time
    // (a core bridge learns every station — the NetFPGA analogue of
    // sizing BRAM for the target network).
    let mut t = TopoBuilder::new(BridgeKind::ArpPath(ArpPathConfig::default()));
    // Jittered fabric delays: on a perfectly symmetric tree every race
    // resolves by the deterministic tie-break and all flows funnel
    // onto one core. The jitter seed derives from the workload seed so
    // one E8Params value pins the whole scenario. (The jitter also
    // sets the sharded engine's lookahead: ≥ 1 µs per cut link.)
    let ft = generic::fat_tree_jittered(&mut t, params.k, params.seed.wrapping_add(0xFA7));
    let n = ft.host_capacity(params.hosts_per_edge);
    let pairs = pairings(n, pattern, params.seed);

    // ARP-Path needs its hellos settled so bridge ports classify as
    // core before host traffic arrives (same warmup as E5's ARP rows).
    let warmup = SimDuration::millis(100);
    // Stagger first sends so thousands of ARP floods don't detonate on
    // one timestamp; deterministic in the host index.
    let stagger = SimDuration::micros(137);
    let interval = SimDuration::millis(5);
    for (i, &dst) in pairs.iter().enumerate() {
        let id = (i + 1) as u32;
        let cfg = TrafficConfig {
            target: host_ip((dst + 1) as u32),
            start_at: warmup + stagger.times(i as u64),
            interval,
            count: params.datagrams,
            payload_len: params.payload_len,
            ..Default::default()
        };
        let host = TrafficHost::new(format!("h{id}"), host_mac(id), host_ip(id), cfg);
        t.host(ft.edge_of_host(i, params.hosts_per_edge), Box::new(host));
    }
    let deadline = warmup
        + stagger.times(n as u64)
        + interval.times(params.datagrams)
        + SimDuration::millis(200);
    (t, ft, pairs, SimTime(deadline.as_nanos()))
}

fn run_pattern(params: &E8Params, pattern: TrafficPattern) -> E8Row {
    let (t, ft, pairs, deadline) = scenario(params, pattern);
    let shards = params.shards.min(ft.k);
    if shards > 1 {
        let partition = rack_major(&ft, params.hosts_per_edge, shards);
        measure(params, pattern, &ft, &pairs, &run_to(t.build_sharded(&partition, false), deadline))
    } else {
        measure(params, pattern, &ft, &pairs, &run_to(t.build(), deadline))
    }
}

/// One pattern's metrics off a finished run, on either engine.
fn measure<N: Engine>(
    params: &E8Params,
    pattern: TrafficPattern,
    ft: &FatTree,
    pairs: &[usize],
    topo: &Topology<N>,
) -> E8Row {
    let core_loads = core_loads(ft, topo);
    let mean = core_loads.iter().sum::<f64>() / core_loads.len().max(1) as f64;
    let used = core_loads.iter().filter(|&&x| x > mean * 0.05).count() as f64
        / core_loads.len().max(1) as f64;
    let diversity = core_diversity(ft, params.hosts_per_edge, pairs, topo);

    let (sent, delivered) = sent_delivered(topo);
    E8Row {
        pattern: pattern_label(pattern),
        k: params.k,
        hosts: pairs.len(),
        core_links: core_loads.len(),
        jain_core: jain_index(&core_loads),
        core_links_used: used,
        distinct_cores: diversity.distinct_items(),
        total_cores: ft.core.len(),
        pairs_per_core_jain: jain_index(&diversity.keys_per_item()),
        core_crossing_pairs: diversity.keys(),
        delivered,
        sent,
        histogram: UtilizationHistogram::from_loads(&core_loads),
    }
}

/// `(sent, delivered)` datagrams summed over every host of a finished
/// run, on either engine.
pub(crate) fn sent_delivered<N: Engine>(topo: &Topology<N>) -> (u64, u64) {
    topo.host_nodes.iter().fold((0, 0), |(sent, delivered), &h| {
        let host = topo.net.device::<TrafficHost>(h);
        (sent + host.sent(), delivered + host.rx_datagrams)
    })
}

/// Byte load of every core link (one endpoint on a core switch), both
/// directions summed, in link order.
pub(crate) fn core_loads<N: Engine>(ft: &FatTree, topo: &Topology<N>) -> Vec<f64> {
    let core_nodes: Vec<NodeId> = ft.core.iter().map(|&c| topo.bridge_nodes[c.0]).collect();
    let load = |l| {
        (topo.net.link_stats(l, Dir::AtoB).tx_bytes + topo.net.link_stats(l, Dir::BtoA).tx_bytes)
            as f64
    };
    topo.bridge_links
        .iter()
        .filter(|&&l| {
            let (a, b) = topo.net.link_endpoints(l);
            core_nodes.contains(&a.node) || core_nodes.contains(&b.node)
        })
        .map(|&l| load(l))
        .collect()
}

/// Which core switch each host pair's learned path crosses at the end
/// of the run (host `i` sends to host `pairs[i]`).
pub(crate) fn core_diversity<N: Engine>(
    ft: &FatTree,
    hosts_per_edge: usize,
    pairs: &[usize],
    topo: &Topology<N>,
) -> DiversityCounter {
    let mut diversity = DiversityCounter::new();
    let walker = PathWalker::new(topo);
    for (i, &dst) in pairs.iter().enumerate() {
        let from = ft.edge_of_host(i, hosts_per_edge);
        for b in walker.walk(from, host_mac((dst + 1) as u32), topo.net.now()) {
            if ft.is_core(b) {
                diversity.record(i as u64, b.0 as u64);
            }
        }
    }
    diversity
}

/// The merged, timestamp-sorted delivery trace of one pattern's run —
/// the canonical byte-comparable artifact. A sharded run
/// (`params.shards ≥ 2`) and a single-threaded run (`shards = 1`) of
/// the same parameters must render **identical** lines; CI diffs
/// exactly this (`repro -- e8 --quick --trace-out`).
pub fn delivery_trace(params: &E8Params, pattern: TrafficPattern) -> Vec<String> {
    traced_run(params, pattern).trace
}

/// [`delivery_trace`] plus the engine and link counters of the same
/// run.
pub fn traced_run(params: &E8Params, pattern: TrafficPattern) -> TracedRun {
    let (t, ft, _pairs, deadline) = scenario(params, pattern);
    let shards = params.shards.min(ft.k);
    if shards > 1 {
        let partition = rack_major(&ft, params.hosts_per_edge, shards);
        TracedRun::of(&run_to(t.build_sharded(&partition, true), deadline))
    } else {
        TracedRun::of(&run_to(t.build_single(true), deadline))
    }
}

/// Run both patterns on one fabric size.
pub fn run(params: &E8Params) -> E8Result {
    let permutation = run_pattern(params, TrafficPattern::Permutation);
    let hotspot =
        run_pattern(params, TrafficPattern::Hotspot { hot_receivers: params.hot_receivers });
    E8Result { rows: vec![permutation, hotspot] }
}

/// Render the load-distribution summary over any number of runs (one
/// per fabric size) — the table the All-Path study's load-balance
/// figures are compared against.
pub fn table(results: &[E8Result]) -> Table {
    let mut t = Table::new(
        "E8 (All-Path scalability): fat-tree core load balance",
        &[
            "k",
            "pattern",
            "hosts",
            "core links",
            "jain (core load)",
            "core links used",
            "cores used",
            "jain (pairs/core)",
            "delivered",
        ],
    );
    for result in results {
        for r in &result.rows {
            t.row(&[
                r.k.to_string(),
                r.pattern.to_string(),
                r.hosts.to_string(),
                r.core_links.to_string(),
                format!("{:.3}", r.jain_core),
                format!("{:.0}%", r.core_links_used * 100.0),
                format!("{}/{}", r.distinct_cores, r.total_cores),
                format!("{:.3}", r.pairs_per_core_jain),
                format!("{}/{}", r.delivered, r.sent),
            ]);
        }
    }
    t
}

/// Render the per-core-link utilization histogram for one fabric size
/// (buckets of load relative to the mean core-link load; pattern
/// columns side by side).
pub fn utilization_table(result: &E8Result) -> Table {
    let k = result.rows.first().map(|r| r.k).unwrap_or(0);
    let series: Vec<(&str, &UtilizationHistogram)> =
        result.rows.iter().map(|r| (r.pattern, &r.histogram)).collect();
    UtilizationHistogram::table(
        &format!("E8: core-link utilization histogram, k={k} fat-tree"),
        &series,
    )
}

/// The headline claim: under the permutation workload the race spreads
/// inter-pod pairs across a **majority** of the parallel core switches
/// (no spanning-tree-style funnelling onto one), core-load fairness
/// stays above 0.5, and nothing is lost. Not *every* core need win:
/// with fixed per-link jitter a core that is never on any pair's
/// fastest path stays idle, which is physically faithful.
pub fn verify_spread(result: &E8Result) -> bool {
    result
        .rows
        .iter()
        .filter(|r| r.pattern == "permutation")
        .all(|r| r.distinct_cores * 2 > r.total_cores && r.jain_core > 0.5 && r.delivered == r.sent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arppath_topo::Partition;

    /// The window agreement, pinned: how many exchange rounds the
    /// sharded twin needs and how many frames cross its cuts on the
    /// quick E8 fabric (`repro e8 --quick`'s permutation run), under
    /// both partitions and at 2, 3 and 4 shards. A change to how shards
    /// agree on windows moves these counts even when traces still
    /// match.
    #[test]
    fn quick_fabric_sync_rounds_and_cross_frames_are_pinned() {
        let params = E8Params { k: 4, hosts_per_edge: 2, datagrams: 5, ..Default::default() };
        let cases = [
            ("rack-major", 2, 924, 229),
            ("rack-major", 3, 972, 310),
            ("rack-major", 4, 1020, 384),
            ("round-robin", 2, 1269, 728),
            ("round-robin", 3, 1441, 1072),
            ("round-robin", 4, 1470, 1230),
        ];
        for (partition, shards, rounds, cross) in cases {
            let (t, ft, _pairs, deadline) = scenario(&params, TrafficPattern::Permutation);
            let partition_of = if partition == "rack-major" {
                rack_major(&ft, params.hosts_per_edge, shards)
            } else {
                let hosts = ft.host_capacity(params.hosts_per_edge);
                Partition::round_robin(t.bridge_count(), hosts, shards)
            };
            let topo = run_to(t.build_sharded(&partition_of, false), deadline);
            let got = (topo.net.sync_rounds(), topo.net.cross_frames());
            assert_eq!(got, (rounds, cross), "{partition} partition, {shards} shards");
        }
    }

    /// A link's queue, pause bookkeeping and rare counters are
    /// allocated only when a direction first queues, drops or pauses.
    /// On the k=4 fabric with one host per rack no flood copy ever
    /// waits for a transmitter, so every link stays at its inline size
    /// while the ARP floods and datagrams cross it.
    #[test]
    fn a_k4_flood_without_queueing_allocates_no_link_record() {
        let params = E8Params { k: 4, hosts_per_edge: 1, datagrams: 2, ..Default::default() };
        let (t, _ft, _pairs, deadline) = scenario(&params, TrafficPattern::Permutation);
        let topo = run_to(t.build(), deadline);
        let (sent, delivered) = sent_delivered(&topo);
        assert!(sent > 0 && delivered == sent, "{delivered}/{sent} datagrams");
        let net = &topo.net;
        // Eight hosts, each ARPing once: most deliveries are flood copies.
        let other = net.stats().frames_delivered - delivered;
        assert!(other > 10 * delivered, "{other} deliveries besides the datagrams");
        let inline = net.link_count() * std::mem::size_of::<arppath_netsim::Link>();
        assert_eq!(net.link_state_bytes(), inline);
    }
}
