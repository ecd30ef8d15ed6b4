//! Generic topology families: rings, grids, fat-trees and random
//! connected graphs — the scaling substrate for experiments E5–E7 and
//! the property-based loop-freedom tests.

use crate::builder::{BridgeIx, TopoBuilder};
use arppath_netsim::{LinkParams, SimDuration};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A ring of `n ≥ 3` bridges.
pub fn ring(t: &mut TopoBuilder, n: usize) -> Vec<BridgeIx> {
    assert!(n >= 3, "a ring needs at least 3 bridges");
    let bridges: Vec<BridgeIx> = (0..n).map(|i| t.bridge(format!("R{i}"))).collect();
    for i in 0..n {
        t.connect(bridges[i], bridges[(i + 1) % n]);
    }
    bridges
}

/// A `w × h` grid (4-neighbour mesh). Returns bridges in row-major
/// order; `grid[y * w + x]`.
pub fn grid(t: &mut TopoBuilder, w: usize, h: usize) -> Vec<BridgeIx> {
    assert!(w >= 1 && h >= 1);
    let bridges: Vec<BridgeIx> =
        (0..w * h).map(|i| t.bridge(format!("G{}x{}", i % w, i / w))).collect();
    for y in 0..h {
        for x in 0..w {
            let i = y * w + x;
            if x + 1 < w {
                t.connect(bridges[i], bridges[i + 1]);
            }
            if y + 1 < h {
                t.connect(bridges[i], bridges[i + w]);
            }
        }
    }
    bridges
}

/// The three layers of a k-ary fat-tree.
#[derive(Debug, Clone)]
pub struct FatTree {
    /// Core switches, `(k/2)²` of them.
    pub core: Vec<BridgeIx>,
    /// Aggregation switches, `k/2` per pod.
    pub aggregation: Vec<BridgeIx>,
    /// Edge switches, `k/2` per pod; attach hosts here.
    pub edge: Vec<BridgeIx>,
    /// Pod count (= k).
    pub k: usize,
}

impl FatTree {
    /// Hosts the fabric can address with `hosts_per_edge` hosts per
    /// edge switch (= per rack). The canonical fat-tree attaches `k/2`
    /// hosts per edge for `k³/4` total; the load-balance study (E8)
    /// over-subscribes with more.
    pub fn host_capacity(&self, hosts_per_edge: usize) -> usize {
        self.edge.len() * hosts_per_edge
    }

    /// The rack (edge-switch position within [`FatTree::edge`]) that
    /// host `h` of a `hosts_per_edge`-per-rack array lives in. Hosts
    /// are numbered rack-major: hosts `0..hosts_per_edge` share rack 0.
    pub fn rack_of_host(&self, h: usize, hosts_per_edge: usize) -> usize {
        assert!(hosts_per_edge > 0, "a rack holds at least one host");
        let rack = h / hosts_per_edge;
        assert!(rack < self.edge.len(), "host {h} exceeds capacity");
        rack
    }

    /// The edge switch host `h` attaches to (rack-major numbering).
    pub fn edge_of_host(&self, h: usize, hosts_per_edge: usize) -> BridgeIx {
        self.edge[self.rack_of_host(h, hosts_per_edge)]
    }

    /// The pod a rack belongs to (`k/2` racks per pod).
    pub fn pod_of_rack(&self, rack: usize) -> usize {
        assert!(rack < self.edge.len(), "rack {rack} out of range");
        rack / (self.k / 2)
    }

    /// The pod host `h` lives in.
    pub fn pod_of_host(&self, h: usize, hosts_per_edge: usize) -> usize {
        self.pod_of_rack(self.rack_of_host(h, hosts_per_edge))
    }

    /// Whether `ix` is a core switch of this fabric.
    pub fn is_core(&self, ix: BridgeIx) -> bool {
        self.core.contains(&ix)
    }

    /// Whether `ix` is an aggregation switch of this fabric.
    pub fn is_aggregation(&self, ix: BridgeIx) -> bool {
        self.aggregation.contains(&ix)
    }

    /// Whether `ix` is an edge switch of this fabric.
    pub fn is_edge(&self, ix: BridgeIx) -> bool {
        self.edge.contains(&ix)
    }
}

/// A k-ary fat-tree (k even, ≥ 2): the canonical data-center topology
/// the underlying FastPath work (paper ref \[4\]) targets. Each pod has
/// k/2 edge and k/2 aggregation switches fully bipartitely meshed;
/// aggregation switch `j` of each pod connects to core group `j`.
///
/// The counting identities: `5k²/4` switches (`(k/2)²` core, `k²/2`
/// aggregation, `k²/2` edge) wired by `k³/2` links.
///
/// # Example
///
/// ```
/// use arppath::ArpPathConfig;
/// use arppath_topo::{generic, BridgeKind, TopoBuilder};
///
/// let mut t = TopoBuilder::new(BridgeKind::ArpPath(ArpPathConfig::default()));
/// let ft = generic::fat_tree(&mut t, 4);
/// assert_eq!((ft.core.len(), ft.aggregation.len(), ft.edge.len()), (4, 8, 8));
///
/// // Rack-major host addressing: 2 hosts per edge switch = 16 hosts.
/// assert_eq!(ft.host_capacity(2), 16);
/// assert_eq!(ft.rack_of_host(5, 2), 2);          // hosts 4,5 share rack 2
/// assert_eq!(ft.pod_of_host(5, 2), 1);           // racks 2,3 form pod 1
/// assert_eq!(ft.edge_of_host(5, 2), ft.edge[2]);
///
/// let built = t.build();
/// assert_eq!(built.bridge_links.len(), 32);      // k³/2
/// ```
pub fn fat_tree(t: &mut TopoBuilder, k: usize) -> FatTree {
    fat_tree_with(t, k, &mut || LinkParams::default())
}

/// A k-ary fat-tree whose fabric links carry deterministic seeded
/// propagation jitter (uniform 1–10 µs, like [`random_connected`]).
///
/// On a perfectly symmetric fabric every ARP race resolves by the
/// simulator's deterministic tie-break, so all flows funnel onto one
/// core — physically unrealistic. Real fabrics have per-link variance
/// (cable lengths, transceiver skew); this variant models it, which is
/// what lets the race scatter host pairs across the parallel core
/// switches (the load-balance study, E8).
pub fn fat_tree_jittered(t: &mut TopoBuilder, k: usize, seed: u64) -> FatTree {
    let mut rng = StdRng::seed_from_u64(seed);
    fat_tree_with(t, k, &mut move || {
        LinkParams::gigabit(SimDuration::micros(rng.gen_range(1..=10)))
    })
}

/// Shared fat-tree wiring; `params` is drawn once per fabric link in a
/// fixed declaration order (per pod: edge↔agg meshes, then core
/// uplinks), so seeded variants are reproducible.
fn fat_tree_with(t: &mut TopoBuilder, k: usize, params: &mut dyn FnMut() -> LinkParams) -> FatTree {
    assert!(k >= 2 && k.is_multiple_of(2), "fat-tree arity must be even");
    let half = k / 2;
    let core: Vec<BridgeIx> = (0..half * half).map(|i| t.bridge(format!("C{i}"))).collect();
    let mut aggregation = Vec::new();
    let mut edge = Vec::new();
    for pod in 0..k {
        let aggs: Vec<BridgeIx> = (0..half).map(|j| t.bridge(format!("A{pod}.{j}"))).collect();
        let edges: Vec<BridgeIx> = (0..half).map(|j| t.bridge(format!("E{pod}.{j}"))).collect();
        for &a in &aggs {
            for &e in &edges {
                t.connect_with(a, e, params());
            }
        }
        for (j, &a) in aggs.iter().enumerate() {
            for c in 0..half {
                t.connect_with(a, core[j * half + c], params());
            }
        }
        aggregation.extend(aggs);
        edge.extend(edges);
    }
    FatTree { core, aggregation, edge, k }
}

/// A connected random graph: a uniformly random spanning tree plus
/// `extra_edges` distinct non-tree edges, deterministic in `seed`.
/// Link propagation delays are drawn uniformly from 1–10 µs, giving
/// the latency race something to choose between.
pub fn random_connected(
    t: &mut TopoBuilder,
    n: usize,
    extra_edges: usize,
    seed: u64,
) -> Vec<BridgeIx> {
    assert!(n >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let bridges: Vec<BridgeIx> = (0..n).map(|i| t.bridge(format!("N{i}"))).collect();
    let mut edges = std::collections::BTreeSet::new();
    let delay = |rng: &mut StdRng| LinkParams::gigabit(SimDuration::micros(rng.gen_range(1..=10)));
    // Random attachment tree keeps it connected.
    for i in 1..n {
        let j = rng.gen_range(0..i);
        edges.insert((j, i));
        let p = delay(&mut rng);
        t.connect_with(bridges[j], bridges[i], p);
    }
    let max_extra = n * (n - 1) / 2 - (n - 1);
    let extra = extra_edges.min(max_extra);
    let mut added = 0;
    while added < extra {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a == b {
            continue;
        }
        let key = (a.min(b), a.max(b));
        if edges.insert(key) {
            let p = delay(&mut rng);
            t.connect_with(bridges[key.0], bridges[key.1], p);
            added += 1;
        }
    }
    bridges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::BridgeKind;
    use arppath::ArpPathConfig;

    fn fresh() -> TopoBuilder {
        TopoBuilder::new(BridgeKind::ArpPath(ArpPathConfig::default()))
    }

    #[test]
    fn ring_edge_count() {
        let mut t = fresh();
        ring(&mut t, 5);
        assert_eq!(t.build().bridge_links.len(), 5);
    }

    #[test]
    fn grid_edge_count() {
        let mut t = fresh();
        grid(&mut t, 3, 4);
        // 3x4 grid: horizontal 2*4 + vertical 3*3 = 17.
        assert_eq!(t.build().bridge_links.len(), 17);
    }

    #[test]
    fn fat_tree_k4_shape() {
        let mut t = fresh();
        let ft = fat_tree(&mut t, 4);
        assert_eq!(ft.core.len(), 4);
        assert_eq!(ft.aggregation.len(), 8);
        assert_eq!(ft.edge.len(), 8);
        // Links: per pod 2*2 edge-agg = 4, ×4 pods = 16; agg-core: each
        // agg has 2 uplinks, 8 aggs = 16. Total 32.
        assert_eq!(t.build().bridge_links.len(), 32);
    }

    #[test]
    fn fat_tree_host_addressing_is_rack_major() {
        let mut t = fresh();
        let ft = fat_tree(&mut t, 4);
        assert_eq!(ft.host_capacity(3), 24);
        // Rack-major: hosts 0..3 on rack 0, 3..6 on rack 1, ...
        assert_eq!(ft.rack_of_host(0, 3), 0);
        assert_eq!(ft.rack_of_host(2, 3), 0);
        assert_eq!(ft.rack_of_host(3, 3), 1);
        assert_eq!(ft.rack_of_host(23, 3), 7);
        // k/2 = 2 racks per pod.
        assert_eq!(ft.pod_of_rack(0), 0);
        assert_eq!(ft.pod_of_rack(1), 0);
        assert_eq!(ft.pod_of_rack(2), 1);
        assert_eq!(ft.pod_of_host(23, 3), 3);
        assert_eq!(ft.edge_of_host(7, 3), ft.edge[2]);
        // Layer membership predicates agree with the layer lists.
        assert!(ft.is_core(ft.core[0]) && !ft.is_edge(ft.core[0]));
        assert!(ft.is_aggregation(ft.aggregation[0]) && !ft.is_core(ft.aggregation[0]));
        assert!(ft.is_edge(ft.edge[0]) && !ft.is_aggregation(ft.edge[0]));
    }

    #[test]
    fn jittered_fat_tree_is_seed_deterministic_with_same_shape() {
        let delays = |seed| {
            let mut t = fresh();
            fat_tree_jittered(&mut t, 4, seed);
            let built = t.build();
            built
                .bridge_links
                .iter()
                .map(|&l| built.net.link(l).params.propagation.as_nanos())
                .collect::<Vec<_>>()
        };
        assert_eq!(delays(7), delays(7), "same seed, same delays");
        assert_ne!(delays(7), delays(8), "different seed, different delays");
        // Jitter stays in the documented 1-10us band and the shape
        // matches the unjittered tree.
        let d = delays(7);
        assert_eq!(d.len(), 32);
        assert!(d.iter().all(|&ns| (1_000..=10_000).contains(&ns)));
        assert!(d.iter().any(|&ns| ns != d[0]), "delays must actually vary");
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn fat_tree_host_addressing_checks_capacity() {
        let mut t = fresh();
        let ft = fat_tree(&mut t, 4);
        let _ = ft.rack_of_host(24, 3);
    }

    #[test]
    fn random_graph_is_deterministic_and_connected() {
        let build = |seed| {
            let mut t = fresh();
            random_connected(&mut t, 12, 6, seed);
            let built = t.build();
            built
                .bridge_links
                .iter()
                .map(|&l| {
                    let link = built.net.link(l);
                    (link.a.node.0, link.b.node.0)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(build(42), build(42), "same seed, same graph");
        assert_ne!(build(42), build(43), "different seed, different graph");
        // Connectivity: union-find over edges.
        let edges = build(7);
        let mut parent: Vec<usize> = (0..12).collect();
        fn find(p: &mut Vec<usize>, x: usize) -> usize {
            if p[x] != x {
                let r = find(p, p[x]);
                p[x] = r;
            }
            p[x]
        }
        for (a, b) in &edges {
            let (ra, rb) = (find(&mut parent, *a), find(&mut parent, *b));
            parent[ra] = rb;
        }
        let root = find(&mut parent, 0);
        for i in 1..12 {
            assert_eq!(find(&mut parent, i), root, "node {i} disconnected");
        }
    }

    #[test]
    fn random_graph_extra_edges_capped() {
        let mut t = fresh();
        // Ask for far more extra edges than a 4-node graph can hold.
        random_connected(&mut t, 4, 100, 1);
        let built = t.build();
        assert_eq!(built.bridge_links.len(), 6, "complete graph is the cap");
    }
}
