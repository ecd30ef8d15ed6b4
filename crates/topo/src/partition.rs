//! Shard assignment strategies for the sharded simulation engine.
//!
//! A [`Partition`] maps every bridge and every host of a topology to a
//! shard of [`arppath_netsim::ShardedNetwork`]. The assignment decides
//! how many windows a run takes: the sharded engine's lookahead is the
//! minimum propagation delay over **cut** links, so a good partition
//! cuts only links with generous delays and keeps chatty neighbours
//! together.
//!
//! Two strategies cover the repository's workloads:
//!
//! * [`Partition::rack_major`] — for fat-trees: whole pods (edge +
//!   aggregation switches and every host under them) go to one shard,
//!   contiguously; core switches spread evenly. Host↔edge links — the
//!   shortest, busiest links in the fabric — are never cut, so the
//!   lookahead is set by the jittered fabric links (≥ 1 µs on
//!   [`crate::generic::fat_tree_jittered`]).
//! * [`Partition::round_robin`] — for arbitrary graphs: node `i` to
//!   shard `i mod N`. No locality, maximum cut — the stress-test
//!   partition the equivalence suite uses precisely *because* it cuts
//!   as many links as possible.

use crate::builder::BridgeIx;
use crate::generic::FatTree;

/// A complete bridge + host → shard assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    shards: usize,
    bridge_shard: Vec<usize>,
    host_shard: Vec<usize>,
}

impl Partition {
    /// Wrap an explicit assignment (`bridge_shard[ix]`,
    /// `host_shard[host index]`).
    ///
    /// # Panics
    /// If `shards` is zero or any entry names a shard out of range.
    pub fn new(shards: usize, bridge_shard: Vec<usize>, host_shard: Vec<usize>) -> Self {
        assert!(shards >= 1, "a partition needs at least one shard");
        for (i, &s) in bridge_shard.iter().enumerate() {
            assert!(s < shards, "bridge {i} assigned to shard {s}, but only {shards} exist");
        }
        for (i, &s) in host_shard.iter().enumerate() {
            assert!(s < shards, "host {i} assigned to shard {s}, but only {shards} exist");
        }
        Partition { shards, bridge_shard, host_shard }
    }

    /// Node `i` (bridges and hosts independently) to shard `i mod
    /// shards` — locality-free, cuts aggressively.
    pub fn round_robin(bridges: usize, hosts: usize, shards: usize) -> Self {
        Partition::new(
            shards,
            (0..bridges).map(|i| i % shards).collect(),
            (0..hosts).map(|i| i % shards).collect(),
        )
    }

    /// The fat-tree partition: pod `p` (its `k/2` edge and `k/2`
    /// aggregation switches plus all hosts racked under them) goes to
    /// shard `p·shards/k`; core switch `c` goes to shard
    /// `c·shards/(k/2)²`. Both are contiguous block assignments, so
    /// shard populations differ by at most one pod.
    ///
    /// Rack-local host↔edge links are intra-shard by construction —
    /// the property `tests` below pin — so only fabric links
    /// (edge↔aggregation across nothing, aggregation↔core across pod
    /// boundaries) are ever cut.
    ///
    /// `hosts` is the number of hosts actually attached (rack-major,
    /// `hosts_per_edge` per rack), which may undershoot capacity.
    ///
    /// # Panics
    /// If `shards` exceeds the pod count `k` (some shard would own
    /// nothing) or `hosts` exceeds the fabric's capacity.
    pub fn rack_major(ft: &FatTree, hosts_per_edge: usize, hosts: usize, shards: usize) -> Self {
        assert!(shards >= 1, "a partition needs at least one shard");
        assert!(
            shards <= ft.k,
            "rack-major partition of a k={} fat-tree supports at most {} shards (one pod each)",
            ft.k,
            ft.k
        );
        assert!(hosts <= ft.host_capacity(hosts_per_edge), "more hosts than the fabric racks");
        let bridges = ft.core.len() + ft.aggregation.len() + ft.edge.len();
        let mut bridge_shard = vec![0usize; bridges];
        for (c, &ix) in ft.core.iter().enumerate() {
            bridge_shard[ix.0] = c * shards / ft.core.len();
        }
        let half = ft.k / 2;
        for pod in 0..ft.k {
            let shard = pod * shards / ft.k;
            for j in 0..half {
                bridge_shard[ft.aggregation[pod * half + j].0] = shard;
                bridge_shard[ft.edge[pod * half + j].0] = shard;
            }
        }
        let host_shard =
            (0..hosts).map(|h| bridge_shard[ft.edge_of_host(h, hosts_per_edge).0]).collect();
        Partition { shards, bridge_shard, host_shard }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Bridges covered.
    pub fn bridge_count(&self) -> usize {
        self.bridge_shard.len()
    }

    /// Hosts covered.
    pub fn host_count(&self) -> usize {
        self.host_shard.len()
    }

    /// The shard bridge `ix` lives in.
    pub fn bridge_shard(&self, ix: BridgeIx) -> usize {
        self.bridge_shard[ix.0]
    }

    /// The shard host `host` (attachment index) lives in.
    pub fn host_shard(&self, host: usize) -> usize {
        self.host_shard[host]
    }

    /// Flatten into the global-node-id assignment the sharded builder
    /// consumes: bridges first (declaration order), then hosts
    /// (attachment order) — the exact id order
    /// [`crate::TopoBuilder::build`] assigns.
    pub fn assignment(&self) -> Vec<usize> {
        self.bridge_shard.iter().chain(self.host_shard.iter()).copied().collect()
    }

    /// How many nodes (bridges + hosts) each shard owns.
    pub fn shard_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.shards];
        for &s in self.bridge_shard.iter().chain(self.host_shard.iter()) {
            sizes[s] += 1;
        }
        sizes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{BridgeKind, TopoBuilder};
    use crate::generic;
    use arppath::ArpPathConfig;

    /// The satellite contract: every node is assigned exactly once (the
    /// flattened assignment covers each node id with exactly one shard,
    /// all in range) and rack-local host↔edge links stay intra-shard.
    #[test]
    fn rack_major_covers_every_node_once_and_keeps_racks_local() {
        // The k=16 row is E12's geometry: 8 shards of two pods each.
        for (k, hosts_per_edge, shards) in [(4, 2, 2), (4, 4, 4), (6, 3, 3), (8, 2, 4), (16, 2, 8)]
        {
            let mut t = TopoBuilder::new(BridgeKind::ArpPath(ArpPathConfig::default()));
            let ft = generic::fat_tree(&mut t, k);
            let hosts = ft.host_capacity(hosts_per_edge);
            let p = Partition::rack_major(&ft, hosts_per_edge, hosts, shards);

            // Exactly one entry per node, every entry a real shard.
            assert_eq!(p.bridge_count(), t.bridge_count(), "k={k}");
            assert_eq!(p.host_count(), hosts, "k={k}");
            let flat = p.assignment();
            assert_eq!(flat.len(), t.bridge_count() + hosts, "k={k}");
            assert!(flat.iter().all(|&s| s < shards), "k={k}: shard out of range");
            assert_eq!(p.shard_sizes().iter().sum::<usize>(), flat.len(), "k={k}");
            assert!(p.shard_sizes().iter().all(|&n| n > 0), "k={k}: an empty shard");

            // Rack-locality: every host shares its edge switch's shard.
            for h in 0..hosts {
                let edge = ft.edge_of_host(h, hosts_per_edge);
                assert_eq!(
                    p.host_shard(h),
                    p.bridge_shard(edge),
                    "k={k}: host {h} split from its rack"
                );
            }
            // Pods are atomic: an edge and every aggregation switch of
            // its pod agree.
            let half = k / 2;
            for pod in 0..k {
                let shard = p.bridge_shard(ft.edge[pod * half]);
                for j in 0..half {
                    assert_eq!(p.bridge_shard(ft.edge[pod * half + j]), shard);
                    assert_eq!(p.bridge_shard(ft.aggregation[pod * half + j]), shard);
                }
            }
        }
    }

    /// The full grid the differential fuzzer draws from — k ∈ {4, 6, 8}
    /// × shards ∈ {2, 3, 4} × full and partial racks — holding the two
    /// invariants the sharded engine's lookahead depends on:
    ///
    /// 1. **Host↔edge links are never cut** (they carry the smallest
    ///    propagation delays in the fabric; cutting one would collapse
    ///    the lookahead to the host-link delay).
    /// 2. **Pods are atomic**: all edge and aggregation switches of a
    ///    pod, and every host racked under them, share one shard — so
    ///    the only cut links are aggregation↔core.
    #[test]
    fn rack_major_grid_never_cuts_racks_and_keeps_pods_atomic() {
        for k in [4usize, 6, 8, 16] {
            for shards in [2usize, 3, 4] {
                for hosts_per_edge in [1usize, 2] {
                    let mut t = TopoBuilder::new(BridgeKind::ArpPath(ArpPathConfig::default()));
                    let ft = generic::fat_tree(&mut t, k);
                    let capacity = ft.host_capacity(hosts_per_edge);
                    // Full racks, and a partial attachment one rack shy.
                    for hosts in [capacity, capacity - hosts_per_edge] {
                        let p = Partition::rack_major(&ft, hosts_per_edge, hosts, shards);
                        let ctx =
                            format!("k={k} shards={shards} hpe={hosts_per_edge} hosts={hosts}");

                        // (1) Host↔edge links intra-shard, every host.
                        for h in 0..hosts {
                            let edge = ft.edge_of_host(h, hosts_per_edge);
                            assert_eq!(
                                p.host_shard(h),
                                p.bridge_shard(edge),
                                "{ctx}: host {h}↔edge link cut"
                            );
                        }

                        // (2) Pod atomicity, switches and hosts alike.
                        let half = k / 2;
                        for pod in 0..k {
                            let shard = p.bridge_shard(ft.edge[pod * half]);
                            for j in 0..half {
                                assert_eq!(
                                    p.bridge_shard(ft.edge[pod * half + j]),
                                    shard,
                                    "{ctx}: pod {pod} edge {j} strayed"
                                );
                                assert_eq!(
                                    p.bridge_shard(ft.aggregation[pod * half + j]),
                                    shard,
                                    "{ctx}: pod {pod} aggregation {j} strayed"
                                );
                            }
                        }
                        for h in 0..hosts {
                            let pod = ft.pod_of_host(h, hosts_per_edge);
                            assert_eq!(
                                p.host_shard(h),
                                p.bridge_shard(ft.edge[pod * half]),
                                "{ctx}: host {h} split from pod {pod}"
                            );
                        }

                        // Structural sanity: total coverage, no empty
                        // shard, and contiguous-block balance (shard
                        // populations within one pod + its racks).
                        let flat = p.assignment();
                        assert_eq!(flat.len(), t.bridge_count() + hosts, "{ctx}");
                        assert!(flat.iter().all(|&s| s < shards), "{ctx}: shard out of range");
                        let sizes = p.shard_sizes();
                        assert!(sizes.iter().all(|&n| n > 0), "{ctx}: an empty shard");
                        let pod_weight = 2 * half + half * hosts_per_edge;
                        let (max, min) =
                            (*sizes.iter().max().unwrap(), *sizes.iter().min().unwrap());
                        assert!(
                            max - min <= 2 * pod_weight,
                            "{ctx}: shard sizes {sizes:?} drift beyond a pod's weight"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn round_robin_spreads_and_covers() {
        let p = Partition::round_robin(7, 5, 3);
        assert_eq!(p.assignment().len(), 12);
        assert_eq!(p.shard_sizes(), vec![5, 4, 3]);
        assert_eq!(p.bridge_shard(BridgeIx(4)), 1);
        assert_eq!(p.host_shard(4), 1);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn rack_major_rejects_more_shards_than_pods() {
        let mut t = TopoBuilder::new(BridgeKind::ArpPath(ArpPathConfig::default()));
        let ft = generic::fat_tree(&mut t, 4);
        let _ = Partition::rack_major(&ft, 2, 16, 5);
    }

    #[test]
    #[should_panic(expected = "only 2 exist")]
    fn explicit_assignment_is_range_checked() {
        let _ = Partition::new(2, vec![0, 1, 2], vec![]);
    }
}
