//! Workspace-level properties of the E8 fat-tree workload: every host
//! pair's learned path traverses the fabric's edge/aggregation/core
//! layers legally and reaches the destination's rack, and the whole
//! experiment — seeded topology jitter, seeded pairings, simulation,
//! rendered tables — is a pure function of its parameters.
//!
//! Structural caveat the properties respect: with 1–10 µs link jitter
//! the *fastest* path may legitimately detour (a chain of cheap links
//! can beat one expensive uplink), so arbitrary seeds get structural
//! assertions (legal layer adjacency, core required to change pods),
//! while the canonical 1/3/5-hop shapes are pinned on E8's default
//! seed, where the walk is deterministic forever.

use arppath::ArpPathConfig;
use arppath_bench::experiments::e8_fattree::{self, E8Params, PathWalker};
use arppath_bench::experiments::{host_ip, host_mac};
use arppath_host::{pairings, TrafficConfig, TrafficHost, TrafficPattern};
use arppath_netsim::{SimDuration, SimTime};
use arppath_topo::{generic, BridgeIx, BridgeKind, BuiltTopology, TopoBuilder};
use proptest::prelude::*;

const K: usize = 4;
const HOSTS_PER_EDGE: usize = 2;

struct World {
    built: BuiltTopology,
    ft: generic::FatTree,
    pairs: Vec<usize>,
}

/// Build a jittered k=4 fabric with `hosts_per_edge` stations on every
/// edge, run a permutation workload to completion, and hand back the
/// learned state.
fn run_workload(seed: u64, hosts_per_edge: usize) -> World {
    let mut t = TopoBuilder::new(BridgeKind::ArpPath(ArpPathConfig::default()));
    let ft = generic::fat_tree_jittered(&mut t, K, seed);
    let n = ft.host_capacity(hosts_per_edge);
    let pairs = pairings(n, TrafficPattern::Permutation, seed);
    for (i, &dst) in pairs.iter().enumerate() {
        let id = (i + 1) as u32;
        let cfg = TrafficConfig {
            target: host_ip((dst + 1) as u32),
            start_at: SimDuration::millis(100) + SimDuration::micros(137 * i as u64),
            interval: SimDuration::millis(5),
            count: 3,
            ..Default::default()
        };
        let host = TrafficHost::new(format!("h{id}"), host_mac(id), host_ip(id), cfg);
        t.host(ft.edge_of_host(i, hosts_per_edge), Box::new(host));
    }
    let mut built = t.build();
    built.net.run_until(SimTime(SimDuration::millis(400).as_nanos()));
    World { built, ft, pairs }
}

/// Layer of a bridge within the fat-tree, for adjacency checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    Edge,
    Agg,
    Core,
}

fn layer_of(ft: &generic::FatTree, b: BridgeIx) -> Layer {
    if ft.is_core(b) {
        Layer::Core
    } else if ft.is_aggregation(b) {
        Layer::Agg
    } else {
        assert!(ft.is_edge(b), "bridge {b:?} in no fat-tree layer");
        Layer::Edge
    }
}

fn check_structure(w: &World, seed: u64) {
    let now = w.built.net.now();
    let walker = PathWalker::new(&w.built);
    for (i, &d) in w.pairs.iter().enumerate() {
        let src_edge = w.ft.edge_of_host(i, HOSTS_PER_EDGE);
        let dst_edge = w.ft.edge_of_host(d, HOSTS_PER_EDGE);
        let path = walker.walk(src_edge, host_mac((d + 1) as u32), now);

        // The learned chain must run all the way to the peer's rack.
        assert_eq!(
            *path.last().unwrap(),
            dst_edge,
            "seed {seed}: pair {i}→{d} resolves to {:?}, not its rack switch",
            path.last()
        );
        // No bridge twice: the walk is a simple path.
        let mut uniq: Vec<usize> = path.iter().map(|b| b.0).collect();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), path.len(), "seed {seed}: pair {i}→{d} path revisits a bridge");

        // Legal layer adjacency: edge↔agg and agg↔core only (no
        // edge↔edge, edge↔core, core↔core hops exist in a fat-tree).
        for hop in path.windows(2) {
            let (a, b) = (layer_of(&w.ft, hop[0]), layer_of(&w.ft, hop[1]));
            let legal = matches!(
                (a, b),
                (Layer::Edge, Layer::Agg)
                    | (Layer::Agg, Layer::Edge)
                    | (Layer::Agg, Layer::Core)
                    | (Layer::Core, Layer::Agg)
            );
            assert!(legal, "seed {seed}: pair {i}→{d} hops {a:?}→{b:?}");
        }

        // Changing pods requires crossing the core layer; staying in
        // the rack requires no fabric hop at all.
        let cores = path.iter().filter(|&&b| w.ft.is_core(b)).count();
        if src_edge == dst_edge {
            assert_eq!(path.len(), 1, "seed {seed}: rack-local pair {i}→{d} left the rack");
        } else if w.ft.pod_of_host(i, HOSTS_PER_EDGE) != w.ft.pod_of_host(d, HOSTS_PER_EDGE) {
            assert!(cores >= 1, "seed {seed}: inter-pod pair {i}→{d} avoided the core: {path:?}");
        }
        // Canonical minimum hop counts (1 rack-local, 3 intra-pod, 5
        // inter-pod) — jitter can only lengthen a path, never shorten.
        let min_len = if src_edge == dst_edge {
            1
        } else if w.ft.pod_of_host(i, HOSTS_PER_EDGE) == w.ft.pod_of_host(d, HOSTS_PER_EDGE) {
            3
        } else {
            5
        };
        assert!(
            path.len() >= min_len,
            "seed {seed}: pair {i}→{d} path {path:?} shorter than physically possible"
        );
    }
}

/// All traffic is delivered: 3 datagrams per sender, lossless fabric.
fn check_delivery(w: &World, seed: u64) {
    let mut sent = 0u64;
    let mut delivered = 0u64;
    for &h in &w.built.host_nodes {
        let host = w.built.net.device::<TrafficHost>(h);
        sent += host.sent();
        delivered += host.rx_datagrams;
    }
    assert_eq!(sent, 3 * w.pairs.len() as u64, "seed {seed}: a sender stalled");
    assert_eq!(delivered, sent, "seed {seed}: datagrams lost");
}

/// On E8's default seed the walk shapes are exactly canonical — pinned
/// so a protocol or topology regression that reroutes paths shows up.
#[test]
fn default_seed_paths_are_canonical() {
    let seed = E8Params::default().seed;
    let w = run_workload(seed, HOSTS_PER_EDGE);
    let now = w.built.net.now();
    check_structure(&w, seed);
    check_delivery(&w, seed);
    let walker = PathWalker::new(&w.built);
    for (i, &d) in w.pairs.iter().enumerate() {
        let src_edge = w.ft.edge_of_host(i, HOSTS_PER_EDGE);
        let dst_edge = w.ft.edge_of_host(d, HOSTS_PER_EDGE);
        let path = walker.walk(src_edge, host_mac((d + 1) as u32), now);
        let expect = if src_edge == dst_edge {
            1
        } else if w.ft.pod_of_host(i, HOSTS_PER_EDGE) == w.ft.pod_of_host(d, HOSTS_PER_EDGE) {
            3
        } else {
            5
        };
        assert_eq!(path.len(), expect, "default seed: pair {i}→{d} took a detour: {path:?}");
    }
}

/// The builder-derived d-left geometry (TopoBuilder autosizes ARP-Path
/// tables from the declared host count; no E8/E9 scenario sizes one
/// by hand) must absorb the full station load of the fabric with zero
/// bucket-overflow evictions, and be the smallest geometry with 2× slot
/// headroom. 40 stations per edge make 320, above the 256 the 512-slot
/// floor would hold at 50 % load, so the floor cannot satisfy the rule
/// on its behalf.
#[test]
fn autosized_tables_fit_the_fabric_with_zero_evictions() {
    let w = run_workload(E8Params::default().seed, 40);
    let stations = w.pairs.len();
    assert_eq!(stations, 320);
    for b in 0..w.built.bridge_nodes.len() {
        let bridge = w.built.arppath(BridgeIx(b));
        assert_eq!(
            bridge.table_evictions(),
            0,
            "bridge {b}: autosized geometry evicted a live path entry"
        );
        let capacity = bridge.table_slot_capacity();
        assert_eq!(capacity, 8 << arppath_switch::bucket_bits_for(stations), "bridge {b}");
        assert!(
            (2 * stations..4 * stations).contains(&capacity),
            "bridge {b}: {capacity} slots for {stations} stations is not the smallest \
             geometry with 2× headroom"
        );
        // Core bridges learn every station; nobody learns more.
        assert!(
            bridge.table_len() <= stations,
            "bridge {b}: table holds {} entries for {stations} stations",
            bridge.table_len()
        );
    }
}

/// Same parameters ⇒ byte-identical tables, twice over: the topology
/// jitter, the pairings, the simulation and the rendering are all pure
/// functions of `E8Params`.
#[test]
fn e8_is_seed_deterministic() {
    let params = E8Params { k: 4, hosts_per_edge: 2, datagrams: 3, ..Default::default() };
    let a = e8_fattree::run(&params);
    let b = e8_fattree::run(&params);
    assert_eq!(
        e8_fattree::table(std::slice::from_ref(&a)).render_markdown(),
        e8_fattree::table(std::slice::from_ref(&b)).render_markdown(),
        "summary table must be identical run-to-run"
    );
    assert_eq!(
        e8_fattree::utilization_table(&a).render_markdown(),
        e8_fattree::utilization_table(&b).render_markdown(),
        "utilization table must be identical run-to-run"
    );
    // Both patterns get a load-table row with a core-load fairness.
    let patterns: Vec<&str> = a.rows.iter().map(|r| r.pattern).collect();
    assert_eq!(patterns, ["permutation", "hotspot"]);
    for r in &a.rows {
        assert!(r.hosts > 0 && r.core_links > 0, "{}: empty row", r.pattern);
        assert!((0.0..=1.0).contains(&r.jain_core), "{}: jain {}", r.pattern, r.jain_core);
    }
    // And the pair assignment itself reacts to the seed.
    let n = 16;
    assert_ne!(
        pairings(n, TrafficPattern::Permutation, 1),
        pairings(n, TrafficPattern::Permutation, 2),
        "different seeds must give different workloads"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Arbitrary seeds: every pair resolves through legal
    /// edge/aggregation/core structure and nothing is lost.
    #[test]
    fn any_seed_resolves_through_the_layers(seed in 0u64..1_000_000) {
        let w = run_workload(seed, HOSTS_PER_EDGE);
        check_structure(&w, seed);
        check_delivery(&w, seed);
    }
}
