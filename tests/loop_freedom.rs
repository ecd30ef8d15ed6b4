//! Property: ARP-Path flooding is loop-free on arbitrary connected
//! topologies — the paper's claim that no spanning tree is needed to
//! prevent broadcast storms (§1, §2.1).
//!
//! A plain learning switch on the same cyclic graphs *does* storm,
//! which is asserted too (the property is meaningful, not vacuous).

use arppath::ArpPathConfig;
use arppath_host::{PingConfig, PingHost};
use arppath_netsim::{SimDuration, SimTime};
use arppath_topo::{generic, BridgeKind, TopoBuilder};
use arppath_wire::MacAddr;
use std::net::Ipv4Addr;

fn ip(i: u32) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, (i >> 8) as u8, (i & 0xff) as u8)
}

/// Build a topology with `topo` (which returns the two bridge indices
/// to attach hosts at), run the standard 3-ping broadcast workload to
/// `horizon_ms`, and return total frames transmitted and probes
/// delivered. Shared by the random-graph and fat-tree properties so
/// the workload shape cannot silently diverge between them.
fn run_ping_workload(
    kind: BridgeKind,
    horizon_ms: u64,
    topo: impl FnOnce(&mut TopoBuilder) -> (arppath_topo::BridgeIx, arppath_topo::BridgeIx),
) -> (u64, u64) {
    let mut t = TopoBuilder::new(kind);
    let (at_p, at_r) = topo(&mut t);
    let prober = PingHost::new(
        "p",
        MacAddr::from_index(1, 1),
        ip(1),
        1,
        PingConfig {
            target: ip(2),
            start_at: SimDuration::millis(5),
            interval: SimDuration::millis(10),
            count: 3,
            ..Default::default()
        },
    );
    let responder = PingHost::new("r", MacAddr::from_index(1, 2), ip(2), 2, PingConfig::default());
    let p = t.host(at_p, Box::new(prober));
    t.host(at_r, Box::new(responder));
    let mut built = t.build();
    built.net.run_until(SimTime(SimDuration::millis(horizon_ms).as_nanos()));
    let prober = built.net.device::<PingHost>(built.host_nodes[p]);
    (built.net.stats().frames_sent, prober.received)
}

/// The workload across a random cyclic graph, hosts on the first and
/// last bridges.
fn run_broadcast_workload(kind: BridgeKind, seed: u64, horizon_ms: u64) -> (u64, u64) {
    run_ping_workload(kind, horizon_ms, |t| {
        let bridges = generic::random_connected(t, 10, 8, seed);
        (bridges[0], *bridges.last().unwrap())
    })
}

#[test]
fn arppath_floods_terminate_on_random_cyclic_graphs() {
    for seed in [1, 7, 42, 1337, 9999] {
        let (frames, delivered) =
            run_broadcast_workload(BridgeKind::ArpPath(ArpPathConfig::default()), seed, 200);
        // 10 bridges × ~20 ports of hellos for 0.2 s plus one ARP flood
        // and 3 pings: a storm would be millions.
        assert!(frames < 20_000, "seed {seed}: {frames} frames smells like a broadcast storm");
        assert_eq!(delivered, 3, "seed {seed}: pings must complete");
    }
}

#[test]
fn learning_switch_storms_on_the_same_graphs() {
    // The control: identical topology, no loop protection. The single
    // broadcast ARP request multiplies forever.
    let (frames, _) = run_broadcast_workload(
        BridgeKind::Learning,
        42,
        50, // even a short horizon melts
    );
    assert!(
        frames > 100_000,
        "expected a broadcast storm on a cyclic graph, saw only {frames} frames"
    );
}

/// Same broadcast workload on a k-ary fat-tree: hosts on the first and
/// last edge switches. Returns (frames transmitted, probes delivered).
fn run_fat_tree_workload(kind: BridgeKind, k: usize, horizon_ms: u64) -> (u64, u64) {
    run_ping_workload(kind, horizon_ms, |t| {
        let ft = generic::fat_tree(t, k);
        (ft.edge[0], *ft.edge.last().unwrap())
    })
}

#[test]
fn arppath_floods_terminate_on_fat_trees() {
    // Fat-trees are dense with short cycles (edge–agg–edge triangles
    // via any two aggregation switches), the classic storm substrate.
    for k in [2, 4, 6] {
        let (frames, delivered) =
            run_fat_tree_workload(BridgeKind::ArpPath(ArpPathConfig::default()), k, 200);
        let bound = 60_000 * k as u64; // hellos scale with port count
        assert!(frames < bound, "k={k}: {frames} frames smells like a broadcast storm");
        assert_eq!(delivered, 3, "k={k}: pings must complete across the fabric");
    }
}

#[test]
fn learning_switch_storms_on_fat_trees_too() {
    // The control again: the same k=4 fabric with no loop protection
    // melts down on the very first broadcast.
    let (frames, _) = run_fat_tree_workload(BridgeKind::Learning, 4, 50);
    assert!(frames > 100_000, "expected a storm on the k=4 fat-tree, saw {frames} frames");
}

#[test]
fn no_duplicate_delivery_to_hosts() {
    // Loop-freedom also means a host sees one copy of each flood, not
    // several: responder's stack counts every ARP request heard.
    let mut t = TopoBuilder::new(BridgeKind::ArpPath(ArpPathConfig::default()));
    let bridges = generic::ring(&mut t, 6);
    let prober = PingHost::new(
        "p",
        MacAddr::from_index(1, 1),
        ip(1),
        1,
        PingConfig {
            target: ip(2),
            start_at: SimDuration::millis(5),
            interval: SimDuration::millis(10),
            count: 1,
            ..Default::default()
        },
    );
    let responder = PingHost::new("r", MacAddr::from_index(1, 2), ip(2), 2, PingConfig::default());
    t.host(bridges[0], Box::new(prober));
    let r = t.host(bridges[3], Box::new(responder));
    let mut built = t.build();
    built.net.run_until(SimTime(SimDuration::millis(100).as_nanos()));
    let responder = built.net.device::<PingHost>(built.host_nodes[r]);
    // Exactly one ARP reply sent: the request arrived exactly once
    // (a second copy would re-trigger the reply path).
    assert_eq!(responder.stack.counters().arp_replies_tx, 1);
}
