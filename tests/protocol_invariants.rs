//! Property-based protocol invariants, driven by proptest over random
//! topologies and workload interleavings.

use arppath::{ArpPathBridge, ArpPathConfig};
use arppath_host::{PingConfig, PingHost};
use arppath_netsim::{Ctx, NodeId, PortNo, SimDuration, SimTime};
use arppath_switch::SwitchLogic;
use arppath_topo::{generic, BridgeIx, BridgeKind, TopoBuilder};
use arppath_wire::{EthernetFrame, MacAddr, PathCtl, Payload};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn ip(i: u32) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, (i >> 8) as u8, (i & 0xff) as u8)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// On any connected random graph, any pair of hosts can complete a
    /// ping exchange — discovery works regardless of where the race's
    /// ties fall — and the network never storms.
    #[test]
    fn any_pair_communicates_on_any_connected_graph(
        seed in 0u64..1000,
        n in 4usize..12,
        extra in 0usize..8,
        a_ix in 0usize..12,
        b_ix in 0usize..12,
    ) {
        let a_ix = a_ix % n;
        let b_ix = b_ix % n;
        prop_assume!(a_ix != b_ix);
        let mut t = TopoBuilder::new(BridgeKind::ArpPath(ArpPathConfig::default()));
        let bridges = generic::random_connected(&mut t, n, extra, seed);
        let prober = PingHost::new(
            "p",
            MacAddr::from_index(1, 1),
            ip(1),
            1,
            PingConfig {
                target: ip(2),
                start_at: SimDuration::millis(5),
                interval: SimDuration::millis(10),
                count: 2,
                ..Default::default()
            },
        );
        let responder =
            PingHost::new("r", MacAddr::from_index(1, 2), ip(2), 2, PingConfig::default());
        let p = t.host(bridges[a_ix], Box::new(prober));
        t.host(bridges[b_ix], Box::new(responder));
        let mut built = t.build();
        built.net.run_until(SimTime(SimDuration::millis(100).as_nanos()));
        let prober = built.net.device::<PingHost>(built.host_nodes[p]);
        prop_assert_eq!(prober.received, 2, "pings must complete (seed {})", seed);
        prop_assert!(
            built.net.stats().frames_sent < 50_000,
            "storm: {} frames", built.net.stats().frames_sent
        );
    }

    /// A bounded table never exceeds its capacity, whatever traffic
    /// arrives: host ARP Requests and repair PathRequests (`Some` wave
    /// nonce) alike.
    #[test]
    fn bounded_table_never_overflows(
        events in proptest::collection::vec((0u32..20, 0usize..4, any::<Option<u32>>()), 1..200),
        cap in 1usize..8,
    ) {
        let mut bridge = ArpPathBridge::new(
            "b",
            MacAddr::from_index(2, 1),
            4,
            ArpPathConfig::default().with_table_capacity(cap),
        );
        let ports_up = [true; 4];
        let mut now = SimTime::ZERO;
        for (host, port, wave) in events {
            now += SimDuration::micros(10);
            let src = MacAddr::from_index(1, host + 1);
            let frame = match wave {
                None => {
                    let arp = arppath_wire::ArpPacket::request(src, ip(host + 1), ip(99));
                    EthernetFrame::arp_request(src, arp)
                }
                Some(nonce) => {
                    let dst = MacAddr::from_index(1, 99);
                    let req = PathCtl::request(src, dst, MacAddr::from_index(2, 50), nonce);
                    EthernetFrame::new(MacAddr::BROADCAST, src, Payload::PathCtl(req))
                }
            };
            let mut commands = Vec::new();
            bridge.on_frame(
                PortNo(port),
                frame,
                &mut Ctx::new(now, NodeId(0), &ports_up, &mut commands),
            );
            prop_assert!(
                bridge.table_len() <= cap,
                "table grew to {} with cap {}", bridge.table_len(), cap
            );
        }
    }

    /// The bridge never panics on arbitrary (decodable) frames: random
    /// byte payloads, random src/dst classes, random ports.
    #[test]
    fn bridge_is_total_over_arbitrary_frames(
        frames in proptest::collection::vec(
            (any::<[u8; 6]>(), any::<[u8; 6]>(), any::<u16>(),
             proptest::collection::vec(any::<u8>(), 0..64), 0usize..4),
            1..64,
        ),
    ) {
        let mut bridge =
            ArpPathBridge::new("b", MacAddr::from_index(2, 1), 4, ArpPathConfig::default());
        let ports_up = [true; 4];
        let mut now = SimTime::ZERO;
        for (dst, src, ethertype, data, port) in frames {
            now += SimDuration::micros(1);
            let frame = EthernetFrame::new(
                MacAddr(dst),
                MacAddr(src),
                arppath_wire::Payload::Raw {
                    ethertype: arppath_wire::EtherType(ethertype | 0x0600),
                    data: bytes::Bytes::from(data),
                },
            );
            let mut commands = Vec::new();
            let mut ctx = Ctx::new(now, NodeId(0), &ports_up, &mut commands);
            bridge.on_frame(PortNo(port), frame, &mut ctx);
            // Outputs never echo out the ingress port.
            for (p, _) in commands.iter().filter_map(|c| c.as_send()) {
                prop_assert_ne!(p.0, port, "frame reflected to its ingress");
            }
        }
    }
}

/// Path symmetry: after an ARP exchange, the chain of entries for S
/// and for D traverse the same bridges (the paper: "ARP-Path only
/// establishes symmetric paths").
#[test]
fn established_paths_are_symmetric() {
    for seed in [2, 13, 99] {
        let n = 8;
        let mut t = TopoBuilder::new(BridgeKind::ArpPath(ArpPathConfig::default()));
        let bridges = generic::random_connected(&mut t, n, 5, seed);
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
        let responder =
            PingHost::new("r", MacAddr::from_index(1, 2), ip(2), 2, PingConfig::default());
        t.host(bridges[0], Box::new(prober));
        t.host(bridges[n - 1], Box::new(responder));
        let mut built = t.build();
        built.net.run_until(SimTime(SimDuration::millis(50).as_nanos()));
        let now = built.net.now();
        let s = MacAddr::from_index(1, 1);
        let d = MacAddr::from_index(1, 2);
        // Walk the D-chain from S's edge bridge and the S-chain from
        // D's edge bridge; they must visit the same bridge set.
        let walk = |from: usize, target: MacAddr| -> Vec<usize> {
            let mut visited = vec![from];
            let mut cur = from;
            for _ in 0..n {
                let Some(e) = built.arppath(BridgeIx(cur)).entry_of(target, now) else {
                    break;
                };
                // Find the link out of `cur` on that port.
                let next = built.bridge_links.iter().find_map(|&l| {
                    let lk = built.net.link(l);
                    let cur_node = built.bridge_nodes[cur];
                    if lk.a.node == cur_node && lk.a.port == e.port {
                        built.bridge_nodes.iter().position(|&x| x == lk.b.node)
                    } else if lk.b.node == cur_node && lk.b.port == e.port {
                        built.bridge_nodes.iter().position(|&x| x == lk.a.node)
                    } else {
                        None
                    }
                });
                match next {
                    Some(nx) => {
                        visited.push(nx);
                        cur = nx;
                    }
                    None => break, // reached the host port
                }
            }
            visited
        };
        let fwd = walk(0, d); // S's edge, following D entries
        let mut rev = walk(n - 1, s); // D's edge, following S entries
        rev.reverse();
        assert_eq!(fwd, rev, "seed {seed}: forward and reverse paths must coincide");
        assert!(fwd.len() >= 2, "seed {seed}: path must actually cross the fabric");
    }
}
