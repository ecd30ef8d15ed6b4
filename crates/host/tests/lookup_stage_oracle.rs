//! `HostStack::lookup_stage` drops exactly the frames `handle_frame`
//! would only count as ignored.
//!
//! Two stacks step in lockstep through one seeded frame sequence. One
//! does what the engine does for a host device: it asks `lookup_stage`
//! first and calls `handle_frame` only on `Callback`. The other
//! only ever calls `handle_frame`. After every step both must have
//! issued the same commands, returned the same upcall and hold the same
//! `HostCounters`. `handle_frame` filters through `lookup_stage` itself, so
//! the lockstep alone cannot see a filter that is wrong in both; each
//! frame's verdict is also checked against the receive rule as the
//! generator built the frame: a frame for our MAC or a group, carrying
//! ARP or IPv4 for our IP, is for us, and nothing else is. The sequence
//! covers the NIC filter (our MAC, another host's, broadcast,
//! multicast), ARP requests and replies for us and for others, UDP and
//! ICMP for us and for others, a corrupt datagram, path-control frames
//! and unknown EtherTypes, with the stack sending now and then so that
//! replies drain parked packets.

use arppath_host::HostStack;
use arppath_netsim::{Ctx, NodeId, SimDuration, SimTime, Verdict};
use arppath_wire::{
    ArpPacket, EtherType, EthernetFrame, IcmpEcho, IpProto, Ipv4Packet, MacAddr, PathCtl, Payload,
    UdpDatagram,
};
use bytes::Bytes;
use std::net::Ipv4Addr;

const STEPS: usize = 20_000;

/// splitmix64: a seeded, dependency-free frame source.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn mac(i: u32) -> MacAddr {
    MacAddr::from_index(1, i)
}

fn ip(i: u32) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, i as u8)
}

/// Host 1 runs the stacks; hosts 2–4 are its peers.
const ME: u32 = 1;

/// A frame, and whether it is for us by the stack's receive rule.
fn next_frame(rng: &mut Rng) -> (EthernetFrame, bool) {
    let peer = 2 + rng.below(3) as u32;
    // Addressed to us, to a peer, or to a group.
    let nic = rng.below(4);
    let dst = match nic {
        0 => mac(peer),
        1 => MacAddr::BROADCAST,
        2 => MacAddr([0x01, 0x00, 0x5e, 0, 0, 1]),
        _ => mac(ME),
    };
    // About us, or about another host.
    let target = if rng.below(2) == 0 { ME } else { 2 + rng.below(3) as u32 };
    let ipv4 = |proto, payload: Bytes| {
        Payload::Ipv4(Ipv4Packet::new(ip(peer), ip(target), proto, payload))
    };
    let kind = rng.below(8);
    let payload = match kind {
        0 | 1 => Payload::Arp(ArpPacket::request(mac(peer), ip(peer), ip(target))),
        2 => {
            let req = ArpPacket::request(mac(target), ip(target), ip(peer));
            Payload::Arp(ArpPacket::reply_to(&req, mac(peer), ip(peer)))
        }
        3 => ipv4(IpProto::Udp, UdpDatagram::encode(7, 7, b"segment")),
        4 => ipv4(IpProto::Icmp, IcmpEcho::encode(rng.below(2) == 0, 9, 1, b"probe")),
        // A datagram whose UDP header does not parse.
        5 => ipv4(IpProto::Udp, Bytes::from_static(b"\x00")),
        6 => Payload::PathCtl(PathCtl::request(mac(peer), mac(target), mac(9), 1)),
        _ => Payload::Raw { ethertype: EtherType(0x88B6), data: vec![0u8; 46].into() },
    };
    // Every ARP and IPv4 payload above (kinds 0–5) is about `target`.
    let for_us = nic != 0 && kind <= 5 && target == ME;
    (EthernetFrame::new(dst, mac(peer), payload), for_us)
}

#[test]
fn lookup_stage_then_handle_frame_equals_handle_frame_alone() {
    for seed in [1u64, 2, 3] {
        let mut fast = HostStack::new(mac(ME), ip(ME));
        let mut oracle = HostStack::new(mac(ME), ip(ME));
        let ports_up = [true];
        let (mut fast_cmds, mut oracle_cmds) = (Vec::new(), Vec::new());
        let mut rng = Rng(seed);
        let mut now = SimTime::ZERO;
        let (mut dropped, mut passed) = (0, 0);
        for step in 0..STEPS {
            now += SimDuration::micros(rng.below(100));
            if rng.below(16) == 0 {
                // Park a datagram for a peer, so a reply has work to do.
                let to = ip(2 + rng.below(3) as u32);
                for (stack, cmds) in [(&mut fast, &mut fast_cmds), (&mut oracle, &mut oracle_cmds)]
                {
                    let mut ctx = Ctx::new(now, NodeId(0), &ports_up, cmds);
                    stack.send_udp(to, 7, 7, b"parked", &mut ctx);
                }
            }
            let (frame, for_us) = next_frame(&mut rng);
            let settled = match fast.lookup_stage(&frame) {
                Verdict::Dropped => true,
                Verdict::Callback => false,
                Verdict::Forward(port) => panic!("a host forwarded to {port:?}: {frame:?}"),
            };
            assert_eq!(settled, !for_us, "seed {seed} step {step}: {frame:?}");
            let fast_up = if settled {
                dropped += 1;
                None
            } else {
                passed += 1;
                let mut ctx = Ctx::new(now, NodeId(0), &ports_up, &mut fast_cmds);
                fast.handle_frame(frame.clone(), &mut ctx)
            };
            let mut ctx = Ctx::new(now, NodeId(0), &ports_up, &mut oracle_cmds);
            let oracle_up = oracle.handle_frame(frame.clone(), &mut ctx);

            let at = format!("seed {seed} step {step}: {frame:?}");
            assert_eq!(fast_up, oracle_up, "upcall, {at}");
            assert_eq!(format!("{fast_cmds:?}"), format!("{oracle_cmds:?}"), "commands, {at}");
            assert_eq!(fast.counters(), oracle.counters(), "counters, {at}");
            assert_eq!(fast.pending_destinations(), oracle.pending_destinations(), "{at}");
            fast_cmds.clear();
            oracle_cmds.clear();
        }
        assert!(dropped > STEPS / 10, "only {dropped} of {STEPS} frames dropped in lookup_stage");
        assert!(passed > STEPS / 10, "only {passed} of {STEPS} frames reached handle_frame");
    }
}
