//! Hostile transport bytes at the host stack.
//!
//! The stack hands applications a [`bytes::Bytes::slice`] view of the
//! received datagram instead of a copy, so every length and offset it
//! slices by is read from the wire. Here IPv4 frames addressed to the
//! host carry a valid UDP datagram or ICMP echo reply that has been bit-
//! flipped (1–3 flips) and then truncated at every length. Whatever the
//! bytes, the stack must not panic, and each frame must end in exactly
//! one accounted outcome:
//!
//! * an [`Upcall`] whose payload shares the frame's IPv4 payload
//!   allocation (a view, never a copy);
//! * `ignored` raised by exactly one (the datagram was refused);
//! * or, for ICMP only, `echo_replies_tx` raised by exactly one: flips
//!   that turn the reply into a checksum-valid echo request get it
//!   answered by the stack, as a kernel would.

use arppath_host::{HostStack, Upcall};
use arppath_netsim::{Command, Ctx, NodeId, SimTime};
use arppath_wire::{EthernetFrame, IcmpEcho, IpProto, Ipv4Packet, MacAddr, Payload, UdpDatagram};
use bytes::Bytes;
use proptest::prelude::*;
use std::net::Ipv4Addr;

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn mangled_datagrams_yield_a_view_or_one_counted_refusal(
        icmp: bool,
        ports in (any::<u16>(), any::<u16>()),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 1..=3),
    ) {
        let (mac, ip) = (MacAddr::from_index(1, 1), Ipv4Addr::new(10, 0, 0, 1));
        let (peer_mac, peer_ip) = (MacAddr::from_index(1, 2), Ipv4Addr::new(10, 0, 0, 2));
        let (proto, wire) = if icmp {
            (IpProto::Icmp, IcmpEcho::encode(false, ports.0, ports.1, &payload))
        } else {
            (IpProto::Udp, UdpDatagram::encode(ports.0, ports.1, &payload))
        };
        let mut mangled = wire.to_vec();
        for (at, bit) in flips {
            let at = at % mangled.len();
            mangled[at] ^= 1 << bit;
        }
        let mangled = Bytes::from(mangled);

        let mut stack = HostStack::new(mac, ip);
        let ports_up = [true];
        let mut cmds: Vec<Command> = Vec::new();
        for len in 0..=mangled.len() {
            let transport = mangled.slice(..len);
            let pkt = Ipv4Packet::new(peer_ip, ip, proto, transport.clone());
            let frame = EthernetFrame::new(mac, peer_mac, Payload::Ipv4(pkt));
            let before = stack.counters();
            let mut ctx = Ctx::new(SimTime(0), NodeId(0), &ports_up, &mut cmds);
            let upcall = stack.handle_frame(frame, &mut ctx);
            let after = stack.counters();
            let ignored = after.ignored - before.ignored;
            let answered = after.echo_replies_tx - before.echo_replies_tx;
            match upcall {
                Some(Upcall::Udp { payload, .. }) | Some(Upcall::EchoReply { payload, .. }) => {
                    prop_assert!(
                        payload.shares_allocation_with(&transport),
                        "len {len}: the upcall payload is a copy, not a view"
                    );
                    prop_assert_eq!((ignored, answered), (0, 0), "len {}", len);
                }
                None if icmp && answered == 1 => {
                    prop_assert_eq!(ignored, 0, "len {}: answered and ignored", len);
                }
                None => prop_assert_eq!((ignored, answered), (1, 0), "len {}", len),
            }
            cmds.clear();
        }
    }
}
