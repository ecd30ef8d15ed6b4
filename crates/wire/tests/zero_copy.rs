//! Zero-copy decode contract of `EthernetFrame::parse_bytes`: every
//! `Bytes` payload the decoder produces is a *window into the input
//! buffer* (pointer/range identity, shared backing allocation), the
//! decode→re-encode round trip is the identity, and no input — valid,
//! truncated or garbage — ever panics.
//!
//! This is what makes flood fan-out allocation-free: a frame flooded
//! out of N ports is N clones whose bulk payload is one allocation.

use arppath_wire::llc::BpduTime;
use arppath_wire::{
    ArpPacket, Bpdu, BpduFlags, BridgeId, ConfigBpdu, EtherType, EthernetFrame, IcmpEcho, IpProto,
    Ipv4Packet, MacAddr, PathCtl, Payload, PortId16, UdpDatagram, VlanTag,
};
use bytes::Bytes;
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// Assert `view` is a zero-copy window into `input` at `offset`.
fn assert_window(input: &Bytes, view: &Bytes, offset: usize) {
    assert!(view.shares_allocation_with(input), "payload was copied, not sliced");
    let base = input.as_ptr() as usize;
    let ptr = view.as_ptr() as usize;
    assert_eq!(ptr, base + offset, "payload window at wrong offset");
    assert!(offset + view.len() <= input.len(), "payload window out of range");
}

#[test]
fn raw_payload_is_a_window_into_the_frame_buffer() {
    let frame = EthernetFrame::new(
        MacAddr::from_index(1, 2),
        MacAddr::from_index(1, 1),
        Payload::Raw { ethertype: EtherType(0x86DD), data: Bytes::from(vec![7u8; 100]) },
    );
    let buf = Bytes::from(frame.to_bytes());
    let parsed = EthernetFrame::parse_bytes(&buf).unwrap();
    match &parsed.payload {
        Payload::Raw { data, .. } => assert_window(&buf, data, EthernetFrame::HEADER_LEN),
        other => panic!("expected Raw, got {other:?}"),
    }
    assert_eq!(parsed, frame);
}

#[test]
fn ipv4_payload_is_a_window_into_the_frame_buffer() {
    let pkt = Ipv4Packet::new(
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
        IpProto::Udp,
        Bytes::from(vec![0xAB; 700]),
    );
    let frame = EthernetFrame::new(
        MacAddr::from_index(1, 2),
        MacAddr::from_index(1, 1),
        Payload::Ipv4(pkt),
    );
    let buf = Bytes::from(frame.to_bytes());
    let parsed = EthernetFrame::parse_bytes(&buf).unwrap();
    match &parsed.payload {
        Payload::Ipv4(ip) => {
            assert_window(&buf, &ip.payload, EthernetFrame::HEADER_LEN + Ipv4Packet::HEADER_LEN)
        }
        other => panic!("expected Ipv4, got {other:?}"),
    }
    assert_eq!(parsed, frame);
}

#[test]
fn corrupted_arp_falls_back_to_a_shared_raw_window() {
    // A wrecked ARP body must degrade to Raw — and that Raw fallback
    // must also be zero-copy.
    let src = MacAddr::from_index(1, 1);
    let arp = ArpPacket::request(src, Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    let mut bytes = EthernetFrame::arp_request(src, arp).to_bytes();
    bytes[15] = 0xff; // wreck the ARP ptype field
    let buf = Bytes::from(bytes);
    let parsed = EthernetFrame::parse_bytes(&buf).unwrap();
    match &parsed.payload {
        Payload::Raw { data, .. } => assert_window(&buf, data, EthernetFrame::HEADER_LEN),
        other => panic!("expected Raw fallback, got {other:?}"),
    }
}

#[test]
fn flood_fanout_shares_one_allocation() {
    // Clone the decoded frame N times, as the engine does when a bridge
    // floods: every clone's payload views the same buffer.
    let pkt = Ipv4Packet::new(
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
        IpProto::Udp,
        Bytes::from(vec![1u8; 1000]),
    );
    let frame =
        EthernetFrame::new(MacAddr::BROADCAST, MacAddr::from_index(1, 1), Payload::Ipv4(pkt));
    let buf = Bytes::from(frame.to_bytes());
    let parsed = EthernetFrame::parse_bytes(&buf).unwrap();
    let clones: Vec<EthernetFrame> = (0..16).map(|_| parsed.clone()).collect();
    for c in &clones {
        match &c.payload {
            Payload::Ipv4(ip) => assert!(ip.payload.shares_allocation_with(&buf)),
            other => panic!("expected Ipv4, got {other:?}"),
        }
    }
}

/// A valid frame of each typed payload a cut link carries — ARP,
/// IPv4+UDP, IPv4+ICMP, PathCtl, BPDU, and a VLAN-tagged datagram —
/// with `len` bytes of transport payload where the kind has one.
fn typed_frame(kind: usize, len: usize) -> EthernetFrame {
    let (a, b) = (MacAddr::from_index(1, 1), MacAddr::from_index(1, 2));
    let (ip_a, ip_b) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    let body = Bytes::from(vec![0x5A; len]);
    let ipv4 = |proto, transport: Vec<u8>| {
        Payload::Ipv4(Ipv4Packet::new(ip_a, ip_b, proto, Bytes::from(transport)))
    };
    let udp = || {
        let mut out = Vec::new();
        UdpDatagram::new(9000, 9000, body.clone()).emit(&mut out);
        ipv4(IpProto::Udp, out)
    };
    match kind {
        0 => EthernetFrame::arp_request(a, ArpPacket::request(a, ip_a, ip_b)),
        1 => EthernetFrame::new(b, a, udp()),
        2 => {
            let mut out = Vec::new();
            IcmpEcho::request(7, 1, body).emit(&mut out);
            EthernetFrame::new(b, a, ipv4(IpProto::Icmp, out))
        }
        3 => EthernetFrame::new(b, a, Payload::PathCtl(PathCtl::request(a, b, a, 0xC0FFEE))),
        4 => {
            let id = BridgeId::new(0x8000, MacAddr::from_index(2, 1));
            let config = ConfigBpdu {
                flags: BpduFlags::default(),
                root: id,
                root_path_cost: 4,
                bridge: id,
                port: PortId16::new(0x80, 1),
                message_age: BpduTime(0),
                max_age: BpduTime::from_secs(20),
                hello_time: BpduTime::from_secs(2),
                forward_delay: BpduTime::from_secs(15),
            };
            EthernetFrame::new(MacAddr::STP_MULTICAST, id.mac, Payload::Bpdu(Bpdu::Config(config)))
        }
        _ => EthernetFrame {
            vlan: Some(VlanTag::new(3, false, 100)),
            ..EthernetFrame::new(b, a, udp())
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The hostile-bytes property the random-bytes cases below almost
    /// never reach (128 random bytes rarely carry a typed EtherType and
    /// a plausible header): every typed frame kind, cut at every
    /// length, as is and with one to three bits flipped — length
    /// fields that lie, version nibbles, checksums, the VLAN TPID. The
    /// zero-copy decoder every cut-link crossing runs must never panic
    /// and must agree with the copying decoder, `Ok` for `Ok` with
    /// equal frames and `Err` for `Err`.
    #[test]
    fn mangled_typed_frames_never_panic_and_both_decoders_agree(
        kind in 0usize..6,
        len in 0usize..200,
        flips in proptest::collection::vec((any::<u16>(), 0u32..8), 1..=3),
    ) {
        let frame = typed_frame(kind, len);
        let wire = frame.to_bytes();
        prop_assert_eq!(EthernetFrame::parse_bytes(&Bytes::from(wire.clone())), Ok(frame));
        let both = |bytes: &[u8]| {
            let buf = Bytes::copy_from_slice(bytes);
            (EthernetFrame::parse(&buf[..]), EthernetFrame::parse_bytes(&buf))
        };
        for cut in 0..=wire.len() {
            let mut bytes = wire[..cut].to_vec();
            let (copied, shared) = both(&bytes);
            prop_assert_eq!(copied, shared, "cut at {}", cut);
            for &(at, bit) in flips.iter().filter(|_| cut > 0) {
                bytes[at as usize % cut] ^= 1 << bit;
            }
            let (copied, shared) = both(&bytes);
            prop_assert_eq!(copied, shared, "cut at {}, flipped {:?}", cut, &flips);
        }
    }
}

proptest! {
    /// ARP frames: typed decode via the shared-buffer path round-trips.
    #[test]
    fn arp_roundtrips_through_parse_bytes(
        sha: [u8; 6], spa: [u8; 4], tpa: [u8; 4],
    ) {
        let arp = ArpPacket::request(MacAddr(sha), Ipv4Addr::from(spa), Ipv4Addr::from(tpa));
        let frame = EthernetFrame::arp_request(MacAddr(sha), arp);
        let buf = Bytes::from(frame.to_bytes());
        let parsed = EthernetFrame::parse_bytes(&buf).unwrap();
        prop_assert_eq!(&parsed, &frame);
        prop_assert!(matches!(parsed.payload, Payload::Arp(_)));
        // Re-encode is the identity on the wire.
        prop_assert_eq!(parsed.to_bytes(), buf.to_vec());
    }

    /// PathCtl frames: typed decode via the shared-buffer path
    /// round-trips for every message kind.
    #[test]
    fn pathctl_roundtrips_through_parse_bytes(
        kind in 0usize..4, s: [u8; 6], d: [u8; 6], o: [u8; 6], nonce: u32,
    ) {
        let (s, d, o) = (MacAddr(s), MacAddr(d), MacAddr(o));
        let ctl = [
            PathCtl::hello(o, nonce),
            PathCtl::fail(s, d, o, nonce),
            PathCtl::request(s, d, o, nonce),
            PathCtl::reply(s, d, o, nonce),
        ][kind];
        let frame = EthernetFrame::new(MacAddr::BROADCAST, s, Payload::PathCtl(ctl));
        let buf = Bytes::from(frame.to_bytes());
        let parsed = EthernetFrame::parse_bytes(&buf).unwrap();
        prop_assert_eq!(&parsed, &frame);
        prop_assert!(matches!(parsed.payload, Payload::PathCtl(_)));
        prop_assert_eq!(parsed.to_bytes(), buf.to_vec());
    }

    /// Raw frames of arbitrary content: round-trip plus pointer/range
    /// identity of the decoded payload window.
    #[test]
    fn raw_payload_window_identity(
        dst: [u8; 6], src: [u8; 6], et in 0x0600u16..,
        data in proptest::collection::vec(any::<u8>(), 46..300),
    ) {
        prop_assume!(![0x0800, 0x0806, 0x8100, 0x88B5].contains(&et));
        let frame = EthernetFrame::new(
            MacAddr(dst),
            MacAddr(src),
            Payload::Raw { ethertype: EtherType(et), data: Bytes::from(data) },
        );
        let buf = Bytes::from(frame.to_bytes());
        let parsed = EthernetFrame::parse_bytes(&buf).unwrap();
        match &parsed.payload {
            Payload::Raw { data, .. } => {
                prop_assert!(data.shares_allocation_with(&buf));
                let offset = data.as_ptr() as usize - buf.as_ptr() as usize;
                prop_assert_eq!(offset, EthernetFrame::HEADER_LEN);
            }
            other => prop_assert!(false, "expected Raw, got {:?}", other),
        }
        prop_assert_eq!(parsed, frame);
    }

    /// Copy-path and zero-copy-path decodes agree on every input.
    #[test]
    fn parse_and_parse_bytes_agree(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let buf = Bytes::from(bytes);
        let a = EthernetFrame::parse(&buf[..]);
        let b = EthernetFrame::parse_bytes(&buf);
        prop_assert_eq!(a, b);
    }

    /// No input panics the zero-copy decoder: truncated headers,
    /// garbage bodies, lying length fields.
    #[test]
    fn parse_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = EthernetFrame::parse_bytes(&Bytes::from(bytes));
    }

    /// Truncating a valid frame anywhere never panics either; it
    /// errors or degrades, but the window never escapes the buffer.
    #[test]
    fn truncations_of_valid_frames_never_panic(cut in 0usize..=60) {
        let src = MacAddr::from_index(1, 1);
        let arp = ArpPacket::request(src, Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        let full = EthernetFrame::arp_request(src, arp).to_bytes();
        let buf = Bytes::from(full[..cut.min(full.len())].to_vec());
        if let Ok(f) = EthernetFrame::parse_bytes(&buf) {
            if let Payload::Raw { data, .. } = &f.payload {
                let offset = data.as_ptr() as usize - buf.as_ptr() as usize;
                prop_assert!(offset + data.len() <= buf.len());
            }
        }
    }
}
