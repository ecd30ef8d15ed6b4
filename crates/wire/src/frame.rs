//! Ethernet II framing and the typed payload enum the simulator carries.

use crate::{
    be16, ArpPacket, Bpdu, EtherType, Ipv4Packet, MacAddr, ParseError, ParseResult, PathCtl,
};
use bytes::Bytes;
use std::fmt;

/// Minimum Ethernet frame length, header + payload, excluding FCS.
pub const MIN_FRAME_LEN: usize = 60;
/// Maximum untagged frame length, header + payload, excluding FCS.
pub const MAX_FRAME_LEN: usize = 1514;
/// Maximum transmission unit (payload bytes after the 14-byte header).
pub const MTU: usize = 1500;
/// Frame check sequence length.
pub const FCS_LEN: usize = 4;
/// Preamble plus start-frame delimiter, transmitted before each frame.
pub const PREAMBLE_LEN: usize = 8;
/// Minimum inter-frame gap in byte times.
pub const IFG_LEN: usize = 12;
/// Per-frame overhead on the wire beyond `wire_len()`: preamble, FCS and
/// inter-frame gap. Used by the link model to compute serialization
/// delay and by the line-rate experiment (E3) to compute theoretical
/// packet rates.
pub const WIRE_OVERHEAD: usize = PREAMBLE_LEN + FCS_LEN + IFG_LEN;

/// Typed payload of an [`EthernetFrame`].
///
/// The decoder dispatches on EtherType; frames whose payload fails its
/// inner decoder are *not* rejected at the frame layer — they surface as
/// [`Payload::Raw`] so switches can still forward traffic they do not
/// understand, exactly like real bridges (a bridge must not drop an
/// IPv6 frame merely because its own control plane cannot parse it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// RFC 826 ARP (the path-establishing traffic of the paper).
    Arp(ArpPacket),
    /// IPv4, carrying the measurement workloads.
    Ipv4(Ipv4Packet),
    /// ARP-Path control (PathFail/PathRequest/PathReply/Hello).
    PathCtl(PathCtl),
    /// 802.1D BPDU in LLC framing (the STP baseline's control traffic).
    Bpdu(Bpdu),
    /// Anything else: opaque bytes tagged with their EtherType (or, for
    /// LLC frames that are not BPDUs, the 802.3 length field).
    Raw {
        /// EtherType (or 802.3 length) as it appeared on the wire.
        ethertype: EtherType,
        /// The undecoded payload bytes.
        data: Bytes,
    },
}

impl Payload {
    /// The EtherType (or length field) this payload is carried under.
    pub fn ethertype(&self) -> EtherType {
        match self {
            Payload::Arp(_) => EtherType::ARP,
            Payload::Ipv4(_) => EtherType::IPV4,
            Payload::PathCtl(_) => EtherType::ARPPATH_CTL,
            Payload::Bpdu(b) => EtherType(b.wire_len() as u16), // 802.3 length
            Payload::Raw { ethertype, .. } => *ethertype,
        }
    }

    /// Length in bytes of the encoded payload (before frame padding).
    pub fn wire_len(&self) -> usize {
        match self {
            Payload::Arp(_) => ArpPacket::LEN,
            Payload::Ipv4(p) => p.wire_len(),
            Payload::PathCtl(_) => PathCtl::LEN,
            Payload::Bpdu(b) => b.wire_len(),
            Payload::Raw { data, .. } => data.len(),
        }
    }
}

/// An untagged Ethernet II frame with a typed payload.
///
/// This is the unit the simulator moves across links. It is owned and
/// cheaply cloneable: flooding a frame out of N ports clones the struct
/// N times, with any bulk payload shared via [`Bytes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EthernetFrame {
    /// Destination MAC address.
    pub dst: MacAddr,
    /// Source MAC address.
    pub src: MacAddr,
    /// Typed payload.
    pub payload: Payload,
}

impl EthernetFrame {
    /// Ethernet header length.
    pub const HEADER_LEN: usize = 14;

    /// Build a frame.
    pub fn new(dst: MacAddr, src: MacAddr, payload: Payload) -> Self {
        EthernetFrame { dst, src, payload }
    }

    /// Build the broadcast ARP Request frame host `src` floods.
    pub fn arp_request(src: MacAddr, arp: ArpPacket) -> Self {
        EthernetFrame::new(MacAddr::BROADCAST, src, Payload::Arp(arp))
    }

    /// Build the unicast ARP Reply frame answering `req`.
    pub fn arp_reply(arp: ArpPacket) -> Self {
        EthernetFrame::new(arp.tha, arp.sha, Payload::Arp(arp))
    }

    /// True when the destination is broadcast or multicast — frames that
    /// bridges flood rather than forward point-to-point.
    pub fn is_flooded(&self) -> bool {
        self.dst.is_multicast()
    }

    /// Frame length on the wire: header + payload, padded to the
    /// 60-byte minimum, excluding FCS (add [`WIRE_OVERHEAD`] for the full
    /// line occupancy including preamble/FCS/IFG).
    pub fn wire_len(&self) -> usize {
        (Self::HEADER_LEN + self.payload.wire_len()).max(MIN_FRAME_LEN)
    }

    /// Bits this frame occupies on a link, including preamble, FCS and
    /// the mandatory inter-frame gap. This is the quantity that divides
    /// into link bandwidth to yield serialization delay — the term that
    /// decides the ARP races at the heart of the protocol.
    pub fn wire_bits(&self) -> u64 {
        ((self.wire_len() + WIRE_OVERHEAD) * 8) as u64
    }

    /// Decode a frame **zero-copy**. Unknown EtherTypes and undecodable
    /// payloads fall back to [`Payload::Raw`]; only a mangled *frame
    /// header* errors. Every [`Bytes`] payload in the result (`Raw`
    /// data, IPv4 transport payload) is a [`Bytes::slice`] window into
    /// `buf`'s backing allocation — no byte is copied.
    pub fn parse_bytes(buf: &Bytes) -> ParseResult<Self> {
        crate::need(buf, Self::HEADER_LEN, "ethernet")?;
        let dst = MacAddr::parse(&buf[0..6])?;
        let src = MacAddr::parse(&buf[6..12])?;
        let ethertype = EtherType(be16(buf, 12));
        let offset = Self::HEADER_LEN;
        let body = &buf[offset..];
        let raw_body = |ethertype: EtherType| Payload::Raw { ethertype, data: buf.slice(offset..) };
        let payload = if !ethertype.is_ethertype() {
            // 802.3 length framing: BPDUs live here. The declared length
            // bounds the LLC payload; padding follows.
            let declared = ethertype.0 as usize;
            if declared > body.len() {
                return Err(ParseError::LengthMismatch {
                    what: "ethernet-llc",
                    declared,
                    actual: body.len(),
                });
            }
            match Bpdu::parse(&body[..declared]) {
                Ok(bpdu) => Payload::Bpdu(bpdu),
                Err(_) => raw_body(ethertype),
            }
        } else if ethertype == EtherType::ARP {
            match ArpPacket::parse(body) {
                Ok(arp) => Payload::Arp(arp),
                Err(_) => raw_body(ethertype),
            }
        } else if ethertype == EtherType::IPV4 {
            match Ipv4Packet::parse_bytes_at(buf, offset) {
                Ok(ip) => Payload::Ipv4(ip),
                Err(_) => raw_body(ethertype),
            }
        } else if ethertype == EtherType::ARPPATH_CTL {
            match PathCtl::parse(body) {
                Ok(ctl) => Payload::PathCtl(ctl),
                Err(_) => raw_body(ethertype),
            }
        } else {
            raw_body(ethertype)
        };
        Ok(EthernetFrame { dst, src, payload })
    }

    /// Encode the frame, padding to the 60-byte minimum.
    pub fn emit(&self, out: &mut Vec<u8>) {
        let start = out.len();
        self.dst.emit(out);
        self.src.emit(out);
        out.extend_from_slice(&self.payload.ethertype().0.to_be_bytes());
        match &self.payload {
            Payload::Arp(a) => a.emit(out),
            Payload::Ipv4(p) => p.emit(out),
            Payload::PathCtl(c) => c.emit(out),
            Payload::Bpdu(b) => b.emit(out),
            Payload::Raw { data, .. } => out.extend_from_slice(data),
        }
        if out.len() - start < MIN_FRAME_LEN {
            out.resize(start + MIN_FRAME_LEN, 0);
        }
    }

    /// Encode into a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.emit(&mut out);
        out
    }
}

impl fmt::Display for EthernetFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} > {}: ", self.src, self.dst)?;
        match &self.payload {
            Payload::Arp(a) => write!(f, "{a}"),
            Payload::Ipv4(p) => write!(f, "{p}"),
            Payload::PathCtl(c) => write!(f, "{c}"),
            Payload::Bpdu(Bpdu::Tcn) => write!(f, "stp tcn"),
            Payload::Bpdu(Bpdu::Config(c)) => {
                write!(f, "stp config root {} cost {}", c.root, c.root_path_cost)
            }
            Payload::Raw { ethertype, data } => write!(f, "{} len {}", ethertype, data.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::llc::{BpduFlags, BpduTime, BridgeId, ConfigBpdu, PortId16};
    use crate::IpProto;
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    fn parse(wire: &[u8]) -> ParseResult<EthernetFrame> {
        EthernetFrame::parse_bytes(&Bytes::copy_from_slice(wire))
    }

    fn host(i: u32) -> MacAddr {
        MacAddr::from_index(1, i)
    }

    fn sample_arp_frame() -> EthernetFrame {
        EthernetFrame::arp_request(
            host(1),
            ArpPacket::request(host(1), Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2)),
        )
    }

    #[test]
    fn arp_request_frame_is_broadcast() {
        let f = sample_arp_frame();
        assert!(f.is_flooded());
        assert_eq!(f.dst, MacAddr::BROADCAST);
    }

    #[test]
    fn arp_reply_frame_is_unicast_to_requester() {
        let req =
            ArpPacket::request(host(1), Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        let rep = ArpPacket::reply_to(&req, host(2), req.tpa);
        let f = EthernetFrame::arp_reply(rep);
        assert!(!f.is_flooded());
        assert_eq!(f.dst, host(1));
        assert_eq!(f.src, host(2));
    }

    #[test]
    fn short_frames_pad_to_minimum() {
        let f = sample_arp_frame();
        assert_eq!(f.wire_len(), MIN_FRAME_LEN);
        let bytes = f.to_bytes();
        assert_eq!(bytes.len(), MIN_FRAME_LEN);
    }

    #[test]
    fn roundtrip_arp() {
        let f = sample_arp_frame();
        assert_eq!(parse(&f.to_bytes()).unwrap(), f);
    }

    #[test]
    fn roundtrip_ipv4_udp_sized() {
        let ip = Ipv4Packet::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            IpProto::Udp,
            Bytes::from(vec![0xAB; 1000]),
        );
        let f = EthernetFrame::new(host(2), host(1), Payload::Ipv4(ip));
        assert_eq!(f.wire_len(), 14 + 20 + 1000);
        assert_eq!(parse(&f.to_bytes()).unwrap(), f);
    }

    #[test]
    fn roundtrip_bpdu_llc_framing() {
        let bpdu = Bpdu::Config(ConfigBpdu {
            flags: BpduFlags::default(),
            root: BridgeId::new(0x8000, host(10)),
            root_path_cost: 4,
            bridge: BridgeId::new(0x8000, host(11)),
            port: PortId16::new(0x80, 1),
            message_age: BpduTime(0),
            max_age: BpduTime::from_secs(20),
            hello_time: BpduTime::from_secs(2),
            forward_delay: BpduTime::from_secs(15),
        });
        let f = EthernetFrame::new(MacAddr::STP_MULTICAST, host(11), Payload::Bpdu(bpdu));
        let parsed = parse(&f.to_bytes()).unwrap();
        assert_eq!(parsed, f);
    }

    #[test]
    fn roundtrip_pathctl() {
        let ctl = PathCtl::request(host(1), host(2), host(99), 77);
        let f = EthernetFrame::new(MacAddr::BROADCAST, host(1), Payload::PathCtl(ctl));
        assert_eq!(parse(&f.to_bytes()).unwrap(), f);
    }

    #[test]
    fn unknown_ethertype_survives_as_raw() {
        let f = EthernetFrame::new(
            host(2),
            host(1),
            Payload::Raw { ethertype: EtherType(0x86DD), data: Bytes::from(vec![1u8; 46]) },
        );
        let parsed = parse(&f.to_bytes()).unwrap();
        assert_eq!(parsed, f);
    }

    #[test]
    fn corrupt_arp_payload_degrades_to_raw_not_error() {
        let mut bytes = sample_arp_frame().to_bytes();
        bytes[15] = 0xff; // wreck the ARP ptype field
        let parsed = parse(&bytes).unwrap();
        assert!(matches!(parsed.payload, Payload::Raw { .. }));
    }

    #[test]
    fn truncated_header_is_error() {
        assert!(parse(&[0u8; 10]).is_err());
    }

    #[test]
    fn wire_bits_includes_overhead() {
        let f = sample_arp_frame();
        // 60 bytes frame + 24 overhead = 84 bytes = 672 bits: the classic
        // minimum-frame line occupancy used in line-rate math.
        assert_eq!(f.wire_bits(), 672);
    }

    proptest! {
        #[test]
        fn roundtrip_any_raw_frame(
            dst: [u8; 6], src: [u8; 6], et in 0x0600u16..,
            data in proptest::collection::vec(any::<u8>(), 46..200),
        ) {
            // Skip ethertypes that trigger typed decoding.
            prop_assume!(![0x0800, 0x0806, 0x88B5].contains(&et));
            let f = EthernetFrame::new(
                MacAddr(dst),
                MacAddr(src),
                Payload::Raw { ethertype: EtherType(et), data: Bytes::from(data) },
            );
            prop_assert_eq!(parse(&f.to_bytes()).unwrap(), f);
        }

        #[test]
        fn emitted_frames_always_reach_minimum(
            dst: [u8; 6], src: [u8; 6],
            data in proptest::collection::vec(any::<u8>(), 0..10),
        ) {
            let f = EthernetFrame::new(
                MacAddr(dst),
                MacAddr(src),
                Payload::Raw { ethertype: EtherType(0x88B6), data: Bytes::from(data) },
            );
            prop_assert_eq!(f.to_bytes().len(), MIN_FRAME_LEN);
            prop_assert!(f.wire_len() >= MIN_FRAME_LEN);
        }
    }
}
