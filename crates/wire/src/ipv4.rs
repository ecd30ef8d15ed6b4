//! Minimal IPv4: fixed 20-byte headers, internet checksum, no options,
//! no fragmentation. Exactly what the simulated hosts need for ping and
//! UDP streaming; anything fancier is out of scope for a layer-2 paper.

use crate::{be16, ParseError, ParseResult};
use bytes::Bytes;
use std::fmt;
use std::net::Ipv4Addr;

/// IP protocol numbers used by the host model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProto {
    /// ICMP (protocol 1), used by the ping latency probes.
    Icmp,
    /// UDP (protocol 17), used by the video streaming workload.
    Udp,
    /// Anything else, preserved for forwarding but not interpreted.
    Other(u8),
}

impl IpProto {
    /// The wire value.
    pub fn to_u8(self) -> u8 {
        match self {
            IpProto::Icmp => 1,
            IpProto::Udp => 17,
            IpProto::Other(v) => v,
        }
    }

    /// Classify a wire value.
    pub fn from_u8(v: u8) -> Self {
        match v {
            1 => IpProto::Icmp,
            17 => IpProto::Udp,
            other => IpProto::Other(other),
        }
    }
}

/// The RFC 1071 internet checksum over `data`.
///
/// Exposed because UDP and ICMP reuse it. Sums 32-bit big-endian words
/// (a short tail is zero-padded on the right) into a `u64` and folds
/// once at the end: 2^16 ≡ 1 modulo 0xffff, so a 32-bit word adds the
/// same ones'-complement value as its two 16-bit halves (RFC 1071
/// §2(B)), and the result is bit-identical to the 16-bit loop.
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut words = data.chunks_exact(4);
    let mut sum: u64 = (&mut words)
        .map(|w| u64::from(u32::from_be_bytes(w.try_into().expect("4-byte chunk"))))
        .sum();
    let mut tail = [0u8; 4];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    sum += u64::from(u32::from_be_bytes(tail));
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// An IPv4 packet with a fixed-size header and opaque payload bytes.
///
/// The payload is [`Bytes`] so that flood fan-out in the simulator clones
/// it by reference count, not by copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Packet {
    /// Differentiated services / TOS byte.
    pub dscp_ecn: u8,
    /// Identification field (copied through; we never fragment).
    pub ident: u16,
    /// Time to live; decremented only by routers, and the reproduced
    /// network is a single L2 domain, so bridges never touch it.
    pub ttl: u8,
    /// Payload protocol.
    pub proto: IpProto,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Transport payload.
    pub payload: Bytes,
}

impl Ipv4Packet {
    /// Header length (no options supported).
    pub const HEADER_LEN: usize = 20;

    /// Construct a packet with default TTL 64.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, proto: IpProto, payload: Bytes) -> Self {
        Ipv4Packet { dscp_ecn: 0, ident: 0, ttl: 64, proto, src, dst, payload }
    }

    /// Total wire length (header + payload).
    pub fn wire_len(&self) -> usize {
        Self::HEADER_LEN + self.payload.len()
    }

    /// Decode the packet starting at `offset` within `buf` and verify
    /// its header checksum, zero-copy: the payload is a [`Bytes::slice`]
    /// window into `buf`'s allocation. Taking the offset (rather than a
    /// pre-sliced `Bytes`) lets the frame decoder create exactly one
    /// refcounted view, for the payload.
    pub(crate) fn parse_bytes_at(buf: &Bytes, offset: usize) -> ParseResult<Self> {
        let body = &buf[offset..];
        let total_len = Self::validate(body)?;
        Ok(Ipv4Packet {
            dscp_ecn: body[1],
            ident: be16(body, 4),
            ttl: body[8],
            proto: IpProto::from_u8(body[9]),
            src: Ipv4Addr::new(body[12], body[13], body[14], body[15]),
            dst: Ipv4Addr::new(body[16], body[17], body[18], body[19]),
            payload: buf.slice(offset + Self::HEADER_LEN..offset + total_len),
        })
    }

    /// Validate the fixed header; returns the declared total length
    /// (header + payload, excluding any trailing frame padding).
    fn validate(buf: &[u8]) -> ParseResult<usize> {
        crate::need(buf, Self::HEADER_LEN, "ipv4")?;
        let ver_ihl = buf[0];
        if ver_ihl >> 4 != 4 {
            return Err(ParseError::BadField {
                what: "ipv4",
                field: "version",
                value: (ver_ihl >> 4) as u64,
            });
        }
        let ihl = (ver_ihl & 0x0f) as usize * 4;
        if ihl != Self::HEADER_LEN {
            // Options are never produced by our hosts; treat them as a
            // decode error so tests catch any accidental emission.
            return Err(ParseError::BadField { what: "ipv4", field: "ihl", value: ihl as u64 });
        }
        let total_len = be16(buf, 2) as usize;
        if total_len < Self::HEADER_LEN || total_len > buf.len() {
            return Err(ParseError::LengthMismatch {
                what: "ipv4",
                declared: total_len,
                actual: buf.len(),
            });
        }
        if internet_checksum(&buf[..Self::HEADER_LEN]) != 0 {
            return Err(ParseError::BadChecksum { what: "ipv4" });
        }
        let flags_frag = be16(buf, 6);
        if flags_frag & 0x3fff != 0 {
            // MF set or fragment offset nonzero: we never fragment.
            return Err(ParseError::BadField {
                what: "ipv4",
                field: "fragment",
                value: flags_frag as u64,
            });
        }
        Ok(total_len)
    }

    /// Encode onto `out`, computing the header checksum.
    ///
    /// # Panics
    /// If the packet is longer than the 16-bit total length field can
    /// state (a payload of 65,516 bytes or more).
    pub fn emit(&self, out: &mut Vec<u8>) {
        let total_len = u16::try_from(self.wire_len())
            .expect("IPv4 packet longer than 65,535 bytes: the caller built an oversized payload");
        let start = out.len();
        out.push(0x45); // version 4, IHL 5
        out.push(self.dscp_ecn);
        out.extend_from_slice(&total_len.to_be_bytes());
        out.extend_from_slice(&self.ident.to_be_bytes());
        out.extend_from_slice(&0x4000u16.to_be_bytes()); // DF, offset 0
        out.push(self.ttl);
        out.push(self.proto.to_u8());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&self.src.octets());
        out.extend_from_slice(&self.dst.octets());
        let csum = internet_checksum(&out[start..start + Self::HEADER_LEN]);
        out[start + 10..start + 12].copy_from_slice(&csum.to_be_bytes());
        out.extend_from_slice(&self.payload);
    }
}

impl fmt::Display for Ipv4Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ipv4 {} > {} proto {} len {}",
            self.src,
            self.dst,
            self.proto.to_u8(),
            self.wire_len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn parse(wire: &[u8]) -> ParseResult<Ipv4Packet> {
        Ipv4Packet::parse_bytes_at(&Bytes::copy_from_slice(wire), 0)
    }

    fn sample() -> Ipv4Packet {
        Ipv4Packet::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            IpProto::Udp,
            Bytes::from_static(b"stream-chunk"),
        )
    }

    #[test]
    fn checksum_of_rfc1071_example() {
        // RFC 1071 worked example: 0001 f203 f4f5 f6f7 -> sum 0xddf2,
        // checksum = !0xddf2 = 0x220d.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), 0x220d);
    }

    #[test]
    fn checksum_handles_odd_length() {
        // Odd final byte is padded with zero on the right.
        assert_eq!(internet_checksum(&[0xff]), !0xff00u16);
    }

    /// The classic 16-bit accumulator loop, kept as the reference the
    /// word-wide [`internet_checksum`] must match bit for bit.
    fn checksum_16bit_reference(data: &[u8]) -> u16 {
        let mut sum: u32 = 0;
        let mut chunks = data.chunks_exact(2);
        for chunk in &mut chunks {
            sum += u16::from_be_bytes([chunk[0], chunk[1]]) as u32;
        }
        if let [last] = chunks.remainder() {
            sum += (*last as u32) << 8;
        }
        while sum > 0xffff {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }

    #[test]
    fn checksum_matches_the_reference_on_constant_inputs() {
        // All-zero sums to 0 (checksum 0xffff); all-0xFF sums to a
        // nonzero multiple of 0xffff, which must fold to 0xffff (checksum
        // 0), never to 0 — the one case a sloppy fold gets wrong.
        for len in 0..=2048 {
            for fill in [0x00, 0xff] {
                let data = vec![fill; len];
                assert_eq!(
                    internet_checksum(&data),
                    checksum_16bit_reference(&data),
                    "len {len} fill {fill:#04x}"
                );
            }
        }
    }

    #[test]
    fn emit_fits_the_largest_total_length() {
        let max = Ipv4Packet { payload: Bytes::from(vec![0; 65_515]), ..sample() };
        let mut buf = Vec::new();
        max.emit(&mut buf);
        assert_eq!(parse(&buf).unwrap(), max);
    }

    #[test]
    #[should_panic(expected = "IPv4 packet longer than 65,535 bytes")]
    fn emit_refuses_a_total_length_that_would_wrap() {
        let over = Ipv4Packet { payload: Bytes::from(vec![0; 65_516]), ..sample() };
        over.emit(&mut Vec::new());
    }

    #[test]
    fn parse_emit_identity() {
        let pkt = sample();
        let mut buf = Vec::new();
        pkt.emit(&mut buf);
        assert_eq!(buf.len(), pkt.wire_len());
        assert_eq!(parse(&buf).unwrap(), pkt);
    }

    #[test]
    fn emitted_header_checksum_verifies_to_zero() {
        let mut buf = Vec::new();
        sample().emit(&mut buf);
        assert_eq!(internet_checksum(&buf[..20]), 0);
    }

    #[test]
    fn corrupted_byte_fails_checksum() {
        let mut buf = Vec::new();
        sample().emit(&mut buf);
        buf[8] ^= 0xff; // flip TTL
        assert!(matches!(parse(&buf), Err(ParseError::BadChecksum { .. })));
    }

    #[test]
    fn trailing_ethernet_padding_is_ignored() {
        let pkt = sample();
        let mut buf = Vec::new();
        pkt.emit(&mut buf);
        buf.resize(buf.len() + 14, 0); // frame padding past total_len
        assert_eq!(parse(&buf).unwrap(), pkt);
    }

    #[test]
    fn rejects_fragments() {
        let mut buf = Vec::new();
        sample().emit(&mut buf);
        buf[6] = 0x20; // MF
        let c = internet_checksum(&{
            let mut h = buf[..20].to_vec();
            h[10] = 0;
            h[11] = 0;
            h
        });
        buf[10..12].copy_from_slice(&c.to_be_bytes());
        assert!(matches!(parse(&buf), Err(ParseError::BadField { field: "fragment", .. })));
    }

    #[test]
    fn rejects_declared_length_past_buffer() {
        let mut buf = Vec::new();
        sample().emit(&mut buf);
        buf.truncate(25); // total_len says 32
        assert!(matches!(parse(&buf), Err(ParseError::LengthMismatch { .. })));
    }

    proptest! {
        #[test]
        fn roundtrip_any_packet(
            dscp: u8, ident: u16, ttl: u8, proto: u8,
            src: [u8; 4], dst: [u8; 4],
            payload in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let pkt = Ipv4Packet {
                dscp_ecn: dscp,
                ident,
                ttl,
                proto: IpProto::from_u8(proto),
                src: Ipv4Addr::from(src),
                dst: Ipv4Addr::from(dst),
                payload: Bytes::from(payload),
            };
            let mut buf = Vec::new();
            pkt.emit(&mut buf);
            prop_assert_eq!(parse(&buf).unwrap(), pkt);
        }

        #[test]
        fn parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = parse(&bytes);
        }

        #[test]
        fn checksum_matches_the_16bit_reference(
            data in proptest::collection::vec(any::<u8>(), 0..=2048),
            cut in 0usize..4,
        ) {
            // `cut` trims the tail so every residue mod 4 — odd lengths
            // included — is drawn for each generated buffer.
            let data = &data[..data.len().saturating_sub(cut)];
            prop_assert_eq!(internet_checksum(data), checksum_16bit_reference(data));
        }
    }
}
