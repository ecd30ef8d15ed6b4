//! UDP datagrams (RFC 768), the transport of the streaming workload.

use crate::{be16, ParseError, ParseResult};
use bytes::{Bytes, BytesMut};
use std::fmt;

/// A UDP datagram. The checksum is carried but computed over the payload
/// only (checksum 0 = disabled is also accepted), because the simulator's
/// frames cannot be corrupted between encode and parse except by explicit
/// fault injection — which flips payload bytes, and those are covered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Application payload.
    pub payload: Bytes,
}

impl UdpDatagram {
    /// Fixed header length.
    pub const HEADER_LEN: usize = 8;

    /// The largest payload the 16-bit length field can state.
    pub const MAX_PAYLOAD: usize = u16::MAX as usize - Self::HEADER_LEN;

    /// Decode from `buf`, honouring the declared length (trailing bytes
    /// beyond it — Ethernet padding — are ignored). The checksum is
    /// verified, and the payload is a [`Bytes::slice`] view into `buf`'s
    /// allocation, not a copy.
    pub fn parse(buf: &Bytes) -> ParseResult<Self> {
        crate::need(buf, Self::HEADER_LEN, "udp")?;
        let len = be16(buf, 4) as usize;
        if len < Self::HEADER_LEN || len > buf.len() {
            return Err(ParseError::LengthMismatch {
                what: "udp",
                declared: len,
                actual: buf.len(),
            });
        }
        let declared = be16(buf, 6);
        if declared != 0 && declared != Self::checksum(&buf[Self::HEADER_LEN..len]) {
            return Err(ParseError::BadChecksum { what: "udp" });
        }
        Ok(UdpDatagram {
            src_port: be16(buf, 0),
            dst_port: be16(buf, 2),
            payload: buf.slice(Self::HEADER_LEN..len),
        })
    }

    /// Encode a datagram from its parts, with a payload checksum,
    /// straight into one freshly allocated buffer — the send path's
    /// single allocation and single copy of `payload`.
    ///
    /// # Panics
    /// If the payload is longer than [`UdpDatagram::MAX_PAYLOAD`].
    pub fn encode(src_port: u16, dst_port: u16, payload: &[u8]) -> Bytes {
        let mut out = BytesMut::zeroed(Self::HEADER_LEN + payload.len());
        let len = u16::try_from(out.len())
            .expect("UDP datagram longer than 65,535 bytes: the caller built an oversized payload");
        let (header, body) = out.split_at_mut(Self::HEADER_LEN);
        header[0..2].copy_from_slice(&src_port.to_be_bytes());
        header[2..4].copy_from_slice(&dst_port.to_be_bytes());
        header[4..6].copy_from_slice(&len.to_be_bytes());
        header[6..8].copy_from_slice(&Self::checksum(payload).to_be_bytes());
        body.copy_from_slice(payload);
        out.freeze()
    }

    /// The payload checksum as carried on the wire: a computed 0 is sent
    /// as 0xffff, because 0 means "no checksum".
    fn checksum(payload: &[u8]) -> u16 {
        match crate::ipv4::internet_checksum(payload) {
            0 => 0xffff,
            csum => csum,
        }
    }
}

impl fmt::Display for UdpDatagram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "udp {} > {} len {}", self.src_port, self.dst_port, self.payload.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The wire bytes of a datagram, as a mutable buffer to corrupt.
    fn wire(src_port: u16, dst_port: u16, payload: &[u8]) -> Vec<u8> {
        UdpDatagram::encode(src_port, dst_port, payload).to_vec()
    }

    fn datagram(src_port: u16, dst_port: u16, payload: &'static [u8]) -> UdpDatagram {
        UdpDatagram { src_port, dst_port, payload: Bytes::from_static(payload) }
    }

    #[test]
    fn parse_encode_identity() {
        let wire = UdpDatagram::encode(5004, 5005, b"gop-frame-0001");
        assert_eq!(wire.len(), UdpDatagram::HEADER_LEN + 14);
        assert_eq!(UdpDatagram::parse(&wire).unwrap(), datagram(5004, 5005, b"gop-frame-0001"));
    }

    #[test]
    fn parse_hands_back_a_view_of_the_buffer() {
        let wire = UdpDatagram::encode(1, 2, b"payload");
        let d = UdpDatagram::parse(&wire).unwrap();
        assert_eq!(d.payload, b"payload"[..]);
        assert!(d.payload.shares_allocation_with(&wire), "payload must not be copied");
    }

    #[test]
    fn encode_fits_the_largest_length() {
        let wire = UdpDatagram::encode(1, 2, &vec![0; UdpDatagram::MAX_PAYLOAD]);
        assert_eq!(UdpDatagram::parse(&wire).unwrap().payload.len(), 65_527);
    }

    #[test]
    #[should_panic(expected = "UDP datagram longer than 65,535 bytes")]
    fn encode_refuses_a_length_that_would_wrap() {
        UdpDatagram::encode(1, 2, &vec![0; UdpDatagram::MAX_PAYLOAD + 1]);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let wire = UdpDatagram::encode(1, 2, b"");
        assert_eq!(UdpDatagram::parse(&wire).unwrap(), datagram(1, 2, b""));
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut buf = wire(9, 10, b"payload");
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        assert!(matches!(
            UdpDatagram::parse(&Bytes::from(buf)),
            Err(ParseError::BadChecksum { .. })
        ));
    }

    #[test]
    fn zero_checksum_means_disabled() {
        let mut buf = wire(9, 10, b"payload");
        buf[6] = 0;
        buf[7] = 0;
        assert_eq!(UdpDatagram::parse(&Bytes::from(buf)).unwrap(), datagram(9, 10, b"payload"));
    }

    #[test]
    fn rejects_short_declared_length() {
        let mut buf = wire(9, 10, b"xx");
        buf[5] = 4; // declared len < header
        assert!(matches!(
            UdpDatagram::parse(&Bytes::from(buf)),
            Err(ParseError::LengthMismatch { .. })
        ));
    }

    proptest! {
        #[test]
        fn roundtrip_any_datagram(
            sp: u16, dp: u16,
            payload in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            let wire = UdpDatagram::encode(sp, dp, &payload);
            let d = UdpDatagram { src_port: sp, dst_port: dp, payload: Bytes::from(payload) };
            prop_assert_eq!(UdpDatagram::parse(&wire).unwrap(), d);
        }

        #[test]
        fn parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = UdpDatagram::parse(&Bytes::from(bytes));
        }
    }
}
