//! UDP datagrams (RFC 768), the transport of the streaming workload.

use crate::{be16, ParseError, ParseResult};
use bytes::{Bytes, BytesMut};
use std::fmt;

/// A UDP datagram. The checksum is carried but computed over the payload
/// only (checksum 0 = disabled is also accepted), because the simulator's
/// frames cannot be corrupted between emit and parse except by explicit
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

    /// Construct a datagram.
    pub fn new(src_port: u16, dst_port: u16, payload: Bytes) -> Self {
        UdpDatagram { src_port, dst_port, payload }
    }

    /// Total wire length.
    pub fn wire_len(&self) -> usize {
        Self::HEADER_LEN + self.payload.len()
    }

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

    /// Encode onto `out` with a payload checksum.
    pub fn emit(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + self.wire_len(), 0);
        Self::write_into(self.src_port, self.dst_port, &self.payload, &mut out[start..]);
    }

    /// Encode a datagram from its parts straight into one freshly
    /// allocated buffer — the send path's single allocation and single
    /// copy of `payload`.
    pub fn encode(src_port: u16, dst_port: u16, payload: &[u8]) -> Bytes {
        let mut out = BytesMut::zeroed(Self::HEADER_LEN + payload.len());
        Self::write_into(src_port, dst_port, payload, &mut out);
        out.freeze()
    }

    /// The one encoder: writes header and `payload` into `out`, which is
    /// exactly [`UdpDatagram::HEADER_LEN`] + `payload.len()` bytes long.
    ///
    /// # Panics
    /// If the payload is longer than [`UdpDatagram::MAX_PAYLOAD`].
    fn write_into(src_port: u16, dst_port: u16, payload: &[u8], out: &mut [u8]) {
        let len = u16::try_from(out.len())
            .expect("UDP datagram longer than 65,535 bytes: the caller built an oversized payload");
        out[0..2].copy_from_slice(&src_port.to_be_bytes());
        out[2..4].copy_from_slice(&dst_port.to_be_bytes());
        out[4..6].copy_from_slice(&len.to_be_bytes());
        out[6..8].copy_from_slice(&Self::checksum(payload).to_be_bytes());
        out[Self::HEADER_LEN..].copy_from_slice(payload);
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

    #[test]
    fn parse_emit_identity() {
        let d = UdpDatagram::new(5004, 5005, Bytes::from_static(b"gop-frame-0001"));
        let mut buf = Vec::new();
        d.emit(&mut buf);
        assert_eq!(buf.len(), d.wire_len());
        assert_eq!(UdpDatagram::parse(&Bytes::from(buf)).unwrap(), d);
    }

    #[test]
    fn encode_is_emit_in_one_buffer() {
        let d = UdpDatagram::new(5004, 5005, Bytes::from_static(b"gop-frame-0001"));
        let mut buf = Vec::new();
        d.emit(&mut buf);
        assert_eq!(UdpDatagram::encode(5004, 5005, b"gop-frame-0001"), buf);
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
        let d = UdpDatagram::new(1, 2, Bytes::new());
        let mut buf = Vec::new();
        d.emit(&mut buf);
        assert_eq!(UdpDatagram::parse(&Bytes::from(buf)).unwrap(), d);
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let d = UdpDatagram::new(9, 10, Bytes::from_static(b"payload"));
        let mut buf = Vec::new();
        d.emit(&mut buf);
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        assert!(matches!(
            UdpDatagram::parse(&Bytes::from(buf)),
            Err(ParseError::BadChecksum { .. })
        ));
    }

    #[test]
    fn zero_checksum_means_disabled() {
        let d = UdpDatagram::new(9, 10, Bytes::from_static(b"payload"));
        let mut buf = Vec::new();
        d.emit(&mut buf);
        buf[6] = 0;
        buf[7] = 0;
        assert_eq!(UdpDatagram::parse(&Bytes::from(buf)).unwrap(), d);
    }

    #[test]
    fn rejects_short_declared_length() {
        let d = UdpDatagram::new(9, 10, Bytes::from_static(b"xx"));
        let mut buf = Vec::new();
        d.emit(&mut buf);
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
            let d = UdpDatagram::new(sp, dp, Bytes::from(payload));
            let mut buf = Vec::new();
            d.emit(&mut buf);
            prop_assert_eq!(UdpDatagram::parse(&Bytes::from(buf)).unwrap(), d);
        }

        #[test]
        fn parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = UdpDatagram::parse(&Bytes::from(bytes));
        }
    }
}
