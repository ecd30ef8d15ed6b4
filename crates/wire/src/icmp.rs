//! ICMP echo request/reply — the probe the latency experiments use,
//! standing in for the demo's ping-driven latency graphs.

use crate::ipv4::internet_checksum;
use crate::{be16, ParseError, ParseResult};
use bytes::{Bytes, BytesMut};
use std::fmt;

/// An ICMP echo request or reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IcmpEcho {
    /// `true` = echo request (type 8), `false` = echo reply (type 0).
    pub is_request: bool,
    /// Identifier, used by hosts to demultiplex concurrent pings.
    pub ident: u16,
    /// Sequence number of this probe.
    pub seq: u16,
    /// Probe payload; the ping application embeds its send timestamp here.
    pub payload: Bytes,
}

impl IcmpEcho {
    /// Fixed header length.
    pub const HEADER_LEN: usize = 8;

    /// Decode and verify the ICMP checksum. The payload is a
    /// [`Bytes::slice`] view into `buf`'s allocation, not a copy.
    pub fn parse(buf: &Bytes) -> ParseResult<Self> {
        crate::need(buf, Self::HEADER_LEN, "icmp")?;
        let is_request = match buf[0] {
            8 => true,
            0 => false,
            other => {
                return Err(ParseError::BadField {
                    what: "icmp",
                    field: "type",
                    value: other as u64,
                })
            }
        };
        if buf[1] != 0 {
            return Err(ParseError::BadField { what: "icmp", field: "code", value: buf[1] as u64 });
        }
        if internet_checksum(buf) != 0 {
            return Err(ParseError::BadChecksum { what: "icmp" });
        }
        Ok(IcmpEcho {
            is_request,
            ident: be16(buf, 4),
            seq: be16(buf, 6),
            payload: buf.slice(Self::HEADER_LEN..),
        })
    }

    /// Encode an echo from its parts, computing the checksum over
    /// header + payload, straight into one freshly allocated buffer —
    /// the send path's single allocation and single copy of `payload`.
    pub fn encode(is_request: bool, ident: u16, seq: u16, payload: &[u8]) -> Bytes {
        let mut out = BytesMut::zeroed(Self::HEADER_LEN + payload.len());
        let (header, body) = out.split_at_mut(Self::HEADER_LEN);
        // Type, code 0, and a zero checksum placeholder.
        header[..4].copy_from_slice(&[if is_request { 8 } else { 0 }, 0, 0, 0]);
        header[4..6].copy_from_slice(&ident.to_be_bytes());
        header[6..8].copy_from_slice(&seq.to_be_bytes());
        body.copy_from_slice(payload);
        let csum = internet_checksum(&out);
        out[2..4].copy_from_slice(&csum.to_be_bytes());
        out.freeze()
    }
}

impl fmt::Display for IcmpEcho {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "icmp echo-{} id {} seq {}",
            if self.is_request { "request" } else { "reply" },
            self.ident,
            self.seq
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_encode_identity() {
        let wire = IcmpEcho::encode(true, 42, 7, b"timestamp:123456");
        assert_eq!(wire.len(), IcmpEcho::HEADER_LEN + 16);
        let parsed = IcmpEcho::parse(&wire).unwrap();
        let payload = Bytes::from_static(b"timestamp:123456");
        assert_eq!(parsed, IcmpEcho { is_request: true, ident: 42, seq: 7, payload });
        assert!(parsed.payload.shares_allocation_with(&wire), "payload must not be copied");
    }

    #[test]
    fn corrupt_byte_fails_checksum() {
        let mut buf = IcmpEcho::encode(true, 42, 7, b"abcdef").to_vec();
        buf[6] ^= 0x40;
        assert!(matches!(IcmpEcho::parse(&Bytes::from(buf)), Err(ParseError::BadChecksum { .. })));
    }

    #[test]
    fn rejects_non_echo_types() {
        let mut buf = IcmpEcho::encode(true, 1, 1, b"").to_vec();
        buf[0] = 3; // destination unreachable
        assert!(matches!(
            IcmpEcho::parse(&Bytes::from(buf)),
            Err(ParseError::BadField { field: "type", .. })
        ));
    }

    proptest! {
        #[test]
        fn roundtrip_any_echo(
            is_request: bool, ident: u16, seq: u16,
            payload in proptest::collection::vec(any::<u8>(), 0..128),
        ) {
            let wire = IcmpEcho::encode(is_request, ident, seq, &payload);
            let e = IcmpEcho { is_request, ident, seq, payload: Bytes::from(payload) };
            prop_assert_eq!(IcmpEcho::parse(&wire).unwrap(), e);
        }

        #[test]
        fn parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = IcmpEcho::parse(&Bytes::from(bytes));
        }
    }
}
