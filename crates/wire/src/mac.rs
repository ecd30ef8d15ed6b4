//! IEEE 802 MAC addresses.

use crate::{ParseError, ParseResult};
use std::fmt;
use std::str::FromStr;

/// A 48-bit IEEE 802 MAC address.
///
/// The inner byte order is network order (the order the octets appear on
/// the wire). `MacAddr` is `Copy` and `Ord` so it can key forwarding
/// tables directly.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);
    /// The all-zero address, never valid as a source.
    pub const ZERO: MacAddr = MacAddr([0; 6]);
    /// Destination address of 802.1D BPDUs (`01:80:c2:00:00:00`).
    pub const STP_MULTICAST: MacAddr = MacAddr([0x01, 0x80, 0xc2, 0x00, 0x00, 0x00]);
    /// Wire length of a MAC address.
    pub const LEN: usize = 6;

    /// Build an address from its six octets.
    pub const fn new(b0: u8, b1: u8, b2: u8, b3: u8, b4: u8, b5: u8) -> Self {
        MacAddr([b0, b1, b2, b3, b4, b5])
    }

    /// Deterministically derive a locally-administered unicast address
    /// from a node index, used by topology builders to hand out distinct
    /// host and bridge MACs.
    ///
    /// The `0x02` bit marks the address locally administered, and the
    /// low 32 bits carry the index, so up to 2^32 nodes stay collision
    /// free.
    pub const fn from_index(kind: u8, index: u32) -> Self {
        let ix = index.to_be_bytes();
        MacAddr([0x02, kind, ix[0], ix[1], ix[2], ix[3]])
    }

    /// True when the group bit (I/G, least significant bit of the first
    /// octet) is set — multicast and broadcast addresses.
    pub fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// True for addresses usable as a unicast source.
    pub fn is_unicast(&self) -> bool {
        !self.is_multicast() && *self != Self::ZERO
    }

    /// Parse from a 6-byte slice.
    pub fn parse(buf: &[u8]) -> ParseResult<Self> {
        crate::need(buf, Self::LEN, "mac")?;
        let mut b = [0u8; 6];
        b.copy_from_slice(&buf[..6]);
        Ok(MacAddr(b))
    }

    /// Append the six octets to `out`.
    pub fn emit(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }

    /// The address as a `u64` (upper 16 bits zero), handy for compact
    /// table keys and hashing in the hardware model.
    pub fn to_u64(&self) -> u64 {
        let b = self.0;
        u64::from_be_bytes([0, 0, b[0], b[1], b[2], b[3], b[4], b[5]])
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(f, "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}", b[0], b[1], b[2], b[3], b[4], b[5])
    }
}

impl fmt::Debug for MacAddr {
    /// Forwarding to `Display` keeps simulator traces readable without a
    /// second formatting path.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl From<[u8; 6]> for MacAddr {
    fn from(b: [u8; 6]) -> Self {
        MacAddr(b)
    }
}

impl FromStr for MacAddr {
    type Err = ParseError;

    /// Accepts the canonical colon-separated form, e.g. `02:00:00:00:00:2a`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut out = [0u8; 6];
        let mut parts = s.split(':');
        for slot in out.iter_mut() {
            let part =
                parts.next().ok_or(ParseError::Truncated { what: "mac-str", need: 6, have: 0 })?;
            *slot = u8::from_str_radix(part, 16).map_err(|_| ParseError::BadField {
                what: "mac-str",
                field: "octet",
                value: 0,
            })?;
        }
        if parts.next().is_some() {
            return Err(ParseError::BadField { what: "mac-str", field: "extra", value: 0 });
        }
        Ok(MacAddr(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_is_multicast() {
        assert!(MacAddr::BROADCAST.is_multicast());
        assert!(!MacAddr::BROADCAST.is_unicast());
    }

    #[test]
    fn stp_group_address_is_multicast_not_broadcast() {
        assert!(MacAddr::STP_MULTICAST.is_multicast());
        assert_ne!(MacAddr::STP_MULTICAST, MacAddr::BROADCAST);
    }

    #[test]
    fn zero_is_not_unicast() {
        assert!(!MacAddr::ZERO.is_unicast());
        assert!(!MacAddr::ZERO.is_multicast());
    }

    #[test]
    fn from_index_is_unicast_local_and_distinct() {
        let a = MacAddr::from_index(0xaa, 1);
        let b = MacAddr::from_index(0xaa, 2);
        let c = MacAddr::from_index(0xbb, 1);
        assert!(a.is_unicast());
        assert_eq!(a.0[0] & 0x02, 0x02, "locally administered");
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn display_round_trips_through_fromstr() {
        let a = MacAddr::new(0x02, 0xaa, 0x00, 0x12, 0x34, 0x56);
        let s = a.to_string();
        assert_eq!(s, "02:aa:00:12:34:56");
        assert_eq!(s.parse::<MacAddr>().unwrap(), a);
    }

    #[test]
    fn parse_rejects_short_buffer() {
        assert!(matches!(
            MacAddr::parse(&[1, 2, 3]),
            Err(ParseError::Truncated { what: "mac", .. })
        ));
    }

    #[test]
    fn fromstr_rejects_garbage() {
        assert!("zz:00:00:00:00:00".parse::<MacAddr>().is_err());
        assert!("02:00:00:00:00".parse::<MacAddr>().is_err());
        assert!("02:00:00:00:00:00:00".parse::<MacAddr>().is_err());
    }

    #[test]
    fn to_u64_preserves_order() {
        let lo = MacAddr::new(0, 0, 0, 0, 0, 1);
        let hi = MacAddr::new(0, 0, 0, 0, 1, 0);
        assert!(lo.to_u64() < hi.to_u64());
    }
}
