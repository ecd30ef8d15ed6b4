//! IEEE 802.2 LLC framing and 802.1D spanning-tree BPDUs.
//!
//! The STP baseline (the protocol the paper's demo compares against,
//! §3.1) exchanges these on the `01:80:c2:00:00:00` group address using
//! 802.3 length framing with the `0x42/0x42/0x03` LLC header.

use crate::{be16, be32, MacAddr, ParseError, ParseResult};
use std::fmt;

/// The three LLC octets in front of every BPDU.
pub const LLC_BPDU_HEADER: [u8; 3] = [0x42, 0x42, 0x03];

/// An 802.1D bridge identifier: 16-bit priority concatenated with the
/// bridge MAC address. Lower compares as *better* throughout STP, so the
/// derived ordering is exactly the protocol's preference order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BridgeId {
    /// Management-assigned priority (default 0x8000 in 802.1D).
    pub priority: u16,
    /// The bridge's base MAC address, the tiebreaker.
    pub mac: MacAddr,
}

impl BridgeId {
    /// Wire length.
    pub const LEN: usize = 8;
    /// The 802.1D default bridge priority.
    pub const DEFAULT_PRIORITY: u16 = 0x8000;

    /// Construct from priority and MAC.
    pub fn new(priority: u16, mac: MacAddr) -> Self {
        BridgeId { priority, mac }
    }

    /// Decode from 8 bytes.
    pub fn parse(buf: &[u8]) -> ParseResult<Self> {
        crate::need(buf, Self::LEN, "bridge-id")?;
        Ok(BridgeId { priority: be16(buf, 0), mac: MacAddr::parse(&buf[2..8])? })
    }

    /// Encode onto `out`.
    pub fn emit(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.priority.to_be_bytes());
        self.mac.emit(out);
    }
}

impl fmt::Display for BridgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04x}.{}", self.priority, self.mac)
    }
}

impl fmt::Debug for BridgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// An 802.1D port identifier: priority byte plus port number byte.
/// Lower is better, matching the standard's comparisons.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId16(pub u16);

impl PortId16 {
    /// Default port priority (0x80).
    pub const DEFAULT_PRIORITY: u8 = 0x80;

    /// Construct from a priority byte and a port number (1-based on the
    /// wire, as in the standard).
    pub fn new(priority: u8, number: u8) -> Self {
        PortId16(((priority as u16) << 8) | number as u16)
    }

    /// The priority byte.
    pub fn priority(&self) -> u8 {
        (self.0 >> 8) as u8
    }

    /// The port number byte.
    pub fn number(&self) -> u8 {
        (self.0 & 0xff) as u8
    }
}

impl fmt::Display for PortId16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02x}.{}", self.priority(), self.number())
    }
}

impl fmt::Debug for PortId16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Flag bits of a configuration BPDU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BpduFlags {
    /// Topology Change (bit 0).
    pub topology_change: bool,
    /// Topology Change Acknowledgement (bit 7).
    pub tc_ack: bool,
}

impl BpduFlags {
    fn to_u8(self) -> u8 {
        (self.topology_change as u8) | ((self.tc_ack as u8) << 7)
    }

    fn from_u8(v: u8) -> Self {
        BpduFlags { topology_change: v & 0x01 != 0, tc_ack: v & 0x80 != 0 }
    }
}

/// Protocol timer values carried in BPDUs, in units of 1/256 second as
/// on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BpduTime(pub u16);

impl BpduTime {
    /// Convert from whole seconds, saturating at the field width.
    pub fn from_secs(s: u32) -> Self {
        BpduTime((s * 256).min(u16::MAX as u32) as u16)
    }

    /// The value in nanoseconds (exact; 1/256 s = 3_906_250 ns).
    pub fn as_nanos(&self) -> u64 {
        self.0 as u64 * 3_906_250
    }

    /// Convert from nanoseconds, rounding to the nearest 1/256 s tick.
    pub fn from_nanos(ns: u64) -> Self {
        BpduTime(((ns + 1_953_125) / 3_906_250).min(u16::MAX as u64) as u16)
    }
}

/// A configuration BPDU (802.1D §9.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigBpdu {
    /// Topology-change flag bits.
    pub flags: BpduFlags,
    /// The transmitting bridge's idea of the root.
    pub root: BridgeId,
    /// Cost from the transmitting bridge to that root.
    pub root_path_cost: u32,
    /// The transmitting bridge.
    pub bridge: BridgeId,
    /// The transmitting port.
    pub port: PortId16,
    /// Age of the information since it left the root.
    pub message_age: BpduTime,
    /// Max age before stored info expires.
    pub max_age: BpduTime,
    /// Root's hello interval.
    pub hello_time: BpduTime,
    /// Root's forward delay.
    pub forward_delay: BpduTime,
}

impl ConfigBpdu {
    /// Wire length of the BPDU body (after LLC).
    pub const LEN: usize = 35;
}

/// Any BPDU the baseline speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bpdu {
    /// Periodic configuration BPDU.
    Config(ConfigBpdu),
    /// Topology Change Notification.
    Tcn,
}

impl Bpdu {
    /// Decode a BPDU from LLC framing (`buf` starts at the LLC header).
    pub fn parse(buf: &[u8]) -> ParseResult<Self> {
        crate::need(buf, 3 + 4, "bpdu")?;
        if buf[..3] != LLC_BPDU_HEADER {
            return Err(ParseError::BadField { what: "bpdu", field: "llc", value: buf[0] as u64 });
        }
        let b = &buf[3..];
        let proto = be16(b, 0);
        if proto != 0 {
            return Err(ParseError::BadField {
                what: "bpdu",
                field: "protocol",
                value: proto as u64,
            });
        }
        if b[2] != 0 {
            return Err(ParseError::BadField {
                what: "bpdu",
                field: "version",
                value: b[2] as u64,
            });
        }
        match b[3] {
            0x80 => Ok(Bpdu::Tcn),
            0x00 => {
                crate::need(b, ConfigBpdu::LEN, "bpdu-config")?;
                Ok(Bpdu::Config(ConfigBpdu {
                    flags: BpduFlags::from_u8(b[4]),
                    root: BridgeId::parse(&b[5..13])?,
                    root_path_cost: be32(b, 13),
                    bridge: BridgeId::parse(&b[17..25])?,
                    port: PortId16(be16(b, 25)),
                    message_age: BpduTime(be16(b, 27)),
                    max_age: BpduTime(be16(b, 29)),
                    hello_time: BpduTime(be16(b, 31)),
                    forward_delay: BpduTime(be16(b, 33)),
                }))
            }
            other => Err(ParseError::BadField { what: "bpdu", field: "type", value: other as u64 }),
        }
    }

    /// Encode (including the LLC header) onto `out`.
    pub fn emit(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&LLC_BPDU_HEADER);
        out.extend_from_slice(&[0, 0, 0]); // protocol id, version
        match self {
            Bpdu::Tcn => out.push(0x80),
            Bpdu::Config(c) => {
                out.push(0x00);
                out.push(c.flags.to_u8());
                c.root.emit(out);
                out.extend_from_slice(&c.root_path_cost.to_be_bytes());
                c.bridge.emit(out);
                out.extend_from_slice(&c.port.0.to_be_bytes());
                out.extend_from_slice(&c.message_age.0.to_be_bytes());
                out.extend_from_slice(&c.max_age.0.to_be_bytes());
                out.extend_from_slice(&c.hello_time.0.to_be_bytes());
                out.extend_from_slice(&c.forward_delay.0.to_be_bytes());
            }
        }
    }

    /// Wire length including LLC header.
    pub fn wire_len(&self) -> usize {
        match self {
            Bpdu::Tcn => 3 + 4,
            Bpdu::Config(_) => 3 + ConfigBpdu::LEN,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_config() -> ConfigBpdu {
        ConfigBpdu {
            flags: BpduFlags { topology_change: true, tc_ack: false },
            root: BridgeId::new(0x8000, MacAddr::from_index(2, 1)),
            root_path_cost: 8,
            bridge: BridgeId::new(0x8000, MacAddr::from_index(2, 3)),
            port: PortId16::new(0x80, 2),
            message_age: BpduTime::from_secs(1),
            max_age: BpduTime::from_secs(20),
            hello_time: BpduTime::from_secs(2),
            forward_delay: BpduTime::from_secs(15),
        }
    }

    #[test]
    fn config_roundtrip() {
        let bpdu = Bpdu::Config(sample_config());
        let mut buf = Vec::new();
        bpdu.emit(&mut buf);
        assert_eq!(buf.len(), bpdu.wire_len());
        assert_eq!(Bpdu::parse(&buf).unwrap(), bpdu);
    }

    #[test]
    fn tcn_roundtrip() {
        let mut buf = Vec::new();
        Bpdu::Tcn.emit(&mut buf);
        assert_eq!(Bpdu::parse(&buf).unwrap(), Bpdu::Tcn);
    }

    #[test]
    fn bridge_id_ordering_prefers_low_priority_then_low_mac() {
        let a = BridgeId::new(0x1000, MacAddr::from_index(2, 9));
        let b = BridgeId::new(0x8000, MacAddr::from_index(2, 1));
        let c = BridgeId::new(0x8000, MacAddr::from_index(2, 2));
        assert!(a < b, "lower priority wins regardless of mac");
        assert!(b < c, "equal priority falls back to mac");
    }

    #[test]
    fn bpdu_time_conversions() {
        assert_eq!(BpduTime::from_secs(2).0, 512);
        assert_eq!(BpduTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(BpduTime::from_nanos(2_000_000_000).0, 512);
        // Rounding to nearest tick.
        assert_eq!(BpduTime::from_nanos(3_906_250 / 2).0, 1);
    }

    #[test]
    fn rejects_bad_llc() {
        let mut buf = Vec::new();
        Bpdu::Tcn.emit(&mut buf);
        buf[0] = 0xAA; // SNAP instead of STP SAP
        assert!(matches!(Bpdu::parse(&buf), Err(ParseError::BadField { field: "llc", .. })));
    }

    #[test]
    fn rejects_unknown_type() {
        let mut buf = Vec::new();
        Bpdu::Tcn.emit(&mut buf);
        buf[6] = 0x42;
        assert!(matches!(Bpdu::parse(&buf), Err(ParseError::BadField { field: "type", .. })));
    }

    #[test]
    fn port_id_accessors() {
        let p = PortId16::new(0x80, 7);
        assert_eq!(p.priority(), 0x80);
        assert_eq!(p.number(), 7);
    }

    proptest! {
        #[test]
        fn roundtrip_any_config(
            tc: bool, tca: bool,
            rp: u16, rmac: [u8; 6], cost: u32,
            bp: u16, bmac: [u8; 6], port: u16,
            age: u16, max_age: u16, hello: u16, fwd: u16,
        ) {
            let bpdu = Bpdu::Config(ConfigBpdu {
                flags: BpduFlags { topology_change: tc, tc_ack: tca },
                root: BridgeId::new(rp, MacAddr(rmac)),
                root_path_cost: cost,
                bridge: BridgeId::new(bp, MacAddr(bmac)),
                port: PortId16(port),
                message_age: BpduTime(age),
                max_age: BpduTime(max_age),
                hello_time: BpduTime(hello),
                forward_delay: BpduTime(fwd),
            });
            let mut buf = Vec::new();
            bpdu.emit(&mut buf);
            prop_assert_eq!(Bpdu::parse(&buf).unwrap(), bpdu);
        }

        #[test]
        fn parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = Bpdu::parse(&bytes);
        }
    }
}
