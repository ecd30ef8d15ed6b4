//! EtherType values.

use std::fmt;

/// An Ethernet II EtherType (or, for values below 0x0600, an 802.3
/// length field).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EtherType(pub u16);

impl EtherType {
    /// IPv4, RFC 894.
    pub const IPV4: EtherType = EtherType(0x0800);
    /// ARP, RFC 826.
    pub const ARP: EtherType = EtherType(0x0806);
    /// IEEE local-experimental EtherType 1 (0x88B5), carrying the
    /// ARP-Path control messages. Unmodified hosts drop it, which is how
    /// the protocol stays transparent (paper §2.2 "zero configuration").
    pub const ARPPATH_CTL: EtherType = EtherType(0x88B5);

    /// Values below this are 802.3 length fields, not EtherTypes.
    pub const MIN_ETHERTYPE: u16 = 0x0600;

    /// True if the value is a genuine EtherType rather than a length.
    pub fn is_ethertype(&self) -> bool {
        self.0 >= Self::MIN_ETHERTYPE
    }
}

impl fmt::Display for EtherType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EtherType::IPV4 => write!(f, "ipv4"),
            EtherType::ARP => write!(f, "arp"),
            EtherType::ARPPATH_CTL => write!(f, "arppath-ctl"),
            EtherType(other) => write!(f, "ethertype({other:#06x})"),
        }
    }
}

impl fmt::Debug for EtherType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl From<u16> for EtherType {
    fn from(v: u16) -> Self {
        EtherType(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_values() {
        assert_eq!(EtherType::IPV4.0, 0x0800);
        assert_eq!(EtherType::ARP.0, 0x0806);
        assert_eq!(EtherType::ARPPATH_CTL.0, 0x88B5);
    }

    #[test]
    fn length_vs_type_discrimination() {
        assert!(!EtherType(0x0026).is_ethertype());
        assert!(EtherType(0x0600).is_ethertype());
        assert!(EtherType::IPV4.is_ethertype());
    }

    #[test]
    fn display_names() {
        assert_eq!(EtherType::ARP.to_string(), "arp");
        assert_eq!(EtherType(0x1234).to_string(), "ethertype(0x1234)");
    }
}
