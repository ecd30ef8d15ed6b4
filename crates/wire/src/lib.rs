//! Wire formats for the ARP-Path reproduction.
//!
//! This crate provides owned, validated representations of every frame
//! format the simulated network carries:
//!
//! * [`EthernetFrame`] — Ethernet II framing (untagged).
//! * [`ArpPacket`] — RFC 826 ARP over Ethernet/IPv4.
//! * [`Ipv4Packet`] / [`UdpDatagram`] / [`IcmpEcho`] — the minimal IP stack
//!   the host model speaks (enough for ping and UDP streaming workloads).
//! * [`Bpdu`] — IEEE 802.1D configuration and TCN BPDUs in LLC framing,
//!   used by the spanning-tree baseline.
//! * [`PathCtl`] — ARP-Path control messages (`BridgeHello`, `PathFail`,
//!   `PathRequest`, `PathReply`) carried in a local-experimental EtherType
//!   so that unmodified hosts silently ignore them.
//! * [`pcap`] — a minimal libpcap writer so simulated traces can be opened
//!   in Wireshark.
//!
//! # Design
//!
//! Following the smoltcp school: parsing is *total* (every byte pattern
//! either yields a value or a typed [`ParseError`]; no panics), encoding
//! is infallible, and each format has one encoder and one decoder whose
//! composition is the identity: [`EthernetFrame::parse_bytes`] ∘
//! [`EthernetFrame::emit`] for frames (IPv4 packets included),
//! [`UdpDatagram::parse`] ∘ [`UdpDatagram::encode`] and
//! [`IcmpEcho::parse`] ∘ [`IcmpEcho::encode`] for the transports, and
//! `parse ∘ emit` for ARP, PathCtl, BPDUs and MAC addresses — properties
//! enforced by proptest round-trip suites in every module.
//!
//! Frames are owned structs rather than views over borrowed buffers: the
//! simulator clones frames at flood fan-out points, and `bytes::Bytes`
//! payloads make those clones reference-counted and cheap.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arp;
pub mod ethertype;
pub mod frame;
pub mod icmp;
pub mod ipv4;
pub mod llc;
pub mod mac;
pub mod pathctl;
pub mod pcap;
pub mod udp;

pub use arp::{ArpOp, ArpPacket};
pub use ethertype::EtherType;
pub use frame::{EthernetFrame, Payload};
pub use icmp::IcmpEcho;
pub use ipv4::{IpProto, Ipv4Packet};
pub use llc::{Bpdu, BpduFlags, BridgeId, ConfigBpdu, PortId16};
pub use mac::MacAddr;
pub use pathctl::{PathCtl, PathCtlKind};
pub use udp::UdpDatagram;

use std::fmt;

/// Error raised when a byte buffer cannot be decoded as the expected
/// protocol data unit.
///
/// Every variant identifies *what* was malformed so that switch and host
/// code can count distinct drop causes, mirroring how real forwarding
/// planes expose per-reason drop counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Buffer shorter than the fixed header of the PDU being decoded.
    Truncated {
        /// Protocol layer that was being decoded.
        what: &'static str,
        /// Bytes required by the fixed part of the header.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// A field held a value the decoder does not accept.
    BadField {
        /// Protocol layer that was being decoded.
        what: &'static str,
        /// Field name within that layer.
        field: &'static str,
        /// Offending value, widened for display.
        value: u64,
    },
    /// An internet-style checksum failed verification.
    BadChecksum {
        /// Protocol layer whose checksum failed.
        what: &'static str,
    },
    /// The frame nests a payload whose declared length exceeds the bytes
    /// actually present.
    LengthMismatch {
        /// Protocol layer that was being decoded.
        what: &'static str,
        /// Length declared in the header.
        declared: usize,
        /// Bytes actually present.
        actual: usize,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Truncated { what, need, have } => {
                write!(f, "{what}: truncated ({have} bytes, need {need})")
            }
            ParseError::BadField { what, field, value } => {
                write!(f, "{what}: field {field} has unsupported value {value:#x}")
            }
            ParseError::BadChecksum { what } => write!(f, "{what}: checksum mismatch"),
            ParseError::LengthMismatch { what, declared, actual } => {
                write!(f, "{what}: declared length {declared} exceeds available {actual}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Convenience alias used by all decoders in this crate.
pub type ParseResult<T> = Result<T, ParseError>;

/// Read a big-endian `u16` at `offset`; caller guarantees bounds.
#[inline]
pub(crate) fn be16(buf: &[u8], offset: usize) -> u16 {
    u16::from_be_bytes([buf[offset], buf[offset + 1]])
}

/// Read a big-endian `u32` at `offset`; caller guarantees bounds.
#[inline]
pub(crate) fn be32(buf: &[u8], offset: usize) -> u32 {
    u32::from_be_bytes([buf[offset], buf[offset + 1], buf[offset + 2], buf[offset + 3]])
}

/// Guard that `buf` holds at least `need` bytes for layer `what`.
#[inline]
pub(crate) fn need(buf: &[u8], need: usize, what: &'static str) -> ParseResult<()> {
    if buf.len() < need {
        Err(ParseError::Truncated { what, need, have: buf.len() })
    } else {
        Ok(())
    }
}
