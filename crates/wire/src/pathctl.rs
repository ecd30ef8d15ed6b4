//! ARP-Path control messages (paper §2.1.4).
//!
//! Path repair "emulates an ARP exchange to establish a new path, using
//! PathFail, PathRequest, and PathReply messages". These ride in
//! EtherType [`crate::EtherType::ARPPATH_CTL`] (IEEE local experimental
//! 0x88B5): unmodified hosts drop them silently, preserving the
//! protocol's transparency guarantee.
//!
//! A fourth message, `BridgeHello`, is our documented realization
//! detail: a one-hop periodic beacon that lets a bridge classify
//! each port as *core* (another ARP-Path bridge answers) or *edge*
//! (hosts only). Edge knowledge is what lets the source edge bridge
//! convert a `PathFail` into a flooded `PathRequest`, and the destination
//! edge bridge answer with a `PathReply`, without any host cooperation.
//! The beacon carries no topology information whatsoever — no spanning
//! tree, no link state — so the paper's "no ancillary routing protocol"
//! claim is intact.

use crate::{be32, MacAddr, ParseError, ParseResult};
use std::fmt;

/// Protocol version carried in every control message.
pub const PATHCTL_VERSION: u8 = 1;

/// Initial hop limit of freshly originated control messages.
pub const PATHCTL_INITIAL_TTL: u8 = 64;

/// Discriminates the four ARP-Path control messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathCtlKind {
    /// One-hop beacon for core/edge port classification.
    BridgeHello,
    /// Unicast notification toward the source host's edge bridge that a
    /// path broke at `origin`.
    PathFail,
    /// Flooded re-discovery frame, processed exactly like an ARP Request.
    PathRequest,
    /// Unicast confirmation, processed exactly like an ARP Reply.
    PathReply,
}

impl PathCtlKind {
    fn to_u8(self) -> u8 {
        match self {
            PathCtlKind::BridgeHello => 1,
            PathCtlKind::PathFail => 2,
            PathCtlKind::PathRequest => 3,
            PathCtlKind::PathReply => 4,
        }
    }

    fn from_u8(v: u8) -> ParseResult<Self> {
        match v {
            1 => Ok(PathCtlKind::BridgeHello),
            2 => Ok(PathCtlKind::PathFail),
            3 => Ok(PathCtlKind::PathRequest),
            4 => Ok(PathCtlKind::PathReply),
            other => {
                Err(ParseError::BadField { what: "pathctl", field: "kind", value: other as u64 })
            }
        }
    }
}

/// An ARP-Path control message.
///
/// All four kinds share one fixed-size body so hardware can parse them
/// with a single template: the (source host, destination host) pair the
/// repair concerns, the bridge that originated the message, and a nonce
/// correlating one repair round end-to-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathCtl {
    /// Which message this is.
    pub kind: PathCtlKind,
    /// The host whose traffic hit the failure (`S` in the paper's
    /// notation). For `BridgeHello` this is zero.
    pub src_host: MacAddr,
    /// The host the broken path led to (`D`). For `BridgeHello`: zero.
    pub dst_host: MacAddr,
    /// The bridge that generated this message (failure detector for
    /// `PathFail`, source edge bridge for `PathRequest`, destination
    /// edge bridge for `PathReply`, the beaconing bridge for `Hello`).
    pub origin: MacAddr,
    /// Correlates the messages of one repair episode; `Hello` uses it as
    /// a monotonically increasing beacon sequence number.
    pub nonce: u32,
    /// Hop limit, decremented by each relaying bridge; a message at 0
    /// is discarded. Purely defensive: the lock/nonce rules already
    /// prevent loops, but a hop limit bounds the damage of any state
    /// corruption (and real deployments would not ship without one).
    pub ttl: u8,
}

impl PathCtl {
    /// Wire length of the message body (after the EtherType).
    pub const LEN: usize = 2 + 6 * 3 + 4 + 1;

    /// Build a beacon message for `bridge` with sequence `seq`.
    pub fn hello(bridge: MacAddr, seq: u32) -> Self {
        PathCtl {
            kind: PathCtlKind::BridgeHello,
            src_host: MacAddr::ZERO,
            dst_host: MacAddr::ZERO,
            origin: bridge,
            nonce: seq,
            ttl: PATHCTL_INITIAL_TTL,
        }
    }

    /// Build a `PathFail` reported by `origin` for the `src → dst` flow.
    pub fn fail(src_host: MacAddr, dst_host: MacAddr, origin: MacAddr, nonce: u32) -> Self {
        PathCtl {
            kind: PathCtlKind::PathFail,
            src_host,
            dst_host,
            origin,
            nonce,
            ttl: PATHCTL_INITIAL_TTL,
        }
    }

    /// Build the flooded `PathRequest` the source edge bridge emits.
    pub fn request(src_host: MacAddr, dst_host: MacAddr, origin: MacAddr, nonce: u32) -> Self {
        PathCtl {
            kind: PathCtlKind::PathRequest,
            src_host,
            dst_host,
            origin,
            nonce,
            ttl: PATHCTL_INITIAL_TTL,
        }
    }

    /// Build the `PathReply` the destination edge bridge answers with.
    pub fn reply(src_host: MacAddr, dst_host: MacAddr, origin: MacAddr, nonce: u32) -> Self {
        PathCtl {
            kind: PathCtlKind::PathReply,
            src_host,
            dst_host,
            origin,
            nonce,
            ttl: PATHCTL_INITIAL_TTL,
        }
    }

    /// Decode from `buf` (trailing padding tolerated).
    pub fn parse(buf: &[u8]) -> ParseResult<Self> {
        crate::need(buf, Self::LEN, "pathctl")?;
        if buf[0] != PATHCTL_VERSION {
            return Err(ParseError::BadField {
                what: "pathctl",
                field: "version",
                value: buf[0] as u64,
            });
        }
        Ok(PathCtl {
            kind: PathCtlKind::from_u8(buf[1])?,
            src_host: MacAddr::parse(&buf[2..8])?,
            dst_host: MacAddr::parse(&buf[8..14])?,
            origin: MacAddr::parse(&buf[14..20])?,
            nonce: be32(buf, 20),
            ttl: buf[24],
        })
    }

    /// Encode onto `out`.
    pub fn emit(&self, out: &mut Vec<u8>) {
        out.push(PATHCTL_VERSION);
        out.push(self.kind.to_u8());
        self.src_host.emit(out);
        self.dst_host.emit(out);
        self.origin.emit(out);
        out.extend_from_slice(&self.nonce.to_be_bytes());
        out.push(self.ttl);
    }

    /// The message with its hop limit decremented, or `None` when the
    /// limit is exhausted and the message must be discarded.
    pub fn decremented(&self) -> Option<PathCtl> {
        if self.ttl <= 1 {
            return None;
        }
        Some(PathCtl { ttl: self.ttl - 1, ..*self })
    }
}

impl fmt::Display for PathCtl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            PathCtlKind::BridgeHello => write!(f, "hello from {} seq {}", self.origin, self.nonce),
            PathCtlKind::PathFail => write!(
                f,
                "path-fail {}->{} detected at {} (#{})",
                self.src_host, self.dst_host, self.origin, self.nonce
            ),
            PathCtlKind::PathRequest => write!(
                f,
                "path-request {}->{} from edge {} (#{})",
                self.src_host, self.dst_host, self.origin, self.nonce
            ),
            PathCtlKind::PathReply => write!(
                f,
                "path-reply {}->{} from edge {} (#{})",
                self.src_host, self.dst_host, self.origin, self.nonce
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn macs() -> (MacAddr, MacAddr, MacAddr) {
        (MacAddr::from_index(1, 10), MacAddr::from_index(1, 20), MacAddr::from_index(2, 3))
    }

    #[test]
    fn constructors_set_kind() {
        let (s, d, b) = macs();
        assert_eq!(PathCtl::hello(b, 1).kind, PathCtlKind::BridgeHello);
        assert_eq!(PathCtl::fail(s, d, b, 1).kind, PathCtlKind::PathFail);
        assert_eq!(PathCtl::request(s, d, b, 1).kind, PathCtlKind::PathRequest);
        assert_eq!(PathCtl::reply(s, d, b, 1).kind, PathCtlKind::PathReply);
    }

    #[test]
    fn hello_zeroes_host_fields() {
        let h = PathCtl::hello(MacAddr::from_index(2, 5), 42);
        assert_eq!(h.src_host, MacAddr::ZERO);
        assert_eq!(h.dst_host, MacAddr::ZERO);
        assert_eq!(h.nonce, 42);
    }

    #[test]
    fn parse_emit_identity() {
        let (s, d, b) = macs();
        for msg in [
            PathCtl::hello(b, 7),
            PathCtl::fail(s, d, b, 8),
            PathCtl::request(s, d, b, 9),
            PathCtl::reply(d, s, b, 10),
        ] {
            let mut buf = Vec::new();
            msg.emit(&mut buf);
            assert_eq!(buf.len(), PathCtl::LEN);
            assert_eq!(PathCtl::parse(&buf).unwrap(), msg);
        }
    }

    #[test]
    fn padding_tolerated() {
        let (s, d, b) = macs();
        let msg = PathCtl::request(s, d, b, 3);
        let mut buf = Vec::new();
        msg.emit(&mut buf);
        buf.resize(46, 0);
        assert_eq!(PathCtl::parse(&buf).unwrap(), msg);
    }

    #[test]
    fn rejects_future_version() {
        let (s, d, b) = macs();
        let mut buf = Vec::new();
        PathCtl::fail(s, d, b, 1).emit(&mut buf);
        buf[0] = 9;
        assert!(matches!(PathCtl::parse(&buf), Err(ParseError::BadField { field: "version", .. })));
    }

    #[test]
    fn rejects_unknown_kind() {
        let (s, d, b) = macs();
        let mut buf = Vec::new();
        PathCtl::fail(s, d, b, 1).emit(&mut buf);
        buf[1] = 0xee;
        assert!(matches!(PathCtl::parse(&buf), Err(ParseError::BadField { field: "kind", .. })));
    }

    proptest! {
        #[test]
        fn roundtrip_any_message(
            kind in 1u8..=4,
            s: [u8; 6], d: [u8; 6], o: [u8; 6], nonce: u32, ttl: u8,
        ) {
            let msg = PathCtl {
                kind: PathCtlKind::from_u8(kind).unwrap(),
                src_host: MacAddr(s),
                dst_host: MacAddr(d),
                origin: MacAddr(o),
                nonce,
                ttl,
            };
            let mut buf = Vec::new();
            msg.emit(&mut buf);
            prop_assert_eq!(PathCtl::parse(&buf).unwrap(), msg);
        }

        #[test]
        fn parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = PathCtl::parse(&bytes);
        }
    }
}
