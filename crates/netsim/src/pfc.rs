//! PFC pause/resume control frames.
//!
//! When a link queue under [`crate::QueuePolicy::Pfc`] crosses its
//! pause threshold, the engine synthesizes an 802.3x-flavoured pause
//! frame out of every *other* cabled port of the congested device —
//! the ports its traffic is arriving through — and a resume frame
//! (quanta 0) once the queue drains. The frames are real traffic: they
//! occupy line time, queue behind data, propagate, and cross shard
//! boundaries through the ordinary boundary machinery, which is what
//! keeps sharded runs byte-identical to single-threaded ones. At the
//! receiving end the *engine* intercepts them (devices never see a
//! pause frame, exactly like a standard NIC MAC) and halts that port's
//! transmitter until the matching resume arrives.
//!
//! Every field is constant — notably the source address, which is a
//! fixed locally-administered MAC rather than anything derived from a
//! node id, because shard-local node ids differ from global ones and
//! the frame bytes land in delivery-trace digests.

use arppath_wire::{EtherType, EthernetFrame, MacAddr, Payload};
use bytes::Bytes;

/// The IEEE 802.3x flow-control EtherType.
pub const FLOW_CONTROL_ETHERTYPE: EtherType = EtherType(0x8808);

/// The reserved multicast address pause frames are sent to
/// (01-80-C2-00-00-01); bridges never forward it.
pub const PAUSE_DST: MacAddr = MacAddr::new(0x01, 0x80, 0xC2, 0x00, 0x00, 0x01);

/// Constant source MAC of engine-synthesized pause frames (locally
/// administered, spells "PFC").
pub const PAUSE_SRC: MacAddr = MacAddr::new(0x02, 0x00, 0x50, 0x46, 0x43, 0x00);

/// MAC control opcode carried in the payload (0x0101, priority pause).
const OPCODE: [u8; 2] = [0x01, 0x01];

/// What an intercepted flow-control frame asks of the transmitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PfcOp {
    /// Halt after the in-flight frame (quanta != 0).
    Pause,
    /// Release the halt (quanta == 0).
    Resume,
}

fn control_frame(quanta: u16) -> EthernetFrame {
    let data = [OPCODE[0], OPCODE[1], (quanta >> 8) as u8, quanta as u8];
    EthernetFrame {
        dst: PAUSE_DST,
        src: PAUSE_SRC,
        payload: Payload::Raw {
            ethertype: FLOW_CONTROL_ETHERTYPE,
            data: Bytes::copy_from_slice(&data),
        },
    }
}

/// A pause frame (maximum quanta).
pub fn pause_frame() -> EthernetFrame {
    control_frame(0xFFFF)
}

/// A resume frame (zero quanta).
pub fn resume_frame() -> EthernetFrame {
    control_frame(0)
}

/// The trace marker a pause-watchdog fire leaves behind.
///
/// A watchdog fire is a local decision of the stuck transmitter, not a
/// frame that arrived off the wire — but it must still be visible in
/// delivery traces, and identically so in single-threaded and sharded
/// runs. The engine therefore synthesizes this constant-byte frame as
/// a `Delivered` trace event at the transmitter's own endpoint when
/// the watchdog fires. The opcode deliberately differs from the real
/// pause/resume opcode so [`classify`] never mistakes it for wire flow
/// control ([`classify`] returns `None` for it); it exists only in
/// traces and counters.
pub fn watchdog_resume_frame() -> EthernetFrame {
    // Opcode 0x0102 (unused by 802.3x), payload spells "WD".
    let data = [0x01, 0x02, 0x57, 0x44];
    EthernetFrame {
        dst: PAUSE_DST,
        src: PAUSE_SRC,
        payload: Payload::Raw {
            ethertype: FLOW_CONTROL_ETHERTYPE,
            data: Bytes::copy_from_slice(&data),
        },
    }
}

/// Recognize a flow-control frame, returning the operation it carries.
pub fn classify(frame: &EthernetFrame) -> Option<PfcOp> {
    if frame.dst != PAUSE_DST {
        return None;
    }
    match &frame.payload {
        Payload::Raw { ethertype, data }
            if *ethertype == FLOW_CONTROL_ETHERTYPE && data.len() >= 4 && data[..2] == OPCODE =>
        {
            if data[2] == 0 && data[3] == 0 {
                Some(PfcOp::Resume)
            } else {
                Some(PfcOp::Pause)
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_classify_round_trip() {
        assert_eq!(classify(&pause_frame()), Some(PfcOp::Pause));
        assert_eq!(classify(&resume_frame()), Some(PfcOp::Resume));
        assert_eq!(
            classify(&watchdog_resume_frame()),
            None,
            "watchdog markers are trace-only, never wire flow control"
        );
    }

    #[test]
    fn frames_survive_the_wire_codec() {
        // Cross-shard transport serializes frames to bytes; the
        // classification must survive the round trip.
        for (frame, op) in [(pause_frame(), PfcOp::Pause), (resume_frame(), PfcOp::Resume)] {
            let bytes = Bytes::from(frame.to_bytes());
            let parsed = EthernetFrame::parse_bytes(&bytes).expect("pause frame parses");
            assert_eq!(classify(&parsed), Some(op));
            assert_eq!(parsed.to_bytes(), frame.to_bytes());
        }
    }

    #[test]
    fn data_frames_do_not_classify() {
        use arppath_wire::ArpPacket;
        use std::net::Ipv4Addr;
        let arp = EthernetFrame::arp_request(
            MacAddr::from_index(1, 1),
            ArpPacket::request(
                MacAddr::from_index(1, 1),
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
            ),
        );
        assert_eq!(classify(&arp), None);
        assert!(pause_frame().is_flooded(), "pause dst is multicast");
    }
}
