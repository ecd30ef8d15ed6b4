//! Path-table entries and their two-state FSM.
//!
//! [`PathEntry`] is what the protocol code reads and writes;
//! `PackedEntry` is what the path table stores — the same entry in
//! one non-zero 64-bit word, so an occupied-or-empty value cell is
//! 8 bytes instead of 24 and a table probe drags a third as much
//! memory through the cache.

use arppath_netsim::PortNo;
use std::num::NonZeroU64;

/// The state of a path-table entry (paper §2.1.1–§2.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntryState {
    /// Set by the first copy of a path-discovering broadcast (ARP
    /// Request / PathRequest). While locked, copies of the flood
    /// arriving on other ports are discarded — they lost the race.
    Locked,
    /// Confirmed by a path-establishing unicast (ARP Reply / PathReply)
    /// travelling the locked chain; long-lived, refreshed by use.
    Learnt,
}

/// One entry of the path table: where frames *toward* `mac` leave this
/// bridge — equivalently, the port on which `mac`'s winning frame
/// arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathEntry {
    /// Port toward the station.
    pub port: PortNo,
    /// Lock/learnt state.
    pub state: EntryState,
    /// For `Locked` entries created by a *repair* flood: the repair
    /// nonce, so rival copies of the same PathRequest wave are
    /// distinguished from unrelated discoveries. `None` for locks
    /// created by host ARP traffic.
    pub flood_nonce: Option<u32>,
}

impl PathEntry {
    /// A fresh lock from a host-originated broadcast.
    pub fn locked(port: PortNo) -> Self {
        PathEntry { port, state: EntryState::Locked, flood_nonce: None }
    }

    /// A fresh lock from a repair flood carrying `nonce`.
    pub fn repair_locked(port: PortNo, nonce: u32) -> Self {
        PathEntry { port, state: EntryState::Locked, flood_nonce: Some(nonce) }
    }

    /// A confirmed entry.
    pub fn learnt(port: PortNo) -> Self {
        PathEntry { port, state: EntryState::Learnt, flood_nonce: None }
    }

    /// True while in the locked (race-window) state.
    pub fn is_locked(&self) -> bool {
        self.state == EntryState::Locked
    }
}

/// Ports a packed entry can name (the port field is 16 bits wide);
/// [`ArpPathBridge::new`](crate::ArpPathBridge::new) refuses bridges
/// with more.
pub(crate) const MAX_PORTS: usize = 1 << 16;

/// A [`PathEntry`] in one word: port in bits 0–15, bit 16 set for
/// `Learnt`, bit 17 set when a repair nonce is present, bit 18 always
/// set (so the word is never zero and `Option<PackedEntry>` needs no
/// tag), nonce in bits 32–63.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PackedEntry(NonZeroU64);

impl PackedEntry {
    const LEARNT: u64 = 1 << 16;
    const HAS_NONCE: u64 = 1 << 17;
    const OCCUPIED: u64 = 1 << 18;

    /// The port field alone — all the link-down flush needs.
    pub(crate) fn port(self) -> PortNo {
        PortNo((self.0.get() & 0xffff) as usize)
    }

    pub(crate) fn unpack(self) -> PathEntry {
        let word = self.0.get();
        PathEntry {
            port: self.port(),
            state: if word & Self::LEARNT != 0 { EntryState::Learnt } else { EntryState::Locked },
            flood_nonce: (word & Self::HAS_NONCE != 0).then_some((word >> 32) as u32),
        }
    }
}

impl From<PathEntry> for PackedEntry {
    fn from(entry: PathEntry) -> Self {
        let port = u16::try_from(entry.port.0).expect("ArpPathBridge::new bounds the port count");
        let state = match entry.state {
            EntryState::Locked => 0,
            EntryState::Learnt => Self::LEARNT,
        };
        let nonce = entry.flood_nonce.map_or(0, |n| Self::HAS_NONCE | u64::from(n) << 32);
        let word = Self::OCCUPIED | u64::from(port) | state | nonce;
        PackedEntry(NonZeroU64::new(word).expect("the occupied bit is set"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_entry_fills_one_word_with_no_tag() {
        assert_eq!(std::mem::size_of::<Option<PackedEntry>>(), 8);
    }

    #[test]
    fn pack_unpack_round_trips_every_port_state_and_nonce() {
        for port in 0..MAX_PORTS {
            for state in [EntryState::Locked, EntryState::Learnt] {
                for flood_nonce in [None, Some(0), Some(u32::MAX)] {
                    let entry = PathEntry { port: PortNo(port), state, flood_nonce };
                    let packed = PackedEntry::from(entry);
                    assert_eq!(packed.unpack(), entry);
                    assert_eq!(packed.port(), PortNo(port));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "bounds the port count")]
    fn a_port_past_the_field_is_refused_not_truncated() {
        let _ = PackedEntry::from(PathEntry::locked(PortNo(MAX_PORTS)));
    }

    #[test]
    fn constructors_set_states() {
        assert!(PathEntry::locked(PortNo(1)).is_locked());
        assert!(!PathEntry::learnt(PortNo(1)).is_locked());
        let r = PathEntry::repair_locked(PortNo(2), 7);
        assert!(r.is_locked());
        assert_eq!(r.flood_nonce, Some(7));
        assert_eq!(PathEntry::locked(PortNo(1)).flood_nonce, None);
    }
}
