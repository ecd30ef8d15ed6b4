//! Path-table entries and their two-state FSM.
//!
//! [`PathEntry`] is what the protocol code reads and writes;
//! `PackedEntry` is what the path table stores — the same entry in
//! one non-zero 32-bit word, so an occupied-or-empty value cell is
//! 4 bytes and a table probe drags as little memory as possible
//! through the cache.

use arppath_netsim::PortNo;
use std::num::NonZeroU32;

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
}

impl PathEntry {
    /// A fresh lock from a discovery broadcast.
    pub fn locked(port: PortNo) -> Self {
        PathEntry { port, state: EntryState::Locked }
    }

    /// A confirmed entry.
    pub fn learnt(port: PortNo) -> Self {
        PathEntry { port, state: EntryState::Learnt }
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
/// `Learnt`, bit 17 always set (so the word is never zero and
/// `Option<PackedEntry>` needs no tag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PackedEntry(NonZeroU32);

impl PackedEntry {
    const LEARNT: u32 = 1 << 16;
    const OCCUPIED: u32 = 1 << 17;

    /// The port field alone — all the link-down flush needs.
    pub(crate) fn port(self) -> PortNo {
        PortNo((self.0.get() & 0xffff) as usize)
    }

    pub(crate) fn unpack(self) -> PathEntry {
        let state =
            if self.0.get() & Self::LEARNT != 0 { EntryState::Learnt } else { EntryState::Locked };
        PathEntry { port: self.port(), state }
    }
}

impl From<PathEntry> for PackedEntry {
    fn from(entry: PathEntry) -> Self {
        let port = u16::try_from(entry.port.0).expect("ArpPathBridge::new bounds the port count");
        let state = match entry.state {
            EntryState::Locked => 0,
            EntryState::Learnt => Self::LEARNT,
        };
        let word = Self::OCCUPIED | u32::from(port) | state;
        PackedEntry(NonZeroU32::new(word).expect("the occupied bit is set"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_entry_fills_one_word_with_no_tag() {
        assert_eq!(std::mem::size_of::<Option<PackedEntry>>(), 4);
    }

    #[test]
    fn pack_unpack_round_trips_every_port_and_state() {
        for port in 0..MAX_PORTS {
            for state in [EntryState::Locked, EntryState::Learnt] {
                let entry = PathEntry { port: PortNo(port), state };
                let packed = PackedEntry::from(entry);
                assert_eq!(packed.unpack(), entry);
                assert_eq!(packed.port(), PortNo(port));
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
    }
}
