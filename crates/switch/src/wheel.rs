//! The aging scrubber's deadline queue: the software analogue of the
//! NetFPGA background aging scrubber.
//!
//! The paper's hardware ages table entries with a scrubber that walks
//! the table continuously in the background, so expiry work never sits
//! on the lookup path. A `BTreeMap` sweep is the opposite: O(table) per
//! sweep, all of it on the caller. [`DeadlineHeap`] keeps the scrubber's
//! shape with the plainest structure that has it: one binary min-heap
//! of [`TimerEntry`] deadlines ordered by `(fires, slot, gen)`. Filing
//! is O(log n), each due entry is one pop, and finding that nothing is
//! due — the common case on a flooding bridge whose deadlines are all
//! half a second out — is one look at the heap's top.
//!
//! The heap holds one entry per pending deadline and nothing else: no
//! fixed spine, no bucket storage left behind after a drain, no delivery
//! buffer. It replaced a hierarchical timer wheel (8 levels × 64
//! buckets) whose spine and drained-bucket storage were most of a small
//! table's bytes and which timed no faster end to end (BASELINES.md,
//! "Aging with one deadline heap").
//!
//! # Lazy revalidation
//!
//! Entries are *hints*, not authority. Each carries the flat slot index
//! it was filed for and the slot's generation stamp at filing time; the
//! table owning the slots revalidates on delivery (wrong generation →
//! the slot was vacated or re-keyed since, ignore; expiry extended
//! since → re-file at the new instant). This is what lets
//! [`touch`](crate::dleft::DLeftTable::touch) extend a deadline without
//! finding and moving the old entry — the stale entry fires early,
//! fails revalidation against the live expiry, and is re-filed.

use arppath_netsim::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One filed deadline: *slot `slot` of the owning table, generation
/// `gen`, expected to expire at `fires`*. Ordered by `fires`, then
/// `slot`, then `gen` — the order the heap hands entries back in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TimerEntry {
    /// Expiry instant recorded when the entry was filed (the slot's
    /// live expiry may have moved later since; revalidate).
    pub fires: SimTime,
    /// Flat slot index in the owning table.
    pub slot: u32,
    /// The slot's generation when filed; a vacate/re-key bumps the
    /// slot's generation and strands this entry.
    pub gen: u32,
}

/// The scrubber's pending deadlines, earliest on top.
#[derive(Debug, Clone, Default)]
pub struct DeadlineHeap {
    heap: BinaryHeap<Reverse<TimerEntry>>,
}

/// The name `benchmark/`'s layer replay imports; the same type.
pub type TimerWheel = DeadlineHeap;

impl DeadlineHeap {
    /// Number of filed entries, stale ones included.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is filed.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Heap footprint in bytes: the entry storage. Folded into
    /// [`DLeftTable::heap_bytes`](crate::DLeftTable::heap_bytes) for
    /// the bytes-per-station accounting.
    pub fn heap_bytes(&self) -> usize {
        self.heap.capacity() * std::mem::size_of::<TimerEntry>()
    }

    /// File a deadline. One already past comes back on the next
    /// [`pop_due`](DeadlineHeap::pop_due).
    pub fn insert(&mut self, fires: SimTime, slot: u32, gen: u32) {
        self.heap.push(Reverse(TimerEntry { fires, slot, gen }));
    }

    /// Take the earliest entry if it fires at or before `now`. When
    /// nothing is due this reads the top and changes nothing.
    #[inline]
    pub fn pop_due(&mut self, now: SimTime) -> Option<TimerEntry> {
        if self.heap.peek()?.0.fires > now {
            return None;
        }
        self.heap.pop().map(|Reverse(entry)| entry)
    }

    /// Push every entry that fires at or before `now` onto `due`,
    /// earliest first.
    pub fn advance(&mut self, now: SimTime, due: &mut Vec<TimerEntry>) {
        while let Some(entry) = self.pop_due(now) {
            due.push(entry);
        }
    }

    /// Drop every filed entry.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime(ns)
    }

    fn drain(h: &mut DeadlineHeap, now: u64) -> Vec<u32> {
        let mut due = Vec::new();
        h.advance(t(now), &mut due);
        due.iter().map(|e| e.slot).collect()
    }

    #[test]
    fn due_entries_come_back_on_advance() {
        let mut h = DeadlineHeap::default();
        h.insert(t(5_000), 1, 0);
        h.insert(t(9_000_000), 2, 0);
        assert_eq!(drain(&mut h, 4_999), Vec::<u32>::new());
        assert_eq!(drain(&mut h, 5_000), vec![1], "due at its own instant");
        assert_eq!(drain(&mut h, 10_000_000), vec![2]);
        assert!(h.is_empty());
    }

    #[test]
    fn entries_come_back_earliest_first_then_by_slot() {
        let mut h = DeadlineHeap::default();
        for (fires, slot) in [(30, 1), (10, 9), (20, 4), (10, 2)] {
            h.insert(t(fires), slot, 0);
        }
        assert_eq!(drain(&mut h, 100), vec![2, 9, 4, 1]);
    }

    #[test]
    fn past_deadline_comes_back_at_once() {
        let mut h = DeadlineHeap::default();
        assert_eq!(drain(&mut h, 1 << 20), Vec::<u32>::new());
        h.insert(t(0), 4, 0); // already long past
        assert_eq!(drain(&mut h, 1 << 20), vec![4]);
    }

    #[test]
    fn an_idle_pop_changes_nothing() {
        let mut h = DeadlineHeap::default();
        h.insert(t(500), 3, 7);
        assert_eq!(h.pop_due(t(499)), None);
        assert_eq!(h.len(), 1);
        assert_eq!(h.pop_due(t(500)), Some(TimerEntry { fires: t(500), slot: 3, gen: 7 }));
    }

    #[test]
    fn clear_empties() {
        let mut h = DeadlineHeap::default();
        h.insert(t(5_000), 1, 0);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(drain(&mut h, 1 << 30), Vec::<u32>::new());
    }
}
