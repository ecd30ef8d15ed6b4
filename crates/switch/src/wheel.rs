//! A hierarchical timer wheel: the software analogue of the NetFPGA
//! background aging scrubber.
//!
//! The paper's hardware ages table entries with a scrubber that walks
//! the table continuously in the background, so expiry work never sits
//! on the lookup path. A `BTreeMap` sweep is the opposite: O(table)
//! per sweep, all of it on the caller. This wheel restores the hardware
//! shape: expiry instants are filed into power-of-two time buckets and
//! [`TimerWheel::advance`] hands back only the entries whose bucket
//! range the clock has passed. One `u64` occupancy word per level
//! (bit `s` set iff bucket `s` holds an entry) lets an advance skip the
//! empty buckets in its range without reading them, so a call costs
//! O([`LEVELS`] + non-empty buckets passed + entries moved) — an idle
//! advance, the common case on a flooding bridge whose deadlines are
//! all half a second out, reads eight words and no bucket.
//!
//! # Lazy revalidation
//!
//! Entries are *hints*, not authority. Each carries the flat slot index
//! it was filed for and the slot's generation stamp at filing time; the
//! table owning the slots revalidates on delivery (wrong generation →
//! the slot was vacated or re-keyed since, ignore; expiry extended
//! since → re-file at the new instant). This is what lets
//! [`touch`](crate::dleft::DLeftTable::touch) extend a deadline without
//! finding and moving the old wheel entry — the stale entry fires
//! early, fails revalidation against the live expiry, and is re-filed.
//!
//! # Geometry
//!
//! [`LEVELS`] levels of [`SLOTS`] slots. A tick is `1 << shift`
//! nanoseconds (default [`DEFAULT_TICK_SHIFT`] → 1.024 µs); level `l`
//! buckets are `SLOTS^l` ticks wide, so eight levels cover 64⁸ ticks ≈
//! 9 sim-years — nothing ever lands outside the wheel. Entries cascade
//! down a level each time the cursor passes their bucket, reaching
//! tick resolution by level 0; an [`advance`](TimerWheel::advance) that
//! jumps far covers at most one full rotation per level — one masked
//! occupancy word — so the cost of a jump is bounded by the non-empty
//! buckets plus the entries actually due. Buckets are visited in
//! level-then-cursor order, which fixes the order of `due` and of
//! re-filing.

use arppath_netsim::SimTime;

/// Hierarchy depth. 64⁸ ticks of range at 6 bits per level.
pub const LEVELS: usize = 8;
/// log2 of [`SLOTS`]: each level resolves 6 bits of the tick count.
pub const SLOT_BITS: u32 = 6;
/// Buckets per level.
pub const SLOTS: usize = 1 << SLOT_BITS;
/// Default tick granularity: 2¹⁰ ns = 1.024 µs, well under every
/// protocol timeout in the repository (lock times are ≥ 500 µs).
pub const DEFAULT_TICK_SHIFT: u32 = 10;

/// One filed deadline: *slot `slot` of the owning table, generation
/// `gen`, expected to expire at `fires`*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// The wheel: `LEVELS × SLOTS` buckets of [`TimerEntry`].
#[derive(Debug, Clone)]
pub struct TimerWheel {
    /// Tick = `1 << shift` nanoseconds.
    shift: u32,
    /// The tick the wheel has been advanced to.
    now_tick: u64,
    /// Per-level occupancy: bit `s` of word `l` is set iff bucket
    /// `l * SLOTS + s` is non-empty. Set in `file`, cleared when the
    /// bucket is drained.
    occupied: [u64; LEVELS],
    /// Flat `LEVELS × SLOTS` bucket array.
    buckets: Vec<Vec<TimerEntry>>,
    /// Entries currently filed (including stale ones awaiting
    /// revalidation).
    len: usize,
    /// Reused cascade buffer.
    scratch: Vec<TimerEntry>,
}

impl Default for TimerWheel {
    fn default() -> Self {
        TimerWheel::new(DEFAULT_TICK_SHIFT)
    }
}

impl TimerWheel {
    /// A wheel with `1 << tick_shift` nanosecond ticks, positioned at
    /// t = 0.
    pub fn new(tick_shift: u32) -> Self {
        assert!(tick_shift < 32, "tick shift {tick_shift} is absurdly coarse");
        TimerWheel {
            shift: tick_shift,
            now_tick: 0,
            occupied: [0; LEVELS],
            buckets: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            len: 0,
            scratch: Vec::new(),
        }
    }

    /// Number of filed entries, stale ones included.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is filed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap footprint in bytes: the bucket-array spine plus every
    /// bucket's entry storage and the cascade buffer. Folded into
    /// [`DLeftTable::heap_bytes`](crate::DLeftTable::heap_bytes) for
    /// the bytes-per-station accounting.
    pub fn heap_bytes(&self) -> usize {
        self.buckets.capacity() * std::mem::size_of::<Vec<TimerEntry>>()
            + self
                .buckets
                .iter()
                .map(|b| b.capacity() * std::mem::size_of::<TimerEntry>())
                .sum::<usize>()
            + self.scratch.capacity() * std::mem::size_of::<TimerEntry>()
    }

    /// File a deadline. Deadlines at or before the wheel's position go
    /// into the current tick's bucket and come back on the next
    /// [`advance`](TimerWheel::advance).
    pub fn insert(&mut self, fires: SimTime, slot: u32, gen: u32) {
        let tick = (fires.as_nanos() >> self.shift).max(self.now_tick);
        self.file(tick, TimerEntry { fires, slot, gen });
        self.len += 1;
    }

    /// Place an entry at the level whose resolution covers its distance
    /// from the cursor.
    fn file(&mut self, tick: u64, entry: TimerEntry) {
        let delta = tick - self.now_tick;
        let level = if delta == 0 {
            0
        } else {
            (((63 - delta.leading_zeros()) / SLOT_BITS) as usize).min(LEVELS - 1)
        };
        let slot = ((tick >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.occupied[level] |= 1 << slot;
        self.buckets[level * SLOTS + slot].push(entry);
    }

    /// Move the wheel to `now`, pushing every entry whose bucket the
    /// cursor reached **and** whose recorded instant is within the
    /// reached tick onto `due`. Entries whose buckets were passed but
    /// whose instant lies further out cascade to a finer level instead.
    ///
    /// The current tick's bucket is rescanned on every call so that
    /// sub-tick deadlines (filed with `fires` inside the present tick)
    /// are never stranded; the owning table's revalidation makes the
    /// repeat delivery harmless.
    pub fn advance(&mut self, now: SimTime, due: &mut Vec<TimerEntry>) {
        let target = (now.as_nanos() >> self.shift).max(self.now_tick);
        let mut cascade = std::mem::take(&mut self.scratch);
        debug_assert!(cascade.is_empty());
        for level in 0..LEVELS {
            if self.occupied[level] == 0 {
                continue;
            }
            let lshift = SLOT_BITS * level as u32;
            let old = self.now_tick >> lshift;
            let new = target >> lshift;
            // Inclusive range, capped at one full rotation.
            let visits = (new - old + 1).min(SLOTS as u64);
            // Rotate the cursor's slot down to bit 0: bit `i` is then
            // the bucket `i` steps ahead of the cursor, and the low
            // `visits` bits are the range, nearest first.
            let start = (old & (SLOTS as u64 - 1)) as u32;
            let in_range = u64::MAX >> (SLOTS as u64 - visits);
            let mut pending = self.occupied[level].rotate_right(start) & in_range;
            while pending != 0 {
                let slot = ((start + pending.trailing_zeros()) & (SLOTS as u32 - 1)) as usize;
                pending &= pending - 1;
                self.occupied[level] &= !(1 << slot);
                cascade.append(&mut self.buckets[level * SLOTS + slot]);
            }
        }
        self.now_tick = target;
        for entry in cascade.drain(..) {
            let tick = entry.fires.as_nanos() >> self.shift;
            if tick <= target {
                self.len -= 1;
                due.push(entry);
            } else {
                self.file(tick, entry);
            }
        }
        self.scratch = cascade;
    }

    /// Drop every filed entry without moving the cursor.
    pub fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.occupied = [0; LEVELS];
        self.len = 0;
    }

    /// The occupancy invariant, for the oracle suite: every occupancy
    /// bit equals "its bucket is non-empty", and `len` counts exactly
    /// the filed entries.
    #[doc(hidden)]
    pub fn occupancy_is_consistent(&self) -> bool {
        let bits_match = self.buckets.iter().enumerate().all(|(i, bucket)| {
            (self.occupied[i / SLOTS] >> (i % SLOTS) & 1 == 1) != bucket.is_empty()
        });
        bits_match && self.len == self.buckets.iter().map(Vec::len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime(ns)
    }

    fn drain(w: &mut TimerWheel, now: u64) -> Vec<u32> {
        let mut due = Vec::new();
        w.advance(t(now), &mut due);
        let mut slots: Vec<u32> = due.iter().map(|e| e.slot).collect();
        slots.sort_unstable();
        slots
    }

    #[test]
    fn due_entries_come_back_on_advance() {
        let mut w = TimerWheel::new(10);
        w.insert(t(5_000), 1, 0);
        w.insert(t(9_000_000), 2, 0);
        assert_eq!(drain(&mut w, 4_000), Vec::<u32>::new());
        assert_eq!(drain(&mut w, 6_000), vec![1]);
        assert_eq!(drain(&mut w, 10_000_000), vec![2]);
        assert!(w.is_empty());
    }

    #[test]
    fn far_deadlines_cascade_through_levels() {
        let mut w = TimerWheel::new(10);
        // ~4.4 s out: starts three levels up, must still fire exactly.
        w.insert(t(4_400_000_000), 7, 3);
        // Walk time forward in uneven hops; nothing fires early.
        for now in [1_000_000, 700_000_000, 4_399_000_000] {
            assert_eq!(drain(&mut w, now), Vec::<u32>::new(), "early at {now}");
        }
        let mut due = Vec::new();
        w.advance(t(4_500_000_000), &mut due);
        assert_eq!(due, vec![TimerEntry { fires: t(4_400_000_000), slot: 7, gen: 3 }]);
    }

    #[test]
    fn one_shot_jump_across_everything_delivers_everything() {
        let mut w = TimerWheel::new(10);
        for i in 0..100u32 {
            w.insert(t(u64::from(i) * 37_777 + 1), i, 0);
        }
        let got = drain(&mut w, 100 * 37_777 + 1);
        assert_eq!(got, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn sub_tick_deadline_is_not_stranded() {
        let mut w = TimerWheel::new(10);
        // Cursor already at tick 3; a deadline inside tick 3 must still
        // surface on the next advance, not be skipped forever.
        assert_eq!(drain(&mut w, 3 << 10), Vec::<u32>::new());
        w.insert(t((3 << 10) + 5), 9, 0);
        assert_eq!(drain(&mut w, (3 << 10) + 500), vec![9]);
    }

    #[test]
    fn past_deadline_files_into_current_tick() {
        let mut w = TimerWheel::new(10);
        assert_eq!(drain(&mut w, 1 << 20), Vec::<u32>::new());
        w.insert(t(0), 4, 0); // already long past
        assert_eq!(drain(&mut w, 1 << 20), vec![4]);
    }

    #[test]
    fn clear_empties_without_moving_cursor() {
        let mut w = TimerWheel::new(10);
        w.insert(t(5_000), 1, 0);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(drain(&mut w, 1 << 30), Vec::<u32>::new());
    }
}
