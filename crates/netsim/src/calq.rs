//! A calendar-queue event scheduler: the engine's pending-event set as
//! a bucketed time wheel with a heap annex, replacing the plain binary
//! heap.
//!
//! The discrete-event hot path is dominated by queue traffic: every
//! frame crossing every link is a push/pop pair (`Deliver`; a `TxDone`
//! too where a transmitter has a backlog), and under load those events
//! cluster within microseconds of the present (serialization is
//! hundreds of nanoseconds) and *on* shared instants — a flood on a
//! k=16 fat-tree drains ~50 events per timestamp. A binary heap pays
//! O(log n) pointer-hopping comparisons per operation over the whole
//! pending set; the calendar queue exploits the clustering:
//!
//! * events within the **ring horizon** ([`BUCKET_COUNT`] ×
//!   `2^`[`BUCKET_SHIFT`] ns ≈ 33 µs of future) go into fixed-width
//!   time buckets — push is a shift + an append. Only the **head
//!   bucket** (the earliest occupied one) is ordered: it is sorted
//!   once, descending, when the queue reaches it, and every
//!   same-timestamp cohort in it then comes off its tail in one move.
//!   A push *into* the bucket being drained (a same-instant follow-up)
//!   is a binary insert near the tail; a push into a head bucket not
//!   yet reached just appends, and the sort is redone at the next pop
//!   — so a burst into it (a thousand hosts starting in one instant)
//!   stays O(1) per push. Bucket **storage is recycled**: when the
//!   head bucket empties its `Vec` goes onto a LIFO spare list, and a
//!   push that opens an empty ring index takes the most recently
//!   drained — the hottest — one. An empty index therefore owns no
//!   storage, and what the ring reserves
//!   ([`reserved_bytes`](CalendarQueue::reserved_bytes)) tracks the
//!   buckets occupied *at once* (~50 on a k=16 flood), not 512
//!   high-water `Vec`s that each get written once per ring rotation
//!   and push the tables and links out of cache on the way round;
//! * events beyond the horizon (protocol timers, idle-period traffic)
//!   go to a `BinaryHeap` **annex** and are popped from it directly
//!   when due — a sparse simulation therefore runs at binary-heap
//!   speed plus a peek, while a dense one runs at ring speed. The
//!   horizon is the density filter; nothing migrates between the two.
//!
//! # Ordering contract
//!
//! Strict `(time, key, seq)` order: chronological, then by the
//! caller-supplied canonical **order key**, with insertion order as
//! the final tie-break. The engine derives the key from an event's
//! global wire/device identity (see `engine::order_key`), which is
//! what makes same-nanosecond coincidences resolve identically in the
//! single-threaded and sharded engines — a heap keyed on insertion
//! order alone would let the two engines race-resolve ties
//! differently. The head is the smaller of the head bucket's tail and
//! the annex top, so [`head_time`](CalendarQueue::head_time) is O(1)
//! and `&self`. A cohort split across the two (part pushed before the
//! cursor came within a horizon of it, part after) merges pop by pop.
//!
//! The ring-window invariant that makes bucket masking sound: the
//! cursor is the bucket of the last popped timestamp and only moves
//! forward (the engine never schedules into the past), so every ring
//! entry's absolute bucket lies in `[cursor, cursor + BUCKET_COUNT)`
//! and two live entries can only share a masked index by sharing the
//! bucket.
//!
//! `tests` drive it against a `BinaryHeap` reference on randomized
//! dense schedules; the engine-level byte-identity suites
//! (`tests/engine_batching.rs`, `tests/sharded_equivalence.rs`,
//! `tests/event_elision_golden.rs`, the CI trace diff) pin that no
//! delivery trace depends on which scheduler runs underneath.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the bucket width in nanoseconds: 64 ns buckets keep
/// back-to-back minimum-frame traffic (672 ns apart) in distinct
/// buckets; on a dense flood one bucket still holds a handful of
/// instants (measured: ~4, ~70 entries, at k=16), which the head-bucket
/// sort orders once.
pub const BUCKET_SHIFT: u32 = 6;
/// Ring size (power of two, at most 64 × 64 for the two-level bitmap).
/// 512 × 64 ns ≈ 33 µs of horizon: the in-flight frame events of a
/// busy fabric land here; anything sparser runs through the annex.
pub const BUCKET_COUNT: usize = 512;
/// Words in the occupancy bitmap.
const BITMAP_WORDS: usize = BUCKET_COUNT / 64;

/// One scheduled item.
#[derive(Debug, Clone)]
struct Entry<T> {
    time: SimTime,
    key: u64,
    seq: u64,
    item: T,
}

impl<T> Entry<T> {
    #[inline]
    fn ord(&self) -> (SimTime, u64, u64) {
        (self.time, self.key, self.seq)
    }
}

/// Annex wrapper ordered by `(time, key, seq)` alone.
#[derive(Debug, Clone)]
struct Far<T>(Entry<T>);

impl<T> PartialEq for Far<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.ord() == other.0.ord()
    }
}
impl<T> Eq for Far<T> {}
impl<T> PartialOrd for Far<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Far<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.ord().cmp(&other.0.ord())
    }
}

/// Two-level occupancy index over the ring: one bit per bucket plus a
/// one-word summary (bit w set ⇔ word w has any set bit). Finding the
/// first occupied bucket in circular order from any start position is
/// a handful of shifts and `trailing_zeros` calls.
#[derive(Debug, Clone)]
struct Occupancy {
    words: [u64; BITMAP_WORDS],
    summary: u64,
}

impl Occupancy {
    fn new() -> Self {
        Occupancy { words: [0; BITMAP_WORDS], summary: 0 }
    }

    #[inline]
    fn set(&mut self, idx: usize) {
        let w = idx >> 6;
        self.words[w] |= 1 << (idx & 63);
        self.summary |= 1 << w;
    }

    #[inline]
    fn clear(&mut self, idx: usize) {
        let w = idx >> 6;
        self.words[w] &= !(1 << (idx & 63));
        if self.words[w] == 0 {
            self.summary &= !(1 << w);
        }
    }

    /// First set bit at or after `start` in circular order (wrapping
    /// past the end back to the beginning).
    fn next_set_circular(&self, start: usize) -> Option<usize> {
        let w0 = start >> 6;
        // Bits of the start word at or after the start position.
        let high = self.words[w0] & (!0u64 << (start & 63));
        if high != 0 {
            return Some(w0 * 64 + high.trailing_zeros() as usize);
        }
        // Rotate the summary so the word after `w0` sits at bit 0; the
        // lowest set bit is then the circularly nearest occupied word.
        // `w0` itself rotates behind the (always zero) unused upper
        // bits, correctly last: its remaining bits (below `start`) are
        // the farthest in circular order.
        let rot = ((w0 + 1) & (BITMAP_WORDS - 1)) as u32;
        let s = self.summary.rotate_right(rot);
        if s == 0 {
            return None;
        }
        let w = (rot as usize + s.trailing_zeros() as usize) & (BITMAP_WORDS - 1);
        Some(w * 64 + self.words[w].trailing_zeros() as usize)
    }
}

/// "No ring bucket is occupied."
const NO_BUCKET: u64 = u64::MAX;

/// The queue. `T` is the event payload; ordering keys (`time`, `key`,
/// `seq`) are supplied on push and echoed back on pop.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// The ring: `BUCKET_COUNT` buckets of `BUCKET_SHIFT`-wide slices
    /// of time, indexed by absolute bucket number masked down. Only
    /// the head bucket is kept ordered; the rest are append-only. An
    /// empty bucket has no capacity: its storage is on `spare`.
    buckets: Vec<Vec<Entry<T>>>,
    /// Storage of drained buckets, most recently drained last. Never
    /// holds more `Vec`s than buckets were ever occupied at once.
    spare: Vec<Vec<Entry<T>>>,
    /// Which ring buckets hold entries.
    occupied: Occupancy,
    /// Absolute bucket number of the last popped timestamp. Every ring
    /// entry's absolute bucket is in `[cursor, cursor + BUCKET_COUNT)`.
    cursor: u64,
    /// Absolute number of the earliest occupied ring bucket — the
    /// **head bucket** — or [`NO_BUCKET`]. Its last element is always
    /// the ring's minimum.
    head_bucket: u64,
    /// The head bucket is sorted by `(time, key, seq)` *descending*, so
    /// a cohort is its tail. Established when it is popped from (and
    /// when it becomes the head by its predecessor emptying); undone
    /// by a push into it from outside the bucket being drained.
    head_sorted: bool,
    /// Events pushed beyond the ring horizon, by `(time, key, seq)`;
    /// popped directly from here when due.
    annex: BinaryHeap<Reverse<Far<T>>>,
    /// Total entries (ring + annex).
    len: usize,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty queue with the cursor at t = 0.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..BUCKET_COUNT).map(|_| Vec::new()).collect(),
            spare: Vec::new(),
            occupied: Occupancy::new(),
            cursor: 0,
            head_bucket: NO_BUCKET,
            head_sorted: false,
            annex: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of entry storage the queue holds allocated — occupied
    /// buckets, spare bucket storage and the annex, at capacity. This is
    /// the memory scheduling cycles through, whatever `len` is; it
    /// settles at the high-water mark of what was pending at once.
    pub fn reserved_bytes(&self) -> usize {
        let ring: usize = self.buckets.iter().chain(&self.spare).map(Vec::capacity).sum();
        (ring + self.annex.capacity()) * std::mem::size_of::<Entry<T>>()
    }

    /// Timestamp of the earliest pending event. O(1).
    pub fn head_time(&self) -> Option<SimTime> {
        self.head().map(|(ord, _)| ord.0)
    }

    /// The minimum `(time, key, seq)` and whether the annex holds it:
    /// the smaller of the head bucket's tail and the annex top.
    #[inline]
    fn head(&self) -> Option<((SimTime, u64, u64), bool)> {
        let ring = self.ring_head().map(|e| (e.ord(), false));
        let annex = self.annex.peek().map(|Reverse(far)| (far.0.ord(), true));
        match (ring, annex) {
            (Some(r), Some(a)) => Some(r.min(a)),
            (r, a) => r.or(a),
        }
    }

    /// The ring's minimum entry.
    #[inline]
    fn ring_head(&self) -> Option<&Entry<T>> {
        (self.head_bucket != NO_BUCKET)
            .then(|| self.buckets[Self::ring_index(self.head_bucket)].last())
            .flatten()
    }

    /// Absolute bucket number of `time`.
    #[inline]
    fn abs_bucket(time: SimTime) -> u64 {
        time.as_nanos() >> BUCKET_SHIFT
    }

    /// Ring index of an absolute bucket number.
    #[inline]
    fn ring_index(abs: u64) -> usize {
        (abs & (BUCKET_COUNT as u64 - 1)) as usize
    }

    /// Schedule `item` at `(time, key, seq)`. `seq` values must be
    /// unique; the time must not precede the last popped time — the
    /// engine's existing no-scheduling-into-the-past invariant.
    ///
    /// # Panics
    /// If `time` is behind the queue's progress; accepting it would
    /// corrupt the ring-window ordering invariant.
    pub fn push(&mut self, time: SimTime, key: u64, seq: u64, item: T) {
        let abs = Self::abs_bucket(time);
        assert!(abs >= self.cursor, "push at {time} is behind the queue's progress");
        let entry = Entry { time, key, seq, item };
        self.len += 1;
        if abs >= self.cursor + BUCKET_COUNT as u64 {
            self.annex.push(Reverse(Far(entry)));
            return;
        }
        let idx = Self::ring_index(abs);
        let bucket = &mut self.buckets[idx];
        if bucket.capacity() == 0 {
            // Opening an empty index: write where a drain just read.
            *bucket = self.spare.pop().unwrap_or_default();
        }
        if abs == self.head_bucket && self.head_sorted && abs == self.cursor {
            // A follow-up within the bucket being drained (a
            // same-instant timer, say) sorts in near the tail.
            let at = bucket.partition_point(|e| e.ord() > entry.ord());
            bucket.insert(at, entry);
            return;
        }
        bucket.push(entry);
        self.occupied.set(idx);
        if abs <= self.head_bucket {
            // The head bucket — possibly a new one, every bucket before
            // it being empty — took an entry out of order: it is
            // re-sorted when next popped from, not per push (a burst
            // into it must stay O(1) each). Only its minimum has to be
            // in place, last, for `head_time`.
            self.head_bucket = abs;
            self.head_sorted = false;
            if let [.., min, new] = bucket.as_mut_slice() {
                if new.ord() > min.ord() {
                    std::mem::swap(min, new);
                }
            }
        }
    }

    /// The head bucket at ring index `idx` just emptied: shelve its
    /// storage, move on to the next occupied bucket and sort it — once;
    /// every cohort in it then pops off its tail.
    fn advance_head_bucket(&mut self, idx: usize) {
        self.spare.push(std::mem::take(&mut self.buckets[idx]));
        self.occupied.clear(idx);
        self.head_bucket = match self.occupied.next_set_circular(idx) {
            Some(next) => Self::abs_bucket(self.buckets[next][0].time),
            None => NO_BUCKET,
        };
        self.head_sorted = false;
        self.sort_head_bucket();
    }

    /// Order the head bucket for popping, if a push disturbed it (or
    /// it only just became the head).
    fn sort_head_bucket(&mut self) {
        if !self.head_sorted && self.head_bucket != NO_BUCKET {
            let bucket = &mut self.buckets[Self::ring_index(self.head_bucket)];
            bucket.sort_unstable_by_key(|e| Reverse(e.ord()));
            self.head_sorted = true;
        }
    }

    /// Remove and return the earliest event as `(time, key, seq, item)`.
    pub fn pop_min(&mut self) -> Option<(SimTime, u64, u64, T)> {
        let (_, from_annex) = self.head()?;
        let entry = if from_annex {
            let Some(Reverse(Far(entry))) = self.annex.pop() else { unreachable!() };
            entry
        } else {
            self.sort_head_bucket();
            let idx = Self::ring_index(self.head_bucket);
            let entry = self.buckets[idx].pop().expect("head bucket is occupied");
            if self.buckets[idx].is_empty() {
                self.advance_head_bucket(idx);
            }
            entry
        };
        self.len -= 1;
        self.cursor = Self::abs_bucket(entry.time);
        Some((entry.time, entry.key, entry.seq, entry.item))
    }

    /// Remove every event at the head timestamp, appending their items
    /// to `out` in `(key, seq)` order, and return that timestamp — the
    /// engine's same-timestamp batch drain. A cohort in the ring is the
    /// tail run of the sorted head bucket and moves out in one pass;
    /// one at the annex top (wholly, or straddling the horizon) merges
    /// with it pop by pop.
    pub fn drain_head(&mut self, out: &mut Vec<T>) -> Option<SimTime> {
        let time = self.head_time()?;
        if self.annex.peek().is_some_and(|Reverse(far)| far.0.time == time) {
            while self.head_time() == Some(time) {
                out.extend(self.pop_min().map(|(_, _, _, item)| item));
            }
            return Some(time);
        }
        self.sort_head_bucket();
        let idx = Self::ring_index(self.head_bucket);
        let bucket = &mut self.buckets[idx];
        let start = bucket.iter().rposition(|e| e.time != time).map_or(0, |i| i + 1);
        self.len -= bucket.len() - start;
        out.extend(bucket.drain(start..).rev().map(|e| e.item));
        if start == 0 {
            self.advance_head_bucket(idx);
        }
        self.cursor = Self::abs_bucket(time);
        Some(time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    fn t(ns: u64) -> SimTime {
        SimTime(ns)
    }

    #[test]
    fn pops_in_time_key_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(t(500), 0, 0, "a");
        q.push(t(100), 0, 1, "b");
        q.push(t(100), 0, 2, "c");
        q.push(t(2_000_000_000), 0, 3, "far"); // straight to the annex
        q.push(t(30), 0, 4, "d");
        let mut got = Vec::new();
        while let Some((time, _, seq, item)) = q.pop_min() {
            got.push((time.as_nanos(), seq, item));
        }
        assert_eq!(
            got,
            vec![
                (30, 4, "d"),
                (100, 1, "b"),
                (100, 2, "c"),
                (500, 0, "a"),
                (2_000_000_000, 3, "far")
            ]
        );
    }

    #[test]
    fn key_outranks_insertion_order_within_an_instant() {
        // The canonical key decides same-instant order; insertion
        // sequence only breaks exact key ties. Both ring (near) and
        // annex (far) territory must agree on this.
        for base in [100u64, 50_000_000] {
            let mut q = CalendarQueue::new();
            q.push(t(base), 9, 0, "k9");
            q.push(t(base), 2, 1, "k2-first");
            q.push(t(base), 2, 2, "k2-second");
            q.push(t(base), 0, 3, "k0");
            let mut got = Vec::new();
            while let Some((_, _, _, item)) = q.pop_min() {
                got.push(item);
            }
            assert_eq!(got, vec!["k0", "k2-first", "k2-second", "k9"], "base {base}");
        }
    }

    #[test]
    fn drain_head_takes_exactly_the_head_cohort() {
        let mut q = CalendarQueue::new();
        q.push(t(100), 0, 0, 'a');
        q.push(t(100), 0, 1, 'b');
        q.push(t(101), 0, 2, 'x'); // same bucket, later time
        q.push(t(100), 0, 3, 'c');
        let mut out = Vec::new();
        assert_eq!(q.drain_head(&mut out), Some(t(100)));
        assert_eq!(out, vec!['a', 'b', 'c']);
        assert_eq!(q.head_time(), Some(t(101)));
        out.clear();
        assert_eq!(q.drain_head(&mut out), Some(t(101)));
        assert_eq!(out, vec!['x']);
        assert!(q.is_empty());
        assert_eq!(q.drain_head(&mut out), None);
    }

    #[test]
    fn pushes_into_the_bucket_being_drained_keep_their_place() {
        let mut q = CalendarQueue::new();
        q.push(t(130), 1, 0, "first");
        q.push(t(140), 5, 1, "late-k5");
        let mut out = Vec::new();
        assert_eq!(q.drain_head(&mut out), Some(t(130)));
        // The 128..192 ns bucket is now the sorted head bucket, still
        // holding t=140. A same-instant follow-up, an earlier instant
        // and a lower key at t=140 must each find their place in it.
        q.push(t(130), 0, 2, "follow-up");
        q.push(t(140), 2, 3, "late-k2");
        q.push(t(135), 9, 4, "between");
        for (time, want) in
            [(130, vec!["follow-up"]), (135, vec!["between"]), (140, vec!["late-k2", "late-k5"])]
        {
            out.clear();
            assert_eq!(q.drain_head(&mut out), Some(t(time)));
            assert_eq!(out, want);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn annex_events_pop_when_due() {
        let mut q = CalendarQueue::new();
        // Far beyond the ~33 µs horizon from cursor 0.
        q.push(t(10_000_000), 0, 0, "timer1");
        q.push(t(5_000_000), 0, 1, "timer2");
        q.push(t(100), 0, 2, "near");
        assert_eq!(q.pop_min().map(|(_, _, _, i)| i), Some("near"));
        assert_eq!(q.head_time(), Some(t(5_000_000)));
        assert_eq!(q.pop_min().map(|(_, _, _, i)| i), Some("timer2"));
        assert_eq!(q.pop_min().map(|(_, _, _, i)| i), Some("timer1"));
        assert!(q.is_empty());
    }

    #[test]
    fn near_pushes_after_a_far_head_stay_ordered() {
        // Ring drains while a far timer waits in the annex; events then
        // pushed near the present must still pop first, in order.
        let mut q = CalendarQueue::new();
        q.push(t(10_000_000), 0, 0, 0u64);
        q.push(t(100), 0, 1, 1);
        assert_eq!(q.pop_min().map(|(_, _, s, _)| s), Some(1));
        assert_eq!(q.head_time(), Some(t(10_000_000)), "far timer heads the queue");
        // The popped event's handler schedules follow-ups just after.
        q.push(t(772), 0, 2, 2);
        q.push(t(772), 0, 3, 3);
        q.push(t(900), 0, 4, 4);
        assert_eq!(q.head_time(), Some(t(772)));
        let mut out = Vec::new();
        assert_eq!(q.drain_head(&mut out), Some(t(772)));
        assert_eq!(out, vec![2, 3]);
        assert_eq!(q.pop_min().map(|(_, _, s, _)| s), Some(4));
        assert_eq!(q.pop_min().map(|(_, _, s, _)| s), Some(0));
        assert!(q.is_empty());
    }

    #[test]
    fn cohort_straddling_the_horizon_drains_in_key_seq_order() {
        let mut q = CalendarQueue::new();
        // Key 7 at t=40µs goes to the annex (beyond the horizon as
        // seen from cursor 0)...
        q.push(t(40_000), 7, 0, 0u64);
        q.push(t(10_000), 0, 1, 1);
        // ...pop the nearer event so the cursor advances and t=40µs
        // falls inside the ring window...
        assert_eq!(q.pop_min().map(|(_, _, s, _)| s), Some(1));
        // ...then push same-time events directly into the ring. The
        // cohort now spans annex (key 7) and ring (keys 9 and 2);
        // drain must interleave the two sides into (key, seq) order —
        // the ring entry with the smaller key comes out first even
        // though the annex side was pushed earlier.
        q.push(t(40_000), 9, 2, 2);
        q.push(t(40_000), 2, 3, 3);
        let mut out = Vec::new();
        assert_eq!(q.drain_head(&mut out), Some(t(40_000)));
        assert_eq!(out, vec![3, 0, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn bitmap_wraps_circularly() {
        let mut occ = Occupancy::new();
        occ.set(10);
        assert_eq!(occ.next_set_circular(0), Some(10));
        assert_eq!(occ.next_set_circular(10), Some(10));
        assert_eq!(occ.next_set_circular(11), Some(10), "wraps all the way round");
        occ.set(500);
        assert_eq!(occ.next_set_circular(11), Some(500));
        assert_eq!(occ.next_set_circular(501), Some(10));
        occ.clear(10);
        occ.clear(500);
        assert_eq!(occ.next_set_circular(0), None);
    }

    #[test]
    #[should_panic(expected = "behind the queue's progress")]
    fn pushing_into_the_past_panics() {
        let mut q = CalendarQueue::new();
        q.push(t(5_000_000), 0, 0, ());
        let _ = q.pop_min();
        q.push(t(100), 0, 1, ());
    }

    /// The recycling invariant: storage sits under entries or on the
    /// spare list, never under an empty ring index.
    fn empty_indices_own_no_storage<T>(q: &CalendarQueue<T>) -> bool {
        q.buckets.iter().all(|bucket| !bucket.is_empty() || bucket.capacity() == 0)
    }

    #[test]
    fn reserved_storage_tracks_occupancy_not_the_high_water_of_every_index() {
        // Start-up, as a fabric's hellos make it: a 1,024-entry cohort
        // in each of the 512 ring indices in turn. Kept per index, that
        // high-water storage is the whole of `everywhere`.
        let everywhere = BUCKET_COUNT * 1024 * std::mem::size_of::<Entry<u64>>();
        let mut q = CalendarQueue::new();
        let (mut seq, mut batch) = (0u64, Vec::new());
        for bucket in 0..BUCKET_COUNT as u64 {
            for key in 0..1024 {
                q.push(t(bucket << BUCKET_SHIFT), key, seq, seq);
                seq += 1;
            }
            q.drain_head(&mut batch);
            batch.clear();
        }
        assert!(q.is_empty());
        // Then the measured flood shape: 5 occupied buckets of 4
        // instants x 51 events (1,020 pending), every drained event
        // rescheduled 16 buckets ahead — for ten turns of the ring.
        let start = BUCKET_COUNT as u64;
        for bucket in [0, 3, 6, 9, 12] {
            for slot in 0..4 {
                for key in 0..51 {
                    q.push(t(((start + bucket) << BUCKET_SHIFT) + slot * 16), key, seq, seq);
                    seq += 1;
                }
            }
        }
        let mut reserved = Vec::new();
        for rotation in 2..=11 {
            while q.head_time().is_some_and(|at| at < t((rotation * start) << BUCKET_SHIFT)) {
                let at = q.drain_head(&mut batch).expect("the flood never ends");
                for item in batch.drain(..) {
                    q.push(at + SimDuration::nanos(16 << BUCKET_SHIFT), item % 51, seq, item);
                    seq += 1;
                }
            }
            assert_eq!(q.len(), 1020);
            reserved.push(q.reserved_bytes());
        }
        assert!(reserved[1] < everywhere / 10, "{} of {everywhere} bytes", reserved[1]);
        assert_eq!(reserved[1], reserved[9], "still growing after ten rotations: {reserved:?}");
    }

    proptest! {
        #[test]
        fn drain_pops_and_heap_agree_on_dense_schedules(
            ops in proptest::collection::vec((0u8..4, 0u64..60_000, 0u64..64, 0u8..5), 1..120),
        ) {
            // Three queues fed identically: `a` is drained a cohort at
            // a time, `b` popped an event at a time, and a binary heap
            // is the reference — all three must agree on every
            // `(time, key, seq)`. The schedule is the dense regime the
            // engine produces on floods: cohorts of up to 64 pushed
            // with keys descending (and tied in pairs, so `seq`
            // decides); near pushes a few ns apart, so one 64 ns
            // bucket holds several instants and the head bucket takes
            // pushes between drains, `now` itself included; far pushes
            // on a coarse absolute lattice reaching past the 33 µs
            // horizon, so a cohort that began in the annex gains ring
            // members once the cursor closes in. Two more modes aim at
            // recycled storage: a push within a few ns of `now` reopens
            // the ring index a drain has just emptied (and shelved the
            // storage of), and a push on the horizon's edge lands in
            // the last ring bucket or the first annex one — which
            // shares its ring index with the cursor's.
            let mut a = CalendarQueue::new();
            let mut b = CalendarQueue::new();
            let mut heap: BinaryHeap<Reverse<(SimTime, u64, u64)>> = BinaryHeap::new();
            let (mut seq, mut now) = (0u64, 0u64);
            let mut batch = Vec::new();
            let mut ops = ops.into_iter();
            loop {
                // Once the script runs out, drain whatever is left.
                let (op, delta, burst, mode) = match ops.next() {
                    Some(op) => op,
                    None if heap.is_empty() => break,
                    None => (0, 0, 0, 0),
                };
                if op == 0 {
                    let drained = a.drain_head(&mut batch);
                    prop_assert_eq!(drained, heap.peek().map(|Reverse((time, _, _))| *time));
                    for item in batch.drain(..) {
                        let want = heap.pop().map(|Reverse(ord)| ord);
                        prop_assert_eq!(b.pop_min().map(|(time, k, s, ())| (time, k, s)), want);
                        prop_assert_eq!(want.map(|(time, _, s)| (time, s)), drained.map(|d| (d, item)));
                    }
                    prop_assert!(
                        heap.peek().is_none_or(|Reverse((time, _, _))| Some(*time) > drained),
                        "drain_head left part of the cohort behind"
                    );
                    now = drained.map_or(now, |d| d.as_nanos());
                } else {
                    let time = match mode {
                        0 => t(now + delta % 200),
                        1 => t(now + delta % 4),
                        2 => t(((now >> BUCKET_SHIFT) + 511 + delta % 2) << BUCKET_SHIFT),
                        _ => t((now + delta + 1).next_multiple_of(4096)),
                    };
                    for i in 0..=burst {
                        let key = (burst - i) / 2;
                        a.push(time, key, seq, seq);
                        b.push(time, key, seq, ());
                        heap.push(Reverse((time, key, seq)));
                        seq += 1;
                    }
                }
                let want_head = heap.peek().map(|Reverse((time, _, _))| *time);
                prop_assert_eq!(a.head_time(), want_head);
                prop_assert_eq!(b.head_time(), want_head);
                prop_assert_eq!((a.len(), b.len()), (heap.len(), heap.len()));
                prop_assert!(empty_indices_own_no_storage(&a) && empty_indices_own_no_storage(&b));
            }
            prop_assert!(a.is_empty() && b.is_empty());
        }
    }
}
