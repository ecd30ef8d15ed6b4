//! A d-left hash table shaped like the NetFPGA forwarding hardware.
//!
//! The paper's bridges run at line rate because the learning FIB and
//! the ARP-Path lock table are *fixed-geometry* hash structures: d
//! parallel ways of equal-size bucket arrays, probed in one clock,
//! aged by a background scrubber. [`DLeftTable`] reproduces that shape
//! in software behind the same API as the [`AgingMap`](crate::AgingMap)
//! reference implementation:
//!
//! * **d = [`WAYS`] ways**, each a flat array of buckets holding
//!   [`SLOTS_PER_BUCKET`] slots — no per-entry heap allocation, no
//!   pointer chasing. The slots are stored **struct-of-arrays**: the
//!   key plane (which doubles as the occupancy map), expiry plane,
//!   value plane and generation plane are separate flat arrays indexed
//!   by the same flat slot index. A probe walks only the key plane — one
//!   cache line per way even when `V` is fat — and touches the expiry
//!   plane for the single matched slot; values are read only on a hit.
//!   Key cells are padded to 8 bytes and a bucket's cells to a 16-byte
//!   boundary, so a MAC-keyed bucket is one aligned 16-byte block that
//!   never straddles a line. With the bridge's one-word value (its
//!   `PathEntry` packed into a `NonZeroU32`, so the `Option` around it
//!   is 4 bytes too) a slot costs 24 bytes across all planes;
//!   [`heap_bytes`](DLeftTable::heap_bytes) reports the resulting
//!   footprint so bytes-per-station is a measured number, not a guess.
//!   (PR 14 measured this layout against one 64-byte line per bucket
//!   holding both slots' key, expiry, value and stamps; the verdict is
//!   in `BASELINES.md`.)
//! * **One probe primitive**: [`probe`](DLeftTable::probe) walks the
//!   key plane once and returns a [`Slot`] handle;
//!   [`value_at`](DLeftTable::value_at), [`touch_at`](DLeftTable::touch_at)
//!   and [`replace_at`](DLeftTable::replace_at) then work on the slot,
//!   and [`insert_absent`](DLeftTable::insert_absent) places a key the
//!   probe just missed. `get`/`touch`/`insert` are thin wrappers over
//!   it, for callers that do one thing to a key; a bridge, which
//!   looks an address up and then refreshes or rewrites the entry,
//!   uses the handle and pays for one walk per address.
//! * **Multiply-shift hashing**: each way reduces a mixed 64-bit key
//!   fingerprint with its own odd multiplier; insertion takes the
//!   least-loaded candidate bucket (leftmost way on ties), the classic
//!   d-left rule that keeps occupancy near-uniform.
//! * **Background aging**: every occupied slot has a deadline pending
//!   in one [`DeadlineHeap`]; [`sweep`](DLeftTable::sweep) pops the
//!   deadlines that are due and touches only those slots — O(expired
//!   × log n), not O(table), and one look at the heap's top when
//!   nothing is due. A deadline is filed only when a slot is keyed or
//!   re-keyed, or when a write shortens its expiry; a write or touch
//!   that extends it leaves the earlier deadline to fire, revalidate
//!   and re-file at the live expiry. Inserts opportunistically scrub
//!   to the latest observed instant, mirroring the hardware scrubber
//!   that runs whether or not anyone asks.
//!
//! # Overflow and eviction — the divergence from a real CAM
//!
//! The NetFPGA tables reject or overwrite on hash-set overflow and the
//! paper sizes them so that effectively never happens. This table makes
//! the policy explicit: when all `WAYS × SLOTS_PER_BUCKET` candidate
//! slots for a new key are *occupied* (inserts scrub to the last
//! observed instant first, so every occupant is live then), the entry
//! closest to its natural death (earliest expiry; lowest slot index on
//! ties) is evicted and returned to the caller,
//! [`evictions`](DLeftTable::evictions) counts the event, and
//! [`TableStats`] records the life the victim had left. Eviction is
//! fully deterministic. Protocol-level capacity limits (the paper's
//! table-size ablation) stay where they always were — in the caller's
//! capacity check — this policy only governs physical bucket overflow.
//! Every in-repo deployment sizes its geometry with
//! [`bucket_bits_for`] to stay at or under 50 % occupancy, where
//! d-left placement over 4 ways × 2 slots makes overflow vanishingly
//! rare; `crates/switch/tests/dleft_headroom.rs` proves the rule's
//! worst case never evicts, and `crates/switch/tests/dleft_oracle.rs`
//! pins that the repository's workloads never do.
//!
//! # Expiry boundary
//!
//! Liveness is exactly [`Aged::is_live`]: an entry is dead from its
//! expiry instant onward (`expires <= now`), live strictly before it —
//! the same single predicate the `AgingMap` oracle uses, pinned by the
//! shared boundary tests so the two implementations cannot drift.

use crate::aging::Aged;
use crate::wheel::DeadlineHeap;
use arppath_netsim::SimTime;
use arppath_wire::MacAddr;

/// Number of ways (independent hash functions / sub-tables).
pub const WAYS: usize = 4;
/// Slots per bucket within a way.
pub const SLOTS_PER_BUCKET: usize = 2;
/// Default log2 of buckets per way: 64 buckets × 4 ways × 2 slots =
/// 512 slots — 50 % load at 256 stations, room for the ≤ ~128-station
/// fabrics most experiments build, and cheap to zero at construction.
/// Deployments that learn more stations size their geometry with
/// [`bucket_bits_for`], exactly as the NetFPGA build sizes its BRAM
/// table for the target network.
pub const DEFAULT_BUCKET_BITS: u32 = 6;

/// The smallest `bucket_bits` whose geometry keeps `expected_entries`
/// at or under 50 % occupancy (2× slot headroom), floored at
/// [`DEFAULT_BUCKET_BITS`]. At ≤ 50 % load, least-loaded placement
/// over 4 ways × 2 slots makes bucket overflow (and therefore
/// eviction) vanishingly rare — the sizing rule every in-repo
/// deployment uses. `tests/dleft_headroom.rs` fills every
/// power-of-two station count from 128 to 16,384 (exactly 50 % load)
/// with sequential and random MACs without one eviction.
pub fn bucket_bits_for(expected_entries: usize) -> u32 {
    let mut bits = DEFAULT_BUCKET_BITS;
    while ((WAYS * SLOTS_PER_BUCKET) << bits) < expected_entries.saturating_mul(2) {
        bits += 1;
    }
    bits
}

/// Per-way odd multipliers for multiply-shift hashing (splitmix64 /
/// xxhash mixing constants — fixed, so every run hashes identically).
const WAY_MULTIPLIERS: [u64; WAYS] =
    [0x9E37_79B9_7F4A_7C15, 0xC2B2_AE3D_27D4_EB4F, 0xD6E8_FEB8_6659_FD93, 0xA24B_AED4_963E_E407];

/// Keys a [`DLeftTable`] can store: cheap to copy, totally ordered (for
/// deterministic reporting iteration), and reducible to a well-mixed
/// 64-bit fingerprint.
pub trait DLeftKey: Copy + Eq + Ord {
    /// A 64-bit fingerprint of the key. Implementations should return
    /// raw key bits; [`mix64`] is applied on top before way reduction.
    fn fingerprint(&self) -> u64;
}

/// splitmix64 finalizer: diffuses structured key bits (sequential MACs,
/// small integers) across the whole word so the multiply-shift way
/// hashes see high-entropy input.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl DLeftKey for u32 {
    fn fingerprint(&self) -> u64 {
        u64::from(*self)
    }
}

impl DLeftKey for u64 {
    fn fingerprint(&self) -> u64 {
        *self
    }
}

impl DLeftKey for MacAddr {
    fn fingerprint(&self) -> u64 {
        self.to_u64()
    }
}

impl<A: DLeftKey, B: DLeftKey> DLeftKey for (A, B) {
    fn fingerprint(&self) -> u64 {
        // Mix the first component before combining so (a, b) and (b, a)
        // land apart even for commutative raw fingerprints.
        mix64(self.0.fingerprint()).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.1.fingerprint()
    }
}

/// Number of log2-microsecond buckets in the eviction-victim
/// life-left histogram: bucket 0 counts victims with less than 1 µs
/// left (already dead ones included), bucket `b ≥ 1` counts life left
/// in `[2^(b-1), 2^b)` µs, and the last bucket absorbs everything
/// longer (2^30 µs ≈ 18 minutes — far past any in-repo learning
/// timer).
pub const VICTIM_LIFE_BUCKETS: usize = 32;

/// Churn/aging instrumentation snapshot of a [`DLeftTable`] — the
/// observables experiment E11 drives past sizing headroom: overflow
/// evictions (with a histogram of the victims' remaining life: was the
/// table throwing away long-lived state or nearly-dead state?), the
/// occupancy high-water mark against the physical slot capacity, and
/// mass-expiry sweep shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableStats {
    /// Bucket-overflow evictions since construction (same counter as
    /// [`DLeftTable::evictions`]).
    pub evictions: u64,
    /// Highest occupied-slot count ever reached (live or
    /// not-yet-scrubbed), against [`DLeftTable::capacity`].
    pub occupancy_high_water: usize,
    /// Scrubber runs (explicit [`sweep`](DLeftTable::sweep)s and the
    /// background scrub every insert performs) that vacated at least
    /// one expired entry.
    pub expiry_sweeps: u64,
    /// Total entries vacated by expiry across all scrubber runs.
    pub swept_total: u64,
    /// Largest single scrubber run — the mass-expiry spike a Poisson
    /// departure burst produces.
    pub swept_max: usize,
    /// Eviction victims' remaining life (the victim's expiry minus the
    /// eviction instant, zero when already past — the quantity the
    /// earliest-expiry eviction rule minimises), log2-microsecond
    /// buckets; see [`VICTIM_LIFE_BUCKETS`].
    pub victim_life_histogram: [u64; VICTIM_LIFE_BUCKETS],
}

impl Default for TableStats {
    fn default() -> Self {
        TableStats {
            evictions: 0,
            occupancy_high_water: 0,
            expiry_sweeps: 0,
            swept_total: 0,
            swept_max: 0,
            victim_life_histogram: [0; VICTIM_LIFE_BUCKETS],
        }
    }
}

impl TableStats {
    /// The histogram bucket of a victim expiring at `expires` and
    /// evicted at `at`: its remaining life, zero when `at` is at or
    /// past the expiry.
    pub fn life_bucket(expires: SimTime, at: SimTime) -> usize {
        let life_us = expires.as_nanos().saturating_sub(at.as_nanos()) / 1_000;
        if life_us == 0 {
            0
        } else {
            ((64 - life_us.leading_zeros()) as usize).min(VICTIM_LIFE_BUCKETS - 1)
        }
    }

    /// Victims counted across the whole life-left histogram.
    pub fn victims_total(&self) -> u64 {
        self.victim_life_histogram.iter().sum()
    }
}

/// One cell of the key plane: `Some` iff the slot is occupied. Padded
/// to an 8-byte stride so that cells never share a word and — for
/// keys of up to 7 bytes, MACs included — a bucket is one aligned
/// 16-byte read (see [`KeyBucket`]).
#[derive(Debug, Clone, Copy)]
#[repr(align(8))]
struct KeyCell<K>(Option<K>);

/// The key cells of one bucket. 16-byte alignment makes a MAC-keyed
/// bucket exactly one aligned 16-byte block, so probing a way never
/// straddles a cache line.
#[derive(Debug, Clone, Copy)]
#[repr(align(16))]
struct KeyBucket<K>([KeyCell<K>; SLOTS_PER_BUCKET]);

/// Handle to an occupied slot, returned by [`DLeftTable::probe`]. It
/// names a physical slot, not a key: it stays valid until the next
/// call on the table that can vacate or re-key a slot (`insert*`,
/// `replace_at`, `sweep`, `remove`, `retain`, `clear`, or a lookup that
/// finds an expired key) — use it straight away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot(u32);

/// The fixed-geometry aging hash table. See the module docs for the
/// hardware mapping, the SoA plane layout, and the eviction policy.
#[derive(Debug, Clone)]
pub struct DLeftTable<K: DLeftKey, V> {
    /// log2 of buckets per way.
    bucket_bits: u32,
    /// SoA key plane, way-major then bucket; a cell is `Some` iff the
    /// slot is occupied (the plane doubles as the occupancy map, so a
    /// probe never leaves it until a key matches).
    keys: Vec<KeyBucket<K>>,
    /// SoA expiry plane; meaningful only while the slot is occupied.
    expires: Vec<SimTime>,
    /// SoA value plane; `Some` exactly where the key plane is. Off the
    /// probe path — read only after a key-plane hit.
    values: Vec<Option<V>>,
    /// Per-slot generation stamps; bumped on every vacate so stale
    /// deadlines fail revalidation.
    gens: Vec<u32>,
    /// Occupied slots (live or not-yet-scrubbed).
    len: usize,
    /// The background aging scrubber's pending deadlines: at least one
    /// per occupied slot, filed at or before the slot's expiry.
    deadlines: DeadlineHeap,
    /// Latest instant any accessor has reported; inserts scrub up to
    /// here.
    observed_now: SimTime,
    /// Bucket-overflow evictions since construction.
    evictions: u64,
    /// Churn instrumentation (high-water, sweep shape, victim life left);
    /// `stats.evictions` mirrors the standalone counter.
    stats: TableStats,
}

impl<K: DLeftKey, V> Default for DLeftTable<K, V> {
    fn default() -> Self {
        DLeftTable::new()
    }
}

impl<K: DLeftKey, V> DLeftTable<K, V> {
    /// A table with the default geometry ([`DEFAULT_BUCKET_BITS`]).
    pub fn new() -> Self {
        DLeftTable::with_bucket_bits(DEFAULT_BUCKET_BITS)
    }

    /// A table with `1 << bucket_bits` buckets per way (total slot
    /// capacity `WAYS << bucket_bits` × [`SLOTS_PER_BUCKET`]). The
    /// geometry is fixed for the table's lifetime, like the hardware.
    pub fn with_bucket_bits(bucket_bits: u32) -> Self {
        assert!(bucket_bits <= 24, "bucket_bits {bucket_bits} would allocate absurd geometry");
        let buckets = WAYS << bucket_bits;
        let total = buckets * SLOTS_PER_BUCKET;
        DLeftTable {
            bucket_bits,
            keys: vec![KeyBucket([KeyCell(None); SLOTS_PER_BUCKET]); buckets],
            expires: vec![SimTime::ZERO; total],
            values: (0..total).map(|_| None).collect(),
            gens: vec![0; total],
            len: 0,
            deadlines: DeadlineHeap::default(),
            observed_now: SimTime::ZERO,
            evictions: 0,
            stats: TableStats::default(),
        }
    }

    /// Total physical slot count of the fixed geometry.
    pub fn capacity(&self) -> usize {
        self.values.len()
    }

    /// Heap footprint of the table in bytes: every SoA plane, the
    /// generation stamps and the pending deadlines. Geometry dominates
    /// — the planes are allocated in full at construction — so dividing
    /// by the station count gives the bytes-per-station figure
    /// experiment E12 reports.
    pub fn heap_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<KeyBucket<K>>()
            + self.expires.capacity() * std::mem::size_of::<SimTime>()
            + self.values.capacity() * std::mem::size_of::<Option<V>>()
            + self.gens.capacity() * std::mem::size_of::<u32>()
            + self.deadlines.heap_bytes()
    }

    /// Deadlines filed with the scrubber, stale ones included: never
    /// more than the slots keyed plus the writes that shortened an
    /// expiry, since extensions file nothing.
    pub fn pending_deadlines(&self) -> usize {
        self.deadlines.len()
    }

    /// Bucket-overflow evictions since construction (see the module
    /// docs; zero in every static in-repo workload — E11's undersized
    /// churn regime is the deliberate exception).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Snapshot of the churn/aging instrumentation ([`TableStats`]).
    pub fn stats(&self) -> TableStats {
        let mut s = self.stats;
        s.evictions = self.evictions;
        s
    }

    /// Entry count including not-yet-scrubbed expired entries (same
    /// semantics as the `AgingMap` oracle: callers wanting exact live
    /// counts should `sweep` first).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the table holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The key cell of flat slot `idx`.
    #[inline]
    fn key(&self, idx: usize) -> &Option<K> {
        &self.keys[idx / SLOTS_PER_BUCKET].0[idx % SLOTS_PER_BUCKET].0
    }

    /// The key cell of flat slot `idx`, mutably.
    #[inline]
    fn key_mut(&mut self, idx: usize) -> &mut Option<K> {
        &mut self.keys[idx / SLOTS_PER_BUCKET].0[idx % SLOTS_PER_BUCKET].0
    }

    /// Index into the key plane of `key`'s candidate bucket in `way`:
    /// multiply-shift — the top `bucket_bits` bits of a per-way odd
    /// multiple of the mixed fingerprint — under the way's base.
    /// Times [`SLOTS_PER_BUCKET`] it is the bucket's first flat slot.
    #[inline]
    fn way_bucket(&self, fp: u64, way: usize) -> usize {
        let h = fp.wrapping_mul(WAY_MULTIPLIERS[way]);
        // `h >> (64 - bucket_bits)`, written so zero bits shift by 64.
        way << self.bucket_bits | ((h >> 1) >> (63 - self.bucket_bits)) as usize
    }

    /// Flat index of the slot holding `key`, if any. Walks the key
    /// plane only — the whole point of the SoA layout. The one probe
    /// loop: every keyed operation goes through it.
    #[inline]
    fn find(&self, key: &K) -> Option<usize> {
        let fp = mix64(key.fingerprint());
        let wanted = Some(*key);
        for way in 0..WAYS {
            let bucket = self.way_bucket(fp, way);
            let cells = &self.keys[bucket].0;
            for (i, cell) in cells.iter().enumerate() {
                if cell.0 == wanted {
                    return Some(bucket * SLOTS_PER_BUCKET + i);
                }
            }
        }
        None
    }

    /// Liveness of the (occupied) slot at `idx`, routed through the
    /// shared [`Aged::is_live`] boundary predicate.
    #[inline]
    fn slot_live(&self, idx: usize, now: SimTime) -> bool {
        Aged { value: (), expires: self.expires[idx] }.is_live(now)
    }

    /// Empty the slot and strand its pending deadlines.
    fn vacate(&mut self, idx: usize) {
        debug_assert!(self.key(idx).is_some());
        *self.key_mut(idx) = None;
        self.values[idx] = None;
        self.gens[idx] = self.gens[idx].wrapping_add(1);
        self.len -= 1;
    }

    /// Record that sim time has reached (at least) `now`.
    #[inline]
    fn observe(&mut self, now: SimTime) {
        if now > self.observed_now {
            self.observed_now = now;
        }
    }

    /// Advance the scrubber to `now`, vacating every entry whose expiry
    /// has passed; returns how many were vacated. Each due deadline is
    /// revalidated against the live slot (generation + current expiry)
    /// and re-filed when the expiry moved later.
    fn scrub(&mut self, now: SimTime) -> usize {
        let mut removed = 0;
        while let Some(entry) = self.deadlines.pop_due(now) {
            let idx = entry.slot as usize;
            if self.gens[idx] != entry.gen || self.key(idx).is_none() {
                continue; // vacated or re-keyed since filing
            }
            if self.slot_live(idx, now) {
                // The expiry was extended after filing: re-file at it.
                self.deadlines.insert(self.expires[idx], entry.slot, entry.gen);
            } else {
                self.vacate(idx);
                removed += 1;
            }
        }
        if removed > 0 {
            self.stats.expiry_sweeps += 1;
            self.stats.swept_total += removed as u64;
            self.stats.swept_max = self.stats.swept_max.max(removed);
        }
        removed
    }

    /// Background aging: scrub up to the latest instant the caller has
    /// shown us before taking new work, like the hardware. Returns
    /// that instant.
    fn scrub_to_watermark(&mut self) -> SimTime {
        let watermark = self.observed_now;
        self.scrub(watermark);
        watermark
    }

    // ---- the slot-handle primitive ----

    /// The lookup every keyed accessor is built on: the slot holding
    /// `key` if it is live at `now`. An expired entry is vacated on the
    /// way (the lookup path double-checks timestamps, as the hardware
    /// does) and reported absent. One walk of the key plane; the
    /// `*_at` accessors then read or write the slot without another.
    #[inline]
    pub fn probe(&mut self, key: &K, now: SimTime) -> Option<Slot> {
        self.observe(now);
        let idx = self.find(key)?;
        if !self.slot_live(idx, now) {
            self.vacate(idx);
            return None;
        }
        Some(Slot(idx as u32))
    }

    /// The value in a probed slot.
    #[inline]
    pub fn value_at(&self, slot: Slot) -> &V {
        self.values[slot.0 as usize].as_ref().expect("slot handle outlived its entry")
    }

    /// Extend a probed slot's expiry to `expires`; never shortens. The
    /// pending deadline is left to revalidate at the old instant, so a
    /// refresh costs one store.
    #[inline]
    pub fn touch_at(&mut self, slot: Slot, expires: SimTime) {
        let idx = slot.0 as usize;
        debug_assert!(self.key(idx).is_some(), "slot handle outlived its entry");
        self.expires[idx] = self.expires[idx].max(expires);
    }

    /// Overwrite a probed slot's value and expiry in place (the expiry
    /// may move either way). Scrubs to the observed watermark first,
    /// as every insert does — so the handle must come from a probe at
    /// the latest instant the table has been shown, which guarantees
    /// the scrub cannot expire the slot under it.
    pub fn replace_at(&mut self, slot: Slot, value: V, expires: SimTime) {
        self.scrub_to_watermark();
        let idx = slot.0 as usize;
        assert!(self.key(idx).is_some(), "slot handle outlived its entry");
        self.rewrite_slot(idx, value, expires);
    }

    /// Insert a key the caller has just [`probe`](DLeftTable::probe)d
    /// and found absent, skipping the second walk
    /// [`insert`](DLeftTable::insert) would spend rediscovering that.
    /// Returns the evicted victim if every candidate slot was occupied
    /// (see the module docs; `None` in normal operation).
    pub fn insert_absent(&mut self, key: K, value: V, expires: SimTime) -> Option<(K, V)> {
        let watermark = self.scrub_to_watermark();
        debug_assert!(self.find(&key).is_none(), "insert_absent of a present key");
        self.place(key, value, expires, watermark)
    }

    /// Store `value` in the occupied slot `idx`, filing nothing.
    fn write_slot(&mut self, idx: usize, value: V, expires: SimTime) {
        self.values[idx] = Some(value);
        self.expires[idx] = expires;
    }

    /// Overwrite the entry a live slot already holds. Its pending
    /// deadline fires at or before the old expiry, so only a shorter
    /// expiry needs one of its own; a later one is picked up when that
    /// deadline revalidates.
    fn rewrite_slot(&mut self, idx: usize, value: V, expires: SimTime) {
        if expires < self.expires[idx] {
            self.deadlines.insert(expires, idx as u32, self.gens[idx]);
        }
        self.write_slot(idx, value, expires);
    }

    /// Give an absent `key` a slot and store its entry. `watermark` is
    /// the instant the caller scrubbed to: an eviction measures its
    /// victim's remaining life from it.
    fn place(&mut self, key: K, value: V, expires: SimTime, watermark: SimTime) -> Option<(K, V)> {
        let fp = mix64(key.fingerprint());
        // d-left placement: the least-loaded candidate bucket wins,
        // leftmost way on ties; take its first free slot.
        let mut best: Option<(usize, usize)> = None; // (load, free idx)
        for way in 0..WAYS {
            let bucket = self.way_bucket(fp, way);
            let cells = &self.keys[bucket].0;
            let load = cells.iter().filter(|cell| cell.0.is_some()).count();
            if let Some(free) = cells.iter().position(|cell| cell.0.is_none()) {
                if best.is_none_or(|(l, _)| load < l) {
                    best = Some((load, bucket * SLOTS_PER_BUCKET + free));
                }
            }
        }
        let (idx, evicted) = match best {
            Some((_, idx)) => {
                self.len += 1;
                self.stats.occupancy_high_water = self.stats.occupancy_high_water.max(self.len);
                (idx, None)
            }
            None => {
                // Physical overflow: every candidate slot is occupied.
                // Evict the entry nearest its natural death (earliest
                // expiry, lowest slot index on ties) — deterministic.
                let mut victim = usize::MAX;
                let mut victim_expires = SimTime(u64::MAX);
                for way in 0..WAYS {
                    let base = self.way_bucket(fp, way) * SLOTS_PER_BUCKET;
                    for idx in base..base + SLOTS_PER_BUCKET {
                        debug_assert!(self.key(idx).is_some(), "overflow bucket has hole");
                        if self.expires[idx] < victim_expires {
                            victim_expires = self.expires[idx];
                            victim = idx;
                        }
                    }
                }
                self.evictions += 1;
                let old_key = self.key_mut(victim).take().expect("victim vanished");
                let old_value = self.values[victim].take().expect("victim value vanished");
                self.stats.victim_life_histogram
                    [TableStats::life_bucket(victim_expires, watermark)] += 1;
                self.gens[victim] = self.gens[victim].wrapping_add(1);
                (victim, Some((old_key, old_value)))
            }
        };
        *self.key_mut(idx) = Some(key);
        self.write_slot(idx, value, expires);
        self.deadlines.insert(expires, idx as u32, self.gens[idx]);
        evicted
    }

    // ---- keyed accessors: thin wrappers over the primitive ----

    /// Insert or replace `key`, valid until `expires`. Returns the
    /// evicted victim if the insert overflowed every candidate slot
    /// (see the module docs; `None` in normal operation).
    pub fn insert(&mut self, key: K, value: V, expires: SimTime) -> Option<(K, V)> {
        let watermark = self.scrub_to_watermark();
        match self.probe(&key, watermark) {
            Some(slot) => {
                self.rewrite_slot(slot.0 as usize, value, expires);
                None
            }
            None => self.place(key, value, expires, watermark),
        }
    }

    /// Live value for `key` at `now`; expired entries are removed on
    /// the way.
    pub fn get(&mut self, key: &K, now: SimTime) -> Option<&V> {
        let slot = self.probe(key, now)?;
        Some(self.value_at(slot))
    }

    /// Mutable live value for `key` at `now`.
    pub fn get_mut(&mut self, key: &K, now: SimTime) -> Option<&mut V> {
        let slot = self.probe(key, now)?;
        self.values[slot.0 as usize].as_mut()
    }

    /// Peek without removing expired entries (read-only inspection).
    pub fn peek(&self, key: &K, now: SimTime) -> Option<&V> {
        self.peek_aged(key, now).map(|aged| aged.value)
    }

    /// The full aged entry (value reference + expiry), live at `now`.
    /// (Returns `Aged<&V>` rather than `&Aged<V>`: the SoA layout has
    /// no contiguous `Aged` to borrow.)
    pub fn peek_aged(&self, key: &K, now: SimTime) -> Option<Aged<&V>> {
        let idx = self.find(key)?;
        if !self.slot_live(idx, now) {
            return None;
        }
        self.values[idx].as_ref().map(|v| Aged { value: v, expires: self.expires[idx] })
    }

    /// Extend the expiry of `key` to `expires` if present and live;
    /// returns whether the entry existed. Never shortens.
    pub fn touch(&mut self, key: &K, expires: SimTime, now: SimTime) -> bool {
        match self.probe(key, now) {
            Some(slot) => {
                self.touch_at(slot, expires);
                true
            }
            None => false,
        }
    }

    /// Remove `key`, returning its value if it was present (live or
    /// not).
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.find(key)?;
        let value = self.values[idx].take().expect("find returned empty slot");
        self.vacate(idx);
        Some(value)
    }

    /// Drop every entry for which `pred` fails (live ones included) —
    /// used to flush table entries pointing at a failed port. Visits
    /// slots in physical slot order, not key order (divergence from the
    /// oracle; observable only through `pred`'s side effects).
    pub fn retain<F: FnMut(&K, &V) -> bool>(&mut self, mut pred: F) {
        for idx in 0..self.capacity() {
            if let Some(key) = *self.key(idx) {
                let value = self.values[idx].as_ref().expect("occupied slot lost its value");
                if !pred(&key, value) {
                    self.vacate(idx);
                }
            }
        }
    }

    /// Remove entries expired at `now`; returns how many were removed.
    /// O(due deadlines × log pending), driven by the deadline heap.
    pub fn sweep(&mut self, now: SimTime) -> usize {
        self.observe(now);
        self.scrub(now)
    }

    /// Remove everything. The geometry (and slot generations) survive.
    pub fn clear(&mut self) {
        self.retain(|_, _| false);
        self.deadlines.clear();
    }

    /// Iterate live entries at `now`, in key order (collected and
    /// sorted — reporting path, not the hot path).
    pub fn iter_live(&self, now: SimTime) -> impl Iterator<Item = (&K, &V)> {
        let mut live: Vec<(&K, &V)> = (0..self.capacity())
            .filter(|&idx| self.slot_live(idx, now))
            .filter_map(|idx| Some((self.key(idx).as_ref()?, self.values[idx].as_ref()?)))
            .collect();
        live.sort_unstable_by(|a, b| a.0.cmp(b.0));
        live.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime(ns)
    }

    #[test]
    fn get_honours_expiry_boundary() {
        let mut m = DLeftTable::new();
        m.insert(1u32, "x", t(100));
        assert_eq!(m.get(&1, t(50)), Some(&"x"));
        assert_eq!(m.get(&1, t(100)), None, "expiry instant itself is dead");
        assert!(m.is_empty(), "lazy removal happened");
    }

    #[test]
    fn peek_does_not_mutate() {
        let mut m = DLeftTable::new();
        m.insert(1u32, "x", t(100));
        assert_eq!(m.peek(&1, t(200)), None);
        assert_eq!(m.len(), 1, "peek leaves expired entry in place");
    }

    #[test]
    fn touch_extends_but_never_shrinks() {
        let mut m = DLeftTable::new();
        m.insert(1u32, "x", t(100));
        assert!(m.touch(&1, t(300), t(50)));
        assert_eq!(m.peek_aged(&1, t(50)).unwrap().expires, t(300));
        assert!(m.touch(&1, t(200), t(50)), "shorter touch succeeds");
        assert_eq!(m.peek_aged(&1, t(50)).unwrap().expires, t(300), "but keeps later expiry");
        assert!(!m.touch(&2, t(300), t(50)), "absent key");
    }

    #[test]
    fn sweep_is_deadline_driven_and_counts() {
        let mut m = DLeftTable::new();
        m.insert(1u32, "a", t(10));
        m.insert(2u32, "b", t(20));
        m.insert(3u32, "c", t(5_000_000));
        assert_eq!(m.sweep(t(20)), 2);
        assert_eq!(m.len(), 1);
        assert_eq!(m.sweep(t(20)), 0, "idempotent at the same instant");
        assert_eq!(m.sweep(t(6_000_000)), 1);
        assert!(m.is_empty());
    }

    #[test]
    fn touched_entry_survives_its_original_deadline() {
        let mut m = DLeftTable::new();
        m.insert(1u32, "x", t(1_000));
        assert!(m.touch(&1, t(5_000_000), t(500)));
        // Sweep past the original deadline: the stale deadline must
        // revalidate and re-file, not kill the entry.
        assert_eq!(m.sweep(t(2_000_000)), 0);
        assert_eq!(m.peek(&1, t(2_000_000)), Some(&"x"));
        assert_eq!(m.sweep(t(6_000_000)), 1);
    }

    #[test]
    fn insert_scrubs_in_the_background() {
        let mut m = DLeftTable::new();
        m.insert(1u32, "a", t(10));
        // An access at t=5ms moves the observed watermark...
        assert_eq!(m.get(&2, t(5_000_000)), None);
        // ...so the next insert's background scrub vacates key 1
        // without anyone calling sweep.
        m.insert(3u32, "c", t(9_000_000));
        assert_eq!(m.len(), 1, "expired entry scrubbed by the insert");
    }

    #[test]
    fn overflow_evicts_earliest_expiry_deterministically() {
        // One bucket per way × 2 slots = 8 physical slots; the 9th
        // distinct key must evict exactly the earliest-expiring entry.
        let mut m: DLeftTable<u64, u64> = DLeftTable::with_bucket_bits(0);
        for i in 0..8u64 {
            assert_eq!(m.insert(i, i, t(1_000 + i)), None, "first 8 fit");
        }
        assert_eq!(m.len(), 8);
        let evicted = m.insert(99, 99, t(50_000));
        assert_eq!(evicted, Some((0, 0)), "earliest expiry (t=1000) is the victim");
        assert_eq!(m.evictions(), 1);
        assert_eq!(m.len(), 8, "eviction keeps the table full, not over-full");
        assert_eq!(m.peek(&99, t(0)), Some(&99));
        assert_eq!(m.peek(&0, t(0)), None);
    }

    #[test]
    fn stats_track_high_water_sweeps_and_victim_life_left() {
        let mut m: DLeftTable<u64, u64> = DLeftTable::with_bucket_bits(0);
        for i in 0..8u64 {
            m.insert(i, i, t(1_000_000 + i));
        }
        let s = m.stats();
        assert_eq!(s.occupancy_high_water, 8);
        assert_eq!(s.evictions, 0);
        assert_eq!(s.victims_total(), 0);
        // Observe t=500µs, then overflow the geometry: the victim (key
        // 0, expiring at 1 ms) has exactly 500 µs left, which is in the
        // [2^8, 2^9) µs bucket.
        assert_eq!(m.get(&99, t(500_000)), None);
        assert_eq!(m.insert(99, 99, t(50_000_000)), Some((0, 0)));
        let s = m.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.victims_total(), 1);
        assert_eq!(s.victim_life_histogram[9], 1);
        // At t=999.6µs the next victim (key 1, expiring at 1 ms + 1 ns)
        // has 401 ns left, which is bucket 0.
        assert_eq!(m.get(&98, t(999_600)), None);
        assert_eq!(m.insert(98, 98, t(50_000_000)), Some((1, 1)));
        let s = m.stats();
        assert_eq!((s.evictions, s.victims_total()), (2, 2));
        assert_eq!((s.victim_life_histogram[0], s.victim_life_histogram[9]), (1, 1));
        // Mass expiry: the six survivors of the t=0 fill die by 1 ms + 7 ns.
        let removed = m.sweep(t(1_000_100));
        assert_eq!(removed, 6);
        let s = m.stats();
        assert_eq!(s.expiry_sweeps, 1);
        assert_eq!(s.swept_total, 6);
        assert_eq!(s.swept_max, 6);
        assert_eq!(s.occupancy_high_water, 8, "high water survives the sweep");
    }

    #[test]
    fn life_bucket_edges() {
        // An insert scrubs to its watermark before it places, so a live
        // table only ever evicts a victim with time left; a victim at
        // or past its expiry still lands in bucket 0, never wraps.
        assert_eq!(TableStats::life_bucket(t(5_000), t(5_000)), 0, "at expiry");
        assert_eq!(TableStats::life_bucket(t(5_000), t(9_000_000)), 0, "past expiry");
        assert_eq!(TableStats::life_bucket(t(999), t(0)), 0, "sub-µs life shares bucket 0");
        assert_eq!(TableStats::life_bucket(t(1_000), t(0)), 1, "[1, 2) µs");
        assert_eq!(TableStats::life_bucket(t(3_500), t(1_500)), 2, "[2, 4) µs");
        assert_eq!(TableStats::life_bucket(t(501_000), t(1_000)), 9, "[256, 512) µs");
        assert_eq!(TableStats::life_bucket(t(u64::MAX), t(0)), VICTIM_LIFE_BUCKETS - 1);
    }

    #[test]
    fn iter_live_is_key_ordered_and_filtered() {
        let mut m = DLeftTable::new();
        m.insert(3u32, "c", t(100));
        m.insert(1u32, "a", t(100));
        m.insert(2u32, "dead", t(5));
        let keys: Vec<u32> = m.iter_live(t(10)).map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 3]);
    }

    #[test]
    fn retain_filters_by_value() {
        let mut m = DLeftTable::new();
        m.insert(1u32, 10, t(100));
        m.insert(2u32, 20, t(100));
        m.retain(|_, v| *v != 10);
        assert_eq!(m.peek(&1, t(0)), None);
        assert_eq!(m.peek(&2, t(0)), Some(&20));
    }

    #[test]
    fn remove_returns_even_expired_values() {
        let mut m = DLeftTable::new();
        m.insert(1u32, "x", t(10));
        assert_eq!(m.remove(&1), Some("x"), "expired but unswept: remove still returns it");
        assert_eq!(m.remove(&1), None);
    }

    #[test]
    fn removed_then_reinserted_key_survives_stale_deadline() {
        // Churn shape (E11): a station departs — the link-down flush
        // removes its entry, which must also strand the pending
        // deadline via the generation bump — and re-arrives with a
        // later expiry. The stale deadline must not kill the new
        // incarnation.
        let mut m = DLeftTable::new();
        m.insert(1u32, "departed", t(1_000));
        assert_eq!(m.remove(&1), Some("departed"));
        m.insert(1u32, "rearrived", t(5_000_000));
        assert_eq!(m.sweep(t(2_000)), 0, "old deadline fails generation revalidation");
        assert_eq!(m.peek(&1, t(2_000)), Some(&"rearrived"));
        assert_eq!(m.sweep(t(6_000_000)), 1, "new deadline is the one that fires");
    }

    #[test]
    fn reinsert_replaces_value_and_expiry_in_place() {
        let mut m = DLeftTable::new();
        m.insert(1u32, "old", t(10));
        m.insert(1u32, "new", t(100));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(&1, t(50)), Some(&"new"));
    }

    #[test]
    fn clear_then_reuse() {
        let mut m = DLeftTable::new();
        for i in 0..100u32 {
            m.insert(i, i, t(1_000));
        }
        m.clear();
        assert!(m.is_empty());
        m.insert(7u32, 7, t(2_000));
        assert_eq!(m.peek(&7, t(1_500)), Some(&7));
        assert_eq!(m.sweep(t(3_000)), 1, "stale pre-clear deadlines must not miscount");
    }

    #[test]
    fn heap_bytes_follow_geometry_not_occupancy() {
        let m: DLeftTable<MacAddr, u32> = DLeftTable::with_bucket_bits(bucket_bits_for(16_384));
        let empty: DLeftTable<MacAddr, u32> = DLeftTable::new();
        assert!(m.heap_bytes() > empty.heap_bytes(), "footprint follows geometry");
        // 16,384 stations at 50 % load: 32,768 slots of 8 (key cell) +
        // 8 (expiry) + 8 (Option<u32>) + 4 (generation) bytes, and
        // nothing else while empty.
        assert_eq!(m.capacity(), 32_768);
        assert_eq!(m.heap_bytes(), 28 * 32_768);
        // The bridge's one-word value makes it 24 bytes a slot.
        let bridge: DLeftTable<MacAddr, std::num::NonZeroU32> =
            DLeftTable::with_bucket_bits(bucket_bits_for(16_384));
        assert_eq!(bridge.heap_bytes(), 24 * 32_768);
        let mut filled = DLeftTable::with_bucket_bits(bucket_bits_for(16_384));
        for i in 0..1024u32 {
            filled.insert(MacAddr::from_index(1, i), i, t(1_000_000));
        }
        // One 16-byte deadline per keyed slot; the plane cost is fixed.
        assert_eq!(filled.pending_deadlines(), 1024);
        assert_eq!(filled.heap_bytes(), 28 * 32_768 + 16 * 1024);
    }

    #[test]
    fn mac_key_bucket_is_one_aligned_sixteen_byte_block() {
        use std::mem::{align_of, size_of};
        assert_eq!((size_of::<KeyCell<MacAddr>>(), align_of::<KeyCell<MacAddr>>()), (8, 8));
        assert_eq!((size_of::<KeyBucket<MacAddr>>(), align_of::<KeyBucket<MacAddr>>()), (16, 16));
        // Wider keys keep the cell alignment; only the stride grows.
        assert_eq!(align_of::<KeyCell<(MacAddr, u32)>>(), 8);
        let m: DLeftTable<MacAddr, u32> = DLeftTable::new();
        assert_eq!(
            m.keys.as_ptr() as usize % 16,
            0,
            "the plane itself starts on a bucket boundary"
        );
    }

    #[test]
    fn probe_hands_out_a_slot_that_the_at_accessors_share() {
        let mut m = DLeftTable::new();
        assert_eq!(m.probe(&1u32, t(0)), None);
        assert_eq!(m.insert_absent(1u32, "a", t(100)), None);
        let slot = m.probe(&1, t(10)).expect("live");
        assert_eq!(*m.value_at(slot), "a");
        m.touch_at(slot, t(50));
        assert_eq!(m.peek_aged(&1, t(10)).unwrap().expires, t(100), "touch_at never shortens");
        m.touch_at(slot, t(300));
        assert_eq!(m.peek_aged(&1, t(10)).unwrap().expires, t(300));
        m.replace_at(slot, "b", t(40));
        assert_eq!(m.probe(&1, t(10)), Some(slot), "replaced in place");
        assert_eq!(m.peek_aged(&1, t(10)).map(|a| (*a.value, a.expires)), Some(("b", t(40))));
        assert_eq!(m.probe(&1, t(40)), None, "replace_at may shorten; dead at the new expiry");
        assert!(m.is_empty(), "and the dead entry was vacated by the probe");
    }

    #[test]
    fn mac_and_pair_keys_spread() {
        // Smoke: 1024 sequential MACs at E8-sized geometry must fit
        // with zero evictions (the k=8 core-bridge load).
        let mut m: DLeftTable<MacAddr, u32> = DLeftTable::with_bucket_bits(bucket_bits_for(1024));
        for i in 0..1024u32 {
            m.insert(MacAddr::from_index(1, i), i, t(1_000_000));
        }
        assert_eq!(m.len(), 1024);
        assert_eq!(m.evictions(), 0);
        let mut pairs: DLeftTable<(MacAddr, u32), u32> =
            DLeftTable::with_bucket_bits(bucket_bits_for(512));
        for i in 0..512u32 {
            pairs.insert((MacAddr::from_index(1, i), i % 7), i, t(1_000_000));
        }
        assert_eq!(pairs.len(), 512);
        assert_eq!(pairs.evictions(), 0);
    }
}
