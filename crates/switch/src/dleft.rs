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
//!   pointer chasing. The slots are stored **struct-of-arrays** in two
//!   planes indexed by the same flat slot index: the cell plane, whose
//!   cells hold a slot's key and value together (`None` marks a free
//!   slot, so the plane doubles as the occupancy map), and the expiry
//!   plane. A probe walks only the cell plane — one cache line per way
//!   — and touches the expiry plane for the single matched slot; a
//!   hit's value comes from the line the key compare already loaded.
//!   Cells are padded to 8 bytes and a bucket's cells to a 16-byte
//!   boundary. With the bridge's 16-bit value (its `PathEntry` packed
//!   into a `NonZeroU16`, whose niche fills the MAC's padding, so the
//!   `Option` around the pair needs no tag) a cell is 8 bytes, a
//!   bucket one aligned 16-byte block that never straddles a line,
//!   and a slot costs 16 bytes across both planes, plus one 8-byte
//!   aging bound per 64 slots;
//!   [`heap_bytes`](DLeftTable::heap_bytes) reports the resulting
//!   footprint so bytes-per-station is a measured number, not a guess.
//!   (PR 14 measured this layout against one 64-byte line per bucket
//!   holding both slots' key, expiry, value and stamps; the verdict is
//!   in `BASELINES.md`.)
//! * **One probe primitive**: [`probe`](DLeftTable::probe) walks the
//!   cell plane once and returns a [`Slot`] handle;
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
//! * **Background aging**: the flat slots are cut into blocks of 64,
//!   and each block keeps a lower bound on the expiry of every
//!   occupied slot in it; the table caches the minimum over the
//!   bounds. [`sweep`](DLeftTable::sweep) is one compare against
//!   that minimum while nothing can be due, and otherwise scans only
//!   the blocks whose bound has passed, like the hardware scrubber
//!   walking its BRAM: it vacates every expired slot there and resets
//!   each scanned bound to the exact earliest expiry left in the
//!   block. A bound is lowered only when a slot is keyed or re-keyed,
//!   or when a write shortens its expiry; a write or touch that
//!   extends it writes nothing, and the stale bound costs one block
//!   scan when it passes. Inserts opportunistically scrub to the
//!   latest observed instant, mirroring the hardware scrubber that
//!   runs whether or not anyone asks.
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
use arppath_netsim::SimTime;
use arppath_wire::MacAddr;

/// Number of ways (independent hash functions / sub-tables).
pub const WAYS: usize = 4;
/// Slots per bucket within a way.
pub const SLOTS_PER_BUCKET: usize = 2;
/// Consecutive flat slots sharing one aging bound: a scrub that finds
/// a bound passed scans this many slots. 32,768 slots, the largest
/// in-repo geometry, keep 512 bounds.
const BLOCK_SLOTS: usize = 64;
/// The bound of a block with no occupied slot: no scrub reaches it.
const NEVER: SimTime = SimTime(u64::MAX);
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

/// One cell of the cell plane: the slot's key and value, `Some` iff
/// the slot is occupied. Padded to an 8-byte stride so that cells never
/// share a word and — for a MAC key with a value of up to two bytes
/// that has a niche, the bridge's packed entry included — a bucket is
/// one aligned 16-byte read (see [`Bucket`]).
#[derive(Debug, Clone, Copy)]
#[repr(align(8))]
struct Cell<K, V>(Option<(K, V)>);

/// The cells of one bucket. 16-byte alignment makes a bridge bucket
/// exactly one aligned 16-byte block, so probing a way never straddles
/// a cache line.
#[derive(Debug, Clone, Copy)]
#[repr(align(16))]
struct Bucket<K, V>([Cell<K, V>; SLOTS_PER_BUCKET]);

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
    /// SoA cell plane, way-major then bucket: each slot's key and
    /// value, `Some` iff the slot is occupied (the plane doubles as the
    /// occupancy map, so a probe never leaves it until a key matches).
    cells: Vec<Bucket<K, V>>,
    /// SoA expiry plane; meaningful only while the slot is occupied.
    expires: Vec<SimTime>,
    /// The aging scrubber's per-block bounds: no occupied slot in block
    /// `b` (flat slots `b × BLOCK_SLOTS ..`) expires before `bounds[b]`.
    bounds: Vec<SimTime>,
    /// The minimum over `bounds`: a scrub before it has nothing to do.
    next_due: SimTime,
    /// Occupied slots (live or not-yet-scrubbed).
    len: usize,
    /// Latest instant any accessor has reported; inserts scrub up to
    /// here.
    observed_now: SimTime,
    /// Churn instrumentation (evictions, high-water, sweep shape,
    /// victim life left).
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
            cells: (0..buckets).map(|_| Bucket(std::array::from_fn(|_| Cell(None)))).collect(),
            expires: vec![SimTime::ZERO; total],
            bounds: vec![NEVER; total.div_ceil(BLOCK_SLOTS)],
            next_due: NEVER,
            len: 0,
            observed_now: SimTime::ZERO,
            stats: TableStats::default(),
        }
    }

    /// Total physical slot count of the fixed geometry.
    pub fn capacity(&self) -> usize {
        self.expires.len()
    }

    /// Heap footprint of the table in bytes: both SoA planes and the
    /// aging bounds. All of it is allocated at construction and none
    /// after, so it follows the geometry alone, and dividing by the
    /// station count gives the bytes-per-station figure experiment E12
    /// reports.
    pub fn heap_bytes(&self) -> usize {
        self.cells.capacity() * std::mem::size_of::<Bucket<K, V>>()
            + self.expires.capacity() * std::mem::size_of::<SimTime>()
            + self.bounds.capacity() * std::mem::size_of::<SimTime>()
    }

    /// Bucket-overflow evictions since construction (see the module
    /// docs; zero in every static in-repo workload — E11's undersized
    /// churn regime is the deliberate exception).
    pub fn evictions(&self) -> u64 {
        self.stats.evictions
    }

    /// Snapshot of the churn/aging instrumentation ([`TableStats`]).
    pub fn stats(&self) -> TableStats {
        self.stats
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

    /// The cell of flat slot `idx`.
    #[inline]
    fn cell(&self, idx: usize) -> &Option<(K, V)> {
        &self.cells[idx / SLOTS_PER_BUCKET].0[idx % SLOTS_PER_BUCKET].0
    }

    /// The cell of flat slot `idx`, mutably.
    #[inline]
    fn cell_mut(&mut self, idx: usize) -> &mut Option<(K, V)> {
        &mut self.cells[idx / SLOTS_PER_BUCKET].0[idx % SLOTS_PER_BUCKET].0
    }

    /// The entry in the occupied slot `idx`.
    #[inline]
    fn entry(&self, idx: usize) -> &(K, V) {
        self.cell(idx).as_ref().expect("slot handle outlived its entry")
    }

    /// Index into the cell plane of `key`'s candidate bucket in `way`:
    /// multiply-shift — the top `bucket_bits` bits of a per-way odd
    /// multiple of the mixed fingerprint — under the way's base.
    /// Times [`SLOTS_PER_BUCKET`] it is the bucket's first flat slot.
    #[inline]
    fn way_bucket(&self, fp: u64, way: usize) -> usize {
        let h = fp.wrapping_mul(WAY_MULTIPLIERS[way]);
        // `h >> (64 - bucket_bits)`, written so zero bits shift by 64.
        way << self.bucket_bits | ((h >> 1) >> (63 - self.bucket_bits)) as usize
    }

    /// Flat index of the slot holding `key`, if any. Walks the cell
    /// plane only — the whole point of the SoA layout. The one probe
    /// loop: every keyed operation goes through it.
    #[inline]
    fn find(&self, key: &K) -> Option<usize> {
        let fp = mix64(key.fingerprint());
        for way in 0..WAYS {
            let bucket = self.way_bucket(fp, way);
            let cells = &self.cells[bucket].0;
            for (i, cell) in cells.iter().enumerate() {
                if matches!(&cell.0, Some((k, _)) if k == key) {
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

    /// Empty the slot and hand back its entry. Its block's bound stays
    /// a valid lower bound, so it is left as it is.
    fn vacate(&mut self, idx: usize) -> (K, V) {
        let entry = self.cell_mut(idx).take().expect("vacated an empty slot");
        self.len -= 1;
        entry
    }

    /// Lower the bound of `idx`'s block to `expires`, a new expiry of
    /// that slot, if it is earlier. An extension never is: the bound
    /// is already at or below the slot's old expiry.
    #[inline]
    fn lower_bound(&mut self, idx: usize, expires: SimTime) {
        let bound = &mut self.bounds[idx / BLOCK_SLOTS];
        if expires < *bound {
            *bound = expires;
            self.next_due = self.next_due.min(expires);
        }
    }

    /// Record that sim time has reached (at least) `now`.
    #[inline]
    fn observe(&mut self, now: SimTime) {
        if now > self.observed_now {
            self.observed_now = now;
        }
    }

    /// Advance the scrubber to `now`, vacating every entry whose expiry
    /// has passed; returns how many were vacated. Scans only the blocks
    /// whose bound has passed and leaves each scanned bound at the
    /// exact earliest expiry left in its block.
    #[inline]
    fn scrub(&mut self, now: SimTime) -> usize {
        if now < self.next_due {
            return 0;
        }
        self.scrub_due_blocks(now)
    }

    /// The scan behind [`scrub`](DLeftTable::scrub), once `now` has
    /// reached `next_due`.
    fn scrub_due_blocks(&mut self, now: SimTime) -> usize {
        let mut removed = 0;
        let mut next_due = NEVER;
        for block in 0..self.bounds.len() {
            if self.bounds[block] <= now {
                let mut bound = NEVER;
                let first = block * BLOCK_SLOTS;
                for idx in first..(first + BLOCK_SLOTS).min(self.capacity()) {
                    if self.cell(idx).is_none() {
                        continue;
                    }
                    if self.slot_live(idx, now) {
                        bound = bound.min(self.expires[idx]);
                    } else {
                        self.vacate(idx);
                        removed += 1;
                    }
                }
                self.bounds[block] = bound;
            }
            next_due = next_due.min(self.bounds[block]);
        }
        self.next_due = next_due;
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
    /// does) and reported absent. One walk of the cell plane; the
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
        &self.entry(slot.0 as usize).1
    }

    /// Extend a probed slot's expiry to `expires`; never shortens. The
    /// block's bound is left at or below the old expiry, so a refresh
    /// costs one store.
    #[inline]
    pub fn touch_at(&mut self, slot: Slot, expires: SimTime) {
        let idx = slot.0 as usize;
        debug_assert!(self.cell(idx).is_some(), "slot handle outlived its entry");
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

    /// Overwrite the entry a live slot already holds. Its block's bound
    /// is at or below the old expiry, so only a shorter expiry lowers
    /// it; a later one is picked up when the block is next scanned.
    fn rewrite_slot(&mut self, idx: usize, value: V, expires: SimTime) {
        self.cell_mut(idx).as_mut().expect("slot handle outlived its entry").1 = value;
        self.expires[idx] = expires;
        self.lower_bound(idx, expires);
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
            let cells = &self.cells[bucket].0;
            let load = cells.iter().filter(|cell| cell.0.is_some()).count();
            if let Some(free) = cells.iter().position(|cell| cell.0.is_none()) {
                if best.is_none_or(|(l, _)| load < l) {
                    best = Some((load, bucket * SLOTS_PER_BUCKET + free));
                }
            }
        }
        let idx = match best {
            Some((_, idx)) => {
                self.len += 1;
                self.stats.occupancy_high_water = self.stats.occupancy_high_water.max(self.len);
                idx
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
                        debug_assert!(self.cell(idx).is_some(), "overflow bucket has hole");
                        if self.expires[idx] < victim_expires {
                            victim_expires = self.expires[idx];
                            victim = idx;
                        }
                    }
                }
                self.stats.evictions += 1;
                self.stats.victim_life_histogram
                    [TableStats::life_bucket(victim_expires, watermark)] += 1;
                victim
            }
        };
        // A free slot holds `None`; a victim's cell hands back its pair.
        let evicted = self.cell_mut(idx).replace((key, value));
        self.expires[idx] = expires;
        self.lower_bound(idx, expires);
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
        self.cell_mut(slot.0 as usize).as_mut().map(|(_, value)| value)
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
        Some(Aged { value: &self.entry(idx).1, expires: self.expires[idx] })
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
        Some(self.vacate(idx).1)
    }

    /// Drop every entry for which `pred` fails (live ones included) —
    /// used to flush table entries pointing at a failed port. Visits
    /// slots in physical slot order, not key order (divergence from the
    /// oracle; observable only through `pred`'s side effects).
    pub fn retain<F: FnMut(&K, &V) -> bool>(&mut self, mut pred: F) {
        for idx in 0..self.capacity() {
            if self.cell(idx).as_ref().is_some_and(|(key, value)| !pred(key, value)) {
                self.vacate(idx);
            }
        }
    }

    /// Remove entries expired at `now`; returns how many were removed.
    /// One compare while nothing can be due; otherwise a scan of the
    /// 64-slot blocks whose bound has passed and one pass over the
    /// bounds.
    pub fn sweep(&mut self, now: SimTime) -> usize {
        self.observe(now);
        self.scrub(now)
    }

    /// Remove everything. The geometry survives; the aging bounds are
    /// reset, as nothing is left to expire.
    pub fn clear(&mut self) {
        self.retain(|_, _| false);
        self.bounds.fill(NEVER);
        self.next_due = NEVER;
    }

    /// Iterate live entries at `now`, in key order (collected and
    /// sorted — reporting path, not the hot path).
    pub fn iter_live(&self, now: SimTime) -> impl Iterator<Item = (&K, &V)> {
        let mut live: Vec<(&K, &V)> = (0..self.capacity())
            .filter(|&idx| self.slot_live(idx, now))
            .filter_map(|idx| self.cell(idx).as_ref().map(|(key, value)| (key, value)))
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
    fn sweep_is_expiry_driven_and_counts() {
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
    fn touched_entry_survives_its_original_expiry() {
        let mut m = DLeftTable::new();
        m.insert(1u32, "x", t(1_000));
        assert!(m.touch(&1, t(5_000_000), t(500)));
        // Sweep past the original expiry: the block's stale bound must
        // send the scrubber to rescan the block, not kill the entry.
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
    fn removed_then_reinserted_key_survives_stale_bound() {
        // Churn shape (E11): a station departs — the link-down flush
        // removes its entry but leaves its block's bound at the old
        // expiry — and re-arrives with a later expiry. The scan the
        // stale bound triggers must not kill the new incarnation.
        let mut m = DLeftTable::new();
        m.insert(1u32, "departed", t(1_000));
        assert_eq!(m.remove(&1), Some("departed"));
        m.insert(1u32, "rearrived", t(5_000_000));
        assert_eq!(m.sweep(t(2_000)), 0, "the stale bound's scan finds the new expiry live");
        assert_eq!(m.peek(&1, t(2_000)), Some(&"rearrived"));
        assert_eq!(m.sweep(t(6_000_000)), 1, "the new expiry is the one that kills it");
    }

    #[test]
    fn a_shortening_write_lowers_its_block_bound() {
        // A sweep that finds nothing due raises the scanned bound to
        // the block's exact earliest expiry; a write that then shortens
        // an entry below it must lower the bound again, or the next
        // sweep would skip the block.
        let mut by_key = DLeftTable::new();
        by_key.insert(1u32, "long", t(1_000_000));
        assert_eq!(by_key.sweep(t(10)), 0, "raises the bound to 1 ms");
        by_key.insert(1u32, "short", t(100));
        assert_eq!(by_key.sweep(t(200)), 1, "shortened through insert");
        assert!(by_key.is_empty());

        let mut by_slot = DLeftTable::new();
        by_slot.insert(1u32, "long", t(1_000_000));
        assert_eq!(by_slot.sweep(t(10)), 0, "raises the bound to 1 ms");
        let slot = by_slot.probe(&1, t(10)).expect("live");
        by_slot.replace_at(slot, "short", t(100));
        assert_eq!(by_slot.sweep(t(200)), 1, "shortened through replace_at");
        assert!(by_slot.is_empty());
        // Keying a slot afresh lowers the bound as well.
        by_slot.insert(1u32, "fresh", t(300));
        assert_eq!(by_slot.sweep(t(400)), 1, "a fresh keying is swept too");
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
        assert_eq!(m.sweep(t(3_000)), 1, "the cleared entries must not be counted again");
    }

    #[test]
    fn heap_bytes_follow_geometry_not_occupancy() {
        let m: DLeftTable<MacAddr, u32> = DLeftTable::with_bucket_bits(bucket_bits_for(16_384));
        let empty: DLeftTable<MacAddr, u32> = DLeftTable::new();
        assert!(m.heap_bytes() > empty.heap_bytes(), "footprint follows geometry");
        // 16,384 stations at 50 % load: 32,768 slots of 16 (a tagged
        // key-and-u32 cell) + 8 (expiry) bytes, plus one 8-byte aging
        // bound per 64 slots.
        assert_eq!(m.capacity(), 32_768);
        assert_eq!(m.heap_bytes(), 24 * 32_768 + 8 * 512);
        // The bridge's 16-bit value fits the MAC cell's padding: 16
        // bytes a slot.
        let bridge: DLeftTable<MacAddr, std::num::NonZeroU16> =
            DLeftTable::with_bucket_bits(bucket_bits_for(16_384));
        assert_eq!(bridge.heap_bytes(), 16 * 32_768 + 8 * 512);
        let mut filled = DLeftTable::with_bucket_bits(bucket_bits_for(16_384));
        for i in 0..1024u32 {
            filled.insert(MacAddr::from_index(1, i), i, t(1_000_000));
        }
        // Aging keeps nothing per entry: filled costs what empty does.
        assert_eq!(filled.heap_bytes(), m.heap_bytes());
    }

    #[test]
    fn mac_key_bucket_is_one_aligned_sixteen_byte_block() {
        use std::mem::{align_of, size_of};
        use std::num::NonZeroU16;
        type BridgeCell = Cell<MacAddr, NonZeroU16>;
        type BridgeBucket = Bucket<MacAddr, NonZeroU16>;
        assert_eq!((size_of::<BridgeCell>(), align_of::<BridgeCell>()), (8, 8));
        assert_eq!((size_of::<BridgeBucket>(), align_of::<BridgeBucket>()), (16, 16));
        // Wider entries keep the cell alignment; only the stride grows.
        assert_eq!(align_of::<Cell<(MacAddr, u32), u32>>(), 8);
        let m: DLeftTable<MacAddr, NonZeroU16> = DLeftTable::new();
        assert_eq!(
            m.cells.as_ptr() as usize % 16,
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
