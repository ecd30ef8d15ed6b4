//! Shared micro-measurements for the fast-table data structures.
//!
//! Used twice: `benches/dleft_lookup.rs` wraps these fixtures in
//! criterion harnesses for `cargo bench`, and the `repro` binary calls
//! [`measure_all`] to embed the same medians in its machine-readable
//! `--bench-json` trajectory file (schema in `BASELINES.md`), so the
//! committed `BENCH_PR*.json` and the interactive bench output can
//! never drift apart structurally.
//!
//! Methodology matches the vendored criterion shim's spirit: time a
//! full pass over the working set, repeat for [`SAMPLES`] samples,
//! report the median per-operation nanoseconds. Accesses walk a
//! pre-shuffled key schedule so neither table gets sequential-locality
//! charity.

use arppath_netsim::calq::{BUCKET_COUNT, BUCKET_SHIFT};
use arppath_netsim::{CalendarQueue, SimDuration, SimTime};
use arppath_switch::wheel::{TimerEntry, TimerWheel, DEFAULT_TICK_SHIFT};
use arppath_switch::{bucket_bits_for, AgingMap, DLeftTable};
use arppath_wire::MacAddr;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Working-set size for the table comparisons: the ≥10k-entry regime
/// the All-Path scalability study names as the pressure point.
pub const TABLE_ENTRIES: usize = 10_000;
/// Samples per measurement; the median is reported.
pub const SAMPLES: usize = 11;
/// d-left geometry holding [`TABLE_ENTRIES`] at ~30 % load (4 ways ×
/// 4096 buckets × 2 slots = 32768 slots).
pub const TABLE_BUCKET_BITS: u32 = 12;

/// Expiry far past every measured instant, so lookups always hit.
fn far() -> SimTime {
    SimTime::ZERO + SimDuration::secs(3600)
}

/// Deterministically shuffled key schedule (splitmix64 walk) of
/// `n` present keys; `miss` makes keys from a disjoint namespace.
pub fn key_schedule(n: usize, miss: bool) -> Vec<MacAddr> {
    let kind = if miss { 9 } else { 1 };
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut state = 0x243F_6A88_85A3_08D3u64;
    for i in (1..order.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order.into_iter().map(|i| MacAddr::from_index(kind, i)).collect()
}

/// A populated d-left table of [`TABLE_ENTRIES`] live entries.
pub fn dleft_fixture(n: usize) -> DLeftTable<MacAddr, u32> {
    let mut t = DLeftTable::with_bucket_bits(TABLE_BUCKET_BITS);
    for i in 0..n as u32 {
        t.insert(MacAddr::from_index(1, i), i, far());
    }
    assert_eq!(t.evictions(), 0, "fixture geometry must not evict");
    t
}

/// A populated `AgingMap` oracle of [`TABLE_ENTRIES`] live entries.
pub fn btree_fixture(n: usize) -> AgingMap<MacAddr, u32> {
    let mut t = AgingMap::new();
    for i in 0..n as u32 {
        t.insert(MacAddr::from_index(1, i), i, far());
    }
    t
}

/// Median per-op nanoseconds of `pass` (which performs `ops`
/// operations per call) over [`SAMPLES`] timed samples.
pub fn median_ns_per_op<F: FnMut() -> u64>(ops: usize, mut pass: F) -> f64 {
    // One warm-up pass outside the samples.
    black_box(pass());
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let started = Instant::now();
            black_box(pass());
            started.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    samples[samples.len() / 2]
}

/// Cohort size per timestamp in the scheduler churn (the engine's
/// same-instant batches: a flood fan-out, a burst of deliveries).
pub const CHURN_COHORT: u64 = 4;

/// Steady-state scheduler churn through the calendar queue, shaped
/// like the engine's hot loop: drain the head cohort, process it, and
/// schedule one follow-up per event a few hundred nanoseconds out
/// (TxDone → Deliver chains). Runs `rounds` drains over a standing
/// population of 16 cohorts; returns a checksum.
pub fn calq_churn(rounds: u64) -> u64 {
    let mut q = CalendarQueue::new();
    let mut seq = 0u64;
    let mut acc = 0u64;
    let mut state = 0x9E37_79B9u64;
    for i in 0..16u64 {
        for _ in 0..CHURN_COHORT {
            q.push(SimTime(1 + i * 800), seq % CHURN_COHORT, seq, seq);
            seq += 1;
        }
    }
    let mut batch = Vec::new();
    for _ in 0..rounds {
        let Some(t) = q.drain_head(&mut batch) else { break };
        let next = t + SimDuration::nanos(400 + ((state >> 40) & 1023));
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        for item in batch.drain(..) {
            acc = acc.wrapping_add(t.as_nanos() ^ item);
            q.push(next, seq % CHURN_COHORT, seq, item);
            seq += 1;
        }
    }
    acc
}

/// The identical churn through the old `BinaryHeap` scheduler,
/// including its same-timestamp batch-pop loop.
pub fn heap_churn(rounds: u64) -> u64 {
    let mut q: BinaryHeap<Reverse<(SimTime, u64, u64)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut acc = 0u64;
    let mut state = 0x9E37_79B9u64;
    for i in 0..16u64 {
        for _ in 0..CHURN_COHORT {
            q.push(Reverse((SimTime(1 + i * 800), seq, seq)));
            seq += 1;
        }
    }
    let mut batch = Vec::new();
    for _ in 0..rounds {
        let Some(Reverse((t, _, _))) = q.peek().copied() else { break };
        while let Some(Reverse((et, _, _))) = q.peek() {
            if *et != t {
                break;
            }
            let Some(Reverse((_, _, item))) = q.pop() else { unreachable!() };
            batch.push(item);
        }
        let next = t + SimDuration::nanos(400 + ((state >> 40) & 1023));
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        for item in batch.drain(..) {
            acc = acc.wrapping_add(t.as_nanos() ^ item);
            q.push(Reverse((next, seq, item)));
            seq += 1;
        }
    }
    acc
}

/// Events per instant in the dense schedule: what `k16_perm` drains
/// (9.86 M events in 192,514 instants ≈ 51).
pub const DENSE_COHORT: u64 = 51;
/// Instants sharing one 64 ns calendar bucket in the dense schedule.
const DENSE_INSTANTS_PER_BUCKET: u64 = 4;
/// Their spacing within the bucket.
const DENSE_SLOT_NS: u64 = 64 / DENSE_INSTANTS_PER_BUCKET;
/// Occupied buckets standing in the dense schedule: 5 × 4 × 51 ≈ the
/// 1,100 ring entries `k16_perm` holds.
const DENSE_BUCKETS: u64 = 5;
/// Spacing of the occupied buckets; every follow-up is scheduled
/// `DENSE_BUCKETS × DENSE_STRIDE_NS` ahead, so the pattern recurs.
const DENSE_STRIDE_NS: u64 = 320;

/// An `EventKind`-sized payload (the engine's entries are 104 bytes:
/// 24 of ordering plus this), so the scheduler moves what it moves in
/// production.
pub type DensePayload = [u64; 10];

/// The scheduler operations the dense schedule is driven through.
pub trait DenseQueue {
    /// Schedule `item` at `(time, key, seq)`.
    fn push(&mut self, time: SimTime, key: u64, seq: u64, item: DensePayload);
    /// Drain the head instant into `out` in `(key, seq)` order.
    fn drain(&mut self, out: &mut Vec<DensePayload>) -> Option<SimTime>;
}

impl DenseQueue for CalendarQueue<DensePayload> {
    fn push(&mut self, time: SimTime, key: u64, seq: u64, item: DensePayload) {
        CalendarQueue::push(self, time, key, seq, item);
    }
    fn drain(&mut self, out: &mut Vec<DensePayload>) -> Option<SimTime> {
        self.drain_head(out)
    }
}

/// Heap entry ordered by `(time, key, seq)` alone, like the calendar
/// queue's.
pub struct ByOrd((SimTime, u64, u64), DensePayload);

impl PartialEq for ByOrd {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl Eq for ByOrd {}
impl PartialOrd for ByOrd {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ByOrd {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl DenseQueue for BinaryHeap<Reverse<ByOrd>> {
    fn push(&mut self, time: SimTime, key: u64, seq: u64, item: DensePayload) {
        BinaryHeap::push(self, Reverse(ByOrd((time, key, seq), item)));
    }
    fn drain(&mut self, out: &mut Vec<DensePayload>) -> Option<SimTime> {
        let time = self.peek()?.0 .0 .0;
        while self.peek().is_some_and(|Reverse(e)| e.0 .0 == time) {
            out.extend(self.pop().map(|Reverse(e)| e.1));
        }
        Some(time)
    }
}

/// The measured `k16_perm` flood schedule in miniature, the regime
/// [`calq_churn`]'s cohorts of 4 never reach: ~1,000 standing entries,
/// ~51 events per instant, four instants per 64 ns bucket. Each drained
/// event schedules one follow-up a fixed distance ahead, dealt round
/// robin over the four instants of the target bucket with a scrambled
/// key — so every bucket fills interleaved in time and out of
/// canonical order, as it does when a fan-out's copies cross links of
/// different lengths. The queue lives across [`DenseChurn::run`] calls
/// like the engine's does across a simulation: time what a warm
/// scheduler does, not the growth of its buckets. (Which is also what
/// this fixture cannot see — how much storage the warm scheduler cycles
/// through; [`calq_rotating`] reports that.)
pub struct DenseChurn<Q> {
    queue: Q,
    seq: u64,
    batch: Vec<DensePayload>,
}

impl<Q: DenseQueue> DenseChurn<Q> {
    /// The standing population in `queue` from the bucket at `origin`
    /// on, warmed until the pattern has been round the calendar ring
    /// often enough (ten times) to have touched every bucket.
    pub fn new(queue: Q, origin: SimTime) -> Self {
        let mut churn = DenseChurn { queue, seq: 0, batch: Vec::new() };
        for bucket in 0..DENSE_BUCKETS {
            for slot in 0..DENSE_INSTANTS_PER_BUCKET {
                for i in 0..DENSE_COHORT {
                    let time = origin
                        + SimDuration::nanos(bucket * DENSE_STRIDE_NS + slot * DENSE_SLOT_NS);
                    churn.queue.push(time, (i * 37) % DENSE_COHORT, churn.seq, [churn.seq; 10]);
                    churn.seq += 1;
                }
            }
        }
        churn.run(4096);
        churn
    }

    /// Drain `rounds` instants, scheduling every follow-up; returns a
    /// checksum of the drain order.
    pub fn run(&mut self, rounds: u64) -> u64 {
        let mut acc = 0u64;
        for _ in 0..rounds {
            let Some(t) = self.queue.drain(&mut self.batch) else { break };
            let target = (t.as_nanos() & !63) + DENSE_BUCKETS * DENSE_STRIDE_NS;
            for (i, item) in self.batch.drain(..).enumerate() {
                acc = acc.wrapping_mul(31).wrapping_add(t.as_nanos() ^ item[0]);
                let slot = i as u64 % DENSE_INSTANTS_PER_BUCKET;
                let key = (self.seq * 37) % DENSE_COHORT;
                self.queue.push(SimTime(target + slot * DENSE_SLOT_NS), key, self.seq, item);
                self.seq += 1;
            }
        }
        acc
    }
}

/// The dense schedule on the calendar queue.
pub fn calq_dense() -> DenseChurn<CalendarQueue<DensePayload>> {
    DenseChurn::new(CalendarQueue::new(), SimTime(64))
}

/// Entries per start-up cohort in [`calq_rotating`]: a `k8_perm`
/// fabric's hosts all starting in one instant.
const BURST_COHORT: u64 = 1_024;
/// Where the dense schedule starts once the burst has been round the
/// ring: the first bucket of the second rotation.
const ROTATING_ORIGIN: SimTime = SimTime((BUCKET_COUNT as u64) << BUCKET_SHIFT);

/// Burst, then rotate: the dense schedule on a calendar queue that
/// start-up traffic has been all the way round first — one
/// 1,024-entry cohort (`BURST_COHORT`) pushed and drained in each of the 512
/// ring indices, as a fabric's `on_start` hellos and first timers do.
/// A ring that keeps every index's high-water storage is left
/// reserving 512 × 1,024 entries (54 MB) for the ~1,000 that are ever
/// pending afterwards, and every push of the rotation then writes
/// memory last touched a whole ring turn ago; one that recycles drained
/// buckets reserves what is pending at once.
pub fn calq_rotating() -> DenseChurn<CalendarQueue<DensePayload>> {
    let mut queue = CalendarQueue::new();
    let (mut seq, mut batch) = (0, Vec::new());
    for bucket in 0..BUCKET_COUNT as u64 {
        for key in 0..BURST_COHORT {
            queue.push(SimTime(bucket << BUCKET_SHIFT), key, seq, [seq; 10]);
            seq += 1;
        }
        queue.drain_head(&mut batch);
        batch.clear();
    }
    DenseChurn::new(queue, ROTATING_ORIGIN)
}

impl DenseChurn<CalendarQueue<DensePayload>> {
    /// Event storage the queue holds allocated (exact and repeatable:
    /// it depends on the schedule alone).
    pub fn reserved_bytes(&self) -> usize {
        self.queue.reserved_bytes()
    }
}

/// The dense schedule on a `BinaryHeap` with the engine's same-instant
/// pop loop — the boring scheduler the calendar queue has to beat on
/// this schedule to stay (ROADMAP 1(a)).
pub fn heap_dense() -> DenseChurn<BinaryHeap<Reverse<ByOrd>>> {
    DenseChurn::new(BinaryHeap::new(), SimTime(64))
}

/// Stations in the refresh fixtures: what one `k8_unicast` bridge
/// holds, at the geometry the fabric builder would give it.
pub const REFRESH_ENTRIES: usize = 1_000;

/// A table of [`REFRESH_ENTRIES`] live MACs and the shuffled order to
/// visit them in — the unicast data path's working set, where every
/// frame hits and then refreshes an entry.
pub fn refresh_fixture() -> (DLeftTable<MacAddr, u32>, Vec<MacAddr>) {
    let mut t = DLeftTable::with_bucket_bits(bucket_bits_for(REFRESH_ENTRIES));
    for i in 0..REFRESH_ENTRIES as u32 {
        t.insert(MacAddr::from_index(1, i), i, far());
    }
    (t, key_schedule(REFRESH_ENTRIES, false))
}

/// Hit-then-refresh by key, the way the bridge did it before slot
/// handles: `get` finds the entry, `touch` finds it again.
pub fn dleft_get_touch(t: &mut DLeftTable<MacAddr, u32>, keys: &[MacAddr], now: SimTime) -> u64 {
    let expires = now + SimDuration::secs(120);
    let mut acc = 0;
    for k in keys {
        if let Some(&v) = t.get(k, now) {
            acc += u64::from(v);
            t.touch(k, expires, now);
        }
    }
    acc
}

/// The same hit-then-refresh on one probe: find the slot once, read
/// and extend it through the handle.
pub fn dleft_probe_refresh(
    t: &mut DLeftTable<MacAddr, u32>,
    keys: &[MacAddr],
    now: SimTime,
) -> u64 {
    let expires = now + SimDuration::secs(120);
    let mut acc = 0;
    for k in keys {
        if let Some(slot) = t.probe(k, now) {
            acc += u64::from(*t.value_at(slot));
            t.touch_at(slot, expires);
        }
    }
    acc
}

/// Deadlines standing in the wheel fixtures: one lock per station of a
/// `k16_perm` bridge.
pub const WHEEL_DEADLINES: u32 = 1_024;
/// How far out they sit: the default lock time.
const WHEEL_HORIZON: SimDuration = SimDuration::millis(500);
/// Ticks per idle advance: the 137 µs between one host's ARP flood
/// and the next reaching a `k16_perm` bridge. At that step an advance
/// covers ~72 buckets — all of level 0, three of level 1, the cursor's
/// own on each level above — and on the measured run found every one
/// of them empty, 335 k times.
pub const WHEEL_IDLE_STEP_TICKS: u64 = 134;

/// A wheel holding [`WHEEL_DEADLINES`] deadlines half a second out,
/// stepped forward [`WHEEL_IDLE_STEP_TICKS`] at a time: the scrub a
/// flooding bridge runs before every insert, which has nothing to
/// deliver until the locks start expiring.
pub struct IdleWheel {
    wheel: TimerWheel,
    tick: u64,
    due: Vec<TimerEntry>,
}

impl IdleWheel {
    /// The wheel at t = 0 with its deadlines filed.
    pub fn new() -> Self {
        let mut wheel = TimerWheel::default();
        wheel_insert(&mut wheel, SimTime::ZERO);
        IdleWheel { wheel, tick: 0, due: Vec::new() }
    }

    /// Advance `calls` steps; returns how many entries came due (none,
    /// while the fixture stays inside its horizon — see
    /// [`IdleWheel::calls_left`]).
    pub fn run(&mut self, calls: u64) -> u64 {
        for _ in 0..calls {
            self.tick += WHEEL_IDLE_STEP_TICKS;
            self.wheel.advance(SimTime(self.tick << DEFAULT_TICK_SHIFT), &mut self.due);
        }
        self.due.len() as u64
    }

    /// Steps left before the first deadline comes due.
    pub fn calls_left(&self) -> u64 {
        let horizon = WHEEL_HORIZON.as_nanos() >> DEFAULT_TICK_SHIFT;
        horizon.saturating_sub(self.tick) / WHEEL_IDLE_STEP_TICKS
    }
}

impl Default for IdleWheel {
    fn default() -> Self {
        IdleWheel::new()
    }
}

/// Empty `wheel` and file [`WHEEL_DEADLINES`] deadlines
/// `WHEEL_HORIZON` past `now`, a nanosecond apart — the yardstick an
/// idle advance is held against: looking at an idle wheel must not
/// cost more than a few filings into it.
pub fn wheel_insert(wheel: &mut TimerWheel, now: SimTime) -> u64 {
    wheel.clear();
    let first = now + WHEEL_HORIZON;
    for i in 0..WHEEL_DEADLINES {
        wheel.insert(first + SimDuration::nanos(u64::from(i)), i, 0);
    }
    wheel.len() as u64
}

/// Every micro-measurement as `(key, median ns/op)` pairs — the
/// `micro_ns` section of the bench-trajectory JSON. (One key is not a
/// time: `calq_reserved_bytes`, which rides beside the fixture it is
/// read from.)
pub fn measure_all() -> Vec<(&'static str, f64)> {
    let n = TABLE_ENTRIES;
    let hits = key_schedule(n, false);
    let misses = key_schedule(n, true);
    let mut dleft = dleft_fixture(n);
    let mut btree = btree_fixture(n);
    let now = SimTime(1);
    let mut out = Vec::new();

    out.push((
        "dleft_get_hit_10k_ns",
        median_ns_per_op(n, || {
            hits.iter().filter_map(|k| dleft.get(k, now).copied()).map(u64::from).sum()
        }),
    ));
    out.push((
        "btree_get_hit_10k_ns",
        median_ns_per_op(n, || {
            hits.iter().filter_map(|k| btree.get(k, now).copied()).map(u64::from).sum()
        }),
    ));
    out.push((
        "dleft_get_miss_10k_ns",
        median_ns_per_op(n, || {
            misses.iter().filter(|k| dleft.get(k, now).is_some()).count() as u64
        }),
    ));
    out.push((
        "btree_get_miss_10k_ns",
        median_ns_per_op(n, || {
            misses.iter().filter(|k| btree.get(k, now).is_some()).count() as u64
        }),
    ));
    // The background-aging claim: sweeping a table with nothing
    // expired is near-free for the wheel, O(table) for the BTreeMap.
    // Batch sweeps per sample so the wheel's ~tens-of-ns figure is not
    // dominated by clock-read overhead.
    const SWEEPS: usize = 100;
    out.push((
        "dleft_sweep_idle_10k_ns",
        median_ns_per_op(SWEEPS, || (0..SWEEPS).map(|_| dleft.sweep(now) as u64).sum()),
    ));
    out.push((
        "btree_sweep_idle_10k_ns",
        median_ns_per_op(SWEEPS, || (0..SWEEPS).map(|_| btree.sweep(now) as u64).sum()),
    ));
    let churn_ops = 1024 * CHURN_COHORT as usize;
    out.push(("calq_churn_1k_ns", median_ns_per_op(churn_ops, || calq_churn(1024))));
    out.push(("heap_churn_1k_ns", median_ns_per_op(churn_ops, || heap_churn(1024))));
    let dense_ops = 1024 * DENSE_COHORT as usize;
    let (mut calq, mut heap) = (calq_dense(), heap_dense());
    out.push(("calq_dense_ns", median_ns_per_op(dense_ops, || calq.run(1024))));
    out.push(("heap_dense_ns", median_ns_per_op(dense_ops, || heap.run(1024))));
    // The same schedule after a start-up burst has been round the ring.
    // The time is reported, not gated: in isolation a ring cycling
    // through 54 MB costs only ~25 against ~20 ns an event — what it
    // evicts (tables, links) is the end-to-end loss, and that does not
    // show here. The byte count is exact, and is the guard CI holds.
    let mut rotating = calq_rotating();
    out.push(("calq_rotating_ns", median_ns_per_op(dense_ops, || rotating.run(1024))));
    out.push(("calq_reserved_bytes", rotating.reserved_bytes() as f64));
    // One probe per frame against two: the unicast hit-then-refresh.
    let (mut table, keys) = refresh_fixture();
    out.push((
        "dleft_get_touch_ns",
        median_ns_per_op(keys.len(), || dleft_get_touch(&mut table, &keys, now)),
    ));
    out.push((
        "dleft_probe_refresh_ns",
        median_ns_per_op(keys.len(), || dleft_probe_refresh(&mut table, &keys, now)),
    ));
    // O(1) idle aging: an advance over ~72 empty buckets against the
    // cost of filing one deadline. Every sample must stay idle.
    let mut wheel = TimerWheel::default();
    out.push((
        "wheel_insert_ns",
        median_ns_per_op(WHEEL_DEADLINES as usize, || wheel_insert(&mut wheel, now)),
    ));
    let mut idle = IdleWheel::new();
    let calls = idle.calls_left() / (SAMPLES as u64 + 1);
    out.push(("wheel_idle_advance_ns", median_ns_per_op(calls as usize, || idle.run(calls))));
    assert_eq!(idle.run(0), 0, "the idle-advance fixture ran past its horizon");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_hold_the_full_working_set() {
        let mut d = dleft_fixture(TABLE_ENTRIES);
        let mut b = btree_fixture(TABLE_ENTRIES);
        let now = SimTime(1);
        for k in key_schedule(TABLE_ENTRIES, false) {
            assert_eq!(d.get(&k, now), b.get(&k, now));
            assert!(d.get(&k, now).is_some());
        }
        for k in key_schedule(64, true) {
            assert_eq!(d.get(&k, now), None);
            assert_eq!(b.get(&k, now), None);
        }
    }

    #[test]
    fn churn_cycles_agree_on_checksums() {
        assert_eq!(calq_churn(1024), heap_churn(1024), "same schedule, same drain order");
        assert_eq!(calq_dense().run(1024), heap_dense().run(1024), "same schedule, same order");
    }

    #[test]
    fn rotating_ring_drains_in_heap_order_out_of_recycled_storage() {
        let mut rotating = calq_rotating();
        let mut heap = DenseChurn::new(BinaryHeap::new(), ROTATING_ORIGIN);
        assert_eq!(rotating.run(1024), heap.run(1024), "same schedule, same order");
        // ~1,000 pending entries of 104 bytes; the burst's 54 MB of
        // high-water storage is not kept.
        let reserved = rotating.reserved_bytes();
        assert!(reserved < 1 << 20, "{reserved} bytes reserved");
        rotating.run(4096);
        assert_eq!(rotating.reserved_bytes(), reserved, "settled");
    }

    #[test]
    fn refresh_paths_agree_and_extend_every_entry() {
        let (mut keyed, keys) = refresh_fixture();
        let (mut probed, _) = refresh_fixture();
        let now = SimTime(5);
        let sum: u64 = (0..REFRESH_ENTRIES as u64).sum();
        assert_eq!(dleft_get_touch(&mut keyed, &keys, now), sum);
        assert_eq!(dleft_probe_refresh(&mut probed, &keys, now), sum);
        let refreshed = now + SimDuration::secs(120);
        for k in &keys {
            // `far()` is already later: a refresh never shortens.
            assert_eq!(keyed.peek_aged(k, now).unwrap().expires, far().max(refreshed));
            assert_eq!(probed.peek_aged(k, now).unwrap().expires, far().max(refreshed));
        }
    }

    #[test]
    fn idle_wheel_stays_idle_for_its_whole_horizon() {
        let mut idle = IdleWheel::new();
        let calls = idle.calls_left();
        assert!(calls > 3_000, "room for the warm-up and every sample: {calls}");
        assert_eq!(idle.run(calls), 0, "nothing due inside the horizon");
        assert_eq!(idle.calls_left(), 0);
        assert_eq!(idle.run(1), u64::from(WHEEL_DEADLINES), "and everything just past it");
    }

    /// A calendar queue that notes every drained cohort's instant and
    /// size.
    #[derive(Default)]
    struct Recording {
        inner: CalendarQueue<DensePayload>,
        cohorts: Vec<(u64, usize)>,
    }

    impl DenseQueue for Recording {
        fn push(&mut self, time: SimTime, key: u64, seq: u64, item: DensePayload) {
            self.inner.push(time, key, seq, item);
        }
        fn drain(&mut self, out: &mut Vec<DensePayload>) -> Option<SimTime> {
            let before = out.len();
            let time = self.inner.drain_head(out)?;
            self.cohorts.push((time.as_nanos(), out.len() - before));
            Some(time)
        }
    }

    #[test]
    fn dense_schedule_has_the_measured_shape() {
        // However long the churn runs, ~1,000 entries stand in the
        // ring, cohorts stay ~51 strong and sit four to a 64 ns bucket.
        let mut churn = DenseChurn::new(Recording::default(), SimTime(64));
        churn.run(100);
        let q = churn.queue;
        assert_eq!(q.inner.len(), 1020);
        let mut per_bucket = std::collections::BTreeMap::new();
        for &(time, size) in &q.cohorts[q.cohorts.len() - 100..] {
            assert!((45..=58).contains(&size), "cohort of {size}");
            *per_bucket.entry(time >> 6).or_insert(0) += 1;
        }
        assert!(per_bucket.values().all(|&instants| instants == 4), "{per_bucket:?}");
    }
}
