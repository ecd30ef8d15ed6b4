//! Same-run ratio guards for the fast table and scheduler structures.
//!
//! `repro micro` calls [`measure_all`] and holds its medians against
//! [`GUARDS`]. Each row times a fast structure (or access path) and the
//! boring one it replaced in the same process, so the ratio survives a
//! change of machine where an absolute time would not: the rows are the
//! evidence that the calendar queue, the d-left table's probe path and
//! the aging scrubber's idle sweep still pay their rent. End-to-end
//! speed is `benchmark/`'s job, not this module's.
//!
//! Methodology: time a full pass over the working set, repeat for
//! `SAMPLES` samples, report the median per-operation nanoseconds.
//! Accesses walk a pre-shuffled key schedule so neither table gets
//! sequential-locality charity. The two refresh paths, whose guard
//! reads a ratio close to its bound, are timed in alternating samples
//! on one warm table and held on the median of the per-sample ratios
//! ([`Readings::paired`]), so a slow moment on a noisy box slows both
//! sides of a sample instead of one side's median.

use arppath_netsim::{CalendarQueue, SimDuration, SimTime};
use arppath_switch::{bucket_bits_for, AgingMap, DLeftTable};
use arppath_wire::MacAddr;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::num::NonZeroU16;
use std::time::Instant;

/// One same-run ratio guard: `key` must measure at most `max_ratio ×
/// baseline` within one [`measure_all`] run.
#[derive(Debug)]
pub struct Guard {
    /// The fast structure's key.
    pub key: &'static str,
    /// The largest `key / baseline` that still holds.
    pub max_ratio: f64,
    /// The key it is held against.
    pub baseline: &'static str,
}

/// The guards `repro micro` enforces.
pub const GUARDS: [Guard; 4] = [
    // The calendar queue stays only while it beats a `BinaryHeap` on
    // the measured `k16_perm` flood schedule (BASELINES.md, "Scheduler
    // verdict").
    Guard { key: "calq_dense_ns", max_ratio: 1.0, baseline: "heap_dense_ns" },
    // Hit-then-refresh through one probe stays >= 1.3x faster than
    // through two key walks (1 / 1.3 = 0.77). Timed as a pair.
    Guard { key: "dleft_probe_refresh_ns", max_ratio: 0.77, baseline: "dleft_get_touch_ns" },
    // A sweep with nothing due is one compare against the table's
    // earliest block bound: it costs at most half a hit lookup, which
    // a walk over the 512 bounds of the 10k-entry geometry would not.
    Guard { key: "dleft_idle_sweep_ns", max_ratio: 0.5, baseline: "dleft_get_hit_10k_ns" },
    // d-left hit lookups stay >= 2x faster than the `BTreeMap` oracle
    // at 10k entries.
    Guard { key: "dleft_get_hit_10k_ns", max_ratio: 0.5, baseline: "btree_get_hit_10k_ns" },
];

/// What one [`measure_all`] run read.
#[derive(Debug)]
pub struct Readings {
    /// `(key, median ns/op)` for every timed row.
    pub medians: Vec<(&'static str, f64)>,
    /// `(key, baseline, ratio)` for rows timed in alternating samples:
    /// the median of the per-sample `key / baseline` ratios.
    pub paired: Vec<(&'static str, &'static str, f64)>,
}

impl Guard {
    /// `key / baseline` in `readings`: the paired ratio when the two
    /// were timed as a pair, else the ratio of their medians.
    pub fn ratio(&self, readings: &Readings) -> f64 {
        if let Some(&(.., ratio)) =
            readings.paired.iter().find(|&&(k, b, _)| k == self.key && b == self.baseline)
        {
            return ratio;
        }
        let get = |key: &str| {
            readings
                .medians
                .iter()
                .find(|(k, _)| *k == key)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("micro key {key} missing"))
        };
        get(self.key) / get(self.baseline)
    }

    /// Whether `readings` stays within this guard's bound.
    pub fn holds(&self, readings: &Readings) -> bool {
        self.ratio(readings) <= self.max_ratio
    }
}

/// Working-set size for the table comparisons: the ≥10k-entry regime
/// the All-Path scalability study names as the pressure point.
const TABLE_ENTRIES: usize = 10_000;
/// Samples per measurement; the median is reported.
const SAMPLES: usize = 11;
/// d-left geometry holding [`TABLE_ENTRIES`] at ~30 % load (4 ways ×
/// 4096 buckets × 2 slots = 32768 slots).
const TABLE_BUCKET_BITS: u32 = 12;

/// Expiry far past every measured instant, so lookups always hit.
fn far() -> SimTime {
    SimTime::ZERO + SimDuration::secs(3600)
}

/// Deterministically shuffled key schedule (splitmix64 walk) of `n`
/// present keys.
fn key_schedule(n: usize) -> Vec<MacAddr> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut state = 0x243F_6A88_85A3_08D3u64;
    for i in (1..order.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order.into_iter().map(|i| MacAddr::from_index(1, i)).collect()
}

/// The value every table fixture stores: as wide as the bridge's
/// packed path entry, so a d-left cell is the 8-byte cell a bridge
/// probes.
type Value = NonZeroU16;

/// The value stored for the `i`-th station: `i + 1`.
fn value(i: u32) -> Value {
    u16::try_from(i + 1).ok().and_then(NonZeroU16::new).expect("fixture fits 16 bits")
}

/// A populated d-left table of `n` live entries.
fn dleft_fixture(n: usize) -> DLeftTable<MacAddr, Value> {
    let mut t = DLeftTable::with_bucket_bits(TABLE_BUCKET_BITS);
    for i in 0..n as u32 {
        t.insert(MacAddr::from_index(1, i), value(i), far());
    }
    assert_eq!(t.evictions(), 0, "fixture geometry must not evict");
    t
}

/// A populated `AgingMap` oracle of `n` live entries.
fn btree_fixture(n: usize) -> AgingMap<MacAddr, Value> {
    let mut t = AgingMap::new();
    for i in 0..n as u32 {
        t.insert(MacAddr::from_index(1, i), value(i), far());
    }
    t
}

/// Per-op nanoseconds of one call of `pass`, which performs `ops`
/// operations.
fn ns_per_op(ops: usize, pass: impl FnOnce() -> u64) -> f64 {
    let started = Instant::now();
    black_box(pass());
    started.elapsed().as_nanos() as f64 / ops as f64
}

/// The median of `values`.
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    values[values.len() / 2]
}

/// Median per-op nanoseconds of `pass` (which performs `ops`
/// operations per call) over [`SAMPLES`] timed samples.
fn median_ns_per_op<F: FnMut() -> u64>(ops: usize, mut pass: F) -> f64 {
    // One warm-up pass outside the samples.
    black_box(pass());
    median((0..SAMPLES).map(|_| ns_per_op(ops, &mut pass)).collect())
}

/// `a` and `b` (each performing `ops` operations per call on `state`)
/// timed in [`SAMPLES`] alternating samples, the order within a sample
/// swapped every sample: `(median a, median b, median of the
/// per-sample a / b)`.
fn paired_ns_per_op<S>(
    ops: usize,
    state: &mut S,
    mut a: impl FnMut(&mut S) -> u64,
    mut b: impl FnMut(&mut S) -> u64,
) -> (f64, f64, f64) {
    // One warm-up pass of each outside the samples.
    black_box(a(state));
    black_box(b(state));
    let samples: Vec<(f64, f64)> = (0..SAMPLES)
        .map(|i| {
            if i % 2 == 0 {
                let ta = ns_per_op(ops, || a(state));
                (ta, ns_per_op(ops, || b(state)))
            } else {
                let tb = ns_per_op(ops, || b(state));
                (ns_per_op(ops, || a(state)), tb)
            }
        })
        .collect();
    (
        median(samples.iter().map(|s| s.0).collect()),
        median(samples.iter().map(|s| s.1).collect()),
        median(samples.iter().map(|s| s.0 / s.1).collect()),
    )
}

/// Events per instant in the dense schedule: what `k16_perm` drains
/// (9.86 M events in 192,514 instants ≈ 51).
const DENSE_COHORT: u64 = 51;
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
type DensePayload = [u64; 10];

/// The scheduler operations the dense schedule is driven through.
trait DenseQueue {
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
struct ByOrd((SimTime, u64, u64), DensePayload);

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

/// The measured `k16_perm` flood schedule in miniature: ~1,000
/// standing entries, ~51 events per instant, four instants per 64 ns
/// bucket. Each drained event schedules one follow-up a fixed distance
/// ahead, dealt round robin over the four instants of the target bucket
/// with a scrambled key — so every bucket fills interleaved in time and
/// out of canonical order, as it does when a fan-out's copies cross
/// links of different lengths. The queue lives across
/// [`DenseChurn::run`] calls like the engine's does across a
/// simulation: time what a warm scheduler does, not the growth of its
/// buckets.
struct DenseChurn<Q> {
    queue: Q,
    seq: u64,
    batch: Vec<DensePayload>,
}

impl<Q: DenseQueue> DenseChurn<Q> {
    /// The standing population in `queue` from the bucket at `origin`
    /// on, warmed until the pattern has been round the calendar ring
    /// often enough (ten times) to have touched every bucket.
    fn new(queue: Q, origin: SimTime) -> Self {
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
    fn run(&mut self, rounds: u64) -> u64 {
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
fn calq_dense() -> DenseChurn<CalendarQueue<DensePayload>> {
    DenseChurn::new(CalendarQueue::new(), SimTime(64))
}

/// The dense schedule on a `BinaryHeap` with the engine's same-instant
/// pop loop — the boring scheduler the calendar queue has to beat on
/// this schedule to stay (BASELINES.md, "Scheduler verdict").
fn heap_dense() -> DenseChurn<BinaryHeap<Reverse<ByOrd>>> {
    DenseChurn::new(BinaryHeap::new(), SimTime(64))
}

/// Stations in the refresh fixtures: what one `k8_unicast` bridge
/// holds, at the geometry the fabric builder would give it.
const REFRESH_ENTRIES: usize = 1_000;

/// A table of [`REFRESH_ENTRIES`] live MACs and the shuffled order to
/// visit them in — the unicast data path's working set, where every
/// frame hits and then refreshes an entry.
fn refresh_fixture() -> (DLeftTable<MacAddr, Value>, Vec<MacAddr>) {
    let mut t = DLeftTable::with_bucket_bits(bucket_bits_for(REFRESH_ENTRIES));
    for i in 0..REFRESH_ENTRIES as u32 {
        t.insert(MacAddr::from_index(1, i), value(i), far());
    }
    (t, key_schedule(REFRESH_ENTRIES))
}

/// Hit-then-refresh by key, the way the bridge did it before slot
/// handles: `get` finds the entry, `touch` finds it again.
fn dleft_get_touch(t: &mut DLeftTable<MacAddr, Value>, keys: &[MacAddr], now: SimTime) -> u64 {
    let expires = now + SimDuration::secs(120);
    let mut acc = 0;
    for k in keys {
        if let Some(&v) = t.get(k, now) {
            acc += u64::from(v.get());
            t.touch(k, expires, now);
        }
    }
    acc
}

/// The same hit-then-refresh on one probe: find the slot once, read
/// and extend it through the handle.
fn dleft_probe_refresh(t: &mut DLeftTable<MacAddr, Value>, keys: &[MacAddr], now: SimTime) -> u64 {
    let expires = now + SimDuration::secs(120);
    let mut acc = 0;
    for k in keys {
        if let Some(slot) = t.probe(k, now) {
            acc += u64::from(t.value_at(slot).get());
            t.touch_at(slot, expires);
        }
    }
    acc
}

/// Time between idle sweeps: the 137 µs between one host's ARP flood
/// and the next reaching a `k16_perm` bridge.
const AGING_IDLE_STEP: SimDuration = SimDuration::micros(137);

/// The 10k-entry fixture swept every [`AGING_IDLE_STEP`]: the scrub a
/// flooding bridge runs before every insert, which has nothing to
/// vacate until its entries start expiring at `far()`.
struct IdleAging {
    table: DLeftTable<MacAddr, Value>,
    now: SimTime,
}

impl IdleAging {
    /// The fixture at t = 0.
    fn new() -> Self {
        IdleAging { table: dleft_fixture(TABLE_ENTRIES), now: SimTime::ZERO }
    }

    /// Sweep `calls` steps; returns how many entries were vacated
    /// (none, while the fixture stays inside its horizon — see
    /// [`IdleAging::calls_left`]).
    fn run(&mut self, calls: u64) -> u64 {
        let mut swept = 0;
        for _ in 0..calls {
            self.now += AGING_IDLE_STEP;
            swept += self.table.sweep(self.now) as u64;
        }
        swept
    }

    /// Steps left before the entries expire.
    fn calls_left(&self) -> u64 {
        far().as_nanos().saturating_sub(self.now.as_nanos() + 1) / AGING_IDLE_STEP.as_nanos()
    }
}

/// Idle sweeps per timed sample.
const IDLE_SWEEPS: u64 = 100_000;

/// Every key [`GUARDS`] reads.
pub fn measure_all() -> Readings {
    let n = TABLE_ENTRIES;
    let hits = key_schedule(n);
    let mut dleft = dleft_fixture(n);
    let mut btree = btree_fixture(n);
    let now = SimTime(1);
    let mut out = Vec::new();
    let mut paired = Vec::new();

    out.push((
        "dleft_get_hit_10k_ns",
        median_ns_per_op(n, || {
            hits.iter().filter_map(|k| dleft.get(k, now).map(|v| u64::from(v.get()))).sum()
        }),
    ));
    out.push((
        "btree_get_hit_10k_ns",
        median_ns_per_op(n, || {
            hits.iter().filter_map(|k| btree.get(k, now).map(|v| u64::from(v.get()))).sum()
        }),
    ));
    let dense_ops = 1024 * DENSE_COHORT as usize;
    let (mut calq, mut heap) = (calq_dense(), heap_dense());
    out.push(("calq_dense_ns", median_ns_per_op(dense_ops, || calq.run(1024))));
    out.push(("heap_dense_ns", median_ns_per_op(dense_ops, || heap.run(1024))));
    // One probe per frame against two: the unicast hit-then-refresh,
    // timed as a pair on one warm table.
    let (mut table, keys) = refresh_fixture();
    let (probe_refresh, get_touch, ratio) = paired_ns_per_op(
        keys.len(),
        &mut table,
        |t| dleft_probe_refresh(t, &keys, now),
        |t| dleft_get_touch(t, &keys, now),
    );
    out.push(("dleft_get_touch_ns", get_touch));
    out.push(("dleft_probe_refresh_ns", probe_refresh));
    paired.push(("dleft_probe_refresh_ns", "dleft_get_touch_ns", ratio));
    // O(1) idle aging: a sweep with nothing due against a hit lookup
    // on the same geometry. Every sample must stay idle.
    let mut idle = IdleAging::new();
    assert!(idle.calls_left() > (SAMPLES as u64 + 1) * IDLE_SWEEPS);
    out.push((
        "dleft_idle_sweep_ns",
        median_ns_per_op(IDLE_SWEEPS as usize, || idle.run(IDLE_SWEEPS)),
    ));
    assert_eq!(idle.table.len(), TABLE_ENTRIES, "an idle sweep vacated an entry");
    Readings { medians: out, paired }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arppath_netsim::calq::{BUCKET_COUNT, BUCKET_SHIFT};

    #[test]
    fn fixtures_hold_the_full_working_set() {
        let mut d = dleft_fixture(TABLE_ENTRIES);
        let mut b = btree_fixture(TABLE_ENTRIES);
        let now = SimTime(1);
        for k in key_schedule(TABLE_ENTRIES) {
            assert_eq!(d.get(&k, now), b.get(&k, now));
            assert!(d.get(&k, now).is_some());
        }
    }

    #[test]
    fn every_guard_row_reports_its_breach() {
        // Every key at most a tenth of its baseline: inside every
        // bound. A key may be another guard's baseline, so raise each
        // baseline to ten times its key until that holds everywhere.
        // Lookups read a name's first entry, so repeats are harmless.
        let mut clean: Vec<(&str, f64)> =
            GUARDS.iter().flat_map(|g| [(g.key, 1.0), (g.baseline, 1.0)]).collect();
        let value = |values: &[(&str, f64)], name: &str| {
            values.iter().find(|(k, _)| *k == name).map(|&(_, v)| v).unwrap()
        };
        for _ in 0..GUARDS.len() {
            for g in &GUARDS {
                let floor = 10.0 * value(&clean, g.key);
                let slot = clean.iter_mut().find(|(k, _)| *k == g.baseline).unwrap();
                slot.1 = slot.1.max(floor);
            }
        }
        let readings = |medians: Vec<(&'static str, f64)>| Readings { medians, paired: Vec::new() };
        assert!(GUARDS.iter().all(|g| g.holds(&readings(clean.clone()))));
        for breached in &GUARDS {
            let mut values = clean.clone();
            let bound = value(&values, breached.baseline) * breached.max_ratio;
            let slot = values.iter_mut().find(|(k, _)| *k == breached.key).unwrap();
            slot.1 = bound * 1.01;
            let values = readings(values);
            let failing: Vec<&str> =
                GUARDS.iter().filter(|g| !g.holds(&values)).map(|g| g.key).collect();
            assert_eq!(failing, [breached.key]);
        }
    }

    #[test]
    fn a_paired_ratio_decides_its_guard_over_the_medians() {
        let guard = &GUARDS[1];
        let medians = vec![(guard.key, 1.0), (guard.baseline, 1.0)];
        let paired = |ratio| Readings {
            medians: medians.clone(),
            paired: vec![(guard.key, guard.baseline, ratio)],
        };
        assert!(!guard.holds(&Readings { medians: medians.clone(), paired: Vec::new() }));
        assert!(guard.holds(&paired(guard.max_ratio)));
        assert!(!guard.holds(&paired(guard.max_ratio * 1.01)));
    }

    #[test]
    fn churn_cycles_agree_on_checksums() {
        assert_eq!(calq_dense().run(1024), heap_dense().run(1024), "same schedule, same order");
    }

    /// Entries per start-up cohort in [`calq_rotating`]: a `k8_perm`
    /// fabric's hosts all starting in one instant.
    const BURST_COHORT: u64 = 1_024;
    /// Where the dense schedule starts once the burst has been round
    /// the ring: the first bucket of the second rotation.
    const ROTATING_ORIGIN: SimTime = SimTime((BUCKET_COUNT as u64) << BUCKET_SHIFT);

    /// Burst, then rotate: the dense schedule on a calendar queue that
    /// start-up traffic has been all the way round first — one
    /// 1,024-entry cohort (`BURST_COHORT`) pushed and drained in each of
    /// the 512 ring indices, as a fabric's `on_start` hellos and first
    /// timers do. A ring that keeps every index's high-water storage is
    /// left reserving 512 × 1,024 entries (54 MB) for the ~1,000 that
    /// are ever pending afterwards; one that recycles drained buckets
    /// reserves what is pending at once.
    fn calq_rotating() -> DenseChurn<CalendarQueue<DensePayload>> {
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

    #[test]
    fn rotating_ring_drains_in_heap_order_out_of_recycled_storage() {
        let mut rotating = calq_rotating();
        let mut heap = DenseChurn::new(BinaryHeap::new(), ROTATING_ORIGIN);
        assert_eq!(rotating.run(1024), heap.run(1024), "same schedule, same order");
        // 2,304 entries of 104 bytes (one recycled 1,024-entry `Vec`
        // and five of 256) = 239,616 bytes, within 2 %; the burst's
        // 54 MB of high-water storage is not kept.
        let reserved = rotating.queue.reserved_bytes();
        assert!(reserved <= 244_408, "{reserved} bytes reserved");
        rotating.run(4096);
        assert_eq!(rotating.queue.reserved_bytes(), reserved, "settled");
    }

    #[test]
    fn refresh_paths_agree_and_extend_every_entry() {
        let (mut keyed, keys) = refresh_fixture();
        let (mut probed, _) = refresh_fixture();
        let now = SimTime(5);
        let sum: u64 = (1..=REFRESH_ENTRIES as u64).sum();
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
    fn idle_aging_stays_idle_for_its_whole_horizon() {
        let mut idle = IdleAging::new();
        let calls = idle.calls_left();
        assert!(calls > (SAMPLES as u64 + 1) * IDLE_SWEEPS, "room for every sample: {calls}");
        // The measured stretch, then a jump to the last few thousand
        // steps of the horizon: nothing is due anywhere in it.
        assert_eq!(idle.run((SAMPLES as u64 + 1) * IDLE_SWEEPS), 0, "nothing due early on");
        idle.now =
            SimTime(idle.now.as_nanos() + (idle.calls_left() - 3_000) * AGING_IDLE_STEP.as_nanos());
        assert_eq!(idle.run(3_000), 0, "nothing due up to the horizon");
        assert_eq!(idle.calls_left(), 0);
        assert_eq!(idle.run(1), TABLE_ENTRIES as u64, "and everything just past it");
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
