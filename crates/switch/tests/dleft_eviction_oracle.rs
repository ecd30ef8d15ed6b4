//! `DLeftTable` *past* capacity, against an eviction-aware slot oracle.
//!
//! The companion suite `dleft_oracle.rs` pins observational equivalence
//! with `AgingMap` in the regime every in-repo deployment is sized for:
//! zero evictions. This suite drives the table deliberately past its
//! physical capacity — E11's undersized churn regime — and pins the
//! documented overflow policy itself. At `bucket_bits = 0` every key's
//! candidate set is the same 8 physical slots (each way's only bucket,
//! probed leftmost-way first), so a naive 8-slot array implementing
//! the documented rules — d-left placement (least-loaded bucket,
//! leftmost way on ties, first free slot), earliest-expiry eviction
//! (lowest flat slot index on ties), scrub-to-watermark before every
//! insert, lazy expiry at `expires <= now` — is an *exact* executable
//! specification, victim choice included. Any drift in placement,
//! victim selection, or the expiry boundary shows up as a value or
//! live-view mismatch.

use arppath_netsim::{SimDuration, SimTime};
use arppath_switch::dleft::{SLOTS_PER_BUCKET, WAYS};
use arppath_switch::DLeftTable;
use proptest::prelude::*;

/// Physical slot count of the `bucket_bits = 0` geometry.
const CAP: usize = WAYS * SLOTS_PER_BUCKET;

fn t(ns: u64) -> SimTime {
    SimTime(ns)
}

/// The documented d-left policy as a flat 8-slot array: no hashing
/// (every key maps to bucket 0 of every way at this geometry), no
/// timer wheel, no generations — just the rules the module docs state.
struct SlotOracle {
    /// `(key, value, expires)` per flat slot; bucket `b` owns slots
    /// `(2b, 2b + 1)`.
    slots: [Option<(u32, u64, SimTime)>; CAP],
    /// Latest instant any accessor reported; inserts scrub up to here.
    watermark: SimTime,
    evictions: u64,
}

impl SlotOracle {
    fn new() -> Self {
        SlotOracle { slots: [None; CAP], watermark: SimTime::ZERO, evictions: 0 }
    }

    fn observe(&mut self, now: SimTime) {
        if now > self.watermark {
            self.watermark = now;
        }
    }

    /// Vacate everything dead at `now` (`expires <= now`).
    fn scrub(&mut self, now: SimTime) -> usize {
        let mut removed = 0;
        for slot in self.slots.iter_mut() {
            if slot.is_some_and(|(_, _, exp)| exp <= now) {
                *slot = None;
                removed += 1;
            }
        }
        removed
    }

    fn find(&self, key: u32) -> Option<usize> {
        self.slots.iter().position(|s| s.is_some_and(|(k, _, _)| k == key))
    }

    fn insert(&mut self, key: u32, val: u64, expires: SimTime) -> Option<(u32, u64)> {
        let watermark = self.watermark;
        self.scrub(watermark);
        if let Some(idx) = self.find(key) {
            self.slots[idx] = Some((key, val, expires));
            return None;
        }
        // Placement: least-loaded bucket, leftmost way on ties, first
        // free slot within the bucket.
        let mut best: Option<(usize, usize)> = None; // (load, free idx)
        for way in 0..WAYS {
            let base = way * SLOTS_PER_BUCKET;
            let load = (base..base + SLOTS_PER_BUCKET).filter(|&i| self.slots[i].is_some()).count();
            let free = (base..base + SLOTS_PER_BUCKET).find(|&i| self.slots[i].is_none());
            if let Some(free_idx) = free {
                if best.is_none_or(|(l, _)| load < l) {
                    best = Some((load, free_idx));
                }
            }
        }
        if let Some((_, idx)) = best {
            self.slots[idx] = Some((key, val, expires));
            return None;
        }
        // Overflow: evict the earliest expiry, lowest flat slot index
        // on ties.
        let victim = (0..CAP).min_by_key(|&i| (self.slots[i].unwrap().2, i)).unwrap();
        let (vk, vv, _) = self.slots[victim].take().unwrap();
        self.slots[victim] = Some((key, val, expires));
        self.evictions += 1;
        Some((vk, vv))
    }

    fn get(&mut self, key: u32, now: SimTime) -> Option<u64> {
        self.observe(now);
        let idx = self.find(key)?;
        let (_, val, exp) = self.slots[idx].unwrap();
        if exp <= now {
            self.slots[idx] = None;
            None
        } else {
            Some(val)
        }
    }

    fn peek(&self, key: u32, now: SimTime) -> Option<u64> {
        let idx = self.find(key)?;
        let (_, val, exp) = self.slots[idx].unwrap();
        (exp > now).then_some(val)
    }

    fn touch(&mut self, key: u32, expires: SimTime, now: SimTime) -> bool {
        self.observe(now);
        let Some(idx) = self.find(key) else { return false };
        let (k, v, exp) = self.slots[idx].unwrap();
        if exp > now {
            self.slots[idx] = Some((k, v, exp.max(expires)));
            true
        } else {
            self.slots[idx] = None;
            false
        }
    }

    fn remove(&mut self, key: u32) -> Option<u64> {
        let idx = self.find(key)?;
        let (_, val, _) = self.slots[idx].take().unwrap();
        Some(val)
    }

    fn sweep(&mut self, now: SimTime) -> usize {
        self.observe(now);
        self.scrub(now)
    }

    fn len(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    fn live_view(&self, now: SimTime) -> Vec<(u32, u64)> {
        let mut live: Vec<(u32, u64)> = self
            .slots
            .iter()
            .flatten()
            .filter(|(_, _, exp)| *exp > now)
            .map(|(k, v, _)| (*k, *v))
            .collect();
        live.sort_unstable();
        live
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Randomized op schedules with 3× more keys than slots: every
    /// observable — insert's evicted pair (victim choice, byte for
    /// byte), get/peek/touch/remove results, sweep counts, entry
    /// counts, live views — must match the oracle after every op, and
    /// occupancy may never exceed the physical capacity.
    #[test]
    fn past_capacity_schedules_match_the_eviction_oracle(
        raw_ops in proptest::collection::vec(
            ((0u8..6, 0u32..24, 0u64..1000, 1u64..400), 0u64..200),
            1..160,
        ),
    ) {
        let mut oracle = SlotOracle::new();
        let mut dleft: DLeftTable<u32, u64> = DLeftTable::with_bucket_bits(0);
        prop_assert_eq!(dleft.capacity(), CAP);
        let mut now = SimTime::ZERO;
        for ((sel, key, val, ttl), dt) in raw_ops {
            now += SimDuration::nanos(dt);
            let expires = now + SimDuration::nanos(ttl);
            match sel {
                0 => prop_assert_eq!(
                    dleft.insert(key, val, expires),
                    oracle.insert(key, val, expires),
                    "insert (victim choice included) diverged"
                ),
                1 => prop_assert_eq!(dleft.get(&key, now).copied(), oracle.get(key, now)),
                2 => prop_assert_eq!(dleft.peek(&key, now).copied(), oracle.peek(key, now)),
                3 => prop_assert_eq!(
                    dleft.touch(&key, expires, now),
                    oracle.touch(key, expires, now)
                ),
                4 => prop_assert_eq!(dleft.remove(&key), oracle.remove(key)),
                _ => prop_assert_eq!(dleft.sweep(now), oracle.sweep(now)),
            }
            prop_assert_eq!(dleft.len(), oracle.len());
            prop_assert!(dleft.len() <= dleft.capacity(), "occupancy exceeded physical capacity");
            let o = oracle.live_view(now);
            let d: Vec<(u32, u64)> =
                dleft.iter_live(now).map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(d, o);
        }
        prop_assert_eq!(dleft.evictions(), oracle.evictions);
        prop_assert_eq!(
            dleft.stats().victims_total(), oracle.evictions,
            "every eviction lands in the victim life-left histogram"
        );
    }

    /// The same overflow schedule replayed on a fresh table yields the
    /// identical eviction sequence — victim choice depends on table
    /// state alone, never on allocation or iteration luck.
    #[test]
    fn victim_choice_is_deterministic_across_replays(
        inserts in proptest::collection::vec((0u32..32, 1u64..500_000), 16..64),
    ) {
        let run = || {
            let mut m: DLeftTable<u32, u32> = DLeftTable::with_bucket_bits(0);
            let mut victims = Vec::new();
            for (i, &(key, ttl)) in inserts.iter().enumerate() {
                let now = t(i as u64 * 100);
                m.sweep(now);
                victims.push(m.insert(key, key, now + SimDuration::nanos(ttl)));
            }
            (victims, m.evictions())
        };
        let (victims_a, evictions_a) = run();
        let (victims_b, evictions_b) = run();
        prop_assert_eq!(victims_a, victims_b);
        prop_assert_eq!(evictions_a, evictions_b);
    }
}

#[test]
fn victim_ties_break_to_the_lowest_flat_slot() {
    // All 8 entries share one expiry, so victim choice is decided
    // purely by the documented flat-slot tie-break. The d-left fill
    // order at this geometry interleaves ways — keys 0..8 land in flat
    // slots 0, 2, 4, 6, 1, 3, 5, 7 — so the first victim is slot 0
    // (key 0) and the second is slot 1 (key 4, *not* key 1).
    let mut m: DLeftTable<u64, u64> = DLeftTable::with_bucket_bits(0);
    for i in 0..8u64 {
        assert_eq!(m.insert(i, i, t(1_000)), None);
    }
    assert_eq!(m.insert(100, 100, t(50_000)), Some((0, 0)), "slot 0 holds key 0");
    assert_eq!(m.insert(101, 101, t(50_000)), Some((4, 4)), "slot 1 holds key 4");
    assert_eq!(m.evictions(), 2);
}

#[test]
fn boundary_twin_dead_at_expiry_instant_frees_the_slot() {
    // Twin A of the touch-vs-evict boundary: at `now == expires` the
    // entry is dead, so a touch fails, the slot is vacated, and the
    // next insert *places* instead of evicting.
    let mut m: DLeftTable<u32, u32> = DLeftTable::with_bucket_bits(0);
    m.insert(0, 0, t(100));
    for i in 1..8u32 {
        m.insert(i, i, t(10_000));
    }
    assert!(!m.touch(&0, t(50_000), t(100)), "expires <= now: the touch finds a dead entry");
    assert_eq!(m.insert(9, 9, t(10_000)), None, "vacated slot absorbs the insert");
    assert_eq!(m.evictions(), 0);
    assert_eq!(m.len(), 8);
}

#[test]
fn boundary_twin_live_before_expiry_forces_an_eviction() {
    // Twin B: one nanosecond earlier the entry is live, the touch
    // extends it past everyone else, and the next insert must evict a
    // *different* entry — the touched one survives.
    let mut m: DLeftTable<u32, u32> = DLeftTable::with_bucket_bits(0);
    m.insert(0, 0, t(100));
    for i in 1..8u32 {
        m.insert(i, i, t(10_000));
    }
    assert!(m.touch(&0, t(50_000), t(99)), "expires > now: the touch lands");
    let evicted = m.insert(9, 9, t(10_000));
    assert_eq!(m.evictions(), 1);
    let (victim, _) = evicted.expect("full table must evict");
    assert_ne!(victim, 0, "the freshly touched entry is no longer the earliest expiry");
    assert_eq!(m.peek(&0, t(200)), Some(&0), "touched entry survived the overflow");
}

#[test]
fn eviction_of_an_already_dead_victim_is_still_counted() {
    // No accessor ever reports sim time, so the watermark stays at
    // zero and the background scrub cannot collect wall-dead entries;
    // the overflow path then evicts an already-dead victim — the
    // benign case the module docs call out — and must still count it.
    let mut m: DLeftTable<u32, u32> = DLeftTable::with_bucket_bits(0);
    for i in 0..8u32 {
        m.insert(i, i, t(10 + u64::from(i)));
    }
    let evicted = m.insert(9, 9, t(1_000_000));
    assert_eq!(evicted, Some((0, 0)), "earliest expiry evicted even though long dead");
    assert_eq!(m.evictions(), 1);
    assert_eq!(m.stats().victims_total(), 1);
}
