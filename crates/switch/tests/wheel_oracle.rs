//! The hierarchical timer wheel against a sorted-heap oracle.
//!
//! `dleft_oracle.rs` exercises the wheel indirectly through
//! [`DLeftTable`]'s aging; this suite pins the wheel's own delivery
//! contract directly, under randomized mass-expiry schedules:
//!
//! * every filed entry is delivered **exactly once** — on the first
//!   [`TimerWheel::advance`] whose target covers the entry's tick,
//! * never before its tick (sub-tick earliness is allowed by the
//!   contract: a tick is the wheel's resolution, and the owning
//!   table's revalidation absorbs it),
//! * regardless of how the advance instants chop the timeline — one
//!   giant jump, thousands of tiny steps, or anything between (the
//!   cascade path differs wildly between those; the observable
//!   behaviour must not).
//!
//! The oracle is a `BinaryHeap` of (tick, id): `advance(now)` must
//! return exactly the heap prefix with `tick <= now >> shift`.
//!
//! A second oracle, [`NaiveWheel`], pins the *order*: it is the wheel
//! without occupancy words, reading every bucket in an advance's range.
//! The owning table re-files and vacates in `due` order, so the
//! sequence — not just the set — is part of the contract.

use arppath_netsim::SimTime;
use arppath_switch::wheel::{TimerEntry, TimerWheel, DEFAULT_TICK_SHIFT, LEVELS, SLOTS, SLOT_BITS};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The wheel as it was before it had occupancy words: same filing
/// rule, and an advance that reads every bucket in range, level by
/// level from the cursor up.
struct NaiveWheel {
    shift: u32,
    now_tick: u64,
    buckets: Vec<Vec<TimerEntry>>,
}

impl NaiveWheel {
    fn new(shift: u32) -> Self {
        NaiveWheel { shift, now_tick: 0, buckets: vec![Vec::new(); LEVELS * SLOTS] }
    }

    fn file(&mut self, tick: u64, entry: TimerEntry) {
        let delta = tick - self.now_tick;
        let level = match delta {
            0 => 0,
            _ => (((63 - delta.leading_zeros()) / SLOT_BITS) as usize).min(LEVELS - 1),
        };
        let slot = ((tick >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.buckets[level * SLOTS + slot].push(entry);
    }

    fn insert(&mut self, fires: SimTime, slot: u32, gen: u32) {
        let tick = (fires.as_nanos() >> self.shift).max(self.now_tick);
        self.file(tick, TimerEntry { fires, slot, gen });
    }

    fn advance(&mut self, now: SimTime, due: &mut Vec<TimerEntry>) {
        let target = (now.as_nanos() >> self.shift).max(self.now_tick);
        let mut cascade = Vec::new();
        for level in 0..LEVELS {
            let lshift = SLOT_BITS * level as u32;
            let (old, new) = (self.now_tick >> lshift, target >> lshift);
            for i in 0..(new - old + 1).min(SLOTS as u64) {
                let slot = ((old + i) & (SLOTS as u64 - 1)) as usize;
                cascade.append(&mut self.buckets[level * SLOTS + slot]);
            }
        }
        self.now_tick = target;
        for entry in cascade {
            let tick = entry.fires.as_nanos() >> self.shift;
            if tick <= target {
                due.push(entry);
            } else {
                self.file(tick, entry);
            }
        }
    }

    fn clear(&mut self) {
        self.buckets.iter_mut().for_each(Vec::clear);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Arbitrary insert / advance / clear sequences: after every
    /// operation each occupancy bit equals "bucket non-empty", and
    /// every advance delivers the naive all-bucket scan's `due`
    /// *sequence*. Advance distances span one tick to past a full
    /// level-2 rotation (64³ ticks ≈ 268 ms), so ranges wrap the
    /// occupancy word, cap at 64 visits, and re-file cascaded entries
    /// into levels the same advance already walked.
    #[test]
    fn occupancy_words_match_the_naive_all_bucket_scan(
        raw_ops in proptest::collection::vec((0u8..10, 0u64..u64::MAX, 0u64..u64::MAX), 1..250),
    ) {
        let shift = DEFAULT_TICK_SHIFT;
        let mut wheel = TimerWheel::new(shift);
        let mut naive = NaiveWheel::new(shift);
        let mut now = 0u64;
        let (mut got, mut expect) = (Vec::new(), Vec::new());
        for (id, (sel, a, b)) in raw_ops.into_iter().enumerate() {
            match sel {
                // Insert at a distance drawn from one of four decades,
                // so every level up to 3 gets entries; sometimes in
                // the past.
                0..=5 => {
                    let reach = [2_000u64, 300_000, 40_000_000, 3_000_000_000][(a % 4) as usize];
                    let fires = if sel == 0 { now.saturating_sub(b % reach) } else { now + b % reach };
                    wheel.insert(SimTime(fires), id as u32, sel.into());
                    naive.insert(SimTime(fires), id as u32, sel.into());
                }
                6 => {
                    if a % 8 == 0 {
                        wheel.clear();
                        naive.clear();
                    }
                }
                // Advance: a tick or two, a partial rotation, or a
                // jump past whole rotations of the lower levels.
                _ => {
                    let reach = [3_000u64, 50_000, 5_000_000, 600_000_000][(a % 4) as usize];
                    now += b % reach;
                    got.clear();
                    expect.clear();
                    wheel.advance(SimTime(now), &mut got);
                    naive.advance(SimTime(now), &mut expect);
                    prop_assert_eq!(&got, &expect, "advance to {} reordered or lost entries", now);
                }
            }
            prop_assert!(wheel.occupancy_is_consistent(), "occupancy drifted after op {}", id);
        }
        now += 1 << 40;
        got.clear();
        expect.clear();
        wheel.advance(SimTime(now), &mut got);
        naive.advance(SimTime(now), &mut expect);
        prop_assert_eq!(&got, &expect);
        prop_assert!(wheel.is_empty() && wheel.occupancy_is_consistent());
    }

    /// Mass expiry: hundreds of deadlines spread over ~70 ms (crossing
    /// several wheel levels at the default 1.024 µs tick), drained
    /// through a random advance schedule. Multiset-exact agreement
    /// with the heap oracle at every step.
    #[test]
    fn mass_expiry_sweep_matches_heap_oracle(
        deadlines in proptest::collection::vec(0u64..70_000_000, 1..300),
        hops in proptest::collection::vec(1u64..10_000_000, 1..40),
    ) {
        let shift = DEFAULT_TICK_SHIFT;
        let mut wheel = TimerWheel::new(shift);
        let mut oracle: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
        for (id, &fires) in deadlines.iter().enumerate() {
            wheel.insert(SimTime(fires), id as u32, 0);
            oracle.push(Reverse((fires >> shift, id as u32)));
        }
        prop_assert_eq!(wheel.len(), deadlines.len());

        let mut now = 0u64;
        let mut due = Vec::new();
        for hop in hops {
            now += hop;
            due.clear();
            wheel.advance(SimTime(now), &mut due);
            // Nothing delivered after its deadline's tick has passed
            // unobserved, nothing before its tick is reached.
            let mut got: Vec<(u64, u32)> =
                due.iter().map(|e| (e.fires.as_nanos() >> shift, e.slot)).collect();
            got.sort_unstable();
            let mut expect = Vec::new();
            while oracle.peek().is_some_and(|Reverse((tick, _))| *tick <= now >> shift) {
                let Reverse(pair) = oracle.pop().unwrap();
                expect.push(pair);
            }
            expect.sort_unstable();
            prop_assert_eq!(&got, &expect, "advance to {} delivered the wrong set", now);
        }
        // Drain the stragglers: one final jump past everything.
        now += 80_000_000;
        due.clear();
        wheel.advance(SimTime(now), &mut due);
        prop_assert_eq!(due.len(), oracle.len(), "final drain left entries stranded");
        prop_assert!(wheel.is_empty(), "wheel must be empty after full drain");
    }

    /// Churn-shaped schedules (E11): interleaved bursts of same-tick
    /// deadlines (a Poisson departure burst files many expiries into
    /// one tick), cancellations (the d-left consumer strands entries
    /// by generation bump — the wheel still delivers them, exactly
    /// once), below-watermark inserts (a deadline already in the past
    /// must clamp to the current tick and come out on the next
    /// advance, not strand in a passed bucket), and mass-expiry
    /// drains. The heap oracle mirrors the clamp; delivered id sets
    /// must match it at every advance, and consumer-side gen filtering
    /// must agree on the surviving (live) subset.
    #[test]
    fn churn_schedule_matches_heap_oracle(
        raw_ops in proptest::collection::vec((0u8..8, 0u64..u64::MAX, 0u64..u64::MAX), 1..200),
    ) {
        let shift = DEFAULT_TICK_SHIFT;
        let mut wheel = TimerWheel::new(shift);
        let mut oracle: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
        let mut cancelled: Vec<bool> = Vec::new();
        let mut now = 0u64;
        let mut due = Vec::new();
        for (sel, a, b) in raw_ops {
            match sel {
                // Burst insert: 1–8 entries sharing one deadline,
                // sometimes below the watermark.
                0..=3 => {
                    let count = 1 + (a % 8) as usize;
                    let fires = if sel == 0 {
                        now.saturating_sub(b % 2_000_000) // below watermark
                    } else {
                        now + b % 20_000_000
                    };
                    let base = cancelled.len() as u32;
                    cancelled.resize(cancelled.len() + count, false);
                    for id in base..base + count as u32 {
                        wheel.insert(SimTime(fires), id, id);
                        oracle.push(Reverse(((fires >> shift).max(now >> shift), id)));
                    }
                }
                // Cancel: strand a previously filed entry (consumer
                // gen bump); the wheel is not told.
                4 | 5 => {
                    if !cancelled.is_empty() {
                        let pick = (a % cancelled.len() as u64) as usize;
                        cancelled[pick] = true;
                    }
                }
                // Advance: drain and compare.
                _ => {
                    now += 1 + b % 5_000_000;
                    due.clear();
                    wheel.advance(SimTime(now), &mut due);
                    let mut got: Vec<u32> = due.iter().map(|e| e.slot).collect();
                    got.sort_unstable();
                    let mut expect = Vec::new();
                    while oracle.peek().is_some_and(|Reverse((t, _))| *t <= now >> shift) {
                        let Reverse((_, id)) = oracle.pop().unwrap();
                        expect.push(id);
                    }
                    expect.sort_unstable();
                    prop_assert_eq!(&got, &expect, "advance to {} diverged", now);
                    // Every entry carries gen == id here, so the
                    // consumer-side filter the d-left table applies is
                    // exactly the cancelled mask.
                    let mut live: Vec<u32> = due
                        .iter()
                        .filter(|e| !cancelled[e.slot as usize] && e.gen == e.slot)
                        .map(|e| e.slot)
                        .collect();
                    live.sort_unstable();
                    let live_expect: Vec<u32> =
                        got.iter().copied().filter(|&id| !cancelled[id as usize]).collect();
                    prop_assert_eq!(live, live_expect);
                }
            }
        }
        // Final drain: everything filed — cancelled or not — comes out
        // exactly once; nothing is stranded.
        now += 80_000_000;
        due.clear();
        wheel.advance(SimTime(now), &mut due);
        prop_assert_eq!(due.len(), oracle.len(), "final drain left entries stranded");
        prop_assert!(wheel.is_empty(), "wheel must be empty after full drain");
    }

    /// Chop-invariance: the same deadline set drained by two different
    /// advance schedules (one jump vs many steps) delivers the same
    /// multiset of entries.
    #[test]
    fn delivery_is_invariant_to_the_advance_schedule(
        deadlines in proptest::collection::vec(0u64..20_000_000, 1..150),
        step in 1_024u64..2_000_000,
    ) {
        let horizon = 21_000_000u64;
        let mut big = TimerWheel::default();
        let mut small = TimerWheel::default();
        for (id, &fires) in deadlines.iter().enumerate() {
            big.insert(SimTime(fires), id as u32, 1);
            small.insert(SimTime(fires), id as u32, 1);
        }
        let mut one_jump = Vec::new();
        big.advance(SimTime(horizon), &mut one_jump);

        let mut stepped = Vec::new();
        let mut now = 0;
        while now < horizon {
            now = (now + step).min(horizon);
            small.advance(SimTime(now), &mut stepped);
        }
        let key = |e: &arppath_switch::wheel::TimerEntry| (e.fires.as_nanos(), e.slot, e.gen);
        one_jump.sort_unstable_by_key(key);
        stepped.sort_unstable_by_key(key);
        prop_assert_eq!(one_jump, stepped);
        prop_assert!(big.is_empty());
        prop_assert!(small.is_empty());
    }
}

#[test]
fn below_watermark_insert_comes_out_on_the_next_advance() {
    // The scrub path a churn re-arrival exercises: the watermark has
    // already passed the new entry's deadline (the owning table saw a
    // later instant before the insert), so the wheel must clamp the
    // entry to its current tick — an advance to the *same* instant
    // delivers it, rather than stranding it in a bucket the cursor
    // already passed.
    let mut wheel = TimerWheel::default();
    let mut due = Vec::new();
    wheel.advance(SimTime(5_000_000), &mut due);
    assert!(due.is_empty());
    wheel.insert(SimTime(1_000), 7, 3); // deadline 5 ms in the past
    assert_eq!(wheel.len(), 1);
    wheel.advance(SimTime(5_000_000), &mut due);
    assert_eq!(due.len(), 1, "clamped entry delivered at the unchanged watermark");
    assert_eq!((due[0].slot, due[0].gen), (7, 3));
    assert!(wheel.is_empty());
}
