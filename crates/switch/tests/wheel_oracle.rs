//! The aging scrubber's deadline heap against a list-scan oracle.
//!
//! `dleft_oracle.rs` exercises the heap indirectly through
//! [`DLeftTable`](arppath_switch::DLeftTable)'s aging; this suite pins
//! the heap's own delivery contract directly:
//!
//! * every filed entry is delivered **exactly once** — on the first
//!   [`DeadlineHeap::advance`] at or past its instant, never before;
//! * each advance hands its entries back in `(fires, slot, gen)` order,
//!   the order the owning table re-files and vacates in;
//! * regardless of how the advance instants chop the timeline — one
//!   giant jump, thousands of tiny steps, or anything between.
//!
//! The oracle is the plainest possible queue: a list of everything
//! filed, scanned and sorted on every advance.

use arppath_netsim::SimTime;
use arppath_switch::wheel::{DeadlineHeap, TimerEntry};
use proptest::prelude::*;

/// Every entry filed and not yet delivered, in filing order.
#[derive(Default)]
struct ListScan {
    filed: Vec<TimerEntry>,
}

impl ListScan {
    fn insert(&mut self, fires: SimTime, slot: u32, gen: u32) {
        self.filed.push(TimerEntry { fires, slot, gen });
    }

    fn advance(&mut self, now: SimTime, due: &mut Vec<TimerEntry>) {
        let (mut ready, pending): (Vec<_>, Vec<_>) =
            self.filed.iter().partition(|entry| entry.fires <= now);
        ready.sort_unstable();
        due.extend(ready);
        self.filed = pending;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Churn-shaped schedules (E11): bursts of 1–8 entries sharing one
    /// deadline (a Poisson departure burst), deadlines already in the
    /// past (the owning table saw a later instant before the insert),
    /// near and far deadlines, clears, and advances from a nanosecond
    /// to past every deadline. After every operation the heap holds
    /// what the oracle holds, and every advance delivers the oracle's
    /// sequence exactly.
    #[test]
    fn advance_matches_a_scan_of_every_filed_entry(
        raw_ops in proptest::collection::vec((0u8..10, 0u64..u64::MAX, 0u64..u64::MAX), 1..250),
    ) {
        let mut heap = DeadlineHeap::default();
        let mut oracle = ListScan::default();
        let mut now = 0u64;
        let (mut got, mut expect) = (Vec::new(), Vec::new());
        for (id, (sel, a, b)) in raw_ops.into_iter().enumerate() {
            match sel {
                0..=5 => {
                    let reach = [2_000u64, 300_000, 40_000_000, 3_000_000_000][(a % 4) as usize];
                    let fires = if sel == 0 { now.saturating_sub(b % reach) } else { now + b % reach };
                    for burst in 0..1 + (a >> 8) % 8 {
                        let slot = (id as u32) << 3 | burst as u32;
                        heap.insert(SimTime(fires), slot, sel.into());
                        oracle.insert(SimTime(fires), slot, sel.into());
                    }
                }
                6 => {
                    if a % 8 == 0 {
                        heap.clear();
                        oracle.filed.clear();
                    }
                }
                _ => {
                    let reach = [3_000u64, 50_000, 5_000_000, 600_000_000][(a % 4) as usize];
                    now += b % reach;
                    got.clear();
                    expect.clear();
                    heap.advance(SimTime(now), &mut got);
                    oracle.advance(SimTime(now), &mut expect);
                    prop_assert_eq!(&got, &expect, "advance to {} reordered or lost entries", now);
                }
            }
            prop_assert_eq!(heap.len(), oracle.filed.len(), "after op {}", id);
        }
        now += 1 << 40;
        got.clear();
        expect.clear();
        heap.advance(SimTime(now), &mut got);
        oracle.advance(SimTime(now), &mut expect);
        prop_assert_eq!(&got, &expect, "the final drain left entries stranded");
        prop_assert!(heap.is_empty());
    }

    /// Chop-invariance: the same deadline set drained by two different
    /// advance schedules (one jump vs many steps) delivers the same
    /// multiset of entries, each exactly once.
    #[test]
    fn delivery_is_invariant_to_the_advance_schedule(
        deadlines in proptest::collection::vec(0u64..20_000_000, 1..150),
        step in 1u64..2_000_000,
    ) {
        let horizon = 21_000_000u64;
        let mut big = DeadlineHeap::default();
        let mut small = DeadlineHeap::default();
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
        prop_assert_eq!(one_jump.len(), deadlines.len());
        stepped.sort_unstable();
        prop_assert_eq!(one_jump, stepped);
        prop_assert!(big.is_empty());
        prop_assert!(small.is_empty());
    }
}

#[test]
fn below_watermark_insert_comes_out_on_the_next_advance() {
    // The scrub path a churn re-arrival exercises: the watermark has
    // already passed the new entry's deadline (the owning table saw a
    // later instant before the insert), so an advance to the *same*
    // instant must deliver it.
    let mut heap = DeadlineHeap::default();
    let mut due = Vec::new();
    heap.advance(SimTime(5_000_000), &mut due);
    assert!(due.is_empty());
    heap.insert(SimTime(1_000), 7, 3); // deadline 5 ms in the past
    assert_eq!(heap.len(), 1);
    heap.advance(SimTime(5_000_000), &mut due);
    assert_eq!(due, [TimerEntry { fires: SimTime(1_000), slot: 7, gen: 3 }]);
    assert!(heap.is_empty());
}
