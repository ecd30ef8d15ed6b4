//! The drop-tail port queue against a naive scalar oracle.
//!
//! [`PortQueue`] carries a running byte counter so the engine's hot
//! path admits or drops in O(1); the oracle below recomputes everything
//! from a plain `Vec` on every op. On every randomized schedule of
//! enqueues (varied frame sizes) and pops, the two must make identical
//! admission decisions, hold identical contents, and the capped queue
//! must never exceed its byte or frame caps — the invariants E9's
//! congested fabrics lean on.

use arppath_netsim::{Admission, PortQueue, QueuePolicy};
use arppath_wire::{EtherType, EthernetFrame, MacAddr, Payload};
use bytes::Bytes;
use proptest::prelude::*;

/// A data frame whose wire length is `60 + pad` bytes.
fn frame(pad: usize) -> EthernetFrame {
    EthernetFrame::new(
        MacAddr::from_index(1, 2),
        MacAddr::from_index(1, 1),
        Payload::Raw { ethertype: EtherType(0x88B5), data: Bytes::from(vec![0xA5; 46 + pad]) },
    )
}

/// The executable specification: a plain `Vec`, byte count recomputed
/// from scratch, the admission rule written out longhand.
struct VecOracle {
    max_bytes: usize,
    max_frames: usize,
    frames: Vec<EthernetFrame>,
}

impl VecOracle {
    fn bytes(&self) -> usize {
        self.frames.iter().map(|f| f.wire_len()).sum()
    }

    /// True iff the frame is admitted (drop-tail admits only when both
    /// caps still hold with the frame included).
    fn try_enqueue(&mut self, f: EthernetFrame) -> bool {
        if self.bytes() + f.wire_len() <= self.max_bytes && self.frames.len() < self.max_frames {
            self.frames.push(f);
            true
        } else {
            false
        }
    }

    fn pop(&mut self) -> Option<EthernetFrame> {
        if self.frames.is_empty() {
            None
        } else {
            Some(self.frames.remove(0))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Drop-tail admission agrees with the oracle op-for-op, and the
    /// caps are invariants of the real queue after every op.
    #[test]
    fn drop_tail_matches_vec_oracle(
        max_bytes in 60usize..2000,
        max_frames in 1usize..12,
        // (enqueue?, pad) — pad varies wire length 60..=1514.
        ops in proptest::collection::vec((any::<bool>(), 0usize..1455), 1..200),
    ) {
        let policy = QueuePolicy::DropTail { max_bytes, max_frames };
        let mut q = PortQueue::new(policy);
        let mut oracle = VecOracle { max_bytes, max_frames, frames: Vec::new() };
        for (enq, pad) in ops {
            if enq {
                let f = frame(pad);
                let admitted = matches!(q.try_enqueue(f.clone()), Admission::Queued);
                prop_assert_eq!(admitted, oracle.try_enqueue(f),
                    "admission decision diverged from the oracle");
            } else {
                prop_assert_eq!(q.pop(), oracle.pop());
            }
            // Caps are invariants, not just eventual properties.
            prop_assert!(q.bytes() <= max_bytes, "byte cap exceeded: {} > {}", q.bytes(), max_bytes);
            prop_assert!(q.len() <= max_frames, "frame cap exceeded: {} > {}", q.len(), max_frames);
            // The running byte counter never drifts from ground truth.
            prop_assert_eq!(q.bytes(), oracle.bytes());
            prop_assert_eq!(q.len(), oracle.frames.len());
            // Emptiness is read off the byte counter, not the deque.
            prop_assert_eq!(q.is_empty(), oracle.frames.is_empty());
        }
        // Drain: remaining contents identical, counters return to zero.
        while let Some(f) = q.pop() {
            prop_assert_eq!(Some(f), oracle.pop());
        }
        prop_assert_eq!(oracle.pop(), None);
        prop_assert_eq!(q.bytes(), 0);
        prop_assert!(q.is_empty());
    }

    /// The same equivalence under PFC, whose queue is never refused an
    /// enqueue and is emptied wholesale by `clear` (a link cut, a
    /// `DrainAndDrop` watchdog): `is_empty()` ⇔ `len() == 0` after
    /// every enqueue, pop and clear, and the pause/resume thresholds
    /// read the same byte count.
    #[test]
    fn pfc_emptiness_follows_the_byte_count(
        pause_frames in 1usize..8,
        // 0–5: enqueue (pad), 6–8: pop, 9: clear.
        ops in proptest::collection::vec((0u8..10, 0usize..1455), 1..200),
    ) {
        let pause_bytes = pause_frames * 600;
        let mut q = PortQueue::new(QueuePolicy::pfc(pause_bytes));
        let mut held: Vec<usize> = Vec::new();
        for (sel, pad) in ops {
            match sel {
                0..=5 => {
                    let f = frame(pad);
                    held.push(f.wire_len());
                    prop_assert!(matches!(q.try_enqueue(f), Admission::Queued));
                }
                6..=8 => {
                    let popped = q.pop().map(|f| f.wire_len());
                    prop_assert_eq!(popped, (!held.is_empty()).then(|| held.remove(0)));
                }
                _ => {
                    prop_assert_eq!(q.clear(), held.len());
                    held.clear();
                }
            }
            let bytes: usize = held.iter().sum();
            prop_assert_eq!(q.len(), held.len());
            prop_assert_eq!(q.bytes(), bytes);
            prop_assert_eq!(q.is_empty(), held.is_empty());
            prop_assert_eq!(q.above_pause(), bytes >= pause_bytes);
            prop_assert_eq!(q.below_resume(), bytes <= pause_bytes / 2);
        }
    }

    /// The infinite policy admits everything, byte-count drift-free.
    #[test]
    fn infinite_never_drops(
        pads in proptest::collection::vec(0usize..1455, 1..100),
    ) {
        let mut q = PortQueue::new(QueuePolicy::Infinite);
        let mut total = 0usize;
        for pad in pads {
            let f = frame(pad);
            total += f.wire_len();
            prop_assert!(matches!(q.try_enqueue(f), Admission::Queued));
        }
        prop_assert_eq!(q.bytes(), total);
        prop_assert_eq!(q.peak_bytes(), total);
    }
}

#[test]
fn boundary_fit_is_admitted_exactly() {
    // A frame that lands exactly on the byte cap is admitted (`<=`),
    // one byte past is not — pinned so the oracle comparison can't
    // mask an off-by-one agreement-in-error.
    let mut q = PortQueue::new(QueuePolicy::drop_tail(120));
    assert!(matches!(q.try_enqueue(frame(0)), Admission::Queued));
    assert!(matches!(q.try_enqueue(frame(0)), Admission::Queued), "exactly at cap fits");
    assert!(matches!(q.try_enqueue(frame(0)), Admission::Dropped(_)));

    let mut q = PortQueue::new(QueuePolicy::drop_tail(119));
    assert!(matches!(q.try_enqueue(frame(0)), Admission::Queued));
    assert!(matches!(q.try_enqueue(frame(0)), Admission::Dropped(_)), "one byte short drops");
}
