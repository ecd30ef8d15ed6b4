//! The frame pool: one home for every frame the fabric holds.
//!
//! A frame is held between two device callbacks: on a wire, as the
//! payload of a pending `Deliver`, `Fan` or `Inject` event, or in a
//! direction's transmit queue. Events and queues hold a 4-byte
//! [`FrameRef`] into the pool instead of the 56-byte frame, so a
//! pending event is a small self-contained value the scheduler sorts
//! and moves cheaply, and a frame popped from a queue goes on the wire
//! without moving.
//!
//! The pool is a `Vec` of slots, each a frame (or none) plus one `u32`
//! link. An empty slot's link threads the free list, which is LIFO, so
//! the slot a delivery just vacated — still in cache — is the next one
//! filled. A queued frame's link threads its direction's FIFO (the
//! head, tail and length live in the direction's `DirRecord`). A new
//! slot is pushed only when the free list is empty, so the pool holds
//! as many slots as the most frames ever held at once, and a run
//! allocates nothing per hop once it has reached that. [`FramePool::new`]
//! allocates nothing.

use arppath_wire::EthernetFrame;

/// Where a frame sits in the [`FramePool`]: what an event or a transmit
/// queue holds instead of the frame. (The default is slot 0, a
/// placeholder for an empty queue's ends.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct FrameRef(u32);

/// The end of the free list.
const NIL: u32 = u32::MAX;

/// One frame's place.
#[derive(Debug)]
struct Slot {
    frame: Option<EthernetFrame>,
    /// The next slot of the chain this one is on: the free list while
    /// empty, its direction's queue while queued (meaningless at the
    /// tail and on the wire).
    next: u32,
}

/// Every frame on a wire or in a transmit queue (see the module docs).
#[derive(Debug)]
pub(crate) struct FramePool {
    slots: Vec<Slot>,
    /// Head of the free list, or [`NIL`].
    free: u32,
}

impl FramePool {
    /// An empty pool; allocates nothing.
    pub(crate) const fn new() -> Self {
        FramePool { slots: Vec::new(), free: NIL }
    }

    /// Hold `frame`, in the most recently vacated slot if there is one.
    pub(crate) fn put(&mut self, frame: EthernetFrame) -> FrameRef {
        if self.free == NIL {
            assert!(self.slots.len() < NIL as usize, "fewer than 2^32 - 1 frames held");
            let at = self.slots.len() as u32;
            self.slots.push(Slot { frame: Some(frame), next: NIL });
            return FrameRef(at);
        }
        let at = self.free;
        let slot = &mut self.slots[at as usize];
        self.free = slot.next;
        debug_assert!(slot.frame.is_none(), "a free slot holds no frame");
        slot.frame = Some(frame);
        FrameRef(at)
    }

    /// Give up the frame at `r`; its slot goes to the head of the free
    /// list.
    pub(crate) fn take(&mut self, r: FrameRef) -> EthernetFrame {
        let slot = &mut self.slots[r.0 as usize];
        let frame = slot.frame.take().expect("a frame reference is taken once");
        slot.next = self.free;
        self.free = r.0;
        frame
    }

    /// The frame at `r`.
    pub(crate) fn get(&self, r: FrameRef) -> &EthernetFrame {
        self.slots[r.0 as usize].frame.as_ref().expect("a held frame")
    }

    /// The frame queued behind `r`, as [`FramePool::chain`] set it.
    pub(crate) fn next(&self, r: FrameRef) -> FrameRef {
        FrameRef(self.slots[r.0 as usize].next)
    }

    /// Queue `next` behind `r`.
    pub(crate) fn chain(&mut self, r: FrameRef, next: FrameRef) {
        self.slots[r.0 as usize].next = next.0;
    }

    /// Bytes of slot storage allocated: the most frames ever held at
    /// once, and the `Vec`'s growth slack.
    pub(crate) fn reserved_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
    }

    /// Frames held now.
    #[cfg(test)]
    pub(crate) fn held(&self) -> usize {
        self.slots.iter().filter(|s| s.frame.is_some()).count()
    }

    /// Slots the pool has: the most frames it ever held at once.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arppath_wire::{EtherType, MacAddr, Payload};

    fn frame(tag: u8) -> EthernetFrame {
        EthernetFrame::new(
            MacAddr::from_index(1, 2),
            MacAddr::from_index(1, 1),
            Payload::Raw { ethertype: EtherType(0x88B5), data: vec![tag; 46].into() },
        )
    }

    #[test]
    fn a_slot_is_a_frame_and_a_link() {
        // The frame's `Option` takes a niche; the link fills padding.
        let frame = std::mem::size_of::<EthernetFrame>();
        assert_eq!(std::mem::size_of::<Option<EthernetFrame>>(), frame);
        assert!(std::mem::size_of::<Slot>() <= frame + 8);
        assert_eq!(std::mem::size_of::<FrameRef>(), 4);
    }

    #[test]
    fn vacated_slots_are_refilled_last_in_first_out() {
        let mut pool = FramePool::new();
        assert_eq!(pool.reserved_bytes(), 0, "construction allocates nothing");
        let refs: Vec<FrameRef> = (0..3).map(|i| pool.put(frame(i))).collect();
        assert_eq!((pool.held(), pool.slots()), (3, 3));
        assert_eq!(pool.take(refs[0]), frame(0));
        assert_eq!(pool.take(refs[2]), frame(2));
        // The slot vacated last is filled first, then the one before.
        assert_eq!(pool.put(frame(7)), refs[2]);
        assert_eq!(pool.put(frame(8)), refs[0]);
        assert_eq!((pool.held(), pool.slots()), (3, 3), "no slot added while one was free");
        assert_eq!(pool.get(refs[1]), &frame(1));
        assert_eq!(pool.put(frame(9)), FrameRef(3), "a new slot only when none is free");
        for r in [refs[0], refs[1], refs[2], FrameRef(3)] {
            pool.take(r);
        }
        assert_eq!((pool.held(), pool.slots()), (0, 4));
    }

    #[test]
    fn a_chain_survives_other_slots_coming_and_going() {
        let mut pool = FramePool::new();
        let (a, b) = (pool.put(frame(1)), pool.put(frame(2)));
        pool.chain(a, b);
        let loose = pool.put(frame(3));
        pool.take(loose);
        let c = pool.put(frame(4));
        pool.chain(b, c);
        assert_eq!((pool.next(a), pool.next(b)), (b, c));
        assert_eq!(pool.take(a), frame(1));
        assert_eq!(pool.next(b), c, "taking the head leaves the rest linked");
    }
}
