//! Heap-allocation accounting for the d-left steady-state paths.
//!
//! The whole point of the fixed-geometry table is that the hot path is
//! flat-array probing — the hardware has no allocator, so the software
//! model's lookup path must not have one either. A counting global
//! allocator asserts it: a table allocates every plane and its aging
//! bounds at construction — the analogue of device configuration —
//! and nothing after, so `get`/`peek`/`touch`, replacement and fresh
//! inserts alike perform **zero** heap allocations.

use arppath_netsim::{SimDuration, SimTime};
use arppath_switch::{bucket_bits_for, DLeftTable};
use arppath_wire::MacAddr;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Passes everything through to the system allocator, counting calls.
struct CountingAlloc;

thread_local! {
    /// Per thread, so tests running in parallel do not count each
    /// other's allocations (a `const`-initialized `Cell` needs no lazy
    /// initialization and no destructor, so touching it never
    /// allocates).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates directly to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a thread-local side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn steady_state_lookup_path_is_allocation_free() {
    const N: u32 = 4_000;
    // Geometry holding N entries at ~50 % load, same margin as prod.
    let mut table: DLeftTable<MacAddr, u32> =
        DLeftTable::with_bucket_bits(bucket_bits_for(N as usize));
    let mut now = SimTime::ZERO;
    let ttl = SimDuration::millis(100);
    for i in 0..N {
        table.insert(MacAddr::from_index(1, i), i, now + ttl);
    }
    assert_eq!(table.evictions(), 0, "warm-up must not evict");

    // Warm pass: lets any lazily grown buffer reach its steady size.
    now += SimDuration::micros(10);
    for i in 0..N {
        let mac = MacAddr::from_index(1, i);
        assert_eq!(table.get(&mac, now), Some(&i));
        table.touch(&mac, now + ttl, now);
        table.insert(mac, i, now + ttl);
    }

    // Measured pass: hits, misses, peeks, touches, replacements.
    now += SimDuration::micros(10);
    let before = alloc_count();
    for i in 0..N {
        let mac = MacAddr::from_index(1, i);
        assert_eq!(table.get(&mac, now), Some(&i));
        assert_eq!(table.peek(&mac, now), Some(&i));
        assert!(table.touch(&mac, now + ttl, now));
        let miss = MacAddr::from_index(9, i);
        assert_eq!(table.get(&miss, now), None);
        // The probe-once path a bridge takes per frame.
        let slot = table.probe(&mac, now).expect("live entry");
        assert_eq!(*table.value_at(slot), i);
        table.touch_at(slot, now + ttl);
        assert_eq!(table.probe(&miss, now), None);
    }
    let after = alloc_count();
    assert_eq!(
        after - before,
        0,
        "steady-state get/peek/touch/probe/miss made {} heap allocations over {} ops",
        after - before,
        6 * N
    );
}

#[test]
fn soa_vacate_and_accounting_paths_are_allocation_free() {
    // PR 10's SoA repack must not sneak allocations into paths the AoS
    // layout ran flat: `peek_aged` now builds its `Aged<&V>` on the
    // stack (there is no contiguous Aged to borrow), lazy-expiry
    // vacates on `get` clear one cell, `remove` takes the pair out
    // of it, and the `heap_bytes()` accounting walk only reads
    // capacities.
    const N: u32 = 2_000;
    let mut table: DLeftTable<MacAddr, u32> = DLeftTable::with_bucket_bits(10);
    let mut now = SimTime::ZERO;
    let ttl = SimDuration::millis(1);
    for i in 0..N {
        table.insert(MacAddr::from_index(1, i), i, now + ttl);
    }
    assert_eq!(table.evictions(), 0);
    now += SimDuration::micros(10);
    let before = alloc_count();
    for i in 0..N / 2 {
        let mac = MacAddr::from_index(1, i);
        assert_eq!(table.peek_aged(&mac, now).map(|a| a.expires), Some(SimTime::ZERO + ttl));
        assert_eq!(table.remove(&mac), Some(i));
        assert_eq!(table.peek_aged(&mac, now), None);
    }
    let baseline = table.heap_bytes();
    assert!(baseline > 0);
    // Every remaining entry expires; the lazy vacate on `get` must
    // stay flat too.
    now += SimDuration::millis(2);
    for i in N / 2..N {
        let mac = MacAddr::from_index(1, i);
        assert_eq!(table.get(&mac, now), None, "expired entry vacated on access");
    }
    assert_eq!(table.heap_bytes(), baseline, "vacates release no heap — geometry is fixed");
    let after = alloc_count();
    assert_eq!(
        after - before,
        0,
        "SoA peek_aged/remove/vacate/heap_bytes made {} heap allocations",
        after - before
    );
}

#[test]
fn fresh_inserts_allocate_nothing() {
    // Keying a slot writes the flat planes and lowers one aging bound:
    // filling a table from empty never reaches the allocator.
    const N: u32 = 1_024;
    let mut table: DLeftTable<MacAddr, u32> =
        DLeftTable::with_bucket_bits(bucket_bits_for(N as usize));
    let ttl = SimDuration::millis(100);
    let before = alloc_count();
    for i in 0..N {
        let now = SimTime::ZERO + SimDuration::nanos(u64::from(i));
        assert_eq!(table.insert(MacAddr::from_index(1, i), i, now + ttl), None);
    }
    let after = alloc_count();
    assert_eq!(table.len(), N as usize);
    assert_eq!(after - before, 0, "fresh inserts made {} heap allocations", after - before);
}

#[test]
fn replacement_inserts_allocate_nothing() {
    // Slot placement never allocates (flat arrays), and a replacement
    // that extends an entry's expiry writes no aging state at all. So
    // rewriting every live entry, by key or through a probed slot,
    // touches no allocator.
    const N: u32 = 1_000;
    let mut table: DLeftTable<MacAddr, u32> = DLeftTable::with_bucket_bits(9);
    let mut now = SimTime::ZERO;
    let ttl = SimDuration::millis(100);
    for i in 0..N {
        table.insert(MacAddr::from_index(1, i), i, now + ttl);
    }
    now += SimDuration::micros(5);
    let before = alloc_count();
    for i in 0..N {
        let mac = MacAddr::from_index(1, i);
        if i % 2 == 0 {
            table.insert(mac, i + 7, now + ttl);
        } else {
            let slot = table.probe(&mac, now).expect("live entry");
            table.replace_at(slot, i + 7, now + ttl);
        }
    }
    let after = alloc_count();
    assert_eq!(after - before, 0, "replacement inserts allocated");
}
