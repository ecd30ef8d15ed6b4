//! Heap-allocation accounting for the per-hop path: a frame crossing an
//! [`IdealSwitch`] and the engine around it.
//!
//! The paper's bridges forward out of fixed memories; the software
//! analogue is that a warm bridge decides a frame — drop, forward or
//! flood — without touching the allocator. The logic writes its
//! commands straight into the buffer the engine lends and reuses, so
//! there is nothing per callback to allocate: no snapshot of the port
//! states, no output list to grow and copy. A counting global allocator
//! (per thread, as in `dleft_alloc.rs`) pins it at the device and at
//! the fabric level.

use arppath::{ArpPathBridge, ArpPathConfig};
use arppath_host::{pairings, TrafficConfig, TrafficHost, TrafficPattern};
use arppath_netsim::{Command, Ctx, Device, NodeId, PortNo, SimDuration, SimTime};
use arppath_switch::IdealSwitch;
use arppath_topo::{generic, BridgeKind, TopoBuilder};
use arppath_wire::{ArpPacket, EtherType, EthernetFrame, MacAddr, Payload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

/// Passes everything through to the system allocator, counting calls.
struct CountingAlloc;

thread_local! {
    /// Per thread, so tests running in parallel do not count each
    /// other's allocations.
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

const PORTS: usize = 16;

fn ip(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, (i >> 8) as u8, i as u8)
}

#[test]
fn warm_bridge_decides_frames_without_allocating() {
    let (s, d) = (MacAddr::from_index(1, 1), MacAddr::from_index(1, 2));
    let request = ArpPacket::request(s, ip(1), ip(2));
    let arp_request = EthernetFrame::arp_request(s, request);
    let arp_reply = EthernetFrame::arp_reply(ArpPacket::reply_to(&request, d, ip(2)));
    let data = EthernetFrame::new(
        d,
        s,
        Payload::Raw { ethertype: EtherType(0x88B6), data: vec![0u8; 46].into() },
    );

    let bridge =
        ArpPathBridge::new("b", MacAddr::from_index(2, 1), PORTS, ArpPathConfig::default());
    let mut sw = IdealSwitch::new(bridge);
    let ports_up = [true; PORTS];
    let mut commands: Vec<Command> = Vec::new();
    // One hop, the way the engine makes it: a fresh `Ctx` over its
    // reused buffer. Returns (allocations, commands issued).
    let mut hop = |port: usize, frame: &EthernetFrame, now: SimTime| {
        let frame = frame.clone();
        let before = alloc_count();
        sw.on_frame(PortNo(port), frame, &mut Ctx::new(now, NodeId(0), &ports_up, &mut commands));
        let counts = (alloc_count() - before, commands.len());
        commands.clear();
        counts
    };

    // S asks from port 1 (a copy of the flood comes round to port 3 and
    // loses the race), D answers from port 2, S sends data. Two rounds
    // warm the command buffer, the drop-reason counters and the table;
    // the third is measured. (The table's own amortized storage is
    // `dleft_alloc.rs`'s subject: every reply re-files its sender's
    // deadline, and the timer-wheel bucket holding them doubles at the
    // 5th, 9th, 17th... filing — rounds 3, 7, 15 here.)
    let mut measured = Vec::new();
    for round in 0..3 {
        let now = SimTime::ZERO + SimDuration::millis(round);
        measured = vec![
            ("winning flood", hop(1, &arp_request, now)),
            ("race-loser copy", hop(3, &arp_request, now + SimDuration::micros(1))),
            ("ARP reply", hop(2, &arp_reply, now + SimDuration::micros(2))),
            ("unicast data hit", hop(1, &data, now + SimDuration::micros(3))),
        ];
    }
    let commands_issued: Vec<usize> = measured.iter().map(|&(_, (_, sent))| sent).collect();
    assert_eq!(commands_issued, [PORTS - 1, 0, 1, 1]);
    for (what, (allocs, _)) in measured {
        assert_eq!(allocs, 0, "a warm bridge allocated deciding a {what}");
    }
}

#[test]
fn flooding_fabric_allocates_next_to_nothing_per_frame() {
    // k=4 jittered fat-tree with full racks (256 hosts), every host
    // resolving its permutation peer and sending it one datagram: ARP
    // floods over the whole fabric, 200 µs apart, ~330 hops each.
    const HOSTS_PER_EDGE: usize = 32;
    let mut t = TopoBuilder::new(BridgeKind::ArpPath(ArpPathConfig::default()));
    let ft = generic::fat_tree_jittered(&mut t, 4, 0xA110C);
    let hosts = ft.host_capacity(HOSTS_PER_EDGE);
    let first_flood = SimDuration::millis(10);
    for (i, &peer) in pairings(hosts, TrafficPattern::Permutation, 15).iter().enumerate() {
        let cfg = TrafficConfig {
            target: ip(peer + 1),
            start_at: first_flood + SimDuration::micros(200).times(i as u64),
            count: 1,
            ..Default::default()
        };
        let host =
            TrafficHost::new(format!("h{i}"), MacAddr::from_index(1, i as u32 + 1), ip(i + 1), cfg);
        t.host(ft.edge_of_host(i, HOSTS_PER_EDGE), Box::new(host));
    }
    let mut net = t.build().net;
    // The first flood grows every reused buffer to its working size:
    // the engine's command and batch buffers, the calendar's buckets.
    net.run_until(SimTime::ZERO + first_flood + SimDuration::micros(100));
    let (frames, allocs) = (net.stats().frames_delivered, alloc_count());
    net.run_until(SimTime::ZERO + SimDuration::millis(50));
    let frames = net.stats().frames_delivered - frames;
    let allocs = alloc_count() - allocs;
    assert!(frames > 50_000, "the floods ran: {frames} frames");
    let per_frame = allocs as f64 / frames as f64;
    // What is left (0.033 when written) is per host, not per hop: its
    // ARP and datagram building, and first inserts growing the bridges'
    // table storage. One allocation per bridge callback reads 0.44.
    assert!(
        per_frame < 0.05,
        "{allocs} allocations for {frames} frames = {per_frame:.3} per frame"
    );
}
