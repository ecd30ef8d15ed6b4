//! Heap-allocation accounting for the host datagram path.
//!
//! A datagram is built once: the stack encodes header and payload into
//! one buffer, and the receiver's upcall is a view into that buffer, not
//! a copy. So a warm sender and receiver spend exactly one allocation
//! per datagram, and a go-back-N segment plus its ack spend two. Two
//! hosts are wired back to back by hand, with no engine between them,
//! so a counting global allocator (per thread, as in the switch crate's
//! `ideal_alloc.rs`) sees only the hosts' own work. The same allocator
//! also tracks live bytes, which pins what a host keeps between
//! frames: nothing once ARP has resolved, and nothing per echo reply.

use arppath_host::{
    ChurnConfig, ChurnHost, FlowConfig, FlowHost, HostStack, TrafficConfig, TrafficHost,
};
use arppath_netsim::{Command, Ctx, Device, EthernetFrame, NodeId, PortNo, SimTime, TimerToken};
use arppath_wire::{ArpPacket, IcmpEcho, IpProto, Ipv4Packet, MacAddr, Payload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// Passes everything through to the system allocator, counting calls
/// and live bytes.
struct CountingAlloc;

thread_local! {
    /// Per thread, so tests running in parallel do not count each
    /// other's allocations.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated and not yet freed on this thread (memory freed
    /// here that another thread allocated can drive it below zero).
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn add_live(bytes: usize, sign: i64) {
    LIVE.with(|n| n.set(n.get() + sign * bytes as i64));
}

// SAFETY: delegates directly to `System`, which upholds the
// `GlobalAlloc` contract; the counters are thread-local side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        add_live(layout.size(), 1);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(layout.size(), -1);
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        add_live(new_size, 1);
        add_live(layout.size(), -1);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

/// A back-to-back cable between host `a` and host `b`: every frame one
/// side sends is delivered to the other, in order. Buffers are reserved
/// up front so the cable itself never allocates while counting.
struct Cable {
    now: u64,
    cmds: Vec<Command>,
    to_a: VecDeque<EthernetFrame>,
    to_b: VecDeque<EthernetFrame>,
    /// The last timer either side scheduled.
    last_timer: Option<TimerToken>,
}

impl Cable {
    fn new() -> Self {
        Cable {
            now: 0,
            cmds: Vec::with_capacity(64),
            to_a: VecDeque::with_capacity(64),
            to_b: VecDeque::with_capacity(64),
            last_timer: None,
        }
    }

    /// Run one callback of side `a` (or `b`) one microsecond after the
    /// last, and put what it sent on the cable.
    fn call(&mut self, on_a: bool, callback: impl FnOnce(&mut Ctx)) {
        let ports = [true];
        self.now += 1_000;
        callback(&mut Ctx::new(SimTime(self.now), NodeId(0), &ports, &mut self.cmds));
        for cmd in self.cmds.drain(..) {
            match cmd {
                Command::Send { frame, .. } if on_a => self.to_b.push_back(frame),
                Command::Send { frame, .. } => self.to_a.push_back(frame),
                Command::Schedule { token, .. } => self.last_timer = Some(token),
            }
        }
    }

    /// Deliver frames both ways until the cable is quiet, calling
    /// `after` once per delivery.
    fn settle<X: Device, Y: Device>(&mut self, a: &mut X, b: &mut Y, mut after: impl FnMut(&Y)) {
        loop {
            if let Some(frame) = self.to_b.pop_front() {
                self.call(false, |ctx| b.on_frame(PortNo(0), frame, ctx));
            } else if let Some(frame) = self.to_a.pop_front() {
                self.call(true, |ctx| a.on_frame(PortNo(0), frame, ctx));
            } else {
                return;
            }
            after(b);
        }
    }
}

/// Host `i`'s MAC and IP addresses.
fn host(i: u8) -> (MacAddr, Ipv4Addr) {
    (MacAddr::from_index(1, i.into()), Ipv4Addr::new(10, 0, 0, i))
}

#[test]
fn an_acknowledged_flow_segment_costs_at_most_two_allocations() {
    const WARM: u64 = 64;
    const MEASURED: u64 = 1_000;
    let (mac_a, ip_a) = host(1);
    let (mac_b, ip_b) = host(2);
    let config = FlowConfig { target: Some(ip_b), segments: WARM + MEASURED, ..Default::default() };
    let mut sender = FlowHost::new("a", mac_a, ip_a, config);
    let mut receiver = FlowHost::new("b", mac_b, ip_b, FlowConfig::default());
    let mut cable = Cable::new();

    cable.call(true, |ctx| sender.on_start(ctx));
    let start = cable.last_timer.expect("a sender schedules its start");
    cable.call(true, |ctx| sender.on_timer(start, ctx));
    // Count from the moment the receiver has accepted `WARM` segments:
    // ARP is resolved and every table and buffer is warm by then.
    let mut warm_at = None;
    cable.settle(&mut sender, &mut receiver, |r| {
        if r.rx_segments == WARM && warm_at.is_none() {
            warm_at = Some(alloc_count());
        }
    });
    let allocs = alloc_count() - warm_at.expect("the flow warmed up");

    assert!(sender.completed(), "every segment acknowledged");
    assert_eq!(receiver.rx_segments, WARM + MEASURED);
    assert_eq!(receiver.corrupt, 0);
    assert_eq!(
        receiver.inbound(ip_a, config.port).map(|(_, digest)| digest),
        Some(FlowHost::expected_digest(WARM + MEASURED, config.segment_len))
    );
    let per_segment = allocs as f64 / MEASURED as f64;
    assert!(
        per_segment <= 2.0,
        "{allocs} allocations over {MEASURED} segments ({per_segment:.2} per segment); \
         a segment and its ack should cost one datagram allocation each"
    );
}

#[test]
fn a_traffic_datagram_costs_at_most_one_allocation_sent_and_received() {
    const WARM: u64 = 16;
    const MEASURED: u64 = 1_000;
    let (mac_a, ip_a) = host(1);
    let (mac_b, ip_b) = host(2);
    let config = TrafficConfig { target: ip_b, count: WARM + MEASURED, ..Default::default() };
    let mut sender = TrafficHost::new("a", mac_a, ip_a, config);
    let mut receiver = TrafficHost::new("b", mac_b, ip_b, TrafficConfig::default());
    let mut cable = Cable::new();

    cable.call(true, |ctx| sender.on_start(ctx));
    let send = |cable: &mut Cable, sender: &mut TrafficHost, receiver: &mut TrafficHost| {
        let tick = cable.last_timer.take().expect("the sender schedules its next tick");
        cable.call(true, |ctx| sender.on_timer(tick, ctx));
        cable.settle(sender, receiver, |_| {});
    };
    for _ in 0..WARM {
        send(&mut cable, &mut sender, &mut receiver);
    }
    let before = alloc_count();
    for _ in 0..MEASURED {
        send(&mut cable, &mut sender, &mut receiver);
    }
    let allocs = alloc_count() - before;

    assert_eq!(receiver.rx_datagrams, WARM + MEASURED);
    assert_eq!(receiver.rx_bytes, (WARM + MEASURED) * config.payload_len as u64);
    let per_datagram = allocs as f64 / MEASURED as f64;
    assert!(
        per_datagram <= 1.0,
        "{allocs} allocations over {MEASURED} datagrams ({per_datagram:.2} per datagram)"
    );
}

/// Heap bytes a fresh stack for host 1 holds once host 2's ARP reply
/// has reached it, having first parked a datagram for host 2
/// (`waits`) or not.
fn held_after_resolution(waits: bool, cmds: &mut Vec<Command>) -> i64 {
    let (mac_a, ip_a) = host(1);
    let (mac_b, ip_b) = host(2);
    let reply = ArpPacket::reply_to(&ArpPacket::request(mac_a, ip_a, ip_b), mac_b, ip_b);
    let ports = [true];
    let before = live_bytes();
    let mut stack = HostStack::new(mac_a, ip_a);
    if waits {
        stack.send_udp(
            ip_b,
            1,
            2,
            b"parked",
            &mut Ctx::new(SimTime(1_000), NodeId(0), &ports, cmds),
        );
        assert_eq!(stack.pending_destinations(), 1);
    }
    let frame = EthernetFrame::arp_reply(reply);
    stack.handle_frame(frame, &mut Ctx::new(SimTime(2_000), NodeId(0), &ports, cmds));
    assert_eq!(stack.pending_destinations(), 0);
    assert_eq!(stack.counters().ipv4_tx, u64::from(waits), "the parked datagram went out");
    cmds.clear();
    let held = live_bytes() - before;
    drop(stack);
    held
}

#[test]
fn a_resolved_destination_leaves_no_pending_storage() {
    // Both stacks end with one ARP cache entry and nothing parked; the
    // one that waited on ARP must not hold the pending map's storage
    // on top.
    let mut cmds = Vec::with_capacity(8);
    let learned_unasked = held_after_resolution(false, &mut cmds);
    let waited = held_after_resolution(true, &mut cmds);
    assert!(learned_unasked > 0, "the ARP cache entry is on the heap");
    assert_eq!(
        waited,
        learned_unasked,
        "{} B of pending storage outlived ARP",
        waited - learned_unasked
    );
}

#[test]
fn a_churn_host_keeps_nothing_per_echo_reply() {
    const WARM: u16 = 16;
    const MEASURED: u16 = 1_000;
    let (mac_a, ip_a) = host(1);
    let (mac_b, ip_b) = host(2);
    let config =
        ChurnConfig { target: ip_b, ident: 7, active_at_start: true, ..Default::default() };
    let mut station = ChurnHost::new("c", mac_a, ip_a, config);
    let replies: Vec<EthernetFrame> = (0..WARM + MEASURED)
        .map(|seq| {
            let echo = IcmpEcho::encode(false, 7, seq, &[0x11; 32]);
            let pkt = Ipv4Packet::new(ip_b, ip_a, IpProto::Icmp, echo);
            EthernetFrame::new(mac_a, mac_b, Payload::Ipv4(pkt))
        })
        .collect();
    let ports = [true];
    let mut cmds = Vec::with_capacity(8);
    station.on_start(&mut Ctx::new(SimTime(0), NodeId(0), &ports, &mut cmds));
    let (mut allocs, mut live) = (0, 0);
    for (i, frame) in replies.into_iter().enumerate() {
        if i == usize::from(WARM) {
            (allocs, live) = (alloc_count(), live_bytes());
        }
        let at = SimTime(1_000 * (i as u64 + 1));
        station.on_frame(PortNo(0), frame, &mut Ctx::new(at, NodeId(0), &ports, &mut cmds));
    }
    assert_eq!(station.replies_rx, u64::from(WARM + MEASURED));
    assert_eq!(station.correction_ns.len(), 1, "one activation, one correction sample");
    assert_eq!(alloc_count() - allocs, 0, "{MEASURED} replies allocated");
    assert!(live_bytes() <= live, "{MEASURED} replies left heap behind");
}
