//! Standalone replays of one captured run through the data structures
//! under the engine and the bridges: the scheduler (calendar queue
//! against a binary heap), the d-left table and its timer wheel, and the
//! wire codec. Each is fed the workload's own stream — its event times,
//! its MAC keys at its table geometry, its frames — not a synthetic one.

use crate::trace::Rec;
use arppath_netsim::{CalendarQueue, Network, SimDuration, SimTime};
use arppath_switch::wheel::{TimerEntry, TimerWheel};
use arppath_switch::DLeftTable;
use arppath_wire::{EthernetFrame, MacAddr};
use bytes::Bytes;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// One scheduler operation of the run: an event pushed at `push` that
/// fired at `fire`, with its same-instant ordering key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub push: u64,
    pub fire: u64,
    pub key: u64,
}

/// Same-instant tiers, as the engine orders them.
const TIER_TX_DONE: u64 = 1 << 60;
const TIER_TIMER: u64 = 2 << 60;
const TIER_ADMIN: u64 = 3 << 60;

/// The run's scheduler traffic, rebuilt from its capture in two steps:
/// [`ScheduleTrace::of`] reads the capture before the replays consume
/// it, [`ScheduleTrace::finish`] adds the timers the replays saw armed.
#[derive(Debug, Default)]
pub struct ScheduleTrace {
    ops: Vec<Op>,
    /// `(node, instant)` of every timer fire, in capture order.
    timer_fires: Vec<(usize, u64)>,
}

impl ScheduleTrace {
    /// Every delivered frame was two events — a `TxDone` pushed one
    /// serialization before it fired, then a `Deliver` pushed one
    /// propagation before the delivery — and the link parameters that
    /// give both are public. Carrier changes are scheduled up front.
    pub fn of(net: &Network, recs: &[Rec]) -> ScheduleTrace {
        let mut ingress = BTreeMap::new();
        for (id, link) in net.links() {
            for ep in [link.a, link.b] {
                ingress.insert((ep.node, ep.port), id);
            }
        }
        let mut trace = ScheduleTrace::default();
        for rec in recs {
            match rec {
                Rec::Frame { at, node, port, frame } => {
                    let id = ingress[&(*node, *port)];
                    let link = net.link(id);
                    let wire = id.0 as u64 * 2 + u64::from(link.b.node == *node);
                    let delivered = at.as_nanos();
                    let tx_done = delivered - link.params.propagation.as_nanos();
                    let tx_start =
                        tx_done.saturating_sub(link.params.serialization(frame).as_nanos());
                    trace.ops.push(Op { push: tx_start, fire: tx_done, key: TIER_TX_DONE | wire });
                    trace.ops.push(Op { push: tx_done, fire: delivered, key: wire });
                }
                Rec::Timer { at, node, .. } => trace.timer_fires.push((node.0, at.as_nanos())),
                Rec::Link { at, link, .. } => trace.ops.push(Op {
                    push: 0,
                    fire: at.as_nanos(),
                    key: TIER_ADMIN | link.0 as u64,
                }),
            }
        }
        trace
    }

    /// Add the timers. Those armed during the run are known exactly
    /// from the replays (`armed`, as `(node, armed at, fires at)`); a
    /// fire that nothing armed was armed by `on_start`, at t = 0.
    /// Returns every operation, sorted by push time.
    pub fn finish(mut self, armed: &[(usize, u64, u64)]) -> Vec<Op> {
        let mut unexplained: BTreeMap<(usize, u64), u64> = BTreeMap::new();
        for &(node, push, fire) in armed {
            self.ops.push(Op { push, fire, key: TIER_TIMER | node as u64 });
            *unexplained.entry((node, fire)).or_default() += 1;
        }
        for (node, fire) in self.timer_fires {
            match unexplained.get_mut(&(node, fire)) {
                Some(n) if *n > 0 => *n -= 1,
                _ => self.ops.push(Op { push: 0, fire, key: TIER_TIMER | node as u64 }),
            }
        }
        self.ops.sort_by_key(|op| op.push);
        self.ops
    }
}

/// What the engine's queue carries per event, sized like its
/// `EventKind` (a frame plus link, direction and epoch).
const PAYLOAD_WORDS: usize = (std::mem::size_of::<EthernetFrame>() + 24) / 8;
type Payload = [u64; PAYLOAD_WORDS];

/// The two schedulers under comparison, behind the two calls the
/// engine's run loop makes.
trait Scheduler {
    fn push(&mut self, time: u64, key: u64, seq: u64);
    /// The earliest pending instant.
    fn head(&self) -> Option<u64>;
    /// Remove every event at the earliest pending instant; return that
    /// instant and how many events it held.
    fn drain_head(&mut self) -> Option<(u64, usize)>;
}

struct Calq {
    queue: CalendarQueue<Payload>,
    batch: Vec<Payload>,
}

impl Scheduler for Calq {
    fn push(&mut self, time: u64, key: u64, seq: u64) {
        self.queue.push(SimTime(time), key, seq, [seq; PAYLOAD_WORDS]);
    }

    fn head(&self) -> Option<u64> {
        self.queue.head_time().map(|t| t.as_nanos())
    }

    fn drain_head(&mut self) -> Option<(u64, usize)> {
        let time = self.queue.drain_head(&mut self.batch)?;
        let n = self.batch.len();
        black_box(&self.batch);
        self.batch.clear();
        Some((time.as_nanos(), n))
    }
}

/// The pre-PR-5 scheduler: a binary min-heap on `(time, key, seq)` with
/// the same-instant pop loop the engine ran on top of it.
struct Heap {
    queue: BinaryHeap<Reverse<(u64, u64, u64, Payload)>>,
    batch: Vec<Payload>,
}

impl Scheduler for Heap {
    fn push(&mut self, time: u64, key: u64, seq: u64) {
        self.queue.push(Reverse((time, key, seq, [seq; PAYLOAD_WORDS])));
    }

    fn head(&self) -> Option<u64> {
        self.queue.peek().map(|e| e.0 .0)
    }

    fn drain_head(&mut self) -> Option<(u64, usize)> {
        let time = self.queue.peek()?.0 .0;
        while self.queue.peek().is_some_and(|e| e.0 .0 == time) {
            let Reverse((_, _, _, item)) = self.queue.pop().expect("peeked");
            self.batch.push(item);
        }
        let n = self.batch.len();
        black_box(&self.batch);
        self.batch.clear();
        Some((time, n))
    }
}

/// Drive `ops` (sorted by push time) through `q` the way the run loop
/// would: drain the head instant, then push what that instant's events
/// scheduled. An operation pushed at an instant the capture has no event
/// for (a pause or resume frame started that transmission) is pushed
/// when the clock passes its push time. Returns host nanoseconds and
/// events drained.
fn drive(q: &mut impl Scheduler, ops: &[Op]) -> (f64, u64) {
    let started = Instant::now();
    let mut next = 0usize;
    let mut seq = 0u64;
    let mut drained = 0u64;
    let mut now = 0u64;
    loop {
        while next < ops.len() && ops[next].push <= now {
            q.push(ops[next].fire.max(now), ops[next].key, seq);
            seq += 1;
            next += 1;
        }
        let head = q.head();
        match ops.get(next) {
            Some(op) if head.is_none_or(|h| op.push < h) => now = op.push,
            _ => match q.drain_head() {
                Some((time, n)) => {
                    now = time;
                    drained += n as u64;
                }
                None => break,
            },
        }
    }
    (started.elapsed().as_nanos() as f64, drained)
}

/// The scheduler layer's numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerCost {
    pub events: u64,
    pub calq_ns_per_event: f64,
    pub heap_ns_per_event: f64,
}

/// Time the run's own schedule through both queues.
pub fn scheduler_cost(ops: &[Op]) -> SchedulerCost {
    let mut calq = Calq { queue: CalendarQueue::new(), batch: Vec::new() };
    let (calq_ns, events) = drive(&mut calq, ops);
    let mut heap = Heap { queue: BinaryHeap::new(), batch: Vec::new() };
    let (heap_ns, heap_events) = drive(&mut heap, ops);
    assert_eq!(events, heap_events, "both schedulers drain the same schedule");
    let per = |ns: f64| ns / events.max(1) as f64;
    SchedulerCost { events, calq_ns_per_event: per(calq_ns), heap_ns_per_event: per(heap_ns) }
}

/// Longest key or frame stream a standalone replay walks: enough for
/// stable nanosecond figures, small enough to stay in seconds.
const STREAM_CAP: usize = 2_000_000;
/// Fewest operations a timed loop should cover before its clock reads
/// stop mattering.
const MIN_TIMED_OPS: usize = 200_000;

/// The table layer's numbers, from the run's MAC key stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableCost {
    pub get_hit_ns: f64,
    pub get_miss_ns: f64,
    pub insert_ns: f64,
    pub sweep_ns_per_expired: f64,
    pub wheel_insert_ns: f64,
    pub wheel_advance_ns_per_due: f64,
}

/// Source MACs of the frames bridges received, in arrival order — the
/// key every bridge input looks up (and learns) first.
pub fn bridge_key_stream(recs: &[Rec], is_bridge: &[bool]) -> Vec<MacAddr> {
    recs.iter()
        .filter_map(|r| match r {
            Rec::Frame { node, frame, .. } if is_bridge[node.0] && frame.src.is_unicast() => {
                Some(frame.src)
            }
            _ => None,
        })
        .take(STREAM_CAP)
        .collect()
}

/// Replay `keys` through one d-left table and one timer wheel of the
/// workload's geometry (`bucket_bits`), entries living for `ttl`.
pub fn table_cost(bucket_bits: u32, ttl: SimDuration, keys: &[MacAddr]) -> TableCost {
    let mut stations = keys.to_vec();
    stations.sort_unstable();
    stations.dedup();
    assert!(!stations.is_empty(), "a workload's bridges see at least one station");
    // Past every expiry below, inside the wheel's range.
    let far = SimTime(ttl.as_nanos() + SimDuration::secs(3600).as_nanos());
    let rounds = MIN_TIMED_OPS.div_ceil(stations.len());
    let per = |ns: u128, n: usize| ns as f64 / n.max(1) as f64;

    // Inserts, then the mass expiry of everything inserted: `rounds`
    // fresh tables so the loop is long enough to time.
    let mut insert_ns = 0u128;
    let mut sweep_ns = 0u128;
    let mut swept = 0usize;
    for _ in 0..rounds {
        let mut t: DLeftTable<MacAddr, u32> = DLeftTable::with_bucket_bits(bucket_bits);
        let started = Instant::now();
        for (i, k) in stations.iter().enumerate() {
            black_box(t.insert(*k, i as u32, SimTime(ttl.as_nanos() + i as u64)));
        }
        insert_ns += started.elapsed().as_nanos();
        let started = Instant::now();
        swept += black_box(t.sweep(far));
        sweep_ns += started.elapsed().as_nanos();
    }

    // Lookups over the run's own key order, hits and misses apart. An
    // undersized geometry cannot hold every station: hits are timed
    // over the keys it kept.
    let mut table: DLeftTable<MacAddr, u32> = DLeftTable::with_bucket_bits(bucket_bits);
    for (i, k) in stations.iter().enumerate() {
        table.insert(*k, i as u32, far);
    }
    let now = SimTime(1);
    let hits: Vec<MacAddr> =
        keys.iter().copied().filter(|k| table.peek(k, now).is_some()).collect();
    // The same stream moved into an address block no station uses.
    let misses: Vec<MacAddr> =
        keys.iter().map(|k| MacAddr::from_index(9, k.to_u64() as u32)).collect();
    let timed_gets = |table: &mut DLeftTable<MacAddr, u32>, stream: &[MacAddr]| {
        let passes = MIN_TIMED_OPS.div_ceil(stream.len().max(1));
        let started = Instant::now();
        for _ in 0..passes {
            for k in stream {
                black_box(table.get(k, now));
            }
        }
        per(started.elapsed().as_nanos(), passes * stream.len())
    };
    let get_hit_ns = timed_gets(&mut table, &hits);
    let get_miss_ns = timed_gets(&mut table, &misses);

    // The wheel alone: file one expiry per key arrival, then advance
    // past all of them.
    let mut wheel = TimerWheel::default();
    let mut due: Vec<TimerEntry> = Vec::new();
    let started = Instant::now();
    for (i, _) in keys.iter().enumerate() {
        wheel.insert(SimTime(i as u64 * 64 + ttl.as_nanos()), i as u32, 0);
    }
    let wheel_insert_ns = per(started.elapsed().as_nanos(), keys.len());
    let started = Instant::now();
    wheel.advance(far, &mut due);
    let wheel_advance_ns_per_due = per(started.elapsed().as_nanos(), black_box(&due).len());

    TableCost {
        get_hit_ns,
        get_miss_ns,
        insert_ns: per(insert_ns, rounds * stations.len()),
        sweep_ns_per_expired: per(sweep_ns, swept),
        wheel_insert_ns,
        wheel_advance_ns_per_due,
    }
}

/// The wire layer's numbers, from a sample of the delivered frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireCost {
    pub encode_ns_per_frame: f64,
    pub parse_ns_per_frame: f64,
    /// Flooded deliveries over all deliveries to devices.
    pub bcast_share: f64,
}

/// Frames sampled for the codec timing: a stride across the whole run,
/// so the sample keeps the run's mix of ARP floods and data.
const WIRE_SAMPLE: usize = 50_000;

/// Encode and zero-copy-parse a strided sample of the delivered frames.
pub fn wire_cost(recs: &[Rec]) -> WireCost {
    let frames: Vec<&EthernetFrame> = recs
        .iter()
        .filter_map(|r| match r {
            Rec::Frame { frame, .. } => Some(frame),
            _ => None,
        })
        .collect();
    assert!(!frames.is_empty(), "a run delivers at least one frame");
    let flooded = frames.iter().filter(|f| f.is_flooded()).count();
    let stride = frames.len().div_ceil(WIRE_SAMPLE);
    let sample: Vec<&EthernetFrame> = frames.iter().step_by(stride).copied().collect();
    let passes = MIN_TIMED_OPS.div_ceil(sample.len());

    let mut encoded: Vec<Bytes> = Vec::with_capacity(sample.len());
    let started = Instant::now();
    for pass in 0..passes {
        for f in &sample {
            let bytes = black_box(f.to_bytes());
            if pass == 0 {
                encoded.push(Bytes::from(bytes));
            }
        }
    }
    let encode_ns = started.elapsed().as_nanos() as f64;
    let started = Instant::now();
    for _ in 0..passes {
        for b in &encoded {
            black_box(EthernetFrame::parse_bytes(b).expect("a frame we encoded parses"));
        }
    }
    let parse_ns = started.elapsed().as_nanos() as f64;
    let timed = (passes * sample.len()) as f64;
    WireCost {
        encode_ns_per_frame: encode_ns / timed,
        parse_ns_per_frame: parse_ns / timed,
        bcast_share: flooded as f64 / frames.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_schedulers_drain_a_schedule_completely_and_in_time_order() {
        // Three events at t=10 (one pushed late, at t=10 itself, lands
        // in a follow-up batch), one far-future event, one gap.
        let mut ops = vec![
            Op { push: 0, fire: 10, key: 1 },
            Op { push: 0, fire: 10, key: 2 },
            Op { push: 10, fire: 10, key: 3 },
            Op { push: 10, fire: 5_000_000_000, key: 4 },
            Op { push: 700, fire: 900, key: 5 },
        ];
        ops.sort_by_key(|op| op.push);
        let cost = scheduler_cost(&ops);
        assert_eq!(cost.events, 5);
        assert!(cost.calq_ns_per_event > 0.0 && cost.heap_ns_per_event > 0.0);
    }

    #[test]
    fn table_costs_are_positive_at_an_undersized_geometry() {
        // 64 stations into 8 slots: the churn workload's regime.
        let keys: Vec<MacAddr> = (0..4096u32).map(|i| MacAddr::from_index(1, i % 64)).collect();
        let c = table_cost(0, SimDuration::millis(40), &keys);
        for v in
            [c.get_hit_ns, c.get_miss_ns, c.insert_ns, c.sweep_ns_per_expired, c.wheel_insert_ns]
        {
            assert!(v > 0.0 && v.is_finite(), "{c:?}");
        }
    }
}
