//! The discrete-event engine: a deterministic event queue moving frames
//! across links between devices.
//!
//! # Batched execution and the same-timestamp ordering guarantee
//!
//! The run loops ([`Network::run_until`], [`Network::run_until_idle`],
//! [`Network::run_for`]) drain the queue **one timestamp at a time**:
//! every event sharing the earliest pending instant is popped into a
//! reused batch buffer in a single pass over the queue, the clock
//! advances once, and the batch is then processed in order. Events an
//! event handler schedules *at the same instant* (zero-delay timers,
//! injected frames) land after the current batch — they are drained as
//! a follow-up batch before the clock moves — so the observable order
//! is always `(time, key, seq)`: chronological, then by a **canonical
//! order key** derived from the event's physical identity (which wire
//! a frame arrives on, which device a timer belongs to — see
//! `Network::order_key`), with insertion order as the final
//! tiebreak. The canonical key is what makes same-nanosecond
//! coincidences — two copies of a flood reaching one switch on two
//! ports in the same instant — resolve identically in this engine and
//! in the sharded engine ([`crate::sharded`]), whose shards assign
//! insertion sequence numbers independently and therefore cannot
//! reproduce a global insertion order. Within one `(time, key)` cell
//! the tie domain is a single wire direction or a single device, where
//! insertion order *is* reproducible shard-locally. This batched order
//! is byte-identical to processing one event at a time with
//! [`Network::step`], which `tests/engine_batching.rs` asserts at the
//! trace level; batching only removes per-event queue interleaving and
//! allocation churn from the hot path, it never reorders.
//!
//! Two further hot-path choices matter for scale. Device callbacks
//! cannot borrow the engine, so their side effects are *deferred
//! commands*: each dispatch lends the device one reused scratch vector,
//! and the engine applies the commands (sends, timer schedules)
//! immediately after the callback returns — a flood out of N ports is
//! N commands in that one buffer. A frame hop allocates nothing after
//! warm-up, for two reasons: the scratch vector, the batch buffer and
//! the scheduler's bucket storage are each owned once and recycled (the
//! calendar shelves a drained bucket's `Vec` and hands it to the next
//! bucket that opens — see [`crate::calq`]); and the callback writes
//! where the engine reads ([`Ctx::parts`] lets a wrapper such as
//! `arppath_switch::IdealSwitch` point its decision plane at the
//! scratch vector itself, so there is no second output list to grow
//! and copy, and no snapshot of the port states).
//! `crates/switch/tests/ideal_alloc.rs` counts allocations per frame at
//! the device and at the fabric level; what a flooding run still
//! allocates is per host, not per hop — datagram building and first
//! inserts growing table storage. And
//! egress lookup (device, port) → (link, direction) is a dense
//! two-level table indexed by node id and port number, not a hash map,
//! so the per-send cost is two array indexations.
//!
//! # Event lifecycle: one event per hop
//!
//! One frame crossing one link passes through the engine as:
//!
//! ```text
//! device callback ──Command::Send──▶ handle_send
//!       ▲                               │ (queue, or start_tx)
//!       │                               ▼
//!   on_frame ◀───────────────── Deliver event
//!                      (+serialization +propagation)
//! ```
//!
//! A link's delivery time is fully determined the moment a frame
//! starts serializing, so `start_tx` schedules the `Deliver` event
//! directly and records `busy_until` on the direction. The transmit
//! *completion* at `busy_until` is an event (`TxDone`) only when it has
//! work to do: a queued successor to start, or an asserted PFC pause
//! whose release it must check — known at `start_tx`, or discovered
//! when the first frame queues up behind the one in flight. On flood
//! traffic almost no completion has any, and the frame costs exactly
//! one scheduler event.
//!
//! An elided completion still *happens*, at its canonical position
//! `(busy_until, TxDone key)` in the `(time, key, seq)` order: it is
//! applied lazily ("settled" — transmitter freed, `tx_frames`/
//! `tx_bytes` credited) before anything reads the transmitter's state
//! from a later position, and by the run loops on the way out, so link
//! counters are exact at every run boundary. Nothing can tell the
//! difference — see `Network::settle` for the rule and its one corner.
//! Nothing happens "between" events, which is what makes runs
//! reproducible and what lets the sharded engine ([`crate::sharded`])
//! cut the graph at link boundaries.
//!
//! # Example
//!
//! A one-shot sender and a recording sink on a gigabit link; the frame
//! arrives exactly at serialization + propagation:
//!
//! ```
//! use arppath_netsim::{Ctx, Device, LinkParams, NetworkBuilder, PortNo};
//! use arppath_netsim::{SimDuration, SimTime};
//! use arppath_wire::{ArpPacket, EthernetFrame, MacAddr};
//!
//! fn arp() -> EthernetFrame {
//!     let src = MacAddr::from_index(1, 1);
//!     let req = ArpPacket::request(src, "10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap());
//!     EthernetFrame::arp_request(src, req)
//! }
//!
//! /// Sends one ARP request the moment the simulation starts.
//! struct Shot;
//! impl Device for Shot {
//!     fn name(&self) -> &str { "shot" }
//!     fn on_start(&mut self, ctx: &mut Ctx) { ctx.send(PortNo(0), arp()); }
//!     fn on_frame(&mut self, _: PortNo, _: EthernetFrame, _: &mut Ctx) {}
//! }
//!
//! /// Records when every frame arrives.
//! struct Sink { heard: Vec<SimTime> }
//! impl Device for Sink {
//!     fn name(&self) -> &str { "sink" }
//!     fn on_frame(&mut self, _: PortNo, _: EthernetFrame, ctx: &mut Ctx) {
//!         self.heard.push(ctx.now());
//!     }
//! }
//!
//! let mut b = NetworkBuilder::new();
//! let tx = b.add(Box::new(Shot));
//! let rx = b.add(Box::new(Sink { heard: vec![] }));
//! b.link(tx, 0, rx, 0, LinkParams::gigabit(SimDuration::micros(1)));
//! let mut net = b.build();
//! net.run_until_idle(SimTime(u64::MAX));
//!
//! // A minimum-size ARP occupies 672 ns of line time at 1 Gbit/s,
//! // then propagates for 1 µs: delivery at exactly t = 1672 ns.
//! assert_eq!(net.device::<Sink>(rx).heard, vec![SimTime(1672)]);
//! assert_eq!(net.stats().frames_delivered, 1);
//! ```

use crate::calq::CalendarQueue;
use crate::device::{Command, Ctx, Device, NodeId, PortNo, TimerToken};
use crate::link::{Admission, Dir, DirStats, Endpoint, Link, LinkId, LinkParams, PauseWatchdog};
use crate::pfc::{self, PfcOp};
use crate::time::{SimDuration, SimTime};
use crate::trace::{DeliveryRecord, DeliveryTracer, TeeTracer, TraceEvent, Tracer};
use arppath_wire::EthernetFrame;
use std::any::Any;
use std::sync::{Arc, Mutex};

/// Bit position of the tier in a canonical order key (see
/// `Network::order_key`).
const TIER: u32 = 60;

/// What happens at an instant.
#[derive(Debug)]
enum EventKind {
    /// The frame in flight on `link`/`dir` finished serializing and the
    /// transmitter has something to do about it. Scheduled only then;
    /// an idle completion is elided (see `Network::settle`).
    TxDone { link: LinkId, dir: Dir, epoch: u64 },
    /// The last bit of `frame` reached the far end of `link`/`dir`.
    Deliver { link: LinkId, dir: Dir, epoch: u64, frame: EthernetFrame },
    /// A device timer fires.
    Timer { node: NodeId, token: TimerToken },
    /// The harness flips a link's state (cable cut / re-plug).
    LinkAdmin { link: LinkId, up: bool },
    /// A pause-watchdog deadline armed at pause time expired; `gen`
    /// identifies the pause it guarded (stale fires are ignored).
    Watchdog { link: LinkId, dir: Dir, gen: u64 },
    /// Test hook: hand a frame directly to a device's ingress.
    Inject { node: NodeId, port: PortNo, frame: EthernetFrame },
}

/// Network-wide counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetworkStats {
    /// Frames devices asked to transmit.
    pub frames_sent: u64,
    /// Frames delivered to devices.
    pub frames_delivered: u64,
    /// Frames dropped at full transmit queues.
    pub drops_queue_full: u64,
    /// Frames lost to down links (at send or in flight).
    pub drops_link_down: u64,
    /// Frames sent into uncabled ports.
    pub drops_no_cable: u64,
    /// Pause-watchdog fires (stuck pauses broken by policy).
    pub watchdog_fires: u64,
    /// Frames discarded by `DrainAndDrop` watchdog fires.
    pub drops_watchdog: u64,
    /// Scheduler events processed: one per frame hop (its delivery),
    /// plus a transmit completion only where one had work to do — a
    /// queued successor to start or a PFC release to check — plus
    /// timers, link-admin flips, watchdog deadlines and injections.
    pub events: u64,
}

/// Assembles a [`Network`]: add devices, cable them together, build.
#[derive(Default)]
pub struct NetworkBuilder {
    devices: Vec<Box<dyn Device>>,
    links: Vec<Link>,
    /// Dense egress map `[node][port] -> (link, direction)`, grown as
    /// links are cabled; moves into the network unchanged. The key
    /// space (node ids × port numbers) is small and dense, so a flat
    /// table beats hashing and — unlike a `HashMap` — has a
    /// deterministic layout from construction on.
    port_map: Vec<Vec<Option<(LinkId, Dir)>>>,
    /// Per-link canonical wire ids, one per direction, used in the
    /// same-instant event order. Defaults to `[2·id, 2·id + 1]`; the
    /// sharded builder overrides them with *global* link identity so
    /// every shard — and the single-threaded reference — sorts
    /// same-nanosecond coincidences identically.
    link_order_keys: Vec<[u64; 2]>,
    /// Per-node canonical ids for the same-instant order of
    /// device-local events (timers). Defaults to the node id; the
    /// sharded builder overrides with global node ids.
    node_order_keys: Vec<u64>,
    tracer: Option<Box<dyn Tracer>>,
    /// Delivery recorder behind [`Engine::delivery_trace`], if asked for.
    delivery: Option<DeliveryTracer>,
}

impl NetworkBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a tracer before the network starts, so the `on_start`
    /// traffic (protocol hellos, application kick-off) is captured too.
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.tracer = Some(tracer);
    }

    /// Record every frame delivery so [`Engine::delivery_trace`] can
    /// render the canonical trace — the same switch as
    /// [`crate::ShardedBuilder::record_delivery_trace`]. Off by default:
    /// recording costs one frame encode per delivery. Runs beside any
    /// [`NetworkBuilder::set_tracer`] tracer; replacing the tracer after
    /// build ([`Network::set_tracer`]) stops the recording.
    pub fn record_delivery_trace(&mut self, on: bool) {
        self.delivery = on.then(DeliveryTracer::new);
    }

    /// Record deliveries under translated node ids (see
    /// [`DeliveryTracer`]'s remap): how a shard reports global ids.
    pub(crate) fn record_remapped_delivery_trace(&mut self, remap: Vec<Option<NodeId>>) {
        self.delivery = Some(DeliveryTracer::with_remap(remap));
    }

    /// Attach a device; ids are handed out in insertion order.
    pub fn add(&mut self, device: Box<dyn Device>) -> NodeId {
        let id = NodeId(self.devices.len());
        self.devices.push(device);
        self.port_map.push(Vec::new());
        self.node_order_keys.push(id.0 as u64);
        id
    }

    /// Override the canonical per-direction wire ids of `link` used to
    /// order same-instant events (see `Network::order_key`). The
    /// sharded builder maps shard-local half-links back to their global
    /// link identity with this.
    pub fn set_link_order_keys(&mut self, link: LinkId, keys: [u64; 2]) {
        self.link_order_keys[link.0] = keys;
    }

    /// Override the canonical id of `node` used to order same-instant
    /// device-local events (see `Network::order_key`).
    pub fn set_node_order_key(&mut self, node: NodeId, key: u64) {
        self.node_order_keys[node.0] = key;
    }

    /// Cable `(a, a_port)` to `(b, b_port)` with `params`.
    ///
    /// # Panics
    /// On out-of-range nodes, self-loops, or double-cabling a port —
    /// all builder misuse, caught at construction time.
    pub fn link(
        &mut self,
        a: NodeId,
        a_port: usize,
        b: NodeId,
        b_port: usize,
        params: LinkParams,
    ) -> LinkId {
        assert!(a.0 < self.devices.len(), "link endpoint {a:?} does not exist");
        assert!(b.0 < self.devices.len(), "link endpoint {b:?} does not exist");
        assert!(
            !(a == b && a_port == b_port),
            "cannot cable a port to itself ({a:?} port {a_port})"
        );
        let ea = Endpoint { node: a, port: PortNo(a_port) };
        let eb = Endpoint { node: b, port: PortNo(b_port) };
        let id = LinkId(self.links.len());
        for (ep, dir, label) in [(ea, Dir::AtoB, "A"), (eb, Dir::BtoA, "B")] {
            let row = &mut self.port_map[ep.node.0];
            if row.len() <= ep.port.0 {
                row.resize(ep.port.0 + 1, None);
            }
            assert!(
                row[ep.port.0].is_none(),
                "endpoint {label} ({:?} port {}) is already cabled",
                ep.node,
                ep.port.0
            );
            row[ep.port.0] = Some((id, dir));
        }
        self.links.push(Link::new(ea, eb, params));
        self.link_order_keys.push([2 * id.0 as u64, 2 * id.0 as u64 + 1]);
        id
    }

    /// Finish construction and run every device's `on_start` at t=0.
    pub fn build(self) -> Network {
        let mut ports_up: Vec<Vec<bool>> = self.devices.iter().map(|_| Vec::new()).collect();
        for link in &self.links {
            for ep in [link.a, link.b] {
                let v = &mut ports_up[ep.node.0];
                if v.len() <= ep.port.0 {
                    v.resize(ep.port.0 + 1, false);
                }
                v[ep.port.0] = true;
            }
        }
        let n = self.devices.len();
        let delivery = self.delivery.map(|d| Arc::new(Mutex::new(d)));
        let tracer: Option<Box<dyn Tracer>> = match (self.tracer, &delivery) {
            (tracer, None) => tracer,
            (None, Some(d)) => Some(Box::new(Arc::clone(d))),
            (Some(tracer), Some(d)) => Some(Box::new(TeeTracer(tracer, Arc::clone(d)))),
        };
        let mut net = Network {
            devices: self.devices.into_iter().map(Some).collect(),
            links: self.links,
            // The builder's egress map is already the dense per-node,
            // per-port table the hot path indexes: move it as-is.
            port_table: self.port_map,
            ports_up,
            link_order_keys: self.link_order_keys,
            node_order_keys: self.node_order_keys,
            queue: CalendarQueue::new(),
            now: SimTime::ZERO,
            seq: 0,
            stats: NetworkStats::default(),
            tracer,
            delivery,
            scratch: Vec::new(),
            batch: Vec::new(),
            cur_key: 0,
            unsettled: Vec::new(),
        };
        for i in 0..n {
            net.dispatch(NodeId(i), |dev, ctx| dev.on_start(ctx));
        }
        net
    }
}

/// A running simulated network.
pub struct Network {
    devices: Vec<Option<Box<dyn Device>>>,
    links: Vec<Link>,
    /// Dense egress map `[node][port] -> (link, direction)`; `None` for
    /// uncabled ports.
    port_table: Vec<Vec<Option<(LinkId, Dir)>>>,
    ports_up: Vec<Vec<bool>>,
    /// Canonical per-direction wire ids (see `Network::order_key`).
    link_order_keys: Vec<[u64; 2]>,
    /// Canonical device ids (see `Network::order_key`).
    node_order_keys: Vec<u64>,
    queue: CalendarQueue<EventKind>,
    now: SimTime,
    seq: u64,
    stats: NetworkStats,
    tracer: Option<Box<dyn Tracer>>,
    /// The delivery recorder the tracer feeds, when recording is on.
    delivery: Option<Arc<Mutex<DeliveryTracer>>>,
    /// Reused command buffer lent to device callbacks; bridge logic
    /// writes its sends and timers straight into it (a flood is N
    /// commands here and nowhere else).
    scratch: Vec<Command>,
    /// Reused buffer holding the events of the batch being processed.
    batch: Vec<EventKind>,
    /// Canonical order key of the event being processed: with `now`,
    /// the position elided completions are settled against.
    cur_key: u64,
    /// Directions with an elided completion that nothing has read past
    /// yet; the run loops settle them on the way out so link counters
    /// are exact at every run boundary.
    unsettled: Vec<(LinkId, Dir)>,
}

impl Network {
    /// The current instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Timestamp of the earliest pending event, if any. Lets harnesses
    /// single-step up to a horizon without consuming events past it.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.head_time()
    }

    /// Bytes of event storage the scheduler holds allocated (see
    /// [`CalendarQueue::reserved_bytes`]): what a run's pending events
    /// cost in memory at their high-water mark.
    pub fn scheduler_reserved_bytes(&self) -> usize {
        self.queue.reserved_bytes()
    }

    /// Engine-wide counters.
    pub fn stats(&self) -> NetworkStats {
        self.stats
    }

    /// Number of devices.
    pub fn node_count(&self) -> usize {
        self.devices.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Immutable view of a link (its stats, endpoints, state).
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0]
    }

    /// All links.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.links.iter().enumerate().map(|(i, l)| (LinkId(i), l))
    }

    /// Install (or replace) the tracer.
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.tracer = Some(tracer);
    }

    /// The recorded deliveries, in emission order.
    pub(crate) fn delivery_records(&self) -> Vec<DeliveryRecord> {
        self.delivery
            .as_ref()
            .map_or_else(Vec::new, |d| d.lock().expect("delivery tracer poisoned").records.clone())
    }

    /// Typed access to a device.
    ///
    /// # Panics
    /// If `node` does not hold a `T`.
    pub fn device<T: 'static>(&self, node: NodeId) -> &T {
        let dev = self.devices[node.0].as_deref().expect("device in dispatch");
        (dev as &dyn Any)
            .downcast_ref::<T>()
            .unwrap_or_else(|| panic!("node {node:?} is not a {}", std::any::type_name::<T>()))
    }

    /// Typed mutable access to a device.
    ///
    /// # Panics
    /// If `node` does not hold a `T`.
    pub fn device_mut<T: 'static>(&mut self, node: NodeId) -> &mut T {
        let dev = self.devices[node.0].as_deref_mut().expect("device in dispatch");
        (dev as &mut dyn Any)
            .downcast_mut::<T>()
            .unwrap_or_else(|| panic!("node {node:?} is not a {}", std::any::type_name::<T>()))
    }

    /// Schedule a cable cut at `at`.
    pub fn schedule_link_down(&mut self, link: LinkId, at: SimTime) {
        self.push_at(at, EventKind::LinkAdmin { link, up: false });
    }

    /// Schedule a cable re-plug at `at`.
    pub fn schedule_link_up(&mut self, link: LinkId, at: SimTime) {
        self.push_at(at, EventKind::LinkAdmin { link, up: true });
    }

    /// Test hook: deliver `frame` to `node`/`port` at the current time
    /// (processed before any later event).
    pub fn inject(&mut self, node: NodeId, port: PortNo, frame: EthernetFrame) {
        self.push_at(self.now, EventKind::Inject { node, port, frame });
    }

    /// Deliver `frame` to `node`/`port` at the future instant `at`.
    ///
    /// This is the partition-aware ingress the sharded engine uses: a
    /// frame that left another shard arrives here carrying the delivery
    /// time its sender-side link computed. Also useful for harnesses
    /// replaying a captured schedule.
    ///
    /// # Panics
    /// If `at` is in the past — accepting it would reorder history.
    pub fn inject_at(&mut self, at: SimTime, node: NodeId, port: PortNo, frame: EthernetFrame) {
        assert!(at >= self.now, "inject_at({at}) is before the current instant {}", self.now);
        self.push_at(at, EventKind::Inject { node, port, frame });
    }

    /// Run until the event queue is empty or `limit` is reached,
    /// whichever is first. Returns `true` if the queue drained; the
    /// clock is left at the last processed event (drained) or at
    /// `limit`.
    pub fn run_until_idle(&mut self, limit: SimTime) -> bool {
        while self.step_batch(limit) {}
        if self.queue.is_empty() {
            true
        } else {
            self.now = self.now.max(limit);
            self.settle_all(limit, u64::MAX);
            false
        }
    }

    /// Run every event up to and including `until`, then set the clock
    /// to `until`.
    pub fn run_until(&mut self, until: SimTime) {
        while self.step_batch(until) {}
        self.now = self.now.max(until);
        self.settle_all(until, u64::MAX);
    }

    /// Run for `d` from the current instant.
    pub fn run_for(&mut self, d: SimDuration) {
        let until = self.now + d;
        self.run_until(until);
    }

    /// Process exactly one event. Returns the time it ran at, or `None`
    /// if the queue is empty.
    ///
    /// This is the reference single-event semantics the batched run
    /// loops are asserted against; experiment harnesses should prefer
    /// [`Network::run_until`] / [`Network::run_until_idle`]. One
    /// corner differs from batching: an event a handler pushes *at the
    /// current instant* with a lower canonical key than events still
    /// pending there pops immediately here, but lands in a follow-up
    /// batch under [`Network::step_batch`]. That requires a zero-delay
    /// event colliding with a pending same-instant cohort — none of
    /// the repository's scenarios produce one (propagation and
    /// serialization are nonzero), and the equivalence suite holds.
    pub fn step(&mut self) -> Option<SimTime> {
        let (time, key, _seq, kind) = self.queue.pop_min()?;
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        self.stats.events += 1;
        self.process(kind);
        self.settle_all(time, key);
        Some(self.now)
    }

    /// Drain and process the entire batch of pending events that share
    /// the earliest timestamp, provided it is `<= bound`. Returns `true`
    /// if a batch ran. Events that handlers push *at the batch's own
    /// instant* are not part of this batch (the cohort was fully
    /// removed from the queue before processing began); the next call
    /// drains them as a follow-up batch at the same time, which is
    /// exactly the order single-stepping would visit, since their
    /// insertion sequence numbers are higher than everything already
    /// pending.
    pub fn step_batch(&mut self, bound: SimTime) -> bool {
        let Some(time) = self.queue.head_time().filter(|&t| t <= bound) else {
            // Nothing left at or before the bound: every event up to
            // here has run, so elided completions up to here are due.
            self.settle_all(self.now.min(bound), u64::MAX);
            return false;
        };
        debug_assert!(time >= self.now, "event queue went backwards");
        // One calendar-bucket pass moves the whole same-instant run out
        // of the queue before touching any device, into a buffer reused
        // across batches, in canonical (key, seq) order.
        let mut batch = std::mem::take(&mut self.batch);
        debug_assert!(batch.is_empty());
        let drained = self.queue.drain_head(&mut batch);
        debug_assert_eq!(drained, Some(time));
        self.now = time;
        self.stats.events += batch.len() as u64;
        for kind in batch.drain(..) {
            self.process(kind);
        }
        self.batch = batch;
        true
    }

    // ---- internals ----

    /// Apply one event's effect at the already-advanced clock.
    fn process(&mut self, kind: EventKind) {
        self.cur_key = self.order_key(&kind);
        match kind {
            EventKind::TxDone { link, dir, epoch } => self.on_tx_done(link, dir, epoch),
            EventKind::Deliver { link, dir, epoch, frame } => {
                self.on_deliver(link, dir, epoch, frame)
            }
            EventKind::Timer { node, token } => {
                self.trace(TraceEvent::TimerFired { node, token });
                self.dispatch(node, |dev, ctx| dev.on_timer(token, ctx));
            }
            EventKind::LinkAdmin { link, up } => self.on_link_admin(link, up),
            EventKind::Watchdog { link, dir, gen } => self.on_watchdog(link, dir, gen),
            EventKind::Inject { node, port, frame } => self.on_inject(node, port, frame),
        }
    }

    /// Injection is a delivery: it must pass the same admission checks
    /// the `Deliver` path applies, or cross-shard ingress (which rides
    /// on [`Network::inject_at`]) would silently bypass the destination
    /// port's link state and PFC interception.
    fn on_inject(&mut self, node: NodeId, port: PortNo, frame: EthernetFrame) {
        if let Some((link_id, _)) = self.port_table[node.0].get(port.0).copied().flatten() {
            if !self.links[link_id.0].up {
                self.stats.drops_link_down += 1;
                self.trace(TraceEvent::DropLinkDown { link: link_id, frame: &frame });
                return;
            }
        }
        self.stats.frames_delivered += 1;
        self.trace(TraceEvent::Delivered { node, port, frame: &frame });
        if let Some(op) = pfc::classify(&frame) {
            let dev = self.devices[node.0].as_ref().expect("device in dispatch");
            if !dev.forwards_control_frames() {
                self.apply_pfc(node, port, op);
                return;
            }
        }
        self.dispatch(node, |dev, ctx| dev.on_frame(port, frame, ctx));
    }

    /// The canonical same-instant ordering key of an event: a tier (what
    /// kind of thing happens) in the top bits, then the event's physical
    /// identity — which wire a frame travels, which device a timer
    /// belongs to. Within one instant, frame **arrivals** process first
    /// (in wire order), then transmit completions, then timers, then
    /// admin events and watchdogs. The identity components come from
    /// [`Network::set_link_order_keys`] / [`Network::set_node_order_key`]
    /// (defaulting to local ids), so a sharded build that maps them to
    /// global ids orders every coincidence exactly like the
    /// single-threaded reference — insertion order, which differs
    /// between the engines, only breaks ties *within* one wire
    /// direction or one device, where both engines agree on it.
    fn order_key(&self, kind: &EventKind) -> u64 {
        let wire = |link: &LinkId, dir: Dir| self.link_order_keys[link.0][dir.index()];
        match kind {
            EventKind::Deliver { link, dir, .. } => wire(link, *dir),
            EventKind::Inject { node, port, .. } => {
                match self.port_table[node.0].get(port.0).copied().flatten() {
                    // An injected frame is an arrival travelling *into*
                    // the port, i.e. opposite the port's send direction.
                    Some((link, dir)) => wire(&link, dir.flip()),
                    // Uncabled test-hook ingress: after every real wire.
                    None => (1 << (TIER - 1)) | ((node.0 as u64) << 16) | port.0 as u64,
                }
            }
            EventKind::TxDone { link, dir, .. } => {
                Self::tx_done_key(&self.link_order_keys, *link, *dir)
            }
            EventKind::Timer { node, .. } => (2 << TIER) | self.node_order_keys[node.0],
            EventKind::LinkAdmin { link, .. } => (3 << TIER) | self.link_order_keys[link.0][0],
            EventKind::Watchdog { link, dir, .. } => (4 << TIER) | wire(link, *dir),
        }
    }

    /// Canonical key of a direction's transmit completion — whether or
    /// not an event carries it. (Takes the key table rather than `self`
    /// so `settle_all` can hold the links mutably beside it.)
    fn tx_done_key(link_order_keys: &[[u64; 2]], link: LinkId, dir: Dir) -> u64 {
        (1 << TIER) | link_order_keys[link.0][dir.index()]
    }

    fn push_at(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        let key = self.order_key(&kind);
        self.queue.push(time, key, seq, kind);
    }

    fn trace(&mut self, event: TraceEvent<'_>) {
        if let Some(t) = self.tracer.as_mut() {
            t.record(self.now, event);
        }
    }

    /// Borrow dance: take the device out of its slot so the callback can
    /// receive `&mut self`-derived context without aliasing.
    fn dispatch<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut Box<dyn Device>, &mut Ctx),
    {
        let mut dev = self.devices[node.0].take().expect("re-entrant dispatch");
        let mut commands = std::mem::take(&mut self.scratch);
        {
            let mut ctx = Ctx::new(self.now, node, &self.ports_up[node.0], &mut commands);
            f(&mut dev, &mut ctx);
        }
        self.devices[node.0] = Some(dev);
        for cmd in commands.drain(..) {
            match cmd {
                Command::Send { port, frame } => self.handle_send(node, port, frame),
                Command::Schedule { after, token } => {
                    self.push_at(self.now + after, EventKind::Timer { node, token });
                }
            }
        }
        self.scratch = commands;
    }

    fn handle_send(&mut self, node: NodeId, port: PortNo, frame: EthernetFrame) {
        self.stats.frames_sent += 1;
        self.trace(TraceEvent::Sent { node, port, frame: &frame });
        let Some((link_id, dir)) = self.port_table[node.0].get(port.0).copied().flatten() else {
            self.stats.drops_no_cable += 1;
            self.trace(TraceEvent::DropNoCable { node, port });
            return;
        };
        let link = &mut self.links[link_id.0];
        if !link.up {
            self.stats.drops_link_down += 1;
            link.dirs[dir.index()].stats.dropped_link_down += 1;
            self.trace(TraceEvent::DropLinkDown { link: link_id, frame: &frame });
            return;
        }
        self.settle(link_id, dir);
        let link = &mut self.links[link_id.0];
        let sender = link.sender(dir);
        let epoch = link.epoch;
        let state = &mut link.dirs[dir.index()];
        if state.transmitting || state.paused {
            match state.queue.try_enqueue(frame) {
                Admission::Dropped(frame) => {
                    self.stats.drops_queue_full += 1;
                    state.stats.dropped_queue_full += 1;
                    self.trace(TraceEvent::DropQueueFull { link: link_id, dir, frame: &frame });
                }
                Admission::Queued => {
                    let depth = state.queue.bytes() as u64;
                    state.stats.peak_queue_bytes = state.stats.peak_queue_bytes.max(depth);
                    // The frame in flight now has a successor to start:
                    // its completion, elided so far, becomes an event.
                    let schedule_done = state.transmitting && !state.done_scheduled;
                    state.done_scheduled |= schedule_done;
                    let done_at = state.busy_until;
                    // PFC: crossing the pause threshold asserts pause
                    // toward every device feeding this queue — i.e. out
                    // of all the congested device's *other* ports.
                    let assert_pause = !state.pause_asserted && state.queue.above_pause();
                    state.pause_asserted |= assert_pause;
                    if schedule_done {
                        self.push_at(done_at, EventKind::TxDone { link: link_id, dir, epoch });
                    }
                    if assert_pause {
                        self.emit_pfc(sender, PfcOp::Pause);
                    }
                }
            }
        } else {
            self.start_tx(link_id, dir, frame);
        }
    }

    /// Apply `dir`'s outstanding transmit completion if it is due: if
    /// its canonical position `(busy_until, TxDone key)` precedes the
    /// event being processed. Called before every read of
    /// `transmitting`, this makes an elided completion indistinguishable
    /// from an event: a send from an arrival handler at exactly
    /// `busy_until` still finds the transmitter busy (arrivals sort
    /// before completions within an instant), a timer at that instant
    /// finds it idle.
    ///
    /// A completion that *does* have an event can be due here too, in
    /// one corner: it was scheduled late, by an arrival handler at
    /// exactly `busy_until`, so the batch being processed was already
    /// drained without it. It is applied now, in its canonical place;
    /// `on_tx_done` ignores the event when it pops.
    fn settle(&mut self, link_id: LinkId, dir: Dir) {
        let link = &self.links[link_id.0];
        let state = &link.dirs[dir.index()];
        if !state.transmitting {
            return;
        }
        // (busy_until, done key) < (now, current key), with the key
        // table only consulted on a same-instant tie.
        let due = state.busy_until < self.now
            || (state.busy_until == self.now
                && Self::tx_done_key(&self.link_order_keys, link_id, dir) < self.cur_key);
        if !due {
            return;
        }
        if state.done_scheduled {
            self.on_tx_done(link_id, dir, link.epoch);
        } else {
            self.links[link_id.0].dirs[dir.index()].complete_tx();
        }
    }

    /// Settle every elided completion positioned before `(time, key)`
    /// and forget the directions that have none outstanding. The run
    /// loops call this on the way out, with every event before that
    /// position processed.
    fn settle_all(&mut self, time: SimTime, key: u64) {
        let (links, keys) = (&mut self.links, &self.link_order_keys);
        self.unsettled.retain(|&(link, dir)| {
            let state = &mut links[link.0].dirs[dir.index()];
            let elided = state.transmitting && !state.done_scheduled;
            if elided && (state.busy_until, Self::tx_done_key(keys, link, dir)) >= (time, key) {
                return true;
            }
            if elided {
                state.complete_tx();
            }
            state.listed = false;
            false
        });
    }

    /// Send a pause or resume frame out of every cabled port of
    /// `at.node` except `at.port` (the congested egress itself — its
    /// receiver is downstream of the congestion, not feeding it).
    /// Port-index order keeps the emission deterministic.
    fn emit_pfc(&mut self, at: Endpoint, op: PfcOp) {
        let frame = match op {
            PfcOp::Pause => pfc::pause_frame(),
            PfcOp::Resume => pfc::resume_frame(),
        };
        let last = self.port_table[at.node.0].len();
        for p in 0..last {
            if p == at.port.0 || self.port_table[at.node.0][p].is_none() {
                continue;
            }
            self.handle_send(at.node, PortNo(p), frame.clone());
        }
    }

    /// Apply an intercepted pause/resume to the transmitter that sends
    /// *out of* (`node`, `port`) — the direction back toward whoever
    /// emitted the control frame.
    fn apply_pfc(&mut self, node: NodeId, port: PortNo, op: PfcOp) {
        let Some((link_id, dir)) = self.port_table[node.0].get(port.0).copied().flatten() else {
            return;
        };
        let now = self.now;
        let link = &mut self.links[link_id.0];
        let watchdog = link.params.watchdog;
        let state = &mut link.dirs[dir.index()];
        match op {
            PfcOp::Pause => {
                if !state.paused {
                    state.paused = true;
                    state.pause_started = Some(now);
                    state.stats.pause_events += 1;
                    // Arm the deadlock watchdog for *this* pause. The
                    // generation stamp lets the fire handler tell a
                    // pause that was released (and possibly replaced)
                    // in the meantime from one that is genuinely stuck.
                    state.pause_gen += 1;
                    let gen = state.pause_gen;
                    if let Some(deadline) = watchdog.deadline() {
                        self.push_at(
                            now + deadline,
                            EventKind::Watchdog { link: link_id, dir, gen },
                        );
                    }
                }
            }
            PfcOp::Resume => {
                if state.paused {
                    state.paused = false;
                    if let Some(started) = state.pause_started.take() {
                        state.stats.paused_for =
                            state.stats.paused_for + SimDuration::nanos(now.0 - started.0);
                    }
                    self.settle(link_id, dir);
                    let state = &mut self.links[link_id.0].dirs[dir.index()];
                    if !state.transmitting {
                        if let Some(next) = state.queue.pop() {
                            self.start_tx(link_id, dir, next);
                        }
                    }
                }
            }
        }
    }

    /// A pause-watchdog deadline expired. If the pause it was armed for
    /// is still in force (same generation, link still up), the
    /// transmitter is declared stuck — PFC's cyclic-buffer-dependency
    /// deadlock — and the cycle is broken per the link's
    /// [`crate::PauseWatchdog`] policy. The fire is counted and
    /// synthesized into the delivery trace as a constant-byte marker at
    /// the stuck transmitter's own endpoint; because the decision
    /// depends only on sender-side state, the sharded engine fires the
    /// same watchdogs at the same instants and traces stay
    /// byte-identical.
    fn on_watchdog(&mut self, link_id: LinkId, dir: Dir, gen: u64) {
        let now = self.now;
        if !self.links[link_id.0].up {
            return; // pause state died with the carrier
        }
        self.settle(link_id, dir);
        let link = &mut self.links[link_id.0];
        let policy = link.params.watchdog;
        let ep = link.sender(dir);
        let state = &mut link.dirs[dir.index()];
        if !state.paused || state.pause_gen != gen {
            return; // released before the deadline: not stuck
        }
        state.paused = false;
        if let Some(started) = state.pause_started.take() {
            state.stats.paused_for = state.stats.paused_for + SimDuration::nanos(now.0 - started.0);
        }
        state.stats.watchdog_fires += 1;
        self.stats.watchdog_fires += 1;
        let mut resume_next = None;
        match policy {
            // Unreachable in practice: fires are only armed when a
            // deadline exists. Harmless if params ever become mutable.
            PauseWatchdog::Off => {}
            PauseWatchdog::ForceResume { .. } => {
                if !state.transmitting {
                    resume_next = state.queue.pop();
                }
            }
            PauseWatchdog::DrainAndDrop { .. } => {
                let lost = state.queue.clear() as u64;
                state.stats.dropped_watchdog += lost;
                self.stats.drops_watchdog += lost;
            }
        }
        self.stats.frames_delivered += 1;
        self.trace(TraceEvent::Delivered {
            node: ep.node,
            port: ep.port,
            frame: &pfc::watchdog_resume_frame(),
        });
        if let Some(frame) = resume_next {
            self.start_tx(link_id, dir, frame);
        }
    }

    /// Put `frame` on the wire. Its delivery is fully determined here
    /// — serialization plus propagation from now — so the `Deliver`
    /// event is scheduled straight away. The completion at
    /// `busy_until` gets an event only if it has work to do: a queued
    /// successor to start, or an asserted PFC pause whose release it
    /// must check. Otherwise it is elided and settled lazily.
    fn start_tx(&mut self, link_id: LinkId, dir: Dir, frame: EthernetFrame) {
        let link = &mut self.links[link_id.0];
        let ser = link.params.serialization(&frame);
        let done_at = self.now + ser;
        let arrives_at = done_at + link.params.propagation;
        let epoch = link.epoch;
        let state = &mut link.dirs[dir.index()];
        debug_assert!(!state.transmitting, "start_tx on a busy transmitter");
        state.transmitting = true;
        state.busy_until = done_at;
        state.in_flight_len = frame.wire_len() as u32;
        state.busy = state.busy + ser;
        state.done_scheduled = !state.queue.is_empty() || state.pause_asserted;
        if state.done_scheduled {
            self.push_at(done_at, EventKind::TxDone { link: link_id, dir, epoch });
        } else if !state.listed {
            state.listed = true;
            self.unsettled.push((link_id, dir));
        }
        self.push_at(arrives_at, EventKind::Deliver { link: link_id, dir, epoch, frame });
    }

    /// A scheduled completion: free the transmitter, pull the next
    /// queued frame in, release an asserted PFC pause the queue has
    /// drained below.
    fn on_tx_done(&mut self, link_id: LinkId, dir: Dir, epoch: u64) {
        let link = &mut self.links[link_id.0];
        let state = &mut link.dirs[dir.index()];
        // Stale if the cable was cut under the frame (the cut accounted
        // for it), or if `settle` already applied this completion.
        let live = epoch == link.epoch
            && state.transmitting
            && state.done_scheduled
            && state.busy_until == self.now;
        if !live {
            return;
        }
        state.complete_tx();
        // The next frame goes out unless a pause frame halted this
        // direction (the in-flight frame always finishes; the next one
        // waits for resume).
        if !state.paused {
            if let Some(next) = state.queue.pop() {
                self.start_tx(link_id, dir, next);
            }
        }
        // PFC: a queue that drained back to the resume threshold
        // releases its asserted pause.
        let link = &mut self.links[link_id.0];
        let sender = link.sender(dir);
        let state = &mut link.dirs[dir.index()];
        if state.pause_asserted && state.queue.below_resume() {
            state.pause_asserted = false;
            self.emit_pfc(sender, PfcOp::Resume);
        }
    }

    fn on_deliver(&mut self, link_id: LinkId, dir: Dir, epoch: u64, frame: EthernetFrame) {
        let link = &self.links[link_id.0];
        if epoch != link.epoch || !link.up {
            self.stats.drops_link_down += 1;
            self.trace(TraceEvent::DropLinkDown { link: link_id, frame: &frame });
            return;
        }
        let Endpoint { node, port } = link.receiver(dir);
        self.stats.frames_delivered += 1;
        self.trace(TraceEvent::Delivered { node, port, frame: &frame });
        // PFC control frames terminate at the port: the engine pauses or
        // resumes the transmitter pointing back at the emitter, and the
        // device never sees the frame. The one exception is a shard
        // boundary stub, which must relay the frame across the cut so it
        // takes effect in the shard that owns the real transmitter.
        if let Some(op) = pfc::classify(&frame) {
            let dev = self.devices[node.0].as_ref().expect("device in deliver");
            if !dev.forwards_control_frames() {
                self.apply_pfc(node, port, op);
                return;
            }
        }
        self.dispatch(node, |dev, ctx| dev.on_frame(port, frame, ctx));
    }

    fn on_link_admin(&mut self, link_id: LinkId, up: bool) {
        if self.links[link_id.0].up == up {
            return; // idempotent
        }
        // Completions before this instant's admin tier happened on the
        // old carrier state.
        self.settle(link_id, Dir::AtoB);
        self.settle(link_id, Dir::BtoA);
        let link = &mut self.links[link_id.0];
        link.up = up;
        link.epoch += 1;
        let (a, b) = (link.a, link.b);
        if !up {
            // Drain both transmit queues: those frames are lost. Pause
            // state dies with the carrier (a re-plugged link starts
            // unpaused, like real hardware renegotiating flow control).
            let now = self.now;
            let mut release: Vec<Endpoint> = Vec::new();
            for dir in [Dir::AtoB, Dir::BtoA] {
                let sender = link.sender(dir);
                let state = &mut link.dirs[dir.index()];
                let lost = state.queue.clear() as u64;
                state.stats.dropped_link_down += lost;
                self.stats.drops_link_down += lost;
                if state.transmitting {
                    // Cut mid-serialization: the frame never completes.
                    // It is charged to this direction here; the
                    // engine-wide count and the `DropLinkDown` trace
                    // record come from its `Deliver` event, which finds
                    // the epoch changed at the would-be delivery
                    // instant.
                    state.transmitting = false;
                    state.done_scheduled = false;
                    state.stats.dropped_link_down += 1;
                }
                if state.pause_asserted {
                    state.pause_asserted = false;
                    release.push(sender);
                }
                if state.paused {
                    state.paused = false;
                    if let Some(started) = state.pause_started.take() {
                        state.stats.paused_for =
                            state.stats.paused_for + SimDuration::nanos(now.0 - started.0);
                    }
                }
            }
            // A drained queue can never cross its resume threshold, so
            // a pause this direction had asserted toward its feeders
            // would otherwise never be released — every upstream
            // transmitter would stay halted forever. Release them now,
            // out of the asserting device's other (still-cabled) ports,
            // exactly as the pause went out.
            for ep in release {
                self.emit_pfc(ep, PfcOp::Resume);
            }
        } else {
            // Re-plug: re-evaluate admission. Queues were drained at
            // cut time and pause state died with the carrier, so
            // normally nothing is pending — but any frame parked across
            // the outage must restart the transmitter here rather than
            // wait for the next send to arrive.
            for dir in [Dir::AtoB, Dir::BtoA] {
                let next = {
                    let state = &mut self.links[link_id.0].dirs[dir.index()];
                    if !state.transmitting && !state.paused {
                        state.queue.pop()
                    } else {
                        None
                    }
                };
                if let Some(frame) = next {
                    self.start_tx(link_id, dir, frame);
                }
            }
        }
        for ep in [a, b] {
            let v = &mut self.ports_up[ep.node.0];
            if v.len() <= ep.port.0 {
                v.resize(ep.port.0 + 1, false);
            }
            v[ep.port.0] = up;
        }
        self.trace(TraceEvent::LinkStatus { link: link_id, up });
        for ep in [a, b] {
            self.dispatch(ep.node, |dev, ctx| dev.on_link_status(ep.port, up, ctx));
        }
    }
}

/// What a harness needs from a running simulation, whichever engine
/// runs it: [`Network`] or the sharded [`crate::ShardedNetwork`], which
/// numbers nodes and links identically for the same scenario. Code
/// generic over `Engine` measures one scenario on both engines with one
/// implementation — and since the engines agree byte for byte, its
/// results must too.
pub trait Engine {
    /// The current instant.
    fn now(&self) -> SimTime;
    /// Run every event up to and including `until`, then set the clock
    /// to `until`.
    fn run_until(&mut self, until: SimTime);
    /// Engine-wide counters.
    fn stats(&self) -> NetworkStats;
    /// Typed access to a device.
    ///
    /// # Panics
    /// If `node` does not hold a `T`.
    fn device<T: 'static>(&self, node: NodeId) -> &T;
    /// A link's two endpoints.
    fn link_endpoints(&self, id: LinkId) -> (Endpoint, Endpoint);
    /// Transmit counters of one direction of a link.
    fn link_stats(&self, id: LinkId, dir: Dir) -> DirStats;
    /// Accumulated pause-halt time of one direction of a link as of
    /// `now`, a still-open pause included (see [`Link::paused_for`]).
    fn link_paused_for(&self, id: LinkId, dir: Dir, now: SimTime) -> SimDuration;
    /// Schedule a cable cut at `at`.
    fn schedule_link_down(&mut self, link: LinkId, at: SimTime);
    /// Schedule a cable re-plug at `at`.
    fn schedule_link_up(&mut self, link: LinkId, at: SimTime);
    /// The canonical delivery trace: one line per frame delivery, in
    /// `(time, node, port, length, digest)` order — byte-for-byte equal
    /// across engines on the same scenario. Empty unless the builder
    /// recorded it.
    fn delivery_trace(&self) -> Vec<String>;
}

impl Engine for Network {
    fn now(&self) -> SimTime {
        Network::now(self)
    }

    fn run_until(&mut self, until: SimTime) {
        Network::run_until(self, until)
    }

    fn stats(&self) -> NetworkStats {
        Network::stats(self)
    }

    fn device<T: 'static>(&self, node: NodeId) -> &T {
        Network::device(self, node)
    }

    fn link_endpoints(&self, id: LinkId) -> (Endpoint, Endpoint) {
        let link = self.link(id);
        (link.a, link.b)
    }

    fn link_stats(&self, id: LinkId, dir: Dir) -> DirStats {
        self.link(id).stats(dir)
    }

    fn link_paused_for(&self, id: LinkId, dir: Dir, now: SimTime) -> SimDuration {
        self.link(id).paused_for(dir, now)
    }

    fn schedule_link_down(&mut self, link: LinkId, at: SimTime) {
        Network::schedule_link_down(self, link, at)
    }

    fn schedule_link_up(&mut self, link: LinkId, at: SimTime) {
        Network::schedule_link_up(self, link, at)
    }

    /// Empty unless [`NetworkBuilder::record_delivery_trace`] was on.
    fn delivery_trace(&self) -> Vec<String> {
        DeliveryTracer::render_sorted(self.delivery_records())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::QueuePolicy;
    use crate::trace::{CollectingTracer, CountingTracer};
    use arppath_wire::{ArpPacket, MacAddr};
    use std::net::Ipv4Addr;

    /// A device that records everything it hears and can be told to
    /// echo frames back out of the ingress port.
    struct Probe {
        name: String,
        echo: bool,
        heard: Vec<(SimTime, PortNo, EthernetFrame)>,
        link_events: Vec<(PortNo, bool)>,
        timer_fires: Vec<TimerToken>,
    }

    impl Probe {
        fn new(name: &str, echo: bool) -> Self {
            Probe {
                name: name.into(),
                echo,
                heard: Vec::new(),
                link_events: Vec::new(),
                timer_fires: Vec::new(),
            }
        }
    }

    impl Device for Probe {
        fn name(&self) -> &str {
            &self.name
        }
        fn on_frame(&mut self, port: PortNo, frame: EthernetFrame, ctx: &mut Ctx) {
            self.heard.push((ctx.now(), port, frame.clone()));
            if self.echo {
                ctx.send(port, frame);
            }
        }
        fn on_timer(&mut self, token: TimerToken, _ctx: &mut Ctx) {
            self.timer_fires.push(token);
        }
        fn on_link_status(&mut self, port: PortNo, up: bool, _ctx: &mut Ctx) {
            self.link_events.push((port, up));
        }
    }

    /// A device that sends `count` frames back-to-back at start.
    struct Blaster {
        name: String,
        count: usize,
    }

    impl Device for Blaster {
        fn name(&self) -> &str {
            &self.name
        }
        fn on_start(&mut self, ctx: &mut Ctx) {
            for _ in 0..self.count {
                ctx.send(PortNo(0), test_frame());
            }
        }
        fn on_frame(&mut self, _: PortNo, _: EthernetFrame, _: &mut Ctx) {}
    }

    fn test_frame() -> EthernetFrame {
        EthernetFrame::arp_request(
            MacAddr::from_index(1, 1),
            ArpPacket::request(
                MacAddr::from_index(1, 1),
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
            ),
        )
    }

    fn two_probes(echo_b: bool, params: LinkParams) -> (Network, NodeId, NodeId, LinkId) {
        let mut b = NetworkBuilder::new();
        let na = b.add(Box::new(Probe::new("a", false)));
        let nb = b.add(Box::new(Probe::new("b", echo_b)));
        let l = b.link(na, 0, nb, 0, params);
        (b.build(), na, nb, l)
    }

    #[test]
    fn delivery_time_is_exact() {
        let params = LinkParams {
            bandwidth_bps: 1_000_000_000,
            propagation: SimDuration::micros(1),
            queue: QueuePolicy::drop_tail(1 << 20),
            ..Default::default()
        };
        let mut b = NetworkBuilder::new();
        let tx = b.add(Box::new(Blaster { name: "tx".into(), count: 1 }));
        let rx = b.add(Box::new(Probe::new("rx", false)));
        b.link(tx, 0, rx, 0, params);
        let mut net = b.build();
        net.run_until_idle(SimTime(u64::MAX));
        let probe = net.device::<Probe>(rx);
        assert_eq!(probe.heard.len(), 1);
        // 672 ns serialization + 1000 ns propagation.
        assert_eq!(probe.heard[0].0, SimTime(1672));
    }

    #[test]
    fn back_to_back_frames_queue_behind_each_other() {
        let params = LinkParams {
            bandwidth_bps: 1_000_000_000,
            propagation: SimDuration::ZERO,
            queue: QueuePolicy::drop_tail(1 << 20),
            ..Default::default()
        };
        let mut b = NetworkBuilder::new();
        let tx = b.add(Box::new(Blaster { name: "tx".into(), count: 3 }));
        let rx = b.add(Box::new(Probe::new("rx", false)));
        b.link(tx, 0, rx, 0, params);
        let mut net = b.build();
        net.run_until_idle(SimTime(u64::MAX));
        let probe = net.device::<Probe>(rx);
        let times: Vec<u64> = probe.heard.iter().map(|(t, _, _)| t.as_nanos()).collect();
        // Each min-size frame occupies 672 ns of line time.
        assert_eq!(times, vec![672, 1344, 2016]);
    }

    #[test]
    fn queue_overflow_drops_tail() {
        // Queue sized for exactly one spare frame behind the one in
        // flight: the third back-to-back send must drop.
        let params = LinkParams {
            bandwidth_bps: 1_000_000_000,
            propagation: SimDuration::ZERO,
            queue: QueuePolicy::drop_tail(60),
            ..Default::default()
        };
        let mut b = NetworkBuilder::new();
        let tx = b.add(Box::new(Blaster { name: "tx".into(), count: 3 }));
        let rx = b.add(Box::new(Probe::new("rx", false)));
        b.link(tx, 0, rx, 0, params);
        let mut net = b.build();
        net.run_until_idle(SimTime(u64::MAX));
        assert_eq!(net.stats().drops_queue_full, 1);
        assert_eq!(net.device::<Probe>(rx).heard.len(), 2);
    }

    #[test]
    fn echo_round_trip() {
        let params = LinkParams {
            bandwidth_bps: 1_000_000_000,
            propagation: SimDuration::micros(5),
            queue: QueuePolicy::drop_tail(1 << 20),
            ..Default::default()
        };
        let mut b = NetworkBuilder::new();
        let tx = b.add(Box::new(Blaster { name: "tx".into(), count: 1 }));
        let rx = b.add(Box::new(Probe::new("rx", true)));
        b.link(tx, 0, rx, 0, params);
        let mut net = b.build();
        // tx is a Blaster: it ignores received frames, but the engine
        // still counts the delivery.
        net.run_until_idle(SimTime(u64::MAX));
        assert_eq!(net.stats().frames_delivered, 2);
        // one way: 672 + 5000; echo adds another 672 + 5000.
        assert_eq!(net.now(), SimTime(2 * 5672));
    }

    #[test]
    fn link_down_loses_in_flight_frames_and_notifies_endpoints() {
        let params = LinkParams {
            bandwidth_bps: 1_000_000_000,
            propagation: SimDuration::millis(1),
            queue: QueuePolicy::drop_tail(1 << 20),
            ..Default::default()
        };
        let mut b = NetworkBuilder::new();
        let tx = b.add(Box::new(Blaster { name: "tx".into(), count: 1 }));
        let rx = b.add(Box::new(Probe::new("rx", false)));
        let l = b.link(tx, 0, rx, 0, params);
        let mut net = b.build();
        // Cut the cable while the frame is propagating.
        net.schedule_link_down(l, SimTime(700 + 100));
        net.run_until_idle(SimTime(u64::MAX));
        assert_eq!(net.device::<Probe>(rx).heard.len(), 0, "frame must be lost");
        assert_eq!(net.stats().drops_link_down, 1);
        assert_eq!(net.device::<Probe>(rx).link_events, vec![(PortNo(0), false)]);
    }

    #[test]
    fn link_up_down_is_idempotent_and_recovers() {
        let (mut net, _, nb, l) = two_probes(false, LinkParams::default());
        net.schedule_link_down(l, SimTime(10));
        net.schedule_link_down(l, SimTime(20)); // duplicate: no second event
        net.schedule_link_up(l, SimTime(30));
        net.run_until_idle(SimTime(u64::MAX));
        let probe = net.device::<Probe>(nb);
        assert_eq!(probe.link_events, vec![(PortNo(0), false), (PortNo(0), true)]);
        assert!(net.link(l).up);
    }

    #[test]
    fn sends_on_down_link_are_counted() {
        let params = LinkParams::default();
        let mut b = NetworkBuilder::new();
        let tx = b.add(Box::new(Probe::new("tx", true))); // echoes what it hears
        let rx = b.add(Box::new(Probe::new("rx", false)));
        let l = b.link(tx, 0, rx, 0, params);
        let mut net = b.build();
        net.schedule_link_down(l, SimTime(0));
        net.run_until_idle(SimTime(u64::MAX));
        // Now inject a frame into tx; its echo goes into a dead port.
        net.inject(tx, PortNo(0), test_frame());
        net.run_until_idle(SimTime(u64::MAX));
        assert_eq!(net.stats().drops_link_down, 1);
        assert_eq!(net.device::<Probe>(rx).heard.len(), 0);
    }

    #[test]
    fn send_into_uncabled_port_is_counted_not_fatal() {
        let mut b = NetworkBuilder::new();
        let tx = b.add(Box::new(Blaster { name: "tx".into(), count: 1 }));
        let mut net = b.build();
        let _ = tx;
        net.run_until_idle(SimTime(u64::MAX));
        assert_eq!(net.stats().drops_no_cable, 1);
    }

    #[test]
    fn timers_fire_in_order_with_fifo_tiebreak() {
        struct TimerDev {
            fired: Vec<u64>,
        }
        impl Device for TimerDev {
            fn name(&self) -> &str {
                "timers"
            }
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.schedule(SimDuration::millis(2), TimerToken(2));
                ctx.schedule(SimDuration::millis(1), TimerToken(1));
                ctx.schedule(SimDuration::millis(2), TimerToken(3)); // same time as token 2
            }
            fn on_frame(&mut self, _: PortNo, _: EthernetFrame, _: &mut Ctx) {}
            fn on_timer(&mut self, token: TimerToken, _: &mut Ctx) {
                self.fired.push(token.0);
            }
        }
        let mut b = NetworkBuilder::new();
        let n = b.add(Box::new(TimerDev { fired: Vec::new() }));
        let mut net = b.build();
        net.run_until_idle(SimTime(u64::MAX));
        assert_eq!(net.device::<TimerDev>(n).fired, vec![1, 2, 3]);
    }

    #[test]
    fn run_until_stops_at_boundary() {
        let mut b = NetworkBuilder::new();
        let _ = b.add(Box::new(Blaster { name: "tx".into(), count: 1 }));
        let mut net = b.build();
        net.run_until(SimTime(50));
        assert_eq!(net.now(), SimTime(50));
    }

    #[test]
    fn identical_scenarios_produce_identical_traces() {
        let run = || {
            let params = LinkParams::default();
            let mut b = NetworkBuilder::new();
            let tx = b.add(Box::new(Blaster { name: "tx".into(), count: 5 }));
            let rx = b.add(Box::new(Probe::new("rx", true)));
            b.link(tx, 0, rx, 0, params);
            let mut net = b.build();
            let sink = std::sync::Arc::new(std::sync::Mutex::new(CollectingTracer::default()));
            net.set_tracer(Box::new(sink.clone()));
            net.run_until_idle(SimTime(u64::MAX));
            let lines = sink.lock().unwrap().lines.clone();
            lines
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn counting_tracer_sees_sends_and_deliveries() {
        let mut b = NetworkBuilder::new();
        let tx = b.add(Box::new(Blaster { name: "tx".into(), count: 2 }));
        let rx = b.add(Box::new(Probe::new("rx", false)));
        b.link(tx, 0, rx, 0, LinkParams::default());
        let sink = std::sync::Arc::new(std::sync::Mutex::new(CountingTracer::default()));
        // Installed pre-build so the Blaster's on_start sends are seen.
        b.set_tracer(Box::new(sink.clone()));
        let mut net = b.build();
        net.run_until_idle(SimTime(u64::MAX));
        assert_eq!(sink.lock().unwrap().sent, 2);
        assert_eq!(sink.lock().unwrap().delivered, 2);
    }

    #[test]
    #[should_panic(expected = "already cabled")]
    fn double_cabling_a_port_panics() {
        let mut b = NetworkBuilder::new();
        let x = b.add(Box::new(Probe::new("x", false)));
        let y = b.add(Box::new(Probe::new("y", false)));
        let z = b.add(Box::new(Probe::new("z", false)));
        b.link(x, 0, y, 0, LinkParams::default());
        b.link(x, 0, z, 0, LinkParams::default());
    }

    /// A two-port device that relays port 0 → port 1 (and back).
    struct Forwarder {
        name: String,
    }

    impl Device for Forwarder {
        fn name(&self) -> &str {
            &self.name
        }
        fn on_frame(&mut self, port: PortNo, frame: EthernetFrame, ctx: &mut Ctx) {
            ctx.send(PortNo(1 - port.0), frame);
        }
    }

    #[test]
    fn infinite_queue_absorbs_any_burst() {
        // The default policy is Infinite: a burst far beyond any
        // plausible cap is fully delivered with zero drops.
        let mut b = NetworkBuilder::new();
        let tx = b.add(Box::new(Blaster { name: "tx".into(), count: 500 }));
        let rx = b.add(Box::new(Probe::new("rx", false)));
        b.link(tx, 0, rx, 0, LinkParams::default());
        let mut net = b.build();
        net.run_until_idle(SimTime(u64::MAX));
        assert_eq!(net.stats().drops_queue_full, 0);
        assert_eq!(net.device::<Probe>(rx).heard.len(), 500);
    }

    #[test]
    fn pfc_backpressure_is_lossless_and_accounted() {
        // Fast ingress into a slow PFC-guarded egress: the forwarder's
        // egress queue crosses the pause threshold, a pause frame
        // propagates back to the sender, the sender's transmitter
        // stalls (losslessly — its own queue is infinite), and resume
        // frames restart it as the slow port drains. Every frame must
        // arrive, with zero drops and nonzero pause accounting.
        let fast = LinkParams {
            bandwidth_bps: 1_000_000_000,
            propagation: SimDuration::ZERO,
            queue: QueuePolicy::Infinite,
            ..Default::default()
        };
        let slow = LinkParams {
            bandwidth_bps: 10_000_000,
            propagation: SimDuration::ZERO,
            queue: QueuePolicy::pfc(150), // pause at ≥150 B, resume at ≤75 B
            ..Default::default()
        };
        let mut b = NetworkBuilder::new();
        let tx = b.add(Box::new(Blaster { name: "tx".into(), count: 20 }));
        let fwd = b.add(Box::new(Forwarder { name: "fwd".into() }));
        let rx = b.add(Box::new(Probe::new("rx", false)));
        let l_fast = b.link(tx, 0, fwd, 0, fast);
        b.link(fwd, 1, rx, 0, slow);
        let mut net = b.build();
        net.run_until_idle(SimTime(u64::MAX));
        assert_eq!(net.device::<Probe>(rx).heard.len(), 20, "PFC must be lossless");
        assert_eq!(net.stats().drops_queue_full, 0);
        // The paused transmitter is tx's side of the fast link.
        let s = net.link(l_fast).stats(Dir::AtoB);
        assert!(s.pause_events >= 1, "sender must have been paused");
        assert!(s.paused_for > SimDuration::ZERO, "pause time must be accounted");
        assert!(!net.link(l_fast).is_paused(Dir::AtoB), "drained fabric is unpaused");
    }

    #[test]
    fn pause_frames_are_intercepted_not_delivered_to_devices() {
        let (mut net, _na, nb, l) = two_probes(false, LinkParams::default());
        // A pause frame arriving at b's port 0 must pause b's own
        // transmitter on that link and never reach the device.
        net.inject(nb, PortNo(0), crate::pfc::pause_frame());
        net.run_until_idle(SimTime(u64::MAX));
        assert!(net.link(l).is_paused(Dir::BtoA));
        assert_eq!(net.device::<Probe>(nb).heard.len(), 0);
        // Resume releases it and closes the pause-time accounting.
        net.inject(nb, PortNo(0), crate::pfc::resume_frame());
        net.run_until_idle(SimTime(u64::MAX));
        assert!(!net.link(l).is_paused(Dir::BtoA));
        assert_eq!(net.link(l).stats(Dir::BtoA).pause_events, 1);
    }

    #[test]
    fn watchdog_force_resume_breaks_a_stuck_pause() {
        // A pause with no matching resume — the essence of the E9
        // deadlock, minus the cycle. The watchdog must fire once at
        // exactly the deadline, restart the transmitter, and deliver
        // everything that was parked behind the pause.
        let params = LinkParams::default()
            .with_watchdog(PauseWatchdog::force_resume(SimDuration::millis(1)));
        let mut b = NetworkBuilder::new();
        let tx = b.add(Box::new(Blaster { name: "tx".into(), count: 5 }));
        let rx = b.add(Box::new(Probe::new("rx", false)));
        let l = b.link(tx, 0, rx, 0, params);
        let mut net = b.build();
        // The blaster's burst is in the transmitter; halt it with a
        // pause that nobody will ever release.
        net.inject(tx, PortNo(0), crate::pfc::pause_frame());
        net.run_until_idle(SimTime(u64::MAX));
        assert_eq!(net.device::<Probe>(rx).heard.len(), 5, "parked frames must drain");
        assert_eq!(net.stats().watchdog_fires, 1);
        assert_eq!(net.stats().drops_watchdog, 0, "forced resume is lossless");
        let s = net.link(l).stats(Dir::AtoB);
        assert_eq!(s.watchdog_fires, 1);
        assert!(!net.link(l).is_paused(Dir::AtoB));
        // Pause accounting closes at the fire: the full deadline, no more.
        assert_eq!(s.paused_for, SimDuration::millis(1));
    }

    #[test]
    fn watchdog_drain_and_drop_discards_the_stuck_queue() {
        let params = LinkParams::default()
            .with_watchdog(PauseWatchdog::DrainAndDrop { deadline: SimDuration::millis(1) });
        let mut b = NetworkBuilder::new();
        let tx = b.add(Box::new(Blaster { name: "tx".into(), count: 5 }));
        let rx = b.add(Box::new(Probe::new("rx", false)));
        let l = b.link(tx, 0, rx, 0, params);
        let mut net = b.build();
        // One frame is already serializing (it always completes); the
        // other four are queued behind the pause and get discarded.
        net.inject(tx, PortNo(0), crate::pfc::pause_frame());
        net.run_until_idle(SimTime(u64::MAX));
        assert_eq!(net.device::<Probe>(rx).heard.len(), 1);
        assert_eq!(net.stats().watchdog_fires, 1);
        assert_eq!(net.stats().drops_watchdog, 4);
        assert_eq!(net.link(l).stats(Dir::AtoB).dropped_watchdog, 4);
        assert!(!net.link(l).is_paused(Dir::AtoB));
    }

    #[test]
    fn watchdog_ignores_released_and_replaced_pauses() {
        // No false positives: a pause released before the deadline must
        // not fire, and a *stale* deadline must not break a younger
        // pause that replaced the one it was armed for.
        let params = LinkParams::default()
            .with_watchdog(PauseWatchdog::force_resume(SimDuration::millis(1)));
        let (mut net, _na, nb, l) = two_probes(false, params);
        net.inject(nb, PortNo(0), crate::pfc::pause_frame());
        net.inject(nb, PortNo(0), crate::pfc::resume_frame());
        // Half a deadline later, a second pause arrives (generation 2).
        net.run_until(SimTime(SimDuration::micros(500).as_nanos()));
        net.inject(nb, PortNo(0), crate::pfc::pause_frame());
        // The generation-1 deadline passes: the generation-2 pause must
        // survive it untouched.
        net.run_until(SimTime(SimDuration::micros(1200).as_nanos()));
        assert!(net.link(l).is_paused(Dir::BtoA), "stale fire must not release a younger pause");
        assert_eq!(net.stats().watchdog_fires, 0);
        // The generation-2 deadline is real, though.
        net.run_until_idle(SimTime(u64::MAX));
        assert!(!net.link(l).is_paused(Dir::BtoA));
        assert_eq!(net.stats().watchdog_fires, 1);
    }

    #[test]
    fn link_down_releases_pauses_asserted_toward_feeders() {
        // Regression: the congested forwarder has paused its feeder;
        // then the congested egress link is cut. Its queue is drained,
        // so it can never cross the resume threshold — before the fix
        // the feeder stayed paused forever (run_until_idle returns with
        // the fabric wedged: a paused transmitter holds no events).
        let fast = LinkParams {
            bandwidth_bps: 1_000_000_000,
            propagation: SimDuration::ZERO,
            queue: QueuePolicy::Infinite,
            ..Default::default()
        };
        let slow = LinkParams {
            bandwidth_bps: 10_000_000,
            propagation: SimDuration::ZERO,
            queue: QueuePolicy::pfc(150),
            ..Default::default()
        };
        let mut b = NetworkBuilder::new();
        let tx = b.add(Box::new(Blaster { name: "tx".into(), count: 20 }));
        let fwd = b.add(Box::new(Forwarder { name: "fwd".into() }));
        let rx = b.add(Box::new(Probe::new("rx", false)));
        let l_fast = b.link(tx, 0, fwd, 0, fast);
        let l_slow = b.link(fwd, 1, rx, 0, slow);
        let mut net = b.build();
        // 100 µs in, the slow egress is congested and tx is paused.
        net.schedule_link_down(l_slow, SimTime(SimDuration::micros(100).as_nanos()));
        net.run_until(SimTime(SimDuration::micros(99).as_nanos()));
        assert!(net.link(l_fast).is_paused(Dir::AtoB), "precondition: feeder is paused");
        net.run_until_idle(SimTime(u64::MAX));
        assert!(!net.link(l_fast).is_paused(Dir::AtoB), "cutting the egress must release it");
        assert_eq!(
            net.link(l_fast).stats(Dir::AtoB).tx_frames,
            20,
            "every parked frame must leave the feeder after the release"
        );
    }

    #[test]
    fn inject_respects_down_links() {
        // Regression: `inject`/`inject_at` used to deliver regardless
        // of the destination port's link state. A frame injected at a
        // port whose cable is down must be dropped and counted.
        let (mut net, _na, nb, l) = two_probes(false, LinkParams::default());
        net.schedule_link_down(l, SimTime(0));
        net.run_until_idle(SimTime(u64::MAX));
        net.inject(nb, PortNo(0), test_frame());
        net.run_until_idle(SimTime(u64::MAX));
        assert_eq!(net.device::<Probe>(nb).heard.len(), 0);
        assert_eq!(net.stats().drops_link_down, 1);
        assert_eq!(net.stats().frames_delivered, 0);
    }

    #[test]
    fn link_stats_accumulate() {
        let mut b = NetworkBuilder::new();
        let tx = b.add(Box::new(Blaster { name: "tx".into(), count: 4 }));
        let rx = b.add(Box::new(Probe::new("rx", false)));
        let l = b.link(tx, 0, rx, 0, LinkParams::default());
        let mut net = b.build();
        net.run_until_idle(SimTime(u64::MAX));
        let s = net.link(l).stats(Dir::AtoB);
        assert_eq!(s.tx_frames, 4);
        assert_eq!(s.tx_bytes, 4 * 60);
        assert_eq!(s.busy, SimDuration::nanos(4 * 672));
        assert_eq!(net.link(l).total_tx_frames(), 4);
    }

    // ---- elided transmit completions: the corners of the settle rule ----

    /// Sends a frame out of port `out` at each scripted instant and, if
    /// `relay`, on every arrival; logs arrivals and timer fires in the
    /// order they happen.
    struct Scripted {
        out: usize,
        sends_at: Vec<u64>,
        relay: bool,
        log: Vec<(u64, &'static str)>,
    }

    impl Scripted {
        fn new(out: usize, sends_at: &[u64], relay: bool) -> Box<Self> {
            Box::new(Scripted { out, sends_at: sends_at.to_vec(), relay, log: Vec::new() })
        }
    }

    impl Device for Scripted {
        fn name(&self) -> &str {
            "scripted"
        }
        fn on_start(&mut self, ctx: &mut Ctx) {
            for (i, &at) in self.sends_at.iter().enumerate() {
                ctx.schedule(SimDuration::nanos(at), TimerToken(i as u64));
            }
        }
        fn on_frame(&mut self, _: PortNo, frame: EthernetFrame, ctx: &mut Ctx) {
            self.log.push((ctx.now().as_nanos(), "frame"));
            if self.relay {
                ctx.send(PortNo(self.out), frame);
            }
        }
        fn on_timer(&mut self, _: TimerToken, ctx: &mut Ctx) {
            self.log.push((ctx.now().as_nanos(), "timer"));
            ctx.send(PortNo(self.out), test_frame());
        }
    }

    /// feeder ─(10 Gbit/s, 605 ns)→ relay ─(1 Gbit/s, 500 ns, `egress`)→ sink.
    /// A minimum frame the feeder sends at t = 0 reaches the relay at
    /// 67 + 605 = 672 ns: exactly when a frame the relay put on its
    /// egress at t = 0 finishes serializing.
    fn relay_chain(
        feeder_sends: &[u64],
        relay_sends: &[u64],
        egress: QueuePolicy,
    ) -> (Network, NodeId, LinkId) {
        let fast = LinkParams {
            bandwidth_bps: 10_000_000_000,
            propagation: SimDuration::nanos(605),
            ..Default::default()
        };
        let mut b = NetworkBuilder::new();
        let feeder = b.add(Scripted::new(0, feeder_sends, false));
        let relay = b.add(Scripted::new(1, relay_sends, true));
        let sink = b.add(Scripted::new(0, &[], false));
        b.link(feeder, 0, relay, 0, fast);
        let out = b.link(relay, 1, sink, 0, LinkParams::default().with_queue(egress));
        (b.build(), sink, out)
    }

    fn heard_at(net: &Network, node: NodeId) -> Vec<u64> {
        net.device::<Scripted>(node).log.iter().map(|&(at, _)| at).collect()
    }

    #[test]
    fn send_at_busy_until_queues_from_an_arrival_but_starts_from_a_timer() {
        // Arrivals sort before transmit completions within an instant,
        // timers after. So a relay whose egress completes at 672 ns
        // finds it *busy* when an arrival at 672 makes it send (the
        // frame queues, and starts in that same instant), but *idle*
        // when its own timer at 672 does. Same wire timing either way;
        // the difference shows in the queue's high-water mark...
        for (feeder, relay, peak) in [(&[0u64][..], &[0u64][..], 60), (&[], &[0, 672], 0)] {
            let (mut net, sink, out) = relay_chain(feeder, relay, QueuePolicy::Infinite);
            net.run_until_idle(SimTime(u64::MAX));
            assert_eq!(heard_at(&net, sink), vec![1172, 1844]);
            let s = net.link(out).stats(Dir::AtoB);
            assert_eq!((s.tx_frames, s.peak_queue_bytes), (2, peak));
        }
        // ...and in drop-tail admission: a queue too small for one
        // frame refuses the arrival's send and never sees the timer's.
        for (feeder, relay, drops) in [(&[0u64][..], &[0u64][..], 1), (&[], &[0, 672], 0)] {
            let (mut net, sink, _) = relay_chain(feeder, relay, QueuePolicy::drop_tail(59));
            net.run_until_idle(SimTime(u64::MAX));
            assert_eq!(net.stats().drops_queue_full, drops);
            assert_eq!(heard_at(&net, sink).len(), 2 - drops as usize);
        }
    }

    #[test]
    fn completion_scheduled_late_is_applied_before_a_same_instant_timer_reads_it() {
        // Both at once: the arrival at 672 queues a frame behind the
        // completing one — only now does that completion get an event,
        // at the instant already being drained — and the relay's timer
        // at 672 sends a third. The timer sorts after the completion,
        // so it must see the queued frame already started: a queue
        // that fits exactly one frame admits both.
        let (mut net, sink, out) = relay_chain(&[0], &[0, 672], QueuePolicy::drop_tail(60));
        net.run_until_idle(SimTime(u64::MAX));
        assert_eq!(net.stats().drops_queue_full, 0);
        assert_eq!(heard_at(&net, sink), vec![1172, 1844, 2516]);
        assert_eq!(net.link(out).stats(Dir::AtoB).peak_queue_bytes, 60);
    }

    /// One scripted sender on a default link (672 ns serialization,
    /// 500 ns propagation) into a logging sink.
    fn scripted_pair(sends_at: &[u64], params: LinkParams) -> (Network, NodeId, NodeId, LinkId) {
        let mut b = NetworkBuilder::new();
        let tx = b.add(Scripted::new(0, sends_at, false));
        let rx = b.add(Scripted::new(0, &[], false));
        let l = b.link(tx, 0, rx, 0, params);
        (b.build(), tx, rx, l)
    }

    #[test]
    fn pause_mid_serialization_then_resume_with_an_elided_completion() {
        // A lone frame's completion has no event. A pause lands while
        // it serializes; one frame is sent behind it mid-flight (which
        // gives the completion an event after all), one after it is
        // done (which finds the transmitter idle but paused). Resume
        // must restart the line with both, in order.
        let (mut net, tx, rx, l) = scripted_pair(&[0, 300, 1000], LinkParams::default());
        net.inject_at(SimTime(100), tx, PortNo(0), crate::pfc::pause_frame());
        net.inject_at(SimTime(2000), tx, PortNo(0), crate::pfc::resume_frame());
        net.run_until(SimTime(1999));
        assert_eq!(heard_at(&net, rx), vec![1172], "the in-flight frame always finishes");
        assert_eq!(net.link(l).queue_depth(Dir::AtoB).0, 2);
        net.run_until_idle(SimTime(u64::MAX));
        assert_eq!(heard_at(&net, rx), vec![1172, 2000 + 1172, 2672 + 1172]);
        let s = net.link(l).stats(Dir::AtoB);
        assert_eq!((s.tx_frames, s.pause_events), (3, 1));
        assert_eq!(s.paused_for, SimDuration::nanos(1900));
    }

    #[test]
    fn watchdog_force_resume_on_an_elided_completion() {
        // As above, but nobody resumes: the watchdog fires one deadline
        // after the pause and must find the transmitter idle — its
        // completion was never an event — to restart it.
        let params = LinkParams::default()
            .with_watchdog(PauseWatchdog::force_resume(SimDuration::millis(1)));
        let (mut net, tx, rx, l) = scripted_pair(&[0, 1000], params);
        net.inject_at(SimTime(100), tx, PortNo(0), crate::pfc::pause_frame());
        net.run_until_idle(SimTime(u64::MAX));
        assert_eq!(heard_at(&net, rx), vec![1172, 1_000_100 + 1172]);
        assert_eq!(net.stats().watchdog_fires, 1);
        assert_eq!(net.link(l).stats(Dir::AtoB).tx_frames, 2);
    }

    #[test]
    fn link_cut_mid_serialization_is_charged_once_and_never_credited() {
        // Cut at 300 ns, 372 ns before the last bit would have left.
        // The frame is lost: charged to its direction at the cut and to
        // the engine-wide counter when its delivery finds the carrier
        // gone — at 1172 ns, the would-be delivery instant, which is
        // where the `DropLinkDown` trace record now sits (the eager
        // engine put it at 672 ns, the would-be completion). No
        // transmit credit. Both drop counters are exact at any run
        // boundary past that instant.
        let (mut net, _tx, rx, l) = scripted_pair(&[0], LinkParams::default());
        let sink = std::sync::Arc::new(std::sync::Mutex::new(CollectingTracer::default()));
        net.set_tracer(Box::new(sink.clone()));
        net.schedule_link_down(l, SimTime(300));
        net.run_until(SimTime(1172));
        assert_eq!(heard_at(&net, rx), Vec::<u64>::new());
        let s = net.link(l).stats(Dir::AtoB);
        assert_eq!((s.tx_frames, s.tx_bytes, s.dropped_link_down), (0, 0, 1));
        assert_eq!(net.stats().drops_link_down, 1);
        let lines = sink.lock().unwrap().lines.clone();
        let drops: Vec<_> = lines.iter().filter(|l| l.contains("DROP")).collect();
        assert_eq!(drops.len(), 1, "one loss, one record: {lines:?}");
        assert!(drops[0].starts_with("t=1.172us "), "not at the would-be delivery: {}", drops[0]);

        // A cut at exactly the completion instant comes after it
        // (admin events sort last): the frame was fully transmitted —
        // credited — and is lost in propagation instead.
        let (mut net, _tx, rx, l) = scripted_pair(&[0], LinkParams::default());
        net.schedule_link_down(l, SimTime(672));
        net.run_until_idle(SimTime(u64::MAX));
        assert_eq!(heard_at(&net, rx), Vec::<u64>::new());
        let s = net.link(l).stats(Dir::AtoB);
        assert_eq!((s.tx_frames, s.dropped_link_down), (1, 0));
        assert_eq!(net.stats().drops_link_down, 1);
    }

    #[test]
    fn run_boundaries_settle_exactly_the_completions_before_them() {
        // One frame, serializing over (0, 672]: a run that stops inside
        // shows no transmit credit, one that stops at or after the last
        // bit shows it — though no event exists at 672 ns.
        for (until, frames) in [(671, 0), (672, 1), (5000, 1)] {
            let (mut net, _, _, l) = scripted_pair(&[0], LinkParams::default());
            net.run_until(SimTime(until));
            let s = net.link(l).stats(Dir::AtoB);
            assert_eq!((s.tx_frames, s.tx_bytes), (frames, frames * 60), "run_until({until})");
            assert_eq!(s.busy, SimDuration::nanos(672), "busy time is booked at transmit start");
        }
        // Single-stepping settles too: the timer at 0, then the delivery.
        let (mut net, _, _, l) = scripted_pair(&[0], LinkParams::default());
        assert_eq!(net.step(), Some(SimTime(0)));
        assert_eq!(net.link(l).stats(Dir::AtoB).tx_frames, 0);
        assert_eq!(net.step(), Some(SimTime(1172)));
        assert_eq!(net.link(l).stats(Dir::AtoB).tx_frames, 1);
        assert_eq!(net.stats().events, 2, "one event per hop, plus the timer");
    }

    #[test]
    fn zero_propagation_link_delivers_in_the_arrival_tier() {
        // With no propagation the delivery shares its instant with the
        // completion. It is an arrival like any other: it runs before
        // the receiver's timer at that instant, not after it in a
        // follow-up batch (as it did when the completion event pushed
        // it).
        let params = LinkParams { propagation: SimDuration::ZERO, ..Default::default() };
        let mut b = NetworkBuilder::new();
        let tx = b.add(Scripted::new(0, &[0], false));
        let rx = b.add(Scripted::new(1, &[672], false));
        b.link(tx, 0, rx, 0, params);
        let mut net = b.build();
        net.run_until_idle(SimTime(u64::MAX));
        assert_eq!(net.device::<Scripted>(rx).log, vec![(672, "frame"), (672, "timer")]);
    }
}
