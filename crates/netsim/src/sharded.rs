//! Sharded parallel simulation: the network partitioned across worker
//! threads, synchronized by **conservative lookahead** on link delays.
//!
//! # Design
//!
//! The single-threaded [`crate::Network`] processes one global event
//! heap. This module splits the device graph into `N` shards, each a
//! complete `Network` of its own (own heap, own clock, own links), and
//! runs them on scoped worker threads in lock-step *windows* — the
//! Chandy–Misra–Bryant discipline specialized to fixed link delays:
//!
//! 1. Every link whose two endpoints land in different shards is cut
//!    in half. The **sender-side half** keeps the link's bandwidth and
//!    queue (serialization and queueing depend only on sender-side
//!    state) but drops the propagation term
//!    ([`LinkParams::without_propagation`]); it terminates in a
//!    *boundary stub* device inside the sender's shard.
//! 2. When a frame finishes serializing, the stub receives it at
//!    exactly its `TxDone` instant and queues the typed
//!    [`EthernetFrame`] itself, with its delivery time (`TxDone` +
//!    propagation), in its shard's outbox. Nothing is encoded: the
//!    destination shard schedules the very object the single engine
//!    would have delivered, with [`Network::inject_at`].
//! 3. The **lookahead matrix** holds, per ordered shard pair `(s, d)`,
//!    the minimum propagation delay over cut links that can carry a
//!    frame from `s` to `d` (`∞` when no cut joins the pair). Shard
//!    `j` cannot *act* before `eff(j)` — the earlier of its own next
//!    event and the earliest boundary frame deposited for it — and
//!    cannot *react* to this window's traffic before the global floor
//!    `W` plus its cheapest incoming cut `in(j)`. So nothing from `j`
//!    reaches `i` before `min(eff(j), W + in(j)) + pair[j][i]`, and
//!    shard `i`'s *horizon* is the minimum of that bound over the
//!    neighbours that can actually reach it (null-message style: an
//!    idle or unreachable pair stops bounding a busy one). Collapsing
//!    every pair to the global minimum `L` recovers the global
//!    window `min(min_other, W + L) + L`, which the horizon property tests
//!    keep as their oracle. The **exchange barrier** is the only
//!    channel between shards: at each round every worker publishes its
//!    next-event time and deposits the boundary frames its last window
//!    produced, the last arriver computes every horizon once, and each
//!    worker leaves with its window and its inbox, injects the inbox in
//!    canonical order, and only then runs to its horizon — so a frame
//!    sent in one window is in its destination's queue before the next
//!    window runs. Rounds repeat until the floor passes the run bound.
//!
//! # Determinism
//!
//! Every engine — single-threaded or shard-local — orders same-instant
//! events by the canonical `(time, key, seq)` rule of
//! [`crate::calq::CalendarQueue`], where the key encodes the event's
//! *global* physical identity (wire direction, device id; see
//! `Network::order_key`). The builder here stamps each shard-local
//! network with the global link and node ids it was carved from, so a
//! same-nanosecond coincidence — two copies of a flood arriving at one
//! switch over parallel equal-delay paths, a timer firing against an
//! arrival — resolves identically no matter which side of a shard
//! boundary each event came from. Incoming cross-shard frames are
//! additionally sorted by `(delivery time, global link id, direction,
//! per-link sequence)` before injection, so the merged execution is a
//! pure function of the scenario — thread scheduling never reorders
//! anything. The observable contract, which
//! `tests/sharded_equivalence.rs` pins and `difftest` fuzzes, is
//! **trace identity**: the merged, timestamp-sorted delivery trace
//! ([`DeliveryTracer`]) of a sharded run is byte-for-byte identical to
//! the single-threaded engine's on the same scenario.
//!
//! One caveat bounds the contract: cross-shard link-admin events
//! (cable cuts) are rejected — frames already deposited for the other
//! shard cannot be recalled, so cut links must stay within one shard.
//!
//! # Example
//!
//! ```
//! use arppath_netsim::{Ctx, Device, EthernetFrame, LinkParams, PortNo};
//! use arppath_netsim::{Engine, ShardedBuilder, SimDuration, SimTime};
//! use arppath_wire::{ArpPacket, MacAddr};
//!
//! /// Echoes every frame straight back out of its ingress port.
//! struct Echo(String);
//! impl Device for Echo {
//!     fn name(&self) -> &str { &self.0 }
//!     fn on_frame(&mut self, port: PortNo, frame: EthernetFrame, ctx: &mut Ctx) {
//!         ctx.send(port, frame);
//!     }
//! }
//!
//! let mut b = ShardedBuilder::new(2);
//! b.record_delivery_trace(true);
//! let ping = b.add(Box::new(Echo("ping".into())));
//! let pong = b.add(Box::new(Echo("pong".into())));
//! b.link(ping, 0, pong, 0, LinkParams::gigabit(SimDuration::micros(5)));
//!
//! // One device per shard: the link is cut and 5 µs is the lookahead.
//! let mut net = b.build(&[0, 1]);
//! assert_eq!(net.lookahead(), Some(SimDuration::micros(5)));
//!
//! let arp = ArpPacket::request(
//!     MacAddr::from_index(1, 1),
//!     "10.0.0.1".parse().unwrap(),
//!     "10.0.0.2".parse().unwrap(),
//! );
//! net.inject_at(SimTime::ZERO, ping, PortNo(0), EthernetFrame::arp_request(MacAddr::from_index(1, 1), arp));
//! net.run_until(SimTime(SimDuration::micros(40).as_nanos()));
//!
//! // The echo ping-pongs across the shard boundary; every delivery
//! // lands in the merged trace with its exact simulated timestamp.
//! let trace = net.delivery_trace();
//! assert!(trace.len() > 2);
//! assert_eq!(net.stats().frames_delivered as usize, trace.len());
//! ```

use crate::device::{Ctx, Device, NodeId, PortNo};
use crate::engine::{Engine, Network, NetworkBuilder, NetworkStats};
use crate::link::{Dir, DirStats, Endpoint, Link, LinkId, LinkParams};
use crate::time::{SimDuration, SimTime};
use crate::trace::DeliveryTracer;
use arppath_wire::EthernetFrame;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

// Test-only fault knob, per thread; `ShardedBuilder::build` copies it
// into the network it returns, so no other thread sees it.
thread_local! {
    static UNSOUND_HORIZON_WIDEN_NS: Cell<u64> = const { Cell::new(0) };
}

/// Widen the execution horizon of every shard of every
/// [`ShardedNetwork`] this thread builds from now on by `ns`
/// nanoseconds beyond the sound CMB bound. **Test-only fault
/// injection** — any nonzero value makes those runs unsound (late
/// cross-shard arrivals may be reordered or rejected). Used by
/// `difftest`'s self-check to verify the harness catches exactly this
/// class of bug.
#[doc(hidden)]
pub fn set_unsound_horizon_widen(ns: u64) {
    UNSOUND_HORIZON_WIDEN_NS.set(ns);
}

/// Per-shard-pair conservative lookahead. `pair[src * n + dst]` is the
/// minimum propagation delay (nanoseconds) over cut links that can
/// carry a frame from shard `src` to shard `dst`, `u64::MAX` when no
/// cut link joins the pair — such a source can never reach the
/// destination directly and contributes nothing to its horizon.
///
/// Public (hidden) so property tests can drive [`window_horizons`].
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct LookaheadMatrix {
    n: usize,
    pair: Vec<u64>,
    /// Per-destination minimum over all sources (`u64::MAX`: no cut
    /// link reaches the shard at all).
    in_min: Vec<u64>,
}

impl LookaheadMatrix {
    /// A matrix over `n` shards with every pair unreachable.
    pub fn new(n: usize) -> Self {
        LookaheadMatrix { n, pair: vec![u64::MAX; n * n], in_min: vec![u64::MAX; n] }
    }

    /// Record a cut link between shards `a` and `b` with the given
    /// propagation delay; frames cross it in both directions.
    pub fn observe_cut(&mut self, a: usize, b: usize, propagation_ns: u64) {
        debug_assert!(a != b && propagation_ns > 0);
        for (s, d) in [(a, b), (b, a)] {
            let p = &mut self.pair[s * self.n + d];
            *p = (*p).min(propagation_ns);
            let q = &mut self.in_min[d];
            *q = (*q).min(propagation_ns);
        }
    }

    /// Lookahead from shard `src` to shard `dst` (`u64::MAX` when
    /// unreachable).
    pub fn between(&self, src: usize, dst: usize) -> u64 {
        self.pair[src * self.n + dst]
    }

    /// Collapse every off-diagonal pair to the global minimum — the
    /// PR 4 window computation (every shard bounds every other at the
    /// cheapest cut anywhere), kept as the horizon property tests'
    /// oracle.
    #[cfg(test)]
    fn collapse_to_global(&mut self) {
        let l = self.pair.iter().copied().min().unwrap_or(u64::MAX);
        if l == u64::MAX {
            return;
        }
        for s in 0..self.n {
            for d in 0..self.n {
                if s != d {
                    self.pair[s * self.n + d] = l;
                }
            }
        }
        for d in 0..self.n {
            self.in_min[d] = if self.n > 1 { l } else { u64::MAX };
        }
    }
}

/// One window agreement as a pure function of the exchanged state:
/// `eff[j]` is the earliest instant shard `j` can act — the earlier of
/// its next pending event and the earliest boundary frame deposited for
/// it this exchange (`u64::MAX` when neither exists). Returns
/// `(w_start, horizons)` — the global window floor and every shard's
/// exclusive execution horizon.
///
/// The Chandy–Misra–Bryant argument, per pair: shard `j` cannot *act*
/// before `eff(j)`, and cannot *react* to this window's traffic before
/// `w + in(j)` (a frame needs at least `j`'s cheapest incoming cut to
/// reach it). So `j` emits nothing before `min(eff(j), w + in(j))`,
/// and nothing from `j` reaches `i` before that plus `pair[j][i]`;
/// unreachable pairs contribute nothing. Every deposited frame is in its
/// destination's queue before the window runs, so no frame bound for
/// `i` needs a cap of its own. With every pair collapsed to the global
/// `L` this reduces exactly to the global `min(min_other, w + L) + L`,
/// which the property suite pins as a lower bound: per-pair horizons
/// are never smaller (never less parallel) than the global-`L`
/// oracle's.
#[doc(hidden)]
pub fn window_horizons(m: &LookaheadMatrix, eff: &[u64]) -> (u64, Vec<u64>) {
    let n = m.n;
    debug_assert_eq!(eff.len(), n);
    let w = eff.iter().copied().min().unwrap_or(u64::MAX);
    if w == u64::MAX {
        return (w, vec![u64::MAX; n]);
    }
    let horizons = (0..n)
        .map(|i| {
            (0..n)
                .filter(|&j| j != i && m.pair[j * n + i] != u64::MAX)
                .map(|j| {
                    let emit = eff[j].min(w.saturating_add(m.in_min[j]));
                    emit.saturating_add(m.pair[j * n + i])
                })
                .min()
                .unwrap_or(u64::MAX)
        })
        .collect();
    (w, horizons)
}

/// A frame in flight between shards: the frame itself plus everything
/// the destination needs to schedule and order it deterministically.
struct RemoteMsg {
    /// Delivery instant at the destination (sender-side `TxDone` +
    /// the cut link's propagation delay).
    time: SimTime,
    /// Global id of the cut link — first component of the canonical
    /// ordering key for simultaneous cross-shard arrivals.
    link: usize,
    /// Direction of travel across the cut link (key component).
    dir: usize,
    /// Per-(link, direction) sequence number (key component; frames on
    /// one half-link arrive in emission order).
    seq: u64,
    /// Destination shard.
    dst_shard: usize,
    /// Destination device, as the *destination shard's* local node id.
    node: NodeId,
    /// Destination ingress port.
    port: PortNo,
    /// The frame, exactly as the sender's half-link delivered it.
    frame: EthernetFrame,
}

impl RemoteMsg {
    fn order_key(&self) -> (SimTime, usize, usize, u64) {
        (self.time, self.link, self.dir, self.seq)
    }
}

/// The sender-side terminator of a cut link: receives frames at their
/// `TxDone` instant (the half-link has zero propagation) and queues
/// them for the cross-shard exchange.
struct BoundaryStub {
    name: String,
    link: usize,
    dir: Dir,
    propagation: SimDuration,
    dst_shard: usize,
    dst_node: NodeId,
    dst_port: PortNo,
    seq: u64,
    /// Shared with the owning shard; drained after every window.
    outbox: Arc<Mutex<Vec<RemoteMsg>>>,
}

impl Device for BoundaryStub {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_frame(&mut self, _port: PortNo, frame: EthernetFrame, ctx: &mut Ctx) {
        let msg = RemoteMsg {
            time: ctx.now() + self.propagation,
            link: self.link,
            dir: self.dir.index(),
            seq: self.seq,
            dst_shard: self.dst_shard,
            node: self.dst_node,
            port: self.dst_port,
            frame,
        };
        self.seq += 1;
        self.outbox.lock().expect("a worker panicked holding the outbox").push(msg);
    }

    /// PFC pause/resume frames must cross the cut as ordinary frames
    /// and be intercepted in the *receiving* shard, where the
    /// transmitter they halt (the reverse half-link) lives — so the
    /// stub opts out of engine-side interception.
    fn forwards_control_frames(&self) -> bool {
        true
    }
}

/// Where a global link's transmit machinery lives.
enum LinkHome {
    /// Both endpoints in one shard: an ordinary link there.
    Intra { shard: usize, local: LinkId },
    /// Cut link: one sender-side half per direction.
    Cross { a_half: (usize, LinkId), b_half: (usize, LinkId) },
}

/// One global link's bookkeeping.
struct GlobalLink {
    a: Endpoint,
    b: Endpoint,
    home: LinkHome,
}

/// One shard: a complete [`Network`] plus its boundary machinery.
struct Shard {
    net: Network,
    /// Cross-shard frames produced by this shard's stubs this window.
    outbox: Arc<Mutex<Vec<RemoteMsg>>>,
    /// Real (non-stub) devices in this shard.
    devices: usize,
    /// Cross-shard frames sent over the whole run.
    cross_out: u64,
    /// Cross-shard frames received over the whole run.
    cross_in: u64,
}

/// Per-shard execution counters, for the per-shard utilization report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Real devices assigned to the shard.
    pub devices: usize,
    /// Events the shard's engine processed (includes boundary-stub
    /// deliveries and injected cross-shard arrivals).
    pub events: u64,
    /// Frames delivered to the shard's real devices.
    pub frames_delivered: u64,
    /// Frames this shard sent to other shards.
    pub cross_out: u64,
    /// Frames this shard received from other shards.
    pub cross_in: u64,
}

/// Assembles a [`ShardedNetwork`]: add devices and links exactly like
/// [`NetworkBuilder`], then [`ShardedBuilder::build`] with a shard
/// assignment. Global [`NodeId`]s/[`LinkId`]s are handed out in the
/// same insertion order as the single-threaded builder, so a scenario
/// built both ways gets identical ids — which is what makes the two
/// engines' traces directly comparable.
pub struct ShardedBuilder {
    shards: usize,
    devices: Vec<Box<dyn Device>>,
    links: Vec<(Endpoint, Endpoint, LinkParams)>,
    record_deliveries: bool,
}

impl ShardedBuilder {
    /// An empty builder targeting `shards` worker threads.
    ///
    /// # Panics
    /// If `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "a sharded network needs at least one shard");
        ShardedBuilder { shards, devices: Vec::new(), links: Vec::new(), record_deliveries: false }
    }

    /// Attach a device; global ids are handed out in insertion order.
    pub fn add(&mut self, device: Box<dyn Device>) -> NodeId {
        let id = NodeId(self.devices.len());
        self.devices.push(device);
        id
    }

    /// Cable `(a, a_port)` to `(b, b_port)` with `params`.
    ///
    /// # Panics
    /// On out-of-range nodes or a port cabled to itself (builder
    /// misuse; double-cabling is caught at build time by the per-shard
    /// builders).
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
        let id = LinkId(self.links.len());
        let ea = Endpoint { node: a, port: PortNo(a_port) };
        let eb = Endpoint { node: b, port: PortNo(b_port) };
        self.links.push((ea, eb, params));
        id
    }

    /// Record every frame delivery into per-shard [`DeliveryTracer`]s
    /// so [`ShardedNetwork::delivery_trace`] can produce the merged
    /// canonical trace. Off by default — recording costs one frame
    /// encode per delivery, which a pure performance run should not
    /// pay.
    pub fn record_delivery_trace(&mut self, on: bool) {
        self.record_deliveries = on;
    }

    /// Partition, wire the boundary machinery, and start every shard's
    /// devices (`on_start` runs at t=0, shard by shard in global id
    /// order within each shard).
    ///
    /// `assignment[node] = shard` for every global node id. The
    /// network keeps this thread's test-only fault knob
    /// ([`set_unsound_horizon_widen`]) as it is now; its worker threads
    /// read only that copy.
    ///
    /// # Panics
    /// If the assignment's length or shard indices are out of range, or
    /// if a cross-shard link has zero propagation delay — conservative
    /// lookahead needs every cut to cost time, otherwise no window is
    /// safe to run.
    pub fn build(self, assignment: &[usize]) -> ShardedNetwork {
        let n = self.devices.len();
        let shards = self.shards;
        assert_eq!(assignment.len(), n, "assignment must cover every device exactly once");
        for (node, &s) in assignment.iter().enumerate() {
            assert!(s < shards, "node {node} assigned to shard {s}, but only {shards} exist");
        }

        // Global→local id translation, in global insertion order.
        let mut counts = vec![0usize; shards];
        let mut local_id = Vec::with_capacity(n);
        for &s in assignment {
            local_id.push(NodeId(counts[s]));
            counts[s] += 1;
        }

        // Conservative lookahead: per ordered shard pair, the cheapest
        // cut link that can carry a frame between them bounds how far
        // the destination may run ahead of the source.
        let mut lookahead: Option<SimDuration> = None;
        let mut matrix = LookaheadMatrix::new(shards);
        for &(ea, eb, params) in &self.links {
            let (sa, sb) = (assignment[ea.node.0], assignment[eb.node.0]);
            if sa != sb {
                assert!(
                    params.propagation > SimDuration::ZERO,
                    "cross-shard link {:?}—{:?} has zero propagation delay: conservative \
                     lookahead requires every cut link to cost time (repartition or add delay)",
                    ea.node,
                    eb.node
                );
                matrix.observe_cut(sa, sb, params.propagation.as_nanos());
                lookahead =
                    Some(lookahead.map_or(params.propagation, |l| l.min(params.propagation)));
            }
        }

        let mut builders: Vec<NetworkBuilder> =
            (0..shards).map(|_| NetworkBuilder::new()).collect();
        let mut local2global: Vec<Vec<Option<NodeId>>> =
            counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        for (g, dev) in self.devices.into_iter().enumerate() {
            let s = assignment[g];
            let lid = builders[s].add(dev);
            debug_assert_eq!(lid, local_id[g]);
            // Same-instant events at this device must sort by its
            // *global* identity, as the single-threaded engine would.
            builders[s].set_node_order_key(lid, g as u64);
            local2global[s].push(Some(NodeId(g)));
        }
        let device_counts = counts;

        let outboxes: Vec<Arc<Mutex<Vec<RemoteMsg>>>> =
            (0..shards).map(|_| Arc::new(Mutex::new(Vec::new()))).collect();
        let mut links = Vec::with_capacity(self.links.len());
        let mut stub_count = 0usize;
        for (gid, &(ea, eb, params)) in self.links.iter().enumerate() {
            let (sa, sb) = (assignment[ea.node.0], assignment[eb.node.0]);
            // The canonical wire ids of this link's two directions,
            // exactly as the single-threaded engine derives them from
            // the global link id: same-instant arrivals sort on these.
            let wire = [2 * gid as u64, 2 * gid as u64 + 1];
            let home = if sa == sb {
                let local = builders[sa].link(
                    local_id[ea.node.0],
                    ea.port.0,
                    local_id[eb.node.0],
                    eb.port.0,
                    params,
                );
                builders[sa].set_link_order_keys(local, wire);
                LinkHome::Intra { shard: sa, local }
            } else {
                let mut half = |src: Endpoint, dst: Endpoint, dir: Dir| {
                    let (ss, ds) = match dir {
                        Dir::AtoB => (sa, sb),
                        Dir::BtoA => (sb, sa),
                    };
                    let stub = builders[ss].add(Box::new(BoundaryStub {
                        name: format!("gw-l{gid}-{}", dir.index()),
                        link: gid,
                        dir,
                        propagation: params.propagation,
                        dst_shard: ds,
                        dst_node: local_id[dst.node.0],
                        dst_port: dst.port,
                        seq: 0,
                        outbox: Arc::clone(&outboxes[ss]),
                    }));
                    // Stubs never own timers; any collision-free key
                    // beyond the real id space keeps them canonical.
                    builders[ss].set_node_order_key(stub, (n + stub_count) as u64);
                    stub_count += 1;
                    local2global[ss].push(None);
                    let local = builders[ss].link(
                        local_id[src.node.0],
                        src.port.0,
                        stub,
                        0,
                        params.without_propagation(),
                    );
                    // The half-link's local A→B is the real endpoint
                    // sending in global direction `dir`; its local
                    // B→A (unused: stubs never transmit) is the other
                    // global direction. Mapping both keeps
                    // `inject_at`'s arrival-key lookup — which reads
                    // the *opposite* of the port's send direction —
                    // identical to the single-threaded Deliver key.
                    let keys = match dir {
                        Dir::AtoB => wire,
                        Dir::BtoA => [wire[1], wire[0]],
                    };
                    builders[ss].set_link_order_keys(local, keys);
                    (ss, local)
                };
                let a_half = half(ea, eb, Dir::AtoB);
                let b_half = half(eb, ea, Dir::BtoA);
                LinkHome::Cross { a_half, b_half }
            };
            links.push(GlobalLink { a: ea, b: eb, home });
        }

        if self.record_deliveries {
            for (builder, remap) in builders.iter_mut().zip(local2global) {
                builder.record_remapped_delivery_trace(remap);
            }
        }

        let shard_nets: Vec<Shard> = builders
            .into_iter()
            .zip(outboxes)
            .zip(device_counts)
            .map(|((builder, outbox), devices)| Shard {
                net: builder.build(),
                outbox,
                devices,
                cross_out: 0,
                cross_in: 0,
            })
            .collect();

        ShardedNetwork {
            shards: shard_nets,
            assignment: assignment.to_vec(),
            local_id,
            links,
            lookahead,
            matrix,
            horizon_widen_ns: UNSOUND_HORIZON_WIDEN_NS.get(),
            sync_rounds: 0,
            now: SimTime::ZERO,
        }
    }
}

/// The per-round synchronization point and the only channel between
/// shards: an abortable cyclic barrier that *carries data*. Arrivers
/// publish their next-event time and deposit their outgoing boundary
/// frames; the last arriver folds each destination's earliest deposited
/// frame into that shard's `eff` and computes the window
/// ([`window_horizons`]) once, and every waiter leaves with the agreed
/// `(w_start, horizon)` for its shard and the frames deposited for it.
///
/// `abort` releases every current *and future* waiter immediately.
/// `std::sync::Barrier` has no such escape hatch, and the panic path
/// needs one: a panicking worker cannot know which generation its
/// healthy siblings will reach next. If it joins "one more" generation
/// while a sibling exits right after its own release without waiting
/// again, the panicking worker is stranded at a barrier that never
/// fills (the difftest fault-injection self-check deadlocked on exactly
/// that race).
struct ExchangeBarrier {
    state: Mutex<ExchangeState>,
    cv: Condvar,
    matrix: LookaheadMatrix,
}

struct ExchangeState {
    arrived: usize,
    generation: u64,
    aborted: bool,
    /// Completed exchanges — the run's synchronization-round count.
    rounds: u64,
    /// Double-buffered by generation parity: arrivers at generation
    /// `g` write `eff[g % 2]` and `mail[g % 2]`, and the buffers are
    /// not rewritten before generation `g + 2` — which cannot start
    /// until every waiter of `g` has read its window and taken its
    /// inbox (readers hold the state lock when they wake from the
    /// condvar).
    eff: [Vec<u64>; 2],
    /// Deposited boundary frames, per destination shard.
    mail: [Vec<Vec<RemoteMsg>>; 2],
    /// The agreed window per parity: `(w_start, horizons)`.
    window: [(u64, Vec<u64>); 2],
}

impl ExchangeBarrier {
    fn new(matrix: LookaheadMatrix) -> Self {
        let n = matrix.n;
        let mailboxes = || (0..n).map(|_| Vec::new()).collect();
        ExchangeBarrier {
            state: Mutex::new(ExchangeState {
                arrived: 0,
                generation: 0,
                aborted: false,
                rounds: 0,
                eff: [vec![u64::MAX; n], vec![u64::MAX; n]],
                mail: [mailboxes(), mailboxes()],
                window: [(u64::MAX, vec![u64::MAX; n]), (u64::MAX, vec![u64::MAX; n])],
            }),
            cv: Condvar::new(),
            matrix,
        }
    }

    /// Publish this shard's next event time, deposit every frame in
    /// `mail` for its destination, and block until every participant
    /// has done the same. Returns the agreed `(w_start,
    /// horizon-for-this-shard)` with `mail` refilled by the frames
    /// deposited for this shard, or `None` if the barrier was aborted.
    fn exchange(&self, shard: usize, next: u64, mail: &mut Vec<RemoteMsg>) -> Option<(u64, u64)> {
        let mut s = self.state.lock().expect("a worker panicked holding the exchange barrier");
        if s.aborted {
            return None;
        }
        let slot = (s.generation % 2) as usize;
        s.eff[slot][shard] = next;
        for msg in mail.drain(..) {
            s.mail[slot][msg.dst_shard].push(msg);
        }
        s.arrived += 1;
        if s.arrived == self.matrix.n {
            s.arrived = 0;
            s.rounds += 1;
            let ExchangeState { eff, mail: boxes, .. } = &mut *s;
            for (eff_j, inbox) in eff[slot].iter_mut().zip(&boxes[slot]) {
                *eff_j = inbox.iter().map(|m| m.time.0).fold(*eff_j, u64::min);
            }
            s.window[slot] = window_horizons(&self.matrix, &s.eff[slot]);
            s.generation += 1;
            self.cv.notify_all();
        } else {
            let generation = s.generation;
            while s.generation == generation && !s.aborted {
                s = self.cv.wait(s).expect("a worker panicked holding the exchange barrier");
            }
            if s.aborted {
                return None;
            }
        }
        std::mem::swap(mail, &mut s.mail[slot][shard]);
        let (w, ref horizons) = s.window[slot];
        Some((w, horizons[shard]))
    }

    /// Completed exchange rounds so far.
    fn rounds(&self) -> u64 {
        self.state.lock().expect("a worker panicked holding the exchange barrier").rounds
    }

    /// Permanently release everyone: current waiters wake now, future
    /// [`exchange`](ExchangeBarrier::exchange) calls return `None`
    /// immediately.
    fn abort(&self) {
        let mut s = self.state.lock().expect("a worker panicked holding the exchange barrier");
        s.aborted = true;
        self.cv.notify_all();
    }
}

/// Shared per-run synchronization state for the worker threads.
struct WindowSync {
    /// The single per-round synchronization point.
    barrier: ExchangeBarrier,
    /// Run bound (inclusive): no event past it is executed.
    bound: SimTime,
    /// Test-only fault injection ([`set_unsound_horizon_widen`]):
    /// nanoseconds every horizon is widened by. Zero in production.
    horizon_widen_ns: u64,
}

/// A partitioned network running its shards on worker threads. Its
/// clock, counters, devices, link counters and link admin are its
/// [`Engine`] surface, shared with the single-threaded [`Network`]
/// (link admin on a cut link panics; see the module docs).
///
/// Construction and all accessors happen on the caller's thread; only
/// the run loops ([`ShardedNetwork::run_until`] /
/// [`ShardedNetwork::run_until_idle`]) spawn workers, and they join
/// before returning — the type is externally single-threaded.
pub struct ShardedNetwork {
    shards: Vec<Shard>,
    /// Global node id → shard.
    assignment: Vec<usize>,
    /// Global node id → shard-local node id.
    local_id: Vec<NodeId>,
    /// Global link table, in builder insertion order.
    links: Vec<GlobalLink>,
    /// Minimum cross-shard propagation delay (`None`: nothing is cut).
    lookahead: Option<SimDuration>,
    /// Per-pair lookahead.
    matrix: LookaheadMatrix,
    /// Test-only horizon widening captured at build time.
    horizon_widen_ns: u64,
    /// Synchronization rounds (window exchanges) across all runs.
    sync_rounds: u64,
    now: SimTime,
}

impl ShardedNetwork {
    /// The conservative lookahead: the minimum propagation delay over
    /// cross-shard links, or `None` when the partition cuts nothing.
    pub fn lookahead(&self) -> Option<SimDuration> {
        self.lookahead
    }

    /// Total synchronization rounds (one window exchange each) the run
    /// loops have performed, across all [`ShardedNetwork::run_until`] /
    /// [`ShardedNetwork::run_until_idle`] calls. The E12 scale
    /// experiment reports this per simulated millisecond — the direct
    /// measure of how often the workers had to meet.
    pub fn sync_rounds(&self) -> u64 {
        self.sync_rounds
    }

    /// A global link's endpoints (global node ids).
    pub fn link_endpoints(&self, id: LinkId) -> (Endpoint, Endpoint) {
        let l = &self.links[id.0];
        (l.a, l.b)
    }

    /// Where one direction of a global link transmits: the link that
    /// holds its machinery, and that direction's name there (a cut
    /// link's sender-side halves have the real sender as endpoint A).
    fn transmitter(&self, id: LinkId, dir: Dir) -> (&Link, Dir) {
        match self.links[id.0].home {
            LinkHome::Intra { shard, local } => (self.shards[shard].net.link(local), dir),
            LinkHome::Cross { a_half, b_half } => {
                let (shard, local) = match dir {
                    Dir::AtoB => a_half,
                    Dir::BtoA => b_half,
                };
                (self.shards[shard].net.link(local), Dir::AtoB)
            }
        }
    }

    /// Schedule a cable cut (`up = false`) or re-plug at `at`; panics
    /// on a cut link (put flapping links inside one shard).
    fn admin(&mut self, link: LinkId, at: SimTime, up: bool) {
        match self.links[link.0].home {
            LinkHome::Intra { shard, local } => {
                if up {
                    self.shards[shard].net.schedule_link_up(local, at);
                } else {
                    self.shards[shard].net.schedule_link_down(local, at);
                }
            }
            LinkHome::Cross { .. } => panic!(
                "link {link:?} crosses a shard boundary: cross-shard link admin is not \
                 supported (assign both endpoints of flapping links to one shard)"
            ),
        }
    }

    /// Deliver `frame` to `node`/`port` at `at` (global-id variant of
    /// [`Network::inject_at`]).
    pub fn inject_at(&mut self, at: SimTime, node: NodeId, port: PortNo, frame: EthernetFrame) {
        let shard = self.assignment[node.0];
        let local = self.local_id[node.0];
        self.shards[shard].net.inject_at(at, local, port, frame);
    }

    /// Run every event up to and including `until`, then set the clock
    /// to `until`. Equivalent to [`Network::run_until`], executed in
    /// parallel lookahead windows.
    pub fn run_until(&mut self, until: SimTime) {
        self.run_windows(until);
        for shard in &mut self.shards {
            shard.net.run_until(until);
        }
        self.now = self.now.max(until);
    }

    /// Run until every shard's queue is empty or `limit` is reached,
    /// whichever is first. Returns `true` if everything drained.
    pub fn run_until_idle(&mut self, limit: SimTime) -> bool {
        self.run_windows(limit);
        let drained = self.shards.iter().all(|s| s.net.next_event_time().is_none());
        if drained {
            let last = self.shards.iter().map(|s| s.net.now()).max().unwrap_or(self.now);
            self.now = self.now.max(last);
        } else {
            for shard in &mut self.shards {
                shard.net.run_until(limit);
            }
            self.now = self.now.max(limit);
        }
        drained
    }

    /// Total frames that crossed a shard boundary.
    pub fn cross_frames(&self) -> u64 {
        self.shards.iter().map(|s| s.cross_out).sum()
    }

    /// Per-shard execution counters — the raw material of the
    /// per-shard utilization report (`repro -- e8 --shards N`).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, sh)| {
                let s = sh.net.stats();
                ShardStats {
                    shard: i,
                    devices: sh.devices,
                    events: s.events,
                    frames_delivered: s.frames_delivered - sh.cross_out,
                    cross_out: sh.cross_out,
                    cross_in: sh.cross_in,
                }
            })
            .collect()
    }

    /// The merged, timestamp-sorted delivery trace: one canonical line
    /// per frame delivery across all shards, in `(time, node, port,
    /// length, digest)` order — byte-for-byte comparable with a
    /// single-threaded [`DeliveryTracer`]'s rendering of the same
    /// scenario. Empty unless
    /// [`ShardedBuilder::record_delivery_trace`] was enabled.
    pub fn delivery_trace(&self) -> Vec<String> {
        DeliveryTracer::render_sorted(
            self.shards.iter().flat_map(|s| s.net.delivery_records()).collect(),
        )
    }

    /// Drive all shards through lookahead windows until nothing at or
    /// before `bound` remains anywhere.
    fn run_windows(&mut self, bound: SimTime) {
        if self.shards.len() == 1 {
            let net = &mut self.shards[0].net;
            while net.step_batch(bound) {}
            return;
        }
        let sync = WindowSync {
            barrier: ExchangeBarrier::new(self.matrix.clone()),
            bound,
            horizon_widen_ns: self.horizon_widen_ns,
        };
        std::thread::scope(|scope| {
            let sync = &sync;
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .enumerate()
                .map(|(i, shard)| scope.spawn(move || shard_worker(i, shard, sync)))
                .collect();
            // Join everything before propagating any panic, so sibling
            // workers have all observed the abort.
            let results: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            for r in results {
                if let Err(panic) = r {
                    resume_unwind(panic);
                }
            }
        });
        self.sync_rounds += sync.barrier.rounds();
    }
}

/// One worker thread's life: rounds of (swap boundary frames and agree
/// on a window at the single exchange barrier → ingest the inbox →
/// execute the window) until the global floor passes the bound. Panics
/// from device code abort the barrier so sibling workers exit instead
/// of deadlocking, then propagate.
fn shard_worker(i: usize, shard: &mut Shard, sync: &WindowSync) {
    if let Err(panic) = catch_unwind(AssertUnwindSafe(|| worker_rounds(i, shard, sync))) {
        sync.barrier.abort();
        resume_unwind(panic);
    }
}

fn worker_rounds(i: usize, shard: &mut Shard, sync: &WindowSync) {
    // The last window's boundary frames on the way into each exchange;
    // the frames deposited for this shard on the way out.
    let mut mail: Vec<RemoteMsg> = Vec::new();
    loop {
        // One exchange publishes this shard's next event, trades its
        // outgoing frames for its inbox, and agrees on the window floor
        // and this shard's horizon (the last arriver runs
        // `window_horizons` over the full matrix once).
        let next = shard.net.next_event_time().map_or(u64::MAX, |t| t.0);
        let Some((w_start, horizon)) = sync.barrier.exchange(i, next, &mut mail) else {
            return; // aborted: a sibling is propagating a panic
        };

        // Ingest in the canonical deterministic order before anything
        // runs — at the final exchange too, so no frame outlives the run.
        mail.sort_unstable_by_key(RemoteMsg::order_key);
        shard.cross_in += mail.len() as u64;
        for msg in mail.drain(..) {
            shard.net.inject_at(msg.time, msg.node, msg.port, msg.frame);
        }
        if w_start == u64::MAX || w_start > sync.bound.0 {
            return; // identical snapshot at every worker: all exit this round
        }

        // Execute up to the horizon — the earliest instant anything can
        // still arrive from outside (see `window_horizons` for the
        // per-pair CMB argument).
        //
        // Test-only fault injection: difftest's self-check widens the
        // horizon past what CMB permits to prove the harness catches
        // unsound lookahead. Always zero in production.
        let horizon = horizon.saturating_add(sync.horizon_widen_ns);
        let run_bound = SimTime(horizon.saturating_sub(1).min(sync.bound.0));
        while shard.net.step_batch(run_bound) {}

        // This window's boundary frames ride the next exchange.
        mail.append(&mut shard.outbox.lock().expect("a worker panicked holding the outbox"));
        shard.cross_out += mail.len() as u64;
        debug_assert!(
            mail.iter()
                .all(|m| m.time.0
                    >= w_start.saturating_add(sync.barrier.matrix.between(i, m.dst_shard))),
            "a boundary frame violates the lookahead promise of window {w_start}"
        );
    }
}

impl Engine for ShardedNetwork {
    fn now(&self) -> SimTime {
        self.now
    }

    fn run_until(&mut self, until: SimTime) {
        ShardedNetwork::run_until(self, until)
    }

    /// Aggregated engine counters, corrected for the boundary
    /// machinery: a frame crossing a cut link is delivered once to its
    /// boundary stub and once (as an injected event) to its real
    /// destination, so one delivery and one event per cross-shard
    /// frame are subtracted to match the single-threaded accounting.
    fn stats(&self) -> NetworkStats {
        let mut total = NetworkStats::default();
        for shard in &self.shards {
            let s = shard.net.stats();
            total.frames_sent += s.frames_sent;
            total.frames_delivered += s.frames_delivered;
            total.drops_queue_full += s.drops_queue_full;
            total.drops_link_down += s.drops_link_down;
            total.drops_no_cable += s.drops_no_cable;
            total.watchdog_fires += s.watchdog_fires;
            total.drops_watchdog += s.drops_watchdog;
            total.events += s.events;
        }
        let cross = self.cross_frames();
        total.frames_delivered -= cross;
        total.events -= cross;
        total
    }

    fn device<T: 'static>(&self, node: NodeId) -> &T {
        self.shards[self.assignment[node.0]].net.device::<T>(self.local_id[node.0])
    }

    fn link_endpoints(&self, id: LinkId) -> (Endpoint, Endpoint) {
        ShardedNetwork::link_endpoints(self, id)
    }

    /// Counted wherever the direction transmits (for a cut link, on
    /// its sender-side half).
    fn link_stats(&self, id: LinkId, dir: Dir) -> DirStats {
        let (link, dir) = self.transmitter(id, dir);
        link.stats(dir)
    }

    fn link_paused_for(&self, id: LinkId, dir: Dir, now: SimTime) -> SimDuration {
        let (link, dir) = self.transmitter(id, dir);
        link.paused_for(dir, now)
    }

    fn schedule_link_down(&mut self, link: LinkId, at: SimTime) {
        self.admin(link, at, false);
    }

    fn schedule_link_up(&mut self, link: LinkId, at: SimTime) {
        self.admin(link, at, true);
    }

    fn delivery_trace(&self) -> Vec<String> {
        ShardedNetwork::delivery_trace(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::TimerToken;
    use crate::engine::NetworkBuilder;
    use arppath_wire::{ArpPacket, MacAddr};
    use std::net::Ipv4Addr;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A 3-shard matrix where every pair is connected at 1 µs — the
    /// uniform fixture the barrier tests run on.
    fn uniform_matrix(n: usize) -> LookaheadMatrix {
        let mut m = LookaheadMatrix::new(n);
        for a in 0..n {
            for b in (a + 1)..n {
                m.observe_cut(a, b, 1_000);
            }
        }
        m
    }

    /// A boundary frame from link `link` for shard `dst`.
    fn remote(time: u64, link: usize, seq: u64, dst: usize) -> RemoteMsg {
        RemoteMsg {
            time: SimTime(time),
            link,
            dir: 0,
            seq,
            dst_shard: dst,
            node: NodeId(0),
            port: PortNo(0),
            frame: test_frame(),
        }
    }

    #[test]
    fn exchange_barrier_cycles_generations_and_agrees_on_windows() {
        let barrier = Arc::new(ExchangeBarrier::new(uniform_matrix(3)));
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for shard in 0..3usize {
            let barrier = Arc::clone(&barrier);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for round in 0..10u64 {
                    counter.fetch_add(1, Ordering::SeqCst);
                    // Shard `s` publishes next event at `100·round + 50
                    // + s` and deposits one frame at `100·round + s` for
                    // shard `s + 1`: every participant must agree the
                    // floor is shard 0's deposited frame, and horizons
                    // derive from the same snapshot no matter who
                    // computes them.
                    let next = 100 * round + 50 + shard as u64;
                    let mut mail =
                        vec![remote(100 * round + shard as u64, shard, round, (shard + 1) % 3)];
                    let (w, h) =
                        barrier.exchange(shard, next, &mut mail).expect("barrier not aborted");
                    assert_eq!(w, 100 * round, "round {round} floor");
                    assert!(h > w, "horizon past the floor");
                    // Each shard leaves with exactly the frame its
                    // predecessor deposited this round.
                    let from = (shard + 2) % 3;
                    let got: Vec<_> = mail.iter().map(|m| (m.link, m.seq, m.dst_shard)).collect();
                    assert_eq!(got, vec![(from, round, shard)], "round {round} inbox");
                    // Everyone passed this round's exchange, so every
                    // pre-exchange increment must be visible.
                    assert!(counter.load(Ordering::SeqCst) >= 3 * (round + 1));
                }
            }));
        }
        for h in handles {
            h.join().expect("exchange worker panicked");
        }
        assert_eq!(counter.load(Ordering::SeqCst), 30);
        assert_eq!(barrier.rounds(), 10);
    }

    #[test]
    fn exchange_barrier_abort_releases_current_and_future_waiters() {
        // One waiter blocks (the barrier wants 2 arrivals); abort from
        // the main thread must release it, and a later exchange must
        // return None immediately. A deadlock here fails via timeout.
        let barrier = Arc::new(ExchangeBarrier::new(uniform_matrix(2)));
        let stuck = {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || barrier.exchange(0, 7, &mut vec![remote(9, 0, 0, 1)]))
        };
        // Give the waiter a moment to actually block before aborting.
        std::thread::sleep(std::time::Duration::from_millis(20));
        barrier.abort();
        assert_eq!(stuck.join().expect("aborted waiter panicked"), None);
        assert_eq!(barrier.exchange(1, 7, &mut Vec::new()), None);
    }

    /// Deterministic xorshift for the horizon property sweep.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn per_pair_horizons_never_undercut_the_global_oracle() {
        // The satellite property: for any reachable topology and any
        // exchanged state, the per-pair horizon is >= the collapsed
        // global-L horizon (the matrix is never *less* parallel), and
        // both share the same window floor. Sweep random sparse
        // matrices and random snapshots of next events with deposited
        // frames folded in, exactly as the exchange barrier builds eff.
        let mut state = 0x0123_4567_89AB_CDEF_u64;
        for case in 0..500 {
            let n = 2 + (xorshift(&mut state) % 7) as usize;
            let mut m = LookaheadMatrix::new(n);
            let mut cuts = 0;
            for a in 0..n {
                for b in (a + 1)..n {
                    if !xorshift(&mut state).is_multiple_of(3) {
                        m.observe_cut(a, b, 1 + xorshift(&mut state) % 50_000);
                        cuts += 1;
                    }
                }
            }
            if cuts == 0 {
                m.observe_cut(0, 1, 1 + xorshift(&mut state) % 50_000);
            }
            let mut oracle = m.clone();
            oracle.collapse_to_global();
            let mut eff: Vec<u64> = (0..n)
                .map(|_| match xorshift(&mut state) % 4 {
                    0 => u64::MAX,
                    _ => xorshift(&mut state) % 1_000_000,
                })
                .collect();
            for j in 0..n * n {
                if xorshift(&mut state).is_multiple_of(5) {
                    eff[j % n] = eff[j % n].min(xorshift(&mut state) % 1_000_000);
                }
            }
            let (w_pair, pair) = window_horizons(&m, &eff);
            let (w_global, global) = window_horizons(&oracle, &eff);
            assert_eq!(w_pair, w_global, "case {case}: floors must agree");
            for i in 0..n {
                assert!(
                    pair[i] >= global[i],
                    "case {case}: shard {i} per-pair horizon {} undercuts global {}",
                    pair[i],
                    global[i]
                );
                // Soundness ceiling for both: no shard may run past the
                // earliest instant a neighbour's next action could reach
                // it over that neighbour's cheapest cut toward it.
                let reach = |m: &LookaheadMatrix| {
                    (0..n)
                        .filter(|&j| j != i && m.between(j, i) != u64::MAX)
                        .map(|j| eff[j].saturating_add(m.between(j, i)))
                        .min()
                        .unwrap_or(u64::MAX)
                };
                assert!(pair[i] <= reach(&m), "case {case}: horizon past a neighbour's frame");
                assert!(
                    global[i] <= reach(&oracle),
                    "case {case}: oracle past a neighbour's frame"
                );
            }
        }
    }

    #[test]
    fn collapsed_matrix_reproduces_the_pr4_window_formula() {
        // With every pair at the global L, the horizon must equal
        // min(min_other, w + L) + L exactly.
        let mut m = uniform_matrix(3);
        m.collapse_to_global();
        let eff = [100u64, 450, 7_000];
        let (w, h) = window_horizons(&m, &eff);
        assert_eq!(w, 100);
        let l = 1_000u64;
        for (i, &h_i) in h.iter().enumerate() {
            let min_other = (0..3).filter(|&j| j != i).map(|j| eff[j]).min().unwrap();
            assert_eq!(h_i, min_other.min(w + l) + l, "shard {i}");
        }
    }

    #[test]
    fn unreachable_pairs_do_not_bound_the_horizon() {
        // Chain 0—1—2 (no 0↔2 cut): shard 2's horizon ignores shard
        // 0's early event except through the two-hop relay bound, so
        // it strictly exceeds the collapsed oracle's.
        let mut m = LookaheadMatrix::new(3);
        m.observe_cut(0, 1, 1_000);
        m.observe_cut(1, 2, 30_000);
        let eff = [0u64, 500_000, 600_000];
        let (w, h) = window_horizons(&m, &eff);
        assert_eq!(w, 0);
        // Shard 2 is bounded only by shard 1 emitting toward it:
        // shard 1 acts no earlier than min(eff[1], w + in(1)) = 1000,
        // plus the 30 µs pair lookahead.
        assert_eq!(h[2], 1_000 + 30_000);
        let mut oracle = m.clone();
        oracle.collapse_to_global();
        let (_, g) = window_horizons(&oracle, &eff);
        // min(min_other, w + L) + L with min_other = eff[0] = 0.
        assert_eq!(g[2], 1_000, "oracle collapses everything to 1 µs");
        assert!(h[2] > g[2]);
    }

    #[test]
    fn three_shard_fan_in_is_trace_identical() {
        // Two shards deposit salvos for the same destination shard in
        // the same rounds; the destination must ingest both in the
        // canonical order and deliver the single engine's trace.
        struct Salvo {
            name: String,
            left: u32,
        }
        impl Device for Salvo {
            fn name(&self) -> &str {
                &self.name
            }
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.schedule(SimDuration::micros(1), TimerToken(0));
            }
            fn on_timer(&mut self, _: TimerToken, ctx: &mut Ctx) {
                ctx.send(PortNo(0), test_frame());
                self.left -= 1;
                if self.left > 0 {
                    ctx.schedule(SimDuration::micros(5), TimerToken(0));
                }
            }
            fn on_frame(&mut self, _: PortNo, _: EthernetFrame, _: &mut Ctx) {}
        }
        let build = |shards: usize| {
            let mut b = ShardedBuilder::new(shards);
            b.record_delivery_trace(true);
            let s1 = b.add(Box::new(Salvo { name: "s1".into(), left: 20 }));
            let rx = b.add(Box::new(Probe::new("rx", 64)));
            let s2 = b.add(Box::new(Salvo { name: "s2".into(), left: 20 }));
            b.link(s1, 0, rx, 0, LinkParams::gigabit(SimDuration::micros(2)));
            b.link(s2, 0, rx, 1, LinkParams::gigabit(SimDuration::micros(3)));
            let assignment: Vec<usize> = (0..3).map(|n| n % shards).collect();
            let mut net = b.build(&assignment);
            net.run_until_idle(SimTime(u64::MAX));
            net.delivery_trace()
        };
        let reference = build(1);
        assert!(reference.len() >= 40, "both salvos must land: {}", reference.len());
        assert_eq!(build(3), reference, "three shards changed the trace");
    }

    #[test]
    fn worked_example_takes_three_exchanges() {
        // docs/ARCHITECTURE.md's worked example: host A and bridge B0 on
        // shard 0, bridge B1 and host B on shard 1, 500 ns intra-shard
        // links and a 3 µs cut. The frame shard 0 deposits at exchange
        // 2 is in shard 1's queue before shard 1's second window runs,
        // so B hears the ARP in that window and exchange 3 ends the
        // run. Capping shard 1's horizon at a frame it has not yet
        // ingested would cost a fourth exchange.
        struct Relay(&'static str);
        impl Device for Relay {
            fn name(&self) -> &str {
                self.0
            }
            fn on_frame(&mut self, port: PortNo, frame: EthernetFrame, ctx: &mut Ctx) {
                for p in (0..ctx.num_ports()).filter(|&p| p != port.0) {
                    ctx.send(PortNo(p), frame.clone());
                }
            }
        }
        let mut b = ShardedBuilder::new(2);
        let host_a = b.add(Box::new(Shot { name: "A".into() }));
        let b0 = b.add(Box::new(Relay("B0")));
        let b1 = b.add(Box::new(Relay("B1")));
        let host_b = b.add(Box::new(Probe::new("B", 0)));
        let intra = LinkParams::gigabit(SimDuration::nanos(500));
        b.link(host_a, 0, b0, 0, intra);
        b.link(b0, 1, b1, 0, LinkParams::gigabit(SimDuration::micros(3)));
        b.link(b1, 1, host_b, 0, intra);
        let mut net = b.build(&[0, 0, 1, 1]);
        assert!(net.run_until_idle(SimTime(u64::MAX)));
        // 672 ns line time per hop: 672 + 500, + 672 + 3000, + 672 + 500.
        assert_eq!(net.device::<Probe>(host_b).heard, vec![(SimTime(6_016), PortNo(0))]);
        assert_eq!(net.sync_rounds(), 3);
    }

    #[test]
    fn worker_panic_aborts_run_instead_of_deadlocking() {
        // A device that panics mid-run on one shard while the other
        // shard may be anywhere in its round: the poison + abort
        // protocol must propagate the panic, never hang. This is the
        // race the difftest self-check exposed (panicking worker
        // stranded at a barrier its exiting sibling never rejoins).
        struct Bomb {
            armed: bool,
        }
        impl Device for Bomb {
            fn name(&self) -> &str {
                "bomb"
            }
            fn on_start(&mut self, ctx: &mut Ctx) {
                if self.armed {
                    ctx.schedule(SimDuration::micros(5), TimerToken(1));
                }
            }
            fn on_frame(&mut self, _port: PortNo, _frame: EthernetFrame, _ctx: &mut Ctx) {}
            fn on_timer(&mut self, _token: TimerToken, _ctx: &mut Ctx) {
                panic!("bomb device detonated");
            }
        }
        // Only one shard's device panics; the other shard goes idle
        // and takes the normal-exit path — the asymmetric case that
        // used to strand the panicking worker at the poison barrier.
        let mut b = ShardedBuilder::new(2);
        let x = b.add(Box::new(Bomb { armed: true }));
        let y = b.add(Box::new(Bomb { armed: false }));
        b.link(x, 0, y, 0, LinkParams::gigabit(SimDuration::micros(1)));
        let mut net = b.build(&[0, 1]);
        let result = catch_unwind(AssertUnwindSafe(|| {
            net.run_until(SimTime(1_000_000));
        }));
        // scope::join re-panics with its own payload; what matters is
        // that the call RETURNS (no deadlock) and returns Err.
        result.expect_err("device panic must propagate, not be swallowed");
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

    /// Records (time, port) of everything it hears; optionally echoes.
    struct Probe {
        name: String,
        echo_first: usize,
        heard: Vec<(SimTime, PortNo)>,
    }

    impl Probe {
        fn new(name: &str, echo_first: usize) -> Self {
            Probe { name: name.into(), echo_first, heard: Vec::new() }
        }
    }

    impl Device for Probe {
        fn name(&self) -> &str {
            &self.name
        }
        fn on_frame(&mut self, port: PortNo, frame: EthernetFrame, ctx: &mut Ctx) {
            self.heard.push((ctx.now(), port));
            if self.heard.len() <= self.echo_first {
                ctx.send(port, frame);
            }
        }
    }

    /// A device that sends one frame at start.
    struct Shot {
        name: String,
    }

    impl Device for Shot {
        fn name(&self) -> &str {
            &self.name
        }
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.send(PortNo(0), test_frame());
        }
        fn on_frame(&mut self, _: PortNo, _: EthernetFrame, _: &mut Ctx) {}
    }

    #[test]
    fn cross_shard_delivery_time_is_exact() {
        // Single-threaded reference: 672 ns serialization + 3 µs
        // propagation = 3672 ns.
        let params = LinkParams::gigabit(SimDuration::micros(3));
        let mut b = ShardedBuilder::new(2);
        let tx = b.add(Box::new(Shot { name: "tx".into() }));
        let rx = b.add(Box::new(Probe::new("rx", 0)));
        b.link(tx, 0, rx, 0, params);
        let mut net = b.build(&[0, 1]);
        assert_eq!(net.lookahead(), Some(SimDuration::micros(3)));
        assert!(net.run_until_idle(SimTime(u64::MAX)));
        assert_eq!(net.device::<Probe>(rx).heard, vec![(SimTime(3672), PortNo(0))]);
        let stats = net.stats();
        assert_eq!(stats.frames_sent, 1);
        assert_eq!(stats.frames_delivered, 1);
        assert_eq!(net.cross_frames(), 1);
    }

    #[test]
    fn sharded_matches_single_threaded_engine_counters() {
        // A three-node relay chain across three shards: tx → mid → rx,
        // with mid echoing the first 2 frames it hears back and forth.
        let build_single = || {
            let mut b = NetworkBuilder::new();
            let tx = b.add(Box::new(Shot { name: "tx".into() }));
            let mid = b.add(Box::new(Probe::new("mid", 2)));
            let rx = b.add(Box::new(Probe::new("rx", 1)));
            b.link(tx, 0, mid, 0, LinkParams::gigabit(SimDuration::micros(2)));
            b.link(mid, 1, rx, 0, LinkParams::gigabit(SimDuration::micros(5)));
            let mut net = b.build();
            net.run_until_idle(SimTime(u64::MAX));
            (net.stats(), net.device::<Probe>(rx).heard.clone())
        };
        let build_sharded = |assignment: &[usize], shards: usize| {
            let mut b = ShardedBuilder::new(shards);
            let tx = b.add(Box::new(Shot { name: "tx".into() }));
            let mid = b.add(Box::new(Probe::new("mid", 2)));
            let rx = b.add(Box::new(Probe::new("rx", 1)));
            b.link(tx, 0, mid, 0, LinkParams::gigabit(SimDuration::micros(2)));
            b.link(mid, 1, rx, 0, LinkParams::gigabit(SimDuration::micros(5)));
            let mut net = b.build(assignment);
            net.run_until_idle(SimTime(u64::MAX));
            (net.stats(), net.device::<Probe>(rx).heard.clone())
        };
        let (ref_stats, ref_heard) = build_single();
        for (assignment, shards) in
            [(&[0usize, 1, 2][..], 3), (&[0, 0, 1][..], 2), (&[0, 1, 1][..], 2)]
        {
            let (stats, heard) = build_sharded(assignment, shards);
            assert_eq!(stats, ref_stats, "assignment {assignment:?}");
            assert_eq!(heard, ref_heard, "assignment {assignment:?}");
        }
    }

    #[test]
    fn intra_shard_links_support_admin_events() {
        let mut b = ShardedBuilder::new(2);
        let tx = b.add(Box::new(Shot { name: "tx".into() }));
        let rx = b.add(Box::new(Probe::new("rx", 0)));
        let lonely = b.add(Box::new(Probe::new("x", 0)));
        let l = b.link(tx, 0, rx, 0, LinkParams::default());
        let _ = lonely;
        let mut net = b.build(&[0, 0, 1]);
        net.schedule_link_down(l, SimTime(0));
        net.run_until_idle(SimTime(u64::MAX));
        assert_eq!(net.device::<Probe>(rx).heard.len(), 0, "frame lost to the cut");
        assert_eq!(net.stats().drops_link_down, 1);
    }

    #[test]
    #[should_panic(expected = "cross-shard link admin is not supported")]
    fn cross_shard_link_admin_panics() {
        let mut b = ShardedBuilder::new(2);
        let tx = b.add(Box::new(Shot { name: "tx".into() }));
        let rx = b.add(Box::new(Probe::new("rx", 0)));
        let l = b.link(tx, 0, rx, 0, LinkParams::default());
        let mut net = b.build(&[0, 1]);
        net.schedule_link_down(l, SimTime(0));
    }

    #[test]
    #[should_panic(expected = "zero propagation delay")]
    fn zero_delay_cut_link_is_rejected() {
        let mut b = ShardedBuilder::new(2);
        let tx = b.add(Box::new(Shot { name: "tx".into() }));
        let rx = b.add(Box::new(Probe::new("rx", 0)));
        b.link(
            tx,
            0,
            rx,
            0,
            LinkParams { propagation: SimDuration::ZERO, ..LinkParams::default() },
        );
        let _ = b.build(&[0, 1]);
    }

    #[test]
    fn timers_and_queueing_survive_the_boundary() {
        // A burster: three back-to-back frames queue behind each other
        // on the half-link exactly as they would on the full link.
        struct Burst {
            name: String,
        }
        impl Device for Burst {
            fn name(&self) -> &str {
                &self.name
            }
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.schedule(SimDuration::micros(1), TimerToken(1));
            }
            fn on_timer(&mut self, _: TimerToken, ctx: &mut Ctx) {
                for _ in 0..3 {
                    ctx.send(PortNo(0), test_frame());
                }
            }
            fn on_frame(&mut self, _: PortNo, _: EthernetFrame, _: &mut Ctx) {}
        }
        let mut b = ShardedBuilder::new(2);
        let tx = b.add(Box::new(Burst { name: "tx".into() }));
        let rx = b.add(Box::new(Probe::new("rx", 0)));
        b.link(tx, 0, rx, 0, LinkParams::gigabit(SimDuration::micros(2)));
        let mut net = b.build(&[0, 1]);
        net.run_until_idle(SimTime(u64::MAX));
        let times: Vec<u64> =
            net.device::<Probe>(rx).heard.iter().map(|(t, _)| t.as_nanos()).collect();
        // Timer at 1000 ns; serialization 672 ns each, back to back;
        // +2000 ns propagation.
        assert_eq!(times, vec![1000 + 672 + 2000, 1000 + 1344 + 2000, 1000 + 2016 + 2000]);
    }

    #[test]
    fn delivery_trace_merges_and_sorts() {
        let mut b = ShardedBuilder::new(2);
        b.record_delivery_trace(true);
        let tx = b.add(Box::new(Shot { name: "tx".into() }));
        let rx = b.add(Box::new(Probe::new("rx", 3)));
        b.link(tx, 0, rx, 0, LinkParams::gigabit(SimDuration::micros(1)));
        let mut net = b.build(&[0, 1]);
        net.run_until_idle(SimTime(u64::MAX));
        let trace = net.delivery_trace();
        // tx's shot reaches rx; rx echoes it back (tx hears it); no
        // further echo (tx does not forward).
        assert_eq!(trace.len(), 2);
        assert!(trace[0].contains(" n1 "), "first delivery is at rx: {}", trace[0]);
        assert!(trace[1].contains(" n0 "), "second delivery is at tx: {}", trace[1]);
        let sorted = {
            let mut t = trace.clone();
            t.sort();
            t
        };
        // Timestamps are zero-padded free: numeric order == lexicographic
        // here because both lines share digit counts; the contract that
        // matters is stability across runs.
        assert_eq!(trace.len(), sorted.len());
    }

    #[test]
    fn run_until_respects_the_bound() {
        let mut b = ShardedBuilder::new(2);
        let tx = b.add(Box::new(Shot { name: "tx".into() }));
        let rx = b.add(Box::new(Probe::new("rx", 0)));
        b.link(tx, 0, rx, 0, LinkParams::gigabit(SimDuration::micros(10)));
        let mut net = b.build(&[0, 1]);
        // Delivery would land at 10672 ns; stop the clock before it.
        net.run_until(SimTime(5_000));
        assert_eq!(net.now(), SimTime(5_000));
        assert_eq!(net.device::<Probe>(rx).heard.len(), 0);
        // Resuming picks the frame back up.
        net.run_until(SimTime(20_000));
        assert_eq!(net.device::<Probe>(rx).heard, vec![(SimTime(10_672), PortNo(0))]);
        assert_eq!(net.now(), SimTime(20_000));
    }

    #[test]
    fn single_shard_build_needs_no_threads() {
        let mut b = ShardedBuilder::new(1);
        let tx = b.add(Box::new(Shot { name: "tx".into() }));
        let rx = b.add(Box::new(Probe::new("rx", 0)));
        b.link(tx, 0, rx, 0, LinkParams::default());
        let mut net = b.build(&[0, 0]);
        assert_eq!(net.lookahead(), None);
        assert!(net.run_until_idle(SimTime(u64::MAX)));
        assert_eq!(net.stats().frames_delivered, 1);
        assert!(net.shard_stats()[0].cross_out == 0);
    }

    #[test]
    fn shard_stats_account_for_boundary_traffic() {
        let mut b = ShardedBuilder::new(2);
        let tx = b.add(Box::new(Shot { name: "tx".into() }));
        let rx = b.add(Box::new(Probe::new("rx", 1)));
        b.link(tx, 0, rx, 0, LinkParams::gigabit(SimDuration::micros(1)));
        let mut net = b.build(&[0, 1]);
        net.run_until_idle(SimTime(u64::MAX));
        let stats = net.shard_stats();
        assert_eq!(stats.len(), 2);
        // Shot crosses 0→1, echo crosses 1→0.
        assert_eq!((stats[0].cross_out, stats[0].cross_in), (1, 1));
        assert_eq!((stats[1].cross_out, stats[1].cross_in), (1, 1));
        assert_eq!(stats[0].devices, 1);
        assert_eq!(stats[1].devices, 1);
    }
}
