//! Sharded simulation: the network partitioned into shards that run
//! in turn, synchronized by **conservative lookahead** on link delays.
//!
//! # Design
//!
//! The single [`crate::Network`] processes one global event heap. This
//! module splits the device graph into `N` shards, each a complete
//! `Network` of its own (own heap, own clock, own links), and runs them
//! one after another in lock-step *windows* — the Chandy–Misra–Bryant
//! discipline specialized to fixed link delays. It is the single
//! engine's test twin: what it proves is that cutting the graph, the
//! boundary exchange and the window agreement change no delivery.
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
//!    propagation), in its own outbox. Nothing is encoded: the
//!    destination shard schedules the very object the single engine
//!    would have delivered, with [`Network::inject_at`].
//! 3. The **lookahead** `L` is the minimum propagation delay over all
//!    cut links. Shard `j` cannot *act* before `eff(j)` — the earlier
//!    of its own next event and the earliest boundary frame deposited
//!    for it — and cannot *react* to this window's traffic before the
//!    global floor `W` plus `L`. So nothing reaches shard `i` before
//!    its *horizon* `min(min over j ≠ i of eff(j), W + L) + L`.
//! 4. Each **round** is one exchange: every shard's `eff` is its next
//!    event folded with the earliest frame in its inbox, the horizons
//!    are computed once from those, and every inbox is injected in
//!    canonical order. Then the shards run to their horizons in index
//!    order, and each shard's stubs hand their frames to the
//!    destinations' inboxes — so a frame sent in one window is in its
//!    destination's queue before the next window runs. Rounds repeat
//!    until the floor passes the run bound.
//!
//! # Determinism
//!
//! Every engine — the single one or a shard — orders same-instant
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
//! pure function of the scenario — the order the shards run in within
//! a window never reorders anything. The observable contract, which
//! `tests/sharded_equivalence.rs` pins and `difftest` fuzzes, is
//! **trace identity**: the merged, timestamp-sorted delivery trace
//! ([`DeliveryTracer`]) of a sharded run is byte-for-byte identical to
//! the single engine's on the same scenario.
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

/// One window agreement as a pure function of the exchanged state:
/// `eff[j]` is the earliest instant shard `j` can act — the earlier of
/// its next pending event and the earliest boundary frame deposited for
/// it this exchange (`u64::MAX` when neither exists) — and `lookahead`
/// is the cheapest cut link's propagation delay `L` (`u64::MAX` when
/// nothing is cut). Returns `(w_start, horizons)`: the global window
/// floor `W` and every shard's exclusive execution horizon.
///
/// The Chandy–Misra–Bryant argument with one global `L`: another shard
/// `j` cannot *act* before `eff(j)`, and cannot *react* to this
/// window's traffic before `W + L`, so nothing it emits reaches shard
/// `i` before `min(eff(j), W + L) + L`. Shard `i`'s horizon is
/// `min(min over j ≠ i of eff(j), W + L) + L`. Every deposited frame is
/// in its destination's queue before the window runs, so no frame bound
/// for `i` needs a cap of its own. Saturating arithmetic makes an idle
/// fabric and an uncut one run unbounded.
fn global_window(lookahead: u64, eff: &[u64]) -> (u64, Vec<u64>) {
    let w = eff.iter().copied().min().unwrap_or(u64::MAX);
    let react = w.saturating_add(lookahead);
    let horizons = (0..eff.len())
        .map(|i| {
            let min_other = eff.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, &e)| e).min();
            min_other.unwrap_or(u64::MAX).min(react).saturating_add(lookahead)
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
/// `TxDone` instant (the half-link has zero propagation) and keeps
/// them until the round loop moves them to their destination's inbox.
struct BoundaryStub {
    name: String,
    link: usize,
    dir: Dir,
    propagation: SimDuration,
    dst_shard: usize,
    dst_node: NodeId,
    dst_port: PortNo,
    seq: u64,
    /// This window's frames; drained after every window.
    outbox: Vec<RemoteMsg>,
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
        self.outbox.push(msg);
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
    /// Local ids of this shard's boundary stubs.
    stubs: Vec<NodeId>,
    /// Cross-shard frames for this shard, injected at the next round.
    inbox: Vec<RemoteMsg>,
    /// Real (non-stub) devices in this shard.
    devices: usize,
    /// Cross-shard frames sent over the whole run.
    cross_out: u64,
    /// Cross-shard frames received over the whole run.
    cross_in: u64,
}

/// Per-shard execution counters.
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
/// same insertion order as the single engine's builder, so a scenario
/// built both ways gets identical ids — which is what makes the two
/// engines' traces directly comparable.
pub struct ShardedBuilder {
    shards: usize,
    devices: Vec<Box<dyn Device>>,
    links: Vec<(Endpoint, Endpoint, LinkParams)>,
    record_deliveries: bool,
}

impl ShardedBuilder {
    /// An empty builder that will split its network into `shards`.
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
    /// ([`set_unsound_horizon_widen`]) as it is now.
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

        // Conservative lookahead: the cheapest cut link bounds how far
        // any shard may run ahead of the others.
        let mut lookahead = u64::MAX;
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
                lookahead = lookahead.min(params.propagation.as_nanos());
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
            // *global* identity, as the single engine would.
            builders[s].set_node_order_key(lid, g as u64);
            local2global[s].push(Some(NodeId(g)));
        }
        let device_counts = counts;

        let mut stubs: Vec<Vec<NodeId>> = vec![Vec::new(); shards];
        let mut links = Vec::with_capacity(self.links.len());
        let mut stub_count = 0usize;
        for (gid, &(ea, eb, params)) in self.links.iter().enumerate() {
            let (sa, sb) = (assignment[ea.node.0], assignment[eb.node.0]);
            // The canonical wire ids of this link's two directions,
            // exactly as the single engine derives them from
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
                        outbox: Vec::new(),
                    }));
                    stubs[ss].push(stub);
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
                    // identical to the single engine's Deliver key.
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
            .zip(stubs)
            .zip(device_counts)
            .map(|((builder, stubs), devices)| Shard {
                net: builder.build(),
                stubs,
                inbox: Vec::new(),
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
            horizon_widen_ns: UNSOUND_HORIZON_WIDEN_NS.get(),
            sync_rounds: 0,
            now: SimTime::ZERO,
        }
    }
}

/// A partitioned network running its shards in turn on the caller's
/// thread. Its clock, counters, devices, link counters and link admin
/// are its [`Engine`] surface, shared with the single [`Network`] (link
/// admin on a cut link panics; see the module docs).
pub struct ShardedNetwork {
    shards: Vec<Shard>,
    /// Global node id → shard.
    assignment: Vec<usize>,
    /// Global node id → shard-local node id.
    local_id: Vec<NodeId>,
    /// Global link table, in builder insertion order.
    links: Vec<GlobalLink>,
    /// Minimum cross-shard propagation delay in nanoseconds
    /// (`u64::MAX`: nothing is cut).
    lookahead: u64,
    /// Test-only horizon widening captured at build time.
    horizon_widen_ns: u64,
    /// Synchronization rounds (window exchanges) across all runs.
    sync_rounds: u64,
    now: SimTime,
}

impl ShardedNetwork {
    /// Total synchronization rounds (one window exchange each) the run
    /// loops have performed, across all [`ShardedNetwork::run_until`] /
    /// [`ShardedNetwork::run_until_idle`] calls: how often the shards
    /// had to agree on a window.
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
    /// lookahead windows.
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

    /// Per-shard execution counters, in shard order.
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
    /// single engine's [`DeliveryTracer`] rendering of the same
    /// scenario. Empty unless
    /// [`ShardedBuilder::record_delivery_trace`] was enabled.
    pub fn delivery_trace(&self) -> Vec<String> {
        DeliveryTracer::render_sorted(
            self.shards.iter().flat_map(|s| s.net.delivery_records()).collect(),
        )
    }

    /// Drive all shards through lookahead windows until nothing at or
    /// before `bound` remains anywhere. Each round agrees on the window
    /// and injects every inbox, then runs the shards in index order,
    /// each to its horizon, and moves their boundary frames into the
    /// destinations' inboxes for the next round.
    fn run_windows(&mut self, bound: SimTime) {
        if self.shards.len() == 1 {
            let net = &mut self.shards[0].net;
            while net.step_batch(bound) {}
            return;
        }
        let mut mail: Vec<RemoteMsg> = Vec::new();
        loop {
            let eff: Vec<u64> = self
                .shards
                .iter()
                .map(|s| {
                    let next = s.net.next_event_time().map_or(u64::MAX, |t| t.0);
                    s.inbox.iter().map(|m| m.time.0).fold(next, u64::min)
                })
                .collect();
            let (w_start, horizons) = global_window(self.lookahead, &eff);
            self.sync_rounds += 1;

            // Ingest in the canonical deterministic order before
            // anything runs — at the final round too, so no frame
            // outlives the run.
            for shard in &mut self.shards {
                shard.inbox.sort_unstable_by_key(RemoteMsg::order_key);
                shard.cross_in += shard.inbox.len() as u64;
                for msg in shard.inbox.drain(..) {
                    shard.net.inject_at(msg.time, msg.node, msg.port, msg.frame);
                }
            }
            if w_start == u64::MAX || w_start > bound.0 {
                return;
            }

            for (i, horizon) in horizons.into_iter().enumerate() {
                // Execute up to the horizon — the earliest instant
                // anything can still arrive from outside (see
                // `global_window` for the CMB argument).
                //
                // Test-only fault injection: difftest's self-check
                // widens the horizon past what CMB permits to prove the
                // harness catches unsound lookahead. Always zero in
                // production.
                let horizon = horizon.saturating_add(self.horizon_widen_ns);
                let run_bound = SimTime(horizon.saturating_sub(1).min(bound.0));
                let shard = &mut self.shards[i];
                while shard.net.step_batch(run_bound) {}

                // This window's boundary frames wait in their
                // destinations' inboxes for the next round.
                for &stub in &shard.stubs {
                    mail.append(&mut shard.net.device_mut::<BoundaryStub>(stub).outbox);
                }
                shard.cross_out += mail.len() as u64;
                debug_assert!(
                    mail.iter().all(|m| m.time.0 >= w_start.saturating_add(self.lookahead)),
                    "a boundary frame violates the lookahead promise of window {w_start}"
                );
                for msg in mail.drain(..) {
                    self.shards[msg.dst_shard].inbox.push(msg);
                }
            }
        }
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
    /// frame are subtracted to match the single engine's accounting.
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
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn global_window_bounds_every_shard_at_the_cheapest_cut() {
        // Chain 0—1—2 cut at 1 µs and 30 µs: shards 0 and 2 share no
        // cut, yet the builder's one lookahead is the cheaper cut.
        let mut b = ShardedBuilder::new(3);
        let chain: Vec<_> =
            (0..3).map(|i| b.add(Box::new(Probe::new(&format!("c{i}"), 0)))).collect();
        b.link(chain[0], 0, chain[1], 0, LinkParams::gigabit(SimDuration::micros(1)));
        b.link(chain[1], 1, chain[2], 0, LinkParams::gigabit(SimDuration::micros(30)));
        let chain_l = b.build(&[0, 1, 2]).lookahead;
        assert_eq!(chain_l, 1_000);

        const MAX: u64 = u64::MAX;
        let cases = [
            // Shard 1 has nothing pending: it emits no earlier than
            // W + L, so shard 0 runs to W + 2L.
            ("an idle neighbour bounds at W + L", 1_000, vec![100, MAX], 100, vec![2_100, 1_100]),
            ("nothing pending anywhere", 1_000, vec![MAX, MAX, MAX], MAX, vec![MAX, MAX, MAX]),
            ("no cut link", MAX, vec![100, 450], 100, vec![MAX, MAX]),
            // Shard 0's event at 0 bounds shard 2 at L even though no
            // cut joins them.
            (
                "shard 0 bounds shard 2",
                chain_l,
                vec![0, 500_000, 600_000],
                0,
                vec![2_000, 1_000, 1_000],
            ),
        ];
        for (case, lookahead, eff, w, horizons) in cases {
            assert_eq!(global_window(lookahead, &eff), (w, horizons), "{case}");
        }
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
        // A device that panics mid-run on one shard: the panic must
        // propagate out of `run_until`, never hang or be swallowed.
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
        // Only one shard's device panics; the other shard goes idle.
        let mut b = ShardedBuilder::new(2);
        let x = b.add(Box::new(Bomb { armed: true }));
        let y = b.add(Box::new(Bomb { armed: false }));
        b.link(x, 0, y, 0, LinkParams::gigabit(SimDuration::micros(1)));
        let mut net = b.build(&[0, 1]);
        let result = catch_unwind(AssertUnwindSafe(|| {
            net.run_until(SimTime(1_000_000));
        }));
        // What matters is that the call RETURNS and returns Err.
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
        assert_eq!(net.lookahead, 3_000);
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
        assert_eq!(net.lookahead, u64::MAX);
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
