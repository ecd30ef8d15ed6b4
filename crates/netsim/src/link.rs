//! Point-to-point full-duplex links with serialization, propagation and
//! configurable transmit queueing — the three delay terms whose sum the
//! ARP race minimizes, plus the congestion machinery (finite queues,
//! PFC pause/resume) that experiment E9 studies.
//!
//! # Layout
//!
//! Every frame hop reads link state twice — once to send, once to
//! deliver — and a fabric has thousands of links, so each read is a
//! cache miss. A [`Link`] is four 64-byte lines (`repr(C)`, 64-byte
//! aligned), laid out so that a hop touches as few as it can:
//!
//! * the **shared line** — `a`, `b`, `epoch`, `up`, bandwidth,
//!   propagation — is all a delivery reads, and the first of the two
//!   lines a send reads;
//! * the second line holds the rest of [`LinkParams`], the queue policy
//!   and the pause watchdog, read only when a direction first queues,
//!   drops or pauses, and when a pause arms the watchdog;
//! * each direction's **hot line** — `busy_until`, the busy/frame/byte
//!   counters every transmission bumps, the queued byte count, the
//!   in-flight length and the five state flags — is the other line a
//!   send reads.
//!
//! The transmit queue, the pause bookkeeping and the counters that only
//! move on drops and pauses live out of line, in a per-direction record
//! allocated the first time that direction queues, drops or pauses;
//! the hot line holds the pointer and mirrors the queue's byte count,
//! so a send that finds the transmitter idle and the queue empty never
//! follows it. Most directions of a fabric never allocate a record
//! ([`crate::Network::link_state_bytes`] counts those that do). The
//! `layout` tests pin the offsets and the four-line size.

use crate::device::{NodeId, PortNo};
use crate::time::{SimDuration, SimTime};
use arppath_wire::EthernetFrame;
use std::collections::VecDeque;

/// Identifies a link within one network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub usize);

/// Direction across a link: A→B or B→A. Each direction has independent
/// transmit machinery (full duplex).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// From endpoint A toward endpoint B.
    AtoB,
    /// From endpoint B toward endpoint A.
    BtoA,
}

impl Dir {
    /// The opposite direction.
    pub fn flip(self) -> Dir {
        match self {
            Dir::AtoB => Dir::BtoA,
            Dir::BtoA => Dir::AtoB,
        }
    }

    /// Stable array index of the direction (`AtoB` = 0, `BtoA` = 1);
    /// the sharded engine uses it as part of the deterministic ordering
    /// key for frames crossing shard boundaries.
    pub fn index(self) -> usize {
        match self {
            Dir::AtoB => 0,
            Dir::BtoA => 1,
        }
    }
}

/// Admission policy of a per-direction transmit queue.
///
/// `Infinite` is the default and preserves the repository's historical
/// open-loop behaviour: every experiment table E1–E8 is produced with
/// unbounded queues, so congestion never perturbs the ARP race unless a
/// scenario opts in. The finite policies are the E9 congestion study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueuePolicy {
    /// Unbounded queue: frames are never dropped for lack of space.
    #[default]
    Infinite,
    /// Drop-tail: a frame that would push the queue past either cap is
    /// dropped at enqueue time and counted in
    /// [`DirStats::dropped_queue_full`].
    DropTail {
        /// Capacity in bytes of queued frame data (wire length).
        max_bytes: usize,
        /// Capacity in frames.
        max_frames: usize,
    },
    /// Priority-flow-control flavoured backpressure: the queue itself
    /// is unbounded (lossless), but when its depth crosses
    /// `pause_bytes` the engine synthesizes pause frames toward the
    /// devices feeding it, and resume frames once it drains back to
    /// `resume_bytes`.
    Pfc {
        /// Queue depth (bytes) at which pause is asserted.
        pause_bytes: usize,
        /// Queue depth (bytes) at or below which pause is released.
        resume_bytes: usize,
    },
}

impl QueuePolicy {
    /// A drop-tail queue capped in bytes only.
    pub fn drop_tail(max_bytes: usize) -> Self {
        QueuePolicy::DropTail { max_bytes, max_frames: usize::MAX }
    }

    /// A PFC queue with the conventional hysteresis pair
    /// (`resume = pause / 2`).
    pub fn pfc(pause_bytes: usize) -> Self {
        QueuePolicy::Pfc { pause_bytes, resume_bytes: pause_bytes / 2 }
    }
}

/// What a transmitter does when a PFC pause outlives its deadline.
///
/// PFC's pause fan-out plus learned paths that are not up/down can form
/// cyclic buffer dependencies: every transmitter on the cycle waits for
/// a resume that can only come from another paused transmitter, and the
/// fabric wedges (E9's incast at k ≥ 6). Production fabrics break such
/// cycles with a pause watchdog; this is the simulator's. `Off` is the
/// default, so no pre-existing scenario changes behaviour.
///
/// A fire is accounted per direction ([`DirStats::watchdog_fires`]) and
/// engine-wide (`NetworkStats::watchdog_fires`), and synthesized into
/// the delivery trace as a constant-byte wire event so sharded runs
/// stay byte-identical to single-threaded ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PauseWatchdog {
    /// No watchdog: a pause lasts until the matching resume arrives
    /// (the pre-PR-7 behaviour, deadlocks included).
    #[default]
    Off,
    /// After `deadline` of continuous pause, force the transmitter to
    /// resume as if a resume frame had arrived. Lossless: queued frames
    /// stay queued and drain normally.
    ForceResume {
        /// Continuous pause duration that triggers the watchdog.
        deadline: SimDuration,
    },
    /// After `deadline` of continuous pause, drop the queued frames
    /// (counted in [`DirStats::dropped_watchdog`]) and resume. Trades
    /// loss for immediately freed buffer space.
    DrainAndDrop {
        /// Continuous pause duration that triggers the watchdog.
        deadline: SimDuration,
    },
}

impl PauseWatchdog {
    /// A forced-resume watchdog with the given deadline.
    pub fn force_resume(deadline: SimDuration) -> Self {
        PauseWatchdog::ForceResume { deadline }
    }

    /// The deadline, if the watchdog is armed at all.
    pub fn deadline(self) -> Option<SimDuration> {
        match self {
            PauseWatchdog::Off => None,
            PauseWatchdog::ForceResume { deadline } | PauseWatchdog::DrainAndDrop { deadline } => {
                Some(deadline)
            }
        }
    }
}

/// Verdict of [`PortQueue::try_enqueue`]: either the frame was queued,
/// or it is handed back so the caller can count and trace the drop.
#[derive(Debug)]
pub enum Admission {
    /// The frame was accepted into the queue.
    Queued,
    /// The frame was refused (drop-tail cap); returned to the caller.
    Dropped(EthernetFrame),
}

/// One direction's transmit queue, admission policy included.
///
/// This is the exact structure the engine uses behind [`Link`]; it is
/// public so the drop-tail property suite
/// (`crates/netsim/tests/queue_oracle.rs`) can exercise the real
/// admission logic against a naive reference model.
#[derive(Debug, Default)]
pub struct PortQueue {
    bytes: usize,
    peak_bytes: usize,
    policy: QueuePolicy,
    queue: VecDeque<EthernetFrame>,
}

impl PortQueue {
    /// An empty queue under `policy`.
    pub fn new(policy: QueuePolicy) -> Self {
        PortQueue { policy, ..Default::default() }
    }

    /// The admission policy.
    pub fn policy(&self) -> QueuePolicy {
        self.policy
    }

    /// Frames currently queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no frames are queued. Read off the byte count: every
    /// frame is at least 60 bytes on the wire.
    pub fn is_empty(&self) -> bool {
        self.bytes == 0
    }

    /// Bytes of frame data (wire length) currently queued.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// High-water mark of [`Self::bytes`] over the queue's lifetime.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Admit `frame` under the policy, or hand it back.
    pub fn try_enqueue(&mut self, frame: EthernetFrame) -> Admission {
        let len = frame.wire_len();
        if let QueuePolicy::DropTail { max_bytes, max_frames } = self.policy {
            if self.bytes + len > max_bytes || self.queue.len() >= max_frames {
                return Admission::Dropped(frame);
            }
        }
        self.bytes += len;
        self.peak_bytes = self.peak_bytes.max(self.bytes);
        self.queue.push_back(frame);
        Admission::Queued
    }

    /// Dequeue the frame at the head, if any.
    pub fn pop(&mut self) -> Option<EthernetFrame> {
        let frame = self.queue.pop_front()?;
        self.bytes -= frame.wire_len();
        Some(frame)
    }

    /// Drop every queued frame, returning how many were discarded.
    pub fn clear(&mut self) -> usize {
        let n = self.queue.len();
        self.queue.clear();
        self.bytes = 0;
        n
    }

    /// True when a PFC policy says this depth warrants a pause.
    pub fn above_pause(&self) -> bool {
        matches!(self.policy, QueuePolicy::Pfc { pause_bytes, .. } if self.bytes >= pause_bytes)
    }

    /// True when a PFC policy says the queue has drained enough to
    /// release an asserted pause.
    pub fn below_resume(&self) -> bool {
        matches!(self.policy, QueuePolicy::Pfc { resume_bytes, .. } if self.bytes <= resume_bytes)
    }
}

/// Physical parameters of a link. The two every transmission reads
/// come first, so they close [`Link`]'s shared line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct LinkParams {
    /// Line rate in bits per second (default 1 Gbit/s, the NetFPGA demo
    /// rate).
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub propagation: SimDuration,
    /// Transmit queue admission policy, per direction.
    pub queue: QueuePolicy,
    /// Pause-deadlock watchdog, per direction (PFC policies only; a
    /// transmitter that is never paused never arms it).
    pub watchdog: PauseWatchdog,
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams {
            bandwidth_bps: 1_000_000_000,
            // A few metres of copper patch in the demo rack.
            propagation: SimDuration::nanos(500),
            queue: QueuePolicy::Infinite,
            watchdog: PauseWatchdog::Off,
        }
    }
}

impl LinkParams {
    /// A 1 Gbit/s link with the given propagation delay.
    pub fn gigabit(propagation: SimDuration) -> Self {
        LinkParams { propagation, ..Default::default() }
    }

    /// The same link with the given queue policy.
    pub fn with_queue(self, queue: QueuePolicy) -> Self {
        LinkParams { queue, ..self }
    }

    /// The same link with the given pause watchdog.
    pub fn with_watchdog(self, watchdog: PauseWatchdog) -> Self {
        LinkParams { watchdog, ..self }
    }

    /// The same link with its propagation delay stripped. The sharded
    /// engine models the sender-side *half* of a cross-shard link this
    /// way: serialization and queueing are simulated in the sender's
    /// shard (they only depend on sender-side state), while the
    /// propagation term is added when the frame is re-injected into the
    /// receiver's shard — and doubles as the conservative lookahead
    /// that makes the partition safe.
    pub fn without_propagation(self) -> Self {
        LinkParams { propagation: SimDuration::ZERO, ..self }
    }

    /// Serialization time of `frame` on this link, including preamble,
    /// FCS and inter-frame gap.
    pub fn serialization(&self, frame: &EthernetFrame) -> SimDuration {
        // bits · 10⁹ / bps. The product fits in u64 for any frame short
        // of ~2 GB, so the u128 division (a library call, not an
        // instruction) is only the overflow fallback.
        let bits = frame.wire_bits();
        let ns = match bits.checked_mul(1_000_000_000) {
            Some(scaled) => scaled / self.bandwidth_bps,
            None => (u128::from(bits) * 1_000_000_000 / u128::from(self.bandwidth_bps)) as u64,
        };
        SimDuration::nanos(ns)
    }
}

/// One endpoint of a link: a (device, port) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Endpoint {
    /// The attached device.
    pub node: NodeId,
    /// The device-local port.
    pub port: PortNo,
}

/// Per-direction transmit counters, exposed for the load-distribution
/// experiment (E5), utilization reports and the E9 congestion tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirStats {
    /// Frames fully transmitted.
    pub tx_frames: u64,
    /// Bytes of frame data transmitted (excluding preamble/IFG).
    pub tx_bytes: u64,
    /// Frames dropped because the queue was full.
    pub dropped_queue_full: u64,
    /// Frames dropped because the link was down when sent or in flight.
    pub dropped_link_down: u64,
    /// Accumulated busy time of the transmitter.
    pub busy: SimDuration,
    /// Times this transmitter was halted by a PFC pause frame.
    pub pause_events: u64,
    /// Accumulated time this transmitter spent pause-halted.
    pub paused_for: SimDuration,
    /// High-water mark of the transmit queue, in bytes.
    pub peak_queue_bytes: u64,
    /// Times the pause watchdog fired on this transmitter.
    pub watchdog_fires: u64,
    /// Frames discarded by a `DrainAndDrop` watchdog fire.
    pub dropped_watchdog: u64,
}

/// The [`DirStats`] counters that move only when a frame drops or a
/// pause starts, ends or times out. (`busy`, `tx_frames` and
/// `tx_bytes` move on every frame and live on the direction's hot
/// line; the peak queue depth is the queue's own
/// [`PortQueue::peak_bytes`]; [`Link::stats`] puts them together.)
#[derive(Debug, Default)]
pub(crate) struct RareStats {
    pub dropped_queue_full: u64,
    pub dropped_link_down: u64,
    pub pause_events: u64,
    pub paused_for: SimDuration,
    pub watchdog_fires: u64,
    pub dropped_watchdog: u64,
}

/// What one direction needs only once it has queued, dropped or been
/// paused: the transmit queue, the pause bookkeeping and the rare
/// counters. Allocated the first time any of them is written; most
/// directions of a fabric never allocate one.
#[derive(Debug, Default)]
pub(crate) struct DirRecord {
    /// Frames awaiting the transmitter, under the link's queue policy.
    pub queue: PortQueue,
    /// When the current pause began (for `DirStats::paused_for`).
    pub pause_started: Option<SimTime>,
    /// Bumped every time a pause takes hold; a pending watchdog event
    /// carries the generation it was armed under and is ignored if the
    /// pause it guarded has since been released (or replaced).
    pub pause_gen: u64,
    /// The drop and pause counters.
    pub stats: RareStats,
}

/// One direction's transmit state: exactly one cache line.
///
/// A frame in flight is `transmitting` from `start_tx` until its
/// completion is *applied*, which the engine does lazily: a completion
/// with nothing to do (no queued successor, no PFC release to check)
/// has no event, and is applied ("settled") the next time anything
/// reads this state at or after its canonical position
/// `(busy_until, TxDone key)`, or at the next run boundary.
///
/// The queue itself lives in the out-of-line [`DirRecord`]; the line
/// mirrors its byte count in `queued_bytes`, so a transmission that
/// finds the queue empty never follows the pointer. Every queue
/// mutation goes through [`DirState::enqueue`], [`DirState::pop`] or
/// [`DirState::clear_queue`], which keep the mirror exact.
#[derive(Debug, Default)]
#[repr(C, align(64))]
pub(crate) struct DirState {
    /// When the in-flight frame's last bit leaves the MAC.
    pub busy_until: SimTime,
    /// Accumulated busy time of the transmitter ([`DirStats::busy`]).
    pub busy: SimDuration,
    /// Frames fully transmitted ([`DirStats::tx_frames`]).
    pub tx_frames: u64,
    /// Bytes fully transmitted ([`DirStats::tx_bytes`]).
    pub tx_bytes: u64,
    /// Bytes queued behind the transmitter: the queue's
    /// [`PortQueue::bytes`], or 0 with no record. Every frame is at
    /// least 60 bytes on the wire, so 0 means empty.
    pub queued_bytes: usize,
    /// Wire length of the in-flight frame, credited to `tx_bytes` on
    /// completion.
    pub in_flight_len: u32,
    /// A frame's completion is outstanding (it may already be due —
    /// see `Network::settle`).
    pub transmitting: bool,
    /// A `TxDone` event is queued for the in-flight frame; otherwise
    /// its completion is elided.
    pub done_scheduled: bool,
    /// This direction is on the engine's list of elided completions to
    /// settle at the next run boundary.
    pub listed: bool,
    /// Transmitter halted by a pause frame from the downstream device.
    /// An in-flight frame finishes; the next one waits for resume.
    pub paused: bool,
    /// This direction's queue has an unreleased pause asserted toward
    /// the devices feeding it (PFC policy only).
    pub pause_asserted: bool,
    /// The queue, pause bookkeeping and rare counters, once needed.
    record: Option<Box<DirRecord>>,
}

impl DirState {
    /// The in-flight frame's last bit left the MAC: free the
    /// transmitter and credit the frame.
    pub(crate) fn complete_tx(&mut self) {
        self.transmitting = false;
        self.done_scheduled = false;
        self.tx_frames += 1;
        self.tx_bytes += u64::from(self.in_flight_len);
    }

    /// The out-of-line record, allocated on first use with a queue
    /// under `policy` (the link's [`LinkParams::queue`]).
    pub(crate) fn record(&mut self, policy: QueuePolicy) -> &mut DirRecord {
        self.record.get_or_insert_with(|| {
            Box::new(DirRecord { queue: PortQueue::new(policy), ..Default::default() })
        })
    }

    /// The out-of-line record, if this direction ever needed one.
    pub(crate) fn existing_record(&self) -> Option<&DirRecord> {
        self.record.as_deref()
    }

    /// Admit `frame` to the queue under `policy`, or hand it back.
    pub(crate) fn enqueue(&mut self, frame: EthernetFrame, policy: QueuePolicy) -> Admission {
        let queue = &mut self.record(policy).queue;
        let admission = queue.try_enqueue(frame);
        self.queued_bytes = queue.bytes();
        admission
    }

    /// Dequeue the frame at the head, if any.
    pub(crate) fn pop(&mut self) -> Option<EthernetFrame> {
        if self.queued_bytes == 0 {
            return None;
        }
        let queue = &mut self.record.as_mut()?.queue;
        let frame = queue.pop();
        self.queued_bytes = queue.bytes();
        frame
    }

    /// Drop every queued frame, returning how many were discarded.
    pub(crate) fn clear_queue(&mut self) -> usize {
        if self.queued_bytes == 0 {
            return 0;
        }
        self.queued_bytes = 0;
        self.record.as_mut().map_or(0, |rec| rec.queue.clear())
    }

    /// True when a PFC policy says the queue's depth warrants a pause.
    pub(crate) fn above_pause(&self) -> bool {
        self.record.as_ref().is_some_and(|rec| rec.queue.above_pause())
    }

    /// True when a PFC policy says the queue has drained enough to
    /// release an asserted pause.
    pub(crate) fn below_resume(&self) -> bool {
        self.record.as_ref().is_some_and(|rec| rec.queue.below_resume())
    }

    /// Close an open pause interval at `now` into `paused_for`.
    pub(crate) fn end_pause(&mut self, now: SimTime) {
        if let Some(rec) = self.record.as_mut() {
            if let Some(started) = rec.pause_started.take() {
                rec.stats.paused_for = rec.stats.paused_for + SimDuration::nanos(now.0 - started.0);
            }
        }
    }
}

/// A full-duplex point-to-point link: four cache lines.
///
/// Field order is the layout (see the module docs): everything down to
/// the first two fields of `params` is the shared line, the rest of
/// `params` the second line, and each direction's hot line follows.
#[derive(Debug)]
#[repr(C, align(64))]
pub struct Link {
    /// Endpoint A (first argument of the builder call).
    pub a: Endpoint,
    /// Endpoint B.
    pub b: Endpoint,
    /// Incremented on every state flip; in-flight deliveries carry the
    /// epoch they were launched under and are discarded if it changed
    /// (a cable cut loses the bits already on the wire).
    pub epoch: u64,
    /// Administrative + operational state.
    pub up: bool,
    /// Physical parameters (shared by both directions).
    pub params: LinkParams,
    pub(crate) dirs: [DirState; 2],
}

impl Link {
    pub(crate) fn new(a: Endpoint, b: Endpoint, params: LinkParams) -> Self {
        Link { a, b, epoch: 0, up: true, params, dirs: Default::default() }
    }

    /// The endpoint a frame travelling in `dir` arrives at.
    pub fn receiver(&self, dir: Dir) -> Endpoint {
        match dir {
            Dir::AtoB => self.b,
            Dir::BtoA => self.a,
        }
    }

    /// The endpoint that transmits in `dir`.
    pub fn sender(&self, dir: Dir) -> Endpoint {
        match dir {
            Dir::AtoB => self.a,
            Dir::BtoA => self.b,
        }
    }

    /// Counters for one direction. `tx_frames`/`tx_bytes` count
    /// completed serializations as of the last run boundary (the end
    /// of `run_until`, `run_until_idle`, `run_for` or `step`).
    pub fn stats(&self, dir: Dir) -> DirStats {
        let d = &self.dirs[dir.index()];
        let hot = DirStats {
            tx_frames: d.tx_frames,
            tx_bytes: d.tx_bytes,
            busy: d.busy,
            ..DirStats::default()
        };
        let Some(rec) = d.existing_record() else {
            return hot;
        };
        let rare = &rec.stats;
        DirStats {
            dropped_queue_full: rare.dropped_queue_full,
            dropped_link_down: rare.dropped_link_down,
            pause_events: rare.pause_events,
            paused_for: rare.paused_for,
            peak_queue_bytes: rec.queue.peak_bytes() as u64,
            watchdog_fires: rare.watchdog_fires,
            dropped_watchdog: rare.dropped_watchdog,
            ..hot
        }
    }

    /// Current depth of one direction's transmit queue as
    /// `(frames, bytes)` — the E9 queue-depth sampler's source.
    pub fn queue_depth(&self, dir: Dir) -> (usize, usize) {
        self.dirs[dir.index()]
            .existing_record()
            .map_or((0, 0), |rec| (rec.queue.len(), rec.queue.bytes()))
    }

    /// True while `dir`'s transmitter is halted by a pause frame.
    pub fn is_paused(&self, dir: Dir) -> bool {
        self.dirs[dir.index()].paused
    }

    /// Accumulated pause-halt time of `dir` as of `now`, *including* a
    /// still-open pause interval. `DirStats::paused_for` alone only
    /// counts closed intervals, which undercounts links that are still
    /// paused when the run ends (a persistently back-pressured or
    /// deadlocked fabric).
    pub fn paused_for(&self, dir: Dir, now: SimTime) -> SimDuration {
        let d = &self.dirs[dir.index()];
        let Some(rec) = d.existing_record() else {
            return SimDuration::ZERO;
        };
        match (d.paused, rec.pause_started) {
            (true, Some(started)) => rec.stats.paused_for + SimDuration::nanos(now.0 - started.0),
            _ => rec.stats.paused_for,
        }
    }

    /// Combined counters of both directions.
    pub fn total_tx_frames(&self) -> u64 {
        self.dirs[0].tx_frames + self.dirs[1].tx_frames
    }

    /// Heap bytes of the out-of-line records this link's directions
    /// allocated (0, 1 or 2 records of [`DirRecord`]).
    pub(crate) fn out_of_line_bytes(&self) -> usize {
        self.dirs.iter().filter(|d| d.existing_record().is_some()).count()
            * std::mem::size_of::<DirRecord>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arppath_wire::{ArpPacket, EtherType, MacAddr, Payload};
    use std::net::Ipv4Addr;

    fn min_frame() -> EthernetFrame {
        EthernetFrame::arp_request(
            MacAddr::from_index(1, 1),
            ArpPacket::request(
                MacAddr::from_index(1, 1),
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
            ),
        )
    }

    /// The layout the module docs promise, pinned field by field.
    mod layout {
        use super::*;
        use std::mem::{align_of, offset_of, size_of};

        const LINE: usize = 64;

        #[test]
        fn a_link_is_four_lines() {
            assert_eq!(align_of::<Link>(), LINE);
            assert!(size_of::<Link>() <= 4 * LINE, "{} B", size_of::<Link>());
        }

        #[test]
        fn a_send_and_a_delivery_read_one_shared_line_of_the_link() {
            assert!(offset_of!(Link, a) + size_of::<Endpoint>() <= LINE);
            assert!(offset_of!(Link, b) + size_of::<Endpoint>() <= LINE);
            assert!(offset_of!(Link, epoch) + size_of::<u64>() <= LINE);
            assert!(offset_of!(Link, up) + size_of::<bool>() <= LINE);
            let params = offset_of!(Link, params);
            assert!(params + offset_of!(LinkParams, bandwidth_bps) + size_of::<u64>() <= LINE);
            assert!(
                params + offset_of!(LinkParams, propagation) + size_of::<SimDuration>() <= LINE
            );
            // The rest of the parameters fill the second line, and the
            // directions start on lines of their own after it.
            assert!(params + size_of::<LinkParams>() <= 2 * LINE);
            assert_eq!(offset_of!(Link, dirs), 2 * LINE);
        }

        #[test]
        fn a_direction_keeps_everything_a_transmission_touches_on_one_line() {
            assert_eq!(align_of::<DirState>(), LINE);
            assert_eq!(size_of::<DirState>(), LINE);
            assert!(offset_of!(DirState, busy_until) + size_of::<SimTime>() <= LINE);
            assert!(offset_of!(DirState, busy) + size_of::<SimDuration>() <= LINE);
            assert!(offset_of!(DirState, tx_frames) + size_of::<u64>() <= LINE);
            assert!(offset_of!(DirState, tx_bytes) + size_of::<u64>() <= LINE);
            assert!(offset_of!(DirState, queued_bytes) + size_of::<usize>() <= LINE);
            assert!(offset_of!(DirState, in_flight_len) + size_of::<u32>() <= LINE);
            for flag in [
                offset_of!(DirState, transmitting),
                offset_of!(DirState, done_scheduled),
                offset_of!(DirState, listed),
                offset_of!(DirState, paused),
                offset_of!(DirState, pause_asserted),
            ] {
                assert!(flag < LINE);
            }
            // The queue, pause bookkeeping and rare counters are one
            // pointer away, and the pointer is on the line too.
            assert!(offset_of!(DirState, record) + size_of::<Option<Box<DirRecord>>>() <= LINE);
        }
    }

    #[test]
    fn stats_reassemble_the_hot_and_rare_counters() {
        let a = Endpoint { node: NodeId(0), port: PortNo(0) };
        let b = Endpoint { node: NodeId(1), port: PortNo(0) };
        let mut link = Link::new(a, b, LinkParams::default());
        let policy = link.params.queue;
        let d = &mut link.dirs[Dir::BtoA.index()];
        d.in_flight_len = 60;
        d.complete_tx();
        d.busy = SimDuration::nanos(672);
        assert_eq!(link.out_of_line_bytes(), 0, "nothing queued, dropped or paused yet");
        let d = &mut link.dirs[Dir::BtoA.index()];
        d.record(policy).stats.dropped_link_down = 3;
        for _ in 0..2 {
            assert!(matches!(d.enqueue(min_frame(), policy), Admission::Queued));
        }
        assert!(d.pop().is_some());
        assert_eq!(d.queued_bytes, 60, "the hot line mirrors the queue's bytes");
        let expected = DirStats {
            tx_frames: 1,
            tx_bytes: 60,
            busy: SimDuration::nanos(672),
            dropped_link_down: 3,
            peak_queue_bytes: 120,
            ..DirStats::default()
        };
        assert_eq!(link.stats(Dir::BtoA), expected);
        assert_eq!(link.queue_depth(Dir::BtoA), (1, 60));
        assert_eq!(link.stats(Dir::AtoB), DirStats::default());
        assert_eq!(link.queue_depth(Dir::AtoB), (0, 0));
        assert_eq!(link.total_tx_frames(), 1);
        assert_eq!(link.out_of_line_bytes(), std::mem::size_of::<DirRecord>());
        let d = &mut link.dirs[Dir::BtoA.index()];
        assert_eq!(d.clear_queue(), 1);
        assert_eq!((d.queued_bytes, d.pop().is_none()), (0, true));
    }

    #[test]
    fn gigabit_serialization_of_min_frame_is_672ns() {
        // 60B frame + 24B overhead = 672 bits at 1 ns/bit.
        let params = LinkParams::default();
        assert_eq!(params.serialization(&min_frame()), SimDuration::nanos(672));
    }

    #[test]
    fn serialization_scales_with_bandwidth() {
        let fast = LinkParams { bandwidth_bps: 10_000_000_000, ..Default::default() };
        let slow = LinkParams { bandwidth_bps: 100_000_000, ..Default::default() };
        assert_eq!(fast.serialization(&min_frame()), SimDuration::nanos(67)); // truncated
        assert_eq!(slow.serialization(&min_frame()), SimDuration::nanos(6720));
    }

    #[test]
    fn serialization_matches_the_u128_formula_for_every_frame_length() {
        for bps in [100_000_000, 1_000_000_000, 2_500_000_000, 10_000_000_000, 999_999_937u64] {
            let params = LinkParams { bandwidth_bps: bps, ..Default::default() };
            for len in 60..=1518 {
                let frame = EthernetFrame::new(
                    MacAddr::BROADCAST,
                    MacAddr::from_index(1, 1),
                    Payload::Raw {
                        ethertype: EtherType(0x88B6),
                        data: vec![0; len - EthernetFrame::HEADER_LEN].into(),
                    },
                );
                assert_eq!(frame.wire_len(), len);
                let exact = u128::from(frame.wire_bits()) * 1_000_000_000 / u128::from(bps);
                assert_eq!(
                    u128::from(params.serialization(&frame).as_nanos()),
                    exact,
                    "{len} B at {bps} b/s"
                );
            }
        }
    }

    #[test]
    fn receiver_and_sender_follow_direction() {
        let a = Endpoint { node: NodeId(0), port: PortNo(1) };
        let b = Endpoint { node: NodeId(1), port: PortNo(2) };
        let link = Link::new(a, b, LinkParams::default());
        assert_eq!(link.receiver(Dir::AtoB), b);
        assert_eq!(link.receiver(Dir::BtoA), a);
        assert_eq!(link.sender(Dir::AtoB), a);
        assert_eq!(link.sender(Dir::BtoA), b);
        assert_eq!(Dir::AtoB.flip(), Dir::BtoA);
    }

    #[test]
    fn infinite_queue_never_refuses() {
        let mut q = PortQueue::new(QueuePolicy::Infinite);
        for _ in 0..1000 {
            assert!(matches!(q.try_enqueue(min_frame()), Admission::Queued));
        }
        assert_eq!(q.len(), 1000);
        assert_eq!(q.bytes(), 1000 * min_frame().wire_len());
        assert_eq!(q.peak_bytes(), q.bytes());
    }

    #[test]
    fn drop_tail_enforces_byte_cap() {
        // Each min frame is 60 wire-length bytes: two fit under 120,
        // the third is refused and handed back intact.
        let len = min_frame().wire_len();
        let mut q = PortQueue::new(QueuePolicy::drop_tail(2 * len));
        assert!(matches!(q.try_enqueue(min_frame()), Admission::Queued));
        assert!(matches!(q.try_enqueue(min_frame()), Admission::Queued));
        match q.try_enqueue(min_frame()) {
            Admission::Dropped(f) => assert_eq!(f.wire_len(), len),
            Admission::Queued => panic!("third frame must be refused"),
        }
        assert_eq!(q.bytes(), 2 * len);
        q.pop().unwrap();
        assert!(matches!(q.try_enqueue(min_frame()), Admission::Queued));
    }

    #[test]
    fn drop_tail_enforces_frame_cap() {
        let mut q = PortQueue::new(QueuePolicy::DropTail { max_bytes: usize::MAX, max_frames: 3 });
        for _ in 0..3 {
            assert!(matches!(q.try_enqueue(min_frame()), Admission::Queued));
        }
        assert!(matches!(q.try_enqueue(min_frame()), Admission::Dropped(_)));
    }

    #[test]
    fn pfc_thresholds_have_hysteresis() {
        let len = min_frame().wire_len(); // 60
        let mut q = PortQueue::new(QueuePolicy::Pfc { pause_bytes: 2 * len, resume_bytes: len });
        assert!(!q.above_pause());
        q.try_enqueue(min_frame());
        assert!(!q.above_pause());
        assert!(q.below_resume());
        q.try_enqueue(min_frame());
        assert!(q.above_pause());
        assert!(!q.below_resume());
        q.pop();
        assert!(!q.above_pause());
        assert!(q.below_resume());
    }
}
