//! A closed-loop reliable flow over the UDP stack: go-back-N with
//! cumulative acks, a single retransmit timer, and flow-completion-time
//! (FCT) reporting — the workload layer of the congestion study (E9).
//!
//! Unlike [`crate::TrafficHost`]'s open-loop stream, a [`FlowHost`]
//! sends a *sized* flow and paces itself by acknowledgements: at most
//! [`CongestionControl::window`] segments are outstanding, a lost
//! segment stalls the window until the retransmit timer fires, and the
//! flow is complete only when every byte is cumulatively acked. FCT is
//! the time from the first segment leaving to the last ack arriving —
//! the metric the E9 tables aggregate into [`arppath_metrics`]'
//! `FctSummary`.
//!
//! The wire format rides entirely inside UDP payloads, so hosts remain
//! standard network citizens:
//!
//! ```text
//! DATA: [0x01][seq: u64 BE][fill bytes ... to segment_len]
//! ACK:  [0x02][cumulative next-expected seq: u64 BE]
//! ```
//!
//! Receivers accept only the in-order segment (go-back-N discards
//! out-of-order arrivals) and ack cumulatively on every DATA, including
//! duplicates — the ack clock is what reopens a stalled window.

use crate::stack::{HostStack, Upcall};
use arppath_netsim::{Ctx, Device, PortNo, SimDuration, SimTime, TimerToken, Verdict};
use arppath_wire::MacAddr;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::net::Ipv4Addr;

/// First payload byte of a data segment.
const TAG_DATA: u8 = 0x01;
/// First payload byte of a cumulative ack.
const TAG_ACK: u8 = 0x02;
/// DATA/ACK header: tag byte + u64 sequence field.
const HEADER_LEN: usize = 9;

/// Timer cookie for the flow start.
const TOKEN_START: TimerToken = TimerToken(0x6B4E_0000_0000_0000);
/// Timer cookie of every retransmit fire. A fire cannot be cancelled,
/// so it carries nothing: it retransmits only if the flow's deadline
/// has come, and otherwise files the next fire at the deadline (see
/// [`FlowHost::file_fire`]).
const TOKEN_RETX: TimerToken = TimerToken(0x6B4E_0001_0000_0000);

/// Cap on the exponential RTO backoff exponent (64x the base RTO).
const MAX_BACKOFF: u32 = 6;

/// The congestion-control hook: how many segments may be outstanding.
///
/// E9 ships [`FixedWindow`]; the trait boundary is where a later AIMD
/// controller plugs in without touching the go-back-N machinery.
pub trait CongestionControl {
    /// Current window, in segments (values below 1 are treated as 1).
    fn window(&self) -> u64;
    /// `newly_acked` segments were cumulatively acknowledged.
    fn on_ack(&mut self, newly_acked: u64);
    /// The retransmit timer expired (go-back-N resend is imminent).
    fn on_timeout(&mut self);
}

/// The trivial controller: a constant window.
#[derive(Debug, Clone, Copy)]
pub struct FixedWindow(pub u64);

impl CongestionControl for FixedWindow {
    fn window(&self) -> u64 {
        self.0.max(1)
    }
    fn on_ack(&mut self, _newly_acked: u64) {}
    fn on_timeout(&mut self) {}
}

/// Additive-increase / multiplicative-decrease, the TCP-Reno-shaped
/// controller E9 compares against [`FixedWindow`].
///
/// Increase is per *ack round*: once a full window's worth of segments
/// has been cumulatively acknowledged, the window grows by one segment
/// (the classic `cwnd += 1/cwnd` per ack, in integer arithmetic).
/// A retransmit timeout halves the window (floor 1) and discards the
/// partial round. Under E9's incast the halving drains the fabric's
/// queues before PFC's pause fan-out can wedge into a cycle, which is
/// why the AIMD columns show fewer watchdog fires and a lower tail FCT
/// than the fixed window.
#[derive(Debug, Clone, Copy)]
pub struct Aimd {
    /// Current window, in segments.
    window: u64,
    /// Segments acknowledged toward the current increase round.
    acked_in_round: u64,
    /// Upper bound on the window (receiver/buffer clamp).
    max_window: u64,
}

impl Aimd {
    /// A controller starting at `initial` segments, never exceeding
    /// `max_window`.
    pub fn new(initial: u64, max_window: u64) -> Self {
        let max_window = max_window.max(1);
        Aimd { window: initial.clamp(1, max_window), acked_in_round: 0, max_window }
    }
}

impl CongestionControl for Aimd {
    fn window(&self) -> u64 {
        self.window
    }

    fn on_ack(&mut self, newly_acked: u64) {
        self.acked_in_round += newly_acked;
        // A burst of cumulative acks can complete several rounds.
        while self.acked_in_round >= self.window && self.window < self.max_window {
            self.acked_in_round -= self.window;
            self.window += 1;
        }
        if self.window >= self.max_window {
            self.acked_in_round = 0;
        }
    }

    fn on_timeout(&mut self) {
        self.window = (self.window / 2).max(1);
        self.acked_in_round = 0;
    }
}

/// The armed retransmit timer: the instant the flow retransmits at
/// unless an ack re-arms it first.
///
/// The expiry predicate deliberately mirrors the switch table's
/// `Aged::is_live` convention (`expires <= now` means dead): a timer
/// whose deadline equals the current instant has expired. The boundary
/// is pinned by a twin test here and in `arppath_switch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetxTimer {
    /// Absolute instant the timer expires at.
    pub deadline: SimTime,
}

impl RetxTimer {
    /// True once `now` has reached the deadline (`deadline <= now`).
    pub fn expired(&self, now: SimTime) -> bool {
        self.deadline <= now
    }
}

/// Parameters of one host's flow.
#[derive(Debug, Clone, Copy)]
pub struct FlowConfig {
    /// Peer the flow is sent to (`None` = pure receiver).
    pub target: Option<Ipv4Addr>,
    /// When the flow starts (stagger across hosts).
    pub start_at: SimDuration,
    /// Flow size, in segments.
    pub segments: u64,
    /// UDP payload bytes per segment (header included; clamped up to
    /// fit the header).
    pub segment_len: usize,
    /// UDP port used for both DATA and ACK traffic.
    pub port: u16,
    /// Retransmit timeout (go-back-N resends the whole window).
    pub rto: SimDuration,
    /// Host ARP cache lifetime.
    pub arp_timeout: SimDuration,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            target: None,
            start_at: SimDuration::millis(10),
            segments: 32,
            segment_len: 700,
            port: 9100,
            rto: SimDuration::millis(3),
            arp_timeout: SimDuration::secs(120),
        }
    }
}

/// Per-peer receive state.
#[derive(Debug, Default)]
struct RecvFlow {
    /// Next in-order sequence number this receiver will accept.
    next_expected: u64,
    /// [`fnv1a`] over every accepted payload, in delivery order — the
    /// "every byte, in order" witness the property suite checks.
    digest: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, one 8-byte little-endian word per step, then
/// the tail bytes one at a time. Each step (`xor`, then multiply by an
/// odd prime) is a bijection of the running hash, word or byte alike,
/// so changing any one byte changes the digest with certainty; eight
/// bytes per step cut the dependent multiply chain eightfold.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    if hash == 0 {
        hash = FNV_OFFSET;
    }
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        hash ^= u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    for &b in words.remainder() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Deterministic fill byte of segment `seq` — lets the receiver-side
/// digest prove payload integrity, not just sequencing.
fn fill_byte(seq: u64) -> u8 {
    (seq as u8).wrapping_mul(31).wrapping_add(7)
}

/// Write DATA segment `seq` into `buf`, reusing its allocation:
/// `len` bytes (clamped up to fit the header) of fill behind the header.
fn write_segment(buf: &mut Vec<u8>, seq: u64, len: usize) {
    buf.clear();
    buf.resize(len.max(HEADER_LEN), fill_byte(seq));
    buf[0] = TAG_DATA;
    buf[1..HEADER_LEN].copy_from_slice(&seq.to_be_bytes());
}

/// A host running one sized go-back-N flow (and accepting any number of
/// inbound flows from peers).
pub struct FlowHost {
    name: String,
    /// The network stack (public for post-run counter inspection).
    pub stack: HostStack,
    config: FlowConfig,
    cc: Box<dyn CongestionControl>,
    // ---- sender state ----
    /// Lowest unacknowledged sequence number.
    base: u64,
    /// Next sequence number to send fresh.
    next_seq: u64,
    /// The armed timer, if any.
    retx: Option<RetxTimer>,
    /// Every retransmit fire still pending, earliest on top: an ack
    /// that moves the deadline later files nothing while one is at or
    /// before it.
    pending_fires: BinaryHeap<Reverse<SimTime>>,
    /// Exponential RTO backoff exponent: consecutive timeouts double
    /// the effective RTO (capped), ack progress resets it. Without
    /// this, a paused (PFC) or deeply queued fabric triggers timeouts
    /// faster than it drains and go-back-N amplifies its own
    /// congestion into collapse.
    backoff: u32,
    /// When the first segment left.
    pub started_at: Option<SimTime>,
    /// Flow completion time (set when the last byte is acked).
    pub fct: Option<SimDuration>,
    /// DATA segments handed to the stack (retransmissions included).
    pub data_sent: u64,
    /// Go-back-N retransmissions.
    pub retransmits: u64,
    /// The DATA segment under construction, reused across sends.
    segment: Vec<u8>,
    // ---- receiver state ----
    flows: HashMap<(Ipv4Addr, u16), RecvFlow>,
    /// In-order segments accepted across all inbound flows.
    pub rx_segments: u64,
    /// Payload bytes accepted in order.
    pub rx_bytes: u64,
    /// Accepted segments whose fill bytes were wrong (must stay 0).
    pub corrupt: u64,
}

impl FlowHost {
    /// A flow host with the default fixed window of 8 segments.
    pub fn new(name: impl Into<String>, mac: MacAddr, ip: Ipv4Addr, config: FlowConfig) -> Self {
        Self::with_controller(name, mac, ip, config, Box::new(FixedWindow(8)))
    }

    /// A flow host with an explicit congestion controller.
    pub fn with_controller(
        name: impl Into<String>,
        mac: MacAddr,
        ip: Ipv4Addr,
        config: FlowConfig,
        cc: Box<dyn CongestionControl>,
    ) -> Self {
        let mut stack = HostStack::new(mac, ip);
        stack.set_arp_timeout(config.arp_timeout);
        FlowHost {
            name: name.into(),
            stack,
            config,
            cc,
            base: 0,
            next_seq: 0,
            retx: None,
            pending_fires: BinaryHeap::new(),
            backoff: 0,
            started_at: None,
            fct: None,
            data_sent: 0,
            retransmits: 0,
            segment: Vec::new(),
            flows: HashMap::new(),
            rx_segments: 0,
            rx_bytes: 0,
            corrupt: 0,
        }
    }

    /// True once the whole flow is acknowledged (vacuously for pure
    /// receivers).
    pub fn completed(&self) -> bool {
        self.config.target.is_none() || self.config.segments == 0 || self.fct.is_some()
    }

    /// The receive-side digest and accepted-segment count for the flow
    /// from (`peer`, `port`), if any segment arrived.
    pub fn inbound(&self, peer: Ipv4Addr, port: u16) -> Option<(u64, u64)> {
        self.flows.get(&(peer, port)).map(|f| (f.next_expected, f.digest))
    }

    /// The digest [`FlowHost::inbound`] reports after a complete,
    /// uncorrupted `segments`-long flow at `segment_len` — what a test
    /// compares a receiver against.
    pub fn expected_digest(segments: u64, segment_len: usize) -> u64 {
        let mut segment = Vec::new();
        let mut digest = 0u64;
        for seq in 0..segments {
            write_segment(&mut segment, seq, segment_len);
            digest = fnv1a(digest, &segment);
        }
        digest
    }

    fn send_segment(&mut self, seq: u64, ctx: &mut Ctx) {
        let Some(target) = self.config.target else { return };
        write_segment(&mut self.segment, seq, self.config.segment_len);
        self.stack.send_udp(target, self.config.port, self.config.port, &self.segment, ctx);
        self.data_sent += 1;
    }

    /// Send fresh segments up to the controller's window.
    fn pump(&mut self, ctx: &mut Ctx) {
        while self.next_seq < self.config.segments && self.next_seq - self.base < self.cc.window() {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.send_segment(seq, ctx);
        }
    }

    /// The effective RTO under the current backoff exponent. The
    /// doubling saturates: a large user-configured base RTO must pin at
    /// `u64::MAX` nanoseconds rather than wrap around to a tiny value
    /// (which would turn the backoff into a retransmit storm).
    fn current_rto(&self) -> SimDuration {
        let factor = 1u64 << self.backoff.min(MAX_BACKOFF);
        SimDuration::nanos(self.config.rto.as_nanos().saturating_mul(factor))
    }

    /// Arm (re-arm) the retransmit timer one RTO from now.
    fn arm_retx(&mut self, ctx: &mut Ctx) {
        let deadline = ctx.now() + self.current_rto();
        self.retx = Some(RetxTimer { deadline });
        self.file_fire(deadline, ctx);
    }

    /// Make sure a fire is pending at or before `deadline`: file one at
    /// `deadline` unless one already is. An earlier fire finds the
    /// deadline ahead of it and files the next one then, so every ack
    /// inside one RTO costs no timer, a retransmission still lands
    /// exactly on its deadline, and no instant is filed twice.
    fn file_fire(&mut self, deadline: SimTime, ctx: &mut Ctx) {
        if self.pending_fires.peek().is_some_and(|&Reverse(at)| at <= deadline) {
            return;
        }
        self.pending_fires.push(Reverse(deadline));
        ctx.schedule(SimDuration::nanos(deadline.0 - ctx.now().0), TOKEN_RETX);
    }

    fn on_ack(&mut self, cumulative: u64, ctx: &mut Ctx) {
        if cumulative <= self.base || self.started_at.is_none() {
            return; // duplicate or stray ack
        }
        let newly = cumulative - self.base;
        self.base = cumulative;
        self.backoff = 0;
        self.cc.on_ack(newly);
        if self.base >= self.config.segments {
            self.retx = None;
            if let Some(started) = self.started_at {
                self.fct = Some(SimDuration::nanos(ctx.now().0 - started.0));
            }
        } else {
            self.arm_retx(ctx);
            self.pump(ctx);
        }
    }

    fn on_retx_fire(&mut self, ctx: &mut Ctx) {
        while self.pending_fires.peek().is_some_and(|&Reverse(at)| at <= ctx.now()) {
            self.pending_fires.pop();
        }
        let Some(timer) = self.retx else { return };
        if !timer.expired(ctx.now()) {
            // Acks moved the deadline on since this fire was filed.
            self.file_fire(timer.deadline, ctx);
            return;
        }
        self.cc.on_timeout();
        self.backoff = (self.backoff + 1).min(MAX_BACKOFF);
        self.retransmits += self.next_seq - self.base;
        // ARP loss parks frames; a retransmit cycle re-ARPs too.
        self.stack.retry_pending_arp(ctx);
        for seq in self.base..self.next_seq {
            self.send_segment(seq, ctx);
        }
        self.arm_retx(ctx);
    }

    fn on_data(&mut self, from: Ipv4Addr, src_port: u16, payload: &[u8], ctx: &mut Ctx) {
        let seq = u64::from_be_bytes(payload[1..HEADER_LEN].try_into().expect("header"));
        let flow = self.flows.entry((from, src_port)).or_default();
        if seq == flow.next_expected {
            // Every fill byte is compared: OR together their differences
            // from the expected fill, with no early exit.
            let fill = fill_byte(seq);
            if payload[HEADER_LEN..].iter().fold(0, |diff, &b| diff | (b ^ fill)) != 0 {
                self.corrupt += 1;
            }
            flow.next_expected += 1;
            flow.digest = fnv1a(flow.digest, payload);
            self.rx_segments += 1;
            self.rx_bytes += payload.len() as u64;
        }
        // Ack cumulatively on every DATA — duplicates included; the
        // ack clock is what reopens a stalled sender window.
        let mut ack = [TAG_ACK; HEADER_LEN];
        ack[1..].copy_from_slice(&flow.next_expected.to_be_bytes());
        self.stack.send_udp(from, self.config.port, src_port, &ack, ctx);
    }
}

impl Device for FlowHost {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        if self.config.target.is_some() && self.config.segments > 0 {
            ctx.schedule(self.config.start_at, TOKEN_START);
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
        if token == TOKEN_START {
            self.started_at = Some(ctx.now());
            self.pump(ctx);
            self.arm_retx(ctx);
        } else if token == TOKEN_RETX {
            self.on_retx_fire(ctx);
        }
    }

    fn lookup_stage(
        &mut self,
        _port: PortNo,
        frame: &arppath_netsim::EthernetFrame,
        _now: SimTime,
    ) -> Verdict {
        self.stack.lookup_stage(frame)
    }

    fn on_frame(&mut self, _port: PortNo, frame: arppath_netsim::EthernetFrame, ctx: &mut Ctx) {
        let Some(Upcall::Udp { from, src_port, dst_port, payload }) =
            self.stack.handle_frame(frame, ctx)
        else {
            return;
        };
        if dst_port != self.config.port || payload.len() < HEADER_LEN {
            return;
        }
        match payload[0] {
            TAG_DATA => self.on_data(from, src_port, &payload, ctx),
            TAG_ACK => {
                let cum = u64::from_be_bytes(payload[1..HEADER_LEN].try_into().expect("header"));
                self.on_ack(cum, ctx);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arppath_netsim::{Command, NodeId};

    fn ctx_bits() -> ([bool; 1], Vec<Command>) {
        ([true], Vec::new())
    }

    #[test]
    fn retx_expiry_matches_the_aged_boundary() {
        // Twin of `arppath_switch`'s `Aged::is_live` boundary pin:
        // `expires <= now` is dead there, so `deadline <= now` is
        // expired here. A timer read at exactly its deadline fires.
        let t = RetxTimer { deadline: SimTime(100) };
        assert!(!t.expired(SimTime(99)));
        assert!(t.expired(SimTime(100)), "the boundary instant is expired");
        assert!(t.expired(SimTime(101)));
    }

    #[test]
    fn window_limits_outstanding_segments() {
        let config = FlowConfig {
            target: Some(Ipv4Addr::new(10, 0, 0, 2)),
            segments: 100,
            ..Default::default()
        };
        let mut h = FlowHost::with_controller(
            "s",
            MacAddr::from_index(1, 1),
            Ipv4Addr::new(10, 0, 0, 1),
            config,
            Box::new(FixedWindow(4)),
        );
        let (ports, mut cmds) = ctx_bits();
        h.on_timer(TOKEN_START, &mut Ctx::new(SimTime(10), NodeId(0), &ports, &mut cmds));
        assert_eq!(h.data_sent, 4, "exactly one window of fresh segments");
        assert_eq!(h.next_seq, 4);
        assert!(h.retx.is_some());
    }

    #[test]
    fn cumulative_ack_advances_and_completes() {
        let config = FlowConfig {
            target: Some(Ipv4Addr::new(10, 0, 0, 2)),
            segments: 6,
            ..Default::default()
        };
        let mut h = FlowHost::with_controller(
            "s",
            MacAddr::from_index(1, 1),
            Ipv4Addr::new(10, 0, 0, 1),
            config,
            Box::new(FixedWindow(4)),
        );
        let (ports, mut cmds) = ctx_bits();
        h.on_timer(TOKEN_START, &mut Ctx::new(SimTime(0), NodeId(0), &ports, &mut cmds));
        h.on_ack(4, &mut Ctx::new(SimTime(50), NodeId(0), &ports, &mut cmds));
        assert_eq!(h.base, 4);
        assert_eq!(h.next_seq, 6, "window slides: remaining segments go out");
        assert!(h.fct.is_none());
        // A duplicate ack changes nothing.
        h.on_ack(4, &mut Ctx::new(SimTime(60), NodeId(0), &ports, &mut cmds));
        assert_eq!(h.base, 4);
        h.on_ack(6, &mut Ctx::new(SimTime(80), NodeId(0), &ports, &mut cmds));
        assert!(h.completed());
        assert_eq!(h.fct, Some(SimDuration::nanos(80)));
        assert!(h.retx.is_none(), "completion disarms the timer");
    }

    /// A sender with `segments` to send under a fixed window of 4 and a
    /// 1 ms base RTO.
    fn sender(segments: u64) -> FlowHost {
        let config = FlowConfig {
            target: Some(Ipv4Addr::new(10, 0, 0, 2)),
            segments,
            rto: SimDuration::millis(1),
            ..Default::default()
        };
        let mac = MacAddr::from_index(1, 1);
        let ip = Ipv4Addr::new(10, 0, 0, 1);
        FlowHost::with_controller("s", mac, ip, config, Box::new(FixedWindow(4)))
    }

    /// The delays of the timers `cmds` filed.
    fn fires(cmds: &[Command]) -> Vec<u64> {
        cmds.iter()
            .filter_map(|cmd| match cmd {
                Command::Schedule { after, token } if *token == TOKEN_RETX => {
                    Some(after.as_nanos())
                }
                _ => None,
            })
            .collect()
    }

    const RTO: u64 = 1_000_000;

    #[test]
    fn acks_inside_one_rto_leave_one_pending_fire() {
        let mut h = sender(64);
        let (ports, mut cmds) = ctx_bits();
        h.on_timer(TOKEN_START, &mut Ctx::new(SimTime(0), NodeId(0), &ports, &mut cmds));
        assert_eq!(fires(&cmds), [RTO], "the start files the first fire");
        cmds.clear();
        for (i, at) in [100, 2_000, 30_000, 999_999].into_iter().enumerate() {
            h.on_ack(i as u64 + 1, &mut Ctx::new(SimTime(at), NodeId(0), &ports, &mut cmds));
            assert_eq!(h.retx.unwrap().deadline, SimTime(at + RTO), "each ack re-arms");
        }
        assert_eq!(fires(&cmds), [0u64; 0], "the fire at 1 ms still covers every deadline");
    }

    #[test]
    fn a_fire_before_the_live_deadline_retransmits_nothing() {
        let mut h = sender(8);
        let (ports, mut cmds) = ctx_bits();
        h.on_timer(TOKEN_START, &mut Ctx::new(SimTime(0), NodeId(0), &ports, &mut cmds));
        h.on_ack(2, &mut Ctx::new(SimTime(1000), NodeId(0), &ports, &mut cmds));
        let sent_before = h.data_sent;
        h.on_timer(TOKEN_RETX, &mut Ctx::new(SimTime(RTO), NodeId(0), &ports, &mut cmds));
        assert_eq!(h.data_sent, sent_before, "an early fire retransmitted");
        assert_eq!(h.retransmits, 0);
    }

    #[test]
    fn an_early_fire_files_one_fire_at_the_deadline() {
        let mut h = sender(8);
        let (ports, mut cmds) = ctx_bits();
        h.on_timer(TOKEN_START, &mut Ctx::new(SimTime(0), NodeId(0), &ports, &mut cmds));
        h.on_ack(2, &mut Ctx::new(SimTime(1000), NodeId(0), &ports, &mut cmds));
        cmds.clear();
        h.on_timer(TOKEN_RETX, &mut Ctx::new(SimTime(RTO), NodeId(0), &ports, &mut cmds));
        assert_eq!(cmds.len(), 1, "nothing but the next fire: {cmds:?}");
        assert_eq!(fires(&cmds), [1000], "filed at the deadline, 1000 + RTO");
    }

    #[test]
    fn a_backoff_reset_that_pulls_the_deadline_earlier_files_the_earlier_fire() {
        let mut h = sender(8);
        let (ports, mut cmds) = ctx_bits();
        h.on_timer(TOKEN_START, &mut Ctx::new(SimTime(0), NodeId(0), &ports, &mut cmds));
        // Two timeouts: the deadline is now 4 RTOs past the second.
        h.on_timer(TOKEN_RETX, &mut Ctx::new(SimTime(RTO), NodeId(0), &ports, &mut cmds));
        h.on_timer(TOKEN_RETX, &mut Ctx::new(SimTime(3 * RTO), NodeId(0), &ports, &mut cmds));
        assert_eq!(h.retransmits, 8);
        assert_eq!(h.retx.unwrap().deadline, SimTime(7 * RTO));
        cmds.clear();
        // Progress resets the backoff: the deadline comes before the
        // pending fire, so it needs one of its own.
        let at = 3 * RTO + 500;
        h.on_ack(1, &mut Ctx::new(SimTime(at), NodeId(0), &ports, &mut cmds));
        assert_eq!(h.retx.unwrap().deadline, SimTime(at + RTO));
        assert_eq!(fires(&cmds), [RTO]);
    }

    #[test]
    fn a_fire_superseded_by_an_earlier_one_is_not_filed_again() {
        let mut h = sender(8);
        let (ports, mut cmds) = ctx_bits();
        // Every fire filed, as an absolute instant.
        let mut filed = Vec::new();
        let mut step = |h: &mut FlowHost, at: u64, ack: Option<u64>| {
            let mut ctx = Ctx::new(SimTime(at), NodeId(0), &ports, &mut cmds);
            match ack {
                Some(cumulative) => h.on_ack(cumulative, &mut ctx),
                None => h.on_timer(if at == 0 { TOKEN_START } else { TOKEN_RETX }, &mut ctx),
            }
            filed.extend(fires(&cmds).into_iter().map(|after| at + after));
            cmds.clear();
        };
        step(&mut h, 0, None);
        // A timeout backs off: the next fire is 2 RTOs out, at 3 RTO.
        step(&mut h, RTO, None);
        // Progress resets the backoff and files an earlier fire...
        step(&mut h, RTO + 500, Some(1));
        // ...and the next ack moves the deadline onto the 3 RTO fire.
        step(&mut h, 2 * RTO, Some(2));
        assert_eq!(h.retx.unwrap().deadline, SimTime(3 * RTO));
        // The earlier fire finds the deadline ahead of it, which the
        // 3 RTO fire still covers.
        step(&mut h, 2 * RTO + 500, None);
        let before = h.retransmits;
        step(&mut h, 3 * RTO, None);
        assert_eq!(h.retransmits - before, 4, "the window went again on the deadline");
        assert_eq!(filed, [RTO, 3 * RTO, 2 * RTO + 500, 5 * RTO], "one filing per instant");
    }

    #[test]
    fn the_retransmission_lands_exactly_on_the_deadline() {
        let mut h = sender(8);
        let (ports, mut cmds) = ctx_bits();
        h.on_timer(TOKEN_START, &mut Ctx::new(SimTime(0), NodeId(0), &ports, &mut cmds));
        h.on_ack(2, &mut Ctx::new(SimTime(1000), NodeId(0), &ports, &mut cmds));
        let deadline = h.retx.unwrap().deadline;
        let fire = |h: &mut FlowHost, at: SimTime, cmds: &mut Vec<Command>| {
            h.on_timer(TOKEN_RETX, &mut Ctx::new(at, NodeId(0), &ports, cmds));
        };
        fire(&mut h, SimTime(deadline.0 - 1), &mut cmds);
        assert_eq!(h.retransmits, 0, "one nanosecond early");
        fire(&mut h, deadline, &mut cmds);
        assert_eq!(h.retransmits, 4, "the whole window, at the deadline");
        fire(&mut h, deadline, &mut cmds);
        assert_eq!(h.retransmits, 4, "a second fire at the same instant finds the timer re-armed");
    }

    #[test]
    fn timeout_goes_back_n() {
        let config = FlowConfig {
            target: Some(Ipv4Addr::new(10, 0, 0, 2)),
            segments: 8,
            rto: SimDuration::millis(1),
            ..Default::default()
        };
        let mut h = FlowHost::with_controller(
            "s",
            MacAddr::from_index(1, 1),
            Ipv4Addr::new(10, 0, 0, 1),
            config,
            Box::new(FixedWindow(3)),
        );
        let (ports, mut cmds) = ctx_bits();
        h.on_timer(TOKEN_START, &mut Ctx::new(SimTime(0), NodeId(0), &ports, &mut cmds));
        assert_eq!(h.data_sent, 3);
        let fire_at = SimTime(SimDuration::millis(1).as_nanos());
        h.on_timer(TOKEN_RETX, &mut Ctx::new(fire_at, NodeId(0), &ports, &mut cmds));
        assert_eq!(h.data_sent, 6, "the whole window went again");
        assert_eq!(h.retransmits, 3);
        assert!(h.retx.unwrap().deadline > fire_at, "timer re-armed fresh");
    }

    #[test]
    fn rto_backs_off_exponentially_and_resets_on_progress() {
        let base = SimDuration::millis(1);
        let config = FlowConfig {
            target: Some(Ipv4Addr::new(10, 0, 0, 2)),
            segments: 8,
            rto: base,
            ..Default::default()
        };
        let mut h =
            FlowHost::new("s", MacAddr::from_index(1, 1), Ipv4Addr::new(10, 0, 0, 1), config);
        let (ports, mut cmds) = ctx_bits();
        h.on_timer(TOKEN_START, &mut Ctx::new(SimTime(0), NodeId(0), &ports, &mut cmds));
        let mut now = SimTime(0);
        for fired in 0..10u32 {
            let timer = h.retx.unwrap();
            let exp = fired.min(MAX_BACKOFF);
            assert_eq!(
                timer.deadline.0 - now.0,
                base.as_nanos() << exp,
                "fire #{fired} armed at 2^{exp} x base, saturating at the cap"
            );
            now = timer.deadline;
            h.on_timer(TOKEN_RETX, &mut Ctx::new(now, NodeId(0), &ports, &mut cmds));
        }
        // Ack progress snaps the RTO back to base.
        h.on_ack(2, &mut Ctx::new(now, NodeId(0), &ports, &mut cmds));
        assert_eq!(h.backoff, 0);
        assert_eq!(h.retx.unwrap().deadline.0 - now.0, base.as_nanos());
    }

    #[test]
    fn rto_saturates_at_the_cap_instead_of_wrapping() {
        // A base RTO large enough that doubling it MAX_BACKOFF times
        // overflows u64: the effective RTO must pin at u64::MAX nanos,
        // not wrap around to a near-zero timeout.
        let base = SimDuration::nanos(u64::MAX / 2);
        let config = FlowConfig {
            target: Some(Ipv4Addr::new(10, 0, 0, 2)),
            rto: base,
            ..Default::default()
        };
        let mut h =
            FlowHost::new("s", MacAddr::from_index(1, 1), Ipv4Addr::new(10, 0, 0, 1), config);
        assert_eq!(h.current_rto(), base, "no backoff, no scaling");
        h.backoff = 1;
        assert_eq!(h.current_rto(), SimDuration::nanos(u64::MAX - 1), "exact doubling still fits");
        h.backoff = 2;
        assert_eq!(h.current_rto(), SimDuration::nanos(u64::MAX), "saturates at the cap");
        h.backoff = MAX_BACKOFF;
        assert_eq!(h.current_rto(), SimDuration::nanos(u64::MAX));
        h.backoff = MAX_BACKOFF + 10;
        assert_eq!(h.current_rto(), SimDuration::nanos(u64::MAX), "exponent stays capped too");
    }

    #[test]
    fn aimd_grows_per_round_and_halves_on_timeout() {
        let mut cc = Aimd::new(2, 8);
        assert_eq!(cc.window(), 2);
        // One full round (2 acked segments) grows the window by one.
        cc.on_ack(1);
        assert_eq!(cc.window(), 2, "mid-round: no growth yet");
        cc.on_ack(1);
        assert_eq!(cc.window(), 3);
        // A cumulative burst can complete several rounds at once:
        // 3 + 4 + 5 = 12 acked segments lift 3 -> 6.
        cc.on_ack(12);
        assert_eq!(cc.window(), 6);
        // Growth clamps at max_window.
        cc.on_ack(1000);
        assert_eq!(cc.window(), 8);
        // Timeout halves (and discards the partial round).
        cc.on_timeout();
        assert_eq!(cc.window(), 4);
        cc.on_timeout();
        cc.on_timeout();
        assert_eq!(cc.window(), 1);
        cc.on_timeout();
        assert_eq!(cc.window(), 1, "floor is one segment");
        // Recovery: a round at window 1 is a single segment.
        cc.on_ack(1);
        assert_eq!(cc.window(), 2);
    }

    #[test]
    fn digest_catches_every_flipped_bit_and_a_swap() {
        // 61 bytes: seven 8-byte words and a 5-byte tail, so both the
        // word steps and the tail steps are exercised.
        const LEN: usize = 61;
        let peer = Ipv4Addr::new(10, 0, 0, 1);
        let expected = FlowHost::expected_digest(3, LEN);
        let clean: Vec<Vec<u8>> = (0..3)
            .map(|seq| {
                let mut segment = Vec::new();
                write_segment(&mut segment, seq, LEN);
                segment
            })
            .collect();
        let receive = |segments: &[Vec<u8>]| {
            let mut h = FlowHost::new(
                "r",
                MacAddr::from_index(1, 2),
                Ipv4Addr::new(10, 0, 0, 2),
                FlowConfig::default(),
            );
            let (ports, mut cmds) = ctx_bits();
            let mut ctx = Ctx::new(SimTime(0), NodeId(0), &ports, &mut cmds);
            for segment in segments {
                h.on_data(peer, 9100, segment, &mut ctx);
            }
            h.inbound(peer, 9100).map(|(_, digest)| digest)
        };
        assert_eq!(receive(&clean), Some(expected));
        for seg in 0..clean.len() {
            for byte in 0..LEN {
                for bit in 0..8 {
                    let mut flipped = clean.clone();
                    flipped[seg][byte] ^= 1 << bit;
                    assert_ne!(
                        receive(&flipped),
                        Some(expected),
                        "segment {seg} byte {byte} bit {bit} flipped unseen"
                    );
                }
            }
        }
        // Whole segments out of order: go-back-N accepts a prefix only.
        let mut swapped = clean.clone();
        swapped.swap(1, 2);
        assert_ne!(receive(&swapped), Some(expected));
        // Bodies swapped behind intact headers: every segment is
        // accepted in order, and only the digest's order witness sees it.
        let mut bodies = clean.clone();
        let body_1 = bodies[1][HEADER_LEN..].to_vec();
        let body_2 = bodies[2][HEADER_LEN..].to_vec();
        bodies[1][HEADER_LEN..].copy_from_slice(&body_2);
        bodies[2][HEADER_LEN..].copy_from_slice(&body_1);
        assert_ne!(receive(&bodies), Some(expected));
    }

    #[test]
    fn receiver_accepts_in_order_only_and_always_acks() {
        let mut h = FlowHost::new(
            "r",
            MacAddr::from_index(1, 2),
            Ipv4Addr::new(10, 0, 0, 2),
            FlowConfig::default(),
        );
        let peer = Ipv4Addr::new(10, 0, 0, 1);
        let (ports, mut cmds) = ctx_bits();
        let seg = |seq| {
            let mut segment = Vec::new();
            write_segment(&mut segment, seq, 64);
            segment
        };
        // Out-of-order first: discarded, but acked with cum = 0.
        h.on_data(peer, 9100, &seg(1), &mut Ctx::new(SimTime(0), NodeId(0), &ports, &mut cmds));
        assert_eq!(h.rx_segments, 0);
        assert_eq!(h.inbound(peer, 9100).unwrap().0, 0);
        h.on_data(peer, 9100, &seg(0), &mut Ctx::new(SimTime(1), NodeId(0), &ports, &mut cmds));
        h.on_data(peer, 9100, &seg(1), &mut Ctx::new(SimTime(2), NodeId(0), &ports, &mut cmds));
        assert_eq!(h.rx_segments, 2);
        assert_eq!(h.corrupt, 0);
        let (next, digest) = h.inbound(peer, 9100).unwrap();
        assert_eq!(next, 2);
        assert_eq!(digest, FlowHost::expected_digest(2, 64));
    }
}
