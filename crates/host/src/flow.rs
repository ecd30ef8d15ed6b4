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
use arppath_netsim::{Ctx, Device, PortNo, SimDuration, SimTime, TimerToken};
use arppath_wire::MacAddr;
use bytes::Bytes;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// First payload byte of a data segment.
const TAG_DATA: u8 = 0x01;
/// First payload byte of a cumulative ack.
const TAG_ACK: u8 = 0x02;
/// DATA/ACK header: tag byte + u64 sequence field.
const HEADER_LEN: usize = 9;

/// Timer cookie for the flow start.
const TOKEN_START: TimerToken = TimerToken(0x6B4E_0000_0000_0000);
/// Timer cookie base for retransmit timers; the low 32 bits carry the
/// arming generation, which is how a timer that cannot be cancelled is
/// invalidated: stale generations are ignored on fire.
const TOKEN_RETX_BASE: u64 = 0x6B4E_0001_0000_0000;

/// Cap on the exponential RTO backoff exponent (64x the base RTO).
const MAX_BACKOFF: u32 = 6;

/// The congestion-control hook: how many segments may be outstanding.
///
/// E9 ships [`FixedWindow`]; the trait boundary is where a later AIMD
/// controller plugs in without touching the go-back-N machinery.
pub trait CongestionControl: Send {
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

/// The armed retransmit timer: its deadline plus the arming generation.
///
/// The expiry predicate deliberately mirrors the switch table's
/// `Aged::is_live` convention (`expires <= now` means dead): a timer
/// whose deadline equals the current instant has expired. The boundary
/// is pinned by a twin test here and in `arppath_switch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetxTimer {
    /// Absolute instant the timer fires at.
    pub deadline: SimTime,
    /// Generation this timer was armed under.
    pub generation: u64,
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
    /// FNV-1a over every accepted payload byte, in delivery order —
    /// the "every byte, in order" witness the property suite checks.
    digest: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    if hash == 0 {
        hash = FNV_OFFSET;
    }
    for &b in bytes {
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
    /// Arming generation of the retransmit timer.
    generation: u64,
    /// The armed timer, if any.
    retx: Option<RetxTimer>,
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
            generation: 0,
            retx: None,
            backoff: 0,
            started_at: None,
            fct: None,
            data_sent: 0,
            retransmits: 0,
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
        let len = segment_len.max(HEADER_LEN);
        let mut digest = 0u64;
        for seq in 0..segments {
            let payload = Self::segment_payload(seq, len);
            digest = fnv1a(digest, &payload);
        }
        digest
    }

    fn segment_payload(seq: u64, segment_len: usize) -> Vec<u8> {
        let len = segment_len.max(HEADER_LEN);
        let mut payload = vec![fill_byte(seq); len];
        payload[0] = TAG_DATA;
        payload[1..HEADER_LEN].copy_from_slice(&seq.to_be_bytes());
        payload
    }

    fn send_segment(&mut self, seq: u64, ctx: &mut Ctx) {
        let Some(target) = self.config.target else { return };
        let payload = Bytes::from(Self::segment_payload(seq, self.config.segment_len));
        self.stack.send_udp(target, self.config.port, self.config.port, payload, ctx);
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

    /// Arm (re-arm) the retransmit timer under a fresh generation.
    fn arm_retx(&mut self, ctx: &mut Ctx) {
        let rto = self.current_rto();
        self.generation += 1;
        self.retx = Some(RetxTimer { deadline: ctx.now() + rto, generation: self.generation });
        let token = TOKEN_RETX_BASE | (self.generation & 0xFFFF_FFFF);
        ctx.schedule(rto, TimerToken(token));
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

    fn on_retx_timer(&mut self, generation: u64, ctx: &mut Ctx) {
        let Some(timer) = self.retx else { return };
        if timer.generation != generation || !timer.expired(ctx.now()) {
            return; // superseded arming: ignore the stale fire
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
            let good = payload[HEADER_LEN..].iter().all(|&b| b == fill_byte(seq));
            if !good {
                self.corrupt += 1;
            }
            flow.next_expected += 1;
            flow.digest = fnv1a(flow.digest, payload);
            self.rx_segments += 1;
            self.rx_bytes += payload.len() as u64;
        }
        // Ack cumulatively on every DATA — duplicates included; the
        // ack clock is what reopens a stalled sender window.
        let cumulative = self.flows[&(from, src_port)].next_expected;
        let mut ack = Vec::with_capacity(HEADER_LEN);
        ack.push(TAG_ACK);
        ack.extend_from_slice(&cumulative.to_be_bytes());
        self.stack.send_udp(from, self.config.port, src_port, Bytes::from(ack), ctx);
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
        } else if token.0 & !0xFFFF_FFFF == TOKEN_RETX_BASE {
            self.on_retx_timer(token.0 & 0xFFFF_FFFF, ctx);
        }
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
        let t = RetxTimer { deadline: SimTime(100), generation: 1 };
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

    #[test]
    fn stale_timer_generations_are_ignored() {
        let config = FlowConfig {
            target: Some(Ipv4Addr::new(10, 0, 0, 2)),
            segments: 8,
            ..Default::default()
        };
        let mut h =
            FlowHost::new("s", MacAddr::from_index(1, 1), Ipv4Addr::new(10, 0, 0, 1), config);
        let (ports, mut cmds) = ctx_bits();
        h.on_timer(TOKEN_START, &mut Ctx::new(SimTime(0), NodeId(0), &ports, &mut cmds));
        let first_gen = h.generation;
        // An ack re-arms under a new generation; the old timer's fire
        // must be a no-op.
        h.on_ack(2, &mut Ctx::new(SimTime(1000), NodeId(0), &ports, &mut cmds));
        let sent_before = h.data_sent;
        let stale = TimerToken(TOKEN_RETX_BASE | first_gen);
        h.on_timer(stale, &mut Ctx::new(SimTime(u64::MAX), NodeId(0), &ports, &mut cmds));
        assert_eq!(h.data_sent, sent_before, "stale generation retransmitted");
        assert_eq!(h.retransmits, 0);
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
        let gen = h.generation;
        let fire_at = SimTime(SimDuration::millis(1).as_nanos());
        h.on_timer(
            TimerToken(TOKEN_RETX_BASE | gen),
            &mut Ctx::new(fire_at, NodeId(0), &ports, &mut cmds),
        );
        assert_eq!(h.data_sent, 6, "the whole window went again");
        assert_eq!(h.retransmits, 3);
        assert!(h.retx.unwrap().generation > gen, "timer re-armed fresh");
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
            let token = TimerToken(TOKEN_RETX_BASE | timer.generation);
            h.on_timer(token, &mut Ctx::new(now, NodeId(0), &ports, &mut cmds));
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
    fn receiver_accepts_in_order_only_and_always_acks() {
        let mut h = FlowHost::new(
            "r",
            MacAddr::from_index(1, 2),
            Ipv4Addr::new(10, 0, 0, 2),
            FlowConfig::default(),
        );
        let peer = Ipv4Addr::new(10, 0, 0, 1);
        let (ports, mut cmds) = ctx_bits();
        let seg = |seq| FlowHost::segment_payload(seq, 64);
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
