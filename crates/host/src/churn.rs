//! Seeded station churn for the table-pressure study (E11).
//!
//! Two pieces, mirroring [`crate::workload`]'s split between seeded
//! assignment and per-host device:
//!
//! * [`ChurnWorkload`] — a seeded per-station lifecycle script:
//!   Poisson-shaped arrivals and departures (Bernoulli-thinned at a
//!   fixed slot resolution, so the whole schedule is a pure integer
//!   function of the seed) plus MAC mobility — a departing station
//!   that *moves* reappears, same MAC and IP, behind a different rack.
//!   Slot thinning deliberately produces the bursty same-instant
//!   departure groups that drive mass-expiry sweeps in the bridges'
//!   d-left tables.
//! * [`ChurnHost`] — a host device whose activity is gated by its
//!   access link's carrier ([`Device::on_link_status`]): while the
//!   link is up it runs a closed-loop ICMP echo probe against one
//!   peer, and it records the latency from each activation to the
//!   first echo reply that makes it back — on a re-arrival behind a
//!   new rack, that latency *is* the fabric's stale-path correction
//!   time (flush at the old edge, repair or re-learning along the old
//!   path, fresh locks along the new one).
//!
//! Hosts stay standard network citizens: nothing here knows ARP-Path
//! exists. The churn itself is driven entirely by pre-scheduled
//! administrative link events on the host access links, which is also
//! what makes the workload safe on the sharded engine — rack-major
//! partitions never cut a host link, so every lifecycle event stays
//! shard-local.

use crate::stack::{HostStack, Upcall};
use arppath_netsim::{Ctx, Device, PortNo, SimDuration, SimTime, TimerToken};
use arppath_wire::{EthernetFrame, MacAddr};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;

const TOKEN_PROBE: TimerToken = TimerToken(0x4348_0001);

/// Parameters of a seeded churn script. Rates are per-mille
/// probabilities applied independently per station per
/// [`slot`](ChurnSpec::slot) — Bernoulli thinning at slot resolution,
/// the standard deterministic discretization of a Poisson process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnSpec {
    /// Station index space (stations that never arrive draw no plan).
    pub stations: usize,
    /// Stations present from the start (indices `0..initial`), spread
    /// round-robin over the racks.
    pub initial: usize,
    /// Racks stations can attach to.
    pub racks: usize,
    /// Churn window: lifecycle events happen in `[0, horizon)`,
    /// relative to whatever base the experiment adds.
    pub horizon: SimDuration,
    /// Slot resolution of the Bernoulli thinning.
    pub slot: SimDuration,
    /// Per-slot arrival probability (‰) for each not-yet-arrived
    /// station.
    pub arrival_per_mille: u32,
    /// Per-slot departure probability (‰) for each active station.
    pub departure_per_mille: u32,
    /// Fraction (‰) of departures that are *moves*: the station
    /// reappears immediately behind a different rack instead of
    /// leaving. At most one move per station; a later departure is
    /// final.
    pub mobility_per_mille: u32,
    /// RNG seed; the whole script is a pure function of this spec.
    pub seed: u64,
}

impl Default for ChurnSpec {
    fn default() -> Self {
        ChurnSpec {
            stations: 32,
            initial: 16,
            racks: 4,
            horizon: SimDuration::millis(200),
            slot: SimDuration::millis(1),
            arrival_per_mille: 20,
            departure_per_mille: 10,
            mobility_per_mille: 300,
            seed: 0xE11,
        }
    }
}

/// One station's scripted lifecycle, in spec-relative time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StationPlan {
    /// Station index (drives MAC/IP assignment).
    pub station: usize,
    /// Rack of the first appearance.
    pub home_rack: usize,
    /// First link-up; `None` means present from the start.
    pub arrive_at: Option<SimDuration>,
    /// Mid-life rack move: `(instant, destination rack)`.
    pub move_to: Option<(SimDuration, usize)>,
    /// Final departure; `None` means the station stays to the end.
    pub depart_at: Option<SimDuration>,
}

/// The generated churn script: every station that ever exists, with
/// aggregate counts for reporting.
#[derive(Debug, Clone)]
pub struct ChurnWorkload {
    /// Per-station lifecycles, station-index order.
    pub plans: Vec<StationPlan>,
    /// Late arrivals (stations not present at the start).
    pub arrivals: usize,
    /// Final departures.
    pub departures: usize,
    /// Rack moves.
    pub moves: usize,
}

impl ChurnWorkload {
    /// Generate the churn script for `spec` — deterministic, integer
    /// arithmetic only.
    ///
    /// # Panics
    /// If the spec has no racks, no stations, more initial stations
    /// than stations, or fewer than 2 racks with nonzero mobility
    /// (a mover needs somewhere to go).
    pub fn generate(spec: &ChurnSpec) -> ChurnWorkload {
        assert!(spec.racks > 0, "need at least one rack");
        assert!(spec.stations > 0, "need at least one station");
        assert!(spec.initial <= spec.stations, "more initial stations than stations");
        assert!(
            spec.mobility_per_mille == 0 || spec.racks >= 2,
            "mobility needs a second rack to move to"
        );
        let mut rng = StdRng::seed_from_u64(spec.seed);

        #[derive(Clone, Copy, PartialEq)]
        enum State {
            NotArrived,
            Active,
            Gone,
        }
        let mut state = vec![State::NotArrived; spec.stations]
            .iter()
            .enumerate()
            .map(|(i, _)| if i < spec.initial { State::Active } else { State::NotArrived })
            .collect::<Vec<_>>();
        let mut plans: Vec<StationPlan> = (0..spec.stations)
            .map(|i| StationPlan {
                station: i,
                home_rack: i % spec.racks,
                arrive_at: None,
                move_to: None,
                depart_at: None,
            })
            .collect();
        let mut rack_of = vec![0usize; spec.stations];
        for (i, r) in rack_of.iter_mut().enumerate() {
            *r = i % spec.racks;
        }

        let slots = (spec.horizon.as_nanos() / spec.slot.as_nanos().max(1)) as usize;
        let (mut arrivals, mut departures, mut moves) = (0usize, 0usize, 0usize);
        for slot_ix in 0..slots {
            let slot_start = spec.slot.as_nanos() * slot_ix as u64;
            for s in 0..spec.stations {
                match state[s] {
                    State::NotArrived => {
                        if rng.gen_range(0..1000u32) < spec.arrival_per_mille {
                            // Jitter within the slot so one arrival burst
                            // does not detonate every ARP flood on a
                            // single timestamp.
                            let at = slot_start + rng.gen_range(0..spec.slot.as_nanos().max(1));
                            plans[s].arrive_at = Some(SimDuration::nanos(at));
                            state[s] = State::Active;
                            arrivals += 1;
                        }
                    }
                    State::Active => {
                        if rng.gen_range(0..1000u32) < spec.departure_per_mille {
                            let at = slot_start + rng.gen_range(0..spec.slot.as_nanos().max(1));
                            let is_move = plans[s].move_to.is_none()
                                && rng.gen_range(0..1000u32) < spec.mobility_per_mille;
                            if is_move {
                                // Any rack but the current one, uniform.
                                let mut to = rng.gen_range(0..spec.racks - 1);
                                if to >= rack_of[s] {
                                    to += 1;
                                }
                                plans[s].move_to = Some((SimDuration::nanos(at), to));
                                rack_of[s] = to;
                                moves += 1;
                            } else {
                                plans[s].depart_at = Some(SimDuration::nanos(at));
                                state[s] = State::Gone;
                                departures += 1;
                            }
                        }
                    }
                    State::Gone => {}
                }
            }
        }
        // Stations that never arrived have no lifecycle at all.
        plans.retain(|p| p.station < spec.initial || p.arrive_at.is_some());
        ChurnWorkload { plans, arrivals, departures, moves }
    }

    /// Stations that move racks mid-run.
    pub fn movers(&self) -> impl Iterator<Item = &StationPlan> {
        self.plans.iter().filter(|p| p.move_to.is_some())
    }
}

/// Parameters of one [`ChurnHost`].
#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// Peer the closed-loop echo probes chase.
    pub target: Ipv4Addr,
    /// Delay from activation (start or link-up) to the first probe.
    pub start_at: SimDuration,
    /// Probe cadence while active.
    pub interval: SimDuration,
    /// Echo identifier (use the station index: replies are matched on
    /// it).
    pub ident: u16,
    /// Echo payload bytes.
    pub payload_len: usize,
    /// Host ARP cache lifetime.
    pub arp_timeout: SimDuration,
    /// Whether the station is present (link up, probing) from the
    /// start; otherwise it stays silent until its first link-up.
    pub active_at_start: bool,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            target: Ipv4Addr::UNSPECIFIED,
            start_at: SimDuration::millis(1),
            interval: SimDuration::millis(2),
            ident: 0,
            payload_len: 32,
            arp_timeout: SimDuration::secs(120),
            active_at_start: false,
        }
    }
}

/// A station whose presence follows its access link's carrier and
/// which measures, per activation, how long the fabric takes to carry
/// an echo round trip again — the stale-path correction latency when
/// the activation is a re-arrival behind a new rack.
pub struct ChurnHost {
    name: String,
    /// The network stack (public for post-run counter inspection).
    pub stack: HostStack,
    config: ChurnConfig,
    active: bool,
    timer_armed: bool,
    seq: u16,
    activated_at: SimTime,
    awaiting_first_reply: bool,
    /// Echo requests handed to the stack.
    pub probes_tx: u64,
    /// Echo replies received from the configured target.
    pub replies_rx: u64,
    /// Times the station became active (start counts, link-ups count).
    pub activations: u32,
    /// Per-activation latency to the first echo reply, nanoseconds.
    pub correction_ns: Vec<u64>,
    /// Receive instant of every matched reply (epoch bucketing).
    pub reply_times: Vec<SimTime>,
}

impl ChurnHost {
    /// Create a churn host with address `ip` behind `mac`.
    pub fn new(name: impl Into<String>, mac: MacAddr, ip: Ipv4Addr, config: ChurnConfig) -> Self {
        let mut stack = HostStack::new(mac, ip);
        stack.set_arp_timeout(config.arp_timeout);
        ChurnHost {
            name: name.into(),
            stack,
            config,
            active: false,
            timer_armed: false,
            seq: 0,
            activated_at: SimTime::ZERO,
            awaiting_first_reply: false,
            probes_tx: 0,
            replies_rx: 0,
            activations: 0,
            correction_ns: Vec::new(),
            reply_times: Vec::new(),
        }
    }

    /// Whether the station currently considers itself attached.
    pub fn is_active(&self) -> bool {
        self.active
    }

    fn activate(&mut self, ctx: &mut Ctx) {
        self.active = true;
        self.activations += 1;
        self.activated_at = ctx.now();
        self.awaiting_first_reply = true;
        if !self.timer_armed {
            ctx.schedule(self.config.start_at, TOKEN_PROBE);
            self.timer_armed = true;
        }
    }
}

impl Device for ChurnHost {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        if self.config.active_at_start {
            self.activate(ctx);
        }
    }

    fn on_link_status(&mut self, _port: PortNo, up: bool, ctx: &mut Ctx) {
        if up && !self.active {
            self.activate(ctx);
        } else if !up {
            // Departure: probes stop at the next tick; a pending first
            // -reply measurement is abandoned (no reply can arrive on
            // a dead link).
            self.active = false;
            self.awaiting_first_reply = false;
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
        if token != TOKEN_PROBE {
            return;
        }
        self.timer_armed = false;
        if !self.active {
            return;
        }
        self.stack.retry_pending_arp(ctx);
        let payload = Bytes::from(vec![0x11u8; self.config.payload_len]);
        self.stack.send_echo_request(self.config.target, self.config.ident, self.seq, payload, ctx);
        self.seq = self.seq.wrapping_add(1);
        self.probes_tx += 1;
        ctx.schedule(self.config.interval, TOKEN_PROBE);
        self.timer_armed = true;
    }

    fn on_frame(&mut self, _port: PortNo, frame: EthernetFrame, ctx: &mut Ctx) {
        if let Some(Upcall::EchoReply { ident, .. }) = self.stack.handle_frame(frame, ctx) {
            if ident == self.config.ident {
                self.replies_rx += 1;
                self.reply_times.push(ctx.now());
                if self.awaiting_first_reply {
                    self.awaiting_first_reply = false;
                    self.correction_ns
                        .push(ctx.now().as_nanos().saturating_sub(self.activated_at.as_nanos()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arppath_netsim::{Command, NodeId};
    use arppath_wire::{IcmpEcho, IpProto, Ipv4Packet, Payload};

    fn spec() -> ChurnSpec {
        ChurnSpec { stations: 64, initial: 24, racks: 6, ..ChurnSpec::default() }
    }

    #[test]
    fn script_is_seed_deterministic_and_well_formed() {
        let a = ChurnWorkload::generate(&spec());
        let b = ChurnWorkload::generate(&spec());
        assert_eq!(a.plans, b.plans, "same spec, same script");
        assert_eq!((a.arrivals, a.departures, a.moves), (b.arrivals, b.departures, b.moves));

        let horizon = spec().horizon;
        for p in &a.plans {
            assert!(p.home_rack < spec().racks);
            if p.station < spec().initial {
                assert_eq!(p.arrive_at, None, "initial stations are present from the start");
            } else {
                let arrive = p.arrive_at.expect("non-initial plans exist only for arrivals");
                assert!(arrive < horizon);
            }
            let born = p.arrive_at.unwrap_or(SimDuration::nanos(0));
            if let Some((at, to)) = p.move_to {
                assert!(at >= born && at < horizon);
                assert_ne!(to, p.home_rack, "a move changes racks");
                assert!(to < spec().racks);
                if let Some(dep) = p.depart_at {
                    assert!(dep >= at, "final departure follows the move");
                }
            }
            if let Some(dep) = p.depart_at {
                assert!(dep >= born && dep < horizon);
            }
        }
        let different = ChurnWorkload::generate(&ChurnSpec { seed: 1, ..spec() });
        assert_ne!(a.plans, different.plans, "different seeds should differ");
    }

    #[test]
    fn rates_shape_the_script() {
        let calm = ChurnWorkload::generate(&ChurnSpec {
            arrival_per_mille: 0,
            departure_per_mille: 0,
            ..spec()
        });
        assert_eq!((calm.arrivals, calm.departures, calm.moves), (0, 0, 0));
        assert_eq!(calm.plans.len(), spec().initial, "only the initial population exists");

        let stormy = ChurnWorkload::generate(&ChurnSpec {
            arrival_per_mille: 200,
            departure_per_mille: 100,
            mobility_per_mille: 500,
            ..spec()
        });
        assert!(stormy.arrivals > 0 && stormy.departures > 0 && stormy.moves > 0);
        assert_eq!(stormy.movers().count(), stormy.moves);
    }

    fn mk(active_at_start: bool) -> ChurnHost {
        ChurnHost::new(
            "c0",
            MacAddr::from_index(1, 1),
            Ipv4Addr::new(10, 0, 0, 1),
            ChurnConfig {
                target: Ipv4Addr::new(10, 0, 0, 2),
                ident: 9,
                active_at_start,
                ..ChurnConfig::default()
            },
        )
    }

    #[test]
    fn silent_until_link_up_then_probes() {
        let mut host = mk(false);
        let ports = [true];
        let mut cmds = Vec::new();
        host.on_start(&mut Ctx::new(SimTime(0), NodeId(0), &ports, &mut cmds));
        assert!(cmds.is_empty(), "not yet arrived: no timers, no frames");
        assert!(!host.is_active());

        host.on_link_status(
            PortNo(0),
            true,
            &mut Ctx::new(SimTime(5), NodeId(0), &ports, &mut cmds),
        );
        assert!(host.is_active());
        assert_eq!(cmds.len(), 1, "activation arms the probe timer");
        cmds.clear();

        host.on_timer(TOKEN_PROBE, &mut Ctx::new(SimTime(10), NodeId(0), &ports, &mut cmds));
        let sends = cmds.iter().filter(|c| matches!(c, Command::Send { .. })).count();
        let timers = cmds.iter().filter(|c| matches!(c, Command::Schedule { .. })).count();
        assert_eq!((sends, timers), (1, 1), "ARP for the cold target + the next tick");
        assert_eq!(host.probes_tx, 1);
    }

    #[test]
    fn link_down_stops_the_probe_loop() {
        let mut host = mk(true);
        let ports = [true];
        let mut cmds = Vec::new();
        host.on_start(&mut Ctx::new(SimTime(0), NodeId(0), &ports, &mut cmds));
        assert!(host.is_active());
        cmds.clear();
        host.on_link_status(
            PortNo(0),
            false,
            &mut Ctx::new(SimTime(7), NodeId(0), &ports, &mut cmds),
        );
        assert!(!host.is_active());
        host.on_timer(TOKEN_PROBE, &mut Ctx::new(SimTime(10), NodeId(0), &ports, &mut cmds));
        assert!(
            !cmds.iter().any(|c| matches!(c, Command::Schedule { .. })),
            "departed: the pending tick dies without rescheduling"
        );
        assert_eq!(host.probes_tx, 0);
    }

    fn reply_frame(to: &ChurnHost, ident: u16, seq: u16) -> EthernetFrame {
        let echo = IcmpEcho { is_request: false, ident, seq, payload: Bytes::from_static(b"p") };
        let mut buf = Vec::new();
        echo.emit(&mut buf);
        let pkt = Ipv4Packet::new(
            Ipv4Addr::new(10, 0, 0, 2),
            to.stack.ip(),
            IpProto::Icmp,
            Bytes::from(buf),
        );
        EthernetFrame::new(to.stack.mac(), MacAddr::from_index(1, 2), Payload::Ipv4(pkt))
    }

    #[test]
    fn first_reply_per_activation_is_the_correction_sample() {
        let mut host = mk(true);
        let ports = [true];
        let mut cmds = Vec::new();
        host.on_start(&mut Ctx::new(SimTime(0), NodeId(0), &ports, &mut cmds));

        let f = reply_frame(&host, 9, 0);
        host.on_frame(PortNo(0), f, &mut Ctx::new(SimTime(1_500), NodeId(0), &ports, &mut cmds));
        let f = reply_frame(&host, 9, 1);
        host.on_frame(PortNo(0), f, &mut Ctx::new(SimTime(3_000), NodeId(0), &ports, &mut cmds));
        assert_eq!(host.replies_rx, 2);
        assert_eq!(host.correction_ns, vec![1_500], "only the first reply after activation");

        // Departure and re-arrival: a new activation opens a new
        // measurement window.
        host.on_link_status(
            PortNo(0),
            false,
            &mut Ctx::new(SimTime(4_000), NodeId(0), &ports, &mut cmds),
        );
        host.on_link_status(
            PortNo(0),
            true,
            &mut Ctx::new(SimTime(9_000), NodeId(0), &ports, &mut cmds),
        );
        let f = reply_frame(&host, 9, 2);
        host.on_frame(PortNo(0), f, &mut Ctx::new(SimTime(11_000), NodeId(0), &ports, &mut cmds));
        assert_eq!(host.correction_ns, vec![1_500, 2_000]);
        assert_eq!(host.activations, 2);

        // Replies for a foreign ident are not ours.
        let f = reply_frame(&host, 8, 3);
        host.on_frame(PortNo(0), f, &mut Ctx::new(SimTime(12_000), NodeId(0), &ports, &mut cmds));
        assert_eq!(host.replies_rx, 3, "foreign ident is not counted");
        assert_eq!(host.reply_times.len(), 3);
    }
}
