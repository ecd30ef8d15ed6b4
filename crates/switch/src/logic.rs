//! The [`SwitchLogic`] abstraction: a bridge's *decision plane*,
//! separated from its *timing model*.
//!
//! The same ARP-Path logic runs under two timing wrappers in this
//! repository: [`crate::IdealSwitch`] (zero processing latency — what a
//! software simulation measures) and the NetFPGA pipeline model (store +
//! arbiter + lookup latency, hardware table with software slow path —
//! what the paper's cards measured). Keeping the FSM identical under
//! both is exactly the "same algorithm, different substrate" comparison
//! the paper's multi-platform implementations made.
//!
//! What a logic decides leaves through [`LogicEnv`] as netsim
//! [`Command`]s, appended to a buffer the wrapper lends: there is one
//! representation of "send this, arm that" from the FSM to the engine,
//! and under the ideal wrapper one buffer.

use arppath_netsim::{Command, PortNo, SimDuration, SimTime, TimerToken};
use arppath_wire::EthernetFrame;

/// How the frame's forwarding decision was reached, which the timing
/// wrapper translates into latency: a hardware table hit costs pipeline
/// cycles, a software exception costs a PCI/DMA round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProcessingClass {
    /// Decision made entirely in the forwarding pipeline.
    #[default]
    Hardware,
    /// Frame needed the control CPU (table overflow, control message,
    /// repair logic).
    Software,
}

/// Why a frame was not forwarded — one counter per cause, mirroring
/// hardware drop-reason registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DropReason {
    /// Broadcast copy lost the race: arrived on a port other than the
    /// one locked to its source (ARP-Path §2.1.1 discard rule).
    LostRace,
    /// Unicast destination unknown and the logic chose not to flood
    /// (ARP-Path drops and triggers repair instead).
    NoPath,
    /// STP: port not in forwarding state.
    PortBlocked,
    /// Frame failed validation (bad source, parse-level).
    Malformed,
    /// The frame was addressed to this bridge itself (control traffic,
    /// consumed rather than forwarded).
    ConsumedControl,
    /// Table full and no victim could be chosen.
    TableFull,
    /// A repair was already pending for this destination.
    RepairPending,
}

/// Decision-plane counters, kept by the logic itself.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SwitchCounters {
    /// Frames forwarded out a single port.
    pub forwarded: u64,
    /// Frames flooded.
    pub flooded: u64,
    /// Frames consumed by the control plane (BPDUs, path control).
    pub consumed: u64,
    /// Drops, tallied by reason (sorted Vec keyed by reason for
    /// deterministic reporting; tiny cardinality).
    pub drops: Vec<(DropReason, u64)>,
    /// Frames that took the software slow path.
    pub slow_path: u64,
}

impl SwitchCounters {
    /// Increment the drop counter for `reason`.
    pub fn drop_frame(&mut self, reason: DropReason) {
        match self.drops.binary_search_by_key(&reason, |&(r, _)| r) {
            Ok(i) => self.drops[i].1 += 1,
            Err(i) => self.drops.insert(i, (reason, 1)),
        }
    }

    /// The count for `reason`.
    pub fn dropped(&self, reason: DropReason) -> u64 {
        self.drops.binary_search_by_key(&reason, |&(r, _)| r).map(|i| self.drops[i].1).unwrap_or(0)
    }

    /// Total drops across reasons.
    pub fn total_dropped(&self) -> u64 {
        self.drops.iter().map(|&(_, n)| n).sum()
    }
}

/// Environment handed to logic callbacks: clock, port state, and the
/// command sink. It owns nothing — `transmit`/`flood`/`schedule` push
/// [`Command`]s straight into the buffer the wrapper lends, which under
/// [`crate::IdealSwitch`] is the engine's own reused command buffer, so
/// a decision costs no allocation and no copy between the logic and the
/// engine. The timing wrapper decides *when* the sends hit the wire:
/// one that adds latency lends a buffer of its own and holds the
/// [`Command::Send`]s back.
pub struct LogicEnv<'a> {
    now: SimTime,
    ports_up: &'a [bool],
    num_ports: usize,
    commands: &'a mut Vec<Command>,
}

impl<'a> LogicEnv<'a> {
    /// Build an environment for one callback, appending to `commands`.
    pub fn new(
        now: SimTime,
        ports_up: &'a [bool],
        num_ports: usize,
        commands: &'a mut Vec<Command>,
    ) -> Self {
        LogicEnv { now, ports_up, num_ports, commands }
    }

    /// Current instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of ports the logic was configured with.
    pub fn num_ports(&self) -> usize {
        self.num_ports
    }

    /// Carrier state of `port`.
    pub fn is_port_up(&self, port: PortNo) -> bool {
        self.ports_up.get(port.0).copied().unwrap_or(false)
    }

    /// Queue a transmission out `port`.
    pub fn transmit(&mut self, port: PortNo, frame: EthernetFrame) {
        self.commands.push(Command::Send { port, frame });
    }

    /// Queue `frame` out of every up port except `except` — the flood
    /// primitive. Returns how many copies were queued.
    pub fn flood(&mut self, frame: &EthernetFrame, except: PortNo) -> usize {
        let before = self.commands.len();
        for p in 0..self.num_ports {
            let port = PortNo(p);
            if port != except && self.is_port_up(port) {
                self.transmit(port, frame.clone());
            }
        }
        self.commands.len() - before
    }

    /// Request an `on_timer` callback `after` from now.
    pub fn schedule(&mut self, after: SimDuration, token: TimerToken) {
        self.commands.push(Command::Schedule { after, token });
    }
}

/// A bridge decision plane. See the module docs for the role split
/// between logic and timing wrapper.
///
/// `Send` is required because the timing wrappers implement the
/// simulator's `Device` trait, and devices may be moved onto sharded
/// worker threads; logics are plain tables and counters, so this is
/// free.
pub trait SwitchLogic: 'static + Send {
    /// Name for traces.
    fn name(&self) -> &str;

    /// Number of ports (fixed at construction).
    fn num_ports(&self) -> usize;

    /// Called once at simulation start.
    fn on_start(&mut self, _env: &mut LogicEnv) {}

    /// Process one received frame; returns which path (hardware or
    /// software) made the decision, for the timing wrapper.
    fn on_frame(
        &mut self,
        port: PortNo,
        frame: EthernetFrame,
        env: &mut LogicEnv,
    ) -> ProcessingClass;

    /// A requested timer fired.
    fn on_timer(&mut self, _token: TimerToken, _env: &mut LogicEnv) {}

    /// Carrier change on `port`.
    fn on_link_status(&mut self, _port: PortNo, _up: bool, _env: &mut LogicEnv) {}

    /// Decision-plane counters.
    fn counters(&self) -> &SwitchCounters;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_tally_by_reason() {
        let mut c = SwitchCounters::default();
        c.drop_frame(DropReason::LostRace);
        c.drop_frame(DropReason::LostRace);
        c.drop_frame(DropReason::NoPath);
        assert_eq!(c.dropped(DropReason::LostRace), 2);
        assert_eq!(c.dropped(DropReason::NoPath), 1);
        assert_eq!(c.dropped(DropReason::PortBlocked), 0);
        assert_eq!(c.total_dropped(), 3);
    }

    #[test]
    fn flood_skips_ingress_and_down_ports() {
        use arppath_wire::{ArpPacket, MacAddr};
        use std::net::Ipv4Addr;
        let frame = EthernetFrame::arp_request(
            MacAddr::from_index(1, 1),
            ArpPacket::request(
                MacAddr::from_index(1, 1),
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
            ),
        );
        let ports_up = [true, true, false, true];
        let mut commands = Vec::new();
        let mut env = LogicEnv::new(SimTime::ZERO, &ports_up, 4, &mut commands);
        let n = env.flood(&frame, PortNo(0));
        assert_eq!(n, 2, "ports 1 and 3 (2 is down, 0 is ingress)");
        let out_ports: Vec<usize> =
            commands.iter().filter_map(Command::as_send).map(|(p, _)| p.0).collect();
        assert_eq!(out_ports, vec![1, 3]);
    }

    #[test]
    fn env_reports_uncabled_ports_down() {
        let ports_up = [true];
        let mut commands = Vec::new();
        let env = LogicEnv::new(SimTime::ZERO, &ports_up, 4, &mut commands);
        assert!(env.is_port_up(PortNo(0)));
        assert!(!env.is_port_up(PortNo(3)));
    }
}
