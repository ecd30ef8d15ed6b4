//! The device abstraction: anything attached to the simulated network —
//! an ARP-Path bridge, an STP bridge, a NetFPGA pipeline model, a host.

use crate::time::{SimDuration, SimTime};
use arppath_wire::EthernetFrame;
use std::any::Any;

/// Identifies a device within one [`crate::Network`]. Assigned densely
/// by the builder in insertion order, which also makes it the
/// deterministic tiebreaker everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// A port number local to one device, starting at 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortNo(pub usize);

/// An opaque timer cookie chosen by the device when scheduling; returned
/// verbatim in [`Device::on_timer`]. Devices encode their own meaning
/// (e.g. "hello tick", "lock expiry for table slot 12").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken(pub u64);

/// Side effects a device requests during a callback.
///
/// Callbacks cannot borrow the engine mutably (they *are* borrowed from
/// it), so they enqueue commands that the engine applies immediately
/// after the callback returns — the command pattern, applied in order,
/// keeping the simulation fully deterministic.
#[derive(Debug)]
pub enum Command {
    /// Transmit a frame out of a local port.
    Send {
        /// Egress port.
        port: PortNo,
        /// Frame to transmit.
        frame: EthernetFrame,
    },
    /// Request an [`Device::on_timer`] callback `after` from now.
    Schedule {
        /// Delay from the current instant.
        after: SimDuration,
        /// Cookie returned with the callback.
        token: TimerToken,
    },
}

impl Command {
    /// The egress port and frame, if this is a [`Command::Send`] — how a
    /// test reads what a callback sent out of its command buffer.
    pub fn as_send(&self) -> Option<(PortNo, &EthernetFrame)> {
        match self {
            Command::Send { port, frame } => Some((*port, frame)),
            Command::Schedule { .. } => None,
        }
    }
}

/// Per-callback context handed to devices: the clock, link state, and a
/// command sink.
pub struct Ctx<'a> {
    now: SimTime,
    node: NodeId,
    ports_up: &'a [bool],
    commands: &'a mut Vec<Command>,
}

impl<'a> Ctx<'a> {
    /// Build a context. The engine does this on every callback; it is
    /// public so device implementations can drive their own callbacks
    /// in unit tests without standing up a full network.
    pub fn new(
        now: SimTime,
        node: NodeId,
        ports_up: &'a [bool],
        commands: &'a mut Vec<Command>,
    ) -> Self {
        Ctx { now, node, ports_up, commands }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This device's id (useful for self-referencing trace lines).
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of ports this device was wired with.
    pub fn num_ports(&self) -> usize {
        self.ports_up.len()
    }

    /// Whether `port` currently has link (carrier). Ports that were
    /// never cabled report `false`, exactly like an SFP cage with no
    /// module.
    pub fn is_port_up(&self, port: PortNo) -> bool {
        self.ports_up.get(port.0).copied().unwrap_or(false)
    }

    /// Transmit `frame` out of `port`. Silently ignored by the engine if
    /// the port is down — matching hardware, where a MAC happily writes
    /// into a dead PHY (the engine still counts it as a drop).
    pub fn send(&mut self, port: PortNo, frame: EthernetFrame) {
        self.commands.push(Command::Send { port, frame });
    }

    /// Transmit a copy of `frame` out of every up port except `except`,
    /// in port order — the flood primitive. Returns how many copies
    /// were queued.
    pub fn flood(&mut self, frame: &EthernetFrame, except: PortNo) -> usize {
        let before = self.commands.len();
        for p in 0..self.ports_up.len() {
            if p != except.0 && self.ports_up[p] {
                self.send(PortNo(p), frame.clone());
            }
        }
        self.commands.len() - before
    }

    /// Schedule an `on_timer(token)` callback `after` from now.
    pub fn schedule(&mut self, after: SimDuration, token: TimerToken) {
        self.commands.push(Command::Schedule { after, token });
    }

    /// The port-state slice and the command buffer themselves, for a
    /// device that lends an inner [`Ctx`] over a buffer of its own (a
    /// timing wrapper holding a decision's sends back) or moves held
    /// commands into the engine's buffer.
    pub fn parts(&mut self) -> (&[bool], &mut Vec<Command>) {
        (self.ports_up, self.commands)
    }
}

/// A network-attached device. Implementations must be deterministic:
/// identical callback sequences must produce identical command
/// sequences (seed any internal randomness at construction).
///
/// `Send` is a supertrait because the sharded engine
/// ([`crate::sharded`]) moves whole per-shard [`crate::Network`]s onto
/// worker threads; devices are plain simulation state, so this costs
/// implementations nothing (no `Rc`/`RefCell` inside devices). `Any`
/// is a supertrait so [`crate::Network::device`] can downcast a
/// `&dyn Device` to its concrete type.
pub trait Device: Any + Send {
    /// Short stable name used in traces (e.g. `"NF1"`, `"hostA"`).
    fn name(&self) -> &str;

    /// Called once when the simulation starts; schedule initial timers
    /// (protocol hellos, application start) here.
    fn on_start(&mut self, _ctx: &mut Ctx) {}

    /// A frame has been fully received on `port` (store-and-forward:
    /// the last bit has arrived).
    fn on_frame(&mut self, port: PortNo, frame: EthernetFrame, ctx: &mut Ctx);

    /// A previously scheduled timer fired.
    fn on_timer(&mut self, _token: TimerToken, _ctx: &mut Ctx) {}

    /// The carrier on `port` changed (cable plugged / cut). Fired for
    /// administrative link changes scheduled by the harness.
    fn on_link_status(&mut self, _port: PortNo, _up: bool, _ctx: &mut Ctx) {}

    /// Whether link-local control frames (PFC pause/resume, see
    /// [`crate::pfc`]) should be handed to `on_frame` instead of being
    /// intercepted by the engine. Standard devices never see them, like
    /// a real NIC whose MAC consumes pause frames in hardware; the
    /// sharded engine's boundary stubs override this so control frames
    /// cross the shard cut as ordinary wire bytes and take effect in
    /// the receiving shard.
    fn forwards_control_frames(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_reports_port_state() {
        let ports = [true, false];
        let mut cmds = Vec::new();
        let ctx = Ctx::new(SimTime(5), NodeId(1), &ports, &mut cmds);
        assert!(ctx.is_port_up(PortNo(0)));
        assert!(!ctx.is_port_up(PortNo(1)));
        assert!(!ctx.is_port_up(PortNo(7)), "uncabled ports read down");
        assert_eq!(ctx.num_ports(), 2);
        assert_eq!(ctx.now(), SimTime(5));
        assert_eq!(ctx.node(), NodeId(1));
    }

    #[test]
    fn commands_accumulate_in_order() {
        let ports = [true];
        let mut cmds = Vec::new();
        let mut ctx = Ctx::new(SimTime(0), NodeId(0), &ports, &mut cmds);
        ctx.schedule(SimDuration::millis(1), TimerToken(7));
        ctx.schedule(SimDuration::millis(2), TimerToken(8));
        assert_eq!(cmds.len(), 2);
        match &cmds[0] {
            Command::Schedule { token, .. } => assert_eq!(*token, TimerToken(7)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn flood_skips_except_and_down_ports() {
        use arppath_wire::{EtherType, MacAddr, Payload};
        let frame = EthernetFrame::new(
            MacAddr::BROADCAST,
            MacAddr::from_index(1, 1),
            Payload::Raw { ethertype: EtherType(0x88B6), data: Default::default() },
        );
        let ports = [true, true, false, true];
        let mut cmds = Vec::new();
        let mut ctx = Ctx::new(SimTime(0), NodeId(0), &ports, &mut cmds);
        assert_eq!(ctx.flood(&frame, PortNo(0)), 2, "ports 1 and 3 (2 is down, 0 excepted)");
        let out: Vec<usize> = cmds.iter().filter_map(Command::as_send).map(|(p, _)| p.0).collect();
        assert_eq!(out, vec![1, 3]);
    }
}
