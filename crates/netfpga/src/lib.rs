//! A timing model of the NetFPGA-1G reference switch pipeline, hosting
//! any [`SwitchLogic`].
//!
//! The paper's bridges ran in the output-port-lookup stage of the
//! NetFPGA reference pipeline: packets are stored by the input
//! arbiter, walked through a 64-bit datapath clocked at 125 MHz, looked
//! up in on-chip table memory, and queued toward the output MACs;
//! anything the hardware cannot decide (control messages, table
//! exceptions) crosses the PCI bus to the host CPU. This crate models
//! exactly those latency terms:
//!
//! * **pipeline traversal** — a fixed register-stage cost plus the
//!   store-and-forward walk of the frame through the 8-byte datapath;
//! * **hardware lookup** — a handful of cycles, already inside the
//!   fixed cost;
//! * **software exceptions** — a fixed PCI/DMA + interrupt + kernel
//!   round-trip, serialized through the single CPU (FIFO).
//!
//! The decision plane is byte-for-byte the same [`SwitchLogic`] that
//! runs under the zero-latency [`arppath_switch::IdealSwitch`] — the
//! "same algorithm, two substrates" comparison the original authors
//! made across their OMNeT++/Linux/OpenFlow/NetFPGA implementations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use arppath_netsim::{Command, Ctx, Device, PortNo, SimDuration, SimTime, TimerToken};
use arppath_switch::{ProcessingClass, SwitchLogic};
use arppath_wire::EthernetFrame;
use std::collections::BTreeMap;

/// Marks wrapper-owned timer tokens (logic tokens must not set it; the
/// protocol crates in this workspace all use small constants).
const WRAPPER_TOKEN_BIT: u64 = 1 << 63;

/// Timing parameters of the card.
#[derive(Debug, Clone, Copy)]
pub struct NetFpgaParams {
    /// Core clock (125 MHz on the NetFPGA-1G).
    pub core_clock_hz: u64,
    /// Datapath width in bytes per cycle (64-bit = 8).
    pub datapath_bytes_per_cycle: u64,
    /// Fixed pipeline cost in cycles: input arbiter hand-off, the
    /// output-port-lookup stage (including the table lookup), and
    /// output-queue insertion.
    pub fixed_pipeline_cycles: u64,
    /// One-way cost of punting a frame to the host CPU and acting on
    /// its verdict: PCI/DMA transfer, interrupt, kernel, process.
    pub software_exception_latency: SimDuration,
}

impl Default for NetFpgaParams {
    fn default() -> Self {
        NetFpgaParams {
            core_clock_hz: 125_000_000,
            datapath_bytes_per_cycle: 8,
            // ~40 cycles ≈ 320 ns of register stages — the ballpark the
            // reference switch reports.
            fixed_pipeline_cycles: 40,
            // Tens of microseconds is what a PCI round trip plus kernel
            // scheduling cost on the demo-era hosts.
            software_exception_latency: SimDuration::micros(60),
        }
    }
}

impl NetFpgaParams {
    /// Nanoseconds per core cycle.
    fn cycle_ns(&self) -> f64 {
        1e9 / self.core_clock_hz as f64
    }

    /// Hardware pipeline latency for a frame of `len` bytes: fixed
    /// stages plus the datapath walk.
    pub fn hardware_latency(&self, len: usize) -> SimDuration {
        let walk_cycles = (len as u64).div_ceil(self.datapath_bytes_per_cycle);
        let cycles = self.fixed_pipeline_cycles + walk_cycles;
        SimDuration::nanos((cycles as f64 * self.cycle_ns()).round() as u64)
    }
}

/// Per-card counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetFpgaCounters {
    /// Frames decided entirely in the pipeline.
    pub hw_frames: u64,
    /// Frames that crossed to the host CPU.
    pub sw_frames: u64,
    /// Total time frames spent queued for the CPU beyond the fixed
    /// exception latency (contention).
    pub sw_queueing_ns: u64,
}

/// A NetFPGA card running `logic` in its lookup stage.
pub struct NetFpgaSwitch<L: SwitchLogic> {
    logic: L,
    params: NetFpgaParams,
    /// Frames decided but still "in the pipeline": token → the sends
    /// held back.
    pending: BTreeMap<u64, Vec<Command>>,
    next_token: u64,
    /// The CPU finishes its current exception at this instant.
    cpu_busy_until: SimTime,
    counters: NetFpgaCounters,
}

impl<L: SwitchLogic> NetFpgaSwitch<L> {
    /// Put `logic` onto a card with `params`.
    pub fn new(logic: L, params: NetFpgaParams) -> Self {
        NetFpgaSwitch {
            logic,
            params,
            pending: BTreeMap::new(),
            next_token: 0,
            cpu_busy_until: SimTime::ZERO,
            counters: NetFpgaCounters::default(),
        }
    }

    /// The hosted decision plane.
    pub fn logic(&self) -> &L {
        &self.logic
    }

    /// Mutable access to the decision plane.
    pub fn logic_mut(&mut self) -> &mut L {
        &mut self.logic
    }

    /// Card counters.
    pub fn nf_counters(&self) -> NetFpgaCounters {
        self.counters
    }

    /// The card's timing parameters.
    pub fn params(&self) -> NetFpgaParams {
        self.params
    }

    /// Release `outputs` (the sends a frame's decision produced) after
    /// the latency implied by `class`.
    fn emit_delayed(
        &mut self,
        outputs: Vec<Command>,
        class: ProcessingClass,
        frame_len: usize,
        ctx: &mut Ctx,
    ) {
        let now = ctx.now();
        let hw = self.params.hardware_latency(frame_len);
        let release_at = match class {
            ProcessingClass::Hardware => {
                self.counters.hw_frames += 1;
                now + hw
            }
            ProcessingClass::Software => {
                self.counters.sw_frames += 1;
                // The CPU is a FIFO server: exceptions queue behind the
                // one in service.
                let start = self.cpu_busy_until.max(now + hw);
                let done = start + self.params.software_exception_latency;
                self.cpu_busy_until = done;
                self.counters.sw_queueing_ns += (start - (now + hw)).as_nanos();
                done
            }
        };
        if outputs.is_empty() {
            return;
        }
        let token = self.next_token | WRAPPER_TOKEN_BIT;
        self.next_token += 1;
        self.pending.insert(token, outputs);
        ctx.schedule(release_at - now, TimerToken(token));
    }
}

/// Logic timer tokens must leave the wrapper's bit alone.
fn is_logic_command(cmd: &Command) -> bool {
    !matches!(cmd, Command::Schedule { token, .. } if token.0 & WRAPPER_TOKEN_BIT != 0)
}

impl<L: SwitchLogic> Device for NetFpgaSwitch<L> {
    fn name(&self) -> &str {
        self.logic.name()
    }

    // Control-plane callbacks (start-up, timers, carrier changes): their
    // traffic — hellos, BPDUs — originates at the CPU and does not
    // traverse the lookup path, so the logic decides through the
    // engine's `Ctx` and everything leaves at once.
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.logic.on_start(ctx);
    }

    fn on_frame(&mut self, port: PortNo, frame: EthernetFrame, ctx: &mut Ctx) {
        let len = frame.wire_len();
        // The frame's sends must wait out the pipeline, so the logic
        // gets a buffer of the card's to decide into; the timers it
        // arms start now and are handed on, what stays is held back.
        let mut held = Vec::new();
        let (now, node) = (ctx.now(), ctx.node());
        let class =
            self.logic.on_frame(port, frame, &mut Ctx::new(now, node, ctx.parts().0, &mut held));
        held.retain(|cmd| match *cmd {
            Command::Send { .. } => true,
            Command::Schedule { after, token } => {
                debug_assert!(is_logic_command(cmd), "logic token collides with wrapper");
                ctx.schedule(after, token);
                false
            }
        });
        self.emit_delayed(held, class, len, ctx);
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
        if token.0 & WRAPPER_TOKEN_BIT != 0 {
            if let Some(mut outputs) = self.pending.remove(&token.0) {
                ctx.parts().1.append(&mut outputs);
            }
            return;
        }
        self.logic.on_timer(token, ctx);
    }

    fn on_link_status(&mut self, port: PortNo, up: bool, ctx: &mut Ctx) {
        self.logic.on_link_status(port, up, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arppath::{ArpPathBridge, ArpPathConfig};
    use arppath_netsim::{LinkParams, NetworkBuilder, NodeId, SimTime};
    use arppath_switch::{LearningConfig, LearningSwitch};
    use arppath_wire::{ArpPacket, MacAddr, Payload};
    use std::net::Ipv4Addr;

    struct Probe {
        name: String,
        heard: Vec<(SimTime, EthernetFrame)>,
    }

    impl Device for Probe {
        fn name(&self) -> &str {
            &self.name
        }
        fn on_frame(&mut self, _: PortNo, frame: EthernetFrame, ctx: &mut Ctx) {
            self.heard.push((ctx.now(), frame));
        }
    }

    struct OneShot {
        name: String,
        frame: Option<EthernetFrame>,
    }

    impl Device for OneShot {
        fn name(&self) -> &str {
            &self.name
        }
        fn on_start(&mut self, ctx: &mut Ctx) {
            if let Some(f) = self.frame.take() {
                ctx.send(PortNo(0), f);
            }
        }
        fn on_frame(&mut self, _: PortNo, _: EthernetFrame, _: &mut Ctx) {}
    }

    fn arp_broadcast() -> EthernetFrame {
        EthernetFrame::arp_request(
            MacAddr::from_index(1, 1),
            ArpPacket::request(
                MacAddr::from_index(1, 1),
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
            ),
        )
    }

    #[test]
    fn hardware_latency_math() {
        let p = NetFpgaParams::default();
        // 60-byte frame: 40 fixed + ceil(60/8)=8 cycles = 48 cycles @ 8 ns.
        assert_eq!(p.hardware_latency(60), SimDuration::nanos(384));
        // 1514-byte frame: 40 + 190 = 230 cycles.
        assert_eq!(p.hardware_latency(1514), SimDuration::nanos(1840));
    }

    #[test]
    fn pipeline_adds_hardware_latency_to_forwarding() {
        // Learning switch on a card between two stations.
        let params = NetFpgaParams::default();
        let mut b = NetworkBuilder::new();
        let tx = b.add(Box::new(OneShot { name: "tx".into(), frame: Some(arp_broadcast()) }));
        let card = b.add(Box::new(NetFpgaSwitch::new(
            LearningSwitch::new("nf", 2, LearningConfig::default()),
            params,
        )));
        let rx = b.add(Box::new(Probe { name: "rx".into(), heard: Vec::new() }));
        let lp = LinkParams { propagation: SimDuration::ZERO, ..Default::default() };
        b.link(tx, 0, card, 0, lp);
        b.link(card, 1, rx, 0, lp);
        let mut net = b.build();
        net.run_until_idle(SimTime(u64::MAX));
        let probe = net.device::<Probe>(rx);
        assert_eq!(probe.heard.len(), 1);
        // 672 ns first hop + 384 ns pipeline + 672 ns second hop.
        assert_eq!(probe.heard[0].0, SimTime(672 + 384 + 672));
        let card_dev = net.device::<NetFpgaSwitch<LearningSwitch>>(card);
        assert_eq!(card_dev.nf_counters().hw_frames, 1);
        assert_eq!(card_dev.nf_counters().sw_frames, 0);
    }

    #[test]
    fn control_messages_pay_the_software_path() {
        // An ARP-Path bridge consumes a BridgeHello: software class.
        let params = NetFpgaParams::default();
        let hello_frame = {
            use arppath_wire::PathCtl;
            let ctl = PathCtl::hello(MacAddr::from_index(2, 9), 1);
            EthernetFrame::new(MacAddr::BROADCAST, MacAddr::from_index(2, 9), Payload::PathCtl(ctl))
        };
        let mut b = NetworkBuilder::new();
        let tx = b.add(Box::new(OneShot { name: "tx".into(), frame: Some(hello_frame) }));
        let card = b.add(Box::new(NetFpgaSwitch::new(
            ArpPathBridge::new("nf", MacAddr::from_index(2, 1), 2, ArpPathConfig::default()),
            params,
        )));
        let lp = LinkParams { propagation: SimDuration::ZERO, ..Default::default() };
        b.link(tx, 0, card, 0, lp);
        let mut net = b.build();
        net.run_until(SimTime(10_000_000));
        let card_dev = net.device::<NetFpgaSwitch<ArpPathBridge>>(card);
        assert_eq!(card_dev.nf_counters().sw_frames, 1);
        assert_eq!(card_dev.logic().ap_counters().hellos_rx, 1);
    }

    #[test]
    fn cpu_serializes_back_to_back_exceptions() {
        // Two control frames arriving at the same instant: the second
        // waits for the first's CPU service.
        let params = NetFpgaParams::default();
        let mut card =
            NetFpgaSwitch::new(LearningSwitch::new("nf", 2, LearningConfig::default()), params);
        let ports = [true, true];
        let mut cmds = Vec::new();
        let mut ctx = Ctx::new(SimTime(0), NodeId(0), &ports, &mut cmds);
        let out = || vec![Command::Send { port: PortNo(1), frame: arp_broadcast() }];
        card.emit_delayed(out(), ProcessingClass::Software, 60, &mut ctx);
        card.emit_delayed(out(), ProcessingClass::Software, 60, &mut ctx);
        assert_eq!(card.nf_counters().sw_frames, 2);
        assert!(card.nf_counters().sw_queueing_ns > 0, "second exception queued");
        let delays: Vec<u64> = cmds
            .iter()
            .filter_map(|c| match c {
                Command::Schedule { after, .. } => Some(after.as_nanos()),
                _ => None,
            })
            .collect();
        assert_eq!(delays.len(), 2);
        assert!(delays[1] > delays[0]);
        assert_eq!(delays[1] - delays[0], params.software_exception_latency.as_nanos());
    }

    #[test]
    fn same_logic_same_decisions_under_both_wrappers() {
        // The ARP-Path FSM must behave identically under Ideal and
        // NetFPGA wrappers — only timing differs. Feed one ARP flood
        // through both and compare the resulting tables.
        use arppath_switch::IdealSwitch;
        let run = |use_nf: bool| -> Option<(arppath::EntryState, usize)> {
            let mk_logic =
                || ArpPathBridge::new("nf", MacAddr::from_index(2, 1), 3, ArpPathConfig::default());
            let mut b = NetworkBuilder::new();
            let tx = b.add(Box::new(OneShot { name: "tx".into(), frame: Some(arp_broadcast()) }));
            let card: NodeId = if use_nf {
                b.add(Box::new(NetFpgaSwitch::new(mk_logic(), NetFpgaParams::default())))
            } else {
                b.add(Box::new(IdealSwitch::new(mk_logic())))
            };
            let rx = b.add(Box::new(Probe { name: "rx".into(), heard: Vec::new() }));
            let lp = LinkParams::default();
            b.link(tx, 0, card, 0, lp);
            b.link(card, 1, rx, 0, lp);
            let mut net = b.build();
            net.run_until(SimTime(100_000_000));
            let s = MacAddr::from_index(1, 1);
            let now = net.now();
            let entry = if use_nf {
                net.device::<NetFpgaSwitch<ArpPathBridge>>(card).logic().entry_of(s, now)
            } else {
                net.device::<IdealSwitch<ArpPathBridge>>(card).logic().entry_of(s, now)
            };
            entry.map(|e| (e.state, e.port.0))
        };
        assert_eq!(run(false), run(true));
        assert!(run(true).is_some());
    }
}
