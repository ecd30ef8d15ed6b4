//! The 802.1D spanning-tree bridge: BPDU state machine plus an
//! STP-gated learning data plane.
//!
//! This is the baseline the paper demos against (§3.1: "NICs operating
//! as separate STP bridges managed using Linux's bridge_utils"). The
//! implementation follows classic 802.1D-1998 semantics: configuration
//! BPDU priority vectors, root election, root/designated/blocked
//! roles, Blocking→Listening→Learning→Forwarding transitions paced by
//! forward-delay, max-age information expiry, and topology-change
//! notification with fast aging.
//!
//! Timer processing runs on a coarse periodic tick (default 50 ms).
//! That quantizes transitions by at most one tick — invisible next to
//! the protocol's multi-second timers, and it keeps the event count
//! independent of table sizes.

use crate::port::{PortRole, PortState, StpPort};
use arppath_netsim::{Ctx, PortNo, SimDuration, SimTime, TimerToken};
use arppath_switch::{AgingMap, DropReason, ProcessingClass, SwitchCounters, SwitchLogic};
use arppath_wire::llc::BpduTime;
use arppath_wire::{
    Bpdu, BpduFlags, BridgeId, ConfigBpdu, EthernetFrame, MacAddr, Payload, PortId16,
};

/// Timer cookie: periodic hello.
const TOKEN_HELLO: TimerToken = TimerToken(0x5354_5001);
/// Timer cookie: housekeeping tick (age expiry, state transitions).
const TOKEN_TICK: TimerToken = TimerToken(0x5354_5002);

/// Cost contributed by each port (4 = 1 Gbit/s in 802.1D-1998).
const PORT_PATH_COST: u32 = 4;

/// Normal FIB aging (802.1D: 300 s).
const AGING_TIME: SimDuration = SimDuration::secs(300);

/// Spanning-tree and data-plane configuration.
#[derive(Debug, Clone, Copy)]
pub struct StpConfig {
    /// Bridge priority (high 16 bits of the bridge id); lower wins
    /// root election. 802.1D default 0x8000.
    pub bridge_priority: u16,
    /// Interval between configuration BPDUs from the root (2 s).
    pub hello_time: SimDuration,
    /// Lifetime of received spanning-tree information (20 s).
    pub max_age: SimDuration,
    /// Time spent in each of Listening and Learning (15 s).
    pub forward_delay: SimDuration,
    /// Housekeeping granularity.
    pub tick: SimDuration,
    /// Added to message age on each relay hop, in 1/256 s units
    /// (the standard's 1-second overestimate).
    pub message_age_increment: u16,
}

/// The standard 802.1D timer profile.
impl Default for StpConfig {
    fn default() -> Self {
        StpConfig {
            bridge_priority: BridgeId::DEFAULT_PRIORITY,
            hello_time: SimDuration::secs(2),
            max_age: SimDuration::secs(20),
            forward_delay: SimDuration::secs(15),
            tick: SimDuration::millis(50),
            message_age_increment: 256,
        }
    }
}

impl StpConfig {
    /// A profile with every protocol timer divided by `factor` —
    /// used by unit tests to converge quickly. The *ratios* between
    /// hello/max-age/forward-delay (1:10:7.5) are preserved, so the
    /// protocol dynamics are unchanged. The per-hop message-age
    /// increment is a time quantity too and must scale with them:
    /// left at the standard 1 s it would exceed a scaled-down max-age
    /// after one relay hop, and relayed information would expire the
    /// instant it arrived.
    pub fn scaled_down(factor: u64) -> Self {
        let d = |dur: SimDuration| SimDuration::nanos(dur.as_nanos() / factor);
        let std = Self::default();
        StpConfig {
            hello_time: d(std.hello_time),
            max_age: d(std.max_age),
            forward_delay: d(std.forward_delay),
            tick: d(std.tick),
            message_age_increment: ((std.message_age_increment as u64 / factor).max(1)) as u16,
            ..std
        }
    }
}

/// STP-specific counters (on top of the generic switch counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StpCounters {
    /// Configuration BPDUs received.
    pub config_rx: u64,
    /// Configuration BPDUs transmitted.
    pub config_tx: u64,
    /// TCNs received.
    pub tcn_rx: u64,
    /// TCNs transmitted.
    pub tcn_tx: u64,
    /// Times received information expired (max-age).
    pub info_expiries: u64,
    /// Topology changes this bridge detected.
    pub topology_changes: u64,
    /// FIB flushes caused by topology change.
    pub fast_flushes: u64,
}

/// An 802.1D spanning-tree bridge as a [`SwitchLogic`].
pub struct StpBridge {
    name: String,
    bridge_id: BridgeId,
    config: StpConfig,
    ports: Vec<StpPort>,
    fib: AgingMap<MacAddr, PortNo>,
    /// Current root bridge in this bridge's view.
    root: BridgeId,
    /// Cost to that root.
    root_path_cost: u32,
    /// Port toward the root (`None` when this bridge is root).
    root_port: Option<PortNo>,
    /// Message age stored at the root port, relayed onward.
    root_message_age: u16,
    /// Set while this (non-root) bridge owes the root a TCN.
    tcn_pending: bool,
    /// While `Some`, this (root) bridge sets TC in its hellos.
    tc_while: Option<SimTime>,
    /// TC flag seen from the root: fast-age the FIB.
    tc_received: bool,
    counters: SwitchCounters,
    stp: StpCounters,
    started: bool,
}

impl StpBridge {
    /// Create a bridge named `name` with `num_ports` ports. `mac` is
    /// the bridge's base address (the root-election tiebreaker).
    pub fn new(name: impl Into<String>, mac: MacAddr, num_ports: usize, config: StpConfig) -> Self {
        let bridge_id = BridgeId::new(config.bridge_priority, mac);
        let ports =
            (0..num_ports).map(|p| StpPort::new(bridge_id, Self::port_id_of(p), false)).collect();
        StpBridge {
            name: name.into(),
            bridge_id,
            config,
            ports,
            fib: AgingMap::new(),
            root: bridge_id,
            root_path_cost: 0,
            root_port: None,
            root_message_age: 0,
            tcn_pending: false,
            tc_while: None,
            tc_received: false,
            counters: SwitchCounters::default(),
            stp: StpCounters::default(),
            started: false,
        }
    }

    fn port_id_of(port: usize) -> PortId16 {
        // 802.1D port numbers are 1-based on the wire.
        PortId16::new(PortId16::DEFAULT_PRIORITY, (port + 1) as u8)
    }

    /// This bridge's identifier.
    pub fn bridge_id(&self) -> BridgeId {
        self.bridge_id
    }

    /// The root bridge in this bridge's current view.
    pub fn root_bridge(&self) -> BridgeId {
        self.root
    }

    /// True when this bridge believes it is the root.
    pub fn is_root(&self) -> bool {
        self.root == self.bridge_id
    }

    /// Cost to the root.
    pub fn root_cost(&self) -> u32 {
        self.root_path_cost
    }

    /// Port toward the root.
    pub fn root_port(&self) -> Option<PortNo> {
        self.root_port
    }

    /// State of `port`.
    pub fn port_state(&self, port: PortNo) -> PortState {
        self.ports[port.0].state
    }

    /// Role of `port`.
    pub fn port_role(&self, port: PortNo) -> PortRole {
        self.ports[port.0].role
    }

    /// STP protocol counters.
    pub fn stp_counters(&self) -> StpCounters {
        self.stp
    }

    // ---- spanning tree computation ----

    /// Root priority vector of port `p` as a candidate root path, or
    /// `None` when the port offers no external information.
    fn candidate(&self, p: usize) -> Option<(BridgeId, u32, BridgeId, PortId16, PortId16)> {
        let port = &self.ports[p];
        if port.state == PortState::Disabled || port.info_is_own {
            return None;
        }
        // A port whose segment's designated bridge is ourselves cannot
        // be our path to the root.
        if port.designated_bridge == self.bridge_id {
            return None;
        }
        Some((
            port.designated_root,
            port.designated_cost.saturating_add(PORT_PATH_COST),
            port.designated_bridge,
            port.designated_port,
            Self::port_id_of(p),
        ))
    }

    /// Re-run root election and role assignment; start or stop state
    /// transitions accordingly. Returns ports that just became
    /// designated (so callers can transmit configs on them).
    fn recompute(&mut self, now: SimTime) -> Vec<PortNo> {
        let best = (0..self.ports.len()).filter_map(|p| self.candidate(p)).min();
        match best {
            Some((root, cost, _, _, pid)) if root < self.bridge_id => {
                self.root = root;
                self.root_path_cost = cost;
                let rp = (pid.number() - 1) as usize;
                self.root_port = Some(PortNo(rp));
                self.root_message_age = self.ports[rp].stored_message_age;
            }
            _ => {
                let was_root = self.is_root();
                self.root = self.bridge_id;
                self.root_path_cost = 0;
                self.root_port = None;
                self.root_message_age = 0;
                if !was_root {
                    // Just claimed root: stop owing TCNs (we now own TC).
                    self.tcn_pending = false;
                }
            }
        }

        let mut newly_designated = Vec::new();
        for p in 0..self.ports.len() {
            if self.ports[p].state == PortState::Disabled {
                continue;
            }
            if Some(PortNo(p)) == self.root_port {
                self.set_role(p, PortRole::Root, now);
                continue;
            }
            let my_claim = (self.root, self.root_path_cost, self.bridge_id, Self::port_id_of(p));
            let port = &self.ports[p];
            let stored = (
                port.designated_root,
                port.designated_cost,
                port.designated_bridge,
                port.designated_port,
            );
            if port.info_is_own || my_claim <= stored {
                let was_designated = port.role == PortRole::Designated;
                {
                    let port = &mut self.ports[p];
                    port.designated_root = my_claim.0;
                    port.designated_cost = my_claim.1;
                    port.designated_bridge = my_claim.2;
                    port.designated_port = my_claim.3;
                    port.stored_message_age = self.root_message_age;
                    port.info_is_own = true;
                    port.age_deadline = None;
                }
                self.set_role(p, PortRole::Designated, now);
                if !was_designated {
                    newly_designated.push(PortNo(p));
                }
            } else {
                self.set_role(p, PortRole::Blocked, now);
            }
        }
        newly_designated
    }

    fn set_role(&mut self, p: usize, role: PortRole, now: SimTime) {
        let port = &mut self.ports[p];
        port.role = role;
        match role {
            PortRole::Root | PortRole::Designated => {
                if port.state == PortState::Blocking {
                    port.state = PortState::Listening;
                    port.transition_at = Some(now + self.config.forward_delay);
                }
            }
            PortRole::Blocked => {
                if port.state == PortState::Forwarding {
                    self.detect_topology_change(now);
                }
                let port = &mut self.ports[p];
                port.state = PortState::Blocking;
                port.transition_at = None;
            }
            PortRole::Disabled => {
                port.state = PortState::Disabled;
                port.transition_at = None;
            }
        }
    }

    fn detect_topology_change(&mut self, now: SimTime) {
        self.stp.topology_changes += 1;
        if self.is_root() {
            // topology_change_time = max_age + forward_delay (§8.5.3.12).
            self.tc_while = Some(now + self.config.max_age + self.config.forward_delay);
        } else {
            self.tcn_pending = true;
        }
        self.fast_flush();
    }

    /// Topology change: age the FIB out aggressively. We flush
    /// outright (the RSTP behaviour) rather than re-timing entries to
    /// forward-delay; the observable effect — relearning via flood —
    /// is the same and it keeps the table code simple.
    fn fast_flush(&mut self) {
        if !self.fib.is_empty() {
            self.fib.clear();
            self.stp.fast_flushes += 1;
        }
    }

    fn effective_aging(&self) -> SimDuration {
        if self.tc_received || self.tc_while.is_some() || self.tcn_pending {
            self.config.forward_delay
        } else {
            AGING_TIME
        }
    }

    // ---- BPDU handling ----

    fn transmit_config(&mut self, p: usize, ctx: &mut Ctx) {
        let port = &mut self.ports[p];
        if port.state == PortState::Disabled {
            return;
        }
        let flags = BpduFlags {
            topology_change: if self.root == self.bridge_id {
                self.tc_while.is_some()
            } else {
                self.tc_received
            },
            tc_ack: port.send_tca,
        };
        port.send_tca = false;
        let message_age = if self.root == self.bridge_id {
            0
        } else {
            self.root_message_age.saturating_add(self.config.message_age_increment)
        };
        let bpdu = Bpdu::Config(ConfigBpdu {
            flags,
            root: self.root,
            root_path_cost: self.root_path_cost,
            bridge: self.bridge_id,
            port: Self::port_id_of(p),
            message_age: BpduTime(message_age),
            max_age: BpduTime::from_nanos(self.config.max_age.as_nanos()),
            hello_time: BpduTime::from_nanos(self.config.hello_time.as_nanos()),
            forward_delay: BpduTime::from_nanos(self.config.forward_delay.as_nanos()),
        });
        let frame =
            EthernetFrame::new(MacAddr::STP_MULTICAST, self.bridge_id.mac, Payload::Bpdu(bpdu));
        ctx.send(PortNo(p), frame);
        self.stp.config_tx += 1;
    }

    fn transmit_tcn(&mut self, ctx: &mut Ctx) {
        if let Some(rp) = self.root_port {
            let frame = EthernetFrame::new(
                MacAddr::STP_MULTICAST,
                self.bridge_id.mac,
                Payload::Bpdu(Bpdu::Tcn),
            );
            ctx.send(rp, frame);
            self.stp.tcn_tx += 1;
        }
    }

    fn process_config(&mut self, p: usize, cfg: ConfigBpdu, ctx: &mut Ctx) {
        self.stp.config_rx += 1;
        let now = ctx.now();
        let rx_vec = (cfg.root, cfg.root_path_cost, cfg.bridge, cfg.port);
        let port = &self.ports[p];
        let stored_vec = if port.info_is_own {
            (self.root, self.root_path_cost, self.bridge_id, Self::port_id_of(p))
        } else {
            (
                port.designated_root,
                port.designated_cost,
                port.designated_bridge,
                port.designated_port,
            )
        };
        let same_source = !port.info_is_own
            && cfg.bridge == port.designated_bridge
            && cfg.port == port.designated_port;

        if rx_vec < stored_vec || same_source {
            // Accept: store the received information and re-derive.
            let max_age = SimDuration::nanos(cfg.max_age.as_nanos());
            let age = SimDuration::nanos(BpduTime(cfg.message_age.0).as_nanos());
            let remaining = max_age.saturating_sub(age);
            {
                let port = &mut self.ports[p];
                port.designated_root = cfg.root;
                port.designated_cost = cfg.root_path_cost;
                port.designated_bridge = cfg.bridge;
                port.designated_port = cfg.port;
                port.stored_message_age = cfg.message_age.0;
                port.info_is_own = false;
                port.age_deadline = Some(now + remaining.max(self.config.tick));
            }
            let newly_designated = self.recompute(now);
            for np in &newly_designated {
                self.transmit_config(np.0, ctx);
            }
            if Some(PortNo(p)) == self.root_port {
                // Information from the root: propagate downstream and
                // adopt the root's topology-change view.
                let tc_was = self.tc_received;
                self.tc_received = cfg.flags.topology_change;
                if self.tc_received && !tc_was {
                    self.fast_flush();
                }
                if cfg.flags.tc_ack {
                    self.tcn_pending = false;
                }
                for q in 0..self.ports.len() {
                    if self.ports[q].role == PortRole::Designated
                        && !newly_designated.contains(&PortNo(q))
                    {
                        self.transmit_config(q, ctx);
                    }
                }
            }
        } else if self.ports[p].role == PortRole::Designated && rx_vec > stored_vec {
            // The neighbour is behind: correct it with our (better)
            // information.
            self.transmit_config(p, ctx);
        }
    }

    fn process_tcn(&mut self, p: usize, ctx: &mut Ctx) {
        self.stp.tcn_rx += 1;
        if self.ports[p].role != PortRole::Designated {
            return;
        }
        // Acknowledge on the segment the TCN came from.
        self.ports[p].send_tca = true;
        self.transmit_config(p, ctx);
        if self.is_root() {
            let now = ctx.now();
            self.tc_while = Some(now + self.config.max_age + self.config.forward_delay);
            self.fast_flush();
        } else {
            self.tcn_pending = true; // relay toward the root each hello
            self.transmit_tcn(ctx);
        }
    }

    // ---- housekeeping ----

    fn tick(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        // Expire received information (max-age horizon).
        let mut expired_any = false;
        for p in 0..self.ports.len() {
            let port = &mut self.ports[p];
            if let Some(dl) = port.age_deadline {
                if dl <= now {
                    port.reclaim(self.bridge_id, Self::port_id_of(p));
                    self.stp.info_expiries += 1;
                    expired_any = true;
                }
            }
        }
        if expired_any {
            let newly = self.recompute(now);
            for np in newly {
                self.transmit_config(np.0, ctx);
            }
            // Losing the root's heartbeat is itself a topology change.
            self.detect_topology_change(now);
        }
        // Advance Listening→Learning→Forwarding.
        for p in 0..self.ports.len() {
            let port = &mut self.ports[p];
            if let Some(t) = port.transition_at {
                if t <= now {
                    match port.state {
                        PortState::Listening => {
                            port.state = PortState::Learning;
                            port.transition_at = Some(now + self.config.forward_delay);
                        }
                        PortState::Learning => {
                            port.state = PortState::Forwarding;
                            port.transition_at = None;
                            self.detect_topology_change(now);
                        }
                        _ => port.transition_at = None,
                    }
                }
            }
        }
        // Expire the root's TC period.
        if let Some(dl) = self.tc_while {
            if dl <= now {
                self.tc_while = None;
            }
        }
        ctx.schedule(self.config.tick, TOKEN_TICK);
    }

    fn hello(&mut self, ctx: &mut Ctx) {
        if self.is_root() {
            for p in 0..self.ports.len() {
                if self.ports[p].role == PortRole::Designated {
                    self.transmit_config(p, ctx);
                }
            }
        } else if self.tcn_pending {
            self.transmit_tcn(ctx);
        }
        ctx.schedule(self.config.hello_time, TOKEN_HELLO);
    }

    // ---- data plane ----

    fn forward_data(&mut self, ingress: PortNo, frame: EthernetFrame, ctx: &mut Ctx) {
        let now = ctx.now();
        let in_state = self.ports[ingress.0].state;
        if !in_state.learns() {
            self.counters.drop_frame(DropReason::PortBlocked);
            return;
        }
        if frame.src.is_unicast() {
            self.fib.insert(frame.src, ingress, now + self.effective_aging());
        }
        if !in_state.forwards() {
            self.counters.drop_frame(DropReason::PortBlocked);
            return;
        }
        let flood_to: Vec<PortNo> = (0..self.ports.len())
            .map(PortNo)
            .filter(|&p| p != ingress && self.ports[p.0].state.forwards() && ctx.is_port_up(p))
            .collect();
        if frame.is_flooded() {
            self.counters.flooded += 1;
            for p in flood_to {
                ctx.send(p, frame.clone());
            }
            return;
        }
        match self.fib.get(&frame.dst, now).copied() {
            Some(out) if out == ingress => {
                self.counters.drop_frame(DropReason::NoPath);
            }
            Some(out) if self.ports[out.0].state.forwards() => {
                self.counters.forwarded += 1;
                ctx.send(out, frame);
            }
            Some(_) => {
                // Learned on a port that has since stopped forwarding;
                // the entry is stale — treat as unknown.
                self.counters.flooded += 1;
                for p in flood_to {
                    ctx.send(p, frame.clone());
                }
            }
            None => {
                self.counters.flooded += 1;
                for p in flood_to {
                    ctx.send(p, frame.clone());
                }
            }
        }
    }
}

impl SwitchLogic for StpBridge {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_ports(&self) -> usize {
        self.ports.len()
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        self.started = true;
        let now = ctx.now();
        for p in 0..self.ports.len() {
            let up = ctx.is_port_up(PortNo(p));
            self.ports[p] = StpPort::new(self.bridge_id, Self::port_id_of(p), up);
        }
        self.recompute(now);
        // Announce ourselves on every designated port straight away
        // (ports initialize in the Designated role, so the recompute's
        // newly-designated list is empty here by construction).
        for p in 0..self.ports.len() {
            if self.ports[p].role == PortRole::Designated {
                self.transmit_config(p, ctx);
            }
        }
        ctx.schedule(self.config.hello_time, TOKEN_HELLO);
        ctx.schedule(self.config.tick, TOKEN_TICK);
    }

    fn on_frame(&mut self, port: PortNo, frame: EthernetFrame, ctx: &mut Ctx) -> ProcessingClass {
        if self.ports[port.0].state == PortState::Disabled {
            self.counters.drop_frame(DropReason::PortBlocked);
            return ProcessingClass::Hardware;
        }
        if frame.dst == MacAddr::STP_MULTICAST {
            if let Payload::Bpdu(bpdu) = frame.payload {
                self.counters.consumed += 1;
                match bpdu {
                    Bpdu::Config(cfg) => self.process_config(port.0, cfg, ctx),
                    Bpdu::Tcn => self.process_tcn(port.0, ctx),
                }
                return ProcessingClass::Software;
            }
            // Non-BPDU on the reserved group address: drop, per 802.1D.
            self.counters.drop_frame(DropReason::Malformed);
            return ProcessingClass::Hardware;
        }
        self.forward_data(port, frame, ctx);
        ProcessingClass::Hardware
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
        match token {
            TOKEN_HELLO => self.hello(ctx),
            TOKEN_TICK => self.tick(ctx),
            _ => {}
        }
    }

    fn on_link_status(&mut self, port: PortNo, up: bool, ctx: &mut Ctx) {
        let now = ctx.now();
        let p = port.0;
        if up {
            self.ports[p] = StpPort::new(self.bridge_id, Self::port_id_of(p), true);
        } else {
            let was_forwarding = self.ports[p].state == PortState::Forwarding;
            self.ports[p] = StpPort::new(self.bridge_id, Self::port_id_of(p), false);
            self.fib.retain(|_, &q| q != port);
            if was_forwarding {
                self.detect_topology_change(now);
            }
        }
        let newly = self.recompute(now);
        for np in newly {
            self.transmit_config(np.0, ctx);
        }
    }

    fn counters(&self) -> &SwitchCounters {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arppath_netsim::{Command, NodeId};

    fn mk(name: &str, idx: u32, ports: usize, cfg: StpConfig) -> StpBridge {
        StpBridge::new(name, MacAddr::from_index(2, idx), ports, cfg)
    }

    /// Run one callback at `now` over the given carrier states; returns
    /// the frames it sent.
    fn run<R>(
        ports_up: &[bool],
        now: SimTime,
        f: impl FnOnce(&mut Ctx) -> R,
    ) -> Vec<(PortNo, EthernetFrame)> {
        let mut commands = Vec::new();
        f(&mut Ctx::new(now, NodeId(0), ports_up, &mut commands));
        commands.iter().filter_map(Command::as_send).map(|(p, f)| (p, f.clone())).collect()
    }

    fn cfg_bpdu(root_idx: u32, cost: u32, bridge_idx: u32, port: u8) -> ConfigBpdu {
        cfg_bpdu_with_timers(root_idx, cost, bridge_idx, port, StpConfig::default())
    }

    /// BPDU carrying the timer values of `timers` — receivers adopt the
    /// root's timers from the wire, so tests with scaled-down configs
    /// must advertise scaled-down values too.
    fn cfg_bpdu_with_timers(
        root_idx: u32,
        cost: u32,
        bridge_idx: u32,
        port: u8,
        timers: StpConfig,
    ) -> ConfigBpdu {
        ConfigBpdu {
            flags: BpduFlags::default(),
            root: BridgeId::new(0x8000, MacAddr::from_index(2, root_idx)),
            root_path_cost: cost,
            bridge: BridgeId::new(0x8000, MacAddr::from_index(2, bridge_idx)),
            port: PortId16::new(0x80, port),
            message_age: BpduTime(0),
            max_age: BpduTime::from_nanos(timers.max_age.as_nanos()),
            hello_time: BpduTime::from_nanos(timers.hello_time.as_nanos()),
            forward_delay: BpduTime::from_nanos(timers.forward_delay.as_nanos()),
        }
    }

    fn bpdu_frame(cfg: ConfigBpdu) -> EthernetFrame {
        EthernetFrame::new(MacAddr::STP_MULTICAST, cfg.bridge.mac, Payload::Bpdu(Bpdu::Config(cfg)))
    }

    #[test]
    fn isolated_bridge_elects_itself_root() {
        let mut br = mk("b", 5, 2, StpConfig::default());
        let ports_up = [true, true];
        let outputs = run(&ports_up, SimTime::ZERO, |ctx| br.on_start(ctx));
        assert!(br.is_root());
        assert_eq!(br.port_role(PortNo(0)), PortRole::Designated);
        assert_eq!(br.port_state(PortNo(0)), PortState::Listening);
        // Initial configs went out on both designated ports.
        assert_eq!(outputs.len(), 2);
    }

    #[test]
    fn superior_bpdu_dethrones_self_elected_root() {
        let mut br = mk("b", 5, 2, StpConfig::default());
        let ports_up = [true, true];
        run(&ports_up, SimTime::ZERO, |ctx| br.on_start(ctx));
        // Root claim from bridge 1 (lower MAC → better) at cost 0.
        run(&ports_up, SimTime(1000), |ctx| {
            br.on_frame(PortNo(0), bpdu_frame(cfg_bpdu(1, 0, 1, 1)), ctx)
        });
        assert!(!br.is_root());
        assert_eq!(br.root_bridge(), BridgeId::new(0x8000, MacAddr::from_index(2, 1)));
        assert_eq!(br.root_port(), Some(PortNo(0)));
        assert_eq!(br.root_cost(), 4, "cost 0 + port path cost 4");
        assert_eq!(br.port_role(PortNo(0)), PortRole::Root);
        assert_eq!(br.port_role(PortNo(1)), PortRole::Designated);
    }

    #[test]
    fn worse_path_to_same_root_gets_blocked() {
        let mut br = mk("b", 5, 2, StpConfig::default());
        let ports_up = [true, true];
        run(&ports_up, SimTime::ZERO, |ctx| br.on_start(ctx));
        // Port 0: root at cost 0 (direct). Port 1: another bridge (idx 3,
        // better than us, worse than root) also offering the root at cost 0.
        run(&ports_up, SimTime(1000), |ctx| {
            br.on_frame(PortNo(0), bpdu_frame(cfg_bpdu(1, 0, 1, 1)), ctx)
        });
        run(&ports_up, SimTime(2000), |ctx| {
            br.on_frame(PortNo(1), bpdu_frame(cfg_bpdu(1, 0, 3, 1)), ctx)
        });
        assert_eq!(br.root_port(), Some(PortNo(0)), "lower bridge id wins tiebreak");
        assert_eq!(br.port_role(PortNo(1)), PortRole::Blocked);
        assert_eq!(br.port_state(PortNo(1)), PortState::Blocking);
    }

    #[test]
    fn designated_port_corrects_inferior_neighbor() {
        let mut br = mk("b", 1, 2, StpConfig::default()); // lowest MAC: the root
        let ports_up = [true, true];
        run(&ports_up, SimTime::ZERO, |ctx| br.on_start(ctx));
        let tx_before = br.stp_counters().config_tx;
        // Inferior claim arrives (bridge 9 thinks *it* is root).
        let outputs = run(&ports_up, SimTime(1000), |ctx| {
            br.on_frame(PortNo(0), bpdu_frame(cfg_bpdu(9, 0, 9, 1)), ctx)
        });
        assert!(br.is_root(), "inferior info must not displace us");
        assert_eq!(br.stp_counters().config_tx, tx_before + 1, "reply sent to correct them");
        assert_eq!(outputs.len(), 1);
    }

    #[test]
    fn ports_walk_listening_learning_forwarding() {
        let cfg = StpConfig::scaled_down(100); // fwd delay 150 ms
        let mut br = mk("b", 5, 1, cfg);
        let ports_up = [true];
        run(&ports_up, SimTime::ZERO, |ctx| br.on_start(ctx));
        assert_eq!(br.port_state(PortNo(0)), PortState::Listening);
        // After one forward delay: Learning.
        let t1 = SimTime::ZERO + cfg.forward_delay + cfg.tick;
        run(&ports_up, t1, |ctx| br.tick(ctx));
        assert_eq!(br.port_state(PortNo(0)), PortState::Learning);
        // After another: Forwarding.
        let t2 = t1 + cfg.forward_delay + cfg.tick;
        run(&ports_up, t2, |ctx| br.tick(ctx));
        assert_eq!(br.port_state(PortNo(0)), PortState::Forwarding);
    }

    #[test]
    fn max_age_expiry_reclaims_root() {
        let cfg = StpConfig::scaled_down(100); // max age 200 ms
        let mut br = mk("b", 5, 1, cfg);
        let ports_up = [true];
        run(&ports_up, SimTime::ZERO, |ctx| br.on_start(ctx));
        run(&ports_up, SimTime(1000), |ctx| {
            br.on_frame(PortNo(0), bpdu_frame(cfg_bpdu_with_timers(1, 0, 1, 1, cfg)), ctx)
        });
        assert!(!br.is_root());
        // No refreshing BPDUs: info expires after max_age.
        let expiry = SimTime(1000) + cfg.max_age + cfg.tick;
        run(&ports_up, expiry, |ctx| br.tick(ctx));
        assert!(br.is_root(), "root information must age out");
        assert_eq!(br.stp_counters().info_expiries, 1);
    }

    #[test]
    fn data_frames_blocked_until_forwarding() {
        let mut br = mk("b", 5, 2, StpConfig::default());
        let ports_up = [true, true];
        run(&ports_up, SimTime::ZERO, |ctx| br.on_start(ctx));
        // Ports are Listening: data must not pass.
        let data = EthernetFrame::new(
            MacAddr::BROADCAST,
            MacAddr::from_index(1, 7),
            Payload::Raw {
                ethertype: arppath_wire::EtherType(0x88B6),
                data: bytes::Bytes::from(vec![0u8; 46]),
            },
        );
        let outputs = run(&ports_up, SimTime(10), |ctx| br.on_frame(PortNo(0), data.clone(), ctx));
        assert!(outputs.is_empty());
        assert_eq!(br.counters().dropped(DropReason::PortBlocked), 1);
        // Force both ports Forwarding and retry.
        for p in 0..2 {
            br.ports[p].state = PortState::Forwarding;
        }
        let outputs = run(&ports_up, SimTime(20), |ctx| br.on_frame(PortNo(0), data, ctx));
        assert_eq!(outputs.len(), 1, "flooded out the other forwarding port");
    }

    #[test]
    fn tcn_on_designated_port_is_acked_and_relayed() {
        let mut br = mk("b", 5, 2, StpConfig::default());
        let ports_up = [true, true];
        run(&ports_up, SimTime::ZERO, |ctx| br.on_start(ctx));
        // Make the bridge non-root with root via port 0.
        run(&ports_up, SimTime(1000), |ctx| {
            br.on_frame(PortNo(0), bpdu_frame(cfg_bpdu(1, 0, 1, 1)), ctx)
        });
        // TCN arrives on designated port 1.
        let tcn = EthernetFrame::new(
            MacAddr::STP_MULTICAST,
            MacAddr::from_index(2, 9),
            Payload::Bpdu(Bpdu::Tcn),
        );
        let outputs = run(&ports_up, SimTime(2000), |ctx| br.on_frame(PortNo(1), tcn, ctx));
        assert_eq!(br.stp_counters().tcn_rx, 1);
        assert_eq!(br.stp_counters().tcn_tx, 1, "relayed toward root");
        // The ack config went out on port 1 with TCA set.
        let acks: Vec<_> = outputs
            .iter()
            .filter_map(|(p, f)| match &f.payload {
                Payload::Bpdu(Bpdu::Config(c)) if c.flags.tc_ack => Some(*p),
                _ => None,
            })
            .collect();
        assert_eq!(acks, vec![PortNo(1)]);
    }

    #[test]
    fn root_sets_tc_flag_after_tcn() {
        let mut br = mk("b", 1, 2, StpConfig::default()); // root
        let ports_up = [true, true];
        run(&ports_up, SimTime::ZERO, |ctx| br.on_start(ctx));
        let tcn = EthernetFrame::new(
            MacAddr::STP_MULTICAST,
            MacAddr::from_index(2, 9),
            Payload::Bpdu(Bpdu::Tcn),
        );
        run(&ports_up, SimTime(1000), |ctx| br.on_frame(PortNo(0), tcn, ctx));
        // Next hello carries TC.
        let outputs = run(&ports_up, SimTime(2000), |ctx| br.hello(ctx));
        let tc_set = outputs.iter().any(|(_, f)| {
            matches!(&f.payload, Payload::Bpdu(Bpdu::Config(c)) if c.flags.topology_change)
        });
        assert!(tc_set);
    }

    #[test]
    fn link_down_flushes_and_recomputes() {
        let mut br = mk("b", 5, 2, StpConfig::default());
        let ports_up = [true, true];
        run(&ports_up, SimTime::ZERO, |ctx| br.on_start(ctx));
        run(&ports_up, SimTime(1000), |ctx| {
            br.on_frame(PortNo(0), bpdu_frame(cfg_bpdu(1, 0, 1, 1)), ctx)
        });
        assert!(!br.is_root());
        // Root port's link dies.
        let ports_down = [false, true];
        run(&ports_down, SimTime(2000), |ctx| br.on_link_status(PortNo(0), false, ctx));
        assert!(br.is_root(), "lost the only path to the root");
        assert_eq!(br.port_state(PortNo(0)), PortState::Disabled);
    }

    #[test]
    fn message_age_relay_accumulates() {
        let mut br = mk("b", 5, 2, StpConfig::default());
        let ports_up = [true, true];
        run(&ports_up, SimTime::ZERO, |ctx| br.on_start(ctx));
        let mut cfg = cfg_bpdu(1, 0, 1, 1);
        cfg.message_age = BpduTime(512); // 2 s old already
        let outputs =
            run(&ports_up, SimTime(1000), |ctx| br.on_frame(PortNo(0), bpdu_frame(cfg), ctx));
        // The config relayed out port 1 must carry age 512 + 256.
        let relayed = outputs
            .iter()
            .find_map(|(p, f)| match &f.payload {
                Payload::Bpdu(Bpdu::Config(c)) if *p == PortNo(1) => Some(*c),
                _ => None,
            })
            .expect("config relayed on designated port");
        assert_eq!(relayed.message_age.0, 768);
    }
}
