//! The classic transparent learning switch: learn source on ingress,
//! forward on hit, flood on miss.
//!
//! On a loopy topology this logic *will* melt the network with
//! broadcast storms — that is the point: it is the data plane that STP
//! (in `arppath-stp`) must protect, and the foil that makes ARP-Path's
//! loop-free flooding meaningful. It also serves as the unprotected
//! baseline in storm tests.

use crate::dleft::DLeftTable;
use crate::logic::{DropReason, ProcessingClass, SwitchCounters, SwitchLogic};
use arppath_netsim::{Ctx, PortNo, SimDuration, SimTime};
use arppath_wire::{EthernetFrame, MacAddr};

/// Configuration of a learning switch.
#[derive(Debug, Clone, Copy)]
pub struct LearningConfig {
    /// Aging time of learned entries (802.1D default: 300 s).
    pub aging_time: SimDuration,
    /// log2 of d-left buckets per way for the FIB's physical geometry
    /// (see [`crate::dleft`]). `None` takes the library default
    /// (512 slots, comfortable to ~128 stations); deployments
    /// expecting more stations size it with
    /// [`LearningConfig::with_expected_stations`], or watch
    /// [`LearningSwitch::fib_evictions`] for silent overflow.
    pub table_bucket_bits: Option<u32>,
}

impl Default for LearningConfig {
    fn default() -> Self {
        LearningConfig { aging_time: SimDuration::secs(300), table_bucket_bits: None }
    }
}

impl LearningConfig {
    /// Size the FIB's physical geometry for an expected station count
    /// (4× slot headroom; see [`crate::bucket_bits_for`]).
    pub fn with_expected_stations(mut self, stations: usize) -> Self {
        self.table_bucket_bits = Some(crate::dleft::bucket_bits_for(stations));
        self
    }
}

/// The learning-switch decision plane.
pub struct LearningSwitch {
    name: String,
    num_ports: usize,
    config: LearningConfig,
    /// MAC → port, aged — the hardware-shaped d-left FIB (the paper's
    /// learning bridges use the same NetFPGA table as ARP-Path).
    fib: DLeftTable<MacAddr, PortNo>,
    counters: SwitchCounters,
}

impl LearningSwitch {
    /// Create a switch with `num_ports` ports.
    pub fn new(name: impl Into<String>, num_ports: usize, config: LearningConfig) -> Self {
        let bits = config.table_bucket_bits.unwrap_or(crate::dleft::DEFAULT_BUCKET_BITS);
        LearningSwitch {
            name: name.into(),
            num_ports,
            config,
            fib: DLeftTable::with_bucket_bits(bits),
            counters: SwitchCounters::default(),
        }
    }

    /// Learn (or refresh) `src → port`.
    fn learn(&mut self, src: MacAddr, port: PortNo, now: SimTime) {
        if src.is_unicast() {
            self.fib.insert(src, port, now + self.config.aging_time);
        }
    }

    /// The port currently learned for `mac`, if live.
    pub fn lookup(&mut self, mac: MacAddr, now: SimTime) -> Option<PortNo> {
        self.fib.get(&mac, now).copied()
    }

    /// Number of (possibly stale) table entries.
    pub fn table_len(&self) -> usize {
        self.fib.len()
    }

    /// Forget everything learned on `port` (cable pulled).
    pub fn flush_port(&mut self, port: PortNo) {
        self.fib.retain(|_, &p| p != port);
    }

    /// FIB bucket-overflow evictions — nonzero means the fabric holds
    /// more stations than the configured geometry and the switch is
    /// silently forgetting live entries; resize with
    /// [`LearningConfig::with_expected_stations`].
    pub fn fib_evictions(&self) -> u64 {
        self.fib.evictions()
    }
}

impl SwitchLogic for LearningSwitch {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_ports(&self) -> usize {
        self.num_ports
    }

    fn on_frame(&mut self, port: PortNo, frame: EthernetFrame, ctx: &mut Ctx) -> ProcessingClass {
        let now = ctx.now();
        if !frame.src.is_unicast() {
            self.counters.drop_frame(DropReason::Malformed);
            return ProcessingClass::Hardware;
        }
        self.learn(frame.src, port, now);
        if frame.is_flooded() {
            self.counters.flooded += 1;
            ctx.flood(&frame, port);
            return ProcessingClass::Hardware;
        }
        match self.lookup(frame.dst, now) {
            Some(out) if out == port => {
                // Destination is back where the frame came from: filter,
                // per 802.1D §7.7 (do not reflect).
                self.counters.drop_frame(DropReason::NoPath);
            }
            Some(out) => {
                self.counters.forwarded += 1;
                ctx.send(out, frame);
            }
            None => {
                self.counters.flooded += 1;
                ctx.flood(&frame, port);
            }
        }
        ProcessingClass::Hardware
    }

    fn on_link_status(&mut self, port: PortNo, up: bool, _ctx: &mut Ctx) {
        if !up {
            self.flush_port(port);
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
    use arppath_wire::{EtherType, Payload};
    use bytes::Bytes;

    fn frame(src: MacAddr, dst: MacAddr) -> EthernetFrame {
        EthernetFrame::new(
            dst,
            src,
            Payload::Raw { ethertype: EtherType(0x88B6), data: Bytes::from(vec![0u8; 46]) },
        )
    }

    fn mac(i: u32) -> MacAddr {
        MacAddr::from_index(1, i)
    }

    fn run_frame(
        sw: &mut LearningSwitch,
        port: usize,
        f: EthernetFrame,
        now: SimTime,
    ) -> Vec<usize> {
        let ports_up = vec![true; sw.num_ports()];
        let mut commands = Vec::new();
        sw.on_frame(PortNo(port), f, &mut Ctx::new(now, NodeId(0), &ports_up, &mut commands));
        commands.iter().filter_map(Command::as_send).map(|(p, _)| p.0).collect()
    }

    #[test]
    fn unknown_unicast_floods() {
        let mut sw = LearningSwitch::new("sw", 4, LearningConfig::default());
        let out = run_frame(&mut sw, 0, frame(mac(1), mac(2)), SimTime::ZERO);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn learned_unicast_forwards_point_to_point() {
        let mut sw = LearningSwitch::new("sw", 4, LearningConfig::default());
        run_frame(&mut sw, 0, frame(mac(1), mac(2)), SimTime::ZERO);
        // mac(1) is now on port 0; traffic to it goes straight there.
        let out = run_frame(&mut sw, 3, frame(mac(2), mac(1)), SimTime(1));
        assert_eq!(out, vec![0]);
        assert_eq!(sw.counters().forwarded, 1);
    }

    #[test]
    fn frames_back_toward_origin_are_filtered() {
        let mut sw = LearningSwitch::new("sw", 4, LearningConfig::default());
        run_frame(&mut sw, 0, frame(mac(1), mac(2)), SimTime::ZERO);
        // From port 0 toward a MAC learned on port 0: filtered.
        let out = run_frame(&mut sw, 0, frame(mac(3), mac(1)), SimTime(1));
        assert!(out.is_empty());
        assert_eq!(sw.counters().dropped(DropReason::NoPath), 1);
    }

    #[test]
    fn entries_age_out_back_to_flooding() {
        let cfg = LearningConfig { aging_time: SimDuration::millis(1), ..Default::default() };
        let mut sw = LearningSwitch::new("sw", 3, cfg);
        run_frame(&mut sw, 0, frame(mac(1), mac(2)), SimTime::ZERO);
        let now = SimTime::ZERO + SimDuration::millis(2);
        let out = run_frame(&mut sw, 1, frame(mac(2), mac(1)), now);
        assert_eq!(out, vec![0, 2], "aged entry floods again");
    }

    #[test]
    fn relearning_moves_the_station() {
        let mut sw = LearningSwitch::new("sw", 4, LearningConfig::default());
        run_frame(&mut sw, 0, frame(mac(1), mac(9)), SimTime::ZERO);
        run_frame(&mut sw, 2, frame(mac(1), mac(9)), SimTime(10));
        assert_eq!(sw.lookup(mac(1), SimTime(20)), Some(PortNo(2)));
    }

    #[test]
    fn multicast_source_is_rejected() {
        let mut sw = LearningSwitch::new("sw", 4, LearningConfig::default());
        let out = run_frame(&mut sw, 0, frame(MacAddr::BROADCAST, mac(2)), SimTime::ZERO);
        assert!(out.is_empty());
        assert_eq!(sw.counters().dropped(DropReason::Malformed), 1);
    }

    #[test]
    fn broadcast_floods_and_learns_source() {
        let mut sw = LearningSwitch::new("sw", 4, LearningConfig::default());
        let out = run_frame(&mut sw, 1, frame(mac(7), MacAddr::BROADCAST), SimTime::ZERO);
        assert_eq!(out, vec![0, 2, 3]);
        assert_eq!(sw.lookup(mac(7), SimTime(1)), Some(PortNo(1)));
        assert_eq!(sw.counters().flooded, 1);
    }

    #[test]
    fn link_down_flushes_that_port_only() {
        let mut sw = LearningSwitch::new("sw", 4, LearningConfig::default());
        run_frame(&mut sw, 0, frame(mac(1), mac(9)), SimTime::ZERO);
        run_frame(&mut sw, 1, frame(mac(2), mac(9)), SimTime::ZERO);
        let ports_up = [true, true, true, true];
        let mut commands = Vec::new();
        sw.on_link_status(
            PortNo(0),
            false,
            &mut Ctx::new(SimTime(5), NodeId(0), &ports_up, &mut commands),
        );
        assert_eq!(sw.lookup(mac(1), SimTime(6)), None);
        assert_eq!(sw.lookup(mac(2), SimTime(6)), Some(PortNo(1)));
    }
}
