//! [`IdealSwitch`]: runs any [`SwitchLogic`] as a netsim device with
//! zero processing latency — the frame is decided and queued for output
//! the instant its last bit arrives. Per-hop latency then consists of
//! link serialization + propagation only, which matches the software
//! (OMNeT++/Linux) ARP-Path implementations the paper cites.
//!
//! Every callback hands the engine's own [`Ctx`] straight to the logic:
//! what the logic decides *is* what the engine applies, in the order
//! decided. This runs once per frame hop and nine in ten flood copies
//! are race losers that decide nothing, so it must cost nothing beyond
//! the callback — no snapshot of the ports, no buffer of its own, no
//! allocation (`tests/ideal_alloc.rs`).

use crate::logic::SwitchLogic;
use arppath_netsim::{Ctx, Device, PortNo, TimerToken};
use arppath_wire::EthernetFrame;

/// Device adapter with no added processing delay.
pub struct IdealSwitch<L: SwitchLogic> {
    logic: L,
}

impl<L: SwitchLogic> IdealSwitch<L> {
    /// Wrap `logic`.
    pub fn new(logic: L) -> Self {
        IdealSwitch { logic }
    }

    /// The wrapped decision plane.
    pub fn logic(&self) -> &L {
        &self.logic
    }
}

impl<L: SwitchLogic> Device for IdealSwitch<L> {
    fn name(&self) -> &str {
        self.logic.name()
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        self.logic.on_start(ctx);
    }

    fn on_frame(&mut self, port: PortNo, frame: EthernetFrame, ctx: &mut Ctx) {
        self.logic.on_frame(port, frame, ctx);
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
        self.logic.on_timer(token, ctx);
    }

    fn on_link_status(&mut self, port: PortNo, up: bool, ctx: &mut Ctx) {
        self.logic.on_link_status(port, up, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learning::{LearningConfig, LearningSwitch};
    use arppath_netsim::{LinkParams, NetworkBuilder, SimTime};
    use arppath_wire::{EtherType, MacAddr, Payload};
    use bytes::Bytes;

    /// Terminal device: counts what it hears, can send one frame at start.
    struct Station {
        name: String,
        mac: MacAddr,
        send_to: Option<MacAddr>,
        heard: Vec<EthernetFrame>,
    }

    impl Device for Station {
        fn name(&self) -> &str {
            &self.name
        }
        fn on_start(&mut self, ctx: &mut Ctx) {
            if let Some(dst) = self.send_to {
                ctx.send(
                    PortNo(0),
                    EthernetFrame::new(
                        dst,
                        self.mac,
                        Payload::Raw {
                            ethertype: EtherType(0x88B6),
                            data: Bytes::from(vec![0u8; 46]),
                        },
                    ),
                );
            }
        }
        fn on_frame(&mut self, _: PortNo, frame: EthernetFrame, _: &mut Ctx) {
            self.heard.push(frame);
        }
    }

    #[test]
    fn unknown_unicast_through_switch_reaches_all_stations() {
        let mac_a = MacAddr::from_index(1, 1);
        let mac_b = MacAddr::from_index(1, 2);
        let mut b = NetworkBuilder::new();
        let sw = b.add(Box::new(IdealSwitch::new(LearningSwitch::new(
            "sw",
            3,
            LearningConfig::default(),
        ))));
        let a = b.add(Box::new(Station {
            name: "a".into(),
            mac: mac_a,
            send_to: Some(mac_b),
            heard: Vec::new(),
        }));
        let s2 = b.add(Box::new(Station {
            name: "b".into(),
            mac: mac_b,
            send_to: None,
            heard: Vec::new(),
        }));
        let s3 = b.add(Box::new(Station {
            name: "c".into(),
            mac: MacAddr::from_index(1, 3),
            send_to: None,
            heard: Vec::new(),
        }));
        b.link(sw, 0, a, 0, LinkParams::default());
        b.link(sw, 1, s2, 0, LinkParams::default());
        b.link(sw, 2, s3, 0, LinkParams::default());
        let mut net = b.build();
        net.run_until_idle(SimTime(u64::MAX));
        // Unknown unicast: flooded to both other stations.
        assert_eq!(net.device::<Station>(s2).heard.len(), 1);
        assert_eq!(net.device::<Station>(s3).heard.len(), 1);
        assert_eq!(net.device::<Station>(a).heard.len(), 0);
        // And the switch learned a's location.
        let sw_dev = net.device::<IdealSwitch<LearningSwitch>>(sw);
        assert_eq!(sw_dev.logic().counters().flooded, 1);
    }
}
