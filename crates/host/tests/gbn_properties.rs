//! Go-back-N delivery under adversarial link conditions.
//!
//! A seeded lossy gate sits between two [`FlowHost`]s and drops or
//! delays (reorders) every frame class that crosses it — DATA, ACK,
//! and the ARP resolution itself. Whatever the schedule, the property
//! holds: the receiver accepts every byte exactly once, in order, with
//! the payload digest matching the clean-run digest, and the flow
//! completes with an FCT. Loss must also be *visible*: on lossy
//! schedules the sender's retransmit counter explains recovery.

use arppath_host::{FlowConfig, FlowHost};
use arppath_netsim::{
    Ctx, Device, EthernetFrame, LinkParams, NetworkBuilder, PortNo, SimDuration, SimTime,
    TimerToken,
};
use arppath_wire::MacAddr;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// A two-port gate that forwards frames, except that a seeded coin
/// drops some and holds others back for a beat (releasing them after a
/// delay, behind frames that arrived later — reordering).
struct LossyGate {
    rng: StdRng,
    drop_pct: u8,
    delay_pct: u8,
    delay: SimDuration,
    held: HashMap<u64, (PortNo, EthernetFrame)>,
    next_token: u64,
    dropped: u64,
    delayed: u64,
}

impl LossyGate {
    fn new(seed: u64, drop_pct: u8, delay_pct: u8) -> Self {
        LossyGate {
            rng: StdRng::seed_from_u64(seed),
            drop_pct,
            delay_pct,
            delay: SimDuration::micros(150),
            held: HashMap::new(),
            next_token: 0,
            dropped: 0,
            delayed: 0,
        }
    }
}

impl Device for LossyGate {
    fn name(&self) -> &str {
        "gate"
    }
    fn on_frame(&mut self, port: PortNo, frame: EthernetFrame, ctx: &mut Ctx) {
        let out = PortNo(1 - port.0);
        let roll: u8 = self.rng.gen_range(0..100);
        if roll < self.drop_pct {
            self.dropped += 1;
        } else if roll < self.drop_pct + self.delay_pct {
            let token = self.next_token;
            self.next_token += 1;
            self.held.insert(token, (out, frame));
            self.delayed += 1;
            ctx.schedule(self.delay, TimerToken(token));
        } else {
            ctx.send(out, frame);
        }
    }
    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
        if let Some((out, frame)) = self.held.remove(&token.0) {
            ctx.send(out, frame);
        }
    }
}

struct Outcome {
    completed: bool,
    fct: Option<SimDuration>,
    retransmits: u64,
    gate_dropped: u64,
    receiver_state: Option<(u64, u64)>,
    corrupt: u64,
}

fn run_flow(seed: u64, drop_pct: u8, delay_pct: u8, segments: u64) -> Outcome {
    let sender_ip = Ipv4Addr::new(10, 9, 0, 1);
    let receiver_ip = Ipv4Addr::new(10, 9, 0, 2);
    let config = FlowConfig {
        target: Some(receiver_ip),
        start_at: SimDuration::micros(10),
        segments,
        segment_len: 200,
        rto: SimDuration::millis(2),
        ..FlowConfig::default()
    };
    let mut b = NetworkBuilder::new();
    let s = b.add(Box::new(FlowHost::new("s", MacAddr::from_index(1, 1), sender_ip, config)));
    let g = b.add(Box::new(LossyGate::new(seed, drop_pct, delay_pct)));
    let r = b.add(Box::new(FlowHost::new(
        "r",
        MacAddr::from_index(1, 2),
        receiver_ip,
        FlowConfig::default(),
    )));
    b.link(s, 0, g, 0, LinkParams::default());
    b.link(g, 1, r, 0, LinkParams::default());
    let mut net = b.build();
    // Go-back-N retries forever; even heavy loss converges well inside
    // this horizon (thousands of RTO cycles).
    net.run_until(SimTime(SimDuration::secs(20).as_nanos()));
    let gate_dropped = net.device::<LossyGate>(g).dropped;
    let receiver = net.device::<FlowHost>(r);
    let receiver_state = receiver.inbound(sender_ip, config.port);
    let corrupt = receiver.corrupt;
    let sender = net.device::<FlowHost>(s);
    Outcome {
        completed: sender.completed(),
        fct: sender.fct,
        retransmits: sender.retransmits,
        gate_dropped,
        receiver_state,
        corrupt,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Every byte arrives, in order, once — no matter the loss/reorder
    /// schedule the seed draws.
    #[test]
    fn gbn_delivers_every_byte_in_order(
        seed in any::<u64>(),
        drop_pct in 0u8..30,
        delay_pct in 0u8..30,
        segments in 1u64..32,
    ) {
        let out = run_flow(seed, drop_pct, delay_pct, segments);
        prop_assert!(out.completed, "flow must complete (drop {}%, delay {}%)", drop_pct, delay_pct);
        prop_assert!(out.fct.is_some());
        let (next_expected, digest) = out.receiver_state.expect("receiver saw the flow");
        prop_assert_eq!(next_expected, segments, "every segment accepted exactly once, in order");
        prop_assert_eq!(digest, FlowHost::expected_digest(segments, 200),
            "delivered bytes must match the sent bytes, in order");
        prop_assert_eq!(out.corrupt, 0);
        // Losing a frame without retransmitting can't complete a flow.
        if out.gate_dropped > 0 {
            prop_assert!(out.retransmits > 0, "loss must be repaired by retransmission");
        }
    }
}

#[test]
fn clean_link_needs_no_retransmits() {
    let out = run_flow(7, 0, 0, 16);
    assert!(out.completed);
    assert_eq!(out.retransmits, 0, "a loss-free run must not retransmit");
    let (next, digest) = out.receiver_state.unwrap();
    assert_eq!(next, 16);
    assert_eq!(digest, FlowHost::expected_digest(16, 200));
}
