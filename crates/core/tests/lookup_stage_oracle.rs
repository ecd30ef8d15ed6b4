//! The bridge's lookup stage decides exactly the frames `on_frame`
//! would only count (`Dropped`) or only send on (`Forward`).
//!
//! Two bridges step in lockstep through one seeded frame sequence. One
//! does what the engine does: it asks `lookup_stage` first, stands in
//! the one `Send` the engine issues for a `Forward`, and calls
//! `on_frame` only on `Callback`. The other only ever calls `on_frame`,
//! under `Ctx::new`. On a `Forward(p)` the oracle's commands must be
//! exactly one `Send` out of `p` of a frame equal to the input. After
//! every step both must have issued the same commands and hold the same
//! `SwitchCounters`, `ArpPathCounters` and path entries, expiry
//! included. Each verdict must be taken on more than a tenth of the
//! steps.
//!
//! The sequence mixes ARP requests and replies from several hosts on
//! several ports, same-port retries, gaps longer than `lock_time`
//! between copies (so locks expire under a flood), unicast data toward
//! known, bounced and unknown destinations, multicast, repair
//! `PathRequest` waves and frames from a non-unicast source. A bounded
//! table and the proxy run as a second configuration, so the table-full
//! and proxy arms are crossed too.

use arppath::{ArpPathBridge, ArpPathConfig};
use arppath_netsim::{Command, Ctx, NodeId, PortNo, SimDuration, SimTime, Verdict};
use arppath_switch::SwitchLogic;
use arppath_wire::{ArpPacket, EtherType, EthernetFrame, MacAddr, PathCtl, Payload};
use std::net::Ipv4Addr;

const PORTS: usize = 4;
const HOSTS: u32 = 5;
const STEPS: usize = 20_000;

/// splitmix64: a seeded, dependency-free frame source.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn host(&mut self) -> u32 {
        1 + self.below(u64::from(HOSTS)) as u32
    }
}

fn host(i: u32) -> MacAddr {
    MacAddr::from_index(1, i)
}

fn ip(i: u32) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, i as u8)
}

fn raw(dst: MacAddr, src: MacAddr) -> EthernetFrame {
    let data = vec![0u8; 46].into();
    EthernetFrame::new(dst, src, Payload::Raw { ethertype: EtherType(0x88B6), data })
}

/// One frame of the sequence; broadcast ARP requests dominate, as they
/// do in a flooding fabric.
fn next_frame(rng: &mut Rng) -> EthernetFrame {
    let (s, t) = (rng.host(), rng.host());
    let origin = MacAddr::from_index(2, 9);
    match rng.below(15) {
        0..=4 => EthernetFrame::arp_request(host(s), ArpPacket::request(host(s), ip(s), ip(t))),
        5 => {
            let req = ArpPacket::request(host(t), ip(t), ip(s));
            EthernetFrame::arp_reply(ArpPacket::reply_to(&req, host(s), ip(s)))
        }
        6..=9 => raw(host(t), host(s)),
        10 => raw(MacAddr::BROADCAST, host(s)),
        11 => raw(MacAddr([0x01, 0x00, 0x5e, 0, 0, 1]), host(s)),
        12 => {
            let nonce = 1 + rng.below(3) as u32;
            let ctl = PathCtl::request(host(s), host(t), origin, nonce);
            EthernetFrame::new(MacAddr::BROADCAST, host(s), Payload::PathCtl(ctl))
        }
        13 => {
            let ctl = PathCtl::reply(host(s), host(t), origin, 1);
            EthernetFrame::new(host(s), host(t), Payload::PathCtl(ctl))
        }
        // A flood from a group address: never a race, always malformed.
        _ => raw(MacAddr::BROADCAST, MacAddr([0x01, 0, 0, 0, 0, s as u8])),
    }
}

/// How many steps took each verdict.
#[derive(Debug, Default)]
struct Taken {
    dropped: usize,
    forwarded: usize,
    callback: usize,
}

/// Run the lockstep pair under `config`; returns how often the
/// engine-shaped bridge's lookup stage took each verdict.
fn lockstep(config: ArpPathConfig, seed: u64) -> Taken {
    let mac = MacAddr::from_index(2, 1);
    let mut fast = ArpPathBridge::new("fast", mac, PORTS, config);
    let mut oracle = ArpPathBridge::new("oracle", mac, PORTS, config);
    let ports_up = [true; PORTS];
    let (mut fast_cmds, mut oracle_cmds) = (Vec::new(), Vec::new());
    let mut rng = Rng(seed);
    let mut now = SimTime::ZERO;
    let mut last: Option<(PortNo, EthernetFrame)> = None;
    let mut taken = Taken::default();
    for step in 0..STEPS {
        now += match rng.below(50) {
            // Past `lock_time`: the next copy finds the lock expired.
            0 => config.lock_time + SimDuration::micros(rng.below(1_000)),
            1..=9 => SimDuration::ZERO,
            _ => SimDuration::nanos(rng.below(20_000)),
        };
        let (port, frame) = match &last {
            // Another copy of the last frame: on its own port (a retry)
            // or another (a race).
            Some((port, frame)) if rng.below(3) == 0 => {
                let port = if rng.below(2) == 0 {
                    *port
                } else {
                    PortNo(rng.below(PORTS as u64) as usize)
                };
                (port, frame.clone())
            }
            _ => (PortNo(rng.below(PORTS as u64) as usize), next_frame(&mut rng)),
        };
        last = Some((port, frame.clone()));

        let verdict = fast.lookup_stage(port, &frame, now);
        match verdict {
            Verdict::Dropped => taken.dropped += 1,
            Verdict::Forward(out) => {
                taken.forwarded += 1;
                // What the engine sends for it.
                fast_cmds.push(Command::Send { port: out, frame: frame.clone() });
            }
            Verdict::Callback => {
                taken.callback += 1;
                let mut ctx = Ctx::new(now, NodeId(0), &ports_up, &mut fast_cmds);
                fast.on_frame(port, frame.clone(), &mut ctx);
            }
        }
        let mut ctx = Ctx::new(now, NodeId(0), &ports_up, &mut oracle_cmds);
        oracle.on_frame(port, frame.clone(), &mut ctx);

        let at = format!("step {step} at {now}: {frame:?} on port {}", port.0);
        if let Verdict::Forward(out) = verdict {
            let sends: Vec<_> = oracle_cmds.iter().map(Command::as_send).collect();
            assert_eq!(sends, [Some((out, &frame))], "on_frame after a Forward, {at}");
        }
        assert_eq!(format!("{fast_cmds:?}"), format!("{oracle_cmds:?}"), "commands, {at}");
        assert_eq!(fast.counters(), oracle.counters(), "switch counters, {at}");
        assert_eq!(fast.ap_counters(), oracle.ap_counters(), "ARP-Path counters, {at}");
        for i in 1..=HOSTS {
            assert_eq!(fast.entry_of(host(i), now), oracle.entry_of(host(i), now), "{i}, {at}");
            assert_eq!(
                fast.expiry_of(host(i), now),
                oracle.expiry_of(host(i), now),
                "expiry of {i}, {at}"
            );
        }
        fast_cmds.clear();
        oracle_cmds.clear();
    }
    taken
}

fn assert_every_verdict_taken(taken: Taken) {
    for (verdict, n) in
        [("Dropped", taken.dropped), ("Forward", taken.forwarded), ("Callback", taken.callback)]
    {
        assert!(n > STEPS / 10, "{verdict} on only {n} of {STEPS} steps: {taken:?}");
    }
}

#[test]
fn lookup_stage_then_on_frame_equals_on_frame_alone() {
    for seed in [1, 2, 3] {
        assert_every_verdict_taken(lockstep(ArpPathConfig::default(), seed));
    }
}

#[test]
fn bounded_table_and_proxy_agree_too() {
    let config = ArpPathConfig::default().with_proxy().with_table_capacity(3);
    for seed in [4, 5] {
        assert_every_verdict_taken(lockstep(config, seed));
    }
}
