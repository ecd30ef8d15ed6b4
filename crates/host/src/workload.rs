//! Deterministic many-host traffic generation for the datacenter-scale
//! load-balance study (E8).
//!
//! Two pieces:
//!
//! * [`pairings`] — a seeded source→destination assignment over `n`
//!   hosts: a fixed-point-free **permutation** (every host sends, every
//!   host receives exactly one flow — the classic fabric stress
//!   pattern) or a **hotspot** (everyone converges on a few hot
//!   receivers — the incast shape that exposes funnelling). Both are
//!   pure functions of `(n, pattern, seed)`, so whole-fabric workloads
//!   reproduce bit-for-bit.
//! * [`TrafficHost`] — a host device that resolves one peer via
//!   ordinary ARP (the resolution *is* the path-discovery race) and
//!   then streams UDP datagrams at a fixed interval, counting what it
//!   receives in return from whoever targets it.
//!
//! Hosts stay standard network citizens exactly like [`crate::PingHost`]:
//! nothing here knows ARP-Path exists.

use crate::stack::{HostStack, Upcall, WORKLOAD_ARP_TIMEOUT};
use arppath_netsim::{Ctx, Device, PortNo, SimDuration, SimTime, TimerToken, Verdict};
use arppath_wire::{EthernetFrame, MacAddr, UdpDatagram};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;

const TOKEN_SEND: TimerToken = TimerToken(0x5747_0001);

/// What every datagram carries: its first `payload_len` bytes. One
/// shared constant, so a fabric of thousands of hosts keeps no payload
/// copy per host and touches only the pages its payload length spans.
static PAYLOAD: [u8; UdpDatagram::MAX_PAYLOAD] = [0x45; UdpDatagram::MAX_PAYLOAD];

/// Which shape the source→destination assignment takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficPattern {
    /// A fixed-point-free permutation: host `i` sends to `p(i)`,
    /// `p(i) ≠ i`, and every host receives exactly one flow.
    Permutation,
    /// All hosts send to one of `hot_receivers` hot hosts (clamped to
    /// `[1, n-1]`), chosen per sender; hot hosts themselves send to the
    /// next hot peer (or any other host when alone).
    Hotspot {
        /// How many receivers absorb the whole fabric's traffic.
        hot_receivers: usize,
    },
}

/// The destination host index for every source `0..n`, deterministic in
/// `(n, pattern, seed)` and never self-directed.
///
/// # Panics
/// If `n < 2` — a single host has nobody to talk to.
pub fn pairings(n: usize, pattern: TrafficPattern, seed: u64) -> Vec<usize> {
    assert!(n >= 2, "need at least two hosts to form a flow");
    let mut rng = StdRng::seed_from_u64(seed);
    match pattern {
        TrafficPattern::Permutation => {
            // Fisher–Yates, then derange fixed points by swapping each
            // with its successor (cyclically) — still a permutation,
            // still deterministic.
            let mut p: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                p.swap(i, j);
            }
            for i in 0..n {
                if p[i] == i {
                    let j = (i + 1) % n;
                    p.swap(i, j);
                }
            }
            debug_assert!(p.iter().enumerate().all(|(i, &d)| i != d));
            p
        }
        TrafficPattern::Hotspot { hot_receivers } => {
            let hot = hot_receivers.clamp(1, n - 1);
            (0..n)
                .map(|i| {
                    let mut d = rng.gen_range(0..hot);
                    if d == i {
                        // A hot host targets the next hot peer, or —
                        // when it is the only hot host — the next host.
                        d = if hot > 1 { (d + 1) % hot } else { (i + 1) % n };
                    }
                    d
                })
                .collect()
        }
    }
}

/// Parameters of one [`TrafficHost`]'s send schedule.
#[derive(Debug, Clone, Copy)]
pub struct TrafficConfig {
    /// Peer to stream to.
    pub target: Ipv4Addr,
    /// When the first datagram leaves (stagger this across hosts so
    /// thousands of ARP floods don't detonate on one timestamp).
    pub start_at: SimDuration,
    /// Datagram interval.
    pub interval: SimDuration,
    /// Datagrams to send (0 = pure receiver).
    pub count: u64,
    /// UDP payload bytes per datagram.
    pub payload_len: usize,
    /// Source and destination UDP port.
    pub port: u16,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            target: Ipv4Addr::UNSPECIFIED,
            start_at: SimDuration::millis(10),
            interval: SimDuration::millis(5),
            count: 0,
            payload_len: 700,
            port: 9000,
        }
    }
}

/// A host that streams UDP to one peer and counts what it receives.
///
/// The first send triggers ordinary ARP resolution; until it completes,
/// datagrams park in the stack's bounded pending queue and every timer
/// tick re-ARPs (so a race lost against a cold fabric recovers). All
/// state is a deterministic function of the callback history, as the
/// simulator requires.
pub struct TrafficHost {
    name: String,
    /// The network stack (public for post-run counter inspection).
    pub stack: HostStack,
    config: TrafficConfig,
    sent: u64,
    /// Datagrams received (we are somebody's destination).
    pub rx_datagrams: u64,
    /// Payload bytes received.
    pub rx_bytes: u64,
}

impl TrafficHost {
    /// Create a traffic host with address `ip` behind `mac`.
    pub fn new(name: impl Into<String>, mac: MacAddr, ip: Ipv4Addr, config: TrafficConfig) -> Self {
        let mut stack = HostStack::new(mac, ip);
        stack.set_arp_timeout(WORKLOAD_ARP_TIMEOUT);
        TrafficHost { name: name.into(), stack, config, sent: 0, rx_datagrams: 0, rx_bytes: 0 }
    }

    /// Datagrams handed to the stack so far (parked ones included).
    pub fn sent(&self) -> u64 {
        self.sent
    }
}

impl Device for TrafficHost {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        if self.config.count > 0 {
            ctx.schedule(self.config.start_at, TOKEN_SEND);
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
        if token != TOKEN_SEND {
            return;
        }
        self.stack.retry_pending_arp(ctx);
        let TrafficConfig { target, port, payload_len, .. } = self.config;
        self.stack.send_udp(target, port, port, &PAYLOAD[..payload_len], ctx);
        self.sent += 1;
        if self.sent < self.config.count {
            ctx.schedule(self.config.interval, TOKEN_SEND);
        }
    }

    fn lookup_stage(&mut self, _port: PortNo, frame: &EthernetFrame, _now: SimTime) -> Verdict {
        self.stack.lookup_stage(frame)
    }

    fn on_frame(&mut self, _port: PortNo, frame: EthernetFrame, ctx: &mut Ctx) {
        if let Some(Upcall::Udp { payload, dst_port, .. }) = self.stack.handle_frame(frame, ctx) {
            if dst_port == self.config.port {
                self.rx_datagrams += 1;
                self.rx_bytes += payload.len() as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arppath_netsim::{Command, NodeId, SimTime};

    #[test]
    fn permutation_is_a_derangement_and_seed_deterministic() {
        for n in [2usize, 3, 7, 64, 501] {
            for seed in [0u64, 1, 42] {
                let p = pairings(n, TrafficPattern::Permutation, seed);
                assert_eq!(p.len(), n);
                // A permutation: every destination appears exactly once.
                let mut seen = vec![false; n];
                for (i, &d) in p.iter().enumerate() {
                    assert_ne!(i, d, "n={n} seed={seed}: host {i} paired with itself");
                    assert!(!seen[d], "n={n} seed={seed}: destination {d} repeated");
                    seen[d] = true;
                }
                assert_eq!(
                    p,
                    pairings(n, TrafficPattern::Permutation, seed),
                    "same seed, same pairs"
                );
            }
        }
        assert_ne!(
            pairings(64, TrafficPattern::Permutation, 1),
            pairings(64, TrafficPattern::Permutation, 2),
            "different seeds should differ at n=64"
        );
    }

    #[test]
    fn hotspot_targets_stay_in_the_hot_set() {
        let n = 50;
        let hot = 4;
        let p = pairings(n, TrafficPattern::Hotspot { hot_receivers: hot }, 9);
        for (i, &d) in p.iter().enumerate() {
            assert_ne!(i, d, "host {i} paired with itself");
            assert!(d < hot, "host {i} targets {d}, outside the hot set");
        }
        assert_eq!(p, pairings(n, TrafficPattern::Hotspot { hot_receivers: hot }, 9));
    }

    #[test]
    fn hotspot_clamps_degenerate_sizes() {
        // hot_receivers = 0 clamps to 1; a single hot host must still
        // avoid self-pairing.
        let p = pairings(3, TrafficPattern::Hotspot { hot_receivers: 0 }, 5);
        assert!(p.iter().enumerate().all(|(i, &d)| i != d && d < 3));
        // hot_receivers >= n clamps to n-1.
        let p = pairings(4, TrafficPattern::Hotspot { hot_receivers: 99 }, 5);
        assert!(p.iter().enumerate().all(|(i, &d)| i != d && d < 3));
    }

    #[test]
    fn sender_schedules_sends_and_stops_at_count() {
        let mut host = TrafficHost::new(
            "t0",
            MacAddr::from_index(1, 1),
            Ipv4Addr::new(10, 0, 0, 1),
            TrafficConfig { target: Ipv4Addr::new(10, 0, 0, 2), count: 2, ..Default::default() },
        );
        let ports = [true];
        let mut cmds = Vec::new();
        host.on_start(&mut Ctx::new(SimTime(0), NodeId(0), &ports, &mut cmds));
        assert_eq!(cmds.len(), 1, "initial timer");
        cmds.clear();
        host.on_timer(TOKEN_SEND, &mut Ctx::new(SimTime(10), NodeId(0), &ports, &mut cmds));
        // Unresolved target: the ARP request goes out, datagram parks,
        // and the next tick is scheduled.
        let sends = cmds.iter().filter(|c| matches!(c, Command::Send { .. })).count();
        let timers = cmds.iter().filter(|c| matches!(c, Command::Schedule { .. })).count();
        assert_eq!((sends, timers), (1, 1));
        cmds.clear();
        host.on_timer(TOKEN_SEND, &mut Ctx::new(SimTime(20), NodeId(0), &ports, &mut cmds));
        let timers = cmds.iter().filter(|c| matches!(c, Command::Schedule { .. })).count();
        assert_eq!(timers, 0, "count reached: no further tick");
        assert_eq!(host.sent(), 2);
    }

    #[test]
    fn pure_receiver_stays_quiet_and_counts_rx() {
        let mac = MacAddr::from_index(1, 1);
        let ip = Ipv4Addr::new(10, 0, 0, 1);
        let mut host = TrafficHost::new("r", mac, ip, TrafficConfig::default());
        let ports = [true];
        let mut cmds = Vec::new();
        host.on_start(&mut Ctx::new(SimTime(0), NodeId(0), &ports, &mut cmds));
        assert!(cmds.is_empty(), "count = 0 hosts schedule nothing");

        // A datagram from a peer lands and is counted.
        use arppath_wire::{IpProto, Ipv4Packet, Payload, UdpDatagram};
        let udp = UdpDatagram::encode(9000, 9000, b"abcdef");
        let pkt = Ipv4Packet::new(Ipv4Addr::new(10, 0, 0, 2), ip, IpProto::Udp, udp);
        let frame = EthernetFrame::new(mac, MacAddr::from_index(1, 2), Payload::Ipv4(pkt));
        host.on_frame(PortNo(0), frame, &mut Ctx::new(SimTime(5), NodeId(0), &ports, &mut cmds));
        assert_eq!(host.rx_datagrams, 1);
        assert_eq!(host.rx_bytes, 6);
    }

    #[test]
    fn off_port_datagrams_are_not_counted() {
        let mac = MacAddr::from_index(1, 1);
        let ip = Ipv4Addr::new(10, 0, 0, 1);
        let mut host = TrafficHost::new("r", mac, ip, TrafficConfig::default());
        let ports = [true];
        let mut cmds = Vec::new();
        use arppath_wire::{IpProto, Ipv4Packet, Payload, UdpDatagram};
        let udp = UdpDatagram::encode(1234, 1234, b"x");
        let pkt = Ipv4Packet::new(Ipv4Addr::new(10, 0, 0, 2), ip, IpProto::Udp, udp);
        let frame = EthernetFrame::new(mac, MacAddr::from_index(1, 2), Payload::Ipv4(pkt));
        host.on_frame(PortNo(0), frame, &mut Ctx::new(SimTime(5), NodeId(0), &ports, &mut cmds));
        assert_eq!(host.rx_datagrams, 0, "wrong port: ignored by the app");
    }
}
