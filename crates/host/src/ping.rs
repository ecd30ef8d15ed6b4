//! The ping host: the latency probe of experiment E1, standing in for
//! the demo's latency-graph GUI.

use crate::stack::{HostStack, Upcall};
use arppath_metrics::LatencyStats;
use arppath_netsim::{Ctx, Device, PortNo, SimDuration, TimerToken};
use arppath_wire::{EthernetFrame, MacAddr};
use bytes::Bytes;
use std::net::Ipv4Addr;

const TOKEN_PING: TimerToken = TimerToken(0x4849_0001);

/// Ping workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct PingConfig {
    /// Peer to probe.
    pub target: Ipv4Addr,
    /// When the first probe leaves.
    pub start_at: SimDuration,
    /// Probe interval.
    pub interval: SimDuration,
    /// Number of probes (0 = none; the host is then a pure responder).
    pub count: u64,
    /// ICMP payload size in bytes (≥ 8; the send timestamp rides in
    /// the first 8).
    pub payload_len: usize,
    /// Host ARP cache lifetime.
    pub arp_timeout: SimDuration,
}

impl Default for PingConfig {
    fn default() -> Self {
        PingConfig {
            target: Ipv4Addr::UNSPECIFIED,
            start_at: SimDuration::millis(10),
            interval: SimDuration::millis(10),
            count: 0,
            payload_len: 56, // the classic `ping` default
            arp_timeout: SimDuration::secs(60),
        }
    }
}

/// A host running the standard stack plus a ping prober.
///
/// RTT measurement uses the simulation clock embedded in the echo
/// payload — exact, no sampling error. A host with `count = 0` acts as
/// a pure responder (the stack answers echo requests by itself).
pub struct PingHost {
    name: String,
    /// The network stack (public for post-run counter inspection).
    pub stack: HostStack,
    config: PingConfig,
    ident: u16,
    next_seq: u16,
    sent: u64,
    /// Collected round-trip times.
    pub rtt: LatencyStats,
    /// Replies that arrived (matched by ident).
    pub received: u64,
    /// Replies that could not be matched to this prober.
    pub mismatched: u64,
}

impl PingHost {
    /// Create a ping host. `ident` disambiguates concurrent probers.
    pub fn new(
        name: impl Into<String>,
        mac: MacAddr,
        ip: Ipv4Addr,
        ident: u16,
        config: PingConfig,
    ) -> Self {
        let mut stack = HostStack::new(mac, ip);
        stack.set_arp_timeout(config.arp_timeout);
        PingHost {
            name: name.into(),
            stack,
            config,
            ident,
            next_seq: 0,
            sent: 0,
            rtt: LatencyStats::new(),
            received: 0,
            mismatched: 0,
        }
    }

    /// Probes sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Loss fraction over completed probes.
    pub fn loss_fraction(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        1.0 - self.received as f64 / self.sent as f64
    }

    fn fire_probe(&mut self, ctx: &mut Ctx) {
        let mut payload = Vec::with_capacity(self.config.payload_len.max(8));
        payload.extend_from_slice(&ctx.now().as_nanos().to_be_bytes());
        payload.resize(self.config.payload_len.max(8), 0xA5);
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        self.stack.send_echo_request(
            self.config.target,
            self.ident,
            seq,
            Bytes::from(payload),
            ctx,
        );
        self.sent += 1;
    }
}

impl Device for PingHost {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        if self.config.count > 0 {
            ctx.schedule(self.config.start_at, TOKEN_PING);
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
        if token != TOKEN_PING {
            return;
        }
        // Re-ARP for anything stuck unresolved (e.g. the very first
        // probe raced a not-yet-converged network).
        self.stack.retry_pending_arp(ctx);
        self.fire_probe(ctx);
        if self.sent < self.config.count {
            ctx.schedule(self.config.interval, TOKEN_PING);
        }
    }

    fn on_frame(&mut self, _port: PortNo, frame: EthernetFrame, ctx: &mut Ctx) {
        if let Some(Upcall::EchoReply { ident, payload, .. }) = self.stack.handle_frame(frame, ctx)
        {
            if ident != self.ident || payload.len() < 8 {
                self.mismatched += 1;
                return;
            }
            let sent_at = u64::from_be_bytes(payload[..8].try_into().expect("8 bytes"));
            self.rtt.record(ctx.now().as_nanos().saturating_sub(sent_at));
            self.received += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arppath_netsim::{Command, NodeId, SimTime};

    fn mk_host(count: u64) -> PingHost {
        PingHost::new(
            "hA",
            MacAddr::from_index(1, 1),
            Ipv4Addr::new(10, 0, 0, 1),
            7,
            PingConfig { target: Ipv4Addr::new(10, 0, 0, 2), count, ..Default::default() },
        )
    }

    #[test]
    fn prober_schedules_and_sends() {
        let mut host = mk_host(3);
        let ports = [true];
        let mut cmds = Vec::new();
        host.on_start(&mut Ctx::new(SimTime(0), NodeId(0), &ports, &mut cmds));
        assert_eq!(cmds.len(), 1, "initial timer");
        cmds.clear();
        host.on_timer(TOKEN_PING, &mut Ctx::new(SimTime(10), NodeId(0), &ports, &mut cmds));
        // Unresolved target: ARP request + next timer.
        let sends = cmds.iter().filter(|c| matches!(c, Command::Send { .. })).count();
        let timers = cmds.iter().filter(|c| matches!(c, Command::Schedule { .. })).count();
        assert_eq!(sends, 1);
        assert_eq!(timers, 1);
        assert_eq!(host.sent(), 1);
    }

    #[test]
    fn responder_with_zero_count_stays_quiet() {
        let mut host = mk_host(0);
        let ports = [true];
        let mut cmds = Vec::new();
        host.on_start(&mut Ctx::new(SimTime(0), NodeId(0), &ports, &mut cmds));
        assert!(cmds.is_empty());
    }

    #[test]
    fn loss_fraction_counts_unanswered() {
        let mut host = mk_host(4);
        host.sent = 4;
        host.received = 3;
        assert!((host.loss_fraction() - 0.25).abs() < 1e-12);
    }
}
