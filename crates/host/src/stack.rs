//! The minimal host network stack: Ethernet + ARP + IPv4 glue.
//!
//! Hosts in the reproduction are deliberately *standard*: they speak
//! plain ARP and IP, cache resolutions, answer pings — and know nothing
//! about ARP-Path. That is the paper's transparency claim (§2.2 "zero
//! configuration"), and it is load-bearing: the host's ordinary ARP
//! Request is the frame whose flood race discovers the path.

use arppath_netsim::{Ctx, PortNo, SimDuration, Verdict};
use arppath_switch::AgingMap;
use arppath_wire::{
    ArpOp, ArpPacket, EthernetFrame, IcmpEcho, IpProto, Ipv4Packet, MacAddr, Payload, UdpDatagram,
};
use bytes::Bytes;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// How many packets may wait for one unresolved destination.
const PENDING_PER_DST: usize = 16;

/// Host stack counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostCounters {
    /// ARP Requests transmitted (first tries and retries).
    pub arp_requests_tx: u64,
    /// ARP Replies transmitted (we were asked).
    pub arp_replies_tx: u64,
    /// Resolutions completed.
    pub arp_resolved: u64,
    /// Packets dropped because the pending queue overflowed.
    pub pending_overflow: u64,
    /// IPv4 packets sent.
    pub ipv4_tx: u64,
    /// IPv4 packets delivered up the stack.
    pub ipv4_rx: u64,
    /// Echo replies sent in response to pings.
    pub echo_replies_tx: u64,
    /// Frames ignored (not for us / unparseable).
    pub ignored: u64,
}

/// An IPv4 datagram handed up to the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Upcall {
    /// A UDP datagram addressed to us.
    Udp {
        /// Sender's IP.
        from: Ipv4Addr,
        /// UDP source port.
        src_port: u16,
        /// UDP destination port.
        dst_port: u16,
        /// Application payload.
        payload: Bytes,
    },
    /// An ICMP echo *reply* addressed to us (requests are answered by
    /// the stack itself and never surface).
    EchoReply {
        /// Replier's IP.
        from: Ipv4Addr,
        /// Echo identifier.
        ident: u16,
        /// Echo sequence number.
        seq: u16,
        /// Echoed payload.
        payload: Bytes,
    },
}

/// ARP cache lifetime of the traffic, flow and churn hosts.
pub(crate) const WORKLOAD_ARP_TIMEOUT: SimDuration = SimDuration::secs(120);

/// The host stack state machine. Owns the single NIC (`PortNo(0)`).
pub struct HostStack {
    mac: MacAddr,
    ip: Ipv4Addr,
    arp_timeout: SimDuration,
    arp_cache: AgingMap<Ipv4Addr, MacAddr>,
    /// Packets parked until their destination resolves.
    pending: BTreeMap<Ipv4Addr, Vec<(IpProto, Bytes)>>,
    counters: HostCounters,
}

impl HostStack {
    /// A stack for a host with address `ip` behind NIC `mac`.
    pub fn new(mac: MacAddr, ip: Ipv4Addr) -> Self {
        HostStack {
            mac,
            ip,
            arp_timeout: SimDuration::secs(60),
            arp_cache: AgingMap::new(),
            pending: BTreeMap::new(),
            counters: HostCounters::default(),
        }
    }

    /// Override the ARP cache entry lifetime (default 60 s). Shorter
    /// timeouts force periodic re-resolution, the situation the
    /// in-switch ARP proxy (experiment E6) exists for.
    pub fn set_arp_timeout(&mut self, timeout: SimDuration) {
        self.arp_timeout = timeout;
    }

    /// The NIC's MAC address.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// The host's IP address.
    pub fn ip(&self) -> Ipv4Addr {
        self.ip
    }

    /// Stack counters.
    pub fn counters(&self) -> HostCounters {
        self.counters
    }

    /// Whether `dst` is currently resolved.
    pub fn is_resolved(&mut self, dst: Ipv4Addr, ctx: &Ctx) -> bool {
        self.arp_cache.get(&dst, ctx.now()).is_some()
    }

    /// Send an IPv4 packet to `dst`, resolving it first if necessary
    /// (the packet parks in a bounded queue while ARP runs).
    pub fn send_ip(&mut self, dst: Ipv4Addr, proto: IpProto, payload: Bytes, ctx: &mut Ctx) {
        let now = ctx.now();
        if let Some(&dst_mac) = self.arp_cache.get(&dst, now) {
            self.transmit_ip(dst_mac, dst, proto, payload, ctx);
            return;
        }
        let q = self.pending.entry(dst).or_default();
        if q.len() >= PENDING_PER_DST {
            self.counters.pending_overflow += 1;
        } else {
            q.push((proto, payload));
        }
        self.send_arp_request(dst, ctx);
    }

    /// Send a UDP datagram (convenience over [`HostStack::send_ip`]).
    /// `payload` is copied once, into the datagram's single allocation,
    /// so callers pass slices of reused or constant buffers.
    pub fn send_udp(
        &mut self,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: &[u8],
        ctx: &mut Ctx,
    ) {
        self.send_ip(dst, IpProto::Udp, UdpDatagram::encode(src_port, dst_port, payload), ctx);
    }

    /// Send an ICMP echo request; `payload` is copied as in
    /// [`HostStack::send_udp`].
    pub fn send_echo_request(
        &mut self,
        dst: Ipv4Addr,
        ident: u16,
        seq: u16,
        payload: &[u8],
        ctx: &mut Ctx,
    ) {
        self.send_ip(dst, IpProto::Icmp, IcmpEcho::encode(true, ident, seq, payload), ctx);
    }

    /// Retry ARP for destinations still pending (drive from a periodic
    /// app timer; unresolved queues re-ARP, resolved ones drained long
    /// ago).
    pub fn retry_pending_arp(&mut self, ctx: &mut Ctx) {
        let dsts: Vec<Ipv4Addr> = self.pending.keys().copied().collect();
        for dst in dsts {
            self.send_arp_request(dst, ctx);
        }
    }

    /// Number of destinations with parked packets.
    pub fn pending_destinations(&self) -> usize {
        self.pending.len()
    }

    fn send_arp_request(&mut self, dst: Ipv4Addr, ctx: &mut Ctx) {
        let arp = ArpPacket::request(self.mac, self.ip, dst);
        ctx.send(PortNo(0), EthernetFrame::arp_request(self.mac, arp));
        self.counters.arp_requests_tx += 1;
    }

    fn transmit_ip(
        &mut self,
        dst_mac: MacAddr,
        dst: Ipv4Addr,
        proto: IpProto,
        payload: Bytes,
        ctx: &mut Ctx,
    ) {
        let pkt = Ipv4Packet::new(self.ip, dst, proto, payload);
        ctx.send(PortNo(0), EthernetFrame::new(dst_mac, self.mac, Payload::Ipv4(pkt)));
        self.counters.ipv4_tx += 1;
    }

    fn learn(&mut self, ip: Ipv4Addr, mac: MacAddr, ctx: &mut Ctx) {
        let fresh = self.arp_cache.get(&ip, ctx.now()).is_none();
        self.arp_cache.insert(ip, mac, ctx.now() + self.arp_timeout);
        if fresh {
            self.counters.arp_resolved += 1;
        }
        // Drain everything parked for this destination. A `BTreeMap`
        // keeps its root node when its last entry goes, so the emptied
        // map is replaced: a host that waited on ARP once holds no
        // pending storage for the rest of the run.
        if let Some(q) = self.pending.remove(&ip) {
            if self.pending.is_empty() {
                self.pending = BTreeMap::new();
            }
            for (proto, payload) in q {
                self.transmit_ip(mac, ip, proto, payload, ctx);
            }
        }
    }

    /// Process a received frame. Returns an [`Upcall`] when an
    /// application-layer datagram arrived.
    pub fn handle_frame(&mut self, frame: EthernetFrame, ctx: &mut Ctx) -> Option<Upcall> {
        if self.lookup_stage(&frame) == Verdict::Dropped {
            return None;
        }
        match frame.payload {
            Payload::Arp(arp) => {
                self.handle_arp(arp, ctx);
                None
            }
            Payload::Ipv4(pkt) => self.handle_ipv4(pkt, ctx),
            // `is_for_us` admits nothing else.
            _ => None,
        }
    }

    /// `Dropped`, counting `frame` as ignored, if
    /// [`HostStack::handle_frame`] would ignore it; `Callback`, changing
    /// nothing, otherwise. `handle_frame` decides through this too, so a
    /// host device's lookup stage
    /// ([`arppath_netsim::Device::lookup_stage`]) can drop such a frame
    /// without a callback. A host forwards nothing.
    pub fn lookup_stage(&mut self, frame: &EthernetFrame) -> Verdict {
        if self.is_for_us(frame) {
            return Verdict::Callback;
        }
        self.counters.ignored += 1;
        Verdict::Dropped
    }

    /// The stack's one receive filter: the NIC takes our MAC or a
    /// broadcast/multicast, and the stack handles only ARP and IPv4
    /// addressed to our IP. Everything else — foreign ARP requests (most
    /// of what a host hears in a flooding fabric), other hosts' IP,
    /// unknown EtherTypes including ARP-Path control — is ignored:
    /// transparency.
    fn is_for_us(&self, frame: &EthernetFrame) -> bool {
        (frame.dst == self.mac || frame.dst.is_multicast())
            && match &frame.payload {
                Payload::Arp(arp) => arp.tpa == self.ip,
                Payload::Ipv4(pkt) => pkt.dst == self.ip,
                _ => false,
            }
    }

    /// An ARP packet for our IP (see [`HostStack::is_for_us`]).
    fn handle_arp(&mut self, arp: ArpPacket, ctx: &mut Ctx) {
        // RFC 826 merge: remember the sender, then answer a request.
        self.learn(arp.spa, arp.sha, ctx);
        if arp.op == ArpOp::Request {
            let reply = ArpPacket::reply_to(&arp, self.mac, self.ip);
            ctx.send(PortNo(0), EthernetFrame::arp_reply(reply));
            self.counters.arp_replies_tx += 1;
        }
    }

    fn handle_ipv4(&mut self, pkt: Ipv4Packet, ctx: &mut Ctx) -> Option<Upcall> {
        self.counters.ipv4_rx += 1;
        match pkt.proto {
            IpProto::Udp => match UdpDatagram::parse(&pkt.payload) {
                Ok(udp) => Some(Upcall::Udp {
                    from: pkt.src,
                    src_port: udp.src_port,
                    dst_port: udp.dst_port,
                    payload: udp.payload,
                }),
                Err(_) => {
                    self.counters.ignored += 1;
                    None
                }
            },
            IpProto::Icmp => match IcmpEcho::parse(&pkt.payload) {
                Ok(echo) if echo.is_request => {
                    // The stack answers pings by itself, like a kernel,
                    // echoing identifier, sequence and payload (RFC 792).
                    let reply = IcmpEcho::encode(false, echo.ident, echo.seq, &echo.payload);
                    self.send_ip(pkt.src, IpProto::Icmp, reply, ctx);
                    self.counters.echo_replies_tx += 1;
                    None
                }
                Ok(echo) => Some(Upcall::EchoReply {
                    from: pkt.src,
                    ident: echo.ident,
                    seq: echo.seq,
                    payload: echo.payload,
                }),
                Err(_) => {
                    self.counters.ignored += 1;
                    None
                }
            },
            IpProto::Other(_) => {
                self.counters.ignored += 1;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arppath_netsim::{Command, NodeId, SimTime};

    fn ctx_with<'a>(cmds: &'a mut Vec<Command>, ports: &'a [bool], now: SimTime) -> Ctx<'a> {
        Ctx::new(now, NodeId(0), ports, cmds)
    }

    fn sent_frames(cmds: &[Command]) -> Vec<EthernetFrame> {
        cmds.iter()
            .filter_map(|c| match c {
                Command::Send { frame, .. } => Some(frame.clone()),
                _ => None,
            })
            .collect()
    }

    fn h(i: u32) -> (MacAddr, Ipv4Addr) {
        (MacAddr::from_index(1, i), Ipv4Addr::new(10, 0, 0, i as u8))
    }

    #[test]
    fn unresolved_send_emits_arp_and_parks_packet() {
        let (mac, ip) = h(1);
        let (_, dst_ip) = h(2);
        let mut stack = HostStack::new(mac, ip);
        let mut cmds = Vec::new();
        let ports = [true];
        let mut ctx = ctx_with(&mut cmds, &ports, SimTime(0));
        stack.send_udp(dst_ip, 1000, 2000, b"hi", &mut ctx);
        let frames = sent_frames(&cmds);
        assert_eq!(frames.len(), 1, "only the ARP request goes out");
        assert!(matches!(&frames[0].payload, Payload::Arp(a) if a.op == ArpOp::Request));
        assert_eq!(stack.pending_destinations(), 1);
    }

    #[test]
    fn arp_reply_drains_pending_queue() {
        let (mac, ip) = h(1);
        let (dst_mac, dst_ip) = h(2);
        let mut stack = HostStack::new(mac, ip);
        let ports = [true];
        let mut cmds = Vec::new();
        let mut ctx = ctx_with(&mut cmds, &ports, SimTime(0));
        stack.send_udp(dst_ip, 1000, 2000, b"one", &mut ctx);
        stack.send_udp(dst_ip, 1000, 2000, b"two", &mut ctx);
        cmds.clear();
        // The reply arrives.
        let reply = ArpPacket { op: ArpOp::Reply, sha: dst_mac, spa: dst_ip, tha: mac, tpa: ip };
        let mut ctx = ctx_with(&mut cmds, &ports, SimTime(1000));
        stack.handle_frame(EthernetFrame::arp_reply(reply), &mut ctx);
        let frames = sent_frames(&cmds);
        assert_eq!(frames.len(), 2, "both parked datagrams released");
        assert!(frames.iter().all(|f| f.dst == dst_mac));
        assert_eq!(stack.pending_destinations(), 0);
        assert_eq!(stack.counters().arp_resolved, 1);
    }

    #[test]
    fn resolved_destination_sends_immediately() {
        let (mac, ip) = h(1);
        let (dst_mac, dst_ip) = h(2);
        let mut stack = HostStack::new(mac, ip);
        let ports = [true];
        let mut cmds = Vec::new();
        let mut ctx = ctx_with(&mut cmds, &ports, SimTime(0));
        let reply = ArpPacket { op: ArpOp::Reply, sha: dst_mac, spa: dst_ip, tha: mac, tpa: ip };
        stack.handle_frame(EthernetFrame::arp_reply(reply), &mut ctx);
        cmds.clear();
        let mut ctx = ctx_with(&mut cmds, &ports, SimTime(10));
        stack.send_udp(dst_ip, 5, 6, b"x", &mut ctx);
        let frames = sent_frames(&cmds);
        assert_eq!(frames.len(), 1);
        assert!(matches!(&frames[0].payload, Payload::Ipv4(_)));
    }

    #[test]
    fn answers_arp_request_for_our_ip_and_learns_asker() {
        let (mac, ip) = h(1);
        let (asker_mac, asker_ip) = h(2);
        let mut stack = HostStack::new(mac, ip);
        let ports = [true];
        let mut cmds = Vec::new();
        let mut ctx = ctx_with(&mut cmds, &ports, SimTime(0));
        let req = ArpPacket::request(asker_mac, asker_ip, ip);
        stack.handle_frame(EthernetFrame::arp_request(asker_mac, req), &mut ctx);
        let frames = sent_frames(&cmds);
        assert_eq!(frames.len(), 1);
        match &frames[0].payload {
            Payload::Arp(a) => {
                assert_eq!(a.op, ArpOp::Reply);
                assert_eq!(a.sha, mac);
                assert_eq!(a.tha, asker_mac);
            }
            other => panic!("expected ARP reply, got {other:?}"),
        }
        assert_eq!(frames[0].dst, asker_mac, "reply is unicast");
        let mut ctx = ctx_with(&mut cmds, &ports, SimTime(10));
        assert!(stack.is_resolved(asker_ip, &ctx), "RFC 826 merge");
        let _ = &mut ctx;
    }

    #[test]
    fn ignores_arp_for_other_hosts() {
        let (mac, ip) = h(1);
        let (asker_mac, asker_ip) = h(2);
        let mut stack = HostStack::new(mac, ip);
        let ports = [true];
        let mut cmds = Vec::new();
        let mut ctx = ctx_with(&mut cmds, &ports, SimTime(0));
        let req = ArpPacket::request(asker_mac, asker_ip, Ipv4Addr::new(10, 0, 0, 99));
        stack.handle_frame(EthernetFrame::arp_request(asker_mac, req), &mut ctx);
        assert!(sent_frames(&cmds).is_empty());
        assert_eq!(stack.counters().ignored, 1);
    }

    #[test]
    fn stack_answers_ping_itself() {
        let (mac, ip) = h(1);
        let (peer_mac, peer_ip) = h(2);
        let mut stack = HostStack::new(mac, ip);
        let ports = [true];
        let mut cmds = Vec::new();
        let mut ctx = ctx_with(&mut cmds, &ports, SimTime(0));
        // Teach the stack the peer (so the reply needs no ARP).
        let arp = ArpPacket { op: ArpOp::Reply, sha: peer_mac, spa: peer_ip, tha: mac, tpa: ip };
        stack.handle_frame(EthernetFrame::arp_reply(arp), &mut ctx);
        cmds.clear();
        // Ping arrives.
        let echo = IcmpEcho::encode(true, 7, 1, b"payload");
        let pkt = Ipv4Packet::new(peer_ip, ip, IpProto::Icmp, echo);
        let frame = EthernetFrame::new(mac, peer_mac, Payload::Ipv4(pkt));
        let mut ctx = ctx_with(&mut cmds, &ports, SimTime(10));
        let up = stack.handle_frame(frame, &mut ctx);
        assert!(up.is_none(), "echo requests never reach the app");
        let frames = sent_frames(&cmds);
        assert_eq!(frames.len(), 1, "reply sent");
        assert_eq!(stack.counters().echo_replies_tx, 1);
        // The reply echoes identifier, sequence and payload (RFC 792).
        assert_eq!((frames[0].dst, frames[0].src), (peer_mac, mac));
        let Payload::Ipv4(reply) = &frames[0].payload else { panic!("reply is not IPv4") };
        assert_eq!((reply.src, reply.dst, reply.proto), (ip, peer_ip, IpProto::Icmp));
        let payload = Bytes::from_static(b"payload");
        assert_eq!(
            IcmpEcho::parse(&reply.payload),
            Ok(IcmpEcho { is_request: false, ident: 7, seq: 1, payload })
        );
    }

    #[test]
    fn echo_reply_surfaces_as_upcall() {
        let (mac, ip) = h(1);
        let (peer_mac, peer_ip) = h(2);
        let mut stack = HostStack::new(mac, ip);
        let ports = [true];
        let mut cmds = Vec::new();
        let mut ctx = ctx_with(&mut cmds, &ports, SimTime(0));
        let echo = IcmpEcho::encode(false, 7, 3, b"t");
        let pkt = Ipv4Packet::new(peer_ip, ip, IpProto::Icmp, echo);
        let frame = EthernetFrame::new(mac, peer_mac, Payload::Ipv4(pkt));
        let up = stack.handle_frame(frame, &mut ctx);
        assert_eq!(
            up,
            Some(Upcall::EchoReply {
                from: peer_ip,
                ident: 7,
                seq: 3,
                payload: Bytes::from_static(b"t")
            })
        );
    }

    #[test]
    fn udp_surfaces_as_upcall() {
        let (mac, ip) = h(1);
        let (peer_mac, peer_ip) = h(2);
        let mut stack = HostStack::new(mac, ip);
        let ports = [true];
        let mut cmds = Vec::new();
        let mut ctx = ctx_with(&mut cmds, &ports, SimTime(0));
        let udp = UdpDatagram::encode(5004, 5005, b"chunk");
        let pkt = Ipv4Packet::new(peer_ip, ip, IpProto::Udp, udp);
        let frame = EthernetFrame::new(mac, peer_mac, Payload::Ipv4(pkt));
        let up = stack.handle_frame(frame, &mut ctx);
        assert_eq!(
            up,
            Some(Upcall::Udp {
                from: peer_ip,
                src_port: 5004,
                dst_port: 5005,
                payload: Bytes::from_static(b"chunk")
            })
        );
    }

    #[test]
    fn frames_for_other_macs_are_filtered() {
        let (mac, ip) = h(1);
        let (peer_mac, _) = h(2);
        let mut stack = HostStack::new(mac, ip);
        let ports = [true];
        let mut cmds = Vec::new();
        let mut ctx = ctx_with(&mut cmds, &ports, SimTime(0));
        let frame = EthernetFrame::new(
            MacAddr::from_index(1, 9),
            peer_mac,
            Payload::Raw { ethertype: arppath_wire::EtherType(0x88B6), data: Bytes::new() },
        );
        assert!(stack.handle_frame(frame, &mut ctx).is_none());
        assert_eq!(stack.counters().ignored, 1);
    }

    #[test]
    fn pending_queue_is_bounded() {
        let (mac, ip) = h(1);
        let (_, dst_ip) = h(2);
        let mut stack = HostStack::new(mac, ip);
        let ports = [true];
        let mut cmds = Vec::new();
        let mut ctx = ctx_with(&mut cmds, &ports, SimTime(0));
        for i in 0..PENDING_PER_DST + 3 {
            stack.send_udp(dst_ip, 1, 2, &[i as u8], &mut ctx);
        }
        assert_eq!(stack.counters().pending_overflow, 3);
    }
}
