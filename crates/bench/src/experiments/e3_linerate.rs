//! **E3 — §3: throughput of the ARP-Path NetFPGA bridge at 1 Gbit/s.**
//!
//! The demo's stated objective: "understand the robustness and
//! throughput of ARP-Path transparent bridges in 1 Gbit/s wired
//! networks". We drive one NetFPGA-model bridge with back-to-back
//! frames across the standard Ethernet size sweep and check it
//! sustains line rate: delivered frame spacing equals the wire
//! occupancy of each size (i.e. zero pipeline-induced gaps), for both
//! an established unicast path and worst-case minimum-size frames.

use super::{host_ip, host_mac};
use arppath::{ArpPathBridge, ArpPathConfig};
use arppath_metrics::Table;
use arppath_netfpga::{NetFpgaParams, NetFpgaSwitch};
use arppath_netsim::{
    Ctx, Device, LinkParams, NetworkBuilder, PortNo, QueuePolicy, SimDuration, SimTime, TimerToken,
};
use arppath_wire::{
    frame::WIRE_OVERHEAD, ArpPacket, EthernetFrame, IpProto, Ipv4Packet, MacAddr, Payload,
};
use bytes::Bytes;

/// Parameters of one E3 run.
#[derive(Debug, Clone, Copy)]
pub struct E3Params {
    /// Frames per size point.
    pub frames_per_size: u64,
    /// Link rate under test.
    pub bandwidth_bps: u64,
}

impl Default for E3Params {
    fn default() -> Self {
        E3Params { frames_per_size: 2_000, bandwidth_bps: 1_000_000_000 }
    }
}

/// One row of the size sweep.
#[derive(Debug, Clone, Copy)]
pub struct E3Row {
    /// Ethernet frame size (header+payload, no FCS).
    pub frame_len: usize,
    /// Frames offered.
    pub offered: u64,
    /// Frames delivered.
    pub delivered: u64,
    /// Theoretical line-rate packets/s for this size.
    pub theoretical_pps: f64,
    /// Measured delivered packets/s.
    pub measured_pps: f64,
    /// Average per-frame bridge latency (ns) excluding serialization.
    pub pipeline_latency_ns: u64,
}

/// Full E3 output.
#[derive(Debug, Clone)]
pub struct E3Result {
    /// One row per frame size.
    pub rows: Vec<E3Row>,
}

/// Blasts `count` minimum-interval frames of a given size.
struct Blaster {
    name: String,
    dst: MacAddr,
    src: MacAddr,
    payload_len: usize,
    count: u64,
    sent: u64,
    interval: SimDuration,
}

const TOKEN_TX: TimerToken = TimerToken(0xB1A5_0001);

impl Device for Blaster {
    fn name(&self) -> &str {
        &self.name
    }
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.schedule(SimDuration::ZERO, TOKEN_TX);
    }
    fn on_timer(&mut self, _token: TimerToken, ctx: &mut Ctx) {
        if self.sent >= self.count {
            return;
        }
        let pkt = Ipv4Packet::new(
            host_ip(1),
            host_ip(2),
            IpProto::Udp,
            Bytes::from(vec![0u8; self.payload_len]),
        );
        ctx.send(PortNo(0), EthernetFrame::new(self.dst, self.src, Payload::Ipv4(pkt)));
        self.sent += 1;
        if self.sent < self.count {
            ctx.schedule(self.interval, TOKEN_TX);
        }
    }
    fn on_frame(&mut self, _: PortNo, _: EthernetFrame, _: &mut Ctx) {}
}

/// Counts arrivals and records first/last arrival instants.
struct Sink {
    name: String,
    received: u64,
    first: Option<SimTime>,
    last: Option<SimTime>,
}

impl Device for Sink {
    fn name(&self) -> &str {
        &self.name
    }
    fn on_frame(&mut self, _: PortNo, frame: EthernetFrame, ctx: &mut Ctx) {
        // Count only the unicast data under test; the bridge's hello
        // beacons and the path-establishing ARP flood are not part of
        // the offered load.
        if frame.is_flooded() || !matches!(frame.payload, Payload::Ipv4(_)) {
            return;
        }
        self.received += 1;
        if self.first.is_none() {
            self.first = Some(ctx.now());
        }
        self.last = Some(ctx.now());
    }
}

/// Run the sweep over the classic RFC 2544 frame sizes.
pub fn run(params: &E3Params) -> E3Result {
    let sizes = [60usize, 124, 252, 508, 1020, 1274, 1514];
    let mut rows = Vec::new();
    for &frame_len in &sizes {
        rows.push(run_size(frame_len, params));
    }
    E3Result { rows }
}

fn run_size(frame_len: usize, params: &E3Params) -> E3Row {
    // Ethernet header 14 + IP header 20 + payload = frame_len.
    let payload_len = frame_len - 14 - 20;
    let wire_bits = ((frame_len + WIRE_OVERHEAD) * 8) as u64;
    let interval = SimDuration::nanos(wire_bits * 1_000_000_000 / params.bandwidth_bps);

    let nf_params = NetFpgaParams::default();
    let src = host_mac(1);
    let dst = host_mac(2);
    let mut b = NetworkBuilder::new();
    let tx = b.add(Box::new(Blaster {
        name: "tx".into(),
        dst,
        src,
        payload_len,
        count: params.frames_per_size,
        sent: 0,
        interval,
    }));
    let bridge = b.add(Box::new(NetFpgaSwitch::new(
        ArpPathBridge::new("nf", MacAddr::from_index(2, 1), 2, ArpPathConfig::default()),
        nf_params,
    )));
    let rx = b.add(Box::new(Sink { name: "rx".into(), received: 0, first: None, last: None }));
    let lp = LinkParams {
        bandwidth_bps: params.bandwidth_bps,
        propagation: SimDuration::ZERO,
        queue: QueuePolicy::drop_tail(1 << 20),
        ..Default::default()
    };
    b.link(tx, 0, bridge, 0, lp);
    b.link(bridge, 1, rx, 0, lp);
    let mut net = b.build();

    // Pre-establish the path so the sweep measures pure forwarding:
    // one ARP exchange S→D.
    let arp = ArpPacket::request(src, host_ip(1), host_ip(2));
    net.inject(bridge, PortNo(0), EthernetFrame::arp_request(src, arp));
    let reply = ArpPacket {
        op: arppath_wire::ArpOp::Reply,
        sha: dst,
        spa: host_ip(2),
        tha: src,
        tpa: host_ip(1),
    };
    net.inject(bridge, PortNo(1), EthernetFrame::arp_reply(reply));

    // Bounded horizon: the bridge's hello beacons keep the event queue
    // alive forever, so "run until idle" would never return. Everything
    // is delivered well within offered-load time plus a margin.
    let horizon =
        SimDuration::nanos(interval.as_nanos() * (params.frames_per_size + 10) + 1_000_000);
    net.run_until(SimTime(horizon.as_nanos()));
    let sink = net.device::<Sink>(rx);
    let delivered = sink.received;
    let span = match (sink.first, sink.last) {
        (Some(f), Some(l)) if l > f => (l - f).as_nanos(),
        _ => 0,
    };
    // Rate over the inter-arrival span of n frames = n-1 intervals.
    let measured_pps =
        if span > 0 { (delivered.saturating_sub(1)) as f64 * 1e9 / span as f64 } else { 0.0 };
    let theoretical_pps = params.bandwidth_bps as f64 / wire_bits as f64;
    E3Row {
        frame_len,
        offered: params.frames_per_size,
        delivered,
        theoretical_pps,
        measured_pps,
        pipeline_latency_ns: nf_params.hardware_latency(frame_len).as_nanos(),
    }
}

/// Render the paper-style table.
pub fn table(result: &E3Result) -> Table {
    let mut t = Table::new(
        "E3 (§3): ARP-Path/NetFPGA forwarding at 1 Gbit/s, frame-size sweep",
        &[
            "frame (B)",
            "offered",
            "delivered",
            "line-rate pps",
            "measured pps",
            "ratio",
            "pipeline (ns)",
        ],
    );
    for r in &result.rows {
        t.row(&[
            r.frame_len.to_string(),
            r.offered.to_string(),
            r.delivered.to_string(),
            format!("{:.0}", r.theoretical_pps),
            format!("{:.0}", r.measured_pps),
            format!("{:.4}", r.measured_pps / r.theoretical_pps),
            r.pipeline_latency_ns.to_string(),
        ]);
    }
    t
}

/// Line rate holds when every size point delivered everything at ≥99%
/// of the theoretical rate.
pub fn verify_linerate(result: &E3Result) -> bool {
    result
        .rows
        .iter()
        .all(|r| r.delivered == r.offered && r.measured_pps / r.theoretical_pps > 0.99)
}
