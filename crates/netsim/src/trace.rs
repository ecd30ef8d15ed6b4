//! Observability: trace records emitted by the engine and ready-made
//! sinks (counting, collecting, pcap).

use crate::device::{NodeId, PortNo, TimerToken};
use crate::link::{Dir, LinkId};
use crate::time::SimTime;
use arppath_wire::pcap::PcapWriter;
use arppath_wire::EthernetFrame;
use std::io::Write;

/// One observable simulator event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent<'a> {
    /// A device handed a frame to a link transmitter.
    Sent {
        /// Transmitting device.
        node: NodeId,
        /// Egress port.
        port: PortNo,
        /// The frame.
        frame: &'a EthernetFrame,
    },
    /// A frame arrived (last bit) at a device.
    Delivered {
        /// Receiving device.
        node: NodeId,
        /// Ingress port.
        port: PortNo,
        /// The frame.
        frame: &'a EthernetFrame,
    },
    /// A frame was dropped at a full transmit queue.
    DropQueueFull {
        /// Link where the drop happened.
        link: LinkId,
        /// Direction of travel.
        dir: Dir,
        /// The dropped frame.
        frame: &'a EthernetFrame,
    },
    /// A frame was lost to a down link (at send time or in flight).
    DropLinkDown {
        /// Link where the loss happened.
        link: LinkId,
        /// The lost frame.
        frame: &'a EthernetFrame,
    },
    /// A device transmitted into a port with no cable at all.
    DropNoCable {
        /// The transmitting device.
        node: NodeId,
        /// The uncabled port.
        port: PortNo,
    },
    /// A link changed administrative/operational state.
    LinkStatus {
        /// The link.
        link: LinkId,
        /// New state.
        up: bool,
    },
    /// A timer callback fired.
    TimerFired {
        /// The device whose timer fired.
        node: NodeId,
        /// Its cookie.
        token: TimerToken,
    },
}

/// A sink for trace records. The engine calls this for every observable
/// event when a tracer is installed; with none installed tracing costs
/// nothing.
pub trait Tracer {
    /// Record one event at `now`.
    fn record(&mut self, now: SimTime, event: TraceEvent<'_>);
}

/// Counts events by class; the cheapest useful tracer.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CountingTracer {
    /// Frames handed to transmitters.
    pub sent: u64,
    /// Frames delivered to devices.
    pub delivered: u64,
    /// Queue-full drops.
    pub drop_queue_full: u64,
    /// Link-down losses.
    pub drop_link_down: u64,
    /// Transmissions into uncabled ports.
    pub drop_no_cable: u64,
    /// Link state flips.
    pub link_changes: u64,
    /// Timer callbacks.
    pub timers: u64,
}

impl Tracer for CountingTracer {
    fn record(&mut self, _now: SimTime, event: TraceEvent<'_>) {
        match event {
            TraceEvent::Sent { .. } => self.sent += 1,
            TraceEvent::Delivered { .. } => self.delivered += 1,
            TraceEvent::DropQueueFull { .. } => self.drop_queue_full += 1,
            TraceEvent::DropLinkDown { .. } => self.drop_link_down += 1,
            TraceEvent::DropNoCable { .. } => self.drop_no_cable += 1,
            TraceEvent::LinkStatus { .. } => self.link_changes += 1,
            TraceEvent::TimerFired { .. } => self.timers += 1,
        }
    }
}

/// Collects human-readable one-line records; used by determinism tests
/// (two runs of the same seeded scenario must produce byte-identical
/// logs) and debugging.
#[derive(Debug, Default)]
pub struct CollectingTracer {
    /// The formatted records in emission order.
    pub lines: Vec<String>,
}

impl Tracer for CollectingTracer {
    fn record(&mut self, now: SimTime, event: TraceEvent<'_>) {
        let line = match event {
            TraceEvent::Sent { node, port, frame } => {
                format!("{now} n{} p{} TX {frame}", node.0, port.0)
            }
            TraceEvent::Delivered { node, port, frame } => {
                format!("{now} n{} p{} RX {frame}", node.0, port.0)
            }
            TraceEvent::DropQueueFull { link, dir, frame } => {
                format!("{now} l{} {dir:?} DROP-QFULL {frame}", link.0)
            }
            TraceEvent::DropLinkDown { link, frame } => {
                format!("{now} l{} DROP-LINKDOWN {frame}", link.0)
            }
            TraceEvent::DropNoCable { node, port } => {
                format!("{now} n{} p{} DROP-NOCABLE", node.0, port.0)
            }
            TraceEvent::LinkStatus { link, up } => {
                format!("{now} l{} LINK {}", link.0, if up { "UP" } else { "DOWN" })
            }
            TraceEvent::TimerFired { node, token } => {
                format!("{now} n{} TIMER {:#x}", node.0, token.0)
            }
        };
        self.lines.push(line);
    }
}

/// Writes every *delivered* frame to a pcap stream, giving a
/// Wireshark-compatible capture of what the network's receivers saw —
/// the simulator's replacement for the demo GUI.
pub struct PcapTracer<W: Write> {
    writer: PcapWriter<W>,
    /// Restrict the capture to one device, like attaching tcpdump to a
    /// single NIC. `None` captures everywhere.
    pub only_node: Option<NodeId>,
}

impl<W: Write> PcapTracer<W> {
    /// Capture all deliveries into `sink`.
    pub fn new(sink: W) -> std::io::Result<Self> {
        Ok(PcapTracer { writer: PcapWriter::new(sink)?, only_node: None })
    }

    /// Capture only frames delivered to `node`.
    pub fn for_node(sink: W, node: NodeId) -> std::io::Result<Self> {
        Ok(PcapTracer { writer: PcapWriter::new(sink)?, only_node: Some(node) })
    }

    /// Flush and return the sink.
    pub fn finish(self) -> std::io::Result<W> {
        self.writer.finish()
    }
}

impl<W: Write> Tracer for PcapTracer<W> {
    fn record(&mut self, now: SimTime, event: TraceEvent<'_>) {
        if let TraceEvent::Delivered { node, frame, .. } = event {
            if self.only_node.is_none_or(|n| n == node) {
                // Sink errors are not recoverable mid-simulation; surface
                // loudly rather than silently truncating the capture.
                self.writer.write_frame(now.as_nanos(), frame).expect("pcap sink failed");
            }
        }
    }
}

/// Shared-handle tracing: install `Arc<Mutex<T>>` as the network's
/// tracer while keeping a clone outside to read results after the run.
/// (The lock is uncontended, so the cost is a few nanoseconds per
/// event.)
impl<T: Tracer> Tracer for std::sync::Arc<std::sync::Mutex<T>> {
    fn record(&mut self, now: SimTime, event: TraceEvent<'_>) {
        self.lock().expect("tracer mutex poisoned").record(now, event);
    }
}

/// A boxed tracer is a tracer, so boxes compose ([`TeeTracer`]).
impl Tracer for Box<dyn Tracer> {
    fn record(&mut self, now: SimTime, event: TraceEvent<'_>) {
        (**self).record(now, event);
    }
}

/// One frame delivery, reduced to the canonical comparable form used by
/// the sharded-vs-single-threaded equivalence checks: when, to whom, on
/// which port, and a digest of the exact wire bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct DeliveryRecord {
    /// Delivery instant.
    pub time: SimTime,
    /// Receiving device (global node id).
    pub node: NodeId,
    /// Ingress port.
    pub port: PortNo,
    /// Frame length on the wire (padded, pre-FCS).
    pub wire_len: usize,
    /// FNV-1a over the frame's wire bytes.
    pub digest: u64,
}

impl DeliveryRecord {
    /// The canonical one-line rendering. Sorting records (they are
    /// `Ord` on `(time, node, port, wire_len, digest)`) and rendering
    /// each gives the **merged, timestamp-sorted delivery trace**: two
    /// runs of the same scenario — single-threaded or sharded, any
    /// shard count — must produce byte-identical renderings.
    pub fn render(&self) -> String {
        format!(
            "{} n{} p{} RX {}B {:016x}",
            self.time.as_nanos(),
            self.node.0,
            self.port.0,
            self.wire_len,
            self.digest
        )
    }
}

/// FNV-1a, the digest used by [`DeliveryRecord`] — tiny, dependency
/// free, and stable across platforms.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Collects [`DeliveryRecord`]s — the trace the sharded engine's
/// equivalence contract is stated over. Both builders' `record_delivery_trace`
/// switch installs one per network (a sharded run, one per shard with a
/// local→global node remap); [`DeliveryTracer::render_sorted`] merges.
#[derive(Debug, Default)]
pub struct DeliveryTracer {
    /// Records in emission order (*not* globally sorted in a sharded
    /// run; sort before comparing).
    pub records: Vec<DeliveryRecord>,
    /// Local→global node translation; `None` entries are synthetic
    /// nodes (shard boundary stubs) whose deliveries are internal
    /// bookkeeping, not observable frame arrivals.
    remap: Option<Vec<Option<NodeId>>>,
    /// Reused emit buffer for digesting.
    scratch: Vec<u8>,
}

impl DeliveryTracer {
    /// A tracer recording every delivery under its engine-local ids.
    pub fn new() -> Self {
        Self::default()
    }

    /// A tracer translating engine-local node ids through `remap`
    /// (`None` = skip the node entirely). Used by the sharded engine.
    pub(crate) fn with_remap(remap: Vec<Option<NodeId>>) -> Self {
        DeliveryTracer { records: Vec::new(), remap: Some(remap), scratch: Vec::new() }
    }

    /// Merge any number of record sets into the canonical trace: sort
    /// by `(time, node, port, len, digest)` and render one line each.
    pub fn render_sorted(mut records: Vec<DeliveryRecord>) -> Vec<String> {
        records.sort_unstable();
        records.iter().map(DeliveryRecord::render).collect()
    }
}

impl Tracer for DeliveryTracer {
    fn record(&mut self, now: SimTime, event: TraceEvent<'_>) {
        let TraceEvent::Delivered { node, port, frame } = event else { return };
        let node = match &self.remap {
            Some(map) => match map.get(node.0).copied().flatten() {
                Some(global) => global,
                None => return, // boundary stub: not an observable delivery
            },
            None => node,
        };
        self.scratch.clear();
        frame.emit(&mut self.scratch);
        self.records.push(DeliveryRecord {
            time: now,
            node,
            port,
            wire_len: self.scratch.len(),
            digest: fnv1a(&self.scratch),
        });
    }
}

/// Fan-out to two tracers (compose as needed).
pub struct TeeTracer<A: Tracer, B: Tracer>(pub A, pub B);

impl<A: Tracer, B: Tracer> Tracer for TeeTracer<A, B> {
    fn record(&mut self, now: SimTime, event: TraceEvent<'_>) {
        self.0.record(now, event.clone());
        self.1.record(now, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arppath_wire::{ArpPacket, MacAddr};
    use std::net::Ipv4Addr;

    fn frame() -> EthernetFrame {
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
    fn counting_tracer_counts_each_class() {
        let f = frame();
        let mut t = CountingTracer::default();
        t.record(SimTime(0), TraceEvent::Sent { node: NodeId(0), port: PortNo(0), frame: &f });
        t.record(SimTime(1), TraceEvent::Delivered { node: NodeId(1), port: PortNo(0), frame: &f });
        t.record(
            SimTime(2),
            TraceEvent::DropQueueFull { link: LinkId(0), dir: Dir::AtoB, frame: &f },
        );
        t.record(SimTime(3), TraceEvent::LinkStatus { link: LinkId(0), up: false });
        t.record(SimTime(4), TraceEvent::TimerFired { node: NodeId(0), token: TimerToken(1) });
        assert_eq!(t.sent, 1);
        assert_eq!(t.delivered, 1);
        assert_eq!(t.drop_queue_full, 1);
        assert_eq!(t.link_changes, 1);
        assert_eq!(t.timers, 1);
    }

    #[test]
    fn collecting_tracer_formats_lines() {
        let f = frame();
        let mut t = CollectingTracer::default();
        t.record(
            SimTime(42),
            TraceEvent::Delivered { node: NodeId(3), port: PortNo(1), frame: &f },
        );
        assert_eq!(t.lines.len(), 1);
        assert!(t.lines[0].contains("n3 p1 RX"), "line: {}", t.lines[0]);
    }

    #[test]
    fn pcap_tracer_filters_by_node() {
        let f = frame();
        let mut t = PcapTracer::for_node(Vec::new(), NodeId(5)).unwrap();
        t.record(SimTime(0), TraceEvent::Delivered { node: NodeId(4), port: PortNo(0), frame: &f });
        t.record(SimTime(1), TraceEvent::Delivered { node: NodeId(5), port: PortNo(0), frame: &f });
        t.record(SimTime(2), TraceEvent::Sent { node: NodeId(5), port: PortNo(0), frame: &f });
        let buf = t.finish().unwrap();
        // Global header (24) + exactly one record.
        assert_eq!(buf.len(), 24 + 16 + f.to_bytes().len());
    }

    #[test]
    fn tee_tracer_feeds_both() {
        let f = frame();
        let mut t = TeeTracer(CountingTracer::default(), CollectingTracer::default());
        t.record(SimTime(0), TraceEvent::Sent { node: NodeId(0), port: PortNo(0), frame: &f });
        assert_eq!(t.0.sent, 1);
        assert_eq!(t.1.lines.len(), 1);
    }
}
