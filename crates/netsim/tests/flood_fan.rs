//! Fanning a flood out in the engine changes nothing a run can observe.
//!
//! The engine's own [`Ctx`] logs a flood once and sends its copies
//! itself; the copies bound for single-port stations that arrive in
//! one instant share one scheduler event. Here twin networks run the
//! same script: in one, the hub floods with `ctx.flood`; in the other,
//! it sends the same copies with one `ctx.send` per port, which the
//! engine never fans. Both must agree on the sorted delivery trace,
//! every `NetworkStats` field (`events` included), every link
//! direction's `DirStats` and every device's callback sequence, with
//! and without a station link cut under an in-flight copy, on one
//! engine and on a 2-shard split that cuts a station link.
//!
//! The script covers the corners the fan must respect: stations whose
//! replies reach the hub in the very instant the fan reaches the
//! others, a station link kept busy by a unicast sent just before the
//! flood (its copy queues), two floods and a send interleaved in one
//! callback, zero-delay timers at the stations, and one station on a
//! link so fast that a frame takes no line time.

use arppath_netsim::{
    Ctx, Device, Dir, DirStats, Engine, LinkId, LinkParams, NetworkBuilder, NetworkStats, NodeId,
    PortNo, ShardedBuilder, SimDuration, SimTime, TimerToken,
};
use arppath_wire::{EtherType, EthernetFrame, MacAddr, Payload};
use bytes::Bytes;

/// Every frame is 60 bytes: 672 ns of line time at 1 Gbit/s.
const SER_NS: u64 = 672;
/// Station 0's propagation delay.
const NEAR_NS: u64 = 1_000;
/// Far stations sit one serialization plus a near round trip away, so
/// station 0's reply reaches the hub in the instant a fan copy reaches
/// them.
const FAR_NS: u64 = SER_NS + 2 * NEAR_NS;

/// A frame whose payload carries a hop budget, its origin and a tag.
fn frame(ttl: u8, origin: u8, tag: u8) -> EthernetFrame {
    let mut data = vec![0u8; 46];
    data[..3].copy_from_slice(&[ttl, origin, tag]);
    EthernetFrame::new(
        MacAddr::BROADCAST,
        MacAddr::from_index(1, u32::from(origin)),
        Payload::Raw { ethertype: EtherType(0x88B6), data: Bytes::from(data) },
    )
}

fn fields(frame: &EthernetFrame) -> [u8; 3] {
    match &frame.payload {
        Payload::Raw { data, .. } => [data[0], data[1], data[2]],
        other => panic!("unexpected payload {other:?}"),
    }
}

/// One device callback, as the device saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Heard {
    Frame {
        at: SimTime,
        port: PortNo,
        fields: [u8; 3],
    },
    Timer {
        at: SimTime,
        token: u64,
    },
    Link {
        at: SimTime,
        port: PortNo,
        up: bool,
    },
    /// What a flood returned: how many copies it queued.
    Flooded(usize),
}

/// The bridge stand-in: floods every frame that still has hops left.
struct Hub {
    /// Flood with `ctx.flood`, or with one `ctx.send` per port.
    fan: bool,
    heard: Vec<Heard>,
}

impl Hub {
    fn flood(&mut self, ctx: &mut Ctx, frame: &EthernetFrame, except: PortNo) {
        let copies = if self.fan {
            ctx.flood(frame, except)
        } else {
            let mut copies = 0;
            for p in (0..ctx.num_ports()).map(PortNo) {
                if p != except && ctx.is_port_up(p) {
                    ctx.send(p, frame.clone());
                    copies += 1;
                }
            }
            copies
        };
        self.heard.push(Heard::Flooded(copies));
    }
}

impl Device for Hub {
    fn name(&self) -> &str {
        "hub"
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        // No port is excepted: every station hears the first flood.
        self.flood(ctx, &frame(3, 0, 0), PortNo(usize::MAX));
    }

    fn on_frame(&mut self, port: PortNo, f: EthernetFrame, ctx: &mut Ctx) {
        let [ttl, origin, _] = fields(&f);
        self.heard.push(Heard::Frame { at: ctx.now(), port, fields: fields(&f) });
        if ttl == 0 {
            return;
        }
        if ttl % 2 == 1 {
            // Station 1's link is busy when the flood's copy reaches it.
            ctx.send(PortNo(1), frame(0, 0, 9));
        }
        self.flood(ctx, &frame(ttl - 1, 0, origin), port);
        ctx.schedule(SimDuration::nanos(100), TimerToken(u64::from(origin)));
        if ttl >= 2 {
            self.flood(ctx, &frame(0, 0, 100 + origin), port);
            // Queues behind the flood's copy, not ahead of it.
            ctx.send(PortNo(3), frame(0, 0, 200 + origin));
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
        self.heard.push(Heard::Timer { at: ctx.now(), token: token.0 });
    }

    fn on_link_status(&mut self, port: PortNo, up: bool, ctx: &mut Ctx) {
        self.heard.push(Heard::Link { at: ctx.now(), port, up });
    }
}

/// A single-port station: replies to every frame with hops left.
struct Station {
    id: u8,
    heard: Vec<Heard>,
}

impl Device for Station {
    fn name(&self) -> &str {
        "station"
    }

    fn on_frame(&mut self, port: PortNo, f: EthernetFrame, ctx: &mut Ctx) {
        let [ttl, ..] = fields(&f);
        self.heard.push(Heard::Frame { at: ctx.now(), port, fields: fields(&f) });
        ctx.schedule(SimDuration::ZERO, TimerToken(u64::from(ttl)));
        if ttl > 0 {
            ctx.send(port, frame(ttl - 1, self.id, 0));
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
        self.heard.push(Heard::Timer { at: ctx.now(), token: token.0 });
    }

    fn on_link_status(&mut self, port: PortNo, up: bool, ctx: &mut Ctx) {
        self.heard.push(Heard::Link { at: ctx.now(), port, up });
    }
}

/// Per station: its link's propagation delay and rate.
const STATIONS: [(u64, u64); 6] = [
    (NEAR_NS, 1_000_000_000),
    (FAR_NS, 1_000_000_000),
    (FAR_NS, 1_000_000_000),
    (NEAR_NS, 1_000_000_000),
    (FAR_NS, 1_000_000_000),
    // A frame takes no line time here: 672 bits at u64::MAX b/s.
    (FAR_NS, u64::MAX),
];

/// The station whose link is cut under the first flood's copy.
const CUT: usize = 2;
/// The station the 2-shard split moves to the second shard.
const REMOTE: usize = 4;

/// Everything a run exposes.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    trace: Vec<String>,
    stats: NetworkStats,
    links: Vec<[DirStats; 2]>,
    heard: Vec<Vec<Heard>>,
}

fn observe<E: Engine>(mut net: E, cut: bool) -> Observed {
    let hub = NodeId(0);
    let link = LinkId(CUT);
    if cut {
        // The first flood's copy to the station is on the wire from
        // 0 to SER_NS and propagates until SER_NS + FAR_NS.
        net.schedule_link_down(link, SimTime(SER_NS + 100));
        net.schedule_link_up(link, SimTime(20 * FAR_NS));
    }
    net.run_until(SimTime(200 * FAR_NS));
    let mut heard = vec![net.device::<Hub>(hub).heard.clone()];
    heard.extend((1..=STATIONS.len()).map(|i| net.device::<Station>(NodeId(i)).heard.clone()));
    let links = (0..STATIONS.len())
        .map(|l| [Dir::AtoB, Dir::BtoA].map(|d| net.link_stats(LinkId(l), d)))
        .collect();
    Observed { trace: net.delivery_trace(), stats: net.stats(), links, heard }
}

/// The hub is node 0 and station `i` node `i + 1`, on hub port `i`
/// over link `i`, on one engine or on two shards.
fn run(fan: bool, shards: usize, cut: bool) -> Observed {
    let hub = || Box::new(Hub { fan, heard: Vec::new() });
    let station = |i: usize| Box::new(Station { id: i as u8 + 1, heard: Vec::new() });
    let params = |(prop, bps): (u64, u64)| LinkParams {
        bandwidth_bps: bps,
        ..LinkParams::gigabit(SimDuration::nanos(prop))
    };
    if shards == 1 {
        let mut b = NetworkBuilder::new();
        b.record_delivery_trace(true);
        let h = b.add(hub());
        for (i, &link) in STATIONS.iter().enumerate() {
            let s = b.add(station(i));
            b.link(h, i, s, 0, params(link));
        }
        observe(b.build(), cut)
    } else {
        let mut b = ShardedBuilder::new(shards);
        b.record_delivery_trace(true);
        let h = b.add(hub());
        for (i, &link) in STATIONS.iter().enumerate() {
            let s = b.add(station(i));
            b.link(h, i, s, 0, params(link));
        }
        let assignment: Vec<usize> =
            (0..=STATIONS.len()).map(|n| usize::from(n == REMOTE + 1)).collect();
        observe(b.build(&assignment), cut)
    }
}

#[test]
fn a_fanned_flood_is_indistinguishable_from_its_sends() {
    for shards in [1, 2] {
        for cut in [false, true] {
            let sends = run(false, shards, cut);
            let fanned = run(true, shards, cut);
            assert_eq!(fanned, sends, "{shards} shard(s), cut: {cut}");
            // The script did what it is meant to cover.
            let copies: usize =
                sends.heard[0].iter().map(|h| if let Heard::Flooded(n) = h { *n } else { 0 }).sum();
            assert!(copies > 40, "{copies} flood copies");
            assert_eq!(sends.stats.drops_link_down > 0, cut);
            assert!(sends.links[1][0].peak_queue_bytes > 0, "station 1's link must queue");
            // Station 0's reply to the first flood reaches the hub in
            // the instant that flood's copies reach the far stations.
            let meet = SimTime(2 * SER_NS + 2 * NEAR_NS);
            let heard_at = |node: usize| {
                sends.heard[node]
                    .iter()
                    .any(|h| matches!(h, Heard::Frame { at, .. } if *at == meet))
            };
            assert!(heard_at(0) && heard_at(2), "a reply meets the fan at the hub");
            if shards == 2 {
                assert_eq!(sends.trace, run(false, 1, cut).trace, "shard split, cut: {cut}");
            }
        }
    }
}
