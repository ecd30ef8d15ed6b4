//! Deciding frames in `Device::lookup_stage` changes nothing a run can
//! observe.
//!
//! Twin networks run the same scenario: in one every device is as
//! built, so the engine drops race losers and foreign ARP requests and
//! forwards unicast table hits in the lookup stage; in the other every
//! device is wrapped so the stage is hidden and every delivered frame
//! reaches `on_frame`, as it did before the engine asked. Both must
//! agree on the sorted delivery trace, every `NetworkStats` field,
//! every link direction's `DirStats` (pause events, paused time and
//! peak queue bytes included) and every device counter, on one engine
//! and on a 2-shard split.
//!
//! Three scenarios on a k=4 fat-tree: an E8-shaped one (jittered links,
//! a seeded UDP permutation, ARP-Path bridges under the ideal timing
//! model); an E11-style churn fabric (undersized path tables, short
//! locks, stations whose access links go down and come back, and a
//! bridge link cut and restored under traffic); and an E9-shaped PFC
//! incast (AIMD go-back-N flows toward two hot receivers over 16 KiB
//! PFC queues with a force-resume watchdog), where queues, pauses and
//! retransmit timers decide when each forwarded frame leaves.

use arppath::{ArpPathBridge, ArpPathConfig, ArpPathCounters};
use arppath_host::{
    pairings, Aimd, ChurnConfig, ChurnHost, FlowConfig, FlowHost, HostCounters, TrafficConfig,
    TrafficHost, TrafficPattern,
};
use arppath_netsim::{
    Ctx, Device, Dir, DirStats, Engine, LinkId, LinkParams, NetworkBuilder, NetworkStats, NodeId,
    PauseWatchdog, PortNo, QueuePolicy, ShardedBuilder, SimDuration, SimTime, TimerToken,
};
use arppath_switch::{IdealSwitch, SwitchCounters, SwitchLogic};
use arppath_wire::{EthernetFrame, MacAddr};
use std::net::Ipv4Addr;

type Bridge = IdealSwitch<ArpPathBridge>;

/// A device with its lookup stage hidden: every frame reaches
/// `on_frame`.
struct Hidden<D>(D);

impl<D: Device> Device for Hidden<D> {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.0.on_start(ctx)
    }
    fn on_frame(&mut self, port: PortNo, frame: EthernetFrame, ctx: &mut Ctx) {
        self.0.on_frame(port, frame, ctx)
    }
    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
        self.0.on_timer(token, ctx)
    }
    fn on_link_status(&mut self, port: PortNo, up: bool, ctx: &mut Ctx) {
        self.0.on_link_status(port, up, ctx)
    }
    fn forwards_control_frames(&self) -> bool {
        self.0.forwards_control_frames()
    }
}

fn boxed<D: Device>(device: D, hide: bool) -> Box<dyn Device> {
    if hide {
        Box::new(Hidden(device))
    } else {
        Box::new(device)
    }
}

/// The device at `node`, through the wrapper when `hide`.
fn view<T: 'static>(net: &impl Engine, node: NodeId, hide: bool) -> &T {
    if hide {
        &net.device::<Hidden<T>>(node).0
    } else {
        net.device::<T>(node)
    }
}

/// splitmix64, for the link jitter.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

const K: usize = 4;
const HALF: usize = K / 2;
const CORES: usize = HALF * HALF;
const BRIDGES: usize = CORES + K * K;
const HOSTS_PER_EDGE: usize = 2;
const HOSTS: usize = K * HALF * HOSTS_PER_EDGE;

fn agg(pod: usize, j: usize) -> usize {
    CORES + pod * K + j
}

fn edge(pod: usize, i: usize) -> usize {
    CORES + pod * K + HALF + i
}

fn at_ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::millis(ms)
}

fn host_mac(i: usize) -> MacAddr {
    MacAddr::from_index(1, (i + 1) as u32)
}

fn host_ip(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, (i + 1) as u8)
}

/// A k=4 fat-tree with 1–10 µs jittered bridge links and two hosts per
/// edge: bridges are nodes `0..BRIDGES` (cores, then per pod its
/// aggregation and edge bridges), host `h` is node `BRIDGES + h` on
/// port 0. Ports are numbered as links are declared: bridge links
/// first, then host links, as the topology builder numbers them.
struct Plan {
    ports: Vec<usize>,
    /// `(a, a port, b, b port, params)`; host links last.
    links: Vec<(usize, usize, usize, usize, LinkParams)>,
    /// Node index → shard, for the 2-shard split: pods 0–1 and every
    /// core on shard 0, pods 2–3 on shard 1, hosts with their edge.
    shard_of: Vec<usize>,
}

impl Plan {
    fn fat_tree(seed: u64) -> Plan {
        let mut rng = Rng(seed);
        let mut pairs = Vec::new();
        for pod in 0..K {
            for i in 0..HALF {
                for j in 0..HALF {
                    pairs.push((edge(pod, i), agg(pod, j)));
                }
            }
            for j in 0..HALF {
                for m in 0..HALF {
                    pairs.push((agg(pod, j), j * HALF + m));
                }
            }
        }
        let mut ports = vec![0; BRIDGES + HOSTS];
        let mut links = Vec::new();
        for (a, b) in pairs {
            let params = LinkParams::gigabit(SimDuration::micros(1 + rng.below(10)));
            links.push((a, ports[a], b, ports[b], params));
            ports[a] += 1;
            ports[b] += 1;
        }
        let mut shard_of = vec![0; BRIDGES + HOSTS];
        for h in 0..HOSTS {
            let rack = h / HOSTS_PER_EDGE;
            let e = edge(rack / HALF, rack % HALF);
            links.push((e, ports[e], BRIDGES + h, 0, LinkParams::default()));
            ports[e] += 1;
            ports[BRIDGES + h] = 1;
            shard_of[BRIDGES + h] = usize::from(rack / HALF >= K / 2);
        }
        for pod in K / 2..K {
            shard_of[agg(pod, 0)..=edge(pod, HALF - 1)].fill(1);
        }
        Plan { ports, links, shard_of }
    }

    /// Every link with E9's PFC queues (pause at 16 KiB) and a
    /// force-resume watchdog. Its 100 µs deadline is far below E9's, so
    /// some pauses end by the watchdog and some by draining.
    fn pfc(mut self) -> Plan {
        let watchdog = PauseWatchdog::force_resume(SimDuration::micros(100));
        for link in &mut self.links {
            link.4 = link.4.with_queue(QueuePolicy::pfc(16 * 1024)).with_watchdog(watchdog);
        }
        self
    }

    /// The bridges, as built or hidden.
    fn bridges(&self, config: ArpPathConfig, hide: bool) -> Vec<Box<dyn Device>> {
        (0..BRIDGES)
            .map(|b| {
                let mac = MacAddr::from_index(2, (b + 1) as u32);
                let logic = ArpPathBridge::new(format!("b{b}"), mac, self.ports[b], config);
                boxed(IdealSwitch::new(logic), hide)
            })
            .collect()
    }
}

/// Everything one run exposes that the twins must agree on.
struct Observed {
    trace: Vec<String>,
    stats: NetworkStats,
    dirs: Vec<DirStats>,
    bridges: Vec<(SwitchCounters, ArpPathCounters, u64)>,
    hosts: Vec<(HostCounters, Vec<u64>)>,
}

/// Which host device a scenario attaches, and how to read it.
trait Host: Device + Sized {
    fn make(h: usize) -> Self;
    fn counters(&self) -> (HostCounters, Vec<u64>);
}

impl Host for TrafficHost {
    fn make(h: usize) -> Self {
        let pairs = pairings(HOSTS, TrafficPattern::Permutation, 5);
        let config = TrafficConfig {
            target: host_ip(pairs[h]),
            start_at: SimDuration::millis(100) + SimDuration::micros(137).times(h as u64),
            interval: SimDuration::millis(5),
            count: 3,
            payload_len: 64,
            ..TrafficConfig::default()
        };
        TrafficHost::new(format!("h{h}"), host_mac(h), host_ip(h), config)
    }
    fn counters(&self) -> (HostCounters, Vec<u64>) {
        (self.stack.counters(), vec![self.sent(), self.rx_datagrams, self.rx_bytes])
    }
}

impl Host for ChurnHost {
    fn make(h: usize) -> Self {
        let config = ChurnConfig {
            target: host_ip((h + 5) % HOSTS),
            start_at: SimDuration::micros(1 + 7 * h as u64),
            ident: h as u16,
            active_at_start: h % 4 != 3,
            ..ChurnConfig::default()
        };
        ChurnHost::new(format!("c{h}"), host_mac(h), host_ip(h), config)
    }
    fn counters(&self) -> (HostCounters, Vec<u64>) {
        let mut seen = vec![self.probes_tx, self.replies_rx, u64::from(self.activations)];
        seen.extend(&self.correction_ns);
        (self.stack.counters(), seen)
    }
}

impl Host for FlowHost {
    fn make(h: usize) -> Self {
        let pairs = pairings(HOSTS, TrafficPattern::Hotspot { hot_receivers: 2 }, 9);
        let config = FlowConfig {
            target: Some(host_ip(pairs[h])),
            start_at: SimDuration::millis(100) + SimDuration::micros(11).times(h as u64),
            segments: 64,
            segment_len: 700,
            rto: SimDuration::micros(300),
            ..FlowConfig::default()
        };
        let cc = Box::new(Aimd::new(2, 64));
        FlowHost::with_controller(format!("f{h}"), host_mac(h), host_ip(h), config, cc)
    }
    fn counters(&self) -> (HostCounters, Vec<u64>) {
        let fct = self.fct.map_or(u64::MAX, |fct| fct.as_nanos());
        let seen = [self.data_sent, self.retransmits, self.rx_segments, self.rx_bytes, fct];
        (self.stack.counters(), seen.to_vec())
    }
}

/// A scripted carrier change: link, instant, up.
type Admin = (LinkId, SimTime, bool);

/// Run `plan` with `H` hosts and bridges under `config` to `until`,
/// applying `admin`; `hide` wraps every device.
fn run<H: Host>(
    plan: &Plan,
    config: ArpPathConfig,
    shards: usize,
    hide: bool,
    admin: &[Admin],
    until: SimTime,
) -> Observed {
    let mut devices = plan.bridges(config, hide);
    devices.extend((0..HOSTS).map(|h| boxed(H::make(h), hide)));
    if shards == 1 {
        let mut b = NetworkBuilder::new();
        b.record_delivery_trace(true);
        for d in devices {
            b.add(d);
        }
        for &(a, ap, z, zp, params) in &plan.links {
            b.link(NodeId(a), ap, NodeId(z), zp, params);
        }
        finish::<H>(b.build(), plan, hide, admin, until)
    } else {
        let mut b = ShardedBuilder::new(shards);
        b.record_delivery_trace(true);
        for d in devices {
            b.add(d);
        }
        for &(a, ap, z, zp, params) in &plan.links {
            b.link(NodeId(a), ap, NodeId(z), zp, params);
        }
        finish::<H>(b.build(&plan.shard_of), plan, hide, admin, until)
    }
}

fn finish<H: Host>(
    mut net: impl Engine,
    plan: &Plan,
    hide: bool,
    admin: &[Admin],
    until: SimTime,
) -> Observed {
    for &(link, at, up) in admin {
        if up {
            net.schedule_link_up(link, at);
        } else {
            net.schedule_link_down(link, at);
        }
    }
    net.run_until(until);
    observe::<H>(&net, plan, hide)
}

fn observe<H: Host>(net: &impl Engine, plan: &Plan, hide: bool) -> Observed {
    let dirs = (0..plan.links.len())
        .flat_map(|l| [Dir::AtoB, Dir::BtoA].map(|d| net.link_stats(LinkId(l), d)))
        .collect();
    let bridges = (0..BRIDGES)
        .map(|b| {
            let logic = view::<Bridge>(net, NodeId(b), hide).logic();
            (logic.counters().clone(), logic.ap_counters(), logic.table_evictions())
        })
        .collect();
    let hosts = (0..HOSTS).map(|h| view::<H>(net, NodeId(BRIDGES + h), hide).counters()).collect();
    Observed { trace: net.delivery_trace(), stats: net.stats(), dirs, bridges, hosts }
}

/// Run both twins at 1 and 2 shards; returns the as-built single-engine
/// observation for the caller's own checks.
fn assert_twins_agree<H: Host>(
    name: &str,
    plan: Plan,
    config: ArpPathConfig,
    admin: &[Admin],
    until: SimTime,
) -> Observed {
    let plan = &plan;
    let built = run::<H>(plan, config, 1, false, admin, until);
    for shards in [1, 2] {
        let hidden = run::<H>(plan, config, shards, true, admin, until);
        let as_built = if shards == 1 {
            None
        } else {
            Some(run::<H>(plan, config, shards, false, admin, until))
        };
        let as_built = as_built.as_ref().unwrap_or(&built);
        assert_eq!(
            as_built.trace.len(),
            hidden.trace.len(),
            "{name}: trace length, {shards} shard(s)"
        );
        assert!(
            as_built.trace == hidden.trace,
            "{name}: delivery traces differ at {shards} shard(s)"
        );
        assert_eq!(as_built.stats, hidden.stats, "{name}: NetworkStats at {shards} shard(s)");
        assert_eq!(as_built.dirs, hidden.dirs, "{name}: DirStats at {shards} shard(s)");
        assert_eq!(
            as_built.bridges, hidden.bridges,
            "{name}: bridge counters at {shards} shard(s)"
        );
        assert_eq!(as_built.hosts, hidden.hosts, "{name}: host counters at {shards} shard(s)");
    }
    built
}

#[test]
fn e8_shaped_permutation_is_unchanged_by_the_lookup_stage() {
    let until = at_ms(400);
    let run = assert_twins_agree::<TrafficHost>(
        "e8 k=4",
        Plan::fat_tree(0xFA7),
        ArpPathConfig::default().autosize_for_stations(HOSTS),
        &[],
        until,
    );
    // The frames the stage decides were there to decide.
    let race_drops: u64 = run.bridges.iter().map(|(_, ap, _)| ap.race_drops).sum();
    let forwarded: u64 = run.bridges.iter().map(|(c, ..)| c.forwarded).sum();
    let ignored: u64 = run.hosts.iter().map(|(c, _)| c.ignored).sum();
    assert!(race_drops > 0 && ignored > 0, "{race_drops} race drops, {ignored} ignored");
    assert!(forwarded > 0, "no unicast was forwarded");
    let delivered: u64 = run.hosts.iter().map(|(_, seen)| seen[1]).sum();
    assert_eq!(delivered, 3 * HOSTS as u64, "every datagram arrives");
}

#[test]
fn churn_fabric_is_unchanged_by_the_lookup_stage() {
    // E11's short timers, and tables with no headroom (4 ways × 2
    // buckets × 2 slots for 16 stations), so entries expire, collide
    // and are evicted under traffic, and misses start repairs. (With
    // half that table, repair floods livelock: a known protocol limit.)
    let config = ArpPathConfig {
        lock_time: SimDuration::millis(5),
        learn_time: SimDuration::millis(40),
        repair_hold: SimDuration::millis(10),
        table_bucket_bits: Some(1),
        ..ArpPathConfig::default()
    };
    let host_link = |h: usize| LinkId(K * HALF * HALF * 2 + h);
    let mut admin = Vec::new();
    for h in 0..HOSTS {
        let ms = |m: u64| at_ms(m + 3 * h as u64);
        if h % 4 == 3 {
            // Starts absent, arrives later.
            admin.extend([(host_link(h), SimTime::ZERO, false), (host_link(h), ms(20), true)]);
        } else if h % 4 == 1 {
            // Leaves and comes back.
            admin.extend([(host_link(h), ms(30), false), (host_link(h), ms(60), true)]);
        }
    }
    // Pod 0's first edge–aggregation link, cut and restored under
    // traffic (both ends on shard 0).
    admin.extend([(LinkId(0), at_ms(45), false), (LinkId(0), at_ms(75), true)]);
    let run =
        assert_twins_agree::<ChurnHost>("churn", Plan::fat_tree(0xFA7), config, &admin, at_ms(150));
    let evictions: u64 = run.bridges.iter().map(|&(_, _, e)| e).sum();
    let race_drops: u64 = run.bridges.iter().map(|(_, ap, _)| ap.race_drops).sum();
    let repairs: u64 = run.bridges.iter().map(|(_, ap, _)| ap.repairs_initiated).sum();
    assert!(evictions > 0, "the churn fabric must evict");
    assert!(race_drops > 0 && repairs > 0, "{race_drops} race drops, {repairs} repairs");
}

#[test]
fn pfc_incast_is_unchanged_by_the_lookup_stage() {
    let plan = Plan::fat_tree(0xFA7).pfc();
    let config = ArpPathConfig::default().autosize_for_stations(HOSTS);
    let run = assert_twins_agree::<FlowHost>("pfc incast", plan, config, &[], at_ms(500));
    // Pauses, forced resumes and go-back-N timeouts (a 300 µs RTO under
    // the queueing) all happen, and every flow still completes.
    let pauses: u64 = run.dirs.iter().map(|d| d.pause_events).sum();
    let forced: u64 = run.dirs.iter().map(|d| d.watchdog_fires).sum();
    let retransmits: u64 = run.hosts.iter().map(|(_, seen)| seen[1]).sum();
    let unfinished = run.hosts.iter().filter(|(_, seen)| seen[4] == u64::MAX).count();
    assert!(forced > 0 && pauses > forced, "{pauses} pauses, {forced} forced resumes");
    assert!(retransmits > 0, "the incast must time out");
    assert_eq!(unfinished, 0, "every flow completes");
    let forwarded: u64 = run.bridges.iter().map(|(c, ..)| c.forwarded).sum();
    assert!(forwarded > 0, "no unicast was forwarded");
}
