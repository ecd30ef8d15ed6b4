//! Declarative topology construction over the simulator's builder.
//!
//! A [`TopoBuilder`] collects bridges, bridge-to-bridge cables and host
//! attachments, then instantiates every bridge with exactly the port
//! count it needs, wrapped in the chosen protocol + timing model
//! ([`BridgeKind`]). The same topology description can therefore be
//! instantiated as an ARP-Path network, an STP network, or a raw
//! learning-switch network — which is how every A/B experiment in the
//! repository is built.

use crate::partition::Partition;
use arppath::{ArpPathBridge, ArpPathConfig};
use arppath_netfpga::NetFpgaSwitch;
use arppath_netsim::{
    Device, Engine, LinkId, LinkParams, Network, NetworkBuilder, NodeId, PauseWatchdog,
    QueuePolicy, ShardedBuilder, ShardedNetwork, Tracer,
};
use arppath_stp::{StpBridge, StpConfig};
use arppath_switch::{IdealSwitch, LearningConfig, LearningSwitch};
use arppath_wire::MacAddr;
use std::collections::BTreeMap;

/// Which protocol + timing model every bridge of the topology runs.
#[derive(Debug, Clone, Copy)]
pub enum BridgeKind {
    /// ARP-Path logic under the ideal (zero processing latency) model.
    ArpPath(ArpPathConfig),
    /// ARP-Path logic inside the NetFPGA pipeline model — the paper's
    /// actual demo configuration.
    ArpPathNetFpga(ArpPathConfig),
    /// 802.1D STP baseline under the ideal model.
    Stp(StpConfig),
    /// 802.1D STP baseline inside the NetFPGA pipeline model.
    StpNetFpga(StpConfig),
    /// Plain learning switch (no loop protection!) — the storm foil.
    Learning(LearningConfig),
}

/// Index of a bridge within one topology (not a [`NodeId`]; the node
/// ids are assigned at build time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BridgeIx(pub usize);

struct HostSpec {
    bridge: BridgeIx,
    device: Box<dyn Device>,
    params: LinkParams,
}

/// Collects a topology description; see the module docs.
pub struct TopoBuilder {
    kind: BridgeKind,
    bridge_names: Vec<String>,
    bridge_links: Vec<(BridgeIx, BridgeIx, LinkParams)>,
    hosts: Vec<HostSpec>,
    priority_overrides: BTreeMap<usize, u16>,
    tracer: Option<Box<dyn Tracer>>,
}

impl TopoBuilder {
    /// Start a topology whose bridges all run `kind`.
    pub fn new(kind: BridgeKind) -> Self {
        TopoBuilder {
            kind,
            bridge_names: Vec::new(),
            bridge_links: Vec::new(),
            hosts: Vec::new(),
            priority_overrides: BTreeMap::new(),
            tracer: None,
        }
    }

    /// Declare a bridge; ports are allocated automatically as links and
    /// hosts attach.
    pub fn bridge(&mut self, name: impl Into<String>) -> BridgeIx {
        let ix = BridgeIx(self.bridge_names.len());
        self.bridge_names.push(name.into());
        ix
    }

    /// Cable two bridges with explicit link parameters.
    pub fn connect_with(&mut self, a: BridgeIx, b: BridgeIx, params: LinkParams) {
        assert!(a.0 < self.bridge_names.len() && b.0 < self.bridge_names.len());
        assert_ne!(a, b, "no self-loops");
        self.bridge_links.push((a, b, params));
    }

    /// Cable two bridges with default gigabit parameters.
    pub fn connect(&mut self, a: BridgeIx, b: BridgeIx) {
        self.connect_with(a, b, LinkParams::default());
    }

    /// Attach a host device to `bridge` (index into the returned
    /// topology's `host_nodes`, in attachment order).
    pub fn host(&mut self, bridge: BridgeIx, device: Box<dyn Device>) -> usize {
        self.host_with(bridge, device, LinkParams::default())
    }

    /// Attach a host with explicit link parameters.
    pub fn host_with(
        &mut self,
        bridge: BridgeIx,
        device: Box<dyn Device>,
        params: LinkParams,
    ) -> usize {
        assert!(bridge.0 < self.bridge_names.len());
        self.hosts.push(HostSpec { bridge, device, params });
        self.hosts.len() - 1
    }

    /// Give `bridge` a specific STP priority (lower = more likely
    /// root). Only meaningful for the STP kinds; used by the E1 root
    /// placement sweep.
    pub fn stp_priority(&mut self, bridge: BridgeIx, priority: u16) {
        self.priority_overrides.insert(bridge.0, priority);
    }

    /// Install a tracer that observes the network from t=0.
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.tracer = Some(tracer);
    }

    /// Re-queue every link declared *so far* — bridge cables and host
    /// attachments alike — under `queue`, keeping each link's bandwidth
    /// and propagation. This is how E9 instantiates one jittered
    /// fat-tree plan per queueing mode: describe the fabric once, then
    /// stamp `Infinite`, `DropTail`, or `Pfc` over it. Links added
    /// afterwards keep their own parameters.
    pub fn set_queue_policy(&mut self, queue: QueuePolicy) {
        for (_, _, params) in &mut self.bridge_links {
            *params = params.with_queue(queue);
        }
        for h in &mut self.hosts {
            h.params = h.params.with_queue(queue);
        }
    }

    /// Stamp `watchdog` on every link declared *so far*, the same way
    /// [`TopoBuilder::set_queue_policy`] stamps queue policies — E9
    /// arms the pause-deadlock watchdog across its PFC fabric with one
    /// call. Links added afterwards keep their own parameters.
    pub fn set_watchdog(&mut self, watchdog: PauseWatchdog) {
        for (_, _, params) in &mut self.bridge_links {
            *params = params.with_watchdog(watchdog);
        }
        for h in &mut self.hosts {
            h.params = h.params.with_watchdog(watchdog);
        }
    }

    /// Number of bridges declared so far.
    pub fn bridge_count(&self) -> usize {
        self.bridge_names.len()
    }

    /// Resolve ports, instantiate every device, and lay the links out
    /// in their canonical order (bridge links in declaration order,
    /// then host links in attachment order). Node and link ids are
    /// implied by the orderings, so the single-threaded and sharded
    /// builds of one plan number everything identically — which is
    /// what makes their traces directly comparable.
    fn plan(self) -> TopoPlan {
        let n = self.bridge_names.len();
        // ARP-Path kinds with no explicit table geometry get one derived
        // from the declared host count — the builder knows exactly how
        // many stations the fabric will learn, so nobody sizes it by
        // hand when scaling a topology up.
        let kind = match self.kind {
            BridgeKind::ArpPath(cfg) => {
                BridgeKind::ArpPath(cfg.autosize_for_stations(self.hosts.len()))
            }
            BridgeKind::ArpPathNetFpga(cfg) => {
                BridgeKind::ArpPathNetFpga(cfg.autosize_for_stations(self.hosts.len()))
            }
            other => other,
        };
        // Port allocation: bridge links first (declaration order), then
        // host links (attachment order).
        let mut next_port = vec![0usize; n];
        let mut bridge_link_ports = Vec::new(); // (a_port, b_port) per bridge link
        for &(a, b, _) in &self.bridge_links {
            let ap = next_port[a.0];
            next_port[a.0] += 1;
            let bp = next_port[b.0];
            next_port[b.0] += 1;
            bridge_link_ports.push((ap, bp));
        }
        let mut host_ports = Vec::new();
        for h in &self.hosts {
            let p = next_port[h.bridge.0];
            next_port[h.bridge.0] += 1;
            host_ports.push(p);
        }

        // Devices in global id order: bridges, then hosts.
        let mut devices = Vec::with_capacity(n + self.hosts.len());
        for (i, name) in self.bridge_names.iter().enumerate() {
            let mac = MacAddr::from_index(2, (i + 1) as u32);
            let ports = next_port[i].max(1);
            devices.push(make_bridge(
                kind,
                name.clone(),
                mac,
                ports,
                self.priority_overrides.get(&i).copied(),
            ));
        }
        let mut host_specs = Vec::new();
        for h in self.hosts {
            devices.push(h.device);
            host_specs.push((h.bridge, h.params));
        }

        // Links in global id order, as (node index, port) pairs.
        let mut links = Vec::new();
        let mut link_index = BTreeMap::new();
        for (i, &(a, b, params)) in self.bridge_links.iter().enumerate() {
            let (ap, bp) = bridge_link_ports[i];
            link_index.entry((a.0.min(b.0), a.0.max(b.0))).or_insert(LinkId(links.len()));
            links.push((a.0, ap, b.0, bp, params));
        }
        let n_bridge_links = links.len();
        for (i, &(bridge, params)) in host_specs.iter().enumerate() {
            links.push((bridge.0, host_ports[i], n + i, 0, params));
        }

        TopoPlan {
            kind,
            devices,
            links,
            n_bridges: n,
            n_bridge_links,
            link_index,
            tracer: self.tracer,
        }
    }

    /// Instantiate everything on the single-threaded engine.
    pub fn build(self) -> BuiltTopology {
        self.build_single(false)
    }

    /// [`build`](TopoBuilder::build), recording the canonical delivery
    /// trace ([`Engine::delivery_trace`]) when `record_delivery_trace`
    /// is set — the single-engine twin of
    /// [`build_sharded`](TopoBuilder::build_sharded)'s flag.
    pub fn build_single(self, record_delivery_trace: bool) -> BuiltTopology {
        let mut plan = self.plan();
        let mut nb = NetworkBuilder::new();
        if let Some(t) = plan.tracer.take() {
            nb.set_tracer(t);
        }
        nb.record_delivery_trace(record_delivery_trace);
        let nodes: Vec<NodeId> = plan.devices.drain(..).map(|d| nb.add(d)).collect();
        let mut links = Vec::with_capacity(plan.links.len());
        for &(a, ap, b, bp, params) in &plan.links {
            links.push(nb.link(nodes[a], ap, nodes[b], bp, params));
        }
        plan.instantiated(nb.build(), nodes, links)
    }

    /// Instantiate everything on the sharded twin engine, devices
    /// distributed per `partition`. Node and link ids match what
    /// [`TopoBuilder::build`] would assign for the same description.
    ///
    /// `record_delivery_trace` enables the canonical merged delivery
    /// trace ([`ShardedNetwork::delivery_trace`]) used by the
    /// equivalence suite; leave it off for pure performance runs.
    ///
    /// # Panics
    /// If the partition's bridge/host counts disagree with the
    /// topology, or a tracer was installed (each shard is a network of
    /// its own, with its own clock and local ids, so one tracer cannot
    /// see the run in order — use the delivery trace instead).
    pub fn build_sharded(
        self,
        partition: &Partition,
        record_delivery_trace: bool,
    ) -> ShardedTopology {
        let mut plan = self.plan();
        assert!(
            plan.tracer.is_none(),
            "global tracers are not supported on sharded builds: each shard runs its own \
             network with its own clock and local ids; use record_delivery_trace / \
             per-shard counters instead"
        );
        assert_eq!(partition.bridge_count(), plan.n_bridges, "partition bridge count mismatch");
        assert_eq!(
            partition.host_count(),
            plan.devices.len() - plan.n_bridges,
            "partition host count mismatch"
        );
        let mut sb = ShardedBuilder::new(partition.shards());
        sb.record_delivery_trace(record_delivery_trace);
        let nodes: Vec<NodeId> = plan.devices.drain(..).map(|d| sb.add(d)).collect();
        let mut links = Vec::with_capacity(plan.links.len());
        for &(a, ap, b, bp, params) in &plan.links {
            links.push(sb.link(nodes[a], ap, nodes[b], bp, params));
        }
        plan.instantiated(sb.build(&partition.assignment()), nodes, links)
    }
}

/// A resolved topology description: devices in global id order and
/// links in global id order, ready to feed either engine builder.
struct TopoPlan {
    kind: BridgeKind,
    devices: Vec<Box<dyn Device>>,
    /// `(a node index, a port, b node index, b port, params)`.
    links: Vec<(usize, usize, usize, usize, LinkParams)>,
    n_bridges: usize,
    n_bridge_links: usize,
    link_index: BTreeMap<(usize, usize), LinkId>,
    tracer: Option<Box<dyn Tracer>>,
}

impl TopoPlan {
    /// The handle over `net`, which instantiated this plan's devices as
    /// `nodes` and its links as `links`, both in plan order.
    fn instantiated<N>(self, net: N, nodes: Vec<NodeId>, links: Vec<LinkId>) -> Topology<N> {
        Topology {
            net,
            kind: self.kind,
            bridge_nodes: nodes[..self.n_bridges].to_vec(),
            host_nodes: nodes[self.n_bridges..].to_vec(),
            bridge_links: links[..self.n_bridge_links].to_vec(),
            host_links: links[self.n_bridge_links..].to_vec(),
            link_index: self.link_index,
        }
    }
}

fn make_bridge(
    kind: BridgeKind,
    name: String,
    mac: MacAddr,
    ports: usize,
    priority: Option<u16>,
) -> Box<dyn Device> {
    match kind {
        BridgeKind::ArpPath(cfg) => {
            Box::new(IdealSwitch::new(ArpPathBridge::new(name, mac, ports, cfg)))
        }
        BridgeKind::ArpPathNetFpga(cfg) => {
            Box::new(NetFpgaSwitch::new(ArpPathBridge::new(name, mac, ports, cfg)))
        }
        BridgeKind::Stp(mut cfg) => {
            if let Some(p) = priority {
                cfg.bridge_priority = p;
            }
            Box::new(IdealSwitch::new(StpBridge::new(name, mac, ports, cfg)))
        }
        BridgeKind::StpNetFpga(mut cfg) => {
            if let Some(p) = priority {
                cfg.bridge_priority = p;
            }
            Box::new(NetFpgaSwitch::new(StpBridge::new(name, mac, ports, cfg)))
        }
        BridgeKind::Learning(cfg) => {
            Box::new(IdealSwitch::new(LearningSwitch::new(name, ports, cfg)))
        }
    }
}

/// A fully instantiated topology: the running network plus maps back to
/// the declarative description. `N` is the engine running it —
/// [`BuiltTopology`] on the single-threaded [`Network`],
/// [`ShardedTopology`] on the sharded [`ShardedNetwork`]; both builds
/// of one description number every node and link identically.
pub struct Topology<N> {
    /// The simulated network.
    pub net: N,
    /// The protocol every bridge runs.
    pub kind: BridgeKind,
    /// Node ids of bridges, in declaration order.
    pub bridge_nodes: Vec<NodeId>,
    /// Node ids of hosts, in attachment order.
    pub host_nodes: Vec<NodeId>,
    /// Bridge-to-bridge links, in declaration order.
    pub bridge_links: Vec<LinkId>,
    /// Host attachment links, in attachment order.
    pub host_links: Vec<LinkId>,
    link_index: BTreeMap<(usize, usize), LinkId>,
}

/// A topology on the single-threaded engine ([`TopoBuilder::build`]).
pub type BuiltTopology = Topology<Network>;

/// A topology on the sharded twin engine
/// ([`TopoBuilder::build_sharded`]).
pub type ShardedTopology = Topology<ShardedNetwork>;

impl<N: Engine> Topology<N> {
    /// The (first) link between bridges `a` and `b`, if they are
    /// adjacent.
    pub fn link_between(&self, a: BridgeIx, b: BridgeIx) -> Option<LinkId> {
        self.link_index.get(&(a.0.min(b.0), a.0.max(b.0))).copied()
    }

    /// The ARP-Path logic of bridge `ix`.
    ///
    /// # Panics
    /// If the topology was not built with an ARP-Path kind.
    pub fn arppath(&self, ix: BridgeIx) -> &ArpPathBridge {
        let node = self.bridge_nodes[ix.0];
        match self.kind {
            BridgeKind::ArpPath(_) => self.net.device::<IdealSwitch<ArpPathBridge>>(node).logic(),
            BridgeKind::ArpPathNetFpga(..) => {
                self.net.device::<NetFpgaSwitch<ArpPathBridge>>(node).logic()
            }
            _ => panic!("topology does not run ARP-Path bridges"),
        }
    }

    /// The STP logic of bridge `ix`.
    ///
    /// # Panics
    /// If the topology was not built with an STP kind.
    pub fn stp(&self, ix: BridgeIx) -> &StpBridge {
        let node = self.bridge_nodes[ix.0];
        match self.kind {
            BridgeKind::Stp(_) => self.net.device::<IdealSwitch<StpBridge>>(node).logic(),
            BridgeKind::StpNetFpga(..) => self.net.device::<NetFpgaSwitch<StpBridge>>(node).logic(),
            _ => panic!("topology does not run STP bridges"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arppath_netsim::SimTime;

    #[test]
    fn ports_are_allocated_per_usage() {
        let mut t = TopoBuilder::new(BridgeKind::ArpPath(ArpPathConfig::default()));
        let a = t.bridge("A");
        let b = t.bridge("B");
        let c = t.bridge("C");
        t.connect(a, b);
        t.connect(b, c);
        // B uses 2 ports, A and C one each; no hosts.
        let built = t.build();
        assert_eq!(built.bridge_nodes.len(), 3);
        assert_eq!(built.bridge_links.len(), 2);
        assert!(built.link_between(a, b).is_some());
        assert!(built.link_between(a, c).is_none());
    }

    #[test]
    fn bridges_are_inspectable_by_kind() {
        let mut t = TopoBuilder::new(BridgeKind::Stp(StpConfig::default()));
        let a = t.bridge("A");
        let b = t.bridge("B");
        t.connect(a, b);
        t.stp_priority(a, 0x1000);
        let mut built = t.build();
        built.net.run_until(SimTime(100_000_000));
        assert_eq!(built.stp(a).bridge_id().priority, 0x1000);
        assert!(built.stp(a).is_root(), "low priority bridge must win election");
        assert!(!built.stp(b).is_root());
    }

    #[test]
    fn queue_policy_stamps_links_declared_so_far() {
        let mut t = TopoBuilder::new(BridgeKind::ArpPath(ArpPathConfig::default()));
        let a = t.bridge("A");
        let b = t.bridge("B");
        t.connect(a, b);
        t.set_queue_policy(QueuePolicy::drop_tail(4096));
        let c = t.bridge("C");
        t.connect(b, c); // declared after the stamp: keeps its default
        let built = t.build();
        let ab = built.link_between(a, b).unwrap();
        let bc = built.link_between(b, c).unwrap();
        assert_eq!(built.net.link(ab).params.queue, QueuePolicy::drop_tail(4096));
        assert_eq!(built.net.link(bc).params.queue, QueuePolicy::Infinite);
    }

    #[test]
    #[should_panic(expected = "does not run ARP-Path")]
    fn kind_mismatch_panics() {
        let mut t = TopoBuilder::new(BridgeKind::Stp(StpConfig::default()));
        let a = t.bridge("A");
        let b = t.bridge("B");
        t.connect(a, b);
        let built = t.build();
        let _ = built.arppath(a);
    }
}
