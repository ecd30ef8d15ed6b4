//! Facade over the ARP-Path NetFPGA reproduction workspace.
//!
//! This crate re-exports the workspace's ten member crates under one
//! roof so a single dependency pulls in the whole reproduction of
//! *"Implementing ARP-Path Low Latency Bridges in NetFPGA"* (SIGCOMM
//! 2011 demo). Start with [`core_protocol`] (the bridge FSM), [`topo`]
//! (the paper's figure topologies), and [`mod@bench`] (the E1–E7
//! experiment harness). See the repository `README.md` for the crate
//! dependency map and the experiment ↔ figure correspondence.
//!
//! ## Quick taste
//!
//! Build the paper's Figure-2 network, ping across it, and check the
//! race-discovered path:
//!
//! ```
//! use arppath_repro::core_protocol::ArpPathConfig;
//! use arppath_repro::host::{PingConfig, PingHost};
//! use arppath_repro::netsim::{SimDuration, SimTime};
//! use arppath_repro::topo::{BridgeKind, Fig2, TopoBuilder};
//! use arppath_repro::wire::MacAddr;
//! use std::net::Ipv4Addr;
//!
//! let mut t = TopoBuilder::new(BridgeKind::ArpPath(ArpPathConfig::default()));
//! let fig = Fig2::build(&mut t);
//! let ip_a = Ipv4Addr::new(10, 0, 0, 1);
//! let ip_b = Ipv4Addr::new(10, 0, 0, 2);
//! let prober = PingHost::new(
//!     "hostA",
//!     MacAddr::from_index(1, 1),
//!     ip_a,
//!     1,
//!     PingConfig {
//!         target: ip_b,
//!         start_at: SimDuration::millis(10),
//!         interval: SimDuration::millis(10),
//!         count: 3,
//!         ..Default::default()
//!     },
//! );
//! let a_ix = t.host(fig.nic_a, Box::new(prober));
//! let responder = PingHost::new("hostB", MacAddr::from_index(1, 2), ip_b, 2, PingConfig::default());
//! t.host(fig.nic_b, Box::new(responder));
//!
//! let mut built = t.build();
//! built.net.run_until(SimTime(SimDuration::millis(100).as_nanos()));
//!
//! let prober = built.net.device::<PingHost>(built.host_nodes[a_ix]);
//! assert_eq!(prober.received, 3, "all pings complete");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The ARP-Path bridge protocol itself (the `arppath` crate): bridge
/// FSM, config, table entries, and protocol counters.
pub use arppath as core_protocol;

/// Experiment harness regenerating the paper's tables (E1–E7).
pub use arppath_bench as bench;

/// Simulated end hosts (ARP/IPv4/UDP/ICMP, ping, streaming).
pub use arppath_host as host;

/// Latency/fairness/time-series measurement utilities.
pub use arppath_metrics as metrics;

/// NetFPGA-1G reference pipeline timing model.
pub use arppath_netfpga as netfpga;

/// Deterministic discrete-event network simulator.
pub use arppath_netsim as netsim;

/// IEEE 802.1D spanning-tree baseline bridge.
pub use arppath_stp as stp;

/// Switching substrate: `SwitchLogic`, ideal switch, learning bridge.
pub use arppath_switch as switch;

/// Topology builders for the paper's figures and generic fabrics.
pub use arppath_topo as topo;

/// Wire formats: Ethernet, ARP, IPv4, UDP, ICMP, LLC, pcap.
pub use arppath_wire as wire;
