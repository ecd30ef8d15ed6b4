//! # ARP-Path (FastPath) low-latency transparent bridging
//!
//! A faithful reimplementation of the bridge protocol demonstrated in
//! *"Implementing ARP-Path Low Latency Bridges in NetFPGA"* (Rojas,
//! Naous, Ibáñez, Rivera, Carral, Arco — SIGCOMM 2011 demo).
//!
//! ARP-Path bridges discover minimum-latency paths by racing the copies
//! of each flooded ARP Request: the first copy to reach a bridge locks
//! the source to its arrival port and rival copies are discarded, so
//! the flood traces the fastest reverse path hop by hop; the unicast
//! ARP Reply then confirms the chain into a bidirectional path. No
//! spanning tree, no link-state protocol, no host modification.
//!
//! The crate provides:
//!
//! * [`ArpPathBridge`] — the full bridge FSM as an
//!   [`arppath_switch::SwitchLogic`]: broadcast discovery, unicast
//!   confirmation, loop-free flooding, PathFail/PathRequest/PathReply
//!   repair (paper §2.1.4), link-down flushing, and the optional
//!   in-switch ARP proxy (§2.2, ref \[5\]);
//! * [`ArpPathConfig`] — the protocol's tunables (lock/learn timers,
//!   repair, proxy, hardware table bound);
//! * [`PathEntry`]/[`EntryState`] — the two-state table entries;
//! * [`ArpPathCounters`] — per-bridge protocol counters consumed by the
//!   experiment harness.
//!
//! ## Quick taste
//!
//! ```
//! use arppath::{ArpPathBridge, ArpPathConfig, EntryState};
//! use arppath_switch::SwitchLogic;
//! use arppath_netsim::{Ctx, NodeId, PortNo, SimTime};
//! use arppath_wire::{ArpPacket, EthernetFrame, MacAddr};
//! use std::net::Ipv4Addr;
//!
//! let mut bridge = ArpPathBridge::new(
//!     "nf1",
//!     MacAddr::from_index(2, 1),
//!     4,
//!     ArpPathConfig::default(),
//! );
//!
//! // Host S floods an ARP Request; the first copy arrives on port 1.
//! let s = MacAddr::from_index(1, 1);
//! let req = ArpPacket::request(s, Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
//! let frame = EthernetFrame::arp_request(s, req);
//! // The bridge decides through a `Ctx`, writing into the command buffer
//! // it lends — under `IdealSwitch`, the engine's own.
//! let ports_up = [true; 4];
//! let mut commands = Vec::new();
//! let mut ctx = Ctx::new(SimTime::ZERO, NodeId(0), &ports_up, &mut commands);
//! bridge.on_frame(PortNo(1), frame, &mut ctx);
//!
//! // S is now locked to port 1; the request was flooded on 0, 2, 3.
//! let entry = bridge.entry_of(s, SimTime(1)).unwrap();
//! assert_eq!(entry.state, EntryState::Locked);
//! let flooded: Vec<usize> =
//!     commands.iter().filter_map(|c| c.as_send()).map(|(port, _)| port.0).collect();
//! assert_eq!(flooded, [0, 2, 3]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bridge;
pub mod config;
pub mod counters;
pub mod entry;

pub use bridge::ArpPathBridge;
pub use config::ArpPathConfig;
pub use counters::ArpPathCounters;
pub use entry::{EntryState, PathEntry};
