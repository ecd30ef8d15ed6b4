//! A deterministic discrete-event network simulator.
//!
//! This crate replaces the paper's physical substrate — four NetFPGA
//! cards, gigabit copper, and two Linux hosts — with a simulated network
//! whose delay model keeps exactly the terms the ARP-Path race is
//! decided by:
//!
//! * **serialization** — `wire_bits / bandwidth` per frame per hop,
//! * **propagation** — per-link constant,
//! * **queueing** — FIFO transmit queues per link direction, unbounded
//!   by default, with opt-in drop-tail caps or PFC pause/resume
//!   backpressure (see [`QueuePolicy`] and [`pfc`]),
//! * **store-and-forward** — a frame is handed to a device only when its
//!   last bit has arrived.
//!
//! Everything is deterministic: events are ordered by `(time,
//! insertion)` and devices are required to be deterministic functions of
//! their callback history, so every experiment in the repository
//! reproduces bit-for-bit.
//!
//! # Example
//!
//! ```
//! use arppath_netsim::{NetworkBuilder, LinkParams, SimDuration};
//! use arppath_netsim::{Device, Ctx, PortNo};
//! use arppath_wire::EthernetFrame;
//!
//! struct Sink { name: String, got: usize }
//! impl Device for Sink {
//!     fn name(&self) -> &str { &self.name }
//!     fn on_frame(&mut self, _: PortNo, _: EthernetFrame, _: &mut Ctx) {
//!         self.got += 1;
//!     }
//! }
//!
//! let mut b = NetworkBuilder::new();
//! let x = b.add(Box::new(Sink { name: "x".into(), got: 0 }));
//! let y = b.add(Box::new(Sink { name: "y".into(), got: 0 }));
//! b.link(x, 0, y, 0, LinkParams::default());
//! let mut net = b.build();
//! net.run_for(SimDuration::millis(1));
//! assert_eq!(net.device::<Sink>(x).got, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calq;
pub mod device;
pub mod difftest;
pub mod engine;
pub mod link;
pub mod pfc;
pub mod sharded;
pub mod time;
pub mod trace;

pub use calq::CalendarQueue;
pub use device::{Command, Ctx, Device, NodeId, PortNo, TimerToken};
pub use difftest::{DiffScenario, Divergence, Minimized, Outcome};
pub use engine::{Engine, Network, NetworkBuilder, NetworkStats};
pub use link::{
    Admission, Dir, DirStats, Endpoint, Link, LinkId, LinkParams, PauseWatchdog, PortQueue,
    QueuePolicy,
};
pub use pfc::PfcOp;
pub use sharded::{ShardStats, ShardedBuilder, ShardedNetwork};
pub use time::{SimDuration, SimTime};
pub use trace::{
    CollectingTracer, CountingTracer, DeliveryRecord, DeliveryTracer, PcapTracer, TeeTracer,
    TraceEvent, Tracer,
};

// Re-exported so the sharded module's doctests (and downstream crates
// already depending on this crate for simulation types) can name the
// frame type without adding a direct `arppath_wire` dependency.
pub use arppath_wire::EthernetFrame;
