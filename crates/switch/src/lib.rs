//! Shared switching substrate for the ARP-Path reproduction.
//!
//! Four pieces every bridge in the repository builds on:
//!
//! * [`AgingMap`] — the small-table type: deterministic expiring maps
//!   for the STP baseline's FIB, host ARP caches and the ARP-Path
//!   bridge's `recent_repairs`/`seen_waves`/`proxy_cache`, and the
//!   oracle `tests/dleft_oracle.rs` checks the table below against;
//! * [`DLeftTable`] — the per-station, hardware-shaped d-left hash
//!   table (fixed geometry, multiply-shift hashing, [`wheel`]
//!   background aging) backing the ARP-Path path table and the
//!   [`LearningSwitch`] FIB, mirroring the NetFPGA implementation the
//!   paper measures;
//! * [`SwitchLogic`] — the decision-plane trait that separates a
//!   bridge's forwarding algorithm from its timing model, so the same
//!   ARP-Path FSM runs unmodified under the ideal (zero-latency) device
//!   adapter here and the NetFPGA pipeline model in `arppath-netfpga`;
//! * [`LearningSwitch`] — the classic transparent bridge data plane,
//!   both the substrate STP gates and the storm-prone foil to ARP-Path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aging;
pub mod dleft;
pub mod ideal;
pub mod learning;
pub mod logic;
pub mod wheel;

pub use aging::{Aged, AgingMap};
pub use dleft::{bucket_bits_for, DLeftKey, DLeftTable, Slot, TableStats, VICTIM_AGE_BUCKETS};
pub use ideal::IdealSwitch;
pub use learning::{LearningConfig, LearningSwitch};
pub use logic::{DropReason, ProcessingClass, SwitchCounters, SwitchLogic};
