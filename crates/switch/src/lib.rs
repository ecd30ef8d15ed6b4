//! Shared switching substrate for the ARP-Path reproduction.
//!
//! Four pieces every bridge in the repository builds on:
//!
//! * [`AgingMap`] — deterministic expiring tables (host ARP caches,
//!   small control tables) and the property-tested *reference oracle*
//!   for the hardware-shaped table below;
//! * [`DLeftTable`] — the hardware-faithful d-left hash table (fixed
//!   geometry, multiply-shift hashing, [`wheel`] background aging)
//!   backing the learning FIB and the ARP-Path lock table, mirroring
//!   the NetFPGA implementation the paper measures;
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
pub use logic::{DropReason, LogicEnv, ProcessingClass, SwitchCounters, SwitchLogic};
