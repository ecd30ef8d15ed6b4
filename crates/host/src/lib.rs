//! Simulated end hosts for the ARP-Path reproduction.
//!
//! Hosts are standard, unmodified network citizens — they speak ARP and
//! IPv4/UDP/ICMP and have never heard of ARP-Path, which is exactly the
//! paper's transparency requirement. The crate provides:
//!
//! * [`HostStack`] — ARP cache + resolution queue, ICMP echo responder,
//!   UDP/ICMP send paths;
//! * [`PingHost`] — the RTT prober behind experiment E1's latency
//!   tables;
//! * [`StreamServer`] / [`StreamClient`] — the video-streaming workload
//!   behind experiment E2's path-repair measurements;
//! * [`TrafficHost`] + [`workload::pairings`] — the seeded many-host
//!   UDP workload behind experiment E8's fat-tree load-balance study;
//! * [`FlowHost`] — the closed-loop go-back-N flow sender/receiver with
//!   flow-completion-time reporting behind experiment E9's congestion
//!   study;
//! * [`ChurnHost`] + [`ChurnWorkload`] — the seeded station-churn
//!   workload (Poisson arrivals/departures, MAC mobility between
//!   racks) behind experiment E11's table-pressure study.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod flow;
pub mod ping;
pub mod stack;
pub mod stream;
pub mod workload;

pub use churn::{ChurnConfig, ChurnHost, ChurnSpec, ChurnWorkload, StationPlan};
pub use flow::{Aimd, CongestionControl, FixedWindow, FlowConfig, FlowHost, RetxTimer};
pub use ping::{PingConfig, PingHost};
pub use stack::{HostCounters, HostStack, Upcall};
pub use stream::{StreamClient, StreamConfig, StreamServer, REPORT_PORT, STREAM_PORT};
pub use workload::{pairings, TrafficConfig, TrafficHost, TrafficPattern};
