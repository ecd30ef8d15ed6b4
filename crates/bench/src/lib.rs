//! Experiment harness for the ARP-Path reproduction.
//!
//! Every table and figure of the paper's evaluation (plus the §2.2
//! claims and design ablations) is regenerated by a function in
//! [`experiments`]; the `repro` binary runs them and prints the
//! tables with their headline verdicts, and the workspace integration
//! tests assert the headline shapes. [`micro`] holds the same-run
//! ratio guards of the fast table and scheduler structures. See `docs/EXPERIMENTS.md` for the experiment ↔ paper-anchor
//! map and per-experiment repro commands.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod difftest;
pub mod experiments;
pub mod micro;
