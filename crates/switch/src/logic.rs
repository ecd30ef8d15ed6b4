//! The [`SwitchLogic`] abstraction: a bridge's *decision plane*,
//! separated from its *timing model*.
//!
//! The same ARP-Path logic runs under two timing wrappers in this
//! repository: [`crate::IdealSwitch`] (zero processing latency — what a
//! software simulation measures) and the NetFPGA pipeline model (store +
//! arbiter + lookup latency, hardware table with software slow path —
//! what the paper's cards measured). Keeping the FSM identical under
//! both is exactly the "same algorithm, different substrate" comparison
//! the paper's multi-platform implementations made.
//!
//! A logic decides through the engine's own [`Ctx`]: clock, carrier
//! state, `send`/`flood`/`schedule`. There is one representation of
//! "send this, arm that" from the FSM to the engine. The ideal wrapper
//! hands the engine's `Ctx` straight through, so a decision costs no
//! copy and no allocation; a wrapper that adds latency lends a `Ctx`
//! over a buffer of its own and holds the sends back.

use arppath_netsim::{Ctx, PortNo, SimTime, TimerToken, Verdict};
use arppath_wire::EthernetFrame;

/// How the frame's forwarding decision was reached, which the timing
/// wrapper translates into latency: a hardware table hit costs pipeline
/// cycles, a software exception costs a PCI/DMA round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProcessingClass {
    /// Decision made entirely in the forwarding pipeline.
    #[default]
    Hardware,
    /// Frame needed the control CPU (table overflow, control message,
    /// repair logic).
    Software,
}

/// Why a frame was not forwarded — one counter per cause, mirroring
/// hardware drop-reason registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Broadcast copy lost the race: arrived on a port other than the
    /// one locked to its source (ARP-Path §2.1.1 discard rule).
    LostRace,
    /// Unicast destination unknown and the logic chose not to flood
    /// (ARP-Path drops and triggers repair instead).
    NoPath,
    /// STP: port not in forwarding state.
    PortBlocked,
    /// Frame failed validation (bad source, parse-level).
    Malformed,
    /// The frame was addressed to this bridge itself (control traffic,
    /// consumed rather than forwarded).
    ConsumedControl,
    /// Table full and no victim could be chosen.
    TableFull,
    /// A repair was already pending for this destination.
    RepairPending,
}

/// Number of [`DropReason`]s.
const DROP_REASONS: usize = DropReason::RepairPending as usize + 1;

/// Decision-plane counters, kept by the logic itself.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SwitchCounters {
    /// Frames forwarded out a single port.
    pub forwarded: u64,
    /// Frames flooded.
    pub flooded: u64,
    /// Frames consumed by the control plane (BPDUs, path control).
    pub consumed: u64,
    /// Drops, tallied by reason (indexed by `DropReason as usize`).
    drops: [u64; DROP_REASONS],
}

impl SwitchCounters {
    /// Increment the drop counter for `reason`.
    pub fn drop_frame(&mut self, reason: DropReason) {
        self.drops[reason as usize] += 1;
    }

    /// The count for `reason`.
    pub fn dropped(&self, reason: DropReason) -> u64 {
        self.drops[reason as usize]
    }

    /// Total drops across reasons.
    pub fn total_dropped(&self) -> u64 {
        self.drops.iter().sum()
    }
}

/// A bridge decision plane. See the module docs for the role split
/// between logic and timing wrapper.
pub trait SwitchLogic: 'static {
    /// Name for traces.
    fn name(&self) -> &str;

    /// Number of ports (fixed at construction).
    fn num_ports(&self) -> usize;

    /// Called once at simulation start.
    fn on_start(&mut self, _ctx: &mut Ctx) {}

    /// Process one received frame; returns which path (hardware or
    /// software) made the decision, for the timing wrapper.
    fn on_frame(&mut self, port: PortNo, frame: EthernetFrame, ctx: &mut Ctx) -> ProcessingClass;

    /// The lookup stage: decide a received frame without
    /// [`SwitchLogic::on_frame`] where that is all it would do — the
    /// contract of [`arppath_netsim::Device::lookup_stage`], which a
    /// wrapper with no timing of its own forwards here. `Dropped` only
    /// if `on_frame` would send, schedule and flood nothing; `Forward`
    /// only if it would send exactly the unchanged frame out of that
    /// port; either way with its counters already bumped and its table
    /// refreshes done. The default leaves every frame to `on_frame`.
    fn lookup_stage(&mut self, _port: PortNo, _frame: &EthernetFrame, _now: SimTime) -> Verdict {
        Verdict::Callback
    }

    /// A requested timer fired.
    fn on_timer(&mut self, _token: TimerToken, _ctx: &mut Ctx) {}

    /// Carrier change on `port`.
    fn on_link_status(&mut self, _port: PortNo, _up: bool, _ctx: &mut Ctx) {}

    /// Decision-plane counters.
    fn counters(&self) -> &SwitchCounters;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_tally_by_reason() {
        let mut c = SwitchCounters::default();
        c.drop_frame(DropReason::LostRace);
        c.drop_frame(DropReason::LostRace);
        c.drop_frame(DropReason::NoPath);
        assert_eq!(c.dropped(DropReason::LostRace), 2);
        assert_eq!(c.dropped(DropReason::NoPath), 1);
        assert_eq!(c.dropped(DropReason::PortBlocked), 0);
        assert_eq!(c.total_dropped(), 3);
    }
}
