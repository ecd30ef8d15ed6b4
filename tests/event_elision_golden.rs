//! Golden regression pins for the one-event-per-hop engine.
//!
//! The constants below were captured from the engine as it stood
//! *before* idle `TxDone` completions were elided and `Deliver` was
//! scheduled at transmit start (every frame then cost two scheduler
//! events). The elided engine must reproduce them exactly — on the
//! single-threaded engine and on a 2-shard split — for one scenario
//! per event family: E8 (pure flood/unicast forwarding), E9 PFC incast
//! under AIMD with the pause watchdog armed (finite queues, pause and
//! resume frames, retransmit timers), the same incast wedged under
//! fixed windows (watchdog fires), and E11 on undersized tables
//! (link-admin churn cutting links mid-flight).
//!
//! `NetworkStats::events` is the one counter left out: it falls by
//! design. Everything a device, a link counter or the delivery trace
//! can observe is pinned.
//!
//! One pin is younger: E8 with 16 hosts per edge, captured before the
//! engine fanned floods out itself (see its comment). It pins the
//! event count too, which the fan must not move.

use arppath_bench::experiments::e11_churn::{self, E11Params, TableRegime};
use arppath_bench::experiments::e8_fattree::{self, E8Params};
use arppath_bench::experiments::e9_congestion::{self, CcMode, E9Params, QueueMode};
use arppath_bench::experiments::TracedRun;
use arppath_host::TrafficPattern;
use arppath_netsim::SimDuration;

/// Everything pinned about one run, flattened so a mismatch prints as
/// one comparable line.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    /// FNV-1a 64 over the delivery-trace lines, each followed by `\n`.
    trace_digest: u64,
    trace_lines: usize,
    /// `NetworkStats` minus `events`: sent, delivered, drops_queue_full,
    /// drops_link_down, drops_no_cable, watchdog_fires, drops_watchdog.
    net: [u64; 7],
    /// `DirStats` summed over every link direction: tx_frames, tx_bytes,
    /// dropped_queue_full, dropped_link_down, busy ns, pause_events,
    /// paused_for ns, peak_queue_bytes, watchdog_fires, dropped_watchdog.
    links: [u64; 10],
}

fn pin(run: &TracedRun) -> Pin {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for byte in run.trace.iter().flat_map(|line| line.bytes().chain(std::iter::once(b'\n'))) {
        digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let (s, l) = (run.stats, run.links);
    Pin {
        trace_digest: digest,
        trace_lines: run.trace.len(),
        net: [
            s.frames_sent,
            s.frames_delivered,
            s.drops_queue_full,
            s.drops_link_down,
            s.drops_no_cable,
            s.watchdog_fires,
            s.drops_watchdog,
        ],
        links: [
            l.tx_frames,
            l.tx_bytes,
            l.dropped_queue_full,
            l.dropped_link_down,
            l.busy.as_nanos(),
            l.pause_events,
            l.paused_for.as_nanos(),
            l.peak_queue_bytes,
            l.watchdog_fires,
            l.dropped_watchdog,
        ],
    }
}

fn assert_pinned(name: &str, golden: &Pin, run: impl Fn(usize) -> TracedRun) {
    for shards in [1usize, 2] {
        assert_eq!(&pin(&run(shards)), golden, "{name} diverged from its pin at {shards} shard(s)");
    }
}

#[test]
fn e8_k4_quick_matches_the_two_event_engine() {
    let golden = Pin {
        trace_digest: 10488017135638906959,
        trace_lines: 1498,
        net: [1498, 1498, 0, 0, 0, 0, 0],
        links: [1498, 417240, 0, 0, 3625536, 0, 0, 0, 0, 0],
    };
    assert_pinned("E8 k=4 quick", &golden, |shards| {
        let params = E8Params {
            k: 4,
            hosts_per_edge: 2,
            datagrams: 5,
            hot_receivers: 2,
            shards,
            ..Default::default()
        };
        e8_fattree::traced_run(&params, TrafficPattern::Permutation)
    });
}

#[test]
fn e8_k4_sixteen_hosts_per_edge_matches_the_per_copy_engine() {
    // Every other pin hangs 2 hosts off each edge bridge, so an edge
    // bridge's flood reaches at most two single-port stations. This
    // one hangs 16, so it fans out to 15 or 16 stations in one
    // instant. Captured from the engine as it stood before floods were
    // fanned out in the engine, when every copy was its own `Send` and
    // its own `Deliver` event: run this test there with a placeholder
    // `Pin` and copy the `left` side of the failure message (the event
    // count was printed from `run.stats.events` the same way).
    let golden = Pin {
        trace_digest: 15908368135742582439,
        trace_lines: 24209,
        net: [24209, 24209, 0, 0, 0, 0, 0],
        links: [24209, 2385516, 0, 0, 23732256, 0, 0, 742, 0, 0],
    };
    assert_pinned("E8 k=4, 16 hosts per edge", &golden, |shards| {
        let params = E8Params {
            k: 4,
            hosts_per_edge: 16,
            datagrams: 2,
            hot_receivers: 2,
            shards,
            ..Default::default()
        };
        let run = e8_fattree::traced_run(&params, TrafficPattern::Permutation);
        // Captured with the rest: a fanned flood still counts one
        // scheduler event per delivery, on both engines.
        assert_eq!(run.stats.events, 24_467, "scheduler events at {shards} shard(s)");
        run
    });
}

#[test]
fn e9_k4_pfc_incast_matches_the_two_event_engine() {
    let golden = Pin {
        trace_digest: 5358113875692608997,
        trace_lines: 4984,
        net: [4984, 4984, 0, 0, 0, 0, 0],
        links: [4984, 1297488, 0, 0, 11336832, 15, 1602912, 91292, 0, 0],
    };
    assert_pinned("E9 k=4 PFC incast", &golden, |shards| {
        let params =
            E9Params { k: 4, hosts_per_edge: 2, segments: 16, shards, ..Default::default() };
        assert!(params.watchdog.deadline().is_some(), "the pin runs with the watchdog armed");
        let pattern = TrafficPattern::Hotspot { hot_receivers: params.hot_receivers };
        e9_congestion::traced_run(&params, QueueMode::Pfc, CcMode::Aimd, pattern)
    });
}

#[test]
fn e9_k4_wedged_incast_matches_the_two_event_engine() {
    // The same fabric at full segment count under fixed windows
    // wedges, so this pin covers what the AIMD one cannot: watchdog
    // fires restarting transmitters whose completion was elided.
    let golden = Pin {
        trace_digest: 10392034567010777266,
        trace_lines: 32370,
        net: [32368, 32370, 0, 0, 0, 2, 0],
        links: [32368, 5804928, 0, 0, 52654080, 260, 66312976, 488034, 2, 0],
    };
    assert!(golden.net[5] > 0, "the pin must hold watchdog fires");
    assert_pinned("E9 k=4 wedged incast", &golden, |shards| {
        let params = E9Params { shards, ..Default::default() };
        let pattern = TrafficPattern::Hotspot { hot_receivers: params.hot_receivers };
        e9_congestion::traced_run(&params, QueueMode::Pfc, CcMode::Fixed, pattern)
    });
}

#[test]
fn e11_k4_undersized_churn_matches_the_two_event_engine() {
    let golden = Pin {
        trace_digest: 8608822085658284805,
        trace_lines: 28992,
        net: [29020, 28992, 0, 28, 0, 0, 0],
        links: [28992, 2060316, 0, 28, 22067808, 0, 0, 7774, 0, 0],
    };
    assert_pinned("E11 k=4 undersized", &golden, |shards| {
        let params = E11Params { horizon: SimDuration::millis(50), shards, ..E11Params::for_k(4) };
        e11_churn::traced_run(&params, TableRegime::Undersized)
    });
}
