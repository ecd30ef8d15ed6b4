//! The pause watchdog, held from both sides.
//!
//! No false positives: on a lossless PFC run that does **not**
//! deadlock, the watchdog never fires. The deadline is a backstop for
//! cyclic buffer dependencies, not a scheduler — a pause that a
//! draining queue will release on its own must always win the race
//! against the deadline. The seed sweep keeps the deadline in
//! `e9_congestion` from being tightened into the false-positive region
//! without a test going red.
//!
//! Load-bearing: the k=8 PFC hotspot incast — the scenario that wedged
//! the fabric before the watchdog existed — finishes every flow with
//! zero drops under both controllers with the watchdog armed, and
//! still wedges the fixed-window cell with it off. That fires are
//! shard-invariant lives in `tests/sharded_equivalence.rs`.

use arppath_bench::experiments::e9_congestion::{self, CcMode, E9Params, E9Result, QueueMode};
use arppath_host::TrafficPattern;
use arppath_netsim::{PauseWatchdog, SimDuration};
use proptest::prelude::*;

/// One permutation PFC cell: admissible load, no incast, no deadlock.
fn permutation_cell(k: usize, seed: u64, cc: CcMode) -> e9_congestion::E9Row {
    let params = E9Params { k, hosts_per_edge: 2, segments: 8, seed, ..Default::default() };
    e9_congestion::run_cell(&params, QueueMode::Pfc, cc, TrafficPattern::Permutation)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Any seed, either fabric size, both controllers: a permutation
    /// workload under PFC stays lossless, completes, and never trips
    /// the watchdog — pauses here are ordinary backpressure that
    /// resumes on its own well inside the deadline.
    #[test]
    fn watchdog_never_fires_on_a_non_deadlocked_run(
        seed in 0u64..1_000_000,
        k_ix in 0usize..2,
        cc_ix in 0usize..2,
    ) {
        let k = [4usize, 6][k_ix];
        let cc = [CcMode::Fixed, CcMode::Aimd][cc_ix];
        let row = permutation_cell(k, seed, cc);
        prop_assert_eq!(
            row.watchdog_fires, 0,
            "k={} seed={} cc={:?}: watchdog fired on a non-deadlocked run", k, seed, cc
        );
        prop_assert_eq!(row.drops.get("queue_full"), 0, "PFC must stay lossless");
        prop_assert_eq!(row.drops.get("watchdog"), 0);
        prop_assert_eq!(
            row.fct.incomplete(), 0,
            "k={} seed={}: every flow must complete without watchdog help", k, seed
        );
    }
}

/// The deadline is not load-bearing for ordinary backpressure: even a
/// deadline an order of magnitude tighter than the default never fires
/// on the default-seed permutation runs. (A sweep, not a property —
/// the deadline axis is small and fixed.)
#[test]
fn tighter_deadlines_still_have_no_false_positives() {
    for deadline_ms in [1u64, 2, 5] {
        for k in [4usize, 6] {
            let params = E9Params {
                k,
                hosts_per_edge: 2,
                segments: 8,
                watchdog: PauseWatchdog::force_resume(SimDuration::millis(deadline_ms)),
                ..Default::default()
            };
            let row = e9_congestion::run_cell(
                &params,
                QueueMode::Pfc,
                CcMode::Fixed,
                TrafficPattern::Permutation,
            );
            assert_eq!(
                row.watchdog_fires, 0,
                "k={k}, {deadline_ms} ms deadline: fired on plain backpressure"
            );
            assert_eq!(row.fct.incomplete(), 0);
        }
    }
}

/// One cell of the k=8 PFC hotspot incast: 128 go-back-N flows
/// converging on two hot receivers under `cc`, with `watchdog` stamped
/// over the fabric's links.
fn k8_incast_cell(cc: CcMode, watchdog: PauseWatchdog) -> e9_congestion::E9Row {
    let params = E9Params { k: 8, hosts_per_edge: 4, segments: 16, watchdog, ..Default::default() };
    let hotspot = TrafficPattern::Hotspot { hot_receivers: params.hot_receivers };
    e9_congestion::run_cell(&params, QueueMode::Pfc, cc, hotspot)
}

/// With the default watchdog armed, the k=8 incast completes every flow
/// with zero drops under both controllers. Fires are expected: they
/// are the mechanism that breaks the cyclic pause dependencies.
#[test]
fn k8_incast_completes_losslessly_under_the_watchdog() {
    let rows: Vec<_> = CcMode::ALL
        .into_iter()
        .map(|cc| k8_incast_cell(cc, E9Params::default().watchdog))
        .collect();
    for row in &rows {
        assert_eq!(row.hosts, 128, "the k=8 incast carries 128 flows");
    }
    let results = [E9Result { rows }];
    assert!(
        e9_congestion::verify_pfc_lossless_completion(&results),
        "{}",
        e9_congestion::table(&results).render_markdown()
    );
}

/// The same fixed-window cell with the watchdog off still wedges: some
/// flows never finish. If the scenario stops deadlocking, the test
/// above no longer proves the watchdog does anything.
#[test]
fn k8_fixed_window_incast_wedges_without_the_watchdog() {
    let row = k8_incast_cell(CcMode::Fixed, PauseWatchdog::Off);
    assert_eq!(row.watchdog_fires, 0);
    assert!(
        row.fct.incomplete() > 0,
        "unwatched k=8 incast finished all {} flows; the deadlock is gone",
        row.hosts
    );
}
