//! Churn observables for the station-churn study (E11): stale-path
//! correction latency collection and a per-epoch delivery-fairness
//! series.
//!
//! The correction side is just [`LatencyStats`](crate::LatencyStats)
//! fed with per-activation first-reply latencies; what this module
//! adds is the *epoch* view — carve the run into fixed windows and ask,
//! per window, how evenly the fabric served the stations that were
//! actually reachable. A churn storm (mass departures, movers waiting
//! on stale-path correction) shows up as a fairness dip followed by
//! recovery, which is the time-resolved signature wARP-Path
//! (arXiv:1803.02593) reports for path flapping.
//!
//! Timestamps are raw nanoseconds, like the rest of this crate — no
//! simulator types leak in here.

use crate::fairness::jain_index;
use std::collections::BTreeMap;

/// One epoch of the churn fairness series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRow {
    /// Epoch index (start = `index × epoch_len`).
    pub index: u64,
    /// Epoch start, nanoseconds.
    pub start_ns: u64,
    /// Deliveries recorded in the epoch, all stations together.
    pub deliveries: u64,
    /// Stations with at least one delivery in the epoch.
    pub stations: usize,
    /// Jain fairness of per-station delivery counts over those
    /// stations — 1.0 means every reachable station got equal service.
    pub jain: f64,
}

/// Per-epoch, per-station delivery counts with Jain fairness scoring.
///
/// Feed it `(station, instant)` pairs, or per-epoch counts, in any
/// order; epochs materialize lazily, so quiet stretches cost nothing
/// and the report skips them.
#[derive(Debug, Clone)]
pub struct ChurnEpochs {
    epoch_ns: u64,
    /// epoch index → station → deliveries.
    counts: BTreeMap<u64, BTreeMap<usize, u64>>,
}

impl ChurnEpochs {
    /// A series with the given epoch length in nanoseconds.
    ///
    /// # Panics
    /// If `epoch_ns` is zero.
    pub fn new(epoch_ns: u64) -> Self {
        assert!(epoch_ns > 0, "epoch length must be positive");
        ChurnEpochs { epoch_ns, counts: BTreeMap::new() }
    }

    /// Record one delivery for `station` at `at_ns`.
    pub fn record(&mut self, station: usize, at_ns: u64) {
        self.record_n(station, at_ns / self.epoch_ns, 1);
    }

    /// Record `n` deliveries for `station` in epoch `index` — the same
    /// as `n` calls of [`ChurnEpochs::record`] at instants inside that
    /// epoch. `n = 0` records nothing: a station enters an epoch's
    /// fairness score only with a delivery in it.
    pub fn record_n(&mut self, station: usize, index: u64, n: u64) {
        if n > 0 {
            *self.counts.entry(index).or_default().entry(station).or_insert(0) += n;
        }
    }

    /// Total deliveries across all epochs.
    pub fn total(&self) -> u64 {
        self.counts.values().flat_map(|m| m.values()).sum()
    }

    /// The fairness series, one row per non-empty epoch in time order.
    pub fn rows(&self) -> Vec<EpochRow> {
        self.counts
            .iter()
            .map(|(&index, stations)| {
                let loads: Vec<f64> = stations.values().map(|&c| c as f64).collect();
                EpochRow {
                    index,
                    start_ns: index * self.epoch_ns,
                    deliveries: stations.values().sum(),
                    stations: stations.len(),
                    jain: jain_index(&loads),
                }
            })
            .collect()
    }

    /// Minimum per-epoch Jain index across non-empty epochs — the
    /// depth of the worst churn-storm fairness dip (1.0 for an empty
    /// series, so a quiet run scores perfect).
    pub fn worst_jain(&self) -> f64 {
        self.rows().iter().map(|r| r.jain).fold(1.0, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_bucket_and_score() {
        let mut e = ChurnEpochs::new(100);
        // Epoch 0: stations 0 and 1, equal service.
        e.record(0, 10);
        e.record(1, 20);
        // Epoch 2 (epoch 1 stays empty): station 0 hogs.
        e.record(0, 250);
        e.record(0, 260);
        e.record(0, 270);
        e.record(1, 299);
        let rows = e.rows();
        assert_eq!(rows.len(), 2, "empty epochs are skipped");
        assert_eq!((rows[0].index, rows[0].deliveries, rows[0].stations), (0, 2, 2));
        assert!((rows[0].jain - 1.0).abs() < 1e-12, "equal service scores 1.0");
        assert_eq!((rows[1].index, rows[1].deliveries, rows[1].stations), (2, 4, 2));
        assert!(rows[1].jain < 0.85, "skew scores below 1");
        assert_eq!(rows[1].start_ns, 200);
        assert_eq!(e.total(), 6);
        assert!((e.worst_jain() - rows[1].jain).abs() < 1e-12);
    }

    #[test]
    fn record_n_equals_n_single_records() {
        let mut singles = ChurnEpochs::new(100);
        let mut counted = ChurnEpochs::new(100);
        for (station, index, n) in [(0, 0, 3), (1, 0, 1), (0, 2, 5), (2, 2, 0), (1, 7, 2)] {
            for i in 0..n {
                singles.record(station, index * 100 + i * 7);
            }
            counted.record_n(station, index, n);
        }
        assert_eq!(counted.rows(), singles.rows());
        assert_eq!(counted.total(), 11);
        assert_eq!(counted.rows()[1].stations, 1, "a zero count does not join the epoch");
    }

    #[test]
    fn empty_series_scores_perfect() {
        let e = ChurnEpochs::new(1_000_000);
        assert_eq!(e.rows().len(), 0);
        assert_eq!(e.total(), 0);
        assert_eq!(e.worst_jain(), 1.0);
    }

    #[test]
    #[should_panic(expected = "epoch length must be positive")]
    fn zero_epoch_is_rejected() {
        let _ = ChurnEpochs::new(0);
    }
}
