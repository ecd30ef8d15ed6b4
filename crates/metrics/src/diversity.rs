//! Path-diversity counters for the load-balance study (E8).
//!
//! ARP-Path's claim at datacenter scale (the All-Path direction,
//! arXiv:1703.08744) is that independent ARP races scatter host pairs
//! across the parallel core switches of a multipath fabric. This module
//! counts exactly that: which distinct items (core switches) each key
//! (host pair) was observed using, how many distinct items are in use
//! overall, and how evenly the keys spread over them.

use std::collections::{BTreeMap, BTreeSet};

/// Observations of `key → item` pairs (e.g. host pair → core switch on
/// its path), with distinctness and spread queries.
///
/// # Example
///
/// ```
/// use arppath_metrics::{jain_index, DiversityCounter};
///
/// let mut d = DiversityCounter::new();
/// d.record(1, 10); // pair 1 crossed core 10
/// d.record(2, 11); // pair 2 crossed core 11
/// d.record(3, 10); // pair 3 also core 10
/// d.record(3, 10); // re-observing changes nothing
///
/// assert_eq!(d.keys(), 3);
/// assert_eq!(d.distinct_items(), 2);
/// // Two pairs on core 10, one on core 11 → imperfect but non-degenerate
/// // spread under Jain's index.
/// let spread = jain_index(&d.keys_per_item());
/// assert!(spread > 0.8 && spread < 1.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DiversityCounter {
    per_key: BTreeMap<u64, BTreeSet<u64>>,
}

impl DiversityCounter {
    /// An empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `key` was observed using `item`. Duplicate
    /// observations are idempotent.
    pub fn record(&mut self, key: u64, item: u64) {
        self.per_key.entry(key).or_default().insert(item);
    }

    /// Number of keys with at least one observation.
    pub fn keys(&self) -> usize {
        self.per_key.len()
    }

    /// Number of distinct items observed across all keys.
    pub fn distinct_items(&self) -> usize {
        self.per_key.values().flatten().collect::<BTreeSet<_>>().len()
    }

    /// How many keys use each distinct item, in item order — feed to
    /// [`crate::jain_index`] for a spread measure (1.0 = keys divide
    /// evenly over the items in use).
    pub fn keys_per_item(&self) -> Vec<f64> {
        let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
        for items in self.per_key.values() {
            for &it in items {
                *counts.entry(it).or_default() += 1;
            }
        }
        counts.into_values().map(|c| c as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jain_index;

    #[test]
    fn empty_counter_is_zeroes() {
        let d = DiversityCounter::new();
        assert_eq!(d.keys(), 0);
        assert_eq!(d.distinct_items(), 0);
        assert!(d.keys_per_item().is_empty());
    }

    #[test]
    fn records_are_idempotent_per_key() {
        let mut d = DiversityCounter::new();
        d.record(1, 5);
        d.record(1, 5);
        d.record(1, 6);
        assert_eq!(d.keys(), 1);
        assert_eq!(d.distinct_items(), 2);
    }

    #[test]
    fn keys_per_item_counts_users_not_observations() {
        let mut d = DiversityCounter::new();
        d.record(1, 10);
        d.record(2, 10);
        d.record(2, 10);
        d.record(3, 11);
        assert_eq!(d.keys_per_item(), vec![2.0, 1.0]);
    }

    #[test]
    fn even_spread_scores_one_under_jain() {
        let mut d = DiversityCounter::new();
        for pair in 0..8u64 {
            d.record(pair, pair % 4); // 2 pairs on each of 4 cores
        }
        assert!((jain_index(&d.keys_per_item()) - 1.0).abs() < 1e-12);
        assert_eq!(d.distinct_items(), 4);
    }

    #[test]
    fn funnelled_spread_scores_one_over_n() {
        let mut d = DiversityCounter::new();
        for pair in 0..6u64 {
            d.record(pair, 0); // every pair through one core: the STP shape
        }
        assert_eq!(d.distinct_items(), 1);
        assert!((jain_index(&d.keys_per_item()) - 1.0).abs() < 1e-12, "one item is trivially fair");
        assert_eq!(d.keys_per_item(), vec![6.0]);
    }
}
