//! Latency sample collection with exact order statistics.

use std::fmt;

/// A bag of latency samples in nanoseconds with exact percentile
/// queries. Samples are kept raw (experiment scale is small); order
/// statistics sort a scratch copy per query, so every read works
/// through a shared reference — report loops can interleave
/// percentile queries with other borrows of the containing summary.
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    samples: Vec<u64>,
}

impl LatencyStats {
    /// An empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample (nanoseconds).
    pub fn record(&mut self, nanos: u64) {
        self.samples.push(nanos);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        self.samples.iter().copied().min().unwrap_or(0)
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.samples.iter().copied().max().unwrap_or(0)
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|&s| s as f64).sum::<f64>() / self.samples.len() as f64
    }

    /// Exact percentile by the nearest-rank method. `p` in [0, 100].
    /// Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let p = p.clamp(0.0, 100.0);
        // Nearest-rank: ceil(p/100 * N), 1-based; p=0 maps to rank 1.
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.max(1) - 1]
    }

    /// Median (50th percentile).
    pub fn median(&self) -> u64 {
        self.percentile(50.0)
    }

    /// Iterate over the raw samples in insertion order.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// Merge another collection into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// One-line human summary in microseconds.
    pub fn summary_micros(&self) -> String {
        if self.is_empty() {
            return "no samples".to_string();
        }
        format!(
            "n={} min={:.2}us p50={:.2}us p99={:.2}us max={:.2}us mean={:.2}us",
            self.count(),
            self.min() as f64 / 1e3,
            self.median() as f64 / 1e3,
            self.percentile(99.0) as f64 / 1e3,
            self.max() as f64 / 1e3,
            self.mean() / 1e3,
        )
    }
}

impl fmt::Display for LatencyStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} min={} max={} mean={:.1}",
            self.count(),
            self.min(),
            self.max(),
            self.mean()
        )
    }
}

impl FromIterator<u64> for LatencyStats {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        LatencyStats { samples: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_stats_are_zeroes() {
        let s = LatencyStats::new();
        assert!(s.is_empty());
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(99.0), 0);
        assert_eq!(s.summary_micros(), "no samples");
    }

    #[test]
    fn basic_moments() {
        let s: LatencyStats = [1u64, 2, 3, 4].into_iter().collect();
        assert_eq!(s.count(), 4);
        assert_eq!(s.min(), 1);
        assert_eq!(s.max(), 4);
        assert_eq!(s.mean(), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: LatencyStats = (1u64..=100).collect();
        assert_eq!(s.percentile(0.0), 1);
        assert_eq!(s.percentile(1.0), 1);
        assert_eq!(s.percentile(50.0), 50);
        assert_eq!(s.percentile(99.0), 99);
        assert_eq!(s.percentile(100.0), 100);
        assert_eq!(s.median(), 50);
    }

    #[test]
    fn percentile_after_new_insert_reflects_data() {
        let mut s: LatencyStats = [10u64, 20].into_iter().collect();
        assert_eq!(s.median(), 10);
        s.record(5);
        assert_eq!(s.median(), 10);
        s.record(1);
        s.record(2);
        assert_eq!(s.median(), 5); // sorted: 1 2 5 10 20, rank ceil(2.5)=3
    }

    #[test]
    fn merge_combines_samples() {
        let mut a: LatencyStats = [1u64, 2].into_iter().collect();
        let b: LatencyStats = [3u64, 4].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.max(), 4);
    }

    proptest! {
        #[test]
        fn percentile_is_monotone(mut samples in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let s: LatencyStats = samples.drain(..).collect();
            let p50 = s.percentile(50.0);
            let p90 = s.percentile(90.0);
            let p99 = s.percentile(99.0);
            prop_assert!(p50 <= p90);
            prop_assert!(p90 <= p99);
            prop_assert!(s.min() <= p50);
            prop_assert!(p99 <= s.max());
        }

        #[test]
        fn mean_is_between_min_and_max(samples in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let s: LatencyStats = samples.into_iter().collect();
            prop_assert!(s.mean() >= s.min() as f64 - 1e-9);
            prop_assert!(s.mean() <= s.max() as f64 + 1e-9);
        }
    }
}
