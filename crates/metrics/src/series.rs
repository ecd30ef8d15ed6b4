//! Timestamped event series with gap analysis.
//!
//! The path-repair experiment (E2) measures how long a video stream
//! stalls when a link on its path is cut: the client records the
//! arrival time of every chunk, and the *largest inter-arrival gap*
//! around the failure instant is the stall the viewer experienced.

/// A series of `(timestamp_ns, value)` observations in arrival order.
///
/// # Example
///
/// Chunks arriving every 10 ms with one 50 ms hole — the hole is the
/// stall a viewer would see:
///
/// ```
/// use arppath_metrics::TimeSeries;
///
/// let mut s = TimeSeries::new();
/// for t in [0, 10, 20, 70, 80] {
///     s.push(t * 1_000_000, 1.0); // ms → ns
/// }
/// assert_eq!(s.max_gap(), Some((20_000_000, 50_000_000)));
/// assert_eq!(s.gaps_over(20_000_000).len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(u64, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an observation. Timestamps should be non-decreasing (the
    /// simulator guarantees this for a single observer).
    pub fn push(&mut self, timestamp_ns: u64, value: f64) {
        self.points.push((timestamp_ns, value));
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the series holds no observations.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The raw points.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Largest gap between consecutive timestamps, with the time the
    /// gap started. `None` with fewer than two points.
    pub fn max_gap(&self) -> Option<(u64, u64)> {
        self.points
            .windows(2)
            .map(|w| (w[0].0, w[1].0.saturating_sub(w[0].0)))
            .max_by_key(|&(_, gap)| gap)
    }

    /// All gaps strictly longer than `threshold_ns`, as
    /// `(gap_start_ns, gap_len_ns)` — each one a visible stall.
    pub fn gaps_over(&self, threshold_ns: u64) -> Vec<(u64, u64)> {
        self.points
            .windows(2)
            .map(|w| (w[0].0, w[1].0.saturating_sub(w[0].0)))
            .filter(|&(_, gap)| gap > threshold_ns)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(ts: &[u64]) -> TimeSeries {
        let mut s = TimeSeries::new();
        for &t in ts {
            s.push(t, 1.0);
        }
        s
    }

    #[test]
    fn empty_and_single_have_no_gap() {
        assert_eq!(series(&[]).max_gap(), None);
        assert_eq!(series(&[5]).max_gap(), None);
    }

    #[test]
    fn max_gap_finds_the_stall() {
        // Regular 10ns arrivals with one 100ns hole starting at t=30.
        let s = series(&[0, 10, 20, 30, 130, 140, 150]);
        assert_eq!(s.max_gap(), Some((30, 100)));
    }

    #[test]
    fn gaps_over_threshold_lists_every_stall() {
        let s = series(&[0, 10, 110, 120, 220, 230]);
        let stalls = s.gaps_over(50);
        assert_eq!(stalls, vec![(10, 100), (120, 100)]);
    }
}
