//! Per-link utilization histograms for the load-balance study (E8).
//!
//! A fairness index compresses a load distribution to one number; the
//! histogram keeps its *shape*: a spanning-tree fabric shows a spike at
//! zero (blocked links) plus a long hot tail, while ARP-Path's race
//! spreads mass around the mean. Loads are bucketed by their ratio to
//! the mean load so fabrics of different sizes and traffic volumes
//! render comparably.

use crate::table::Table;

/// Bucket edges in units of `load / mean_load`. The last bucket is
/// open-ended (`≥ 2×` the mean — a hotspot link).
const RATIO_EDGES: [f64; 7] = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0];

/// A histogram of link loads relative to their mean.
///
/// # Example
///
/// ```
/// use arppath_metrics::UtilizationHistogram;
///
/// // Four links sharing traffic evenly: everything lands in the
/// // bucket around the mean (1.0×–1.5×).
/// let even = UtilizationHistogram::from_loads(&[10.0, 10.0, 10.0, 10.0]);
/// assert_eq!(even.count_in_range(1.0, 1.5), 4);
///
/// // One hot link, three idle: a zero spike and a ≥2× outlier.
/// let skewed = UtilizationHistogram::from_loads(&[40.0, 0.0, 0.0, 0.0]);
/// assert_eq!(skewed.count_in_range(0.0, 0.25), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UtilizationHistogram {
    /// `counts[i]` = links whose `load/mean` falls in
    /// `[RATIO_EDGES[i], RATIO_EDGES[i+1])`; the last bucket is
    /// `[2.0, ∞)`.
    counts: Vec<u64>,
    total: u64,
}

impl UtilizationHistogram {
    /// Bucket `loads` by their ratio to the mean load. An empty or
    /// all-zero slice produces an all-zero histogram (no meaningful
    /// mean to normalize by).
    pub fn from_loads(loads: &[f64]) -> Self {
        let mut counts = vec![0u64; RATIO_EDGES.len()];
        let mean = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
        let mut total = 0u64;
        if mean > 0.0 {
            for &l in loads {
                let ratio = l / mean;
                let bucket = RATIO_EDGES
                    .iter()
                    .rposition(|&e| ratio >= e)
                    .expect("edge 0.0 catches every non-negative ratio");
                counts[bucket] += 1;
                total += 1;
            }
        }
        UtilizationHistogram { counts, total }
    }

    /// Links bucketed so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// True when nothing was bucketed (empty or all-zero input).
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Links whose load/mean ratio falls in `[lo, hi)`; `lo` and `hi`
    /// must be consecutive-or-wider bucket edges.
    pub fn count_in_range(&self, lo: f64, hi: f64) -> u64 {
        self.buckets()
            .filter(|&(blo, bhi, _)| blo >= lo && bhi.is_some_and(|b| b <= hi))
            .map(|(_, _, c)| c)
            .sum()
    }

    /// Iterate buckets as `(lo_edge, hi_edge, count)`; `hi_edge` is
    /// `None` for the open-ended last bucket.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, Option<f64>, u64)> + '_ {
        self.counts.iter().enumerate().map(|(i, &c)| {
            let hi = RATIO_EDGES.get(i + 1).copied();
            (RATIO_EDGES[i], hi, c)
        })
    }

    /// Human-readable bucket labels (`"0.00-0.25x"`, …, `">=2.00x"`),
    /// aligned with [`UtilizationHistogram::buckets`].
    pub fn labels() -> Vec<String> {
        RATIO_EDGES
            .iter()
            .enumerate()
            .map(|(i, &lo)| match RATIO_EDGES.get(i + 1) {
                Some(hi) => format!("{lo:.2}-{hi:.2}x"),
                None => format!(">={lo:.2}x"),
            })
            .collect()
    }

    /// Render one-histogram-per-column: rows are buckets, each named
    /// series contributes a count column. All histograms must have the
    /// standard bucket layout (they do, by construction).
    pub fn table(title: &str, series: &[(&str, &UtilizationHistogram)]) -> Table {
        let mut headers = vec!["load / mean load".to_string()];
        headers.extend(series.iter().map(|(name, _)| format!("{name} links")));
        let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(title, &header_refs);
        for (i, label) in Self::labels().into_iter().enumerate() {
            let mut row = vec![label];
            row.extend(series.iter().map(|(_, h)| h.counts[i].to_string()));
            t.row(&row);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_all_zero_bucket_nothing() {
        assert!(UtilizationHistogram::from_loads(&[]).is_empty());
        assert!(UtilizationHistogram::from_loads(&[0.0, 0.0]).is_empty());
    }

    #[test]
    fn uniform_loads_land_on_the_mean_bucket() {
        let h = UtilizationHistogram::from_loads(&[5.0; 8]);
        // ratio exactly 1.0 → bucket [1.0, 1.5).
        assert_eq!(h.count_in_range(1.0, 1.5), 8);
        assert_eq!(h.total(), 8);
    }

    #[test]
    fn skew_splits_into_zero_spike_and_hot_tail() {
        // mean = 10; ratios: 4.0, 0, 0, 0.
        let h = UtilizationHistogram::from_loads(&[40.0, 0.0, 0.0, 0.0]);
        assert_eq!(h.count_in_range(0.0, 0.25), 3);
        assert_eq!(h.buckets().last(), Some((2.0, None, 1)));
    }

    #[test]
    fn buckets_cover_every_edge_case_ratio() {
        // Ratios exactly on edges go to the bucket they open.
        // loads: mean = 1.0, so loads are ratios directly.
        let h = UtilizationHistogram::from_loads(&[0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 0.0]);
        let counts: Vec<u64> = h.buckets().map(|(_, _, c)| c).collect();
        assert_eq!(counts.iter().sum::<u64>(), 7);
        assert_eq!(counts[0], 1, "only the 0.0 load sits below 0.25x");
        assert_eq!(*counts.last().unwrap(), 1, "2.0x opens the tail bucket");
    }

    #[test]
    fn table_renders_one_row_per_bucket() {
        let a = UtilizationHistogram::from_loads(&[1.0, 1.0]);
        let b = UtilizationHistogram::from_loads(&[2.0, 0.0]);
        let t = UtilizationHistogram::table("util", &[("arp-path", &a), ("stp", &b)]);
        assert_eq!(t.len(), UtilizationHistogram::labels().len());
        let md = t.render_markdown();
        assert!(md.contains(">=2.00x"));
        assert!(md.contains("arp-path links"));
    }
}
