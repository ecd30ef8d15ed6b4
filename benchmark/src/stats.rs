//! Small numeric helpers the report is built from: the min/median/max
//! summariser, the `VmHWM` parser and the clock-cost calibration.

use std::time::Instant;

/// Spread of one timed quantity over a workload's reps.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    pub min: f64,
    pub median: f64,
    pub max: f64,
    pub reps: usize,
}

impl Summary {
    /// Summarise `samples`. The median of an even count is the mean of
    /// the two middle values.
    ///
    /// # Panics
    /// On an empty slice or a NaN sample: both are harness bugs.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "no samples to summarise");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
        let n = sorted.len();
        let median =
            if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 };
        Summary { min: sorted[0], median, max: sorted[n - 1], reps: n }
    }
}

/// Peak resident set size of this process in MB, from the `VmHWM` line
/// of a `/proc/<pid>/status` text. `None` when the line is missing or
/// malformed.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut fields = rest.split_whitespace();
    let kb: u64 = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kb as f64 / 1024.0)
}

/// `VmHWM` of the running process.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Nanoseconds one `Instant::now()` costs here, so spans that read the
/// clock once per class change can subtract what the reads added.
pub fn clock_read_ns() -> f64 {
    const READS: u32 = 200_000;
    let started = Instant::now();
    for _ in 0..READS {
        std::hint::black_box(Instant::now());
    }
    started.elapsed().as_nanos() as f64 / READS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_takes_min_median_max_of_unsorted_input() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!(s, Summary { min: 1.0, median: 2.0, max: 3.0, reps: 3 });
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.min, s.median, s.max, s.reps), (1.0, 2.5, 4.0, 4));
        let s = Summary::of(&[7.5]);
        assert_eq!((s.min, s.median, s.max, s.reps), (7.5, 7.5, 7.5, 1));
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn summary_of_nothing_is_a_bug() {
        Summary::of(&[]);
    }

    #[test]
    fn vm_hwm_is_read_in_kb_and_reported_in_mb() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  999999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(200.0));
    }

    #[test]
    fn malformed_vm_hwm_is_rejected_not_guessed() {
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t 1024 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t 1024 pages\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\n"), None);
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        assert!(peak_rss_mb().expect("linux exposes VmHWM") > 0.0);
    }
}
