//! `benchmark compare A.json B.json`: one row per (workload, end-to-end
//! metric) of two result files written by `benchmark all`, A as the base.

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END};

/// What one row concludes about B against A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    /// A side's own run-to-run spread (median against minimum) is wider
    /// than the bound: the row cannot say "same".
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's reading of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    /// `(median - min) / min` of the reps the value came from, for
    /// metrics that carry a spread.
    pub spread: Option<f64>,
}

/// Judge `b` against base `a` for `metric`. Exact metrics — simulated
/// quantities at a fixed seed — compare by equality; timed ones by the
/// metric's bound, unless either side's own spread exceeds it.
pub fn judge(metric: &EndToEnd, a: Reading, b: Reading) -> Verdict {
    let worse = match metric.better {
        Better::Lower => b.value > a.value,
        Better::Higher => b.value < a.value,
    };
    if metric.exact {
        return if a.value == b.value {
            Verdict::Same
        } else if worse {
            Verdict::Worse
        } else {
            Verdict::Better
        };
    }
    if [a, b].iter().any(|r| r.spread.is_some_and(|s| s > metric.bound)) {
        return Verdict::Unresolved;
    }
    let change = (b.value - a.value).abs() / a.value.abs().max(f64::MIN_POSITIVE);
    match (change > metric.bound, worse) {
        (false, _) => Verdict::Same,
        (true, true) => Verdict::Worse,
        (true, false) => Verdict::Better,
    }
}

fn reading(run: &Json, metric: &str) -> Option<Reading> {
    let m = run.get("metrics")?.get(metric)?;
    let value = m.get("value")?.as_f64()?;
    let spread = match (m.get("min").and_then(Json::as_f64), m.get("median").and_then(Json::as_f64))
    {
        (Some(min), Some(median)) if min > 0.0 => Some((median - min) / min),
        _ => None,
    };
    Some(Reading { value, spread })
}

/// The untraced runs of a result file, by workload name.
fn untraced_runs(doc: &Json) -> Result<Vec<(&str, &Json)>, String> {
    let runs = doc.get("runs").and_then(Json::as_arr).ok_or("no \"runs\" array")?;
    Ok(runs
        .iter()
        .filter(|r| r.get("trace") == Some(&Json::Bool(false)))
        .filter_map(|r| Some((r.get("workload")?.as_str()?, r)))
        .collect())
}

/// Render the comparison table; the flag says whether any row is
/// `worse`.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let runs_a = untraced_runs(a).map_err(|e| format!("A: {e}"))?;
    let runs_b = untraced_runs(b).map_err(|e| format!("B: {e}"))?;
    let mut out = format!(
        "{:<14} {:<24} {:>14} {:>14} {:>9} {:>6}  {}\n",
        "workload", "metric", "A", "B", "B/A", "bound", "verdict"
    );
    let mut any_worse = false;
    for (name, run_a) in &runs_a {
        let Some((_, run_b)) = runs_b.iter().find(|(n, _)| n == name) else {
            return Err(format!("workload {name} is in A but not in B"));
        };
        for metric in &END_TO_END {
            let (Some(ra), Some(rb)) = (reading(run_a, metric.name), reading(run_b, metric.name))
            else {
                return Err(format!("{name}: metric {} missing on one side", metric.name));
            };
            let verdict = judge(metric, ra, rb);
            any_worse |= verdict == Verdict::Worse;
            let bound = if metric.exact { "exact".to_owned() } else { format!("{}", metric.bound) };
            out.push_str(&format!(
                "{:<14} {:<24} {:>14.6} {:>14.6} {:>9.4} {:>6}  {}\n",
                name,
                metric.name,
                ra.value,
                rb.value,
                rb.value / ra.value,
                bound,
                verdict.label()
            ));
        }
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timed() -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == "wall_s").unwrap()
    }

    fn exact() -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == "sim_frame_hops").unwrap()
    }

    fn r(value: f64, spread: f64) -> Reading {
        Reading { value, spread: Some(spread) }
    }

    #[test]
    fn timed_metrics_move_only_past_the_bound() {
        let b = timed().bound;
        assert_eq!(judge(timed(), r(1.0, 0.01), r(1.0 + b * 0.9, 0.01)), Verdict::Same);
        assert_eq!(judge(timed(), r(1.0, 0.01), r(1.0 + b * 1.1, 0.01)), Verdict::Worse);
        assert_eq!(judge(timed(), r(1.0, 0.01), r(1.0 - b * 1.1, 0.01)), Verdict::Better);
    }

    #[test]
    fn a_noisy_side_leaves_the_row_unresolved() {
        let wide = timed().bound * 1.2;
        assert_eq!(judge(timed(), r(1.0, wide), r(1.0, 0.01)), Verdict::Unresolved);
        assert_eq!(judge(timed(), r(1.0, 0.01), r(2.0, wide)), Verdict::Unresolved);
    }

    #[test]
    fn exact_metrics_compare_by_equality_and_direction() {
        let v = |x| Reading { value: x, spread: None };
        assert_eq!(judge(exact(), v(1000.0), v(1000.0)), Verdict::Same);
        assert_eq!(judge(exact(), v(1000.0), v(1001.0)), Verdict::Worse);
        assert_eq!(judge(exact(), v(1000.0), v(999.0)), Verdict::Better);
        let frac = END_TO_END.iter().find(|m| m.name == "sim_delivered_frac").unwrap();
        assert_eq!(judge(frac, v(1.0), v(0.99)), Verdict::Worse);
    }

    #[test]
    fn compare_walks_every_workload_and_metric() {
        let run = |wall: f64| {
            let metrics = END_TO_END.iter().map(|m| {
                let value = if m.name == "wall_s" { wall } else { 1.0 };
                (
                    m.name,
                    Json::obj([
                        ("value", Json::Num(value)),
                        ("min", Json::Num(value)),
                        ("median", Json::Num(value)),
                    ]),
                )
            });
            Json::obj([
                ("workload", Json::str("k8_perm")),
                ("trace", Json::Bool(false)),
                ("metrics", Json::obj(metrics)),
            ])
        };
        let traced = Json::obj([("workload", Json::str("k8_perm")), ("trace", Json::Bool(true))]);
        let file = |wall| Json::obj([("runs", Json::Arr(vec![run(wall), traced.clone()]))]);
        let (table, worse) = compare(&file(1.0), &file(1.0)).unwrap();
        assert!(!worse);
        assert_eq!(table.lines().count(), 1 + END_TO_END.len());
        let (table, worse) = compare(&file(1.0), &file(1.5)).unwrap();
        assert!(worse && table.contains("worse"));
        assert!(compare(&file(1.0), &Json::obj([("runs", Json::Arr(vec![]))])).is_err());
    }
}
