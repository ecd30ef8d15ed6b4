//! Workload fidelity: the scenarios this crate builds itself are the
//! experiments, not drifted copies of their crate-private `scenario()`
//! functions. At the experiments' own k=4 parameters and seeds, each
//! must produce the experiment's delivery trace byte for byte.

use crate::scenario::{Scenario, Shape};
use arppath_bench::experiments::{e11_churn, e12_scale, e8_fattree, e9_congestion};
use arppath_host::TrafficPattern;

/// One experiment against its benchmark twin.
struct Case {
    experiment: &'static str,
    expected: Vec<String>,
    shape: Shape,
    seed: u64,
}

fn cases() -> Vec<Case> {
    let e8 = e8_fattree::E8Params::default();
    let e9 = e9_congestion::E9Params::default();
    let e11 = e11_churn::E11Params::default();
    // E12 has no k=4 default: its CI-sized parameters on a k=4 fabric.
    let e12 = e12_scale::E12Params { k: 4, ..e12_scale::E12Params::quick() };
    vec![
        Case {
            experiment: "e8_fattree::delivery_trace(permutation)",
            expected: e8_fattree::delivery_trace(&e8, TrafficPattern::Permutation),
            shape: Shape::PermUdp {
                k: e8.k,
                hosts_per_edge: e8.hosts_per_edge,
                datagrams: e8.datagrams,
                payload_len: e8.payload_len,
            },
            seed: e8.seed,
        },
        Case {
            experiment: "e9_congestion::delivery_trace_cc(pfc, aimd, hotspot)",
            expected: e9_congestion::delivery_trace_cc(
                &e9,
                e9_congestion::QueueMode::Pfc,
                e9_congestion::CcMode::Aimd,
                TrafficPattern::Hotspot { hot_receivers: e9.hot_receivers },
            ),
            shape: Shape::IncastPfc {
                k: e9.k,
                hosts_per_edge: e9.hosts_per_edge,
                hot_receivers: e9.hot_receivers,
                segments: e9.segments,
            },
            seed: e9.seed,
        },
        Case {
            experiment: "e11_churn::delivery_trace(undersized)",
            expected: e11_churn::delivery_trace(&e11, e11_churn::TableRegime::Undersized),
            shape: Shape::Churn {
                k: e11.k,
                stations_per_rack: e11.stations / (e11.k * e11.k / 2),
                horizon_ms: e11.horizon.as_nanos() / 1_000_000,
                repair: true,
            },
            seed: e11.seed,
        },
        Case {
            experiment: "e12_scale::delivery_trace(1 shard)",
            expected: e12_scale::delivery_trace(&e12, 1),
            shape: Shape::PermUdp {
                k: e12.k,
                hosts_per_edge: e12.hosts_per_edge,
                datagrams: e12.datagrams,
                payload_len: e12.payload_len,
            },
            seed: e12.seed,
        },
    ]
}

/// Compare every case; `Err` names each experiment whose trace the
/// benchmark's scenario does not reproduce.
pub fn check() -> Result<usize, String> {
    let mut drifted = Vec::new();
    let cases = cases();
    for case in &cases {
        let ours = Scenario::new(case.shape, case.seed).delivery_trace();
        if case.expected.is_empty() {
            drifted.push(format!("{}: the experiment's trace is empty", case.experiment));
        } else if ours != case.expected {
            let at = ours.iter().zip(&case.expected).position(|(a, b)| a != b);
            drifted.push(format!(
                "{}: {} lines against {}, first difference at line {:?}",
                case.experiment,
                ours.len(),
                case.expected.len(),
                at
            ));
        }
    }
    if drifted.is_empty() {
        Ok(cases.len())
    } else {
        Err(drifted.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn scenarios_reproduce_the_experiments_traces() {
        assert_eq!(super::check(), Ok(4));
    }
}
