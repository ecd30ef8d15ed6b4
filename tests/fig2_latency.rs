//! Experiment E1's headline as a regression test: on the Figure-2
//! fabric with heterogeneous link delays, ARP-Path's median RTT is
//! never worse than any STP root placement, and strictly beats the
//! worst one.

use arppath_bench::experiments::e1_latency::{run, verify_headline, E1Params};

#[test]
fn arppath_beats_or_matches_every_stp_root() {
    // Small probe count (CI time); the full harness uses 100.
    let params = E1Params { probes: 10 };
    let mut result = run(&params);
    assert_eq!(result.rows.len(), 7, "arp-path + 6 root placements");
    for row in &result.rows {
        assert_eq!(row.lost, 0, "{}: no probe may be lost in steady state", row.config);
        assert_eq!(row.rtt.count(), 10, "{}: all probes measured", row.config);
    }
    assert!(
        verify_headline(&result),
        "headline violated: {:?}",
        result
            .rows
            .iter_mut()
            .map(|r| (r.config.clone(), r.rtt.percentile(50.0)))
            .collect::<Vec<_>>()
    );
}

#[test]
fn arppath_rtt_is_close_to_physical_minimum() {
    let params = E1Params { probes: 10 };
    let mut result = run(&params);
    let ap = &mut result.rows[0];
    // Physical floor on the fastest route (NICA—NF2—NF3—NICB):
    // propagation 2×(1+2+1) µs = 8 µs round trip; serialization and
    // pipeline add a few µs more. The measured median must sit between
    // the floor and 4× the floor (way below the slow routes).
    let p50 = ap.rtt.percentile(50.0);
    assert!(p50 >= 8_000, "RTT {p50} ns below the physical floor?");
    assert!(p50 <= 32_000, "RTT {p50} ns suggests a detour was taken");
}
