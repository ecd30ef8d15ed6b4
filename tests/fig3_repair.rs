//! Experiment E2's headline as a regression test: ARP-Path repairs a
//! cut path within milliseconds and the video stream barely stutters;
//! the no-repair ablation stays dark until entries expire; STP pays
//! its reconvergence timers.

use arppath_bench::experiments::e2_repair::{run_variant, E2Params, E2Variant};
use arppath_netsim::SimDuration;

fn quick_params() -> E2Params {
    E2Params {
        rate_pps: 200,
        chunk_len: 500,
        duration: SimDuration::secs(10),
        failures: [SimDuration::secs(3), SimDuration::secs(6)],
        stp_timer_divisor: 20, // fwd delay 750 ms
    }
}

#[test]
fn arppath_repairs_within_milliseconds() {
    let row = run_variant(E2Variant::ArpPath, &quick_params());
    assert!(row.sent >= 1990, "stream must run to completion (sent {})", row.sent);
    assert!(row.lost <= 4, "at most ~1 chunk per failure may be lost (lost {})", row.lost);
    for (i, rec) in row.recovery.iter().enumerate() {
        let rec = rec.unwrap_or_else(|| panic!("failure {} never recovered", i + 1));
        assert!(
            rec < SimDuration::millis(50),
            "failure {}: recovery took {rec} (expected chunk-interval scale)",
            i + 1
        );
    }
    assert_eq!(row.stall_count, 0, "the viewer must not see a stall");
}

#[test]
fn no_repair_ablation_starves_after_first_cut() {
    let row = run_variant(E2Variant::ArpPathNoRepair, &quick_params());
    // Learn time (120 s) far exceeds the 10 s run: after the first cut
    // nothing arrives again.
    assert!(
        row.received <= row.sent * 4 / 10,
        "without repair the stream must starve (received {}/{})",
        row.received,
        row.sent
    );
    assert!(row.recovery[0].is_none(), "no repair, no recovery");
}

#[test]
fn stp_pays_reconvergence_timers() {
    let params = quick_params();
    let row = run_variant(E2Variant::Stp, &params);
    // Scaled forward delay = 15 s / 20 = 750 ms; reconvergence ≈ 2×.
    let rec = row.recovery[0].expect("stp eventually recovers");
    assert!(
        rec >= SimDuration::millis(1000),
        "STP recovery {rec} should take about two forward delays (1.5 s)"
    );
    assert!(
        rec <= SimDuration::millis(2500),
        "STP recovery {rec} far beyond two forward delays — check the baseline"
    );
    assert!(row.max_stall >= SimDuration::millis(1000), "the viewer sees the outage");
}

#[test]
fn arppath_orders_of_magnitude_faster_than_stp() {
    let params = quick_params();
    let ap = run_variant(E2Variant::ArpPath, &params);
    let stp = run_variant(E2Variant::Stp, &params);
    let ap_rec = ap.recovery[0].unwrap();
    let stp_rec = stp.recovery[0].unwrap();
    assert!(
        stp_rec.as_nanos() > ap_rec.as_nanos() * 50,
        "expected ≥50x gap even with scaled STP timers: arp-path {ap_rec} vs stp {stp_rec}"
    );
}
