//! Regenerate the paper's experiment tables.
//!
//! ```text
//! cargo run --release -p arppath-bench --bin repro            # all
//! cargo run --release -p arppath-bench --bin repro -- e1 e2   # subset
//! cargo run --release -p arppath-bench --bin repro -- --quick # small params
//! cargo run --release -p arppath-bench --bin repro -- e8 --shards 4
//! cargo run --release -p arppath-bench --bin repro -- e8 --quick --trace-out e8.trace
//! cargo run --release -p arppath-bench --bin repro -- --incast-gate
//! cargo run --release -p arppath-bench --bin repro -- e9 --e9-watchdog-ms 0 --e9-cc fixed
//! ```
//!
//! Output is the markdown tables described in `docs/EXPERIMENTS.md`.
//! `--shards N` runs E8 on the sharded parallel engine (N worker
//! threads, rack-major partition); `--trace-out FILE` additionally
//! writes the merged, timestamp-sorted delivery trace of the first E8
//! fabric's permutation run — CI diffs a sharded trace against a
//! single-threaded one to hold the equivalence contract.
//!
//! `--incast-gate` runs just the k=8 PFC incast cells (the scenario
//! that deadlocked before the pause watchdog existed) and exits
//! nonzero unless every flow completes with zero drops.
//! `--e9-watchdog-ms N` overrides the PFC pause-watchdog deadline
//! (0 disables it); `--e9-cc fixed|aimd|both` restricts E9's
//! congestion-controller axis.
//!
//! `repro -- e12` sweeps the k=16 fabric over 1/2/4/8 workers
//! (wall clock, sync rounds per simulated ms, bytes per station) and
//! verifies trace identity across the sweep; `--shards`/`--trace-out`
//! capture the byte-comparable trace at one worker count.
//!
//! `repro micro` times the fast table and scheduler structures against
//! the boring ones they replaced, prints every `key value` pair and
//! checks the same-run ratios in `micro::GUARDS`.
//!
//! Exit codes: 0 when every headline verdict HOLDS; 1 when any is
//! VIOLATED (or a `micro` guard, `difftest` or `--incast-gate` fails);
//! 2 for an unknown experiment name.

use arppath_bench::experiments::{
    e11_churn, e12_scale, e1_latency, e2_repair, e3_linerate, e5_load, e6_proxy, e7_ablation,
    e8_fattree, e9_congestion,
};
use arppath_bench::{difftest, micro};
use arppath_host::TrafficPattern;
use arppath_netsim::{PauseWatchdog, SimDuration};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// The names `repro` accepts as positional experiment selectors.
const EXPERIMENTS: [&str; 10] = ["e1", "e2", "e3", "e5", "e6", "e7", "e8", "e9", "e11", "e12"];

/// Set by the first headline verdict that fails.
static VIOLATED: AtomicBool = AtomicBool::new(false);

/// Print one headline verdict line, `label: HOLDS|VIOLATED`, and
/// remember a failure for the exit code.
fn verdict(label: &str, ok: bool) {
    println!("{label}: {}", if ok { "HOLDS" } else { "VIOLATED" });
    if !ok {
        VIOLATED.store(true, Ordering::Relaxed);
    }
}

/// Exit 1 if any verdict so far was VIOLATED, else 0.
fn exit_with_verdicts() -> ! {
    std::process::exit(i32::from(VIOLATED.load(Ordering::Relaxed)))
}

/// `micro`: time the fast table and scheduler structures against the
/// ones they replaced, print every `key value` pair, and hold each
/// same-run ratio in [`micro::GUARDS`] as a verdict.
fn micro_cmd(args: Vec<String>) -> ! {
    if !args.is_empty() {
        eprintln!("[repro] micro takes no arguments, got {args:?}");
        std::process::exit(2);
    }
    let values = micro::measure_all();
    for (key, value) in &values {
        println!("{key} {value:.3}");
    }
    for guard in &micro::GUARDS {
        let label = format!(
            "{} ≤ {} × {} (measured {:.2}×)",
            guard.key,
            guard.max_ratio,
            guard.baseline,
            guard.ratio(&values)
        );
        verdict(&label, guard.holds(&values));
    }
    exit_with_verdicts()
}

/// `difftest`: the differential shard-equivalence fuzzer. Runs
/// `--seeds N` randomized scenarios (quick fat-tree geometries across
/// every k/jitter/workload/queue/watchdog/shard/partition axis) under
/// the single-threaded and sharded engines and multiset-compares the
/// merged delivery traces. On a failure it delta-debugs the scenario
/// down and prints a one-line reproducer that
/// `tests/sharded_equivalence.rs` replays via `Spec::parse`, then
/// exits 1. `--self-check` instead injects an unsound horizon into the
/// sharded engine and requires the fuzzer to catch and minimize it —
/// proof the harness detects the bug class it exists for.
fn difftest_cmd(mut args: Vec<String>) -> ! {
    let seeds: u64 = take_value(&mut args, "--seeds")
        .map(|v| v.parse().expect("--seeds expects a count"))
        .unwrap_or(32);
    let first_seed: u64 = take_value(&mut args, "--start")
        .map(|v| v.parse().expect("--start expects a seed"))
        .unwrap_or(0);
    let budget: usize = take_value(&mut args, "--minimize-budget")
        .map(|v| v.parse().expect("--minimize-budget expects a count"))
        .unwrap_or(400);
    let self_check = args.iter().any(|a| a == "--self-check");
    let mut log = |line: &str| eprintln!("[difftest] {line}");
    let started = Instant::now();
    if self_check {
        match difftest::self_check(seeds, &mut log) {
            Ok(()) => {
                eprintln!(
                    "[difftest] self-check PASSED in {} ms: injected unsound horizon \
                     detected, minimized, and cleared",
                    started.elapsed().as_millis()
                );
                std::process::exit(0);
            }
            Err(why) => {
                eprintln!("[difftest] self-check FAILED: {why}");
                std::process::exit(1);
            }
        }
    }
    match difftest::fuzz(first_seed, seeds, budget, &mut log) {
        None => {
            eprintln!(
                "[difftest] {seeds} seed(s) from {first_seed}: zero divergences ({} ms)",
                started.elapsed().as_millis()
            );
            std::process::exit(0);
        }
        Some(report) => {
            eprintln!(
                "[difftest] FAILURE minimized in {} attempts ({:?})",
                report.attempts, report.outcome
            );
            // The machine-readable artifact: paste into
            // tests/sharded_equivalence.rs as a Spec::parse literal.
            println!("{}", report.scenario.render());
            std::process::exit(1);
        }
    }
}

/// Write a `--trace-out` file: one delivery per line.
fn write_trace(path: &str, trace: &[String]) {
    let mut body = trace.join("\n");
    body.push('\n');
    std::fs::write(path, body).expect("write --trace-out file");
}

/// Pull `--flag value` or `--flag=value` out of `args`, consuming it.
fn take_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let prefix = format!("{flag}=");
    if let Some(i) = args.iter().position(|a| a == flag) {
        assert!(i + 1 < args.len(), "{flag} needs a value");
        let v = args.remove(i + 1);
        args.remove(i);
        return Some(v);
    }
    if let Some(i) = args.iter().position(|a| a.starts_with(&prefix)) {
        let v = args.remove(i)[prefix.len()..].to_string();
        return Some(v);
    }
    None
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("difftest") {
        args.remove(0);
        difftest_cmd(args);
    }
    if args.first().map(String::as_str) == Some("micro") {
        args.remove(0);
        micro_cmd(args);
    }
    let shards: usize = take_value(&mut args, "--shards")
        .map(|v| v.parse().expect("--shards expects a number"))
        .unwrap_or(1);
    assert!(shards >= 1, "--shards must be at least 1");
    let trace_out = take_value(&mut args, "--trace-out");
    // E9 knobs: `--e9-watchdog-ms N` overrides the PFC pause-watchdog
    // deadline (0 disables it — reproduces the PR-6 incast deadlock);
    // `--e9-cc fixed|aimd|both` restricts the controller axis.
    let e9_watchdog: Option<u64> = take_value(&mut args, "--e9-watchdog-ms")
        .map(|v| v.parse().expect("--e9-watchdog-ms expects milliseconds"));
    let e9_ccs: Vec<e9_congestion::CcMode> = match take_value(&mut args, "--e9-cc").as_deref() {
        None | Some("both") => e9_congestion::CcMode::ALL.to_vec(),
        Some("fixed") => vec![e9_congestion::CcMode::Fixed],
        Some("aimd") => vec![e9_congestion::CcMode::Aimd],
        Some(other) => panic!("--e9-cc expects fixed|aimd|both, got {other}"),
    };
    let e9_watchdog_param = |default: PauseWatchdog| match e9_watchdog {
        Some(0) => PauseWatchdog::Off,
        Some(ms) => PauseWatchdog::force_resume(SimDuration::millis(ms)),
        None => default,
    };
    // `--e12-k K` overrides E12's fabric arity; with `--e12-shards
    // a,b,...` it turns the sweep into an arbitrary measurement rig.
    let e12_k: Option<usize> =
        take_value(&mut args, "--e12-k").map(|v| v.parse().expect("--e12-k expects a number"));
    let e12_shard_counts: Option<Vec<usize>> = take_value(&mut args, "--e12-shards")
        .map(|v| v.split(',').map(|s| s.parse().expect("--e12-shards expects numbers")).collect());
    let incast_gate = args.iter().any(|a| a == "--incast-gate");
    let quick = args.iter().any(|a| a == "--quick");
    let selected: Vec<&str> =
        args.iter().filter(|a| !a.starts_with("--")).map(|s| s.as_str()).collect();
    if let Some(unknown) = selected.iter().find(|name| !EXPERIMENTS.contains(name)) {
        eprintln!("[repro] unknown experiment {unknown:?}; valid names: {}", EXPERIMENTS.join(" "));
        std::process::exit(2);
    }
    let want = |name: &str| selected.is_empty() || selected.contains(&name);

    if incast_gate {
        // CI's tentpole gate, run in isolation: the k=8 PFC incast that
        // deadlocked before PR 7, now required to finish every flow
        // with zero drops under the pause watchdog (fires are fine —
        // they are the mechanism, and the table reports them).
        let mut params = e9_congestion::E9Params {
            k: 8,
            hosts_per_edge: 4,
            segments: 16,
            shards,
            ..Default::default()
        };
        params.watchdog = e9_watchdog_param(params.watchdog);
        let pattern = TrafficPattern::Hotspot { hot_receivers: params.hot_receivers };
        eprintln!(
            "[repro] incast gate: E9 k=8 hotspot, {} hosts, PFC + watchdog, {shards} shard(s)...",
            params.k * params.k / 2 * params.hosts_per_edge
        );
        let started = Instant::now();
        let rows = e9_ccs
            .iter()
            .map(|&cc| e9_congestion::run_cell(&params, e9_congestion::QueueMode::Pfc, cc, pattern))
            .collect();
        let results = [e9_congestion::E9Result { rows }];
        eprintln!("[repro] incast gate took {} ms", started.elapsed().as_millis());
        println!("{}", e9_congestion::table(&results).render_markdown());
        verdict(
            "incast k=8 under PFC + watchdog, all flows complete with zero drops",
            e9_congestion::verify_pfc_lossless_completion(&results),
        );
        exit_with_verdicts();
    }
    // Both flags only act on E8/E9/E11/E12; warn instead of silently
    // ignoring them when the selection excludes all four.
    if !want("e8") && !want("e9") && !want("e11") && !want("e12") {
        if shards > 1 {
            eprintln!(
                "[repro] warning: --shards only affects e8/e9/e11/e12, none of which is selected"
            );
        }
        if trace_out.is_some() {
            eprintln!(
                "[repro] warning: --trace-out only applies to e8/e9/e11/e12, \
                 none of which is selected"
            );
        }
    }

    if want("e1") {
        eprintln!("[repro] running E1 (Fig. 2 latency, ARP-Path vs STP root sweep)...");
        let params = if quick {
            e1_latency::E1Params { probes: 20, ..Default::default() }
        } else {
            Default::default()
        };
        let result = e1_latency::run(&params);
        println!("{}", e1_latency::table(&result).render_markdown());
        verdict(
            "headline (ARP-Path ≤ every STP placement, < worst)",
            e1_latency::verify_headline(&result),
        );
        println!();
    }

    if want("e2") {
        eprintln!("[repro] running E2 (Fig. 3 path repair during video stream)...");
        let params = if quick {
            e2_repair::E2Params {
                duration: SimDuration::secs(20),
                failures: [SimDuration::secs(5), SimDuration::secs(12)],
                stp_timer_divisor: 10,
                ..Default::default()
            }
        } else {
            Default::default()
        };
        let result = e2_repair::run(&params);
        println!("{}", e2_repair::table(&result).render_markdown());
        if params.stp_timer_divisor > 1 {
            println!("(STP timers scaled down by {}x in quick mode)\n", params.stp_timer_divisor);
        }
    }

    if want("e3") {
        eprintln!("[repro] running E3 (line-rate frame-size sweep)...");
        let params = if quick {
            e3_linerate::E3Params { frames_per_size: 500, ..Default::default() }
        } else {
            Default::default()
        };
        let result = e3_linerate::run(&params);
        println!("{}", e3_linerate::table(&result).render_markdown());
        verdict("line rate sustained at every size", e3_linerate::verify_linerate(&result));
        println!();
    }

    if want("e5") {
        eprintln!("[repro] running E5 (load distribution on a grid fabric)...");
        let params = if quick {
            e5_load::E5Params { side: 3, probes: 20, stp_timer_divisor: 10 }
        } else {
            Default::default()
        };
        let result = e5_load::run(&params);
        println!("{}", e5_load::table(&result).render_markdown());
    }

    if want("e6") {
        eprintln!("[repro] running E6 (ARP proxy broadcast suppression)...");
        let params = if quick {
            e6_proxy::E6Params { side: 3, clients: 24, servers: 2 }
        } else {
            Default::default()
        };
        let result = e6_proxy::run(&params);
        println!("{}", e6_proxy::table(&result).render_markdown());
        verdict("suppression effective", e6_proxy::verify_suppression(&result));
        println!();
    }

    if want("e7") {
        eprintln!("[repro] running E7 (lock timer / table capacity ablations)...");
        let params = if quick {
            e7_ablation::E7Params { probes: 20, ..Default::default() }
        } else {
            Default::default()
        };
        let result = e7_ablation::run(&params);
        println!("{}", e7_ablation::table(&result).render_markdown());
    }

    if want("e8") {
        // Fabric sweep: hosts_per_edge grows with k so the biggest run
        // carries a four-digit host count (k=8: 32 racks × 32 hosts).
        let ks: &[(usize, usize)] = if quick { &[(4, 2)] } else { &[(4, 16), (6, 24), (8, 32)] };
        let e8_params = |&(k, hosts_per_edge): &(usize, usize)| e8_fattree::E8Params {
            k,
            hosts_per_edge,
            datagrams: if quick { 5 } else { 10 },
            hot_receivers: (k * k / 2 * hosts_per_edge / 32).max(2),
            shards,
            ..Default::default()
        };
        let mut results = Vec::new();
        for kh in ks {
            let params = e8_params(kh);
            eprintln!(
                "[repro] running E8 (fat-tree load balance), k={}, {} hosts, {shards} shard(s)...",
                params.k,
                params.k * params.k / 2 * params.hosts_per_edge
            );
            let started = std::time::Instant::now();
            results.push(e8_fattree::run(&params));
            eprintln!(
                "[repro] e8 k={} took {} ms (both patterns, {shards} shard(s))",
                params.k,
                started.elapsed().as_millis()
            );
        }
        println!("{}", e8_fattree::table(&results).render_markdown());
        for r in &results {
            println!("{}", e8_fattree::utilization_table(r).render_markdown());
            if let Some(shard_summary) = &r.shard_summary {
                println!("{}", shard_summary.render_markdown());
            }
        }
        verdict(
            "permutation spreads over a majority of cores (jain > 0.5, lossless)",
            results.iter().all(e8_fattree::verify_spread),
        );
        println!();
        if let Some(path) = &trace_out {
            // The canonical artifact: the first fabric's permutation
            // delivery trace, re-run with tracing enabled. Identical
            // bytes regardless of --shards.
            eprintln!("[repro] capturing E8 delivery trace ({shards} shard(s)) -> {path}");
            write_trace(
                path,
                &e8_fattree::delivery_trace(&e8_params(&ks[0]), TrafficPattern::Permutation),
            );
        }
    }

    if want("e9") {
        // Congestion sweep: modest host counts (closed-loop flows cost
        // far more events per host than E8's open-loop blasts).
        let ks: &[(usize, usize)] = if quick { &[(4, 2)] } else { &[(4, 4), (6, 4), (8, 4)] };
        let e9_params = |&(k, hosts_per_edge): &(usize, usize)| {
            let mut params = e9_congestion::E9Params {
                k,
                hosts_per_edge,
                segments: if quick { 16 } else { 32 },
                shards,
                ..Default::default()
            };
            params.watchdog = e9_watchdog_param(params.watchdog);
            params
        };
        let mut results = Vec::new();
        for kh in ks {
            let params = e9_params(kh);
            eprintln!(
                "[repro] running E9 (congested fabrics), k={}, {} hosts, {shards} shard(s)...",
                params.k,
                params.k * params.k / 2 * params.hosts_per_edge
            );
            let started = std::time::Instant::now();
            results.push(e9_congestion::run_with(&params, &e9_ccs));
            eprintln!(
                "[repro] e9 k={} took {} ms (3 modes x 2 patterns x {} cc, {shards} shard(s))",
                params.k,
                started.elapsed().as_millis(),
                e9_ccs.len()
            );
        }
        println!("{}", e9_congestion::table(&results).render_markdown());
        println!("{}", e9_congestion::fct_comparison_table(&results).render_markdown());
        for r in &results {
            println!("{}", e9_congestion::depth_table(r).render_markdown());
        }
        verdict(
            "drop-tail drops, PFC pauses losslessly, infinite does neither",
            e9_congestion::verify_congestion(&results),
        );
        verdict(
            "pfc completes every flow with zero drops (watchdog armed)",
            e9_congestion::verify_pfc_lossless_completion(&results),
        );
        if e9_ccs.len() == e9_congestion::CcMode::ALL.len() {
            verdict(
                "aimd beats the fixed window's p99 in at least one congested regime",
                e9_congestion::verify_aimd_beats_fixed_somewhere(&results),
            );
        }
        println!();
        if let Some(path) = &trace_out {
            // The canonical E9 artifact: the first fabric's PFC hotspot
            // delivery trace — the run where pause/resume frames cross
            // shard cuts. Identical bytes regardless of --shards. When
            // E8 also ran (and owns `path`), this goes to `path.e9`.
            let e9_path = if want("e8") { format!("{path}.e9") } else { path.clone() };
            eprintln!("[repro] capturing E9 delivery trace ({shards} shard(s)) -> {e9_path}");
            write_trace(
                &e9_path,
                &e9_congestion::delivery_trace(
                    &e9_params(&ks[0]),
                    e9_congestion::QueueMode::Pfc,
                    TrafficPattern::Hotspot { hot_receivers: e9_params(&ks[0]).hot_receivers },
                ),
            );
        }
    }

    if want("e11") {
        // Churn sweep: one run per fabric size covers all three table
        // regimes (undersized / headroom / oversized) under one seeded
        // churn script.
        let ks: &[usize] = if quick { &[4] } else { &[4, 6, 8] };
        let e11_params = |&k: &usize| {
            let mut params = e11_churn::E11Params::for_k(k);
            if quick {
                params.horizon = SimDuration::millis(100);
            }
            params.shards = shards;
            params
        };
        let mut results = Vec::new();
        for k in ks {
            let params = e11_params(k);
            eprintln!(
                "[repro] running E11 (station churn), k={}, {} stations, {shards} shard(s)...",
                params.k, params.stations
            );
            let started = std::time::Instant::now();
            results.push(e11_churn::run(&params));
            eprintln!(
                "[repro] e11 k={} took {} ms (3 regimes, {shards} shard(s))",
                params.k,
                started.elapsed().as_millis()
            );
        }
        println!("{}", e11_churn::table(&results).render_markdown());
        // The dip-and-recovery detail for the stormiest cell: the first
        // fabric's undersized regime.
        if let Some(first) = results.first().and_then(|r| r.rows.first()) {
            println!("{}", e11_churn::epoch_table(first).render_markdown());
        }
        verdict(
            "undersized tables evict, autosized headroom stays eviction-free under churn",
            e11_churn::verify_pressure(&results),
        );
        verdict(
            "movers re-activate behind their new rack and the fabric corrects the stale path",
            e11_churn::verify_correction(&results),
        );
        println!();
        if let Some(path) = &trace_out {
            // The canonical E11 artifact: the first fabric's undersized
            // churn trace — carrier flaps, eviction churn, repair
            // floods and all. Identical bytes regardless of --shards.
            // When E8/E9 also ran (and own `path`), this goes to
            // `path.e11`.
            let e11_path =
                if want("e8") || want("e9") { format!("{path}.e11") } else { path.clone() };
            eprintln!("[repro] capturing E11 delivery trace ({shards} shard(s)) -> {e11_path}");
            write_trace(
                &e11_path,
                &e11_churn::delivery_trace(&e11_params(&ks[0]), e11_churn::TableRegime::Undersized),
            );
        }
    }

    if want("e12") {
        // Shard-scaling sweep on the k=16 fabric. Unlike e8/e9/e11,
        // `--shards` does not pick the engine here (the sweep covers
        // 1/2/4/8 itself); it selects the worker count for the
        // `--trace-out` capture.
        let mut params = if quick { e12_scale::E12Params::quick() } else { Default::default() };
        if let Some(k) = e12_k {
            assert!(k >= 4 && k % 2 == 0, "--e12-k must be an even arity >= 4");
            params.k = k;
        }
        if let Some(counts) = e12_shard_counts.clone() {
            assert!(!counts.is_empty(), "--e12-shards must name at least one count");
            params.shard_counts = counts;
        }
        eprintln!(
            "[repro] running E12 (shard scaling), k={}, {} hosts/edge, sweep {:?}...",
            params.k, params.hosts_per_edge, params.shard_counts
        );
        let started = Instant::now();
        let result = e12_scale::run(&params);
        eprintln!("[repro] e12 sweep took {} ms", started.elapsed().as_millis());
        println!("{}", e12_scale::table(&result).render_markdown());
        println!("{}", e12_scale::footprint_table(&result).render_markdown());
        verdict("every worker count delivers every datagram", e12_scale::verify_delivery(&result));
        verdict(
            &format!("path tables ≤ {} B/station", e12_scale::MAX_BYTES_PER_STATION),
            e12_scale::verify_footprint(&result),
        );
        if let Some(holds) = e12_scale::verify_scheduler(&result) {
            verdict(
                &format!(
                    "scheduler reserved ≤ {} MB",
                    e12_scale::MAX_SCHEDULER_RESERVED_BYTES >> 20
                ),
                holds,
            );
        }
        eprintln!("[repro] e12: comparing merged traces across {:?}...", params.shard_counts);
        verdict(
            "merged delivery trace byte-identical at every worker count",
            e12_scale::verify_trace_identity(&params),
        );
        println!();
        if let Some(path) = &trace_out {
            // The canonical E12 artifact: the sweep scenario's trace at
            // the `--shards` worker count. Identical bytes regardless
            // of --shards; CI diffs shards=1 against shards=4. When
            // E8/E9/E11 also ran (and own `path`), goes to `path.e12`.
            let e12_path = if want("e8") || want("e9") || want("e11") {
                format!("{path}.e12")
            } else {
                path.clone()
            };
            eprintln!("[repro] capturing E12 delivery trace ({shards} shard(s)) -> {e12_path}");
            write_trace(&e12_path, &e12_scale::delivery_trace(&params, shards));
        }
    }

    eprintln!("[repro] done.");
    exit_with_verdicts();
}
