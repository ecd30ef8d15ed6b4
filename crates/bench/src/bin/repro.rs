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
//! `--bench-json FILE` additionally writes the machine-readable bench
//! trajectory (schema documented in `BASELINES.md`): per-experiment
//! wall clocks, the quick E9 incast guard (with its per-controller
//! FCT p99s), the quick E11 churn guard (with its undersized eviction
//! count and correction p99), the quick E12 scale guard (with the
//! `dleft_bytes_per_station` figure), plus the fast-table micro
//! medians. The committed `BENCH_PR<N>.json` files are such captures;
//! CI re-captures a quick one and gates it with the `bench-guard`
//! subcommand:
//!
//! ```text
//! repro -- bench-guard --baseline BENCH_PR7.json --current ci.json \
//!     --key e9_incast_quick_ms --max-ratio 2
//! # a same-run ratio: the calendar queue must not lose to a BinaryHeap
//! repro -- bench-guard --current ci.json \
//!     --key calq_dense_ns --baseline-key heap_dense_ns --max-ratio 1
//! # one probe per frame must stay >= 1.3x faster than two (1/1.3 = 0.77)
//! repro -- bench-guard --current ci.json \
//!     --key dleft_probe_refresh_ns --baseline-key dleft_get_touch_ns --max-ratio 0.77
//! ```

use arppath_bench::experiments::{
    e11_churn, e12_scale, e1_latency, e2_repair, e3_linerate, e5_load, e6_proxy, e7_ablation,
    e8_fattree, e9_congestion,
};
use arppath_bench::{difftest, micro};
use arppath_host::TrafficPattern;
use arppath_netsim::{PauseWatchdog, SimDuration};
use std::time::Instant;

/// Extract the number following `"key":` in a (flat-keyed) JSON text.
/// Keys in the bench-trajectory schema are globally unique, so no real
/// JSON parser is needed — and the guard must not grow dependencies.
fn json_number_for_key(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Render one flat JSON object section from key/value pairs.
fn json_section(pairs: &[(String, f64)]) -> String {
    let body: Vec<String> = pairs.iter().map(|(k, v)| format!("    \"{k}\": {v:.3}")).collect();
    body.join(",\n")
}

/// `bench-guard`: compare one key of two bench-trajectory files and
/// fail (exit 1) when the current value exceeds baseline × ratio.
/// `--baseline` defaults to the `--current` file and `--baseline-key`
/// to `--key`, so naming only a baseline key guards a *same-run*
/// ratio — the kind that survives a change of machine.
fn bench_guard(mut args: Vec<String>) -> ! {
    let current_path = take_value(&mut args, "--current").expect("bench-guard needs --current");
    let baseline_path = take_value(&mut args, "--baseline").unwrap_or_else(|| current_path.clone());
    let key = take_value(&mut args, "--key").unwrap_or_else(|| "e8_quick_ms".into());
    let baseline_key = take_value(&mut args, "--baseline-key").unwrap_or_else(|| key.clone());
    let ratio: f64 = take_value(&mut args, "--max-ratio")
        .map(|v| v.parse().expect("--max-ratio expects a number"))
        .unwrap_or(2.0);
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("bench-guard: cannot read {path}: {e}"))
    };
    let baseline = json_number_for_key(&read(&baseline_path), &baseline_key)
        .unwrap_or_else(|| panic!("bench-guard: key {baseline_key} missing from {baseline_path}"));
    let current = json_number_for_key(&read(&current_path), &key)
        .unwrap_or_else(|| panic!("bench-guard: key {key} missing from {current_path}"));
    let observed = current / baseline;
    println!(
        "bench-guard: {key} baseline({baseline_key})={baseline:.3} current={current:.3} \
         ratio={observed:.2} (max {ratio:.2})"
    );
    if current > baseline * ratio {
        eprintln!("bench-guard: REGRESSION — {key} exceeded the {ratio:.2}x bound");
        std::process::exit(1);
    }
    println!("bench-guard: OK");
    std::process::exit(0);
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
    if args.first().map(String::as_str) == Some("bench-guard") {
        args.remove(0);
        bench_guard(args);
    }
    if args.first().map(String::as_str) == Some("difftest") {
        args.remove(0);
        difftest_cmd(args);
    }
    let bench_json = take_value(&mut args, "--bench-json");
    let mut wall_ms: Vec<(String, f64)> = Vec::new();
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
        let ok = e9_congestion::verify_pfc_lossless_completion(&results);
        println!(
            "incast k=8 under PFC + watchdog, all flows complete with zero drops: {}",
            if ok { "HOLDS" } else { "VIOLATED" }
        );
        std::process::exit(if ok { 0 } else { 1 });
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
        let started = Instant::now();
        eprintln!("[repro] running E1 (Fig. 2 latency, ARP-Path vs STP root sweep)...");
        let params = if quick {
            e1_latency::E1Params { probes: 20, ..Default::default() }
        } else {
            Default::default()
        };
        let result = e1_latency::run(&params);
        println!("{}", e1_latency::table(&result).render_markdown());
        println!(
            "headline (ARP-Path ≤ every STP placement, < worst): {}\n",
            if e1_latency::verify_headline(&result) { "HOLDS" } else { "VIOLATED" }
        );
        wall_ms.push(("e1_ms".into(), started.elapsed().as_secs_f64() * 1e3));
    }

    if want("e2") {
        let started = Instant::now();
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
        wall_ms.push(("e2_ms".into(), started.elapsed().as_secs_f64() * 1e3));
    }

    if want("e3") {
        let started = Instant::now();
        eprintln!("[repro] running E3 (line-rate frame-size sweep)...");
        let params = if quick {
            e3_linerate::E3Params { frames_per_size: 500, ..Default::default() }
        } else {
            Default::default()
        };
        let result = e3_linerate::run(&params);
        println!("{}", e3_linerate::table(&result).render_markdown());
        println!(
            "line rate sustained at every size: {}\n",
            if e3_linerate::verify_linerate(&result) { "YES" } else { "NO" }
        );
        wall_ms.push(("e3_ms".into(), started.elapsed().as_secs_f64() * 1e3));
    }

    if want("e5") {
        let started = Instant::now();
        eprintln!("[repro] running E5 (load distribution on a grid fabric)...");
        let params = if quick {
            e5_load::E5Params { side: 3, probes: 20, stp_timer_divisor: 10 }
        } else {
            Default::default()
        };
        let result = e5_load::run(&params);
        println!("{}", e5_load::table(&result).render_markdown());
        wall_ms.push(("e5_ms".into(), started.elapsed().as_secs_f64() * 1e3));
    }

    if want("e6") {
        let started = Instant::now();
        eprintln!("[repro] running E6 (ARP proxy broadcast suppression)...");
        let params = if quick {
            e6_proxy::E6Params { side: 3, clients: 24, servers: 2 }
        } else {
            Default::default()
        };
        let result = e6_proxy::run(&params);
        println!("{}", e6_proxy::table(&result).render_markdown());
        println!(
            "suppression effective: {}\n",
            if e6_proxy::verify_suppression(&result) { "YES" } else { "NO" }
        );
        wall_ms.push(("e6_ms".into(), started.elapsed().as_secs_f64() * 1e3));
    }

    if want("e7") {
        let started = Instant::now();
        eprintln!("[repro] running E7 (lock timer / table capacity ablations)...");
        let params = if quick {
            e7_ablation::E7Params { probes: 20, ..Default::default() }
        } else {
            Default::default()
        };
        let result = e7_ablation::run(&params);
        println!("{}", e7_ablation::table(&result).render_markdown());
        wall_ms.push(("e7_ms".into(), started.elapsed().as_secs_f64() * 1e3));
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
        let sweep_started = Instant::now();
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
            wall_ms.push((format!("e8_k{}_ms", params.k), started.elapsed().as_secs_f64() * 1e3));
        }
        wall_ms.push(("e8_total_ms".into(), sweep_started.elapsed().as_secs_f64() * 1e3));
        println!("{}", e8_fattree::table(&results).render_markdown());
        for r in &results {
            println!("{}", e8_fattree::utilization_table(r).render_markdown());
            if let Some(shard_summary) = &r.shard_summary {
                println!("{}", shard_summary.render_markdown());
            }
        }
        println!(
            "permutation spreads over a majority of cores (jain > 0.5, lossless): {}\n",
            if results.iter().all(e8_fattree::verify_spread) { "HOLDS" } else { "VIOLATED" }
        );
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
        let sweep_started = Instant::now();
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
            wall_ms.push((format!("e9_k{}_ms", params.k), started.elapsed().as_secs_f64() * 1e3));
        }
        wall_ms.push(("e9_total_ms".into(), sweep_started.elapsed().as_secs_f64() * 1e3));
        println!("{}", e9_congestion::table(&results).render_markdown());
        println!("{}", e9_congestion::fct_comparison_table(&results).render_markdown());
        for r in &results {
            println!("{}", e9_congestion::depth_table(r).render_markdown());
        }
        println!(
            "drop-tail drops, PFC pauses losslessly, infinite does neither: {}",
            if e9_congestion::verify_congestion(&results) { "HOLDS" } else { "VIOLATED" }
        );
        println!(
            "pfc completes every flow with zero drops (watchdog armed): {}",
            if e9_congestion::verify_pfc_lossless_completion(&results) {
                "HOLDS"
            } else {
                "VIOLATED"
            }
        );
        if e9_ccs.len() == e9_congestion::CcMode::ALL.len() {
            println!(
                "aimd beats the fixed window's p99 in at least one congested regime: {}\n",
                if e9_congestion::verify_aimd_beats_fixed_somewhere(&results) {
                    "HOLDS"
                } else {
                    "VIOLATED"
                }
            );
        } else {
            println!();
        }
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
        let sweep_started = Instant::now();
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
            wall_ms.push((format!("e11_k{}_ms", params.k), started.elapsed().as_secs_f64() * 1e3));
        }
        wall_ms.push(("e11_total_ms".into(), sweep_started.elapsed().as_secs_f64() * 1e3));
        println!("{}", e11_churn::table(&results).render_markdown());
        // The dip-and-recovery detail for the stormiest cell: the first
        // fabric's undersized regime.
        if let Some(first) = results.first().and_then(|r| r.rows.first()) {
            println!("{}", e11_churn::epoch_table(first).render_markdown());
        }
        println!(
            "undersized tables evict, autosized headroom stays eviction-free under churn: {}",
            if e11_churn::verify_pressure(&results) { "HOLDS" } else { "VIOLATED" }
        );
        println!(
            "movers re-activate behind their new rack and the fabric corrects the stale path: {}\n",
            if e11_churn::verify_correction(&results) { "HOLDS" } else { "VIOLATED" }
        );
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
        wall_ms.push(("e12_sweep_ms".into(), started.elapsed().as_secs_f64() * 1e3));
        println!("{}", e12_scale::table(&result).render_markdown());
        println!("{}", e12_scale::footprint_table(&result).render_markdown());
        println!(
            "every worker count delivers every datagram: {}",
            if e12_scale::verify_delivery(&result) { "HOLDS" } else { "VIOLATED" }
        );
        println!(
            "path tables ≤ {} B/station: {}",
            e12_scale::MAX_BYTES_PER_STATION,
            if e12_scale::verify_footprint(&result) { "HOLDS" } else { "VIOLATED" }
        );
        if let Some(holds) = e12_scale::verify_scheduler(&result) {
            println!(
                "scheduler reserved ≤ {} MB: {}",
                e12_scale::MAX_SCHEDULER_RESERVED_BYTES >> 20,
                if holds { "HOLDS" } else { "VIOLATED" }
            );
        }
        eprintln!("[repro] e12: comparing merged traces across {:?}...", params.shard_counts);
        println!(
            "merged delivery trace byte-identical at every worker count: {}\n",
            if e12_scale::verify_trace_identity(&params) { "HOLDS" } else { "VIOLATED" }
        );
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

    if let Some(path) = &bench_json {
        // The guard key: a quick-geometry E8 run, measured in-process.
        // Under --quick the sweep above already ran it; re-run either
        // way so the key always means the same workload.
        eprintln!("[repro] bench-json: timing the quick E8 guard workload...");
        let quick_params = e8_fattree::E8Params {
            k: 4,
            hosts_per_edge: 2,
            datagrams: 5,
            hot_receivers: 2,
            shards: 1,
            ..Default::default()
        };
        // Best of three: a single ~1.5 ms sample is at the mercy of
        // scheduler noise; the minimum is the stable signal the CI
        // guard should compare.
        let mut best_ms = f64::INFINITY;
        for _ in 0..3 {
            let started = Instant::now();
            let quick_result = e8_fattree::run(&quick_params);
            best_ms = best_ms.min(started.elapsed().as_secs_f64() * 1e3);
            assert!(e8_fattree::verify_spread(&quick_result), "quick E8 headline must hold");
        }
        wall_ms.push(("e8_quick_ms".into(), best_ms));
        // Second guard key since PR 7: a quick-geometry E9 PFC incast
        // (k=4 hotspot, watchdog armed, both controllers) — the cell
        // family the deadlock fix lives in. Its FCT p99s are recorded
        // alongside so the trajectory shows the AIMD/fixed gap, not
        // just wall clock.
        eprintln!("[repro] bench-json: timing the quick E9 incast guard workload...");
        let incast_params = e9_congestion::E9Params {
            k: 4,
            hosts_per_edge: 2,
            segments: 16,
            shards: 1,
            ..Default::default()
        };
        let incast_pattern = TrafficPattern::Hotspot { hot_receivers: incast_params.hot_receivers };
        let mut best_ms = f64::INFINITY;
        let mut fct_p99 = Vec::new();
        for _ in 0..3 {
            let started = Instant::now();
            let rows: Vec<_> = e9_congestion::CcMode::ALL
                .iter()
                .map(|&cc| {
                    e9_congestion::run_cell(
                        &incast_params,
                        e9_congestion::QueueMode::Pfc,
                        cc,
                        incast_pattern,
                    )
                })
                .collect();
            best_ms = best_ms.min(started.elapsed().as_secs_f64() * 1e3);
            let results = [e9_congestion::E9Result { rows }];
            assert!(
                e9_congestion::verify_pfc_lossless_completion(&results),
                "quick E9 incast must complete losslessly under PFC"
            );
            fct_p99 = results[0]
                .rows
                .iter()
                .map(|r| {
                    (format!("e9_incast_pfc_{}_p99_ms", r.cc), r.fct.percentile(99.0) as f64 / 1e6)
                })
                .collect();
        }
        wall_ms.push(("e9_incast_quick_ms".into(), best_ms));
        wall_ms.extend(fct_p99);
        // Third guard key since PR 9: a quick-geometry E11 churn run
        // (k=4, halved churn window, all three table regimes) — the
        // eviction/correction machinery this PR made observable. Its
        // undersized eviction count and correction p99 are recorded
        // alongside so the trajectory shows the pressure shape, not
        // just wall clock.
        eprintln!("[repro] bench-json: timing the quick E11 churn guard workload...");
        let churn_params = e11_churn::E11Params {
            horizon: SimDuration::millis(50),
            ..e11_churn::E11Params::for_k(4)
        };
        let mut best_ms = f64::INFINITY;
        let mut churn_keys = Vec::new();
        for _ in 0..3 {
            let started = Instant::now();
            let result = e11_churn::run(&churn_params);
            best_ms = best_ms.min(started.elapsed().as_secs_f64() * 1e3);
            let results = [result];
            assert!(
                e11_churn::verify_pressure(&results),
                "quick E11 pressure gates must hold (undersized evicts, headroom does not)"
            );
            let under = &results[0].rows[0];
            churn_keys = vec![
                ("e11_churn_evictions".to_string(), under.table.evictions as f64),
                (
                    "e11_churn_corr_p99_ms".to_string(),
                    if under.corrections.is_empty() {
                        0.0
                    } else {
                        under.corrections.percentile(99.0) as f64 / 1e6
                    },
                ),
            ];
        }
        wall_ms.push(("e11_churn_quick_ms".into(), best_ms));
        wall_ms.extend(churn_keys);
        // Fourth guard pair since PR 10: the quick E12 shard-scaling
        // sweep (k=16 skeleton, all four worker counts) and the path-table bytes-per-station figure it
        // measures — the two numbers the shard-scaling push is
        // accountable for.
        eprintln!("[repro] bench-json: timing the quick E12 scale guard workload...");
        let scale_params = e12_scale::E12Params::quick();
        let mut best_ms = f64::INFINITY;
        let mut scale_keys = Vec::new();
        for _ in 0..3 {
            let started = Instant::now();
            let result = e12_scale::run(&scale_params);
            best_ms = best_ms.min(started.elapsed().as_secs_f64() * 1e3);
            assert!(
                e12_scale::verify_delivery(&result),
                "quick E12 must deliver everything at every worker count"
            );
            assert!(
                e12_scale::verify_footprint(&result),
                "quick E12 path tables must stay under the bytes-per-station ceiling"
            );
            assert_eq!(
                e12_scale::verify_scheduler(&result),
                Some(true),
                "quick E12 scheduler must stay under its reserved-bytes ceiling"
            );
            scale_keys = vec![("dleft_bytes_per_station".to_string(), result.bytes_per_station())];
        }
        wall_ms.push(("e12_scale_quick_ms".into(), best_ms));
        wall_ms.extend(scale_keys);
        eprintln!("[repro] bench-json: running fast-table micro measurements...");
        let micro_ns: Vec<(String, f64)> =
            micro::measure_all().into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        let json = format!(
            "{{\n  \"schema\": \"arppath-bench-trajectory/v1\",\n  \"pr\": \"PR15\",\n  \
             \"quick\": {},\n  \"wall_ms\": {{\n{}\n  }},\n  \"micro_ns\": {{\n{}\n  }}\n}}\n",
            quick,
            json_section(&wall_ms),
            json_section(&micro_ns),
        );
        std::fs::write(path, json).expect("write --bench-json file");
        eprintln!("[repro] bench-json written to {path}");
    }
    eprintln!("[repro] done.");
}
