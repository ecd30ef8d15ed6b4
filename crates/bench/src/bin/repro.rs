//! Regenerate the paper's experiment tables.
//!
//! ```text
//! cargo run --release -p arppath-bench --bin repro            # all
//! cargo run --release -p arppath-bench --bin repro -- e1 e2   # subset
//! cargo run --release -p arppath-bench --bin repro -- --quick # small params
//! cargo run --release -p arppath-bench --bin repro -- e8 --shards 4
//! cargo run --release -p arppath-bench --bin repro -- e8 --quick --trace-out e8.trace
//! cargo run --release -p arppath-bench --bin repro -- difftest --seeds 40
//! cargo run --release -p arppath-bench --bin repro -- micro
//! ```
//!
//! Output is the markdown tables described in `docs/EXPERIMENTS.md`.
//! Every experiment derives its parameters from one flag set:
//!
//! - `--quick` shrinks each selected experiment to CI size;
//! - `--shards N` runs E8/E9/E11 on the sharded twin engine (N shards
//!   run in turn, rack-major partition) and picks the shard count of
//!   E12's trace capture (E12's own sweep always covers 1/2/4). N > 1
//!   needs at least one of e8/e9/e11/e12 selected;
//! - `--trace-out FILE` writes the merged, timestamp-sorted delivery
//!   trace of the one selected traced experiment, on its first fabric:
//!   E8's permutation run, E9's PFC incast, E11's undersized churn or
//!   E12's sweep scenario. The bytes are identical at every shard
//!   count — CI diffs a sharded capture against a single-threaded one.
//!   It needs exactly one of e8/e9/e11/e12 selected.
//!
//! `repro difftest [--seeds N] [--self-check]` runs the differential
//! shard-equivalence fuzzer. `repro micro` times the fast table and
//! scheduler structures against the boring ones they replaced, prints
//! every `key value` pair and checks the same-run ratios in
//! `micro::GUARDS`.
//!
//! Exit codes: 0 when every headline verdict HOLDS; 1 when any is
//! VIOLATED (or a `micro` guard or `difftest` fails); 2 for a usage
//! error — an unknown experiment name or flag, a flag missing its
//! value, a value that does not parse, a zero `--shards` or `--seeds`,
//! a flag combination ruled out above, or a `--trace-out` file that
//! cannot be created — reported as one `[repro]` line before anything
//! runs.

use arppath_bench::experiments::{
    e11_churn, e12_scale, e1_latency, e2_repair, e3_linerate, e5_load, e6_proxy, e7_ablation,
    e8_fattree, e9_congestion,
};
use arppath_bench::{difftest, micro};
use arppath_host::TrafficPattern;
use arppath_netsim::SimDuration;
use std::fs::File;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// The names `repro` accepts as positional experiment selectors.
const EXPERIMENTS: [&str; 10] = ["e1", "e2", "e3", "e5", "e6", "e7", "e8", "e9", "e11", "e12"];

/// The experiments that `--shards` and `--trace-out` apply to.
const TRACED: [&str; 4] = ["e8", "e9", "e11", "e12"];

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

/// Report a usage error as one `[repro]` line and exit 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("[repro] {msg}");
    std::process::exit(2)
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
        usage_error(&format!("micro takes no arguments, got {args:?}"));
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
    let seeds: u64 = take_parsed(&mut args, "--seeds", "a count").unwrap_or(32);
    if seeds == 0 {
        usage_error("--seeds must be at least 1");
    }
    let self_check = args.iter().any(|a| a == "--self-check");
    args.retain(|a| a != "--self-check");
    if let Some(unknown) = args.first() {
        usage_error(&format!("difftest: unknown argument {unknown:?}"));
    }
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
    match difftest::fuzz(seeds, &mut log) {
        None => {
            eprintln!(
                "[difftest] {seeds} seed(s): zero divergences ({} ms)",
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

/// The `--trace-out` file. It is created before anything runs, so an
/// unwritable path is a usage error rather than a panic after the run.
struct TraceOut {
    path: String,
    file: File,
}

impl TraceOut {
    fn create(path: String) -> TraceOut {
        match File::create(&path) {
            Ok(file) => TraceOut { path, file },
            Err(e) => usage_error(&format!("--trace-out {path:?}: {e}")),
        }
    }

    /// Write `what`'s delivery trace, one delivery per line.
    fn write(mut self, what: &str, trace: &[String]) {
        let mut body = trace.join("\n");
        body.push('\n');
        if let Err(e) = self.file.write_all(body.as_bytes()) {
            usage_error(&format!("--trace-out {:?}: {e}", self.path));
        }
        eprintln!("[repro] wrote the {what} delivery trace -> {}", self.path);
    }
}

/// Pull `--flag value` or `--flag=value` out of `args`, consuming it.
fn take_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let prefix = format!("{flag}=");
    if let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 == args.len() {
            usage_error(&format!("{flag} needs a value"));
        }
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

/// [`take_value`], parsed; a value that does not parse is a usage error
/// naming what `flag` `expects`.
fn take_parsed<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
    expects: &str,
) -> Option<T> {
    take_value(args, flag).map(|v| {
        v.parse().unwrap_or_else(|_| usage_error(&format!("{flag} expects {expects}, got {v:?}")))
    })
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
    let shards: usize = take_parsed(&mut args, "--shards", "a number").unwrap_or(1);
    if shards == 0 {
        usage_error("--shards must be at least 1");
    }
    let trace_path = take_value(&mut args, "--trace-out");
    let quick = args.iter().any(|a| a == "--quick");
    if let Some(unknown) = args.iter().find(|a| a.starts_with("--") && *a != "--quick") {
        usage_error(&format!("unknown flag {unknown:?}"));
    }
    let selected: Vec<&str> =
        args.iter().filter(|a| !a.starts_with("--")).map(|s| s.as_str()).collect();
    if let Some(unknown) = selected.iter().find(|name| !EXPERIMENTS.contains(name)) {
        usage_error(&format!(
            "unknown experiment {unknown:?}; valid names: {}",
            EXPERIMENTS.join(" ")
        ));
    }
    let want = |name: &str| selected.is_empty() || selected.contains(&name);
    let traced: Vec<&str> = TRACED.into_iter().filter(|name| want(name)).collect();
    if shards > 1 && traced.is_empty() {
        usage_error("--shards > 1 needs one of e8 e9 e11 e12 selected");
    }
    let mut trace_out = trace_path.map(|path| {
        if traced.len() != 1 {
            usage_error(&format!(
                "--trace-out needs exactly one of e8 e9 e11 e12 selected, got {traced:?}"
            ));
        }
        TraceOut::create(path)
    });

    if want("e1") {
        eprintln!("[repro] running E1 (Fig. 2 latency, ARP-Path vs STP root sweep)...");
        let params = if quick { e1_latency::E1Params { probes: 20 } } else { Default::default() };
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
        let params =
            if quick { e3_linerate::E3Params { frames_per_size: 500 } } else { Default::default() };
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
        let params = if quick { e7_ablation::E7Params { probes: 20 } } else { Default::default() };
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
            let started = Instant::now();
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
        }
        verdict(
            "permutation spreads over a majority of cores (jain > 0.5, lossless)",
            results.iter().all(e8_fattree::verify_spread),
        );
        println!();
        if let Some(out) = trace_out.take() {
            out.write(
                "E8",
                &e8_fattree::delivery_trace(&e8_params(&ks[0]), TrafficPattern::Permutation),
            );
        }
    }

    if want("e9") {
        // Congestion sweep: modest host counts (closed-loop flows cost
        // far more events per host than E8's open-loop blasts).
        let ks: &[(usize, usize)] = if quick { &[(4, 2)] } else { &[(4, 4), (6, 4), (8, 4)] };
        let e9_params = |&(k, hosts_per_edge): &(usize, usize)| e9_congestion::E9Params {
            k,
            hosts_per_edge,
            segments: if quick { 16 } else { 32 },
            shards,
            ..Default::default()
        };
        let mut results = Vec::new();
        for kh in ks {
            let params = e9_params(kh);
            eprintln!(
                "[repro] running E9 (congested fabrics), k={}, {} hosts, {shards} shard(s)...",
                params.k,
                params.k * params.k / 2 * params.hosts_per_edge
            );
            let started = Instant::now();
            results.push(e9_congestion::run(&params));
            eprintln!(
                "[repro] e9 k={} took {} ms (3 modes x 2 patterns x 2 cc, {shards} shard(s))",
                params.k,
                started.elapsed().as_millis()
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
        verdict(
            "aimd beats the fixed window's p99 in at least one congested regime",
            e9_congestion::verify_aimd_beats_fixed_somewhere(&results),
        );
        println!();
        if let Some(out) = trace_out.take() {
            // The PFC hotspot run: pause/resume frames cross shard cuts.
            let params = e9_params(&ks[0]);
            let hotspot = TrafficPattern::Hotspot { hot_receivers: params.hot_receivers };
            out.write(
                "E9",
                &e9_congestion::delivery_trace(&params, e9_congestion::QueueMode::Pfc, hotspot),
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
            let started = Instant::now();
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
        if let Some(out) = trace_out.take() {
            // The undersized regime: carrier flaps, eviction churn and
            // repair floods all land in the trace.
            out.write(
                "E11",
                &e11_churn::delivery_trace(&e11_params(&ks[0]), e11_churn::TableRegime::Undersized),
            );
        }
    }

    if want("e12") {
        // The k=16 fabric at every shard count. Unlike e8/e9/e11,
        // `--shards` does not pick the engine here (the sweep covers
        // 1/2/4 itself); it selects the shard count for the
        // `--trace-out` capture, written from the matching sweep point.
        let params = if quick { e12_scale::E12Params::quick() } else { Default::default() };
        eprintln!(
            "[repro] running E12 (k=16 scale), k={}, {} hosts/edge, sweep {:?}...",
            params.k, params.hosts_per_edge, params.shard_counts
        );
        let started = Instant::now();
        let mut capture = trace_out.take();
        let result = e12_scale::run(&params, |swept, trace| {
            if swept == shards.min(params.k) {
                if let Some(out) = capture.take() {
                    out.write("E12", trace);
                }
            }
        });
        eprintln!("[repro] e12 sweep took {} ms", started.elapsed().as_millis());
        println!("{}", e12_scale::table(&result).render_markdown());
        println!("{}", e12_scale::footprint_table(&result).render_markdown());
        verdict("every shard count delivers every datagram", e12_scale::verify_delivery(&result));
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
        verdict(
            "merged delivery trace byte-identical at every shard count",
            e12_scale::verify_trace_identity(&result),
        );
        println!();
        // A `--shards` value the sweep does not cover gets a run of its own.
        if let Some(out) = capture {
            out.write("E12", &e12_scale::delivery_trace(&params, shards));
        }
    }

    eprintln!("[repro] done.");
    exit_with_verdicts();
}
