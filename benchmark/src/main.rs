//! `benchmark`: end-to-end and per-layer numbers for the ARP-Path
//! simulator on five fat-tree workloads. See `README.md`.
//!
//! ```text
//! benchmark run --workload W --seed N --seconds S --trace 0|1 [--out FILE]
//! benchmark all [--seed N] [--seconds S] [--commit HASH] --out FILE
//! benchmark compare A.json B.json
//! benchmark check-fidelity
//! benchmark manifest
//! ```

mod compare;
mod fidelity;
mod json;
mod layers;
mod metrics;
mod run;
mod scenario;
mod stats;
mod trace;

use json::Json;
use scenario::WORKLOADS;
use std::process::{Command, ExitCode};

const USAGE: &str =
    "usage: benchmark run --workload W --seed N --seconds S --trace 0|1 [--out FILE]
       benchmark all [--seed N] [--seconds S] [--commit HASH] --out FILE
       benchmark compare A.json B.json
       benchmark check-fidelity
       benchmark manifest";

/// `--flag value` pairs of one subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        for pair in args.chunks(2) {
            let [flag, value] = pair else { return Err(format!("{} needs a value", pair[0])) };
            let name = flag.strip_prefix("--").filter(|n| known.contains(n));
            let name = name.ok_or_else(|| format!("unknown argument {flag}"))?;
            pairs.push((name.to_owned(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match self.get(name) {
            Some(v) => v.parse().map_err(|_| format!("--{name} {v}: not a valid number")),
            None => default.ok_or_else(|| format!("--{name} is required")),
        }
    }
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

/// `run`: one workload, one process, the driver's result line last.
fn cmd_run(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["workload", "seed", "seconds", "trace", "out"])?;
    let name = flags.get("workload").ok_or("--workload is required")?;
    let workload = WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        format!("unknown workload {name}; the set is closed: {}", workload_names())
    })?;
    let seed: u64 = flags.number("seed", None)?;
    let seconds: f64 = flags.number("seconds", None)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds {seconds}: must be positive"));
    }
    let trace = match flags.get("trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other}: 0 or 1")),
    };

    let report = run::run(workload, seed, seconds, trace, run::MIN_REPS);
    println!(
        "workload {} seed {seed} trace {} reps {} threads {}",
        report.workload,
        u8::from(trace),
        report.reps,
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    for m in &report.metrics {
        match m.spread {
            Some(s) => println!(
                "{} {} {} (min {} median {} max {} over {})",
                m.name, m.value, m.unit, s.min, s.median, s.max, s.reps
            ),
            None => println!("{} {} {}", m.name, m.value, m.unit),
        }
    }
    for p in &report.problems {
        println!("FAILED CHECK: {p}");
    }
    if let Some(path) = flags.get("out") {
        write_file(path, &(report.record().render() + "\n"))?;
    }
    println!("{}", report.result_line().render());
    Ok(report.correct())
}

fn workload_names() -> String {
    WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
}

/// `all`: every workload, untraced then traced, each in a child process
/// of its own, one after the other; the records are gathered into one
/// file.
fn cmd_all(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["seed", "seconds", "commit", "out"])?;
    let seed: u64 = flags.number("seed", Some(1))?;
    let seconds: f64 = flags.number("seconds", Some(metrics::RUN_SECONDS as f64))?;
    let out = flags.get("out").ok_or("--out is required")?;
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for workload in &WORKLOADS {
        for trace in ["0", "1"] {
            let part = format!("{out}.{}.trace{trace}.part", workload.name);
            let status = Command::new(&exe)
                .args(["run", "--workload", workload.name, "--trace", trace, "--out", &part])
                .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
                .status()
                .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
            all_correct &= status.success();
            let text = std::fs::read_to_string(&part).map_err(|e| format!("{part}: {e}"))?;
            runs.push(Json::parse(&text).map_err(|e| format!("{part}: {e}"))?);
            std::fs::remove_file(&part).map_err(|e| format!("{part}: {e}"))?;
        }
    }
    let meta = Json::obj([
        ("commit", Json::str(flags.get("commit").unwrap_or("unknown"))),
        ("nproc", Json::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
    ]);
    let doc = Json::obj([("meta", meta), ("runs", Json::Arr(runs))]);
    write_file(out, &(doc.render() + "\n"))?;
    println!("wrote {out}");
    Ok(all_correct)
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else { return Err("compare takes two result files".to_owned()) };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, any_worse) = compare::compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    Ok(!any_worse)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "run" => cmd_run(rest),
            "all" => cmd_all(rest),
            "compare" => cmd_compare(rest),
            "check-fidelity" => fidelity::check().map(|n| {
                println!("{n} scenarios reproduce their experiments' delivery traces");
                true
            }),
            "manifest" => {
                println!("{}", metrics::manifest().render());
                Ok(true)
            }
            other => Err(format!("unknown command {other}\n{USAGE}")),
        },
        None => Err(USAGE.to_owned()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenario::{smoke_shape, Workload};

    /// The harness itself, end to end, on k=4 stand-ins: both modes of
    /// every shape (and the sharded twin) run, pass their own checks and
    /// report every metric. Numbers are discarded.
    #[test]
    fn smoke_every_shape_in_both_modes() {
        for w in &WORKLOADS {
            let small = Workload { shape: smoke_shape(w.shape), ..*w };
            for trace in [false, true] {
                let report = run::run(&small, 7, 0.0, trace, 1);
                assert!(report.correct(), "{} trace={trace}: {:?}", w.name, report.problems);
                let expected =
                    if trace { metrics::PER_LAYER.len() } else { metrics::END_TO_END.len() };
                assert_eq!(report.metrics.len(), expected);
                assert!(report.metrics.iter().all(|m| m.value.is_finite()), "{:?}", report.metrics);
                assert_eq!(report.outcome.ops_failed, 0, "{}", w.name);
                // Both renderings survive the writer and the parser.
                Json::parse(&report.record().render()).expect("record parses");
                let line = Json::parse(&report.result_line().render()).expect("result line parses");
                assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            }
        }
    }

    #[test]
    fn flags_reject_what_they_do_not_know() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        assert!(Flags::parse(&args("--seed 1 --bogus 2"), &["seed"]).is_err());
        assert!(Flags::parse(&args("--seed"), &["seed"]).is_err());
        let flags = Flags::parse(&args("--seed 1 --seed 9"), &["seed"]).unwrap();
        assert_eq!(flags.number::<u64>("seed", None), Ok(9));
        assert!(flags.number::<u64>("seconds", None).is_err());
        assert!(Flags::parse(&args("--seed x"), &["seed"])
            .unwrap()
            .number::<u64>("seed", None)
            .is_err());
    }
}
