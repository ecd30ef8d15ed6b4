//! The `repro` binary's exit-code contract: a usage error (an unknown
//! experiment name or flag, a flag missing its value, a value that does
//! not parse, a flag combination the flag set rules out, an unwritable
//! `--trace-out` file) is one `[repro]` line and exit 2 before anything
//! runs, and a run whose headline verdicts all hold exits 0.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("run repro")
}

#[test]
fn unknown_experiment_names_exit_2_and_list_the_valid_ones() {
    let out = repro(&["bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("e1 e2 e3 e5 e6 e7 e8 e9 e11 e12"), "{stderr}");
}

#[test]
fn malformed_arguments_exit_2_with_one_line_before_running_anything() {
    let trace = std::env::temp_dir().join(format!("repro_cli_{}.trace", std::process::id()));
    let trace = trace.to_str().expect("utf-8 temp path");
    for args in [
        &["e8", "--shards", "x"][..],
        &["e8", "--shards"],
        &["e8", "--shards", "0"],
        &["difftest", "--seeds", "x"],
        &["difftest", "--seeds", "0"],
        &["difftest", "--seeds", "0", "--self-check"],
        &["difftest", "--bogus"],
        &["e1", "--quick", "--bogus-flag"],
        // Per-experiment knobs and modes that no longer exist.
        &["e9", "--quick", "--e9-watchdog-ms", "0"],
        &["e9", "--quick", "--e9-cc", "fixed"],
        &["e12", "--quick", "--e12-k", "8"],
        &["e12", "--quick", "--e12-shards", "1,2"],
        &["--incast-gate"],
        &["difftest", "--start", "3"],
        &["difftest", "--minimize-budget", "10"],
        // Flag combinations the flag set rules out.
        &["e1", "--quick", "--shards", "2"],
        &["e1", "--quick", "--trace-out", trace],
        &["e8", "e9", "--quick", "--trace-out", trace],
        &["--quick", "--trace-out", trace],
        &["e8", "--quick", "--trace-out", "/nonexistent-dir/e8.trace"],
    ] {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.starts_with("[repro] "), "{args:?}: {stderr}");
    }
    assert!(!std::path::Path::new(trace).exists(), "a refused run created its --trace-out file");
}

#[test]
fn holding_verdicts_exit_0() {
    let out = repro(&["e6", "--quick"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("suppression effective: HOLDS"), "{stdout}");
}
