//! The `repro` binary's exit-code contract: an unknown experiment name
//! is a usage error (exit 2), and a run whose headline verdicts all
//! hold exits 0.

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
fn holding_verdicts_exit_0() {
    let out = repro(&["e6", "--quick"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("suppression effective: HOLDS"), "{stdout}");
}
