//! Golden pin for the `repro e1 e2 e3 e5 e6 e7 --quick` tables.
//!
//! These six experiments are the only experiment runs of
//! `NetFpgaSwitch` and the STP logic; their headline verdicts are
//! checked elsewhere, their tables here. The run is deterministic, so
//! its whole stdout — every table row and every verdict line — is
//! pinned as an FNV-1a 64 digest plus a line count.
//!
//! To re-capture after a deliberate behaviour change, build the commit
//! whose output should become the reference and run
//!
//! ```text
//! cargo run --release -p arppath-bench --bin repro -- e1 e2 e3 e5 e6 e7 --quick > quick.out
//! ```
//!
//! then fold FNV-1a 64 (offset `0xcbf2_9ce4_8422_2325`, prime
//! `0x0000_0100_0000_01b3`) over the raw bytes of `quick.out` and count
//! its `\n` bytes; [`fnv1a64`] below is the reference fold. The
//! constants were captured that way before the bridge, NetFPGA and STP
//! settings that no caller varied were turned into constants, so that
//! change had to leave every byte of this output as it was.

use std::process::Command;

const GOLDEN_DIGEST: u64 = 0x906d_f843_7fc2_0a9b;
const GOLDEN_LINES: usize = 68;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |digest, &byte| {
        (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn quick_e1_to_e7_tables_match_their_pin() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["e1", "e2", "e3", "e5", "e6", "e7", "--quick"])
        .output()
        .expect("run repro");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert_eq!(
        (fnv1a64(&out.stdout), out.stdout.iter().filter(|&&b| b == b'\n').count()),
        (GOLDEN_DIGEST, GOLDEN_LINES),
        "the quick E1-E7 tables diverged from their pin:\n{stdout}"
    );
}
