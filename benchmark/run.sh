#!/usr/bin/env bash
# Build the benchmark, run every workload (untraced for the end-to-end
# metrics, then traced for the per-layer ones; one child process at a
# time) and write results/latest.json. Exits non-zero if the build or
# any workload's output check fails. Extra arguments go to `benchmark
# all` (e.g. --seed 7 --seconds 5).
set -euo pipefail
cd "$(dirname "$0")"
commit=$(git -C .. rev-parse HEAD 2>/dev/null || echo unknown)
cargo run --release --offline --locked --quiet -- \
    all --commit "$commit" --out results/latest.json "$@"
