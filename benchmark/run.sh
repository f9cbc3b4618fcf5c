#!/usr/bin/env bash
# The benchmark's one command. Builds the driver in release mode, then runs
# it from the root of the checkout:
#
#   benchmark/run.sh [--seed 7] [--rounds 5] [--workload NAME] [--out FILE]
#       the suite: interleaved rounds of every workload, one traced round
#       each, every metric printed, benchmark/results/latest.json written
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload; the last line is the result object
#   benchmark/run.sh --check            tiny inputs, one round, all checks
#   benchmark/run.sh --compare A.json B.json
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
# Share the repository's target directory unless the caller chose one.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
# Build output goes to stderr: stdout carries results only.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/mega-benchmark" "$@"
