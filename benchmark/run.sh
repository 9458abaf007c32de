#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it from the repository root.
#
#   benchmark/run.sh                       every workload, both runs, records under target/e2e_bench/
#   benchmark/run.sh --smoke               the same on small problems, < 30 s
#   benchmark/run.sh --seed N --workload NAME
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                          one run; its JSON result is the last line of stdout
#   benchmark/run.sh --compare OLD.json NEW.json
#
# The build lands in $CARGO_TARGET_DIR, or target/e2e_bench_build when that is
# unset; every other file the benchmark writes goes under target/e2e_bench/
# (or --out DIR).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/e2e_bench_build}"
exec cargo run --quiet --release --offline --manifest-path benchmark/Cargo.toml -- "$@"
