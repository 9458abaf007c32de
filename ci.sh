#!/usr/bin/env bash
# Full local CI: formatting, lints, docs (warnings fatal), all tests.
# The workspace builds offline; vendor/ holds the dependency stand-ins.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo clippy --features fault-inject (hooks must not bit-rot)"
cargo clippy --workspace --all-targets --offline \
  --features csolve/fault-inject -- -D warnings

echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> doc-examples (façade + sparse BLR examples must run)"
cargo test --doc --offline -q -p csolve -p csolve-sparse

echo "==> README config table covers every SolverConfig field"
# Docs-drift check: every public field of SolverConfig must have a row (a
# backticked first column) in README.md's Configuration table.
missing=0
for m in $(sed -n '/^pub struct SolverConfig {/,/^}/p' crates/core/src/config.rs \
            | sed -n 's/^ *pub \([a-z_0-9]*\):.*/\1/p' | sort -u); do
  if ! grep -q "^| \`$m\` |" README.md; then
    echo "   MISSING from README config table: $m"
    missing=1
  fi
done
test "$missing" -eq 0

echo "==> public API surface matches the committed snapshot"
# API-drift check: the names re-exported at the root of the csolve façade
# (plus its module aliases) must match api_surface.txt exactly. A diff means
# the public API changed: if intentional, regenerate the snapshot with the
# same pipeline and commit it alongside the change. (awk, not a sed range:
# a one-line `pub use …;` must close the statement it opens.)
{
  awk '/^pub use /{p=1} p{print} p&&/;$/{p=0}' crates/integration/src/lib.rs \
    | tr ',{}' '\n' | sed 's/pub use //; s/;$//; s/^ *//; s/ *$//' \
    | grep -v '::' | grep -v '^$'
  grep '^pub mod ' crates/integration/src/lib.rs \
    | sed 's/^pub mod \([a-z_0-9]*\).*/mod \1/'
} | sort -u > target/api_surface.txt
diff -u api_surface.txt target/api_surface.txt
# ... and the snapshot itself is the committed one: a regenerated but
# uncommitted api_surface.txt must not turn the check above green.
git diff --exit-code HEAD -- api_surface.txt

echo "==> cargo test (conformance suite in smoke profile)"
[ "$(nproc)" -gt 1 ] || echo "WARNING: nproc = 1 — thread-count cells ran without real concurrency"
# The conformance grid runs its reduced sweep under CSOLVE_CONFORMANCE=smoke;
# unset the variable (or run `cargo test --test conformance`) for the full
# {algorithm x backend x threads x symmetry x conditioning} matrix.
CSOLVE_CONFORMANCE=smoke cargo test --workspace --offline -q

echo "==> the rayon stand-in's own tests (vendor/ is not in the workspace)"
cargo test --offline -q --manifest-path vendor/rayon/Cargo.toml --target-dir target/vendor_rayon

echo "==> flake gate: the budgeted multi-threaded cells, five times each"
# "Admitted => cannot run out of memory" is a scheduling property: one green
# run proves little. The conformance budget test runs at its full thread
# counts here (not the smoke profile), and so do the budget cells of
# parallel_pipeline and its symmetric cells (lower-triangle tiles and
# lower-trapezoid multi-solve panels folded into the half-stored SPIDO and
# HMAT S, fixed and budget-degraded blocking, 1/2/4/8 threads; the HMAT
# multi-solve one also under seeded schedule jitter at 8 threads), the session's
# budgeted width-4 panels under the same jitter, and multi-solve's fused Z
# when the budget refuses every extra lane workspace (fewer concurrent
# chunks, the same bits); the first red run fails CI.
for i in 1 2 3 4 5; do
  env -u CSOLVE_CONFORMANCE \
    cargo test --offline -q --test conformance autotuned_blocking_under_memory_budgets
  cargo test --offline -q --test parallel_pipeline -- budget symmetric_
  cargo test --offline -q -p csolve-coupled --lib -- refuses_every_extra_workspace
  cargo test --offline -q -p csolve --features fault-inject --test parallel_pipeline \
    -- schedule_jitter
  cargo test --offline -q -p csolve --features fault-inject --test session \
    -- schedule_jitter
done

echo "==> cargo test --features fault-inject (fault-injection suite)"
CSOLVE_CONFORMANCE=smoke cargo test -p csolve --offline -q \
  --features fault-inject

echo "==> csolve façade builds with --no-default-features"
cargo build --offline -p csolve --no-default-features

echo "==> kernels_report smoke run (kernel throughput gate)"
# Gates and thresholds: the //! doc of crates/bench/src/bin/kernels_report.rs.
cargo run --release --offline -q --bin kernels_report -- --smoke > /dev/null

echo "==> autotune_report smoke run"
# Gates: the //! doc of crates/bench/src/bin/autotune_report.rs.
cargo run --release --offline -q --bin autotune_report -- --smoke > /dev/null

echo "==> blr_report smoke run"
# Gates: the //! doc of crates/bench/src/bin/blr_report.rs.
cargo run --release --offline -q --bin blr_report -- --smoke > /dev/null

echo "==> session_report smoke run"
# Gates: the //! doc of crates/bench/src/bin/session_report.rs.
cargo run --release --offline -q --bin session_report -- --smoke > /dev/null

echo "==> figure and table generators, once each at a small size"
# No gates: catches a generator that panics or no longer accepts its flags.
cargo run --release --offline -q --bin table1 > /dev/null
cargo run --release --offline -q --bin fig12_multisolve_tradeoff -- --n 1500 > /dev/null
cargo run --release --offline -q --bin fig13_multifact_tradeoff -- --n 1500 > /dev/null
cargo run --release --offline -q --bin fig10_capacity -- --max-n 4000 > /dev/null
cargo run --release --offline -q --bin table2_industrial -- --n 1500 > /dev/null

echo "==> trace smoke run"
# The quickstart writes its JSONL trace and run report through the façade;
# trace_smoke's checks are listed in its //! doc.
CSOLVE_QUICKSTART_N=2000 CSOLVE_TRACE_OUT=target/ci_quickstart \
  cargo run --release --offline -q -p csolve --example quickstart > /dev/null
test -s target/ci_quickstart.trace.jsonl
test -s target/ci_quickstart.report.json
cargo run --release --offline -q -p csolve-bench --bin trace_smoke

echo "==> benchmark package (own workspace: build, unit tests, smoke run)"
# benchmark/ is its own cargo workspace compiled against the csolve façade,
# so nothing above notices when a refactor breaks the paths it uses. Same
# target directory as benchmark/run.sh, so the smoke run reuses the build.
# The smoke run exits 1 on any gate failure: a failed solve, relative error
# out of bounds, a cross-thread or session-vs-one-shot bitwise mismatch, or
# a tracked peak over its budget.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/e2e_bench_build}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --offline -q --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --smoke > /dev/null

echo "CI OK"
