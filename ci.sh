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

echo "==> flake gate: the budgeted multi-threaded cells, five times each"
# "Admitted => cannot run out of memory" is a scheduling property: one green
# run proves little. The conformance budget test runs at its full thread
# counts here (not the smoke profile), and so do the budget cells of
# parallel_pipeline and its symmetric multi-factorization cell (mirrored
# folds, fixed and budget-degraded grids, 1/2/4/8 threads); the first red run
# fails CI.
for i in 1 2 3 4 5; do
  env -u CSOLVE_CONFORMANCE \
    cargo test --offline -q --test conformance autotuned_blocking_under_memory_budgets
  cargo test --offline -q --test parallel_pipeline -- budget symmetric_multi_factorization
done

echo "==> cargo test --features fault-inject (fault-injection suite)"
CSOLVE_CONFORMANCE=smoke cargo test -p csolve --offline -q \
  --features fault-inject

echo "==> csolve façade builds with --no-default-features"
cargo build --offline -p csolve --no-default-features

echo "==> kernels_report smoke run (kernel throughput gate)"
# Small sizes, few reps; writes target/BENCH_kernels_smoke.json so the
# committed BENCH_kernels.json is never clobbered by CI. Under --smoke the
# binary enforces the kernel contract and exits non-zero on regression
# (every gate a same-run ratio or a bit check, none a frozen GF/s):
# c64 blocked-serial GEMM must be >= 3x the naive reference kernel of the
# same run (the split-plane kernel measures 6-7x, the interleaved complex
# kernel it replaced 2x), blocked GEMM must never measure below the naive
# reference at gated sizes; the unpacked small-shape route (what `gemm`
# picks for f64 at 300x32 . 32x32 and (300x32)^T . 300x32, one chunk of the
# sparse panel solve) must be >= 1.3x `gemm_packed` on the same operands
# (the gemm_300x32x32_N / gemm_32x300x32_T `dispatch` entries: measure
# 1.5-1.7 / 1.4-1.7; c64 entries are printed, not gated - complex has no
# vector tile there); a rounded low-rank addition
# (norm_fro + recompress, 200 rank-10+10 sums on 64x64, f64 and c64) may
# cost at most 4.0x the rank-revealing QR of the same blocks formed dense
# (recompress_vs_rrqr: 5.6-8.4 with the unpreconditioned Jacobi SVD and
# explicit-Q rebuild, 3.0-3.3 with the preconditioned one);
# and solve_sparse_rhs of a 128-column A_vs panel on pipe-4k must give the
# same bits at P = min(nproc, 4) threads as at 1 and take at most 0.75 of
# the 1-thread wall (sparse_panel_solve: 1.06-1.10 before the chunked
# solve, 0.51-0.66 with it on 2 cores; prints SKIPPED when nproc = 1); and
# the column-blocked solve kernels must be >= 2x one call per column on the
# same operands and equal to those calls bit for bit (column_blocked:
# trsm_left(Lower, Trans, Unit) k = 64, nrhs = 32 against 32 single-column
# calls, and gemm under with_colwise_det at 300x64 . 64x8 against its eight
# matvec calls; both measure ~3.5, a per-column loop reads 1.0).
cargo run --release --offline -q --bin kernels_report -- --smoke > /dev/null

echo "==> autotune_report smoke run"
# Tier-2 assertion baked into the binary: every successful BlockSizes::Auto
# run must measure within 1.25x of the cost model's predicted peak and
# inside its budget, and at the tightest budget fraction the autotuned run
# must succeed where fixed blocking is out of memory. Writes
# target/BENCH_autotune_smoke.json so the committed BENCH_autotune.json is
# never clobbered by CI.
cargo run --release --offline -q --bin autotune_report -- --smoke > /dev/null

echo "==> blr_report smoke run"
# Tier-2 assertion baked into the binary: under a budget between the
# compressed and uncompressed multi-factorization peaks, the uncompressed
# run must OOM while the sparse_eps=1e-9 run completes with rel error
# <= 1e-7 (the Table-II walkthrough); and in the traced A_vv factorization
# of every sparse_eps row the Compress span may be at most 0.5 of the
# SparseFrontFactor span (a same-run ratio: 0.73-0.76 when every attempt
# paid for the SVD normal form, 0.24-0.27 rank-first). Writes
# target/BENCH_blr_smoke.json so the committed BENCH_blr.json is never
# clobbered by CI.
cargo run --release --offline -q --bin blr_report -- --smoke > /dev/null

echo "==> session_report smoke run"
# Tier-2 assertion baked into the binary: the session's batched multi-RHS
# path must reach >= 1.5x the throughput of one full solve per RHS at panel
# width >= 4, and a cache hit must beat a full re-solve. Writes
# target/BENCH_session_smoke.json so the committed BENCH_session.json is
# never clobbered by CI.
cargo run --release --offline -q --bin session_report -- --smoke > /dev/null

echo "==> trace smoke run"
# Quickstart through the façade with tracing on (writes + re-parses the
# JSONL trace and the run report), then the dedicated smoke binary:
# golden phase names, identical span sequence at 1/2/4 threads, and the
# <2% tracing-overhead budget.
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
