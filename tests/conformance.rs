//! Conformance suite: every blockwise algorithm × dense backend × thread
//! count agrees with the dense reference oracle on seeded generated problems,
//! and results are bitwise-identical across thread counts.
//!
//! The sweep covers {MultiSolve, MultiFactorization} × {Spido, Hmat} ×
//! {1, 2, 4 threads} × {symmetric f64, unsymmetric C64} × {well-conditioned,
//! ill-conditioned}. Every assertion message carries the cell's generator
//! seed: to reproduce a failure in isolation, build the same `ProblemSpec`
//! from that seed (see EXPERIMENTS.md §Reproducing a conformance failure).
//!
//! Setting `CSOLVE_CONFORMANCE=smoke` (as ci.sh does) trims the sweep to the
//! symmetric well-conditioned column at 1–2 threads; the full grid runs by
//! default.

use csolve::testkit::oracle::{problem_tol, rel_err_l2, relative_residual, OracleSolution};
use csolve::testkit::{generate, oracle_solve, ProblemSpec};
use csolve::{
    solve, Algorithm, BlockSizes, DenseBackend, Scalar, SolverConfig, TraceScope, Tracer, C64,
};

const EPS: f64 = 1e-10;
const WELL_COND: f64 = 10.0;
const ILL_COND: f64 = 1e4;

fn smoke() -> bool {
    std::env::var("CSOLVE_CONFORMANCE").as_deref() == Ok("smoke")
}

fn thread_counts() -> &'static [usize] {
    if smoke() {
        &[1, 2]
    } else {
        &[1, 2, 4]
    }
}

fn config(backend: DenseBackend, threads: usize) -> SolverConfig {
    SolverConfig {
        eps: EPS,
        dense_backend: backend,
        // Small panels/blocks so the 160+72 problem genuinely exercises the
        // blockwise pipelines (several panels, several Schur blocks).
        n_c: 24,
        n_s: 48,
        n_b: 3,
        num_threads: threads,
        ..Default::default()
    }
}

/// {MultiSolve, MultiFactorization} × every dense backend, algorithm-major.
fn grid() -> Vec<(Algorithm, DenseBackend)> {
    [Algorithm::MultiSolve, Algorithm::MultiFactorization]
        .into_iter()
        .flat_map(|algo| DenseBackend::ALL.map(|backend| (algo, backend)))
        .collect()
}

/// Run the full {algorithm × backend × threads} grid on one generated
/// problem and check every cell against the oracle and against the
/// single-thread run of the same cell (bitwise).
fn check_grid<T: Scalar>(spec: &ProblemSpec, label: &str) {
    let p = generate::<T>(spec);
    let reference: OracleSolution<T> = oracle_solve(&p)
        .unwrap_or_else(|e| panic!("[seed {}] {label}: oracle failed: {e}", spec.seed));
    let oracle_err = rel_err_l2(&reference.xv, &reference.xs, &p.x_exact_v, &p.x_exact_s);
    let tol = problem_tol(spec.cond, EPS).max(100.0 * oracle_err);

    for (algo, backend) in grid() {
        let mut baseline: Option<(Vec<T>, Vec<T>)> = None;
        for &threads in thread_counts() {
            let cell = format!(
                "[seed {}] {label} / {} / {} / {threads} thr",
                spec.seed,
                algo.name(),
                backend.name()
            );
            let out = solve(&p, algo, &config(backend, threads))
                .unwrap_or_else(|e| panic!("{cell}: solve failed: {e}"));

            let err = rel_err_l2(&out.xv, &out.xs, &reference.xv, &reference.xs);
            assert!(
                err < tol,
                "{cell}: forward error vs oracle {err:.3e} exceeds tol {tol:.3e}"
            );
            let resid = relative_residual(&p, &out.xv, &out.xs);
            assert!(
                resid < tol,
                "{cell}: relative residual {resid:.3e} exceeds tol {tol:.3e}"
            );
            assert_eq!(
                out.metrics.threads, threads,
                "{cell}: metrics report wrong thread count"
            );

            match &baseline {
                None => baseline = Some((out.xv, out.xs)),
                Some((xv1, xs1)) => {
                    assert!(
                        *xv1 == out.xv && *xs1 == out.xs,
                        "{cell}: result is not bitwise-identical to the \
                         single-thread run of the same cell"
                    );
                }
            }
        }
    }
}

#[test]
fn symmetric_well_conditioned_real() {
    let spec = ProblemSpec {
        cond: WELL_COND,
        ..ProblemSpec::new(0xC0F_001)
    };
    check_grid::<f64>(&spec, "sym/well/f64");
}

/// `n_s` = 70 against the grid's `n_b` = 3: the last tile row and column are
/// short, so the symmetric multi-factorization folds rectangular lower tiles.
#[test]
fn symmetric_rectangular_edge_tiles_real() {
    let spec = ProblemSpec {
        n_bem: 70,
        cond: WELL_COND,
        ..ProblemSpec::new(0xC0F_008)
    };
    check_grid::<f64>(&spec, "sym/edge/f64");
}

#[test]
fn symmetric_ill_conditioned_real() {
    if smoke() {
        return;
    }
    let spec = ProblemSpec {
        cond: ILL_COND,
        ..ProblemSpec::new(0xC0F_002)
    };
    check_grid::<f64>(&spec, "sym/ill/f64");
}

#[test]
fn unsymmetric_well_conditioned_complex() {
    if smoke() {
        return;
    }
    let spec = ProblemSpec {
        symmetric: false,
        cond: WELL_COND,
        kappa: 1.2,
        ..ProblemSpec::new(0xC0F_003)
    };
    check_grid::<C64>(&spec, "unsym/well/C64");
}

#[test]
fn unsymmetric_ill_conditioned_complex() {
    if smoke() {
        return;
    }
    let spec = ProblemSpec {
        symmetric: false,
        cond: ILL_COND,
        kappa: 1.2,
        ..ProblemSpec::new(0xC0F_004)
    };
    check_grid::<C64>(&spec, "unsym/ill/C64");
}

/// The baseline (non-blockwise) algorithms are not part of the paper's
/// conformance grid but must agree with the oracle too — they are the
/// yardstick every speedup in EXPERIMENTS.md is measured against.
#[test]
fn baselines_agree_with_the_oracle() {
    let spec = ProblemSpec {
        cond: WELL_COND,
        ..ProblemSpec::new(0xC0F_005)
    };
    let p = generate::<f64>(&spec);
    let reference = oracle_solve(&p).unwrap();
    let tol = problem_tol(spec.cond, EPS);
    for algo in [Algorithm::BaselineCoupling, Algorithm::AdvancedCoupling] {
        for backend in DenseBackend::ALL {
            let out = solve(&p, algo, &config(backend, 2)).unwrap_or_else(|e| {
                panic!(
                    "[seed {}] {} / {}: solve failed: {e}",
                    spec.seed,
                    algo.name(),
                    backend.name()
                )
            });
            let err = rel_err_l2(&out.xv, &out.xs, &reference.xv, &reference.xs);
            assert!(
                err < tol,
                "[seed {}] {} / {}: forward error {err:.3e} exceeds {tol:.3e}",
                spec.seed,
                algo.name(),
                backend.name()
            );
        }
    }
}

/// Budget-governed cell: `BlockSizes::Auto` under three budgets per
/// blockwise algorithm —
///
/// * **ample** (4× the measured fixed-blocking peak): the autotuner keeps
///   the configured blocking (no degrade) and the run stays within budget;
/// * **tight** (the largest scanned fraction of the fixed peak that forces
///   a degraded blocking): the run completes, stays within budget, meets
///   the oracle tolerance, and is bitwise-identical at every thread count
///   (the selection depends only on thread-count-invariant inputs);
/// * **infeasible** (a sliver of the fixed peak): a structured
///   out-of-memory error, never a panic.
#[test]
fn autotuned_blocking_under_memory_budgets() {
    let spec = ProblemSpec {
        cond: WELL_COND,
        ..ProblemSpec::new(0xC0F_007)
    };
    let p = generate::<f64>(&spec);
    let reference = oracle_solve(&p).unwrap();
    let tol = problem_tol(spec.cond, EPS);

    let cells = if smoke() {
        vec![
            (Algorithm::MultiSolve, DenseBackend::Hmat),
            (Algorithm::MultiFactorization, DenseBackend::Hmat),
        ]
    } else {
        grid()
    };

    for (algo, backend) in cells {
        let cell = format!(
            "[seed {}] auto-budget / {} / {}",
            spec.seed,
            algo.name(),
            backend.name()
        );
        // Multi-solve runs at (n_c, n_s) = (48, 48): at the grid's (24, 48)
        // a panel's working set is so small that the factorization of A_vv
        // sets the peak, and no scanned budget leaves a degrade window.
        let base = |threads: usize| match algo {
            Algorithm::MultiSolve => SolverConfig {
                n_c: 48,
                n_s: 48,
                ..config(backend, threads)
            },
            _ => config(backend, threads),
        };
        let auto_cfg = |budget: usize, threads: usize| SolverConfig {
            block_sizes: BlockSizes::Auto,
            mem_budget: Some(budget),
            ..base(threads)
        };

        // Reference run: fixed blocking, unbounded — gives the peak the
        // budgets are scaled from.
        let fixed = solve(&p, algo, &base(1))
            .unwrap_or_else(|e| panic!("{cell}: unbounded fixed run failed: {e}"));
        let peak = fixed.metrics.peak_bytes;
        // Tracked peaks are exact byte counts: a change that adds, drops or
        // resizes no charge leaves them where they were. Pinned on the dense
        // backend (purely structural, no rank enters) at the grid's blocking,
        // at the values from before admission reserved a tile's whole
        // working set — reserving more must not *charge* more. Update only
        // with a change that means to move a charge: multi-factorization
        // read 438 816 B while its tiles still kept, charged and compressed
        // the factors of `W`; multi-solve read 208 296 B while a panel
        // reserved twice an `n_v`-row `Y` — now A_vv's frontal
        // factorization sets it, 112 392 + 73 728 B.
        if backend == DenseBackend::Spido {
            let pin = match algo {
                Algorithm::MultiSolve => 186_120,
                _ => 380_112,
            };
            let at_grid = solve(&p, algo, &config(backend, 1))
                .unwrap_or_else(|e| panic!("{cell}: unbounded grid run failed: {e}"));
            assert_eq!(at_grid.metrics.peak_bytes, pin, "{cell}");
        }
        assert!(
            fixed.metrics.autotune.is_none(),
            "{cell}: fixed blocking must not record an autotune decision"
        );

        // Ample: everything fits, the configured blocking survives.
        let ample = solve(&p, algo, &auto_cfg(4 * peak, 1))
            .unwrap_or_else(|e| panic!("{cell}: ample-budget run failed: {e}"));
        let d = ample
            .metrics
            .autotune
            .unwrap_or_else(|| panic!("{cell}: Auto run recorded no decision"));
        assert!(
            !d.degraded,
            "{cell}: ample budget must not degrade blocking"
        );
        assert!(
            ample.metrics.peak_bytes <= 4 * peak,
            "{cell}: ample run peak {} exceeds budget {}",
            ample.metrics.peak_bytes,
            4 * peak
        );
        assert!(
            ample.xv == fixed.xv && ample.xs == fixed.xs,
            "{cell}: an undegraded Auto run must match the fixed run bitwise"
        );

        // Tight: scan down from the fixed peak for the first budget the
        // model answers with a *smaller* blocking that still completes.
        let tight = [98, 95, 90, 85, 80, 75, 70, 60, 50, 40]
            .iter()
            .filter_map(|pct| {
                let budget = peak * pct / 100;
                match solve(&p, algo, &auto_cfg(budget, 1)) {
                    Ok(out) if out.metrics.autotune.is_some_and(|d| d.degraded) => {
                        Some((budget, out))
                    }
                    _ => None,
                }
            })
            .next();
        let Some((budget, tight_out)) = tight else {
            panic!("{cell}: no scanned budget produced a degraded-but-feasible run")
        };
        let d = tight_out.metrics.autotune.unwrap();
        assert!(
            d.predicted_peak <= budget,
            "{cell}: selected blocking predicts {} bytes over budget {budget}",
            d.predicted_peak
        );
        assert!(
            tight_out.metrics.peak_bytes <= budget,
            "{cell}: tight run peak {} exceeds budget {budget}",
            tight_out.metrics.peak_bytes
        );
        let resid = relative_residual(&p, &tight_out.xv, &tight_out.xs);
        assert!(
            resid < tol,
            "{cell}: tight run residual {resid:.3e} exceeds tol {tol:.3e}"
        );
        let err = rel_err_l2(&tight_out.xv, &tight_out.xs, &reference.xv, &reference.xs);
        assert!(
            err < tol,
            "{cell}: tight run forward error {err:.3e} exceeds tol {tol:.3e}"
        );
        // Bitwise determinism of the degraded run across thread counts.
        for &threads in thread_counts() {
            let out = solve(&p, algo, &auto_cfg(budget, threads))
                .unwrap_or_else(|e| panic!("{cell}: tight run at {threads} thr failed: {e}"));
            assert_eq!(
                out.metrics.autotune, tight_out.metrics.autotune,
                "{cell}: autotune decision drifted at {threads} thr"
            );
            assert!(
                out.xv == tight_out.xv && out.xs == tight_out.xs,
                "{cell}: tight run at {threads} thr is not bitwise-identical"
            );
        }

        // Infeasible: a budget no blocking can satisfy is a structured
        // error, not a panic.
        let e = solve(&p, algo, &auto_cfg((peak / 50).max(1), 1))
            .err()
            .unwrap_or_else(|| panic!("{cell}: infeasible budget unexpectedly succeeded"));
        assert!(
            e.is_oom(),
            "{cell}: infeasible budget must be OutOfMemory, got {e}"
        );
    }
}

/// The sparse-front BLR accuracy/determinism contract, on a pipe problem
/// large enough that off-diagonal factor panels clear the compression size
/// gate (`csolve::sparse::BLR_MIN_ROWS` × `csolve::sparse::BLR_MIN_COLS`):
///
/// * **accuracy** — for every `sparse_eps` in the sweep the solution stays
///   within `C·max(sparse_eps, EPS)` of the dense testkit oracle;
/// * **determinism** — each `(algorithm, sparse_eps)` cell is
///   bitwise-identical at every thread count, and the per-run compression
///   summary (panel counts, stored bytes, max rank) is identical too;
/// * **off means off** — `sparse_eps = 0.0` runs uncompressed: no
///   compression summary is recorded and, the Schur backend being dense,
///   the result does not depend on `eps` by a single bit;
/// * the compressed path genuinely ran: at the loosest tolerance at least
///   one panel compressed.
#[test]
fn sparse_eps_contract() {
    let p = csolve::pipe_problem::<f64>(1_500);
    let reference = oracle_solve(&p).unwrap();
    let cfg = |sparse_eps: f64, threads: usize| SolverConfig {
        sparse_eps: Some(sparse_eps),
        ..config(DenseBackend::Spido, threads)
    };

    for algo in [Algorithm::MultiSolve, Algorithm::MultiFactorization] {
        let name = algo.name();
        // The eps = 0 "forced off" run, at two dense-side tolerances.
        let zero = solve(&p, algo, &cfg(0.0, 1))
            .unwrap_or_else(|e| panic!("{name}: sparse_eps=0 run failed: {e}"));
        assert!(
            zero.metrics.sparse_compression.is_none(),
            "{name}: uncompressed run must not record a compression summary"
        );
        let loose = SolverConfig {
            eps: 1e-3,
            ..cfg(0.0, 1)
        };
        let loose = solve(&p, algo, &loose)
            .unwrap_or_else(|e| panic!("{name}: sparse_eps=0 run at eps=1e-3 failed: {e}"));
        assert!(
            zero.xv == loose.xv && zero.xs == loose.xs,
            "{name}: sparse_eps = 0.0 must run uncompressed, bitwise independent of eps"
        );

        for eps in [1e-6_f64, 1e-9, 1e-12] {
            let tol = 100.0 * eps.max(EPS);
            let mut baseline: Option<csolve::Outcome<f64>> = None;
            for &threads in thread_counts() {
                let cell = format!("{name} / sparse_eps={eps:.0e} / {threads} thr");
                let out = solve(&p, algo, &cfg(eps, threads))
                    .unwrap_or_else(|e| panic!("{cell}: solve failed: {e}"));
                let err = rel_err_l2(&out.xv, &out.xs, &reference.xv, &reference.xs);
                assert!(
                    err < tol,
                    "{cell}: forward error vs oracle {err:.3e} exceeds {tol:.3e}"
                );
                let stats = out
                    .metrics
                    .sparse_compression
                    .clone()
                    .unwrap_or_else(|| panic!("{cell}: no compression summary recorded"));
                assert_eq!(stats.eps, eps, "{cell}: summary records the wrong eps");
                assert!(
                    stats.panels_eligible > 0,
                    "{cell}: no panel cleared the gate"
                );
                match &baseline {
                    None => baseline = Some(out),
                    Some(first) => {
                        assert!(
                            first.xv == out.xv && first.xs == out.xs,
                            "{cell}: result is not bitwise-identical across thread counts"
                        );
                        assert_eq!(
                            first.metrics.sparse_compression, out.metrics.sparse_compression,
                            "{cell}: compression summary drifted across thread counts"
                        );
                    }
                }
            }
            if eps == 1e-6 {
                let stats = baseline.unwrap().metrics.sparse_compression.unwrap();
                assert!(
                    stats.panels_compressed > 0,
                    "{name}: nothing compressed at the loosest tolerance"
                );
            }
        }
    }
}

/// With sparse-front compression on, the canonical (scope, kind) trace
/// signature — `front_compress` events included — is identical at every
/// thread count: fronts are compressed by the factorizing thread in
/// postorder, never in a thread-count-dependent order. (The tiles discard
/// their factors uncompressed, so the events come from the `A_vv`
/// factorization, which compresses at this tolerance; the tiles' spans,
/// recorded concurrently in their block scopes, come before it.)
#[test]
fn compressed_front_traces_are_diffable() {
    let p = csolve::pipe_problem::<f64>(1_500);
    let mut signature: Option<Vec<(TraceScope, &'static str)>> = None;
    for &threads in thread_counts() {
        let tracer = Tracer::enabled();
        let cfg = SolverConfig {
            sparse_eps: Some(1e-6),
            tracer: tracer.clone(),
            ..config(DenseBackend::Spido, threads)
        };
        solve(&p, Algorithm::MultiFactorization, &cfg).unwrap();
        let sig: Vec<(TraceScope, &'static str)> = tracer
            .drain()
            .iter()
            .filter(|r| !matches!(r.payload.kind_name(), "budget_degrade" | "poisoned"))
            .map(|r| (r.scope, r.payload.kind_name()))
            .collect();
        assert!(
            sig.iter().any(|(_, k)| *k == "front_compress"),
            "{threads} thr: no front_compress event in the trace"
        );
        match &signature {
            None => signature = Some(sig),
            Some(first) => assert_eq!(
                *first, sig,
                "{threads} thr: compressed-front span sequence drifted"
            ),
        }
    }
}

/// Tracing-enabled cell: recording spans must not change the numerics (the
/// result stays bitwise-identical to the untraced run of the same cell),
/// and the canonical (scope, kind) span sequence is identical at every
/// thread count — traces are diffable.
#[test]
fn traced_cell_is_bitwise_identical_and_diffable() {
    let spec = ProblemSpec {
        cond: WELL_COND,
        ..ProblemSpec::new(0xC0F_006)
    };
    let p = generate::<f64>(&spec);
    let (algo, backend) = (Algorithm::MultiSolve, DenseBackend::Hmat);
    let mut signature: Option<Vec<(TraceScope, &'static str)>> = None;
    for &threads in thread_counts() {
        let untraced = solve(&p, algo, &config(backend, threads)).unwrap();
        let tracer = Tracer::enabled();
        let mut cfg = config(backend, threads);
        cfg.tracer = tracer.clone();
        let traced = solve(&p, algo, &cfg).unwrap();
        assert!(
            untraced.xv == traced.xv && untraced.xs == traced.xs,
            "[seed {}] {threads} thr: tracing changed the numerics",
            spec.seed
        );
        let sig: Vec<(TraceScope, &'static str)> = tracer
            .drain()
            .iter()
            .filter(|r| !matches!(r.payload.kind_name(), "budget_degrade" | "poisoned"))
            .map(|r| (r.scope, r.payload.kind_name()))
            .collect();
        assert!(!sig.is_empty(), "[seed {}] empty trace", spec.seed);
        match &signature {
            None => signature = Some(sig),
            Some(first) => assert_eq!(
                *first, sig,
                "[seed {}] {threads} thr: span sequence drifted",
                spec.seed
            ),
        }
    }
}
