//! Fault-injection suite (requires `--features fault-inject`).
//!
//! Every injected failure — budget exhaustion at a chosen pipeline step, a
//! NaN/Inf entering a Schur block, a forced rank overflow in compression, a
//! failed hierarchical factorization — must surface as a structured `Err`,
//! never as a panic, a hang, or a silently wrong answer; and the process
//! must stay healthy: the same solve re-run clean immediately afterwards
//! succeeds with intact metrics. These paths are exactly the pipeline
//! error-drain code that used to hold `expect()` calls, so this file is also
//! the regression suite for their replacement with structured errors.

use csolve_common::Error;
use csolve_coupled::{solve, Algorithm, BlockSizes, DenseBackend, SolverConfig};
use csolve_testkit::fault::{FaultGuard, PoisonKind};
use csolve_testkit::{generate, ProblemSpec};

const SEED: u64 = 0xFA_017;

fn spec() -> ProblemSpec {
    ProblemSpec::new(SEED)
}

fn config(backend: DenseBackend) -> SolverConfig {
    SolverConfig {
        eps: 1e-8,
        dense_backend: backend,
        // Several panels / Schur blocks, several workers: faults land in a
        // genuinely concurrent pipeline with other blocks in flight.
        n_c: 24,
        n_s: 48,
        n_b: 3,
        num_threads: 4,
        ..Default::default()
    }
}

/// After a fault, the very same solve must succeed cleanly — no armed hook
/// left behind, no corrupted process-global state — with metrics intact.
fn assert_clean_resolve(
    p: &csolve_fembem::CoupledProblem<f64>,
    algo: Algorithm,
    backend: DenseBackend,
) {
    let out = solve(p, algo, &config(backend))
        .unwrap_or_else(|e| panic!("[seed {SEED}] clean re-solve after fault failed: {e}"));
    assert!(out.metrics.total_seconds > 0.0);
    assert!(out.metrics.peak_bytes > 0);
    assert_eq!(out.metrics.threads, 4);
    assert!(p.relative_error(&out.xv, &out.xs) < 1e-6);
}

#[test]
fn budget_exhaustion_at_each_pipeline_step_is_a_structured_oom() {
    let p = generate::<f64>(&spec());
    let guard = FaultGuard::acquire();
    for algo in [Algorithm::MultiSolve, Algorithm::MultiFactorization] {
        // Step 0 fails before any block commits; a later step fails with
        // other blocks in flight, exercising the scheduler/commit drain
        // (the former `expect()` sites in pipeline.rs and driver.rs).
        for step in [0usize, 2] {
            guard.admit_oom_at(step);
            let err = solve(&p, algo, &config(DenseBackend::Spido)).unwrap_err();
            assert!(
                err.is_oom(),
                "[seed {SEED}] {} step {step}: expected OOM, got {err}",
                algo.name()
            );
        }
        guard.disarm();
        assert_clean_resolve(&p, algo, DenseBackend::Spido);
    }
}

#[test]
fn nan_in_a_schur_panel_is_rejected_not_propagated() {
    let p = generate::<f64>(&spec());
    let guard = FaultGuard::acquire();
    for algo in [Algorithm::MultiSolve, Algorithm::MultiFactorization] {
        for kind in [PoisonKind::Nan, PoisonKind::Inf] {
            guard.poison_panel(kind);
            let err = solve(&p, algo, &config(DenseBackend::Spido)).unwrap_err();
            assert!(
                matches!(err, Error::NonFinite { .. }),
                "[seed {SEED}] {} {kind:?}: expected NonFinite, got {err}",
                algo.name()
            );
        }
        guard.disarm();
        assert_clean_resolve(&p, algo, DenseBackend::Spido);
    }
}

#[test]
fn nan_is_caught_by_the_compressed_backend_too() {
    let p = generate::<f64>(&spec());
    let guard = FaultGuard::acquire();
    guard.poison_panel(PoisonKind::Nan);
    let err = solve(&p, Algorithm::MultiSolve, &config(DenseBackend::Hmat)).unwrap_err();
    assert!(
        matches!(err, Error::NonFinite { .. }),
        "[seed {SEED}] expected NonFinite, got {err}"
    );
    guard.disarm();
    assert_clean_resolve(&p, Algorithm::MultiSolve, DenseBackend::Hmat);
}

#[test]
fn forced_rank_overflow_is_a_compression_failure() {
    // Oscillatory kernel and small leaves: the compressed Schur assembly has
    // admissible (low-rank) blocks whose numerical rank at eps exceeds 1 —
    // in the fully stored `S` of an unsymmetric system and in the lower
    // block triangle of a symmetric one.
    for symmetric in [false, true] {
        let spec = ProblemSpec {
            n_bem: 96,
            kappa: 1.5,
            symmetric,
            ..spec()
        };
        let p = generate::<f64>(&spec);
        let cfg = SolverConfig {
            hmat_leaf: 8,
            ..config(DenseBackend::Hmat)
        };
        let guard = FaultGuard::acquire();
        guard.rank_cap(1);
        let err = solve(&p, Algorithm::MultiSolve, &cfg).unwrap_err();
        assert!(
            matches!(err, Error::CompressionFailure { .. }),
            "[seed {}, symmetric {symmetric}] expected CompressionFailure, got {err}",
            spec.seed
        );
        guard.disarm();
        let out = solve(&p, Algorithm::MultiSolve, &cfg)
            .unwrap_or_else(|e| panic!("[seed {}] clean re-solve failed: {e}", spec.seed));
        assert!(p.relative_error(&out.xv, &out.xs) < 1e-6);
    }
}

#[test]
fn forced_rank_overflow_during_hlu_is_a_compression_failure() {
    // The factorization folds its dense-leaf products into low-rank leaves
    // through the same fallible compressed AXPY as the Schur accumulator,
    // so a rank cap armed *after* assembly must stop it with a structured
    // error — H-LU of a fully stored matrix and H-LDLᵀ of a half-stored
    // one, at any thread count, the block recursion's tasks included.
    use csolve_hmat::{ClusterTree, HLu, HMatrix, HOptions};
    let p = csolve_fembem::pipe_problem::<f64>(2_500);
    let tree = ClusterTree::build(&p.bem.points, 16);
    let bem = p.bem.permuted(&tree.perm);
    let opts = HOptions {
        eps: 1e-8,
        ..Default::default()
    };
    let oracle = |i, j| bem.eval(i, j);
    let guard = FaultGuard::acquire();
    for half in [false, true] {
        let build = || {
            if half {
                HMatrix::assemble_symmetric(&tree, &oracle, &opts)
            } else {
                HMatrix::assemble_root(&tree, &tree, &oracle, &opts)
            }
        };
        for threads in [1, 4] {
            let cell = format!("half-stored {half}, {threads} threads");
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let h = build();
            guard.rank_cap(1);
            let err = pool
                .install(|| HLu::factor(h, 1e-8).map(|_| ()))
                .unwrap_err();
            assert!(
                matches!(err, Error::CompressionFailure { .. }),
                "{cell}: expected CompressionFailure, got {err}"
            );
            guard.disarm();
            pool.install(|| HLu::factor(build(), 1e-8))
                .unwrap_or_else(|e| panic!("{cell}: clean factorization failed: {e}"));
        }
    }
}

#[test]
fn forced_sparse_front_rank_overflow_is_a_compression_failure() {
    // A larger FEM volume so at least one supernodal off-diagonal panel
    // clears the BLR size gate (`csolve_sparse::BLR_MIN_ROWS` ×
    // `csolve_sparse::BLR_MIN_COLS`); with the rank cap armed at 1 its
    // compression must overflow with a structured error, not a panic.
    let p = csolve_fembem::pipe_problem::<f64>(1_500);
    let cfg = SolverConfig {
        sparse_eps: Some(1e-9),
        ..config(DenseBackend::Spido)
    };
    let guard = FaultGuard::acquire();
    guard.sparse_rank_cap(1);
    let err = solve(&p, Algorithm::MultiSolve, &cfg).unwrap_err();
    assert!(
        matches!(err, Error::CompressionFailure { .. }),
        "[seed {SEED}] expected CompressionFailure, got {err}"
    );
    guard.disarm();
    let out = solve(&p, Algorithm::MultiSolve, &cfg)
        .unwrap_or_else(|e| panic!("[seed {SEED}] clean re-solve after fault failed: {e}"));
    assert!(p.relative_error(&out.xv, &out.xs) < 1e-6);
    // The clean run really exercised the compressed path the fault hit.
    let stats = out.metrics.sparse_compression.expect("compression was on");
    assert!(stats.panels_eligible > 0, "no panel cleared the BLR gate");
}

#[test]
fn failed_hierarchical_factorization_surfaces_as_err() {
    // H-LU of an unsymmetric system's `S`, H-LDLᵀ of a symmetric one's.
    for symmetric in [false, true] {
        let p = generate::<f64>(&ProblemSpec {
            symmetric,
            ..spec()
        });
        let guard = FaultGuard::acquire();
        guard.hlu_factor_failure();
        let err = solve(&p, Algorithm::MultiSolve, &config(DenseBackend::Hmat)).unwrap_err();
        assert!(
            matches!(err, Error::CompressionFailure { .. }),
            "[seed {SEED}, symmetric {symmetric}] expected CompressionFailure, got {err}"
        );
        drop(guard);
        // The guard's Drop disarmed everything; a fresh solve works. (Under
        // the lock again: another test's armed fault must not land in this
        // solve.)
        let _guard = FaultGuard::acquire();
        assert_clean_resolve(&p, Algorithm::MultiSolve, DenseBackend::Hmat);
    }
}

#[test]
fn faults_never_leave_an_armed_hook_behind() {
    let p = generate::<f64>(&spec());
    {
        let guard = FaultGuard::acquire();
        guard.admit_oom_at(0);
        guard.poison_panel(PoisonKind::Inf);
        guard.rank_cap(1);
        guard.sparse_rank_cap(1);
        guard.hlu_factor_failure();
        // Guard dropped with everything still armed.
    }
    let _guard = FaultGuard::acquire();
    assert_clean_resolve(&p, Algorithm::MultiSolve, DenseBackend::Hmat);
    assert_clean_resolve(&p, Algorithm::MultiFactorization, DenseBackend::Spido);
}

/// Budgeted multi-factorization under a disturbed schedule: seeded pauses
/// at every admission, finalize, park, fold-turn wait and release explore the
/// interleavings a loaded many-core host would produce. Whatever the
/// schedule, an admitted tile cannot run out of memory: every run succeeds,
/// inside the budget, with the bits of the 1-thread run. The two cells are
/// the conformance suite's tight autotuned budget (dense backend) and the
/// smallest power-of-two budget the fixed blocking fits sequentially
/// (compressed backend, so the folds charge too).
#[test]
fn schedule_jitter_never_breaks_a_budgeted_multi_factorization() {
    let guard = FaultGuard::acquire();
    let algo = Algorithm::MultiFactorization;
    type Cell = (BlockSizes, DenseBackend);
    let cfg = |(block_sizes, backend): Cell, budget: usize, num_threads| SolverConfig {
        block_sizes,
        mem_budget: Some(budget),
        num_threads,
        ..config(backend)
    };
    let spec = ProblemSpec {
        cond: 10.0,
        ..ProblemSpec::new(0xC0F_007)
    };
    let auto_p = generate::<f64>(&spec);
    let auto = (BlockSizes::Auto, DenseBackend::Spido);
    let peak = solve(&auto_p, algo, &cfg(auto, usize::MAX, 1)).unwrap();
    // The first budget below the fixed peak that the autotuner answers with
    // a finer, still feasible tile grid.
    let tight = [98, 95, 90, 85, 80, 75, 70, 60, 50, 40]
        .map(|pct| peak.metrics.peak_bytes * pct / 100)
        .into_iter()
        .find(|&b| {
            solve(&auto_p, algo, &cfg(auto, b, 1))
                .is_ok_and(|out| out.metrics.autotune.is_some_and(|d| d.degraded))
        })
        .expect("some scanned budget degrades the blocking and completes");
    let fixed_p = csolve_fembem::pipe_problem::<f64>(1_500);
    let fixed = (BlockSizes::Fixed, DenseBackend::Hmat);
    let pow2 = (18..34)
        .map(|shift| 1usize << shift)
        .find(|&b| solve(&fixed_p, algo, &cfg(fixed, b, 1)).is_ok())
        .expect("some budget fits the sequential run");

    for (cell, p, budget) in [(auto, &auto_p, tight), (fixed, &fixed_p, pow2)] {
        let reference = solve(p, algo, &cfg(cell, budget, 1)).unwrap();
        for seed in 0..16u64 {
            let run = format!("[jitter seed {seed}] {cell:?} under {budget} B at 4 thr");
            guard.schedule_jitter(seed);
            let out = solve(p, algo, &cfg(cell, budget, 4))
                .unwrap_or_else(|e| panic!("{run}: failed: {e}"));
            let peak = out.metrics.peak_bytes;
            assert!(peak <= budget, "{run}: peak {peak} exceeds the budget");
            assert!(
                out.xv == reference.xv && out.xs == reference.xs,
                "{run}: not bitwise-identical to the 1-thread run"
            );
        }
        guard.disarm();
    }
}
