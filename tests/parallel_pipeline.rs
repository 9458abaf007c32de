//! Guarantees of the task-parallel blockwise Schur pipeline: bitwise
//! reproducibility across thread counts, and budget-respecting admission
//! when blocks run concurrently.

use csolve_common::{RealScalar, Scalar, C64};
use csolve_coupled::{solve, Algorithm, BlockSizes, DenseBackend, SolverConfig};
use csolve_fembem::{industrial_problem, pipe_problem, CoupledProblem};

fn cfg(threads: usize) -> SolverConfig {
    SolverConfig {
        eps: 1e-4,
        dense_backend: DenseBackend::Hmat,
        n_c: 32,
        n_s: 128,
        n_b: 3,
        num_threads: threads,
        ..Default::default()
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The pipeline commits block contributions in a fixed order, so the
/// (non-associative) compressed AXPYs fold identically for every thread
/// count: the solutions must match bit for bit, not just to tolerance. And
/// `n_c` caps the columns a panel's sparse solve runs at once and nothing
/// else: at a fixed Schur panel width every `n_c` gives the same bits. On
/// HMAT for a symmetric and an unsymmetric system (`n_S` = 128), and on
/// SPIDO, whose panels are `n_c` wide and fold each column of `S` once.
#[test]
fn multi_solve_is_bitwise_identical_for_1_2_4_threads() {
    fn check<T: Scalar>(p: &CoupledProblem<T>, backend: DenseBackend) {
        let lanes = |v: &[T]| -> Vec<(u64, u64)> {
            v.iter()
                .map(|x| (x.real().to_f64().to_bits(), x.imag().to_f64().to_bits()))
                .collect()
        };
        let run = |n_c: usize, threads: usize| {
            let cfg = SolverConfig {
                dense_backend: backend,
                n_c,
                ..cfg(threads)
            };
            let out = solve(p, Algorithm::MultiSolve, &cfg).unwrap();
            assert_eq!(out.metrics.threads, threads);
            (lanes(&out.xv), lanes(&out.xs))
        };
        let n_s = cfg(1).n_s;
        assert!(p.n_bem() > n_s, "several Schur panels");
        let reference = run(n_s, 1);
        for threads in [1usize, 2, 4] {
            for n_c in [24, 32, 96, n_s] {
                assert!(
                    run(n_c, threads) == reference,
                    "{} / symmetric {}: n_c = {n_c}, {threads} threads diverged from n_c = {n_s}, 1 thread",
                    backend.name(),
                    p.symmetric
                );
            }
        }
    }
    let pipe = pipe_problem::<f64>(2_000);
    check(&pipe, DenseBackend::Hmat);
    check(&pipe, DenseBackend::Spido);
    check(&industrial_problem::<C64>(800), DenseBackend::Hmat);
}

#[test]
fn multi_factorization_is_bitwise_identical_for_1_2_4_threads() {
    let p = pipe_problem::<f64>(1_500);
    let reference = solve(&p, Algorithm::MultiFactorization, &cfg(1)).unwrap();
    for threads in [2usize, 4] {
        let out = solve(&p, Algorithm::MultiFactorization, &cfg(threads)).unwrap();
        assert_eq!(
            bits(&out.xv),
            bits(&reference.xv),
            "x_v diverged with {threads} threads"
        );
        assert_eq!(
            bits(&out.xs),
            bits(&reference.xs),
            "x_s diverged with {threads} threads"
        );
    }
}

/// One symmetric-system cell family: `algo` on `backend`, at the configured
/// blocking and at the blocking `BlockSizes::Auto` degrades to under a budget
/// (the largest scanned one under the fixed run's peak that degrades and
/// then fits), bitwise-identical at 1 / 2 / 4 / 8 threads, with no thread
/// count over the budget.
fn check_symmetric_cells(algo: Algorithm, backend: DenseBackend) {
    let p = pipe_problem::<f64>(1_500);
    assert!(p.symmetric);
    let fixed = |threads: usize| SolverConfig {
        dense_backend: backend,
        ..cfg(threads)
    };
    let reference = solve(&p, algo, &fixed(1)).unwrap();
    let auto = |budget: usize, threads: usize| SolverConfig {
        block_sizes: BlockSizes::Auto,
        mem_budget: Some(budget),
        ..fixed(threads)
    };
    let name = format!("{} / {}", algo.name(), backend.name());
    let (budget, auto_reference) = [90, 80, 70, 60, 50]
        .iter()
        .find_map(|pct| {
            let budget = reference.metrics.peak_bytes / 100 * pct;
            let out = solve(&p, algo, &auto(budget, 1)).ok()?;
            out.metrics
                .autotune
                .is_some_and(|d| d.degraded)
                .then_some((budget, out))
        })
        .unwrap_or_else(|| panic!("{name}: no scanned budget degrades the blocking"));
    for threads in [2usize, 4, 8] {
        let cell = format!("{name} / {threads} threads");
        let out = solve(&p, algo, &fixed(threads)).unwrap();
        assert!(
            bits(&out.xv) == bits(&reference.xv) && bits(&out.xs) == bits(&reference.xs),
            "{cell}: fixed blocking diverged from the 1-thread bits"
        );
        let out = solve(&p, algo, &auto(budget, threads))
            .unwrap_or_else(|e| panic!("{cell} under budget {budget}: {e}"));
        assert_eq!(
            out.metrics.autotune, auto_reference.metrics.autotune,
            "{cell}: autotune decision drifted"
        );
        assert!(
            out.metrics.peak_bytes <= budget,
            "{cell}: peak {} exceeds budget {budget}",
            out.metrics.peak_bytes
        );
        assert!(
            bits(&out.xv) == bits(&auto_reference.xv) && bits(&out.xs) == bits(&auto_reference.xs),
            "{cell}: budgeted Auto blocking diverged from the 1-thread bits"
        );
    }
}

/// A symmetric system's multi-factorization computes lower-triangle tiles
/// only and folds each once, in block order, into the half-stored HMAT `S`
/// (its lower block triangle), factored as H-LDLᵀ.
#[test]
fn symmetric_multi_factorization_is_bitwise_identical_for_1_2_4_8_threads() {
    check_symmetric_cells(Algorithm::MultiFactorization, DenseBackend::Hmat);
}

/// The same tiles folded into the half-stored SPIDO `S` — its lower
/// triangle in column blocks, a diagonal tile's upper part not folded —
/// factored by the blocked LDLᵀ whose later blocks update concurrently.
#[test]
fn symmetric_spido_multi_factorization_is_bitwise_identical_for_1_2_4_8_threads() {
    check_symmetric_cells(Algorithm::MultiFactorization, DenseBackend::Spido);
}

/// Multi-solve folds lower-trapezoid column panels (the rows from the first
/// one stored in the panel's first column) into the half-stored HMAT `S`
/// and factors it as H-LDLᵀ.
#[test]
fn symmetric_hmat_multi_solve_is_bitwise_identical_for_1_2_4_8_threads() {
    check_symmetric_cells(Algorithm::MultiSolve, DenseBackend::Hmat);
}

/// Multi-solve's lower-trapezoid panels — `Z`'s rows from the panel's first
/// column down — folded into the half-stored SPIDO `S`.
#[test]
fn symmetric_spido_multi_solve_is_bitwise_identical_for_1_2_4_8_threads() {
    check_symmetric_cells(Algorithm::MultiSolve, DenseBackend::Spido);
}

/// The half-stored paths under a disturbed schedule: multi-solve and
/// multi-factorization, each on SPIDO and HMAT, with seeded pauses at every
/// admission, finalize, hand-off and release, 8 threads on however many
/// cores the host has, each cell on the smallest power-of-two budget its
/// sequential run fits. Whatever the interleaving, every run fits the budget
/// and has the bits of the cell's 1-thread run.
#[cfg(feature = "fault-inject")]
#[test]
fn symmetric_cells_under_schedule_jitter_are_bitwise_at_8_threads() {
    let p = pipe_problem::<f64>(1_500);
    assert!(p.symmetric);
    for algo in [Algorithm::MultiSolve, Algorithm::MultiFactorization] {
        for backend in [DenseBackend::Spido, DenseBackend::Hmat] {
            let budgeted = |budget: usize, threads: usize| SolverConfig {
                dense_backend: backend,
                mem_budget: Some(budget),
                ..cfg(threads)
            };
            let name = format!("{} / {}", algo.name(), backend.name());
            let budget = (18..34)
                .map(|shift| 1usize << shift)
                .find(|&b| solve(&p, algo, &budgeted(b, 1)).is_ok())
                .unwrap_or_else(|| panic!("{name}: no budget fits the sequential run"));
            let reference = solve(&p, algo, &budgeted(budget, 1)).unwrap();
            let guard = csolve_testkit::fault::FaultGuard::acquire();
            for seed in 0..8u64 {
                let run = format!("{name} [jitter seed {seed}] under {budget} B at 8 thr");
                guard.schedule_jitter(seed);
                let out = solve(&p, algo, &budgeted(budget, 8))
                    .unwrap_or_else(|e| panic!("{run}: failed: {e}"));
                let peak = out.metrics.peak_bytes;
                assert!(peak <= budget, "{run}: peak {peak} exceeds the budget");
                assert!(
                    bits(&out.xv) == bits(&reference.xv) && bits(&out.xs) == bits(&reference.xs),
                    "{run}: not bitwise-identical to the 1-thread run"
                );
            }
            guard.disarm();
        }
    }
}

/// The blockwise pipeline's determinism cell: even when memory pressure
/// forces the admission scheduler to degrade concurrency mid-run (in-flight
/// caps shrink, fewer blocks compute at once), the ordered folds must
/// still fold the panel contributions identically — the solution stays
/// bitwise-identical across 1/2/4 threads *under a tight budget*.
#[test]
fn task_dag_is_bitwise_identical_across_threads_under_budget_pressure() {
    let p = pipe_problem::<f64>(2_000);
    let mut sequential = cfg(1);
    let budget = (18..34)
        .map(|shift| 1usize << shift)
        .find(|&b| {
            sequential.mem_budget = Some(b);
            match solve(&p, Algorithm::MultiSolve, &sequential) {
                Ok(_) => true,
                Err(e) if e.is_oom() => false,
                Err(e) => panic!("unexpected error at budget {b}: {e}"),
            }
        })
        .expect("some budget fits the sequential run");

    let reference = solve(&p, Algorithm::MultiSolve, &sequential).unwrap();
    for threads in [2usize, 4] {
        let mut pressured = cfg(threads);
        pressured.mem_budget = Some(budget);
        let out = solve(&p, Algorithm::MultiSolve, &pressured)
            .unwrap_or_else(|e| panic!("{threads} threads under budget {budget}: {e}"));
        assert_eq!(
            bits(&out.xv),
            bits(&reference.xv),
            "x_v diverged with {threads} threads under pressure"
        );
        assert_eq!(
            bits(&out.xs),
            bits(&reference.xs),
            "x_s diverged with {threads} threads under pressure"
        );
    }
}

/// With several blocks in flight, the admission scheduler must keep the
/// tracked peak under the budget — concurrency degrades instead of
/// overshooting. The budget is chosen as the smallest power of two the
/// sequential run fits in, so there is genuine pressure.
#[test]
fn scheduler_respects_budget_with_concurrency() {
    let p = pipe_problem::<f64>(2_500);
    let mut sequential = cfg(1);
    let budget = (18..34)
        .map(|shift| 1usize << shift)
        .find(|&b| {
            sequential.mem_budget = Some(b);
            match solve(&p, Algorithm::MultiSolve, &sequential) {
                Ok(_) => true,
                Err(e) if e.is_oom() => false,
                Err(e) => panic!("unexpected error at budget {b}: {e}"),
            }
        })
        .expect("some budget fits the sequential run");

    for threads in [2usize, 4] {
        let mut parallel = cfg(threads);
        parallel.mem_budget = Some(budget);
        match solve(&p, Algorithm::MultiSolve, &parallel) {
            Ok(out) => {
                assert!(
                    out.metrics.peak_bytes <= budget,
                    "{threads} threads: peak {} exceeds budget {budget}",
                    out.metrics.peak_bytes
                );
            }
            Err(e) => {
                panic!("{threads} threads must degrade to fit the sequential budget, got: {e}")
            }
        }
    }
}

/// Same property for multi-factorization, whose sparse solver charges
/// memory mid-compute: each tile reserves the bound its symbolic analysis
/// puts on those charges before its numeric phase starts, and waits for
/// earlier tiles when the bound does not fit beside them. Under
/// `BlockSizes::Auto` the planner prices every tile the same way.
#[test]
fn multi_factorization_respects_budget_with_concurrency() {
    let p = pipe_problem::<f64>(1_500);
    let mut sequential = cfg(1);
    let budget = (18..34)
        .map(|shift| 1usize << shift)
        .find(|&b| {
            sequential.mem_budget = Some(b);
            match solve(&p, Algorithm::MultiFactorization, &sequential) {
                Ok(_) => true,
                Err(e) if e.is_oom() => false,
                Err(e) => panic!("unexpected error at budget {b}: {e}"),
            }
        })
        .expect("some budget fits the sequential run");

    let mut parallel = cfg(4);
    parallel.mem_budget = Some(budget);
    match solve(&p, Algorithm::MultiFactorization, &parallel) {
        Ok(out) => assert!(
            out.metrics.peak_bytes <= budget,
            "peak {} exceeds budget {budget}",
            out.metrics.peak_bytes
        ),
        Err(e) => panic!("4 threads must degrade to fit the sequential budget, got: {e}"),
    }

    // Autotuned cells whose tiles the planner once underpriced: SPIDO at
    // 0.90 and HMAT at 1.10 of the fixed SPIDO run's 4 468 144 B peak.
    // Each completes inside its budget at 2 and 4 threads with the bits of
    // its 1-thread run.
    for (backend, frac) in [(DenseBackend::Spido, 0.90), (DenseBackend::Hmat, 1.10)] {
        let budget = (4_468_144.0 * frac) as usize;
        let auto = |threads: usize| SolverConfig {
            eps: 1e-10,
            dense_backend: backend,
            num_threads: threads,
            block_sizes: BlockSizes::Auto,
            mem_budget: Some(budget),
            ..Default::default()
        };
        let reference = solve(&p, Algorithm::MultiFactorization, &auto(1)).unwrap();
        for threads in [2usize, 4] {
            let cell = format!("{} at {frac:.2}, {threads} threads", backend.name());
            let out = solve(&p, Algorithm::MultiFactorization, &auto(threads))
                .unwrap_or_else(|e| panic!("{cell}: {e}"));
            assert!(
                out.metrics.peak_bytes <= budget,
                "{cell}: peak {} exceeds budget {budget}",
                out.metrics.peak_bytes
            );
            assert!(
                bits(&out.xv) == bits(&reference.xv) && bits(&out.xs) == bits(&reference.xs),
                "{cell}: diverged from the 1-thread bits"
            );
        }
    }
}

/// An impossible budget must still fail fast and clean in parallel mode.
#[test]
fn parallel_oom_is_clean() {
    let p = pipe_problem::<f64>(2_000);
    let mut c = cfg(4);
    c.mem_budget = Some(100_000);
    let err = solve(&p, Algorithm::MultiSolve, &c).unwrap_err();
    assert!(err.is_oom(), "expected OOM, got {err}");
}

/// Per-phase byte counters are exported alongside the wall-clock phases.
#[test]
fn phase_bytes_are_recorded() {
    let p = pipe_problem::<f64>(1_500);
    let out = solve(&p, Algorithm::MultiSolve, &cfg(2)).unwrap();
    let m = &out.metrics;
    for phase in [
        "sparse solve (Y)",
        "SpMM",
        "Schur assembly",
        "dense factorization",
    ] {
        let bytes = m.phase(phase).map_or(0, |r| r.bytes);
        assert!(bytes > 0, "no bytes recorded for {phase}");
    }
}

/// Analytic flop counters are derived from problem shapes only, so they
/// must be exactly equal (not just close) for every thread count. First-use
/// order can differ under concurrency, hence the sort before comparing.
#[test]
fn phase_flops_are_thread_count_invariant() {
    let p = pipe_problem::<f64>(1_500);
    let mut spido = cfg(1);
    spido.dense_backend = DenseBackend::Spido;
    let sorted_flops = |threads: usize| {
        let mut c = spido.clone();
        c.num_threads = threads;
        let mut f = solve(&p, Algorithm::MultiSolve, &c)
            .unwrap()
            .metrics
            .phase_flops;
        f.sort();
        f
    };
    let reference = sorted_flops(1);
    assert!(
        reference.iter().any(|(n, f)| n == "SpMM" && *f > 0),
        "no SpMM flops recorded"
    );
    assert!(
        reference
            .iter()
            .any(|(n, f)| n == "dense factorization" && *f > 0),
        "no dense factorization flops recorded"
    );
    for threads in [2usize, 4] {
        assert_eq!(
            sorted_flops(threads),
            reference,
            "flop counts diverged with {threads} threads"
        );
    }
}
