//! End-to-end integration tests across all workspace crates: the complete
//! pipeline generator → sparse solver → low-rank/H-matrix → coupled
//! algorithms, checked against the manufactured solutions and against each
//! other.

use csolve_common::C64;
use csolve_coupled::{solve, Algorithm, BlockSizes, DenseBackend, SolverConfig};
use csolve_fembem::{industrial_problem, pipe_problem};

fn tight(backend: DenseBackend) -> SolverConfig {
    SolverConfig {
        eps: 1e-8,
        dense_backend: backend,
        n_c: 96,
        n_s: 384,
        n_b: 3,
        ..Default::default()
    }
}

#[test]
fn algorithms_agree_with_each_other() {
    // At tight eps every algorithm must produce (nearly) the same solution —
    // they compute the same Schur complement by different block schedules.
    let p = pipe_problem::<f64>(3_000);
    let reference = solve(&p, Algorithm::AdvancedCoupling, &tight(DenseBackend::Spido)).unwrap();
    for algo in Algorithm::ALL {
        for backend in [DenseBackend::Spido, DenseBackend::Hmat] {
            let out = solve(&p, algo, &tight(backend)).unwrap();
            let mut max_diff = 0.0f64;
            for (a, b) in out
                .xv
                .iter()
                .zip(&reference.xv)
                .chain(out.xs.iter().zip(&reference.xs))
            {
                max_diff = max_diff.max((a - b).abs());
            }
            assert!(
                max_diff < 1e-5,
                "{} / {} deviates from the reference by {max_diff:.3e}",
                algo.name(),
                backend.name()
            );
        }
    }
}

#[test]
fn paper_headline_accuracy_claim() {
    // Fig. 11: with eps = 1e-3 everywhere, the relative error stays below
    // eps for every algorithm.
    let p = pipe_problem::<f64>(5_000);
    for algo in Algorithm::ALL {
        let cfg = SolverConfig {
            eps: 1e-3,
            dense_backend: DenseBackend::Hmat,
            ..Default::default()
        };
        let out = solve(&p, algo, &cfg).unwrap();
        let err = p.relative_error(&out.xv, &out.xs);
        assert!(err < 1e-3, "{}: {err:.3e}", algo.name());
    }
}

#[test]
fn budget_feasibility_is_monotone() {
    // If an algorithm fits in budget B, it must also fit in budget 2B.
    let p = pipe_problem::<f64>(4_000);
    let mut cfg = tight(DenseBackend::Hmat);
    cfg.eps = 1e-4;
    let mut last_ok = false;
    for shift in 20..30 {
        cfg.mem_budget = Some(1usize << shift);
        match solve(&p, Algorithm::MultiSolve, &cfg) {
            Ok(_) => last_ok = true,
            Err(e) => {
                assert!(e.is_oom(), "unexpected error: {e}");
                assert!(
                    !last_ok,
                    "fits in a smaller budget but fails in a larger one (2^{shift})"
                );
            }
        }
    }
    assert!(last_ok, "never fit in up to 512 MiB");

    // Autotuned multi-factorization meets every budget from 0.40 to 1.30
    // of the fixed SPIDO run's 4 468 144 B peak on pipe-1500 (the reference
    // `autotune_report --smoke` scales its budgets from), inside it, on a
    // grid that never gets finer as the budget grows.
    let p = pipe_problem::<f64>(1_500);
    for backend in [DenseBackend::Spido, DenseBackend::Hmat] {
        let mut last_nb = usize::MAX;
        for percent in (40..=130).step_by(5) {
            let budget = (4_468_144.0 * (percent as f64 / 100.0)) as usize;
            let cfg = SolverConfig {
                eps: 1e-10,
                dense_backend: backend,
                num_threads: 1,
                block_sizes: BlockSizes::Auto,
                mem_budget: Some(budget),
                ..Default::default()
            };
            let cell = format!("{} at {percent} %", backend.name());
            let out = solve(&p, Algorithm::MultiFactorization, &cfg)
                .unwrap_or_else(|e| panic!("{cell}: {e}"));
            assert!(out.metrics.peak_bytes <= budget, "{cell}: over budget");
            let n_b = out.metrics.autotune.expect("Auto records its decision").n_b;
            assert!(n_b <= last_nb, "{cell}: n_b {n_b} after {last_nb}");
            last_nb = n_b;
        }
    }
}

#[test]
fn complex_industrial_end_to_end() {
    let p = industrial_problem::<C64>(2_500);
    let out = solve(
        &p,
        Algorithm::MultiFactorization,
        &tight(DenseBackend::Hmat),
    )
    .unwrap();
    let err = p.relative_error(&out.xv, &out.xs);
    assert!(err < 1e-5, "industrial err {err:.3e}");
    // The uncompressed dense run is more accurate (Fig. 11's observation).
    let mut nc = tight(DenseBackend::Spido);
    nc.sparse_eps = Some(0.0);
    let out2 = solve(&p, Algorithm::MultiSolve, &nc).unwrap();
    let err2 = p.relative_error(&out2.xv, &out2.xs);
    assert!(
        err2 <= err * 10.0,
        "uncompressed err {err2:.3e} vs {err:.3e}"
    );
}

#[test]
fn sizes_and_metrics_are_coherent() {
    let p = pipe_problem::<f64>(2_000);
    let out = solve(&p, Algorithm::MultiSolve, &tight(DenseBackend::Hmat)).unwrap();
    assert_eq!(out.xv.len(), p.n_fem());
    assert_eq!(out.xs.len(), p.n_bem());
    assert_eq!(out.metrics.n_total, p.n_total());
    assert!(out.metrics.peak_bytes >= out.metrics.schur_bytes);
    let fact = out.metrics.phase("sparse factorization").unwrap();
    assert!(out.metrics.total_seconds >= fact.seconds);
}
