//! End-to-end tests of the four coupled algorithms on the paper's workloads.

use csolve_common::C64;
use csolve_fembem::{industrial_problem, pipe_problem, CoupledProblem};

use crate::config::{Algorithm, DenseBackend, SolverConfig};
use crate::driver::solve;

fn cfg(backend: DenseBackend) -> SolverConfig {
    SolverConfig {
        eps: 1e-6,
        dense_backend: backend,
        n_c: 64,
        n_s: 256,
        n_b: 2,
        ..Default::default()
    }
}

#[test]
fn all_algorithms_solve_the_pipe_spido() {
    let p = pipe_problem::<f64>(2_500);
    for algo in Algorithm::ALL {
        let out = solve(&p, algo, &cfg(DenseBackend::Spido)).unwrap();
        let err = p.relative_error(&out.xv, &out.xs);
        assert!(err < 1e-8, "{}: err {err:.3e}", algo.name());
        assert!(out.metrics.total_seconds > 0.0);
        assert!(out.metrics.peak_bytes > 0);
        assert_eq!(out.metrics.n_total, p.n_total());
    }
}

#[test]
fn all_algorithms_solve_the_pipe_hmat() {
    let p = pipe_problem::<f64>(2_500);
    for algo in Algorithm::ALL {
        let out = solve(&p, algo, &cfg(DenseBackend::Hmat)).unwrap();
        let err = p.relative_error(&out.xv, &out.xs);
        assert!(err < 1e-4, "{}: err {err:.3e}", algo.name());
    }
}

#[test]
fn relative_error_stays_below_paper_epsilon() {
    // The paper's Fig. 11 claim: with ε = 10⁻³ compression everywhere, the
    // relative error stays below ε.
    let p = pipe_problem::<f64>(4_000);
    let config = SolverConfig {
        eps: 1e-3,
        dense_backend: DenseBackend::Hmat,
        n_c: 128,
        n_s: 512,
        ..Default::default()
    };
    for algo in [Algorithm::MultiSolve, Algorithm::MultiFactorization] {
        let out = solve(&p, algo, &config).unwrap();
        let err = p.relative_error(&out.xv, &out.xs);
        assert!(err < 1e-3, "{}: err {err:.3e}", algo.name());
    }
}

#[test]
fn industrial_complex_nonsymmetric_all_algorithms() {
    let p = industrial_problem::<C64>(2_000);
    assert!(!p.symmetric);
    for algo in Algorithm::ALL {
        for backend in DenseBackend::ALL {
            let out = solve(&p, algo, &cfg(backend)).unwrap();
            let err = p.relative_error(&out.xv, &out.xs);
            assert!(
                err < 1e-4,
                "{} / {}: err {err:.3e}",
                algo.name(),
                backend.name()
            );
        }
    }
}

/// A problem flagged symmetric whose coupling blocks are not each other's
/// transpose — one value off, or one entry moved — is rejected up front by
/// every algorithm: LDLᵀ and the mirrored multi-factorization folds would
/// otherwise silently solve a different system.
#[test]
fn a_wrong_symmetric_flag_is_a_structured_error() {
    use csolve_common::Error;
    use csolve_sparse::Coo;

    type Edit = fn(&mut CoupledProblem<f64>);
    let off_value: Edit = |p| p.a_vs.values[7] *= 1.0 + 1e-12;
    // Column 3's first entry moves to a row the column does not hold.
    let off_pattern: Edit = |p| {
        let a = &p.a_vs;
        let free = (0..a.nrows).find(|r| !a.col(3).0.contains(r)).unwrap();
        let mut coo = Coo::new(a.nrows, a.ncols);
        for j in 0..a.ncols {
            for (&i, &v) in a.col(j).0.iter().zip(a.col(j).1) {
                let first_of_3 = (i, j) == (a.col(3).0[0], 3);
                coo.push(if first_of_3 { free } else { i }, j, v);
            }
        }
        p.a_vs = coo.to_csc();
    };
    let edited = |edit: Edit, symmetric: bool| {
        let mut p = pipe_problem::<f64>(800);
        edit(&mut p);
        p.symmetric = symmetric;
        p
    };

    for algo in Algorithm::ALL {
        for (what, edit) in [("value", off_value), ("pattern", off_pattern)] {
            for backend in DenseBackend::ALL {
                let err = solve(&edited(edit, true), algo, &cfg(backend)).err();
                assert!(
                    matches!(err, Some(Error::InvalidConfig(_))),
                    "{} / {}: {what} mismatch gave {err:?}",
                    algo.name(),
                    backend.name()
                );
            }
            // The same data with the flag off is a valid unsymmetric system.
            assert!(solve(&edited(edit, false), algo, &cfg(DenseBackend::Spido)).is_ok());
        }
    }
}

#[test]
fn multi_solve_block_sizes_do_not_change_the_answer() {
    let p = pipe_problem::<f64>(2_000);
    let mut last_err = None;
    for (n_c, n_s) in [(16, 64), (64, 64), (200, 400), (1024, 4096)] {
        let config = SolverConfig {
            eps: 1e-8,
            dense_backend: DenseBackend::Hmat,
            n_c,
            n_s,
            ..Default::default()
        };
        let out = solve(&p, Algorithm::MultiSolve, &config).unwrap();
        let err = p.relative_error(&out.xv, &out.xs);
        assert!(err < 1e-6, "n_c={n_c}: err {err:.3e}");
        last_err = Some(err);
    }
    assert!(last_err.is_some());
}

#[test]
fn multi_factorization_block_counts_do_not_change_the_answer() {
    let p = pipe_problem::<f64>(1_500);
    for n_b in [1usize, 2, 3, 5] {
        let config = SolverConfig {
            eps: 1e-8,
            dense_backend: DenseBackend::Spido,
            n_b,
            ..Default::default()
        };
        let out = solve(&p, Algorithm::MultiFactorization, &config).unwrap();
        let err = p.relative_error(&out.xv, &out.xs);
        assert!(err < 1e-8, "n_b={n_b}: err {err:.3e}");
    }
}

#[test]
fn memory_budget_ranks_algorithms_like_the_paper() {
    // Fig. 10's qualitative claim at fixed budget: the baseline coupling
    // dies first (huge dense Y), compressed multi-solve survives longest.
    let p = pipe_problem::<f64>(6_000);
    let budget_of = |algo: Algorithm, backend: DenseBackend| -> Option<usize> {
        // Smallest budget (from a geometric ladder) that succeeds.
        let mut cfgx = cfg(backend);
        cfgx.eps = 1e-4;
        for shift in 18..32 {
            let budget = 1usize << shift;
            cfgx.mem_budget = Some(budget);
            match solve(&p, algo, &cfgx) {
                Ok(_) => return Some(budget),
                Err(e) if e.is_oom() => continue,
                Err(e) => panic!("{}: unexpected error {e}", algo.name()),
            }
        }
        None
    };
    let baseline = budget_of(Algorithm::BaselineCoupling, DenseBackend::Spido).unwrap();
    let ms_hmat = budget_of(Algorithm::MultiSolve, DenseBackend::Hmat).unwrap();
    assert!(
        ms_hmat <= baseline,
        "compressed multi-solve ({ms_hmat}) must fit where baseline ({baseline}) needs more"
    );
}

#[test]
fn oom_is_clean_and_releases_all_memory() {
    let p = pipe_problem::<f64>(3_000);
    let mut config = cfg(DenseBackend::Spido);
    config.mem_budget = Some(100_000); // absurdly small
    let err = solve(&p, Algorithm::MultiSolve, &config).unwrap_err();
    assert!(err.is_oom(), "expected OOM, got {err}");
}

#[test]
fn metrics_record_the_expected_phases() {
    let p = pipe_problem::<f64>(1_500);
    let out = solve(&p, Algorithm::MultiSolve, &cfg(DenseBackend::Hmat)).unwrap();
    let m = &out.metrics;
    for phase in [
        "sparse factorization",
        "sparse solve (Y)",
        "SpMM",
        "Schur assembly",
        "dense factorization",
    ] {
        assert!(
            m.phase(phase).is_some_and(|r| r.seconds >= 0.0),
            "missing phase {phase}: {:?}",
            m.phases
        );
    }
    assert!(m.schur_bytes > 0);
    let out2 = solve(&p, Algorithm::MultiFactorization, &cfg(DenseBackend::Spido)).unwrap();
    assert!(out2
        .metrics
        .phases
        .iter()
        .any(|(n, _)| n == "sparse factorization+Schur"));
}

#[test]
fn hmat_schur_uses_less_memory_than_dense_schur() {
    // Fig. 12's memory story: the compressed Schur footprint is below the
    // dense one (at sizes where compression has something to bite on).
    let p = pipe_problem::<f64>(8_000);
    let mut c1 = cfg(DenseBackend::Spido);
    let mut c2 = cfg(DenseBackend::Hmat);
    c1.eps = 1e-3;
    c2.eps = 1e-3;
    let dense = solve(&p, Algorithm::MultiSolve, &c1).unwrap();
    let comp = solve(&p, Algorithm::MultiSolve, &c2).unwrap();
    assert!(
        comp.metrics.schur_bytes < dense.metrics.schur_bytes,
        "compressed Schur {} vs dense {}",
        comp.metrics.schur_bytes,
        dense.metrics.schur_bytes
    );
}

// ---------------------------------------------------------------------------
// Golden snapshot: the set of phase names each algorithm emits is part of the
// reporting contract (EXPERIMENTS.md tables key on them) and must not drift.
// ---------------------------------------------------------------------------

/// Sorted, deduplicated phase names of one run.
fn phase_name_set(algo: Algorithm, backend: DenseBackend) -> Vec<String> {
    let p = pipe_problem::<f64>(800);
    let out = solve(&p, algo, &cfg(backend)).unwrap();
    let mut names: Vec<String> = out.metrics.phases.iter().map(|(n, _)| n.clone()).collect();
    names.sort_unstable();
    names.dedup();
    names
}

#[test]
fn phase_names_per_algorithm_are_stable() {
    let solve_phases = [
        "Schur assembly",
        "Schur init (A_ss)",
        "SpMM",
        "dense factorization",
        "dense solve",
        "sparse factorization",
        "sparse solve (Y)",
        "sparse solve (back)",
        "sparse solve (rhs)",
    ];
    let advanced_phases = [
        "Schur assembly",
        "Schur init (A_ss)",
        "assemble W",
        "coupled solve",
        "dense factorization",
        "sparse factorization+Schur",
    ];
    let multifact_phases = [
        "Schur assembly",
        "Schur init (A_ss)",
        "assemble W",
        "dense factorization",
        "dense solve",
        "sparse factorization",
        "sparse factorization+Schur",
        "sparse solve (back)",
        "sparse solve (rhs)",
    ];
    let golden: [(Algorithm, &[&str]); 4] = [
        (Algorithm::BaselineCoupling, &solve_phases),
        (Algorithm::AdvancedCoupling, &advanced_phases),
        (Algorithm::MultiSolve, &solve_phases),
        (Algorithm::MultiFactorization, &multifact_phases),
    ];
    for (algo, want) in golden {
        for backend in DenseBackend::ALL {
            let got = phase_name_set(algo, backend);
            assert_eq!(
                got,
                want.to_vec(),
                "phase-name set of {} / {} drifted",
                algo.name(),
                backend.name()
            );
        }
    }
}

#[test]
fn metrics_accessors_are_zero_for_unknown_phases() {
    let p = pipe_problem::<f64>(800);
    let out = solve(&p, Algorithm::MultiSolve, &cfg(DenseBackend::Spido)).unwrap();
    let m = &out.metrics;
    for unknown in ["", "no such phase", "SPMM", "Dense Factorization"] {
        assert!(m.phase(unknown).is_none(), "{unknown:?}");
    }
    // And a known phase really is accounted.
    assert!(m.phases.iter().any(|(n, _)| n == "SpMM"));
}

// ---------------------------------------------------------------------------
// SchurAcc negative tests: zero-sized blocks, invalid eps, poisoned panels,
// out-of-range blocks, and the panel_nb == 0 clamp.
// ---------------------------------------------------------------------------

mod schur_acc_negative {
    use csolve_common::{Error, MemTracker};
    use csolve_dense::{Mat, DEFAULT_PANEL_NB};
    use csolve_fembem::BemOperator;
    use csolve_hmat::{ClusterTree, Point3};

    use crate::config::{DenseBackend, SolverConfig};
    use crate::schur::SchurAcc;

    const N: usize = 24;

    fn acc(backend: DenseBackend) -> SchurAcc<f64> {
        let points: Vec<Point3> = (0..N)
            .map(|i| {
                let t = i as f64 / N as f64 * std::f64::consts::TAU;
                Point3::new(t.cos(), t.sin(), 0.1 * i as f64)
            })
            .collect();
        let bem = BemOperator::<f64> {
            points: points.clone(),
            kappa: 0.0,
            delta: 0.5,
            diag: 4.0,
            scale: 0.1,
        };
        let tree = ClusterTree::build(&points, 8);
        let cfg = SolverConfig {
            eps: 1e-8,
            dense_backend: backend,
            ..Default::default()
        };
        SchurAcc::init(&bem, &tree, &cfg, &MemTracker::unbounded()).unwrap()
    }

    #[test]
    fn zero_sized_blocks_are_a_no_op() {
        for backend in DenseBackend::ALL {
            let mut a = acc(backend);
            let before = a.bytes();
            let empty_rows = Mat::<f64>::zeros(0, 5);
            let empty_cols = Mat::<f64>::zeros(5, 0);
            a.axpy_block(1.0, 0, 0, empty_rows.as_ref(), 1e-8).unwrap();
            a.axpy_block(1.0, 0, 0, empty_cols.as_ref(), 1e-8).unwrap();
            // Even with out-of-range offsets: an empty update touches nothing.
            a.axpy_block(1.0, N + 7, N + 7, empty_rows.as_ref(), 1e-8)
                .unwrap();
            assert_eq!(a.bytes(), before);
        }
    }

    #[test]
    fn non_positive_eps_is_rejected_everywhere() {
        let panel = Mat::<f64>::zeros(4, 4);
        for backend in DenseBackend::ALL {
            for bad in [0.0, -1e-6, f64::NAN, f64::INFINITY] {
                let mut a = acc(backend);
                let err = a.axpy_block(1.0, 0, 0, panel.as_ref(), bad).unwrap_err();
                assert!(
                    matches!(err, Error::InvalidConfig(_)),
                    "axpy_block(eps={bad}): got {err}"
                );
                let err = match acc(backend).factor(true, bad, 0) {
                    Err(e) => e,
                    Ok(_) => panic!("factor(eps={bad}) unexpectedly succeeded"),
                };
                assert!(
                    matches!(err, Error::InvalidConfig(_)),
                    "factor(eps={bad}): got {err}"
                );
            }
        }
    }

    #[test]
    fn poisoned_panels_are_rejected_with_context() {
        for backend in DenseBackend::ALL {
            for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut a = acc(backend);
                let mut panel = Mat::<f64>::zeros(4, 4);
                panel[(2, 3)] = poison;
                let err = a.axpy_block(1.0, 0, 0, panel.as_ref(), 1e-8).unwrap_err();
                assert!(
                    matches!(err, Error::NonFinite { .. }),
                    "poison {poison}: got {err}"
                );
            }
        }
    }

    #[test]
    fn out_of_range_blocks_are_a_dimension_mismatch() {
        for backend in DenseBackend::ALL {
            let mut a = acc(backend);
            let panel = Mat::<f64>::zeros(4, 4);
            let err = a
                .axpy_block(1.0, N - 2, 0, panel.as_ref(), 1e-8)
                .unwrap_err();
            assert!(
                matches!(err, Error::DimensionMismatch { .. }),
                "{backend:?}: got {err}"
            );
        }
    }

    #[test]
    fn panel_nb_zero_clamps_to_the_dense_default() {
        // Documented behaviour: 0 means "dense layer's default width", so the
        // factors must be bitwise-identical to an explicit DEFAULT_PANEL_NB.
        let rhs: Vec<f64> = (0..N).map(|i| (i as f64 * 0.37).sin()).collect();
        let solve_with = |panel_nb: usize| -> Vec<f64> {
            let f = acc(DenseBackend::Spido)
                .factor(true, 1e-8, panel_nb)
                .unwrap();
            let mut b = Mat::<f64>::zeros(N, 1);
            for (i, v) in rhs.iter().enumerate() {
                b[(i, 0)] = *v;
            }
            f.solve_in_place(b.view_mut(0..N, 0..1));
            (0..N).map(|i| b[(i, 0)]).collect()
        };
        assert_eq!(solve_with(0), solve_with(DEFAULT_PANEL_NB));
    }
}

/// The public `SchurAcc::init` stores both block triangles (the benchmark's
/// replay builds its accumulator through it); `factor(symmetric = true)`
/// drops the upper blocks first, so after the same folds it factors bit for
/// bit what the solver's half-stored accumulator factors.
mod schur_acc_symmetric {
    use csolve_common::MemTracker;
    use csolve_dense::Mat;
    use csolve_hmat::ClusterTree;
    use rand::SeedableRng;

    use crate::config::{DenseBackend, SolverConfig};
    use crate::schur::SchurAcc;

    #[test]
    fn a_full_accumulator_factored_symmetric_is_the_half_stored_one_bitwise() {
        let p = csolve_fembem::pipe_problem::<f64>(3_000);
        let cfg = SolverConfig {
            eps: 1e-6,
            dense_backend: DenseBackend::Hmat,
            ..Default::default()
        };
        let tree = ClusterTree::build(&p.bem.points, cfg.hmat_leaf);
        let bem = p.bem.permuted(&tree.perm);
        let ns = bem.n();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let panels: Vec<(usize, Mat<f64>)> = (0..ns)
            .step_by(97)
            .map(|c0| (c0, Mat::random(ns, 97.min(ns - c0), &mut rng)))
            .collect();
        let run = |symmetric: bool| {
            let tracker = MemTracker::unbounded();
            let mut acc = SchurAcc::init_for(&bem, &tree, &cfg, &tracker, symmetric).unwrap();
            for (c0, z) in &panels {
                acc.axpy_block(-1e-3, 0, *c0, z.as_ref(), cfg.eps).unwrap();
            }
            let bytes = acc.bytes();
            let f = acc.factor(true, cfg.eps, 0).unwrap();
            let mut x = Mat::from_fn(ns, 2, |i, j| ((i + 3 * j) as f64 * 0.1).sin());
            f.solve_in_place(x.as_mut());
            (bytes, f.byte_size(), x)
        };
        let (full_bytes, full_factor, x_full) = run(false);
        let (half_bytes, half_factor, x_half) = run(true);
        assert!(
            half_bytes * 10 < full_bytes * 6,
            "half {half_bytes} B vs full {full_bytes} B"
        );
        assert_eq!(half_factor, full_factor);
        let bits = |x: &Mat<f64>| x.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert!(bits(&x_half) == bits(&x_full), "solutions differ bitwise");
    }
}

/// The HMAT growth allowance is one decision: the bytes the accumulator's
/// byte cap lets it grow past its footprint are exactly the bytes the
/// autotuner withholds from the blockwise working sets at the same live
/// bytes, and SPIDO, whose `S` never grows, withholds nothing.
mod growth_allowance {
    use csolve_common::MemTracker;
    use csolve_hmat::ClusterTree;

    use crate::autotune::usable_headroom;
    use crate::config::{DenseBackend, SolverConfig};
    use crate::schur::SchurAcc;

    #[test]
    fn hmat_byte_cap_growth_is_what_the_autotuner_withholds() {
        let p = csolve_fembem::pipe_problem::<f64>(600);
        for backend in DenseBackend::ALL {
            let cfg = SolverConfig {
                dense_backend: backend,
                ..Default::default()
            };
            let tree = ClusterTree::build(&p.bem.points, cfg.hmat_leaf);
            let bem = p.bem.permuted(&tree.perm);
            let tracker = MemTracker::with_budget(64 << 20);
            let _factors = tracker.charge(5 << 20, "sparse factors").unwrap();
            let acc = SchurAcc::init(&bem, &tree, &cfg, &tracker).unwrap();
            let headroom = tracker.budget() - tracker.live();
            let withheld = headroom - usable_headroom(&cfg, &tracker);
            let base_bytes = acc.bytes();
            match acc {
                SchurAcc::Dense { .. } => assert_eq!(withheld, 0),
                SchurAcc::Hmat { byte_cap, .. } => {
                    assert!(withheld > 0);
                    assert_eq!(byte_cap - base_bytes, withheld);
                }
            }
        }
    }
}

/// Column `j` of a width-`w` Schur solve has the bits of its width-1 solve,
/// with no mode entered: every factor kind — SPIDO's LDLᵀ and LU, HMAT's
/// H-LDLᵀ on half storage and H-LU on full storage — for `f64` and `C64`, at
/// widths that fill a lane group, leave a remainder, span several groups or
/// none, on 1, 2 and 8 threads.
mod schur_solve_columns {
    use csolve_common::{MemTracker, RealScalar, Scalar, C64};
    use csolve_dense::Mat;
    use csolve_hmat::ClusterTree;
    use rand::SeedableRng;

    use crate::config::{DenseBackend, SolverConfig};
    use crate::schur::{SchurAcc, SchurFactor};

    const WIDTHS: [usize; 8] = [0, 1, 3, 8, 9, 32, 33, 65];

    fn bits<T: Scalar>(col: &[T]) -> Vec<(u64, u64)> {
        let f = |v: T::Real| v.to_f64().to_bits();
        col.iter().map(|v| (f(v.real()), f(v.imag()))).collect()
    }

    fn check<T: Scalar>(seed: u64) {
        let p = csolve_fembem::pipe_problem::<T>(3_000);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ns = p.bem.n();
        let rhs = Mat::<T>::random(ns, WIDTHS[WIDTHS.len() - 1], &mut rng);
        for backend in [DenseBackend::Spido, DenseBackend::Hmat] {
            for symmetric in [true, false] {
                let cfg = SolverConfig {
                    eps: 1e-6,
                    dense_backend: backend,
                    hmat_leaf: 16,
                    ..Default::default()
                };
                let tree = ClusterTree::build(&p.bem.points, cfg.hmat_leaf);
                let bem = p.bem.permuted(&tree.perm);
                let tracker = MemTracker::unbounded();
                let acc = SchurAcc::init_for(&bem, &tree, &cfg, &tracker, symmetric).unwrap();
                let f = acc.factor(symmetric, cfg.eps, 0).unwrap();
                let what = match &f {
                    SchurFactor::DenseLdlt { .. } => "LDLT",
                    SchurFactor::DenseLu { .. } => "LU",
                    SchurFactor::Hlu { f, .. } => {
                        // The low-rank product of the lane solve is covered.
                        assert!(f.stats().lowrank_leaves > 0, "no low-rank leaf");
                        if symmetric {
                            "H-LDLT"
                        } else {
                            "H-LU"
                        }
                    }
                };
                let alone: Vec<_> = (0..rhs.ncols())
                    .map(|j| {
                        let mut x = Mat::from_col_major(ns, 1, rhs.col(j).to_vec());
                        f.solve_in_place(x.as_mut());
                        bits(x.col(0))
                    })
                    .collect();
                for threads in [1, 2, 8] {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .unwrap();
                    for w in WIDTHS {
                        let mut x = rhs.view(0..ns, 0..w).to_owned();
                        pool.install(|| f.solve_in_place(x.as_mut()));
                        for (j, want) in alone.iter().enumerate().take(w) {
                            assert!(
                                bits(x.col(j)) == *want,
                                "{what} {}: width {w}, column {j}, {threads} threads",
                                std::any::type_name::<T>()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn column_j_of_a_width_w_schur_solve_is_its_width_1_solve_bitwise() {
        check::<f64>(61);
        check::<C64>(62);
    }
}
