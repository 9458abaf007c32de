//! Contract tests of the `SolverSession` layer: batching equivalence
//! (coalesced panels bitwise-equal to the sequential one-RHS path at every
//! width and thread count), cache correctness (hits bitwise-identical,
//! value/knob changes miss), LRU eviction under a memory budget (peak never
//! exceeded, evicted entries re-factorize to the same bits), admission
//! degradation (panel width shrinks before anything is rejected), shared
//! budgets across interleaved sessions, and fault-injection cells (an OOM
//! mid-refactorize surfaces as a structured error and never poisons the
//! cache).

use std::sync::Arc;
use std::time::Duration;

use csolve::common::RealScalar;
use csolve::{
    solve, Algorithm, CoupledProblem, DenseBackend, Scalar, SessionBuilder, SolverConfig,
    SolverSession, TracePayload, Tracer, C64,
};
use csolve_fembem::{industrial_problem, pipe_problem};
use proptest::prelude::*;

/// With `fault-inject` compiled in, every test in this binary serializes
/// behind the process-wide fault lock so an armed fault (persistent
/// fingerprint collisions, evict-all churn) can never leak into a
/// concurrently running non-fault cell.
#[cfg(feature = "fault-inject")]
fn lock() -> csolve::testkit::fault::FaultGuard {
    csolve::testkit::fault::FaultGuard::acquire()
}

/// Stand-in guard when the fault hooks are compiled out.
#[cfg(not(feature = "fault-inject"))]
struct NoGuard;

#[cfg(not(feature = "fault-inject"))]
fn lock() -> NoGuard {
    NoGuard
}

fn cfg(threads: usize) -> SolverConfig {
    SolverConfig {
        eps: 1e-8,
        dense_backend: DenseBackend::Spido,
        n_c: 4,
        n_s: 8,
        num_threads: threads,
        ..Default::default()
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Deterministic synthetic right-hand side #`k` for a problem.
fn rhs(p: &CoupledProblem<f64>, k: u64) -> (Vec<f64>, Vec<f64>) {
    let f = |i: usize, c: f64| ((i as f64) * 0.37 + c * (k as f64 + 1.0)).sin() + 0.25;
    (
        (0..p.n_fem()).map(|i| f(i, 1.3)).collect(),
        (0..p.n_bem()).map(|i| f(i, 2.7)).collect(),
    )
}

/// The same coupled matrix with a replaced right-hand side (same session
/// fingerprint — the RHS is deliberately not part of the cache key).
fn with_rhs<T: Scalar>(p: &CoupledProblem<T>, b_v: Vec<T>, b_s: Vec<T>) -> CoupledProblem<T> {
    CoupledProblem {
        a_vv: p.a_vv.clone(),
        a_sv: p.a_sv.clone(),
        a_vs: p.a_vs.clone(),
        bem: p.bem.clone(),
        x_exact_v: Vec::new(),
        x_exact_s: Vec::new(),
        b_v,
        b_s,
        symmetric: p.symmetric,
    }
}

/// A value-perturbed copy (different fingerprint, same structure).
fn perturbed(p: &CoupledProblem<f64>, k: usize) -> CoupledProblem<f64> {
    let mut q = with_rhs(p, p.b_v.clone(), p.b_s.clone());
    let i = k % q.a_vv.values.len();
    q.a_vv.values[i] *= 1.0 + 1e-3 * (k as f64 + 1.0);
    q
}

fn session(threads: usize, algo: Algorithm) -> SolverSession<f64> {
    SessionBuilder::new(cfg(threads), algo)
        .max_batch(8)
        .build::<f64>()
        .unwrap()
}

// ---------------------------------------------------------------------
// Batching equivalence
// ---------------------------------------------------------------------

/// The tentpole contract: a panel of `w` individually submitted right-hand
/// sides, solved through the batched BLAS-3 path, must be bitwise equal to
/// `w` independent one-shot solves — at widths below, at, and above `n_c`,
/// a full lane block of the sparse solve's row-major workspace (32) plus a
/// remainder, and at 1/2/4/8 worker threads; on the real pipe problem and on
/// the complex industrial one (planar `C64` lanes, sparse LU). One
/// factorization serves all widths (the cache misses exactly once per
/// session).
#[test]
fn batched_panels_match_one_shot_bitwise_across_widths_and_threads() {
    let _g = lock();
    panels_match_one_shot(&pipe_problem::<f64>(600));
    panels_match_one_shot(&industrial_problem::<C64>(600));
}

/// [`batched_panels_match_one_shot_bitwise_across_widths_and_threads`] on
/// one problem.
fn panels_match_one_shot<T: Scalar>(p: &CoupledProblem<T>) {
    fn bits<T: Scalar>(xs: &[T]) -> Vec<(u64, u64)> {
        xs.iter()
            .map(|x| (x.real().to_f64().to_bits(), x.imag().to_f64().to_bits()))
            .collect()
    }
    // Right-hand side #k, both parts of a complex entry set.
    let rhs = |k: usize| {
        let f = |i: usize, c: f64| ((i as f64) * 0.37 + c * (k as f64 + 1.0)).sin() + 0.25;
        let v = |i: usize, c: f64| {
            T::from_parts(
                T::Real::from_f64_real(f(i, c)),
                T::Real::from_f64_real(f(i, c + 0.9)),
            )
        };
        (
            (0..p.n_fem()).map(|i| v(i, 1.3)).collect::<Vec<T>>(),
            (0..p.n_bem()).map(|i| v(i, 2.7)).collect::<Vec<T>>(),
        )
    };
    // n_c = 4 in `cfg`, so these are {1, 3, n_c, n_c + 1}, a block plus a
    // remainder of three, two blocks, then one 512-bit lane register plus
    // one lane, a full 32-lane workspace, and one plus a remainder.
    let widths = [1usize, 3, 4, 5, 7, 8, 9, 32, 33];
    let max_w = *widths.iter().max().unwrap();
    let refs: Vec<_> = (0..max_w)
        .map(|k| {
            let (b_v, b_s) = rhs(k);
            solve(&with_rhs(p, b_v, b_s), Algorithm::MultiSolve, &cfg(1)).unwrap()
        })
        .collect();
    for threads in [1usize, 2, 4, 8] {
        let mut s = SessionBuilder::new(cfg(threads), Algorithm::MultiSolve)
            .max_batch(max_w)
            .build::<T>()
            .unwrap();
        for &w in &widths {
            let ids: Vec<_> = (0..w)
                .map(|k| {
                    let (b_v, b_s) = rhs(k);
                    s.submit(p, &b_v, &b_s).unwrap()
                })
                .collect();
            let results = s.flush().unwrap();
            assert_eq!(results.len(), w);
            let what = std::any::type_name::<T>();
            for (k, r) in results.iter().enumerate() {
                assert_eq!(r.id, ids[k]);
                assert_eq!(r.info.batch_width, w, "{what}: panel width at w={w}");
                assert_eq!(
                    bits(&r.xv),
                    bits(&refs[k].xv),
                    "{what}: x_v diverged: width {w}, rhs {k}, {threads} threads"
                );
                assert_eq!(
                    bits(&r.xs),
                    bits(&refs[k].xs),
                    "{what}: x_s diverged: width {w}, rhs {k}, {threads} threads"
                );
            }
        }
        let st = s.stats();
        assert_eq!(st.cache_misses, 1, "one factorization serves every width");
        assert_eq!(st.requests, widths.iter().sum::<usize>() as u64);
    }
}

/// Every algorithm's batched panel path (including the advanced coupling's
/// condensation solve) matches its one-shot solutions bit for bit.
#[test]
fn all_algorithms_batched_match_one_shot_bitwise() {
    let _g = lock();
    let p = pipe_problem::<f64>(400);
    for algo in Algorithm::ALL {
        let refs: Vec<_> = (0..3u64)
            .map(|k| {
                let (b_v, b_s) = rhs(&p, k);
                solve(&with_rhs(&p, b_v, b_s), algo, &cfg(1)).unwrap()
            })
            .collect();
        let mut s = session(2, algo);
        for k in 0..3u64 {
            let (b_v, b_s) = rhs(&p, k);
            s.submit(&p, &b_v, &b_s).unwrap();
        }
        let results = s.flush().unwrap();
        for (k, r) in results.iter().enumerate() {
            assert_eq!(
                bits(&r.xv),
                bits(&refs[k].xv),
                "{}: x_v diverged at rhs {k}",
                algo.name()
            );
            assert_eq!(
                bits(&r.xs),
                bits(&refs[k].xs),
                "{}: x_s diverged at rhs {k}",
                algo.name()
            );
        }
    }
}

/// One factor path: a one-shot `solve()` is the session's factorization
/// followed by a width-1 panel solve, so it reports the same factor-phase
/// names in the same order, and the same tracked peak, as the first
/// (cache-miss) solve of a fresh session — for every algorithm.
#[test]
fn one_shot_and_first_session_solve_share_the_factor_path() {
    let _g = lock();
    let p = pipe_problem::<f64>(400);
    let solution_phases = [
        "sparse solve (rhs)",
        "dense solve",
        "sparse solve (back)",
        "coupled solve",
    ];
    for algo in Algorithm::ALL {
        let one = solve(&p, algo, &cfg(1)).unwrap().metrics;
        let mut s = session(1, algo);
        s.solve(&p, &p.b_v, &p.b_s).unwrap();
        let first = s.last_metrics().expect("the first solve factorized");
        let names = |phases: &[(String, f64)]| -> Vec<String> {
            phases.iter().map(|(n, _)| n.clone()).collect()
        };
        let mut one_shot_names = names(&one.phases);
        assert!(
            one_shot_names
                .iter()
                .any(|n| solution_phases.contains(&n.as_str())),
            "{}: the one-shot run must record its solution phases",
            algo.name()
        );
        one_shot_names.retain(|n| !solution_phases.contains(&n.as_str()));
        assert_eq!(
            one_shot_names,
            names(&first.phases),
            "{}: factor-phase names differ between one-shot and session",
            algo.name()
        );
        assert_eq!(
            one.peak_bytes,
            first.peak_bytes,
            "{}: tracked peak differs between one-shot and session",
            algo.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized batching equivalence: any panel width (1..=n_c+1), any
    /// thread count in {1, 2, 4}, random right-hand sides — batched
    /// results equal the one-RHS one-shot path bitwise.
    #[test]
    fn batched_random_rhs_panels_match_one_shot(
        seed in 0u64..1_000_000,
        width in 1usize..=5,
        thread_pick in 0usize..3,
    ) {
        let threads = [1usize, 2, 4][thread_pick];
        let _g = lock();
        use rand::{Rng, SeedableRng};
        let p = pipe_problem::<f64>(400);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let panels: Vec<(Vec<f64>, Vec<f64>)> = (0..width)
            .map(|_| {
                (
                    (0..p.n_fem()).map(|_| rng.random_range(-1.0..1.0)).collect(),
                    (0..p.n_bem()).map(|_| rng.random_range(-1.0..1.0)).collect(),
                )
            })
            .collect();
        let mut s = session(threads, Algorithm::MultiSolve);
        for (b_v, b_s) in &panels {
            s.submit(&p, b_v, b_s).unwrap();
        }
        let results = s.flush().unwrap();
        for ((b_v, b_s), r) in panels.iter().zip(&results) {
            let one = solve(
                &with_rhs(&p, b_v.clone(), b_s.clone()),
                Algorithm::MultiSolve,
                &cfg(1),
            )
            .unwrap();
            prop_assert_eq!(bits(&r.xv), bits(&one.xv));
            prop_assert_eq!(bits(&r.xs), bits(&one.xs));
        }
    }
}

// ---------------------------------------------------------------------
// Cache correctness
// ---------------------------------------------------------------------

/// A cache hit reuses the factors and reproduces the miss's solution
/// bitwise; the telemetry (stats, report JSON) reflects hit/miss counts.
#[test]
fn cache_hit_is_bitwise_identical_with_accurate_telemetry() {
    let _g = lock();
    let p = pipe_problem::<f64>(500);
    let mut s = session(2, Algorithm::MultiSolve);
    let first = s.solve(&p, &p.b_v, &p.b_s).unwrap();
    let second = s.solve(&p, &p.b_v, &p.b_s).unwrap();
    assert!(!first.info.cache_hit);
    assert!(second.info.cache_hit);
    assert_eq!(bits(&first.xv), bits(&second.xv));
    assert_eq!(bits(&first.xs), bits(&second.xs));
    // A replaced right-hand side on the same matrix still hits.
    let (b_v, b_s) = rhs(&p, 7);
    let third = s.solve(&p, &b_v, &b_s).unwrap();
    assert!(third.info.cache_hit);
    assert_eq!(s.cache_len(), 1);

    let st = s.stats();
    assert_eq!((st.requests, st.cache_misses, st.cache_hits), (3, 1, 2));
    assert!(st.cache_bytes > 0);
    assert!(st.peak_bytes > 0);

    let report = s.report().expect("a factorization happened");
    let doc = csolve::json::parse_json(&report.to_json()).unwrap();
    let sess = doc
        .get("session")
        .expect("report carries a session section");
    assert_eq!(sess.get("requests").and_then(|v| v.as_u64()), Some(3));
    assert_eq!(sess.get("cache_hits").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(sess.get("cache_misses").and_then(|v| v.as_u64()), Some(1));
}

/// Perturbing a single matrix value must miss the cache (and the two
/// entries then coexist, each answering with its own bits).
#[test]
fn value_perturbation_misses_the_cache() {
    let _g = lock();
    let p = pipe_problem::<f64>(400);
    let q = perturbed(&p, 0);
    let ref_p = solve(&p, Algorithm::MultiSolve, &cfg(2)).unwrap();
    let ref_q = solve(&q, Algorithm::MultiSolve, &cfg(2)).unwrap();
    assert_ne!(bits(&ref_p.xv), bits(&ref_q.xv), "perturbation must matter");

    let mut s = session(2, Algorithm::MultiSolve);
    let got_p = s.solve(&p, &p.b_v, &p.b_s).unwrap();
    let got_q = s.solve(&q, &q.b_v, &q.b_s).unwrap();
    assert!(!got_q.info.cache_hit, "changed values must not hit");
    assert_eq!(s.cache_len(), 2);
    assert_eq!(bits(&got_p.xv), bits(&ref_p.xv));
    assert_eq!(bits(&got_q.xv), bits(&ref_q.xv));
    // Both entries stay live: re-solving either is a hit with stable bits.
    let again = s.solve(&p, &p.b_v, &p.b_s).unwrap();
    assert!(again.info.cache_hit);
    assert_eq!(bits(&again.xv), bits(&ref_p.xv));

    // The fingerprint reads every array to its end, in order: the last word
    // of one (the tail a lane split must not drop), a block other than
    // `a_vv`, the BEM geometry, and two adjacent values trading places
    // (the same multiset of words) all miss.
    type Edit = fn(&mut CoupledProblem<f64>);
    let edits: [(&str, Edit); 4] = [
        ("last value of a_vv", |q| {
            *q.a_vv.values.last_mut().unwrap() *= 1.0 + 1e-9;
        }),
        ("one value of a_vs", |q| {
            // ... and of a_sv: the problem stays the symmetric one it says it is.
            q.a_vs.values[1] += 1e-9;
            q.a_sv = q.a_vs.transpose();
        }),
        ("one BEM coordinate", |q| q.bem.points[2].y += 1e-9),
        ("two adjacent values swapped", |q| {
            let v = &mut q.a_vv.values;
            let i = (0..v.len() - 1).find(|&i| v[i] != v[i + 1]).unwrap();
            v.swap(i, i + 1);
        }),
    ];
    for (k, (what, edit)) in edits.iter().enumerate() {
        let mut q = with_rhs(&p, p.b_v.clone(), p.b_s.clone());
        edit(&mut q);
        let got = s.solve(&q, &q.b_v, &q.b_s).unwrap();
        assert!(!got.info.cache_hit, "{what}: must not hit");
        assert_eq!(s.cache_len(), 3 + k, "{what}: its own entry");
    }
}

/// The fingerprint knob vector covers exactly the configuration inputs
/// that change factorization bits: tolerances, backend, ordering,
/// blocking — and ignores budget/threads/tracing, which do not.
#[test]
fn fingerprint_knobs_cover_factorization_inputs_only() {
    let base = cfg(2);
    let knobs = base.fingerprint_knobs();
    // eps, sparse_eps, backend, and blocking all change the key.
    for changed in [
        SolverConfig {
            eps: 1e-6,
            ..cfg(2)
        },
        SolverConfig {
            sparse_eps: Some(1e-9),
            ..cfg(2)
        },
        SolverConfig {
            dense_backend: DenseBackend::Hmat,
            ..cfg(2)
        },
        SolverConfig { n_c: 8, ..cfg(2) },
        SolverConfig { n_b: 5, ..cfg(2) },
        SolverConfig {
            dense_panel_nb: 24,
            ..cfg(2)
        },
        SolverConfig {
            hmat_leaf: 96,
            ..cfg(2)
        },
    ] {
        assert_ne!(changed.fingerprint_knobs(), knobs);
    }
    // The backend word is part of every cached session key: it must not
    // shift when the backend list changes.
    for (backend, word) in [(DenseBackend::Spido, 0), (DenseBackend::Hmat, 1)] {
        let c = SolverConfig {
            dense_backend: backend,
            ..cfg(2)
        };
        assert_eq!(c.fingerprint_knobs()[2], word);
    }
    // Budget, thread count and tracer are execution knobs: same
    // factorization bits, same fingerprint.
    for same in [
        SolverConfig {
            mem_budget: Some(1 << 30),
            ..cfg(2)
        },
        cfg(4),
        SolverConfig {
            tracer: Tracer::enabled(),
            ..cfg(2)
        },
    ] {
        assert_eq!(same.fingerprint_knobs(), knobs);
    }
}

// ---------------------------------------------------------------------
// Batching knobs
// ---------------------------------------------------------------------

/// `max_batch` auto-flushes a full queue; per-request info records the
/// panel each request actually rode.
#[test]
fn batch_width_knob_drives_autoflush() {
    let _g = lock();
    let p = pipe_problem::<f64>(400);
    let mut s = SessionBuilder::new(cfg(2), Algorithm::MultiSolve)
        .max_batch(2)
        .build::<f64>()
        .unwrap();
    let (b_v, b_s) = rhs(&p, 0);
    s.submit(&p, &b_v, &b_s).unwrap();
    assert_eq!(s.pending_len(), 1);
    s.submit(&p, &b_v, &b_s).unwrap();
    assert_eq!(s.pending_len(), 0, "full queue must auto-flush");
    s.submit(&p, &b_v, &b_s).unwrap();
    let results = s.flush().unwrap();
    assert_eq!(results.len(), 3);
    assert_eq!(results[0].info.batch_width, 2);
    assert_eq!(results[1].info.batch_width, 2);
    assert_eq!(results[2].info.batch_width, 1);
    assert_eq!(s.stats().batches, 2);
    assert!(results.iter().all(|r| r.info.queue_wait_secs >= 0.0));
}

// ---------------------------------------------------------------------
// Budget: admission degradation, eviction, structured errors
// ---------------------------------------------------------------------

/// Probe one factorization's peak tracked bytes and resident entry bytes.
fn probe_footprint(p: &CoupledProblem<f64>) -> (usize, usize) {
    let mut probe = session(2, Algorithm::MultiSolve);
    probe.solve(p, &p.b_v, &p.b_s).unwrap();
    (probe.tracker().peak(), probe.cache_bytes())
}

/// Under admission pressure the session shrinks the panel width (here all
/// the way to one column) instead of rejecting — and the degraded panels
/// still produce exactly the same bits as the wide one.
#[test]
fn admission_degrades_panel_width_without_changing_bits() {
    let _g = lock();
    let p = pipe_problem::<f64>(500);
    let (peak, _entry) = probe_footprint(&p);
    let per_col = 4 * p.n_total() * std::mem::size_of::<f64>();
    let budget = peak + 4 * per_col;
    let config = SolverConfig {
        mem_budget: Some(budget),
        ..cfg(2)
    };
    let mut s = SessionBuilder::new(config, Algorithm::MultiSolve)
        .max_batch(4)
        .build::<f64>()
        .unwrap();
    let wide_ref = s.solve(&p, &p.b_v, &p.b_s).unwrap();

    // Fill the headroom so only ~1.5 columns fit: a 4-wide flush must
    // degrade to one-column panels, not fail.
    let tracker = Arc::clone(s.tracker());
    let headroom = budget - tracker.live();
    assert!(headroom > 2 * per_col, "probe budget left too little slack");
    let ballast = tracker
        .charge(headroom - 3 * per_col / 2, "test ballast")
        .unwrap();
    for k in 0..4u64 {
        let (b_v, b_s) = rhs(&p, k);
        s.submit(&p, &b_v, &b_s).unwrap();
    }
    let degraded = s.flush().unwrap();
    assert_eq!(degraded.len(), 4);
    assert!(
        degraded.iter().all(|r| r.info.batch_width == 1),
        "headroom for 1.5 columns must degrade every panel to width 1"
    );
    assert!(s.tracker().peak() <= budget);

    // With the pressure gone the same submissions ride one wide panel —
    // and the bits match the degraded run and the one-shot path.
    drop(ballast);
    for k in 0..4u64 {
        let (b_v, b_s) = rhs(&p, k);
        s.submit(&p, &b_v, &b_s).unwrap();
    }
    let wide = s.flush().unwrap();
    assert!(wide.iter().any(|r| r.info.batch_width == 4));
    for (d, w) in degraded.iter().zip(&wide) {
        assert_eq!(bits(&d.xv), bits(&w.xv), "width must not change bits");
        assert_eq!(bits(&d.xs), bits(&w.xs));
    }
    let (b0, s0) = rhs(&p, 0);
    let one = solve(&with_rhs(&p, b0, s0), Algorithm::MultiSolve, &cfg(1)).unwrap();
    assert_eq!(bits(&degraded[0].xv), bits(&one.xv));
    drop(wide_ref);
}

/// An infeasible budget is a clean structured out-of-memory error — and
/// the session remains usable for feasible work afterwards.
#[test]
fn infeasible_budget_is_a_structured_error() {
    let _g = lock();
    let p = pipe_problem::<f64>(400);
    let config = SolverConfig {
        mem_budget: Some(10_000),
        ..cfg(2)
    };
    let mut s = SessionBuilder::new(config, Algorithm::MultiSolve)
        .build::<f64>()
        .unwrap();
    let err = s.solve(&p, &p.b_v, &p.b_s).unwrap_err();
    assert!(err.is_oom(), "got {err:?}");
    assert_eq!(s.cache_len(), 0);
    assert_eq!(s.pending_len(), 0);
}

/// The compressed Schur accumulator sets its growth allowance aside while
/// the blocks fold into it; a budgeted HMAT session that has factorized
/// holds nothing set aside any more: what is not live is free for the next
/// panel or factorization. (Bits against the one-shot solve included.)
#[test]
fn budgeted_hmat_session_holds_nothing_set_aside_once_factorized() {
    let _g = lock();
    let p = pipe_problem::<f64>(600);
    let config = SolverConfig {
        dense_backend: DenseBackend::Hmat,
        ..cfg(2)
    };
    let budget = 64 << 20;
    let one = solve(&p, Algorithm::MultiSolve, &config).unwrap();
    let budgeted = SolverConfig {
        mem_budget: Some(budget),
        ..config
    };
    let mut s = SessionBuilder::new(budgeted, Algorithm::MultiSolve)
        .build::<f64>()
        .unwrap();
    let got = s.solve(&p, &p.b_v, &p.b_s).unwrap();
    assert_eq!(bits(&got.xv), bits(&one.xv));
    assert_eq!(bits(&got.xs), bits(&one.xs));
    let t = s.tracker();
    assert_eq!(s.cache_len(), 1);
    assert!(t.live() > 0, "the cached factors stay charged");
    assert_eq!(t.available(), budget - t.live(), "bytes left set aside");
}

/// Eviction stress: a budget that holds only one resident factorization
/// cycles four distinct matrices through the cache for two rounds. The
/// tracked peak never exceeds the budget, evictions happen, and every
/// re-factorized entry answers with exactly its first-encounter bits.
#[test]
fn eviction_under_budget_refactorizes_to_identical_bits() {
    let _g = lock();
    let p = pipe_problem::<f64>(500);
    let variants: Vec<CoupledProblem<f64>> = (0..4).map(|k| perturbed(&p, k)).collect();
    let refs: Vec<_> = variants
        .iter()
        .map(|q| solve(q, Algorithm::MultiSolve, &cfg(2)).unwrap())
        .collect();
    let (peak, entry) = probe_footprint(&variants[0]);
    let budget = peak + entry / 8;
    let config = SolverConfig {
        mem_budget: Some(budget),
        ..cfg(2)
    };
    let mut s = SessionBuilder::new(config, Algorithm::MultiSolve)
        .build::<f64>()
        .unwrap();
    for round in 0..2 {
        for (q, r) in variants.iter().zip(&refs) {
            let got = s.solve(q, &q.b_v, &q.b_s).unwrap();
            assert_eq!(
                bits(&got.xv),
                bits(&r.xv),
                "round {round}: re-factorized entry diverged"
            );
            assert_eq!(bits(&got.xs), bits(&r.xs));
            assert!(s.tracker().peak() <= budget, "budget exceeded");
        }
    }
    let st = s.stats();
    assert!(st.evictions >= 3, "expected LRU churn, got {st:?}");
    assert!(st.cache_misses > 4, "re-encounters must re-factorize");
    assert!(s.cache_len() < 4, "budget holds fewer than all entries");
}

// ---------------------------------------------------------------------
// Shared budget across sessions
// ---------------------------------------------------------------------

/// Eight sessions interleave solves against one shared tracker: the
/// tracked peak stays under the shared budget, nothing deadlocks (bounded
/// watchdog), and every per-request result is bitwise deterministic.
#[test]
fn interleaved_sessions_share_one_budget_without_deadlock() {
    let _g = lock();
    let p = Arc::new(pipe_problem::<f64>(400));
    let (peak, entry) = probe_footprint(&p);
    // Room for all eight working sets and resident entries at once.
    let budget = 8 * (peak + entry);
    let tracker = csolve::common::MemTracker::with_budget(budget);

    let (tx, rx) = std::sync::mpsc::channel();
    for worker in 0..8usize {
        let (p, tracker, tx) = (Arc::clone(&p), Arc::clone(&tracker), tx.clone());
        std::thread::spawn(move || {
            let run = || -> csolve::Result<Vec<Vec<u64>>> {
                let mut s = SessionBuilder::new(cfg(1), Algorithm::MultiSolve)
                    .shared_tracker(tracker)
                    .build::<f64>()?;
                let mut out = Vec::new();
                for k in 0..3u64 {
                    // Interleave distinct RHS so panels differ per worker.
                    let (b_v, b_s) = rhs(&p, (worker as u64 + k) % 3);
                    let got = s.solve(&p, &b_v, &b_s)?;
                    out.push(bits(&got.xv));
                }
                Ok(out)
            };
            tx.send((worker, run())).unwrap();
        });
    }
    drop(tx);

    let expected: Vec<Vec<u64>> = (0..3u64)
        .map(|k| {
            let (b_v, b_s) = rhs(&p, k);
            bits(
                &solve(&with_rhs(&p, b_v, b_s), Algorithm::MultiSolve, &cfg(1))
                    .unwrap()
                    .xv,
            )
        })
        .collect();
    let mut done = 0;
    while done < 8 {
        let (worker, result) = rx
            .recv_timeout(Duration::from_secs(300))
            .expect("watchdog: a session deadlocked or stalled");
        let got = result.unwrap_or_else(|e| panic!("worker {worker} failed: {e:?}"));
        for (k, xv_bits) in got.iter().enumerate() {
            let want = &expected[(worker + k) % 3];
            assert_eq!(xv_bits, want, "worker {worker} solve {k} not deterministic");
        }
        done += 1;
    }
    assert!(tracker.peak() <= budget, "shared budget exceeded");
    assert!(tracker.peak() > 0);
}

// ---------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------

/// The `session_*` trace events (names and payloads, in order) are
/// invariant under the worker thread count — they are emitted from the
/// submitting thread at deterministic points.
#[test]
fn session_trace_events_are_thread_count_invariant() {
    let _g = lock();
    let p = pipe_problem::<f64>(400);
    let q = perturbed(&p, 0);
    let run = |threads: usize| -> Vec<String> {
        let tracer = Tracer::enabled();
        let mut c = cfg(threads);
        c.tracer = tracer.clone();
        let mut s = SessionBuilder::new(c, Algorithm::MultiSolve)
            .max_batch(4)
            .build::<f64>()
            .unwrap();
        for k in 0..2u64 {
            let (b_v, b_s) = rhs(&p, k);
            s.submit(&p, &b_v, &b_s).unwrap();
        }
        s.submit(&q, &q.b_v, &q.b_s).unwrap();
        s.flush().unwrap();
        tracer
            .drain()
            .iter()
            .filter_map(|r| match &r.payload {
                TracePayload::Event { kind, .. } if kind.name().starts_with("session_") => {
                    Some(format!("{kind:?}"))
                }
                _ => None,
            })
            .collect()
    };
    let one = run(1);
    assert!(one.iter().any(|e| e.contains("SessionCacheMiss")));
    assert!(one.iter().any(|e| e.contains("SessionCacheHit")));
    assert!(one.iter().any(|e| e.contains("SessionBatch")));
    assert_eq!(one, run(2));
    assert_eq!(one, run(4));
}

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

/// The session under a disturbed schedule: seeded pauses at every
/// admission, finalize, hand-off and release, 8 threads on however many
/// cores the host has. Two budgeted cells: the symmetric multi-factorization
/// on SPIDO at the smallest power-of-two budget its sequential run fits, and
/// the HMAT multi-solve at a budget that degrades its `BlockSizes::Auto`
/// blocking. Whatever the interleaving, every column of a width-4 panel has
/// the bits of a 1-thread one-shot `solve()`, within the budget.
#[cfg(feature = "fault-inject")]
#[test]
fn session_under_schedule_jitter_is_bitwise_and_in_budget_at_8_threads() {
    use csolve::BlockSizes;
    let guard = lock();
    let p = pipe_problem::<f64>(1_000);
    assert!(p.symmetric);
    let mf_spido = SolverConfig { n_b: 3, ..cfg(1) };
    let ms_hmat = SolverConfig {
        eps: 1e-4,
        dense_backend: DenseBackend::Hmat,
        n_c: 32,
        n_s: 128,
        block_sizes: BlockSizes::Auto,
        ..cfg(1)
    };
    let with = |base: &SolverConfig, budget: usize, num_threads: usize| SolverConfig {
        mem_budget: Some(budget),
        num_threads,
        ..base.clone()
    };
    let mf_budget = (18..34)
        .map(|shift| 1usize << shift)
        .find(|&b| solve(&p, Algorithm::MultiFactorization, &with(&mf_spido, b, 1)).is_ok())
        .expect("some budget fits the sequential run");
    // Unbounded, `Auto` keeps the configured blocking.
    let fixed_peak = solve(&p, Algorithm::MultiSolve, &ms_hmat)
        .unwrap()
        .metrics
        .peak_bytes;
    let ms_budget = [90, 80, 70, 60, 50]
        .map(|pct| fixed_peak / 100 * pct)
        .into_iter()
        .find(|&b| {
            solve(&p, Algorithm::MultiSolve, &with(&ms_hmat, b, 1))
                .is_ok_and(|out| out.metrics.autotune.is_some_and(|d| d.degraded))
        })
        .expect("some scanned budget degrades the blocking and completes");

    let cells = [
        (Algorithm::MultiFactorization, &mf_spido, mf_budget),
        (Algorithm::MultiSolve, &ms_hmat, ms_budget),
    ];
    for (algo, base, budget) in cells {
        let refs: Vec<_> = (0..4u64)
            .map(|k| {
                let (b_v, b_s) = rhs(&p, k);
                solve(&with_rhs(&p, b_v, b_s), algo, &with(base, budget, 1)).unwrap()
            })
            .collect();
        for seed in 0..4u64 {
            let run = format!(
                "[jitter seed {seed}] {} under {budget} B at 8 thr",
                algo.name()
            );
            guard.schedule_jitter(seed);
            let mut s = SessionBuilder::new(with(base, budget, 8), algo)
                .max_batch(4)
                .build::<f64>()
                .unwrap();
            for k in 0..4u64 {
                let (b_v, b_s) = rhs(&p, k);
                s.submit(&p, &b_v, &b_s)
                    .unwrap_or_else(|e| panic!("{run}: submit failed: {e}"));
            }
            let results = s
                .flush()
                .unwrap_or_else(|e| panic!("{run}: flush failed: {e}"));
            assert_eq!(results.len(), 4, "{run}");
            for (k, (r, one)) in results.iter().zip(&refs).enumerate() {
                assert_eq!(
                    r.info.batch_width, 4,
                    "{run}: rhs {k} rode a narrower panel"
                );
                assert!(
                    bits(&r.xv) == bits(&one.xv) && bits(&r.xs) == bits(&one.xs),
                    "{run}: rhs {k} not bitwise-identical to the 1-thread one-shot solve"
                );
            }
            let peak = s.stats().peak_bytes;
            assert!(peak <= budget, "{run}: peak {peak} exceeds the budget");
        }
        guard.disarm();
    }
}

/// A synthetic out-of-memory mid-refactorize (during a cache miss)
/// surfaces as a structured error, leaves the cache unpoisoned, and the
/// next identical submit factorizes cleanly to the reference bits. With a
/// resident entry to evict, the same fault degrades gracefully instead of
/// failing.
#[cfg(feature = "fault-inject")]
#[test]
fn oom_mid_refactorize_leaves_cache_uncorrupted() {
    let g = lock();
    let p = pipe_problem::<f64>(400);
    let q = perturbed(&p, 0);
    let ref_p = solve(&p, Algorithm::MultiSolve, &cfg(2)).unwrap();
    let ref_q = solve(&q, Algorithm::MultiSolve, &cfg(2)).unwrap();

    let mut s = session(2, Algorithm::MultiSolve);
    // Empty cache: nothing to evict, the OOM is final for this request.
    g.admit_oom_at(0);
    let err = s.solve(&p, &p.b_v, &p.b_s).unwrap_err();
    assert!(err.is_oom(), "got {err:?}");
    assert_eq!(s.cache_len(), 0, "failed factorization must insert nothing");
    assert_eq!(s.pending_len(), 0);
    // The one-shot fault is consumed: a clean retry of the *same*
    // fingerprint succeeds and matches the reference bitwise.
    let got = s.solve(&p, &p.b_v, &p.b_s).unwrap();
    assert!(!got.info.cache_hit);
    assert_eq!(bits(&got.xv), bits(&ref_p.xv));
    assert_eq!(bits(&got.xs), bits(&ref_p.xs));

    // With an entry resident, the same fault triggers LRU eviction and a
    // successful retry instead of an error.
    g.admit_oom_at(0);
    let got_q = s.solve(&q, &q.b_v, &q.b_s).unwrap();
    assert_eq!(bits(&got_q.xv), bits(&ref_q.xv));
    assert!(s.stats().evictions >= 1, "eviction should have rescued it");
}

/// Forced fingerprint collisions (every key hashes to one constant) must
/// not alias structurally distinct systems: the structural-summary guard
/// keeps separate entries, and each keeps answering with its own bits.
#[cfg(feature = "fault-inject")]
#[test]
fn forced_fingerprint_collisions_stay_isolated() {
    let g = lock();
    let p = pipe_problem::<f64>(400);
    let q = pipe_problem::<f64>(300);
    let ref_p = solve(&p, Algorithm::MultiSolve, &cfg(2)).unwrap();
    let ref_q = solve(&q, Algorithm::MultiSolve, &cfg(2)).unwrap();

    g.fingerprint_collision();
    let mut s = session(2, Algorithm::MultiSolve);
    let got_p = s.solve(&p, &p.b_v, &p.b_s).unwrap();
    let got_q = s.solve(&q, &q.b_v, &q.b_s).unwrap();
    assert!(!got_q.info.cache_hit, "colliding key must still miss");
    assert_eq!(s.cache_len(), 2, "collisions must cache separately");
    assert_eq!(bits(&got_p.xv), bits(&ref_p.xv));
    assert_eq!(bits(&got_q.xv), bits(&ref_q.xv));
    // Resubmits resolve to their own entries.
    let again_p = s.solve(&p, &p.b_v, &p.b_s).unwrap();
    assert!(again_p.info.cache_hit);
    assert_eq!(bits(&again_p.xv), bits(&ref_p.xv));
}

/// Maximal eviction churn (everything evicted before each admission):
/// every submit re-factorizes, and the bits never move.
#[cfg(feature = "fault-inject")]
#[test]
fn evict_all_churn_keeps_results_bitwise_stable() {
    let g = lock();
    let p = pipe_problem::<f64>(400);
    let reference = solve(&p, Algorithm::MultiSolve, &cfg(2)).unwrap();

    g.session_evict_all();
    let mut s = session(2, Algorithm::MultiSolve);
    for _ in 0..3 {
        let got = s.solve(&p, &p.b_v, &p.b_s).unwrap();
        assert!(!got.info.cache_hit, "churn forces a miss every time");
        assert_eq!(bits(&got.xv), bits(&reference.xv));
        assert_eq!(bits(&got.xs), bits(&reference.xs));
    }
    let st = s.stats();
    assert_eq!(st.cache_misses, 3);
    assert!(st.evictions >= 2, "each later submit evicts the previous");
    assert_eq!(s.cache_len(), 1);
}
