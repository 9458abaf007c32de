//! Staged replay: the workload's algorithm re-executed out of the layers'
//! public calls, in the order `crates/core/src/driver.rs` makes them and
//! with the blocking the timed run used, each call wrapped in a span.
//!
//! What the replay leaves out is exactly what `core.driver_overhead_s`
//! measures: admission against the budget scheduler, the ordered-commit
//! hand-off, the task DAG and the phase timers.

use std::sync::Arc;

use csolve::common::{MemTracker, RealScalar};
use csolve::dense::{with_colwise_det, Mat};
use csolve::hmat::ClusterTree;
use csolve::solver::autotune::fixed_multi_solve_blocking;
use csolve::solver::schur::{SchurAcc, SchurFactor};
use csolve::sparse::{
    factorize, factorize_schur, Coo, Csc, FactorStats, SparseFactorization, SparseOptions, Symmetry,
};
use csolve::{
    Algorithm, CoupledProblem, DenseBackend, Metrics, Result, Scalar, SolverConfig, Tracer,
};

use crate::spans::SpanLog;

/// Block sizes of the blockwise Schur assembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Blocking {
    /// Multi-solve: `n_c` columns per sparse solve, `n_s` per Schur panel.
    MultiSolve { n_c: usize, n_s: usize },
    /// Multi-factorization: `n_b × n_b` tiles.
    MultiFactorization { n_b: usize },
}

impl Blocking {
    /// The blocking a `solve()` with `cfg` used: the autotuner's decision
    /// when it ran, the configured sizes otherwise.
    pub fn of_run(algo: Algorithm, cfg: &SolverConfig, metrics: &Metrics) -> Self {
        match (algo, metrics.autotune) {
            (Algorithm::MultiFactorization, Some(d)) => Blocking::MultiFactorization { n_b: d.n_b },
            (Algorithm::MultiFactorization, None) => Blocking::MultiFactorization { n_b: cfg.n_b },
            (_, Some(d)) => Blocking::MultiSolve {
                n_c: d.n_c,
                n_s: d.n_s,
            },
            (_, None) => {
                let (n_c, n_s) = fixed_multi_solve_blocking(cfg);
                Blocking::MultiSolve { n_c, n_s }
            }
        }
    }
}

/// Span layer/name of the three Schur-accumulator calls, by backend: the
/// dense backend's accumulator is BEM block assembly plus `dense` kernels,
/// the compressed one is `hmat`.
struct SchurNames {
    init: (&'static str, &'static str),
    axpy: (&'static str, &'static str),
    factor: (&'static str, &'static str),
    solve: (&'static str, &'static str),
    panel_solve: (&'static str, &'static str),
    /// The surface ordering: an H-matrix cluster tree, or (dense backend)
    /// only the permutation it induces.
    order: (&'static str, &'static str),
}

fn schur_names(backend: DenseBackend) -> SchurNames {
    if backend == DenseBackend::Spido {
        SchurNames {
            init: ("fembem", "schur_init"),
            axpy: ("dense", "schur_axpy"),
            factor: ("dense", "schur_factor"),
            solve: ("dense", "schur_solve"),
            panel_solve: ("dense", "schur_panel_solve"),
            order: ("core", "surface_order"),
        }
    } else {
        SchurNames {
            init: ("hmat", "schur_init"),
            axpy: ("hmat", "axpy"),
            factor: ("hmat", "factor"),
            solve: ("hmat", "solve"),
            panel_solve: ("hmat", "panel_solve"),
            order: ("hmat", "cluster_build"),
        }
    }
}

/// The factors the replay ends with, plus what the probes need from it.
pub struct Replayed<T: Scalar> {
    pub tree: ClusterTree,
    pub a_sv: Csc<T>,
    pub a_vs: Csc<T>,
    pub fact: SparseFactorization<T>,
    pub sf: SchurFactor<T>,
    pub backend: DenseBackend,
    /// Statistics of the plain `A_vv` factorization.
    pub factor_stats: FactorStats,
    /// Schur storage right before its factorization.
    pub schur_bytes: usize,
    /// Closed-form flops of the Schur factorization (0 when compressed).
    pub schur_factor_flops: u64,
    /// The off-diagonal block of the first Schur panel `Z₀` the low-rank
    /// probes compress, with its row/column offsets in `S`.
    pub z0_block: Option<(Mat<T>, usize, usize)>,
}

fn sparse_options<T: Scalar>(
    p: &CoupledProblem<T>,
    cfg: &SolverConfig,
    tracker: &Arc<MemTracker>,
    symmetry: Option<Symmetry>,
) -> SparseOptions {
    SparseOptions {
        ordering: cfg.ordering,
        symmetry: symmetry.unwrap_or(if p.symmetric {
            Symmetry::SymmetricLdlt
        } else {
            Symmetry::UnsymmetricLu
        }),
        blr_eps: cfg.effective_sparse_eps(),
        tracker: Some(Arc::clone(tracker)),
        panel_nb: cfg.dense_panel_nb,
        tracer: Tracer::disabled(),
        trace_seq: None,
    }
}

fn timed_factorize<T: Scalar>(
    log: &mut SpanLog,
    a: &Csc<T>,
    opts: &SparseOptions,
) -> Result<SparseFactorization<T>> {
    log.time("sparse", "factorize", |log| {
        let f = factorize(a, opts)?;
        log.count("flops", f.stats().flops);
        log.count("factor_bytes", f.stats().factor_bytes as f64);
        Ok(f)
    })
}

fn push_csc<T: Scalar>(coo: &mut Coo<T>, a: &Csc<T>, r0: usize, c0: usize) {
    for j in 0..a.ncols {
        for p in a.colptr[j]..a.colptr[j + 1] {
            coo.push(r0 + a.rowidx[p], c0 + j, a.values[p]);
        }
    }
}

/// An off-diagonal block of the first Schur panel `z` (its columns start at
/// 0): rows of a right cluster against the columns of its left sibling,
/// descending along left children until the block is not identically zero
/// (surface patches without volume neighbours contribute zero rows).
fn off_diagonal_block<T: Scalar>(tree: &ClusterTree, z: &Mat<T>) -> Option<(Mat<T>, usize, usize)> {
    let mut node = tree.root();
    for _ in 0..4 {
        let (left, right) = tree.node(node).children?;
        let (l, r) = (tree.node(left), tree.node(right));
        let block = z.submatrix(r.begin..r.end, 0..l.end.min(z.ncols()));
        if block.norm_fro() > T::Real::RZERO {
            return Some((block, r.begin, 0));
        }
        node = left;
    }
    None
}

/// Re-execute the factorization phase of `problem`'s workload and its
/// one-RHS solution phase. Returns the factors and the solution (original
/// ordering). Call inside a 1-thread rayon pool.
pub fn replay<T: Scalar>(
    problem: &CoupledProblem<T>,
    cfg: &SolverConfig,
    blocking: Blocking,
    log: &mut SpanLog,
) -> Result<(Replayed<T>, Vec<T>, Vec<T>)> {
    log.time("core", "replay", |log| {
        let replayed = factor_phase(problem, cfg, blocking, log)?;
        let (xv, xs) = solution_phase(&replayed, &problem.b_v, &problem.b_s, false, log)?;
        Ok((replayed, xv, xs))
    })
}

fn factor_phase<T: Scalar>(
    p: &CoupledProblem<T>,
    cfg: &SolverConfig,
    blocking: Blocking,
    log: &mut SpanLog,
) -> Result<Replayed<T>> {
    let (nv, ns) = (p.n_fem(), p.n_bem());
    let names = schur_names(cfg.dense_backend);
    let one = T::ONE;
    let tracker = match cfg.mem_budget {
        Some(b) => MemTracker::with_budget(b),
        None => MemTracker::unbounded(),
    };

    let tree = log.time(names.order.0, names.order.1, |_| {
        ClusterTree::build(&p.bem.points, cfg.hmat_leaf)
    });
    let perm = tree.perm.clone();
    let all_v: Vec<usize> = (0..nv).collect();
    let (a_sv, a_vs) = log.time("sparse", "submatrix", |_| {
        (
            p.a_sv.submatrix(&perm, &all_v),
            p.a_vs.submatrix(&all_v, &perm),
        )
    });
    let bem = p.bem.permuted(&perm);
    let opts = sparse_options(p, cfg, &tracker, None);
    let init_schur = |log: &mut SpanLog| {
        log.time(names.init.0, names.init.1, |_| {
            SchurAcc::init(&bem, &tree, cfg, &tracker)
        })
    };

    let mut z0_block = None;
    let (fact, schur) = match blocking {
        Blocking::MultiSolve { n_c, n_s } => {
            let fact = timed_factorize(log, &p.a_vv, &opts)?;
            let mut schur = init_schur(log)?;
            let mut p0 = 0;
            while p0 < ns {
                let p1 = (p0 + n_s.max(1)).min(ns);
                log.time("core", "panel", |log| -> Result<()> {
                    let mut z = Mat::<T>::zeros(ns, p1 - p0);
                    let mut c0 = p0;
                    while c0 < p1 {
                        let c1 = (c0 + n_c.max(1)).min(p1);
                        let cols: Vec<usize> = (c0..c1).collect();
                        let rhs =
                            log.time("sparse", "submatrix", |_| a_vs.submatrix(&all_v, &cols));
                        let y = log.time("sparse", "solve_sparse_rhs", |log| {
                            log.count("cols", (c1 - c0) as f64);
                            fact.solve_sparse_rhs(&rhs)
                        })?;
                        log.time("sparse", "spmm", |log| {
                            log.count("flops", 2.0 * a_sv.nnz() as f64 * (c1 - c0) as f64);
                            a_sv.mul_dense(
                                one,
                                y.as_ref(),
                                T::ZERO,
                                z.view_mut(0..ns, (c0 - p0)..(c1 - p0)),
                            )
                        });
                        c0 = c1;
                    }
                    if p0 == 0 {
                        z0_block = off_diagonal_block(&tree, &z);
                    }
                    log.time(names.axpy.0, names.axpy.1, |log| {
                        log.count("cols", (p1 - p0) as f64);
                        schur.axpy_block(-one, 0, p0, z.as_ref(), cfg.eps)
                    })
                })?;
                p0 = p1;
            }
            (Some(fact), schur)
        }
        Blocking::MultiFactorization { n_b } => {
            let mut schur = init_schur(log)?;
            let n_b = n_b.clamp(1, ns.max(1));
            let blk = ns.div_ceil(n_b);
            let ranges: Vec<std::ops::Range<usize>> = (0..n_b)
                .map(|b| (b * blk)..((b + 1) * blk).min(ns))
                .filter(|r| !r.is_empty())
                .collect();
            // The stacked W is unsymmetric whatever the coupled system is.
            let w_opts = sparse_options(p, cfg, &tracker, Some(Symmetry::UnsymmetricLu));
            for ri in &ranges {
                for rj in &ranges {
                    log.time("core", "tile", |log| -> Result<()> {
                        let rows: Vec<usize> = ri.clone().collect();
                        let cols: Vec<usize> = rj.clone().collect();
                        let (a_sv_i, a_vs_j) = log.time("sparse", "submatrix", |_| {
                            (a_sv.submatrix(&rows, &all_v), a_vs.submatrix(&all_v, &cols))
                        });
                        let m = rows.len().max(cols.len());
                        let w = log.time("sparse", "assemble_w", |_| {
                            let nnz = p.a_vv.nnz() + a_sv_i.nnz() + a_vs_j.nnz();
                            let mut coo = Coo::with_capacity(nv + m, nv + m, nnz);
                            push_csc(&mut coo, &p.a_vv, 0, 0);
                            push_csc(&mut coo, &a_vs_j, 0, nv);
                            push_csc(&mut coo, &a_sv_i, nv, 0);
                            coo.to_csc()
                        });
                        let schur_vars: Vec<usize> = (nv..nv + m).collect();
                        let x = log.time("sparse", "factorize_schur", |log| {
                            let (f, x) = factorize_schur(&w, &schur_vars, &w_opts)?;
                            log.count("flops", f.stats().flops);
                            log.count("peak_bytes", f.stats().peak_bytes as f64);
                            Ok::<_, csolve::Error>(x)
                        })?;
                        log.time(names.axpy.0, names.axpy.1, |_| {
                            schur.axpy_block(
                                one,
                                ri.start,
                                rj.start,
                                x.view(0..rows.len(), 0..cols.len()),
                                cfg.eps,
                            )
                        })
                    })?;
                }
            }
            (None, schur)
        }
    };

    let schur_bytes = schur.bytes();
    let schur_factor_flops = schur.factor_flops(p.symmetric);
    let sf = log.time(names.factor.0, names.factor.1, |log| {
        log.count("bytes", schur_bytes as f64);
        log.count("flops", schur_factor_flops as f64);
        schur.factor(p.symmetric, cfg.eps, cfg.dense_panel_nb)
    })?;
    // Multi-factorization factors A_vv last: the W factorizations cannot be
    // reused for the solution phase.
    let fact = match fact {
        Some(f) => f,
        None => timed_factorize(log, &p.a_vv, &opts)?,
    };
    let factor_stats = *fact.stats();
    Ok(Replayed {
        tree,
        a_sv,
        a_vs,
        fact,
        sf,
        backend: cfg.dense_backend,
        factor_stats,
        schur_bytes,
        schur_factor_flops,
        z0_block,
    })
}

/// The solution phase for a `w`-column panel (`b_v`: `nv × w`, `b_s`:
/// `ns × w`, column-major, original ordering): `driver.rs`'s
/// `finish_solution` for `colwise = false`, and the session's
/// `finish_solution_panel` under `with_colwise_det` for `colwise = true`.
pub fn solution_phase<T: Scalar>(
    r: &Replayed<T>,
    b_v: &[T],
    b_s: &[T],
    colwise: bool,
    log: &mut SpanLog,
) -> Result<(Vec<T>, Vec<T>)> {
    let names = schur_names(r.backend);
    let (nv, ns) = (r.fact.n(), r.a_sv.nrows);
    let w = b_v.len() / nv.max(1);
    let (sparse_name, schur_name) = if colwise {
        ("panel_solve", names.panel_solve)
    } else {
        ("solve_in_place", names.solve)
    };
    let body = |log: &mut SpanLog| -> Result<(Vec<T>, Vec<T>)> {
        let mut xs = Mat::<T>::zeros(ns, w);
        for j in 0..w {
            let col = &b_s[j * ns..(j + 1) * ns];
            for (dst, &o) in xs.col_mut(j).iter_mut().zip(&r.tree.perm) {
                *dst = col[o];
            }
        }
        // T = A_vv⁻¹ B_v
        let mut t = Mat::from_col_major(nv, w, b_v.to_vec());
        log.time("sparse", sparse_name, |log| {
            log.count("cols", w as f64);
            r.fact.solve_in_place(&mut t)
        })?;
        // RHS_s = B_s − A_sv T, then X_s = S⁻¹ RHS_s
        for j in 0..w {
            let mut rhs_s = xs.col(j).to_vec();
            r.a_sv.matvec(-T::ONE, t.col(j), T::ONE, &mut rhs_s);
            xs.col_mut(j).copy_from_slice(&rhs_s);
        }
        log.time(schur_name.0, schur_name.1, |log| {
            log.count("cols", w as f64);
            r.sf.solve_in_place(xs.as_mut())
        });
        // X_v = A_vv⁻¹ (B_v − A_vs X_s)
        let mut bv2 = Mat::from_col_major(nv, w, b_v.to_vec());
        for j in 0..w {
            let x = xs.col(j).to_vec();
            let mut tmp = bv2.col(j).to_vec();
            r.a_vs.matvec(-T::ONE, &x, T::ONE, &mut tmp);
            bv2.col_mut(j).copy_from_slice(&tmp);
        }
        log.time("sparse", sparse_name, |log| {
            log.count("cols", w as f64);
            r.fact.solve_in_place(&mut bv2)
        })?;
        let mut xs_out = Vec::with_capacity(ns * w);
        for j in 0..w {
            xs_out.extend(r.tree.to_original_order(xs.col(j)));
        }
        Ok((bv2.data().to_vec(), xs_out))
    };
    if colwise {
        log.time("core", "panel_solve", |log| with_colwise_det(|| body(log)))
    } else {
        body(log)
    }
}
