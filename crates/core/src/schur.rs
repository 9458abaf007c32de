//! The Schur complement layer: the accumulator [`SchurAcc`] and the factored
//! operator [`SchurFactor`], each an enum over the paper's two dense solvers
//! (SPIDO, one plain dense matrix; HMAT, a flat H-matrix).
//!
//! On a symmetric system the solver half-stores `S` on both backends: SPIDO
//! keeps its lower triangle in column blocks ([`BlockLower`], blocks of
//! [`lower_block_width`]`(dense_panel_nb)` columns, `n_s²/2 + n_s·b/2`
//! entries), HMAT its lower block triangle. A contribution is folded into
//! the stored part only, and [`SchurAcc::stored_row_floor`] tells a caller
//! which rows of a column panel it need not compute at all.
//!
//! Every public method first does the validation both backends share
//! (zero-size no-ops, `eps` sanity, NaN screening of contributions) and then
//! one `match` on the variant. The variant is chosen once, from
//! `SolverConfig::dense_backend`, when the accumulator is built.
//!
//! All storage is charged against the run's memory budget; the compressed
//! AXPY re-syncs the charge after each recompression, so an algorithm fails
//! with a clean out-of-memory error at exactly the point where the
//! corresponding real solver would die.
//!
//! The compressed (H-matrix) accumulator recompresses lazily: block
//! contributions are folded in as *formal* low-rank sums (cheap), and the
//! truncating recompression runs only when a leaf's accumulated rank exceeds
//! the flush threshold, when the accumulator's footprint crosses its byte cap
//! (its footprint at init plus `hmat_growth_allowance`), or — always —
//! right before the factorization. Under a bounded budget the byte cap is
//! set aside as a tracker scoped to the accumulator
//! ([`MemTracker::scoped`]): its growth is reserved, and counts as live only
//! as it happens; factoring ends the scope. Both triggers are computed from
//! deterministic state (the ordered-commit sequence of block contributions
//! and the budget at init), so the flush schedule, like the arithmetic, is
//! identical for every thread count.

use std::sync::Arc;

use csolve_common::{
    ByteSized, Error, MemCharge, MemTracker, RealScalar, Result, Scalar, ScopeTracer, SpanKind,
};
use csolve_dense::{
    ldlt_in_place_nb, lower_block_width, lu_in_place_nb, BlockLower, LdltFactors, LuFactors, Mat,
    MatMut, MatRef,
};
use csolve_fembem::BemOperator;
use csolve_hmat::{ClusterTree, HLu, HMatrix, HOptions};

use crate::config::{DenseBackend, SolverConfig};

/// Accumulator for `S = A_ss − Σ (Schur contributions)`, initialized with
/// `A_ss` itself by [`SchurAcc::init`].
pub enum SchurAcc<T: Scalar> {
    /// SPIDO: `S` as plain dense storage.
    Dense {
        /// The accumulated `S`.
        s: DenseS<T>,
        /// Its charge against the run's budget.
        charge: MemCharge,
    },
    /// HMAT: `S` as a flat H-matrix with deferred recompression. On a
    /// symmetric system it is half-stored (the lower block triangle, see
    /// `csolve_hmat::hmatrix`) and factored as H-LDLᵀ.
    Hmat {
        /// The accumulated `S`, possibly holding formal (untruncated) sums.
        h: HMatrix<T>,
        /// Its charge against the run's budget, re-synced after each AXPY:
        /// on a bounded budget, through a scope capped at `byte_cap`.
        charge: MemCharge,
        /// Formal rank a leaf may accumulate before it is truncated.
        flush_rank: usize,
        /// Footprint past which every leaf is recompressed at once.
        byte_cap: usize,
        /// Whether `h` holds formal sums no flush has truncated yet.
        dirty: bool,
    },
}

/// The storage of a SPIDO `S`.
pub enum DenseS<T> {
    /// All of it (an unsymmetric system, and the public [`SchurAcc::init`]).
    Full(Mat<T>),
    /// The lower triangle of a symmetric `S`, in column blocks: only the
    /// entries on or below the diagonal are charged and folded into.
    Lower(BlockLower<T>),
}

impl<T: Scalar> DenseS<T> {
    fn n(&self) -> usize {
        match self {
            Self::Full(m) => m.nrows(),
            Self::Lower(l) => l.n(),
        }
    }
}

/// How many bytes the HMAT accumulator may add to its footprint between
/// recompression flushes on a bounded budget, given the `room` the budget
/// leaves once it is charged: a quarter of it. The accumulator sets them
/// aside, so block working sets, priced against
/// [`MemTracker::available`], cannot take them.
pub(crate) fn hmat_growth_allowance(room: usize) -> usize {
    room / 4
}

impl<T: Scalar> SchurAcc<T> {
    /// Build the accumulator holding `A_ss` (surface unknowns already in
    /// cluster order) with the backend selected by `cfg.dense_backend`.
    /// Both (block) triangles are stored; `factor` with `symmetric = true`
    /// drops the upper one first. The solver itself half-stores a symmetric
    /// `S` from the start; this fully stored form survives only for callers
    /// that replay the solver out of its public layers.
    pub fn init(
        bem: &BemOperator<T>,
        tree: &ClusterTree,
        cfg: &SolverConfig,
        tracker: &Arc<MemTracker>,
    ) -> Result<Self> {
        Self::init_for(bem, tree, cfg, tracker, false)
    }

    /// [`SchurAcc::init`] for a system whose `symmetric` flag is given: a
    /// symmetric `S` is then half-stored — SPIDO's lower triangle in column
    /// blocks of [`lower_block_width`]`(cfg.dense_panel_nb)`, HMAT's lower
    /// block triangle.
    pub(crate) fn init_for(
        bem: &BemOperator<T>,
        tree: &ClusterTree,
        cfg: &SolverConfig,
        tracker: &Arc<MemTracker>,
        symmetric: bool,
    ) -> Result<Self> {
        match cfg.dense_backend {
            DenseBackend::Spido if symmetric => {
                let ns = bem.n();
                let b = lower_block_width(cfg.dense_panel_nb);
                let bytes = BlockLower::<T>::stored_len(ns, b) * std::mem::size_of::<T>();
                let charge = tracker.charge(bytes, "dense Schur/A_ss")?;
                let mut l = BlockLower::<T>::zeros(ns, b);
                // Column block by column block: rows from its diagonal down.
                for j in 0..l.blocks() {
                    let (c0, mut v) = l.block_mut(j);
                    let w = v.ncols();
                    v.copy_from(bem.assemble_block(c0..ns, c0..c0 + w).as_ref());
                }
                let s = DenseS::Lower(l);
                Ok(Self::Dense { s, charge })
            }
            DenseBackend::Spido => {
                let ns = bem.n();
                let bytes = ns * ns * std::mem::size_of::<T>();
                let charge = tracker.charge(bytes, "dense Schur/A_ss")?;
                // Block-wise assembly keeps cache behaviour sane.
                let mut mat = Mat::<T>::zeros(ns, ns);
                const BLK: usize = 512;
                let mut c0 = 0;
                while c0 < ns {
                    let c1 = (c0 + BLK).min(ns);
                    let blk = bem.assemble_block(0..ns, c0..c1);
                    mat.view_mut(0..ns, c0..c1).copy_from(blk.as_ref());
                    c0 = c1;
                }
                let s = DenseS::Full(mat);
                Ok(Self::Dense { s, charge })
            }
            DenseBackend::Hmat => {
                let opts = HOptions {
                    eps: cfg.eps,
                    eta: cfg.hmat_eta,
                    max_rank: 512,
                    method: csolve_hmat::AssembleMethod::Aca,
                };
                let oracle = |i: usize, j: usize| bem.eval(i, j);
                let h = if symmetric {
                    HMatrix::assemble_symmetric(tree, &oracle, &opts)
                } else {
                    HMatrix::assemble_root(tree, tree, &oracle, &opts)
                };
                // Leaves accumulate formal rank up to half the leaf size
                // before paying for a truncation.
                let flush_rank = (cfg.hmat_leaf / 2).max(4);
                let what = "compressed Schur/A_ss";
                // The growth between flushes is reserved, not just priced:
                // on a bounded budget the accumulator charges through a
                // scope capped at `byte_cap`, set aside now, so no block
                // working set can take the bytes its next fold needs.
                // `factor` ends the scope.
                // The room is what the tracker has not committed: bytes
                // another scope holds set aside are not free.
                let (byte_cap, acc) = if tracker.budget() == usize::MAX {
                    (usize::MAX, Arc::clone(tracker))
                } else {
                    let left = tracker.available().saturating_sub(h.byte_size());
                    let cap = h.byte_size() + hmat_growth_allowance(left);
                    (cap, MemTracker::scoped(tracker, cap, what)?)
                };
                let charge = acc.charge(h.byte_size(), what)?;
                Ok(Self::Hmat {
                    h,
                    charge,
                    flush_rank,
                    byte_cap,
                    dirty: false,
                })
            }
        }
    }

    /// `S[r0.., c0..] += α·panel` — direct write for the dense backend, the
    /// paper's *compressed AXPY* (compress + truncated add) for the
    /// compressed backend.
    ///
    /// Zero-sized panels are a no-op. The panel is screened for NaN/Inf
    /// before it is folded in: a poisoned contribution would otherwise
    /// corrupt the factorization silently (NaN compares false against every
    /// pivot threshold), so it surfaces as [`Error::NonFinite`] here, at the
    /// block where it appeared. `eps` must be finite and positive;
    /// out-of-range blocks are a [`Error::DimensionMismatch`].
    pub fn axpy_block(
        &mut self,
        alpha: T,
        r0: usize,
        c0: usize,
        panel: MatRef<'_, T>,
        eps: f64,
    ) -> Result<()> {
        self.axpy_block_traced(alpha, r0, c0, panel, eps, ScopeTracer::disabled())
    }

    /// [`SchurAcc::axpy_block`] with the compressed backend's recompression
    /// work recorded as a `compress` span into `tr` (no-op span source for
    /// the dense backend, whose AXPY involves no compression).
    pub fn axpy_block_traced(
        &mut self,
        alpha: T,
        r0: usize,
        c0: usize,
        panel: MatRef<'_, T>,
        eps: f64,
        tr: ScopeTracer<'_>,
    ) -> Result<()> {
        let (pm, pn) = (panel.nrows(), panel.ncols());
        if pm == 0 || pn == 0 {
            return Ok(());
        }
        if !(eps.is_finite() && eps > 0.0) {
            return Err(Error::InvalidConfig(format!(
                "axpy_block: eps must be finite and > 0, got {eps}"
            )));
        }
        if panel.has_non_finite() {
            return Err(Error::NonFinite {
                context: "Schur block contribution",
            });
        }
        match self {
            Self::Dense { s, .. } => {
                let n = s.n();
                if r0 + pm > n || c0 + pn > n {
                    return Err(Error::DimensionMismatch {
                        context: "SchurAcc::axpy_block",
                        expected: (n, n),
                        got: (r0 + pm, c0 + pn),
                    });
                }
                match s {
                    DenseS::Full(mat) => mat.view_mut(r0..r0 + pm, c0..c0 + pn).axpy(alpha, panel),
                    DenseS::Lower(l) => l.axpy_lower(alpha, r0, c0, panel),
                }
                Ok(())
            }
            Self::Hmat {
                h,
                charge,
                flush_rank,
                byte_cap,
                dirty,
            } => {
                let mut span = tr.span(SpanKind::Compress);
                let eps = T::Real::from_f64_real(eps);
                h.try_axpy_dense_block_deferred(alpha, r0, c0, panel, eps, *flush_rank)?;
                *dirty = true;
                if h.byte_size() > *byte_cap {
                    // The accumulator has outgrown its share of the budget:
                    // recompress everything now rather than carrying the
                    // formal sums to the next contribution.
                    h.recompress_leaves(eps);
                    *dirty = false;
                }
                span.add_bytes(h.byte_size());
                span.finish();
                charge.resize(h.byte_size(), "compressed Schur/A_ss")
            }
        }
    }

    /// Whether [`Self::factor`] may charge more than `S` holds now: only a
    /// compressed `S` under a budget, whose H-LU can outgrow the growth
    /// allowance the accumulator set aside. The dense backends factor in
    /// place, and an unbounded tracker refuses nothing.
    pub(crate) fn factor_may_grow(&self) -> bool {
        matches!(self, Self::Hmat { byte_cap, .. } if *byte_cap != usize::MAX)
    }

    /// Current storage footprint of `S`.
    pub fn bytes(&self) -> usize {
        match self {
            Self::Dense {
                s: DenseS::Full(mat),
                ..
            } => mat.byte_size(),
            Self::Dense {
                s: DenseS::Lower(l),
                ..
            } => l.byte_size(),
            Self::Hmat { h, .. } => h.byte_size(),
        }
    }

    /// The first row `S` stores in column `c0` — and, floors never
    /// decreasing, in every column after it: the rows above it of a
    /// contribution to those columns are dropped by the fold, so they need
    /// not be computed. 0 on full storage; `c0` on SPIDO's half storage; on
    /// HMAT's, the first row of the diagonal leaf that holds column `c0`.
    pub fn stored_row_floor(&self, c0: usize) -> usize {
        match self {
            Self::Dense {
                s: DenseS::Full(_), ..
            } => 0,
            Self::Dense {
                s: DenseS::Lower(_),
                ..
            } => c0,
            Self::Hmat { h, .. } => h.stored_row_floor(c0),
        }
    }

    #[cfg(test)]
    pub(crate) fn to_dense(&self) -> Mat<T> {
        match self {
            Self::Dense {
                s: DenseS::Full(mat),
                ..
            } => mat.clone(),
            Self::Dense {
                s: DenseS::Lower(l),
                ..
            } => l.to_full(),
            Self::Hmat { h, .. } => h.to_dense(),
        }
    }

    /// Closed-form flop count of factoring `S`, or 0 when the backend's
    /// compressed factorization has no closed form.
    pub fn factor_flops(&self, symmetric: bool) -> u64 {
        match self {
            Self::Dense { s, .. } => {
                let n = s.n() as u64;
                if symmetric {
                    n * n * n / 3
                } else {
                    2 * n * n * n / 3
                }
            }
            // The hierarchical factorization's cost is data-dependent.
            Self::Hmat { .. } => 0,
        }
    }

    /// Factor `S` (consuming the accumulator). `panel_nb` is the blocked
    /// factorization's panel width for the dense backend (`0` is *clamped*
    /// to the dense layer's default, [`csolve_dense::DEFAULT_PANEL_NB`]);
    /// the compressed backend ignores it. `eps` (the compressed backend's
    /// recompression tolerance) must be finite and positive. `symmetric`
    /// selects LDLᵀ on the lower triangle in column blocks (dense) / H-LDLᵀ
    /// on the lower block triangle (compressed); a fully stored `S` drops its
    /// upper part first. A half-stored `S` is an error with
    /// `symmetric = false`.
    pub fn factor(self, symmetric: bool, eps: f64, panel_nb: usize) -> Result<SchurFactor<T>> {
        self.factor_traced(symmetric, eps, panel_nb, ScopeTracer::disabled())
    }

    /// [`SchurAcc::factor`] with the compressed backend's hierarchical LU
    /// recorded as an `hlu_factor` span into `tr` (the dense backend's
    /// factorization is timed by the caller's `dense_factorization` span).
    pub fn factor_traced(
        self,
        symmetric: bool,
        eps: f64,
        panel_nb: usize,
        tr: ScopeTracer<'_>,
    ) -> Result<SchurFactor<T>> {
        if !(eps.is_finite() && eps > 0.0) {
            return Err(Error::InvalidConfig(format!(
                "SchurAcc::factor: eps must be finite and > 0, got {eps}"
            )));
        }
        match self {
            Self::Dense { s, mut charge } if symmetric => {
                let l = match s {
                    DenseS::Lower(l) => l,
                    DenseS::Full(mat) => {
                        // A fully stored accumulator is repacked, in place,
                        // into the half storage the solver's own holds: it
                        // factors the same lower data in the same blocks.
                        let l = BlockLower::from_full(mat, lower_block_width(panel_nb));
                        charge.resize(l.byte_size(), "dense Schur/A_ss")?;
                        l
                    }
                };
                let f = ldlt_in_place_nb(l, panel_nb)?;
                Ok(SchurFactor::DenseLdlt { f, charge })
            }
            Self::Dense {
                s: DenseS::Full(mat),
                charge,
            } => Ok(SchurFactor::DenseLu {
                f: lu_in_place_nb(mat, panel_nb)?,
                charge,
            }),
            Self::Dense {
                s: DenseS::Lower(_),
                ..
            } => Err(Error::InvalidConfig(
                "SchurAcc::factor: a half-stored S factors as LDLᵀ only".into(),
            )),
            Self::Hmat {
                mut h,
                mut charge,
                dirty,
                ..
            } => {
                let eps = T::Real::from_f64_real(eps);
                if symmetric {
                    // A fully stored accumulator drops its upper blocks, so it
                    // factors the same lower data a half-stored one holds (a
                    // no-op on that).
                    h.mirror_upper();
                }
                if dirty {
                    // Final flush: the factorization must see the truncated
                    // representation, not the formal accumulated sums.
                    let mut span = tr.span(SpanKind::Compress);
                    h.recompress_leaves(eps);
                    span.add_bytes(h.byte_size());
                    span.finish();
                    charge.resize(h.byte_size(), "compressed Schur/A_ss")?;
                }
                let f = HLu::factor_traced(h, eps, tr)?;
                charge.resize(f.byte_size(), "compressed Schur factors")?;
                // Nothing folds any more: what is left of the growth
                // allowance goes back to the budget.
                let charge = charge.unscope();
                Ok(SchurFactor::Hlu { f, charge })
            }
        }
    }
}

/// Factored Schur complement, ready for multi-RHS solves. Built by
/// [`SchurAcc::factor`]; each variant keeps the accumulator's budget charge.
pub enum SchurFactor<T: Scalar> {
    /// Dense LDLᵀ of a symmetric SPIDO `S`.
    DenseLdlt {
        /// The factors.
        f: LdltFactors<T>,
        /// Their charge against the run's budget.
        charge: MemCharge,
    },
    /// Dense LU of an unsymmetric SPIDO `S`.
    DenseLu {
        /// The factors.
        f: LuFactors<T>,
        /// Their charge against the run's budget.
        charge: MemCharge,
    },
    /// H-LU (H-LDLᵀ on a half-stored symmetric `S`) of an HMAT `S`.
    Hlu {
        /// The factors.
        f: HLu<T>,
        /// Their charge against the run's budget.
        charge: MemCharge,
    },
}

impl<T: Scalar> SchurFactor<T> {
    /// Solve `S·X = B` in place (cluster-ordered surface indices).
    pub fn solve_in_place(&self, b: MatMut<'_, T>) {
        match self {
            Self::DenseLdlt { f, .. } => csolve_dense::ldlt_solve_in_place(f, b),
            Self::DenseLu { f, .. } => csolve_dense::lu_solve_in_place(f, b),
            Self::Hlu { f, .. } => f.solve_in_place(b),
        }
    }

    /// Storage pinned by the factors.
    pub fn byte_size(&self) -> usize {
        match self {
            Self::DenseLdlt { f, .. } => f.byte_size(),
            Self::DenseLu { f, .. } => f.byte_size(),
            Self::Hlu { f, .. } => f.byte_size(),
        }
    }

    /// Closed-form flop count of a `width`-column solve, or 0 when the
    /// backend has none.
    pub fn solve_flops(&self, width: usize) -> u64 {
        // Two triangular solves on the n×n factor per column.
        let dense = |n: usize| 2 * (n as u64) * (n as u64) * (width as u64);
        match self {
            Self::DenseLdlt { f, .. } => dense(f.ld.n()),
            Self::DenseLu { f, .. } => dense(f.lu.nrows()),
            // The hierarchical solve's cost has no closed form.
            Self::Hlu { .. } => 0,
        }
    }
}
