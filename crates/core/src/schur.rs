//! The Schur complement accumulator and its two backend implementations.
//!
//! [`SchurAcc`] / [`SchurFactor`] are thin wrappers over the crate-private
//! `CompressionBackend` / `FactoredSchur` trait objects of `backend.rs`: the
//! wrapper performs the validation shared by both backends (zero-size
//! no-ops, `eps` sanity, NaN screening of contributions) and delegates
//! storage decisions to the selected implementation. Backend selection
//! happens once, in `init_backend` (`backend.rs`) — no `DenseBackend`
//! dispatch exists here or in the driver.
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
//! (set from the memory budget at init), or — always — right before the
//! factorization. Both triggers are computed from deterministic state (the
//! ordered-commit sequence of block contributions and the budget at init),
//! so the flush schedule, like the arithmetic, is identical for every
//! thread count.

use std::sync::Arc;

use csolve_common::{
    ByteSized, Error, MemCharge, MemTracker, RealScalar, Result, Scalar, ScopeTracer, SpanKind,
};
use csolve_dense::{ldlt_in_place_nb, lu_in_place_nb, Mat, MatMut, MatRef};
use csolve_fembem::BemOperator;
use csolve_hmat::{ClusterTree, HLu, HMatrix, HOptions};

use crate::backend::{CompressionBackend, FactoredSchur};
use crate::config::SolverConfig;

/// Accumulator for `S = A_ss − Σ (Schur contributions)`, initialized with
/// `A_ss` itself. Wraps the configured backend's accumulator.
pub struct SchurAcc<T: Scalar> {
    inner: Box<dyn CompressionBackend<T>>,
}

impl<T: Scalar> SchurAcc<T> {
    /// Build the accumulator holding `A_ss` (surface unknowns already in
    /// cluster order) with the backend selected by
    /// `cfg.dense_backend`.
    pub fn init(
        bem: &BemOperator<T>,
        tree: &ClusterTree,
        cfg: &SolverConfig,
        tracker: &Arc<MemTracker>,
    ) -> Result<Self> {
        Ok(Self {
            inner: crate::backend::init_backend(bem, tree, cfg, tracker)?,
        })
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
        self.inner.axpy_block(alpha, r0, c0, panel, eps, tr)
    }

    /// Current storage footprint of `S`.
    pub fn bytes(&self) -> usize {
        self.inner.bytes()
    }

    #[cfg(test)]
    pub(crate) fn to_dense(&self) -> Mat<T> {
        self.inner.to_dense()
    }

    /// Closed-form flop count of factoring `S`, or 0 when the backend's
    /// compressed factorization has no closed form.
    pub fn factor_flops(&self, symmetric: bool) -> u64 {
        self.inner.factor_flops(symmetric)
    }

    /// Factor `S` (consuming the accumulator). `panel_nb` is the blocked
    /// factorization's panel width for the dense backend (`0` is *clamped*
    /// to the dense layer's default, [`csolve_dense::DEFAULT_PANEL_NB`]);
    /// the compressed backend ignores it. `eps` (the compressed backend's
    /// recompression tolerance) must be finite and positive.
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
        Ok(SchurFactor {
            inner: self.inner.factor(symmetric, eps, panel_nb, tr)?,
        })
    }
}

/// Factored Schur complement, ready for multi-RHS solves. Wraps the
/// backend's factored operator.
pub struct SchurFactor<T: Scalar> {
    inner: Box<dyn FactoredSchur<T>>,
}

impl<T: Scalar> SchurFactor<T> {
    /// Solve `S·X = B` in place (cluster-ordered surface indices).
    pub fn solve_in_place(&self, b: MatMut<'_, T>) {
        self.inner.solve_in_place(b)
    }

    /// Storage pinned by the factors.
    pub fn byte_size(&self) -> usize {
        self.inner.byte_size()
    }

    /// Closed-form flop count of a `width`-column solve, or 0 when the
    /// backend has none.
    pub fn solve_flops(&self, width: usize) -> u64 {
        self.inner.solve_flops(width)
    }
}

// ---------------------------------------------------------------------------
// SPIDO backend: one plain dense matrix.
// ---------------------------------------------------------------------------

/// Uncompressed dense accumulator (`DenseBackend::Spido`).
pub(crate) struct DenseSchurAcc<T: Scalar> {
    mat: Mat<T>,
    charge: MemCharge,
}

impl<T: Scalar> DenseSchurAcc<T> {
    pub(crate) fn init(bem: &BemOperator<T>, tracker: &Arc<MemTracker>) -> Result<Self> {
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
        Ok(Self { mat, charge })
    }
}

impl<T: Scalar> CompressionBackend<T> for DenseSchurAcc<T> {
    fn axpy_block(
        &mut self,
        alpha: T,
        r0: usize,
        c0: usize,
        panel: MatRef<'_, T>,
        _eps: f64,
        _tr: ScopeTracer<'_>,
    ) -> Result<()> {
        let (pm, pn) = (panel.nrows(), panel.ncols());
        if r0 + pm > self.mat.nrows() || c0 + pn > self.mat.ncols() {
            return Err(Error::DimensionMismatch {
                context: "SchurAcc::axpy_block",
                expected: (self.mat.nrows(), self.mat.ncols()),
                got: (r0 + pm, c0 + pn),
            });
        }
        let mut dst = self.mat.view_mut(r0..r0 + pm, c0..c0 + pn);
        dst.axpy(alpha, panel);
        Ok(())
    }

    fn bytes(&self) -> usize {
        self.mat.byte_size()
    }

    #[cfg(test)]
    fn to_dense(&self) -> Mat<T> {
        self.mat.clone()
    }

    fn factor_flops(&self, symmetric: bool) -> u64 {
        let n = self.mat.nrows() as u64;
        if symmetric {
            n * n * n / 3
        } else {
            2 * n * n * n / 3
        }
    }

    fn factor(
        self: Box<Self>,
        symmetric: bool,
        _eps: f64,
        panel_nb: usize,
        _tr: ScopeTracer<'_>,
    ) -> Result<Box<dyn FactoredSchur<T>>> {
        let this = *self;
        let n = this.mat.nrows();
        if symmetric {
            let f = ldlt_in_place_nb(this.mat, panel_nb)?;
            Ok(Box::new(DenseLdltFactor {
                f,
                n,
                _charge: this.charge,
            }))
        } else {
            let f = lu_in_place_nb(this.mat, panel_nb)?;
            Ok(Box::new(DenseLuFactor {
                f,
                n,
                _charge: this.charge,
            }))
        }
    }
}

struct DenseLdltFactor<T: Scalar> {
    f: csolve_dense::LdltFactors<T>,
    n: usize,
    _charge: MemCharge,
}

impl<T: Scalar> FactoredSchur<T> for DenseLdltFactor<T> {
    fn solve_in_place(&self, b: MatMut<'_, T>) {
        csolve_dense::ldlt_solve_in_place(&self.f, b)
    }

    fn byte_size(&self) -> usize {
        self.f.byte_size()
    }

    fn solve_flops(&self, width: usize) -> u64 {
        // Two triangular solves on the n×n factor per column.
        2 * (self.n as u64) * (self.n as u64) * (width as u64)
    }
}

struct DenseLuFactor<T: Scalar> {
    f: csolve_dense::LuFactors<T>,
    n: usize,
    _charge: MemCharge,
}

impl<T: Scalar> FactoredSchur<T> for DenseLuFactor<T> {
    fn solve_in_place(&self, b: MatMut<'_, T>) {
        csolve_dense::lu_solve_in_place(&self.f, b)
    }

    fn byte_size(&self) -> usize {
        self.f.byte_size()
    }

    fn solve_flops(&self, width: usize) -> u64 {
        2 * (self.n as u64) * (self.n as u64) * (width as u64)
    }
}

// ---------------------------------------------------------------------------
// Flat H-matrix backend.
// ---------------------------------------------------------------------------

/// Compute the compressed backend's deferred-recompression policy, fixed
/// deterministically at init: leaves accumulate formal rank up to half the
/// leaf size before paying for a truncation, and the whole accumulator
/// flushes when it has grown into a quarter of the budget headroom measured
/// here.
fn flush_policy(cfg: &SolverConfig, tracker: &MemTracker, base_bytes: usize) -> (usize, usize) {
    let flush_rank = (cfg.hmat_leaf / 2).max(4);
    let byte_cap = if tracker.budget() == usize::MAX {
        usize::MAX
    } else {
        let headroom = tracker.budget().saturating_sub(tracker.live());
        base_bytes.saturating_add(headroom / 4)
    };
    (flush_rank, byte_cap)
}

/// Flat hierarchical accumulator (`DenseBackend::Hmat`).
pub(crate) struct HmatSchurAcc<T: Scalar> {
    h: HMatrix<T>,
    charge: MemCharge,
    flush_rank: usize,
    byte_cap: usize,
    dirty: bool,
}

impl<T: Scalar> HmatSchurAcc<T> {
    pub(crate) fn init(
        bem: &BemOperator<T>,
        tree: &ClusterTree,
        cfg: &SolverConfig,
        tracker: &Arc<MemTracker>,
    ) -> Result<Self> {
        let opts = HOptions {
            eps: cfg.eps,
            eta: cfg.hmat_eta,
            max_rank: 512,
            method: csolve_hmat::AssembleMethod::Aca,
        };
        let oracle = |i: usize, j: usize| bem.eval(i, j);
        let h = HMatrix::assemble_root(tree, tree, &oracle, &opts);
        let charge = tracker.charge(h.byte_size(), "compressed Schur/A_ss")?;
        let (flush_rank, byte_cap) = flush_policy(cfg, tracker, h.byte_size());
        Ok(Self {
            h,
            charge,
            flush_rank,
            byte_cap,
            dirty: false,
        })
    }
}

impl<T: Scalar> CompressionBackend<T> for HmatSchurAcc<T> {
    fn axpy_block(
        &mut self,
        alpha: T,
        r0: usize,
        c0: usize,
        panel: MatRef<'_, T>,
        eps: f64,
        tr: ScopeTracer<'_>,
    ) -> Result<()> {
        let mut span = tr.span(SpanKind::Compress);
        self.h.try_axpy_dense_block_deferred(
            alpha,
            r0,
            c0,
            panel,
            T::Real::from_f64_real(eps),
            self.flush_rank,
        )?;
        self.dirty = true;
        if self.h.byte_size() > self.byte_cap {
            // The accumulator has outgrown its share of the budget:
            // recompress everything now rather than carrying the formal
            // sums to the next contribution.
            self.h.recompress_leaves(T::Real::from_f64_real(eps));
            self.dirty = false;
        }
        span.add_bytes(self.h.byte_size());
        span.finish();
        self.charge
            .resize(self.h.byte_size(), "compressed Schur/A_ss")
    }

    fn bytes(&self) -> usize {
        self.h.byte_size()
    }

    #[cfg(test)]
    fn to_dense(&self) -> Mat<T> {
        self.h.to_dense()
    }

    fn factor_flops(&self, _symmetric: bool) -> u64 {
        // The hierarchical factorization's cost is data-dependent.
        0
    }

    fn factor(
        self: Box<Self>,
        _symmetric: bool,
        eps: f64,
        _panel_nb: usize,
        tr: ScopeTracer<'_>,
    ) -> Result<Box<dyn FactoredSchur<T>>> {
        let mut this = *self;
        if this.dirty {
            // Final flush: the factorization must see the truncated
            // representation, not the formal accumulated sums.
            let mut span = tr.span(SpanKind::Compress);
            this.h.recompress_leaves(T::Real::from_f64_real(eps));
            span.add_bytes(this.h.byte_size());
            span.finish();
            this.charge
                .resize(this.h.byte_size(), "compressed Schur/A_ss")?;
        }
        let f = HLu::factor_traced(this.h, T::Real::from_f64_real(eps), tr)?;
        let mut charge = this.charge;
        charge.resize(f.byte_size(), "compressed Schur factors")?;
        Ok(Box::new(HluFactor { f, _charge: charge }))
    }
}

struct HluFactor<T: Scalar> {
    f: HLu<T>,
    _charge: MemCharge,
}

impl<T: Scalar> FactoredSchur<T> for HluFactor<T> {
    fn solve_in_place(&self, b: MatMut<'_, T>) {
        self.f.solve_in_place(b)
    }

    fn byte_size(&self) -> usize {
        self.f.byte_size()
    }

    fn solve_flops(&self, _width: usize) -> u64 {
        // The hierarchical solve's cost has no closed form.
        0
    }
}
