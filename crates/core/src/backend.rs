//! The crate-private dense-backend seam.
//!
//! The four driver algorithms never look at how the Schur complement is
//! stored: they accumulate block contributions, ask for the footprint,
//! factor, and solve. This module captures exactly that contract as two
//! object-safe traits — [`CompressionBackend`] for the accumulator and
//! [`FactoredSchur`] for the factored operator — plus [`BackendPolicy`], the
//! small cost-model hook the autotuner needs *before* a backend instance
//! exists. [`DenseBackend`] selects an implementation in
//! `init_backend`: that `match` is the **only** backend dispatch in the
//! crate; `driver.rs` and `schur.rs` operate purely through the trait
//! objects, so adding a backend touches this module and nothing else.
//!
//! The seam is internal: callers choose a backend through
//! `SolverConfig::dense_backend` and reach it through
//! [`crate::schur::SchurAcc`]; there is no way to hand the solver a
//! user-defined backend.
//!
//! The paper's two dense solvers live in [`crate::schur`]:
//!
//! * [`DenseBackend::Spido`] — one plain dense matrix, blocked LDLᵀ/LU;
//! * [`DenseBackend::Hmat`] — flat H-matrix with deferred ε-recompression.
//!
//! Both preserve the bitwise-determinism-across-threads contract:
//! accumulation order is fixed by the blockwise pipeline's in-order fold, and
//! all recompression/flush decisions derive from deterministic state.

use std::sync::Arc;

use csolve_common::{MemTracker, Result, Scalar, ScopeTracer};
use csolve_dense::{MatMut, MatRef};
use csolve_fembem::BemOperator;
use csolve_hmat::ClusterTree;

use crate::config::{DenseBackend, SolverConfig};
use crate::schur::{DenseSchurAcc, HmatSchurAcc};

/// What the driver algorithms need from a Schur-complement accumulator.
///
/// Implementations receive *validated* panels: the [`crate::schur::SchurAcc`]
/// wrapper has already rejected non-finite entries and non-positive `eps`
/// and dropped zero-sized panels, so an implementation only handles its own
/// bounds and storage concerns.
pub(crate) trait CompressionBackend<T: Scalar>: Send {
    /// `S[r0.., c0..] += α·panel` — direct write for the dense backend, the
    /// paper's *compressed AXPY* for the compressed backend (which records
    /// its recompression work as a `compress` span into `tr`).
    fn axpy_block(
        &mut self,
        alpha: T,
        r0: usize,
        c0: usize,
        panel: MatRef<'_, T>,
        eps: f64,
        tr: ScopeTracer<'_>,
    ) -> Result<()>;

    /// Current storage footprint of the accumulator.
    fn bytes(&self) -> usize;

    /// The accumulated `S`, densified (tests look at it before it is factored).
    #[cfg(test)]
    fn to_dense(&self) -> csolve_dense::Mat<T>;

    /// Closed-form flop count of the upcoming factorization, or 0 when the
    /// backend has none (compressed factorizations are data-dependent).
    fn factor_flops(&self, symmetric: bool) -> u64;

    /// Factor the accumulated Schur complement, consuming the accumulator.
    /// `panel_nb` is the dense backend's blocked-factorization panel width
    /// (ignored by the compressed backend, which records its hierarchical
    /// factorization as spans into `tr`).
    fn factor(
        self: Box<Self>,
        symmetric: bool,
        eps: f64,
        panel_nb: usize,
        tr: ScopeTracer<'_>,
    ) -> Result<Box<dyn FactoredSchur<T>>>;
}

/// A factored Schur complement, ready for multi-RHS panel solves.
pub(crate) trait FactoredSchur<T: Scalar>: Send + Sync {
    /// Solve `S·X = B` in place (cluster-ordered surface indices).
    fn solve_in_place(&self, b: MatMut<'_, T>);

    /// Storage pinned by the factors (session-cache LRU bookkeeping).
    fn byte_size(&self) -> usize;

    /// Closed-form flop count of a `width`-column solve, or 0 when the
    /// backend has none.
    fn solve_flops(&self, width: usize) -> u64;
}

/// Backend cost-model hooks the autotuner consults before any accumulator
/// exists (the planning stage has only the configuration).
pub(crate) trait BackendPolicy: Send + Sync {
    /// Usable share of `room` headroom bytes for blockwise working sets.
    /// The compressed backend reserves a growth allowance for the accumulator
    /// between recompression flushes; `usize::MAX` (unbounded) passes
    /// through.
    fn predicted_bytes(&self, room: usize) -> usize;

    /// The fixed (non-autotuned) multi-solve Schur panel width for a
    /// configured `(n_c, n_s)`: backends that subtract every `n_c`-column
    /// panel directly return `n_c`; backends that buffer columns per
    /// compressed AXPY return `n_s.max(n_c)`.
    fn fixed_schur_panel(&self, n_c: usize, n_s: usize) -> usize;
}

/// Policy of the uncompressed dense backend: `S` has a fixed footprint, so
/// working sets get the whole headroom and panels need no buffering.
struct SpidoPolicy;

impl BackendPolicy for SpidoPolicy {
    fn predicted_bytes(&self, room: usize) -> usize {
        room
    }

    fn fixed_schur_panel(&self, n_c: usize, _n_s: usize) -> usize {
        n_c
    }
}

/// Policy of the compressed (flat H-matrix) backend: the accumulator may
/// grow by a quarter of the headroom between flushes (`byte_cap` in
/// `schur.rs`), so blockwise working sets plan within the other three
/// quarters, and compressed AXPYs are amortized over buffered `n_s ≥ n_c`
/// column panels.
struct CompressedPolicy;

impl BackendPolicy for CompressedPolicy {
    fn predicted_bytes(&self, room: usize) -> usize {
        if room == usize::MAX {
            room
        } else {
            room - room / 4
        }
    }

    fn fixed_schur_panel(&self, n_c: usize, n_s: usize) -> usize {
        n_s.max(n_c)
    }
}

impl DenseBackend {
    /// The backend's autotuner cost-model hooks.
    pub(crate) fn policy(self) -> &'static dyn BackendPolicy {
        match self {
            DenseBackend::Spido => &SpidoPolicy,
            DenseBackend::Hmat => &CompressedPolicy,
        }
    }
}

/// Build the configured backend's accumulator holding `A_ss` (surface
/// unknowns already in cluster order). This is the single backend-selection
/// point of the crate.
pub(crate) fn init_backend<T: Scalar>(
    bem: &BemOperator<T>,
    tree: &ClusterTree,
    cfg: &SolverConfig,
    tracker: &Arc<MemTracker>,
) -> Result<Box<dyn CompressionBackend<T>>> {
    match cfg.dense_backend {
        DenseBackend::Spido => Ok(Box::new(DenseSchurAcc::init(bem, tracker)?)),
        DenseBackend::Hmat => Ok(Box::new(HmatSchurAcc::init(bem, tree, cfg, tracker)?)),
    }
}
