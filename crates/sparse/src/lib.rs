//! Sparse direct solver of the `csolve` stack — the MUMPS-equivalent.
//!
//! A multifrontal LDLᵀ (symmetric) / LU (unsymmetric, symmetrized pattern)
//! factorization with:
//!
//! * fill-reducing orderings (graph nested dissection by default, RCM and
//!   natural as alternatives) — [`ordering`];
//! * elimination tree, postordering, exact column counts and fundamental
//!   supernode detection with relaxed amalgamation — [`etree`], [`symbolic`];
//!   the part that depends on the eliminated block alone is an
//!   [`EliminationStructure`], built once and extended to every matrix that
//!   shares the block (a multi-factorization run's tiles and `A_vv`);
//! * dense frontal matrices partially factored by the `csolve-dense` kernels,
//!   contribution blocks passed up the assembly tree — [`numeric`];
//! * the **Schur complement functionality** of the paper: a designated set of
//!   variables is never eliminated and the root front is returned as a dense
//!   matrix, faithfully reproducing both the feature and the API limitation
//!   (no compressed Schur output) of fully-featured sparse direct solvers —
//!   [`numeric::factorize_schur`], or the Schur complement alone with the
//!   factors discarded as they are computed —
//!   [`numeric::schur_complement_analyzed`];
//! * optional **BLR compression** of the factor panels (the solver-internal
//!   low-rank compression the paper toggles in its experiments);
//! * multi-RHS forward/backward solves with sparse-RHS tree pruning
//!   (the equivalent of MUMPS `ICNTL(20)`, always on in the paper) —
//!   [`SparseFactorization::solve_in_place`];
//! * byte-accurate accounting of factor storage and active-memory peak,
//!   with enforcement against a [`csolve_common::MemTracker`] budget.

// Index-based loops mirror the reference algorithms (LAPACK/CSparse style)
// and are kept for readability of the numeric kernels.
#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)]

pub mod etree;
#[cfg(feature = "fault-inject")]
pub mod fault;
pub mod formats;
pub mod numeric;
pub mod ordering;
pub mod symbolic;

pub use formats::{Coo, Csc};
pub use numeric::{
    factorize, factorize_analyzed, factorize_schur, schur_complement_analyzed, FactorStats,
    SparseFactorization, SparseOptions, Symmetry, BLR_MIN_COLS, BLR_MIN_ROWS,
};
pub use ordering::OrderingKind;
pub use symbolic::{EliminationStructure, SymbolicFactorization};

#[cfg(test)]
mod tests;
