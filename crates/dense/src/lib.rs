//! Dense linear algebra layer of the `csolve` stack.
//!
//! This crate plays the role of the proprietary ScaLAPACK-like dense direct
//! solver (SPIDO) used in the reproduced paper: a column-major matrix type
//! ([`Mat`]) together with cache-blocked, packed, rayon-parallel BLAS-3
//! kernels ([`gemm()`] with a register-tiled microkernel, blocked
//! [`trsm_left`]/[`trsm_right`]), full and *partial* LU / LDLᵀ factorizations
//! and the corresponding triangular solves. All kernels produce bitwise
//! identical results for any thread count (see `gemm`'s module docs).
//!
//! Every multi-RHS solve of the stack — the sparse one, [`lu_solve_in_place`]
//! / [`ldlt_solve_in_place`] here and the H-matrix one — runs on the
//! row-major lane workspaces of [`lane`], so it is *column-separable by
//! layout*: column `j` of a width-`w` solve has the bits of its width-1
//! solve, at any width and thread count. No mode exists to enter for that.
//!
//! The *partial* factorizations ([`partial_ldlt`], [`partial_lu`]) eliminate
//! only the leading `k` variables of a matrix and leave the trailing block
//! updated with the corresponding Schur complement — this is the dense kernel
//! at the heart of the multifrontal sparse solver (`csolve-sparse`), where
//! each frontal matrix is partially factorized and its contribution block is
//! passed to the parent front.
//!
//! Complex *symmetric* (not Hermitian) matrices are factored with the plain
//! transpose LDLᵀ, matching the paper's acoustic FEM/BEM systems.

// Index-based loops mirror the reference algorithms (LAPACK/CSparse style)
// and are kept for readability of the numeric kernels.
#![allow(clippy::needless_range_loop)]

pub mod cache;
pub mod factor;
pub mod gemm;
pub mod lane;
pub mod mat;
mod pack;
mod simd;
mod small;
pub mod solve;
pub mod stats;
pub mod trsm;

pub use cache::{cache_info, kernel_blocking, CacheInfo, CacheSource, KernelBlocking};
pub use factor::{
    ldlt_in_place, ldlt_in_place_nb, lu_in_place, lu_in_place_nb, partial_ldlt, partial_ldlt_nb,
    partial_lu, partial_lu_nb, symmetrize_from_lower, LdltFactors, LuFactors, DEFAULT_PANEL_NB,
};
pub use gemm::{
    gemm, gemm_into, gemm_naive, gemm_par_flop_threshold, matvec, with_serial, Op,
    PAR_FLOP_THRESHOLD,
};
pub use mat::{Mat, MatMut, MatRef};
pub use solve::{apply_row_swaps_fwd, ldlt_solve_in_place, lu_solve_in_place};
pub use trsm::{trsm_left, trsm_right, Diag, Tri};

/// Run `f`: an identity. The benchmark's replay still wraps its batched
/// solves in this former column-wise mode; every multi-RHS solve is
/// column-separable by its lane layout ([`lane`]), so there is nothing to
/// switch.
pub fn with_colwise_det<R>(f: impl FnOnce() -> R) -> R {
    f()
}
