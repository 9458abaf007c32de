//! Low-rank compression kernels for the `csolve` stack.
//!
//! The reproduced paper's compressed-Schur algorithms hinge on three
//! operations this crate provides:
//!
//! * compressing a dense block to a truncated factorization `U·Vᵀ` at a
//!   prescribed tolerance ε ([`LowRank::from_dense`], via rank-revealing QR
//!   followed by an SVD cleanup), or — for panels that are written once and
//!   kept only if the factors are smaller — deciding on the rank-revealing
//!   QR's rank alone ([`LowRank::from_dense_if_smaller`], the sparse
//!   layer's BLR front panels);
//! * *recompression* of sums of low-rank terms — the "compressed AXPY" the
//!   paper performs every time a dense Schur block is folded into the
//!   compressed Schur complement ([`LowRank::add_truncate`]; the H-matrix
//!   layer rounds every such sum through [`LowRank::recompress_rel`], whose
//!   cost at leaf scale is the `r×r` core SVD of [`svd`]);
//! * assembling admissible kernel blocks directly in compressed form with
//!   Adaptive Cross Approximation ([`aca::aca_plus`]), used by the H-matrix
//!   layer to build the BEM operator without ever forming it densely.
//!
//! Everything is generic over [`csolve_common::Scalar`] so the same code
//! compresses the real symmetric pipe systems and the complex non-symmetric
//! industrial systems.

// Index-based loops mirror the reference algorithms (LAPACK/CSparse style)
// and are kept for readability of the numeric kernels.
#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)]

pub mod aca;
pub mod lowrank;
pub mod qr;
pub mod svd;

pub use aca::{aca_plus, KernelFn};
pub use lowrank::LowRank;
pub use qr::{col_piv_qr, qr_in_place, ColPivQr, Qr};
pub use svd::{jacobi_svd, Svd};
