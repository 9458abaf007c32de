//! Hierarchical matrices (H-matrices) for the `csolve` stack.
//!
//! This crate is the stand-in for the HMAT solver used in the reproduced
//! paper: a geometric cluster tree over the BEM surface points, a block
//! cluster structure with the standard `min(diam) ≤ η·dist` admissibility,
//! ACA-based assembly of admissible blocks, hierarchical arithmetic with
//! ε-recompression (including the *compressed AXPY* the paper's
//! compressed-Schur algorithms rely on), and an H-LU factorization with
//! forward/backward dense-panel solves.
//!
//! Everything operates in *cluster order* — the permutation produced by the
//! cluster tree. The coupled solver permutes the BEM unknowns once at setup,
//! so that the blockwise Schur assembly of the paper (by panels of columns
//! for multi-solve, by square blocks for multi-factorization) maps to
//! contiguous index ranges here.

// Index-based loops mirror the reference algorithms (LAPACK/CSparse style)
// and are kept for readability of the numeric kernels.
#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)]

pub mod cluster;
pub mod factor;
#[cfg(feature = "fault-inject")]
pub mod fault;
pub mod geometry;
pub mod hmatrix;

pub use cluster::{ClusterNodeId, ClusterTree};
pub use factor::HLu;
pub use geometry::{Aabb, Point3};
pub use hmatrix::{h_gemm, h_mul_to_lowrank, AssembleMethod, HMatrix, HOptions, HStats};

#[cfg(test)]
mod tests;
