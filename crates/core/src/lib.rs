//! Direct solution of coupled sparse/dense FEM/BEM linear systems — the
//! primary contribution of the reproduced paper (Agullo, Felšöci, Sylvand,
//! IPDPS 2022).
//!
//! The system is
//!
//! ```text
//! | A_vv   A_vs | | x_v |   | b_v |        A_vv sparse (FEM volume)
//! |             | |     | = |     |        A_sv, A_vs sparse (coupling)
//! | A_sv   A_ss | | x_s |   | b_s |        A_ss dense (BEM surface)
//! ```
//!
//! solved by eliminating `x_v` first, which requires the Schur complement
//! `S = A_ss − A_sv·A_vv⁻¹·A_vs`. Four strategies are implemented, selected
//! by [`Algorithm`]:
//!
//! * [`Algorithm::BaselineCoupling`] — one sparse solve with *all* of `A_vs`
//!   as right-hand side (a huge dense intermediate `Y`), SpMM, dense `S`
//!   (paper §II-E);
//! * [`Algorithm::AdvancedCoupling`] — one factorization+Schur call on the
//!   full coupled matrix; `S` returned dense in one piece (paper §II-F);
//! * [`Algorithm::MultiSolve`] — blockwise Schur assembly by panels of `n_c`
//!   columns through repeated sparse solves (paper §IV-A, Algorithms 1–2);
//! * [`Algorithm::MultiFactorization`] — blockwise Schur assembly by square
//!   blocks through repeated factorization+Schur calls on stacked
//!   `W = [A_vv A_vs|_j ; A_sv|_i 0]` matrices (paper §IV-B, Algorithm 3).
//!
//! Each algorithm runs against either of the paper's two dense solvers:
//! [`DenseBackend::Spido`], a plain blocked dense solver, or
//! [`DenseBackend::Hmat`], the flat hierarchical low-rank solver providing
//! the *compressed-Schur* variants; [`schur`] holds both as the variants of
//! one accumulator and one factor enum. All large intermediates are charged
//! against a memory budget, so the paper's capacity experiments ("largest
//! `N` that fits in RAM") reproduce at any scale.

// Index-based loops mirror the reference algorithms (LAPACK/CSparse style)
// and are kept for readability of the numeric kernels.
#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)]

pub mod autotune;
pub mod config;
pub mod driver;
#[cfg(feature = "fault-inject")]
pub mod fault;
mod pipeline;
pub mod report;
pub mod schur;
pub mod session;

pub use autotune::{AutotuneDecision, BlockSizes};
pub use config::{
    Algorithm, DenseBackend, Metrics, PhaseReport, SolverConfig, SparseCompressionSummary,
};
pub use driver::{solve, Outcome};
pub use report::{KernelCalibration, RunReport, SpanAgg};
pub use session::{
    RequestId, RequestInfo, SessionBuilder, SessionSolve, SessionStats, SolverSession,
};

#[cfg(test)]
mod tests;
