//! The `csolve` umbrella crate: one façade over the whole workspace.
//!
//! Downstream code (examples, benchmarks, user applications) should depend
//! on this crate alone. The solver entry point and its companion types are
//! re-exported at the root:
//!
//! ```no_run
//! use csolve::{solve, Algorithm, DenseBackend, SolverConfig, Tracer};
//!
//! let problem = csolve::fembem::pipe_problem::<f64>(10_000);
//! let tracer = Tracer::enabled();
//! let cfg = SolverConfig {
//!     eps: 1e-4,
//!     dense_backend: DenseBackend::Hmat,
//!     tracer: tracer.clone(),
//!     ..Default::default()
//! };
//! let out = solve(&problem, Algorithm::MultiSolve, &cfg).unwrap();
//! let report = csolve::RunReport::from_parts(
//!     Algorithm::MultiSolve,
//!     DenseBackend::Hmat,
//!     &out.metrics,
//!     &tracer.drain(),
//! );
//! println!("{}", report.to_json());
//! ```
//!
//! Sparse-front BLR compression has its own tolerance, decoupled from the
//! dense-side `eps` — here end-to-end through the façade, with the
//! compression statistics read back from the run metrics:
//!
//! ```
//! use csolve::{solve, Algorithm, SolverConfig};
//!
//! let problem = csolve::fembem::pipe_problem::<f64>(600);
//! let cfg = SolverConfig {
//!     eps: 1e-6,               // dense/H-matrix tolerance
//!     sparse_eps: Some(1e-9),  // sparse-front BLR tolerance (0.0 = off)
//!     ..Default::default()
//! };
//! let out = solve(&problem, Algorithm::MultiSolve, &cfg).unwrap();
//! assert!(problem.relative_error(&out.xv, &out.xs) < 1e-5);
//! // Compression was on, so the summary section is present.
//! let stats = out.metrics.sparse_compression.as_ref().unwrap();
//! assert_eq!(stats.eps, 1e-9);
//! assert!(stats.ratio() <= 1.0);
//! ```
//!
//! Each workspace layer is also reachable as a module alias (`dense`,
//! `sparse`, `hmat`, …) for code that needs the lower-level kernels.

#![warn(missing_docs)]

// --- The solver API, at the root. ---------------------------------------
pub use csolve_common::trace::{to_jsonl, TRACE_FORMAT_VERSION};
pub use csolve_common::{
    Error, Result, Scalar, ScopeTracer, Span, SpanKind, TraceEventKind, TracePayload, TraceRecord,
    TraceScope, Tracer, C64,
};
pub use csolve_coupled::{
    solve, Algorithm, AutotuneDecision, BlockSizes, DenseBackend, KernelCalibration, Metrics,
    Outcome, PhaseReport, RequestId, RequestInfo, RunReport, SessionBuilder, SessionSolve,
    SessionStats, SolverConfig, SolverSession, SpanAgg, SparseCompressionSummary,
};
pub use csolve_fembem::{industrial_problem, pipe_problem, CoupledProblem};

// --- Layer aliases. ------------------------------------------------------

/// Shared scalar/error/memory/tracing substrate
/// ([`csolve_common`]).
pub mod common {
    pub use csolve_common::*;
}

/// The workspace's JSON writer, and the parser for reading traces and
/// reports back ([`csolve_common::json`]).
pub mod json {
    pub use csolve_common::json::*;
}

/// Span-based tracing primitives ([`csolve_common::trace`]).
pub mod trace {
    pub use csolve_common::trace::*;
}

/// Dense BLAS-3 layer: packed GEMM, blocked LU/LDLᵀ, TRSM
/// ([`csolve_dense`]).
pub mod dense {
    pub use csolve_dense::*;
}

/// Low-rank compression kernels: truncated QR/SVD, ACA
/// ([`csolve_lowrank`]).
pub mod lowrank {
    pub use csolve_lowrank::*;
}

/// Hierarchical matrices: cluster trees, H-arithmetic, H-LU
/// ([`csolve_hmat`]).
pub mod hmat {
    pub use csolve_hmat::*;
}

/// Sparse direct solver: orderings, symbolic/numeric multifrontal
/// factorization, BLR fronts ([`csolve_sparse`]).
pub mod sparse {
    pub use csolve_sparse::*;
}

/// FEM/BEM problem generators and operators ([`csolve_fembem`]).
pub mod fembem {
    pub use csolve_fembem::*;
}

/// The coupled solver itself: algorithms, pipeline, Schur accumulator,
/// run reports ([`csolve_coupled`]).
pub mod solver {
    pub use csolve_coupled::*;
}

/// Run reports ([`csolve_coupled::report`]).
pub mod report {
    pub use csolve_coupled::report::*;
}

/// Differential-oracle and fault-injection test harness
/// ([`csolve_testkit`]).
pub mod testkit {
    pub use csolve_testkit::*;
}
