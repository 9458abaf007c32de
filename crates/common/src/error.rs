//! Common error type for the solver stack.

use std::fmt;

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the dense, sparse, hierarchical and coupled solvers.
///
/// Non-exhaustive: new failure classes may appear as the stack grows (e.g.
/// I/O for out-of-core variants), so downstream matches need a wildcard arm.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A tracked allocation would exceed the configured memory budget.
    ///
    /// This is the error the paper's capacity experiments revolve around:
    /// an algorithm "cannot process" a system when one of its large dense
    /// intermediates no longer fits in RAM.
    OutOfMemory {
        /// Bytes the failed allocation requested.
        requested: usize,
        /// Live tracked bytes at the time of the request.
        live: usize,
        /// The configured budget in bytes.
        budget: usize,
        /// A short label of what was being allocated (e.g. "dense Schur").
        what: &'static str,
    },
    /// A zero or numerically negligible pivot was met during factorization.
    SingularPivot { index: usize, magnitude: f64 },
    /// Operand shapes do not conform.
    DimensionMismatch {
        context: &'static str,
        expected: (usize, usize),
        got: (usize, usize),
    },
    /// An index was out of bounds for the structure it addresses.
    IndexOutOfBounds {
        context: &'static str,
        index: usize,
        len: usize,
    },
    /// Invalid solver or workload configuration.
    InvalidConfig(String),
    /// The sparse matrix structure is malformed (unsorted/duplicate entries,
    /// bad column pointers, ...).
    MalformedMatrix(String),
    /// A sparse matrix does not have the pattern the structure it is applied
    /// to was built on (e.g. a symbolic analysis reused for a matrix whose
    /// eliminated block differs).
    PatternMismatch {
        /// The operation that was refused.
        context: &'static str,
        /// The first column whose pattern differs.
        column: usize,
    },
    /// A compression routine failed to reach the requested tolerance within
    /// its rank limit.
    CompressionFailure { wanted_tol: f64, achieved: f64 },
    /// A non-finite value (NaN or ±∞) was detected in a numeric block.
    ///
    /// Surfaced instead of letting the poison propagate into the factors,
    /// where it would silently corrupt the solution (NaN compares false
    /// against every pivot threshold).
    NonFinite {
        /// A short label of the block being checked (e.g. "Schur panel").
        context: &'static str,
    },
    /// An internal invariant was violated. Always a bug in this library, but
    /// surfaced as a structured error so pipelines drain cleanly instead of
    /// poisoning worker threads with a panic.
    Internal {
        /// The invariant that failed.
        context: &'static str,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::OutOfMemory {
                requested,
                live,
                budget,
                what,
            } => write!(
                f,
                "out of memory allocating {what}: requested {requested} B with {live} B live \
                 against a budget of {budget} B"
            ),
            Error::SingularPivot { index, magnitude } => {
                write!(f, "singular pivot at index {index} (|pivot| = {magnitude:.3e})")
            }
            Error::DimensionMismatch {
                context,
                expected,
                got,
            } => write!(
                f,
                "dimension mismatch in {context}: expected {}x{}, got {}x{}",
                expected.0, expected.1, got.0, got.1
            ),
            Error::IndexOutOfBounds {
                context,
                index,
                len,
            } => write!(f, "index {index} out of bounds (len {len}) in {context}"),
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::MalformedMatrix(msg) => write!(f, "malformed sparse matrix: {msg}"),
            Error::PatternMismatch { context, column } => write!(
                f,
                "pattern mismatch in {context}: column {column} differs from the analyzed one"
            ),
            Error::CompressionFailure {
                wanted_tol,
                achieved,
            } => write!(
                f,
                "low-rank compression failed: wanted tolerance {wanted_tol:.3e}, achieved {achieved:.3e}"
            ),
            Error::NonFinite { context } => {
                write!(f, "non-finite value (NaN/Inf) detected in {context}")
            }
            Error::Internal { context } => {
                write!(f, "internal invariant violated: {context}")
            }
        }
    }
}

impl std::error::Error for Error {}

impl Error {
    /// `true` when the error is a memory-budget exhaustion. The capacity
    /// experiments use this to distinguish "does not fit" from a genuine
    /// numerical failure.
    pub fn is_oom(&self) -> bool {
        matches!(self, Error::OutOfMemory { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = Error::OutOfMemory {
            requested: 1024,
            live: 2048,
            budget: 4096,
            what: "dense Schur",
        };
        let s = e.to_string();
        assert!(s.contains("dense Schur") && s.contains("1024") && s.contains("4096"));
        assert!(e.is_oom());
        assert!(!Error::SingularPivot {
            index: 3,
            magnitude: 0.0
        }
        .is_oom());
    }

    #[test]
    fn non_finite_and_internal_display() {
        let e = Error::NonFinite {
            context: "Schur panel",
        };
        assert!(e.to_string().contains("Schur panel"));
        assert!(!e.is_oom());
        let e = Error::Internal {
            context: "accumulator missing",
        };
        assert!(e.to_string().contains("accumulator missing"));
    }
}
