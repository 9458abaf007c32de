//! Shared foundation layer for the `csolve` coupled sparse/dense direct
//! solver stack.
//!
//! This crate provides the pieces every other crate in the workspace builds
//! on:
//!
//! * [`Scalar`] — a numeric abstraction covering `f64` and the complex type
//!   [`C64`], so the dense, sparse and hierarchical solvers can be written
//!   once and instantiated for the real symmetric academic *pipe* test case
//!   as well as the complex non-symmetric industrial test case of the
//!   reproduced paper.
//! * [`Error`] — the common error type. Memory-budget exhaustion is a first
//!   class citizen ([`Error::OutOfMemory`]) because the paper's central
//!   experiment is "what is the largest coupled system that fits in a given
//!   amount of RAM".
//! * [`MemTracker`] — a byte-accurate accounting of the large algebraic
//!   objects (dense blocks, factors, compressed matrices) with an enforced
//!   budget, used to reproduce the paper's 128 GiB capacity experiments at a
//!   scaled-down size.
//! * [`Tracer`] ([`trace`]) — the span-based tracing substrate: typed
//!   per-block spans and scheduler/memory events with deterministic
//!   cross-thread-count ordering, serialized as versioned JSONL.
//! * [`json`] — the workspace's one JSON writer (traces, run reports, bench
//!   files) and the strict parser that validates what it wrote in tests and
//!   CI.

pub mod error;
pub mod json;
pub mod mem;
pub mod scalar;
pub mod trace;

pub use error::{Error, Result};
pub use mem::{ByteSized, MemCharge, MemTracker};
pub use scalar::{Complex, RealScalar, Scalar, C64};
pub use trace::{
    ScopeTracer, Span, SpanKind, TraceEventKind, TracePayload, TraceRecord, TraceScope, Tracer,
};
