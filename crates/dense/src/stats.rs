//! Global GEMM dispatch counters for the trace layer.
//!
//! The dense layer has no per-call options struct to thread a tracer
//! through (and per-call spans would swamp a trace: one solve issues
//! millions of small GEMMs). Instead the [`gemm`](crate::gemm::gemm())
//! dispatcher bumps a set of process-global atomic counters — calls per
//! route (packed / matvec), analytic flops, and wall nanoseconds
//! inside the instrumented calls — and the driver snapshots the delta over
//! a traced solve into one `kernel_counters` trace event.
//!
//! Counting is reference-counted off by default: when no tracer holds an
//! [`enable`] token the only cost in the hot path is a single relaxed
//! atomic load per `gemm` call (no clock is read). The counters are global,
//! so concurrent traced solves in one process see each other's kernel
//! calls — the trade-off for keeping the kernel signature clean.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

static ENABLE_COUNT: AtomicUsize = AtomicUsize::new(0);
static PACKED_CALLS: AtomicU64 = AtomicU64::new(0);
static MATVEC_CALLS: AtomicU64 = AtomicU64::new(0);
static FLOPS: AtomicU64 = AtomicU64::new(0);
static NANOS: AtomicU64 = AtomicU64::new(0);

/// Turn counting on (reference-counted: pair every call with [`disable`]).
pub fn enable() {
    ENABLE_COUNT.fetch_add(1, Ordering::Relaxed);
}

/// Drop one [`enable`] token; counting stops when none remain.
pub fn disable() {
    ENABLE_COUNT.fetch_sub(1, Ordering::Relaxed);
}

/// Cumulative counters since process start (monotonic while enabled; use
/// [`KernelSnapshot::delta`] to scope them to a region).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelSnapshot {
    /// GEMM calls routed to the packed cache-blocked engine.
    pub packed_calls: u64,
    /// GEMM calls routed through the matvec path (single-column B).
    pub matvec_calls: u64,
    /// Analytic flops (`2·m·n·k` summed over instrumented calls).
    pub flops: u64,
    /// Wall nanoseconds inside instrumented calls, summed over threads.
    pub ns: u64,
}

impl KernelSnapshot {
    /// Counter increments between `earlier` and `self`.
    pub fn delta(&self, earlier: &KernelSnapshot) -> KernelSnapshot {
        KernelSnapshot {
            packed_calls: self.packed_calls.wrapping_sub(earlier.packed_calls),
            matvec_calls: self.matvec_calls.wrapping_sub(earlier.matvec_calls),
            flops: self.flops.wrapping_sub(earlier.flops),
            ns: self.ns.wrapping_sub(earlier.ns),
        }
    }

    /// Achieved gigaflops per second over the counted calls, `None` when
    /// nothing was counted.
    pub fn gflops(&self) -> Option<f64> {
        if self.flops > 0 && self.ns > 0 {
            Some(self.flops as f64 / self.ns as f64)
        } else {
            None
        }
    }

    /// Total instrumented calls.
    pub fn calls(&self) -> u64 {
        self.packed_calls + self.matvec_calls
    }
}

/// Read the current counter values.
pub fn snapshot() -> KernelSnapshot {
    KernelSnapshot {
        packed_calls: PACKED_CALLS.load(Ordering::Relaxed),
        matvec_calls: MATVEC_CALLS.load(Ordering::Relaxed),
        flops: FLOPS.load(Ordering::Relaxed),
        ns: NANOS.load(Ordering::Relaxed),
    }
}

/// Which GEMM route a call took (internal hook used by the dispatcher).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Route {
    Packed,
    Matvec,
}

/// Start timing one call: `None` (no clock read) unless counting is on.
#[inline]
pub(crate) fn start() -> Option<Instant> {
    if ENABLE_COUNT.load(Ordering::Relaxed) > 0 {
        Some(Instant::now())
    } else {
        None
    }
}

/// Finish one instrumented call (no-op when [`start`] returned `None`).
#[inline]
pub(crate) fn record(route: Route, flops: u64, t0: Option<Instant>) {
    let Some(t0) = t0 else { return };
    match route {
        Route::Packed => &PACKED_CALLS,
        Route::Matvec => &MATVEC_CALLS,
    }
    .fetch_add(1, Ordering::Relaxed);
    FLOPS.fetch_add(flops, Ordering::Relaxed);
    NANOS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm, Op};
    use crate::mat::Mat;

    #[test]
    fn counters_only_move_while_enabled() {
        let a = Mat::<f64>::from_col_major(4, 4, (0..16).map(|i| i as f64).collect());
        let b = a.clone();
        let mut c = Mat::<f64>::zeros(4, 4);

        // Disabled (in this test thread no token is held by us; another test
        // may hold one, so assert on the enabled side only).
        let before = snapshot();
        enable();
        gemm(
            1.0,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            Op::NoTrans,
            0.0,
            c.as_mut(),
        );
        let mid = snapshot().delta(&before);
        assert!(mid.calls() >= 1, "enabled gemm must be counted");
        assert_eq!(mid.flops % (2 * 4 * 4 * 4), 0);
        disable();
    }

    #[test]
    fn matvec_route_is_counted_separately() {
        let a = Mat::<f64>::from_col_major(8, 8, vec![1.0; 64]);
        let b = Mat::<f64>::from_col_major(8, 1, vec![1.0; 8]);
        let mut c = Mat::<f64>::zeros(8, 1);
        enable();
        let before = snapshot();
        gemm(
            1.0,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            Op::NoTrans,
            0.0,
            c.as_mut(),
        );
        let d = snapshot().delta(&before);
        disable();
        assert!(d.matvec_calls >= 1);
    }
}
