//! Fault-injection hooks for the H-matrix layer (feature `fault-inject`).
//!
//! Compiled only under the `fault-inject` feature, these global switches let
//! the test harness force failure modes that are hard to reach with real
//! inputs — a binding rank cap in compression, or an H-LU that refuses to
//! factor — and assert that they surface as structured `Err`s rather than
//! panics or silently degraded answers. Production builds carry none of this.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Rank cap imposed on [`crate::HMatrix::try_axpy_dense_block`] compressions
/// — the Schur accumulator's and, since H-LU folds its dense-leaf products
/// through the same recursion, the factorization's. `usize::MAX` means "no
/// fault armed".
static RANK_CAP: AtomicUsize = AtomicUsize::new(usize::MAX);

/// One-shot flag making the next [`crate::HLu::factor`] call fail.
static FACTOR_FAIL: AtomicBool = AtomicBool::new(false);

/// Arm a rank cap: subsequent compressed AXPYs through
/// `try_axpy_dense_block` may not exceed rank `cap` and will return
/// [`csolve_common::Error::CompressionFailure`] when the cap is binding.
pub fn arm_rank_cap(cap: usize) {
    RANK_CAP.store(cap, Ordering::SeqCst);
}

/// Arm a one-shot failure of the next `HLu::factor` call.
pub fn arm_factor_failure() {
    FACTOR_FAIL.store(true, Ordering::SeqCst);
}

/// Disarm all H-matrix faults.
pub fn disarm() {
    RANK_CAP.store(usize::MAX, Ordering::SeqCst);
    FACTOR_FAIL.store(false, Ordering::SeqCst);
}

/// Current rank cap (`usize::MAX` when disarmed).
pub(crate) fn rank_cap() -> usize {
    RANK_CAP.load(Ordering::SeqCst)
}

/// Consume the one-shot factor-failure flag.
pub(crate) fn take_factor_failure() -> bool {
    FACTOR_FAIL.swap(false, Ordering::SeqCst)
}
