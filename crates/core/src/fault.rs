//! Fault-injection hooks for the coupled-solver pipelines (feature
//! `fault-inject`).
//!
//! Compiled only under the `fault-inject` feature. The hooks let the test
//! harness (`csolve-testkit`) force failure modes at precise pipeline points
//! — a budget exhaustion at a chosen block admission, a NaN/Inf poisoned
//! Schur panel — and assert that each surfaces as a structured `Err` with
//! intact metrics, never a panic or a silently wrong answer. Production
//! builds carry none of this.
//!
//! All switches are process-global atomics: tests that arm them must be
//! serialized (the testkit's `FaultGuard` holds a global lock for exactly
//! this reason) and disarmed afterwards.

use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, AtomicU8, Ordering};

use csolve_common::Scalar;
use csolve_dense::Mat;

/// Block sequence number whose admission should fail with a synthetic
/// out-of-memory error. `-1` means "no fault armed"; consumed on trigger.
static ADMIT_OOM_AT: AtomicIsize = AtomicIsize::new(-1);

/// Panel poison: 0 = disarmed, 1 = NaN, 2 = +∞. Consumed on trigger.
static PANEL_POISON: AtomicU8 = AtomicU8::new(0);

/// When set, every session matrix fingerprint collapses to a single
/// constant — forcing cache-key collisions so tests can prove the structure
/// summary guard keeps distinct systems from aliasing each other's factors.
static FP_COLLIDE: AtomicBool = AtomicBool::new(false);

/// When set, the session cache evicts *everything* before each admission —
/// maximal churn, for stressing the eviction/re-factorization path.
static EVICT_ALL: AtomicBool = AtomicBool::new(false);

/// Schedule jitter: 0 = disarmed, otherwise the generator state the next
/// pause is drawn from.
static JITTER: AtomicU64 = AtomicU64::new(0);

/// The kind of non-finite value to inject into a Schur panel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoisonKind {
    /// Inject a quiet NaN.
    Nan,
    /// Inject +∞.
    Inf,
}

/// Arm a one-shot synthetic out-of-memory failure for the admission of
/// pipeline block `seq`.
pub fn arm_admit_oom_at(seq: usize) {
    ADMIT_OOM_AT.store(seq as isize, Ordering::SeqCst);
}

/// Arm a one-shot NaN/Inf injection into the next computed Schur panel.
pub fn arm_panel_poison(kind: PoisonKind) {
    let v = match kind {
        PoisonKind::Nan => 1,
        PoisonKind::Inf => 2,
    };
    PANEL_POISON.store(v, Ordering::SeqCst);
}

/// Arm persistent fingerprint collisions: every session cache key hashes to
/// the same constant until [`disarm`].
pub fn arm_fingerprint_collision() {
    FP_COLLIDE.store(true, Ordering::SeqCst);
}

/// Arm persistent evict-everything churn in the session cache until
/// [`disarm`].
pub fn arm_session_evict_all() {
    EVICT_ALL.store(true, Ordering::SeqCst);
}

/// Arm persistent schedule jitter until [`disarm`]: every pipeline worker
/// that reaches an admission, a finalize, a park, the wait for its fold turn
/// or a release first yields or sleeps (< 500 µs) as a generator seeded with `seed` decides, so
/// the interleavings a loaded many-core host would produce can be explored,
/// seed by seed, on any host. Not a fault: every run must still succeed,
/// inside its budget, with the bits of the undisturbed run.
pub fn arm_schedule_jitter(seed: u64) {
    JITTER.store(seed | 1 << 63, Ordering::SeqCst);
}

/// Disarm all coupled-solver faults.
pub fn disarm() {
    JITTER.store(0, Ordering::SeqCst);
    ADMIT_OOM_AT.store(-1, Ordering::SeqCst);
    PANEL_POISON.store(0, Ordering::SeqCst);
    FP_COLLIDE.store(false, Ordering::SeqCst);
    EVICT_ALL.store(false, Ordering::SeqCst);
}

/// Is the fingerprint-collision fault armed? (Not consumed — persistent.)
pub(crate) fn fingerprint_collision_armed() -> bool {
    FP_COLLIDE.load(Ordering::SeqCst)
}

/// Is the evict-everything fault armed? (Not consumed — persistent.)
pub(crate) fn session_evict_all_armed() -> bool {
    EVICT_ALL.load(Ordering::SeqCst)
}

/// Consume the admit-OOM fault if it is armed for block `seq`.
pub(crate) fn take_admit_oom(seq: usize) -> bool {
    ADMIT_OOM_AT
        .compare_exchange(seq as isize, -1, Ordering::SeqCst, Ordering::SeqCst)
        .is_ok()
}

/// Pause the calling worker as the armed schedule jitter decides.
pub(crate) fn jitter() {
    // One step of Knuth's 64-bit LCG per call; the top bit keeps the state
    // apart from the disarmed 0, the bits below it decide.
    let next = |x: u64| {
        x.wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407)
    };
    let drawn = JITTER.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |x| {
        (x != 0).then(|| next(x) | 1 << 63)
    });
    match drawn.map(|x| x >> 40) {
        Ok(r) if r % 4 == 1 => std::thread::yield_now(),
        Ok(r) if r % 4 > 1 => std::thread::sleep(std::time::Duration::from_micros(r % 500)),
        _ => {}
    }
}

/// If a panel poison is armed, consume it and overwrite the first entry of
/// `m` with the armed non-finite value.
pub(crate) fn maybe_poison_panel<T: Scalar>(m: &mut Mat<T>) {
    if m.nrows() == 0 || m.ncols() == 0 {
        return;
    }
    match PANEL_POISON.swap(0, Ordering::SeqCst) {
        1 => m[(0, 0)] = T::from_f64(f64::NAN),
        2 => m[(0, 0)] = T::from_f64(f64::INFINITY),
        _ => {}
    }
}
