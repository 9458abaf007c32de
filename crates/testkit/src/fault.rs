//! Fault-injection orchestration (feature `fault-inject`).
//!
//! The solver crates expose raw one-shot fault hooks as global atomics
//! (`csolve_coupled::fault`, `csolve_hmat::fault`). Globals and parallel test
//! runners do not mix, so this module wraps them in an RAII [`FaultGuard`]:
//! acquiring the guard takes a process-wide lock (serializing fault tests
//! against each other) and disarms every hook both on acquisition and on
//! drop, so a panicking test cannot leak an armed fault into its neighbours.

use std::sync::{Mutex, MutexGuard};

pub use csolve_coupled::fault::PoisonKind;

static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// RAII scope for fault-injection tests. See the module docs.
pub struct FaultGuard {
    _lock: MutexGuard<'static, ()>,
}

impl FaultGuard {
    /// Acquire the process-wide fault lock and start from a clean (all
    /// hooks disarmed) state.
    pub fn acquire() -> Self {
        // A previous test panicking while holding the lock poisons it; the
        // data it protects is just the hook atomics, which we reset anyway.
        let lock = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        disarm_all();
        Self { _lock: lock }
    }

    /// Fail the `seq`-th pipeline admission (0-based) with an out-of-memory
    /// error, as if the budget scheduler ran out at exactly that step.
    pub fn admit_oom_at(&self, seq: usize) {
        csolve_coupled::fault::arm_admit_oom_at(seq);
    }

    /// Poison the next computed Schur panel with a NaN or Inf entry before
    /// it reaches the accumulator.
    pub fn poison_panel(&self, kind: PoisonKind) {
        csolve_coupled::fault::arm_panel_poison(kind);
    }

    /// Cap the admissible rank of every compressed-block update, forcing a
    /// rank overflow ([`csolve_common::Error::CompressionFailure`]) on any
    /// block whose numerical rank exceeds `cap`.
    pub fn rank_cap(&self, cap: usize) {
        csolve_hmat::fault::arm_rank_cap(cap);
    }

    /// Make the next hierarchical factorization fail up front.
    pub fn hlu_factor_failure(&self) {
        csolve_hmat::fault::arm_factor_failure();
    }

    /// Collapse every session matrix fingerprint to one constant, forcing
    /// cache-key collisions: tests use this to prove the session's
    /// structural summary guard keeps distinct systems from aliasing each
    /// other's cached factors. Persistent until disarmed.
    pub fn fingerprint_collision(&self) {
        csolve_coupled::fault::arm_fingerprint_collision();
    }

    /// Make the session cache evict everything before each admission —
    /// maximal eviction/re-factorization churn. Persistent until disarmed.
    pub fn session_evict_all(&self) {
        csolve_coupled::fault::arm_session_evict_all();
    }

    /// Cap the admissible rank of every BLR-compressed sparse-front panel,
    /// forcing a rank overflow
    /// ([`csolve_common::Error::CompressionFailure`]) on any off-diagonal
    /// panel whose numerical rank exceeds `cap`.
    pub fn sparse_rank_cap(&self, cap: usize) {
        csolve_sparse::fault::arm_rank_cap(cap);
    }

    /// Disturb the blockwise pipeline's schedule: seeded short pauses at
    /// every admission, finalize, park, fold-turn wait and release.
    /// Persistent until disarmed; runs under it must behave exactly as
    /// undisturbed ones.
    pub fn schedule_jitter(&self, seed: u64) {
        csolve_coupled::fault::arm_schedule_jitter(seed);
    }

    /// Disarm every hook without dropping the guard (e.g. between the fault
    /// run and a follow-up clean run inside the same test).
    pub fn disarm(&self) {
        disarm_all();
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        disarm_all();
    }
}

fn disarm_all() {
    csolve_coupled::fault::disarm();
    csolve_hmat::fault::disarm();
    csolve_sparse::fault::disarm();
}
