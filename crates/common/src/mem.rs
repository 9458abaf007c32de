//! Byte-accurate memory accounting with an enforced budget.
//!
//! The reproduced paper's headline experiment asks: *given a machine with a
//! fixed amount of RAM, what is the largest coupled FEM/BEM system each
//! algorithm can process?* On the original 128 GiB node the answer is found
//! by actually running out of memory. We reproduce the experiment at a scaled
//! size by routing every large algebraic object (dense Schur blocks, sparse
//! factors, H-matrices, frontal matrices, ...) through a [`MemTracker`] with
//! a configurable budget; an allocation pushing the live total past the
//! budget fails with [`Error::OutOfMemory`], which the coupled algorithms
//! surface exactly where the real solvers would die.
//!
//! Charging is explicit and RAII-scoped: [`MemTracker::charge`] returns a
//! [`MemCharge`] guard that releases the bytes when dropped. [`Tracked`]
//! bundles a value with its charge so the two cannot go out of sync.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::error::{Error, Result};

/// Thread-safe live/peak byte accounting with an optional hard budget.
#[derive(Debug)]
pub struct MemTracker {
    live: AtomicUsize,
    peak: AtomicUsize,
    budget: usize,
}

impl MemTracker {
    /// Tracker with a hard budget in bytes.
    pub fn with_budget(budget: usize) -> Arc<Self> {
        Arc::new(Self {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            budget,
        })
    }

    /// Tracker that only measures (budget = `usize::MAX`).
    pub fn unbounded() -> Arc<Self> {
        Self::with_budget(usize::MAX)
    }

    /// Currently live tracked bytes.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// High-water mark of tracked bytes.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// The configured budget in bytes.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Reserve `bytes` in the accounting without creating a guard; the raw
    /// counterpart of [`MemTracker::charge`] used by [`MemCharge::resize`] to
    /// grow an existing guard in place (a nested guard would hold an extra
    /// `Arc` reference that `resize` would have to leak).
    fn reserve_raw(&self, bytes: usize, what: &'static str) -> Result<()> {
        // Optimistic CAS loop so concurrent charges cannot jointly overshoot
        // the budget.
        let mut cur = self.live.load(Ordering::Relaxed);
        loop {
            let new = cur.checked_add(bytes).ok_or(Error::OutOfMemory {
                requested: bytes,
                live: cur,
                budget: self.budget,
                what,
            })?;
            if new > self.budget {
                return Err(Error::OutOfMemory {
                    requested: bytes,
                    live: cur,
                    budget: self.budget,
                    what,
                });
            }
            match self
                .live
                .compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    self.peak.fetch_max(new, Ordering::Relaxed);
                    return Ok(());
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Release `bytes` from the accounting, saturating at zero so a
    /// mis-sized release can never wrap `live` around to a huge value (which
    /// would wedge every further charge as out-of-budget).
    fn release_raw(&self, bytes: usize) {
        let _ = self
            .live
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(cur.saturating_sub(bytes))
            });
    }

    /// Charge `bytes` against the budget. Fails with [`Error::OutOfMemory`]
    /// without mutating the accounting when the budget would be exceeded.
    pub fn charge(self: &Arc<Self>, bytes: usize, what: &'static str) -> Result<MemCharge> {
        self.reserve_raw(bytes, what)?;
        Ok(MemCharge {
            tracker: Arc::clone(self),
            bytes,
        })
    }

    /// Charge for a [`ByteSized`] value and bundle them.
    pub fn track<M: ByteSized>(
        self: &Arc<Self>,
        value: M,
        what: &'static str,
    ) -> Result<Tracked<M>> {
        let charge = self.charge(value.byte_size(), what)?;
        Ok(Tracked { value, charge })
    }
}

/// RAII guard for tracked bytes; releases its bytes on drop.
#[derive(Debug)]
pub struct MemCharge {
    tracker: Arc<MemTracker>,
    bytes: usize,
}

impl MemCharge {
    /// Bytes held by this charge.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Grow or shrink the charge to `new_bytes` (e.g. after a compression
    /// step shrank the underlying object). Growth is budget-checked; a
    /// failed grow leaves the charge unchanged. Shrinking releases only this
    /// guard's own delta and saturates at zero in the tracker, so `live` can
    /// never underflow — not even for a shrink below the original charge.
    pub fn resize(&mut self, new_bytes: usize, what: &'static str) -> Result<()> {
        if new_bytes > self.bytes {
            // Reserve the delta directly (no nested guard: an inner
            // `MemCharge` would pin an extra Arc reference to the tracker
            // that could only be discarded by leaking it).
            self.tracker.reserve_raw(new_bytes - self.bytes, what)?;
        } else {
            self.tracker.release_raw(self.bytes - new_bytes);
        }
        self.bytes = new_bytes;
        Ok(())
    }
}

impl Drop for MemCharge {
    fn drop(&mut self) {
        self.tracker.release_raw(self.bytes);
    }
}

/// Anything whose dominant memory footprint can be reported in bytes.
pub trait ByteSized {
    fn byte_size(&self) -> usize;
}

impl<T> ByteSized for Vec<T> {
    fn byte_size(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
    }
}

/// A value bundled with the memory charge that accounts for it.
#[derive(Debug)]
pub struct Tracked<M> {
    value: M,
    charge: MemCharge,
}

impl<M> Tracked<M> {
    pub fn get(&self) -> &M {
        &self.value
    }

    pub fn get_mut(&mut self) -> &mut M {
        &mut self.value
    }

    pub fn charge(&self) -> &MemCharge {
        &self.charge
    }

    /// Re-synchronize the charge with the value's current size (after an
    /// in-place mutation such as a recompression).
    pub fn resync(&mut self, what: &'static str) -> Result<()>
    where
        M: ByteSized,
    {
        let bytes = self.value.byte_size();
        self.charge.resize(bytes, what)
    }

    pub fn into_inner(self) -> M {
        self.value
    }
}

impl<M> std::ops::Deref for Tracked<M> {
    type Target = M;
    fn deref(&self) -> &M {
        &self.value
    }
}

impl<M> std::ops::DerefMut for Tracked<M> {
    fn deref_mut(&mut self) -> &mut M {
        &mut self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_and_release() {
        let t = MemTracker::with_budget(1000);
        let c1 = t.charge(400, "a").unwrap();
        assert_eq!(t.live(), 400);
        let c2 = t.charge(500, "b").unwrap();
        assert_eq!(t.live(), 900);
        assert_eq!(t.peak(), 900);
        drop(c1);
        assert_eq!(t.live(), 500);
        assert_eq!(t.peak(), 900);
        drop(c2);
        assert_eq!(t.live(), 0);
    }

    #[test]
    fn budget_enforced() {
        let t = MemTracker::with_budget(100);
        let _c = t.charge(80, "a").unwrap();
        let err = t.charge(30, "b").unwrap_err();
        assert!(err.is_oom());
        // Failed charge must not leak accounting.
        assert_eq!(t.live(), 80);
    }

    #[test]
    fn resize_shrink_and_grow() {
        let t = MemTracker::with_budget(100);
        let mut c = t.charge(60, "a").unwrap();
        c.resize(20, "a").unwrap();
        assert_eq!(t.live(), 20);
        c.resize(90, "a").unwrap();
        assert_eq!(t.live(), 90);
        assert!(c.resize(200, "a").is_err());
        assert_eq!(t.live(), 90);
        drop(c);
        assert_eq!(t.live(), 0);
    }

    #[test]
    fn tracked_resync() {
        let t = MemTracker::with_budget(10_000);
        let v: Vec<u64> = Vec::with_capacity(100);
        let mut tracked = t.track(v, "vec").unwrap();
        assert_eq!(t.live(), 800);
        tracked.get_mut().shrink_to_fit();
        tracked.resync("vec").unwrap();
        assert_eq!(t.live(), 0);
    }

    #[test]
    fn concurrent_charges_respect_budget() {
        let t = MemTracker::with_budget(1000);
        // Guards live in a shared vector so no thread releases early; the
        // total number of successful charges must then be exactly budget/10.
        let guards = parking_lot::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..100 {
                        if let Ok(g) = t.charge(10, "x") {
                            guards.lock().push(g);
                        }
                    }
                });
            }
        });
        assert_eq!(guards.lock().len(), 100);
        assert_eq!(t.live(), 1000);
        assert_eq!(t.peak(), 1000);
        guards.lock().clear();
        assert_eq!(t.live(), 0);
    }

    #[test]
    fn unbounded_never_fails() {
        let t = MemTracker::unbounded();
        let _c = t.charge(usize::MAX / 2, "huge").unwrap();
    }

    #[test]
    fn resize_grow_does_not_leak_tracker_references() {
        // Regression: the grow path used to charge a nested guard and
        // `mem::forget` it, leaking one Arc<MemTracker> strong reference per
        // grow (and keeping the tracker alive forever after many resizes).
        let t = MemTracker::with_budget(1_000_000);
        let base = Arc::strong_count(&t);
        let mut c = t.charge(10, "a").unwrap();
        for step in 1..100usize {
            c.resize(10 + step * 7, "a").unwrap();
        }
        assert_eq!(
            Arc::strong_count(&t),
            base + 1, // exactly the one reference held by `c`
            "resize must not accumulate tracker references"
        );
        drop(c);
        assert_eq!(Arc::strong_count(&t), base);
        assert_eq!(t.live(), 0);
    }

    #[test]
    fn resize_shrink_below_original_charge_never_underflows() {
        let t = MemTracker::with_budget(1000);
        let other = t.charge(100, "other").unwrap();
        let mut c = t.charge(300, "a").unwrap();
        // Shrink to zero (below any "original" size), then grow again: the
        // accounting must stay exact and never wrap.
        c.resize(0, "a").unwrap();
        assert_eq!(t.live(), 100);
        c.resize(250, "a").unwrap();
        assert_eq!(t.live(), 350);
        drop(c);
        drop(other);
        assert_eq!(t.live(), 0);
        assert!(t.peak() <= 1000);
    }
}
