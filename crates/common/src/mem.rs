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
//! [`MemCharge`] guard that releases the bytes when dropped.
//!
//! # Set aside vs live
//!
//! A tracker counts two things. **Live** bytes are charged: some
//! [`MemCharge`] holds them. **Set-aside** bytes are promised to a scoped
//! tracker ([`MemTracker::scoped`]) and not charged yet. The budget is
//! enforced on their sum, so a charge through a scoped tracker that stays
//! under the scope's cap *cannot* fail: its bytes were taken out of everybody
//! else's reach when the scope was created, and charging them only moves them
//! from set aside to live. [`MemTracker::live`] and [`MemTracker::peak`]
//! report **live bytes only**: a run's tracked peak is what it allocated,
//! never what it merely reserved, directly or through a scope;
//! [`MemTracker::available`] is what is left to anybody else, the budget
//! minus both. [`MemCharge::unscope`] ends a scope early, keeping its
//! charge live on the parent and returning the rest of its cap.
//!
//! With one thread `peak()` is exact. With several, each charge samples the
//! two counters one after the other, so a sample taken while another thread
//! creates or drops a scope can read low by that scope's unused cap; it
//! never reads above the budget.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::error::{Error, Result};

/// Thread-safe live/peak byte accounting with an optional hard budget.
///
/// `repr(C)`: the counters every charge writes stay next to the `Arc`'s
/// reference counts, which every charge writes too (one contended cache line
/// to win per operation, as before scoped trackers), and `set_aside`, which
/// every charge reads and only scoped trackers write, is kept a line away.
#[derive(Debug)]
#[repr(C)]
pub struct MemTracker {
    /// Bytes counted against the budget: live plus set aside.
    committed: AtomicUsize,
    /// High-water mark of the live bytes, `committed − set_aside`.
    peak: AtomicUsize,
    /// The hard budget; for a scoped tracker, its cap.
    budget: usize,
    /// The tracker a scoped tracker's cap was set aside from.
    parent: Option<Arc<MemTracker>>,
    _line: [usize; 8],
    /// The part of `committed` set aside for scoped trackers and not
    /// charged through them yet.
    set_aside: AtomicUsize,
}

impl MemTracker {
    fn new(budget: usize, parent: Option<Arc<MemTracker>>) -> Arc<Self> {
        Arc::new(Self {
            committed: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            budget,
            parent,
            _line: [0; 8],
            set_aside: AtomicUsize::new(0),
        })
    }

    /// Tracker with a hard budget in bytes.
    pub fn with_budget(budget: usize) -> Arc<Self> {
        Self::new(budget, None)
    }

    /// Tracker that only measures (budget = `usize::MAX`).
    pub fn unbounded() -> Arc<Self> {
        Self::with_budget(usize::MAX)
    }

    /// A tracker scoped to one reservation: `cap` bytes are set aside from
    /// `parent`'s budget now (failing with [`Error::OutOfMemory`] when they
    /// do not fit) and returned when the scoped tracker — the last handle
    /// *and* the last [`MemCharge`] made through it — is dropped.
    ///
    /// Charges through the returned tracker cannot fail while its live bytes
    /// stay within `cap`; they appear in `parent`'s [`live`](Self::live) and
    /// [`peak`](Self::peak) only as they are made. Growth beyond `cap` is an
    /// ordinary budget-checked charge against `parent`. Its own `live`/`peak`
    /// count what was charged through it and its [`budget`](Self::budget) is
    /// `cap`: reserved-vs-used can be read off it.
    pub fn scoped(parent: &Arc<Self>, cap: usize, what: &'static str) -> Result<Arc<Self>> {
        // Set aside before committing: a concurrent peak sample in between
        // then reads low, not high.
        parent.set_aside.fetch_add(cap, Ordering::Relaxed);
        if let Err(e) = parent.reserve_raw(cap, what) {
            parent.set_aside.fetch_sub(cap, Ordering::Relaxed);
            return Err(e);
        }
        Ok(Self::new(cap, Some(Arc::clone(parent))))
    }

    /// Currently live tracked bytes.
    pub fn live(&self) -> usize {
        let set_aside = self.set_aside.load(Ordering::Relaxed);
        self.committed
            .load(Ordering::Relaxed)
            .saturating_sub(set_aside)
    }

    /// High-water mark of live tracked bytes.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// The configured budget in bytes (a scoped tracker's cap).
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Bytes a new charge or scope can still take: the budget minus what is
    /// committed, live *and* set aside — unlike `budget() − live()`, which
    /// counts bytes promised to a scope as free.
    pub fn available(&self) -> usize {
        self.budget
            .saturating_sub(self.committed.load(Ordering::Relaxed))
    }

    /// Fold the current live bytes, given the just-written `committed`, into
    /// the high-water mark.
    fn sample_peak(&self, committed: usize) {
        let live = committed.saturating_sub(self.set_aside.load(Ordering::Relaxed));
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    /// Reserve `bytes` in the accounting without creating a guard; the raw
    /// counterpart of [`MemTracker::charge`] used by [`MemCharge::resize`] to
    /// grow an existing guard in place (a nested guard would hold an extra
    /// `Arc` reference that `resize` would have to leak).
    #[inline]
    fn reserve_raw(&self, bytes: usize, what: &'static str) -> Result<()> {
        if let Some(parent) = &self.parent {
            return self.reserve_scoped(parent, bytes, what);
        }
        // Optimistic CAS loop so concurrent charges cannot jointly overshoot
        // the budget.
        let mut cur = self.committed.load(Ordering::Relaxed);
        loop {
            let new = cur.checked_add(bytes).filter(|&new| new <= self.budget);
            let Some(new) = new else {
                return Err(Error::OutOfMemory {
                    requested: bytes,
                    live: cur,
                    budget: self.budget,
                    what,
                });
            };
            match self.committed.compare_exchange_weak(
                cur,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.sample_peak(new);
                    return Ok(());
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// `reserve_raw` of a scoped tracker: the part of `bytes` that lands
    /// under the cap moves from `parent`'s set-aside to its live bytes and
    /// cannot fail; the part above is charged to `parent` first, so a
    /// refused charge never shows in this tracker's count (where it would
    /// push a concurrent charge over the cap).
    #[inline(never)]
    fn reserve_scoped(&self, parent: &MemTracker, bytes: usize, what: &'static str) -> Result<()> {
        let mut cur = self.committed.load(Ordering::Relaxed);
        loop {
            let new = cur.saturating_add(bytes);
            let within = new.min(self.budget) - cur.min(self.budget);
            parent.reserve_raw(bytes - within, what)?;
            let swap = self.committed.compare_exchange_weak(
                cur,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
            match swap {
                Ok(_) => {
                    parent.set_aside.fetch_sub(within, Ordering::Relaxed);
                    parent.sample_peak(parent.committed.load(Ordering::Relaxed));
                    self.sample_peak(new);
                    return Ok(());
                }
                Err(seen) => {
                    parent.release_raw(bytes - within);
                    cur = seen;
                }
            }
        }
    }

    /// Release `bytes` from the accounting, saturating at zero so a
    /// mis-sized release can never wrap the count around to a huge value
    /// (which would wedge every further charge as out-of-budget).
    #[inline]
    fn release_raw(&self, bytes: usize) {
        let (Ok(old) | Err(old)) =
            self.committed
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                    Some(cur.saturating_sub(bytes))
                });
        if let Some(parent) = &self.parent {
            self.release_scoped(parent, old, old.saturating_sub(bytes));
        }
    }

    /// Mirror image of `reserve_scoped` for a scoped tracker whose count
    /// went from `old` down to `new`: bytes under the cap go back to the
    /// set-aside, bytes above it back to `parent`.
    #[inline(never)]
    fn release_scoped(&self, parent: &MemTracker, old: usize, new: usize) {
        let within = old.min(self.budget) - new.min(self.budget);
        parent.set_aside.fetch_add(within, Ordering::Relaxed);
        parent.release_raw(old - new - within);
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
}

impl Drop for MemTracker {
    /// A scoped tracker returns the unused part of its cap.
    fn drop(&mut self) {
        if let Some(parent) = &self.parent {
            let unused = self
                .budget
                .saturating_sub(self.committed.load(Ordering::Relaxed));
            parent.release_raw(unused);
            parent.set_aside.fetch_sub(unused, Ordering::Relaxed);
        }
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

    /// End the scope this charge was made through: the charge moves to the
    /// scope's parent with its bytes live all along, and what the scope held
    /// set aside beyond them goes back to the parent's budget. No other
    /// charge can take the moved bytes in between, and the parent's peak
    /// does not move.
    ///
    /// Only a charge holding the last handle to its scope can end it; any
    /// other charge — or one made on an unscoped tracker — is returned as
    /// it is.
    pub fn unscope(mut self) -> MemCharge {
        let Some(parent) = self.tracker.parent.clone() else {
            return self;
        };
        if Arc::strong_count(&self.tracker) != 1 {
            return self;
        }
        // Emptied, the guard releases nothing; the scope it drops with it
        // still counts the bytes, so it returns only the cap above them.
        let bytes = std::mem::take(&mut self.bytes);
        drop(self);
        MemCharge {
            tracker: parent,
            bytes,
        }
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
    fn scoped_charges_show_in_the_parent_only_as_they_are_made() {
        let t = MemTracker::with_budget(1000);
        let _held = t.charge(100, "held").unwrap();
        assert!(MemTracker::scoped(&t, 901, "too big").unwrap_err().is_oom());
        let scope = MemTracker::scoped(&t, 600, "scope").unwrap();
        // Set aside is not live: nothing moved in what the parent reports,
        // but only 300 bytes are left to anybody else.
        assert_eq!((t.live(), t.peak()), (100, 100));
        assert!(t.charge(301, "too much").unwrap_err().is_oom());
        let other = t.charge(300, "the rest").unwrap();
        let a = scope.charge(250, "a").unwrap();
        assert_eq!((scope.live(), t.live(), t.peak()), (250, 650, 650));
        let b = scope.charge(350, "b").unwrap();
        assert_eq!((scope.live(), t.live(), t.peak()), (600, 1000, 1000));
        drop((a, other));
        // The released bytes went back to the scope, not to the parent.
        assert_eq!((scope.live(), t.live()), (350, 450));
        assert!(t.charge(301, "scope still holds its cap").is_err());
        // The charge keeps the scope — and its set-aside — alive past the
        // last other handle; dropping it returns everything.
        assert_eq!((scope.peak(), scope.budget()), (600, 600));
        drop(scope);
        assert!(t.charge(301, "scope still holds its cap").is_err());
        drop(b);
        assert_eq!((t.live(), t.peak()), (100, 1000));
        assert!(t.charge(900, "everything is back").is_ok());
    }

    #[test]
    fn growth_past_the_cap_is_budget_checked_and_fails_cleanly() {
        let t = MemTracker::with_budget(1000);
        let scope = MemTracker::scoped(&t, 400, "scope").unwrap();
        let outside = t.charge(500, "outside").unwrap();
        let mut c = scope.charge(300, "under").unwrap();
        // 300 + 250 straddles the cap: 100 from the set-aside, 150 from the
        // 100 the parent has left — refused, and nothing moves.
        let before = (scope.live(), t.live(), t.peak());
        assert!(scope.charge(250, "straddles").unwrap_err().is_oom());
        assert!(c.resize(551, "grows").unwrap_err().is_oom());
        assert_eq!((scope.live(), t.live(), t.peak()), before);
        // 200 straddles too, and fits to the byte.
        let d = scope.charge(200, "straddles").unwrap();
        assert_eq!((scope.live(), t.live(), t.peak()), (500, 1000, 1000));
        // Shrinking gives the part above the cap back to the parent first.
        c.resize(0, "shrinks").unwrap();
        assert_eq!((scope.live(), t.live()), (200, 700));
        assert!(t
            .charge(101, "cap is still set aside")
            .unwrap_err()
            .is_oom());
        drop((c, d, scope, outside));
        assert!(t.charge(1000, "everything is back").is_ok());
    }

    /// Charges that stay under their scope's cap cannot fail, whatever runs
    /// beside them: growth past another scope's cap and direct charges
    /// fight over the parent's uncommitted bytes, and nothing pushes the
    /// parent past its budget.
    ///
    /// A scope's cap is one pool, first come first served: a charge made
    /// past the cap through the *same* scope takes the part of it still
    /// free, so a later charge there lands past the cap too and may be
    /// refused. The under-the-cap charges therefore go through scopes that
    /// nothing else charges through.
    #[test]
    fn concurrent_scoped_charges_never_push_the_parent_past_its_budget() {
        let t = MemTracker::with_budget(1000);
        let scopes = [(); 2].map(|()| MemTracker::scoped(&t, 300, "scope").unwrap());
        // Every 90-byte charge through this scope straddles or passes its cap.
        let grown = MemTracker::scoped(&t, 20, "grown").unwrap();
        let failed_under_cap = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for i in 0..8usize {
                let (t, scope, grown) = (&t, &scopes[i % 2], &grown);
                let failed = &failed_under_cap;
                s.spawn(move || {
                    for round in 0..2000 {
                        // Four threads a scope at 70 bytes each: 280 of the
                        // 300-byte cap, so these can never fail ...
                        let Ok(_mine) = scope.charge(70, "under the cap") else {
                            failed.fetch_add(1, Ordering::Relaxed);
                            continue;
                        };
                        // ... while growth past the other cap and direct
                        // charges fight over the parent's other 380 bytes
                        // and may.
                        let _over = grown.charge(90, "past the cap");
                        let _direct = t.charge(50 + round % 7, "direct");
                        assert!(t.live() <= 1000);
                    }
                });
            }
        });
        assert_eq!(failed_under_cap.load(Ordering::Relaxed), 0);
        assert!((70..=1000).contains(&t.peak()), "peak {}", t.peak());
        assert_eq!(t.live(), 0);
        drop((scopes, grown));
        assert!(t.charge(1000, "everything is back").is_ok());
    }

    #[test]
    fn available_counts_what_is_set_aside() {
        let t = MemTracker::with_budget(1000);
        let _held = t.charge(100, "held").unwrap();
        let scope = MemTracker::scoped(&t, 600, "scope").unwrap();
        let _used = scope.charge(250, "used").unwrap();
        // Live reads 350, yet only 300 bytes are left to anybody else.
        assert_eq!((t.live(), t.available()), (350, 300));
        assert!(MemTracker::scoped(&t, t.budget() - t.live(), "too big").is_err());
        assert!(MemTracker::scoped(&t, t.available(), "the rest").is_ok());
    }

    #[test]
    fn unscope_keeps_the_bytes_live_and_returns_the_cap() {
        let t = MemTracker::with_budget(1000);
        let scope = MemTracker::scoped(&t, 600, "scope").unwrap();
        let mut c = scope.charge(200, "under").unwrap();
        c.resize(450, "grows").unwrap();
        // Another handle keeps the scope: nothing moves.
        let c = c.unscope();
        assert_eq!((t.live(), t.available(), t.peak()), (450, 400, 450));
        drop(scope);
        let c = c.unscope();
        assert_eq!((t.live(), t.available(), t.peak()), (450, 550, 450));
        // The charge is the parent's now: it grows and frees there.
        let mut c = c.unscope();
        c.resize(500, "grows").unwrap();
        assert_eq!((t.live(), t.available()), (500, 500));
        drop(c);
        assert_eq!((t.live(), t.available()), (0, 1000));

        // A charge past the cap moves whole too.
        let scope = MemTracker::scoped(&t, 100, "scope").unwrap();
        let c = scope.charge(300, "past the cap").unwrap();
        drop(scope);
        let c = c.unscope();
        assert_eq!((t.live(), t.available(), t.peak()), (300, 700, 500));
        drop(c);
        assert_eq!((t.live(), t.available()), (0, 1000));
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
