//! The blockwise skeleton: one entry point, [`run_blockwise`], that runs
//! *for each block: compute a dense Schur contribution, fold it into the
//! accumulator* — the loop shared by the paper's multi-solve (§IV-A) and
//! multi-factorization (§IV-B) — on several workers without giving up the
//! memory budget or determinism.
//!
//! Running block computations concurrently multiplies the transient working
//! memory by the number of in-flight blocks, and — with the H-matrix backend
//! — makes the result depend on the (non-associative) order of compressed
//! AXPYs. The skeleton addresses both behind one lock and one condvar:
//!
//! * **Budget admission.** A block computes only while it holds a [`Slot`]:
//!   its worst-case working-set bytes reserved against the run's
//!   [`MemTracker`]. Slots are granted in block order; when the budget
//!   cannot take another in-flight block the worker waits for earlier
//!   blocks to release memory, so concurrency degrades (down to one block
//!   at a time) instead of failing with a spurious out-of-memory error.
//!   Only a reservation that does not fit with *no* other block in flight —
//!   i.e. when the sequential algorithm would also die — fails.
//! * **Lookahead task DAG.** Block `i` is two nodes, `compute(i)` (id `2i`)
//!   and `commit(i)` (id `2i + 1`), with edges
//!   `commit(i) ← {compute(i), commit(i − 1)}` and
//!   `compute(i) ← commit(i − L)`, `L` being the in-flight cap. Workers pull
//!   the lowest-id ready node, so `compute(i + 1)` overlaps `commit(i)`,
//!   yet a lone worker degenerates to the exact sequential order
//!   `compute(0), commit(0), compute(1), …` (a ready commit always has a
//!   smaller id than any later compute).
//! * **Ordered fold.** The commit chain applies the folds strictly in block
//!   order, reproducing the sequential algorithm's loop: results are
//!   bitwise-identical for every thread count and every in-flight cap.
//!
//! # Why ordered admission?
//!
//! Admitting blocks out of order can deadlock the commit chain: if block
//! `k` is admitted while block `k-1` still waits for memory, every admitted
//! block ≥ `k` parks behind `commit(k-1)` holding its reservation, and
//! block `k-1` waits forever for bytes that will never be released.
//! Granting admission in block order makes the lowest uncommitted block
//! always runnable: the only memory it can wait for belongs to *earlier*
//! blocks, which can complete without it.
//!
//! # Failure propagation
//!
//! There is one first-error slot. Once it is set, blocked admissions return
//! a clone of it instead of waiting and the remaining folds are skipped, so
//! the DAG drains promptly, every reservation is released, and
//! [`run_blockwise`] returns the original error.
//!
//! # Tracing
//!
//! Each block's records appear in a fixed order whatever the thread count:
//! `task_ready` (compute), `admit_wait`, the compute closure's own records,
//! `task_run`, `task_ready` (commit), `commit_wait`, the fold closure's own
//! records, `task_run`. `budget_degrade` and `poisoned` appear only on runs
//! that hit the budget or fail.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use csolve_common::{Error, MemCharge, MemTracker, Result, SpanKind, TraceEventKind, Tracer};
use parking_lot::{Condvar, Mutex};

/// How long a blocked worker sleeps between re-checks of the shared state.
/// All state transitions `notify_all`, so this is purely a defensive
/// backstop turning any missed-wakeup bug into slow polling instead of a
/// hang.
const WAIT_SLICE: Duration = Duration::from_millis(50);

struct State {
    /// Next block index to be admitted (admission is granted in order).
    next_ticket: usize,
    /// Reservations currently held.
    inflight: usize,
    /// Admitted blocks still computing (not yet handed to their commit).
    computing: usize,
    /// Maximum concurrently admitted blocks; shrinks under budget pressure.
    cap: usize,
    /// Bumped whenever memory is released or a block stops computing, so a
    /// retrying block can tell progress from a stall.
    epoch: u64,
    /// Unmet dependency count per DAG node.
    deps: Vec<u8>,
    /// Ready nodes, pulled lowest-id first.
    ready: BinaryHeap<Reverse<usize>>,
    /// Completed node count; workers exit when it reaches `2 · steps`.
    completed: usize,
    /// First error; set once.
    error: Option<Error>,
}

struct Pipeline<'a> {
    tracker: &'a Arc<MemTracker>,
    tracer: &'a Tracer,
    steps: usize,
    lookahead: usize,
    state: Mutex<State>,
    cv: Condvar,
}

impl Pipeline<'_> {
    fn update(&self, f: impl FnOnce(&mut State)) {
        f(&mut self.state.lock());
        self.cv.notify_all();
    }

    /// Record the pipeline's error (first error wins) and wake every
    /// blocked worker.
    fn fail(&self, e: &Error) {
        self.update(|st| {
            if st.error.is_none() {
                st.error = Some(e.clone());
                // Failure-only diagnostic: not part of the deterministic-
                // order contract (healthy runs never emit it).
                self.tracer.run().event(TraceEventKind::Poisoned);
            }
        });
    }

    /// Reserve `bytes` for block `seq` and enter the in-flight set.
    ///
    /// Blocks until every block `< seq` has been admitted, a concurrency
    /// slot is free, and the reservation fits the budget. Fails only when
    /// the reservation cannot fit with no other block in flight (the
    /// sequential algorithm would fail too) or after the pipeline failed.
    fn admit(&self, seq: usize, bytes: usize, what: &'static str) -> Result<Slot<'_>> {
        #[cfg(feature = "fault-inject")]
        if crate::fault::take_admit_oom(seq) {
            return Err(Error::OutOfMemory {
                requested: bytes,
                live: 0,
                budget: 0,
                what,
            });
        }
        // The span covers the whole admission (including the wait for the
        // block's ticket/slot/bytes) and closes before the compute closure
        // records anything.
        let bt = self.tracer.block(seq);
        let _wait = bt.span(SpanKind::AdmitWait);
        let mut st = self.state.lock();
        loop {
            if let Some(e) = &st.error {
                return Err(e.clone());
            }
            if st.next_ticket == seq && st.inflight < st.cap {
                match self.tracker.charge(bytes, what) {
                    Ok(charge) => {
                        st.next_ticket += 1;
                        st.inflight += 1;
                        st.computing += 1;
                        self.cv.notify_all();
                        return Ok(Slot {
                            pipe: self,
                            charge: Some(charge),
                            reserve: (bytes, what),
                            committing: false,
                            stalled: false,
                        });
                    }
                    Err(e) => {
                        if st.inflight == 0 {
                            return Err(e);
                        }
                        // Budget pressure: stop admitting beyond the level
                        // that currently fits, then wait for releases.
                        st.cap = st.inflight;
                        bt.event(TraceEventKind::BudgetDegrade { cap: st.cap });
                    }
                }
            }
            self.cv.wait_for(&mut st, WAIT_SLICE);
        }
    }

    /// Pull the lowest-id ready node; `None` once every node has completed.
    fn next_task(&self) -> Option<usize> {
        let mut st = self.state.lock();
        loop {
            if let Some(Reverse(id)) = st.ready.pop() {
                return Some(id);
            }
            if st.completed == 2 * self.steps {
                return None;
            }
            self.cv.wait_for(&mut st, WAIT_SLICE);
        }
    }

    /// Mark node `id` complete; newly-unblocked dependents enter the ready
    /// queue (each with its `task_ready` event, emitted in id order).
    fn complete(&self, id: usize) {
        let step = id / 2;
        // Dependents in ascending id order: a compute unblocks its own
        // commit; a commit unblocks the next commit and the compute
        // `lookahead` steps ahead.
        let dependents = if id.is_multiple_of(2) {
            [Some(id + 1), None]
        } else {
            [
                (step + 1 < self.steps).then_some(id + 2),
                (step + self.lookahead < self.steps).then_some(2 * (step + self.lookahead)),
            ]
        };
        self.update(|st| {
            st.completed += 1;
            for dep in dependents.into_iter().flatten() {
                st.deps[dep] -= 1;
                if st.deps[dep] == 0 {
                    self.tracer
                        .block(dep / 2)
                        .event(TraceEventKind::TaskReady { node: dep });
                    st.ready.push(Reverse(dep));
                }
            }
        });
    }
}

/// One admitted block: holds the block's byte reservation and its place in
/// the in-flight set while it computes and until its fold has run,
/// releasing both on drop.
pub(crate) struct Slot<'a> {
    pipe: &'a Pipeline<'a>,
    /// `None` only after a failed [`Slot::retry_after_oom`].
    charge: Option<MemCharge>,
    /// What was reserved at admission (and is re-reserved by a retry).
    reserve: (usize, &'static str),
    committing: bool,
    /// Whether the previous retry found the pipeline stalled.
    stalled: bool,
}

impl Slot<'_> {
    /// Shrink (or budget-checked grow) the reservation to `bytes` — e.g.
    /// down to the computed block's actual size once the working set is
    /// freed, so blocks parked for their fold hold as little as possible.
    pub(crate) fn resize(&mut self, bytes: usize, what: &'static str) -> Result<()> {
        // Only reachable after ignoring a failed retry, but a worker thread
        // must never panic: the pipeline drains on a structured error.
        let charge = self.charge.as_mut().ok_or(Error::Internal {
            context: "block reservation missing in resize",
        })?;
        charge.resize(bytes, what)?;
        self.pipe.update(|st| st.epoch += 1);
        Ok(())
    }

    /// Recover from an out-of-memory error `e` hit *mid-compute* by a
    /// charge outside this reservation, which may exist only because other
    /// blocks are in flight: release the reservation so they can finish,
    /// wait for one of them to make progress, and reserve again. The caller
    /// then recomputes the block.
    ///
    /// Returns `Err(e)` when the wait found nothing computing twice in a
    /// row — no further memory release is coming, the sequential algorithm
    /// would have failed too — and the re-reservation's own error when that
    /// cannot fit with nothing computing (or the pipeline failed meanwhile).
    pub(crate) fn retry_after_oom(&mut self, e: Error) -> Result<()> {
        self.release();
        let pipe = self.pipe;
        let mut st = pipe.state.lock();
        let epoch0 = st.epoch;
        while st.epoch == epoch0 && st.computing > 0 {
            pipe.cv.wait_for(&mut st, WAIT_SLICE);
        }
        let stalled = st.computing == 0;
        if stalled && self.stalled {
            return Err(e);
        }
        self.stalled = stalled;
        loop {
            if let Some(e) = &st.error {
                return Err(e.clone());
            }
            match pipe.tracker.charge(self.reserve.0, self.reserve.1) {
                Ok(charge) => {
                    st.inflight += 1;
                    st.computing += 1;
                    pipe.cv.notify_all();
                    self.charge = Some(charge);
                    return Ok(());
                }
                Err(e) if st.computing == 0 => return Err(e),
                Err(_) => {}
            }
            pipe.cv.wait_for(&mut st, WAIT_SLICE);
        }
    }

    /// Done computing, about to park for the commit: lets a retrying block
    /// distinguish blocks that can still release memory from blocks waiting
    /// their fold turn.
    fn begin_commit(&mut self) {
        self.committing = true;
        self.pipe.update(|st| {
            st.computing -= 1;
            st.epoch += 1;
        });
    }

    fn release(&mut self) {
        // Release the bytes before leaving the in-flight set, so a worker
        // woken by the release immediately sees the freed budget.
        if self.charge.take().is_some() {
            let computing = usize::from(!self.committing);
            self.pipe.update(|st| {
                st.inflight -= 1;
                st.computing -= computing;
                st.epoch += 1;
            });
        }
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.release();
    }
}

/// Run a `steps`-block pipeline on the ambient rayon thread budget and
/// return the accumulator, or the first error.
///
/// For block `seq`, in this order: `reserve(seq)` names the worst-case
/// working-set bytes (and their charge label) the block must hold before it
/// may compute; `compute(seq, slot)` produces the block's payload on
/// whichever worker is free, holding the admitted [`Slot`]; `fold(seq, acc,
/// payload)` folds it into `acc` — strictly in block order, one at a time.
/// The slot is released after the fold. At most `inflight` blocks (clamped
/// to at least one, lowered further under budget pressure) are admitted at
/// a time, and computes run at most that far ahead of the fold frontier.
///
/// See the [module documentation](self) for the scheduling, failure and
/// tracing contracts.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_blockwise<S: Send, P: Send>(
    tracker: &Arc<MemTracker>,
    tracer: &Tracer,
    steps: usize,
    inflight: usize,
    acc: S,
    reserve: impl Fn(usize) -> (usize, &'static str) + Sync,
    compute: impl Fn(usize, &mut Slot<'_>) -> Result<P> + Sync,
    fold: impl Fn(usize, &mut S, P) -> Result<()> + Sync,
) -> Result<S> {
    let lookahead = inflight.max(1);
    let mut deps = vec![0u8; 2 * steps];
    let mut ready = BinaryHeap::new();
    for i in 0..steps {
        deps[2 * i] = u8::from(i >= lookahead);
        deps[2 * i + 1] = 1 + u8::from(i > 0);
        if i < lookahead {
            // Initially-ready computes announce themselves in id order
            // before any worker starts, so `task_ready` is each block's
            // first record.
            tracer
                .block(i)
                .event(TraceEventKind::TaskReady { node: 2 * i });
            ready.push(Reverse(2 * i));
        }
    }
    let pipe = Pipeline {
        tracker,
        tracer,
        steps,
        lookahead,
        state: Mutex::new(State {
            next_ticket: 0,
            inflight: 0,
            computing: 0,
            cap: lookahead,
            epoch: 0,
            deps,
            ready,
            completed: 0,
            error: None,
        }),
        cv: Condvar::new(),
    };
    // The accumulator with the index of its next fold. The DAG's commit
    // chain is what serializes the folds in block order; the index only
    // asserts it.
    let acc = Mutex::new((0usize, acc));
    // Hand-off from each compute task to its commit task: the slot, the
    // payload, and when the block was parked.
    let parked: Vec<Mutex<Option<(Slot<'_>, P, Instant)>>> =
        (0..steps).map(|_| Mutex::new(None)).collect();

    let worker = || {
        while let Some(id) = pipe.next_task() {
            let seq = id / 2;
            let bt = tracer.block(seq);
            if id.is_multiple_of(2) {
                let _run = bt.span(SpanKind::TaskRun);
                let (bytes, what) = reserve(seq);
                match pipe.admit(seq, bytes, what) {
                    Ok(mut slot) => match compute(seq, &mut slot) {
                        Ok(payload) => {
                            slot.begin_commit();
                            *parked[seq].lock() = Some((slot, payload, Instant::now()));
                        }
                        Err(e) => pipe.fail(&e),
                    },
                    Err(e) => pipe.fail(&e),
                }
            } else {
                // A block whose compute failed has nothing to fold.
                let handoff = parked[seq].lock().take();
                if let Some((slot, payload, since)) = handoff {
                    let _run = bt.span(SpanKind::TaskRun);
                    bt.record_span(SpanKind::CommitWait, since.elapsed(), 0, 0);
                    let failed = pipe.state.lock().error.is_some();
                    if !failed {
                        let mut acc = acc.lock();
                        let folded = if acc.0 == seq {
                            acc.0 += 1;
                            fold(seq, &mut acc.1, payload)
                        } else {
                            Err(Error::Internal {
                                context: "blockwise fold dispatched out of block order",
                            })
                        };
                        if let Err(e) = folded {
                            pipe.fail(&e);
                        }
                    }
                    drop(slot);
                }
            }
            pipe.complete(id);
        }
    };
    rayon::scope(|s| {
        // One worker runs inline on this thread (the scope'd spawns may all
        // degrade to inline execution under permit pressure; any single
        // worker can drain the whole DAG alone). At most `lookahead` blocks
        // are ever runnable at once, and a parked worker pins its helper
        // permit for the whole run: spawn no more than can work, so the
        // parallelism nested under a block (chunked sparse solves, H-LU
        // branches, GEMM macro-tiles) gets the threads the pipeline cannot
        // use.
        let workers = rayon::current_num_threads().min(steps).min(lookahead);
        for _ in 1..workers {
            s.spawn(|_| worker());
        }
        worker();
    });
    drop(parked);
    match pipe.state.into_inner().error {
        Some(e) => Err(e),
        None => Ok(acc.into_inner().1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    /// `f` on a `workers`-thread rayon budget. (Helper threads are a
    /// process-wide resource the concurrently running tests compete for, so
    /// "4 workers" is an upper bound: every assertion below must — and does
    /// — hold for any smaller number too.)
    fn with_workers<R: Send>(workers: usize, f: impl FnOnce() -> R + Send) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(workers)
            .build()
            .unwrap()
            .install(f)
    }

    fn pause(ms: u64) {
        std::thread::sleep(Duration::from_millis(ms));
    }

    fn oom() -> Error {
        Error::OutOfMemory {
            requested: 1,
            live: 0,
            budget: 0,
            what: "mid-compute charge",
        }
    }

    /// A pipeline of `steps` blocks reserving `bytes` each, whose payload is
    /// the block index and whose accumulator is the list of folded indices.
    fn run(
        tracker: &Arc<MemTracker>,
        (steps, inflight, bytes): (usize, usize, usize),
        compute: impl Fn(usize, &mut Slot<'_>) -> Result<()> + Sync,
    ) -> Result<Vec<usize>> {
        run_blockwise(
            tracker,
            &Tracer::disabled(),
            steps,
            inflight,
            Vec::new(),
            |_| (bytes, "block"),
            |seq, slot| compute(seq, slot).map(|()| seq),
            |seq, folded, payload| {
                assert_eq!(seq, payload, "payload handed to the wrong fold");
                folded.push(payload);
                Ok(())
            },
        )
    }

    #[test]
    fn folds_are_applied_in_block_order_despite_racing_computes() {
        for workers in [1, 4] {
            let tracker = MemTracker::unbounded();
            let folded = with_workers(workers, || {
                run(&tracker, (8, 8, 10), |seq, _| {
                    // Late blocks finish first.
                    pause((7 - seq as u64) * 3);
                    Ok(())
                })
            });
            assert_eq!(folded.unwrap(), (0..8).collect::<Vec<_>>());
            assert_eq!(tracker.live(), 0);
        }
    }

    #[test]
    fn tracked_peak_stays_within_a_budget_that_admits_fewer_blocks_than_workers() {
        // The budget fits exactly two 100-byte reservations.
        for workers in [1, 4] {
            let tracker = MemTracker::with_budget(250);
            let folded = with_workers(workers, || {
                run(&tracker, (6, 4, 100), |_, _| {
                    assert!(tracker.live() <= 250);
                    pause(2);
                    Ok(())
                })
            });
            assert_eq!(folded.unwrap().len(), 6);
            assert!(tracker.peak() <= 250);
            assert_eq!(tracker.live(), 0);
        }
    }

    #[test]
    fn only_a_reservation_that_cannot_fit_alone_fails_admission() {
        for workers in [1, 4] {
            // No two 60-byte blocks fit together, yet each fits alone.
            let tracker = MemTracker::with_budget(100);
            let folded = with_workers(workers, || run(&tracker, (4, 4, 60), |_, _| Ok(())));
            assert_eq!(folded.unwrap().len(), 4);
            // Nothing in flight and the reservation exceeds the whole
            // budget: fail, as the sequential algorithm would.
            let err = with_workers(workers, || run(&tracker, (4, 4, 200), |_, _| Ok(())));
            assert!(err.unwrap_err().is_oom());
            assert_eq!(tracker.live(), 0);
        }
    }

    #[test]
    fn degraded_admission_waits_for_a_release() {
        for workers in [1, 4] {
            let tracker = MemTracker::with_budget(150);
            let folded0 = AtomicBool::new(false);
            let result = with_workers(workers, || {
                run_blockwise(
                    &tracker,
                    &Tracer::disabled(),
                    2,
                    4,
                    (),
                    |_| (100, "block"),
                    |seq, _| {
                        if seq == 0 {
                            pause(30);
                        } else {
                            // 100 + 100 exceeds the budget: block 1 is
                            // admitted only once block 0 has released, which
                            // it does after its fold.
                            assert!(folded0.load(Ordering::SeqCst));
                        }
                        Ok(())
                    },
                    |seq, (), ()| {
                        if seq == 0 {
                            folded0.store(true, Ordering::SeqCst);
                        }
                        Ok(())
                    },
                )
            });
            result.unwrap();
            assert!(tracker.peak() <= 150);
            assert_eq!(tracker.live(), 0);
        }
    }

    #[test]
    fn first_error_drains_the_pipeline_and_is_the_one_returned() {
        let boom = |what: &str| Error::InvalidConfig(format!("{what} of block 2 failed"));
        for workers in [1, 4] {
            for source in ["reserve", "compute", "fold"] {
                let tracker = MemTracker::with_budget(1000);
                let _outside = tracker.charge(7, "held by the caller").unwrap();
                let result = with_workers(workers, || {
                    run_blockwise(
                        &tracker,
                        &Tracer::disabled(),
                        6,
                        3,
                        Vec::new(),
                        // Block 2's reservation cannot fit even alone.
                        |seq| match (source, seq) {
                            ("reserve", 2) => (5000, "impossible block"),
                            _ => (100, "block"),
                        },
                        |seq, _| match (source, seq) {
                            ("compute", 2) => Err(boom(source)),
                            _ => Ok(seq),
                        },
                        |seq, folded: &mut Vec<usize>, payload| match (source, seq) {
                            ("fold", 2) => Err(boom(source)),
                            _ => {
                                folded.push(payload);
                                Ok(())
                            }
                        },
                    )
                });
                match (source, result.unwrap_err()) {
                    ("reserve", Error::OutOfMemory { requested, .. }) => {
                        assert_eq!(requested, 5000)
                    }
                    (_, e) => assert_eq!(e, boom(source), "{workers} workers / {source}"),
                }
                // Every reservation is back, whatever was in flight.
                assert_eq!(tracker.live(), 7, "{workers} workers / {source}");
            }
        }
    }

    #[test]
    fn no_fold_runs_after_the_first_error() {
        for workers in [1, 4] {
            let tracker = MemTracker::unbounded();
            let folds = AtomicUsize::new(0);
            let result = with_workers(workers, || {
                run_blockwise(
                    &tracker,
                    &Tracer::disabled(),
                    6,
                    3,
                    (),
                    |_| (1, "block"),
                    |_, _| Ok(()),
                    |seq, (), ()| {
                        // Folds run in block order, so exactly 0, 1, 2 run.
                        assert_eq!(folds.fetch_add(1, Ordering::SeqCst), seq);
                        if seq == 2 {
                            return Err(oom());
                        }
                        Ok(())
                    },
                )
            });
            assert_eq!(result.unwrap_err(), oom());
            assert_eq!(folds.load(Ordering::SeqCst), 3);
        }
    }

    #[test]
    fn retry_after_oom_waits_for_computing_blocks() {
        for workers in [1, 4] {
            let tracker = MemTracker::with_budget(150);
            let done0 = AtomicBool::new(false);
            let folded = with_workers(workers, || {
                run(&tracker, (2, 2, 40), |seq, slot| {
                    if seq == 0 {
                        pause(30);
                        done0.store(true, Ordering::SeqCst);
                        return Ok(());
                    }
                    // Block 1 is admitted after block 0, so block 0 is
                    // computing (or done): the retry returns only once it
                    // has made progress, with the reservation held again.
                    slot.retry_after_oom(oom())?;
                    assert!(done0.load(Ordering::SeqCst));
                    assert!(tracker.live() >= 40);
                    slot.resize(5, "shrunk")
                })
            });
            assert_eq!(folded.unwrap(), vec![0, 1]);
            assert_eq!(tracker.live(), 0);
        }
    }

    #[test]
    fn retry_after_oom_reports_a_stall_the_second_time() {
        for workers in [1, 4] {
            let tracker = MemTracker::unbounded();
            let err = with_workers(workers, || {
                run(&tracker, (1, 4, 40), |_, slot| {
                    // Nothing else is computing: the first retry is granted
                    // (memory may just have been released) ...
                    slot.retry_after_oom(oom())?;
                    assert_eq!(tracker.live(), 40);
                    // ... a second stalled one gives the error back.
                    let e = slot.retry_after_oom(oom()).unwrap_err();
                    assert_eq!(tracker.live(), 0);
                    Err(e)
                })
            });
            assert_eq!(err.unwrap_err(), oom());
            assert_eq!(tracker.live(), 0);
        }
    }

    #[test]
    fn lone_worker_degenerates_to_sequential_order() {
        let order = Mutex::new(Vec::new());
        let tracker = MemTracker::unbounded();
        with_workers(1, || {
            run_blockwise(
                &tracker,
                &Tracer::disabled(),
                4,
                2,
                (),
                |_| (1, "block"),
                |i, _| {
                    order.lock().push(format!("c{i}"));
                    Ok(())
                },
                |i, (), ()| {
                    order.lock().push(format!("m{i}"));
                    Ok(())
                },
            )
        })
        .unwrap();
        // A ready commit always outranks any later compute (smaller node id),
        // so one worker reproduces the sequential loop exactly.
        assert_eq!(
            *order.lock(),
            vec!["c0", "m0", "c1", "m1", "c2", "m2", "c3", "m3"]
        );
    }

    #[test]
    fn no_more_workers_are_spawned_than_blocks_can_be_in_flight() {
        use std::thread::{self, ThreadId};
        // The threads every compute and fold of a 6-block run landed on.
        let threads_used = |inflight: usize| -> (ThreadId, Vec<ThreadId>) {
            let seen = Mutex::new(Vec::new());
            let tracker = MemTracker::unbounded();
            let caller = with_workers(4, || {
                run_blockwise(
                    &tracker,
                    &Tracer::disabled(),
                    6,
                    inflight,
                    (),
                    |_| (1, "block"),
                    |_, _| {
                        seen.lock().push(thread::current().id());
                        pause(5);
                        Ok(())
                    },
                    |_, (), ()| {
                        seen.lock().push(thread::current().id());
                        Ok(())
                    },
                )
                .unwrap();
                thread::current().id()
            });
            (caller, seen.into_inner())
        };
        // One block in flight: a helper worker could only ever park holding
        // a permit, so none is spawned and the caller runs everything.
        let (caller, seen) = threads_used(1);
        assert_eq!(seen.len(), 12);
        assert!(seen.iter().all(|&t| t == caller), "a helper ran a task");
        // Two in flight: the second worker is still there. (Permits are
        // process-wide; concurrently running tests can starve a round.)
        for attempt in 0..10 {
            let (caller, seen) = threads_used(2);
            assert_eq!(seen.len(), 12);
            if seen.iter().any(|&t| t != caller) {
                return;
            }
            assert!(attempt < 9, "no helper worker in 10 attempts");
        }
    }

    #[test]
    fn computes_run_at_most_the_lookahead_ahead_of_the_fold_frontier() {
        for workers in [1, 4] {
            let tracker = MemTracker::unbounded();
            let frontier = AtomicUsize::new(0);
            let result = with_workers(workers, || {
                run_blockwise(
                    &tracker,
                    &Tracer::disabled(),
                    6,
                    2,
                    (),
                    |_| (1, "block"),
                    |i, _| {
                        // compute(i) may only start once fold(i - 2) is done.
                        assert!(
                            frontier.load(Ordering::SeqCst) + 2 > i,
                            "lookahead violated at {i}"
                        );
                        Ok(())
                    },
                    |i, (), ()| {
                        frontier.store(i + 1, Ordering::SeqCst);
                        Ok(())
                    },
                )
            });
            result.unwrap();
            assert_eq!(frontier.load(Ordering::SeqCst), 6);
        }
    }

    #[test]
    fn next_compute_overlaps_previous_commit() {
        use csolve_common::{TracePayload, TraceScope};
        // With two workers and lookahead 2, compute(1) is dispatched at
        // start while commit(0) runs later — its task_run span must open
        // before commit(0)'s closes. Permit contention from concurrently
        // running tests can serialize a round; retry a few times.
        for attempt in 0..10 {
            let tracer = Tracer::enabled();
            let tracker = MemTracker::unbounded();
            with_workers(4, || {
                run_blockwise(
                    &tracker,
                    &tracer,
                    3,
                    2,
                    (),
                    |_| (1, "block"),
                    |_, _| {
                        pause(20);
                        Ok(())
                    },
                    |_, (), ()| {
                        pause(20);
                        Ok(())
                    },
                )
            })
            .unwrap();
            let records = tracer.drain();
            // Per block: task_run spans in order (compute, commit).
            let runs = |b: usize| -> Vec<(u64, u64)> {
                records
                    .iter()
                    .filter(|r| r.scope == TraceScope::Block(b))
                    .filter_map(|r| match &r.payload {
                        TracePayload::Span {
                            kind: SpanKind::TaskRun,
                            start_ns,
                            dur_ns,
                            ..
                        } => Some((*start_ns, *start_ns + *dur_ns)),
                        _ => None,
                    })
                    .collect()
            };
            let (b0, b1) = (runs(0), runs(1));
            assert_eq!(b0.len(), 2, "block 0 must run compute + commit");
            assert_eq!(b1.len(), 2, "block 1 must run compute + commit");
            let compute1_open = b1[0].0;
            let commit0_close = b0[1].1;
            if compute1_open < commit0_close {
                return; // overlap observed
            }
            assert!(attempt < 9, "no compute/commit overlap in 10 attempts");
        }
    }
}
