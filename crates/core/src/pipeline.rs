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
//! * **Budget admission: admitted ⇒ cannot run out of memory.** A block
//!   computes only inside a reservation that covers its whole working set,
//!   that reservation is final before the next block may be admitted, and
//!   everything the block's callees charge is drawn from it. The
//!   reservation is a [`Slot`]: the bytes `reserve(seq)` names, charged at
//!   admission, plus ([`Slot::finalize`]) the block's own bound on what its
//!   callees will charge — a tile's sparse-solver working set, known from
//!   its symbolic analysis — set aside as a tracker scoped to the slot
//!   ([`MemTracker::scoped`]), which the callees charge. Both steps are
//!   granted in block order and wait for earlier blocks to release memory,
//!   so concurrency degrades (down to one block at a time) instead of
//!   failing spuriously. A block with *no* other block in flight has nothing
//!   to wait for: its admission and its finalize fail at once if what they
//!   ask for does not fit — on the block where the sequential algorithm
//!   would fail too.
//! * **One owner per block.** A worker takes the next block, admits and
//!   computes it, waits until every earlier block is folded, folds it and
//!   releases its slot; only then does it take another. There are at most
//!   `L` workers, `L` being the in-flight cap, so block `i` is taken only
//!   once block `i − L` is folded, and a lone worker runs the exact
//!   sequential order `compute(0), fold(0), compute(1), …`.
//! * **Ordered fold.** The folds apply strictly in block order, reproducing
//!   the sequential algorithm's loop: results are bitwise-identical for
//!   every thread count and every in-flight cap.
//!
//! # Why ordered admission?
//!
//! Admitting blocks out of order can deadlock the fold order: if block `k`
//! is admitted while block `k-1` still waits for memory, every admitted
//! block ≥ `k` waits for the fold of `k-1` holding its reservation, and
//! block `k-1` waits forever for bytes that will never be released.
//! Granting admission in block order makes the lowest unfolded block always
//! runnable: the only memory it can wait for belongs to *earlier* blocks,
//! which can complete without it.
//!
//! The finalize step is covered by the same argument because the ticket
//! passes on when block `k` is *final*, not when it is admitted: while `k`
//! waits in [`Slot::finalize`], every lower block holds its whole working
//! set and can compute, fold and release without another byte, and no
//! higher block holds anything. The price: a tile's `W` assembly and
//! analysis, between its admission and finalize, run one block at a time.
//!
//! # Failure propagation
//!
//! There is one first-error slot. Once it is set, blocked admissions,
//! finalizations and fold waits return instead of waiting, no worker takes
//! another block and the remaining folds are skipped, so the pipeline
//! drains promptly, every reservation is released, and [`run_blockwise`]
//! returns the original error.
//!
//! # Tracing
//!
//! Each block's records appear in a fixed order whatever the thread count:
//! `admit_wait`, the compute closure's own records (with the wait in
//! [`Slot::finalize`], a second `admit_wait`), `task_run` (the compute),
//! `commit_wait`, the fold closure's own records, `task_run` (the fold).
//! `budget_degrade` and `poisoned` appear only on runs that hit the budget
//! or fail.

use std::sync::Arc;
use std::time::Duration;

use csolve_common::{Error, MemCharge, MemTracker, Result, SpanKind, TraceEventKind, Tracer};
use parking_lot::{Condvar, Mutex};

/// How long a blocked worker sleeps between re-checks of the shared state.
/// All state transitions `notify_all`, so this is purely a defensive
/// backstop turning any missed-wakeup bug into slow polling instead of a
/// hang.
const WAIT_SLICE: Duration = Duration::from_millis(50);

struct State {
    /// The next block a worker takes.
    next_block: usize,
    /// The next block to fold: every lower one is folded.
    next_fold: usize,
    /// The lowest block whose reservation is not final: the only one that
    /// may be admitted, and the only one that may wait in `finalize`.
    next_ticket: usize,
    /// Reservations currently held.
    inflight: usize,
    /// Maximum concurrently admitted blocks; shrinks under budget pressure.
    cap: usize,
    /// First error; set once.
    error: Option<Error>,
}

struct Pipeline<'a> {
    tracker: &'a Arc<MemTracker>,
    tracer: &'a Tracer,
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

    /// Take the next of `steps` blocks; `None` once every block is taken or
    /// the pipeline failed.
    fn take(&self, steps: usize) -> Option<usize> {
        let mut st = self.state.lock();
        let seq = st.next_block;
        if st.error.is_some() || seq >= steps {
            return None;
        }
        st.next_block += 1;
        Some(seq)
    }

    /// Reserve `bytes` for block `seq` and enter the in-flight set.
    ///
    /// Blocks until every block `< seq` is final, a concurrency slot is
    /// free, and the reservation fits the budget. Fails only when the
    /// reservation cannot fit with no other block in flight (the sequential
    /// algorithm would fail too) or after the pipeline failed.
    fn admit(&self, seq: usize, bytes: usize, what: &'static str) -> Result<Slot<'_>> {
        #[cfg(feature = "fault-inject")]
        crate::fault::jitter();
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
                        st.inflight += 1;
                        return Ok(Slot {
                            pipe: self,
                            seq,
                            charge,
                            scope: None,
                        });
                    }
                    Err(e) if st.inflight == 0 => return Err(e),
                    Err(_) => {
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

    /// Wait until every block below `seq` is folded; `false` once the
    /// pipeline failed.
    fn fold_turn(&self, seq: usize) -> bool {
        #[cfg(feature = "fault-inject")]
        crate::fault::jitter();
        let mut st = self.state.lock();
        loop {
            if st.error.is_some() {
                return false;
            }
            if st.next_fold == seq {
                return true;
            }
            self.cv.wait_for(&mut st, WAIT_SLICE);
        }
    }
}

/// One admitted block: its reservation — the bytes charged at admission
/// and, once [final](Slot::finalize), the tracker scoped to what its callees
/// may charge — and its place in the in-flight set, held while it computes
/// and until its fold has run; released on drop.
pub(crate) struct Slot<'a> {
    pipe: &'a Pipeline<'a>,
    seq: usize,
    charge: MemCharge,
    scope: Option<Arc<MemTracker>>,
}

impl Slot<'_> {
    /// Make the reservation whole and final: set aside `bound` more bytes,
    /// everything the block's callees will charge through [`Slot::tracker`],
    /// and pass the ticket to the next block. Every block calls this once,
    /// before it computes; one whose admission reserved everything passes 0.
    ///
    /// Waits for earlier blocks to release while `bound` does not fit. With
    /// none in flight nothing can be released, so it fails at once with the
    /// scope's out-of-memory error, as the sequential algorithm would fail
    /// once its callees outgrew the budget. Otherwise fails only with the
    /// pipeline's error.
    pub(crate) fn finalize(&mut self, bound: usize, what: &'static str) -> Result<()> {
        #[cfg(feature = "fault-inject")]
        crate::fault::jitter();
        let Pipeline {
            tracker, state, cv, ..
        } = self.pipe;
        // Not compute time: recorded as the admission wait it is.
        let _wait = self.pipe.tracer.block(self.seq).span(SpanKind::AdmitWait);
        let mut st = state.lock();
        loop {
            if let Some(e) = &st.error {
                return Err(e.clone());
            }
            match MemTracker::scoped(tracker, bound, what) {
                Ok(scope) => {
                    self.scope = Some(scope);
                    st.next_ticket = st.next_ticket.max(self.seq + 1);
                    cv.notify_all();
                    return Ok(());
                }
                Err(e) if st.inflight == 1 => return Err(e),
                Err(_) => {}
            }
            cv.wait_for(&mut st, WAIT_SLICE);
        }
    }

    /// The tracker the block's callees charge: scoped to the slot's
    /// reservation once that is final.
    pub(crate) fn tracker(&self) -> &Arc<MemTracker> {
        self.scope.as_ref().unwrap_or(self.pipe.tracker)
    }

    /// The working set is gone: return what was set aside for it and shrink
    /// (or budget-checked grow) the charge to `bytes`, the computed block's
    /// size, so blocks waiting for their fold hold as little as possible.
    pub(crate) fn park(&mut self, bytes: usize, what: &'static str) -> Result<()> {
        #[cfg(feature = "fault-inject")]
        crate::fault::jitter();
        self.scope = None;
        self.charge.resize(bytes, what)?;
        self.pipe.update(|_| {});
        Ok(())
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        #[cfg(feature = "fault-inject")]
        crate::fault::jitter();
        // Release the bytes before leaving the in-flight set, so a worker
        // woken by the release immediately sees the freed budget.
        self.scope = None;
        let _ = self.charge.resize(0, "released");
        self.pipe.update(|st| {
            st.inflight -= 1;
            st.next_ticket = st.next_ticket.max(self.seq + 1);
        });
    }
}

/// Run a `steps`-block pipeline on the ambient rayon thread budget and
/// return the accumulator, or the first error.
///
/// For block `seq`, in this order: `reserve(seq)` names the bytes (and
/// their charge label) of the block's own buffers, which it must hold before
/// it may compute; `compute(seq, slot)` [finalizes](Slot::finalize) the
/// admitted [`Slot`] and produces the block's payload on whichever worker
/// took the block; `fold(seq, acc, payload)` folds it into `acc` on the same
/// worker — strictly in block order, one at a time. The slot is released
/// after the fold. At most `inflight` blocks (clamped to at least one,
/// lowered further under budget pressure) are admitted at a time, and
/// computes run at most that far ahead of the fold frontier.
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
    let pipe = Pipeline {
        tracker,
        tracer,
        state: Mutex::new(State {
            next_block: 0,
            next_fold: 0,
            next_ticket: 0,
            inflight: 0,
            cap: lookahead,
            error: None,
        }),
        cv: Condvar::new(),
    };
    // Only the worker whose fold turn it is locks the accumulator.
    let acc = Mutex::new(acc);
    let worker = || {
        while let Some(seq) = pipe.take(steps) {
            let bt = tracer.block(seq);
            let run = bt.span(SpanKind::TaskRun);
            let (bytes, what) = reserve(seq);
            let mut slot = match pipe.admit(seq, bytes, what) {
                Ok(slot) => slot,
                Err(e) => return pipe.fail(&e),
            };
            let payload = match compute(seq, &mut slot) {
                Ok(payload) => payload,
                Err(e) => return pipe.fail(&e),
            };
            drop(run);
            let wait = bt.span(SpanKind::CommitWait);
            if !pipe.fold_turn(seq) {
                return;
            }
            drop(wait);
            let _run = bt.span(SpanKind::TaskRun);
            if let Err(e) = fold(seq, &mut acc.lock(), payload) {
                return pipe.fail(&e);
            }
            drop(slot);
            pipe.update(|st| st.next_fold += 1);
        }
    };
    rayon::scope(|s| {
        // One worker runs inline on this thread (the scope'd spawns may all
        // degrade to inline execution under permit pressure; any single
        // worker can run every block alone). A worker holds one block at a
        // time, and one waiting for its fold turn pins its helper permit:
        // spawn no more than can work, so the parallelism nested under a
        // block (chunked sparse solves, H-LU branches, GEMM macro-tiles)
        // gets the threads the pipeline cannot use.
        let workers = rayon::current_num_threads().min(steps).min(lookahead);
        for _ in 1..workers {
            s.spawn(|_| worker());
        }
        worker();
    });
    match pipe.state.into_inner().error {
        Some(e) => Err(e),
        None => Ok(acc.into_inner()),
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

    /// A pipeline of `steps` blocks reserving `bytes` each at admission
    /// (`compute` finalizes); the payload is the block index and the
    /// accumulator the list of folded indices.
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

    /// A compute with nothing to reserve beyond its admission bytes.
    fn whole(slot: &mut Slot<'_>) -> Result<()> {
        slot.finalize(0, "block")
    }

    #[test]
    fn folds_are_applied_in_block_order_despite_racing_computes() {
        for workers in [1, 4] {
            let tracker = MemTracker::unbounded();
            let folded = with_workers(workers, || {
                run(&tracker, (8, 8, 10), |seq, slot| {
                    whole(slot)?;
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
                run(&tracker, (6, 4, 100), |_, slot| {
                    whole(slot)?;
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
            let folded = with_workers(workers, || run(&tracker, (4, 4, 60), |_, slot| whole(slot)));
            assert_eq!(folded.unwrap().len(), 4);
            // Nothing in flight and the reservation exceeds the whole
            // budget: fail, as the sequential algorithm would.
            let err = with_workers(workers, || {
                run(&tracker, (4, 4, 200), |_, slot| whole(slot))
            });
            assert!(err.unwrap_err().is_oom());
            assert_eq!(tracker.live(), 0);
        }
    }

    #[test]
    fn degraded_admission_waits_for_a_release() {
        for workers in [1, 4] {
            // 100 + 100 exceeds the budget: block 1 is admitted — not failed
            // — once block 0 has released, which it does after its fold.
            let tracker = MemTracker::with_budget(150);
            let folded = with_workers(workers, || {
                run(&tracker, (2, 4, 100), |seq, slot| {
                    whole(slot)?;
                    pause(30 * (1 - seq as u64));
                    Ok(())
                })
            });
            assert_eq!(folded.unwrap(), [0, 1]);
            assert_eq!((tracker.peak(), tracker.live()), (100, 0));
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
                        |seq, slot| match (source, seq) {
                            ("compute", 2) => Err(boom(source)),
                            _ => whole(slot).map(|()| seq),
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
                    |_, slot| whole(slot),
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
    fn blocks_that_charge_their_whole_finalized_bound_never_run_out_of_memory() {
        // 10 bytes at admission, `bound` more at finalize: one whole block
        // fits the budget, two do not, four admissions do. Parking blocks
        // make room for the next while they wait for their fold; blocks that
        // do not are granted their bound only once they are alone.
        for (workers, park) in [(1, true), (4, true), (1, false), (4, false)] {
            let (budget, bound) = if park { (160, 100) } else { (100, 75) };
            let tracker = MemTracker::with_budget(budget);
            let computed = AtomicUsize::new(0);
            let folded = with_workers(workers, || {
                run(&tracker, (6, 4, 10), |_, slot| {
                    slot.finalize(bound, "callee working set")?;
                    // This block's 10 and, by now perhaps, the next one's.
                    assert!(park || tracker.live() <= 20, "granted beside a block");
                    // Inside the reservation no charge can fail, however
                    // many other blocks are admitted meanwhile.
                    let held = slot.tracker().charge(bound - 40, "callee, first")?;
                    pause(2);
                    let more = slot.tracker().charge(40, "callee, second")?;
                    assert!(tracker.live() <= budget);
                    computed.fetch_add(1, Ordering::SeqCst);
                    drop((held, more));
                    if park {
                        slot.park(5, "parked")?;
                    }
                    Ok(())
                })
            });
            assert_eq!(folded.unwrap(), (0..6).collect::<Vec<_>>());
            // Every block computed once: nothing was released, waited for
            // and recomputed.
            assert_eq!(computed.load(Ordering::SeqCst), 6);
            let peak = tracker.peak();
            assert!((10 + bound..=budget).contains(&peak), "peak {peak}");
            assert_eq!(tracker.live(), 0);
        }
    }

    #[test]
    fn a_bound_over_the_whole_budget_fails_as_the_sequential_loop_would() {
        for workers in [1, 4] {
            let tracker = MemTracker::with_budget(100);
            let computed = AtomicUsize::new(0);
            let err = with_workers(workers, || {
                // Alone, block 0 cannot be granted its 500 bytes and no
                // release can make room: its finalize refuses at once,
                // before any callee charges.
                run(&tracker, (3, 3, 10), |_, slot| {
                    slot.finalize(500, "callee working set")?;
                    computed.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                })
            });
            match err.unwrap_err() {
                Error::OutOfMemory {
                    requested,
                    live,
                    budget,
                    what,
                } => assert_eq!(
                    (requested, live, budget, what),
                    (500, 10, 100, "callee working set")
                ),
                e => panic!("expected the finalize's out-of-memory error, got {e}"),
            }
            assert_eq!(computed.load(Ordering::SeqCst), 0);
            assert!(tracker.charge(100, "everything is back").is_ok());
        }
    }

    #[test]
    fn a_lone_block_whose_bound_exceeds_what_another_scope_left_is_refused() {
        // 300 bytes set aside for a scope outside the pipeline (the
        // compressed Schur accumulator's growth allowance) and 100 admitted:
        // a lone block asking for more than the 600 left is refused, though
        // the live count alone would suggest 900; asking for the 600 is
        // granted.
        for workers in [1, 4] {
            let tracker = MemTracker::with_budget(1_000);
            let outside = MemTracker::scoped(&tracker, 300, "accumulator").unwrap();
            let ask = |bound| {
                with_workers(workers, || {
                    run(&tracker, (2, 1, 100), |_, slot| {
                        slot.finalize(bound, "callee working set")?;
                        assert_eq!(slot.tracker().budget(), bound);
                        Ok(())
                    })
                })
            };
            match ask(601).unwrap_err() {
                Error::OutOfMemory {
                    requested, what, ..
                } => assert_eq!((requested, what), (601, "callee working set")),
                e => panic!("expected the finalize's out-of-memory error, got {e}"),
            }
            assert_eq!(ask(600).unwrap(), [0, 1]);
            drop(outside);
            assert_eq!(tracker.available(), 1_000);
        }
    }

    #[test]
    fn an_error_while_a_block_waits_in_finalize_drains_the_pipeline() {
        let boom = || Error::InvalidConfig("block 0 failed".into());
        for workers in [1, 4] {
            let tracker = MemTracker::with_budget(100);
            let waiting = AtomicBool::new(false);
            let result = with_workers(workers, || {
                run(&tracker, (3, 3, 10), |seq, slot| {
                    if seq > 0 {
                        waiting.store(true, Ordering::SeqCst);
                    }
                    // Block 1's 75 cannot fit beside block 0's, and block 0
                    // never releases: only its error ends the wait.
                    slot.finalize(75, "callee working set")?;
                    // Block 0 fails once block 1 sits in that wait — which
                    // only a second worker can get it to.
                    for _ in 0..100 {
                        if waiting.load(Ordering::SeqCst) {
                            pause(10);
                            break;
                        }
                        pause(2);
                    }
                    Err(boom())
                })
            });
            assert_eq!(result.unwrap_err(), boom(), "{workers} workers");
            assert!(tracker.charge(100, "everything is back").is_ok());
        }
    }

    #[test]
    fn a_block_is_admitted_only_once_every_lower_block_is_final() {
        for workers in [1, 4] {
            let tracker = MemTracker::unbounded();
            // Blocks about to pass the ticket on (counted *before* they do).
            let finals = AtomicUsize::new(0);
            let folded = with_workers(workers, || {
                run(&tracker, (8, 4, 10), |seq, slot| {
                    // Admitted: blocks 0..seq are final, and no higher block
                    // gets here while this one takes its time.
                    assert_eq!(finals.load(Ordering::SeqCst), seq);
                    pause(3);
                    assert_eq!(finals.fetch_add(1, Ordering::SeqCst), seq);
                    slot.finalize(1, "callee working set")?;
                    pause(3);
                    Ok(())
                })
            });
            assert_eq!(folded.unwrap().len(), 8);
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
                |i, slot| {
                    order.lock().push(format!("c{i}"));
                    whole(slot)
                },
                |i, (), ()| {
                    order.lock().push(format!("m{i}"));
                    Ok(())
                },
            )
        })
        .unwrap();
        // A worker folds its block before it takes the next, so one worker
        // reproduces the sequential loop exactly.
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
                    |_, slot| {
                        whole(slot)?;
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
        // One block in flight: a helper worker could only ever wait for its
        // fold turn holding a permit, so none is spawned and the caller runs
        // everything.
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
                    |i, slot| {
                        whole(slot)?;
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
        // With two workers and lookahead 2, the second worker computes
        // block 1 from the start while block 0's fold runs later: block 1's
        // first task_run span must open before block 0's second one closes.
        // Permit contention from concurrently running tests can serialize a
        // round; retry a few times.
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
                    |_, slot| {
                        whole(slot)?;
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
            // Per block: task_run spans in order (compute, fold).
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
            assert_eq!(b0.len(), 2, "block 0 must run compute + fold");
            assert_eq!(b1.len(), 2, "block 1 must run compute + fold");
            let compute1_open = b1[0].0;
            let fold0_close = b0[1].1;
            if compute1_open < fold0_close {
                return; // overlap observed
            }
            assert!(attempt < 9, "no compute/fold overlap in 10 attempts");
        }
    }
}
