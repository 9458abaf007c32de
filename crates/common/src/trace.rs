//! Span-based tracing: the observability substrate of the solver stack.
//!
//! The reproduced paper's entire evaluation is per-phase time/memory
//! breakdowns of the blockwise Schur pipelines. A flat phase timer cannot
//! show *where inside a block's lifetime* time goes — sparse solve vs. SpMM
//! vs. admission wait vs. ordered-commit stall — which is exactly the
//! contention data needed to tune `n_c`/`n_S`/`num_threads`. This
//! module records that data as typed spans and events:
//!
//! * a [`Tracer`] is a cheap, clonable handle, **disabled by default**
//!   ([`Tracer::disabled`] is a null pointer-sized no-op: every recording
//!   call short-circuits on one `Option` check, no clock is read);
//! * an enabled tracer owns a [`TraceSink`] — a shared buffer of
//!   [`TraceRecord`]s behind one mutex, locked only once per *completed*
//!   span (spans are coarse: per pipeline block phase, not per kernel);
//! * every record belongs to a [`TraceScope`]: `Run` for the sequential
//!   driver phases, `Block(seq)` for work attributed to pipeline block
//!   `seq`. Spans are typed ([`SpanKind`]) and carry wall-clock interval,
//!   bytes and analytic flops; events ([`TraceEventKind`]) carry scheduler
//!   and memory diagnostics.
//!
//! # Deterministic ordering
//!
//! [`Tracer::drain`] returns records in *canonical order*: all `Run`-scope
//! records first, then `Block` records grouped by block index, each group in
//! record order. Within a scope the record order is deterministic by
//! construction — `Run` records are only written from deterministic points
//! (the sequential driver code and the ordered-commit section, which is
//! serialized in block order), and each block's records are written by the
//! single worker computing that block, in program order. The canonical
//! sequence of `(scope, kind)` pairs is therefore **identical for any
//! thread count**, making traces diffable across 1/2/4-thread runs; only
//! timestamps, durations and the thread ids differ. The exceptions are
//! pressure/failure diagnostics ([`TraceEventKind::BudgetDegrade`],
//! [`TraceEventKind::Poisoned`]), which appear only when the scheduler
//! actually degrades or fails.
//!
//! # Serialization
//!
//! [`to_jsonl`] renders a drained trace as versioned JSON Lines (one header
//! line, one object per record); the [`crate::json`] module parses it back
//! for validation. Aggregated reporting on top of a trace lives in the
//! coupled-solver crate (`RunReport`).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::json::{json_fields, JsonWriter};

/// Version stamp of the JSONL trace format (the `"v"` field of the header).
pub const TRACE_FORMAT_VERSION: u32 = 4;

/// What a span measures. The names returned by [`SpanKind::name`] are a
/// stable, machine-readable contract (reports and the CI trace smoke check
/// key on them).
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// The eliminated block's elimination structure: fill-reducing
    /// ordering, elimination tree, postorder, column counts, fundamental
    /// supernodes. One per ordering computed.
    SparseOrdering,
    /// Sparse symbolic analysis of one matrix on an elimination structure:
    /// final permutation, supernode row structures, amalgamation.
    SparseAnalyze,
    /// Frontal assembly + partial factorization loop of the sparse solver.
    SparseFrontFactor,
    /// A complete sparse factorization call (`factorize`).
    SparseFactorization,
    /// A factorization+Schur call on a stacked matrix (`factorize_schur`).
    SparseFactorizationSchur,
    /// A sparse triangular solve (dense or sparse right-hand side).
    SparseSolve,
    /// Sparse-matrix × dense-panel product (`Z = A_sv · Y`).
    Spmm,
    /// Assembly of a stacked coupled matrix `W`.
    AssembleW,
    /// Initialization of the Schur accumulator with `A_ss`.
    SchurInit,
    /// Low-rank compression work (BLR panel or compressed-AXPY compression).
    Compress,
    /// Folding one block contribution into the Schur accumulator.
    AxpyCommit,
    /// Time a pipeline block waited for budget-aware admission.
    AdmitWait,
    /// Time a computed block waited for its ordered-commit turn.
    CommitWait,
    /// Factorization of the (dense or compressed) Schur complement.
    DenseFactorization,
    /// Triangular solves against the factored Schur complement.
    DenseSolve,
    /// Hierarchical LU factorization (the compressed backend's factor step).
    HluFactor,
    /// The condensation solve through a partial sparse factorization.
    CoupledSolve,
    /// One of a pipeline block's two runs on the worker that owns it: the
    /// compute (admission included), then the fold into the accumulator
    /// (the slot's release included). Each block records exactly two
    /// `task_run` spans, so the per-block record stream stays identical
    /// across thread counts.
    TaskRun,
}

impl SpanKind {
    /// Stable snake_case identifier used in the JSONL trace and reports.
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::SparseOrdering => "sparse_ordering",
            SpanKind::SparseAnalyze => "sparse_analyze",
            SpanKind::SparseFrontFactor => "sparse_front_factor",
            SpanKind::SparseFactorization => "sparse_factorization",
            SpanKind::SparseFactorizationSchur => "sparse_factorization_schur",
            SpanKind::SparseSolve => "sparse_solve",
            SpanKind::Spmm => "spmm",
            SpanKind::AssembleW => "assemble_w",
            SpanKind::SchurInit => "schur_init",
            SpanKind::Compress => "compress",
            SpanKind::AxpyCommit => "axpy_commit",
            SpanKind::AdmitWait => "admit_wait",
            SpanKind::CommitWait => "commit_wait",
            SpanKind::DenseFactorization => "dense_factorization",
            SpanKind::DenseSolve => "dense_solve",
            SpanKind::HluFactor => "hlu_factor",
            SpanKind::CoupledSolve => "coupled_solve",
            SpanKind::TaskRun => "task_run",
        }
    }
}

/// Point events: scheduler and memory diagnostics that are not intervals.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// The budget scheduler shrank its concurrency cap under memory
    /// pressure. Appears only on runs that actually hit the budget, so its
    /// presence is *not* part of the cross-thread-count ordering guarantee.
    BudgetDegrade {
        /// The new (smaller) in-flight block cap.
        cap: usize,
    },
    /// The pipeline was poisoned with an error; blocked workers drained.
    /// Failure-only — not part of the ordering guarantee.
    Poisoned,
    /// A sample of the memory tracker taken at a deterministic phase
    /// boundary of the driver.
    MemHighWater {
        /// Live tracked bytes at the sample point.
        live: usize,
        /// Peak tracked bytes so far.
        peak: usize,
    },
    /// The block autotuner chose a blocking for this run. Emitted once per
    /// run from the sequential driver (deterministic: part of the ordering
    /// guarantee when `BlockSizes::Auto` is active).
    AutotuneSelect {
        /// Selected multi-solve inner panel width `n_c` (0 when the
        /// algorithm does not use it).
        n_c: usize,
        /// Selected multi-solve outer panel width `n_S` (0 when unused).
        n_s: usize,
        /// Selected multi-factorization grid dimension `n_b` (0 when
        /// unused).
        n_b: usize,
        /// The cost model's predicted peak working-set bytes for the
        /// selected blocking.
        predicted_bytes: usize,
    },
    /// One supernodal front's off-diagonal factor panels were stored in
    /// BLR-compressed form by the sparse solver. Emitted by the factorizing
    /// thread in supernode postorder, so for a given factorization the event
    /// stream is identical at any thread count (part of the ordering
    /// guarantee).
    FrontCompress {
        /// Supernode index in postorder.
        front: usize,
        /// Bytes the compressed panels would occupy dense.
        dense_bytes: usize,
        /// Bytes the low-rank factors actually occupy.
        stored_bytes: usize,
        /// Largest numerical rank over the front's compressed panels.
        max_rank: usize,
    },
    /// A session cache lookup found a resident factorization for the
    /// request's fingerprint. Emitted from the session's submitting thread,
    /// so for a fixed request sequence the event stream is identical at any
    /// solver thread count (part of the ordering guarantee).
    SessionCacheHit {
        /// The matrix fingerprint hash (seeded, data-derived — stable
        /// across runs and thread counts).
        fingerprint: u64,
    },
    /// A session cache lookup missed and a factorization was built (or
    /// rebuilt after eviction). Same determinism contract as
    /// [`TraceEventKind::SessionCacheHit`].
    SessionCacheMiss {
        /// The matrix fingerprint hash.
        fingerprint: u64,
    },
    /// The session evicted a least-recently-used cache entry to make room
    /// under its memory budget. Emitted from the evicting (submitting)
    /// thread in deterministic LRU order for a fixed request sequence.
    SessionEvict {
        /// Fingerprint hash of the evicted entry.
        fingerprint: u64,
        /// Bytes the entry's factors accounted for.
        bytes: usize,
    },
    /// The session solved one coalesced right-hand-side panel. `width` is
    /// the panel width actually achieved after any budget degradation.
    SessionBatch {
        /// Columns in the solved panel.
        width: usize,
        /// Individually-submitted requests demuxed from the panel.
        requests: usize,
    },
}

impl TraceEventKind {
    /// Stable snake_case identifier used in the JSONL trace.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::BudgetDegrade { .. } => "budget_degrade",
            TraceEventKind::Poisoned => "poisoned",
            TraceEventKind::MemHighWater { .. } => "mem_high_water",
            TraceEventKind::AutotuneSelect { .. } => "autotune_select",
            TraceEventKind::FrontCompress { .. } => "front_compress",
            TraceEventKind::SessionCacheHit { .. } => "session_cache_hit",
            TraceEventKind::SessionCacheMiss { .. } => "session_cache_miss",
            TraceEventKind::SessionEvict { .. } => "session_evict",
            TraceEventKind::SessionBatch { .. } => "session_batch",
        }
    }
}

/// Which part of a run a record is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceScope {
    /// The sequential driver (setup, factorizations, solution phases).
    Run,
    /// Pipeline block `seq` (a multi-solve Schur panel or a
    /// multi-factorization tile).
    Block(usize),
}

/// One recorded span or event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Scope the record is attributed to.
    pub scope: TraceScope,
    /// What was recorded.
    pub payload: TracePayload,
    /// OS thread that recorded it (diagnostic only: excluded from the
    /// canonical ordering contract).
    pub thread: u64,
}

/// Payload of a [`TraceRecord`].
#[derive(Debug, Clone, PartialEq)]
pub enum TracePayload {
    /// A measured interval.
    Span {
        /// Type of work measured.
        kind: SpanKind,
        /// Start, in nanoseconds since the sink was created.
        start_ns: u64,
        /// Duration in nanoseconds.
        dur_ns: u64,
        /// Bytes produced/processed in the span (0 when not meaningful).
        bytes: usize,
        /// Analytic flops attributed to the span (0 when no closed form).
        flops: u64,
    },
    /// A point event.
    Event {
        /// Type of event.
        kind: TraceEventKind,
        /// Timestamp, in nanoseconds since the sink was created.
        at_ns: u64,
    },
}

impl TracePayload {
    /// Stable identifier of the span or event kind.
    pub fn kind_name(&self) -> &'static str {
        match self {
            TracePayload::Span { kind, .. } => kind.name(),
            TracePayload::Event { kind, .. } => kind.name(),
        }
    }

    /// `true` for interval payloads.
    pub fn is_span(&self) -> bool {
        matches!(self, TracePayload::Span { .. })
    }
}

/// The shared record buffer of an enabled tracer.
#[derive(Debug)]
pub struct TraceSink {
    origin: Instant,
    records: Mutex<Vec<TraceRecord>>,
}

impl TraceSink {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&self, scope: TraceScope, payload: TracePayload) {
        self.records.lock().push(TraceRecord {
            scope,
            payload,
            thread: current_thread_id(),
        });
    }
}

/// A stable-per-thread numeric id (diagnostic only).
fn current_thread_id() -> u64 {
    thread_local! {
        static ID: Cell<u64> = const { Cell::new(0) };
    }
    static NEXT: AtomicU64 = AtomicU64::new(1);
    ID.with(|c| {
        if c.get() == 0 {
            c.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        c.get()
    })
}

/// Cheap, clonable handle to a trace sink; disabled by default.
///
/// All recording goes through a [`ScopeTracer`] obtained from
/// [`Tracer::run`] or [`Tracer::block`]. Cloning shares the sink, so a
/// caller can keep one clone to [`Tracer::drain`] after handing another to
/// the solver configuration.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<TraceSink>>,
}

impl Tracer {
    /// A no-op tracer: every recording call is a branch on `None`.
    pub fn disabled() -> Self {
        Self { sink: None }
    }

    /// A recording tracer with a fresh sink; `t = 0` is the moment of this
    /// call.
    pub fn enabled() -> Self {
        Self {
            sink: Some(Arc::new(TraceSink {
                origin: Instant::now(),
                records: Mutex::new(Vec::new()),
            })),
        }
    }

    /// `true` when records are actually collected.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Recorder attributed to the sequential driver.
    pub fn run(&self) -> ScopeTracer<'_> {
        self.scope(TraceScope::Run)
    }

    /// Recorder attributed to pipeline block `seq`.
    pub fn block(&self, seq: usize) -> ScopeTracer<'_> {
        self.scope(TraceScope::Block(seq))
    }

    /// Recorder for an explicit scope.
    pub fn scope(&self, scope: TraceScope) -> ScopeTracer<'_> {
        ScopeTracer {
            sink: self.sink.as_deref(),
            scope,
        }
    }

    /// A tracer for work that runs beside this one's recording thread:
    /// enabled when this one is, on the same clock, into a buffer of its
    /// own. [`Tracer::adopt`] moves its records here, so their place in the
    /// canonical order is what it would be had the work run after everything
    /// recorded here meanwhile.
    pub fn fork(&self) -> Tracer {
        Tracer {
            sink: self.sink.as_ref().map(|s| {
                Arc::new(TraceSink {
                    origin: s.origin,
                    records: Mutex::new(Vec::new()),
                })
            }),
        }
    }

    /// Append the records of `side`, a [`Tracer::fork`] of this tracer, in
    /// their record order, emptying it.
    pub fn adopt(&self, side: &Tracer) {
        if let (Some(mine), Some(theirs)) = (&self.sink, &side.sink) {
            let records = std::mem::take(&mut *theirs.records.lock());
            mine.records.lock().extend(records);
        }
    }

    /// Number of records collected so far.
    pub fn len(&self) -> usize {
        self.sink.as_ref().map_or(0, |s| s.records.lock().len())
    }

    /// `true` when no records have been collected (or tracing is disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain all records in canonical order: `Run` scope first, then blocks
    /// by index, preserving record order within each scope (see the module
    /// docs for why this is deterministic across thread counts).
    pub fn drain(&self) -> Vec<TraceRecord> {
        let Some(sink) = &self.sink else {
            return Vec::new();
        };
        let mut records = std::mem::take(&mut *sink.records.lock());
        records.sort_by_key(|r| r.scope);
        records
    }
}

/// Recorder bound to one [`TraceScope`]. Copyable and pointer-sized; a
/// disabled one ([`ScopeTracer::disabled`]) never reads the clock.
#[derive(Debug, Clone, Copy)]
pub struct ScopeTracer<'a> {
    sink: Option<&'a TraceSink>,
    scope: TraceScope,
}

impl<'a> ScopeTracer<'a> {
    /// A recorder that drops everything (for default arguments).
    pub fn disabled() -> ScopeTracer<'static> {
        ScopeTracer {
            sink: None,
            scope: TraceScope::Run,
        }
    }

    /// `true` when records are actually collected.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Start a span; it records itself when dropped (or via
    /// [`Span::finish`]).
    pub fn span(&self, kind: SpanKind) -> Span<'a> {
        Span {
            sink: self.sink,
            scope: self.scope,
            kind,
            start: self.sink.map(|s| (s.now_ns(), Instant::now())),
            bytes: 0,
            flops: 0,
        }
    }

    /// Time a closure under a span of the given kind.
    pub fn time<T>(&self, kind: SpanKind, f: impl FnOnce() -> T) -> T {
        let _span = self.span(kind);
        f()
    }

    /// Record an already-measured duration as a span ending now (used for
    /// aggregated sub-phase accounting, e.g. total BLR compression time of
    /// one factorization).
    pub fn record_span(&self, kind: SpanKind, dur: Duration, bytes: usize, flops: u64) {
        let Some(sink) = self.sink else { return };
        let dur_ns = dur.as_nanos() as u64;
        let now = sink.now_ns();
        sink.push(
            self.scope,
            TracePayload::Span {
                kind,
                start_ns: now.saturating_sub(dur_ns),
                dur_ns,
                bytes,
                flops,
            },
        );
    }

    /// Record a point event.
    pub fn event(&self, kind: TraceEventKind) {
        let Some(sink) = self.sink else { return };
        let at_ns = sink.now_ns();
        sink.push(self.scope, TracePayload::Event { kind, at_ns });
    }
}

/// An open span; records into the sink when dropped.
#[derive(Debug)]
pub struct Span<'a> {
    sink: Option<&'a TraceSink>,
    scope: TraceScope,
    kind: SpanKind,
    start: Option<(u64, Instant)>,
    bytes: usize,
    flops: u64,
}

impl Span<'_> {
    /// Attribute `n` more bytes to this span.
    pub fn add_bytes(&mut self, n: usize) {
        self.bytes += n;
    }

    /// Attribute `n` more analytic flops to this span.
    pub fn add_flops(&mut self, n: u64) {
        self.flops += n;
    }

    /// End the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let (Some(sink), Some((start_ns, started))) = (self.sink, self.start) else {
            return;
        };
        sink.push(
            self.scope,
            TracePayload::Span {
                kind: self.kind,
                start_ns,
                dur_ns: started.elapsed().as_nanos() as u64,
                bytes: self.bytes,
                flops: self.flops,
            },
        );
    }
}

impl TraceRecord {
    /// One-line JSON rendering (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::compact();
        let cat = match self.payload {
            TracePayload::Span { .. } => "span",
            TracePayload::Event { .. } => "event",
        };
        w.begin_object().field("cat", cat);
        w.field("kind", self.payload.kind_name());
        match self.scope {
            TraceScope::Run => w.field("scope", "run"),
            TraceScope::Block(seq) => w.field("scope", "block").field("seq", seq),
        };
        match &self.payload {
            TracePayload::Span {
                start_ns,
                dur_ns,
                bytes,
                flops,
                ..
            } => {
                w.field("t_ns", start_ns);
                json_fields!(w, dur_ns, bytes, flops);
            }
            TracePayload::Event { kind, at_ns } => {
                w.field("t_ns", at_ns);
                match kind {
                    TraceEventKind::BudgetDegrade { cap } => json_fields!(w, cap),
                    TraceEventKind::Poisoned => {}
                    TraceEventKind::MemHighWater { live, peak } => json_fields!(w, live, peak),
                    TraceEventKind::AutotuneSelect {
                        n_c,
                        n_s,
                        n_b,
                        predicted_bytes,
                    } => json_fields!(w, n_c, n_s, n_b, predicted_bytes),
                    TraceEventKind::FrontCompress {
                        front,
                        dense_bytes,
                        stored_bytes,
                        max_rank,
                    } => json_fields!(w, front, dense_bytes, stored_bytes, max_rank),
                    TraceEventKind::SessionCacheHit { fingerprint }
                    | TraceEventKind::SessionCacheMiss { fingerprint } => {
                        json_fields!(w, fingerprint)
                    }
                    TraceEventKind::SessionEvict { fingerprint, bytes } => {
                        json_fields!(w, fingerprint, bytes)
                    }
                    TraceEventKind::SessionBatch { width, requests } => {
                        json_fields!(w, width, requests)
                    }
                }
            }
        }
        w.field("thread", self.thread).end_object();
        w.finish()
    }
}

/// Render a drained trace as JSON Lines: a versioned header object followed
/// by one object per record (canonical order is the caller's responsibility
/// — [`Tracer::drain`] already provides it).
pub fn to_jsonl(records: &[TraceRecord]) -> String {
    let mut header = JsonWriter::compact();
    header
        .begin_object()
        .field("type", "csolve_trace")
        .field("v", TRACE_FORMAT_VERSION)
        .field("records", records.len())
        .end_object();
    let mut out = header.finish();
    out.push('\n');
    for r in records {
        out.push_str(&r.to_json());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        {
            let mut sp = t.run().span(SpanKind::Spmm);
            sp.add_bytes(10);
        }
        t.block(3).event(TraceEventKind::Poisoned);
        assert!(t.is_empty());
        assert!(t.drain().is_empty());
    }

    #[test]
    fn spans_and_events_are_recorded_with_payload() {
        let t = Tracer::enabled();
        {
            let mut sp = t.block(1).span(SpanKind::SparseSolve);
            sp.add_bytes(4096);
            sp.add_flops(1000);
        }
        t.run()
            .event(TraceEventKind::MemHighWater { live: 10, peak: 20 });
        let records = t.drain();
        assert_eq!(records.len(), 2);
        // Canonical order: run scope first.
        assert_eq!(records[0].scope, TraceScope::Run);
        assert!(!records[0].payload.is_span());
        assert_eq!(records[1].scope, TraceScope::Block(1));
        match &records[1].payload {
            TracePayload::Span {
                kind, bytes, flops, ..
            } => {
                assert_eq!(*kind, SpanKind::SparseSolve);
                assert_eq!(*bytes, 4096);
                assert_eq!(*flops, 1000);
            }
            other => panic!("expected span, got {other:?}"),
        }
        // Drain empties the sink.
        assert!(t.drain().is_empty());
    }

    #[test]
    fn canonical_order_sorts_blocks_and_preserves_in_scope_order() {
        let t = Tracer::enabled();
        t.block(2).time(SpanKind::Spmm, || {});
        t.block(0).time(SpanKind::SparseSolve, || {});
        t.block(0).time(SpanKind::Spmm, || {});
        t.run().time(SpanKind::DenseFactorization, || {});
        let recs = t.drain();
        let key: Vec<(TraceScope, &str)> = recs
            .iter()
            .map(|r| (r.scope, r.payload.kind_name()))
            .collect();
        assert_eq!(
            key,
            vec![
                (TraceScope::Run, "dense_factorization"),
                (TraceScope::Block(0), "sparse_solve"),
                (TraceScope::Block(0), "spmm"),
                (TraceScope::Block(2), "spmm"),
            ]
        );
    }

    #[test]
    fn record_span_backdates_the_start() {
        let t = Tracer::enabled();
        t.run()
            .record_span(SpanKind::Compress, Duration::from_millis(5), 100, 200);
        let recs = t.drain();
        match &recs[0].payload {
            TracePayload::Span {
                start_ns, dur_ns, ..
            } => {
                assert!(*dur_ns >= 5_000_000);
                // start + dur ≈ now (within a generous bound).
                assert!(*start_ns < 10_000_000_000, "start {start_ns}");
            }
            other => panic!("expected span, got {other:?}"),
        }
    }

    #[test]
    fn jsonl_has_header_and_one_line_per_record() {
        let t = Tracer::enabled();
        t.run().time(SpanKind::SchurInit, || {});
        t.block(0).event(TraceEventKind::BudgetDegrade { cap: 2 });
        let records = t.drain();
        let text = to_jsonl(&records);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"csolve_trace\""));
        assert!(lines[0].contains(&format!("\"v\":{TRACE_FORMAT_VERSION}")));
        assert!(lines[1].contains("\"kind\":\"schur_init\""));
        assert!(lines[2].contains("\"kind\":\"budget_degrade\""));
        assert!(lines[2].contains("\"seq\":0"));
        assert!(lines[2].contains("\"cap\":2"));
    }

    #[test]
    fn clones_share_the_sink() {
        let t = Tracer::enabled();
        let t2 = t.clone();
        t2.run().time(SpanKind::Spmm, || {});
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(SpanKind::AdmitWait.name(), "admit_wait");
        assert_eq!(SpanKind::CommitWait.name(), "commit_wait");
        assert_eq!(SpanKind::AxpyCommit.name(), "axpy_commit");
        assert_eq!(SpanKind::TaskRun.name(), "task_run");
        assert_eq!(
            TraceEventKind::MemHighWater { live: 0, peak: 0 }.name(),
            "mem_high_water"
        );
        assert_eq!(
            TraceEventKind::FrontCompress {
                front: 0,
                dense_bytes: 0,
                stored_bytes: 0,
                max_rank: 0
            }
            .name(),
            "front_compress"
        );
        assert_eq!(
            TraceEventKind::SessionCacheHit { fingerprint: 0 }.name(),
            "session_cache_hit"
        );
        assert_eq!(
            TraceEventKind::SessionCacheMiss { fingerprint: 0 }.name(),
            "session_cache_miss"
        );
        assert_eq!(
            TraceEventKind::SessionEvict {
                fingerprint: 0,
                bytes: 0
            }
            .name(),
            "session_evict"
        );
        assert_eq!(
            TraceEventKind::SessionBatch {
                width: 1,
                requests: 1
            }
            .name(),
            "session_batch"
        );
    }
}
