//! The solution driver: one factor-then-solve path over the four
//! Schur-complement strategies of the paper.
//!
//! Every coupling does the same two things. First it builds the reusable
//! factors (`SessionFactors`: `A_vv` — or the stacked `W` — factored, plus
//! the factored Schur complement `S`); then it pushes right-hand sides
//! through them (`SessionFactors::solve_panel`, paper equations (7)).
//! [`solve`] is exactly that at panel width 1; the session layer keeps the
//! factors and repeats the second step.
//!
//! The blockwise strategies (multi-solve §IV-A, multi-factorization §IV-B)
//! are one loop with two block kernels: `assemble_blockwise` runs the kernel
//! over the block list through the crate's pipeline skeleton — each block is
//! admitted against the memory budget, computed on whichever worker is free,
//! and folded into `S` in block order — so results are bitwise-identical for
//! every thread count, and peak tracked memory never exceeds the configured
//! budget (concurrency degrades instead).
//!
//! Every phase is measured once, by the `Recorder`: opening a `Phase` returns
//! a guard, and the guard's drop is both that phase's `Metrics` row and — for
//! the phases whose span the driver owns — its trace span.

use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::autotune::{self, AutotuneDecision, BlockSizes, MatrixStats};
use crate::config::{Algorithm, Metrics, SolverConfig, SparseCompressionSummary};
use crate::pipeline::{run_blockwise, Slot};
use crate::schur::{SchurAcc, SchurFactor};
use csolve_common::{
    ByteSized, Error, MemTracker, Result, Scalar, ScopeTracer, SpanKind, TraceEventKind,
    TraceScope, Tracer,
};
use csolve_dense::{Mat, MatMut, MatRef};
use csolve_fembem::{BemOperator, CoupledProblem};
use csolve_hmat::ClusterTree;
use csolve_sparse::{
    factorize, factorize_analyzed, schur_complement_analyzed, Coo, Csc, FactorStats,
    SparseFactorization, SparseOptions, SymbolicFactorization, Symmetry,
};

/// Result of a coupled solve.
#[derive(Debug)]
pub struct Outcome<T> {
    /// Volume solution (original ordering).
    pub xv: Vec<T>,
    /// Surface solution (original ordering).
    pub xs: Vec<T>,
    /// Wall-clock, phase and memory measurements of the run.
    pub metrics: Metrics,
}

/// Everything one factorization run works on: the problem's blocks with the
/// surface unknowns in cluster order, and the run's configuration, memory
/// tracker and phase recorder.
struct Ws<'a, T: Scalar> {
    cfg: &'a SolverConfig,
    tracker: &'a Arc<MemTracker>,
    rec: &'a Recorder,
    a_vv: &'a Csc<T>,
    a_sv: Csc<T>,
    a_vs: Csc<T>,
    bem: BemOperator<T>,
    tree: ClusterTree,
    symmetric: bool,
    /// Accumulated BLR statistics of every sparse factorization of the run
    /// that keeps its factors — `A_vv`, or the advanced coupling's `W`;
    /// multi-factorization's tiles keep none, so compress none. Read out
    /// into [`Metrics::sparse_compression`] at the end.
    blr: Mutex<SparseCompressionSummary>,
}

impl<'a, T: Scalar> Ws<'a, T> {
    /// Surface unknowns go to cluster order once; every blockwise Schur range
    /// is then contiguous for both dense and H-matrix backends.
    fn new(
        problem: &'a CoupledProblem<T>,
        cfg: &'a SolverConfig,
        tracker: &'a Arc<MemTracker>,
        rec: &'a Recorder,
    ) -> Self {
        let tree = ClusterTree::build(&problem.bem.points, cfg.hmat_leaf);
        let all_v: Vec<usize> = (0..problem.n_fem()).collect();
        Ws {
            cfg,
            tracker,
            rec,
            a_vv: &problem.a_vv,
            a_sv: problem.a_sv.submatrix(&tree.perm, &all_v),
            a_vs: problem.a_vs.submatrix(&all_v, &tree.perm),
            bem: problem.bem.permuted(&tree.perm),
            tree,
            symmetric: problem.symmetric,
            blr: Mutex::new(SparseCompressionSummary::default()),
        }
    }

    fn nv(&self) -> usize {
        self.a_vv.nrows
    }

    fn ns(&self) -> usize {
        self.bem.n()
    }

    fn stats(&self) -> MatrixStats {
        MatrixStats {
            nv: self.nv(),
            ns: self.ns(),
            nnz_avv: self.a_vv.nnz(),
            nnz_asv: self.a_sv.nnz(),
            nnz_avs: self.a_vs.nnz(),
            elem: std::mem::size_of::<T>(),
        }
    }

    /// The sparse factorization kind of `A_vv`: the coupled system's.
    fn symmetry(&self) -> Symmetry {
        if self.symmetric {
            Symmetry::SymmetricLdlt
        } else {
            Symmetry::UnsymmetricLu
        }
    }

    fn sparse_opts(&self) -> SparseOptions {
        SparseOptions {
            ordering: self.cfg.ordering,
            symmetry: self.symmetry(),
            blr_eps: self.cfg.effective_sparse_eps(),
            tracker: Some(Arc::clone(self.tracker)),
            panel_nb: self.cfg.dense_panel_nb,
            tracer: self.cfg.tracer.clone(),
            trace_seq: None,
        }
    }

    /// Fold one factorization's BLR statistics into the run aggregate.
    fn note_factor_stats(&self, stats: &FactorStats) {
        let mut agg = self.blr.lock().unwrap_or_else(|e| e.into_inner());
        agg.merge(&SparseCompressionSummary {
            eps: 0.0,
            panels_eligible: stats.panels_eligible,
            panels_compressed: stats.compressed_panels,
            dense_bytes: stats.panel_dense_bytes,
            stored_bytes: stats.panel_stored_bytes,
            max_rank: stats.max_panel_rank,
        });
    }

    /// The plain factorization of `A_vv` the direct solution phase consumes.
    fn factor_avv(&self) -> Result<SparseFactorization<T>> {
        let _ph = self.rec.open(Phase::FactorAvv, TraceScope::Run);
        let fact = factorize(self.a_vv, &self.sparse_opts())?;
        self.note_factor_stats(fact.stats());
        Ok(fact)
    }

    /// `Y = A_vv⁻¹·rhs` for a sparse right-hand side, recorded in `scope`.
    fn solve_y(
        &self,
        fact: &SparseFactorization<T>,
        rhs: &Csc<T>,
        scope: TraceScope,
    ) -> Result<Mat<T>> {
        let mut ph = self.rec.open(Phase::SolveY, scope);
        let y = fact.solve_sparse_rhs(rhs)?;
        ph.add_bytes(y.byte_size());
        Ok(y)
    }

    /// The stacked `W = [A_vv A_vs|_j ; A_sv|_i 0]`, recorded in `scope`.
    fn assemble_w(&self, a_vs_j: &Csc<T>, a_sv_i: &Csc<T>, scope: TraceScope) -> Csc<T> {
        let mut ph = self.rec.open(Phase::AssembleW, scope);
        let w = stack_w(self.a_vv, a_vs_j, a_sv_i);
        ph.add_bytes(w.byte_size());
        w
    }

    /// `Z = A_sv·y`, recorded in `scope`.
    fn spmm(&self, y: MatRef<'_, T>, z: MatMut<'_, T>, scope: TraceScope) {
        let mut ph = self.rec.open(Phase::Spmm, scope);
        ph.add_bytes(z.nrows() * z.ncols() * std::mem::size_of::<T>());
        ph.add_flops(2 * self.a_sv.nnz() as u64 * z.ncols() as u64);
        self.a_sv.mul_dense(T::ONE, y, T::ZERO, z);
    }

    /// The symbolic analysis of a stacked `W` whose trailing unknowns
    /// (beyond `n_v`) are the Schur variables, recorded in `scope`.
    fn analyze_w(&self, w: &Csc<T>, scope: TraceScope) -> Result<SymbolicFactorization> {
        let schur_vars: Vec<usize> = (self.nv()..w.ncols).collect();
        let ph = self.rec.open(Phase::FactorW, scope);
        ph.tracer().time(SpanKind::SparseAnalyze, || {
            SymbolicFactorization::analyze(w, &schur_vars, self.cfg.ordering)
        })
    }

    /// The advanced coupling's factorization+Schur call on the whole
    /// stacked `W`: the factors are kept for the condensation solves.
    fn factor_w(&self, w: &Csc<T>) -> Result<(SparseFactorization<T>, Mat<T>)> {
        let sym = self.analyze_w(w, TraceScope::Run)?;
        let mut ph = self.rec.open(Phase::FactorW, TraceScope::Run);
        let (fact_w, x) = factorize_analyzed(w, sym, &self.sparse_opts())?;
        self.note_factor_stats(fact_w.stats());
        ph.add_bytes(x.byte_size());
        Ok((fact_w, x))
    }

    /// The Schur block of one multi-factorization tile's stacked `W`, `W`
    /// factored in `symmetry` mode and its factors discarded as they are
    /// computed. The tile's `slot` is finalized between analysis and numeric
    /// phase, to the exact peak the analysis predicts for the Schur-only
    /// numeric phase — which then charges the slot's tracker. That wait is
    /// not factorization time.
    fn tile_schur(
        &self,
        w: &Csc<T>,
        seq: usize,
        symmetry: Symmetry,
        slot: &mut Slot<'_>,
    ) -> Result<Mat<T>> {
        let scope = TraceScope::Block(seq);
        let sym = self.analyze_w(w, scope)?;
        let bound = sym.predicted_schur_peak_bytes(std::mem::size_of::<T>());
        slot.finalize(bound, "sparse solver working set")?;
        let opts = SparseOptions {
            symmetry,
            tracker: Some(Arc::clone(slot.tracker())),
            // The sparse solver's internal spans land in the tile's scope.
            trace_seq: Some(seq),
            ..self.sparse_opts()
        };
        let mut ph = self.rec.open(Phase::FactorW, scope);
        let (x, _) = schur_complement_analyzed(w, sym, &opts)?;
        ph.add_bytes(x.byte_size());
        Ok(x)
    }

    /// The Schur accumulator, initialized with `A_ss`.
    fn init_schur(&self) -> Result<SchurAcc<T>> {
        let _ph = self.rec.open(Phase::InitSchur, TraceScope::Run);
        SchurAcc::init_for(
            &self.bem,
            &self.tree,
            self.cfg,
            self.tracker,
            self.symmetric,
        )
    }

    /// `S[r0.., c0..] += alpha·x`, recorded in `scope`.
    fn fold_block(
        &self,
        schur: &mut SchurAcc<T>,
        alpha: T,
        r0: usize,
        c0: usize,
        x: MatRef<'_, T>,
        scope: TraceScope,
    ) -> Result<()> {
        let mut ph = self.rec.open(Phase::FoldBlock, scope);
        schur.axpy_block_traced(alpha, r0, c0, x, self.cfg.eps, ph.tracer())?;
        ph.add_bytes(x.nrows() * x.ncols() * std::mem::size_of::<T>());
        Ok(())
    }

    /// Shared epilogue of every algorithm: factor the accumulated Schur
    /// complement under a `dense_factorization` span (the compressed backend
    /// additionally records its `hlu_factor` span inside). Also returns the
    /// bytes `S` held right before.
    fn factor_schur(&self, schur: SchurAcc<T>) -> Result<(SchurFactor<T>, usize)> {
        let schur_bytes = schur.bytes();
        // Backends without a closed form report 0, which adds no flop row:
        // the metric keys stay stable per backend.
        let flops = schur.factor_flops(self.symmetric);
        mem_sample(self.cfg.tracer.run(), self.tracker);
        let mut ph = self.rec.open(Phase::FactorSchur, TraceScope::Run);
        ph.add_bytes(schur_bytes);
        ph.add_flops(flops);
        let (eps, nb) = (self.cfg.eps, self.cfg.dense_panel_nb);
        let sf = schur.factor_traced(self.symmetric, eps, nb, ph.tracer())?;
        Ok((sf, schur_bytes))
    }
}

/// The sparse factorization is shared by reference across pipeline workers;
/// it must stay immutable-thread-safe. (Compile-time check.)
#[allow(dead_code)]
fn assert_factorization_shareable<T: Scalar>() {
    fn sharable<X: Send + Sync>() {}
    sharable::<SparseFactorization<T>>();
}

/// The worker pool of one solve or session: `cfg.num_threads` threads, or
/// the ambient rayon thread count when that is 0.
pub(crate) fn worker_pool(cfg: &SolverConfig) -> Result<rayon::ThreadPool> {
    let threads = if cfg.num_threads > 0 {
        cfg.num_threads
    } else {
        rayon::current_num_threads()
    };
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads.max(1))
        .build()
        .map_err(|e| Error::InvalidConfig(format!("thread pool construction failed: {e}")))
}

/// RAII token for the dense layer's global kernel counters: enabled for the
/// duration of a traced solve, with the counter delta emitted as one
/// `kernel_counters` event. The `Drop` impl keeps the global enable count
/// balanced on error paths.
struct KernelCounting(Option<csolve_dense::stats::KernelSnapshot>);

impl KernelCounting {
    fn start(tracer: &Tracer) -> Self {
        if tracer.is_enabled() {
            csolve_dense::stats::enable();
            Self(Some(csolve_dense::stats::snapshot()))
        } else {
            Self(None)
        }
    }

    fn finish(mut self, rt: ScopeTracer<'_>) {
        if let Some(before) = self.0.take() {
            let d = csolve_dense::stats::snapshot().delta(&before);
            csolve_dense::stats::disable();
            rt.event(TraceEventKind::KernelCounters {
                packed_calls: d.packed_calls,
                small_calls: d.small_calls,
                matvec_calls: d.matvec_calls,
                flops: d.flops,
                ns: d.ns,
            });
        }
    }
}

impl Drop for KernelCounting {
    fn drop(&mut self) {
        if self.0.take().is_some() {
            csolve_dense::stats::disable();
        }
    }
}

/// Sample the memory tracker into the trace at a deterministic phase
/// boundary (main-thread call sites only, to keep run-scope record order
/// thread-count independent).
fn mem_sample(rt: ScopeTracer<'_>, tracker: &MemTracker) {
    rt.event(TraceEventKind::MemHighWater {
        live: tracker.live(),
        peak: tracker.peak(),
    });
}

/// The phases a run is broken into. This is the one place that spells a
/// [`Metrics`] phase label, next to the span kind the driver records for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    FactorAvv,
    FactorW,
    InitSchur,
    SolveY,
    SolveRhs,
    SolveBack,
    Spmm,
    FoldBlock,
    FactorSchur,
    AssembleW,
    DenseSolve,
    CoupledSolve,
}

impl Phase {
    /// The phase's `Metrics` label and span kind. The two sparse
    /// factorizations have no driver span: csolve-sparse records those
    /// calls' `sparse_factorization[_schur]` spans itself.
    fn row(self) -> (&'static str, Option<SpanKind>) {
        match self {
            Phase::FactorAvv => ("sparse factorization", None),
            Phase::FactorW => ("sparse factorization+Schur", None),
            Phase::InitSchur => ("Schur init (A_ss)", Some(SpanKind::SchurInit)),
            Phase::SolveY => ("sparse solve (Y)", Some(SpanKind::SparseSolve)),
            Phase::SolveRhs => ("sparse solve (rhs)", Some(SpanKind::SparseSolve)),
            Phase::SolveBack => ("sparse solve (back)", Some(SpanKind::SparseSolve)),
            Phase::Spmm => ("SpMM", Some(SpanKind::Spmm)),
            Phase::FoldBlock => ("Schur assembly", Some(SpanKind::AxpyCommit)),
            Phase::FactorSchur => ("dense factorization", Some(SpanKind::DenseFactorization)),
            Phase::AssembleW => ("assemble W", Some(SpanKind::AssembleW)),
            Phase::DenseSolve => ("dense solve", Some(SpanKind::DenseSolve)),
            Phase::CoupledSolve => ("coupled solve", Some(SpanKind::CoupledSolve)),
        }
    }
}

/// What a phase cost: one guard's measurement, or a phase's total over every
/// guard that closed on it — across worker threads too, so a parallel
/// phase's time is CPU-time-like and can exceed the run's wall clock.
#[derive(Clone, Copy)]
struct PhaseCost {
    phase: Phase,
    time: Duration,
    bytes: usize,
    flops: u64,
}

/// The phase recorder: every driver phase is measured once, by a
/// [`PhaseGuard`], and that one measurement is both the phase's [`Metrics`]
/// row and (tracer enabled, phase has a span kind) its trace span.
pub(crate) struct Recorder {
    tracer: Tracer,
    /// Per-phase totals in first-use order.
    totals: parking_lot::Mutex<Vec<PhaseCost>>,
}

impl Recorder {
    pub(crate) fn new(tracer: &Tracer) -> Self {
        Recorder {
            tracer: tracer.clone(),
            totals: Default::default(),
        }
    }

    /// Start measuring `phase` in `scope`; the returned guard records it
    /// when dropped.
    fn open(&self, phase: Phase, scope: TraceScope) -> PhaseGuard<'_> {
        PhaseGuard {
            rec: self,
            scope,
            started: Instant::now(),
            cost: PhaseCost {
                phase,
                time: Duration::ZERO,
                bytes: 0,
                flops: 0,
            },
        }
    }
}

/// An open phase. Dropping it reads the clock once and puts the same `(time,
/// bytes, flops)` into the recorder's totals and into the phase's span.
struct PhaseGuard<'a> {
    rec: &'a Recorder,
    scope: TraceScope,
    started: Instant,
    cost: PhaseCost,
}

impl PhaseGuard<'_> {
    /// Attribute `n` more bytes produced/processed to the phase.
    fn add_bytes(&mut self, n: usize) {
        self.cost.bytes += n;
    }

    /// Attribute `n` more analytic flops — derived from the problem shapes
    /// at the call site, so thread-count invariant — to the phase.
    fn add_flops(&mut self, n: u64) {
        self.cost.flops += n;
    }

    /// The tracer of the phase's scope, for the spans of the layer called
    /// inside the phase.
    fn tracer(&self) -> ScopeTracer<'_> {
        self.rec.tracer.scope(self.scope)
    }
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        let c = PhaseCost {
            time: self.started.elapsed(),
            ..self.cost
        };
        {
            let mut totals = self.rec.totals.lock();
            match totals.iter_mut().find(|t| t.phase == c.phase) {
                Some(t) => {
                    t.time += c.time;
                    t.bytes += c.bytes;
                    t.flops += c.flops;
                }
                None => totals.push(c),
            }
        }
        if let Some(kind) = c.phase.row().1 {
            self.tracer().record_span(kind, c.time, c.bytes, c.flops);
        }
    }
}

/// Phase recorder, wall clock and kernel-counter token of one run: a session
/// factorization, or a one-shot solve (factorization plus solution phase).
struct Run {
    rec: Recorder,
    started: Instant,
    counting: KernelCounting,
}

impl Run {
    fn start(cfg: &SolverConfig) -> Self {
        Run {
            rec: Recorder::new(&cfg.tracer),
            started: Instant::now(),
            counting: KernelCounting::start(&cfg.tracer),
        }
    }

    /// The `Metrics` epilogue: close the run scope with the end-of-run
    /// `mem_high_water` and `kernel_counters` events, and complete `shape`
    /// (what [`factor`] knows: sizes, Schur bytes, autotune and BLR
    /// summaries) with the recorder's totals, the wall time and the tracked
    /// peak. Byte and flop rows exist for the phases that counted any.
    fn finish(self, cfg: &SolverConfig, tracker: &MemTracker, shape: Metrics) -> Metrics {
        let rt = cfg.tracer.run();
        mem_sample(rt, tracker);
        self.counting.finish(rt);
        let mut metrics = Metrics {
            total_seconds: self.started.elapsed().as_secs_f64(),
            peak_bytes: tracker.peak(),
            ..shape
        };
        for t in self.rec.totals.into_inner() {
            let label = t.phase.row().0;
            metrics.phases.push((label.into(), t.time.as_secs_f64()));
            if t.bytes > 0 {
                metrics.phase_bytes.push((label.into(), t.bytes));
            }
            if t.flops > 0 {
                metrics.phase_flops.push((label.into(), t.flops));
            }
        }
        metrics
    }
}

/// Solve the coupled system with the chosen algorithm and configuration.
///
/// # Examples
///
/// ```
/// use csolve_coupled::{solve, Algorithm, SolverConfig};
///
/// let problem = csolve_fembem::pipe_problem::<f64>(800);
/// let cfg = SolverConfig { eps: 1e-4, ..Default::default() };
/// let out = solve(&problem, Algorithm::MultiSolve, &cfg).unwrap();
/// assert!(problem.relative_error(&out.xv, &out.xs) < 1e-4);
/// ```
///
/// Capacity experiments bound the tracked memory; an infeasible budget is a
/// clean out-of-memory error, not a crash:
///
/// ```
/// use csolve_coupled::{solve, Algorithm, SolverConfig};
///
/// let problem = csolve_fembem::pipe_problem::<f64>(800);
/// let cfg = SolverConfig { mem_budget: Some(10_000), ..Default::default() };
/// let err = solve(&problem, Algorithm::MultiSolve, &cfg).unwrap_err();
/// assert!(err.is_oom());
/// ```
pub fn solve<T: Scalar>(
    problem: &CoupledProblem<T>,
    algo: Algorithm,
    cfg: &SolverConfig,
) -> Result<Outcome<T>> {
    cfg.validate()?;
    let pool = worker_pool(cfg)?;
    let tracker = match cfg.mem_budget {
        Some(b) => MemTracker::with_budget(b),
        None => MemTracker::unbounded(),
    };
    pool.install(|| {
        let run = Run::start(cfg);
        let (factors, shape) = factor(problem, algo, cfg, &tracker, &run.rec)?;
        let (xv, xs) = factors.solve_panel(&problem.b_v, &problem.b_s, &run.rec)?;
        let metrics = run.finish(cfg, &tracker, shape);
        Ok(Outcome { xv, xs, metrics })
    })
}

/// What each algorithm's factorization phase hands back: the reusable
/// factors, the Schur storage bytes for `Metrics`, and the autotuner's
/// decision when `BlockSizes::Auto` ran.
type Factored<T> = (FactorState<T>, usize, Option<AutotuneDecision>);

/// The reusable factorization state behind a solve: either `A_vv` factored
/// on its own plus the factored Schur complement (baseline, multi-solve,
/// multi-factorization — consumed by [`direct_solution`]'s equations), or
/// the stacked-`W` partial factorization of the advanced coupling (consumed
/// by [`condensed_solution`]).
enum FactorState<T: Scalar> {
    Direct {
        fact: SparseFactorization<T>,
        sf: SchurFactor<T>,
    },
    Condensed {
        fact_w: SparseFactorization<T>,
        sf: SchurFactor<T>,
    },
}

/// Everything needed to serve right-hand sides for one factorized coupled
/// matrix, detached from the problem's borrowed data: the factor state, the
/// cluster permutation, and the permuted coupling blocks. The sparse and
/// Schur factors hold their `MemCharge`s, so a cached `SessionFactors` keeps
/// its bytes accounted on the tracker it was factorized against until it is
/// dropped.
pub(crate) struct SessionFactors<T: Scalar> {
    state: FactorState<T>,
    tree: ClusterTree,
    a_sv: Csc<T>,
    a_vs: Csc<T>,
    nv: usize,
    ns: usize,
}

impl<T: Scalar> SessionFactors<T> {
    pub(crate) fn nv(&self) -> usize {
        self.nv
    }

    pub(crate) fn ns(&self) -> usize {
        self.ns
    }

    /// Bytes this entry pins while cached: the factor storage plus the
    /// permuted coupling blocks and the cluster tree. (Used for the LRU
    /// bookkeeping and the `session_evict` events; the authoritative
    /// accounting is the `MemCharge`s the factors hold.)
    pub(crate) fn entry_bytes(&self) -> usize {
        let state = match &self.state {
            FactorState::Direct { fact, sf } | FactorState::Condensed { fact_w: fact, sf } => {
                fact.byte_size() + sf.byte_size()
            }
        };
        state + self.side_bytes()
    }

    /// Bytes of the entry's side structures (the permuted coupling blocks
    /// and the cluster permutation) that are *not* already charged to the
    /// tracker through the factors' own `MemCharge`s. The session charges
    /// these explicitly when it caches the entry.
    pub(crate) fn side_bytes(&self) -> usize {
        self.a_sv.byte_size()
            + self.a_vs.byte_size()
            + self.tree.perm.len() * std::mem::size_of::<usize>()
    }

    /// Solve a `w`-column right-hand-side panel. `b_v` is `nv × w` and
    /// `b_s` is `ns × w`, both column-major in the *original* index order;
    /// the returned `(xv, xs)` panels use the same layout and ordering.
    ///
    /// Column `j` of the result is bitwise-identical to a width-1 solve of
    /// that right-hand side — which is what [`solve`] is — with the same
    /// configuration and factors: the demuxed per-request solutions match
    /// the sequential one-RHS path bit for bit at every thread count. Every
    /// solve — sparse, dense or H-matrix — gives each column its width-1
    /// bits by layout (one lane of a row-major workspace,
    /// [`csolve_dense::lane`]), and the coupling products run column by
    /// column: no mode is entered.
    pub(crate) fn solve_panel(
        &self,
        b_v: &[T],
        b_s: &[T],
        rec: &Recorder,
    ) -> Result<(Vec<T>, Vec<T>)> {
        let (nv, ns) = (self.nv, self.ns);
        if nv == 0 || !b_v.len().is_multiple_of(nv) || b_v.len() / nv * ns != b_s.len() {
            return Err(Error::DimensionMismatch {
                context: "session panel solve",
                expected: (nv, ns),
                got: (b_v.len(), b_s.len()),
            });
        }
        let w = b_v.len() / nv;
        // Surface parts into cluster order, column by column.
        let mut b_s_p = Vec::with_capacity(ns * w);
        for j in 0..w {
            let col = &b_s[j * ns..(j + 1) * ns];
            b_s_p.extend(self.tree.perm.iter().map(|&o| col[o]));
        }
        let (xv, xs_p) = match &self.state {
            FactorState::Direct { fact, sf } => {
                direct_solution(b_v, b_s_p, fact, sf, &self.a_sv, &self.a_vs, rec)
            }
            FactorState::Condensed { fact_w, sf } => {
                condensed_solution(b_v, &b_s_p, fact_w, sf, nv, ns, rec)
            }
        }?;
        let mut xs = Vec::with_capacity(ns * w);
        for j in 0..w {
            xs.extend(self.tree.to_original_order(&xs_p[j * ns..(j + 1) * ns]));
        }
        Ok((xv, xs))
    }
}

/// Build the reusable factorization state for a session cache entry, with
/// the metrics of the factorization run (no solution phases). Runs on the
/// caller's rayon pool (the session installs its own) and charges
/// everything against `tracker` — including the factor storage, whose
/// charges the returned [`SessionFactors`] keeps holding.
pub(crate) fn factorize_session<T: Scalar>(
    problem: &CoupledProblem<T>,
    algo: Algorithm,
    cfg: &SolverConfig,
    tracker: &Arc<MemTracker>,
) -> Result<(SessionFactors<T>, Metrics)> {
    let run = Run::start(cfg);
    let (factors, shape) = factor(problem, algo, cfg, tracker, &run.rec)?;
    Ok((factors, run.finish(cfg, tracker, shape)))
}

/// The factorization phase of the chosen algorithm — the one path both
/// [`solve`] and the session layer take to the factors. Returns them with
/// the part of `Metrics` that does not come from the run's clock (see
/// [`Run::finish`]).
fn factor<T: Scalar>(
    problem: &CoupledProblem<T>,
    algo: Algorithm,
    cfg: &SolverConfig,
    tracker: &Arc<MemTracker>,
    rec: &Recorder,
) -> Result<(SessionFactors<T>, Metrics)> {
    // LDLᵀ on `A_vv` and `S`, and the mirrored folds of multi-factorization,
    // take `symmetric` at its word: a wrong flag must not reach them.
    if problem.symmetric && problem.a_vs != problem.a_sv.transpose() {
        return Err(Error::InvalidConfig(
            "problem is flagged symmetric but a_vs != a_svᵀ (pattern or values)".into(),
        ));
    }
    let ws = Ws::new(problem, cfg, tracker, rec);

    let (state, schur_bytes, autotune) = match algo {
        Algorithm::BaselineCoupling => baseline_factors(&ws),
        Algorithm::AdvancedCoupling => advanced_factors(&ws),
        Algorithm::MultiSolve => multi_solve_factors(&ws),
        Algorithm::MultiFactorization => multi_factorization_factors(&ws),
    }?;

    // The summary is reported whenever compression was *on*, even if no
    // panel met the size gate (all-zero counts are informative too).
    let sparse_compression = cfg.effective_sparse_eps().map(|eps| {
        let mut s = ws.blr.lock().unwrap_or_else(|e| e.into_inner()).clone();
        s.eps = eps;
        s
    });
    let shape = Metrics {
        schur_bytes,
        threads: rayon::current_num_threads(),
        n_total: problem.n_total(),
        n_bem: problem.n_bem(),
        n_fem: problem.n_fem(),
        autotune,
        sparse_compression,
        ..Default::default()
    };
    let (nv, ns) = (ws.nv(), ws.ns());
    let Ws {
        a_sv, a_vs, tree, ..
    } = ws;
    let factors = SessionFactors {
        state,
        tree,
        a_sv,
        a_vs,
        nv,
        ns,
    };
    Ok((factors, shape))
}

/// Solution phase over `A_vv` and `S` factored separately (paper equations
/// (7)), for a `w`-column panel: `b_v` (`nv × w`) and `b_s_p` (`ns × w`,
/// cluster order), both column-major. The factor traversals run on the full
/// panel (`solve_in_place` is multi-RHS); the sparse coupling products run
/// column by column through `matvec`, in place on the panels' columns. The
/// returned surface panel stays in cluster order.
fn direct_solution<T: Scalar>(
    b_v: &[T],
    b_s_p: Vec<T>,
    fact: &SparseFactorization<T>,
    sf: &SchurFactor<T>,
    a_sv: &Csc<T>,
    a_vs: &Csc<T>,
    rec: &Recorder,
) -> Result<(Vec<T>, Vec<T>)> {
    let nv = fact.n();
    let ns = a_sv.nrows;
    let w = b_v.len() / nv.max(1);
    // T = A_vv⁻¹ B_v
    let mut t = Mat::from_col_major(nv, w, b_v.to_vec());
    let ph = rec.open(Phase::SolveRhs, TraceScope::Run);
    fact.solve_in_place(&mut t)?;
    drop(ph);
    // RHS_s = B_s − A_sv T
    let mut xs = Mat::from_col_major(ns, w, b_s_p);
    for j in 0..w {
        a_sv.matvec(-T::ONE, t.col(j), T::ONE, xs.col_mut(j));
    }
    // X_s = S⁻¹ RHS_s: two triangular solves on the n_s × n_s factor
    // (backends without a closed-form count report 0, which adds no row).
    let mut ph = rec.open(Phase::DenseSolve, TraceScope::Run);
    sf.solve_in_place(xs.as_mut());
    ph.add_flops(sf.solve_flops(w));
    drop(ph);
    // X_v = A_vv⁻¹ (B_v − A_vs X_s), in the buffer `T` no longer needs.
    let mut bv2 = t;
    bv2.data_mut().copy_from_slice(b_v);
    for j in 0..w {
        a_vs.matvec(-T::ONE, xs.col(j), T::ONE, bv2.col_mut(j));
    }
    let ph = rec.open(Phase::SolveBack, TraceScope::Run);
    fact.solve_in_place(&mut bv2)?;
    drop(ph);
    Ok((bv2.into(), xs.into()))
}

/// §II-E — one sparse solve against all of `A_vs` at once. The dense result
/// `Y` (`n_v × n_s`) is the memory bottleneck the paper quantifies at
/// 2.6 TiB for the industrial case.
fn baseline_factors<T: Scalar>(ws: &Ws<'_, T>) -> Result<Factored<T>> {
    let (nv, ns) = (ws.nv(), ws.ns());
    let tracker = ws.tracker;
    let fact = ws.factor_avv()?;
    // 2× the dense result: the old worst case of the solver's internal
    // permuted copy (see the panel reserve in `multi_solve_factors`).
    let mut y_charge = tracker.charge(
        2 * nv * ns * std::mem::size_of::<T>(),
        "dense Y = A_vv^-1 A_vs",
    )?;
    let y = ws.solve_y(&fact, &ws.a_vs, TraceScope::Run)?;
    y_charge.resize(y.byte_size(), "dense Y = A_vv^-1 A_vs")?;

    let mut schur = ws.init_schur()?;
    // Z = A_sv·Y, subtracted panel-wise to bound the SpMM temporary.
    let zw = ws.cfg.n_c.max(64).min(ns.max(1));
    let mut c0 = 0;
    while c0 < ns {
        let c1 = (c0 + zw).min(ns);
        let _z_charge = tracker.charge(ns * (c1 - c0) * std::mem::size_of::<T>(), "SpMM panel")?;
        let mut z = Mat::<T>::zeros(ns, c1 - c0);
        ws.spmm(y.view(0..nv, c0..c1), z.as_mut(), TraceScope::Run);
        ws.fold_block(&mut schur, -T::ONE, 0, c0, z.as_ref(), TraceScope::Run)?;
        c0 = c1;
    }
    drop(y);
    drop(y_charge);
    let (sf, schur_bytes) = ws.factor_schur(schur)?;
    Ok((FactorState::Direct { fact, sf }, schur_bytes, None))
}

/// §II-F — a single factorization+Schur call on the stacked coupled matrix;
/// the full Schur complement is returned as one dense `n_s × n_s` matrix.
/// Both the stacked-`W` partial factorization and the factored `S` are
/// reusable across solves ([`SparseFactorization::condense_and_solve`] takes
/// `&self`).
fn advanced_factors<T: Scalar>(ws: &Ws<'_, T>) -> Result<Factored<T>> {
    let ns = ws.ns();
    // W = [A_vv A_vs; A_sv 0]
    let w = ws.assemble_w(&ws.a_vs, &ws.a_sv, TraceScope::Run);
    let _w_charge = ws.tracker.charge(w.byte_size(), "stacked W matrix")?;
    // The dense Schur output of the sparse solver (the API limitation).
    let x_charge = ws
        .tracker
        .charge(ns * ns * std::mem::size_of::<T>(), "dense Schur output")?;
    let (fact_w, x) = ws.factor_w(&w)?;

    // S = A_ss + X (X already carries the minus sign).
    let mut schur = ws.init_schur()?;
    ws.fold_block(&mut schur, T::ONE, 0, 0, x.as_ref(), TraceScope::Run)?;
    drop(x);
    drop(x_charge);
    let (sf, schur_bytes) = ws.factor_schur(schur)?;
    Ok((FactorState::Condensed { fact_w, sf }, schur_bytes, None))
}

/// Solution phase of the advanced coupling: one condensation solve through
/// the partial `W` factorization, for a `w`-column panel. `b_v`/`b_s` are
/// column-major (`b_s` already in cluster order); the returned surface part
/// stays in cluster order (the caller unpermutes).
fn condensed_solution<T: Scalar>(
    b_v: &[T],
    b_s: &[T],
    fact_w: &SparseFactorization<T>,
    sf: &SchurFactor<T>,
    nv: usize,
    ns: usize,
    rec: &Recorder,
) -> Result<(Vec<T>, Vec<T>)> {
    let n = nv + ns;
    let w = b_v.len() / nv.max(1);
    let mut b = Mat::<T>::zeros(n, w);
    for j in 0..w {
        b.col_mut(j)[..nv].copy_from_slice(&b_v[j * nv..(j + 1) * nv]);
        b.col_mut(j)[nv..].copy_from_slice(&b_s[j * ns..(j + 1) * ns]);
    }
    let ph = rec.open(Phase::CoupledSolve, TraceScope::Run);
    fact_w.condense_and_solve(&mut b, |xs_block| {
        sf.solve_in_place(xs_block);
        Ok(())
    })?;
    drop(ph);
    let mut xv = Vec::with_capacity(nv * w);
    let mut xs = Vec::with_capacity(ns * w);
    for j in 0..w {
        xv.extend_from_slice(&b.col(j)[..nv]);
        xs.extend_from_slice(&b.col(j)[nv..]);
    }
    Ok((xv, xs))
}

/// One block of a blockwise Schur assembly: the `rows × cols` range of `S`
/// it contributes to, and the bytes of its own buffers, which it reserves
/// at admission (its kernel finalizes the reservation).
struct Block {
    rows: Range<usize>,
    cols: Range<usize>,
    reserve: usize,
}

/// What a blockwise algorithm is besides its block kernel.
struct Blockwise<T> {
    blocks: Vec<Block>,
    /// Sign the blocks are folded into `S` with.
    alpha: T,
    /// The block list is the lower triangle of a symmetric `S`: every
    /// off-diagonal block is folded a second time, transposed, at its mirror
    /// position. Blocks are square then (zero-padded at the edges).
    mirror: bool,
    /// Charge label of a block's reservation while it computes ...
    what_reserved: &'static str,
    /// ... and of what is left of it, the computed block alone, while that
    /// waits for its fold.
    what_parked: &'static str,
    /// Under [`BlockSizes::Auto`]: the autotuner's decision and the whole
    /// working-set bytes of one block the planner priced it at.
    autotune: Option<(AutotuneDecision, usize)>,
}

/// The loop both blockwise algorithms are: *for each block, compute a dense
/// Schur contribution with `kernel` and fold it into `schur`* — which the
/// caller then factors. Blocks are independent of each other, so they run as
/// a pipeline: each is admitted against the memory budget (reserving
/// [`Block::reserve`]), computed on whichever worker is free, shrunk to the
/// computed block's own bytes, and folded in block order — the same fold
/// order as the sequential loop, hence the same bits in the compressed
/// accumulator.
fn assemble_blockwise<T: Scalar>(
    ws: &Ws<'_, T>,
    schur: SchurAcc<T>,
    plan: &Blockwise<T>,
    kernel: impl Fn(usize, &Block, &mut Slot<'_>) -> Result<Mat<T>> + Sync,
) -> Result<SchurAcc<T>> {
    let (cfg, tracker) = (ws.cfg, ws.tracker);
    let mut inflight = rayon::current_num_threads();
    if let Some((d, block_bytes)) = &plan.autotune {
        // The blocking was selected at a sequential point after the sparse
        // factors and `S` were resident, from thread-count-invariant inputs
        // only (see [`crate::autotune`]): the selection, like the
        // arithmetic, is identical for every thread count.
        let rt = cfg.tracer.run();
        rt.event(TraceEventKind::AutotuneSelect {
            n_c: d.n_c,
            n_s: d.n_s,
            n_b: d.n_b,
            predicted_bytes: d.predicted_peak,
        });
        if d.degraded {
            // The blocking parameter the budget shrank (the other one is 0).
            rt.event(TraceEventKind::BudgetDegrade {
                cap: d.n_s.max(d.n_b),
            });
        }
        // Model-informed concurrency: admit no more whole blocks than fit
        // the headroom the planner fitted one into (what the backend leaves
        // to block working sets: the compressed accumulator keeps the part
        // set aside for its folds). Starting at the model's cap skips the
        // degrade churn. Scheduling-only — fold order (and thus the result)
        // is unaffected.
        let room = autotune::usable_headroom(cfg, tracker);
        inflight = inflight.min((room / (*block_bytes).max(1)).max(1));
    }
    let blocks = &plan.blocks;
    run_blockwise(
        tracker,
        &cfg.tracer,
        blocks.len(),
        inflight,
        schur,
        |seq| (blocks[seq].reserve, plan.what_reserved),
        |seq, slot| {
            #[allow(unused_mut)]
            let mut x = kernel(seq, &blocks[seq], slot)?;
            #[cfg(feature = "fault-inject")]
            crate::fault::maybe_poison_panel(&mut x);
            // The working set is gone; hand off with only the block reserved.
            slot.park(x.byte_size(), plan.what_parked)?;
            Ok(x)
        },
        |seq, schur, mut x| {
            let b = &blocks[seq];
            let (r0, c0) = (b.rows.start, b.cols.start);
            let (nr, nc) = (b.rows.len(), b.cols.len());
            let scope = TraceScope::Block(seq);
            ws.fold_block(schur, plan.alpha, r0, c0, x.view(0..nr, 0..nc), scope)?;
            if plan.mirror && r0 != c0 {
                // X_ji = X_ijᵀ, transposed in the block's own storage: the
                // mirrored fold charges nothing the parked block did not.
                transpose_in_place(&mut x);
                ws.fold_block(schur, plan.alpha, c0, r0, x.view(0..nc, 0..nr), scope)?;
            }
            Ok(())
        },
    )
}

/// `x ← xᵀ` for a square `x`.
fn transpose_in_place<T: Scalar>(x: &mut Mat<T>) {
    assert!(x.is_square());
    let n = x.nrows();
    let data = x.data_mut();
    for j in 0..n {
        for i in j + 1..n {
            data.swap(i + j * n, j + i * n);
        }
    }
}

/// §IV-A — multi-solve: factor `A_vv` once, then assemble `S` by panels of
/// `n_c` columns through repeated sparse solves (Algorithm 1; with the HMAT
/// backend and `n_S`-wide Schur panels this is the compressed-Schur
/// Algorithm 2).
///
/// SPIDO subtracts every `n_c` panel straight into dense `S`; HMAT buffers
/// `n_S` columns per compressed AXPY (the separate `n_S ≥ n_c` parameter of
/// Algorithm 2). Under `BlockSizes::Auto` the autotuner shrinks that
/// blocking until one panel's working set fits the budget headroom.
fn multi_solve_factors<T: Scalar>(ws: &Ws<'_, T>) -> Result<Factored<T>> {
    let (nv, ns) = (ws.nv(), ws.ns());
    let elem = std::mem::size_of::<T>();
    let cfg = ws.cfg;
    let fact = ws.factor_avv()?;
    let schur = ws.init_schur()?;

    let stats = ws.stats();
    let planned = match cfg.block_sizes {
        BlockSizes::Auto => Some(autotune::plan_multi_solve(&stats, cfg, ws.tracker)?),
        _ => None,
    };
    let (n_c, n_s) = match &planned {
        Some((d, _)) => (d.n_c, d.n_s),
        None => autotune::fixed_multi_solve_blocking(cfg),
    };
    let plan = Blockwise {
        blocks: (0..ns.div_ceil(n_s.max(1)))
            .map(|i| {
                let cols = i * n_s..((i + 1) * n_s).min(ns);
                // Worst-case working set of this panel: its Z panel plus one
                // inner sparse solve's Y, priced at 2× — the solver's old
                // whole-panel permuted copy. The chunked solve really holds
                // `n_v·n_c` plus one `n_v × 32` lane workspace per live
                // chunk; the reserve is kept at the old worst case on
                // purpose, so tracked peaks and `BlockSizes::Auto` decisions
                // do not move. Follow-up (ROADMAP item 14): the
                // thread-invariant bound — `n_v·n_c` plus at most `n_c/32`
                // live `n_v × 32` chunks — never a per-thread term, which
                // would make `Auto`'s choice depend on the thread count.
                let reserve = (ns * cols.len() + 2 * nv * n_c.min(cols.len())) * elem;
                Block {
                    rows: 0..ns,
                    cols,
                    reserve,
                }
            })
            .collect(),
        alpha: -T::ONE,
        mirror: false,
        what_reserved: "Schur panel Z + Y workspace",
        what_parked: "Schur panel Z",
        autotune: planned,
    };
    let all_v: Vec<usize> = (0..nv).collect();
    let fact_r = &fact;
    let kernel = |seq: usize, b: &Block, slot: &mut Slot<'_>| -> Result<Mat<T>> {
        // The panel's reserve is its whole working set already.
        slot.finalize(0, plan.what_reserved)?;
        let scope = TraceScope::Block(seq);
        let (p0, p1) = (b.cols.start, b.cols.end);
        let mut zpanel = Mat::<T>::zeros(ns, p1 - p0);
        let mut c0 = p0;
        while c0 < p1 {
            let c1 = (c0 + n_c).min(p1);
            // Columns c0..c1 of A_vs as a sparse RHS.
            let cols: Vec<usize> = (c0..c1).collect();
            let y = ws.solve_y(fact_r, &ws.a_vs.submatrix(&all_v, &cols), scope)?;
            let z = zpanel.view_mut(0..ns, (c0 - p0)..(c1 - p0));
            ws.spmm(y.as_ref(), z, scope);
            c0 = c1;
        }
        Ok(zpanel)
    };
    let schur = assemble_blockwise(ws, schur, &plan, kernel)?;
    let (sf, schur_bytes) = ws.factor_schur(schur)?;
    let decision = planned.map(|(d, _)| d);
    Ok((FactorState::Direct { fact, sf }, schur_bytes, decision))
}

/// §IV-B — multi-factorization: one factorization+Schur call per Schur tile
/// on a stacked `W = [A_vv A_vs|_j ; A_sv|_i 0]` submatrix (Algorithm 3; the
/// HMAT backend compresses each returned block immediately — the
/// compressed-Schur variant), then a final plain factorization of `A_vv`
/// for the solution phase (the per-tile `W` factorizations are not reusable
/// through the solver API).
fn multi_factorization_factors<T: Scalar>(ws: &Ws<'_, T>) -> Result<Factored<T>> {
    let (schur, decision) = multi_factorization_schur(ws)?;
    let (sf, schur_bytes) = ws.factor_schur(schur)?;
    let fact = ws.factor_avv()?;
    Ok((FactorState::Direct { fact, sf }, schur_bytes, decision))
}

/// The assembled (not yet factored) `S` of multi-factorization, from an
/// `n_b × n_b` tile grid over the surface unknowns.
///
/// `W` is unsymmetric (paper: "except when i = j") and factored in the
/// unsymmetric solver mode — whose duplicated factor storage the paper
/// identifies as multi-factorization's memory weakness. A symmetric system
/// has `X_ji = X_ijᵀ` (`A_vv = A_vvᵀ`, `A_vs = A_svᵀ`), so only its
/// lower-triangle tiles (`i ≥ j`, `n_b(n_b+1)/2` of the `n_b²`) are
/// computed, each off-diagonal one folded at both positions, and its
/// diagonal tiles — symmetric like the advanced coupling's `W` — are
/// factored in LDLᵀ mode: both backends see a fully assembled `S`.
///
/// A tile needs only `X_ij`, so `W`'s factors are discarded front by front
/// as they are computed (MUMPS' "discard factors"): the sparse solver keeps,
/// charges and compresses no factor panel. A tile's admission reserves the
/// stacked `W` and `X_ij`; what the sparse solver charges while factoring
/// `W` is predicted exactly by the tile's symbolic analysis and reserved
/// before the numeric phase starts (`Ws::tile_schur`): no tile runs out of
/// memory because of another.
fn multi_factorization_schur<T: Scalar>(
    ws: &Ws<'_, T>,
) -> Result<(SchurAcc<T>, Option<AutotuneDecision>)> {
    let (nv, ns) = (ws.nv(), ws.ns());
    let elem = std::mem::size_of::<T>();
    let idx = std::mem::size_of::<usize>();
    let cfg = ws.cfg;
    let schur = ws.init_schur()?;

    // Under `BlockSizes::Auto` the autotuner grows the tile grid (shrinks
    // the tiles) until one stacked-W working set fits the budget headroom.
    let stats = ws.stats();
    let planned = match cfg.block_sizes {
        BlockSizes::Auto => Some(autotune::plan_multi_factorization(
            &stats,
            cfg,
            ws.tracker,
            |n_b| tile_internal_bytes(ws, n_b),
        )?),
        _ => None,
    };
    let n_b = match &planned {
        Some((d, _)) => d.n_b,
        None => cfg.n_b.clamp(1, ns.max(1)),
    };
    let blk = ns.div_ceil(n_b);
    let ranges: Vec<Range<usize>> = (0..n_b)
        .map(|b| (b * blk)..((b + 1) * blk).min(ns))
        .filter(|r| !r.is_empty())
        .collect();
    // Coupling nonzeros each range selects: rows of A_sv, columns of A_vs.
    let mut nnz_sv = vec![0usize; ranges.len()];
    for &i in &ws.a_sv.rowidx {
        nnz_sv[i / blk] += 1;
    }
    let nnz_vs = |r: &Range<usize>| ws.a_vs.colptr[r.end] - ws.a_vs.colptr[r.start];
    let plan = Blockwise {
        blocks: (0..ranges.len().pow(2))
            .map(|t| (t / ranges.len(), t % ranges.len()))
            .filter(|&(i, j)| !ws.symmetric || i >= j)
            .map(|(i, j)| {
                let (rows, cols) = (ranges[i].clone(), ranges[j].clone());
                // Reservation: the stacked W (values + row indices + column
                // pointers; square, padded when the edge blocks differ in
                // size) and the dense Schur output X_ij.
                let m = rows.len().max(cols.len());
                let nnz = ws.a_vv.nnz() + nnz_sv[i] + nnz_vs(&cols);
                let reserve = nnz * (elem + idx) + (nv + m + 1) * idx + m * m * elem;
                Block {
                    rows,
                    cols,
                    reserve,
                }
            })
            .collect(),
        alpha: T::ONE,
        mirror: ws.symmetric,
        what_reserved: "stacked W + Schur block X_ij",
        what_parked: "dense Schur block X_ij",
        autotune: planned,
    };
    let all_v: Vec<usize> = (0..nv).collect();
    let kernel = |seq: usize, b: &Block, slot: &mut Slot<'_>| -> Result<Mat<T>> {
        let rows: Vec<usize> = b.rows.clone().collect();
        let cols: Vec<usize> = b.cols.clone().collect();
        let a_sv_i = ws.a_sv.submatrix(&rows, &all_v);
        let a_vs_j = ws.a_vs.submatrix(&all_v, &cols);
        // A diagonal tile has the coupled system's symmetry; an off-diagonal
        // one is unsymmetric whatever the system is.
        let symmetry = if b.rows == b.cols {
            ws.symmetry()
        } else {
            Symmetry::UnsymmetricLu
        };
        let w = ws.assemble_w(&a_vs_j, &a_sv_i, TraceScope::Block(seq));
        // Each call re-factorizes A_vv — the superfluous work the method
        // trades for memory (hence its name).
        ws.tile_schur(&w, seq, symmetry, slot)
    };
    let schur = assemble_blockwise(ws, schur, &plan, kernel)?;
    Ok((schur, planned.map(|(d, _)| d)))
}

/// Predicted solver-internal tracked bytes (fronts, contribution blocks,
/// dense Schur output) of one multi-factorization tile at grid size `n_b`:
/// a symbolic analysis of the representative corner tile's stacked `W`
/// pattern, replayed with the Schur-only numeric phase's exact charge
/// schedule — the same in LDLᵀ and LU mode, with and without BLR. Purely
/// structural (no numeric work) and deterministic — safe to consult from
/// the autotuner's selection point.
fn tile_internal_bytes<T: Scalar>(ws: &Ws<'_, T>, n_b: usize) -> Result<usize> {
    let (nv, ns) = (ws.nv(), ws.ns());
    let m = ns.div_ceil(n_b.max(1)).min(ns);
    let rows: Vec<usize> = (0..m).collect();
    let all_v: Vec<usize> = (0..nv).collect();
    let w = stack_w(
        ws.a_vv,
        &ws.a_vs.submatrix(&all_v, &rows),
        &ws.a_sv.submatrix(&rows, &all_v),
    );
    let schur_vars: Vec<usize> = (nv..nv + m).collect();
    let sym = SymbolicFactorization::analyze(&w, &schur_vars, ws.cfg.ordering)?;
    Ok(sym.predicted_schur_peak_bytes(std::mem::size_of::<T>()))
}

/// The stacked square `W = [A_vv A_vs|_j ; A_sv|_i 0]` (zero-padded when the
/// two coupling blocks differ in size).
fn stack_w<T: Scalar>(a_vv: &Csc<T>, a_vs_j: &Csc<T>, a_sv_i: &Csc<T>) -> Csc<T> {
    let nv = a_vv.nrows;
    let n = nv + a_sv_i.nrows.max(a_vs_j.ncols);
    let mut coo = Coo::with_capacity(n, n, a_vv.nnz() + a_vs_j.nnz() + a_sv_i.nnz());
    push_csc(&mut coo, a_vv, 0, 0);
    push_csc(&mut coo, a_vs_j, 0, nv);
    push_csc(&mut coo, a_sv_i, nv, 0);
    coo.to_csc()
}

/// Append a CSC block into a COO builder at offset (r0, c0).
fn push_csc<T: Scalar>(coo: &mut Coo<T>, a: &Csc<T>, r0: usize, c0: usize) {
    for j in 0..a.ncols {
        for p in a.colptr[j]..a.colptr[j + 1] {
            coo.push(r0 + a.rowidx[p], c0 + j, a.values[p]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DenseBackend;
    use crate::report::{RunReport, SpanAgg};

    /// The metrics of a run whose phases are `body`, and the spans it traced.
    fn record(tracer: Tracer, body: impl FnOnce(&Recorder)) -> (Metrics, Vec<SpanAgg>) {
        let cfg = SolverConfig {
            tracer,
            ..Default::default()
        };
        let run = Run::start(&cfg);
        body(&run.rec);
        let m = run.finish(&cfg, &MemTracker::unbounded(), Metrics::default());
        let trace = cfg.tracer.drain();
        let report = RunReport::from_parts(Algorithm::MultiSolve, cfg.dense_backend, &m, &trace);
        (m, report.spans)
    }

    /// The `S` multi-factorization assembles for `p`, before it is factored.
    fn assembled_schur(p: &CoupledProblem<f64>, backend: DenseBackend, n_b: usize) -> Mat<f64> {
        let cfg = SolverConfig {
            eps: 1e-10,
            dense_backend: backend,
            n_b,
            ..Default::default()
        };
        let run = Run::start(&cfg);
        let tracker = MemTracker::unbounded();
        let ws = Ws::new(p, &cfg, &tracker, &run.rec);
        multi_factorization_schur(&ws).unwrap().0.to_dense()
    }

    /// The same dense `S`, its tiles computed by the factor-keeping
    /// `factorize_schur` (LDLᵀ on a symmetric system's diagonal tiles, LU
    /// elsewhere) and folded like the pipeline folds them.
    fn schur_from_factorize_schur(p: &CoupledProblem<f64>, n_b: usize) -> Mat<f64> {
        let cfg = SolverConfig {
            eps: 1e-10,
            dense_backend: DenseBackend::Spido,
            n_b,
            ..Default::default()
        };
        let run = Run::start(&cfg);
        let tracker = MemTracker::unbounded();
        let ws = Ws::new(p, &cfg, &tracker, &run.rec);
        let (nv, ns) = (ws.nv(), ws.ns());
        let blk = ns.div_ceil(n_b);
        let ranges: Vec<Vec<usize>> = (0..n_b)
            .map(|b| (b * blk..((b + 1) * blk).min(ns)).collect())
            .filter(|r: &Vec<usize>| !r.is_empty())
            .collect();
        let all_v: Vec<usize> = (0..nv).collect();
        let mut schur = ws.init_schur().unwrap();
        for (i, rows) in ranges.iter().enumerate() {
            for (j, cols) in ranges.iter().enumerate() {
                if p.symmetric && i < j {
                    continue;
                }
                let a_vs_j = ws.a_vs.submatrix(&all_v, cols);
                let w = stack_w(ws.a_vv, &a_vs_j, &ws.a_sv.submatrix(rows, &all_v));
                let opts = SparseOptions {
                    symmetry: if i == j {
                        ws.symmetry()
                    } else {
                        Symmetry::UnsymmetricLu
                    },
                    ..ws.sparse_opts()
                };
                let schur_vars: Vec<usize> = (nv..w.ncols).collect();
                let (_, x) = csolve_sparse::factorize_schur(&w, &schur_vars, &opts).unwrap();
                let (nr, nc) = (rows.len(), cols.len());
                let x = x.view(0..nr, 0..nc);
                schur.axpy_block(1.0, rows[0], cols[0], x, cfg.eps).unwrap();
                if p.symmetric && i != j {
                    let xt = Mat::from_fn(nc, nr, |r, c| x.get(c, r));
                    schur
                        .axpy_block(1.0, cols[0], rows[0], xt.as_ref(), cfg.eps)
                        .unwrap();
                }
            }
        }
        schur.to_dense()
    }

    /// Discarding `W`'s factors leaves every tile's `X_ij` where it was:
    /// multi-factorization's SPIDO `S` is, bit for bit, the one folded from
    /// factor-keeping `factorize_schur` calls — symmetric (lower tiles,
    /// mirrored) and unsymmetric (full grid), short edge tiles included.
    #[test]
    fn schur_only_tiles_assemble_the_factor_keeping_schur_bitwise() {
        let sym = csolve_fembem::pipe_problem::<f64>(1_200);
        let mut unsym = csolve_fembem::pipe_problem::<f64>(1_200);
        unsym.symmetric = false;
        let bits = |m: &Mat<f64>| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for p in [&sym, &unsym] {
            for n_b in [1, 2, 3, 5] {
                assert!(
                    bits(&assembled_schur(p, DenseBackend::Spido, n_b))
                        == bits(&schur_from_factorize_schur(p, n_b)),
                    "symmetric = {}, n_b = {n_b}",
                    p.symmetric
                );
            }
        }
    }

    /// A symmetric system's `S` is assembled from lower-triangle tiles with
    /// every off-diagonal one mirrored: complete (it is what the full grid
    /// of an unflagged copy of the system assembles, which both backends
    /// read both triangles of) and, dense, its own transpose bit for bit —
    /// also when `n_b` does not divide `n_s` (rectangular edge tiles).
    #[test]
    fn a_symmetric_schur_is_mirrored_exactly_from_its_lower_triangle() {
        let p = csolve_fembem::pipe_problem::<f64>(1_200);
        let ns = p.n_bem();
        let mut unflagged = csolve_fembem::pipe_problem::<f64>(1_200);
        unflagged.symmetric = false;
        for n_b in [1, 2, 3, 5] {
            assert!(
                n_b != 5 || !ns.is_multiple_of(n_b),
                "n_s = {ns}: want a short edge tile"
            );
            let s = assembled_schur(&p, DenseBackend::Spido, n_b);
            for j in 0..ns {
                for i in 0..j {
                    assert!(
                        s[(i, j)].to_bits() == s[(j, i)].to_bits(),
                        "n_b = {n_b}: S[{i}, {j}] != S[{j}, {i}]"
                    );
                }
            }
            let scale = s.norm_max();
            for backend in DenseBackend::ALL {
                let mut d = assembled_schur(&p, backend, n_b);
                d.axpy(-1.0, &assembled_schur(&unflagged, backend, n_b));
                assert!(
                    d.norm_max() <= 1e-8 * scale,
                    "n_b = {n_b} / {}: mirrored S is off the full grid's by {:.3e}",
                    backend.name(),
                    d.norm_max()
                );
            }
        }
    }

    #[test]
    fn a_phase_is_one_measurement_in_metrics_and_trace() {
        let (m, spans) = record(Tracer::enabled(), |rec| {
            rec.open(Phase::Spmm, TraceScope::Block(1)).add_bytes(64);
            drop(rec.open(Phase::FactorAvv, TraceScope::Run));
            rec.open(Phase::Spmm, TraceScope::Run).add_bytes(36);
        });
        // First-use order; byte and flop rows only where something was counted.
        let names: Vec<&str> = m.phases.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["SpMM", "sparse factorization"]);
        assert_eq!(m.phase_bytes, [("SpMM".to_string(), 100)]);
        assert!(m.phase_flops.is_empty());
        // The span-less phase pushed nothing; SpMM's two spans are its row.
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!((s.kind.as_str(), s.count, s.bytes), ("spmm", 2, 100));
        assert!((s.seconds - m.phases[0].1).abs() < 1e-9);
    }

    #[test]
    fn totals_sum_over_threads_and_need_no_tracer() {
        let (m, spans) = record(Tracer::disabled(), |rec| {
            std::thread::scope(|s| {
                for t in 0..4 {
                    s.spawn(move || {
                        for i in 0..100 {
                            let mut ph = rec.open(Phase::SolveY, TraceScope::Block(t));
                            ph.add_bytes(i);
                            ph.add_flops(1);
                        }
                    });
                }
            })
        });
        assert_eq!(m.phase_bytes, [("sparse solve (Y)".to_string(), 4 * 4950)]);
        assert_eq!(m.phase_flops, [("sparse solve (Y)".to_string(), 400)]);
        assert_eq!((m.phases.len(), spans.len()), (1, 0));
    }
}
