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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::autotune::{self, AutotuneDecision, BlockSizes, MatrixStats};
use crate::config::{Algorithm, Metrics, SolverConfig, SparseCompressionSummary};
use crate::pipeline::{run_blockwise, Slot};
use crate::schur::{SchurAcc, SchurFactor};
use csolve_common::{
    ByteSized, Error, MemCharge, MemTracker, Result, Scalar, ScopeTracer, SpanKind, TraceEventKind,
    TraceScope, Tracer,
};
use csolve_dense::lane::{self, MAX_LANES};
use csolve_dense::{Mat, MatMut, MatRef};
use csolve_fembem::{BemOperator, CoupledProblem};
use csolve_hmat::ClusterTree;
use csolve_sparse::{
    factorize_analyzed, schur_complement_analyzed, Coo, Csc, EliminationStructure, FactorStats,
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
    /// The elimination structure of `A_vv`, which every sparse analysis of
    /// the run extends (`Ws::elimination`).
    elim: OnceLock<EliminationStructure>,
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
            elim: OnceLock::new(),
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
        let sym = self.analyze(self.a_vv, Phase::FactorAvv, TraceScope::Run)?;
        self.factor_avv_analyzed(sym, self.rec)
    }

    /// The numeric phase of [`Self::factor_avv`] on `A_vv`'s analysis
    /// `sym`, recorded by `rec`.
    fn factor_avv_analyzed(
        &self,
        sym: SymbolicFactorization,
        rec: &Recorder,
    ) -> Result<SparseFactorization<T>> {
        let _ph = rec.open(Phase::FactorAvv, TraceScope::Run);
        let opts = SparseOptions {
            tracer: rec.tracer.clone(),
            ..self.sparse_opts()
        };
        let (fact, _) = factorize_analyzed(self.a_vv, sym, &opts)?;
        self.note_factor_stats(fact.stats());
        Ok(fact)
    }

    /// `Y = A_vv⁻¹·rhs` for a sparse right-hand side in at most `groups`
    /// concurrent lane workspaces, recorded in `scope`.
    fn solve_y(
        &self,
        fact: &SparseFactorization<T>,
        rhs: &Csc<T>,
        groups: usize,
        scope: TraceScope,
    ) -> Result<Mat<T>> {
        let mut ph = self.rec.open(Phase::SolveY, scope);
        let mut y = Mat::<T>::zeros(self.nv(), rhs.ncols);
        fact.solve_sparse_chunks(rhs, y.as_mut(), groups, lane::store_rows)?;
        ph.add_bytes(y.byte_size());
        Ok(y)
    }

    /// `z = (A_sv·A_vv⁻¹·rhs)[r0..]` with no `Y`: each 32-column chunk of
    /// `rhs` is solved in a lane workspace and multiplied by the rows `r0..`
    /// of `A_sv` straight out of it into its columns of `z`, at most
    /// `groups` workspaces at once. The bits are those of [`Self::solve_y`]
    /// then [`Self::spmm`] in the rows computed ([`Csc::mul_lanes`]), and so
    /// are the two phases recorded in `scope`, bytes and flops — the
    /// product's counted over the entries of `A_sv` from row `r0`: its time
    /// is what the chunks spent in it, the solve's the rest of the groups'
    /// wall clock — summed over the groups, as any phase's time is over its
    /// threads.
    fn solve_spmm(
        &self,
        fact: &SparseFactorization<T>,
        rhs: &Csc<T>,
        (r0, z): (usize, MatMut<'_, T>),
        groups: usize,
        scope: TraceScope,
    ) -> Result<()> {
        let (cols, elem) = (rhs.ncols, std::mem::size_of::<T>());
        let z_bytes = z.nrows() * cols * elem;
        let started = Instant::now();
        let in_spmm = AtomicU64::new(0);
        fact.solve_sparse_chunks(rhs, z, groups, |sh, y, z, rows| {
            let t = Instant::now();
            self.a_sv.mul_lanes(T::ONE, sh, y, rows, r0, z);
            in_spmm.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        })?;
        let in_spmm = Duration::from_nanos(in_spmm.into_inner());
        let ran = groups.min(cols.div_ceil(MAX_LANES)).max(1) as u32;
        let in_solve = (started.elapsed() * ran).saturating_sub(in_spmm);
        self.rec.record(
            scope,
            PhaseCost {
                phase: Phase::SolveY,
                time: in_solve,
                bytes: self.nv() * cols * elem,
                flops: 0,
            },
        );
        self.rec.record(
            scope,
            PhaseCost {
                phase: Phase::Spmm,
                time: in_spmm,
                bytes: z_bytes,
                flops: 2 * self.a_sv.nnz_from_row(r0) as u64 * cols as u64,
            },
        );
        Ok(())
    }

    /// Charges for the lane workspaces a chunked sparse solve may run beyond
    /// its first when its first `cols` columns are the most it holds at
    /// once: one per further group, up to `min(threads, ⌈cols/32⌉)` groups,
    /// each as wide as the chunk it is counted for, through `tracker` —
    /// until the first the budget refuses. The solve then runs `1 + len`
    /// groups: fewer groups, the same bits.
    fn extra_workspaces(&self, tracker: &Arc<MemTracker>, cols: usize) -> Vec<MemCharge> {
        let groups = rayon::current_num_threads().min(cols.div_ceil(MAX_LANES));
        let stats = self.stats();
        (1..groups)
            .map_while(|g| {
                let width = (cols - g * MAX_LANES).min(MAX_LANES);
                let bytes = autotune::lane_workspace_bytes(&stats, width);
                tracker.charge(bytes, "lane workspace").ok()
            })
            .collect()
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

    /// The elimination structure of `A_vv`: the ordering, elimination tree
    /// and fundamental supernodes every sparse analysis of the run shares,
    /// built by the first call — recorded in `phase` and `scope` as the
    /// run's one `sparse_ordering` span — and returned by every later one.
    /// The first call comes from the driver's thread, so the span's place in
    /// the trace does not depend on the thread count.
    fn elimination(&self, phase: Phase, scope: TraceScope) -> Result<&EliminationStructure> {
        if let Some(elim) = self.elim.get() {
            return Ok(elim);
        }
        let ph = self.rec.open(phase, scope);
        let elim = ph.tracer().time(SpanKind::SparseOrdering, || {
            EliminationStructure::analyze(self.a_vv, &[], self.cfg.ordering)
        })?;
        Ok(self.elim.get_or_init(|| elim))
    }

    /// The symbolic analysis of `A_vv`, or of a stacked `W` whose trailing
    /// unknowns (beyond `n_v`) are the Schur variables: an extension of the
    /// run's elimination structure, recorded in `phase` and `scope`.
    fn analyze(
        &self,
        a: &Csc<T>,
        phase: Phase,
        scope: TraceScope,
    ) -> Result<SymbolicFactorization> {
        let elim = self.elimination(phase, scope)?;
        let schur_vars: Vec<usize> = (self.nv()..a.ncols).collect();
        let ph = self.rec.open(phase, scope);
        ph.tracer()
            .time(SpanKind::SparseAnalyze, || elim.extend(a, &schur_vars))
    }

    /// The advanced coupling's factorization+Schur call on the whole
    /// stacked `W`: the factors are kept for the condensation solves.
    fn factor_w(&self, w: &Csc<T>) -> Result<(SparseFactorization<T>, Mat<T>)> {
        let sym = self.analyze(w, Phase::FactorW, TraceScope::Run)?;
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
        let sym = self.analyze(w, Phase::FactorW, scope)?;
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

    /// Shared epilogue of every algorithm: sample the tracker into the
    /// trace, then [`Self::factor_sampled_schur`].
    fn factor_schur(&self, schur: SchurAcc<T>) -> Result<(SchurFactor<T>, usize)> {
        mem_sample(self.cfg.tracer.run(), self.tracker);
        self.factor_sampled_schur(schur)
    }

    /// Factor the accumulated Schur complement under a
    /// `dense_factorization` span (the compressed backend additionally
    /// records its `hlu_factor` span inside). Also returns the bytes `S`
    /// held right before.
    fn factor_sampled_schur(&self, schur: SchurAcc<T>) -> Result<(SchurFactor<T>, usize)> {
        let schur_bytes = schur.bytes();
        // Backends without a closed form report 0, which adds no flop row:
        // the metric keys stay stable per backend.
        let flops = schur.factor_flops(self.symmetric);
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

    /// A recorder for work running beside this one's thread: totals of its
    /// own and a [`Tracer::fork`] of this one's tracer. [`Self::merge`]
    /// appends both here, as if the work had run after everything recorded
    /// here meanwhile: the totals' first-use order and the run scope's
    /// record order stay those of the sequential run.
    fn fork(&self) -> Recorder {
        Recorder {
            tracer: self.tracer.fork(),
            totals: Default::default(),
        }
    }

    /// Append what a [`Self::fork`] of this recorder recorded.
    fn merge(&self, side: Recorder) {
        for c in side.totals.into_inner() {
            self.add_total(c);
        }
        self.tracer.adopt(&side.tracer);
    }

    /// Add one measurement to its phase's total.
    fn add_total(&self, c: PhaseCost) {
        let mut totals = self.totals.lock();
        match totals.iter_mut().find(|t| t.phase == c.phase) {
            Some(t) => {
                t.time += c.time;
                t.bytes += c.bytes;
                t.flops += c.flops;
            }
            None => totals.push(c),
        }
    }

    /// Put one measurement of a phase into the totals and — the tracer
    /// enabled and the phase owning a span kind — into `scope`'s trace as
    /// that span.
    fn record(&self, scope: TraceScope, c: PhaseCost) {
        self.add_total(c);
        if let Some(kind) = c.phase.row().1 {
            let tr = self.tracer.scope(scope);
            tr.record_span(kind, c.time, c.bytes, c.flops);
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
        let time = self.started.elapsed();
        self.rec.record(self.scope, PhaseCost { time, ..self.cost });
    }
}

/// Phase recorder and wall clock of one run: a session factorization, or a
/// one-shot solve (factorization plus solution phase).
struct Run {
    rec: Recorder,
    started: Instant,
}

impl Run {
    fn start(cfg: &SolverConfig) -> Self {
        Run {
            rec: Recorder::new(&cfg.tracer),
            started: Instant::now(),
        }
    }

    /// The `Metrics` epilogue: close the run scope with the end-of-run
    /// `mem_high_water` event, and complete `shape` (what [`factor`] knows:
    /// sizes, Schur bytes, autotune and BLR summaries) with the recorder's
    /// totals, the wall time and the tracked peak. Byte and flop rows exist
    /// for the phases that counted any.
    fn finish(self, cfg: &SolverConfig, tracker: &MemTracker, shape: Metrics) -> Metrics {
        mem_sample(cfg.tracer.run(), tracker);
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
    // LDLᵀ on `A_vv` and `S`, the half-stored `S` and multi-factorization's
    // lower-triangle tiles take `symmetric` at its word: a wrong flag must
    // not reach them.
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
    let y_charge = tracker.charge(nv * ns * std::mem::size_of::<T>(), "dense Y = A_vv^-1 A_vs")?;
    // The chunked solve's lane workspaces: the first must fit, the others
    // run only as far as the budget lets them.
    let first = autotune::lane_workspace_bytes(&ws.stats(), ns.clamp(1, MAX_LANES));
    let first = tracker.charge(first, "lane workspace")?;
    let extra = ws.extra_workspaces(tracker, ns);
    let y = ws.solve_y(&fact, &ws.a_vs, 1 + extra.len(), TraceScope::Run)?;
    drop((first, extra));

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
/// it contributes to — its kernel's output holds row `rows.start` first —
/// and the bytes of its own buffers, which it reserves at admission (its
/// kernel finalizes the reservation).
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
        // the headroom the planner fitted one into (what is not committed:
        // the compressed accumulator keeps the part it set aside for its
        // folds). Starting at the model's cap skips the degrade churn.
        // Scheduling-only — fold order (and thus the result) is
        // unaffected.
        let room = tracker.available();
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
            // The working set is gone; wait for the fold holding only the block.
            slot.park(x.byte_size(), plan.what_parked)?;
            Ok(x)
        },
        |seq, schur, x| {
            let b = &blocks[seq];
            let (r0, c0) = (b.rows.start, b.cols.start);
            let (nr, nc) = (b.rows.len(), b.cols.len());
            let scope = TraceScope::Block(seq);
            ws.fold_block(schur, plan.alpha, r0, c0, x.view(0..nr, 0..nc), scope)
        },
    )
}

/// §IV-A — multi-solve: factor `A_vv` once, then assemble `S` by `n_S`-wide
/// panels, one sparse solve each (Algorithm 1; with the HMAT backend this
/// is the compressed-Schur Algorithm 2).
///
/// SPIDO subtracts every panel straight into dense `S` (`n_S = n_c`); HMAT
/// folds `n_S ≥ n_c` columns per compressed AXPY. Under `BlockSizes::Auto`
/// the autotuner halves `n_S` until one panel's working set fits the budget
/// headroom.
///
/// Unlike the paper's solver, whose API returns `Y = A_vv⁻¹·A_vs|_i` dense
/// `n_c` columns at a time, no `n_v`-row `Y` is built: each 32-column chunk
/// of a panel is solved in its own lane workspace and multiplied by `A_sv`
/// from there (`Ws::solve_spmm`). `n_c` caps the chunks that run at once at
/// `⌈n_c/32⌉`, so a panel's peak is `O(n_s·n_S + n_v·32·min(P, ⌈n_c/32⌉))`,
/// not `O(n_v·n_c)`, and every lane has the bits of its width-1 solve
/// whatever `n_c` is.
///
/// On a symmetric system `S` is half-stored, and a panel's `Z` is the lower
/// trapezoid of its columns: the rows from the first one `S` stores in the
/// panel's first column ([`SchurAcc::stored_row_floor`]) down — about half
/// the product's flops on average. Its reserve and the planner's price stay
/// at the full-height `Z`.
fn multi_solve_factors<T: Scalar>(ws: &Ws<'_, T>) -> Result<Factored<T>> {
    let (nv, ns) = (ws.nv(), ws.ns());
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
                // Z and one lane workspace: the panel charges its further
                // workspaces itself, as far as the budget lets it.
                let reserve = autotune::multi_solve_panel_reserve(&stats, cols.len());
                Block {
                    rows: schur.stored_row_floor(cols.start)..ns,
                    cols,
                    reserve,
                }
            })
            .collect(),
        alpha: -T::ONE,
        what_reserved: "Schur panel Z + lane workspace",
        what_parked: "Schur panel Z",
        autotune: planned,
    };
    let all_v: Vec<usize> = (0..nv).collect();
    let fact_r = &fact;
    let kernel = |seq: usize, b: &Block, slot: &mut Slot<'_>| -> Result<Mat<T>> {
        slot.finalize(0, plan.what_reserved)?;
        // Held until the solve has run; a refused charge leaves fewer
        // concurrent chunks, never other bits.
        let width = autotune::multi_solve_workspace_cols(n_c, b.cols.len());
        let extra = ws.extra_workspaces(slot.tracker(), width);
        // The panel's columns of A_vs as one sparse RHS, solved and
        // multiplied chunk by chunk into Z's columns.
        let cols: Vec<usize> = b.cols.clone().collect();
        let rhs = ws.a_vs.submatrix(&all_v, &cols);
        let (r0, scope) = (b.rows.start, TraceScope::Block(seq));
        let mut z = Mat::<T>::zeros(ns - r0, cols.len());
        ws.solve_spmm(fact_r, &rhs, (r0, z.as_mut()), 1 + extra.len(), scope)?;
        Ok(z)
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
///
/// That final factorization runs beside the factorization of `S` when the
/// budget holds both at once: when what the tracker has not committed
/// covers the peak `A_vv`'s analysis predicts for it, and `S`'s
/// factorization cannot grow its charge past what it holds (it can only on
/// the compressed backend under a budget). Otherwise it runs after, as on
/// one thread, where the join runs the two in that order too. Each
/// factorization's bits are its own either way, and the run scope's records
/// come in the sequential order (`Recorder::fork`).
fn multi_factorization_factors<T: Scalar>(ws: &Ws<'_, T>) -> Result<Factored<T>> {
    let (schur, decision) = multi_factorization_schur(ws)?;
    let sym = ws.analyze(ws.a_vv, Phase::FactorAvv, TraceScope::Run)?;
    let avv_peak = sym.predicted_numeric_peak_bytes(std::mem::size_of::<T>(), !ws.symmetric);
    mem_sample(ws.cfg.tracer.run(), ws.tracker);
    let ((sf, schur_bytes), fact) = if factor_beside_schur(&schur, ws.tracker, avv_peak) {
        let side = ws.rec.fork();
        let (s, f) = rayon::join(
            || ws.factor_sampled_schur(schur),
            || ws.factor_avv_analyzed(sym, &side),
        );
        ws.rec.merge(side);
        (s?, f?)
    } else {
        let s = ws.factor_sampled_schur(schur)?;
        (s, ws.factor_avv_analyzed(sym, ws.rec)?)
    };
    Ok((FactorState::Direct { fact, sf }, schur_bytes, decision))
}

/// Whether multi-factorization's final `A_vv` factorization, predicted to
/// peak at `avv_peak` bytes, may run beside the factorization of `schur`.
fn factor_beside_schur<T: Scalar>(
    schur: &SchurAcc<T>,
    tracker: &MemTracker,
    avv_peak: usize,
) -> bool {
    !schur.factor_may_grow() && avv_peak <= tracker.available()
}

/// The assembled (not yet factored) `S` of multi-factorization, from an
/// `n_b × n_b` tile grid over the surface unknowns.
///
/// `W` is unsymmetric (paper: "except when i = j") and factored in the
/// unsymmetric solver mode — whose duplicated factor storage the paper
/// identifies as multi-factorization's memory weakness. A symmetric system
/// has `X_ji = X_ijᵀ` (`A_vv = A_vvᵀ`, `A_vs = A_svᵀ`) and a half-stored
/// `S` on both backends, so only its lower-triangle tiles (`i ≥ j`,
/// `n_b(n_b+1)/2` of the `n_b²`) are computed, each folded once, and its
/// diagonal tiles — symmetric like the advanced coupling's `W` — are
/// factored in LDLᵀ mode.
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
    let cfg = ws.cfg;
    // Every tile's analysis — the planner's and the pipeline's — extends
    // `A_vv`'s elimination structure, built here on the driver's thread.
    ws.elimination(Phase::FactorW, TraceScope::Run)?;
    let schur = ws.init_schur()?;

    // Under `BlockSizes::Auto` the autotuner grows the tile grid (shrinks
    // the tiles) until every tile it would run fits the budget headroom.
    let planned = match cfg.block_sizes {
        BlockSizes::Auto => Some(autotune::plan_multi_factorization(
            ws.ns(),
            cfg,
            ws.tracker,
            |n_b, room| tile_grid_price(ws, n_b, room),
        )?),
        _ => None,
    };
    let n_b = match &planned {
        Some((d, _)) => d.n_b,
        None => cfg.n_b.clamp(1, ws.ns().max(1)),
    };
    let plan = Blockwise {
        blocks: multi_factorization_tiles(ws, n_b),
        alpha: T::ONE,
        what_reserved: "stacked W + Schur block X_ij",
        what_parked: "dense Schur block X_ij",
        autotune: planned,
    };
    let kernel = |seq: usize, b: &Block, slot: &mut Slot<'_>| -> Result<Mat<T>> {
        let scope = TraceScope::Block(seq);
        let (w, symmetry) = tile_w(ws, b, scope);
        // Each call re-factorizes A_vv numerically — the superfluous work
        // the method trades for memory (hence its name); its analysis only
        // extends the run's one elimination structure.
        ws.tile_schur(&w, seq, symmetry, slot)
    };
    let schur = assemble_blockwise(ws, schur, &plan, kernel)?;
    Ok((schur, planned.map(|(d, _)| d)))
}

/// The tiles of an `n_b × n_b` grid over the surface unknowns — on a
/// symmetric system the lower triangle's alone — each reserving at
/// admission its stacked `W` (values + row indices + column pointers;
/// square, padded when the edge blocks differ in size) and its dense Schur
/// output `X_ij`. The pipeline runs these tiles and the planner prices them.
fn multi_factorization_tiles<T: Scalar>(ws: &Ws<'_, T>, n_b: usize) -> Vec<Block> {
    let (nv, ns) = (ws.nv(), ws.ns());
    let elem = std::mem::size_of::<T>();
    let idx = std::mem::size_of::<usize>();
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
    (0..ranges.len().pow(2))
        .map(|t| (t / ranges.len(), t % ranges.len()))
        .filter(|&(i, j)| !ws.symmetric || i >= j)
        .map(|(i, j)| {
            let (rows, cols) = (ranges[i].clone(), ranges[j].clone());
            let m = rows.len().max(cols.len());
            let nnz = ws.a_vv.nnz() + nnz_sv[i] + nnz_vs(&cols);
            let reserve = nnz * (elem + idx) + (nv + m + 1) * idx + m * m * elem;
            Block {
                rows,
                cols,
                reserve,
            }
        })
        .collect()
}

/// The stacked `W = [A_vv A_vs|_j ; A_sv|_i 0]` of tile `b`, assembled in
/// `scope`, and the mode it is factored in: a diagonal tile has the coupled
/// system's symmetry; an off-diagonal one is unsymmetric whatever the
/// system is.
fn tile_w<T: Scalar>(ws: &Ws<'_, T>, b: &Block, scope: TraceScope) -> (Csc<T>, Symmetry) {
    let all_v: Vec<usize> = (0..ws.nv()).collect();
    let rows: Vec<usize> = b.rows.clone().collect();
    let cols: Vec<usize> = b.cols.clone().collect();
    let a_sv_i = ws.a_sv.submatrix(&rows, &all_v);
    let a_vs_j = ws.a_vs.submatrix(&all_v, &cols);
    let symmetry = if b.rows == b.cols {
        ws.symmetry()
    } else {
        Symmetry::UnsymmetricLu
    };
    (ws.assemble_w(&a_vs_j, &a_sv_i, scope), symmetry)
}

/// The planner's price of an `n_b` grid: the largest whole-tile bytes —
/// admission reserve plus the finalize bound of the tile's own symbolic
/// analysis, what `Ws::tile_schur` sets aside — over the tiles the pipeline
/// would run, or those of the first tile found over `room`. Structural and
/// deterministic; the analyses are recorded in the run scope.
fn tile_grid_price<T: Scalar>(ws: &Ws<'_, T>, n_b: usize, room: usize) -> Result<usize> {
    let mut price = 0;
    for b in multi_factorization_tiles(ws, n_b) {
        let (w, _) = tile_w(ws, &b, TraceScope::Run);
        let sym = ws.analyze(&w, Phase::FactorW, TraceScope::Run)?;
        let need = b.reserve + sym.predicted_schur_peak_bytes(std::mem::size_of::<T>());
        if need > room {
            return Ok(need);
        }
        price = price.max(need);
    }
    Ok(price)
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
    use csolve_common::{RealScalar, C64};

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
                let x = x.view(0..rows.len(), 0..cols.len());
                schur.axpy_block(1.0, rows[0], cols[0], x, cfg.eps).unwrap();
            }
        }
        schur.to_dense()
    }

    /// Discarding `W`'s factors leaves every tile's `X_ij` where it was:
    /// multi-factorization's SPIDO `S` is, bit for bit, the one folded from
    /// factor-keeping `factorize_schur` calls — symmetric (lower tiles into
    /// the half-stored `S`) and unsymmetric (full grid), short edge tiles
    /// included.
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

    /// A symmetric system's half-stored `S` is assembled from its
    /// lower-triangle tiles alone, each folded once, and is complete: it is
    /// what the full grid of an unflagged copy of the system assembles in
    /// full storage — also when `n_b` does not divide `n_s` (rectangular
    /// edge tiles). Read out in full, it is its own transpose bit for bit.
    #[test]
    fn a_symmetric_schur_is_assembled_exactly_from_its_lower_triangle() {
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
                    "n_b = {n_b} / {}: half-stored S is off the full grid's by {:.3e}",
                    backend.name(),
                    d.norm_max()
                );
            }
        }
    }

    /// The planner prices a grid at exactly what the pipeline sets aside
    /// for its costliest tile — admission reserve plus finalize bound: at
    /// one thread on SPIDO (no accumulator growth) the fixed-blocking
    /// pipeline completes on the `S` it holds plus that price, peaking at
    /// exactly the budget, and fails a byte below it. That tile is not the
    /// corner one: on the symmetric pipe the off-diagonal tiles couple two
    /// surface ranges.
    #[test]
    fn a_grid_is_priced_at_its_costliest_tile() {
        let p = csolve_fembem::pipe_problem::<f64>(1_500);
        let one = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        for n_b in [2, 3, 4, 8] {
            let cfg = SolverConfig {
                eps: 1e-10,
                dense_backend: DenseBackend::Spido,
                n_b,
                ..Default::default()
            };
            let run = Run::start(&cfg);
            let unbounded = MemTracker::unbounded();
            let ws = Ws::new(&p, &cfg, &unbounded, &run.rec);
            let price = tile_grid_price(&ws, n_b, usize::MAX).unwrap();
            // With no room the price stops at the first tile, the corner.
            let corner = tile_grid_price(&ws, n_b, 0).unwrap();
            assert!(
                corner < price,
                "n_b = {n_b}: the corner tile is the costliest"
            );
            let schur = ws.init_schur().unwrap();
            let s_bytes = unbounded.live();
            drop(schur);
            for (budget, fits) in [(s_bytes + price, true), (s_bytes + price - 1, false)] {
                let tracker = MemTracker::with_budget(budget);
                let ws = Ws::new(&p, &cfg, &tracker, &run.rec);
                match one.install(|| multi_factorization_schur(&ws)) {
                    Ok(_) => {
                        assert!(fits, "n_b = {n_b}: ran a byte under its price");
                        assert_eq!(tracker.peak(), budget, "n_b = {n_b}");
                    }
                    Err(e) => assert!(!fits && e.is_oom(), "n_b = {n_b}: {e}"),
                }
            }
        }
    }

    /// Every sparse analysis of a run extends one elimination structure of
    /// `A_vv`: one ordering per solve — on every coupling, and under `Auto`
    /// however many grids the planner prices. Multi-factorization analyses
    /// each tile it runs or prices, and `A_vv`, on it.
    #[test]
    fn a_solve_orders_a_vv_once() {
        let p = csolve_fembem::pipe_problem::<f64>(1_500);
        let count = |algo: Algorithm, cfg: SolverConfig| {
            let tracer = Tracer::enabled();
            let cfg = SolverConfig {
                tracer: tracer.clone(),
                ..cfg
            };
            solve(&p, algo, &cfg).unwrap();
            let trace = tracer.drain();
            let spans = |kind: SpanKind| {
                let is = |r: &&csolve_common::TraceRecord| {
                    r.payload.is_span() && r.payload.kind_name() == kind.name()
                };
                trace.iter().filter(is).count()
            };
            (
                spans(SpanKind::SparseOrdering),
                spans(SpanKind::SparseAnalyze),
            )
        };
        let base = SolverConfig {
            eps: 1e-8,
            dense_backend: DenseBackend::Spido,
            n_b: 3,
            ..Default::default()
        };
        // Six lower-triangle tiles, then A_vv.
        let fixed = count(Algorithm::MultiFactorization, base.clone());
        assert_eq!(fixed, (1, 7));
        for algo in Algorithm::ALL {
            assert_eq!(count(algo, base.clone()).0, 1, "{algo:?}");
        }
        // A budget under the configured grid's price: the planner prices
        // more than one grid, each tile on the same structure.
        let unbounded = solve(&p, Algorithm::MultiFactorization, &base).unwrap();
        let auto = SolverConfig {
            block_sizes: BlockSizes::Auto,
            mem_budget: Some(unbounded.metrics.peak_bytes * 9 / 10),
            ..base
        };
        let (orderings, analyses) = count(Algorithm::MultiFactorization, auto);
        assert_eq!(orderings, 1);
        assert!(analyses > 7, "{analyses} analyses: no grid was refused");
    }

    /// Whether multi-factorization on `p` under `cfg` factors `A_vv` beside
    /// `S`, probed at the point the driver decides it.
    fn factors_a_vv_beside_s(p: &CoupledProblem<f64>, cfg: &SolverConfig) -> bool {
        let run = Run::start(cfg);
        let tracker = match cfg.mem_budget {
            Some(b) => MemTracker::with_budget(b),
            None => MemTracker::unbounded(),
        };
        let ws = Ws::new(p, cfg, &tracker, &run.rec);
        let (schur, _) = multi_factorization_schur(&ws).unwrap();
        let sym = ws
            .analyze(ws.a_vv, Phase::FactorAvv, TraceScope::Run)
            .unwrap();
        let avv_peak = sym.predicted_numeric_peak_bytes(8, !ws.symmetric);
        factor_beside_schur(&schur, &tracker, avv_peak)
    }

    /// Multi-factorization at 1, 2, 4 and 8 threads: the same solution, bit
    /// for bit, and the same run-scope record stream. Returns the 1-thread
    /// tracked peak and the solution's bits.
    fn multi_factorization_is_bitwise(
        p: &CoupledProblem<f64>,
        cfg: &SolverConfig,
    ) -> (usize, Vec<u64>) {
        let mut first: Option<(Vec<u64>, Vec<String>)> = None;
        let mut peak = 0;
        for threads in [1, 2, 4, 8] {
            let tracer = Tracer::enabled();
            let cfg = SolverConfig {
                num_threads: threads,
                tracer: tracer.clone(),
                ..cfg.clone()
            };
            let out = solve(p, Algorithm::MultiFactorization, &cfg).unwrap();
            let bits = out.xv.iter().chain(&out.xs).map(|v| v.to_bits()).collect();
            let run_scope = tracer
                .drain()
                .into_iter()
                .filter(|r| r.scope == TraceScope::Run)
                .map(|r| r.payload.kind_name().to_string())
                .collect();
            if threads == 1 {
                peak = out.metrics.peak_bytes;
            }
            match &first {
                None => first = Some((bits, run_scope)),
                Some((b, r)) => {
                    assert!(*b == bits, "{threads} threads: the solution moved");
                    assert_eq!(*r, run_scope, "{threads} threads: run-scope records");
                }
            }
        }
        (peak, first.unwrap().0)
    }

    /// `A_vv` factored beside `S` — the dense backend, the compressed one
    /// with no budget, symmetric and not — gives every thread count the
    /// bits and the run-scope records of the one-thread run, which runs the
    /// two in the sequential order.
    #[test]
    fn a_vv_beside_s_is_bitwise_at_every_thread_count() {
        let sym = csolve_fembem::pipe_problem::<f64>(1_500);
        let mut unsym = csolve_fembem::pipe_problem::<f64>(1_500);
        unsym.symmetric = false;
        for backend in DenseBackend::ALL {
            for p in [&sym, &unsym] {
                let cfg = SolverConfig {
                    eps: 1e-10,
                    dense_backend: backend,
                    n_b: 2,
                    ..Default::default()
                };
                assert!(factors_a_vv_beside_s(p, &cfg));
                multi_factorization_is_bitwise(p, &cfg);
            }
        }
    }

    /// A budget that holds `A_vv`'s factorization after `S`'s but not beside
    /// it — the run's own one-thread peak, set by `A_vv`'s BLR factors,
    /// which compress below the uncompressed prediction the overlap is
    /// priced at — or a budgeted compressed `S`, whose H-LU may grow: the
    /// sequential order, bitwise at every thread count, and on the dense
    /// backend the overlap's bits and one-thread peak.
    #[test]
    fn a_vv_after_s_under_a_budget_is_bitwise_at_every_thread_count() {
        let p = csolve_fembem::pipe_problem::<f64>(3_000);
        let cfg = SolverConfig {
            eps: 1e-8,
            sparse_eps: Some(1e-4),
            dense_backend: DenseBackend::Spido,
            n_b: 32,
            ..Default::default()
        };
        assert!(factors_a_vv_beside_s(&p, &cfg));
        let (peak, bits) = multi_factorization_is_bitwise(&p, &cfg);
        let tight = SolverConfig {
            mem_budget: Some(peak),
            ..cfg.clone()
        };
        assert!(!factors_a_vv_beside_s(&p, &tight));
        assert!(multi_factorization_is_bitwise(&p, &tight) == (peak, bits));

        let hmat = SolverConfig {
            dense_backend: DenseBackend::Hmat,
            mem_budget: Some(usize::MAX / 2),
            n_b: 2,
            ..cfg
        };
        assert!(!factors_a_vv_beside_s(&p, &hmat));
        multi_factorization_is_bitwise(&p, &hmat);
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

    /// Widths of the fused-`Z` cells: one lane, a chunk but one, a whole
    /// chunk, a chunk and one, two chunks and one.
    const FUSED_WIDTHS: [usize; 5] = [1, 31, 32, 33, 65];

    /// Multi-solve's fused `Z` against the unfused pair — `solve_sparse_rhs`,
    /// then `mul_dense` — bit for bit, in full and from a row on: for every
    /// width, on each
    /// `(threads, workspaces)` pool, its extra lane workspaces charged to
    /// `workspaces`. Returns the group counts the fused solves ran with.
    fn check_fused_z<T: Scalar>(
        p: &CoupledProblem<T>,
        cells: &[(usize, Arc<MemTracker>)],
    ) -> Vec<usize> {
        let cfg = SolverConfig::default();
        let run = Run::start(&cfg);
        let tracker = MemTracker::unbounded();
        let ws = Ws::new(p, &cfg, &tracker, &run.rec);
        let fact = ws.factor_avv().unwrap();
        let (nv, ns) = (ws.nv(), ws.ns());
        assert!(ns >= 65, "the surface must hold the widest cell");
        let all_v: Vec<usize> = (0..nv).collect();
        let bits = |m: &Mat<T>| {
            let f = |v: T::Real| v.to_f64().to_bits();
            m.data()
                .iter()
                .map(|v| (f(v.real()), f(v.imag())))
                .collect::<Vec<_>>()
        };
        let mut groups = Vec::new();
        for w in FUSED_WIDTHS {
            let cols: Vec<usize> = (ns - w..ns).collect();
            let rhs = ws.a_vs.submatrix(&all_v, &cols);
            let y = fact.solve_sparse_rhs(&rhs).unwrap();
            let mut want = Mat::<T>::zeros(ns, w);
            ws.a_sv
                .mul_dense(T::ONE, y.as_ref(), T::ZERO, want.as_mut());
            for (threads, workspaces) in cells {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(*threads)
                    .build()
                    .unwrap();
                // The full height, and a lower trapezoid's rows r0.. alone.
                for r0 in [0, ns / 3] {
                    let mut z = Mat::<T>::zeros(ns - r0, w);
                    pool.install(|| {
                        let extra = ws.extra_workspaces(workspaces, w);
                        if r0 == 0 {
                            groups.push(1 + extra.len());
                        }
                        let z = (r0, z.as_mut());
                        ws.solve_spmm(&fact, &rhs, z, 1 + extra.len(), TraceScope::Run)
                    })
                    .unwrap();
                    let want = want.submatrix(r0..ns, 0..w);
                    assert!(
                        bits(&z) == bits(&want),
                        "width {w}, rows {r0}.., {threads} thr"
                    );
                }
            }
        }
        groups
    }

    #[test]
    fn fused_z_is_mul_dense_of_solve_sparse_rhs_bitwise_at_every_thread_count() {
        let cells = [1, 2, 4, 8].map(|t| (t, MemTracker::unbounded()));
        let groups = check_fused_z(&csolve_fembem::pipe_problem::<f64>(1_200), &cells);
        check_fused_z(&csolve_fembem::industrial_problem::<C64>(900), &cells);
        // One group per chunk the pool has a thread for: min(threads, ⌈w/32⌉).
        let want: Vec<usize> = FUSED_WIDTHS
            .iter()
            .flat_map(|w| [1, 2, 4, 8].map(|t| t.min(w.div_ceil(32))))
            .collect();
        assert_eq!(groups, want);
    }

    #[test]
    fn fused_z_is_bitwise_when_the_budget_refuses_every_extra_workspace() {
        // A refused charge narrows the solve to the workspaces it holds.
        let cells = [8, 4].map(|t| (t, MemTracker::with_budget(0)));
        let groups = check_fused_z(&csolve_fembem::pipe_problem::<f64>(1_200), &cells);
        check_fused_z(&csolve_fembem::industrial_problem::<C64>(900), &cells);
        assert!(groups.iter().all(|&g| g == 1), "{groups:?}");
    }
}
