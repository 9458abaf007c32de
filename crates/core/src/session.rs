//! `SolverSession` — an amortizing front-end over [`crate::solve`] for
//! workloads that solve the *same* coupled matrix against many right-hand
//! sides (frequency sweeps, load cases, adjoint solves).
//!
//! The one-shot [`crate::solve`] re-runs the expensive factorization phase
//! (sparse `A_vv`, Schur assembly, dense/compressed `S` factorization) on
//! every call even when only the right-hand side changed. A session fixes
//! that with three cooperating layers:
//!
//! * **Factorization cache** — entries keyed by a seeded fingerprint
//!   over the matrix *structure and values* plus every configuration knob
//!   that affects factorization bits (see
//!   [`SolverConfig::fingerprint_knobs`]); every `submit` reads every word
//!   (it is handed a `&CoupledProblem` and cannot see an in-place edit),
//!   each array over independent hash lanes. Same fingerprint ⇒ the cached
//!   factors are reused and the solve skips straight to the triangular
//!   phase. Entries stay byte-accounted on the session's [`MemTracker`]
//!   for their whole cached lifetime (the factors hold their `MemCharge`s;
//!   the side structures are charged at insert) and are evicted
//!   least-recently-used when a factorization or admission cannot fit the
//!   budget, [`SolverConfig::mem_budget`].
//! * **Batching** — individually [`SolverSession::submit`]ted right-hand
//!   sides are coalesced into multi-column panels and pushed through the
//!   BLAS-3 multi-RHS solve path, then demuxed per request. Panels flush
//!   when [`SessionBuilder::max_batch`] requests are queued, or explicitly
//!   via [`SolverSession::flush`]. Every solve-phase kernel is
//!   *column-separable*: blocks of right-hand sides share each load of the
//!   factors, yet every column goes through exactly the operation sequence
//!   of a one-column solve. Every solve has that by layout — the sparse,
//!   dense and H-matrix solves alike, a column is one lane of a row-major
//!   workspace ([`csolve_dense::lane`]), so they may hand column groups of
//!   one panel to different threads without changing a bit — and the
//!   coupling products run column by column; no mode exists to enter. So
//!   every demuxed solution is **bitwise identical** to the sequential
//!   one-request path at any panel width and any thread count.
//! * **Admission control** — each panel's working set is charged against
//!   the memory budget before it runs. Under pressure the session degrades
//!   gracefully: it first shrinks the panel width (halving until the
//!   reservation fits), then evicts cache entries, and only when a
//!   single-column solve still cannot fit returns a structured
//!   [`Error::OutOfMemory`] — never a panic, never a silently wrong answer.
//!
//! Per-request telemetry (cache hit/miss, batch width, queue wait) is
//! returned in [`RequestInfo`], aggregated in [`SessionStats`] (exported
//! as the `session` section of [`RunReport`]), and traced as
//! `session_cache_hit` / `session_cache_miss` / `session_evict` /
//! `session_batch` events. All four events are emitted from the submitting
//! thread at deterministic points, so their order and count are invariant
//! under the worker thread count.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use crate::config::{Algorithm, Metrics, SolverConfig};
use crate::driver::{factorize_session, worker_pool, Recorder, SessionFactors};
use crate::report::RunReport;
use csolve_common::{Error, MemCharge, MemTracker, RealScalar, Result, Scalar, TraceEventKind};
use csolve_fembem::CoupledProblem;
use csolve_sparse::Csc;

/// Identifier of one submitted right-hand side, in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(u64);

/// Per-request telemetry of one session solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestInfo {
    /// Whether the factorization came from the session cache.
    pub cache_hit: bool,
    /// Width of the coalesced panel this request was solved in.
    pub batch_width: usize,
    /// Seconds between submission and the start of the panel solve.
    pub queue_wait_secs: f64,
}

/// The solution of one session request.
#[derive(Debug, Clone)]
pub struct SessionSolve<T> {
    /// The request this solution answers.
    pub id: RequestId,
    /// Volume solution (original ordering).
    pub xv: Vec<T>,
    /// Surface solution (original ordering).
    pub xs: Vec<T>,
    /// Cache/batching/queue telemetry of this request.
    pub info: RequestInfo,
}

/// Aggregate telemetry of a session, exported as the `session` section of
/// [`RunReport`] (see [`RunReport::with_session`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionStats {
    /// Right-hand sides submitted.
    pub requests: u64,
    /// Requests served from cached factors.
    pub cache_hits: u64,
    /// Requests that triggered a factorization.
    pub cache_misses: u64,
    /// Cache entries evicted under memory pressure (or fault injection).
    pub evictions: u64,
    /// Coalesced panels solved.
    pub batches: u64,
    /// Widest panel solved so far.
    pub max_batch_width: usize,
    /// Total seconds requests spent queued before their panel started.
    pub total_queue_wait_secs: f64,
    /// Cache entries currently resident.
    pub cache_entries: usize,
    /// Bytes the resident cache entries account for.
    pub cache_bytes: usize,
    /// Peak tracked bytes over the session's lifetime.
    pub peak_bytes: usize,
}

/// Cheap structural summary used as a guard against fingerprint
/// collisions: two different systems that hash to the same key are still
/// told apart (and cached separately) when any of these differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StructSummary {
    nv: usize,
    ns: usize,
    nnz_avv: usize,
    nnz_asv: usize,
    nnz_avs: usize,
    symmetric: bool,
}

impl StructSummary {
    fn of<T: Scalar>(problem: &CoupledProblem<T>) -> Self {
        StructSummary {
            nv: problem.n_fem(),
            ns: problem.n_bem(),
            nnz_avv: problem.a_vv.nnz(),
            nnz_asv: problem.a_sv.nnz(),
            nnz_avs: problem.a_vs.nnz(),
            symmetric: problem.symmetric,
        }
    }
}

/// Seeded splitmix64-style running hash (dependency-free; not
/// cryptographic — the [`StructSummary`] guard backstops collisions).
struct Fp(u64);

/// Independent lanes [`Fp::push_words`] spreads an array over. One chain of
/// dependent multiplies leaves the multiplier idle most of the time, and the
/// fingerprint runs on every `submit`. Measured on pipe-16k (≈ 330 k words
/// for a real `T`), one whole `submit`: 0.69 ms with 1 lane, 0.22 ms with 4,
/// 0.20 ms with 8 and with 16 (what is left is reading the arrays and
/// copying the right-hand side); the three-multiply chain this replaced
/// took 2.15 ms.
const FP_LANES: usize = 8;

impl Fp {
    const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

    fn new() -> Self {
        Fp(Self::SEED)
    }

    fn push(&mut self, v: u64) {
        let mut z = self
            .0
            .wrapping_add(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(v.wrapping_mul(0xff51_afd7_ed55_8ccd));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }

    fn push_f64(&mut self, v: f64) {
        self.push(v.to_bits());
    }

    fn push_scalar<T: Scalar>(&mut self, v: T) {
        self.push_f64(v.real().to_f64());
        self.push_f64(v.imag().to_f64());
    }

    /// Hash the array `word(0), …, word(n − 1)`: word `i` goes to lane
    /// `i mod FP_LANES`, each lane a one-multiply chain (a bijection of its
    /// state for every word, so changing one word always changes its lane);
    /// then `n` and the lanes are pushed in lane order.
    fn push_words(&mut self, n: usize, word: impl Fn(usize) -> u64) {
        let mut lanes: [u64; FP_LANES] = std::array::from_fn(|l| Self::SEED ^ (l as u64 + 1));
        let mix = |h: u64, v: u64| {
            let z = (h ^ v).wrapping_mul(0xff51_afd7_ed55_8ccd);
            z ^ (z >> 32)
        };
        let whole = n - n % FP_LANES;
        for i in (0..whole).step_by(FP_LANES) {
            for (l, h) in lanes.iter_mut().enumerate() {
                *h = mix(*h, word(i + l));
            }
        }
        for i in whole..n {
            lanes[i - whole] = mix(lanes[i - whole], word(i));
        }
        self.push(n as u64);
        for h in lanes {
            self.push(h);
        }
    }

    /// Real parts, then (for complex `T`) imaginary parts of `values`, one
    /// array each.
    fn push_values<T: Scalar>(&mut self, values: &[T]) {
        self.push_words(values.len(), |i| values[i].real().to_f64().to_bits());
        if T::IS_COMPLEX {
            self.push_words(values.len(), |i| values[i].imag().to_f64().to_bits());
        }
    }

    fn push_csc<T: Scalar>(&mut self, a: &Csc<T>) {
        self.push(a.nrows as u64);
        self.push(a.ncols as u64);
        self.push_words(a.colptr.len(), |i| a.colptr[i] as u64);
        self.push_words(a.rowidx.len(), |i| a.rowidx[i] as u64);
        self.push_values(&a.values);
    }
}

/// The session cache key: a seeded hash over the matrix structure (column
/// pointers, row indices), the value bits of all three sparse blocks, the
/// BEM operator's data (points, wavenumber, smoothing, scale, diagonal),
/// the symmetry flag, the algorithm, and every factorization-affecting
/// configuration knob ([`SolverConfig::fingerprint_knobs`]).
///
/// Deliberately *excluded*: the right-hand side (the whole point of the
/// cache), the memory budget, thread counts, and the tracer — none of
/// which change the factorization bits.
pub(crate) fn fingerprint<T: Scalar>(
    problem: &CoupledProblem<T>,
    algo: Algorithm,
    cfg: &SolverConfig,
) -> u64 {
    #[cfg(feature = "fault-inject")]
    if crate::fault::fingerprint_collision_armed() {
        return 0xC0_11_1D_E5;
    }
    let mut h = Fp::new();
    h.push(match algo {
        Algorithm::BaselineCoupling => 1,
        Algorithm::AdvancedCoupling => 2,
        Algorithm::MultiSolve => 3,
        Algorithm::MultiFactorization => 4,
    });
    for k in cfg.fingerprint_knobs() {
        h.push(k);
    }
    h.push(problem.symmetric as u64);
    h.push_csc(&problem.a_vv);
    h.push_csc(&problem.a_sv);
    h.push_csc(&problem.a_vs);
    let bem = &problem.bem;
    h.push_words(3 * bem.points.len(), |i| {
        let p = &bem.points[i / 3];
        [p.x, p.y, p.z][i % 3].to_bits()
    });
    h.push_f64(bem.kappa);
    h.push_f64(bem.delta);
    h.push_f64(bem.scale);
    h.push_scalar(bem.diag);
    h.0
}

/// One resident cache entry. The factors keep their own `MemCharge`s; the
/// side structures (permuted coupling blocks, cluster permutation) are
/// covered by `_side_charge`, so dropping the entry releases everything it
/// accounted for — as soon as no in-flight request still holds the `Arc`.
struct CacheEntry<T: Scalar> {
    key: u64,
    summary: StructSummary,
    factors: Arc<SessionFactors<T>>,
    _side_charge: MemCharge,
    last_used: u64,
}

/// A submitted right-hand side waiting for its panel.
struct Pending<T: Scalar> {
    id: RequestId,
    factors: Arc<SessionFactors<T>>,
    b_v: Vec<T>,
    b_s: Vec<T>,
    enqueued: Instant,
    cache_hit: bool,
}

/// Builder for [`SolverSession`]. The algorithm and configuration are
/// fixed per session (they are part of the cache key; the configuration's
/// `mem_budget` is the session's budget); tracker sharing and batching
/// knobs are optional.
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    config: SolverConfig,
    algorithm: Algorithm,
    shared_tracker: Option<Arc<MemTracker>>,
    max_batch: usize,
}

impl SessionBuilder {
    /// Start a builder for the given algorithm and configuration.
    pub fn new(config: SolverConfig, algorithm: Algorithm) -> Self {
        SessionBuilder {
            config,
            algorithm,
            shared_tracker: None,
            max_batch: 0,
        }
    }

    /// Share an existing tracker (e.g. between several sessions splitting
    /// one machine budget). Takes precedence over the configuration's
    /// `mem_budget`.
    pub fn shared_tracker(mut self, tracker: Arc<MemTracker>) -> Self {
        self.shared_tracker = Some(tracker);
        self
    }

    /// Maximum requests coalesced into one solve panel (`0`, the default,
    /// uses the configuration's `n_c` — the paper's sparse-solve panel
    /// width). Submitting this many queued requests auto-flushes.
    pub fn max_batch(mut self, width: usize) -> Self {
        self.max_batch = width;
        self
    }

    /// Build the session (validates the configuration and spawns the
    /// session's worker pool).
    pub fn build<T: Scalar>(self) -> Result<SolverSession<T>> {
        self.config.validate()?;
        let pool = worker_pool(&self.config)?;
        let tracker = match (&self.shared_tracker, self.config.mem_budget) {
            (Some(t), _) => Arc::clone(t),
            (None, Some(b)) => MemTracker::with_budget(b),
            (None, None) => MemTracker::unbounded(),
        };
        let max_batch = if self.max_batch > 0 {
            self.max_batch
        } else {
            self.config.n_c.max(1)
        };
        Ok(SolverSession {
            rec: Recorder::new(&self.config.tracer),
            cfg: self.config,
            algo: self.algorithm,
            tracker,
            pool,
            max_batch,
            cache: Vec::new(),
            clock: 0,
            next_id: 0,
            pending: Vec::new(),
            completed: Vec::new(),
            stats: SessionStats::default(),
            last_metrics: None,
        })
    }
}

/// A solver session: factorization cache + right-hand-side batching +
/// budget admission over one algorithm/configuration pair. See the
/// [module docs](self) for the full contract.
///
/// # Examples
///
/// ```
/// use csolve_coupled::{Algorithm, SessionBuilder, SolverConfig};
///
/// let problem = csolve_fembem::pipe_problem::<f64>(600);
/// let mut session = SessionBuilder::new(SolverConfig::default(), Algorithm::MultiSolve)
///     .build::<f64>()
///     .unwrap();
/// // First solve factorizes; the second reuses the cached factors.
/// let s1 = session.solve(&problem, &problem.b_v, &problem.b_s).unwrap();
/// let s2 = session.solve(&problem, &problem.b_v, &problem.b_s).unwrap();
/// assert!(!s1.info.cache_hit);
/// assert!(s2.info.cache_hit);
/// assert_eq!(s1.xv, s2.xv);
/// ```
pub struct SolverSession<T: Scalar> {
    cfg: SolverConfig,
    /// Records the solution phases of every panel as spans into
    /// `cfg.tracer`.
    rec: Recorder,
    algo: Algorithm,
    tracker: Arc<MemTracker>,
    pool: rayon::ThreadPool,
    max_batch: usize,
    cache: Vec<CacheEntry<T>>,
    /// Logical LRU clock (bumped per submit; deterministic, unlike wall
    /// time).
    clock: u64,
    next_id: u64,
    pending: Vec<Pending<T>>,
    completed: Vec<SessionSolve<T>>,
    stats: SessionStats,
    last_metrics: Option<Metrics>,
}

impl<T: Scalar> SolverSession<T> {
    /// Submit one right-hand side for the given problem. Resolves the
    /// factorization immediately (cache hit, or miss + factorize with LRU
    /// eviction under budget pressure) and queues the request; the queue
    /// auto-flushes into [`SolverSession::flush`]'s buffer when it reaches
    /// the batch width.
    pub fn submit(
        &mut self,
        problem: &CoupledProblem<T>,
        b_v: &[T],
        b_s: &[T],
    ) -> Result<RequestId> {
        if b_v.len() != problem.n_fem() || b_s.len() != problem.n_bem() {
            return Err(Error::DimensionMismatch {
                context: "session submit",
                expected: (problem.n_fem(), problem.n_bem()),
                got: (b_v.len(), b_s.len()),
            });
        }
        #[cfg(feature = "fault-inject")]
        if crate::fault::session_evict_all_armed() {
            while self.evict_lru() {}
        }
        let key = fingerprint(problem, self.algo, &self.cfg);
        let summary = StructSummary::of(problem);
        self.clock += 1;
        let clock = self.clock;
        let hit_idx = self
            .cache
            .iter()
            .position(|e| e.key == key && e.summary == summary);
        let (factors, cache_hit) = match hit_idx {
            Some(i) => {
                self.cache[i].last_used = clock;
                self.stats.cache_hits += 1;
                self.cfg
                    .tracer
                    .run()
                    .event(TraceEventKind::SessionCacheHit { fingerprint: key });
                (Arc::clone(&self.cache[i].factors), true)
            }
            None => {
                self.stats.cache_misses += 1;
                self.cfg
                    .tracer
                    .run()
                    .event(TraceEventKind::SessionCacheMiss { fingerprint: key });
                (self.factorize_entry(problem, key, summary, clock)?, false)
            }
        };
        self.stats.requests += 1;
        self.next_id += 1;
        let id = RequestId(self.next_id);
        self.pending.push(Pending {
            id,
            factors,
            b_v: b_v.to_vec(),
            b_s: b_s.to_vec(),
            enqueued: Instant::now(),
            cache_hit,
        });
        if self.pending.len() >= self.max_batch {
            self.flush_pending()?;
        }
        Ok(id)
    }

    /// Solve every queued request and return all completed solutions in
    /// submission order (including results of earlier auto-flushes not yet
    /// collected).
    ///
    /// On error the failed panel's requests (and any still-queued ones)
    /// are dropped — resubmit to retry; the cache itself is never
    /// corrupted by a failed solve.
    pub fn flush(&mut self) -> Result<Vec<SessionSolve<T>>> {
        self.flush_pending()?;
        let mut out = std::mem::take(&mut self.completed);
        out.sort_by_key(|s| s.id);
        Ok(out)
    }

    /// Convenience: submit one right-hand side and solve through to its
    /// result (flushing anything already queued along the way). Results of
    /// co-flushed earlier submissions stay buffered for the next
    /// [`SolverSession::flush`].
    pub fn solve(
        &mut self,
        problem: &CoupledProblem<T>,
        b_v: &[T],
        b_s: &[T],
    ) -> Result<SessionSolve<T>> {
        let id = self.submit(problem, b_v, b_s)?;
        self.flush_pending()?;
        let idx = self
            .completed
            .iter()
            .position(|s| s.id == id)
            .ok_or(Error::Internal {
                context: "flushed session request has no solution",
            })?;
        Ok(self.completed.swap_remove(idx))
    }

    /// Requests queued but not yet solved.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Factorizations currently cached.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Bytes the resident cache entries account for.
    pub fn cache_bytes(&self) -> usize {
        self.cache.iter().map(|e| e.factors.entry_bytes()).sum()
    }

    /// The session's memory tracker (shared with every factorization and
    /// admitted panel; pass to [`SessionBuilder::shared_tracker`] to split
    /// one budget across sessions).
    pub fn tracker(&self) -> &Arc<MemTracker> {
        &self.tracker
    }

    /// Aggregate telemetry snapshot (live cache/peak numbers included).
    pub fn stats(&self) -> SessionStats {
        let mut s = self.stats.clone();
        s.cache_entries = self.cache.len();
        s.cache_bytes = self.cache_bytes();
        s.peak_bytes = self.tracker.peak();
        s
    }

    /// Metrics of the most recent factorization (`None` before the first
    /// cache miss).
    pub fn last_metrics(&self) -> Option<&Metrics> {
        self.last_metrics.as_ref()
    }

    /// A [`RunReport`] of the most recent factorization with the session's
    /// aggregate telemetry attached as its `session` section. `None`
    /// before the first cache miss.
    pub fn report(&self) -> Option<RunReport> {
        let m = self.last_metrics.as_ref()?;
        Some(
            RunReport::from_parts(self.algo, self.cfg.dense_backend, m, &[])
                .with_session(self.stats()),
        )
    }

    /// Factorize a cache miss, evicting least-recently-used entries while
    /// the factorization (or the side-structure charge) does not fit the
    /// budget. Returns the structured error of the *last* attempt when
    /// nothing is left to evict — the cache is never left poisoned: a
    /// failed factorization inserts nothing, and a later identical submit
    /// retries from scratch.
    fn factorize_entry(
        &mut self,
        problem: &CoupledProblem<T>,
        key: u64,
        summary: StructSummary,
        clock: u64,
    ) -> Result<Arc<SessionFactors<T>>> {
        let (factors, metrics) = loop {
            let (algo, cfg, tracker) = (self.algo, &self.cfg, &self.tracker);
            match self
                .pool
                .install(|| factorize_session(problem, algo, cfg, tracker))
            {
                Ok(f) => break f,
                Err(e) if e.is_oom() && !self.cache.is_empty() => {
                    self.evict_lru();
                }
                Err(e) => return Err(e),
            }
        };
        let side_charge = loop {
            match self
                .tracker
                .charge(factors.side_bytes(), "session cache entry")
            {
                Ok(c) => break c,
                Err(e) if e.is_oom() && !self.cache.is_empty() => {
                    self.evict_lru();
                }
                Err(e) => return Err(e),
            }
        };
        self.last_metrics = Some(metrics);
        let factors = Arc::new(factors);
        self.cache.push(CacheEntry {
            key,
            summary,
            factors: Arc::clone(&factors),
            _side_charge: side_charge,
            last_used: clock,
        });
        Ok(factors)
    }

    /// Evict the least-recently-used cache entry. Returns `false` when the
    /// cache is empty. Freed bytes return to the tracker as soon as no
    /// in-flight request still holds the entry's factors.
    fn evict_lru(&mut self) -> bool {
        let Some(idx) = self
            .cache
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(i, _)| i)
        else {
            return false;
        };
        let e = self.cache.remove(idx);
        self.stats.evictions += 1;
        self.cfg.tracer.run().event(TraceEventKind::SessionEvict {
            fingerprint: e.key,
            bytes: e.factors.entry_bytes(),
        });
        true
    }

    /// Solve every queued request, grouped by factorization, in coalesced
    /// panels of up to `max_batch` columns.
    fn flush_pending(&mut self) -> Result<()> {
        while !self.pending.is_empty() {
            // Extract the (stable-ordered) group sharing the first
            // request's factors with one stable partition. Grouping is by
            // factor identity, not key: colliding fingerprints with
            // different structures resolve to different entries and must
            // not share a panel.
            let head = Arc::clone(&self.pending[0].factors);
            let (group, rest) = std::mem::take(&mut self.pending)
                .into_iter()
                .partition(|p| Arc::ptr_eq(&p.factors, &head));
            self.pending = rest;
            self.solve_group(group)?;
        }
        Ok(())
    }

    /// Solve one same-factors group in admitted panels, demuxing each
    /// panel's columns back into per-request solutions.
    fn solve_group(&mut self, group: Vec<Pending<T>>) -> Result<()> {
        let factors = Arc::clone(&group[0].factors);
        let (nv, ns) = (factors.nv(), factors.ns());
        let elem = std::mem::size_of::<T>();
        // Working-set bound of one panel column through either solve
        // path: the packed right-hand sides plus the solver's permuted
        // internal copies and per-column temporaries.
        let per_col = 4 * (nv + ns) * elem;
        let mut queue: VecDeque<Pending<T>> = group.into();
        while !queue.is_empty() {
            let want = queue.len().min(self.max_batch);
            // Admission with graceful degradation: halve the panel width
            // while the reservation does not fit, then evict cache
            // entries, and only fail once a single column cannot fit.
            let mut w = want.max(1);
            let adm = loop {
                match self.tracker.charge(w * per_col, "session solve panel") {
                    Ok(a) => break a,
                    Err(_) if w > 1 => w = w.div_ceil(2),
                    Err(e) => {
                        if !self.evict_lru() {
                            return Err(e);
                        }
                    }
                }
            };
            let w = w.min(queue.len());
            let started = Instant::now();
            let chunk: Vec<Pending<T>> = queue.drain(..w).collect();
            let mut b_v = Vec::with_capacity(nv * w);
            let mut b_s = Vec::with_capacity(ns * w);
            for r in &chunk {
                b_v.extend_from_slice(&r.b_v);
                b_s.extend_from_slice(&r.b_s);
            }
            let (rec, f) = (&self.rec, &factors);
            let solved = self.pool.install(|| f.solve_panel(&b_v, &b_s, rec));
            drop(adm);
            let (xv, xs) = solved?;
            self.cfg.tracer.run().event(TraceEventKind::SessionBatch {
                width: w,
                requests: chunk.len(),
            });
            self.stats.batches += 1;
            self.stats.max_batch_width = self.stats.max_batch_width.max(w);
            for (j, r) in chunk.into_iter().enumerate() {
                let wait = started.duration_since(r.enqueued).as_secs_f64();
                self.stats.total_queue_wait_secs += wait;
                self.completed.push(SessionSolve {
                    id: r.id,
                    xv: xv[j * nv..(j + 1) * nv].to_vec(),
                    xs: xs[j * ns..(j + 1) * ns].to_vec(),
                    info: RequestInfo {
                        cache_hit: r.cache_hit,
                        batch_width: w,
                        queue_wait_secs: wait,
                    },
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::{Fp, FP_LANES};

    fn hash(words: &[u64]) -> u64 {
        let mut h = Fp::new();
        h.push_words(words.len(), |i| words[i]);
        h.0
    }

    /// The lane split reads every word, tail included, in order: at every
    /// length around the lane count, editing any one word, swapping any two
    /// neighbours, or appending a zero word changes the hash.
    #[test]
    fn lane_hash_sees_every_word_its_position_and_the_length() {
        for n in 0..=2 * FP_LANES + 3 {
            let words: Vec<u64> = (0..n as u64).map(|i| i * i + 7).collect();
            let base = hash(&words);
            for i in 0..n {
                let mut edited = words.clone();
                edited[i] ^= 1 << (i % 64);
                assert_ne!(hash(&edited), base, "n = {n}: word {i} edited");
            }
            for i in 1..n {
                let mut swapped = words.clone();
                swapped.swap(i - 1, i);
                assert_ne!(
                    hash(&swapped),
                    base,
                    "n = {n}: words {}, {i} swapped",
                    i - 1
                );
            }
            let mut longer = words.clone();
            longer.push(0);
            assert_ne!(hash(&longer), base, "n = {n}: zero word appended");
        }
    }
}
