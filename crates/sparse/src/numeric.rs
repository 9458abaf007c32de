//! Multifrontal numeric factorization and solves.
//!
//! Each supernode assembles a dense *frontal matrix* (original entries +
//! children contribution blocks), partially factorizes it with the
//! `csolve-dense` kernels and passes the trailing Schur block (the
//! *contribution block*) up the assembly tree. Variables designated as
//! *Schur variables* are never eliminated: contributions reaching them
//! accumulate into a dense Schur complement matrix, returned as such — the
//! exact MUMPS-style factorization+Schur building block (and API limitation)
//! the reproduced paper is built around.
//!
//! With `blr_eps` set, factor panels are compressed to low-rank form as soon
//! as each front is eliminated — the solver-internal BLR compression the
//! paper toggles (MUMPS low-rank mode). The Schur output remains dense
//! regardless, mirroring the real solvers. A Schur-only call
//! ([`schur_complement_analyzed`]) keeps no factor panel, so it compresses
//! none.
//!
//! Compression is deterministic across thread counts: whether a panel is
//! *eligible* depends only on its symbolic shape (the [`BLR_MIN_ROWS`] ×
//! [`BLR_MIN_COLS`] size gate), and whether the compressed form is *kept*
//! depends on its numerical rank — which is bitwise identical at any thread
//! count because each factorization runs its supernode loop on a single
//! thread in postorder.

use std::sync::Arc;

use csolve_common::{
    ByteSized, Error, MemCharge, MemTracker, RealScalar, Result, Scalar, ScopeTracer, SpanKind,
    TraceEventKind, Tracer,
};
use csolve_dense::lane::{
    self, LaneBuf, LaneShape, Rows,
    Rows::From,
    Update::{Add, Sub, SubNonzero},
};
use csolve_dense::{partial_ldlt_nb, partial_lu_nb, Diag, Mat, MatMut, Op, Tri};
use csolve_lowrank::LowRank;
use rayon::prelude::*;

use crate::formats::Csc;
use crate::ordering::OrderingKind;
use crate::symbolic::SymbolicFactorization;

/// Minimum row count of an off-diagonal factor panel for BLR compression to
/// be attempted. Below this the rank-revealing QR costs more than the dense
/// panel is worth. Shared with the symbolic cost model
/// ([`SymbolicFactorization::predicted_numeric_peak_bytes_blr`]) so the
/// predictor and the numeric phase cannot drift apart.
pub const BLR_MIN_ROWS: usize = 48;

/// Minimum column count of an off-diagonal factor panel for BLR compression
/// to be attempted (see [`BLR_MIN_ROWS`]).
pub const BLR_MIN_COLS: usize = 16;

/// Column-chunk width of [`SparseFactorization::solve_sparse_chunks`]: the
/// right-hand side is solved 32 columns at a time, each chunk an independent
/// task with its own `n × 32` row-major workspace ([`csolve_dense::lane`]:
/// four `zmm` registers per unknown) and its own etree reach — the widest
/// group [`lane::solve_panel`] hands a thread in the dense solves too. The
/// bit contract holds by layout: every lane of a workspace runs the
/// operation sequence of a width-1 solve, so neither this width nor the
/// thread count can move a bit. 32 beat 16 end-to-end: budgeted pipe-16k
/// multi-solve `solve_s` at two threads 1.40–1.66 s (1.43–1.45 s on the
/// issue's authoring host) against 1.76–1.79 s (1.73–2.03 s there).
const SOLVE_CHUNK_COLS: usize = lane::MAX_LANES;

/// Factorization kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Symmetry {
    /// Symmetric LDLᵀ (plain transpose — valid for complex symmetric).
    SymmetricLdlt,
    /// Unsymmetric LU on the symmetrized pattern, with pivoting restricted
    /// to the fully-summed rows of each front.
    UnsymmetricLu,
}

/// Options for the numeric factorization.
#[derive(Clone)]
pub struct SparseOptions {
    /// Fill-reducing ordering applied before the symbolic analysis.
    pub ordering: OrderingKind,
    /// LDLᵀ or LU (see [`Symmetry`]).
    pub symmetry: Symmetry,
    /// BLR panel compression tolerance (relative); `None` — or a
    /// non-positive value — disables compression, so `Some(0.0)` is the
    /// exact uncompressed path, not "compress losslessly".
    pub blr_eps: Option<f64>,
    /// Memory tracker/budget all large allocations are charged to.
    pub tracker: Option<Arc<MemTracker>>,
    /// Panel width of the blocked dense partial factorizations applied to
    /// each front (`0`: the dense layer's default,
    /// [`csolve_dense::DEFAULT_PANEL_NB`]).
    pub panel_nb: usize,
    /// Span tracer the numeric phases (analysis, frontal factorization,
    /// BLR compression) record into. Disabled by default.
    pub tracer: Tracer,
    /// Pipeline block the recorded spans are attributed to: `None` for the
    /// run scope (the driver's sequential factorizations), `Some(seq)` for a
    /// factorization running inside pipeline block `seq` (multi-
    /// factorization tiles).
    pub trace_seq: Option<usize>,
}

impl SparseOptions {
    /// The scope recorder selected by `tracer`/`trace_seq`.
    fn trace_scope(&self) -> ScopeTracer<'_> {
        match self.trace_seq {
            Some(seq) => self.tracer.block(seq),
            None => self.tracer.run(),
        }
    }
}

impl Default for SparseOptions {
    fn default() -> Self {
        Self {
            ordering: OrderingKind::NestedDissection,
            symmetry: Symmetry::SymmetricLdlt,
            blr_eps: None,
            tracker: None,
            panel_nb: 0,
            tracer: Tracer::disabled(),
            trace_seq: None,
        }
    }
}

/// Panels below the pivot block: dense or BLR-compressed.
enum Panel<T> {
    Empty,
    Dense(Mat<T>),
    Compressed(LowRank<T>),
}

impl<T> ByteSized for Panel<T> {
    fn byte_size(&self) -> usize {
        match self {
            Panel::Empty => 0,
            Panel::Dense(m) => m.byte_size(),
            Panel::Compressed(lr) => lr.byte_size(),
        }
    }
}

impl<T: Scalar> Panel<T> {
    fn is_compressed(&self) -> bool {
        matches!(self, Panel::Compressed(_))
    }
}

/// Factored supernode.
struct SupernodeFactor<T> {
    /// Pivot block: packed LDLᵀ (unit-lower + D) or LU (L\U).
    diag: Mat<T>,
    /// Local pivot swaps (LU only, indices within the pivot block).
    ipiv: Vec<usize>,
    /// `(f−k)×k` sub-pivot panel of L.
    lpanel: Panel<T>,
    /// `k×(f−k)` panel of U (LU only; LDLᵀ reuses `lpanel`ᵀ).
    upanel: Panel<T>,
}

/// Factorization statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct FactorStats {
    /// Bytes held by the factors after factorization.
    pub factor_bytes: usize,
    /// Peak transient bytes during factorization (fronts + CB stack +
    /// factors accumulated so far + Schur output).
    pub peak_bytes: usize,
    /// Number of supernodes in the assembly tree.
    pub n_supernodes: usize,
    /// Order of the largest frontal matrix.
    pub max_front: usize,
    /// Factor panels stored in BLR-compressed form.
    pub compressed_panels: usize,
    /// Factor panels that met the [`BLR_MIN_ROWS`]×[`BLR_MIN_COLS`] size
    /// gate (compressed or not); zero when compression was off.
    pub panels_eligible: usize,
    /// Bytes the compressed panels would occupy in dense form.
    pub panel_dense_bytes: usize,
    /// Bytes the compressed panels actually occupy (`U`+`V` factors).
    pub panel_stored_bytes: usize,
    /// Largest numerical rank over all compressed panels.
    pub max_panel_rank: usize,
    /// Approximate factorization flops.
    pub flops: f64,
}

/// A completed multifrontal factorization.
pub struct SparseFactorization<T: Scalar> {
    /// The symbolic analysis the numeric factors follow.
    pub symbolic: SymbolicFactorization,
    symmetry: Symmetry,
    sns: Vec<SupernodeFactor<T>>,
    stats: FactorStats,
    /// Budget charge held for the lifetime of the factors.
    _charge: Option<MemCharge>,
}

/// Local live/peak byte accounting (independent of the shared tracker, so
/// stats report this factorization's own footprint).
#[derive(Default)]
struct LocalPeak {
    live: usize,
    peak: usize,
}

impl LocalPeak {
    fn add(&mut self, b: usize) {
        self.live += b;
        self.peak = self.peak.max(self.live);
    }

    fn sub(&mut self, b: usize) {
        self.live -= b.min(self.live);
    }
}

/// Factor `a` completely (no Schur variables).
///
/// # Examples
///
/// ```
/// use csolve_dense::Mat;
/// use csolve_sparse::{factorize, Coo, SparseOptions};
///
/// // Symmetric positive definite 2×2 system [[4, 1], [1, 3]].
/// let mut coo = Coo::new(2, 2);
/// coo.push(0, 0, 4.0f64);
/// coo.push(0, 1, 1.0);
/// coo.push(1, 0, 1.0);
/// coo.push(1, 1, 3.0);
/// let f = factorize(&coo.to_csc(), &SparseOptions::default()).unwrap();
///
/// // Solve A·x = [1, 2]ᵀ in place; exact solution is [1/11, 7/11]ᵀ.
/// let mut b = Mat::from_col_major(2, 1, vec![1.0, 2.0]);
/// f.solve_in_place(&mut b).unwrap();
/// assert!((b.as_ref().get(0, 0) - 1.0 / 11.0).abs() < 1e-12);
/// assert!((b.as_ref().get(1, 0) - 7.0 / 11.0).abs() < 1e-12);
/// ```
pub fn factorize<T: Scalar>(a: &Csc<T>, opts: &SparseOptions) -> Result<SparseFactorization<T>> {
    let (f, s) = factorize_schur(a, &[], opts)?;
    debug_assert_eq!(s.nrows(), 0);
    Ok(f)
}

/// Factor `a` with the given variables kept uneliminated; returns the
/// factorization of the leading block and the **dense** Schur complement
/// `S = A₂₂ − A₂₁·A₁₁⁻¹·A₁₂` over the Schur variables (in the order given).
///
/// The dense return type is deliberate: it reproduces the API limitation of
/// fully-featured sparse direct solvers that the paper's multi-solve /
/// multi-factorization algorithms are designed to work around.
///
/// # Example: BLR-compressed factor panels
///
/// With [`SparseOptions::blr_eps`] set, off-diagonal panels of each front
/// that clear the [`BLR_MIN_ROWS`] × [`BLR_MIN_COLS`] size gate are
/// compressed at that tolerance and kept compressed when the low-rank form
/// is smaller; [`SparseFactorization::stats`] and
/// [`SparseFactorization::panel_ranks`] expose the outcome.
///
/// ```
/// use csolve_sparse::{factorize_schur, Coo, SparseOptions};
///
/// // 2-D Laplacian on a 48×48 grid, keeping the last 20 variables
/// // uneliminated (returned as a dense 20×20 Schur complement).
/// let nx = 48;
/// let id = |i: usize, j: usize| i * nx + j;
/// let mut coo = Coo::new(nx * nx, nx * nx);
/// for i in 0..nx {
///     for j in 0..nx {
///         coo.push(id(i, j), id(i, j), 4.0);
///         if i > 0 {
///             coo.push(id(i, j), id(i - 1, j), -1.0);
///             coo.push(id(i - 1, j), id(i, j), -1.0);
///         }
///         if j > 0 {
///             coo.push(id(i, j), id(i, j - 1), -1.0);
///             coo.push(id(i, j - 1), id(i, j), -1.0);
///         }
///     }
/// }
/// let schur: Vec<usize> = (nx * nx - 20..nx * nx).collect();
/// let opts = SparseOptions {
///     blr_eps: Some(1e-6),
///     ..Default::default()
/// };
/// let (f, s) = factorize_schur(&coo.to_csc(), &schur, &opts).unwrap();
/// assert_eq!((s.nrows(), s.ncols()), (20, 20));
///
/// let stats = f.stats();
/// assert!(stats.panels_eligible > 0, "some panel cleared the size gate");
/// assert!(stats.panel_stored_bytes <= stats.panel_dense_bytes);
/// // Each kept panel's rank is visible in the profile.
/// assert_eq!(f.panel_ranks().len(), stats.compressed_panels);
/// ```
pub fn factorize_schur<T: Scalar>(
    a: &Csc<T>,
    schur_vars: &[usize],
    opts: &SparseOptions,
) -> Result<(SparseFactorization<T>, Mat<T>)> {
    a.check()?;
    // Analysis, then the numeric phase, under one whole-factorization span.
    let tr = opts.trace_scope();
    let whole = tr.span(whole_span_kind(schur_vars.len()));
    let symbolic = tr.time(SpanKind::SparseAnalyze, || {
        SymbolicFactorization::analyze(a, schur_vars, opts.ordering)
    })?;
    numeric_phase(a, symbolic, opts, whole, true)
}

/// The numeric phase of [`factorize_schur`] alone, on a symbolic analysis
/// of `a` the caller already ran ([`SymbolicFactorization::analyze`] with
/// the Schur variables and ordering of its choice; `opts.ordering` is not
/// consulted). Gives the factors, Schur block and statistics
/// `factorize_schur` gives for the same analysis, bit for bit.
///
/// This is the entry for a caller that needs the analysis *before* it can
/// factor — to size a memory reservation from
/// [`SymbolicFactorization::predicted_numeric_peak_bytes`] and hand the
/// numeric phase a tracker scoped to it — without paying for it twice.
pub fn factorize_analyzed<T: Scalar>(
    a: &Csc<T>,
    symbolic: SymbolicFactorization,
    opts: &SparseOptions,
) -> Result<(SparseFactorization<T>, Mat<T>)> {
    analyzed_phase(a, symbolic, opts, true)
}

/// The Schur complement alone: [`factorize_analyzed`]'s numeric phase with
/// the factors discarded as it goes (MUMPS' `ICNTL(31)` = 1 for a
/// Schur-only call). Every front is assembled, partially factored and cuts
/// its contribution block exactly as there, so the returned Schur block is
/// bitwise `factorize_analyzed`'s; no pivot block or factor panel is kept,
/// charged or BLR-compressed (`opts.blr_eps` is not consulted). What it
/// charges peaks at exactly
/// [`SymbolicFactorization::predicted_schur_peak_bytes`]; the statistics
/// report `factor_bytes` = 0 and no compressed or eligible panel.
pub fn schur_complement_analyzed<T: Scalar>(
    a: &Csc<T>,
    symbolic: SymbolicFactorization,
    opts: &SparseOptions,
) -> Result<(Mat<T>, FactorStats)> {
    let (f, schur) = analyzed_phase(a, symbolic, opts, false)?;
    Ok((schur, f.stats))
}

/// [`numeric_phase`] on a caller's analysis, refused when `a` is not a
/// valid matrix of the analyzed order.
fn analyzed_phase<T: Scalar>(
    a: &Csc<T>,
    symbolic: SymbolicFactorization,
    opts: &SparseOptions,
    keep_factors: bool,
) -> Result<(SparseFactorization<T>, Mat<T>)> {
    a.check()?;
    if (a.nrows, a.ncols) != (symbolic.n, symbolic.n) {
        return Err(Error::DimensionMismatch {
            context: "numeric factorization of a matrix its analysis was not run on",
            expected: (symbolic.n, symbolic.n),
            got: (a.nrows, a.ncols),
        });
    }
    let whole = opts.trace_scope().span(whole_span_kind(symbolic.n_schur));
    numeric_phase(a, symbolic, opts, whole, keep_factors)
}

/// Span kind of a whole factorization with `n_schur` Schur variables.
fn whole_span_kind(n_schur: usize) -> SpanKind {
    if n_schur == 0 {
        SpanKind::SparseFactorization
    } else {
        SpanKind::SparseFactorizationSchur
    }
}

/// The multifrontal numeric factorization `symbolic` describes; `whole` is
/// the caller's open whole-factorization span, closed here. Without
/// `keep_factors` every front is dropped once its contribution block is cut:
/// the returned factorization holds no supernode and is only good for its
/// statistics.
fn numeric_phase<T: Scalar>(
    a: &Csc<T>,
    symbolic: SymbolicFactorization,
    opts: &SparseOptions,
    mut whole: csolve_common::Span<'_>,
    keep_factors: bool,
) -> Result<(SparseFactorization<T>, Mat<T>)> {
    // All spans below are recorded by this (calling) thread in program
    // order, so the trace sequence is deterministic at any thread count.
    let tr = opts.trace_scope();
    let n = symbolic.n;
    let ne = symbolic.n_elim;
    let ns = symbolic.n_schur;
    let tracker = opts.tracker.clone().unwrap_or_else(MemTracker::unbounded);
    let mut local = LocalPeak::default();

    let a1 = a.permute_sym(&symbolic.perm);
    let at1 = match opts.symmetry {
        Symmetry::UnsymmetricLu => Some(a1.transpose()),
        Symmetry::SymmetricLdlt => None,
    };

    // Dense Schur accumulator, initialized with A[schur, schur].
    let schur_bytes = ns * ns * std::mem::size_of::<T>();
    let schur_charge = tracker.charge(schur_bytes, "dense Schur complement")?;
    local.add(schur_bytes);
    let mut schur = Mat::<T>::zeros(ns, ns);
    for j in ne..n {
        for p in a1.colptr[j]..a1.colptr[j + 1] {
            let i = a1.rowidx[p];
            if i >= ne {
                schur[(i - ne, j - ne)] = a1.values[p];
            }
        }
    }

    let nsn = symbolic.supernodes.len();
    // Children lists.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); nsn];
    for (s, sn) in symbolic.supernodes.iter().enumerate() {
        if sn.parent != usize::MAX {
            children[sn.parent].push(s);
        }
    }

    // Contribution blocks awaiting their parent (with their charges).
    let mut cb_store: Vec<Option<(Mat<T>, MemCharge, usize)>> = (0..nsn).map(|_| None).collect();
    let mut sns: Vec<SupernodeFactor<T>> = Vec::with_capacity(nsn);
    let mut factor_bytes = 0usize;
    let mut factor_charge = tracker.charge(0, "sparse factors")?;
    let mut stats = FactorStats {
        n_supernodes: nsn,
        ..Default::default()
    };

    // Scratch: global row → front position, and the same map restricted to
    // one child's contribution-block rows.
    let mut pos_of = vec![usize::MAX; n];
    let mut cb_pos: Vec<usize> = Vec::new();

    let blr_eps = opts
        .blr_eps
        .filter(|e| *e > 0.0 && keep_factors)
        .map(T::Real::from_f64_real);

    // BLR compression time/bytes are aggregated into one span per
    // factorization (per-supernode spans would swamp the trace).
    let mut compress_time = std::time::Duration::ZERO;
    let mut compress_bytes = 0usize;
    let mut front_span = tr.span(SpanKind::SparseFrontFactor);

    for s in 0..nsn {
        let info = &symbolic.supernodes[s];
        let k = info.width();
        let f = info.front_size();
        let (c0, c1) = (info.c0, info.c1);
        stats.max_front = stats.max_front.max(f);
        stats.flops += k as f64 * f as f64 * f as f64;

        for (p, &r) in info.rows.iter().enumerate() {
            pos_of[r] = p;
        }

        let front_bytes = f * f * std::mem::size_of::<T>();
        let front_charge = tracker.charge(front_bytes, "frontal matrix")?;
        local.add(front_bytes);
        let mut front = Mat::<T>::zeros(f, f);

        // Assemble original entries: columns of the pivot block.
        for j in c0..c1 {
            let jj = j - c0;
            for p in a1.colptr[j]..a1.colptr[j + 1] {
                let i = a1.rowidx[p];
                if i < c0 {
                    continue; // ancestor entry, assembled elsewhere
                }
                let pi = pos_of[i];
                debug_assert!(pi != usize::MAX, "row {i} missing from front");
                front[(pi, jj)] = a1.values[p];
            }
        }
        // Unsymmetric: the U row panel entries A[j, m] for m beyond the block.
        if let Some(at1) = &at1 {
            for j in c0..c1 {
                let jj = j - c0;
                for p in at1.colptr[j]..at1.colptr[j + 1] {
                    let m = at1.rowidx[p];
                    if m < c1 {
                        continue; // in-block or ancestor-handled
                    }
                    let pm = pos_of[m];
                    debug_assert!(pm != usize::MAX);
                    front[(jj, pm)] = at1.values[p];
                }
            }
        }

        // Extend-add children contribution blocks.
        for &c in &children[s] {
            let (cb, cb_charge, cb_k) = cb_store[c].take().expect("child CB present");
            // Front position of every CB row, looked up once per child.
            cb_pos.clear();
            cb_pos.extend(
                symbolic.supernodes[c].rows[cb_k..]
                    .iter()
                    .map(|&g| pos_of[g]),
            );
            debug_assert!(cb_pos.iter().all(|&p| p != usize::MAX));
            for (cj, &pj) in cb_pos.iter().enumerate() {
                let dst = front.col_mut(pj);
                for (&pi, &v) in cb_pos.iter().zip(cb.col(cj)) {
                    if v != T::ZERO {
                        dst[pi] += v;
                    }
                }
            }
            local.sub(cb.byte_size());
            drop(cb_charge);
        }

        // Partial factorization of the front.
        let ipiv = match opts.symmetry {
            Symmetry::SymmetricLdlt => {
                partial_ldlt_nb(&mut front, k, opts.panel_nb)?;
                Vec::new()
            }
            Symmetry::UnsymmetricLu => partial_lu_nb(&mut front, k, opts.panel_nb)?,
        };

        // Contribution block → parent or Schur.
        if f > k {
            let _t = f - k;
            let mut cb = front.submatrix(k..f, k..f);
            if opts.symmetry == Symmetry::SymmetricLdlt {
                // partial_ldlt leaves the upper triangle stale: symmetrize.
                csolve_dense::symmetrize_from_lower(&mut cb);
            }
            if info.parent == usize::MAX {
                // All CB rows are Schur rows: accumulate into S.
                for (cj, &gj) in info.rows[k..].iter().enumerate() {
                    debug_assert!(gj >= ne);
                    for (ci, &gi) in info.rows[k..].iter().enumerate() {
                        schur[(gi - ne, gj - ne)] += cb[(ci, cj)];
                    }
                }
            } else {
                let cb_bytes = cb.byte_size();
                let cb_charge = tracker.charge(cb_bytes, "contribution block")?;
                local.add(cb_bytes);
                cb_store[s] = Some((cb, cb_charge, k));
            }
        }

        for &r in &info.rows {
            pos_of[r] = usize::MAX;
        }
        if !keep_factors {
            local.sub(front_bytes);
            continue;
        }

        // Harvest factor panels.
        let diag = front.submatrix(0..k, 0..k);
        let mut lpanel = if f > k {
            Panel::Dense(front.submatrix(k..f, 0..k))
        } else {
            Panel::Empty
        };
        let mut upanel = if f > k && opts.symmetry == Symmetry::UnsymmetricLu {
            Panel::Dense(front.submatrix(0..k, k..f))
        } else {
            Panel::Empty
        };
        local.sub(front_bytes);
        drop(front_charge);
        drop(front);

        // Optional BLR compression of the panels.
        if let Some(eps) = blr_eps {
            let t0 = tr.is_enabled().then(std::time::Instant::now);
            let cl = compress_panel(&mut lpanel, eps, &mut stats)?;
            let cu = compress_panel(&mut upanel, eps, &mut stats)?;
            if let Some(t0) = t0 {
                compress_time += t0.elapsed();
                compress_bytes += cl.stored_bytes + cu.stored_bytes;
                if cl.compressed || cu.compressed {
                    // Per-front compression stats; emitted by this (calling)
                    // thread in postorder, so the event stream is identical
                    // at any thread count.
                    tr.event(TraceEventKind::FrontCompress {
                        front: s,
                        dense_bytes: cl.dense_bytes + cu.dense_bytes,
                        stored_bytes: cl.stored_bytes + cu.stored_bytes,
                        max_rank: cl.rank.max(cu.rank),
                    });
                }
            }
        }

        let sn_bytes = diag.byte_size() + lpanel.byte_size() + upanel.byte_size();
        factor_bytes += sn_bytes;
        factor_charge.resize(factor_bytes, "sparse factors")?;
        local.add(sn_bytes);
        sns.push(SupernodeFactor {
            diag,
            ipiv,
            lpanel,
            upanel,
        });
    }

    stats.factor_bytes = factor_bytes;
    stats.peak_bytes = local.peak;
    front_span.add_bytes(factor_bytes);
    front_span.add_flops(stats.flops as u64);
    front_span.finish();
    if blr_eps.is_some() {
        tr.record_span(SpanKind::Compress, compress_time, compress_bytes, 0);
    }
    whole.add_bytes(factor_bytes + schur.byte_size());
    whole.finish();
    // The Schur matrix is handed to the caller together with its charge
    // folded into the factorization charge (the caller usually re-tracks it).
    drop(schur_charge);

    Ok((
        SparseFactorization {
            symbolic,
            symmetry: opts.symmetry,
            sns,
            stats,
            _charge: Some(factor_charge),
        },
        schur,
    ))
}

/// What [`compress_panel`] did to one panel (all zeros when the panel was
/// below the size gate or compression did not pay).
#[derive(Default, Clone, Copy)]
struct PanelCompression {
    compressed: bool,
    rank: usize,
    dense_bytes: usize,
    stored_bytes: usize,
}

fn compress_panel<T: Scalar>(
    panel: &mut Panel<T>,
    eps: T::Real,
    stats: &mut FactorStats,
) -> Result<PanelCompression> {
    let Panel::Dense(m) = panel else {
        return Ok(PanelCompression::default());
    };
    let (rows, cols) = (m.nrows(), m.ncols());
    if rows < BLR_MIN_ROWS || cols < BLR_MIN_COLS {
        return Ok(PanelCompression::default());
    }
    stats.panels_eligible += 1;
    let tol = eps * m.norm_fro();
    // No rank cap in production (`rows.min(cols)` is no cap at all): the
    // compression must reach the tolerance — a capped factorization would
    // silently lose accuracy. The fault hook lowers the cap so tests can
    // force the rank-overflow path; `from_dense_if_smaller` then verifies
    // the tolerance and surfaces a structured `CompressionFailure`.
    let max_rank = {
        #[cfg(feature = "fault-inject")]
        {
            crate::fault::rank_cap().min(rows.min(cols))
        }
        #[cfg(not(feature = "fault-inject"))]
        {
            rows.min(cols)
        }
    };
    // The compressed form only comes back when it actually saves memory.
    let Some(lr) = LowRank::from_dense_if_smaller(m, tol, max_rank)? else {
        return Ok(PanelCompression::default());
    };
    let out = PanelCompression {
        compressed: true,
        rank: lr.rank(),
        dense_bytes: m.byte_size(),
        stored_bytes: lr.byte_size(),
    };
    stats.compressed_panels += 1;
    stats.panel_dense_bytes += out.dense_bytes;
    stats.panel_stored_bytes += out.stored_bytes;
    stats.max_panel_rank = stats.max_panel_rank.max(out.rank);
    *panel = Panel::Compressed(lr);
    Ok(out)
}

impl<T: Scalar> SparseFactorization<T> {
    /// Order of the factored matrix.
    pub fn n(&self) -> usize {
        self.symbolic.n
    }

    /// Statistics gathered during the numeric factorization.
    pub fn stats(&self) -> &FactorStats {
        &self.stats
    }

    /// Solve `A·X = B` in place (original index order, dense multi-RHS).
    /// Only valid for complete factorizations (no Schur variables).
    ///
    /// The columns are solved as the lanes of row-major workspaces in groups
    /// of at most 32, on whatever threads the caller's pool has idle
    /// ([`lane::solve_panel`]). The bit contract holds by layout: every
    /// lane runs the operation sequence of a width-1 solve, so column `j`
    /// comes out with the bits of its own width-1 solve whatever the width
    /// of `b`, the grouping and the thread count — no kernel mode to enter.
    pub fn solve_in_place(&self, b: &mut Mat<T>) -> Result<()> {
        if self.symbolic.n_schur != 0 {
            return Err(Error::InvalidConfig(
                "solve on a partial (Schur) factorization".into(),
            ));
        }
        if b.nrows() != self.n() {
            return Err(Error::DimensionMismatch {
                context: "sparse solve",
                expected: (self.n(), b.ncols()),
                got: (b.nrows(), b.ncols()),
            });
        }
        let marked = vec![true; self.sns.len()];
        let d = self.gather_d();
        let iperm = Rows::At(&self.symbolic.iperm, 0);
        lane::solve_panel(b.as_mut(), (iperm, iperm), |ws| {
            self.solve_permuted(ws, &marked, &d)
        });
        Ok(())
    }

    /// Solve with a *sparse* right-hand side block, exploiting the nonzero
    /// structure in the forward pass (the equivalent of MUMPS `ICNTL(20)`).
    /// The result is returned dense — exactly like the real solvers, whose
    /// API cannot return a compressed or sparse solution.
    ///
    /// [`Self::solve_sparse_chunks`] with one group per thread of the
    /// caller's pool and each solved chunk stored into its columns. Column
    /// `j` of the result has the bits of a width-1 call on column `j` alone,
    /// at any thread count.
    pub fn solve_sparse_rhs(&self, rhs: &Csc<T>) -> Result<Mat<T>> {
        let mut out = Mat::<T>::zeros(self.n(), rhs.ncols);
        let groups = rayon::current_num_threads();
        self.solve_sparse_chunks(rhs, out.as_mut(), groups, lane::store_rows)?;
        Ok(out)
    }

    /// The chunk loop of every sparse-right-hand-side solve: the columns of
    /// `rhs` are solved in independent fixed-width chunks (32 columns), each
    /// in a lane workspace of its own, and each solved workspace is handed
    /// to `consume` together with the chunk's columns of `out` (`out` has
    /// `rhs.ncols` columns and any number of rows) and its rows' order: row
    /// `k` of the solution is workspace row `rows.get(k)`. The consumer
    /// decides what the chunk becomes: [`lane::store_rows`] makes it the
    /// dense solution, [`Csc::mul_lanes`] its product by a coupling block.
    ///
    /// Consecutive chunks form at most `groups` groups, which run in
    /// parallel, one workspace live per group. Neither the grouping nor the
    /// thread count can move a bit: every lane runs the operation sequence
    /// of a width-1 solve.
    pub fn solve_sparse_chunks<'o>(
        &self,
        rhs: &Csc<T>,
        out: MatMut<'o, T>,
        groups: usize,
        consume: impl Fn(LaneShape, &[f64], MatMut<'o, T>, Rows<'_>) + Sync,
    ) -> Result<()> {
        if self.symbolic.n_schur != 0 {
            return Err(Error::InvalidConfig(
                "solve on a partial (Schur) factorization".into(),
            ));
        }
        if rhs.nrows != self.n() || out.ncols() != rhs.ncols {
            return Err(Error::DimensionMismatch {
                context: "sparse solve (sparse rhs)",
                expected: (self.n(), out.ncols()),
                got: (rhs.nrows, rhs.ncols),
            });
        }
        let d = self.gather_d();
        let mut chunks: Vec<_> = out
            .col_chunks_mut(SOLVE_CHUNK_COLS)
            .into_iter()
            .enumerate()
            .collect();
        // Consecutive chunks in one group each, evenly shared: one live
        // workspace per group, so `groups` caps the workspaces the caller
        // charged for. A `ThreadPool::install(groups)` budget is no such
        // cap: it is compared with the process-wide helper count, so under
        // the pipeline's workers it would fork less than this.
        let per_group = chunks.len().div_ceil(groups.max(1)).max(1);
        let mut runs = Vec::new();
        while !chunks.is_empty() {
            let rest = chunks.split_off(per_group.min(chunks.len()));
            runs.push(std::mem::replace(&mut chunks, rest));
        }
        let iperm = Rows::At(&self.symbolic.iperm, 0);
        runs.into_par_iter().for_each(|run| {
            for (i, x) in run {
                let ws = self.solve_sparse_chunk(rhs, i * SOLVE_CHUNK_COLS, x.ncols(), &d);
                consume(ws.shape(), ws.as_slice(), x, iperm);
            }
        });
        Ok(())
    }

    /// Solve columns `j0 .. j0 + w` of `rhs` in a workspace of the chunk's
    /// own, returned in permuted row order: forward substitution visits only
    /// the supernodes *this chunk's* nonzeros reach — in every other
    /// supernode each lane is zero, and a zero lane is skipped anyway.
    fn solve_sparse_chunk(&self, rhs: &Csc<T>, j0: usize, w: usize, d: &[T]) -> LaneBuf {
        let sh = LaneShape::new::<T>(w);
        // Permuted dense RHS + supernode marking.
        let mut ws = LaneBuf::zeros(sh, self.n());
        let mut marked = vec![false; self.sns.len()];
        for j in 0..sh.lanes() {
            for p in rhs.colptr[j0 + j]..rhs.colptr[j0 + j + 1] {
                let newi = self.symbolic.iperm[rhs.rowidx[p]];
                sh.set(ws.as_mut_slice(), newi, j, rhs.values[p]);
                marked[self.symbolic.sn_of_col[newi]] = true;
            }
        }
        // Propagate marks to ancestors (supernodes are postordered).
        for s in 0..self.sns.len() {
            if marked[s] {
                let p = self.symbolic.supernodes[s].parent;
                if p != usize::MAX {
                    marked[p] = true;
                }
            }
        }
        self.solve_permuted(&mut ws, &marked, d);
        ws
    }

    /// Partial solve through the Schur complement: condense the right-hand
    /// side onto the Schur variables, hand the reduced system to
    /// `schur_solve` (which must overwrite the reduced RHS with `x_schur`),
    /// then back-substitute for the eliminated variables.
    ///
    /// `b` holds the full right-hand side (original index order, all `n`
    /// rows) and is overwritten with the full solution. This is how the
    /// paper's *advanced coupling* consumes the factorization+Schur feature:
    /// the sparse solver condenses, a dense/compressed solver handles `S`,
    /// the sparse solver expands. Condensation and expansion run in column
    /// groups like [`Self::solve_in_place`], with its per-column bits;
    /// `schur_solve` sees the whole reduced panel.
    pub fn condense_and_solve(
        &self,
        b: &mut Mat<T>,
        schur_solve: impl FnOnce(MatMut<'_, T>) -> Result<()>,
    ) -> Result<()> {
        if b.nrows() != self.n() {
            return Err(Error::DimensionMismatch {
                context: "condense_and_solve",
                expected: (self.n(), b.ncols()),
                got: (b.nrows(), b.ncols()),
            });
        }
        let marked = vec![true; self.sns.len()];
        let (ne, n, nrhs) = (self.symbolic.n_elim, self.n(), b.ncols());
        let d = self.gather_d();
        // Condense into a permuted copy — `b` is untouched if the Schur
        // solve fails — then expand it into the solution.
        let mut bp = b.clone();
        let iperm = Rows::At(&self.symbolic.iperm, 0);
        lane::solve_panel(bp.as_mut(), (iperm, From(0)), |ws| {
            let mut scratch = self.solve_scratch(ws.shape());
            self.forward_permuted(ws, &marked, &mut scratch);
            self.diag_permuted(ws, &d);
        });
        schur_solve(bp.view_mut(ne..n, 0..nrhs))?;
        lane::solve_panel(bp.as_mut(), (From(0), iperm), |ws| {
            let mut scratch = self.solve_scratch(ws.shape());
            self.backward_permuted(ws, &mut scratch);
        });
        *b = bp;
        Ok(())
    }

    /// Forward + diagonal + backward on a permuted RHS; unmarked supernodes
    /// are skipped in the forward pass (their subtree RHS is entirely zero).
    fn solve_permuted(&self, ws: &mut LaneBuf, marked: &[bool], d: &[T]) {
        let mut scratch = self.solve_scratch(ws.shape());
        self.forward_permuted(ws, marked, &mut scratch);
        self.diag_permuted(ws, d);
        self.backward_permuted(ws, &mut scratch);
    }

    /// The rows a compressed panel's product goes through (`Vᵀ·x1`, or
    /// `Uᵀ·x2`): one per unit of the largest panel rank.
    fn solve_scratch(&self, sh: LaneShape) -> LaneBuf {
        LaneBuf::zeros(sh, self.stats.max_panel_rank)
    }

    /// Forward substitution (`L⁻¹·P`) over the eliminated variables; Schur
    /// rows accumulate the condensed right-hand side. Every update skips a
    /// lane whose multiplier is an exact zero.
    fn forward_permuted(&self, ws: &mut LaneBuf, marked: &[bool], scratch: &mut LaneBuf) {
        let sh = ws.shape();
        let rl = sh.row_len();
        let x = ws.as_mut_slice();
        for (s, sn) in self.sns.iter().enumerate() {
            if !marked[s] {
                continue;
            }
            let info = &self.symbolic.supernodes[s];
            let (c0, c1) = (info.c0, info.c1);
            // LU: local row swaps inside the pivot block.
            for (j, &p) in sn.ipiv.iter().enumerate() {
                lane::swap_rows(sh, x, c0 + j, c0 + p);
            }
            // The pivot rows, and the rows below them the panel updates.
            let (head, tail) = x.split_at_mut(c1 * rl);
            let x1 = &mut head[c0 * rl..];
            let (tri, op, unit) = (Tri::Lower, Op::NoTrans, Diag::Unit);
            lane::solve_tri(sh, SubNonzero, sn.diag.as_ref(), tri, op, unit, x1);
            let below = (tail, Rows::At(&info.rows[c1 - c0..], c1));
            match &sn.lpanel {
                Panel::Empty => {}
                // x2 −= L21·x1
                Panel::Dense(l21) => lane::update_rows(
                    sh,
                    SubNonzero,
                    l21.as_ref(),
                    Op::NoTrans,
                    below,
                    (x1, From(0)),
                ),
                // x2 −= U·(Vᵀ·x1)
                Panel::Compressed(lr) => {
                    let tmp = &mut scratch.as_mut_slice()[..lr.rank() * rl];
                    tmp.fill(0.0);
                    lane::update_rows(
                        sh,
                        Add,
                        lr.v.as_ref(),
                        Op::Trans,
                        (tmp, From(0)),
                        (x1, From(0)),
                    );
                    lane::update_rows(
                        sh,
                        SubNonzero,
                        lr.u.as_ref(),
                        Op::NoTrans,
                        below,
                        (tmp, From(0)),
                    );
                }
            }
        }
    }

    /// `D` of an LDLᵀ factorization over the eliminated variables, gathered
    /// once per solve call and shared by its chunks. Empty for LU, which
    /// keeps U's diagonal for the backward pass.
    fn gather_d(&self) -> Vec<T> {
        if self.symmetry != Symmetry::SymmetricLdlt {
            return Vec::new();
        }
        let mut d = vec![T::ONE; self.symbolic.n_elim];
        for (sn, info) in self.sns.iter().zip(&self.symbolic.supernodes) {
            for j in 0..info.width() {
                d[info.c0 + j] = sn.diag[(j, j)];
            }
        }
        d
    }

    /// Diagonal scaling by [`Self::gather_d`] (a no-op for LU).
    fn diag_permuted(&self, ws: &mut LaneBuf, d: &[T]) {
        lane::div_rows(ws.shape(), ws.as_mut_slice(), d);
    }

    /// Backward substitution over the eliminated variables; Schur rows are
    /// read (they must hold `x_schur`) but never written.
    fn backward_permuted(&self, ws: &mut LaneBuf, scratch: &mut LaneBuf) {
        let sh = ws.shape();
        let rl = sh.row_len();
        let x = ws.as_mut_slice();
        let ldlt = self.symmetry == Symmetry::SymmetricLdlt;
        for (s, sn) in self.sns.iter().enumerate().rev() {
            let info = &self.symbolic.supernodes[s];
            let (c0, c1) = (info.c0, info.c1);
            let (head, tail) = x.split_at_mut(c1 * rl);
            let x1 = &mut head[c0 * rl..];
            let below = (&*tail, Rows::At(&info.rows[c1 - c0..], c1));
            // x1 −= L21ᵀ·x2 (LDLᵀ) or U12·x2 (LU).
            let (panel, op) = if ldlt {
                (&sn.lpanel, Op::Trans)
            } else {
                (&sn.upanel, Op::NoTrans)
            };
            match panel {
                Panel::Empty => {}
                Panel::Dense(p) => lane::update_rows(sh, Sub, p.as_ref(), op, (x1, From(0)), below),
                Panel::Compressed(lr) => {
                    // (U·Vᵀ)ᵀ·x2 = V·(Uᵀ·x2); U·Vᵀ·x2 = U·(Vᵀ·x2).
                    let (first, second) = if ldlt { (&lr.u, &lr.v) } else { (&lr.v, &lr.u) };
                    let tmp = &mut scratch.as_mut_slice()[..lr.rank() * rl];
                    tmp.fill(0.0);
                    lane::update_rows(sh, Add, first.as_ref(), Op::Trans, (tmp, From(0)), below);
                    lane::update_rows(
                        sh,
                        Sub,
                        second.as_ref(),
                        Op::NoTrans,
                        (x1, From(0)),
                        (tmp, From(0)),
                    );
                }
            }
            let (tri, op, diag) = if ldlt {
                (Tri::Lower, Op::Trans, Diag::Unit)
            } else {
                (Tri::Upper, Op::NoTrans, Diag::NonUnit)
            };
            lane::solve_tri(sh, Sub, sn.diag.as_ref(), tri, op, diag, x1);
        }
    }

    /// Numerical ranks of every BLR-compressed factor panel, in supernode
    /// postorder (the `L` panel before the `U` panel within a front). Empty
    /// when compression was off or nothing met the size gate; feed it to a
    /// histogram to see the rank profile the memory win comes from.
    pub fn panel_ranks(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for sn in &self.sns {
            if let Panel::Compressed(lr) = &sn.lpanel {
                out.push(lr.rank());
            }
            if let Panel::Compressed(lr) = &sn.upanel {
                out.push(lr.rank());
            }
        }
        out
    }

    /// Fraction of supernode panels stored compressed.
    pub fn compression_ratio(&self) -> f64 {
        let total = self.sns.len().max(1);
        let compressed = self
            .sns
            .iter()
            .filter(|s| s.lpanel.is_compressed() || s.upanel.is_compressed())
            .count();
        compressed as f64 / total as f64
    }
}

impl<T: Scalar> ByteSized for SparseFactorization<T> {
    fn byte_size(&self) -> usize {
        self.stats.factor_bytes
    }
}
