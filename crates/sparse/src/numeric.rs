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
use csolve_dense::gemm::colwise_det_forced;
use csolve_dense::{
    gemm, partial_ldlt_nb, partial_lu_nb, trsm_left, with_colwise_det, Diag, Mat, MatMut, MatRef,
    Op, Tri,
};
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

/// Column-chunk width of [`SparseFactorization::solve_sparse_rhs`]: the
/// right-hand side is solved 32 columns at a time, each chunk an independent
/// task with its own `n × 32` workspace and its own etree reach. The width
/// is fixed — never derived from the thread count — so every column meets
/// the same dense-kernel shapes at any thread count and the output is
/// bitwise thread-invariant by construction. (Splitting a panel into
/// thread-count-dependent halves was measured and is *not* bitwise stable
/// here: outside `with_colwise_det` the GEMM dispatch reads the panel width.
/// Inside that mode it is stable, and [`for_col_groups`] does exactly that
/// for `solve_in_place`.)
/// 32 beat 16 end-to-end: budgeted pipe-16k multi-solve `solve_s` at two
/// threads 1.40–1.66 s (1.43–1.45 s on the issue's authoring host) against
/// 1.76–1.79 s (1.73–2.03 s there).
const SOLVE_CHUNK_COLS: usize = 32;

/// Narrowest column group [`for_col_groups`] hands a thread: the register
/// block of the dense layer's column-blocked solve kernels (`trsm_left`'s
/// base case, `gemm` under `with_colwise_det`), so no group is left with
/// only the single-column remainder path. Bits do not depend on it.
const SOLVE_GROUP_COLS: usize = 4;

/// Run `f` over the columns of `b` — split, *when the caller is inside
/// `csolve_dense::with_colwise_det`*, into one group of whole register
/// blocks per thread. That mode is the only one in which a column split
/// provably cannot change bits: every kernel under it gives a column the
/// same operation sequence whatever columns share its call, whereas the
/// packed GEMM's naive/packed dispatch reads the panel width. One fork per
/// call, never per supernode (the vendored rayon spawns a thread per item).
/// The flag is thread-local, so each group re-enters the mode itself — a
/// helper thread that did not would silently take the packed path.
fn for_col_groups<T: Scalar>(b: MatMut<'_, T>, f: impl Fn(MatMut<'_, T>) + Send + Sync) {
    let groups = rayon::current_num_threads().min(b.ncols() / SOLVE_GROUP_COLS);
    if groups < 2 || !colwise_det_forced() {
        return f(b);
    }
    let width = b
        .ncols()
        .div_ceil(groups)
        .next_multiple_of(SOLVE_GROUP_COLS);
    b.col_chunks_mut(width)
        .into_par_iter()
        .for_each(|group| with_colwise_det(|| f(group)));
}

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
    /// `c ← β·c + α·P·b` (dense multiply through the panel; `β = 0`
    /// overwrites whatever `c` held).
    fn mul(&self, alpha: T, b: csolve_dense::MatRef<'_, T>, beta: T, c: MatMut<'_, T>) {
        match self {
            Panel::Empty => {}
            Panel::Dense(m) => gemm(alpha, m.as_ref(), Op::NoTrans, b, Op::NoTrans, beta, c),
            Panel::Compressed(lr) => lr.mul_dense(alpha, b, Op::NoTrans, beta, c),
        }
    }

    /// The panel's entries when it is empty or stored dense with one row or
    /// one column — what a width-1 supernode keeps below (`L`) and beside
    /// (`U`) its pivot, in front-row order (such a panel is below the BLR
    /// size gate).
    fn as_vector(&self) -> Option<&[T]> {
        match self {
            Panel::Empty => Some(&[]),
            Panel::Dense(m) if m.nrows().min(m.ncols()) == 1 => Some(m.data()),
            _ => None,
        }
    }

    /// `c ← c + α·Pᵀ·b` (plain transpose). `scratch` holds the compressed
    /// form's `rank × nrhs` intermediate (`rank ≤ c.nrows()`).
    fn mul_t_acc(
        &self,
        alpha: T,
        b: csolve_dense::MatRef<'_, T>,
        c: MatMut<'_, T>,
        scratch: &mut [T],
    ) {
        match self {
            Panel::Empty => {}
            Panel::Dense(m) => gemm(alpha, m.as_ref(), Op::Trans, b, Op::NoTrans, T::ONE, c),
            Panel::Compressed(lr) => {
                if lr.rank() == 0 {
                    return;
                }
                // (U·Vᵀ)ᵀ·b = V·(Uᵀ·b); β = 0 overwrites the stale scratch.
                let (r, nrhs) = (lr.rank(), b.ncols());
                let mut tmp = MatMut::from_col_major(r, nrhs, &mut scratch[..r * nrhs]);
                gemm(
                    T::ONE,
                    lr.u.as_ref(),
                    Op::Trans,
                    b,
                    Op::NoTrans,
                    T::ZERO,
                    tmp.rb_mut(),
                );
                gemm(
                    alpha,
                    lr.v.as_ref(),
                    Op::NoTrans,
                    tmp.rb(),
                    Op::NoTrans,
                    T::ONE,
                    c,
                );
            }
        }
    }

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
    /// Called inside `csolve_dense::with_colwise_det`, every column comes
    /// out with the bits of its own width-1 solve, and a panel of two or
    /// more register blocks is solved as per-thread column groups on
    /// whatever threads the caller's pool has idle.
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
        for_col_groups(b.as_mut(), |x| {
            let mut bp = self.permute_rhs(x.rb());
            self.solve_permuted(bp.as_mut(), &marked, &d);
            self.unpermute_into(bp.as_ref(), x);
        });
        Ok(())
    }

    /// Solve with a *sparse* right-hand side block, exploiting the nonzero
    /// structure in the forward pass (the equivalent of MUMPS `ICNTL(20)`).
    /// The result is returned dense — exactly like the real solvers, whose
    /// API cannot return a compressed or sparse solution.
    ///
    /// The columns are solved in independent fixed-width chunks (32 columns)
    /// that spread over whatever threads the caller's pool has idle; the
    /// result is bitwise identical at any thread count.
    pub fn solve_sparse_rhs(&self, rhs: &Csc<T>) -> Result<Mat<T>> {
        if self.symbolic.n_schur != 0 {
            return Err(Error::InvalidConfig(
                "solve on a partial (Schur) factorization".into(),
            ));
        }
        if rhs.nrows != self.n() {
            return Err(Error::DimensionMismatch {
                context: "sparse solve (sparse rhs)",
                expected: (self.n(), rhs.ncols),
                got: (rhs.nrows, rhs.ncols),
            });
        }
        let mut out = Mat::<T>::zeros(self.n(), rhs.ncols);
        let d = self.gather_d();
        let chunks: Vec<_> = out
            .as_mut()
            .col_chunks_mut(SOLVE_CHUNK_COLS)
            .into_iter()
            .enumerate()
            .collect();
        chunks
            .into_par_iter()
            .for_each(|(i, x)| self.solve_sparse_chunk(rhs, i * SOLVE_CHUNK_COLS, &d, x));
        Ok(out)
    }

    /// Solve columns `j0 .. j0 + x.ncols()` of `rhs` into `x` (original index
    /// order) through a workspace of the chunk's own: forward substitution
    /// visits only the supernodes *this chunk's* nonzeros reach.
    fn solve_sparse_chunk(&self, rhs: &Csc<T>, j0: usize, d: &[T], x: MatMut<'_, T>) {
        let w = x.ncols();
        // Permuted dense RHS + supernode marking.
        let mut bp = Mat::<T>::zeros(self.n(), w);
        let mut marked = vec![false; self.sns.len()];
        for j in 0..w {
            let col = bp.col_mut(j);
            for p in rhs.colptr[j0 + j]..rhs.colptr[j0 + j + 1] {
                let newi = self.symbolic.iperm[rhs.rowidx[p]];
                col[newi] = rhs.values[p];
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
        self.solve_permuted(bp.as_mut(), &marked, d);
        self.unpermute_into(bp.as_ref(), x);
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
    /// the sparse solver expands. Condensation and expansion split into
    /// column groups like [`Self::solve_in_place`]; `schur_solve` sees the
    /// whole reduced panel.
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
        let mut bp = self.permute_rhs(b.as_ref());
        let ne = self.symbolic.n_elim;
        let n = self.n();
        let nrhs = b.ncols();
        let d = self.gather_d();
        for_col_groups(bp.as_mut(), |mut x| {
            let mut scratch = self.solve_scratch(x.ncols());
            self.forward_permuted(x.rb_mut(), &marked, &mut scratch);
            self.diag_permuted(x, &d);
        });
        schur_solve(bp.view_mut(ne..n, 0..nrhs))?;
        for_col_groups(bp.as_mut(), |x| {
            let mut scratch = self.solve_scratch(x.ncols());
            self.backward_permuted(x, &mut scratch);
        });
        self.unpermute_into(bp.as_ref(), b.as_mut());
        Ok(())
    }

    fn permute_rhs(&self, b: MatRef<'_, T>) -> Mat<T> {
        let n = b.nrows();
        let mut bp = Mat::zeros(n, b.ncols());
        for j in 0..b.ncols() {
            let src = b.col(j);
            let dst = bp.col_mut(j);
            for (new, &old) in self.symbolic.perm.iter().enumerate() {
                dst[new] = src[old];
            }
        }
        bp
    }

    fn unpermute_into(&self, bp: MatRef<'_, T>, mut b: MatMut<'_, T>) {
        for j in 0..b.ncols() {
            let src = bp.col(j);
            let dst = b.col_mut(j);
            for (new, &old) in self.symbolic.perm.iter().enumerate() {
                dst[old] = src[new];
            }
        }
    }

    /// Forward + diagonal + backward on a permuted RHS; unmarked supernodes
    /// are skipped in the forward pass (their subtree RHS is entirely zero).
    fn solve_permuted(&self, mut bp: MatMut<'_, T>, marked: &[bool], d: &[T]) {
        let mut scratch = self.solve_scratch(bp.ncols());
        self.forward_permuted(bp.rb_mut(), marked, &mut scratch);
        self.diag_permuted(bp.rb_mut(), d);
        self.backward_permuted(bp, &mut scratch);
    }

    /// The one scratch buffer the passes over an `nrhs`-column workspace
    /// share: a supernode needs its `t × nrhs` update rows (`L21·x1`, or the
    /// gathered `x2`) plus, under a compressed panel, a `rank × nrhs`
    /// intermediate with `rank ≤ k` — together at most one front's rows.
    fn solve_scratch(&self, nrhs: usize) -> Vec<T> {
        vec![T::ZERO; self.stats.max_front * nrhs]
    }

    /// Forward substitution (`L⁻¹·P`) over the eliminated variables; Schur
    /// rows accumulate the condensed right-hand side.
    fn forward_permuted(&self, mut bp: MatMut<'_, T>, marked: &[bool], scratch: &mut [T]) {
        let nrhs = bp.ncols();
        for (s, sn) in self.sns.iter().enumerate() {
            if !marked[s] {
                continue;
            }
            let info = &self.symbolic.supernodes[s];
            let (c0, c1) = (info.c0, info.c1);
            let k = c1 - c0;
            if let (1, Some(l)) = (k, sn.lpanel.as_vector()) {
                // Unit pivot, nothing to swap: the supernode is one axpy per
                // column, straight on the workspace. The same operations at
                // every panel width, inside `with_colwise_det` and outside.
                for c in 0..nrhs {
                    let col = bp.col_mut(c);
                    let x = col[c0];
                    if x != T::ZERO {
                        for (&g, &lg) in info.rows[1..].iter().zip(l) {
                            col[g] -= lg * x;
                        }
                    }
                }
                continue;
            }
            // LU: local row swaps inside the pivot block.
            for (j, &p) in sn.ipiv.iter().enumerate() {
                if p != j {
                    for c in 0..nrhs {
                        let col = bp.col_mut(c);
                        col.swap(c0 + j, c0 + p);
                    }
                }
            }
            {
                let x1 = bp.rb_mut().submatrix_mut(c0..c1, 0..nrhs);
                trsm_left(
                    Tri::Lower,
                    Op::NoTrans,
                    Diag::Unit,
                    T::ONE,
                    sn.diag.as_ref(),
                    x1,
                );
            }
            if info.front_size() > k {
                let t = info.front_size() - k;
                // tmp = L21 · x1 (overwriting the stale scratch), then
                // scatter-subtract.
                let mut tmp = MatMut::from_col_major(t, nrhs, &mut scratch[..t * nrhs]);
                let x1 = bp.rb().submatrix(c0..c1, 0..nrhs);
                sn.lpanel.mul(T::ONE, x1, T::ZERO, tmp.rb_mut());
                for c in 0..nrhs {
                    let col = bp.col_mut(c);
                    for (&g, &v) in info.rows[k..].iter().zip(tmp.col(c)) {
                        col[g] -= v;
                    }
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

    /// Diagonal scaling by [`Self::gather_d`]: one contiguous sweep per
    /// column (a no-op for LU).
    fn diag_permuted(&self, mut bp: MatMut<'_, T>, d: &[T]) {
        for c in 0..bp.ncols() {
            for (x, &dj) in bp.col_mut(c).iter_mut().zip(d) {
                *x = *x / dj;
            }
        }
    }

    /// Backward substitution over the eliminated variables; Schur rows are
    /// read (they must hold `x_schur`) but never written.
    fn backward_permuted(&self, mut bp: MatMut<'_, T>, scratch: &mut [T]) {
        let nrhs = bp.ncols();
        for (s, sn) in self.sns.iter().enumerate().rev() {
            let info = &self.symbolic.supernodes[s];
            let (c0, c1) = (info.c0, info.c1);
            let k = c1 - c0;
            let row = match self.symmetry {
                Symmetry::SymmetricLdlt => &sn.lpanel,
                Symmetry::UnsymmetricLu => &sn.upanel,
            };
            if let (1, Some(row)) = (k, row.as_vector()) {
                // One dot product per column, gathered straight from the
                // workspace (`L21ᵀ·x2`, or `U12·x2` and the division by the
                // pivot LU keeps) — as in the forward pass, the same
                // operations whatever the panel width and mode.
                for c in 0..nrhs {
                    let col = bp.col_mut(c);
                    let mut acc = T::ZERO;
                    for (&g, &pg) in info.rows[1..].iter().zip(row) {
                        acc += pg * col[g];
                    }
                    col[c0] -= acc;
                    if self.symmetry == Symmetry::UnsymmetricLu {
                        col[c0] = col[c0] / sn.diag[(0, 0)];
                    }
                }
                continue;
            }
            if info.front_size() > k {
                let t = info.front_size() - k;
                // Gather x2; the rest of the scratch serves the panel product.
                let (x2, rest) = scratch.split_at_mut(t * nrhs);
                let mut x2 = MatMut::from_col_major(t, nrhs, x2);
                for c in 0..nrhs {
                    let col = bp.col(c);
                    for (x, &g) in x2.col_mut(c).iter_mut().zip(&info.rows[k..]) {
                        *x = col[g];
                    }
                }
                let x1 = bp.rb_mut().submatrix_mut(c0..c1, 0..nrhs);
                match self.symmetry {
                    Symmetry::SymmetricLdlt => {
                        // x1 −= L21ᵀ·x2
                        sn.lpanel.mul_t_acc(-T::ONE, x2.rb(), x1, rest);
                    }
                    Symmetry::UnsymmetricLu => {
                        // x1 −= U12·x2
                        sn.upanel.mul(-T::ONE, x2.rb(), T::ONE, x1);
                    }
                }
            }
            let x1 = bp.rb_mut().submatrix_mut(c0..c1, 0..nrhs);
            match self.symmetry {
                Symmetry::SymmetricLdlt => {
                    trsm_left(
                        Tri::Lower,
                        Op::Trans,
                        Diag::Unit,
                        T::ONE,
                        sn.diag.as_ref(),
                        x1,
                    );
                }
                Symmetry::UnsymmetricLu => {
                    trsm_left(
                        Tri::Upper,
                        Op::NoTrans,
                        Diag::NonUnit,
                        T::ONE,
                        sn.diag.as_ref(),
                        x1,
                    );
                }
            }
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
