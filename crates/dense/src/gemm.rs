//! General matrix-matrix and matrix-vector products.
//!
//! `C ← α·op(A)·op(B) + β·C` with `op ∈ {N, T, Cᴴ}`, on one of two routes
//! ([`gemm`] picks by the column count of `op(B)` alone):
//!
//! * **packed** — every product wider than one column: a BLIS-style
//!   cache-blocked engine (see the `pack` module). `C` is cut into a fixed
//!   grid of MC×NC macro-tiles, each tile packs its operand slabs into
//!   contiguous buffers (resolving transposition and conjugation once, at
//!   pack time) and drives the 16×8 register tile over KC-deep slabs. Rayon
//!   parallelism is over the macro-tiles.
//! * **matvec** — a single column goes through [`matvec`].
//!
//! **Determinism:** the route, and on the packed route the macro-tile grid,
//! depend only on the problem shape and per-type blocking constants — never
//! on the thread count — and each tile is computed serially in a fixed loop
//! order over the KC slabs. Every tile owns a disjoint block of `C`, so the
//! result is bitwise identical whether the tiles run on 1 thread or 16. This
//! extends the pipeline-level determinism guarantee of `csolve-core` down
//! into the kernels.
//!
//! A product is *not* column-separable: a width-`w` product takes the packed
//! route, its `w` single-column products the matvec one, hence other bits.
//! The multi-RHS solves do not come through here — they run on the lane
//! kernels ([`crate::lane`]), column-separable by layout, with no mode to
//! enter.
//!
//! [`gemm_naive`], the straightforward jki/dot kernel, is retained as the
//! reference implementation the routes are property-tested against; no
//! production path calls it.

use csolve_common::Scalar;
use rayon::prelude::*;

use crate::mat::{Mat, MatMut, MatRef};
use crate::pack::{blocking, macro_kernel, macro_kernel_split, pack, MR, NR};

/// Transposition operator applied to a GEMM operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Use the operand as stored.
    NoTrans,
    /// Plain transpose (no conjugation) — the one used by the complex
    /// *symmetric* LDLᵀ factorizations.
    Trans,
    /// Conjugate transpose.
    ConjTrans,
}

impl Op {
    /// (rows, cols) of `op(A)` given the storage shape of `A`.
    pub fn shape_of(self, a: &MatRef<'_, impl Scalar>) -> (usize, usize) {
        match self {
            Op::NoTrans => (a.nrows(), a.ncols()),
            Op::Trans | Op::ConjTrans => (a.ncols(), a.nrows()),
        }
    }
}

/// Flop count above which the bandwidth-bound kernels ([`matvec`], the
/// triangular-solve base case, counted as `k²·w`) fork into rayon tasks;
/// below it both stay on the calling thread — a matvec as one chunk, the
/// base case under [`with_serial`]'s one-thread budget. The packed GEMM uses
/// the much larger, calibration-derived [`gemm_par_flop_threshold`] instead:
/// compute-bound macro-tiles only amortize a fork when there are at least a
/// couple of cache-sized tiles of work.
pub const PAR_FLOP_THRESHOLD: f64 = 2e5;

/// Flop count above which the packed GEMM forks its macro-tiles into rayon
/// tasks, derived from the calibrated cache blocking: `2 · MC · KC · NC` is
/// the flop count of two full macro-column tasks, the smallest amount of
/// work for which shipping tiles to another worker has been observed to beat
/// running them in place (below it, threaded GEMM used to run *at* serial
/// speed while burning extra CPU). `elem_bytes` selects the per-scalar-width
/// blocking (8 for reals, 16 for `C64`).
pub fn gemm_par_flop_threshold(elem_bytes: usize) -> f64 {
    let b = crate::cache::kernel_blocking(elem_bytes);
    2.0 * b.mc as f64 * b.kc as f64 * b.nc as f64
}

/// Run `f` under a thread budget of 1 (the rayon shim's
/// `ThreadPool::install`): every kernel it calls — macro-tiles, matvec
/// chunks, the lane groups of [`crate::lane::solve_panel`], the later
/// blocks of a blocked LDLᵀ — stays on the calling thread, because no fork
/// finds a helper permit under it. Used by the factorizations to route
/// sub-threshold problems past rayon entirely instead of paying fork/join
/// overhead on every small trailing update; results are bitwise identical
/// either way.
pub fn with_serial<R>(f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-thread budget")
        .install(f)
}

/// Apply the BLAS β-preamble `C ← β·C` to a block.
///
/// Semantics (documented contract, shared by [`gemm`], [`gemm_naive`] and the
/// matrix side of [`matvec`]): `β == 0` *overwrites* `C` with zeros rather
/// than multiplying, so NaN/Inf garbage in a freshly allocated or
/// uninitialized destination never propagates into the product; `β == 1`
/// leaves `C` untouched; any other value scales in place.
pub(crate) fn scale_block<T: Scalar>(beta: T, c: &mut MatMut<'_, T>) {
    if beta == T::ZERO {
        c.fill(T::ZERO);
    } else if beta != T::ONE {
        for j in 0..c.ncols() {
            for x in c.col_mut(j) {
                *x *= beta;
            }
        }
    }
}

/// Vector form of [`scale_block`] with the same `β == 0` overwrite semantics.
fn scale_slice<T: Scalar>(beta: T, y: &mut [T]) {
    if beta == T::ZERO {
        y.fill(T::ZERO);
    } else if beta != T::ONE {
        for v in y.iter_mut() {
            *v *= beta;
        }
    }
}

#[inline]
fn b_elem<T: Scalar>(b: MatRef<'_, T>, opb: Op, k: usize, j: usize) -> T {
    match opb {
        Op::NoTrans => b.get(k, j),
        Op::Trans => b.get(j, k),
        Op::ConjTrans => b.get(j, k).conj(),
    }
}

/// Reference kernel: serial jki (axpy) / dot-product GEMM with per-element
/// `Op` dispatch. Retained as the ground truth the packed and matvec routes
/// are property-tested against; [`gemm`] never calls it.
pub fn gemm_naive<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    opa: Op,
    b: MatRef<'_, T>,
    opb: Op,
    beta: T,
    mut c: MatMut<'_, T>,
) {
    let (am, ak) = opa.shape_of(&a);
    let (bk, bn) = opb.shape_of(&b);
    assert_eq!(ak, bk, "gemm_naive: inner dimensions");
    assert_eq!(c.nrows(), am, "gemm_naive: C rows");
    assert_eq!(c.ncols(), bn, "gemm_naive: C cols");
    let m = c.nrows();
    let n = c.ncols();
    scale_block(beta, &mut c);
    match opa {
        Op::NoTrans => {
            // c[:, j] += (alpha * b(k, j)) * a[:, k]  — contiguous axpys.
            for j in 0..n {
                let cj = c.col_mut(j);
                for k in 0..ak {
                    let s = alpha * b_elem(b, opb, k, j);
                    if s == T::ZERO {
                        continue;
                    }
                    let akc = a.col(k);
                    for (ci, &aik) in cj.iter_mut().zip(akc) {
                        *ci += s * aik;
                    }
                }
            }
        }
        Op::Trans | Op::ConjTrans => {
            // c[i, j] += alpha * dot(op(a)[i, :], b(:, j)); column i of the
            // stored A is contiguous.
            let conj_a = opa == Op::ConjTrans;
            for j in 0..n {
                for i in 0..m {
                    let ai = a.col(i);
                    let mut acc = T::ZERO;
                    if conj_a {
                        for (k, &aki) in ai.iter().enumerate().take(ak) {
                            acc += aki.conj() * b_elem(b, opb, k, j);
                        }
                    } else {
                        for (k, &aki) in ai.iter().enumerate().take(ak) {
                            acc += aki * b_elem(b, opb, k, j);
                        }
                    }
                    let v = c.get(i, j) + alpha * acc;
                    c.set(i, j, v);
                }
            }
        }
    }
}

/// One macro-tile of the blocked product: applies β to its disjoint `C`
/// block, then serially accumulates `α·op(A)·op(B)` over the KC slabs in a
/// fixed order. Runs as one rayon task; owning disjoint `C` and fixed
/// serial slab order is what makes the whole product thread-count invariant.
/// Complex scalars pack each slab into separate re/im `f64` planes and drive
/// the real tile over them four times per micro-tile; reals use the plain
/// packed kernel.
#[allow(clippy::too_many_arguments)]
fn gemm_macro_tile<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    opa: Op,
    b: MatRef<'_, T>,
    opb: Op,
    beta: T,
    mut c: MatMut<'_, T>,
    i0: usize,
    j0: usize,
    kdim: usize,
    kc_max: usize,
) {
    scale_block(beta, &mut c);
    let mc = c.nrows();
    let nc = c.ncols();
    let (mut apack, mut bpack) = (Vec::new(), Vec::new());
    let (mut aplanes, mut bplanes) = ((Vec::new(), Vec::new()), (Vec::new(), Vec::new()));
    let mut p0 = 0;
    while p0 < kdim {
        let kc = kc_max.min(kdim - p0);
        if T::IS_COMPLEX {
            pack::<T, NR>(b, opb, false, j0, p0, nc, kc, &mut bplanes);
            pack::<T, MR>(a, opa, true, i0, p0, mc, kc, &mut aplanes);
            let (ap, bp) = ((&*aplanes.0, &*aplanes.1), (&*bplanes.0, &*bplanes.1));
            macro_kernel_split(alpha, ap, bp, mc, nc, kc, &mut c);
        } else {
            pack::<T, NR>(b, opb, false, j0, p0, nc, kc, &mut bpack);
            pack::<T, MR>(a, opa, true, i0, p0, mc, kc, &mut apack);
            macro_kernel(alpha, &apack, &bpack, mc, nc, kc, &mut c);
        }
        p0 += kc;
    }
}

/// Cut `C` into the macro-tile grid: row blocks of at most `mc`, column
/// blocks of at most `col_step`. The geometry never influences the numerical
/// result (each element accumulates its KC slabs in the same fixed `k`
/// order regardless of which tile owns it), so the column step is free to
/// shrink below NC for parallel grain without touching determinism.
fn tile_grid<T: Scalar>(
    c: MatMut<'_, T>,
    mc: usize,
    col_step: usize,
) -> Vec<(usize, usize, MatMut<'_, T>)> {
    let mut tiles = Vec::new();
    let mut rest_cols = c;
    let mut j0 = 0;
    while rest_cols.ncols() > 0 {
        let w = col_step.min(rest_cols.ncols());
        let (colblk, tail) = rest_cols.split_at_col(w);
        let mut rest_rows = colblk;
        let mut i0 = 0;
        while rest_rows.nrows() > 0 {
            let h = mc.min(rest_rows.nrows());
            let (blk, tail_r) = rest_rows.split_at_row(h);
            tiles.push((i0, j0, blk));
            rest_rows = tail_r;
            i0 += h;
        }
        rest_cols = tail;
        j0 += w;
    }
    tiles
}

/// Whether a blocked product of `flops` should fork, and the macro-tile
/// column step to use. Parallel runs split the NC blocks four ways so a
/// product of only one or two macro-columns still feeds every worker.
fn par_plan<T: Scalar>(flops: f64, nc: usize) -> (bool, usize) {
    let par = flops >= gemm_par_flop_threshold(std::mem::size_of::<T>())
        && rayon::current_num_threads() > 1;
    let col_step = if par { (nc / 4).max(4 * NR) } else { nc };
    (par, col_step)
}

/// The packed route on its own: `C ← α·op(A)·op(B) + β·C` through the
/// cache-blocked engine whatever the shape. [`gemm`] is the entry point for
/// production code and takes every product wider than one column here; this
/// one is public so tests can run the packed engine on a single column too.
pub fn gemm_packed<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    opa: Op,
    b: MatRef<'_, T>,
    opb: Op,
    beta: T,
    c: MatMut<'_, T>,
) {
    let (am, ak) = opa.shape_of(&a);
    let (bk, bn) = opb.shape_of(&b);
    assert_eq!(ak, bk, "gemm_packed: inner dimensions");
    assert_eq!((c.nrows(), c.ncols()), (am, bn), "gemm_packed: C shape");
    let flops = 2.0 * am as f64 * bn as f64 * ak as f64;
    let bs = blocking::<T>();
    let (par, col_step) = par_plan::<T>(flops, bs.nc);
    let tiles = tile_grid(c, bs.mc, col_step);
    let run = |(i0, j0, blk): (usize, usize, MatMut<'_, T>)| {
        gemm_macro_tile(alpha, a, opa, b, opb, beta, blk, i0, j0, ak, bs.kc)
    };
    if !par {
        tiles.into_iter().for_each(run);
    } else {
        tiles.into_par_iter().for_each(run);
    }
}

/// `C ← α·op(A)·op(B) + β·C`.
///
/// Panics on non-conforming shapes (programming error, not a runtime
/// condition). See the module docs for the dispatch strategy and the
/// determinism guarantee; `β == 0` overwrites `C` (see [`gemm_naive`]'s
/// shared preamble semantics).
pub fn gemm<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    opa: Op,
    b: MatRef<'_, T>,
    opb: Op,
    beta: T,
    mut c: MatMut<'_, T>,
) {
    let (am, ak) = opa.shape_of(&a);
    let (bk, bn) = opb.shape_of(&b);
    assert_eq!(ak, bk, "gemm: inner dimensions");
    assert_eq!(c.nrows(), am, "gemm: C rows");
    assert_eq!(c.ncols(), bn, "gemm: C cols");
    if am == 0 || bn == 0 {
        return;
    }
    if ak == 0 {
        // Pure scaling of C.
        scale_block(beta, &mut c);
        return;
    }
    if bn == 1 {
        // Single-column product: a serial GEMM here would leave an `m·k`-sized
        // product on one core — route through the (parallelized) matvec.
        let y = c.col_mut(0);
        match opb {
            Op::NoTrans => matvec(alpha, a, opa, b.col(0), beta, y),
            _ => {
                let x: Vec<T> = (0..ak).map(|kk| b_elem(b, opb, kk, 0)).collect();
                matvec(alpha, a, opa, &x, beta, y)
            }
        }
    } else {
        gemm_packed(alpha, a, opa, b, opb, beta, c);
    }
}

/// Convenience: allocate and return `op(A)·op(B)`.
pub fn gemm_into<T: Scalar>(a: MatRef<'_, T>, opa: Op, b: MatRef<'_, T>, opb: Op) -> Mat<T> {
    let (m, _) = opa.shape_of(&a);
    let (_, n) = opb.shape_of(&b);
    let mut c = Mat::zeros(m, n);
    gemm(T::ONE, a, opa, b, opb, T::ZERO, c.as_mut());
    c
}

/// `y ← α·op(A)·x + β·y`.
///
/// Parallelizes over row chunks of `y` above [`PAR_FLOP_THRESHOLD`]. Each
/// element of `y` is accumulated in the same fixed `k` order regardless of
/// the chunking, so the result is bitwise identical for any thread count.
/// `β == 0` overwrites `y` (same preamble semantics as [`gemm`]).
pub fn matvec<T: Scalar>(alpha: T, a: MatRef<'_, T>, opa: Op, x: &[T], beta: T, y: &mut [T]) {
    let (m, k) = opa.shape_of(&a);
    assert_eq!(x.len(), k, "matvec: x length");
    assert_eq!(y.len(), m, "matvec: y length");
    scale_slice(beta, y);
    if m == 0 || k == 0 {
        return;
    }
    let flops = 2.0 * m as f64 * k as f64;
    if flops < PAR_FLOP_THRESHOLD || rayon::current_num_threads() == 1 {
        matvec_chunk(alpha, a, opa, x, 0, y);
        return;
    }
    let chunk = m.div_ceil(4 * rayon::current_num_threads()).max(64);
    let mut chunks: Vec<(usize, &mut [T])> = Vec::with_capacity(m.div_ceil(chunk));
    let mut rest = y;
    let mut r0 = 0;
    while !rest.is_empty() {
        let w = chunk.min(rest.len());
        let (head, tail) = rest.split_at_mut(w);
        chunks.push((r0, head));
        rest = tail;
        r0 += w;
    }
    chunks.into_par_iter().for_each(|(r0, yc)| {
        matvec_chunk(alpha, a, opa, x, r0, yc);
    });
}

/// Accumulate `yc += α·op(A)[r0..r0+len, :]·x` for one row chunk of `y`.
fn matvec_chunk<T: Scalar>(alpha: T, a: MatRef<'_, T>, opa: Op, x: &[T], r0: usize, yc: &mut [T]) {
    let len = yc.len();
    match opa {
        Op::NoTrans => {
            for (kk, &xk) in x.iter().enumerate() {
                let s = alpha * xk;
                if s == T::ZERO {
                    continue;
                }
                let ak = &a.col(kk)[r0..r0 + len];
                for (yi, &aik) in yc.iter_mut().zip(ak) {
                    *yi += s * aik;
                }
            }
        }
        Op::Trans => {
            for (ii, yi) in yc.iter_mut().enumerate() {
                let ai = a.col(r0 + ii);
                let mut acc = T::ZERO;
                for (aki, &xk) in ai.iter().zip(x) {
                    acc += *aki * xk;
                }
                *yi += alpha * acc;
            }
        }
        Op::ConjTrans => {
            for (ii, yi) in yc.iter_mut().enumerate() {
                let ai = a.col(r0 + ii);
                let mut acc = T::ZERO;
                for (aki, &xk) in ai.iter().zip(x) {
                    acc += aki.conj() * xk;
                }
                *yi += alpha * acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::{host_isas, Isa};
    use csolve_common::C64;
    use rand::SeedableRng;

    fn naive_ref<T: Scalar>(a: &Mat<T>, opa: Op, b: &Mat<T>, opb: Op) -> Mat<T> {
        let (m, k) = opa.shape_of(&a.as_ref());
        let (_, n) = opb.shape_of(&b.as_ref());
        let ae = |i: usize, kk: usize| match opa {
            Op::NoTrans => a[(i, kk)],
            Op::Trans => a[(kk, i)],
            Op::ConjTrans => a[(kk, i)].conj(),
        };
        let be = |kk: usize, j: usize| match opb {
            Op::NoTrans => b[(kk, j)],
            Op::Trans => b[(j, kk)],
            Op::ConjTrans => b[(j, kk)].conj(),
        };
        Mat::from_fn(m, n, |i, j| {
            let mut s = T::ZERO;
            for kk in 0..k {
                s += ae(i, kk) * be(kk, j);
            }
            s
        })
    }

    fn assert_close_f64(a: &Mat<f64>, b: &Mat<f64>, tol: f64) {
        let mut d = a.clone();
        d.axpy(-1.0, b);
        assert!(
            d.norm_max() <= tol,
            "matrices differ by {:.3e}",
            d.norm_max()
        );
    }

    #[test]
    fn gemm_matches_naive_all_ops_real() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for &(m, k, n) in &[(3, 4, 5), (17, 9, 13), (40, 33, 21)] {
            for &opa in &[Op::NoTrans, Op::Trans] {
                for &opb in &[Op::NoTrans, Op::Trans] {
                    let (am, ak) = if opa == Op::NoTrans { (m, k) } else { (k, m) };
                    let (bk, bn) = if opb == Op::NoTrans { (k, n) } else { (n, k) };
                    let a = Mat::<f64>::random(am, ak, &mut rng);
                    let b = Mat::<f64>::random(bk, bn, &mut rng);
                    let got = gemm_into(a.as_ref(), opa, b.as_ref(), opb);
                    let want = naive_ref(&a, opa, &b, opb);
                    assert_close_f64(&got, &want, 1e-12);
                }
            }
        }
    }

    #[test]
    fn gemm_blocked_path_matches_naive_all_ops() {
        // Big enough to exercise packing, edge tiles and multiple KC slabs.
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for &(m, k, n) in &[(131, 260, 75), (128, 192, 64), (67, 300, 130)] {
            for &opa in &[Op::NoTrans, Op::Trans] {
                for &opb in &[Op::NoTrans, Op::Trans] {
                    let (am, ak) = if opa == Op::NoTrans { (m, k) } else { (k, m) };
                    let (bk, bn) = if opb == Op::NoTrans { (k, n) } else { (n, k) };
                    let a = Mat::<f64>::random(am, ak, &mut rng);
                    let b = Mat::<f64>::random(bk, bn, &mut rng);
                    let got = gemm_into(a.as_ref(), opa, b.as_ref(), opb);
                    let mut want = Mat::<f64>::zeros(m, n);
                    gemm_naive(1.0, a.as_ref(), opa, b.as_ref(), opb, 0.0, want.as_mut());
                    assert_close_f64(&got, &want, 1e-11);
                }
            }
        }
    }

    #[test]
    fn gemm_complex_conj_transpose() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let a = Mat::<C64>::random(6, 4, &mut rng);
        let b = Mat::<C64>::random(6, 5, &mut rng);
        let got = gemm_into(a.as_ref(), Op::ConjTrans, b.as_ref(), Op::NoTrans);
        let want = naive_ref(&a, Op::ConjTrans, &b, Op::NoTrans);
        let mut d = got.clone();
        d.axpy(-C64::ONE, &want);
        assert!(d.norm_max() < 1e-12);
        // A^H A must be Hermitian with real diagonal.
        let aha = gemm_into(a.as_ref(), Op::ConjTrans, a.as_ref(), Op::NoTrans);
        for i in 0..4 {
            assert!(aha[(i, i)].im.abs() < 1e-12);
            for j in 0..4 {
                let d = aha[(i, j)] - aha[(j, i)].conj();
                assert!(d.abs() < 1e-12);
            }
        }
    }

    #[test]
    fn gemm_complex_blocked_conj_ops() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let a = Mat::<C64>::random(90, 70, &mut rng);
        let b = Mat::<C64>::random(90, 80, &mut rng);
        for &opb in &[Op::NoTrans, Op::Trans] {
            let bt = if opb == Op::NoTrans {
                b.clone()
            } else {
                b.transpose()
            };
            let got = gemm_into(a.as_ref(), Op::ConjTrans, bt.as_ref(), opb);
            let want = naive_ref(&a, Op::ConjTrans, &bt, opb);
            let mut d = got;
            d.axpy(-C64::ONE, &want);
            assert!(d.norm_max() < 1e-10, "{opb:?}: {:.3e}", d.norm_max());
        }
    }

    #[test]
    fn gemm_alpha_beta_accumulation() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a = Mat::<f64>::random(5, 5, &mut rng);
        let b = Mat::<f64>::random(5, 5, &mut rng);
        let c0 = Mat::<f64>::random(5, 5, &mut rng);
        let mut c = c0.clone();
        gemm(
            2.0,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            Op::NoTrans,
            0.5,
            c.as_mut(),
        );
        let mut want = naive_ref(&a, Op::NoTrans, &b, Op::NoTrans);
        want.scale(2.0);
        let mut half_c0 = c0.clone();
        half_c0.scale(0.5);
        want.axpy(1.0, &half_c0);
        assert_close_f64(&c, &want, 1e-12);
    }

    #[test]
    fn gemm_beta_zero_clears_nan_garbage() {
        // β = 0 must overwrite, not multiply: NaN in the destination is
        // cleared rather than propagated.
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let a = Mat::<f64>::random(150, 150, &mut rng);
        let b = Mat::<f64>::random(150, 150, &mut rng);
        let mut c = Mat::<f64>::from_fn(150, 150, |_, _| f64::NAN);
        gemm(
            1.0,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            Op::NoTrans,
            0.0,
            c.as_mut(),
        );
        let want = naive_ref(&a, Op::NoTrans, &b, Op::NoTrans);
        assert_close_f64(&c, &want, 1e-10);
        // Same contract on the naive path and matvec.
        let mut cn = Mat::<f64>::from_fn(5, 5, |_, _| f64::INFINITY);
        gemm_naive(
            1.0,
            a.view(0..5, 0..5),
            Op::NoTrans,
            b.view(0..5, 0..5),
            Op::NoTrans,
            0.0,
            cn.as_mut(),
        );
        assert!(cn.norm_max().is_finite());
        let mut y = vec![f64::NAN; 150];
        matvec(1.0, a.as_ref(), Op::NoTrans, b.col(0), 0.0, &mut y);
        assert!(y.iter().all(|v| v.is_finite()));
    }

    /// A GEMM entry point: [`gemm`] or [`gemm_packed`].
    type Route<T> = fn(T, MatRef<'_, T>, Op, MatRef<'_, T>, Op, T, MatMut<'_, T>);

    /// Stored shapes of the views of `A` and `B`.
    type ViewShapes = ((usize, usize), (usize, usize));

    /// Seeded operands of an `m×n·k` product under `(opa, opb)`, each larger
    /// than its view so every view is strided: `(A, B, C₀)` and the stored
    /// shapes of the views of `A` (from row 3) and `B` (from row 1, column 2).
    fn operands<T: Scalar>(
        (m, n, k): (usize, usize, usize),
        (opa, opb): (Op, Op),
    ) -> (Mat<T>, Mat<T>, Mat<T>, ViewShapes) {
        let mut rng = rand::rngs::StdRng::seed_from_u64((m * 131 + n * 17 + k) as u64);
        let stored = |op: Op, r: usize, c: usize| if op == Op::NoTrans { (r, c) } else { (c, r) };
        let ((ar, ac), (br, bc)) = (stored(opa, m, k), stored(opb, k, n));
        let a = Mat::<T>::random(ar + 3, ac + 1, &mut rng);
        let b = Mat::<T>::random(br + 2, bc + 2, &mut rng);
        let c0 = Mat::<T>::random(m + 5, n + 1, &mut rng);
        (a, b, c0, ((ar, ac), (br, bc)))
    }

    /// `route` against [`gemm_naive`] on strided views of seeded operands,
    /// within `k·eps·‖A‖·‖B‖` (max norms; a complex product is four real ones).
    fn route_matches_naive<T: Scalar>(
        route: Route<T>,
        (m, n, k): (usize, usize, usize),
        (opa, opb): (Op, Op),
        what: &str,
    ) {
        use csolve_common::RealScalar;
        let (a, b, c0, ((ar, ac), (br, bc))) = operands::<T>((m, n, k), (opa, opb));
        let (av, bv) = (a.view(3..3 + ar, 0..ac), b.view(1..1 + br, 2..2 + bc));
        for (alpha, beta) in [
            (T::ONE, T::ZERO),
            (-T::ONE, T::ONE),
            (T::from_f64(1.5), T::from_f64(-0.5)),
        ] {
            let (mut want, mut got) = (c0.clone(), c0.clone());
            gemm_naive(alpha, av, opa, bv, opb, beta, want.view_mut(2..2 + m, 0..n));
            route(alpha, av, opa, bv, opb, beta, got.view_mut(2..2 + m, 0..n));
            let mut d = got;
            d.axpy(-T::ONE, &want);
            let scale = if T::IS_COMPLEX { 8.0 } else { 2.0 };
            let ab = (a.norm_max() * b.norm_max() * Scalar::abs(alpha)).to_f64();
            let tol = scale * (k + 2) as f64 * f64::EPSILON * (ab + Scalar::abs(beta).to_f64());
            let err = d.norm_max().to_f64();
            assert!(
                err <= tol,
                "{what} {opa:?} {opb:?} {m}x{n}x{k} alpha {alpha:?} beta {beta:?}: off by {err:.3e} > {tol:.3e}"
            );
        }
    }

    /// [`gemm_packed`] and [`gemm`] against the reference on one shape.
    fn both_routes<T: Scalar>(shape: (usize, usize, usize), ops: (Op, Op), isa: Isa) {
        for (route, name) in [(gemm_packed as Route<T>, "packed"), (gemm, "gemm")] {
            route_matches_naive(route, shape, ops, &format!("{isa:?} {name}"));
        }
    }

    /// The packed 16×8 tile, and [`gemm`] over it, against the reference on
    /// every body (AVX-512, AVX2, portable) the host has, whatever it would
    /// pick for itself: every `Op` pair, `f64` and `C64`, strided operands,
    /// `m % 16 ≠ 0`, `n % 8 ≠ 0`, `k` down to 0 and across two `KC` slabs.
    #[test]
    fn packed_route_matches_naive_on_every_tile_body() {
        let ops = [Op::NoTrans, Op::Trans, Op::ConjTrans];
        let kc2 = blocking::<f64>().kc + 9;
        for isa in host_isas() {
            crate::simd::with_isa(isa, || {
                with_serial(|| {
                    for shape in [
                        (1, 1, 1),
                        (5, 3, 7),
                        (16, 8, 1),
                        (17, 9, 7),
                        (33, 31, 40),
                        (20, 12, kc2),
                        (7, 5, 0),
                    ] {
                        for ops in ops.iter().flat_map(|&a| ops.iter().map(move |&b| (a, b))) {
                            both_routes::<f64>(shape, ops, isa);
                            both_routes::<C64>(shape, ops, isa);
                        }
                    }
                })
            });
        }
    }

    /// The dispatch reads the column count alone — never the pool, the
    /// operand forms or the scalar type: every product wider than a column
    /// has the bits of [`gemm_packed`] and every single column those of
    /// [`matvec`], at 1 and 4 threads. Tiny products, 32-column panel
    /// updates and doubly transposed ones included.
    #[test]
    fn every_product_wider_than_a_column_takes_the_packed_route() {
        fn same_bits<T: Scalar>(shape: (usize, usize, usize), ops: (Op, Op)) {
            use csolve_common::RealScalar;
            let (m, n, k) = shape;
            let (opa, opb) = ops;
            let (a, b, c0, ((ar, ac), (br, bc))) = operands::<T>(shape, ops);
            let (av, bv) = (a.view(3..3 + ar, 0..ac), b.view(1..1 + br, 2..2 + bc));
            let (alpha, beta) = (T::from_f64(1.5), T::from_f64(-0.5));
            let run = |route: &dyn Fn(MatMut<'_, T>)| {
                let mut c = c0.clone();
                route(c.view_mut(2..2 + m, 0..n));
                c.data()
                    .iter()
                    .map(|v| (v.real().to_f64().to_bits(), v.imag().to_f64().to_bits()))
                    .collect::<Vec<_>>()
            };
            let want = if n == 1 {
                let x: Vec<T> = (0..k).map(|kk| b_elem(bv, opb, kk, 0)).collect();
                run(&|mut c| matvec(alpha, av, opa, &x, beta, c.col_mut(0)))
            } else {
                run(&|c| gemm_packed(alpha, av, opa, bv, opb, beta, c))
            };
            for threads in [1, 4] {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build();
                let got = pool
                    .expect("pool")
                    .install(|| run(&|c| gemm(alpha, av, opa, bv, opb, beta, c)));
                let name = std::any::type_name::<T>();
                assert!(
                    got == want,
                    "{name} {m}x{n}x{k} {opa:?} {opb:?} at {threads} threads"
                );
            }
        }
        let (n, t) = (Op::NoTrans, Op::Trans);
        for (shape, ops) in [
            ((300, 32, 32), (n, n)),
            ((32, 32, 300), (t, n)),
            ((300, 33, 32), (n, n)),
            ((4, 4, 4), (t, t)),
            ((8, 8, 8), (n, t)),
            ((2, 2, 1), (Op::ConjTrans, n)),
            ((300, 1, 32), (n, t)),
            ((32, 1, 300), (t, n)),
        ] {
            same_bits::<f64>(shape, ops);
            same_bits::<C64>(shape, ops);
        }
    }

    #[test]
    fn gemm_large_parallel_path_matches() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let a = Mat::<f64>::random(64, 48, &mut rng);
        let b = Mat::<f64>::random(48, 72, &mut rng);
        let got = gemm_into(a.as_ref(), Op::NoTrans, b.as_ref(), Op::NoTrans);
        let want = naive_ref(&a, Op::NoTrans, &b, Op::NoTrans);
        assert_close_f64(&got, &want, 1e-11);
    }

    #[test]
    fn gemm_on_strided_views() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let big = Mat::<f64>::random(10, 10, &mut rng);
        let a = big.view(1..5, 2..6); // 4x4 strided
        let b = big.view(3..7, 0..4);
        let mut c = Mat::<f64>::zeros(4, 4);
        gemm(1.0, a, Op::NoTrans, b, Op::Trans, 0.0, c.as_mut());
        let want = naive_ref(&a.to_owned(), Op::NoTrans, &b.to_owned(), Op::Trans);
        assert_close_f64(&c, &want, 1e-12);
    }

    #[test]
    fn gemm_degenerate_dims() {
        let a = Mat::<f64>::zeros(0, 3);
        let b = Mat::<f64>::zeros(3, 4);
        let c = gemm_into(a.as_ref(), Op::NoTrans, b.as_ref(), Op::NoTrans);
        assert_eq!(c.nrows(), 0);
        // k = 0: product is zero matrix.
        let a = Mat::<f64>::zeros(3, 0);
        let b = Mat::<f64>::zeros(0, 2);
        let c = gemm_into(a.as_ref(), Op::NoTrans, b.as_ref(), Op::NoTrans);
        assert_eq!(c.norm_max(), 0.0);
    }

    #[test]
    fn gemm_single_column_routes_through_matvec() {
        // bn == 1 used to force the serial path; it now goes through matvec.
        // Check all opb shapes feeding a single output column.
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let a = Mat::<f64>::random(300, 200, &mut rng);
        let bcol = Mat::<f64>::random(200, 1, &mut rng);
        let brow = bcol.transpose();
        for &(bm, opb) in &[(&bcol, Op::NoTrans), (&brow, Op::Trans)] {
            let mut c = Mat::<f64>::zeros(300, 1);
            gemm(
                1.0,
                a.as_ref(),
                Op::NoTrans,
                bm.as_ref(),
                opb,
                0.0,
                c.as_mut(),
            );
            let want = naive_ref(&a, Op::NoTrans, &bcol, Op::NoTrans);
            assert_close_f64(&c, &want, 1e-11);
        }
    }

    #[test]
    fn matvec_all_ops() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let a = Mat::<C64>::random(4, 3, &mut rng);
        let x3: Vec<C64> = (0..3).map(|_| C64::rand_unit(&mut rng)).collect();
        let x4: Vec<C64> = (0..4).map(|_| C64::rand_unit(&mut rng)).collect();

        let mut y = vec![C64::ZERO; 4];
        matvec(C64::ONE, a.as_ref(), Op::NoTrans, &x3, C64::ZERO, &mut y);
        for i in 0..4 {
            let mut want = C64::ZERO;
            for k in 0..3 {
                want += a[(i, k)] * x3[k];
            }
            assert!((y[i] - want).abs() < 1e-12);
        }

        let mut y = vec![C64::ZERO; 3];
        matvec(C64::ONE, a.as_ref(), Op::ConjTrans, &x4, C64::ZERO, &mut y);
        for i in 0..3 {
            let mut want = C64::ZERO;
            for k in 0..4 {
                want += a[(k, i)].conj() * x4[k];
            }
            assert!((y[i] - want).abs() < 1e-12);
        }
    }

    #[test]
    fn matvec_parallel_path_matches_serial() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let a = Mat::<f64>::random(500, 400, &mut rng);
        let x: Vec<f64> = (0..400).map(|i| (i as f64 * 0.1).sin()).collect();
        let xt: Vec<f64> = (0..500).map(|i| (i as f64 * 0.2).cos()).collect();
        for &(op, xs) in &[(Op::NoTrans, &x), (Op::Trans, &xt)] {
            let (m, _) = op.shape_of(&a.as_ref());
            let mut y_par = vec![0.5; m];
            matvec(2.0, a.as_ref(), op, xs, 0.5, &mut y_par);
            let mut y_ser = vec![0.5; m];
            scale_slice(0.5, &mut y_ser);
            matvec_chunk(2.0, a.as_ref(), op, xs, 0, &mut y_ser);
            // Same fixed k-order per element: must be bitwise identical.
            for (u, v) in y_par.iter().zip(&y_ser) {
                assert_eq!(u.to_bits(), v.to_bits());
            }
        }
    }
}
