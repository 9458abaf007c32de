//! The unpacked small-shape GEMM route: register tiles that read `A` and `B`
//! where they lie.
//!
//! Packing pays when every packed element is reused across many register
//! tiles. Below that — a product of a few thousand flops, or one whose
//! `op(B)` is a few register tiles wide, like a `t×k · k×32` or `k×t ·
//! t×32` panel update — the copies cost as much as the arithmetic. This route computes `C ← α·op(A)·op(B) + β·C` straight from
//! the operands with two tiles over [`Lanes`]:
//!
//! * `op(A) = A` — an **axpy tile**: `RV` registers of rows × `NC` columns of
//!   `C` stay in accumulators while `k` runs; each step loads the rows of one
//!   column of `A` (contiguous) and broadcasts `NC` elements of `op(B)` (any
//!   stride, so `op(B) = Bᵀ` costs nothing).
//! * `op(A) = Aᵀ, Aᴴ` with `op(B) = B` — a **dot tile**: `DM × DN` elements
//!   of `C`, each one register of partial sums over `k` (columns of `A` and
//!   of `B` are both contiguous in `k`), reduced once at the end.
//!
//! Edges are masked ([`Lanes::load_n`] / [`Lanes::store_n`]) or, across tile
//! columns, computed on a repeated live column and not stored. β is applied in
//! the write-back, so `β = 0` never reads `C`. Both operands transposed has no
//! in-place tile and stays on the packed route ([`has_tile`]).
//!
//! Serial, and a fixed operation order per element of `C` given the shapes:
//! the route cannot make a result depend on the thread count.

use csolve_common::Scalar;

use crate::gemm::Op;
use crate::mat::{MatMut, MatRef};
use crate::simd::{as_f64, isa, Isa, Lanes, Portable};
#[cfg(target_arch = "x86_64")]
use crate::simd::{Avx2, Avx512};

/// Whether the route has a tile for this pair of operand forms.
pub(crate) fn has_tile(opa: Op, opb: Op) -> bool {
    opa == Op::NoTrans || opb == Op::NoTrans
}

/// Shape, strides and operand forms of one product.
#[derive(Clone, Copy)]
struct Layout {
    m: usize,
    n: usize,
    k: usize,
    /// Column stride of `A` as stored.
    lda: usize,
    trans_a: bool,
    conj_a: bool,
    /// `op(B)[k, j]` is `b[k·bsk + j·bsj]`.
    bsk: usize,
    bsj: usize,
    conj_b: bool,
    ldc: usize,
}

/// One product `C ← α·op(A)·op(B) + β·C`, as the tiles see it: a [`Layout`],
/// scalars, raw operands.
struct Product<E> {
    at: Layout,
    alpha: E,
    beta: E,
    a: *const E,
    b: *const E,
    c: *mut E,
}

/// `C ← α·op(A)·op(B) + β·C` on the unpacked tiles. Shapes must conform, `k`
/// be positive and [`has_tile`] hold (the dispatcher's preconditions).
pub(crate) fn gemm_small<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    opa: Op,
    b: MatRef<'_, T>,
    opb: Op,
    beta: T,
    mut c: MatMut<'_, T>,
) {
    let (m, k) = opa.shape_of(&a);
    let (bk, n) = opb.shape_of(&b);
    assert!(has_tile(opa, opb) && k == bk && k > 0);
    assert!(c.nrows() == m && c.ncols() == n);
    let (bsk, bsj) = match opb {
        Op::NoTrans => (1, b.ld()),
        _ => (b.ld(), 1),
    };
    let (trans_a, conj_a, conj_b) = (
        opa != Op::NoTrans,
        opa == Op::ConjTrans,
        opb == Op::ConjTrans,
    );
    #[rustfmt::skip]
    let at = Layout { m, n, k, lda: a.ld(), trans_a, conj_a, bsk, bsj, conj_b, ldc: c.ld() };
    let (a, b, c) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
    // SAFETY: `at` describes the three views exactly (shapes asserted above),
    // every tile access stays inside them, and `c` is exclusively borrowed.
    unsafe {
        run_tiles(&Product {
            at,
            alpha,
            beta,
            a,
            b,
            c,
        })
    }
}

/// `p` on the widest tile body the host has for its scalar type: `f64` on the
/// AVX-512 or AVX2 fused-multiply-add tiles ([`isa`]), anything else — and
/// `f64` on a host with neither — on the portable ones.
///
/// # Safety
///
/// `p` describes memory the caller may read (`a`, `b`) and owns (`c`).
unsafe fn run_tiles<T: Scalar>(p: &Product<T>) {
    #[cfg(target_arch = "x86_64")]
    if let (Some(alpha), Some(beta)) = (as_f64(p.alpha), as_f64(p.beta)) {
        // `T` is `f64`: the casts are the identity.
        let (a, b, c) = (p.a.cast(), p.b.cast(), p.c.cast());
        #[rustfmt::skip]
        let p = Product { at: p.at, alpha, beta, a, b, c };
        match isa() {
            Isa::Avx512 => return tiles_avx512(&p),
            Isa::Avx2 => return tiles_avx2(&p),
            Isa::Portable => {}
        }
    }
    tiles::<Portable<T>, 1, 4, 2>(p)
}

/// [`tiles`] with 16×8 axpy and 4×4 dot tiles in `zmm` registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tiles_avx512(p: &Product<f64>) {
    tiles::<Avx512, 2, 8, 4>(p)
}

/// [`tiles`] with 8×4 axpy and 2×4 dot tiles in `ymm` registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn tiles_avx2(p: &Product<f64>) {
    tiles::<Avx2, 2, 4, 2>(p)
}

/// The tile loops: [`axpy_tile`]s of `RV` registers × `NC` columns for
/// `op(A) = A`, [`dot_tile`]s of `DM` rows otherwise.
///
/// # Safety
///
/// [`Lanes`]' contract and [`run_tiles`]'.
#[inline(always)]
unsafe fn tiles<L: Lanes, const RV: usize, const NC: usize, const DM: usize>(p: &Product<L::E>) {
    if p.at.trans_a {
        for j0 in (0..p.at.n).step_by(DOT_COLS) {
            for i0 in (0..p.at.m).step_by(DM) {
                dot_tile::<L, DM>(p, i0, j0);
            }
        }
    } else {
        for j0 in (0..p.at.n).step_by(NC) {
            for i0 in (0..p.at.m).step_by(RV * L::W) {
                axpy_tile::<L, RV, NC>(p, i0, j0);
            }
        }
    }
}

/// `β·C` for the write-back: nothing is read when `β = 0`.
#[inline(always)]
unsafe fn scaled<L: Lanes>(beta: L::E, c: *const L::E, live: usize) -> L::V {
    if beta == L::E::ZERO {
        L::zero()
    } else if beta == L::E::ONE {
        L::load_n(c, live)
    } else {
        L::mul_add(L::splat(beta), L::load_n(c, live), L::zero())
    }
}

/// `C[i0.., j0..] ← α·A[i0.., :]·op(B)[:, j0..] + β·C[i0.., j0..]` on a tile
/// of `RV·W` rows × `NC` columns held in registers across `k`.
#[inline(always)]
unsafe fn axpy_tile<L: Lanes, const RV: usize, const NC: usize>(
    p: &Product<L::E>,
    i0: usize,
    j0: usize,
) {
    let cols = NC.min(p.at.n - j0);
    let mut live = [0; RV];
    for v in 0..RV {
        live[v] = L::W.min(p.at.m.saturating_sub(i0 + v * L::W));
    }
    // Past the last column the tile recomputes it and stores nothing.
    let mut bj = [p.b; NC];
    for j in 0..NC {
        bj[j] = p.b.add((j0 + j.min(cols - 1)) * p.at.bsj);
    }
    let mut acc = [[L::zero(); RV]; NC];
    for kk in 0..p.at.k {
        let mut a = [L::zero(); RV];
        for v in 0..RV {
            a[v] = L::load_n(p.a.wrapping_add(kk * p.at.lda + i0 + v * L::W), live[v]);
        }
        for j in 0..NC {
            let x = *bj[j].add(kk * p.at.bsk);
            let x = L::splat(if p.at.conj_b { x.conj() } else { x });
            for v in 0..RV {
                acc[j][v] = L::mul_add(a[v], x, acc[j][v]);
            }
        }
    }
    let alpha = L::splat(p.alpha);
    for j in 0..cols {
        for v in 0..RV {
            let c = p.c.wrapping_add((j0 + j) * p.at.ldc + i0 + v * L::W);
            let out = L::mul_add(alpha, acc[j][v], scaled::<L>(p.beta, c, live[v]));
            L::store_n(c, live[v], out);
        }
    }
}

/// Columns of `C` one dot tile covers ([`Lanes::sum4`] reduces four registers).
const DOT_COLS: usize = 4;

/// `C[i0.., j0..] ← α·op(A)[i0.., :]·B[:, j0..] + β·C[i0.., j0..]` on a tile
/// of `DM` rows × [`DOT_COLS`] columns: one register of partial sums per
/// element, `W` values of `k` per step, the tail of `k` masked; a row's four
/// registers are reduced together ([`Lanes::sum4`]).
#[inline(always)]
unsafe fn dot_tile<L: Lanes, const DM: usize>(p: &Product<L::E>, i0: usize, j0: usize) {
    let (rows, cols) = (DM.min(p.at.m - i0), DOT_COLS.min(p.at.n - j0));
    // Past the last row / column the tile recomputes it and stores nothing.
    let mut ai = [p.a; DM];
    for i in 0..DM {
        ai[i] = p.a.add((i0 + i.min(rows - 1)) * p.at.lda);
    }
    let mut bj = [p.b; DOT_COLS];
    for j in 0..DOT_COLS {
        bj[j] = p.b.add((j0 + j.min(cols - 1)) * p.at.bsj);
    }
    let mut acc = [[L::zero(); DOT_COLS]; DM];
    for k0 in (0..p.at.k).step_by(L::W) {
        let live = L::W.min(p.at.k - k0);
        let mut a = [L::zero(); DM];
        for i in 0..DM {
            let v = L::load_n(ai[i].add(k0), live);
            a[i] = if p.at.conj_a { L::conj(v) } else { v };
        }
        for j in 0..DOT_COLS {
            let x = L::load_n(bj[j].add(k0), live);
            for i in 0..DM {
                acc[i][j] = L::mul_add(a[i], x, acc[i][j]);
            }
        }
    }
    for i in 0..rows {
        let sums = L::sum4(acc[i]);
        for j in 0..cols {
            let c = p.c.add((j0 + j) * p.at.ldc + i0 + i);
            // `β = 0` overwrites: whatever `C` held is never read.
            let base = if p.beta == L::E::ZERO {
                L::E::ZERO
            } else {
                p.beta * *c
            };
            *c = base + p.alpha * sums[j];
        }
    }
}
