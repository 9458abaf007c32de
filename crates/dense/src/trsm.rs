//! Triangular solves with multiple right-hand sides (BLAS `trsm`).
//!
//! Left solves `op(T)·X = α·B` and right solves `X·op(T) = α·B` both
//! overwrite `B` with `X`. Above a small cutoff the triangle is split
//! recursively: the diagonal blocks are solved by the unblocked kernels and
//! the off-diagonal coupling is applied as a GEMM rank update, so almost all
//! the work runs through the cache-blocked [`gemm`] engine (and inherits its
//! parallelism and thread-count-invariant results). The diagonal base case
//! of the left solve additionally parallelizes over independent
//! right-hand-side column chunks.
//!
//! **Column-separable base case.** The left solve's base case takes its
//! right-hand sides four at a time (`solve_block`), sharing every load of
//! `T` across the block — and gives each column exactly the scalar operation
//! sequence of the one-column reference kernel (`solve_col`, which the
//! remainder columns still run): same multiplies and subtractions in the
//! same order, same skip of an exact-zero multiplier. A column's bits
//! therefore never depend on the panel it rides in. The recursion above the
//! cutoff adds [`gemm`] updates, which have that property under
//! [`crate::with_colwise_det`] only — the mode the dense Schur solve runs
//! in. The sparse multi-RHS solve does not come through here: its
//! triangles are row updates of the lane kernels ([`crate::lane`]).

use csolve_common::Scalar;
use rayon::prelude::*;

use crate::gemm::{gemm, scale_block, Op, PAR_FLOP_THRESHOLD};
use crate::mat::{MatMut, MatRef};

/// Which triangle of the operand carries the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tri {
    Lower,
    Upper,
}

/// Whether the triangular operand has an implicit unit diagonal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Diag {
    Unit,
    NonUnit,
}

/// Triangle order below which the recursion bottoms out into the unblocked
/// per-column kernels.
const TRSM_BLOCK: usize = 64;

#[inline]
fn t_elem<T: Scalar>(t: MatRef<'_, T>, conj: bool, i: usize, j: usize) -> T {
    let v = t.get(i, j);
    if conj {
        v.conj()
    } else {
        v
    }
}

/// `op(T)` viewed as a lower triangle after transposition?
#[inline]
fn eff_lower(tri: Tri, op: Op) -> bool {
    match (tri, op) {
        (Tri::Lower, Op::NoTrans) | (Tri::Upper, Op::Trans) | (Tri::Upper, Op::ConjTrans) => true,
        (Tri::Upper, Op::NoTrans) | (Tri::Lower, Op::Trans) | (Tri::Lower, Op::ConjTrans) => false,
    }
}

/// Solve `op(T)·x = x` in place for one column: the reference kernel, whose
/// per-column operation sequence [`solve_block`] reproduces.
fn solve_col<T: Scalar>(tri: Tri, op: Op, diag: Diag, t: MatRef<'_, T>, x: &mut [T]) {
    let n = t.nrows();
    let conj = op == Op::ConjTrans;
    match (eff_lower(tri, op), op) {
        (true, Op::NoTrans) => {
            // Forward substitution, axpy form on contiguous columns of T.
            for k in 0..n {
                if diag == Diag::NonUnit {
                    x[k] = x[k] / t.get(k, k);
                }
                let xk = x[k];
                if xk == T::ZERO {
                    continue;
                }
                let col = t.col(k);
                for i in k + 1..n {
                    x[i] -= xk * col[i];
                }
            }
        }
        (false, Op::NoTrans) => {
            // Backward substitution.
            for k in (0..n).rev() {
                if diag == Diag::NonUnit {
                    x[k] = x[k] / t.get(k, k);
                }
                let xk = x[k];
                if xk == T::ZERO {
                    continue;
                }
                let col = t.col(k);
                for i in 0..k {
                    x[i] -= xk * col[i];
                }
            }
        }
        (true, _) => {
            // op(T) lower means stored T is upper; dot-product form over the
            // contiguous stored columns.
            for i in 0..n {
                let col = t.col(i);
                let mut acc = T::ZERO;
                for k in 0..i {
                    acc += if conj { col[k].conj() } else { col[k] } * x[k];
                }
                x[i] -= acc;
                if diag == Diag::NonUnit {
                    x[i] = x[i] / t_elem(t, conj, i, i);
                }
            }
        }
        (false, _) => {
            // op(T) upper, stored T lower.
            for i in (0..n).rev() {
                let col = t.col(i);
                let mut acc = T::ZERO;
                for k in i + 1..n {
                    acc += if conj { col[k].conj() } else { col[k] } * x[k];
                }
                x[i] -= acc;
                if diag == Diag::NonUnit {
                    x[i] = x[i] / t_elem(t, conj, i, i);
                }
            }
        }
    }
}

/// Right-hand sides [`solve_block`] takes through the triangle together:
/// each load of `T` serves four columns, and the transposed branches run
/// four accumulation chains where [`solve_col`] has one. Measured at k = 64,
/// nrhs = 32 (`f64`, one thread) against 32 single-column calls on the same
/// operands: 4 columns 1.27× (`NoTrans`) / 3.6× (`Trans`), 8 columns
/// 1.1× / 6.5×. Four, because the substitution branches lose what the
/// transposed ones gain, and a block of 4 lets an 8-column panel split into
/// two whole blocks for two threads, which a block of 8 would not.
const RHS_BLOCK: usize = 4;

/// Pivots [`solve_block`]'s substitution branches retire per sweep over the
/// rows below (above) them: a row then takes four updates per load and
/// store instead of one. Same measurement as [`RHS_BLOCK`], `NoTrans`,
/// against the single-column calls: 1 pivot 0.90×, 2 pivots 1.16×,
/// 4 pivots 1.30×, 8 pivots 1.14×. (The fused loop in [`axpy_pivots`] is
/// codegen-sensitive: with the pivot order a runtime flag instead of the
/// iterator's type it measured 0.79× — re-measure after touching it.)
const PIVOT_BLOCK: usize = 4;

/// `rows[i][c] −= xk[c]·a[i]`, skipping — like [`solve_col`] — every column
/// whose multiplier is an exact zero.
#[inline(always)]
fn axpy_rows<T: Scalar>(xk: [T; RHS_BLOCK], a: &[T], rows: &mut [[T; RHS_BLOCK]]) {
    let live = xk.map(|v| v != T::ZERO);
    if live == [true; RHS_BLOCK] {
        for (row, &ai) in rows.iter_mut().zip(a) {
            for c in 0..RHS_BLOCK {
                row[c] -= xk[c] * ai;
            }
        }
    } else if live != [false; RHS_BLOCK] {
        // Exact zeros are the common case in the forward pass of a sparse
        // right-hand side: the zero columns keep their bits (`−0.0` stays
        // `−0.0`, an `Inf` in `T` is never multiplied by zero).
        for (row, &ai) in rows.iter_mut().zip(a) {
            for c in 0..RHS_BLOCK {
                if live[c] {
                    row[c] -= xk[c] * ai;
                }
            }
        }
    }
}

/// Apply the finished pivot rows `x_piv` (rows `k0..` of the block) to
/// `rows`, which start at row `r0` of `t`: `rows[i][c] −= x_piv[k − k0][c] ·
/// t[r0 + i, k]` for `k` in `pivots` — the order the substitution retires
/// them, ascending or reversed. With a full block and no exact-zero
/// multiplier, each row is loaded and stored once for all its pivots;
/// otherwise one [`axpy_rows`] sweep per pivot. Either way a row sees the
/// same subtractions in the same order.
#[inline(always)]
fn axpy_pivots<T: Scalar>(
    t: MatRef<'_, T>,
    pivots: impl Iterator<Item = usize> + Clone,
    x_piv: &[[T; RHS_BLOCK]],
    k0: usize,
    r0: usize,
    rows: &mut [[T; RHS_BLOCK]],
) {
    let r1 = r0 + rows.len();
    let full =
        pivots.clone().count() == PIVOT_BLOCK && x_piv.iter().flatten().all(|v| *v != T::ZERO);
    if full {
        let mut m = [[T::ZERO; RHS_BLOCK]; PIVOT_BLOCK];
        let mut a: [&[T]; PIVOT_BLOCK] = [&[]; PIVOT_BLOCK];
        for (q, k) in pivots.enumerate() {
            m[q] = x_piv[k - k0];
            a[q] = &t.col(k)[r0..r1];
        }
        for (i, row) in rows.iter_mut().enumerate() {
            for q in 0..PIVOT_BLOCK {
                let aq = a[q][i];
                for c in 0..RHS_BLOCK {
                    row[c] -= m[q][c] * aq;
                }
            }
        }
    } else {
        for k in pivots {
            axpy_rows(x_piv[k - k0], &t.col(k)[r0..r1], rows);
        }
    }
}

/// `Σ_k op(a[k])·rows[k][c]` per column, accumulated from zero in row order —
/// the `acc` chain of [`solve_col`]'s transposed branches, one per column.
#[inline(always)]
fn dot_rows<T: Scalar>(conj: bool, a: &[T], rows: &[[T; RHS_BLOCK]]) -> [T; RHS_BLOCK] {
    let mut acc = [T::ZERO; RHS_BLOCK];
    for (row, &ak) in rows.iter().zip(a) {
        let ak = if conj { ak.conj() } else { ak };
        for c in 0..RHS_BLOCK {
            acc[c] += ak * row[c];
        }
    }
    acc
}

/// Solve `op(T)·X = X` in place for [`RHS_BLOCK`] columns at once: every
/// column goes through exactly the operation sequence [`solve_col`] gives
/// it — so its bits do not depend on which block, or no block, it rode in —
/// while each load of `T` serves the whole block. `x` is the block's
/// row-major scratch (row `i` holds `X[i, ..]`).
#[inline(always)]
fn solve_block<T: Scalar>(
    tri: Tri,
    op: Op,
    diag: Diag,
    t: MatRef<'_, T>,
    mut b: MatMut<'_, T>,
    x: &mut [[T; RHS_BLOCK]],
) {
    let n = t.nrows();
    debug_assert_eq!(b.ncols(), RHS_BLOCK);
    let x = &mut x[..n];
    for c in 0..RHS_BLOCK {
        for (row, &v) in x.iter_mut().zip(b.col(c)) {
            row[c] = v;
        }
    }
    let conj = op == Op::ConjTrans;
    let scale = |xi: &mut [T; RHS_BLOCK], d: T| {
        for v in xi {
            *v = *v / d;
        }
    };
    match (eff_lower(tri, op), op) {
        (true, Op::NoTrans) => {
            for k0 in (0..n).step_by(PIVOT_BLOCK) {
                let k1 = (k0 + PIVOT_BLOCK).min(n);
                let (head, below) = x.split_at_mut(k1);
                let piv = &mut head[k0..];
                for k in k0..k1 {
                    let (done, rest) = piv.split_at_mut(k - k0 + 1);
                    let xk = &mut done[k - k0];
                    if diag == Diag::NonUnit {
                        scale(xk, t.get(k, k));
                    }
                    axpy_rows(*xk, &t.col(k)[k + 1..k1], rest);
                }
                axpy_pivots(t, k0..k1, piv, k0, k1, below);
            }
        }
        (false, Op::NoTrans) => {
            let mut k1 = n;
            while k1 > 0 {
                let k0 = k1.saturating_sub(PIVOT_BLOCK);
                let (above, tail) = x.split_at_mut(k0);
                let piv = &mut tail[..k1 - k0];
                for k in (k0..k1).rev() {
                    let (rest, done) = piv.split_at_mut(k - k0);
                    let xk = &mut done[0];
                    if diag == Diag::NonUnit {
                        scale(xk, t.get(k, k));
                    }
                    axpy_rows(*xk, &t.col(k)[k0..k], rest);
                }
                axpy_pivots(t, (k0..k1).rev(), piv, k0, 0, above);
                k1 = k0;
            }
        }
        (true, _) => {
            for i in 0..n {
                let (head, tail) = x.split_at_mut(i);
                let acc = dot_rows(conj, &t.col(i)[..i], head);
                for c in 0..RHS_BLOCK {
                    tail[0][c] -= acc[c];
                }
                if diag == Diag::NonUnit {
                    scale(&mut tail[0], t_elem(t, conj, i, i));
                }
            }
        }
        (false, _) => {
            for i in (0..n).rev() {
                let (head, tail) = x.split_at_mut(i + 1);
                let acc = dot_rows(conj, &t.col(i)[i + 1..], tail);
                for c in 0..RHS_BLOCK {
                    head[i][c] -= acc[c];
                }
                if diag == Diag::NonUnit {
                    scale(&mut head[i], t_elem(t, conj, i, i));
                }
            }
        }
    }
    for c in 0..RHS_BLOCK {
        for (row, v) in x.iter().zip(b.col_mut(c)) {
            *v = row[c];
        }
    }
}

/// Solve every column of `b`: whole [`RHS_BLOCK`]s through [`solve_block`],
/// the remainder through [`solve_col`].
fn solve_cols<T: Scalar>(tri: Tri, op: Op, diag: Diag, t: MatRef<'_, T>, b: MatMut<'_, T>) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: feature presence just checked.
        return unsafe { solve_cols_avx2(tri, op, diag, t, b) };
    }
    solve_cols_impl(tri, op, diag, t, b)
}

/// [`solve_cols_impl`] recompiled with 256-bit vectors available (lane-wise
/// multiplies, adds and divides: the same bits as the portable build).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn solve_cols_avx2<T: Scalar>(
    tri: Tri,
    op: Op,
    diag: Diag,
    t: MatRef<'_, T>,
    b: MatMut<'_, T>,
) {
    solve_cols_impl(tri, op, diag, t, b)
}

#[inline(always)]
fn solve_cols_impl<T: Scalar>(
    tri: Tri,
    op: Op,
    diag: Diag,
    t: MatRef<'_, T>,
    mut b: MatMut<'_, T>,
) {
    let (k, n) = (t.nrows(), b.ncols());
    let blocked = n - n % RHS_BLOCK;
    if blocked > 0 {
        let mut x = [[T::ZERO; RHS_BLOCK]; TRSM_BLOCK];
        for j in (0..blocked).step_by(RHS_BLOCK) {
            let blk = b.rb_mut().submatrix_mut(0..k, j..j + RHS_BLOCK);
            solve_block(tri, op, diag, t, blk, &mut x);
        }
    }
    for j in blocked..n {
        solve_col(tri, op, diag, t, b.col_mut(j));
    }
}

/// Unblocked base case of the left solve: independent column blocks,
/// parallel over chunks of them when the work amortizes the fork.
fn trsm_left_base<T: Scalar>(tri: Tri, op: Op, diag: Diag, t: MatRef<'_, T>, b: MatMut<'_, T>) {
    let n = b.ncols();
    if t.nrows() == 1 && diag == Diag::Unit {
        // A unit 1×1 triangle is the identity (most supernodes of a sparse
        // factorization are this narrow).
        return;
    }
    let work = t.nrows() as f64 * t.nrows() as f64 * n as f64;
    if work < PAR_FLOP_THRESHOLD
        || rayon::current_num_threads() == 1
        || n == 1
        || crate::gemm::serial_forced()
    {
        solve_cols(tri, op, diag, t, b);
    } else {
        let chunk = n
            .div_ceil(4 * rayon::current_num_threads())
            .next_multiple_of(RHS_BLOCK);
        b.col_chunks_mut(chunk)
            .into_par_iter()
            .for_each(|blk| solve_cols(tri, op, diag, t, blk));
    }
}

fn trsm_left_rec<T: Scalar>(tri: Tri, op: Op, diag: Diag, t: MatRef<'_, T>, b: MatMut<'_, T>) {
    let n = t.nrows();
    if n <= TRSM_BLOCK {
        trsm_left_base(tri, op, diag, t, b);
        return;
    }
    let h = n / 2;
    let t11 = t.submatrix(0..h, 0..h);
    let t22 = t.submatrix(h..n, h..n);
    let (mut b1, mut b2) = b.split_at_row(h);
    if eff_lower(tri, op) {
        // [L11 0; E21 L22]·[X1; X2] = [B1; B2]: solve X1, eliminate, solve X2.
        trsm_left_rec(tri, op, diag, t11, b1.rb_mut());
        let (e, eop) = match op {
            Op::NoTrans => (t.submatrix(h..n, 0..h), Op::NoTrans),
            _ => (t.submatrix(0..h, h..n), op),
        };
        gemm(-T::ONE, e, eop, b1.rb(), Op::NoTrans, T::ONE, b2.rb_mut());
        trsm_left_rec(tri, op, diag, t22, b2);
    } else {
        // [U11 E12; 0 U22]: solve X2 first, then eliminate upward.
        trsm_left_rec(tri, op, diag, t22, b2.rb_mut());
        let (e, eop) = match op {
            Op::NoTrans => (t.submatrix(0..h, h..n), Op::NoTrans),
            _ => (t.submatrix(h..n, 0..h), op),
        };
        gemm(-T::ONE, e, eop, b2.rb(), Op::NoTrans, T::ONE, b1.rb_mut());
        trsm_left_rec(tri, op, diag, t11, b1);
    }
}

/// Solve `op(T)·X = α·B` in place (`B` becomes `X`). `T` must be square and
/// match `B`'s row count. `α == 0` overwrites `B` with zeros (the shared
/// β-preamble semantics of the GEMM layer).
pub fn trsm_left<T: Scalar>(
    tri: Tri,
    op: Op,
    diag: Diag,
    alpha: T,
    t: MatRef<'_, T>,
    mut b: MatMut<'_, T>,
) {
    assert_eq!(t.nrows(), t.ncols(), "trsm_left: T square");
    assert_eq!(t.nrows(), b.nrows(), "trsm_left: dims");
    scale_block(alpha, &mut b);
    if t.nrows() == 0 || b.ncols() == 0 {
        return;
    }
    trsm_left_rec(tri, op, diag, t, b);
}

/// Unblocked base case of the right solve: a dependency-ordered sweep over
/// the columns of `X`.
fn trsm_right_base<T: Scalar>(
    tri: Tri,
    op: Op,
    diag: Diag,
    t: MatRef<'_, T>,
    mut b: MatMut<'_, T>,
) {
    let n = b.ncols();
    let m = b.nrows();
    let conj = op == Op::ConjTrans;
    // u(k, j): element (k, j) of the effective (post-op) matrix U := op(T).
    let u = |k: usize, j: usize| -> T {
        match op {
            Op::NoTrans => t.get(k, j),
            _ => t_elem(t, conj, j, k),
        }
    };
    // Effective upper triangular ⇒ forward sweep over columns of X;
    // effective lower ⇒ backward sweep.
    if !eff_lower(tri, op) {
        for j in 0..n {
            // X[:, j] = (B[:, j] − Σ_{k<j} X[:, k]·u(k, j)) / u(j, j)
            for k in 0..j {
                let s = u(k, j);
                if s == T::ZERO {
                    continue;
                }
                // Disjoint column pair within b.
                let (xk_ptr, bj): (*const T, &mut [T]) = {
                    let xk = b.col(k).as_ptr();
                    (xk, unsafe { &mut *(b.col_mut(j) as *mut [T]) })
                };
                let xk = unsafe { std::slice::from_raw_parts(xk_ptr, m) };
                for (bij, &xik) in bj.iter_mut().zip(xk) {
                    *bij -= xik * s;
                }
            }
            if diag == Diag::NonUnit {
                let d = u(j, j).recip();
                for x in b.col_mut(j) {
                    *x *= d;
                }
            }
        }
    } else {
        for j in (0..n).rev() {
            for k in j + 1..n {
                let s = u(k, j);
                if s == T::ZERO {
                    continue;
                }
                let (xk_ptr, bj): (*const T, &mut [T]) = {
                    let xk = b.col(k).as_ptr();
                    (xk, unsafe { &mut *(b.col_mut(j) as *mut [T]) })
                };
                let xk = unsafe { std::slice::from_raw_parts(xk_ptr, m) };
                for (bij, &xik) in bj.iter_mut().zip(xk) {
                    *bij -= xik * s;
                }
            }
            if diag == Diag::NonUnit {
                let d = u(j, j).recip();
                for x in b.col_mut(j) {
                    *x *= d;
                }
            }
        }
    }
}

fn trsm_right_rec<T: Scalar>(tri: Tri, op: Op, diag: Diag, t: MatRef<'_, T>, b: MatMut<'_, T>) {
    let n = t.nrows();
    if n <= TRSM_BLOCK {
        trsm_right_base(tri, op, diag, t, b);
        return;
    }
    let h = n / 2;
    let t11 = t.submatrix(0..h, 0..h);
    let t22 = t.submatrix(h..n, h..n);
    let (mut b1, mut b2) = b.split_at_col(h);
    if !eff_lower(tri, op) {
        // [X1 X2]·[U11 U12; 0 U22] = [B1 B2]: X1·U11 = B1, B2 −= X1·U12.
        trsm_right_rec(tri, op, diag, t11, b1.rb_mut());
        let (e, eop) = match op {
            Op::NoTrans => (t.submatrix(0..h, h..n), Op::NoTrans),
            _ => (t.submatrix(h..n, 0..h), op),
        };
        gemm(-T::ONE, b1.rb(), Op::NoTrans, e, eop, T::ONE, b2.rb_mut());
        trsm_right_rec(tri, op, diag, t22, b2);
    } else {
        // [X1 X2]·[L11 0; L21 L22]: X2·L22 = B2 first, then B1 −= X2·L21.
        trsm_right_rec(tri, op, diag, t22, b2.rb_mut());
        let (e, eop) = match op {
            Op::NoTrans => (t.submatrix(h..n, 0..h), Op::NoTrans),
            _ => (t.submatrix(0..h, h..n), op),
        };
        gemm(-T::ONE, b2.rb(), Op::NoTrans, e, eop, T::ONE, b1.rb_mut());
        trsm_right_rec(tri, op, diag, t11, b1);
    }
}

/// Solve `X·op(T) = α·B` in place (`B` becomes `X`). `T` must be square and
/// match `B`'s column count. `α == 0` overwrites `B` with zeros (the shared
/// β-preamble semantics of the GEMM layer).
pub fn trsm_right<T: Scalar>(
    tri: Tri,
    op: Op,
    diag: Diag,
    alpha: T,
    t: MatRef<'_, T>,
    mut b: MatMut<'_, T>,
) {
    assert_eq!(t.nrows(), t.ncols(), "trsm_right: T square");
    assert_eq!(t.ncols(), b.ncols(), "trsm_right: dims");
    scale_block(alpha, &mut b);
    if t.nrows() == 0 || b.nrows() == 0 {
        return;
    }
    trsm_right_rec(tri, op, diag, t, b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm_into, Op};
    use crate::mat::Mat;
    use csolve_common::C64;
    use rand::SeedableRng;

    fn rand_tri(n: usize, tri: Tri, seed: u64) -> Mat<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut t = Mat::<f64>::random(n, n, &mut rng);
        for i in 0..n {
            t[(i, i)] = 2.0 + t[(i, i)].abs(); // well conditioned diagonal
            for j in 0..n {
                let zero = match tri {
                    Tri::Lower => j > i,
                    Tri::Upper => j < i,
                };
                if zero {
                    t[(i, j)] = 0.0;
                }
            }
        }
        t
    }

    fn op_mat(t: &Mat<f64>, op: Op) -> Mat<f64> {
        match op {
            Op::NoTrans => t.clone(),
            Op::Trans | Op::ConjTrans => t.transpose(),
        }
    }

    #[test]
    fn trsm_left_all_variants() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for &tri in &[Tri::Lower, Tri::Upper] {
            for &op in &[Op::NoTrans, Op::Trans] {
                let t = rand_tri(12, tri, 42);
                let b = Mat::<f64>::random(12, 7, &mut rng);
                let mut x = b.clone();
                trsm_left(tri, op, Diag::NonUnit, 1.0, t.as_ref(), x.as_mut());
                let back = gemm_into(
                    op_mat(&t, op).as_ref(),
                    Op::NoTrans,
                    x.as_ref(),
                    Op::NoTrans,
                );
                let mut d = back.clone();
                d.axpy(-1.0, &b);
                assert!(d.norm_max() < 1e-10, "{tri:?} {op:?}: {:.3e}", d.norm_max());
            }
        }
    }

    #[test]
    fn trsm_left_blocked_all_variants() {
        // Larger than TRSM_BLOCK so the recursive GEMM-coupled path runs.
        let mut rng = rand::rngs::StdRng::seed_from_u64(20);
        for &tri in &[Tri::Lower, Tri::Upper] {
            for &op in &[Op::NoTrans, Op::Trans] {
                let t = rand_tri(150, tri, 45);
                let b = Mat::<f64>::random(150, 17, &mut rng);
                let mut x = b.clone();
                trsm_left(tri, op, Diag::NonUnit, 1.0, t.as_ref(), x.as_mut());
                let back = gemm_into(
                    op_mat(&t, op).as_ref(),
                    Op::NoTrans,
                    x.as_ref(),
                    Op::NoTrans,
                );
                let mut d = back.clone();
                d.axpy(-1.0, &b);
                assert!(d.norm_max() < 1e-9, "{tri:?} {op:?}: {:.3e}", d.norm_max());
            }
        }
    }

    #[test]
    fn trsm_right_blocked_all_variants() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        for &tri in &[Tri::Lower, Tri::Upper] {
            for &op in &[Op::NoTrans, Op::Trans] {
                let t = rand_tri(140, tri, 46);
                let b = Mat::<f64>::random(9, 140, &mut rng);
                let mut x = b.clone();
                trsm_right(tri, op, Diag::NonUnit, 1.0, t.as_ref(), x.as_mut());
                let back = gemm_into(
                    x.as_ref(),
                    Op::NoTrans,
                    op_mat(&t, op).as_ref(),
                    Op::NoTrans,
                );
                let mut d = back;
                d.axpy(-1.0, &b);
                assert!(d.norm_max() < 1e-9, "{tri:?} {op:?}: {:.3e}", d.norm_max());
            }
        }
    }

    #[test]
    fn trsm_left_unit_diag() {
        let mut t = rand_tri(8, Tri::Lower, 3);
        // Put garbage on the diagonal — Unit must ignore it.
        for i in 0..8 {
            t[(i, i)] = 1e30;
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let b = Mat::<f64>::random(8, 3, &mut rng);
        let mut x = b.clone();
        trsm_left(
            Tri::Lower,
            Op::NoTrans,
            Diag::Unit,
            1.0,
            t.as_ref(),
            x.as_mut(),
        );
        let mut t_unit = t.clone();
        for i in 0..8 {
            t_unit[(i, i)] = 1.0;
        }
        let back = gemm_into(t_unit.as_ref(), Op::NoTrans, x.as_ref(), Op::NoTrans);
        let mut d = back;
        d.axpy(-1.0, &b);
        assert!(d.norm_max() < 1e-10);
    }

    #[test]
    fn trsm_left_alpha_scaling() {
        let t = rand_tri(6, Tri::Upper, 5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let b = Mat::<f64>::random(6, 2, &mut rng);
        let mut x = b.clone();
        trsm_left(
            Tri::Upper,
            Op::NoTrans,
            Diag::NonUnit,
            3.0,
            t.as_ref(),
            x.as_mut(),
        );
        let back = gemm_into(t.as_ref(), Op::NoTrans, x.as_ref(), Op::NoTrans);
        let mut want = b.clone();
        want.scale(3.0);
        let mut d = back;
        d.axpy(-1.0, &want);
        assert!(d.norm_max() < 1e-10);
    }

    #[test]
    fn trsm_right_all_variants() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        for &tri in &[Tri::Lower, Tri::Upper] {
            for &op in &[Op::NoTrans, Op::Trans] {
                let t = rand_tri(9, tri, 77);
                let b = Mat::<f64>::random(5, 9, &mut rng);
                let mut x = b.clone();
                trsm_right(tri, op, Diag::NonUnit, 1.0, t.as_ref(), x.as_mut());
                let back = gemm_into(
                    x.as_ref(),
                    Op::NoTrans,
                    op_mat(&t, op).as_ref(),
                    Op::NoTrans,
                );
                let mut d = back;
                d.axpy(-1.0, &b);
                assert!(d.norm_max() < 1e-10, "{tri:?} {op:?}: {:.3e}", d.norm_max());
            }
        }
    }

    #[test]
    fn trsm_complex_conj_transpose() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let mut t = Mat::<C64>::random(7, 7, &mut rng);
        for i in 0..7 {
            t[(i, i)] = C64::new(3.0, 0.5);
            for j in i + 1..7 {
                t[(i, j)] = C64::ZERO;
            }
        }
        let b = Mat::<C64>::random(7, 4, &mut rng);
        let mut x = b.clone();
        trsm_left(
            Tri::Lower,
            Op::ConjTrans,
            Diag::NonUnit,
            C64::ONE,
            t.as_ref(),
            x.as_mut(),
        );
        // Check T^H X == B.
        let back = gemm_into(t.as_ref(), Op::ConjTrans, x.as_ref(), Op::NoTrans);
        let mut d = back;
        d.axpy(-C64::ONE, &b);
        assert!(d.norm_max() < 1e-10);
    }

    #[test]
    fn trsm_left_parallel_many_rhs_matches_serial() {
        let t = rand_tri(30, Tri::Lower, 13);
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let b = Mat::<f64>::random(30, 64, &mut rng);
        let mut x = b.clone();
        trsm_left(
            Tri::Lower,
            Op::NoTrans,
            Diag::NonUnit,
            1.0,
            t.as_ref(),
            x.as_mut(),
        );
        let back = gemm_into(t.as_ref(), Op::NoTrans, x.as_ref(), Op::NoTrans);
        let mut d = back;
        d.axpy(-1.0, &b);
        assert!(d.norm_max() < 1e-9);
    }
}
