//! Blocked dense factorizations: LU with partial pivoting and symmetric LDLᵀ,
//! each in a *full* and a *partial* variant.
//!
//! The partial variants eliminate only the leading `k` variables and leave
//! the trailing `(n−k)×(n−k)` block overwritten with the Schur complement
//! `A₂₂ − A₂₁·A₁₁⁻¹·A₁₂`. They are the dense engine of the multifrontal
//! sparse solver: a frontal matrix is partially factorized, its factor panel
//! is harvested, and the trailing block becomes the contribution block passed
//! to the parent front. They are also what the sparse *factorization+Schur*
//! building block of the paper ultimately calls at the root front.
//!
//! LDLᵀ uses the plain (non-conjugated) transpose, which is the correct
//! decomposition for the paper's complex *symmetric* acoustic matrices. No
//! symmetric pivoting is performed (pivots are magnitude-checked instead);
//! the FEM/BEM systems generated by `csolve-fembem` are strongly diagonally
//! dominated after the Helmholtz shift, matching the regime where MUMPS
//! performs no delayed pivots either.

use csolve_common::{ByteSized, Error, RealScalar, Result, Scalar};

use rayon::prelude::*;

use crate::gemm::{gemm, Op};
use crate::lower::{BlockLower, Geometry, TRAIL_COLS};
use crate::mat::{Mat, MatMut, MatRef};
use crate::trsm::{trsm_left, Diag, Tri};

/// Default panel width for the blocked factorizations. The `_nb` entry points
/// accept an explicit width (`0` selects this default), plumbed from
/// `SolverConfig::dense_panel_nb` through the sparse fronts and the Schur
/// factorization.
pub const DEFAULT_PANEL_NB: usize = 48;

/// LU factors of a square matrix: `P·A = L·U` packed in one matrix plus the
/// pivot sequence (`ipiv[j]` = row swapped with row `j` at step `j`).
#[derive(Clone)]
pub struct LuFactors<T> {
    pub lu: Mat<T>,
    pub ipiv: Vec<usize>,
}

impl<T> ByteSized for LuFactors<T> {
    fn byte_size(&self) -> usize {
        self.lu.byte_size() + self.ipiv.capacity() * std::mem::size_of::<usize>()
    }
}

impl<T: Scalar> std::fmt::Debug for LuFactors<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LuFactors(n={}, swaps={})",
            self.lu.nrows(),
            self.ipiv.len()
        )
    }
}

impl<T: Scalar> std::fmt::Debug for LdltFactors<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LdltFactors(n={})", self.ld.n())
    }
}

/// LDLᵀ factors of a symmetric matrix: unit lower `L` packed below the
/// diagonal, `D` on the diagonal, in the layout the matrix was factored in
/// (a full matrix is the single-block case of [`BlockLower`]).
#[derive(Clone)]
pub struct LdltFactors<T> {
    pub ld: BlockLower<T>,
}

impl<T> ByteSized for LdltFactors<T> {
    fn byte_size(&self) -> usize {
        self.ld.byte_size()
    }
}

fn pivot_tolerance<T: Scalar>(a: &Mat<T>) -> T::Real {
    let scale = a.norm_max();
    let scale = if scale == T::Real::RZERO {
        T::Real::RONE
    } else {
        scale
    };
    // Loose relative threshold: we only want to catch genuinely broken
    // pivots, not mildly ill conditioned ones.
    scale * T::Real::EPSILON * T::Real::from_f64_real(16.0)
}

/// Column `j` of `a` to read beside column `c > j` to update.
fn col_pair<T: Scalar>(a: &mut Mat<T>, j: usize, c: usize) -> (&[T], &mut [T]) {
    debug_assert!(j < c && c < a.ncols());
    let m = a.nrows();
    let (head, tail) = a.data_mut().split_at_mut(c * m);
    (&head[j * m..][..m], &mut tail[..m])
}

/// Unblocked partial LU on the panel `a[kb.., kb..ke)` of the full matrix,
/// with pivot rows restricted to `kb..pivot_limit`. Row swaps are applied to
/// the *entire* rows of `a` and recorded in `ipiv`.
fn lu_panel<T: Scalar>(
    a: &mut Mat<T>,
    kb: usize,
    ke: usize,
    pivot_limit: usize,
    tol: T::Real,
    ipiv: &mut [usize],
) -> Result<()> {
    let n = a.ncols();
    for j in kb..ke {
        // Pivot search within the allowed row window.
        let mut p = j;
        let mut pmax = a[(j, j)].abs();
        for i in j + 1..pivot_limit {
            let v = a[(i, j)].abs();
            if v > pmax {
                pmax = v;
                p = i;
            }
        }
        if pmax < tol {
            return Err(Error::SingularPivot {
                index: j,
                magnitude: pmax.to_f64(),
            });
        }
        ipiv[j] = p;
        if p != j {
            for c in 0..n {
                let tmp = a[(j, c)];
                a[(j, c)] = a[(p, c)];
                a[(p, c)] = tmp;
            }
        }
        // Scale the subcolumn and rank-1 update within the panel only.
        let d = a[(j, j)].recip();
        let m = a.nrows();
        {
            let col = a.col_mut(j);
            for x in col[j + 1..m].iter_mut() {
                *x *= d;
            }
        }
        for c in j + 1..ke {
            let ujc = a[(j, c)];
            if ujc == T::ZERO {
                continue;
            }
            // a[j+1.., c] -= a[j+1.., j] * u
            let (lcol, ccol) = col_pair(a, j, c);
            for (x, &l) in ccol[j + 1..].iter_mut().zip(&lcol[j + 1..]) {
                *x -= l * ujc;
            }
        }
    }
    Ok(())
}

/// Partial LU: eliminate the leading `k` variables of the square matrix `a`
/// with row pivoting restricted to the first `k` rows (the eliminated set —
/// trailing rows belong to the Schur variables and must stay in place).
///
/// On success, `a[.., 0..k]` holds the `L` panel (unit lower) and
/// `a[0..k, ..]` the `U` panel; `a[k.., k..]` holds the Schur complement.
pub fn partial_lu<T: Scalar>(a: &mut Mat<T>, k: usize) -> Result<Vec<usize>> {
    partial_lu_nb(a, k, DEFAULT_PANEL_NB)
}

/// [`partial_lu`] with an explicit panel width `nb` (`0` selects
/// [`DEFAULT_PANEL_NB`]). Exposed so callers can tune the blocking to their
/// front sizes; the factorization is numerically identical only for equal
/// `nb` (different widths regroup the trailing GEMM updates).
///
/// Factorizations whose total flop count sits below the calibrated GEMM
/// threading threshold run entirely on the calling thread
/// ([`crate::gemm::with_serial`]): their trailing updates are too small to
/// amortize rayon fork/join, and routing them serially removes the overhead
/// that used to make small threaded factorizations *slower* than serial
/// ones. Results are bitwise identical on either path.
pub fn partial_lu_nb<T: Scalar>(a: &mut Mat<T>, k: usize, nb: usize) -> Result<Vec<usize>> {
    if partial_elim_flops(a.nrows(), k, 2.0)
        < crate::gemm::gemm_par_flop_threshold(std::mem::size_of::<T>())
    {
        return crate::gemm::with_serial(|| partial_lu_nb_impl(a, k, nb));
    }
    partial_lu_nb_impl(a, k, nb)
}

/// Analytic flop count of eliminating the leading `k` of `n` variables:
/// `(scale/3)·(n³ − (n−k)³)` with `scale` 2 for LU, 1 for the symmetric
/// LDLᵀ. Used only for the serial/parallel routing decision.
fn partial_elim_flops(n: usize, k: usize, scale: f64) -> f64 {
    let n = n as f64;
    let rest = (n - k as f64).max(0.0);
    scale / 3.0 * (n * n * n - rest * rest * rest)
}

fn partial_lu_nb_impl<T: Scalar>(a: &mut Mat<T>, k: usize, nb: usize) -> Result<Vec<usize>> {
    assert!(a.is_square(), "partial_lu: square matrix");
    assert!(k <= a.nrows());
    let nb = if nb == 0 { DEFAULT_PANEL_NB } else { nb };
    let n = a.nrows();
    let tol = pivot_tolerance(a);
    let mut ipiv = vec![0usize; k];

    let mut kb = 0;
    while kb < k {
        let ke = (kb + nb).min(k);
        lu_panel(a, kb, ke, k, tol, &mut ipiv)?;
        if ke < n {
            // U block row: solve L11 (unit lower, in a[kb..ke, kb..ke]) against
            // a[kb..ke, ke..n].
            let (l11, rest) = {
                let v = a.as_mut();
                let v = v.submatrix_mut(kb..n, kb..n);
                v.split_at_col(ke - kb)
            };
            let (u12, a2) = rest.split_at_row(ke - kb);
            let l11_sq = l11.rb().submatrix(0..(ke - kb), 0..(ke - kb));
            let mut u12 = u12;
            trsm_left(
                Tri::Lower,
                Op::NoTrans,
                Diag::Unit,
                T::ONE,
                l11_sq,
                u12.rb_mut(),
            );
            // Trailing update: a[ke.., ke..] -= L21 · U12.
            let l21 = l11.rb().submatrix(ke - kb..n - kb, 0..(ke - kb));
            let mut a22 = a2;
            gemm(
                -T::ONE,
                l21,
                Op::NoTrans,
                u12.rb(),
                Op::NoTrans,
                T::ONE,
                a22.rb_mut(),
            );
        }
        kb = ke;
    }
    Ok(ipiv)
}

/// Full LU with partial pivoting (`k = n`). Consumes `a` into packed factors.
pub fn lu_in_place<T: Scalar>(a: Mat<T>) -> Result<LuFactors<T>> {
    lu_in_place_nb(a, DEFAULT_PANEL_NB)
}

/// [`lu_in_place`] with an explicit panel width (`0` selects the default).
pub fn lu_in_place_nb<T: Scalar>(mut a: Mat<T>, nb: usize) -> Result<LuFactors<T>> {
    let n = a.nrows();
    let ipiv = partial_lu_nb(&mut a, n, nb)?;
    Ok(LuFactors { lu: a, ipiv })
}

/// Unblocked partial LDLᵀ on the panel columns `kb..ke` of the column block
/// `a` (local coordinates: row `i` of `a` is row `i` of the block's own
/// diagonal, whose first column is column `c0` of the matrix): produces
/// unit-lower columns with `D` on the diagonal, updating only columns
/// inside the panel.
fn ldlt_panel<T: Scalar>(
    mut a: MatMut<'_, T>,
    c0: usize,
    (kb, ke): (usize, usize),
    tol: T::Real,
) -> Result<()> {
    let m = a.nrows();
    for j in kb..ke {
        let d = a.get(j, j);
        if d.abs() < tol {
            return Err(Error::SingularPivot {
                index: c0 + j,
                magnitude: d.abs().to_f64(),
            });
        }
        let dinv = d.recip();
        for x in a.col_mut(j)[j + 1..m].iter_mut() {
            *x *= dinv;
        }
        // Update remaining panel columns (lower part only).
        for c in j + 1..ke {
            let s = a.get(c, j) * d; // l_cj · d
            if s == T::ZERO {
                continue;
            }
            let (left, mut right) = a.rb_mut().split_at_col(c);
            let lcol = &left.rb().col(j)[c..];
            for (x, &l) in right.col_mut(0)[c..].iter_mut().zip(lcol) {
                *x -= l * s;
            }
        }
    }
    Ok(())
}

/// Symmetric trailing update `A (lower) −= L·Wᵀ` of one column block's
/// updated part `a` — its row 0 on the diagonal of its column 0 — with `l`
/// the factor panel's rows from that same row and `w = L·diag(d)` likewise,
/// both `nb` wide. Every GEMM covers `chunk` columns from its diagonal
/// down, so the lower triangle is fully updated; the few entries *above*
/// the diagonal inside a chunk also get written, which is harmless — they
/// are stale by contract and never read.
fn ldlt_trailing_update<T: Scalar>(
    a: MatMut<'_, T>,
    l: MatRef<'_, T>,
    w: MatRef<'_, T>,
    chunk: usize,
) {
    let t = a.nrows();
    let nb = l.ncols();
    debug_assert!(l.nrows() == t && w.nrows() >= a.ncols() && w.ncols() == nb);
    let mut rest = a;
    let mut j0 = 0;
    while rest.ncols() > 0 {
        let wcols = chunk.min(rest.ncols());
        let (head, tail) = rest.split_at_col(wcols);
        gemm(
            -T::ONE,
            l.submatrix(j0..t, 0..nb),
            Op::NoTrans,
            w.submatrix(j0..j0 + wcols, 0..nb),
            Op::Trans,
            T::ONE,
            head.submatrix_mut(j0..t, 0..wcols),
        );
        rest = tail;
        j0 += wcols;
    }
}

/// Partial LDLᵀ: eliminate the leading `k` variables of the symmetric matrix
/// `a` (lower triangle referenced/updated; the strictly upper triangle is
/// ignored and left stale). On success `a[.., 0..k]` lower holds the unit `L`
/// panel with `D` on the diagonal, and the *lower triangle* of `a[k.., k..]`
/// holds the Schur complement.
pub fn partial_ldlt<T: Scalar>(a: &mut Mat<T>, k: usize) -> Result<()> {
    partial_ldlt_nb(a, k, DEFAULT_PANEL_NB)
}

/// [`partial_ldlt`] with an explicit panel width `nb` (`0` selects
/// [`DEFAULT_PANEL_NB`]). Sub-threshold factorizations are routed to the
/// serial path exactly as in [`partial_lu_nb`]. The full matrix is the
/// single-block case of the block-column lower layout ([`BlockLower`]), and
/// this is the one blocked LDLᵀ both run.
pub fn partial_ldlt_nb<T: Scalar>(a: &mut Mat<T>, k: usize, nb: usize) -> Result<()> {
    assert!(a.is_square(), "partial_ldlt: square matrix");
    let n = a.nrows();
    ldlt_blocks(a.data_mut(), Geometry::new(n, n), k, nb)
}

/// The blocked LDLᵀ of a symmetric matrix stored block-column lower in
/// `data` (layout `g`, see [`crate::lower`]): the leading `k` variables are
/// eliminated in panels of `nb` columns (`0` selects [`DEFAULT_PANEL_NB`]),
/// a panel cut short at the end of its column block. After each panel the
/// trailing matrix is updated one GEMM per [`TRAIL_COLS`]-wide chunk of the
/// panel's own block — all of it in a single-block layout — and one per
/// later block, the later blocks concurrently (each GEMM owns its block).
/// Every element's arithmetic is fixed by the GEMM route its chunk takes,
/// which depends on the chunk's shape alone: the bits are the same at every
/// thread count.
fn ldlt_blocks<T: Scalar>(data: &mut [T], g: Geometry, k: usize, nb: usize) -> Result<()> {
    if partial_elim_flops(g.n, k, 1.0)
        < crate::gemm::gemm_par_flop_threshold(std::mem::size_of::<T>())
    {
        return crate::gemm::with_serial(|| ldlt_blocks_impl(data, g, k, nb));
    }
    ldlt_blocks_impl(data, g, k, nb)
}

fn ldlt_blocks_impl<T: Scalar>(data: &mut [T], g: Geometry, k: usize, nb: usize) -> Result<()> {
    let n = g.n;
    assert!(k <= n);
    let nb = if nb == 0 { DEFAULT_PANEL_NB } else { nb };
    // Diagonal-based scale: cheap and adequate for our matrices.
    let mut scale = T::Real::RZERO;
    for i in 0..n {
        scale = scale.rmax(data[g.index(i, i)].abs());
    }
    if scale == T::Real::RZERO {
        scale = T::Real::RONE;
    }
    let tol = scale * T::Real::EPSILON * T::Real::from_f64_real(16.0);

    let mut kb = 0;
    while kb < k {
        let jb = kb / g.b;
        let (c0, mut blk, later) = g.split_mut(data, jb);
        let ke = (kb + nb).min(c0 + blk.ncols()).min(k);
        ldlt_panel(blk.rb_mut(), c0, (kb - c0, ke - c0), tol)?;
        if ke == n {
            break;
        }
        let nbk = ke - kb;
        let (panel_cols, own) = blk.split_at_col(ke - c0);
        // The factor panel below it, and W = L·diag(d), rows ke..n.
        let l = panel_cols.rb().submatrix(ke - c0..n - c0, kb - c0..ke - c0);
        let mut w = Mat::<T>::zeros(n - ke, nbk);
        for p in 0..nbk {
            let dp = panel_cols.get(kb - c0 + p, kb - c0 + p);
            for (wi, &li) in w.col_mut(p).iter_mut().zip(l.col(p)) {
                *wi = li * dp;
            }
        }
        let own_cols = own.ncols();
        let own = own.submatrix_mut(ke - c0..n - c0, 0..own_cols);
        ldlt_trailing_update(own, l, w.as_ref(), TRAIL_COLS);
        // Later blocks, rows and columns from their first column cb on, one
        // item each: they come in decreasing size, so the largest go first.
        let mut work = Vec::with_capacity(g.blocks() - jb - 1);
        let mut rest = later;
        for j in jb + 1..g.blocks() {
            let (cb, wb) = g.cols(j);
            let (head, tail) = rest.split_at_mut(g.block_len(j));
            rest = tail;
            work.push((cb, MatMut::from_col_major(n - cb, wb, head)));
        }
        work.into_par_iter().for_each(|(cb, v)| {
            let lb = l.submatrix(cb - ke..n - ke, 0..nbk);
            let wb = w.view(cb - ke..n - ke, 0..nbk);
            let width = v.ncols();
            ldlt_trailing_update(v, lb, wb, width);
        });
        kb = ke;
    }
    Ok(())
}

/// Full symmetric LDLᵀ (`k = n`). Only the lower triangle of `a` is read.
pub fn ldlt_in_place<T: Scalar>(a: Mat<T>) -> Result<LdltFactors<T>> {
    ldlt_in_place_nb(a, DEFAULT_PANEL_NB)
}

/// [`ldlt_in_place`] with an explicit panel width (`0` selects the
/// default), on a full matrix (the single-block layout) or a half-stored
/// [`BlockLower`] alike: the same blocked routine factors both in place.
pub fn ldlt_in_place_nb<T: Scalar>(
    a: impl Into<BlockLower<T>>,
    nb: usize,
) -> Result<LdltFactors<T>> {
    let mut a = a.into();
    let (g, n) = (a.geometry(), a.n());
    ldlt_blocks(a.data_mut(), g, n, nb)?;
    Ok(LdltFactors { ld: a })
}

/// Copy the lower triangle of a square view onto its upper triangle
/// (symmetric completion with the plain transpose).
pub fn symmetrize_from_lower<T: Scalar>(a: &mut Mat<T>) {
    assert!(a.is_square());
    let n = a.nrows();
    for j in 0..n {
        for i in j + 1..n {
            let v = a[(i, j)];
            a[(j, i)] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_into;
    use crate::solve::{ldlt_solve_in_place, lu_solve_in_place};
    use csolve_common::C64;
    use rand::SeedableRng;

    fn rand_dd(n: usize, seed: u64) -> Mat<f64> {
        // Diagonally dominant ⇒ LDLT without pivoting is safe.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut a = Mat::<f64>::random(n, n, &mut rng);
        let at = a.transpose();
        a.axpy(1.0, &at);
        for i in 0..n {
            a[(i, i)] += 2.0 * n as f64;
        }
        a
    }

    fn rand_general(n: usize, seed: u64) -> Mat<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut a = Mat::<f64>::random(n, n, &mut rng);
        for i in 0..n {
            a[(i, i)] += 1.5; // keep comfortably nonsingular
        }
        a
    }

    fn residual_solve_lu(a: &Mat<f64>, nrhs: usize, seed: u64) -> f64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x_exact = Mat::<f64>::random(a.nrows(), nrhs, &mut rng);
        let b = gemm_into(a.as_ref(), Op::NoTrans, x_exact.as_ref(), Op::NoTrans);
        let f = lu_in_place(a.clone()).unwrap();
        let mut x = b.clone();
        lu_solve_in_place(&f, x.as_mut());
        let mut d = x;
        d.axpy(-1.0, &x_exact);
        d.norm_max() / x_exact.norm_max().max(1.0)
    }

    #[test]
    fn lu_solves_small_and_blocked_sizes() {
        for &n in &[1usize, 2, 5, 17, 48, 49, 100, 131] {
            let a = rand_general(n, n as u64);
            let r = residual_solve_lu(&a, 3, 1000 + n as u64);
            assert!(r < 1e-8, "n={n}: residual {r:.3e}");
        }
    }

    #[test]
    fn lu_pivots_a_matrix_needing_row_swaps() {
        // Zero on the first diagonal entry forces a pivot swap.
        let mut a = rand_general(20, 5);
        a[(0, 0)] = 0.0;
        let r = residual_solve_lu(&a, 2, 6);
        assert!(r < 1e-9, "residual {r:.3e}");
    }

    #[test]
    fn lu_detects_singularity() {
        let mut a = Mat::<f64>::zeros(4, 4);
        // Rank-deficient: duplicate columns.
        for i in 0..4 {
            a[(i, 0)] = (i + 1) as f64;
            a[(i, 1)] = (i + 1) as f64;
            a[(i, 2)] = 1.0;
            a[(i, 3)] = (i * i) as f64;
        }
        match lu_in_place(a) {
            Err(Error::SingularPivot { .. }) => {}
            other => panic!("expected singular pivot, got {other:?}"),
        }
    }

    #[test]
    fn partial_lu_schur_matches_definition() {
        let n = 30;
        let k = 18;
        let a = rand_general(n, 9);
        let mut f = a.clone();
        let _ipiv = partial_lu(&mut f, k).unwrap();
        // Reference Schur: A22 − A21 A11⁻¹ A12 via full solve.
        let a11 = a.submatrix(0..k, 0..k);
        let a12 = a.submatrix(0..k, k..n);
        let a21 = a.submatrix(k..n, 0..k);
        let a22 = a.submatrix(k..n, k..n);
        let f11 = lu_in_place(a11).unwrap();
        let mut x = a12.clone();
        lu_solve_in_place(&f11, x.as_mut());
        let mut schur_ref = a22.clone();
        gemm(
            -1.0,
            a21.as_ref(),
            Op::NoTrans,
            x.as_ref(),
            Op::NoTrans,
            1.0,
            schur_ref.as_mut(),
        );
        let schur_got = f.submatrix(k..n, k..n);
        let mut d = schur_got;
        d.axpy(-1.0, &schur_ref);
        assert!(d.norm_max() < 1e-9, "schur diff {:.3e}", d.norm_max());
    }

    #[test]
    fn ldlt_reconstructs_matrix() {
        for &n in &[1usize, 3, 10, 48, 97] {
            let a = rand_dd(n, 100 + n as u64);
            let f = ldlt_in_place(a.clone()).unwrap();
            // Rebuild L·D·Lᵀ.
            let mut l = Mat::<f64>::identity(n);
            let mut d = Mat::<f64>::zeros(n, n);
            for j in 0..n {
                d[(j, j)] = f.ld[(j, j)];
                for i in j + 1..n {
                    l[(i, j)] = f.ld[(i, j)];
                }
            }
            let ld = gemm_into(l.as_ref(), Op::NoTrans, d.as_ref(), Op::NoTrans);
            let ldlt = gemm_into(ld.as_ref(), Op::NoTrans, l.as_ref(), Op::Trans);
            let mut diff = ldlt;
            diff.axpy(-1.0, &a);
            assert!(
                diff.norm_max() < 1e-8 * a.norm_max(),
                "n={n}: {:.3e}",
                diff.norm_max()
            );
        }
    }

    #[test]
    fn ldlt_solve_accuracy() {
        let n = 73;
        let a = rand_dd(n, 17);
        let mut rng = rand::rngs::StdRng::seed_from_u64(18);
        let x_exact = Mat::<f64>::random(n, 4, &mut rng);
        let b = gemm_into(a.as_ref(), Op::NoTrans, x_exact.as_ref(), Op::NoTrans);
        let f = ldlt_in_place(a).unwrap();
        let mut x = b;
        ldlt_solve_in_place(&f, x.as_mut());
        let mut d = x;
        d.axpy(-1.0, &x_exact);
        assert!(d.norm_max() < 1e-9, "{:.3e}", d.norm_max());
    }

    #[test]
    fn ldlt_complex_symmetric() {
        // Complex symmetric (NOT Hermitian): A = B + Bᵀ + shift·I.
        let n = 40;
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let b = Mat::<C64>::random(n, n, &mut rng);
        let mut a = b.clone();
        let bt = b.transpose();
        a.axpy(C64::ONE, &bt);
        for i in 0..n {
            a[(i, i)] += C64::new(2.0 * n as f64, n as f64);
        }
        let x_exact = Mat::<C64>::random(n, 3, &mut rng);
        let rhs = gemm_into(a.as_ref(), Op::NoTrans, x_exact.as_ref(), Op::NoTrans);
        let f = ldlt_in_place(a).unwrap();
        let mut x = rhs;
        ldlt_solve_in_place(&f, x.as_mut());
        let mut d = x;
        d.axpy(-C64::ONE, &x_exact);
        assert!(d.norm_max() < 1e-9, "{:.3e}", d.norm_max());
    }

    #[test]
    fn partial_ldlt_schur_matches_full_elimination() {
        let n = 36;
        let k = 20;
        let a = rand_dd(n, 31);
        let mut f = a.clone();
        partial_ldlt(&mut f, k).unwrap();
        // Reference via LU-based Schur.
        let a11 = a.submatrix(0..k, 0..k);
        let a12 = a.submatrix(0..k, k..n);
        let a21 = a.submatrix(k..n, 0..k);
        let a22 = a.submatrix(k..n, k..n);
        let f11 = lu_in_place(a11).unwrap();
        let mut x = a12.clone();
        lu_solve_in_place(&f11, x.as_mut());
        let mut schur_ref = a22;
        gemm(
            -1.0,
            a21.as_ref(),
            Op::NoTrans,
            x.as_ref(),
            Op::NoTrans,
            1.0,
            schur_ref.as_mut(),
        );
        // Compare lower triangles only (upper is stale by contract).
        for j in 0..n - k {
            for i in j..n - k {
                let diff = (f[(k + i, k + j)] - schur_ref[(i, j)]).abs();
                assert!(diff < 1e-9, "({i},{j}): {diff:.3e}");
            }
        }
    }

    #[test]
    fn panel_width_variants_agree() {
        // Different nb regroup the arithmetic but must agree to rounding.
        let n = 120;
        let a = rand_general(n, 55);
        let base = lu_in_place(a.clone()).unwrap();
        for &nb in &[1usize, 8, 33, 200] {
            let f = lu_in_place_nb(a.clone(), nb).unwrap();
            let mut d = f.lu.clone();
            d.axpy(-1.0, &base.lu);
            assert!(d.norm_max() < 1e-9, "nb={nb}: {:.3e}", d.norm_max());
            assert_eq!(f.ipiv, base.ipiv, "nb={nb}");
        }
        let s = rand_dd(n, 56);
        let base = ldlt_in_place(s.clone()).unwrap();
        for &nb in &[1usize, 8, 33, 200] {
            let f = ldlt_in_place_nb(s.clone(), nb).unwrap();
            // Compare the factor's lower triangle only (upper is stale).
            for j in 0..n {
                for i in j..n {
                    let d = (f.ld[(i, j)] - base.ld[(i, j)]).abs();
                    assert!(d < 1e-9, "nb={nb} ({i},{j}): {d:.3e}");
                }
            }
        }
        // nb == 0 selects the default width.
        let f0 = lu_in_place_nb(a.clone(), 0).unwrap();
        let fd = lu_in_place(a).unwrap();
        assert_eq!(f0.lu.data(), fd.lu.data());
    }

    #[test]
    fn ldlt_rejects_zero_pivot() {
        let mut a = Mat::<f64>::zeros(3, 3);
        a[(0, 0)] = 0.0;
        a[(1, 1)] = 1.0;
        a[(2, 2)] = 1.0;
        assert!(matches!(
            ldlt_in_place(a),
            Err(Error::SingularPivot { index: 0, .. })
        ));
    }

    #[test]
    fn symmetrize_from_lower_works() {
        let mut a =
            Mat::<f64>::from_fn(3, 3, |i, j| if i >= j { (i * 3 + j) as f64 } else { -1.0 });
        symmetrize_from_lower(&mut a);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(a[(i, j)], a[(j, i)]);
            }
        }
    }
}
