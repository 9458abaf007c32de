//! One-sided Jacobi SVD, generic over real and complex scalars.
//!
//! One-sided Jacobi applies unitary plane rotations on the right of a matrix
//! until its columns are mutually orthogonal; the column norms are then the
//! singular values. It is simple, unconditionally stable and accurate to
//! high relative precision — ideal for the small core matrices that appear
//! in low-rank recompression (`r×r` with `r` a few dozen), which is the only
//! place the solver stack needs a full SVD.
//!
//! At that size the SVD *is* the cost of a rounded addition (the QRs around
//! it are `O((m+n)·r²)` on leaves with `m, n` not much above `r`), so the
//! iteration is arranged to do as little as possible per rotation:
//!
//! * **Preconditioning (Drmač–Veselić).** The input is first reduced by the
//!   crate's column-pivoted QR, `A·P = Q·R`, and Jacobi runs on `X = P·Rᴴ`.
//!   The columns of `X` start out graded and nearly orthogonal, which saves
//!   sweeps; it also makes every shape a `min(m, n)`-column problem. The QR
//!   runs to completion (no tolerance stop), so it only ever rotates the
//!   input: accuracy is Jacobi's.
//! * **One pass per rotation.** The accumulated rotations `W` are stored
//!   *under* the iterate, `Z = [X; W]`, so a rotation of the column pair
//!   `(p, q)` is one contiguous sweep over two columns of `Z`.
//! * **One dot product per pair.** Squared column norms are cached, updated
//!   by the rotation's own identity (`‖x_p‖² ∓ t·|x_pᴴx_q|`) and recomputed
//!   at the start of every sweep, so a pair only needs `x_pᴴ·x_q`. The
//!   terminating sweep rotates nothing, so it tests against fresh norms.

use csolve_common::{RealScalar, Scalar};
use csolve_dense::Mat;

use crate::qr::col_piv_qr;

/// Thin singular value decomposition `A = U·diag(s)·Vᴴ`, `k = min(m, n)`.
pub struct Svd<T: Scalar> {
    /// m×k, orthonormal columns.
    pub u: Mat<T>,
    /// Singular values, descending.
    pub s: Vec<T::Real>,
    /// n×k, orthonormal columns (a zero column where `s` is exactly zero).
    pub v: Mat<T>,
}

impl<T: Scalar> Svd<T> {
    /// Numerical rank at relative tolerance `eps` (w.r.t. the largest
    /// singular value).
    pub fn rank(&self, eps: T::Real) -> usize {
        if self.s.is_empty() {
            return 0;
        }
        let cutoff = self.s[0] * eps;
        self.s.iter().take_while(|&&sv| sv > cutoff).count()
    }
}

const MAX_SWEEPS: usize = 40;

/// A cached squared norm that a rotation shrank below this fraction of its
/// previous value has lost too many digits to cancellation; it is recomputed
/// from the column.
const NORM_REFRESH: f64 = 1e-3;

/// `c·x` with a real `c`: two multiplications for a complex `x`, not four.
#[inline(always)]
fn scale_real<T: Scalar>(c: T::Real, x: T) -> T {
    T::from_parts(c * x.real(), c * x.imag())
}

fn norm2<T: Scalar>(x: &[T]) -> T::Real {
    x.iter().map(|v| v.abs2()).sum()
}

/// One-sided Jacobi SVD of `a`. Works for any shape; cost
/// `O(k²·(n + k))` per sweep with `k = min(m, n)`, after an `O(m·n·k)` pivoted
/// QR — intended for small/medium blocks (the recompression cores).
pub fn jacobi_svd<T: Scalar>(a: &Mat<T>) -> Svd<T> {
    let (m, n) = (a.nrows(), a.ncols());
    // Negative tolerance: never stop on the (downdated, hence only
    // √ε-accurate) remaining norms — the preconditioner must not truncate.
    let f = col_piv_qr(a.clone(), -T::Real::RONE, usize::MAX);
    let k = f.rank;
    // Z = [X; W]: rows ..n hold X = P·Rᴴ (so A = Q·Xᴴ), rows n.. the
    // accumulated rotations, starting from the identity.
    let ld = n + k;
    let mut z = Mat::<T>::zeros(ld, k);
    for (j, &row) in f.perm.iter().enumerate() {
        for i in 0..k.min(j + 1) {
            z[(row, i)] = f.qr.a[(i, j)].conj();
        }
    }
    for i in 0..k {
        z[(n + i, i)] = T::ONE;
    }
    let eps = T::Real::EPSILON * T::Real::from_f64_real(8.0);
    let refresh = T::Real::from_f64_real(NORM_REFRESH);
    let mut norms2 = vec![T::Real::RZERO; k];

    for _sweep in 0..MAX_SWEEPS {
        for (j, n2) in norms2.iter_mut().enumerate() {
            *n2 = norm2(&z.col(j)[..n]);
        }
        let mut rotated = false;
        for p in 0..k {
            for q in p + 1..k {
                let (lo, hi) = z.data_mut().split_at_mut(q * ld);
                let cp = &mut lo[p * ld..(p + 1) * ld];
                let cq = &mut hi[..ld];
                let mut apq = T::ZERO;
                for (xp, xq) in cp[..n].iter().zip(&cq[..n]) {
                    apq += xp.conj() * *xq;
                }
                let (app, aqq) = (norms2[p], norms2[q]);
                let r = apq.abs();
                if r <= eps * (app * aqq).rsqrt_val() || r == T::Real::RZERO {
                    continue;
                }
                rotated = true;
                // Phase so that e^{-iφ}·apq is real positive.
                let phase = apq * T::from_real(r).recip();
                // Classic Jacobi angle for [[app, r], [r, aqq]].
                let tau = (aqq - app) / (r + r);
                let t = {
                    let denom = tau.rabs() + (T::Real::RONE + tau * tau).rsqrt_val();
                    let tv = T::Real::RONE / denom;
                    if tau < T::Real::RZERO {
                        -tv
                    } else {
                        tv
                    }
                };
                let c = T::Real::RONE / (T::Real::RONE + t * t).rsqrt_val();
                // x_p' = c·x_p − s·e^{-iφ}·x_q, x_q' = s·e^{iφ}·x_p + c·x_q,
                // on X and on the rotations stacked under it.
                let sp = scale_real(c * t, phase);
                let spc = sp.conj();
                for (xp, xq) in cp.iter_mut().zip(cq.iter_mut()) {
                    let (yp, yq) = (*xp, *xq);
                    *xp = scale_real(c, yp) - spc * yq;
                    *xq = sp * yp + scale_real(c, yq);
                }
                let tr = t * r;
                norms2[p] = app - tr;
                norms2[q] = aqq + tr;
                if norms2[p] < refresh * app {
                    norms2[p] = norm2(&cp[..n]);
                }
                if norms2[q] < refresh * aqq {
                    norms2[q] = norm2(&cq[..n]);
                }
            }
        }
        if !rotated {
            break;
        }
    }

    // Column norms of X·W = singular values, descending.
    let norms: Vec<T::Real> = (0..k).map(|j| norm2(&z.col(j)[..n]).rsqrt_val()).collect();
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&i, &j| norms[j].partial_cmp(&norms[i]).unwrap());

    // V = X·W·Σ⁻¹ and U = Q·[W; 0].
    let mut u = Mat::<T>::zeros(m, k);
    let mut v = Mat::<T>::zeros(n, k);
    let mut s = Vec::with_capacity(k);
    for (dst, &j) in order.iter().enumerate() {
        let sj = norms[j];
        s.push(sj);
        let (x, w) = z.col(j).split_at(n);
        // A zero singular value leaves a zero column in V (truncated anyway).
        if sj > T::Real::RZERO {
            let inv = T::Real::RONE / sj;
            for (d, &src) in v.col_mut(dst).iter_mut().zip(x) {
                *d = scale_real(inv, src);
            }
        }
        u.col_mut(dst)[..k].copy_from_slice(w);
    }
    f.qr.apply_q(&mut u);
    Svd { u, s, v }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csolve_common::C64;
    use csolve_dense::{gemm_into, Op};
    use rand::SeedableRng;

    /// The unpreconditioned one-sided Jacobi this module used before — three
    /// dot products per pair, `W` and `V` rotated separately — kept as the
    /// oracle for the singular values of [`jacobi_svd`].
    fn jacobi_svd_reference<T: Scalar>(a: &Mat<T>) -> Svd<T> {
        let (m, n) = (a.nrows(), a.ncols());
        if m < n {
            // Factor the transpose and swap roles: Aᵀ = U₁ Σ V₁ᴴ ⇒
            // A = conj(V₁) Σ U₁ᵀ = conj(V₁) Σ (conj(U₁))ᴴ.
            let t = a.transpose();
            let f = jacobi_svd_reference(&t);
            let u = Mat::from_fn(f.v.nrows(), f.v.ncols(), |i, j| f.v[(i, j)].conj());
            let v = Mat::from_fn(f.u.nrows(), f.u.ncols(), |i, j| f.u[(i, j)].conj());
            return Svd { u, s: f.s, v };
        }

        let mut w = a.clone(); // columns orthogonalized in place
        let mut v = Mat::<T>::identity(n);
        let eps = T::Real::EPSILON * T::Real::from_f64_real(8.0);

        for _sweep in 0..MAX_SWEEPS {
            let mut rotated = false;
            for p in 0..n {
                for q in p + 1..n {
                    // Gram entries of the column pair.
                    let mut app = T::Real::RZERO;
                    let mut aqq = T::Real::RZERO;
                    let mut apq = T::ZERO;
                    {
                        let cp = w.col(p);
                        let cq = w.col(q);
                        for (xp, xq) in cp.iter().zip(cq) {
                            app += xp.abs2();
                            aqq += xq.abs2();
                            apq += xp.conj() * *xq;
                        }
                    }
                    let r = apq.abs();
                    if r <= eps * (app * aqq).rsqrt_val() || r == T::Real::RZERO {
                        continue;
                    }
                    rotated = true;
                    // Phase so that e^{-iφ}·apq is real positive.
                    let phase = apq * T::from_real(r).recip();
                    // Classic Jacobi angle for [[app, r], [r, aqq]].
                    let tau = (aqq - app) / (r + r);
                    let t = {
                        let denom = tau.rabs() + (T::Real::RONE + tau * tau).rsqrt_val();
                        let tv = T::Real::RONE / denom;
                        if tau < T::Real::RZERO {
                            -tv
                        } else {
                            tv
                        }
                    };
                    let c = T::Real::RONE / (T::Real::RONE + t * t).rsqrt_val();
                    let s = c * t;
                    let (cs, ss) = (T::from_real(c), T::from_real(s));
                    let sp = ss * phase; //  s·e^{iφ}
                    let spc = ss * phase.conj(); // s·e^{-iφ}
                                                 // Column update: a_p' = c·a_p − s·e^{-iφ}·a_q,
                                                 //                a_q' = s·e^{iφ}·a_p + c·a_q.
                    let rotate = |mat: &mut Mat<T>| {
                        let rows = mat.nrows();
                        let (pp, qq): (*mut T, *mut T) =
                            { (mat.col_mut(p).as_mut_ptr(), mat.col_mut(q).as_mut_ptr()) };
                        // Disjoint columns p != q.
                        let cp = unsafe { std::slice::from_raw_parts_mut(pp, rows) };
                        let cq = unsafe { std::slice::from_raw_parts_mut(qq, rows) };
                        for (xp, xq) in cp.iter_mut().zip(cq.iter_mut()) {
                            let new_p = cs * *xp - spc * *xq;
                            let new_q = sp * *xp + cs * *xq;
                            *xp = new_p;
                            *xq = new_q;
                        }
                    };
                    rotate(&mut w);
                    rotate(&mut v);
                }
            }
            if !rotated {
                break;
            }
        }

        // Column norms = singular values; normalize U.
        let mut order: Vec<usize> = (0..n).collect();
        let norms: Vec<T::Real> = (0..n)
            .map(|j| {
                w.col(j)
                    .iter()
                    .map(|x| x.abs2())
                    .sum::<T::Real>()
                    .rsqrt_val()
            })
            .collect();
        order.sort_by(|&i, &j| norms[j].partial_cmp(&norms[i]).unwrap());

        let mut u = Mat::<T>::zeros(m, n);
        let mut vv = Mat::<T>::zeros(n, n);
        let mut s = Vec::with_capacity(n);
        for (k, &j) in order.iter().enumerate() {
            let sj = norms[j];
            s.push(sj);
            if sj > T::Real::RZERO {
                let inv = T::from_real(sj).recip();
                for (dst, &src) in u.col_mut(k).iter_mut().zip(w.col(j)) {
                    *dst = src * inv;
                }
            } else {
                // Zero singular value: leave a zero column (truncated anyway).
            }
            for (dst, &src) in vv.col_mut(k).iter_mut().zip(v.col(j)) {
                *dst = src;
            }
        }
        Svd { u, s, v: vv }
    }

    fn reconstruct<T: Scalar>(f: &Svd<T>) -> Mat<T> {
        let k = f.s.len();
        let mut us = f.u.clone();
        for j in 0..k {
            let sj = T::from_real(f.s[j]);
            for x in us.col_mut(j) {
                *x *= sj;
            }
        }
        gemm_into(us.as_ref(), Op::NoTrans, f.v.as_ref(), Op::ConjTrans)
    }

    fn check_orthonormal<T: Scalar>(q: &Mat<T>, k: usize) {
        let g = gemm_into(q.as_ref(), Op::ConjTrans, q.as_ref(), Op::NoTrans);
        for i in 0..k {
            for j in 0..k {
                let want = if i == j { 1.0 } else { 0.0 };
                // Columns beyond the rank may be zero; only check nonzero ones.
                let gii = g[(i, i)].abs().to_f64();
                let gjj = g[(j, j)].abs().to_f64();
                if gii < 0.5 || gjj < 0.5 {
                    continue;
                }
                assert!(
                    (g[(i, j)].abs().to_f64() - want).abs() < 1e-10,
                    "orthonormality [{i},{j}]"
                );
            }
        }
    }

    #[test]
    fn svd_reconstructs_real_square() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let a = Mat::<f64>::random(12, 12, &mut rng);
        let f = jacobi_svd(&a);
        let mut d = reconstruct(&f);
        d.axpy(-1.0, &a);
        assert!(d.norm_max() < 1e-10, "{:.3e}", d.norm_max());
        check_orthonormal(&f.u, 12);
        check_orthonormal(&f.v, 12);
        for w in f.s.windows(2) {
            assert!(w[0] >= w[1], "singular values sorted");
        }
    }

    #[test]
    fn svd_tall_and_wide() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for &(m, n) in &[(15usize, 6usize), (6, 15)] {
            let a = Mat::<f64>::random(m, n, &mut rng);
            let f = jacobi_svd(&a);
            assert_eq!(f.u.nrows(), m);
            assert_eq!(f.v.nrows(), n);
            let mut d = reconstruct(&f);
            d.axpy(-1.0, &a);
            assert!(d.norm_max() < 1e-10, "({m},{n}): {:.3e}", d.norm_max());
        }
    }

    #[test]
    fn svd_complex_reconstruction() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a = Mat::<C64>::random(10, 7, &mut rng);
        let f = jacobi_svd(&a);
        let mut d = reconstruct(&f);
        d.axpy(-C64::ONE, &a);
        assert!(d.norm_max() < 1e-10, "{:.3e}", d.norm_max());
        // Singular values are real non-negative by construction; compare with
        // trace identity ‖A‖_F² = Σ σ².
        let fro2: f64 = a.data().iter().map(|x| x.abs2()).sum();
        let ssum: f64 = f.s.iter().map(|s| s * s).sum();
        assert!((fro2 - ssum).abs() < 1e-8 * fro2);
    }

    #[test]
    fn svd_known_singular_values() {
        // diag(3, 2, 1) embedded in random orthogonal frames would need a Q
        // generator; use the direct diagonal case instead.
        let mut a = Mat::<f64>::zeros(5, 3);
        a[(0, 0)] = 3.0;
        a[(1, 1)] = 2.0;
        a[(2, 2)] = 1.0;
        let f = jacobi_svd(&a);
        assert!((f.s[0] - 3.0).abs() < 1e-12);
        assert!((f.s[1] - 2.0).abs() < 1e-12);
        assert!((f.s[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn svd_rank_deficient() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let x = Mat::<f64>::random(10, 2, &mut rng);
        let y = Mat::<f64>::random(8, 2, &mut rng);
        let a = gemm_into(x.as_ref(), Op::NoTrans, y.as_ref(), Op::Trans);
        let f = jacobi_svd(&a);
        assert_eq!(f.rank(1e-10), 2);
        assert!(f.s[2] < 1e-10 * f.s[0]);
    }

    #[test]
    fn svd_zero_matrix() {
        let a = Mat::<f64>::zeros(4, 3);
        let f = jacobi_svd(&a);
        assert_eq!(f.rank(1e-12), 0);
        assert!(f.s.iter().all(|&s| s == 0.0));
    }

    /// `jacobi_svd(a)` reconstructs `a` to 1e-12, its kept vectors (σ > 0)
    /// are orthonormal, and its singular values are the reference
    /// implementation's to 1e-12 relative.
    fn check_against_reference<T: Scalar>(a: &Mat<T>, what: &str) {
        let f = jacobi_svd(a);
        let want = jacobi_svd_reference(a);
        let k = a.nrows().min(a.ncols());
        assert_eq!(f.s.len(), k, "{what}: number of values");
        assert_eq!((f.u.nrows(), f.u.ncols()), (a.nrows(), k), "{what}: U");
        assert_eq!((f.v.nrows(), f.v.ncols()), (a.ncols(), k), "{what}: V");
        let smax = want.s[0].to_f64();
        let mut d = reconstruct(&f);
        d.axpy(-T::ONE, a);
        let err = d.norm_max().to_f64();
        assert!(err <= 1e-12 * smax, "{what}: reconstruction {err:.3e}");
        for (j, (got, w)) in f.s.iter().zip(&want.s).enumerate() {
            let (got, w) = (got.to_f64(), w.to_f64());
            // Relative to σ_j itself while σ_j is resolved at all in double
            // precision, to σ_max below that.
            let scale = w.max(1e-3 * smax);
            assert!(
                (got - w).abs() <= 1e-12 * scale,
                "{what}: σ[{j}] = {got:e}, reference {w:e}"
            );
        }
        assert!(f.s.windows(2).all(|w| w[0] >= w[1]), "{what}: not sorted");
        let kept = f.s.iter().take_while(|s| s.to_f64() > 0.0).count();
        for q in [&f.u, &f.v] {
            let g = gemm_into(q.as_ref(), Op::ConjTrans, q.as_ref(), Op::NoTrans);
            for i in 0..kept {
                for j in 0..kept {
                    let want = if i == j { T::ONE } else { T::ZERO };
                    let off = (g[(i, j)] - want).abs().to_f64();
                    assert!(off < 1e-12, "{what}: QᴴQ[{i},{j}] off by {off:.3e}");
                }
            }
        }
    }

    /// Seeded inputs of the kinds the recompression cores take.
    fn reference_cases<T: Scalar>(seed: u64) -> Vec<(&'static str, Mat<T>)> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // Columns graded over eight orders of magnitude.
        let mut graded = Mat::<T>::random(19, 19, &mut rng);
        for j in 0..19 {
            let g = T::from_f64(10f64.powf(-(j as f64) * 8.0 / 18.0));
            graded.col_mut(j).iter_mut().for_each(|x| *x *= g);
        }
        let x = Mat::<T>::random(18, 5, &mut rng);
        let y = Mat::<T>::random(14, 5, &mut rng);
        let deficient = gemm_into(x.as_ref(), Op::NoTrans, y.as_ref(), Op::Trans);
        let mut zero_cols = Mat::<T>::random(12, 9, &mut rng);
        for j in [0, 4, 8] {
            zero_cols.col_mut(j).fill(T::ZERO);
        }
        vec![
            ("graded", graded),
            ("rank-deficient", deficient),
            ("zero columns", zero_cols),
            ("tall", Mat::random(40, 7, &mut rng)),
            ("wide", Mat::random(7, 40, &mut rng)),
            ("square", Mat::random(24, 24, &mut rng)),
            ("one column", Mat::random(6, 1, &mut rng)),
        ]
    }

    #[test]
    fn preconditioned_svd_matches_the_reference_real() {
        for (what, a) in reference_cases::<f64>(41) {
            check_against_reference(&a, what);
        }
    }

    #[test]
    fn preconditioned_svd_matches_the_reference_complex() {
        for (what, a) in reference_cases::<C64>(42) {
            check_against_reference(&a, what);
        }
    }

    #[test]
    fn exactly_zero_directions_come_out_as_zero_singular_values() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        let mut a = Mat::<f64>::random(10, 6, &mut rng);
        a.col_mut(2).fill(0.0);
        a.col_mut(5).fill(0.0);
        let f = jacobi_svd(&a);
        assert_eq!(f.s.len(), 6);
        assert!(f.s[..4].iter().all(|&s| s > 0.0));
        assert_eq!(f.s[4..], [0.0, 0.0]);
    }

    #[test]
    fn preconditioner_does_not_truncate_below_sqrt_eps() {
        // Two nearly parallel columns: after the first reflector the pivoted
        // QR's downdated norm of the second is pure cancellation noise (it is
        // only √ε-accurate) and often clamps to zero. A preconditioner that
        // stopped there would lose σ₂ ≈ 1e-10·σ₁ outright.
        for seed in 0..16 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let a0 = Mat::<f64>::random(9, 1, &mut rng);
            let b = Mat::<f64>::random(9, 1, &mut rng);
            let a = Mat::from_fn(9, 2, |i, j| a0[(i, 0)] + j as f64 * 1e-10 * b[(i, 0)]);
            let (f, want) = (jacobi_svd(&a), jacobi_svd_reference(&a));
            assert!(want.s[1] > 1e-11 * want.s[0]);
            assert!(
                (f.s[1] - want.s[1]).abs() <= 1e-4 * want.s[1],
                "seed {seed}: σ₂ = {:e}, reference {:e}",
                f.s[1],
                want.s[1]
            );
        }
    }
}
