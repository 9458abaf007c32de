//! The [`LowRank`] matrix type `A ≈ U·Vᵀ` and its recompression arithmetic.
//!
//! The plain (non-conjugated) transpose convention is used so that
//! transposition of a low-rank matrix is a pure factor swap even in the
//! complex symmetric setting of the paper.

use csolve_common::{ByteSized, Error, RealScalar, Result, Scalar};
use csolve_dense::{gemm, gemm_into, Mat, MatMut, MatRef, Op};

use crate::qr::{col_piv_qr, qr_in_place};
use crate::svd::jacobi_svd;

/// How [`LowRank::round`] is told its Frobenius tolerance.
enum Tolerance<R> {
    /// `tol`.
    Absolute(R),
    /// `eps·‖U·Vᵀ‖_F`.
    Relative(R),
}

/// Rank-`r` representation `U·Vᵀ` with `U: m×r`, `V: n×r`.
#[derive(Clone)]
pub struct LowRank<T> {
    /// Left factor `U` (`m × r`).
    pub u: Mat<T>,
    /// Right factor `V` (`n × r`; the matrix is `U·Vᵀ`).
    pub v: Mat<T>,
}

impl<T: Scalar> std::fmt::Debug for LowRank<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LowRank({}x{}, rank {})",
            self.nrows(),
            self.ncols(),
            self.rank()
        )
    }
}

impl<T> ByteSized for LowRank<T> {
    fn byte_size(&self) -> usize {
        self.u.byte_size() + self.v.byte_size()
    }
}

impl<T: Scalar> LowRank<T> {
    /// Wrap existing factors (ranks must agree).
    pub fn new(u: Mat<T>, v: Mat<T>) -> Self {
        assert_eq!(u.ncols(), v.ncols(), "LowRank: factor ranks must agree");
        Self { u, v }
    }

    /// Rank-zero (all-zero) matrix of the given shape.
    pub fn zeros(m: usize, n: usize) -> Self {
        Self {
            u: Mat::zeros(m, 0),
            v: Mat::zeros(n, 0),
        }
    }

    /// Number of rows of the represented matrix.
    pub fn nrows(&self) -> usize {
        self.u.nrows()
    }

    /// Number of columns of the represented matrix.
    pub fn ncols(&self) -> usize {
        self.v.nrows()
    }

    /// Current rank `r` (number of columns of each factor).
    pub fn rank(&self) -> usize {
        self.u.ncols()
    }

    /// Compress a dense block at *absolute* Frobenius tolerance `tol`
    /// (pass `eps · ‖A‖_F` for the paper's relative ε). Rank-revealing QR
    /// followed by an SVD cleanup of the core.
    ///
    /// # Examples
    ///
    /// ```
    /// use csolve_dense::Mat;
    /// use csolve_lowrank::LowRank;
    ///
    /// // An outer product has rank 1, and the compression finds it.
    /// let a = Mat::from_fn(6, 5, |i, j| (i as f64 + 1.0) * (j as f64 + 1.0));
    /// let lr = LowRank::from_dense(&a, 1e-10, 5);
    /// assert_eq!(lr.rank(), 1);
    /// assert!((lr.to_dense().as_ref().get(2, 3) - a.as_ref().get(2, 3)).abs() < 1e-9);
    /// ```
    pub fn from_dense(a: &Mat<T>, tol: T::Real, max_rank: usize) -> Self {
        let f = col_piv_qr(a.clone(), tol * T::Real::from_f64_real(0.5), max_rank);
        let (u, v) = f.factors();
        let mut lr = Self::new(u, v);
        lr.recompress(tol);
        lr
    }

    /// Like [`LowRank::from_dense`], but verifies the tolerance was actually
    /// reached when the rank cap was binding, returning
    /// [`Error::CompressionFailure`] instead of a silently inaccurate
    /// approximation. The verification (an explicit residual) only runs when
    /// the rank-revealing QR stopped at `max_rank` with mass left over, so
    /// the common uncapped path costs the same as `from_dense`.
    pub fn from_dense_checked(a: &Mat<T>, tol: T::Real, max_rank: usize) -> Result<Self> {
        let kfull = a.nrows().min(a.ncols());
        let f = col_piv_qr(a.clone(), tol * T::Real::from_f64_real(0.5), max_rank);
        let capped = f.rank == max_rank && max_rank < kfull;
        let (u, v) = f.factors();
        let mut lr = Self::new(u, v);
        lr.recompress(tol);
        if capped {
            lr.check_residual(a, tol)?;
        }
        Ok(lr)
    }

    /// Rank-first compression of a *write-once* panel: `Some(U·Vᵀ)` at
    /// absolute Frobenius tolerance `tol` when the factors are smaller than
    /// the dense block (`r·(m+n) < m·n`), `None` when they are not.
    ///
    /// The rank-revealing QR runs at `tol/2` exactly as in
    /// [`LowRank::from_dense_checked`], and its rank alone makes the
    /// keep/discard decision, before any `Q` is formed. A kept panel is
    /// returned as the QR left it — `U` = thin `Q` (orthonormal), `V` =
    /// `Rᵀ` un-permuted — without the SVD normal form of
    /// [`LowRank::recompress`]: from `L = min(m, n) = 4` on, its per-σ
    /// threshold `tol/√L` lies at or below the QR's stop `tol/2`, so the
    /// SVD pass re-derives a rank the QR already fixed. Use it for blocks
    /// that are compressed once and then only multiplied with; blocks that
    /// take part in truncated sums (H-matrix leaves) want the normal form
    /// and `from_dense_checked`.
    ///
    /// A rank cap that was binding is verified like in `from_dense_checked`
    /// and fails with [`Error::CompressionFailure`].
    pub fn from_dense_if_smaller(
        a: &Mat<T>,
        tol: T::Real,
        max_rank: usize,
    ) -> Result<Option<Self>> {
        let (m, n) = (a.nrows(), a.ncols());
        let f = col_piv_qr(a.clone(), tol * T::Real::from_f64_real(0.5), max_rank);
        if f.rank * (m + n) >= m * n {
            return Ok(None);
        }
        let capped = f.rank == max_rank && max_rank < m.min(n);
        let (u, v) = f.factors();
        let lr = Self::new(u, v);
        if capped {
            lr.check_residual(a, tol)?;
        }
        Ok(Some(lr))
    }

    /// `Err(CompressionFailure)` unless `‖U·Vᵀ − A‖_F ≤ tol` (explicit
    /// residual; only worth its cost when a rank cap was binding).
    fn check_residual(&self, a: &Mat<T>, tol: T::Real) -> Result<()> {
        let mut resid = self.to_dense();
        resid.axpy(-T::ONE, a);
        let achieved = resid.norm_fro();
        if achieved > tol {
            return Err(Error::CompressionFailure {
                wanted_tol: tol.to_f64(),
                achieved: achieved.to_f64(),
            });
        }
        Ok(())
    }

    /// Materialize as dense.
    pub fn to_dense(&self) -> Mat<T> {
        if self.rank() == 0 {
            return Mat::zeros(self.nrows(), self.ncols());
        }
        gemm_into(self.u.as_ref(), Op::NoTrans, self.v.as_ref(), Op::Trans)
    }

    /// `out += α·U·Vᵀ` on a dense block of matching shape.
    pub fn axpy_into_dense(&self, alpha: T, out: MatMut<'_, T>) {
        assert_eq!(out.nrows(), self.nrows());
        assert_eq!(out.ncols(), self.ncols());
        if self.rank() == 0 {
            return;
        }
        gemm(
            alpha,
            self.u.as_ref(),
            Op::NoTrans,
            self.v.as_ref(),
            Op::Trans,
            T::ONE,
            out,
        );
    }

    /// `C ← α·(U·Vᵀ)·op(B) + β·C` — costs `O((m+n)·r·k)`.
    pub fn mul_dense(&self, alpha: T, b: MatRef<'_, T>, opb: Op, beta: T, mut c: MatMut<'_, T>) {
        // tmp = Vᵀ·op(B) : r×k
        let (_, k) = opb.shape_of(&b);
        if self.rank() == 0 {
            if beta == T::ZERO {
                c.fill(T::ZERO);
            } else if beta != T::ONE {
                for j in 0..c.ncols() {
                    for x in c.col_mut(j) {
                        *x *= beta;
                    }
                }
            }
            return;
        }
        let mut tmp = Mat::zeros(self.rank(), k);
        gemm(
            T::ONE,
            self.v.as_ref(),
            Op::Trans,
            b,
            opb,
            T::ZERO,
            tmp.as_mut(),
        );
        gemm(
            alpha,
            self.u.as_ref(),
            Op::NoTrans,
            tmp.as_ref(),
            Op::NoTrans,
            beta,
            c,
        );
    }

    /// `y ← α·(U·Vᵀ)·x + β·y`.
    pub fn matvec(&self, alpha: T, x: &[T], beta: T, y: &mut [T]) {
        if self.rank() == 0 {
            if beta == T::ZERO {
                y.fill(T::ZERO);
            } else if beta != T::ONE {
                for v in y.iter_mut() {
                    *v *= beta;
                }
            }
            return;
        }
        let mut tmp = vec![T::ZERO; self.rank()];
        csolve_dense::matvec(T::ONE, self.v.as_ref(), Op::Trans, x, T::ZERO, &mut tmp);
        csolve_dense::matvec(alpha, self.u.as_ref(), Op::NoTrans, &tmp, beta, y);
    }

    /// Transpose is a factor swap: `(U·Vᵀ)ᵀ = V·Uᵀ`.
    pub fn transpose(&self) -> Self {
        Self {
            u: self.v.clone(),
            v: self.u.clone(),
        }
    }

    /// Scale in place (applied to `U`).
    pub fn scale(&mut self, alpha: T) {
        self.u.scale(alpha);
    }

    /// Formal sum: rank grows to `r₁ + r₂` (no truncation).
    pub fn add(&self, alpha: T, other: &LowRank<T>) -> Self {
        assert_eq!(self.nrows(), other.nrows());
        assert_eq!(self.ncols(), other.ncols());
        // Rank-0 operands short-circuit: no concatenated panels, and the
        // result reuses the existing factors directly.
        if other.rank() == 0 {
            return self.clone();
        }
        if self.rank() == 0 {
            let mut scaled = other.clone();
            scaled.scale(alpha);
            return scaled;
        }
        let r1 = self.rank();
        let r2 = other.rank();
        let mut u = Mat::zeros(self.nrows(), r1 + r2);
        let mut v = Mat::zeros(self.ncols(), r1 + r2);
        for j in 0..r1 {
            u.col_mut(j).copy_from_slice(self.u.col(j));
            v.col_mut(j).copy_from_slice(self.v.col(j));
        }
        for j in 0..r2 {
            let dst = u.col_mut(r1 + j);
            for (d, &s) in dst.iter_mut().zip(other.u.col(j)) {
                *d = alpha * s;
            }
            v.col_mut(r1 + j).copy_from_slice(other.v.col(j));
        }
        Self { u, v }
    }

    /// Truncated sum `self + α·other` recompressed at absolute tolerance
    /// `tol` — the *compressed AXPY* of the paper.
    pub fn add_truncate(&self, alpha: T, other: &LowRank<T>, tol: T::Real) -> Self {
        let mut sum = self.add(alpha, other);
        sum.recompress(tol);
        sum
    }

    /// Recompress in place at absolute Frobenius tolerance `tol`:
    /// QR of both factors, SVD of the small core, truncate.
    ///
    /// The truncation rule is the per-singular-value threshold
    /// `σ_j ≤ τ = tol/√L` with `L = min(m, n)`: at most `L` values can be
    /// dropped, so the total Frobenius error is `≤ √L·τ = tol`. Unlike the
    /// cumulative-tail rule, this makes recompression **idempotent**: a
    /// second call at the same `tol` sees the same singular values, all
    /// strictly above `τ`, and drops nothing.
    pub fn recompress(&mut self, tol: T::Real) {
        self.round(Tolerance::Absolute(tol));
    }

    /// [`LowRank::recompress`] at the *relative* tolerance `eps·‖U·Vᵀ‖_F` —
    /// the rounding step of every ε-truncated H-matrix operation. The norm
    /// is `√Σσ²` of the core SVD the truncation computes anyway, so no
    /// separate [`LowRank::norm_fro`] (two `r×r` Gram products) is needed.
    ///
    /// A formal rank carrying no mass — sums that cancelled, leaving only
    /// roundoff of the factors, `‖U·Vᵀ‖_F ≤ r·ε_mach·‖U‖_F·‖V‖_F` — comes out
    /// at rank 0 instead of being kept alive by a tolerance of `eps·0`.
    pub fn recompress_rel(&mut self, eps: T::Real) {
        self.round(Tolerance::Relative(eps));
    }

    /// The rounding behind both tolerance spellings.
    fn round(&mut self, tol: Tolerance<T::Real>) {
        let r = self.rank();
        if r == 0 {
            return;
        }
        let (m, n) = (self.nrows(), self.ncols());
        if m == 0 || n == 0 {
            // Empty-shape operand: any rank is formal; normalize to rank 0
            // instead of feeding 0×r panels to the QR.
            *self = Self::zeros(m, n);
            return;
        }
        let qu = qr_in_place(std::mem::replace(&mut self.u, Mat::zeros(0, 0)));
        let qv = qr_in_place(std::mem::replace(&mut self.v, Mat::zeros(0, 0)));
        // core = Ru·Rvᵀ = W·Σ·Zᴴ, and ‖U·Vᵀ‖_F = ‖core‖_F = √Σσ².
        let (ru, rv) = (qu.r(), qv.r());
        let core = gemm_into(ru.as_ref(), Op::NoTrans, rv.as_ref(), Op::Trans);
        let svd = jacobi_svd(&core);
        let tol = match tol {
            Tolerance::Absolute(tol) => tol,
            Tolerance::Relative(eps) => {
                let norm = svd.s.iter().map(|&s| s * s).sum::<T::Real>().rsqrt_val();
                let roundoff = T::Real::EPSILON * T::Real::from_f64_real(r as f64);
                if norm <= roundoff * ru.norm_fro() * rv.norm_fro() {
                    *self = Self::zeros(m, n);
                    return;
                }
                eps * norm
            }
        };
        let l = m.min(n).max(1);
        let thresh = tol / T::Real::from_f64_real(l as f64).rsqrt_val();
        let mut keep = svd.s.len();
        while keep > 0 && svd.s[keep - 1] <= thresh {
            keep -= 1;
        }
        // U ← Qu·[W·Σ; 0], V ← Qv·[conj(Z); 0]: the reflectors run over the
        // kept columns only; neither Q is ever formed.
        let mut u = Mat::zeros(m, keep);
        let mut v = Mat::zeros(n, keep);
        for j in 0..keep {
            let sj = T::from_real(svd.s[j]);
            for (d, &w) in u.col_mut(j).iter_mut().zip(svd.u.col(j)) {
                *d = w * sj;
            }
            for (d, &z) in v.col_mut(j).iter_mut().zip(svd.v.col(j)) {
                *d = z.conj();
            }
        }
        qu.apply_q(&mut u);
        qv.apply_q(&mut v);
        self.u = u;
        self.v = v;
    }

    /// Frobenius norm computed from the factors in `O((m+n)·r²)`.
    pub fn norm_fro(&self) -> T::Real {
        let r = self.rank();
        if r == 0 {
            return T::Real::RZERO;
        }
        let gu = gemm_into(self.u.as_ref(), Op::ConjTrans, self.u.as_ref(), Op::NoTrans);
        let gv = gemm_into(self.v.as_ref(), Op::ConjTrans, self.v.as_ref(), Op::NoTrans);
        // ‖UVᵀ‖²_F = tr(conj(V)·UᴴU·Vᵀ) = Σ_{kl} Gu_{kl}·Gv_{kl}
        // (real because Gu and Gv are Hermitian positive semi-definite).
        let mut acc = T::Real::RZERO;
        for i in 0..r {
            for j in 0..r {
                acc += (gu[(i, j)] * gv[(i, j)]).real();
            }
        }
        acc.rmax(T::Real::RZERO).rsqrt_val()
    }

    /// Extract rows `rows` as a low-rank matrix (shares column factor).
    pub fn rows(&self, rows: std::ops::Range<usize>) -> Self {
        Self {
            u: self.u.submatrix(rows, 0..self.rank()),
            v: self.v.clone(),
        }
    }

    /// Extract columns `cols` as a low-rank matrix (shares row factor).
    pub fn cols(&self, cols: std::ops::Range<usize>) -> Self {
        Self {
            u: self.u.clone(),
            v: self.v.submatrix(cols, 0..self.rank()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csolve_common::C64;
    use rand::SeedableRng;

    fn rand_lowrank(m: usize, n: usize, r: usize, seed: u64) -> (LowRank<f64>, Mat<f64>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let u = Mat::<f64>::random(m, r, &mut rng);
        let v = Mat::<f64>::random(n, r, &mut rng);
        let lr = LowRank::new(u, v);
        let dense = lr.to_dense();
        (lr, dense)
    }

    #[test]
    fn from_dense_and_back() {
        let (_, a) = rand_lowrank(20, 15, 4, 1);
        let lr = LowRank::from_dense(&a, 1e-10 * a.norm_fro(), usize::MAX);
        assert!(lr.rank() <= 6, "rank {} too high", lr.rank());
        let mut d = lr.to_dense();
        d.axpy(-1.0, &a);
        assert!(d.norm_fro() < 1e-8 * a.norm_fro());
    }

    #[test]
    fn from_dense_checked_reports_rank_overflow() {
        // Full-rank random matrix: a rank cap of 2 at a tight tolerance
        // cannot succeed and must surface as a structured error.
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let a = Mat::<f64>::random(16, 16, &mut rng);
        let err = LowRank::from_dense_checked(&a, 1e-12 * a.norm_fro(), 2).unwrap_err();
        assert!(matches!(
            err,
            csolve_common::Error::CompressionFailure { .. }
        ));
        // An uncapped call on the same input succeeds.
        let ok = LowRank::from_dense_checked(&a, 1e-12 * a.norm_fro(), usize::MAX).unwrap();
        assert!(ok.rank() <= 16);
        // A genuinely low-rank matrix succeeds even under the cap.
        let (_, lo) = rand_lowrank(16, 16, 2, 22);
        let ok = LowRank::from_dense_checked(&lo, 1e-9 * lo.norm_fro(), 4).unwrap();
        assert!(ok.rank() <= 4);
    }

    /// The contract of `from_dense_if_smaller` on one input: the rank is the
    /// RRQR's at `tol/2`, the answer is `None` exactly when that rank does
    /// not pay, and a kept panel reproduces `a` within `tol`.
    fn check_if_smaller<T: Scalar>(a: &Mat<T>, tol: T::Real) {
        let (m, n) = (a.nrows(), a.ncols());
        let half = tol * T::Real::from_f64_real(0.5);
        let r = col_piv_qr(a.clone(), half, usize::MAX).rank;
        let got = LowRank::from_dense_if_smaller(a, tol, usize::MAX).unwrap();
        assert_eq!(got.is_none(), r * (m + n) >= m * n, "{m}x{n}, rank {r}");
        if let Some(lr) = got {
            assert_eq!((lr.nrows(), lr.ncols(), lr.rank()), (m, n, r));
            let mut d = lr.to_dense();
            d.axpy(-T::ONE, a);
            assert!(d.norm_fro() <= tol, "{m}x{n}: err above tol");
        }
    }

    #[test]
    fn from_dense_if_smaller_decides_on_the_rrqr_rank() {
        // Tall, wide and square; ranks on both sides of the break-even
        // `m·n / (m+n)` (60x16: 12.6, 16x60: 12.6, 40x40: 20).
        for (m, n, r, seed) in [
            (60, 16, 3, 41),
            (60, 16, 12, 42),
            (60, 16, 13, 43),
            (60, 16, 16, 44),
            (16, 60, 5, 45),
            (16, 60, 14, 46),
            (40, 40, 19, 47),
            (40, 40, 20, 48),
        ] {
            let (_, a) = rand_lowrank(m, n, r, seed);
            check_if_smaller(&a, 1e-9 * a.norm_fro());
        }
        // Decaying spectrum: the tolerance, not the exact rank, sets `r`.
        let mut rng = rand::rngs::StdRng::seed_from_u64(49);
        let mut a = Mat::<f64>::zeros(50, 30);
        for k in 0..20 {
            let mut u = Mat::<f64>::random(50, 1, &mut rng);
            u.scale(0.2f64.powi(k));
            a.axpy(
                1.0,
                &LowRank::new(u, Mat::random(30, 1, &mut rng)).to_dense(),
            );
        }
        check_if_smaller(&a, 1e-5 * a.norm_fro());
        // Complex.
        let u = Mat::<C64>::random(48, 4, &mut rng);
        let v = Mat::<C64>::random(20, 4, &mut rng);
        let a = LowRank::new(u, v).to_dense();
        check_if_smaller(&a, 1e-10 * a.norm_fro());
        // Rank 0 is the smallest representation of a zero block…
        let z = LowRank::from_dense_if_smaller(&Mat::<f64>::zeros(7, 5), 1e-12, usize::MAX);
        assert_eq!(z.unwrap().unwrap().rank(), 0);
        // …but saves nothing on a block without entries.
        for (m, n) in [(0, 6), (6, 0), (0, 0)] {
            check_if_smaller(&Mat::<f64>::zeros(m, n), 1e-12);
        }
    }

    #[test]
    fn from_dense_if_smaller_reports_rank_overflow_like_checked() {
        // Same inputs as `from_dense_checked_reports_rank_overflow`: the
        // binding cap fails with the same structured error, value for value
        // (both residuals are taken on the capped RRQR's factors — the
        // checked constructor's SVD pass only rotates them).
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let a = Mat::<f64>::random(16, 16, &mut rng);
        let tol = 1e-12 * a.norm_fro();
        let failure = |r: Result<()>| match r {
            Err(Error::CompressionFailure {
                wanted_tol,
                achieved,
            }) => (wanted_tol, achieved),
            other => panic!("expected CompressionFailure, got {other:?}"),
        };
        let want = failure(LowRank::from_dense_checked(&a, tol, 2).map(|_| ()));
        let got = failure(LowRank::from_dense_if_smaller(&a, tol, 2).map(|_| ()));
        assert_eq!(got.0, want.0);
        assert!((got.1 - want.1).abs() <= 1e-12 * want.1);
        // A cap at or above the break-even rank is a discard, not an error:
        // the decision comes before the residual.
        assert!(LowRank::from_dense_if_smaller(&a, tol, 8)
            .unwrap()
            .is_none());
        // A genuinely low-rank block passes under the cap.
        let (_, lo) = rand_lowrank(16, 16, 2, 22);
        let ok = LowRank::from_dense_if_smaller(&lo, 1e-9 * lo.norm_fro(), 4);
        assert_eq!(ok.unwrap().unwrap().rank(), 2);
    }

    #[test]
    fn recompress_reduces_inflated_rank() {
        let (lr, a) = rand_lowrank(25, 18, 3, 2);
        // Inflate: add itself then recompress — rank must come back to ~3.
        let doubled = lr.add(1.0, &lr);
        assert_eq!(doubled.rank(), 6);
        let mut rc = doubled.clone();
        rc.recompress(1e-10 * a.norm_fro());
        assert!(rc.rank() <= 3, "rank after recompression: {}", rc.rank());
        let mut d = rc.to_dense();
        let mut want = a.clone();
        want.scale(2.0);
        d.axpy(-1.0, &want);
        assert!(d.norm_fro() < 1e-8 * a.norm_fro());
    }

    #[test]
    fn add_truncate_is_compressed_axpy() {
        let (x, xd) = rand_lowrank(12, 12, 2, 3);
        let (y, yd) = rand_lowrank(12, 12, 2, 4);
        let tol = 1e-12;
        let z = x.add_truncate(-1.0, &y, tol);
        let mut want = xd.clone();
        want.axpy(-1.0, &yd);
        let mut d = z.to_dense();
        d.axpy(-1.0, &want);
        assert!(d.norm_fro() < 1e-9);
        assert!(z.rank() <= 4);
    }

    #[test]
    fn truncation_error_within_tolerance() {
        // Sum of many rank-1 terms with decaying magnitude.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let (m, n) = (30, 30);
        let mut acc = LowRank::<f64>::zeros(m, n);
        let mut dense = Mat::<f64>::zeros(m, n);
        for k in 0..12 {
            let mut u = Mat::<f64>::random(m, 1, &mut rng);
            let v = Mat::<f64>::random(n, 1, &mut rng);
            u.scale(0.3f64.powi(k));
            let term = LowRank::new(u, v);
            dense.axpy(1.0, &term.to_dense());
            acc = acc.add(1.0, &term);
        }
        // Per-σ truncation drops σ_j ≤ tol/√L: with 0.3^k-decaying terms a
        // 1e-4 relative tolerance cuts the deepest terms while the error
        // stays within tol (the rule's aggregate guarantee).
        let tol = 1e-4 * dense.norm_fro();
        let mut rc = acc.clone();
        rc.recompress(tol);
        assert!(rc.rank() < 12, "rank {} not reduced", rc.rank());
        let mut d = rc.to_dense();
        d.axpy(-1.0, &dense);
        assert!(
            d.norm_fro() <= tol,
            "err {:.3e} vs tol {tol:.3e}",
            d.norm_fro()
        );
    }

    #[test]
    fn mul_dense_and_matvec() {
        let (lr, a) = rand_lowrank(10, 14, 3, 6);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let b = Mat::<f64>::random(14, 5, &mut rng);
        let mut c = Mat::<f64>::zeros(10, 5);
        lr.mul_dense(1.0, b.as_ref(), Op::NoTrans, 0.0, c.as_mut());
        let want = gemm_into(a.as_ref(), Op::NoTrans, b.as_ref(), Op::NoTrans);
        let mut d = c;
        d.axpy(-1.0, &want);
        assert!(d.norm_max() < 1e-11);

        let x: Vec<f64> = (0..14).map(|i| i as f64 * 0.1 - 0.7).collect();
        let mut y = vec![0.0; 10];
        lr.matvec(2.0, &x, 0.0, &mut y);
        let mut want = vec![0.0; 10];
        csolve_dense::matvec(2.0, a.as_ref(), Op::NoTrans, &x, 0.0, &mut want);
        for (g, w) in y.iter().zip(&want) {
            assert!((g - w).abs() < 1e-11);
        }
    }

    #[test]
    fn transpose_swaps_factors() {
        let (lr, a) = rand_lowrank(8, 13, 2, 8);
        let t = lr.transpose();
        let mut d = t.to_dense();
        d.axpy(-1.0, &a.transpose());
        assert!(d.norm_max() < 1e-12);
    }

    #[test]
    fn norm_fro_matches_dense() {
        let (lr, a) = rand_lowrank(9, 11, 4, 9);
        assert!((lr.norm_fro() - a.norm_fro()).abs() < 1e-10 * a.norm_fro());
        // complex case
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let u = Mat::<C64>::random(7, 3, &mut rng);
        let v = Mat::<C64>::random(6, 3, &mut rng);
        let lrc = LowRank::new(u, v);
        let ad = lrc.to_dense();
        assert!((lrc.norm_fro() - ad.norm_fro()).abs() < 1e-10 * ad.norm_fro());
    }

    #[test]
    fn rank_zero_operations() {
        let z = LowRank::<f64>::zeros(5, 6);
        assert_eq!(z.rank(), 0);
        assert_eq!(z.to_dense().norm_max(), 0.0);
        assert_eq!(z.norm_fro(), 0.0);
        let mut y = vec![1.0; 5];
        z.matvec(1.0, &[1.0; 6], 0.0, &mut y);
        assert!(y.iter().all(|&v| v == 0.0));
        let mut rc = z.clone();
        rc.recompress(1e-10);
        assert_eq!(rc.rank(), 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn seeded(m: usize, n: usize, r: usize, scale: f64, seed: u64) -> LowRank<f64> {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut u = Mat::<f64>::random(m, r, &mut rng);
            let v = Mat::<f64>::random(n, r, &mut rng);
            u.scale(scale);
            LowRank::new(u, v)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            /// `add_truncate` agrees with the dense oracle `X + α·Y` within
            /// `tol`, for arbitrary shapes and ranks including rank 0 and
            /// 1-row/1-column shapes.
            #[test]
            fn add_truncate_matches_dense_oracle(
                shape in (1usize..24, 1usize..24),
                ranks in (0usize..5, 0usize..5),
                alpha in -3.0f64..3.0,
                seed in 0u64..10_000,
            ) {
                let ((m, n), (r1, r2)) = (shape, ranks);
                let x = seeded(m, n, r1, 1.0, seed);
                let y = seeded(m, n, r2, 1.0, seed.wrapping_add(1));
                let mut want = x.to_dense();
                want.axpy(alpha, &y.to_dense());
                let tol = 1e-10 * (1.0 + want.norm_fro());
                let z = x.add_truncate(alpha, &y, tol);
                let mut d = z.to_dense();
                d.axpy(-1.0, &want);
                prop_assert!(
                    d.norm_fro() <= tol,
                    "err {:.3e} vs tol {tol:.3e} (m={m} n={n} r1={r1} r2={r2})",
                    d.norm_fro()
                );
                prop_assert!(z.rank() <= r1 + r2);
            }

            /// Recompression drops at most `tol` of Frobenius mass and is
            /// idempotent at the same tolerance.
            #[test]
            fn recompress_bounded_and_idempotent(
                shape in (1usize..20, 1usize..20),
                terms in 1usize..8,
                decay in 0.1f64..0.9,
                logtol in -10.0f64..-2.0,
                seed in 0u64..10_000,
            ) {
                let (m, n) = shape;
                let mut acc = LowRank::<f64>::zeros(m, n);
                for k in 0..terms {
                    let t = seeded(m, n, 1, decay.powi(k as i32), seed.wrapping_add(k as u64));
                    acc = acc.add(1.0, &t);
                }
                let dense = acc.to_dense();
                let tol = 10f64.powf(logtol) * (1.0 + dense.norm_fro());
                let mut rc = acc;
                rc.recompress(tol);
                let mut d = rc.to_dense();
                d.axpy(-1.0, &dense);
                prop_assert!(
                    d.norm_fro() <= tol,
                    "truncation err {:.3e} vs tol {tol:.3e}",
                    d.norm_fro()
                );
                let once_rank = rc.rank();
                let d_once = rc.to_dense();
                rc.recompress(tol);
                prop_assert_eq!(rc.rank(), once_rank);
                let mut d = rc.to_dense();
                d.axpy(-1.0, &d_once);
                prop_assert!(
                    d.norm_fro() <= 1e-11 * (1.0 + d_once.norm_fro()),
                    "second recompress moved the matrix by {:.3e}",
                    d.norm_fro()
                );
            }
        }
    }

    #[test]
    fn row_and_col_extraction() {
        let (lr, a) = rand_lowrank(10, 10, 3, 11);
        let rows = lr.rows(2..6);
        let mut d = rows.to_dense();
        d.axpy(-1.0, &a.submatrix(2..6, 0..10));
        assert!(d.norm_max() < 1e-12);
        let cols = lr.cols(1..4);
        let mut d = cols.to_dense();
        d.axpy(-1.0, &a.submatrix(0..10, 1..4));
        assert!(d.norm_max() < 1e-12);
    }

    #[test]
    fn recompress_is_idempotent() {
        // The per-σ truncation rule must make a second recompression at the
        // same tolerance a no-op: same rank and (numerically) the same
        // matrix. The old cumulative-tail rule failed this — each pass
        // started a fresh tail budget and kept eroding the spectrum.
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let (m, n) = (24, 20);
        let mut acc = LowRank::<f64>::zeros(m, n);
        for k in 0..10 {
            let mut u = Mat::<f64>::random(m, 1, &mut rng);
            let v = Mat::<f64>::random(n, 1, &mut rng);
            u.scale(0.4f64.powi(k));
            acc = acc.add(1.0, &LowRank::new(u, v));
        }
        let tol = 1e-5 * acc.norm_fro();
        let mut once = acc.clone();
        once.recompress(tol);
        let d_once = once.to_dense();
        let mut twice = once.clone();
        twice.recompress(tol);
        assert_eq!(
            twice.rank(),
            once.rank(),
            "second recompress at the same tol changed the rank"
        );
        let mut d = twice.to_dense();
        d.axpy(-1.0, &d_once);
        assert!(
            d.norm_fro() <= 1e-12 * d_once.norm_fro(),
            "second recompress moved the matrix by {:.3e}",
            d.norm_fro()
        );
    }

    #[test]
    fn recompress_rel_is_recompress_at_eps_times_the_norm() {
        fn check<T: Scalar>(seed: u64) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (m, n) = (28, 22);
            let mut acc = LowRank::<T>::zeros(m, n);
            for k in 0..12 {
                let mut u = Mat::<T>::random(m, 1, &mut rng);
                u.scale(T::from_f64(0.3f64.powi(k)));
                acc = acc.add(T::ONE, &LowRank::new(u, Mat::random(n, 1, &mut rng)));
            }
            let eps = T::Real::from_f64_real(1e-4);
            let mut abs = acc.clone();
            abs.recompress(eps * acc.norm_fro());
            let mut rel = acc.clone();
            rel.recompress_rel(eps);
            assert!(rel.rank() < 12, "rank {} not reduced", rel.rank());
            assert_eq!(rel.rank(), abs.rank());
            let mut d = rel.to_dense();
            d.axpy(-T::ONE, &abs.to_dense());
            assert!(d.norm_fro() <= T::Real::from_f64_real(1e-13) * acc.norm_fro());
            // Idempotent, like the absolute spelling.
            let once = rel.to_dense();
            rel.recompress_rel(eps);
            assert_eq!(rel.rank(), abs.rank());
            let mut d = rel.to_dense();
            d.axpy(-T::ONE, &once);
            assert!(d.norm_fro() <= T::Real::from_f64_real(1e-12) * once.norm_fro());
        }
        check::<f64>(35);
        check::<C64>(36);
    }

    #[test]
    fn recompress_rel_drops_a_formal_rank_without_mass() {
        // `P − P` as a formal sum, and factors that are zero outright: a
        // relative tolerance of `eps·0` must not keep either alive.
        let (lr, _) = rand_lowrank(14, 11, 3, 37);
        let mut cancelled = lr.add(-1.0, &lr);
        assert_eq!(cancelled.rank(), 6);
        cancelled.recompress_rel(1e-8);
        assert_eq!(cancelled.rank(), 0);
        let mut zero = LowRank::<f64>::new(Mat::zeros(14, 4), Mat::zeros(11, 4));
        zero.recompress_rel(1e-8);
        assert_eq!(zero.rank(), 0);
        assert_eq!((zero.nrows(), zero.ncols()), (14, 11));
    }

    #[test]
    fn recompress_error_within_tol_per_sigma() {
        // The per-σ rule's aggregate guarantee: ‖A − A_trunc‖_F ≤ tol.
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        let (m, n) = (30, 30);
        let mut acc = LowRank::<f64>::zeros(m, n);
        for k in 0..14 {
            let mut u = Mat::<f64>::random(m, 1, &mut rng);
            let v = Mat::<f64>::random(n, 1, &mut rng);
            u.scale(0.25f64.powi(k));
            acc = acc.add(1.0, &LowRank::new(u, v));
        }
        let dense = acc.to_dense();
        let tol = 1e-4 * dense.norm_fro();
        let mut rc = acc;
        rc.recompress(tol);
        let mut d = rc.to_dense();
        d.axpy(-1.0, &dense);
        assert!(
            d.norm_fro() <= tol,
            "err {:.3e} vs tol {tol:.3e}",
            d.norm_fro()
        );
    }

    #[test]
    fn add_with_rank_zero_operands() {
        let (lr, a) = rand_lowrank(9, 7, 3, 33);
        let z = LowRank::<f64>::zeros(9, 7);
        // rank-k + rank-0: unchanged (and no 0-column concat panels).
        let s = lr.add(2.0, &z);
        assert_eq!(s.rank(), 3);
        let mut d = s.to_dense();
        d.axpy(-1.0, &a);
        assert_eq!(d.norm_max(), 0.0);
        // rank-0 + α·rank-k: the scaled operand.
        let s = z.add(-2.0, &lr);
        assert_eq!(s.rank(), 3);
        let mut d = s.to_dense();
        let mut want = a.clone();
        want.scale(-2.0);
        d.axpy(-1.0, &want);
        assert!(d.norm_max() < 1e-14);
        // rank-0 + rank-0 stays rank 0 through add_truncate (no divide by
        // zero in the rounding step).
        let s = z.add_truncate(1.0, &LowRank::zeros(9, 7), 1e-10);
        assert_eq!(s.rank(), 0);
    }

    #[test]
    fn add_truncate_with_rank_zero_operand_matches_plain_truncate() {
        let (lr, a) = rand_lowrank(11, 8, 4, 34);
        let z = LowRank::<f64>::zeros(11, 8);
        let tol = 1e-9 * a.norm_fro();
        let s = z.add_truncate(1.0, &lr, tol);
        let mut d = s.to_dense();
        d.axpy(-1.0, &a);
        assert!(d.norm_fro() <= tol.max(1e-12));
        assert!(s.rank() <= 4);
    }

    #[test]
    fn recompress_empty_shapes_normalize_to_rank_zero() {
        // A formal rank on an empty shape (0 rows or 0 cols) must collapse
        // to rank 0 rather than running QR on 0×r panels.
        for (m, n) in [(0usize, 6usize), (6, 0), (0, 0)] {
            let mut lr = LowRank::<f64>::new(Mat::zeros(m, 3), Mat::zeros(n, 3));
            lr.recompress(1e-10);
            assert_eq!((lr.nrows(), lr.ncols(), lr.rank()), (m, n, 0));
        }
    }

    #[test]
    fn complex_recompression() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let u = Mat::<C64>::random(14, 3, &mut rng);
        let v = Mat::<C64>::random(12, 3, &mut rng);
        let lr = LowRank::new(u, v);
        let a = lr.to_dense();
        let doubled = lr.add(C64::new(0.5, 0.5), &lr);
        let mut rc = doubled;
        rc.recompress(1e-10 * a.norm_fro());
        assert!(rc.rank() <= 3);
        let mut want = a.clone();
        want.scale(C64::new(1.5, 0.5));
        let mut d = rc.to_dense();
        d.axpy(-C64::ONE, &want);
        assert!(d.norm_fro() < 1e-8 * a.norm_fro());
    }
}
