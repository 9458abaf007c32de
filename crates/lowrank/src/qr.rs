//! Householder QR and column-pivoted (rank-revealing) QR.
//!
//! The reflectors use the unitary form `H = I − τ·v·vᴴ` with `v₀ = 1` and a
//! *real* τ, valid for real and complex scalars alike. The column-pivoted
//! variant tracks remaining column norms and stops early once the largest
//! remaining norm drops below the requested tolerance — this is the
//! rank-revealing engine behind dense→low-rank compression.

use csolve_common::{RealScalar, Scalar};
use csolve_dense::{Mat, Op};

/// Generate a Householder reflector for the vector `x` (length ≥ 1) such
/// that `H·x = β·e₁`. On return `x[0] = β` and `x[1..]` holds the reflector
/// tail (with implicit `v₀ = 1`). Returns real `τ` (zero when `x` is already
/// collinear with `e₁` and no reflection is needed).
pub fn make_householder<T: Scalar>(x: &mut [T]) -> T::Real {
    let m = x.len();
    if m == 0 {
        return T::Real::RZERO;
    }
    let x0 = x[0];
    let tail_norm2: T::Real = x[1..].iter().map(|v| v.abs2()).sum();
    if tail_norm2 == T::Real::RZERO {
        // Nothing to annihilate. Keep β = x₀, τ = 0 (identity reflector).
        return T::Real::RZERO;
    }
    let normx = (x0.abs2() + tail_norm2).rsqrt_val();
    let phase = if x0 == T::ZERO {
        T::ONE
    } else {
        x0 * T::from_real(x0.abs()).recip() // x₀ / |x₀|
    };
    let beta = -(phase * T::from_real(normx));
    let v0 = x0 - beta; // = phase·(|x₀| + ‖x‖) ⇒ never zero here
    let v0_inv = v0.recip();
    for v in x[1..].iter_mut() {
        *v *= v0_inv;
    }
    // τ = (|x₀| + ‖x‖) / ‖x‖ after the v₀ = 1 rescaling.
    let tau = (x0.abs() + normx) / normx;
    x[0] = beta;
    tau
}

/// Apply `H = I − τ·v·vᴴ` (with `v₀ = 1`, tail `v_tail`) to the column
/// segment `y` of the same length (`y.len() == v_tail.len() + 1`).
#[inline]
pub fn apply_householder<T: Scalar>(v_tail: &[T], tau: T::Real, y: &mut [T]) {
    if tau == T::Real::RZERO {
        return;
    }
    debug_assert_eq!(y.len(), v_tail.len() + 1);
    // w = vᴴ y = y₀ + Σ conj(v_i) y_i
    let mut w = y[0];
    for (vi, yi) in v_tail.iter().zip(&y[1..]) {
        w += vi.conj() * *yi;
    }
    let s = T::from_real(tau) * w;
    y[0] -= s;
    for (vi, yi) in v_tail.iter().zip(y[1..].iter_mut()) {
        *yi -= s * *vi;
    }
}

/// Columns [`apply_householder_lanes`] advances together.
const LANES: usize = 4;

/// [`apply_householder`] on [`LANES`] column segments at once. Each column
/// sees exactly the operations of the one-column routine in the same order;
/// the dot products merely advance in lock-step, so their (serially
/// dependent) accumulations overlap in the pipeline instead of queueing.
fn apply_householder_lanes<T: Scalar>(v_tail: &[T], tau: T::Real, y: [&mut [T]; LANES]) {
    if tau == T::Real::RZERO {
        return;
    }
    let y = y.map(|col| &mut col[..v_tail.len() + 1]);
    let mut w: [T; LANES] = std::array::from_fn(|k| y[k][0]);
    for (i, vi) in v_tail.iter().enumerate() {
        let vc = vi.conj();
        for k in 0..LANES {
            w[k] += vc * y[k][i + 1];
        }
    }
    let s = w.map(|w| T::from_real(tau) * w);
    for k in 0..LANES {
        y[k][0] -= s[k];
    }
    for (i, &vi) in v_tail.iter().enumerate() {
        for k in 0..LANES {
            y[k][i + 1] -= s[k] * vi;
        }
    }
}

/// Apply the reflector `(v_tail, τ)` acting on rows `j..` to every column of
/// `cols` (contiguous `m`-row columns), [`LANES`] columns per sweep.
fn apply_householder_cols<T: Scalar>(
    v_tail: &[T],
    tau: T::Real,
    cols: &mut [T],
    m: usize,
    j: usize,
) {
    let mut blocks = cols.chunks_exact_mut(LANES * m);
    for block in &mut blocks {
        let mut cols = block.chunks_exact_mut(m);
        let y = std::array::from_fn(|_| &mut cols.next().expect("LANES columns")[j..]);
        apply_householder_lanes(v_tail, tau, y);
    }
    for ycol in blocks.into_remainder().chunks_exact_mut(m) {
        apply_householder(v_tail, tau, &mut ycol[j..]);
    }
}

/// Packed Householder QR factors: `R` in the upper triangle, reflector tails
/// below the diagonal.
pub struct Qr<T: Scalar> {
    /// Packed storage: `R` above the diagonal, reflector tails below.
    pub a: Mat<T>,
    /// Householder coefficients, one per reflector.
    pub taus: Vec<T::Real>,
}

/// Unpivoted Householder QR of `a` (m×n, any shape).
pub fn qr_in_place<T: Scalar>(mut a: Mat<T>) -> Qr<T> {
    let m = a.nrows();
    let n = a.ncols();
    let k = m.min(n);
    let mut taus = Vec::with_capacity(k);
    for j in 0..k {
        // The reflector lives in column j, updates touch columns j+1..n.
        let (head, trailing) = a.data_mut().split_at_mut((j + 1) * m);
        let pivot = &mut head[j * m + j..];
        let tau = make_householder(pivot);
        taus.push(tau);
        apply_householder_cols(&pivot[1..], tau, trailing, m, j);
    }
    Qr { a, taus }
}

impl<T: Scalar> Qr<T> {
    /// Explicit thin `Q` (m×k) with `k = min(m, n)` columns.
    pub fn q_thin(&self) -> Mat<T> {
        self.q_thin_k(self.taus.len())
    }

    /// Explicit `Q` restricted to its first `k` columns.
    pub fn q_thin_k(&self, k: usize) -> Mat<T> {
        let m = self.a.nrows();
        let kk = k.min(self.taus.len());
        let mut q = Mat::<T>::zeros(m, kk);
        for j in 0..kk {
            q[(j, j)] = T::ONE;
        }
        // Reflectors past the k-th leave `[I_k; 0]` alone.
        self.apply_first_reflectors_rev(kk, &mut q);
        q
    }

    /// `b ← H₁·H₂·…·H_k·b`: the first `k` reflectors, last one first.
    fn apply_first_reflectors_rev(&self, k: usize, b: &mut Mat<T>) {
        let m = self.a.nrows();
        assert_eq!(b.nrows(), m);
        for j in (0..k).rev() {
            let v_tail = &self.a.col(j)[j + 1..];
            apply_householder_cols(v_tail, self.taus[j], b.data_mut(), m, j);
        }
    }

    /// Apply `Q` to a dense block in place (`b` has m rows): with
    /// `b = [X; 0]` this is `Q_thin·X` without forming `Q_thin`.
    pub fn apply_q(&self, b: &mut Mat<T>) {
        self.apply_first_reflectors_rev(self.taus.len(), b);
    }

    /// `R` as an owned upper-triangular k×n matrix.
    pub fn r(&self) -> Mat<T> {
        let n = self.a.ncols();
        let k = self.taus.len();
        Mat::from_fn(k, n, |i, j| if i <= j { self.a[(i, j)] } else { T::ZERO })
    }

    /// Apply `Qᴴ` to a dense block in place (`b` has m rows).
    pub fn apply_qh(&self, b: &mut Mat<T>) {
        let m = self.a.nrows();
        assert_eq!(b.nrows(), m);
        for (j, &tau) in self.taus.iter().enumerate() {
            let v_tail = &self.a.col(j)[j + 1..];
            apply_householder_cols(v_tail, tau, b.data_mut(), m, j);
        }
    }
}

/// Truncated column-pivoted QR: `A·P ≈ Q[:, :r]·R[:r, :]` with `r` chosen so
/// the neglected part is below `tol` (absolute, measured on the pivot column
/// norms) — pass `tol = eps · ‖A‖` for a relative criterion.
pub struct ColPivQr<T: Scalar> {
    /// The underlying (permuted) Householder factorization.
    pub qr: Qr<T>,
    /// `perm[j]` = original column index now in position `j`.
    pub perm: Vec<usize>,
    /// Numerical rank `r` detected at the tolerance.
    pub rank: usize,
}

/// Column-pivoted Householder QR, truncated at absolute tolerance `tol` and
/// rank cap `max_rank`. A negative `tol` never truncates: the factorization
/// runs to `min(m, n, max_rank)` columns, exactly-zero pivots included
/// (they get an identity reflector).
pub fn col_piv_qr<T: Scalar>(mut a: Mat<T>, tol: T::Real, max_rank: usize) -> ColPivQr<T> {
    let m = a.nrows();
    let n = a.ncols();
    let kmax = m.min(n).min(max_rank);
    let mut perm: Vec<usize> = (0..n).collect();
    // Squared column norms, downdated as elimination proceeds.
    let mut norms2: Vec<T::Real> = (0..n)
        .map(|j| a.col(j).iter().map(|v| v.abs2()).sum())
        .collect();
    let mut taus: Vec<T::Real> = Vec::with_capacity(kmax);
    let mut rank = 0;

    for j in 0..kmax {
        // Pivot: remaining column with the largest norm.
        let (p, &pn2) = norms2[j..]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, v)| (i + j, v))
            .unwrap();
        if pn2.rsqrt_val() <= tol {
            break;
        }
        if p != j {
            // Swap columns j and p (full columns) + bookkeeping.
            let (lo, hi) = a.data_mut().split_at_mut(p * m);
            lo[j * m..(j + 1) * m].swap_with_slice(&mut hi[..m]);
            norms2.swap(j, p);
            perm.swap(j, p);
        }
        // The reflector lives in column j, updates touch columns j+1..n.
        let (head, trailing) = a.data_mut().split_at_mut((j + 1) * m);
        let pivot = &mut head[j * m + j..];
        // Recompute the pivot norm exactly to fight downdating drift.
        let exact2: T::Real = pivot.iter().map(|v| v.abs2()).sum();
        if exact2.rsqrt_val() <= tol {
            break;
        }
        let tau = make_householder(pivot);
        taus.push(tau);
        rank += 1;
        let v_tail = &pivot[1..];
        apply_householder_cols(v_tail, tau, trailing, m, j);
        // Downdate the remaining norms by the newly created row of R.
        for (ycol, norm2) in trailing.chunks_exact(m).zip(&mut norms2[j + 1..]) {
            *norm2 = (*norm2 - ycol[j].abs2()).rmax(T::Real::RZERO);
        }
    }

    ColPivQr {
        qr: Qr { a, taus },
        perm,
        rank,
    }
}

impl<T: Scalar> ColPivQr<T> {
    /// The truncated factors as `(U, V)` with `A ≈ U·Vᵀ`
    /// (`U` m×r = thin Q, `V` n×r with `V[perm[j], :] = R[:, j]ᵀ`).
    pub fn factors(&self) -> (Mat<T>, Mat<T>) {
        let n = self.qr.a.ncols();
        let r = self.rank;
        let u = self.qr.q_thin_k(r);
        let mut v = Mat::<T>::zeros(n, r);
        for j in 0..n {
            let orig = self.perm[j];
            for i in 0..r.min(j + 1) {
                v[(orig, i)] = self.qr.a[(i, j)];
            }
        }
        (u, v)
    }
}

/// Reconstruction helper used by tests: `U·Vᵀ`.
pub fn uv_to_dense<T: Scalar>(u: &Mat<T>, v: &Mat<T>) -> Mat<T> {
    csolve_dense::gemm_into(u.as_ref(), Op::NoTrans, v.as_ref(), Op::Trans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csolve_common::C64;
    use csolve_dense::gemm_into;
    use rand::SeedableRng;

    fn assert_orthonormal<T: Scalar>(q: &Mat<T>, tol: f64) {
        let g = gemm_into(q.as_ref(), Op::ConjTrans, q.as_ref(), Op::NoTrans);
        for i in 0..g.nrows() {
            for j in 0..g.ncols() {
                let want = if i == j { 1.0 } else { 0.0 };
                let d = (g[(i, j)] - T::from_f64(want)).abs().to_f64();
                assert!(d < tol, "QᴴQ[{i},{j}] off by {d:.3e}");
            }
        }
    }

    #[test]
    fn qr_reconstructs_real() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for &(m, n) in &[(8usize, 8usize), (12, 5), (5, 12), (1, 1), (30, 17)] {
            let a = Mat::<f64>::random(m, n, &mut rng);
            let f = qr_in_place(a.clone());
            let q = f.q_thin();
            assert_orthonormal(&q, 1e-12);
            let qr = gemm_into(q.as_ref(), Op::NoTrans, f.r().as_ref(), Op::NoTrans);
            let mut d = qr;
            d.axpy(-1.0, &a);
            assert!(d.norm_max() < 1e-12, "({m},{n}): {:.3e}", d.norm_max());
        }
    }

    #[test]
    fn qr_reconstructs_complex() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let a = Mat::<C64>::random(10, 6, &mut rng);
        let f = qr_in_place(a.clone());
        let q = f.q_thin();
        assert_orthonormal(&q, 1e-12);
        let qr = gemm_into(q.as_ref(), Op::NoTrans, f.r().as_ref(), Op::NoTrans);
        let mut d = qr;
        d.axpy(-C64::ONE, &a);
        assert!(d.norm_max() < 1e-12);
    }

    #[test]
    fn qr_handles_zero_and_collinear_columns() {
        let mut a = Mat::<f64>::zeros(5, 3);
        for i in 0..5 {
            a[(i, 0)] = 1.0 + i as f64;
            a[(i, 1)] = 2.0 * (1.0 + i as f64); // collinear with col 0
        }
        let f = qr_in_place(a.clone());
        let q = f.q_thin();
        let qr = gemm_into(q.as_ref(), Op::NoTrans, f.r().as_ref(), Op::NoTrans);
        let mut d = qr;
        d.axpy(-1.0, &a);
        assert!(d.norm_max() < 1e-12);
    }

    #[test]
    fn apply_qh_matches_explicit() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a = Mat::<f64>::random(9, 4, &mut rng);
        let b = Mat::<f64>::random(9, 3, &mut rng);
        let f = qr_in_place(a);
        let mut got = b.clone();
        f.apply_qh(&mut got);
        // Explicit: build full Q via thin trick on identity.
        let mut eye = Mat::<f64>::identity(9);
        // Apply Qᴴ to identity to get Qᴴ; then Qᴴ·B.
        f.apply_qh(&mut eye);
        let want = gemm_into(eye.as_ref(), Op::NoTrans, b.as_ref(), Op::NoTrans);
        let mut d = got;
        d.axpy(-1.0, &want);
        assert!(d.norm_max() < 1e-12);
    }

    #[test]
    fn apply_q_matches_multiplication_by_q_thin() {
        fn check<T: Scalar>(m: usize, n: usize, cols: usize, seed: u64) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let f = qr_in_place(Mat::<T>::random(m, n, &mut rng));
            let k = m.min(n);
            let x = Mat::<T>::random(k, cols, &mut rng);
            // Q_thin·X = Q·[X; 0].
            let mut got = Mat::<T>::zeros(m, cols);
            for j in 0..cols {
                got.col_mut(j)[..k].copy_from_slice(x.col(j));
            }
            f.apply_q(&mut got);
            let want = gemm_into(f.q_thin().as_ref(), Op::NoTrans, x.as_ref(), Op::NoTrans);
            let mut d = got.clone();
            d.axpy(-T::ONE, &want);
            assert!(
                d.norm_max().to_f64() < 1e-13,
                "({m},{n})x{cols}: {:.3e}",
                d.norm_max().to_f64()
            );
            // …and Qᴴ undoes it on the range of Q.
            f.apply_qh(&mut got);
            for j in 0..cols {
                for i in 0..m {
                    let want = if i < k { x[(i, j)] } else { T::ZERO };
                    assert!((got[(i, j)] - want).abs().to_f64() < 1e-13);
                }
            }
        }
        // Column counts on both sides of the four-lane sweep.
        for (m, n, cols) in [
            (30, 19, 9),
            (19, 30, 4),
            (12, 12, 1),
            (40, 6, 13),
            (5, 5, 0),
        ] {
            check::<f64>(m, n, cols, 11);
            check::<C64>(m, n, cols, 12);
        }
    }

    #[test]
    fn rrqr_exact_low_rank_detected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let r_true = 4;
        let x = Mat::<f64>::random(20, r_true, &mut rng);
        let y = Mat::<f64>::random(15, r_true, &mut rng);
        let a = gemm_into(x.as_ref(), Op::NoTrans, y.as_ref(), Op::Trans);
        let f = col_piv_qr(a.clone(), 1e-10 * a.norm_fro(), usize::MAX);
        assert_eq!(f.rank, r_true);
        let (u, v) = f.factors();
        let back = uv_to_dense(&u, &v);
        let mut d = back;
        d.axpy(-1.0, &a);
        assert!(d.norm_max() < 1e-9, "{:.3e}", d.norm_max());
    }

    #[test]
    fn rrqr_tolerance_truncation_error_bounded() {
        // Matrix with geometrically decaying singular values.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let n = 24;
        let qa = qr_in_place(Mat::<f64>::random(n, n, &mut rng)).q_thin();
        let qb = qr_in_place(Mat::<f64>::random(n, n, &mut rng)).q_thin();
        let mut s = Mat::<f64>::zeros(n, n);
        for i in 0..n {
            s[(i, i)] = 0.5f64.powi(i as i32);
        }
        let a = gemm_into(
            gemm_into(qa.as_ref(), Op::NoTrans, s.as_ref(), Op::NoTrans).as_ref(),
            Op::NoTrans,
            qb.as_ref(),
            Op::Trans,
        );
        let tol = 1e-6;
        let f = col_piv_qr(a.clone(), tol, usize::MAX);
        assert!(f.rank < n, "should truncate, got full rank");
        let (u, v) = f.factors();
        let back = uv_to_dense(&u, &v);
        let mut d = back;
        d.axpy(-1.0, &a);
        // RRQR guarantees within a modest factor of the tolerance.
        assert!(
            d.norm_fro() < 50.0 * tol,
            "truncation error {:.3e}",
            d.norm_fro()
        );
    }

    #[test]
    fn rrqr_rank_cap_respected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let a = Mat::<f64>::random(16, 16, &mut rng);
        let f = col_piv_qr(a, 0.0, 5);
        assert_eq!(f.rank, 5);
        let (u, v) = f.factors();
        assert_eq!(u.ncols(), 5);
        assert_eq!(v.ncols(), 5);
    }

    #[test]
    fn rrqr_zero_matrix_rank_zero() {
        let a = Mat::<f64>::zeros(7, 7);
        let f = col_piv_qr(a, 1e-12, usize::MAX);
        assert_eq!(f.rank, 0);
    }

    #[test]
    fn rrqr_complex() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let x = Mat::<C64>::random(12, 3, &mut rng);
        let y = Mat::<C64>::random(10, 3, &mut rng);
        let a = gemm_into(x.as_ref(), Op::NoTrans, y.as_ref(), Op::Trans);
        let f = col_piv_qr(a.clone(), 1e-10 * a.norm_fro(), usize::MAX);
        assert_eq!(f.rank, 3);
        let (u, v) = f.factors();
        let back = uv_to_dense(&u, &v);
        let mut d = back;
        d.axpy(-C64::ONE, &a);
        assert!(d.norm_max() < 1e-9);
    }
}
