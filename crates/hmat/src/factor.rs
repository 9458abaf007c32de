//! H-LU factorization and triangular solves.
//!
//! The recursion is the classical block LU on the 2×2 hierarchy:
//! factor `A₁₁`, solve `A₁₂ ← L₁₁⁻¹·A₁₂` and `A₂₁ ← A₂₁·U₁₁⁻¹`, update
//! `A₂₂ ← A₂₂ − A₂₁·A₁₂` with ε-recompression, recurse on `A₂₂`. Dense
//! diagonal leaves are factored with partially pivoted LU; the leaf
//! permutations stay *local* to the leaf row range (they only ever permute
//! rows of sibling blocks spanning exactly that range), so the hierarchical
//! structure is untouched.
//!
//! LU is used for symmetric matrices too: this costs a factor ≤ 2 in flops
//! and memory against a symmetric H-LDLᵀ but keeps the hierarchical solver
//! applicable to the paper's complex non-symmetric industrial systems with a
//! single code path (substitution documented in DESIGN.md).

use csolve_common::{ByteSized, Error, Result, Scalar, ScopeTracer, SpanKind};
use csolve_dense::{
    apply_row_swaps_fwd, lu_in_place, trsm_left, trsm_right, Diag, Mat, MatMut, Op, Tri,
};

use crate::hmatrix::{h_gemm, join_branches, HKind, HMatrix};

/// A factored H-matrix (`H ≈ L·U` with leaf-local pivoting).
pub struct HLu<T: Scalar> {
    pub(crate) h: HMatrix<T>,
}

impl<T: Scalar> ByteSized for HLu<T> {
    fn byte_size(&self) -> usize {
        self.h.byte_size()
    }
}

impl<T: Scalar> HLu<T> {
    /// Factor `h` in place at relative recompression tolerance `eps`.
    pub fn factor(mut h: HMatrix<T>, eps: T::Real) -> Result<Self> {
        #[cfg(feature = "fault-inject")]
        if crate::fault::take_factor_failure() {
            return Err(Error::CompressionFailure {
                wanted_tol: 0.0,
                achieved: f64::NAN,
            });
        }
        h_lu_rec(&mut h, eps)?;
        Ok(Self { h })
    }

    /// [`HLu::factor`] with the factorization recorded as an `hlu_factor`
    /// span into `tr` (bytes = the factored matrix's storage).
    pub fn factor_traced(h: HMatrix<T>, eps: T::Real, tr: ScopeTracer<'_>) -> Result<Self> {
        let mut span = tr.span(SpanKind::HluFactor);
        let f = Self::factor(h, eps)?;
        span.add_bytes(f.byte_size());
        span.finish();
        Ok(f)
    }

    /// Solve `H·X = B` in place for a dense RHS panel (cluster order).
    pub fn solve_in_place(&self, mut b: MatMut<'_, T>) {
        assert_eq!(b.nrows(), self.h.nrows());
        solve_lower_dense(&self.h, b.rb_mut());
        solve_upper_dense(&self.h, b);
    }

    /// Structure statistics of the factored matrix.
    pub fn stats(&self) -> crate::hmatrix::HStats {
        self.h.stats()
    }
}

fn h_lu_rec<T: Scalar>(h: &mut HMatrix<T>, eps: T::Real) -> Result<()> {
    match &mut h.kind {
        HKind::Dense(_) => {
            let HKind::Dense(m) = std::mem::replace(&mut h.kind, HKind::Dense(Mat::zeros(0, 0)))
            else {
                unreachable!()
            };
            let f = lu_in_place(m)?;
            h.kind = HKind::DenseLu(f);
            Ok(())
        }
        HKind::LowRank(_) => Err(Error::InvalidConfig(
            "cannot LU-factor a low-rank diagonal block (singular by construction)".into(),
        )),
        HKind::DenseLu(_) => Err(Error::InvalidConfig("block already factored".into())),
        HKind::Hier(ch) => {
            let [a11, a21, a12, a22] = &mut **ch;
            h_lu_rec(a11, eps)?;
            let a11 = &*a11;
            join_branches(
                a11.nrows(),
                || solve_lower_h(a11, a12, eps),
                || solve_upper_right_h(a11, a21, eps),
            )?;
            h_gemm(-T::ONE, a21, a12, a22, eps)?;
            h_lu_rec(a22, eps)
        }
    }
}

/// `B ← L⁻¹·P·B` where `l` is a factored diagonal block. The two block
/// columns of a subdivided `B` are independent chains.
fn solve_lower_h<T: Scalar>(l: &HMatrix<T>, b: &mut HMatrix<T>, eps: T::Real) -> Result<()> {
    match (&l.kind, &mut b.kind) {
        (HKind::DenseLu(f), HKind::Dense(bm)) => {
            apply_row_swaps_fwd(&f.ipiv, bm.as_mut());
            trsm_left(
                Tri::Lower,
                Op::NoTrans,
                Diag::Unit,
                T::ONE,
                f.lu.as_ref(),
                bm.as_mut(),
            );
        }
        (HKind::DenseLu(f), HKind::LowRank(lr)) => {
            apply_row_swaps_fwd(&f.ipiv, lr.u.as_mut());
            trsm_left(
                Tri::Lower,
                Op::NoTrans,
                Diag::Unit,
                T::ONE,
                f.lu.as_ref(),
                lr.u.as_mut(),
            );
        }
        (HKind::Hier(_), HKind::Dense(bm)) => {
            solve_lower_dense(l, bm.as_mut());
        }
        (HKind::Hier(_), HKind::LowRank(lr)) => {
            solve_lower_dense(l, lr.u.as_mut());
        }
        (HKind::Hier(lc), HKind::Hier(bc)) => {
            let [l11, l21, _l12, l22] = &**lc;
            let [b11, b21, b12, b22] = &mut **bc;
            let column = |top: &mut HMatrix<T>, bot: &mut HMatrix<T>| {
                solve_lower_h(l11, top, eps)?;
                h_gemm(-T::ONE, l21, top, bot, eps)?;
                solve_lower_h(l22, bot, eps)
            };
            join_branches(l.nrows(), || column(b11, b21), || column(b12, b22))?;
        }
        _ => panic!("solve_lower_h: invalid operand kinds"),
    }
    Ok(())
}

/// `B ← B·U⁻¹` where `u` is a factored diagonal block. The two block rows
/// of a subdivided `B` are independent chains.
fn solve_upper_right_h<T: Scalar>(u: &HMatrix<T>, b: &mut HMatrix<T>, eps: T::Real) -> Result<()> {
    match (&u.kind, &mut b.kind) {
        (HKind::DenseLu(f), HKind::Dense(bm)) => {
            trsm_right(
                Tri::Upper,
                Op::NoTrans,
                Diag::NonUnit,
                T::ONE,
                f.lu.as_ref(),
                bm.as_mut(),
            );
        }
        (HKind::DenseLu(f), HKind::LowRank(lr)) => {
            // (Bu·Bvᵀ)·U⁻¹ = Bu·(U⁻ᵀ·Bv)ᵀ : solve Uᵀ·Y = Bv.
            trsm_left(
                Tri::Upper,
                Op::Trans,
                Diag::NonUnit,
                T::ONE,
                f.lu.as_ref(),
                lr.v.as_mut(),
            );
        }
        (HKind::Hier(_), HKind::Dense(bm)) => {
            solve_upper_right_dense(u, bm.as_mut());
        }
        (HKind::Hier(_), HKind::LowRank(lr)) => {
            solve_upper_t_dense(u, lr.v.as_mut());
        }
        (HKind::Hier(uc), HKind::Hier(bc)) => {
            let [u11, _u21, u12, u22] = &**uc;
            let [b11, b21, b12, b22] = &mut **bc;
            let row = |left: &mut HMatrix<T>, right: &mut HMatrix<T>| {
                solve_upper_right_h(u11, left, eps)?;
                h_gemm(-T::ONE, left, u12, right, eps)?;
                solve_upper_right_h(u22, right, eps)
            };
            join_branches(u.nrows(), || row(b11, b12), || row(b21, b22))?;
        }
        _ => panic!("solve_upper_right_h: invalid operand kinds"),
    }
    Ok(())
}

/// Forward solve `panel ← L⁻¹·P·panel` on a dense panel.
pub(crate) fn solve_lower_dense<T: Scalar>(l: &HMatrix<T>, mut panel: MatMut<'_, T>) {
    match &l.kind {
        HKind::DenseLu(f) => {
            apply_row_swaps_fwd(&f.ipiv, panel.rb_mut());
            trsm_left(
                Tri::Lower,
                Op::NoTrans,
                Diag::Unit,
                T::ONE,
                f.lu.as_ref(),
                panel,
            );
        }
        HKind::Hier(ch) => {
            let [l11, l21, _l12, l22] = &**ch;
            let rs = l11.nrows();
            let (mut top, mut bot) = panel.split_at_row(rs);
            solve_lower_dense(l11, top.rb_mut());
            l21.mul_dense(-T::ONE, top.rb(), T::ONE, bot.rb_mut());
            solve_lower_dense(l22, bot);
        }
        _ => panic!("solve_lower_dense: block not factored"),
    }
}

/// Backward solve `panel ← U⁻¹·panel` on a dense panel.
pub(crate) fn solve_upper_dense<T: Scalar>(u: &HMatrix<T>, panel: MatMut<'_, T>) {
    match &u.kind {
        HKind::DenseLu(f) => {
            trsm_left(
                Tri::Upper,
                Op::NoTrans,
                Diag::NonUnit,
                T::ONE,
                f.lu.as_ref(),
                panel,
            );
        }
        HKind::Hier(ch) => {
            let [u11, _u21, u12, u22] = &**ch;
            let rs = u11.nrows();
            let (mut top, mut bot) = panel.split_at_row(rs);
            solve_upper_dense(u22, bot.rb_mut());
            u12.mul_dense(-T::ONE, bot.rb(), T::ONE, top.rb_mut());
            solve_upper_dense(u11, top);
        }
        _ => panic!("solve_upper_dense: block not factored"),
    }
}

/// Forward solve `panel ← U⁻ᵀ·panel` (plain transpose) on a dense panel.
fn solve_upper_t_dense<T: Scalar>(u: &HMatrix<T>, panel: MatMut<'_, T>) {
    match &u.kind {
        HKind::DenseLu(f) => {
            trsm_left(
                Tri::Upper,
                Op::Trans,
                Diag::NonUnit,
                T::ONE,
                f.lu.as_ref(),
                panel,
            );
        }
        HKind::Hier(ch) => {
            let [u11, _u21, u12, u22] = &**ch;
            let rs = u11.nrows();
            let (mut top, mut bot) = panel.split_at_row(rs);
            solve_upper_t_dense(u11, top.rb_mut());
            u12.mul_dense_t(-T::ONE, top.rb(), T::ONE, bot.rb_mut());
            solve_upper_t_dense(u22, bot);
        }
        _ => panic!("solve_upper_t_dense: block not factored"),
    }
}

/// Right solve `panel ← panel·U⁻¹` on a dense panel.
fn solve_upper_right_dense<T: Scalar>(u: &HMatrix<T>, panel: MatMut<'_, T>) {
    match &u.kind {
        HKind::DenseLu(f) => {
            trsm_right(
                Tri::Upper,
                Op::NoTrans,
                Diag::NonUnit,
                T::ONE,
                f.lu.as_ref(),
                panel,
            );
        }
        HKind::Hier(ch) => {
            let [u11, _u21, u12, u22] = &**ch;
            let cs = u11.ncols();
            let (mut left, mut right) = panel.split_at_col(cs);
            solve_upper_right_dense(u11, left.rb_mut());
            u12.dense_mul_h(-T::ONE, left.rb(), T::ONE, right.rb_mut());
            solve_upper_right_dense(u22, right);
        }
        _ => panic!("solve_upper_right_dense: block not factored"),
    }
}
