//! H-LU and H-LDLᵀ factorization and triangular solves.
//!
//! The recursion is the classical block elimination on the 2×2 hierarchy,
//! one recursion for both factor kinds. H-LU: factor `A₁₁`, solve
//! `A₁₂ ← L₁₁⁻¹·A₁₂` and `A₂₁ ← A₂₁·U₁₁⁻¹`, update `A₂₂ ← A₂₂ − A₂₁·A₁₂` with
//! ε-recompression, recurse on `A₂₂`. Dense diagonal leaves are factored with
//! partially pivoted LU; the leaf permutations stay *local* to the leaf row
//! range (they only ever permute rows of sibling blocks spanning exactly that
//! range), so the hierarchical structure is untouched.
//!
//! A half-stored symmetric matrix (a mirror in every diagonal node's `a12`,
//! see [`crate::hmatrix`]) is factored as H-LDLᵀ with the plain transpose,
//! so complex symmetric matrices qualify: factor `A₁₁ = L₁₁·D₁₁·L₁₁ᵀ`, form
//! `U₁₂ = L₁₁⁻¹·A₂₁ᵀ` on a transposed copy of `A₂₁`, store
//! `L₂₁ = U₁₂ᵀ·D₁₁⁻¹` in `A₂₁`'s slot, update `A₂₂ ← A₂₂ − L₂₁·U₁₂` into its
//! stored blocks only, drop `U₁₂` and recurse; dense diagonal leaves are
//! factored with unpivoted LDLᵀ (their lower triangle). There is no
//! right-hand solve and half the `h_gemm` targets of H-LU, and the factors
//! take the half storage. Unsymmetric matrices (full storage) take H-LU.

use csolve_common::{ByteSized, Error, Result, Scalar, ScopeTracer, SpanKind};
use csolve_dense::lane::{self, LaneBuf, LaneShape, Rows, Update::Sub};
use csolve_dense::{
    apply_row_swaps_fwd, ldlt_in_place, lu_in_place, trsm_left, trsm_right, Diag, Mat, MatMut, Op,
    Tri,
};

use crate::hmatrix::{h_gemm, join_branches, HKind, HMatrix};

/// A factored H-matrix: `H ≈ L·U` with leaf-local pivoting, or `L·D·Lᵀ` for
/// a half-stored symmetric one.
pub struct HLu<T: Scalar> {
    pub(crate) h: HMatrix<T>,
}

impl<T: Scalar> ByteSized for HLu<T> {
    fn byte_size(&self) -> usize {
        self.h.byte_size()
    }
}

impl<T: Scalar> HLu<T> {
    /// Factor `h` in place at relative recompression tolerance `eps`: H-LDLᵀ
    /// when `h` is half-stored, H-LU otherwise.
    pub fn factor(mut h: HMatrix<T>, eps: T::Real) -> Result<Self> {
        #[cfg(feature = "fault-inject")]
        if crate::fault::take_factor_failure() {
            return Err(Error::CompressionFailure {
                wanted_tol: 0.0,
                achieved: f64::NAN,
            });
        }
        factor_rec(&mut h, false, eps)?;
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

    /// Solve `H·X = B` in place for a dense RHS panel (cluster order), on
    /// lane workspaces ([`lane::solve_panel`]): column `j` has the bits of a
    /// width-1 solve of that column alone, at any width and thread count.
    pub fn solve_in_place(&self, b: MatMut<'_, T>) {
        assert_eq!(b.nrows(), self.h.nrows());
        let h = &self.h;
        let mut d = Vec::new();
        if h.is_half() {
            ldlt_diag(h, &mut d);
        }
        let rank = h.stats().max_rank;
        lane::solve_panel(b, (Rows::From(0), Rows::From(0)), |ws| {
            let sh = ws.shape();
            let mut scratch = LaneBuf::zeros(sh, rank);
            let (x, t) = (ws.as_mut_slice(), scratch.as_mut_slice());
            solve_lanes(h, Pass::Lower, sh, x, t);
            if d.is_empty() {
                solve_lanes(h, Pass::Upper, sh, x, t);
            } else {
                lane::div_rows(sh, x, &d);
                solve_lanes(h, Pass::LowerT, sh, x, t);
            }
        });
    }

    /// Structure statistics of the factored matrix.
    pub fn stats(&self) -> crate::hmatrix::HStats {
        self.h.stats()
    }
}

/// Factor the diagonal block `h`; `half` says it is a diagonal block of a
/// half-stored node, which makes a dense `h` an LDLᵀ leaf (a subdivided one
/// tells by its own `a12` slot).
fn factor_rec<T: Scalar>(h: &mut HMatrix<T>, half: bool, eps: T::Real) -> Result<()> {
    match &mut h.kind {
        HKind::Dense(_) => {
            let HKind::Dense(m) = std::mem::replace(&mut h.kind, HKind::Dense(Mat::zeros(0, 0)))
            else {
                unreachable!()
            };
            h.kind = if half {
                HKind::DenseLdlt(ldlt_in_place(m)?)
            } else {
                HKind::DenseLu(lu_in_place(m)?)
            };
            Ok(())
        }
        HKind::LowRank(_) => Err(Error::InvalidConfig(
            "cannot LU-factor a low-rank diagonal block (singular by construction)".into(),
        )),
        HKind::DenseLu(_) | HKind::DenseLdlt(_) => {
            Err(Error::InvalidConfig("block already factored".into()))
        }
        HKind::Mirror => unreachable!("the recursion never visits an a12 slot"),
        HKind::Hier(ch) => {
            let [a11, a21, a12, a22] = &mut **ch;
            let half = matches!(a12.kind, HKind::Mirror);
            factor_rec(a11, half, eps)?;
            let a11 = &*a11;
            if half {
                // `A₂₁` is dropped once transposed: it lives on as `U₁₂`.
                let mut u12 = std::mem::replace(a21, HMatrix::zeros_dense(0, 0)).transpose(None);
                solve_lower_h(a11, &mut u12, eps)?;
                let mut d11 = Vec::with_capacity(a11.nrows());
                ldlt_diag(a11, &mut d11);
                *a21 = u12.transpose(Some(&d11));
                h_gemm(-T::ONE, a21, &u12, a22, eps)?;
            } else {
                join_branches(
                    a11.nrows(),
                    || solve_lower_h(a11, a12, eps),
                    || solve_upper_right_h(a11, a21, eps),
                )?;
                h_gemm(-T::ONE, a21, a12, a22, eps)?;
            }
            factor_rec(a22, half, eps)
        }
    }
}

/// Append the `D` of an LDLᵀ-factored diagonal block to `out`, in order.
fn ldlt_diag<T: Scalar>(h: &HMatrix<T>, out: &mut Vec<T>) {
    match &h.kind {
        HKind::DenseLdlt(f) => out.extend((0..f.ld.n()).map(|i| f.ld[(i, i)])),
        HKind::Hier(ch) => {
            ldlt_diag(&ch[0], out);
            ldlt_diag(&ch[3], out);
        }
        _ => panic!("ldlt_diag: block not LDLᵀ-factored"),
    }
}

/// `B ← L⁻¹·P·B` where `l` is a factored diagonal block. The two block
/// columns of a subdivided `B` are independent chains.
fn solve_lower_h<T: Scalar>(l: &HMatrix<T>, b: &mut HMatrix<T>, eps: T::Real) -> Result<()> {
    match (&l.kind, &mut b.kind) {
        (_, HKind::Dense(bm)) => solve_lower_dense(l, bm.as_mut()),
        (_, HKind::LowRank(lr)) => solve_lower_dense(l, lr.u.as_mut()),
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

/// Forward solve `panel ← L⁻¹·P·panel` on a dense panel (`P = I` under
/// LDLᵀ).
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
        HKind::DenseLdlt(f) => {
            // A leaf is factored as a full matrix: one column block.
            let (_, ld) = f.ld.block(0);
            trsm_left(Tri::Lower, Op::NoTrans, Diag::Unit, T::ONE, ld, panel);
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

/// One triangular pass of [`HLu::solve_in_place`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// `x ← L⁻¹·P·x` (`P = I` under LDLᵀ).
    Lower,
    /// `x ← U⁻¹·x`.
    Upper,
    /// `x ← L⁻ᵀ·x` (plain transpose) with the unit `L` of an LDLᵀ factor.
    LowerT,
}

/// `pass` of the factored diagonal block `h` on the lane workspace rows `x`
/// (exactly `h`'s rows): a leaf is one triangle of the lane kernels, a
/// subdivided block solves one half, subtracts its off-diagonal block's
/// product from the other ([`HMatrix::update_lanes`], through `scratch`) and
/// solves that one.
fn solve_lanes<T: Scalar>(
    h: &HMatrix<T>,
    pass: Pass,
    sh: LaneShape,
    x: &mut [f64],
    scratch: &mut [f64],
) {
    let (tri, op, diag) = match pass {
        Pass::Lower => (Tri::Lower, Op::NoTrans, Diag::Unit),
        Pass::Upper => (Tri::Upper, Op::NoTrans, Diag::NonUnit),
        Pass::LowerT => (Tri::Lower, Op::Trans, Diag::Unit),
    };
    match (&h.kind, pass) {
        (HKind::DenseLu(f), Pass::Lower | Pass::Upper) => {
            if pass == Pass::Lower {
                for (j, &p) in f.ipiv.iter().enumerate() {
                    lane::swap_rows(sh, x, j, p);
                }
            }
            lane::solve_tri(sh, Sub, f.lu.as_ref(), tri, op, diag, x);
        }
        (HKind::DenseLdlt(f), Pass::Lower | Pass::LowerT) => {
            f.ld.solve_unit_lanes(sh, op, x);
        }
        (HKind::Hier(ch), _) => {
            let (top, bot) = x.split_at_mut(ch[0].nrows() * sh.row_len());
            // Forward: top half first, through `a21`; backward: bottom half
            // first, through `a12` (`U`) or `a21ᵀ` (`Lᵀ`).
            let (first, off, last, done, next) = match pass {
                Pass::Lower => (&ch[0], &ch[1], &ch[3], top, bot),
                Pass::Upper => (&ch[3], &ch[2], &ch[0], bot, top),
                Pass::LowerT => (&ch[3], &ch[1], &ch[0], bot, top),
            };
            solve_lanes(first, pass, sh, done, scratch);
            off.update_lanes(sh, (Sub, op), next, done, scratch);
            solve_lanes(last, pass, sh, next, scratch);
        }
        _ => panic!("solve_in_place: block not factored for this pass"),
    }
}
