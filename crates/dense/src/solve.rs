//! Multi-RHS solves against packed LU / LDLᵀ factors.

use csolve_common::Scalar;

use crate::factor::{LdltFactors, LuFactors};
use crate::gemm::Op;
use crate::lane::{self, Rows, Update::Sub};
use crate::mat::MatMut;
use crate::trsm::{Diag, Tri};

/// Apply the LU pivot row interchanges to a right-hand side block, forward
/// (`P·B`) order.
pub fn apply_row_swaps_fwd<T: Scalar>(ipiv: &[usize], mut b: MatMut<'_, T>) {
    for (j, &p) in ipiv.iter().enumerate() {
        if p != j {
            for c in 0..b.ncols() {
                let x = b.get(j, c);
                let y = b.get(p, c);
                b.set(j, c, y);
                b.set(p, c, x);
            }
        }
    }
}

/// Solve `A·X = B` in place given `P·A = L·U` factors: the row swaps, then
/// `L` and `U` as triangles of the lane kernels ([`lane::solve_panel`]), so
/// column `j` has the bits of a width-1 solve of that column alone.
pub fn lu_solve_in_place<T: Scalar>(f: &LuFactors<T>, b: MatMut<'_, T>) {
    assert_eq!(f.lu.nrows(), b.nrows(), "lu_solve: dims");
    lane::solve_panel(b, (Rows::From(0), Rows::From(0)), |ws| {
        let sh = ws.shape();
        let x = ws.as_mut_slice();
        for (j, &p) in f.ipiv.iter().enumerate() {
            lane::swap_rows(sh, x, j, p);
        }
        let lu = f.lu.as_ref();
        lane::solve_tri(sh, Sub, lu, Tri::Lower, Op::NoTrans, Diag::Unit, x);
        lane::solve_tri(sh, Sub, lu, Tri::Upper, Op::NoTrans, Diag::NonUnit, x);
    });
}

/// Solve `A·X = B` in place given packed LDLᵀ factors (unit lower `L`,
/// diagonal `D` on the diagonal; the plain transpose is used so this is valid
/// for complex symmetric matrices), on lane workspaces like
/// [`lu_solve_in_place`].
pub fn ldlt_solve_in_place<T: Scalar>(f: &LdltFactors<T>, b: MatMut<'_, T>) {
    assert_eq!(f.ld.nrows(), b.nrows(), "ldlt_solve: dims");
    let ld = f.ld.as_ref();
    let d: Vec<T> = (0..ld.nrows()).map(|i| ld.get(i, i)).collect();
    lane::solve_panel(b, (Rows::From(0), Rows::From(0)), |ws| {
        let sh = ws.shape();
        let x = ws.as_mut_slice();
        lane::solve_tri(sh, Sub, ld, Tri::Lower, Op::NoTrans, Diag::Unit, x);
        lane::div_rows(sh, x, &d);
        lane::solve_tri(sh, Sub, ld, Tri::Lower, Op::Trans, Diag::Unit, x);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::Mat;

    #[test]
    fn row_swaps_forward_matches_permutation() {
        let mut b = Mat::<f64>::from_fn(4, 1, |i, _| i as f64);
        // swaps: step0 swap(0,2), step1 swap(1,3)
        apply_row_swaps_fwd(&[2, 3], b.as_mut());
        assert_eq!(b.col(0), &[2.0, 3.0, 0.0, 1.0]);
    }
}
