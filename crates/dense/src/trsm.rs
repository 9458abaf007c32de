//! Triangular solves with multiple right-hand sides (BLAS `trsm`).
//!
//! Left solves `op(T)·X = α·B` and right solves `X·op(T) = α·B` both
//! overwrite `B` with `X`. Above a small cutoff the triangle is split
//! recursively: the diagonal blocks are solved by the base case and the
//! off-diagonal coupling is applied as a GEMM rank update, so almost all
//! the work runs through the cache-blocked [`gemm`] engine (and inherits its
//! parallelism and thread-count-invariant results).
//!
//! **One triangle kernel.** The base case is [`lane::solve_tri`], the
//! triangle every multi-RHS solve of the stack runs. A left solve takes the
//! columns of `B` as the lanes of row-major workspaces
//! ([`lane::solve_panel`], spread over idle threads past
//! [`PAR_FLOP_THRESHOLD`]); a right solve `X·op(T) = B` is the left solve
//! `op(T)ᵀ·Xᵀ = Bᵀ`, the rows of `B` its lanes. A lane has the bits of its
//! width-1 solve whatever rides beside it, so up to `k = 64` a column of a
//! left solve (a row of a right solve) never depends on the panel it rides
//! in. The recursion above that cutoff adds [`gemm`] updates, whose route
//! reads the panel width, so a wider triangle is not separable. The
//! factorizations (dense and sparse LU / LDLᵀ panels, H-LU) are the callers.

use csolve_common::Scalar;

use crate::gemm::{gemm, scale_block, with_serial, Op, PAR_FLOP_THRESHOLD};
use crate::lane::{self, LaneBuf, LaneShape, Rows, Update, MAX_LANES};
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

/// Triangle order below which the recursion bottoms out into the lane
/// triangle.
const TRSM_BLOCK: usize = 64;

/// `op(T)` viewed as a lower triangle after transposition?
#[inline]
fn eff_lower(tri: Tri, op: Op) -> bool {
    match (tri, op) {
        (Tri::Lower, Op::NoTrans) | (Tri::Upper, Op::Trans) | (Tri::Upper, Op::ConjTrans) => true,
        (Tri::Upper, Op::NoTrans) | (Tri::Lower, Op::Trans) | (Tri::Lower, Op::ConjTrans) => false,
    }
}

/// Base case of the left solve: the columns of `b` as the lanes of
/// workspaces, one [`lane::solve_tri`] each ([`lane::solve_panel`]), all on
/// the calling thread below [`PAR_FLOP_THRESHOLD`].
fn trsm_left_base<T: Scalar>(tri: Tri, op: Op, diag: Diag, t: MatRef<'_, T>, b: MatMut<'_, T>) {
    if t.nrows() == 1 && diag == Diag::Unit {
        // A unit 1×1 triangle is the identity (most supernodes of a sparse
        // factorization are this narrow).
        return;
    }
    let work = t.nrows() as f64 * t.nrows() as f64 * b.ncols() as f64;
    let solve = || {
        lane::solve_panel(b, (Rows::From(0), Rows::From(0)), |ws| {
            lane::solve_tri(ws.shape(), Update::Sub, t, tri, op, diag, ws.as_mut_slice())
        })
    };
    if work < PAR_FLOP_THRESHOLD {
        with_serial(solve)
    } else {
        solve()
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

/// Base case of the right solve: `X·op(T) = B` is `op(T)ᵀ·Xᵀ = Bᵀ`, so the
/// rows of `b` are the lanes, [`MAX_LANES`] per workspace, and column `j` is
/// workspace row `j`. `X·Tᴴ = B` is `T·conj(X)ᵀ = conj(B)ᵀ`: conjugated on
/// load and on store, solved with `NoTrans`.
fn trsm_right_base<T: Scalar>(
    tri: Tri,
    op: Op,
    diag: Diag,
    t: MatRef<'_, T>,
    mut b: MatMut<'_, T>,
) {
    let (op, conj) = match op {
        Op::NoTrans => (Op::Trans, false),
        Op::Trans => (Op::NoTrans, false),
        Op::ConjTrans => (Op::NoTrans, true),
    };
    let cj = |v: T| if conj { v.conj() } else { v };
    let k = t.nrows();
    for r0 in (0..b.nrows()).step_by(MAX_LANES) {
        let sh = LaneShape::new::<T>(MAX_LANES.min(b.nrows() - r0));
        let mut ws = LaneBuf::zeros(sh, k);
        let x = ws.as_mut_slice();
        for j in 0..k {
            for (c, &v) in b.col(j)[r0..][..sh.lanes()].iter().enumerate() {
                sh.set(x, j, c, cj(v));
            }
        }
        lane::solve_tri(sh, Update::Sub, t, tri, op, diag, x);
        for j in 0..k {
            for (c, v) in b.col_mut(j)[r0..][..sh.lanes()].iter_mut().enumerate() {
                *v = cj(sh.get(x, j, c));
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

    /// Every `Tri` × `Op` × `Diag` of the right solve on `C64` — `ConjTrans`
    /// among them — past the recursion cutoff, over more rows than one
    /// workspace holds, with garbage outside the triangle and on a unit
    /// diagonal.
    #[test]
    fn trsm_right_every_variant_c64() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(24);
        let (n, m) = (TRSM_BLOCK + 9, MAX_LANES + 5);
        let alpha = C64::new(0.5, -1.5);
        for tri in [Tri::Lower, Tri::Upper] {
            for op in [Op::NoTrans, Op::Trans, Op::ConjTrans] {
                for diag in [Diag::Unit, Diag::NonUnit] {
                    // `t` is what the solve reads, `exact` the triangle it
                    // must see.
                    let mut t = Mat::<C64>::random(n, n, &mut rng);
                    let mut exact = Mat::<C64>::zeros(n, n);
                    for j in 0..n {
                        for i in 0..n {
                            let inside = match tri {
                                Tri::Lower => i > j,
                                Tri::Upper => i < j,
                            };
                            if inside {
                                t[(i, j)] *= C64::from_f64(1.0 / n as f64);
                                exact[(i, j)] = t[(i, j)];
                            }
                        }
                        exact[(j, j)] = match diag {
                            Diag::Unit => C64::ONE,
                            Diag::NonUnit => {
                                t[(j, j)] += C64::from_f64(2.0);
                                t[(j, j)]
                            }
                        };
                    }
                    let b = Mat::<C64>::random(m, n, &mut rng);
                    let mut x = b.clone();
                    trsm_right(tri, op, diag, alpha, t.as_ref(), x.as_mut());
                    let mut d = gemm_into(x.as_ref(), Op::NoTrans, exact.as_ref(), op);
                    d.axpy(-alpha, &b);
                    assert!(
                        d.norm_max() < 1e-12,
                        "{tri:?} {op:?} {diag:?}: {:.3e}",
                        d.norm_max()
                    );
                }
            }
        }
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
