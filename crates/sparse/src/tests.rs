//! End-to-end tests of the multifrontal solver against dense references.

use csolve_common::{MemTracker, RealScalar, Scalar, C64};
use csolve_dense::{gemm, gemm_into, lu_in_place, lu_solve_in_place, Mat, Op};
use rand::SeedableRng;

use crate::formats::{Coo, Csc};
use crate::numeric::{
    factorize, factorize_analyzed, factorize_schur, schur_complement_analyzed, SparseOptions,
    Symmetry,
};
use crate::ordering::OrderingKind;
use crate::symbolic::SymbolicFactorization;

/// A crate-local copy of a matrix of the `csolve-sparse` the generators
/// link (a dev-dependency cycle: their `Csc` is another crate's type here).
macro_rules! local {
    ($m:expr) => {
        $crate::formats::Csc {
            nrows: $m.nrows,
            ncols: $m.ncols,
            colptr: $m.colptr.clone(),
            rowidx: $m.rowidx.clone(),
            values: $m.values.clone(),
        }
    };
}
pub(crate) use local;

/// The stacked `W = [A_vv A_vs|_cols ; A_sv|_rows 0]` of a coupled
/// problem's multi-factorization tile, as `(matrix, Schur variables)`
/// (zero-padded to square when the two ranges differ in length).
pub(crate) fn stacked_tile<T: Scalar>(
    a_vv: &Csc<T>,
    a_vs: &Csc<T>,
    a_sv: &Csc<T>,
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) -> (Csc<T>, Vec<usize>) {
    let nv = a_vv.nrows;
    let m = rows.len().max(cols.len());
    let mut coo = Coo::new(nv + m, nv + m);
    for j in 0..nv {
        for (&i, &v) in a_vv.col(j).0.iter().zip(a_vv.col(j).1) {
            coo.push(i, j, v);
        }
        for (&i, &v) in a_sv.col(j).0.iter().zip(a_sv.col(j).1) {
            if rows.contains(&i) {
                coo.push(nv + i - rows.start, j, v);
            }
        }
    }
    for j in cols.clone() {
        for (&i, &v) in a_vs.col(j).0.iter().zip(a_vs.col(j).1) {
            coo.push(i, nv + j - cols.start, v);
        }
    }
    (coo.to_csc(), (nv..nv + m).collect())
}

/// 3-D 7-point Laplacian + shift on an nx×ny×nz grid (SPD).
fn grid3d(nx: usize, ny: usize, nz: usize, shift: f64) -> Csc<f64> {
    let id = |i: usize, j: usize, k: usize| (i * ny + j) * nz + k;
    let n = nx * ny * nz;
    let mut coo = Coo::new(n, n);
    for i in 0..nx {
        for j in 0..ny {
            for k in 0..nz {
                let u = id(i, j, k);
                coo.push(u, u, 6.0 + shift);
                let mut nb = |v: usize| {
                    coo.push(u, v, -1.0);
                };
                if i > 0 {
                    nb(id(i - 1, j, k));
                }
                if i + 1 < nx {
                    nb(id(i + 1, j, k));
                }
                if j > 0 {
                    nb(id(i, j - 1, k));
                }
                if j + 1 < ny {
                    nb(id(i, j + 1, k));
                }
                if k > 0 {
                    nb(id(i, j, k - 1));
                }
                if k + 1 < nz {
                    nb(id(i, j, k + 1));
                }
            }
        }
    }
    coo.to_csc()
}

/// Random unsymmetric diagonally dominant matrix with symmetric pattern.
fn rand_unsym(n: usize, seed: u64) -> Csc<f64> {
    use rand::Rng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        coo.push(i, i, 8.0 + rng.random::<f64>());
    }
    for i in 0..n {
        for _ in 0..3 {
            let j = rng.random_range(0..n);
            if i != j {
                // Symmetric pattern, unsymmetric values.
                coo.push(i, j, rng.random_range(-1.0..1.0));
                coo.push(j, i, rng.random_range(-1.0..1.0));
            }
        }
    }
    coo.to_csc()
}

/// Complex symmetric version of the 3-D grid (constant complex stencil, so
/// A[i,j] == A[j,i] exactly).
fn grid3d_complex(nx: usize, ny: usize, nz: usize) -> Csc<C64> {
    let r = grid3d(nx, ny, nz, 1.0);
    Csc {
        nrows: r.nrows,
        ncols: r.ncols,
        colptr: r.colptr.clone(),
        rowidx: r.rowidx.clone(),
        values: r
            .values
            .iter()
            .map(|&v| {
                if v > 0.0 {
                    C64::new(v, 0.5 * v)
                } else {
                    C64::new(v, 0.1)
                }
            })
            .collect(),
    }
}

fn solve_error<T: Scalar>(a: &Csc<T>, opts: &SparseOptions, nrhs: usize, seed: u64) -> f64 {
    let n = a.nrows;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let x_exact = Mat::<T>::random(n, nrhs, &mut rng);
    let mut b = Mat::<T>::zeros(n, nrhs);
    a.mul_dense(T::ONE, x_exact.as_ref(), T::ZERO, b.as_mut());
    let f = factorize(a, opts).unwrap();
    f.solve_in_place(&mut b).unwrap();
    let mut d = b;
    d.axpy(-T::ONE, &x_exact);
    d.norm_fro().to_f64() / x_exact.norm_fro().to_f64()
}

#[test]
fn ldlt_solves_3d_grid_all_orderings() {
    let a = grid3d(7, 6, 5, 1.0);
    for ordering in [
        OrderingKind::Natural,
        OrderingKind::Rcm,
        OrderingKind::NestedDissection,
    ] {
        let opts = SparseOptions {
            ordering,
            ..Default::default()
        };
        let err = solve_error(&a, &opts, 3, 1);
        assert!(err < 1e-10, "{ordering:?}: err {err:.3e}");
    }
}

#[test]
fn lu_solves_unsymmetric() {
    let a = rand_unsym(150, 2);
    let opts = SparseOptions {
        symmetry: Symmetry::UnsymmetricLu,
        ..Default::default()
    };
    let err = solve_error(&a, &opts, 2, 3);
    assert!(err < 1e-9, "err {err:.3e}");
}

#[test]
fn ldlt_complex_symmetric() {
    let a = grid3d_complex(5, 5, 4);
    let opts = SparseOptions::default();
    let err = solve_error(&a, &opts, 2, 4);
    assert!(err < 1e-9, "err {err:.3e}");
}

#[test]
fn blr_compression_keeps_accuracy_and_reduces_bytes() {
    let a = grid3d(9, 9, 8, 1.0);
    let plain = SparseOptions::default();
    let blr = SparseOptions {
        blr_eps: Some(1e-9),
        ..Default::default()
    };
    let err_plain = solve_error(&a, &plain, 2, 5);
    let err_blr = solve_error(&a, &blr, 2, 5);
    assert!(err_plain < 1e-10);
    assert!(err_blr < 1e-6, "BLR err {err_blr:.3e}");
    let f_plain = factorize(&a, &plain).unwrap();
    let f_blr = factorize(&a, &blr).unwrap();
    assert!(
        f_blr.stats().factor_bytes <= f_plain.stats().factor_bytes,
        "BLR {} should not exceed dense {}",
        f_blr.stats().factor_bytes,
        f_plain.stats().factor_bytes
    );
}

#[test]
fn schur_complement_matches_dense_reference_symmetric() {
    // W = [A11 A12; A21 A22] with the last `ns` variables as Schur block.
    let a = grid3d(5, 4, 4, 2.0);
    let n = a.nrows;
    let ns = 12;
    let schur_vars: Vec<usize> = (n - ns..n).collect();
    let opts = SparseOptions::default();
    let (_f, s_got) = factorize_schur(&a, &schur_vars, &opts).unwrap();
    assert_eq!(s_got.nrows(), ns);
    // Dense reference.
    let ad = a.to_dense();
    let elim: Vec<usize> = (0..n - ns).collect();
    let a11 = {
        let mut m = Mat::<f64>::zeros(n - ns, n - ns);
        for (ii, &i) in elim.iter().enumerate() {
            for (jj, &j) in elim.iter().enumerate() {
                m[(ii, jj)] = ad[(i, j)];
            }
        }
        m
    };
    let a12 = Mat::<f64>::from_fn(n - ns, ns, |i, j| ad[(i, n - ns + j)]);
    let a21 = Mat::<f64>::from_fn(ns, n - ns, |i, j| ad[(n - ns + i, j)]);
    let a22 = Mat::<f64>::from_fn(ns, ns, |i, j| ad[(n - ns + i, n - ns + j)]);
    let f11 = lu_in_place(a11).unwrap();
    let mut x = a12.clone();
    lu_solve_in_place(&f11, x.as_mut());
    let mut s_ref = a22;
    gemm(
        -1.0,
        a21.as_ref(),
        Op::NoTrans,
        x.as_ref(),
        Op::NoTrans,
        1.0,
        s_ref.as_mut(),
    );
    let mut d = s_got.clone();
    d.axpy(-1.0, &s_ref);
    assert!(
        d.norm_max() < 1e-9 * s_ref.norm_max(),
        "Schur err {:.3e}",
        d.norm_max()
    );
}

#[test]
fn schur_with_scattered_vars_and_zero_block() {
    // The multi-factorization W matrix: [Avv Avs; Asv 0] — Schur output must
    // equal −Asv·Avv⁻¹·Avs. Unsymmetric values.
    let nv = 60;
    let ns = 7;
    let n = nv + ns;
    let avv = rand_unsym(nv, 6);
    let mut coo = Coo::new(n, n);
    for j in 0..nv {
        for p in avv.colptr[j]..avv.colptr[j + 1] {
            coo.push(avv.rowidx[p], j, avv.values[p]);
        }
    }
    use rand::Rng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    // Sparse coupling blocks with symmetric pattern, unsymmetric values.
    for s in 0..ns {
        for _ in 0..5 {
            let v = rng.random_range(0..nv);
            coo.push(nv + s, v, rng.random_range(-1.0..1.0));
            coo.push(v, nv + s, rng.random_range(-1.0..1.0));
        }
    }
    let w = coo.to_csc();
    let schur_vars: Vec<usize> = (nv..n).collect();
    let opts = SparseOptions {
        symmetry: Symmetry::UnsymmetricLu,
        ..Default::default()
    };
    let (_f, s_got) = factorize_schur(&w, &schur_vars, &opts).unwrap();
    // Dense reference: −A21·A11⁻¹·A12 (A22 = 0).
    let wd = w.to_dense();
    let a11 = Mat::<f64>::from_fn(nv, nv, |i, j| wd[(i, j)]);
    let a12 = Mat::<f64>::from_fn(nv, ns, |i, j| wd[(i, nv + j)]);
    let a21 = Mat::<f64>::from_fn(ns, nv, |i, j| wd[(nv + i, j)]);
    let f11 = lu_in_place(a11).unwrap();
    let mut x = a12;
    lu_solve_in_place(&f11, x.as_mut());
    let s_ref = {
        let mut m = gemm_into(a21.as_ref(), Op::NoTrans, x.as_ref(), Op::NoTrans);
        m.scale(-1.0);
        m
    };
    let mut d = s_got.clone();
    d.axpy(-1.0, &s_ref);
    assert!(
        d.norm_max() < 1e-9 * (1.0 + s_ref.norm_max()),
        "Schur err {:.3e}",
        d.norm_max()
    );
}

#[test]
fn sparse_rhs_solve_matches_dense_rhs_solve() {
    let a = grid3d(6, 6, 5, 1.5);
    let n = a.nrows;
    // Sparse RHS block: a few scattered nonzeros per column.
    use rand::Rng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    let mut coo = Coo::new(n, 6);
    for j in 0..6 {
        for _ in 0..4 {
            coo.push(rng.random_range(0..n), j, rng.random_range(-1.0..1.0));
        }
    }
    let rhs = coo.to_csc();
    let opts = SparseOptions::default();
    let f = factorize(&a, &opts).unwrap();
    let x_sparse = f.solve_sparse_rhs(&rhs).unwrap();
    let mut x_dense = rhs.to_dense();
    f.solve_in_place(&mut x_dense).unwrap();
    let mut d = x_sparse;
    d.axpy(-1.0, &x_dense);
    assert!(d.norm_max() < 1e-12, "{:.3e}", d.norm_max());
}

/// `solve_sparse_rhs` works in fixed 32-column chunks: widths around the
/// chunk boundary, both factorization kinds, dense and BLR-compressed
/// panels, RHS blocks with all-zero columns. Every column must agree with
/// the whole-panel `solve_in_place`, and the output must be the same bits
/// whatever the thread count (chunk boundaries depend on `nrhs` alone).
#[test]
fn chunked_sparse_rhs_solve_matches_dense_solve_and_is_thread_invariant() {
    use rand::Rng;
    let a = grid3d(10, 10, 9, 1.0);
    let n = a.nrows;
    for symmetry in [Symmetry::SymmetricLdlt, Symmetry::UnsymmetricLu] {
        for blr_eps in [None, Some(1e-6)] {
            let opts = SparseOptions {
                symmetry,
                blr_eps,
                ..Default::default()
            };
            let f = factorize(&a, &opts).unwrap();
            assert_eq!(
                f.stats().compressed_panels > 0,
                blr_eps.is_some(),
                "{symmetry:?}: the BLR case must solve through compressed panels"
            );
            for nrhs in [1usize, 31, 32, 33, 100] {
                // A few clustered nonzeros per column, so different chunks
                // reach different subtrees; every 7th column stays empty.
                let mut rng = rand::rngs::StdRng::seed_from_u64(nrhs as u64);
                let mut coo = Coo::new(n, nrhs);
                for j in (0..nrhs).filter(|j| j % 7 != 3) {
                    let base = rng.random_range(0..n - 20);
                    for _ in 0..4 {
                        let i = base + rng.random_range(0..20);
                        coo.push(i, j, rng.random_range(-1.0..1.0));
                    }
                }
                let rhs = coo.to_csc();
                let what = format!("{symmetry:?}, blr {blr_eps:?}, nrhs {nrhs}");

                let solve_on = |threads: usize| {
                    rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .unwrap()
                        .install(|| f.solve_sparse_rhs(&rhs).unwrap())
                };
                let x = solve_on(1);
                fn bits(m: &Mat<f64>) -> impl Iterator<Item = u64> + '_ {
                    m.data().iter().map(|v| v.to_bits())
                }
                for threads in [2, 4] {
                    assert!(
                        bits(&solve_on(threads)).eq(bits(&x)),
                        "{what}: {threads} threads changed the bits"
                    );
                }

                let mut x_dense = rhs.to_dense();
                f.solve_in_place(&mut x_dense).unwrap();
                for j in 0..nrhs {
                    let norm = |c: &[f64]| c.iter().map(|v| v * v).sum::<f64>().sqrt();
                    let diff: Vec<f64> = (x.col(j).iter().zip(x_dense.col(j)))
                        .map(|(p, q)| p - q)
                        .collect();
                    assert!(
                        norm(&diff) <= 1e-12 * norm(x_dense.col(j)),
                        "{what}: column {j} off by {:.3e}",
                        norm(&diff)
                    );
                }
            }
        }
    }
}

/// A panel solve splits its columns into per-thread groups of row-major
/// lane workspaces — and column `j` must still be, bit for bit, the width-1
/// solve of that column, at every width (a partial register, a full lane
/// block plus a remainder, several chunks) and thread count, for `f64` and
/// the planar `C64` rows, LDLᵀ and LU, dense and BLR panels: by
/// `solve_in_place`, `condense_and_solve` and `solve_sparse_rhs` (column `j`
/// against its own width-1 `solve_sparse_rhs`). No kernel mode is entered.
#[test]
fn colwise_panel_solve_gives_each_column_its_width_1_bits() {
    fn bits<T: Scalar>(c: &[T]) -> Vec<(u64, u64)> {
        c.iter()
            .map(|v| (v.real().to_f64().to_bits(), v.imag().to_f64().to_bits()))
            .collect()
    }
    fn check<T: Scalar>(a: &Csc<T>) {
        let n = a.nrows;
        let on = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let mut b = Mat::<T>::random(n, 64, &mut rng);
        // Exact zeros of both signs, and an all-zero column.
        for j in 0..64 {
            b[(3 * j % n, j)] = T::ZERO;
            b[(5 * j % n, j)] = -T::ZERO;
        }
        b.col_mut(5).fill(T::ZERO);
        let sparse_b = Csc::from_dense(&b);
        let all_rows: Vec<usize> = (0..n).collect();
        let rhs =
            |cols: std::ops::Range<usize>| sparse_b.submatrix(&all_rows, &cols.collect::<Vec<_>>());
        // The last rows as Schur variables, for `condense_and_solve`.
        let schur_vars: Vec<usize> = (n - 40..n).collect();
        let halve = |mut xs: csolve_dense::MatMut<'_, T>| {
            for j in 0..xs.ncols() {
                xs.col_mut(j)
                    .iter_mut()
                    .for_each(|v| *v *= T::from_f64(0.5));
            }
            Ok(())
        };
        for symmetry in [Symmetry::SymmetricLdlt, Symmetry::UnsymmetricLu] {
            for blr_eps in [None, Some(1e-6)] {
                let opts = SparseOptions {
                    symmetry,
                    blr_eps,
                    ..Default::default()
                };
                let f = factorize(a, &opts).unwrap();
                let (fs, _) = factorize_schur(a, &schur_vars, &opts).unwrap();
                // Width-1 references, one thread.
                let alone: Vec<_> = (0..b.ncols())
                    .map(|j| {
                        let mut x = Mat::from_col_major(n, 1, b.col(j).to_vec());
                        let mut y = x.clone();
                        let z = on(1).install(|| {
                            f.solve_in_place(&mut x).unwrap();
                            fs.condense_and_solve(&mut y, halve).unwrap();
                            f.solve_sparse_rhs(&rhs(j..j + 1)).unwrap()
                        });
                        (bits(x.col(0)), bits(y.col(0)), bits(z.col(0)))
                    })
                    .collect();
                for width in [1usize, 3, 7, 8, 9, 31, 32, 33, 64] {
                    for threads in [1usize, 2, 4, 8] {
                        let mut x = Mat::from_col_major(n, width, b.data()[..n * width].to_vec());
                        let mut y = x.clone();
                        let z = on(threads).install(|| {
                            f.solve_in_place(&mut x).unwrap();
                            fs.condense_and_solve(&mut y, halve).unwrap();
                            f.solve_sparse_rhs(&rhs(0..width)).unwrap()
                        });
                        for j in 0..width {
                            let what = format!(
                                "{}: {symmetry:?}, blr {blr_eps:?}, width {width}, {threads} threads, column {j}",
                                std::any::type_name::<T>()
                            );
                            assert!(bits(x.col(j)) == alone[j].0, "solve_in_place: {what}");
                            assert!(bits(y.col(j)) == alone[j].1, "condense_and_solve: {what}");
                            assert!(bits(z.col(j)) == alone[j].2, "solve_sparse_rhs: {what}");
                        }
                    }
                }
            }
        }
    }
    check(&grid3d(10, 10, 9, 1.0));
    check(&grid3d_complex(9, 9, 8));
}

/// On a factorization in which *every* supernode with a sub-diagonal panel
/// is one column wide (a tridiagonal matrix, with and without an arrow
/// border, in the natural order — only the trailing dense block is wider,
/// and it has no panel), a width-`w` solve must equal its width-1 solves bit
/// for bit — LDLᵀ and LU, dense and sparse right-hand sides, with exact
/// zeros of both signs where a forward step's skipped multiplier shows.
#[test]
fn width_1_supernodes_solve_every_column_with_its_width_1_bits() {
    let n = 90;
    let chain = |arrow: bool, symmetric: bool| {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0 + 0.01 * i as f64);
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
                coo.push(i + 1, i, if symmetric { -1.0 } else { -1.25 });
            }
            if arrow && i + 2 < n {
                coo.push(i, n - 1, 0.3);
                coo.push(n - 1, i, if symmetric { 0.3 } else { 0.2 });
            }
        }
        coo.to_csc()
    };
    fn bits(c: &[f64]) -> Vec<u64> {
        c.iter().map(|v| v.to_bits()).collect()
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(91);
    let mut b = Mat::<f64>::random(n, 33, &mut rng);
    // Exact zeros are where the skipped multiplier of the forward step shows.
    for j in 0..33 {
        b[(j, j)] = 0.0;
        b[(2 * j, j)] = -0.0;
    }
    b.col_mut(7).fill(0.0);
    let sparse_b = Csc::from_dense(&b);
    for symmetry in [Symmetry::SymmetricLdlt, Symmetry::UnsymmetricLu] {
        for arrow in [false, true] {
            let a = chain(arrow, symmetry == Symmetry::SymmetricLdlt);
            let opts = SparseOptions {
                symmetry,
                ordering: OrderingKind::Natural,
                ..Default::default()
            };
            let f = factorize(&a, &opts).unwrap();
            let sns = &f.symbolic.supernodes;
            assert!(
                sns.iter()
                    .all(|s| s.width() == 1 || s.front_size() == s.width())
                    && sns.iter().filter(|s| s.width() == 1).count() >= n - 3,
                "{symmetry:?}, arrow {arrow}: a supernode wider than one column has a panel"
            );
            let what = format!("{symmetry:?}, arrow {arrow}");
            let mut x = b.clone();
            f.solve_in_place(&mut x).unwrap();
            let mut r = b.clone();
            a.mul_dense(-1.0, x.as_ref(), 1.0, r.as_mut());
            assert!(
                r.norm_max() < 1e-12,
                "{what}: residual {:.3e}",
                r.norm_max()
            );

            let alone: Vec<Vec<u64>> = (0..33)
                .map(|j| {
                    let mut x = Mat::from_col_major(n, 1, b.col(j).to_vec());
                    f.solve_in_place(&mut x).unwrap();
                    bits(x.col(0))
                })
                .collect();
            for width in [1usize, 3, 32, 33] {
                let mut x = Mat::from_col_major(n, width, b.data()[..n * width].to_vec());
                let cols: Vec<usize> = (0..width).collect();
                let rhs = sparse_b.submatrix(&(0..n).collect::<Vec<_>>(), &cols);
                f.solve_in_place(&mut x).unwrap();
                let y = f.solve_sparse_rhs(&rhs).unwrap();
                for j in 0..width {
                    let what = format!("{what}, width {width}, column {j}");
                    assert!(bits(x.col(j)) == alone[j], "solve_in_place: {what}");
                    assert!(bits(y.col(j)) == alone[j], "solve_sparse_rhs: {what}");
                }
            }
        }
    }
}

#[test]
fn memory_budget_enforced_during_factorization() {
    let a = grid3d(10, 10, 10, 1.0);
    // A tiny budget must fail cleanly with OOM.
    let tracker = MemTracker::with_budget(200_000);
    let opts = SparseOptions {
        tracker: Some(tracker.clone()),
        ..Default::default()
    };
    match factorize(&a, &opts) {
        Err(e) => assert!(e.is_oom(), "expected OOM, got {e}"),
        Ok(_) => panic!("factorization must not fit in 200 kB"),
    }
    // All transient charges must have been released on the error path.
    assert_eq!(tracker.live(), 0);
    // A generous budget succeeds and records a peak.
    let tracker = MemTracker::with_budget(1 << 30);
    let opts = SparseOptions {
        tracker: Some(tracker.clone()),
        ..Default::default()
    };
    let f = factorize(&a, &opts).unwrap();
    assert!(tracker.peak() > 0);
    assert!(f.stats().peak_bytes >= f.stats().factor_bytes);
    // Live bytes now = factor bytes (the held charge).
    assert_eq!(tracker.live(), f.stats().factor_bytes);
    drop(f);
    assert_eq!(tracker.live(), 0);
}

/// `factorize_schur` is analysis + `factorize_analyzed`: the two give the
/// same factors (as every panel acts in a condensation solve), Schur block
/// and statistics bit for bit — also when the numeric phase draws on a
/// tracker scoped to the analysis' predicted peak, which it then cannot
/// exhaust, and which leaves the parent's peak where direct charging puts it.
#[test]
fn analyze_then_numeric_equals_factorize_schur_bitwise() {
    let a = grid3d(14, 14, 5, 0.5);
    let n = a.nrows;
    let schur_vars: Vec<usize> = (n - 30..n).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(22);
    let b = Mat::<f64>::random(n, 5, &mut rng);
    let bits = |m: &Mat<f64>| m.data().iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    // Schur block, condensation solve, ranks and statistics of one result.
    let digest = |(f, s): &(crate::SparseFactorization<f64>, Mat<f64>)| {
        let mut x = b.clone();
        f.condense_and_solve(&mut x, |_| Ok(())).unwrap();
        (
            bits(s),
            bits(&x),
            f.panel_ranks(),
            format!("{:?}", f.stats()),
        )
    };
    for symmetry in [Symmetry::SymmetricLdlt, Symmetry::UnsymmetricLu] {
        for blr_eps in [None, Some(1e-6)] {
            let cell = format!("{symmetry:?} / blr {blr_eps:?}");
            let (direct, parent) = (MemTracker::unbounded(), MemTracker::unbounded());
            let mut opts = SparseOptions {
                symmetry,
                blr_eps,
                tracker: Some(direct.clone()),
                ..Default::default()
            };
            let whole = factorize_schur(&a, &schur_vars, &opts).unwrap();

            let sym = SymbolicFactorization::analyze(&a, &schur_vars, opts.ordering).unwrap();
            let unsym = symmetry == Symmetry::UnsymmetricLu;
            let bound = sym.predicted_numeric_peak_bytes(std::mem::size_of::<f64>(), unsym);
            let scope = MemTracker::scoped(&parent, bound, "numeric phase").unwrap();
            opts.tracker = Some(scope.clone());
            let split = factorize_analyzed(&a, sym, &opts).unwrap();
            assert_eq!(digest(&whole), digest(&split), "{cell}");
            // Used vs reserved, read off the scope: exact uncompressed, an
            // upper bound with BLR; either way the parent saw what a direct
            // run charges.
            assert!(scope.peak() <= bound, "{cell}: scope outgrew its bound");
            assert!(blr_eps.is_some() || scope.peak() == bound, "{cell}: exact");
            assert_eq!(
                (parent.peak(), parent.live()),
                (direct.peak(), direct.live()),
                "{cell}"
            );
            drop((split, opts, scope));
            assert!(parent.charge(usize::MAX, "set-aside returned").is_ok());
        }
    }
    // An analysis of another matrix is refused, not indexed out of bounds.
    let sym = SymbolicFactorization::analyze(&a, &schur_vars, OrderingKind::Natural).unwrap();
    let other = grid3d(4, 4, 4, 0.5);
    let opts = SparseOptions::default();
    assert!(factorize_analyzed(&other, sym.clone(), &opts).is_err());
    assert!(schur_complement_analyzed(&other, sym, &opts).is_err());
}

/// The Schur-only numeric phase on multi-factorization tiles — pipe (`f64`:
/// a diagonal tile in LDLᵀ and LU mode, an off-diagonal one, a zero-padded
/// short-edge one) and industrial (`C64`, LU) — gives `factorize_analyzed`'s
/// Schur block bit for bit with BLR on and off. It keeps nothing
/// (`factor_bytes` 0, no eligible panel), its tracked peak is exactly
/// `predicted_schur_peak_bytes` with every charge released, and that replay
/// never exceeds the factor-keeping one.
#[test]
fn schur_only_gives_the_factorizations_schur_block_bitwise() {
    fn bits<T: Scalar>(m: &Mat<T>) -> Vec<(u64, u64)> {
        let bits = |r: T::Real| r.to_f64().to_bits();
        m.data()
            .iter()
            .map(|v| (bits(v.real()), bits(v.imag())))
            .collect()
    }
    /// Eligible panels of the factor-keeping BLR runs.
    fn check<T: Scalar>(what: &str, w: &Csc<T>, schur_vars: &[usize], symmetry: Symmetry) -> usize {
        let sym =
            SymbolicFactorization::analyze(w, schur_vars, OrderingKind::NestedDissection).unwrap();
        let elem = std::mem::size_of::<T>();
        let bound = sym.predicted_schur_peak_bytes(elem);
        let unsym = symmetry == Symmetry::UnsymmetricLu;
        assert!(
            bound <= sym.predicted_numeric_peak_bytes(elem, unsym),
            "{what}"
        );
        let mut eligible = 0;
        for blr_eps in [None, Some(1e-6)] {
            let cell = format!("{what} / {symmetry:?} / blr {blr_eps:?}");
            let opts = SparseOptions {
                symmetry,
                blr_eps,
                ..Default::default()
            };
            let (f, kept) = factorize_analyzed(w, sym.clone(), &opts).unwrap();
            eligible += f.stats().panels_eligible;
            let tracker = MemTracker::unbounded();
            let opts = SparseOptions {
                tracker: Some(tracker.clone()),
                ..opts
            };
            let (x, st) = schur_complement_analyzed(w, sym.clone(), &opts).unwrap();
            assert!(bits(&x) == bits(&kept), "{cell}: Schur block differs");
            assert_eq!((tracker.peak(), tracker.live()), (bound, 0), "{cell}");
            assert_eq!(st.peak_bytes, bound, "{cell}");
            assert_eq!(
                (st.factor_bytes, st.panels_eligible, st.compressed_panels),
                (0, 0, 0),
                "{cell}"
            );
            assert_eq!(
                (st.n_supernodes, st.max_front),
                (f.stats().n_supernodes, f.stats().max_front),
                "{cell}"
            );
        }
        eligible
    }
    // A tile grid that does not divide n_s: the edge tile is short.
    fn tiles(ns: usize) -> (usize, std::ops::Range<usize>) {
        let n_b = (3..).find(|&b| !ns.is_multiple_of(b)).unwrap();
        let blk = ns.div_ceil(n_b);
        (blk, (n_b - 1) * blk..ns)
    }

    let p = csolve_fembem::pipe_problem::<f64>(2_500);
    let (a_vv, a_vs, a_sv) = (local!(p.a_vv), local!(p.a_vs), local!(p.a_sv));
    let (blk, edge) = tiles(a_sv.nrows);
    assert!(edge.len() < blk, "pipe: want a short edge tile");
    let (w, sv) = stacked_tile(&a_vv, &a_vs, &a_sv, 0..blk, 0..blk);
    let mut eligible = check("pipe W[0, 0]", &w, &sv, Symmetry::SymmetricLdlt);
    eligible += check("pipe W[0, 0]", &w, &sv, Symmetry::UnsymmetricLu);
    for (rows, cols) in [(blk..2 * blk, 0..blk), (edge, blk..2 * blk)] {
        let (w, sv) = stacked_tile(&a_vv, &a_vs, &a_sv, rows.clone(), cols.clone());
        let what = format!("pipe W[{rows:?}, {cols:?}]");
        eligible += check(&what, &w, &sv, Symmetry::UnsymmetricLu);
    }
    assert!(eligible > 0, "no factor panel met the BLR size gate");

    let p = csolve_fembem::industrial_problem::<C64>(2_000);
    let (a_vv, a_vs, a_sv) = (local!(p.a_vv), local!(p.a_vs), local!(p.a_sv));
    let (blk, edge) = tiles(a_sv.nrows);
    for (rows, cols) in [(0..blk, 0..blk), (0..blk, edge)] {
        let (w, sv) = stacked_tile(&a_vv, &a_vs, &a_sv, rows.clone(), cols.clone());
        let what = format!("industrial W[{rows:?}, {cols:?}]");
        check(&what, &w, &sv, Symmetry::UnsymmetricLu);
    }
}

#[test]
fn singular_matrix_reports_singular_pivot() {
    // A matrix with an exactly zero row/col.
    let mut coo = Coo::new(4, 4);
    coo.push(0, 0, 1.0);
    coo.push(1, 1, 2.0);
    coo.push(3, 3, 1.0);
    // Variable 2 fully decoupled AND zero diagonal.
    let a = coo.to_csc();
    let r = factorize(&a, &SparseOptions::default());
    assert!(
        matches!(r, Err(csolve_common::Error::SingularPivot { .. })),
        "expected singular pivot"
    );
}

#[test]
fn factor_stats_are_sane() {
    let a = grid3d(8, 8, 6, 1.0);
    let f = factorize(&a, &SparseOptions::default()).unwrap();
    let st = f.stats();
    assert!(st.n_supernodes > 0);
    assert!(st.max_front >= 2);
    assert!(st.factor_bytes > a.nnz() * 8 / 2);
    assert!(st.flops > 0.0);
    assert!(f.compression_ratio() == 0.0); // no BLR requested
}

#[test]
fn multiple_rhs_counts() {
    let a = grid3d(5, 5, 5, 1.0);
    for nrhs in [1usize, 7, 32] {
        let opts = SparseOptions::default();
        let err = solve_error(&a, &opts, nrhs, 100 + nrhs as u64);
        assert!(err < 1e-10, "nrhs={nrhs}: {err:.3e}");
    }
}

/// The Schur block of an LDLᵀ factorization+Schur call as the multifrontal
/// loop computes it with every contribution block symmetrized: each front
/// assembled and extend-added in full, each CB mirrored from its lower
/// triangle, each root CB added to both triangles of `S`.
fn schur_with_symmetrized_cbs<T: Scalar>(
    a: &Csc<T>,
    sym: &SymbolicFactorization,
    panel_nb: usize,
) -> Mat<T> {
    let (n, ne, ns) = (sym.n, sym.n_elim, sym.n_schur);
    let a1 = a.permute_sym(&sym.perm);
    let mut schur = Mat::<T>::zeros(ns, ns);
    for j in ne..n {
        for p in a1.colptr[j]..a1.colptr[j + 1] {
            if a1.rowidx[p] >= ne {
                schur[(a1.rowidx[p] - ne, j - ne)] = a1.values[p];
            }
        }
    }
    let mut cbs: Vec<Option<Mat<T>>> = sym.supernodes.iter().map(|_| None).collect();
    let mut pos_of = vec![usize::MAX; n];
    for (s, info) in sym.supernodes.iter().enumerate() {
        let (k, f) = (info.width(), info.front_size());
        for (p, &r) in info.rows.iter().enumerate() {
            pos_of[r] = p;
        }
        let mut front = Mat::<T>::zeros(f, f);
        for j in info.c0..info.c1 {
            for p in a1.colptr[j]..a1.colptr[j + 1] {
                if a1.rowidx[p] >= info.c0 {
                    front[(pos_of[a1.rowidx[p]], j - info.c0)] = a1.values[p];
                }
            }
        }
        let children = sym
            .supernodes
            .iter()
            .enumerate()
            .filter(|(_, c)| c.parent == s);
        for (c, child) in children {
            let cb = cbs[c].take().unwrap();
            let pos: Vec<usize> = child.rows[child.width()..]
                .iter()
                .map(|&g| pos_of[g])
                .collect();
            for (cj, &pj) in pos.iter().enumerate() {
                for (ci, &pi) in pos.iter().enumerate() {
                    if cb[(ci, cj)] != T::ZERO {
                        front[(pi, pj)] += cb[(ci, cj)];
                    }
                }
            }
        }
        csolve_dense::partial_ldlt_nb(&mut front, k, panel_nb).unwrap();
        if f > k {
            let mut cb = front.submatrix(k..f, k..f);
            csolve_dense::symmetrize_from_lower(&mut cb);
            if info.parent == usize::MAX {
                for (cj, &gj) in info.rows[k..].iter().enumerate() {
                    for (ci, &gi) in info.rows[k..].iter().enumerate() {
                        schur[(gi - ne, gj - ne)] += cb[(ci, cj)];
                    }
                }
            } else {
                cbs[s] = Some(cb);
            }
        }
        for &r in &info.rows {
            pos_of[r] = usize::MAX;
        }
    }
    schur
}

/// LDLᵀ fronts are read, written and extend-added in their lower triangle
/// alone, and `S` is accumulated in its lower triangle and mirrored once:
/// the Schur block comes out bitwise symmetric and bitwise the one of the
/// loop that symmetrizes every contribution block — with and without a
/// blocked panel width, real and complex, on a grid with a Schur tail and on
/// a pipe's diagonal multi-factorization tile. The grids' factors still
/// solve.
#[test]
fn an_ldlt_schur_block_is_bitwise_symmetric_and_the_symmetrized_cb_one() {
    fn bits<T: Scalar>(v: T) -> (u64, u64) {
        (v.real().to_f64().to_bits(), v.imag().to_f64().to_bits())
    }
    fn check<T: Scalar>(what: &str, a: &Csc<T>, schur_vars: &[usize]) {
        let ns = schur_vars.len();
        for panel_nb in [0, 8] {
            let opts = SparseOptions {
                symmetry: Symmetry::SymmetricLdlt,
                panel_nb,
                ..Default::default()
            };
            let (f, s) = factorize_schur(a, schur_vars, &opts).unwrap();
            let want = schur_with_symmetrized_cbs(a, &f.symbolic, panel_nb);
            for j in 0..ns {
                for i in 0..ns {
                    assert_eq!(bits(s[(i, j)]), bits(want[(i, j)]), "{what} nb {panel_nb}");
                    assert_eq!(bits(s[(i, j)]), bits(s[(j, i)]), "{what} nb {panel_nb}");
                }
            }
            let (x, _) = schur_complement_analyzed(a, f.symbolic.clone(), &opts).unwrap();
            assert!(x
                .data()
                .iter()
                .zip(s.data())
                .all(|(&x, &s)| bits(x) == bits(s)));
        }
    }
    let g = grid3d(9, 8, 7, 0.3);
    check(
        "grid + tail",
        &g,
        &(g.nrows - 40..g.nrows).collect::<Vec<_>>(),
    );
    assert!(solve_error(&g, &SparseOptions::default(), 2, 7) < 1e-9);
    let g = grid3d_complex(7, 6, 6);
    check(
        "complex grid + tail",
        &g,
        &(3..g.nrows).step_by(9).collect::<Vec<_>>(),
    );
    assert!(solve_error(&g, &SparseOptions::default(), 2, 7) < 1e-9);
    let p = csolve_fembem::pipe_problem::<f64>(2_500);
    let (a_vv, a_vs, a_sv) = (local!(p.a_vv), local!(p.a_vs), local!(p.a_sv));
    let blk = a_sv.nrows.div_ceil(3);
    let (w, sv) = stacked_tile(&a_vv, &a_vs, &a_sv, blk..2 * blk, blk..2 * blk);
    check("pipe W[1, 1]", &w, &sv);
}
