//! Cross-module tests for the H-matrix layer: every hierarchical operation
//! is validated against its dense counterpart on kernels with genuine
//! low-rank off-diagonal structure.

use csolve_common::{ByteSized, RealScalar, Scalar, C64};
use csolve_dense::{gemm_into, Mat, Op};
use csolve_lowrank::LowRank;
use rand::SeedableRng;

use crate::cluster::ClusterTree;
use crate::factor::HLu;
use crate::geometry::Point3;
use crate::hmatrix::{
    h_gemm, h_mul_to_lowrank, AssembleMethod, HKind, HMatrix, HOptions, HStats, TASK_MIN_ROWS,
};

/// Points on a square surface patch — a stand-in for a BEM surface mesh.
fn surface_points(n_side: usize) -> Vec<Point3> {
    let mut pts = Vec::with_capacity(n_side * n_side);
    for i in 0..n_side {
        for j in 0..n_side {
            let x = i as f64 / n_side as f64;
            let y = j as f64 / n_side as f64;
            // Gentle curvature so the geometry is 3-D.
            pts.push(Point3::new(x, y, 0.1 * (x * x + y * y)));
        }
    }
    pts
}

/// Smooth Green-like kernel with a diagonal shift: symmetric positive-ish,
/// hierarchically low-rank off the diagonal.
fn kernel_entry(pts: &[Point3], shift: f64, i: usize, j: usize) -> f64 {
    if i == j {
        shift
    } else {
        let r = pts[i].dist(&pts[j]);
        1.0 / (4.0 * std::f64::consts::PI * (r + 0.05))
    }
}

/// Complex symmetric kernel (oscillatory Green function, wavenumber 3) with
/// a complex diagonal shift scaled by `n`.
fn helmholtz_entry(pts: &[Point3], n: f64, i: usize, j: usize) -> C64 {
    if i == j {
        C64::new(n, 0.3 * n)
    } else {
        let r = pts[i].dist(&pts[j]);
        let amp = 1.0 / (4.0 * std::f64::consts::PI * (r + 0.05));
        C64::new(amp * (3.0 * r).cos(), amp * (3.0 * r).sin())
    }
}

fn build_test_h(
    n_side: usize,
    eps: f64,
    method: AssembleMethod,
) -> (ClusterTree, HMatrix<f64>, Mat<f64>) {
    let pts = surface_points(n_side);
    let n = pts.len();
    let tree = ClusterTree::build(&pts, 24);
    let shift = n as f64;
    // Oracle in cluster order.
    let perm = tree.perm.clone();
    let p2 = pts.clone();
    let oracle = move |i: usize, j: usize| kernel_entry(&p2, shift, perm[i], perm[j]);
    let opts = HOptions {
        eps,
        // Generous admissibility: at these (test-sized) point counts the
        // standard eta = 2 leaves most blocks in the near field.
        eta: 6.0,
        max_rank: 64,
        method,
    };
    let h = HMatrix::assemble_root(&tree, &tree, &oracle, &opts);
    let dense = Mat::from_fn(n, n, |i, j| {
        kernel_entry(&pts, shift, tree.perm[i], tree.perm[j])
    });
    (tree, h, dense)
}

fn rel_err(got: &Mat<f64>, want: &Mat<f64>) -> f64 {
    let mut d = got.clone();
    d.axpy(-1.0, want);
    d.norm_fro() / want.norm_fro()
}

#[test]
fn assembly_approximates_kernel_and_compresses() {
    for method in [AssembleMethod::Aca, AssembleMethod::Direct] {
        // Large enough that the block structure has plenty of admissible
        // (well separated) blocks; loose eps as in the paper's regime.
        let (_, h, dense) = build_test_h(24, 1e-4, method);
        let err = rel_err(&h.to_dense(), &dense);
        assert!(err < 1e-3, "{method:?}: rel err {err:.3e}");
        let st = h.stats();
        assert!(st.lowrank_leaves > 0, "{method:?}: no compression happened");
        // At test-scale point counts the near field dominates; the asymptotic
        // O(n·r·log n) gain is exercised by the capacity benchmarks instead.
        assert!(
            st.bytes < st.dense_bytes * 4 / 5,
            "{method:?}: bytes {} vs dense {}",
            st.bytes,
            st.dense_bytes
        );
        assert_eq!(h.byte_size(), st.bytes);
    }
}

#[test]
fn mul_dense_matches_dense() {
    let (_, h, dense) = build_test_h(12, 1e-9, AssembleMethod::Aca);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let b = Mat::<f64>::random(dense.ncols(), 5, &mut rng);
    let mut c = Mat::<f64>::random(dense.nrows(), 5, &mut rng);
    let c0 = c.clone();
    h.mul_dense(2.0, b.as_ref(), 0.5, c.as_mut());
    let mut want = gemm_into(dense.as_ref(), Op::NoTrans, b.as_ref(), Op::NoTrans);
    want.scale(2.0);
    let mut c0h = c0;
    c0h.scale(0.5);
    want.axpy(1.0, &c0h);
    assert!(rel_err(&c, &want) < 1e-6);
}

#[test]
fn mul_dense_t_and_dense_mul_h_match() {
    let (_, h, dense) = build_test_h(10, 1e-9, AssembleMethod::Aca);
    let n = dense.nrows();
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let b = Mat::<f64>::random(n, 4, &mut rng);
    // Hᵀ·B
    let mut c = Mat::<f64>::zeros(n, 4);
    h.mul_dense_t(1.0, b.as_ref(), 0.0, c.as_mut());
    let want = gemm_into(dense.as_ref(), Op::Trans, b.as_ref(), Op::NoTrans);
    assert!(rel_err(&c, &want) < 1e-6);
    // D·H
    let d = Mat::<f64>::random(3, n, &mut rng);
    let mut out = Mat::<f64>::zeros(3, n);
    h.dense_mul_h(1.0, d.as_ref(), 0.0, out.as_mut());
    let want = gemm_into(d.as_ref(), Op::NoTrans, dense.as_ref(), Op::NoTrans);
    assert!(rel_err(&out, &want) < 1e-6);
}

#[test]
fn axpy_dense_block_various_offsets() {
    let (_, mut h, mut dense) = build_test_h(10, 1e-9, AssembleMethod::Aca);
    let n = dense.nrows();
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    // A few panels at awkward offsets crossing child boundaries.
    for &(r0, c0, pm, pn) in &[
        (0usize, 0usize, n, 16usize),
        (7, n - 20, 33, 20),
        (n / 2 - 5, n / 2 - 5, 11, 11),
        (0, 0, 1, 1),
    ] {
        let panel = Mat::<f64>::random(pm, pn, &mut rng);
        h.try_axpy_dense_block(0.7, r0, c0, panel.as_ref(), 1e-10)
            .unwrap();
        let mut dst = dense.view_mut(r0..r0 + pm, c0..c0 + pn);
        dst.axpy(0.7, panel.as_ref());
    }
    assert!(rel_err(&h.to_dense(), &dense) < 1e-6);
}

#[test]
fn deferred_axpy_with_leaf_flush_matches_eager() {
    // The deferred path (formal adds, recompression only when a leaf's
    // accumulated rank exceeds flush_rank, final recompress_leaves) must
    // approximate the same matrix as the eager path and end up truncated.
    // Assembly is deterministic, so two builds give identical accumulators.
    let (_, mut eager, _) = build_test_h(10, 1e-9, AssembleMethod::Aca);
    let (_, mut deferred, _) = build_test_h(10, 1e-9, AssembleMethod::Aca);
    let mut dense = eager.to_dense();
    let n = dense.nrows();
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    for &(r0, c0, pm, pn) in &[
        (0usize, 0usize, n, 16usize),
        (7, n - 20, 33, 20),
        (n / 2 - 5, 3, 11, 40),
        (1, 1, 30, 30),
    ] {
        let panel = Mat::<f64>::random(pm, pn, &mut rng);
        eager
            .try_axpy_dense_block(0.7, r0, c0, panel.as_ref(), 1e-10)
            .unwrap();
        deferred
            .try_axpy_dense_block_deferred(0.7, r0, c0, panel.as_ref(), 1e-10, 12)
            .unwrap();
        let mut dst = dense.view_mut(r0..r0 + pm, c0..c0 + pn);
        dst.axpy(0.7, panel.as_ref());
    }
    // Before the flush the deferred accumulator may carry extra formal rank.
    let formal_bytes = deferred.byte_size();
    deferred.recompress_leaves(1e-10);
    assert!(
        deferred.byte_size() <= formal_bytes,
        "recompress_leaves must not grow the accumulator"
    );
    assert!(rel_err(&eager.to_dense(), &dense) < 1e-6);
    assert!(rel_err(&deferred.to_dense(), &dense) < 1e-6);
    // Flushing again changes nothing: per-singular-value truncation is
    // idempotent.
    let once = deferred.to_dense();
    let rank_once = deferred.stats().max_rank;
    deferred.recompress_leaves(1e-10);
    assert_eq!(deferred.stats().max_rank, rank_once);
    assert!(rel_err(&deferred.to_dense(), &once) < 1e-12);
}

#[test]
fn axpy_lowrank_full_shape() {
    let (_, mut h, mut dense) = build_test_h(9, 1e-9, AssembleMethod::Aca);
    let n = dense.nrows();
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let u = Mat::<f64>::random(n, 3, &mut rng);
    let v = Mat::<f64>::random(n, 3, &mut rng);
    let lr = LowRank::new(u, v);
    h.axpy_lowrank(-1.5, &lr, 1e-10);
    dense.axpy(-1.5, &lr.to_dense());
    assert!(rel_err(&h.to_dense(), &dense) < 1e-6);
}

#[test]
fn to_lowrank_of_admissible_product() {
    let (_, h, dense) = build_test_h(8, 1e-8, AssembleMethod::Aca);
    // The full matrix is not low-rank (diagonal dominates), but the
    // reconstruction must still meet the tolerance loosely at high eps.
    let lr = h.to_lowrank(1e-9);
    let err = rel_err(&lr.to_dense(), &dense);
    assert!(err < 1e-6, "err {err:.3e}");
}

#[test]
fn h_gemm_matches_dense_product() {
    let (_, ha, da) = build_test_h(9, 1e-9, AssembleMethod::Aca);
    let (_, hb, db) = build_test_h(9, 1e-9, AssembleMethod::Aca);
    let (_, mut hc, mut dc) = build_test_h(9, 1e-9, AssembleMethod::Aca);
    h_gemm(-1.0, &ha, &hb, &mut hc, 1e-10).unwrap();
    let prod = gemm_into(da.as_ref(), Op::NoTrans, db.as_ref(), Op::NoTrans);
    dc.axpy(-1.0, &prod);
    assert!(rel_err(&hc.to_dense(), &dc) < 1e-5);
}

#[test]
fn h_mul_to_lowrank_matches() {
    let (_, ha, da) = build_test_h(8, 1e-9, AssembleMethod::Aca);
    let (_, hb, db) = build_test_h(8, 1e-9, AssembleMethod::Aca);
    let p = h_mul_to_lowrank(&ha, &hb, 1e-9);
    let want = gemm_into(da.as_ref(), Op::NoTrans, db.as_ref(), Op::NoTrans);
    assert!(rel_err(&p.to_dense(), &want) < 1e-5);
}

#[test]
fn hlu_solves_real_system() {
    let (_, h, dense) = build_test_h(12, 1e-10, AssembleMethod::Aca);
    let n = dense.nrows();
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let x_exact = Mat::<f64>::random(n, 3, &mut rng);
    let b = gemm_into(dense.as_ref(), Op::NoTrans, x_exact.as_ref(), Op::NoTrans);
    let f = HLu::factor(h, 1e-12).unwrap();
    let mut x = b.clone();
    f.solve_in_place(x.as_mut());
    let err = rel_err(&x, &x_exact);
    assert!(err < 1e-6, "solve err {err:.3e}");
}

#[test]
fn hlu_compressed_factor_still_accurate_at_loose_eps() {
    // The paper's regime: eps = 1e-3 compression, relative error of the
    // solution stays below eps.
    let (_, h, dense) = build_test_h(14, 1e-3, AssembleMethod::Aca);
    let n = dense.nrows();
    let x_exact = Mat::<f64>::from_fn(n, 1, |i, _| 1.0 + (i as f64 * 0.01).cos());
    let b = gemm_into(dense.as_ref(), Op::NoTrans, x_exact.as_ref(), Op::NoTrans);
    let st_before = h.stats();
    let f = HLu::factor(h, 1e-3).unwrap();
    let mut x = b.clone();
    f.solve_in_place(x.as_mut());
    let err = rel_err(&x, &x_exact);
    assert!(err < 1e-3, "solve err {err:.3e}");
    assert!(st_before.bytes < st_before.dense_bytes);
}

#[test]
fn hlu_complex_system() {
    let pts = surface_points(10);
    let n = pts.len();
    let tree = ClusterTree::build(&pts, 16);
    let entry = |pi: usize, pj: usize| helmholtz_entry(&pts, n as f64, pi, pj);
    let oracle = |i: usize, j: usize| entry(tree.perm[i], tree.perm[j]);
    let opts = HOptions {
        eps: 1e-9,
        ..Default::default()
    };
    let h = HMatrix::assemble_root(&tree, &tree, &oracle, &opts);
    let dense = Mat::from_fn(n, n, |i, j| entry(tree.perm[i], tree.perm[j]));
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let x_exact = Mat::<C64>::random(n, 2, &mut rng);
    let b = gemm_into(dense.as_ref(), Op::NoTrans, x_exact.as_ref(), Op::NoTrans);
    let f = HLu::factor(h, 1e-11).unwrap();
    let mut x = b;
    f.solve_in_place(x.as_mut());
    let mut d = x;
    d.axpy(-C64::ONE, &x_exact);
    let err = d.norm_fro() / x_exact.norm_fro();
    assert!(err < 1e-6, "complex solve err {err:.3e}");
}

#[test]
fn compress_dense_roundtrip() {
    let pts = surface_points(16);
    let n = pts.len();
    let tree = ClusterTree::build(&pts, 16);
    let dense = Mat::from_fn(n, n, |i, j| {
        kernel_entry(&pts, n as f64, tree.perm[i], tree.perm[j])
    });
    let opts = HOptions {
        eps: 1e-6,
        ..Default::default()
    };
    let h = HMatrix::compress_dense(&tree, &tree, &dense, &opts);
    assert!(rel_err(&h.to_dense(), &dense) < 1e-4);
    let st = h.stats();
    assert!(
        st.bytes < st.dense_bytes,
        "bytes {} vs dense {}",
        st.bytes,
        st.dense_bytes
    );
}

#[test]
fn deferred_axpy_of_zero_panel_is_inert() {
    // An exactly-zero panel must leave the accumulator bit-for-bit
    // untouched — in particular it must not trigger a tol = ε·0
    // compression or inflate any leaf's formal rank.
    let (_, mut h, dense) = build_test_h(10, 1e-8, AssembleMethod::Aca);
    let n = dense.nrows();
    let before_bytes = h.byte_size();
    let before = h.to_dense();
    let zero = Mat::<f64>::zeros(40, 40);
    for &(r0, c0) in &[(0usize, 0usize), (n - 40, 3), (n / 2, n / 2)] {
        h.try_axpy_dense_block_deferred(1.0, r0, c0, zero.as_ref(), 1e-8, 8)
            .unwrap();
    }
    assert_eq!(h.byte_size(), before_bytes, "zero panel changed storage");
    assert!(rel_err(&h.to_dense(), &before) < 1e-15);
}

#[test]
fn deferred_axpy_exact_cancellation_normalizes_to_rank_zero() {
    // +P then −P with a flush threshold small enough to force a
    // recompression of the cancelled sum: the accumulated leaf must
    // normalize to its pre-update state (no zero-norm factors kept alive
    // by a tolerance of ε·0).
    let (_, mut h, _) = build_test_h(10, 1e-8, AssembleMethod::Aca);
    let before = h.to_dense();
    let before_bytes = h.byte_size();
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let n = before.nrows();
    let panel = Mat::<f64>::random(64, 48, &mut rng);
    // flush_rank = 0: every deferred AXPY recompresses immediately, so the
    // second (cancelling) update drives touched leaves through the
    // zero-norm branch.
    h.try_axpy_dense_block_deferred(1.0, n - 64, 0, panel.as_ref(), 1e-8, 0)
        .unwrap();
    h.try_axpy_dense_block_deferred(-1.0, n - 64, 0, panel.as_ref(), 1e-8, 0)
        .unwrap();
    h.recompress_leaves(1e-8);
    assert!(rel_err(&h.to_dense(), &before) < 1e-9);
    assert!(
        h.byte_size() <= before_bytes,
        "cancelled updates left residual factors: {} > {}",
        h.byte_size(),
        before_bytes
    );
}

#[test]
fn recompress_leaves_collapses_zero_norm_formal_rank() {
    // A leaf carrying positive formal rank but zero Frobenius mass (e.g.
    // cancelled contributions accumulated under a high flush threshold)
    // must come out of recompress_leaves at rank 0.
    let (_, mut h, _) = build_test_h(10, 1e-8, AssembleMethod::Aca);
    let before = h.to_dense();
    let mut rng = rand::rngs::StdRng::seed_from_u64(78);
    let n = before.nrows();
    let panel = Mat::<f64>::random(64, 48, &mut rng);
    // Huge flush_rank: both updates stay formal until the explicit flush.
    h.try_axpy_dense_block_deferred(1.0, n - 64, 0, panel.as_ref(), 1e-8, usize::MAX)
        .unwrap();
    h.try_axpy_dense_block_deferred(-1.0, n - 64, 0, panel.as_ref(), 1e-8, usize::MAX)
        .unwrap();
    let formal_bytes = h.byte_size();
    h.recompress_leaves(1e-8);
    assert!(h.byte_size() <= formal_bytes);
    assert!(rel_err(&h.to_dense(), &before) < 1e-9);
}

/// Every stored scalar of `h`, leaf by leaf in child order, as bit patterns.
fn leaf_bits<T: Scalar>(h: &HMatrix<T>, out: &mut Vec<u64>) {
    let mut push = |m: &Mat<T>| {
        for x in m.data() {
            out.push(x.real().to_f64().to_bits());
            out.push(x.imag().to_f64().to_bits());
        }
    };
    match &h.kind {
        HKind::Dense(m) => push(m),
        HKind::DenseLu(f) => {
            push(&f.lu);
            out.extend(f.ipiv.iter().map(|&p| p as u64));
        }
        HKind::DenseLdlt(f) => push(&f.ld),
        HKind::Mirror => {}
        HKind::LowRank(lr) => {
            push(&lr.u);
            push(&lr.v);
        }
        HKind::Hier(ch) => ch.iter().for_each(|c| leaf_bits(c, out)),
    }
}

/// A 1 024-point kernel matrix, fully stored or `half`-stored: three levels
/// of the block recursion sit at or above [`TASK_MIN_ROWS`], so the
/// factorization really forks at 2 threads and more.
fn task_sized_h<T: Scalar>(
    entry: impl Fn(&[Point3], usize, usize) -> T + Sync,
    half: bool,
) -> HMatrix<T> {
    let pts = surface_points(32);
    assert!(pts.len() / 4 >= TASK_MIN_ROWS);
    let tree = ClusterTree::build(&pts, 24);
    let oracle = |i: usize, j: usize| entry(&pts, tree.perm[i], tree.perm[j]);
    let opts = HOptions {
        eps: 1e-4,
        ..Default::default()
    };
    if half {
        HMatrix::assemble_symmetric(&tree, &oracle, &opts)
    } else {
        HMatrix::assemble_root(&tree, &tree, &oracle, &opts)
    }
}

/// Factor at 1, 2, 4 and 8 threads: identical bits, and the structure counts
/// of the factors as recorded (for H-LU: at the commit before it ran as
/// tasks, and before the rounded addition was rewritten) — neither may move
/// a rank.
fn check_thread_invariant_factor<T: Scalar>(build: impl Fn() -> HMatrix<T>, recorded: HStats) {
    let factor_at = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let f = pool
            .install(|| HLu::factor(build(), T::Real::from_f64_real(1e-4)))
            .unwrap();
        let mut bits = Vec::new();
        leaf_bits(&f.h, &mut bits);
        (f.stats(), bits)
    };
    let (stats, bits) = factor_at(1);
    assert_eq!(stats, recorded);
    for threads in [2, 4, 8] {
        let (s, b) = factor_at(threads);
        assert_eq!(s, stats, "{threads} threads: stats");
        assert!(b == bits, "{threads} threads: factors differ bitwise");
    }
}

#[test]
fn hlu_is_thread_invariant_and_keeps_recorded_ranks_real() {
    let n = 1024.0;
    check_thread_invariant_factor(
        || task_sized_h(|pts, i, j| kernel_entry(pts, n, i, j), false),
        HStats {
            dense_leaves: 484,
            lowrank_leaves: 660,
            max_rank: 12,
            bytes: 3_098_880,
            dense_bytes: 1024 * 1024 * 8,
        },
    );
}

#[test]
fn hlu_is_thread_invariant_and_keeps_recorded_ranks_complex() {
    check_thread_invariant_factor(
        || task_sized_h(|pts, i, j| helmholtz_entry(pts, 1024.0, i, j), false),
        HStats {
            dense_leaves: 484,
            lowrank_leaves: 660,
            max_rank: 13,
            bytes: 6_399_488,
            dense_bytes: 1024 * 1024 * 16,
        },
    );
}

#[test]
fn hldlt_is_thread_invariant_and_keeps_recorded_ranks_real() {
    let n = 1024.0;
    check_thread_invariant_factor(
        || task_sized_h(|pts, i, j| kernel_entry(pts, n, i, j), true),
        // H-LU's 64 diagonal leaves plus half of its other 420 dense and 660
        // low-rank ones, ranks unchanged.
        HStats {
            dense_leaves: 274,
            lowrank_leaves: 330,
            max_rank: 12,
            bytes: 1_611_264,
            dense_bytes: 1024 * 1024 * 8,
        },
    );
}

#[test]
fn hldlt_is_thread_invariant_and_keeps_recorded_ranks_complex() {
    check_thread_invariant_factor(
        || task_sized_h(|pts, i, j| helmholtz_entry(pts, 1024.0, i, j), true),
        HStats {
            dense_leaves: 274,
            lowrank_leaves: 330,
            max_rank: 13,
            bytes: 3_329_536,
            dense_bytes: 1024 * 1024 * 16,
        },
    );
}

/// Bytes of the diagonal and lower blocks of a fully stored matrix.
fn lower_bytes<T: Scalar>(h: &HMatrix<T>) -> usize {
    match &h.kind {
        HKind::Hier(ch) => lower_bytes(&ch[0]) + ch[1].byte_size() + lower_bytes(&ch[3]),
        _ => h.byte_size(),
    }
}

/// The same deferred AXPYs (leaf flushes included) into a fully stored and a
/// half-stored copy of one symmetric matrix: the half-stored one holds the
/// full one's diagonal and lower blocks bit for bit and nothing else, and
/// densifies to an exactly symmetric matrix whose lower triangle is the full
/// one's.
#[test]
fn half_storage_keeps_the_full_lower_blocks_bitwise() {
    let pts = surface_points(14);
    let n = pts.len();
    let tree = ClusterTree::build(&pts, 24);
    let oracle = |i: usize, j: usize| kernel_entry(&pts, n as f64, tree.perm[i], tree.perm[j]);
    let opts = HOptions {
        eps: 1e-6,
        eta: 6.0,
        max_rank: 64,
        method: AssembleMethod::Aca,
    };
    let mut full = HMatrix::assemble_root(&tree, &tree, &oracle, &opts);
    let mut half = HMatrix::assemble_symmetric(&tree, &oracle, &opts);
    assert!(half.is_half());
    let mut rng = rand::rngs::StdRng::seed_from_u64(91);
    // Whole columns, a lower and an upper panel, one across the diagonal.
    for &(r0, c0, pm, pn) in &[
        (0usize, 0usize, n, 24usize),
        (n / 2 + 3, 5, 40, 31),
        (5, n / 2 + 3, 31, 40),
        (n / 3, n / 3, 57, 57),
        (0, n - 30, n, 30),
    ] {
        let panel = Mat::<f64>::random(pm, pn, &mut rng);
        for h in [&mut full, &mut half] {
            h.try_axpy_dense_block_deferred(-0.8, r0, c0, panel.as_ref(), 1e-6, 6)
                .unwrap();
        }
    }
    for h in [&mut full, &mut half] {
        h.recompress_leaves(1e-6);
    }
    assert_eq!(half.byte_size(), lower_bytes(&full));
    assert!(half.byte_size() < full.byte_size());
    assert_eq!(half.byte_size(), half.stats().bytes);
    let (dh, df) = (half.to_dense(), full.to_dense());
    for j in 0..n {
        for i in j..n {
            assert_eq!(
                dh[(i, j)].to_bits(),
                df[(i, j)].to_bits(),
                "lower ({i}, {j})"
            );
            assert_eq!(
                dh[(i, j)].to_bits(),
                dh[(j, i)].to_bits(),
                "symmetric ({i}, {j})"
            );
        }
    }
    let mut mirrored = full;
    mirrored.mirror_upper();
    let (mut want, mut got) = (Vec::new(), Vec::new());
    leaf_bits(&mirrored, &mut want);
    leaf_bits(&half, &mut got);
    assert!(got == want, "stored blocks differ bitwise");
    assert_eq!(mirrored.byte_size(), half.byte_size());
}

/// H-LDLᵀ of a half-stored symmetric matrix (real, and complex with the
/// plain transpose) solves like dense LDLᵀ of the same matrix, in less
/// storage than H-LU of the fully stored one.
#[test]
fn hldlt_solves_like_dense_ldlt() {
    fn check<T: Scalar>(entry: impl Fn(&[Point3], usize, usize) -> T + Sync, seed: u64) {
        let pts = surface_points(16);
        let n = pts.len();
        let tree = ClusterTree::build(&pts, 16);
        let oracle = |i: usize, j: usize| entry(&pts, tree.perm[i], tree.perm[j]);
        let opts = HOptions {
            eps: 1e-10,
            eta: 6.0,
            ..Default::default()
        };
        let half = HMatrix::assemble_symmetric(&tree, &oracle, &opts);
        let full = HMatrix::assemble_root(&tree, &tree, &oracle, &opts);
        let dense = Mat::from_fn(n, n, oracle);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let b = Mat::<T>::random(n, 3, &mut rng);
        let mut want = b.clone();
        let ldlt = csolve_dense::ldlt_in_place(dense).unwrap();
        csolve_dense::ldlt_solve_in_place(&ldlt, want.as_mut());
        let f = HLu::factor(half, T::Real::from_f64_real(1e-12)).unwrap();
        let mut x = b;
        f.solve_in_place(x.as_mut());
        x.axpy(-T::ONE, &want);
        let err = x.norm_fro() / want.norm_fro();
        assert!(
            err < T::Real::from_f64_real(1e-7),
            "solve err {:.3e}",
            err.to_f64()
        );
        let lu = HLu::factor(full, T::Real::from_f64_real(1e-12)).unwrap();
        assert!(f.byte_size() < lu.byte_size());
    }
    check(|pts, i, j| kernel_entry(pts, pts.len() as f64, i, j), 93);
    check(|pts, i, j| helmholtz_entry(pts, pts.len() as f64, i, j), 94);
}
