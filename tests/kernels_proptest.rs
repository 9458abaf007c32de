//! Property tests of the GEMM routes — the cache-blocked packed engine and the
//! unpacked small-shape tiles: for every operand transposition, scalar type,
//! stride pattern and degenerate shape, `gemm` (whichever route the shape
//! picks) and `gemm_packed` (the packed route at any shape) must agree with
//! the retained naive reference kernel (`gemm_naive`) — and their results must
//! be bitwise identical for any rayon thread count.
//!
//! And of the column-separable base case of `trsm_left` (triangles up to
//! `k = 64`): a panel through it must give every column the bits it gets
//! alone, whatever rides beside it.

use csolve_common::{RealScalar, Scalar, C64};
use csolve_dense::gemm::gemm_packed;
use csolve_dense::{gemm, gemm_naive, trsm_left, Diag, Mat, MatMut, MatRef, Op, Tri};
use proptest::prelude::*;
use rand::SeedableRng;

fn op_of(i: usize) -> Op {
    match i % 3 {
        0 => Op::NoTrans,
        1 => Op::Trans,
        _ => Op::ConjTrans,
    }
}

/// Storage shape of an operand whose `op`-applied shape is `rows × cols`.
fn stored(op: Op, rows: usize, cols: usize) -> (usize, usize) {
    match op {
        Op::NoTrans => (rows, cols),
        Op::Trans | Op::ConjTrans => (cols, rows),
    }
}

/// A GEMM entry point: [`gemm`] or [`gemm_packed`].
type Route<T> = fn(T, MatRef<'_, T>, Op, MatRef<'_, T>, Op, T, MatMut<'_, T>);

/// Max elementwise |gemm − gemm_naive| for one random instance. `pad > 0`
/// embeds every operand in a larger parent matrix so all views are strided
/// (column stride ≠ row count).
#[allow(clippy::too_many_arguments)]
fn max_err<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    opa: Op,
    opb: Op,
    alpha: T,
    beta: T,
    pad: usize,
    seed: u64,
) -> f64 {
    max_err_of(gemm, m, n, k, opa, opb, alpha, beta, pad, seed)
}

/// [`max_err`] of `route` in place of `gemm`.
#[allow(clippy::too_many_arguments)]
fn max_err_of<T: Scalar>(
    route: Route<T>,
    m: usize,
    n: usize,
    k: usize,
    opa: Op,
    opb: Op,
    alpha: T,
    beta: T,
    pad: usize,
    seed: u64,
) -> f64 {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let (ar, ac) = stored(opa, m, k);
    let (br, bc) = stored(opb, k, n);
    let a = Mat::<T>::random(ar + pad, ac + pad, &mut rng);
    let b = Mat::<T>::random(br + pad, bc + pad, &mut rng);
    let c0 = Mat::<T>::random(m + pad, n + pad, &mut rng);

    let av = a.view(pad..pad + ar, 0..ac);
    let bv = b.view(0..br, pad..pad + bc);

    let mut c_ref = c0.clone();
    let mut c_new = c0.clone();
    gemm_naive(
        alpha,
        av,
        opa,
        bv,
        opb,
        beta,
        c_ref.view_mut(pad..pad + m, 0..n),
    );
    route(
        alpha,
        av,
        opa,
        bv,
        opb,
        beta,
        c_new.view_mut(pad..pad + m, 0..n),
    );

    let mut err = 0.0f64;
    for j in 0..n {
        for i in 0..m {
            let d = c_ref[(pad + i, j)] - c_new[(pad + i, j)];
            let e = d.abs().to_f64();
            err = err.max(e);
        }
    }
    err
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn gemm_matches_naive_f64(
        mnk in (1usize..96, 1usize..96, 1usize..96),
        ops in (0usize..3, 0usize..3),
        coeffs in (-2.0f64..2.0, -2.0f64..2.0),
        ps in (0usize..5, 0u64..1_000),
    ) {
        let ((m, n, k), (ia, ib), (alpha, beta), (pad, seed)) = (mnk, ops, coeffs, ps);
        let err = max_err::<f64>(m, n, k, op_of(ia), op_of(ib), alpha, beta, pad, seed);
        prop_assert!(err < 1e-11, "f64 err {err:.3e} at m={m} n={n} k={k}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn gemm_matches_naive_c64(
        mnk in (1usize..72, 1usize..72, 1usize..72),
        ops in (0usize..3, 0usize..3),
        reim in (-2.0f64..2.0, -2.0f64..2.0),
        ps in (0usize..5, 0u64..1_000),
    ) {
        let ((m, n, k), (ia, ib), (re, im), (pad, seed)) = (mnk, ops, reim, ps);
        let alpha = C64::new(re, im);
        let beta = C64::new(im, -re);
        let err = max_err::<C64>(m, n, k, op_of(ia), op_of(ib), alpha, beta, pad, seed);
        prop_assert!(err < 1e-10, "C64 err {err:.3e} at m={m} n={n} k={k}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn gemm_matches_naive_at_blocked_sizes(
        mnk in (100usize..180, 100usize..180, 100usize..260),
        ops in (0usize..3, 0usize..3),
        seed in 0u64..1_000,
    ) {
        let ((m, n, k), (ia, ib)) = (mnk, ops);
        // Large enough that the packed macro-tile path (not the small-size
        // naive fallback) is exercised for both scalar types.
        let err = max_err::<f64>(m, n, k, op_of(ia), op_of(ib), 1.5, -0.5, 0, seed);
        prop_assert!(err < 1e-11, "f64 err {err:.3e} at m={m} n={n} k={k}");
        let err = max_err::<C64>(
            m / 2, n / 2, k / 2,
            op_of(ia), op_of(ib),
            C64::new(1.0, 0.5), C64::new(-0.5, 0.25),
            0, seed,
        );
        prop_assert!(err < 1e-10, "C64 err {err:.3e} at m={m} n={n} k={k}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    /// The split-complex packed path (two real planes, four real-plane
    /// passes per micro-tile) at sizes past the blocked threshold, with
    /// strided views and every Op combination — including `ConjTrans`,
    /// whose conjugation is folded into the plane packing.
    #[test]
    fn split_complex_blocked_path_matches_naive_with_strides(
        mnk in (96usize..160, 96usize..160, 96usize..200),
        ops in (0usize..3, 0usize..3),
        ps in (1usize..5, 0u64..1_000),
    ) {
        let ((m, n, k), (ia, ib), (pad, seed)) = (mnk, ops, ps);
        let err = max_err::<C64>(
            m, n, k,
            op_of(ia), op_of(ib),
            C64::new(1.25, -0.75), C64::new(0.5, 0.25),
            pad, seed,
        );
        prop_assert!(err < 1e-9, "C64 strided err {err:.3e} at m={m} n={n} k={k} pad={pad}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// The two routes side by side on the shapes where they meet: products a
    /// few register tiles wide (the sparse panel solve's, which `gemm` takes
    /// unpacked when real) and products of a few hundred flops, against the
    /// reference within `k·eps·‖A‖·‖B‖` — every `Op` pair, strided views,
    /// `m % 16 ≠ 0`, `n % 8 ≠ 0`, `k` from 0 up.
    #[test]
    fn small_route_and_packed_tile_match_naive(
        mnk in (1usize..70, 1usize..34, 0usize..200),
        ops in (0usize..3, 0usize..3),
        coeffs in (-2.0f64..2.0, -2.0f64..2.0),
        ps in (0usize..4, 0u64..1_000),
    ) {
        let ((m, n, k), (ia, ib), (re, im), (pad, seed)) = (mnk, ops, coeffs, ps);
        // Every other case a `k` below one vector: 0, 1, 7 and their neighbours.
        let k = if seed % 2 == 0 { k % 8 } else { k };
        let (opa, opb) = (op_of(ia), op_of(ib));
        // Entries lie in (-1, 1) (modulus below √2 when complex), |α|, |β| < 3.
        let tol = 8.0 * (k + 2) as f64 * f64::EPSILON * 3.0;
        for (route, what) in [(gemm as Route<f64>, "gemm"), (gemm_packed as Route<f64>, "packed")] {
            let err = max_err_of(route, m, n, k, opa, opb, re, im, pad, seed);
            prop_assert!(err <= tol, "f64 {what} err {err:.3e} at m={m} n={n} k={k} {opa:?} {opb:?}");
        }
        let (alpha, beta) = (C64::new(re, im), C64::new(im, -re));
        for (route, what) in [(gemm as Route<C64>, "gemm"), (gemm_packed as Route<C64>, "packed")] {
            let err = max_err_of(route, m, n, k, opa, opb, alpha, beta, pad, seed);
            prop_assert!(err <= 8.0 * tol, "C64 {what} err {err:.3e} at m={m} n={n} k={k} {opa:?} {opb:?}");
        }
    }
}

/// Degenerate shapes: any of m/n/k zero must not touch memory it should not,
/// and `k == 0` must still apply β (including the β = 0 NaN-clearing rule).
#[test]
fn degenerate_dims_match_naive() {
    for &(m, n, k) in &[(0usize, 7usize, 5usize), (7, 0, 5), (7, 5, 0), (0, 0, 0)] {
        let err = max_err::<f64>(m, n, k, Op::NoTrans, Op::Trans, 2.0, 0.5, 1, 7);
        assert_eq!(err, 0.0, "degenerate ({m},{n},{k})");
        let err = max_err::<C64>(
            m,
            n,
            k,
            Op::ConjTrans,
            Op::NoTrans,
            C64::new(2.0, -1.0),
            C64::new(0.5, 0.5),
            1,
            7,
        );
        assert_eq!(err, 0.0, "C64 degenerate ({m},{n},{k})");
    }
    // k == 0 with β == 0 overwrites: NaN garbage in C must not survive.
    let a = Mat::<f64>::zeros(4, 0);
    let b = Mat::<f64>::zeros(0, 3);
    let mut c = Mat::<f64>::from_fn(4, 3, |_, _| f64::NAN);
    gemm(
        1.0,
        a.as_ref(),
        Op::NoTrans,
        b.as_ref(),
        Op::NoTrans,
        0.0,
        c.as_mut(),
    );
    for j in 0..3 {
        for i in 0..4 {
            assert_eq!(c[(i, j)], 0.0);
        }
    }
}

fn bits<T: Scalar>(c: &Mat<T>) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for j in 0..c.ncols() {
        for i in 0..c.nrows() {
            let v = c[(i, j)];
            out.push((v.real().to_f64().to_bits(), v.imag().to_f64().to_bits()));
        }
    }
    out
}

fn gemm_bits_at<T: Scalar>(threads: usize, m: usize, n: usize, k: usize) -> Vec<(u64, u64)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let a = Mat::<T>::random(m, k, &mut rng);
    let b = Mat::<T>::random(k, n, &mut rng);
    let mut c = Mat::<T>::zeros(m, n);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    pool.install(|| {
        gemm(
            T::ONE,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            Op::NoTrans,
            T::ZERO,
            c.as_mut(),
        )
    });
    bits(&c)
}

/// The route is picked from the shape alone, the macro-tile grid is fixed by
/// shape alone and each tile accumulates its KC slabs in a fixed order, so
/// GEMM must be *bitwise* reproducible across thread counts — well above the
/// parallel flop threshold, on a panel-solve shape (unpacked when real), and
/// on a product of a few hundred flops.
#[test]
fn gemm_is_bitwise_identical_for_1_2_4_threads() {
    for (m, n, k) in [(300, 280, 150), (300, 32, 150), (7, 5, 3)] {
        let ref_f64 = gemm_bits_at::<f64>(1, m, n, k);
        let ref_c64 = gemm_bits_at::<C64>(1, m, n, k);
        for threads in [2usize, 4] {
            assert_eq!(
                gemm_bits_at::<f64>(threads, m, n, k),
                ref_f64,
                "f64 {m}x{n}x{k} gemm diverged with {threads} threads"
            );
            assert_eq!(
                gemm_bits_at::<C64>(threads, m, n, k),
                ref_c64,
                "C64 {m}x{n}x{k} gemm diverged with {threads} threads"
            );
        }
    }
}

/// Matvec (the single-column GEMM route) is chunking-invariant too.
#[test]
fn single_column_gemm_is_bitwise_identical_across_threads() {
    let (m, k) = (600, 400);
    let run = |threads: usize| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a = Mat::<f64>::random(m, k, &mut rng);
        let b = Mat::<f64>::random(k, 1, &mut rng);
        let mut c = Mat::<f64>::zeros(m, 1);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            gemm(
                1.0,
                a.as_ref(),
                Op::NoTrans,
                b.as_ref(),
                Op::NoTrans,
                0.0,
                c.as_mut(),
            )
        });
        bits(&c)
    };
    let reference = run(1);
    assert_eq!(run(2), reference, "2 threads");
    assert_eq!(run(4), reference, "4 threads");
}

/// Width of the triangular solve's register blocks (`RHS_BLOCK` in
/// `trsm.rs`, private): the widths below run to `2·block + 1` so a panel has
/// whole blocks, a remainder, or both.
const REGISTER_BLOCK: usize = 4;

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
}

/// A `rows × w` right-hand side inside a `(rows + pad)`-row parent (so its
/// view is strided), seeded with exact `0.0` and `-0.0` entries and — from
/// two columns on — one whole zero column: the cases in which the kernels'
/// skip-on-exact-zero decides bits (`-0.0 − 0.0·t` is `-0.0` only if skipped).
fn seeded_rhs<T: Scalar>(
    rows: usize,
    w: usize,
    pad: usize,
    rng: &mut rand::rngs::StdRng,
) -> Mat<T> {
    use rand::Rng;
    let zero_col = rng.random_range(0..w.max(1));
    Mat::from_fn(rows + pad, w, |_, j| {
        let v = T::rand_unit(rng);
        match rng.random_range(0..8u32) {
            _ if w > 1 && j == zero_col => T::ZERO,
            0 => T::ZERO,
            1 => -T::ZERO,
            _ => v,
        }
    })
}

/// `trsm_left` on a `k × w` panel against `trsm_left` on each of its columns
/// alone (a width-1 call takes the single-column reference kernel), bitwise.
/// `k ≤ 64`: the blocked base case alone, which is column-separable; past
/// the recursion cutoff the off-diagonal updates are GEMMs, which are not.
#[allow(clippy::too_many_arguments)]
fn trsm_panel_matches_columns<T: Scalar>(
    tri: Tri,
    op: Op,
    diag: Diag,
    k: usize,
    w: usize,
    pad: usize,
    seed: u64,
    threads: usize,
) -> Result<(), String> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    // Garbage outside the triangle (and on a unit diagonal) must be ignored.
    let mut t = Mat::<T>::random(k + pad, k + pad, &mut rng);
    for i in 0..k {
        t[(pad + i, i)] = T::from_f64(2.0 + k as f64);
    }
    let tv = t.view(pad..pad + k, 0..k);
    let b0 = seeded_rhs::<T>(k, w, pad, &mut rng);
    let alpha = if seed.is_multiple_of(2) {
        T::ONE
    } else {
        T::from_f64(-0.75)
    };
    assert!(
        k <= 64,
        "past the base case a panel is not column-separable"
    );
    let mut panel = b0.clone();
    let mut alone = b0.clone();
    pool(threads).install(|| {
        trsm_left(tri, op, diag, alpha, tv, panel.view_mut(pad..pad + k, 0..w));
        for j in 0..w {
            let col = alone.view_mut(pad..pad + k, j..j + 1);
            trsm_left(tri, op, diag, alpha, tv, col);
        }
    });
    if bits(&panel) == bits(&alone) {
        Ok(())
    } else {
        Err(format!(
            "{tri:?} {op:?} {diag:?} k={k} w={w} pad={pad} seed={seed} threads={threads}"
        ))
    }
}

fn tri_diag_of(i: usize) -> (Tri, Diag) {
    (
        [Tri::Lower, Tri::Upper][i % 2],
        [Diag::Unit, Diag::NonUnit][i / 2 % 2],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// Every `Tri` × `Op` × `Diag`, `k` up to `TRSM_BLOCK` (the base case),
    /// every width up to two register blocks and one, strided views,
    /// zero-seeded right-hand sides, 1/2/4-thread pools.
    #[test]
    fn blocked_trsm_left_gives_each_column_its_own_bits(
        shape in (1usize..65, 1usize..(2 * REGISTER_BLOCK + 2), 0usize..4),
        variant in (0usize..4, 0usize..3),
        ps in (0u64..1_000, 0usize..3),
    ) {
        let ((k, w, pad), (td, io), (seed, it)) = (shape, variant, ps);
        let (tri, diag) = tri_diag_of(td);
        let threads = [1, 2, 4][it];
        let r = trsm_panel_matches_columns::<f64>(tri, op_of(io), diag, k, w, pad, seed, threads);
        prop_assert!(r.is_ok(), "f64 {}", r.unwrap_err());
        let r = trsm_panel_matches_columns::<C64>(tri, op_of(io), diag, k, w, pad, seed, threads);
        prop_assert!(r.is_ok(), "C64 {}", r.unwrap_err());
    }
}

/// The 16 variants at the sizes where the base case forks its column chunks
/// (`k²·w` past the matvec-class threshold), at 1, 2 and 4 threads.
#[test]
fn blocked_trsm_left_parallel_chunks_match_columns() {
    for td in 0..4 {
        let (tri, diag) = tri_diag_of(td);
        for io in 0..3 {
            for threads in [1, 2, 4] {
                trsm_panel_matches_columns::<f64>(tri, op_of(io), diag, 64, 70, 1, 5, threads)
                    .unwrap();
            }
            trsm_panel_matches_columns::<C64>(tri, op_of(io), diag, 64, 70, 2, 6, 2).unwrap();
        }
    }
}
