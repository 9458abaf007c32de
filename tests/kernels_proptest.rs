//! Property tests of the GEMM routes — the cache-blocked packed engine for
//! every product wider than a column, `matvec` for a single column: for every
//! operand transposition, scalar type, stride pattern and degenerate shape,
//! `gemm` (whichever route the shape picks) and `gemm_packed` (the packed
//! route at any shape, a single column included) must agree with the
//! retained naive reference kernel (`gemm_naive`) — and their results must be
//! bitwise identical for any rayon thread count.
//!
//! And of the triangle base cases of `trsm_left` and `trsm_right` (triangles
//! up to `k = 64`), which run on the lane kernel: a left solve must give
//! every column of its panel, a right solve every row, the bits it gets
//! alone, whatever rides beside it — across lane groups and workspaces.
//!
//! And of the one blocked LDLᵀ on its two storages: a half-stored
//! (block-column lower) matrix factors and solves to the full matrix's
//! result, bitwise at every thread count.
//!
//! And of `with_serial`, a one-thread budget under which every kernel stays
//! on the calling thread with the bits of its parallel call.

use csolve_common::{RealScalar, Scalar, C64};
use csolve_dense::gemm::gemm_packed;
use csolve_dense::lane::{self, Rows, Update, MAX_LANES};
use csolve_dense::{
    gemm, gemm_naive, gemm_par_flop_threshold, ldlt_in_place_nb, ldlt_solve_in_place,
    lower_block_width, matvec, trsm_left, trsm_right, with_serial, BlockLower, Diag, LdltFactors,
    Mat, MatMut, MatRef, Op, Tri, DEFAULT_PANEL_NB, PAR_FLOP_THRESHOLD,
};
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
    /// Products a few register tiles wide (the width of a sparse panel
    /// solve's chunk) and products of a few hundred flops through `gemm`, and
    /// the same `m×k` operand against one column through `gemm_packed` — the
    /// packed engine at `n = 1`, which `gemm` hands to `matvec` — against the
    /// reference within `k·eps·‖A‖·‖B‖`: every `Op` pair, strided views,
    /// `m % 16 ≠ 0`, `n % 8 ≠ 0`, `k` from 0 up.
    #[test]
    fn narrow_and_tiny_products_match_naive(
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
        let (alpha, beta) = (C64::new(re, im), C64::new(im, -re));
        for (what, n, real, complex) in [
            ("gemm", n, gemm as Route<f64>, gemm as Route<C64>),
            ("packed", 1, gemm_packed, gemm_packed),
        ] {
            let err = max_err_of(real, m, n, k, opa, opb, re, im, pad, seed);
            prop_assert!(err <= tol, "f64 {what} err {err:.3e} at m={m} n={n} k={k} {opa:?} {opb:?}");
            let err = max_err_of(complex, m, n, k, opa, opb, alpha, beta, pad, seed);
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
/// parallel flop threshold, on a panel-solve shape, and on a product of a
/// few hundred flops.
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

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
}

/// A `rows × w` right-hand side inside a `(rows + pad)`-row parent (so its
/// view is strided), seeded with exact `0.0` and `-0.0` entries and — from
/// two columns on — one whole zero column: the cases in which skipping an
/// exact-zero term would decide bits (`-0.0 − 0.0·t` is `-0.0` only if
/// skipped).
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

/// A `k × k` triangle inside a `(k + pad)`-square parent (so its view is
/// strided), with garbage outside the triangle and on a unit diagonal — both
/// must be ignored — and the `α` of `seed`.
fn strided_tri<T: Scalar>(
    k: usize,
    pad: usize,
    seed: u64,
    rng: &mut rand::rngs::StdRng,
) -> (Mat<T>, T) {
    let mut t = Mat::<T>::random(k + pad, k + pad, rng);
    for i in 0..k {
        t[(pad + i, i)] = T::from_f64(2.0 + k as f64);
    }
    let alpha = if seed.is_multiple_of(2) {
        T::ONE
    } else {
        T::from_f64(-0.75)
    };
    (t, alpha)
}

/// `trsm_left` on a `k × w` panel against `trsm_left` on each of its columns
/// alone, bitwise. `k ≤ 64`: the lane base case alone, which is
/// column-separable; past the recursion cutoff the off-diagonal updates are
/// GEMMs, which are not.
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
    assert!(
        k <= 64,
        "past the base case a panel is not column-separable"
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let (t, alpha) = strided_tri::<T>(k, pad, seed, &mut rng);
    let tv = t.view(pad..pad + k, 0..k);
    let b0 = seeded_rhs::<T>(k, w, pad, &mut rng);
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
            "left {tri:?} {op:?} {diag:?} k={k} w={w} pad={pad} seed={seed} threads={threads}"
        ))
    }
}

/// The mirror of [`trsm_panel_matches_columns`]: `trsm_right` on a `w × k`
/// panel against `trsm_right` on each of its rows alone, bitwise — the rows
/// are the lanes of the right solve.
#[allow(clippy::too_many_arguments)]
fn trsm_panel_matches_rows<T: Scalar>(
    tri: Tri,
    op: Op,
    diag: Diag,
    k: usize,
    w: usize,
    pad: usize,
    seed: u64,
    threads: usize,
) -> Result<(), String> {
    assert!(k <= 64, "past the base case a panel is not row-separable");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let (t, alpha) = strided_tri::<T>(k, pad, seed, &mut rng);
    let tv = t.view(pad..pad + k, 0..k);
    // The seeded columns become rows (one whole zero row from two rows on),
    // under `pad` rows of garbage.
    let src = seeded_rhs::<T>(k, w, 0, &mut rng);
    let b0 = Mat::from_fn(pad + w, k, |i, j| {
        if i < pad {
            T::from_f64(7.0)
        } else {
            src[(j, i - pad)]
        }
    });
    let mut panel = b0.clone();
    let mut alone = b0.clone();
    pool(threads).install(|| {
        trsm_right(tri, op, diag, alpha, tv, panel.view_mut(pad..pad + w, 0..k));
        for i in pad..pad + w {
            trsm_right(tri, op, diag, alpha, tv, alone.view_mut(i..i + 1, 0..k));
        }
    });
    if bits(&panel) == bits(&alone) {
        Ok(())
    } else {
        Err(format!(
            "right {tri:?} {op:?} {diag:?} k={k} w={w} pad={pad} seed={seed} threads={threads}"
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
    /// every width up to two workspaces and one (lane groups of 8, several
    /// workspaces), strided views, zero-seeded right-hand sides, 1/2/4-thread
    /// pools.
    #[test]
    fn blocked_trsm_left_gives_each_column_its_own_bits(
        shape in (1usize..65, 1usize..(2 * MAX_LANES + 2), 0usize..4),
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

    /// The same cells for `trsm_right`, whose lanes are the rows of `B`:
    /// each row gets the bits it gets alone.
    #[test]
    fn blocked_trsm_right_gives_each_row_its_own_bits(
        shape in (1usize..65, 1usize..(2 * MAX_LANES + 2), 0usize..4),
        variant in (0usize..4, 0usize..3),
        ps in (0u64..1_000, 0usize..3),
    ) {
        let ((k, w, pad), (td, io), (seed, it)) = (shape, variant, ps);
        let (tri, diag) = tri_diag_of(td);
        let threads = [1, 2, 4][it];
        let r = trsm_panel_matches_rows::<f64>(tri, op_of(io), diag, k, w, pad, seed, threads);
        prop_assert!(r.is_ok(), "f64 {}", r.unwrap_err());
        let r = trsm_panel_matches_rows::<C64>(tri, op_of(io), diag, k, w, pad, seed, threads);
        prop_assert!(r.is_ok(), "C64 {}", r.unwrap_err());
    }
}

/// The 16 variants at the sizes where the left base case forks its lane
/// groups (`k²·w` past the matvec-class threshold), at 1, 2 and 4 threads.
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

/// A symmetric (complex: plain-transpose symmetric) diagonally dominant
/// matrix of order `n`.
fn dominant_symmetric<T: Scalar>(n: usize, rng: &mut rand::rngs::StdRng) -> Mat<T> {
    let b = Mat::<T>::random(n, n, rng);
    let mut a = b.clone();
    a.axpy(T::ONE, &b.transpose());
    for i in 0..n {
        a[(i, i)] += T::from_f64(2.0 * n as f64 + 1.0);
    }
    a
}

/// The entries of a factor's lower triangle, row-major by column.
fn lower_of<T: Scalar>(f: &LdltFactors<T>) -> Vec<T> {
    let n = f.ld.n();
    (0..n)
        .flat_map(|j| (j..n).map(move |i| (i, j)))
        .map(|ij| f.ld[ij])
        .collect()
}

/// Whether `got` is `want` bit for bit, and the largest `|got − want|` over
/// the largest `|want|`.
fn compare<T: Scalar>(got: &[T], want: &[T]) -> (bool, f64) {
    let bit = |v: &T| (v.real().to_f64().to_bits(), v.imag().to_f64().to_bits());
    let same = got.iter().map(bit).eq(want.iter().map(bit));
    let scale = want.iter().map(|v| v.abs().to_f64()).fold(0.0, f64::max);
    let diff = got
        .iter()
        .zip(want)
        .map(|(g, w)| (*g - *w).abs().to_f64())
        .fold(0.0, f64::max);
    (same, diff / scale.max(f64::MIN_POSITIVE))
}

/// One order and panel width: the half-stored LDLᵀ and its solve against
/// [`ldlt_in_place_nb`] on the full matrix — bitwise, or within 100·ε — and
/// the half-stored run bitwise at 1, 2 and 4 threads. Returns whether the
/// factor and the solution came out bitwise equal to the full ones.
fn half_vs_full<T: Scalar>(n: usize, nb: usize, seed: u64) -> (bool, bool) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let a = dominant_symmetric::<T>(n, &mut rng);
    let rhs = Mat::<T>::random(n, 3, &mut rng);
    let b = lower_block_width(nb);
    let solve = |f: &LdltFactors<T>| {
        let mut x = rhs.clone();
        ldlt_solve_in_place(f, x.as_mut());
        x
    };
    let full = ldlt_in_place_nb(a.clone(), nb).unwrap();
    let x_full = solve(&full);
    let cell = format!("{} n = {n}, nb = {nb}, b = {b}", std::any::type_name::<T>());
    let mut half_bits = None;
    for threads in [1, 2, 4] {
        let (half, x_half) = pool(threads).install(|| {
            let half = ldlt_in_place_nb(BlockLower::from_full(a.clone(), b), nb).unwrap();
            let x = solve(&half);
            (half, x)
        });
        assert_eq!(half.ld.blocks(), n.div_ceil(b), "{cell}");
        let (lower, x) = (lower_of(&half), x_half.data().to_vec());
        match &half_bits {
            None => half_bits = Some((lower, x)),
            Some((l1, x1)) => {
                assert!(compare(&lower, l1).0, "{cell}: factor at {threads} threads");
                assert!(compare(&x, x1).0, "{cell}: solution at {threads} threads");
            }
        }
    }
    let (lower, x) = half_bits.unwrap();
    let eps = T::Real::EPSILON.to_f64();
    let (factor_same, factor_diff) = compare(&lower, &lower_of(&full));
    assert!(
        factor_diff <= 100.0 * eps,
        "{cell}: factor off by {factor_diff:.3e}"
    );
    let (x_same, x_diff) = compare(&x, x_full.data());
    assert!(
        x_diff <= 100.0 * eps,
        "{cell}: solution off by {x_diff:.3e}"
    );
    // The solve alone moves no bit: the full factor, repacked, solves to
    // the full solution exactly.
    let repacked = LdltFactors {
        ld: BlockLower::from_full(full.ld.to_full(), b),
    };
    assert!(
        compare(solve(&repacked).data(), x_full.data()).0,
        "{cell}: the block-column solve differs from the full triangle"
    );
    (factor_same, x_same)
}

/// The half-stored LDLᵀ (`BlockLower`, blocks of `lower_block_width(nb)`)
/// against the full one on the same matrix, orders 1, `b − 1`, `b`, `b + 1`
/// and `2b + 37`, `f64` and `C64`.
///
/// The solve moves no bit: its block triangles give every row its terms in
/// the full triangle's order. The factorization's arithmetic per element is
/// that of the trailing-update GEMMs: the full matrix cuts the trailing
/// columns into 128-wide chunks from the panel on, the half-stored one into
/// its blocks. Every chunk wider than one column takes the packed route,
/// whose bits per element do not depend on the chunk's width, so the factor
/// and the solution are bitwise the full ones. The exception is order
/// `b + 1`: its last block is one column, which `gemm` hands to `matvec`
/// (adding each term into `C` instead of summing the panel's terms first).
/// There the bits may move, by a rounding: within 100·ε of the full factor,
/// and the solution with it.
#[test]
fn half_stored_ldlt_matches_the_full_one() {
    for nb in [1usize, 8, 33, 48, 200] {
        let b = lower_block_width(nb);
        for n in [1, b - 1, b, b + 1, 2 * b + 37] {
            let seed = (n * 1000 + nb) as u64;
            for (scalar, (factor_same, x_same)) in [
                ("f64", half_vs_full::<f64>(n, nb, seed)),
                ("c64", half_vs_full::<C64>(n, nb, seed + 1)),
            ] {
                let cell = format!("{scalar} n = {n} nb = {nb} b = {b}");
                if n != b + 1 {
                    assert!(
                        factor_same,
                        "{cell}: the factor is not the full one bitwise"
                    );
                    assert!(x_same, "{cell}: the solution is not the full one bitwise");
                }
            }
        }
    }
}

/// `with_serial` is a one-thread budget: under a 4-thread pool the code it
/// wraps reads one thread and forks nothing, and each kernel gives the bits
/// of its unwrapped parallel call — a GEMM above the packed route's fork
/// threshold, a matvec above [`PAR_FLOP_THRESHOLD`], a 96-column lane panel
/// (every group of which runs on the calling thread) and a multi-block
/// half-stored LDLᵀ above the factorization's fork threshold.
#[test]
fn with_serial_pins_every_kernel_to_the_calling_thread() {
    let pool = pool(4);
    let parallel_and_serial =
        |f: &(dyn Fn() -> Vec<u64> + Sync)| pool.install(|| (f(), with_serial(f)));
    assert_eq!(pool.install(|| with_serial(rayon::current_num_threads)), 1);
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    let f64_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let threshold = gemm_par_flop_threshold(std::mem::size_of::<f64>());

    let n = (threshold / 2.0).cbrt() as usize + 1;
    let (a, b) = (
        Mat::<f64>::random(n, n, &mut rng),
        Mat::<f64>::random(n, n, &mut rng),
    );
    let (par, ser) = parallel_and_serial(&|| {
        let mut c = Mat::<f64>::zeros(n, n);
        gemm(
            1.0,
            a.as_ref(),
            Op::NoTrans,
            b.as_ref(),
            Op::Trans,
            0.0,
            c.as_mut(),
        );
        f64_bits(c.data())
    });
    assert!(par == ser, "GEMM of order {n}");

    let (m, k) = (600, 400);
    assert!(2.0 * (m * k) as f64 >= PAR_FLOP_THRESHOLD);
    let (a, x) = (Mat::<f64>::random(m, k, &mut rng), vec![0.5; k]);
    let (par, ser) = parallel_and_serial(&|| {
        let mut y = vec![0.25; m];
        matvec(2.0, a.as_ref(), Op::NoTrans, &x, 0.5, &mut y);
        f64_bits(&y)
    });
    assert!(par == ser, "matvec {m} x {k}");

    let (t, _) = strided_tri::<f64>(64, 0, 0, &mut rng);
    let b0 = seeded_rhs::<f64>(64, 96, 0, &mut rng);
    let callers = std::sync::Mutex::new(std::collections::HashSet::new());
    let (par, ser) = parallel_and_serial(&|| {
        callers.lock().unwrap().clear();
        let mut x = b0.clone();
        lane::solve_panel(x.as_mut(), (Rows::From(0), Rows::From(0)), |ws| {
            callers.lock().unwrap().insert(std::thread::current().id());
            let (tri, op, diag) = (Tri::Lower, Op::NoTrans, Diag::NonUnit);
            lane::solve_tri(
                ws.shape(),
                Update::Sub,
                t.as_ref(),
                tri,
                op,
                diag,
                ws.as_mut_slice(),
            );
        });
        f64_bits(x.data())
    });
    assert!(par == ser, "96-column lane panel");
    let callers = callers.into_inner().unwrap();
    assert!(
        callers.len() == 1 && callers.contains(&std::thread::current().id()),
        "a lane group under with_serial left the calling thread"
    );

    let bw = lower_block_width(DEFAULT_PANEL_NB);
    let n = ((3.0 * threshold).cbrt() as usize + 1).max(2 * bw + 37);
    let s = dominant_symmetric::<f64>(n, &mut rng);
    let (par, ser) = parallel_and_serial(&|| {
        let half = BlockLower::from_full(s.clone(), bw);
        let f = ldlt_in_place_nb(half, DEFAULT_PANEL_NB).unwrap();
        assert!(f.ld.blocks() > 2);
        f64_bits(&lower_of(&f))
    });
    assert!(par == ser, "half-stored LDLT of order {n}");
}
