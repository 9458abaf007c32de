//! Kernel throughput report: sweeps GEMM, TRSM and the blocked
//! factorizations over a range of sizes, for `f64` and `C64`, at a
//! configurable set of thread counts, and prints achieved GF/s and the
//! speedup over the one-thread blocked run next to the naive reference
//! kernel.
//!
//! Under `--smoke` (small sizes, few repetitions) the run **fails** when
//! c64 blocked-serial GEMM is not ≥ [`C64_VS_NAIVE_GATE`] times the naive
//! reference of the same run, when any blocked GEMM measures below its
//! naive reference, when a rounded low-rank addition costs
//! more than [`RECOMPRESS_GATE`] rank-revealing QRs of the same block (the
//! `recompress` rows), or when the chunked sparse panel solve at `P` threads
//! takes more than [`PANEL_SOLVE_GATE`] of its own one-thread wall (the
//! `sparse_panel_solve` row; skipped, loudly, on a one-core host), or when
//! `trsm_left`'s base case — its columns the lanes of one row-major
//! workspace, the triangle of the lane kernels — is less than
//! [`TRSM_LANES_GATE`] times faster than one call per column on the same
//! operands, or differs from those calls in a single bit (the `trsm_lanes`
//! row), or when a 32-wide sparse `solve_in_place` — its
//! columns the lanes of one row-major workspace — is less than
//! [`LANE_SOLVE_GATE`] times faster than 32 width-1 solves of the same
//! columns, or differs from them in a single bit (the `lane_solve` row), or
//! when an 8-wide H-LDLᵀ `HLu::solve_in_place` of a 2 401-point surface
//! kernel — the Schur solve of the HMAT backend, on the same lane
//! workspaces — is less than [`SCHUR_LANE_SOLVE_GATE`] times faster than 8
//! width-1 solves, or differs from them in a single bit (the
//! `schur_lane_solve` row), or when the half-stored LDLᵀ of an order-
//! [`LDLT_HALF_N`] matrix — its lower triangle in column blocks — differs in
//! a single bit of its lower triangle from the full matrix's LDLᵀ (the
//! `ldlt_half` row; its rate over the full one's is printed, not gated: a
//! shared host's wall noise is ±30 %).

use std::time::Instant;

use csolve::common::RealScalar;
use csolve::dense::{
    gemm, gemm_naive, ldlt_in_place_nb, lower_block_width, lu_in_place_nb, trsm_left, BlockLower,
    Diag, LdltFactors, Mat, Op, Tri,
};
use csolve::hmat::{ClusterTree, HLu, HMatrix, HOptions, Point3};
use csolve::lowrank::LowRank;
use csolve::sparse::{factorize, SparseOptions};
use csolve::{Scalar, C64};
use csolve_bench::{header, nproc, smoke_epilogue, Args, Flag};
use rand::SeedableRng;

const FLAGS: &[Flag] = &[
    // The smoke sizes need one past GATE_MIN_N; 64 covers the remainder tiles.
    Flag::value("--sizes", "128,256,512", "square problem sizes").smoke("64,256"),
    Flag::value("--threads", "0", "thread counts (0 = all cores; 1 always)"),
    Flag::SMOKE,
];

/// Floor, under `--smoke`, of c64 blocked-serial GEMM over the naive
/// reference kernel of the same run at the gated size. A same-run ratio, so
/// the host's speed level cancels: the split-plane kernel measures 6–7×, the
/// interleaved complex kernel it replaced 2×.
const C64_VS_NAIVE_GATE: f64 = 3.0;
/// The gate only judges sizes where the packed kernels are past their ramp;
/// tiny matrices never amortize the packing cost.
const GATE_MIN_N: usize = 192;

/// Ceiling of `recompress_vs_rrqr` under `--smoke`. A same-run ratio of two
/// kernels over the same blocks, so the host's speed level cancels. The
/// unpreconditioned three-dot-product Jacobi with explicit `Q` rebuilds
/// measured 6.4–7.9 (f64) / 5.6–8.4 (c64); the preconditioned one 3.0–3.3.
const RECOMPRESS_GATE: f64 = 4.0;
/// Shape of the `recompress` rows: H-LU's rounded addition at leaf scale.
const RECOMPRESS_SUMS: usize = 200;
const RECOMPRESS_N: usize = 64;
const RECOMPRESS_RANK: usize = 10;
const RECOMPRESS_EPS: f64 = 1e-4;

/// Ceiling of `sparse_panel_solve`'s `ratio` under `--smoke`: the wall of
/// `solve_sparse_rhs` at `P` threads over its wall at one thread, same run,
/// same factors, same panel. Four independent 32-column chunks on two idle
/// cores measure ≈ 0.55; a solve that stopped spreading its chunks reads 1.0.
const PANEL_SOLVE_GATE: f64 = 0.75;
/// Shape of the `sparse_panel_solve` row: the leading columns of `A_vs` of
/// the pipe problem at this many unknowns.
const PANEL_SOLVE_N: usize = 4000;
const PANEL_SOLVE_COLS: usize = 128;
/// Best of this many per thread count, the two alternating: one solve is
/// ≈ 10 ms, and a shared host can take a core away for longer than five of
/// them (best-of-5 read 1.0 there).
const PANEL_SOLVE_REPS: usize = 20;

/// Floor of the `trsm_lanes` row's `ratio` under `--smoke`: a 32-column
/// panel through `trsm_left`'s base case — one lane workspace — over one
/// call per column, same run, same operands. Measures 4.8–6.2× on a 2-core
/// AVX-512 host; a kernel that fell back to a per-column loop reads 1.0.
const TRSM_LANES_GATE: f64 = 2.0;
/// Shape of the `trsm_lanes` row: the diagonal block of a wide supernode
/// against a 32-column panel.
const TRSM_LANES_K: usize = 64;
const TRSM_LANES_NRHS: usize = 32;
/// Best of this many batches of [`BATCH_INNER`] calls (one call is µs).
const BATCH_REPS: usize = 9;
const BATCH_INNER: usize = 400;

/// Floor of the `lane_solve` row's `ratio` under `--smoke`: 32 width-1
/// `solve_in_place` calls over one 32-wide call on the same columns of
/// pipe-[`PANEL_SOLVE_N`], one thread, same run, the two alternating
/// repetition by repetition. About half the ratio measured on a 2-core
/// AVX-512 host, 7.4–10.0 (EXPERIMENTS.md); a solve whose lanes ran one
/// column at a time would read ≈ 1.
const LANE_SOLVE_GATE: f64 = 4.0;
/// Right-hand sides of the `lane_solve` row: one full workspace.
const LANE_SOLVE_COLS: usize = 32;
/// Best of this many of each side (one 32-wide solve is a few ms).
const LANE_SOLVE_REPS: usize = 7;

/// Floor of the `schur_lane_solve` row's `ratio` under `--smoke`: 8 width-1
/// `HLu::solve_in_place` calls over one 8-wide call on the same columns of
/// the H-LDLᵀ factors of a [`SCHUR_SIDE`]²-point surface kernel, one thread,
/// same run, the two alternating repetition by repetition. About half the
/// ratio measured on a 2-core AVX-512 host (EXPERIMENTS.md); a solve whose
/// lanes ran one column at a time would read ≈ 1.
const SCHUR_LANE_SOLVE_GATE: f64 = 4.0;
/// Points per side of the `schur_lane_solve` surface: 2 401 unknowns.
const SCHUR_SIDE: usize = 49;
/// Right-hand sides of the `schur_lane_solve` row: one 512-bit register.
const SCHUR_LANE_COLS: usize = 8;
/// Best of this many of each side (one 8-wide solve is ≈ 2 ms).
const SCHUR_LANE_REPS: usize = 15;

/// Order of the `ldlt_half` row's matrix.
const LDLT_HALF_N: usize = 1_000;
/// Best of this many of each storage (one factorization is tens of ms).
const LDLT_HALF_REPS: usize = 5;

/// One measured (kernel, scalar, size, variant, threads) cell.
struct Entry {
    kernel: &'static str,
    scalar: &'static str,
    n: usize,
    variant: &'static str,
    /// Thread budget the run executed under (1 for the serial variants).
    threads: usize,
    seconds: f64,
    gflops: f64,
    /// Wall-time speedup over the one-thread blocked run of the same
    /// (kernel, scalar, n); `None` for the references.
    speedup: Option<f64>,
}

fn pool(threads: usize) -> rayon::ThreadPool {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build();
    pool.expect("thread pool")
}

/// Best (minimum) seconds over `reps` runs of a self-timing closure.
fn best_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..reps.max(1)).map(|_| f()).fold(f64::INFINITY, f64::min)
}

/// Measure one blocked kernel serially and then across `pools`, pushing one
/// entry per thread count with the speedup-vs-serial column filled in.
#[allow(clippy::too_many_arguments)]
fn measure_blocked(
    out: &mut Vec<Entry>,
    kernel: &'static str,
    scalar: &'static str,
    n: usize,
    flops: f64,
    reps: usize,
    pools: &[rayon::ThreadPool],
    mut run: impl FnMut() -> f64,
) {
    let mut serial_secs = f64::NAN;
    for pool in pools {
        let secs = pool.install(|| best_of(reps, &mut run));
        let threads = pool.current_num_threads();
        let (variant, speedup) = if threads == 1 {
            serial_secs = secs;
            ("blocked-serial", 1.0)
        } else {
            ("blocked-threaded", serial_secs / secs)
        };
        out.push(Entry {
            kernel,
            scalar,
            n,
            variant,
            threads,
            seconds: secs,
            gflops: flops / secs / 1e9,
            speedup: Some(speedup),
        });
    }
}

/// Sweep every kernel at the given sizes for one scalar type.
///
/// `flop_scale` converts the real-arithmetic formulas to the complex
/// convention (a complex multiply-add is 8 real flops vs 2: scale 4).
fn sweep<T: Scalar>(
    scalar: &'static str,
    sizes: &[usize],
    reps: usize,
    flop_scale: f64,
    pools: &[rayon::ThreadPool],
    out: &mut Vec<Entry>,
) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    for &n in sizes {
        let a = Mat::<T>::random(n, n, &mut rng);
        let b = Mat::<T>::random(n, n, &mut rng);
        let nf = n as f64;

        // GEMM (C = A·B): naive reference, then the packed kernel across
        // the thread sweep.
        let gemm_flops = flop_scale * 2.0 * nf * nf * nf;
        let mut c = Mat::<T>::zeros(n, n);
        let run_naive = || {
            let t0 = Instant::now();
            gemm_naive(
                T::ONE,
                a.as_ref(),
                Op::NoTrans,
                b.as_ref(),
                Op::NoTrans,
                T::ZERO,
                c.as_mut(),
            );
            t0.elapsed().as_secs_f64()
        };
        let s = best_of(reps, run_naive);
        out.push(Entry {
            kernel: "gemm",
            scalar,
            n,
            variant: "naive-serial",
            threads: 1,
            seconds: s,
            gflops: gemm_flops / s / 1e9,
            speedup: None,
        });
        measure_blocked(out, "gemm", scalar, n, gemm_flops, reps, pools, || {
            let t0 = Instant::now();
            gemm(
                T::ONE,
                a.as_ref(),
                Op::NoTrans,
                b.as_ref(),
                Op::NoTrans,
                T::ZERO,
                c.as_mut(),
            );
            t0.elapsed().as_secs_f64()
        });

        // TRSM (lower, n RHS columns): diagonally dominant triangle.
        let mut t = a.clone();
        for i in 0..n {
            t[(i, i)] += T::from_f64(2.0 * nf);
        }
        let trsm_flops = flop_scale * nf * nf * nf;
        measure_blocked(out, "trsm", scalar, n, trsm_flops, reps, pools, || {
            let mut x = b.clone();
            let t0 = Instant::now();
            trsm_left(
                Tri::Lower,
                Op::NoTrans,
                Diag::NonUnit,
                T::ONE,
                t.as_ref(),
                x.as_mut(),
            );
            t0.elapsed().as_secs_f64()
        });

        // LU (partial pivoting).
        let lu_flops = flop_scale * 2.0 / 3.0 * nf * nf * nf;
        measure_blocked(out, "lu", scalar, n, lu_flops, reps, pools, || {
            let m = t.clone();
            let t0 = Instant::now();
            lu_in_place_nb(m, 0).expect("LU of dominant matrix");
            t0.elapsed().as_secs_f64()
        });

        // LDLT on a symmetric dominant matrix.
        let sym = Mat::<T>::from_fn(n, n, |i, j| {
            let v = a[(i.min(j), i.max(j))];
            if i == j {
                v + T::from_f64(2.0 * nf)
            } else {
                v
            }
        });
        let ldlt_flops = flop_scale / 3.0 * nf * nf * nf;
        measure_blocked(out, "ldlt", scalar, n, ldlt_flops, reps, pools, || {
            let m = sym.clone();
            let t0 = Instant::now();
            ldlt_in_place_nb(m, 0).expect("LDLT of dominant matrix");
            t0.elapsed().as_secs_f64()
        });
    }
}

/// The `recompress` row of one scalar type.
struct RecompressRow {
    scalar: &'static str,
    /// `norm_fro` + `recompress` over all the sums' factors.
    recompress_seconds: f64,
    /// `LowRank::from_dense_if_smaller` over the same sums formed dense.
    rrqr_seconds: f64,
    recompress_vs_rrqr: f64,
    /// Σ rank kept by the recompression (formal: `2·RECOMPRESS_RANK` each).
    kept_rank: usize,
}

/// Time the rounded addition of two rank-[`RECOMPRESS_RANK`] terms on
/// [`RECOMPRESS_SUMS`] seeded `RECOMPRESS_N`² blocks against the rank-revealing
/// QR of the same blocks formed dense, best of `reps` each, the two
/// alternating repetition by repetition. The terms' columns decay
/// geometrically, so about half the formal rank survives `RECOMPRESS_EPS` —
/// the regime the industrial workload's H-LU runs in.
fn recompress_row<T: Scalar>(scalar: &'static str, reps: usize) -> RecompressRow {
    let mut rng = rand::rngs::StdRng::seed_from_u64(43);
    let n = RECOMPRESS_N;
    let mut term = |scale: f64| {
        let mut u = Mat::<T>::random(n, RECOMPRESS_RANK, &mut rng);
        for k in 0..RECOMPRESS_RANK {
            let g = T::from_f64(scale * 0.1f64.powi(k as i32));
            u.col_mut(k).iter_mut().for_each(|x| *x *= g);
        }
        LowRank::new(u, Mat::random(n, RECOMPRESS_RANK, &mut rng))
    };
    let sums: Vec<LowRank<T>> = (0..RECOMPRESS_SUMS)
        .map(|_| term(1.0).add(T::ONE, &term(0.5)))
        .collect();
    let dense: Vec<Mat<T>> = sums.iter().map(LowRank::to_dense).collect();
    let eps = T::Real::from_f64_real(RECOMPRESS_EPS);

    // The two sides take turns repetition by repetition, keeping the best of
    // each (see `panel_solve_row`).
    let (mut recompress_seconds, mut rrqr_seconds) = (f64::INFINITY, f64::INFINITY);
    let mut kept_rank = 0;
    for _ in 0..reps.max(1) {
        let mut work = sums.clone();
        let t0 = Instant::now();
        for lr in &mut work {
            let tol = eps * lr.norm_fro();
            lr.recompress(tol);
        }
        recompress_seconds = recompress_seconds.min(t0.elapsed().as_secs_f64());
        kept_rank = work.iter().map(LowRank::rank).sum();

        let t0 = Instant::now();
        for d in &dense {
            let tol = eps * d.norm_fro();
            std::hint::black_box(LowRank::from_dense_if_smaller(d, tol, n).expect("uncapped"));
        }
        rrqr_seconds = rrqr_seconds.min(t0.elapsed().as_secs_f64());
    }
    RecompressRow {
        scalar,
        recompress_seconds,
        rrqr_seconds,
        recompress_vs_rrqr: recompress_seconds / rrqr_seconds,
        kept_rank,
    }
}

/// The `sparse_panel_solve` row.
struct PanelSolveRow {
    /// `P = min(nproc, 4)`.
    threads: usize,
    seconds_1t: f64,
    seconds_pt: f64,
    /// `seconds_pt / seconds_1t`.
    ratio: f64,
    /// Whether the `P`-thread output equals the one-thread output bit for bit.
    bitwise: bool,
}

/// Time `solve_sparse_rhs` of a [`PANEL_SOLVE_COLS`]-column `A_vs` panel
/// against the factored `A_vv` of pipe-[`PANEL_SOLVE_N`] at one thread and
/// at `P = min(nproc, 4)`, and compare the two outputs bitwise.
fn panel_solve_row() -> PanelSolveRow {
    let p = csolve::pipe_problem::<f64>(PANEL_SOLVE_N);
    let fact = factorize(&p.a_vv, &SparseOptions::default()).expect("A_vv factors");
    let rows: Vec<usize> = (0..p.a_vs.nrows).collect();
    let cols: Vec<usize> = (0..PANEL_SOLVE_COLS.min(p.a_vs.ncols)).collect();
    let rhs = p.a_vs.submatrix(&rows, &cols);
    let threads = nproc().min(4);
    let pools = [pool(1), pool(threads)];
    // The two pools take turns repetition by repetition: a host whose speed
    // shifts for seconds at a time then slows both sides of the ratio alike,
    // where two back-to-back blocks of repetitions would time two machines.
    let mut seconds = [f64::INFINITY; 2];
    let mut ys = [None, None];
    for _ in 0..PANEL_SOLVE_REPS {
        for (k, pool) in pools.iter().enumerate() {
            pool.install(|| {
                let t0 = Instant::now();
                ys[k] = Some(fact.solve_sparse_rhs(&rhs).expect("complete factorization"));
                seconds[k] = seconds[k].min(t0.elapsed().as_secs_f64());
            });
        }
    }
    let [seconds_1t, seconds_pt] = seconds;
    let [y1, yp] = ys.map(|y| y.expect("at least one repetition"));
    fn bits(m: &Mat<f64>) -> impl Iterator<Item = u64> + '_ {
        m.data().iter().map(|v| v.to_bits())
    }
    PanelSolveRow {
        threads,
        seconds_1t,
        seconds_pt,
        ratio: seconds_pt / seconds_1t,
        bitwise: bits(&y1).eq(bits(&yp)),
    }
}

/// One `lane_solve` / `schur_lane_solve` row.
struct LaneSolveRow {
    /// One solve of the whole panel.
    seconds_panel: f64,
    /// One width-1 solve per column.
    seconds_columns: f64,
    /// `seconds_columns / seconds_panel`.
    ratio: f64,
    /// Whether the two outputs are equal bit for bit.
    bitwise: bool,
}

/// Time `solve` on the whole panel `b` against `solve` on each of its
/// columns alone, best of `reps` each, the two alternating repetition by
/// repetition (see `panel_solve_row`), one thread, and compare their outputs
/// bitwise.
fn lane_row(b: &Mat<f64>, reps: usize, solve: impl Fn(&mut Mat<f64>)) -> LaneSolveRow {
    let n = b.nrows();
    let panel = || {
        let mut x = b.clone();
        let t0 = Instant::now();
        solve(&mut x);
        (t0.elapsed().as_secs_f64(), x)
    };
    let columns = || {
        let mut x = b.clone();
        let t0 = Instant::now();
        for j in 0..x.ncols() {
            let mut xj = Mat::from_col_major(n, 1, x.col(j).to_vec());
            solve(&mut xj);
            x.col_mut(j).copy_from_slice(xj.col(0));
        }
        (t0.elapsed().as_secs_f64(), x)
    };
    let mut seconds = [f64::INFINITY; 2];
    let mut xs = [None, None];
    pool(1).install(|| {
        for _ in 0..reps {
            for (k, side) in [&panel as &dyn Fn() -> (f64, Mat<f64>), &columns]
                .into_iter()
                .enumerate()
            {
                let (secs, x) = side();
                seconds[k] = seconds[k].min(secs);
                xs[k] = Some(x);
            }
        }
    });
    let [xp, xc] = xs.map(|x| x.expect("at least one repetition"));
    let bits = |m: &Mat<f64>| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    LaneSolveRow {
        seconds_panel: seconds[0],
        seconds_columns: seconds[1],
        ratio: seconds[1] / seconds[0],
        bitwise: bits(&xp) == bits(&xc),
    }
}

/// One [`LANE_SOLVE_COLS`]-wide sparse `solve_in_place` of the leading
/// columns of `A_vs` against the factored `A_vv` of pipe-[`PANEL_SOLVE_N`],
/// against one width-1 call per column.
fn lane_solve_row() -> LaneSolveRow {
    let p = csolve::pipe_problem::<f64>(PANEL_SOLVE_N);
    let fact = factorize(&p.a_vv, &SparseOptions::default()).expect("A_vv factors");
    let rows: Vec<usize> = (0..p.a_vs.nrows).collect();
    let cols: Vec<usize> = (0..LANE_SOLVE_COLS.min(p.a_vs.ncols)).collect();
    let b = p.a_vs.submatrix(&rows, &cols).to_dense();
    lane_row(&b, LANE_SOLVE_REPS, |x| {
        fact.solve_in_place(x).expect("complete factorization")
    })
}

/// One [`SCHUR_LANE_COLS`]-wide `HLu::solve_in_place` against H-LDLᵀ
/// factors — a half-stored [`SCHUR_SIDE`]²-point surface kernel, leaf 64,
/// ε = 1e-4 — against one width-1 call per column. Also returns the factors'
/// low-rank leaf count.
fn schur_lane_solve_row() -> (LaneSolveRow, usize) {
    let side = SCHUR_SIDE;
    let pts: Vec<Point3> = (0..side * side)
        .map(|k| {
            let (x, y) = (
                (k / side) as f64 / side as f64,
                (k % side) as f64 / side as f64,
            );
            Point3::new(x, y, 0.1 * (x * x + y * y))
        })
        .collect();
    let n = pts.len();
    let tree = ClusterTree::build(&pts, 64);
    // A smooth Green-like kernel, diagonally shifted: low-rank off the
    // diagonal, symmetric, comfortably definite.
    let oracle = |i: usize, j: usize| {
        let (i, j) = (tree.perm[i], tree.perm[j]);
        if i == j {
            n as f64
        } else {
            1.0 / (4.0 * std::f64::consts::PI * (pts[i].dist(&pts[j]) + 0.05))
        }
    };
    let opts = HOptions {
        eps: 1e-4,
        eta: 6.0,
        ..Default::default()
    };
    let h = HMatrix::assemble_symmetric(&tree, &oracle, &opts);
    let f = HLu::factor(h, 1e-4).expect("H-LDLT factors");
    let mut rng = rand::rngs::StdRng::seed_from_u64(46);
    let b = Mat::<f64>::random(n, SCHUR_LANE_COLS, &mut rng);
    let row = lane_row(&b, SCHUR_LANE_REPS, |x| f.solve_in_place(x.as_mut()));
    (row, f.stats().lowrank_leaves)
}

/// The `ldlt_half` row.
struct LdltHalfRow {
    /// Block width of the half-stored layout.
    b: usize,
    /// The full matrix's LDLᵀ, GF/s.
    gflops_full: f64,
    /// The half-stored one's, GF/s.
    gflops_half: f64,
    /// Bytes each stores.
    bytes: (usize, usize),
    /// Whether the two lower triangles are equal bit for bit.
    bitwise: bool,
}

/// The LDLᵀ of a diagonally dominant symmetric matrix of order
/// [`LDLT_HALF_N`] at the default panel width, on the full matrix and
/// half-stored in blocks of [`lower_block_width`] columns, best of
/// [`LDLT_HALF_REPS`] each, the two alternating, on every thread; and
/// whether their lower triangles agree bitwise.
fn ldlt_half_row() -> LdltHalfRow {
    let n = LDLT_HALF_N;
    let mut rng = rand::rngs::StdRng::seed_from_u64(47);
    let r = Mat::<f64>::random(n, n, &mut rng);
    let a = Mat::from_fn(n, n, |i, j| {
        r[(i, j)] + r[(j, i)] + if i == j { 2.0 * n as f64 } else { 0.0 }
    });
    let b = lower_block_width(0);
    let storages: [&dyn Fn() -> BlockLower<f64>; 2] = [&|| BlockLower::from(a.clone()), &|| {
        BlockLower::from_full(a.clone(), b)
    }];
    let mut seconds = [f64::INFINITY; 2];
    let mut factors: [Option<LdltFactors<f64>>; 2] = [None, None];
    for _ in 0..LDLT_HALF_REPS {
        for (k, storage) in storages.iter().enumerate() {
            let m = storage();
            let t0 = Instant::now();
            let f = ldlt_in_place_nb(m, 0).expect("LDLT of a dominant matrix");
            seconds[k] = seconds[k].min(t0.elapsed().as_secs_f64());
            factors[k] = Some(f);
        }
    }
    let [full, half] = factors.map(|f| f.expect("at least one repetition"));
    let lower = |f: &LdltFactors<f64>| {
        (0..n)
            .flat_map(|j| (j..n).map(move |i| (i, j)))
            .map(|ij| f.ld[ij].to_bits())
            .collect::<Vec<_>>()
    };
    let flops = (n * n * n) as f64 / 3.0;
    LdltHalfRow {
        b,
        gflops_full: flops / seconds[0] / 1e9,
        gflops_half: flops / seconds[1] / 1e9,
        bytes: (full.ld.data().len() * 8, half.ld.data().len() * 8),
        bitwise: lower(&full) == lower(&half),
    }
}

/// One `trsm_lanes` row.
struct TrsmLanesRow {
    kernel: &'static str,
    /// The panel through one lane workspace.
    seconds_panel: f64,
    /// One call per column on the same operands.
    seconds_columns: f64,
    /// `seconds_columns / seconds_panel`.
    ratio: f64,
    /// Whether the two outputs are equal bit for bit.
    bitwise: bool,
}

/// Time `panel` and `columns` — two ways to overwrite their `Mat` argument
/// with the same product or solve of `input` — one thread, and compare their
/// outputs bitwise.
fn panel_vs_columns_row(
    kernel: &'static str,
    input: &Mat<f64>,
    panel: impl Fn(&mut Mat<f64>),
    columns: impl Fn(&mut Mat<f64>),
) -> TrsmLanesRow {
    let timed = |f: &dyn Fn(&mut Mat<f64>)| {
        let mut x = input.clone();
        let secs = best_of(BATCH_REPS, || {
            let t0 = Instant::now();
            for _ in 0..BATCH_INNER {
                x.as_mut().copy_from(input.as_ref());
                f(&mut x);
            }
            t0.elapsed().as_secs_f64()
        });
        (secs, x)
    };
    let pool = pool(1);
    let ((seconds_panel, xp), (seconds_columns, xc)) =
        pool.install(|| (timed(&panel), timed(&columns)));
    let bits = |m: &Mat<f64>| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    TrsmLanesRow {
        kernel,
        seconds_panel,
        seconds_columns,
        ratio: seconds_columns / seconds_panel,
        bitwise: bits(&xp) == bits(&xc),
    }
}

/// The `trsm_lanes` row: the backward-pass triangle of an LDLᵀ supernode
/// (`Lower`, `Trans`, `Unit`) through `trsm_left`'s base case, against one
/// call per column.
fn trsm_lanes_row() -> TrsmLanesRow {
    let mut rng = rand::rngs::StdRng::seed_from_u64(44);
    let (k, nrhs) = (TRSM_LANES_K, TRSM_LANES_NRHS);
    let t = Mat::<f64>::random(k, k, &mut rng);
    let b = Mat::<f64>::random(k, nrhs, &mut rng);
    let solve = |x: csolve::dense::MatMut<'_, f64>| {
        trsm_left(Tri::Lower, Op::Trans, Diag::Unit, 1.0, t.as_ref(), x)
    };
    panel_vs_columns_row(
        "trsm_left",
        &b,
        |x| solve(x.as_mut()),
        |x| (0..nrhs).for_each(|j| solve(x.view_mut(0..k, j..j + 1))),
    )
}

/// The CI health gate run under `--smoke`: the packed kernels must keep
/// their contract. Returns every violation (empty = pass).
fn gate(
    entries: &[Entry],
    recompress: &[RecompressRow],
    panel: &PanelSolveRow,
    tri: &TrsmLanesRow,
    lanes: &LaneSolveRow,
    schur: &LaneSolveRow,
    ldlt_half: &LdltHalfRow,
) -> Vec<String> {
    let mut fails = Vec::new();
    // Contract 8: the half-stored LDLᵀ factors to the full one's lower
    // triangle.
    if !ldlt_half.bitwise {
        fails.push(
            "ldlt_half: the half-stored factor's lower triangle differs from the full one's".into(),
        );
    }
    // Contract 7: the Schur solve runs its columns as the lanes of one
    // workspace too, with each column's width-1 bits.
    if !schur.bitwise {
        fails.push("schur_lane_solve: the 8-wide solve differs from its width-1 solves".into());
    }
    if schur.ratio < SCHUR_LANE_SOLVE_GATE {
        fails.push(format!(
            "schur_lane_solve: the 8-wide solve is {:.2}x its width-1 solves < \
             {SCHUR_LANE_SOLVE_GATE}",
            schur.ratio
        ));
    }
    // Contract 6: a sparse multi-RHS solve runs its columns as the lanes of
    // one workspace, with each column's width-1 bits.
    if !lanes.bitwise {
        fails.push("lane_solve: the 32-wide solve differs from its width-1 solves".into());
    }
    if lanes.ratio < LANE_SOLVE_GATE {
        fails.push(format!(
            "lane_solve: the 32-wide solve is {:.2}x its width-1 solves < {LANE_SOLVE_GATE}",
            lanes.ratio
        ));
    }
    // Contract 5: the triangle base case runs its columns as the lanes of one
    // workspace, with the bits of each column's own call, and is worth having.
    if !tri.bitwise {
        fails.push(format!(
            "{}: the panel differs from one call per column",
            tri.kernel
        ));
    }
    if tri.ratio < TRSM_LANES_GATE {
        fails.push(format!(
            "{}: the panel is {:.2}x one call per column < {TRSM_LANES_GATE}",
            tri.kernel, tri.ratio
        ));
    }
    // Contract 4: the chunked sparse solve spreads over idle threads without
    // changing a bit. One thread cannot show the first half: say so.
    if !panel.bitwise {
        fails.push(format!(
            "sparse_panel_solve: {} threads changed the bits of the 1-thread solve",
            panel.threads
        ));
    }
    if panel.threads < 2 {
        println!("sparse_panel_solve speed-up gate SKIPPED: nproc = 1, nothing to spread over");
    } else if panel.ratio > PANEL_SOLVE_GATE {
        fails.push(format!(
            "sparse_panel_solve: {} threads took {:.2} of the 1-thread wall > {PANEL_SOLVE_GATE}",
            panel.threads, panel.ratio
        ));
    }
    // Contract 3: a rounded addition stays within a few RRQRs of its block.
    for r in recompress {
        if r.recompress_vs_rrqr > RECOMPRESS_GATE {
            fails.push(format!(
                "{} recompress_vs_rrqr {:.2} > {RECOMPRESS_GATE}",
                r.scalar, r.recompress_vs_rrqr
            ));
        }
    }
    let find = |kernel: &str, scalar: &str, n: usize, variant: &str| {
        entries
            .iter()
            .find(|e| e.kernel == kernel && e.scalar == scalar && e.n == n && e.variant == variant)
    };
    let gated_n = entries
        .iter()
        .filter(|e| e.kernel == "gemm" && e.n >= GATE_MIN_N)
        .map(|e| e.n)
        .max();
    let Some(n) = gated_n else {
        fails.push(format!(
            "no gated size measured (need one size >= {GATE_MIN_N})"
        ));
        return fails;
    };
    // Contract 1: the split-complex kernel must hold its margin over the
    // naive reference of the same run.
    match (
        find("gemm", "c64", n, "blocked-serial"),
        find("gemm", "c64", n, "naive-serial"),
    ) {
        (Some(e), Some(naive)) if e.gflops >= C64_VS_NAIVE_GATE * naive.gflops => {}
        (Some(e), Some(naive)) => fails.push(format!(
            "c64 blocked-serial GEMM n={n}: {:.2} GF/s is {:.2}x the naive reference \
             ({:.2}) < {C64_VS_NAIVE_GATE}",
            e.gflops,
            e.gflops / naive.gflops,
            naive.gflops
        )),
        _ => fails.push(format!("c64 GEMM n={n} not measured")),
    }
    // Contract 2: at every gated size the packed kernel beats the naive
    // reference for both scalar types.
    for e in entries
        .iter()
        .filter(|e| e.kernel == "gemm" && e.variant == "blocked-serial" && e.n >= GATE_MIN_N)
    {
        if let Some(naive) = find("gemm", e.scalar, e.n, "naive-serial") {
            if e.gflops < naive.gflops {
                fails.push(format!(
                    "{} blocked-serial GEMM n={}: {:.2} GF/s below naive ({:.2})",
                    e.scalar, e.n, e.gflops, naive.gflops
                ));
            }
        }
    }
    fails
}

fn main() {
    let args = Args::parse(FLAGS);
    let smoke = args.switch("--smoke");
    let sizes: Vec<usize> = args.list("--sizes");
    // Thread sweep: 1 is always measured first (the speedup reference).
    let mut thread_counts: Vec<usize> = args.list("--threads");
    for t in &mut thread_counts {
        if *t == 0 {
            *t = rayon::current_num_threads();
        }
    }
    thread_counts.retain(|&t| t > 1);
    thread_counts.sort_unstable();
    thread_counts.dedup();
    thread_counts.insert(0, 1);
    let reps = if smoke { 2 } else { 3 };

    header(
        "Dense kernel throughput — GEMM, TRSM, LU, LDLT and the solve kernels",
        "Agullo, Felšöci, Sylvand (IPDPS 2022), §V (the dense kernels under SPIDO/HMAT)",
    );
    let pools: Vec<rayon::ThreadPool> = thread_counts.iter().map(|&t| pool(t)).collect();

    let mut entries = Vec::new();
    sweep::<f64>("f64", &sizes, reps, 1.0, &pools, &mut entries);
    sweep::<C64>("c64", &sizes, reps, 4.0, &pools, &mut entries);

    println!(
        "kernel throughput (thread sweep {:?}; complex counted as 4x real flops)",
        thread_counts
    );
    println!(
        "{:<16} {:<4} {:>5} {:<16} {:>3} {:>10} {:>8} {:>8}",
        "kernel", "type", "n", "variant", "thr", "time (s)", "GF/s", "vs ref"
    );
    for e in &entries {
        let speedup = match e.speedup {
            Some(v) => format!("{v:>7.2}x"),
            None => format!("{:>8}", "-"),
        };
        println!(
            "{:<16} {:<4} {:>5} {:<16} {:>3} {:>10.6} {:>8.2} {}",
            e.kernel, e.scalar, e.n, e.variant, e.threads, e.seconds, e.gflops, speedup
        );
    }

    let recompress = [
        recompress_row::<f64>("f64", reps.max(5)),
        recompress_row::<C64>("c64", reps.max(5)),
    ];
    println!(
        "\nrounded addition: {RECOMPRESS_SUMS} sums of rank {RECOMPRESS_RANK} + {RECOMPRESS_RANK} \
         on {RECOMPRESS_N}x{RECOMPRESS_N}, eps {RECOMPRESS_EPS:e}"
    );
    for r in &recompress {
        println!(
            "{:<4} norm_fro + recompress {:.4} s, from_dense_if_smaller {:.4} s, \
             recompress_vs_rrqr {:.2} (kept rank {} of {})",
            r.scalar,
            r.recompress_seconds,
            r.rrqr_seconds,
            r.recompress_vs_rrqr,
            r.kept_rank,
            RECOMPRESS_SUMS * 2 * RECOMPRESS_RANK
        );
    }

    let panel = panel_solve_row();
    println!(
        "\nsparse panel solve: {PANEL_SOLVE_COLS} columns of A_vs on pipe-{PANEL_SOLVE_N}, \
         1 thread {:.4} s, {} threads {:.4} s, ratio {:.2}, bitwise {}",
        panel.seconds_1t,
        panel.threads,
        panel.seconds_pt,
        panel.ratio,
        if panel.bitwise { "yes" } else { "NO" }
    );

    let tri = trsm_lanes_row();
    println!(
        "\ntrsm lanes, one thread: trsm_left(Lower, Trans, Unit) k = \
         {TRSM_LANES_K}, nrhs = {TRSM_LANES_NRHS}: panel {:.4} s, one call per column \
         {:.4} s, ratio {:.2}, bitwise {}",
        tri.seconds_panel,
        tri.seconds_columns,
        tri.ratio,
        if tri.bitwise { "yes" } else { "NO" }
    );

    let lanes = lane_solve_row();
    println!(
        "\nlane solve: solve_in_place of {LANE_SOLVE_COLS} columns of A_vs on pipe-{PANEL_SOLVE_N}, \
         one thread: one {LANE_SOLVE_COLS}-wide call {:.4} s, {LANE_SOLVE_COLS} width-1 calls {:.4} s, \
         ratio {:.2}, bitwise {}",
        lanes.seconds_panel,
        lanes.seconds_columns,
        lanes.ratio,
        if lanes.bitwise { "yes" } else { "NO" }
    );

    let (schur, lowrank_leaves) = schur_lane_solve_row();
    println!(
        "\nschur lane solve: HLu::solve_in_place (H-LDLT, {} points, leaf 64, eps 1e-4, \
         {lowrank_leaves} low-rank leaves), one thread: one {SCHUR_LANE_COLS}-wide call {:.4} s, \
         {SCHUR_LANE_COLS} width-1 calls {:.4} s, ratio {:.2}, bitwise {}",
        SCHUR_SIDE * SCHUR_SIDE,
        schur.seconds_panel,
        schur.seconds_columns,
        schur.ratio,
        if schur.bitwise { "yes" } else { "NO" }
    );

    let half = ldlt_half_row();
    println!(
        "\nldlt half: LDLT of order {LDLT_HALF_N} (nb 48), full matrix {:.2} GF/s, \
         half-stored in {}-column blocks {:.2} GF/s, ratio {:.2} (not gated), bytes {} vs {}, \
         lower triangle bitwise {}",
        half.gflops_full,
        half.b,
        half.gflops_half,
        half.gflops_half / half.gflops_full,
        half.bytes.0,
        half.bytes.1,
        if half.bitwise { "yes" } else { "NO" }
    );

    if smoke {
        smoke_epilogue(
            "kernels_report",
            &gate(&entries, &recompress, &panel, &tri, &lanes, &schur, &half),
        );
    }
}
