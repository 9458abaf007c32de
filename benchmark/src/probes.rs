//! Micro-probes: one public kernel of a layer timed in isolation, on a shape
//! taken from the workload's replay. They give the per-layer rates the
//! replay's spans are set against (achieved GF/s vs. the GEMM rate, computed
//! bytes vs. the measured memory bandwidth).

use std::hint::black_box;
use std::time::Instant;

use csolve::common::{MemTracker, RealScalar};
use csolve::dense::{gemm, partial_ldlt, partial_lu, trsm_left, Diag, Mat, Op, Tri};
use csolve::fembem::BemOperator;
use csolve::hmat::{AssembleMethod, ClusterTree, HMatrix, HOptions, HStats};
use csolve::lowrank::{aca_plus, LowRank};
use csolve::testkit::SplitMix64;
use csolve::{Scalar, SolverConfig};

use crate::stats::median;
use crate::workloads::random_vec;

/// Median wall seconds of `reps` calls of `f`, each on a fresh `prepare()`d
/// input built outside the timed section.
pub fn timed<I>(reps: usize, mut prepare: impl FnMut() -> I, mut f: impl FnMut(I)) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let input = prepare();
            let t = Instant::now();
            f(input);
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Run `f` inside a rayon pool of `threads` workers.
pub fn in_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads.max(1))
        .build()
        .expect("building a rayon pool")
        .install(f)
}

/// Real flops per scalar multiply-add pair, relative to real arithmetic.
fn flop_scale<T: Scalar>() -> f64 {
    if T::IS_COMPLEX {
        4.0
    } else {
        1.0
    }
}

fn random_mat<T: Scalar>(rng: &mut SplitMix64, m: usize, n: usize) -> Mat<T> {
    Mat::from_col_major(m, n, random_vec(rng, m * n))
}

/// Random matrix with a dominant diagonal (factorizable without growth);
/// symmetric when asked.
fn dominant_mat<T: Scalar>(rng: &mut SplitMix64, n: usize, symmetric: bool) -> Mat<T> {
    let mut a = random_mat::<T>(rng, n, n);
    if symmetric {
        let t = a.transpose();
        a.axpy(T::ONE, &t);
    }
    for i in 0..n {
        let d = a.as_ref().get(i, i) + T::from_f64(2.0 * n as f64);
        a.as_mut().set(i, i, d);
    }
    a
}

// --- host -------------------------------------------------------------------

/// Elements per STREAM-triad array: four times the last-level cache, held
/// between 64 MiB and 256 MiB so the three arrays fit any sandbox. Whether
/// the 4 × LLC rule is met shows from the two sizes reported side by side.
pub fn triad_len(llc_bytes: usize) -> usize {
    const MIB: usize = 1 << 20;
    (4 * llc_bytes).clamp(64 * MIB, 256 * MIB) / std::mem::size_of::<f64>()
}

/// STREAM triad `a ← b + s·c` bandwidth in GB/s at 1 and at `threads`
/// threads (best of three passes each; 24 bytes move per element).
pub fn triad_gbs(len: usize, threads: usize) -> (f64, f64) {
    let mut a = vec![0.0f64; len];
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let mut pass = |parts: usize| {
        let chunk = len.div_ceil(parts);
        let best = (0..3)
            .map(|_| {
                let t = Instant::now();
                std::thread::scope(|s| {
                    for ((a, b), c) in a
                        .chunks_mut(chunk)
                        .zip(b.chunks(chunk))
                        .zip(c.chunks(chunk))
                    {
                        s.spawn(move || {
                            for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                                *a = b + 3.0 * c;
                            }
                        });
                    }
                });
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        black_box(&a);
        24.0 * len as f64 / best / 1e9
    };
    let one = pass(1);
    let many = if threads > 1 { pass(threads) } else { one };
    (one, many)
}

// --- fembem -----------------------------------------------------------------

/// `BemOperator::assemble_block` entries per second on a 512 × 512
/// off-diagonal block (smaller when the surface is).
pub fn bem_entries_per_s<T: Scalar>(bem: &BemOperator<T>) -> f64 {
    let m = 512.min(bem.n() / 2).max(1);
    let secs = timed(
        3,
        || (),
        |()| drop(black_box(bem.assemble_block(0..m, m..2 * m))),
    );
    (m * m) as f64 / secs
}

// --- dense ------------------------------------------------------------------

/// GEMM rate at order `n` in GF/s inside a pool of `threads` workers.
pub fn gemm_gflops<T: Scalar>(n: usize, threads: usize) -> f64 {
    let mut rng = SplitMix64::new(11);
    let a = random_mat::<T>(&mut rng, n, n);
    let b = random_mat::<T>(&mut rng, n, n);
    let mut c = Mat::<T>::zeros(n, n);
    let secs = in_pool(threads, || {
        timed(
            5,
            || (),
            |()| {
                gemm(
                    T::ONE,
                    a.as_ref(),
                    Op::NoTrans,
                    b.as_ref(),
                    Op::NoTrans,
                    T::ZERO,
                    c.as_mut(),
                )
            },
        )
    });
    black_box(&c);
    flop_scale::<T>() * 2.0 * (n as f64).powi(3) / secs / 1e9
}

/// Partial factorization rate of one front of order `front` with half of it
/// eliminated: `partial_ldlt` for symmetric problems, `partial_lu` otherwise.
pub fn partial_factor_gflops<T: Scalar>(front: usize, symmetric: bool) -> f64 {
    let mut rng = SplitMix64::new(12);
    let proto = dominant_mat::<T>(&mut rng, front, symmetric);
    let k = front / 2;
    let secs = timed(
        3,
        || proto.clone(),
        |mut a| {
            if symmetric {
                partial_ldlt(&mut a, k).expect("diagonally dominant front");
            } else {
                partial_lu(&mut a, k).expect("diagonally dominant front");
            }
            black_box(&a);
        },
    );
    let (f, rest) = (front as f64, (front - k) as f64);
    // Σ_j 2·(f−j)² over the k eliminated columns; LDLᵀ touches one triangle.
    let lu_flops = 2.0 / 3.0 * (f.powi(3) - rest.powi(3));
    let flops = if symmetric { lu_flops / 2.0 } else { lu_flops };
    flop_scale::<T>() * flops / secs / 1e9
}

/// `trsm_left` rate: unit lower triangle of order `n` against `nrhs` columns.
pub fn trsm_gflops<T: Scalar>(n: usize, nrhs: usize) -> f64 {
    let mut rng = SplitMix64::new(13);
    let t = random_mat::<T>(&mut rng, n, n);
    let proto = random_mat::<T>(&mut rng, n, nrhs);
    let secs = timed(
        3,
        || proto.clone(),
        |mut b| {
            trsm_left(
                Tri::Lower,
                Op::NoTrans,
                Diag::Unit,
                T::from_f64(1.0 / n as f64),
                t.as_ref(),
                b.as_mut(),
            );
            black_box(&b);
        },
    );
    flop_scale::<T>() * (n * n * nrhs) as f64 / secs / 1e9
}

// --- lowrank ----------------------------------------------------------------

pub struct LowRankProbe {
    pub compress_s: f64,
    pub compress_rank: usize,
    pub recompress_s: f64,
    pub aca_s: f64,
}

/// Compress the off-diagonal block of the first Schur panel at `eps`
/// (`LowRank::from_dense`), add it to itself with truncation, and run ACA on
/// the same index block of `A_ss` (cluster order, offsets `r0`/`c0`).
pub fn lowrank_probe<T: Scalar>(
    block: &Mat<T>,
    bem: &BemOperator<T>,
    (r0, c0): (usize, usize),
    eps: f64,
) -> LowRankProbe {
    let tol = T::Real::from_f64_real(eps);
    // The solver's relative tolerance, as absolute Frobenius tolerance.
    let abs_tol = tol * block.norm_fro();
    let (m, n) = (block.nrows(), block.ncols());
    let max_rank = m.min(n);
    let mut lr = LowRank::from_dense(block, abs_tol, max_rank);
    let compress_s = timed(
        3,
        || (),
        |()| lr = LowRank::from_dense(block, abs_tol, max_rank),
    );
    let recompress_s = timed(
        3,
        || (),
        |()| drop(black_box(lr.add_truncate(T::ONE, &lr, abs_tol))),
    );
    let kernel = |i: usize, j: usize| bem.eval(r0 + i, c0 + j);
    let aca_s = timed(
        3,
        || (),
        |()| drop(black_box(aca_plus(&kernel, m, n, tol, max_rank))),
    );
    LowRankProbe {
        compress_s,
        compress_rank: lr.rank(),
        recompress_s,
        aca_s,
    }
}

// --- hmat -------------------------------------------------------------------

/// Statistics of `A_ss` compressed the way the H-matrix Schur accumulator
/// starts out (`SchurAcc` itself exposes only its byte count).
pub fn hmat_stats<T: Scalar>(
    bem: &BemOperator<T>,
    tree: &ClusterTree,
    cfg: &SolverConfig,
) -> HStats {
    let opts = HOptions {
        eps: cfg.eps,
        eta: cfg.hmat_eta,
        max_rank: 512,
        method: AssembleMethod::Aca,
    };
    let oracle = |i: usize, j: usize| bem.eval(i, j);
    HMatrix::assemble_root(tree, tree, &oracle, &opts).stats()
}

// --- common -----------------------------------------------------------------

/// Nanoseconds per `MemTracker::charge` + drop, with `threads` threads
/// charging the same tracker at once (10⁶ operations in total).
pub fn mem_charge_ns(threads: usize) -> f64 {
    const OPS: usize = 1_000_000;
    let threads = threads.max(1);
    let per_thread = OPS / threads;
    let tracker = MemTracker::unbounded();
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                for _ in 0..per_thread {
                    drop(black_box(tracker.charge(64, "probe")));
                }
            });
        }
    });
    // Per-thread latency: each thread ran `per_thread` operations.
    t.elapsed().as_secs_f64() * 1e9 / per_thread as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triad_length_is_clamped() {
        let mib = 1 << 20;
        assert_eq!(triad_len(2 * mib) * 8, 64 * mib);
        assert_eq!(triad_len(32 * mib) * 8, 128 * mib);
        assert_eq!(triad_len(260 * mib) * 8, 256 * mib);
    }

    #[test]
    fn probes_return_positive_rates_on_tiny_shapes() {
        assert!(gemm_gflops::<f64>(32, 1) > 0.0);
        assert!(partial_factor_gflops::<f64>(24, true) > 0.0);
        assert!(partial_factor_gflops::<csolve::C64>(24, false) > 0.0);
        assert!(trsm_gflops::<f64>(24, 8) > 0.0);
        assert!(mem_charge_ns(2) > 0.0);
        let (one, many) = triad_gbs(1 << 16, 2);
        assert!(one > 0.0 && many > 0.0);
    }
}
