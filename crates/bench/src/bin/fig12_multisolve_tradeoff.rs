//! Figure 12 — multi-solve performance/memory trade-off in `n_c` and `n_S`.
//!
//! Paper setting: N = 2 M fixed; baseline multi-solve (MUMPS/SPIDO) sweeps
//! the sparse-solve panel width `n_c` ∈ {32…256}; compressed multi-solve
//! (MUMPS/HMAT) first sets `n_S = n_c`, then fixes `n_c = 256` and sweeps
//! `n_S` ∈ {512…4096}. Expected shape:
//!
//! * raising `n_c` improves time up to ~256, then saturates, while the
//!   dense `Y` panel grows the memory footprint;
//! * a too small `n_S` causes recompression overhead (time up);
//! * the compressed variant uses significantly less Schur memory.

use csolve::{pipe_problem, Algorithm, DenseBackend, SolverConfig};
use csolve_bench::{attempt, header, Args, Flag};

const FLAGS: &[Flag] = &[
    Flag::value("--n", "12000", "total unknowns of the pipe problem"),
    Flag::value("--eps", "1e-4", "compression threshold"),
    Flag::value("--threads", "0", "worker threads (0 = all cores)"),
];

fn main() {
    let args = Args::parse(FLAGS);
    let n: usize = args.get("--n");
    let eps: f64 = args.get("--eps");
    let threads: usize = args.get("--threads");

    header(
        "Figure 12 — multi-solve trade-off (n_c, n_S)",
        "Agullo, Felšöci, Sylvand (IPDPS 2022), Fig. 12 (paper: N = 2 000 000)",
    );
    let problem = pipe_problem::<f64>(n);
    println!(
        "\nscaled N = {} (n_BEM = {}), eps = {eps:.0e}\n",
        problem.n_total(),
        problem.n_bem()
    );

    println!("baseline multi-solve (MUMPS/SPIDO), varying n_c:");
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>12}",
        "n_c", "time (s)", "peak (MiB)", "Schur (MiB)", "rel. error"
    );
    for n_c in [32usize, 64, 128, 256, 512] {
        let cfg = SolverConfig {
            eps,
            dense_backend: DenseBackend::Spido,
            n_c,
            num_threads: threads,
            ..Default::default()
        };
        match attempt(&problem, Algorithm::MultiSolve, &cfg) {
            csolve_bench::Attempt::Ok(r) => println!(
                "{n_c:>8} {:>10.2} {:>12.1} {:>12.1} {:>12.3e}",
                r.seconds, r.peak_mib, r.schur_mib, r.rel_error
            ),
            other => println!("{n_c:>8} {:>10}", other.cell()),
        }
    }

    println!(
        "\ncompressed multi-solve (MUMPS/HMAT), n_S = n_c (small panels stress recompression):"
    );
    println!(
        "{:>8} {:>8} {:>10} {:>12} {:>12} {:>12}",
        "n_c", "n_S", "time (s)", "peak (MiB)", "Schur (MiB)", "rel. error"
    );
    for w in [32usize, 64, 128, 256] {
        run_hmat(&problem, eps, w, w, threads);
    }

    println!("\ncompressed multi-solve (MUMPS/HMAT), n_c = 256 fixed, varying n_S:");
    println!(
        "{:>8} {:>8} {:>10} {:>12} {:>12} {:>12}",
        "n_c", "n_S", "time (s)", "peak (MiB)", "Schur (MiB)", "rel. error"
    );
    for n_s in [512usize, 1024, 2048, 4096] {
        run_hmat(&problem, eps, 256, n_s, threads);
    }
}

fn run_hmat(
    problem: &csolve::CoupledProblem<f64>,
    eps: f64,
    n_c: usize,
    n_s: usize,
    threads: usize,
) {
    let cfg = SolverConfig {
        eps,
        dense_backend: DenseBackend::Hmat,
        n_c,
        n_s,
        num_threads: threads,
        ..Default::default()
    };
    match attempt(problem, Algorithm::MultiSolve, &cfg) {
        csolve_bench::Attempt::Ok(r) => println!(
            "{n_c:>8} {n_s:>8} {:>10.2} {:>12.1} {:>12.1} {:>12.3e}",
            r.seconds, r.peak_mib, r.schur_mib, r.rel_error
        ),
        other => println!("{n_c:>8} {n_s:>8} {:>10}", other.cell()),
    }
}
