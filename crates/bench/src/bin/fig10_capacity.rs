//! Figures 10 & 11 — largest solvable systems and best times per method,
//! plus the relative error of each best run.
//!
//! The paper runs on a 24-core / 128 GiB node with N from 1 M to 9 M; this
//! harness scales both the sizes (N from 4k up to `--max-n`) and the memory
//! budget down and reproduces the *shape*:
//!
//! * standard couplings (baseline/advanced) hit the memory wall first;
//! * multi-factorization reaches further but stalls on the duplicated
//!   storage and re-factorizations;
//! * multi-solve reaches the largest N, and its compressed-Schur variant
//!   (MUMPS/HMAT) the largest of all;
//! * every successful run has relative error below the compression ε
//!   (Fig. 11).
//!
//! With `--auto` the hand-picked configuration ladder is replaced by the
//! memory-governed autotuner (`BlockSizes::Auto`): each blockwise method
//! runs once per size and derives the largest blocking that fits the
//! budget from the cost model instead of trying fallback configurations.

use csolve::{pipe_problem, Algorithm, BlockSizes, DenseBackend, SolverConfig};
use csolve_bench::{attempt, header, Args, Attempt, Flag, RunResult};

const FLAGS: &[Flag] = &[
    Flag::value("--budget-mib", "640", "memory budget in MiB"),
    Flag::value("--eps", "1e-4", "compression threshold"),
    Flag::value("--max-n", "64000", "largest N of the sweep (up to 96000)"),
    Flag::value("--threads", "0", "worker threads (0 = all cores)"),
    Flag::switch("--auto", "blocking from the memory-governed autotuner"),
];

/// The method/backend series of Fig. 10.
const VARIANTS: [(&str, Algorithm, DenseBackend); 6] = [
    (
        "multi-solve MUMPS/SPIDO",
        Algorithm::MultiSolve,
        DenseBackend::Spido,
    ),
    (
        "multi-solve MUMPS/HMAT",
        Algorithm::MultiSolve,
        DenseBackend::Hmat,
    ),
    (
        "multi-facto MUMPS/SPIDO",
        Algorithm::MultiFactorization,
        DenseBackend::Spido,
    ),
    (
        "multi-facto MUMPS/HMAT",
        Algorithm::MultiFactorization,
        DenseBackend::Hmat,
    ),
    (
        "advanced coupling",
        Algorithm::AdvancedCoupling,
        DenseBackend::Spido,
    ),
    (
        "baseline coupling",
        Algorithm::BaselineCoupling,
        DenseBackend::Spido,
    ),
];

/// The per-method configuration ladder (the paper evaluates several
/// configurations per algorithm and reports the best): memory-frugal
/// fallbacks are tried when the fast configuration does not fit.
fn ladder(algo: Algorithm, base: SolverConfig) -> Vec<SolverConfig> {
    match algo {
        Algorithm::MultiSolve => vec![
            SolverConfig {
                n_c: 256,
                n_s: 1024,
                ..base.clone()
            },
            SolverConfig {
                n_c: 64,
                n_s: 256,
                ..base
            },
        ],
        Algorithm::MultiFactorization => vec![
            SolverConfig {
                n_b: 2,
                ..base.clone()
            },
            SolverConfig { n_b: 4, ..base },
        ],
        _ => vec![base],
    }
}

/// Best successful attempt across the configuration ladder — or, with
/// `--auto`, the single autotuned run (the model picks the blocking, so
/// there is no ladder to climb).
fn best_attempt(
    problem: &csolve::CoupledProblem<f64>,
    algo: Algorithm,
    base: SolverConfig,
    auto: bool,
) -> Attempt {
    if auto {
        let cfg = SolverConfig {
            block_sizes: BlockSizes::Auto,
            ..base
        };
        return attempt(problem, algo, &cfg);
    }
    let mut best: Option<Box<RunResult>> = None;
    let mut last = Attempt::Oom;
    for cfg in ladder(algo, base) {
        match attempt(problem, algo, &cfg) {
            Attempt::Ok(r) => {
                if best.as_ref().is_none_or(|b| r.seconds < b.seconds) {
                    best = Some(r);
                }
            }
            other => last = other,
        }
    }
    match best {
        Some(r) => Attempt::Ok(r),
        None => last,
    }
}

fn main() {
    let args = Args::parse(FLAGS);
    let budget = args.get::<usize>("--budget-mib") * 1024 * 1024;
    let eps: f64 = args.get("--eps");
    let max_n: usize = args.get("--max-n");
    let threads: usize = args.get("--threads");
    let auto = args.switch("--auto");

    header(
        "Figures 10 & 11 — solving larger systems (capacity + best time + error)",
        "Agullo, Felšöci, Sylvand (IPDPS 2022), Fig. 10 and Fig. 11",
    );
    println!(
        "\nbudget {} MiB (scaled analogue of the paper's 128 GiB), eps = {eps:.0e}{}\n",
        budget / (1024 * 1024),
        if auto {
            ", blocking chosen by the memory-governed autotuner"
        } else {
            ""
        }
    );
    println!(
        "paper result: baseline/advanced stop at ~1.0/1.3 M unknowns, multi-facto at 2.5 M,\n\
         multi-solve at 7 M (SPIDO) and 9 M (HMAT); error stays below eps for all.\n"
    );

    let sizes: Vec<usize> = [4_000usize, 8_000, 16_000, 32_000, 64_000, 96_000]
        .into_iter()
        .filter(|&n| n <= max_n)
        .collect();

    print!("{:<26}", "method \\ N");
    for n in &sizes {
        print!("{:>18}", format!("{n}"));
    }
    println!("{:>10}", "max N");

    let mut error_rows = Vec::new();
    for (label, algo, backend) in VARIANTS {
        print!("{label:<26}");
        let base = SolverConfig {
            eps,
            dense_backend: backend,
            mem_budget: Some(budget),
            num_threads: threads,
            ..Default::default()
        };
        let mut max_ok = 0usize;
        let mut last_err = f64::NAN;
        for &n in &sizes {
            let problem = pipe_problem::<f64>(n);
            let a = best_attempt(&problem, algo, base.clone(), auto);
            print!("{:>18}", a.cell());
            if let Attempt::Ok(r) = &a {
                max_ok = n;
                last_err = r.rel_error;
            } else {
                // Methods never recover at larger N once they OOM.
                for _ in sizes.iter().filter(|&&m| m > n) {
                    print!("{:>18}", "-");
                }
                break;
            }
        }
        println!("{max_ok:>10}");
        error_rows.push((label, max_ok, last_err));
    }

    println!("\nFig. 11 — relative error of the largest successful run per method");
    println!("(paper: all below the compression threshold eps = {eps:.0e})\n");
    println!(
        "{:<26} {:>10} {:>14} {:>8}",
        "method", "N", "rel. error", "< eps?"
    );
    for (label, n, err) in error_rows {
        if n == 0 {
            println!("{label:<26} {:>10} {:>14} {:>8}", "-", "-", "-");
        } else {
            println!(
                "{label:<26} {n:>10} {err:>14.3e} {:>8}",
                if err < eps { "yes" } else { "NO" }
            );
        }
    }
}
