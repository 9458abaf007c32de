//! Figures 10 & 11 — largest solvable systems and best times per method,
//! plus the relative error of each best run.
//!
//! The paper runs on a 24-core / 128 GiB node with N from 1 M to 9 M; this
//! harness scales both the sizes and the memory budget down (defaults:
//! N ∈ {4k, 8k, 16k, 32k, 64k}, budget 256 MiB) and reproduces the *shape*:
//!
//! * standard couplings (baseline/advanced) hit the memory wall first;
//! * multi-factorization reaches further but stalls on the duplicated
//!   storage and re-factorizations;
//! * multi-solve reaches the largest N, and its compressed-Schur variant
//!   (MUMPS/HMAT) the largest of all;
//! * every successful run has relative error below the compression ε
//!   (Fig. 11).
//!
//! CLI: `--budget-mib 256 --eps 1e-4 --max-n 64000 --large --threads 0` (0 = all cores)
//!
//! With `--auto` the hand-picked configuration ladder is replaced by the
//! memory-governed autotuner (`BlockSizes::Auto`): each blockwise method
//! runs once per size and derives the largest blocking that fits the
//! budget from the cost model instead of trying fallback configurations.

use csolve::{pipe_problem, Algorithm, BlockSizes, SolverConfig};
use csolve_bench::{attempt, fig10_variants, header, Args, Attempt, RunResult, Variant};

/// The per-method configuration ladder (the paper evaluates several
/// configurations per algorithm and reports the best): memory-frugal
/// fallbacks are tried when the fast configuration does not fit.
fn configs_for(v: &Variant, budget: usize, eps: f64, threads: usize) -> Vec<SolverConfig> {
    let base = SolverConfig {
        eps,
        dense_backend: v.backend,
        mem_budget: Some(budget),
        num_threads: threads,
        ..Default::default()
    };
    match v.algo {
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
    v: &Variant,
    budget: usize,
    eps: f64,
    threads: usize,
    auto: bool,
) -> Attempt {
    if auto {
        let cfg = SolverConfig {
            eps,
            dense_backend: v.backend,
            mem_budget: Some(budget),
            num_threads: threads,
            block_sizes: BlockSizes::Auto,
            ..Default::default()
        };
        return attempt(problem, v.algo, &cfg);
    }
    let mut best: Option<Box<RunResult>> = None;
    let mut last = Attempt::Oom;
    for cfg in configs_for(v, budget, eps, threads) {
        match attempt(problem, v.algo, &cfg) {
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
    let args = Args::parse();
    let budget = args.get_usize("--budget-mib", 640) * 1024 * 1024;
    let eps = args.get_f64("--eps", 1e-4);
    let max_n = args.get_usize("--max-n", if args.has("--large") { 96_000 } else { 64_000 });
    let threads = args.get_usize("--threads", 0);
    let auto = args.has("--auto");

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
    for v in fig10_variants() {
        print!("{:<26}", v.label);
        let mut max_ok = 0usize;
        let mut last_err = f64::NAN;
        for &n in &sizes {
            let problem = pipe_problem::<f64>(n);
            let a = best_attempt(&problem, &v, budget, eps, threads, auto);
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
        error_rows.push((v.label, max_ok, last_err));
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
