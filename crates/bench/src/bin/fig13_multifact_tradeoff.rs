//! Figure 13 — multi-factorization performance/memory trade-off in `n_b`.
//!
//! Paper setting: N = 1 M fixed, `n_b` ∈ {1…4}, both solver couplings.
//! Expected shape: more Schur blocks ⇒ more superfluous re-factorizations of
//! `A_vv` ⇒ time grows roughly with `n_b²` (the symmetric pipe case computes
//! the lower-triangle tiles only: `n_b(n_b+1)/2 + 1` factorizations, still
//! ~`n_b²`), while the per-block dense Schur output shrinks ⇒ memory falls.
//! Compressing `S`/`A_ss` (HMAT) trims memory further, though less
//! dramatically than for multi-solve.

use csolve::{pipe_problem, Algorithm, DenseBackend, SolverConfig, SpanKind, Tracer};
use csolve_bench::{attempt, header, Args, Flag};

const FLAGS: &[Flag] = &[
    Flag::value("--n", "8000", "total unknowns of the pipe problem"),
    Flag::value("--eps", "1e-4", "compression threshold"),
    Flag::value("--threads", "0", "worker threads (0 = all cores)"),
];

fn main() {
    let args = Args::parse(FLAGS);
    let n: usize = args.get("--n");
    let eps: f64 = args.get("--eps");
    let threads: usize = args.get("--threads");

    header(
        "Figure 13 — multi-factorization trade-off (n_b)",
        "Agullo, Felšöci, Sylvand (IPDPS 2022), Fig. 13 (paper: N = 1 000 000)",
    );
    let problem = pipe_problem::<f64>(n);
    println!(
        "\nscaled N = {} (n_BEM = {}), eps = {eps:.0e}\n",
        problem.n_total(),
        problem.n_bem()
    );

    for (backend, name) in [
        (DenseBackend::Spido, "baseline multi-facto (MUMPS/SPIDO)"),
        (DenseBackend::Hmat, "compressed multi-facto (MUMPS/HMAT)"),
    ] {
        println!("{name}:");
        println!(
            "{:>6} {:>10} {:>12} {:>12} {:>16} {:>12}",
            "n_b", "time (s)", "peak (MiB)", "Schur (MiB)", "factorizations", "rel. error"
        );
        for n_b in [1usize, 2, 3, 4] {
            // Traced, for the factorization count: the sparse solver records
            // one span per call it serves.
            let tracer = Tracer::enabled();
            let cfg = SolverConfig {
                eps,
                dense_backend: backend,
                n_b,
                num_threads: threads,
                tracer: tracer.clone(),
                ..Default::default()
            };
            let attempt = attempt(&problem, Algorithm::MultiFactorization, &cfg);
            // Factorization+Schur calls, and the plain one of the solve phase.
            let factorizations = tracer
                .drain()
                .iter()
                .filter(|r| {
                    [
                        SpanKind::SparseFactorizationSchur.name(),
                        SpanKind::SparseFactorization.name(),
                    ]
                    .contains(&r.payload.kind_name())
                })
                .count();
            match attempt {
                csolve_bench::Attempt::Ok(r) => println!(
                    "{n_b:>6} {:>10.2} {:>12.1} {:>12.1} {:>16} {:>12.3e}",
                    r.seconds, r.peak_mib, r.schur_mib, factorizations, r.rel_error
                ),
                other => println!("{n_b:>6} {:>10}", other.cell()),
            }
        }
        println!();
    }
}
