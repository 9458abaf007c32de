//! Tuning the paper's blocking parameters: `n_c` (columns a Schur panel's
//! sparse solve runs at once), `n_S` (Schur panel width) and `n_b`
//! (factorization block count),
//! showing the performance/memory trade-offs of §V-C.
//!
//! Run with: `cargo run --release --example tuning_blocks`

use csolve::{pipe_problem, solve, Algorithm, DenseBackend, SolverConfig, SpanKind, Tracer};

fn main() {
    let problem = pipe_problem::<f64>(8_000);
    println!(
        "pipe test case: N = {} ({} surface unknowns)\n",
        problem.n_total(),
        problem.n_bem()
    );

    println!("multi-solve: the n_c knob (more columns solved at once = more lane workspaces, more memory)");
    println!("{:>8} {:>10} {:>12}", "n_c", "time (s)", "peak (MiB)");
    for n_c in [32, 128, 512] {
        let cfg = SolverConfig {
            eps: 1e-4,
            dense_backend: DenseBackend::Hmat,
            n_c,
            n_s: 1024,
            ..Default::default()
        };
        let out = solve(&problem, Algorithm::MultiSolve, &cfg).unwrap();
        println!(
            "{:>8} {:>10.2} {:>12.1}",
            n_c,
            out.metrics.total_seconds,
            out.metrics.peak_bytes as f64 / (1 << 20) as f64
        );
    }

    println!("\nmulti-factorization: the n_b knob (more blocks = less memory, more");
    println!("superfluous re-factorizations of A_vv)");
    println!(
        "{:>8} {:>10} {:>12} {:>18}",
        "n_b", "time (s)", "peak (MiB)", "schur-fact calls"
    );
    for n_b in [1, 2, 4] {
        // Traced, to count the factorization+Schur calls the run made: the
        // pipe system is symmetric, so only the lower-triangle tiles are
        // computed — n_b(n_b+1)/2 calls, not n_b².
        let tracer = Tracer::enabled();
        let cfg = SolverConfig {
            eps: 1e-4,
            dense_backend: DenseBackend::Hmat,
            n_b,
            tracer: tracer.clone(),
            ..Default::default()
        };
        let out = solve(&problem, Algorithm::MultiFactorization, &cfg).unwrap();
        let calls = tracer
            .drain()
            .iter()
            .filter(|r| r.payload.kind_name() == SpanKind::SparseFactorizationSchur.name())
            .count();
        println!(
            "{:>8} {:>10.2} {:>12.1} {:>18}",
            n_b,
            out.metrics.total_seconds,
            out.metrics.peak_bytes as f64 / (1 << 20) as f64,
            calls
        );
    }

    println!(
        "\nRule of thumb from the paper: pick the largest blocks that fit in memory —\n\
         the algorithms are memory-aware in exactly this sense."
    );
}
