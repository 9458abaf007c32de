//! Session-layer report — what the factorization cache and RHS batching of
//! [`csolve::SolverSession`] buy over the one-shot `solve()` path.
//!
//! For each panel width `w ∈ {1, 4, 16}` the benchmark times three ways of
//! solving `w` right-hand sides against the same coupled system:
//!
//! 1. **one-shot** — `w` independent `solve()` calls, each paying a full
//!    factorization (what a naive loop over excitations does);
//! 2. **session (cold)** — a fresh session: the first request factorizes
//!    once, all `w` requests then ride batched BLAS-3 panels through the
//!    cached factors;
//! 3. **session (warm)** — the same session again: pure cache hits, no
//!    factorization at all (the per-frequency marginal cost).
//!
//! It also reports the single-RHS cache-hit speedup (one-shot seconds over
//! warm-session seconds at width 1).
//!
//! Under `--smoke` the run fails unless batched throughput is ≥ 1.5×
//! one-at-a-time at width ≥ 4 and a cache hit beats a full re-solve.

use std::time::Instant;

use csolve::{pipe_problem, Algorithm, CoupledProblem, DenseBackend, SessionBuilder, SolverConfig};
use csolve_bench::{header, smoke_epilogue, Args, Flag};

const FLAGS: &[Flag] = &[
    Flag::value("--n", "6000", "total unknowns of the pipe problem").smoke("2000"),
    Flag::SMOKE,
];

const WIDTHS: [usize; 3] = [1, 4, 16];

fn config() -> SolverConfig {
    SolverConfig {
        eps: 1e-8,
        dense_backend: DenseBackend::Spido,
        ..Default::default()
    }
}

/// The `k`-th right-hand side of the sweep (same matrix, scaled load).
fn rhs(problem: &CoupledProblem<f64>, k: usize) -> (Vec<f64>, Vec<f64>) {
    let scale = 1.0 + 0.25 * k as f64;
    (
        problem.b_v.iter().map(|x| scale * x).collect(),
        problem.b_s.iter().map(|x| scale * x).collect(),
    )
}

struct Row {
    width: usize,
    one_shot_secs: f64,
    session_cold_secs: f64,
    session_warm_secs: f64,
}

impl Row {
    /// Throughput gain of the cold session (one factorization amortized
    /// over the panel) relative to one full solve per RHS.
    fn amortized_speedup(&self) -> f64 {
        self.one_shot_secs / self.session_cold_secs
    }

    /// Throughput gain once the factors are already cached.
    fn warm_speedup(&self) -> f64 {
        self.one_shot_secs / self.session_warm_secs
    }
}

fn measure(problem: &CoupledProblem<f64>, width: usize) -> Row {
    // One-shot: a fresh factorization per right-hand side.
    let t0 = Instant::now();
    for k in 0..width {
        let (b_v, b_s) = rhs(problem, k);
        let p = CoupledProblem {
            a_vv: problem.a_vv.clone(),
            a_sv: problem.a_sv.clone(),
            a_vs: problem.a_vs.clone(),
            bem: problem.bem.clone(),
            x_exact_v: Vec::new(),
            x_exact_s: Vec::new(),
            b_v,
            b_s,
            symmetric: problem.symmetric,
        };
        csolve::solve(&p, Algorithm::MultiSolve, &config()).expect("one-shot solve failed");
    }
    let one_shot_secs = t0.elapsed().as_secs_f64();

    // Session, cold: factorize once, batch everything else.
    let mut session = SessionBuilder::new(config(), Algorithm::MultiSolve)
        .max_batch(width.max(1))
        .build::<f64>()
        .expect("session build failed");
    let submit_all = |session: &mut csolve::SolverSession<f64>| {
        for k in 0..width {
            let (b_v, b_s) = rhs(problem, k);
            session.submit(problem, &b_v, &b_s).expect("submit failed");
        }
        session.flush().expect("batched solve failed");
    };
    let t1 = Instant::now();
    submit_all(&mut session);
    let session_cold_secs = t1.elapsed().as_secs_f64();

    // Session, warm: the factors are resident, only the solves remain.
    let t2 = Instant::now();
    submit_all(&mut session);
    let session_warm_secs = t2.elapsed().as_secs_f64();

    let stats = session.stats();
    assert_eq!(stats.cache_misses, 1, "the session must factorize once");
    assert_eq!(stats.requests as usize, 2 * width);

    Row {
        width,
        one_shot_secs,
        session_cold_secs,
        session_warm_secs,
    }
}

fn main() {
    let args = Args::parse(FLAGS);
    let smoke = args.switch("--smoke");
    let n: usize = args.get("--n");

    header(
        "Solver session — factorization cache and RHS batching vs one-shot solves",
        "Agullo, Felšöci, Sylvand (IPDPS 2022), §V (amortizing the factorization over RHS sweeps)",
    );
    println!("\npipe problem N = {n}, multi-solve, Spido backend\n");

    let problem = pipe_problem::<f64>(n);
    let rows: Vec<Row> = WIDTHS.iter().map(|&w| measure(&problem, w)).collect();

    println!(
        "{:>6} {:>14} {:>16} {:>16} {:>12} {:>10}",
        "width", "one-shot s", "session cold s", "session warm s", "amortized×", "warm×"
    );
    for r in &rows {
        println!(
            "{:>6} {:>14.3} {:>16.3} {:>16.3} {:>12.2} {:>10.2}",
            r.width,
            r.one_shot_secs,
            r.session_cold_secs,
            r.session_warm_secs,
            r.amortized_speedup(),
            r.warm_speedup(),
        );
    }
    let cache_hit_speedup = rows[0].warm_speedup();
    println!("\nsingle-RHS cache-hit speedup (one-shot / warm session): {cache_hit_speedup:.2}×");

    // CI assertions (smoke mode): batching must actually amortize.
    if smoke {
        let mut failures = Vec::new();
        for r in rows.iter().filter(|r| r.width >= 4) {
            if r.amortized_speedup() < 1.5 {
                failures.push(format!(
                    "width {}: batched session only {:.2}x one-at-a-time (need >= 1.5x)",
                    r.width,
                    r.amortized_speedup()
                ));
            }
        }
        if cache_hit_speedup <= 1.0 {
            failures.push(format!(
                "cache hit not faster than a full re-solve ({cache_hit_speedup:.2}x)"
            ));
        }
        smoke_epilogue("session_report", &failures);
    }
}
