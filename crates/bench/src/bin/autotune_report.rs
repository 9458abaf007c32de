//! Autotuner report — predicted vs measured peak memory under budgets.
//!
//! Measures the fixed-blocking, unbounded peak of each blockwise algorithm
//! with the *uncompressed* (SPIDO) Schur, then replays the solve with
//! `BlockSizes::Auto` and the compressed (HMAT) Schur under budgets scaled
//! from that peak (default 2.0×, 1.0×, 0.7×). For each budget it records
//! the autotuner's decision (blocking, predicted peak), the measured peak,
//! and the relative error, next to the fixed-blocking run at the same
//! budget — demonstrating the capacity gain of the paper's compressed
//! couplings *plus* budget-aware blocking: at 0.7× the uncompressed peak
//! the fixed SPIDO run is out of memory while the autotuned HMAT run
//! completes inside the budget.
//!
//! The pipe problem is symmetric, so the SPIDO `S` in that peak is
//! half-stored. The tightest fraction was 0.6× of the peak with a fully
//! stored `S`: at `--smoke` size 0.6 × 5 214 640 B (multi-factorization)
//! and 0.6 × 3 724 960 B (multi-solve). Half storage takes 746 496 B off
//! both peaks, and 0.7× the new ones — 3 127 700 B and 2 084 924 B — is
//! the same multi-factorization budget and a tighter multi-solve one.
//!
//! Under `--smoke` (fractions 2.0×, 1.1×, 1.0× and 0.7×) the run fails
//! unless every autotuned run, at every fraction, completes inside its
//! budget, within 1.25× of its prediction and within its error bound (1e-8,
//! 1e-7 for the BLR rows), and at the tightest fraction fixed blocking is
//! out of memory. 1.1× is a budget at which HMAT multi-factorization ran
//! out of memory inside an admitted tile when the planner underpriced its
//! tiles.

use csolve::{pipe_problem, Algorithm, BlockSizes, DenseBackend, SolverConfig};
use csolve_bench::{attempt, header, mib, smoke_epilogue, truncate, Args, Attempt, Flag};

const FLAGS: &[Flag] = &[
    Flag::value("--n", "4000", "total unknowns of the pipe problem").smoke("1500"),
    Flag::value("--eps", "1e-10", "compression threshold"),
    Flag::value("--fracs", "2.0,1.0,0.7", "budget / uncompressed peak").smoke("2.0,1.1,1.0,0.7"),
    Flag::SMOKE,
];

/// One measured (algorithm, budget, mode) cell of the report.
struct Row {
    algo: &'static str,
    mode: &'static str,
    budget_frac: f64,
    budget_bytes: usize,
    status: String,
    predicted_peak: usize,
    measured_peak: usize,
    rel_error: f64,
    n_c: usize,
    n_s: usize,
    n_b: usize,
    degraded: bool,
}

fn base_config(eps: f64, backend: DenseBackend) -> SolverConfig {
    SolverConfig {
        eps,
        dense_backend: backend,
        num_threads: 1,
        ..Default::default()
    }
}

fn run_row(
    problem: &csolve::CoupledProblem<f64>,
    algo: Algorithm,
    cfg: &SolverConfig,
    mode: &'static str,
    frac: f64,
    budget: usize,
) -> Row {
    let mut row = Row {
        algo: algo.name(),
        mode,
        budget_frac: frac,
        budget_bytes: budget,
        status: "ok".to_string(),
        predicted_peak: 0,
        measured_peak: 0,
        rel_error: f64::NAN,
        n_c: cfg.n_c,
        n_s: cfg.n_s,
        n_b: cfg.n_b,
        degraded: false,
    };
    match attempt(problem, algo, cfg) {
        Attempt::Ok(r) => {
            row.measured_peak = r.metrics.peak_bytes;
            row.rel_error = r.rel_error;
            if let Some(d) = r.metrics.autotune {
                row.predicted_peak = d.predicted_peak;
                row.n_c = d.n_c;
                row.n_s = d.n_s;
                row.n_b = d.n_b;
                row.degraded = d.degraded;
            }
        }
        Attempt::Oom => row.status = "oom".to_string(),
        Attempt::Failed(e) => row.status = format!("failed: {}", truncate(&e, 60)),
    }
    row
}

fn main() {
    let args = Args::parse(FLAGS);
    let smoke = args.switch("--smoke");
    let n: usize = args.get("--n");
    let eps: f64 = args.get("--eps");
    let fracs: Vec<f64> = args.list("--fracs");

    header(
        "Memory-governed autotuner — predicted vs measured peak under budgets",
        "Agullo, Felšöci, Sylvand (IPDPS 2022), §V (memory-constrained runs)",
    );
    println!(
        "\npipe problem N = {n}, eps = {eps:.0e}, budgets scaled from the uncompressed peak\n"
    );

    let problem = pipe_problem::<f64>(n);
    let mut rows: Vec<Row> = Vec::new();

    for algo in [Algorithm::MultiSolve, Algorithm::MultiFactorization] {
        // Baseline: fixed blocking, dense (uncompressed) Schur, no budget.
        let dense_cfg = base_config(eps, DenseBackend::Spido);
        let baseline = run_row(&problem, algo, &dense_cfg, "fixed-unbounded", 0.0, 0);
        let peak = baseline.measured_peak;
        println!(
            "{}: uncompressed fixed-blocking peak {:.1} MiB",
            baseline.algo,
            mib(peak)
        );
        rows.push(baseline);

        for &frac in &fracs {
            let budget = ((peak as f64) * frac) as usize;
            // Fixed blocking at the same budget (the pre-autotuner
            // behaviour): dense Schur, old default block sizes.
            let fixed_cfg = SolverConfig {
                mem_budget: Some(budget),
                ..base_config(eps, DenseBackend::Spido)
            };
            rows.push(run_row(&problem, algo, &fixed_cfg, "fixed", frac, budget));
            // Autotuned blocking with the compressed Schur at that budget.
            let auto_cfg = SolverConfig {
                block_sizes: BlockSizes::Auto,
                mem_budget: Some(budget),
                ..base_config(eps, DenseBackend::Hmat)
            };
            rows.push(run_row(&problem, algo, &auto_cfg, "auto", frac, budget));
            // The same, with sparse-front BLR compression at an explicitly
            // decoupled tolerance. It shrinks the kept `A_vv` factors only:
            // multi-factorization tiles discard their factors uncompressed
            // and are priced by the same exact replay
            // (`predicted_schur_peak_bytes`) as without it.
            let blr_cfg = SolverConfig {
                sparse_eps: Some(1e-9),
                ..auto_cfg
            };
            rows.push(run_row(&problem, algo, &blr_cfg, "auto-blr", frac, budget));
        }
    }

    println!(
        "\n{:<20} {:<16} {:>6} {:>12} {:>12} {:>12} {:>10} {:<22}",
        "algorithm", "mode", "frac", "budget MiB", "pred MiB", "peak MiB", "rel err", "blocking"
    );
    for r in &rows {
        let degraded = if r.degraded { " (degraded)" } else { "" };
        let blocking = if r.algo == Algorithm::MultiFactorization.name() {
            format!("n_b={}{degraded}", r.n_b)
        } else {
            format!("n_c={} n_s={}{degraded}", r.n_c, r.n_s)
        };
        let pred = if r.predicted_peak > 0 {
            format!("{:>12.1}", mib(r.predicted_peak))
        } else {
            format!("{:>12}", "-")
        };
        let (peak_cell, err_cell) = if r.status == "ok" {
            (
                format!("{:>12.1}", mib(r.measured_peak)),
                format!("{:>10.2e}", r.rel_error),
            )
        } else {
            (format!("{:>12}", r.status), format!("{:>10}", "-"))
        };
        let budget_cell = if r.budget_bytes > 0 {
            format!("{:>12.1}", mib(r.budget_bytes))
        } else {
            format!("{:>12}", "-")
        };
        println!(
            "{:<20} {:<16} {:>6.2} {budget_cell} {pred} {peak_cell} {err_cell} {:<22}",
            r.algo, r.mode, r.budget_frac, blocking
        );
    }

    // CI assertions (smoke mode): every autotuned run completes, measured
    // within 1.25x of its prediction and inside its budget, and at the
    // tightest fraction fixed blocking cannot hold the uncompressed Schur.
    if smoke {
        let mut failures = Vec::new();
        for r in rows.iter().filter(|r| r.mode.starts_with("auto")) {
            if r.status != "ok" {
                failures.push(format!(
                    "{} {} @{:.2}x expected ok, got {}",
                    r.algo, r.mode, r.budget_frac, r.status
                ));
                continue;
            }
            if r.measured_peak > r.budget_bytes {
                failures.push(format!(
                    "{} {} @{:.2}x: measured peak {} B exceeds budget {} B",
                    r.algo, r.mode, r.budget_frac, r.measured_peak, r.budget_bytes
                ));
            }
            if r.predicted_peak > 0 && r.measured_peak as f64 > 1.25 * r.predicted_peak as f64 {
                failures.push(format!(
                    "{} {} @{:.2}x: measured peak {} B is more than 1.25x the predicted {} B",
                    r.algo, r.mode, r.budget_frac, r.measured_peak, r.predicted_peak
                ));
            }
            // The auto-blr rows trade accuracy for memory at sparse_eps
            // 1e-9; everything else runs at the tight report eps.
            let err_tol = if r.mode == "auto-blr" { 1e-7 } else { 1e-8 };
            if !r.rel_error.is_finite() || r.rel_error > err_tol {
                failures.push(format!(
                    "{} {} @{:.2}x: relative error {:e} above {err_tol:e}",
                    r.algo, r.mode, r.budget_frac, r.rel_error
                ));
            }
        }
        let tightest = fracs.iter().cloned().fold(f64::INFINITY, f64::min);
        for r in rows
            .iter()
            .filter(|r| r.budget_frac == tightest && r.mode == "fixed" && r.status != "oom")
        {
            failures.push(format!(
                "{} fixed @{tightest:.2}x expected oom, got {}",
                r.algo, r.status
            ));
        }
        smoke_epilogue("autotune_report", &failures);
    }
}
