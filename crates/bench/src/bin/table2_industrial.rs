//! Table II — the industrial aeroacoustic application.
//!
//! Paper setting: an aircraft test case with 2 090 638 volume + 168 830
//! surface unknowns (a much higher BEM ratio than the pipe), complex
//! non-symmetric matrices, single precision, ε = 10⁻⁴, one 32-core/384 GiB
//! node. The rows compare:
//!
//! 1. no compression anywhere — advanced coupling and multi-factorization
//!    cannot run (out of memory); multi-solve is the only survivor;
//! 2. compression in the sparse solver only — multi-solve improves;
//!    multi-factorization now completes and beats multi-solve in time
//!    (while using more memory);
//! 3. compression in both solvers — further large gains for both;
//! 4. multi-factorization with a larger Schur block (smaller `n_b`) —
//!    trading memory back for CPU time.
//!
//! This harness reproduces the same nine rows on a scaled complex
//! non-symmetric industrial-like case under a scaled memory budget.

use csolve::{industrial_problem, Algorithm, DenseBackend, SolverConfig, C64};
use csolve_bench::{attempt, header, Args, Attempt, Flag};

const FLAGS: &[Flag] = &[
    Flag::value("--n", "8000", "total unknowns of the industrial problem"),
    Flag::value("--eps", "1e-4", "compression threshold"),
    Flag::value("--budget-mib", "215", "memory budget in MiB"),
    Flag::value("--threads", "0", "worker threads (0 = all cores)"),
];

struct Row {
    label: &'static str,
    paper: &'static str,
    algo: Algorithm,
    backend: DenseBackend,
    sparse_compression: bool,
    n_b: usize,
}

fn main() {
    let args = Args::parse(FLAGS);
    let n: usize = args.get("--n");
    let eps: f64 = args.get("--eps");
    let budget = args.get::<usize>("--budget-mib") * 1024 * 1024;
    let threads: usize = args.get("--threads");

    header(
        "Table II — industrial application (complex non-symmetric, high BEM ratio)",
        "Agullo, Felšöci, Sylvand (IPDPS 2022), Table II (paper: N = 2.26 M, 384 GiB)",
    );
    let problem = industrial_problem::<C64>(n);
    println!(
        "\nscaled N = {} (n_FEM = {}, n_BEM = {} — {:.1}% surface), eps = {eps:.0e}, budget {} MiB\n",
        problem.n_total(),
        problem.n_fem(),
        problem.n_bem(),
        100.0 * problem.n_bem() as f64 / problem.n_total() as f64,
        budget / (1024 * 1024),
    );

    let rows = [
        Row {
            label: "no compression, advanced coupling",
            paper: "OOM (paper: cannot run)",
            algo: Algorithm::AdvancedCoupling,
            backend: DenseBackend::Spido,
            sparse_compression: false,
            n_b: 4,
        },
        Row {
            label: "no compression, multi-facto n_b=4",
            paper: "OOM (paper: cannot run)",
            algo: Algorithm::MultiFactorization,
            backend: DenseBackend::Spido,
            sparse_compression: false,
            n_b: 4,
        },
        Row {
            label: "no compression, multi-solve",
            paper: "runs (only uncompressed survivor)",
            algo: Algorithm::MultiSolve,
            backend: DenseBackend::Spido,
            sparse_compression: false,
            n_b: 4,
        },
        Row {
            label: "sparse comp.,   multi-solve",
            paper: "faster + less RAM than row 3",
            algo: Algorithm::MultiSolve,
            backend: DenseBackend::Spido,
            sparse_compression: true,
            n_b: 4,
        },
        Row {
            label: "sparse comp.,   multi-facto n_b=4",
            paper: "completes; faster than multi-solve, more RAM",
            algo: Algorithm::MultiFactorization,
            backend: DenseBackend::Spido,
            sparse_compression: true,
            n_b: 4,
        },
        Row {
            label: "sparse+dense,   multi-solve",
            paper: "large further improvement",
            algo: Algorithm::MultiSolve,
            backend: DenseBackend::Hmat,
            sparse_compression: true,
            n_b: 4,
        },
        Row {
            label: "sparse+dense,   multi-facto n_b=4",
            paper: "large further improvement",
            algo: Algorithm::MultiFactorization,
            backend: DenseBackend::Hmat,
            sparse_compression: true,
            n_b: 4,
        },
        Row {
            label: "sparse+dense,   multi-facto n_b=2",
            paper: "bigger Schur blocks: faster, more RAM",
            algo: Algorithm::MultiFactorization,
            backend: DenseBackend::Hmat,
            sparse_compression: true,
            n_b: 2,
        },
        Row {
            label: "sparse+dense,   multi-facto n_b=1",
            paper: "biggest block: fastest facto, most RAM",
            algo: Algorithm::MultiFactorization,
            backend: DenseBackend::Hmat,
            sparse_compression: true,
            n_b: 1,
        },
    ];

    println!(
        "{:<38} {:>9} {:>11} {:>11}  paper expectation",
        "configuration", "time (s)", "peak (MiB)", "rel. err"
    );
    for row in rows {
        let cfg = SolverConfig {
            eps,
            dense_backend: row.backend,
            sparse_eps: (!row.sparse_compression).then_some(0.0),
            n_b: row.n_b,
            mem_budget: Some(budget),
            num_threads: threads,
            ..Default::default()
        };
        let a = attempt(&problem, row.algo, &cfg);
        match a {
            Attempt::Ok(r) => println!(
                "{:<38} {:>9.2} {:>11.1} {:>11.3e}  {}",
                row.label, r.seconds, r.peak_mib, r.rel_error, row.paper
            ),
            Attempt::Oom => println!(
                "{:<38} {:>9} {:>11} {:>11}  {}",
                row.label, "OOM", "-", "-", row.paper
            ),
            Attempt::Failed(e) => println!("{:<38} FAILED: {e}", row.label),
        }
    }
}
