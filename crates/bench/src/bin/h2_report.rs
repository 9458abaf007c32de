//! H² nested-basis report — storage of the recursive-skeletonization
//! backend next to the flat H-matrix, and the coupled-solve contract of the
//! `DenseBackend::H2` backend (fig10-style capacity shape).
//!
//! Two parts:
//!
//! 1. **Storage sweep** — compresses the BEM surface operator `A_ss` of the
//!    pipe problem at a ladder of sizes with both representations (same
//!    cluster tree, same `eps`/`eta`) and records, per size: flat-H bytes
//!    and max leaf rank vs H² bytes (split into nested bases, couplings and
//!    near field) and max skeleton size. The *crossover* — the smallest
//!    size where the nested form stores less than the flat form — is
//!    reported; past it the gap widens with N, which is what buys the
//!    paper's "larger systems on the same node".
//! 2. **Coupled contract** — multi-solve at one size through the façade
//!    with `DenseBackend::Hmat` and `DenseBackend::H2`: Schur accumulator
//!    footprints side by side, relative error of both backends against the
//!    manufactured solution, and bitwise-identical results for the H²
//!    backend at 1, 2 and 4 threads.
//!
//! Writes a machine-readable dump (default `BENCH_h2.json` at the repo
//! root — see EXPERIMENTS.md). Flags:
//!
//! - `--max-n 4000`    — largest surface size of the storage sweep
//! - `--solve-n 8000`  — total unknowns of the coupled-contract problem
//! - `--eps 1e-6`      — compression tolerance for both representations
//! - `--out path.json` — where to write the JSON dump
//! - `--smoke`         — small sizes and write to `target/` (CI check; the
//!   assertions below run in every mode)
//!
//! The report *asserts* (exit non-zero) the PR's acceptance contract: at
//! the largest swept size the H² bytes do not exceed the flat-H bytes, the
//! coupled relative error stays within `100·eps`, and the H² backend is
//! bitwise deterministic across thread counts.

use csolve::hmat::{
    AssembleMethod, ClusterTree, H2Matrix, H2Options, H2Stats, HMatrix, HOptions, HStats,
};
use csolve::json::{json_fields, JsonWriter};
use csolve::{pipe_problem, solve, Algorithm, DenseBackend, SolverConfig};
use csolve_bench::{attempt, header, mib, write_json_file, Args, Attempt};

const ETA: f64 = 6.0;
const LEAF: usize = 64;
const MAX_RANK: usize = 256;

/// One size cell of the storage sweep.
struct StorageRow {
    n: usize,
    flat: HStats,
    h2: H2Stats,
}

/// Compress the pipe problem's surface operator both ways on one tree.
fn storage_row(n_surface_target: usize, eps: f64) -> StorageRow {
    // `pipe_problem(n)` splits ~n/2 (capped) onto the surface; ask for a
    // total that lands the surface near the target.
    let p = pipe_problem::<f64>(2 * n_surface_target);
    let bem = &p.bem;
    let n = bem.n();
    let tree = ClusterTree::build(&bem.points, LEAF);
    let perm = tree.perm.clone();
    let oracle = move |i: usize, j: usize| bem.eval(perm[i], perm[j]);

    let hopts = HOptions {
        eps,
        eta: ETA,
        max_rank: MAX_RANK,
        method: AssembleMethod::Aca,
    };
    let flat = HMatrix::assemble_root(&tree, &tree, &oracle, &hopts);
    let h2opts = H2Options {
        eps,
        eta: ETA,
        max_rank: MAX_RANK,
    };
    let h2 = H2Matrix::assemble(&tree, &oracle, &h2opts);
    StorageRow {
        n,
        flat: flat.stats(),
        h2: h2.stats(),
    }
}

/// One backend cell of the coupled contract.
struct SolveCell {
    backend: DenseBackend,
    schur_mib: f64,
    peak_mib: f64,
    seconds: f64,
    rel_error: f64,
}

fn solve_config(backend: DenseBackend, eps: f64, threads: usize) -> SolverConfig {
    SolverConfig {
        eps,
        dense_backend: backend,
        num_threads: threads,
        ..Default::default()
    }
}

fn solve_cell(
    p: &csolve::CoupledProblem<f64>,
    backend: DenseBackend,
    eps: f64,
    failures: &mut Vec<String>,
) -> Option<SolveCell> {
    match attempt(p, Algorithm::MultiSolve, &solve_config(backend, eps, 1)) {
        Attempt::Ok(r) => Some(SolveCell {
            backend,
            schur_mib: r.schur_mib,
            peak_mib: r.peak_mib,
            seconds: r.seconds,
            rel_error: r.rel_error,
        }),
        other => {
            failures.push(format!("{} multi-solve failed: {other:?}", backend.name()));
            None
        }
    }
}

fn to_json(
    eps: f64,
    rows: &[StorageRow],
    crossover: Option<usize>,
    cells: &[SolveCell],
    bitwise_ok: bool,
) -> String {
    let mut w = JsonWriter::pretty();
    w.begin_object()
        .field("tool", "h2_report")
        .field("eps", eps);
    w.key("storage_sweep").begin_array();
    for r in rows {
        w.begin_object();
        w.field("n", r.n);
        w.field("flat_bytes", r.flat.bytes);
        w.field("flat_max_rank", r.flat.max_rank);
        w.field("h2_bytes", r.h2.bytes);
        w.field("h2_basis_bytes", r.h2.basis_bytes);
        w.field("h2_coupling_bytes", r.h2.coupling_bytes);
        w.field("h2_flat_bytes", r.h2.flat_bytes);
        w.field("h2_far_blocks", r.h2.far_blocks);
        w.field("h2_max_skel", r.h2.max_skel);
        w.end_object();
    }
    w.end_array();
    w.field("crossover_n", crossover);
    w.key("coupled").begin_array();
    for c in cells {
        w.begin_object();
        w.field("backend", c.backend.name());
        json_fields!(w, c => schur_mib, peak_mib, seconds, rel_error);
        w.end_object();
    }
    w.end_array();
    w.field("h2_bitwise_identical_1_2_4_threads", bitwise_ok);
    w.end_object();
    w.finish()
}

fn main() {
    let args = Args::parse();
    let smoke = args.has("--smoke");
    let eps = args.get_f64("--eps", 1e-6);
    let max_n = args.get_usize("--max-n", if smoke { 1_500 } else { 4_000 });
    let solve_n = args.get_usize("--solve-n", if smoke { 3_000 } else { 8_000 });

    header(
        "H² nested bases — storage vs flat H-matrices, coupled-solve contract",
        "Agullo, Felšöci, Sylvand (IPDPS 2022), Fig. 10 regime (compressed Schur capacity)",
    );
    println!("\neps = {eps:.0e}, eta = {ETA}, leaf = {LEAF}\n");

    // --- Part 1: storage sweep over surface sizes. -----------------------
    let sizes: Vec<usize> = [250usize, 500, 1_000, 2_000, 4_000, 8_000]
        .into_iter()
        .filter(|&n| n <= max_n)
        .collect();
    let rows: Vec<StorageRow> = sizes.iter().map(|&n| storage_row(n, eps)).collect();

    println!(
        "{:>8} {:>12} {:>10} {:>12} {:>12} {:>12} {:>10} {:>9}",
        "N_s", "flat MiB", "max rank", "H2 MiB", "basis MiB", "coupl MiB", "near MiB", "max skel"
    );
    for r in &rows {
        println!(
            "{:>8} {:>12.2} {:>10} {:>12.2} {:>12.2} {:>12.2} {:>10.2} {:>9}",
            r.n,
            mib(r.flat.bytes),
            r.flat.max_rank,
            mib(r.h2.bytes),
            mib(r.h2.basis_bytes),
            mib(r.h2.coupling_bytes),
            mib(r.h2.flat_bytes),
            r.h2.max_skel
        );
    }
    // Strict: at sizes with no admissible far field both forms coincide.
    let crossover = rows.iter().find(|r| r.h2.bytes < r.flat.bytes).map(|r| r.n);
    match crossover {
        Some(n) => println!("\nnested form stores less than the flat form from N_s = {n} on"),
        None => println!("\nnested form never undercut the flat form in this sweep"),
    }

    let mut failures = Vec::new();
    if let Some(last) = rows.last() {
        if last.h2.bytes > last.flat.bytes {
            failures.push(format!(
                "H2 bytes {} exceed flat-H bytes {} at the largest swept size N_s = {}",
                last.h2.bytes, last.flat.bytes, last.n
            ));
        }
    }

    // --- Part 2: coupled contract through the façade. ---------------------
    let p = pipe_problem::<f64>(solve_n);
    println!(
        "\ncoupled multi-solve, pipe N = {solve_n} (N_s = {}), single thread:",
        p.n_bem()
    );
    let cells: Vec<SolveCell> = [DenseBackend::Hmat, DenseBackend::H2]
        .into_iter()
        .filter_map(|b| solve_cell(&p, b, eps, &mut failures))
        .collect();
    println!(
        "{:<8} {:>12} {:>12} {:>10} {:>12}",
        "backend", "schur MiB", "peak MiB", "time (s)", "rel err"
    );
    for c in &cells {
        println!(
            "{:<8} {:>12.2} {:>12.2} {:>10.2} {:>12.3e}",
            c.backend.name(),
            c.schur_mib,
            c.peak_mib,
            c.seconds,
            c.rel_error
        );
        if !(c.rel_error.is_finite() && c.rel_error <= 100.0 * eps) {
            failures.push(format!(
                "{} relative error {:e} above 100*eps = {:e}",
                c.backend.name(),
                c.rel_error,
                100.0 * eps
            ));
        }
    }

    // Bitwise determinism of the H2 backend across thread counts.
    let mut bitwise_ok = true;
    let base = solve(
        &p,
        Algorithm::MultiSolve,
        &solve_config(DenseBackend::H2, eps, 1),
    )
    .expect("H2 1-thread run failed");
    for threads in [2usize, 4] {
        let out = solve(
            &p,
            Algorithm::MultiSolve,
            &solve_config(DenseBackend::H2, eps, threads),
        )
        .expect("H2 multi-thread run failed");
        if out.xv != base.xv || out.xs != base.xs {
            bitwise_ok = false;
            failures.push(format!(
                "H2 backend result at {threads} threads differs bitwise from 1 thread"
            ));
        }
    }
    println!(
        "H2 backend bitwise identical at 1/2/4 threads: {}",
        if bitwise_ok { "yes" } else { "NO" }
    );

    let json = to_json(eps, &rows, crossover, &cells, bitwise_ok);
    write_json_file(&args, "h2", &json);

    if !failures.is_empty() {
        eprintln!("\nh2 report assertions FAILED:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
    println!("h2 report assertions passed");
}
