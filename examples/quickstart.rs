//! Quickstart: build a coupled FEM/BEM system and solve it for several
//! right-hand sides through a [`SolverSession`] — the factorization is done
//! once, cached, and amortized over every solve, instead of being redone
//! per right-hand side as a naive `solve()` loop would.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! Set `CSOLVE_TRACE_OUT=<prefix>` to record a span trace of the solve and
//! write `<prefix>.trace.jsonl` (one JSON record per span/event) plus
//! `<prefix>.report.json` (the aggregated machine-readable run report,
//! including the session's cache/batching telemetry).
//! `CSOLVE_QUICKSTART_N` overrides the problem size (CI uses a small one).

use csolve::{
    pipe_problem, to_jsonl, Algorithm, DenseBackend, RunReport, SessionBuilder, SolverConfig,
    Tracer,
};

fn main() {
    // A small "short pipe" test case: a cylindrical FEM volume whose outer
    // surface carries a BEM discretization, with a manufactured solution so
    // the error is measurable. The generator splits unknowns surface/volume
    // following the paper's Table I law.
    let n: usize = std::env::var("CSOLVE_QUICKSTART_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000);
    let problem = pipe_problem::<f64>(n);
    println!(
        "coupled system: {} unknowns total ({} FEM volume + {} BEM surface)",
        problem.n_total(),
        problem.n_fem(),
        problem.n_bem()
    );

    let trace_out = std::env::var("CSOLVE_TRACE_OUT").ok();
    let tracer = if trace_out.is_some() {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };

    // Compressed-Schur multi-solve: the sparse factors use BLR compression,
    // the BEM block and the Schur complement live in an H-matrix, and every
    // dense Schur panel coming back from the sparse solver is folded in
    // through a compressed AXPY. `SessionBuilder::build` validates the
    // combination before anything is solved.
    let cfg = SolverConfig {
        eps: 1e-4,                         // the paper's precision parameter
        dense_backend: DenseBackend::Hmat, // compressed dense solver
        n_c: 256,                          // columns solved at once per panel
        n_s: 1024,                         // Schur panel width
        tracer: tracer.clone(),
        ..Default::default()
    };

    // The session owns the factorization cache: the first solve factorizes
    // (a cache miss), every further solve of the same system reuses the
    // cached factors and only runs the cheap triangular solves.
    let mut session = SessionBuilder::new(cfg.clone(), Algorithm::MultiSolve)
        .build::<f64>()
        .expect("invalid solver configuration");

    let out = session
        .solve(&problem, &problem.b_v, &problem.b_s)
        .expect("solve failed");
    println!(
        "relative error vs. manufactured solution: {:.3e} (must be < eps = {:.0e})",
        problem.relative_error(&out.xv, &out.xs),
        cfg.eps
    );

    // Two more right-hand sides on the same matrix: submitted together,
    // they ride one BLAS-3 panel through the cached factors.
    for k in 0..2u64 {
        let scale = 0.5 + k as f64;
        let b_v: Vec<f64> = problem.b_v.iter().map(|x| scale * x).collect();
        let b_s: Vec<f64> = problem.b_s.iter().map(|x| scale * x).collect();
        session.submit(&problem, &b_v, &b_s).expect("submit failed");
    }
    let batch = session.flush().expect("batched solve failed");
    for solved in &batch {
        assert!(solved.info.cache_hit, "same matrix must reuse the factors");
    }

    let stats = session.stats();
    println!(
        "session: {} solves, {} factorization(s), {} served from cache (batch width up to {})",
        stats.requests, stats.cache_misses, stats.cache_hits, stats.max_batch_width
    );
    let metrics = session.last_metrics().expect("a factorization happened");
    println!("{}", metrics.summary());

    if let Some(prefix) = trace_out {
        let records = tracer.drain();
        let report =
            RunReport::from_parts(Algorithm::MultiSolve, DenseBackend::Hmat, metrics, &records)
                .with_session(stats);
        let trace_path = format!("{prefix}.trace.jsonl");
        let report_path = format!("{prefix}.report.json");
        std::fs::write(&trace_path, to_jsonl(&records)).expect("write trace");
        std::fs::write(&report_path, report.to_json()).expect("write report");
        println!(
            "trace: {} spans/events -> {trace_path}, report -> {report_path}",
            records.len()
        );
    }
}
