//! Integration tests for the span-tracing subsystem and the run report,
//! exercised through the `csolve` façade exactly as a downstream user
//! would: put an enabled tracer in the config, solve, drain, serialize.
//!
//! The determinism contract under test: with folds applied in block order, the
//! canonical (scope, kind) sequence of a traced solve is identical at any
//! thread count — traces are diffable across machines. Memory-pressure and
//! failure events (`budget_degrade`, `poisoned`) are excluded from the
//! contract (and absent here: no budget is set).

use csolve::json::{parse_json, parse_jsonl};
use csolve::{
    industrial_problem, pipe_problem, solve, to_jsonl, Algorithm, CoupledProblem, DenseBackend,
    RunReport, Scalar, SolverConfig, SpanKind, TracePayload, TraceRecord, TraceScope, Tracer, C64,
    TRACE_FORMAT_VERSION,
};

const N: usize = 1_500;

fn traced_solve(
    algo: Algorithm,
    backend: DenseBackend,
    threads: usize,
) -> (csolve::Outcome<f64>, Vec<TraceRecord>) {
    let p = pipe_problem::<f64>(N);
    let tracer = Tracer::enabled();
    let cfg = SolverConfig {
        eps: 1e-8,
        dense_backend: backend,
        // Small panels/blocks so the pipelines genuinely run several
        // overlapping units of work.
        n_c: 24,
        n_s: 96,
        n_b: 3,
        num_threads: threads,
        tracer: tracer.clone(),
        ..Default::default()
    };
    let out = solve(&p, algo, &cfg).expect("traced solve failed");
    (out, tracer.drain())
}

/// The contract signature: canonical order, pressure events stripped.
fn signature(records: &[TraceRecord]) -> Vec<(TraceScope, String)> {
    records
        .iter()
        .filter(|r| !matches!(r.payload.kind_name(), "budget_degrade" | "poisoned"))
        .map(|r| (r.scope, r.payload.kind_name().to_string()))
        .collect()
}

#[test]
fn span_sequence_is_identical_across_thread_counts() {
    for (algo, backend) in [
        (Algorithm::MultiSolve, DenseBackend::Hmat),
        (Algorithm::MultiFactorization, DenseBackend::Spido),
    ] {
        let (out1, rec1) = traced_solve(algo, backend, 1);
        let sig1 = signature(&rec1);
        assert!(!sig1.is_empty(), "{}: empty trace", algo.name());
        for threads in [2, 4] {
            let (out_t, rec_t) = traced_solve(algo, backend, threads);
            assert_eq!(
                sig1,
                signature(&rec_t),
                "{} / {}: trace signature differs between 1 and {threads} threads",
                algo.name(),
                backend.name()
            );
            // Tracing must not perturb the numerics either.
            assert!(
                out1.xv == out_t.xv && out1.xs == out_t.xs,
                "{} / {}: traced results not bitwise-identical across threads",
                algo.name(),
                backend.name()
            );
        }
    }
}

/// Multi-factorization runs one factorization+Schur call per tile it
/// computes — the lower triangle of the grid, `n_b(n_b+1)/2` tiles, when the
/// system is symmetric, all `n_b²` when it is not — one per pipeline block,
/// and folds every tile once (a symmetric system's into its half-stored
/// `S`).
#[test]
fn multi_factorization_factors_the_lower_triangle_of_a_symmetric_system() {
    fn calls<T: Scalar>(p: &CoupledProblem<T>, n_b: usize) -> [usize; 3] {
        let tracer = Tracer::enabled();
        let cfg = SolverConfig {
            eps: 1e-6,
            n_b,
            num_threads: 2,
            tracer: tracer.clone(),
            ..Default::default()
        };
        let out = solve(p, Algorithm::MultiFactorization, &cfg).expect("traced solve failed");
        let records = tracer.drain();
        let spans = |kind: SpanKind, in_block: bool| {
            records
                .iter()
                .filter(|r| r.payload.kind_name() == kind.name())
                .filter(|r| !in_block || matches!(r.scope, TraceScope::Block(_)))
                .count()
        };
        let report = RunReport::from_parts(
            Algorithm::MultiFactorization,
            cfg.dense_backend,
            &out.metrics,
            &records,
        );
        [
            spans(SpanKind::SparseFactorizationSchur, true),
            report.blocks,
            spans(SpanKind::AxpyCommit, true),
        ]
    }
    let pipe = pipe_problem::<f64>(600);
    let industrial = industrial_problem::<C64>(600);
    assert!(pipe.symmetric && !industrial.symmetric);
    for n_b in 1..=4 {
        let lower = n_b * (n_b + 1) / 2;
        assert_eq!(calls(&pipe, n_b), [lower; 3], "pipe, n_b = {n_b}");
        assert_eq!(
            calls(&industrial, n_b),
            [n_b * n_b; 3],
            "industrial, n_b = {n_b}"
        );
    }
}

/// The blockwise skeleton's per-block frame, for both blockwise algorithms on
/// both backends at 1, 2 and 4 threads: block scopes appear in ascending
/// order from 0, and each block's records open with its admission wait and
/// hold exactly two `task_run` spans, the compute's followed at once by the
/// wait for the fold turn and the fold's closing the block.
#[test]
fn block_scopes_are_contiguous_and_follow_the_skeleton_frame() {
    for algo in [Algorithm::MultiSolve, Algorithm::MultiFactorization] {
        for backend in [DenseBackend::Spido, DenseBackend::Hmat] {
            for threads in [1, 2, 4] {
                let run = format!("{} / {backend:?} / {threads} thr", algo.name());
                let (_, records) = traced_solve(algo, backend, threads);
                assert!(
                    records
                        .iter()
                        .all(|r| r.payload.kind_name() != "task_ready"),
                    "{run}: a task_ready record"
                );
                let mut blocks: Vec<Vec<&str>> = Vec::new();
                for r in &records {
                    if let TraceScope::Block(seq) = r.scope {
                        if seq == blocks.len() {
                            blocks.push(Vec::new());
                        }
                        assert_eq!(seq + 1, blocks.len(), "{run}: block {seq} out of order");
                        blocks[seq].push(r.payload.kind_name());
                    }
                }
                assert!(blocks.len() > 1, "{run}: expected several pipeline blocks");
                let task_run = SpanKind::TaskRun.name();
                for (b, kinds) in blocks.iter().enumerate() {
                    let runs: Vec<usize> =
                        (0..kinds.len()).filter(|&i| kinds[i] == task_run).collect();
                    assert_eq!(
                        kinds[0], "admit_wait",
                        "{run}: block {b} opens with {kinds:?}"
                    );
                    assert_eq!(runs.len(), 2, "{run}: block {b} has {kinds:?}");
                    assert_eq!(
                        kinds[runs[0] + 1],
                        "commit_wait",
                        "{run}: block {b} has {kinds:?}"
                    );
                    assert_eq!(runs[1], kinds.len() - 1, "{run}: block {b} has {kinds:?}");
                }
            }
        }
    }
}

/// A one-shot `solve()` is a factorization followed by a width-1 panel
/// solve on the same run scope: the solution spans are the scope's last
/// spans, and the end-of-run memory sample closes it.
#[test]
fn run_scope_ends_with_solution_spans_then_end_of_run_events() {
    for algo in Algorithm::ALL {
        let (_, records) = traced_solve(algo, DenseBackend::Hmat, 2);
        let run: Vec<&str> = records
            .iter()
            .filter(|r| r.scope == TraceScope::Run)
            .map(|r| r.payload.kind_name())
            .collect();
        let solution: &[&str] = if algo == Algorithm::AdvancedCoupling {
            &["coupled_solve"]
        } else {
            &["sparse_solve", "dense_solve", "sparse_solve"]
        };
        let tail = [solution, &["mem_high_water"]].concat();
        assert!(
            run.ends_with(&tail),
            "{}: run scope ends with {:?}, expected {tail:?}",
            algo.name(),
            &run[run.len().saturating_sub(tail.len())..]
        );
    }
}

/// Every driver phase is recorded once: a span kind the driver owns and the
/// `Metrics` rows recorded under it are the same measurements, so their sums
/// agree — bytes and flops exactly, time to the nanosecond rounding of a span.
#[test]
fn phase_rows_and_driver_spans_agree() {
    let owned: [(SpanKind, &[&str]); 8] = [
        (SpanKind::SchurInit, &["Schur init (A_ss)"]),
        (
            SpanKind::SparseSolve,
            &[
                "sparse solve (Y)",
                "sparse solve (rhs)",
                "sparse solve (back)",
            ],
        ),
        (SpanKind::Spmm, &["SpMM"]),
        (SpanKind::AxpyCommit, &["Schur assembly"]),
        (SpanKind::DenseFactorization, &["dense factorization"]),
        (SpanKind::AssembleW, &["assemble W"]),
        (SpanKind::DenseSolve, &["dense solve"]),
        (SpanKind::CoupledSolve, &["coupled solve"]),
    ];
    for algo in Algorithm::ALL {
        for backend in [DenseBackend::Spido, DenseBackend::Hmat] {
            let (out, records) = traced_solve(algo, backend, 2);
            let report = RunReport::from_parts(algo, backend, &out.metrics, &records);
            for (kind, labels) in owned {
                let cell = format!("{} / {} / {}", algo.name(), backend.name(), kind.name());
                let rows = report
                    .phases
                    .iter()
                    .filter(|p| labels.contains(&p.name.as_str()));
                let (secs, bytes, flops) = rows.fold((0.0, 0, 0), |(s, b, f), p| {
                    (s + p.seconds, b + p.bytes, f + p.flops)
                });
                match report.spans.iter().find(|a| a.kind == kind.name()) {
                    Some(a) => {
                        assert_eq!((a.bytes, a.flops), (bytes, flops), "{cell}");
                        let tol = 1e-6 * a.count as f64;
                        assert!((a.seconds - secs).abs() <= tol, "{cell}: {a:?} vs {secs} s");
                    }
                    None => assert_eq!((secs, bytes, flops), (0.0, 0, 0), "{cell}: no span"),
                }
            }
        }
    }
}

/// A record with its timestamps, durations and thread id left out: what a
/// run's trace says about the run's own work.
fn timeless(records: &[TraceRecord]) -> Vec<(TraceScope, TracePayload)> {
    records
        .iter()
        .map(|r| {
            let payload = match r.payload.clone() {
                TracePayload::Span {
                    kind, bytes, flops, ..
                } => TracePayload::Span {
                    kind,
                    start_ns: 0,
                    dur_ns: 0,
                    bytes,
                    flops,
                },
                TracePayload::Event { kind, .. } => TracePayload::Event { kind, at_ns: 0 },
            };
            (r.scope, payload)
        })
        .collect()
}

/// A run's trace describes that run only: two traced solves running at once
/// in one process, each with its own tracer, drain the records a lone run
/// of the same solve drains — the same `(scope, kind)` sequence, the same
/// bytes and flops on every span and the same payload on every event.
#[test]
fn concurrent_traced_solves_each_record_only_their_own_work() {
    let p = pipe_problem::<f64>(2_000);
    let run = |p: &CoupledProblem<f64>| {
        let tracer = Tracer::enabled();
        let cfg = SolverConfig {
            eps: 1e-8,
            dense_backend: DenseBackend::Hmat,
            num_threads: 1,
            tracer: tracer.clone(),
            ..Default::default()
        };
        let out = solve(p, Algorithm::MultiSolve, &cfg).expect("traced solve failed");
        (out, timeless(&tracer.drain()))
    };
    let (lone_out, lone) = run(&p);
    assert!(lone.len() > 1, "empty trace");
    let start = std::sync::Barrier::new(2);
    let concurrent: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    run(&p)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, (out, records)) in concurrent.iter().enumerate() {
        assert!(
            out.xv == lone_out.xv && out.xs == lone_out.xs,
            "run {i}: solution differs from the lone run's"
        );
        assert_eq!(
            records.len(),
            lone.len(),
            "run {i}: record count differs from the lone run's"
        );
        for (k, (got, want)) in records.iter().zip(&lone).enumerate() {
            assert_eq!(got, want, "run {i}, record {k}");
        }
    }
}

#[test]
fn jsonl_trace_parses_back_with_header_and_schema() {
    let (_, records) = traced_solve(Algorithm::MultiSolve, DenseBackend::Hmat, 2);
    let text = to_jsonl(&records);
    let docs = parse_jsonl(&text).expect("trace JSONL must parse");
    assert_eq!(
        docs.len(),
        records.len() + 1,
        "header + one line per record"
    );

    let header = &docs[0];
    assert_eq!(
        header.get("type").and_then(|v| v.as_str()),
        Some("csolve_trace")
    );
    assert_eq!(
        header.get("v").and_then(|v| v.as_u64()),
        Some(TRACE_FORMAT_VERSION as u64)
    );
    assert_eq!(
        header.get("records").and_then(|v| v.as_u64()),
        Some(records.len() as u64)
    );

    for (doc, rec) in docs[1..].iter().zip(&records) {
        let cat = doc.get("cat").and_then(|v| v.as_str()).unwrap();
        assert_eq!(
            cat,
            if rec.payload.is_span() {
                "span"
            } else {
                "event"
            }
        );
        assert_eq!(
            doc.get("kind").and_then(|v| v.as_str()),
            Some(rec.payload.kind_name())
        );
        match rec.scope {
            TraceScope::Run => {
                assert_eq!(doc.get("scope").and_then(|v| v.as_str()), Some("run"));
            }
            TraceScope::Block(seq) => {
                assert_eq!(doc.get("scope").and_then(|v| v.as_str()), Some("block"));
                assert_eq!(doc.get("seq").and_then(|v| v.as_u64()), Some(seq as u64));
            }
        }
        assert!(
            doc.get("t_ns").is_some(),
            "every record carries a timestamp"
        );
        if let TracePayload::Span {
            dur_ns,
            bytes,
            flops,
            ..
        } = &rec.payload
        {
            assert_eq!(doc.get("dur_ns").and_then(|v| v.as_u64()), Some(*dur_ns));
            assert_eq!(
                doc.get("bytes").and_then(|v| v.as_u64()),
                Some(*bytes as u64)
            );
            assert_eq!(doc.get("flops").and_then(|v| v.as_u64()), Some(*flops));
        }
    }
}

#[test]
fn run_report_has_the_documented_shape() {
    let (out, records) = traced_solve(Algorithm::MultiSolve, DenseBackend::Hmat, 2);
    let report = RunReport::from_parts(
        Algorithm::MultiSolve,
        DenseBackend::Hmat,
        &out.metrics,
        &records,
    );
    let doc = parse_json(&report.to_json()).expect("run report must be valid JSON");

    assert_eq!(
        doc.get("type").and_then(|v| v.as_str()),
        Some("csolve_run_report")
    );
    assert_eq!(
        doc.get("version").and_then(|v| v.as_u64()),
        Some(TRACE_FORMAT_VERSION as u64)
    );
    assert_eq!(
        doc.get("algorithm").and_then(|v| v.as_str()),
        Some("multi-solve")
    );
    assert_eq!(doc.get("backend").and_then(|v| v.as_str()), Some("HMAT"));
    for key in [
        "threads",
        "n_total",
        "n_bem",
        "n_fem",
        "peak_bytes",
        "schur_bytes",
        "blocks",
    ] {
        assert!(
            doc.get(key).and_then(|v| v.as_u64()).is_some(),
            "missing integer field {key}"
        );
    }
    assert!(doc.get("total_seconds").and_then(|v| v.as_f64()).is_some());

    // The golden phase names of multi-solve survive into the report.
    let phases = doc.get("phases").and_then(|v| v.as_array()).unwrap();
    let names: Vec<&str> = phases
        .iter()
        .filter_map(|p| p.get("name").and_then(|v| v.as_str()))
        .collect();
    for want in [
        "sparse factorization",
        "sparse solve (Y)",
        "SpMM",
        "Schur assembly",
        "dense factorization",
    ] {
        assert!(names.contains(&want), "phase {want:?} missing: {names:?}");
    }

    // The span aggregates cover the instrumented hot path.
    let spans = doc.get("spans").and_then(|v| v.as_array()).unwrap();
    let kinds: Vec<&str> = spans
        .iter()
        .filter_map(|s| s.get("kind").and_then(|v| v.as_str()))
        .collect();
    for want in [
        SpanKind::SparseFactorization.name(),
        SpanKind::SparseSolve.name(),
        SpanKind::Spmm.name(),
        SpanKind::AxpyCommit.name(),
        SpanKind::AdmitWait.name(),
        SpanKind::CommitWait.name(),
        SpanKind::SchurInit.name(),
        SpanKind::DenseFactorization.name(),
        SpanKind::HluFactor.name(),
    ] {
        assert!(
            kinds.contains(&want),
            "span kind {want:?} missing: {kinds:?}"
        );
    }

    // The measured-cache kernel calibration is recorded with every report.
    let kb = doc.get("kernel_blocking").expect("kernel_blocking section");
    assert!(kb.get("cache_source").and_then(|v| v.as_str()).is_some());
    for width in ["f64", "c64"] {
        let b = kb.get(width).unwrap();
        for field in ["mc", "kc", "nc"] {
            assert!(
                b.get(field).and_then(|v| v.as_u64()).unwrap() > 0,
                "calibrated {width}.{field} missing or zero"
            );
        }
    }

    // A memory high-water sample is always emitted by an enabled trace.
    let events = doc.get("events").and_then(|v| v.as_object()).unwrap();
    assert!(events.contains_key("mem_high_water"), "{events:?}");

    assert!(doc.get("blocks").and_then(|v| v.as_u64()).unwrap() > 1);
}

#[test]
fn disabled_tracer_records_nothing() {
    let p = pipe_problem::<f64>(800);
    let tracer = Tracer::disabled();
    let cfg = SolverConfig {
        eps: 1e-8,
        tracer: tracer.clone(),
        ..Default::default()
    };
    solve(&p, Algorithm::MultiSolve, &cfg).unwrap();
    assert!(tracer.drain().is_empty());
    assert!(!tracer.is_enabled());
}
