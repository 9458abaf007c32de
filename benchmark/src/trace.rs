//! The traced run of a workload: one solve per thread count for the phase
//! tables, the staged replay with its spans, the micro-probes, and the
//! per-layer metrics derived from them.

use std::time::Instant;

use csolve::{solve, CoupledProblem, KernelCalibration, Metrics as SolveMetrics, Scalar};

use crate::catalog::{layer_unit, PHASES};
use crate::measure::{cold_request, set_up, warm_stream, Opts, Setup, Stream};
use crate::probes::{self, in_pool};
use crate::replay::{replay, solution_phase, Blocking, Replayed};
use crate::spans::SpanLog;
use crate::stats::median;
use crate::workloads::{
    judge_outcome, judge_solution, mib, nproc, Gate, Kind, Metrics, Pair, Reference, Spec, N_BASIS,
    PANEL_WIDTH,
};
use csolve::testkit::SplitMix64;
use csolve::DenseBackend;

pub struct TraceOut {
    pub gate: Gate,
    /// Per-layer metrics, catalogue names only; a metric whose call the
    /// workload never makes is absent.
    pub metrics: Metrics,
    pub log: SpanLog,
}

/// Per-layer metric sink that takes units from the catalogue.
struct Layers(Metrics);

impl Layers {
    fn set(&mut self, name: &str, value: f64) {
        let unit = layer_unit(name).unwrap_or_else(|| panic!("{name} is not in the catalogue"));
        self.0.exact(name, unit, value);
    }

    /// Set only when the workload made the call the metric describes.
    fn set_if(&mut self, made: bool, name: &str, value: f64) {
        if made {
            self.set(name, value);
        }
    }

    fn phases(&mut self, table: &str, metrics: &SolveMetrics) {
        for report in metrics.phase_reports() {
            if let Some((_, slug)) = PHASES.iter().find(|(n, _)| *n == report.name) {
                self.set(&format!("core.{table}.{slug}_s"), report.seconds);
            }
        }
    }
}

/// What the two reference solves (or cold requests) of a traced run gave:
/// wall seconds and solver metrics at 1 thread and at `P` threads.
struct References {
    wall_1: f64,
    wall_p: f64,
    metrics_1: SolveMetrics,
    metrics_p: SolveMetrics,
    /// Median warm panel of the session's short stream.
    panel_p50_s: Option<f64>,
}

pub fn traced<T: Scalar>(spec: &Spec, o: &Opts) -> TraceOut {
    let mut log = SpanLog::new(spec.name);
    let mut m = Layers(Metrics::default());
    let mut gate = Gate::default();
    run::<T>(spec, o, &mut gate, &mut m, &mut log);
    TraceOut {
        gate,
        metrics: m.0,
        log,
    }
}

/// The traced run proper. Returns early when a reference solve or the replay
/// fails; the failure is in `gate` by then.
fn run<T: Scalar>(spec: &Spec, o: &Opts, gate: &mut Gate, m: &mut Layers, log: &mut SpanLog) {
    let mut reference: Reference<T> = None;
    let n_pairs = if spec.kind == Kind::Session {
        N_BASIS
    } else {
        1
    };
    let Setup {
        problem,
        basis,
        generate_s,
        rhs_build_s,
    } = set_up::<T>(spec, o, n_pairs);
    let want = &basis[0];
    let budget = spec.budget_bytes(o.smoke);
    let cfg_1 = spec.config(1, o.smoke);
    let cfg_p = spec.config(o.threads, o.smoke);

    // --- host and generator facts.
    let calibration = KernelCalibration::current();
    let llc = calibration.cache.l3_bytes.max(calibration.cache.l2_bytes);
    let triad_len = if o.smoke {
        1 << 20
    } else {
        probes::triad_len(llc)
    };
    let (triad_1, triad_p) = probes::triad_gbs(triad_len, o.threads);
    m.set("host.nproc", nproc() as f64);
    m.set("host.threads_p", o.threads as f64);
    m.set("host.llc_bytes", llc as f64);
    m.set("host.triad_array_mib", mib(triad_len * 8));
    m.set("host.triad_gbs_1t", triad_1);
    m.set("host.triad_gbs_pt", triad_p);
    m.set("fembem.generate_s", generate_s);
    m.set("fembem.rhs_build_s", rhs_build_s);
    m.set(
        "fembem.bem_entries_per_s",
        probes::bem_entries_per_s(&problem.bem),
    );

    // --- first solve (cold caches), then one reference per thread count.
    let t = Instant::now();
    let warm = solve(&problem, spec.algo, &cfg_p);
    m.set("core.first_solve_s", t.elapsed().as_secs_f64());
    gate.record(
        "warm-up",
        judge_outcome(&warm, want, &mut reference, budget),
    );
    drop(warm);

    let refs = match spec.kind {
        Kind::OneShot => {
            let mut run = |cfg, label: &str| {
                let t = Instant::now();
                let out = solve(&problem, spec.algo, cfg);
                let wall = t.elapsed().as_secs_f64();
                gate.record(label, judge_outcome(&out, want, &mut reference, budget));
                out.ok().map(|o| (wall, o.metrics))
            };
            let one = run(&cfg_1, "traced solve at 1 thread");
            let many = run(&cfg_p, "traced solve at P threads");
            one.zip(many)
                .map(|((wall_1, metrics_1), (wall_p, metrics_p))| References {
                    wall_1,
                    wall_p,
                    metrics_1,
                    metrics_p,
                    panel_p50_s: None,
                })
        }
        Kind::Session => session_references(spec, o, &problem, &basis, &mut reference, gate, m),
    };
    let Some(refs) = refs else {
        return;
    };
    m.phases("phase", &refs.metrics_1);
    m.phases("phase_pt", &refs.metrics_p);
    let sum = |x: &SolveMetrics| x.phases.iter().map(|(_, s)| s).sum::<f64>();
    m.set(
        "core.phase_inflation",
        sum(&refs.metrics_p) / sum(&refs.metrics_1),
    );
    let speedup = if o.threads > 1 {
        refs.wall_1 / refs.wall_p
    } else {
        1.0
    };
    m.set("core.par_efficiency", speedup / o.threads as f64);
    if let Some(d) = refs.metrics_1.autotune {
        m.set("core.autotune.n_c", d.n_c as f64);
        m.set("core.autotune.n_s", d.n_s as f64);
        m.set(
            "core.autotune.predicted_over_peak",
            d.predicted_peak as f64 / refs.metrics_1.peak_bytes as f64,
        );
    }
    if let Some(blr) = &refs.metrics_1.sparse_compression {
        m.set("sparse.blr_panels_eligible", blr.panels_eligible as f64);
        m.set("sparse.blr_panels_compressed", blr.panels_compressed as f64);
    }

    // --- staged replay at 1 thread (what `core.solve_1t_s` is set against), then
    // width-8 panel solves on its factors at `P` threads (what the session's
    // `flush()` is set against).
    let blocking = Blocking::of_run(spec.algo, &cfg_1, &refs.metrics_1);
    let panel_replays = if spec.kind == Kind::Session { 8 } else { 3 };
    let replayed = in_pool(1, || -> csolve::Result<Replayed<T>> {
        let (replayed, xv, xs) = replay(&problem, &cfg_1, blocking, log)?;
        gate.record("staged replay", judge_solution(&xv, &xs, want, &mut None));
        let bitwise = reference
            .as_ref()
            .is_some_and(|(rv, rs)| *rv == xv && *rs == xs);
        m.set("core.replay_bitwise", f64::from(u8::from(bitwise)));
        Ok(replayed)
    })
    .and_then(|replayed| {
        let (bv, bs) = panel_rhs(want);
        in_pool(o.threads, || {
            for _ in 0..panel_replays {
                solution_phase(&replayed, &bv, &bs, true, log)?;
            }
            Ok(replayed)
        })
    });
    let replayed = match replayed {
        Ok(r) => r,
        Err(e) => {
            gate.record("staged replay", Err(format!("solver error: {e}")));
            return;
        }
    };
    let replay_total = log.total_s("core", "replay");
    m.set("core.replay_total_s", replay_total);
    m.set("core.solve_1t_s", refs.wall_1);
    m.set("core.driver_overhead_s", refs.wall_1 - replay_total);
    if let Some(p50) = refs.panel_p50_s {
        let replayed_panel = log.total_s("core", "panel_solve") / panel_replays as f64;
        m.set("core.session.overhead_frac", 1.0 - replayed_panel / p50);
    }

    span_metrics(m, log, &replayed, triad_1, panel_replays);
    probe_metrics(m, spec, o, &problem, &replayed);
}

/// A width-8 right-hand-side panel: scaled copies of the seeded one.
fn panel_rhs<T: Scalar>(want: &Pair<T>) -> (Vec<T>, Vec<T>) {
    let scaled = |v: &[T]| -> Vec<T> {
        (0..PANEL_WIDTH)
            .flat_map(|j| {
                let s = T::from_f64(1.0 + j as f64);
                v.iter().map(move |&x| s * x)
            })
            .collect()
    };
    (scaled(&want.bv), scaled(&want.bs))
}

/// The session's two references: a cold request at 1 thread and one at `P`
/// (their factorization metrics are the phase tables), then a short warm
/// stream on the `P`-thread session for the `core.session.*` metrics.
fn session_references<T: Scalar>(
    spec: &Spec,
    o: &Opts,
    problem: &CoupledProblem<T>,
    basis: &[Pair<T>],
    reference: &mut Reference<T>,
    gate: &mut Gate,
    m: &mut Layers,
) -> Option<References> {
    let want = &basis[0];
    let (wall_1, s1) = cold_request(spec, o, 1, problem, want, reference, gate);
    let metrics_1 = s1?.last_metrics().cloned()?;
    let (wall_p, sp) = cold_request(spec, o, o.threads, problem, want, reference, gate);
    let mut sp = sp?;
    let metrics_p = sp.last_metrics().cloned()?;

    let panels = if o.smoke { 4 } else { 32 };
    let mut rng = SplitMix64::new(o.seed ^ 0x5EED_5EED);
    let mut stream = Stream::default();
    warm_stream(&mut sp, problem, basis, &mut rng, panels, &mut stream, gate);
    m.set("core.session.submit_s", median(&stream.submit_s));
    m.set("core.session.flush_s", median(&stream.flush_s));
    let stats = sp.stats();
    m.set("core.session.batches", stats.batches as f64);
    m.set(
        "core.session.cache_hit_ratio",
        stats.cache_hits as f64 / stats.requests.max(1) as f64,
    );
    Some(References {
        wall_1,
        wall_p,
        metrics_1,
        metrics_p,
        panel_p50_s: Some(median(&stream.panel_s)),
    })
}

/// Per-layer metrics read off the replay's spans.
fn span_metrics<T: Scalar>(
    m: &mut Layers,
    log: &SpanLog,
    r: &Replayed<T>,
    triad_gbs_1t: f64,
    panel_replays: usize,
) {
    let total = |layer, name| log.total_s(layer, name);
    let calls = |layer, name| log.calls(layer, name);

    let factorize_s = total("sparse", "factorize");
    m.set("sparse.factorize_s", factorize_s);
    m.set(
        "sparse.factor_gflops",
        log.count_sum("sparse", "factorize", "flops") / factorize_s / 1e9,
    );
    m.set("sparse.factor_mib", mib(r.factor_stats.factor_bytes));
    let tile_peak = log
        .spans()
        .iter()
        .filter(|s| s.layer == "sparse" && s.name == "factorize_schur")
        .flat_map(|s| s.counts.iter())
        .filter(|(k, _)| *k == "peak_bytes")
        .map(|(_, v)| *v)
        .fold(0.0, f64::max);
    m.set(
        "sparse.factor_peak_mib",
        tile_peak.max(r.factor_stats.peak_bytes as f64) / f64::from(1 << 20),
    );
    m.set("sparse.max_front", r.factor_stats.max_front as f64);
    m.set("sparse.n_supernodes", r.factor_stats.n_supernodes as f64);
    m.set("sparse.submatrix_s", total("sparse", "submatrix"));

    let y_calls = calls("sparse", "solve_sparse_rhs");
    let y_s = total("sparse", "solve_sparse_rhs");
    m.set_if(y_calls > 0, "sparse.solve_sparse_rhs_s", y_s);
    m.set_if(y_calls > 0, "sparse.solve_sparse_rhs_calls", y_calls as f64);
    m.set_if(
        y_calls > 0,
        "sparse.solve_cols",
        log.count_sum("sparse", "solve_sparse_rhs", "cols"),
    );
    // Computed, not measured, bytes: every call streams the factors once
    // forward and once backward.
    let y_gbs = 2.0 * r.factor_stats.factor_bytes as f64 * y_calls as f64 / y_s / 1e9;
    m.set_if(y_calls > 0, "sparse.solve_bw_frac", y_gbs / triad_gbs_1t);
    let spmm_s = total("sparse", "spmm");
    m.set_if(y_calls > 0, "sparse.spmm_s", spmm_s);
    m.set_if(
        y_calls > 0,
        "sparse.spmm_gflops",
        log.count_sum("sparse", "spmm", "flops") / spmm_s / 1e9,
    );

    let tiles = calls("sparse", "factorize_schur");
    let tiles_s = total("sparse", "factorize_schur");
    m.set_if(
        tiles > 0,
        "sparse.assemble_w_s",
        total("sparse", "assemble_w"),
    );
    m.set_if(tiles > 0, "sparse.factorize_schur_s", tiles_s);
    m.set_if(tiles > 0, "sparse.factorize_schur_calls", tiles as f64);
    m.set_if(
        tiles > 0,
        "sparse.useful_factor_frac",
        factorize_s / tiles_s,
    );
    m.set(
        "sparse.panel_solve_s",
        total("sparse", "panel_solve") / panel_replays as f64,
    );

    if r.backend == DenseBackend::Spido {
        let s = total("dense", "schur_factor");
        m.set("dense.schur_factor_s", s);
        m.set(
            "dense.schur_factor_gflops",
            r.schur_factor_flops as f64 / s / 1e9,
        );
    } else {
        m.set("hmat.cluster_build_s", total("hmat", "cluster_build"));
        m.set("hmat.schur_init_s", total("hmat", "schur_init"));
        m.set("hmat.axpy_s", total("hmat", "axpy"));
        m.set("hmat.axpy_calls", calls("hmat", "axpy") as f64);
        m.set("hmat.factor_s", total("hmat", "factor"));
        m.set("hmat.solve_s", total("hmat", "solve"));
        m.set(
            "hmat.panel_solve_s",
            total("hmat", "panel_solve") / panel_replays as f64,
        );
        m.set("hmat.schur_mib", mib(r.schur_bytes));
        let ns = r.a_sv.nrows;
        m.set(
            "hmat.compression_ratio",
            r.schur_bytes as f64 / (ns * ns * std::mem::size_of::<T>()) as f64,
        );
    }
}

/// Per-layer metrics from the micro-probes, on shapes taken from the replay.
fn probe_metrics<T: Scalar>(
    m: &mut Layers,
    spec: &Spec,
    o: &Opts,
    problem: &CoupledProblem<T>,
    r: &Replayed<T>,
) {
    let cfg = spec.config(1, o.smoke);
    in_pool(1, || {
        let t = Instant::now();
        let analysis =
            csolve::sparse::SymbolicFactorization::analyze(&problem.a_vv, &[], cfg.ordering);
        m.set_if(
            analysis.is_ok(),
            "sparse.analyze_s",
            t.elapsed().as_secs_f64(),
        );

        let gemm_1t = probes::gemm_gflops::<T>(512, 1);
        m.set("dense.gemm_gflops_1t", gemm_1t);
        if let Some(g) = m.0.get("sparse.factor_gflops") {
            m.set("sparse.factor_efficiency", g / gemm_1t);
        }
        let front = r.factor_stats.max_front.max(2);
        m.set(
            "dense.partial_factor_gflops",
            probes::partial_factor_gflops::<T>(front, problem.symmetric),
        );
        m.set("dense.trsm_gflops", probes::trsm_gflops::<T>(front, 256));

        if r.backend != DenseBackend::Spido {
            let bem = problem.bem.permuted(&r.tree.perm);
            if let Some((block, r0, c0)) = &r.z0_block {
                let p = probes::lowrank_probe(block, &bem, (*r0, *c0), cfg.eps);
                m.set("lowrank.compress_s", p.compress_s);
                m.set("lowrank.compress_rank", p.compress_rank as f64);
                m.set("lowrank.recompress_s", p.recompress_s);
                m.set("lowrank.aca_s", p.aca_s);
            }
            let stats = probes::hmat_stats(&bem, &r.tree, &cfg);
            m.set("hmat.max_rank", stats.max_rank as f64);
            m.set("hmat.lowrank_leaves", stats.lowrank_leaves as f64);
        }
    });
    m.set(
        "dense.gemm_gflops_pt",
        probes::gemm_gflops::<T>(512, o.threads),
    );
    m.set("common.mem_charge_ns", probes::mem_charge_ns(1));
    m.set("common.mem_charge_ns_pt", probes::mem_charge_ns(o.threads));
}
