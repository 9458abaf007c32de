//! Machine-readable run reports: one JSON document per solve aggregating
//! the [`Metrics`] phases and (when tracing was enabled) the trace spans
//! and events into a shape that survives scripting — the paper's tables
//! (time per phase, achieved GF/s, memory high-water) fall directly out of
//! this document.
//!
//! The JSON is written through [`csolve_common::json::JsonWriter`] (the
//! workspace is dependency-free by design), versioned with
//! [`TRACE_FORMAT_VERSION`], and parses back with
//! [`csolve_common::json::parse_json`].

use csolve_common::json::{json_fields, JsonWriter};
use csolve_common::trace::TRACE_FORMAT_VERSION;
use csolve_common::{TracePayload, TraceRecord, TraceScope};
use csolve_dense::cache::{cache_info, kernel_blocking, CacheInfo, KernelBlocking};

use crate::config::{Algorithm, DenseBackend, Metrics, PhaseReport, SparseCompressionSummary};
use crate::session::SessionStats;

/// Aggregate of every trace span of one kind over a whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanAgg {
    /// Span kind name (e.g. `"sparse_solve"`, `"axpy_commit"`).
    pub kind: String,
    /// Number of spans of this kind.
    pub count: usize,
    /// Total seconds over all spans (sums across threads, like
    /// [`Metrics::phases`]).
    pub seconds: f64,
    /// Total bytes attributed to the spans.
    pub bytes: usize,
    /// Total analytic flops attributed to the spans.
    pub flops: u64,
}

impl SpanAgg {
    /// Achieved gigaflops per second, `None` when flops or time are
    /// unknown/zero.
    pub fn gflops(&self) -> Option<f64> {
        if self.flops > 0 && self.seconds > 0.0 {
            Some(self.flops as f64 / self.seconds / 1e9)
        } else {
            None
        }
    }
}

/// The measured-cache calibration the packed kernels of this process run
/// with (detected once per process; see [`csolve_dense::cache`]). Recorded
/// in every report so a surprising kernel rate or autotuned blocking can be
/// traced back to the hierarchy it was derived from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelCalibration {
    /// Detected cache hierarchy and which tier produced it.
    pub cache: CacheInfo,
    /// Blocking for 8-byte scalars (`f64`).
    pub real: KernelBlocking,
    /// Blocking for 16-byte scalars (`C64`).
    pub complex: KernelBlocking,
}

impl KernelCalibration {
    /// Snapshot the process-wide calibration.
    pub fn current() -> Self {
        KernelCalibration {
            cache: *cache_info(),
            real: kernel_blocking(8),
            complex: kernel_blocking(16),
        }
    }
}

/// The machine-readable summary of one solve.
///
/// Built with [`RunReport::from_parts`] from the solve's [`Metrics`] and the
/// tracer's drained records (pass `&[]` when tracing was disabled — the
/// report then carries the phase table only).
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Report/trace format version ([`TRACE_FORMAT_VERSION`]).
    pub version: u32,
    /// Algorithm name (round-trips through [`Algorithm::name`]).
    pub algorithm: String,
    /// Dense backend name (round-trips through [`DenseBackend::name`]).
    pub backend: String,
    /// Worker threads the solve ran with.
    pub threads: usize,
    /// Total unknowns `N = n_FEM + n_BEM`.
    pub n_total: usize,
    /// Dense surface (BEM) unknowns.
    pub n_bem: usize,
    /// Sparse volume (FEM) unknowns.
    pub n_fem: usize,
    /// End-to-end wall time of the solve.
    pub total_seconds: f64,
    /// Peak tracked bytes over the whole solve.
    pub peak_bytes: usize,
    /// Schur complement bytes right before its factorization.
    pub schur_bytes: usize,
    /// Typed phase table (first-occurrence order).
    pub phases: Vec<PhaseReport>,
    /// Trace span aggregates, ordered by kind name; empty without tracing.
    pub spans: Vec<SpanAgg>,
    /// `(event name, count)` over all trace events, ordered by name.
    pub events: Vec<(String, u64)>,
    /// Distinct pipeline block scopes seen in the trace (0 for the
    /// non-pipelined algorithms or without tracing).
    pub blocks: usize,
    /// BLR statistics of the sparse factorization(s), `None` when the
    /// sparse fronts were kept uncompressed.
    pub sparse_compression: Option<SparseCompressionSummary>,
    /// The measured-cache kernel calibration of this process.
    pub kernel_calibration: KernelCalibration,
    /// Session-layer telemetry (cache hits/misses, batching, queue
    /// waits), `None` for one-shot solves. Attached with
    /// [`RunReport::with_session`].
    pub session: Option<SessionStats>,
}

impl RunReport {
    /// Aggregate `metrics` and `records` into a report.
    pub fn from_parts(
        algorithm: Algorithm,
        backend: DenseBackend,
        metrics: &Metrics,
        records: &[TraceRecord],
    ) -> Self {
        let mut spans: Vec<SpanAgg> = Vec::new();
        let mut events: Vec<(String, u64)> = Vec::new();
        let mut blocks: Vec<usize> = Vec::new();
        for r in records {
            if let TraceScope::Block(seq) = r.scope {
                if !blocks.contains(&seq) {
                    blocks.push(seq);
                }
            }
            match &r.payload {
                TracePayload::Span {
                    kind,
                    dur_ns,
                    bytes,
                    flops,
                    ..
                } => {
                    let name = kind.name();
                    let agg = match spans.iter_mut().find(|a| a.kind == name) {
                        Some(a) => a,
                        None => {
                            spans.push(SpanAgg {
                                kind: name.to_string(),
                                count: 0,
                                seconds: 0.0,
                                bytes: 0,
                                flops: 0,
                            });
                            spans.last_mut().unwrap()
                        }
                    };
                    agg.count += 1;
                    agg.seconds += *dur_ns as f64 / 1e9;
                    agg.bytes += bytes;
                    agg.flops += flops;
                }
                TracePayload::Event { kind, .. } => {
                    let name = kind.name();
                    match events.iter_mut().find(|(n, _)| n == name) {
                        Some((_, c)) => *c += 1,
                        None => events.push((name.to_string(), 1)),
                    }
                }
            }
        }
        spans.sort_by(|a, b| a.kind.cmp(&b.kind));
        events.sort_by(|a, b| a.0.cmp(&b.0));
        RunReport {
            version: TRACE_FORMAT_VERSION,
            algorithm: algorithm.name().to_string(),
            backend: backend.name().to_string(),
            threads: metrics.threads,
            n_total: metrics.n_total,
            n_bem: metrics.n_bem,
            n_fem: metrics.n_fem,
            total_seconds: metrics.total_seconds,
            peak_bytes: metrics.peak_bytes,
            schur_bytes: metrics.schur_bytes,
            phases: metrics.phase_reports(),
            spans,
            events,
            blocks: blocks.len(),
            sparse_compression: metrics.sparse_compression.clone(),
            kernel_calibration: KernelCalibration::current(),
            session: None,
        }
    }

    /// Attach session-layer telemetry (exported as the report's `session`
    /// JSON section).
    pub fn with_session(mut self, stats: SessionStats) -> Self {
        self.session = Some(stats);
        self
    }

    /// Serialize as a self-contained JSON document (multi-line, stable key
    /// order; parses back with [`csolve_common::json::parse_json`]).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.field("type", "csolve_run_report");
        json_fields!(w, self => version, algorithm, backend, threads, n_total, n_bem, n_fem);
        json_fields!(w, self => total_seconds, peak_bytes, schur_bytes);
        let kc = &self.kernel_calibration;
        w.key("kernel_blocking").begin_object();
        w.field("cache_source", kc.cache.source.name());
        json_fields!(w, kc.cache => l1d_bytes, l2_bytes, l3_bytes);
        for (width, b) in [("f64", &kc.real), ("c64", &kc.complex)] {
            w.key(width).begin_object();
            json_fields!(w, b => mc, kc, nc, mr, nr);
            w.end_object();
        }
        w.end_object();
        w.key("phases").begin_array();
        for p in &self.phases {
            w.begin_object();
            json_fields!(w, p => name, seconds, bytes, flops);
            if let Some(g) = p.gflops() {
                w.field("gflops", g);
            }
            w.end_object();
        }
        w.end_array();
        w.key("spans").begin_array();
        for a in &self.spans {
            w.begin_object();
            json_fields!(w, a => kind, count, seconds, bytes, flops);
            if let Some(g) = a.gflops() {
                w.field("gflops", g);
            }
            w.end_object();
        }
        w.end_array();
        w.key("events").begin_object();
        for (name, count) in &self.events {
            w.field(name, count);
        }
        w.end_object();
        w.field("blocks", self.blocks);
        if let Some(c) = &self.sparse_compression {
            w.key("sparse_compression").begin_object();
            json_fields!(w, c => eps, panels_eligible, panels_compressed);
            json_fields!(w, c => dense_bytes, stored_bytes, max_rank);
            w.field("ratio", c.ratio()).end_object();
        }
        if let Some(sess) = &self.session {
            w.key("session").begin_object();
            json_fields!(w, sess => requests, cache_hits, cache_misses, evictions, batches);
            json_fields!(w, sess => max_batch_width, total_queue_wait_secs);
            json_fields!(w, sess => cache_entries, cache_bytes, peak_bytes);
            w.end_object();
        }
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csolve_common::json::parse_json;
    use csolve_common::{SpanKind, Tracer};

    fn sample_metrics() -> Metrics {
        Metrics {
            phases: vec![("SpMM".into(), 0.5), ("SpMM".into(), 0.25)],
            total_seconds: 1.5,
            peak_bytes: 1 << 20,
            schur_bytes: 4096,
            phase_bytes: vec![("SpMM".into(), 1000)],
            phase_flops: vec![("SpMM".into(), 3_000_000_000)],
            threads: 4,
            n_total: 1200,
            n_bem: 200,
            n_fem: 1000,
            autotune: None,
            sparse_compression: Some(SparseCompressionSummary {
                eps: 1e-9,
                panels_eligible: 5,
                panels_compressed: 3,
                dense_bytes: 9000,
                stored_bytes: 1500,
                max_rank: 12,
            }),
        }
    }

    #[test]
    fn report_aggregates_spans_and_events() {
        let t = Tracer::enabled();
        t.run().record_span(
            SpanKind::Spmm,
            std::time::Duration::from_millis(10),
            64,
            1000,
        );
        t.block(1)
            .record_span(SpanKind::Spmm, std::time::Duration::from_millis(5), 32, 500);
        t.block(0).record_span(
            SpanKind::AxpyCommit,
            std::time::Duration::from_millis(1),
            8,
            0,
        );
        let records = t.drain();
        let r = RunReport::from_parts(
            Algorithm::MultiSolve,
            DenseBackend::Hmat,
            &sample_metrics(),
            &records,
        );
        assert_eq!(r.version, TRACE_FORMAT_VERSION);
        assert_eq!(r.algorithm, "multi-solve");
        assert_eq!(r.backend, "HMAT");
        assert_eq!(r.blocks, 2);
        let spmm = r.spans.iter().find(|a| a.kind == "spmm").unwrap();
        assert_eq!(spmm.count, 2);
        assert_eq!(spmm.bytes, 96);
        assert_eq!(spmm.flops, 1500);
        // Phase table merges repeated entries.
        assert_eq!(r.phases.len(), 1);
        assert!((r.phases[0].seconds - 0.75).abs() < 1e-12);
    }

    #[test]
    fn report_json_round_trips_through_the_parser() {
        let r = RunReport::from_parts(
            Algorithm::BaselineCoupling,
            DenseBackend::Spido,
            &sample_metrics(),
            &[],
        );
        let doc = parse_json(&r.to_json()).expect("report must be valid JSON");
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
            Some("baseline-coupling")
        );
        let phases = doc.get("phases").and_then(|v| v.as_array()).unwrap();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].get("name").and_then(|v| v.as_str()), Some("SpMM"));
        assert!(phases[0].get("gflops").is_some());
        assert_eq!(doc.get("blocks").and_then(|v| v.as_u64()), Some(0));
        let sc = doc.get("sparse_compression").unwrap();
        assert_eq!(
            sc.get("panels_compressed").and_then(|v| v.as_u64()),
            Some(3)
        );
        assert_eq!(sc.get("max_rank").and_then(|v| v.as_u64()), Some(12));
        let ratio = sc.get("ratio").and_then(|v| v.as_f64()).unwrap();
        assert!((ratio - 1500.0 / 9000.0).abs() < 1e-12);

        // The measured-cache calibration always rides along.
        let kb = doc.get("kernel_blocking").unwrap();
        assert!(kb.get("cache_source").and_then(|v| v.as_str()).is_some());
        for width in ["f64", "c64"] {
            let b = kb.get(width).unwrap();
            for field in ["mc", "kc", "nc", "mr", "nr"] {
                assert!(
                    b.get(field).and_then(|v| v.as_u64()).unwrap() > 0,
                    "{width}.{field} missing or zero"
                );
            }
        }
        assert_eq!(
            r.kernel_calibration,
            KernelCalibration::current(),
            "report snapshots the process-wide calibration"
        );
    }

    #[test]
    fn session_section_round_trips_and_is_absent_by_default() {
        let r = RunReport::from_parts(
            Algorithm::MultiSolve,
            DenseBackend::Spido,
            &sample_metrics(),
            &[],
        );
        assert!(r.session.is_none());
        assert!(parse_json(&r.to_json()).unwrap().get("session").is_none());

        let r = r.with_session(SessionStats {
            requests: 10,
            cache_hits: 7,
            cache_misses: 3,
            evictions: 2,
            batches: 4,
            max_batch_width: 4,
            total_queue_wait_secs: 0.25,
            cache_entries: 1,
            cache_bytes: 4096,
            peak_bytes: 1 << 20,
        });
        let doc = parse_json(&r.to_json()).expect("session report must be valid JSON");
        let sess = doc.get("session").unwrap();
        assert_eq!(sess.get("requests").and_then(|v| v.as_u64()), Some(10));
        assert_eq!(sess.get("cache_hits").and_then(|v| v.as_u64()), Some(7));
        assert_eq!(sess.get("cache_misses").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(sess.get("evictions").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(
            sess.get("max_batch_width").and_then(|v| v.as_u64()),
            Some(4)
        );
        let wait = sess
            .get("total_queue_wait_secs")
            .and_then(|v| v.as_f64())
            .unwrap();
        assert!((wait - 0.25).abs() < 1e-12);
    }

    #[test]
    fn uncompressed_runs_omit_the_sparse_compression_section() {
        let m = Metrics {
            sparse_compression: None,
            ..sample_metrics()
        };
        let r = RunReport::from_parts(Algorithm::MultiSolve, DenseBackend::Spido, &m, &[]);
        assert!(r.sparse_compression.is_none());
        let doc = parse_json(&r.to_json()).unwrap();
        assert!(doc.get("sparse_compression").is_none());
    }
}
