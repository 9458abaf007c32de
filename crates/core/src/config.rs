//! Solver selection, tuning parameters and per-run metrics.

use std::str::FromStr;

use csolve_common::{Error, Result, Tracer};
use csolve_sparse::OrderingKind;

use crate::autotune::{AutotuneDecision, BlockSizes};

/// Which of the paper's algorithms computes the Schur complement.
///
/// Non-exhaustive: later PRs may add pipeline variants, so downstream
/// matches need a wildcard arm.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// §II-E: single sparse solve against all of `A_vs` (dense `Y`), SpMM.
    BaselineCoupling,
    /// §II-F: single factorization+Schur call on the full coupled matrix.
    AdvancedCoupling,
    /// §IV-A: one sparse solve per Schur panel, at most `n_c` columns at
    /// once (+ compressed Schur with the H-matrix backend, Algorithm 2).
    MultiSolve,
    /// §IV-B: `n_b × n_b` factorization+Schur calls on stacked submatrices
    /// — the lower triangle of the grid on a symmetric system —
    /// (+ compressed Schur with the H-matrix backend).
    MultiFactorization,
}

impl Algorithm {
    /// Every algorithm, in the paper's order of introduction.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::BaselineCoupling,
        Algorithm::AdvancedCoupling,
        Algorithm::MultiSolve,
        Algorithm::MultiFactorization,
    ];

    /// Stable kebab-case identifier (used in reports and CLI output).
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::BaselineCoupling => "baseline-coupling",
            Algorithm::AdvancedCoupling => "advanced-coupling",
            Algorithm::MultiSolve => "multi-solve",
            Algorithm::MultiFactorization => "multi-factorization",
        }
    }
}

impl FromStr for Algorithm {
    type Err = Error;

    /// Parse the kebab-case identifier produced by [`Algorithm::name`]
    /// (case-insensitive).
    fn from_str(s: &str) -> Result<Self> {
        Algorithm::ALL
            .iter()
            .copied()
            .find(|a| a.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| {
                Error::InvalidConfig(format!(
                    "unknown algorithm '{s}' (expected one of: {})",
                    Algorithm::ALL.map(|a| a.name()).join(", ")
                ))
            })
    }
}

/// Dense solver used for `A_ss` / `S`.
///
/// Non-exhaustive: the paper's solver family has room for further backends
/// (e.g. an out-of-core variant), so downstream matches need a wildcard arm.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenseBackend {
    /// Plain blocked dense factorization (the proprietary SPIDO solver of
    /// the paper): `S` stored and factored dense.
    Spido,
    /// Hierarchical low-rank solver (the paper's HMAT): `S` and `A_ss` kept
    /// compressed, Schur blocks folded in through compressed AXPYs.
    Hmat,
}

impl DenseBackend {
    /// Solver name as used in the paper ("SPIDO" / "HMAT").
    pub fn name(&self) -> &'static str {
        match self {
            DenseBackend::Spido => "SPIDO",
            DenseBackend::Hmat => "HMAT",
        }
    }

    /// Every backend.
    pub const ALL: [DenseBackend; 2] = [DenseBackend::Spido, DenseBackend::Hmat];
}

impl FromStr for DenseBackend {
    type Err = Error;

    /// Parse the identifier produced by [`DenseBackend::name`]
    /// (case-insensitive, so `"hmat"` works on the command line).
    fn from_str(s: &str) -> Result<Self> {
        DenseBackend::ALL
            .iter()
            .copied()
            .find(|b| b.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| {
                Error::InvalidConfig(format!(
                    "unknown dense backend '{s}' (expected one of: {})",
                    DenseBackend::ALL.map(|b| b.name()).join(", ")
                ))
            })
    }
}

/// Full solver configuration (paper parameters `ε`, `n_c`, `n_S`, `n_b`).
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Low-rank precision ε (paper: 10⁻³ academic, 10⁻⁴ industrial).
    pub eps: f64,
    /// Dense solver handling `A_ss` and the Schur complement `S`.
    pub dense_backend: DenseBackend,
    /// BLR tolerance of the sparse solver (paper: MUMPS low-rank, on for
    /// every experiment except the reference rows of Table II). `None` (the
    /// default) compresses the sparse fronts at the dense-side
    /// [`SolverConfig::eps`]; `Some(e)` with `e > 0` compresses them at
    /// tolerance `e` regardless of the dense setting, and `Some(0.0)` forces
    /// the exact, uncompressed sparse path. See
    /// [`SolverConfig::effective_sparse_eps`].
    pub sparse_eps: Option<f64>,
    /// Multi-solve: the most columns a Schur panel's sparse solve runs at
    /// once, in 32-column lane workspaces (`n_c`, paper: 32–256, the width
    /// of `Y`). It bounds memory, not arithmetic: the bits do not depend on
    /// it. With SPIDO it is also the Schur panel width (`n_S = n_c`).
    pub n_c: usize,
    /// Compressed multi-solve: columns per Schur panel (`n_S ≥ n_c`,
    /// paper: 512–4096).
    pub n_s: usize,
    /// Multi-factorization: Schur blocks per row/column (`n_b`, paper:
    /// 1–10).
    pub n_b: usize,
    /// Fill-reducing ordering of the sparse solver.
    pub ordering: OrderingKind,
    /// Hard budget in bytes for all tracked allocations (`None`: unlimited);
    /// in a [`crate::SolverSession`], cached factors, factorization working
    /// sets and admitted solve panels all share it. With
    /// [`BlockSizes::Fixed`] the budget only bounds the run; set
    /// [`SolverConfig::block_sizes`] to [`BlockSizes::Auto`] to make it drive
    /// the blocking.
    pub mem_budget: Option<usize>,
    /// Whether the blockwise algorithms use the configured block sizes
    /// verbatim ([`BlockSizes::Fixed`], the default) or let the autotuner
    /// pick the largest blocking that fits `mem_budget`
    /// ([`BlockSizes::Auto`]; see [`crate::autotune`]).
    pub block_sizes: BlockSizes,
    /// H-matrix leaf size.
    pub hmat_leaf: usize,
    /// H-matrix admissibility parameter η.
    pub hmat_eta: f64,
    /// Worker threads for the blockwise Schur pipelines and the dense
    /// kernels (0: use the ambient rayon thread count). Results are
    /// bitwise-identical for every thread count: block contributions commit
    /// in a fixed order regardless of which thread computes them. At most
    /// one pipeline block per thread is in flight; each reserves its
    /// worst-case working set against the memory budget up front, and under
    /// budget pressure the pipeline admits fewer, down to one at a time.
    pub num_threads: usize,
    /// Panel width of the blocked dense LU/LDLᵀ factorizations (sparse
    /// fronts and the Schur factorization). `0` keeps the dense layer's
    /// default (`csolve_dense::DEFAULT_PANEL_NB`). Changing it regroups the
    /// trailing BLAS-3 updates, so results differ (within rounding) between
    /// widths but stay bitwise reproducible for a fixed width.
    pub dense_panel_nb: usize,
    /// Span tracer for this run. Disabled by default (a no-op handle with
    /// near-zero overhead); pass a clone of [`Tracer::enabled`] and drain it
    /// after the solve to get the per-block span trace.
    pub tracer: Tracer,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            eps: 1e-3,
            dense_backend: DenseBackend::Hmat,
            sparse_eps: None,
            n_c: 256,
            n_s: 1024,
            n_b: 2,
            ordering: OrderingKind::NestedDissection,
            mem_budget: None,
            block_sizes: BlockSizes::default(),
            hmat_leaf: 64,
            hmat_eta: 6.0,
            num_threads: 0,
            dense_panel_nb: 0,
            tracer: Tracer::disabled(),
        }
    }
}

impl SolverConfig {
    /// Check every tuning parameter for sanity. `solve()` and
    /// `SessionBuilder::build` call this on entry, so a nonsensical
    /// parameter set surfaces as [`Error::InvalidConfig`] instead of silent
    /// misbehavior deep inside a pipeline.
    pub fn validate(&self) -> Result<()> {
        fn bad(msg: String) -> Result<()> {
            Err(Error::InvalidConfig(msg))
        }
        if !(self.eps.is_finite() && self.eps > 0.0) {
            return bad(format!(
                "eps must be finite and > 0, got {} (paper: 1e-3 academic, 1e-4 industrial)",
                self.eps
            ));
        }
        if self.n_c == 0 {
            return bad("n_c (columns a panel's sparse solve runs at once) must be >= 1".into());
        }
        if self.n_s < self.n_c {
            return bad(format!(
                "n_s ({}) must be >= n_c ({}): n_c caps the columns of one Schur panel solved at once",
                self.n_s, self.n_c
            ));
        }
        if self.n_b == 0 {
            return bad("n_b (Schur blocks per row/column) must be >= 1".into());
        }
        if self.hmat_leaf == 0 {
            return bad("hmat_leaf (H-matrix leaf size) must be >= 1".into());
        }
        if !(self.hmat_eta.is_finite() && self.hmat_eta > 0.0) {
            return bad(format!(
                "hmat_eta (admissibility parameter) must be finite and > 0, got {}",
                self.hmat_eta
            ));
        }
        if self.mem_budget == Some(0) {
            return bad(
                "mem_budget of 0 bytes cannot hold any factor; use None for unlimited".into(),
            );
        }
        if let Some(e) = self.sparse_eps {
            if !(e.is_finite() && e >= 0.0) {
                return bad(format!(
                    "sparse_eps must be finite and >= 0 (0 disables sparse compression), got {e}"
                ));
            }
        }
        Ok(())
    }

    /// The BLR tolerance actually applied to the sparse fronts:
    /// [`SolverConfig::sparse_eps`], defaulting to [`SolverConfig::eps`]
    /// when unset, with `0.0` resolving to `None` (compression off).
    ///
    /// `None` means the numeric factorization stores every panel dense and
    /// is bitwise identical to a build without the compression code path.
    pub fn effective_sparse_eps(&self) -> Option<f64> {
        match self.sparse_eps {
            Some(e) if e > 0.0 => Some(e),
            Some(_) => None,
            None => Some(self.eps),
        }
    }

    /// The configuration knobs that change what a factorization *computes*,
    /// encoded as a fixed-length word list for the session fingerprint (see
    /// `SolverSession`): `eps`, the resolved sparse-compression tolerance,
    /// the dense backend, the blocking parameters (`n_c`, `n_s`, `n_b`,
    /// fixed-vs-auto, `dense_panel_nb`), the sparse ordering and the
    /// H-matrix geometry (`hmat_leaf`, `hmat_eta`). Two configs with equal
    /// knob words produce bitwise-identical factors for the same matrix (at
    /// a fixed thread count the solver is deterministic, and across thread
    /// counts it is bitwise-invariant by contract). Purely observational
    /// knobs — `mem_budget`, `num_threads`, the tracer — are deliberately
    /// excluded so they cannot cause spurious cache misses.
    pub fn fingerprint_knobs(&self) -> [u64; 10] {
        let eps_bits = self.eps.to_bits();
        // Option<f64> folded into one word: NaN never appears (validated),
        // so the all-ones pattern is free to mean "compression off".
        let sparse_bits = match self.effective_sparse_eps() {
            Some(e) => e.to_bits(),
            None => u64::MAX,
        };
        let backend = match self.dense_backend {
            DenseBackend::Spido => 0u64,
            DenseBackend::Hmat => 1u64,
        };
        let ordering = match self.ordering {
            OrderingKind::Natural => 0u64,
            OrderingKind::Rcm => 1u64,
            OrderingKind::NestedDissection => 2u64,
        };
        let auto = match self.block_sizes {
            BlockSizes::Fixed => 0u64,
            BlockSizes::Auto => 1u64,
        };
        [
            eps_bits,
            sparse_bits,
            backend,
            ordering,
            auto,
            self.n_c as u64,
            self.n_s as u64,
            self.n_b as u64,
            self.dense_panel_nb as u64,
            (self.hmat_leaf as u64) ^ self.hmat_eta.to_bits().rotate_left(17),
        ]
    }
}

/// Aggregate BLR statistics of every sparse factorization a solve keeps the
/// factors of: `A_vv`, or the advanced coupling's stacked `W`.
/// Multi-factorization's tiles discard their factors uncompressed, so there
/// it covers the `A_vv` factorization only. `None` in
/// [`Metrics::sparse_compression`] when the run kept the sparse factors
/// uncompressed ([`SolverConfig::effective_sparse_eps`] returned `None`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseCompressionSummary {
    /// Tolerance the fronts were compressed at.
    pub eps: f64,
    /// Off-diagonal panels examined (those meeting the BLR size gate).
    pub panels_eligible: usize,
    /// Panels actually stored low-rank (compression must pay for itself).
    pub panels_compressed: usize,
    /// Bytes those compressed panels would occupy dense.
    pub dense_bytes: usize,
    /// Bytes the compressed representations actually occupy.
    pub stored_bytes: usize,
    /// Largest numerical rank observed over all compressed panels.
    pub max_rank: usize,
}

impl SparseCompressionSummary {
    /// Stored-over-dense byte ratio of the compressed panels (1.0 when
    /// nothing compressed).
    pub fn ratio(&self) -> f64 {
        if self.dense_bytes == 0 {
            1.0
        } else {
            self.stored_bytes as f64 / self.dense_bytes as f64
        }
    }

    /// Fold another factorization's statistics into this summary
    /// (commutative sums plus a max, so aggregation order cannot change the
    /// result).
    pub fn merge(&mut self, other: &SparseCompressionSummary) {
        self.panels_eligible += other.panels_eligible;
        self.panels_compressed += other.panels_compressed;
        self.dense_bytes += other.dense_bytes;
        self.stored_bytes += other.stored_bytes;
        self.max_rank = self.max_rank.max(other.max_rank);
    }
}

/// Wall-clock and memory metrics of one solve.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// (phase name, seconds) in execution order. For phases that ran on
    /// several worker threads concurrently this is the sum over threads
    /// (akin to CPU time), which can exceed [`Metrics::total_seconds`].
    pub phases: Vec<(String, f64)>,
    /// End-to-end wall time of the solve.
    pub total_seconds: f64,
    /// Peak tracked bytes over the whole solve.
    pub peak_bytes: usize,
    /// Bytes held by the (possibly compressed) Schur complement right
    /// before its factorization.
    pub schur_bytes: usize,
    /// (phase name, bytes produced/processed) in first-use order — e.g. the
    /// total size of all `Y` panels under `"sparse solve (Y)"`.
    pub phase_bytes: Vec<(String, usize)>,
    /// (phase name, analytic flop count) in first-use order. Counts are
    /// derived from problem shapes (not instrumented in the kernels), so the
    /// same problem yields the same counts at any thread count; phases
    /// without a cheap analytic model simply have no entry.
    pub phase_flops: Vec<(String, u64)>,
    /// Worker threads the solve ran with.
    pub threads: usize,
    /// Total number of unknowns `N = n_FEM + n_BEM`.
    pub n_total: usize,
    /// Dense surface (BEM) unknowns.
    pub n_bem: usize,
    /// Sparse volume (FEM) unknowns.
    pub n_fem: usize,
    /// The autotuner's block-size decision, `None` when the run used
    /// [`BlockSizes::Fixed`] or a non-blockwise algorithm.
    pub autotune: Option<AutotuneDecision>,
    /// BLR statistics of the sparse factorization(s), `None` when the
    /// sparse fronts were kept uncompressed.
    pub sparse_compression: Option<SparseCompressionSummary>,
}

/// Aggregated time/bytes/flops of one named phase — the typed replacement
/// for the stringly `Metrics::phase_seconds`/`bytes_of`/`flops_of` lookups.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseReport {
    /// Phase name (the driver's phase label, e.g. `"sparse solve (Y)"`).
    pub name: String,
    /// Total seconds over all threads (CPU-time-like for parallel phases).
    pub seconds: f64,
    /// Bytes produced/processed, 0 when not tracked for this phase.
    pub bytes: usize,
    /// Analytic flop count, 0 when no closed form exists for this phase.
    pub flops: u64,
}

impl PhaseReport {
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

impl Metrics {
    /// Typed per-phase reports in execution order: one entry per distinct
    /// phase name (first-occurrence order), with seconds/bytes/flops summed
    /// over repeated entries.
    pub fn phase_reports(&self) -> Vec<PhaseReport> {
        let mut out: Vec<PhaseReport> = Vec::with_capacity(self.phases.len());
        let find = |out: &mut Vec<PhaseReport>, name: &str| match out
            .iter()
            .position(|r| r.name == name)
        {
            Some(i) => i,
            None => {
                out.push(PhaseReport {
                    name: name.to_string(),
                    seconds: 0.0,
                    bytes: 0,
                    flops: 0,
                });
                out.len() - 1
            }
        };
        for (name, s) in &self.phases {
            let i = find(&mut out, name);
            out[i].seconds += s;
        }
        for (name, b) in &self.phase_bytes {
            let i = find(&mut out, name);
            out[i].bytes += b;
        }
        for (name, f) in &self.phase_flops {
            let i = find(&mut out, name);
            out[i].flops += f;
        }
        out
    }

    /// The report for one phase, `None` if the phase never ran.
    pub fn phase(&self, name: &str) -> Option<PhaseReport> {
        self.phase_reports().into_iter().find(|r| r.name == name)
    }

    /// Compact single-line report.
    pub fn summary(&self) -> String {
        let phases = self
            .phases
            .iter()
            .map(|(n, s)| format!("{n} {s:.2}s"))
            .collect::<Vec<_>>()
            .join(" | ");
        format!(
            "N={} (fem {}, bem {}): total {:.2}s ({} threads), peak {:.1} MiB, Schur {:.1} MiB [{phases}]",
            self.n_total,
            self.n_fem,
            self.n_bem,
            self.total_seconds,
            self.threads.max(1),
            self.peak_bytes as f64 / (1024.0 * 1024.0),
            self.schur_bytes as f64 / (1024.0 * 1024.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_parameters() {
        let c = SolverConfig::default();
        assert_eq!(c.eps, 1e-3);
        assert_eq!(c.n_c, 256);
        assert!(c.n_s >= 512);
        assert_eq!(c.sparse_eps, None);
    }

    #[test]
    fn metrics_helpers() {
        let m = Metrics {
            phases: vec![("a".into(), 1.0), ("b".into(), 2.0), ("a".into(), 0.5)],
            total_seconds: 3.5,
            peak_bytes: 1 << 20,
            schur_bytes: 1 << 19,
            phase_bytes: vec![("a".into(), 4096)],
            phase_flops: vec![("a".into(), 2_000_000)],
            threads: 2,
            n_total: 100,
            n_bem: 20,
            n_fem: 80,
            autotune: None,
            sparse_compression: None,
        };
        let reports = m.phase_reports();
        // First-occurrence order, one entry per distinct name.
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].name, "a");
        assert_eq!(reports[0].seconds, 1.5);
        assert_eq!(reports[0].bytes, 4096);
        assert_eq!(reports[0].flops, 2_000_000);
        assert_eq!(reports[1].name, "b");
        assert_eq!(reports[1].seconds, 2.0);
        assert_eq!(m.phase("missing"), None);
        let g = reports[0].gflops().unwrap();
        assert!((g - 2e6 / 1.5 / 1e9).abs() < 1e-12);
        assert_eq!(reports[1].gflops(), None, "no flops recorded for b");
        assert!(m.summary().contains("N=100"));
        assert!(m.summary().contains("2 threads"));
    }

    #[test]
    fn validate_fails_fast() {
        assert!(SolverConfig::default().validate().is_ok());
        let expect_invalid = |edit: fn(&mut SolverConfig), what: &str| {
            let mut cfg = SolverConfig::default();
            edit(&mut cfg);
            let err = cfg.validate().unwrap_err();
            assert!(
                matches!(&err, Error::InvalidConfig(msg) if msg.contains(what)),
                "expected InvalidConfig mentioning '{what}', got: {err}"
            );
        };
        expect_invalid(|c| c.eps = 0.0, "eps");
        expect_invalid(|c| c.eps = f64::NAN, "eps");
        expect_invalid(|c| c.eps = -1e-3, "eps");
        expect_invalid(|c| c.n_c = 0, "n_c");
        expect_invalid(|c| (c.n_c, c.n_s) = (64, 32), "n_s");
        expect_invalid(|c| c.n_b = 0, "n_b");
        expect_invalid(|c| c.hmat_leaf = 0, "hmat_leaf");
        expect_invalid(|c| c.hmat_eta = 0.0, "hmat_eta");
        expect_invalid(|c| c.mem_budget = Some(0), "mem_budget");
        expect_invalid(|c| c.sparse_eps = Some(-1e-9), "sparse_eps");
        expect_invalid(|c| c.sparse_eps = Some(f64::NAN), "sparse_eps");
    }

    #[test]
    fn sparse_eps_resolution() {
        // Default: compress the sparse fronts at the dense eps.
        let c = SolverConfig::default();
        assert_eq!(c.effective_sparse_eps(), Some(c.eps));
        // Explicit tolerance decouples from eps.
        let c = SolverConfig {
            sparse_eps: Some(1e-9),
            ..Default::default()
        };
        assert_eq!(c.effective_sparse_eps(), Some(1e-9));
        // sparse_eps = 0 forces the exact uncompressed path.
        let c = SolverConfig {
            sparse_eps: Some(0.0),
            ..Default::default()
        };
        assert_eq!(c.effective_sparse_eps(), None);
    }

    #[test]
    fn sparse_compression_summary_merges_commutatively() {
        let a = SparseCompressionSummary {
            eps: 1e-9,
            panels_eligible: 3,
            panels_compressed: 2,
            dense_bytes: 1000,
            stored_bytes: 250,
            max_rank: 7,
        };
        let b = SparseCompressionSummary {
            eps: 1e-9,
            panels_eligible: 1,
            panels_compressed: 1,
            dense_bytes: 500,
            stored_bytes: 100,
            max_rank: 11,
        };
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        ba.eps = ab.eps;
        assert_eq!(ab, ba);
        assert_eq!(ab.panels_compressed, 3);
        assert_eq!(ab.max_rank, 11);
        assert!((ab.ratio() - 350.0 / 1500.0).abs() < 1e-15);
        assert_eq!(SparseCompressionSummary::default().ratio(), 1.0);
    }

    #[test]
    fn from_str_round_trips_names() {
        for algo in Algorithm::ALL {
            assert_eq!(algo.name().parse::<Algorithm>().unwrap(), algo);
        }
        for backend in DenseBackend::ALL {
            assert_eq!(backend.name().parse::<DenseBackend>().unwrap(), backend);
            // Case-insensitive for CLI ergonomics.
            assert_eq!(
                backend
                    .name()
                    .to_ascii_lowercase()
                    .parse::<DenseBackend>()
                    .unwrap(),
                backend
            );
        }
        assert!("no-such-algo".parse::<Algorithm>().is_err());
        assert!("BLAS".parse::<DenseBackend>().is_err());
        // The retired nested-basis backend's name, in either case, is a
        // structured error that lists exactly the two surviving backends.
        let retired = "h2";
        for gone in [retired.to_ascii_uppercase(), retired.to_string()] {
            match gone.parse::<DenseBackend>() {
                Err(Error::InvalidConfig(msg)) => {
                    assert!(msg.ends_with("(expected one of: SPIDO, HMAT)"), "{msg}")
                }
                other => panic!("'{gone}' must be InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn parallel_knobs_default_to_auto() {
        assert_eq!(SolverConfig::default().num_threads, 0);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Algorithm::MultiSolve.name(), "multi-solve");
        assert_eq!(DenseBackend::Hmat.name(), "HMAT");
        assert_eq!(Algorithm::ALL.len(), 4);
        assert_eq!(DenseBackend::ALL.len(), 2);
    }
}
