//! Shared helpers for the experiment binaries that regenerate the paper's
//! tables and figures.
//!
//! Every binary prints a self-contained report with the paper's reference
//! values next to the measured ones. Absolute numbers differ (the paper ran
//! on a 24-core, 128 GiB node; this harness runs wherever you are), so the
//! comparisons of interest are the *shapes*: which method wins, where the
//! crossovers sit, and which methods hit the memory wall first.

use csolve::{solve, Algorithm, CoupledProblem, DenseBackend, Metrics, Scalar, SolverConfig};

/// Result of one measured run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub seconds: f64,
    pub peak_mib: f64,
    pub schur_mib: f64,
    pub rel_error: f64,
    /// Full per-phase metrics of the run (wall time, bytes, threads).
    pub metrics: Metrics,
}

/// Outcome of a run attempt: success, out-of-memory, or another failure.
#[derive(Debug, Clone)]
pub enum Attempt {
    // Boxed: `RunResult` carries full `Metrics` and dwarfs the other variants.
    Ok(Box<RunResult>),
    Oom,
    Failed(String),
}

impl Attempt {
    pub fn ok(&self) -> Option<&RunResult> {
        match self {
            Attempt::Ok(r) => Some(r),
            _ => None,
        }
    }

    /// Render as a fixed-width cell: `time s / peak MiB` or `OOM`.
    pub fn cell(&self) -> String {
        match self {
            Attempt::Ok(r) => format!("{:>7.2}s {:>7.1}M", r.seconds, r.peak_mib),
            Attempt::Oom => format!("{:>16}", "OOM"),
            Attempt::Failed(e) => format!("{:>16}", truncate(e, 16)),
        }
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n - 1])
    }
}

/// Run one algorithm/config against a problem and classify the outcome.
pub fn attempt<T: Scalar>(
    problem: &CoupledProblem<T>,
    algo: Algorithm,
    cfg: &SolverConfig,
) -> Attempt {
    match solve(problem, algo, cfg) {
        Ok(out) => Attempt::Ok(Box::new(RunResult {
            seconds: out.metrics.total_seconds,
            peak_mib: out.metrics.peak_bytes as f64 / (1024.0 * 1024.0),
            schur_mib: out.metrics.schur_bytes as f64 / (1024.0 * 1024.0),
            rel_error: problem.relative_error(&out.xv, &out.xs),
            metrics: out.metrics,
        })),
        Err(e) if e.is_oom() => Attempt::Oom,
        Err(e) => Attempt::Failed(e.to_string()),
    }
}

/// Multi-line per-phase breakdown of a run: wall time (summed over worker
/// threads for parallel phases), bytes processed, and achieved GF/s where an
/// analytic flop count was recorded (see `Metrics::phase_flops`).
pub fn phase_report(metrics: &Metrics) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "  {:<28} {:>10} {:>12} {:>8}\n",
        "phase", "time (s)", "MiB", "GF/s"
    ));
    for p in metrics.phase_reports() {
        let mib_cell = if p.bytes > 0 {
            format!("{:>12.1}", mib(p.bytes))
        } else {
            format!("{:>12}", "-")
        };
        let gfs_cell = match p.gflops() {
            Some(g) => format!("{g:>8.2}"),
            None => format!("{:>8}", "-"),
        };
        out.push_str(&format!(
            "  {:<28} {:>10.3} {mib_cell} {gfs_cell}\n",
            p.name, p.seconds
        ));
    }
    out
}

/// A labelled solver variant (the rows/series of the paper's plots).
pub struct Variant {
    pub label: &'static str,
    pub algo: Algorithm,
    pub backend: DenseBackend,
}

/// The four method/backend series of Fig. 10.
pub fn fig10_variants() -> Vec<Variant> {
    vec![
        Variant {
            label: "multi-solve MUMPS/SPIDO",
            algo: Algorithm::MultiSolve,
            backend: DenseBackend::Spido,
        },
        Variant {
            label: "multi-solve MUMPS/HMAT",
            algo: Algorithm::MultiSolve,
            backend: DenseBackend::Hmat,
        },
        Variant {
            label: "multi-facto MUMPS/SPIDO",
            algo: Algorithm::MultiFactorization,
            backend: DenseBackend::Spido,
        },
        Variant {
            label: "multi-facto MUMPS/HMAT",
            algo: Algorithm::MultiFactorization,
            backend: DenseBackend::Hmat,
        },
        Variant {
            label: "advanced coupling",
            algo: Algorithm::AdvancedCoupling,
            backend: DenseBackend::Spido,
        },
        Variant {
            label: "baseline coupling",
            algo: Algorithm::BaselineCoupling,
            backend: DenseBackend::Spido,
        },
    ]
}

/// Parse `--key value` style CLI arguments with defaults.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    pub fn parse() -> Self {
        Self {
            raw: std::env::args().skip(1).collect(),
        }
    }

    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    pub fn has(&self, key: &str) -> bool {
        self.raw.iter().any(|a| a == key)
    }

    /// Raw string value of `--key value`, if present.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.get(key)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.raw
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.raw.get(i + 1))
            .map(|s| s.as_str())
    }
}

/// Write the JSON dump of report binary `tool` (`autotune`, `blr`, …): to
/// `--out` when given, else to `BENCH_<tool>.json` at the repo root — or,
/// under `--smoke`, to `target/BENCH_<tool>_smoke.json`, so CI never clobbers
/// the committed file. The text is first parsed back with the workspace's
/// own strict parser: a file that is not JSON is never produced. Either
/// failure ends the process with exit code 1.
pub fn write_json_file(args: &Args, tool: &str, json: &str) {
    let default = if args.has("--smoke") {
        format!("target/BENCH_{tool}_smoke.json")
    } else {
        format!("BENCH_{tool}.json")
    };
    let path = args.get_str("--out").unwrap_or(&default);
    let written = csolve::json::parse_json(json)
        .map_err(|e| format!("refusing to write invalid JSON: {e}"))
        .and_then(|_| std::fs::write(path, json).map_err(|e| e.to_string()));
    match written {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}

pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Standard report header.
pub fn header(title: &str, paper_ref: &str) {
    println!("{}", "=".repeat(78));
    println!("{title}");
    println!("reproduces: {paper_ref}");
    println!("{}", "=".repeat(78));
}

#[cfg(test)]
mod tests {
    /// Every committed `BENCH_*.json` at the repo root is JSON by the
    /// workspace's own strict parser (no `NaN`, no trailing commas).
    #[test]
    fn committed_bench_files_parse() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
        let mut seen = 0;
        for entry in std::fs::read_dir(root).expect("repo root") {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                let text = std::fs::read_to_string(&path).expect("readable bench file");
                csolve::json::parse_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
                seen += 1;
            }
        }
        assert!(
            seen >= 4,
            "expected the four committed bench files, saw {seen}"
        );
    }
}
