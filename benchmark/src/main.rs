//! `e2e_bench` — the repository's end-to-end benchmark.
//!
//! Four coupled-solve workloads run through the public `csolve` façade, each
//! solve checked against a seeded manufactured solution; end-to-end metrics
//! come from an untraced run, per-layer metrics from a traced run that
//! replays the workload's algorithm out of the layers' public calls.
//!
//! ```text
//! e2e_bench --workload NAME --seed N --seconds S --trace 0|1   one run; the last stdout line is its JSON result
//! e2e_bench [--all | --workload NAME] [--smoke] [--seed N] [--seconds S] [--out DIR]
//!                                                              both runs per workload, records under DIR
//! e2e_bench --compare OLD.json NEW.json                        verdict per workload and end-to-end metric
//! ```
//!
//! See `benchmark/README.md` for the workloads, the metrics and how to read
//! the output.

mod catalog;
mod compare;
mod measure;
mod probes;
mod replay;
mod report;
mod spans;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use csolve::C64;

use measure::{Opts, RunOut};
use report::{DriverSet, Record};
use trace::TraceOut;
use workloads::{Case, Kind, Spec, WORKLOADS};

/// Measuring time of one run unless `--seconds` says otherwise; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 24.0;
const DEFAULT_OUT: &str = "target/e2e_bench";

struct Args(Vec<String>);

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn values(&self, flag: &str, n: usize) -> Option<&[String]> {
        let i = self.0.iter().position(|a| a == flag)?;
        self.0.get(i + 1..i + 1 + n)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.values(flag, 1).map(|v| v[0].as_str())
    }

    /// A numeric flag: absent → default; present but unparsable → error.
    fn number<N: std::str::FromStr>(&self, flag: &str, default: N) -> Result<N, String> {
        match self.value(flag) {
            None if self.has(flag) => Err(format!("{flag} needs a value")),
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: cannot parse '{v}'")),
        }
    }
}

fn measure(spec: &Spec, o: &Opts) -> RunOut {
    match (spec.case, spec.kind) {
        (Case::Pipe, Kind::OneShot) => measure::one_shot::<f64>(spec, o),
        (Case::Industrial, Kind::OneShot) => measure::one_shot::<C64>(spec, o),
        (Case::Pipe, Kind::Session) => measure::session::<f64>(spec, o),
        (Case::Industrial, Kind::Session) => measure::session::<C64>(spec, o),
    }
}

fn traced(spec: &Spec, o: &Opts) -> TraceOut {
    match spec.case {
        Case::Pipe => trace::traced::<f64>(spec, o),
        Case::Industrial => trace::traced::<C64>(spec, o),
    }
}

fn write_file(dir: &Path, name: &str, contents: &str) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn spans_name(spec: &Spec) -> String {
    format!("{}.spans.jsonl", spec.name)
}

/// Driver mode: one run of one workload, its result as the last stdout line.
fn run_single(spec: &Spec, o: &Opts, traced_run: bool, out: &Path) -> Result<bool, String> {
    println!(
        "{} (seed {}, {} s, P = {})",
        spec.name, o.seed, o.seconds, o.threads
    );
    let (gate, metrics, set) = if traced_run {
        let t = traced(spec, o);
        write_file(out, &spans_name(spec), &t.log.to_jsonl())?;
        (t.gate, t.metrics, DriverSet::PerLayer)
    } else {
        let r = measure(spec, o);
        println!(
            "  R = {}, hypervisor steal {:.2} %",
            r.reps,
            100.0 * r.steal_frac
        );
        (r.gate, r.metrics, DriverSet::EndToEnd)
    };
    report::print_metrics("metrics", &metrics);
    report::print_gate(&gate);
    println!("{}", report::driver_line(&gate, &metrics, set));
    Ok(gate.failed == 0)
}

/// Full mode: the untraced and the traced run of every selected workload,
/// one record per workload plus the combined file.
fn run_full(specs: &[&Spec], o: &Opts, out: &Path) -> Result<bool, String> {
    let host = report::host_json(o);
    let mut records = Vec::new();
    let mut all_ok = true;
    for spec in specs {
        println!("== {} (seed {}, P = {})", spec.name, o.seed, o.threads);
        println!("   {}", spec.why);
        let run = measure(spec, o);
        report::print_metrics(
            &format!(
                "end-to-end, untraced run (R = {}, hypervisor steal {:.2} %)",
                run.reps,
                100.0 * run.steal_frac
            ),
            &run.metrics,
        );
        let t = traced(spec, o);
        report::print_metrics("per layer, traced run", &t.metrics);
        println!("  layer self time in the staged replay");
        let layer_self_s = t.log.layer_self_s();
        for (layer, s) in &layer_self_s {
            println!("    {layer:<40} {s:>14.6} s");
        }
        let mut gate = run.gate;
        gate.merge(t.gate);
        report::print_gate(&gate);
        all_ok &= gate.failed == 0;

        let spans = write_file(out, &spans_name(spec), &t.log.to_jsonl())?;
        let record = Record {
            spec,
            opts: o,
            reps: run.reps,
            steal_frac: run.steal_frac,
            gate: &gate,
            end_to_end: &run.metrics,
            per_layer: &t.metrics,
            layer_self_s,
            spans_file: spans_name(spec),
        }
        .to_json(&host);
        let path = write_file(out, &format!("{}.json", spec.name), &format!("{record}\n"))?;
        println!("  wrote {} and {}", path.display(), spans.display());
        records.push(record);
    }
    let path = write_file(out, "record.json", &report::combined_json(&records))?;
    println!("wrote {}", path.display());
    Ok(all_ok)
}

fn run(args: &Args) -> Result<bool, String> {
    if let Some(files) = args.values("--compare", 2) {
        return compare::run(&files[0], &files[1]);
    }
    if args.has("--compare") {
        return Err("--compare needs two files: OLD.json NEW.json".into());
    }
    let smoke = args.has("--smoke");
    let o = Opts {
        seed: args.number("--seed", 1u64)?,
        // A smoke run measures one repetition whatever the time.
        seconds: if smoke {
            0.0
        } else {
            args.number("--seconds", DEFAULT_SECONDS)?
        },
        smoke,
        threads: workloads::threads_p(),
    };
    let out = PathBuf::from(args.value("--out").unwrap_or(DEFAULT_OUT));
    let named = match args.value("--workload") {
        Some(name) => Some(workloads::find(name).ok_or_else(|| {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload '{name}' (known: {})", known.join(", "))
        })?),
        None => None,
    };
    if args.has("--trace") {
        let spec = named.ok_or("--trace needs --workload NAME")?;
        let traced_run = match args.value("--trace") {
            Some("0") => false,
            Some("1") => true,
            other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
        };
        return run_single(spec, &o, traced_run, &out);
    }
    let specs: Vec<&Spec> = match named {
        Some(spec) => vec![spec],
        None => WORKLOADS.iter().collect(),
    };
    run_full(&specs, &o, &out)
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    if args.has("--help") || args.has("-h") {
        println!(
            "usage:\n  e2e_bench --workload NAME --seed N --seconds S --trace 0|1\n  \
             e2e_bench [--all | --workload NAME] [--smoke] [--seed N] [--seconds S] [--out DIR]\n  \
             e2e_bench --compare OLD.json NEW.json\nworkloads:"
        );
        for w in &WORKLOADS {
            println!("  {:<22} {}", w.name, w.why);
        }
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            ExitCode::from(2)
        }
    }
}
