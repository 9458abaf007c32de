//! Output: the host stamp, the per-workload JSON record, the one-line result
//! the driver reads, and the human-readable metric table.

use std::fmt::Write as _;
use std::process::Command;

use csolve::KernelCalibration;

use crate::catalog::{per_layer, END_TO_END};
use crate::measure::Opts;
use crate::workloads::{nproc, Gate, Metric, Metrics, Spec};

/// A JSON number: non-finite values (a rate over a zero time) become 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host stamp of a record: cores, threads, kernel calibration, toolchain,
/// commit.
pub fn host_json(o: &Opts) -> String {
    let cal = KernelCalibration::current();
    let blocking = |b: csolve::dense::KernelBlocking| {
        format!(
            "{{\"mc\": {}, \"kc\": {}, \"nc\": {}, \"mr\": {}, \"nr\": {}}}",
            b.mc, b.kc, b.nc, b.mr, b.nr
        )
    };
    format!(
        "{{\"nproc\": {}, \"threads_p\": {}, \"rustc\": {}, \"git_commit\": {}, \
         \"calibration\": {{\"l1d_bytes\": {}, \"l2_bytes\": {}, \"l3_bytes\": {}, \
         \"source\": {}, \"real\": {}, \"complex\": {}}}}}",
        nproc(),
        o.threads,
        json_string(&command_line("rustc", &["--version"])),
        json_string(&command_line("git", &["rev-parse", "HEAD"])),
        cal.cache.l1d_bytes,
        cal.cache.l2_bytes,
        cal.cache.l3_bytes,
        json_string(cal.cache.source.name()),
        blocking(cal.real),
        blocking(cal.complex),
    )
}

fn metric_json(m: &Metric) -> String {
    let s = &m.summary;
    format!(
        "{}: {{\"value\": {}, \"unit\": {}, \"p25\": {}, \"p75\": {}, \"n\": {}, \"min\": {}, \"max\": {}}}",
        json_string(&m.name),
        num(s.median),
        json_string(m.unit),
        num(s.p25),
        num(s.p75),
        s.n,
        num(s.min),
        num(s.max),
    )
}

fn metrics_json(metrics: &Metrics, indent: &str) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| format!("{indent}  {}", metric_json(m)))
        .collect();
    format!("{{\n{}\n{indent}}}", body.join(",\n"))
}

/// Everything one workload produced in a full run.
pub struct Record<'a> {
    pub spec: &'a Spec,
    pub opts: &'a Opts,
    pub reps: usize,
    pub steal_frac: f64,
    pub gate: &'a Gate,
    pub end_to_end: &'a Metrics,
    pub per_layer: &'a Metrics,
    pub layer_self_s: Vec<(&'static str, f64)>,
    pub spans_file: String,
}

impl Record<'_> {
    pub fn to_json(&self, host: &str) -> String {
        let failures: Vec<String> = self.gate.messages.iter().map(|m| json_string(m)).collect();
        let layers: Vec<String> = self
            .layer_self_s
            .iter()
            .map(|(l, s)| format!("{}: {}", json_string(l), num(*s)))
            .collect();
        format!(
            "{{\n  \"benchmark\": \"e2e_bench\",\n  \"workload\": {},\n  \"why\": {},\n  \
             \"host\": {host},\n  \"seed\": {},\n  \"seconds\": {},\n  \"smoke\": {},\n  \
             \"reps\": {},\n  \"steal_frac\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"failures\": [{}],\n  \
             \"end_to_end\": {},\n  \"per_layer\": {},\n  \"layer_self_s\": {{{}}},\n  \
             \"spans_file\": {}\n}}",
            json_string(self.spec.name),
            json_string(self.spec.why),
            self.opts.seed,
            num(self.opts.seconds),
            self.opts.smoke,
            self.reps,
            num(self.steal_frac),
            self.gate.attempted,
            self.gate.failed,
            failures.join(", "),
            metrics_json(self.end_to_end, "  "),
            metrics_json(self.per_layer, "  "),
            layers.join(", "),
            json_string(&self.spans_file),
        )
    }
}

/// The combined file `--compare` reads: every workload's record of one run.
pub fn combined_json(records: &[String]) -> String {
    let indented: Vec<String> = records.iter().map(|r| r.replace('\n', "\n  ")).collect();
    format!(
        "{{\n\"benchmark\": \"e2e_bench\",\n\"records\": [\n  {}\n]\n}}\n",
        indented.join(",\n  ")
    )
}

/// Which fixed metric set the driver's result line carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverSet {
    /// `--trace 0`: the end-to-end metrics every workload reports.
    EndToEnd,
    /// `--trace 1`: every catalogued per-layer metric; one whose call the
    /// workload never makes reads 0.
    PerLayer,
}

/// The last line of standard output in driver mode.
pub fn driver_line(gate: &Gate, metrics: &Metrics, set: DriverSet) -> String {
    let names: Vec<(String, &'static str)> = match set {
        DriverSet::EndToEnd => END_TO_END
            .iter()
            .filter(|m| m.every_workload)
            .map(|m| (m.name.to_string(), m.unit))
            .collect(),
        DriverSet::PerLayer => per_layer(),
    };
    let body: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = metrics.get(name).unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                num(value),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.failed == 0 && gate.attempted > 0,
        gate.attempted.max(1),
        gate.failed,
        body.join(", ")
    )
}

/// Human-readable table: every metric by name with its unit.
pub fn print_metrics(title: &str, metrics: &Metrics) {
    println!("  {title}");
    for m in &metrics.0 {
        let s = &m.summary;
        if s.n > 1 {
            println!(
                "    {:<40} {:>14.6} {:<6} (min {:.6}, p25 {:.6}, p75 {:.6}, max {:.6}, n = {})",
                m.name, s.median, m.unit, s.min, s.p25, s.p75, s.max, s.n
            );
        } else {
            println!("    {:<40} {:>14.6} {:<6}", m.name, s.median, m.unit);
        }
    }
}

pub fn print_gate(gate: &Gate) {
    println!(
        "  operations: {} attempted, {} failed",
        gate.attempted, gate.failed
    );
    for msg in &gate.messages {
        println!("    FAILED {msg}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use csolve::json::parse_json;

    fn sample() -> (Gate, Metrics, Metrics) {
        let mut gate = Gate::default();
        gate.record("a", Ok(()));
        gate.record("b \"quoted\"", Err("line\nbreak".into()));
        let mut e2e = Metrics::default();
        e2e.samples("solve_s", "s", &[3.0, 1.0, 2.0]);
        e2e.exact("peak_mib", "MiB", 49.6);
        e2e.exact("rhs_per_s", "1/s", f64::INFINITY);
        let mut layer = Metrics::default();
        layer.exact("sparse.factorize_s", "s", 0.25);
        (gate, e2e, layer)
    }

    #[test]
    fn record_round_trips_through_the_json_parser() {
        let (gate, e2e, layer) = sample();
        let opts = Opts {
            seed: 7,
            seconds: 20.0,
            smoke: false,
            threads: 2,
        };
        let record = Record {
            spec: &WORKLOADS[0],
            opts: &opts,
            reps: 3,
            steal_frac: 0.0,
            gate: &gate,
            end_to_end: &e2e,
            per_layer: &layer,
            layer_self_s: vec![("sparse", 1.5), ("hmat", 0.5)],
            spans_file: "w.spans.jsonl".into(),
        };
        let json = record.to_json(&host_json(&opts));
        let doc = parse_json(&json).unwrap();
        assert_eq!(
            doc.get("workload").unwrap().as_str(),
            Some(WORKLOADS[0].name)
        );
        assert_eq!(doc.get("seed").unwrap().as_u64(), Some(7));
        assert_eq!(doc.get("reps").unwrap().as_u64(), Some(3));
        assert_eq!(doc.get("failed").unwrap().as_u64(), Some(1));
        let failure = &doc.get("failures").unwrap().as_array().unwrap()[0];
        assert_eq!(failure.as_str(), Some("b \"quoted\": line\nbreak"));
        let solve = doc.get("end_to_end").unwrap().get("solve_s").unwrap();
        assert_eq!(solve.get("value").unwrap().as_f64(), Some(2.0));
        assert_eq!(solve.get("p25").unwrap().as_f64(), Some(1.0));
        assert_eq!(solve.get("p75").unwrap().as_f64(), Some(3.0));
        assert_eq!(solve.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(solve.get("unit").unwrap().as_str(), Some("s"));
        // Non-finite values are written as 0, never as invalid JSON.
        let rhs = doc.get("end_to_end").unwrap().get("rhs_per_s").unwrap();
        assert_eq!(rhs.get("value").unwrap().as_f64(), Some(0.0));
        let host = doc.get("host").unwrap();
        assert_eq!(host.get("threads_p").unwrap().as_u64(), Some(2));
        assert!(host.get("calibration").unwrap().get("l2_bytes").is_some());
        assert_eq!(
            doc.get("layer_self_s")
                .unwrap()
                .get("hmat")
                .unwrap()
                .as_f64(),
            Some(0.5)
        );

        let combined = parse_json(&combined_json(&[json.clone(), json])).unwrap();
        assert_eq!(
            combined.get("records").unwrap().as_array().unwrap().len(),
            2
        );
    }

    #[test]
    fn driver_line_carries_exactly_the_fixed_set() {
        let (gate, e2e, layer) = sample();
        let line = driver_line(&gate, &e2e, DriverSet::EndToEnd);
        assert!(!line.contains('\n'));
        let doc = parse_json(&line).unwrap();
        assert_eq!(doc.as_object().unwrap().len(), 4);
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(false));
        assert_eq!(doc.get("attempted").unwrap().as_u64(), Some(2));
        assert_eq!(doc.get("failed").unwrap().as_u64(), Some(1));
        let metrics = doc.get("metrics").unwrap().as_object().unwrap();
        let expected = END_TO_END.iter().filter(|m| m.every_workload).count();
        assert_eq!(metrics.len(), expected);
        assert_eq!(metrics["solve_s"].get("value").unwrap().as_f64(), Some(2.0));
        assert!(!metrics.contains_key("factor_s"));

        let line = driver_line(&Gate::default(), &layer, DriverSet::PerLayer);
        let doc = parse_json(&line).unwrap();
        // Nothing attempted is not a correct run, and `attempted` stays ≥ 1.
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(false));
        assert_eq!(doc.get("attempted").unwrap().as_u64(), Some(1));
        let metrics = doc.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), per_layer().len());
        assert_eq!(
            metrics["sparse.factorize_s"].get("value").unwrap().as_f64(),
            Some(0.25)
        );
        assert_eq!(
            metrics["hmat.factor_s"].get("value").unwrap().as_f64(),
            Some(0.0)
        );
    }
}
