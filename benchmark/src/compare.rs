//! `--compare old.json new.json`: per workload and end-to-end metric, old,
//! new, their ratio and a verdict computed from the two files alone.

use csolve::json::{parse_json, JsonValue};

use crate::catalog::{EndToEnd, END_TO_END};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse than the old median by more than the metric's bound (and by
    /// more than either run's own quartile spread).
    Regressed,
    /// The recorded quartile spread is wider than the bound, so a change of
    /// the bound's size cannot be told from noise — or one of the two runs
    /// was measured while the hypervisor withheld CPU time.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A metric as recorded: median and quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recorded {
    pub value: f64,
    pub p25: f64,
    pub p75: f64,
}

impl Recorded {
    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25).abs() / self.value.abs()
        }
    }
}

/// Steal share of a run's measuring time above which its timings are no
/// evidence: quiet runs on the authoring host read 0.02–0.08 %, a run that came
/// out 27 % slow read 3.7 %.
pub const DISTURBED_STEAL_FRAC: f64 = 0.005;

/// Whether a metric is derived from wall or CPU time (as opposed to tracked
/// bytes and failure counts, which a disturbed host leaves alone).
fn is_timing(def: &EndToEnd) -> bool {
    matches!(def.unit, "s" | "ms" | "1/s" | "x")
}

/// Verdict on one metric. `disturbed` says that one of the two runs saw more
/// than [`DISTURBED_STEAL_FRAC`] steal: its timings then resolve nothing.
pub fn verdict(def: &EndToEnd, old: Recorded, new: Recorded, disturbed: bool) -> Verdict {
    if disturbed && is_timing(def) {
        return Verdict::Unresolved;
    }
    if old.value == 0.0 {
        // Only `failed_frac` sits at 0: any failure is a regression.
        return if !def.higher_is_better && new.value > 0.0 {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    }
    let worsening = if def.higher_is_better {
        (old.value - new.value) / old.value
    } else {
        (new.value - old.value) / old.value
    };
    let noise = old.spread().max(new.spread());
    if worsening > def.bound {
        if worsening > noise {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if noise > def.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// The per-workload records of a file: a combined file's `records`, or the
/// single record the file is.
fn records(doc: &JsonValue) -> Vec<&JsonValue> {
    match doc.get("records").and_then(JsonValue::as_array) {
        Some(list) => list.iter().collect(),
        None => vec![doc],
    }
}

fn recorded(record: &JsonValue, metric: &str) -> Option<Recorded> {
    let m = record.get("end_to_end")?.get(metric)?;
    let value = m.get("value")?.as_f64()?;
    let quartile = |key| m.get(key).and_then(JsonValue::as_f64).unwrap_or(value);
    Some(Recorded {
        value,
        p25: quartile("p25"),
        p75: quartile("p75"),
    })
}

fn is_disturbed(record: &JsonValue) -> bool {
    record
        .get("steal_frac")
        .and_then(JsonValue::as_f64)
        .is_some_and(|s| s > DISTURBED_STEAL_FRAC)
}

pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub old: f64,
    pub new: f64,
    pub verdict: Verdict,
}

/// Compare every workload present in both documents.
pub fn compare(old: &JsonValue, new: &JsonValue) -> Vec<Row> {
    let mut rows = Vec::new();
    for old_rec in records(old) {
        let Some(name) = old_rec.get("workload").and_then(JsonValue::as_str) else {
            continue;
        };
        let Some(new_rec) = records(new)
            .into_iter()
            .find(|r| r.get("workload").and_then(JsonValue::as_str) == Some(name))
        else {
            continue;
        };
        let disturbed = is_disturbed(old_rec) || is_disturbed(new_rec);
        for def in &END_TO_END {
            if let (Some(o), Some(n)) = (recorded(old_rec, def.name), recorded(new_rec, def.name)) {
                rows.push(Row {
                    workload: name.to_string(),
                    metric: def.name,
                    unit: def.unit,
                    old: o.value,
                    new: n.value,
                    verdict: verdict(def, o, n, disturbed),
                });
            }
        }
    }
    rows
}

/// Print the comparison; `Ok(true)` when nothing regressed.
pub fn run(old_path: &str, new_path: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<JsonValue, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare(&load(old_path)?, &load(new_path)?);
    if rows.is_empty() {
        return Err("the two files share no workload with end-to-end metrics".into());
    }
    println!(
        "{:<22} {:<14} {:>14} {:>14} {:<6} {:>22}  verdict",
        "workload", "metric", "old", "new", "unit", "new/old"
    );
    for r in &rows {
        let ratio = if r.old == 0.0 {
            "-".to_string()
        } else {
            format!("{:.4} of {:.6}", r.new / r.old, r.old)
        };
        println!(
            "{:<22} {:<14} {:>14.6} {:>14.6} {:<6} {:>22}  {}",
            r.workload,
            r.metric,
            r.old,
            r.new,
            r.unit,
            ratio,
            r.verdict.label()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} regressed, {} unresolved (a run with more than {} % steal resolves no timing)",
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved),
        100.0 * DISTURBED_STEAL_FRAC
    );
    Ok(count(Verdict::Regressed) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::end_to_end;

    fn exact(value: f64) -> Recorded {
        Recorded {
            value,
            p25: value,
            p75: value,
        }
    }

    fn noisy(value: f64, spread: f64) -> Recorded {
        Recorded {
            value,
            p25: value * (1.0 - spread / 2.0),
            p75: value * (1.0 + spread / 2.0),
        }
    }

    #[test]
    fn lower_is_better_verdicts() {
        let def = end_to_end("solve_s").unwrap();
        let b = def.bound;
        let v = |old, new| verdict(def, old, new, false);
        assert_eq!(v(exact(1.0), exact(1.0 + 0.5 * b)), Verdict::Ok);
        assert_eq!(v(exact(1.0), exact(0.5)), Verdict::Ok);
        assert_eq!(v(exact(1.0), exact(1.0 + 1.5 * b)), Verdict::Regressed);
        // Spread wider than the bound: a small change cannot be resolved…
        assert_eq!(
            v(noisy(1.0, 2.0 * b), exact(1.0 + 0.5 * b)),
            Verdict::Unresolved
        );
        // …nor can a worsening that is within that spread…
        assert_eq!(
            v(noisy(1.0, 2.0 * b), exact(1.0 + 1.5 * b)),
            Verdict::Unresolved
        );
        // …but one far beyond it is still a regression.
        assert_eq!(v(noisy(1.0, 2.0 * b), exact(2.0)), Verdict::Regressed);
    }

    #[test]
    fn higher_is_better_verdicts() {
        let def = end_to_end("rhs_per_s").unwrap();
        let b = def.bound;
        let v = |old, new| verdict(def, old, new, false);
        assert_eq!(v(exact(100.0), exact(150.0)), Verdict::Ok);
        assert_eq!(v(exact(100.0), exact(100.0 * (1.0 - 0.5 * b))), Verdict::Ok);
        assert_eq!(
            v(exact(100.0), exact(100.0 * (1.0 - 1.5 * b))),
            Verdict::Regressed
        );
        assert_eq!(v(exact(100.0), noisy(100.0, 1.5 * b)), Verdict::Unresolved);
    }

    #[test]
    fn a_disturbed_run_resolves_no_timing() {
        let def = end_to_end("solve_s").unwrap();
        assert_eq!(
            verdict(def, exact(1.0), exact(2.0), true),
            Verdict::Unresolved
        );
        // Tracked bytes do not depend on the host's mood.
        let def = end_to_end("peak_mib").unwrap();
        assert_eq!(
            verdict(def, exact(1.0), exact(2.0), true),
            Verdict::Regressed
        );
        assert_eq!(verdict(def, exact(1.0), exact(1.0), true), Verdict::Ok);
    }

    #[test]
    fn failed_frac_regresses_on_any_failure() {
        let def = end_to_end("failed_frac").unwrap();
        assert_eq!(verdict(def, exact(0.0), exact(0.0), false), Verdict::Ok);
        assert_eq!(
            verdict(def, exact(0.0), exact(0.01), false),
            Verdict::Regressed
        );
    }

    #[test]
    fn compares_single_records_and_combined_files() {
        let record = |w: &str, solve: f64, steal: f64| {
            format!(
                "{{\"workload\": \"{w}\", \"steal_frac\": {steal}, \"end_to_end\": \
                 {{\"solve_s\": {{\"value\": {solve}, \"unit\": \"s\", \"p25\": {solve}, \
                 \"p75\": {solve}}}, \"peak_mib\": {{\"value\": 10, \"unit\": \"MiB\"}}}}}}"
            )
        };
        let combined =
            |a: &str, b: &str| parse_json(&format!("{{\"records\": [{a}, {b}]}}")).unwrap();
        let old = combined(&record("w1", 1.0, 0.0), &record("w2", 2.0, 0.0));
        let new = combined(&record("w2", 4.0, 0.0), &record("w1", 1.0, 0.0));
        let rows = compare(&old, &new);
        assert_eq!(rows.len(), 4);
        let find = |rows: &[Row], w: &str, m: &str| {
            rows.iter()
                .find(|r| r.workload == w && r.metric == m)
                .unwrap()
                .verdict
        };
        assert_eq!(find(&rows, "w1", "solve_s"), Verdict::Ok);
        assert_eq!(find(&rows, "w2", "solve_s"), Verdict::Regressed);
        // Quartiles default to the value when a record has none.
        assert_eq!(find(&rows, "w2", "peak_mib"), Verdict::Ok);
        // A record taken under steal turns its workload's timings unresolved.
        let stolen = combined(&record("w2", 4.0, 0.04), &record("w1", 1.0, 0.0));
        let rows = compare(&old, &stolen);
        assert_eq!(find(&rows, "w2", "solve_s"), Verdict::Unresolved);
        assert_eq!(find(&rows, "w2", "peak_mib"), Verdict::Ok);
        assert_eq!(find(&rows, "w1", "solve_s"), Verdict::Ok);
        // A single record against a combined file.
        let single = parse_json(&record("w2", 2.0, 0.0)).unwrap();
        assert_eq!(compare(&single, &new).len(), 2);
        assert!(compare(&single, &parse_json(&record("other", 1.0, 0.0)).unwrap()).is_empty());
    }
}
