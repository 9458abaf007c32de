//! Benchmark-side spans: one per call into a solver layer during the staged
//! replay, kept in memory and written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. A span's id is its index in the log; `parent` is the id of
/// the span that was open when this one started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub parent: Option<usize>,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work counts recorded at the same boundary (columns, bytes, flops…).
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder for one workload's traced run (single-threaded:
/// the replay runs in a 1-thread pool, so a plain open-span stack suffices).
pub struct SpanLog {
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new(workload: &str) -> Self {
        Self {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span named `layer.name`, child of the innermost open
    /// span. `f` receives the log so it can open children or add counts to
    /// its own span through [`SpanLog::count`].
    pub fn time<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Attach a work count to the innermost open span.
    pub fn count(&mut self, key: &'static str, value: f64) {
        if let Some(&id) = self.open.last() {
            self.spans[id].counts.push((key, value));
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds spent in spans called `layer.name`, summed.
    pub fn total_s(&self, layer: &str, name: &str) -> f64 {
        self.matching(layer, name).map(Span::dur_ns).sum::<u64>() as f64 * 1e-9
    }

    /// Number of spans called `layer.name`.
    pub fn calls(&self, layer: &str, name: &str) -> usize {
        self.matching(layer, name).count()
    }

    /// Sum of count `key` over the spans called `layer.name`.
    pub fn count_sum(&self, layer: &str, name: &str, key: &str) -> f64 {
        self.matching(layer, name)
            .flat_map(|s| s.counts.iter())
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .sum()
    }

    fn matching<'a>(&'a self, layer: &'a str, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans
            .iter()
            .filter(move |s| s.layer == layer && s.name == name)
    }

    /// Self time per layer in seconds (a span's duration minus the part its
    /// direct children cover), in first-appearance order.
    pub fn layer_self_s(&self) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (span, self_ns) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            match out.iter_mut().find(|(l, _)| *l == span.layer) {
                Some((_, s)) => *s += self_ns as f64 * 1e-9,
                None => out.push((span.layer, self_ns as f64 * 1e-9)),
            }
        }
        out
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"workload\": \"{}\", \"layer\": \"{}\", \
                 \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}",
                id, self.workload, s.layer, s.name, s.start_ns, s.end_ns
            );
            for (k, v) in &s.counts {
                let _ = write!(out, ", \"{k}\": {v}");
            }
            out.push_str("}\n");
        }
        out
    }
}

/// Self time of every span: its duration minus the union of the intervals
/// its direct children cover (children are clipped to the parent and may
/// overlap each other without being counted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, ch)| {
            ch.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in ch.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            layer: "l",
            name: "n",
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span(None, 0, 100),     // root
            span(Some(0), 10, 40),  // child a
            span(Some(1), 15, 25),  // grandchild (inside a)
            span(Some(0), 50, 70),  // sibling b
            span(Some(0), 60, 80),  // sibling c, overlapping b
            span(Some(0), 90, 120), // child running past its parent
        ];
        let st = self_times_ns(&spans);
        // root: 100 − (30 + [50,80]=30 + [90,100]=10) = 30
        assert_eq!(st[0], 30);
        // a: 30 − 10 (grandchild); grandchild and leaves keep their duration.
        assert_eq!(st[1], 20);
        assert_eq!(st[2], 10);
        assert_eq!(st[3], 20);
        assert_eq!(st[4], 20);
        assert_eq!(st[5], 30);
    }

    #[test]
    fn log_records_parents_counts_and_jsonl() {
        let mut log = SpanLog::new("w");
        log.time("core", "outer", |log| {
            log.time("sparse", "inner", |log| log.count("cols", 8.0));
            log.time("sparse", "inner", |log| log.count("cols", 4.0));
        });
        let s = log.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert_eq!(log.calls("sparse", "inner"), 2);
        assert_eq!(log.count_sum("sparse", "inner", "cols"), 12.0);
        let layers = log.layer_self_s();
        assert_eq!(layers.len(), 2);
        let total: f64 = layers.iter().map(|(_, s)| s).sum();
        assert!((total - log.total_s("core", "outer")).abs() < 1e-9);
        // Every line parses back and carries the span fields.
        let lines = csolve::json::parse_jsonl(&log.to_jsonl()).unwrap();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1].get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(lines[1].get("layer").unwrap().as_str(), Some("sparse"));
        assert_eq!(lines[1].get("cols").unwrap().as_f64(), Some(8.0));
        assert_eq!(lines[0].get("workload").unwrap().as_str(), Some("w"));
    }
}
