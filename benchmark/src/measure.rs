//! The untraced run of a workload: set-up, warm-up, timed repetitions,
//! correctness gates, end-to-end metrics. Timing is `Instant` around the
//! public calls; the solver's tracer stays disabled.

use std::time::Instant;

use csolve::testkit::SplitMix64;
use csolve::{solve, CoupledProblem, KernelCalibration, Scalar, SessionBuilder, SolverSession};

use crate::stats::{faster_half_mean, median, percentile_with_tail};
use crate::workloads::{
    combine, install, judge_outcome, judge_solution, manufactured_pair, mib, Gate, Metrics, Pair,
    Reference, Spec, N_BASIS, PANEL_WIDTH,
};

/// Run parameters shared by every mode.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// Measuring time of one run; repetitions stop once it is used up.
    pub seconds: f64,
    pub smoke: bool,
    /// `P`, the worker-thread count of the threaded measurements.
    pub threads: usize,
}

impl Opts {
    /// Fewest timed repetitions whatever `--seconds` says: a median of fewer
    /// than three samples is a mean. One under `--smoke`.
    pub fn min_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// Warm session panels served after each cold request: about as long as
    /// the cold request itself, and 120 panels or more at `R` ≥ 4 (104 is the
    /// smallest count with ten samples beyond the 90th percentile). 4 under
    /// `--smoke`.
    pub fn warm_chunk(&self) -> usize {
        if self.smoke {
            4
        } else {
            30
        }
    }

    /// Whether a run that has made `reps` repetitions since `since` is done.
    fn measured(&self, reps: usize, since: Instant) -> bool {
        reps >= self.min_reps() && since.elapsed().as_secs_f64() >= self.seconds
    }
}

/// What one run of one workload produced.
pub struct RunOut {
    pub gate: Gate,
    pub metrics: Metrics,
    /// Timed repetitions behind the medians (`R`).
    pub reps: usize,
    /// Share of the machine's CPU time the hypervisor withheld while the run
    /// measured (0 on bare metal). The load shape assumes nothing else runs;
    /// a run with more than a fraction of a percent was measured on a
    /// disturbed host.
    pub steal_frac: f64,
}

/// CPU seconds the hypervisor gave to other guests so far, summed over the
/// CPUs (`steal` column of `/proc/stat`, 100 Hz).
fn stolen_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let ticks = s.lines().next()?.split_whitespace().nth(8)?;
            ticks.parse::<u64>().ok()
        })
        .map_or(0.0, |ticks| ticks as f64 / 100.0)
}

/// Steal share of the interval that began at `since` with `stolen0` seconds
/// already stolen.
fn steal_frac(since: Instant, stolen0: f64) -> f64 {
    let cpu_s = since.elapsed().as_secs_f64() * crate::workloads::nproc() as f64;
    (stolen_cpu_s() - stolen0) / cpu_s
}

/// Process CPU seconds so far (utime + stime of `/proc/self/stat`, 100 Hz).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .expect("reading /proc/self/stat (the benchmark runs on Linux)");
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|t| t.parse::<u64>().unwrap_or(0))
        .sum();
    ticks as f64 / 100.0
}

/// Set-up shared by both kinds of run: generate the problem, manufacture the
/// seeded right-hand side(s), trigger the kernel calibration.
pub struct Setup<T: Scalar> {
    pub problem: CoupledProblem<T>,
    /// `basis[0]` is installed in `problem`; the session combines all of them.
    pub basis: Vec<Pair<T>>,
    pub generate_s: f64,
    pub rhs_build_s: f64,
}

pub fn set_up<T: Scalar>(spec: &Spec, o: &Opts, n_pairs: usize) -> Setup<T> {
    let t = Instant::now();
    let mut problem = spec.generate::<T>(o.smoke);
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut rng = SplitMix64::new(o.seed);
    let basis: Vec<Pair<T>> = (0..n_pairs)
        .map(|_| manufactured_pair(&problem, &mut rng))
        .collect();
    install(&mut problem, &basis[0]);
    let rhs_build_s = t.elapsed().as_secs_f64();
    let _ = KernelCalibration::current();
    Setup {
        problem,
        basis,
        generate_s,
        rhs_build_s,
    }
}

/// One-shot workloads: a warm-up solve at 1 thread, then `csolve::solve` at
/// `P` threads until the measuring time is used up (at least
/// `Opts::min_reps` times).
pub fn one_shot<T: Scalar>(spec: &Spec, o: &Opts) -> RunOut {
    let t_setup = Instant::now();
    let Setup { problem, basis, .. } = set_up::<T>(spec, o, 1);
    let want = &basis[0];
    let budget = spec.budget_bytes(o.smoke);
    let cfg_p = spec.config(o.threads, o.smoke);
    let mut gate = Gate::default();
    let mut reference: Reference<T> = None;
    let peak_1 = warm_up(spec, o, &problem, want, &mut reference, &mut gate);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let (mut wall_p, mut cpu_p, mut peak_p) = (Vec::new(), Vec::new(), Vec::new());
    let (t_measure, stolen0) = (Instant::now(), stolen_cpu_s());
    loop {
        let (cpu0, t) = (process_cpu_s(), Instant::now());
        let out = solve(&problem, spec.algo, &cfg_p);
        wall_p.push(t.elapsed().as_secs_f64());
        cpu_p.push(process_cpu_s() - cpu0);
        gate.record(
            &format!("rep {} at {} threads", wall_p.len() - 1, o.threads),
            judge_outcome(&out, want, &mut reference, budget),
        );
        peak_p.push(out.map_or(0.0, |o| mib(o.metrics.peak_bytes)));
        if o.measured(wall_p.len(), t_measure) {
            break;
        }
    }
    let steal_frac = steal_frac(t_measure, stolen0);

    let mut m = Metrics::default();
    m.exact("setup_s", "s", setup_s);
    m.samples("solve_s", "s", &wall_p);
    m.samples("cpu_s", "s", &cpu_p);
    m.exact("peak_mib", "MiB", peak_1);
    m.samples("peak_par_mib", "MiB", &peak_p);
    // One right-hand side per solve: `solve_s` as the throughput the session
    // workload reports.
    m.exact("rhs_per_s", "1/s", 1.0 / median(&wall_p));
    m.exact("failed_frac", "ratio", gate.failed_frac());
    RunOut {
        gate,
        metrics: m,
        reps: wall_p.len(),
        steal_frac,
    }
}

/// The untimed one-shot solve at 1 thread that ends every set-up: it fills the
/// caches, its answer is the bitwise reference of every later solve of the
/// run, and its tracked peak (MiB), which repeats exactly, is `peak_mib`.
fn warm_up<T: Scalar>(
    spec: &Spec,
    o: &Opts,
    problem: &CoupledProblem<T>,
    want: &Pair<T>,
    reference: &mut Reference<T>,
    gate: &mut Gate,
) -> f64 {
    let warm = solve(problem, spec.algo, &spec.config(1, o.smoke));
    let budget = spec.budget_bytes(o.smoke);
    gate.record(
        "warm-up at 1 thread",
        judge_outcome(&warm, want, reference, budget),
    );
    warm.map_or(0.0, |w| mib(w.metrics.peak_bytes))
}

/// Serve the first right-hand side on a fresh session (factorizing on the
/// way) whose queue only an explicit `flush()` drains: wall seconds, and the
/// session unless the request failed.
pub fn cold_request<T: Scalar>(
    spec: &Spec,
    o: &Opts,
    threads: usize,
    problem: &CoupledProblem<T>,
    want: &Pair<T>,
    reference: &mut Reference<T>,
    gate: &mut Gate,
) -> (f64, Option<SolverSession<T>>) {
    let mut session = SessionBuilder::new(spec.config(threads, o.smoke), spec.algo)
        .max_batch(8 * PANEL_WIDTH)
        .build::<T>()
        .expect("the workload's configuration is valid");
    let t = Instant::now();
    let answer = session.solve(problem, &want.bv, &want.bs);
    let wall = t.elapsed().as_secs_f64();
    let verdict = match &answer {
        Ok(a) => judge_solution(&a.xv, &a.xs, want, reference),
        Err(e) => Err(format!("solver error: {e}")),
    };
    let ok = verdict.is_ok();
    gate.record(&format!("cold request at {threads} threads"), verdict);
    (wall, ok.then_some(session))
}

/// Timings of the warm stream, one entry per panel.
#[derive(Default)]
pub struct Stream {
    /// `PANEL_WIDTH × submit + flush`.
    pub panel_s: Vec<f64>,
    pub submit_s: Vec<f64>,
    pub flush_s: Vec<f64>,
}

/// Serve `panels × PANEL_WIDTH` more warm requests, each a seeded combination
/// of the basis pairs, and append their timings to `out`; building the
/// requests and checking the answers happens outside the timed sections.
pub fn warm_stream<T: Scalar>(
    session: &mut SolverSession<T>,
    problem: &CoupledProblem<T>,
    basis: &[Pair<T>],
    rng: &mut SplitMix64,
    panels: usize,
    out: &mut Stream,
    gate: &mut Gate,
) {
    for _ in 0..panels {
        let panel = out.panel_s.len();
        let requests: Vec<Pair<T>> = (0..PANEL_WIDTH)
            .map(|_| {
                let coeffs: Vec<f64> = basis.iter().map(|_| rng.next_unit()).collect();
                combine(basis, &coeffs)
            })
            .collect();
        let t = Instant::now();
        let submitted: Vec<_> = requests
            .iter()
            .map(|r| session.submit(problem, &r.bv, &r.bs))
            .collect();
        let submit_s = t.elapsed().as_secs_f64();
        let answers = session.flush();
        let panel_s = t.elapsed().as_secs_f64();
        out.panel_s.push(panel_s);
        out.submit_s.push(submit_s);
        out.flush_s.push(panel_s - submit_s);

        // Answers come back in submission order.
        let answers = answers.unwrap_or_default();
        for (j, (request, sub)) in requests.iter().zip(&submitted).enumerate() {
            let verdict = match (sub, answers.get(j)) {
                (Err(e), _) => Err(format!("submit failed: {e}")),
                (Ok(_), None) => Err("no answer returned".to_string()),
                (Ok(id), Some(a)) if a.id != *id => Err("answer for another request".into()),
                (Ok(_), Some(a)) => judge_solution(&a.xv, &a.xs, request, &mut None),
            };
            gate.record(&format!("warm request {j} of panel {panel}"), verdict);
        }
    }
}

/// The session workload: the one-shot warm-up (the bitwise reference), then
/// repetitions of a cold request on a fresh `P`-thread session followed by a
/// chunk of the warm stream on that session, until the measuring time is used
/// up (at least `Opts::min_reps` times). The warm panels are spread over the
/// whole run because the host's speed shifts for seconds at a time: a stream
/// served in one stretch would measure the stretch.
pub fn session<T: Scalar>(spec: &Spec, o: &Opts) -> RunOut {
    let t_setup = Instant::now();
    let Setup { problem, basis, .. } = set_up::<T>(spec, o, N_BASIS);
    let want = &basis[0];
    let mut gate = Gate::default();
    let mut reference: Reference<T> = None;
    let peak_1 = warm_up(spec, o, &problem, want, &mut reference, &mut gate);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let (mut cold_p, mut cpu_p) = (Vec::new(), Vec::new());
    let (mut cache, mut peak_p) = (None, None);
    let mut stream = Stream::default();
    let mut rng = SplitMix64::new(o.seed ^ 0x5EED_5EED);
    let (t_measure, stolen0) = (Instant::now(), stolen_cpu_s());
    loop {
        let cpu0 = process_cpu_s();
        let (wall, warm) = cold_request(
            spec,
            o,
            o.threads,
            &problem,
            want,
            &mut reference,
            &mut gate,
        );
        cpu_p.push(process_cpu_s() - cpu0);
        cold_p.push(wall);
        if let Some(mut s) = warm {
            cache = cache.or(Some(mib(s.cache_bytes())));
            let panels = o.warm_chunk();
            warm_stream(
                &mut s,
                &problem,
                &basis,
                &mut rng,
                panels,
                &mut stream,
                &mut gate,
            );
            peak_p = Some(mib(s.stats().peak_bytes));
        }
        if o.measured(cold_p.len(), t_measure) {
            break;
        }
    }

    let mut m = Metrics::default();
    m.exact("setup_s", "s", setup_s);
    m.samples("factor_s", "s", &cold_p);
    // The cold request is this workload's time to a first solution.
    m.samples("solve_s", "s", &cold_p);
    m.samples("cpu_s", "s", &cpu_p);
    m.exact("peak_mib", "MiB", peak_1);
    if let (Some(cache), Some(peak_p)) = (cache, peak_p) {
        m.exact("cache_mib", "MiB", cache);
        // Not a median: a panel is short enough for the panel walls to be
        // bimodal on a shared host (see `faster_half_mean`).
        m.exact(
            "rhs_per_s",
            "1/s",
            PANEL_WIDTH as f64 / faster_half_mean(&stream.panel_s),
        );
        let panel_ms: Vec<f64> = stream.panel_s.iter().map(|s| s * 1e3).collect();
        m.samples("panel_ms_p50", "ms", &panel_ms);
        if let Some((p90, beyond)) = percentile_with_tail(&panel_ms, 90.0) {
            m.exact("panel_ms_p90", "ms", p90);
            m.exact("panel_ms_p90_samples_beyond", "count", beyond as f64);
        }
        m.exact("peak_par_mib", "MiB", peak_p);
    }
    m.exact("failed_frac", "ratio", gate.failed_frac());
    RunOut {
        gate,
        metrics: m,
        reps: cold_p.len(),
        steal_frac: steal_frac(t_measure, stolen0),
    }
}
