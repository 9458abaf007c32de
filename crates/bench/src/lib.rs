//! Shared helpers for the experiment binaries that regenerate the paper's
//! tables and figures.
//!
//! Every binary prints a self-contained report with the paper's reference
//! values next to the measured ones. Absolute numbers differ (the paper ran
//! on a 24-core, 128 GiB node; this harness runs wherever you are), so the
//! comparisons of interest are the *shapes*: which method wins, where the
//! crossovers sit, and which methods hit the memory wall first.

use std::str::FromStr;

use csolve::dense::KernelBlocking;
use csolve::{solve, Algorithm, CoupledProblem, KernelCalibration, Metrics, Scalar, SolverConfig};

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
    /// Render as a fixed-width cell: `time s / peak MiB` or `OOM`.
    pub fn cell(&self) -> String {
        match self {
            Attempt::Ok(r) => format!("{:>7.2}s {:>7.1}M", r.seconds, r.peak_mib),
            Attempt::Oom => format!("{:>16}", "OOM"),
            Attempt::Failed(e) => format!("{:>16}", truncate(e, 16)),
        }
    }
}

/// `s` cut to at most `n` characters, the last of them `…` when anything
/// was cut.
pub fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_string()
    } else {
        s.chars().take(n.saturating_sub(1)).chain(['…']).collect()
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
            peak_mib: mib(out.metrics.peak_bytes),
            schur_mib: mib(out.metrics.schur_bytes),
            rel_error: problem.relative_error(&out.xv, &out.xs),
            metrics: out.metrics,
        })),
        Err(e) if e.is_oom() => Attempt::Oom,
        Err(e) => Attempt::Failed(e.to_string()),
    }
}

/// One command-line flag a binary declares: name, default, one-line help.
pub struct Flag {
    name: &'static str,
    /// `None` declares a switch, which takes no value.
    default: Option<&'static str>,
    /// The default under `--smoke`, where it differs.
    smoke_default: Option<&'static str>,
    help: &'static str,
}

impl Flag {
    /// The switch that turns a report binary into a CI gate; a flag may
    /// declare a smaller default for it with [`Flag::smoke`].
    pub const SMOKE: Flag = Flag::switch("--smoke", "CI run: small sizes, exit 1 on a failed gate");

    /// `--name <value>`, `default` when absent.
    pub const fn value(name: &'static str, default: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            default: Some(default),
            smoke_default: None,
            help,
        }
    }

    /// `--name` alone: on when present.
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            default: None,
            smoke_default: None,
            help,
        }
    }

    /// The default when `--smoke` is given.
    pub const fn smoke(self, default: &'static str) -> Flag {
        Flag {
            smoke_default: Some(default),
            ..self
        }
    }
}

/// The command line of a binary, checked against its declared [`Flag`]s.
///
/// An undeclared flag, a flag missing its value, or a value that does not
/// parse (any element of a comma list included) ends the process with exit
/// code 2 and the usage text — so a typo can never silently run the default.
pub struct Args {
    flags: &'static [Flag],
    /// `(flag, value)` in command-line order; a switch's value is empty.
    given: Vec<(&'static str, String)>,
}

impl Args {
    /// The process arguments, checked against `flags`.
    pub fn parse(flags: &'static [Flag]) -> Args {
        Args::from_iter(flags, std::env::args().skip(1)).unwrap_or_else(|e| usage_error(flags, &e))
    }

    /// `args` (without the program name) checked against `flags`.
    ///
    /// # Panics
    /// When a flag is declared without its leading `--`.
    pub fn from_iter(
        flags: &'static [Flag],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Args, String> {
        for f in flags {
            assert!(f.name.starts_with("--"), "{} lacks its `--`", f.name);
        }
        let mut given = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let Some(flag) = flags.iter().find(|f| f.name == arg) else {
                return Err(format!("unknown flag `{arg}`"));
            };
            let value = match flag.default {
                None => String::new(),
                Some(_) => args.next().ok_or(format!("{} needs a value", flag.name))?,
            };
            given.push((flag.name, value));
        }
        Ok(Args { flags, given })
    }

    /// Whether switch `name` is present.
    pub fn switch(&self, name: &str) -> bool {
        assert!(self.flag(name).default.is_none(), "{name} takes a value");
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// The value of `name`, or its default.
    pub fn get<T: FromStr>(&self, name: &str) -> T {
        self.try_get(name)
            .unwrap_or_else(|e| usage_error(self.flags, &e))
    }

    /// The comma-separated values of `name`, or its default.
    pub fn list<T: FromStr>(&self, name: &str) -> Vec<T> {
        self.try_list(name)
            .unwrap_or_else(|e| usage_error(self.flags, &e))
    }

    fn try_get<T: FromStr>(&self, name: &str) -> Result<T, String> {
        self.parsed(name, |raw| raw.parse().ok())
    }

    fn try_list<T: FromStr>(&self, name: &str) -> Result<Vec<T>, String> {
        self.parsed(name, |raw| {
            raw.split(',').map(|v| v.trim().parse().ok()).collect()
        })
    }

    /// `parse` applied to the last value given for `name`, else to its
    /// default (the `--smoke` one under `--smoke`).
    fn parsed<V>(&self, name: &str, parse: impl Fn(&str) -> Option<V>) -> Result<V, String> {
        let flag = self.flag(name);
        let default = flag.default.expect("a switch has no value");
        let raw = match self.given.iter().rev().find(|(n, _)| *n == name) {
            Some((_, v)) => v.as_str(),
            None if self.given.iter().any(|(n, _)| *n == Flag::SMOKE.name) => {
                flag.smoke_default.unwrap_or(default)
            }
            None => default,
        };
        parse(raw).ok_or(format!("{name}: cannot parse `{raw}`"))
    }

    fn flag(&self, name: &str) -> &Flag {
        let flag = self.flags.iter().find(|f| f.name == name);
        flag.unwrap_or_else(|| panic!("{name} is not a declared flag"))
    }
}

/// Print `error` and the usage text (every declared flag with its default)
/// to stderr and exit with code 2.
fn usage_error(flags: &[Flag], error: &str) -> ! {
    eprintln!("error: {error}\n\n{}", usage(flags));
    std::process::exit(2);
}

fn usage(flags: &[Flag]) -> String {
    let program = std::env::args().next().unwrap_or_default();
    let mut out = format!("usage: {program} [flags]");
    for f in flags {
        let default = match (f.default, f.smoke_default) {
            (None, _) => String::new(),
            (Some(d), None) => format!(" [default: {d}]"),
            (Some(d), Some(s)) => format!(" [default: {d}; {}: {s}]", Flag::SMOKE.name),
        };
        out += &format!("\n  {:<13} {}{default}", f.name, f.help);
    }
    out
}

/// The `--smoke` epilogue of a report binary: print every failed gate and
/// exit with code 1, or say that all of them passed.
pub fn smoke_epilogue(tool: &str, failures: &[String]) {
    if failures.is_empty() {
        println!("{tool}: every smoke gate passed");
        return;
    }
    eprintln!("\n{tool}: smoke gates FAILED:");
    for f in failures {
        eprintln!("  - {f}");
    }
    std::process::exit(1);
}

pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Standard report header, with the host stamp: cores and the cache
/// calibration the packed kernels run with.
pub fn header(title: &str, paper_ref: &str) {
    let KernelCalibration {
        cache,
        real,
        complex,
    } = KernelCalibration::current();
    let blocking = |b: KernelBlocking| format!("{}/{}/{}", b.mc, b.kc, b.nc);
    println!("{}", "=".repeat(78));
    println!("{title}");
    println!("reproduces: {paper_ref}");
    println!(
        "host: nproc {}; caches ({}) L1 {} KiB, L2 {} KiB, L3 {} KiB; \
         mc/kc/nc f64 {}, c64 {}",
        nproc(),
        cache.source.name(),
        cache.l1d_bytes / 1024,
        cache.l2_bytes / 1024,
        cache.l3_bytes / 1024,
        blocking(real),
        blocking(complex)
    );
    println!("{}", "=".repeat(78));
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[Flag] = &[
        Flag::value("--n", "4000", "unknowns").smoke("1500"),
        Flag::value("--eps", "1e-4", "threshold"),
        Flag::value("--sizes", "128,256", "sizes"),
        Flag::SMOKE,
    ];

    fn args(argv: &[&str]) -> Result<Args, String> {
        Args::from_iter(FLAGS, argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn bad_command_lines_are_errors_naming_the_flag() {
        for (argv, flag) in [
            (vec!["--quick"], "--quick"),
            (vec!["--n", "abc"], "--n"),
            (vec!["--smoke", "--n"], "--n"),
            (vec!["--sizes", "64,x"], "--sizes"),
        ] {
            // At parse time, or when the binary reads its flags.
            let e = args(&argv)
                .and_then(|a| {
                    let n = a.try_get::<usize>("--n")?;
                    Ok((
                        n,
                        a.try_get::<f64>("--eps")?,
                        a.try_list::<usize>("--sizes")?,
                    ))
                })
                .expect_err("the command line is rejected");
            assert!(e.contains(flag), "{argv:?}: `{e}` does not name {flag}");
        }
    }

    #[test]
    fn absent_flags_take_their_defaults_and_smoke_its_own() {
        let a = args(&[]).unwrap();
        assert!(!a.switch("--smoke"));
        assert_eq!((a.get::<usize>("--n"), a.get::<f64>("--eps")), (4000, 1e-4));
        assert_eq!(a.list::<usize>("--sizes"), [128, 256]);
        let a = args(&["--smoke", "--eps", "1e-6", "--sizes", "64, 96"]).unwrap();
        assert!(a.switch("--smoke"));
        assert_eq!((a.get::<usize>("--n"), a.get::<f64>("--eps")), (1500, 1e-6));
        assert_eq!(a.list::<usize>("--sizes"), [64, 96]);
        let a = args(&["--n", "2000", "--smoke"]).unwrap();
        assert_eq!(a.get::<usize>("--n"), 2000);
        assert!(usage(FLAGS).contains("[default: 4000; --smoke: 1500]"));
    }

    #[test]
    #[should_panic(expected = "lacks its `--`")]
    fn a_flag_declared_without_dashes_panics() {
        const BAD: &[Flag] = &[Flag::value("n", "1", "unknowns")];
        let _ = Args::from_iter(BAD, Vec::new());
    }

    #[test]
    fn truncate_cuts_on_char_boundaries() {
        assert_eq!(truncate("short", 16), "short");
        assert_eq!(truncate("αβγδε", 3), "αβ…");
        assert_eq!(truncate("αβγ", 3), "αβγ");
    }
}
