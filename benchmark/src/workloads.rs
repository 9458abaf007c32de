//! The four workloads: what each one solves, how its seeded right-hand side
//! is manufactured, and the correctness gates every solve passes through.

use csolve::common::RealScalar;
use csolve::testkit::SplitMix64;
use csolve::{Algorithm, BlockSizes, CoupledProblem, DenseBackend, Outcome, Scalar, SolverConfig};

use crate::stats::Summary;

/// Low-rank tolerance of every workload, and the relative-error gate.
pub const EPS: f64 = 1e-4;
/// Right-hand sides per session panel.
pub const PANEL_WIDTH: usize = 8;
/// Manufactured basis pairs the session right-hand sides are combined from.
pub const N_BASIS: usize = 8;

const MIB: usize = 1 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Case {
    /// `pipe_problem::<f64>`: real symmetric.
    Pipe,
    /// `industrial_problem::<C64>`: complex non-symmetric, 33 % surface.
    Industrial,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Repeated `csolve::solve` calls at 1 and `P` threads.
    OneShot,
    /// Cold requests on fresh `SolverSession`s, then a warm RHS stream.
    Session,
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub case: Case,
    /// Target unknown count of the generator (full run / `--smoke`).
    pub n: (usize, usize),
    pub algo: Algorithm,
    pub backend: DenseBackend,
    /// Tracked-memory budget with autotuned blocking (full run / `--smoke`).
    pub budget: Option<(usize, usize)>,
    pub n_b: usize,
    pub kind: Kind,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "pipe_ms_hmat_budget",
        why: "compressed multi-solve near memory capacity: sparse-solve dominated, the only workload where autotuner and budget scheduler decide anything",
        case: Case::Pipe,
        n: (16_000, 2_000),
        algo: Algorithm::MultiSolve,
        backend: DenseBackend::Hmat,
        // ≈ 0.53 × the unbudgeted tracked peak at either size.
        budget: Some((56 * MIB, 4 * MIB)),
        n_b: 2,
        kind: Kind::OneShot,
    },
    Spec {
        name: "pipe_mf_spido",
        why: "multi-factorization on the dense backend: sparse factorization+Schur dominated, bypasses lowrank and hmat, best task-DAG scaling",
        case: Case::Pipe,
        n: (12_000, 2_000),
        algo: Algorithm::MultiFactorization,
        backend: DenseBackend::Spido,
        budget: None,
        n_b: 3,
        kind: Kind::OneShot,
    },
    Spec {
        name: "ind_ms_hmat_c64",
        why: "industrial regime: high BEM ratio, C64 split-complex kernels, unsymmetric sparse LU; H-LU and low-rank compression dominate",
        case: Case::Industrial,
        n: (6_500, 1_500),
        algo: Algorithm::MultiSolve,
        backend: DenseBackend::Hmat,
        budget: None,
        n_b: 2,
        kind: Kind::OneShot,
    },
    Spec {
        name: "session_rhs_stream",
        why: "cached factors applied to a stream of right-hand sides: triangular solves and fingerprinting, not factorization and compression",
        case: Case::Pipe,
        n: (16_000, 2_000),
        algo: Algorithm::MultiSolve,
        backend: DenseBackend::Hmat,
        budget: None,
        n_b: 2,
        kind: Kind::Session,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    pub fn size(&self, smoke: bool) -> usize {
        if smoke {
            self.n.1
        } else {
            self.n.0
        }
    }

    pub fn budget_bytes(&self, smoke: bool) -> Option<usize> {
        self.budget
            .map(|(full, small)| if smoke { small } else { full })
    }

    /// The solver configuration of this workload at `threads` workers.
    pub fn config(&self, threads: usize, smoke: bool) -> SolverConfig {
        let budget = self.budget_bytes(smoke);
        SolverConfig {
            eps: EPS,
            dense_backend: self.backend,
            n_b: self.n_b,
            mem_budget: budget,
            block_sizes: if budget.is_some() {
                BlockSizes::Auto
            } else {
                BlockSizes::Fixed
            },
            num_threads: threads,
            ..Default::default()
        }
    }

    pub fn generate<T: Scalar>(&self, smoke: bool) -> CoupledProblem<T> {
        match self.case {
            Case::Pipe => csolve::pipe_problem::<T>(self.size(smoke)),
            Case::Industrial => csolve::industrial_problem::<T>(self.size(smoke)),
        }
    }
}

/// `P = min(nproc, 4)` worker threads.
pub fn threads_p() -> usize {
    nproc().min(4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// --- Seeded right-hand sides ----------------------------------------------

/// `n` values uniform in [-1, 1) (both parts for complex scalars).
pub fn random_vec<T: Scalar>(rng: &mut SplitMix64, n: usize) -> Vec<T> {
    (0..n)
        .map(|_| {
            let re = T::Real::from_f64_real(rng.next_unit());
            let im = T::Real::from_f64_real(rng.next_unit());
            T::from_parts(re, im)
        })
        .collect()
}

/// `b = A·x` from the problem's public blocks.
pub fn apply<T: Scalar>(p: &CoupledProblem<T>, xv: &[T], xs: &[T]) -> (Vec<T>, Vec<T>) {
    let mut bv = vec![T::ZERO; p.n_fem()];
    p.a_vv.matvec(T::ONE, xv, T::ZERO, &mut bv);
    p.a_vs.matvec(T::ONE, xs, T::ONE, &mut bv);
    let mut bs = vec![T::ZERO; p.n_bem()];
    p.a_sv.matvec(T::ONE, xv, T::ZERO, &mut bs);
    p.bem.matvec_acc(T::ONE, xs, &mut bs);
    (bv, bs)
}

/// A manufactured solution with its right-hand side.
pub struct Pair<T> {
    pub xv: Vec<T>,
    pub xs: Vec<T>,
    pub bv: Vec<T>,
    pub bs: Vec<T>,
}

pub fn manufactured_pair<T: Scalar>(p: &CoupledProblem<T>, rng: &mut SplitMix64) -> Pair<T> {
    let xv = random_vec(rng, p.n_fem());
    let xs = random_vec(rng, p.n_bem());
    let (bv, bs) = apply(p, &xv, &xs);
    Pair { xv, xs, bv, bs }
}

/// Replace the generator's solution and right-hand side by the seeded ones.
pub fn install<T: Scalar>(p: &mut CoupledProblem<T>, pair: &Pair<T>) {
    p.x_exact_v = pair.xv.clone();
    p.x_exact_s = pair.xs.clone();
    p.b_v = pair.bv.clone();
    p.b_s = pair.bs.clone();
}

/// `Σ_k c_k · basis_k`: the combined right-hand side and its exact answer.
pub fn combine<T: Scalar>(basis: &[Pair<T>], coeffs: &[f64]) -> Pair<T> {
    let mix = |pick: fn(&Pair<T>) -> &Vec<T>| {
        let mut out = vec![T::ZERO; pick(&basis[0]).len()];
        for (pair, &c) in basis.iter().zip(coeffs) {
            let c = T::from_f64(c);
            for (o, &v) in out.iter_mut().zip(pick(pair)) {
                *o += c * v;
            }
        }
        out
    };
    Pair {
        xv: mix(|p| &p.xv),
        xs: mix(|p| &p.xs),
        bv: mix(|p| &p.bv),
        bs: mix(|p| &p.bs),
    }
}

/// Relative ℓ² error of `(xv, xs)` against the exact pair.
pub fn rel_error<T: Scalar>(xv: &[T], xs: &[T], want: &Pair<T>) -> f64 {
    let (mut num, mut den) = (0.0f64, 0.0f64);
    let got = xv.iter().chain(xs);
    for (g, w) in got.zip(want.xv.iter().chain(&want.xs)) {
        num += (*g - *w).abs2().to_f64();
        den += w.abs2().to_f64();
    }
    (num / den).sqrt()
}

// --- Correctness gates ------------------------------------------------------

/// Failure accounting: every solve attempted is one operation.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Gate {
    /// Count one operation; `verdict` is `Err(reason)` when it failed.
    pub fn record(&mut self, what: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = verdict {
            self.failed += 1;
            self.messages.push(format!("{what}: {reason}"));
        }
    }

    pub fn merge(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.messages.extend(other.messages);
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The solution every later solve of the same system must reproduce bitwise
/// (the repo's determinism contract across thread counts and entry points).
pub type Reference<T> = Option<(Vec<T>, Vec<T>)>;

/// Gate one computed solution: relative error against the seeded `x`, and
/// bitwise equality with the first solution seen (which it becomes if none).
pub fn judge_solution<T: Scalar>(
    xv: &[T],
    xs: &[T],
    want: &Pair<T>,
    reference: &mut Reference<T>,
) -> Result<(), String> {
    let err = rel_error(xv, xs, want);
    // NaN must fail too.
    if err.is_nan() || err > EPS {
        return Err(format!("relative error {err:.3e} exceeds {EPS:.0e}"));
    }
    match reference {
        Some((rv, rs)) => {
            if rv.as_slice() != xv || rs.as_slice() != xs {
                return Err("solution differs bitwise from the first solve".into());
            }
        }
        None => *reference = Some((xv.to_vec(), xs.to_vec())),
    }
    Ok(())
}

/// Gate one `csolve::solve` outcome (error, accuracy, determinism, budget).
pub fn judge_outcome<T: Scalar>(
    out: &csolve::Result<Outcome<T>>,
    want: &Pair<T>,
    reference: &mut Reference<T>,
    budget: Option<usize>,
) -> Result<(), String> {
    let out = out.as_ref().map_err(|e| format!("solver error: {e}"))?;
    judge_solution(&out.xv, &out.xs, want, reference)?;
    match budget {
        Some(b) if out.metrics.peak_bytes > b => Err(format!(
            "tracked peak {} B exceeds the {} B budget",
            out.metrics.peak_bytes, b
        )),
        _ => Ok(()),
    }
}

// --- Metrics ----------------------------------------------------------------

/// One named measurement with its unit and sample summary.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub summary: Summary,
}

/// Ordered metric list with lookup by name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// A sampled metric (median and quartiles); nothing when `values` is empty.
    pub fn samples(&mut self, name: &str, unit: &'static str, values: &[f64]) {
        self.0.extend(Summary::of(values).map(|summary| Metric {
            name: name.to_string(),
            unit,
            summary,
        }));
    }

    /// A single exact value.
    pub fn exact(&mut self, name: &str, unit: &'static str, value: f64) {
        self.0.push(Metric {
            name: name.to_string(),
            unit,
            summary: Summary::exact(value),
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        let m = self.0.iter().find(|m| m.name == name)?;
        Some(m.summary.median)
    }
}

pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / MIB as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_rhs_and_another_seed_does_not() {
        let p = csolve::pipe_problem::<f64>(400);
        let pair = |seed| manufactured_pair(&p, &mut SplitMix64::new(seed));
        let (a, b, c) = (pair(1), pair(1), pair(2));
        assert_eq!(a.bv, b.bv);
        assert_eq!(a.bs, b.bs);
        assert_eq!(a.xv, b.xv);
        assert_ne!(a.bv, c.bv);
        assert!(a.xv.iter().all(|x| (-1.0..1.0).contains(x)));
        // b really is A·x: the exact solution has zero error, a perturbed
        // one does not.
        let mut q = csolve::pipe_problem::<f64>(400);
        install(&mut q, &a);
        assert!(q.manufactured_residual() < 1e-12);
        assert_eq!(rel_error(&a.xv, &a.xs, &a), 0.0);
        assert!(rel_error(&c.xv, &c.xs, &a) > 0.1);
    }

    #[test]
    fn complex_draws_fill_both_parts() {
        let v: Vec<csolve::C64> = random_vec(&mut SplitMix64::new(3), 16);
        assert!(v.iter().all(|z| z.re != 0.0 && z.im != 0.0));
    }

    #[test]
    fn combination_of_basis_pairs_stays_consistent() {
        let p = csolve::pipe_problem::<f64>(400);
        let mut rng = SplitMix64::new(5);
        let basis: Vec<Pair<f64>> = (0..3).map(|_| manufactured_pair(&p, &mut rng)).collect();
        let mix = combine(&basis, &[0.5, -1.0, 0.25]);
        let (bv, bs) = apply(&p, &mix.xv, &mix.xs);
        let scale = mix.bv.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        assert!(bv
            .iter()
            .zip(&mix.bv)
            .all(|(a, b)| (a - b).abs() < 1e-12 * scale));
        assert!(bs
            .iter()
            .zip(&mix.bs)
            .all(|(a, b)| (a - b).abs() < 1e-9 * scale));
    }

    #[test]
    fn gates_count_and_classify() {
        let p = csolve::pipe_problem::<f64>(400);
        let want = manufactured_pair(&p, &mut SplitMix64::new(1));
        let mut reference = None;
        let mut gate = Gate::default();
        gate.record(
            "first",
            judge_solution(&want.xv, &want.xs, &want, &mut reference),
        );
        gate.record(
            "same",
            judge_solution(&want.xv, &want.xs, &want, &mut reference),
        );
        // Accurate but not bitwise equal.
        let mut nudged = want.xv.clone();
        nudged[0] += 1e-9;
        gate.record(
            "nudged",
            judge_solution(&nudged, &want.xs, &want, &mut reference),
        );
        // Inaccurate, and NaN.
        let zeros = vec![0.0; want.xv.len()];
        gate.record("zeros", judge_solution(&zeros, &want.xs, &want, &mut None));
        let nans = vec![f64::NAN; want.xv.len()];
        gate.record("nan", judge_solution(&nans, &want.xs, &want, &mut None));
        assert_eq!((gate.attempted, gate.failed), (5, 3));
        assert!(gate.messages[0].starts_with("nudged: solution differs bitwise"));
        assert!((gate.failed_frac() - 0.6).abs() < 1e-15);
        assert_eq!(Gate::default().failed_frac(), 0.0);
    }

    #[test]
    fn specs_are_consistent() {
        assert_eq!(WORKLOADS.len(), 4);
        for w in &WORKLOADS {
            assert!(find(w.name).is_some());
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
            let cfg = w.config(2, false);
            assert!(cfg.validate().is_ok());
            assert_eq!(
                cfg.mem_budget.is_some(),
                cfg.block_sizes == BlockSizes::Auto
            );
        }
        assert!(find("nope").is_none());
    }
}
