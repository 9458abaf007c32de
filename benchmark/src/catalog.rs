//! The benchmark's metric catalogue: every end-to-end metric with its unit,
//! direction and regression bound, and every per-layer metric with its unit.
//! `BENCHMARK.json` at the repository root lists the same names (a unit test
//! keeps the two in step).

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the old median by which the metric may worsen before
    /// `--compare` (and the driver) call it a regression.
    pub bound: f64,
    /// Whether every workload reports it, i.e. whether it is part of the
    /// fixed set printed for the driver (`BENCHMARK.json`'s `end_to_end`).
    pub every_workload: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
    every_workload: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
        every_workload,
    }
}

pub const END_TO_END: [EndToEnd; 11] = [
    e2e("setup_s", "s", false, 0.25, true),
    e2e("solve_s", "s", false, 0.25, true),
    e2e("cpu_s", "s", false, 0.25, true),
    e2e("peak_mib", "MiB", false, 0.01, true),
    e2e("peak_par_mib", "MiB", false, 0.10, true),
    e2e("rhs_per_s", "1/s", true, 0.25, true),
    e2e("panel_ms_p50", "ms", false, 0.25, false),
    e2e("factor_s", "s", false, 0.25, false),
    e2e("panel_ms_p90", "ms", false, 0.25, false),
    e2e("cache_mib", "MiB", false, 0.01, false),
    e2e("failed_frac", "ratio", false, 0.0, false),
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// `Metrics::phases` names and the slug each gets in `core.phase.<slug>_s`.
pub const PHASES: [(&str, &str); 11] = [
    ("sparse factorization", "sparse_factorization"),
    ("Schur init (A_ss)", "schur_init"),
    ("sparse solve (Y)", "sparse_solve_y"),
    ("SpMM", "spmm"),
    ("Schur assembly", "schur_assembly"),
    ("dense factorization", "dense_factorization"),
    ("assemble W", "assemble_w"),
    ("sparse factorization+Schur", "sparse_factorization_schur"),
    ("sparse solve (rhs)", "sparse_solve_rhs"),
    ("dense solve", "dense_solve"),
    ("sparse solve (back)", "sparse_solve_back"),
];

/// Per-layer metrics (name, unit) other than the two phase tables.
const LAYER_METRICS: [(&str, &str); 69] = [
    ("host.nproc", "count"),
    ("host.threads_p", "count"),
    ("host.llc_bytes", "B"),
    ("host.triad_array_mib", "MiB"),
    ("host.triad_gbs_1t", "GB/s"),
    ("host.triad_gbs_pt", "GB/s"),
    ("fembem.generate_s", "s"),
    ("fembem.rhs_build_s", "s"),
    ("fembem.bem_entries_per_s", "1/s"),
    ("sparse.analyze_s", "s"),
    ("sparse.factorize_s", "s"),
    ("sparse.factor_gflops", "GF/s"),
    ("sparse.factor_efficiency", "ratio"),
    ("sparse.factor_mib", "MiB"),
    ("sparse.factor_peak_mib", "MiB"),
    ("sparse.max_front", "count"),
    ("sparse.n_supernodes", "count"),
    ("sparse.submatrix_s", "s"),
    ("sparse.solve_sparse_rhs_s", "s"),
    ("sparse.solve_sparse_rhs_calls", "count"),
    ("sparse.solve_cols", "count"),
    ("sparse.solve_bw_frac", "ratio"),
    ("sparse.spmm_s", "s"),
    ("sparse.spmm_gflops", "GF/s"),
    ("sparse.assemble_w_s", "s"),
    ("sparse.factorize_schur_s", "s"),
    ("sparse.factorize_schur_calls", "count"),
    ("sparse.useful_factor_frac", "ratio"),
    ("sparse.panel_solve_s", "s"),
    ("sparse.blr_panels_eligible", "count"),
    ("sparse.blr_panels_compressed", "count"),
    ("dense.gemm_gflops_1t", "GF/s"),
    ("dense.gemm_gflops_pt", "GF/s"),
    ("dense.partial_factor_gflops", "GF/s"),
    ("dense.trsm_gflops", "GF/s"),
    ("dense.schur_factor_s", "s"),
    ("dense.schur_factor_gflops", "GF/s"),
    ("lowrank.compress_s", "s"),
    ("lowrank.compress_rank", "count"),
    ("lowrank.recompress_s", "s"),
    ("lowrank.aca_s", "s"),
    ("hmat.cluster_build_s", "s"),
    ("hmat.schur_init_s", "s"),
    ("hmat.axpy_s", "s"),
    ("hmat.axpy_calls", "count"),
    ("hmat.factor_s", "s"),
    ("hmat.solve_s", "s"),
    ("hmat.panel_solve_s", "s"),
    ("hmat.schur_mib", "MiB"),
    ("hmat.compression_ratio", "ratio"),
    ("hmat.max_rank", "count"),
    ("hmat.lowrank_leaves", "count"),
    ("core.replay_total_s", "s"),
    ("core.replay_bitwise", "count"),
    ("core.solve_1t_s", "s"),
    ("core.driver_overhead_s", "s"),
    ("core.par_efficiency", "ratio"),
    ("core.phase_inflation", "ratio"),
    ("core.first_solve_s", "s"),
    ("core.autotune.n_c", "count"),
    ("core.autotune.n_s", "count"),
    ("core.autotune.predicted_over_peak", "ratio"),
    ("core.session.submit_s", "s"),
    ("core.session.flush_s", "s"),
    ("core.session.batches", "count"),
    ("core.session.cache_hit_ratio", "ratio"),
    ("core.session.overhead_frac", "ratio"),
    ("common.mem_charge_ns", "ns"),
    ("common.mem_charge_ns_pt", "ns"),
];

/// Every per-layer metric name with its unit, in catalogue order: the layer
/// metrics, then `core.phase.*` (1 thread) and `core.phase_pt.*` (`P`).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_METRICS
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect();
    for table in ["phase", "phase_pt"] {
        for (_, slug) in PHASES {
            out.push((format!("core.{table}.{slug}_s"), "s"));
        }
    }
    out
}

/// Direction of a per-layer metric as `BENCHMARK.json` states it: rates,
/// efficiencies, hit ratios and the blocking the autotuner could afford are
/// better higher; times, bytes and call counts better lower.
#[cfg(test)]
fn layer_higher_is_better(name: &str) -> bool {
    const HIGHER: [&str; 15] = [
        "gflops",
        "gbs",
        "per_s",
        "efficiency",
        "useful_factor_frac",
        "bw_frac",
        "cache_hit_ratio",
        "host.nproc",
        "host.threads_p",
        "host.llc_bytes",
        "host.triad_array_mib",
        "replay_bitwise",
        "blr_panels_compressed",
        "lowrank_leaves",
        "autotune.n_",
    ];
    HIGHER.iter().any(|k| name.contains(k))
}

/// Unit of a catalogued per-layer metric.
pub fn layer_unit(name: &str) -> Option<&'static str> {
    if name.starts_with("core.phase.") || name.starts_with("core.phase_pt.") {
        return Some("s");
    }
    LAYER_METRICS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csolve::json::{parse_json, JsonValue};

    fn names(list: &JsonValue) -> Vec<String> {
        list.as_array()
            .unwrap()
            .iter()
            .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();

        let workloads = names(doc.get("workloads").unwrap());
        let ours: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);

        let e2e = doc.get("end_to_end").unwrap();
        let driver_set: Vec<&EndToEnd> = END_TO_END.iter().filter(|m| m.every_workload).collect();
        assert_eq!(
            names(e2e),
            driver_set.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (listed, ours) in e2e.as_array().unwrap().iter().zip(&driver_set) {
            assert_eq!(listed.get("unit").unwrap().as_str(), Some(ours.unit));
            let better = if ours.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(listed.get("better").unwrap().as_str(), Some(better));
            assert_eq!(listed.get("bound").unwrap().as_f64(), Some(ours.bound));
            assert!(ours.bound <= 0.25);
        }

        let layer = doc.get("per_layer").unwrap();
        let ours = per_layer();
        assert_eq!(
            names(layer),
            ours.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>()
        );
        for (listed, (name, unit)) in layer.as_array().unwrap().iter().zip(&ours) {
            assert_eq!(listed.get("unit").unwrap().as_str(), Some(*unit));
            let better = if layer_higher_is_better(name) {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(
                listed.get("better").unwrap().as_str(),
                Some(better),
                "{name}"
            );
        }
        assert!(ours.len() <= 128);
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut all: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        all.extend(END_TO_END.iter().map(|m| m.name.to_string()));
        for n in &all {
            assert!(n.len() <= 64, "{n}");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(layer_unit(n).is_some() || end_to_end(n).is_some());
        }
        let count = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), count);
    }
}
