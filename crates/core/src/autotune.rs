//! Memory-governed block autotuner: the capacity model behind the paper's
//! headline claim.
//!
//! The paper's Fig. 10/12/13 experiments all ask the same question — what is
//! the largest coupled system a machine can solve? — and answer it by hand:
//! pick `n_c`/`n_S` (multi-solve) or `n_b` (multi-factorization) small enough
//! that the blockwise working set fits next to the sparse factors and the
//! (compressed) Schur complement. This module automates that choice. Given
//! the matrix statistics (`MatrixStats`) and the byte budget enforced by
//! [`csolve_common::MemTracker`], it predicts the peak working set of the
//! candidate blockings on a ladder — the configured `n_S` and its repeated
//! halvings (multi-solve), the configured `n_b` and its repeated doublings
//! (multi-factorization) — and selects the **first candidate on that ladder
//! that fits** (largest panels / fewest tiles among the candidates: less
//! superfluous refactorization work, fewer sparse-solve calls). That is not
//! the largest blocking that fits: a panel width between two rungs is never
//! tried, so a budget that fits 136 columns but not 143 runs
//! 71.
//!
//! # Cost model
//!
//! Each price is what the blockwise pipeline reserves for one block. A
//! panel's charges are the bytes below when all its chunks run at once: `Z`
//! and one lane workspace at admission, the other workspaces as it can use
//! them. A tile's are its admission reserve *plus*, before its numeric phase
//! may start, the bound of its own symbolic analysis, set aside as a tracker
//! scoped to the tile (`pipeline.rs`). The driver caps the blocks in flight
//! at the uncommitted budget ÷ the price the planner returns beside its
//! decision:
//!
//! * **multi-solve** panel of width `w = n_S`
//!   (see `multi_solve_panel_bytes`):
//!   `(n_s·w + n_v·lanes(min(w, 32·⌈min(n_c, w)/32⌉))) · sizeof(T)` — the
//!   `Z` panel plus the lane workspaces of the panel's one sparse solve, each
//!   32-column chunk solved and multiplied by `A_sv` inside its own `n_v`-row
//!   workspace (`lanes` pads a chunk as [`LaneShape`] does). No `n_v`-row
//!   `Y` exists. `n_c` caps the workspaces that run at once at
//!   `⌈min(n_c, w)/32⌉`, each holding one chunk of the panel. The panel's
//!   admission reserve is `Z` plus *one* workspace, thread-invariant; each
//!   further concurrent workspace is charged by the panel before it runs
//!   and, when refused, narrows it to the workspaces it holds. The price is
//!   the full-concurrency working set, so the choice does not depend on the
//!   thread count either;
//! * **multi-factorization** grid `n_b` (see `plan_multi_factorization`):
//!   the costliest of the tiles the pipeline would run at `n_b`, each priced
//!   as the pipeline reserves it — the stacked `W` and the dense Schur
//!   output `X_ij` at admission, then the exact peak of the tile's
//!   Schur-only factorization
//!   ([`csolve_sparse::SymbolicFactorization::predicted_schur_peak_bytes`]:
//!   fronts, contribution blocks and Schur output; a tile discards the
//!   factors of its `W`). The driver builds each tile and its `W` with the
//!   code the pipeline runs them with, and analyses every tile of a
//!   candidate grid, so price and reservation are one number, with
//!   sparse-front BLR compression on or off (nothing a tile charges is
//!   compressed, and LDLᵀ and LU charge the same).
//!
//! The predicted run peak is `max(peak so far, live + working set)`: by the
//! time the autotuner runs (right after the Schur accumulator is
//! initialized), `live` already covers the sparse factors and `S`, and the
//! scheduler degrades concurrency to one block under pressure — so a
//! blocking is *feasible* exactly when a single block's working set fits in
//! the remaining headroom. With the compressed backend (HMAT), the
//! accumulator's growth allowance between recompression flushes (a quarter
//! of that headroom, `hmat_growth_allowance` in `schur.rs`) is not part of
//! it: the accumulator sets those bytes aside for itself.
//!
//! # Determinism
//!
//! Selection runs at a sequential point of the driver and depends only on
//! thread-count-invariant inputs (matrix shape, budget, and `live` after
//! deterministic phases) — never on mid-pipeline tracker samples. The chosen
//! blocking is therefore identical for every thread count, preserving the
//! bitwise determinism contract of the pipelines.

use csolve_common::{Error, MemTracker, Result};
use csolve_dense::lane::{LaneShape, MAX_LANES};

use crate::config::{DenseBackend, SolverConfig};

/// How the blockwise algorithms choose their block sizes.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockSizes {
    /// Use the configured `n_c`/`n_s`/`n_b` verbatim (the pre-autotuner
    /// behaviour; every experiment binary's explicit flags mean this).
    #[default]
    Fixed,
    /// Derive the largest blocking whose working set fits the memory budget
    /// from the cost model; falls back to the configured sizes when the run
    /// is unbounded. Selection is recorded as an `autotune_select` trace
    /// event and in [`crate::Metrics::autotune`].
    Auto,
}

/// Shape and sparsity statistics of one coupled problem — everything the
/// cost model needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MatrixStats {
    /// Volume (FEM) unknowns `n_v`.
    pub nv: usize,
    /// Surface (BEM) unknowns `n_s`.
    pub ns: usize,
    /// Bytes per scalar (`size_of::<T>()`).
    pub elem: usize,
}

/// The autotuner's verdict: the blocking a run used and what the model
/// predicted for it. Stored in [`crate::Metrics::autotune`] and emitted as
/// an `autotune_select` trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutotuneDecision {
    /// Selected cap on the columns a panel's sparse solve runs at once, in
    /// 32-column lane workspaces (multi-solve; 0 when unused).
    pub n_c: usize,
    /// Selected Schur panel width (multi-solve; 0 when unused).
    pub n_s: usize,
    /// Selected factorization grid dimension (multi-factorization; 0 when
    /// unused).
    pub n_b: usize,
    /// Predicted peak tracked bytes for the selected blocking
    /// (`max(peak so far, live + single-block working set)`).
    pub predicted_peak: usize,
    /// The budget the selection ran against (`usize::MAX` when unbounded).
    pub budget: usize,
    /// `true` when the budget forced a smaller blocking than configured
    /// (also emitted as a `budget_degrade` trace event).
    pub degraded: bool,
}

/// Row width, in scalars, of the lane workspaces that hold `k ≥ 1`
/// right-hand sides in 32-column chunks: each chunk padded as its
/// [`LaneShape`] pads it (a whole chunk is 32; a narrow one is rounded up to
/// a line, or below a line to a power of two).
fn lanes(k: usize) -> usize {
    let rest = match k % MAX_LANES {
        0 => 0,
        r => LaneShape::new::<f64>(r).row_len(),
    };
    k / MAX_LANES * MAX_LANES + rest
}

/// Bytes of the lane workspaces of `k ≥ 1` right-hand sides of one sparse
/// solve: `n_v` rows of [`lanes`]`(k)` scalars.
pub(crate) fn lane_workspace_bytes(stats: &MatrixStats, k: usize) -> usize {
    stats.nv * lanes(k) * stats.elem
}

/// Columns whose lane workspaces a `w`-wide multi-solve panel holds when
/// all its chunks that may run at once do: its first `⌈min(n_c, w)/32⌉`
/// 32-column chunks. `n_c` caps the panel's concurrent workspaces and
/// nothing else; it cuts no column range, so it moves no bit.
pub(crate) fn multi_solve_workspace_cols(n_c: usize, w: usize) -> usize {
    w.min(n_c.min(w).next_multiple_of(MAX_LANES))
}

/// Working-set bytes of one multi-solve Schur panel at blocking
/// `(n_c, n_s)` with every chunk that may run at once running: the
/// `ns × n_s` panel of `Z` plus those chunks' lane workspaces,
/// `(n_s·w + n_v·lanes(min(w, 32·⌈min(n_c, w)/32⌉)))·sizeof(T)`. Each
/// 32-column chunk is solved and multiplied by `A_sv` inside its own
/// workspace, so no `n_v`-row `Y` is ever held. The planner and the
/// pipeline's in-flight cap price a panel with this; its admission reserve
/// (`multi_solve_panel_reserve`) holds one workspace, and a panel charges
/// the others only as it can use them. Neither depends on the thread count,
/// so neither does `Auto`'s choice, nor the bits.
pub(crate) fn multi_solve_panel_bytes(stats: &MatrixStats, n_c: usize, n_s: usize) -> usize {
    let w = n_s.min(stats.ns.max(1));
    stats.ns * w * stats.elem + lane_workspace_bytes(stats, multi_solve_workspace_cols(n_c, w))
}

/// Admission reserve of a multi-solve Schur panel `w` columns wide: its `Z`
/// panel plus the lane workspace of its first chunk,
/// `(n_s·w + n_v·lanes(min(w, 32)))·sizeof(T)`.
pub(crate) fn multi_solve_panel_reserve(stats: &MatrixStats, w: usize) -> usize {
    stats.ns * w * stats.elem + lane_workspace_bytes(stats, w.min(MAX_LANES))
}

/// The fixed (non-autotuned) multi-solve blocking for a configuration: the
/// SPIDO backend subtracts every `n_c` panel directly (`n_s = n_c`), the
/// HMAT backend buffers `n_s ≥ n_c` columns per compressed AXPY.
pub fn fixed_multi_solve_blocking(cfg: &SolverConfig) -> (usize, usize) {
    let n_c = cfg.n_c.max(1);
    match cfg.dense_backend {
        DenseBackend::Spido => (n_c, n_c),
        DenseBackend::Hmat => (n_c, cfg.n_s.max(n_c)),
    }
}

fn predicted_peak(tracker: &MemTracker, block_bytes: usize) -> usize {
    tracker
        .peak()
        .max(tracker.live().saturating_add(block_bytes))
}

/// Select the first multi-solve blocking `(n_c, n_s)` on the ladder of the
/// configured panel width and its repeated halvings that fits the remaining
/// budget — not the widest panel that fits, which may lie between two
/// rungs. Returns [`Error::OutOfMemory`] when even a single-column
/// panel does not fit (the infeasible-budget case of the conformance grid).
///
/// Returned beside the decision: the bytes of one panel it was priced at,
/// which the pipeline's in-flight cap must divide the headroom by.
pub(crate) fn plan_multi_solve(
    stats: &MatrixStats,
    cfg: &SolverConfig,
    tracker: &MemTracker,
) -> Result<(AutotuneDecision, usize)> {
    let (n_c0, n_s0) = fixed_multi_solve_blocking(cfg);
    // A panel wider than the surface never materializes; clamping before
    // the ladder keeps that from counting as a budget degrade.
    let n_s0 = n_s0.min(stats.ns.max(1));
    // What block working sets may claim: the budget minus live bytes and
    // the compressed accumulator's growth allowance, which it sets aside.
    let room = tracker.available();
    // Candidate ladder: configured blocking first, then repeated halving of
    // the Schur panel (the workspace cap follows once it is the wider of
    // the two).
    let mut w = n_s0;
    loop {
        let n_c = n_c0.min(w);
        let need = multi_solve_panel_bytes(stats, n_c, w);
        if need <= room {
            let decision = AutotuneDecision {
                n_c,
                n_s: w,
                n_b: 0,
                predicted_peak: predicted_peak(tracker, need),
                budget: tracker.budget(),
                degraded: w < n_s0,
            };
            return Ok((decision, need));
        }
        if w == 1 {
            return Err(Error::OutOfMemory {
                requested: need,
                live: tracker.live(),
                budget: tracker.budget(),
                what: "autotuned multi-solve panel (even a 1-column panel exceeds the budget)",
            });
        }
        w /= 2;
    }
}

/// Select the first multi-factorization grid `n_b` on the ladder of the
/// configured `n_b` and its repeated doublings whose every tile fits the
/// remaining budget (largest tiles among the candidates, not necessarily
/// the smallest grid that fits). Returns [`Error::OutOfMemory`] when even single-row
/// tiles (`n_b = n_s`) do not fit.
///
/// `price(n_b, room)` is what the pipeline would reserve for the grid's
/// costliest tile, or for its first tile found over `room`: the driver
/// builds the tiles it would run at `n_b` and adds each one's admission
/// reserve to the finalize bound of its own symbolic analysis
/// ([`csolve_sparse::SymbolicFactorization::predicted_schur_peak_bytes`]);
/// tests may pass a closed-form model.
///
/// Returned beside the decision: the whole-tile bytes it was priced at,
/// for the pipeline's in-flight cap.
pub(crate) fn plan_multi_factorization(
    ns: usize,
    cfg: &SolverConfig,
    tracker: &MemTracker,
    price: impl Fn(usize, usize) -> Result<usize>,
) -> Result<(AutotuneDecision, usize)> {
    let cap = ns.max(1);
    let n_b0 = cfg.n_b.clamp(1, cap);
    let room = tracker.available();
    let mut n_b = n_b0;
    loop {
        let need = price(n_b, room)?;
        if need <= room {
            let decision = AutotuneDecision {
                n_c: 0,
                n_s: 0,
                n_b,
                predicted_peak: predicted_peak(tracker, need),
                budget: tracker.budget(),
                degraded: n_b > n_b0,
            };
            return Ok((decision, need));
        }
        if n_b >= cap {
            return Err(Error::OutOfMemory {
                requested: need,
                live: tracker.live(),
                budget: tracker.budget(),
                what: "autotuned multi-factorization tile (even 1-row tiles exceed the budget)",
            });
        }
        n_b = (n_b * 2).min(cap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> MatrixStats {
        MatrixStats {
            nv: 4000,
            ns: 1000,
            elem: 8,
        }
    }

    /// A closed-form tile price: the dense `m × m` Schur output of an
    /// `⌈n_s/n_b⌉`-row tile plus a fixed 400 kB.
    fn tile(n_b: usize) -> usize {
        let m = 1000usize.div_ceil(n_b);
        m * m * 8 + 400_000
    }

    fn price(n_b: usize, _room: usize) -> Result<usize> {
        Ok(tile(n_b))
    }

    fn cfg() -> SolverConfig {
        SolverConfig {
            dense_backend: DenseBackend::Hmat,
            n_c: 256,
            n_s: 1024,
            n_b: 2,
            ..Default::default()
        }
    }

    #[test]
    fn panel_model_matches_driver_reserve() {
        // The price is Z plus the lane workspaces of the chunks that may run
        // at once, (ns*w + nv*lanes(min(w, 32*ceil(min(n_c, w)/32)))) * elem;
        // the admission reserve is Z plus one, (ns*w + nv*lanes(min(w, 32)))
        // * elem.
        let s = stats();
        assert_eq!(
            multi_solve_panel_bytes(&s, 256, 1000),
            (1000 * 1000 + 4000 * 256) * 8
        );
        assert_eq!(
            multi_solve_panel_reserve(&s, 1000),
            (1000 * 1000 + 4000 * 32) * 8
        );
        // A cap of 40 columns admits two workspaces, each holding a whole
        // 32-column chunk of a wider panel.
        assert_eq!(
            multi_solve_panel_bytes(&s, 40, 1000),
            (1000 * 1000 + 4000 * 64) * 8
        );
        // A panel's last chunk is padded as its lane workspace is:
        // 40 = 32 + 8 columns, 35 = 32 + 3 → 32 + 4, 17 → 24.
        assert_eq!(
            multi_solve_panel_bytes(&s, 256, 40),
            (1000 * 40 + 4000 * 40) * 8
        );
        assert_eq!(
            multi_solve_panel_bytes(&s, 256, 35),
            (1000 * 35 + 4000 * (32 + 4)) * 8
        );
        assert_eq!(
            multi_solve_panel_reserve(&s, 17),
            (1000 * 17 + 4000 * 24) * 8
        );
        // One workspace: the reserve is the whole working set.
        assert_eq!(
            multi_solve_panel_reserve(&s, 48),
            multi_solve_panel_bytes(&s, 24, 48)
        );
        // A panel wider than ns is clamped to ns.
        assert_eq!(
            multi_solve_panel_bytes(&s, 256, 4096),
            multi_solve_panel_bytes(&s, 256, 1000)
        );
    }

    #[test]
    fn unbounded_keeps_configured_blocking() {
        let t = MemTracker::unbounded();
        let (d, _) = plan_multi_solve(&stats(), &cfg(), &t).unwrap();
        assert_eq!((d.n_c, d.n_s), (256, 1000));
        assert!(!d.degraded);
        assert_eq!(d.budget, usize::MAX);
        let (d, _) = plan_multi_factorization(1000, &cfg(), &t, price).unwrap();
        assert_eq!(d.n_b, 2);
        assert!(!d.degraded);
    }

    #[test]
    fn tight_budget_degrades_blocking() {
        let s = stats();
        let full = multi_solve_panel_bytes(&s, 256, 1000);
        let t = MemTracker::with_budget(full / 3);
        let (d, _) = plan_multi_solve(&s, &cfg(), &t).unwrap();
        assert!(d.degraded, "blocking should shrink under a tight budget");
        assert!(d.n_s < 1000);
        assert!(multi_solve_panel_bytes(&s, d.n_c, d.n_s) <= full / 3);
        assert!(d.predicted_peak <= full / 3);

        let t = MemTracker::with_budget(tile(2) - 1);
        let (d, need) = plan_multi_factorization(s.ns, &cfg(), &t, price).unwrap();
        assert!(d.degraded);
        assert!(d.n_b > 2);
        assert_eq!(need, tile(d.n_b));
        assert!(need < tile(2));
    }

    #[test]
    fn selection_accounts_for_live_bytes() {
        // Headroom is budget − live: with most of the budget already spent
        // the same configuration must degrade further.
        let s = stats();
        let full = multi_solve_panel_bytes(&s, 256, 1000);
        let t = MemTracker::with_budget(full);
        let (free, _) = plan_multi_solve(&s, &cfg(), &t).unwrap();
        let _held = t.charge(full / 2, "sparse factors").unwrap();
        let (pressured, _) = plan_multi_solve(&s, &cfg(), &t).unwrap();
        assert!(pressured.n_s < free.n_s.max(2));
        assert!(multi_solve_panel_bytes(&s, pressured.n_c, pressured.n_s) <= full - full / 2);
    }

    #[test]
    fn infeasible_budget_is_structured_oom() {
        let s = stats();
        // Even a 1-column panel needs (ns + nv)*elem bytes.
        let t = MemTracker::with_budget(16);
        let e = plan_multi_solve(&s, &cfg(), &t).unwrap_err();
        assert!(e.is_oom(), "expected OutOfMemory, got {e}");
        let e = plan_multi_factorization(s.ns, &cfg(), &t, price).unwrap_err();
        assert!(e.is_oom(), "expected OutOfMemory, got {e}");
    }

    #[test]
    fn hmat_reserves_accumulator_growth_allowance() {
        // The compressed accumulator sets a quarter of the headroom aside
        // for its growth between flushes: the planner must leave it there,
        // and degrades where it still fit with nothing set aside.
        let t = MemTracker::with_budget(tile(2));
        let (free, _) = plan_multi_factorization(1000, &cfg(), &t, price).unwrap();
        assert_eq!(free.n_b, 2);
        assert!(!free.degraded);
        let allowance = crate::schur::hmat_growth_allowance(t.available());
        let _growth = MemTracker::scoped(&t, allowance, "accumulator growth").unwrap();
        let (compressed, _) = plan_multi_factorization(1000, &cfg(), &t, price).unwrap();
        assert!(compressed.degraded);
        assert!(tile(compressed.n_b) <= tile(2) - tile(2) / 4);
    }

    #[test]
    fn spido_ladder_keeps_nc_equal_ns() {
        let s = stats();
        let c = SolverConfig {
            dense_backend: DenseBackend::Spido,
            ..cfg()
        };
        let full = multi_solve_panel_bytes(&s, 256, 256);
        let t = MemTracker::with_budget(full / 2);
        let (d, _) = plan_multi_solve(&s, &c, &t).unwrap();
        assert_eq!(d.n_c, d.n_s, "SPIDO subtracts every n_c panel directly");
        assert!(d.degraded);
    }
}
