//! Symbolic analysis: ordering, supernode detection and per-supernode row
//! structures for the multifrontal factorization.
//!
//! The analysis handles the *partial* case natively: a designated tail of
//! `n_schur` variables is never eliminated (the Schur variables of the
//! paper's factorization+Schur building block). Supernodes cover only the
//! leading `n_elim` columns; frontal row sets may reach into the Schur index
//! range, and contribution blocks whose rows are all Schur indices flow into
//! the dense Schur output.

use csolve_common::{Error, Result, Scalar};

use crate::etree::{column_counts, elimination_tree, postorder, NO_PARENT};
use crate::formats::Csc;
use crate::ordering::{compute_ordering, OrderingKind};

/// One supernode: a contiguous block of postordered columns sharing (up to
/// relaxation) a row structure.
#[derive(Debug, Clone)]
pub struct SupernodeInfo {
    /// Start of the column range `c0..c1` (final permuted index space).
    pub c0: usize,
    /// End (exclusive) of the column range.
    pub c1: usize,
    /// Full sorted row set of the front; the first `c1 − c0` entries are
    /// exactly `c0..c1`.
    pub rows: Vec<usize>,
    /// Parent supernode index, or `usize::MAX` when the contribution flows
    /// directly to the Schur block / nowhere.
    pub parent: usize,
}

impl SupernodeInfo {
    /// Number of columns (pivot block order).
    pub fn width(&self) -> usize {
        self.c1 - self.c0
    }

    /// Order of the frontal matrix.
    pub fn front_size(&self) -> usize {
        self.rows.len()
    }

    /// Order of the contribution block passed to the parent.
    pub fn cb_size(&self) -> usize {
        self.rows.len() - self.width()
    }
}

/// Result of the symbolic analysis.
#[derive(Debug, Clone)]
pub struct SymbolicFactorization {
    /// Total matrix order (eliminated + Schur).
    pub n: usize,
    /// Number of eliminated variables.
    pub n_elim: usize,
    /// Number of Schur (non-eliminated) variables.
    pub n_schur: usize,
    /// Final permutation: `perm[new] = old` over all `n` indices (Schur
    /// variables keep their relative order at the tail).
    pub perm: Vec<usize>,
    /// Inverse permutation: `iperm[old] = new`.
    pub iperm: Vec<usize>,
    /// Supernodes in postorder (children before parents).
    pub supernodes: Vec<SupernodeInfo>,
    /// Supernode index of each eliminated (new-index) column.
    pub sn_of_col: Vec<usize>,
    /// Predicted factor nonzeros (panel entries, both L and U for the
    /// unsymmetric case count once here).
    pub factor_entries: usize,
}

/// Cap on supernode width.
const MAX_SN_WIDTH: usize = 128;

/// Relaxed amalgamation: merge a child supernode into its parent when the
/// merged width stays below this and the padding stays modest.
const AMALG_WIDTH: usize = 32;
const AMALG_FILL_FRAC: f64 = 0.25;

impl SymbolicFactorization {
    /// Analyze `a` (square, structurally symmetric pattern assumed — pass
    /// the symmetrized pattern for unsymmetric matrices). `schur_vars` lists
    /// the original indices never to eliminate.
    pub fn analyze<T: Scalar>(
        a: &Csc<T>,
        schur_vars: &[usize],
        ordering: OrderingKind,
    ) -> Result<Self> {
        if a.nrows != a.ncols {
            return Err(Error::DimensionMismatch {
                context: "symbolic analysis",
                expected: (a.nrows, a.nrows),
                got: (a.nrows, a.ncols),
            });
        }
        let n = a.nrows;
        let ns = schur_vars.len();
        let ne = n - ns;
        let mut is_schur = vec![false; n];
        for &s in schur_vars {
            if s >= n || is_schur[s] {
                return Err(Error::InvalidConfig(format!(
                    "invalid or duplicate Schur variable {s}"
                )));
            }
            is_schur[s] = true;
        }

        // Adjacency of the symmetrized pattern.
        let full_adj = a.symmetrized_pattern();

        // Order the eliminated variables only: build the induced subgraph.
        let elim_old: Vec<usize> = (0..n).filter(|&v| !is_schur[v]).collect();
        let mut old_to_sub = vec![usize::MAX; n];
        for (sub, &old) in elim_old.iter().enumerate() {
            old_to_sub[old] = sub;
        }
        let sub_adj: Vec<Vec<usize>> = elim_old
            .iter()
            .map(|&old| {
                full_adj[old]
                    .iter()
                    .filter_map(|&w| {
                        let s = old_to_sub[w];
                        (s != usize::MAX).then_some(s)
                    })
                    .collect()
            })
            .collect();
        let sub_perm = compute_ordering(&sub_adj, ordering); // perm[new_sub] = old_sub

        // First-stage permutation: ordered eliminated vars, then Schur vars.
        let mut perm1: Vec<usize> = sub_perm.iter().map(|&s| elim_old[s]).collect();
        perm1.extend(schur_vars.iter().copied());

        // Pattern in perm1 space, restricted to the leading block for the
        // elimination tree.
        let mut inv1 = vec![0usize; n];
        for (new, &old) in perm1.iter().enumerate() {
            inv1[old] = new;
        }
        let adj1: Vec<Vec<usize>> = (0..ne)
            .map(|new| {
                let old = perm1[new];
                let mut l: Vec<usize> = full_adj[old]
                    .iter()
                    .map(|&w| inv1[w])
                    .filter(|&w| w < ne)
                    .collect();
                l.sort_unstable();
                l
            })
            .collect();

        let parent = elimination_tree(&adj1);
        let post = postorder(&parent);
        let counts = column_counts(&adj1, &parent, &post);

        // Compose postorder into the final permutation of eliminated vars.
        let mut perm: Vec<usize> = post.iter().map(|&p| perm1[p]).collect();
        perm.extend(schur_vars.iter().copied());
        let mut iperm = vec![0usize; n];
        for (new, &old) in perm.iter().enumerate() {
            iperm[old] = new;
        }

        // Re-map tree/counts into postorder positions.
        let mut pos_of = vec![0usize; ne];
        for (k, &j) in post.iter().enumerate() {
            pos_of[j] = k;
        }
        let parent_p: Vec<usize> = post
            .iter()
            .map(|&j| {
                if parent[j] == NO_PARENT {
                    NO_PARENT
                } else {
                    pos_of[parent[j]]
                }
            })
            .collect();
        let counts_p: Vec<usize> = post.iter().map(|&j| counts[j]).collect();

        // Final adjacency (full n, in final permuted space) for row-structure
        // computation — only entries with row ≥ col within columns < ne are
        // needed, plus Schur rows.
        let adj_final: Vec<Vec<usize>> = (0..ne)
            .map(|new| {
                let old = perm[new];
                let mut l: Vec<usize> = full_adj[old]
                    .iter()
                    .map(|&w| iperm[w])
                    .filter(|&w| w > new)
                    .collect();
                l.sort_unstable();
                l
            })
            .collect();

        // Fundamental supernodes on the postordered tree.
        let mut nchildren = vec![0usize; ne];
        for j in 0..ne {
            if parent_p[j] != NO_PARENT {
                nchildren[parent_p[j]] += 1;
            }
        }
        let mut sn_start = Vec::new();
        for j in 0..ne {
            let fundamental = j > 0
                && parent_p[j - 1] == j
                && counts_p[j - 1] == counts_p[j] + 1
                && nchildren[j] == 1
                && (j - sn_start.last().copied().unwrap_or(0)) < MAX_SN_WIDTH;
            if j == 0 || !fundamental {
                sn_start.push(j);
            }
        }
        sn_start.push(ne);

        // Build supernode row sets bottom-up (supernodes are postordered).
        let nsn = sn_start.len() - 1;
        let mut sn_of_col = vec![0usize; ne];
        for s in 0..nsn {
            for c in sn_start[s]..sn_start[s + 1] {
                sn_of_col[c] = s;
            }
        }
        let mut supernodes: Vec<SupernodeInfo> = Vec::with_capacity(nsn);
        // children[s] filled as soon as a child's parent is known; children
        // always precede parents in the (postordered) supernode sequence.
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); nsn];
        for s in 0..nsn {
            let c0 = sn_start[s];
            let c1 = sn_start[s + 1];
            let mut set: std::collections::BTreeSet<usize> = (c0..c1).collect();
            for j in c0..c1 {
                for &i in &adj_final[j] {
                    if i >= c0 {
                        set.insert(i);
                    }
                }
            }
            // Children contribution rows.
            for &ci in &children[s] {
                let child = &supernodes[ci];
                for &r in &child.rows[child.width()..] {
                    debug_assert!(r >= c0);
                    set.insert(r);
                }
            }
            let rows: Vec<usize> = set.into_iter().collect();
            // Parent supernode: smallest CB row < ne.
            let parent_sn = rows
                .iter()
                .skip(c1 - c0)
                .find(|&&r| r < ne)
                .map(|&r| sn_of_col[r])
                .unwrap_or(usize::MAX);
            if parent_sn != usize::MAX {
                children[parent_sn].push(s);
            }
            supernodes.push(SupernodeInfo {
                c0,
                c1,
                rows,
                parent: parent_sn,
            });
        }

        // Relaxed amalgamation: bottom-up merge of narrow chains.
        amalgamate(&mut supernodes, &mut sn_of_col, ne);

        let factor_entries = supernodes.iter().map(|s| s.width() * s.front_size()).sum();

        Ok(Self {
            n,
            n_elim: ne,
            n_schur: ns,
            perm,
            iperm,
            supernodes,
            sn_of_col,
            factor_entries,
        })
    }

    /// Peak working-set estimate in *front entries* (largest single front).
    pub fn max_front_size(&self) -> usize {
        self.supernodes
            .iter()
            .map(|s| s.front_size())
            .max()
            .unwrap_or(0)
    }

    /// Deterministic upper bound on the bytes one numeric
    /// factorization+Schur call charges against the memory tracker, obtained
    /// by replaying the postordered supernode sequence with the exact charge
    /// schedule of `factorize_schur` (dense Schur output, frontal matrices,
    /// contribution blocks held for their parents, growing factor panels).
    ///
    /// `elem` is `size_of::<T>()`; `unsymmetric` adds the U row panels of
    /// the LU mode. The bound is exact for uncompressed factors; BLR
    /// compression only shrinks the factor panels, so the real peak never
    /// exceeds it. Used by the block autotuner to price a
    /// multi-factorization tile before any numeric work runs.
    pub fn predicted_numeric_peak_bytes(&self, elem: usize, unsymmetric: bool) -> usize {
        self.replay_peak_bytes(elem, unsymmetric, |rows, cols| rows * cols * elem)
    }

    /// The compressed-front variant of
    /// [`SymbolicFactorization::predicted_numeric_peak_bytes`]: same exact
    /// charge replay, but factor panels that meet the BLR size gate
    /// ([`crate::BLR_MIN_ROWS`] × [`crate::BLR_MIN_COLS`] — shared constants,
    /// so predictor and numeric phase cannot drift) are priced by a
    /// predicted rank profile `r̂ = 4·⌈√min(rows, cols)⌉` with the dense
    /// size as a hard cap: `min(rows·cols, r̂·(rows + cols))·elem`.
    ///
    /// The √-law matches the weak-admissibility rank growth BLR theory
    /// predicts for elliptic fronts, and the 4× headroom keeps the model an
    /// *over*-estimate on the meshes we target (an optimistic model would
    /// make the autotuner admit blockings that then blow the budget).
    /// Because every panel is capped at its dense size, this prediction
    /// never exceeds the uncompressed one; it is **not** a guaranteed upper
    /// bound on the measured peak — a front whose true ranks beat `r̂` by
    /// more than the headroom can exceed it — which is why the autotune
    /// gate (`autotune_report`) checks measured ≤ 1.25 × predicted over the
    /// compressed configuration too.
    pub fn predicted_numeric_peak_bytes_blr(&self, elem: usize, unsymmetric: bool) -> usize {
        use crate::numeric::{BLR_MIN_COLS, BLR_MIN_ROWS};
        self.replay_peak_bytes(elem, unsymmetric, |rows, cols| {
            let dense = rows * cols * elem;
            if rows < BLR_MIN_ROWS || cols < BLR_MIN_COLS {
                return dense;
            }
            let r_hat = 4 * (rows.min(cols) as f64).sqrt().ceil() as usize;
            dense.min(r_hat * (rows + cols) * elem)
        })
    }

    /// Replay the numeric phase's exact charge schedule (dense Schur output,
    /// frontal matrices, contribution blocks held for their parents, growing
    /// factor panels), pricing each harvested off-diagonal panel through
    /// `panel_bytes(rows, cols)`.
    fn replay_peak_bytes(
        &self,
        elem: usize,
        unsymmetric: bool,
        panel_bytes: impl Fn(usize, usize) -> usize,
    ) -> usize {
        let ns = self.n_schur;
        // Charges live at entry: the dense Schur accumulator.
        let mut live = ns * ns * elem;
        let mut peak = live;
        // Pending contribution-block bytes per supernode (postorder:
        // children always precede parents).
        let mut cb_bytes = vec![0usize; self.supernodes.len()];
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.supernodes.len()];
        for (s, sn) in self.supernodes.iter().enumerate() {
            if sn.parent != usize::MAX {
                children[sn.parent].push(s);
            }
        }
        for (s, sn) in self.supernodes.iter().enumerate() {
            let k = sn.width();
            let f = sn.front_size();
            // The front is charged while every child CB is still held.
            live += f * f * elem;
            peak = peak.max(live);
            for &c in &children[s] {
                live -= cb_bytes[c];
            }
            // CB charged before the front is released.
            if f > k && sn.parent != usize::MAX {
                cb_bytes[s] = (f - k) * (f - k) * elem;
                live += cb_bytes[s];
                peak = peak.max(live);
            }
            live -= f * f * elem;
            // Factor panels harvested from the front: diagonal block plus
            // the `(f−k)×k` L panel (and the `k×(f−k)` U panel in LU mode).
            let mut sn_bytes = k * k * elem + panel_bytes(f - k, k);
            if unsymmetric {
                sn_bytes += panel_bytes(k, f - k);
            }
            live += sn_bytes;
            peak = peak.max(live);
        }
        peak
    }
}

/// Merge chains of narrow supernodes (child whose parent is the immediately
/// following supernode) when the padding cost stays below `AMALG_FILL_FRAC`.
/// Single left-to-right pass; parents and `sn_of_col` are rebuilt afterwards.
fn amalgamate(sns: &mut Vec<SupernodeInfo>, sn_of_col: &mut [usize], _ne: usize) {
    if sns.is_empty() {
        return;
    }
    let old: Vec<SupernodeInfo> = std::mem::take(sns);
    let mut out: Vec<SupernodeInfo> = Vec::with_capacity(old.len());
    let mut iter = old.into_iter().enumerate();
    let (mut cur_idx, mut cur) = iter.next().unwrap();
    for (s, sn) in iter {
        let chain = cur.parent == s && sn.c0 == cur.c1;
        let narrow = cur.width() + sn.width() <= AMALG_WIDTH;
        if chain && narrow {
            let mut set: std::collections::BTreeSet<usize> = cur.rows.iter().copied().collect();
            set.extend(sn.rows.iter().copied());
            let merged_entries = (cur.width() + sn.width()) * set.len();
            let orig = cur.width() * cur.front_size() + sn.width() * sn.front_size();
            if (merged_entries as f64) <= (orig as f64) * (1.0 + AMALG_FILL_FRAC) {
                cur.c1 = sn.c1;
                cur.parent = sn.parent;
                cur.rows = set.into_iter().collect();
                continue;
            }
        }
        out.push(cur);
        cur_idx = s;
        cur = sn;
    }
    let _ = cur_idx;
    out.push(cur);
    *sns = out;

    // Rebuild sn_of_col and parents from scratch (indices changed).
    for (s, sn) in sns.iter().enumerate() {
        for c in sn.c0..sn.c1 {
            sn_of_col[c] = s;
        }
    }
    let ne = sn_of_col.len();
    for s in 0..sns.len() {
        let parent = sns[s]
            .rows
            .iter()
            .skip(sns[s].width())
            .find(|&&r| r < ne)
            .map(|&r| sn_of_col[r])
            .unwrap_or(usize::MAX);
        sns[s].parent = parent;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::Coo;

    /// 2-D Laplacian on an nx×ny grid.
    fn grid_matrix(nx: usize, ny: usize) -> Csc<f64> {
        let id = |i: usize, j: usize| i * ny + j;
        let n = nx * ny;
        let mut coo = Coo::new(n, n);
        for i in 0..nx {
            for j in 0..ny {
                let u = id(i, j);
                coo.push(u, u, 4.0);
                if i > 0 {
                    coo.push(u, id(i - 1, j), -1.0);
                    coo.push(id(i - 1, j), u, -1.0);
                }
                if j > 0 {
                    coo.push(u, id(i, j - 1), -1.0);
                    coo.push(id(i, j - 1), u, -1.0);
                }
            }
        }
        coo.to_csc()
    }

    fn validate_symbolic(sym: &SymbolicFactorization) {
        let ne = sym.n_elim;
        // Permutation validity.
        let mut seen = vec![false; sym.n];
        for &p in &sym.perm {
            assert!(!seen[p]);
            seen[p] = true;
        }
        // Supernodes tile 0..ne contiguously and postorder holds.
        let mut cursor = 0;
        for (s, sn) in sym.supernodes.iter().enumerate() {
            assert_eq!(sn.c0, cursor);
            assert!(sn.c1 > sn.c0);
            cursor = sn.c1;
            // First width entries of rows are the pivot columns.
            for (k, &r) in sn.rows.iter().take(sn.width()).enumerate() {
                assert_eq!(r, sn.c0 + k);
            }
            // Rows sorted strictly.
            for w in sn.rows.windows(2) {
                assert!(w[0] < w[1]);
            }
            // Parent comes after in postorder.
            if sn.parent != usize::MAX {
                assert!(sn.parent > s, "parent {} !> {}", sn.parent, s);
                // CB rows < ne must be contained in parent's rows.
                let parent = &sym.supernodes[sn.parent];
                for &r in sn.rows.iter().skip(sn.width()) {
                    if r < ne {
                        assert!(
                            parent.rows.binary_search(&r).is_ok(),
                            "CB row {r} missing from parent"
                        );
                    }
                }
            } else {
                // No parent: all CB rows must be Schur rows.
                for &r in sn.rows.iter().skip(sn.width()) {
                    assert!(r >= ne);
                }
            }
        }
        assert_eq!(cursor, ne);
    }

    #[test]
    fn predicted_numeric_peak_matches_tracked_factorization() {
        use crate::numeric::{factorize_schur, SparseOptions, Symmetry};
        use csolve_common::MemTracker;

        let a = grid_matrix(12, 12);
        let n = a.nrows;
        let schur_vars: Vec<usize> = (n - 10..n).collect();
        for (symmetry, unsym) in [
            (Symmetry::SymmetricLdlt, false),
            (Symmetry::UnsymmetricLu, true),
        ] {
            let sym =
                SymbolicFactorization::analyze(&a, &schur_vars, OrderingKind::NestedDissection)
                    .unwrap();
            let predicted = sym.predicted_numeric_peak_bytes(std::mem::size_of::<f64>(), unsym);
            let tracker = MemTracker::unbounded();
            let opts = SparseOptions {
                ordering: OrderingKind::NestedDissection,
                symmetry,
                blr_eps: None,
                tracker: Some(tracker.clone()),
                ..Default::default()
            };
            let (f, x) = factorize_schur(&a, &schur_vars, &opts).unwrap();
            // Uncompressed factors: the replay is the exact charge schedule.
            assert_eq!(
                predicted,
                tracker.peak(),
                "unsym={unsym}: predicted peak must equal the tracked peak"
            );
            // BLR compression only shrinks factor panels: still an upper
            // bound.
            let t2 = MemTracker::unbounded();
            let opts_blr = SparseOptions {
                blr_eps: Some(1e-9),
                tracker: Some(t2.clone()),
                ..opts
            };
            let _ = factorize_schur(&a, &schur_vars, &opts_blr).unwrap();
            assert!(
                t2.peak() <= predicted,
                "unsym={unsym}: BLR run exceeded the uncompressed bound"
            );
            drop((f, x));
        }
    }

    #[test]
    fn blr_peak_prediction_is_tighter_and_still_holds() {
        use crate::numeric::{factorize_schur, SparseOptions, Symmetry};
        use csolve_common::MemTracker;

        // Large enough that separator panels clear the BLR size gate *and*
        // the √-law price (with its 4× headroom) actually undercuts the
        // dense price — that needs panels of roughly 100×50 and up.
        let a = grid_matrix(96, 96);
        let n = a.nrows;
        let schur_vars: Vec<usize> = (n - 40..n).collect();
        let elem = std::mem::size_of::<f64>();
        // `pins`: (compressed_panels, panel_stored_bytes, max_panel_rank,
        // factor_bytes) as recorded at the last commit whose panels went
        // through the RRQR + SVD normal form — the rank-first constructor
        // must keep every panel decision and every stored byte.
        for (symmetry, unsym, pins) in [
            (Symmetry::SymmetricLdlt, false, (9, 168_032, 27, 3_617_920)),
            (Symmetry::UnsymmetricLu, true, (11, 188_320, 27, 5_594_320)),
        ] {
            let sym =
                SymbolicFactorization::analyze(&a, &schur_vars, OrderingKind::NestedDissection)
                    .unwrap();
            let dense = sym.predicted_numeric_peak_bytes(elem, unsym);
            let blr = sym.predicted_numeric_peak_bytes_blr(elem, unsym);
            // The compressed model never exceeds the dense model, and on
            // this grid at least one panel is priced below dense.
            assert!(blr <= dense, "unsym={unsym}: blr {blr} > dense {dense}");
            assert!(blr < dense, "unsym={unsym}: no panel cleared the gate");
            // The measured compressed peak stays within the *dense* model
            // (the hard guarantee the driver relies on for budget safety).
            let tracker = MemTracker::unbounded();
            let opts = SparseOptions {
                ordering: OrderingKind::NestedDissection,
                symmetry,
                blr_eps: Some(1e-6),
                tracker: Some(tracker.clone()),
                ..Default::default()
            };
            let (f, _) = factorize_schur(&a, &schur_vars, &opts).unwrap();
            assert!(
                tracker.peak() <= dense,
                "unsym={unsym}: measured {} > dense prediction {dense}",
                tracker.peak()
            );
            let st = f.stats();
            assert_eq!(
                (
                    st.compressed_panels,
                    st.panel_stored_bytes,
                    st.max_panel_rank,
                    st.factor_bytes
                ),
                pins,
                "unsym={unsym}: BLR panel decisions moved"
            );
        }
    }

    #[test]
    fn analysis_without_schur() {
        let a = grid_matrix(9, 9);
        for kind in [
            OrderingKind::Natural,
            OrderingKind::Rcm,
            OrderingKind::NestedDissection,
        ] {
            let sym = SymbolicFactorization::analyze(&a, &[], kind).unwrap();
            assert_eq!(sym.n_elim, 81);
            assert_eq!(sym.n_schur, 0);
            validate_symbolic(&sym);
        }
    }

    #[test]
    fn analysis_with_schur_tail() {
        let a = grid_matrix(8, 8);
        // Schur vars: a scattered set.
        let schur: Vec<usize> = vec![3, 17, 40, 41, 63];
        let sym =
            SymbolicFactorization::analyze(&a, &schur, OrderingKind::NestedDissection).unwrap();
        assert_eq!(sym.n_schur, 5);
        assert_eq!(sym.n_elim, 59);
        // Schur vars sit at the permutation tail in the given order.
        assert_eq!(&sym.perm[59..], &schur[..]);
        validate_symbolic(&sym);
    }

    #[test]
    fn nested_dissection_beats_natural_on_fill() {
        let a = grid_matrix(24, 24);
        let nat = SymbolicFactorization::analyze(&a, &[], OrderingKind::Natural).unwrap();
        let nd = SymbolicFactorization::analyze(&a, &[], OrderingKind::NestedDissection).unwrap();
        assert!(
            nd.factor_entries < nat.factor_entries,
            "ND fill {} should beat natural band fill {}",
            nd.factor_entries,
            nat.factor_entries
        );
    }

    #[test]
    fn rejects_bad_schur_vars() {
        let a = grid_matrix(4, 4);
        assert!(SymbolicFactorization::analyze(&a, &[99], OrderingKind::Natural).is_err());
        assert!(SymbolicFactorization::analyze(&a, &[3, 3], OrderingKind::Natural).is_err());
    }

    #[test]
    fn rejects_nonsquare() {
        let mut coo = Coo::new(3, 4);
        coo.push(0, 0, 1.0);
        let a = coo.to_csc();
        assert!(SymbolicFactorization::analyze(&a, &[], OrderingKind::Natural).is_err());
    }
}
