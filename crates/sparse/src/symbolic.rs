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
        Self::analyze_with(a, schur_vars, ordering, build_supernodes)
    }

    /// [`Self::analyze`] with the supernode row-structure stage passed in
    /// (tests run the `BTreeSet` reference through the same analysis).
    fn analyze_with<T: Scalar>(
        a: &Csc<T>,
        schur_vars: &[usize],
        ordering: OrderingKind,
        build: SupernodeBuilder,
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

        let (supernodes, sn_of_col) = build(&sn_start, &adj_final, n);

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

    /// Deterministic upper bound on the bytes one numeric
    /// factorization+Schur call charges against the memory tracker, obtained
    /// by replaying the postordered supernode sequence with the exact charge
    /// schedule of `factorize_schur` (dense Schur output, frontal matrices,
    /// contribution blocks held for their parents, growing factor panels).
    ///
    /// `elem` is `size_of::<T>()`; `unsymmetric` adds the U row panels of
    /// the LU mode. The bound is exact for uncompressed factors; BLR
    /// compression only shrinks the factor panels, so the real peak never
    /// exceeds it. A caller that keeps no factors reserves
    /// [`Self::predicted_schur_peak_bytes`] instead.
    pub fn predicted_numeric_peak_bytes(&self, elem: usize, unsymmetric: bool) -> usize {
        self.replay_peak_bytes(elem, |k, t| {
            let panels = if unsymmetric { 2 } else { 1 };
            (k * k + panels * t * k) * elem
        })
    }

    /// The exact peak of what [`crate::schur_complement_analyzed`] charges:
    /// the same replay with no factor panel harvested — dense Schur output,
    /// frontal matrices and contribution blocks only. Exact whether or not
    /// BLR is on (nothing is compressed) and the same for LDLᵀ and LU (the
    /// two modes differ only in what they would keep). Used by the block
    /// autotuner and the pipeline to price a multi-factorization tile
    /// before any numeric work runs.
    pub fn predicted_schur_peak_bytes(&self, elem: usize) -> usize {
        self.replay_peak_bytes(elem, |_, _| 0)
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
    /// *over*-estimate on the meshes we target. Because every panel is
    /// capped at its dense size, this prediction never exceeds the
    /// uncompressed one; it is **not** a guaranteed upper bound on the
    /// measured peak — a front whose true ranks beat `r̂` by more than the
    /// headroom can exceed it — so nothing reserves memory by it: it is the
    /// BLR report's estimate (`blr_report`).
    pub fn predicted_numeric_peak_bytes_blr(&self, elem: usize, unsymmetric: bool) -> usize {
        use crate::numeric::{BLR_MIN_COLS, BLR_MIN_ROWS};
        let panel_bytes = |rows: usize, cols: usize| {
            let dense = rows * cols * elem;
            if rows < BLR_MIN_ROWS || cols < BLR_MIN_COLS {
                return dense;
            }
            let r_hat = 4 * (rows.min(cols) as f64).sqrt().ceil() as usize;
            dense.min(r_hat * (rows + cols) * elem)
        };
        self.replay_peak_bytes(elem, |k, t| {
            let u_panel = if unsymmetric { panel_bytes(k, t) } else { 0 };
            k * k * elem + panel_bytes(t, k) + u_panel
        })
    }

    /// Replay the numeric phase's exact charge schedule (dense Schur output,
    /// frontal matrices, contribution blocks held for their parents, growing
    /// factor storage), pricing what a supernode of width `k` with `t`
    /// contribution rows keeps at `factor_bytes(k, t)`.
    fn replay_peak_bytes(
        &self,
        elem: usize,
        factor_bytes: impl Fn(usize, usize) -> usize,
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
            // Factors harvested from the front: diagonal block plus the
            // `(f−k)×k` L panel (and the `k×(f−k)` U panel in LU mode).
            live += factor_bytes(k, f - k);
            peak = peak.max(live);
        }
        peak
    }
}

/// The supernode stage of the analysis: from the supernode column starts
/// `sn_start` (last entry `n_elim`), the strictly-lower adjacency of every
/// eliminated column in the final permuted space and the matrix order `n`,
/// to the amalgamated supernodes and the supernode of each column.
type SupernodeBuilder = fn(&[usize], &[Vec<usize>], usize) -> (Vec<SupernodeInfo>, Vec<usize>);

/// Supernode row sets bottom-up (supernodes are postordered), then relaxed
/// amalgamation. A front's rows are its pivot columns followed by the
/// distinct rows beyond them — gathered through a stamp array, then sorted.
fn build_supernodes(
    sn_start: &[usize],
    adj_final: &[Vec<usize>],
    n: usize,
) -> (Vec<SupernodeInfo>, Vec<usize>) {
    let ne = adj_final.len();
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
    // stamp[r] == s + 1: row r is already in supernode s's set.
    let mut stamp = vec![0usize; n];
    for s in 0..nsn {
        let c0 = sn_start[s];
        let c1 = sn_start[s + 1];
        let mut rows: Vec<usize> = (c0..c1).collect();
        let mut add = |r: usize| {
            debug_assert!(r >= c0);
            if r >= c1 && stamp[r] != s + 1 {
                stamp[r] = s + 1;
                rows.push(r);
            }
        };
        adj_final[c0..c1]
            .iter()
            .flatten()
            .copied()
            .for_each(&mut add);
        // Children contribution rows.
        for &ci in &children[s] {
            let child = &supernodes[ci];
            child.rows[child.width()..]
                .iter()
                .copied()
                .for_each(&mut add);
        }
        rows[c1 - c0..].sort_unstable();
        // Parent supernode: smallest CB row < ne.
        let parent_sn = parent_of(&rows, c1 - c0, &sn_of_col);
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
    amalgamate(&mut supernodes, &mut sn_of_col);
    (supernodes, sn_of_col)
}

/// The supernode of the smallest eliminated contribution-block row of a
/// front with sorted `rows` and `width` pivots, or `usize::MAX` when the
/// contribution flows to the Schur block / nowhere.
fn parent_of(rows: &[usize], width: usize, sn_of_col: &[usize]) -> usize {
    match rows.get(width) {
        Some(&r) if r < sn_of_col.len() => sn_of_col[r],
        _ => usize::MAX,
    }
}

/// Sorted union of two sorted, duplicate-free row lists.
fn merge_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Merge chains of narrow supernodes (child whose parent is the immediately
/// following supernode) when the padding cost stays below `AMALG_FILL_FRAC`.
/// Single left-to-right pass; parents and `sn_of_col` are rebuilt afterwards.
fn amalgamate(sns: &mut Vec<SupernodeInfo>, sn_of_col: &mut [usize]) {
    let mut iter = std::mem::take(sns).into_iter().enumerate();
    let Some((_, mut cur)) = iter.next() else {
        return;
    };
    for (s, sn) in iter {
        let chain = cur.parent == s && sn.c0 == cur.c1;
        let narrow = cur.width() + sn.width() <= AMALG_WIDTH;
        if chain && narrow {
            let merged = merge_sorted(&cur.rows, &sn.rows);
            let merged_entries = (cur.width() + sn.width()) * merged.len();
            let orig = cur.width() * cur.front_size() + sn.width() * sn.front_size();
            if (merged_entries as f64) <= (orig as f64) * (1.0 + AMALG_FILL_FRAC) {
                cur.c1 = sn.c1;
                cur.parent = sn.parent;
                cur.rows = merged;
                continue;
            }
        }
        sns.push(std::mem::replace(&mut cur, sn));
    }
    sns.push(cur);

    // Rebuild sn_of_col and parents from scratch (indices changed).
    for (s, sn) in sns.iter().enumerate() {
        for c in sn.c0..sn.c1 {
            sn_of_col[c] = s;
        }
    }
    for sn in sns.iter_mut() {
        sn.parent = parent_of(&sn.rows, sn.width(), sn_of_col);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::Coo;
    use crate::tests::{local, stacked_tile};

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

    /// The supernode stage as it was built through `BTreeSet`s: the reference
    /// [`build_supernodes`] is held equal to.
    fn build_supernodes_btreeset(
        sn_start: &[usize],
        adj_final: &[Vec<usize>],
        _n: usize,
    ) -> (Vec<SupernodeInfo>, Vec<usize>) {
        use std::collections::BTreeSet;
        let ne = adj_final.len();
        let nsn = sn_start.len() - 1;
        let mut sn_of_col = vec![0usize; ne];
        for s in 0..nsn {
            for c in sn_start[s]..sn_start[s + 1] {
                sn_of_col[c] = s;
            }
        }
        let parent_of = |rows: &[usize], width: usize, sn_of_col: &[usize]| {
            rows.iter()
                .skip(width)
                .find(|&&r| r < ne)
                .map_or(usize::MAX, |&r| sn_of_col[r])
        };
        let mut sns: Vec<SupernodeInfo> = Vec::with_capacity(nsn);
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); nsn];
        for s in 0..nsn {
            let (c0, c1) = (sn_start[s], sn_start[s + 1]);
            let mut set: BTreeSet<usize> = (c0..c1).collect();
            for j in c0..c1 {
                set.extend(adj_final[j].iter().filter(|&&i| i >= c0));
            }
            for &ci in &children[s] {
                let child = &sns[ci];
                set.extend(&child.rows[child.width()..]);
            }
            let rows: Vec<usize> = set.into_iter().collect();
            let parent = parent_of(&rows, c1 - c0, &sn_of_col);
            if parent != usize::MAX {
                children[parent].push(s);
            }
            sns.push(SupernodeInfo {
                c0,
                c1,
                rows,
                parent,
            });
        }

        // Relaxed amalgamation.
        let mut out: Vec<SupernodeInfo> = Vec::with_capacity(sns.len());
        let mut iter = sns.into_iter().enumerate();
        let Some((_, mut cur)) = iter.next() else {
            return (out, sn_of_col);
        };
        for (s, sn) in iter {
            let chain = cur.parent == s && sn.c0 == cur.c1;
            let narrow = cur.width() + sn.width() <= AMALG_WIDTH;
            if chain && narrow {
                let mut set: BTreeSet<usize> = cur.rows.iter().copied().collect();
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
            cur = sn;
        }
        out.push(cur);
        for (s, sn) in out.iter().enumerate() {
            for c in sn.c0..sn.c1 {
                sn_of_col[c] = s;
            }
        }
        for s in 0..out.len() {
            out[s].parent = parent_of(&out[s].rows, out[s].width(), &sn_of_col);
        }
        (out, sn_of_col)
    }

    /// The stamp-array / two-pointer supernode stage gives the `BTreeSet`
    /// one's supernodes, row structures and column map on every pattern the
    /// solver analyzes: grids, and the plain `A_vv` and stacked diagonal,
    /// off-diagonal and rectangular-edge tiles of the pipe and industrial
    /// problems — with and without a Schur tail.
    #[test]
    fn stamp_array_row_structures_equal_the_btreeset_reference() {
        fn check<T: Scalar>(what: &str, a: &Csc<T>, schur_vars: &[usize]) {
            for kind in [OrderingKind::NestedDissection, OrderingKind::Rcm] {
                let new = SymbolicFactorization::analyze(a, schur_vars, kind).unwrap();
                let old = SymbolicFactorization::analyze_with(
                    a,
                    schur_vars,
                    kind,
                    build_supernodes_btreeset,
                )
                .unwrap();
                validate_symbolic(&new);
                assert_eq!(new.sn_of_col, old.sn_of_col, "{what}/{kind:?}: column map");
                assert_eq!(new.factor_entries, old.factor_entries, "{what}/{kind:?}");
                assert_eq!(
                    new.supernodes.len(),
                    old.supernodes.len(),
                    "{what}/{kind:?}"
                );
                for (s, (x, y)) in new.supernodes.iter().zip(&old.supernodes).enumerate() {
                    assert_eq!(
                        (x.c0, x.c1, x.parent, &x.rows),
                        (y.c0, y.c1, y.parent, &y.rows),
                        "{what}/{kind:?}: supernode {s}"
                    );
                }
            }
        }
        fn check_coupled<T: Scalar>(what: &str, a_vv: &Csc<T>, a_vs: &Csc<T>, a_sv: &Csc<T>) {
            let ns = a_sv.nrows;
            // A tile grid that does not divide n_s: the edge tile is short.
            let n_b = (3..).find(|&b| !ns.is_multiple_of(b)).unwrap();
            let blk = ns.div_ceil(n_b);
            check(&format!("{what} A_vv"), a_vv, &[]);
            for (rows, cols) in [
                (0..blk, 0..blk),
                (blk..2 * blk, 0..blk),
                ((n_b - 1) * blk..ns, blk..2 * blk),
                (0..ns, 0..ns),
            ] {
                let (w, schur_vars) = stacked_tile(a_vv, a_vs, a_sv, rows.clone(), cols.clone());
                check(&format!("{what} W[{rows:?}, {cols:?}]"), &w, &schur_vars);
            }
        }

        let grid = grid_matrix(24, 17);
        check("grid", &grid, &[]);
        check(
            "grid + tail",
            &grid,
            &(grid.nrows - 30..grid.nrows).collect::<Vec<_>>(),
        );
        check("grid + scattered", &grid, &[3, 17, 40, 41, 63, 200]);

        let p = csolve_fembem::pipe_problem::<f64>(2_500);
        check_coupled("pipe", &local!(p.a_vv), &local!(p.a_vs), &local!(p.a_sv));
        let p = csolve_fembem::industrial_problem::<csolve_common::C64>(2_000);
        check_coupled(
            "industrial",
            &local!(p.a_vv),
            &local!(p.a_vs),
            &local!(p.a_sv),
        );
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
