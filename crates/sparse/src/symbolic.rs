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

/// The part of a symbolic analysis that depends on the eliminated block
/// alone: the fill-reducing ordering of its symmetrized pattern, the
/// postordered elimination tree with its column counts, and the fundamental
/// supernode starts. Every matrix sharing that block — `A_vv` itself, and
/// each stacked multi-factorization tile `W = [A_vv A_vs|_j ; A_sv|_i 0]`
/// with its Schur tail — is analyzed by [`Self::extend`], which adds what
/// depends on the Schur rows: the final permutation, the supernode row
/// structures and the amalgamation. An extension is field for field the
/// [`SymbolicFactorization::analyze`] of the same matrix.
#[derive(Debug, Clone)]
pub struct EliminationStructure {
    /// Column pointers of the eliminated block's pattern, in its own index
    /// space (the `k`-th eliminated variable in index order is `k`): what an
    /// extension checks its matrix against.
    colptr: Vec<usize>,
    /// Row indices of that pattern, sorted within each column.
    rowidx: Vec<usize>,
    /// `order[new]`: the eliminated variable (own index space) at final
    /// position `new` — the ordering composed with the postorder.
    order: Vec<usize>,
    /// The eliminated neighbours of every final position beyond it.
    later: LaterAdjacency,
    /// Fundamental supernode starts; the last entry is the eliminated count.
    sn_start: Vec<usize>,
}

impl EliminationStructure {
    /// Order and tree-analyze the eliminated block of `a` (every variable
    /// not in `schur_vars`), with the checks and errors of
    /// [`SymbolicFactorization::analyze`].
    pub fn analyze<T: Scalar>(
        a: &Csc<T>,
        schur_vars: &[usize],
        ordering: OrderingKind,
    ) -> Result<Self> {
        let (elim_old, sub_of) = eliminated(a, schur_vars)?;
        let ne = elim_old.len();
        let mut colptr = Vec::with_capacity(ne + 1);
        colptr.push(0);
        let mut rowidx = Vec::new();
        for &old in &elim_old {
            rowidx.extend(block_rows(a, old, &sub_of));
            colptr.push(rowidx.len());
        }

        // Adjacency of the symmetrized pattern, restricted to the block.
        let sub_adj: Vec<Vec<usize>> = a
            .symmetrized_pattern()
            .into_iter()
            .zip(&sub_of)
            .filter(|&(_, &sub)| sub != usize::MAX)
            .map(|(nbrs, _)| {
                let sub_nbrs = nbrs.into_iter().map(|w| sub_of[w]);
                sub_nbrs.filter(|&w| w != usize::MAX).collect()
            })
            .collect();
        let sub_perm = compute_ordering(&sub_adj, ordering); // perm[new] = sub

        // The block in the ordering's index space, for the elimination tree.
        let mut pos1 = vec![0usize; ne];
        for (new, &sub) in sub_perm.iter().enumerate() {
            pos1[sub] = new;
        }
        let adj1: Vec<Vec<usize>> = sub_perm
            .iter()
            .map(|&sub| {
                let mut l: Vec<usize> = sub_adj[sub].iter().map(|&w| pos1[w]).collect();
                l.sort_unstable();
                l
            })
            .collect();

        let parent = elimination_tree(&adj1);
        let post = postorder(&parent);
        let counts = column_counts(&adj1, &parent, &post);

        // Compose postorder into the final order of the eliminated block.
        let order: Vec<usize> = post.iter().map(|&p| sub_perm[p]).collect();

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

        // Each final position's eliminated neighbours beyond it.
        let mut at = vec![0usize; ne];
        for (new, &sub) in order.iter().enumerate() {
            at[sub] = new;
        }
        let mut later = LaterAdjacency {
            ptr: Vec::with_capacity(ne + 1),
            idx: Vec::new(),
        };
        later.ptr.push(0);
        for (new, &sub) in order.iter().enumerate() {
            let from = later.idx.len();
            later
                .idx
                .extend(sub_adj[sub].iter().map(|&w| at[w]).filter(|&w| w > new));
            later.idx[from..].sort_unstable();
            later.ptr.push(later.idx.len());
        }

        Ok(Self {
            colptr,
            rowidx,
            order,
            later,
            sn_start,
        })
    }

    /// Number of eliminated variables.
    pub fn n_elim(&self) -> usize {
        self.order.len()
    }

    /// The symbolic analysis of `a` with Schur variables `schur_vars` on
    /// this structure: [`SymbolicFactorization::analyze`]`(a, schur_vars,
    /// ordering)` field for field, where `ordering` is the structure's. `a`'s
    /// eliminated block (every variable not in `schur_vars`, in index order)
    /// must have the pattern the structure was built on —
    /// [`Error::PatternMismatch`] otherwise, or
    /// [`Error::DimensionMismatch`] when it has another order.
    pub fn extend<T: Scalar>(
        &self,
        a: &Csc<T>,
        schur_vars: &[usize],
    ) -> Result<SymbolicFactorization> {
        self.extend_with(a, schur_vars, build_supernodes)
    }

    /// [`Self::extend`] with the supernode row-structure stage passed in
    /// (tests run the `BTreeSet` reference through the same analysis).
    fn extend_with<T: Scalar>(
        &self,
        a: &Csc<T>,
        schur_vars: &[usize],
        build: SupernodeBuilder,
    ) -> Result<SymbolicFactorization> {
        let (elim_old, sub_of) = eliminated(a, schur_vars)?;
        let (n, ne) = (a.nrows, self.n_elim());
        if elim_old.len() != ne {
            return Err(Error::DimensionMismatch {
                context: "elimination structure extension",
                expected: (ne, ne),
                got: (elim_old.len(), elim_old.len()),
            });
        }
        for (j, &old) in elim_old.iter().enumerate() {
            let built = &self.rowidx[self.colptr[j]..self.colptr[j + 1]];
            if !block_rows(a, old, &sub_of).eq(built.iter().copied()) {
                return Err(Error::PatternMismatch {
                    context: "elimination structure extension",
                    column: old,
                });
            }
        }

        let mut perm: Vec<usize> = self.order.iter().map(|&sub| elim_old[sub]).collect();
        perm.extend_from_slice(schur_vars);
        let mut iperm = vec![0usize; n];
        for (new, &old) in perm.iter().enumerate() {
            iperm[old] = new;
        }

        // The coupling entries, as (eliminated, Schur) final-position pairs
        // of the symmetrized pattern.
        let mut coupling = Vec::new();
        for c in 0..n {
            let c_elim = sub_of[c] != usize::MAX;
            for &r in a.col(c).0 {
                if (sub_of[r] != usize::MAX) != c_elim {
                    let (e, s) = if c_elim { (c, r) } else { (r, c) };
                    coupling.push((iperm[e], iperm[s]));
                }
            }
        }
        coupling.sort_unstable();
        coupling.dedup();

        // Every eliminated column's neighbours beyond it: the eliminated
        // ones, then the Schur ones (every Schur position is beyond them).
        let mut adj = LaterAdjacency {
            ptr: Vec::with_capacity(ne + 1),
            idx: Vec::with_capacity(self.later.idx.len() + coupling.len()),
        };
        adj.ptr.push(0);
        let mut pairs = coupling.iter().peekable();
        for new in 0..ne {
            adj.idx.extend_from_slice(self.later.cols(new..new + 1));
            while let Some(&(_, s)) = pairs.next_if(|&&(e, _)| e == new) {
                adj.idx.push(s);
            }
            adj.ptr.push(adj.idx.len());
        }

        let (supernodes, sn_of_col) = build(&self.sn_start, &adj, n);
        let factor_entries = supernodes.iter().map(|s| s.width() * s.front_size()).sum();

        Ok(SymbolicFactorization {
            n,
            n_elim: ne,
            n_schur: schur_vars.len(),
            perm,
            iperm,
            supernodes,
            sn_of_col,
            factor_entries,
        })
    }
}

/// The eliminated variables of a square `a` whose Schur variables are
/// `schur_vars`, in index order, and every variable's place among them
/// (`usize::MAX` for a Schur variable).
fn eliminated<T: Scalar>(a: &Csc<T>, schur_vars: &[usize]) -> Result<(Vec<usize>, Vec<usize>)> {
    if a.nrows != a.ncols {
        return Err(Error::DimensionMismatch {
            context: "symbolic analysis",
            expected: (a.nrows, a.nrows),
            got: (a.nrows, a.ncols),
        });
    }
    let n = a.nrows;
    let mut sub_of = vec![0usize; n];
    for &s in schur_vars {
        if s >= n || sub_of[s] == usize::MAX {
            return Err(Error::InvalidConfig(format!(
                "invalid or duplicate Schur variable {s}"
            )));
        }
        sub_of[s] = usize::MAX;
    }
    let mut elim_old = Vec::with_capacity(n - schur_vars.len());
    for (v, sub) in sub_of.iter_mut().enumerate() {
        if *sub != usize::MAX {
            *sub = elim_old.len();
            elim_old.push(v);
        }
    }
    Ok((elim_old, sub_of))
}

/// The rows of column `old` of `a` inside the eliminated block, in the
/// block's own index space (`sub_of` from [`eliminated`]).
fn block_rows<'a, T: Scalar>(
    a: &'a Csc<T>,
    old: usize,
    sub_of: &'a [usize],
) -> impl Iterator<Item = usize> + 'a {
    a.col(old)
        .0
        .iter()
        .map(|&r| sub_of[r])
        .filter(|&s| s != usize::MAX)
}

/// Strictly-later adjacency of the eliminated columns in the final permuted
/// space, compressed by column: column `j`'s sorted neighbours beyond it are
/// `idx[ptr[j]..ptr[j + 1]]`.
#[derive(Debug, Clone)]
struct LaterAdjacency {
    ptr: Vec<usize>,
    idx: Vec<usize>,
}

impl LaterAdjacency {
    /// Number of columns.
    fn len(&self) -> usize {
        self.ptr.len() - 1
    }

    /// The neighbours of the columns `cols`, column after column.
    fn cols(&self, cols: std::ops::Range<usize>) -> &[usize] {
        &self.idx[self.ptr[cols.start]..self.ptr[cols.end]]
    }
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
    ///
    /// [`EliminationStructure::analyze`] then [`EliminationStructure::extend`]
    /// on the same matrix: a caller analyzing several matrices that share
    /// their eliminated block builds the structure once and extends it.
    pub fn analyze<T: Scalar>(
        a: &Csc<T>,
        schur_vars: &[usize],
        ordering: OrderingKind,
    ) -> Result<Self> {
        EliminationStructure::analyze(a, schur_vars, ordering)?.extend(a, schur_vars)
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
type SupernodeBuilder = fn(&[usize], &LaterAdjacency, usize) -> (Vec<SupernodeInfo>, Vec<usize>);

/// Supernode row sets bottom-up (supernodes are postordered), then relaxed
/// amalgamation. A front's rows are its pivot columns followed by the
/// distinct rows beyond them — gathered through a stamp array, then sorted.
fn build_supernodes(
    sn_start: &[usize],
    adj_final: &LaterAdjacency,
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
        adj_final.cols(c0..c1).iter().copied().for_each(&mut add);
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
        adj_final: &LaterAdjacency,
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
                set.extend(adj_final.cols(j..j + 1).iter().filter(|&&i| i >= c0));
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
                let old = EliminationStructure::analyze(a, schur_vars, kind)
                    .unwrap()
                    .extend_with(a, schur_vars, build_supernodes_btreeset)
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

    /// Field for field equality of two analyses.
    fn assert_same_analysis(what: &str, x: &SymbolicFactorization, y: &SymbolicFactorization) {
        assert_eq!(
            (x.n, x.n_elim, x.n_schur),
            (y.n, y.n_elim, y.n_schur),
            "{what}"
        );
        assert_eq!(x.perm, y.perm, "{what}: perm");
        assert_eq!(x.iperm, y.iperm, "{what}: iperm");
        assert_eq!(x.sn_of_col, y.sn_of_col, "{what}: column map");
        assert_eq!(x.factor_entries, y.factor_entries, "{what}: factor entries");
        assert_eq!(x.supernodes.len(), y.supernodes.len(), "{what}");
        for (s, (a, b)) in x.supernodes.iter().zip(&y.supernodes).enumerate() {
            assert_eq!(
                (a.c0, a.c1, a.parent, &a.rows),
                (b.c0, b.c1, b.parent, &b.rows),
                "{what}: supernode {s}"
            );
        }
    }

    /// One elimination structure built on `A_vv` extends to `A_vv` and to
    /// every stacked tile `W` of an `n_b × n_b` grid — square, short-edge
    /// and rectangular, both triangles — as the fresh analysis of that very
    /// matrix: on the symmetric pipe and the unsymmetric industrial problem,
    /// for n_b = 1…4. A matrix whose eliminated block has another pattern is
    /// refused.
    #[test]
    fn an_extended_analysis_is_the_fresh_analysis_of_every_tile() {
        fn check<T: Scalar>(what: &str, a_vv: &Csc<T>, a_vs: &Csc<T>, a_sv: &Csc<T>) {
            let kind = OrderingKind::NestedDissection;
            let elim = EliminationStructure::analyze(a_vv, &[], kind).unwrap();
            assert_eq!(elim.n_elim(), a_vv.nrows);
            let fresh = SymbolicFactorization::analyze(a_vv, &[], kind).unwrap();
            assert_same_analysis(
                &format!("{what} A_vv"),
                &elim.extend(a_vv, &[]).unwrap(),
                &fresh,
            );
            let ns = a_sv.nrows;
            for n_b in 1..=4 {
                let blk = ns.div_ceil(n_b);
                let ranges: Vec<_> = (0..n_b).map(|b| b * blk..((b + 1) * blk).min(ns)).collect();
                for rows in &ranges {
                    for cols in &ranges {
                        let (w, schur_vars) =
                            stacked_tile(a_vv, a_vs, a_sv, rows.clone(), cols.clone());
                        let fresh = SymbolicFactorization::analyze(&w, &schur_vars, kind).unwrap();
                        validate_symbolic(&fresh);
                        assert_same_analysis(
                            &format!("{what} n_b = {n_b}, W[{rows:?}, {cols:?}]"),
                            &elim.extend(&w, &schur_vars).unwrap(),
                            &fresh,
                        );
                    }
                }
            }

            // One entry more in the eliminated block, or one variable less.
            let (w, schur_vars) = stacked_tile(a_vv, a_vs, a_sv, 0..ns, 0..ns);
            let mut coo = Coo::new(w.nrows, w.ncols);
            for j in 0..w.ncols {
                for (&i, &v) in w.col(j).0.iter().zip(w.col(j).1) {
                    coo.push(i, j, v);
                }
            }
            let (i, j) = (0..a_vv.nrows)
                .flat_map(|j| (0..a_vv.nrows).map(move |i| (i, j)))
                .find(|&(i, j)| !a_vv.col(j).0.contains(&i))
                .unwrap();
            coo.push(i, j, T::ONE);
            let err = elim.extend(&coo.to_csc(), &schur_vars).unwrap_err();
            assert_eq!(
                err,
                Error::PatternMismatch {
                    context: "elimination structure extension",
                    column: j
                },
                "{what}"
            );
            let mut fewer = schur_vars.clone();
            fewer.push(0);
            let err = elim.extend(&w, &fewer).unwrap_err();
            assert!(
                matches!(err, Error::DimensionMismatch { .. }),
                "{what}: {err}"
            );
        }

        let p = csolve_fembem::pipe_problem::<f64>(2_500);
        check("pipe", &local!(p.a_vv), &local!(p.a_vs), &local!(p.a_sv));
        let p = csolve_fembem::industrial_problem::<csolve_common::C64>(2_000);
        check(
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
