//! Block-column lower storage of a symmetric matrix: the half an LDLᵀ
//! reads.
//!
//! Column block `J` covers the columns `J·b .. min((J+1)·b, n)` and holds
//! their rows `J·b .. n` as one column-major matrix, so every kernel sees a
//! plain strided view of it; the blocks lie one after the other in a single
//! allocation. Only the entries on or below the diagonal belong to the
//! matrix. The strictly upper part of each diagonal `b × b` block is storage
//! nothing reads (the factorization's trailing update writes it, harmlessly,
//! as it writes a full matrix's upper triangle).
//!
//! The layout stores `Σ_J (n − J·b)·min(b, n − J·b)` entries —
//! `n²/2 + n·b/2` when `b` divides `n`. A full `n × n` matrix is the
//! single-block case `b = n` (`BlockLower::from(mat)`, no copy), which is
//! how the one blocked LDLᵀ of [`crate::factor`] serves both.

use std::ops::Index;

use csolve_common::{ByteSized, Scalar};

use crate::gemm::Op;
use crate::lane::{self, LaneShape, Update};
use crate::mat::{Mat, MatMut, MatRef};
use crate::trsm::{Diag, Tri};

/// Columns one GEMM of the LDLᵀ trailing update covers within the panel's
/// own block: narrow enough to bound the redundant above-diagonal work to
/// about half of it, wide enough to keep each product large.
pub(crate) const TRAIL_COLS: usize = 128;

/// Width of the column blocks a half-stored matrix factored with panel width
/// `nb` uses (`0` selects [`crate::DEFAULT_PANEL_NB`]): the LDLᵀ
/// trailing-update width, 128 columns, rounded up to a whole number of
/// panels, so no factor panel straddles two blocks — 144 at the default 48.
pub fn lower_block_width(nb: usize) -> usize {
    let nb = if nb == 0 {
        crate::factor::DEFAULT_PANEL_NB
    } else {
        nb
    };
    TRAIL_COLS.div_ceil(nb) * nb
}

/// Shape of a block-column lower layout: order `n`, block width `b ≥ 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Geometry {
    pub(crate) n: usize,
    pub(crate) b: usize,
}

impl Geometry {
    /// `b` is clamped to `1 ..= n` (one block when it is at least `n`).
    pub(crate) fn new(n: usize, b: usize) -> Self {
        Self {
            n,
            b: b.min(n).max(1),
        }
    }

    pub(crate) fn blocks(self) -> usize {
        self.n.div_ceil(self.b)
    }

    /// First column and width of block `j`.
    pub(crate) fn cols(self, j: usize) -> (usize, usize) {
        let c0 = j * self.b;
        (c0, self.b.min(self.n - c0))
    }

    /// Offset of block `j` in the storage: every earlier block is `b` wide.
    pub(crate) fn offset(self, j: usize) -> usize {
        self.b * (j * self.n - self.b * (j * j.saturating_sub(1) / 2))
    }

    /// Entries block `j` stores.
    pub(crate) fn block_len(self, j: usize) -> usize {
        let (c0, w) = self.cols(j);
        (self.n - c0) * w
    }

    /// Entries the whole layout stores.
    pub(crate) fn len(self) -> usize {
        match self.blocks() {
            0 => 0,
            k => self.offset(k - 1) + self.block_len(k - 1),
        }
    }

    /// Storage index of entry `(i, j)`, `i` on or below the first row of
    /// `j`'s block.
    pub(crate) fn index(self, i: usize, j: usize) -> usize {
        let blk = j / self.b;
        let c0 = blk * self.b;
        assert!(
            i < self.n && j < self.n && i >= c0,
            "({i}, {j}) is not stored"
        );
        self.offset(blk) + (j - c0) * (self.n - c0) + (i - c0)
    }

    /// Block `j` of `data` as a mutable `(n − c0) × w` view, its first
    /// column `c0`, and the blocks after it.
    pub(crate) fn split_mut<T: Scalar>(
        self,
        data: &mut [T],
        j: usize,
    ) -> (usize, MatMut<'_, T>, &mut [T]) {
        let (c0, w) = self.cols(j);
        let rest = &mut data[self.offset(j)..];
        let (blk, later) = rest.split_at_mut(self.block_len(j));
        (c0, MatMut::from_col_major(self.n - c0, w, blk), later)
    }
}

/// A symmetric matrix stored as its lower triangle in column blocks (see the
/// module docs).
#[derive(Clone, PartialEq)]
pub struct BlockLower<T> {
    n: usize,
    b: usize,
    data: Vec<T>,
}

impl<T: Scalar> BlockLower<T> {
    /// Zero matrix of order `n` in blocks of `b` columns.
    pub fn zeros(n: usize, b: usize) -> Self {
        let g = Geometry::new(n, b);
        Self {
            n,
            b: g.b,
            data: vec![T::ZERO; g.len()],
        }
    }

    /// Entries the layout of order `n` in blocks of `b` columns stores:
    /// `Σ_J (n − J·b)·min(b, n − J·b)`.
    pub fn stored_len(n: usize, b: usize) -> usize {
        Geometry::new(n, b).len()
    }

    /// The lower triangle of the square `a`, repacked in place into blocks
    /// of `b` columns (the upper triangle is dropped; the storage shrinks to
    /// the layout's).
    pub fn from_full(a: Mat<T>, b: usize) -> Self {
        assert!(a.is_square(), "BlockLower::from_full: square matrix");
        let n = a.nrows();
        let g = Geometry::new(n, b);
        let mut data: Vec<T> = a.into();
        // Column `c` moves from `c·n + c0` to its place in block `c / b`:
        // never past its source, and never past `(c+1)·n`, where the
        // columns still to move start. One block is the matrix as it lies.
        if g.blocks() > 1 {
            for c in 0..n {
                let c0 = c / g.b * g.b;
                let to = g.index(c0, c);
                data.copy_within(c * n + c0..(c + 1) * n, to);
            }
        }
        data.truncate(g.len());
        data.shrink_to_fit();
        Self { n, b: g.b, data }
    }

    pub(crate) fn geometry(&self) -> Geometry {
        Geometry::new(self.n, self.b)
    }

    /// Order of the matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Every stored value, block after block.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    pub(crate) fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Column block `j`: its first column `c0` and its `(n − c0) × w` view
    /// (row 0 is row `c0` of the matrix).
    pub fn block(&self, j: usize) -> (usize, MatRef<'_, T>) {
        let g = self.geometry();
        let (c0, w) = g.cols(j);
        let at = g.offset(j);
        let v = MatRef::from_col_major(self.n - c0, w, &self.data[at..at + g.block_len(j)]);
        (c0, v)
    }

    /// Mutable [`BlockLower::block`].
    pub fn block_mut(&mut self, j: usize) -> (usize, MatMut<'_, T>) {
        let (c0, v, _) = self.geometry().split_mut(&mut self.data, j);
        (c0, v)
    }

    /// Number of column blocks.
    pub fn blocks(&self) -> usize {
        self.geometry().blocks()
    }

    /// `S[r0.., c0..] += α·panel` on the entries on or below the diagonal;
    /// the panel's entries above it are not read. Each stored entry gets
    /// `s + α·p`, the operation of [`MatMut::axpy`].
    pub fn axpy_lower(&mut self, alpha: T, r0: usize, c0: usize, panel: MatRef<'_, T>) {
        let (pm, pn) = (panel.nrows(), panel.ncols());
        assert!(
            r0 + pm <= self.n && c0 + pn <= self.n,
            "axpy_lower: panel out of range"
        );
        let g = self.geometry();
        for c in c0..c0 + pn {
            // Rows of the panel on or below the diagonal of column `c`.
            let i0 = r0.max(c);
            if i0 >= r0 + pm {
                continue;
            }
            let at = g.index(i0, c);
            let src = &panel.col(c - c0)[i0 - r0..];
            for (x, y) in self.data[at..at + src.len()].iter_mut().zip(src) {
                *x += alpha * *y;
            }
        }
    }

    /// The symmetric matrix in full: the upper triangle read off the lower
    /// one (plain transpose).
    pub fn to_full(&self) -> Mat<T> {
        Mat::from_fn(self.n, self.n, |i, j| {
            if i >= j {
                self[(i, j)]
            } else {
                self[(j, i)]
            }
        })
    }

    /// `x ← L⁻¹·x` (`op = NoTrans`) or `x ← L⁻ᵀ·x` (`op = Trans`, the
    /// plain transpose) for the unit lower `L` stored below the diagonal,
    /// on the `n` rows of a lane workspace ([`lane`]): one lane triangle per
    /// column block — its diagonal block, with the rows below it as a
    /// trapezoid ([`lane::solve_tri`]) — blocks in order forward, in reverse
    /// backward. Each row gets its terms in the order the single triangle of
    /// a full `L` gives them, so the bits are that triangle's at any block
    /// width.
    pub fn solve_unit_lanes(&self, sh: LaneShape, op: Op, x: &mut [f64]) {
        assert!(
            matches!(op, Op::NoTrans | Op::Trans),
            "solve_unit_lanes: L or Lᵀ"
        );
        let rl = sh.row_len();
        let run = |j: usize, x: &mut [f64]| {
            let (c0, blk) = self.block(j);
            lane::solve_tri(
                sh,
                Update::Sub,
                blk,
                Tri::Lower,
                op,
                Diag::Unit,
                &mut x[c0 * rl..],
            );
        };
        if op == Op::NoTrans {
            (0..self.blocks()).for_each(|j| run(j, x));
        } else {
            (0..self.blocks()).rev().for_each(|j| run(j, x));
        }
    }
}

/// A full matrix as the single-block layout (`b = n`): no copy.
impl<T: Scalar> From<Mat<T>> for BlockLower<T> {
    fn from(a: Mat<T>) -> Self {
        let n = a.nrows();
        Self::from_full(a, n)
    }
}

/// Entry `(i, j)` of the stored part: `i` on or below the first row of
/// `j`'s block (panics otherwise).
impl<T: Scalar> Index<(usize, usize)> for BlockLower<T> {
    type Output = T;

    fn index(&self, (i, j): (usize, usize)) -> &T {
        &self.data[self.geometry().index(i, j)]
    }
}

impl<T> ByteSized for BlockLower<T> {
    fn byte_size(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn block_width_rounds_the_trailing_width_up_to_whole_panels() {
        assert_eq!(lower_block_width(0), 144);
        assert_eq!(lower_block_width(48), 144);
        assert_eq!(lower_block_width(1), 128);
        assert_eq!(lower_block_width(33), 132);
        assert_eq!(lower_block_width(200), 200);
    }

    #[test]
    fn repacking_keeps_the_lower_triangle_and_the_closed_form_size() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for n in [0usize, 1, 5, 16, 17, 40] {
            for b in [1usize, 4, 7, 16, 64] {
                let a = Mat::<f64>::random(n, n, &mut rng);
                let l = BlockLower::from_full(a.clone(), b);
                let g = Geometry::new(n, b);
                let closed: usize = (0..g.blocks())
                    .map(|j| (n - j * g.b) * g.b.min(n - j * g.b))
                    .sum();
                assert_eq!(l.data().len(), closed, "n = {n}, b = {b}");
                assert_eq!(BlockLower::<f64>::stored_len(n, b), closed);
                for j in 0..n {
                    for i in j..n {
                        assert_eq!(l[(i, j)], a[(i, j)], "n = {n}, b = {b}, ({i}, {j})");
                    }
                }
            }
        }
    }

    #[test]
    fn axpy_lower_folds_on_and_below_the_diagonal_only() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let n = 23;
        let a = Mat::<f64>::random(n, n, &mut rng);
        let p = Mat::<f64>::random(15, 9, &mut rng);
        let (r0, c0) = (6, 4);
        let mut l = BlockLower::from_full(a.clone(), 5);
        l.axpy_lower(-0.5, r0, c0, p.as_ref());
        let mut full = a;
        full.view_mut(r0..r0 + 15, c0..c0 + 9)
            .axpy(-0.5, p.as_ref());
        for j in 0..n {
            for i in j..n {
                assert_eq!(l[(i, j)].to_bits(), full[(i, j)].to_bits(), "({i}, {j})");
            }
        }
    }
}
