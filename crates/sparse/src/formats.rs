//! Sparse matrix storage: COO builder and compressed sparse column (CSC).

use csolve_common::{ByteSized, Error, Result, Scalar};
use csolve_dense::lane::{LaneShape, Rows, MAX_LANES};
use csolve_dense::{Mat, MatMut, MatRef};
use rayon::prelude::*;

/// Coordinate-format builder; duplicate entries are summed on conversion.
#[derive(Debug, Clone)]
pub struct Coo<T> {
    nrows: usize,
    ncols: usize,
    entries: Vec<(usize, usize, T)>,
}

impl<T: Scalar> Coo<T> {
    /// Empty builder for an `nrows × ncols` matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Empty builder with room for `cap` entries.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        Self {
            nrows,
            ncols,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Append the entry `A[i, j] += v`.
    pub fn push(&mut self, i: usize, j: usize, v: T) {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.entries.push((i, j, v));
    }

    /// Number of entries pushed so far (duplicates counted separately).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Convert to CSC, summing duplicates and dropping exact zeros.
    pub fn to_csc(&self) -> Csc<T> {
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        order.sort_unstable_by_key(|&e| {
            let (i, j, _) = self.entries[e];
            (j, i)
        });
        let mut colptr = vec![0usize; self.ncols + 1];
        let mut rowidx = Vec::with_capacity(self.entries.len());
        let mut values = Vec::with_capacity(self.entries.len());
        for &e in &order {
            let (i, j, v) = self.entries[e];
            rowidx.push(i);
            values.push(v);
            colptr[j + 1] += 1;
        }
        for j in 0..self.ncols {
            colptr[j + 1] += colptr[j];
        }
        // Merge duplicates within each (sorted) column in a second pass.
        let mut out_colptr = vec![0usize; self.ncols + 1];
        let mut out_rows = Vec::with_capacity(rowidx.len());
        let mut out_vals = Vec::with_capacity(values.len());
        for j in 0..self.ncols {
            let start = colptr[j];
            let end = colptr[j + 1];
            let mut p = start;
            while p < end {
                let i = rowidx[p];
                let mut v = values[p];
                let mut q = p + 1;
                while q < end && rowidx[q] == i {
                    v += values[q];
                    q += 1;
                }
                if v != T::ZERO {
                    out_rows.push(i);
                    out_vals.push(v);
                }
                p = q;
            }
            out_colptr[j + 1] = out_rows.len();
        }
        Csc {
            nrows: self.nrows,
            ncols: self.ncols,
            colptr: out_colptr,
            rowidx: out_rows,
            values: out_vals,
        }
    }
}

/// Compressed sparse column matrix with sorted row indices per column.
#[derive(Debug, Clone, PartialEq)]
pub struct Csc<T> {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Column pointers (`ncols + 1` entries, monotone, starting at 0).
    pub colptr: Vec<usize>,
    /// Row index of each stored entry, sorted within each column.
    pub rowidx: Vec<usize>,
    /// Value of each stored entry, parallel to `rowidx`.
    pub values: Vec<T>,
}

impl<T> ByteSized for Csc<T> {
    fn byte_size(&self) -> usize {
        self.colptr.capacity() * std::mem::size_of::<usize>()
            + self.rowidx.capacity() * std::mem::size_of::<usize>()
            + self.values.capacity() * std::mem::size_of::<T>()
    }
}

impl<T: Scalar> Csc<T> {
    /// Empty (all-zero) matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            colptr: vec![0; ncols + 1],
            rowidx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of stored (structurally nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.rowidx.len()
    }

    /// Validate structural invariants (sorted, in-bounds, monotone colptr).
    pub fn check(&self) -> Result<()> {
        if self.colptr.len() != self.ncols + 1 || self.colptr[0] != 0 {
            return Err(Error::MalformedMatrix("bad colptr".into()));
        }
        for j in 0..self.ncols {
            if self.colptr[j] > self.colptr[j + 1] {
                return Err(Error::MalformedMatrix("colptr not monotone".into()));
            }
            let mut prev: Option<usize> = None;
            for p in self.colptr[j]..self.colptr[j + 1] {
                let i = self.rowidx[p];
                if i >= self.nrows {
                    return Err(Error::MalformedMatrix(format!(
                        "row index {i} out of bounds in column {j}"
                    )));
                }
                if let Some(pr) = prev {
                    if i <= pr {
                        return Err(Error::MalformedMatrix(format!(
                            "unsorted/duplicate rows in column {j}"
                        )));
                    }
                }
                prev = Some(i);
            }
        }
        if *self.colptr.last().unwrap() != self.rowidx.len()
            || self.rowidx.len() != self.values.len()
        {
            return Err(Error::MalformedMatrix("length mismatch".into()));
        }
        Ok(())
    }

    /// Column `j` as (rows, values) slices.
    #[inline]
    pub fn col(&self, j: usize) -> (&[usize], &[T]) {
        let r = self.colptr[j]..self.colptr[j + 1];
        (&self.rowidx[r.clone()], &self.values[r])
    }

    /// Entry lookup by binary search (tests / assembly).
    pub fn get(&self, i: usize, j: usize) -> T {
        let (rows, vals) = self.col(j);
        match rows.binary_search(&i) {
            Ok(p) => vals[p],
            Err(_) => T::ZERO,
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Csc<T> {
        let mut counts = vec![0usize; self.nrows + 1];
        for &i in &self.rowidx {
            counts[i + 1] += 1;
        }
        for i in 0..self.nrows {
            counts[i + 1] += counts[i];
        }
        let mut colptr = counts.clone();
        let mut rowidx = vec![0usize; self.nnz()];
        let mut values = vec![T::ZERO; self.nnz()];
        for j in 0..self.ncols {
            for p in self.colptr[j]..self.colptr[j + 1] {
                let i = self.rowidx[p];
                let dst = colptr[i];
                rowidx[dst] = j;
                values[dst] = self.values[p];
                colptr[i] += 1;
            }
        }
        Csc {
            nrows: self.ncols,
            ncols: self.nrows,
            colptr: counts,
            rowidx,
            values,
        }
    }

    /// Symmetric permutation `A(p, p)` where `perm[new] = old`.
    pub fn permute_sym(&self, perm: &[usize]) -> Csc<T> {
        assert_eq!(self.nrows, self.ncols);
        assert_eq!(perm.len(), self.ncols);
        let mut inv = vec![0usize; perm.len()];
        for (new, &old) in perm.iter().enumerate() {
            inv[old] = new;
        }
        let mut coo = Coo::with_capacity(self.nrows, self.ncols, self.nnz());
        for j in 0..self.ncols {
            for p in self.colptr[j]..self.colptr[j + 1] {
                coo.push(inv[self.rowidx[p]], inv[j], self.values[p]);
            }
        }
        coo.to_csc()
    }

    /// Extract the submatrix `A[rows, cols]` (index lists, not necessarily
    /// sorted). Positions are looked up via an inverse map.
    pub fn submatrix(&self, rows: &[usize], cols: &[usize]) -> Csc<T> {
        let mut inv_row = vec![usize::MAX; self.nrows];
        for (new, &old) in rows.iter().enumerate() {
            inv_row[old] = new;
        }
        let mut coo = Coo::new(rows.len(), cols.len());
        for (newj, &oldj) in cols.iter().enumerate() {
            for p in self.colptr[oldj]..self.colptr[oldj + 1] {
                let ni = inv_row[self.rowidx[p]];
                if ni != usize::MAX {
                    coo.push(ni, newj, self.values[p]);
                }
            }
        }
        coo.to_csc()
    }

    /// `C ← α·A·B + β·C` with dense `B`, `C` (SpMM). Parallel over RHS
    /// column chunks. The non-empty columns of `A` are listed once per call
    /// and the right-hand sides walk that list four at a time (in ascending
    /// order and with [`Csc::matvec`]'s operations per column, so the bits
    /// are those of one `matvec` per column): a coupling block touches a
    /// fraction of the volume unknowns, and four columns share every index
    /// load.
    pub fn mul_dense(&self, alpha: T, b: MatRef<'_, T>, beta: T, c: MatMut<'_, T>) {
        assert_eq!(b.nrows(), self.ncols, "spmm: B rows");
        assert_eq!(c.nrows(), self.nrows, "spmm: C rows");
        assert_eq!(b.ncols(), c.ncols(), "spmm: cols");
        let nrhs = b.ncols();
        let cols: Vec<usize> = (0..self.ncols)
            .filter(|&k| self.colptr[k] < self.colptr[k + 1])
            .collect();
        let run = |j0: usize, mut blk: MatMut<'_, T>| {
            let (w, nz) = (blk.ncols(), || cols.iter().copied());
            for j in (0..w - w % 4).step_by(4) {
                let x: [&[T]; 4] = std::array::from_fn(|jj| b.col(j0 + j + jj));
                self.mul_cols(nz(), alpha, x, beta, &mut blk, j);
            }
            for j in w - w % 4..w {
                self.mul_cols(nz(), alpha, [b.col(j0 + j)], beta, &mut blk, j);
            }
        };
        let work = self.nnz() as f64 * nrhs as f64;
        if work < 1e5 || rayon::current_num_threads() == 1 || nrhs == 1 {
            run(0, c);
        } else {
            let chunks = c.col_chunks_mut(nrhs.div_ceil(4 * rayon::current_num_threads()).max(1));
            let mut j0 = 0;
            let tagged: Vec<_> = chunks
                .into_iter()
                .map(|blk| {
                    let t = (j0, blk);
                    j0 += t.1.ncols();
                    t
                })
                .collect();
            tagged.into_par_iter().for_each(|(j0, blk)| run(j0, blk));
        }
    }

    /// `Z ← α·A[r0.., :]·Y` for the right-hand sides held as the lanes of a
    /// row-major workspace `y` of shape `sh` ([`csolve_dense::lane`]): row
    /// `k` of `Y` is workspace row `rows.get(k)`, and `z` has the rows
    /// `r0..` of `A` and `sh.lanes()` columns. Every element sees
    /// [`Csc::mul_dense`]'s operation sequence at `β = 0` — zero fill, the
    /// non-empty columns of `A` in ascending order, `s = α·y`, an exact-zero
    /// `s` skipped in its own lane — so `z` has the bits of `mul_dense` on the
    /// column-major `Y`, which need never exist, in the rows it covers: the
    /// entries of `A` above row `r0` are skipped and cost nothing. The rows
    /// of `Z` accumulate side by side, then are written out once.
    pub fn mul_lanes(
        &self,
        alpha: T,
        sh: LaneShape,
        y: &[f64],
        rows: Rows<'_>,
        r0: usize,
        mut z: MatMut<'_, T>,
    ) {
        let w = sh.lanes();
        assert_eq!(r0 + z.nrows(), self.nrows, "lane spmm: Z rows");
        assert_eq!(z.ncols(), w, "lane spmm: Z cols");
        let mut acc = vec![T::ZERO; z.nrows() * w];
        let mut s = [T::ZERO; MAX_LANES];
        let s = &mut s[..w];
        for k in 0..self.ncols {
            let entries = self.colptr[k]..self.colptr[k + 1];
            if !self.rowidx[entries.clone()].iter().any(|&i| i >= r0) {
                continue;
            }
            let r = rows.get(k);
            for (j, s) in s.iter_mut().enumerate() {
                *s = alpha * sh.get::<T>(y, r, j);
            }
            // No zero among them (the common case): no test per entry.
            let dense = s.iter().all(|v| *v != T::ZERO);
            for p in entries.filter(|&p| self.rowidx[p] >= r0) {
                let (i, v) = (self.rowidx[p] - r0, self.values[p]);
                let row = &mut acc[i * w..(i + 1) * w];
                for (c, &s) in row.iter_mut().zip(s.iter()) {
                    if dense || s != T::ZERO {
                        *c += s * v;
                    }
                }
            }
        }
        for j in 0..w {
            for (zi, row) in z.col_mut(j).iter_mut().zip(acc.chunks_exact(w)) {
                *zi = row[j];
            }
        }
    }

    /// Stored entries in the rows `r0..`.
    pub fn nnz_from_row(&self, r0: usize) -> usize {
        self.rowidx.iter().filter(|&&i| i >= r0).count()
    }

    /// `y ← α·A·x + β·y` (one column of [`Csc::mul_dense`]).
    pub fn matvec(&self, alpha: T, x: &[T], beta: T, y: &mut [T]) {
        assert_eq!(x.len(), self.ncols, "spmv: x length");
        let mut y = MatMut::from_col_major(self.nrows, 1, y);
        self.mul_cols(0..self.ncols, alpha, [x], beta, &mut y, 0);
    }

    /// `y ← α·A·x + β·y` for `W` vector pairs at once, `y` the columns
    /// `j0 .. j0 + W` of `c`, walking the columns `cols` of `A` (ascending;
    /// the others must be empty). Each pair sees the same operations in the
    /// same order whatever `W` is — a multiplier that is exactly zero is
    /// skipped for its own pair only.
    fn mul_cols<const W: usize>(
        &self,
        cols: impl Iterator<Item = usize>,
        alpha: T,
        x: [&[T]; W],
        beta: T,
        c: &mut MatMut<'_, T>,
        j0: usize,
    ) {
        assert_eq!(c.nrows(), self.nrows, "spmv: y length");
        for j in 0..W {
            let y = c.col_mut(j0 + j);
            if beta == T::ZERO {
                y.fill(T::ZERO);
            } else if beta != T::ONE {
                for v in y.iter_mut() {
                    *v *= beta;
                }
            }
        }
        for k in cols {
            let s: [T; W] = std::array::from_fn(|j| alpha * x[j][k]);
            // No zero among them (the common case): no test per entry.
            let dense = s.iter().all(|v| *v != T::ZERO);
            for p in self.colptr[k]..self.colptr[k + 1] {
                let (i, v) = (self.rowidx[p], self.values[p]);
                for j in 0..W {
                    if dense || s[j] != T::ZERO {
                        c.col_mut(j0 + j)[i] += s[j] * v;
                    }
                }
            }
        }
    }

    /// Dense copy (tests / small matrices).
    pub fn to_dense(&self) -> Mat<T> {
        let mut m = Mat::zeros(self.nrows, self.ncols);
        for j in 0..self.ncols {
            for p in self.colptr[j]..self.colptr[j + 1] {
                m[(self.rowidx[p], j)] = self.values[p];
            }
        }
        m
    }

    /// Build from a dense matrix, dropping zeros (tests).
    pub fn from_dense(a: &Mat<T>) -> Self {
        let mut coo = Coo::new(a.nrows(), a.ncols());
        for j in 0..a.ncols() {
            for i in 0..a.nrows() {
                if a[(i, j)] != T::ZERO {
                    coo.push(i, j, a[(i, j)]);
                }
            }
        }
        coo.to_csc()
    }

    /// Structurally symmetrized pattern `A + Aᵀ` (values summed where both
    /// present — pattern use only cares about structure).
    pub fn symmetrized_pattern(&self) -> Vec<Vec<usize>> {
        assert_eq!(self.nrows, self.ncols);
        let at = self.transpose();
        let mut adj = vec![Vec::new(); self.ncols];
        for j in 0..self.ncols {
            let (r1, _) = self.col(j);
            let (r2, _) = at.col(j);
            let mut merged = Vec::with_capacity(r1.len() + r2.len());
            let (mut a, mut b) = (0, 0);
            while a < r1.len() || b < r2.len() {
                let x = if a < r1.len() { r1[a] } else { usize::MAX };
                let y = if b < r2.len() { r2[b] } else { usize::MAX };
                let m = x.min(y);
                if x == m {
                    a += 1;
                }
                if y == m {
                    b += 1;
                }
                if m != j {
                    merged.push(m);
                }
            }
            adj[j] = merged;
        }
        adj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csolve_dense::{gemm_into, Op};
    use rand::SeedableRng;

    fn rand_sparse(n: usize, m: usize, density: f64, seed: u64) -> Csc<f64> {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut coo = Coo::new(n, m);
        for j in 0..m {
            for i in 0..n {
                if rng.random::<f64>() < density {
                    coo.push(i, j, rng.random_range(-1.0..1.0));
                }
            }
        }
        coo.to_csc()
    }

    #[test]
    fn coo_roundtrip_with_duplicates() {
        let mut coo = Coo::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(2, 1, 3.0);
        coo.push(0, 0, 2.0); // duplicate → summed
        coo.push(1, 2, -1.0);
        coo.push(2, 2, 4.0);
        coo.push(2, 2, -4.0); // cancels to zero → dropped
        let a = coo.to_csc();
        a.check().unwrap();
        assert_eq!(a.get(0, 0), 3.0);
        assert_eq!(a.get(2, 1), 3.0);
        assert_eq!(a.get(1, 2), -1.0);
        assert_eq!(a.get(2, 2), 0.0);
        assert_eq!(a.nnz(), 3);
    }

    #[test]
    fn transpose_involution() {
        let a = rand_sparse(10, 7, 0.3, 1);
        let att = a.transpose().transpose();
        assert_eq!(a, att);
        let mut d = a.to_dense().transpose();
        d.axpy(-1.0, &a.transpose().to_dense());
        assert_eq!(d.norm_max(), 0.0);
    }

    #[test]
    fn spmm_matches_dense() {
        let a = rand_sparse(12, 9, 0.25, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let b = Mat::<f64>::random(9, 4, &mut rng);
        let mut c = Mat::<f64>::random(12, 4, &mut rng);
        let c0 = c.clone();
        a.mul_dense(2.0, b.as_ref(), -1.0, c.as_mut());
        let mut want = gemm_into(a.to_dense().as_ref(), Op::NoTrans, b.as_ref(), Op::NoTrans);
        want.scale(2.0);
        want.axpy(-1.0, &c0);
        let mut d = c;
        d.axpy(-1.0, &want);
        assert!(d.norm_max() < 1e-12);
    }

    /// `mul_dense` lists the non-empty columns once and takes four
    /// right-hand sides through them together; every column must still come
    /// out with the bits of its own `matvec` — empty columns of `A`, exact
    /// `0.0` / `-0.0` multipliers and a whole zero column of `B` included —
    /// at 1 and 4 threads (the parallel path cuts the columns differently).
    #[test]
    fn spmm_gives_each_column_its_matvec_bits() {
        use rand::Rng;
        let mut coo = Coo::new(40, 300);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        for j in (0..300).filter(|j| j % 6 == 1) {
            for _ in 0..5 {
                coo.push(rng.random_range(0..40), j, rng.random_range(-1.0..1.0));
            }
        }
        let a = coo.to_csc();
        for w in [1usize, 3, 4, 5, 9, 70] {
            let mut b = Mat::<f64>::random(300, w, &mut rng);
            for j in 0..w {
                b[((1 + 6 * j) % 300, j)] = 0.0;
                b[((7 + 6 * j) % 300, j)] = -0.0;
            }
            b.col_mut(w / 2).fill(0.0);
            let mut c0 = Mat::<f64>::random(40, w, &mut rng);
            c0[(0, 0)] = -0.0;
            for (alpha, beta) in [(1.0, 0.0), (-1.0, 1.0), (1.5, -0.5)] {
                let mut want = c0.clone();
                for j in 0..w {
                    a.matvec(alpha, b.col(j), beta, want.col_mut(j));
                }
                for threads in [1usize, 4] {
                    let mut c = c0.clone();
                    rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .unwrap()
                        .install(|| a.mul_dense(alpha, b.as_ref(), beta, c.as_mut()));
                    let bits =
                        |m: &Mat<f64>| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert!(bits(&c) == bits(&want), "width {w}, {threads} threads");
                }
            }
        }
    }

    /// `mul_lanes` reads `Y` out of a permuted lane workspace and must give
    /// each column the bits `mul_dense` gives it from the column-major `Y`,
    /// in every row it computes:
    /// exact `0.0` / `-0.0` entries, a whole zero column and empty columns
    /// of `A` included, for `f64` and `C64`, at widths below, at and across
    /// a line.
    #[test]
    fn lane_spmm_matches_mul_dense_bitwise() {
        fn check<T: Scalar>(seed: u64) {
            use csolve_common::RealScalar;
            use csolve_dense::lane::{self, LaneBuf};
            use rand::Rng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (m, n) = (40, 300);
            let mut coo = Coo::new(m, n);
            for j in (0..n).filter(|j| j % 5 != 2) {
                for _ in 0..3 {
                    coo.push(
                        rng.random_range(0..m),
                        j,
                        T::from_f64(rng.random_range(-1.0..1.0)),
                    );
                }
            }
            let a = coo.to_csc();
            // Workspace row perm[k] holds row k of Y.
            let mut perm: Vec<usize> = (0..n).collect();
            perm.reverse();
            perm.swap(3, 100);
            let bits = |m: &Mat<T>| {
                let f = |v: T::Real| v.to_f64().to_bits();
                m.data()
                    .iter()
                    .map(|v| (f(v.real()), f(v.imag())))
                    .collect::<Vec<_>>()
            };
            for w in [1usize, 3, 8, 13, 32] {
                let mut y = Mat::<T>::random(n, w, &mut rng);
                for j in 0..w {
                    y[((1 + 5 * j) % n, j)] = T::ZERO;
                    y[((7 + 5 * j) % n, j)] = T::from_f64(-0.0);
                }
                y.col_mut(w / 2).fill(T::ZERO);
                let sh = LaneShape::new::<T>(w);
                let mut ws = LaneBuf::zeros(sh, n);
                lane::load_rows(sh, ws.as_mut_slice(), y.as_ref(), Rows::At(&perm, 0));
                for alpha in [T::ONE, T::from_f64(-1.5)] {
                    let mut want = Mat::<T>::random(m, w, &mut rng);
                    a.mul_dense(alpha, y.as_ref(), T::ZERO, want.as_mut());
                    // All rows, and the rows from r0 on alone.
                    for r0 in [0, 17, m] {
                        let mut got = Mat::<T>::random(m - r0, w, &mut rng);
                        let y = ws.as_slice();
                        a.mul_lanes(alpha, sh, y, Rows::At(&perm, 0), r0, got.as_mut());
                        let want = want.submatrix(r0..m, 0..w);
                        assert!(bits(&got) == bits(&want), "width {w}, rows {r0}..");
                    }
                }
            }
        }
        check::<f64>(21);
        check::<csolve_common::C64>(22);
    }

    #[test]
    fn matvec_matches() {
        let a = rand_sparse(8, 8, 0.4, 4);
        let x: Vec<f64> = (0..8).map(|i| i as f64 - 3.0).collect();
        let mut y = vec![1.0; 8];
        a.matvec(1.0, &x, 2.0, &mut y);
        let d = a.to_dense();
        let mut want = vec![2.0; 8];
        for i in 0..8 {
            for k in 0..8 {
                want[i] += d[(i, k)] * x[k];
            }
        }
        for (g, w) in y.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12);
        }
    }

    #[test]
    fn permute_sym_correct() {
        let a = rand_sparse(6, 6, 0.5, 5);
        let perm = vec![3usize, 1, 5, 0, 2, 4];
        let ap = a.permute_sym(&perm);
        ap.check().unwrap();
        let d = a.to_dense();
        for new_i in 0..6 {
            for new_j in 0..6 {
                assert_eq!(ap.get(new_i, new_j), d[(perm[new_i], perm[new_j])]);
            }
        }
    }

    #[test]
    fn submatrix_extraction() {
        let a = rand_sparse(8, 8, 0.4, 6);
        let rows = vec![1usize, 4, 6];
        let cols = vec![0usize, 3, 7, 5];
        let s = a.submatrix(&rows, &cols);
        s.check().unwrap();
        assert_eq!(s.nrows, 3);
        assert_eq!(s.ncols, 4);
        for (ni, &oi) in rows.iter().enumerate() {
            for (nj, &oj) in cols.iter().enumerate() {
                assert_eq!(s.get(ni, nj), a.get(oi, oj));
            }
        }
    }

    #[test]
    fn symmetrized_pattern_no_diag_sorted() {
        let a = rand_sparse(10, 10, 0.2, 7);
        let adj = a.symmetrized_pattern();
        let d = a.to_dense();
        for (j, nbrs) in adj.iter().enumerate() {
            // sorted, unique, no self loops
            for w in nbrs.windows(2) {
                assert!(w[0] < w[1]);
            }
            assert!(!nbrs.contains(&j));
            for &i in nbrs {
                assert!(d[(i, j)] != 0.0 || d[(j, i)] != 0.0);
            }
        }
    }

    #[test]
    fn check_rejects_malformed() {
        let mut a = rand_sparse(5, 5, 0.5, 8);
        a.rowidx[0] = 99;
        assert!(a.check().is_err());
    }

    #[test]
    fn empty_and_zero_matrices() {
        let z = Csc::<f64>::zeros(4, 3);
        z.check().unwrap();
        assert_eq!(z.nnz(), 0);
        let mut y = vec![1.0; 4];
        z.matvec(1.0, &[1.0; 3], 0.0, &mut y);
        assert!(y.iter().all(|&v| v == 0.0));
    }
}
