//! Column-major dense matrix storage and borrowed views.
//!
//! [`Mat`] owns its data with leading dimension equal to `nrows`, so every
//! column is a contiguous slice. [`MatRef`]/[`MatMut`] are lightweight views
//! with an explicit column stride, allowing blocked kernels to operate on
//! rectangular sub-blocks without copies. Mutable views support disjoint
//! splitting (`split_at_row`, `split_at_col`, `split_2x2`), which is what the
//! blocked factorizations use to hand panel and trailing blocks to different
//! (possibly parallel) kernels.

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Index, IndexMut};

use csolve_common::{ByteSized, Scalar};

/// Owned column-major matrix.
#[derive(Clone, PartialEq)]
pub struct Mat<T> {
    nrows: usize,
    ncols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Mat<T> {
    /// Zero-filled `nrows × ncols` matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            data: vec![T::ZERO; nrows * ncols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        m
    }

    /// Build from an element function `f(i, j)`.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for j in 0..ncols {
            for i in 0..nrows {
                data.push(f(i, j));
            }
        }
        Self { nrows, ncols, data }
    }

    /// Wrap an existing column-major buffer (`data.len() == nrows * ncols`).
    pub fn from_col_major(nrows: usize, ncols: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), nrows * ncols, "column-major buffer length");
        Self { nrows, ncols, data }
    }

    /// Matrix with entries uniform in (-1, 1) (complex: both parts).
    pub fn random<R: rand::Rng + ?Sized>(nrows: usize, ncols: usize, rng: &mut R) -> Self {
        Self::from_fn(nrows, ncols, |_, _| T::rand_unit(rng))
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    pub fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// Column `j` as a contiguous slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[T] {
        debug_assert!(j < self.ncols);
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Column `j` as a contiguous mutable slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        debug_assert!(j < self.ncols);
        let n = self.nrows;
        &mut self.data[j * n..(j + 1) * n]
    }

    /// Underlying column-major buffer.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Immutable view of the full matrix.
    pub fn as_ref(&self) -> MatRef<'_, T> {
        MatRef {
            ptr: self.data.as_ptr(),
            nrows: self.nrows,
            ncols: self.ncols,
            ld: self.nrows,
            _marker: PhantomData,
        }
    }

    /// Mutable view of the full matrix.
    pub fn as_mut(&mut self) -> MatMut<'_, T> {
        MatMut {
            ptr: self.data.as_mut_ptr(),
            nrows: self.nrows,
            ncols: self.ncols,
            ld: self.nrows,
            _marker: PhantomData,
        }
    }

    /// Immutable view of the sub-block `rows × cols`.
    pub fn view(
        &self,
        rows: std::ops::Range<usize>,
        cols: std::ops::Range<usize>,
    ) -> MatRef<'_, T> {
        self.as_ref().submatrix(rows, cols)
    }

    /// Mutable view of the sub-block `rows × cols`.
    pub fn view_mut(
        &mut self,
        rows: std::ops::Range<usize>,
        cols: std::ops::Range<usize>,
    ) -> MatMut<'_, T> {
        self.as_mut().submatrix_mut(rows, cols)
    }

    /// Owned copy of a sub-block.
    pub fn submatrix(&self, rows: std::ops::Range<usize>, cols: std::ops::Range<usize>) -> Mat<T> {
        self.view(rows, cols).to_owned()
    }

    /// Plain transpose (no conjugation).
    pub fn transpose(&self) -> Mat<T> {
        Mat::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)])
    }

    /// Conjugate transpose.
    pub fn adjoint(&self) -> Mat<T> {
        Mat::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)].conj())
    }

    pub fn fill(&mut self, value: T) {
        self.data.fill(value);
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> T::Real {
        use csolve_common::RealScalar;
        self.data
            .iter()
            .map(|x| x.abs2())
            .sum::<T::Real>()
            .rsqrt_val()
    }

    /// Largest entry modulus.
    pub fn norm_max(&self) -> T::Real {
        use csolve_common::RealScalar;
        self.data
            .iter()
            .map(|x| x.abs())
            .fold(T::Real::RZERO, |a, b| a.rmax(b))
    }

    /// `true` when any entry is NaN or ±∞.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// `self += alpha * other` (same shape).
    pub fn axpy(&mut self, alpha: T, other: &Mat<T>) {
        assert_eq!(self.nrows, other.nrows);
        assert_eq!(self.ncols, other.ncols);
        for (x, y) in self.data.iter_mut().zip(&other.data) {
            *x += alpha * *y;
        }
    }

    /// Scale every entry by `alpha`.
    pub fn scale(&mut self, alpha: T) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }
}

impl<T: Scalar> Index<(usize, usize)> for Mat<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[j * self.nrows + i]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Mat<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[j * self.nrows + i]
    }
}

/// The column-major buffer back (the inverse of [`Mat::from_col_major`]).
impl<T> From<Mat<T>> for Vec<T> {
    fn from(m: Mat<T>) -> Self {
        m.data
    }
}

impl<T> ByteSized for Mat<T> {
    fn byte_size(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<T>()
    }
}

impl<T: Scalar> fmt::Debug for Mat<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.nrows, self.ncols)?;
        let show_r = self.nrows.min(8);
        let show_c = self.ncols.min(8);
        for i in 0..show_r {
            write!(f, "  ")?;
            for j in 0..show_c {
                write!(f, "{:?} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.ncols > show_c { "..." } else { "" })?;
        }
        if self.nrows > show_r {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

/// Immutable strided view into a column-major matrix.
#[derive(Clone, Copy)]
pub struct MatRef<'a, T> {
    ptr: *const T,
    nrows: usize,
    ncols: usize,
    ld: usize,
    _marker: PhantomData<&'a T>,
}

unsafe impl<T: Sync> Send for MatRef<'_, T> {}
unsafe impl<T: Sync> Sync for MatRef<'_, T> {}

impl<'a, T: Scalar> MatRef<'a, T> {
    /// View a column-major buffer (`data.len() == nrows * ncols`) as a
    /// matrix.
    pub fn from_col_major(nrows: usize, ncols: usize, data: &'a [T]) -> Self {
        assert_eq!(data.len(), nrows * ncols, "column-major buffer length");
        MatRef {
            ptr: data.as_ptr(),
            nrows,
            ncols,
            ld: nrows,
            _marker: PhantomData,
        }
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Leading dimension (column stride).
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Element `(0, 0)`; element `(i, j)` is `ld()·j + i` further on.
    pub(crate) fn as_ptr(&self) -> *const T {
        self.ptr
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.nrows && j < self.ncols);
        unsafe { *self.ptr.add(j * self.ld + i) }
    }

    /// Column `j` as a contiguous slice (length `nrows`).
    #[inline]
    pub fn col(&self, j: usize) -> &'a [T] {
        debug_assert!(j < self.ncols);
        unsafe { std::slice::from_raw_parts(self.ptr.add(j * self.ld), self.nrows) }
    }

    pub fn submatrix(
        &self,
        rows: std::ops::Range<usize>,
        cols: std::ops::Range<usize>,
    ) -> MatRef<'a, T> {
        assert!(rows.end <= self.nrows && cols.end <= self.ncols);
        assert!(rows.start <= rows.end && cols.start <= cols.end);
        MatRef {
            ptr: unsafe { self.ptr.add(cols.start * self.ld + rows.start) },
            nrows: rows.end - rows.start,
            ncols: cols.end - cols.start,
            ld: self.ld,
            _marker: PhantomData,
        }
    }

    /// Owned copy.
    pub fn to_owned(&self) -> Mat<T> {
        let mut out = Mat::zeros(self.nrows, self.ncols);
        for j in 0..self.ncols {
            out.col_mut(j).copy_from_slice(self.col(j));
        }
        out
    }

    pub fn norm_fro(&self) -> T::Real {
        use csolve_common::RealScalar;
        let mut s = T::Real::RZERO;
        for j in 0..self.ncols {
            for x in self.col(j) {
                s += x.abs2();
            }
        }
        s.rsqrt_val()
    }

    /// `true` when any entry is NaN or ±∞.
    pub fn has_non_finite(&self) -> bool {
        (0..self.ncols).any(|j| self.col(j).iter().any(|x| !x.is_finite()))
    }
}

/// Mutable strided view into a column-major matrix.
pub struct MatMut<'a, T> {
    ptr: *mut T,
    nrows: usize,
    ncols: usize,
    ld: usize,
    _marker: PhantomData<&'a mut T>,
}

unsafe impl<T: Send> Send for MatMut<'_, T> {}
unsafe impl<T: Sync> Sync for MatMut<'_, T> {}

impl<'a, T: Scalar> MatMut<'a, T> {
    /// View a caller-owned column-major buffer (`data.len() == nrows *
    /// ncols`) as a matrix — lets a loop reuse one scratch allocation for
    /// blocks of varying shape.
    pub fn from_col_major(nrows: usize, ncols: usize, data: &'a mut [T]) -> Self {
        assert_eq!(data.len(), nrows * ncols, "column-major buffer length");
        MatMut {
            ptr: data.as_mut_ptr(),
            nrows,
            ncols,
            ld: nrows,
            _marker: PhantomData,
        }
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Element `(0, 0)`; element `(i, j)` is `ld()·j + i` further on.
    pub(crate) fn as_mut_ptr(&mut self) -> *mut T {
        self.ptr
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.nrows && j < self.ncols);
        unsafe { *self.ptr.add(j * self.ld + i) }
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        debug_assert!(i < self.nrows && j < self.ncols);
        unsafe { *self.ptr.add(j * self.ld + i) = v }
    }

    /// Column `j` as a contiguous mutable slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        debug_assert!(j < self.ncols);
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(j * self.ld), self.nrows) }
    }

    #[inline]
    pub fn col(&self, j: usize) -> &[T] {
        debug_assert!(j < self.ncols);
        unsafe { std::slice::from_raw_parts(self.ptr.add(j * self.ld), self.nrows) }
    }

    /// Immutable reborrow of this view.
    pub fn rb(&self) -> MatRef<'_, T> {
        MatRef {
            ptr: self.ptr,
            nrows: self.nrows,
            ncols: self.ncols,
            ld: self.ld,
            _marker: PhantomData,
        }
    }

    /// Mutable reborrow with a shorter lifetime.
    pub fn rb_mut(&mut self) -> MatMut<'_, T> {
        MatMut {
            ptr: self.ptr,
            nrows: self.nrows,
            ncols: self.ncols,
            ld: self.ld,
            _marker: PhantomData,
        }
    }

    pub fn submatrix_mut(
        self,
        rows: std::ops::Range<usize>,
        cols: std::ops::Range<usize>,
    ) -> MatMut<'a, T> {
        assert!(rows.end <= self.nrows && cols.end <= self.ncols);
        assert!(rows.start <= rows.end && cols.start <= cols.end);
        MatMut {
            ptr: unsafe { self.ptr.add(cols.start * self.ld + rows.start) },
            nrows: rows.end - rows.start,
            ncols: cols.end - cols.start,
            ld: self.ld,
            _marker: PhantomData,
        }
    }

    /// Split into (top, bottom) at row `r`. The two views address disjoint
    /// elements (different rows of the same columns).
    pub fn split_at_row(self, r: usize) -> (MatMut<'a, T>, MatMut<'a, T>) {
        assert!(r <= self.nrows);
        let top = MatMut {
            ptr: self.ptr,
            nrows: r,
            ncols: self.ncols,
            ld: self.ld,
            _marker: PhantomData,
        };
        let bot = MatMut {
            ptr: unsafe { self.ptr.add(r) },
            nrows: self.nrows - r,
            ncols: self.ncols,
            ld: self.ld,
            _marker: PhantomData,
        };
        (top, bot)
    }

    /// Split into (left, right) at column `c`.
    pub fn split_at_col(self, c: usize) -> (MatMut<'a, T>, MatMut<'a, T>) {
        assert!(c <= self.ncols);
        let left = MatMut {
            ptr: self.ptr,
            nrows: self.nrows,
            ncols: c,
            ld: self.ld,
            _marker: PhantomData,
        };
        let right = MatMut {
            ptr: unsafe { self.ptr.add(c * self.ld) },
            nrows: self.nrows,
            ncols: self.ncols - c,
            ld: self.ld,
            _marker: PhantomData,
        };
        (left, right)
    }

    /// 2×2 split at (row `r`, col `c`): returns (a11, a12, a21, a22).
    #[allow(clippy::type_complexity)]
    pub fn split_2x2(
        self,
        r: usize,
        c: usize,
    ) -> (MatMut<'a, T>, MatMut<'a, T>, MatMut<'a, T>, MatMut<'a, T>) {
        let (left, right) = self.split_at_col(c);
        let (a11, a21) = left.split_at_row(r);
        let (a12, a22) = right.split_at_row(r);
        (a11, a12, a21, a22)
    }

    /// Split into mutable column chunks of width `chunk` (last may be
    /// smaller), suitable for `rayon` consumption.
    pub fn col_chunks_mut(self, chunk: usize) -> Vec<MatMut<'a, T>> {
        assert!(chunk > 0);
        let mut out = Vec::with_capacity(self.ncols.div_ceil(chunk));
        let mut rest = self;
        while rest.ncols > 0 {
            let w = chunk.min(rest.ncols);
            let (head, tail) = rest.split_at_col(w);
            out.push(head);
            rest = tail;
        }
        out
    }

    pub fn fill(&mut self, value: T) {
        for j in 0..self.ncols {
            self.col_mut(j).fill(value);
        }
    }

    /// Copy entries from a view of the same shape.
    pub fn copy_from(&mut self, src: MatRef<'_, T>) {
        assert_eq!(self.nrows, src.nrows());
        assert_eq!(self.ncols, src.ncols());
        for j in 0..self.ncols {
            self.col_mut(j).copy_from_slice(src.col(j));
        }
    }

    /// `self += alpha * src`.
    pub fn axpy(&mut self, alpha: T, src: MatRef<'_, T>) {
        assert_eq!(self.nrows, src.nrows());
        assert_eq!(self.ncols, src.ncols());
        for j in 0..self.ncols {
            let s = src.col(j);
            for (x, y) in self.col_mut(j).iter_mut().zip(s) {
                *x += alpha * *y;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Mat::<f64>::from_fn(3, 4, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 4);
        assert_eq!(m[(2, 3)], 23.0);
        assert_eq!(m.col(1), &[1.0, 11.0, 21.0]);
        let id = Mat::<f64>::identity(3);
        assert_eq!(id[(1, 1)], 1.0);
        assert_eq!(id[(0, 1)], 0.0);
    }

    #[test]
    fn col_major_layout() {
        let m = Mat::<f64>::from_col_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 0)], 2.0);
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 1)], 4.0);
        // The borrowed view over a caller's buffer has the same layout.
        let mut buf = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut v = MatMut::from_col_major(2, 3, &mut buf);
        assert_eq!((v.nrows(), v.ncols(), v.ld()), (2, 3, 2));
        assert_eq!(v.col(2), &[5.0, 6.0]);
        v.set(1, 1, -4.0);
        assert_eq!(buf[3], -4.0);
    }

    #[test]
    fn transpose_and_adjoint() {
        use csolve_common::C64;
        let m = Mat::<C64>::from_fn(2, 3, |i, j| C64::new(i as f64, j as f64));
        let t = m.transpose();
        let a = m.adjoint();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t[(2, 1)], m[(1, 2)]);
        assert_eq!(a[(2, 1)], m[(1, 2)].conj());
    }

    #[test]
    fn views_and_submatrices() {
        let m = Mat::<f64>::from_fn(5, 5, |i, j| (i * 5 + j) as f64);
        let v = m.view(1..4, 2..5);
        assert_eq!(v.nrows(), 3);
        assert_eq!(v.ncols(), 3);
        assert_eq!(v.get(0, 0), m[(1, 2)]);
        assert_eq!(v.get(2, 2), m[(3, 4)]);
        let owned = v.to_owned();
        assert_eq!(owned[(1, 1)], m[(2, 3)]);
        // nested submatrix
        let vv = v.submatrix(1..3, 1..2);
        assert_eq!(vv.get(0, 0), m[(2, 3)]);
    }

    #[test]
    fn mutable_splits_are_disjoint_and_consistent() {
        let mut m = Mat::<f64>::zeros(4, 4);
        {
            let (mut a11, mut a12, mut a21, mut a22) = m.as_mut().split_2x2(2, 2);
            a11.fill(1.0);
            a12.fill(2.0);
            a21.fill(3.0);
            a22.fill(4.0);
        }
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 3)], 2.0);
        assert_eq!(m[(3, 0)], 3.0);
        assert_eq!(m[(3, 3)], 4.0);
    }

    #[test]
    fn col_chunks_cover_matrix() {
        let mut m = Mat::<f64>::zeros(3, 10);
        let chunks = m.as_mut().col_chunks_mut(4);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].ncols(), 4);
        assert_eq!(chunks[2].ncols(), 2);
        for (k, mut c) in chunks.into_iter().enumerate() {
            c.fill(k as f64 + 1.0);
        }
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 5)], 2.0);
        assert_eq!(m[(2, 9)], 3.0);
    }

    #[test]
    fn norms() {
        let m = Mat::<f64>::from_col_major(2, 2, vec![3.0, 0.0, 0.0, 4.0]);
        assert!((m.norm_fro() - 5.0).abs() < 1e-14);
        assert_eq!(m.norm_max(), 4.0);
    }

    #[test]
    fn axpy_and_scale() {
        let a = Mat::<f64>::from_fn(2, 2, |i, j| (i + j) as f64);
        let mut b = Mat::<f64>::identity(2);
        b.axpy(2.0, &a);
        assert_eq!(b[(0, 0)], 1.0);
        assert_eq!(b[(1, 0)], 2.0);
        b.scale(0.5);
        assert_eq!(b[(1, 0)], 1.0);
        // view-level axpy
        let mut c = Mat::<f64>::zeros(2, 2);
        c.view_mut(0..2, 0..2).axpy(1.0, a.as_ref());
        assert_eq!(c[(1, 1)], 2.0);
    }

    #[test]
    fn copy_from_strided_view() {
        let src = Mat::<f64>::from_fn(6, 6, |i, j| (i * 6 + j) as f64);
        let mut dst = Mat::<f64>::zeros(2, 3);
        dst.as_mut().copy_from(src.view(2..4, 1..4));
        assert_eq!(dst[(0, 0)], src[(2, 1)]);
        assert_eq!(dst[(1, 2)], src[(3, 3)]);
    }

    #[test]
    fn byte_size_counts_elements() {
        let m = Mat::<f64>::zeros(10, 10);
        assert_eq!(m.byte_size(), 800);
    }
}
