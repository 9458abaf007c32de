//! The hierarchical matrix type: structure, assembly, and ε-truncated
//! arithmetic (products with dense panels, compressed AXPY, H×H products).
//!
//! Invariants maintained by assembly and preserved by arithmetic:
//!
//! * a node is `Hier` only when *both* its row and column clusters have
//!   children (2×2 aligned splits);
//! * `Dense` leaves occur only when at least one cluster is a leaf;
//! * `LowRank` leaves occur only on admissible blocks (any level).
//!
//! A symmetric matrix can be *half-stored* ([`HMatrix::assemble_symmetric`],
//! [`HMatrix::mirror_upper`]): every diagonal `Hier` node keeps
//! `[a11, a21, a22]` and holds a zero-byte `Mirror` (standing for `a21ᵀ`) in
//! its `a12` slot. Dense diagonal leaves stay full, so the stored blocks see
//! exactly the arithmetic of a full copy; only their lower triangle is part of
//! the matrix. AXPYs and `h_gemm` pass over mirror slots; a half-stored matrix
//! is assembled into, densified and factored (H-LDLᵀ), not multiplied with.
//!
//! All indices are in *cluster order*.

use csolve_common::{ByteSized, Error, RealScalar, Result, Scalar};
use csolve_dense::lane::{self, LaneShape, Rows, Update};
use csolve_dense::{gemm, Mat, MatMut, MatRef, Op};
use csolve_lowrank::{aca_plus, LowRank};

use crate::cluster::{admissible, ClusterNodeId, ClusterTree};

/// How admissible blocks are compressed at assembly time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssembleMethod {
    /// Adaptive Cross Approximation: samples `O(r(m+n))` entries. Use when
    /// entry evaluation is cheap relative to forming the dense block (BEM
    /// kernel assembly).
    Aca,
    /// Extract the dense block and compress with rank-revealing QR. Use when
    /// the entries are already materialized (compressing a dense Schur
    /// block).
    Direct,
}

/// Assembly / arithmetic options.
#[derive(Debug, Clone, Copy)]
pub struct HOptions {
    /// Relative compression tolerance ε (the paper's precision parameter).
    pub eps: f64,
    /// Admissibility parameter η.
    pub eta: f64,
    /// Rank cap for ACA before falling back to splitting/dense.
    pub max_rank: usize,
    /// How admissible blocks are compressed during assembly.
    pub method: AssembleMethod,
}

impl Default for HOptions {
    fn default() -> Self {
        Self {
            eps: 1e-3,
            eta: 2.0,
            max_rank: 256,
            method: AssembleMethod::Aca,
        }
    }
}

pub(crate) enum HKind<T: Scalar> {
    Dense(Mat<T>),
    LowRank(LowRank<T>),
    /// Children in order `[a11, a21, a12, a22]` (column-major of the 2×2).
    Hier(Box<[HMatrix<T>; 4]>),
    /// Factored dense diagonal leaf (`P·A = L·U` packed) — produced by H-LU.
    DenseLu(csolve_dense::LuFactors<T>),
    /// Factored dense diagonal leaf of a half-stored matrix (`L·D·Lᵀ`).
    DenseLdlt(csolve_dense::LdltFactors<T>),
    /// The `a12` slot of a half-stored diagonal node: `a21ᵀ`, no storage.
    Mirror,
}

/// A hierarchical matrix over cluster-ordered index ranges.
pub struct HMatrix<T: Scalar> {
    pub(crate) nrows: usize,
    pub(crate) ncols: usize,
    pub(crate) kind: HKind<T>,
}

/// Structure statistics (for the memory studies of the paper).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct HStats {
    /// Number of dense leaf blocks.
    pub dense_leaves: usize,
    /// Number of low-rank leaf blocks.
    pub lowrank_leaves: usize,
    /// Largest rank among the low-rank leaves.
    pub max_rank: usize,
    /// Bytes held by the whole structure.
    pub bytes: usize,
    /// Bytes a dense representation of the same matrix would need.
    pub dense_bytes: usize,
}

impl<T: Scalar> ByteSized for HMatrix<T> {
    fn byte_size(&self) -> usize {
        match &self.kind {
            HKind::Dense(m) => m.byte_size(),
            HKind::LowRank(lr) => lr.byte_size(),
            HKind::Hier(ch) => ch.iter().map(|c| c.byte_size()).sum(),
            HKind::DenseLu(f) => f.byte_size(),
            HKind::DenseLdlt(f) => f.byte_size(),
            HKind::Mirror => 0,
        }
    }
}

impl<T: Scalar> HMatrix<T> {
    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Zero matrix with a flat dense representation (small helper).
    pub fn zeros_dense(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            kind: HKind::Dense(Mat::zeros(nrows, ncols)),
        }
    }

    /// Assemble the block for cluster nodes `(rn, cn)` from an entry oracle
    /// in cluster order: `oracle(i, j)` with `i` in `rows.node(rn)` global
    /// positions, `j` likewise.
    pub fn assemble(
        rows: &ClusterTree,
        cols: &ClusterTree,
        rn: ClusterNodeId,
        cn: ClusterNodeId,
        oracle: &(impl Fn(usize, usize) -> T + Sync),
        opts: &HOptions,
    ) -> Self {
        Self::assemble_node(rows, cols, rn, cn, oracle, opts, false)
    }

    /// Assemble the lower block triangle of a symmetric matrix over `tree`
    /// (half storage, see the module docs): no upper block is built, and
    /// every stored block is the one [`HMatrix::assemble_root`] builds.
    pub fn assemble_symmetric(
        tree: &ClusterTree,
        oracle: &(impl Fn(usize, usize) -> T + Sync),
        opts: &HOptions,
    ) -> Self {
        Self::assemble_node(tree, tree, tree.root(), tree.root(), oracle, opts, true)
    }

    /// [`HMatrix::assemble`]; `half` marks a diagonal node of a half-stored
    /// matrix.
    #[allow(clippy::too_many_arguments)]
    fn assemble_node(
        rows: &ClusterTree,
        cols: &ClusterTree,
        rn: ClusterNodeId,
        cn: ClusterNodeId,
        oracle: &(impl Fn(usize, usize) -> T + Sync),
        opts: &HOptions,
        half: bool,
    ) -> Self {
        let r = rows.node(rn);
        let c = cols.node(cn);
        let (m, n) = (r.len(), c.len());
        let (r0, c0) = (r.begin, c.begin);

        if m == 0 || n == 0 {
            return Self::zeros_dense(m, n);
        }

        if admissible(r, c, opts.eta) {
            let eps = T::Real::from_f64_real(opts.eps);
            match opts.method {
                AssembleMethod::Aca => {
                    let local = |i: usize, j: usize| oracle(r0 + i, c0 + j);
                    if let Ok(lr) = aca_plus(&local, m, n, eps, opts.max_rank) {
                        return Self {
                            nrows: m,
                            ncols: n,
                            kind: HKind::LowRank(lr),
                        };
                    }
                    // fall through: split if possible, dense otherwise
                }
                AssembleMethod::Direct => {
                    let d = Mat::from_fn(m, n, |i, j| oracle(r0 + i, c0 + j));
                    let tol = eps * d.norm_fro();
                    let lr = LowRank::from_dense(&d, tol, opts.max_rank.min(m.min(n)));
                    if lr.rank() * (m + n) < m * n {
                        return Self {
                            nrows: m,
                            ncols: n,
                            kind: HKind::LowRank(lr),
                        };
                    }
                    return Self {
                        nrows: m,
                        ncols: n,
                        kind: HKind::Dense(d),
                    };
                }
            }
        }

        match (r.children, c.children) {
            (Some((rl, rr)), Some((cl, cr))) => {
                let build =
                    |rn, cn, half| Self::assemble_node(rows, cols, rn, cn, oracle, opts, half);
                let a12 = || {
                    if half {
                        Self::mirror(rows.node(rl).len(), cols.node(cr).len())
                    } else {
                        build(rl, cr, false)
                    }
                };
                let ((a11, a21), (a12, a22)) = rayon::join(
                    || rayon::join(|| build(rl, cl, half), || build(rr, cl, false)),
                    || rayon::join(a12, || build(rr, cr, half)),
                );
                Self {
                    nrows: m,
                    ncols: n,
                    kind: HKind::Hier(Box::new([a11, a21, a12, a22])),
                }
            }
            _ => {
                let d = Mat::from_fn(m, n, |i, j| oracle(r0 + i, c0 + j));
                Self {
                    nrows: m,
                    ncols: n,
                    kind: HKind::Dense(d),
                }
            }
        }
    }

    /// Assemble the full matrix over two cluster trees.
    pub fn assemble_root(
        rows: &ClusterTree,
        cols: &ClusterTree,
        oracle: &(impl Fn(usize, usize) -> T + Sync),
        opts: &HOptions,
    ) -> Self {
        Self::assemble(rows, cols, rows.root(), cols.root(), oracle, opts)
    }

    /// Compress an already materialized dense matrix (cluster order) into an
    /// H-matrix over the given trees.
    pub fn compress_dense(
        rows: &ClusterTree,
        cols: &ClusterTree,
        dense: &Mat<T>,
        opts: &HOptions,
    ) -> Self {
        assert_eq!(dense.nrows(), rows.len());
        assert_eq!(dense.ncols(), cols.len());
        let o = HOptions {
            method: AssembleMethod::Direct,
            ..*opts
        };
        Self::assemble_root(rows, cols, &|i, j| dense[(i, j)], &o)
    }

    /// The (row_split, col_split) of a `Hier` node.
    pub(crate) fn splits(&self) -> (usize, usize) {
        match &self.kind {
            HKind::Hier(ch) => (ch[0].nrows, ch[0].ncols),
            _ => unreachable!("splits() on a leaf"),
        }
    }

    fn mirror(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            kind: HKind::Mirror,
        }
    }

    /// Whether this is a half-stored diagonal node (a mirror in its `a12`).
    pub(crate) fn is_half(&self) -> bool {
        matches!(&self.kind, HKind::Hier(ch) if matches!(ch[2].kind, HKind::Mirror))
    }

    /// The first row the matrix stores in column `c`: 0 when it is fully
    /// stored; on half storage, the first row of the diagonal block that
    /// holds column `c` — every block above it is a mirror slot. Floors never
    /// decrease from one column to the next.
    pub fn stored_row_floor(&self, c: usize) -> usize {
        if !self.is_half() {
            return 0;
        }
        let HKind::Hier(ch) = &self.kind else {
            unreachable!()
        };
        let (rs, cs) = self.splits();
        if c < cs {
            ch[0].stored_row_floor(c)
        } else {
            rs + ch[3].stored_row_floor(c - cs)
        }
    }

    /// Turn a fully stored matrix over one cluster tree into half storage:
    /// the upper block of every diagonal node becomes a mirror slot and its
    /// storage is dropped. The stored blocks are not touched.
    pub fn mirror_upper(&mut self) {
        if let HKind::Hier(ch) = &mut self.kind {
            ch[2] = Self::mirror(ch[2].nrows, ch[2].ncols);
            ch[0].mirror_upper();
            ch[3].mirror_upper();
        }
    }

    /// `selfᵀ` (plain transpose) of a fully stored, unfactored block, with
    /// column `j` of the result divided by `d[j]` when `d` is given.
    pub(crate) fn transpose(&self, d: Option<&[T]>) -> Self {
        let kind = match &self.kind {
            HKind::Dense(m) => {
                let mut t = m.transpose();
                for (j, &dj) in d.unwrap_or_default().iter().enumerate() {
                    for x in t.col_mut(j) {
                        *x = *x / dj;
                    }
                }
                HKind::Dense(t)
            }
            HKind::LowRank(lr) => {
                // (U·Vᵀ)ᵀ = V·Uᵀ: its column i is scaled through row i of U.
                let mut v = lr.u.clone();
                for k in 0..v.ncols() {
                    for (x, &di) in v.col_mut(k).iter_mut().zip(d.unwrap_or_default()) {
                        *x = *x / di;
                    }
                }
                HKind::LowRank(LowRank::new(lr.v.clone(), v))
            }
            HKind::Hier(ch) => {
                let halves = d.map(|d| d.split_at(ch[0].nrows));
                let (d1, d2) = (halves.map(|h| h.0), halves.map(|h| h.1));
                let t = [(0, d1), (2, d1), (1, d2), (3, d2)].map(|(k, d)| ch[k].transpose(d));
                HKind::Hier(Box::new(t))
            }
            _ => unreachable!("transpose of a factored or half-stored block"),
        };
        Self {
            nrows: self.ncols,
            ncols: self.nrows,
            kind,
        }
    }

    /// Materialize as a dense matrix (tests / small problems only). A
    /// half-stored matrix comes out symmetric: its upper triangle is read off
    /// the stored lower one.
    pub fn to_dense(&self) -> Mat<T> {
        let mut out = Mat::zeros(self.nrows, self.ncols);
        self.write_dense(out.as_mut());
        if self.is_half() {
            csolve_dense::symmetrize_from_lower(&mut out);
        }
        out
    }

    fn write_dense(&self, mut out: MatMut<'_, T>) {
        match &self.kind {
            HKind::Dense(m) => out.copy_from(m.as_ref()),
            HKind::Mirror => {}
            HKind::DenseLu(_) | HKind::DenseLdlt(_) => panic!("write_dense on a factored leaf"),
            HKind::LowRank(lr) => {
                out.fill(T::ZERO);
                lr.axpy_into_dense(T::ONE, out);
            }
            HKind::Hier(ch) => {
                let (rs, cs) = self.splits();
                let (a11, a12, a21, a22) = out.split_2x2(rs, cs);
                ch[0].write_dense(a11);
                ch[1].write_dense(a21);
                ch[2].write_dense(a12);
                ch[3].write_dense(a22);
            }
        }
    }

    /// `C ← α·H·B + β·C` with dense panels in cluster order.
    pub fn mul_dense(&self, alpha: T, b: MatRef<'_, T>, beta: T, mut c: MatMut<'_, T>) {
        assert_eq!(b.nrows(), self.ncols);
        assert_eq!(c.nrows(), self.nrows);
        assert_eq!(b.ncols(), c.ncols());
        scale_panel(beta, c.rb_mut());
        self.mul_dense_acc(alpha, b, c);
    }

    fn mul_dense_acc(&self, alpha: T, b: MatRef<'_, T>, c: MatMut<'_, T>) {
        match &self.kind {
            HKind::Dense(m) => gemm(alpha, m.as_ref(), Op::NoTrans, b, Op::NoTrans, T::ONE, c),
            HKind::DenseLu(_) | HKind::DenseLdlt(_) | HKind::Mirror => {
                panic!("mul_dense on a factored leaf or a mirror slot")
            }
            HKind::LowRank(lr) => lr.mul_dense(alpha, b, Op::NoTrans, T::ONE, c),
            HKind::Hier(ch) => {
                let (rs, cs) = self.splits();
                let b1 = b.submatrix(0..cs, 0..b.ncols());
                let b2 = b.submatrix(cs..self.ncols, 0..b.ncols());
                let (mut c1, mut c2) = c.split_at_row(rs);
                ch[0].mul_dense_acc(alpha, b1, c1.rb_mut());
                ch[2].mul_dense_acc(alpha, b2, c1.rb_mut());
                ch[1].mul_dense_acc(alpha, b1, c2.rb_mut());
                ch[3].mul_dense_acc(alpha, b2, c2.rb_mut());
            }
        }
    }

    /// `C ← α·Hᵀ·B + β·C` (plain transpose).
    pub fn mul_dense_t(&self, alpha: T, b: MatRef<'_, T>, beta: T, mut c: MatMut<'_, T>) {
        assert_eq!(b.nrows(), self.nrows);
        assert_eq!(c.nrows(), self.ncols);
        scale_panel(beta, c.rb_mut());
        self.mul_dense_t_acc(alpha, b, c);
    }

    fn mul_dense_t_acc(&self, alpha: T, b: MatRef<'_, T>, c: MatMut<'_, T>) {
        match &self.kind {
            HKind::Dense(m) => gemm(alpha, m.as_ref(), Op::Trans, b, Op::NoTrans, T::ONE, c),
            HKind::DenseLu(_) | HKind::DenseLdlt(_) | HKind::Mirror => {
                panic!("mul_dense_t on a factored leaf or a mirror slot")
            }
            HKind::LowRank(lr) => lr.mul_dense_t(alpha, b, Op::NoTrans, T::ONE, c),
            HKind::Hier(ch) => {
                let (rs, cs) = self.splits();
                let b1 = b.submatrix(0..rs, 0..b.ncols());
                let b2 = b.submatrix(rs..self.nrows, 0..b.ncols());
                let (mut c1, mut c2) = c.split_at_row(cs);
                ch[0].mul_dense_t_acc(alpha, b1, c1.rb_mut());
                ch[1].mul_dense_t_acc(alpha, b2, c1.rb_mut());
                ch[2].mul_dense_t_acc(alpha, b1, c2.rb_mut());
                ch[3].mul_dense_t_acc(alpha, b2, c2.rb_mut());
            }
        }
    }

    /// `dst ±= op(H)·src` on row-major lane workspaces ([`lane`]): `dst` and
    /// `src` hold exactly the rows of `op(H)` and of its columns, `how` is
    /// [`Update::Add`] or [`Update::Sub`], `op` is `NoTrans` or `Trans` (plain
    /// transpose). A dense block is one [`lane::update_rows`]; a low-rank
    /// `U·Vᵀ` first forms `Vᵀ·src` in the leading `rank` rows of `scratch`,
    /// then adds `U` times it; a subdivided block recurses over its children.
    /// Every lane gets the operation sequence of a 1-lane call.
    pub(crate) fn update_lanes(
        &self,
        sh: LaneShape,
        (how, op): (Update, Op),
        dst: &mut [f64],
        src: &[f64],
        scratch: &mut [f64],
    ) {
        let all = Rows::From(0);
        match &self.kind {
            HKind::Dense(m) => lane::update_rows(sh, how, m.as_ref(), op, (dst, all), (src, all)),
            HKind::DenseLu(_) | HKind::DenseLdlt(_) | HKind::Mirror => {
                panic!("update_lanes on a factored leaf or a mirror slot")
            }
            HKind::LowRank(lr) => {
                // U·Vᵀ·x = U·(Vᵀ·x); (U·Vᵀ)ᵀ·x = V·(Uᵀ·x).
                let (first, second) = match op {
                    Op::NoTrans => (&lr.v, &lr.u),
                    _ => (&lr.u, &lr.v),
                };
                let t = &mut scratch[..lr.rank() * sh.row_len()];
                t.fill(0.0);
                let add = Update::Add;
                lane::update_rows(sh, add, first.as_ref(), Op::Trans, (t, all), (src, all));
                lane::update_rows(sh, how, second.as_ref(), Op::NoTrans, (dst, all), (t, all));
            }
            HKind::Hier(ch) => {
                let (rs, cs) = self.splits();
                // (child, destination half, source half), in `mul_dense`'s
                // (`mul_dense_t`'s) order.
                let (ds, ss, order) = match op {
                    Op::NoTrans => (rs, cs, [(0, 0, 0), (2, 0, 1), (1, 1, 0), (3, 1, 1)]),
                    _ => (cs, rs, [(0, 0, 0), (1, 0, 1), (2, 1, 0), (3, 1, 1)]),
                };
                let (d1, d2) = dst.split_at_mut(ds * sh.row_len());
                let (s1, s2) = src.split_at(ss * sh.row_len());
                let (dsts, srcs) = ([d1, d2], [s1, s2]);
                for (k, d, s) in order {
                    ch[k].update_lanes(sh, (how, op), dsts[d], srcs[s], scratch);
                }
            }
        }
    }

    /// `out = α·D·H + β·out` with a dense panel on the *left*.
    pub fn dense_mul_h(&self, alpha: T, d: MatRef<'_, T>, beta: T, mut out: MatMut<'_, T>) {
        assert_eq!(d.ncols(), self.nrows);
        assert_eq!(out.nrows(), d.nrows());
        assert_eq!(out.ncols(), self.ncols);
        scale_panel(beta, out.rb_mut());
        self.dense_mul_h_acc(alpha, d, out);
    }

    fn dense_mul_h_acc(&self, alpha: T, d: MatRef<'_, T>, out: MatMut<'_, T>) {
        match &self.kind {
            HKind::Dense(m) => gemm(alpha, d, Op::NoTrans, m.as_ref(), Op::NoTrans, T::ONE, out),
            HKind::DenseLu(_) | HKind::DenseLdlt(_) | HKind::Mirror => {
                panic!("dense_mul_h on a factored leaf or a mirror slot")
            }
            HKind::LowRank(lr) => {
                if lr.rank() == 0 {
                    return;
                }
                // D·U·Vᵀ
                let du = csolve_dense::gemm_into(d, Op::NoTrans, lr.u.as_ref(), Op::NoTrans);
                gemm(
                    alpha,
                    du.as_ref(),
                    Op::NoTrans,
                    lr.v.as_ref(),
                    Op::Trans,
                    T::ONE,
                    out,
                );
            }
            HKind::Hier(ch) => {
                let (rs, cs) = self.splits();
                let d1 = d.submatrix(0..d.nrows(), 0..rs);
                let d2 = d.submatrix(0..d.nrows(), rs..self.nrows);
                let (mut o1, mut o2) = out.split_at_col(cs);
                ch[0].dense_mul_h_acc(alpha, d1, o1.rb_mut());
                ch[1].dense_mul_h_acc(alpha, d2, o1.rb_mut());
                ch[2].dense_mul_h_acc(alpha, d1, o2.rb_mut());
                ch[3].dense_mul_h_acc(alpha, d2, o2.rb_mut());
            }
        }
    }

    /// Compressed AXPY of a dense block: `H[r0.., c0..] += α·panel`, with
    /// recompression of touched low-rank leaves at relative tolerance `eps`.
    /// On a half-stored matrix the parts of the panel over mirror slots are
    /// dropped.
    ///
    /// This is the core primitive of the paper's compressed-Schur variants:
    /// each dense Schur block returned by the sparse solver is folded into
    /// the compressed Schur complement through this operation, and H-LU
    /// folds its dense-leaf products through it too. Compression of the
    /// panel into low-rank leaves reports a binding rank cap as
    /// [`csolve_common::Error::CompressionFailure`] instead of silently
    /// keeping a truncated (inaccurate) approximation, and an AXPY into an
    /// already-factored leaf is a structured error rather than a panic.
    pub fn try_axpy_dense_block(
        &mut self,
        alpha: T,
        r0: usize,
        c0: usize,
        panel: MatRef<'_, T>,
        eps: T::Real,
    ) -> Result<()> {
        // Eager recompression is the `flush_rank = 0` case of the deferred
        // path: any nonzero accumulated rank triggers an immediate
        // truncation.
        self.try_axpy_dense_block_deferred(alpha, r0, c0, panel, eps, 0)
    }

    /// Deferred variant of [`HMatrix::try_axpy_dense_block`]: the panel is
    /// still compressed and folded into the touched leaves, but a low-rank
    /// leaf only recompresses itself once its accumulated formal rank
    /// exceeds `flush_rank` (eager recompression is the `flush_rank = 0`
    /// case). Deferring amortizes the `O((m+n)·r²)` recompression cost over
    /// several accumulated updates at the price of a temporarily larger
    /// representation; pair with [`HMatrix::recompress_leaves`] to restore
    /// the truncated form before measuring or factoring the accumulator.
    pub fn try_axpy_dense_block_deferred(
        &mut self,
        alpha: T,
        r0: usize,
        c0: usize,
        panel: MatRef<'_, T>,
        eps: T::Real,
        flush_rank: usize,
    ) -> Result<()> {
        let (pm, pn) = (panel.nrows(), panel.ncols());
        if pm == 0 || pn == 0 {
            return Ok(());
        }
        if r0 + pm > self.nrows || c0 + pn > self.ncols {
            return Err(Error::DimensionMismatch {
                context: "HMatrix::try_axpy_dense_block",
                expected: (self.nrows, self.ncols),
                got: (r0 + pm, c0 + pn),
            });
        }
        match &mut self.kind {
            HKind::Dense(m) => {
                let mut dst = m.view_mut(r0..r0 + pm, c0..c0 + pn);
                dst.axpy(alpha, panel);
                Ok(())
            }
            HKind::DenseLu(_) | HKind::DenseLdlt(_) => Err(Error::Internal {
                context: "compressed AXPY into an already-factored leaf",
            }),
            HKind::Mirror => Ok(()),
            HKind::LowRank(lr) => {
                let d = panel.to_owned();
                let dnorm = d.norm_fro();
                if dnorm == T::Real::RZERO {
                    // An exactly-zero panel contributes nothing; compressing
                    // it at tol = ε·0 would pivot-scan every column just to
                    // conclude rank 0.
                    return Ok(());
                }
                let tol = eps * dnorm;
                #[allow(unused_mut)]
                let mut max_rank = pm.min(pn);
                #[cfg(feature = "fault-inject")]
                {
                    max_rank = max_rank.min(crate::fault::rank_cap());
                }
                let sub = LowRank::from_dense_checked(&d, tol, max_rank)?;
                let padded = concat_padded(self.nrows, self.ncols, &[(&sub, r0, c0)]);
                *lr = lr.add(alpha, &padded);
                if lr.rank() > flush_rank {
                    lr.recompress_rel(eps);
                }
                Ok(())
            }
            HKind::Hier(_) => {
                let (rs, cs) = self.splits();
                let HKind::Hier(ch) = &mut self.kind else {
                    unreachable!()
                };
                let top = r0 < rs;
                let bot = r0 + pm > rs;
                let left = c0 < cs;
                let right = c0 + pn > cs;
                let rmid = rs.saturating_sub(r0).min(pm);
                let cmid = cs.saturating_sub(c0).min(pn);
                let rb = r0.saturating_sub(rs);
                let cr = c0.saturating_sub(cs);
                if top && left {
                    ch[0].try_axpy_dense_block_deferred(
                        alpha,
                        r0,
                        c0,
                        panel.submatrix(0..rmid, 0..cmid),
                        eps,
                        flush_rank,
                    )?;
                }
                if bot && left {
                    ch[1].try_axpy_dense_block_deferred(
                        alpha,
                        rb,
                        c0,
                        panel.submatrix(rmid..pm, 0..cmid),
                        eps,
                        flush_rank,
                    )?;
                }
                if top && right {
                    ch[2].try_axpy_dense_block_deferred(
                        alpha,
                        r0,
                        cr,
                        panel.submatrix(0..rmid, cmid..pn),
                        eps,
                        flush_rank,
                    )?;
                }
                if bot && right {
                    ch[3].try_axpy_dense_block_deferred(
                        alpha,
                        rb,
                        cr,
                        panel.submatrix(rmid..pm, cmid..pn),
                        eps,
                        flush_rank,
                    )?;
                }
                Ok(())
            }
        }
    }

    /// Recompress every low-rank leaf at relative tolerance `eps`, restoring
    /// the truncated representation after a sequence of deferred AXPYs
    /// ([`HMatrix::try_axpy_dense_block_deferred`]). Dense and factored
    /// leaves are untouched. Idempotent: a second call at the same tolerance
    /// leaves ranks (and, up to roundoff, entries) unchanged.
    ///
    /// The leaves are independent: a subdivided block's two column halves
    /// are rounded as tasks (`join_branches`), with the bits of the
    /// sequential walk at every thread count.
    pub fn recompress_leaves(&mut self, eps: T::Real) {
        let rows = self.nrows;
        match &mut self.kind {
            HKind::Dense(_) | HKind::DenseLu(_) | HKind::DenseLdlt(_) | HKind::Mirror => {}
            HKind::LowRank(lr) => lr.recompress_rel(eps),
            HKind::Hier(ch) => {
                let [c11, c21, c12, c22] = &mut **ch;
                let column = |c1: &mut Self, c2: &mut Self| {
                    c1.recompress_leaves(eps);
                    c2.recompress_leaves(eps);
                    Ok(())
                };
                // Infallible branches: the join returns `Ok`.
                let _ = join_branches(rows, || column(c11, c21), || column(c12, c22));
            }
        }
    }

    /// Compressed AXPY of a low-rank term covering the whole block:
    /// `H += α·L` with recompression at relative tolerance `eps`.
    pub fn axpy_lowrank(&mut self, alpha: T, lr_in: &LowRank<T>, eps: T::Real) {
        assert_eq!(lr_in.nrows(), self.nrows);
        assert_eq!(lr_in.ncols(), self.ncols);
        if lr_in.rank() == 0 {
            return;
        }
        match &mut self.kind {
            HKind::Dense(m) => lr_in.axpy_into_dense(alpha, m.as_mut()),
            HKind::Mirror => {}
            HKind::DenseLu(_) | HKind::DenseLdlt(_) => panic!("axpy on a factored leaf"),
            HKind::LowRank(mine) => {
                *mine = mine.add(alpha, lr_in);
                mine.recompress_rel(eps);
            }
            HKind::Hier(_) => {
                let (rs, cs) = self.splits();
                let (m, n) = (self.nrows, self.ncols);
                let HKind::Hier(ch) = &mut self.kind else {
                    unreachable!()
                };
                let parts = [
                    (0usize, 0..rs, 0..cs),
                    (1, rs..m, 0..cs),
                    (2, 0..rs, cs..n),
                    (3, rs..m, cs..n),
                ];
                for (idx, rr, cc) in parts {
                    let sub = LowRank::new(
                        lr_in.u.submatrix(rr.clone(), 0..lr_in.rank()),
                        lr_in.v.submatrix(cc.clone(), 0..lr_in.rank()),
                    );
                    ch[idx].axpy_lowrank(alpha, &sub, eps);
                }
            }
        }
    }

    /// Collapse to a single low-rank matrix at relative tolerance `eps`.
    pub fn to_lowrank(&self, eps: T::Real) -> LowRank<T> {
        match &self.kind {
            HKind::Dense(m) => {
                let tol = eps * m.norm_fro();
                LowRank::from_dense(m, tol, m.nrows().min(m.ncols()))
            }
            HKind::DenseLu(_) | HKind::DenseLdlt(_) | HKind::Mirror => {
                panic!("to_lowrank on a factored leaf or a mirror slot")
            }
            HKind::LowRank(lr) => lr.clone(),
            HKind::Hier(ch) => {
                let (rs, cs) = self.splits();
                let p: [LowRank<T>; 4] = std::array::from_fn(|k| ch[k].to_lowrank(eps));
                let parts = [
                    (&p[0], 0, 0),
                    (&p[1], rs, 0),
                    (&p[2], 0, cs),
                    (&p[3], rs, cs),
                ];
                let mut out = concat_padded(self.nrows, self.ncols, &parts);
                out.recompress_rel(eps);
                out
            }
        }
    }

    /// Structure statistics.
    pub fn stats(&self) -> HStats {
        let mut s = HStats {
            dense_bytes: self.nrows * self.ncols * std::mem::size_of::<T>(),
            ..Default::default()
        };
        self.stats_rec(&mut s);
        s
    }

    fn stats_rec(&self, s: &mut HStats) {
        match &self.kind {
            HKind::Dense(m) => {
                s.dense_leaves += 1;
                s.bytes += m.byte_size();
            }
            HKind::DenseLu(f) => {
                s.dense_leaves += 1;
                s.bytes += f.byte_size();
            }
            HKind::DenseLdlt(f) => {
                s.dense_leaves += 1;
                s.bytes += f.byte_size();
            }
            HKind::Mirror => {}
            HKind::LowRank(lr) => {
                s.lowrank_leaves += 1;
                s.max_rank = s.max_rank.max(lr.rank());
                s.bytes += lr.byte_size();
            }
            HKind::Hier(ch) => {
                for c in ch.iter() {
                    c.stats_rec(s);
                }
            }
        }
    }
}

pub(crate) fn scale_panel<T: Scalar>(beta: T, mut c: MatMut<'_, T>) {
    if beta == T::ONE {
        return;
    }
    if beta == T::ZERO {
        c.fill(T::ZERO);
        return;
    }
    for j in 0..c.ncols() {
        for x in c.col_mut(j) {
            *x *= beta;
        }
    }
}

/// The low-rank matrix of shape `m×n` whose factors are those of `parts`
/// side by side, each zero-padded to sit at its `(row, col)` offset: the
/// formal (untruncated) sum of blocks placed inside a larger block.
fn concat_padded<T: Scalar>(
    m: usize,
    n: usize,
    parts: &[(&LowRank<T>, usize, usize)],
) -> LowRank<T> {
    let total_rank: usize = parts.iter().map(|(p, _, _)| p.rank()).sum();
    let mut u = Mat::zeros(m, total_rank);
    let mut v = Mat::zeros(n, total_rank);
    let mut off = 0;
    for &(p, roff, coff) in parts {
        for k in 0..p.rank() {
            u.col_mut(off + k)[roff..roff + p.nrows()].copy_from_slice(p.u.col(k));
            v.col_mut(off + k)[coff..coff + p.ncols()].copy_from_slice(p.v.col(k));
        }
        off += p.rank();
    }
    LowRank::new(u, v)
}

/// Smallest block (rows of the target) whose two independent halves run as
/// tasks in H-LU and [`h_gemm`]. The vendored rayon stand-in spawns an OS
/// thread per `join` (tens of µs), so a branch must carry well more than
/// that: at 160 rows a branch holds several leaf-level rounded additions of
/// ≈ 0.1–0.5 ms each.
pub(crate) const TASK_MIN_ROWS: usize = 160;

/// Run two branches that write disjoint target blocks — as tasks when the
/// block has at least [`TASK_MIN_ROWS`] rows, one after the other below.
/// Each target block receives its updates in the same order either way, so
/// the result does not depend on the thread count; of two errors the left
/// branch's is reported, which makes the error thread-invariant too.
pub(crate) fn join_branches(
    rows: usize,
    left: impl FnOnce() -> Result<()> + Send,
    right: impl FnOnce() -> Result<()> + Send,
) -> Result<()> {
    if rows < TASK_MIN_ROWS {
        left()?;
        return right();
    }
    let (l, r) = rayon::join(left, right);
    l.and(r)
}

/// `C ← C + α·A·B` on hierarchical operands, with recompression at relative
/// tolerance `eps`. All three must come from the same pair of cluster trees
/// (aligned splits). A half-stored target receives only its stored blocks:
/// mirror slots are skipped before anything is multiplied.
///
/// The two column halves of a subdivided target are independent and run as
/// tasks (`join_branches`); a binding rank cap while folding a dense
/// product into a low-rank leaf is a
/// [`csolve_common::Error::CompressionFailure`].
pub fn h_gemm<T: Scalar>(
    alpha: T,
    a: &HMatrix<T>,
    b: &HMatrix<T>,
    c: &mut HMatrix<T>,
    eps: T::Real,
) -> Result<()> {
    assert_eq!(a.ncols, b.nrows);
    assert_eq!(c.nrows, a.nrows);
    assert_eq!(c.ncols, b.ncols);
    if a.nrows == 0 || b.ncols == 0 || a.ncols == 0 || matches!(c.kind, HKind::Mirror) {
        return Ok(());
    }
    match (&a.kind, &b.kind) {
        (HKind::LowRank(la), _) => {
            if la.rank() == 0 {
                return Ok(());
            }
            // α·(U·Vᵀ)·B = α·U·(Bᵀ·V)ᵀ
            let mut z = Mat::zeros(b.ncols, la.rank());
            b.mul_dense_t(T::ONE, la.v.as_ref(), T::ZERO, z.as_mut());
            let p = LowRank::new(la.u.clone(), z);
            c.axpy_lowrank(alpha, &p, eps);
        }
        (_, HKind::LowRank(lb)) => {
            if lb.rank() == 0 {
                return Ok(());
            }
            // α·A·(U·Vᵀ) = α·(A·U)·Vᵀ
            let mut z = Mat::zeros(a.nrows, lb.rank());
            a.mul_dense(T::ONE, lb.u.as_ref(), T::ZERO, z.as_mut());
            let p = LowRank::new(z, lb.v.clone());
            c.axpy_lowrank(alpha, &p, eps);
        }
        (HKind::Dense(da), _) => {
            // Thin row panel: D·B via dense×H.
            let mut out = Mat::zeros(a.nrows, b.ncols);
            b.dense_mul_h(T::ONE, da.as_ref(), T::ZERO, out.as_mut());
            c.try_axpy_dense_block(alpha, 0, 0, out.as_ref(), eps)?;
        }
        (_, HKind::Dense(db)) => {
            let mut out = Mat::zeros(a.nrows, b.ncols);
            a.mul_dense(T::ONE, db.as_ref(), T::ZERO, out.as_mut());
            c.try_axpy_dense_block(alpha, 0, 0, out.as_ref(), eps)?;
        }
        (HKind::Hier(ca), HKind::Hier(cb)) => match &mut c.kind {
            HKind::Hier(cc) => {
                // c11 += a11·b11 + a12·b21, etc. (children order [11,21,12,22]);
                // each target keeps this order of its two updates.
                let [c11, c21, c12, c22] = &mut **cc;
                let column =
                    |b1: &HMatrix<T>, b2: &HMatrix<T>, c1: &mut HMatrix<T>, c2: &mut HMatrix<T>| {
                        h_gemm(alpha, &ca[0], b1, c1, eps)?;
                        h_gemm(alpha, &ca[2], b2, c1, eps)?;
                        h_gemm(alpha, &ca[1], b1, c2, eps)?;
                        h_gemm(alpha, &ca[3], b2, c2, eps)
                    };
                join_branches(
                    a.nrows,
                    || column(&cb[0], &cb[1], c11, c21),
                    || column(&cb[2], &cb[3], c12, c22),
                )?;
            }
            _ => {
                // c is a (low-rank) leaf spanning the split: form the product
                // as a low-rank matrix and fold it in.
                let p = h_mul_to_lowrank(a, b, eps);
                c.axpy_lowrank(alpha, &p, eps);
            }
        },
        (HKind::DenseLu(_) | HKind::DenseLdlt(_) | HKind::Mirror, _)
        | (_, HKind::DenseLu(_) | HKind::DenseLdlt(_) | HKind::Mirror) => {
            return Err(Error::Internal {
                context: "h_gemm on factored or half-stored operands",
            })
        }
    }
    Ok(())
}

/// Compute `A·B` collapsed to a single low-rank matrix at relative tolerance
/// `eps`.
pub fn h_mul_to_lowrank<T: Scalar>(a: &HMatrix<T>, b: &HMatrix<T>, eps: T::Real) -> LowRank<T> {
    assert_eq!(a.ncols, b.nrows);
    match (&a.kind, &b.kind) {
        (HKind::LowRank(la), _) => {
            if la.rank() == 0 {
                return LowRank::zeros(a.nrows, b.ncols);
            }
            let mut z = Mat::zeros(b.ncols, la.rank());
            b.mul_dense_t(T::ONE, la.v.as_ref(), T::ZERO, z.as_mut());
            LowRank::new(la.u.clone(), z)
        }
        (_, HKind::LowRank(lb)) => {
            if lb.rank() == 0 {
                return LowRank::zeros(a.nrows, b.ncols);
            }
            let mut z = Mat::zeros(a.nrows, lb.rank());
            a.mul_dense(T::ONE, lb.u.as_ref(), T::ZERO, z.as_mut());
            LowRank::new(z, lb.v.clone())
        }
        (HKind::Dense(da), _) => {
            let mut out = Mat::zeros(a.nrows, b.ncols);
            b.dense_mul_h(T::ONE, da.as_ref(), T::ZERO, out.as_mut());
            let tol = eps * out.norm_fro();
            LowRank::from_dense(&out, tol, out.nrows().min(out.ncols()))
        }
        (_, HKind::Dense(db)) => {
            let mut out = Mat::zeros(a.nrows, b.ncols);
            a.mul_dense(T::ONE, db.as_ref(), T::ZERO, out.as_mut());
            let tol = eps * out.norm_fro();
            LowRank::from_dense(&out, tol, out.nrows().min(out.ncols()))
        }
        (HKind::Hier(ca), HKind::Hier(cb)) => {
            let (ars, _) = a.splits();
            let (_, bcs) = b.splits();
            // P_ij = Σ_k a_ik·b_kj, each collapsed then merged.
            let quad = |ai1: &HMatrix<T>, ai2: &HMatrix<T>, b1j: &HMatrix<T>, b2j: &HMatrix<T>| {
                let p1 = h_mul_to_lowrank(ai1, b1j, eps);
                let p2 = h_mul_to_lowrank(ai2, b2j, eps);
                let tol = eps * (p1.norm_fro() + p2.norm_fro());
                p1.add_truncate(T::ONE, &p2, tol)
            };
            let p11 = quad(&ca[0], &ca[2], &cb[0], &cb[1]);
            let p21 = quad(&ca[1], &ca[3], &cb[0], &cb[1]);
            let p12 = quad(&ca[0], &ca[2], &cb[2], &cb[3]);
            let p22 = quad(&ca[1], &ca[3], &cb[2], &cb[3]);
            let parts = [
                (&p11, 0, 0),
                (&p21, ars, 0),
                (&p12, 0, bcs),
                (&p22, ars, bcs),
            ];
            let mut out = concat_padded(a.nrows, b.ncols, &parts);
            out.recompress_rel(eps);
            out
        }
        (HKind::DenseLu(_) | HKind::DenseLdlt(_) | HKind::Mirror, _)
        | (_, HKind::DenseLu(_) | HKind::DenseLdlt(_) | HKind::Mirror) => {
            panic!("h_mul_to_lowrank on factored or half-stored operands")
        }
    }
}
