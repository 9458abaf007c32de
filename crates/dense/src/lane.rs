//! Right-hand sides as vector lanes: the kernels of every multi-RHS solve —
//! the sparse one, the dense LU / LDLᵀ one and the H-matrix one — and of the
//! factorizations' triangles: [`crate::trsm`]'s base case is [`solve_tri`],
//! a left solve's columns or a right solve's rows as the lanes.
//!
//! A block of `w ≤ 32` right-hand sides is stored *row-major*: one row per
//! unknown, that unknown's `w` values side by side — four `zmm` registers at
//! `w = 32` ([`LaneShape`], [`LaneBuf`]). A complex row is two planes, the
//! `w` real parts then the `w` imaginary parts, so the `f64` vector bodies
//! serve both scalar types (the workspace holds `f64` whatever the precision
//! of the factors). Every solve step is a row operation:
//!
//! * [`update_rows`] — row `d` ±= Σₗ aₗ · row `iₗ` over indexed or
//!   consecutive rows, the products through a factor panel, with no gather
//!   or scatter copy;
//! * [`solve_tri`] — a triangle as row updates with a splatted coefficient,
//!   then the division by the pivot;
//! * [`div_rows`], [`swap_rows`] — diagonal scaling and pivot swaps;
//! * [`load_rows`], [`store_rows`] — the permuted copies between a
//!   column-major panel and the workspace;
//! * [`solve_panel`] — a column-major panel solved in place, in workspaces
//!   of at most [`MAX_LANES`] columns spread over the idle threads (none
//!   under [`crate::gemm::with_serial`]).
//!
//! **Bits by layout.** A lane is one right-hand side, and every kernel gives
//! every lane the same sequence of multiply-adds whatever `w`: the
//! coefficient is splatted across the lanes, a lane past `w` is masked off on
//! load and store, and under [`Update::SubNonzero`] a term whose source lane
//! is an exact zero is skipped *in that lane* (a masked multiply-add), never
//! for the whole block. Lane `j` of a width-`w` call therefore has the bits
//! of a width-1 call on that right-hand side alone — at any width, on any
//! thread. There is no mode to enter and no other mechanism: every multi-RHS
//! solve of the stack is column-separable by this layout alone. Which
//! register body runs (`Avx512`, `Avx2`, `Portable`) is a property of the
//! host, as for the GEMM tiles.

use csolve_common::{RealScalar, Scalar, C64};

use crate::gemm::Op;
use crate::mat::{MatMut, MatRef};
use crate::simd::{isa, Isa, Lanes, Portable};
#[cfg(target_arch = "x86_64")]
use crate::simd::{Avx2, Avx512};
use crate::trsm::{Diag, Tri};
use rayon::prelude::*;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};

/// Widest block of right-hand sides one workspace holds.
pub const MAX_LANES: usize = 32;

/// `f64` values per 64-byte line.
const LINE: usize = 8;

/// Layout of a row-major block of `w` right-hand sides: each row holds one
/// plane of `w` values (two for a complex scalar type), each plane padded to
/// whole 64-byte lines — or, below a line, to a power of two, so a plane
/// never straddles one. The padding is never read as a lane nor written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneShape {
    w: usize,
    /// Values per plane: `w` rounded up to a whole line.
    plane: usize,
    complex: bool,
}

impl LaneShape {
    /// `w` right-hand sides of scalar type `T`; `1 ≤ w ≤ `[`MAX_LANES`].
    pub fn new<T: Scalar>(w: usize) -> Self {
        assert!(
            (1..=MAX_LANES).contains(&w),
            "lane width {w} outside 1..={MAX_LANES}"
        );
        // A narrow plane packs rows several to a line, where padding it to
        // a line would multiply a width-1 solve's memory traffic by eight.
        let plane = if w < LINE {
            w.next_power_of_two()
        } else {
            w.next_multiple_of(LINE)
        };
        Self {
            w,
            plane,
            complex: T::IS_COMPLEX,
        }
    }

    /// Right-hand sides per row.
    pub fn lanes(self) -> usize {
        self.w
    }

    /// `f64` values per row.
    pub fn row_len(self) -> usize {
        self.plane * (1 + self.complex as usize)
    }

    /// Lane `c` of row `i` of `x`.
    pub fn get<T: Scalar>(self, x: &[f64], i: usize, c: usize) -> T {
        assert!(c < self.w);
        let row = &x[i * self.row_len()..][..self.row_len()];
        let im = if self.complex {
            row[self.plane + c]
        } else {
            0.0
        };
        from_f64(row[c], im)
    }

    /// Set lane `c` of row `i` of `x` to `v`.
    pub fn set<T: Scalar>(self, x: &mut [f64], i: usize, c: usize, v: T) {
        assert!(c < self.w);
        let row = &mut x[i * self.row_len()..][..self.row_len()];
        row[c] = v.real().to_f64();
        if self.complex {
            row[self.plane + c] = v.imag().to_f64();
        }
    }
}

#[inline(always)]
fn from_f64<T: Scalar>(re: f64, im: f64) -> T {
    T::from_parts(T::Real::from_f64_real(re), T::Real::from_f64_real(im))
}

#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Line([f64; LINE]);

/// A zero-initialized, line-aligned workspace of rows of a [`LaneShape`].
pub struct LaneBuf {
    shape: LaneShape,
    lines: Vec<Line>,
    /// `f64` values in the rows (the last line may hold fewer).
    len: usize,
}

impl LaneBuf {
    /// `rows` rows of zeros.
    pub fn zeros(shape: LaneShape, rows: usize) -> Self {
        let len = rows * shape.row_len();
        let lines = vec![Line([0.0; LINE]); len.div_ceil(LINE)];
        Self { shape, lines, len }
    }

    pub fn shape(&self) -> LaneShape {
        self.shape
    }

    pub fn as_slice(&self) -> &[f64] {
        // SAFETY: a `Line` is `LINE` plain `f64`s (`repr(C)`, no padding),
        // and `len` ≤ `LINE` × the number of lines.
        unsafe { std::slice::from_raw_parts(self.lines.as_ptr().cast(), self.len) }
    }

    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        // SAFETY: as in `as_slice`, and the borrow is exclusive.
        unsafe { std::slice::from_raw_parts_mut(self.lines.as_mut_ptr().cast(), self.len) }
    }
}

/// Which rows of a workspace slice a kernel addresses, by position.
#[derive(Debug, Clone, Copy)]
pub enum Rows<'a> {
    /// Consecutive rows from this one.
    From(usize),
    /// Rows `idx[l] − offset`.
    At(&'a [usize], usize),
}

impl Rows<'_> {
    /// The position of the `l`-th selected row.
    #[inline(always)]
    pub fn get(self, l: usize) -> usize {
        match self {
            Rows::From(r0) => r0 + l,
            Rows::At(idx, offset) => idx[l] - offset,
        }
    }

    /// Panics unless the first `n` rows all lie below row `rows`.
    fn check(self, n: usize, rows: usize, what: &str) {
        let ok = match self {
            Rows::From(r0) => r0 + n <= rows,
            Rows::At(idx, offset) => {
                idx.len() >= n && idx[..n].iter().all(|&i| i >= offset && i - offset < rows)
            }
        };
        assert!(ok, "{what}: row selection out of range");
    }
}

/// Copy every row `r` of the column-major panel `b` into row `rows[r]` of
/// `x`. `b` has exactly `sh.lanes()` columns.
pub fn load_rows<T: Scalar>(sh: LaneShape, x: &mut [f64], b: MatRef<'_, T>, rows: Rows<'_>) {
    assert!(
        b.ncols() == sh.w && sh.complex == T::IS_COMPLEX,
        "load_rows: panel shape"
    );
    rows.check(b.nrows(), x.len() / sh.row_len(), "load_rows");
    for_row_blocks(sh, b.nrows(), rows, x.as_ptr(), |r0, at, c| {
        for (&at, &v) in at.iter().zip(&b.col(c)[r0..]) {
            x[at + c] = v.real().to_f64();
            if T::IS_COMPLEX {
                x[at + sh.plane + c] = v.imag().to_f64();
            }
        }
    });
}

/// Copy row `rows[r]` of `x` into every row `r` of the column-major panel
/// `b`. `b` has exactly `sh.lanes()` columns.
pub fn store_rows<T: Scalar>(sh: LaneShape, x: &[f64], mut b: MatMut<'_, T>, rows: Rows<'_>) {
    assert!(
        b.ncols() == sh.w && sh.complex == T::IS_COMPLEX,
        "store_rows: panel shape"
    );
    rows.check(b.nrows(), x.len() / sh.row_len(), "store_rows");
    for_row_blocks(sh, b.nrows(), rows, x.as_ptr(), |r0, at, c| {
        for (&at, v) in at.iter().zip(&mut b.col_mut(c)[r0..]) {
            let im = if T::IS_COMPLEX {
                x[at + sh.plane + c]
            } else {
                0.0
            };
            *v = from_f64(x[at + c], im);
        }
    });
}

/// `f(r0, at, c)` over blocks of a line of panel rows `r0..` — `at` holds
/// where each one's workspace row starts in `x` — and, within a block, every
/// lane `c`: the panel is read or written a line of each column at a time,
/// and the block's workspace rows — whole rows, wherever they lie, asked for
/// one block ahead — stay in L1 while its columns go by.
fn for_row_blocks(
    sh: LaneShape,
    n: usize,
    rows: Rows<'_>,
    x: *const f64,
    mut f: impl FnMut(usize, &[usize], usize),
) {
    let rl = sh.row_len();
    let mut at = [0; LINE];
    for r0 in (0..n).step_by(LINE) {
        let r1 = (r0 + LINE).min(n);
        for r in r1..(r1 + LINE).min(n) {
            prefetch(x.wrapping_add(rows.get(r) * rl), rl);
        }
        for (a, r) in at.iter_mut().zip(r0..r1) {
            *a = rows.get(r) * rl;
        }
        for c in 0..sh.w {
            f(r0, &at[..r1 - r0], c);
        }
    }
}

/// Panel columns [`solve_panel`] hands a thread are a whole number of these:
/// one 512-bit register of `f64` lanes. A narrower group would leave lanes of
/// every register idle on each thread. Bits do not depend on it.
const GROUP_LANES: usize = 8;

/// Solve the column-major panel `b` in place through lane workspaces: its
/// columns in groups of at most [`MAX_LANES`] — one group per idle thread
/// when the panel is wide enough, each a whole number of 8 — each group
/// loaded into a workspace of `b.nrows()` rows (panel row `r` into
/// workspace row `load[r]`), handed to `f`, and stored back (workspace row
/// `store[r]` into panel row `r`). A column is one lane of its group's
/// workspace, so it gets the bits of its width-1 solve whichever columns
/// share the group and whatever the thread count. One fork per call, none
/// under [`crate::gemm::with_serial`]; a width-0 panel is a no-op.
pub fn solve_panel<T: Scalar>(
    b: MatMut<'_, T>,
    (load, store): (Rows<'_>, Rows<'_>),
    f: impl Fn(&mut LaneBuf) + Send + Sync,
) {
    if b.ncols() == 0 {
        return;
    }
    let serial = crate::gemm::serial_forced();
    let threads = if serial {
        1
    } else {
        rayon::current_num_threads()
    };
    let width = b
        .ncols()
        .div_ceil(threads)
        .next_multiple_of(GROUP_LANES)
        .min(MAX_LANES);
    let solve = |x: MatMut<'_, T>| {
        let mut ws = LaneBuf::zeros(LaneShape::new::<T>(x.ncols()), x.nrows());
        load_rows(ws.shape(), ws.as_mut_slice(), x.rb(), load);
        f(&mut ws);
        store_rows(ws.shape(), ws.as_slice(), x, store);
    };
    let groups = b.col_chunks_mut(width);
    if serial {
        groups.into_iter().for_each(solve);
    } else {
        groups.into_par_iter().for_each(solve);
    }
}

/// Swap rows `i` and `j` of `x`.
pub fn swap_rows(sh: LaneShape, x: &mut [f64], i: usize, j: usize) {
    if i == j {
        return;
    }
    let rl = sh.row_len();
    let (lo, hi) = (i.min(j), i.max(j));
    let (a, b) = x.split_at_mut(hi * rl);
    a[lo * rl..][..rl].swap_with_slice(&mut b[..rl]);
}

/// Divide every lane of row `i` of `x` by `d[i]`, for every `i < d.len()`.
pub fn div_rows<T: Scalar>(sh: LaneShape, x: &mut [f64], d: &[T]) {
    assert_eq!(sh.complex, T::IS_COMPLEX, "div_rows: scalar type");
    for (row, &di) in x.chunks_exact_mut(sh.row_len()).zip(d) {
        div_row(sh, row, di);
    }
}

/// One row's lanes divided by `d`: IEEE division for a real `T`, the
/// complex division of [`C64`] for a complex one — lane by lane.
#[inline(always)]
fn div_row<T: Scalar>(sh: LaneShape, row: &mut [f64], d: T) {
    let (re, im) = row.split_at_mut(sh.plane);
    if sh.complex {
        let d = C64::new(d.real().to_f64(), d.imag().to_f64());
        for (r, i) in re[..sh.w].iter_mut().zip(&mut im[..sh.w]) {
            let q = C64::new(*r, *i) / d;
            (*r, *i) = (q.re, q.im);
        }
    } else {
        let d = d.real().to_f64();
        for r in &mut re[..sh.w] {
            *r /= d;
        }
    }
}

/// What a term does to its destination lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Update {
    /// `dst += a·src`.
    Add,
    /// `dst −= a·src`.
    Sub,
    /// `dst −= a·src`, skipped in every lane whose `src` is an exact zero:
    /// the forward pass of a sparse right-hand side, where a zero lane keeps
    /// its bits (`−0.0` stays `−0.0`; an `Inf` coefficient never meets a
    /// zero).
    SubNonzero,
}

/// `dst[drows(d)] ±= Σₗ op(a)[d, l] · src[srows(l)]` for every row `d` of
/// `op(a)`, the terms in `l` order ([`Update`] gives the sign and the
/// zero-lane rule). `op(a)` is `nd × nl`; the destination and source rows
/// are rows of the workspace slices `dst` and `src`, which are separate
/// borrows — split one workspace between them with `split_at_mut`.
pub fn update_rows<T: Scalar>(
    sh: LaneShape,
    how: Update,
    a: MatRef<'_, T>,
    op: Op,
    (dst, drows): (&mut [f64], Rows<'_>),
    (src, srows): (&[f64], Rows<'_>),
) {
    let (nd, nl) = op.shape_of(&a);
    assert_eq!(sh.complex, T::IS_COMPLEX, "update_rows: scalar type");
    if nd == 0 || nl == 0 {
        return;
    }
    let rl = sh.row_len();
    drows.check(nd, dst.len() / rl, "update_rows (destination)");
    srows.check(nl, src.len() / rl, "update_rows (source)");
    if how == Update::SubNonzero
        && (0..nl).all(|l| src[srows.get(l) * rl..][..rl].iter().all(|&v| v == 0.0))
    {
        // Every term would be skipped in every lane.
        return;
    }
    let (sd, sl) = match op {
        Op::NoTrans => (1, a.ld()),
        _ => (a.ld(), 1),
    };
    let job = Job {
        sh,
        how,
        conj: op == Op::ConjTrans,
        a: a.as_ptr(),
        sd,
        sl,
        nd,
        nl,
        dst: dst.as_mut_ptr(),
        drows,
        src: src.as_ptr(),
        srows,
    };
    // SAFETY: `op(a)` is `nd × nl` and every row either selection names lies
    // inside its slice (both checked above); `dst` is exclusively borrowed
    // and cannot overlap `src`.
    unsafe { dispatch(&job, Kernel::Update) }
}

/// Solve `op(T)·X = X` in place for the `k = t.ncols()` unknowns of `x`
/// (row `i` is unknown `i`): row `i` −= Σₘ op(T)[i, m] · row `m` over the
/// rows `m` already solved, in the order they were solved, then — `NonUnit`
/// — row `i` divided by `op(T)[i, i]` ([`div_rows`]' division). `how` is
/// [`Update::Sub`] or [`Update::SubNonzero`].
///
/// A lower `T` may be a trapezoid, `m = t.nrows() > k` rows: its rows past
/// `k` are `m − k` more rows of `x`. Forward (`NoTrans`) they receive the
/// solved rows' terms, `x[k..m] −= T[k..m, :]·x[..k]`; backward (`Trans`)
/// they are already solved and give theirs first, `x[..k]` then takes
/// `−T[k..m, :]ᵀ·x[k..m]`, from row `m − 1` down. Either way every row gets
/// its terms in the order the square triangle of order `m` would give them,
/// so a triangle split into column blocks, each solved as a trapezoid over
/// the rows from its diagonal down, has that triangle's bits.
pub fn solve_tri<T: Scalar>(
    sh: LaneShape,
    how: Update,
    t: MatRef<'_, T>,
    tri: Tri,
    op: Op,
    diag: Diag,
    x: &mut [f64],
) {
    let (m, k) = (t.nrows(), t.ncols());
    assert!(
        m == k || tri == Tri::Lower && m > k,
        "solve_tri: T square or a lower trapezoid"
    );
    assert!(how != Update::Add, "solve_tri: a triangle subtracts");
    assert_eq!(sh.complex, T::IS_COMPLEX, "solve_tri: scalar type");
    let rl = sh.row_len();
    assert!(x.len() >= m * rl, "solve_tri: rows");
    let x = &mut x[..m * rl];
    if k == 0
        || diag == Diag::Unit
            && (m == 1 || how == Update::SubNonzero && x.iter().all(|&v| v == 0.0))
    {
        // Nothing to subtract (every term would be skipped) and no pivot.
        return;
    }
    let forward = matches!(
        (tri, op),
        (Tri::Lower, Op::NoTrans) | (Tri::Upper, Op::Trans | Op::ConjTrans)
    );
    let (sd, sl) = match op {
        Op::NoTrans => (1, t.ld()),
        _ => (t.ld(), 1),
    };
    let rows = x.as_mut_ptr();
    let job = Job {
        sh,
        how,
        conj: op == Op::ConjTrans,
        a: t.as_ptr(),
        sd,
        sl,
        nd: m,
        nl: k,
        dst: rows,
        drows: Rows::From(0),
        src: rows,
        srows: Rows::From(0),
    };
    // SAFETY: `op(t)[i, j]` is read for rows `i < m` and unknowns `j < k` of
    // a forward solve, the transpose of that backward — inside `t` — and
    // `x` holds `m` rows; the triangle body reads and writes `x` through
    // `dst` alone.
    unsafe {
        dispatch(
            &job,
            Kernel::Tri {
                forward,
                unit: diag == Diag::Unit,
            },
        )
    }
}

/// Which body a [`Job`] runs.
#[derive(Clone, Copy)]
enum Kernel {
    Update,
    /// A triangle solved top-down (`forward`) or bottom-up.
    Tri {
        forward: bool,
        unit: bool,
    },
}

/// One kernel call, as the register bodies see it: `op(a)[d, l]` is
/// `a[d·sd + l·sl]` (conjugated under `conj`).
struct Job<'r, T> {
    sh: LaneShape,
    how: Update,
    conj: bool,
    a: *const T,
    sd: usize,
    sl: usize,
    nd: usize,
    nl: usize,
    dst: *mut f64,
    drows: Rows<'r>,
    src: *const f64,
    srows: Rows<'r>,
}

/// [`Update`] as a const parameter of the register bodies.
const ADD: u8 = 0;
const SUB: u8 = 1;
const SUB_NZ: u8 = 2;

impl<T: Scalar> Job<'_, T> {
    /// `±op(a)[d, l]` as `(re, im)`: negated for a subtracting update
    /// (exact).
    #[inline(always)]
    unsafe fn coef<const HOW: u8>(&self, d: usize, l: usize) -> (f64, f64) {
        let v = *self.a.add(d * self.sd + l * self.sl);
        let (re, im) = (v.real().to_f64(), v.imag().to_f64());
        let im = if T::IS_COMPLEX && self.conj { -im } else { im };
        if HOW == ADD {
            (re, im)
        } else {
            (-re, -im)
        }
    }
}

/// Row `l` of a selection whose rows were checked on entry.
#[inline(always)]
unsafe fn row_of(rows: Rows<'_>, l: usize) -> usize {
    match rows {
        Rows::From(r0) => r0 + l,
        Rows::At(idx, offset) => *idx.get_unchecked(l) - offset,
    }
}

/// Ask for the `len` values at `p` to be brought into L1 (a hint: no value
/// changes).
#[inline(always)]
fn prefetch(p: *const f64, len: usize) {
    #[cfg(target_arch = "x86_64")]
    for off in (0..len).step_by(LINE) {
        // SAFETY: a prefetch never faults, whatever the address.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(p.wrapping_add(off).cast()) }
    }
}

/// `job` on the widest register body the host has ([`isa`]).
///
/// # Safety
///
/// `job` describes memory the caller may read (`a`, `src`) and owns
/// (`dst`), and every row it names lies inside it.
unsafe fn dispatch<T: Scalar>(job: &Job<'_, T>, kernel: Kernel) {
    #[cfg(target_arch = "x86_64")]
    match isa() {
        Isa::Avx512 => return on!(update_avx512, tri_avx512, <Avx512 as Lanes>::W, job, kernel),
        Isa::Avx2 => return on!(update_avx2, tri_avx2, <Avx2 as Lanes>::W, job, kernel),
        Isa::Portable => {}
    }
    on!(
        update_portable,
        tri_portable,
        <Portable<f64> as Lanes>::W,
        job,
        kernel
    )
}

/// The entry point of `job` among one instruction set's: by the registers a
/// plane of a row takes (`RV`, rounded up to a power of two: a register past
/// the lanes is all masked off), the [`Update`] and the kernel.
macro_rules! on {
    ($update:ident, $tri:ident, $w:expr, $job:expr, $kernel:expr) => {
        match $job.sh.w.div_ceil($w) {
            1 => on!(@how $update, $tri, 1, $job, $kernel),
            2 => on!(@how $update, $tri, 2, $job, $kernel),
            3 | 4 => on!(@how $update, $tri, 4, $job, $kernel),
            _ => on!(@how $update, $tri, 8, $job, $kernel),
        }
    };
    (@how $update:ident, $tri:ident, $rv:literal, $job:expr, $kernel:expr) => {
        match $job.how {
            Update::Add => on!(@kernel $update, $tri, $rv, ADD, $job, $kernel),
            Update::Sub => on!(@kernel $update, $tri, $rv, SUB, $job, $kernel),
            Update::SubNonzero => on!(@kernel $update, $tri, $rv, SUB_NZ, $job, $kernel),
        }
    };
    (@kernel $update:ident, $tri:ident, $rv:literal, $how:ident, $job:expr, $kernel:expr) => {
        match $kernel {
            Kernel::Update => $update::<T, $rv, $how>($job),
            Kernel::Tri { forward: true, unit } => $tri::<T, $rv, $how, true>($job, unit),
            Kernel::Tri { forward: false, unit } => $tri::<T, $rv, $how, false>($job, unit),
        }
    };
}
use on;

/// One entry point per instruction set, kernel, register count and update
/// rule, compiled with that instruction set (so the `Lanes` intrinsics
/// inline) and holding one body: an unoptimized build then does not stack
/// the locals of every variant in one frame.
macro_rules! entries {
    ($update:ident, $tri:ident, $lanes:ty $(, $feature:literal)?) => {
        $(#[target_feature(enable = $feature)])?
        unsafe fn $update<T: Scalar, const RV: usize, const HOW: u8>(job: &Job<'_, T>) {
            update::<$lanes, T, RV, HOW>(job)
        }

        $(#[target_feature(enable = $feature)])?
        unsafe fn $tri<T: Scalar, const RV: usize, const HOW: u8, const FWD: bool>(
            job: &Job<'_, T>,
            unit: bool,
        ) {
            tri::<$lanes, T, RV, HOW, FWD>(job, unit)
        }
    };
}

#[cfg(target_arch = "x86_64")]
entries!(update_avx512, tri_avx512, Avx512, "avx512f");
#[cfg(target_arch = "x86_64")]
entries!(update_avx2, tri_avx2, Avx2, "avx2,fma");
entries!(update_portable, tri_portable, Portable<f64>);

/// Rows the register bodies hold at once: as many as fit beside one source
/// row and two coefficients, at most six.
#[inline(always)]
fn block_rows<L: Lanes, T: Scalar, const RV: usize>() -> usize {
    let per_row = RV * (1 + T::IS_COMPLEX as usize);
    (L::REGS.saturating_sub(per_row + 2) / per_row).clamp(1, 6)
}

/// Bytes of source rows an update takes through all its destination blocks
/// before moving on: they stay in L1 between blocks.
const SOURCE_BLOCK_BYTES: usize = 16 << 10;

/// Lanes live in each of a plane's `RV` registers.
#[inline(always)]
fn live<L: Lanes, const RV: usize>(w: usize) -> [usize; RV] {
    std::array::from_fn(|v| L::W.min(w.saturating_sub(v * L::W)))
}

/// The registers of one row: `[plane][register]` (plane 1 unused for a real
/// `T`).
type Row<L, const RV: usize> = [[<L as Lanes>::V; RV]; 2];

#[inline(always)]
unsafe fn load_row<L: Lanes<E = f64>, T: Scalar, const RV: usize>(
    sh: LaneShape,
    live: &[usize; RV],
    p: *const f64,
) -> Row<L, RV> {
    let mut r = [[L::zero(); RV]; 2];
    for q in 0..1 + T::IS_COMPLEX as usize {
        for v in 0..RV {
            r[q][v] = L::load_n(p.add(q * sh.plane + v * L::W), live[v]);
        }
    }
    r
}

#[inline(always)]
unsafe fn store_row<L: Lanes<E = f64>, T: Scalar, const RV: usize>(
    sh: LaneShape,
    live: &[usize; RV],
    p: *mut f64,
    r: &Row<L, RV>,
) {
    for q in 0..1 + T::IS_COMPLEX as usize {
        for v in 0..RV {
            L::store_n(p.add(q * sh.plane + v * L::W), live[v], r[q][v]);
        }
    }
}

/// The lanes a source row acts in: all of them, or — under `SUB_NZ` —
/// those not exactly zero (`None` when that is none).
#[inline(always)]
unsafe fn acting<L: Lanes<E = f64>, T: Scalar, const RV: usize, const HOW: u8>(
    x: &Row<L, RV>,
) -> Option<[L::M; RV]> {
    let mut m = [L::nonzero(L::zero()); RV];
    if HOW == SUB_NZ {
        let mut any = false;
        for v in 0..RV {
            m[v] = L::nonzero(x[0][v]);
            if T::IS_COMPLEX {
                m[v] = L::or(m[v], L::nonzero(x[1][v]));
            }
            any |= !L::none(m[v]);
        }
        if !any {
            return None;
        }
    }
    Some(m)
}

/// `a·b + c`, in the lanes of `m` only under `SUB_NZ`. (A function, not a
/// closure: a closure would not inherit the caller's target features, and
/// the intrinsics would stay calls.)
#[inline(always)]
unsafe fn fma<L: Lanes, const HOW: u8>(m: L::M, a: L::V, b: L::V, c: L::V) -> L::V {
    if HOW == SUB_NZ {
        L::mul_add_where(m, a, b, c)
    } else {
        L::mul_add(a, b, c)
    }
}

/// `acc += (re + i·im)·x` lane by lane: one multiply-add per plane for a
/// real `T`, four for a complex one (`re·xr − im·xi`, `re·xi + im·xr`).
#[inline(always)]
unsafe fn fma_row<L: Lanes<E = f64>, T: Scalar, const RV: usize, const HOW: u8>(
    (re, im): (f64, f64),
    x: &Row<L, RV>,
    m: &[L::M; RV],
    acc: &mut Row<L, RV>,
) {
    let sr = L::splat(re);
    if T::IS_COMPLEX {
        let (si, nsi) = (L::splat(im), L::splat(-im));
        for v in 0..RV {
            acc[0][v] = fma::<L, HOW>(m[v], sr, x[0][v], acc[0][v]);
            acc[0][v] = fma::<L, HOW>(m[v], nsi, x[1][v], acc[0][v]);
            acc[1][v] = fma::<L, HOW>(m[v], sr, x[1][v], acc[1][v]);
            acc[1][v] = fma::<L, HOW>(m[v], si, x[0][v], acc[1][v]);
        }
    } else {
        for v in 0..RV {
            acc[0][v] = fma::<L, HOW>(m[v], sr, x[0][v], acc[0][v]);
        }
    }
}

/// [`update_rows`]: the sources in L1-sized blocks and, per source block,
/// the destinations in register blocks of [`block_rows`]. A destination gets
/// its terms in `l` order whatever the blocking.
#[inline(always)]
unsafe fn update<L: Lanes<E = f64>, T: Scalar, const RV: usize, const HOW: u8>(job: &Job<'_, T>) {
    let block = block_rows::<L, T, RV>();
    let sources = (SOURCE_BLOCK_BYTES / (8 * job.sh.row_len())).max(1);
    for l0 in (0..job.nl).step_by(sources) {
        let ls = l0..(l0 + sources).min(job.nl);
        let mut d0 = 0;
        while d0 < job.nd {
            let left = job.nd - d0;
            let ls = ls.clone();
            d0 += if block >= 6 && left >= 6 {
                update_block::<L, T, RV, HOW, 6>(job, d0, ls)
            } else if block >= 4 && left >= 4 {
                update_block::<L, T, RV, HOW, 4>(job, d0, ls)
            } else if block >= 2 && left >= 2 {
                update_block::<L, T, RV, HOW, 2>(job, d0, ls)
            } else {
                update_block::<L, T, RV, HOW, 1>(job, d0, ls)
            };
        }
    }
}

/// Destination rows `d0 .. d0 + D` of an update, held in registers across
/// the terms `ls`; returns `D`.
#[inline(always)]
unsafe fn update_block<
    L: Lanes<E = f64>,
    T: Scalar,
    const RV: usize,
    const HOW: u8,
    const D: usize,
>(
    job: &Job<'_, T>,
    d0: usize,
    ls: std::ops::Range<usize>,
) -> usize {
    let sh = job.sh;
    let rl = sh.row_len();
    let live = live::<L, RV>(sh.w);
    let rows: [*mut f64; D] = std::array::from_fn(|d| job.dst.add(row_of(job.drows, d0 + d) * rl));
    let mut acc = [[[L::zero(); RV]; 2]; D];
    for d in 0..D {
        acc[d] = load_row::<L, T, RV>(sh, &live, rows[d]);
    }
    for l in ls {
        let x = load_row::<L, T, RV>(sh, &live, job.src.add(row_of(job.srows, l) * rl));
        let Some(m) = acting::<L, T, RV, HOW>(&x) else {
            continue;
        };
        for d in 0..D {
            fma_row::<L, T, RV, HOW>(job.coef::<HOW>(d0 + d, l), &x, &m, &mut acc[d]);
        }
    }
    for d in 0..D {
        store_row::<L, T, RV>(sh, &live, rows[d], &acc[d]);
    }
    D
}

/// Solve steps one panel of a `NoTrans` triangle takes (see [`tri`]).
/// Measured on the LU factor of order 2 379 (one thread, 2-core AVX-512
/// host, ms for the two triangles at w = 1 / 32): panels of 4 — 6.4 / 13.6,
/// 8 — 5.1 / 10.7, 16 — 4.8 / 9.3, 32 — 7.1 / 14.8, 64 — 11.3 / 28.8, one
/// panel — 17.2 / 52.8.
const TRI_PANEL: usize = 16;

/// [`solve_tri`]: the rows in blocks of [`block_rows`], in solve order
/// (`FWD`: top-down). A `NoTrans` triangle reads a row's coefficients along a
/// row of the stored `T` — one column, one page at a large `ld`, per term —
/// so it goes in panels of [`TRI_PANEL`] steps: the panel's rows are solved,
/// then the panel's rows are applied to every later row, and a pass over the
/// coefficients touches [`TRI_PANEL`] columns, not all of them. Every row
/// still gets its terms in solve order, so the panels move no bit.
///
/// The job's `nd` rows are its steps and `nl` its unknowns: a trapezoid's
/// extra steps come after the solved ones forward, before them backward
/// (where its `Trans` coefficients make it one panel).
#[inline(always)]
unsafe fn tri<L: Lanes<E = f64>, T: Scalar, const RV: usize, const HOW: u8, const FWD: bool>(
    job: &Job<'_, T>,
    unit: bool,
) {
    let (m, k) = (job.nd, job.nl);
    // Steps before `first` are rows already solved: terms only.
    let first = if FWD { 0 } else { m - k };
    let panel = if job.sd == 1 { TRI_PANEL } else { k };
    for p0 in (first..first + k).step_by(panel) {
        let p1 = (p0 + panel).min(first + k);
        // The first panel takes the known rows' terms too.
        let from = if p0 == first { 0 } else { p0 };
        tri_rows::<L, T, RV, HOW, FWD>(job, p0..p1, from..from, Some(unit));
        tri_rows::<L, T, RV, HOW, FWD>(job, p1..m, p0..p1, None);
    }
}

/// The triangle's rows of solve steps `rows`, in blocks of [`block_rows`]:
/// given the terms of steps `sources` (`finish` = `None`), or finished
/// (`Some(unit)`) with their terms from step `sources.start` on.
#[inline(always)]
unsafe fn tri_rows<
    L: Lanes<E = f64>,
    T: Scalar,
    const RV: usize,
    const HOW: u8,
    const FWD: bool,
>(
    job: &Job<'_, T>,
    rows: std::ops::Range<usize>,
    sources: std::ops::Range<usize>,
    finish: Option<bool>,
) {
    let block = block_rows::<L, T, RV>();
    let mut s0 = rows.start;
    while s0 < rows.end {
        let left = rows.end - s0;
        // A finished block takes its terms up to its own first step.
        let ls = match finish {
            Some(_) => sources.start..s0,
            None => sources.clone(),
        };
        s0 += if block >= 6 && left >= 6 {
            tri_block::<L, T, RV, HOW, FWD, 6>(job, s0, ls, finish)
        } else if block >= 4 && left >= 4 {
            tri_block::<L, T, RV, HOW, FWD, 4>(job, s0, ls, finish)
        } else if block >= 2 && left >= 2 {
            tri_block::<L, T, RV, HOW, FWD, 2>(job, s0, ls, finish)
        } else {
            tri_block::<L, T, RV, HOW, FWD, 1>(job, s0, ls, finish)
        };
    }
}

/// The `D` rows a triangle solves in steps `s0 .. s0 + D`, held in
/// registers: first the terms of the rows solved at steps `ls`, in solve
/// order; then — `finish` = `Some(unit)` — the block's own rows as each is
/// finished, so every row gets its terms in solve order whatever the
/// blocking. A finished row is divided by its pivot (`!unit`) before it
/// serves as a term. Returns `D`.
#[inline(always)]
unsafe fn tri_block<
    L: Lanes<E = f64>,
    T: Scalar,
    const RV: usize,
    const HOW: u8,
    const FWD: bool,
    const D: usize,
>(
    job: &Job<'_, T>,
    s0: usize,
    ls: std::ops::Range<usize>,
    finish: Option<bool>,
) -> usize {
    let sh = job.sh;
    let (rl, m) = (sh.row_len(), job.nd);
    let live = live::<L, RV>(sh.w);
    // Row of the triangle solved at step `s`.
    let at = |s: usize| if FWD { s } else { m - 1 - s };
    let row = |i: usize| job.dst.add(i * rl);
    let mut acc = [[[L::zero(); RV]; 2]; D];
    for d in 0..D {
        acc[d] = load_row::<L, T, RV>(sh, &live, row(at(s0 + d)));
    }
    for s in ls {
        let x = load_row::<L, T, RV>(sh, &live, row(at(s)));
        let Some(m) = acting::<L, T, RV, HOW>(&x) else {
            continue;
        };
        for d in 0..D {
            fma_row::<L, T, RV, HOW>(job.coef::<HOW>(at(s0 + d), at(s)), &x, &m, &mut acc[d]);
        }
    }
    for d in 0..D {
        let i = at(s0 + d);
        let Some(unit) = finish else {
            store_row::<L, T, RV>(sh, &live, row(i), &acc[d]);
            continue;
        };
        for e in 0..d {
            let x = acc[e];
            if let Some(m) = acting::<L, T, RV, HOW>(&x) {
                fma_row::<L, T, RV, HOW>(job.coef::<HOW>(i, at(s0 + e)), &x, &m, &mut acc[d]);
            }
        }
        store_row::<L, T, RV>(sh, &live, row(i), &acc[d]);
        if !unit {
            let p = *job.a.add(i * (job.sd + job.sl));
            let p = if job.conj { p.conj() } else { p };
            div_row(sh, std::slice::from_raw_parts_mut(row(i), rl), p);
            acc[d] = load_row::<L, T, RV>(sh, &live, row(i));
        }
    }
    D
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::Mat;
    use crate::simd::{host_isas, with_isa};
    use rand::{Rng, SeedableRng};

    /// Rows of a width-`w` workspace with random lanes, exact zeros (`+0.0`
    /// and `−0.0`, in one plane or both), a row that is zero in every lane,
    /// and unwritten padding.
    fn random_rows<T: Scalar>(sh: LaneShape, rows: usize, rng: &mut impl Rng) -> LaneBuf {
        let mut x = LaneBuf::zeros(sh, rows);
        for i in 0..rows {
            for c in 0..sh.lanes() {
                let v = match rng.random_range(0..8) {
                    0 => T::ZERO,
                    1 => -T::ZERO,
                    2 => T::from_real(T::Real::from_f64_real(rng.random_range(-1.0..1.0))),
                    _ if i == 2 => T::ZERO,
                    _ => T::rand_unit(rng),
                };
                sh.set(x.as_mut_slice(), i, c, v);
            }
        }
        x
    }

    /// A `rows × cols` coefficient matrix with a well-conditioned diagonal,
    /// and some exact zeros off it.
    fn coefficients<T: Scalar>(rows: usize, cols: usize, rng: &mut impl Rng) -> Mat<T> {
        let mut a = Mat::<T>::random(rows, cols, rng);
        for i in 0..rows.min(cols) {
            a[(i, i)] += T::from_f64(3.0);
        }
        for i in (0..rows).step_by(3) {
            a[(i, (i + 1) % cols)] = T::ZERO;
        }
        a
    }

    fn lane_bits<T: Scalar>(sh: LaneShape, x: &LaneBuf, c: usize) -> Vec<(u64, u64)> {
        let n = x.as_slice().len() / sh.row_len();
        (0..n)
            .map(|i| {
                let v: T = sh.get(x.as_slice(), i, c);
                (v.real().to_f64().to_bits(), v.imag().to_f64().to_bits())
            })
            .collect()
    }

    /// A kernel call on a (destination, source) pair of workspaces.
    type LaneCall<'a> = dyn Fn(LaneShape, &mut [f64], &[f64]) + 'a;

    /// `kernel` on a width-`w` pair of workspaces (destination, source), and
    /// on each lane alone: every lane of the wide call must carry the bits of
    /// its 1-lane call.
    fn lanes_match_1_lane_calls<T: Scalar>(
        what: &str,
        rows: (usize, usize),
        kernel: &LaneCall<'_>,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for w in [1usize, 3, 7, 8, 9, 31, 32] {
            let sh = LaneShape::new::<T>(w);
            let mut dst = random_rows::<T>(sh, rows.0, &mut rng);
            let src = random_rows::<T>(sh, rows.1, &mut rng);
            let (dst0, src0) = (dst.as_slice().to_vec(), src.as_slice().to_vec());
            kernel(sh, dst.as_mut_slice(), src.as_slice());
            let one = LaneShape::new::<T>(1);
            for c in 0..w {
                let lane_of = |x: &[f64], n: usize| {
                    let mut y = LaneBuf::zeros(one, n);
                    for i in 0..n {
                        one.set(y.as_mut_slice(), i, 0, sh.get::<T>(x, i, c));
                    }
                    y
                };
                let mut d1 = lane_of(&dst0, rows.0);
                let s1 = lane_of(&src0, rows.1);
                kernel(one, d1.as_mut_slice(), s1.as_slice());
                assert!(
                    lane_bits::<T>(sh, &dst, c) == lane_bits::<T>(one, &d1, 0),
                    "{what}: width {w}, lane {c}"
                );
            }
        }
    }

    fn every_kernel_on_every_body<T: Scalar>() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        let (nd, nl) = (7, 6);
        let a = coefficients::<T>(nd, nl, &mut rng);
        let at = a.transpose();
        // A triangle within one panel and one across several (`TRI_PANEL`).
        let tris = [nl, 2 * TRI_PANEL + 5].map(|k| coefficients::<T>(k, k, &mut rng));
        let idx_d = [9, 4, 12, 5, 8, 11, 6];
        let idx_s = [3, 0, 5, 1, 4, 2];
        let d: Vec<T> = (0..nl).map(|i| tris[0][(i, i)]).collect();
        for isa in host_isas() {
            with_isa(isa, || {
                for how in [Update::Add, Update::Sub, Update::SubNonzero] {
                    for op in [Op::NoTrans, Op::Trans, Op::ConjTrans] {
                        let a = if op == Op::NoTrans { &a } else { &at };
                        lanes_match_1_lane_calls::<T>(
                            &format!("{isa:?} update_rows {how:?} {op:?}, indexed destinations"),
                            (14, nl),
                            &|sh, x, y| {
                                let dst = (x, Rows::At(&idx_d, 1));
                                update_rows(sh, how, a.as_ref(), op, dst, (y, Rows::From(0)));
                            },
                        );
                        lanes_match_1_lane_calls::<T>(
                            &format!("{isa:?} update_rows {how:?} {op:?}, indexed sources"),
                            (nd + 2, nl),
                            &|sh, x, y| {
                                let dst = (x, Rows::From(2));
                                update_rows(sh, how, a.as_ref(), op, dst, (y, Rows::At(&idx_s, 0)));
                            },
                        );
                    }
                }
                for (how, t) in [Update::Sub, Update::SubNonzero]
                    .into_iter()
                    .flat_map(|how| tris.iter().map(move |t| (how, t)))
                {
                    for (tri, op, diag) in [
                        (Tri::Lower, Op::NoTrans, Diag::Unit),
                        (Tri::Lower, Op::Trans, Diag::Unit),
                        (Tri::Upper, Op::NoTrans, Diag::NonUnit),
                        (Tri::Upper, Op::ConjTrans, Diag::NonUnit),
                    ] {
                        let k = t.nrows();
                        lanes_match_1_lane_calls::<T>(
                            &format!("{isa:?} solve_tri {how:?} {tri:?} {op:?} {diag:?} k={k}"),
                            (k, 0),
                            &|sh, x, _| solve_tri(sh, how, t.as_ref(), tri, op, diag, x),
                        );
                    }
                }
                lanes_match_1_lane_calls::<T>(
                    &format!("{isa:?} div_rows"),
                    (nl, 0),
                    &|sh, x, _| div_rows(sh, x, &d),
                );
            });
        }
    }

    #[test]
    fn every_lane_kernel_gives_each_lane_its_1_lane_bits() {
        every_kernel_on_every_body::<f64>();
        every_kernel_on_every_body::<C64>();
    }

    /// The kernels against plain column arithmetic: an update is a product,
    /// a triangle a solve.
    #[test]
    fn kernels_compute_the_products_and_solves_they_name() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        let sh = LaneShape::new::<C64>(5);
        // The triangle spans several `NoTrans` panels.
        let (k, t) = (2 * TRI_PANEL + 3, 9);
        let l = coefficients::<C64>(t, k, &mut rng);
        let tri = coefficients::<C64>(k, k, &mut rng);
        let b1 = Mat::<C64>::random(k, 5, &mut rng);
        let b2 = Mat::<C64>::random(t, 5, &mut rng);
        let (mut x1, mut x2) = (LaneBuf::zeros(sh, k), LaneBuf::zeros(sh, t));
        load_rows(sh, x1.as_mut_slice(), b1.as_ref(), Rows::From(0));
        let perm: Vec<usize> = (0..t).rev().collect();
        load_rows(sh, x2.as_mut_slice(), b2.as_ref(), Rows::At(&perm, 0));
        // x2 −= L·x1, then x1 ← U⁻¹·x1.
        let src = (x1.as_slice(), Rows::From(0));
        update_rows(
            sh,
            Update::Sub,
            l.as_ref(),
            Op::NoTrans,
            (x2.as_mut_slice(), Rows::At(&perm, 0)),
            src,
        );
        solve_tri(
            sh,
            Update::Sub,
            tri.as_ref(),
            Tri::Upper,
            Op::NoTrans,
            Diag::NonUnit,
            x1.as_mut_slice(),
        );
        let mut y2 = Mat::<C64>::zeros(t, 5);
        store_rows(sh, x2.as_slice(), y2.as_mut(), Rows::At(&perm, 0));
        let mut y1 = Mat::<C64>::zeros(k, 5);
        store_rows(sh, x1.as_slice(), y1.as_mut(), Rows::From(0));
        let mut want2 = b2.clone();
        crate::gemm(
            -C64::ONE,
            l.as_ref(),
            Op::NoTrans,
            b1.as_ref(),
            Op::NoTrans,
            C64::ONE,
            want2.as_mut(),
        );
        want2.axpy(-C64::ONE, &y2);
        assert!(want2.norm_max() < 1e-13, "update: {:.3e}", want2.norm_max());
        let mut back = Mat::<C64>::zeros(k, 5);
        let mut upper = tri.clone();
        for j in 0..k {
            for i in j + 1..k {
                upper[(i, j)] = C64::ZERO;
            }
        }
        crate::gemm(
            C64::ONE,
            upper.as_ref(),
            Op::NoTrans,
            y1.as_ref(),
            Op::NoTrans,
            C64::ZERO,
            back.as_mut(),
        );
        back.axpy(-C64::ONE, &b1);
        assert!(back.norm_max() < 1e-12, "triangle: {:.3e}", back.norm_max());
    }
}
