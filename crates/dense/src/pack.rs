//! Packing buffers and the register-tiled microkernel behind the cache-blocked
//! GEMM (see [`crate::gemm::gemm`]).
//!
//! The design follows the BLIS decomposition: the operand blocks selected by
//! the MC/KC/NC loop nest are copied once into *packed* buffers whose layout
//! matches exactly the access pattern of the innermost kernel, and the
//! microkernel then streams through contiguous memory with zero index
//! arithmetic or `Op` dispatch:
//!
//! * [`pack`] stores an `mc × kc` block of `op(A)` as `⌈mc/MR⌉` row
//!   micro-panels — panel `ip` holds, for `k = 0..kc`, the `MR` consecutive
//!   elements `op(A)[ip·MR .. ip·MR+MR, k]` — and a `kc × nc` block of `op(B)`
//!   as `⌈nc/NR⌉` column micro-panels, panel `jp` holding
//!   `op(B)[k, jp·NR .. jp·NR+NR]` for each `k`. Transposition and conjugation
//!   are resolved *here*, at pack time, so the hot loop never branches on `Op`.
//! * Edge panels (when `mc % MR != 0` or `nc % NR != 0`) are zero-padded, so
//!   the microkernel always reads full panels; its write-back masks the
//!   `mr_eff × nr_eff` valid prefix.
//!
//! The microkernel ([`tile`]) is one body over [`Lanes`]: it keeps a
//! register-sized piece of the [`MR`]` × `[`NR`] tile in accumulators across
//! the whole `kc` loop and issues one multiply-add per element and `k`. With
//! AVX-512 the piece is the whole 16×8 tile — sixteen `zmm` accumulators of
//! fused multiply-adds; the AVX2+FMA body walks the same packed tile as four
//! 8×4 pieces, the portable body (separate multiply and add) as eight 4×4
//! pieces.
//!
//! Complex scalars take a dedicated *split* path (the same packing into a
//! pair of planes, `macro_kernel_split`): the packed micro-panels hold the
//! real and imaginary parts in two separate `f64` planes, and a complex tile
//! is four passes of the one real tile over them (`re += ar·br − ai·bi`,
//! `im += ar·bi + ai·br`) on full-width real vectors — no shuffle-heavy
//! interleaved lanes, and conjugation is again resolved at pack time by
//! negating the imaginary plane. Blocking parameters come from the
//! measured-cache calibration in [`crate::cache`].

use csolve_common::{RealScalar, Scalar};

use crate::cache::{kernel_blocking, KernelBlocking};
use crate::gemm::Op;
use crate::mat::{MatMut, MatRef};
use crate::simd::{as_f64, isa, Isa, Lanes, Portable};
#[cfg(target_arch = "x86_64")]
use crate::simd::{Avx2, Avx512};

/// Register tile height: two 8-lane `f64` vectors.
pub(crate) const MR: usize = 16;
/// Register tile width.
pub(crate) const NR: usize = 8;

/// Cache blocking of the MC/KC/NC loop nest for scalar type `T`, in
/// elements. Calibrated once per process from the measured cache hierarchy
/// (see [`crate::cache`]); *fixed per type* — never derived from the runtime
/// thread count — which is what keeps the per-element accumulation schedule,
/// and therefore the result, identical for any number of threads.
pub(crate) fn blocking<T>() -> KernelBlocking {
    kernel_blocking(std::mem::size_of::<T>())
}

/// Where a packing pass writes: one buffer of `T` (the real path), or the
/// re/im `f64` planes of the split-complex path.
pub(crate) trait PackBuf<T> {
    /// Resize to `len` zeros — the padding of the edge panels.
    fn reset(&mut self, len: usize);
    fn put(&mut self, at: usize, v: T);
}

impl<T: Scalar> PackBuf<T> for Vec<T> {
    fn reset(&mut self, len: usize) {
        self.clear();
        self.resize(len, T::ZERO);
    }
    #[inline(always)]
    fn put(&mut self, at: usize, v: T) {
        self[at] = v;
    }
}

/// The `(re, im)` planes: a conjugated element lands with its imaginary part
/// negated, so the microkernel never sees a conjugation either.
impl<T: Scalar> PackBuf<T> for (Vec<f64>, Vec<f64>) {
    fn reset(&mut self, len: usize) {
        for plane in [&mut self.0, &mut self.1] {
            plane.clear();
            plane.resize(len, 0.0);
        }
    }
    #[inline(always)]
    fn put(&mut self, at: usize, v: T) {
        self.0[at] = v.real().to_f64();
        self.1[at] = v.imag().to_f64();
    }
}

/// Pack a `len × kc` block of an operand `op(X)` into micro-panels of `R`
/// values of the panel index `r` (panel `r / R` holds, for `k = 0..kc`, `R`
/// consecutive `r`), zero-padding the last panel: `dst` is reset to exactly
/// `⌈len/R⌉ · kc · R` elements. Transposition and conjugation are resolved
/// here, so the microkernel never branches on `Op`.
///
/// * `op(A)`, `rows = true`, `R = `[`MR`]: `r` runs over the rows of `op(A)`
///   from `r0`, `k` over its columns (the inner index) from `k0`;
/// * `op(B)`, `rows = false`, `R = `[`NR`]: `r` runs over the columns of
///   `op(B)` from `r0`, `k` over its rows from `k0`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack<T: Scalar, const R: usize>(
    x: MatRef<'_, T>,
    op: Op,
    rows: bool,
    r0: usize,
    k0: usize,
    len: usize,
    kc: usize,
    dst: &mut impl PackBuf<T>,
) {
    dst.reset(len.div_ceil(R) * kc * R);
    let conj = |v: T| if op == Op::ConjTrans { v.conj() } else { v };
    for p0 in (0..len).step_by(R) {
        let (live, base) = (R.min(len - p0), p0 * kc);
        if rows == (op == Op::NoTrans) {
            // `r` runs down the stored columns: contiguous reads in `r`.
            for kk in 0..kc {
                let src = &x.col(k0 + kk)[r0 + p0..r0 + p0 + live];
                for (r, &v) in src.iter().enumerate() {
                    dst.put(base + kk * R + r, conj(v));
                }
            }
        } else {
            // `r` picks the stored column: contiguous reads in `k`.
            for r in 0..live {
                let src = &x.col(r0 + p0 + r)[k0..k0 + kc];
                for (kk, &v) in src.iter().enumerate() {
                    dst.put(base + kk * R + r, conj(v));
                }
            }
        }
    }
}

/// One packed block product over raw operands: `C[..mc, ..nc] += α · Ap·Bp`,
/// `ap` / `bp` the packed `mc × kc` / `kc × nc` blocks, `c` the block's top
/// left element in a column-major array of stride `ldc`.
struct Block<E> {
    alpha: E,
    ap: *const E,
    bp: *const E,
    mc: usize,
    nc: usize,
    kc: usize,
    c: *mut E,
    ldc: usize,
}

/// Microkernel: `C[..mr, ..nr] += α · Ap·Bp` for the [`MR`]` × `[`NR`]
/// micro-tile at `(r0, c0)` of the block.
///
/// The tile is walked in pieces of `RV` registers × `NC` columns; a piece
/// accumulates its `kc` multiply-adds in registers, in `k` order, and lands in
/// `C` as one more multiply-add per element. Pieces wholly outside the block
/// are skipped. The order of operations per element depends on nothing but
/// `kc`, so the result is independent of blocking geometry and thread count.
///
/// # Safety
///
/// [`Lanes`]' contract; `b.ap` / `b.bp` hold `⌈mc/MR⌉·kc·MR` / `⌈nc/NR⌉·kc·NR`
/// elements, and the caller owns `C[..mc, ..nc]`.
#[inline(always)]
unsafe fn tile<L: Lanes, const RV: usize, const NC: usize>(b: &Block<L::E>, r0: usize, c0: usize) {
    let (ap, bp) = (b.ap.add(r0 * b.kc), b.bp.add(c0 * b.kc));
    let (mr, nr) = (MR.min(b.mc - r0), NR.min(b.nc - c0));
    let alpha = L::splat(b.alpha);
    for j0 in (0..nr).step_by(NC) {
        for i0 in (0..mr).step_by(RV * L::W) {
            let mut acc = [[L::zero(); RV]; NC];
            for kk in 0..b.kc {
                let mut a = [L::zero(); RV];
                for v in 0..RV {
                    a[v] = L::load(ap.add(kk * MR + i0 + v * L::W));
                }
                for j in 0..NC {
                    let x = L::splat(*bp.add(kk * NR + j0 + j));
                    for v in 0..RV {
                        acc[j][v] = L::mul_add(a[v], x, acc[j][v]);
                    }
                }
            }
            for j in 0..NC.min(nr - j0) {
                for v in 0..RV {
                    let row = i0 + v * L::W;
                    let live = L::W.min(mr.saturating_sub(row));
                    let p = b.c.wrapping_add((c0 + j0 + j) * b.ldc + r0 + row);
                    L::store_n(p, live, L::mul_add(alpha, acc[j][v], L::load_n(p, live)));
                }
            }
        }
    }
}

/// Every micro-tile of a block, in the fixed order B-panel outer, A-panel
/// inner (the B micro-panel stays in L1 while the A panels stream past).
///
/// # Safety
///
/// [`tile`]'s contract.
#[inline(always)]
unsafe fn block_tiles<L: Lanes, const RV: usize, const NC: usize>(b: &Block<L::E>) {
    for c0 in (0..b.nc).step_by(NR) {
        for r0 in (0..b.mc).step_by(MR) {
            tile::<L, RV, NC>(b, r0, c0);
        }
    }
}

/// [`block_tiles`] on the whole 16×8 tile in `zmm` registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn block_tiles_avx512(b: &Block<f64>) {
    block_tiles::<Avx512, 2, 8>(b)
}

/// [`block_tiles`] on 8×4 pieces in `ymm` registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn block_tiles_avx2(b: &Block<f64>) {
    block_tiles::<Avx2, 2, 4>(b)
}

/// An `f64` block on the widest tile body the host has ([`isa`]).
///
/// # Safety
///
/// [`tile`]'s contract, minus the CPU features: checked here.
unsafe fn block_f64(b: &Block<f64>) {
    match isa() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => block_tiles_avx512(b),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => block_tiles_avx2(b),
        _ => block_tiles::<Portable<f64>, 1, 4>(b),
    }
}

/// Macro-kernel: multiply the packed `mc × kc` A block by the packed
/// `kc × nc` B block, accumulating `C += α · Apack · Bpack` micro-tile by
/// micro-tile. `c` is the `mc × nc` destination block (β has already been
/// applied by the caller, once per macro-tile).
///
/// `f64` runs the AVX-512 or AVX2 fused-multiply-add tile, every other scalar
/// the portable one. The selected body depends only on the scalar type and
/// the host CPU — never on data or thread count — so results remain bitwise
/// reproducible on a given machine.
pub(crate) fn macro_kernel<T: Scalar>(
    alpha: T,
    apack: &[T],
    bpack: &[T],
    mc: usize,
    nc: usize,
    kc: usize,
    c: &mut MatMut<'_, T>,
) {
    assert!(apack.len() >= mc.div_ceil(MR) * kc * MR && bpack.len() >= nc.div_ceil(NR) * kc * NR);
    assert!(c.nrows() >= mc && c.ncols() >= nc);
    let (ap, bp, cp, ldc) = (apack.as_ptr(), bpack.as_ptr(), c.as_mut_ptr(), c.ld());
    // SAFETY: the packed buffers hold every micro-panel the loops read and
    // `c` covers the `mc × nc` block (asserted above); the pointers are cast
    // only when `T` is `f64` (`as_f64`).
    unsafe {
        match as_f64(alpha) {
            Some(alpha) => {
                let (ap, bp, c) = (ap.cast(), bp.cast(), cp.cast());
                #[rustfmt::skip]
                let block = Block { alpha, ap, bp, mc, nc, kc, c, ldc };
                block_f64(&block)
            }
            None => {
                #[rustfmt::skip]
                let block = Block { alpha, ap, bp, mc, nc, kc, c: cp, ldc };
                block_tiles::<Portable<T>, 1, 4>(&block)
            }
        }
    }
}

/// Split-complex macro-kernel: multiply packed re/im planes of the `mc × kc`
/// A block and the `kc × nc` B block, accumulating
/// `C += α · Apack · Bpack` micro-tile by micro-tile (β already applied by
/// the caller). A complex micro-tile is four passes of the real [`tile`]
/// over the planes into two `f64` tile buffers —
///
/// ```text
/// re = ar·br − ai·bi        im = ar·bi + ai·br
/// ```
///
/// — every one a full-width real multiply-add stream, the interleaved-lane
/// shuffles of a complex kernel gone entirely; the complex `α` is applied
/// once per output element at write-back.
pub(crate) fn macro_kernel_split<T: Scalar>(
    alpha: T,
    (are, aim): (&[f64], &[f64]),
    (bre, bim): (&[f64], &[f64]),
    mc: usize,
    nc: usize,
    kc: usize,
    c: &mut MatMut<'_, T>,
) {
    let (alen, blen) = (mc.div_ceil(MR) * kc * MR, nc.div_ceil(NR) * kc * NR);
    assert!(are.len() >= alen && aim.len() >= alen && bre.len() >= blen && bim.len() >= blen);
    for c0 in (0..nc).step_by(NR) {
        let nr = NR.min(nc - c0);
        for r0 in (0..mc).step_by(MR) {
            let mr = MR.min(mc - r0);
            let (mut re, mut im) = ([0.0f64; MR * NR], [0.0f64; MR * NR]);
            let pass = |alpha: f64, a: &[f64], b: &[f64], out: &mut [f64; MR * NR]| {
                let (ap, bp) = (a[r0 * kc..].as_ptr(), b[c0 * kc..].as_ptr());
                let (c, ldc) = (out.as_mut_ptr(), MR);
                #[rustfmt::skip]
                let tile = Block { alpha, ap, bp, mc: mr, nc: nr, kc, c, ldc };
                // SAFETY: one whole micro-panel of each plane lies at `ap` /
                // `bp` (lengths asserted above); `out` is a whole tile.
                unsafe { block_f64(&tile) }
            };
            pass(1.0, are, bre, &mut re);
            pass(-1.0, aim, bim, &mut re);
            pass(1.0, are, bim, &mut im);
            pass(1.0, aim, bre, &mut im);
            for j in 0..nr {
                let col = &mut c.col_mut(c0 + j)[r0..r0 + mr];
                for (i, ci) in col.iter_mut().enumerate() {
                    let part = |p: &[f64]| T::Real::from_f64_real(p[j * MR + i]);
                    *ci += alpha * T::from_parts(part(&re), part(&im));
                }
            }
        }
    }
}
