//! The vector registers the register tiles are written against.
//!
//! A tile (the packed 16×8 GEMM microkernel in `pack`, the row kernels of
//! the multi-RHS solve in `lane`) is one generic body over [`Lanes`]: a
//! register of `W` elements with loads, masked edge loads/stores and a
//! multiply-add — also under a lane mask. Three implementations exist:
//!
//! * [`Avx512`] — 8 × `f64` in a `zmm`, `vfmadd` (one rounding per
//!   multiply-add), mask registers for the edges;
//! * [`Avx2`] — 4 × `f64` in a `ymm`, `vfmadd`, `vmaskmov` for the edges;
//! * [`Portable`] — `[T; 4]` of any [`Scalar`], a separate multiply and add
//!   (Rust never contracts `a·b + c` on its own), plain loops for the edges.
//!
//! Which one runs is a property of the host ([`isa`]) and of the scalar type
//! (`f64` — and the `f64` planes of the split-complex path — take the vector
//! bodies, everything else the portable one): never of the data or the thread
//! count. A fused multiply-add rounds once where the portable body rounds
//! twice, so results differ *between hosts* with and without FMA; on one host
//! they are reproducible bit for bit.

use std::any::TypeId;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;
use std::marker::PhantomData;

use csolve_common::Scalar;

/// Instruction set the `f64` register tiles run with on this host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    /// 512-bit vectors with fused multiply-add.
    Avx512,
    /// 256-bit vectors with fused multiply-add.
    Avx2,
    /// No vector extension assumed: separate multiply and add.
    Portable,
}

#[cfg(test)]
thread_local! {
    static FORCED_ISA: std::cell::Cell<Option<Isa>> = const { std::cell::Cell::new(None) };
}

/// Run `f` with the tiles called from this thread pinned to `isa`, which the
/// host must support — how a host with AVX-512 tests the bodies it would
/// otherwise never run. Thread-local: keep the work on this thread
/// ([`crate::gemm::with_serial`]).
#[cfg(test)]
pub(crate) fn with_isa<R>(isa: Isa, f: impl FnOnce() -> R) -> R {
    let prev = FORCED_ISA.with(|c| c.replace(Some(isa)));
    let out = f();
    FORCED_ISA.with(|c| c.set(prev));
    out
}

/// Every tile body this host can run: the portable one always, the vector
/// ones when the CPU has them.
#[cfg(test)]
pub(crate) fn host_isas() -> Vec<Isa> {
    let mut isas = vec![Isa::Portable];
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            isas.push(Isa::Avx2);
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            isas.push(Isa::Avx512);
        }
    }
    isas
}

/// The widest tile body this host can run.
pub(crate) fn isa() -> Isa {
    #[cfg(test)]
    if let Some(forced) = FORCED_ISA.with(std::cell::Cell::get) {
        return forced;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Isa::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return Isa::Avx2;
        }
    }
    Isa::Portable
}

/// `x` as an `f64` when `T` *is* `f64`: the checked identity cast through
/// which the generic kernels reach their `f64` vector bodies.
#[inline(always)]
pub(crate) fn as_f64<T: Scalar>(x: T) -> Option<f64> {
    // SAFETY: the type ids are equal, so `T` and `f64` are the same type.
    (TypeId::of::<T>() == TypeId::of::<f64>()).then(|| unsafe { std::mem::transmute_copy(&x) })
}

/// A register of [`Lanes::W`] elements of [`Lanes::E`].
///
/// # Safety
///
/// Every method of [`Avx512`] / [`Avx2`] requires the CPU features of its
/// instruction set and must be inlined into a function compiled with them
/// (`#[target_feature]`). `load_n`/`store_n` touch the first `n ≤ W` elements
/// at `p` — all of which the caller owns.
pub(crate) trait Lanes {
    /// Element type.
    type E: Scalar;
    /// The register.
    type V: Copy;
    /// Elements per register.
    const W: usize;
    /// Registers the instruction set has: what a kernel may keep live.
    const REGS: usize;
    /// One flag per lane.
    type M: Copy;
    unsafe fn splat(x: Self::E) -> Self::V;
    /// `W` elements at `p`.
    unsafe fn load(p: *const Self::E) -> Self::V;
    #[inline(always)]
    unsafe fn zero() -> Self::V {
        Self::splat(Self::E::ZERO)
    }
    /// The first `n` elements at `p`, zero in the other lanes.
    unsafe fn load_n(p: *const Self::E, n: usize) -> Self::V;
    /// The first `n` lanes of `v` to `p`; nothing else is written.
    unsafe fn store_n(p: *mut Self::E, n: usize, v: Self::V);
    /// `a·b + c`, fused where the instruction set has it.
    unsafe fn mul_add(a: Self::V, b: Self::V, c: Self::V) -> Self::V;
    /// The lanes of `v` that are not an exact zero (`-0.0` is one; a NaN is
    /// not).
    unsafe fn nonzero(v: Self::V) -> Self::M;
    /// The lanes set in `a` or in `b`.
    unsafe fn or(a: Self::M, b: Self::M) -> Self::M;
    /// Whether no lane is set.
    unsafe fn none(m: Self::M) -> bool;
    /// `a·b + c` in the lanes set in `m`, `c` in the others — the same
    /// rounding as [`Lanes::mul_add`] where it acts.
    unsafe fn mul_add_where(m: Self::M, a: Self::V, b: Self::V, c: Self::V) -> Self::V;
}

/// 8 × `f64` with AVX-512F.
pub(crate) struct Avx512;

#[cfg(target_arch = "x86_64")]
impl Avx512 {
    /// Mask register selecting the first `n ≤ 8` lanes.
    #[inline(always)]
    fn mask(n: usize) -> __mmask8 {
        ((1u32 << n) - 1) as __mmask8
    }
}

#[cfg(target_arch = "x86_64")]
impl Lanes for Avx512 {
    type E = f64;
    type V = __m512d;
    const W: usize = 8;
    const REGS: usize = 32;
    type M = __mmask8;
    #[inline(always)]
    unsafe fn splat(x: f64) -> __m512d {
        _mm512_set1_pd(x)
    }
    #[inline(always)]
    unsafe fn load(p: *const f64) -> __m512d {
        _mm512_loadu_pd(p)
    }
    #[inline(always)]
    unsafe fn load_n(p: *const f64, n: usize) -> __m512d {
        _mm512_maskz_loadu_pd(Self::mask(n), p)
    }
    #[inline(always)]
    unsafe fn store_n(p: *mut f64, n: usize, v: __m512d) {
        _mm512_mask_storeu_pd(p, Self::mask(n), v)
    }
    #[inline(always)]
    unsafe fn mul_add(a: __m512d, b: __m512d, c: __m512d) -> __m512d {
        _mm512_fmadd_pd(a, b, c)
    }
    #[inline(always)]
    unsafe fn nonzero(v: __m512d) -> __mmask8 {
        _mm512_cmp_pd_mask::<_CMP_NEQ_UQ>(v, _mm512_setzero_pd())
    }
    #[inline(always)]
    unsafe fn or(a: __mmask8, b: __mmask8) -> __mmask8 {
        a | b
    }
    #[inline(always)]
    unsafe fn none(m: __mmask8) -> bool {
        m == 0
    }
    #[inline(always)]
    unsafe fn mul_add_where(m: __mmask8, a: __m512d, b: __m512d, c: __m512d) -> __m512d {
        _mm512_mask3_fmadd_pd(a, b, c, m)
    }
}

/// 4 × `f64` with AVX2 + FMA.
pub(crate) struct Avx2;

#[cfg(target_arch = "x86_64")]
impl Avx2 {
    /// Lane mask selecting the first `n` lanes.
    #[inline(always)]
    unsafe fn mask(n: usize) -> __m256i {
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(n as i64), _mm256_set_epi64x(3, 2, 1, 0))
    }
}

#[cfg(target_arch = "x86_64")]
impl Lanes for Avx2 {
    type E = f64;
    type V = __m256d;
    const W: usize = 4;
    const REGS: usize = 16;
    type M = __m256d;
    #[inline(always)]
    unsafe fn splat(x: f64) -> __m256d {
        _mm256_set1_pd(x)
    }
    #[inline(always)]
    unsafe fn load(p: *const f64) -> __m256d {
        _mm256_loadu_pd(p)
    }
    #[inline(always)]
    unsafe fn load_n(p: *const f64, n: usize) -> __m256d {
        _mm256_maskload_pd(p, Self::mask(n))
    }
    #[inline(always)]
    unsafe fn store_n(p: *mut f64, n: usize, v: __m256d) {
        _mm256_maskstore_pd(p, Self::mask(n), v)
    }
    #[inline(always)]
    unsafe fn mul_add(a: __m256d, b: __m256d, c: __m256d) -> __m256d {
        _mm256_fmadd_pd(a, b, c)
    }
    #[inline(always)]
    unsafe fn nonzero(v: __m256d) -> __m256d {
        _mm256_cmp_pd::<_CMP_NEQ_UQ>(v, _mm256_setzero_pd())
    }
    #[inline(always)]
    unsafe fn or(a: __m256d, b: __m256d) -> __m256d {
        _mm256_or_pd(a, b)
    }
    #[inline(always)]
    unsafe fn none(m: __m256d) -> bool {
        _mm256_movemask_pd(m) == 0
    }
    #[inline(always)]
    unsafe fn mul_add_where(m: __m256d, a: __m256d, b: __m256d, c: __m256d) -> __m256d {
        _mm256_blendv_pd(c, _mm256_fmadd_pd(a, b, c), m)
    }
}

/// Four elements of any scalar type, no instruction-set assumption.
pub(crate) struct Portable<T>(PhantomData<T>);

impl<T: Scalar> Lanes for Portable<T> {
    type E = T;
    type V = [T; 4];
    const W: usize = 4;
    const REGS: usize = 16;
    type M = [bool; 4];
    #[inline(always)]
    unsafe fn splat(x: T) -> [T; 4] {
        [x; 4]
    }
    #[inline(always)]
    unsafe fn load(p: *const T) -> [T; 4] {
        p.cast::<[T; 4]>().read_unaligned()
    }
    #[inline(always)]
    unsafe fn load_n(p: *const T, n: usize) -> [T; 4] {
        std::array::from_fn(|l| if l < n { *p.add(l) } else { T::ZERO })
    }
    #[inline(always)]
    unsafe fn store_n(p: *mut T, n: usize, v: [T; 4]) {
        for (l, x) in v.into_iter().enumerate().take(n) {
            *p.add(l) = x;
        }
    }
    #[inline(always)]
    unsafe fn mul_add(a: [T; 4], b: [T; 4], c: [T; 4]) -> [T; 4] {
        std::array::from_fn(|l| a[l] * b[l] + c[l])
    }
    #[inline(always)]
    unsafe fn nonzero(v: [T; 4]) -> [bool; 4] {
        v.map(|x| x != T::ZERO)
    }
    #[inline(always)]
    unsafe fn or(a: [bool; 4], b: [bool; 4]) -> [bool; 4] {
        std::array::from_fn(|l| a[l] || b[l])
    }
    #[inline(always)]
    unsafe fn none(m: [bool; 4]) -> bool {
        m == [false; 4]
    }
    #[inline(always)]
    unsafe fn mul_add_where(m: [bool; 4], a: [T; 4], b: [T; 4], c: [T; 4]) -> [T; 4] {
        std::array::from_fn(|l| if m[l] { a[l] * b[l] + c[l] } else { c[l] })
    }
}
