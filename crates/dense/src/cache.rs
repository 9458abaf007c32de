//! Measured-cache calibration of the GEMM blocking parameters.
//!
//! The BLIS-style loop nest in [`crate::gemm::gemm`] needs three blocking
//! constants per scalar width — MC (rows of the packed `A` block), KC (inner
//! depth of one packed slab) and NC (columns of the packed `B` block) — whose
//! optimal values follow directly from the cache hierarchy: one `A`
//! micro-panel plus one `B` micro-panel must live in L1 while the microkernel
//! streams through them, the full `MC × KC` `A` block is meant to stay
//! L2-resident across the `jr` loop, and the `KC × NC` `B` slab is sized for
//! L3. Earlier revisions hardcoded one guess; this module reads the
//! hierarchy once per process and derives the blocking from it:
//!
//! 1. Linux sysfs (`/sys/devices/system/cpu/cpu0/cache/index*/`);
//! 2. x86 `cpuid` deterministic cache enumeration (leaf 4, with the AMD
//!    `0x8000_001D` mirror);
//! 3. conservative static defaults (32 KiB / 1 MiB / 32 MiB).
//!
//! Every tier is a table lookup, never a timing measurement, so a host
//! calibrates the same blocking — and the packed GEMM sums in the same
//! order — in every process. Derived blocking is quantized (KC to multiples
//! of 16, MC to multiples of MR, NC to multiples of NR) and clamped to sane
//! ranges. The calibration result is stored in a [`OnceLock`]: every GEMM in
//! the process uses the same blocking, which keeps the macro-tile grid — and
//! therefore the trace shape — stable within a run. Blocking never depends on
//! the thread count, preserving the bitwise-determinism contract of the
//! kernel layer.

use std::sync::OnceLock;

/// Where the cache sizes came from (reported in run reports so a surprising
/// blocking choice can be traced back to its measurement).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CacheSource {
    /// Linux sysfs cache topology files.
    Sysfs,
    /// x86 `cpuid` deterministic cache parameters.
    Cpuid,
    /// Static fallback constants.
    Default,
}

impl CacheSource {
    /// Stable lower-case identifier for reports.
    pub fn name(&self) -> &'static str {
        match self {
            CacheSource::Sysfs => "sysfs",
            CacheSource::Cpuid => "cpuid",
            CacheSource::Default => "default",
        }
    }
}

/// Detected per-core cache hierarchy, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheInfo {
    /// L1 data cache of one core.
    pub l1d_bytes: usize,
    /// Private (or per-core-complex) L2.
    pub l2_bytes: usize,
    /// Last-level cache (0 becomes a synthetic `8 × L2` during derivation).
    pub l3_bytes: usize,
    /// Which detection tier produced the numbers.
    pub source: CacheSource,
}

/// Cache-blocking parameters the packed GEMM runs with, in *elements* of the
/// packed scalar (for the split-complex path one element is the full complex
/// value even though it is stored as two real planes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelBlocking {
    /// Rows of the packed `op(A)` block (L2-resident panel height).
    pub mc: usize,
    /// Inner (`k`) depth of one packed slab (L1-sized micro-panels).
    pub kc: usize,
    /// Columns of the packed `op(B)` block (L3-resident slab width).
    pub nc: usize,
    /// Register-tile height the derivation assumed.
    pub mr: usize,
    /// Register-tile width the derivation assumed.
    pub nr: usize,
}

static CACHE: OnceLock<CacheInfo> = OnceLock::new();
static BLOCK_8: OnceLock<KernelBlocking> = OnceLock::new();
static BLOCK_16: OnceLock<KernelBlocking> = OnceLock::new();

/// The cache hierarchy this process calibrated against (detected once, on
/// first use of any packed kernel).
pub fn cache_info() -> &'static CacheInfo {
    CACHE.get_or_init(detect)
}

/// The blocking used for scalars of `elem_bytes` (8 for `f64` and the
/// packed real planes of split-complex `C64`, 16 for `C64`). Derived once per width from
/// [`cache_info`].
pub fn kernel_blocking(elem_bytes: usize) -> KernelBlocking {
    let (slot, elem) = if elem_bytes <= 8 {
        (&BLOCK_8, 8)
    } else {
        (&BLOCK_16, 16)
    };
    *slot.get_or_init(|| derive_blocking(elem, crate::pack::MR, crate::pack::NR, cache_info()))
}

/// Derive MC/KC/NC from a cache hierarchy for one scalar width.
///
/// * KC: one `MR × KC` A micro-panel plus one `KC × NR` B micro-panel fill at
///   most half of L1 (the other half absorbs the C tile and stack noise).
/// * MC: the packed `MC × KC` A block takes at most a quarter of L2, leaving
///   room for the B stream and the destination.
/// * NC: the packed `KC × NC` B slab takes at most an eighth of L3 (shared
///   with other cores and the unpacked operands).
fn derive_blocking(elem: usize, mr: usize, nr: usize, cache: &CacheInfo) -> KernelBlocking {
    let l3 = if cache.l3_bytes == 0 {
        8 * cache.l2_bytes
    } else {
        cache.l3_bytes
    };
    let kc = (cache.l1d_bytes / (2 * elem * (mr + nr))).clamp(32, 512) / 16 * 16;
    let kc = kc.max(32);
    let mc = (cache.l2_bytes / (4 * kc * elem)).clamp(mr, 512) / mr * mr;
    let mc = mc.max(mr);
    let nc = (l3 / (8 * kc * elem)).clamp(64, 1024) / nr * nr;
    KernelBlocking {
        mc,
        kc,
        nc: nc.max(nr),
        mr,
        nr,
    }
}

fn detect() -> CacheInfo {
    from_sysfs().or_else(from_cpuid).unwrap_or(CacheInfo {
        l1d_bytes: 32 * 1024,
        l2_bytes: 1024 * 1024,
        l3_bytes: 32 * 1024 * 1024,
        source: CacheSource::Default,
    })
}

/// Parse `"48K"`, `"2M"` or a plain byte count.
fn parse_size(s: &str) -> Option<usize> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' | b'k' => (&s[..s.len() - 1], 1024),
        b'M' | b'm' => (&s[..s.len() - 1], 1024 * 1024),
        b'G' | b'g' => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    digits.trim().parse::<usize>().ok().map(|v| v * mult)
}

fn from_sysfs() -> Option<CacheInfo> {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut l1d = 0usize;
    let mut l2 = 0usize;
    let mut l3 = 0usize;
    for entry in std::fs::read_dir(base).ok()?.flatten() {
        let dir = entry.path();
        if !dir
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("index"))
        {
            continue;
        }
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).ok();
        let level: usize = match read("level").and_then(|s| s.trim().parse().ok()) {
            Some(l) => l,
            None => continue,
        };
        let ty = read("type").unwrap_or_default();
        let ty = ty.trim();
        let size = match read("size").as_deref().and_then(parse_size) {
            Some(s) => s,
            None => continue,
        };
        match (level, ty) {
            (1, "Data") | (1, "Unified") => l1d = l1d.max(size),
            (2, "Data") | (2, "Unified") => l2 = l2.max(size),
            (3, "Data") | (3, "Unified") => l3 = l3.max(size),
            _ => {}
        }
    }
    (l1d > 0 && l2 > 0).then_some(CacheInfo {
        l1d_bytes: l1d,
        l2_bytes: l2,
        l3_bytes: l3,
        source: CacheSource::Sysfs,
    })
}

#[cfg(target_arch = "x86_64")]
fn from_cpuid() -> Option<CacheInfo> {
    // Deterministic cache parameters: Intel leaf 4, AMD mirror 0x8000_001D.
    // `cpuid` is unprivileged and always present on x86-64.
    let enumerate = |leaf: u32| -> (usize, usize, usize) {
        let (mut l1d, mut l2, mut l3) = (0usize, 0usize, 0usize);
        for sub in 0..16u32 {
            let r = std::arch::x86_64::__cpuid_count(leaf, sub);
            let cache_type = r.eax & 0x1f;
            if cache_type == 0 {
                break; // no more caches
            }
            let level = ((r.eax >> 5) & 0x7) as usize;
            let ways = ((r.ebx >> 22) & 0x3ff) as usize + 1;
            let partitions = ((r.ebx >> 12) & 0x3ff) as usize + 1;
            let line = (r.ebx & 0xfff) as usize + 1;
            let sets = r.ecx as usize + 1;
            let size = ways * partitions * line * sets;
            // type 1 = data, 3 = unified; skip instruction caches (2).
            if cache_type == 2 {
                continue;
            }
            match level {
                1 => l1d = l1d.max(size),
                2 => l2 = l2.max(size),
                3 => l3 = l3.max(size),
                _ => {}
            }
        }
        (l1d, l2, l3)
    };
    let max_ext = std::arch::x86_64::__cpuid(0x8000_0000).eax;
    let (mut l1d, mut l2, mut l3) = enumerate(4);
    if l1d == 0 && max_ext >= 0x8000_001d {
        (l1d, l2, l3) = enumerate(0x8000_001d);
    }
    (l1d > 0 && l2 > 0).then_some(CacheInfo {
        l1d_bytes: l1d,
        l2_bytes: l2,
        l3_bytes: l3,
        source: CacheSource::Cpuid,
    })
}

#[cfg(not(target_arch = "x86_64"))]
fn from_cpuid() -> Option<CacheInfo> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_size_accepts_suffixes() {
        assert_eq!(parse_size("48K"), Some(48 * 1024));
        assert_eq!(parse_size("2M"), Some(2 * 1024 * 1024));
        assert_eq!(parse_size(" 1024 "), Some(1024));
        assert_eq!(parse_size("1g"), Some(1 << 30));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn detection_produces_plausible_hierarchy() {
        let c = cache_info();
        assert!(c.l1d_bytes >= 8 * 1024, "L1d {} too small", c.l1d_bytes);
        assert!(c.l2_bytes >= c.l1d_bytes, "L2 below L1d");
        // L3 may legitimately be absent (0), but never smaller than L2.
        if c.l3_bytes > 0 {
            assert!(c.l3_bytes >= c.l2_bytes);
        }
    }

    #[test]
    fn derived_blocking_is_quantized_and_clamped() {
        for (elem, mr, nr) in [(8usize, 16usize, 8usize), (16, 16, 8)] {
            for cache in [
                CacheInfo {
                    l1d_bytes: 16 * 1024,
                    l2_bytes: 256 * 1024,
                    l3_bytes: 0,
                    source: CacheSource::Default,
                },
                CacheInfo {
                    l1d_bytes: 48 * 1024,
                    l2_bytes: 2 * 1024 * 1024,
                    l3_bytes: 256 * 1024 * 1024,
                    source: CacheSource::Sysfs,
                },
                CacheInfo {
                    l1d_bytes: 1 << 20,
                    l2_bytes: 64 << 20,
                    l3_bytes: 1 << 30,
                    source: CacheSource::Cpuid,
                },
            ] {
                let b = derive_blocking(elem, mr, nr, &cache);
                assert!(
                    b.kc >= 32 && b.kc <= 512 && b.kc.is_multiple_of(16),
                    "{b:?}"
                );
                assert!(
                    b.mc >= mr && b.mc <= 512 && b.mc.is_multiple_of(mr),
                    "{b:?}"
                );
                assert!(
                    b.nc >= nr && b.nc <= 1024 && b.nc.is_multiple_of(nr),
                    "{b:?}"
                );
                // The packed A block must actually fit the L2 share it is
                // derived for (the whole point of calibration).
                assert!(b.mc * b.kc * elem <= cache.l2_bytes, "{b:?} vs {cache:?}");
            }
        }
    }

    #[test]
    fn process_blocking_is_stable() {
        let a = kernel_blocking(8);
        let b = kernel_blocking(8);
        assert_eq!(a, b, "blocking must be calibrated once per process");
        let c = kernel_blocking(16);
        assert!(c.kc <= a.kc, "wider scalars cannot get deeper slabs");
    }
}
