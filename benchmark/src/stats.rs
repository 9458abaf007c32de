//! Order statistics over small timing samples.
//!
//! Quartiles use the same rule as Python's `statistics.quantiles(values,
//! n=4)` (the "exclusive" method), so a spread computed here matches the one
//! computed over the benchmark's output by an outside script.

/// Median, quartiles and extremes of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// Summary of `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let v = sorted(values);
        Some(Self {
            n: v.len(),
            median: quantile_sorted(&v, 0.5),
            p25: quantile_sorted(&v, 0.25),
            p75: quantile_sorted(&v, 0.75),
            min: v[0],
            max: v[v.len() - 1],
        })
    }

    /// A single exact value (counts, tracked bytes): zero spread.
    pub fn exact(value: f64) -> Self {
        Self {
            n: 1,
            median: value,
            p25: value,
            p75: value,
            min: value,
            max: value,
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `q` of an ascending sample by the exclusive rule: position
/// `q·(n+1)` (1-based), interpolated linearly between its two neighbours; a
/// position outside the sample extrapolates from the nearest pair, as
/// Python does.
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    let n = v.len();
    if n == 1 {
        return v[0];
    }
    let pos = q * (n as f64 + 1.0);
    let j = (pos.floor() as usize).clamp(1, n - 1);
    v[j - 1] + (pos - j as f64) * (v[j] - v[j - 1])
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

/// Mean of the faster half (the `⌈n/2⌉` smallest) of `values`; 0 when empty.
///
/// For samples short enough to sit inside one speed level of a shared host
/// (a warm panel is ≈ 50 ms; the levels are ≈ 30 % apart and last seconds),
/// the distribution is bimodal and its median jumps from one level to the
/// other as the levels' shares cross one half, while the plain mean follows
/// every slow outlier. Other guests only ever add time, so the faster half is
/// the less disturbed half: its mean moves continuously with the shares and
/// ignores the upper tail.
pub fn faster_half_mean(values: &[f64]) -> f64 {
    let v = sorted(values);
    let half = &v[..v.len().div_ceil(2)];
    if half.is_empty() {
        0.0
    } else {
        half.iter().sum::<f64>() / half.len() as f64
    }
}

/// Samples that must lie beyond a reported percentile for it to be trusted.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The `p`-th percentile (nearest rank) together with the number of samples
/// strictly beyond that rank; `None` when fewer than
/// [`MIN_SAMPLES_BEYOND`] samples lie beyond it.
pub fn percentile_with_tail(values: &[f64], p: f64) -> Option<(f64, usize)> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let n = v.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    let beyond = n - rank;
    (beyond >= MIN_SAMPLES_BEYOND).then(|| (v[rank - 1], beyond))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_exclusive_rule() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.p25, s.median, s.p75), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.p25, s.median, s.p75), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 4.0, 3.0, 2.0, 1.0]).unwrap();
        assert_eq!((s.p25, s.median, s.p75), (1.5, 3.0, 4.5));
        // statistics.quantiles([2, 4], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[2.0, 4.0]).unwrap();
        assert_eq!((s.p25, s.median, s.p75), (1.5, 3.0, 4.5));
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn faster_half_mean_ignores_the_slower_half() {
        assert_eq!(faster_half_mean(&[]), 0.0);
        assert_eq!(faster_half_mean(&[3.0]), 3.0);
        assert_eq!(faster_half_mean(&[4.0, 2.0]), 2.0);
        // Odd count: the middle sample belongs to the faster half.
        assert_eq!(faster_half_mean(&[9.0, 1.0, 2.0, 100.0, 3.0]), 2.0);
        // An outlier in the slower half changes nothing.
        assert_eq!(
            faster_half_mean(&[1.0, 2.0, 50.0, 60.0]),
            faster_half_mean(&[1.0, 2.0, 50.0, 6000.0])
        );
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=160).map(f64::from).collect();
        // 160 samples: rank 144 is p90, 16 samples lie beyond it.
        assert_eq!(percentile_with_tail(&v, 90.0), Some((144.0, 16)));
        // p95 has only 8 beyond, p99 one: neither is trusted.
        assert_eq!(percentile_with_tail(&v, 95.0), None);
        assert_eq!(percentile_with_tail(&v, 99.0), None);
        // 100 samples: p90 has exactly ten beyond; 99 samples: nine, refused.
        let v100: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_with_tail(&v100, 90.0), Some((90.0, 10)));
        assert_eq!(percentile_with_tail(&v100[..99], 90.0), None);
        assert_eq!(percentile_with_tail(&[], 90.0), None);
    }
}
