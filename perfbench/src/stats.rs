//! Order statistics as the report states them.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, with the sample
//! count; a ratio is printed with its base. Percentiles are nearest-rank
//! and given in parts per thousand, so a rank never depends on rounding.

/// Samples that must lie strictly beyond a quoted tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles the report may quote, in parts per thousand, highest
/// first.
const TAILS: [usize; 5] = [999, 990, 950, 900, 750];

/// Zero-based nearest-rank index of the `permille`-th percentile among
/// `n > 0` samples: the smallest sample with at least that share of all
/// samples at or below it.
fn rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n) - 1
}

/// Nearest-rank percentile of the ascending, non-empty `sorted`.
pub fn percentile(sorted: &[f64], permille: usize) -> f64 {
    sorted[rank(sorted.len(), permille)]
}

/// Samples strictly beyond the `permille`-th percentile of `n > 0`.
pub fn beyond(n: usize, permille: usize) -> usize {
    n - 1 - rank(n, permille)
}

/// The median: the middle sample, or the mean of the two middle ones.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when there is no base.
pub fn frac(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A ratio printed with its base, as in `0.2500 (1 / 4)`.
pub fn ratio(num: u64, den: u64) -> String {
    format!("{:.4} ({num} / {den})", frac(num, den))
}

/// A percentile label: 990 reads `p99`, 999 reads `p99.9`.
fn label(permille: usize) -> String {
    if permille.is_multiple_of(10) {
        format!("p{}", permille / 10)
    } else {
        format!("p{}.{}", permille / 10, permille % 10)
    }
}

/// One timing distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank p99: the maximum while there are fewer than 100
    /// samples.
    pub p99: f64,
    /// The highest of [`TAILS`] with at least [`MIN_BEYOND`] samples
    /// beyond it, and its value.
    pub tail: Option<(usize, f64)>,
    /// The slowest sample.
    pub max: f64,
}

impl Summary {
    /// Summarizes `samples`, in any order; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let tail = TAILS
            .iter()
            .find(|&&p| beyond(n, p) >= MIN_BEYOND)
            .map(|&p| (p, percentile(&v, p)));
        Some(Self {
            n,
            p50: percentile(&v, 500),
            p99: percentile(&v, 990),
            tail,
            max: v[n - 1],
        })
    }

    /// The report's wording: values divided by `scale` and labelled
    /// `unit`, with the sample count.
    pub fn describe(&self, scale: f64, unit: &str) -> String {
        let p50 = self.p50 / scale;
        match self.tail {
            Some((p, value)) => format!(
                "p50 {p50:.2} {unit}, {} {:.2} {unit} (n={}, {} beyond)",
                label(p),
                value / scale,
                self.n,
                beyond(self.n, p)
            ),
            None => format!(
                "p50 {p50:.2} {unit}, max {:.2} {unit} (n={}; no percentile \
                 has {MIN_BEYOND} samples beyond it)",
                self.max / scale,
                self.n
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 500), 50.0);
        assert_eq!(percentile(&v, 990), 99.0);
        assert_eq!(percentile(&v, 1000), 100.0);
        assert_eq!(percentile(&[7.0], 500), 7.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
        let v = ramp(8);
        assert_eq!(percentile(&v, 500), 4.0);
        assert_eq!(percentile(&v, 990), 8.0, "p99 of < 100 samples is the max");
    }

    #[test]
    fn quoted_tail_has_ten_samples_beyond_it() {
        assert_eq!(Summary::of(&ramp(10_000)).unwrap().tail, Some((999, 9990.0)));
        assert_eq!(Summary::of(&ramp(1_000)).unwrap().tail, Some((990, 990.0)));
        // One sample short of p99's ten: fall back to p95.
        assert_eq!(Summary::of(&ramp(999)).unwrap().tail.unwrap().0, 950);
        assert_eq!(Summary::of(&ramp(8)).unwrap().tail, None);
        for n in [11, 40, 100, 999, 1000, 12_345] {
            if let Some((p, _)) = Summary::of(&ramp(n)).unwrap().tail {
                assert!(beyond(n, p) >= MIN_BEYOND, "n={n} {}", label(p));
            }
        }
    }

    #[test]
    fn summary_ignores_input_order() {
        let mut v = ramp(500);
        v.reverse();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.n, s.p50, s.p99, s.max), (500, 250.0, 495.0, 500.0));
        assert_eq!(Summary::of(&[]), None);
        assert!(s.describe(1.0, "us").contains("p95 475.00 us (n=500, 25 beyond)"));
    }

    #[test]
    fn medians_and_ratios() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(frac(1, 4), 0.25);
        assert_eq!(frac(5, 0), 0.0);
        assert_eq!(ratio(1, 4), "0.2500 (1 / 4)");
        assert_eq!(label(999), "p99.9");
        assert_eq!(label(990), "p99");
    }
}
