//! The benchmark's own statistics: a fixed-memory latency histogram,
//! the tail-percentile rule, and the quartile spread used to judge whether
//! repeated runs agree.

/// Linear sub-buckets per power of two: 2^7 = 128, so a bucket is at most
/// 1/128 (0.8%) of its value wide.
const SUB_BITS: u32 = 7;
const SUBS: u64 = 1 << SUB_BITS;
/// Magnitudes above the linear range; the top bucket starts past an hour
/// in nanoseconds, so no latency this benchmark sees saturates.
const MAGNITUDES: u64 = 36;
const BUCKETS: usize = (SUBS * (MAGNITUDES + 2)) as usize;

/// Percentiles a tail may be reported at, highest first.
const TAIL_CANDIDATES: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.5];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: u64 = 10;

/// Latency histogram in nanoseconds with log-linear buckets. Its memory
/// does not grow with the number of samples, so the run's resident-memory
/// high-water mark does not track its throughput.
#[derive(Clone)]
pub struct LatencyHist {
    buckets: Vec<u64>,
    count: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            buckets: vec![0; BUCKETS],
            count: 0,
        }
    }
}

fn bucket_of(value: u64) -> usize {
    if value < 2 * SUBS {
        return value as usize;
    }
    let magnitude = u64::from(63 - value.leading_zeros()) - u64::from(SUB_BITS);
    let sub = (value >> magnitude) - SUBS;
    (((magnitude + 1) * SUBS + sub) as usize).min(BUCKETS - 1)
}

/// Half-open value range `[low, high)` of bucket `index`.
fn bucket_range(index: usize) -> (f64, f64) {
    let index = index as u64;
    if index < 2 * SUBS {
        return (index as f64, (index + 1) as f64);
    }
    let magnitude = index / SUBS - 1;
    let sub = index % SUBS;
    let low = (SUBS + sub) << magnitude;
    (low as f64, (low + (1 << magnitude)) as f64)
}

impl LatencyHist {
    /// Record one latency.
    pub fn record(&mut self, nanos: u64) {
        self.buckets[bucket_of(nanos)] += 1;
        self.count += 1;
    }

    /// Fold `other` into this histogram.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Value at quantile `q` in `[0, 1]`, interpolated linearly inside the
    /// bucket holding that rank. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if (seen + n) as f64 >= target {
                let (low, high) = bucket_range(index);
                let within = ((target - seen as f64) / n as f64).clamp(0.0, 1.0);
                return Some(low + (high - low) * within);
            }
            seen += n;
        }
        None
    }
}

/// The highest percentile (as a quantile), up to `wanted`, with at least
/// [`MIN_BEYOND`] samples beyond it among `count` samples, or `None` when
/// even the median has too few.
pub fn tail_quantile(count: u64, wanted: f64) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .filter(|&q| q <= wanted)
        .find(|&q| {
            let at = (q * count as f64).ceil() as u64;
            count.saturating_sub(at) >= MIN_BEYOND
        })
}

/// Label of a quantile as a percentile (`0.99` → `"p99"`).
pub fn percentile_label(q: f64) -> String {
    format!("p{}", (q * 1000.0).round() / 10.0)
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile of `values` by the "exclusive" method, the
/// default of Python's `statistics.quantiles(values, n=4)`.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the first and third quartile as a share of the median:
/// how far repeated runs of one metric disagree.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(10_000, 1.0), Some(0.999));
        assert_eq!(tail_quantile(9_999, 1.0), Some(0.99));
        assert_eq!(tail_quantile(1_000_000, 0.99), Some(0.99));
        assert_eq!(tail_quantile(1_000, 0.99), Some(0.99));
        assert_eq!(tail_quantile(999, 0.99), Some(0.95));
        assert_eq!(tail_quantile(200, 0.99), Some(0.95));
        assert_eq!(tail_quantile(100, 0.99), Some(0.9));
        assert_eq!(tail_quantile(99, 0.99), Some(0.5));
        assert_eq!(tail_quantile(20, 0.99), Some(0.5));
        assert_eq!(tail_quantile(19, 0.99), None);
        assert_eq!(tail_quantile(0, 0.99), None);
    }

    #[test]
    fn percentile_labels() {
        assert_eq!(percentile_label(0.99), "p99");
        assert_eq!(percentile_label(0.5), "p50");
        assert_eq!(percentile_label(0.999), "p99.9");
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        assert_eq!(median(&values), 5.5);
        assert!((quartile_spread(&values) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[5.0, 7.0]), (4.5, 7.5));
        // Identical runs have no spread.
        assert_eq!(quartile_spread(&[4.0; 10]), 0.0);
    }

    #[test]
    fn histogram_quantiles_are_within_a_bucket() {
        let mut hist = LatencyHist::default();
        for v in 1..=100_000u64 {
            hist.record(v * 10);
        }
        assert_eq!(hist.count(), 100_000);
        for (q, exact) in [(0.5, 500_000.0), (0.99, 990_000.0), (0.999, 999_000.0)] {
            let got = hist.quantile(q).unwrap();
            assert!(
                (got - exact).abs() / exact < 1.0 / SUBS as f64,
                "q{q}: {got} vs {exact}"
            );
        }
        assert!(LatencyHist::default().quantile(0.5).is_none());
    }

    #[test]
    fn histogram_buckets_cover_values_in_order() {
        let mut last = 0;
        for value in (0..5_000_000u64).step_by(997) {
            let index = bucket_of(value);
            assert!(index >= last);
            let (low, high) = bucket_range(index);
            assert!(low <= value as f64 && (value as f64) < high, "{value}");
            last = index;
        }
    }

    #[test]
    fn merged_histograms_count_both() {
        let mut a = LatencyHist::default();
        let mut b = LatencyHist::default();
        a.record(1_000);
        b.record(3_000);
        b.record(5_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        let p50 = a.quantile(0.5).unwrap();
        assert!((2_900.0..3_100.0).contains(&p50), "{p50}");
    }
}
