//! Sample summaries: medians and the "highest supported percentile" rule.
//!
//! A tail percentile is only reported when at least [`MIN_BEYOND`] samples
//! lie beyond it; with fewer, the estimate is one or two outliers and not a
//! property of the system. Every metric names a target percentile (p99,
//! p90); the run is sized to support it, and when a sample falls short the
//! highest percentile that *is* supported is reported instead and the
//! substitution is printed next to the metric.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: f64 = 10.0;

/// Percentiles the rule may fall back to, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile `<= target` from the ladder that has at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when even the median
/// is unsupported (fewer than 20 samples).
pub fn supported_percentile(n: usize, target: f64) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .filter(|&p| p <= target)
        .find(|&p| n as f64 * (1.0 - p / 100.0) >= MIN_BEYOND - 1e-9)
}

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=100).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a sample (0 for an empty one).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        0.0
    } else if s.len() % 2 == 1 {
        s[s.len() / 2]
    } else {
        (s[s.len() / 2 - 1] + s[s.len() / 2]) / 2.0
    }
}

/// Mean of a sample (0 for an empty one).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// A tail estimate: the value, the percentile it was actually taken at,
/// and the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub n: usize,
}

/// Median and the requested tail of one latency sample.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    values: Vec<f64>,
}

impl Sample {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn extend(&mut self, other: &Sample) {
        self.values.extend_from_slice(&other.values);
    }

    fn sorted(&self) -> Vec<f64> {
        let mut s = self.values.clone();
        s.sort_by(f64::total_cmp);
        s
    }

    pub fn median(&self) -> f64 {
        median(&self.values)
    }

    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    pub fn mean(&self) -> f64 {
        mean(&self.values)
    }

    /// The `target` percentile under the supported-percentile rule. With
    /// fewer than 20 samples the maximum is reported at percentile 100.
    pub fn tail(&self, target: f64) -> Tail {
        let sorted = self.sorted();
        match supported_percentile(sorted.len(), target) {
            Some(p) => {
                Tail { value: percentile_sorted(&sorted, p), percentile: p, n: sorted.len() }
            }
            None => Tail { value: self.max(), percentile: 100.0, n: sorted.len() },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(supported_percentile(1000, 99.0), Some(99.0));
        assert_eq!(supported_percentile(999, 99.0), Some(95.0));
        assert_eq!(supported_percentile(200, 99.0), Some(95.0));
        assert_eq!(supported_percentile(199, 99.0), Some(90.0));
    }

    #[test]
    fn rule_never_exceeds_the_target() {
        // 100k samples support p99.9, but a p90 metric stays at p90.
        assert_eq!(supported_percentile(100_000, 90.0), Some(90.0));
        assert_eq!(supported_percentile(100_000, 99.0), Some(99.0));
        assert_eq!(supported_percentile(100, 90.0), Some(90.0));
        assert_eq!(supported_percentile(99, 90.0), Some(75.0));
    }

    #[test]
    fn tiny_samples_have_no_supported_percentile() {
        assert_eq!(supported_percentile(20, 50.0), Some(50.0));
        assert_eq!(supported_percentile(19, 99.0), None);
        assert_eq!(supported_percentile(0, 50.0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 50.0), 50.0);
        assert_eq!(percentile_sorted(&s, 99.0), 99.0);
        assert_eq!(percentile_sorted(&s, 100.0), 100.0);
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
    }

    #[test]
    fn tail_reports_the_percentile_it_used() {
        let mut s = Sample::default();
        for v in 1..=500 {
            s.push(f64::from(v));
        }
        let t = s.tail(99.0);
        assert_eq!((t.percentile, t.n), (95.0, 500));
        assert_eq!(t.value, 475.0);
        let mut small = Sample::default();
        for v in [3.0, 1.0, 2.0] {
            small.push(v);
        }
        assert_eq!(small.tail(99.0), Tail { value: 3.0, percentile: 100.0, n: 3 });
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
