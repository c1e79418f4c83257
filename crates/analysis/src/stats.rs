//! Descriptive statistics.

/// Summary statistics of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n ≤ 1).
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Median (midpoint of the two central order statistics for even n).
    pub median: f64,
}

impl Summary {
    /// Computes summary statistics.
    ///
    /// # Panics
    /// Panics on an empty sample or non-finite values — summarizing
    /// garbage silently would corrupt experiment tables.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of empty sample");
        assert!(
            values.iter().all(|v| v.is_finite()),
            "summary of non-finite sample"
        );
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        Summary {
            n,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            median,
        }
    }

    /// `q`-quantile (0 ≤ q ≤ 1) by linear interpolation of order
    /// statistics.
    pub fn quantile(values: &[f64], q: f64) -> f64 {
        assert!(!values.is_empty(), "quantile of empty sample");
        assert!((0.0..=1.0).contains(&q), "quantile level out of range");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// One-pass streaming moment accumulator (Welford's algorithm): count,
/// mean, variance, min, max in O(1) memory. This is the [`Summary`]
/// counterpart for open-ended streams, where materializing the sample
/// would defeat a bounded-memory run (no median — exact order statistics
/// need the sample).
#[derive(Clone, Copy, Debug)]
pub struct StreamingSummary {
    n: usize,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for StreamingSummary {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingSummary {
    /// Empty accumulator.
    pub fn new() -> Self {
        StreamingSummary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds one observation in.
    ///
    /// # Panics
    /// Panics on non-finite values, mirroring [`Summary::of`].
    pub fn push(&mut self, v: f64) {
        assert!(v.is_finite(), "streaming summary of non-finite value {v}");
        self.n += 1;
        let delta = v - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (v - self.mean);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Observations folded in so far.
    pub fn count(&self) -> usize {
        self.n
    }

    /// Running arithmetic mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Running sample standard deviation (n−1 denominator; 0 for n ≤ 1).
    pub fn std_dev(&self) -> f64 {
        if self.n > 1 {
            (self.m2 / (self.n - 1) as f64).sqrt()
        } else {
            0.0
        }
    }

    /// Smallest observation so far (+∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation so far (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Geometric mean (all values must be positive) — the right average for
/// ratio data spread over orders of magnitude.
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of empty sample");
    assert!(
        values.iter().all(|v| *v > 0.0 && v.is_finite()),
        "geometric mean needs positive finite values"
    );
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_summary_matches_batch_summary() {
        let values: Vec<f64> = (0..200)
            .map(|i| ((i * 37) % 83) as f64 * 0.25 - 5.0)
            .collect();
        let batch = Summary::of(&values);
        let mut s = StreamingSummary::new();
        for &v in &values {
            s.push(v);
        }
        assert_eq!(s.count(), batch.n);
        assert!((s.mean() - batch.mean).abs() < 1e-12);
        assert!((s.std_dev() - batch.std_dev).abs() < 1e-10);
        assert_eq!(s.min(), batch.min);
        assert_eq!(s.max(), batch.max);
    }

    #[test]
    fn streaming_summary_empty_and_single() {
        let mut s = StreamingSummary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        s.push(3.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), 3.0);
        assert_eq!(s.max(), 3.0);
    }

    #[test]
    fn streaming_summary_default_equals_new() {
        // Default must share new()'s ±∞ min/max sentinels, or the first
        // pushed value would lose to 0.0.
        let mut s = StreamingSummary::default();
        s.push(5.0);
        assert_eq!(s.min(), 5.0);
        let mut neg = StreamingSummary::default();
        neg.push(-5.0);
        assert_eq!(neg.max(), -5.0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn streaming_summary_rejects_nan() {
        StreamingSummary::new().push(f64::NAN);
    }

    #[test]
    fn summary_basic() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.median, 2.5);
        assert!((s.std_dev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_single_value() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 7.0);
    }

    #[test]
    fn median_odd() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!(s.median, 2.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [0.0, 1.0, 2.0, 3.0, 4.0];
        assert_eq!(Summary::quantile(&v, 0.0), 0.0);
        assert_eq!(Summary::quantile(&v, 1.0), 4.0);
        assert_eq!(Summary::quantile(&v, 0.5), 2.0);
        assert_eq!(Summary::quantile(&v, 0.25), 1.0);
        assert!((Summary::quantile(&v, 0.1) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_of_ratios() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_summary_panics() {
        let _ = Summary::of(&[]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_summary_panics() {
        let _ = Summary::of(&[1.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geometric_mean_rejects_zero() {
        let _ = geometric_mean(&[1.0, 0.0]);
    }
}
