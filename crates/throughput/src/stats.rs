//! Sample statistics over repeated trials.

/// Summary statistics of a set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (unbiased, `n-1` denominator; 0 for
    /// a single sample).
    pub std_dev: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
    /// Median (mean of middle two for even counts).
    pub median: f64,
}

impl Summary {
    /// Summarizes `samples`.
    ///
    /// # Examples
    ///
    /// ```
    /// use radio_throughput::Summary;
    ///
    /// let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0]);
    /// assert_eq!(s.count, 4);
    /// assert!((s.mean - 2.5).abs() < 1e-12);
    /// assert_eq!((s.min, s.max), (1.0, 4.0));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "cannot summarize zero samples");
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let var = if count > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (count - 1) as f64
        } else {
            0.0
        };
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
        let median = if count % 2 == 1 {
            sorted[count / 2]
        } else {
            (sorted[count / 2 - 1] + sorted[count / 2]) / 2.0
        };
        Summary {
            count,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            median,
        }
    }

    /// Half-width of the ~95% confidence interval for the mean
    /// (normal approximation, `1.96·σ/√n`).
    pub fn ci95_half_width(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        1.96 * self.std_dev / (self.count as f64).sqrt()
    }

    /// `"mean ± ci"` rendering with the given precision.
    pub fn display_mean_ci(&self, precision: usize) -> String {
        format!(
            "{:.precision$} ± {:.precision$}",
            self.mean,
            self.ci95_half_width()
        )
    }
}

/// The `q`-th quantile of `samples` (nearest-rank with linear
/// interpolation), `q ∈ [0, 1]`.
///
/// # Examples
///
/// ```
/// use radio_throughput::quantile;
///
/// let xs = [10.0, 20.0, 30.0, 40.0];
/// assert_eq!(quantile(&xs, 0.0), 10.0);
/// assert_eq!(quantile(&xs, 1.0), 40.0);
/// assert!((quantile(&xs, 0.5) - 25.0).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics on an empty slice, NaN samples, or `q` outside `[0, 1]`.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(
        !samples.is_empty(),
        "cannot take a quantile of zero samples"
    );
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_summary() {
        let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.std_dev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn odd_median() {
        let s = Summary::from_samples(&[5.0, 1.0, 3.0]);
        assert_eq!(s.median, 3.0);
    }

    #[test]
    fn single_sample() {
        let s = Summary::from_samples(&[7.0]);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci95_half_width(), 0.0);
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let few = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        let many: Vec<f64> = (0..100).map(|i| 1.0 + (i % 4) as f64).collect();
        let many = Summary::from_samples(&many);
        assert!(many.ci95_half_width() < few.ci95_half_width());
    }

    #[test]
    fn display_format() {
        let s = Summary::from_samples(&[1.0, 1.0]);
        assert_eq!(s.display_mean_ci(1), "1.0 ± 0.0");
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_panics() {
        let _ = Summary::from_samples(&[]);
    }

    #[test]
    fn quantiles_basic() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((quantile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((quantile(&xs, 1.0) - 100.0).abs() < 1e-12);
        assert!((quantile(&xs, 0.5) - 50.5).abs() < 1e-12);
        assert!((quantile(&xs, 0.9) - 90.1).abs() < 1e-9);
        assert!((quantile(&xs, 0.99) - 99.01).abs() < 1e-9);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [10.0, 20.0];
        assert!((quantile(&xs, 0.5) - 15.0).abs() < 1e-12);
        assert!((quantile(&xs, 0.25) - 12.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn quantile_rejects_bad_q() {
        let _ = quantile(&[1.0], 1.5);
    }

    // Edge cases at sample sizes 0 and 1: the latency columns reuse
    // these helpers on per-node delivery samples, which can legally be
    // a single node (one-edge grids) — and must *never* be empty by
    // the time they reach a percentile call.

    #[test]
    #[should_panic(expected = "zero samples")]
    fn quantile_of_empty_panics() {
        let _ = quantile(&[], 0.5);
    }

    #[test]
    fn quantile_of_single_sample_is_that_sample() {
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(quantile(&[7.5], q), 7.5, "q = {q}");
        }
    }
}
