//! Least-squares fits for scaling-shape checks.

/// A fitted line `y = slope · x + intercept` with its coefficient of
/// determination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination `R²` (1 = perfect).
    pub r2: f64,
}

/// Ordinary least squares on `(x, y)` pairs.
///
/// # Examples
///
/// ```
/// use radio_throughput::linear_fit;
///
/// let fit = linear_fit(&[(1.0, 5.0), (2.0, 8.0), (3.0, 11.0)]);
/// assert!((fit.slope - 3.0).abs() < 1e-9);
/// assert!((fit.intercept - 2.0).abs() < 1e-9);
/// assert!((fit.r2 - 1.0).abs() < 1e-9);
/// ```
///
/// # Panics
///
/// Panics with fewer than 2 points or zero x-variance.
pub fn linear_fit(points: &[(f64, f64)]) -> Fit {
    assert!(points.len() >= 2, "need at least 2 points to fit a line");
    let n = points.len() as f64;
    let mean_x = points.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
    assert!(sxx > 0.0, "zero variance in x");
    let sxy: f64 = points.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let ss_tot: f64 = points.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 = points
        .iter()
        .map(|p| (p.1 - (slope * p.0 + intercept)).powi(2))
        .sum();
    let r2 = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    Fit {
        slope,
        intercept,
        r2,
    }
}

/// Fits `y = c · x^slope` by OLS on `(ln x, ln y)`: the returned
/// `slope` is the empirical scaling exponent. Used to check claims
/// like "rounds grow linearly in `D`" (slope ≈ 1) or "quadratically in
/// `log n`".
///
/// # Examples
///
/// ```
/// use radio_throughput::log_log_fit;
///
/// // y = 5·x² → scaling exponent 2.
/// let pts: Vec<(f64, f64)> = (1..=6)
///     .map(|i| (i as f64, 5.0 * (i * i) as f64))
///     .collect();
/// let fit = log_log_fit(&pts);
/// assert!((fit.slope - 2.0).abs() < 1e-9);
/// ```
///
/// # Panics
///
/// Panics on non-positive coordinates or fewer than 2 points.
pub fn log_log_fit(points: &[(f64, f64)]) -> Fit {
    let logged: Vec<(f64, f64)> = points
        .iter()
        .map(|&(x, y)| {
            assert!(
                x > 0.0 && y > 0.0,
                "log-log fit needs positive data, got ({x}, {y})"
            );
            (x.ln(), y.ln())
        })
        .collect();
    linear_fit(&logged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line() {
        let pts: Vec<(f64, f64)> = (1..=10).map(|i| (i as f64, 3.0 * i as f64 + 2.0)).collect();
        let fit = linear_fit(&pts);
        assert!((fit.slope - 3.0).abs() < 1e-9);
        assert!((fit.intercept - 2.0).abs() < 1e-9);
        assert!((fit.r2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn noisy_line_r2_below_one() {
        let pts = [(1.0, 2.9), (2.0, 6.3), (3.0, 8.8), (4.0, 12.2)];
        let fit = linear_fit(&pts);
        assert!((fit.slope - 3.0).abs() < 0.3);
        assert!(fit.r2 > 0.98 && fit.r2 < 1.0);
    }

    #[test]
    fn power_law_slope_recovered() {
        let pts: Vec<(f64, f64)> = (1..=8)
            .map(|i| (i as f64, 5.0 * (i as f64).powf(2.0)))
            .collect();
        let fit = log_log_fit(&pts);
        assert!((fit.slope - 2.0).abs() < 1e-9, "slope {}", fit.slope);
        assert!((fit.intercept - 5.0f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn sublinear_power_law() {
        let pts: Vec<(f64, f64)> = (1..=8).map(|i| (i as f64, (i as f64).sqrt())).collect();
        let fit = log_log_fit(&pts);
        assert!((fit.slope - 0.5).abs() < 1e-9);
    }

    #[test]
    fn constant_y_r2_is_one() {
        let fit = linear_fit(&[(1.0, 4.0), (2.0, 4.0), (3.0, 4.0)]);
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.r2, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least 2 points")]
    fn one_point_panics() {
        let _ = linear_fit(&[(1.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "positive data")]
    fn log_log_rejects_nonpositive() {
        let _ = log_log_fit(&[(0.0, 1.0), (1.0, 2.0)]);
    }
}
