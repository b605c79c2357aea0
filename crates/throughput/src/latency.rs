//! Latency-column reporting: summarize per-node delivery latencies
//! (from `radio_model::LatencyProfile`-style round samples) into the
//! mean / p50 / p99 / max columns the gap tables report alongside
//! rounds.

use crate::stats::quantile;

/// The canonical latency column headers, in rendering order. Matches
/// [`LatencySummary::cells`].
pub const LATENCY_HEADERS: [&str; 4] = ["lat mean", "lat p50", "lat p99", "lat max"];

/// Summary of a latency sample set (in rounds): mean, median, tail,
/// and worst case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Mean latency.
    pub mean: f64,
    /// Median latency (p50).
    pub p50: f64,
    /// 99th-percentile latency.
    pub p99: f64,
    /// Maximum latency.
    pub max: f64,
}

impl LatencySummary {
    /// Summarizes float samples. Returns `None` on an empty slice —
    /// a cell whose run delivered nothing has no latency distribution.
    ///
    /// # Examples
    ///
    /// ```
    /// use radio_throughput::LatencySummary;
    ///
    /// let s = LatencySummary::from_samples(&[1.0, 2.0, 3.0, 4.0]).unwrap();
    /// assert!((s.mean - 2.5).abs() < 1e-12);
    /// assert_eq!(s.max, 4.0);
    /// assert!(LatencySummary::from_samples(&[]).is_none());
    /// ```
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        Some(LatencySummary {
            count: samples.len(),
            mean: samples.iter().sum::<f64>() / samples.len() as f64,
            p50: quantile(samples, 0.50),
            p99: quantile(samples, 0.99),
            max: quantile(samples, 1.0),
        })
    }

    /// Summarizes round counts (the native unit of
    /// `LatencyProfile::delivery_latencies`).
    pub fn from_rounds(rounds: &[u64]) -> Option<Self> {
        let samples: Vec<f64> = rounds.iter().map(|&r| r as f64).collect();
        Self::from_samples(&samples)
    }

    /// The four table cells matching [`LATENCY_HEADERS`], rendered
    /// with `precision` decimal places.
    pub fn cells(&self, precision: usize) -> Vec<String> {
        [self.mean, self.p50, self.p99, self.max]
            .iter()
            .map(|v| format!("{v:.precision$}"))
            .collect()
    }

    /// The four table cells for an *optional* summary: a run that
    /// delivered nothing has no latency distribution and renders `-`
    /// in every column. This is the single place that decides how an
    /// empty sample set looks, so the cli, E14, and E15 tables all
    /// agree.
    ///
    /// # Examples
    ///
    /// ```
    /// use radio_throughput::LatencySummary;
    ///
    /// assert_eq!(
    ///     LatencySummary::cells_or_dash(None, 1),
    ///     vec!["-", "-", "-", "-"]
    /// );
    /// ```
    pub fn cells_or_dash(summary: Option<&Self>, precision: usize) -> Vec<String> {
        match summary {
            Some(s) => s.cells(precision),
            None => LATENCY_HEADERS.iter().map(|_| "-".to_string()).collect(),
        }
    }

    /// One-line `mean … / p50 … / p99 … / max …` rendering for prose
    /// output (the cli's per-trial and per-run latency lines); an
    /// empty sample set renders every figure as `-`, matching
    /// [`LatencySummary::cells_or_dash`].
    pub fn inline_or_dash(summary: Option<&Self>) -> String {
        match summary {
            Some(s) => format!(
                "mean {:.1} / p50 {:.0} / p99 {:.0} / max {:.0}",
                s.mean, s.p50, s.p99, s.max
            ),
            None => "mean - / p50 - / p99 - / max -".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_rounds() {
        let s = LatencySummary::from_rounds(&[10, 20, 30, 40]).unwrap();
        assert_eq!(s.count, 4);
        assert!((s.mean - 25.0).abs() < 1e-12);
        assert!((s.p50 - 25.0).abs() < 1e-12);
        assert!((s.p99 - 39.7).abs() < 1e-9);
        assert_eq!(s.max, 40.0);
    }

    #[test]
    fn empty_is_none() {
        assert!(LatencySummary::from_rounds(&[]).is_none());
        assert!(LatencySummary::from_samples(&[]).is_none());
    }

    #[test]
    fn single_sample_collapses() {
        let s = LatencySummary::from_rounds(&[7]).unwrap();
        assert_eq!((s.mean, s.p50, s.p99, s.max), (7.0, 7.0, 7.0, 7.0));
    }

    #[test]
    fn cells_match_headers() {
        let s = LatencySummary::from_rounds(&[1, 3]).unwrap();
        let cells = s.cells(1);
        assert_eq!(cells.len(), LATENCY_HEADERS.len());
        assert_eq!(cells, vec!["2.0", "2.0", "3.0", "3.0"]);
    }

    #[test]
    fn empty_sample_set_renders_dashes_everywhere() {
        assert_eq!(
            LatencySummary::cells_or_dash(None, 1),
            vec!["-", "-", "-", "-"]
        );
        assert_eq!(
            LatencySummary::inline_or_dash(None),
            "mean - / p50 - / p99 - / max -"
        );
        let s = LatencySummary::from_rounds(&[1, 3]);
        assert_eq!(
            LatencySummary::cells_or_dash(s.as_ref(), 1),
            vec!["2.0", "2.0", "3.0", "3.0"]
        );
        assert_eq!(
            LatencySummary::inline_or_dash(s.as_ref()),
            "mean 2.0 / p50 2 / p99 3 / max 3"
        );
    }
}
