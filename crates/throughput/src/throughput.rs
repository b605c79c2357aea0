//! Throughput estimation and gap ratios (paper Definitions 1–3).

/// One point of a throughput ladder: `k` messages took `rounds`
/// rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputPoint {
    /// Number of messages broadcast.
    pub k: usize,
    /// Rounds used (mean over trials).
    pub rounds: f64,
    /// Estimated throughput `k / rounds`.
    pub throughput: f64,
}

/// Estimates throughput along a geometric ladder of `k` values
/// (Definition 1 takes `k → ∞`; the ladder shows the estimate
/// stabilizing). `measure(k)` returns the (mean) number of rounds to
/// broadcast `k` messages.
pub fn throughput_ladder(
    ks: &[usize],
    mut measure: impl FnMut(usize) -> f64,
) -> Vec<ThroughputPoint> {
    ks.iter()
        .map(|&k| {
            let rounds = measure(k);
            ThroughputPoint {
                k,
                rounds,
                throughput: k as f64 / rounds,
            }
        })
        .collect()
}

/// The coding-gap ratio `τ_NC / τ_R` (paper Definition 2 for a fixed
/// topology; Definition 3 when both are worst-case values).
///
/// # Panics
///
/// Panics if `routing_throughput` is not positive.
pub fn gap_ratio(coding_throughput: f64, routing_throughput: f64) -> f64 {
    assert!(
        routing_throughput > 0.0,
        "routing throughput must be positive"
    );
    coding_throughput / routing_throughput
}

/// Whether the tail of a throughput ladder has stabilized: the last
/// two estimates differ by at most `tolerance` (relative).
pub fn ladder_stabilized(points: &[ThroughputPoint], tolerance: f64) -> bool {
    if points.len() < 2 {
        return false;
    }
    let a = points[points.len() - 2].throughput;
    let b = points[points.len() - 1].throughput;
    (a - b).abs() / b.abs().max(f64::MIN_POSITIVE) <= tolerance
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_computes_ratios() {
        let pts = throughput_ladder(&[10, 20], |k| (2 * k) as f64);
        assert_eq!(pts.len(), 2);
        assert!((pts[0].throughput - 0.5).abs() < 1e-12);
        assert!((pts[1].throughput - 0.5).abs() < 1e-12);
        assert!(ladder_stabilized(&pts, 0.01));
    }

    #[test]
    fn unstable_ladder_detected() {
        let pts = throughput_ladder(&[10, 20], |k| (k * k) as f64 / 10.0);
        assert!(!ladder_stabilized(&pts, 0.01));
    }

    #[test]
    fn short_ladder_not_stabilized() {
        let pts = throughput_ladder(&[10], |_| 10.0);
        assert!(!ladder_stabilized(&pts, 0.5));
    }

    #[test]
    fn gap_ratio_basic() {
        assert!((gap_ratio(0.5, 0.1) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn gap_ratio_rejects_zero_routing() {
        let _ = gap_ratio(1.0, 0.0);
    }
}
