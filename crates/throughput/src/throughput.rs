//! Gap ratios (paper Definitions 2–3).

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

#[cfg(test)]
mod tests {
    use super::*;

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
