//! The arithmetic behind the reported figures.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, interpolating linearly
/// between the two nearest ranks; `None` when `values` is empty.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// Simulated node-rounds per host second: `Σ n·rounds ÷ Σ seconds`.
/// `None` when no host time was spent.
pub fn node_rounds_per_s(nodes: usize, rounds: &[u64], seconds: &[f64]) -> Option<f64> {
    let host: f64 = seconds.iter().sum();
    if host <= 0.0 {
        return None;
    }
    let work: f64 = rounds.iter().map(|&r| nodes as f64 * r as f64).sum();
    Some(work / host)
}

/// FNV-1a over a sequence of round counts: the simulated-output digest.
pub fn rounds_digest<'a>(rounds: impl IntoIterator<Item = &'a u64>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for r in rounds {
        for byte in r.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), Some(3.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(5.0));
        assert_eq!(percentile(&v, 0.9), Some(4.6));
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), Some(2.5));
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_of_one_to_hundred() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&v, 0.9).unwrap();
        assert!((p90 - 90.1).abs() < 1e-9, "{p90}");
    }

    #[test]
    fn throughput_is_total_work_over_total_time() {
        // 10 nodes · (100 + 300) rounds over 0.5 + 1.5 s.
        assert_eq!(
            node_rounds_per_s(10, &[100, 300], &[0.5, 1.5]),
            Some(2000.0)
        );
        assert_eq!(node_rounds_per_s(10, &[], &[]), None);
    }

    #[test]
    fn digest_is_order_sensitive() {
        assert_eq!(rounds_digest(&[1, 2]), rounds_digest(&[1, 2]));
        assert_ne!(rounds_digest(&[1, 2]), rounds_digest(&[2, 1]));
        assert_eq!(rounds_digest(&[]), 0xcbf2_9ce4_8422_2325);
    }
}
