//! Summary statistics of the benchmark's samples.

/// The `q`-quantile (`0 < q <= 1`) of `samples` by the nearest-rank
/// rule: the smallest sample with at least `q·n` samples at or below
/// it. Always a measured value, never an interpolation. `None` when
/// there are no samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1]");
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// The median by the same nearest-rank rule.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// The paper's gain η = T_bulk / T_pipelined, from the two medians.
pub fn eta(bulk_p50: f64, pipelined_p50: f64) -> f64 {
    assert!(pipelined_p50 > 0.0, "pipelined time must be positive");
    bulk_p50 / pipelined_p50
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(5.0));
        assert_eq!(percentile(&xs, 0.9), Some(9.0));
        assert_eq!(percentile(&xs, 0.91), Some(10.0));
        assert_eq!(percentile(&xs, 1.0), Some(10.0));
        assert_eq!(percentile(&xs, 0.01), Some(1.0));
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[2.0, 1.0]), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn eta_is_bulk_over_pipelined() {
        assert_eq!(eta(1900.0, 700.0), 1900.0 / 700.0);
        assert!(eta(3.5, 44.0) < 1.0, "small messages: pipelining loses");
    }
}
