//! Order statistics with the sample-count rule every reported
//! percentile obeys.

/// Samples that must lie strictly beyond a tail percentile before it
/// is reported: a p99 needs at least 1 000 samples, a p90 at least 100.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of the `p`-quantile (`0 < p <= 1`) in a sorted
/// sample of length `n >= 1`.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The nearest-rank `p`-quantile of `sorted` (ascending), or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = rank(sorted.len(), p);
    (sorted.len() - 1 - idx >= MIN_BEYOND).then(|| sorted[idx])
}

/// The median of `values` (mean of the middle two for even counts),
/// whatever the sample size; `None` for an empty sample. For medians of
/// small groups, where the tail rule does not apply.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    (n > 0).then(|| (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0)
}

/// A copy of `values` sorted ascending (total order, NaN last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Arithmetic mean, `None` for an empty sample.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        // p99 of 1 000 samples is rank 990: exactly 10 lie beyond it.
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        // One sample fewer leaves only 9 beyond.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(100), 0.90), Some(90.0));
        assert_eq!(percentile(&ramp(99), 0.90), None);
        // A median needs 20 samples under the same rule.
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_and_mean_take_any_sample_size() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
