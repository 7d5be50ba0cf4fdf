//! Order statistics over timed samples.

/// Fewest samples that must lie strictly above a percentile before the
/// benchmark will report it: a tail read from fewer points is noise.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of `samples` (`0 < q < 1`), or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it. Sorts in place.
pub fn percentile(samples: &mut [f64], q: f64) -> Option<f64> {
    assert!(
        q > 0.0 && q < 1.0,
        "quantile must lie strictly inside (0, 1)"
    );
    let n = samples.len();
    if n == 0 {
        return None;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(samples[rank - 1])
}

/// The median, under the same refusal rule as [`percentile`].
pub fn median(samples: &mut [f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refuses_a_percentile_with_fewer_than_ten_samples_beyond() {
        // p99 of 999 samples leaves 9 above it: refused.
        let mut few: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(percentile(&mut few, 0.99), None);
        // 1000 samples leave exactly 10 above: answered.
        let mut enough: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&mut enough, 0.99), Some(989.0));
        // The median needs 20 samples (10 above the 10th).
        let mut nineteen: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(median(&mut nineteen), None);
        let mut twenty: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(median(&mut twenty), Some(9.0));
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn percentile_sorts_its_input() {
        let mut xs: Vec<f64> = (0..40).rev().map(f64::from).collect();
        assert_eq!(median(&mut xs), Some(19.0));
        assert_eq!(xs[0], 0.0);
    }
}
