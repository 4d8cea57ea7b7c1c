//! Order statistics over chunk samples.

/// Sorts a copy of `values` ascending (NaNs are not expected and sort last).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// The `q`-quantile of ascending `sorted` values by linear interpolation
/// between the two nearest ranks (position `q * (n - 1)`).
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// The median of ascending `sorted` values.
#[must_use]
pub fn median(sorted: &[f64]) -> f64 {
    quantile(sorted, 0.5)
}

/// An upper percentile of a sample, with how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpperPercentile {
    /// The quantile reported.
    pub q: f64,
    /// The quantile's value.
    pub value: f64,
    /// Samples strictly greater than `value`.
    pub beyond: usize,
    /// Samples in all.
    pub samples: usize,
}

/// The `q`-quantile of `values`, with the count of samples beyond it.
///
/// # Panics
///
/// Panics if `values` is empty or `q` is outside `[0, 1]`.
#[must_use]
pub fn upper_percentile(values: &[f64], q: f64) -> UpperPercentile {
    let sorted = sorted(values);
    let value = quantile(&sorted, q);
    UpperPercentile {
        q,
        value,
        beyond: sorted.iter().filter(|&&v| v > value).count(),
        samples: sorted.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = sorted(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert_eq!(median(&s), 3.0);
        assert_eq!(quantile(&s, 0.25), 2.0);
        assert!((quantile(&s, 0.1) - 1.4).abs() < 1e-12);
        assert_eq!(median(&sorted(&[1.0, 2.0])), 1.5);
    }

    #[test]
    fn the_upper_decile_of_one_to_a_hundred_has_ten_samples_beyond() {
        let chunks: Vec<f64> = (1..=101).map(f64::from).collect();
        let p = upper_percentile(&chunks, 0.9);
        assert_eq!(p.q, 0.9);
        assert_eq!(p.value, 91.0);
        assert_eq!(p.beyond, 10);
        assert_eq!(p.samples, 101);
    }

    #[test]
    fn the_quantile_does_not_move_with_the_sample_count() {
        // The same distribution sampled twice as densely reads the same
        // value at the same quantile; only the count beyond it grows.
        let sparse: Vec<f64> = (0..=500).map(|i| f64::from(i) / 500.0).collect();
        let dense: Vec<f64> = (0..=1000).map(|i| f64::from(i) / 1000.0).collect();
        let (a, b) = (
            upper_percentile(&sparse, 0.98),
            upper_percentile(&dense, 0.98),
        );
        assert!((a.value - 0.98).abs() < 1e-12 && (b.value - 0.98).abs() < 1e-12);
        assert_eq!((a.beyond, b.beyond), (10, 20));
    }

    #[test]
    fn slow_outliers_do_not_move_the_upper_percentile() {
        // A fast band with a slow stretch: the upper percentile reads the band.
        let mut chunks = vec![500.0; 80];
        chunks.extend([320.0; 40]);
        let p = upper_percentile(&chunks, 0.98);
        assert_eq!(p.value, 500.0);
        assert_eq!(p.beyond, 0);
        assert_eq!(median(&sorted(&chunks)), 500.0);
    }
}
