//! Sample statistics: percentile selection that refuses thin tails.

/// One percentile of a sample set, with the number of samples it was
/// taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The selected sample value.
    pub value: f64,
    /// Samples the percentile was selected from.
    pub samples: usize,
}

/// Minimum number of samples that must lie beyond a reported
/// percentile; thinner tails are refused rather than reported.
pub const MIN_BEYOND: usize = 10;

/// Smallest sample count for which the `pct`-th percentile has at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn min_samples_for(pct: usize) -> usize {
    assert!((1..100).contains(&pct), "percentile {pct} outside 1..=99");
    (MIN_BEYOND * 100).div_ceil(100 - pct)
}

/// The `pct`-th percentile (1..=99) by the nearest-rank method, or an
/// error naming the sample count when fewer than [`MIN_BEYOND`] samples
/// lie beyond it.
pub fn percentile(samples: &[f64], pct: usize) -> Result<Percentile, String> {
    let n = samples.len();
    let need = min_samples_for(pct);
    if n < need {
        return Err(format!(
            "p{pct} needs at least {need} samples ({MIN_BEYOND} beyond it), got {n}"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Nearest rank: the smallest value with at least pct% of the
    // samples at or below it.
    let rank = (pct * n).div_ceil(100).clamp(1, n);
    Ok(Percentile {
        value: sorted[rank - 1],
        samples: n,
    })
}

/// The median of a non-empty sample set (mean of the middle pair for an
/// even count). Used where every sample is a whole run's aggregate,
/// such as repeated set-up times, not a latency distribution.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_its_sample_count() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&samples, 90).unwrap();
        assert_eq!(p90.samples, 100);
        assert_eq!(p90.value, 90.0);
        let p50 = percentile(&samples, 50).unwrap();
        assert_eq!((p50.value, p50.samples), (50.0, 100));
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        // p90 of 99 samples leaves 9.9 beyond it: refused.
        let err = percentile(&samples, 90).unwrap_err();
        assert!(err.contains("got 99"), "{err}");
        assert!(percentile(&samples, 99).is_err());
        // The median of 19 samples leaves 9.5 beyond it; of 20, exactly 10.
        assert!(percentile(&samples[..19], 50).is_err());
        assert!(percentile(&samples[..20], 50).is_ok());
        assert_eq!(min_samples_for(99), 1000);
        assert_eq!(min_samples_for(90), 100);
        assert_eq!(min_samples_for(50), 20);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (0..1000).map(|i| f64::from((i * 7919) % 1000)).collect();
        let a = percentile(&samples, 99).unwrap();
        samples.reverse();
        assert_eq!(a, percentile(&samples, 99).unwrap());
        assert_eq!(a.value, 989.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
