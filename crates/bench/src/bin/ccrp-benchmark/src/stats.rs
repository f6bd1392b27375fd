//! Order statistics over timing samples.

/// Nearest-rank percentile of `values` (`p` in 0..=100): the smallest
/// sample with at least `p`% of the samples at or below it. With 40
/// samples, p75 is the 30th smallest, so 10 samples lie beyond it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The three quartiles of `values` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so run-to-run spreads read the
/// same here as in any script that checks them. A single sample is its
/// own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 1 {
        return [sorted[0]; 3];
    }
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// The median by the same method as [`quartiles`].
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p75_of_forty_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let p75 = percentile(&samples, 75.0);
        assert_eq!(p75, 30.0);
        assert_eq!(samples.iter().filter(|&&x| x > p75).count(), 10);
        assert_eq!(percentile(&samples, 50.0), 20.0);
        assert_eq!(percentile(&samples, 100.0), 40.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1, 2, ..., 10], n=4) == [2.75, 5.5, 8.25]
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&samples), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }
}
