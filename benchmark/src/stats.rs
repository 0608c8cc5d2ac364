//! Order statistics over timing samples.

/// A percentile is reported only when at least this many samples lie
/// beyond it (the choosing-metrics rule for the highest percentile).
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle sample, or the mean of the two middle ones.
/// `0.0` for an empty slice, which is how an unexercised layer reads.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The nearest-rank percentile `p` (in `(0, 1]`) when at least
/// [`MIN_BEYOND`] samples lie beyond it, `None` otherwise.
pub fn high_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let rank = rank(samples.len(), p);
    (samples.len() >= rank + MIN_BEYOND).then(|| sorted(samples)[rank - 1])
}

/// The distance between the first and third quartile as a share of the
/// median, by the exclusive method Python's `statistics.quantiles(v,
/// n=4)` uses. `None` below four samples or at a zero median.
pub fn quartile_spread(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    if n < 4 {
        return None;
    }
    let quantile = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        v[lo - 1] + (pos - lo as f64) * (v[lo] - v[lo - 1])
    };
    let m = median(&v);
    (m != 0.0).then(|| (quantile(3) - quantile(1)) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p90_is_the_nearest_rank_once_ten_samples_lie_beyond_it() {
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(high_percentile(&hundred, 0.90), Some(90.0));
        let two_hundred: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(high_percentile(&two_hundred, 0.90), Some(180.0));
    }

    #[test]
    fn p90_is_dropped_when_fewer_than_ten_samples_lie_beyond_it() {
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(high_percentile(&ninety_nine, 0.90), None);
        assert_eq!(high_percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.90), None);
        assert_eq!(high_percentile(&[], 0.90), None);
    }

    #[test]
    fn quartile_spread_matches_pythons_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = quartile_spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{s}");
        assert_eq!(quartile_spread(&[1.0, 2.0, 3.0]), None);
    }
}
