//! A small Zipf sampler (inverse-CDF over precomputed weights).

use crate::rng::Rng;

/// Samples ranks `0 … n-1` with probability proportional to
/// `1 / (rank+1)^s`. Real-world categorical attributes (database names,
/// organisms, reference types) are heavily skewed; Zipf sampling gives
/// the generators that skew, which in turn is what makes the paper's
/// frequent-pattern mining optimization (Fig. 3(e)) effective.
pub(crate) struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler over `n` ranks with exponent `s ≥ 0`
    /// (`s = 0` is uniform; `s ≈ 1` is classic Zipf).
    pub(crate) fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s >= 0.0, "exponent must be non-negative");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    /// Draws one rank.
    pub(crate) fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        match self.cumulative.binary_search_by(|c| c.partial_cmp(&u).expect("no NaN")) {
            Ok(i) => i,
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_when_s_is_zero() {
        let z = Zipf::new(4, 0.0);
        let mut rng = Rng::seeded(7);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "not uniform: {counts:?}");
        }
    }

    #[test]
    fn skewed_when_s_is_one() {
        let z = Zipf::new(10, 1.0);
        let mut rng = Rng::seeded(7);
        let mut counts = [0usize; 10];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > 2 * counts[4], "rank 0 should dominate: {counts:?}");
        assert!(counts[0] > 4 * counts[9]);
    }

    #[test]
    fn all_ranks_reachable() {
        let z = Zipf::new(5, 1.2);
        let mut rng = Rng::seeded(3);
        let mut seen = [false; 5];
        for _ in 0..5_000 {
            seen[z.sample(&mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn deterministic_given_seed() {
        let z = Zipf::new(8, 0.9);
        let a: Vec<usize> = (0..32).map(|_| z.sample(&mut Rng::seeded(1))).collect();
        let b: Vec<usize> = (0..32).map(|_| z.sample(&mut Rng::seeded(1))).collect();
        assert_eq!(a, b);
    }
}
