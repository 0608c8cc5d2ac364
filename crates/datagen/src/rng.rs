//! The generator every dataset is drawn from: xoshiro256++ (Blackman &
//! Vigna), its state seeded through SplitMix64. Not a stand-in for an
//! external crate: the bit stream *is* the data — every seeded relation,
//! benchmark workload and delta stream — so a change here regenerates
//! all of them. `tests/seeded_datasets.rs` pins the stream end to end.

/// A seeded xoshiro256++ generator. Deterministic; not cryptographic.
pub(crate) struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The generator at `seed`, its state expanded through SplitMix64.
    pub(crate) fn seeded(seed: u64) -> Self {
        let mut sm = seed;
        let mut splitmix = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (sm ^ (sm >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng { s: [splitmix(), splitmix(), splitmix(), splitmix()] }
    }

    /// The next 64 raw bits: one xoshiro256++ step.
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform float in `[0, 1)`: the top 53 bits, scaled.
    pub(crate) fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[lo, hi)`, by Lemire's multiply-shift (no
    /// modulo bias).
    pub(crate) fn range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "cannot sample from the empty range {lo}..{hi}");
        let span = (i128::from(hi) - i128::from(lo)) as u128;
        let offset = ((u128::from(self.next_u64()) * span) >> 64) as i128;
        (i128::from(lo) + offset) as i64
    }

    /// A uniform index in `[0, n)`.
    pub(crate) fn below(&mut self, n: usize) -> usize {
        self.range(0, n as i64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::Rng;

    /// The first draws at three seeds. Every dataset is this stream, so
    /// a drift in any of them regenerates every dataset.
    #[test]
    fn the_stream_is_pinned() {
        let mut rng = Rng::seeded(42);
        let raw: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        assert_eq!(
            raw,
            [
                0xd076_4d4f_4476_689f,
                0x519e_4174_576f_3791,
                0xfbe0_7cfb_0c24_ed8c,
                0xb37d_9f60_0cd8_35b8,
                0xcb23_1c38_7484_6a73,
                0x968d_9f00_4e50_de7d,
                0x2017_18ff_221a_3556,
                0x9ae9_4e07_0ed8_cb46,
            ]
        );
        let mut rng = Rng::seeded(7);
        let unit: Vec<u64> = (0..3).map(|_| rng.unit().to_bits()).collect();
        assert_eq!(unit, [0x3fac_5834_0055_5d20, 0x3fc6_07e4_6efd_274c, 0x3fe6_f662_3676_1a8b]);
        let mut rng = Rng::seeded(9);
        let small: Vec<i64> = (0..4).map(|_| rng.range(-3, 4)).collect();
        let large: Vec<i64> = (0..2).map(|_| rng.range(1_000_000, 9_999_999)).collect();
        let below: Vec<usize> = (0..4).map(|_| rng.below(7)).collect();
        assert_eq!(
            (small, large, below),
            (vec![1, 0, -2, 3], vec![1620822, 2205362], vec![2, 1, 5, 5])
        );
    }

    #[test]
    fn unit_floats_stay_in_range_and_spread() {
        let mut rng = Rng::seeded(7);
        let mut buckets = [0usize; 10];
        for _ in 0..10_000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
            buckets[(u * 10.0) as usize] += 1;
        }
        for (i, &b) in buckets.iter().enumerate() {
            assert!((700..1300).contains(&b), "bucket {i} skewed: {b}");
        }
    }

    #[test]
    fn ranges_cover_and_respect_bounds() {
        let mut rng = Rng::seeded(9);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[rng.below(7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..1000 {
            assert!((-3..4).contains(&rng.range(-3, 4)));
        }
    }
}
