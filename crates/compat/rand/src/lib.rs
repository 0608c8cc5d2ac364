//! Offline stand-in for `rand` 0.8: the subset this workspace uses.
//!
//! * [`RngCore`] / [`Rng`] / [`SeedableRng`] traits with `gen`,
//!   `gen_range` and `gen_bool`,
//! * [`rngs::StdRng`]: xoshiro256++ seeded through SplitMix64 —
//!   deterministic, fast, and statistically solid for workload
//!   generation (not cryptographic, which the real `StdRng` is),
//! * `distributions::{Distribution, Standard, Uniform}` shims.
//!
//! The visible behaviour contract the workspace relies on: seeded
//! determinism (`seed_from_u64(s)` twice gives identical streams) and
//! approximate uniformity of `gen::<f64>()` / `gen_range`.

#![forbid(unsafe_code)]

/// Low-level source of randomness.
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly random bits (upper half of [`next_u64`]).
    ///
    /// [`next_u64`]: RngCore::next_u64
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// User-facing random value generation, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a value of `T` from the standard distribution.
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
    {
        use distributions::Distribution;
        distributions::Standard.sample(self)
    }

    /// Samples uniformly from a half-open range.
    fn gen_range<T, R2>(&mut self, range: R2) -> T
    where
        R2: distributions::uniform::SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Construction of RNGs from seeds.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed (expanded via SplitMix64).
    fn seed_from_u64(seed: u64) -> Self;

    /// Builds the generator from OS entropy — the stub derives it from
    /// the current time, which is enough for non-cryptographic use.
    #[expect(
        clippy::disallowed_methods,
        reason = "entropy is the one thing that must differ run to run; seeded generators never come here"
    )]
    fn from_entropy() -> Self {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9E3779B97F4A7C15);
        Self::seed_from_u64(nanos)
    }
}

/// Named RNG implementations.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++ (Blackman &
    /// Vigna), state seeded through SplitMix64. Deterministic per seed.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

/// Distributions: the standard (full-range / unit-interval) distribution
/// and uniform range sampling.
pub mod distributions {
    use super::Rng;

    /// A distribution over values of `T`.
    pub trait Distribution<T> {
        /// Draws one value.
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// The standard distribution: full range for integers, `[0, 1)` for
    /// floats, fair coin for `bool`.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Standard;

    impl Distribution<f64> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            // 53 uniform mantissa bits → [0, 1).
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    impl Distribution<f32> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
            (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
        }
    }

    impl Distribution<bool> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! standard_int {
        ($($t:ty),*) => {$(
            impl Distribution<$t> for Standard {
                fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// Uniform range sampling.
    pub mod uniform {
        use super::super::Rng;

        /// Types `gen_range` can produce. Mirrors rand's `SampleUniform`
        /// so type inference flows from the call site into range
        /// literals (`arr[rng.gen_range(0..4)]` infers `usize`).
        pub trait SampleUniform: Sized + PartialOrd {
            /// Uniform draw from `[low, high)`.
            fn sample_between<R: Rng + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
        }

        macro_rules! uniform_int {
            ($($t:ty),*) => {$(
                impl SampleUniform for $t {
                    fn sample_between<R: Rng + ?Sized>(
                        rng: &mut R,
                        low: $t,
                        high: $t,
                    ) -> $t {
                        let span = (high as i128 - low as i128) as u128;
                        // Multiply-shift bounded sampling (Lemire); the
                        // tiny bias of plain modulo would also be fine
                        // here, this avoids it outright.
                        let hi = ((rng.next_u64() as u128 * span) >> 64) as i128;
                        (low as i128 + hi) as $t
                    }
                }
            )*};
        }
        uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

        impl SampleUniform for f64 {
            fn sample_between<R: Rng + ?Sized>(rng: &mut R, low: f64, high: f64) -> f64 {
                let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                low + u * (high - low)
            }
        }

        /// A range that can be sampled from directly (the receiver of
        /// `Rng::gen_range`).
        pub trait SampleRange<T> {
            /// Draws one value from the range.
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T;
        }

        impl<T: SampleUniform> SampleRange<T> for ::std::ops::Range<T> {
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
                assert!(self.start < self.end, "cannot sample from empty range");
                T::sample_between(rng, self.start, self.end)
            }
        }
    }
}

pub use distributions::uniform;

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn seeded_streams_are_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<f64>().to_bits(), b.gen::<f64>().to_bits());
        }
        let mut c = StdRng::seed_from_u64(43);
        let same: usize = (0..64).filter(|_| a.gen::<i64>() == c.gen::<i64>()).count();
        assert!(same < 4, "different seeds must diverge");
    }

    #[test]
    fn unit_floats_stay_in_range_and_spread() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut buckets = [0usize; 10];
        for _ in 0..10_000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            buckets[(u * 10.0) as usize] += 1;
        }
        for (i, &b) in buckets.iter().enumerate() {
            assert!((700..1300).contains(&b), "bucket {i} skewed: {b}");
        }
    }

    #[test]
    fn ranges_cover_and_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.gen_range(0..7usize);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..1000 {
            let v = rng.gen_range(-3..4i64);
            assert!((-3..4).contains(&v));
        }
        for _ in 0..100 {
            let v = rng.gen_range(1_000_000..9_999_999i64);
            assert!((1_000_000..9_999_999).contains(&v));
        }
    }
}
