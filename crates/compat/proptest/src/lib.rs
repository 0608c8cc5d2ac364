//! Offline stand-in for `proptest`: the subset this workspace uses.
//!
//! Implemented: the [`proptest!`] test macro with `#![proptest_config]`,
//! the [`strategy::Strategy`] trait over ranges / tuples / arrays /
//! `Just` / `prop_map` / unions, [`collection::vec`], [`option::of`],
//! [`any`] over `bool` and the integers, and the [`prop_assert!`] /
//! [`prop_assert_eq!`] / [`prop_oneof!`] macros.
//!
//! Semantics vs. the real crate: inputs are drawn from a deterministic
//! per-test RNG (seeded from the test name), there is **no shrinking**,
//! and a failing case panics with its case number — reruns reproduce it
//! exactly.

#![forbid(unsafe_code)]

pub mod strategy;
pub mod test_runner;

/// `any::<T>()` and the [`Arbitrary`](arbitrary::Arbitrary) trait.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical strategy.
    pub trait Arbitrary: Sized {
        /// Draws an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// The strategy returned by [`any`].
    #[derive(Debug, Clone, Copy)]
    pub struct AnyStrategy<T>(PhantomData<T>);

    impl<T: Arbitrary + std::fmt::Debug> Strategy for AnyStrategy<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary + std::fmt::Debug>() -> AnyStrategy<T> {
        AnyStrategy(PhantomData)
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// A length specification: a fixed size or a half-open range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        start: usize,
        end: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { start: n, end: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { start: r.start, end: r.end }
        }
    }

    /// Strategy producing `Vec`s of `element` with a length drawn from
    /// `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Option strategies.
pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy producing `None` about a quarter of the time and
    /// `Some(inner)` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            if rng.next_u64().is_multiple_of(4) {
                None
            } else {
                Some(self.inner.sample(rng))
            }
        }
    }
}

pub use arbitrary::any;

/// One-stop imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::test_runner::{TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// The property-test macro: expands each
/// `fn name(arg in strategy, ...) { body }` into a `#[test]`-able
/// zero-argument function that runs `body` over `config.cases` sampled
/// inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl ($cfg); $($rest)*);
    };
    (@impl ($cfg:expr); $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng =
                    $crate::test_runner::TestRng::deterministic(stringify!($name));
                for case in 0..config.cases {
                    let outcome: ::std::result::Result<
                        (),
                        $crate::test_runner::TestCaseError,
                    > = (|| {
                        $(
                            let $arg = $crate::strategy::Strategy::sample(
                                &($strat),
                                &mut rng,
                            );
                        )*
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!(
                            "proptest `{}` failed at case {}/{}: {}",
                            stringify!($name),
                            case,
                            config.cases,
                            e
                        );
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(
            @impl ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        );
    };
}

/// `assert!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// `assert_eq!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` != `{:?}`", l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` != `{:?}`: {}", l, r, format!($($fmt)+)
        );
    }};
}

/// Chooses uniformly between several strategies producing the same value
/// type (weights are not supported by the stub).
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}
