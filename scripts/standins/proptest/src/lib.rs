//! Offline stand-in for `proptest`: the subset of the 1.x API this
//! repository's tests use, so `scripts/offline-test.sh` runs them with no
//! crates registry. Values are generated from a seed derived from the test's
//! name (every run draws the same cases); a failing case is reported with
//! its inputs but is **not shrunk**, and `*.proptest-regressions` files are
//! not read. CI's registry build runs the same tests on the published crate.

pub mod test_runner {
    use crate::strategy::Strategy;
    use std::fmt::Debug;

    /// xorshift64*: small, seedable, good enough to spread test inputs.
    pub struct TestRng(u64);

    impl TestRng {
        pub fn new(seed: u64) -> Self {
            TestRng(seed | 1)
        }
        pub fn next_u64(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
        /// Uniform in `0..n` (`n > 0`).
        pub fn below(&mut self, n: u64) -> u64 {
            ((self.next_u64() as u128 * n as u128) >> 64) as u64
        }
    }

    #[derive(Clone, Debug)]
    pub struct Config {
        pub cases: u32,
        pub max_global_rejects: u32,
    }

    impl Config {
        pub fn with_cases(cases: u32) -> Self {
            Config { cases, ..Config::default() }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256, max_global_rejects: 1024 }
        }
    }

    #[derive(Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` did not hold: draw another case.
        Reject(String),
        Fail(String),
    }

    /// Names the inputs of the running case if its body panics.
    struct OnPanic<'a>(&'a str, &'a str);

    impl Drop for OnPanic<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("proptest stand-in: {} panicked on input {}", self.0, self.1);
            }
        }
    }

    pub fn run<S: Strategy>(
        config: &Config,
        name: &str,
        strategy: S,
        test: impl Fn(S::Value) -> Result<(), TestCaseError>,
    ) where
        S::Value: Debug,
    {
        // FNV-1a of the test name: a fixed, per-test seed.
        let seed = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3));
        let mut rng = TestRng::new(seed);
        let (mut passed, mut rejected) = (0, 0);
        while passed < config.cases {
            let value = strategy.generate(&mut rng);
            let shown = format!("{value:?}");
            let guard = OnPanic(name, &shown);
            let outcome = test(value);
            drop(guard);
            match outcome {
                Ok(()) => passed += 1,
                Err(TestCaseError::Reject(why)) => {
                    rejected += 1;
                    assert!(rejected <= config.max_global_rejects, "{name}: too many rejected cases ({why})");
                }
                Err(TestCaseError::Fail(why)) => panic!("{name} failed: {why}\n  input: {shown}"),
            }
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::fmt::Debug;
    use std::sync::Arc;

    pub trait Strategy {
        type Value: Debug;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map(self, f)
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Arc::new(self))
        }

        /// `self` is the leaf; each of `depth` levels chooses between the
        /// leaf and `recurse` applied to the level below. The size hints
        /// are ignored.
        fn prop_recursive<R, F>(self, depth: u32, _desired_size: u32, _expected_branch: u32, recurse: F) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R,
        {
            let leaf = self.boxed();
            let mut level = leaf.clone();
            for _ in 0..depth {
                level = Union::new(vec![(1, leaf.clone()), (2, recurse(level).boxed())]).boxed();
            }
            level
        }
    }

    pub struct BoxedStrategy<T>(Arc<dyn Strategy<Value = T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(self.0.clone())
        }
    }

    impl<T: Debug> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate(rng)
        }
    }

    pub struct Map<S, F>(S, F);

    impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.1)(self.0.generate(rng))
        }
    }

    #[derive(Clone, Debug)]
    pub struct Just<T>(pub T);

    impl<T: Clone + Debug> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// What `prop_oneof!` builds: a weighted choice between strategies.
    pub struct Union<T>(Vec<(u32, BoxedStrategy<T>)>);

    impl<T> Union<T> {
        pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
            assert!(arms.iter().any(|(w, _)| *w > 0), "prop_oneof! needs a positive weight");
            Union(arms)
        }
    }

    impl<T: Debug> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let total: u64 = self.0.iter().map(|(w, _)| *w as u64).sum();
            let mut pick = rng.below(total);
            for (w, s) in &self.0 {
                if pick < *w as u64 {
                    return s.generate(rng);
                }
                pick -= *w as u64;
            }
            unreachable!("pick < total weight")
        }
    }

    macro_rules! int_ranges {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start() <= self.end(), "empty range strategy");
                    let span = (*self.end() as i128 - *self.start() as i128) as u64;
                    let off = if span == u64::MAX { rng.next_u64() } else { rng.below(span + 1) };
                    (*self.start() as i128 + off as i128) as $t
                }
            }
        )*};
    }
    int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! tuples {
        ($(($($s:ident $i:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.generate(rng),)+)
                }
            }
        )*};
    }
    tuples! {
        (A 0)
        (A 0, B 1)
        (A 0, B 1, C 2)
        (A 0, B 1, C 2, D 3)
        (A 0, B 1, C 2, D 3, E 4)
        (A 0, B 1, C 2, D 3, E 4, F 5)
    }

    /// A string pattern of the one shape the tests use: `[class]{m,n}`
    /// with literal characters and `a-z` ranges in the class.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let (class, counts) = self
                .strip_prefix('[')
                .and_then(|p| p.split_once("]{"))
                .unwrap_or_else(|| panic!("unsupported string pattern {self:?}"));
            let (lo, hi) = counts
                .strip_suffix('}')
                .and_then(|c| c.split_once(','))
                .map(|(lo, hi)| (lo.parse::<u64>().expect("pattern bound"), hi.parse::<u64>().expect("pattern bound")))
                .unwrap_or_else(|| panic!("unsupported string pattern {self:?}"));
            let chars: Vec<char> = class.chars().collect();
            let mut alphabet = Vec::new();
            let mut i = 0;
            while i < chars.len() {
                if i + 2 < chars.len() && chars[i + 1] == '-' {
                    alphabet.extend(chars[i]..=chars[i + 2]);
                    i += 3;
                } else {
                    alphabet.push(chars[i]);
                    i += 1;
                }
            }
            let len = lo + rng.below(hi - lo + 1);
            (0..len).map(|_| alphabet[rng.below(alphabet.len() as u64) as usize]).collect()
        }
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::fmt::Debug;
    use std::marker::PhantomData;

    pub trait Arbitrary: Debug + Sized {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_ints {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arbitrary_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() >> 63 == 1
        }
    }

    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    pub struct Any;
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = ::core::primitive::bool;
        fn generate(&self, rng: &mut TestRng) -> ::core::primitive::bool {
            rng.next_u64() >> 63 == 1
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Inclusive length bounds of a generated collection.
    pub struct SizeRange(usize, usize);

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange(n, n)
        }
    }
    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange(r.start, r.end - 1)
        }
    }
    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange(*r.start(), *r.end())
        }
    }
    /// Untyped literals (`1..6`) default to `i32`.
    impl From<std::ops::Range<i32>> for SizeRange {
        fn from(r: std::ops::Range<i32>) -> Self {
            (r.start as usize..r.end as usize).into()
        }
    }

    pub struct VecStrategy<S>(S, SizeRange);

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy(element, size.into())
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let SizeRange(lo, hi) = self.1;
            let len = lo + rng.below((hi - lo + 1) as u64) as usize;
            (0..len).map(|_| self.0.generate(rng)).collect()
        }
    }
}

pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    pub struct OptionStrategy<S>(S);

    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            (rng.below(4) > 0).then(|| self.0.generate(rng))
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest};

    /// `prop::collection::vec(..)`, `prop::option::of(..)`.
    pub mod prop {
        pub use crate::{bool, collection, option, strategy};
    }
}

#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$(($weight, $crate::strategy::Strategy::boxed($strategy))),+])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$((1, $crate::strategy::Strategy::boxed($strategy))),+])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_eq!($left, $right, "prop_assert_eq!({}, {})", stringify!($left), stringify!($right))
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) => $crate::prop_assert!(*l == *r, "{}\n  left: {:?}\n right: {:?}", format!($($fmt)+), l, r),
        }
    };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_ne!($left, $right, "prop_assert_ne!({}, {})", stringify!($left), stringify!($right))
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) => $crate::prop_assert!(*l != *r, "{}\n  both: {:?}", format!($($fmt)+), l),
        }
    };
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::Reject(stringify!($cond).to_string()));
        }
    };
}

/// `proptest! { #![proptest_config(cfg)] #[test] fn name(a in strategy, ..) { body } .. }`.
/// Each body runs inside a `Result`-returning closure, so it may
/// `return Ok(())` and the `prop_assert*!` macros may `return Err(..)`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::test_runner::Config::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($config:expr)) => {};
    (($config:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::Config = $config;
            $crate::test_runner::run(&config, stringify!($name), ($($strategy,)+), |($($arg,)+)| {
                $body
                #[allow(unreachable_code)]
                Ok(())
            });
        }
        $crate::__proptest_fns! { ($config) $($rest)* }
    };
}
