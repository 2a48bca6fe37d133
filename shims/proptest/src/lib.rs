//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of proptest's API the workspace uses — the
//! `proptest!`/`prop_oneof!`/`prop_assert*!` macros, `Strategy` with
//! `prop_map`/`boxed`, `any`, `Just`, range and tuple strategies,
//! `collection::vec`, and simple `.{a,b}`-style string patterns — as a
//! plain seeded random-input runner. Differences from the real crate:
//! no shrinking (a failing case reports its inputs but is not
//! minimized), and seeds are derived deterministically from the test's
//! module path so failures reproduce across runs.

use std::fmt;
use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The RNG handed to strategies; deterministic per test.
pub type TestRng = StdRng;

/// Seed an RNG from a test's name (FNV-1a), so every run of a given
/// test explores the same inputs.
pub fn test_rng(name: &str) -> TestRng {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    StdRng::seed_from_u64(h)
}

/// A failed `prop_assert*!`; carried as `Err` out of the test body.
#[derive(Debug)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// Runner configuration; only `cases` matters to the shim, the other
/// fields exist so `..ProptestConfig::default()` updates keep working.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases per test. The default reads the
    /// `PROPTEST_CASES` environment variable, as the real crate does, and
    /// falls back to 64; a test that sets `cases` itself keeps its count.
    pub cases: u32,
    /// Accepted for compatibility; the shim never shrinks.
    pub max_shrink_iters: u32,
    /// Accepted for compatibility; the shim never rejects inputs.
    pub max_global_rejects: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|n| n.parse().ok())
                .unwrap_or(64),
            max_shrink_iters: 0,
            max_global_rejects: 0,
        }
    }
}

/// Drive one property: `cases` iterations of generate-and-check.
pub fn run_proptest<F>(config: ProptestConfig, name: &str, mut f: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    let mut rng = test_rng(name);
    for case in 0..config.cases {
        if let Err(e) = f(&mut rng) {
            panic!(
                "proptest {name}: case {case} of {} failed: {e}",
                config.cases
            );
        }
    }
}

/// A generator of random values. Object-safe core (`generate`) plus
/// sized combinators, mirroring the slice of proptest's `Strategy` that
/// the workspace uses.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { source: self, f }
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

/// `prop_map` adapter.
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.source.generate(rng))
    }
}

/// Always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed alternatives — what `prop_oneof!`
/// expands to.
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.gen_range(0..self.arms.len());
        self.arms[i].generate(rng)
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

macro_rules! tuple_strategy {
    ($($s:ident . $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}
tuple_strategy!(A.0);
tuple_strategy!(A.0, B.1);
tuple_strategy!(A.0, B.1, C.2);
tuple_strategy!(A.0, B.1, C.2, D.3);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);

/// Types with a whole-domain default strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rand::RngCore::next_u64(rng) as $t
            }
        }
    )*};
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.gen::<bool>()
    }
}

impl Arbitrary for f64 {
    /// Finite floats only (magnitudes up to ~1e12 plus exact zeros):
    /// the workspace round-trips floats through encodings that compare
    /// by value, where NaN would trivially (and uninterestingly) fail.
    fn arbitrary(rng: &mut TestRng) -> Self {
        match rng.gen_range(0u32..8) {
            0 => 0.0,
            1 => rng.gen_range(-1.0f64..1.0),
            _ => rng.gen_range(-1.0e12f64..1.0e12),
        }
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        f64::arbitrary(rng) as f32
    }
}

/// `any::<T>()` — the whole-domain strategy for `T`.
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// String patterns: the real crate interprets a `&str` strategy as a
/// regex. The shim supports the forms the workspace uses — `.*`, `.+`,
/// and `.{min,max}` — and treats anything else as a literal.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let (min, max) = match *self {
            ".*" => (0usize, 64usize),
            ".+" => (1, 64),
            pat => match parse_dot_repeat(pat) {
                Some(bounds) => bounds,
                None => return (*self).to_string(),
            },
        };
        let len = rng.gen_range(min..max + 1);
        (0..len).map(|_| random_char(rng)).collect()
    }
}

fn parse_dot_repeat(pat: &str) -> Option<(usize, usize)> {
    let body = pat.strip_prefix(".{")?.strip_suffix('}')?;
    let (lo, hi) = body.split_once(',')?;
    Some((lo.trim().parse().ok()?, hi.trim().parse().ok()?))
}

/// A `.`-class character: mostly printable ASCII (dense in quotes,
/// parens, and digits to stress parsers), with occasional tabs and
/// multi-byte code points. Never a newline, matching regex `.`.
fn random_char(rng: &mut TestRng) -> char {
    match rng.gen_range(0u32..20) {
        0 => '\t',
        1 => 'é',
        2 => '日',
        3 => '∑',
        _ => char::from(rng.gen_range(0x20u8..0x7f)),
    }
}

pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::ops::Range;

    /// `proptest::collection::vec(element, len_range)`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.clone());
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, Any, Arbitrary, BoxedStrategy,
        Just, ProptestConfig, Strategy, TestCaseError,
    };
}

/// Define `#[test]` functions over generated inputs:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]
///     #[test]
///     fn prop(x in 0u64..10, s in ".*") { prop_assert!(x < 10); }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::run_proptest(
                    $config,
                    concat!(module_path!(), "::", stringify!($name)),
                    |__pvm_proptest_rng| {
                        $(let $arg = $crate::Strategy::generate(&($strat), __pvm_proptest_rng);)+
                        $body
                        ::std::result::Result::Ok(())
                    },
                );
            }
        )*
    };
    ( $($rest:tt)* ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $($rest)*
        }
    };
}

/// Uniform choice between strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Assert inside a `proptest!` body; failures abort the case via `Err`
/// rather than panicking (so the runner can report the case number).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Equality assert inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{:?}` == `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{:?}` == `{:?}`: {}",
            left,
            right,
            format!($($fmt)+)
        );
    }};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Op {
        A(usize),
        B(i64, bool),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..10,).prop_map(|(n,)| Op::A(n)),
            (0i64..5, any::<bool>()).prop_map(|(x, b)| Op::B(x, b)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// Ranges stay in bounds; vec respects its length range.
        #[test]
        fn generated_values_in_domain(
            xs in crate::collection::vec(op(), 1..20),
            s in ".{0,10}",
            f in any::<f64>(),
        ) {
            prop_assert!(!xs.is_empty() && xs.len() < 20);
            for x in &xs {
                match x {
                    Op::A(n) => prop_assert!(*n < 10),
                    Op::B(v, _) => prop_assert!((0..5).contains(v)),
                }
            }
            prop_assert!(s.chars().count() <= 10);
            prop_assert!(!s.contains('\n'));
            prop_assert!(f.is_finite(), "expected finite, got {f}");
            prop_assert_eq!(xs.len(), xs.len());
        }
    }

    #[test]
    fn deterministic_per_name() {
        let mut a = crate::test_rng("x");
        let mut b = crate::test_rng("x");
        let s: String = Strategy::generate(&".{5,9}", &mut a);
        let t: String = Strategy::generate(&".{5,9}", &mut b);
        assert_eq!(s, t);
    }

    #[test]
    #[should_panic(expected = "case")]
    fn failing_property_panics_with_case() {
        crate::run_proptest(ProptestConfig::default(), "shim::fail", |_rng| {
            Err(TestCaseError::fail("boom"))
        });
    }

    #[test]
    fn literal_pattern_falls_through() {
        let mut rng = crate::test_rng("lit");
        let s: String = Strategy::generate(&"SELECT", &mut rng);
        assert_eq!(s, "SELECT");
    }
}
