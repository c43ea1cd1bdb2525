//! Value-generation strategies: the proptest-compatible combinator
//! surface over the choice tape.
//!
//! Every strategy is a pure function from draws on a [`Gen`] to a value,
//! arranged so that the all-zero tape produces the strategy's minimal
//! output (lowest range endpoint, empty collection, `None`, first
//! `prop_oneof!` arm, recursion leaf). Shrinking then needs no per-type
//! logic: the runner lowers the tape and regenerates.

use std::marker::PhantomData;
use std::ops::Range;
use std::rc::Rc;

use crate::tape::Gen;

/// A generator of test-case values.
///
/// Object-safe core plus provided combinators mirroring the `proptest`
/// names (`prop_map`, `prop_filter`, `prop_recursive`, `boxed`) so ported
/// suites keep their shape.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value from the choice tape.
    fn generate(&self, g: &mut Gen) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Keeps only values for which `accept` holds. The generator retries
    /// locally a few times, then rejects the whole case (the runner
    /// replaces rejected cases; they never count as failures).
    fn prop_filter<F>(self, whence: &'static str, accept: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            whence,
            accept,
        }
    }

    /// Wraps this strategy (the recursion leaf) in up to `depth` levels of
    /// `recurse`, which receives a strategy for the next level down.
    /// `desired_size` and `expected_branch_size` are accepted for
    /// `proptest` signature compatibility; branching probability is
    /// derived from `expected_branch_size`.
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        desired_size: u32,
        expected_branch_size: u32,
        recurse: F,
    ) -> Recursive<Self::Value>
    where
        Self: Sized + 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R + 'static,
    {
        let _ = desired_size;
        let branch = f64::from(expected_branch_size.max(1));
        Recursive {
            base: self.boxed(),
            recurse: Rc::new(move |inner| recurse(inner).boxed()),
            depth,
            recurse_prob: branch / (branch + 1.0),
        }
    }

    /// Type-erases this strategy behind a cheaply cloneable handle.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }
}

/// A type-erased, cheaply cloneable strategy (what `prop_recursive`
/// closures receive as `inner`).
pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, g: &mut Gen) -> T {
        self.0.generate(g)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, g: &mut Gen) -> O {
        (self.f)(self.inner.generate(g))
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    whence: &'static str,
    accept: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, g: &mut Gen) -> S::Value {
        // Local retries draw further along the tape, so a replayed tape
        // reproduces the same retry pattern deterministically.
        for _ in 0..8 {
            let v = self.inner.generate(g);
            if (self.accept)(&v) {
                return v;
            }
        }
        let _ = self.whence;
        crate::reject()
    }
}

/// See [`Strategy::prop_recursive`].
pub struct Recursive<T> {
    base: BoxedStrategy<T>,
    recurse: Rc<dyn Fn(BoxedStrategy<T>) -> BoxedStrategy<T>>,
    depth: u32,
    recurse_prob: f64,
}

impl<T> Clone for Recursive<T> {
    fn clone(&self) -> Self {
        Recursive {
            base: self.base.clone(),
            recurse: Rc::clone(&self.recurse),
            depth: self.depth,
            recurse_prob: self.recurse_prob,
        }
    }
}

impl<T: 'static> Strategy for Recursive<T> {
    type Value = T;
    fn generate(&self, g: &mut Gen) -> T {
        // The zero draw picks the leaf, so shrinking prunes recursion.
        if self.depth == 0 || g.fraction() >= self.recurse_prob {
            return self.base.generate(g);
        }
        let inner = Recursive {
            depth: self.depth - 1,
            ..self.clone()
        }
        .boxed();
        (self.recurse)(inner).generate(g)
    }
}

/// Always generates a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _g: &mut Gen) -> T {
        self.0.clone()
    }
}

/// Uniform choice between same-valued strategies; backs [`prop_oneof!`].
/// The zero draw selects the first arm, which shrinking therefore
/// gravitates toward (list the simplest arm first).
///
/// [`prop_oneof!`]: crate::prop_oneof
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// A union over the given arms (at least one).
    #[must_use]
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, g: &mut Gen) -> T {
        let idx = g.below(self.arms.len() as u64) as usize;
        self.arms[idx].generate(g)
    }
}

/// The canonical strategy for a whole type; see [`any`].
pub struct Any<T>(PhantomData<T>);

/// The full-range strategy for `T` — `any::<u32>()` and friends.
#[must_use]
pub fn any<T>() -> Any<T> {
    Any(PhantomData)
}

macro_rules! any_uint {
    ($($ty:ty),+) => {$(
        impl Strategy for Any<$ty> {
            type Value = $ty;
            fn generate(&self, g: &mut Gen) -> $ty {
                g.draw() as $ty
            }
        }
    )+};
}
any_uint!(u8, u16, u32, u64, usize);

impl Strategy for Any<bool> {
    type Value = bool;
    fn generate(&self, g: &mut Gen) -> bool {
        g.bool()
    }
}

macro_rules! range_uint {
    ($($ty:ty),+) => {$(
        impl Strategy for Range<$ty> {
            type Value = $ty;
            fn generate(&self, g: &mut Gen) -> $ty {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + g.below(span) as $ty
            }
        }
    )+};
}
range_uint!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, g: &mut Gen) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        let v = self.start + g.fraction() * (self.end - self.start);
        // Rounding can land exactly on the excluded endpoint.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+))+) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, g: &mut Gen) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(g),)+)
            }
        }
    )+};
}
tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
    (A, B, C, D, E, F, G)
    (A, B, C, D, E, F, G, H)
}

/// Collection and option strategies under the `prop::` paths ported
/// suites already use (`prop::collection::vec`, `prop::option::of`).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{Gen, Strategy};
        use std::ops::Range;

        /// A `Vec` of `element` values with a length drawn from `len`.
        pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, len }
        }

        /// See [`vec()`].
        pub struct VecStrategy<S> {
            element: S,
            len: Range<usize>,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, g: &mut Gen) -> Vec<S::Value> {
                let n = self.len.clone().generate(g);
                (0..n).map(|_| self.element.generate(g)).collect()
            }
        }
    }

    /// `Option` strategies.
    pub mod option {
        use super::super::{Gen, Strategy};

        /// `None` or `Some(inner)`; shrinks toward `None`.
        pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
            OptionStrategy { inner }
        }

        /// See [`of`].
        pub struct OptionStrategy<S> {
            inner: S,
        }

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;
            fn generate(&self, g: &mut Gen) -> Option<S::Value> {
                if g.bool() {
                    Some(self.inner.generate(g))
                } else {
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zero_gen() -> Gen {
        Gen::replay(vec![])
    }

    #[test]
    fn zero_tape_yields_minimal_values() {
        let mut g = zero_gen();
        assert_eq!((3u32..9).generate(&mut g), 3);
        assert_eq!((-2.0..5.0f64).generate(&mut g), -2.0);
        assert_eq!(any::<u64>().generate(&mut g), 0);
        assert!(prop::collection::vec(0u8..10, 0..5)
            .generate(&mut g)
            .is_empty());
        assert_eq!(prop::option::of(0u8..10).generate(&mut g), None);
        let u = Union::new(vec![Just(1u8).boxed(), Just(2u8).boxed()]);
        assert_eq!(u.generate(&mut g), 1);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut g = Gen::random(99);
        for _ in 0..500 {
            let v = (10u64..17).generate(&mut g);
            assert!((10..17).contains(&v));
            let f = (-1.0..1.0f64).generate(&mut g);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn map_and_filter_compose() {
        let s = (0u32..100)
            .prop_map(|v| v * 2)
            .prop_filter("nonzero", |v| *v != 0);
        let mut g = Gen::random(5);
        for _ in 0..100 {
            let v = s.generate(&mut g);
            assert!(v != 0 && v % 2 == 0 && v < 200);
        }
    }

    #[test]
    fn recursive_respects_its_depth_bound() {
        #[derive(Debug)]
        enum Tree {
            Leaf,
            Node(Box<Tree>, Box<Tree>),
        }
        fn depth(t: &Tree) -> u32 {
            match t {
                Tree::Leaf => 0,
                Tree::Node(a, b) => 1 + depth(a).max(depth(b)),
            }
        }
        let s = Just(())
            .prop_map(|()| Tree::Leaf)
            .prop_recursive(3, 16, 2, |inner| {
                (inner.clone(), inner).prop_map(|(a, b)| Tree::Node(Box::new(a), Box::new(b)))
            });
        let mut g = Gen::random(11);
        let mut saw_node = false;
        for _ in 0..200 {
            let t = s.generate(&mut g);
            assert!(depth(&t) <= 3);
            saw_node |= matches!(t, Tree::Node(..));
        }
        assert!(saw_node, "recursion never branched");
    }

    #[test]
    fn vec_lengths_respect_their_range() {
        let s = prop::collection::vec(any::<u8>(), 2..5);
        let mut g = Gen::random(3);
        for _ in 0..200 {
            let v = s.generate(&mut g);
            assert!((2..5).contains(&v.len()));
        }
    }
}
