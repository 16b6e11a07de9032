//! Offline stand-in for the `rand` crate.
//!
//! Implements exactly the API subset this workspace uses — [`Rng`]
//! (`gen`, `gen_range`, `gen_bool`), [`SeedableRng`] and
//! [`rngs::StdRng`] — with no external dependencies, so the workspace
//! builds without crates.io access. `StdRng` here is xoshiro256**
//! seeded via SplitMix64: deterministic per seed, which is all the
//! workspace requires (explorations are compared run-to-run, never
//! against upstream `rand` streams).

#![warn(missing_docs)]

/// Random number generators.
pub mod rngs {
    /// The workspace's standard deterministic generator (xoshiro256**).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        pub(crate) s: [u64; 4],
    }
}

use rngs::StdRng;

impl StdRng {
    #[inline]
    pub(crate) fn next_u64_impl(&mut self) -> u64 {
        // xoshiro256** by Blackman & Vigna (public domain reference).
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
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

/// Seedable construction of generators.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the full state, as
        // recommended by the xoshiro authors.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self {
            s: [next(), next(), next(), next()],
        }
    }
}

/// Types producible by [`Rng::gen`] (the `Standard` distribution).
pub trait Standard: Sized {
    /// Draws one value from the generator.
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! int_standard {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self {
                // Keep the high bits: xoshiro's upper bits are strongest.
                (rng.next_u64() >> (64 - <$t>::BITS)) as $t
            }
        }
    )*};
}

int_standard!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for f64 {
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 high bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges samplable by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

/// `x % span` for the span of a range of a 64-bit or narrower type, in
/// `1..=2^64`: a mask for a power of two, 2^64 included, and a 64-bit
/// remainder for any other span, which then fits in 64 bits. Nothing
/// divides in 128 bits.
#[inline]
fn reduce(x: u64, span: u128) -> u128 {
    if span & (span - 1) == 0 {
        u128::from(x) & (span - 1)
    } else {
        let span = u64::try_from(span).expect("only 2^64 exceeds u64, and it is a power of two");
        u128::from(x % span)
    }
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = reduce(rng.next_u64(), span);
                (self.start as i128 + v as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty inclusive range in gen_range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = reduce(rng.next_u64(), span);
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range in gen_range");
        let f = f64::draw(rng);
        self.start + f * (self.end - self.start)
    }
}

impl SampleRange<f64> for core::ops::RangeInclusive<f64> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty inclusive range in gen_range");
        let f = f64::draw(rng);
        lo + f * (hi - lo)
    }
}

/// The generator interface.
pub trait Rng {
    /// The next raw 64-bit output.
    fn next_u64(&mut self) -> u64;

    /// Draws a value of an inferred [`Standard`] type.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// Draws uniformly from a range.
    ///
    /// An integer range takes exactly one raw draw `x` and returns
    /// `start + x % span`, where `span` is the number of values in the
    /// range. A power-of-two span masks `x` and divides nothing; any other
    /// span divides in 64 bits, never in 128.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability {p} outside [0, 1]"
        );
        f64::draw(self) < p
    }
}

impl Rng for StdRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next_u64_impl()
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_is_deterministic_and_seed_sensitive() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(x, y);
        assert_ne!(x, z);
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = r.gen_range(3usize..17);
            assert!((3..17).contains(&v));
            let f = r.gen_range(-2.5f64..4.5);
            assert!((-2.5..4.5).contains(&f));
            let i = r.gen_range(-8i64..=8);
            assert!((-8..=8).contains(&i));
        }
    }

    /// `gen_range` over `range` takes exactly one raw draw `x` and
    /// returns `start + (x as u128 % span)`, checked on clones of `r`.
    fn check_one_draw<T, S>(r: &mut StdRng, range: S, start: i128, span: u128)
    where
        T: TryInto<i128> + Copy + std::fmt::Debug,
        S: SampleRange<T> + Clone + std::fmt::Debug,
    {
        for _ in 0..64 {
            let mut raw = r.clone();
            let x = raw.next_u64();
            let v: T = r.gen_range(range.clone());
            let want = start + (u128::from(x) % span) as i128;
            assert_eq!(v.try_into().ok(), Some(want), "{range:?}, draw {x:#x}");
            assert_eq!(*r, raw, "{range:?} took more than one draw");
        }
    }

    #[test]
    fn integer_ranges_take_one_draw_modulo_the_span() {
        let mut r = StdRng::seed_from_u64(5);
        // Spans of one, powers of two, odd and even non-powers.
        for span in [1u64, 2, 3, 4, 6, 7, 10, 15, 16, 17, 64, 100, 1 << 40] {
            check_one_draw::<u64, _>(&mut r, 0..span, 0, span.into());
            check_one_draw::<i64, _>(&mut r, -5..span as i64 - 5, -5, span.into());
            check_one_draw::<u64, _>(&mut r, 9..=span + 8, 9, span.into());
        }
        for span in [1u8, 2, 3, 16, 255] {
            check_one_draw::<u8, _>(&mut r, 0..span, 0, span.into());
        }
        check_one_draw::<u8, _>(&mut r, 0..=u8::MAX, 0, 256);
        check_one_draw::<i32, _>(&mut r, i32::MIN..=i32::MAX, i32::MIN.into(), 1 << 32);
        // The full 64-bit spans: 2^64 masks, 2^64 − 1 is odd.
        check_one_draw::<u64, _>(&mut r, 0..=u64::MAX, 0, 1 << 64);
        check_one_draw::<i64, _>(&mut r, i64::MIN..=i64::MAX, i64::MIN.into(), 1 << 64);
        check_one_draw::<i64, _>(&mut r, i64::MIN..i64::MAX, i64::MIN.into(), u64::MAX.into());
        check_one_draw::<u64, _>(&mut r, 1..u64::MAX, 1, (u64::MAX - 1).into());
        // usize, the agents' action and tie ranges.
        for span in [1usize, 3, 5, 12, 16] {
            check_one_draw::<usize, _>(&mut r, 0..span, 0, span as u128);
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = StdRng::seed_from_u64(2);
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
    }

    #[test]
    fn standard_f64_in_unit_interval() {
        let mut r = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let f: f64 = r.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }
}
