//! Approximate adder families.
//!
//! Every model adds two `width`-bit unsigned operands and returns the full
//! `(width + 1)`-bit sum (the extra bit is the carry-out), exactly like the
//! EvoApproxLib behavioural C models. Families implemented:
//!
//! * [`precise`] — exact ripple-carry reference;
//! * [`loa`] — Lower-part OR Adder: the `k` least-significant result bits are
//!   the bitwise OR of the operands, the upper part is added exactly with a
//!   carry-in speculated from the top approximate bit pair;
//! * [`trunc`] — lower-part truncation: the `k` least-significant result bits
//!   are forced to zero and no carry enters the exact upper part;
//! * [`set_one`] — lower-part constant-one: the `k` least-significant result
//!   bits are forced to one (an unbiased variant of truncation);
//! * [`carry_cut`] — speculative carry adder: one cut at bit `cut`, with the
//!   carry into the upper part speculated from a `window`-bit look-back
//!   segment instead of the full carry chain;
//! * [`pass_b`] — approximate-mirror-adder-style cell (`sum = b`,
//!   `carry = a`) applied to the `k` least-significant positions.

mod carry_cut;
mod loa;
mod pass_b;
mod trunc;

pub use carry_cut::carry_cut;
pub use loa::loa;
pub use pass_b::pass_b;
pub use trunc::{set_mid, set_one, trunc};

use crate::width::BitWidth;
use std::fmt;

/// Exact addition: the reference against which every family is measured.
///
/// ```
/// assert_eq!(ax_operators::adders::precise(250, 10, ax_operators::BitWidth::W8), 260);
/// ```
#[inline]
pub fn precise(a: u64, b: u64, width: BitWidth) -> u64 {
    debug_assert!(width.contains(a) && width.contains(b));
    a + b
}

/// The circuit family and parameters of an approximate adder.
///
/// `AdderKind` is a plain data description; [`AdderModel`] pairs it with a
/// width and evaluates it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdderKind {
    /// Exact ripple-carry adder.
    Precise,
    /// Lower-part OR adder with `approx_bits` approximate low bits.
    Loa {
        /// Number of least-significant bits computed as `a | b`.
        approx_bits: u32,
    },
    /// Low `cut_bits` result bits forced to zero.
    Trunc {
        /// Number of least-significant result bits forced to `0`.
        cut_bits: u32,
    },
    /// Low `cut_bits` result bits forced to one.
    SetOne {
        /// Number of least-significant result bits forced to `1`.
        cut_bits: u32,
    },
    /// Low `cut_bits` result bits forced to the midpoint `2^(cut_bits-1)`
    /// (zero-mean truncation error).
    SetMid {
        /// Number of least-significant result bits forced to the midpoint.
        cut_bits: u32,
    },
    /// Speculative-carry adder: carry into bit `cut` is predicted from the
    /// `window` bits directly below the cut.
    CarryCut {
        /// Bit position of the single carry-chain cut.
        cut: u32,
        /// Look-back window used to speculate the carry crossing the cut.
        window: u32,
    },
    /// Approximate mirror-adder style cell (`sum = b`, `carry = a`) in the
    /// `approx_bits` low positions.
    PassB {
        /// Number of least-significant positions using the approximate cell.
        approx_bits: u32,
    },
}

impl fmt::Display for AdderKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdderKind::Precise => write!(f, "precise"),
            AdderKind::Loa { approx_bits } => write!(f, "loa(k={approx_bits})"),
            AdderKind::Trunc { cut_bits } => write!(f, "trunc(k={cut_bits})"),
            AdderKind::SetOne { cut_bits } => write!(f, "set1(k={cut_bits})"),
            AdderKind::SetMid { cut_bits } => write!(f, "setmid(k={cut_bits})"),
            AdderKind::CarryCut { cut, window } => write!(f, "carrycut(cut={cut},w={window})"),
            AdderKind::PassB { approx_bits } => write!(f, "passb(k={approx_bits})"),
        }
    }
}

/// A concrete approximate adder: a family configuration bound to a bit width.
///
/// ```
/// use ax_operators::{AdderKind, AdderModel, BitWidth};
///
/// let adder = AdderModel::new(AdderKind::Loa { approx_bits: 4 }, BitWidth::W8);
/// let sum = adder.add(0b1010_1111, 0b0101_0101);
/// assert!(sum <= 0x1FF);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AdderModel {
    kind: AdderKind,
    width: BitWidth,
}

impl AdderModel {
    /// Binds an adder family configuration to an operand width.
    ///
    /// # Panics
    ///
    /// Panics if the configuration references bit positions outside the
    /// width (e.g. an 8-bit LOA with 9 approximate bits).
    pub fn new(kind: AdderKind, width: BitWidth) -> Self {
        let bits = width.bits();
        let valid = match kind {
            AdderKind::Precise => true,
            AdderKind::Loa { approx_bits } | AdderKind::PassB { approx_bits } => {
                approx_bits >= 1 && approx_bits <= bits
            }
            AdderKind::Trunc { cut_bits }
            | AdderKind::SetOne { cut_bits }
            | AdderKind::SetMid { cut_bits } => cut_bits >= 1 && cut_bits <= bits,
            AdderKind::CarryCut { cut, window } => {
                cut >= 1 && cut < bits && window >= 1 && window <= cut
            }
        };
        assert!(valid, "adder configuration {kind} is invalid for {width}");
        Self { kind, width }
    }

    /// Convenience constructor for the exact adder at `width`.
    pub fn precise(width: BitWidth) -> Self {
        Self::new(AdderKind::Precise, width)
    }

    /// The family configuration.
    #[inline]
    pub fn kind(&self) -> AdderKind {
        self.kind
    }

    /// The operand width.
    #[inline]
    pub fn width(&self) -> BitWidth {
        self.width
    }

    /// `true` if this model never deviates from the exact sum.
    #[inline]
    pub fn is_exact(&self) -> bool {
        matches!(self.kind, AdderKind::Precise)
    }

    /// Adds two `width`-bit operands, returning the `(width + 1)`-bit
    /// approximate sum.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if an operand does not fit the width.
    #[inline]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        debug_assert!(
            self.width.contains(a) && self.width.contains(b),
            "operands ({a}, {b}) exceed {}",
            self.width
        );
        let w = self.width;
        match self.kind {
            AdderKind::Precise => precise(a, b, w),
            AdderKind::Loa { approx_bits } => loa(a, b, w, approx_bits),
            AdderKind::Trunc { cut_bits } => trunc(a, b, w, cut_bits),
            AdderKind::SetOne { cut_bits } => set_one(a, b, w, cut_bits),
            AdderKind::SetMid { cut_bits } => set_mid(a, b, w, cut_bits),
            AdderKind::CarryCut { cut, window } => carry_cut(a, b, w, cut, window),
            AdderKind::PassB { approx_bits } => pass_b(a, b, w, approx_bits),
        }
    }
}

impl fmt::Display for AdderModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.width, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds_w8() -> Vec<AdderKind> {
        vec![
            AdderKind::Precise,
            AdderKind::Loa { approx_bits: 3 },
            AdderKind::Trunc { cut_bits: 3 },
            AdderKind::SetOne { cut_bits: 3 },
            AdderKind::SetMid { cut_bits: 3 },
            AdderKind::CarryCut { cut: 4, window: 2 },
            AdderKind::PassB { approx_bits: 3 },
        ]
    }

    #[test]
    fn precise_matches_native_addition() {
        let m = AdderModel::precise(BitWidth::W8);
        for a in (0..=255u64).step_by(7) {
            for b in (0..=255u64).step_by(11) {
                assert_eq!(m.add(a, b), a + b);
            }
        }
    }

    #[test]
    fn every_family_stays_within_output_width() {
        for kind in all_kinds_w8() {
            let m = AdderModel::new(kind, BitWidth::W8);
            for a in (0..=255u64).step_by(3) {
                for b in (0..=255u64).step_by(5) {
                    let s = m.add(a, b);
                    assert!(s <= 0x1FF, "{m} produced {s} for ({a}, {b})");
                }
            }
        }
    }

    #[test]
    fn zero_plus_zero_is_small_for_all_families() {
        // Families may bias 0+0 away from 0 (e.g. set-one), but the result
        // must stay within the approximate low part.
        for kind in all_kinds_w8() {
            let m = AdderModel::new(kind, BitWidth::W8);
            assert!(m.add(0, 0) <= 0xFF, "{m}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn loa_rejects_zero_approx_bits() {
        AdderModel::new(AdderKind::Loa { approx_bits: 0 }, BitWidth::W8);
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn loa_rejects_too_many_bits() {
        AdderModel::new(AdderKind::Loa { approx_bits: 9 }, BitWidth::W8);
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn carry_cut_rejects_window_beyond_cut() {
        AdderModel::new(AdderKind::CarryCut { cut: 3, window: 4 }, BitWidth::W8);
    }

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(
            AdderModel::new(AdderKind::Loa { approx_bits: 2 }, BitWidth::W16).to_string(),
            "16-bit loa(k=2)"
        );
        assert_eq!(
            AdderModel::precise(BitWidth::W8).to_string(),
            "8-bit precise"
        );
    }

    #[test]
    fn wider_widths_accept_wide_operands() {
        let m = AdderModel::new(AdderKind::Loa { approx_bits: 2 }, BitWidth::W32);
        let s = m.add(u32::MAX as u64, u32::MAX as u64);
        assert!(s < (1 << 33));
    }
}
