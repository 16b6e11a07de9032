//! Approximate multiplier families.
//!
//! Every model multiplies two `width`-bit unsigned operands and returns the
//! full `2·width`-bit product, matching the EvoApproxLib behavioural C
//! models (8×8→16, 32×32→64). Families implemented:
//!
//! * [`precise`] — exact reference;
//! * [`trunc_result`] — result truncation: the `c` low product bits are
//!   zeroed (the cheapest fixed-width rounding scheme);
//! * [`trunc_pp`] — partial-product-column truncation: all partial-product
//!   bits in columns below `c` are never generated (classic fixed-width
//!   truncated array multiplier);
//! * [`broken_array`] — Broken-Array Multiplier: the `r` least-significant
//!   partial-product rows are omitted entirely (Mahdiani et al., 2010);
//! * [`mitchell`] — Mitchell's logarithmic multiplier (1962): operands are
//!   converted to `log2` approximations, added, and converted back;
//! * [`log_iter`] — iterative logarithmic multiplier (Babić et al., 2011):
//!   Mitchell plus `n` residual-correction terms;
//! * [`drum`] — Dynamic Range Unbiased Multiplier (Hashemi et al., ICCAD
//!   2015): a `k`-bit window anchored at each operand's leading one is
//!   multiplied exactly, with LSB-set unbiasing;
//! * [`po2_floor`] / [`po2_nearest`] / [`po2_compensated`] — power-of-two
//!   multipliers: each operand is rounded to a power of two and the
//!   multiplication collapses to a shift — the extreme low-power /
//!   high-error design points.

mod broken_array;
mod drum;
mod log;
mod po2;
mod trunc;

pub use broken_array::broken_array;
pub use drum::drum;
pub use log::{log_iter, mitchell};
pub use po2::{po2_compensated, po2_floor, po2_nearest};
pub use trunc::{trunc_pp, trunc_result};

use crate::width::BitWidth;
use std::fmt;

/// Exact multiplication: the reference for all families.
///
/// ```
/// assert_eq!(ax_operators::multipliers::precise(200, 200, ax_operators::BitWidth::W8), 40_000);
/// ```
#[inline]
pub fn precise(a: u64, b: u64, width: BitWidth) -> u64 {
    debug_assert!(width.contains(a) && width.contains(b));
    a.wrapping_mul(b)
}

/// Rounding mode for the power-of-two multiplier family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Po2Mode {
    /// Round each operand down to `2^floor(log2 x)`.
    Floor,
    /// Round each operand to the nearest power of two.
    Nearest,
    /// Round both operands down and decode the mantissa product as `1.5`
    /// (half-LSB compensation; near zero-mean error).
    Compensated,
}

/// The circuit family and parameters of an approximate multiplier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MulKind {
    /// Exact multiplier.
    Precise,
    /// Zero the `cut_bits` low bits of the exact product.
    TruncResult {
        /// Number of least-significant product bits forced to zero.
        cut_bits: u32,
    },
    /// Drop all partial-product bits in columns below `cut_columns`.
    TruncPp {
        /// First column whose partial products are kept.
        cut_columns: u32,
    },
    /// Omit the `rows` least-significant partial-product rows.
    BrokenArray {
        /// Number of omitted low rows (multiplier operand bits).
        rows: u32,
    },
    /// Mitchell's logarithmic multiplier.
    Mitchell,
    /// Iterative logarithmic multiplier with `iterations` correction terms.
    LogIter {
        /// Number of residual-correction iterations (≥ 1).
        iterations: u32,
    },
    /// DRUM with a `k`-bit significant window.
    Drum {
        /// Window width in bits (≥ 2).
        k: u32,
    },
    /// Power-of-two operand rounding.
    Po2(Po2Mode),
}

impl fmt::Display for MulKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MulKind::Precise => write!(f, "precise"),
            MulKind::TruncResult { cut_bits } => write!(f, "truncres(c={cut_bits})"),
            MulKind::TruncPp { cut_columns } => write!(f, "truncpp(c={cut_columns})"),
            MulKind::BrokenArray { rows } => write!(f, "bam(r={rows})"),
            MulKind::Mitchell => write!(f, "mitchell"),
            MulKind::LogIter { iterations } => write!(f, "logiter(n={iterations})"),
            MulKind::Drum { k } => write!(f, "drum(k={k})"),
            MulKind::Po2(Po2Mode::Floor) => write!(f, "po2(floor)"),
            MulKind::Po2(Po2Mode::Nearest) => write!(f, "po2(nearest)"),
            MulKind::Po2(Po2Mode::Compensated) => write!(f, "po2(comp)"),
        }
    }
}

/// A concrete approximate multiplier: a family configuration bound to a width.
///
/// ```
/// use ax_operators::{BitWidth, MulKind, MulModel};
///
/// let m = MulModel::new(MulKind::Drum { k: 4 }, BitWidth::W8);
/// let p = m.mul(200, 200);
/// // DRUM keeps the top-4 significant bits of each operand: small rel. error.
/// assert!((p as f64 - 40_000.0).abs() / 40_000.0 < 0.2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MulModel {
    kind: MulKind,
    width: BitWidth,
}

impl MulModel {
    /// Binds a multiplier family configuration to an operand width.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent with the width (e.g.
    /// truncating more columns than the product has).
    pub fn new(kind: MulKind, width: BitWidth) -> Self {
        let bits = width.bits();
        let valid = match kind {
            MulKind::Precise | MulKind::Mitchell | MulKind::Po2(_) => true,
            MulKind::TruncResult { cut_bits }
            | MulKind::TruncPp {
                cut_columns: cut_bits,
            } => cut_bits >= 1 && cut_bits < 2 * bits,
            MulKind::BrokenArray { rows } => rows >= 1 && rows < bits,
            MulKind::LogIter { iterations } => (1..=8).contains(&iterations),
            MulKind::Drum { k } => k >= 2 && k < bits,
        };
        assert!(
            valid,
            "multiplier configuration {kind} is invalid for {width}"
        );
        Self { kind, width }
    }

    /// Convenience constructor for the exact multiplier at `width`.
    pub fn precise(width: BitWidth) -> Self {
        Self::new(MulKind::Precise, width)
    }

    /// The family configuration.
    #[inline]
    pub fn kind(&self) -> MulKind {
        self.kind
    }

    /// The operand width.
    #[inline]
    pub fn width(&self) -> BitWidth {
        self.width
    }

    /// `true` if this model never deviates from the exact product.
    #[inline]
    pub fn is_exact(&self) -> bool {
        matches!(self.kind, MulKind::Precise)
    }

    /// Multiplies two `width`-bit operands, returning the `2·width`-bit
    /// approximate product.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if an operand does not fit the width.
    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(
            self.width.contains(a) && self.width.contains(b),
            "operands ({a}, {b}) exceed {}",
            self.width
        );
        let w = self.width;
        match self.kind {
            MulKind::Precise => precise(a, b, w),
            MulKind::TruncResult { cut_bits } => trunc_result(a, b, w, cut_bits),
            MulKind::TruncPp { cut_columns } => trunc_pp(a, b, w, cut_columns),
            MulKind::BrokenArray { rows } => broken_array(a, b, w, rows),
            MulKind::Mitchell => mitchell(a, b, w),
            MulKind::LogIter { iterations } => log_iter(a, b, w, iterations),
            MulKind::Drum { k } => drum(a, b, w, k),
            MulKind::Po2(Po2Mode::Floor) => po2_floor(a, b, w),
            MulKind::Po2(Po2Mode::Nearest) => po2_nearest(a, b, w),
            MulKind::Po2(Po2Mode::Compensated) => po2_compensated(a, b, w),
        }
    }
}

impl fmt::Display for MulModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.width, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds_w8() -> Vec<MulKind> {
        vec![
            MulKind::Precise,
            MulKind::TruncResult { cut_bits: 4 },
            MulKind::TruncPp { cut_columns: 4 },
            MulKind::BrokenArray { rows: 3 },
            MulKind::Mitchell,
            MulKind::LogIter { iterations: 2 },
            MulKind::Drum { k: 4 },
            MulKind::Po2(Po2Mode::Floor),
            MulKind::Po2(Po2Mode::Nearest),
            MulKind::Po2(Po2Mode::Compensated),
        ]
    }

    #[test]
    fn precise_matches_native() {
        let m = MulModel::precise(BitWidth::W8);
        for a in (0..=255u64).step_by(7) {
            for b in (0..=255u64).step_by(11) {
                assert_eq!(m.mul(a, b), a * b);
            }
        }
    }

    #[test]
    fn every_family_stays_within_product_width() {
        for kind in all_kinds_w8() {
            let m = MulModel::new(kind, BitWidth::W8);
            for a in (0..=255u64).step_by(3) {
                for b in (0..=255u64).step_by(5) {
                    let p = m.mul(a, b);
                    assert!(p <= 0xFFFF, "{m} produced {p:#x} for ({a}, {b})");
                }
            }
        }
    }

    #[test]
    fn multiply_by_zero_is_zero_for_all_families() {
        for kind in all_kinds_w8() {
            let m = MulModel::new(kind, BitWidth::W8);
            for v in [0u64, 1, 17, 255] {
                assert_eq!(m.mul(0, v), 0, "{m} 0*{v}");
                assert_eq!(m.mul(v, 0), 0, "{m} {v}*0");
            }
        }
    }

    #[test]
    fn power_of_two_operands_are_exact_for_log_families() {
        // Log-domain families have zero mantissa error on exact powers of two.
        // (DRUM is excluded: its unbiasing LSB deliberately perturbs even
        // power-of-two operands once they exceed the window.)
        for kind in [MulKind::Mitchell, MulKind::Po2(Po2Mode::Floor)] {
            let m = MulModel::new(kind, BitWidth::W8);
            for i in 0..8u32 {
                for j in 0..8u32 {
                    let (a, b) = (1u64 << i, 1u64 << j);
                    assert_eq!(m.mul(a, b), a * b, "{m} {a}*{b}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn drum_rejects_tiny_window() {
        MulModel::new(MulKind::Drum { k: 1 }, BitWidth::W8);
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn trunc_rejects_full_product_cut() {
        MulModel::new(MulKind::TruncResult { cut_bits: 16 }, BitWidth::W8);
    }

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(
            MulModel::new(MulKind::Drum { k: 6 }, BitWidth::W32).to_string(),
            "32-bit drum(k=6)"
        );
    }

    #[test]
    fn w32_families_handle_max_operands() {
        for kind in [
            MulKind::Precise,
            MulKind::Mitchell,
            MulKind::LogIter { iterations: 2 },
            MulKind::Drum { k: 6 },
            MulKind::TruncResult { cut_bits: 20 },
            MulKind::BrokenArray { rows: 10 },
        ] {
            let m = MulModel::new(kind, BitWidth::W32);
            let max = u32::MAX as u64;
            let p = m.mul(max, max);
            // Exact is max*max = 0xFFFF_FFFE_0000_0001, approximations must
            // stay within u64 (2·width bits).
            assert!(p >= 1 << 60, "{m} unexpectedly tiny: {p:#x}");
        }
    }
}
