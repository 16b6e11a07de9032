//! Operand bit widths supported by the operator models.

use std::fmt;

/// Bit width of an operator's operands.
///
/// The paper's operator database (EvoApproxLib) provides 8- and 16-bit adders
/// and 8- and 32-bit multipliers; [`BitWidth`] enumerates exactly those plus
/// nothing else, so a mismatching operator/benchmark pairing is unrepresentable
/// at the type level where possible and cheaply checkable otherwise.
///
/// ```
/// use ax_operators::BitWidth;
/// assert_eq!(BitWidth::W8.bits(), 8);
/// assert_eq!(BitWidth::W16.mask(), 0xFFFF);
/// assert_eq!(BitWidth::W32.max_value(), u32::MAX as u64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BitWidth {
    /// 8-bit operands.
    W8,
    /// 16-bit operands.
    W16,
    /// 32-bit operands.
    W32,
}

impl BitWidth {
    /// Number of bits of an operand at this width.
    #[inline]
    pub const fn bits(self) -> u32 {
        match self {
            BitWidth::W8 => 8,
            BitWidth::W16 => 16,
            BitWidth::W32 => 32,
        }
    }

    /// Bit mask selecting exactly the operand bits (`2^bits - 1`).
    #[inline]
    pub const fn mask(self) -> u64 {
        match self {
            BitWidth::W8 => 0xFF,
            BitWidth::W16 => 0xFFFF,
            BitWidth::W32 => 0xFFFF_FFFF,
        }
    }

    /// Largest representable operand value.
    pub const fn max_value(self) -> u64 {
        self.mask()
    }

    /// `true` if `value` fits in this width.
    #[inline]
    pub const fn contains(self, value: u64) -> bool {
        value <= self.mask()
    }

    /// All supported widths, narrowest first.
    pub const ALL: [BitWidth; 3] = [BitWidth::W8, BitWidth::W16, BitWidth::W32];
}

impl fmt::Display for BitWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-bit", self.bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_and_masks_agree() {
        for w in BitWidth::ALL {
            assert_eq!(w.mask(), (1u64 << w.bits()) - 1);
            assert_eq!(w.max_value(), w.mask());
        }
    }

    #[test]
    fn contains_boundaries() {
        assert!(BitWidth::W8.contains(0));
        assert!(BitWidth::W8.contains(255));
        assert!(!BitWidth::W8.contains(256));
        assert!(BitWidth::W16.contains(65_535));
        assert!(!BitWidth::W16.contains(65_536));
        assert!(BitWidth::W32.contains(u32::MAX as u64));
        assert!(!BitWidth::W32.contains(u32::MAX as u64 + 1));
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(BitWidth::W8.to_string(), "8-bit");
        assert_eq!(BitWidth::W32.to_string(), "32-bit");
    }

    #[test]
    fn ordering_is_by_width() {
        assert!(BitWidth::W8 < BitWidth::W16);
        assert!(BitWidth::W16 < BitWidth::W32);
    }
}
