//! Pre-characterisation metadata attached to each library operator.

use crate::width::BitWidth;
use std::fmt;
use std::sync::Arc;

/// Published characterisation record of one library operator.
///
/// These are the columns of the paper's Tables I and II: the operator's short
/// EvoApproxLib name, its mean relative error distance (in percent), its power
/// (mW) and its computation time (ns). The DSE treats them as ground-truth
/// constants exactly as the paper does — the RL loop never re-measures them.
///
/// ```
/// use ax_operators::{OperatorSpec, BitWidth};
///
/// let spec = OperatorSpec::new("00M", BitWidth::W8, 14.58, 0.0046, 0.17);
/// assert_eq!(spec.name(), "00M");
/// assert_eq!(spec.power_mw(), 0.0046);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorSpec {
    name: Arc<str>,
    width: BitWidth,
    mred_pct: f64,
    power_mw: f64,
    time_ns: f64,
}

impl OperatorSpec {
    /// Creates a characterisation record.
    ///
    /// # Panics
    ///
    /// Panics if any metric is negative or non-finite, or the name is empty.
    pub fn new(
        name: impl Into<Arc<str>>,
        width: BitWidth,
        mred_pct: f64,
        power_mw: f64,
        time_ns: f64,
    ) -> Self {
        let name: Arc<str> = name.into();
        assert!(!name.is_empty(), "operator name must be non-empty");
        for (label, v) in [("mred", mred_pct), ("power", power_mw), ("time", time_ns)] {
            assert!(
                v.is_finite() && v >= 0.0,
                "{label} must be finite and non-negative, got {v}"
            );
        }
        Self {
            name,
            width,
            mred_pct,
            power_mw,
            time_ns,
        }
    }

    /// Short operator name as used in the paper (e.g. `"00M"`, `"1JJQ"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The same name as a shared handle: cloning it copies no text, so
    /// every run that reports this operator shares one allocation.
    pub fn shared_name(&self) -> &Arc<str> {
        &self.name
    }

    /// Operand bit width.
    pub fn width(&self) -> BitWidth {
        self.width
    }

    /// Published mean relative error distance, in percent.
    pub fn mred_pct(&self) -> f64 {
        self.mred_pct
    }

    /// Published power, in milliwatts.
    pub fn power_mw(&self) -> f64 {
        self.power_mw
    }

    /// Published computation time, in nanoseconds.
    pub fn time_ns(&self) -> f64 {
        self.time_ns
    }
}

impl fmt::Display for OperatorSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} (MRED {:.2}%, {} mW, {} ns)",
            self.width, self.name, self.mred_pct, self.power_mw, self.time_ns
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_roundtrip() {
        let s = OperatorSpec::new("1HG", BitWidth::W8, 0.0, 0.033, 0.63);
        assert_eq!(s.name(), "1HG");
        assert_eq!(s.width(), BitWidth::W8);
        assert_eq!(s.mred_pct(), 0.0);
        assert_eq!(s.power_mw(), 0.033);
        assert_eq!(s.time_ns(), 0.63);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_name() {
        OperatorSpec::new("", BitWidth::W8, 0.0, 0.1, 0.1);
    }

    #[test]
    #[should_panic(expected = "power")]
    fn rejects_negative_power() {
        OperatorSpec::new("X", BitWidth::W8, 0.0, -0.1, 0.1);
    }

    #[test]
    fn display_mentions_all_fields() {
        let s = OperatorSpec::new("0SL", BitWidth::W16, 9.54, 0.011, 0.27);
        let text = s.to_string();
        assert!(text.contains("0SL") && text.contains("9.54") && text.contains("16-bit"));
    }
}
