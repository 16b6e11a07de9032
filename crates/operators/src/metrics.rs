//! Streaming error statistics for operator characterisation.
//!
//! The approximate-computing literature reports circuit quality through a
//! family of error metrics; this module computes all of them in one pass:
//!
//! * **MAE** — mean absolute error, `mean(|approx - exact|)`;
//! * **MSE** — mean squared error;
//! * **MRED** — mean relative error distance, `mean(|approx - exact| /
//!   max(1, exact))` (the EvoApproxLib headline metric, reported in the
//!   paper's Tables I and II as a percentage);
//! * **ER** — error rate, the fraction of inputs producing any error;
//! * **WCE** — worst-case absolute error;
//! * **WCRE** — worst-case relative error distance.

/// One-pass accumulator for operator error statistics.
///
/// Feed it `(exact, approx)` pairs with [`ErrorStats::record`] and read the
/// aggregate metrics at any point.
///
/// ```
/// use ax_operators::ErrorStats;
///
/// let mut stats = ErrorStats::new();
/// stats.record(100, 90);
/// stats.record(50, 50);
/// assert_eq!(stats.samples(), 2);
/// assert_eq!(stats.mae(), 5.0);
/// assert_eq!(stats.error_rate(), 0.5);
/// assert_eq!(stats.wce(), 10);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ErrorStats {
    samples: u64,
    errors: u64,
    sum_abs: f64,
    sum_sq: f64,
    sum_red: f64,
    wce: u64,
    wcre: f64,
}

impl ErrorStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one `(exact, approx)` output pair.
    pub fn record(&mut self, exact: u64, approx: u64) {
        let diff = exact.abs_diff(approx);
        self.samples += 1;
        if diff != 0 {
            self.errors += 1;
        }
        let diff_f = diff as f64;
        self.sum_abs += diff_f;
        self.sum_sq += diff_f * diff_f;
        let red = diff_f / (exact.max(1) as f64);
        self.sum_red += red;
        self.wce = self.wce.max(diff);
        if red > self.wcre {
            self.wcre = red;
        }
    }

    /// Merges another accumulator into this one.
    ///
    /// Useful when characterisation is sharded across threads.
    pub fn merge(&mut self, other: &ErrorStats) {
        self.samples += other.samples;
        self.errors += other.errors;
        self.sum_abs += other.sum_abs;
        self.sum_sq += other.sum_sq;
        self.sum_red += other.sum_red;
        self.wce = self.wce.max(other.wce);
        if other.wcre > self.wcre {
            self.wcre = other.wcre;
        }
    }

    /// Number of recorded samples.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Mean absolute error. Zero when no samples were recorded.
    pub fn mae(&self) -> f64 {
        self.ratio(self.sum_abs)
    }

    /// Mean squared error. Zero when no samples were recorded.
    pub fn mse(&self) -> f64 {
        self.ratio(self.sum_sq)
    }

    /// Mean relative error distance as a fraction (multiply by 100 for `%`).
    pub fn mred(&self) -> f64 {
        self.ratio(self.sum_red)
    }

    /// Mean relative error distance as a percentage, matching the unit of the
    /// paper's Tables I and II.
    pub fn mred_pct(&self) -> f64 {
        self.mred() * 100.0
    }

    /// Fraction of inputs that produced a wrong output.
    pub fn error_rate(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.errors as f64 / self.samples as f64
        }
    }

    /// Worst-case absolute error.
    pub fn wce(&self) -> u64 {
        self.wce
    }

    /// Worst-case relative error distance (fraction).
    pub fn wcre(&self) -> f64 {
        self.wcre
    }

    fn ratio(&self, sum: f64) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            sum / self.samples as f64
        }
    }
}

/// Mean absolute error between two equally long output vectors.
///
/// This is the standard (absolute-valued) reading of the paper's Equation 2.
/// See [`signed_mean_error`] for the literal formula printed in the paper.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
///
/// ```
/// let exact = [10.0, 20.0];
/// let approx = [8.0, 23.0];
/// assert_eq!(ax_operators::metrics::mae(&exact, &approx), 2.5);
/// ```
pub fn mae(exact: &[f64], approx: &[f64]) -> f64 {
    assert_eq!(
        exact.len(),
        approx.len(),
        "output vectors must match in length"
    );
    assert!(!exact.is_empty(), "output vectors must be non-empty");
    let sum: f64 = exact.iter().zip(approx).map(|(e, a)| (e - a).abs()).sum();
    sum / exact.len() as f64
}

/// Literal Equation 2 of the paper: `(1/N) Σ (exact_i - approx_i)` — note the
/// missing absolute value, so positive and negative errors cancel.
///
/// The paper *calls* this MAE; we expose both so the discrepancy is explicit
/// and testable. All experiment code uses [`mae`].
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn signed_mean_error(exact: &[f64], approx: &[f64]) -> f64 {
    assert_eq!(
        exact.len(),
        approx.len(),
        "output vectors must match in length"
    );
    assert!(!exact.is_empty(), "output vectors must be non-empty");
    let sum: f64 = exact.iter().zip(approx).map(|(e, a)| e - a).sum();
    sum / exact.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let stats = ErrorStats::new();
        assert_eq!(stats.samples(), 0);
        assert_eq!(stats.mae(), 0.0);
        assert_eq!(stats.mse(), 0.0);
        assert_eq!(stats.mred(), 0.0);
        assert_eq!(stats.error_rate(), 0.0);
        assert_eq!(stats.wce(), 0);
        assert_eq!(stats.wcre(), 0.0);
    }

    #[test]
    fn exact_outputs_record_no_error() {
        let mut stats = ErrorStats::new();
        for v in 0..100u64 {
            stats.record(v, v);
        }
        assert_eq!(stats.samples(), 100);
        assert_eq!(stats.error_rate(), 0.0);
        assert_eq!(stats.mae(), 0.0);
        assert_eq!(stats.wce(), 0);
    }

    #[test]
    fn single_error_statistics() {
        let mut stats = ErrorStats::new();
        stats.record(100, 92);
        assert_eq!(stats.mae(), 8.0);
        assert_eq!(stats.mse(), 64.0);
        assert!((stats.mred() - 0.08).abs() < 1e-12);
        assert!((stats.mred_pct() - 8.0).abs() < 1e-9);
        assert_eq!(stats.error_rate(), 1.0);
        assert_eq!(stats.wce(), 8);
        assert!((stats.wcre() - 0.08).abs() < 1e-12);
    }

    #[test]
    fn relative_error_guards_div_by_zero() {
        let mut stats = ErrorStats::new();
        stats.record(0, 3); // exact == 0 -> denominator clamps to 1
        assert_eq!(stats.mred(), 3.0);
    }

    #[test]
    fn approx_above_and_below_both_count() {
        let mut stats = ErrorStats::new();
        stats.record(10, 13);
        stats.record(10, 7);
        assert_eq!(stats.mae(), 3.0);
        assert_eq!(stats.error_rate(), 1.0);
    }

    #[test]
    fn merge_matches_sequential() {
        let mut a = ErrorStats::new();
        let mut b = ErrorStats::new();
        let mut whole = ErrorStats::new();
        for v in 0..50u64 {
            a.record(v + 1, v);
            whole.record(v + 1, v);
        }
        for v in 50..100u64 {
            b.record(v + 2, v);
            whole.record(v + 2, v);
        }
        a.merge(&b);
        // Float sums may differ in the last ulp depending on association
        // order; compare with a tolerance.
        assert_eq!(a.samples(), whole.samples());
        assert_eq!(a.wce(), whole.wce());
        assert_eq!(a.error_rate(), whole.error_rate());
        assert!((a.mae() - whole.mae()).abs() < 1e-12);
        assert!((a.mred() - whole.mred()).abs() < 1e-12);
        assert!((a.mse() - whole.mse()).abs() < 1e-9);
    }

    #[test]
    fn mae_and_signed_disagree_on_cancelling_errors() {
        let exact = [10.0, 10.0];
        let approx = [8.0, 12.0];
        assert_eq!(mae(&exact, &approx), 2.0);
        assert_eq!(signed_mean_error(&exact, &approx), 0.0);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn mae_rejects_mismatched_lengths() {
        mae(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn mae_rejects_empty() {
        mae(&[], &[]);
    }
}
