//! Per-run cost accounting.
//!
//! The paper evaluates configurations on pre-characterised operators: the
//! power and computation time of a run are the sums of the per-operation
//! constants of whichever operator executed each addition and multiplication
//! (Δpower and Δtime in Equation 1 are then differences of these sums
//! against the all-precise run). Because every instruction of a design
//! executes either the bound approximate operator or the width class's
//! precise one, those sums are fully determined by **four counts** — the
//! interpreter only tallies counts ([`CostMeter`]) and the totals are
//! computed analytically at the end ([`ArithProfile::from_counts`]). The
//! compiled engine ([`crate::compile`]) derives the same counts statically
//! at specialisation time and calls the same helper, which is what makes
//! the two engines' profiles bit-identical: one formula, one term order.

/// Power/time constants of one operator, captured from its spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCost {
    /// Power per operation, milliwatts.
    pub power_mw: f64,
    /// Latency per operation, nanoseconds.
    pub time_ns: f64,
}

/// Aggregated arithmetic activity and cost of one program execution.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ArithProfile {
    /// Additions executed in total.
    pub adds_total: u64,
    /// Additions routed through the approximate adder.
    pub adds_approx: u64,
    /// Multiplications executed in total.
    pub muls_total: u64,
    /// Multiplications routed through the approximate multiplier.
    pub muls_approx: u64,
    /// Σ power over all executed additions and multiplications (mW units,
    /// matching the paper's accounting).
    pub power_mw: f64,
    /// Σ computation time over all executed additions and multiplications
    /// (ns).
    pub time_ns: f64,
}

impl ArithProfile {
    /// Builds the profile analytically from operation counts and the
    /// per-operator constants (`[precise, approximate]` cost pairs, as
    /// precomputed by [`crate::exec::Binding`]).
    ///
    /// This is the **single** place power/time totals are computed: the
    /// interpreter's [`CostMeter::finish`] and the compiled engine's static
    /// profile both funnel through it, so the two execution paths agree to
    /// the last bit regardless of instruction order.
    pub fn from_counts(
        counts: ArithCounts,
        add_costs: &[OpCost; 2],
        mul_costs: &[OpCost; 2],
    ) -> Self {
        let ArithCounts {
            adds_total,
            adds_approx,
            muls_total,
            muls_approx,
        } = counts;
        debug_assert!(adds_approx <= adds_total && muls_approx <= muls_total);
        let adds_precise = (adds_total - adds_approx) as f64;
        let muls_precise = (muls_total - muls_approx) as f64;
        // Fixed term order — never reorder: bit-identical profiles across
        // engines depend on it.
        let power_mw = adds_precise * add_costs[0].power_mw
            + adds_approx as f64 * add_costs[1].power_mw
            + muls_precise * mul_costs[0].power_mw
            + muls_approx as f64 * mul_costs[1].power_mw;
        let time_ns = adds_precise * add_costs[0].time_ns
            + adds_approx as f64 * add_costs[1].time_ns
            + muls_precise * mul_costs[0].time_ns
            + muls_approx as f64 * mul_costs[1].time_ns;
        Self {
            adds_total,
            adds_approx,
            muls_total,
            muls_approx,
            power_mw,
            time_ns,
        }
    }

    /// Fraction of arithmetic operations that executed approximately.
    pub fn approx_fraction(&self) -> f64 {
        let total = self.adds_total + self.muls_total;
        if total == 0 {
            0.0
        } else {
            (self.adds_approx + self.muls_approx) as f64 / total as f64
        }
    }
}

/// The four operation counts a run's cost totals are derived from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArithCounts {
    /// Additions executed in total.
    pub adds_total: u64,
    /// Additions routed through the approximate adder.
    pub adds_approx: u64,
    /// Multiplications executed in total.
    pub muls_total: u64,
    /// Multiplications routed through the approximate multiplier.
    pub muls_approx: u64,
}

/// Tallies operation counts during interpretation.
///
/// The meter records *which* operator class executed, not its constants —
/// the hot loop touches two integers per instruction and the f64 totals
/// are produced once at [`CostMeter::finish`] from the binding's
/// precomputed cost pairs.
#[derive(Debug, Clone, Default)]
pub struct CostMeter {
    counts: ArithCounts,
}

impl CostMeter {
    /// A fresh meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one addition (approximate or precise).
    #[inline]
    pub fn record_add(&mut self, approximate: bool) {
        self.counts.adds_total += 1;
        self.counts.adds_approx += approximate as u64;
    }

    /// Records one multiplication (approximate or precise).
    #[inline]
    pub fn record_mul(&mut self, approximate: bool) {
        self.counts.muls_total += 1;
        self.counts.muls_approx += approximate as u64;
    }

    /// The accumulated counts.
    pub fn counts(&self) -> ArithCounts {
        self.counts
    }

    /// Computes the profile from the tallied counts and the operator
    /// constants (see [`ArithProfile::from_counts`]).
    pub fn finish(self, add_costs: &[OpCost; 2], mul_costs: &[OpCost; 2]) -> ArithProfile {
        ArithProfile::from_counts(self.counts, add_costs, mul_costs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ADD_P: OpCost = OpCost {
        power_mw: 0.033,
        time_ns: 0.63,
    };
    const ADD_A: OpCost = OpCost {
        power_mw: 0.012,
        time_ns: 0.41,
    };
    const MUL_P: OpCost = OpCost {
        power_mw: 0.391,
        time_ns: 1.43,
    };
    const MUL_A: OpCost = OpCost {
        power_mw: 0.2,
        time_ns: 0.9,
    };

    #[test]
    fn meter_accumulates_counts_and_sums() {
        let mut m = CostMeter::new();
        m.record_add(false);
        m.record_add(true);
        m.record_mul(true);
        let p = m.finish(&[ADD_P, ADD_A], &[MUL_P, MUL_A]);
        assert_eq!(p.adds_total, 2);
        assert_eq!(p.adds_approx, 1);
        assert_eq!(p.muls_total, 1);
        assert_eq!(p.muls_approx, 1);
        assert!((p.power_mw - (0.033 + 0.012 + 0.2)).abs() < 1e-12);
        assert!((p.time_ns - (0.63 + 0.41 + 0.9)).abs() < 1e-12);
    }

    #[test]
    fn meter_and_from_counts_agree_exactly() {
        let mut m = CostMeter::new();
        for i in 0..17 {
            m.record_add(i % 3 == 0);
            if i % 2 == 0 {
                m.record_mul(i % 4 == 0);
            }
        }
        let counts = m.counts();
        let a = m.finish(&[ADD_P, ADD_A], &[MUL_P, MUL_A]);
        let b = ArithProfile::from_counts(counts, &[ADD_P, ADD_A], &[MUL_P, MUL_A]);
        assert_eq!(a, b, "one formula, one term order");
    }

    #[test]
    fn approx_fraction() {
        let mut m = CostMeter::new();
        for i in 0..4 {
            m.record_add(i % 2 == 0);
        }
        assert_eq!(
            m.finish(&[ADD_P, ADD_A], &[MUL_P, MUL_A]).approx_fraction(),
            0.5
        );
        assert_eq!(ArithProfile::default().approx_fraction(), 0.0);
    }
}
