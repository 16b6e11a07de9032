//! Threshold calibration.
//!
//! The paper sets its thresholds after executing the precise version: "the
//! power and computation time thresholds were set to 50% of their value for
//! the precise version. Also, the precise outputs were averaged, and the
//! accuracy threshold was set as 0.4 times the average output."
//! [`ThresholdRule`] captures those fractions (sweepable for the threshold
//! ablation) and [`ThresholdRule::calibrate`] produces the absolute
//! [`Thresholds`] from a benchmark's precise run.

use crate::backend::EvalBackend;

/// Absolute thresholds used by the reward function (Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// Tolerable accuracy loss `acc_th` (MAE units).
    pub acc_th: f64,
    /// Minimum power reduction `p_th` (mW units).
    pub power_th: f64,
    /// Minimum computation-time reduction `t_th` (ns).
    pub time_th: f64,
}

/// Relative threshold rule, calibrated against the precise run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdRule {
    /// Required power saving as a fraction of precise power (paper: 0.5).
    pub power_frac: f64,
    /// Required time saving as a fraction of precise time (paper: 0.5).
    pub time_frac: f64,
    /// Tolerable MAE as a fraction of the mean |precise output| (paper: 0.4).
    pub acc_frac: f64,
}

impl Default for ThresholdRule {
    fn default() -> Self {
        Self {
            power_frac: 0.5,
            time_frac: 0.5,
            acc_frac: 0.4,
        }
    }
}

impl ThresholdRule {
    /// A rule with the paper's fractions (0.5 / 0.5 / 0.4).
    pub fn paper() -> Self {
        Self::default()
    }

    /// Calibrates absolute thresholds from the benchmark's precise run, as
    /// exposed by any evaluation backend.
    ///
    /// # Panics
    ///
    /// Panics if any fraction is negative.
    pub fn calibrate<B: EvalBackend + ?Sized>(&self, evaluator: &B) -> Thresholds {
        for (label, v) in [
            ("power_frac", self.power_frac),
            ("time_frac", self.time_frac),
            ("acc_frac", self.acc_frac),
        ] {
            assert!(v >= 0.0, "{label} must be non-negative, got {v}");
        }
        Thresholds {
            acc_th: self.acc_frac * evaluator.mean_abs_output(),
            power_th: self.power_frac * evaluator.precise_power(),
            time_th: self.time_frac * evaluator.precise_time(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Evaluator;
    use ax_operators::OperatorLibrary;
    use ax_workloads::matmul::MatMul;

    fn evaluator() -> Evaluator {
        Evaluator::new(&MatMul::new(4), &OperatorLibrary::evoapprox(), 5).unwrap()
    }

    #[test]
    fn paper_rule_fractions() {
        let r = ThresholdRule::paper();
        assert_eq!(r.power_frac, 0.5);
        assert_eq!(r.time_frac, 0.5);
        assert_eq!(r.acc_frac, 0.4);
    }

    #[test]
    fn calibrate_scales_precise_quantities() {
        let ev = evaluator();
        let th = ThresholdRule::paper().calibrate(&ev);
        assert!((th.power_th - 0.5 * ev.precise_power()).abs() < 1e-12);
        assert!((th.time_th - 0.5 * ev.precise_time()).abs() < 1e-12);
        assert!((th.acc_th - 0.4 * ev.mean_abs_output()).abs() < 1e-12);
        assert!(th.acc_th > 0.0 && th.power_th > 0.0 && th.time_th > 0.0);
    }

    #[test]
    fn stricter_rule_gives_tighter_thresholds() {
        let ev = evaluator();
        let relaxed = ThresholdRule {
            power_frac: 0.25,
            time_frac: 0.25,
            acc_frac: 0.8,
        };
        let strict = ThresholdRule {
            power_frac: 0.75,
            time_frac: 0.75,
            acc_frac: 0.2,
        };
        let tr = relaxed.calibrate(&ev);
        let ts = strict.calibrate(&ev);
        assert!(ts.power_th > tr.power_th);
        assert!(ts.time_th > tr.time_th);
        assert!(ts.acc_th < tr.acc_th);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_fraction_rejected() {
        let ev = evaluator();
        ThresholdRule {
            power_frac: -0.1,
            time_frac: 0.5,
            acc_frac: 0.4,
        }
        .calibrate(&ev);
    }
}
