//! Hyper-parameter schedules.
//!
//! Exploration rates and learning rates are functions of the global step;
//! [`Schedule`] covers the three shapes used by the experiments (constant,
//! linear decay, exponential decay).

/// A scalar hyper-parameter as a function of the training step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Schedule {
    /// The same value at every step.
    Constant(f64),
    /// Linear interpolation from `start` to `end` over `steps` steps,
    /// clamped at `end` afterwards.
    Linear {
        /// Value at step 0.
        start: f64,
        /// Value from step `steps` on.
        end: f64,
        /// Decay horizon in steps (must be ≥ 1).
        steps: u64,
    },
    /// Exponential decay `end + (start - end) · decay^step`.
    Exponential {
        /// Value at step 0.
        start: f64,
        /// Asymptotic value.
        end: f64,
        /// Per-step decay factor in `(0, 1)`.
        decay: f64,
    },
}

impl Schedule {
    /// The schedule's value at `step`.
    ///
    /// # Panics
    ///
    /// Panics on malformed schedules (zero-length linear horizon, decay
    /// outside `(0, 1)`).
    pub fn value(&self, step: u64) -> f64 {
        match *self {
            Schedule::Constant(v) => v,
            Schedule::Linear { start, end, steps } => {
                assert!(steps >= 1, "linear schedule needs a positive horizon");
                if step >= steps {
                    end
                } else {
                    let t = step as f64 / steps as f64;
                    start + (end - start) * t
                }
            }
            Schedule::Exponential { start, end, decay } => {
                assert!(decay > 0.0 && decay < 1.0, "decay must lie in (0, 1)");
                end + (start - end) * decay.powi(step.min(i32::MAX as u64) as i32)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_flat() {
        let s = Schedule::Constant(0.3);
        assert_eq!(s.value(0), 0.3);
        assert_eq!(s.value(1_000_000), 0.3);
    }

    #[test]
    fn linear_interpolates_and_clamps() {
        let s = Schedule::Linear {
            start: 1.0,
            end: 0.0,
            steps: 10,
        };
        assert_eq!(s.value(0), 1.0);
        assert!((s.value(5) - 0.5).abs() < 1e-12);
        assert_eq!(s.value(10), 0.0);
        assert_eq!(s.value(99), 0.0);
    }

    #[test]
    fn linear_can_increase() {
        let s = Schedule::Linear {
            start: 0.1,
            end: 0.9,
            steps: 8,
        };
        assert!(s.value(4) > s.value(0));
        assert_eq!(s.value(8), 0.9);
    }

    #[test]
    fn exponential_decays_towards_end() {
        let s = Schedule::Exponential {
            start: 1.0,
            end: 0.1,
            decay: 0.9,
        };
        assert_eq!(s.value(0), 1.0);
        assert!(s.value(10) < s.value(5));
        assert!(s.value(10_000) - 0.1 < 1e-9);
        assert!(s.value(10_000) >= 0.1);
    }

    #[test]
    fn exponential_is_monotone() {
        let s = Schedule::Exponential {
            start: 0.5,
            end: 0.01,
            decay: 0.99,
        };
        let mut prev = f64::INFINITY;
        for step in (0..1000).step_by(50) {
            let v = s.value(step);
            assert!(v <= prev);
            prev = v;
        }
    }

    #[test]
    #[should_panic(expected = "positive horizon")]
    fn linear_zero_horizon_rejected() {
        Schedule::Linear {
            start: 1.0,
            end: 0.0,
            steps: 0,
        }
        .value(1);
    }

    #[test]
    #[should_panic(expected = "decay")]
    fn exponential_bad_decay_rejected() {
        Schedule::Exponential {
            start: 1.0,
            end: 0.0,
            decay: 1.5,
        }
        .value(1);
    }
}
