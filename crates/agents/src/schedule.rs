//! Hyper-parameter schedules.
//!
//! Exploration rates and learning rates are functions of the global step;
//! [`Schedule`] covers the three shapes used by the experiments (constant,
//! linear decay, exponential decay). Agents evaluate theirs on every step,
//! so each agent [`prepare`](Schedule::prepare)s its schedules once when it
//! is built: a [`PreparedSchedule`] holds everything that does not depend
//! on the step.

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
    /// The schedule's value at `step`: [`PreparedSchedule::value`] of
    /// [`Schedule::prepare`].
    ///
    /// # Panics
    ///
    /// Panics on malformed schedules (zero-length linear horizon, decay
    /// outside `(0, 1)`).
    pub fn value(&self, step: u64) -> f64 {
        self.prepare().value(step)
    }

    /// The schedule prepared for evaluation at every step.
    ///
    /// # Panics
    ///
    /// Panics on malformed schedules (zero-length linear horizon, decay
    /// outside `(0, 1)`).
    pub fn prepare(&self) -> PreparedSchedule {
        let mut squares = [0.0; POWI_BITS];
        let form = match *self {
            Schedule::Constant(v) => Form::Constant(v),
            Schedule::Linear { start, end, steps } => {
                assert!(steps >= 1, "linear schedule needs a positive horizon");
                Form::Linear {
                    start,
                    end,
                    rise: end - start,
                    steps,
                    horizon: steps as f64,
                }
            }
            Schedule::Exponential { start, end, decay } => {
                assert!(decay > 0.0 && decay < 1.0, "decay must lie in (0, 1)");
                squares = squares_of(decay);
                Form::Exponential {
                    end,
                    gap: start - end,
                }
            }
        };
        PreparedSchedule { form, squares }
    }
}

/// Bits of an `i32` exponent that `f64::powi` can see set: the step is
/// clamped to `i32::MAX` first.
const POWI_BITS: usize = 31;

/// `base^(2^i)` for every bit of a clamped exponent, each the square of
/// the one before.
fn squares_of(base: f64) -> [f64; POWI_BITS] {
    let mut squares = [base; POWI_BITS];
    for i in 1..POWI_BITS {
        squares[i] = squares[i - 1] * squares[i - 1];
    }
    squares
}

/// The product of `squares` over the set bits of `min(exp, i32::MAX)`, in
/// increasing order and starting from 1: `f64::powi`'s square-and-multiply
/// sequence, so the result equals `base.powi(min(exp, i32::MAX) as i32)`
/// bit for bit.
fn power(squares: &[f64; POWI_BITS], exp: u64) -> f64 {
    let mut bits = exp.min(i32::MAX as u64);
    let mut power = 1.0;
    while bits != 0 {
        power *= squares[bits.trailing_zeros() as usize];
        bits &= bits - 1;
    }
    power
}

/// `base^min(exp, i32::MAX)` by the square-and-multiply of the
/// exponential schedules, so equal bit for bit to
/// `base.powi(min(exp, i32::MAX) as i32)`.
pub fn powi(base: f64, exp: u64) -> f64 {
    power(&squares_of(base), exp)
}

/// A [`Schedule`] with its step-independent terms computed once: the
/// linear rise and horizon, and for exponential decay the squares
/// `decay^(2^i)`.
///
/// [`PreparedSchedule::value`] is bit for bit the closed form of each
/// shape, `start + (end - start) · (step / steps)` and
/// `end + (start - end) · decay.powi(min(step, i32::MAX))`. An exponential
/// schedule multiplies the squares over the set bits of
/// `min(step, i32::MAX)` in increasing order, starting from 1: the exact
/// multiplication sequence of `f64::powi` (square-and-multiply), without
/// re-squaring on every call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreparedSchedule {
    form: Form,
    /// `squares[i] = decay^(2^i)`, each the square of the one before; read
    /// by the exponential form only.
    squares: [f64; POWI_BITS],
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Form {
    Constant(f64),
    Linear {
        start: f64,
        end: f64,
        /// `end - start`.
        rise: f64,
        steps: u64,
        /// `steps as f64`.
        horizon: f64,
    },
    Exponential {
        end: f64,
        /// `start - end`.
        gap: f64,
    },
}

impl PreparedSchedule {
    /// The schedule's value at `step`.
    pub fn value(&self, step: u64) -> f64 {
        match self.form {
            Form::Constant(v) => v,
            Form::Linear {
                start,
                end,
                rise,
                steps,
                horizon,
            } => {
                if step >= steps {
                    end
                } else {
                    start + rise * (step as f64 / horizon)
                }
            }
            Form::Exponential { end, gap } => end + gap * power(&self.squares, step),
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

    /// The closed form the prepared exponential schedule must reproduce.
    fn powi_reference(start: f64, end: f64, decay: f64, step: u64) -> f64 {
        end + (start - end) * decay.powi(step.min(i32::MAX as u64) as i32)
    }

    #[test]
    fn prepared_exponential_matches_powi_bit_for_bit() {
        for decay in [0.99, 0.995, 0.9, 0.5] {
            let s = Schedule::Exponential {
                start: 0.3,
                end: 0.0,
                decay,
            };
            let prepared = s.prepare();
            for step in 0..=10_000u64 {
                let want = powi_reference(0.3, 0.0, decay, step);
                assert_eq!(
                    prepared.value(step).to_bits(),
                    want.to_bits(),
                    "{decay}^{step}"
                );
                assert_eq!(s.value(step).to_bits(), want.to_bits(), "{decay}^{step}");
            }
        }
    }

    #[test]
    fn powi_matches_f64_powi_bit_for_bit() {
        for base in [0.5f64, 0.7, 0.99, 1.5, 3.0, -0.8] {
            for exp in (0..=200).chain([i32::MAX as u64 - 1, i32::MAX as u64, u64::MAX]) {
                let want = base.powi(exp.min(i32::MAX as u64) as i32);
                assert_eq!(powi(base, exp).to_bits(), want.to_bits(), "{base}^{exp}");
            }
        }
    }

    #[test]
    fn prepared_linear_matches_the_closed_form_bit_for_bit() {
        let (start, end, steps) = (0.5, 0.02, 200u64);
        let prepared = Schedule::Linear { start, end, steps }.prepare();
        for step in 0..=1_000u64 {
            let want = if step >= steps {
                end
            } else {
                start + (end - start) * (step as f64 / steps as f64)
            };
            assert_eq!(
                prepared.value(step).to_bits(),
                want.to_bits(),
                "step {step}"
            );
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
