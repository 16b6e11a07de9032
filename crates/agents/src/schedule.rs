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
                Form::Exponential {
                    end,
                    gap: start - end,
                    powers: Box::new(Powers::of(decay)),
                }
            }
        };
        PreparedSchedule { form }
    }
}

/// Bits of an `i32` exponent that `f64::powi` can see set: the step is
/// clamped to `i32::MAX` first.
const POWI_BITS: usize = 31;

/// Low exponent bits whose products [`Powers`] tabulates.
const LOW_BITS: usize = 6;

/// The powers of one base that `f64::powi`'s square-and-multiply forms:
/// `squares[i] = base^(2^i)`, each the square of the one before, and
/// `low[j]` the product of `squares` over the set bits of `j`, in
/// increasing order and starting from 1.
///
/// A power multiplies the squares over the set bits of the exponent in
/// increasing order, so its first factors are those of the low bits:
/// `low[j]` is the running product after them, and each table entry is
/// the entry without its top bit times that bit's square, the very
/// multiplication `powi` makes last.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Powers {
    squares: [f64; POWI_BITS],
    low: [f64; 1 << LOW_BITS],
}

impl Powers {
    fn of(base: f64) -> Self {
        let mut squares = [base; POWI_BITS];
        for i in 1..POWI_BITS {
            squares[i] = squares[i - 1] * squares[i - 1];
        }
        let mut low = [1.0; 1 << LOW_BITS];
        for j in 1..low.len() {
            let top = j.ilog2() as usize;
            low[j] = low[j - (1 << top)] * squares[top];
        }
        Self { squares, low }
    }

    /// `base^min(exp, i32::MAX)` bit for bit as `f64::powi` computes it:
    /// the product over the low bits from the table, then the squares of
    /// the higher set bits in increasing order.
    fn power(&self, exp: u64) -> f64 {
        let exp = exp.min(i32::MAX as u64);
        let mut power = self.low[(exp & ((1 << LOW_BITS) - 1)) as usize];
        let mut bits = exp >> LOW_BITS << LOW_BITS;
        while bits != 0 {
            power *= self.squares[bits.trailing_zeros() as usize];
            bits &= bits - 1;
        }
        power
    }
}

/// `base^min(exp, i32::MAX)` by the square-and-multiply of the
/// exponential schedules, so equal bit for bit to
/// `base.powi(min(exp, i32::MAX) as i32)`.
pub fn powi(base: f64, exp: u64) -> f64 {
    Powers::of(base).power(exp)
}

/// A [`Schedule`] with its step-independent terms computed once: the
/// linear rise and horizon, and for exponential decay the powers of
/// `decay` that `f64::powi` multiplies.
///
/// [`PreparedSchedule::value`] is bit for bit the closed form of each
/// shape, `start + (end - start) · (step / steps)` and
/// `end + (start - end) · decay.powi(min(step, i32::MAX))`. An exponential
/// schedule reads the product of `decay^(2^i)` over the low six bits of
/// `min(step, i32::MAX)` from a 64-entry table, then multiplies in the
/// squares of the higher set bits in increasing order: the exact
/// multiplication sequence of `f64::powi` (square-and-multiply), without
/// re-squaring, and for steps below 64 without multiplying, on any call.
/// Only an exponential schedule holds that table.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedSchedule {
    form: Form,
}

#[derive(Debug, Clone, PartialEq)]
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
        /// The powers of `decay`, boxed so that the other forms stay
        /// small.
        powers: Box<Powers>,
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
            Form::Exponential {
                end,
                gap,
                ref powers,
            } => end + gap * powers.power(step),
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
