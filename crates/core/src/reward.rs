//! The paper's Algorithm 1: the step reward.
//!
//! ```text
//! if Δacc <= acc_th:
//!     if adder == N_add and mul == N_mul and all variables selected:
//!         reward = R; terminate = true          // maximal approximation
//!     else if Δpower >= p_th and Δtime >= t_th:
//!         reward = +1                           // useful approximation
//!     else:
//!         reward = -1                           // within accuracy, gains too small
//! else:
//!     reward = -R                               // accuracy budget violated
//! ```
//!
//! The cumulative reward is tracked by the training loop; exploration stops
//! when it reaches the predefined maximum `R_cum >= R_max` (see
//! [`ax_agents::train::TrainOptions::reward_target`]).

use crate::config::{AxConfig, SpaceDims};
use crate::evaluator::EvalMetrics;
use crate::thresholds::Thresholds;

/// Parameters of the reward function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RewardParams {
    /// The paper's `R`: the terminal bonus, the magnitude of the accuracy
    /// penalty, and (as `max_cumulative`) the exploration stop target.
    pub max_reward: f64,
    /// Calibrated thresholds.
    pub thresholds: Thresholds,
}

impl RewardParams {
    /// Parameters with the given `R` and thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `max_reward` is not strictly positive.
    pub fn new(max_reward: f64, thresholds: Thresholds) -> Self {
        assert!(max_reward > 0.0, "max reward must be positive");
        Self {
            max_reward,
            thresholds,
        }
    }
}

/// Evaluates Algorithm 1 for one step: returns `(reward, terminate)`.
pub fn reward(
    config: &AxConfig,
    dims: SpaceDims,
    m: &EvalMetrics,
    p: &RewardParams,
) -> (f64, bool) {
    let th = &p.thresholds;
    if m.delta_acc <= th.acc_th {
        if config.is_fully_approximate(dims) {
            (p.max_reward, true)
        } else if m.delta_power >= th.power_th && m.delta_time >= th.time_th {
            (1.0, false)
        } else {
            (-1.0, false)
        }
    } else {
        (-p.max_reward, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ax_operators::{AdderId, MulId};

    const DIMS: SpaceDims = SpaceDims {
        n_add: 6,
        n_mul: 6,
        n_vars: 4,
    };

    fn params() -> RewardParams {
        RewardParams::new(
            100.0,
            Thresholds {
                acc_th: 10.0,
                power_th: 50.0,
                time_th: 40.0,
            },
        )
    }

    fn metrics(acc: f64, power: f64, time: f64) -> EvalMetrics {
        EvalMetrics {
            delta_acc: acc,
            delta_power: power,
            delta_time: time,
            signed_error: 0.0,
            power: 0.0,
            time_ns: 0.0,
        }
    }

    #[test]
    fn accuracy_violation_gives_max_penalty() {
        let (r, t) = reward(
            &AxConfig::precise(),
            DIMS,
            &metrics(10.1, 999.0, 999.0),
            &params(),
        );
        assert_eq!(r, -100.0);
        assert!(!t);
    }

    #[test]
    fn good_gains_give_plus_one() {
        let (r, t) = reward(
            &AxConfig::precise(),
            DIMS,
            &metrics(5.0, 50.0, 40.0),
            &params(),
        );
        assert_eq!(r, 1.0);
        assert!(!t);
    }

    #[test]
    fn insufficient_gains_give_minus_one() {
        // Power passes but time misses the threshold.
        let (r, t) = reward(
            &AxConfig::precise(),
            DIMS,
            &metrics(5.0, 60.0, 39.9),
            &params(),
        );
        assert_eq!(r, -1.0);
        assert!(!t);
        // Both miss.
        let (r, _) = reward(
            &AxConfig::precise(),
            DIMS,
            &metrics(0.0, 0.0, 0.0),
            &params(),
        );
        assert_eq!(r, -1.0);
    }

    #[test]
    fn full_approximation_within_accuracy_terminates() {
        let full = AxConfig {
            adder: AdderId(5),
            mul: MulId(5),
            vars: 0b1111,
        };
        let (r, t) = reward(&full, DIMS, &metrics(9.9, 0.0, 0.0), &params());
        assert_eq!(r, 100.0);
        assert!(t);
    }

    #[test]
    fn full_approximation_violating_accuracy_is_penalised() {
        let full = AxConfig {
            adder: AdderId(5),
            mul: MulId(5),
            vars: 0b1111,
        };
        let (r, t) = reward(&full, DIMS, &metrics(11.0, 999.0, 999.0), &params());
        assert_eq!(r, -100.0);
        assert!(!t);
    }

    #[test]
    fn boundary_values_are_inclusive() {
        // Δacc == acc_th counts as within budget (paper: `<=`).
        let (r, _) = reward(
            &AxConfig::precise(),
            DIMS,
            &metrics(10.0, 50.0, 40.0),
            &params(),
        );
        assert_eq!(r, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_max_reward_rejected() {
        RewardParams::new(
            0.0,
            Thresholds {
                acc_th: 1.0,
                power_th: 1.0,
                time_th: 1.0,
            },
        );
    }
}
