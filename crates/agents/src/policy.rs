//! Action-selection policies over Q-value rows.

use crate::schedule::{PreparedSchedule, Schedule};
use rand::Rng;

/// An exploration policy mapping a Q-value row to an action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExplorationPolicy {
    /// With probability ε pick a uniformly random action, otherwise the
    /// greedy one (random tie-breaking).
    EpsilonGreedy {
        /// The exploration-rate schedule.
        epsilon: Schedule,
    },
    /// Boltzmann exploration: sample actions with probability
    /// `softmax(q / temperature)`.
    Softmax {
        /// The temperature schedule (higher = more uniform).
        temperature: Schedule,
    },
}

impl ExplorationPolicy {
    /// The conventional ε-greedy default used by the paper-style runs:
    /// ε decaying linearly from 1.0 to 0.05 over `horizon` steps.
    pub fn epsilon_greedy_decay(horizon: u64) -> Self {
        ExplorationPolicy::EpsilonGreedy {
            epsilon: Schedule::Linear {
                start: 1.0,
                end: 0.05,
                steps: horizon,
            },
        }
    }

    /// The policy with its schedule prepared once (see
    /// [`Schedule::prepare`]), as every agent holds it.
    ///
    /// # Panics
    ///
    /// Panics on a malformed schedule.
    pub fn prepare(&self) -> PreparedPolicy {
        match self {
            ExplorationPolicy::EpsilonGreedy { epsilon } => {
                PreparedPolicy::EpsilonGreedy(epsilon.prepare())
            }
            ExplorationPolicy::Softmax { temperature } => {
                PreparedPolicy::Softmax(temperature.prepare())
            }
        }
    }
}

/// An [`ExplorationPolicy`] with its schedule prepared (see
/// [`crate::schedule::PreparedSchedule`]); it chooses exactly the actions
/// the policy does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PreparedPolicy {
    /// ε-greedy with the prepared ε schedule.
    EpsilonGreedy(PreparedSchedule),
    /// Softmax with the prepared temperature schedule.
    Softmax(PreparedSchedule),
}

impl PreparedPolicy {
    /// Chooses an action for the given Q-row at training step `step`.
    ///
    /// # Panics
    ///
    /// Panics if `q_row` is empty.
    pub fn choose<R: Rng + ?Sized>(&self, q_row: &[f64], step: u64, rng: &mut R) -> usize {
        self.choose_flagged(q_row, step, rng).0
    }

    /// [`PreparedPolicy::choose`], also saying whether the action came from
    /// the greedy branch: `true` means it attains the row's maximum, while
    /// `false` (an exploratory draw, or any softmax sample) leaves that
    /// open.
    pub(crate) fn choose_flagged<R: Rng + ?Sized>(
        &self,
        q_row: &[f64],
        step: u64,
        rng: &mut R,
    ) -> (usize, bool) {
        assert!(!q_row.is_empty(), "cannot choose from an empty action set");
        match self {
            PreparedPolicy::EpsilonGreedy(epsilon) => {
                let eps = epsilon.value(step).clamp(0.0, 1.0);
                if rng.gen_bool(eps) {
                    (rng.gen_range(0..q_row.len()), false)
                } else {
                    (greedy_with_random_ties(q_row, rng), true)
                }
            }
            PreparedPolicy::Softmax(temperature) => {
                let t = temperature.value(step).max(1e-6);
                (softmax_sample(q_row, t, rng), false)
            }
        }
    }
}

/// The greedy action with uniform tie-breaking among maxima: one
/// `gen_range(0..ties)` draw picks the k-th maximum in index order.
///
/// One pass finds the maximum, the number of entries equal to it and the
/// first of them; the row is walked again only when the draw picks a later
/// one. NaN entries compare false and are never chosen, and `-0.0` ties
/// `0.0`, as in a fold over `f64::max` followed by an `==` count.
///
/// # Panics
///
/// Panics if no entry is comparable (an empty or all-NaN row).
pub fn greedy_with_random_ties<R: Rng + ?Sized>(q_row: &[f64], rng: &mut R) -> usize {
    let (mut max, mut ties, mut first) = (f64::NEG_INFINITY, 0usize, 0usize);
    for (i, &v) in q_row.iter().enumerate() {
        if v > max {
            (max, ties, first) = (v, 1, i);
        } else if v == max {
            if ties == 0 {
                first = i;
            }
            ties += 1;
        }
    }
    let k = rng.gen_range(0..ties);
    if k == 0 {
        return first;
    }
    (first + 1..q_row.len())
        .filter(|&i| q_row[i] == max)
        .nth(k - 1)
        .expect("k indexes one of the maxima")
}

/// Samples from `softmax(q / t)` using the numerically stable shift.
fn softmax_sample<R: Rng + ?Sized>(q_row: &[f64], t: f64, rng: &mut R) -> usize {
    let max = q_row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let weights: Vec<f64> = q_row.iter().map(|&v| ((v - max) / t).exp()).collect();
    let total: f64 = weights.iter().sum();
    let mut u = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        if u < *w {
            return i;
        }
        u -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2024)
    }

    #[test]
    fn zero_epsilon_is_pure_greedy() {
        let p = ExplorationPolicy::EpsilonGreedy {
            epsilon: Schedule::Constant(0.0),
        };
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(p.prepare().choose(&[0.0, 3.0, 1.0], 0, &mut r), 1);
        }
    }

    #[test]
    fn one_epsilon_is_uniform() {
        let p = ExplorationPolicy::EpsilonGreedy {
            epsilon: Schedule::Constant(1.0),
        };
        let mut r = rng();
        let mut counts = [0usize; 3];
        for _ in 0..3_000 {
            counts[p.prepare().choose(&[0.0, 3.0, 1.0], 0, &mut r)] += 1;
        }
        for c in counts {
            assert!(
                (700..1300).contains(&c),
                "counts {counts:?} not near uniform"
            );
        }
    }

    #[test]
    fn epsilon_schedule_advances_with_step() {
        let p = ExplorationPolicy::EpsilonGreedy {
            epsilon: Schedule::Linear {
                start: 1.0,
                end: 0.0,
                steps: 10,
            },
        };
        let mut r = rng();
        // At step >= 10, epsilon is 0: always greedy.
        for _ in 0..50 {
            assert_eq!(p.prepare().choose(&[5.0, 0.0], 10, &mut r), 0);
        }
    }

    #[test]
    fn greedy_ties_are_uniformly_broken() {
        let mut r = rng();
        let mut counts = [0usize; 3];
        for _ in 0..3_000 {
            counts[greedy_with_random_ties(&[2.0, 2.0, 1.0], &mut r)] += 1;
        }
        assert_eq!(counts[2], 0);
        assert!(counts[0] > 1_000 && counts[1] > 1_000, "{counts:?}");
    }

    #[test]
    fn greedy_never_picks_nan_and_ties_negative_infinity() {
        let mut r = rng();
        let mut counts = [0usize; 4];
        for _ in 0..1_000 {
            counts[greedy_with_random_ties(
                &[f64::NAN, f64::NEG_INFINITY, f64::NAN, f64::NEG_INFINITY],
                &mut r,
            )] += 1;
            let zero = greedy_with_random_ties(&[f64::NAN, -0.0, 0.0, f64::NAN], &mut r);
            assert!(zero == 1 || zero == 2, "picked {zero}");
        }
        assert_eq!(counts[0] + counts[2], 0, "{counts:?}");
        assert!(counts[1] > 350 && counts[3] > 350, "{counts:?}");
    }

    #[test]
    fn softmax_prefers_higher_values() {
        let p = ExplorationPolicy::Softmax {
            temperature: Schedule::Constant(0.5),
        };
        let mut r = rng();
        let mut counts = [0usize; 2];
        for _ in 0..2_000 {
            counts[p.prepare().choose(&[0.0, 2.0], 0, &mut r)] += 1;
        }
        assert!(counts[1] > counts[0] * 3, "{counts:?}");
    }

    #[test]
    fn softmax_high_temperature_is_near_uniform() {
        let p = ExplorationPolicy::Softmax {
            temperature: Schedule::Constant(1_000.0),
        };
        let mut r = rng();
        let mut counts = [0usize; 2];
        for _ in 0..2_000 {
            counts[p.prepare().choose(&[0.0, 2.0], 0, &mut r)] += 1;
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!((0.7..1.4).contains(&ratio), "{counts:?}");
    }

    #[test]
    #[should_panic(expected = "empty action set")]
    fn empty_row_rejected() {
        let p = ExplorationPolicy::EpsilonGreedy {
            epsilon: Schedule::Constant(0.0),
        };
        p.prepare().choose(&[], 0, &mut rng());
    }
}
