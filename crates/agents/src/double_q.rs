//! Double Q-learning (van Hasselt, NeurIPS 2010).
//!
//! Q-learning's `max` bootstrap overestimates action values under noise;
//! double Q-learning keeps two tables and decouples action selection
//! (argmax of one table) from evaluation (value from the other), flipping a
//! fair coin to decide which table learns on each step.

use crate::agent::{TabularAgent, TabularTransition};
use crate::policy::{ExplorationPolicy, PreparedPolicy};
use crate::qtable::{first_max, QTable};
use crate::schedule::{PreparedSchedule, Schedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A double Q-learning agent.
#[derive(Debug, Clone)]
pub struct DoubleQAgent {
    qa: QTable,
    qb: QTable,
    alpha: PreparedSchedule,
    gamma: f64,
    policy: PreparedPolicy,
    rng: StdRng,
    step: u64,
    /// Reused buffer for the two tables' summed row, which action
    /// selection ranks.
    combined: Vec<f64>,
}

impl DoubleQAgent {
    /// A double Q-learning agent with the given hyper-parameters.
    ///
    /// # Panics
    ///
    /// Panics if `n_actions` is zero, `gamma` lies outside `[0, 1]` or a
    /// schedule is malformed.
    pub fn new(
        n_actions: usize,
        alpha: Schedule,
        gamma: f64,
        policy: ExplorationPolicy,
        seed: u64,
    ) -> Self {
        assert!(n_actions > 0, "agent needs at least one action");
        assert!((0.0..=1.0).contains(&gamma), "gamma {gamma} outside [0, 1]");
        Self {
            qa: QTable::new(n_actions, 0.0),
            qb: QTable::new(n_actions, 0.0),
            alpha: alpha.prepare(),
            gamma,
            policy: policy.prepare(),
            rng: StdRng::seed_from_u64(seed),
            step: 0,
            combined: Vec::with_capacity(n_actions),
        }
    }
}

impl TabularAgent for DoubleQAgent {
    fn select_action(&mut self, state: usize) -> usize {
        // Select over the summed rows of both tables.
        let (a, b) = (self.qa.row(state), self.qb.row(state));
        self.combined.clear();
        self.combined
            .extend(a.iter().zip(b.iter()).map(|(x, y)| x + y));
        let action = self.policy.choose(&self.combined, self.step, &mut self.rng);
        self.step += 1;
        action
    }

    fn observe(&mut self, t: TabularTransition) {
        let alpha = self.alpha.value(self.step);
        let update_a: bool = self.rng.gen();
        let (selector, evaluator) = if update_a {
            (&mut self.qa, &self.qb)
        } else {
            (&mut self.qb, &self.qa)
        };
        let bootstrap = if t.terminal {
            0.0
        } else {
            let a_star = selector.best_action(t.next_state);
            self.gamma * evaluator.value(t.next_state, a_star)
        };
        let target = t.reward + bootstrap;
        selector.update(t.state, t.action, target, |old, tgt| {
            old + alpha * (tgt - old)
        });
    }

    fn greedy_action(&self, state: usize) -> usize {
        // Greedy over the summed tables, deterministic tie-breaking.
        match (self.qa.row_ref(state), self.qb.row_ref(state)) {
            (None, None) => 0,
            (a, b) => {
                let n = self.qa.n_actions();
                let row: Vec<f64> = (0..n)
                    .map(|i| a.map_or(0.0, |r| r[i]) + b.map_or(0.0, |r| r[i]))
                    .collect();
                first_max(&row)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agent() -> DoubleQAgent {
        DoubleQAgent::new(
            2,
            Schedule::Constant(0.5),
            0.9,
            ExplorationPolicy::EpsilonGreedy {
                epsilon: Schedule::Constant(0.1),
            },
            11,
        )
    }

    #[test]
    fn terminal_updates_converge_on_reward() {
        let mut a = agent();
        for _ in 0..200 {
            a.observe(TabularTransition {
                state: 0,
                action: 1,
                reward: 4.0,
                next_state: 1,
                terminal: true,
            });
        }
        // Both tables approach 4; the greedy action is 1.
        assert_eq!(a.greedy_action(0), 1);
    }

    #[test]
    fn greedy_on_unvisited_state_is_zero() {
        let a = agent();
        assert_eq!(a.greedy_action(77), 0);
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let run = || {
            let mut a = agent();
            let mut actions = Vec::new();
            for s in 0..20 {
                actions.push(a.select_action(s));
                a.observe(TabularTransition {
                    state: s,
                    action: actions[s],
                    reward: 1.0,
                    next_state: s + 1,
                    terminal: s % 5 == 4,
                });
            }
            actions
        };
        assert_eq!(run(), run());
    }
}
