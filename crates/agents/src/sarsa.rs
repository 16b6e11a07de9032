//! On-policy TD control: SARSA and Expected SARSA.
//!
//! Ablation companions to the paper's Q-learning agent. SARSA bootstraps
//! from the action the policy *actually* takes next (so the update is
//! deferred until that action is chosen); Expected SARSA bootstraps from the
//! ε-greedy expectation over the next Q-row, removing SARSA's sampling
//! variance while staying on-policy.

use crate::agent::{TabularAgent, TabularTransition};
use crate::policy::{ExplorationPolicy, PreparedPolicy};
use crate::qtable::QTable;
use crate::schedule::{PreparedSchedule, Schedule};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Classic SARSA(0).
#[derive(Debug, Clone)]
pub struct SarsaAgent {
    q: QTable,
    alpha: PreparedSchedule,
    gamma: f64,
    policy: PreparedPolicy,
    rng: StdRng,
    step: u64,
    /// Transition awaiting its successor action.
    pending: Option<TabularTransition>,
}

impl SarsaAgent {
    /// A SARSA agent with the given hyper-parameters.
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
            q: QTable::new(n_actions, 0.0),
            alpha: alpha.prepare(),
            gamma,
            policy: policy.prepare(),
            rng: StdRng::seed_from_u64(seed),
            step: 0,
            pending: None,
        }
    }

    /// Read access to the learned Q-table.
    pub fn q_table(&self) -> &QTable {
        &self.q
    }

    fn flush_pending(&mut self, next_action: Option<usize>) {
        if let Some(t) = self.pending.take() {
            let bootstrap = match (t.terminal, next_action) {
                (true, _) | (false, None) => 0.0,
                (false, Some(a)) => self.gamma * self.q.value(t.next_state, a),
            };
            let target = t.reward + bootstrap;
            let alpha = self.alpha.value(self.step);
            self.q.update(t.state, t.action, target, |old, tgt| {
                old + alpha * (tgt - old)
            });
        }
    }
}

impl TabularAgent for SarsaAgent {
    fn select_action(&mut self, state: usize) -> usize {
        let row = self.q.row(state);
        let action = self.policy.choose(row, self.step, &mut self.rng);
        // The successor action is now known: complete the pending update.
        self.flush_pending(Some(action));
        self.step += 1;
        action
    }

    fn observe(&mut self, t: TabularTransition) {
        if t.terminal {
            // No successor action will exist; update immediately.
            self.pending = Some(t);
            self.flush_pending(None);
        } else {
            self.pending = Some(t);
        }
    }

    fn begin_episode(&mut self) {
        // A truncated episode leaves a pending transition with no successor
        // action on-policy; fall back to a value-less (reward-only) update.
        self.flush_pending(None);
    }

    fn greedy_action(&self, state: usize) -> usize {
        self.q.best_action(state)
    }
}

/// Expected SARSA: bootstraps with the ε-greedy expectation over the next
/// state's Q-row.
#[derive(Debug, Clone)]
pub struct ExpectedSarsaAgent {
    q: QTable,
    alpha: PreparedSchedule,
    gamma: f64,
    /// The ε-greedy behaviour policy; its ε also weighs the target.
    policy: PreparedPolicy,
    epsilon: PreparedSchedule,
    rng: StdRng,
    step: u64,
}

impl ExpectedSarsaAgent {
    /// An Expected SARSA agent with ε-greedy behaviour and target policy.
    ///
    /// # Panics
    ///
    /// Panics if `n_actions` is zero, `gamma` lies outside `[0, 1]` or a
    /// schedule is malformed.
    pub fn new(
        n_actions: usize,
        alpha: Schedule,
        gamma: f64,
        epsilon: Schedule,
        seed: u64,
    ) -> Self {
        assert!(n_actions > 0, "agent needs at least one action");
        assert!((0.0..=1.0).contains(&gamma), "gamma {gamma} outside [0, 1]");
        let epsilon = epsilon.prepare();
        Self {
            q: QTable::new(n_actions, 0.0),
            alpha: alpha.prepare(),
            gamma,
            policy: PreparedPolicy::EpsilonGreedy(epsilon),
            epsilon,
            rng: StdRng::seed_from_u64(seed),
            step: 0,
        }
    }

    /// Read access to the learned Q-table.
    pub fn q_table(&self) -> &QTable {
        &self.q
    }

    /// Expected value of the ε-greedy policy at `state`.
    fn expected_value(&self, state: usize) -> f64 {
        match self.q.row_ref(state) {
            None => 0.0,
            Some(row) => {
                let eps = self.epsilon.value(self.step).clamp(0.0, 1.0);
                let n = row.len() as f64;
                let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let uniform: f64 = row.iter().sum::<f64>() / n;
                (1.0 - eps) * max + eps * uniform
            }
        }
    }
}

impl TabularAgent for ExpectedSarsaAgent {
    fn select_action(&mut self, state: usize) -> usize {
        let action = self
            .policy
            .choose(self.q.row(state), self.step, &mut self.rng);
        self.step += 1;
        action
    }

    fn observe(&mut self, t: TabularTransition) {
        let bootstrap = if t.terminal {
            0.0
        } else {
            self.gamma * self.expected_value(t.next_state)
        };
        let target = t.reward + bootstrap;
        let alpha = self.alpha.value(self.step);
        self.q.update(t.state, t.action, target, |old, tgt| {
            old + alpha * (tgt - old)
        });
    }

    fn greedy_action(&self, state: usize) -> usize {
        self.q.best_action(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> ExplorationPolicy {
        ExplorationPolicy::EpsilonGreedy {
            epsilon: Schedule::Constant(0.2),
        }
    }

    #[test]
    fn sarsa_defers_update_until_next_action() {
        let mut agent = SarsaAgent::new(2, Schedule::Constant(1.0), 0.5, policy(), 3);
        agent.observe(TabularTransition {
            state: 0,
            action: 0,
            reward: 2.0,
            next_state: 1,
            terminal: false,
        });
        // Not yet updated: the successor action is unknown.
        assert_eq!(agent.q_table().value(0, 0), 0.0);
        let _a = agent.select_action(1);
        // Now updated: target = 2 + 0.5 * Q(1, a') = 2 (row still zero).
        assert_eq!(agent.q_table().value(0, 0), 2.0);
    }

    #[test]
    fn sarsa_terminal_updates_immediately() {
        let mut agent = SarsaAgent::new(2, Schedule::Constant(0.5), 0.9, policy(), 3);
        agent.observe(TabularTransition {
            state: 4,
            action: 1,
            reward: 6.0,
            next_state: 5,
            terminal: true,
        });
        assert_eq!(agent.q_table().value(4, 1), 3.0);
    }

    #[test]
    fn sarsa_begin_episode_flushes_truncated_transition() {
        let mut agent = SarsaAgent::new(2, Schedule::Constant(1.0), 0.9, policy(), 3);
        agent.observe(TabularTransition {
            state: 0,
            action: 1,
            reward: 4.0,
            next_state: 1,
            terminal: false,
        });
        agent.begin_episode();
        // Reward-only update applied.
        assert_eq!(agent.q_table().value(0, 1), 4.0);
    }

    #[test]
    fn expected_sarsa_uses_expectation() {
        let mut agent =
            ExpectedSarsaAgent::new(2, Schedule::Constant(1.0), 1.0, Schedule::Constant(0.5), 3);
        // Prime state 1 with q = [0, 8]: expectation = 0.5*8 + 0.5*avg(0,8) = 6.
        agent.observe(TabularTransition {
            state: 1,
            action: 1,
            reward: 8.0,
            next_state: 2,
            terminal: true,
        });
        agent.observe(TabularTransition {
            state: 0,
            action: 0,
            reward: 0.0,
            next_state: 1,
            terminal: false,
        });
        assert!((agent.q_table().value(0, 0) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn expected_sarsa_terminal_ignores_next() {
        let mut agent =
            ExpectedSarsaAgent::new(2, Schedule::Constant(1.0), 1.0, Schedule::Constant(0.0), 3);
        agent.observe(TabularTransition {
            state: 0,
            action: 0,
            reward: 7.0,
            next_state: 1,
            terminal: true,
        });
        assert_eq!(agent.q_table().value(0, 0), 7.0);
    }
}
