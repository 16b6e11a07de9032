//! Watkins' Q(λ): Q-learning with eligibility traces.
//!
//! The reproduced paper's conclusion calls for "additional work ... to
//! improve the learning strategy"; eligibility traces are the canonical
//! first step. Each visited state–action pair keeps a decaying trace
//! `e(s,a)`; every TD error updates *all* traced pairs at once, propagating
//! credit down the visit path in one step instead of one pair per step.
//! Following Watkins, traces are cut (reset) after exploratory (non-greedy)
//! actions, keeping the target policy greedy.

use crate::agent::{TabularAgent, TabularTransition};
use crate::policy::ExplorationPolicy;
use crate::qtable::QTable;
use crate::schedule::Schedule;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hash::Hash;

/// A Watkins Q(λ) agent.
#[derive(Debug, Clone)]
pub struct QLambdaAgent<S> {
    q: QTable<S>,
    alpha: Schedule,
    gamma: f64,
    lambda: f64,
    policy: ExplorationPolicy,
    rng: StdRng,
    step: u64,
    /// Live eligibility traces as `(Q-table cell, e)`. Decay and the floor
    /// keep them few (at most ~23 with γλ = 0.665), so a linear scan beats
    /// hashing.
    traces: Vec<(usize, f64)>,
    /// Whether the most recent action was greedy w.r.t. the current Q.
    last_was_greedy: bool,
    /// Traces below this are dropped to keep the list short.
    trace_floor: f64,
}

impl<S: Eq + Hash + Clone> QLambdaAgent<S> {
    /// A Q(λ) agent.
    ///
    /// # Panics
    ///
    /// Panics if `n_actions` is zero, or `gamma`/`lambda` lie outside
    /// `[0, 1]`.
    pub fn new(
        n_actions: usize,
        alpha: Schedule,
        gamma: f64,
        lambda: f64,
        policy: ExplorationPolicy,
        seed: u64,
    ) -> Self {
        assert!(n_actions > 0, "agent needs at least one action");
        assert!((0.0..=1.0).contains(&gamma), "gamma {gamma} outside [0, 1]");
        assert!(
            (0.0..=1.0).contains(&lambda),
            "lambda {lambda} outside [0, 1]"
        );
        Self {
            q: QTable::new(n_actions, 0.0),
            alpha,
            gamma,
            lambda,
            policy,
            rng: StdRng::seed_from_u64(seed),
            step: 0,
            traces: Vec::new(),
            last_was_greedy: true,
            trace_floor: 1e-4,
        }
    }

    /// Read access to the learned Q-table.
    pub fn q_table(&self) -> &QTable<S> {
        &self.q
    }

    /// Number of live eligibility traces (diagnostics).
    pub fn active_traces(&self) -> usize {
        self.traces.len()
    }
}

impl<S: Eq + Hash + Clone> TabularAgent<S> for QLambdaAgent<S> {
    fn select_action(&mut self, state: &S) -> usize {
        let row = self.q.row(state);
        let action = self.policy.choose(row, self.step, &mut self.rng);
        let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        self.last_was_greedy = row[action] == max;
        self.step += 1;
        action
    }

    fn observe(&mut self, t: TabularTransition<S>) {
        let bootstrap = if t.terminal {
            0.0
        } else {
            self.gamma * self.q.max_value(&t.next_state)
        };
        let cell = self.q.cell(&t.state, t.action);
        let values = self.q.cells_mut();
        let delta = t.reward + bootstrap - values[cell];
        let alpha = self.alpha.value(self.step);

        // Replacing traces: the visited pair's trace snaps to 1.
        match self.traces.iter_mut().find(|(c, _)| *c == cell) {
            Some((_, e)) => *e = 1.0,
            None => self.traces.push((cell, 1.0)),
        }

        // Each trace owns a distinct cell, so the sweep order is free.
        let decay = self.gamma * self.lambda;
        let floor = self.trace_floor;
        self.traces.retain_mut(|(cell, e)| {
            values[*cell] += alpha * delta * *e;
            *e *= decay;
            *e >= floor
        });

        // Watkins: exploratory actions cut the traces; so does episode end.
        if t.terminal || !self.last_was_greedy {
            self.traces.clear();
        }
    }

    fn begin_episode(&mut self) {
        self.traces.clear();
    }

    fn greedy_action(&self, state: &S) -> usize {
        self.q.best_action(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Env;
    use crate::toy::LineWorld;
    use crate::train::{train, TrainOptions};

    fn agent(lambda: f64) -> QLambdaAgent<usize> {
        QLambdaAgent::new(
            2,
            Schedule::Constant(0.2),
            0.9,
            lambda,
            ExplorationPolicy::EpsilonGreedy {
                epsilon: Schedule::Linear {
                    start: 1.0,
                    end: 0.05,
                    steps: 1_500,
                },
            },
            7,
        )
    }

    #[test]
    fn solves_line_world() {
        let mut env = LineWorld::new(6, 50);
        let mut a = agent(0.8);
        train(&mut env, &mut a, &TrainOptions::new(4_000).seed(3));
        for s in 0..5usize {
            assert_eq!(a.greedy_action(&s), 1, "state {s}");
        }
    }

    #[test]
    fn traces_propagate_credit_faster_than_plain_q() {
        // After a single successful episode, Q(λ) has non-zero values at
        // states far from the goal; plain Q-learning only at the last state.
        let mut env = LineWorld::new(6, u64::MAX);
        let mut a = agent(0.9);
        let mut obs = env.reset(None);
        a.begin_episode();
        loop {
            let action = 1usize; // force the optimal walk
            let s = env.step(&action);
            a.observe(TabularTransition {
                state: obs,
                action,
                reward: s.reward,
                next_state: s.obs,
                terminal: s.terminated,
            });
            obs = s.obs;
            if s.terminated {
                break;
            }
        }
        // Credit reached the start state in one episode.
        assert!(
            a.q_table().value(&0, 1) > 0.0,
            "trace did not reach the start"
        );
    }

    #[test]
    fn terminal_clears_traces() {
        let mut a = agent(0.9);
        a.observe(TabularTransition {
            state: 0usize,
            action: 1,
            reward: 1.0,
            next_state: 1,
            terminal: true,
        });
        assert_eq!(a.active_traces(), 0);
    }

    #[test]
    fn tiny_traces_are_pruned() {
        let mut a = agent(0.5);
        for s in 0..30usize {
            a.observe(TabularTransition {
                state: s,
                action: 0,
                reward: 0.0,
                next_state: s + 1,
                terminal: false,
            });
        }
        // gamma*lambda = 0.45: traces decay below 1e-4 within ~11 steps, so
        // the list stays short.
        assert!(a.active_traces() < 15, "{} traces", a.active_traces());
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn rejects_bad_lambda() {
        QLambdaAgent::<usize>::new(
            2,
            Schedule::Constant(0.1),
            0.9,
            1.5,
            ExplorationPolicy::EpsilonGreedy {
                epsilon: Schedule::Constant(0.1),
            },
            0,
        );
    }
}
