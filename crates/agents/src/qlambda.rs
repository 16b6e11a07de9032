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
use crate::policy::{ExplorationPolicy, PreparedPolicy};
use crate::qtable::QTable;
use crate::schedule::{PreparedSchedule, Schedule};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A Watkins Q(λ) agent.
#[derive(Debug, Clone)]
pub struct QLambdaAgent {
    q: QTable,
    alpha: PreparedSchedule,
    gamma: f64,
    /// γλ, the factor every trace decays by per step.
    trace_decay: f64,
    policy: PreparedPolicy,
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

impl QLambdaAgent {
    /// A Q(λ) agent.
    ///
    /// # Panics
    ///
    /// Panics if `n_actions` is zero, `gamma`/`lambda` lie outside
    /// `[0, 1]` or a schedule is malformed.
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
            alpha: alpha.prepare(),
            gamma,
            trace_decay: gamma * lambda,
            policy: policy.prepare(),
            rng: StdRng::seed_from_u64(seed),
            step: 0,
            traces: Vec::new(),
            last_was_greedy: true,
            trace_floor: 1e-4,
        }
    }

    /// Read access to the learned Q-table.
    pub fn q_table(&self) -> &QTable {
        &self.q
    }

    /// Number of live eligibility traces (diagnostics).
    pub fn active_traces(&self) -> usize {
        self.traces.len()
    }
}

impl TabularAgent for QLambdaAgent {
    fn select_action(&mut self, state: usize) -> usize {
        let row = self.q.row(state);
        let (action, greedy) = self.policy.choose_flagged(row, self.step, &mut self.rng);
        // A greedy-branch action attains the maximum; an exploratory one
        // may still tie it.
        self.last_was_greedy =
            greedy || row[action] == row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        self.step += 1;
        action
    }

    fn observe(&mut self, t: TabularTransition) {
        let bootstrap = if t.terminal {
            0.0
        } else {
            self.gamma * self.q.max_value(t.next_state)
        };
        let cell = self.q.cell(t.state, t.action);
        let values = self.q.cells_mut();
        let delta = t.reward + bootstrap - values[cell];
        let alpha_delta = self.alpha.value(self.step) * delta;
        // Watkins: exploratory actions cut the traces; so does episode end.
        let cut = t.terminal || !self.last_was_greedy;

        // Replacing traces: the visited pair's trace snaps to 1. Each
        // trace owns a distinct cell, so the sweep order is free, and a
        // new trace can be swept after the others.
        let (decay, floor) = (self.trace_decay, self.trace_floor);
        let mut traced = false;
        self.traces.retain_mut(|(c, e)| {
            if *c == cell {
                (*e, traced) = (1.0, true);
            }
            values[*c] += alpha_delta * *e;
            *e *= decay;
            !cut && *e >= floor
        });
        if !traced {
            values[cell] += alpha_delta;
            if !cut && decay >= floor {
                self.traces.push((cell, decay));
            }
        }
    }

    fn begin_episode(&mut self) {
        self.traces.clear();
    }

    fn greedy_action(&self, state: usize) -> usize {
        self.q.best_action(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Env;
    use crate::toy::LineWorld;
    use crate::train::{train, TrainOptions};

    fn agent(lambda: f64) -> QLambdaAgent {
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
        for s in 0..5 {
            assert_eq!(a.greedy_action(s), 1, "state {s}");
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
            a.q_table().value(0, 1) > 0.0,
            "trace did not reach the start"
        );
    }

    #[test]
    fn terminal_clears_traces() {
        let mut a = agent(0.9);
        a.observe(TabularTransition {
            state: 0,
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
        for s in 0..30 {
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
        QLambdaAgent::new(
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
