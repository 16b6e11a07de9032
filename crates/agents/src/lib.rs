//! Tabular reinforcement-learning agents and classic search baselines.
//!
//! The reproduced paper drives its design-space exploration with **tabular
//! Q-learning**; this crate provides that agent plus the surrounding
//! machinery and the alternatives used for ablation studies:
//!
//! * [`qlearning::QLearningAgent`] — the paper's learner (off-policy TD
//!   control);
//! * [`sarsa::SarsaAgent`] / [`sarsa::ExpectedSarsaAgent`] — on-policy
//!   alternatives;
//! * [`double_q::DoubleQAgent`] — double Q-learning (overestimation control);
//! * [`qlambda::QLambdaAgent`] — Watkins Q(λ) with eligibility traces (the
//!   paper's "improve the learning strategy" direction);
//! * [`policy`] — ε-greedy and softmax exploration over Q-values, with
//!   [`schedule::Schedule`]d hyper-parameters;
//! * [`qtable`] — the flat-arena Q-table every agent learns into, and
//!   [`fxhash`], the fixed hasher behind it;
//! * [`env`](mod@crate::env) — the Gymnasium-style `reset`/`step`
//!   contract agents train on;
//! * [`train`](mod@crate::train) — the continuing-exploration training
//!   loop with the paper's stop conditions (step cap, cumulative-reward
//!   target, environment termination);
//! * [`search`] — generic combinatorial optimisers over a [`search::SearchSpace`]:
//!   random search, hill climbing, simulated annealing and a genetic
//!   algorithm — the prior-art DSE approaches (the paper's \[3\], \[4\])
//!   that RL-based exploration is positioned against.
//!
//! ```
//! use ax_agents::agent::TabularAgent;
//! use ax_agents::env::{Env, Step};
//! use ax_agents::qlearning::QLearningBuilder;
//! use ax_agents::train::{train, TrainOptions};
//!
//! /// A six-cell chain walk: action 1 steps right, 0 left; reaching the
//! /// right end pays 1 and ends the episode.
//! struct Chain(usize);
//!
//! impl Env for Chain {
//!     type Obs = usize;
//!     type Action = usize;
//!
//!     fn reset(&mut self, _seed: Option<u64>) -> usize {
//!         self.0 = 0;
//!         0
//!     }
//!
//!     fn step(&mut self, action: &usize) -> Step<usize> {
//!         self.0 = if *action == 1 { self.0 + 1 } else { self.0.saturating_sub(1) };
//!         let goal = self.0 == 5;
//!         Step { obs: self.0, reward: f64::from(u8::from(goal)), terminated: goal, truncated: false }
//!     }
//! }
//!
//! let mut agent = QLearningBuilder::new(2).gamma(0.9).seed(1).build();
//! let log = train(&mut Chain(0), &mut agent, &TrainOptions::new(4_000).seed(7));
//! assert_eq!(log.len(), 4_000);
//! // After training, the greedy policy walks right from the start state.
//! assert_eq!(agent.greedy_action(&0usize), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod agent;
pub mod double_q;
pub mod env;
pub mod fxhash;
pub mod policy;
pub mod qlambda;
pub mod qlearning;
pub mod qtable;
pub mod sarsa;
pub mod schedule;
pub mod search;
#[cfg(test)]
mod toy;
pub mod train;

pub use agent::{TabularAgent, TabularTransition};
pub use qlearning::QLearningAgent;
pub use qtable::QTable;
pub use schedule::Schedule;
pub use train::{train, StepRecord, TrainLog, TrainOptions, TrainSession};
