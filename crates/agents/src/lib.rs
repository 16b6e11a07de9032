//! The tabular reinforcement-learning agent and classic search baselines.
//!
//! The reproduced paper drives its design-space exploration with **tabular
//! Q-learning**; this crate provides that agent plus the surrounding
//! machinery and the alternatives used for ablation studies:
//!
//! * [`agent::Agent`] — one ε-greedy agent whose [`agent::AgentKind`]
//!   picks its update rule: Q-learning (the paper's learner), SARSA,
//!   Expected SARSA, double Q-learning or Watkins Q(λ) with eligibility
//!   traces (the paper's "improve the learning strategy" direction), with
//!   [`schedule::Schedule`]d learning and exploration rates;
//! * [`qtable`] — the flat-arena Q-table the agent learns into, its rows
//!   indexed by state ordinal;
//! * [`env`](mod@crate::env) — the Gymnasium-style `reset`/`step`
//!   contract agents train on, with states numbered `0, 1, 2, …`;
//! * [`train`] — the pausable continuing-exploration loop with the paper's
//!   stop conditions (step cap, cumulative-reward target, environment
//!   termination);
//! * [`search`] — generic combinatorial optimisers over a [`search::SearchSpace`]:
//!   random search, hill climbing, simulated annealing and a genetic
//!   algorithm — the prior-art DSE approaches (the paper's \[3\], \[4\])
//!   that RL-based exploration is positioned against;
//! * [`fxhash`] — a fixed word hasher for maps keyed by small integers the
//!   program derives itself.
//!
//! ```
//! use ax_agents::agent::{Agent, AgentKind};
//! use ax_agents::env::{Env, Step};
//! use ax_agents::schedule::Schedule;
//! use ax_agents::train::{TrainOptions, TrainSession};
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
//! let epsilon = Schedule::Linear { start: 1.0, end: 0.05, steps: 3_000 };
//! let mut agent = Agent::new(AgentKind::QLearning, 2, Schedule::Constant(0.1), 0.9, epsilon, 1);
//! let (mut env, opts) = (Chain(0), TrainOptions::new(4_000).seed(7));
//! let mut session = TrainSession::start(&mut env, &mut agent, &opts);
//! session.resume(&mut env, &mut agent, &opts, || false);
//! assert_eq!(session.steps_taken(), 4_000);
//! // After training, the greedy policy walks right from the start state.
//! assert_eq!(agent.q_table().best_action(0), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod agent;
pub mod env;
pub mod fxhash;
pub mod qtable;
pub mod schedule;
pub mod search;
#[cfg(test)]
mod toy;
pub mod train;

pub use agent::{Agent, AgentKind, Transition};
pub use qtable::QTable;
pub use schedule::Schedule;
pub use train::{TrainOptions, TrainSession};
