//! RL-based multi-objective design-space exploration of approximate
//! computing configurations — the reproduced paper's core contribution.
//!
//! A **configuration** ([`config::AxConfig`]) selects one approximate adder,
//! one approximate multiplier (from the pre-characterised
//! [`ax_operators::OperatorLibrary`]) and a subset of program variables
//! whose additions/multiplications run approximately. The
//! [`env::DseEnv`] wraps a benchmark ([`ax_workloads::Workload`]) as a
//! Gymnasium-style environment whose:
//!
//! * **state** is the paper's Equation 1 tuple (adder, multiplier, variable
//!   vector, Δaccuracy, Δpower, Δtime);
//! * **actions** change the adder, change the multiplier, or toggle one
//!   variable;
//! * **reward** is the paper's Algorithm 1 ([`reward`]), driven by
//!   calibrated [`thresholds`] (power/time gains ≥ 50 % of the precise run,
//!   accuracy loss ≤ 0.4 × the mean precise output);
//! * evaluation runs the instrumented program through [`ax_vm`] with
//!   memoisation ([`backend::Evaluator`]).
//!
//! [`campaign`] is the public face: a declarative
//! [`campaign::ExperimentSpec`] (benchmarks × agent roster × seed range,
//! backend choice, global evaluation budget) run by
//! [`campaign::run_spec`] through one polymorphic
//! [`campaign::Campaign`] driver that reproduces the paper's Table III and
//! Figures 2–4 and scales to multi-benchmark portfolios. [`analysis`]
//! post-processes traces (min/solution/max summaries, trend lines, reward
//! bins, Pareto fronts, hypervolume) and [`search_adapter`] exposes the same
//! problem to the classic baselines in [`ax_agents::search`]. The old free
//! functions (`explore_qlearning`, `sweep_seeds*`, `race_portfolio*`) were
//! removed in 0.2 — every entry point routes through the campaign driver.
//!
//! ```
//! use ax_dse::campaign::{run_spec, BenchmarkSpec, ExperimentSpec, SeedRange};
//! use ax_dse::explore::{AgentKind, ExploreOptions};
//!
//! let spec = ExperimentSpec::new("doc")
//!     .benchmark(BenchmarkSpec::Dot(8))
//!     .agent(AgentKind::QLearning)
//!     .seeds(SeedRange::new(0, 2))
//!     .explore(ExploreOptions { max_steps: 300, ..Default::default() });
//! let report = run_spec(&spec, Default::default()).unwrap();
//! assert_eq!(report.cells[0].summary.seeds, 2);
//! assert!(report.portfolios[0].winner().summary.power.max
//!     >= report.portfolios[0].winner().summary.power.min);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod backend;
pub mod campaign;
pub mod config;
pub mod env;
pub mod explore;
pub mod json;
pub mod pareto;
pub mod report;
pub mod reward;
pub mod search_adapter;
pub mod sweep;
pub mod thresholds;

pub use backend::{EvalBackend, EvalContext, EvalMetrics, Evaluator, ExecEngine, SharedCache};
pub use campaign::{
    BackendSpec, BenchmarkSpec, BudgetPolicy, Campaign, CampaignReport, Event, EventKind,
    ExperimentSpec, MetricsSnapshot, Observer, SeedRange, Telemetry,
};
pub use config::AxConfig;
pub use env::{DseEnv, StepTrace};
pub use explore::{
    explore_backend, ExplorationOutcome, ExplorationSummary, ExploreOptions, ResumableExploration,
};
pub use pareto::{DesignObjectives, Objective, ObjectiveDecl, Ranking};
pub use reward::RewardParams;
pub use sweep::{summarize_outcomes, PortfolioEntry, PortfolioOutcome, SweepStat, SweepSummary};
pub use thresholds::{ThresholdRule, Thresholds};
