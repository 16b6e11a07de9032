//! The DSE environment (paper Figure 1).
//!
//! [`DseEnv`] is the Gymnasium-style environment of the paper: at each step
//! it receives an action (change adder / change multiplier / toggle one
//! variable), deploys the corresponding approximate application on the
//! exact backend's execution engine, computes (Δacc, Δpower, Δtime)
//! against the precise run and returns the Algorithm 1 reward. The observation handed
//! to the tabular agent is the discrete configuration part of the state,
//! numbered by its design ordinal ([`SpaceDims::ordinal`]), which the
//! agent's Q-table indexes directly; the continuous Δ observations are
//! recorded per step in the environment's [`StepTrace`] (they are functions
//! of the configuration, so the tabular state loses no information).
//!
//! Every step is also folded into a fixed-size [`RunSummary`] — what a
//! Table III summary and a campaign scheduler read — so an environment
//! that keeps no per-step trace ([`DseEnv::set_recording`]) still
//! summarises its whole run.

use crate::analysis::MetricRange;
use crate::backend::{EvalBackend, EvalMetrics, Evaluator};
use crate::config::{AxConfig, SpaceDims};
use crate::pareto::DesignObjectives;
use crate::reward::{reward, RewardParams};
use crate::search_adapter::solution_score;
use ax_agents::env::{Env, Step};
use ax_operators::{AdderId, MulId};

/// A decoded environment action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DseAction {
    /// Select adder `i` of the width class.
    SetAdder(usize),
    /// Select multiplier `i` of the width class.
    SetMultiplier(usize),
    /// Toggle approximable variable `i`.
    ToggleVar(u32),
}

/// One recorded environment step (configuration, observations, reward).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepTrace {
    /// Global step index (0-based).
    pub step: u64,
    /// The configuration *after* applying the action.
    pub config: AxConfig,
    /// The observations of that configuration.
    pub metrics: EvalMetrics,
    /// The Algorithm 1 reward.
    pub reward: f64,
    /// Algorithm 1 raised the terminate flag.
    pub terminated: bool,
}

/// The fixed-size fold of every step an environment has taken, across all
/// episodes: everything a Table III summary and a campaign scheduler read
/// of a run, kept in O(1) space whether or not the per-step trace is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// Steps taken.
    pub steps: u64,
    /// The latest step (`None` before the first) — its configuration is the
    /// exploration's solution.
    pub last: Option<StepTrace>,
    /// Running min / max of Δpower.
    pub power: MetricRange,
    /// Running min / max of Δtime.
    pub time: MetricRange,
    /// Running min / max of Δaccuracy.
    pub accuracy: MetricRange,
    /// The best visited design under
    /// [`crate::search_adapter::solution_score`]; a later design displaces
    /// it only with a strictly greater score.
    pub best: DesignObjectives,
}

impl RunSummary {
    /// The summary of no steps.
    fn empty() -> Self {
        Self {
            steps: 0,
            last: None,
            power: MetricRange::EMPTY,
            time: MetricRange::EMPTY,
            accuracy: MetricRange::EMPTY,
            best: DesignObjectives::none(),
        }
    }

    /// Folds one step, whose design scores `score`, in.
    fn push(&mut self, step: StepTrace, score: f64) {
        let m = &step.metrics;
        self.steps += 1;
        self.power.push(m.delta_power);
        self.time.push(m.delta_time);
        self.accuracy.push(m.delta_acc);
        self.best.fold(DesignObjectives {
            score,
            qor_error: m.delta_acc,
            op_cost: m.power,
        });
        self.last = Some(step);
    }
}

/// The approximate-computing design-space exploration environment.
///
/// Generic over the [`EvalBackend`] scoring configurations: the default is
/// the exact [`Evaluator`] (compiled engine), but any backend (a timing
/// wrapper, a remote service) slots in without touching the environment.
pub struct DseEnv<B: EvalBackend = Evaluator> {
    evaluator: B,
    params: RewardParams,
    config: AxConfig,
    summary: RunSummary,
    /// Every step in order; `None` when recording is off.
    trace: Option<Vec<StepTrace>>,
}

impl<B: EvalBackend> DseEnv<B> {
    /// Wraps an evaluation backend with reward parameters.
    ///
    /// # Panics
    ///
    /// Panics if the backend's space holds more than
    /// [`SpaceDims::MAX_DESIGNS`] designs: observations are design
    /// ordinals.
    pub fn new(evaluator: B, params: RewardParams) -> Self {
        let dims = evaluator.dims();
        assert!(
            dims.within_design_cap(),
            "a space of {} × {} × 2^{} designs exceeds the {}-design cap",
            dims.n_add,
            dims.n_mul,
            dims.n_vars,
            SpaceDims::MAX_DESIGNS
        );
        Self {
            evaluator,
            params,
            config: AxConfig::precise(),
            summary: RunSummary::empty(),
            trace: Some(Vec::new()),
        }
    }

    /// Keeps (the default) or drops the per-step [`StepTrace`] record. The
    /// [`RunSummary`] is folded either way, so a run that only needs its
    /// summary — every campaign run — keeps O(1) state per run. Switching
    /// recording off discards the steps recorded so far; switching it on
    /// records from the next step.
    pub fn set_recording(&mut self, on: bool) {
        if on != self.trace.is_some() {
            self.trace = on.then(Vec::new);
        }
    }

    /// The configuration-space dimensions.
    pub fn dims(&self) -> SpaceDims {
        self.evaluator.dims()
    }

    /// Number of discrete actions (`n_add + n_mul + n_vars`).
    pub fn action_count(&self) -> usize {
        self.dims().action_count()
    }

    /// Decodes a flat action index.
    ///
    /// # Panics
    ///
    /// Panics if `action` is out of range.
    pub fn decode_action(&self, action: usize) -> DseAction {
        let d = self.dims();
        if action < d.n_add {
            DseAction::SetAdder(action)
        } else if action < d.n_add + d.n_mul {
            DseAction::SetMultiplier(action - d.n_add)
        } else if action < d.action_count() {
            DseAction::ToggleVar((action - d.n_add - d.n_mul) as u32)
        } else {
            panic!("action {action} out of range {}", d.action_count());
        }
    }

    /// The current configuration.
    pub fn config(&self) -> AxConfig {
        self.config
    }

    /// The reward parameters in force.
    pub fn params(&self) -> RewardParams {
        self.params
    }

    /// The full step trace across all episodes of this environment (empty
    /// when recording is off, see [`DseEnv::set_recording`]).
    pub fn trace(&self) -> &[StepTrace] {
        self.trace.as_deref().unwrap_or_default()
    }

    /// The fold of every step taken so far, recorded or not.
    pub fn summary(&self) -> &RunSummary {
        &self.summary
    }

    /// The underlying evaluation backend.
    pub fn evaluator(&self) -> &B {
        &self.evaluator
    }

    /// Consumes the environment, returning backend and trace (empty when
    /// recording is off).
    pub fn into_parts(self) -> (B, Vec<StepTrace>) {
        (self.evaluator, self.trace.unwrap_or_default())
    }

    fn apply(&self, action: usize) -> AxConfig {
        let mut next = self.config;
        match self.decode_action(action) {
            DseAction::SetAdder(i) => next.adder = AdderId(i),
            DseAction::SetMultiplier(i) => next.mul = MulId(i),
            DseAction::ToggleVar(i) => next.vars ^= 1 << i,
        }
        next
    }
}

impl<B: EvalBackend> Env for DseEnv<B> {
    /// The current design's ordinal ([`SpaceDims::ordinal`]).
    type Obs = usize;
    type Action = usize;

    fn reset(&mut self, _seed: Option<u64>) -> usize {
        // Inputs are fixed at construction (the paper explores one benchmark
        // instance); reset only returns to the precise configuration. The
        // trace and run summary deliberately persist across episodes — they
        // are the global exploration record behind Figures 2-4 and Table III.
        self.config = AxConfig::precise();
        self.dims().ordinal(&self.config)
    }

    fn step(&mut self, action: &usize) -> Step<usize> {
        let next = self.apply(*action);
        let metrics = self
            .evaluator
            .evaluate(&next)
            .expect("validated workload evaluation cannot fail");
        let (r, terminate) = reward(&next, self.dims(), &metrics, &self.params);
        self.config = next;
        let step = StepTrace {
            step: self.summary.steps,
            config: next,
            metrics,
            reward: r,
            terminated: terminate,
        };
        let score = solution_score(
            &metrics,
            &self.params.thresholds,
            self.evaluator.precise_power(),
            self.evaluator.precise_time(),
        );
        self.summary.push(step, score);
        if let Some(trace) = &mut self.trace {
            trace.push(step);
        }
        Step {
            obs: self.dims().ordinal(&next),
            reward: r,
            terminated: terminate,
            truncated: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thresholds::ThresholdRule;
    use ax_operators::OperatorLibrary;
    use ax_workloads::matmul::MatMul;

    fn env() -> DseEnv {
        let lib = OperatorLibrary::evoapprox();
        let ev = Evaluator::new(&MatMul::new(4), &lib, 3).unwrap();
        let th = ThresholdRule::paper().calibrate(&ev);
        DseEnv::new(ev, RewardParams::new(100.0, th))
    }

    #[test]
    fn action_decoding_covers_all_kinds() {
        let e = env();
        assert_eq!(e.action_count(), 16);
        assert_eq!(e.decode_action(0), DseAction::SetAdder(0));
        assert_eq!(e.decode_action(5), DseAction::SetAdder(5));
        assert_eq!(e.decode_action(6), DseAction::SetMultiplier(0));
        assert_eq!(e.decode_action(11), DseAction::SetMultiplier(5));
        assert_eq!(e.decode_action(12), DseAction::ToggleVar(0));
        assert_eq!(e.decode_action(15), DseAction::ToggleVar(3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_action_rejected() {
        env().decode_action(16);
    }

    #[test]
    fn reset_returns_precise_state() {
        let mut e = env();
        assert_eq!(e.reset(None), 0);
        assert_eq!(e.config(), AxConfig::precise());
    }

    #[test]
    fn step_applies_action_and_traces() {
        let mut e = env();
        e.reset(None);
        let s = e.step(&3); // SetAdder(3): (3 · 6 + 0) << 4
        assert_eq!(s.obs, 288);
        let s = e.step(&12); // ToggleVar(0)
        assert_eq!(s.obs, 289);
        assert_eq!(e.trace().len(), 2);
        assert_eq!(e.trace()[1].config.vars, 1);
        let s = e.step(&7); // SetMultiplier(1)
        assert_eq!(s.obs, e.dims().ordinal(&e.config()));
        assert_eq!(s.obs, ((3 * 6 + 1) << 4) | 1);
    }

    #[test]
    fn toggle_twice_restores() {
        let mut e = env();
        e.reset(None);
        e.step(&14);
        let s = e.step(&14);
        assert_eq!(s.obs, 0);
    }

    #[test]
    fn precise_steps_earn_minus_one() {
        // Changing operators without selecting variables keeps the run
        // precise: within accuracy but zero gains -> reward -1.
        let mut e = env();
        e.reset(None);
        let s = e.step(&2);
        assert_eq!(s.reward, -1.0);
        assert!(!s.terminated);
    }

    #[test]
    fn trace_survives_reset() {
        let mut e = env();
        e.reset(None);
        e.step(&1);
        e.reset(None);
        e.step(&2);
        assert_eq!(e.trace().len(), 2);
        assert_eq!(e.trace()[1].step, 1);
    }

    #[test]
    fn summary_folds_every_step_recorded_or_not() {
        use crate::analysis::{FigureSeries, MetricSummary};
        let (mut recorded, mut bare) = (env(), env());
        bare.set_recording(false);
        for e in [&mut recorded, &mut bare] {
            e.reset(None);
            for a in [3, 12, 7, 13, 12, 1, 14, 9, 15] {
                e.step(&a);
            }
            e.reset(None);
            e.step(&13);
        }
        assert!(bare.trace().is_empty());
        assert_eq!(bare.summary(), recorded.summary());
        let (trace, s) = (recorded.trace(), recorded.summary());
        assert_eq!(s.steps, trace.len() as u64);
        assert_eq!(s.last, trace.last().copied());
        let series = FigureSeries::from_trace(trace);
        let last = trace.last().unwrap().metrics;
        assert_eq!(
            s.power.summary(last.delta_power),
            MetricSummary::from_series(&series.power)
        );
        assert_eq!(
            s.accuracy.summary(last.delta_acc),
            MetricSummary::from_series(&series.accuracy)
        );
    }

    #[test]
    fn run_summary_keeps_the_earliest_of_equally_scored_designs() {
        let step = |i: u64, power: f64| StepTrace {
            step: i,
            config: AxConfig::precise(),
            metrics: EvalMetrics {
                delta_acc: 3.0,
                delta_power: -power,
                delta_time: 0.0,
                signed_error: 0.0,
                power,
                time_ns: 1.0,
            },
            reward: -1.0,
            terminated: false,
        };
        let mut s = RunSummary::empty();
        s.push(step(0, 10.0), -2.0);
        s.push(step(1, 5.0), -2.0);
        assert_eq!(s.best.op_cost, 10.0, "a tie must not displace the best");
        s.push(step(2, 7.0), -1.0);
        assert_eq!(s.best.op_cost, 7.0);
        assert_eq!((s.steps, s.last.map(|t| t.step)), (3, Some(2)));
        assert_eq!((s.power.min, s.power.max), (-10.0, -5.0));
    }

    #[test]
    fn repeated_states_reuse_cache() {
        let mut e = env();
        e.reset(None);
        e.step(&12);
        e.step(&12);
        e.step(&12); // back to vars=1, previously evaluated
        assert!(e.evaluator().cache_hits() >= 1);
    }

    #[test]
    fn env_is_pluggable_over_any_backend() {
        use crate::evaluator::EvalMetrics;
        use ax_operators::BitWidth;
        use ax_vm::ir::ProgramBuilder;
        use ax_vm::VmError;

        /// A trivial stand-in backend: constant metrics, counting calls.
        struct StubBackend {
            program: ax_vm::Program,
            calls: u64,
        }

        impl crate::evaluator::EvalBackend for StubBackend {
            fn dims(&self) -> crate::config::SpaceDims {
                crate::config::SpaceDims {
                    n_add: 2,
                    n_mul: 2,
                    n_vars: 1,
                }
            }
            fn program(&self) -> &ax_vm::Program {
                &self.program
            }
            fn precise_power(&self) -> f64 {
                100.0
            }
            fn precise_time(&self) -> f64 {
                100.0
            }
            fn mean_abs_output(&self) -> f64 {
                10.0
            }
            fn evaluate(&mut self, _c: &AxConfig) -> Result<EvalMetrics, VmError> {
                self.calls += 1;
                Ok(EvalMetrics {
                    delta_acc: 0.0,
                    delta_power: 0.0,
                    delta_time: 0.0,
                    signed_error: 0.0,
                    power: 100.0,
                    time_ns: 100.0,
                })
            }
        }

        let mut pb = ProgramBuilder::new("stub", BitWidth::W8, BitWidth::W8);
        let a = pb.input("a", 1);
        let y = pb.output("y", 1);
        pb.add(y.at(0), a.at(0), a.at(0));
        let program = pb.build().unwrap();

        let th = crate::thresholds::Thresholds {
            acc_th: 1.0,
            power_th: 1.0,
            time_th: 1.0,
        };
        let mut env = DseEnv::new(
            StubBackend { program, calls: 0 },
            RewardParams::new(10.0, th),
        );
        env.reset(None);
        env.step(&0);
        env.step(&2);
        assert_eq!(env.evaluator().calls, 2);
        assert_eq!(env.trace().len(), 2);
    }
}
