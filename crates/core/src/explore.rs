//! The exploration primitive: reproduces one Table III column per call.
//!
//! [`explore_backend`] builds the [`DseEnv`] over any evaluation backend,
//! calibrates the thresholds from the precise run, trains an agent under
//! the paper's stop rules (terminate flag, cumulative-reward target `R`,
//! 10 000 step cap; a [`ResumableExploration`] also pauses on a
//! cooperative stop signal) and reads the environment's fold of its steps
//! ([`crate::env::RunSummary`]) into an [`ExplorationSummary`]. The
//! entry points are the [`crate::campaign`] layer's
//! [`crate::campaign::Campaign`] driver and its single-run
//! [`crate::campaign::explore`]; the legacy free-function wrappers
//! (`explore_qlearning` and friends) were removed in 0.2.

use crate::analysis::{FigureSeries, MetricSummary};
use crate::backend::{EvalBackend, Evaluator};
use crate::env::{DseEnv, StepTrace};
use crate::pareto::DesignObjectives;
use crate::reward::RewardParams;
use crate::thresholds::{ThresholdRule, Thresholds};
use ax_agents::agent::Agent;
pub use ax_agents::agent::AgentKind;
use ax_agents::schedule::Schedule;
use ax_agents::train::{StopReason, TrainOptions, TrainSession};
use ax_operators::OperatorLibrary;

/// Options of one exploration run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExploreOptions {
    /// Step cap (paper: 10 000, "selected upon trial and error").
    pub max_steps: u64,
    /// Agent RNG seed.
    pub seed: u64,
    /// Benchmark input seed.
    pub input_seed: u64,
    /// The paper's `R`: terminal bonus, accuracy penalty and cumulative
    /// stop target.
    pub max_reward: f64,
    /// Threshold calibration rule (paper: 0.5 / 0.5 / 0.4).
    pub rule: ThresholdRule,
    /// Q-learning learning rate.
    pub alpha: Schedule,
    /// Q-learning discount factor.
    pub gamma: f64,
    /// ε-greedy exploration schedule.
    pub epsilon: Schedule,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        // The paper reports neither R nor the agent's hyper-parameters; these
        // defaults are tuned (see EXPERIMENTS.md) so the explorations show
        // the paper's qualitative behaviour: MatMul reaches the cumulative
        // reward target mid-exploration (paper: ~2 000 steps) while FIR
        // struggles and exhausts the step cap.
        Self {
            max_steps: 10_000,
            seed: 0,
            input_seed: 42,
            max_reward: 100.0,
            rule: ThresholdRule::paper(),
            alpha: Schedule::Constant(0.5),
            gamma: 0.95,
            // ε decays to zero: once the agent has located the feasible
            // region, residual random actions mostly draw the −R accuracy
            // penalty (Algorithm 1) and stall the cumulative-reward stop
            // rule. With ε → 0 the MatMul exploration reaches the target on
            // every agent seed (paper: stop at ~2 000 of 10 000 steps)
            // while FIR still exhausts the cap, matching Table III.
            epsilon: Schedule::Exponential {
                start: 0.3,
                end: 0.0,
                decay: 0.99,
            },
        }
    }
}

/// One Table III block: the summary of an exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplorationSummary {
    /// Benchmark name.
    pub benchmark: String,
    /// Δ power consumption (mW): min / solution / max.
    pub power: MetricSummary,
    /// Δ computation time (ns): min / solution / max.
    pub time: MetricSummary,
    /// Accuracy degradation (MAE): min / solution / max.
    pub accuracy: MetricSummary,
    /// Adder of the final configuration (paper's "Adder Type" row).
    pub adder_name: String,
    /// Multiplier of the final configuration ("Multiplier Type" row).
    pub mul_name: String,
    /// Steps taken before the exploration stopped.
    pub steps: u64,
}

/// Everything produced by one exploration.
///
/// Generic over the [`EvalBackend`] that scored the designs; the default is
/// the exact [`Evaluator`] (what [`crate::campaign::explore`] returns),
/// while [`explore_backend`] threads any backend through unchanged.
#[derive(Debug)]
pub struct ExplorationOutcome<B: EvalBackend = Evaluator> {
    /// Per-step environment trace (configuration, Δs, reward). Single
    /// explorations ([`explore_backend`] and friends) keep every step;
    /// campaign runs ([`ResumableExploration::start_unrecorded`]) leave it
    /// empty — read [`ExplorationOutcome::last_step`] and the summary
    /// instead.
    pub trace: Vec<StepTrace>,
    /// Cumulative reward over every step.
    pub total_reward: f64,
    /// The exploration's last step: its configuration is the solution.
    pub last_step: StepTrace,
    /// Why the exploration stopped.
    pub stop_reason: StopReason,
    /// The calibrated thresholds in force.
    pub thresholds: Thresholds,
    /// The Table III style summary.
    pub summary: ExplorationSummary,
    /// Distinct configurations the backend holds metrics for.
    pub distinct_configs: u64,
    /// The backend (retains the evaluation cache for Pareto analysis).
    pub evaluator: B,
}

impl<B: EvalBackend> ExplorationOutcome<B> {
    /// The per-step Δ series for Figures 2 and 3 (empty for a campaign
    /// run, which keeps no trace).
    pub fn figure_series(&self) -> FigureSeries {
        FigureSeries::from_trace(&self.trace)
    }
}

/// Runs an exploration through an arbitrary [`EvalBackend`].
///
/// This is the backend-polymorphic core of every exploration entry point:
/// [`crate::campaign::explore`] passes the exact [`Evaluator`], the
/// campaign driver its budget-metered wrapper of one. `lib` and
/// `benchmark` supply the operator names and benchmark label for the
/// summary (a backend only knows dimensions and metrics).
///
/// # Panics
///
/// Panics if the exploration takes no steps (`max_steps == 0`).
pub fn explore_backend<B: EvalBackend>(
    backend: B,
    lib: &OperatorLibrary,
    benchmark: &str,
    opts: &ExploreOptions,
    kind: AgentKind,
) -> ExplorationOutcome<B> {
    let mut run = ResumableExploration::start(backend, benchmark, opts, kind);
    run.resume(|| false);
    run.finish(lib)
}

/// A pausable exploration: environment, agent and training session bundled
/// so the run can stop at a step boundary and continue later with all
/// learned state intact.
///
/// [`ResumableExploration::start`] keeps every step for figures and
/// tables; [`ResumableExploration::start_unrecorded`] — what the campaign
/// driver runs — keeps only the environment's fixed-size
/// [`crate::env::RunSummary`], from which the best design, the summary and
/// the last step are read either way, so both take the same trajectory
/// and report the same summary.
///
/// This is the primitive the campaign's rung engine is built on, for
/// every budget policy: each pass resumes the running cells' runs
/// against their replenished budgets, and eliminated or parked runs are
/// simply not resumed. A single `start` + `resume` + `finish` is what
/// [`explore_backend`] runs; splitting the same exploration over several
/// resumes — at rung boundaries or anywhere else — changes nothing but
/// where it pauses (see [`ax_agents::train::TrainSession`]).
pub struct ResumableExploration<B: EvalBackend> {
    env: DseEnv<B>,
    agent: Agent,
    session: TrainSession,
    train_opts: TrainOptions,
    thresholds: Thresholds,
    benchmark: String,
}

impl<B: EvalBackend> ResumableExploration<B> {
    /// Opens an exploration: calibrates thresholds from the backend's
    /// precise run, builds environment and agent and seeds the first
    /// episode. No design is evaluated yet. The run records every step
    /// (the outcome's `trace`).
    pub fn start(backend: B, benchmark: &str, opts: &ExploreOptions, kind: AgentKind) -> Self {
        Self::open(backend, benchmark, opts, kind, true)
    }

    /// [`ResumableExploration::start`] keeping no per-step record: the run
    /// holds O(1) state however many steps it takes, and its outcome has
    /// an empty `trace` but the same summary, last step, stop reason and
    /// cumulative reward.
    pub fn start_unrecorded(
        backend: B,
        benchmark: &str,
        opts: &ExploreOptions,
        kind: AgentKind,
    ) -> Self {
        Self::open(backend, benchmark, opts, kind, false)
    }

    fn open(
        backend: B,
        benchmark: &str,
        opts: &ExploreOptions,
        kind: AgentKind,
        record: bool,
    ) -> Self {
        let thresholds = opts.rule.calibrate(&backend);
        let params = RewardParams::new(opts.max_reward, thresholds);
        let mut env = DseEnv::new(backend, params);
        env.set_recording(record);
        let mut agent = Agent::new(
            kind,
            env.action_count(),
            opts.alpha,
            opts.gamma,
            opts.epsilon,
            opts.seed,
        );
        let train_opts = TrainOptions::new(opts.max_steps)
            .seed(opts.input_seed)
            .reward_target(opts.max_reward)
            .stop_on_terminate();
        let session = TrainSession::start(&mut env, &mut agent, &train_opts);
        Self {
            env,
            agent,
            session,
            train_opts,
            thresholds,
            benchmark: benchmark.to_owned(),
        }
    }

    /// Continues the exploration until a stop rule or `should_stop` fires.
    /// Resuming a complete run takes no step.
    pub fn resume<S: FnMut() -> bool>(&mut self, should_stop: S) -> StopReason {
        self.session.resume(
            &mut self.env,
            &mut self.agent,
            &self.train_opts,
            should_stop,
        )
    }

    /// `true` once nothing is left to resume: the step cap, reward target
    /// or terminate flag ended the run. A run last paused by `should_stop`
    /// stays resumable.
    pub fn is_complete(&self) -> bool {
        self.session.is_complete(&self.train_opts)
    }

    /// Why the last resume returned.
    pub fn stop_reason(&self) -> StopReason {
        self.session.stop_reason()
    }

    /// Steps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.session.steps_taken()
    }

    /// The best design's solution score seen so far — the
    /// [`crate::search_adapter::solution_score`] scalarisation of the best
    /// visited configuration (normalised power + time gains when feasible,
    /// negative accuracy violation otherwise). Normalisation by the
    /// precise run makes scores comparable *across benchmarks*, which is
    /// what lets successive halving rank a mixed-benchmark grid. The
    /// discrete step reward would not do: it saturates at +1 for every
    /// cell that finds any useful approximation. `NEG_INFINITY` before
    /// the first step.
    ///
    /// The environment folds every step into its run summary as it takes
    /// it, so this is a field read however often a scheduler asks.
    pub fn best_score(&self) -> f64 {
        self.best_objectives().score
    }

    /// The per-objective coordinates of the same best design
    /// [`Self::best_score`] tracks: its Δaccuracy (QoR error) and
    /// absolute power draw (op cost), alongside the scalar. Updated only
    /// when the scalar strictly improves, so the scalar fold — and with
    /// it every scalarised campaign — is bit-identical to the
    /// pre-objective-vector behaviour.
    pub fn best_objectives(&self) -> DesignObjectives {
        self.env.summary().best
    }

    /// The benchmark label.
    pub fn benchmark(&self) -> &str {
        &self.benchmark
    }

    /// The calibrated thresholds in force.
    pub fn thresholds(&self) -> Thresholds {
        self.thresholds
    }

    /// The evaluation backend (for budget accounting mid-run).
    pub fn backend(&self) -> &B {
        self.env.evaluator()
    }

    /// Closes the run into an [`ExplorationOutcome`]; `lib` supplies the
    /// operator names of the summary.
    ///
    /// # Panics
    ///
    /// Panics if the exploration took no steps (`max_steps == 0`).
    pub fn finish(self, lib: &OperatorLibrary) -> ExplorationOutcome<B> {
        let Self {
            env,
            session,
            thresholds,
            benchmark,
            ..
        } = self;
        let run = *env.summary();
        let last = run.last.expect("exploration took no steps");
        let (evaluator, trace) = env.into_parts();

        let m = &last.metrics;
        let add_width = evaluator.program().add_width();
        let mul_width = evaluator.program().mul_width();
        let summary = ExplorationSummary {
            benchmark,
            power: run.power.summary(m.delta_power),
            time: run.time.summary(m.delta_time),
            accuracy: run.accuracy.summary(m.delta_acc),
            adder_name: lib
                .adder(add_width, last.config.adder)
                .spec
                .name()
                .to_owned(),
            mul_name: lib
                .multiplier(mul_width, last.config.mul)
                .spec
                .name()
                .to_owned(),
            steps: run.steps,
        };

        ExplorationOutcome {
            distinct_configs: evaluator.distinct_evaluations(),
            trace,
            total_reward: session.total_reward(),
            last_step: last,
            stop_reason: session.stop_reason(),
            thresholds,
            summary,
            evaluator,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::EvalContext;
    use ax_workloads::dot::DotProduct;
    use ax_workloads::matmul::MatMul;
    use ax_workloads::Workload;

    fn lib() -> OperatorLibrary {
        OperatorLibrary::evoapprox()
    }

    fn quick_opts(steps: u64) -> ExploreOptions {
        ExploreOptions {
            max_steps: steps,
            ..Default::default()
        }
    }

    /// One exact-backend exploration through the campaign primitive — what
    /// the removed `explore_qlearning`/`explore_with_agent` wrappers did.
    fn explore_exact(
        workload: &dyn Workload,
        lib: &OperatorLibrary,
        opts: &ExploreOptions,
        kind: AgentKind,
    ) -> ExplorationOutcome {
        let ctx = EvalContext::new(workload, std::sync::Arc::new(lib.clone()), opts.input_seed)
            .expect("benchmark builds against the library");
        crate::campaign::explore(&ctx, opts, kind)
    }

    #[test]
    fn exploration_produces_consistent_outputs() {
        let outcome = explore_exact(
            &MatMul::new(4),
            &lib(),
            &quick_opts(400),
            AgentKind::QLearning,
        );
        assert_eq!(outcome.summary.steps, outcome.trace.len() as u64);
        let rewards = outcome.trace.iter().fold(0.0, |acc, t| acc + t.reward);
        assert_eq!(outcome.total_reward, rewards);
        assert!(outcome.summary.power.min <= outcome.summary.power.solution);
        assert!(outcome.summary.power.solution <= outcome.summary.power.max);
        assert!(outcome.distinct_configs >= 1);
        // All four benchmarks use named operators from the library.
        assert!(!outcome.summary.adder_name.is_empty());
        assert!(!outcome.summary.mul_name.is_empty());
    }

    #[test]
    fn exploration_is_seed_reproducible() {
        let a = explore_exact(
            &DotProduct::new(8),
            &lib(),
            &quick_opts(300),
            AgentKind::QLearning,
        );
        let b = explore_exact(
            &DotProduct::new(8),
            &lib(),
            &quick_opts(300),
            AgentKind::QLearning,
        );
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.summary, b.summary);
    }

    #[test]
    fn different_agent_seeds_explore_differently() {
        let mut o1 = quick_opts(300);
        o1.seed = 1;
        let mut o2 = quick_opts(300);
        o2.seed = 2;
        let a = explore_exact(&DotProduct::new(8), &lib(), &o1, AgentKind::QLearning);
        let b = explore_exact(&DotProduct::new(8), &lib(), &o2, AgentKind::QLearning);
        assert_ne!(a.trace, b.trace);
    }

    #[test]
    fn cache_bounds_distinct_configs() {
        let outcome = explore_exact(
            &MatMul::new(4),
            &lib(),
            &quick_opts(500),
            AgentKind::QLearning,
        );
        let dims_card = 6 * 6 * 16;
        assert!(outcome.distinct_configs <= dims_card);
        // With 500 steps the agent revisits configurations: far fewer
        // distinct evaluations than steps is the whole point of the cache.
        assert!(outcome.distinct_configs <= outcome.trace.len() as u64);
    }

    #[test]
    fn reward_target_stop_is_possible() {
        // A generous accuracy budget and tiny R make the target reachable.
        let mut opts = quick_opts(5_000);
        opts.max_reward = 20.0;
        opts.rule = ThresholdRule {
            power_frac: 0.05,
            time_frac: 0.05,
            acc_frac: 10.0,
        };
        let outcome = explore_exact(&DotProduct::new(8), &lib(), &opts, AgentKind::QLearning);
        assert_eq!(outcome.stop_reason, StopReason::RewardTarget);
        assert!(outcome.trace.len() < 5_000);
    }

    #[test]
    fn figure_series_lengths_match_trace() {
        let outcome = explore_exact(
            &DotProduct::new(8),
            &lib(),
            &quick_opts(200),
            AgentKind::QLearning,
        );
        let series = outcome.figure_series();
        assert_eq!(series.power.len(), outcome.trace.len());
        assert_eq!(series.accuracy.len(), outcome.trace.len());
    }

    #[test]
    fn fragmented_resumes_match_one_shot_exploration() {
        let l = lib();
        let wl = DotProduct::new(8);
        let opts = quick_opts(200);
        let ctx = EvalContext::new(&wl, std::sync::Arc::new(l.clone()), opts.input_seed).unwrap();
        let reference = explore_backend(
            ctx.evaluator(),
            &l,
            ctx.benchmark(),
            &opts,
            AgentKind::QLearning,
        );
        let mut run = ResumableExploration::start(
            ctx.evaluator(),
            ctx.benchmark(),
            &opts,
            AgentKind::QLearning,
        );
        let mut resumes = 0;
        while !run.is_complete() {
            let mut polls = 0u64;
            run.resume(|| {
                polls += 1;
                polls >= 23
            });
            resumes += 1;
        }
        assert!(resumes > 3, "the pause signal must actually fragment");
        let out = run.finish(&l);
        assert_eq!(out.trace, reference.trace);
        assert_eq!(out.total_reward, reference.total_reward);
        assert_eq!(out.summary, reference.summary);
        assert_eq!(out.stop_reason, reference.stop_reason);
    }

    const KINDS: [AgentKind; 5] = [
        AgentKind::QLearning,
        AgentKind::Sarsa,
        AgentKind::ExpectedSarsa,
        AgentKind::DoubleQ,
        AgentKind::QLambda { lambda: 0.7 },
    ];

    /// Runs `run` to completion — in one resume, or paused every `slice`
    /// steps with the best design read at each pause, as the ASHA
    /// scheduler does — and returns its outcome and best design.
    fn drive<B: EvalBackend>(
        mut run: ResumableExploration<B>,
        slice: Option<u64>,
        lib: &OperatorLibrary,
    ) -> (ExplorationOutcome<B>, DesignObjectives) {
        let mut best = DesignObjectives::none();
        while !run.is_complete() {
            let mut polls = 0u64;
            run.resume(|| {
                polls += 1;
                slice.is_some_and(|k| polls >= k)
            });
            best.fold(run.best_objectives());
        }
        assert_eq!(best, run.best_objectives());
        (run.finish(lib), best)
    }

    #[test]
    fn unrecorded_runs_match_recorded_runs() {
        let l = lib();
        let workloads: [&dyn Workload; 2] = [&DotProduct::new(8), &MatMul::new(4)];
        for wl in workloads {
            let ctx = EvalContext::new(wl, std::sync::Arc::new(l.clone()), 42).unwrap();
            for kind in KINDS {
                for seed in 0..3 {
                    let opts = ExploreOptions {
                        max_steps: 240,
                        seed,
                        ..Default::default()
                    };
                    let start = |record: bool| {
                        let b = ctx.benchmark();
                        if record {
                            ResumableExploration::start(ctx.evaluator(), b, &opts, kind)
                        } else {
                            ResumableExploration::start_unrecorded(ctx.evaluator(), b, &opts, kind)
                        }
                    };
                    let (reference, ref_best) = drive(start(true), None, &l);
                    let what = format!("{} {} seed {seed}", wl.name(), kind.name());

                    // The recorded run's fold is what re-scanning its trace
                    // gives: Table III rows, last step, best design.
                    let trace = &reference.trace;
                    assert_eq!(reference.summary.steps, trace.len() as u64, "{what}");
                    assert_eq!(Some(&reference.last_step), trace.last(), "{what}");
                    let series = FigureSeries::from_trace(trace);
                    assert_eq!(
                        reference.summary.power,
                        MetricSummary::from_series(&series.power)
                    );
                    assert_eq!(
                        reference.summary.time,
                        MetricSummary::from_series(&series.time)
                    );
                    assert_eq!(
                        reference.summary.accuracy,
                        MetricSummary::from_series(&series.accuracy)
                    );
                    let (power, time) = (
                        reference.evaluator.precise_power(),
                        reference.evaluator.precise_time(),
                    );
                    let mut rescanned = DesignObjectives::none();
                    for t in trace {
                        rescanned.fold(DesignObjectives {
                            score: crate::search_adapter::solution_score(
                                &t.metrics,
                                &reference.thresholds,
                                power,
                                time,
                            ),
                            qor_error: t.metrics.delta_acc,
                            op_cost: t.metrics.power,
                        });
                    }
                    assert_eq!(ref_best, rescanned, "{what}");
                    assert_eq!(
                        reference.total_reward,
                        trace.iter().fold(0.0, |acc, t| acc + t.reward),
                        "{what}"
                    );

                    for (record, slice) in [(true, Some(17)), (false, None), (false, Some(17))] {
                        let (out, best) = drive(start(record), slice, &l);
                        let what = format!("{what} record {record} slice {slice:?}");
                        assert_eq!(out.summary, reference.summary, "{what}");
                        assert_eq!(best, ref_best, "{what}");
                        assert_eq!(out.last_step, reference.last_step, "{what}");
                        assert_eq!(out.stop_reason, reference.stop_reason, "{what}");
                        assert_eq!(out.total_reward, reference.total_reward, "{what}");
                        assert_eq!(out.distinct_configs, reference.distinct_configs);
                        if record {
                            assert_eq!(out.trace, reference.trace, "{what}");
                        } else {
                            assert!(out.trace.is_empty(), "{what}: kept a trace");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn best_objectives_track_the_best_scalar_design() {
        let l = lib();
        let wl = DotProduct::new(8);
        let opts = quick_opts(200);
        let ctx = EvalContext::new(&wl, std::sync::Arc::new(l.clone()), opts.input_seed).unwrap();
        let mut run = ResumableExploration::start(
            ctx.evaluator(),
            ctx.benchmark(),
            &opts,
            AgentKind::QLearning,
        );
        while !run.is_complete() {
            run.resume(|| false);
        }
        let best = run.best_objectives();
        assert_eq!(best.score, run.best_score());
        // The tracked coordinates belong to an actually visited design.
        let (power, time) = (run.backend().precise_power(), run.backend().precise_time());
        let thresholds = run.thresholds();
        let out = run.finish(&l);
        let hit = out.trace.iter().any(|t| {
            t.metrics.delta_acc == best.qor_error
                && t.metrics.power == best.op_cost
                && crate::search_adapter::solution_score(&t.metrics, &thresholds, power, time)
                    == best.score
        });
        assert!(hit, "best objectives must come from one trace entry");
    }

    #[test]
    fn every_agent_kind_explores() {
        let l = lib();
        for kind in KINDS {
            let o = explore_exact(&DotProduct::new(8), &l, &quick_opts(120), kind);
            assert!(!o.trace.is_empty(), "{}", kind.name());
            assert_eq!(o.summary.steps, o.trace.len() as u64, "{}", kind.name());
        }
    }

    #[test]
    fn agent_kinds_differ_in_behaviour() {
        use crate::explore::AgentKind;
        let l = lib();
        let ql = explore_exact(
            &DotProduct::new(8),
            &l,
            &quick_opts(300),
            AgentKind::QLearning,
        );
        let sarsa = explore_exact(&DotProduct::new(8), &l, &quick_opts(300), AgentKind::Sarsa);
        assert_ne!(ql.trace, sarsa.trace);
    }

    #[test]
    fn agent_kind_names_are_stable() {
        use crate::explore::AgentKind;
        assert_eq!(AgentKind::QLearning.name(), "q-learning");
        assert_eq!(AgentKind::QLambda { lambda: 0.5 }.name(), "q-lambda(0.5)");
    }
}
