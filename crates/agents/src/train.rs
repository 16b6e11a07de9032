//! The continuing-exploration training loop.
//!
//! The paper runs a single exploration of up to 10 000 steps: the agent
//! interacts continuously, episodes restart transparently when the
//! environment terminates or truncates, and the whole exploration stops when
//! the **cumulative** reward reaches a predefined maximum `R` (Algorithm 1's
//! stop rule), when the environment signals hard termination, or at the step
//! cap. [`train`] implements exactly that loop and records every step for
//! the paper's Figures 2–4.

use crate::agent::{TabularAgent, TabularTransition};
use crate::env::Env;

/// Options for [`train`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainOptions {
    /// Hard cap on total steps (the paper uses 10 000).
    pub max_steps: u64,
    /// Seed passed to the environment on each reset.
    pub seed: u64,
    /// Stop once cumulative reward reaches this value (the paper's maximum
    /// predefined reward `R`).
    pub reward_target: Option<f64>,
    /// Stop the whole exploration when the environment terminates naturally
    /// (rather than starting a new episode). The paper's DSE stops on its
    /// terminate flag; episodic benchmarks keep this `false`.
    pub stop_on_terminate: bool,
}

impl TrainOptions {
    /// Options with the given step cap and defaults otherwise.
    pub fn new(max_steps: u64) -> Self {
        Self {
            max_steps,
            seed: 0,
            reward_target: None,
            stop_on_terminate: false,
        }
    }

    /// Sets the environment seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the cumulative-reward stop target.
    pub fn reward_target(mut self, target: f64) -> Self {
        self.reward_target = Some(target);
        self
    }

    /// Stops the exploration at the first natural termination.
    pub fn stop_on_terminate(mut self) -> Self {
        self.stop_on_terminate = true;
        self
    }
}

/// Why a training run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The step cap was reached.
    MaxSteps,
    /// Cumulative reward reached the target `R`.
    RewardTarget,
    /// The environment terminated and `stop_on_terminate` was set.
    Terminated,
    /// An external stop signal (see [`train_with_stop`]) requested
    /// termination — e.g. a campaign's global evaluation budget ran out.
    Stopped,
}

/// One recorded training step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRecord {
    /// Global step index (0-based).
    pub step: u64,
    /// The action taken.
    pub action: usize,
    /// Reward received.
    pub reward: f64,
    /// Cumulative reward after this step.
    pub cumulative_reward: f64,
    /// The environment terminated on this step.
    pub terminated: bool,
    /// The environment truncated on this step.
    pub truncated: bool,
}

/// Full record of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainLog {
    /// Every step, in order — empty for an unrecorded session (see
    /// [`TrainSession::start_unrecorded`]).
    pub steps: Vec<StepRecord>,
    /// Cumulative reward after the last step (0 before any), recorded or
    /// not.
    pub cumulative_reward: f64,
    /// Why the run stopped.
    pub stop_reason: StopReason,
}

impl TrainLog {
    /// Total steps taken.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` if no steps were taken.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Final cumulative reward.
    pub fn total_reward(&self) -> f64 {
        self.cumulative_reward
    }

    /// Mean reward over consecutive bins of `bin` steps — the series of the
    /// paper's Figure 4 ("average reward every 100 steps"). The trailing
    /// partial bin (if any) is averaged over its actual length.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is zero.
    pub fn mean_reward_bins(&self, bin: usize) -> Vec<f64> {
        assert!(bin > 0, "bin size must be positive");
        self.steps
            .chunks(bin)
            .map(|c| c.iter().map(|s| s.reward).sum::<f64>() / c.len() as f64)
            .collect()
    }

    /// Number of completed episodes (terminations plus truncations).
    pub fn episodes(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| s.terminated || s.truncated)
            .count()
    }
}

/// Runs the continuing-exploration loop of `agent` on `env`.
///
/// Episodes restart transparently; see [`TrainOptions`] for the stop rules.
pub fn train<E, A>(env: &mut E, agent: &mut A, opts: &TrainOptions) -> TrainLog
where
    E: Env<Obs = usize, Action = usize>,
    A: TabularAgent,
{
    train_with_stop(env, agent, opts, || false)
}

/// [`train`] with an additional cooperative stop signal.
///
/// `should_stop` is polled after every recorded step; when it returns
/// `true` the run ends with [`StopReason::Stopped`]. The signal is checked
/// *after* stepping, so a run always takes at least one step (and a log
/// with `should_stop` constantly `false` is bit-identical to [`train`]) —
/// this is the seam campaign drivers use to enforce a shared evaluation
/// budget across concurrent explorations without pre-empting any of them
/// mid-transition.
pub fn train_with_stop<E, A, S>(
    env: &mut E,
    agent: &mut A,
    opts: &TrainOptions,
    should_stop: S,
) -> TrainLog
where
    E: Env<Obs = usize, Action = usize>,
    A: TabularAgent,
    S: FnMut() -> bool,
{
    let mut session = TrainSession::start(env, agent, opts);
    session.resume(env, agent, opts, should_stop);
    session.into_log()
}

/// A pausable training run: the state [`train_with_stop`] keeps on its
/// stack, made resumable.
///
/// [`TrainSession::start`] seeds the environment exactly like [`train`];
/// each [`TrainSession::resume`] continues the loop until a stop rule
/// fires. A run that stopped on the cooperative signal
/// ([`StopReason::Stopped`]) can resume later and continues *exactly*
/// where it paused — same observation, same cumulative reward, episode
/// restarts included — so a single `start` + `resume` is bit-identical to
/// [`train_with_stop`], and a `resume` split into several calls is
/// bit-identical to one uninterrupted call. This is what lets round-based
/// budget schedulers (successive halving) pause whole explorations between
/// rounds without losing learned state.
///
/// A session records a [`StepRecord`] per step unless opened with
/// [`TrainSession::start_unrecorded`], which keeps only the step count,
/// cumulative reward and stop reason: the agent sees the same transitions
/// either way, so both take identical trajectories.
#[derive(Debug)]
pub struct TrainSession {
    obs: usize,
    /// Every step so far; `None` for an unrecorded session.
    records: Option<Vec<StepRecord>>,
    steps: u64,
    cumulative: f64,
    last_stop: Option<StopReason>,
    needs_reset: bool,
}

impl TrainSession {
    /// Opens a session: resets `env` with the options' seed and signals
    /// the agent's first episode. No step is taken yet.
    pub fn start<E, A>(env: &mut E, agent: &mut A, opts: &TrainOptions) -> Self
    where
        E: Env<Obs = usize, Action = usize>,
        A: TabularAgent + ?Sized,
    {
        Self::open(env, agent, opts, Some(Vec::new()))
    }

    /// [`TrainSession::start`] without the per-step [`StepRecord`]s: the
    /// session keeps O(1) state however long it runs, and
    /// [`TrainSession::into_log`] yields a log with no `steps`.
    pub fn start_unrecorded<E, A>(env: &mut E, agent: &mut A, opts: &TrainOptions) -> Self
    where
        E: Env<Obs = usize, Action = usize>,
        A: TabularAgent + ?Sized,
    {
        Self::open(env, agent, opts, None)
    }

    fn open<E, A>(
        env: &mut E,
        agent: &mut A,
        opts: &TrainOptions,
        records: Option<Vec<StepRecord>>,
    ) -> Self
    where
        E: Env<Obs = usize, Action = usize>,
        A: TabularAgent + ?Sized,
    {
        let obs = env.reset(Some(opts.seed));
        agent.begin_episode();
        Self {
            obs,
            records,
            steps: 0,
            cumulative: 0.0,
            last_stop: None,
            needs_reset: false,
        }
    }

    /// Steps taken so far, across all resumes.
    pub fn steps_taken(&self) -> u64 {
        self.steps
    }

    /// Cumulative reward so far.
    pub fn total_reward(&self) -> f64 {
        self.cumulative
    }

    /// Why the last [`TrainSession::resume`] returned —
    /// [`StopReason::MaxSteps`] before the first resume.
    pub fn stop_reason(&self) -> StopReason {
        self.last_stop.unwrap_or(StopReason::MaxSteps)
    }

    /// `true` once no further resume can make progress: the step cap is
    /// reached or a non-cooperative stop rule (reward target, natural
    /// termination) already fired. A session that last stopped on the
    /// cooperative signal remains resumable.
    pub fn is_complete(&self, opts: &TrainOptions) -> bool {
        self.steps_taken() >= opts.max_steps
            || matches!(
                self.last_stop,
                Some(StopReason::RewardTarget) | Some(StopReason::Terminated)
            )
    }

    /// Continues the loop until a stop rule fires (see [`TrainOptions`]),
    /// returning why it paused. Resuming a complete session takes no step
    /// and reports the prior reason.
    pub fn resume<E, A, S>(
        &mut self,
        env: &mut E,
        agent: &mut A,
        opts: &TrainOptions,
        mut should_stop: S,
    ) -> StopReason
    where
        E: Env<Obs = usize, Action = usize>,
        A: TabularAgent + ?Sized,
        S: FnMut() -> bool,
    {
        if self.is_complete(opts) {
            return self.stop_reason();
        }
        let mut stop_reason = StopReason::MaxSteps;
        for step in self.steps_taken()..opts.max_steps {
            if self.needs_reset {
                // Gymnasium convention: the seed applies to the *first*
                // reset only; later episodes continue the environment's
                // RNG stream. Re-seeding every episode would replay
                // identical stochastic transitions (e.g. a Bernoulli
                // bandit degenerates to a deterministic payout table),
                // which breaks learning.
                self.obs = env.reset(None);
                agent.begin_episode();
                self.needs_reset = false;
            }
            let action = agent.select_action(self.obs);
            let s = env.step(&action);
            self.cumulative += s.reward;
            agent.observe(TabularTransition {
                state: self.obs,
                action,
                reward: s.reward,
                next_state: s.obs,
                terminal: s.terminated,
            });
            self.steps += 1;
            if let Some(records) = &mut self.records {
                records.push(StepRecord {
                    step,
                    action,
                    reward: s.reward,
                    cumulative_reward: self.cumulative,
                    terminated: s.terminated,
                    truncated: s.truncated,
                });
            }
            // Advance the session state before testing the stop rules so a
            // later resume continues exactly where this one paused.
            if s.terminated || s.truncated {
                self.needs_reset = true;
            } else {
                self.obs = s.obs;
            }

            if let Some(target) = opts.reward_target {
                if self.cumulative >= target {
                    stop_reason = StopReason::RewardTarget;
                    break;
                }
            }
            if s.terminated && opts.stop_on_terminate {
                stop_reason = StopReason::Terminated;
                break;
            }
            if should_stop() {
                stop_reason = StopReason::Stopped;
                break;
            }
        }
        self.last_stop = Some(stop_reason);
        stop_reason
    }

    /// Closes the session into the [`TrainLog`] of everything run so far
    /// (with no `steps` if the session was unrecorded).
    pub fn into_log(self) -> TrainLog {
        TrainLog {
            steps: self.records.unwrap_or_default(),
            cumulative_reward: self.cumulative,
            stop_reason: self.last_stop.unwrap_or(StopReason::MaxSteps),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ExplorationPolicy;
    use crate::qlearning::QLearningBuilder;
    use crate::sarsa::{ExpectedSarsaAgent, SarsaAgent};
    use crate::schedule::Schedule;
    use crate::toy::{LineWorld, TwoArmedBandit};

    #[test]
    fn qlearning_solves_line_world() {
        let mut env = LineWorld::new(7, 60);
        let mut agent = QLearningBuilder::new(2).gamma(0.9).seed(3).build();
        let log = train(&mut env, &mut agent, &TrainOptions::new(6_000).seed(5));
        assert_eq!(log.len(), 6_000);
        // The greedy policy must walk right from every interior state.
        for s in 0..6 {
            assert_eq!(agent.greedy_action(s), 1, "state {s}");
        }
        assert!(log.episodes() > 50, "episodes: {}", log.episodes());
    }

    #[test]
    fn sarsa_solves_line_world() {
        let mut env = LineWorld::new(5, 40);
        let mut agent = SarsaAgent::new(
            2,
            Schedule::Constant(0.2),
            0.9,
            ExplorationPolicy::EpsilonGreedy {
                epsilon: Schedule::Linear {
                    start: 1.0,
                    end: 0.05,
                    steps: 2_000,
                },
            },
            3,
        );
        train(&mut env, &mut agent, &TrainOptions::new(5_000).seed(5));
        for s in 0..4 {
            assert_eq!(agent.greedy_action(s), 1, "state {s}");
        }
    }

    #[test]
    fn expected_sarsa_solves_line_world() {
        let mut env = LineWorld::new(5, 40);
        let mut agent = ExpectedSarsaAgent::new(
            2,
            Schedule::Constant(0.2),
            0.9,
            Schedule::Linear {
                start: 1.0,
                end: 0.05,
                steps: 2_000,
            },
            3,
        );
        train(&mut env, &mut agent, &TrainOptions::new(5_000).seed(5));
        for s in 0..4 {
            assert_eq!(agent.greedy_action(s), 1, "state {s}");
        }
    }

    #[test]
    fn qlearning_prefers_better_bandit_arm() {
        let mut env = TwoArmedBandit::new(0.2, 0.8);
        let mut agent = QLearningBuilder::new(2).seed(1).build();
        train(&mut env, &mut agent, &TrainOptions::new(3_000).seed(2));
        assert_eq!(agent.greedy_action(0), 1);
    }

    #[test]
    fn reward_target_stops_early() {
        let mut env = LineWorld::new(3, 10);
        let mut agent = QLearningBuilder::new(2).seed(0).build();
        let log = train(
            &mut env,
            &mut agent,
            &TrainOptions::new(100_000).seed(1).reward_target(5.0),
        );
        assert_eq!(log.stop_reason, StopReason::RewardTarget);
        assert!(log.total_reward() >= 5.0);
        assert!(log.len() < 100_000);
    }

    #[test]
    fn stop_on_terminate_halts_at_first_goal() {
        let mut env = LineWorld::new(3, u64::MAX);
        let mut agent = QLearningBuilder::new(2).seed(0).build();
        let log = train(
            &mut env,
            &mut agent,
            &TrainOptions::new(10_000).seed(1).stop_on_terminate(),
        );
        assert_eq!(log.stop_reason, StopReason::Terminated);
        assert!(log.steps.last().unwrap().terminated);
    }

    #[test]
    fn mean_reward_bins_shapes() {
        let mut env = LineWorld::new(3, 10);
        let mut agent = QLearningBuilder::new(2).seed(0).build();
        let log = train(&mut env, &mut agent, &TrainOptions::new(250).seed(1));
        let bins = log.mean_reward_bins(100);
        assert_eq!(bins.len(), 3); // 100 + 100 + 50
        for b in &bins {
            assert!(b.is_finite());
        }
    }

    #[test]
    fn log_cumulative_is_prefix_sum() {
        let mut env = LineWorld::new(4, 20);
        let mut agent = QLearningBuilder::new(2).seed(9).build();
        let log = train(&mut env, &mut agent, &TrainOptions::new(500).seed(1));
        let mut acc = 0.0;
        for s in &log.steps {
            acc += s.reward;
            assert!((s.cumulative_reward - acc).abs() < 1e-9);
        }
    }

    #[test]
    fn training_is_seed_reproducible() {
        let run = || {
            let mut env = LineWorld::new(6, 30);
            let mut agent = QLearningBuilder::new(2).seed(42).build();
            train(&mut env, &mut agent, &TrainOptions::new(1_000).seed(7))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn never_firing_stop_signal_matches_plain_train() {
        let run = |stop: bool| {
            let mut env = LineWorld::new(6, 30);
            let mut agent = QLearningBuilder::new(2).seed(42).build();
            let opts = TrainOptions::new(500).seed(7);
            if stop {
                train_with_stop(&mut env, &mut agent, &opts, || false)
            } else {
                train(&mut env, &mut agent, &opts)
            }
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn resumed_session_matches_uninterrupted_run() {
        // One uninterrupted run...
        let reference = {
            let mut env = LineWorld::new(6, 30);
            let mut agent = QLearningBuilder::new(2).seed(11).build();
            train(&mut env, &mut agent, &TrainOptions::new(400).seed(7))
        };
        // ...must equal the same run paused every 37 steps and resumed.
        let mut env = LineWorld::new(6, 30);
        let mut agent = QLearningBuilder::new(2).seed(11).build();
        let opts = TrainOptions::new(400).seed(7);
        let mut session = TrainSession::start(&mut env, &mut agent, &opts);
        let mut resumes = 0;
        while !session.is_complete(&opts) {
            let mut polls = 0u64;
            session.resume(&mut env, &mut agent, &opts, || {
                polls += 1;
                polls >= 37
            });
            resumes += 1;
        }
        assert!(resumes > 5, "the pause signal must actually fragment");
        assert_eq!(session.into_log(), reference);
    }

    #[test]
    fn unrecorded_session_matches_recorded_run() {
        let reference = {
            let mut env = LineWorld::new(6, 30);
            let mut agent = QLearningBuilder::new(2).seed(11).build();
            let log = train(&mut env, &mut agent, &TrainOptions::new(400).seed(7));
            (log, agent)
        };
        // The same run without records, paused every 29 steps: same
        // count, reward, stop reason and learned values, but no steps.
        let mut env = LineWorld::new(6, 30);
        let mut agent = QLearningBuilder::new(2).seed(11).build();
        let opts = TrainOptions::new(400).seed(7);
        let mut session = TrainSession::start_unrecorded(&mut env, &mut agent, &opts);
        while !session.is_complete(&opts) {
            let mut polls = 0u64;
            session.resume(&mut env, &mut agent, &opts, || {
                polls += 1;
                polls >= 29
            });
        }
        assert_eq!(session.steps_taken(), reference.0.len() as u64);
        assert_eq!(session.total_reward(), reference.0.total_reward());
        let log = session.into_log();
        assert!(log.steps.is_empty(), "an unrecorded session keeps no steps");
        assert_eq!(log.total_reward(), reference.0.total_reward());
        assert_eq!(log.stop_reason, reference.0.stop_reason);
        assert_eq!(agent.global_step(), reference.1.global_step());
        for s in 0..6 {
            for a in 0..2 {
                assert_eq!(
                    agent.q_table().value(s, a),
                    reference.1.q_table().value(s, a),
                    "Q({s}, {a})"
                );
            }
        }
    }

    #[test]
    fn session_reports_progress_and_completion() {
        let mut env = LineWorld::new(3, 10);
        let mut agent = QLearningBuilder::new(2).seed(0).build();
        let opts = TrainOptions::new(50).seed(1);
        let mut session = TrainSession::start(&mut env, &mut agent, &opts);
        assert_eq!(session.steps_taken(), 0);
        assert!(!session.is_complete(&opts));
        let reason = session.resume(&mut env, &mut agent, &opts, || true);
        assert_eq!(reason, StopReason::Stopped);
        assert_eq!(session.steps_taken(), 1);
        assert!(!session.is_complete(&opts), "stopped sessions can resume");
        let reason = session.resume(&mut env, &mut agent, &opts, || false);
        assert_eq!(reason, StopReason::MaxSteps);
        assert_eq!(session.steps_taken(), 50);
        assert!(session.is_complete(&opts));
        // Resuming a complete session takes no further step.
        assert_eq!(
            session.resume(&mut env, &mut agent, &opts, || false),
            StopReason::MaxSteps
        );
        assert_eq!(session.steps_taken(), 50);
    }

    #[test]
    fn stop_signal_ends_run_after_at_least_one_step() {
        let mut env = LineWorld::new(6, 30);
        let mut agent = QLearningBuilder::new(2).seed(1).build();
        // A signal that is true from the start still permits one step: the
        // stop is checked only after a transition has been recorded.
        let log = train_with_stop(
            &mut env,
            &mut agent,
            &TrainOptions::new(500).seed(7),
            || true,
        );
        assert_eq!(log.len(), 1);
        assert_eq!(log.stop_reason, StopReason::Stopped);

        // A counting signal stops the run exactly where it fires.
        let mut env = LineWorld::new(6, 30);
        let mut agent = QLearningBuilder::new(2).seed(1).build();
        let mut polls = 0u64;
        let log = train_with_stop(
            &mut env,
            &mut agent,
            &TrainOptions::new(500).seed(7),
            || {
                polls += 1;
                polls >= 10
            },
        );
        assert_eq!(log.len(), 10);
        assert_eq!(log.stop_reason, StopReason::Stopped);
    }
}
