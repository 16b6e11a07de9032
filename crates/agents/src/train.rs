//! The continuing-exploration training loop.
//!
//! The paper runs a single exploration of up to 10 000 steps: the agent
//! interacts continuously, episodes restart transparently when the
//! environment terminates or truncates, and the whole exploration stops when
//! the **cumulative** reward reaches a predefined maximum `R` (Algorithm 1's
//! stop rule), when the environment signals hard termination, or at the step
//! cap. [`TrainSession`] runs exactly that loop, pausable between steps,
//! and keeps only the step count, cumulative reward and stop reason: the
//! environment records whatever per-step trace it needs.

use crate::agent::{Agent, Transition};
use crate::env::Env;

/// The stop rules and environment seed of a [`TrainSession`].
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
    /// The `should_stop` signal of [`TrainSession::resume`] fired — e.g. a
    /// campaign's global evaluation budget ran out.
    Stopped,
}

/// A pausable training run.
///
/// [`TrainSession::start`] seeds the environment and the agent's first
/// episode; each [`TrainSession::resume`] continues the loop until a stop
/// rule fires. A run that stopped on the cooperative signal
/// ([`StopReason::Stopped`]) can resume later and continues *exactly*
/// where it paused — same observation, same cumulative reward, episode
/// restarts included — so a `resume` split into several calls is
/// bit-identical to one uninterrupted call. This is what lets round-based
/// budget schedulers (successive halving) pause whole explorations between
/// rounds without losing learned state. The session holds O(1) state
/// however long it runs.
#[derive(Debug)]
pub struct TrainSession {
    obs: usize,
    steps: u64,
    cumulative: f64,
    last_stop: Option<StopReason>,
    needs_reset: bool,
}

impl TrainSession {
    /// Opens a session: resets `env` with the options' seed and signals
    /// the agent's first episode. No step is taken yet.
    pub fn start<E>(env: &mut E, agent: &mut Agent, opts: &TrainOptions) -> Self
    where
        E: Env<Obs = usize, Action = usize>,
    {
        let obs = env.reset(Some(opts.seed));
        agent.begin_episode();
        Self {
            obs,
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
    ///
    /// `should_stop` is polled after every step; when it returns `true`
    /// the run pauses with [`StopReason::Stopped`]. Polling *after* the
    /// step means a resume always takes at least one step — the seam
    /// campaign drivers use to enforce a shared evaluation budget across
    /// concurrent explorations without pre-empting any of them
    /// mid-transition.
    pub fn resume<E, S>(
        &mut self,
        env: &mut E,
        agent: &mut Agent,
        opts: &TrainOptions,
        mut should_stop: S,
    ) -> StopReason
    where
        E: Env<Obs = usize, Action = usize>,
        S: FnMut() -> bool,
    {
        if self.is_complete(opts) {
            return self.stop_reason();
        }
        let mut stop_reason = StopReason::MaxSteps;
        for _ in self.steps_taken()..opts.max_steps {
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
            agent.observe(Transition {
                state: self.obs,
                action,
                reward: s.reward,
                next_state: s.obs,
                terminal: s.terminated,
            });
            self.steps += 1;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::AgentKind;
    use crate::schedule::Schedule;
    use crate::toy::LineWorld;

    fn agent(seed: u64) -> Agent {
        let epsilon = Schedule::Linear {
            start: 1.0,
            end: 0.05,
            steps: 5_000,
        };
        Agent::new(
            AgentKind::QLearning,
            2,
            Schedule::Constant(0.1),
            0.95,
            epsilon,
            seed,
        )
    }

    /// Runs a fresh session to completion in one resume.
    fn run(env: &mut LineWorld, agent: &mut Agent, opts: &TrainOptions) -> TrainSession {
        let mut session = TrainSession::start(env, agent, opts);
        session.resume(env, agent, opts, || false);
        session
    }

    #[test]
    fn reward_target_stops_early() {
        let opts = TrainOptions::new(100_000).seed(1).reward_target(5.0);
        let session = run(&mut LineWorld::new(3, 10), &mut agent(0), &opts);
        assert_eq!(session.stop_reason(), StopReason::RewardTarget);
        assert!(session.total_reward() >= 5.0);
        assert!(session.steps_taken() < 100_000);
    }

    #[test]
    fn stop_on_terminate_halts_at_first_goal() {
        let opts = TrainOptions::new(10_000).seed(1).stop_on_terminate();
        let session = run(&mut LineWorld::new(3, u64::MAX), &mut agent(0), &opts);
        assert_eq!(session.stop_reason(), StopReason::Terminated);
        // The goal pays 1 and ends the run: it was reached exactly once.
        assert_eq!(session.total_reward(), 1.0);
        assert!(session.is_complete(&opts));
    }

    #[test]
    fn resumed_session_matches_uninterrupted_run() {
        let opts = TrainOptions::new(400).seed(7);
        // One uninterrupted run...
        let mut reference = agent(11);
        let one_shot = run(&mut LineWorld::new(6, 30), &mut reference, &opts);
        // ...must equal the same run paused every 37 steps and resumed.
        let mut env = LineWorld::new(6, 30);
        let mut paused = agent(11);
        let mut session = TrainSession::start(&mut env, &mut paused, &opts);
        let mut resumes = 0;
        while !session.is_complete(&opts) {
            let mut polls = 0u64;
            session.resume(&mut env, &mut paused, &opts, || {
                polls += 1;
                polls >= 37
            });
            resumes += 1;
        }
        assert!(resumes > 5, "the pause signal must actually fragment");
        assert_eq!(session.steps_taken(), one_shot.steps_taken());
        assert_eq!(session.total_reward(), one_shot.total_reward());
        for s in 0..6 {
            for a in 0..2 {
                assert_eq!(
                    paused.q_table().value(s, a).to_bits(),
                    reference.q_table().value(s, a).to_bits(),
                    "Q({s}, {a})"
                );
            }
        }
        assert_eq!(paused.select_action(0), reference.select_action(0));
    }

    #[test]
    fn session_reports_progress_and_completion() {
        let mut env = LineWorld::new(3, 10);
        let mut agent = agent(0);
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
    fn stop_signal_pauses_exactly_where_it_fires() {
        let opts = TrainOptions::new(500).seed(7);
        let mut env = LineWorld::new(6, 30);
        let mut agent = agent(1);
        let mut session = TrainSession::start(&mut env, &mut agent, &opts);
        let mut polls = 0u64;
        let reason = session.resume(&mut env, &mut agent, &opts, || {
            polls += 1;
            polls >= 10
        });
        assert_eq!(reason, StopReason::Stopped);
        assert_eq!(session.steps_taken(), 10);
    }
}
