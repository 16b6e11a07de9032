//! The environment contract the training loop steps.

/// Result of one environment step, following Gymnasium's API: `terminated`
/// marks a natural episode end (the MDP reached a terminal state), while
/// `truncated` marks an externally imposed cut-off (e.g. an episode step
/// limit).
#[derive(Debug, Clone, PartialEq)]
pub struct Step<O> {
    /// Observation after the transition.
    pub obs: O,
    /// Scalar reward for the transition.
    pub reward: f64,
    /// The episode ended naturally.
    pub terminated: bool,
    /// The episode was cut off externally.
    pub truncated: bool,
}

/// A reinforcement-learning environment: an observation type, an action
/// type and the MDP dynamics. Deterministic seeding flows through
/// [`Env::reset`].
///
/// ```
/// use ax_agents::env::{Env, Step};
///
/// /// Counts up; terminates at 3.
/// struct Counter(u32);
///
/// impl Env for Counter {
///     type Obs = u32;
///     type Action = usize;
///
///     fn reset(&mut self, _seed: Option<u64>) -> u32 {
///         self.0 = 0;
///         0
///     }
///
///     fn step(&mut self, _action: &usize) -> Step<u32> {
///         self.0 += 1;
///         Step { obs: self.0, reward: 1.0, terminated: self.0 >= 3, truncated: false }
///     }
/// }
///
/// let mut env = Counter(0);
/// env.reset(None);
/// assert!(!env.step(&0).terminated);
/// assert!(!env.step(&0).terminated);
/// assert!(env.step(&0).terminated);
/// ```
pub trait Env {
    /// Observation type.
    type Obs;
    /// Action type.
    type Action;

    /// Starts a new episode, optionally reseeding the environment's
    /// randomness, and returns the initial observation.
    fn reset(&mut self, seed: Option<u64>) -> Self::Obs;

    /// Applies an action and advances the environment one step.
    fn step(&mut self, action: &Self::Action) -> Step<Self::Obs>;
}
