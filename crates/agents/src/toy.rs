//! Small environments with known optimal policies, so the agents can be
//! tested before they are trusted on the DSE environment.

use crate::env::{Env, Step};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic chain walk: positions `0 .. n-1`, start at `0`, actions
/// `{0: left, 1: right}`, reward `1.0` upon reaching the rightmost cell
/// (terminal). Episodes are truncated after `limit` steps. The optimal
/// policy is "always right" with return `1.0`.
#[derive(Debug, Clone)]
pub struct LineWorld {
    n: usize,
    limit: u64,
    pos: usize,
    elapsed: u64,
}

impl LineWorld {
    /// A chain of `n ≥ 2` positions whose episodes last at most `limit`
    /// steps.
    pub fn new(n: usize, limit: u64) -> Self {
        assert!(n >= 2, "line world needs at least two positions");
        Self {
            n,
            limit,
            pos: 0,
            elapsed: 0,
        }
    }
}

impl Env for LineWorld {
    type Obs = usize;
    type Action = usize;

    fn reset(&mut self, _seed: Option<u64>) -> usize {
        self.pos = 0;
        self.elapsed = 0;
        self.pos
    }

    fn step(&mut self, action: &usize) -> Step<usize> {
        match action {
            0 => self.pos = self.pos.saturating_sub(1),
            1 => self.pos = (self.pos + 1).min(self.n - 1),
            other => panic!("invalid action {other} for LineWorld"),
        }
        self.elapsed += 1;
        let terminated = self.pos == self.n - 1;
        Step {
            obs: self.pos,
            reward: if terminated { 1.0 } else { 0.0 },
            terminated,
            truncated: !terminated && self.elapsed >= self.limit,
        }
    }
}

/// A two-armed Bernoulli bandit: single state `0`, actions `{0, 1}` with win
/// probabilities `p0` and `p1`, one step per episode. An agent that learns
/// must end up preferring the better arm.
#[derive(Debug, Clone)]
pub struct TwoArmedBandit {
    p: [f64; 2],
    rng: StdRng,
}

impl TwoArmedBandit {
    /// A bandit with the given win probabilities.
    pub fn new(p0: f64, p1: f64) -> Self {
        Self {
            p: [p0, p1],
            rng: StdRng::seed_from_u64(0),
        }
    }
}

impl Env for TwoArmedBandit {
    type Obs = usize;
    type Action = usize;

    fn reset(&mut self, seed: Option<u64>) -> usize {
        if let Some(s) = seed {
            self.rng = StdRng::seed_from_u64(s);
        }
        0
    }

    fn step(&mut self, action: &usize) -> Step<usize> {
        let win = self.rng.gen_bool(self.p[*action]);
        Step {
            obs: 0,
            reward: if win { 1.0 } else { 0.0 },
            terminated: true,
            truncated: false,
        }
    }
}

#[test]
fn line_world_walks_right_to_the_goal_and_truncates_at_its_limit() {
    let mut env = LineWorld::new(4, 5);
    assert_eq!(env.reset(None), 0);
    assert!(!env.step(&1).terminated);
    assert!(!env.step(&1).terminated);
    let last = env.step(&1);
    assert!(last.terminated && !last.truncated);
    assert_eq!((last.obs, last.reward), (3, 1.0));
    env.reset(None);
    let steps: Vec<_> = (0..5).map(|_| env.step(&0)).collect();
    assert!(steps[..4].iter().all(|s| !s.truncated && s.obs == 0));
    assert!(steps[4].truncated);
}

#[test]
fn bandit_is_seed_deterministic() {
    let mut a = TwoArmedBandit::new(0.3, 0.8);
    let mut b = TwoArmedBandit::new(0.3, 0.8);
    a.reset(Some(9));
    b.reset(Some(9));
    for _ in 0..50 {
        assert_eq!(a.step(&1).reward, b.step(&1).reward);
    }
}
