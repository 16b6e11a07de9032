//! The tabular agent contract.

/// One observed transition, as consumed by [`TabularAgent::observe`].
#[derive(Debug, Clone, PartialEq)]
pub struct TabularTransition {
    /// State the action was taken from.
    pub state: usize,
    /// The executed action index.
    pub action: usize,
    /// Reward received.
    pub reward: f64,
    /// Resulting state.
    pub next_state: usize,
    /// `true` if `next_state` is terminal (no bootstrapping across it).
    pub terminal: bool,
}

/// A learning agent over discrete actions and discrete states.
///
/// States are dense ordinals (`0, 1, 2, …`): the agents index their
/// Q-tables by them directly (see [`crate::qtable::QTable`]). The training loop drives the agent through
/// [`select_action`](TabularAgent::select_action) /
/// [`observe`](TabularAgent::observe) pairs;
/// [`begin_episode`](TabularAgent::begin_episode) separates episodes so
/// on-policy agents can flush pending updates.
pub trait TabularAgent {
    /// Chooses the next action for `state` (exploration included).
    fn select_action(&mut self, state: usize) -> usize;

    /// Learns from one transition.
    fn observe(&mut self, transition: TabularTransition);

    /// Signals the start of a new episode.
    fn begin_episode(&mut self) {}

    /// The greedy (exploitation-only) action for `state`.
    fn greedy_action(&self, state: usize) -> usize;
}

impl<T: TabularAgent + ?Sized> TabularAgent for Box<T> {
    fn select_action(&mut self, state: usize) -> usize {
        (**self).select_action(state)
    }

    fn observe(&mut self, transition: TabularTransition) {
        (**self).observe(transition)
    }

    fn begin_episode(&mut self) {
        (**self).begin_episode()
    }

    fn greedy_action(&self, state: usize) -> usize {
        (**self).greedy_action(state)
    }
}

impl<T: TabularAgent + ?Sized> TabularAgent for &mut T {
    fn select_action(&mut self, state: usize) -> usize {
        (**self).select_action(state)
    }

    fn observe(&mut self, transition: TabularTransition) {
        (**self).observe(transition)
    }

    fn begin_episode(&mut self) {
        (**self).begin_episode()
    }

    fn greedy_action(&self, state: usize) -> usize {
        (**self).greedy_action(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial agent that always picks action 0 and counts observations —
    /// exercises the trait as an object.
    struct Null {
        observed: usize,
    }

    impl TabularAgent for Null {
        fn select_action(&mut self, _s: usize) -> usize {
            0
        }
        fn observe(&mut self, _t: TabularTransition) {
            self.observed += 1;
        }
        fn greedy_action(&self, _s: usize) -> usize {
            0
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let mut boxed: Box<dyn TabularAgent> = Box::new(Null { observed: 0 });
        assert_eq!(boxed.select_action(1), 0);
        boxed.observe(TabularTransition {
            state: 1,
            action: 0,
            reward: 0.0,
            next_state: 2,
            terminal: false,
        });
        boxed.begin_episode();
        assert_eq!(boxed.greedy_action(2), 0);
    }
}
