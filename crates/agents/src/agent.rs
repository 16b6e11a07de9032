//! The tabular learning agent: one ε-greedy actor with five update rules.
//!
//! The reproduced paper explores with tabular Q-learning (Watkins 1989),
//! off-policy temporal-difference control:
//!
//! ```text
//! Q(s,a) <- Q(s,a) + α · (r + γ · max_a' Q(s',a') − Q(s,a))
//! ```
//!
//! with the bootstrap term dropped on terminal transitions. Its conclusion
//! calls for "additional work ... to improve the learning strategy"; the
//! other four [`AgentKind`]s are that ablation. All five choose actions the
//! same way and differ only in how they learn:
//!
//! * **SARSA(0)** bootstraps from the action the policy actually takes
//!   next, so its update waits for the next [`Agent::select_action`];
//! * **Expected SARSA** bootstraps from the ε-greedy expectation over the
//!   next row, removing SARSA's sampling variance while staying on-policy;
//! * **Double Q-learning** (van Hasselt, NeurIPS 2010) keeps a second
//!   table and flips a fair coin per step for which table learns, valuing
//!   the learner's argmax with the other one to curb Q-learning's
//!   overestimation; actions are chosen over the two tables' sum;
//! * **Watkins Q(λ)** keeps a decaying eligibility trace per visited
//!   state–action pair, so every TD error updates the whole visit path at
//!   once. Replacing traces snap to 1 on a revisit, and an exploratory
//!   action or the end of an episode cuts them, keeping the target policy
//!   greedy.

use crate::qtable::{self, row_max, QTable};
use crate::schedule::{PreparedSchedule, Schedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The learning algorithm driving an exploration.
///
/// The paper uses [`AgentKind::QLearning`]; the others are the ablation
/// agents for its "improve the learning strategy" future-work direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AgentKind {
    /// Tabular Q-learning (the paper's agent).
    QLearning,
    /// On-policy SARSA(0).
    Sarsa,
    /// Expected SARSA.
    ExpectedSarsa,
    /// Double Q-learning.
    DoubleQ,
    /// Watkins Q(λ) with the given trace decay.
    QLambda {
        /// Trace decay λ ∈ [0, 1].
        lambda: f64,
    },
}

impl AgentKind {
    /// Short display name for tables.
    pub fn name(&self) -> String {
        match self {
            AgentKind::QLearning => "q-learning".into(),
            AgentKind::Sarsa => "sarsa".into(),
            AgentKind::ExpectedSarsa => "expected-sarsa".into(),
            AgentKind::DoubleQ => "double-q".into(),
            AgentKind::QLambda { lambda } => format!("q-lambda({lambda})"),
        }
    }
}

/// One observed transition, as [`Agent::observe`] consumes it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
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

/// Q(λ) traces below this are dropped to keep the list short.
const TRACE_FLOOR: f64 = 1e-4;

/// A tabular agent over discrete actions and dense state ordinals
/// (`0, 1, 2, …`), which index its [`QTable`] directly.
///
/// The training loop ([`crate::train::TrainSession`]) drives it through
/// [`select_action`](Agent::select_action) / [`observe`](Agent::observe)
/// pairs, calling [`begin_episode`](Agent::begin_episode) at every episode
/// start. α and ε are read at the agent's step: the number of actions
/// selected so far.
///
/// ```
/// use ax_agents::agent::{Agent, AgentKind, Transition};
/// use ax_agents::schedule::Schedule;
///
/// let eps = Schedule::Constant(0.1);
/// let mut agent = Agent::new(AgentKind::QLearning, 2, Schedule::Constant(0.5), 0.9, eps, 5);
/// let a = agent.select_action(0);
/// agent.observe(Transition { state: 0, action: a, reward: 1.0, next_state: 1, terminal: true });
/// assert_eq!(agent.q_table().value(0, a), 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct Agent {
    /// The learned values; Double Q's first table.
    q: QTable,
    alpha: PreparedSchedule,
    gamma: f64,
    epsilon: PreparedSchedule,
    rng: StdRng,
    step: u64,
    rule: Rule,
}

/// The emptied buffers of an agent's Q-table, which
/// [`Agent::release_tables`] fills and [`Agent::adopt_tables`] draws on: a
/// chain of agents grows one Q-table instead of one per agent.
#[derive(Debug, Default)]
pub struct AgentTables(qtable::Buffers);

/// What differs between the learners: the state each update rule keeps
/// beyond the shared Q-table.
#[derive(Debug, Clone)]
enum Rule {
    QLearning,
    /// The transition awaiting its successor action.
    Sarsa {
        pending: Option<Transition>,
    },
    ExpectedSarsa,
    /// The second table, and a reused buffer for the two tables' summed
    /// row, which action selection ranks.
    DoubleQ {
        b: QTable,
        sum: Vec<f64>,
    },
    /// γλ, the factor every trace decays by per step; the live traces as
    /// `(Q-table cell, e)`, which decay and the floor keep few (at most ~23
    /// with γλ = 0.665), so a linear scan beats hashing; and whether the
    /// last action was greedy w.r.t. the row it was chosen from. `observe`
    /// sweeps the traces in one in-place compaction loop, keeping their
    /// order, then truncates the list to the survivors, or empties it on a
    /// cut.
    QLambda {
        decay: f64,
        traces: Vec<(usize, f64)>,
        greedy: bool,
    },
}

impl Agent {
    /// An agent of `kind` over `n_actions` actions, with learning rate
    /// `alpha`, discount `gamma`, exploration rate `epsilon` and an RNG
    /// seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n_actions` is zero, `gamma` or Q(λ)'s `lambda` lies
    /// outside `[0, 1]`, or a schedule is malformed.
    pub fn new(
        kind: AgentKind,
        n_actions: usize,
        alpha: Schedule,
        gamma: f64,
        epsilon: Schedule,
        seed: u64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&gamma), "gamma {gamma} outside [0, 1]");
        let rule = match kind {
            AgentKind::QLearning => Rule::QLearning,
            AgentKind::Sarsa => Rule::Sarsa { pending: None },
            AgentKind::ExpectedSarsa => Rule::ExpectedSarsa,
            AgentKind::DoubleQ => Rule::DoubleQ {
                b: QTable::new(n_actions),
                sum: Vec::with_capacity(n_actions),
            },
            AgentKind::QLambda { lambda } => {
                assert!(
                    (0.0..=1.0).contains(&lambda),
                    "lambda {lambda} outside [0, 1]"
                );
                Rule::QLambda {
                    decay: gamma * lambda,
                    traces: Vec::new(),
                    greedy: true,
                }
            }
        };
        Self {
            q: QTable::new(n_actions),
            alpha: alpha.prepare(),
            gamma,
            epsilon: epsilon.prepare(),
            rng: StdRng::seed_from_u64(seed),
            step: 0,
            rule,
        }
    }

    /// Read access to the learned Q-table (Double Q: the first of its two
    /// tables).
    pub fn q_table(&self) -> &QTable {
        &self.q
    }

    /// Forgets everything the agent learned: moves its Q-table's emptied
    /// arena and slot vector into `spare`, for an agent that has not
    /// stepped yet to [`adopt`](Agent::adopt_tables), and frees the rest
    /// of its tables (Double Q's second table and summed-row buffer, Q(λ)'s
    /// trace list). A Q-table `spare` already held is freed. The agent then
    /// holds no table memory, so a finished run that keeps its agent costs
    /// only the agent's fixed-size fields.
    pub fn release_tables(&mut self, spare: &mut AgentTables) {
        self.q.release(&mut spare.0);
        match &mut self.rule {
            Rule::DoubleQ { b, sum } => {
                *b = QTable::new(b.n_actions());
                *sum = Vec::new();
            }
            Rule::QLambda { traces, .. } => *traces = Vec::new(),
            _ => {}
        }
    }

    /// Takes the Q-table buffers in `spare`, so the table grows from the
    /// capacity an earlier agent reached rather than from empty. Its
    /// learning is unchanged: the table holds no value either way.
    ///
    /// # Panics
    ///
    /// Panics if the agent has already selected an action.
    pub fn adopt_tables(&mut self, spare: &mut AgentTables) {
        assert_eq!(
            self.step, 0,
            "only an agent that has not stepped adopts tables"
        );
        self.q.adopt(&mut spare.0);
    }

    /// Chooses the action for `state`, ε-greedily: with probability ε a
    /// uniformly random action, otherwise [`greedy_with_random_ties`] over
    /// the state's row (Double Q: the sum of its two rows). SARSA completes
    /// its pending update here, now that the successor action is known.
    pub fn select_action(&mut self, state: usize) -> usize {
        let epsilon = self.epsilon.value(self.step).clamp(0.0, 1.0);
        let traced = matches!(self.rule, Rule::QLambda { .. });
        let row: &[f64] = match &mut self.rule {
            Rule::DoubleQ { b, sum } => {
                let (a, b) = (self.q.row(state), b.row(state));
                sum.clear();
                sum.extend(a.iter().zip(b.iter()).map(|(x, y)| x + y));
                sum
            }
            _ => self.q.row(state),
        };
        let explored = self.rng.gen_bool(epsilon);
        let action = if explored {
            self.rng.gen_range(0..row.len())
        } else {
            greedy_with_random_ties(row, &mut self.rng)
        };
        // A greedy-branch action attains the maximum; an exploratory one
        // may still tie it. Only Q(λ) asks.
        let greedy = !explored || traced && row[action] == row_max(row);
        match &mut self.rule {
            Rule::Sarsa { pending } => {
                if let Some(t) = pending.take() {
                    let bootstrap = self.gamma * self.q.value(t.next_state, action);
                    learn(&mut self.q, t, bootstrap, self.alpha.value(self.step));
                }
            }
            Rule::QLambda { greedy: last, .. } => *last = greedy,
            _ => {}
        }
        self.step += 1;
        action
    }

    /// Learns from one transition under the agent's update rule.
    pub fn observe(&mut self, t: Transition) {
        let alpha = self.alpha.value(self.step);
        let gamma = self.gamma;
        match &mut self.rule {
            Rule::QLearning => {
                let bootstrap = if t.terminal {
                    0.0
                } else {
                    gamma * self.q.max_value(t.next_state)
                };
                learn(&mut self.q, t, bootstrap, alpha);
            }
            Rule::Sarsa { pending } => {
                // A terminal transition has no successor action: learn now.
                *pending = (!t.terminal).then_some(t);
                if t.terminal {
                    learn(&mut self.q, t, 0.0, alpha);
                }
            }
            Rule::ExpectedSarsa => {
                // The ε-greedy policy's expected value of the next row.
                let bootstrap = if t.terminal {
                    0.0
                } else {
                    self.q.row_ref(t.next_state).map_or(0.0, |row| {
                        let eps = self.epsilon.value(self.step).clamp(0.0, 1.0);
                        let max = row_max(row);
                        let uniform = row.iter().sum::<f64>() / row.len() as f64;
                        gamma * ((1.0 - eps) * max + eps * uniform)
                    })
                };
                learn(&mut self.q, t, bootstrap, alpha);
            }
            Rule::DoubleQ { b, .. } => {
                let (learner, other) = if self.rng.gen::<bool>() {
                    (&mut self.q, &*b)
                } else {
                    (b, &self.q)
                };
                let bootstrap = if t.terminal {
                    0.0
                } else {
                    let a_star = learner.best_action(t.next_state);
                    gamma * other.value(t.next_state, a_star)
                };
                learn(learner, t, bootstrap, alpha);
            }
            Rule::QLambda {
                decay,
                traces,
                greedy,
            } => {
                let bootstrap = if t.terminal {
                    0.0
                } else {
                    gamma * self.q.max_value(t.next_state)
                };
                let cell = self.q.cell(t.state, t.action);
                let values = self.q.cells_mut();
                let alpha_delta = alpha * (t.reward + bootstrap - values[cell]);
                let (decay, cut) = (*decay, t.terminal || !*greedy);
                // Each trace owns a distinct cell, so the sweep order is
                // free, and a new trace can be swept after the others. The
                // sweep compacts in place: every trace is written back at
                // `live`, which counts only those at or above the floor.
                let (mut traced, mut live) = (false, 0);
                for i in 0..traces.len() {
                    let (c, e) = traces[i];
                    let e = if c == cell { 1.0 } else { e };
                    traced |= c == cell;
                    values[c] += alpha_delta * e;
                    traces[live] = (c, e * decay);
                    live += usize::from(e * decay >= TRACE_FLOOR);
                }
                traces.truncate(if cut { 0 } else { live });
                if !traced {
                    values[cell] += alpha_delta;
                    if !cut && decay >= TRACE_FLOOR {
                        traces.push((cell, decay));
                    }
                }
            }
        }
    }

    /// Signals the start of a new episode. SARSA learns a pending
    /// transition from its reward alone (a truncated episode leaves it no
    /// successor action); Q(λ) drops its traces.
    pub fn begin_episode(&mut self) {
        match &mut self.rule {
            Rule::Sarsa { pending } => {
                if let Some(t) = pending.take() {
                    learn(&mut self.q, t, 0.0, self.alpha.value(self.step));
                }
            }
            Rule::QLambda { traces, .. } => traces.clear(),
            _ => {}
        }
    }
}

/// Moves `q(t.state, t.action)` a step `alpha` towards
/// `t.reward + bootstrap`.
fn learn(q: &mut QTable, t: Transition, bootstrap: f64, alpha: f64) {
    q.update(t.state, t.action, t.reward + bootstrap, |old, target| {
        old + alpha * (target - old)
    });
}

/// The greedy action with uniform tie-breaking among maxima: one
/// `gen_range(0..ties)` draw picks the k-th maximum in index order.
///
/// The maximum is [`row_max`]: NaN entries compare false and are never
/// chosen, and `-0.0` ties `0.0`, as in a fold over `f64::max` followed by
/// an `==` count. A row of at most 64 entries is then compared once more,
/// into a bitmask of its maxima whose population is the tie count and whose
/// k-th set bit is the pick, so neither scan branches on a value. A longer
/// row counts its maxima, then walks to the k-th.
///
/// # Panics
///
/// Panics if no entry is comparable (an empty or all-NaN row).
pub fn greedy_with_random_ties<R: Rng + ?Sized>(q_row: &[f64], rng: &mut R) -> usize {
    let max = row_max(q_row);
    if q_row.len() <= 64 {
        let mut ties = q_row
            .iter()
            .enumerate()
            .fold(0u64, |mask, (i, &v)| mask | u64::from(v == max) << i);
        for _ in 0..rng.gen_range(0..ties.count_ones() as usize) {
            ties &= ties - 1;
        }
        return ties.trailing_zeros() as usize;
    }
    let ties = q_row.iter().filter(|&&v| v == max).count();
    let k = rng.gen_range(0..ties);
    (0..q_row.len())
        .filter(|&i| q_row[i] == max)
        .nth(k)
        .expect("k indexes one of the maxima")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Env;
    use crate::qtable::first_max;
    use crate::toy::{LineWorld, TwoArmedBandit};
    use crate::train::{TrainOptions, TrainSession};

    const KINDS: [AgentKind; 5] = [
        AgentKind::QLearning,
        AgentKind::Sarsa,
        AgentKind::ExpectedSarsa,
        AgentKind::DoubleQ,
        AgentKind::QLambda { lambda: 0.7 },
    ];

    fn agent(kind: AgentKind, alpha: f64, gamma: f64, epsilon: f64) -> Agent {
        let (alpha, epsilon) = (Schedule::Constant(alpha), Schedule::Constant(epsilon));
        Agent::new(kind, 2, alpha, gamma, epsilon, 3)
    }

    fn tr(
        state: usize,
        action: usize,
        reward: f64,
        next_state: usize,
        terminal: bool,
    ) -> Transition {
        Transition {
            state,
            action,
            reward,
            next_state,
            terminal,
        }
    }

    /// Double Q's second table, if the agent has one.
    fn second_table(agent: &Agent) -> Option<&QTable> {
        match &agent.rule {
            Rule::DoubleQ { b, .. } => Some(b),
            _ => None,
        }
    }

    /// The value the agent acts on: Double Q's is the sum of its tables.
    fn value(agent: &Agent, state: usize, action: usize) -> f64 {
        agent.q.value(state, action) + second_table(agent).map_or(0.0, |b| b.value(state, action))
    }

    /// The lowest greedy action on the values the agent acts on.
    fn greedy(agent: &Agent, state: usize) -> usize {
        first_max(&[value(agent, state, 0), value(agent, state, 1)])
    }

    fn traces(agent: &Agent) -> usize {
        match &agent.rule {
            Rule::QLambda { traces, .. } => traces.len(),
            _ => panic!("not a Q(lambda) agent"),
        }
    }

    /// Runs `agent` on `env` for `steps` steps in one training session.
    fn run_for<E: Env<Obs = usize, Action = usize>>(
        env: &mut E,
        agent: &mut Agent,
        steps: u64,
        seed: u64,
    ) {
        let opts = TrainOptions::new(steps).seed(seed);
        let mut session = TrainSession::start(env, agent, &opts);
        session.resume(env, agent, &opts, |_| false);
        assert_eq!(session.steps_taken(), steps);
    }

    #[test]
    fn zero_epsilon_is_pure_greedy() {
        let mut a = Agent::new(
            AgentKind::QLearning,
            3,
            Schedule::Constant(0.1),
            0.9,
            Schedule::Constant(0.0),
            2024,
        );
        a.q.set(0, 1, 3.0);
        a.q.set(0, 2, 1.0);
        for _ in 0..100 {
            assert_eq!(a.select_action(0), 1);
        }
    }

    #[test]
    fn one_epsilon_is_uniform() {
        let mut a = Agent::new(
            AgentKind::QLearning,
            3,
            Schedule::Constant(0.1),
            0.9,
            Schedule::Constant(1.0),
            2024,
        );
        a.q.set(0, 1, 3.0);
        a.q.set(0, 2, 1.0);
        let mut counts = [0usize; 3];
        for _ in 0..3_000 {
            counts[a.select_action(0)] += 1;
        }
        for c in counts {
            assert!(
                (700..1300).contains(&c),
                "counts {counts:?} not near uniform"
            );
        }
    }

    #[test]
    fn epsilon_schedule_advances_with_the_step() {
        let epsilon = Schedule::Linear {
            start: 1.0,
            end: 0.0,
            steps: 10,
        };
        let mut a = Agent::new(
            AgentKind::QLearning,
            2,
            Schedule::Constant(0.1),
            0.9,
            epsilon,
            2024,
        );
        a.q.set(0, 0, 5.0);
        for _ in 0..10 {
            a.select_action(0);
        }
        // From step 10 on, ε is 0: always greedy.
        for _ in 0..50 {
            assert_eq!(a.select_action(0), 0);
        }
    }

    #[test]
    fn step_counter_advances_on_selection_only() {
        let mut a = agent(AgentKind::QLearning, 0.1, 0.9, 0.5);
        assert_eq!(a.step, 0);
        a.select_action(0);
        assert_eq!(a.step, 1);
        a.observe(tr(0, 0, 0.0, 1, false));
        a.begin_episode();
        assert_eq!(a.step, 1);
    }

    #[test]
    fn same_seed_same_actions() {
        let mk = || {
            Agent::new(
                AgentKind::QLearning,
                4,
                Schedule::Constant(0.1),
                0.9,
                Schedule::Constant(1.0),
                77,
            )
        };
        let (mut a, mut b) = (mk(), mk());
        for s in 0..50 {
            assert_eq!(a.select_action(s), b.select_action(s));
        }
    }

    #[test]
    fn greedy_ties_are_uniformly_broken() {
        let mut r = StdRng::seed_from_u64(2024);
        let mut counts = [0usize; 3];
        for _ in 0..3_000 {
            counts[greedy_with_random_ties(&[2.0, 2.0, 1.0], &mut r)] += 1;
        }
        assert_eq!(counts[2], 0);
        assert!(counts[0] > 1_000 && counts[1] > 1_000, "{counts:?}");
    }

    #[test]
    fn greedy_never_picks_nan_and_ties_negative_infinity() {
        let mut r = StdRng::seed_from_u64(2024);
        let mut counts = [0usize; 4];
        for _ in 0..1_000 {
            counts[greedy_with_random_ties(
                &[f64::NAN, f64::NEG_INFINITY, f64::NAN, f64::NEG_INFINITY],
                &mut r,
            )] += 1;
            let zero = greedy_with_random_ties(&[f64::NAN, -0.0, 0.0, f64::NAN], &mut r);
            assert!(zero == 1 || zero == 2, "picked {zero}");
        }
        assert_eq!(counts[0] + counts[2], 0, "{counts:?}");
        assert!(counts[1] > 350 && counts[3] > 350, "{counts:?}");
    }

    #[test]
    fn q_learning_moves_towards_the_reward() {
        let mut a = agent(AgentKind::QLearning, 0.5, 0.95, 0.1);
        a.observe(tr(0, 1, 10.0, 1, true));
        assert_eq!(a.q.value(0, 1), 5.0);
    }

    #[test]
    fn q_learning_bootstraps_from_the_max_next_value() {
        let mut a = agent(AgentKind::QLearning, 1.0, 0.5, 0.1);
        a.observe(tr(1, 0, 8.0, 2, true));
        // Non-terminal transition into state 1: target = 0 + 0.5 * 8.
        a.observe(tr(0, 1, 0.0, 1, false));
        assert_eq!(a.q.value(0, 1), 4.0);
    }

    #[test]
    fn terminal_transitions_learn_the_reward_alone() {
        for kind in KINDS {
            let mut a = agent(kind, 1.0, 0.9, 0.0);
            a.observe(tr(1, 0, 100.0, 2, true));
            // Terminal: the 100-valued successor is ignored, and SARSA
            // does not wait for a successor action.
            a.observe(tr(0, 0, 1.0, 1, true));
            assert_eq!(value(&a, 0, 0), 1.0, "{}", kind.name());
        }
    }

    #[test]
    fn sarsa_defers_its_update_until_the_next_action() {
        let mut a = agent(AgentKind::Sarsa, 1.0, 0.5, 0.2);
        a.observe(tr(0, 0, 2.0, 1, false));
        // Not yet updated: the successor action is unknown.
        assert_eq!(a.q.value(0, 0), 0.0);
        a.q.set(1, 0, 6.0);
        a.q.set(1, 1, 6.0);
        a.select_action(1);
        // Now updated: target = 2 + 0.5 * Q(1, a') = 5.
        assert_eq!(a.q.value(0, 0), 5.0);
    }

    #[test]
    fn sarsa_begin_episode_learns_a_truncated_transition_from_its_reward() {
        let mut a = agent(AgentKind::Sarsa, 1.0, 0.9, 0.2);
        a.q.set(1, 0, 50.0);
        a.observe(tr(0, 1, 4.0, 1, false));
        a.begin_episode();
        assert_eq!(a.q.value(0, 1), 4.0);
        // Nothing is left pending for the next selection.
        a.select_action(1);
        assert_eq!(a.q.value(0, 1), 4.0);
    }

    #[test]
    fn expected_sarsa_bootstraps_from_the_epsilon_greedy_expectation() {
        let mut a = agent(AgentKind::ExpectedSarsa, 1.0, 1.0, 0.5);
        // Prime state 1 with q = [0, 8]: expectation = 0.5*8 + 0.5*avg(0,8) = 6.
        a.observe(tr(1, 1, 8.0, 2, true));
        a.observe(tr(0, 0, 0.0, 1, false));
        assert!((a.q.value(0, 0) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn double_q_ranks_the_sum_of_both_tables() {
        let mut a = agent(AgentKind::DoubleQ, 0.5, 0.9, 0.0);
        a.q.set(0, 0, 1.0);
        let b = match &mut a.rule {
            Rule::DoubleQ { b, .. } => b,
            _ => unreachable!(),
        };
        b.set(0, 1, 2.0);
        assert_eq!(a.select_action(0), 1);
        a.q.set(0, 1, -5.0);
        assert_eq!(a.select_action(0), 0);
    }

    #[test]
    fn double_q_coin_picks_the_learner_and_the_other_table_values_its_argmax() {
        let mut learned = [0usize; 2];
        for seed in 0..16 {
            let mut a = Agent::new(
                AgentKind::DoubleQ,
                2,
                Schedule::Constant(1.0),
                1.0,
                Schedule::Constant(0.0),
                seed,
            );
            // Table A prefers action 0 at state 1, table B action 1.
            a.q.set(1, 0, 5.0);
            a.q.set(1, 1, 2.0);
            let b = match &mut a.rule {
                Rule::DoubleQ { b, .. } => b,
                _ => unreachable!(),
            };
            b.set(1, 0, 1.0);
            b.set(1, 1, 9.0);
            a.observe(tr(0, 0, 0.0, 1, false));
            let heads = StdRng::seed_from_u64(seed).gen::<bool>();
            let (qa, qb) = (a.q.value(0, 0), second_table(&a).unwrap().value(0, 0));
            if heads {
                // A learns: its argmax 0, valued by B.
                assert_eq!((qa, qb), (1.0, 0.0), "seed {seed}");
            } else {
                // B learns: its argmax 1, valued by A.
                assert_eq!((qa, qb), (0.0, 2.0), "seed {seed}");
            }
            learned[usize::from(heads)] += 1;
        }
        assert!(learned[0] > 0 && learned[1] > 0, "{learned:?}");
    }

    #[test]
    fn double_q_both_tables_converge_on_a_repeated_reward() {
        let mut a = agent(AgentKind::DoubleQ, 0.5, 0.9, 0.1);
        for _ in 0..200 {
            a.observe(tr(0, 1, 4.0, 1, true));
        }
        for q in [&a.q, second_table(&a).unwrap()] {
            assert!((q.value(0, 1) - 4.0).abs() < 1e-6, "{}", q.value(0, 1));
        }
        assert_eq!(greedy(&a, 0), 1);
    }

    fn q_lambda(lambda: f64) -> Agent {
        let epsilon = Schedule::Linear {
            start: 1.0,
            end: 0.05,
            steps: 1_500,
        };
        Agent::new(
            AgentKind::QLambda { lambda },
            2,
            Schedule::Constant(0.2),
            0.9,
            epsilon,
            7,
        )
    }

    #[test]
    fn q_lambda_traces_propagate_credit_down_the_visit_path() {
        // After a single successful episode, Q(λ) has non-zero values at
        // states far from the goal; plain Q-learning only at the last state.
        let mut env = LineWorld::new(6, u64::MAX);
        let mut a = q_lambda(0.9);
        let mut obs = env.reset(None);
        a.begin_episode();
        loop {
            let action = 1usize; // force the optimal walk
            let s = env.step(&action);
            a.observe(tr(obs, action, s.reward, s.obs, s.terminated));
            obs = s.obs;
            if s.terminated {
                break;
            }
        }
        assert!(a.q.value(0, 1) > 0.0, "trace did not reach the start");
    }

    #[test]
    fn q_lambda_episode_ends_and_exploratory_transitions_cut_the_traces() {
        let mut a = q_lambda(0.9);
        a.observe(tr(0, 1, 0.0, 1, false));
        assert_eq!(traces(&a), 1);
        a.observe(tr(1, 1, 1.0, 2, true));
        assert_eq!(traces(&a), 0);
        a.observe(tr(0, 1, 0.0, 1, false));
        a.begin_episode();
        assert_eq!(traces(&a), 0);

        // ε = 1: every action is exploratory, and only one that misses the
        // row's maximum cuts the traces.
        let mut a = Agent::new(
            AgentKind::QLambda { lambda: 0.9 },
            2,
            Schedule::Constant(0.2),
            0.9,
            Schedule::Constant(1.0),
            5,
        );
        a.q.set(0, 1, 1.0);
        let mut cuts = [0usize; 2];
        for _ in 0..40 {
            let row = a.q.row_ref(0).unwrap().to_vec();
            let action = a.select_action(0);
            let cut = row[action] != row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            a.observe(tr(0, action, 0.0, 0, false));
            assert_eq!(traces(&a) == 0, cut, "row {row:?}, action {action}");
            cuts[usize::from(cut)] += 1;
        }
        assert!(cuts[0] > 0 && cuts[1] > 0, "{cuts:?}");
    }

    #[test]
    fn q_lambda_prunes_tiny_traces() {
        let mut a = q_lambda(0.5);
        for s in 0..30 {
            a.observe(tr(s, 0, 0.0, s + 1, false));
        }
        // gamma*lambda = 0.45: traces decay below 1e-4 within ~11 steps, so
        // the list stays short.
        assert!(traces(&a) < 15, "{} traces", traces(&a));
    }

    /// Q(λ)'s update as first written, sweeping its traces with
    /// `retain_mut` and bootstrapping from a fold over `f64::max`: the
    /// oracle of the compaction loop.
    struct RetainSweep {
        q: QTable,
        traces: Vec<(usize, f64)>,
        /// Transitions whose cell was already traced.
        revisits: usize,
    }

    impl RetainSweep {
        fn observe(&mut self, t: Transition, alpha: f64, gamma: f64, decay: f64, greedy: bool) {
            let bootstrap = match self.q.row_ref(t.next_state) {
                Some(row) if !t.terminal => {
                    gamma * row.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                }
                _ => 0.0,
            };
            let cell = self.q.cell(t.state, t.action);
            let values = self.q.cells_mut();
            let alpha_delta = alpha * (t.reward + bootstrap - values[cell]);
            let cut = t.terminal || !greedy;
            let mut traced = false;
            self.traces.retain_mut(|(c, e)| {
                if *c == cell {
                    (*e, traced) = (1.0, true);
                }
                values[*c] += alpha_delta * *e;
                *e *= decay;
                !cut && *e >= TRACE_FLOOR
            });
            self.revisits += usize::from(traced);
            if !traced {
                values[cell] += alpha_delta;
                if !cut && decay >= TRACE_FLOOR {
                    self.traces.push((cell, decay));
                }
            }
        }
    }

    #[test]
    fn q_lambda_sweep_matches_the_retain_mut_sweep_bit_for_bit() {
        let (n_states, n_actions, gamma, lambda) = (9, 4, 0.9, 0.95);
        let alpha = Schedule::Exponential {
            start: 0.5,
            end: 0.05,
            decay: 0.999,
        };
        let kind = AgentKind::QLambda { lambda };
        let mut agent = Agent::new(kind, n_actions, alpha, gamma, Schedule::Constant(0.1), 11);
        let mut oracle = RetainSweep {
            q: QTable::new(n_actions),
            traces: Vec::new(),
            revisits: 0,
        };
        let mut rng = StdRng::seed_from_u64(12);
        let (mut state, mut cuts, mut terminals, mut longest) = (0, 0, 0, 0);
        for step in 0..5_000 {
            // Selection visits the state's row first, as it does the agent's.
            oracle.q.row(state);
            let action = agent.select_action(state);
            let Rule::QLambda { greedy, .. } = agent.rule else {
                unreachable!()
            };
            let reward = f64::from(rng.gen_range(-2..=3)) * 0.75;
            let (next_state, terminal) = (rng.gen_range(0..n_states), rng.gen_bool(0.04));
            let t = tr(state, action, reward, next_state, terminal);
            let alpha = agent.alpha.value(agent.step);
            agent.observe(t);
            oracle.observe(t, alpha, gamma, gamma * lambda, greedy);
            for s in 0..n_states {
                for a in 0..n_actions {
                    let (got, want) = (agent.q.value(s, a), oracle.q.value(s, a));
                    assert_eq!(got.to_bits(), want.to_bits(), "step {step}: q({s}, {a})");
                }
            }
            assert_eq!(traces(&agent), oracle.traces.len(), "step {step}");
            cuts += usize::from(!greedy);
            terminals += usize::from(terminal);
            longest = longest.max(traces(&agent));
            state = next_state;
        }
        let revisits = oracle.revisits;
        assert!(
            cuts > 50 && terminals > 50 && revisits > 500 && longest > 15,
            "cuts {cuts}, terminals {terminals}, revisits {revisits}, longest {longest}"
        );
    }

    #[test]
    fn a_released_agent_holds_no_tables() {
        let mut spare = AgentTables::default();
        for kind in [AgentKind::DoubleQ, AgentKind::QLambda { lambda: 0.9 }] {
            let mut a = agent(kind, 0.5, 0.9, 0.3);
            for s in 0..40 {
                let action = a.select_action(s);
                a.observe(tr(s, action, 1.0, s + 1, false));
            }
            a.release_tables(&mut spare);
            assert_eq!(a.q.n_states(), 0, "{kind:?}");
            match &a.rule {
                Rule::DoubleQ { b, sum } => assert_eq!((b.n_states(), sum.capacity()), (0, 0)),
                Rule::QLambda { traces, .. } => assert_eq!(traces.capacity(), 0),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    #[should_panic(expected = "only an agent that has not stepped adopts tables")]
    fn a_stepped_agent_adopts_no_tables() {
        let mut a = agent(AgentKind::QLearning, 0.5, 0.9, 0.3);
        a.select_action(0);
        a.adopt_tables(&mut AgentTables::default());
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn rejects_bad_gamma() {
        agent(AgentKind::QLearning, 0.1, 1.5, 0.1);
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn rejects_bad_lambda() {
        agent(AgentKind::QLambda { lambda: 1.5 }, 0.1, 0.9, 0.1);
    }

    #[test]
    fn every_agent_learns_to_walk_right() {
        let linear = |steps| Schedule::Linear {
            start: 1.0,
            end: 0.05,
            steps,
        };
        // (kind, α, ε horizon, agent seed, chain length, episode limit,
        // steps, environment seed)
        let cases = [
            (AgentKind::QLearning, 0.1, 5_000, 3, 7, 60, 6_000, 5),
            (AgentKind::Sarsa, 0.2, 2_000, 3, 5, 40, 5_000, 5),
            (AgentKind::ExpectedSarsa, 0.2, 2_000, 3, 5, 40, 5_000, 5),
            (AgentKind::DoubleQ, 0.2, 2_000, 3, 5, 40, 5_000, 5),
            (
                AgentKind::QLambda { lambda: 0.8 },
                0.2,
                1_500,
                7,
                6,
                50,
                4_000,
                3,
            ),
        ];
        for (kind, alpha, horizon, seed, n, limit, steps, env_seed) in cases {
            let mut env = LineWorld::new(n, limit);
            let mut a = Agent::new(
                kind,
                2,
                Schedule::Constant(alpha),
                0.9,
                linear(horizon),
                seed,
            );
            run_for(&mut env, &mut a, steps, env_seed);
            for s in 0..n - 1 {
                assert_eq!(greedy(&a, s), 1, "{} state {s}", kind.name());
            }
        }
    }

    #[test]
    fn q_learning_prefers_the_better_bandit_arm() {
        let epsilon = Schedule::Linear {
            start: 1.0,
            end: 0.05,
            steps: 5_000,
        };
        let mut a = Agent::new(
            AgentKind::QLearning,
            2,
            Schedule::Constant(0.1),
            0.95,
            epsilon,
            1,
        );
        run_for(&mut TwoArmedBandit::new(0.2, 0.8), &mut a, 3_000, 2);
        assert_eq!(greedy(&a, 0), 1);
    }

    /// Folds `word` into an FNV-1a digest, byte by byte.
    fn fold(h: &mut u64, word: u64) {
        for byte in word.to_le_bytes() {
            *h ^= u64::from(byte);
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// 3,000 hand-driven steps of `kind` on `env`, restarting every
    /// episode: the digest of every selected action, then of the bits of
    /// every Q-value of `states` states (Double Q: both tables).
    fn restart_digest<E: Env<Obs = usize, Action = usize>>(
        env: &mut E,
        kind: AgentKind,
        states: usize,
    ) -> u64 {
        let alpha = Schedule::Exponential {
            start: 0.5,
            end: 0.05,
            decay: 0.999,
        };
        let epsilon = Schedule::Linear {
            start: 1.0,
            end: 0.05,
            steps: 2_000,
        };
        let mut agent = Agent::new(kind, 2, alpha, 0.9, epsilon, 7);
        let mut h = 0xcbf2_9ce4_8422_2325;
        let mut obs = env.reset(Some(7));
        agent.begin_episode();
        for _ in 0..3_000 {
            let action = agent.select_action(obs);
            fold(&mut h, action as u64);
            let s = env.step(&action);
            agent.observe(tr(obs, action, s.reward, s.obs, s.terminated));
            if s.terminated || s.truncated {
                obs = env.reset(None);
                agent.begin_episode();
            } else {
                obs = s.obs;
            }
        }
        for q in std::iter::once(&agent.q).chain(second_table(&agent)) {
            for s in 0..states {
                for a in 0..2 {
                    fold(&mut h, q.value(s, a).to_bits());
                }
            }
        }
        h
    }

    /// Campaigns never restart an episode after the first step (the DSE
    /// environment never truncates, and campaigns stop on its terminate
    /// flag), so these pin SARSA's reward-only learning of a truncated
    /// transition and Q(λ)'s trace reset. LineWorld truncates an episode
    /// after 12 steps. Every bandit step is terminal, so nothing
    /// bootstraps there and the four single-table rules learn alike.
    #[test]
    fn episode_restarts_match_their_golden_digests() {
        let golden = [
            (0xc489_3c1f_c08e_fa54, 0x0255_3137_27e6_bb71),
            (0x06e6_1dc0_b157_a731, 0x0255_3137_27e6_bb71),
            (0xc7fb_1bc4_0d76_a11e, 0x0255_3137_27e6_bb71),
            (0x9566_5251_c53c_d80a, 0x9d9d_2176_f327_1753),
            (0x5056_bccc_75ec_198c, 0x0255_3137_27e6_bb71),
        ];
        for (kind, (line, bandit)) in KINDS.into_iter().zip(golden) {
            let got = (
                restart_digest(&mut LineWorld::new(6, 12), kind, 6),
                restart_digest(&mut TwoArmedBandit::new(0.3, 0.6), kind, 1),
            );
            assert_eq!(got, (line, bandit), "{}: {got:#018x?}", kind.name());
        }
    }
}
