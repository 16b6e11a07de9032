//! Property-based tests for agents, schedules and search primitives.

use ax_agents::agent::{TabularAgent, TabularTransition};
use ax_agents::policy::greedy_with_random_ties;
use ax_agents::qlearning::QLearningBuilder;
use ax_agents::qtable::QTable;
use ax_agents::schedule::{powi, Schedule};
use ax_agents::search::{random_search, SearchSpace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The tie-break as first written: collect every maximum, then draw one.
/// The allocation-free [`greedy_with_random_ties`] must agree with it.
fn greedy_collect_then_draw(q_row: &[f64], rng: &mut StdRng) -> usize {
    let max = q_row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let ties: Vec<usize> = q_row
        .iter()
        .enumerate()
        .filter(|(_, &v)| v == max)
        .map(|(i, _)| i)
        .collect();
    ties[rng.gen_range(0..ties.len())]
}

proptest! {
    /// The tie-break picks the same action as the collect-then-draw
    /// reference and leaves the RNG in the same state, so agent
    /// trajectories do not change.
    #[test]
    fn tie_break_matches_collect_then_draw(
        levels in prop::collection::vec(0usize..6, 1..24),
        only_nan_and_infinity in 0u8..2,
        comparable in 0usize..24,
        seed in 0u64..1_000_000,
    ) {
        // Few value levels force ties on most rows; -0.0 and 0.0 tie too.
        // NaN never attains the maximum, and −∞ is the maximum of a row
        // holding nothing else but NaN, as half the rows do. One entry is
        // kept comparable: an all-NaN row has no maximum to draw from.
        const LEVELS: [f64; 6] = [f64::NAN, f64::NEG_INFINITY, -1.0, -0.0, 0.0, 2.0];
        let palette = if only_nan_and_infinity == 1 { 2 } else { LEVELS.len() };
        let mut row: Vec<f64> = levels.iter().map(|&l| LEVELS[l % palette]).collect();
        let keep = comparable % row.len();
        if row[keep].is_nan() {
            row[keep] = f64::NEG_INFINITY;
        }
        let mut fast = StdRng::seed_from_u64(seed);
        let mut reference = fast.clone();
        for _ in 0..4 {
            prop_assert_eq!(
                greedy_with_random_ties(&row, &mut fast),
                greedy_collect_then_draw(&row, &mut reference)
            );
        }
        prop_assert_eq!(fast, reference);
    }

    /// Linear schedules stay within [min(start, end), max(start, end)] and
    /// are monotone in the step.
    #[test]
    fn linear_schedule_bounded_monotone(
        start in -10.0f64..10.0,
        end in -10.0f64..10.0,
        steps in 1u64..1_000,
        t1 in 0u64..2_000,
        t2 in 0u64..2_000,
    ) {
        let s = Schedule::Linear { start, end, steps };
        let (lo, hi) = (start.min(end), start.max(end));
        for t in [t1, t2] {
            let v = s.value(t);
            prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12, "{v} outside [{lo}, {hi}]");
        }
        let (a, b) = (t1.min(t2), t1.max(t2));
        let (va, vb) = (s.value(a), s.value(b));
        if start <= end {
            prop_assert!(vb >= va - 1e-12);
        } else {
            prop_assert!(vb <= va + 1e-12);
        }
    }

    /// Exponential schedules converge to `end` and never cross it.
    #[test]
    fn exponential_schedule_converges(
        start in 0.01f64..10.0,
        end in 0.0f64..0.01,
        decay in 0.5f64..0.999,
    ) {
        let s = Schedule::Exponential { start, end, decay };
        prop_assert!((s.value(0) - start).abs() < 1e-12);
        // Horizon such that decay^t is negligible for the whole sampled
        // decay range: 0.999^20000 ≈ 2e-9, so the residual (start − end) ·
        // decay^t is far below the 1e-3 tolerance. (At the previous 5 000
        // horizon, 0.999^5000 ≈ 0.007 of a gap up to 10 exceeds it — a
        // wrong expectation, not an implementation bug.)
        let far = s.value(20_000);
        prop_assert!(far >= end - 1e-12);
        prop_assert!((far - end).abs() < 1e-3);
    }

    /// The shared power and the prepared exponential schedule are
    /// `f64::powi` and its closed form bit for bit, for any decay in
    /// (0, 1) and any step, through the `i32::MAX` clamp.
    #[test]
    fn prepared_exponential_schedule_is_powi_bit_for_bit(
        decay in f64::MIN_POSITIVE..1.0,
        near_one in 0.999f64..1.0,
        start in -10.0f64..10.0,
        end in -10.0f64..10.0,
        below_clamp in prop::collection::vec(0u64..=i32::MAX as u64, 8),
        any_step in prop::collection::vec(0u64..=u64::MAX, 8),
    ) {
        let clamp = i32::MAX as u64;
        for decay in [decay, near_one] {
            let prepared = Schedule::Exponential { start, end, decay }.prepare();
            let edges = [0, 1, clamp - 1, clamp, clamp + 1, u64::MAX];
            for &step in below_clamp.iter().chain(&any_step).chain(&edges) {
                let power = decay.powi(step.min(clamp) as i32);
                prop_assert_eq!(powi(decay, step).to_bits(), power.to_bits(), "{}^{}", decay, step);
                let want = end + (start - end) * power;
                prop_assert_eq!(
                    prepared.value(step).to_bits(),
                    want.to_bits(),
                    "{}^{}",
                    decay,
                    step
                );
            }
        }
    }

    /// Q-table updates move values toward the target without overshoot for
    /// learning rates in (0, 1].
    #[test]
    fn q_update_contracts_towards_target(
        initial in -50.0f64..50.0,
        target in -50.0f64..50.0,
        alpha in 0.01f64..1.0,
    ) {
        let mut q = QTable::new(2, initial);
        q.update(0, 0, target, |old, t| old + alpha * (t - old));
        let v = q.value(0, 0);
        let before = (target - initial).abs();
        let after = (target - v).abs();
        prop_assert!(after <= before + 1e-12);
        // No overshoot: the updated value stays between old and target.
        prop_assert!(
            (v >= initial.min(target) - 1e-12) && (v <= initial.max(target) + 1e-12)
        );
    }

    /// Q-learning's learned value for a single repeated terminal transition
    /// converges to the reward.
    #[test]
    fn q_learning_converges_on_bandit(reward in -5.0f64..5.0) {
        let mut agent = QLearningBuilder::new(1)
            .alpha(Schedule::Constant(0.5))
            .build();
        for _ in 0..64 {
            agent.observe(TabularTransition {
                state: 0,
                action: 0,
                reward,
                next_state: 1,
                terminal: true,
            });
        }
        prop_assert!((agent.q_table().value(0, 0) - reward).abs() < 1e-3);
    }

    /// Random search over a quadratic bowl finds points near the optimum
    /// with enough samples, and its best-so-far history never regresses.
    #[test]
    fn random_search_on_quadratic(seed in 0u64..500) {
        struct Bowl;
        impl SearchSpace for Bowl {
            type Point = f64;
            fn random_point(&mut self, rng: &mut StdRng) -> f64 {
                rng.gen_range(-10.0..10.0)
            }
            fn neighbor(&mut self, p: &f64, rng: &mut StdRng) -> f64 {
                (p + rng.gen_range(-1.0..1.0)).clamp(-10.0, 10.0)
            }
            fn evaluate(&mut self, p: &f64) -> f64 {
                -(p - 3.0) * (p - 3.0)
            }
        }
        let out = random_search(&mut Bowl, 300, seed);
        prop_assert!((out.best_point - 3.0).abs() < 2.0, "best {}", out.best_point);
        for w in out.history.windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
    }
}
