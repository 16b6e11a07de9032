//! Adapter exposing the DSE problem to the classic search baselines.
//!
//! The RL agent optimises via Algorithm 1's step rewards; random search,
//! hill climbing, simulated annealing and the genetic algorithm
//! ([`ax_agents::search`]) need a single scalar score per configuration.
//! The scalarisation used here mirrors the reward's structure:
//!
//! * **feasible** (Δacc ≤ acc_th): `score = Δpower / power_precise +
//!   Δtime / time_precise` — the sum of normalised gains, in ≈ `[0, 2]`;
//! * **infeasible**: `score = −Δacc / acc_th` — strictly negative and
//!   decreasing with the violation, so any feasible point beats every
//!   infeasible one.
//!
//! All explorers therefore optimise the same trade-off the RL reward
//! encodes, making evaluations-to-quality comparisons meaningful.

use crate::backend::{EvalBackend, EvalMetrics, Evaluator};
use crate::config::AxConfig;
use crate::thresholds::Thresholds;
use ax_agents::search::SearchSpace;
use rand::rngs::StdRng;

/// The scalar solution quality described in the module docs: normalised
/// power + time gains when the accuracy budget holds, a negative violation
/// ratio otherwise. Shared by the search baselines and the portfolio
/// ranking so every strategy optimises the identical objective.
pub fn solution_score(
    m: &EvalMetrics,
    thresholds: &Thresholds,
    precise_power: f64,
    precise_time: f64,
) -> f64 {
    if m.delta_acc <= thresholds.acc_th {
        m.delta_power / precise_power.max(f64::MIN_POSITIVE)
            + m.delta_time / precise_time.max(f64::MIN_POSITIVE)
    } else {
        -(m.delta_acc / thresholds.acc_th.max(f64::MIN_POSITIVE))
    }
}

/// The DSE configuration space as a [`SearchSpace`].
///
/// Generic over the [`EvalBackend`] so the classic baselines score designs
/// through the same pluggable evaluation engine as the RL agent; defaults
/// to the exact [`Evaluator`].
#[derive(Debug)]
pub struct DseSearchSpace<'a, B: EvalBackend + ?Sized = Evaluator> {
    evaluator: &'a mut B,
    thresholds: Thresholds,
}

impl<'a, B: EvalBackend + ?Sized> DseSearchSpace<'a, B> {
    /// Wraps an evaluation backend and thresholds.
    pub fn new(evaluator: &'a mut B, thresholds: Thresholds) -> Self {
        Self {
            evaluator,
            thresholds,
        }
    }

    /// Scores a configuration's metrics (see the module docs).
    pub fn score_of(&self, m: &EvalMetrics) -> f64 {
        solution_score(
            m,
            &self.thresholds,
            self.evaluator.precise_power(),
            self.evaluator.precise_time(),
        )
    }
}

impl<B: EvalBackend + ?Sized> SearchSpace for DseSearchSpace<'_, B> {
    type Point = AxConfig;

    fn random_point(&mut self, rng: &mut StdRng) -> AxConfig {
        AxConfig::random(self.evaluator.dims(), rng)
    }

    fn neighbor(&mut self, point: &AxConfig, rng: &mut StdRng) -> AxConfig {
        point.neighbor(self.evaluator.dims(), rng)
    }

    fn evaluate(&mut self, point: &AxConfig) -> f64 {
        let m = self
            .evaluator
            .evaluate(point)
            .expect("validated workload evaluation cannot fail");
        self.score_of(&m)
    }

    fn crossover(&mut self, a: &AxConfig, b: &AxConfig, rng: &mut StdRng) -> AxConfig {
        a.crossover(b, self.evaluator.dims(), rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thresholds::ThresholdRule;
    use ax_agents::search::{
        genetic_algorithm, hill_climb, random_search, simulated_annealing, AnnealingOptions,
        GeneticOptions,
    };
    use ax_operators::OperatorLibrary;
    use ax_workloads::matmul::MatMul;

    fn space_parts() -> (Evaluator, Thresholds) {
        let lib = OperatorLibrary::evoapprox();
        let ev = Evaluator::new(&MatMul::new(4), &lib, 7).unwrap();
        let th = ThresholdRule::paper().calibrate(&ev);
        (ev, th)
    }

    #[test]
    fn feasible_points_always_beat_infeasible() {
        let (mut ev, th) = space_parts();
        let space = DseSearchSpace::new(&mut ev, th);
        let feasible = crate::backend::EvalMetrics {
            delta_acc: th.acc_th * 0.9,
            delta_power: 0.0,
            delta_time: 0.0,
            signed_error: 0.0,
            power: 0.0,
            time_ns: 0.0,
        };
        let infeasible = crate::backend::EvalMetrics {
            delta_acc: th.acc_th * 1.1,
            delta_power: 1e12,
            delta_time: 1e12,
            signed_error: 0.0,
            power: 0.0,
            time_ns: 0.0,
        };
        assert!(space.score_of(&feasible) >= 0.0);
        assert!(space.score_of(&infeasible) < 0.0);
    }

    #[test]
    fn random_search_runs_and_scores() {
        let (mut ev, th) = space_parts();
        let mut space = DseSearchSpace::new(&mut ev, th);
        let out = random_search(&mut space, 100, 3);
        assert_eq!(out.evaluations, 100);
        assert!(out.best_score.is_finite());
    }

    #[test]
    fn all_baselines_find_feasible_solutions() {
        let (mut ev, th) = space_parts();
        let best_scores: Vec<f64> = {
            let mut space = DseSearchSpace::new(&mut ev, th);
            vec![
                random_search(&mut space, 200, 1).best_score,
                hill_climb(&mut space, 200, 20, 1).best_score,
                simulated_annealing(
                    &mut space,
                    AnnealingOptions {
                        budget: 200,
                        t_initial: 0.5,
                        t_final: 0.01,
                        seed: 1,
                    },
                )
                .best_score,
                genetic_algorithm(
                    &mut space,
                    GeneticOptions {
                        population: 10,
                        generations: 19,
                        seed: 1,
                        ..Default::default()
                    },
                )
                .best_score,
            ]
        };
        for (i, s) in best_scores.iter().enumerate() {
            assert!(*s > 0.0, "baseline {i} found no feasible gain: {s}");
        }
    }

    #[test]
    fn shared_evaluator_caches_across_baselines() {
        let (mut ev, th) = space_parts();
        {
            let mut space = DseSearchSpace::new(&mut ev, th);
            random_search(&mut space, 300, 5);
        }
        // 6*6*16 = 576 possible configs; 300 random draws must have hit
        // duplicates resolved by the cache.
        assert!(ev.distinct_evaluations() <= 300);
        let before = ev.distinct_evaluations();
        {
            let mut space = DseSearchSpace::new(&mut ev, th);
            random_search(&mut space, 300, 5); // identical seed: all cached
        }
        assert_eq!(ev.distinct_evaluations(), before);
        assert!(ev.cache_hits() > 0);
    }
}
