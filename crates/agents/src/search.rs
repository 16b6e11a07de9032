//! Classic combinatorial search baselines.
//!
//! The paper positions RL-based DSE against the genetic algorithms and
//! simulated annealing of prior work (\[3\] in the paper, and the IronMan
//! comparison in \[4\]). These optimisers run over any [`SearchSpace`] — the
//! DSE crate adapts its configuration space to this trait so every explorer
//! sees the identical problem.
//!
//! All optimisers **maximise** the score returned by
//! [`SearchSpace::evaluate`] and count every evaluation, making
//! evaluations-to-quality comparisons fair.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A combinatorial search problem.
pub trait SearchSpace {
    /// A candidate solution.
    type Point: Clone;

    /// Draws a uniformly random candidate.
    fn random_point(&mut self, rng: &mut StdRng) -> Self::Point;

    /// Draws a local neighbour of `point` (one mutation).
    fn neighbor(&mut self, point: &Self::Point, rng: &mut StdRng) -> Self::Point;

    /// Scores a candidate; **higher is better**. May mutate `self` to cache
    /// expensive evaluations.
    fn evaluate(&mut self, point: &Self::Point) -> f64;

    /// Recombines two parents (for the genetic algorithm). The default
    /// returns a neighbour of the first parent, which reduces the GA to a
    /// mutation-only evolutionary algorithm for spaces without a natural
    /// crossover.
    fn crossover(&mut self, a: &Self::Point, b: &Self::Point, rng: &mut StdRng) -> Self::Point {
        let _ = b;
        self.neighbor(a, rng)
    }
}

/// Result of one optimisation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome<P> {
    /// The best candidate found.
    pub best_point: P,
    /// Its score.
    pub best_score: f64,
    /// Total calls to [`SearchSpace::evaluate`].
    pub evaluations: u64,
    /// Best-so-far score after each evaluation (monotone non-decreasing) —
    /// the anytime curve used for explorer comparisons.
    pub history: Vec<f64>,
}

struct Tracker<P> {
    best_point: Option<P>,
    best_score: f64,
    evaluations: u64,
    history: Vec<f64>,
}

impl<P: Clone> Tracker<P> {
    fn new() -> Self {
        Self {
            best_point: None,
            best_score: f64::NEG_INFINITY,
            evaluations: 0,
            history: Vec::new(),
        }
    }

    fn record(&mut self, point: &P, score: f64) {
        self.evaluations += 1;
        if score > self.best_score {
            self.best_score = score;
            self.best_point = Some(point.clone());
        }
        self.history.push(self.best_score);
    }

    fn finish(self) -> SearchOutcome<P> {
        SearchOutcome {
            best_point: self.best_point.expect("at least one evaluation"),
            best_score: self.best_score,
            evaluations: self.evaluations,
            history: self.history,
        }
    }
}

/// Uniform random search: `budget` independent samples.
pub fn random_search<S: SearchSpace>(
    space: &mut S,
    budget: u64,
    seed: u64,
) -> SearchOutcome<S::Point> {
    assert!(budget > 0, "search budget must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tracker = Tracker::new();
    for _ in 0..budget {
        let p = space.random_point(&mut rng);
        let s = space.evaluate(&p);
        tracker.record(&p, s);
    }
    tracker.finish()
}

/// First-improvement hill climbing with random restarts.
///
/// Starts from a random point; moves to any neighbour that improves; restarts
/// from a fresh random point after `patience` consecutive non-improving
/// neighbours. Runs until `budget` evaluations are spent.
pub fn hill_climb<S: SearchSpace>(
    space: &mut S,
    budget: u64,
    patience: u32,
    seed: u64,
) -> SearchOutcome<S::Point> {
    assert!(budget > 0, "search budget must be positive");
    assert!(patience > 0, "patience must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tracker = Tracker::new();

    let mut current = space.random_point(&mut rng);
    let mut current_score = space.evaluate(&current);
    tracker.record(&current, current_score);
    let mut stale = 0u32;

    while tracker.evaluations < budget {
        let candidate = space.neighbor(&current, &mut rng);
        let score = space.evaluate(&candidate);
        tracker.record(&candidate, score);
        if score > current_score {
            current = candidate;
            current_score = score;
            stale = 0;
        } else {
            stale += 1;
            if stale >= patience && tracker.evaluations < budget {
                current = space.random_point(&mut rng);
                current_score = space.evaluate(&current);
                tracker.record(&current, current_score);
                stale = 0;
            }
        }
    }
    tracker.finish()
}

/// Parameters of [`simulated_annealing`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealingOptions {
    /// Evaluation budget.
    pub budget: u64,
    /// Initial temperature (> 0).
    pub t_initial: f64,
    /// Final temperature (> 0, ≤ `t_initial`).
    pub t_final: f64,
    /// RNG seed.
    pub seed: u64,
}

/// Simulated annealing with geometric cooling from `t_initial` to `t_final`.
///
/// Uphill moves are always accepted; downhill moves with probability
/// `exp(Δ/T)` (Δ < 0). The temperature follows a geometric schedule chosen
/// so the final step lands on `t_final`.
pub fn simulated_annealing<S: SearchSpace>(
    space: &mut S,
    opts: AnnealingOptions,
) -> SearchOutcome<S::Point> {
    assert!(opts.budget > 0, "search budget must be positive");
    assert!(
        opts.t_initial >= opts.t_final && opts.t_final > 0.0,
        "temperatures must satisfy t_initial >= t_final > 0"
    );
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut tracker = Tracker::new();

    let mut current = space.random_point(&mut rng);
    let mut current_score = space.evaluate(&current);
    tracker.record(&current, current_score);

    let steps = opts.budget.saturating_sub(1).max(1);
    let ratio = (opts.t_final / opts.t_initial).powf(1.0 / steps as f64);
    let mut temperature = opts.t_initial;

    while tracker.evaluations < opts.budget {
        let candidate = space.neighbor(&current, &mut rng);
        let score = space.evaluate(&candidate);
        tracker.record(&candidate, score);
        let delta = score - current_score;
        if delta >= 0.0 || rng.gen::<f64>() < (delta / temperature).exp() {
            current = candidate;
            current_score = score;
        }
        temperature = (temperature * ratio).max(opts.t_final);
    }
    tracker.finish()
}

/// Parameters of [`genetic_algorithm`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneticOptions {
    /// Population size (≥ 2).
    pub population: usize,
    /// Number of generations (≥ 1).
    pub generations: u32,
    /// Per-offspring mutation probability in `[0, 1]`.
    pub mutation_rate: f64,
    /// Tournament size for parent selection (≥ 1).
    pub tournament: usize,
    /// Elites copied unchanged each generation.
    pub elites: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GeneticOptions {
    fn default() -> Self {
        Self {
            population: 20,
            generations: 30,
            mutation_rate: 0.3,
            tournament: 3,
            elites: 2,
            seed: 0,
        }
    }
}

/// A generational genetic algorithm with tournament selection and elitism.
pub fn genetic_algorithm<S: SearchSpace>(
    space: &mut S,
    opts: GeneticOptions,
) -> SearchOutcome<S::Point> {
    assert!(opts.population >= 2, "population must be at least 2");
    assert!(opts.generations >= 1, "need at least one generation");
    assert!(
        (0.0..=1.0).contains(&opts.mutation_rate),
        "mutation rate outside [0, 1]"
    );
    assert!(opts.tournament >= 1, "tournament size must be positive");
    assert!(
        opts.elites < opts.population,
        "elites must leave room for offspring"
    );

    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut tracker = Tracker::new();

    let mut population: Vec<(S::Point, f64)> = (0..opts.population)
        .map(|_| {
            let p = space.random_point(&mut rng);
            let s = space.evaluate(&p);
            tracker.record(&p, s);
            (p, s)
        })
        .collect();

    for _gen in 0..opts.generations {
        // Sort best-first for elitism.
        population.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let mut next: Vec<(S::Point, f64)> = population.iter().take(opts.elites).cloned().collect();

        while next.len() < opts.population {
            let parent_a = tournament_pick(&population, opts.tournament, &mut rng);
            let parent_b = tournament_pick(&population, opts.tournament, &mut rng);
            let mut child = space.crossover(&parent_a, &parent_b, &mut rng);
            if rng.gen::<f64>() < opts.mutation_rate {
                child = space.neighbor(&child, &mut rng);
            }
            let score = space.evaluate(&child);
            tracker.record(&child, score);
            next.push((child, score));
        }
        population = next;
    }
    tracker.finish()
}

fn tournament_pick<P: Clone>(population: &[(P, f64)], k: usize, rng: &mut StdRng) -> P {
    let mut best: Option<&(P, f64)> = None;
    for _ in 0..k {
        let c = &population[rng.gen_range(0..population.len())];
        if best.is_none_or(|b| c.1 > b.1) {
            best = Some(c);
        }
    }
    best.expect("non-empty population").0.clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// OneMax: maximise the number of set bits in a 16-bit word. Known
    /// optimum: 16 ones.
    struct OneMax {
        evaluations: u64,
    }

    impl SearchSpace for OneMax {
        type Point = u16;

        fn random_point(&mut self, rng: &mut StdRng) -> u16 {
            rng.gen()
        }

        fn neighbor(&mut self, p: &u16, rng: &mut StdRng) -> u16 {
            p ^ (1u16 << rng.gen_range(0..16))
        }

        fn evaluate(&mut self, p: &u16) -> f64 {
            self.evaluations += 1;
            p.count_ones() as f64
        }

        fn crossover(&mut self, a: &u16, b: &u16, rng: &mut StdRng) -> u16 {
            let mask: u16 = rng.gen();
            (a & mask) | (b & !mask)
        }
    }

    #[test]
    fn random_search_finds_decent_onemax() {
        let mut sp = OneMax { evaluations: 0 };
        let out = random_search(&mut sp, 300, 1);
        assert_eq!(out.evaluations, 300);
        assert_eq!(sp.evaluations, 300);
        assert!(out.best_score >= 12.0, "best {}", out.best_score);
        assert_eq!(out.history.len(), 300);
    }

    #[test]
    fn hill_climb_solves_onemax() {
        let mut sp = OneMax { evaluations: 0 };
        let out = hill_climb(&mut sp, 2_000, 64, 3);
        assert_eq!(out.best_score, 16.0, "hill climb should reach the optimum");
    }

    #[test]
    fn annealing_solves_onemax() {
        let mut sp = OneMax { evaluations: 0 };
        let out = simulated_annealing(
            &mut sp,
            AnnealingOptions {
                budget: 3_000,
                t_initial: 4.0,
                t_final: 0.05,
                seed: 5,
            },
        );
        assert_eq!(out.best_score, 16.0);
    }

    #[test]
    fn genetic_algorithm_solves_onemax() {
        let mut sp = OneMax { evaluations: 0 };
        let out = genetic_algorithm(
            &mut sp,
            GeneticOptions {
                population: 24,
                generations: 40,
                seed: 2,
                ..Default::default()
            },
        );
        assert_eq!(out.best_score, 16.0);
    }

    #[test]
    fn history_is_monotone_non_decreasing() {
        let mut sp = OneMax { evaluations: 0 };
        for out in [
            random_search(&mut sp, 100, 7),
            hill_climb(&mut sp, 100, 8, 7),
            simulated_annealing(
                &mut sp,
                AnnealingOptions {
                    budget: 100,
                    t_initial: 2.0,
                    t_final: 0.1,
                    seed: 7,
                },
            ),
        ] {
            for w in out.history.windows(2) {
                assert!(w[1] >= w[0]);
            }
        }
    }

    #[test]
    fn runs_are_seed_reproducible() {
        let run = |seed| {
            let mut sp = OneMax { evaluations: 0 };
            random_search(&mut sp, 50, seed).best_point
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    #[should_panic(expected = "budget")]
    fn zero_budget_rejected() {
        let mut sp = OneMax { evaluations: 0 };
        random_search(&mut sp, 0, 1);
    }

    #[test]
    #[should_panic(expected = "temperatures")]
    fn bad_temperatures_rejected() {
        let mut sp = OneMax { evaluations: 0 };
        simulated_annealing(
            &mut sp,
            AnnealingOptions {
                budget: 10,
                t_initial: 0.1,
                t_final: 1.0,
                seed: 0,
            },
        );
    }

    #[test]
    #[should_panic(expected = "elites")]
    fn ga_rejects_all_elite_population() {
        let mut sp = OneMax { evaluations: 0 };
        genetic_algorithm(
            &mut sp,
            GeneticOptions {
                population: 4,
                elites: 4,
                ..Default::default()
            },
        );
    }
}
