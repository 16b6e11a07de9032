//! Multi-seed robustness sweeps and agent portfolios.
//!
//! The paper reports one exploration per benchmark; this module re-runs an
//! exploration across agent seeds and aggregates stop behaviour and solution
//! quality, quantifying how much of the reported behaviour is luck.
//!
//! Sweeps fan out with rayon over clones of a `Send + Sync`
//! [`crate::backend::EvalContext`] handle sharing one
//! [`crate::backend::SharedCache`]: every seed owns its
//! agent RNG, so per-seed traces are bit-identical to a sequential run —
//! cache sharing changes only the cost (designs another seed already
//! executed come back for a hash lookup instead of an interpreter run).
//!
//! Since the campaign layer landed, the sweeps themselves live in
//! [`crate::campaign::Campaign`] — a 1-benchmark × 1-agent × N-seed
//! campaign is a seed sweep, a 1 × M × 1 campaign is a portfolio race;
//! the legacy free-function wrappers (`sweep_seeds*`, `race_portfolio*`)
//! were removed in 0.2. What remains here is the canonical report
//! vocabulary — the aggregation types ([`SweepStat`], [`SweepSummary`],
//! [`PortfolioEntry`], [`PortfolioOutcome`]) and [`summarize_outcomes`] —
//! which is what campaigns themselves return.

use crate::backend::EvalBackend;
use crate::explore::{AgentKind, ExplorationOutcome, ExplorationSummary};
use ax_agents::train::StopReason;

/// Mean / standard deviation / extremes of one sweep statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepStat {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n − 1 denominator; 0 for single runs).
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl SweepStat {
    /// Aggregates a sample; `None` when it is empty.
    pub fn try_from_values(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = if values.len() < 2 {
            0.0
        } else {
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0)
        };
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some(Self {
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        })
    }
}

/// Aggregated result of a multi-seed sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSummary {
    /// Benchmark name.
    pub benchmark: String,
    /// Seeds swept.
    pub seeds: u64,
    /// Runs that reached the cumulative-reward target.
    pub reached_target: u64,
    /// Runs that hit Algorithm 1's terminate flag.
    pub terminated: u64,
    /// Stop-step statistics.
    pub stop_step: SweepStat,
    /// Solution Δpower statistics.
    pub solution_power: SweepStat,
    /// Solution accuracy-degradation statistics.
    pub solution_accuracy: SweepStat,
    /// Fraction of runs whose solution respects all three constraints.
    pub feasible_solutions: f64,
}

/// Aggregates finished exploration outcomes into a [`SweepSummary`],
/// whatever [`EvalBackend`] produced them.
///
/// # Panics
///
/// Panics if `outcomes` is empty (callers validate `seeds > 0`).
pub fn summarize_outcomes<B: EvalBackend>(
    benchmark: String,
    outcomes: &[ExplorationOutcome<B>],
) -> SweepSummary {
    let seeds = outcomes.len() as u64;
    let stop_steps: Vec<f64> = outcomes.iter().map(|o| o.summary.steps as f64).collect();
    let powers: Vec<f64> = outcomes.iter().map(|o| o.summary.power.solution).collect();
    let accs: Vec<f64> = outcomes
        .iter()
        .map(|o| o.summary.accuracy.solution)
        .collect();
    let feasible = outcomes
        .iter()
        .filter(|o| {
            let th = o.thresholds;
            let m = o.last_step.metrics;
            m.delta_acc <= th.acc_th && m.delta_power >= th.power_th && m.delta_time >= th.time_th
        })
        .count() as f64
        / seeds as f64;

    let stat =
        |values: &[f64]| SweepStat::try_from_values(values).expect("at least one sweep outcome");
    SweepSummary {
        benchmark,
        seeds,
        reached_target: outcomes
            .iter()
            .filter(|o| o.stop_reason == StopReason::RewardTarget)
            .count() as u64,
        terminated: outcomes
            .iter()
            .filter(|o| o.stop_reason == StopReason::Terminated)
            .count() as u64,
        stop_step: stat(&stop_steps),
        solution_power: stat(&powers),
        solution_accuracy: stat(&accs),
        feasible_solutions: feasible,
    }
}

/// One run's result within a portfolio race.
#[derive(Debug, Clone)]
pub struct PortfolioEntry {
    /// The learning algorithm.
    pub kind: AgentKind,
    /// The agent seed of this run.
    pub seed: u64,
    /// Its exploration summary.
    pub summary: ExplorationSummary,
    /// Why its exploration stopped.
    pub stop_reason: StopReason,
    /// Distinct designs this agent's evaluator holds metrics for.
    pub distinct_configs: u64,
    /// `true` if the final configuration respects all three thresholds.
    pub feasible: bool,
    /// Scalar solution quality: normalised power + time gains when
    /// feasible, negative accuracy violation otherwise (the
    /// [`crate::search_adapter`] scalarisation).
    pub score: f64,
    /// Accuracy degradation of the final configuration — the QoR-error
    /// objective, kept un-collapsed for multi-objective reports.
    pub qor_error: f64,
    /// Power draw of the final configuration — the op-cost objective.
    pub op_cost: f64,
}

/// Result of racing several agents on one benchmark.
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// Benchmark name.
    pub benchmark: String,
    /// The benchmark input seed this portfolio ran with, when the
    /// campaign swept an explicit `input_seeds` axis (`None` for the
    /// implicit default seed).
    pub input_seed: Option<u64>,
    /// One entry per raced run, agent-major in input order (seed-minor for
    /// multi-seed campaigns).
    pub entries: Vec<PortfolioEntry>,
    /// Index into `entries` of the best score (ties: first).
    pub best: usize,
    /// Distinct execution classes this portfolio's runs resolved through
    /// the shared cache — agents racing the same benchmark pay for each
    /// class once. Classes other campaigns left in the cache do not count,
    /// so the value does not depend on what else used the cache.
    pub shared_distinct: u64,
}

impl PortfolioOutcome {
    /// The winning entry.
    pub fn winner(&self) -> &PortfolioEntry {
        &self.entries[self.best]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{EvalContext, SharedCache};
    use crate::campaign::{run_spec, BenchmarkSpec, ExperimentSpec, RunSpecOptions, SeedRange};
    use crate::explore::ExploreOptions;
    use ax_operators::OperatorLibrary;
    use ax_vm::VmError;
    use ax_workloads::dot::DotProduct;
    use ax_workloads::Workload;
    use std::sync::Arc;

    fn shared_context(
        workload: &dyn Workload,
        lib: &OperatorLibrary,
        opts: &ExploreOptions,
    ) -> Result<EvalContext, VmError> {
        EvalContext::with_cache(
            workload,
            Arc::new(lib.clone()),
            opts.input_seed,
            SharedCache::new(),
        )
    }

    /// A Dot(8) × 1-agent × N-seed campaign — the canonical seed sweep
    /// the removed `sweep_seeds*` wrappers delegated to.
    fn sweep(opts: &ExploreOptions, kind: AgentKind, seeds: u64, sequential: bool) -> SweepSummary {
        let mut spec = ExperimentSpec::new("sweep")
            .benchmark(BenchmarkSpec::Dot(8))
            .agent(kind)
            .seeds(SeedRange::new(0, seeds))
            .explore(*opts);
        spec.parallelism = sequential.then_some(1);
        let report = run_spec(&spec, RunSpecOptions::default()).expect("sweep campaign runs");
        report.cells.into_iter().next().expect("one cell").summary
    }

    /// A Dot(8) × M-agent × 1-seed campaign — the canonical portfolio race
    /// the removed `race_portfolio*` wrappers delegated to.
    fn race(opts: &ExploreOptions, kinds: &[AgentKind]) -> PortfolioOutcome {
        let mut spec = ExperimentSpec::new("portfolio")
            .benchmark(BenchmarkSpec::Dot(8))
            .seeds(SeedRange::single(opts.seed))
            .explore(*opts);
        spec.agents = kinds.to_vec();
        let report = run_spec(&spec, RunSpecOptions::default()).expect("portfolio campaign runs");
        report.portfolios.into_iter().next().expect("one benchmark")
    }

    #[test]
    fn stat_aggregation() {
        let s = SweepStat::try_from_values(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std_dev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        let single = SweepStat::try_from_values(&[7.0]).unwrap();
        assert_eq!(single.std_dev, 0.0);
    }

    #[test]
    fn stat_rejects_empty() {
        assert_eq!(SweepStat::try_from_values(&[]), None);
    }

    #[test]
    fn sweep_aggregates_across_seeds() {
        let opts = ExploreOptions {
            max_steps: 150,
            ..Default::default()
        };
        let s = sweep(&opts, AgentKind::QLearning, 4, true);
        assert_eq!(s.seeds, 4);
        assert!(s.stop_step.mean > 0.0 && s.stop_step.mean <= 150.0);
        assert!(s.stop_step.min <= s.stop_step.max);
        assert!((0.0..=1.0).contains(&s.feasible_solutions));
        assert!(s.reached_target + s.terminated <= 4);
    }

    #[test]
    fn sweep_is_deterministic() {
        let opts = ExploreOptions {
            max_steps: 100,
            ..Default::default()
        };
        let a = sweep(&opts, AgentKind::QLearning, 3, true);
        let b = sweep(&opts, AgentKind::QLearning, 3, true);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_sweep_equals_sequential() {
        let opts = ExploreOptions {
            max_steps: 120,
            ..Default::default()
        };
        let seq = sweep(&opts, AgentKind::QLearning, 8, true);
        let par = sweep(&opts, AgentKind::QLearning, 8, false);
        assert_eq!(
            seq, par,
            "cache sharing/parallelism must not change results"
        );
    }

    #[test]
    fn sequential_sweep_shares_designs_across_seeds() {
        // A stand-alone exploration re-evaluates nothing; across seeds, the
        // shared cache means later seeds reuse earlier seeds' designs. The
        // cheap proxy: two sweeps of the same summary agree (determinism is
        // covered above), and a fresh context carries an empty cache that
        // ends up bounded by the space size.
        let lib = OperatorLibrary::evoapprox();
        let opts = ExploreOptions {
            max_steps: 100,
            ..Default::default()
        };
        let ctx = shared_context(&DotProduct::new(8), &lib, &opts).unwrap();
        for seed in 0..3 {
            let run_opts = ExploreOptions { seed, ..opts };
            crate::campaign::explore(&ctx, &run_opts, AgentKind::QLearning);
        }
        let cache = ctx.shared_cache().unwrap();
        assert!(!cache.is_empty());
        assert!(cache.hits() > 0, "later seeds must reuse earlier designs");
    }

    #[test]
    fn portfolio_races_all_kinds() {
        let opts = ExploreOptions {
            max_steps: 120,
            ..Default::default()
        };
        let kinds = [
            AgentKind::QLearning,
            AgentKind::Sarsa,
            AgentKind::ExpectedSarsa,
            AgentKind::DoubleQ,
            AgentKind::QLambda { lambda: 0.7 },
        ];
        let p = race(&opts, &kinds);
        assert_eq!(p.entries.len(), kinds.len());
        assert!(p.best < p.entries.len());
        let best_score = p.winner().score;
        for e in &p.entries {
            assert!(e.score <= best_score);
            assert_eq!(e.summary.benchmark, p.benchmark);
        }
        // Racing agents share the design cache: the union of distinct
        // designs is at most the sum of per-agent counts (strictly smaller
        // whenever agents overlap, which they do from the precise start).
        let sum: u64 = p.entries.iter().map(|e| e.distinct_configs).sum();
        assert!(p.shared_distinct <= sum);
        assert!(p.shared_distinct > 0);
    }

    #[test]
    fn portfolio_entries_match_standalone_explorations() {
        let lib = OperatorLibrary::evoapprox();
        let opts = ExploreOptions {
            max_steps: 100,
            ..Default::default()
        };
        let kinds = [AgentKind::QLearning, AgentKind::Sarsa];
        let p = race(&opts, &kinds);
        for (kind, entry) in kinds.iter().zip(&p.entries) {
            let ctx = EvalContext::new(&DotProduct::new(8), Arc::new(lib.clone()), opts.input_seed)
                .unwrap();
            let solo = crate::campaign::explore(&ctx, &opts, *kind);
            assert_eq!(entry.summary, solo.summary, "{}", kind.name());
        }
    }
}
