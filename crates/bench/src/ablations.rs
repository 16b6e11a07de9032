//! Ablation studies beyond the paper's headline experiments.
//!
//! * [`explorer_comparison`] — Q-learning vs the classic DSE baselines
//!   (random, hill climbing, simulated annealing, genetic) at an equal
//!   evaluation budget, compared on best scalarised score and on the Pareto
//!   hypervolume of their evaluated sets;
//! * [`epsilon_ablation`] — exploration-schedule sensitivity of the RL agent;
//! * [`threshold_ablation`] — sensitivity of the found solutions to the
//!   paper's 50 % / 50 % / 0.4 threshold rule.

use crate::OutputDir;
use ax_agents::schedule::Schedule;
use ax_agents::search::{
    genetic_algorithm, hill_climb, random_search, simulated_annealing, AnnealingOptions,
    GeneticOptions,
};
use ax_dse::explore::{AgentKind, ExploreOptions};
use ax_dse::pareto::hypervolume;
use ax_dse::report::{ascii_table, fmt_metric};
use ax_dse::search_adapter::DseSearchSpace;
use ax_dse::thresholds::ThresholdRule;
use ax_dse::Evaluator;
use ax_operators::OperatorLibrary;
use ax_workloads::Workload;

/// One explorer's result in the comparison.
#[derive(Debug, Clone)]
pub struct ExplorerResult {
    /// Explorer name.
    pub name: String,
    /// Best scalarised score found (see [`DseSearchSpace`] docs).
    pub best_score: f64,
    /// Evaluations spent (distinct executions may be fewer via the cache).
    pub evaluations: u64,
    /// Hypervolume of the feasible (Δpower, Δtime) gains over (0, 0),
    /// normalised by precise power × time.
    pub hypervolume: f64,
}

/// The area the feasible designs' normalised (Δpower, Δtime) gains
/// dominate over (0, 0), measured on the negated gains.
fn feasible_hypervolume(evaluator: &Evaluator, acc_th: f64) -> f64 {
    let pts: Vec<Vec<f64>> = evaluator
        .evaluated()
        .iter()
        .filter(|(_, m)| m.delta_acc <= acc_th)
        .map(|(_, m)| {
            vec![
                -m.delta_power / evaluator.precise_power(),
                -m.delta_time / evaluator.precise_time(),
            ]
        })
        .collect();
    hypervolume(&pts, &[-0.0, -0.0])
}

/// Compares Q-learning with the classic baselines on one workload at an
/// equal evaluation budget.
pub fn explorer_comparison(
    workload: &dyn Workload,
    budget: u64,
    seed: u64,
    out: &OutputDir,
) -> Vec<ExplorerResult> {
    let lib = OperatorLibrary::evoapprox();
    let mut results = Vec::new();

    // Q-learning: spend `budget` environment steps, score its best feasible
    // configuration with the same scalarisation the baselines optimise.
    {
        let opts = ExploreOptions {
            max_steps: budget,
            seed,
            ..Default::default()
        };
        let outcome = crate::explore_one(workload, &lib, &opts, AgentKind::QLearning);
        let th = outcome.thresholds;
        let (pp, pt) = (
            outcome.evaluator.precise_power(),
            outcome.evaluator.precise_time(),
        );
        let best = outcome
            .evaluator
            .evaluated()
            .iter()
            .filter(|(_, m)| m.delta_acc <= th.acc_th)
            .map(|(_, m)| m.delta_power / pp + m.delta_time / pt)
            .fold(f64::NEG_INFINITY, f64::max);
        results.push(ExplorerResult {
            name: "q-learning".into(),
            best_score: best,
            evaluations: outcome.trace.len() as u64,
            hypervolume: feasible_hypervolume(&outcome.evaluator, th.acc_th),
        });
    }

    // Classic baselines share the scalarised search space.
    type Runner = Box<dyn Fn(&mut DseSearchSpace<'_>) -> (f64, u64)>;
    let baselines: Vec<(&str, Runner)> = vec![
        (
            "random",
            Box::new(move |space: &mut DseSearchSpace<'_>| {
                let o = random_search(space, budget, seed);
                (o.best_score, o.evaluations)
            }),
        ),
        (
            "hill-climb",
            Box::new(move |space: &mut DseSearchSpace<'_>| {
                let o = hill_climb(space, budget, 32, seed);
                (o.best_score, o.evaluations)
            }),
        ),
        (
            "sim-anneal",
            Box::new(move |space: &mut DseSearchSpace<'_>| {
                let o = simulated_annealing(
                    space,
                    AnnealingOptions {
                        budget,
                        t_initial: 0.5,
                        t_final: 0.01,
                        seed,
                    },
                );
                (o.best_score, o.evaluations)
            }),
        ),
        (
            "genetic",
            Box::new(move |space: &mut DseSearchSpace<'_>| {
                let pop = 20usize;
                let gens = ((budget as usize).saturating_sub(pop) / (pop - 2)).max(1) as u32;
                let o = genetic_algorithm(
                    space,
                    GeneticOptions {
                        population: pop,
                        generations: gens,
                        seed,
                        ..Default::default()
                    },
                );
                (o.best_score, o.evaluations)
            }),
        ),
    ];

    for (name, run) in baselines {
        let mut evaluator =
            Evaluator::new(workload, &lib, ExploreOptions::default().input_seed).unwrap();
        let th = ThresholdRule::paper().calibrate(&evaluator);
        let (best_score, evaluations) = {
            let mut space = DseSearchSpace::new(&mut evaluator, th);
            run(&mut space)
        };
        results.push(ExplorerResult {
            name: name.into(),
            best_score,
            evaluations,
            hypervolume: feasible_hypervolume(&evaluator, th.acc_th),
        });
    }

    let headers = [
        "explorer",
        "best score",
        "evaluations",
        "feasible hypervolume",
    ];
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:.4}", r.best_score),
                r.evaluations.to_string(),
                format!("{:.4}", r.hypervolume),
            ]
        })
        .collect();
    println!(
        "\nAblation A: explorer comparison on {} (budget {budget})",
        workload.name()
    );
    println!("{}", ascii_table(&headers, &rows));
    out.write(
        &format!("ablation_explorers_{}", workload.name()),
        &headers,
        &rows,
    );
    results
}

/// Compares the learning algorithms (the paper's Q-learning vs SARSA,
/// Expected SARSA, Double Q and Watkins Q(λ)) on one workload — the paper's
/// "improve the learning strategy" future-work direction.
pub fn agent_comparison(
    workload: &dyn Workload,
    steps: u64,
    out: &OutputDir,
) -> Vec<(String, f64, u64)> {
    let lib = OperatorLibrary::evoapprox();
    let kinds = [
        AgentKind::QLearning,
        AgentKind::Sarsa,
        AgentKind::ExpectedSarsa,
        AgentKind::DoubleQ,
        AgentKind::QLambda { lambda: 0.8 },
    ];
    let mut results = Vec::new();
    for kind in kinds {
        let opts = ExploreOptions {
            max_steps: steps,
            ..Default::default()
        };
        let o = crate::explore_one(workload, &lib, &opts, kind);
        results.push((kind.name(), o.total_reward, o.summary.steps));
    }
    let headers = ["agent", "final cumulative reward", "stop step"];
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(n, cum, st)| vec![n.clone(), fmt_metric(*cum), st.to_string()])
        .collect();
    println!(
        "\nAblation D: learning algorithms on {} ({steps}-step cap)",
        workload.name()
    );
    println!("{}", ascii_table(&headers, &rows));
    out.write(
        &format!("ablation_agents_{}", workload.name()),
        &headers,
        &rows,
    );
    results
}

/// ε-schedule sensitivity of the Q-learning exploration.
pub fn epsilon_ablation(
    workload: &dyn Workload,
    steps: u64,
    out: &OutputDir,
) -> Vec<(String, f64)> {
    let lib = OperatorLibrary::evoapprox();
    let schedules: Vec<(&str, Schedule)> = vec![
        ("constant-0.1", Schedule::Constant(0.1)),
        ("constant-0.3", Schedule::Constant(0.3)),
        (
            "linear-1.0->0.05",
            Schedule::Linear {
                start: 1.0,
                end: 0.05,
                steps: steps / 2,
            },
        ),
        (
            "exp-1.0->0.05",
            Schedule::Exponential {
                start: 1.0,
                end: 0.05,
                decay: 0.999,
            },
        ),
    ];
    let mut results = Vec::new();
    for (name, eps) in schedules {
        let opts = ExploreOptions {
            max_steps: steps,
            epsilon: eps,
            ..Default::default()
        };
        let outcome = crate::explore_one(workload, &lib, &opts, AgentKind::QLearning);
        let final_cum = outcome.total_reward;
        results.push((name.to_owned(), final_cum));
    }
    let headers = ["epsilon schedule", "final cumulative reward"];
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(n, v)| vec![n.clone(), fmt_metric(*v)])
        .collect();
    println!(
        "\nAblation B: epsilon schedules on {} ({steps} steps)",
        workload.name()
    );
    println!("{}", ascii_table(&headers, &rows));
    out.write(
        &format!("ablation_epsilon_{}", workload.name()),
        &headers,
        &rows,
    );
    results
}

/// Threshold-rule sensitivity: how the solution moves as the paper's
/// fractions change.
pub fn threshold_ablation(
    workload: &dyn Workload,
    steps: u64,
    out: &OutputDir,
) -> Vec<Vec<String>> {
    let lib = OperatorLibrary::evoapprox();
    let rules = [
        ("paper (0.5/0.5/0.4)", ThresholdRule::paper()),
        (
            "lenient gains (0.25/0.25/0.4)",
            ThresholdRule {
                power_frac: 0.25,
                time_frac: 0.25,
                acc_frac: 0.4,
            },
        ),
        (
            "strict gains (0.75/0.75/0.4)",
            ThresholdRule {
                power_frac: 0.75,
                time_frac: 0.75,
                acc_frac: 0.4,
            },
        ),
        (
            "tight accuracy (0.5/0.5/0.2)",
            ThresholdRule {
                power_frac: 0.5,
                time_frac: 0.5,
                acc_frac: 0.2,
            },
        ),
        (
            "loose accuracy (0.5/0.5/0.8)",
            ThresholdRule {
                power_frac: 0.5,
                time_frac: 0.5,
                acc_frac: 0.8,
            },
        ),
    ];
    let headers = [
        "threshold rule",
        "solution d-power",
        "solution d-time",
        "solution acc-degr",
        "steps",
    ];
    let mut rows = Vec::new();
    for (name, rule) in rules {
        let opts = ExploreOptions {
            max_steps: steps,
            rule,
            ..Default::default()
        };
        let o = crate::explore_one(workload, &lib, &opts, AgentKind::QLearning);
        rows.push(vec![
            name.to_owned(),
            fmt_metric(o.summary.power.solution),
            fmt_metric(o.summary.time.solution),
            fmt_metric(o.summary.accuracy.solution),
            o.summary.steps.to_string(),
        ]);
    }
    println!(
        "\nAblation C: threshold sensitivity on {} ({steps} steps)",
        workload.name()
    );
    println!("{}", ascii_table(&headers, &rows));
    out.write(
        &format!("ablation_thresholds_{}", workload.name()),
        &headers,
        &rows,
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use ax_workloads::dot::DotProduct;

    #[test]
    fn explorer_comparison_produces_all_five() {
        let r = explorer_comparison(&DotProduct::new(8), 150, 3, &OutputDir::default());
        assert_eq!(r.len(), 5);
        assert_eq!(r[0].name, "q-learning");
        for e in &r {
            assert!(e.best_score.is_finite(), "{}", e.name);
            assert!(e.hypervolume >= 0.0);
        }
    }

    #[test]
    fn agent_comparison_runs_all_kinds() {
        let r = agent_comparison(&DotProduct::new(8), 150, &OutputDir::default());
        assert_eq!(r.len(), 5);
        let names: Vec<&str> = r.iter().map(|(n, _, _)| n.as_str()).collect();
        assert!(names.contains(&"q-learning") && names.contains(&"q-lambda(0.8)"));
    }

    #[test]
    fn epsilon_ablation_runs_all_schedules() {
        let r = epsilon_ablation(&DotProduct::new(8), 200, &OutputDir::default());
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn threshold_ablation_runs_all_rules() {
        let rows = threshold_ablation(&DotProduct::new(8), 200, &OutputDir::default());
        assert_eq!(rows.len(), 5);
    }
}
