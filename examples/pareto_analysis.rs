//! Multi-objective analysis: Pareto front and explorer comparison.
//!
//! ```text
//! cargo run --release --example pareto_analysis
//! ```
//!
//! Runs the Q-learning exploration and the classic baselines (random search,
//! hill climbing, simulated annealing, genetic algorithm) on the same
//! benchmark, extracts the Pareto-optimal configurations from everything
//! evaluated, and compares explorers by feasible hypervolume.

use ax_agents::search::{
    genetic_algorithm, hill_climb, random_search, simulated_annealing, AnnealingOptions,
    GeneticOptions,
};
use ax_dse::backend::EvalContext;
use ax_dse::explore::{AgentKind, ExploreOptions};
use ax_dse::pareto::{hypervolume, non_dominated_ranks};
use ax_dse::report::ascii_table;
use ax_dse::search_adapter::DseSearchSpace;
use ax_dse::thresholds::ThresholdRule;
use ax_dse::Evaluator;
use ax_operators::OperatorLibrary;
use ax_workloads::matmul::MatMul;

fn main() {
    let lib = OperatorLibrary::evoapprox();
    let workload = MatMul::new(8);
    let budget = 1_500u64;

    // --- Q-learning ---
    let opts = ExploreOptions {
        max_steps: budget,
        ..Default::default()
    };
    let ctx = EvalContext::new(&workload, std::sync::Arc::new(lib.clone()), opts.input_seed)
        .expect("benchmark prepares");
    let outcome = ax_dse::campaign::explore(&ctx, &opts, AgentKind::QLearning);
    let acc_th = outcome.thresholds.acc_th;
    let (pp, pt) = (
        outcome.evaluator.precise_power(),
        outcome.evaluator.precise_time(),
    );

    // Pareto front over everything Q-learning evaluated: maximise the
    // Δpower and Δtime gains (negated), minimise the accuracy loss.
    let evaluated = outcome.evaluator.evaluated();
    let objectives: Vec<Vec<f64>> = evaluated
        .iter()
        .map(|(_, m)| vec![-m.delta_power, -m.delta_time, m.delta_acc])
        .collect();
    let ranks = non_dominated_ranks(&objectives);
    let front: Vec<_> = evaluated
        .iter()
        .zip(&ranks)
        .filter(|(_, &rank)| rank == 0)
        .map(|(point, _)| point)
        .collect();
    println!(
        "Q-learning evaluated {} distinct configurations; Pareto front has {} points",
        evaluated.len(),
        front.len()
    );
    let mut front_rows: Vec<Vec<String>> = front
        .iter()
        .filter(|(_, m)| m.delta_acc <= acc_th)
        .map(|(c, m)| {
            vec![
                c.to_string(),
                format!("{:.1}", m.delta_power),
                format!("{:.1}", m.delta_time),
                format!("{:.2}", m.delta_acc),
            ]
        })
        .collect();
    front_rows.sort_by(|a, b| {
        b[1].parse::<f64>()
            .unwrap()
            .total_cmp(&a[1].parse().unwrap())
    });
    front_rows.truncate(10);
    println!(
        "{}",
        ascii_table(
            &["config", "d-power mW", "d-time ns", "acc loss"],
            &front_rows
        )
    );

    // --- Baselines on the identical scalarised problem ---
    // The area the feasible normalised gains dominate over (0, 0),
    // measured on the negated gains.
    let feasible_hypervolume = |ev: &Evaluator| -> f64 {
        let pts: Vec<Vec<f64>> = ev
            .evaluated()
            .iter()
            .filter(|(_, m)| m.delta_acc <= acc_th)
            .map(|(_, m)| vec![-m.delta_power / pp, -m.delta_time / pt])
            .collect();
        hypervolume(&pts, &[-0.0, -0.0])
    };

    let mut rows = vec![vec![
        "q-learning".to_string(),
        format!("{:.4}", feasible_hypervolume(&outcome.evaluator)),
        outcome.trace.len().to_string(),
    ]];
    type Runner<'a> = (&'a str, Box<dyn Fn(&mut DseSearchSpace<'_>) -> u64>);
    let runners: Vec<Runner<'_>> = vec![
        (
            "random",
            Box::new(move |sp| random_search(sp, budget, 1).evaluations),
        ),
        (
            "hill-climb",
            Box::new(move |sp| hill_climb(sp, budget, 32, 1).evaluations),
        ),
        (
            "sim-anneal",
            Box::new(move |sp| {
                simulated_annealing(
                    sp,
                    AnnealingOptions {
                        budget,
                        t_initial: 0.5,
                        t_final: 0.01,
                        seed: 1,
                    },
                )
                .evaluations
            }),
        ),
        (
            "genetic",
            Box::new(move |sp| {
                genetic_algorithm(
                    sp,
                    GeneticOptions {
                        population: 20,
                        generations: 80,
                        seed: 1,
                        ..Default::default()
                    },
                )
                .evaluations
            }),
        ),
    ];
    for (name, run) in runners {
        let mut ev = Evaluator::new(&workload, &lib, opts.input_seed).expect("evaluator");
        let th = ThresholdRule::paper().calibrate(&ev);
        let evals = {
            let mut space = DseSearchSpace::new(&mut ev, th);
            run(&mut space)
        };
        rows.push(vec![
            name.to_string(),
            format!("{:.4}", feasible_hypervolume(&ev)),
            evals.to_string(),
        ]);
    }
    println!(
        "{}",
        ascii_table(&["explorer", "feasible hypervolume", "evaluations"], &rows)
    );
}
