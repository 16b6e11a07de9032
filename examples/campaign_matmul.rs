//! Declarative campaigns: a whole experiment as a checked-in JSON file.
//!
//! ```text
//! cargo run --release --example campaign_matmul
//! ```
//!
//! Loads `examples/campaign_matmul.json` — a multi-benchmark, multi-agent
//! campaign racing under one global evaluation budget over one shared,
//! class-keyed design cache — and executes it with
//! [`ax_dse::campaign::run_spec`], streaming progress through an
//! [`Observer`]. The same file runs from the CLI: `repro run
//! examples/campaign_matmul.json`.

use ax_dse::campaign::{run_spec, Event, EventKind, ExperimentSpec, Observer, RunSpecOptions};

/// Prints one line per finished exploration.
struct Progress;

impl Observer for Progress {
    fn on_event(&self, event: &Event) {
        match &event.kind {
            EventKind::RunComplete {
                benchmark,
                agent,
                seed,
                stop,
                steps,
            } => println!("  {benchmark:12} {agent:16} seed {seed}: {stop} after {steps} steps"),
            EventKind::BudgetExhausted { cap } => {
                println!("  global budget exhausted after {cap} distinct designs");
            }
            _ => {}
        }
    }
}

fn main() {
    let text = std::fs::read_to_string("examples/campaign_matmul.json")
        .expect("run from the repository root");
    let mut spec = ExperimentSpec::from_json_str(&text).expect("valid spec");
    // Keep the example snappy; drop this line for the full experiment.
    spec.explore.max_steps = spec.explore.max_steps.min(400);

    let opts = RunSpecOptions {
        observer: Some(&Progress),
        ..Default::default()
    };
    let report = run_spec(&spec, opts).expect("campaign runs");

    println!(
        "\nbudget: {} of {:?} designs spent, {} run(s) budget-stopped",
        report.budget.spent, report.budget.cap, report.budget.stopped_runs
    );
    for p in &report.portfolios {
        let w = p.winner();
        println!(
            "{:12}: winner {} (seed {}, score {:.3}, {}) — {} execution classes cached",
            p.benchmark,
            w.kind.name(),
            w.seed,
            w.score,
            if w.feasible { "feasible" } else { "infeasible" },
            p.shared_distinct
        );
    }
    if let Some((i, best)) = report.best_overall() {
        println!(
            "best overall: {} on {}",
            best.kind.name(),
            report.portfolios[i].benchmark
        );
    }
}
