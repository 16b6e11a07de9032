//! The paper's headline experiment: Matrix Multiplication 10×10.
//!
//! ```text
//! cargo run --release --example matmul_exploration
//! ```
//!
//! Reproduces one column of Table III plus the Figure 2 trend lines and the
//! Figure 4 reward bins for the MatMul 10×10 benchmark.

use ax_dse::analysis::{linear_trend, reward_curve};
use ax_dse::backend::EvalContext;
use ax_dse::explore::{AgentKind, ExploreOptions};
use ax_dse::report::{ascii_table, fmt_metric};
use ax_operators::OperatorLibrary;
use ax_workloads::matmul::MatMul;

fn main() {
    let lib = OperatorLibrary::evoapprox();
    let opts = ExploreOptions::default(); // the paper's 10 000-step setup
    let ctx = EvalContext::new(
        &MatMul::new(10),
        std::sync::Arc::new(lib.clone()),
        opts.input_seed,
    )
    .expect("benchmark prepares");
    let outcome = ax_dse::campaign::explore(&ctx, &opts, AgentKind::QLearning);

    // Table III column.
    let s = &outcome.summary;
    let rows = vec![
        vec!["d-power min (mW)".into(), fmt_metric(s.power.min)],
        vec!["d-power solution".into(), fmt_metric(s.power.solution)],
        vec!["d-power max".into(), fmt_metric(s.power.max)],
        vec!["d-time min (ns)".into(), fmt_metric(s.time.min)],
        vec!["d-time solution".into(), fmt_metric(s.time.solution)],
        vec!["d-time max".into(), fmt_metric(s.time.max)],
        vec!["acc-degr min".into(), fmt_metric(s.accuracy.min)],
        vec!["acc-degr solution".into(), fmt_metric(s.accuracy.solution)],
        vec!["acc-degr max".into(), fmt_metric(s.accuracy.max)],
        vec!["adder type".into(), s.adder_name.to_string()],
        vec!["multiplier type".into(), s.mul_name.to_string()],
        vec!["steps".into(), s.steps.to_string()],
    ];
    println!("{}", ascii_table(&["metric", "matmul-10x10"], &rows));

    // Figure 2: trend lines over the exploration.
    let series = outcome.figure_series();
    let [power_t, time_t, acc_t] = series.trends();
    println!(
        "trend slopes per step (Figure 2): power {:+.4}, time {:+.4}, accuracy {:+.4}",
        power_t.0, time_t.0, acc_t.0
    );

    // Figure 4: average reward per 100 steps.
    let bins = reward_curve(&outcome.trace, 100);
    let (slope, _) = linear_trend(&bins);
    println!(
        "reward bins (Figure 4): {:?}",
        bins.iter()
            .map(|b| (b * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );
    println!("reward trend slope per bin: {slope:+.3} (positive = the agent learns)");
}
