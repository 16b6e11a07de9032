//! Diagnostic sweeps over the full configuration space (ignored by default;
//! run with `cargo test -p ax-dse --release -- --ignored --nocapture`).

use ax_dse::config::AxConfig;
use ax_dse::reward::{reward, RewardParams};
use ax_dse::thresholds::ThresholdRule;
use ax_dse::Evaluator;
use ax_operators::OperatorLibrary;
use ax_workloads::fir::Fir;
use ax_workloads::matmul::MatMul;
use ax_workloads::Workload;

fn classify(workload: &dyn Workload, max_reward: f64) {
    let lib = OperatorLibrary::evoapprox();
    let mut ev = Evaluator::new(workload, &lib, 42).unwrap();
    let th = ThresholdRule::paper().calibrate(&ev);
    let params = RewardParams::new(max_reward, th);
    let dims = ev.dims();
    let (mut plus, mut minus, mut violate, mut terminal) = (0u32, 0u32, 0u32, 0u32);
    let mut best_feasible: Option<(AxConfig, f64, f64, f64)> = None;
    for c in AxConfig::enumerate(dims) {
        let m = ev.evaluate(&c).unwrap();
        let (r, t) = reward(&c, dims, &m, &params);
        if t {
            terminal += 1;
        } else if r > 0.5 {
            plus += 1;
            let score = m.delta_power + m.delta_time;
            if best_feasible.is_none_or(|(_, s, _, _)| score > s) {
                best_feasible = Some((c, score, m.delta_power, m.delta_acc));
            }
        } else if r < -1.5 {
            violate += 1;
        } else {
            minus += 1;
        }
    }
    println!(
        "{}: acc_th {:.2} p_th {:.2} t_th {:.2} | +1: {plus}  -1: {minus}  -R: {violate}  R: {terminal}",
        workload.name(),
        th.acc_th,
        th.power_th,
        th.time_th
    );
    if let Some((c, _, dp, da)) = best_feasible {
        println!("  best +1 config: {c} (d-power {dp:.1}, acc {da:.1})");
    }
}

#[test]
#[ignore = "diagnostic: prints reward-class distribution over the whole space"]
fn reward_landscape() {
    classify(&MatMul::new(10), 100.0);
    classify(&Fir::new(100), 100.0);
}

#[test]
#[ignore = "diagnostic: prints stop step per hyper-parameter combination"]
fn stop_steps_by_hyperparams() {
    use ax_agents::schedule::Schedule;
    use ax_dse::backend::EvalContext;
    use ax_dse::explore::{AgentKind, ExploreOptions};
    use std::sync::Arc;

    let lib = OperatorLibrary::evoapprox();
    let combos: Vec<(&str, Schedule, Schedule, f64)> = vec![
        (
            "eps.05 a.1 R100",
            Schedule::Constant(0.05),
            Schedule::Constant(0.1),
            100.0,
        ),
        (
            "eps.05 a.5 R100",
            Schedule::Constant(0.05),
            Schedule::Constant(0.5),
            100.0,
        ),
        (
            "exp.3 a.5 R100",
            Schedule::Exponential {
                start: 0.3,
                end: 0.02,
                decay: 0.99,
            },
            Schedule::Constant(0.5),
            100.0,
        ),
        (
            "exp.3 a.5 R50",
            Schedule::Exponential {
                start: 0.3,
                end: 0.02,
                decay: 0.99,
            },
            Schedule::Constant(0.5),
            50.0,
        ),
        (
            "exp.3 a.5 R20",
            Schedule::Exponential {
                start: 0.3,
                end: 0.02,
                decay: 0.99,
            },
            Schedule::Constant(0.5),
            20.0,
        ),
        (
            "eps.02 a.5 R50",
            Schedule::Constant(0.02),
            Schedule::Constant(0.5),
            50.0,
        ),
    ];
    for wl in [&MatMul::new(10) as &dyn Workload, &Fir::new(100)] {
        for (name, eps, alpha, r) in &combos {
            let opts = ExploreOptions {
                max_steps: 10_000,
                max_reward: *r,
                epsilon: *eps,
                alpha: *alpha,
                ..Default::default()
            };
            let ctx = EvalContext::new(wl, Arc::new(lib.clone()), opts.input_seed).unwrap();
            let o = ax_dse::campaign::explore(&ctx, &opts, AgentKind::QLearning);
            println!(
                "{:<14} {:<16} stop {:?} at {} steps, cum {:.0}, solution {} + {}",
                wl.name(),
                name,
                o.stop_reason,
                o.summary.steps,
                o.total_reward,
                o.summary.adder_name,
                o.summary.mul_name,
            );
        }
    }
}
