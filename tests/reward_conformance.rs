//! Conformance of the live environment against Algorithm 1.
//!
//! Replays real exploration traces and recomputes every reward from the
//! recorded metrics and the calibrated thresholds — the environment must
//! agree with the paper's pseudocode at every step.

use axdse_suite::ax_dse::backend::EvalContext;
use axdse_suite::ax_dse::explore::{AgentKind, ExplorationOutcome, ExploreOptions};
use axdse_suite::ax_dse::reward::{reward, RewardParams};
use axdse_suite::ax_dse::thresholds::ThresholdRule;
use axdse_suite::ax_dse::Evaluator;
use axdse_suite::ax_operators::OperatorLibrary;
use axdse_suite::ax_workloads::dot::DotProduct;
use axdse_suite::ax_workloads::matmul::MatMul;
use axdse_suite::ax_workloads::Workload;

/// The paper's Q-learning exploration through the campaign primitive.
fn explore_qlearning(
    workload: &dyn Workload,
    lib: &OperatorLibrary,
    opts: &ExploreOptions,
) -> ExplorationOutcome {
    let ctx = EvalContext::new(workload, std::sync::Arc::new(lib.clone()), opts.input_seed)
        .expect("benchmark builds against the library");
    axdse_suite::ax_dse::campaign::explore(&ctx, opts, AgentKind::QLearning)
}

fn replay_and_check(workload: &dyn Workload, steps: u64) {
    let lib = OperatorLibrary::evoapprox();
    let opts = ExploreOptions {
        max_steps: steps,
        ..Default::default()
    };
    let outcome = explore_qlearning(workload, &lib, &opts);

    let ev = Evaluator::new(workload, &lib, opts.input_seed).unwrap();
    let dims = ev.dims();
    let params = RewardParams::new(opts.max_reward, outcome.thresholds);

    let mut cumulative = 0.0;
    for t in &outcome.trace {
        let (expect_r, expect_term) = reward(&t.config, dims, &t.metrics, &params);
        assert_eq!(t.reward, expect_r, "step {}: reward mismatch", t.step);
        assert_eq!(
            t.terminated, expect_term,
            "step {}: terminate mismatch",
            t.step
        );
        cumulative += t.reward;
    }
    assert!(
        (outcome.total_reward - cumulative).abs() < 1e-9,
        "cumulative reward bookkeeping diverged"
    );

    // Algorithm 1's branch structure: rewards take exactly four values.
    for t in &outcome.trace {
        let r = t.reward;
        assert!(
            r == 1.0 || r == -1.0 || r == opts.max_reward || r == -opts.max_reward,
            "step {}: reward {r} outside Algorithm 1's range",
            t.step
        );
    }

    // The terminate flag implies the fully-approximate configuration.
    for t in &outcome.trace {
        if t.terminated {
            assert!(t.config.is_fully_approximate(dims), "step {}", t.step);
            assert_eq!(t.reward, opts.max_reward);
        }
    }
}

#[test]
fn dot_product_trace_conforms_to_algorithm_1() {
    replay_and_check(&DotProduct::new(8), 600);
}

#[test]
fn matmul_trace_conforms_to_algorithm_1() {
    replay_and_check(&MatMul::new(5), 600);
}

/// Thresholds calibrate from the precise run exactly as the paper specifies
/// (50 % / 50 % / 0.4 of the respective precise quantities).
#[test]
fn threshold_calibration_matches_paper_rule() {
    let lib = OperatorLibrary::evoapprox();
    let ev = Evaluator::new(&MatMul::new(5), &lib, 42).unwrap();
    let th = ThresholdRule::paper().calibrate(&ev);
    assert!((th.power_th - 0.5 * ev.precise_power()).abs() < 1e-12);
    assert!((th.time_th - 0.5 * ev.precise_time()).abs() < 1e-12);
    assert!((th.acc_th - 0.4 * ev.mean_abs_output()).abs() < 1e-12);
}

/// Stopping on the cumulative-reward target never overshoots by more than
/// one step's reward.
#[test]
fn reward_target_stop_is_tight() {
    let lib = OperatorLibrary::evoapprox();
    let opts = ExploreOptions {
        max_steps: 10_000,
        max_reward: 10.0,
        rule: ThresholdRule {
            power_frac: 0.01,
            time_frac: 0.01,
            acc_frac: 5.0,
        },
        ..Default::default()
    };
    let o = explore_qlearning(&DotProduct::new(6), &lib, &opts);
    if o.stop_reason == axdse_suite::ax_agents::train::StopReason::RewardTarget {
        let total = o.total_reward;
        assert!(
            total >= 10.0 && total <= 10.0 + opts.max_reward,
            "total {total}"
        );
        // Before the final step the target had not been reached.
        let prior: f64 = total - o.trace.last().unwrap().reward;
        assert!(prior < 10.0, "stopped late: prior cumulative {prior}");
    }
}
