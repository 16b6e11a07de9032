//! Cross-crate end-to-end tests: operator library → instrumented execution →
//! evaluation → exploration, on the paper's benchmarks.

use axdse_suite::ax_dse::backend::EvalContext;
use axdse_suite::ax_dse::config::AxConfig;
use axdse_suite::ax_dse::explore::{AgentKind, ExplorationOutcome, ExploreOptions};
use axdse_suite::ax_dse::Evaluator;
use axdse_suite::ax_operators::{AdderId, BitWidth, MulId, OperatorLibrary};
use axdse_suite::ax_workloads::fir::{Fir, DEFAULT_TAPS};
use axdse_suite::ax_workloads::matmul::MatMul;
use axdse_suite::ax_workloads::Workload;

fn lib() -> OperatorLibrary {
    OperatorLibrary::evoapprox()
}

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

/// The paper's Table III MatMul 10×10 extremes are op-count × per-operator
/// deltas: Δpower max = 1000 · (0.391 − 0.0041 + 0.033 − 0.0015) = 418.4 mW
/// and Δtime max = 1000 · (1.43 − 0.11 + 0.63 − 0.11) = 1840 ns. Our
/// substrate must reproduce those numbers exactly.
#[test]
fn matmul10_full_config_matches_paper_maxima() {
    let mut ev = Evaluator::new(&MatMul::new(10), &lib(), 42).unwrap();
    let dims = ev.dims();
    let full = AxConfig {
        adder: AdderId(dims.n_add - 1),
        mul: MulId(dims.n_mul - 1),
        vars: (1 << dims.n_vars) - 1,
    };
    let m = ev.evaluate(&full).unwrap();
    assert!(
        (m.delta_power - 418.4).abs() < 1e-6,
        "d-power {}",
        m.delta_power
    );
    assert!(
        (m.delta_time - 1840.0).abs() < 1e-6,
        "d-time {}",
        m.delta_time
    );
}

/// The paper's solution configuration for MatMul 10×10 (adder 00M,
/// multiplier 17MJ, everything approximated) yields Δpower 415.3 mW and
/// Δtime 1780 ns — and must respect the accuracy budget, exactly as the
/// paper reports.
#[test]
fn matmul10_paper_solution_config_is_feasible() {
    let l = lib();
    let mut ev = Evaluator::new(&MatMul::new(10), &l, 42).unwrap();
    let (adder, _) = l.adder_by_name(BitWidth::W8, "00M").unwrap();
    let (mul, _) = l.multiplier_by_name(BitWidth::W8, "17MJ").unwrap();
    let dims = ev.dims();
    let config = AxConfig {
        adder,
        mul,
        vars: (1 << dims.n_vars) - 1,
    };
    let m = ev.evaluate(&config).unwrap();
    assert!(
        (m.delta_power - 415.3).abs() < 1e-6,
        "d-power {}",
        m.delta_power
    );
    assert!(
        (m.delta_time - 1780.0).abs() < 1e-6,
        "d-time {}",
        m.delta_time
    );
    let acc_th = 0.4 * ev.mean_abs_output();
    assert!(
        m.delta_acc <= acc_th,
        "paper solution config must be within budget: {} > {acc_th}",
        m.delta_acc
    );
}

/// FIR cost structure: FIR-200 costs exactly twice FIR-100 (the paper's
/// Δpower maxima are 34 699.1 ≈ 2 × 17 344.4).
#[test]
fn fir_costs_scale_linearly_with_samples() {
    let l = lib();
    let ev100 = Evaluator::new(&Fir::new(100), &l, 42).unwrap();
    let ev200 = Evaluator::new(&Fir::new(200), &l, 42).unwrap();
    assert!((ev200.precise_power() - 2.0 * ev100.precise_power()).abs() < 1e-6);
    assert!((ev200.precise_time() - 2.0 * ev100.precise_time()).abs() < 1e-6);
    // 1 700 MACs per 100 samples at 17 taps.
    let per_mac = 10.76 + 0.072;
    assert!(
        (ev100.precise_power() - 100.0 * DEFAULT_TAPS as f64 * per_mac).abs() < 1e-6,
        "precise power {}",
        ev100.precise_power()
    );
}

/// An exploration over each paper benchmark produces internally consistent
/// summaries (min ≤ solution ≤ max on every metric, named operators, one
/// trace entry per logged step).
#[test]
fn paper_benchmark_explorations_are_consistent() {
    let l = lib();
    let opts = ExploreOptions {
        max_steps: 300,
        ..Default::default()
    };
    for wl in axdse_suite::ax_workloads::paper_benchmarks() {
        // Keep the 50×50 matmul out of slow debug runs.
        if wl.name().contains("50") {
            continue;
        }
        let o = explore_qlearning(wl.as_ref(), &l, &opts);
        let s = &o.summary;
        for (label, m) in [("power", s.power), ("time", s.time), ("acc", s.accuracy)] {
            assert!(
                m.min <= m.solution + 1e-9,
                "{}: {label} min > solution",
                s.benchmark
            );
            assert!(
                m.solution <= m.max + 1e-9,
                "{}: {label} solution > max",
                s.benchmark
            );
        }
        assert_eq!(s.steps, o.trace.len() as u64, "{}", s.benchmark);
        assert!(o.distinct_configs > 0 && o.distinct_configs <= o.trace.len() as u64);
        assert!(!s.adder_name.is_empty() && !s.mul_name.is_empty());
    }
}

/// Evaluating every configuration of a small space stays within the cache,
/// and re-running an exploration costs zero new evaluations.
#[test]
fn evaluation_cache_covers_whole_space() {
    let l = lib();
    let mut ev = Evaluator::new(&MatMul::new(3), &l, 9).unwrap();
    let dims = ev.dims();
    for c in AxConfig::enumerate(dims) {
        ev.evaluate(&c).unwrap();
    }
    assert_eq!(ev.distinct_evaluations(), dims.cardinality() as u64);
    for c in AxConfig::enumerate(dims) {
        ev.evaluate(&c).unwrap();
    }
    assert_eq!(ev.distinct_evaluations(), dims.cardinality() as u64);
    assert_eq!(ev.cache_hits(), dims.cardinality() as u64);
}

/// Operator monotonicity across a whole benchmark: walking the multiplier
/// ladder (with everything selected) must not decrease power savings, and
/// the precise end must sit at zero error.
#[test]
fn multiplier_ladder_is_monotone_in_power_on_matmul() {
    let l = lib();
    let mut ev = Evaluator::new(&MatMul::new(5), &l, 21).unwrap();
    let dims = ev.dims();
    let mut prev_power = -1.0;
    for mul_idx in 0..dims.n_mul {
        let c = AxConfig {
            adder: AdderId(0),
            mul: MulId(mul_idx),
            vars: (1 << dims.n_vars) - 1,
        };
        let m = ev.evaluate(&c).unwrap();
        assert!(
            m.delta_power >= prev_power - 1e-9,
            "power saving dropped at multiplier {mul_idx}"
        );
        prev_power = m.delta_power;
        if mul_idx == 0 {
            assert_eq!(m.delta_acc, 0.0);
        }
    }
}

/// The acceptance scenario of the campaign redesign: a multi-benchmark,
/// multi-agent campaign racing under one global evaluation budget, loaded
/// from the checked-in JSON spec that `repro run` executes.
#[test]
fn checked_in_campaign_spec_runs_end_to_end() {
    use axdse_suite::ax_dse::campaign::{run_spec, BackendSpec, ExperimentSpec};

    let text = std::fs::read_to_string("examples/campaign_matmul.json").unwrap();
    let mut spec = ExperimentSpec::from_json_str(&text).unwrap();
    // The CI-style smoke clamp `repro run --smoke` applies.
    spec.explore.max_steps = spec.explore.max_steps.min(120);
    spec.seeds.count = spec.seeds.count.min(1);

    let report = run_spec(&spec, Default::default()).unwrap();
    assert_eq!(
        report.cells.len(),
        spec.benchmarks.len() * spec.agents.len()
    );
    assert_eq!(report.portfolios.len(), spec.benchmarks.len());
    assert_eq!(report.budget.cap, spec.budget);
    assert!(report.budget.spent > 0);
    assert_eq!(spec.backend, BackendSpec::Exact);
    for p in &report.portfolios {
        assert_eq!(p.entries.len(), spec.agents.len());
        assert!(p.shared_distinct > 0);
    }
    assert!(report.best_overall().is_some());
}

/// A tight global budget cooperatively stops a multi-benchmark campaign:
/// spending lands at the cap plus at most one in-flight step per run.
#[test]
fn global_budget_caps_a_multi_benchmark_campaign() {
    use axdse_suite::ax_dse::campaign::{run_spec, BenchmarkSpec, ExperimentSpec, SeedRange};
    use axdse_suite::ax_dse::explore::AgentKind;

    let spec = ExperimentSpec::new("budget-e2e")
        .benchmark(BenchmarkSpec::MatMul(4))
        .benchmark(BenchmarkSpec::Dot(8))
        .agent(AgentKind::QLearning)
        .seeds(SeedRange::new(0, 2))
        .explore(ExploreOptions {
            max_steps: 10_000,
            ..Default::default()
        })
        .budget(50);
    let report = run_spec(&spec, Default::default()).unwrap();
    assert!(report.budget.exhausted());
    assert!(report.budget.stopped_runs > 0, "{:?}", report.budget);
    assert_eq!(report.budget.spent, 50, "reported spend clamps to the cap");
    // 4 runs, each may overshoot by at most one step's worth of designs —
    // asserted on the raw charge total, which the clamp does not hide.
    assert!(report.budget.overshoot <= 4 * 20, "{:?}", report.budget);
    assert!(report.budget.charged() < 50 + 4 * 20);
}
