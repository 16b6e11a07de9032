//! Telemetry determinism contracts.
//!
//! Events are logical (no wall-clock data, sources are grid indices, not
//! thread ids), so a parallel campaign, budgeted or not, must produce the
//! same canonical event list as a sequential one; metric counters must
//! agree between the compiled and interpreted exact engines; and turning
//! tracing on must never change what a campaign computes.

use axdse_suite::ax_dse::campaign::{
    run_spec, BenchmarkSpec, BudgetPolicy, CampaignReport, EventKind, ExperimentSpec, JsonlSink,
    RunSpecOptions, SeedRange, Telemetry,
};
use axdse_suite::ax_dse::explore::{AgentKind, ExploreOptions};
use axdse_suite::ax_dse::json::Json;
use proptest::prelude::*;

fn opts(steps: u64) -> ExploreOptions {
    ExploreOptions {
        max_steps: steps,
        ..Default::default()
    }
}

/// The MatMul-4 × FIR-40 grid most campaigns here run: two agents, two
/// seeds, at most `steps` steps a run.
fn grid(name: &str, steps: u64) -> ExperimentSpec {
    ExperimentSpec::new(name)
        .benchmark(BenchmarkSpec::MatMul(4))
        .benchmark(BenchmarkSpec::Fir(40))
        .agent(AgentKind::QLearning)
        .agent(AgentKind::Sarsa)
        .seeds(SeedRange::new(0, 2))
        .explore(opts(steps))
}

/// Runs `spec` with `telemetry` attached, and checks the budget ledger
/// of a traced run: each cell's budget holds what its runs charged.
fn run_traced(spec: &ExperimentSpec, telemetry: &Telemetry) -> CampaignReport {
    let opts = RunSpecOptions {
        telemetry: telemetry.clone(),
        ..Default::default()
    };
    let report = run_spec(spec, opts).unwrap();
    if let Some(t) = &report.telemetry {
        assert!(t.budget_invariant_ok, "{}", spec.name);
    }
    report
}

/// Everything deterministic in a report: the telemetry section is
/// excluded because its histograms carry wall-clock measurements.
fn strip(r: &CampaignReport) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}",
        r.cells, r.portfolios, r.budget, r.allocations
    )
}

/// An unbounded multi-seed campaign run with telemetry on `workers`
/// workers.
fn traced_campaign(workers: usize) -> (CampaignReport, Telemetry) {
    let spec = grid("telemetry-determinism", 150).parallelism(workers);
    let telemetry = Telemetry::new();
    let report = run_traced(&spec, &telemetry);
    (report, telemetry)
}

/// With no budget in play, the only schedule freedom is thread
/// interleaving — which must not show in the canonical event list: same
/// events, same sources, same per-source sequence numbers.
#[test]
fn parallel_campaign_emits_the_same_canonical_events_as_sequential() {
    let (seq_report, seq_t) = traced_campaign(1);
    let seq_events = seq_t.events();
    assert!(!seq_events.is_empty());
    let seq_snap = seq_t.snapshot().unwrap();
    for workers in [2, 4] {
        let (par_report, par_t) = traced_campaign(workers);
        assert_eq!(seq_events, par_t.events(), "{workers}");
        assert_eq!(strip(&seq_report), strip(&par_report), "{workers}");
        // Counters and gauges are logical too; only the latency
        // histograms may differ between worker counts.
        let par_snap = par_t.snapshot().unwrap();
        assert_eq!(seq_snap.counters, par_snap.counters, "{workers}");
        assert_eq!(seq_snap.gauges, par_snap.gauges, "{workers}");
    }
}

/// A budgeted campaign pauses each run on its own cell's budget, so its
/// schedule is as determined as an unbudgeted one's: run on 1, 2 and 4
/// workers, it gives the same canonical events, counters and report.
#[test]
fn budgeted_campaigns_match_across_schedules() {
    let spec =
        grid("telemetry-budgeted", 400)
            .budget(300)
            .policy(BudgetPolicy::SuccessiveHalving {
                rounds: 2,
                keep_fraction: 0.5,
            });
    let run = |workers| {
        let telemetry = Telemetry::new();
        let report = run_traced(&spec.clone().parallelism(workers), &telemetry);
        (report, telemetry)
    };
    let (seq_report, seq_t) = run(1);
    let seq_snap = seq_t.snapshot().unwrap();
    for workers in [2, 4] {
        let (par_report, par_t) = run(workers);
        assert_eq!(seq_t.events(), par_t.events(), "{workers}");
        let par_snap = par_t.snapshot().unwrap();
        assert_eq!(seq_snap.counters, par_snap.counters, "{workers}");
        assert_eq!(strip(&seq_report), strip(&par_report), "{workers}");
    }
    let summary = seq_report.telemetry.expect("enabled telemetry is reported");
    assert!(summary.budget_invariant_ok);
    assert!(summary.events_emitted > 0);
}

/// The compiled and interpreted exact engines must agree on every
/// deterministic counter — cache traffic, budget accounting, backend
/// hit/execution tallies. Only the `engine.*` attribution (which engine
/// ran) and wall-clock histograms may differ.
#[test]
fn compiled_and_interpreted_engines_agree_on_cache_and_budget_metrics() {
    use axdse_suite::ax_dse::campaign::BackendSpec;
    let run = |backend: BackendSpec| {
        let spec = ExperimentSpec::new("engine-parity")
            .benchmark(BenchmarkSpec::MatMul(4))
            .agent(AgentKind::QLearning)
            .agent(AgentKind::Sarsa)
            .seeds(SeedRange::new(0, 2))
            .explore(opts(150))
            .backend(backend);
        let telemetry = Telemetry::new();
        run_traced(&spec, &telemetry);
        telemetry.snapshot().unwrap()
    };
    let compiled = run(BackendSpec::Exact);
    let interpreted = run(BackendSpec::ExactInterpreted);
    let deterministic = |snap: &axdse_suite::ax_dse::campaign::MetricsSnapshot| {
        snap.counters
            .iter()
            .filter(|(name, _)| {
                name.starts_with("cache.")
                    || name.starts_with("budget.")
                    || name.starts_with("backend.")
                    || name.starts_with("campaign.")
            })
            .cloned()
            .collect::<Vec<_>>()
    };
    let (c, i) = (deterministic(&compiled), deterministic(&interpreted));
    assert!(!c.is_empty());
    assert_eq!(c, i);
    // The engine attribution tells the two apart.
    assert!(compiled.counter("engine.compiled_runs").unwrap_or(0) > 0);
    assert!(interpreted.counter("engine.interpreted_runs").unwrap_or(0) > 0);
    assert_eq!(
        compiled.counter("engine.compiled_runs"),
        interpreted.counter("engine.interpreted_runs")
    );
}

/// A parallel budgeted campaign still satisfies the ledger invariant the
/// telemetry summary checks: each cell's budget holds what its runs
/// charged, and the cells' spends sum to the clamped spend plus the
/// cooperative overshoot.
#[test]
fn parallel_budgeted_campaign_reports_the_budget_invariant() {
    let spec = grid("telemetry-invariant", 2_000)
        .budget(120)
        .policy(BudgetPolicy::AsyncHalving {
            rungs: 2,
            keep_fraction: 0.5,
        });
    let report = run_traced(&spec, &Telemetry::new());
    let summary = report.telemetry.expect("enabled telemetry is reported");
    assert!(summary.budget_invariant_ok);
    let snap = &summary.metrics;
    assert_eq!(
        snap.counter("budget.cells_spent"),
        Some(report.budget.spent + report.budget.overshoot)
    );
    assert_eq!(snap.counter("budget.spent"), Some(report.budget.spent));
}

/// Every JSONL trace line must parse as a JSON object carrying the stable
/// envelope keys, and the `kind` strings must come from the schema.
#[test]
fn jsonl_trace_lines_are_schema_valid() {
    let path = std::env::temp_dir().join(format!("ax_trace_{}.jsonl", std::process::id()));
    let spec = ExperimentSpec::new("telemetry-jsonl")
        .benchmark(BenchmarkSpec::MatMul(4))
        .agent(AgentKind::QLearning)
        .seeds(SeedRange::new(0, 2))
        .explore(opts(150))
        .budget(60);
    let telemetry = Telemetry::new();
    telemetry.add_sink(Box::new(JsonlSink::create(&path).unwrap()));
    run_traced(&spec, &telemetry);
    telemetry.flush();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let known = [
        "campaign_start",
        "benchmark_ready",
        "budget_grant",
        "budget_exhausted",
        "run_paused",
        "run_complete",
        "cell_eliminated",
        "bracket_start",
        "cell_revived",
        "rung_recorded",
        "cell_parked",
        "rung_promoted",
        "campaign_complete",
    ];
    let mut lines = 0u64;
    for line in text.lines() {
        let json = Json::parse(line).unwrap_or_else(|e| panic!("bad trace line {line:?}: {e}"));
        json.get("source").expect("source").as_u64().unwrap();
        json.get("seq").expect("seq").as_u64().unwrap();
        let kind = json.get("kind").expect("kind").as_str().unwrap().to_owned();
        assert!(known.contains(&kind.as_str()), "unknown kind {kind}");
        lines += 1;
    }
    assert_eq!(lines, telemetry.events_emitted());
    assert!(text.lines().any(|l| l.contains("\"campaign_complete\"")));
}

/// The ring buffer keeps the canonical order even when the coordinator
/// and run sources interleave arbitrarily during emission.
#[test]
fn canonical_event_order_groups_by_source() {
    let (_, t) = traced_campaign(2);
    let events = t.events();
    let keys: Vec<(u32, u64)> = events.iter().map(|e| (e.source, e.seq)).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
    assert!(matches!(events[0].kind, EventKind::CampaignStart { .. }));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Enabling tracing must never change what a campaign computes: the
    /// reports agree on everything except the `telemetry` section itself.
    #[test]
    fn tracing_never_changes_the_campaign_report(
        budget in 40u64..200,
        seeds in 1u64..3,
        halving in 0u32..2,
    ) {
        let mut spec = grid("tracing-transparency", 300)
            .seeds(SeedRange::new(0, seeds))
            .budget(budget);
        if halving == 1 {
            spec.policy = BudgetPolicy::SuccessiveHalving {
                rounds: 2,
                keep_fraction: 0.5,
            };
        }
        let plain = run_traced(&spec, &Telemetry::disabled());
        let traced = run_traced(&spec, &Telemetry::new());
        prop_assert!(plain.telemetry.is_none());
        prop_assert!(traced.telemetry.is_some());
        prop_assert_eq!(strip(&plain), strip(&traced));
    }
}
