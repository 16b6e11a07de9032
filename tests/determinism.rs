//! Seed-determinism across the whole stack.
//!
//! Every random choice in the workspace flows from explicit seeds; identical
//! seeds must give bit-identical results at every layer, or the paper's
//! experiments would not be reproducible run to run.

use axdse_suite::ax_dse::campaign::{
    run_spec, BenchmarkSpec, CampaignReport, ExperimentSpec, RunSpecOptions, SeedRange, Telemetry,
};
use axdse_suite::ax_dse::evaluator::{EvalContext, SharedCache};
use axdse_suite::ax_dse::explore::AgentKind;
use axdse_suite::ax_dse::explore::{ExplorationOutcome, ExploreOptions};
use axdse_suite::ax_dse::sweep::SweepSummary;
use axdse_suite::ax_operators::{
    characterize_multiplier, BitWidth, CharacterizeMode, MulKind, MulModel, OperatorLibrary,
};
use axdse_suite::ax_workloads::fir::Fir;
use axdse_suite::ax_workloads::matmul::MatMul;
use axdse_suite::ax_workloads::Workload;
use std::sync::Arc;

/// One exact exploration through the campaign primitive (the removed
/// `explore_qlearning`/`explore_with_agent` wrappers, inlined).
fn explore_exact(
    workload: &dyn Workload,
    lib: &OperatorLibrary,
    opts: &ExploreOptions,
    kind: AgentKind,
) -> ExplorationOutcome {
    let ctx = EvalContext::new(workload, Arc::new(lib.clone()), opts.input_seed).unwrap();
    axdse_suite::ax_dse::campaign::explore(&ctx, opts, kind)
}

fn run(spec: &ExperimentSpec) -> CampaignReport {
    run_spec(spec, RunSpecOptions::default()).unwrap()
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

/// A MatMul-4 × 1-agent × N-seed campaign summary (the removed
/// `sweep_seeds`/`sweep_seeds_parallel` wrappers, inlined).
fn sweep(opts: &ExploreOptions, kind: AgentKind, seeds: u64, sequential: bool) -> SweepSummary {
    let mut spec = ExperimentSpec::new("determinism-sweep")
        .benchmark(BenchmarkSpec::MatMul(4))
        .agent(kind)
        .seeds(SeedRange::new(0, seeds))
        .explore(*opts);
    spec.parallelism = sequential.then_some(1);
    run(&spec)
        .cells
        .into_iter()
        .next()
        .expect("one cell")
        .summary
}

#[test]
fn workload_inputs_are_seed_deterministic() {
    {
        let (a, b) = (MatMul::new(6).inputs(9), MatMul::new(6).inputs(9));
        assert_eq!(a, b);
    }
    assert_eq!(Fir::new(40).inputs(3), Fir::new(40).inputs(3));
    assert_ne!(Fir::new(40).inputs(3), Fir::new(40).inputs(4));
}

#[test]
fn monte_carlo_characterisation_is_deterministic() {
    let m = MulModel::new(MulKind::Drum { k: 6 }, BitWidth::W32);
    let mode = CharacterizeMode::MonteCarlo {
        samples: 200_000,
        seed: 5,
    };
    assert_eq!(
        characterize_multiplier(&m, mode),
        characterize_multiplier(&m, mode)
    );
}

#[test]
fn class_keyed_shared_cache_sweep_matches_uncached_sweep() {
    // Seeds sharing one class-keyed cache answer most designs from class
    // representatives other runs executed; every run must still trace
    // exactly like a stand-alone run on an uncached context.
    let lib = OperatorLibrary::evoapprox();
    let opts = ExploreOptions {
        max_steps: 150,
        ..Default::default()
    };
    let wl = MatMul::new(4);
    let shared = sweep(&opts, AgentKind::QLearning, 3, true);
    let outcomes: Vec<_> = (0..3)
        .map(|seed| {
            explore_exact(
                &wl,
                &lib,
                &ExploreOptions { seed, ..opts },
                AgentKind::QLearning,
            )
        })
        .collect();
    let uncached = axdse_suite::ax_dse::sweep::summarize_outcomes(wl.name(), &outcomes);
    assert_eq!(shared, uncached);
}

#[test]
fn full_exploration_is_deterministic() {
    let lib = OperatorLibrary::evoapprox();
    let opts = ExploreOptions {
        max_steps: 400,
        ..Default::default()
    };
    let a = explore_exact(&MatMul::new(4), &lib, &opts, AgentKind::QLearning);
    let b = explore_exact(&MatMul::new(4), &lib, &opts, AgentKind::QLearning);
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.total_reward.to_bits(), b.total_reward.to_bits());
    assert_eq!(a.summary, b.summary);
    assert_eq!(a.distinct_configs, b.distinct_configs);
}

#[test]
fn agent_seed_changes_trajectory_but_not_environment_truth() {
    let lib = OperatorLibrary::evoapprox();
    let mk = |seed| ExploreOptions {
        max_steps: 400,
        seed,
        ..Default::default()
    };
    let a = explore_exact(&MatMul::new(4), &lib, &mk(1), AgentKind::QLearning);
    let b = explore_exact(&MatMul::new(4), &lib, &mk(2), AgentKind::QLearning);
    assert_ne!(
        a.trace, b.trace,
        "different agent seeds must explore differently"
    );
    // The environment's ground truth is shared: any configuration evaluated
    // by both runs has identical metrics.
    let bm: std::collections::HashMap<_, _> = b.evaluator.evaluated().into_iter().collect();
    for (config, metrics) in a.evaluator.evaluated() {
        if let Some(other) = bm.get(&config) {
            assert_eq!(&metrics, other, "metrics diverged for {config}");
        }
    }
}

#[test]
fn rayon_sweep_is_byte_identical_to_sequential() {
    // The parallel engine's contract: fanning seeds out over the shared
    // cache changes cost, never results. Eight seeds, both paths, one
    // summary — compared field by field through `PartialEq`.
    let opts = ExploreOptions {
        max_steps: 200,
        ..Default::default()
    };
    let seq = sweep(&opts, AgentKind::QLearning, 8, true);
    let par = sweep(&opts, AgentKind::QLearning, 8, false);
    assert_eq!(seq, par);
}

#[test]
fn shared_cache_does_not_change_exploration_results() {
    // A cache-sharing exploration must trace exactly like a stand-alone
    // one — the cache only short-circuits re-execution of deterministic
    // evaluations.
    let lib = OperatorLibrary::evoapprox();
    let opts = ExploreOptions {
        max_steps: 300,
        ..Default::default()
    };
    let solo = explore_exact(&MatMul::new(4), &lib, &opts, AgentKind::QLearning);

    let cache = SharedCache::new();
    let ctx = EvalContext::with_cache(
        &MatMul::new(4),
        Arc::new(lib.clone()),
        opts.input_seed,
        Arc::clone(&cache),
    )
    .unwrap();
    // Warm the cache with a different-seed run, then replay the original.
    let warm_opts = ExploreOptions { seed: 99, ..opts };
    axdse_suite::ax_dse::campaign::explore(&ctx, &warm_opts, AgentKind::QLearning);
    let cached = axdse_suite::ax_dse::campaign::explore(&ctx, &opts, AgentKind::QLearning);

    assert_eq!(solo.trace, cached.trace);
    assert_eq!(solo.summary, cached.summary);
    assert!(
        cached.evaluator.shared_cache_hits() > 0,
        "the replay must actually reuse designs from the warm cache"
    );
}

#[test]
fn input_seed_changes_reference_outputs() {
    let lib = OperatorLibrary::evoapprox();
    let mk = |input_seed| ExploreOptions {
        max_steps: 50,
        input_seed,
        ..Default::default()
    };
    let a = explore_exact(&MatMul::new(4), &lib, &mk(1), AgentKind::QLearning);
    let b = explore_exact(&MatMul::new(4), &lib, &mk(2), AgentKind::QLearning);
    // Different matrices -> different precise power is identical (op count
    // fixed) but accuracy thresholds differ.
    assert_ne!(a.thresholds.acc_th, b.thresholds.acc_th);
    assert_eq!(a.thresholds.power_th, b.thresholds.power_th);
}

// ---------------------------------------------------------------------------
// Campaign equivalence: the `Campaign` driver must match a hand-rolled
// reimplementation of the original pre-campaign code path (what the removed
// legacy wrappers pinned before 0.2).
// ---------------------------------------------------------------------------

#[test]
fn campaign_exact_sweep_is_byte_identical_to_legacy() {
    use axdse_suite::ax_dse::sweep::summarize_outcomes;

    let lib = OperatorLibrary::evoapprox();
    let opts = ExploreOptions {
        max_steps: 200,
        ..Default::default()
    };
    let wl = MatMul::new(4);
    let seeds = 6u64;

    // The pre-campaign reference: one shared-cache context, one exploration
    // per seed, aggregated — exactly what `sweep_seeds` used to inline.
    let ctx = EvalContext::with_cache(
        &wl,
        Arc::new(lib.clone()),
        opts.input_seed,
        SharedCache::new(),
    )
    .unwrap();
    let outcomes: Vec<_> = (0..seeds)
        .map(|seed| {
            let run_opts = ExploreOptions { seed, ..opts };
            axdse_suite::ax_dse::campaign::explore(&ctx, &run_opts, AgentKind::QLearning)
        })
        .collect();
    let reference = summarize_outcomes(ctx.benchmark().to_owned(), &outcomes);

    // The campaign path.
    let report = run(&ExperimentSpec::new("equivalence")
        .benchmark(BenchmarkSpec::MatMul(4))
        .agent(AgentKind::QLearning)
        .seeds(SeedRange::new(0, seeds))
        .explore(opts));
    assert_eq!(report.cells[0].summary, reference);

    // And both execution modes of the campaign itself.
    let seq = sweep(&opts, AgentKind::QLearning, seeds, true);
    let par = sweep(&opts, AgentKind::QLearning, seeds, false);
    assert_eq!(seq, reference);
    assert_eq!(par, reference);
}

#[test]
fn campaign_portfolio_is_byte_identical_to_legacy_race() {
    let lib = OperatorLibrary::evoapprox();
    let opts = ExploreOptions {
        max_steps: 150,
        seed: 3,
        ..Default::default()
    };
    let wl = MatMul::new(4);
    let kinds = [AgentKind::QLearning, AgentKind::Sarsa, AgentKind::DoubleQ];
    let race = ExperimentSpec {
        agents: kinds.to_vec(),
        ..ExperimentSpec::new("race")
    }
    .benchmark(BenchmarkSpec::MatMul(4))
    .seeds(SeedRange::single(opts.seed))
    .explore(opts);

    // Sequential race as the hand-rolled reference; the parallel fan-out
    // must agree entry for entry (bit-exact scores included).
    let legacy = run(&race.clone().parallelism(1))
        .portfolios
        .into_iter()
        .next()
        .expect("one benchmark");
    let report = run(&race);
    let campaign = &report.portfolios[0];

    assert_eq!(legacy.benchmark, campaign.benchmark);
    assert_eq!(legacy.best, campaign.best);
    assert_eq!(legacy.shared_distinct, campaign.shared_distinct);
    assert_eq!(legacy.entries.len(), campaign.entries.len());
    for (l, c) in legacy.entries.iter().zip(&campaign.entries) {
        assert_eq!(l.kind, c.kind);
        assert_eq!(l.seed, c.seed);
        assert_eq!(l.summary, c.summary);
        assert_eq!(l.stop_reason, c.stop_reason);
        assert_eq!(l.distinct_configs, c.distinct_configs);
        assert_eq!(l.feasible, c.feasible);
        assert_eq!(l.score.to_bits(), c.score.to_bits(), "{}", l.kind.name());
    }

    // Every raced entry still equals a stand-alone exploration.
    for (kind, entry) in kinds.iter().zip(&campaign.entries) {
        let ctx = EvalContext::new(&wl, Arc::new(lib.clone()), opts.input_seed).unwrap();
        let solo = axdse_suite::ax_dse::campaign::explore(&ctx, &opts, *kind);
        assert_eq!(entry.summary, solo.summary, "{}", kind.name());
    }
}

#[test]
fn campaign_explore_is_context_independent() {
    // `campaign::explore` depends only on the context's inputs (workload,
    // library, input seed) and the options — never on context identity.
    let lib = OperatorLibrary::evoapprox();
    let opts = ExploreOptions {
        max_steps: 200,
        ..Default::default()
    };
    let ctx = EvalContext::new(&MatMul::new(4), Arc::new(lib.clone()), opts.input_seed).unwrap();
    let a = axdse_suite::ax_dse::campaign::explore(&ctx, &opts, AgentKind::QLearning);
    let ctx2 = EvalContext::new(&MatMul::new(4), Arc::new(lib.clone()), opts.input_seed).unwrap();
    let b = axdse_suite::ax_dse::campaign::explore(&ctx2, &opts, AgentKind::QLearning);
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.total_reward.to_bits(), b.total_reward.to_bits());
    assert_eq!(a.summary, b.summary);
    assert_eq!(a.distinct_configs, b.distinct_configs);
}

#[test]
fn experiment_specs_round_trip_through_json() {
    use axdse_suite::ax_dse::campaign::{BackendSpec, BenchmarkSpec, ExperimentSpec, SeedRange};

    let spec = ExperimentSpec::new("round-trip")
        .benchmark(BenchmarkSpec::MatMul(10))
        .benchmark(BenchmarkSpec::Fir(100))
        .agent(AgentKind::QLearning)
        .agent(AgentKind::QLambda { lambda: 0.7 })
        .seeds(SeedRange::new(2, 4))
        .explore(ExploreOptions {
            max_steps: 777,
            input_seed: 5,
            ..Default::default()
        })
        .backend(BackendSpec::ExactInterpreted)
        .budget(9_999)
        .parallelism(2);
    let text = spec.to_json_string();
    assert_eq!(ExperimentSpec::from_json_str(&text).unwrap(), spec);

    // The checked-in example spec parses, validates and round-trips too.
    let checked_in = std::fs::read_to_string("examples/campaign_matmul.json").unwrap();
    let example = ExperimentSpec::from_json_str(&checked_in).unwrap();
    assert!(example.benchmarks.len() >= 2, "multi-benchmark");
    assert!(example.agents.len() >= 2, "multi-agent");
    assert!(example.budget.is_some(), "global budget");
    assert_eq!(
        ExperimentSpec::from_json_str(&example.to_json_string()).unwrap(),
        example
    );
}

#[test]
fn scalarised_campaign_reports_are_byte_identical_run_to_run() {
    use axdse_suite::ax_dse::campaign::Ranking;
    // The pre-multi-objective pin: a scalar campaign serialises to the
    // same bytes run after run — and spelling out today's default
    // `Ranking::Scalarised` explicitly changes nothing.
    let opts = ExploreOptions {
        max_steps: 150,
        ..Default::default()
    };
    let spec = ExperimentSpec::new("scalar-pin")
        .benchmark(BenchmarkSpec::MatMul(4))
        .agent(AgentKind::QLearning)
        .agent(AgentKind::Sarsa)
        .seeds(SeedRange::new(0, 2))
        .explore(opts);
    let a = run(&spec).to_json_string();
    assert_eq!(
        a,
        run(&spec).to_json_string(),
        "same campaign twice, same bytes"
    );
    assert_eq!(
        a,
        run(&spec.ranking(Ranking::Scalarised)).to_json_string(),
        "explicit scalarised ranking is the default"
    );
    // Schema growth is tagged, not silent: consumers can tell a schema
    // change from byte drift.
    assert!(a.contains("\"report_version\": 3"));
    assert!(a.contains("\"pareto\""));
}

#[test]
fn pareto_example_spec_parses_validates_and_round_trips() {
    use axdse_suite::ax_dse::campaign::{ExperimentSpec, LibrarySpec, Ranking};
    let text = std::fs::read_to_string("examples/campaign_pareto.json").unwrap();
    let spec = ExperimentSpec::from_json_str(&text).unwrap();
    assert_eq!(spec.ranking, Ranking::Pareto);
    assert_eq!(spec.library, LibrarySpec::EvoApproxExtended);
    assert_eq!(spec.objectives.len(), 2);
    assert_eq!(spec.input_seeds, vec![42, 43]);
    assert!(spec.benchmarks.len() >= 2, "multi-benchmark front");
    assert_eq!(
        ExperimentSpec::from_json_str(&spec.to_json_string()).unwrap(),
        spec
    );
}

#[test]
fn shared_cache_persistence_round_trips_through_disk() {
    // Fill a cache through a real exploration, save it, load it in a
    // "second process" and verify a replay answers from the loaded cache
    // with bit-identical results.
    let lib = OperatorLibrary::evoapprox();
    let opts = ExploreOptions {
        max_steps: 200,
        ..Default::default()
    };
    let wl = MatMul::new(4);
    let cache = SharedCache::new();
    let ctx = EvalContext::with_cache(
        &wl,
        Arc::new(lib.clone()),
        opts.input_seed,
        Arc::clone(&cache),
    )
    .unwrap();
    let first = axdse_suite::ax_dse::campaign::explore(&ctx, &opts, AgentKind::QLearning);
    // `save` merges whatever the path holds: start from a fresh
    // per-process file.
    let path = std::env::temp_dir().join(format!(
        "ax_dse_determinism_cache_{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    cache.save(&path, usize::MAX, None).unwrap();

    let loaded = SharedCache::load(&path).unwrap();
    assert_eq!(loaded.len(), cache.len());
    let ctx2 =
        EvalContext::with_cache(&wl, Arc::new(lib.clone()), opts.input_seed, loaded).unwrap();
    let replay = axdse_suite::ax_dse::campaign::explore(&ctx2, &opts, AgentKind::QLearning);
    assert_eq!(first.trace, replay.trace);
    assert_eq!(first.summary, replay.summary);
    assert_eq!(
        replay.evaluator.executions(),
        0,
        "every design must come from the loaded cache"
    );
    let _ = std::fs::remove_file(path);
}

/// All five agents: the roster of the golden campaigns.
const ALL_AGENTS: [AgentKind; 5] = [
    AgentKind::QLearning,
    AgentKind::Sarsa,
    AgentKind::ExpectedSarsa,
    AgentKind::DoubleQ,
    AgentKind::QLambda { lambda: 0.7 },
];

/// FNV-1a, 64-bit: a digest of report bytes with no per-process seed, so
/// a recorded value compares across builds.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over a traced run's canonical event stream: each event's JSON
/// line followed by a newline, in `(source, seq)` order.
fn event_digest(telemetry: &Telemetry) -> u64 {
    let lines: String = telemetry
        .events()
        .iter()
        .map(|e| e.to_json_line() + "\n")
        .collect();
    fnv1a64(lines.as_bytes())
}

#[test]
fn campaign_reports_match_their_golden_digests() {
    use axdse_suite::ax_dse::campaign::{BudgetPolicy, HalvingBracket, Ranking};
    // Every other pin here compares two runs of one build, so a changed
    // RNG draw order, tie-break or floating-point operation order in an
    // agent would pass them all. These digests were recorded once: any
    // such change moves a report byte and fails this test. Each budget
    // policy is pinned under each ranking it can use, with its report
    // and the event stream of a traced run, so a drifted schedule fails
    // too.
    let grid = ExperimentSpec {
        agents: ALL_AGENTS.to_vec(),
        ..ExperimentSpec::new("golden")
    }
    .benchmark(BenchmarkSpec::MatMul(4))
    .benchmark(BenchmarkSpec::Dot(8))
    .seeds(SeedRange::new(0, 2))
    .explore(ExploreOptions {
        max_steps: 300,
        ..Default::default()
    });
    // Each spec runs sequentially and on the default thread count against
    // one digest: a run polls only its own cell's budget, so where it
    // pauses cannot depend on the schedule.
    let pin = |label: &str, spec: &ExperimentSpec, spent: u64, report: u64, events: u64| {
        for parallelism in [Some(1), None] {
            let spec = ExperimentSpec {
                parallelism,
                ..spec.clone()
            };
            let ran = run(&spec);
            assert_eq!(ran.budget.spent, spent, "{label} spend drifted");
            assert_eq!(
                fnv1a64(ran.to_json_string().as_bytes()),
                report,
                "{label} report drifted (parallelism {parallelism:?})"
            );
            let traced = Telemetry::new();
            run_traced(&spec, &traced);
            assert_eq!(
                event_digest(&traced),
                events,
                "{label} event stream drifted (parallelism {parallelism:?})"
            );
        }
    };
    pin(
        "scalarised grid",
        &grid,
        2958,
        0xa7fd_f9c8_6f5e_28b7,
        0x9659_e744_3069_e355,
    );

    // Every budgeted policy under about 40% of the unbounded grid's 2,958
    // designs: (label, policy, ranking, spent, report digest, event digest).
    let halving = BudgetPolicy::SuccessiveHalving {
        rounds: 3,
        keep_fraction: 0.5,
    };
    let asha = BudgetPolicy::AsyncHalving {
        rungs: 3,
        keep_fraction: 0.5,
    };
    let hyperband = BudgetPolicy::Hyperband {
        brackets: vec![
            HalvingBracket::new(3, 0.5),
            HalvingBracket::new(2, 0.5),
            HalvingBracket::new(1, 0.5),
        ],
    };
    let weighted = BudgetPolicy::Weighted((1..=10).map(f64::from).collect());
    let scalar = Ranking::Scalarised;
    let pinned: [(&str, BudgetPolicy, Ranking, u64, u64, u64); 8] = [
        (
            "uniform",
            BudgetPolicy::Uniform,
            scalar,
            1200,
            0x9a69_e8fc_e1b8_4eb7,
            0xbca3_00b3_22eb_9b2a,
        ),
        (
            "weighted",
            weighted,
            scalar,
            1200,
            0xb715_5ce7_a75c_275a,
            0x080e_f2b1_87cc_4b0f,
        ),
        (
            "halving",
            halving.clone(),
            scalar,
            1193,
            0x3eaf_da53_e4a3_a9fc,
            0xd6d6_d05d_dce5_b6b2,
        ),
        (
            "hyperband",
            hyperband.clone(),
            scalar,
            1200,
            0x5b50_e6ab_7404_9568,
            0x15d6_a4a3_8028_f073,
        ),
        (
            "asha",
            asha.clone(),
            scalar,
            1192,
            0x96a6_de56_e780_7ed1,
            0x9280_d02e_267e_e431,
        ),
        (
            "pareto halving",
            halving,
            Ranking::Pareto,
            1193,
            0xb908_ed94_1ea3_da3d,
            0x23fc_e18c_cdcc_13fe,
        ),
        (
            "pareto asha",
            asha,
            Ranking::Pareto,
            1192,
            0x18d4_18e3_418e_92ca,
            0x1416_893f_1f47_680e,
        ),
        (
            "pareto hyperband",
            hyperband,
            Ranking::Pareto,
            1200,
            0x1f89_1f0f_ab0a_de9b,
            0xecb2_1ea3_83e2_c618,
        ),
    ];
    for (label, policy, ranking, spent, report, events) in pinned {
        let spec = grid.clone().budget(1_200).policy(policy).ranking(ranking);
        pin(label, &spec, spent, report, events);
    }
}

#[test]
fn campaign_schedule_shapes_match_their_golden_digest() {
    use axdse_suite::ax_agents::Schedule;
    // Every campaign above runs the default schedules: an exponential ε
    // and a constant α. This one pins the other two shapes an agent
    // evaluates per step, a linear ε and an exponential α, through all
    // five agents. Recorded once, like the digests above.
    let report = run(&ExperimentSpec {
        agents: ALL_AGENTS.to_vec(),
        ..ExperimentSpec::new("golden-schedules")
    }
    .benchmark(BenchmarkSpec::MatMul(4))
    .seeds(SeedRange::new(0, 2))
    .explore(ExploreOptions {
        max_steps: 300,
        epsilon: Schedule::Linear {
            start: 0.5,
            end: 0.02,
            steps: 200,
        },
        alpha: Schedule::Exponential {
            start: 0.6,
            end: 0.1,
            decay: 0.995,
        },
        ..Default::default()
    })
    .parallelism(1));
    assert_eq!(
        fnv1a64(report.to_json_string().as_bytes()),
        0x271d_7eb8_54c8_08e6,
        "schedule-shape grid report drifted"
    );
}
