//! Budget-share scheduler contracts: uniform shares degrade to the plain
//! campaign, successive halving respects the global cap and still finds
//! the good designs at a fraction of the evaluation spend, asynchronous
//! halving matches it with no round barrier, Pareto-ranked halving
//! recovers the exhaustive front, and Hyperband's bracket sweep stays
//! under the cap.

use axdse_suite::ax_dse::campaign::{
    run_spec, BenchmarkSpec, BudgetPolicy, CampaignReport, ExperimentSpec, HalvingBracket,
    LibrarySpec, Objective, ObjectiveDecl, Ranking, RunSpecOptions, SeedRange,
};
use axdse_suite::ax_dse::explore::{AgentKind, ExploreOptions};
use proptest::prelude::*;

/// The MatMul × FIR-40 grid every campaign here races: Q-learning and
/// SARSA on an `n`×`n` MatMul and a 40-sample FIR, at most `steps` steps
/// a run.
fn grid(name: &str, n: usize, steps: u64) -> ExperimentSpec {
    ExperimentSpec::new(name)
        .benchmark(BenchmarkSpec::MatMul(n))
        .benchmark(BenchmarkSpec::Fir(40))
        .agent(AgentKind::QLearning)
        .agent(AgentKind::Sarsa)
        .explore(ExploreOptions {
            max_steps: steps,
            ..Default::default()
        })
}

fn run(spec: &ExperimentSpec) -> CampaignReport {
    run_spec(spec, RunSpecOptions::default()).unwrap()
}

fn best_score(report: &CampaignReport) -> f64 {
    report
        .cells
        .iter()
        .map(|c| c.best_score)
        .fold(f64::NEG_INFINITY, f64::max)
}

/// The scheduler is byte-identical to the pre-policy campaign path when
/// shares never bind: same summaries, same evaluation counts, same
/// portfolio scores.
#[test]
fn uniform_policy_with_full_budget_matches_the_unbudgeted_campaign() {
    let spec = grid("uniform-equivalence", 4, 200).seeds(SeedRange::new(0, 2));
    let unbudgeted = run(&spec);
    let full = run(&spec.budget(1_000_000).policy(BudgetPolicy::Uniform));
    assert_eq!(unbudgeted.cells.len(), full.cells.len());
    for (a, b) in unbudgeted.cells.iter().zip(&full.cells) {
        assert_eq!(a.summary, b.summary, "{}/{}", a.benchmark, a.agent.name());
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.best_score, b.best_score);
        assert_eq!(a.stopped_runs, 0);
        assert_eq!(b.stopped_runs, 0);
    }
    for (pa, pb) in unbudgeted.portfolios.iter().zip(&full.portfolios) {
        assert_eq!(pa.best, pb.best);
        for (ea, eb) in pa.entries.iter().zip(&pb.entries) {
            assert_eq!(ea.score, eb.score);
            assert_eq!(ea.summary, eb.summary);
        }
    }
    assert_eq!(unbudgeted.budget.spent, full.budget.spent);
    assert_eq!(full.budget.overshoot, 0, "a non-binding cap never trips");
}

/// A successive-halving campaign on MatMul×FIR must find a best design
/// whose reward is within 1 % of the exhaustive (unbounded) run's, while
/// spending at most 60 % of its evaluations.
#[test]
fn halving_matches_exhaustive_reward_at_a_fraction_of_the_evals() {
    let spec = grid("halving-acceptance", 6, 600).seeds(SeedRange::new(0, 2));

    let exhaustive = run(&spec);
    let full_evals = exhaustive.budget.spent;
    let full_best = best_score(&exhaustive);
    assert!(full_evals > 0 && full_best.is_finite());

    let budget = full_evals * 55 / 100;
    let halved = run(
        &spec.budget(budget).policy(BudgetPolicy::SuccessiveHalving {
            rounds: 2,
            keep_fraction: 0.5,
        }),
    );
    let spent = halved.budget.charged();
    assert!(
        spent <= full_evals * 60 / 100,
        "halving spent {spent} of the exhaustive {full_evals} — over the 60% contract"
    );
    let halved_best = best_score(&halved);
    assert!(
        full_best - halved_best <= 0.01 * full_best.abs(),
        "halving best reward {halved_best} trails the exhaustive {full_best} by more than 1%"
    );
    assert_eq!(halved.allocations.len(), 2, "both rounds recorded");
}

/// On the same MatMul×FIR grid and the same ≈55 % budget, ASHA must
/// still reach the exhaustive run's best score while spending no more
/// evaluations than synchronous successive halving does — the round
/// barrier buys nothing.
#[test]
fn asha_reaches_the_exhaustive_best_within_the_sync_halving_evals() {
    let spec = grid("asha-acceptance", 6, 600).seeds(SeedRange::new(0, 2));

    let exhaustive = run(&spec);
    let full_evals = exhaustive.budget.spent;
    let full_best = best_score(&exhaustive);
    assert!(full_evals > 0 && full_best.is_finite());

    let budgeted = spec.budget(full_evals * 55 / 100);
    let sync = run(&budgeted.clone().policy(BudgetPolicy::SuccessiveHalving {
        rounds: 2,
        keep_fraction: 0.5,
    }));
    let asha = run(&budgeted.policy(BudgetPolicy::AsyncHalving {
        rungs: 2,
        keep_fraction: 0.5,
    }));
    let (sync_evals, asha_evals) = (sync.budget.charged(), asha.budget.charged());
    assert!(
        asha_evals <= sync_evals,
        "asha spent {asha_evals} evaluations, more than sync halving's {sync_evals}"
    );
    let asha_best = best_score(&asha);
    assert!(
        full_best - asha_best <= 0.01 * full_best.abs(),
        "asha best reward {asha_best} trails the exhaustive {full_best} by more than 1%"
    );
    assert_eq!(asha.allocations.len(), 2, "one report per rung");
}

/// Multi-objective halving finds the whole exhaustive front for 70 % of
/// the spend: on MatMul-10 × FIR-100 over the widened library (four agent
/// kinds, enough for a front of more than two points), a Pareto-ranked
/// successive-halving run of two rounds keeping half, granted 70 % of
/// the exhaustive run's evaluations, must reach every exhaustive front
/// point again — same cell, same (QoR error, op cost) vector. The counts
/// are logical, so they are pinned: they equal the last record of
/// `BENCH_sweep.json`.
#[test]
fn pareto_halving_recovers_the_exhaustive_front_at_70_percent_of_the_evals() {
    let grid = ExperimentSpec::new("pareto-acceptance")
        .benchmark(BenchmarkSpec::MatMul(10))
        .benchmark(BenchmarkSpec::Fir(100))
        .library(LibrarySpec::EvoApproxExtended)
        .agent(AgentKind::QLearning)
        .agent(AgentKind::Sarsa)
        .agent(AgentKind::ExpectedSarsa)
        .agent(AgentKind::DoubleQ)
        .seeds(SeedRange::new(0, 2))
        .explore(ExploreOptions {
            max_steps: 300,
            ..Default::default()
        })
        .objectives(vec![
            ObjectiveDecl::new(Objective::QorError),
            ObjectiveDecl::new(Objective::OpCost),
        ]);
    let exhaustive = run(&grid);
    assert_eq!(exhaustive.budget.spent, 2_876);
    let pareto = run(&grid
        .budget(exhaustive.budget.spent * 70 / 100)
        .policy(BudgetPolicy::SuccessiveHalving {
            rounds: 2,
            keep_fraction: 0.5,
        })
        .ranking(Ranking::Pareto));
    assert_eq!(pareto.budget.charged(), 1_770);
    let front = &exhaustive.pareto.front;
    assert_eq!(front.len(), 4);
    for point in front {
        assert!(
            pareto
                .pareto
                .front
                .iter()
                .any(|q| q.cell == point.cell && q.values == point.values),
            "the budgeted front lost {point:?}"
        );
    }
}

/// Pinned-seed degeneration: each pair names one schedule twice. A
/// one-rung ASHA ladder and a one-round halving are the Uniform policy's
/// single rung, equal weighted shares are its even split, and a
/// one-bracket Hyperband is that bracket's halving. The reports must be
/// byte-identical under either ranking.
#[test]
fn asha_with_a_single_rung_degenerates_to_the_uniform_path_byte_identically() {
    let spec = grid("asha-degenerate", 4, 400)
        .seeds(SeedRange::new(0, 2))
        .budget(200);
    let report = |policy: &BudgetPolicy, ranking: Ranking| {
        run(&spec.clone().policy(policy.clone()).ranking(ranking)).to_json_string()
    };
    let halving = BudgetPolicy::SuccessiveHalving {
        rounds: 3,
        keep_fraction: 0.5,
    };
    let pairs = [
        (
            BudgetPolicy::AsyncHalving {
                rungs: 1,
                keep_fraction: 0.5,
            },
            BudgetPolicy::Uniform,
        ),
        (
            BudgetPolicy::SuccessiveHalving {
                rounds: 1,
                keep_fraction: 0.5,
            },
            BudgetPolicy::Uniform,
        ),
        (BudgetPolicy::Weighted(vec![2.5; 4]), BudgetPolicy::Uniform),
        (
            BudgetPolicy::Hyperband {
                brackets: vec![HalvingBracket::new(3, 0.5)],
            },
            halving,
        ),
    ];
    for ranking in [Ranking::Scalarised, Ranking::Pareto] {
        for (degenerate, general) in &pairs {
            assert_eq!(
                report(degenerate, ranking),
                report(general, ranking),
                "{degenerate:?} must equal {general:?} under {ranking:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whatever the cap, round count or keep fraction, successive halving
    /// never grants more than the global budget: the clamped spend stays
    /// at or under the cap and the raw overshoot stays within one step
    /// per run.
    #[test]
    fn halving_never_spends_more_than_the_global_cap(
        budget in 8u64..120,
        rounds in 1u32..5,
        keep_pct in 25u32..80,
    ) {
        let report = run(&grid("halving-cap", 4, 2_000)
            .budget(budget)
            .policy(BudgetPolicy::SuccessiveHalving {
                rounds,
                keep_fraction: f64::from(keep_pct) / 100.0,
            }));
        prop_assert!(report.budget.spent <= budget);
        // 4 runs, one design per step: at most one distinct design per
        // run beyond the cap.
        prop_assert!(
            report.budget.overshoot <= 4,
            "overshoot {} exceeds one step per run",
            report.budget.overshoot
        );
        prop_assert!(report.allocations.len() == rounds as usize);
    }

    /// Whatever the cap, rung count or keep fraction, the asynchronous
    /// scheduler's promotions never grant past the global budget: the
    /// clamped spend stays at or under the cap and the raw overshoot
    /// stays within one step per run.
    #[test]
    fn asha_never_spends_more_than_the_global_cap(
        budget in 8u64..120,
        rungs in 1u32..5,
        keep_pct in 25u32..80,
    ) {
        let report = run(&grid("asha-cap", 4, 2_000)
            .budget(budget)
            .policy(BudgetPolicy::AsyncHalving {
                rungs,
                keep_fraction: f64::from(keep_pct) / 100.0,
            }));
        prop_assert!(report.budget.spent <= budget);
        prop_assert!(
            report.budget.overshoot <= 4,
            "overshoot {} exceeds one step per run",
            report.budget.overshoot
        );
        prop_assert!(report.allocations.len() == rungs as usize);
    }

    /// Hyperband's bracket sweep obeys the same hard ceiling, however the
    /// brackets are shaped, and records one allocation report per round of
    /// every bracket.
    #[test]
    fn hyperband_never_spends_more_than_the_global_cap(
        budget in 8u64..120,
        rounds_a in 1u32..4,
        rounds_b in 1u32..3,
        keep_pct in 25u32..80,
    ) {
        let keep = f64::from(keep_pct) / 100.0;
        let report = run(&grid("hyperband-cap", 4, 2_000)
            .budget(budget)
            .policy(BudgetPolicy::Hyperband {
                brackets: vec![
                    HalvingBracket::new(rounds_a, keep),
                    HalvingBracket::new(rounds_b, keep),
                ],
            }));
        prop_assert!(report.budget.spent <= budget);
        prop_assert!(
            report.budget.overshoot <= 4,
            "overshoot {} exceeds one step per run",
            report.budget.overshoot
        );
        prop_assert!(report.allocations.len() == (rounds_a + rounds_b) as usize);
    }
}
