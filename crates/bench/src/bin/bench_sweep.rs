//! Appends budget-policy records to `BENCH_sweep.json`.
//!
//! ```text
//! bench_sweep [--out FILE] [--seeds N] [--steps N] (--policy P | --pareto)...
//! ```
//!
//! Each record compares a budgeted campaign over a MatMul×FIR grid with
//! an exhaustive (unbudgeted) run of the same grid, in logical evaluation
//! counts, so a record depends only on its arguments: `threads` is the
//! one field that records the machine. Each run *appends* its record to
//! the file, which is the repo's history of these numbers.
//!
//! `--policy P` (e.g. `halving:3,0.5` or `asha:2,0.5`) races the grid
//! under that budget policy at 55 % of the evaluation spend of the
//! exhaustive run, and appends a policy record comparing best-design
//! rewards and evaluation counts. When the policy is `asha:…` the record
//! also runs the synchronous `halving` counterpart with the same shape, so
//! the file carries the sync-vs-async evaluations-to-best-score comparison
//! directly.
//!
//! `--pareto` races the grid multi-objectively: an exhaustive scalarised
//! run fixes the reference front over (QoR error, op cost), then a
//! Pareto-ranked successive-halving run at 70 % of the exhaustive
//! evaluation spend must recover it. The appended record carries both
//! hypervolumes (against the same reference point), both evaluation counts
//! and the recovered-front fraction — the hypervolume-vs-evals trajectory
//! of the multi-objective scheduler.

use ax_bench::{append_bench_record, run_or_exit};
use ax_dse::campaign::{BenchmarkSpec, BudgetPolicy, CampaignReport, ExperimentSpec, SeedRange};
use ax_dse::explore::{AgentKind, ExploreOptions};
use ax_dse::json::Json;

struct Config {
    out: String,
    seeds: u64,
    steps: u64,
    policy: Option<String>,
    pareto: bool,
}

fn parse() -> Result<Config, String> {
    let mut cfg = Config {
        out: "BENCH_sweep.json".into(),
        seeds: 8,
        steps: 300,
        policy: None,
        pareto: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut take = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--out" => cfg.out = take("--out")?,
            "--seeds" => {
                cfg.seeds = take("--seeds")?
                    .parse()
                    .map_err(|e| format!("bad --seeds: {e}"))?;
            }
            "--steps" => {
                cfg.steps = take("--steps")?
                    .parse()
                    .map_err(|e| format!("bad --steps: {e}"))?;
            }
            "--policy" => cfg.policy = Some(take("--policy")?),
            "--pareto" => cfg.pareto = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cfg.policy.is_none() && !cfg.pareto {
        return Err("nothing to record: pass --policy P and/or --pareto".into());
    }
    Ok(cfg)
}

fn main() {
    let cfg = match parse() {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: bench_sweep [--out FILE] [--seeds N] [--steps N] (--policy P | --pareto)..."
            );
            std::process::exit(1);
        }
    };
    if let Some(policy_text) = &cfg.policy {
        let policy = BudgetPolicy::parse_cli(policy_text).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });
        append_policy_record(&cfg.out, policy_text, policy, cfg.steps, cfg.seeds);
    }
    if cfg.pareto {
        append_pareto_record(&cfg.out, cfg.steps, cfg.seeds);
    }
}

/// Races the MatMul×FIR grid multi-objectively: an exhaustive scalarised
/// run fixes the reference Pareto front over (QoR error, op cost) on the
/// widened operator library, then a Pareto-ranked successive-halving run
/// at 70 % of the exhaustive evaluation spend must recover it. Appends
/// the hypervolume-vs-evals comparison (both hypervolumes are measured
/// against the exhaustive run's resolved reference point, so they are
/// directly comparable).
fn append_pareto_record(out: &str, steps: u64, seeds: u64) {
    use ax_dse::campaign::{LibrarySpec, Objective, ObjectiveDecl, Ranking};
    use ax_dse::pareto::hypervolume;

    // The widened library: two extra variants per operator family keep
    // the MatMul×FIR fronts from degenerating to two points. Four agent
    // kinds per benchmark: enough cell diversity for a non-degenerate
    // (>2-point) front over the widened library.
    let grid = ExperimentSpec::new("bench-pareto")
        .benchmark(BenchmarkSpec::MatMul(10))
        .benchmark(BenchmarkSpec::Fir(100))
        .library(LibrarySpec::EvoApproxExtended)
        .agent(AgentKind::QLearning)
        .agent(AgentKind::Sarsa)
        .agent(AgentKind::ExpectedSarsa)
        .agent(AgentKind::DoubleQ)
        .seeds(SeedRange::new(0, seeds.min(2)))
        .explore(ExploreOptions {
            max_steps: steps,
            ..Default::default()
        })
        .objectives(vec![
            ObjectiveDecl::new(Objective::QorError),
            ObjectiveDecl::new(Objective::OpCost),
        ]);

    let exhaustive = run_or_exit(&grid);
    let exhaustive_evals = exhaustive.budget.spent;
    let budget = (exhaustive_evals * 70 / 100).max(1);
    let policed = run_or_exit(
        &grid
            .budget(budget)
            .policy(BudgetPolicy::SuccessiveHalving {
                rounds: 2,
                keep_fraction: 0.5,
            })
            .ranking(Ranking::Pareto),
    );
    let pareto_evals = policed.budget.charged();

    // Recovery: every exhaustive front point must reappear on the
    // budgeted run's front — same cell, same objective vector.
    let recovered = exhaustive
        .pareto
        .front
        .iter()
        .filter(|p| {
            policed
                .pareto
                .front
                .iter()
                .any(|q| q.cell == p.cell && q.values == p.values)
        })
        .count();
    let front_points = |report: &CampaignReport| -> Vec<Vec<f64>> {
        report
            .pareto
            .front
            .iter()
            .map(|p| p.values.clone())
            .collect()
    };
    let reference = exhaustive.pareto.reference.clone();
    let hv_exhaustive = hypervolume(&front_points(&exhaustive), &reference);
    let hv_pareto = hypervolume(&front_points(&policed), &reference);

    let record = Json::obj(vec![
        ("benchmark", Json::str("matmul-10x10 x fir-100")),
        ("kind", Json::str("pareto")),
        ("library", Json::str("evoapprox-extended")),
        ("policy", Json::str("halving:2,0.5")),
        ("objectives", Json::str("qor-error,op-cost")),
        ("seeds", Json::u64(seeds.min(2))),
        ("max_steps", Json::u64(steps)),
        ("threads", Json::u64(rayon::current_num_threads() as u64)),
        ("exhaustive_evals", Json::u64(exhaustive_evals)),
        ("pareto_budget", Json::u64(budget)),
        ("pareto_evals", Json::u64(pareto_evals)),
        (
            "evals_fraction",
            Json::Num(format!(
                "{:.3}",
                pareto_evals as f64 / exhaustive_evals.max(1) as f64
            )),
        ),
        (
            "front_size_exhaustive",
            Json::u64(exhaustive.pareto.front.len() as u64),
        ),
        (
            "front_size_pareto",
            Json::u64(policed.pareto.front.len() as u64),
        ),
        ("front_recovered", Json::u64(recovered as u64)),
        (
            "front_recovered_fraction",
            Json::Num(format!(
                "{:.3}",
                recovered as f64 / exhaustive.pareto.front.len().max(1) as f64
            )),
        ),
        (
            "hypervolume_exhaustive",
            Json::Num(format!("{hv_exhaustive:.6}")),
        ),
        ("hypervolume_pareto", Json::Num(format!("{hv_pareto:.6}"))),
    ]);
    print!("{}", record.pretty());
    append_bench_record(out, record).expect("append pareto record");
    eprintln!("appended pareto record to {out}");

    if recovered < exhaustive.pareto.front.len() {
        eprintln!(
            "error: budgeted Pareto run recovered {recovered} of {} exhaustive front points",
            exhaustive.pareto.front.len()
        );
        std::process::exit(1);
    }
}

/// Races the MatMul×FIR campaign grid under `policy` at 55 % of the
/// evaluation spend of an exhaustive run, and appends the comparison.
fn append_policy_record(
    out: &str,
    policy_text: &str,
    policy: BudgetPolicy,
    steps: u64,
    seeds: u64,
) {
    let grid = ExperimentSpec::new("bench-policy")
        .benchmark(BenchmarkSpec::MatMul(10))
        .benchmark(BenchmarkSpec::Fir(100))
        .agent(AgentKind::QLearning)
        .agent(AgentKind::Sarsa)
        .seeds(SeedRange::new(0, seeds.min(2)))
        .explore(ExploreOptions {
            max_steps: steps,
            ..Default::default()
        });
    let best_of = |report: &CampaignReport| {
        report
            .cells
            .iter()
            .map(|c| c.best_score)
            .fold(f64::NEG_INFINITY, f64::max)
    };

    let exhaustive = run_or_exit(&grid);
    let exhaustive_evals = exhaustive.budget.spent;
    let budget = (exhaustive_evals * 55 / 100).max(1);
    let budgeted = |policy: BudgetPolicy| run_or_exit(&grid.clone().budget(budget).policy(policy));
    let policed = budgeted(policy.clone());
    let policy_evals = policed.budget.charged();

    // An async policy is only worth recording against its synchronous
    // counterpart: same rung shape, same budget, barrier back in place.
    let sync_twin = match &policy {
        BudgetPolicy::AsyncHalving {
            rungs,
            keep_fraction,
        } => Some(budgeted(BudgetPolicy::SuccessiveHalving {
            rounds: *rungs,
            keep_fraction: *keep_fraction,
        })),
        _ => None,
    };

    let mut record = Json::obj(vec![
        ("benchmark", Json::str("matmul-10x10 x fir-100")),
        ("policy", Json::str(policy_text)),
        ("seeds", Json::u64(seeds.min(2))),
        ("max_steps", Json::u64(steps)),
        ("threads", Json::u64(rayon::current_num_threads() as u64)),
        ("exhaustive_evals", Json::u64(exhaustive_evals)),
        ("policy_budget", Json::u64(budget)),
        ("policy_evals", Json::u64(policy_evals)),
        (
            "evals_fraction",
            Json::Num(format!(
                "{:.3}",
                policy_evals as f64 / exhaustive_evals.max(1) as f64
            )),
        ),
        (
            "best_score_exhaustive",
            Json::Num(format!("{:.4}", best_of(&exhaustive))),
        ),
        (
            "best_score_policy",
            Json::Num(format!("{:.4}", best_of(&policed))),
        ),
        ("rounds", Json::u64(policed.allocations.len() as u64)),
    ]);
    if let (Json::Obj(pairs), Some(sync)) = (&mut record, &sync_twin) {
        pairs.push((
            "sync_halving_evals".into(),
            Json::u64(sync.budget.charged()),
        ));
        pairs.push((
            "best_score_sync_halving".into(),
            Json::Num(format!("{:.4}", best_of(sync))),
        ));
    }
    print!("{}", record.pretty());
    append_bench_record(out, record).expect("append policy record");
    eprintln!("appended policy record to {out}");
}
