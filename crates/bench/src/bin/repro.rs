//! Regenerates every table and figure of the paper plus the ablations.
//!
//! ```text
//! repro [--out DIR] [--steps N] [--seed S] <command>
//!
//! commands:
//!   table1                adder characterisation (paper Table I)
//!   table2                multiplier characterisation (paper Table II)
//!   table3                the four explorations (paper Table III)
//!   fig2                  MatMul 10x10 step series + trends (paper Fig. 2)
//!   fig3                  FIR-100 step series + trends (paper Fig. 3)
//!   fig4                  average reward per 100 steps (paper Fig. 4)
//!   ablation-explorers    Q-learning vs random/hill-climb/SA/GA
//!   ablation-agents       Q-learning vs SARSA/Expected-SARSA/DoubleQ/Q(lambda)
//!   ablation-epsilon      epsilon-schedule sensitivity
//!   ablation-thresholds   threshold-rule sensitivity
//!   sweep                 multi-seed robustness of the explorations (parallel workers + shared cache)
//!   portfolio             race every agent kind per benchmark over one shared cache
//!   serve                 long-lived campaign daemon: POST specs to
//!                         /campaigns over HTTP, GET byte-identical reports
//!                         back (--addr HOST:PORT binds elsewhere; --workers N
//!                         sets concurrent job slots; --cache FILE persists the
//!                         shared design cache; each job is granted a cap when
//!                         it is admitted and runs as `run --budget CAP`
//!                         would: --max-job-budget N caps every grant and
//!                         --server-budget N what ALL jobs are granted and
//!                         charge together; --cache-scopes N prunes the oldest
//!                         cache scopes past N, in memory and in the file;
//!                         --smoke shrinks every submitted spec for CI)
//!   run SPEC.json         execute a checked-in campaign spec end-to-end
//!                         (--smoke shrinks it for CI; --cache FILE persists the
//!                         design cache across processes — concurrent writers
//!                         merge on save, and scopes a file holds without a
//!                         fingerprint are skipped and counted on stderr;
//!                         --cache-cap N bounds the saved file
//!                         to N designs by dropping least-recently-used whole
//!                         scopes; --policy P / --budget N override the spec's
//!                         budget policy: uniform | weighted:S1,S2,… |
//!                         halving:ROUNDS,KEEP | asha:RUNGS,KEEP |
//!                         hyperband:R1,K1;R2,K2;… — --report-json FILE
//!                         writes the machine-readable CampaignReport;
//!                         --front-json FILE writes the report's Pareto
//!                         section (front membership, hypervolume,
//!                         per-objective bests) and fails on an empty
//!                         front; --trace FILE streams every structured
//!                         event as JSONL and leaves the report as it is;
//!                         --metrics FILE writes the final metrics snapshot
//!                         as JSON and adds the report's telemetry section)
//!   all                   everything above
//! ```

use ax_bench::{ablations, figures, run_or_exit, tables, OutputDir};
use ax_dse::backend::SharedCache;
use ax_dse::campaign::{
    run_spec, BenchmarkSpec, BudgetPolicy, CampaignReport, Event, EventKind, ExperimentSpec,
    JsonlSink, Observer, RunSpecOptions, SeedRange, Telemetry,
};
use ax_dse::explore::AgentKind;
use ax_dse::explore::ExploreOptions;
use ax_dse::report::ascii_table;
use ax_workloads::matmul::MatMul;
use ax_workloads::sobel::Sobel;
use std::num::NonZeroU64;
use std::process::ExitCode;

struct Args {
    command: String,
    spec: Option<String>,
    out: OutputDir,
    steps: u64,
    seed: u64,
    reward: f64,
    smoke: bool,
    cache: Option<String>,
    cache_cap: Option<usize>,
    policy: Option<BudgetPolicy>,
    budget: Option<u64>,
    report_json: Option<String>,
    front_json: Option<String>,
    trace: Option<String>,
    metrics: Option<String>,
    addr: String,
    workers: usize,
    server_budget: Option<u64>,
    max_job_budget: Option<u64>,
    cache_scopes: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut positional: Vec<String> = Vec::new();
    let mut out = OutputDir::at("results");
    let mut steps = 10_000u64;
    let mut seed = 0u64;
    let mut reward = ExploreOptions::default().max_reward;
    let mut smoke = false;
    let mut cache = None;
    let mut cache_cap = None;
    let mut policy = None;
    let mut budget = None;
    let mut report_json = None;
    let mut front_json = None;
    let mut trace = None;
    let mut metrics = None;
    let mut addr = "127.0.0.1:7878".to_owned();
    let mut workers = 2usize;
    let mut server_budget = None;
    let mut max_job_budget = None;
    let mut cache_scopes = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                let dir = it.next().ok_or("--out needs a directory")?;
                out = OutputDir::at(dir);
            }
            "--no-out" => out = OutputDir::default(),
            "--steps" => {
                steps = it
                    .next()
                    .ok_or("--steps needs a number")?
                    .parse()
                    .map_err(|e| format!("bad --steps: {e}"))?;
            }
            "--seed" => {
                seed = it
                    .next()
                    .ok_or("--seed needs a number")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--reward" => {
                reward = it
                    .next()
                    .ok_or("--reward needs a number")?
                    .parse()
                    .map_err(|e| format!("bad --reward: {e}"))?;
            }
            "--smoke" => smoke = true,
            "--cache" => cache = Some(it.next().ok_or("--cache needs a file")?),
            "--cache-cap" => {
                cache_cap = Some(
                    it.next()
                        .ok_or("--cache-cap needs an entry count")?
                        .parse()
                        .map_err(|e| format!("bad --cache-cap: {e}"))?,
                );
            }
            "--policy" => {
                policy = Some(BudgetPolicy::parse_cli(
                    &it.next().ok_or("--policy needs a value")?,
                )?);
            }
            "--budget" => {
                budget = Some(
                    it.next()
                        .ok_or("--budget needs a number")?
                        .parse()
                        .map_err(|e| format!("bad --budget: {e}"))?,
                );
            }
            "--report-json" => {
                report_json = Some(it.next().ok_or("--report-json needs a file")?);
            }
            "--front-json" => {
                front_json = Some(it.next().ok_or("--front-json needs a file")?);
            }
            "--trace" => trace = Some(it.next().ok_or("--trace needs a file")?),
            "--metrics" => metrics = Some(it.next().ok_or("--metrics needs a file")?),
            "--addr" => addr = it.next().ok_or("--addr needs HOST:PORT")?,
            "--workers" => {
                workers = it
                    .next()
                    .ok_or("--workers needs a number")?
                    .parse()
                    .map_err(|e| format!("bad --workers: {e}"))?;
                if workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
            }
            "--server-budget" => {
                server_budget = Some(
                    it.next()
                        .ok_or("--server-budget needs a number")?
                        .parse::<NonZeroU64>()
                        .map_err(|e| format!("bad --server-budget: {e}"))?
                        .get(),
                );
            }
            "--max-job-budget" => {
                max_job_budget = Some(
                    it.next()
                        .ok_or("--max-job-budget needs a number")?
                        .parse::<NonZeroU64>()
                        .map_err(|e| format!("bad --max-job-budget: {e}"))?
                        .get(),
                );
            }
            "--cache-scopes" => {
                cache_scopes = Some(
                    it.next()
                        .ok_or("--cache-scopes needs a scope count")?
                        .parse()
                        .map_err(|e| format!("bad --cache-scopes: {e}"))?,
                );
            }
            "--help" | "-h" => return Err("help".into()),
            // Only `run` takes a second positional (its spec file); a stray
            // bare word after any other command is a mistake, not a spec.
            other
                if !other.starts_with('-')
                    && (positional.is_empty()
                        || positional[0] == "run" && positional.len() == 1) =>
            {
                positional.push(other.to_owned());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let mut positional = positional.into_iter();
    let command = positional.next().ok_or("missing command")?;
    let spec = positional.next();
    if command == "run" && spec.is_none() {
        return Err("`run` needs a spec file: repro run <spec.json>".into());
    }
    Ok(Args {
        command,
        spec,
        out,
        steps,
        seed,
        reward,
        smoke,
        cache,
        cache_cap,
        policy,
        budget,
        report_json,
        front_json,
        trace,
        metrics,
        addr,
        workers,
        server_budget,
        max_job_budget,
        cache_scopes,
    })
}

/// Streams campaign progress to stderr as runs finish, and every event to
/// the `--trace` file when there is one.
struct PrintObserver {
    trace: Option<JsonlSink>,
}

impl Observer for PrintObserver {
    fn on_event(&self, event: &Event) {
        if let Some(trace) = &self.trace {
            trace.on_event(event);
        }
        match &event.kind {
            EventKind::CampaignStart { name, total_runs } => {
                eprintln!("campaign `{name}`: {total_runs} runs");
            }
            EventKind::BenchmarkReady { benchmark } => eprintln!("  prepared {benchmark}"),
            EventKind::RunComplete {
                benchmark,
                agent,
                seed,
                stop,
                steps,
            } => eprintln!("  {benchmark} / {agent} / seed {seed}: {stop} after {steps} steps"),
            EventKind::BudgetExhausted { cap } => {
                eprintln!("  global evaluation budget exhausted at {cap} designs");
            }
            _ => {}
        }
    }
}

/// A benchmark as `repro run` prints it: its name, followed by its input
/// seed when the spec sweeps `input_seeds`.
fn bench_label(benchmark: &str, input_seed: Option<u64>) -> String {
    match input_seed {
        Some(seed) => format!("{benchmark} (input seed {seed})"),
        None => benchmark.to_owned(),
    }
}

/// Prints a finished campaign as a table and writes it as CSV.
fn print_campaign_report(report: &CampaignReport, out: &OutputDir) {
    let mut rows = Vec::new();
    for cell in &report.cells {
        let s = &cell.summary;
        rows.push(vec![
            bench_label(&cell.benchmark, cell.input_seed),
            cell.agent.name(),
            format!("{}/{}", s.reached_target + s.terminated, s.seeds),
            format!("{:.0} +/- {:.0}", s.stop_step.mean, s.stop_step.std_dev),
            format!(
                "{:.1} +/- {:.1}",
                s.solution_power.mean, s.solution_power.std_dev
            ),
            format!("{:.0}%", 100.0 * s.feasible_solutions),
            cell.evaluations.to_string(),
        ]);
    }
    println!("\nCampaign `{}`", report.name);
    println!(
        "{}",
        ascii_table(
            &[
                "benchmark",
                "agent",
                "stopped early",
                "stop step",
                "solution d-power",
                "feasible",
                "evals"
            ],
            &rows
        )
    );
    match report.budget.cap {
        Some(cap) => println!(
            "budget: {} of {cap} designs spent (+{} cooperative overshoot), \
             {} run(s) stopped by the budget scheduler (exhaustion or elimination)",
            report.budget.spent, report.budget.overshoot, report.budget.stopped_runs
        ),
        None => println!(
            "budget: unbounded ({} designs evaluated)",
            report.budget.spent
        ),
    }
    for round in &report.allocations {
        let cells: Vec<String> = round
            .cells
            .iter()
            .map(|c| {
                format!(
                    "{}/{} +{} ({}{})",
                    bench_label(&c.benchmark, c.input_seed),
                    c.agent.name(),
                    c.granted,
                    if c.survived { "alive" } else { "out" },
                    if c.best_score.is_finite() {
                        format!(", best {:.2}", c.best_score)
                    } else {
                        String::new()
                    }
                )
            })
            .collect();
        let label = if round.bracket > 0 || report.allocations.iter().any(|a| a.bracket > 0) {
            format!("bracket {} round {}", round.bracket, round.round)
        } else {
            format!("round {}", round.round)
        };
        println!("{label}: {}", cells.join("; "));
    }
    for p in &report.portfolios {
        let w = p.winner();
        println!(
            "{}: winner {} (seed {}, score {:.3}) over {} distinct designs",
            bench_label(&p.benchmark, p.input_seed),
            w.kind.name(),
            w.seed,
            w.score,
            p.shared_distinct
        );
    }
    if let Some((i, best)) = report.best_overall() {
        let p = &report.portfolios[i];
        println!(
            "best overall: {} on {} (score {:.3})",
            best.kind.name(),
            bench_label(&p.benchmark, p.input_seed),
            best.score
        );
    }
    out.write(
        "campaign",
        &[
            "benchmark",
            "agent",
            "stopped_early",
            "stop_step",
            "solution_dpower",
            "feasible",
            "evals",
        ],
        &rows,
    );
}

/// The `run` subcommand: load, (optionally) shrink, execute and report a
/// checked-in campaign spec.
///
/// # Errors
///
/// An unreadable spec file; a spec that fails to parse or validate, as
/// written or after any of the command line's `--smoke`, `--budget` and
/// `--policy` overrides; a campaign that cannot run; an output file that
/// cannot be written; and `--front-json` on a campaign with an empty
/// Pareto front.
fn run_spec_file(args: &Args) -> Result<(), String> {
    let path = args.spec.as_ref().expect("validated in parse_args");
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read spec {path}: {e}"))?;
    let mut spec =
        ExperimentSpec::from_json_str(&text).map_err(|e| format!("bad spec {path}: {e}"))?;
    let revalidate = |spec: &ExperimentSpec, flag: &str| {
        spec.validate()
            .map_err(|e| format!("{flag} does not fit {path}: {e}"))
    };
    if args.smoke {
        spec = spec.smoke();
        revalidate(&spec, "--smoke")?;
    }
    if let Some(budget) = args.budget {
        spec.budget = Some(budget);
        revalidate(&spec, "--budget")?;
    }
    if let Some(policy) = &args.policy {
        spec.policy = policy.clone();
        revalidate(&spec, "--policy")?;
    }
    if args.cache_cap.is_some() && args.cache.is_none() {
        return Err("--cache-cap bounds a saved cache file; pass --cache FILE too".into());
    }
    // The outputs written after the campaign: fail now, not after it, when
    // one names a directory that does not exist.
    for path in [&args.metrics, &args.report_json, &args.front_json]
        .into_iter()
        .flatten()
    {
        match std::path::Path::new(path).parent() {
            Some(dir) if !dir.as_os_str().is_empty() && !dir.is_dir() => {
                return Err(format!(
                    "cannot write {path}: no directory {}",
                    dir.display()
                ));
            }
            _ => {}
        }
    }
    let cache = match &args.cache {
        None => None,
        Some(p) => match SharedCache::load(p) {
            Ok(cache) => {
                eprintln!("loaded {} cached designs from {p}", cache.len());
                warn_skipped_scopes(cache.skipped_scopes(), p);
                Some(cache)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Some(SharedCache::new()),
            Err(e) => return Err(format!("cannot load cache {p}: {e}")),
        },
    };
    // Only --metrics turns metrics on; otherwise the campaign runs with
    // the zero-overhead disabled handle, traced or not.
    let telemetry = if args.metrics.is_some() {
        Telemetry::new()
    } else {
        Telemetry::disabled()
    };
    let trace = args.trace.as_ref().map(|path| {
        JsonlSink::create(path).map_err(|e| format!("cannot create trace file {path}: {e}"))
    });
    let observer = PrintObserver {
        trace: trace.transpose()?,
    };
    let opts = RunSpecOptions {
        cache: cache.clone(),
        observer: Some(&observer),
        telemetry: telemetry.clone(),
        ..Default::default()
    };
    let report = run_spec(&spec, opts).map_err(|e| format!("campaign failed: {e}"))?;
    print_campaign_report(&report, &args.out);
    // A trace that could not be written is reported last, once the other
    // outputs and the cache are saved.
    let traced = match (&args.trace, &observer.trace) {
        (Some(path), Some(trace)) => match trace.flush() {
            Ok(()) => {
                eprintln!("wrote {} structured events to {path}", trace.emitted());
                Ok(())
            }
            Err(e) => Err(format!("cannot write trace file {path}: {e}")),
        },
        _ => Ok(()),
    };
    if let Some(path) = &args.metrics {
        let snapshot = telemetry.snapshot().expect("telemetry is enabled");
        std::fs::write(path, snapshot.to_json_string())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote metrics snapshot to {path}");
    }
    if let Some(path) = &args.report_json {
        std::fs::write(path, report.to_json_string())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote machine-readable report to {path}");
    }
    if let Some(path) = &args.front_json {
        if report.pareto.front.is_empty() {
            return Err("campaign finished with an empty Pareto front".into());
        }
        let doc = report.to_json();
        let front = doc
            .get("pareto")
            .expect("reports always carry a pareto section");
        std::fs::write(path, front.pretty()).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!(
            "wrote Pareto front ({} member(s), hypervolume {:.4}) to {path}",
            report.pareto.front.len(),
            report.pareto.hypervolume
        );
    }
    if let (Some(path), Some(cache)) = (&args.cache, &cache) {
        // Concurrent `repro run --cache` processes race on the file: `save`
        // re-merges whatever landed on disk since we loaded and writes the
        // union under one advisory lock (atomic temp-file + rename), so
        // nobody's designs are silently dropped. --cache-cap then bounds
        // the union by dropping least-recently-used whole scopes.
        let merged = cache
            .save(path, usize::MAX, args.cache_cap)
            .map_err(|e| format!("cannot save cache {path}: {e}"))?;
        if merged > 0 {
            eprintln!("re-merged {merged} on-disk designs from {path} before saving");
        }
        eprintln!("saved {} cached designs to {path}", cache.len());
    }
    traced
}

/// Says how many scopes of the cache file at `path` were skipped for want
/// of a fingerprint, if any.
fn warn_skipped_scopes(skipped: u64, path: &str) {
    if skipped > 0 {
        eprintln!(
            "skipped {skipped} cache scope(s) without a fingerprint in {path} \
             (saved before scopes were keyed by program and library)"
        );
    }
}

/// The `serve` subcommand: bind, report what the cache file held, and
/// serve until `POST /shutdown`.
///
/// # Errors
///
/// An address that cannot be bound, a cache file that cannot be loaded,
/// and an accept loop or final cache save that fails.
fn serve(args: &Args) -> Result<(), String> {
    let config = ax_serve::ServeConfig {
        addr: args.addr.clone(),
        workers: args.workers,
        cache_path: args.cache.clone(),
        server_budget: args.server_budget,
        max_job_budget: args.max_job_budget,
        cache_max_scopes: args.cache_scopes,
        smoke: args.smoke,
        ..Default::default()
    };
    let server = ax_serve::Server::bind(config).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    if let Some(path) = &args.cache {
        warn_skipped_scopes(server.skipped_cache_scopes(), path);
    }
    // Both streams: stderr for humans, stdout for scripts that parse the
    // ephemeral port.
    eprintln!("serving campaigns on http://{addr} (POST /shutdown to stop)");
    println!("listening http://{addr}");
    server.run().map_err(|e| format!("serve failed: {e}"))
}

fn explore_opts(steps: u64, seed: u64, reward: f64) -> ExploreOptions {
    ExploreOptions {
        max_steps: steps,
        seed,
        max_reward: reward,
        ..Default::default()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg != "help" {
                eprintln!("error: {msg}\n");
            }
            eprintln!(
                "usage: repro [--out DIR | --no-out] [--steps N] [--seed S] <command>\n       \
                 repro run <spec.json> [--smoke] [--cache FILE] [--cache-cap N]\n               \
                 [--policy uniform|weighted:S1,S2,..|halving:R,K|asha:R,K|\n                \
                 hyperband:R1,K1;R2,K2;..] [--budget N] [--report-json FILE]\n               \
                 [--front-json FRONT.json] [--trace EVENTS.jsonl]\n               \
                 [--metrics METRICS.json]\n       \
                 repro serve [--addr HOST:PORT] [--workers N] [--cache FILE]\n               \
                 [--server-budget N] [--max-job-budget N] [--cache-scopes N]\n               \
                 [--smoke]\n\n\
                 --cache-cap N bounds the saved --cache file to N designs by dropping\n\
                 least-recently-used whole scopes. serve grants each job\n\
                 min(spec budget, --max-job-budget, what --server-budget has left)\n\
                 at admission and runs it as `run --budget` with that cap."
            );
            eprintln!(
                "commands: table1 table2 table3 fig2 fig3 fig4 ablation-explorers \
                 ablation-agents ablation-epsilon ablation-thresholds sweep portfolio \
                 run serve all"
            );
            return if msg == "help" {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
    };

    let opts = explore_opts(args.steps, args.seed, args.reward);
    let run = |cmd: &str| -> bool {
        match cmd {
            "table1" => {
                tables::table1(&args.out);
            }
            "table2" => {
                tables::table2(&args.out);
            }
            "table3" => {
                tables::table3(&opts, &args.out);
            }
            "fig2" => {
                figures::fig2(&opts, &args.out);
            }
            "fig3" => {
                figures::fig3(&opts, &args.out);
            }
            "fig4" => {
                figures::fig4(&opts, &args.out);
            }
            "ablation-explorers" => {
                // Sobel's 4 608-configuration space at a sub-saturating
                // budget separates the explorers (matmul's 576 configs are
                // exhausted by every strategy).
                ablations::explorer_comparison(
                    &Sobel::new(8),
                    args.steps.min(600),
                    args.seed,
                    &args.out,
                );
            }
            "run" => {
                if let Err(e) = run_spec_file(&args) {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
            "serve" => {
                if let Err(e) = serve(&args) {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
            "sweep" => {
                let mut rows = Vec::new();
                for bench in [BenchmarkSpec::MatMul(10), BenchmarkSpec::Fir(100)] {
                    let spec = ExperimentSpec::new("sweep")
                        .benchmark(bench)
                        .agent(AgentKind::QLearning)
                        .seeds(SeedRange::new(0, 10))
                        .explore(explore_opts(args.steps.min(3_000), 0, args.reward));
                    let report = run_or_exit(&spec);
                    let s = report.cells.into_iter().next().expect("one cell").summary;
                    rows.push(vec![
                        s.benchmark.clone(),
                        format!("{}/{}", s.reached_target, s.seeds),
                        format!("{:.0} +/- {:.0}", s.stop_step.mean, s.stop_step.std_dev),
                        format!(
                            "{:.1} +/- {:.1}",
                            s.solution_power.mean, s.solution_power.std_dev
                        ),
                        format!("{:.0}%", 100.0 * s.feasible_solutions),
                    ]);
                }
                println!("\nSeed-robustness sweep (10 agent seeds)");
                println!(
                    "{}",
                    ascii_table(
                        &[
                            "benchmark",
                            "reached target",
                            "stop step",
                            "solution d-power",
                            "feasible"
                        ],
                        &rows
                    )
                );
                args.out.write(
                    "sweep_seeds",
                    &[
                        "benchmark",
                        "reached_target",
                        "stop_step",
                        "solution_dpower",
                        "feasible",
                    ],
                    &rows,
                );
            }
            "portfolio" => {
                let mut rows = Vec::new();
                for bench in [BenchmarkSpec::MatMul(10), BenchmarkSpec::Fir(100)] {
                    let spec = ExperimentSpec::new("portfolio")
                        .benchmark(bench)
                        .agent(AgentKind::QLearning)
                        .agent(AgentKind::Sarsa)
                        .agent(AgentKind::ExpectedSarsa)
                        .agent(AgentKind::DoubleQ)
                        .agent(AgentKind::QLambda { lambda: 0.7 })
                        .seeds(SeedRange::single(args.seed))
                        .explore(explore_opts(args.steps.min(3_000), args.seed, args.reward));
                    let report = run_or_exit(&spec);
                    let p = report.portfolios.into_iter().next().expect("one benchmark");
                    for (i, e) in p.entries.iter().enumerate() {
                        rows.push(vec![
                            p.benchmark.clone(),
                            e.kind.name(),
                            format!("{:.3}", e.score),
                            if e.feasible {
                                "yes".into()
                            } else {
                                "no".into()
                            },
                            e.summary.steps.to_string(),
                            if i == p.best {
                                "<- winner".into()
                            } else {
                                String::new()
                            },
                        ]);
                    }
                    println!(
                        "{}: {} distinct designs executed across {} racing agents",
                        p.benchmark,
                        p.shared_distinct,
                        p.entries.len()
                    );
                }
                println!("\nAgent portfolio race (shared design cache)");
                println!(
                    "{}",
                    ascii_table(
                        &["benchmark", "agent", "score", "feasible", "steps", ""],
                        &rows
                    )
                );
                args.out.write(
                    "portfolio",
                    &["benchmark", "agent", "score", "feasible", "steps", "winner"],
                    &rows,
                );
            }
            "ablation-agents" => {
                ablations::agent_comparison(&MatMul::new(10), args.steps.min(3_000), &args.out);
            }
            "ablation-epsilon" => {
                ablations::epsilon_ablation(&MatMul::new(10), args.steps.min(3_000), &args.out);
            }
            "ablation-thresholds" => {
                ablations::threshold_ablation(&MatMul::new(10), args.steps.min(3_000), &args.out);
            }
            _ => return false,
        }
        true
    };

    let ok = if args.command == "all" {
        for cmd in [
            "table1",
            "table2",
            "table3",
            "fig2",
            "fig3",
            "fig4",
            "ablation-explorers",
            "ablation-agents",
            "sweep",
            "portfolio",
            "ablation-epsilon",
            "ablation-thresholds",
        ] {
            run(cmd);
        }
        true
    } else {
        run(&args.command)
    };

    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: unknown command `{}`", args.command);
        ExitCode::FAILURE
    }
}
