//! The polymorphic campaign driver.

use crate::backend::{EvalBackend, EvalContext, Evaluator, SharedCache};
use crate::campaign::budget::{CellLedger, MeteredBackend, RungLedger};
use crate::campaign::control::CampaignControl;
use crate::campaign::run::{RunSpecError, RunSpecOptions};
use crate::campaign::spec::{BackendSpec, BudgetPolicy, ExperimentSpec};
use crate::explore::{
    explore_backend, AgentKind, ExplorationOutcome, ExploreOptions, ResumableExploration,
};
use crate::json::Json;
use crate::pareto::{self, DesignObjectives, Objective, ObjectiveDecl, Ranking};
use crate::sweep::{summarize_outcomes, PortfolioEntry, PortfolioOutcome, SweepSummary};
use ax_agents::schedule::powi;
use ax_agents::train::StopReason;
use ax_operators::OperatorLibrary;
use ax_telemetry::{Event, EventKind, MetricsSnapshot, Telemetry, SOURCE_COORDINATOR};
use ax_vm::VmError;
use ax_workloads::Workload;
use rayon::prelude::*;
use std::sync::Arc;

/// Progress hooks of a running campaign: it reports every transition as a
/// typed [`Event`].
///
/// Implementations must be `Sync`: run events fire on rayon worker
/// threads. Both methods have defaults, so an observer implements only
/// what it cares about; [`NullObserver`] is the do-nothing instance.
pub trait Observer: Sync {
    /// A typed campaign, scheduler or run transition (see [`EventKind`]):
    /// the campaign starting and completing, benchmarks ready, budget
    /// grants and exhaustion, rung records, promotions, parks,
    /// eliminations, bracket revivals, and runs pausing and completing.
    /// Fires for every event the campaign's [`Telemetry`] handle records,
    /// and (when [`Observer::wants_events`] opts in) even with telemetry
    /// disabled.
    fn on_event(&self, _event: &Event) {}

    /// Opt-in for [`Observer::on_event`] when the campaign runs without an
    /// enabled [`Telemetry`] handle. The default `false` keeps the
    /// disabled-telemetry fast path allocation-free: no event is even
    /// constructed.
    fn wants_events(&self) -> bool {
        false
    }
}

/// The do-nothing [`Observer`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// How a campaign obtains the [`EvalBackend`] of each run.
///
/// The driver calls [`BackendProvider::spawn`] once per run (on worker
/// threads) with the run's benchmark context. Cross-run sharing lives in
/// the context's [`SharedCache`], which every spawned exact evaluator
/// consults by execution class.
pub trait BackendProvider: Sync {
    /// The backend each run evaluates through.
    type Backend: EvalBackend + Send;

    /// Spawns one run's backend.
    fn spawn(&self, ctx: &EvalContext) -> Self::Backend;
}

/// The exact provider: every run gets a plain [`Evaluator`] spawned from
/// the benchmark's shared-cache context, on the context's execution engine
/// (the threaded-code compiler by default).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactProvider;

impl BackendProvider for ExactProvider {
    type Backend = Evaluator;

    fn spawn(&self, ctx: &EvalContext) -> Self::Backend {
        ctx.evaluator()
    }
}

/// The exact provider pinned to the interpreter reference engine
/// ([`crate::backend::ExecEngine::Interpreter`]): bit-identical results to
/// [`ExactProvider`], without the threaded-code compilation — the
/// `"exact-interpreted"` spec backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct InterpretedProvider;

impl BackendProvider for InterpretedProvider {
    type Backend = Evaluator;

    fn spawn(&self, ctx: &EvalContext) -> Self::Backend {
        ctx.clone()
            .with_engine(crate::backend::ExecEngine::Interpreter)
            .evaluator()
    }
}

/// A provider from a closure turning each run's exact [`Evaluator`] into
/// an arbitrary backend — the seam ad-hoc backend experiments (timing
/// wrappers, fault injection) plug into.
#[derive(Debug)]
pub struct WrapProvider<F> {
    wrap: F,
}

impl<F> WrapProvider<F> {
    /// A provider applying `wrap` to every spawned evaluator.
    pub fn new(wrap: F) -> Self {
        Self { wrap }
    }
}

impl<B, F> BackendProvider for WrapProvider<F>
where
    B: EvalBackend + Send,
    F: Fn(Evaluator) -> B + Sync,
{
    type Backend = B;

    fn spawn(&self, ctx: &EvalContext) -> Self::Backend {
        (self.wrap)(ctx.evaluator())
    }
}

/// One (benchmark, agent) cell of a campaign report.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Benchmark name.
    pub benchmark: String,
    /// The benchmark input seed of this cell, when the campaign swept an
    /// explicit `input_seeds` axis (`None` for the implicit default seed,
    /// keeping single-seed reports byte-identical).
    pub input_seed: Option<u64>,
    /// The learning algorithm.
    pub agent: AgentKind,
    /// Aggregated sweep summary over the cell's seeds.
    pub summary: SweepSummary,
    /// Budget units (distinct designs) this cell charged.
    pub evaluations: u64,
    /// Runs of this cell stopped by budget exhaustion (or elimination).
    pub stopped_runs: u64,
    /// Best design solution score any of the cell's runs observed (the
    /// [`crate::search_adapter::solution_score`] scalarisation) — the
    /// signal the successive-halving scheduler ranks cells by.
    pub best_score: f64,
}

/// Budget accounting of a finished campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetReport {
    /// The campaign cap, if one was set.
    pub cap: Option<u64>,
    /// Units charged across all runs, **clamped to the cap**: what the
    /// budget granted. The cooperative overshoot is reported separately
    /// in [`BudgetReport::overshoot`], so `spent` never reads as a
    /// campaign spending more than it was given.
    pub spent: u64,
    /// Units charged beyond the cap. A run polls its cell's budget
    /// between steps, so it may finish the step in which the budget ran
    /// dry: at most one step's designs per run.
    pub overshoot: u64,
    /// Runs that ended with [`StopReason::Stopped`].
    pub stopped_runs: u64,
}

impl BudgetReport {
    /// `true` if the campaign ran out of budget.
    pub fn exhausted(&self) -> bool {
        self.cap.is_some_and(|cap| self.spent >= cap)
    }

    /// Total units actually charged, overshoot included.
    pub fn charged(&self) -> u64 {
        self.spent + self.overshoot
    }
}

/// One cell's allocation state at the end of a scheduler round.
#[derive(Debug, Clone)]
pub struct CellAllocation {
    /// Benchmark name.
    pub benchmark: String,
    /// The cell's benchmark input seed when an explicit `input_seeds`
    /// axis was swept (`None` otherwise).
    pub input_seed: Option<u64>,
    /// The learning algorithm.
    pub agent: AgentKind,
    /// Budget units granted to this cell *this round* (0 for eliminated
    /// cells and unbounded campaigns).
    pub granted: u64,
    /// Cumulative units the cell has charged by the end of the round.
    pub spent: u64,
    /// Best design solution score the cell's runs have observed so far.
    pub best_score: f64,
    /// `true` if the cell is still in the race after this round's ranking.
    pub survived: bool,
}

/// Per-round (or per-rung) budget-allocation accounting of a campaign.
///
/// Single-round policies with a cap produce one report; successive
/// halving produces one per round, asynchronous halving one per rung, and
/// Hyperband one per round of every bracket — recording grants, spend,
/// the ranking signal and which cells survived. Unbounded single-round
/// campaigns have nothing to allocate and record none.
#[derive(Debug, Clone)]
pub struct AllocationReport {
    /// Round index within the bracket (0-based). For asynchronous halving
    /// this is the rung index.
    pub round: u32,
    /// Hyperband bracket index (0 for every other policy).
    pub bracket: u32,
    /// Every cell of the grid, benchmark-major in input order.
    pub cells: Vec<CellAllocation>,
}

impl AllocationReport {
    /// Cells still alive after this round.
    pub fn survivors(&self) -> usize {
        self.cells.iter().filter(|c| c.survived).count()
    }
}

/// One cell on the campaign's final non-dominated front.
#[derive(Debug, Clone)]
pub struct ParetoPoint {
    /// Grid cell index (benchmark-major).
    pub cell: usize,
    /// Benchmark name.
    pub benchmark: String,
    /// The cell's benchmark input seed when an explicit `input_seeds`
    /// axis was swept (`None` otherwise).
    pub input_seed: Option<u64>,
    /// The learning algorithm.
    pub agent: AgentKind,
    /// The cell's objective vector, one value per declared objective in
    /// declaration order (all minimised).
    pub values: Vec<f64>,
    /// The legacy scalar solution score of the same best design.
    pub score: f64,
}

/// The campaign's multi-objective summary: the final non-dominated front
/// over the grid cells' objective vectors, its hypervolume against the
/// resolved reference point, and the per-objective bests.
///
/// Always computed — scalarised campaigns report it too (the ranking
/// field records which ordering actually drove survival decisions), so
/// every report exposes the front without re-running the campaign.
#[derive(Debug, Clone)]
pub struct ParetoReport {
    /// The ranking that drove scheduler survival decisions.
    pub ranking: Ranking,
    /// The declared objectives, in vector order.
    pub objectives: Vec<ObjectiveDecl>,
    /// The resolved hypervolume reference point (declared coordinates
    /// verbatim, derived ones from the worst observed values).
    pub reference: Vec<f64>,
    /// Cells on the non-dominated front (rank 0), in cell order.
    pub front: Vec<ParetoPoint>,
    /// Hypervolume of the front against `reference` (minimisation).
    pub hypervolume: f64,
    /// The best (smallest) observed value of each objective.
    pub best: Vec<f64>,
}

/// The campaign's telemetry roll-up, present when the campaign ran with
/// an enabled [`Telemetry`] handle.
#[derive(Debug, Clone)]
pub struct TelemetrySummary {
    /// Total typed events the campaign emitted.
    pub events_emitted: u64,
    /// `true` when every cell's budget holds exactly what its runs
    /// charged, so the cells' spends sum to the report's `spent +
    /// overshoot`. Always expected to hold — every charge of a run goes
    /// to its cell's budget; a `false` here means the accounting itself
    /// is broken.
    pub budget_invariant_ok: bool,
    /// Every registered metric at campaign end: cache, budget, scheduler,
    /// backend and engine counters, plus latency histograms.
    pub metrics: MetricsSnapshot,
}

/// Everything a finished [`Campaign`] reports.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: String,
    /// Per-(benchmark, agent) cells, benchmark-major in input order.
    pub cells: Vec<CellReport>,
    /// One portfolio ranking per benchmark: every (agent, seed) run as an
    /// entry, scored and ranked exactly like the legacy portfolio race.
    pub portfolios: Vec<PortfolioOutcome>,
    /// Global budget accounting.
    pub budget: BudgetReport,
    /// Per-round budget allocations (empty for unbounded single-round
    /// campaigns).
    pub allocations: Vec<AllocationReport>,
    /// The multi-objective summary: final front, hypervolume and
    /// per-objective bests (always computed, whatever the ranking).
    pub pareto: ParetoReport,
    /// Telemetry roll-up (`None` when the campaign ran without an enabled
    /// [`Telemetry`] handle — the default).
    pub telemetry: Option<TelemetrySummary>,
}

impl CampaignReport {
    /// The best run across all benchmarks: `(portfolio index, entry)` of
    /// the highest solution score.
    pub fn best_overall(&self) -> Option<(usize, &PortfolioEntry)> {
        self.portfolios
            .iter()
            .enumerate()
            .map(|(i, p)| (i, p.winner()))
            .max_by(|(_, a), (_, b)| a.score.total_cmp(&b.score))
    }

    /// The cell of a given benchmark and agent, if present.
    pub fn cell(&self, benchmark: &str, agent: AgentKind) -> Option<&CellReport> {
        self.cells
            .iter()
            .find(|c| c.benchmark == benchmark && c.agent == agent)
    }

    /// The report as a machine-readable JSON document: per-cell sweep
    /// statistics, per-benchmark portfolio rankings, the
    /// budget accounting and every per-round/rung/bracket
    /// [`AllocationReport`]. Serialised over [`crate::json::Json`], so
    /// the output is plain text any JSON consumer can read — `repro run
    /// --report-json FILE` writes exactly this document.
    ///
    /// ```
    /// use ax_dse::campaign::{run_spec, BenchmarkSpec, ExperimentSpec, SeedRange};
    /// use ax_dse::explore::{AgentKind, ExploreOptions};
    ///
    /// let spec = ExperimentSpec::new("machine-readable")
    ///     .benchmark(BenchmarkSpec::Dot(8))
    ///     .agent(AgentKind::QLearning)
    ///     .seeds(SeedRange::new(0, 2))
    ///     .explore(ExploreOptions { max_steps: 100, ..Default::default() })
    ///     .budget(400);
    /// let report = run_spec(&spec, Default::default()).unwrap();
    /// let doc = report.to_json();
    /// assert_eq!(doc.get("name").unwrap().as_str().unwrap(), "machine-readable");
    /// assert_eq!(doc.get("cells").unwrap().as_arr().unwrap().len(), 1);
    /// assert_eq!(doc.get("budget").unwrap().get("cap").unwrap().as_u64().unwrap(), 400);
    /// // One allocation round was recorded, and the text form is valid JSON.
    /// assert_eq!(doc.get("allocations").unwrap().as_arr().unwrap().len(), 1);
    /// let text = report.to_json_string();
    /// assert!(ax_dse::json::Json::parse(&text).is_ok());
    /// ```
    pub fn to_json(&self) -> Json {
        fn stat(s: &crate::sweep::SweepStat) -> Json {
            Json::obj(vec![
                ("mean", Json::f64(s.mean)),
                ("std_dev", Json::f64(s.std_dev)),
                ("min", Json::f64(s.min)),
                ("max", Json::f64(s.max)),
            ])
        }
        fn metrics_json(m: &MetricsSnapshot) -> Json {
            let counters = m
                .counters
                .iter()
                .map(|(n, v)| (n.as_str(), Json::u64(*v)))
                .collect();
            let gauges = m
                .gauges
                .iter()
                .map(|(n, v)| (n.as_str(), Json::f64(*v)))
                .collect();
            let histograms = m
                .histograms
                .iter()
                .map(|(n, h)| {
                    (
                        n.as_str(),
                        Json::obj(vec![
                            ("count", Json::u64(h.count)),
                            ("sum", Json::u64(h.sum)),
                            (
                                "buckets",
                                Json::Arr(
                                    h.buckets
                                        .iter()
                                        .map(|&(bits, n)| {
                                            Json::Arr(vec![
                                                Json::u64(u64::from(bits)),
                                                Json::u64(n),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ]),
                    )
                })
                .collect();
            Json::obj(vec![
                ("counters", Json::obj(counters)),
                ("gauges", Json::obj(gauges)),
                ("histograms", Json::obj(histograms)),
            ])
        }
        let cells = self
            .cells
            .iter()
            .map(|c| {
                let s = &c.summary;
                let mut fields = vec![("benchmark", Json::str(&c.benchmark))];
                if let Some(iseed) = c.input_seed {
                    fields.push(("input_seed", Json::u64(iseed)));
                }
                fields.extend(vec![
                    ("agent", Json::str(c.agent.name())),
                    ("seeds", Json::u64(s.seeds)),
                    ("reached_target", Json::u64(s.reached_target)),
                    ("terminated", Json::u64(s.terminated)),
                    ("stop_step", stat(&s.stop_step)),
                    ("solution_power", stat(&s.solution_power)),
                    ("solution_accuracy", stat(&s.solution_accuracy)),
                    ("feasible_solutions", Json::f64(s.feasible_solutions)),
                    ("evaluations", Json::u64(c.evaluations)),
                    ("stopped_runs", Json::u64(c.stopped_runs)),
                    ("best_score", Json::f64(c.best_score)),
                ]);
                Json::obj(fields)
            })
            .collect();
        let portfolios = self
            .portfolios
            .iter()
            .map(|p| {
                let mut fields = vec![("benchmark", Json::str(&p.benchmark))];
                if let Some(iseed) = p.input_seed {
                    fields.push(("input_seed", Json::u64(iseed)));
                }
                fields.extend(vec![
                    ("best", Json::u64(p.best as u64)),
                    ("shared_distinct", Json::u64(p.shared_distinct)),
                    (
                        "entries",
                        Json::Arr(
                            p.entries
                                .iter()
                                .map(|e| {
                                    Json::obj(vec![
                                        ("agent", Json::str(e.kind.name())),
                                        ("seed", Json::u64(e.seed)),
                                        ("score", Json::f64(e.score)),
                                        ("qor_error", Json::f64(e.qor_error)),
                                        ("op_cost", Json::f64(e.op_cost)),
                                        ("feasible", Json::Bool(e.feasible)),
                                        ("stop_reason", Json::str(format!("{:?}", e.stop_reason))),
                                        ("steps", Json::u64(e.summary.steps)),
                                        ("distinct_configs", Json::u64(e.distinct_configs)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]);
                Json::obj(fields)
            })
            .collect();
        let allocations = self
            .allocations
            .iter()
            .map(|a| {
                Json::obj(vec![
                    ("round", Json::u64(u64::from(a.round))),
                    ("bracket", Json::u64(u64::from(a.bracket))),
                    (
                        "cells",
                        Json::Arr(
                            a.cells
                                .iter()
                                .map(|c| {
                                    let mut fields = vec![("benchmark", Json::str(&c.benchmark))];
                                    if let Some(iseed) = c.input_seed {
                                        fields.push(("input_seed", Json::u64(iseed)));
                                    }
                                    fields.extend(vec![
                                        ("agent", Json::str(c.agent.name())),
                                        ("granted", Json::u64(c.granted)),
                                        ("spent", Json::u64(c.spent)),
                                        ("best_score", Json::f64(c.best_score)),
                                        ("survived", Json::Bool(c.survived)),
                                    ]);
                                    Json::obj(fields)
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let front = self
            .pareto
            .front
            .iter()
            .map(|p| {
                let mut fields = vec![
                    ("cell", Json::u64(p.cell as u64)),
                    ("benchmark", Json::str(&p.benchmark)),
                ];
                if let Some(iseed) = p.input_seed {
                    fields.push(("input_seed", Json::u64(iseed)));
                }
                fields.extend(vec![
                    ("agent", Json::str(p.agent.name())),
                    (
                        "values",
                        Json::Arr(p.values.iter().map(|&v| Json::f64(v)).collect()),
                    ),
                    ("score", Json::f64(p.score)),
                ]);
                Json::obj(fields)
            })
            .collect();
        let pareto = Json::obj(vec![
            ("ranking", Json::str(self.pareto.ranking.name())),
            (
                "objectives",
                Json::Arr(
                    self.pareto
                        .objectives
                        .iter()
                        .map(|&o| crate::campaign::spec::objective_to_json(o))
                        .collect(),
                ),
            ),
            (
                "reference",
                Json::Arr(
                    self.pareto
                        .reference
                        .iter()
                        .map(|&v| Json::f64(v))
                        .collect(),
                ),
            ),
            ("front", Json::Arr(front)),
            ("hypervolume", Json::f64(self.pareto.hypervolume)),
            (
                "best",
                Json::Arr(self.pareto.best.iter().map(|&v| Json::f64(v)).collect()),
            ),
        ]);
        Json::obj(vec![
            // Schema tag: lets byte-parity checks (serve vs. local repro)
            // distinguish deliberate schema growth from drift. Bump when
            // the document shape changes.
            ("report_version", Json::u64(3)),
            ("name", Json::str(&self.name)),
            ("cells", Json::Arr(cells)),
            ("portfolios", Json::Arr(portfolios)),
            (
                "budget",
                Json::obj(vec![
                    ("cap", self.budget.cap.map_or(Json::Null, Json::u64)),
                    ("spent", Json::u64(self.budget.spent)),
                    ("overshoot", Json::u64(self.budget.overshoot)),
                    ("stopped_runs", Json::u64(self.budget.stopped_runs)),
                ]),
            ),
            ("allocations", Json::Arr(allocations)),
            ("pareto", pareto),
            (
                "telemetry",
                match &self.telemetry {
                    None => Json::Null,
                    Some(t) => Json::obj(vec![
                        ("events_emitted", Json::u64(t.events_emitted)),
                        ("budget_invariant_ok", Json::Bool(t.budget_invariant_ok)),
                        ("metrics", metrics_json(&t.metrics)),
                    ]),
                },
            ),
        ])
    }

    /// [`CampaignReport::to_json`] as pretty-printed text (the stable
    /// on-disk form).
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }
}

/// One exploration against a prepared [`EvalContext`] — the single-run
/// primitive behind the examples, benches and tests that explore one
/// benchmark outside a campaign. Runs with the context's exact evaluator;
/// use [`explore_backend`] directly for other backends.
pub fn explore(ctx: &EvalContext, opts: &ExploreOptions, kind: AgentKind) -> ExplorationOutcome {
    explore_backend(ctx.evaluator(), ctx.library(), ctx.benchmark(), opts, kind)
}

/// The driver of one [`ExperimentSpec`].
///
/// A campaign is a grid — benchmarks × agent roster × seed range —
/// executed concurrently over per-benchmark shared-cache contexts, with an
/// optional **evaluation budget** that a [`BudgetPolicy`] grants to the
/// grid's cells, any [`BackendProvider`] supplying the evaluation
/// backends, and [`Observer`] hooks for progress streaming. Its report is
/// the same on any thread count, budgeted or not. It is the one
/// entry point for sweeps and races: a 1-benchmark × 1-agent × N-seed
/// spec is a seed sweep, a 1 × M × 1 spec is a portfolio race, and the
/// multi-benchmark × multi-agent × budgeted case is the grid neither of
/// those can express.
///
/// The spec is the whole configuration; a `Campaign` adds only a shared
/// cache and telemetry. [`run_spec`](crate::campaign::run_spec) builds
/// the spec's library and benchmarks itself and takes every attachment
/// (observer and control too) as one [`RunSpecOptions`]; `from_spec`
/// serves callers that already hold the library and benchmarks.
///
/// ```
/// use ax_dse::campaign::{BenchmarkSpec, Campaign, ExperimentSpec, SeedRange};
/// use ax_dse::explore::{AgentKind, ExploreOptions};
///
/// let spec = ExperimentSpec::new("quick")
///     .benchmark(BenchmarkSpec::Dot(8))
///     .agent(AgentKind::QLearning)
///     .seeds(SeedRange::new(0, 2))
///     .explore(ExploreOptions { max_steps: 120, ..Default::default() });
/// let (lib, workloads) = (spec.library.build(), spec.build_workloads());
/// let report = Campaign::from_spec(&lib, &spec, &workloads).run().unwrap();
/// assert_eq!(report.cells.len(), 1);
/// assert_eq!(report.cells[0].summary.seeds, 2);
/// ```
pub struct Campaign<'a> {
    pub(super) lib: &'a OperatorLibrary,
    pub(super) spec: &'a ExperimentSpec,
    /// The spec's benchmarks, built in its order.
    pub(super) workloads: &'a [Box<dyn Workload>],
    pub(super) opts: RunSpecOptions<'a>,
}

impl<'a> Campaign<'a> {
    /// A campaign running `spec` over `lib` and the workloads built from
    /// it ([`ExperimentSpec::build_workloads`]), with nothing attached.
    ///
    /// # Panics
    ///
    /// Panics if `workloads` does not match the spec's benchmark list.
    pub fn from_spec(
        lib: &'a OperatorLibrary,
        spec: &'a ExperimentSpec,
        workloads: &'a [Box<dyn Workload>],
    ) -> Self {
        assert_eq!(
            workloads.len(),
            spec.benchmarks.len(),
            "workloads must be built from the spec's benchmark list"
        );
        Self {
            lib,
            spec,
            workloads,
            opts: RunSpecOptions::default(),
        }
    }

    /// Shares (and fills) the given design cache instead of a fresh one —
    /// e.g. one loaded with [`SharedCache::load`], so repeated runs of the
    /// same spec skip re-evaluation across processes.
    #[must_use]
    pub fn shared_cache(mut self, cache: Arc<SharedCache>) -> Self {
        self.opts.cache = Some(cache);
        self
    }

    /// Records metrics and typed events into `telemetry` (a cheap shared
    /// handle — clone it to read events and snapshots afterwards). The
    /// default is [`Telemetry::disabled`]: no event is constructed, no
    /// metric registered, and the run's outputs are byte-identical to a
    /// campaign without telemetry.
    #[must_use]
    pub fn telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.opts.telemetry = telemetry.clone();
        self
    }

    /// The attached observer, or the do-nothing one.
    fn observer(&self) -> &'a dyn Observer {
        self.opts.observer.unwrap_or(&NullObserver)
    }

    /// `true` once the campaign should stop scheduling further work: its
    /// control was cancelled.
    fn interrupted(&self) -> bool {
        self.opts.control.as_ref().is_some_and(|c| c.is_cancelled())
    }

    /// Emits a typed event to the telemetry handle and the observer.
    /// `kind` is a closure so the disabled default pays one branch and
    /// never constructs the event — the NullObserver path stays
    /// byte-identical to a campaign without telemetry.
    fn emit(&self, source: u32, kind: impl FnOnce() -> EventKind) {
        let telemetry = &self.opts.telemetry;
        if telemetry.enabled() || self.observer().wants_events() {
            let event = telemetry.emit(source, kind());
            self.observer().on_event(&event);
        }
    }

    /// Validates the spec, then runs it with exact evaluation on the
    /// engine its backend names: `"exact"` uses the threaded-code
    /// compiled engine, `"exact-interpreted"` the interpreter reference
    /// path — same results bit for bit.
    ///
    /// # Errors
    ///
    /// Fails on a spec [`ExperimentSpec::validate`] rejects, or a
    /// benchmark that cannot be prepared.
    pub fn run(&self) -> Result<CampaignReport, RunSpecError> {
        self.spec.validate()?;
        Ok(self.run_valid()?)
    }

    /// [`Campaign::run`] on a spec already validated.
    pub(super) fn run_valid(&self) -> Result<CampaignReport, VmError> {
        match self.spec.backend {
            BackendSpec::Exact => self.execute(&ExactProvider),
            BackendSpec::ExactInterpreted => self.execute(&InterpretedProvider),
        }
    }

    /// Validates the spec, then runs it through an arbitrary
    /// [`BackendProvider`].
    ///
    /// The spec's budget is granted to per-cell budgets (a
    /// [`CellLedger`]); every run charges its cell's budget and pauses
    /// cooperatively at a step boundary when it runs dry. The campaign
    /// cap binds when budget is granted: each grant comes out of what the
    /// cells have not spent, so the cells overshoot the cap by at most one
    /// step's designs per run. The [`BudgetPolicy`] is a plan of rung
    /// ladders that one engine runs, granting each rung and ranking cells
    /// on a [`RungLedger`]. The runs are [`ResumableExploration`]s, so
    /// pausing at a rung boundary changes nothing about a run's
    /// trajectory.
    ///
    /// # Errors
    ///
    /// Fails on a spec [`ExperimentSpec::validate`] rejects (an empty
    /// grid, or a budget policy that does not fit it), or a benchmark that
    /// cannot be prepared.
    pub fn run_with<P: BackendProvider>(
        &self,
        provider: &P,
    ) -> Result<CampaignReport, RunSpecError> {
        self.spec.validate()?;
        Ok(self.execute(provider)?)
    }

    /// Runs the validated spec through `provider`.
    fn execute<P: BackendProvider>(&self, provider: &P) -> Result<CampaignReport, VmError> {
        // The input-seed axis: explicit seeds multiply the grid; the
        // empty default collapses to the single implicit seed, keeping
        // every pre-axis campaign byte-identical.
        let input_seeds: Vec<u64> = if self.spec.input_seeds.is_empty() {
            vec![self.spec.explore.input_seed]
        } else {
            self.spec.input_seeds.clone()
        };
        let explicit_seeds = !self.spec.input_seeds.is_empty();
        let n_cells = self.spec.n_cells();
        let total_runs = n_cells as u64 * self.spec.seeds.count;
        self.emit(SOURCE_COORDINATOR, || EventKind::CampaignStart {
            name: self.spec.name.clone(),
            total_runs,
        });

        let lib = Arc::new(self.lib.clone());
        let cache = self.opts.cache.clone().unwrap_or_default();

        // One context per (benchmark, input seed) pair, benchmark-major —
        // with the implicit single-seed default this is exactly the old
        // one-context-per-benchmark loop. Each benchmark's program and
        // compiled skeleton are built once, by its first context; the
        // contexts of its other input seeds derive from that one.
        let mut contexts: Vec<EvalContext> =
            Vec::with_capacity(self.workloads.len() * input_seeds.len());
        for workload in self.workloads {
            let first = contexts.len();
            for &iseed in &input_seeds {
                let ctx = match contexts.get(first) {
                    Some(base) => base.for_input_seed(workload.as_ref(), iseed)?,
                    None => EvalContext::with_cache(
                        workload.as_ref(),
                        Arc::clone(&lib),
                        iseed,
                        Arc::clone(&cache),
                    )?
                    .with_telemetry(&self.opts.telemetry),
                };
                self.emit(SOURCE_COORDINATOR, || EventKind::BenchmarkReady {
                    benchmark: ctx.benchmark().to_owned(),
                });
                contexts.push(ctx);
            }
        }

        let ledger = CellLedger::new(self.spec.budget, n_cells);

        // One resumable run per grid point, benchmark-major / agent /
        // seed — the order every report slice below relies on. Starting a
        // run evaluates nothing, so building the whole grid up front is
        // free; runs keep no per-step record, only the fixed-size fold the
        // schedulers and the report read.
        let mut slots: Vec<RunSlot<P::Backend>> = Vec::with_capacity(total_runs as usize);
        for (b, ctx) in contexts.iter().enumerate() {
            for (a, &kind) in self.spec.agents.iter().enumerate() {
                let cell = b * self.spec.agents.len() + a;
                for seed in self.spec.seeds.iter() {
                    let run_opts = ExploreOptions {
                        seed,
                        input_seed: ctx.input_seed(),
                        ..self.spec.explore
                    };
                    let backend =
                        MeteredBackend::new(provider.spawn(ctx), Arc::clone(ledger.cell(cell)));
                    slots.push(RunSlot {
                        cell,
                        index: slots.len(),
                        kind,
                        seed,
                        run: ResumableExploration::start_unrecorded(
                            backend,
                            ctx.benchmark(),
                            &run_opts,
                            kind,
                        ),
                        notified: false,
                    });
                }
            }
        }

        let mut cell_best = vec![DesignObjectives::none(); n_cells];
        let allocations = self.run_plan(&mut slots, &ledger, &contexts, &mut cell_best);

        // Close out runs the scheduler never finished (budget-stopped,
        // eliminated or parked): every run notifies exactly once.
        for slot in slots.iter().filter(|s| !s.notified) {
            self.emit(slot.source(), || slot.completion());
        }
        let outcomes: Vec<ExplorationOutcome<MeteredBackend<P::Backend>>> =
            slots.into_iter().map(|s| s.run.finish(self.lib)).collect();

        // Aggregate the grid back into cells and per-context (benchmark ×
        // input seed) portfolios.
        let seeds_per_cell = self.spec.seeds.count as usize;
        let runs_per_ctx = self.spec.agents.len() * seeds_per_cell;
        let mut cells = Vec::with_capacity(n_cells);
        let mut portfolios = Vec::with_capacity(contexts.len());
        let mut total_stopped = 0u64;
        let mut budget_invariant_ok = true;
        for (b, ctx) in contexts.iter().enumerate() {
            let bench_outcomes = &outcomes[b * runs_per_ctx..(b + 1) * runs_per_ctx];
            let mut entries = Vec::with_capacity(runs_per_ctx);
            for (a, &kind) in self.spec.agents.iter().enumerate() {
                let cell = &bench_outcomes[a * seeds_per_cell..(a + 1) * seeds_per_cell];
                let summary = summarize_outcomes(ctx.benchmark().to_owned(), cell);
                let mut evaluations = 0;
                let mut stopped = 0;
                for outcome in cell {
                    evaluations += outcome.evaluator.charged();
                    if outcome.stop_reason == StopReason::Stopped {
                        stopped += 1;
                    }
                    if self.opts.telemetry.enabled() {
                        for (name, value) in outcome.evaluator.telemetry_counters() {
                            self.opts.telemetry.counter_add(name, value);
                        }
                    }
                }
                total_stopped += stopped;
                let c = b * self.spec.agents.len() + a;
                budget_invariant_ok &= evaluations == ledger.cell(c).spent();
                for (outcome, seed) in cell.iter().zip(self.spec.seeds.iter()) {
                    entries.push(portfolio_entry(kind, seed, outcome));
                }
                cells.push(CellReport {
                    benchmark: ctx.benchmark().to_owned(),
                    input_seed: explicit_seeds.then(|| ctx.input_seed()),
                    agent: kind,
                    summary,
                    evaluations,
                    stopped_runs: stopped,
                    // The rung engine accumulated the lifetime best; no
                    // run advances after its last resume.
                    best_score: cell_best[c].score,
                });
            }
            let mut best = 0;
            for (i, e) in entries.iter().enumerate() {
                if e.score.total_cmp(&entries[best].score).is_gt() {
                    best = i;
                }
            }
            portfolios.push(PortfolioOutcome {
                benchmark: ctx.benchmark().to_owned(),
                input_seed: explicit_seeds.then(|| ctx.input_seed()),
                entries,
                best,
                shared_distinct: ctx.resolved_classes(),
            });
        }

        // The multi-objective summary over the final per-cell bests —
        // computed for every ranking, so scalarised reports expose the
        // front too.
        let points: Vec<Vec<f64>> = (0..n_cells)
            .map(|c| self.objective_point(&cell_best[c], ledger.cell(c).spent()))
            .collect();
        let ranks = pareto::non_dominated_ranks(&points);
        let reference = self.resolve_references(&points);
        let hypervolume = pareto::hypervolume(&points, &reference);
        let front: Vec<ParetoPoint> = (0..n_cells)
            .filter(|&c| ranks[c] == 0)
            .map(|c| {
                let ctx = &contexts[c / self.spec.agents.len()];
                ParetoPoint {
                    cell: c,
                    benchmark: ctx.benchmark().to_owned(),
                    input_seed: explicit_seeds.then(|| ctx.input_seed()),
                    agent: self.spec.agents[c % self.spec.agents.len()],
                    values: points[c].clone(),
                    score: cell_best[c].score,
                }
            })
            .collect();
        let best_coords: Vec<f64> = (0..self.spec.objectives.len())
            .map(|m| points.iter().map(|p| p[m]).fold(f64::INFINITY, f64::min))
            .collect();
        if self.spec.ranking == Ranking::Pareto {
            self.emit(SOURCE_COORDINATOR, || EventKind::ParetoFront {
                front_size: front.len() as u64,
                hypervolume,
            });
        }
        let pareto_summary = ParetoReport {
            ranking: self.spec.ranking,
            objectives: self.spec.objectives.clone(),
            reference,
            front,
            hypervolume,
            best: best_coords,
        };

        let (cap, charged) = (ledger.cap(), ledger.spent());
        let spent = cap.map_or(charged, |cap| charged.min(cap));
        let budget = BudgetReport {
            cap,
            spent,
            overshoot: charged - spent,
            stopped_runs: total_stopped,
        };
        self.emit(SOURCE_COORDINATOR, || EventKind::CampaignComplete {
            spent: budget.spent,
            overshoot: budget.overshoot,
        });

        // Harvest the campaign-wide metrics into the registry and freeze
        // the summary. Everything here reads counters the layers below
        // already maintain — the hot paths were never instrumented with
        // per-evaluation telemetry calls.
        let telemetry = &self.opts.telemetry;
        let summary = telemetry.enabled().then(|| {
            telemetry.counter_add("campaign.runs", total_runs);
            telemetry.counter_add("campaign.cells", n_cells as u64);
            telemetry.counter_add("cache.hits", cache.hits());
            telemetry.counter_add("cache.misses", cache.misses());
            telemetry.counter_add("cache.evictions", cache.evictions());
            telemetry.gauge_set("cache.entries", cache.len() as f64);
            if let Some(cap) = budget.cap {
                telemetry.counter_add("budget.cap", cap);
            }
            telemetry.counter_add("budget.spent", budget.spent);
            telemetry.counter_add("budget.overshoot", budget.overshoot);
            telemetry.counter_add("budget.stopped_runs", total_stopped);
            telemetry.counter_add("budget.cells_spent", charged);
            TelemetrySummary {
                events_emitted: telemetry.events_emitted(),
                budget_invariant_ok,
                metrics: telemetry.snapshot().unwrap_or_default(),
            }
        });

        Ok(CampaignReport {
            name: self.spec.name.clone(),
            cells,
            portfolios,
            budget,
            allocations,
            pareto: pareto_summary,
            telemetry: summary,
        })
    }

    /// The objective vector of one cell, in declaration order (all
    /// minimised): per-design coordinates from the cell's best design,
    /// the evaluation count from the cell's budget ledger.
    fn objective_point(&self, best: &DesignObjectives, evals: u64) -> Vec<f64> {
        self.spec
            .objectives
            .iter()
            .map(|o| match o.kind {
                Objective::QorError => best.qor_error,
                Objective::OpCost => best.op_cost,
                Objective::Evals => evals as f64,
            })
            .collect()
    }

    /// Resolves the hypervolume reference point: declared coordinates
    /// verbatim, the rest derived from the worst observed values (see
    /// [`pareto::resolve_reference`]).
    fn resolve_references(&self, points: &[Vec<f64>]) -> Vec<f64> {
        self.spec
            .objectives
            .iter()
            .enumerate()
            .map(|(m, o)| pareto::resolve_reference(o.reference, points.iter().map(|p| p[m])))
            .collect()
    }

    /// One resume pass over every incomplete run of a `runnable` cell:
    /// each run continues until its cell's budget runs dry or it finishes
    /// naturally. A run that has never stepped always takes its first
    /// step (the cooperative overshoot contract, at most one step per
    /// run), so every run has a last step. Emits the run-paused and
    /// run-complete events, then the budget-exhausted event after the
    /// pass in which the cells' spend reaches the campaign cap.
    ///
    /// A run polls no budget another cell charges, so under a campaign
    /// cap the cells run in parallel and each cell's runs in seed order
    /// on one thread: the pass is the sequential one on any thread count. Without a cap no run polls a shared budget,
    /// so the runs themselves run in parallel.
    fn resume_runnable<B: EvalBackend + Send>(
        &self,
        slots: &mut [RunSlot<B>],
        ledger: &CellLedger,
        runnable: &(dyn Fn(usize) -> bool + Sync),
    ) {
        let observer = self.observer();
        let telemetry = &self.opts.telemetry;
        let control = self.opts.control.as_ref();
        telemetry.counter_add("campaign.resume_passes", 1);
        // `self` holds non-`Sync` workload references, so the parallel
        // closure captures only the pieces it needs.
        let wants_events = telemetry.enabled() || observer.wants_events();
        let emit = |source: u32, kind: EventKind| {
            let event = telemetry.emit(source, kind);
            observer.on_event(&event);
        };
        let resume_one = |slot: &mut RunSlot<B>| {
            if !runnable(slot.cell) || slot.run.is_complete() {
                return;
            }
            let cell_budget = ledger.cell(slot.cell);
            // The full step-boundary stop test: pause/cancel checkpoint,
            // then the one budget this run charges. `checkpoint` blocks
            // while the campaign is paused, so a parked run costs its
            // thread but no evaluations.
            let halted = || {
                control.map(CampaignControl::checkpoint).unwrap_or(false) || cell_budget.exhausted()
            };
            let fresh = slot.run.steps_taken() == 0;
            if fresh || !halted() {
                telemetry.counter_add("campaign.run_resumes", 1);
                slot.run.resume(halted);
            }
            if !wants_events {
                return;
            }
            // A run completes at most once, inside a pass.
            slot.notified = slot.run.is_complete();
            let kind = if slot.notified {
                slot.completion()
            } else {
                EventKind::RunPaused {
                    benchmark: slot.run.benchmark().to_owned(),
                    agent: slot.kind.name().to_owned(),
                    seed: slot.seed,
                    steps: slot.run.steps_taken(),
                }
            };
            emit(slot.source(), kind);
        };
        let was_exhausted = ledger.exhausted();
        if self.spec.parallelism == Some(1) {
            slots.iter_mut().for_each(resume_one);
        } else if ledger.cap().is_some() {
            // A cell's runs are contiguous slots.
            let cells: Vec<&mut [RunSlot<B>]> = slots
                .chunks_mut(self.spec.seeds.count as usize)
                .filter(|runs| runnable(runs[0].cell))
                .collect();
            cells
                .into_par_iter()
                .for_each(|runs| runs.iter_mut().for_each(&resume_one));
        } else {
            slots.par_iter_mut().for_each(resume_one);
        }
        if !was_exhausted && ledger.exhausted() {
            self.emit(SOURCE_COORDINATOR, || EventKind::BudgetExhausted {
                cap: ledger.cap().unwrap_or(0),
            });
        }
    }

    /// The rung engine: runs every ladder of the policy's [`Plan`], in
    /// order, and returns one [`AllocationReport`] per rung (none for
    /// an unbounded campaign).
    ///
    /// Each pass over a ladder (1) grants the rung's share of the
    /// remaining budget, split over the rungs still owed, to the live
    /// cells with runs to resume, (2) resumes every running cell, and
    /// (3) records each running cell on its rung in a [`RungLedger`].
    /// Then (4) a ladder with a barrier ranks the rung, which every live
    /// cell reported on in the same pass: it keeps the top
    /// `keep_fraction`, eliminates the rest and grants the next rung.
    /// Without a barrier (ASHA) only the first rung is granted: each cell
    /// parks on its rung and is promoted as soon as it ranks, with a
    /// quantum from the unallocated budget, so fast cells can be rungs
    /// ahead of slow ones.
    fn run_plan<B: EvalBackend + Send>(
        &self,
        slots: &mut [RunSlot<B>],
        ledger: &CellLedger,
        contexts: &[EvalContext],
        cell_best: &mut [DesignObjectives],
    ) -> Vec<AllocationReport> {
        let plan = Plan::new(&self.spec.policy);
        let n_cells = self.spec.n_cells();
        let mut phase = vec![Phase::Running; n_cells];
        let mut resumable = vec![false; n_cells];
        for slot in slots.iter() {
            resumable[slot.cell] |= !slot.run.is_complete();
        }
        let mut allocations = Vec::new();
        for (b, ladder) in plan.ladders.iter().enumerate() {
            let bracket = b as u64;
            if plan.brackets {
                if self.interrupted() {
                    break;
                }
                self.opts.telemetry.counter_add("sched.brackets", 1);
                self.emit(SOURCE_COORDINATOR, || EventKind::BracketStart { bracket });
                // Every bracket re-opens the whole grid: cells eliminated
                // under an earlier bracket's schedule get another chance
                // under this one.
                for (c, p) in phase.iter_mut().enumerate() {
                    if *p == Phase::Out {
                        self.emit(SOURCE_COORDINATOR, || EventKind::CellRevived {
                            cell: c as u64,
                            bracket,
                        });
                    }
                    *p = Phase::Running;
                }
            }
            let rungs = ladder.rungs;
            let owed_later: usize = plan.ladders[b + 1..].iter().map(|l| l.rungs).sum();
            let mut rung_ledger = RungLedger::new(rungs, ladder.keep_fraction);
            let mut rung = vec![0usize; n_cells];
            let mut table = vec![vec![RungCell::default(); n_cells]; rungs];
            for pass in 0.. {
                // 1. Grant. Each rung draws from what earlier rungs left
                // unspent, and only cells with runs to resume draw, so
                // eliminated and finished cells fund the rest. Without a
                // barrier, later rungs are funded by promotions instead.
                if ladder.barrier {
                    self.opts.telemetry.counter_add("sched.rounds", 1);
                }
                if (ladder.barrier || pass == 0) && ledger.cap().is_some() {
                    // Weighted shares map onto the whole grid.
                    let targets: Vec<usize> = (0..n_cells)
                        .filter(|&c| {
                            phase[c] == Phase::Running && (plan.shares.is_some() || resumable[c])
                        })
                        .collect();
                    if !targets.is_empty() {
                        let owed = (rungs - pass + owed_later) as u64;
                        let pool = ledger.remaining().unwrap_or(0) / owed;
                        let grants = match plan.shares {
                            Some(shares) => CellLedger::split_weighted(pool, shares),
                            None => CellLedger::split_even(pool, targets.len()),
                        };
                        for (&c, &units) in targets.iter().zip(&grants) {
                            ledger.grant(c, units);
                            table[pass][c].granted = units;
                            self.opts.telemetry.counter_add("sched.grants", 1);
                            self.emit(SOURCE_COORDINATOR, || EventKind::BudgetGrant {
                                cell: c as u64,
                                round: pass as u64,
                                bracket,
                                units,
                            });
                        }
                    }
                }
                if !ladder.barrier
                    && !(0..n_cells).any(|c| phase[c] == Phase::Running && resumable[c])
                {
                    break;
                }

                // 2. Resume.
                self.resume_runnable(slots, ledger, &|c| phase[c] == Phase::Running);
                resumable.fill(false);
                for slot in slots.iter() {
                    cell_best[slot.cell].fold(slot.run.best_objectives());
                    resumable[slot.cell] |= !slot.run.is_complete();
                }

                // 3. Record every running cell on its rung, in cell order.
                // After a pass each such cell has spent its grant or
                // finished all its runs.
                let running: Vec<usize> = (0..n_cells)
                    .filter(|&c| phase[c] == Phase::Running)
                    .collect();
                let points: Vec<Vec<f64>> = running
                    .iter()
                    .map(|&c| match self.spec.ranking {
                        Ranking::Scalarised => Vec::new(),
                        Ranking::Pareto => {
                            self.objective_point(&cell_best[c], ledger.cell(c).spent())
                        }
                    })
                    .collect();
                for (&c, point) in running.iter().zip(&points) {
                    let (r, score, spent) = (rung[c], cell_best[c].score, ledger.cell(c).spent());
                    rung_ledger.record_vector(r, c, score, point.clone());
                    table[r][c].spent = Some(spent);
                    table[r][c].score = Some(score);
                    if ladder.barrier {
                        continue;
                    }
                    self.opts.telemetry.counter_add("rung.records", 1);
                    self.emit(SOURCE_COORDINATOR, || EventKind::RungRecorded {
                        cell: c as u64,
                        rung: r as u64,
                        score,
                    });
                    if resumable[c] {
                        phase[c] = Phase::Parked;
                        self.opts.telemetry.counter_add("rung.parks", 1);
                        self.emit(SOURCE_COORDINATOR, || EventKind::CellParked {
                            cell: c as u64,
                            rung: r as u64,
                        });
                    } else {
                        // Finishing all runs naturally clears the rung.
                        table[r][c].survived = true;
                        phase[c] = Phase::Done;
                    }
                }

                // 4. Rank behind the barrier, never after the final rung
                // (at least one cell always survives).
                if ladder.barrier {
                    if pass + 1 < rungs {
                        if self.spec.ranking == Ranking::Pareto {
                            self.emit(SOURCE_COORDINATOR, || {
                                let fronts = pareto::non_dominated_ranks(&points);
                                EventKind::ParetoFront {
                                    front_size: fronts.iter().filter(|&&r| r == 0).count() as u64,
                                    hypervolume: pareto::hypervolume(
                                        &points,
                                        &self.resolve_references(&points),
                                    ),
                                }
                            });
                        }
                        let ranked = rung_ledger.ranked(pass);
                        let kept = rung_ledger.newly_promotable(pass).len();
                        for &c in &ranked[..kept] {
                            rung[c] = pass + 1;
                        }
                        for &c in &ranked[kept..] {
                            phase[c] = Phase::Out;
                            self.opts.telemetry.counter_add("sched.eliminations", 1);
                            self.emit(SOURCE_COORDINATOR, || EventKind::CellEliminated {
                                cell: c as u64,
                                round: pass as u64,
                                bracket,
                            });
                        }
                    }
                    for (c, cell) in table[pass].iter_mut().enumerate() {
                        cell.survived = phase[c] == Phase::Running;
                    }
                    // A cancel or an exhausted server-wide budget ends the
                    // schedule: later rungs would only grant budget no run
                    // can spend, so they are not reported either.
                    if pass + 1 == rungs || self.interrupted() {
                        table.truncate(pass + 1);
                        break;
                    }
                    continue;
                }
                // Promote without a barrier: every rung but the last
                // promotes whoever now ranks in its top keep fraction,
                // the cell that just parked or one that a slow peer's
                // arrival pushed over the growing cut. Quanta come from
                // the budget no cell holds yet, so all grants together
                // never exceed the cap. A promotion that pool cannot fund
                // is not taken: the cell stays parked, and once the cells'
                // spend reaches the cap no cell runs again. The quanta
                // assume the keep fraction thins each rung geometrically.
                let outstanding: u64 = (0..n_cells)
                    .map(|c| {
                        let b = ledger.cell(c);
                        b.cap().unwrap_or(0).saturating_sub(b.spent())
                    })
                    .sum();
                let mut unallocated = ledger.remaining().unwrap_or(0).saturating_sub(outstanding);
                for r in 0..rungs - 1 {
                    let pool = unallocated / (rungs - (r + 1)) as u64;
                    let expected = (n_cells as f64 * powi(ladder.keep_fraction, r as u64 + 1))
                        .ceil()
                        .max(1.0) as u64;
                    for c in rung_ledger.newly_promotable(r) {
                        table[r][c].survived = true;
                        if phase[c] == Phase::Parked && rung[c] == r {
                            let units = (pool / expected).min(unallocated);
                            if units == 0 {
                                continue;
                            }
                            unallocated -= units;
                            rung[c] = r + 1;
                            ledger.grant(c, units);
                            table[r + 1][c].granted += units;
                            phase[c] = Phase::Running;
                            self.opts.telemetry.counter_add("rung.promotions", 1);
                            self.emit(SOURCE_COORDINATOR, || EventKind::RungPromoted {
                                cell: c as u64,
                                rung: (r + 1) as u64,
                                units,
                            });
                        }
                    }
                }
                if self.interrupted() {
                    break;
                }
            }

            if !ladder.barrier {
                // A cell parked below the final rung was never promoted:
                // eliminated. One recorded on the final rung climbed the
                // whole ladder and survives, like every cell of a
                // barrier ladder's final rung.
                for c in 0..n_cells {
                    let last = &mut table[rungs - 1][c];
                    last.survived |= last.score.is_some();
                    if phase[c] == Phase::Parked && rung[c] + 1 < rungs {
                        phase[c] = Phase::Out;
                        self.opts.telemetry.counter_add("sched.eliminations", 1);
                        self.emit(SOURCE_COORDINATOR, || EventKind::CellEliminated {
                            cell: c as u64,
                            round: rung[c] as u64,
                            bracket,
                        });
                    }
                }
            }
            // An unbounded campaign has nothing to allocate. A cell that
            // never reported on a rung shows where it stands at the end.
            if ledger.cap().is_some() {
                allocations.extend(table.iter().enumerate().map(|(r, row)| {
                    AllocationReport {
                        round: r as u32,
                        bracket: b as u32,
                        cells: row
                            .iter()
                            .enumerate()
                            .map(|(c, cell)| {
                                let ctx = &contexts[c / self.spec.agents.len()];
                                CellAllocation {
                                    benchmark: ctx.benchmark().to_owned(),
                                    input_seed: (!self.spec.input_seeds.is_empty())
                                        .then(|| ctx.input_seed()),
                                    agent: self.spec.agents[c % self.spec.agents.len()],
                                    granted: cell.granted,
                                    spent: cell.spent.unwrap_or_else(|| ledger.cell(c).spent()),
                                    best_score: cell.score.unwrap_or(cell_best[c].score),
                                    survived: cell.survived,
                                }
                            })
                            .collect(),
                    }
                }));
            }
        }
        allocations
    }
}

/// A [`BudgetPolicy`] lowered to the rung engine: the ladders it runs, in
/// order, and how their grants split.
struct Plan<'p> {
    ladders: Vec<Ladder>,
    /// Weighted shares of each grant, one per cell (`None` splits evenly).
    shares: Option<&'p [f64]>,
    /// Hyperband: every ladder is a bracket that re-opens the whole grid.
    brackets: bool,
}

/// A ladder of `rungs` budget rungs keeping the top `keep_fraction` of
/// each rung's cells.
struct Ladder {
    rungs: usize,
    keep_fraction: f64,
    /// Rank each rung once every live cell has reported on it (sync
    /// halving), instead of promoting each cell on arrival (ASHA).
    barrier: bool,
}

impl<'p> Plan<'p> {
    fn new(policy: &'p BudgetPolicy) -> Self {
        let ladder = |rungs: u32, keep_fraction, barrier| Ladder {
            rungs: rungs as usize,
            keep_fraction,
            barrier,
        };
        // A single rung is never ranked, so its keep fraction is moot.
        let mut plan = Self {
            ladders: vec![ladder(1, 0.5, true)],
            shares: None,
            brackets: false,
        };
        match policy {
            BudgetPolicy::Uniform => {}
            BudgetPolicy::Weighted(shares) => plan.shares = Some(shares),
            BudgetPolicy::SuccessiveHalving {
                rounds,
                keep_fraction,
            } => {
                plan.ladders = vec![ladder(*rounds, *keep_fraction, true)];
            }
            BudgetPolicy::AsyncHalving {
                rungs,
                keep_fraction,
            } => {
                plan.ladders = vec![ladder(*rungs, *keep_fraction, false)];
            }
            BudgetPolicy::Hyperband { brackets } => {
                plan.ladders = brackets
                    .iter()
                    .map(|b| ladder(b.rounds, b.keep_fraction, true))
                    .collect();
                plan.brackets = true;
            }
        }
        plan
    }
}

/// Where a cell stands on its ladder.
#[derive(Clone, Copy, PartialEq)]
enum Phase {
    /// Admitted to its rung; its runs resume.
    Running,
    /// Waiting at a rung boundary to rank high enough to promote (ASHA).
    Parked,
    /// Every run of the cell finished naturally (ASHA).
    Done,
    /// Eliminated.
    Out,
}

/// One (rung, cell) entry of a ladder's allocation table.
#[derive(Clone, Default)]
struct RungCell {
    granted: u64,
    /// The cell's spend and best score when it reported on the rung.
    spent: Option<u64>,
    score: Option<f64>,
    survived: bool,
}

/// One grid point of a running campaign: the cell it charges, its
/// identity, and the pausable exploration itself.
struct RunSlot<B: EvalBackend + Send> {
    cell: usize,
    /// Grid index (benchmark-major), fixed at construction.
    index: usize,
    kind: AgentKind,
    seed: u64,
    run: ResumableExploration<MeteredBackend<B>>,
    /// Its [`EventKind::RunComplete`] was emitted.
    notified: bool,
}

impl<B: EvalBackend + Send> RunSlot<B> {
    /// The run's event source: its grid index + 1, a schedule-independent
    /// logical id (never a thread id).
    fn source(&self) -> u32 {
        self.index as u32 + 1
    }

    /// The run's [`EventKind::RunComplete`], in whatever state it stopped.
    fn completion(&self) -> EventKind {
        EventKind::RunComplete {
            benchmark: self.run.benchmark().to_owned(),
            agent: self.kind.name().to_owned(),
            seed: self.seed,
            stop: format!("{:?}", self.run.stop_reason()),
            steps: self.run.steps_taken(),
        }
    }
}

/// Builds one portfolio entry from a finished run, with the same
/// feasibility test and scalarisation the legacy `race_portfolio` used.
fn portfolio_entry<B: EvalBackend>(
    kind: AgentKind,
    seed: u64,
    outcome: &ExplorationOutcome<B>,
) -> PortfolioEntry {
    let th = outcome.thresholds;
    let m = outcome.last_step.metrics;
    let feasible =
        m.delta_acc <= th.acc_th && m.delta_power >= th.power_th && m.delta_time >= th.time_th;
    let score = crate::search_adapter::solution_score(
        &m,
        &th,
        outcome.evaluator.precise_power(),
        outcome.evaluator.precise_time(),
    );
    PortfolioEntry {
        kind,
        seed,
        summary: outcome.summary.clone(),
        stop_reason: outcome.stop_reason,
        distinct_configs: outcome.distinct_configs,
        feasible,
        score,
        qor_error: m.delta_acc,
        op_cost: m.power,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::spec::BenchmarkSpec::{Dot, MatMul};
    use crate::campaign::{run_spec, HalvingBracket, SeedRange};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A spec named `name` capping every run at `steps`; add benchmarks
    /// and agents before running.
    fn spec(name: &str, steps: u64) -> ExperimentSpec {
        ExperimentSpec::new(name).explore(ExploreOptions {
            max_steps: steps,
            ..Default::default()
        })
    }

    fn run(spec: &ExperimentSpec) -> CampaignReport {
        run_spec(spec, RunSpecOptions::default()).unwrap()
    }

    /// The 2 benchmarks × 2 agents grid the budget-policy tests share.
    fn grid(name: &str, steps: u64) -> ExperimentSpec {
        spec(name, steps)
            .benchmark(MatMul(4))
            .benchmark(Dot(8))
            .agent(AgentKind::QLearning)
            .agent(AgentKind::Sarsa)
    }

    #[test]
    fn single_cell_campaign_reports_a_sweep() {
        let report = run(&spec("sweep", 120)
            .benchmark(Dot(8))
            .agent(AgentKind::QLearning)
            .seeds(SeedRange::new(0, 3)));
        assert_eq!(report.cells.len(), 1);
        assert_eq!(report.cells[0].summary.seeds, 3);
        assert_eq!(report.portfolios.len(), 1);
        assert_eq!(report.portfolios[0].entries.len(), 3);
        assert!(report.budget.cap.is_none());
        assert!(report.budget.spent > 0, "unbounded budgets still count");
    }

    #[test]
    fn multi_benchmark_campaign_covers_the_grid() {
        let report = run(&spec("grid", 100)
            .benchmark(Dot(8))
            .benchmark(MatMul(4))
            .agent(AgentKind::QLearning)
            .agent(AgentKind::Sarsa)
            .seeds(SeedRange::new(0, 2)));
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.portfolios.len(), 2);
        for p in &report.portfolios {
            assert_eq!(p.entries.len(), 4, "2 agents x 2 seeds");
            assert!(p.shared_distinct > 0);
            assert!(p.best < p.entries.len());
        }
        assert_eq!(
            report
                .cell("dot-8", AgentKind::Sarsa)
                .unwrap()
                .summary
                .seeds,
            2
        );
        assert!(report.best_overall().is_some());
    }

    #[test]
    fn campaign_is_deterministic_without_budget() {
        let det = spec("det", 100)
            .benchmark(Dot(8))
            .agent(AgentKind::QLearning)
            .agent(AgentKind::Sarsa)
            .seeds(SeedRange::new(0, 2));
        let (a, b) = (run(&det), run(&det));
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.summary, cb.summary);
            assert_eq!(ca.evaluations, cb.evaluations);
        }
        assert_eq!(a.budget.spent, b.budget.spent);
        for (pa, pb) in a.portfolios.iter().zip(&b.portfolios) {
            assert_eq!(pa.best, pb.best);
            assert_eq!(pa.entries.len(), pb.entries.len());
        }
    }

    #[test]
    fn sequential_equals_parallel() {
        let par = spec("seq", 120)
            .benchmark(Dot(8))
            .agent(AgentKind::QLearning)
            .seeds(SeedRange::new(0, 4));
        let seq = par.clone().parallelism(1);
        let (par, seq) = (run(&par), run(&seq));
        assert_eq!(par.cells[0].summary, seq.cells[0].summary);
        assert_eq!(par.budget.spent, seq.budget.spent);
    }

    #[test]
    fn global_budget_stops_the_campaign() {
        let report = run(&grid("budgeted", 5_000)
            .seeds(SeedRange::new(0, 2))
            .budget(60));
        assert!(report.budget.exhausted(), "{:?}", report.budget);
        assert_eq!(report.budget.spent, 60, "reported spend clamps to the cap");
        assert!(
            report.budget.stopped_runs > 0,
            "some runs must stop on the budget: {:?}",
            report.budget
        );
        // Cooperative enforcement: each in-flight run may finish the step
        // it was in, so the overshoot is bounded by runs x one step's
        // worth of evaluations (the full action neighbourhood at worst).
        let runs = 8u64;
        let worst_step = 20u64;
        assert!(
            report.budget.overshoot <= runs * worst_step,
            "overshoot must stay cooperative: {}",
            report.budget.overshoot
        );
        assert_eq!(
            report.budget.charged(),
            report.cells.iter().map(|c| c.evaluations).sum::<u64>(),
            "cell charges must roll up to the global total"
        );
        // With a cap set, the single round is recorded: every cell got an
        // even share of the 60-unit cap.
        assert_eq!(report.allocations.len(), 1);
        let alloc = &report.allocations[0];
        assert_eq!(alloc.cells.len(), 4);
        assert!(alloc.cells.iter().all(|c| c.granted == 15 && c.survived));
        assert_eq!(alloc.survivors(), 4);
    }

    #[test]
    fn uniform_with_generous_budget_matches_the_unbounded_path() {
        // The budget-share scheduler with shares that never bind must be
        // byte-identical to the unbounded single-pool campaign.
        let uniform = spec("uniform", 150)
            .benchmark(Dot(8))
            .agent(AgentKind::QLearning)
            .agent(AgentKind::Sarsa)
            .seeds(SeedRange::new(0, 2));
        let unbounded = run(&uniform);
        let capped = run(&uniform.budget(1_000_000).policy(BudgetPolicy::Uniform));
        for (a, b) in unbounded.cells.iter().zip(&capped.cells) {
            assert_eq!(a.summary, b.summary);
            assert_eq!(a.evaluations, b.evaluations);
            assert_eq!(a.best_score, b.best_score);
        }
        assert_eq!(unbounded.budget.spent, capped.budget.spent);
        assert_eq!(capped.budget.overshoot, 0);
        assert!(unbounded.allocations.is_empty());
        assert_eq!(capped.allocations.len(), 1);
    }

    #[test]
    fn weighted_shares_skew_the_split() {
        let report = run(&spec("weighted", 5_000)
            .benchmark(MatMul(4))
            .benchmark(Dot(8))
            .agent(AgentKind::QLearning)
            .budget(60)
            .policy(BudgetPolicy::Weighted(vec![3.0, 1.0])));
        let alloc = &report.allocations[0];
        assert_eq!(alloc.cells[0].granted, 45);
        assert_eq!(alloc.cells[1].granted, 15);
        // The favoured cell really got to spend more.
        assert!(
            report.cells[0].evaluations > report.cells[1].evaluations,
            "{} vs {}",
            report.cells[0].evaluations,
            report.cells[1].evaluations
        );
    }

    #[test]
    fn successive_halving_eliminates_and_reallocates() {
        let report = run(&grid("halving", 5_000)
            .seeds(SeedRange::new(0, 2))
            .budget(120)
            .policy(BudgetPolicy::SuccessiveHalving {
                rounds: 2,
                keep_fraction: 0.5,
            }));
        assert_eq!(report.allocations.len(), 2);
        let (r0, r1) = (&report.allocations[0], &report.allocations[1]);
        // Round 0: all four cells alive, even split of the half-pool.
        assert!(r0.cells.iter().all(|c| c.granted == 15));
        assert_eq!(r0.survivors(), 2, "keep_fraction 0.5 halves four cells");
        // Round 1: only survivors get grants, and they get *more* than a
        // four-way split would give them — the eliminated cells' budget
        // flowed to the leaders.
        for c in &r1.cells {
            if c.survived {
                assert!(c.granted > 15, "survivor grant {} must grow", c.granted);
            } else {
                assert_eq!(c.granted, 0, "eliminated cells get nothing");
            }
        }
        // Elimination kept the best-ranked cells.
        let best_surviving = r0
            .cells
            .iter()
            .filter(|c| c.survived)
            .map(|c| c.best_score)
            .fold(f64::NEG_INFINITY, f64::max);
        let best_eliminated = r0
            .cells
            .iter()
            .filter(|c| !c.survived)
            .map(|c| c.best_score)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(best_surviving >= best_eliminated);
        // The global cap is still the hard ceiling.
        assert!(report.budget.spent <= 120);
        let runs = 8u64;
        assert!(report.budget.overshoot <= runs * 20);
    }

    #[test]
    fn finished_cells_stop_drawing_grants() {
        // Every run completes naturally (tiny step cap) inside round 0 of
        // a 2-round halving campaign with a generous budget: round 1 must
        // grant nothing instead of stranding budget in complete cells.
        let report = run(&spec("finished", 50)
            .benchmark(Dot(8))
            .agent(AgentKind::QLearning)
            .agent(AgentKind::Sarsa)
            .budget(10_000)
            .policy(BudgetPolicy::SuccessiveHalving {
                rounds: 2,
                keep_fraction: 0.5,
            }));
        assert_eq!(report.allocations.len(), 2);
        assert!(
            report.allocations[0].cells.iter().all(|c| c.granted > 0),
            "round 0 funds every fresh cell"
        );
        assert!(
            report.allocations[1].cells.iter().all(|c| c.granted == 0),
            "complete cells draw nothing: {:?}",
            report.allocations[1]
                .cells
                .iter()
                .map(|c| c.granted)
                .collect::<Vec<_>>()
        );
        assert_eq!(report.budget.stopped_runs, 0, "no run was budget-stopped");
    }

    #[test]
    fn successive_halving_is_deterministic() {
        let halving = spec("halving-det", 2_000)
            .benchmark(Dot(8))
            .benchmark(MatMul(4))
            .agent(AgentKind::QLearning)
            .agent(AgentKind::Sarsa)
            .budget(100)
            .policy(BudgetPolicy::SuccessiveHalving {
                rounds: 3,
                keep_fraction: 0.5,
            });
        let (a, b) = (run(&halving), run(&halving));
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.summary, cb.summary);
            assert_eq!(ca.evaluations, cb.evaluations);
        }
        for (ra, rb) in a.allocations.iter().zip(&b.allocations) {
            for (ca, cb) in ra.cells.iter().zip(&rb.cells) {
                assert_eq!(ca.survived, cb.survived);
                assert_eq!(ca.granted, cb.granted);
            }
        }
    }

    #[test]
    fn asha_promotes_without_a_round_barrier() {
        let report = run(&grid("asha", 5_000)
            .seeds(SeedRange::new(0, 2))
            .budget(120)
            .policy(BudgetPolicy::AsyncHalving {
                rungs: 2,
                keep_fraction: 0.5,
            }));
        // One allocation report per rung, every cell admitted to rung 0.
        assert_eq!(report.allocations.len(), 2);
        let (r0, r1) = (&report.allocations[0], &report.allocations[1]);
        assert_eq!(r0.bracket, 0);
        assert!(r0.cells.iter().all(|c| c.granted == 15), "{r0:?}");
        // The async cut: with all four cells reporting, keep 0.5 promotes
        // two of them onto rung 1 — and only promoted cells draw there.
        assert_eq!(r0.survivors(), 2, "{r0:?}");
        for (c0, c1) in r0.cells.iter().zip(&r1.cells) {
            if c0.survived {
                assert!(c1.granted > 0, "promoted cells draw rung 1: {c1:?}");
            } else {
                assert_eq!(c1.granted, 0, "parked cells draw nothing: {c1:?}");
            }
        }
        // Promotion kept the leaders.
        let best_promoted = r0
            .cells
            .iter()
            .filter(|c| c.survived)
            .map(|c| c.best_score)
            .fold(f64::NEG_INFINITY, f64::max);
        let best_parked = r0
            .cells
            .iter()
            .filter(|c| !c.survived)
            .map(|c| c.best_score)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(best_promoted >= best_parked);
        // The global cap stays the hard ceiling.
        assert!(report.budget.spent <= 120);
        assert!(report.budget.overshoot <= 8 * 20);
    }

    #[test]
    fn asha_is_deterministic() {
        let asha = grid("asha-det", 2_000)
            .budget(100)
            .policy(BudgetPolicy::AsyncHalving {
                rungs: 3,
                keep_fraction: 0.5,
            });
        let (a, b) = (run(&asha), run(&asha));
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.summary, cb.summary);
            assert_eq!(ca.evaluations, cb.evaluations);
        }
        for (ra, rb) in a.allocations.iter().zip(&b.allocations) {
            for (ca, cb) in ra.cells.iter().zip(&rb.cells) {
                assert_eq!(ca.survived, cb.survived);
                assert_eq!(ca.granted, cb.granted);
            }
        }
    }

    #[test]
    fn hyperband_sweeps_brackets_and_revives_eliminated_cells() {
        let report = run(&grid("hyperband", 5_000)
            .seeds(SeedRange::new(0, 2))
            .budget(240)
            .policy(BudgetPolicy::Hyperband {
                brackets: vec![HalvingBracket::new(2, 0.5), HalvingBracket::new(1, 0.5)],
            }));
        // One report per round of every bracket, tagged with its bracket.
        assert_eq!(report.allocations.len(), 3);
        assert_eq!(
            report
                .allocations
                .iter()
                .map(|a| (a.bracket, a.round))
                .collect::<Vec<_>>(),
            vec![(0, 0), (0, 1), (1, 0)]
        );
        // Bracket 0 round 0 splits a (240 / 3 rounds)-pool four ways.
        assert!(report.allocations[0].cells.iter().all(|c| c.granted == 20));
        assert_eq!(report.allocations[0].survivors(), 2);
        // Bracket 1 re-opens the grid: every cell is alive again, and
        // cells eliminated in bracket 0 may draw grants once more (they
        // still have budget-paused runs to resume).
        let b1 = &report.allocations[2];
        assert_eq!(b1.survivors(), b1.cells.len(), "single-round bracket");
        let revived = report.allocations[1]
            .cells
            .iter()
            .zip(&b1.cells)
            .any(|(old, new)| !old.survived && new.granted > 0);
        assert!(revived, "{:?}", report.allocations);
        assert!(report.budget.spent <= 240);
    }

    #[test]
    fn degenerate_halving_policy_is_rejected_before_running() {
        let bad = ExperimentSpec::new("bad")
            .benchmark(Dot(8))
            .agent(AgentKind::QLearning)
            .budget(100)
            .policy(BudgetPolicy::SuccessiveHalving {
                rounds: 2,
                keep_fraction: 1.5,
            });
        let err = run_spec(&bad, RunSpecOptions::default()).unwrap_err();
        assert!(
            matches!(&err, RunSpecError::Spec(e) if e.0.contains("keep_fraction")),
            "{err}"
        );
    }

    #[test]
    fn observer_sees_every_run() {
        #[derive(Default)]
        struct Counting {
            starts: AtomicU64,
            benches: AtomicU64,
            runs: AtomicU64,
            completes: AtomicU64,
        }
        impl Observer for Counting {
            fn on_event(&self, event: &Event) {
                match &event.kind {
                    EventKind::CampaignStart { total_runs, .. } => {
                        self.starts.fetch_add(*total_runs, Ordering::Relaxed);
                    }
                    EventKind::BenchmarkReady { .. } => {
                        self.benches.fetch_add(1, Ordering::Relaxed);
                    }
                    EventKind::RunComplete { .. } => {
                        self.runs.fetch_add(1, Ordering::Relaxed);
                    }
                    EventKind::CampaignComplete { .. } => {
                        self.completes.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {}
                }
            }

            fn wants_events(&self) -> bool {
                true
            }
        }
        let counting = Counting::default();
        let observed = spec("observed", 80)
            .benchmark(Dot(8))
            .agent(AgentKind::QLearning)
            .agent(AgentKind::Sarsa)
            .seeds(SeedRange::new(0, 2));
        let opts = RunSpecOptions {
            observer: Some(&counting),
            ..Default::default()
        };
        run_spec(&observed, opts).unwrap();
        assert_eq!(counting.starts.load(Ordering::Relaxed), 4);
        assert_eq!(counting.benches.load(Ordering::Relaxed), 1);
        assert_eq!(counting.runs.load(Ordering::Relaxed), 4);
        assert_eq!(counting.completes.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn from_spec_builds_the_same_campaign() {
        let spec = spec("spec-driven", 100)
            .benchmark(Dot(8))
            .agent(AgentKind::QLearning)
            .seeds(SeedRange::new(0, 2))
            .backend(BackendSpec::Exact);
        let (lib, workloads) = (spec.library.build(), spec.build_workloads());
        let from_spec = Campaign::from_spec(&lib, &spec, &workloads).run().unwrap();
        assert_eq!(from_spec.to_json_string(), run(&spec).to_json_string());
    }

    #[test]
    fn from_spec_validates_before_running() {
        // The path callers holding their own library and workloads take:
        // a spec `validate` rejects is a typed error there too.
        let spec = spec("repeated-input-seed", 100)
            .benchmark(Dot(8))
            .agent(AgentKind::QLearning)
            .input_seed(42)
            .input_seed(42);
        let (lib, workloads) = (spec.library.build(), spec.build_workloads());
        let campaign = Campaign::from_spec(&lib, &spec, &workloads);
        assert!(matches!(campaign.run(), Err(RunSpecError::Spec(_))));
        assert!(matches!(
            campaign.run_with(&ExactProvider),
            Err(RunSpecError::Spec(_))
        ));
    }

    #[test]
    fn input_seeds_axis_expands_the_grid_and_labels_reports() {
        let report = run(&spec("iseeds", 100)
            .benchmark(Dot(8))
            .agent(AgentKind::QLearning)
            .input_seed(42)
            .input_seed(43));
        assert_eq!(report.cells.len(), 2, "one cell per input seed");
        assert_eq!(report.portfolios.len(), 2);
        assert_eq!(report.cells[0].input_seed, Some(42));
        assert_eq!(report.cells[1].input_seed, Some(43));
        assert_eq!(report.portfolios[1].input_seed, Some(43));
        // The implicit default path carries no label — and the explicit
        // cell for the default seed (42) reproduces it bit for bit.
        let default = run(&spec("iseeds-default", 100)
            .benchmark(Dot(8))
            .agent(AgentKind::QLearning));
        assert_eq!(default.cells[0].input_seed, None);
        assert_eq!(default.portfolios[0].input_seed, None);
        assert_eq!(report.cells[0].summary, default.cells[0].summary);
    }

    #[test]
    fn every_report_carries_the_pareto_section() {
        let report = run(&spec("front", 120)
            .benchmark(Dot(8))
            .agent(AgentKind::QLearning)
            .agent(AgentKind::Sarsa));
        let p = &report.pareto;
        assert_eq!(p.ranking, Ranking::Scalarised, "the default ranking");
        assert_eq!(p.objectives, ObjectiveDecl::default_set());
        assert!(!p.front.is_empty(), "a finished grid always has a front");
        assert!(p.hypervolume.is_finite() && p.hypervolume >= 0.0);
        assert_eq!(p.reference.len(), p.objectives.len());
        for a in &p.front {
            assert_eq!(a.values.len(), p.objectives.len());
            for b in &p.front {
                assert!(
                    !pareto::dominates(&a.values, &b.values),
                    "front members must not dominate each other"
                );
            }
        }
        let doc = report.to_json();
        assert_eq!(doc.get("report_version").unwrap().as_u64().unwrap(), 3);
        let front = doc
            .get("pareto")
            .unwrap()
            .get("front")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(front.len(), p.front.len());
        assert!(doc.get("pareto").unwrap().get("hypervolume").is_some());
    }

    /// Halving or ASHA over [`grid`], ranked by the Pareto order of QoR
    /// error and op cost.
    fn pareto_grid(name: &str, policy: BudgetPolicy) -> ExperimentSpec {
        grid(name, 5_000)
            .budget(120)
            .policy(policy)
            .ranking(Ranking::Pareto)
            .objectives(vec![
                ObjectiveDecl::new(Objective::QorError),
                ObjectiveDecl::new(Objective::OpCost),
            ])
    }

    #[test]
    fn pareto_ranked_halving_survives_by_front_membership() {
        let halving = pareto_grid(
            "pareto-halving",
            BudgetPolicy::SuccessiveHalving {
                rounds: 2,
                keep_fraction: 0.5,
            },
        );
        let report = run(&halving);
        assert_eq!(report.pareto.ranking, Ranking::Pareto);
        assert_eq!(report.pareto.reference.len(), 2);
        assert_eq!(report.allocations.len(), 2);
        assert_eq!(
            report.allocations[0].survivors(),
            2,
            "keep 0.5 halves four cells under the Pareto order too"
        );
        assert!(!report.pareto.front.is_empty());
        // The Pareto schedule replays deterministically.
        let again = run(&halving);
        for (ra, rb) in report.allocations.iter().zip(&again.allocations) {
            for (ca, cb) in ra.cells.iter().zip(&rb.cells) {
                assert_eq!(ca.survived, cb.survived);
                assert_eq!(ca.granted, cb.granted);
            }
        }
        assert_eq!(report.pareto.front.len(), again.pareto.front.len());
    }

    #[test]
    fn pareto_ranked_asha_promotes_front_cells() {
        let report = run(&pareto_grid(
            "pareto-asha",
            BudgetPolicy::AsyncHalving {
                rungs: 2,
                keep_fraction: 0.5,
            },
        ));
        assert_eq!(report.allocations.len(), 2);
        assert!(report.allocations[0].survivors() >= 1);
        assert!(!report.pareto.front.is_empty());
        assert!(report.budget.spent <= 120);
    }

    #[test]
    fn empty_campaign_rejected() {
        let empty = ExperimentSpec::new("empty").agent(AgentKind::QLearning);
        let err = run_spec(&empty, RunSpecOptions::default()).unwrap_err();
        assert!(
            matches!(&err, RunSpecError::Spec(e) if e.0.contains("at least one benchmark")),
            "{err}"
        );
    }
}
