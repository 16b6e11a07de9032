//! The three campaign workloads: the specs each one derives from `--seed`,
//! its set-up, one campaign, and the checks that its outputs are correct.

use ax_dse::campaign::{Campaign, CampaignReport, ExperimentSpec};
use ax_dse::{EvalContext, ExecEngine, SharedCache};
use ax_operators::OperatorLibrary;
use ax_workloads::Workload;
use std::sync::Arc;

/// Which campaigns a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A fresh design cache per campaign: every distinct design is compiled
    /// and executed.
    ColdGrid,
    /// The same grid against a cache that already holds every design the
    /// campaign visits: nothing executes.
    WarmReplay,
    /// Asynchronous successive halving under a binding evaluation budget,
    /// with a fresh cache per campaign.
    BudgetedAsha,
}

/// Independent campaigns a run cycles through, each from its own derived
/// seed. How much work one seed's campaign does varies with its inputs
/// and, under ASHA, with promotion decisions that couple its cells; the
/// mean over several independent campaigns varies far less from seed to
/// seed.
const CAMPAIGNS: u64 = 4;
/// Benchmark input seeds per uniform-grid campaign.
const GRID_INPUT_SEEDS: usize = 2;
/// Agent seeds per (benchmark, input seed, agent) cell of the uniform grids.
const AGENT_SEEDS: u64 = 4;
/// Step cap of every run on the uniform grids. Many short runs rather than
/// a few long ones: how far one agent seed gets before its run stops
/// varies, and more runs average that out.
const GRID_STEPS: u64 = 500;
/// Benchmark input seeds per ASHA campaign.
const ASHA_INPUT_SEEDS: usize = 4;
/// Agent seeds per cell on the ASHA grid: more runs per cell steady the
/// cell scores ASHA promotes by.
const ASHA_AGENT_SEEDS: u64 = 8;
/// Step cap of every run on the ASHA grid.
const ASHA_STEPS: u64 = 500;
/// The ASHA grid's global budget in distinct designs, about half of what
/// its runs would charge unbounded, so the cap binds.
const ASHA_BUDGET: u64 = 8000;

impl Kind {
    const ALL: [Kind; 3] = [Kind::ColdGrid, Kind::WarmReplay, Kind::BudgetedAsha];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ColdGrid => "cold-grid",
            Kind::WarmReplay => "warm-replay",
            Kind::BudgetedAsha => "budgeted-asha",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Every workload name, for the usage message.
    pub fn names() -> String {
        Kind::ALL.map(Kind::name).join("|")
    }

    /// The campaign specs this workload runs for `seed`, as the JSON text a
    /// user would hand to `repro run`.
    ///
    /// The seed picks the agent seeds and the benchmark input seeds; the
    /// grid's shape (benchmarks, agents, seed and input-seed counts, step
    /// cap, policy) is fixed, so every seed asks for comparable work.
    /// Campaigns run sequentially (`"parallelism": 1`): their reports are
    /// then deterministic and can be compared byte for byte, and timings do
    /// not depend on how many cores the machine lends the process.
    pub fn specs(self, seed: u64) -> Vec<String> {
        (0..CAMPAIGNS)
            .map(|c| {
                self.spec(splitmix(
                    seed.wrapping_add(c.wrapping_mul(0x51_7CC1_B727_220A)),
                ))
            })
            .collect()
    }

    fn spec(self, seed: u64) -> String {
        let (n_inputs, agent_seeds, max_steps, policy) = match self {
            Kind::ColdGrid | Kind::WarmReplay => {
                (GRID_INPUT_SEEDS, AGENT_SEEDS, GRID_STEPS, String::new())
            }
            Kind::BudgetedAsha => (
                ASHA_INPUT_SEEDS,
                ASHA_AGENT_SEEDS,
                ASHA_STEPS,
                format!(
                    r#", "budget": {ASHA_BUDGET}, "policy": {{"asha": {{"rungs": 3, "keep_fraction": 0.5}}}}"#
                ),
            ),
        };
        let agent_seed = splitmix(seed) % 1_000_000;
        let mut input_seeds: Vec<u64> = Vec::with_capacity(n_inputs);
        let mut k: u64 = 1;
        while input_seeds.len() < n_inputs {
            let s = splitmix(seed ^ k.wrapping_mul(0xA076_1D64_78BD_642F)) % 1_000_000;
            if !input_seeds.contains(&s) {
                input_seeds.push(s);
            }
            k += 1;
        }
        let input_seeds: Vec<String> = input_seeds.iter().map(u64::to_string).collect();
        format!(
            r#"{{"name": "{name}", "benchmarks": [{{"kind": "matmul", "size": 10}}, {{"kind": "fir", "size": 100}}], "agents": ["q-learning", "sarsa", {{"q-lambda": 0.7}}], "seeds": {{"start": {agent_seed}, "count": {agent_seeds}}}, "input_seeds": [{inputs}], "explore": {{"max_steps": {max_steps}}}, "parallelism": 1{policy}}}"#,
            name = self.name(),
            inputs = input_seeds.join(", "),
        )
    }
}

/// SplitMix64: one well-mixed 64-bit value per input.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything a workload builds before its first timed campaign.
pub struct Bench {
    /// The operator library the specs name.
    pub lib: OperatorLibrary,
    /// The specs' benchmarks (every spec lists the same ones), in order.
    pub workloads: Vec<Box<dyn Workload>>,
    /// The parsed campaign specs; a run cycles through them.
    pub specs: Vec<ExperimentSpec>,
    /// Warm replay only: per spec, the filled cache its campaigns replay
    /// against.
    warm: Vec<Warm>,
}

/// The state a warm replay starts from.
struct Warm {
    cache: Arc<SharedCache>,
    /// The report of the cold campaign that filled the cache.
    report: String,
    /// The cache's miss count once filled; a replay that misses would
    /// execute, so the count must never grow.
    misses: u64,
}

impl Bench {
    /// Parses the specs and builds the library and benchmarks; a warm
    /// replay also runs each campaign once on a fresh cache to fill it.
    pub fn set_up(kind: Kind, spec_texts: &[String]) -> Result<Bench, String> {
        let specs = spec_texts
            .iter()
            .map(|text| ExperimentSpec::from_json_str(text).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let first = specs.first().ok_or("a workload needs at least one spec")?;
        let lib = first.library.build();
        let workloads = first.build_workloads();
        let mut bench = Bench {
            lib,
            workloads,
            specs,
            warm: Vec::new(),
        };
        if kind == Kind::WarmReplay {
            for i in 0..bench.specs.len() {
                let cache = SharedCache::new();
                let report = bench.run(i, Arc::clone(&cache))?.to_json_string();
                let misses = cache.misses();
                bench.warm.push(Warm {
                    cache,
                    report,
                    misses,
                });
            }
        }
        Ok(bench)
    }

    /// The cache the next campaign of spec `i` runs against: the warm one,
    /// or a fresh one for the cold workloads.
    pub fn cache(&self, i: usize) -> Arc<SharedCache> {
        match self.warm.get(i) {
            Some(warm) => Arc::clone(&warm.cache),
            None => SharedCache::new(),
        }
    }

    /// `false` if a warm replay missed its cache since set-up.
    pub fn warm_caches_held(&self) -> bool {
        self.warm.iter().all(|w| w.cache.misses() == w.misses)
    }

    /// The report every campaign of spec `i` must reproduce, when set-up
    /// already knows it (warm replay: the cold campaign's report — sharing
    /// a cache must change cost only, never results).
    pub fn expected_report(&self, i: usize) -> Option<&str> {
        self.warm.get(i).map(|w| w.report.as_str())
    }

    /// Runs the campaign of spec `i` once, untraced, against `cache`.
    pub fn run(&self, i: usize, cache: Arc<SharedCache>) -> Result<CampaignReport, String> {
        self.campaign(i, cache).run().map_err(|e| e.to_string())
    }

    /// The campaign of spec `i` over `cache`, for callers that add tracing.
    pub fn campaign(&self, i: usize, cache: Arc<SharedCache>) -> Campaign<'_> {
        Campaign::from_spec(&self.lib, &self.specs[i], &self.workloads).shared_cache(cache)
    }

    /// Every (benchmark, input seed) pair spec `i` evaluates, with the
    /// benchmark's index in [`Bench::workloads`].
    pub fn scopes(&self, i: usize) -> Vec<(usize, String, u64)> {
        let mut scopes = Vec::new();
        for (b, wl) in self.workloads.iter().enumerate() {
            for &iseed in &self.specs[i].input_seeds {
                scopes.push((b, wl.name(), iseed));
            }
        }
        scopes
    }

    /// Checks one finished campaign of spec `i` on its own: the report
    /// holds every run, every run took a step, and under a budget the
    /// per-cell charges add up to the global spend plus overshoot without
    /// passing the cap by more than one step per run.
    pub fn check_report(&self, i: usize, report: &CampaignReport) -> Result<(), String> {
        let spec = &self.specs[i];
        let runs = spec.total_runs();
        let entries: u64 = report
            .portfolios
            .iter()
            .map(|p| p.entries.len() as u64)
            .sum();
        if entries != runs {
            return Err(format!("report holds {entries} runs, spec asks for {runs}"));
        }
        if report
            .portfolios
            .iter()
            .flat_map(|p| &p.entries)
            .any(|e| e.summary.steps == 0)
        {
            return Err("a run took no step".into());
        }
        if let Some(cap) = spec.budget {
            let cells: u64 = report.cells.iter().map(|c| c.evaluations).sum();
            if cells != report.budget.charged() {
                return Err(format!(
                    "cells charged {cells}, budget reports {}",
                    report.budget.charged()
                ));
            }
            if report.budget.spent > cap || report.budget.overshoot > runs {
                return Err(format!(
                    "spent {} + overshoot {} against cap {cap}",
                    report.budget.spent, report.budget.overshoot
                ));
            }
        }
        Ok(())
    }

    /// Re-executes every design a campaign of spec `i` left in `cache`
    /// with the reference interpreter on a fresh, uncached context, and
    /// counts designs whose metrics differ from the cached ones. The cache
    /// was filled by the compiled engine, so this checks compiled ≡
    /// interpreted and cached ≡ fresh at once.
    pub fn oracle_mismatches(&self, i: usize, cache: &SharedCache) -> Result<u64, String> {
        let lib = Arc::new(self.lib.clone());
        let mut mismatches = 0;
        for (b, name, iseed) in self.scopes(i) {
            let designs = cache.snapshot(&name, iseed);
            if designs.is_empty() {
                return Err(format!("no cached designs for {name} / input seed {iseed}"));
            }
            let mut oracle = EvalContext::new(self.workloads[b].as_ref(), Arc::clone(&lib), iseed)
                .map_err(|e| e.to_string())?
                .with_engine(ExecEngine::Interpreter)
                .evaluator();
            for (config, cached) in designs {
                let fresh = oracle.evaluate(&config).map_err(|e| e.to_string())?;
                mismatches += u64::from(fresh != cached);
            }
        }
        Ok(mismatches)
    }
}

/// Agent steps a campaign took, summed over its runs.
pub fn steps(report: &CampaignReport) -> u64 {
    report
        .portfolios
        .iter()
        .flat_map(|p| &p.entries)
        .map(|e| e.summary.steps)
        .sum()
}
