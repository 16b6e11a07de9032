//! Declarative experiment specifications.
//!
//! An [`ExperimentSpec`] names everything a campaign needs — benchmarks,
//! agent roster, seed range, backend choice, stop/budget rules — as plain
//! data, so whole experiments become checked-in JSON files (see
//! `examples/campaign_matmul.json`) executed by `repro run <spec.json>`.
//! The JSON mapping is hand-written over [`crate::json`]; every field is
//! optional in the file and falls back to the same defaults the builder
//! uses.

use crate::explore::{AgentKind, ExploreOptions};
use crate::json::{Json, JsonError};
use crate::pareto::{Objective, ObjectiveDecl, Ranking};
use crate::thresholds::ThresholdRule;
use ax_agents::schedule::Schedule;
use ax_operators::OperatorLibrary;
use ax_workloads::{conv2d::Conv2d, dct::Dct8, dot::DotProduct, fir::Fir, matmul::MatMul};
use ax_workloads::{sobel::Sobel, Workload};
use std::fmt;

/// The most runs one campaign grid may hold. A campaign builds every run
/// up front, so [`ExperimentSpec::validate`] bounds the grid before a
/// huge seed count can exhaust memory.
const MAX_RUNS: u64 = 1 << 14;

/// A contiguous range of agent seeds: `start, start+1, …, start+count-1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedRange {
    /// First agent seed.
    pub start: u64,
    /// Number of seeds.
    pub count: u64,
}

impl SeedRange {
    /// The range `start .. start + count`.
    pub fn new(start: u64, count: u64) -> Self {
        Self { start, count }
    }

    /// A single seed.
    pub fn single(seed: u64) -> Self {
        Self::new(seed, 1)
    }

    /// Iterates the seeds of the range.
    pub fn iter(&self) -> impl Iterator<Item = u64> {
        self.start..self.start + self.count
    }
}

impl Default for SeedRange {
    fn default() -> Self {
        Self::new(0, 1)
    }
}

/// A benchmark named by kind and size — the serialisable counterpart of
/// the concrete [`Workload`] constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchmarkSpec {
    /// `size × size` matrix multiplication (paper Table III).
    MatMul(usize),
    /// FIR low-pass filter over `size` white-noise samples (Table III).
    Fir(usize),
    /// Dot product of two `size`-element vectors.
    Dot(usize),
    /// 2-D convolution over a `size × size` image.
    Conv2d(usize),
    /// Sobel edge detection over a `size × size` image.
    Sobel(usize),
    /// 8-point DCT over `size` blocks.
    Dct8(usize),
}

impl BenchmarkSpec {
    /// The spec's kind tag as written in JSON.
    pub fn kind(&self) -> &'static str {
        match self {
            BenchmarkSpec::MatMul(_) => "matmul",
            BenchmarkSpec::Fir(_) => "fir",
            BenchmarkSpec::Dot(_) => "dot",
            BenchmarkSpec::Conv2d(_) => "conv2d",
            BenchmarkSpec::Sobel(_) => "sobel",
            BenchmarkSpec::Dct8(_) => "dct8",
        }
    }

    /// The size parameter (side length, sample count or block count).
    pub fn size(&self) -> usize {
        match *self {
            BenchmarkSpec::MatMul(n)
            | BenchmarkSpec::Fir(n)
            | BenchmarkSpec::Dot(n)
            | BenchmarkSpec::Conv2d(n)
            | BenchmarkSpec::Sobel(n)
            | BenchmarkSpec::Dct8(n) => n,
        }
    }

    /// The smallest size the workload's constructor accepts: a 3×3
    /// stencil needs a 3×3 image, every other kind one element.
    fn min_size(&self) -> usize {
        match self {
            BenchmarkSpec::Conv2d(_) | BenchmarkSpec::Sobel(_) => 3,
            _ => 1,
        }
    }

    /// Instantiates the named workload.
    pub fn build(&self) -> Box<dyn Workload> {
        match *self {
            BenchmarkSpec::MatMul(n) => Box::new(MatMul::new(n)),
            BenchmarkSpec::Fir(n) => Box::new(Fir::new(n)),
            BenchmarkSpec::Dot(n) => Box::new(DotProduct::new(n)),
            BenchmarkSpec::Conv2d(n) => Box::new(Conv2d::new(n)),
            BenchmarkSpec::Sobel(n) => Box::new(Sobel::new(n)),
            BenchmarkSpec::Dct8(n) => Box::new(Dct8::new(n)),
        }
    }

    fn to_json(self) -> Json {
        Json::obj(vec![
            ("kind", Json::str(self.kind())),
            ("size", Json::u64(self.size() as u64)),
        ])
    }

    fn from_json(v: &Json, path: fmt::Arguments<'_>) -> Result<Self, JsonError> {
        check_keys(v, path, &["kind", "size"])?;
        let kind = required(v, path, "kind")?.as_str()?;
        let size = required(v, path, "size")?.as_usize()?;
        Ok(match kind {
            "matmul" => BenchmarkSpec::MatMul(size),
            "fir" => BenchmarkSpec::Fir(size),
            "dot" => BenchmarkSpec::Dot(size),
            "conv2d" => BenchmarkSpec::Conv2d(size),
            "sobel" => BenchmarkSpec::Sobel(size),
            "dct8" => BenchmarkSpec::Dct8(size),
            other => return Err(JsonError(format!("unknown benchmark kind `{other}`"))),
        })
    }
}

/// The evaluation backend a campaign scores designs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendSpec {
    /// The exact [`crate::backend::Evaluator`] on its default threaded-code
    /// engine ([`crate::backend::ExecEngine::Compiled`]).
    #[default]
    Exact,
    /// The exact [`crate::backend::Evaluator`] forced onto the interpreter
    /// reference engine — bit-identical results to [`BackendSpec::Exact`],
    /// slower; exists for differential testing and perf baselines.
    ExactInterpreted,
}

impl BackendSpec {
    fn to_json(self) -> Json {
        match self {
            BackendSpec::Exact => Json::str("exact"),
            BackendSpec::ExactInterpreted => Json::str("exact-interpreted"),
        }
    }

    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) if s == "exact" => Ok(BackendSpec::Exact),
            Json::Str(s) if s == "exact-interpreted" => Ok(BackendSpec::ExactInterpreted),
            Json::Obj(_) if v.get("tiered").is_some() => Err(JsonError(
                "the \"tiered\" surrogate backend was removed; use \"exact\" (its design \
                 cache already shares every execution class between runs)"
                    .into(),
            )),
            other => Err(JsonError(format!(
                "backend must be \"exact\" or \"exact-interpreted\", got {other:?}"
            ))),
        }
    }
}

/// The pre-characterised operator library a campaign scores designs
/// against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LibrarySpec {
    /// The six-per-class EvoApprox selection (the paper's library).
    #[default]
    EvoApprox,
    /// [`LibrarySpec::EvoApprox`] widened with two extra variants per
    /// operator family, for fronts with more than two non-degenerate
    /// points (see [`OperatorLibrary::evoapprox_extended`]).
    EvoApproxExtended,
}

impl LibrarySpec {
    /// The spec's library name as written in JSON.
    pub fn name(self) -> &'static str {
        match self {
            LibrarySpec::EvoApprox => "evoapprox",
            LibrarySpec::EvoApproxExtended => "evoapprox-extended",
        }
    }

    /// Parses a spec library name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "evoapprox" => Some(LibrarySpec::EvoApprox),
            "evoapprox-extended" => Some(LibrarySpec::EvoApproxExtended),
            _ => None,
        }
    }

    /// Instantiates the named library.
    pub fn build(self) -> OperatorLibrary {
        match self {
            LibrarySpec::EvoApprox => OperatorLibrary::evoapprox(),
            LibrarySpec::EvoApproxExtended => OperatorLibrary::evoapprox_extended(),
        }
    }
}

/// One Hyperband bracket: a synchronous successive-halving configuration
/// `(rounds, keep_fraction)` run as one stage of the outer loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HalvingBracket {
    /// Grant/rank rounds of this bracket (≥ 1).
    pub rounds: u32,
    /// Fraction of surviving cells kept after each of the bracket's
    /// rounds, in (0, 1).
    pub keep_fraction: f64,
}

impl HalvingBracket {
    /// A bracket with the given round count and keep fraction.
    pub fn new(rounds: u32, keep_fraction: f64) -> Self {
        Self {
            rounds,
            keep_fraction,
        }
    }
}

/// How a campaign's global evaluation budget is divided across its
/// (benchmark, agent) cells.
///
/// The paper's DSE is a race between configurations under a finite
/// evaluation budget; with one *global* cap a losing cell can starve the
/// leaders. A budget policy splits the cap into per-cell sub-budgets (see
/// [`crate::campaign::CellLedger`]) so every cell is guaranteed its share
/// — and the multi-fidelity policies go further:
/// [`BudgetPolicy::SuccessiveHalving`] reallocates the budget of
/// eliminated cells to the leaders round by round,
/// [`BudgetPolicy::AsyncHalving`] promotes leaders rung by rung without
/// waiting for slow peers, and [`BudgetPolicy::Hyperband`] sweeps whole
/// bracket configurations so the (rounds, keep) choice itself need not be
/// hand-tuned.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum BudgetPolicy {
    /// Every cell gets an equal share of the global cap (the whole cap
    /// when unbounded). With a budget generous enough that no share binds,
    /// this is byte-identical to the single-global-pool campaigns of the
    /// previous API.
    #[default]
    Uniform,
    /// Per-cell shares, benchmark-major × agent order; the cap is split
    /// proportionally (largest-remainder rounding). Requires a global
    /// budget and exactly one positive finite share per cell.
    Weighted(Vec<f64>),
    /// Successive halving: the remaining budget is granted over `rounds`
    /// rounds; after each round the surviving cells are ranked by their
    /// best design's solution score (the reward scalarisation of
    /// `search_adapter::solution_score`, comparable across benchmarks)
    /// and only the top `keep_fraction` continue. Unspent budget of
    /// eliminated (or naturally finished) cells flows to the survivors of
    /// later rounds. Requires a global budget.
    SuccessiveHalving {
        /// Number of grant/rank rounds (≥ 1).
        rounds: u32,
        /// Fraction of surviving cells kept after each round, in (0, 1);
        /// at least one cell always survives.
        keep_fraction: f64,
    },
    /// Asynchronous successive halving (ASHA): every cell climbs a ladder
    /// of `rungs` budget quanta, and is promoted to the next rung **as
    /// soon as** its best-design solution score ranks in the top
    /// `keep_fraction` of the scores its current rung has seen *so far* —
    /// no round barrier, so a fast cell can be rungs ahead of a slow one
    /// (see [`crate::campaign::RungLedger`]). Cells that never rank stay
    /// parked and their unspent share funds later promotions. With a
    /// single rung this degenerates to [`BudgetPolicy::Uniform`]
    /// byte-identically. Requires a global budget.
    AsyncHalving {
        /// Number of budget rungs (≥ 1).
        rungs: u32,
        /// Fraction of a rung's recorded peers promoted onward, in
        /// (0, 1); the first cell to report on a rung always promotes.
        keep_fraction: f64,
    },
    /// Hyperband: an outer loop over successive-halving bracket
    /// configurations, hedging the (rounds, keep_fraction) choice that a
    /// single [`BudgetPolicy::SuccessiveHalving`] point hand-tunes. Each
    /// bracket re-opens the whole grid (cells eliminated in an earlier
    /// bracket get another chance under the next bracket's schedule),
    /// reuses the campaign's [`crate::campaign::CellLedger`] and draws
    /// each round's pool from the budget still unspent across **all**
    /// remaining rounds of all remaining brackets — so a bracket's
    /// unspent budget automatically rolls forward. Requires a global
    /// budget.
    Hyperband {
        /// The brackets, run in order (≥ 1).
        brackets: Vec<HalvingBracket>,
    },
}

impl BudgetPolicy {
    /// Checks the policy against a campaign shape.
    ///
    /// # Errors
    ///
    /// Fails when the policy needs a budget and none is set, when weighted
    /// shares do not match the cell count (or are non-positive), or when a
    /// halving form (sync, async, or a Hyperband bracket) names zero
    /// rounds/rungs or a keep fraction outside (0, 1) — the configurations
    /// that would make the rung scheduler divide by zero cells, rounds or
    /// rungs.
    pub fn check(&self, n_cells: usize, budget: Option<u64>) -> Result<(), SpecError> {
        fn check_keep(what: &str, keep_fraction: f64) -> Result<(), SpecError> {
            if !(keep_fraction.is_finite() && keep_fraction > 0.0 && keep_fraction < 1.0) {
                return Err(SpecError(format!(
                    "{what} keep_fraction must lie in (0, 1), got {keep_fraction}"
                )));
            }
            Ok(())
        }
        match self {
            BudgetPolicy::Uniform => Ok(()),
            BudgetPolicy::Weighted(shares) => {
                if budget.is_none() {
                    return Err(SpecError(
                        "a weighted budget policy needs a global budget to split".into(),
                    ));
                }
                if shares.len() != n_cells {
                    return Err(SpecError(format!(
                        "weighted policy names {} share(s) but the campaign has {n_cells} \
                         (benchmark, agent) cell(s)",
                        shares.len()
                    )));
                }
                if !shares.iter().all(|s| s.is_finite() && *s > 0.0) {
                    return Err(SpecError(
                        "weighted budget shares must all be finite and positive".into(),
                    ));
                }
                Ok(())
            }
            BudgetPolicy::SuccessiveHalving {
                rounds,
                keep_fraction,
            } => {
                if budget.is_none() {
                    return Err(SpecError(
                        "successive halving needs a global budget to reallocate".into(),
                    ));
                }
                if *rounds == 0 {
                    return Err(SpecError(
                        "successive halving needs at least one round".into(),
                    ));
                }
                check_keep("successive halving", *keep_fraction)
            }
            BudgetPolicy::AsyncHalving {
                rungs,
                keep_fraction,
            } => {
                if budget.is_none() {
                    return Err(SpecError(
                        "asynchronous halving needs a global budget to split over rungs".into(),
                    ));
                }
                if *rungs == 0 {
                    return Err(SpecError(
                        "asynchronous halving needs at least one rung".into(),
                    ));
                }
                check_keep("asynchronous halving", *keep_fraction)
            }
            BudgetPolicy::Hyperband { brackets } => {
                if budget.is_none() {
                    return Err(SpecError(
                        "hyperband needs a global budget to split over brackets".into(),
                    ));
                }
                if brackets.is_empty() {
                    return Err(SpecError("hyperband needs at least one bracket".into()));
                }
                for (i, b) in brackets.iter().enumerate() {
                    if b.rounds == 0 {
                        return Err(SpecError(format!(
                            "hyperband bracket {i} needs at least one round"
                        )));
                    }
                    check_keep(&format!("hyperband bracket {i}"), b.keep_fraction)?;
                }
                Ok(())
            }
        }
    }

    /// Parses the CLI shorthand of `repro run --policy`: `uniform`,
    /// `weighted:S1,S2,…`, `halving:ROUNDS,KEEP_FRACTION`,
    /// `asha:RUNGS,KEEP_FRACTION` or `hyperband:R1,K1;R2,K2;…` (one
    /// `ROUNDS,KEEP` pair per bracket, semicolon-separated).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed input (shape checks
    /// like share counts happen later, in [`BudgetPolicy::check`]).
    pub fn parse_cli(text: &str) -> Result<Self, String> {
        fn parse_pair(what: &str, rest: &str) -> Result<(u32, f64), String> {
            let (rounds, keep) = rest
                .split_once(',')
                .ok_or_else(|| format!("{what} policy needs `{what}:ROUNDS,KEEP`"))?;
            Ok((
                rounds
                    .trim()
                    .parse()
                    .map_err(|e| format!("bad {what} rounds `{rounds}`: {e}"))?,
                keep.trim()
                    .parse()
                    .map_err(|e| format!("bad {what} keep fraction `{keep}`: {e}"))?,
            ))
        }
        if text == "uniform" {
            return Ok(BudgetPolicy::Uniform);
        }
        if let Some(rest) = text.strip_prefix("weighted:") {
            let shares = rest
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse::<f64>()
                        .map_err(|e| format!("bad weighted share `{s}`: {e}"))
                })
                .collect::<Result<Vec<f64>, String>>()?;
            return Ok(BudgetPolicy::Weighted(shares));
        }
        if let Some(rest) = text.strip_prefix("halving:") {
            let (rounds, keep_fraction) = parse_pair("halving", rest)?;
            return Ok(BudgetPolicy::SuccessiveHalving {
                rounds,
                keep_fraction,
            });
        }
        if let Some(rest) = text.strip_prefix("asha:") {
            let (rungs, keep_fraction) = parse_pair("asha", rest)?;
            return Ok(BudgetPolicy::AsyncHalving {
                rungs,
                keep_fraction,
            });
        }
        if let Some(rest) = text.strip_prefix("hyperband:") {
            let brackets = rest
                .split(';')
                .map(|pair| {
                    parse_pair("hyperband", pair.trim())
                        .map(|(rounds, keep_fraction)| HalvingBracket::new(rounds, keep_fraction))
                })
                .collect::<Result<Vec<HalvingBracket>, String>>()?;
            return Ok(BudgetPolicy::Hyperband { brackets });
        }
        Err(format!(
            "unknown budget policy `{text}` (expected `uniform`, `weighted:S1,S2,…`, \
             `halving:ROUNDS,KEEP`, `asha:RUNGS,KEEP` or `hyperband:R1,K1;R2,K2;…`)"
        ))
    }

    /// Synthesises a classic Hyperband bracket ladder from the single
    /// aggressiveness knob `eta` and the campaign's cell count.
    ///
    /// Every bracket keeps `1/eta` of its cells per round, and the ladder
    /// runs brackets of `s_max + 1, s_max, …, 1` rounds where
    /// `s_max = floor(log_eta(n_cells))` — the most aggressive bracket can
    /// halve (well, eta-th) the full grid down to one survivor, and the
    /// final single-round bracket is the uniform control arm. This is the
    /// `{"hyperband": {"eta": N}}` spec shorthand; the synthesised policy
    /// serialises back out as explicit brackets.
    ///
    /// # Errors
    ///
    /// Fails when `eta < 2` (each round must actually eliminate cells) or
    /// when the grid is empty.
    pub fn hyperband_from_eta(eta: u32, n_cells: usize) -> Result<Self, SpecError> {
        if eta < 2 {
            return Err(SpecError(format!(
                "hyperband eta must be at least 2 (each round keeps 1/eta of the \
                 surviving cells), got {eta}"
            )));
        }
        if n_cells == 0 {
            return Err(SpecError(
                "hyperband eta synthesis needs at least one (benchmark, agent) cell".into(),
            ));
        }
        let keep_fraction = 1.0 / f64::from(eta);
        // s_max = floor(log_eta(n_cells)) by repeated integer division, so
        // exact powers of eta never land on the wrong side of a float log.
        let mut s_max: u32 = 0;
        let mut pool = n_cells;
        while pool >= eta as usize {
            pool /= eta as usize;
            s_max += 1;
        }
        let brackets = (1..=s_max + 1)
            .rev()
            .map(|rounds| HalvingBracket::new(rounds, keep_fraction))
            .collect();
        Ok(BudgetPolicy::Hyperband { brackets })
    }

    /// [`BudgetPolicy::from_json`] plus the grid-aware
    /// `{"hyperband": {"eta": N}}` shorthand, which needs the campaign's
    /// cell count to synthesise its bracket ladder (see
    /// [`BudgetPolicy::hyperband_from_eta`]).
    fn from_json_for_grid(v: &Json, n_cells: usize) -> Result<Self, SpecError> {
        if let Some(h) = v.get("hyperband") {
            if let Some(eta) = h.get("eta") {
                if h.get("brackets").is_some() {
                    return Err(SpecError(
                        "hyperband takes either `eta` or `brackets`, not both".into(),
                    ));
                }
                check_keys(v, "policy", &["hyperband"])?;
                check_keys(h, "policy.hyperband", &["eta"])?;
                let eta = eta.as_u64()?;
                let eta = u32::try_from(eta)
                    .map_err(|_| SpecError(format!("hyperband eta {eta} overflows u32")))?;
                return Self::hyperband_from_eta(eta, n_cells);
            }
        }
        Ok(Self::from_json(v)?)
    }

    fn to_json(&self) -> Json {
        match self {
            BudgetPolicy::Uniform => Json::str("uniform"),
            BudgetPolicy::Weighted(shares) => Json::obj(vec![(
                "weighted",
                Json::Arr(shares.iter().map(|s| Json::f64(*s)).collect()),
            )]),
            BudgetPolicy::SuccessiveHalving {
                rounds,
                keep_fraction,
            } => Json::obj(vec![(
                "successive-halving",
                Json::obj(vec![
                    ("rounds", Json::u64(u64::from(*rounds))),
                    ("keep_fraction", Json::f64(*keep_fraction)),
                ]),
            )]),
            BudgetPolicy::AsyncHalving {
                rungs,
                keep_fraction,
            } => Json::obj(vec![(
                "asha",
                Json::obj(vec![
                    ("rungs", Json::u64(u64::from(*rungs))),
                    ("keep_fraction", Json::f64(*keep_fraction)),
                ]),
            )]),
            BudgetPolicy::Hyperband { brackets } => Json::obj(vec![(
                "hyperband",
                Json::obj(vec![(
                    "brackets",
                    Json::Arr(
                        brackets
                            .iter()
                            .map(|b| {
                                Json::obj(vec![
                                    ("rounds", Json::u64(u64::from(b.rounds))),
                                    ("keep_fraction", Json::f64(b.keep_fraction)),
                                ])
                            })
                            .collect(),
                    ),
                )]),
            )]),
        }
    }

    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) if s == "uniform" => Ok(BudgetPolicy::Uniform),
            Json::Obj(_) => {
                check_keys(
                    v,
                    "policy",
                    &["weighted", "successive-halving", "asha", "hyperband"],
                )?;
                if let Some(shares) = v.get("weighted") {
                    let shares = shares.as_arr()?.iter().map(Json::as_f64).collect::<Result<
                        Vec<f64>,
                        JsonError,
                    >>(
                    )?;
                    return Ok(BudgetPolicy::Weighted(shares));
                }
                /// The `{rounds_key, "keep_fraction"}` object at `path`.
                fn rounds_and_keep(
                    v: &Json,
                    path: fmt::Arguments<'_>,
                    rounds_key: &str,
                ) -> Result<(u32, f64), JsonError> {
                    check_keys(v, path, &[rounds_key, "keep_fraction"])?;
                    let rounds = required(v, path, rounds_key)?.as_u64()?;
                    let rounds = u32::try_from(rounds)
                        .map_err(|_| JsonError(format!("{rounds_key} {rounds} overflows u32")))?;
                    Ok((rounds, required(v, path, "keep_fraction")?.as_f64()?))
                }
                if let Some(h) = v.get("successive-halving") {
                    let (rounds, keep_fraction) =
                        rounds_and_keep(h, format_args!("policy.successive-halving"), "rounds")?;
                    return Ok(BudgetPolicy::SuccessiveHalving {
                        rounds,
                        keep_fraction,
                    });
                }
                if let Some(a) = v.get("asha") {
                    let (rungs, keep_fraction) =
                        rounds_and_keep(a, format_args!("policy.asha"), "rungs")?;
                    return Ok(BudgetPolicy::AsyncHalving {
                        rungs,
                        keep_fraction,
                    });
                }
                if let Some(h) = v.get("hyperband") {
                    check_keys(h, "policy.hyperband", &["brackets"])?;
                    let brackets = required(h, "policy.hyperband", "brackets")?
                        .as_arr()?
                        .iter()
                        .enumerate()
                        .map(|(i, b)| {
                            let path = format_args!("policy.hyperband.brackets[{i}]");
                            let (rounds, keep_fraction) = rounds_and_keep(b, path, "rounds")?;
                            Ok(HalvingBracket::new(rounds, keep_fraction))
                        })
                        .collect::<Result<Vec<HalvingBracket>, JsonError>>()?;
                    return Ok(BudgetPolicy::Hyperband { brackets });
                }
                Err(JsonError(
                    "policy object must carry `weighted`, `successive-halving`, `asha` \
                     or `hyperband`"
                        .into(),
                ))
            }
            other => Err(JsonError(format!(
                "policy must be \"uniform\", {{\"weighted\": …}}, \
                 {{\"successive-halving\": …}}, {{\"asha\": …}} or \
                 {{\"hyperband\": …}}, got {other:?}"
            ))),
        }
    }
}

/// A structurally invalid [`ExperimentSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid experiment spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl From<JsonError> for SpecError {
    fn from(e: JsonError) -> Self {
        SpecError(e.0)
    }
}

/// The declarative description of one campaign: everything the
/// [`crate::campaign::Campaign`] driver needs, as plain serialisable data.
///
/// Build one with the chained setters and run it — or check it in as JSON
/// and run it with `repro run`:
///
/// ```
/// use ax_dse::campaign::{BenchmarkSpec, ExperimentSpec, SeedRange};
/// use ax_dse::explore::AgentKind;
///
/// let spec = ExperimentSpec::new("smoke")
///     .benchmark(BenchmarkSpec::MatMul(4))
///     .agent(AgentKind::QLearning)
///     .seeds(SeedRange::new(0, 2))
///     .budget(2_000);
/// let text = spec.to_json_string();
/// assert_eq!(ExperimentSpec::from_json_str(&text).unwrap(), spec);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Human-readable campaign name.
    pub name: String,
    /// Benchmarks to explore (the campaign's outer axis).
    pub benchmarks: Vec<BenchmarkSpec>,
    /// Learning agents racing on every benchmark.
    pub agents: Vec<AgentKind>,
    /// Agent seeds per (benchmark, agent) cell.
    pub seeds: SeedRange,
    /// Base exploration options (`seed` is overridden per run from
    /// [`ExperimentSpec::seeds`]).
    pub explore: ExploreOptions,
    /// Benchmark input seeds: a non-empty list expands the context axis
    /// to benchmarks × input seeds, each pair becoming its own column of
    /// cells (exactly like benchmarks × agents × seeds do). Empty = one
    /// context per benchmark at `explore.input_seed` — the historical
    /// shape, byte-identical.
    pub input_seeds: Vec<u64>,
    /// Evaluation backend choice.
    pub backend: BackendSpec,
    /// Operator library the campaign draws designs from.
    pub library: LibrarySpec,
    /// Campaign objectives: the minimised coordinates cells are ranked
    /// and reported on, with optional explicit hypervolume reference
    /// coordinates. Defaults to QoR error × op cost × evaluations.
    pub objectives: Vec<ObjectiveDecl>,
    /// How schedulers order cells for survival: the legacy scalar score
    /// ([`Ranking::Scalarised`], byte-identical default) or non-dominated
    /// sorting over [`ExperimentSpec::objectives`] ([`Ranking::Pareto`]).
    pub ranking: Ranking,
    /// Global evaluation budget: distinct designs resolved across **all**
    /// runs of the campaign; `None` = unbounded. It binds when the
    /// [`BudgetPolicy`] grants it to cells, and each run stops on its
    /// cell's budget — see [`crate::campaign::CellLedger`].
    pub budget: Option<u64>,
    /// How the budget is divided across (benchmark, agent) cells.
    pub policy: BudgetPolicy,
    /// Worker-thread request: `Some(1)` forces sequential execution;
    /// larger values are a hint recorded for the process-global rayon
    /// pool (`AX_THREADS` / `ThreadPoolBuilder`). A budgeted pass runs on
    /// at most as many threads as it has live cells. No report depends
    /// on it.
    pub parallelism: Option<usize>,
}

impl ExperimentSpec {
    /// An empty spec with the given name and default options; add at least
    /// one benchmark and one agent before running.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            benchmarks: Vec::new(),
            agents: Vec::new(),
            seeds: SeedRange::default(),
            explore: ExploreOptions::default(),
            input_seeds: Vec::new(),
            backend: BackendSpec::Exact,
            library: LibrarySpec::EvoApprox,
            objectives: ObjectiveDecl::default_set(),
            ranking: Ranking::Scalarised,
            budget: None,
            policy: BudgetPolicy::Uniform,
            parallelism: None,
        }
    }

    /// Adds a benchmark.
    #[must_use]
    pub fn benchmark(mut self, b: BenchmarkSpec) -> Self {
        self.benchmarks.push(b);
        self
    }

    /// Adds an agent to the roster.
    #[must_use]
    pub fn agent(mut self, kind: AgentKind) -> Self {
        self.agents.push(kind);
        self
    }

    /// Sets the seed range.
    #[must_use]
    pub fn seeds(mut self, seeds: SeedRange) -> Self {
        self.seeds = seeds;
        self
    }

    /// Sets the base exploration options.
    #[must_use]
    pub fn explore(mut self, opts: ExploreOptions) -> Self {
        self.explore = opts;
        self
    }

    /// Adds a benchmark input seed to the context axis.
    #[must_use]
    pub fn input_seed(mut self, seed: u64) -> Self {
        self.input_seeds.push(seed);
        self
    }

    /// Sets the backend choice.
    #[must_use]
    pub fn backend(mut self, backend: BackendSpec) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the operator library.
    #[must_use]
    pub fn library(mut self, library: LibrarySpec) -> Self {
        self.library = library;
        self
    }

    /// Sets the declared objectives.
    #[must_use]
    pub fn objectives(mut self, objectives: Vec<ObjectiveDecl>) -> Self {
        self.objectives = objectives;
        self
    }

    /// Sets the survival ranking.
    #[must_use]
    pub fn ranking(mut self, ranking: Ranking) -> Self {
        self.ranking = ranking;
        self
    }

    /// Sets the global evaluation budget.
    #[must_use]
    pub fn budget(mut self, budget: u64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Sets the budget-sharing policy.
    #[must_use]
    pub fn policy(mut self, policy: BudgetPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the worker-thread request.
    #[must_use]
    pub fn parallelism(mut self, threads: usize) -> Self {
        self.parallelism = Some(threads);
        self
    }

    /// Total runs of the campaign grid.
    pub fn total_runs(&self) -> u64 {
        self.benchmarks.len() as u64
            * self.input_seeds.len().max(1) as u64
            * self.agents.len() as u64
            * self.seeds.count
    }

    /// The campaign's (context, agent) cell count: benchmarks ×
    /// input-seed axis × agents.
    pub fn n_cells(&self) -> usize {
        self.benchmarks.len() * self.input_seeds.len().max(1) * self.agents.len()
    }

    /// Checks the spec is runnable.
    ///
    /// # Errors
    ///
    /// Fails on an empty benchmark list, empty agent roster, empty seed
    /// range, a seed range whose end overflows `u64`, a grid of more than
    /// 16,384 runs, zero budget, zero parallelism, zero exploration
    /// steps, or a budget policy that does not fit the campaign shape (see
    /// [`BudgetPolicy::check`]) — an empty seed range or a zero budget
    /// would otherwise make the budget-share scheduler divide the cap over
    /// zero runs, and a degenerate halving policy would divide by zero
    /// cells or rounds.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.benchmarks.is_empty() {
            return Err(SpecError("need at least one benchmark".into()));
        }
        for (i, b) in self.benchmarks.iter().enumerate() {
            if b.size() < b.min_size() {
                return Err(SpecError(format!(
                    "benchmarks[{i}].size: a {} benchmark needs size >= {}, got {}",
                    b.kind(),
                    b.min_size(),
                    b.size()
                )));
            }
        }
        if self.agents.is_empty() {
            return Err(SpecError("need at least one agent".into()));
        }
        if self.seeds.count == 0 {
            return Err(SpecError(
                "need at least one seed: an empty seed range leaves every cell with \
                 zero runs to divide its budget share over"
                    .into(),
            ));
        }
        if self.seeds.start.checked_add(self.seeds.count).is_none() {
            return Err(SpecError(format!(
                "seeds: start {} + count {} overflows u64",
                self.seeds.start, self.seeds.count
            )));
        }
        let runs = [
            self.benchmarks.len(),
            self.input_seeds.len().max(1),
            self.agents.len(),
        ]
        .into_iter()
        .try_fold(self.seeds.count, |n, k| n.checked_mul(k as u64));
        if runs.is_none_or(|n| n > MAX_RUNS) {
            return Err(SpecError(format!(
                "seeds: {} seed(s) per cell take the grid past its {MAX_RUNS}-run limit",
                self.seeds.count
            )));
        }
        if self.explore.max_steps == 0 {
            return Err(SpecError("need at least one exploration step".into()));
        }
        check_learning_parameters(&self.explore)?;
        for kind in &self.agents {
            if let AgentKind::QLambda { lambda } = *kind {
                if !(0.0..=1.0).contains(&lambda) {
                    return Err(SpecError(format!(
                        "agents: q-lambda must lie in [0, 1], got {lambda}"
                    )));
                }
            }
        }
        if self.budget == Some(0) {
            return Err(SpecError(
                "a zero budget cannot run anything: every cell's share would be zero".into(),
            ));
        }
        if self.parallelism == Some(0) {
            return Err(SpecError("parallelism must be at least one thread".into()));
        }
        for (i, s) in self.input_seeds.iter().enumerate() {
            if self.input_seeds[..i].contains(s) {
                return Err(SpecError(format!(
                    "input_seeds repeats seed {s}: each input seed is one context \
                     column and duplicates would race identical cells"
                )));
            }
        }
        if self.objectives.is_empty() {
            return Err(SpecError(
                "need at least one objective: an empty objective vector leaves \
                 Pareto ranking and the report's front with no coordinates"
                    .into(),
            ));
        }
        for (i, o) in self.objectives.iter().enumerate() {
            if self.objectives[..i].iter().any(|p| p.kind == o.kind) {
                return Err(SpecError(format!(
                    "objective `{}` is declared twice",
                    o.kind.name()
                )));
            }
            if let Some(r) = o.reference {
                if !r.is_finite() {
                    return Err(SpecError(format!(
                        "objective `{}` has a non-finite reference coordinate {r}",
                        o.kind.name()
                    )));
                }
            }
        }
        self.policy.check(self.n_cells(), self.budget)
    }

    /// Instantiates every benchmark of the spec, in order.
    pub fn build_workloads(&self) -> Vec<Box<dyn Workload>> {
        self.benchmarks.iter().map(|b| b.build()).collect()
    }

    /// The spec as a JSON document.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name", Json::str(&self.name)),
            (
                "benchmarks",
                Json::Arr(self.benchmarks.iter().map(|b| b.to_json()).collect()),
            ),
            (
                "agents",
                Json::Arr(self.agents.iter().map(|a| agent_to_json(*a)).collect()),
            ),
            (
                "seeds",
                Json::obj(vec![
                    ("start", Json::u64(self.seeds.start)),
                    ("count", Json::u64(self.seeds.count)),
                ]),
            ),
            ("explore", explore_options_to_json(&self.explore)),
            ("backend", self.backend.to_json()),
        ];
        // The multi-objective / library keys are omitted at their
        // defaults, like `policy`, so pre-existing specs stay
        // byte-identical through a round trip.
        if !self.input_seeds.is_empty() {
            pairs.push((
                "input_seeds",
                Json::Arr(self.input_seeds.iter().map(|s| Json::u64(*s)).collect()),
            ));
        }
        if self.library != LibrarySpec::EvoApprox {
            pairs.push(("library", Json::str(self.library.name())));
        }
        if self.objectives != ObjectiveDecl::default_set() {
            pairs.push((
                "objectives",
                Json::Arr(
                    self.objectives
                        .iter()
                        .map(|o| objective_to_json(*o))
                        .collect(),
                ),
            ));
        }
        if self.ranking != Ranking::Scalarised {
            pairs.push(("ranking", Json::str(self.ranking.name())));
        }
        if let Some(b) = self.budget {
            pairs.push(("budget", Json::u64(b)));
        }
        if self.policy != BudgetPolicy::Uniform {
            pairs.push(("policy", self.policy.to_json()));
        }
        if let Some(p) = self.parallelism {
            pairs.push(("parallelism", Json::u64(p as u64)));
        }
        Json::obj(pairs)
    }

    /// The spec as pretty-printed JSON text.
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }

    /// Reads a spec from a JSON document. Missing optional fields take
    /// the same defaults as [`ExperimentSpec::new`]; the result is
    /// validated.
    ///
    /// # Errors
    ///
    /// Fails on schema violations or an unrunnable spec.
    pub fn from_json(v: &Json) -> Result<Self, SpecError> {
        check_keys(
            v,
            "",
            &[
                "name",
                "benchmarks",
                "agents",
                "seeds",
                "explore",
                "backend",
                "input_seeds",
                "library",
                "objectives",
                "ranking",
                "budget",
                "policy",
                "parallelism",
            ],
        )?;
        let name = required(v, "", "name")?.as_str()?.to_owned();
        let mut spec = ExperimentSpec::new(name);
        if let Some(benchmarks) = v.get("benchmarks") {
            for (i, b) in benchmarks.as_arr()?.iter().enumerate() {
                let path = format_args!("benchmarks[{i}]");
                spec.benchmarks.push(BenchmarkSpec::from_json(b, path)?);
            }
        }
        if let Some(agents) = v.get("agents") {
            for (i, a) in agents.as_arr()?.iter().enumerate() {
                spec.agents
                    .push(agent_from_json(a, format_args!("agents[{i}]"))?);
            }
        }
        if let Some(seeds) = v.get("seeds") {
            check_keys(seeds, "seeds", &["start", "count"])?;
            spec.seeds = SeedRange::new(
                seeds.get("start").map_or(Ok(0), Json::as_u64)?,
                seeds.get("count").map_or(Ok(1), Json::as_u64)?,
            );
        }
        if let Some(explore) = v.get("explore") {
            spec.explore = explore_options_from_json(explore)?;
        }
        if let Some(backend) = v.get("backend") {
            spec.backend = BackendSpec::from_json(backend)?;
        }
        if let Some(seeds) = v.get("input_seeds") {
            let arr = seeds.as_arr()?;
            if arr.is_empty() {
                return Err(SpecError(
                    "input_seeds must name at least one benchmark input seed \
                     (omit the key to use the explore default)"
                        .into(),
                ));
            }
            for s in arr {
                spec.input_seeds.push(s.as_u64()?);
            }
        }
        if let Some(library) = v.get("library") {
            let name = library.as_str()?;
            spec.library = LibrarySpec::from_name(name).ok_or_else(|| {
                SpecError(format!(
                    "unknown library `{name}` (expected \"evoapprox\" or \
                     \"evoapprox-extended\")"
                ))
            })?;
        }
        if let Some(objectives) = v.get("objectives") {
            spec.objectives = objectives
                .as_arr()?
                .iter()
                .enumerate()
                .map(|(i, o)| objective_from_json(o, format_args!("objectives[{i}]")))
                .collect::<Result<Vec<ObjectiveDecl>, SpecError>>()?;
        }
        if let Some(ranking) = v.get("ranking") {
            let name = ranking.as_str()?;
            spec.ranking = Ranking::from_name(name).ok_or_else(|| {
                SpecError(format!(
                    "unknown ranking `{name}` (expected \"scalarised\" or \"pareto\")"
                ))
            })?;
        }
        spec.budget = v.get("budget").map(Json::as_u64).transpose()?;
        if let Some(policy) = v.get("policy") {
            // Grid-aware: benchmarks, input seeds and agents are already
            // parsed, so the `{"hyperband": {"eta": N}}` shorthand can
            // see the cell count.
            spec.policy = BudgetPolicy::from_json_for_grid(policy, spec.n_cells())?;
        }
        spec.parallelism = v.get("parallelism").map(Json::as_usize).transpose()?;
        spec.validate()?;
        Ok(spec)
    }

    /// Parses a spec from JSON text.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON, schema violations or an unrunnable spec.
    pub fn from_json_str(text: &str) -> Result<Self, SpecError> {
        Self::from_json(&Json::parse(text)?)
    }
}

pub(crate) fn objective_to_json(o: ObjectiveDecl) -> Json {
    match o.reference {
        None => Json::str(o.kind.name()),
        Some(r) => Json::obj(vec![
            ("kind", Json::str(o.kind.name())),
            ("reference", Json::f64(r)),
        ]),
    }
}

fn objective_from_json(v: &Json, path: fmt::Arguments<'_>) -> Result<ObjectiveDecl, SpecError> {
    let parse_kind = |name: &str| {
        Objective::from_name(name).ok_or_else(|| {
            SpecError(format!(
                "unknown objective `{name}` (expected \"qor-error\", \"op-cost\" \
                 or \"evals\")"
            ))
        })
    };
    match v {
        Json::Str(name) => Ok(ObjectiveDecl::new(parse_kind(name)?)),
        Json::Obj(_) => {
            check_keys(v, path, &["kind", "reference"])?;
            let kind = parse_kind(required(v, path, "kind")?.as_str()?)?;
            let reference = match v.get("reference") {
                Some(r) => Some(r.as_f64()?),
                None => None,
            };
            Ok(ObjectiveDecl { kind, reference })
        }
        other => Err(SpecError(format!(
            "objective must be a name string or {{\"kind\": …, \"reference\": …}}, \
             got {other:?}"
        ))),
    }
}

fn agent_to_json(kind: AgentKind) -> Json {
    match kind {
        AgentKind::QLearning => Json::str("q-learning"),
        AgentKind::Sarsa => Json::str("sarsa"),
        AgentKind::ExpectedSarsa => Json::str("expected-sarsa"),
        AgentKind::DoubleQ => Json::str("double-q"),
        AgentKind::QLambda { lambda } => Json::obj(vec![("q-lambda", Json::f64(lambda))]),
    }
}

fn agent_from_json(v: &Json, path: fmt::Arguments<'_>) -> Result<AgentKind, JsonError> {
    match v {
        Json::Str(s) => match s.as_str() {
            "q-learning" => Ok(AgentKind::QLearning),
            "sarsa" => Ok(AgentKind::Sarsa),
            "expected-sarsa" => Ok(AgentKind::ExpectedSarsa),
            "double-q" => Ok(AgentKind::DoubleQ),
            other => Err(JsonError(format!("unknown agent `{other}`"))),
        },
        Json::Obj(_) => {
            check_keys(v, path, &["q-lambda"])?;
            let lambda = required(v, path, "q-lambda")?.as_f64()?;
            Ok(AgentKind::QLambda { lambda })
        }
        other => Err(JsonError(format!("bad agent {other:?}"))),
    }
}

fn schedule_to_json(s: Schedule) -> Json {
    match s {
        Schedule::Constant(v) => Json::obj(vec![("constant", Json::f64(v))]),
        Schedule::Linear { start, end, steps } => Json::obj(vec![(
            "linear",
            Json::obj(vec![
                ("start", Json::f64(start)),
                ("end", Json::f64(end)),
                ("steps", Json::u64(steps)),
            ]),
        )]),
        Schedule::Exponential { start, end, decay } => Json::obj(vec![(
            "exponential",
            Json::obj(vec![
                ("start", Json::f64(start)),
                ("end", Json::f64(end)),
                ("decay", Json::f64(decay)),
            ]),
        )]),
    }
}

fn schedule_from_json(v: &Json, path: &str) -> Result<Schedule, JsonError> {
    check_keys(v, path, &["constant", "linear", "exponential"])?;
    if let Some(c) = v.get("constant") {
        return Ok(Schedule::Constant(c.as_f64()?));
    }
    if let Some(l) = v.get("linear") {
        let path = key_path(path, "linear");
        check_keys(l, &path, &["start", "end", "steps"])?;
        return Ok(Schedule::Linear {
            start: required(l, &path, "start")?.as_f64()?,
            end: required(l, &path, "end")?.as_f64()?,
            steps: required(l, &path, "steps")?.as_u64()?,
        });
    }
    if let Some(e) = v.get("exponential") {
        let path = key_path(path, "exponential");
        check_keys(e, &path, &["start", "end", "decay"])?;
        return Ok(Schedule::Exponential {
            start: required(e, &path, "start")?.as_f64()?,
            end: required(e, &path, "end")?.as_f64()?,
            decay: required(e, &path, "decay")?.as_f64()?,
        });
    }
    Err(JsonError(
        "schedule must be {constant|linear|exponential: …}".into(),
    ))
}

/// `key` of the object at `path`, spelt from the spec's root
/// (`budget`, `explore.max_steps`).
fn key_path(path: impl fmt::Display, key: &str) -> String {
    match path.to_string() {
        root if root.is_empty() => key.to_owned(),
        path => format!("{path}.{key}"),
    }
}

/// Rejects a key of the object `v` at `path` that `known` does not name:
/// a misspelt key would otherwise leave its field at the default in
/// silence. The path is formatted for the error only, so an indexed one
/// costs nothing on a valid spec.
fn check_keys(v: &Json, path: impl fmt::Display, known: &[&str]) -> Result<(), JsonError> {
    let Json::Obj(pairs) = v else {
        return Ok(());
    };
    match pairs.iter().find(|(k, _)| !known.contains(&k.as_str())) {
        Some((key, _)) => Err(JsonError(format!("unknown key `{}`", key_path(path, key)))),
        None => Ok(()),
    }
}

/// The required `key` of the object `v` at `path`.
fn required<'v>(v: &'v Json, path: impl fmt::Display, key: &str) -> Result<&'v Json, JsonError> {
    v.get(key)
        .ok_or_else(|| JsonError(format!("missing key `{}`", key_path(path, key))))
}

/// Checks the exploration parameters the agents, schedules and reward
/// assert on, so an out-of-range value fails validation with its field's
/// name instead of panicking inside a run.
fn check_learning_parameters(o: &ExploreOptions) -> Result<(), SpecError> {
    if !(0.0..=1.0).contains(&o.gamma) {
        return Err(SpecError(format!(
            "explore.gamma must lie in [0, 1], got {}",
            o.gamma
        )));
    }
    if !(o.max_reward.is_finite() && o.max_reward > 0.0) {
        return Err(SpecError(format!(
            "explore.max_reward must be positive and finite, got {}",
            o.max_reward
        )));
    }
    for (field, v) in [
        ("power_frac", o.rule.power_frac),
        ("time_frac", o.rule.time_frac),
        ("acc_frac", o.rule.acc_frac),
    ] {
        if !(v.is_finite() && v >= 0.0) {
            return Err(SpecError(format!(
                "explore.rule.{field} must be non-negative and finite, got {v}"
            )));
        }
    }
    for (field, schedule) in [("alpha", o.alpha), ("epsilon", o.epsilon)] {
        match schedule {
            Schedule::Linear { steps: 0, .. } => {
                return Err(SpecError(format!(
                    "explore.{field}: a linear schedule needs steps >= 1"
                )));
            }
            Schedule::Exponential { decay, .. } if !(decay > 0.0 && decay < 1.0) => {
                return Err(SpecError(format!(
                    "explore.{field}: an exponential schedule's decay must lie in (0, 1), \
                     got {decay}"
                )));
            }
            _ => {}
        }
    }
    Ok(())
}

fn explore_options_to_json(o: &ExploreOptions) -> Json {
    Json::obj(vec![
        ("max_steps", Json::u64(o.max_steps)),
        ("seed", Json::u64(o.seed)),
        ("input_seed", Json::u64(o.input_seed)),
        ("max_reward", Json::f64(o.max_reward)),
        (
            "rule",
            Json::obj(vec![
                ("power_frac", Json::f64(o.rule.power_frac)),
                ("time_frac", Json::f64(o.rule.time_frac)),
                ("acc_frac", Json::f64(o.rule.acc_frac)),
            ]),
        ),
        ("alpha", schedule_to_json(o.alpha)),
        ("gamma", Json::f64(o.gamma)),
        ("epsilon", schedule_to_json(o.epsilon)),
    ])
}

fn explore_options_from_json(v: &Json) -> Result<ExploreOptions, JsonError> {
    check_keys(
        v,
        "explore",
        &[
            "max_steps",
            "seed",
            "input_seed",
            "max_reward",
            "rule",
            "alpha",
            "gamma",
            "epsilon",
            "batch_neighborhood",
        ],
    )?;
    let d = ExploreOptions::default();
    let mut o = ExploreOptions {
        max_steps: v.get("max_steps").map_or(Ok(d.max_steps), Json::as_u64)?,
        seed: v.get("seed").map_or(Ok(d.seed), Json::as_u64)?,
        input_seed: v.get("input_seed").map_or(Ok(d.input_seed), Json::as_u64)?,
        max_reward: v.get("max_reward").map_or(Ok(d.max_reward), Json::as_f64)?,
        gamma: v.get("gamma").map_or(Ok(d.gamma), Json::as_f64)?,
        ..d
    };
    if let Some(rule) = v.get("rule") {
        check_keys(
            rule,
            "explore.rule",
            &["power_frac", "time_frac", "acc_frac"],
        )?;
        let frac = |key, default| rule.get(key).map_or(Ok(default), Json::as_f64);
        let d = ThresholdRule::paper();
        o.rule = ThresholdRule {
            power_frac: frac("power_frac", d.power_frac)?,
            time_frac: frac("time_frac", d.time_frac)?,
            acc_frac: frac("acc_frac", d.acc_frac)?,
        };
    }
    if let Some(x) = v.get("alpha") {
        o.alpha = schedule_from_json(x, "explore.alpha")?;
    }
    if let Some(x) = v.get("epsilon") {
        o.epsilon = schedule_from_json(x, "explore.epsilon")?;
    }
    // Every spec written before the option's removal carries `false`.
    if let Some(x) = v.get("batch_neighborhood") {
        if x.as_bool()? {
            return Err(JsonError(
                "explore.batch_neighborhood was removed; drop the field (each step \
                 evaluates only the chosen design)"
                    .into(),
            ));
        }
    }
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_spec() -> ExperimentSpec {
        ExperimentSpec::new("everything")
            .benchmark(BenchmarkSpec::MatMul(10))
            .benchmark(BenchmarkSpec::Fir(100))
            .benchmark(BenchmarkSpec::Sobel(8))
            .agent(AgentKind::QLearning)
            .agent(AgentKind::Sarsa)
            .agent(AgentKind::QLambda { lambda: 0.7 })
            .seeds(SeedRange::new(3, 5))
            .explore(ExploreOptions {
                max_steps: 1_234,
                input_seed: 7,
                max_reward: 55.5,
                rule: ThresholdRule {
                    power_frac: 0.25,
                    time_frac: 0.5,
                    acc_frac: 0.8,
                },
                alpha: Schedule::Linear {
                    start: 0.9,
                    end: 0.1,
                    steps: 400,
                },
                gamma: 0.9,
                epsilon: Schedule::Exponential {
                    start: 0.4,
                    end: 0.01,
                    decay: 0.995,
                },
                ..Default::default()
            })
            .backend(BackendSpec::ExactInterpreted)
            .budget(10_000)
            .parallelism(4)
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = full_spec();
        let text = spec.to_json_string();
        let back = ExperimentSpec::from_json_str(&text).unwrap();
        assert_eq!(back, spec);
        // And the exact backend / defaults path too.
        let minimal = ExperimentSpec::new("mini")
            .benchmark(BenchmarkSpec::Dot(8))
            .agent(AgentKind::DoubleQ);
        let back = ExperimentSpec::from_json_str(&minimal.to_json_string()).unwrap();
        assert_eq!(back, minimal);
    }

    #[test]
    fn removed_tiered_backend_is_rejected_with_a_pointer_to_exact() {
        let err = ExperimentSpec::from_json_str(
            r#"{
                "name": "old",
                "benchmarks": [{"kind": "matmul", "size": 4}],
                "agents": ["q-learning"],
                "backend": {"tiered": {"warmup": 48}}
            }"#,
        )
        .unwrap_err();
        assert!(err.0.contains("was removed"), "{err}");
        assert!(err.0.contains("use \"exact\""), "{err}");
    }

    #[test]
    fn removed_batch_neighborhood_is_rejected_when_on_and_accepted_when_off() {
        let spec = |on: bool| {
            ExperimentSpec::from_json_str(&format!(
                r#"{{"name": "old", "benchmarks": [{{"kind": "dot", "size": 8}}],
                    "agents": ["q-learning"], "explore": {{"batch_neighborhood": {on}}}}}"#
            ))
        };
        let err = spec(true).unwrap_err();
        assert!(err.0.contains("batch_neighborhood was removed"), "{err}");
        assert_eq!(spec(false).unwrap().explore, ExploreOptions::default());
    }

    #[test]
    fn undersized_benchmarks_are_rejected_with_the_field_named() {
        let kinds = [
            (BenchmarkSpec::MatMul as fn(usize) -> BenchmarkSpec, 1),
            (BenchmarkSpec::Fir, 1),
            (BenchmarkSpec::Dot, 1),
            (BenchmarkSpec::Conv2d, 3),
            (BenchmarkSpec::Sobel, 3),
            (BenchmarkSpec::Dct8, 1),
        ];
        for (bench, min) in kinds {
            let spec = |size| {
                ExperimentSpec::new("sizes")
                    .benchmark(BenchmarkSpec::Dot(8))
                    .benchmark(bench(size))
                    .agent(AgentKind::QLearning)
            };
            let err = spec(min - 1).validate().unwrap_err();
            assert!(err.0.starts_with("benchmarks[1].size"), "{err}");
            spec(min).validate().unwrap();
            // The minimum really is what the constructor accepts.
            spec(min).benchmarks[1].build();
        }
    }

    #[test]
    fn oversized_or_overflowing_seed_ranges_are_rejected_naming_seeds() {
        let spec = |seeds| {
            ExperimentSpec::new("grid")
                .benchmark(BenchmarkSpec::Dot(8))
                .benchmark(BenchmarkSpec::MatMul(4))
                .agent(AgentKind::QLearning)
                .seeds(seeds)
        };
        for seeds in [
            SeedRange::new(0, 1 << 40),
            SeedRange::new(0, u64::MAX),
            SeedRange::new(u64::MAX, 2),
            SeedRange::new(u64::MAX, 1),
            SeedRange::new(0, MAX_RUNS / 2 + 1),
        ] {
            let err = spec(seeds).validate().unwrap_err();
            assert!(err.0.starts_with("seeds:"), "{seeds:?}: {err}");
        }
        spec(SeedRange::new(u64::MAX - 2, 2)).validate().unwrap();
        spec(SeedRange::new(0, MAX_RUNS / 2)).validate().unwrap();
    }

    #[test]
    fn sparse_json_fills_defaults() {
        let spec = ExperimentSpec::from_json_str(
            r#"{
                "name": "sparse",
                "benchmarks": [{"kind": "matmul", "size": 4}],
                "agents": ["q-learning"]
            }"#,
        )
        .unwrap();
        assert_eq!(spec.seeds, SeedRange::default());
        assert_eq!(spec.explore, ExploreOptions::default());
        assert_eq!(spec.backend, BackendSpec::Exact);
        assert_eq!(spec.budget, None);
        assert_eq!(spec.total_runs(), 1);
    }

    #[test]
    fn multi_objective_keys_round_trip_and_default_to_omitted() {
        let spec = full_spec()
            .input_seed(7)
            .input_seed(11)
            .library(LibrarySpec::EvoApproxExtended)
            .objectives(vec![
                ObjectiveDecl {
                    kind: Objective::QorError,
                    reference: Some(40.0),
                },
                ObjectiveDecl::new(Objective::OpCost),
            ])
            .ranking(Ranking::Pareto);
        let back = ExperimentSpec::from_json_str(&spec.to_json_string()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.input_seeds, vec![7, 11]);
        assert_eq!(back.ranking, Ranking::Pareto);
        assert_eq!(back.objectives[0].reference, Some(40.0));
        // Defaults serialise with no multi-objective keys at all, so
        // pre-existing spec files stay byte-identical.
        let text = full_spec().to_json_string();
        for key in ["input_seeds", "library", "objectives", "ranking"] {
            assert!(!text.contains(key), "default spec must omit `{key}`");
        }
        let sparse = ExperimentSpec::from_json_str(&text).unwrap();
        assert_eq!(sparse.objectives, ObjectiveDecl::default_set());
        assert_eq!(sparse.ranking, Ranking::Scalarised);
        assert_eq!(sparse.library, LibrarySpec::EvoApprox);
        assert!(sparse.input_seeds.is_empty());
    }

    #[test]
    fn multi_objective_validation_rejects_bad_shapes() {
        let base = || {
            ExperimentSpec::new("mo")
                .benchmark(BenchmarkSpec::MatMul(4))
                .agent(AgentKind::QLearning)
        };
        // input_seeds: explicit-but-empty and duplicates are rejected.
        let empty = r#"{
            "name": "x",
            "benchmarks": [{"kind": "matmul", "size": 4}],
            "agents": ["q-learning"],
            "input_seeds": []
        }"#;
        assert!(ExperimentSpec::from_json_str(empty)
            .unwrap_err()
            .0
            .contains("input_seeds"));
        let dup = base().input_seed(3).input_seed(3);
        assert!(dup.validate().unwrap_err().0.contains("repeats"));
        // Objectives: empty, duplicated or non-finite references fail.
        assert!(base()
            .objectives(vec![])
            .validate()
            .unwrap_err()
            .0
            .contains("objective"));
        let twice = base().objectives(vec![
            ObjectiveDecl::new(Objective::Evals),
            ObjectiveDecl::new(Objective::Evals),
        ]);
        assert!(twice.validate().unwrap_err().0.contains("twice"));
        let bad_ref = base().objectives(vec![ObjectiveDecl {
            kind: Objective::OpCost,
            reference: Some(f64::NAN),
        }]);
        assert!(bad_ref.validate().unwrap_err().0.contains("reference"));
        // Unknown names are parse errors.
        for (key, value) in [
            ("ranking", "\"nope\""),
            ("library", "\"nope\""),
            ("objectives", "[\"nope\"]"),
        ] {
            let text = format!(
                r#"{{
                    "name": "x",
                    "benchmarks": [{{"kind": "matmul", "size": 4}}],
                    "agents": ["q-learning"],
                    "{key}": {value}
                }}"#
            );
            assert!(
                ExperimentSpec::from_json_str(&text).is_err(),
                "{key}={value} must be rejected"
            );
        }
    }

    #[test]
    fn input_seeds_expand_the_grid_for_shape_checks() {
        let spec = ExperimentSpec::new("grid")
            .benchmark(BenchmarkSpec::MatMul(4))
            .agent(AgentKind::QLearning)
            .agent(AgentKind::Sarsa)
            .seeds(SeedRange::new(0, 3))
            .input_seed(1)
            .input_seed(2);
        assert_eq!(spec.n_cells(), 4);
        assert_eq!(spec.total_runs(), 12);
        // A weighted policy must match the *expanded* cell count.
        let short = spec
            .clone()
            .budget(400)
            .policy(BudgetPolicy::Weighted(vec![1.0, 1.0]));
        assert!(short.validate().unwrap_err().0.contains("4"));
        spec.budget(400)
            .policy(BudgetPolicy::Weighted(vec![1.0, 1.0, 1.0, 1.0]))
            .validate()
            .unwrap();
    }

    #[test]
    fn validation_rejects_unrunnable_specs() {
        let no_bench = ExperimentSpec::new("x").agent(AgentKind::QLearning);
        assert!(no_bench.validate().is_err());
        let no_agent = ExperimentSpec::new("x").benchmark(BenchmarkSpec::MatMul(4));
        assert!(no_agent.validate().is_err());
        let zero_seeds = ExperimentSpec::new("x")
            .benchmark(BenchmarkSpec::MatMul(4))
            .agent(AgentKind::QLearning)
            .seeds(SeedRange::new(0, 0));
        assert!(zero_seeds.validate().is_err());
        let zero_budget = ExperimentSpec::new("x")
            .benchmark(BenchmarkSpec::MatMul(4))
            .agent(AgentKind::QLearning)
            .budget(0);
        assert!(zero_budget.validate().is_err());
        assert!(ExperimentSpec::from_json_str("{\"name\": \"empty\"}").is_err());
    }

    /// Each learning parameter the agents, schedules or reward would panic
    /// on is a typed error naming its field.
    #[test]
    fn validation_names_each_bad_learning_parameter() {
        let parse = |agent: &str, explore: &str| {
            ExperimentSpec::from_json_str(&format!(
                r#"{{"name": "x", "benchmarks": [{{"kind": "matmul", "size": 4}}],
                    "agents": [{agent}], "explore": {{{explore}}}}}"#
            ))
        };
        for (agent, explore, field) in [
            (r#""q-learning""#, r#""gamma": 1.5"#, "explore.gamma"),
            (
                r#""q-learning""#,
                r#""max_reward": 0"#,
                "explore.max_reward",
            ),
            (
                r#""q-learning""#,
                r#""rule": {"acc_frac": -0.1}"#,
                "explore.rule.acc_frac",
            ),
            (
                r#""q-learning""#,
                r#""epsilon": {"linear": {"start": 1, "end": 0, "steps": 0}}"#,
                "explore.epsilon",
            ),
            (
                r#""q-learning""#,
                r#""alpha": {"exponential": {"start": 1, "end": 0, "decay": 1.2}}"#,
                "explore.alpha",
            ),
            (r#"{"q-lambda": 1.5}"#, "", "q-lambda"),
        ] {
            let err = parse(agent, explore).unwrap_err();
            assert!(err.0.contains(field), "{explore} {agent}: {err}");
        }
        // Boundary values validate: gamma 0 and 1, lambda 0 and 1, a zero
        // fraction.
        parse(
            r#"{"q-lambda": 1}, {"q-lambda": 0}"#,
            r#""gamma": 1, "rule": {"power_frac": 0}"#,
        )
        .unwrap();
        parse(r#""sarsa""#, r#""gamma": 0"#).unwrap();
        // Non-finite values reach validation through the builder API.
        let infinite_reward = ExperimentSpec::new("x")
            .benchmark(BenchmarkSpec::MatMul(4))
            .agent(AgentKind::QLearning)
            .explore(ExploreOptions {
                max_reward: f64::INFINITY,
                ..Default::default()
            });
        assert!(infinite_reward
            .validate()
            .unwrap_err()
            .0
            .contains("max_reward"));
    }

    #[test]
    fn budget_policies_round_trip_through_json() {
        let base = || {
            ExperimentSpec::new("policy")
                .benchmark(BenchmarkSpec::MatMul(4))
                .agent(AgentKind::QLearning)
                .agent(AgentKind::Sarsa)
                .budget(500)
        };
        for policy in [
            BudgetPolicy::Uniform,
            BudgetPolicy::Weighted(vec![1.0, 3.0]),
            BudgetPolicy::SuccessiveHalving {
                rounds: 3,
                keep_fraction: 0.5,
            },
            BudgetPolicy::AsyncHalving {
                rungs: 4,
                keep_fraction: 0.25,
            },
            BudgetPolicy::Hyperband {
                brackets: vec![HalvingBracket::new(3, 0.5), HalvingBracket::new(1, 0.75)],
            },
        ] {
            let spec = base().policy(policy.clone());
            let back = ExperimentSpec::from_json_str(&spec.to_json_string()).unwrap();
            assert_eq!(back.policy, policy);
            assert_eq!(back, spec);
        }
        // Files without a policy key default to uniform.
        assert_eq!(
            ExperimentSpec::from_json_str(&base().to_json_string())
                .unwrap()
                .policy,
            BudgetPolicy::Uniform
        );
    }

    #[test]
    fn hyperband_eta_synthesises_a_bracket_ladder() {
        // 9 cells at eta 3: s_max = 2, so brackets of 3, 2, 1 rounds all
        // keeping a third per round.
        let policy = BudgetPolicy::hyperband_from_eta(3, 9).unwrap();
        let third = 1.0 / 3.0;
        assert_eq!(
            policy,
            BudgetPolicy::Hyperband {
                brackets: vec![
                    HalvingBracket::new(3, third),
                    HalvingBracket::new(2, third),
                    HalvingBracket::new(1, third),
                ],
            }
        );
        // Non-powers floor: 8 cells at eta 3 still give s_max = 1.
        assert_eq!(
            BudgetPolicy::hyperband_from_eta(3, 8).unwrap(),
            BudgetPolicy::Hyperband {
                brackets: vec![HalvingBracket::new(2, third), HalvingBracket::new(1, third)],
            }
        );
        // A single cell degenerates to one single-round bracket.
        assert_eq!(
            BudgetPolicy::hyperband_from_eta(2, 1).unwrap(),
            BudgetPolicy::Hyperband {
                brackets: vec![HalvingBracket::new(1, 0.5)],
            }
        );
        // eta must actually eliminate cells; the grid must be non-empty.
        assert!(BudgetPolicy::hyperband_from_eta(1, 9)
            .unwrap_err()
            .0
            .contains("eta"));
        assert!(BudgetPolicy::hyperband_from_eta(0, 9).is_err());
        assert!(BudgetPolicy::hyperband_from_eta(3, 0).is_err());
    }

    #[test]
    fn hyperband_eta_shorthand_parses_grid_aware_and_round_trips_explicit() {
        // 1 benchmark × 2 agents = 2 cells at eta 2: brackets 2,1 @ 0.5.
        let text = r#"{
            "name": "hb",
            "benchmarks": [{"kind": "matmul", "size": 4}],
            "agents": ["q-learning", "sarsa"],
            "budget": 500,
            "policy": {"hyperband": {"eta": 2}}
        }"#;
        let spec = ExperimentSpec::from_json_str(text).unwrap();
        let expected = BudgetPolicy::Hyperband {
            brackets: vec![HalvingBracket::new(2, 0.5), HalvingBracket::new(1, 0.5)],
        };
        assert_eq!(spec.policy, expected);
        // Serialising emits explicit brackets, and those parse back to the
        // same policy without needing the grid.
        let back = ExperimentSpec::from_json_str(&spec.to_json_string()).unwrap();
        assert_eq!(back.policy, expected);
        assert!(spec.to_json_string().contains("brackets"));
        assert!(!spec.to_json_string().contains("eta"));
        // Degenerate eta values are rejected at parse time.
        for (eta, msg) in [("1", "eta"), ("0", "eta")] {
            let bad = text.replace("\"eta\": 2", &format!("\"eta\": {eta}"));
            let err = ExperimentSpec::from_json_str(&bad).unwrap_err();
            assert!(err.0.contains(msg), "{err}");
        }
        // eta and explicit brackets are mutually exclusive.
        let both = text.replace(
            "{\"eta\": 2}",
            "{\"eta\": 2, \"brackets\": [{\"rounds\": 1, \"keep_fraction\": 0.5}]}",
        );
        let err = ExperimentSpec::from_json_str(&both).unwrap_err();
        assert!(err.0.contains("not both"), "{err}");
    }

    #[test]
    fn validation_rejects_degenerate_budget_policies() {
        let base = || {
            ExperimentSpec::new("policy")
                .benchmark(BenchmarkSpec::MatMul(4))
                .agent(AgentKind::QLearning)
                .agent(AgentKind::Sarsa)
                .budget(500)
        };
        // Valid configurations pass.
        base()
            .policy(BudgetPolicy::Weighted(vec![1.0, 2.0]))
            .validate()
            .unwrap();
        base()
            .policy(BudgetPolicy::SuccessiveHalving {
                rounds: 2,
                keep_fraction: 0.5,
            })
            .validate()
            .unwrap();
        // Shares must match the 2-cell grid, be positive and finite.
        for shares in [vec![1.0], vec![1.0, -1.0], vec![1.0, f64::NAN]] {
            let err = base()
                .policy(BudgetPolicy::Weighted(shares))
                .validate()
                .unwrap_err();
            assert!(!err.0.is_empty());
        }
        // Budget-splitting policies need a budget.
        let mut no_budget = base().policy(BudgetPolicy::Weighted(vec![1.0, 1.0]));
        no_budget.budget = None;
        assert!(no_budget.validate().unwrap_err().0.contains("budget"));
        let mut no_budget = base().policy(BudgetPolicy::SuccessiveHalving {
            rounds: 2,
            keep_fraction: 0.5,
        });
        no_budget.budget = None;
        assert!(no_budget.validate().unwrap_err().0.contains("budget"));
        // Degenerate halving parameters are the divide-by-zero cases.
        let err = base()
            .policy(BudgetPolicy::SuccessiveHalving {
                rounds: 0,
                keep_fraction: 0.5,
            })
            .validate()
            .unwrap_err();
        assert!(err.0.contains("round"), "{err}");
        for keep in [0.0, 1.0, -0.5, f64::NAN] {
            let err = base()
                .policy(BudgetPolicy::SuccessiveHalving {
                    rounds: 2,
                    keep_fraction: keep,
                })
                .validate()
                .unwrap_err();
            assert!(err.0.contains("keep_fraction"), "{err}");
        }
    }

    #[test]
    fn validation_rejects_degenerate_rung_and_bracket_configs() {
        let base = || {
            ExperimentSpec::new("rungs")
                .benchmark(BenchmarkSpec::MatMul(4))
                .agent(AgentKind::QLearning)
                .agent(AgentKind::Sarsa)
                .budget(500)
        };
        // Valid configurations pass.
        base()
            .policy(BudgetPolicy::AsyncHalving {
                rungs: 3,
                keep_fraction: 0.5,
            })
            .validate()
            .unwrap();
        base()
            .policy(BudgetPolicy::Hyperband {
                brackets: vec![HalvingBracket::new(2, 0.5), HalvingBracket::new(1, 0.5)],
            })
            .validate()
            .unwrap();
        // Zero rungs / rounds are the divide-by-zero hazards.
        let err = base()
            .policy(BudgetPolicy::AsyncHalving {
                rungs: 0,
                keep_fraction: 0.5,
            })
            .validate()
            .unwrap_err();
        assert!(err.0.contains("rung"), "{err}");
        let err = base()
            .policy(BudgetPolicy::Hyperband {
                brackets: vec![HalvingBracket::new(0, 0.5)],
            })
            .validate()
            .unwrap_err();
        assert!(err.0.contains("round"), "{err}");
        // An empty bracket list has nothing to sweep.
        let err = base()
            .policy(BudgetPolicy::Hyperband { brackets: vec![] })
            .validate()
            .unwrap_err();
        assert!(err.0.contains("bracket"), "{err}");
        // Keep fractions must lie strictly inside (0, 1) everywhere.
        for keep in [0.0, 1.0, f64::INFINITY] {
            assert!(base()
                .policy(BudgetPolicy::AsyncHalving {
                    rungs: 2,
                    keep_fraction: keep,
                })
                .validate()
                .is_err());
            assert!(base()
                .policy(BudgetPolicy::Hyperband {
                    brackets: vec![HalvingBracket::new(2, keep)],
                })
                .validate()
                .is_err());
        }
        // Both need a budget to split.
        for policy in [
            BudgetPolicy::AsyncHalving {
                rungs: 2,
                keep_fraction: 0.5,
            },
            BudgetPolicy::Hyperband {
                brackets: vec![HalvingBracket::new(2, 0.5)],
            },
        ] {
            let mut no_budget = base().policy(policy);
            no_budget.budget = None;
            assert!(no_budget.validate().unwrap_err().0.contains("budget"));
        }
    }

    #[test]
    fn validation_explains_empty_seed_and_budget_errors() {
        let zero_seeds = ExperimentSpec::new("x")
            .benchmark(BenchmarkSpec::MatMul(4))
            .agent(AgentKind::QLearning)
            .seeds(SeedRange::new(0, 0));
        assert!(zero_seeds.validate().unwrap_err().0.contains("seed"));
        let zero_budget = ExperimentSpec::new("x")
            .benchmark(BenchmarkSpec::MatMul(4))
            .agent(AgentKind::QLearning)
            .budget(0);
        assert!(zero_budget.validate().unwrap_err().0.contains("budget"));
        let zero_steps = ExperimentSpec::new("x")
            .benchmark(BenchmarkSpec::MatMul(4))
            .agent(AgentKind::QLearning)
            .explore(ExploreOptions {
                max_steps: 0,
                ..Default::default()
            });
        assert!(zero_steps.validate().unwrap_err().0.contains("step"));
    }

    #[test]
    fn policy_cli_shorthand_parses() {
        assert_eq!(
            BudgetPolicy::parse_cli("uniform").unwrap(),
            BudgetPolicy::Uniform
        );
        assert_eq!(
            BudgetPolicy::parse_cli("weighted:1,2.5,0.5").unwrap(),
            BudgetPolicy::Weighted(vec![1.0, 2.5, 0.5])
        );
        assert_eq!(
            BudgetPolicy::parse_cli("halving:3,0.5").unwrap(),
            BudgetPolicy::SuccessiveHalving {
                rounds: 3,
                keep_fraction: 0.5
            }
        );
        assert_eq!(
            BudgetPolicy::parse_cli("asha:4,0.25").unwrap(),
            BudgetPolicy::AsyncHalving {
                rungs: 4,
                keep_fraction: 0.25
            }
        );
        assert_eq!(
            BudgetPolicy::parse_cli("hyperband:3,0.5;2,0.5;1,0.75").unwrap(),
            BudgetPolicy::Hyperband {
                brackets: vec![
                    HalvingBracket::new(3, 0.5),
                    HalvingBracket::new(2, 0.5),
                    HalvingBracket::new(1, 0.75),
                ]
            }
        );
        assert!(BudgetPolicy::parse_cli("nope").is_err());
        assert!(BudgetPolicy::parse_cli("halving:3").is_err());
        assert!(BudgetPolicy::parse_cli("weighted:one").is_err());
        assert!(BudgetPolicy::parse_cli("asha:2").is_err());
        assert!(BudgetPolicy::parse_cli("hyperband:3,0.5;x").is_err());
    }

    #[test]
    fn benchmark_specs_build_their_workloads() {
        let cases = [
            (BenchmarkSpec::MatMul(4), "matmul-4x4"),
            (BenchmarkSpec::Fir(40), "fir-40"),
            (BenchmarkSpec::Dot(8), "dot-8"),
        ];
        for (spec, name) in cases {
            assert_eq!(spec.build().name(), name);
        }
        for spec in [
            BenchmarkSpec::Conv2d(6),
            BenchmarkSpec::Sobel(6),
            BenchmarkSpec::Dct8(2),
        ] {
            spec.build().prepare(1).expect("workload must prepare");
        }
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert!(ExperimentSpec::from_json_str(
            r#"{"name":"x","benchmarks":[{"kind":"nope","size":4}],"agents":["q-learning"]}"#
        )
        .is_err());
        assert!(ExperimentSpec::from_json_str(
            r#"{"name":"x","benchmarks":[{"kind":"matmul","size":4}],"agents":["nope"]}"#
        )
        .is_err());
    }

    #[test]
    fn unknown_keys_are_rejected_naming_their_path() {
        for (entries, path) in [
            (r#""budjet": 4000"#, "budjet"),
            (r#""explore": {"max_stepz": 5}"#, "explore.max_stepz"),
            (r#""explore": {"rule": {"acc": 0.1}}"#, "explore.rule.acc"),
            (
                r#""explore": {"alpha": {"konstant": 0.1}}"#,
                "explore.alpha.konstant",
            ),
            (
                r#""explore": {"epsilon": {"linear": {"start": 1, "end": 0, "step": 9}}}"#,
                "explore.epsilon.linear.step",
            ),
            (r#""seeds": {"begin": 3}"#, "seeds.begin"),
            (
                r#""objectives": [{"kind": "op-cost", "ref": 1}]"#,
                "objectives[0].ref",
            ),
            (
                r#""budget": 90, "policy": {"asha": {"rungs": 2, "keep": 0.5}}"#,
                "policy.asha.keep",
            ),
            (
                r#""budget": 90, "policy": {"hyperband": {"eta": 2, "rounds": 1}}"#,
                "policy.hyperband.rounds",
            ),
            (
                r#""budget": 90, "policy": {"hyperband": {"brackets": [{"rungs": 1}]}}"#,
                "policy.hyperband.brackets[0].rungs",
            ),
        ] {
            let text = format!(
                r#"{{"name": "x", "benchmarks": [{{"kind": "dot", "size": 8}}],
                    "agents": ["q-learning"], {entries}}}"#
            );
            let err = ExperimentSpec::from_json_str(&text).unwrap_err();
            assert!(err.0.contains(&format!("unknown key `{path}`")), "{err}");
        }
        let err = ExperimentSpec::from_json_str(
            r#"{"name": "x", "benchmarks": [{"kind": "dot", "size": 8, "n": 2}],
                "agents": ["q-learning", {"q-lambda": 0.5, "lambda": 0.5}]}"#,
        )
        .unwrap_err();
        assert!(err.0.contains("unknown key `benchmarks[0].n`"), "{err}");
        let err = ExperimentSpec::from_json_str(
            r#"{"name": "x", "benchmarks": [{"kind": "dot", "size": 8}],
                "agents": ["q-learning", {"q-lambda": 0.5, "lambda": 0.5}]}"#,
        )
        .unwrap_err();
        assert!(err.0.contains("unknown key `agents[1].lambda`"), "{err}");
        let err = ExperimentSpec::from_json_str(
            r#"{"name": "x", "benchmarks": [{"kind": "dot", "size": 8}], "agents": ["q-learning"],
                "explore": {"alpha": {"linear": {"start": 1, "end": 0}}}}"#,
        )
        .unwrap_err();
        assert!(
            err.0.contains("missing key `explore.alpha.linear.steps`"),
            "{err}"
        );
    }

    #[test]
    fn seed_range_iterates_its_span() {
        let seeds: Vec<u64> = SeedRange::new(5, 3).iter().collect();
        assert_eq!(seeds, vec![5, 6, 7]);
        assert_eq!(SeedRange::single(9).iter().collect::<Vec<_>>(), vec![9]);
    }
}
