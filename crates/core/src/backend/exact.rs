//! The exact evaluation backend: designs run on the compiled engine by
//! default, with the interpreter kept as the reference.

use super::cache::{ClassMap, ScopeTable, SharedCache};
use super::{EvalBackend, EvalMetrics};
use crate::config::{AxConfig, SpaceDims};
use ax_operators::metrics::{mae, signed_mean_error};
use ax_operators::{OperatorLibrary, OperatorSpec};
use ax_telemetry::Telemetry;
use ax_vm::compile::CompiledSkeleton;
use ax_vm::exec::{run_from_image, Binding, ExecScratch, Executor};
use ax_vm::instrument::VarMask;
use ax_vm::{Fingerprint, Program, VmError};
use ax_workloads::Workload;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which execution engine [`Evaluator`]s spawned from an [`EvalContext`]
/// run cache-missing designs on. Both engines are bit-identical in outputs
/// and profiles; they differ only in speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecEngine {
    /// The threaded-code engine ([`ax_vm::compile`]): designs are
    /// specialised from a shared offset-resolved skeleton and run without
    /// per-instruction flag or cost-table lookups. The default.
    #[default]
    Compiled,
    /// The instrumented interpreter ([`ax_vm::exec::run_from_image`]) —
    /// kept as the reference implementation (`"exact-interpreted"` in
    /// campaign specs) for differential testing and perf baselines.
    Interpreter,
}

/// A cheap-to-clone, `Send + Sync` handle for spawning evaluators of one
/// prepared benchmark.
///
/// The context owns the benchmark's program, its compiled skeleton, the
/// precise reference outputs and the operator library behind `Arc`s, plus
/// (optionally) a [`SharedCache`] scope: the scope's table of outcome
/// slots, laid out by a map from design ordinal to execution class.
/// Calling [`EvalContext::evaluator`] once per run is how sweeps fan out
/// over a campaign's workers: every evaluator shares the preparation work
/// and the design cache, while keeping its own scratch buffers and local
/// memo table. A context for another input seed of the same benchmark
/// ([`EvalContext::for_input_seed`]) shares the program, skeleton and
/// class map too.
#[derive(Debug, Clone)]
pub struct EvalContext {
    benchmark: Arc<str>,
    input_seed: u64,
    program: Arc<Program>,
    lib: Arc<OperatorLibrary>,
    dims: SpaceDims,
    /// Initial interpreter memory (inputs bound, temps zeroed), resolved
    /// once per context: each design evaluation replays it with a memcpy
    /// instead of re-binding (and re-cloning) every input vector.
    base_image: Arc<Vec<i64>>,
    /// The program's offset-resolved threaded-code skeleton, built once per
    /// benchmark and shared by every spawned evaluator's compiled engine,
    /// with the table of opcode vectors it specialises on demand.
    skeleton: Arc<CompiledSkeleton>,
    engine: ExecEngine,
    precise_outputs: Arc<Vec<f64>>,
    precise_power: f64,
    precise_time: f64,
    /// The digest of the program and of the library's operators at its
    /// widths, before the base image is folded in ([`fingerprint`]).
    identity: Fingerprint,
    shared: Option<SharedScope>,
    /// Telemetry handle spawned evaluators report through. Disabled by
    /// default: the hot path then pays exactly one branch per execution.
    telemetry: Telemetry,
}

/// A context's cache scope: the cache, the scope's table, and the classes
/// this context's evaluators resolved.
#[derive(Debug, Clone)]
struct SharedScope {
    cache: Arc<SharedCache>,
    table: Arc<ScopeTable>,
    /// Bit `c` is set once an evaluator of this context resolved a design
    /// of class `c` — through the cache, whoever computed it.
    resolved: Arc<[AtomicU64]>,
}

impl SharedScope {
    fn new(cache: Arc<SharedCache>, table: Arc<ScopeTable>) -> Self {
        let resolved = (0..table.class_count().div_ceil(64))
            .map(|_| AtomicU64::new(0))
            .collect();
        Self {
            cache,
            table,
            resolved,
        }
    }

    /// Marks class `class` resolved. A class already marked costs one
    /// load and no write.
    #[inline]
    fn mark(&self, class: usize) {
        let (word, bit) = (&self.resolved[class / 64], 1u64 << (class % 64));
        if word.load(Ordering::Relaxed) & bit == 0 {
            word.fetch_or(bit, Ordering::Relaxed);
        }
    }
}

/// The digest of what fixes a design's outcome apart from the inputs: the
/// program as `skeleton` runs it, and the model and costs of every operator
/// `lib` holds at the program's widths, in id order.
fn identity(skeleton: &CompiledSkeleton, lib: &OperatorLibrary, program: &Program) -> Fingerprint {
    fn operator(fp: &mut Fingerprint, model: &impl Hash, spec: &OperatorSpec) {
        model.hash(fp);
        fp.write_u64(spec.power_mw().to_bits());
        fp.write_u64(spec.time_ns().to_bits());
    }
    let adders = lib.adders(program.add_width());
    let muls = lib.multipliers(program.mul_width());
    let mut fp = Fingerprint::new();
    fp.write_u64(skeleton.fingerprint());
    fp.write_usize(adders.len());
    fp.write_usize(muls.len());
    for entry in adders {
        operator(&mut fp, &entry.model, &entry.spec);
    }
    for entry in muls {
        operator(&mut fp, &entry.model, &entry.spec);
    }
    fp
}

/// The digest of everything that fixes a design's outcome in a context
/// besides the design: `identity` (the program as the compiled engine runs
/// it, and the model and power/time costs of every operator the library
/// holds at the program's widths) with the base memory image `image`, so
/// the inputs, folded in. The engine is left out: both give bit-identical
/// outcomes. With the benchmark name and input seed it keys the context's
/// cache scope; it has no per-process seed, so a saved cache file keeps it.
fn fingerprint(mut identity: Fingerprint, image: &[i64]) -> u64 {
    identity.words(image);
    identity.finish()
}

impl EvalContext {
    /// Prepares `workload` with inputs from `input_seed` and runs the
    /// precise reference, without a shared cache.
    ///
    /// # Errors
    ///
    /// Fails if the workload cannot be built, the library lacks operators
    /// at the workload's widths, the design space holds more than
    /// [`SpaceDims::MAX_DESIGNS`] designs
    /// ([`VmError::DesignSpaceTooLarge`]), or the precise run fails.
    pub fn new(
        workload: &dyn Workload,
        lib: Arc<OperatorLibrary>,
        input_seed: u64,
    ) -> Result<Self, VmError> {
        Self::build(workload, lib, input_seed, None)
    }

    /// Like [`EvalContext::new`], but evaluators spawned from this context
    /// share memoised designs through `cache`.
    ///
    /// # Errors
    ///
    /// Same as [`EvalContext::new`].
    pub fn with_cache(
        workload: &dyn Workload,
        lib: Arc<OperatorLibrary>,
        input_seed: u64,
        cache: Arc<SharedCache>,
    ) -> Result<Self, VmError> {
        Self::build(workload, lib, input_seed, Some(cache))
    }

    fn build(
        workload: &dyn Workload,
        lib: Arc<OperatorLibrary>,
        input_seed: u64,
        cache: Option<Arc<SharedCache>>,
    ) -> Result<Self, VmError> {
        let benchmark: Arc<str> = workload.name().into();
        let program = workload.build()?;
        let n_add = lib.adders(program.add_width()).len();
        let n_mul = lib.multipliers(program.mul_width()).len();
        if n_add == 0 {
            return Err(VmError::UnsupportedWidth {
                what: "adder",
                width_bits: program.add_width().bits(),
            });
        }
        if n_mul == 0 {
            return Err(VmError::UnsupportedWidth {
                what: "multiplier",
                width_bits: program.mul_width().bits(),
            });
        }
        // Checked before anything builds a `VarMask`, which panics past 64
        // variables.
        let n_vars = program.approximable_vars().len();
        let dims = SpaceDims {
            n_add,
            n_mul,
            n_vars: u32::try_from(n_vars).unwrap_or(u32::MAX),
        };
        if !dims.within_design_cap() {
            return Err(VmError::DesignSpaceTooLarge {
                adders: n_add,
                multipliers: n_mul,
                variables: n_vars,
                max_designs: SpaceDims::MAX_DESIGNS,
            });
        }
        let skeleton = Arc::new(CompiledSkeleton::new(&program));
        let identity = identity(&skeleton, &lib, &program);
        let reference = Reference::run(&program, &lib, &workload.inputs(input_seed))?;
        let fingerprint = fingerprint(identity, &reference.base_image);
        let shared = cache.map(|cache| {
            let classes = || Arc::new(ClassMap::new(&skeleton, dims));
            let table = cache.intern(&benchmark, input_seed, fingerprint, classes);
            SharedScope::new(cache, table)
        });
        Ok(Self {
            benchmark,
            input_seed,
            program: Arc::new(program),
            lib,
            dims,
            base_image: reference.base_image,
            skeleton,
            engine: ExecEngine::default(),
            precise_outputs: reference.outputs,
            precise_power: reference.power,
            precise_time: reference.time,
            identity,
            shared,
            telemetry: Telemetry::disabled(),
        })
    }

    /// This context for the inputs `workload` generates from `input_seed`:
    /// new inputs, precise reference, fingerprint and cache scope, sharing
    /// everything else — program, compiled skeleton and its
    /// specialisations, class map, library, engine, telemetry and the
    /// shared cache. `workload` must be the benchmark this context was
    /// built from; a workload builds the same program for every seed, so
    /// the program is not rebuilt, and only the new base image is hashed
    /// into the fingerprint.
    ///
    /// # Errors
    ///
    /// Fails if the inputs do not fit the program or the precise run fails.
    ///
    /// # Panics
    ///
    /// Panics if `workload` is not the benchmark this context was built
    /// from.
    pub fn for_input_seed(
        &self,
        workload: &dyn Workload,
        input_seed: u64,
    ) -> Result<Self, VmError> {
        assert_eq!(
            workload.name(),
            *self.benchmark,
            "a context derives only contexts of its own benchmark"
        );
        let reference = Reference::run(&self.program, &self.lib, &workload.inputs(input_seed))?;
        let fingerprint = fingerprint(self.identity, &reference.base_image);
        let shared = self.shared.as_ref().map(|shared| {
            let classes = || Arc::clone(shared.table.class_map());
            let table = shared
                .cache
                .intern(&self.benchmark, input_seed, fingerprint, classes);
            SharedScope::new(Arc::clone(&shared.cache), table)
        });
        Ok(Self {
            input_seed,
            base_image: reference.base_image,
            precise_outputs: reference.outputs,
            precise_power: reference.power,
            precise_time: reference.time,
            shared,
            ..self.clone()
        })
    }

    /// Spawns an evaluator sharing this context's preparation and cache.
    pub fn evaluator(&self) -> Evaluator {
        Evaluator {
            runner: Runner {
                mask: VarMask::none(&self.program),
                executions: 0,
                scratch: ExecScratch::new(),
            },
            ctx: self.clone(),
            slots: Vec::new(),
            memo: Vec::new(),
            released: 0,
            hits: 0,
            shared_hits: 0,
        }
    }

    /// The canonical member of `config`'s execution class (see
    /// [`CompiledSkeleton::class_representative`]): the design executed on
    /// a shared-cache miss, and the one a saved cache file lists for the
    /// class. A design and its representative evaluate to identical metrics
    /// on either engine.
    pub fn class_representative(&self, config: &AxConfig) -> AxConfig {
        let (adder, mul, vars) =
            self.skeleton
                .class_representative(config.adder, config.mul, config.vars);
        AxConfig { adder, mul, vars }
    }

    /// This context with a different execution engine; evaluators spawned
    /// afterwards run cache-missing designs on it. The default is
    /// [`ExecEngine::Compiled`].
    #[must_use]
    pub fn with_engine(mut self, engine: ExecEngine) -> Self {
        self.engine = engine;
        self
    }

    /// The execution engine spawned evaluators use.
    pub fn engine(&self) -> ExecEngine {
        self.engine
    }

    /// This context reporting through `telemetry` (a cheap shared handle):
    /// evaluators spawned afterwards record per-execution latency in the
    /// `exec.latency_ns` histogram. The default is
    /// [`Telemetry::disabled`], which costs one branch per execution.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = telemetry.clone();
        self
    }

    /// The telemetry handle spawned evaluators report through.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The benchmark's name.
    pub fn benchmark(&self) -> &str {
        &self.benchmark
    }

    /// The benchmark's name as a shared handle, which every run of the
    /// context reports without copying it.
    pub fn shared_benchmark(&self) -> &Arc<str> {
        &self.benchmark
    }

    /// The benchmark input seed this context was prepared with.
    pub fn input_seed(&self) -> u64 {
        self.input_seed
    }

    /// The operator library evaluators bind against.
    pub fn library(&self) -> &Arc<OperatorLibrary> {
        &self.lib
    }

    /// The shared cache, if this context carries one.
    pub fn shared_cache(&self) -> Option<&Arc<SharedCache>> {
        self.shared.as_ref().map(|s| &s.cache)
    }

    /// Distinct execution classes this context's evaluators resolved
    /// through the shared cache (executed, or answered by it), over every
    /// evaluator spawned from this context or its clones. 0 without a
    /// cache. Unlike the scope's size, it does not count classes other
    /// contexts put in the cache.
    pub(crate) fn resolved_classes(&self) -> u64 {
        self.shared.as_ref().map_or(0, |s| {
            s.resolved
                .iter()
                .map(|w| u64::from(w.load(Ordering::Relaxed).count_ones()))
                .sum()
        })
    }

    /// Derives the Δ metrics of one executed design from its outcome.
    fn metrics_from(&self, outcome: &ax_vm::exec::ExecOutcome) -> EvalMetrics {
        let approx: Vec<f64> = outcome.outputs.iter().map(|&v| v as f64).collect();
        EvalMetrics {
            delta_acc: mae(&self.precise_outputs, &approx),
            delta_power: self.precise_power - outcome.profile.power_mw,
            delta_time: self.precise_time - outcome.profile.time_ns,
            signed_error: signed_mean_error(&self.precise_outputs, &approx),
            power: outcome.profile.power_mw,
            time_ns: outcome.profile.time_ns,
        }
    }
}

/// One input seed's base memory image and precise reference run.
struct Reference {
    base_image: Arc<Vec<i64>>,
    outputs: Arc<Vec<f64>>,
    power: f64,
    time: f64,
}

impl Reference {
    /// Binds `inputs` to `program` once and runs the precise design on the
    /// interpreter from the resulting image.
    fn run(
        program: &Program,
        lib: &OperatorLibrary,
        inputs: &[(String, Vec<i64>)],
    ) -> Result<Self, VmError> {
        let mut executor = Executor::new(program);
        for (name, values) in inputs {
            executor = executor.with_input(name, values)?;
        }
        let base_image = executor.initial_memory()?;
        let outcome = run_from_image(
            program,
            &base_image,
            &Binding::precise(lib, program)?,
            &VarMask::none(program),
            &mut ExecScratch::new(),
        )?;
        Ok(Self {
            base_image: Arc::new(base_image),
            outputs: Arc::new(outcome.outputs.iter().map(|&v| v as f64).collect()),
            power: outcome.profile.power_mw,
            time: outcome.profile.time_ns,
        })
    }
}

/// The exact evaluation backend: runs configurations of one benchmark
/// on the context's execution engine against the precise reference,
/// memoising by configuration.
///
/// The local memo is keyed by the raw configuration, so budget metering
/// ([`EvalBackend::distinct_evaluations`]) counts designs, not classes. It
/// is a list of the designs in the order they were first evaluated,
/// indexed through a slot per design ordinal ([`SpaceDims::ordinal`]), so
/// a hit is two array reads and no hash. Behind it, the shared cache holds
/// one outcome slot per execution class
/// ([`EvalContext::class_representative`]): designs that flag the same
/// instructions with the same operators share one slot and one execution,
/// and a design reaches its slot through the context's ordinal-to-class
/// map, with no lock and no hash.
#[derive(Debug)]
pub struct Evaluator {
    ctx: EvalContext,
    /// `slots[ordinal]` indexes `memo`, or is [`VACANT`] for a design not
    /// evaluated yet. Grown to the largest ordinal evaluated; the space cap
    /// keeps every index below `u16::MAX`.
    slots: Vec<u16>,
    /// Every evaluated design with its metrics, in first-evaluation order.
    memo: Vec<(AxConfig, EvalMetrics)>,
    /// Designs the memo held when it was released
    /// ([`EvalBackend::release_memo`]); they still count as distinct.
    released: u64,
    hits: u64,
    shared_hits: u64,
    runner: Runner,
}

/// The memo slot of a design not evaluated yet.
const VACANT: u16 = u16::MAX;

/// The emptied buffers of an [`Evaluator`]'s memo, which
/// [`EvalBackend::release_memo`] fills and [`EvalBackend::adopt_memo`]
/// draws on, so a chain of runs grows one memo instead of one per run.
#[derive(Debug, Default)]
pub struct MemoStorage {
    slots: Vec<u16>,
    memo: Vec<(AxConfig, EvalMetrics)>,
}

/// An evaluator's execution state: scratch buffers reused across designs,
/// plus the execution count. The compiled engine keeps no per-evaluator
/// state: each design's opcode vector comes from the context's shared
/// skeleton table.
#[derive(Debug)]
struct Runner {
    executions: u64,
    scratch: ExecScratch,
    /// Reused selection mask for the interpreter — rebuilding the variable
    /// table per design would be an allocation on the hot path.
    mask: VarMask,
}

impl Runner {
    fn execute(&mut self, ctx: &EvalContext, config: &AxConfig) -> Result<EvalMetrics, VmError> {
        // One branch when telemetry is disabled — the hot path stays free.
        let started = ctx.telemetry.enabled().then(std::time::Instant::now);
        let binding = Binding::new(&ctx.lib, &ctx.program, config.adder, config.mul)?;
        let outcome = match ctx.engine {
            ExecEngine::Compiled => ctx
                .skeleton
                .compile(&binding, config.vars)
                .run(&ctx.base_image, &mut self.scratch)?,
            ExecEngine::Interpreter => {
                self.mask.set_raw_bits(config.vars);
                run_from_image(
                    &ctx.program,
                    &ctx.base_image,
                    &binding,
                    &self.mask,
                    &mut self.scratch,
                )?
            }
        };
        self.executions += 1;
        if let Some(t0) = started {
            ctx.telemetry
                .observe("exec.latency_ns", t0.elapsed().as_nanos() as u64);
        }
        Ok(ctx.metrics_from(&outcome))
    }
}

impl Evaluator {
    /// Prepares `workload` with inputs from `input_seed` and runs the
    /// precise reference.
    ///
    /// The library is cloned once into an `Arc`; sweeps spawning many
    /// evaluators should build one [`EvalContext`] instead and share it.
    ///
    /// # Errors
    ///
    /// Fails if the workload cannot be built, the library lacks operators at
    /// the workload's widths, or the precise run fails.
    pub fn new(
        workload: &dyn Workload,
        lib: &OperatorLibrary,
        input_seed: u64,
    ) -> Result<Self, VmError> {
        Ok(EvalContext::new(workload, Arc::new(lib.clone()), input_seed)?.evaluator())
    }

    /// Number of evaluations answered from this evaluator's own cache.
    pub fn cache_hits(&self) -> u64 {
        self.hits
    }

    /// Number of evaluations answered by the shared cache (execution
    /// classes another evaluator executed first, or is executing).
    pub fn shared_cache_hits(&self) -> u64 {
        self.shared_hits
    }

    /// Number of actual executions this evaluator performed.
    pub fn executions(&self) -> u64 {
        self.runner.executions
    }

    /// All evaluated configurations with their metrics (for Pareto
    /// analysis), in the order they were first evaluated. Empty once the
    /// memo was released ([`EvalBackend::release_memo`]).
    pub fn evaluated(&self) -> Vec<(AxConfig, EvalMetrics)> {
        self.memo.clone()
    }

    /// Resolves the design `config`, of ordinal `ordinal`, that the local
    /// memo missed. Without a shared cache the design itself executes; with
    /// one, its execution class's slot answers, and the class
    /// representative executes only on the class's first lookup.
    fn resolve(&mut self, ordinal: usize, config: &AxConfig) -> Result<EvalMetrics, VmError> {
        let Some(shared) = &self.ctx.shared else {
            return self.runner.execute(&self.ctx, config);
        };
        let class = shared.table.class(ordinal);
        shared.mark(class);
        let (runner, ctx) = (&mut self.runner, &self.ctx);
        let (outcome, computed) = shared
            .cache
            .lookup(&shared.table, class, |rep| runner.execute(ctx, rep));
        if !computed {
            self.shared_hits += 1;
        }
        outcome.clone()
    }
}

impl EvalBackend for Evaluator {
    fn dims(&self) -> SpaceDims {
        self.ctx.dims
    }

    fn program(&self) -> &Program {
        &self.ctx.program
    }

    fn precise_power(&self) -> f64 {
        self.ctx.precise_power
    }

    fn precise_time(&self) -> f64 {
        self.ctx.precise_time
    }

    fn mean_abs_output(&self) -> f64 {
        self.ctx
            .precise_outputs
            .iter()
            .map(|v| v.abs())
            .sum::<f64>()
            / self.ctx.precise_outputs.len() as f64
    }

    fn distinct_evaluations(&self) -> u64 {
        self.released + self.memo.len() as u64
    }

    fn release_memo(&mut self, spare: &mut MemoStorage) {
        self.released += self.memo.len() as u64;
        *spare = MemoStorage {
            slots: std::mem::take(&mut self.slots),
            memo: std::mem::take(&mut self.memo),
        };
        spare.slots.clear();
        spare.memo.clear();
    }

    fn adopt_memo(&mut self, spare: &mut MemoStorage) {
        assert!(
            self.released == 0 && self.memo.is_empty(),
            "only an evaluator that has evaluated nothing adopts a memo"
        );
        std::mem::swap(&mut self.slots, &mut spare.slots);
        std::mem::swap(&mut self.memo, &mut spare.memo);
    }

    fn telemetry_counters(&self) -> Vec<(&'static str, u64)> {
        let executions = self.runner.executions;
        let mut counters = vec![
            ("backend.local_hits", self.hits),
            ("backend.shared_hits", self.shared_hits),
            ("backend.executions", executions),
        ];
        match self.ctx.engine {
            ExecEngine::Compiled => counters.push(("engine.compiled_runs", executions)),
            ExecEngine::Interpreter => counters.push(("engine.interpreted_runs", executions)),
        }
        counters
    }

    /// Evaluates a configuration (cached: local memo table first, then the
    /// shared cache by execution class, then the execution engine).
    ///
    /// # Errors
    ///
    /// Propagates execution errors; impossible for validated workloads whose
    /// multiplication operands are program inputs.
    ///
    /// # Panics
    ///
    /// Panics if `config` is outside this benchmark's space.
    fn evaluate(&mut self, config: &AxConfig) -> Result<EvalMetrics, VmError> {
        assert!(
            config.is_valid(self.ctx.dims),
            "configuration {config} outside the space"
        );
        let ordinal = self.ctx.dims.ordinal(config);
        match self.slots.get(ordinal) {
            Some(&slot) if slot != VACANT => {
                self.hits += 1;
                return Ok(self.memo[slot as usize].1);
            }
            Some(_) => {}
            None => self.slots.resize(ordinal + 1, VACANT),
        }
        let metrics = self.resolve(ordinal, config)?;
        self.slots[ordinal] = self.memo.len() as u16;
        self.memo.push((*config, metrics));
        Ok(metrics)
    }
}

// Inherent forwarders so existing `Evaluator` call sites (and ones that
// prefer not to import the trait) keep working unchanged.
impl Evaluator {
    /// See [`EvalBackend::dims`].
    pub fn dims(&self) -> SpaceDims {
        EvalBackend::dims(self)
    }

    /// See [`EvalBackend::program`].
    pub fn program(&self) -> &Program {
        EvalBackend::program(self)
    }

    /// See [`EvalBackend::precise_power`].
    pub fn precise_power(&self) -> f64 {
        EvalBackend::precise_power(self)
    }

    /// See [`EvalBackend::precise_time`].
    pub fn precise_time(&self) -> f64 {
        EvalBackend::precise_time(self)
    }

    /// See [`EvalBackend::mean_abs_output`].
    pub fn mean_abs_output(&self) -> f64 {
        EvalBackend::mean_abs_output(self)
    }

    /// See [`EvalBackend::distinct_evaluations`].
    pub fn distinct_evaluations(&self) -> u64 {
        EvalBackend::distinct_evaluations(self)
    }

    /// See [`EvalBackend::evaluate`].
    ///
    /// # Errors
    ///
    /// Propagates execution errors.
    ///
    /// # Panics
    ///
    /// Panics if `config` is outside this benchmark's space.
    pub fn evaluate(&mut self, config: &AxConfig) -> Result<EvalMetrics, VmError> {
        EvalBackend::evaluate(self, config)
    }

    /// See [`EvalBackend::evaluate_batch`].
    ///
    /// # Errors
    ///
    /// Stops at the first failing configuration.
    pub fn evaluate_batch(&mut self, configs: &[AxConfig]) -> Result<Vec<EvalMetrics>, VmError> {
        EvalBackend::evaluate_batch(self, configs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ax_operators::{AdderId, MulId};
    use ax_workloads::dot::DotProduct;
    use ax_workloads::matmul::MatMul;

    fn evaluator() -> Evaluator {
        let lib = OperatorLibrary::evoapprox();
        Evaluator::new(&MatMul::new(4), &lib, 11).unwrap()
    }

    #[test]
    fn precise_config_has_zero_deltas() {
        let mut ev = evaluator();
        let m = ev.evaluate(&AxConfig::precise()).unwrap();
        assert_eq!(m.delta_acc, 0.0);
        assert_eq!(m.delta_power, 0.0);
        assert_eq!(m.delta_time, 0.0);
        assert_eq!(m.signed_error, 0.0);
        assert_eq!(m.power, ev.precise_power());
    }

    #[test]
    fn empty_mask_with_approx_operators_still_precise() {
        // No variables selected -> nothing routed through the approximate
        // operators, regardless of the configured adder/multiplier.
        let mut ev = evaluator();
        let m = ev
            .evaluate(&AxConfig {
                adder: AdderId(5),
                mul: MulId(5),
                vars: 0,
            })
            .unwrap();
        assert_eq!(m.delta_acc, 0.0);
        assert_eq!(m.delta_power, 0.0);
    }

    #[test]
    fn full_approximation_maximises_power_saving() {
        let mut ev = evaluator();
        let dims = ev.dims();
        let full = AxConfig {
            adder: AdderId(dims.n_add - 1),
            mul: MulId(dims.n_mul - 1),
            vars: (1 << dims.n_vars) - 1,
        };
        let m_full = ev.evaluate(&full).unwrap();
        // Every other configuration saves at most as much power.
        for c in AxConfig::enumerate(dims) {
            let m = ev.evaluate(&c).unwrap();
            assert!(m.delta_power <= m_full.delta_power + 1e-9, "{c}");
        }
        assert!(m_full.delta_acc > 0.0);
    }

    #[test]
    fn a_released_memo_keeps_its_counts_and_moves_to_an_adopting_evaluator() {
        let mut ev = evaluator();
        let configs = AxConfig::enumerate(ev.dims());
        for c in configs.iter().take(40).chain(&configs[..10]) {
            ev.evaluate(c).unwrap();
        }
        let counts = |ev: &Evaluator| (ev.distinct_evaluations(), ev.telemetry_counters());
        let kept = counts(&ev);
        assert_eq!(kept.0, 40);
        let mut spare = MemoStorage::default();
        ev.release_memo(&mut spare);
        assert_eq!(counts(&ev), kept);
        assert!(ev.evaluated().is_empty());
        assert_eq!((ev.slots.capacity(), ev.memo.capacity()), (0, 0));
        let grown = (spare.slots.capacity(), spare.memo.capacity());
        assert!(grown.0 > 0 && grown.1 >= 40 && spare.memo.is_empty());

        let mut next = evaluator();
        next.adopt_memo(&mut spare);
        assert_eq!((next.slots.capacity(), next.memo.capacity()), grown);
        let fresh = evaluator().evaluate(&configs[7]).unwrap();
        assert_eq!(next.evaluate(&configs[7]).unwrap(), fresh);
        assert_eq!((next.distinct_evaluations(), next.cache_hits()), (1, 0));
    }

    #[test]
    fn cache_hits_are_counted() {
        let mut ev = evaluator();
        let c = AxConfig {
            adder: AdderId(1),
            mul: MulId(1),
            vars: 0b11,
        };
        ev.evaluate(&c).unwrap();
        assert_eq!(ev.distinct_evaluations(), 1);
        assert_eq!(ev.cache_hits(), 0);
        assert_eq!(ev.executions(), 1);
        ev.evaluate(&c).unwrap();
        assert_eq!(ev.distinct_evaluations(), 1);
        assert_eq!(ev.cache_hits(), 1);
        assert_eq!(ev.executions(), 1);
    }

    #[test]
    fn dims_match_library_and_program() {
        let ev = evaluator();
        let dims = ev.dims();
        assert_eq!(dims.n_add, 6);
        assert_eq!(dims.n_mul, 6);
        assert_eq!(dims.n_vars, 4); // a, b, prod, c
    }

    #[test]
    fn mean_abs_output_is_positive() {
        let ev = evaluator();
        assert!(ev.mean_abs_output() > 0.0);
    }

    #[test]
    fn works_for_single_output_workload() {
        let lib = OperatorLibrary::evoapprox();
        let mut ev = Evaluator::new(&DotProduct::new(6), &lib, 3).unwrap();
        let m = ev
            .evaluate(&AxConfig {
                adder: AdderId(4),
                mul: MulId(4),
                vars: 0b1111,
            })
            .unwrap();
        assert!(m.delta_power > 0.0);
    }

    #[test]
    #[should_panic(expected = "outside the space")]
    fn invalid_config_rejected() {
        let mut ev = evaluator();
        let _ = ev.evaluate(&AxConfig {
            adder: AdderId(9),
            mul: MulId(0),
            vars: 0,
        });
    }

    #[test]
    fn batch_matches_single_evaluations() {
        let mut a = evaluator();
        let mut b = evaluator();
        let configs: Vec<AxConfig> = AxConfig::enumerate(a.dims()).into_iter().take(40).collect();
        let batch = a.evaluate_batch(&configs).unwrap();
        for (c, m) in configs.iter().zip(&batch) {
            assert_eq!(*m, b.evaluate(c).unwrap(), "{c}");
        }
    }

    #[test]
    fn batch_deduplicates_and_reuses_caches() {
        let mut ev = evaluator();
        let c1 = AxConfig {
            adder: AdderId(1),
            mul: MulId(2),
            vars: 0b11,
        };
        let c2 = AxConfig {
            adder: AdderId(3),
            mul: MulId(4),
            vars: 0b01,
        };
        ev.evaluate(&c1).unwrap();
        // A batch with a repeat and an already-cached design executes only
        // the genuinely new configuration.
        let batch = ev.evaluate_batch(&[c1, c2, c2, c1]).unwrap();
        assert_eq!(ev.executions(), 2);
        assert_eq!(
            ev.cache_hits(),
            3,
            "c1 twice and c2's repeat from the local cache"
        );
        assert_eq!(batch[0], batch[3]);
        assert_eq!(batch[1], batch[2]);
    }

    #[test]
    fn shared_cache_serves_second_evaluator() {
        let lib = Arc::new(OperatorLibrary::evoapprox());
        let cache = SharedCache::new();
        let ctx = EvalContext::with_cache(&MatMul::new(4), lib, 11, Arc::clone(&cache)).unwrap();
        let c = AxConfig {
            adder: AdderId(2),
            mul: MulId(3),
            vars: 0b101,
        };

        let mut first = ctx.evaluator();
        let m1 = first.evaluate(&c).unwrap();
        assert_eq!(first.executions(), 1);
        assert_eq!(cache.len(), 1);

        let mut second = ctx.evaluator();
        let m2 = second.evaluate(&c).unwrap();
        assert_eq!(m1, m2);
        assert_eq!(
            second.executions(),
            0,
            "design must come from the shared cache"
        );
        assert_eq!(second.shared_cache_hits(), 1);
    }

    #[test]
    fn shared_cache_scopes_isolate_input_seeds() {
        let lib = Arc::new(OperatorLibrary::evoapprox());
        let cache = SharedCache::new();
        let wl = MatMul::new(4);
        let ctx_a = EvalContext::with_cache(&wl, Arc::clone(&lib), 1, Arc::clone(&cache)).unwrap();
        let ctx_b = EvalContext::with_cache(&wl, Arc::clone(&lib), 2, Arc::clone(&cache)).unwrap();
        let c = AxConfig {
            adder: AdderId(5),
            mul: MulId(5),
            vars: 0b1111,
        };
        let ma = ctx_a.evaluator().evaluate(&c).unwrap();
        let mut eb = ctx_b.evaluator();
        let mb = eb.evaluate(&c).unwrap();
        // Different inputs -> the second evaluator must execute, not reuse.
        assert_eq!(eb.executions(), 1);
        assert_eq!(cache.len(), 2);
        // And (with different input data) the observed error differs.
        assert_ne!(ma.delta_acc, mb.delta_acc);
    }

    #[test]
    fn shared_cache_is_send_sync_and_concurrent() {
        let lib = Arc::new(OperatorLibrary::evoapprox());
        let cache = SharedCache::new();
        let ctx = EvalContext::with_cache(&MatMul::new(4), lib, 7, Arc::clone(&cache)).unwrap();
        let configs = AxConfig::enumerate(ctx.evaluator().dims());
        let executions: u64 = std::thread::scope(|s| {
            let sweeps: Vec<_> = (0..4)
                .map(|_| {
                    let ctx = ctx.clone();
                    let configs = &configs;
                    s.spawn(move || {
                        let mut ev = ctx.evaluator();
                        for c in configs {
                            ev.evaluate(c).unwrap();
                        }
                        ev.executions()
                    })
                })
                .collect();
            sweeps.into_iter().map(|h| h.join().unwrap()).sum()
        });
        // MatMul's adds and muls fall in separate flag classes, so the 576
        // designs collapse to 49 execution classes: the precise design,
        // 6 adders alone, 6 multipliers alone and 36 pairs. Single-flight
        // executes each class exactly once across all four threads.
        assert_eq!(executions, 49);
        assert_eq!(cache.len(), 49);
        assert_eq!(cache.misses(), 49);
        assert_eq!(cache.hits(), 4 * configs.len() as u64 - 49);
    }

    /// A program with `n` approximable variables: `n - 1` inputs summed
    /// into one output.
    struct Wide(usize);

    impl Workload for Wide {
        fn name(&self) -> String {
            format!("wide-{}", self.0)
        }

        fn build(&self) -> Result<ax_vm::Program, VmError> {
            use ax_operators::BitWidth;
            let mut pb = ax_vm::ir::ProgramBuilder::new(self.name(), BitWidth::W8, BitWidth::W8);
            let xs: Vec<_> = (1..self.0).map(|i| pb.input(&format!("x{i}"), 1)).collect();
            let y = pb.output("y", 1);
            pb.copy(y.at(0), xs[0].at(0));
            for x in &xs[1..] {
                pb.add(y.at(0), y.at(0), x.at(0));
            }
            pb.build()
        }

        fn inputs(&self, seed: u64) -> Vec<(String, Vec<i64>)> {
            (1..self.0)
                .map(|i| {
                    (
                        format!("x{i}"),
                        vec![(i as i64 * 37 + seed as i64 * 11) % 100],
                    )
                })
                .collect()
        }
    }

    fn wide_context(n_vars: usize) -> Result<EvalContext, VmError> {
        EvalContext::new(&Wide(n_vars), Arc::new(OperatorLibrary::evoapprox()), 1)
    }

    fn too_large(variables: usize) -> VmError {
        VmError::DesignSpaceTooLarge {
            adders: 6,
            multipliers: 6,
            variables,
            max_designs: 65_535,
        }
    }

    #[test]
    fn a_ten_variable_space_is_within_the_cap() {
        // 6 adders × 6 multipliers × 2^10 = 36,864 designs.
        let ctx = wide_context(10).unwrap();
        let mut ev = ctx.evaluator();
        assert_eq!(ev.dims().cardinality(), 36_864);
        let last = AxConfig {
            adder: AdderId(5),
            mul: MulId(5),
            vars: (1 << 10) - 1,
        };
        assert_eq!(ev.dims().ordinal(&last), 36_863);
        ev.evaluate(&last).unwrap();
        assert_eq!(ev.evaluated()[0].0, last);
    }

    #[test]
    fn every_wide_design_matches_the_interpreter_through_a_bounded_table() {
        use ax_vm::compile::MAX_SPECIALISATIONS;
        // Wide(10)'s eight additions each touch `y` and their own input:
        // eight flag classes, so 256 class masks share a 16-entry table.
        let lib = Arc::new(OperatorLibrary::evoapprox());
        let wl = Wide(10);
        let uncached = EvalContext::new(&wl, Arc::clone(&lib), 1).unwrap();
        let cached = EvalContext::with_cache(&wl, lib, 1, SharedCache::new()).unwrap();
        let mut reference = uncached
            .clone()
            .with_engine(ExecEngine::Interpreter)
            .evaluator();
        let mut evaluators = [uncached.evaluator(), cached.evaluator()];
        for config in AxConfig::enumerate(uncached.dims) {
            let expected = reference.evaluate(&config).unwrap();
            for ev in &mut evaluators {
                assert_eq!(ev.evaluate(&config).unwrap(), expected, "{config}");
            }
            for ctx in [&uncached, &cached] {
                assert!(ctx.skeleton.specialisations() <= MAX_SPECIALISATIONS);
            }
        }
        assert_eq!(uncached.skeleton.specialisations(), MAX_SPECIALISATIONS);
        assert_eq!(evaluators[0].executions(), 36_864);
        // The cached context executes each execution class once: the
        // empty selection plus 255 non-empty class masks × 6 adders.
        assert_eq!(evaluators[1].executions(), 1 + 255 * 6);
    }

    fn metric_bits(m: &EvalMetrics) -> [u64; 6] {
        [
            m.delta_acc,
            m.delta_power,
            m.delta_time,
            m.signed_error,
            m.power,
            m.time_ns,
        ]
        .map(f64::to_bits)
    }

    #[test]
    fn a_context_derived_for_another_input_seed_matches_a_fresh_one() {
        let lib = Arc::new(OperatorLibrary::evoapprox());
        let wl = MatMul::new(4);
        let cache = SharedCache::new();
        let base = EvalContext::with_cache(&wl, Arc::clone(&lib), 1, Arc::clone(&cache)).unwrap();
        let derived = base.for_input_seed(&wl, 2).unwrap();
        let fresh = EvalContext::new(&wl, lib, 2).unwrap();
        assert!(Arc::ptr_eq(&derived.program, &base.program));
        assert!(Arc::ptr_eq(&derived.skeleton, &base.skeleton));
        assert_eq!(derived.input_seed(), 2);
        assert_eq!(derived.base_image, fresh.base_image);
        assert_eq!(derived.precise_outputs, fresh.precise_outputs);
        assert_eq!(
            (
                derived.precise_power.to_bits(),
                derived.precise_time.to_bits()
            ),
            (fresh.precise_power.to_bits(), fresh.precise_time.to_bits())
        );
        let (mut d, mut f) = (derived.evaluator(), fresh.evaluator());
        for config in AxConfig::enumerate(fresh.dims) {
            let (got, want) = (d.evaluate(&config).unwrap(), f.evaluate(&config).unwrap());
            assert_eq!(metric_bits(&got), metric_bits(&want), "{config}");
        }
        // The derived context caches under its own scope, not the base's.
        assert_eq!(cache.scope_len(wl.name().as_str(), 2), 49);
        assert_eq!(cache.scope_len(wl.name().as_str(), 1), 0);
    }

    #[test]
    fn the_class_map_sends_every_design_to_its_representative() {
        let lib = Arc::new(OperatorLibrary::evoapprox());
        let workloads: [(&dyn Workload, usize); 3] = [
            (&MatMul::new(4), 49),
            (&DotProduct::new(6), 49),
            (&Wide(10), 1 + 255 * 6),
        ];
        for (wl, classes) in workloads {
            let ctx = EvalContext::with_cache(wl, Arc::clone(&lib), 1, SharedCache::new()).unwrap();
            let table = &ctx.shared.as_ref().unwrap().table;
            assert_eq!(table.class_count(), classes, "{}", wl.name());
            for config in AxConfig::enumerate(ctx.dims) {
                let class = table.class(ctx.dims.ordinal(&config));
                let rep = ctx.class_representative(&config);
                assert_eq!(table.class(ctx.dims.ordinal(&rep)), class, "{config}");
            }
            assert_eq!(table.class(0), 0, "the precise design's class comes first");
        }
    }

    /// `lib` with one multiplier's power changed at `width`.
    fn with_repriced_multiplier(
        lib: &OperatorLibrary,
        width: ax_operators::BitWidth,
    ) -> OperatorLibrary {
        use ax_operators::{BitWidth, OperatorSpec};
        let mut builder = OperatorLibrary::builder();
        for w in [BitWidth::W8, BitWidth::W16] {
            for e in lib.adders(w) {
                builder = builder.adder(e.spec.clone(), e.model);
            }
        }
        for w in [BitWidth::W8, BitWidth::W32] {
            for (i, e) in lib.multipliers(w).iter().enumerate() {
                let s = &e.spec;
                let power = s.power_mw() * if w == width && i == 2 { 1.5 } else { 1.0 };
                let spec = OperatorSpec::new(s.name(), w, s.mred_pct(), power, s.time_ns());
                builder = builder.multiplier(spec, e.model);
            }
        }
        builder.build()
    }

    #[test]
    fn the_fingerprint_keys_program_library_and_inputs() {
        use ax_operators::BitWidth;
        let wl = MatMul::new(4);
        let evo = Arc::new(OperatorLibrary::evoapprox());
        let of = |ctx: &EvalContext| fingerprint(ctx.identity, &ctx.base_image);
        let fp = |wl: &dyn Workload, lib: &OperatorLibrary, seed| {
            of(&EvalContext::new(wl, Arc::new(lib.clone()), seed).unwrap())
        };
        let base = fp(&wl, &evo, 1);
        assert_eq!(base, fp(&wl, &evo, 1), "a rebuilt context");
        assert_ne!(base, fp(&wl, &evo, 2), "other inputs");
        assert_ne!(base, fp(&MatMul::new(5), &evo, 1), "another program");
        assert_ne!(base, fp(&wl, &OperatorLibrary::evoapprox_extended(), 1));
        assert_ne!(
            base,
            fp(&wl, &with_repriced_multiplier(&evo, BitWidth::W8), 1)
        );
        // MatMul multiplies at 8 bits: the 32-bit class does not matter.
        assert_eq!(
            base,
            fp(&wl, &with_repriced_multiplier(&evo, BitWidth::W32), 1)
        );
        // Neither does the engine, nor the way the context was prepared: a
        // derived context re-hashes only its own base image.
        let ctx = EvalContext::new(&wl, Arc::clone(&evo), 1).unwrap();
        assert_eq!(of(&ctx.clone().with_engine(ExecEngine::Interpreter)), base);
        let cached = EvalContext::with_cache(&wl, evo, 1, SharedCache::new()).unwrap();
        assert_eq!(of(&cached), base);
        assert_eq!(of(&ctx.for_input_seed(&wl, 1).unwrap()), base);
        assert_eq!(
            of(&cached.for_input_seed(&wl, 2).unwrap()),
            fp(&wl, &OperatorLibrary::evoapprox(), 2)
        );
    }

    #[test]
    fn resolved_classes_count_only_this_contexts_lookups() {
        let lib = Arc::new(OperatorLibrary::evoapprox());
        let wl = MatMul::new(4);
        let cache = SharedCache::new();
        let filler = EvalContext::with_cache(&wl, Arc::clone(&lib), 1, Arc::clone(&cache)).unwrap();
        let mut ev = filler.evaluator();
        for config in AxConfig::enumerate(filler.dims) {
            ev.evaluate(&config).unwrap();
        }
        assert_eq!(filler.resolved_classes(), 49);
        // A second context of the same scope finds every class cached, but
        // counts only the two classes its own evaluators asked for.
        let ctx = EvalContext::with_cache(&wl, Arc::clone(&lib), 1, Arc::clone(&cache)).unwrap();
        let designs = [(0, 0, 0), (3, 2, 0b0001), (5, 2, 0b0010)];
        for evaluator in [ctx.evaluator(), ctx.clone().evaluator()].iter_mut() {
            for &(a, m, vars) in &designs {
                let config = AxConfig {
                    adder: AdderId(a),
                    mul: MulId(m),
                    vars,
                };
                evaluator.evaluate(&config).unwrap();
            }
            assert_eq!(evaluator.executions(), 0);
        }
        assert_eq!(ctx.resolved_classes(), 2);
        assert_eq!(cache.scope_len(&wl.name(), 1), 49);
        // A derived context starts from none.
        assert_eq!(ctx.for_input_seed(&wl, 1).unwrap().resolved_classes(), 0);
        assert_eq!(evaluator().ctx.resolved_classes(), 0, "no cache, no count");
    }

    #[test]
    #[should_panic(expected = "its own benchmark")]
    fn a_context_derives_no_context_of_another_benchmark() {
        let ctx = evaluator().ctx;
        let _ = ctx.for_input_seed(&DotProduct::new(6), 2);
    }

    #[test]
    fn an_eleven_variable_space_is_a_typed_error() {
        // 73,728 designs: past the 65,535-design cap.
        let err = wide_context(11).unwrap_err();
        assert_eq!(err, too_large(11));
        assert!(err.to_string().contains("2^11"), "{err}");
    }

    #[test]
    fn more_than_64_variables_is_a_typed_error_not_a_panic() {
        assert_eq!(wide_context(65).unwrap_err(), too_large(65));
    }

    #[test]
    fn evaluated_lists_designs_in_first_evaluation_order() {
        let mut ev = evaluator();
        let designs = [(3, 1, 0b10), (0, 0, 0), (5, 5, 0b1111), (1, 4, 0b1)];
        for &(a, m, vars) in designs.iter().chain(&designs) {
            ev.evaluate(&AxConfig {
                adder: AdderId(a),
                mul: MulId(m),
                vars,
            })
            .unwrap();
        }
        let order: Vec<_> = ev
            .evaluated()
            .iter()
            .map(|(c, _)| (c.adder.0, c.mul.0, c.vars))
            .collect();
        assert_eq!(order, designs);
        assert_eq!((ev.distinct_evaluations(), ev.cache_hits()), (4, 4));
    }

    #[test]
    fn eval_context_handles_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EvalContext>();
        assert_send_sync::<SharedCache>();
        assert_send_sync::<Evaluator>();
    }
}
