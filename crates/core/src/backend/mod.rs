//! Evaluation backends: the [`EvalBackend`] abstraction and its exact
//! implementation, which runs designs on the compiled engine by default.
//!
//! Evaluating a configuration means executing the instrumented benchmark and
//! comparing it to the precise reference: accuracy degradation (MAE,
//! Equation 2 with |·|), power reduction and computation-time reduction.
//! The design space is finite and the benchmark inputs are fixed, so every
//! configuration is deterministic — evaluation results are memoised and the
//! RL loop pays for each *distinct* design exactly once (the paper's goal of
//! "minimizing the number of designs to evaluate").
//!
//! Three layers cooperate:
//!
//! * [`EvalBackend`] is the pluggable evaluation interface the environment,
//!   search adapter and sweeps program against — the seam where wrappers
//!   (timing, fault injection) or remote evaluation services slot in.
//! * [`Evaluator`] ([`exact`]) is the exact backend: it runs the
//!   instrumented program on the compiled engine (or, on request, the
//!   reference interpreter), keeps a per-run memo table, and reuses
//!   execution buffers across designs.
//! * [`SharedCache`] ([`cache`]) is a single-flight concurrent table of
//!   outcomes, one slot per *execution class* per scope: designs that run
//!   the same instructions approximately with the same operators share one
//!   slot ([`EvalContext::class_representative`]). A scope is keyed by
//!   benchmark, input seed and a fingerprint of the program, the operator
//!   library and the inputs, so campaigns on different libraries never
//!   read each other's outcomes. Concurrent
//!   explorations of the same benchmark (multi-seed sweeps, agent
//!   portfolios) share it, so a class executed by one run is free for
//!   every other. Sharing never changes results — evaluation is
//!   deterministic — only cost.

pub mod cache;
pub mod exact;

pub use cache::{CacheScope, SharedCache};
pub use exact::{EvalContext, Evaluator, ExecEngine, MemoStorage};

use crate::config::{AxConfig, SpaceDims};
use ax_vm::VmError;

/// The observed quality/cost of one configuration, relative to the precise
/// run (the Δ terms of the paper's Equation 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalMetrics {
    /// Accuracy degradation: MAE between precise and approximate outputs.
    pub delta_acc: f64,
    /// Power reduction: `power_precise − power_approx` (mW units).
    pub delta_power: f64,
    /// Computation-time reduction: `time_precise − time_approx` (ns).
    pub delta_time: f64,
    /// Literal Equation 2 (no absolute value) — reported for completeness.
    pub signed_error: f64,
    /// Absolute power of the approximate run.
    pub power: f64,
    /// Absolute computation time of the approximate run.
    pub time_ns: f64,
}

/// A pluggable evaluation backend: everything the DSE layers need from
/// "something that can score configurations of one benchmark".
///
/// [`Evaluator`] is the exact implementation; wrappers or distributed
/// evaluation services implement the same contract. Implementations must be deterministic: within one backend
/// instance, the same configuration always maps to the same metrics.
pub trait EvalBackend {
    /// The configuration-space dimensions of the benchmark.
    fn dims(&self) -> SpaceDims;

    /// The benchmark's program (e.g. for variable names and widths).
    fn program(&self) -> &ax_vm::Program;

    /// Power of the precise reference run (Σ per-op constants).
    fn precise_power(&self) -> f64;

    /// Computation time of the precise reference run.
    fn precise_time(&self) -> f64;

    /// Mean |output| of the precise run — the basis of the paper's accuracy
    /// threshold (0.4 × the average output).
    fn mean_abs_output(&self) -> f64;

    /// Evaluates one configuration.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors; impossible for validated workloads
    /// whose multiplication operands are program inputs.
    fn evaluate(&mut self, config: &AxConfig) -> Result<EvalMetrics, VmError>;

    /// Evaluates a slice of configurations, preserving order.
    ///
    /// The default simply loops; backends with a cheaper amortised path
    /// (batched execution) override it.
    ///
    /// # Errors
    ///
    /// Stops at the first failing configuration.
    fn evaluate_batch(&mut self, configs: &[AxConfig]) -> Result<Vec<EvalMetrics>, VmError> {
        configs.iter().map(|c| self.evaluate(c)).collect()
    }

    /// Number of *distinct* configurations this backend has resolved,
    /// starting from zero when it is built.
    ///
    /// The exploration drivers report this as the "designs actually
    /// scored" count, and a campaign run spends exactly this count of its
    /// cell's budget. Backends without a memo table may return 0; such a
    /// backend never spends a budget.
    fn distinct_evaluations(&self) -> u64 {
        0
    }

    /// Frees the memo of a backend whose run is over and leaves its
    /// buffers, emptied, in `spare` for a later run's backend to
    /// [adopt](EvalBackend::adopt_memo); buffers `spare` held before are
    /// freed. Every count the backend reports stays:
    /// [`distinct_evaluations`](EvalBackend::distinct_evaluations) and its
    /// [`telemetry_counters`](EvalBackend::telemetry_counters). A design
    /// evaluated afterwards is resolved and counted again.
    ///
    /// The campaign driver releases each run's memo when the run
    /// completes; single explorations keep theirs, which
    /// [`Evaluator::evaluated`] lists. The default keeps the memo and
    /// leaves `spare` alone; a wrapper backend forwards to its inner one.
    fn release_memo(&mut self, _spare: &mut MemoStorage) {}

    /// Takes `spare`'s buffers as the memo of a backend that has evaluated
    /// nothing yet, so the memo grows from the capacity an earlier run
    /// reached instead of from empty; `spare` gets the backend's empty
    /// buffers in exchange. Results and counts are unchanged. The default
    /// leaves `spare` alone.
    fn adopt_memo(&mut self, _spare: &mut MemoStorage) {}

    /// The backend's internal counters as `(metric name, value)` pairs,
    /// harvested into the campaign's telemetry registry at run end.
    ///
    /// Names follow `docs/telemetry_reference.md` (`backend.*`,
    /// `engine.*`); values are cumulative since construction. Wrapper
    /// backends forward to their inner backend and may append their own
    /// counters. The default is empty — backends
    /// without instrumentation stay silent rather than reporting zeros.
    fn telemetry_counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}
