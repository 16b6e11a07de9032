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
//!   (budget metering, timing) or remote evaluation services slot in.
//! * [`Evaluator`] ([`exact`]) is the exact backend: it runs the
//!   instrumented program on the compiled engine (or, on request, the
//!   reference interpreter), keeps a per-run memo table, and reuses
//!   execution buffers across designs.
//! * [`SharedCache`] ([`cache`]) is a single-flight concurrent memo table
//!   keyed by `(benchmark, input_seed)` scope and *execution class*:
//!   designs that run the same instructions approximately with the same
//!   operators share one entry ([`EvalContext::class_representative`]).
//!   Concurrent explorations of the same benchmark (multi-seed sweeps,
//!   agent portfolios) share it, so a class executed by one run is free for
//!   every other. Sharing never changes results — evaluation is
//!   deterministic — only cost.

pub mod cache;
pub mod exact;

pub use cache::{CacheScope, SharedCache};
pub use exact::{EvalContext, Evaluator, ExecEngine};

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

    /// Number of *distinct* configurations this backend holds metrics for.
    ///
    /// Backends without a memo table may return 0; the exploration drivers
    /// report this as the "designs actually scored" count.
    fn distinct_evaluations(&self) -> u64 {
        0
    }

    /// The backend's internal counters as `(metric name, value)` pairs,
    /// harvested into the campaign's telemetry registry at run end.
    ///
    /// Names follow `docs/telemetry_reference.md` (`backend.*`,
    /// `engine.*`); values are cumulative since construction. Wrapper
    /// backends (metering) forward to their inner backend and append their
    /// own counters. The default is empty — backends
    /// without instrumentation stay silent rather than reporting zeros.
    fn telemetry_counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}
