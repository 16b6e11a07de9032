//! Executing a serialised [`ExperimentSpec`] end to end — the engine
//! behind `repro run <spec.json>` and the `ax-serve` daemon's jobs. A
//! served job runs here too, on its spec with its granted cap as the
//! spec's `budget` (see [`GlobalScheduler`](crate::campaign::GlobalScheduler)),
//! so its report is the one `repro run --budget N` gives.

use crate::backend::SharedCache;
use crate::campaign::{
    Campaign, CampaignControl, CampaignReport, ExperimentSpec, Observer, SpecError, Telemetry,
};
use ax_vm::VmError;
use std::fmt;
use std::sync::Arc;

/// Why a campaign failed: the spec itself, or benchmark preparation.
#[derive(Debug)]
pub enum RunSpecError {
    /// The spec is structurally unrunnable.
    Spec(SpecError),
    /// A benchmark failed to prepare.
    Vm(VmError),
}

impl fmt::Display for RunSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunSpecError::Spec(e) => write!(f, "{e}"),
            RunSpecError::Vm(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RunSpecError {}

impl From<SpecError> for RunSpecError {
    fn from(e: SpecError) -> Self {
        RunSpecError::Spec(e)
    }
}

impl From<VmError> for RunSpecError {
    fn from(e: VmError) -> Self {
        RunSpecError::Vm(e)
    }
}

/// What a run attaches to a campaign beyond its spec — the supervision
/// surface a long-lived daemon needs. Every field is optional: the
/// default runs on a fresh cache, unobserved, without metrics and
/// unsupervised.
#[derive(Default)]
pub struct RunSpecOptions<'a> {
    /// Pre-loaded design cache shared across runs (and, in a daemon,
    /// across jobs — each benchmark, input seed and program-and-library
    /// fingerprint is its own scope).
    pub cache: Option<Arc<SharedCache>>,
    /// Receives the campaign's typed events, each stamped with its source
    /// and per-source sequence number: the one way they leave the
    /// campaign. `None`, the default, builds no event.
    pub observer: Option<&'a dyn Observer>,
    /// Metrics handle: when enabled the campaign records its metrics
    /// there and the report carries a `telemetry` section (metrics
    /// snapshot, event count, budget-invariant check). The default,
    /// [`Telemetry::disabled`], records nothing; either way the rest of
    /// the report is the same.
    pub telemetry: Telemetry,
    /// Cooperative cancel/pause handle: runs poll it at the same step
    /// boundaries as budget exhaustion, so a cancel stops every run (with
    /// [`StopReason::Stopped`](ax_agents::train::StopReason::Stopped), at
    /// most one step of overshoot per run) and a pause parks the campaign
    /// until resumed. `None` never interrupts.
    pub control: Option<CampaignControl>,
}

/// Executes a whole [`ExperimentSpec`]: builds the operator library and
/// the benchmarks it names, and runs it on the engine its backend names
/// ([`crate::campaign::BackendSpec`]) with `opts` attached — e.g. a
/// pre-loaded design cache ([`SharedCache::load`]), so repeated runs of
/// the same spec skip re-evaluation across processes.
///
/// # Errors
///
/// Fails on a spec [`ExperimentSpec::validate`] rejects, or a benchmark
/// that cannot be prepared.
pub fn run_spec(
    spec: &ExperimentSpec,
    opts: RunSpecOptions<'_>,
) -> Result<CampaignReport, RunSpecError> {
    // Validated before anything is built: a workload constructor panics
    // on a size `validate` reports as a typed error.
    spec.validate()?;
    let lib = spec.library.build();
    let workloads = spec.build_workloads();
    let campaign = Campaign {
        opts,
        ..Campaign::from_spec(&lib, spec, &workloads)
    };
    Ok(campaign.run_valid()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{BenchmarkSpec, SeedRange};
    use crate::explore::{AgentKind, ExploreOptions};

    #[test]
    fn invalid_spec_is_rejected_before_running() {
        // An undersized image too, whose workload constructor asserts.
        let undersized = ExperimentSpec::new("undersized")
            .benchmark(BenchmarkSpec::Sobel(2))
            .agent(AgentKind::QLearning);
        for spec in [ExperimentSpec::new("empty"), undersized] {
            assert!(matches!(
                run_spec(&spec, RunSpecOptions::default()),
                Err(RunSpecError::Spec(_))
            ));
        }
    }

    #[test]
    fn a_preloaded_cache_replays_the_spec_without_executing() {
        let spec = ExperimentSpec::new("run-spec")
            .benchmark(BenchmarkSpec::MatMul(4))
            .benchmark(BenchmarkSpec::Dot(8))
            .agent(AgentKind::QLearning)
            .agent(AgentKind::Sarsa)
            .seeds(SeedRange::new(0, 2))
            .explore(ExploreOptions {
                max_steps: 120,
                ..Default::default()
            });
        let cache = SharedCache::new();
        let run = || {
            let opts = RunSpecOptions {
                cache: Some(Arc::clone(&cache)),
                ..Default::default()
            };
            run_spec(&spec, opts).unwrap()
        };
        let cold = run();
        let misses = cache.misses();
        assert!(misses > 0 && !cache.is_empty());
        let warm = run();
        assert_eq!(cache.misses(), misses, "every class comes from the cache");
        assert_eq!(cold.to_json_string(), warm.to_json_string());
    }
}
