//! Executing a serialised [`ExperimentSpec`] end to end — the engine
//! behind `repro run <spec.json>` and the `ax-serve` daemon's jobs.

use crate::backend::SharedCache;
use crate::campaign::{
    Campaign, CampaignControl, CampaignReport, EvalBudget, ExperimentSpec, Observer, SpecError,
    Telemetry,
};
use ax_operators::OperatorLibrary;
use ax_vm::VmError;
use std::fmt;
use std::sync::Arc;

/// Why [`run_spec`] failed: the spec itself, or benchmark preparation.
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

/// Executes a whole [`ExperimentSpec`] on the engine its backend names
/// ([`crate::campaign::BackendSpec`]). An optional pre-loaded design cache
/// ([`SharedCache::load`]) lets repeated runs of the same spec skip
/// re-evaluation across processes; `observer` streams progress.
///
/// # Errors
///
/// Fails on an unrunnable spec or a benchmark that cannot be prepared.
pub fn run_spec(
    lib: &OperatorLibrary,
    spec: &ExperimentSpec,
    cache: Option<Arc<SharedCache>>,
    observer: &dyn Observer,
) -> Result<CampaignReport, RunSpecError> {
    run_spec_traced(lib, spec, cache, observer, &Telemetry::disabled())
}

/// [`run_spec`] with a telemetry handle: when `telemetry` is enabled the
/// campaign streams structured events to its sinks and the returned
/// report carries a `telemetry` section (metrics snapshot, event count,
/// budget-invariant check). A disabled handle is byte-identical to
/// [`run_spec`] — the engine behind `repro run --trace/--metrics`.
///
/// # Errors
///
/// Fails on an unrunnable spec or a benchmark that cannot be prepared.
pub fn run_spec_traced(
    lib: &OperatorLibrary,
    spec: &ExperimentSpec,
    cache: Option<Arc<SharedCache>>,
    observer: &dyn Observer,
    telemetry: &Telemetry,
) -> Result<CampaignReport, RunSpecError> {
    run_spec_with(
        lib,
        spec,
        RunSpecOptions {
            cache,
            observer: Some(observer),
            telemetry: Some(telemetry.clone()),
            ..Default::default()
        },
    )
}

/// Everything [`run_spec_with`] accepts beyond the spec itself — the full
/// supervision surface a long-lived daemon needs, all optional so plain
/// [`run_spec`] stays a two-default wrapper.
#[derive(Default)]
pub struct RunSpecOptions<'a> {
    /// Pre-loaded design cache shared across runs (and, in a daemon,
    /// across jobs — each benchmark, input seed and program-and-library
    /// fingerprint is its own scope).
    pub cache: Option<Arc<SharedCache>>,
    /// Progress observer; defaults to no observation.
    pub observer: Option<&'a dyn Observer>,
    /// Telemetry handle; defaults to [`Telemetry::disabled`], which is
    /// byte-identical to no telemetry at all.
    pub telemetry: Option<Telemetry>,
    /// Cooperative cancel/pause handle (see [`Campaign::control`]).
    pub control: Option<CampaignControl>,
    /// Budgets stacked on top of the spec's own (see
    /// [`Campaign::extra_budget`]) — e.g. a
    /// [`GlobalScheduler`](crate::campaign::GlobalScheduler) per-job
    /// ticket and its server-wide cap.
    pub extra_budgets: Vec<Arc<EvalBudget>>,
}

/// [`run_spec_traced`] plus daemon supervision: an optional cooperative
/// [`CampaignControl`] and extra stacked [`EvalBudget`]s. With everything
/// defaulted this is exactly [`run_spec`].
///
/// # Errors
///
/// Fails on an unrunnable spec or a benchmark that cannot be prepared.
pub fn run_spec_with(
    lib: &OperatorLibrary,
    spec: &ExperimentSpec,
    opts: RunSpecOptions<'_>,
) -> Result<CampaignReport, RunSpecError> {
    spec.validate()?;
    let workloads = spec.build_workloads();
    let telemetry = opts.telemetry.unwrap_or_else(Telemetry::disabled);
    let mut campaign = Campaign::from_spec(lib, spec, &workloads).telemetry(&telemetry);
    if let Some(observer) = opts.observer {
        campaign = campaign.observe(observer);
    }
    if let Some(cache) = opts.cache {
        campaign = campaign.shared_cache(cache);
    }
    if let Some(control) = &opts.control {
        campaign = campaign.control(control);
    }
    for budget in &opts.extra_budgets {
        campaign = campaign.extra_budget(Arc::clone(budget));
    }
    Ok(campaign.run()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{BenchmarkSpec, NullObserver, SeedRange};
    use crate::explore::{AgentKind, ExploreOptions};

    #[test]
    fn invalid_spec_is_rejected_before_running() {
        let lib = OperatorLibrary::evoapprox();
        let spec = ExperimentSpec::new("empty");
        assert!(matches!(
            run_spec(&lib, &spec, None, &NullObserver),
            Err(RunSpecError::Spec(_))
        ));
    }

    #[test]
    fn a_preloaded_cache_replays_the_spec_without_executing() {
        let lib = OperatorLibrary::evoapprox();
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
        let cold = run_spec(&lib, &spec, Some(Arc::clone(&cache)), &NullObserver).unwrap();
        let misses = cache.misses();
        assert!(misses > 0 && !cache.is_empty());
        let warm = run_spec(&lib, &spec, Some(Arc::clone(&cache)), &NullObserver).unwrap();
        assert_eq!(cache.misses(), misses, "every class comes from the cache");
        assert_eq!(cold.to_json_string(), warm.to_json_string());
    }
}
