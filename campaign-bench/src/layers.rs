//! `--trace 1`: the traced per-layer replay.
//!
//! Two phases share the run's `--seconds`:
//!
//! 1. **Traced campaigns.** The workload's campaign runs back to back with
//!    an enabled [`Telemetry`] handle (the harvested cache, backend,
//!    budget, scheduler and rung counters) and every run's evaluator
//!    wrapped in a [`SpanBackend`], which times each call the environment
//!    makes into the evaluation backend and files it under the layer that
//!    answered it: the evaluator's local memo, the shared design cache, or
//!    compile + execute. Wall time minus backend time, per step, is the
//!    agent, environment and scheduler overhead. Each traced report must
//!    equal the untraced one: tracing may cost time, never change results.
//! 2. **Layer replay.** Every distinct design the last campaign cached is
//!    replayed through one layer at a time, in tight loops: context
//!    preparation (precise reference run + compiled skeleton), compile +
//!    execute on a fresh uncached evaluator (whose metrics must equal the
//!    cached ones), a local-memo hit, and a shared-cache lookup.
//!
//! Which end-to-end metric each layer metric should move, and where:
//!
//! | layer metric | moves | on |
//! |---|---|---|
//! | `kernel_us_per_design`, `execute_ms`, `backend.executions`, `shared_hit_rate` | `campaign_rel` | cold-grid, budgeted-asha (warm-replay executes nothing) |
//! | `agent_env_ns_per_step`, `memo_hit_call_ns`, `shared_hit_call_ns`, `memo_ns_per_design`, `cache_get_ns_per_design`, `evaluate_calls`, `memo_hit_rate` | `campaign_rel` | every workload; all of warm-replay's time |
//! | `context_prepare_us` | `campaign_rel` | every workload, most on warm-replay |
//! | `campaign.resume_passes`, `campaign.run_resumes`, `budget.overshoot` | `campaign_rel` | budgeted-asha |
//! | `library_build_us` | `setup_s` | cold-grid, budgeted-asha |
//! | `trace_campaign_rel` | — (the traced twin of `campaign_rel`; the gap between them is the tracing overhead) | every workload |
//! | `reference_ms` | — (the host's speed during the run; raw times above scale with it) | every workload |

use crate::reference;
use crate::scenario::{self, Bench};
use crate::{median, metric, Metric, Outcome};
use ax_dse::campaign::{Telemetry, WrapProvider};
use ax_dse::config::{AxConfig, SpaceDims};
use ax_dse::{EvalBackend, EvalContext, EvalMetrics, Evaluator, SharedCache};
use ax_vm::{Program, VmError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Share of `--seconds` spent on traced campaigns; the rest replays layers.
const CAMPAIGN_SHARE: f64 = 0.75;
/// Traced campaigns and layer replays a run makes at least.
const MIN_PASSES: usize = 3;

/// Calls into one backend layer: how many, and their summed wall time.
#[derive(Default)]
struct Span {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Span {
    fn record(&self, ns: u64) {
        // Relaxed: plain statistics, read only after the campaign returns.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }
}

/// Backend calls of one campaign, by the layer that answered them.
#[derive(Default)]
struct Spans {
    memo: Span,
    shared: Span,
    execute: Span,
    /// Whole-neighbourhood batches (only with `batch_neighborhood`), which
    /// mix layers inside one call.
    batch: Span,
}

impl Spans {
    fn all(&self) -> [&Span; 4] {
        [&self.memo, &self.shared, &self.execute, &self.batch]
    }
}

/// An exact evaluator that times every call the environment makes into it.
struct SpanBackend {
    inner: Evaluator,
    spans: Arc<Spans>,
}

impl EvalBackend for SpanBackend {
    fn dims(&self) -> SpaceDims {
        self.inner.dims()
    }

    fn program(&self) -> &Program {
        self.inner.program()
    }

    fn precise_power(&self) -> f64 {
        self.inner.precise_power()
    }

    fn precise_time(&self) -> f64 {
        self.inner.precise_time()
    }

    fn mean_abs_output(&self) -> f64 {
        self.inner.mean_abs_output()
    }

    fn evaluate(&mut self, config: &AxConfig) -> Result<EvalMetrics, VmError> {
        let (shared, executions) = (self.inner.shared_cache_hits(), self.inner.executions());
        let t0 = Instant::now();
        let result = self.inner.evaluate(config);
        let ns = t0.elapsed().as_nanos() as u64;
        let span = if self.inner.executions() > executions {
            &self.spans.execute
        } else if self.inner.shared_cache_hits() > shared {
            &self.spans.shared
        } else {
            &self.spans.memo
        };
        span.record(ns);
        result
    }

    fn evaluate_batch(&mut self, configs: &[AxConfig]) -> Result<Vec<EvalMetrics>, VmError> {
        let t0 = Instant::now();
        let result = self.inner.evaluate_batch(configs);
        self.spans.batch.record(t0.elapsed().as_nanos() as u64);
        result
    }

    fn distinct_evaluations(&self) -> u64 {
        self.inner.distinct_evaluations()
    }

    fn telemetry_counters(&self) -> Vec<(&'static str, u64)> {
        self.inner.telemetry_counters()
    }
}

/// One traced campaign's measurements.
struct TracedCampaign {
    wall_ns: f64,
    steps: u64,
    spans: Arc<Spans>,
    counters: HashMap<String, u64>,
}

impl TracedCampaign {
    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    fn backend_ns(&self) -> f64 {
        self.spans.all().iter().map(|s| s.ns()).sum::<u64>() as f64
    }

    fn evaluate_calls(&self) -> f64 {
        self.spans.all().iter().map(|s| s.calls()).sum::<u64>() as f64
    }
}

/// Runs one traced campaign of spec `i`; `Err` says how its outputs were
/// wrong.
fn traced_campaign(
    bench: &Bench,
    i: usize,
    cache: Arc<SharedCache>,
    reference: &str,
) -> Result<TracedCampaign, String> {
    let spans = Arc::new(Spans::default());
    let telemetry = Telemetry::new();
    let provider = WrapProvider::new(|inner| SpanBackend {
        inner,
        spans: Arc::clone(&spans),
    });
    let t0 = Instant::now();
    let report = bench
        .campaign(i, cache)
        .telemetry(&telemetry)
        .run_with(&provider);
    let wall_ns = t0.elapsed().as_nanos() as f64;
    let mut report = report.map_err(|e| e.to_string())?;
    bench.check_report(i, &report)?;
    let summary = report
        .telemetry
        .take()
        .ok_or("a traced campaign reported no telemetry section")?;
    if report.to_json_string() != reference {
        return Err("the traced report differs from the untraced one".into());
    }
    if !summary.budget_invariant_ok {
        return Err("per-cell budget spends do not add up to the global spend".into());
    }
    let counters: HashMap<String, u64> = summary.metrics.counters.into_iter().collect();
    let get = |name: &str| counters.get(name).copied().unwrap_or(0);
    // Single-design calls are classified by the evaluator counters the
    // campaign also harvests, so without batches the two views must agree.
    if spans.batch.calls() == 0
        && (spans.execute.calls() != get("backend.executions")
            || spans.shared.calls() != get("backend.shared_hits")
            || spans.memo.calls() != get("backend.local_hits"))
    {
        return Err("span counts disagree with the harvested backend counters".into());
    }
    Ok(TracedCampaign {
        wall_ns,
        steps: scenario::steps(&report),
        spans,
        counters,
    })
}

/// One pass of the layer replay over every design the last campaigns
/// cached.
#[derive(Default)]
struct Replay {
    designs: u64,
    context_ns: Vec<f64>,
    kernel_ns: f64,
    memo_ns: f64,
    cache_ns: f64,
    mismatches: u64,
}

/// Replays the designs a campaign of spec `i` left in `cache` through each
/// layer in turn, adding to `replay`.
fn replay_layers(
    bench: &Bench,
    i: usize,
    cache: &Arc<SharedCache>,
    replay: &mut Replay,
) -> Result<(), String> {
    let lib = Arc::new(bench.lib.clone());
    for (b, name, iseed) in bench.scopes(i) {
        let workload = bench.workloads[b].as_ref();
        let designs = cache.snapshot(&name, iseed);

        let t0 = Instant::now();
        std::hint::black_box(
            EvalContext::with_cache(workload, Arc::clone(&lib), iseed, Arc::clone(cache))
                .map_err(|e| e.to_string())?,
        );
        replay.context_ns.push(t0.elapsed().as_nanos() as f64);

        let mut fresh = EvalContext::new(workload, Arc::clone(&lib), iseed)
            .map_err(|e| e.to_string())?
            .evaluator();
        let t0 = Instant::now();
        for (config, cached) in &designs {
            let m = fresh.evaluate(config).map_err(|e| e.to_string())?;
            replay.mismatches += u64::from(m != *cached);
        }
        replay.kernel_ns += t0.elapsed().as_nanos() as f64;

        let t0 = Instant::now();
        for (config, _) in &designs {
            std::hint::black_box(fresh.evaluate(config).map_err(|e| e.to_string())?);
        }
        replay.memo_ns += t0.elapsed().as_nanos() as f64;

        let scope = cache.scope(&name, iseed);
        let t0 = Instant::now();
        for (config, cached) in &designs {
            let m = cache.get(scope, config);
            replay.mismatches += u64::from(m != Some(*cached));
        }
        replay.cache_ns += t0.elapsed().as_nanos() as f64;
        replay.designs += designs.len() as u64;
    }
    Ok(())
}

/// The median over `samples` of `f`.
fn median_of<T>(samples: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&mut samples.iter().map(f).collect::<Vec<_>>())
}

/// Harvested counters reported per campaign (medians over the traced
/// campaigns): executions fall when designs are shared or canonicalised,
/// the rest move when the scheduler's resume loop changes.
const COUNTERS: [&str; 4] = [
    "backend.executions",
    "budget.overshoot",
    "campaign.resume_passes",
    "campaign.run_resumes",
];

/// `--trace 1`: traced campaigns, then the layer replay.
pub fn run(bench: &Bench, seconds: f64) -> Result<Outcome, String> {
    let mut library_ns: Vec<f64> = (0..MIN_PASSES)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(bench.specs[0].library.build());
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    let n = bench.specs.len();
    let references = (0..n)
        .map(|i| match bench.expected_report(i) {
            Some(report) => Ok(report.to_owned()),
            None => Ok(bench.run(i, bench.cache(i))?.to_json_string()),
        })
        .collect::<Result<Vec<String>, String>>()?;

    let start = Instant::now();
    let campaigns_until = start + Duration::from_secs_f64(seconds * CAMPAIGN_SHARE);
    let (mut passes, mut attempted, mut failed) = (0, 0u64, 0u64);
    let mut traced = Vec::new();
    // Per pass: the reference workload's time, and the pass's mean traced
    // campaign time relative to it (the twin of `--trace 0`'s samples).
    let (mut reference_ns, mut pass_rel) = (Vec::new(), Vec::new());
    let mut host = reference::Reference::default();
    let mut last_caches: Vec<Option<Arc<SharedCache>>> = vec![None; n];
    while passes < MIN_PASSES || Instant::now() < campaigns_until {
        passes += 1;
        let reference_s = host.time();
        reference_ns.push(reference_s * 1e9);
        let (mut wall_ns, mut ok) = (0.0, true);
        for (i, reference) in references.iter().enumerate() {
            attempted += 1;
            let cache = bench.cache(i);
            match traced_campaign(bench, i, Arc::clone(&cache), reference) {
                Ok(t) => {
                    wall_ns += t.wall_ns;
                    traced.push(t);
                    last_caches[i] = Some(cache);
                }
                Err(e) => {
                    eprintln!("traced campaign {attempted} (spec {i}) failed: {e}");
                    failed += 1;
                    ok = false;
                }
            }
        }
        if ok {
            pass_rel.push(wall_ns / 1e9 / n as f64 / reference_s);
        }
    }
    let caches = last_caches
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or("a spec never finished a traced campaign")?;

    let replay_until = start + Duration::from_secs_f64(seconds);
    let mut replays = Vec::new();
    while replays.len() < MIN_PASSES || Instant::now() < replay_until {
        let mut replay = Replay::default();
        for (i, cache) in caches.iter().enumerate() {
            replay_layers(bench, i, cache, &mut replay)?;
        }
        replays.push(replay);
    }
    let mismatches: u64 = replays.iter().map(|r| r.mismatches).sum();
    if mismatches > 0 {
        eprintln!("{mismatches} replayed designs differ from the cached metrics");
    }

    // A layer no call reached (say, the memo when every step is batched)
    // reads 0 rather than 0/0.
    let per_call = |span: fn(&Spans) -> &Span| {
        move |t: &TracedCampaign| {
            let s = span(&t.spans);
            s.ns() as f64 / s.calls().max(1) as f64
        }
    };
    let resolved = |t: &TracedCampaign| {
        t.counter("backend.local_hits")
            + t.counter("backend.shared_hits")
            + t.counter("backend.executions")
    };
    let mut metrics: Vec<Metric> = vec![
        metric("trace_campaign_rel", median(&mut pass_rel), "x"),
        metric("reference_ms", median(&mut reference_ns) / 1e6, "ms"),
        metric(
            "agent_env_ns_per_step",
            median_of(&traced, |t| (t.wall_ns - t.backend_ns()) / t.steps as f64),
            "ns",
        ),
        metric(
            "memo_hit_call_ns",
            median_of(&traced, per_call(|s| &s.memo)),
            "ns",
        ),
        metric(
            "shared_hit_call_ns",
            median_of(&traced, per_call(|s| &s.shared)),
            "ns",
        ),
        metric(
            "execute_ms",
            median_of(&traced, |t| t.spans.execute.ns() as f64) / 1e6,
            "ms",
        ),
        metric(
            "evaluate_calls",
            median_of(&traced, TracedCampaign::evaluate_calls),
            "count",
        ),
        metric(
            "memo_hit_rate",
            median_of(&traced, |t| t.counter("backend.local_hits") / resolved(t)),
            "ratio",
        ),
        metric(
            "shared_hit_rate",
            median_of(&traced, |t| {
                let shared = t.counter("backend.shared_hits");
                shared / (shared + t.counter("backend.executions")).max(1.0)
            }),
            "ratio",
        ),
    ];
    metrics.extend(
        COUNTERS
            .iter()
            .map(|&name| metric(name, median_of(&traced, |t| t.counter(name)), "count")),
    );
    metrics.extend([
        metric(
            "context_prepare_us",
            median(
                &mut replays
                    .iter()
                    .flat_map(|r| r.context_ns.iter().copied())
                    .collect::<Vec<_>>(),
            ) / 1e3,
            "us",
        ),
        metric(
            "kernel_us_per_design",
            median_of(&replays, |r| r.kernel_ns / r.designs as f64) / 1e3,
            "us",
        ),
        metric(
            "memo_ns_per_design",
            median_of(&replays, |r| r.memo_ns / r.designs as f64),
            "ns",
        ),
        metric(
            "cache_get_ns_per_design",
            median_of(&replays, |r| r.cache_ns / r.designs as f64),
            "ns",
        ),
        metric("library_build_us", median(&mut library_ns) / 1e3, "us"),
    ]);
    Ok(Outcome {
        correct: failed == 0 && mismatches == 0,
        attempted,
        failed,
        metrics,
    })
}
