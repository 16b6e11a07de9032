//! A shared design cache changes what a campaign costs, never what it
//! reports: a scope is keyed by benchmark, input seed and a fingerprint of
//! program, operator library and inputs, and a report counts only the
//! classes its own runs resolved.

use axdse_suite::ax_dse::campaign::{run_spec, CampaignReport, ExperimentSpec, RunSpecOptions};
use axdse_suite::ax_dse::evaluator::SharedCache;
use axdse_suite::ax_dse::{AxConfig, EvalContext};
use axdse_suite::ax_operators::OperatorLibrary;
use axdse_suite::ax_telemetry::Telemetry;
use axdse_suite::ax_vm::CompiledSkeleton;
use axdse_suite::ax_workloads::fir::Fir;
use axdse_suite::ax_workloads::matmul::MatMul;
use axdse_suite::ax_workloads::Workload;
use std::sync::Arc;

/// The same MatMul-4 Q-learning campaign on the extended library (`A`)
/// and on the default one (`B`).
const EXTENDED: &str = r#"{"name": "a", "library": "evoapprox-extended",
    "benchmarks": [{"kind": "matmul", "size": 4}], "agents": ["q-learning"],
    "seeds": {"start": 0, "count": 1}, "explore": {"max_steps": 400}}"#;
const DEFAULT: &str = r#"{"name": "a",
    "benchmarks": [{"kind": "matmul", "size": 4}], "agents": ["q-learning"],
    "seeds": {"start": 0, "count": 1}, "explore": {"max_steps": 400}}"#;

/// Two campaigns on one benchmark: `X` fills the cache, `Y` runs after it.
const X: &str = r#"{"name": "x", "benchmarks": [{"kind": "matmul", "size": 4}],
    "agents": ["q-learning"], "seeds": {"start": 0, "count": 2},
    "explore": {"max_steps": 300}}"#;
const Y: &str = r#"{"name": "y", "benchmarks": [{"kind": "matmul", "size": 4}],
    "agents": ["sarsa"], "seeds": {"start": 5, "count": 1},
    "explore": {"max_steps": 40}}"#;

fn run(spec: &str, cache: Option<Arc<SharedCache>>) -> CampaignReport {
    let spec = ExperimentSpec::from_json_str(spec).unwrap();
    let opts = RunSpecOptions {
        cache,
        ..Default::default()
    };
    run_spec(&spec, opts).unwrap()
}

fn report(spec: &str, cache: Option<Arc<SharedCache>>) -> String {
    run(spec, cache).to_json_string()
}

/// Designs executed by a traced run of `spec` on `cache`.
fn executions(spec: &str, cache: Arc<SharedCache>) -> u64 {
    let spec = ExperimentSpec::from_json_str(spec).unwrap();
    let opts = RunSpecOptions {
        cache: Some(cache),
        telemetry: Telemetry::new(),
        ..Default::default()
    };
    let report = run_spec(&spec, opts).unwrap();
    let metrics = report.telemetry.expect("traced").metrics;
    metrics.counter("backend.executions").unwrap_or(0)
}

/// A per-process temp path with nothing at it.
fn fresh_path(tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "ax_cache_identity_{tag}_{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// The default-library campaign's cache, saved to a file and loaded back.
fn default_library_cache_file(tag: &str) -> std::path::PathBuf {
    let path = fresh_path(tag);
    let cache = SharedCache::new();
    run(DEFAULT, Some(Arc::clone(&cache)));
    cache.save(&path, usize::MAX, None).unwrap();
    path
}

#[test]
fn a_cache_filled_under_another_library_changes_no_report() {
    // One adder id names different adders in the two libraries: with the
    // library outside the key, this report lost its feasible solution and
    // 18 evaluations.
    let fresh = report(EXTENDED, None);
    let cache = SharedCache::new();
    run(DEFAULT, Some(Arc::clone(&cache)));
    assert_eq!(report(EXTENDED, Some(Arc::clone(&cache))), fresh);
    assert_eq!(cache.scope_count(), 2, "one scope per library");
    // The same through a cache file, as `repro run --cache` does it.
    let path = default_library_cache_file("library_probe");
    let loaded = SharedCache::load(&path).unwrap();
    assert_eq!(report(EXTENDED, Some(loaded)), fresh);
    let _ = std::fs::remove_file(path);
}

#[test]
fn a_file_saved_under_one_library_misses_for_another() {
    let path = default_library_cache_file("library_miss");
    let fresh = executions(EXTENDED, SharedCache::new());
    assert!(fresh > 0);
    assert_eq!(
        executions(EXTENDED, SharedCache::load(&path).unwrap()),
        fresh
    );
    // Its own library still hits every class it saved.
    assert_eq!(executions(DEFAULT, SharedCache::load(&path).unwrap()), 0);
    let _ = std::fs::remove_file(path);
}

#[test]
fn a_file_saved_before_fingerprints_is_skipped_not_misread() {
    // The pre-fingerprint layout: scopes keyed by benchmark and seed
    // alone, entries holding one (wrong-library) design.
    let path = fresh_path("format1");
    std::fs::write(
        &path,
        r#"{"scopes": [{"benchmark": "matmul-4x4", "input_seed": 42, "entries": [
            {"adder": 0, "mul": 0, "vars": 0, "delta_acc": 9, "delta_power": 9,
             "delta_time": 9, "signed_error": 9, "power": 9, "time_ns": 9}]}]}"#,
    )
    .unwrap();
    let loaded = SharedCache::load(&path).unwrap();
    assert_eq!((loaded.skipped_scopes(), loaded.len()), (1, 0));
    assert_eq!(report(DEFAULT, Some(loaded)), report(DEFAULT, None));
    let _ = std::fs::remove_file(path);
}

#[test]
fn shared_distinct_does_not_depend_on_what_else_used_the_cache() {
    // `shared_distinct` used to be the scope's size at campaign end, so
    // Y reported 48 after X instead of its own 18.
    let fresh = run(Y, None);
    assert_eq!(fresh.portfolios[0].shared_distinct, 18);
    let cache = SharedCache::new();
    run(X, Some(Arc::clone(&cache)));
    assert_eq!(cache.scope_len("matmul-4x4", 42), 48);
    assert_eq!(
        report(Y, Some(cache)),
        fresh.to_json_string(),
        "a second campaign on a used cache reports like a fresh one"
    );
}

#[test]
fn the_shipped_programs_keep_their_fingerprints() {
    // A saved scope matches only a context with its fingerprint, so a
    // change to how the compiled engine digests a program would make every
    // cache file saved before it miss without a word.
    let lib = Arc::new(OperatorLibrary::evoapprox());
    let pins: [(Box<dyn Workload>, u64, u64); 2] = [
        (
            Box::new(MatMul::new(10)),
            0x1508_cdd1_864b_0018,
            7_089_253_150_220_566_542,
        ),
        (
            Box::new(Fir::new(100)),
            0x9c53_591f_7b52_d905,
            3_158_466_840_584_453_508,
        ),
    ];
    for (workload, program_fingerprint, scope_fingerprint) in pins {
        let program = workload.build().unwrap();
        assert_eq!(
            CompiledSkeleton::new(&program).fingerprint(),
            program_fingerprint,
            "{}",
            workload.name()
        );
        let cache = SharedCache::new();
        let ctx =
            EvalContext::with_cache(&*workload, Arc::clone(&lib), 42, Arc::clone(&cache)).unwrap();
        ctx.evaluator().evaluate(&AxConfig::precise()).unwrap();
        let path = fresh_path(&format!("fingerprint_{}", workload.name()));
        cache.save(&path, usize::MAX, None).unwrap();
        let file = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(path);
        assert!(
            file.contains(&format!("\"fingerprint\": {scope_fingerprint},")),
            "{}: {file}",
            workload.name()
        );
    }
}
