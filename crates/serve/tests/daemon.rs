//! End-to-end daemon tests over a real ephemeral-port listener: report
//! byte-parity with local runs, concurrent submission over one shared
//! cache, cooperative cancellation with budget accounting, the per-job
//! and server-wide grants, and the cache scope bound on disk.

use ax_dse::backend::SharedCache;
use ax_dse::campaign::{
    run_spec, BackendSpec, BenchmarkSpec, ExperimentSpec, LibrarySpec, RunSpecOptions, SeedRange,
};
use ax_dse::explore::{AgentKind, ExploreOptions};
use ax_dse::json::Json;
use ax_serve::{ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A one-shot HTTP/1.1 client request; returns `(status, body)`.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("response has headers");
    let status = head
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    (status, body.to_owned())
}

/// Boots a daemon on an ephemeral port; returns its address and the
/// server thread handle (joined after POST /shutdown).
fn boot(config: ServeConfig) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..config
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server.run().expect("serve loop"));
    (addr, handle)
}

fn shutdown(addr: SocketAddr, handle: std::thread::JoinHandle<()>) {
    let (status, _) = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().expect("server thread exits cleanly");
}

/// Polls a job until it reaches a terminal state (completed / cancelled /
/// failed), returning its final status document.
fn await_terminal(addr: SocketAddr, id: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = request(addr, "GET", &format!("/campaigns/{id}"), "");
        assert_eq!(status, 200, "status poll failed: {body}");
        let doc = Json::parse(&body).expect("status is JSON");
        let state = doc.get("state").unwrap().as_str().unwrap().to_owned();
        if ["completed", "cancelled", "failed"].contains(&state.as_str()) {
            return doc;
        }
        assert!(Instant::now() < deadline, "job {id} stuck in `{state}`");
        std::thread::sleep(Duration::from_millis(30));
    }
}

fn quick_spec(name: &str, benchmark: BenchmarkSpec, backend: BackendSpec) -> ExperimentSpec {
    ExperimentSpec::new(name)
        .benchmark(benchmark)
        .agent(AgentKind::QLearning)
        .agent(AgentKind::Sarsa)
        .seeds(SeedRange::new(0, 2))
        .explore(ExploreOptions {
            max_steps: 120,
            ..Default::default()
        })
        .backend(backend)
}

/// Three concurrent campaigns over disjoint cache scopes, all sharing the
/// daemon's one cache, must each return a report byte-identical to a plain
/// local `run_spec`.
#[test]
fn concurrent_jobs_share_a_cache_and_match_local_runs_byte_for_byte() {
    let specs = [
        quick_spec(
            "daemon-matmul",
            BenchmarkSpec::MatMul(4),
            BackendSpec::ExactInterpreted,
        ),
        quick_spec("daemon-dot", BenchmarkSpec::Dot(8), BackendSpec::Exact),
        quick_spec("daemon-fir", BenchmarkSpec::Fir(16), BackendSpec::Exact).budget(300),
    ];
    // Local ground truth, computed independently of the daemon on the
    // default thread count (served jobs run sequentially).
    let baselines: Vec<String> = specs
        .iter()
        .map(|spec| {
            let report = run_spec(spec, RunSpecOptions::default()).expect("baseline runs");
            report.to_json_string()
        })
        .collect();
    let (addr, handle) = boot(ServeConfig {
        workers: 2, // three jobs over two slots: one queues
        ..ServeConfig::default()
    });
    // Submit all three from concurrent client threads.
    let ids: Vec<u64> = std::thread::scope(|scope| {
        let submits: Vec<_> = specs
            .iter()
            .map(|spec| {
                scope.spawn(move || {
                    let (status, body) =
                        request(addr, "POST", "/campaigns", &spec.to_json_string());
                    assert_eq!(status, 200, "submit failed: {body}");
                    Json::parse(&body)
                        .unwrap()
                        .get("id")
                        .unwrap()
                        .as_u64()
                        .unwrap()
                })
            })
            .collect();
        submits.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (&id, baseline) in ids.iter().zip(&baselines) {
        let doc = await_terminal(addr, id);
        assert_eq!(doc.get("state").unwrap().as_str().unwrap(), "completed");
        let (status, served) = request(addr, "GET", &format!("/campaigns/{id}/report"), "");
        assert_eq!(status, 200);
        assert_eq!(
            &served, baseline,
            "daemon report for job {id} must be byte-identical to a local run"
        );
    }
    // The jobs shared one cache: three disjoint scopes landed in it.
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    let metrics = Json::parse(&metrics).unwrap();
    let cache = metrics.get("cache").unwrap();
    assert_eq!(cache.get("scopes").unwrap().as_u64().unwrap(), 3);
    assert!(cache.get("entries").unwrap().as_u64().unwrap() > 0);
    let jobs = metrics.get("jobs").unwrap();
    assert_eq!(jobs.get("completed").unwrap().as_u64().unwrap(), 3);
    // The job's telemetry events stream as JSONL even though the stored
    // report (deliberately) carries no telemetry section.
    let (status, events) = request(addr, "GET", &format!("/campaigns/{}/events", ids[0]), "");
    assert_eq!(status, 200);
    assert!(events.lines().count() > 0);
    assert!(events.lines().all(|l| Json::parse(l).is_ok()));
    shutdown(addr, handle);
}

/// Runs `specs` on one daemon one after another, each on the cache the
/// earlier ones filled, and checks every served report is byte-identical
/// to the spec's local run on a fresh cache. Returns the cache's
/// `/metrics` section.
fn serve_in_turn_and_match_local_runs(specs: &[ExperimentSpec]) -> Json {
    let (addr, handle) = boot(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    for spec in specs {
        let local = run_spec(spec, RunSpecOptions::default())
            .expect("local run")
            .to_json_string();
        let (status, body) = request(addr, "POST", "/campaigns", &spec.to_json_string());
        assert_eq!(status, 200, "submit failed: {body}");
        let id = Json::parse(&body)
            .unwrap()
            .get("id")
            .unwrap()
            .as_u64()
            .unwrap();
        let doc = await_terminal(addr, id);
        assert_eq!(doc.get("state").unwrap().as_str().unwrap(), "completed");
        let (status, served) = request(addr, "GET", &format!("/campaigns/{id}/report"), "");
        assert_eq!(status, 200);
        assert_eq!(
            served, local,
            "served `{}` differs from its local run",
            spec.name
        );
    }
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    shutdown(addr, handle);
    Json::parse(&metrics).unwrap().get("cache").unwrap().clone()
}

/// A second job on a benchmark an earlier job already cached reports
/// only the classes its own runs resolved (`shared_distinct`), so it
/// matches its local run.
#[test]
fn a_job_on_an_already_cached_benchmark_matches_its_local_run() {
    let first = ExperimentSpec::new("x")
        .benchmark(BenchmarkSpec::MatMul(4))
        .agent(AgentKind::QLearning)
        .seeds(SeedRange::new(0, 2))
        .explore(ExploreOptions {
            max_steps: 300,
            ..Default::default()
        });
    let second = ExperimentSpec::new("y")
        .benchmark(BenchmarkSpec::MatMul(4))
        .agent(AgentKind::Sarsa)
        .seeds(SeedRange::new(5, 1))
        .explore(ExploreOptions {
            max_steps: 40,
            ..Default::default()
        });
    let cache = serve_in_turn_and_match_local_runs(&[first, second]);
    assert_eq!(cache.get("scopes").unwrap().as_u64().unwrap(), 1);
}

/// A spec budget that binds mid-pass: each cell's first run spends the
/// cell's whole grant, and its fresh second run steps past it. A served
/// job stops each run on its cell's budget, as `repro run` does, so the
/// reports match; a job ticket capped at the spec's budget would cut the
/// second cell short.
#[test]
fn a_spec_budget_that_binds_mid_pass_serves_the_local_report() {
    let spec = quick_spec(
        "daemon-binding",
        BenchmarkSpec::MatMul(4),
        BackendSpec::Exact,
    )
    .budget(40);
    let local = run_spec(&spec, RunSpecOptions::default()).expect("local run");
    assert!(local.budget.overshoot > 0, "{:?}", local.budget);
    serve_in_turn_and_match_local_runs(&[spec]);
}

/// Tenants on different operator libraries share the daemon's cache but
/// never each other's outcomes: each library is its own scope.
#[test]
fn tenants_on_different_libraries_match_their_local_runs() {
    let spec = |name: &str, library| {
        ExperimentSpec::new(name)
            .library(library)
            .benchmark(BenchmarkSpec::MatMul(4))
            .agent(AgentKind::QLearning)
            .seeds(SeedRange::new(0, 1))
            .explore(ExploreOptions {
                max_steps: 400,
                ..Default::default()
            })
    };
    let cache = serve_in_turn_and_match_local_runs(&[
        spec("default", LibrarySpec::EvoApprox),
        spec("extended", LibrarySpec::EvoApproxExtended),
        spec("default-again", LibrarySpec::EvoApprox),
    ]);
    assert_eq!(cache.get("scopes").unwrap().as_u64().unwrap(), 2);
}

/// DELETE mid-run cancels cooperatively: the job ends `cancelled`, keeps
/// its partial report, and its budget accounting stays consistent.
#[test]
fn delete_cancels_a_running_job_and_keeps_budget_accounting() {
    let (addr, handle) = boot(ServeConfig::default());
    // A deliberately long job: 8 seeds x 50k steps, sequential.
    let spec = ExperimentSpec::new("daemon-cancel")
        .benchmark(BenchmarkSpec::MatMul(10))
        .agent(AgentKind::QLearning)
        .seeds(SeedRange::new(0, 8))
        .explore(ExploreOptions {
            max_steps: 50_000,
            ..Default::default()
        });
    let (status, body) = request(addr, "POST", "/campaigns", &spec.to_json_string());
    assert_eq!(status, 200, "{body}");
    let id = Json::parse(&body)
        .unwrap()
        .get("id")
        .unwrap()
        .as_u64()
        .unwrap();
    // Wait until it is actually executing, then cancel.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, body) = request(addr, "GET", &format!("/campaigns/{id}"), "");
        let state = Json::parse(&body).unwrap();
        let state = state.get("state").unwrap().as_str().unwrap().to_owned();
        if state == "running" {
            break;
        }
        assert!(Instant::now() < deadline, "job never started: {state}");
        std::thread::sleep(Duration::from_millis(10));
    }
    let (status, body) = request(addr, "DELETE", &format!("/campaigns/{id}"), "");
    assert_eq!(status, 202, "{body}");
    let doc = await_terminal(addr, id);
    assert_eq!(doc.get("state").unwrap().as_str().unwrap(), "cancelled");
    assert_eq!(
        doc.get("budget"),
        Some(&Json::Null),
        "an unbounded job has no cap"
    );
    // The cooperative stop still produced a (partial) report, and what its
    // campaign charged is what the server has committed for the job.
    let (status, report) = request(addr, "GET", &format!("/campaigns/{id}/report"), "");
    assert_eq!(status, 200, "a cancelled job keeps its partial report");
    let report = Json::parse(&report).expect("partial report is valid JSON");
    let charged = report_charged(&report);
    assert!(charged > 0, "the job ran before the cancel landed");
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    let metrics = Json::parse(&metrics).unwrap();
    let committed = metrics.get("budget").unwrap().get("committed").unwrap();
    assert_eq!(committed.as_u64().unwrap(), charged);
    let jobs = metrics.get("jobs").unwrap();
    assert_eq!(jobs.get("cancelled").unwrap().as_u64().unwrap(), 1);
    assert_eq!(jobs.get("finished").unwrap().as_u64().unwrap(), 1);
    shutdown(addr, handle);
}

/// What a report's campaign charged: its spend plus its overshoot.
fn report_charged(report: &Json) -> u64 {
    let budget = report.get("budget").unwrap();
    let field = |name| budget.get(name).unwrap().as_u64().unwrap();
    field("spent") + field("overshoot")
}

/// Submits `spec`, waits for the job to end and returns its id and final
/// status document.
fn submit_and_await(addr: SocketAddr, spec: &ExperimentSpec) -> (u64, Json) {
    let (status, body) = request(addr, "POST", "/campaigns", &spec.to_json_string());
    assert_eq!(status, 200, "submit failed: {body}");
    let id = Json::parse(&body)
        .unwrap()
        .get("id")
        .unwrap()
        .as_u64()
        .unwrap();
    (id, await_terminal(addr, id))
}

/// Checks a completed job's served report against `run_spec` on its spec
/// with the granted cap as its budget, and returns the report.
fn assert_served_at_its_cap(addr: SocketAddr, spec: &ExperimentSpec, id: u64, doc: &Json) -> Json {
    assert_eq!(doc.get("state").unwrap().as_str().unwrap(), "completed");
    let cap = doc
        .get("budget")
        .unwrap()
        .get("cap")
        .unwrap()
        .as_u64()
        .unwrap();
    let local = run_spec(&spec.clone().budget(cap), RunSpecOptions::default()).expect("local run");
    assert!(
        local.budget.exhausted(),
        "the cap {cap} binds: {:?}",
        local.budget
    );
    let (status, served) = request(addr, "GET", &format!("/campaigns/{id}/report"), "");
    assert_eq!(status, 200);
    assert_eq!(
        served,
        local.to_json_string(),
        "served `{}` differs from its local run at budget {cap}",
        spec.name
    );
    Json::parse(&served).unwrap()
}

/// A spec that asks for more than `--max-job-budget`, or for no budget at
/// all, is granted the maximum and runs as a campaign with that budget:
/// its report is the local run's at the maximum.
#[test]
fn a_binding_job_maximum_serves_the_local_report_at_the_maximum() {
    const MAX: u64 = 60;
    let (addr, handle) = boot(ServeConfig {
        workers: 1,
        max_job_budget: Some(MAX),
        ..ServeConfig::default()
    });
    let budgeted = quick_spec("over-max", BenchmarkSpec::MatMul(4), BackendSpec::Exact).budget(300);
    let unbudgeted = quick_spec("no-budget", BenchmarkSpec::Dot(8), BackendSpec::Exact);
    for spec in [budgeted, unbudgeted] {
        let (id, doc) = submit_and_await(addr, &spec);
        let cap = doc.get("budget").unwrap().get("cap").unwrap().as_u64();
        assert_eq!(cap.unwrap(), MAX);
        assert_served_at_its_cap(addr, &spec, id, &doc);
    }
    shutdown(addr, handle);
}

/// Under `--workers 1` each job is granted its cap when the one before
/// it finishes: the first the job maximum, the second what the first
/// left of the server budget, and the third, with nothing left, fails at
/// once. Each completed report is the local run's at its cap.
#[test]
fn the_server_budget_grants_each_job_what_the_jobs_before_left() {
    const CAP: u64 = 250;
    const MAX: u64 = 150;
    let (addr, handle) = boot(ServeConfig {
        workers: 1,
        server_budget: Some(CAP),
        max_job_budget: Some(MAX),
        ..ServeConfig::default()
    });
    // Unbudgeted jobs, each wanting far more than CAP distinct designs.
    let spec = |name: &str, benchmark| {
        ExperimentSpec::new(name)
            .benchmark(benchmark)
            .agent(AgentKind::QLearning)
            .agent(AgentKind::Sarsa)
            .seeds(SeedRange::new(0, 4))
            .explore(ExploreOptions {
                max_steps: 5_000,
                ..Default::default()
            })
    };
    let specs = [
        spec("cap-a", BenchmarkSpec::MatMul(4)),
        spec("cap-b", BenchmarkSpec::Dot(8)),
        spec("cap-c", BenchmarkSpec::MatMul(4)),
    ];
    // Submitted together, so the second and third queue.
    let ids: Vec<u64> = specs
        .iter()
        .map(|spec| {
            let (status, body) = request(addr, "POST", "/campaigns", &spec.to_json_string());
            assert_eq!(status, 200, "submit failed: {body}");
            Json::parse(&body)
                .unwrap()
                .get("id")
                .unwrap()
                .as_u64()
                .unwrap()
        })
        .collect();
    let cap_of = |doc: &Json| {
        doc.get("budget")
            .unwrap()
            .get("cap")
            .unwrap()
            .as_u64()
            .unwrap()
    };
    let first = await_terminal(addr, ids[0]);
    assert_eq!(cap_of(&first), MAX);
    let charged_first = report_charged(&assert_served_at_its_cap(addr, &specs[0], ids[0], &first));
    let second = await_terminal(addr, ids[1]);
    assert_eq!(
        cap_of(&second),
        CAP - charged_first,
        "granted what the first left"
    );
    let charged_second =
        report_charged(&assert_served_at_its_cap(addr, &specs[1], ids[1], &second));
    let third = await_terminal(addr, ids[2]);
    assert_eq!(third.get("state").unwrap().as_str().unwrap(), "failed");
    assert_eq!(
        third.get("error").unwrap().as_str().unwrap(),
        "server budget exhausted"
    );
    assert_eq!(cap_of(&third), 0);
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    let metrics = Json::parse(&metrics).unwrap();
    let budget = metrics.get("budget").unwrap();
    assert_eq!(budget.get("cap").unwrap().as_u64().unwrap(), CAP);
    let committed = budget.get("committed").unwrap().as_u64().unwrap();
    assert_eq!(committed, charged_first + charged_second);
    let jobs = metrics.get("jobs").unwrap();
    assert_eq!(jobs.get("completed").unwrap().as_u64().unwrap(), 2);
    assert_eq!(jobs.get("failed").unwrap().as_u64().unwrap(), 1);
    shutdown(addr, handle);
}

/// An out-of-range learning parameter is a 400 at submission, not a job
/// whose panicking thread never releases its slot: on a one-slot daemon
/// the next valid job still runs to completion.
#[test]
fn bad_learning_parameters_are_rejected_before_they_take_a_slot() {
    let (addr, handle) = boot(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let bad_gamma = r#"{"name": "bad-gamma", "benchmarks": [{"kind": "dot", "size": 8}],
        "agents": ["q-learning"], "explore": {"max_steps": 50, "gamma": 1.5}}"#;
    let undersized = r#"{"name": "tiny-sobel", "benchmarks": [{"kind": "sobel", "size": 2}],
        "agents": ["q-learning"], "explore": {"max_steps": 50}}"#;
    // Grids too large to allocate, or whose seed range wraps: each used
    // to abort (or panic) the whole daemon once a worker started it.
    let seeds = |start: u64, count: u64| {
        format!(
            r#"{{"name": "huge", "benchmarks": [{{"kind": "dot", "size": 8}}],
            "agents": ["q-learning"], "explore": {{"max_steps": 50}},
            "seeds": {{"start": {start}, "count": {count}}}}}"#
        )
    };
    let oversized = seeds(0, 1 << 40);
    let overflowing = seeds(0, u64::MAX);
    let wrapping = seeds(u64::MAX, 2);
    for (bad, field) in [
        (bad_gamma, "explore.gamma"),
        (undersized, "benchmarks[0].size"),
        (&oversized, "seeds"),
        (&overflowing, "seeds"),
        (&wrapping, "seeds"),
    ] {
        let (status, body) = request(addr, "POST", "/campaigns", bad);
        assert_eq!(status, 400, "{body}");
        assert!(body.contains(field), "{body}");
    }
    let good = quick_spec("after-bad", BenchmarkSpec::Dot(8), BackendSpec::Exact);
    let (status, body) = request(addr, "POST", "/campaigns", &good.to_json_string());
    assert_eq!(status, 200, "{body}");
    let id = Json::parse(&body)
        .unwrap()
        .get("id")
        .unwrap()
        .as_u64()
        .unwrap();
    let doc = await_terminal(addr, id);
    assert_eq!(doc.get("state").unwrap().as_str().unwrap(), "completed");
    shutdown(addr, handle);
}

/// The HTTP surface rejects what it should without falling over.
#[test]
fn bad_requests_get_json_errors() {
    let (addr, handle) = boot(ServeConfig::default());
    let (status, _) = request(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, body) = request(addr, "POST", "/campaigns", "{\"name\": \"x\"}");
    assert_eq!(status, 400, "an unrunnable spec is rejected up front");
    assert!(Json::parse(&body).unwrap().get("error").is_some());
    let tiered = r#"{"name": "old", "benchmarks": [{"kind": "dot", "size": 8}],
        "agents": ["q-learning"], "backend": {"tiered": null}}"#;
    let (status, body) = request(addr, "POST", "/campaigns", tiered);
    assert_eq!(status, 400, "the removed tiered backend is a spec error");
    assert!(body.contains("was removed"), "{body}");
    let batched = r#"{"name": "old", "benchmarks": [{"kind": "dot", "size": 8}],
        "agents": ["q-learning"], "explore": {"batch_neighborhood": true}}"#;
    let (status, body) = request(addr, "POST", "/campaigns", batched);
    assert_eq!(
        status, 400,
        "the removed neighbourhood batching is a spec error"
    );
    assert!(body.contains("was removed"), "{body}");
    // A misspelt key would run the job with its field at the default.
    for (key, at) in [
        ("budjet", r#""budjet": 4000"#),
        ("explore.max_stepz", r#""explore": {"max_stepz": 5}"#),
    ] {
        let misspelt = format!(
            r#"{{"name": "typo", "benchmarks": [{{"kind": "dot", "size": 8}}],
                "agents": ["q-learning"], {at}}}"#
        );
        let (status, body) = request(addr, "POST", "/campaigns", &misspelt);
        assert_eq!(status, 400, "{body}");
        assert!(body.contains(&format!("unknown key `{key}`")), "{body}");
    }
    // Nesting deep enough to overflow a recursive parser's stack.
    let (status, body) = request(addr, "POST", "/campaigns", &"[".repeat(1_000_000));
    assert_eq!(status, 400, "{body}");
    let (status, _) = request(addr, "GET", "/campaigns/99", "");
    assert_eq!(status, 404);
    let (status, _) = request(addr, "GET", "/campaigns/banana", "");
    assert_eq!(status, 400);
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, "{\"ok\": true}"));
    shutdown(addr, handle);
}

/// Polls the cache file until it holds `benchmark`'s scope: a job's
/// status turns `completed` before its worker saves the cache.
fn await_saved(path: &std::path::Path, benchmark: &str, input_seed: u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if let Ok(saved) = SharedCache::load(path) {
            if saved.scope_len(benchmark, input_seed) > 0 {
                return;
            }
        }
        assert!(
            Instant::now() < deadline,
            "`{benchmark}` never reached {path:?}"
        );
        std::thread::sleep(Duration::from_millis(30));
    }
}

/// `--cache-scopes` bounds the cache file as well as memory: each
/// finished job merges the file, prunes the union and saves it, so the
/// scope the job just used survives and the merge cannot bring a pruned
/// scope back.
#[test]
fn the_scope_bound_holds_in_memory_and_on_disk() {
    let path =
        std::env::temp_dir().join(format!("ax_serve_scope_bound_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let (addr, handle) = boot(ServeConfig {
        workers: 1,
        cache_path: Some(path.to_string_lossy().into_owned()),
        cache_max_scopes: Some(1),
        ..ServeConfig::default()
    });
    let input_seed = ExploreOptions::default().input_seed;
    let mut scopes = Vec::new();
    for (name, benchmark) in [
        ("first", BenchmarkSpec::Dot(8)),
        ("second", BenchmarkSpec::Fir(16)),
    ] {
        let spec = quick_spec(name, benchmark, BackendSpec::Exact);
        let (status, body) = request(addr, "POST", "/campaigns", &spec.to_json_string());
        assert_eq!(status, 200, "submit failed: {body}");
        let id = Json::parse(&body)
            .unwrap()
            .get("id")
            .unwrap()
            .as_u64()
            .unwrap();
        let doc = await_terminal(addr, id);
        assert_eq!(doc.get("state").unwrap().as_str().unwrap(), "completed");
        let scope = benchmark.build().name();
        await_saved(&path, &scope, input_seed);
        scopes.push(scope);
    }
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    let metrics = Json::parse(&metrics).unwrap();
    let cache = metrics.get("cache").unwrap();
    assert_eq!(cache.get("scopes").unwrap().as_u64().unwrap(), 1);
    shutdown(addr, handle);
    let saved = SharedCache::load(&path).unwrap();
    assert_eq!(saved.scope_count(), 1, "the file keeps one scope");
    assert!(
        saved.scope_len(&scopes[1], input_seed) > 0,
        "the newest one"
    );
    let _ = std::fs::remove_file(&path);
}

/// A cache file `repro serve --cache` cannot use fails the bind with a
/// message naming it; one saved before scopes had fingerprints loads with
/// those scopes skipped, and the server reports how many.
#[test]
fn a_cache_file_is_loaded_or_named_in_the_error() {
    let path = std::env::temp_dir().join(format!("ax_serve_old_cache_{}.json", std::process::id()));
    let bind = |text: &str| {
        std::fs::write(&path, text).unwrap();
        Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            cache_path: Some(path.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        })
    };
    let old = r#"{"scopes": [{"benchmark": "matmul-4", "input_seed": 42, "entries": []}]}"#;
    let server = bind(old).expect("an old-format file loads");
    assert_eq!(server.skipped_cache_scopes(), 1);
    drop(server);
    let err = bind(r#"{"scopes": ["#)
        .err()
        .expect("a malformed file fails");
    let message = err.to_string();
    assert!(
        message.starts_with(&format!("cannot load cache {}: ", path.display())),
        "{message}"
    );
    let _ = std::fs::remove_file(&path);
}
