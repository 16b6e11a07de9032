//! End-to-end daemon tests over a real ephemeral-port listener: report
//! byte-parity with local runs, concurrent submission over one shared
//! cache, cooperative cancellation with budget accounting, the
//! server-wide budget ceiling, and the cache scope bound on disk.

use ax_dse::backend::SharedCache;
use ax_dse::campaign::{
    run_spec, BackendSpec, BenchmarkSpec, ExperimentSpec, LibrarySpec, NullObserver, SeedRange,
};
use ax_dse::explore::{AgentKind, ExploreOptions};
use ax_dse::json::Json;
use ax_operators::OperatorLibrary;
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
    // sequential schedule every served job runs: where a binding budget
    // pauses a parallel run depends on thread interleaving.
    let lib = OperatorLibrary::evoapprox();
    let baselines: Vec<String> = specs
        .iter()
        .map(|spec| {
            let spec = spec.clone().parallelism(1);
            let report = run_spec(&lib, &spec, None, &NullObserver).expect("baseline runs");
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
        let local = run_spec(&spec.library.build(), spec, None, &NullObserver)
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
    // The cooperative stop still produced a (partial) report whose spend
    // agrees with the ticket's accounting in the status document.
    let (status, report) = request(addr, "GET", &format!("/campaigns/{id}/report"), "");
    assert_eq!(status, 200, "a cancelled job keeps its partial report");
    let report = Json::parse(&report).expect("partial report is valid JSON");
    let report_spent = report
        .get("budget")
        .unwrap()
        .get("spent")
        .unwrap()
        .as_u64()
        .unwrap();
    let status_spent = doc
        .get("budget")
        .unwrap()
        .get("spent")
        .unwrap()
        .as_u64()
        .unwrap();
    assert_eq!(
        report_spent, status_spent,
        "job ticket and campaign ledger charge the same deltas"
    );
    assert!(report_spent > 0, "the job ran before the cancel landed");
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    let jobs = Json::parse(&metrics).unwrap();
    let jobs = jobs.get("jobs").unwrap();
    assert_eq!(jobs.get("cancelled").unwrap().as_u64().unwrap(), 1);
    assert_eq!(jobs.get("finished").unwrap().as_u64().unwrap(), 1);
    shutdown(addr, handle);
}

/// The server-wide budget is a hard ceiling across all jobs: clamped
/// spend never exceeds the cap, whatever each job asked for.
#[test]
fn server_budget_caps_aggregate_spend_across_jobs() {
    const CAP: u64 = 250;
    let (addr, handle) = boot(ServeConfig {
        server_budget: Some(CAP),
        ..ServeConfig::default()
    });
    // Two unbudgeted jobs on different benchmarks, together wanting far
    // more than CAP distinct evaluations.
    let mut ids = Vec::new();
    for (name, benchmark) in [
        ("daemon-cap-a", BenchmarkSpec::MatMul(4)),
        ("daemon-cap-b", BenchmarkSpec::Dot(8)),
    ] {
        let spec = ExperimentSpec::new(name)
            .benchmark(benchmark)
            .agent(AgentKind::QLearning)
            .agent(AgentKind::Sarsa)
            .seeds(SeedRange::new(0, 4))
            .explore(ExploreOptions {
                max_steps: 5_000,
                ..Default::default()
            });
        let (status, body) = request(addr, "POST", "/campaigns", &spec.to_json_string());
        assert_eq!(status, 200, "{body}");
        ids.push(
            Json::parse(&body)
                .unwrap()
                .get("id")
                .unwrap()
                .as_u64()
                .unwrap(),
        );
    }
    for id in ids {
        let doc = await_terminal(addr, id);
        assert_eq!(doc.get("state").unwrap().as_str().unwrap(), "completed");
    }
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    let metrics = Json::parse(&metrics).unwrap();
    let budget = metrics.get("budget").unwrap();
    assert_eq!(budget.get("cap").unwrap().as_u64().unwrap(), CAP);
    let spent = budget.get("spent").unwrap().as_u64().unwrap();
    assert!(spent <= CAP, "clamped spend {spent} exceeds the cap {CAP}");
    assert_eq!(spent, CAP, "both jobs together exhaust the server budget");
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
