//! The daemon: a TCP accept loop routing the HTTP control plane onto one
//! [`GlobalScheduler`] and one shared [`SharedCache`], with one worker
//! thread per submitted job.
//!
//! Concurrency model: request handling is short (parse + bookkeeping) and
//! runs inline on the accept loop; the actual campaigns run on dedicated
//! job threads that block in [`GlobalScheduler::acquire`] until the
//! scheduler admits them (at most `workers` at a time, priority first,
//! preemption via each job's `CampaignControl`). `POST /shutdown` cancels
//! whatever is still unfinished, joins every job thread, persists the
//! cache and returns from [`Server::run`].

use crate::http::{Request, Response};
use crate::job::{Job, JobState};
use ax_dse::backend::SharedCache;
use ax_dse::campaign::{run_spec, ExperimentSpec, GlobalScheduler, RunSpecOptions, Telemetry};
use ax_dse::json::Json;
use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;

/// Everything `repro serve` can configure.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (tests).
    pub addr: String,
    /// Concurrent job slots (the [`GlobalScheduler`] admission cap).
    pub workers: usize,
    /// Persist the shared design cache to this file (loaded at startup,
    /// atomically merged, pruned and saved after every finished job and at
    /// shutdown).
    pub cache_path: Option<String>,
    /// Server-wide evaluation budget across *all* jobs (`None` =
    /// unbounded): each job is granted its cap out of what is left.
    pub server_budget: Option<u64>,
    /// The most any one job is granted; an unbudgeted spec served under
    /// it runs with this budget.
    pub max_job_budget: Option<u64>,
    /// Keep at most this many cache scopes (one per benchmark, input seed
    /// and program-and-library fingerprint), in memory and in the cache
    /// file, pruning least-recently-used ones after each finished job.
    pub cache_max_scopes: Option<usize>,
    /// Shrink every submitted spec like `repro run --smoke` (CI).
    pub smoke: bool,
    /// Per-job event ring capacity (events kept for `/events`).
    pub events_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".into(),
            workers: 2,
            cache_path: None,
            server_budget: None,
            max_job_budget: None,
            cache_max_scopes: None,
            smoke: false,
            events_capacity: 8_192,
        }
    }
}

struct ServerState {
    config: ServeConfig,
    scheduler: GlobalScheduler,
    cache: Arc<SharedCache>,
    jobs: RwLock<HashMap<u64, Arc<Job>>>,
    telemetry: Telemetry,
    shutdown: AtomicBool,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

/// The bound daemon. [`Server::bind`] then [`Server::run`].
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the listener and builds the shared state (loading the cache
    /// file if one exists).
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be bound or the cache file is corrupt;
    /// the message names the address or the file.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| io::Error::new(e.kind(), format!("cannot bind {}: {e}", config.addr)))?;
        let cache = match &config.cache_path {
            Some(path) if std::path::Path::new(path).exists() => SharedCache::load(path)
                .map_err(|e| io::Error::new(e.kind(), format!("cannot load cache {path}: {e}")))?,
            _ => SharedCache::new(),
        };
        let state = Arc::new(ServerState {
            scheduler: GlobalScheduler::new(
                config.server_budget,
                config.workers.max(1),
                config.max_job_budget,
            ),
            cache,
            jobs: RwLock::new(HashMap::new()),
            telemetry: Telemetry::new(),
            shutdown: AtomicBool::new(false),
            handles: Mutex::new(Vec::new()),
            config,
        });
        Ok(Server { listener, state })
    }

    /// Scopes of the loaded cache file that were skipped for want of a
    /// fingerprint (see [`SharedCache::skipped_scopes`]); the next save
    /// drops them from the file.
    pub fn skipped_cache_scopes(&self) -> u64 {
        self.state.cache.skipped_scopes()
    }

    /// The actually bound address (resolves an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until `POST /shutdown`, then cancels unfinished jobs, joins
    /// every job thread and persists the cache.
    ///
    /// # Errors
    ///
    /// Fails on accept-loop I/O errors or a failed final cache save.
    pub fn run(self) -> io::Result<()> {
        for stream in self.listener.incoming() {
            match stream {
                Ok(stream) => handle_connection(&self.state, stream),
                Err(e) => eprintln!("serve: accept error: {e}"),
            }
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
        }
        // Cancel stragglers so their threads reach a step boundary and
        // exit, then join everything for clean accounting.
        for job in self.state.jobs.read().expect("jobs lock").values() {
            if !matches!(
                job.state(self.state.scheduler.phase(job.id())),
                JobState::Completed | JobState::Failed
            ) {
                self.state.scheduler.cancel(job.id());
            }
        }
        let handles = std::mem::take(&mut *self.state.handles.lock().expect("handles lock"));
        for handle in handles {
            let _ = handle.join();
        }
        if let Some(path) = &self.state.config.cache_path {
            let max_scopes = self.state.config.cache_max_scopes.unwrap_or(usize::MAX);
            self.state.cache.save(path, max_scopes, None)?;
        }
        Ok(())
    }
}

fn handle_connection(state: &Arc<ServerState>, stream: TcpStream) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot clone stream: {e}");
            return;
        }
    });
    let response = match Request::read_from(&mut reader) {
        Ok(Some(request)) => route(state, &request),
        Ok(None) => return,
        Err(e) => Response::error(400, &format!("bad request: {e}")),
    };
    let mut stream = stream;
    if let Err(e) = response.write_to(&mut stream) {
        eprintln!("serve: cannot write response: {e}");
    }
}

fn route(state: &Arc<ServerState>, request: &Request) -> Response {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Response::json(200, "{\"ok\": true}"),
        ("GET", ["metrics"]) => metrics(state),
        ("POST", ["shutdown"]) => {
            state.shutdown.store(true, Ordering::SeqCst);
            Response::json(200, "{\"shutting_down\": true}")
        }
        ("POST", ["campaigns"]) => submit(state, request),
        ("GET", ["campaigns"]) => list(state),
        ("GET", ["campaigns", id]) => with_job(state, id, |job| {
            Response::json(200, job.status_json(state.scheduler.phase(job.id())))
        }),
        ("GET", ["campaigns", id, "report"]) => with_job(state, id, |job| match job.report() {
            // The raw stored bytes: byte-identical to `repro run
            // --report-json` on the same spec.
            Some(report) => Response::json(200, report),
            None => Response::error(
                404,
                &format!(
                    "job {} has no report yet (state: {})",
                    job.id(),
                    job.state(state.scheduler.phase(job.id())).name()
                ),
            ),
        }),
        ("GET", ["campaigns", id, "events"]) => with_job(state, id, |job| {
            let mut body = String::new();
            for event in job.events().events() {
                body.push_str(&event.to_json_line());
                body.push('\n');
            }
            Response::jsonl(200, body)
        }),
        ("DELETE", ["campaigns", id]) => with_job(state, id, |job| {
            job.ticket().control().cancel();
            state.scheduler.cancel(job.id());
            state.telemetry.counter_add("serve.jobs_cancelled", 1);
            Response::json(
                202,
                Json::obj(vec![
                    ("id", Json::u64(job.id())),
                    ("cancelling", Json::Bool(true)),
                ])
                .pretty(),
            )
        }),
        ("GET" | "POST" | "DELETE", _) => Response::error(404, "no such endpoint"),
        _ => Response::error(405, "unsupported method"),
    }
}

/// Looks up `{id}` and applies `f`, mapping bad ids to 400/404.
fn with_job(state: &Arc<ServerState>, id: &str, f: impl FnOnce(&Arc<Job>) -> Response) -> Response {
    let Ok(id) = id.parse::<u64>() else {
        return Response::error(400, &format!("job id must be a number, got `{id}`"));
    };
    let job = state.jobs.read().expect("jobs lock").get(&id).cloned();
    match job {
        Some(job) => f(&job),
        None => Response::error(404, &format!("no job {id}")),
    }
}

fn submit(state: &Arc<ServerState>, request: &Request) -> Response {
    if state.shutdown.load(Ordering::SeqCst) {
        return Response::error(409, "server is shutting down");
    }
    let text = match std::str::from_utf8(&request.body) {
        Ok(t) => t,
        Err(e) => return Response::error(400, &format!("spec is not UTF-8: {e}")),
    };
    let mut spec = match ExperimentSpec::from_json_str(text) {
        Ok(s) => s,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    if state.config.smoke {
        spec = spec.smoke();
    }
    // One campaign thread per job: the job runs sequentially and the
    // daemon's parallelism is *across* jobs (the scheduler's worker
    // slots). No report depends on it.
    spec.parallelism = Some(1);
    let priority = match request.query_param("priority") {
        None => 0,
        Some(p) => match p.parse::<u8>() {
            Ok(p) => p,
            Err(e) => return Response::error(400, &format!("bad priority `{p}`: {e}")),
        },
    };
    let ticket = state.scheduler.submit(priority, spec.budget);
    let job = Arc::new(Job::new(
        spec,
        ticket,
        priority,
        state.config.events_capacity,
    ));
    let id = job.id();
    state
        .jobs
        .write()
        .expect("jobs lock")
        .insert(id, Arc::clone(&job));
    state.telemetry.counter_add("serve.jobs_submitted", 1);
    let worker = {
        let state = Arc::clone(state);
        let job = Arc::clone(&job);
        std::thread::spawn(move || run_job(&state, &job))
    };
    state.handles.lock().expect("handles lock").push(worker);
    Response::json(
        200,
        Json::obj(vec![
            ("id", Json::u64(id)),
            (
                "state",
                Json::str(job.state(state.scheduler.phase(id)).name()),
            ),
        ])
        .pretty(),
    )
}

/// Releases a job's scheduler slot when dropped — on return and on
/// unwind alike — so a campaign that panics cannot keep its slot (under
/// `--workers 1`, every later job would stay queued). A job still without
/// an outcome when its guard drops ended in a panic and is marked failed.
struct SlotGuard<'a> {
    state: &'a ServerState,
    job: &'a Job,
    /// What the job charged, for the scheduler: its grant until it ends.
    charged: u64,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        // Campaign code holds neither the job's outcome lock nor the
        // scheduler's, so a campaign panic cannot poison them and this
        // drop cannot panic in turn.
        if !self.job.has_outcome() {
            self.job.set_error("campaign panicked");
            self.state.telemetry.counter_add("serve.jobs_failed", 1);
        }
        self.state.scheduler.finish(self.job.ticket(), self.charged);
    }
}

/// The job worker: wait for admission, run the spec with its granted cap
/// as its budget under the job's control handle, store the report bytes,
/// release the slot, persist the cache.
fn run_job(state: &Arc<ServerState>, job: &Arc<Job>) {
    let mut slot = SlotGuard {
        state,
        job,
        charged: 0,
    };
    let Some(cap) = state.scheduler.acquire(job.ticket()) else {
        job.set_error("cancelled while queued");
        return;
    };
    if let Some(cap) = cap {
        job.set_cap(cap);
        slot.charged = cap;
    }
    if cap == Some(0) {
        job.set_error("server budget exhausted");
        state.telemetry.counter_add("serve.jobs_failed", 1);
        return;
    }
    // The grant is at most the spec's own budget, so this is the spec
    // `repro run --budget N` runs for the granted N.
    let spec = ExperimentSpec {
        budget: cap,
        ..job.spec().clone()
    };
    // Without metrics, as `repro run` runs without `--metrics`: the report
    // has no telemetry section, so its bytes equal a local run's.
    let opts = RunSpecOptions {
        cache: Some(Arc::clone(&state.cache)),
        observer: Some(job.events()),
        control: Some(job.ticket().control().clone()),
        ..Default::default()
    };
    let outcome = run_spec(&spec, opts);
    slot.charged = outcome.as_ref().map_or(0, |r| r.budget.charged());
    match outcome {
        Ok(report) => {
            job.set_report(report.to_json_string());
            state.telemetry.counter_add("serve.jobs_completed", 1);
        }
        Err(e) => {
            job.set_error(e.to_string());
            state.telemetry.counter_add("serve.jobs_failed", 1);
        }
    }
    drop(slot);
    // With a file, the bound applies to the union `save` merges from disk,
    // so memory and file both stay within it.
    if let Some(path) = &state.config.cache_path {
        let max_scopes = state.config.cache_max_scopes.unwrap_or(usize::MAX);
        if let Err(e) = state.cache.save(path, max_scopes, None) {
            eprintln!("serve: cannot persist cache to {path}: {e}");
        }
    } else if let Some(max_scopes) = state.config.cache_max_scopes {
        state.cache.prune_oldest(max_scopes, None);
    }
}

fn list(state: &Arc<ServerState>) -> Response {
    let jobs = state.jobs.read().expect("jobs lock");
    let mut ids: Vec<u64> = jobs.keys().copied().collect();
    ids.sort_unstable();
    let entries = ids
        .iter()
        .map(|id| {
            let job = &jobs[id];
            Json::obj(vec![
                ("id", Json::u64(*id)),
                ("name", Json::str(job.name())),
                (
                    "state",
                    Json::str(job.state(state.scheduler.phase(*id)).name()),
                ),
            ])
        })
        .collect();
    Response::json(
        200,
        Json::obj(vec![("campaigns", Json::Arr(entries))]).pretty(),
    )
}

fn metrics(state: &Arc<ServerState>) -> Response {
    let (queued, running, preempted, finished) = state.scheduler.counts();
    let snapshot = state.telemetry.snapshot();
    let counter =
        |name: &str| Json::u64(snapshot.as_ref().and_then(|s| s.counter(name)).unwrap_or(0));
    let doc = Json::obj(vec![
        ("workers", Json::u64(state.scheduler.workers() as u64)),
        (
            "jobs",
            Json::obj(vec![
                ("queued", Json::u64(queued as u64)),
                ("running", Json::u64(running as u64)),
                ("preempted", Json::u64(preempted as u64)),
                ("finished", Json::u64(finished as u64)),
                ("submitted", counter("serve.jobs_submitted")),
                ("completed", counter("serve.jobs_completed")),
                ("failed", counter("serve.jobs_failed")),
                ("cancelled", counter("serve.jobs_cancelled")),
            ]),
        ),
        (
            "budget",
            Json::obj(vec![
                ("cap", state.scheduler.cap().map_or(Json::Null, Json::u64)),
                ("committed", Json::u64(state.scheduler.committed())),
            ]),
        ),
        (
            "cache",
            Json::obj(vec![
                ("entries", Json::u64(state.cache.len() as u64)),
                ("scopes", Json::u64(state.cache.scope_count() as u64)),
                ("hits", Json::u64(state.cache.hits())),
                ("misses", Json::u64(state.cache.misses())),
                ("evictions", Json::u64(state.cache.evictions())),
            ]),
        ),
    ]);
    Response::json(200, doc.pretty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    fn submit_job(state: &ServerState, spec: &ExperimentSpec) -> Arc<Job> {
        let ticket = state.scheduler.submit(0, spec.budget);
        let job = Arc::new(Job::new(spec.clone(), ticket, 0, 64));
        state
            .jobs
            .write()
            .expect("jobs lock")
            .insert(job.id(), Arc::clone(&job));
        job
    }

    #[test]
    fn a_panicking_job_fails_and_frees_its_slot() {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("bind ephemeral port");
        let state = Arc::clone(&server.state);
        let spec = ExperimentSpec::from_json_str(
            r#"{"name": "tiny", "benchmarks": [{"kind": "dot", "size": 8}],
                "agents": ["q-learning"], "explore": {"max_steps": 50}}"#,
        )
        .expect("valid spec");
        let doomed = submit_job(&state, &spec);
        let next = submit_job(&state, &spec);

        // The first job holds the only slot and panics mid-campaign.
        let crashed = {
            let (state, job) = (Arc::clone(&state), Arc::clone(&doomed));
            std::thread::spawn(move || {
                assert_eq!(state.scheduler.acquire(job.ticket()), Some(None));
                let _slot = SlotGuard {
                    state: &state,
                    job: &job,
                    charged: 0,
                };
                panic!("campaign panicked on purpose");
            })
            .join()
        };
        assert!(crashed.is_err());
        let phase = state.scheduler.phase(doomed.id());
        assert_eq!(doomed.state(phase), JobState::Failed);
        assert_eq!(doomed.error().as_deref(), Some("campaign panicked"));

        // The next job takes the freed slot and completes; a leaked slot
        // would block it in `acquire`, so wait with a deadline.
        let (done, finished) = mpsc::channel();
        let runner = {
            let (state, job) = (Arc::clone(&state), Arc::clone(&next));
            std::thread::spawn(move || {
                run_job(&state, &job);
                done.send(()).expect("test waits");
            })
        };
        finished
            .recv_timeout(Duration::from_secs(60))
            .expect("the next job must not wait on the panicked job's slot");
        runner.join().expect("the next job runs without panicking");
        assert_eq!(
            next.state(state.scheduler.phase(next.id())),
            JobState::Completed
        );
        assert_eq!(state.scheduler.counts(), (0, 0, 0, 2));
    }
}
