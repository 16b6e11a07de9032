//! `ax-serve`: a long-lived, multi-tenant campaign daemon.
//!
//! `repro run` executes one [`ExperimentSpec`](ax_dse::campaign::ExperimentSpec)
//! per process; this crate keeps the whole stack resident and serves
//! campaigns over a hand-rolled HTTP/1.1 JSON API (plain
//! [`std::net::TcpListener`] — no network dependencies):
//!
//! | endpoint | effect |
//! |---|---|
//! | `POST /campaigns[?priority=P]` | submit a spec, get a job id |
//! | `GET /campaigns` | list jobs and states |
//! | `GET /campaigns/{id}` | status + granted cap |
//! | `GET /campaigns/{id}/report` | the finished `CampaignReport`, byte-identical to `repro run --budget` at the granted cap |
//! | `GET /campaigns/{id}/events` | the job's telemetry events as JSONL |
//! | `DELETE /campaigns/{id}` | cooperative cancel |
//! | `GET /healthz`, `GET /metrics` | liveness, scheduler/cache gauges |
//! | `POST /shutdown` | drain, persist the cache, exit |
//!
//! Behind the API every job shares one persistent
//! [`SharedCache`](ax_dse::backend::SharedCache) and one
//! [`GlobalScheduler`](ax_dse::campaign::GlobalScheduler) that admits
//! jobs to worker slots (priority preemption via pause/resume) and grants
//! each its cap out of a server-wide evaluation budget when it admits it.
//! The determinism contract: a spec submitted here produces a report
//! **byte-identical** to `repro run --budget N` on the same spec, where N
//! is the granted cap (plain `repro run` when no cap was granted) — see
//! `docs/serve_reference.md`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod http;
pub mod job;
pub mod server;

pub use http::{Request, Response};
pub use job::{Job, JobState};
pub use server::{ServeConfig, Server};
