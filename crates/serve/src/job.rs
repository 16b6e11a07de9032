//! One submitted campaign: its spec, its scheduler ticket, its telemetry
//! ring and — eventually — its serialised report.

use ax_dse::campaign::JobTicket;
use ax_dse::campaign::{ExperimentSpec, JobPhase, Telemetry};
use ax_dse::json::Json;
use std::sync::{Mutex, OnceLock};

/// The externally visible lifecycle of a job.
///
/// ```text
///            submit            slot granted
/// (client) ─────────▶ queued ───────────────▶ running ──────▶ completed
///                       │                    ▲      │  report stored
///                       │ DELETE             │      │ preempted by a
///                       │                    └──────┘ higher priority
///                       ▼                    resume ▲│ pause
///                    cancelled ◀── DELETE ── running / preempted
///                                            (partial report kept)
///                    failed  ◀── spec unrunnable / benchmark error /
///                                server budget exhausted at admission
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Submitted, waiting for a worker slot.
    Queued,
    /// Holding a slot and executing.
    Running,
    /// Paused at a step boundary to fund higher-priority work.
    Preempted,
    /// Finished normally; the byte-exact report is stored.
    Completed,
    /// Cooperatively cancelled; a partial report may still be stored.
    Cancelled,
    /// The campaign could not run (bad spec, benchmark failure, a zero
    /// grant).
    Failed,
}

impl JobState {
    /// The lowercase wire name used in status JSON.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Preempted => "preempted",
            JobState::Completed => "completed",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }
}

/// How a finished job ended: the raw report text (the byte-parity
/// artefact) or an error message.
type Outcome = Result<String, String>;

/// One submitted campaign job.
#[derive(Debug)]
pub struct Job {
    name: String,
    priority: u8,
    spec: ExperimentSpec,
    ticket: JobTicket,
    /// The cap granted at admission; unset while queued or unbounded.
    cap: OnceLock<u64>,
    telemetry: Telemetry,
    outcome: Mutex<Option<Outcome>>,
}

impl Job {
    /// A fresh job around an admitted ticket. The telemetry ring is
    /// bounded to `events_capacity` events so long-lived daemons cannot
    /// accumulate unbounded history per job.
    pub fn new(
        spec: ExperimentSpec,
        ticket: JobTicket,
        priority: u8,
        events_capacity: usize,
    ) -> Self {
        Self {
            name: spec.name.clone(),
            priority,
            spec,
            ticket,
            cap: OnceLock::new(),
            telemetry: Telemetry::with_capacity(events_capacity),
            outcome: Mutex::new(None),
        }
    }

    /// The scheduler-assigned id.
    pub fn id(&self) -> u64 {
        self.ticket.id()
    }

    /// The campaign name from the spec.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The spec as submitted (after any server-side shrink/overrides).
    pub fn spec(&self) -> &ExperimentSpec {
        &self.spec
    }

    /// The scheduler ticket (id + control).
    pub fn ticket(&self) -> &JobTicket {
        &self.ticket
    }

    /// Records the cap the scheduler granted the job at admission.
    pub(crate) fn set_cap(&self, cap: u64) {
        let _ = self.cap.set(cap);
    }

    /// The job's bounded telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Stores the finished report's exact serialised bytes.
    pub fn set_report(&self, report_json: String) {
        *self.outcome.lock().expect("job outcome lock") = Some(Ok(report_json));
    }

    /// Stores a failure message.
    pub fn set_error(&self, message: impl Into<String>) {
        *self.outcome.lock().expect("job outcome lock") = Some(Err(message.into()));
    }

    /// `true` once a report or a failure is stored.
    pub(crate) fn has_outcome(&self) -> bool {
        self.outcome.lock().expect("job outcome lock").is_some()
    }

    /// The stored report text, once completed (also present for a
    /// cancelled job that got far enough to produce a partial report).
    pub fn report(&self) -> Option<String> {
        match &*self.outcome.lock().expect("job outcome lock") {
            Some(Ok(report)) => Some(report.clone()),
            _ => None,
        }
    }

    /// The stored failure message, if the job failed.
    pub fn error(&self) -> Option<String> {
        match &*self.outcome.lock().expect("job outcome lock") {
            Some(Err(e)) => Some(e.clone()),
            _ => None,
        }
    }

    /// Derives the externally visible state from the stored outcome plus
    /// the scheduler's phase for this job.
    pub fn state(&self, phase: Option<JobPhase>) -> JobState {
        let outcome = self.outcome.lock().expect("job outcome lock");
        match &*outcome {
            Some(_) if self.ticket.control().is_cancelled() => JobState::Cancelled,
            Some(Ok(_)) => JobState::Completed,
            Some(Err(_)) => JobState::Failed,
            None => match phase {
                Some(JobPhase::Queued) | None => JobState::Queued,
                Some(JobPhase::Preempted) => JobState::Preempted,
                // `Finished` before the outcome lands is a transient
                // worker-thread race; report it as still running.
                Some(JobPhase::Running) | Some(JobPhase::Finished) => JobState::Running,
            },
        }
    }

    /// The status document served at `GET /campaigns/{id}`.
    pub fn status_json(&self, phase: Option<JobPhase>) -> String {
        let state = self.state(phase);
        let mut pairs = vec![
            ("id", Json::u64(self.id())),
            ("name", Json::str(&self.name)),
            ("state", Json::str(state.name())),
            ("priority", Json::u64(u64::from(self.priority))),
            (
                "budget",
                self.cap
                    .get()
                    .map_or(Json::Null, |&cap| Json::obj(vec![("cap", Json::u64(cap))])),
            ),
            ("events", Json::u64(self.telemetry.events_emitted())),
            (
                "report_ready",
                Json::Bool(matches!(
                    &*self.outcome.lock().expect("job outcome lock"),
                    Some(Ok(_))
                )),
            ),
        ];
        if let Some(error) = self.error() {
            pairs.push(("error", Json::str(error)));
        }
        Json::obj(pairs).pretty()
    }
}
