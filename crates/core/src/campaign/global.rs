//! Cross-campaign budget arbitration: [`GlobalScheduler`] generalises the
//! per-campaign [`CellLedger`](crate::campaign::CellLedger) one level up,
//! granting a **server-wide** evaluation budget to whole *jobs*
//! (campaigns) instead of cells.
//!
//! A job is granted its cap once, when it is admitted:
//! `min(requested, max_job_budget, server cap − committed)`, where
//! `committed` is the grants of admitted, unfinished jobs plus what
//! finished jobs charged. The job runs its spec with the grant as its
//! `budget`, so its own campaign enforces the cap, as a local run with
//! that budget would. On top of the grants the scheduler arbitrates
//! *admission*: at most `workers` jobs execute concurrently, highest
//! priority first (FIFO within a priority), and a higher-priority arrival
//! **pauses** the lowest-priority running job at its next step boundary
//! (its [`CampaignControl`] parks the campaign thread) until a slot frees
//! up. Pause/resume rides the bit-identical-resume guarantee of
//! [`ResumableExploration`](crate::explore::ResumableExploration), so
//! preemption never changes a job's result.

use crate::campaign::control::CampaignControl;
use std::sync::{Condvar, Mutex};

/// Where a submitted job stands in the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Waiting for a worker slot ([`GlobalScheduler::acquire`] blocks).
    Queued,
    /// Admitted and executing.
    Running,
    /// Admitted but paused at a step boundary to fund higher-priority work.
    Preempted,
    /// Released ([`GlobalScheduler::finish`]); its slot has been re-granted.
    Finished,
}

/// One job's admission ticket: its identity and its control handle (to
/// thread into the campaign for cancel/pause).
#[derive(Debug, Clone)]
pub struct JobTicket {
    id: u64,
    control: CampaignControl,
}

impl JobTicket {
    /// The scheduler-assigned job id (dense, starting at 0).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The job's control handle; thread it into the campaign through
    /// [`RunSpecOptions::control`](crate::campaign::RunSpecOptions::control).
    pub fn control(&self) -> &CampaignControl {
        &self.control
    }
}

#[derive(Debug)]
struct JobEntry {
    id: u64,
    priority: u8,
    phase: JobPhase,
    /// The budget the job asked for: its spec's own.
    requested: Option<u64>,
    /// Its grant while admitted and what it charged once finished; `None`
    /// while queued and for an unbounded grant.
    committed: Option<u64>,
    control: CampaignControl,
}

#[derive(Debug, Default)]
struct SchedState {
    jobs: Vec<JobEntry>,
    next_id: u64,
}

impl SchedState {
    fn committed(&self) -> u64 {
        self.jobs.iter().filter_map(|j| j.committed).sum()
    }
}

/// A server-wide evaluation-budget arbiter over concurrently running
/// campaigns. See the [module docs](self) for the admission and grant
/// contract.
#[derive(Debug)]
pub struct GlobalScheduler {
    cap: Option<u64>,
    workers: usize,
    max_job_budget: Option<u64>,
    state: Mutex<SchedState>,
    cond: Condvar,
}

impl GlobalScheduler {
    /// A scheduler over `workers` concurrent job slots, a server-wide cap
    /// of `server_cap` distinct evaluations (`None` = unbounded) and an
    /// optional cap on every job's grant.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(server_cap: Option<u64>, workers: usize, max_job_budget: Option<u64>) -> Self {
        assert!(workers > 0, "a scheduler needs at least one worker slot");
        Self {
            cap: server_cap,
            workers,
            max_job_budget,
            state: Mutex::new(SchedState::default()),
            cond: Condvar::new(),
        }
    }

    /// The server-wide cap, if any.
    pub fn cap(&self) -> Option<u64> {
        self.cap
    }

    /// What is committed against the server cap: the grants of admitted,
    /// unfinished jobs plus what finished jobs charged.
    pub fn committed(&self) -> u64 {
        self.state.lock().expect("scheduler lock").committed()
    }

    /// Number of concurrent job slots.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Submits a job asking for `requested` evaluations (its spec's
    /// budget): registers it queued at `priority` (higher wins; FIFO
    /// within a priority), then rebalances — which may admit it, and
    /// grant it its cap, immediately and/or preempt a lower-priority job.
    pub fn submit(&self, priority: u8, requested: Option<u64>) -> JobTicket {
        let mut state = self.state.lock().expect("scheduler lock");
        let id = state.next_id;
        state.next_id += 1;
        let ticket = JobTicket {
            id,
            control: CampaignControl::new(),
        };
        state.jobs.push(JobEntry {
            id,
            priority,
            phase: JobPhase::Queued,
            requested,
            committed: None,
            control: ticket.control.clone(),
        });
        self.rebalance(&mut state);
        self.cond.notify_all();
        ticket
    }

    /// Blocks until the job holds a worker slot and returns its grant —
    /// `Some(cap)`, with `cap` `None` when the job is unbounded — or
    /// returns `None` if it was cancelled while still queued (the job
    /// should then finish without running, charging 0).
    pub fn acquire(&self, ticket: &JobTicket) -> Option<Option<u64>> {
        let mut state = self.state.lock().expect("scheduler lock");
        loop {
            let entry = state
                .jobs
                .iter()
                .find(|j| j.id == ticket.id)
                .expect("ticket belongs to this scheduler");
            match entry.phase {
                JobPhase::Running | JobPhase::Preempted => return Some(entry.committed),
                JobPhase::Queued if entry.control.is_cancelled() => return None,
                JobPhase::Queued => {
                    state = self.cond.wait(state).expect("scheduler wait");
                }
                JobPhase::Finished => panic!("job {} already finished", ticket.id),
            }
        }
    }

    /// Releases the job's slot, records `charged` — what its campaign
    /// charged — in place of its grant, and rebalances: the
    /// highest-priority queued or preempted job takes over.
    pub fn finish(&self, ticket: &JobTicket, charged: u64) {
        let mut state = self.state.lock().expect("scheduler lock");
        if let Some(entry) = state.jobs.iter_mut().find(|j| j.id == ticket.id) {
            entry.phase = JobPhase::Finished;
            entry.committed = Some(charged);
        }
        self.rebalance(&mut state);
        self.cond.notify_all();
    }

    /// Cooperatively cancels job `id` (wherever it stands), returning
    /// `false` for unknown ids and `true` otherwise. A queued job's
    /// [`GlobalScheduler::acquire`] returns `None`; a running or
    /// preempted one stops at its next step boundary. The slot itself is
    /// released when the job's worker calls [`GlobalScheduler::finish`].
    pub fn cancel(&self, id: u64) -> bool {
        let state = self.state.lock().expect("scheduler lock");
        let Some(entry) = state.jobs.iter().find(|j| j.id == id) else {
            return false;
        };
        entry.control.cancel();
        drop(state);
        self.cond.notify_all();
        true
    }

    /// The phase of job `id`, if it was ever submitted.
    pub fn phase(&self, id: u64) -> Option<JobPhase> {
        let state = self.state.lock().expect("scheduler lock");
        state.jobs.iter().find(|j| j.id == id).map(|j| j.phase)
    }

    /// `(queued, running, preempted, finished)` job counts — the
    /// `/metrics` gauges.
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let state = self.state.lock().expect("scheduler lock");
        let mut c = (0, 0, 0, 0);
        for j in &state.jobs {
            match j.phase {
                JobPhase::Queued => c.0 += 1,
                JobPhase::Running => c.1 += 1,
                JobPhase::Preempted => c.2 += 1,
                JobPhase::Finished => c.3 += 1,
            }
        }
        c
    }

    /// Re-derives who should hold the `workers` slots: the unfinished,
    /// uncancelled jobs ranked by `(priority desc, id asc)`. Winners are
    /// admitted — a queued one granted its cap out of what the server has
    /// left — or resumed from preemption; admitted losers are paused.
    fn rebalance(&self, state: &mut SchedState) {
        let mut ranked: Vec<usize> = state
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| {
                j.phase != JobPhase::Finished
                    && !(j.phase == JobPhase::Queued && j.control.is_cancelled())
            })
            .map(|(i, _)| i)
            .collect();
        ranked.sort_by_key(|&i| (std::cmp::Reverse(state.jobs[i].priority), state.jobs[i].id));
        let (winners, losers) = ranked.split_at(self.workers.min(ranked.len()));
        for &i in winners {
            match state.jobs[i].phase {
                JobPhase::Queued => {
                    let left = self.cap.map(|cap| cap.saturating_sub(state.committed()));
                    let job = &mut state.jobs[i];
                    job.committed = [job.requested, self.max_job_budget, left]
                        .into_iter()
                        .flatten()
                        .min();
                    job.phase = JobPhase::Running;
                }
                JobPhase::Preempted => {
                    state.jobs[i].control.resume();
                    state.jobs[i].phase = JobPhase::Running;
                }
                JobPhase::Running => {}
                JobPhase::Finished => unreachable!("finished jobs are filtered out"),
            }
        }
        for &i in losers {
            let job = &mut state.jobs[i];
            if job.phase == JobPhase::Running {
                job.control.pause();
                job.phase = JobPhase::Preempted;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn grants_clamp_to_the_job_maximum_and_what_the_server_has_left() {
        let sched = GlobalScheduler::new(Some(120), 4, Some(100));
        let grant = |requested| sched.acquire(&sched.submit(0, requested)).unwrap();
        assert_eq!(grant(Some(50)), Some(50));
        // 70 left: the server cap binds below the job maximum.
        assert_eq!(grant(Some(500)), Some(70));
        assert_eq!(grant(None), Some(0), "nothing left: a zero grant");
        assert_eq!(sched.committed(), 120);
        let unclamped = GlobalScheduler::new(None, 1, None);
        assert_eq!(unclamped.acquire(&unclamped.submit(0, None)), Some(None));
        assert_eq!(unclamped.cap(), None);
    }

    #[test]
    fn finish_returns_what_a_job_left_unspent() {
        // One slot: each job is granted when the one before finishes.
        let sched = GlobalScheduler::new(Some(60), 1, Some(40));
        let first = sched.submit(0, None);
        let second = sched.submit(0, None);
        let third = sched.submit(0, Some(10));
        assert_eq!(sched.acquire(&first), Some(Some(40)));
        assert_eq!(sched.committed(), 40, "queued jobs commit nothing");
        // The first job overshoots its grant by one step's designs.
        sched.finish(&first, 46);
        assert_eq!(sched.acquire(&second), Some(Some(14)));
        // The second job stops early: its unspent grant goes back.
        sched.finish(&second, 5);
        assert_eq!(sched.acquire(&third), Some(Some(9)));
        sched.finish(&third, 9);
        assert_eq!(sched.committed(), 60);
    }

    #[test]
    fn admission_is_priority_then_fifo() {
        let sched = GlobalScheduler::new(None, 1, None);
        let low = sched.submit(1, None);
        assert_eq!(sched.phase(low.id()), Some(JobPhase::Running));
        // Two higher-priority submissions: the first displaces the running
        // low-priority job, the second queues behind its equal-priority
        // sibling (FIFO within a priority).
        let mid_a = sched.submit(5, None);
        let mid_b = sched.submit(5, None);
        assert_eq!(sched.phase(low.id()), Some(JobPhase::Preempted));
        assert_eq!(sched.phase(mid_a.id()), Some(JobPhase::Running));
        assert_eq!(sched.phase(mid_b.id()), Some(JobPhase::Queued));
        sched.finish(&mid_a, 0);
        assert_eq!(sched.phase(mid_b.id()), Some(JobPhase::Running));
        assert_eq!(sched.phase(low.id()), Some(JobPhase::Preempted));
        sched.finish(&mid_b, 0);
        assert_eq!(sched.phase(low.id()), Some(JobPhase::Running));
        sched.finish(&low, 0);
        assert_eq!(sched.counts(), (0, 0, 0, 3));
    }

    #[test]
    fn higher_priority_preempts_and_finish_resumes_with_the_grant() {
        let sched = GlobalScheduler::new(Some(100), 1, None);
        let low = sched.submit(0, Some(30));
        assert_eq!(sched.acquire(&low), Some(Some(30)));
        let high = sched.submit(9, None);
        // The newcomer displaced the running job: its control is paused,
        // and it is granted what the preempted job's grant left.
        assert_eq!(sched.phase(low.id()), Some(JobPhase::Preempted));
        assert!(low.control().is_paused());
        assert_eq!(sched.phase(high.id()), Some(JobPhase::Running));
        assert_eq!(sched.acquire(&high), Some(Some(70)));
        sched.finish(&high, 70);
        assert_eq!(sched.phase(low.id()), Some(JobPhase::Running));
        assert!(
            !low.control().is_paused(),
            "finish resumes the preempted job"
        );
        assert_eq!(sched.acquire(&low), Some(Some(30)), "it keeps its grant");
        sched.finish(&low, 30);
    }

    #[test]
    fn cancel_releases_a_queued_acquire() {
        let sched = Arc::new(GlobalScheduler::new(None, 1, None));
        let first = sched.submit(0, None);
        let queued = sched.submit(0, None);
        let waiter = {
            let sched = Arc::clone(&sched);
            let queued = queued.clone();
            std::thread::spawn(move || sched.acquire(&queued))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert!(!waiter.is_finished(), "acquire must block while queued");
        assert!(sched.cancel(queued.id()));
        assert_eq!(
            waiter.join().unwrap(),
            None,
            "a cancelled queued job is refused"
        );
        assert!(!sched.cancel(999), "unknown ids report false");
        sched.finish(&queued, 0);
        sched.finish(&first, 0);
    }
}
