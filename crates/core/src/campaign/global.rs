//! Cross-campaign budget arbitration: [`GlobalScheduler`] generalises the
//! per-campaign [`CellLedger`](crate::campaign::CellLedger) one level up,
//! splitting a **server-wide** evaluation budget across whole *jobs*
//! (campaigns) instead of cells.
//!
//! The accounting contract is a stacked-budget scheme: every evaluation
//! of a job charges its cell's budget, the job's own budget *and* the
//! server-wide [`EvalBudget`] (via
//! [`RunSpecOptions::extra_budgets`](crate::campaign::RunSpecOptions::extra_budgets)),
//! and every run polls all three between steps, so the server cap stays
//! the hard ceiling whatever the per-job split — cooperatively enforced,
//! with the documented at-most-one-step overshoot per run. On top of the accounting, the scheduler arbitrates *admission*:
//! at most `workers` jobs execute concurrently, highest priority first
//! (FIFO within a priority), and when a higher-priority job arrives while
//! every slot is busy the lowest-priority running job is **paused** at its
//! next step boundary (its [`CampaignControl`] parks the campaign thread)
//! and resumed once a slot frees up. Pause/resume rides the
//! bit-identical-resume guarantee of
//! [`ResumableExploration`](crate::explore::ResumableExploration), so
//! preemption never changes a job's result.

use crate::campaign::budget::EvalBudget;
use crate::campaign::control::CampaignControl;
use std::sync::{Arc, Condvar, Mutex};

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

/// One job's admission ticket: its identity, its per-job budget (to stack
/// into the campaign alongside the server-wide budget) and its control
/// handle (to thread into the campaign for cancel/pause).
#[derive(Debug, Clone)]
pub struct JobTicket {
    id: u64,
    budget: Arc<EvalBudget>,
    control: CampaignControl,
}

impl JobTicket {
    /// The scheduler-assigned job id (dense, starting at 0).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The per-job budget: cap = `min(requested, scheduler max_job_budget)`
    /// (unbounded only when both are). Stack it into the job's campaign
    /// through [`RunSpecOptions::extra_budgets`](crate::campaign::RunSpecOptions::extra_budgets).
    pub fn budget(&self) -> &Arc<EvalBudget> {
        &self.budget
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
    budget: Arc<EvalBudget>,
    control: CampaignControl,
}

#[derive(Debug, Default)]
struct SchedState {
    jobs: Vec<JobEntry>,
    next_id: u64,
}

/// A server-wide evaluation-budget arbiter over concurrently running
/// campaigns. See the [module docs](self) for the admission and
/// accounting contract.
#[derive(Debug)]
pub struct GlobalScheduler {
    server: Arc<EvalBudget>,
    workers: usize,
    max_job_budget: Option<u64>,
    state: Mutex<SchedState>,
    cond: Condvar,
}

impl GlobalScheduler {
    /// A scheduler over `workers` concurrent job slots, a server-wide cap
    /// of `server_cap` distinct evaluations (`None` = unbounded, counting
    /// only) and an optional per-job cap clamping every submission.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(server_cap: Option<u64>, workers: usize, max_job_budget: Option<u64>) -> Self {
        assert!(workers > 0, "a scheduler needs at least one worker slot");
        Self {
            server: EvalBudget::new(server_cap),
            workers,
            max_job_budget,
            state: Mutex::new(SchedState::default()),
            cond: Condvar::new(),
        }
    }

    /// The server-wide budget every job charges (stack it into each
    /// campaign as an extra budget). Its cap is the hard ceiling the
    /// cap-never-exceeded invariant is about.
    pub fn server(&self) -> &Arc<EvalBudget> {
        &self.server
    }

    /// Number of concurrent job slots.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Submits a job: registers it queued at `priority` (higher wins; FIFO
    /// within a priority) with a per-job budget of
    /// `min(requested, max_job_budget)`, then rebalances — which may
    /// admit it immediately and/or preempt a lower-priority job.
    pub fn submit(&self, priority: u8, requested: Option<u64>) -> JobTicket {
        let cap = match (requested, self.max_job_budget) {
            (Some(r), Some(m)) => Some(r.min(m)),
            (r, m) => r.or(m),
        };
        let mut state = self.state.lock().expect("scheduler lock");
        let id = state.next_id;
        state.next_id += 1;
        let ticket = JobTicket {
            id,
            budget: EvalBudget::new(cap),
            control: CampaignControl::new(),
        };
        state.jobs.push(JobEntry {
            id,
            priority,
            phase: JobPhase::Queued,
            budget: Arc::clone(&ticket.budget),
            control: ticket.control.clone(),
        });
        self.rebalance(&mut state);
        self.cond.notify_all();
        ticket
    }

    /// Blocks until the job holds a worker slot, returning `true` — or
    /// `false` if it was cancelled while still queued (the job should then
    /// finish without running and call [`GlobalScheduler::finish`]).
    pub fn acquire(&self, ticket: &JobTicket) -> bool {
        let mut state = self.state.lock().expect("scheduler lock");
        loop {
            let entry = state
                .jobs
                .iter()
                .find(|j| j.id == ticket.id)
                .expect("ticket belongs to this scheduler");
            match entry.phase {
                JobPhase::Running | JobPhase::Preempted => return true,
                JobPhase::Queued if entry.control.is_cancelled() => return false,
                JobPhase::Queued => {
                    state = self.cond.wait(state).expect("scheduler wait");
                }
                JobPhase::Finished => panic!("job {} already finished", ticket.id),
            }
        }
    }

    /// Releases the job's slot (idempotent) and rebalances: the
    /// highest-priority queued or preempted job takes over.
    pub fn finish(&self, ticket: &JobTicket) {
        let mut state = self.state.lock().expect("scheduler lock");
        if let Some(entry) = state.jobs.iter_mut().find(|j| j.id == ticket.id) {
            entry.phase = JobPhase::Finished;
        }
        self.rebalance(&mut state);
        self.cond.notify_all();
    }

    /// Cooperatively cancels job `id` (wherever it stands), returning
    /// `false` for unknown ids and `true` otherwise. A queued job's
    /// [`GlobalScheduler::acquire`] returns `false`; a running or
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

    /// Sum of the per-job raw spends — mirrors
    /// [`CellLedger::spent`](crate::campaign::CellLedger::spent):
    /// when every job charges its own budget and the server budget with
    /// the same deltas, this reconstructs the server's raw spend.
    pub fn jobs_spent_total(&self) -> u64 {
        let state = self.state.lock().expect("scheduler lock");
        state.jobs.iter().map(|j| j.budget.spent()).sum()
    }

    /// Re-derives who should hold the `workers` slots: the unfinished,
    /// uncancelled jobs ranked by `(priority desc, id asc)`. Winners are
    /// admitted (or resumed from preemption); admitted losers are paused.
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
            let job = &mut state.jobs[i];
            match job.phase {
                JobPhase::Queued => job.phase = JobPhase::Running,
                JobPhase::Preempted => {
                    job.control.resume();
                    job.phase = JobPhase::Running;
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
    use std::time::Duration;

    #[test]
    fn per_job_caps_clamp_to_the_scheduler_maximum() {
        let sched = GlobalScheduler::new(Some(1000), 2, Some(100));
        assert_eq!(sched.submit(0, Some(50)).budget().cap(), Some(50));
        assert_eq!(sched.submit(0, Some(500)).budget().cap(), Some(100));
        assert_eq!(sched.submit(0, None).budget().cap(), Some(100));
        let unclamped = GlobalScheduler::new(None, 1, None);
        assert_eq!(unclamped.submit(0, None).budget().cap(), None);
        assert_eq!(unclamped.server().cap(), None);
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
        sched.finish(&mid_a);
        assert_eq!(sched.phase(mid_b.id()), Some(JobPhase::Running));
        assert_eq!(sched.phase(low.id()), Some(JobPhase::Preempted));
        sched.finish(&mid_b);
        assert_eq!(sched.phase(low.id()), Some(JobPhase::Running));
        sched.finish(&low);
        assert_eq!(sched.counts(), (0, 0, 0, 3));
    }

    #[test]
    fn higher_priority_preempts_and_finish_resumes() {
        let sched = GlobalScheduler::new(None, 1, None);
        let low = sched.submit(0, None);
        assert!(sched.acquire(&low));
        let high = sched.submit(9, None);
        // The newcomer displaced the running job: its control is paused.
        assert_eq!(sched.phase(low.id()), Some(JobPhase::Preempted));
        assert!(low.control().is_paused());
        assert_eq!(sched.phase(high.id()), Some(JobPhase::Running));
        assert!(sched.acquire(&high));
        sched.finish(&high);
        assert_eq!(sched.phase(low.id()), Some(JobPhase::Running));
        assert!(
            !low.control().is_paused(),
            "finish resumes the preempted job"
        );
        sched.finish(&low);
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
        assert!(!waiter.join().unwrap(), "a cancelled queued job is refused");
        assert!(!sched.cancel(999), "unknown ids report false");
        sched.finish(&queued);
        sched.finish(&first);
    }

    #[test]
    fn stacked_job_budgets_respect_the_server_cap() {
        // The cap-never-exceeded contract under concurrent charging:
        // every worker charges its job budget and the server budget with
        // the same delta, polling `exhausted` between steps — aggregate
        // overshoot stays below one step per worker.
        const JOBS: usize = 4;
        const STEP: u64 = 5;
        const CAP: u64 = 500;
        let sched = GlobalScheduler::new(Some(CAP), JOBS, None);
        let tickets: Vec<JobTicket> = (0..JOBS).map(|_| sched.submit(0, Some(CAP))).collect();
        let sched = &sched;
        std::thread::scope(|s| {
            for ticket in &tickets {
                let server = Arc::clone(sched.server());
                s.spawn(move || {
                    assert!(sched.acquire(ticket));
                    while !(server.exhausted() || ticket.budget().exhausted()) {
                        ticket.budget().charge(STEP);
                        server.charge(STEP);
                    }
                    sched.finish(ticket);
                });
            }
        });
        let raw = sched.server().spent();
        assert!(raw >= CAP, "all workers ran to exhaustion");
        assert!(raw <= CAP + JOBS as u64 * STEP, "overshoot bound violated");
        assert_eq!(sched.jobs_spent_total(), raw);
        assert_eq!(sched.server().spent_clamped(), CAP);
    }
}
