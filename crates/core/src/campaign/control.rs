//! Cooperative job-level control: cancel and pause/resume of a running
//! campaign.
//!
//! A [`CampaignControl`] is a cheap cloneable handle threaded into a
//! campaign through
//! [`RunSpecOptions::control`](crate::campaign::RunSpecOptions::control). The driver
//! polls it at the same step boundaries where budget exhaustion is
//! polled, so the enforcement contract is identical to
//! [`EvalBudget`](crate::campaign::EvalBudget)'s: **cooperative**, with at
//! most one step of overshoot per run after a cancel, and runs ending with
//! [`StopReason::Stopped`](ax_agents::train::StopReason::Stopped) exactly as
//! if a budget had run dry. Pausing *blocks* the run at its next step
//! boundary (the campaign thread sleeps on a condvar until resumed or
//! cancelled), which is what lets a job scheduler park a whole campaign
//! and hand its worker budget to higher-priority work.

use std::sync::{Arc, Condvar, Mutex};

/// The three control states a campaign can be in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ControlState {
    /// Executing normally.
    #[default]
    Running,
    /// Parked at a step boundary; [`CampaignControl::resume`] continues,
    /// [`CampaignControl::cancel`] unparks into cancellation.
    Paused,
    /// Cooperatively stopping: every run ends at its next step boundary.
    /// Terminal — a cancelled campaign cannot be resumed.
    Cancelled,
}

#[derive(Debug, Default)]
struct ControlInner {
    state: Mutex<ControlState>,
    cond: Condvar,
}

/// A cloneable cancel/pause handle shared between a campaign and whoever
/// supervises it (a CLI signal handler, the `ax-serve` job scheduler).
///
/// The default handle is live and in [`ControlState::Running`]; clones
/// share state.
#[derive(Debug, Clone, Default)]
pub struct CampaignControl {
    inner: Arc<ControlInner>,
}

impl CampaignControl {
    /// A fresh handle in [`ControlState::Running`].
    pub fn new() -> Self {
        Self::default()
    }

    /// The current state.
    pub fn state(&self) -> ControlState {
        *self.inner.state.lock().expect("control lock")
    }

    /// `true` once [`CampaignControl::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.state() == ControlState::Cancelled
    }

    /// `true` while paused (and not yet cancelled).
    pub fn is_paused(&self) -> bool {
        self.state() == ControlState::Paused
    }

    /// Requests cooperative cancellation: every run of the controlled
    /// campaign stops at its next step boundary (unparking paused runs
    /// first). Idempotent and terminal.
    pub fn cancel(&self) {
        let mut state = self.inner.state.lock().expect("control lock");
        *state = ControlState::Cancelled;
        self.inner.cond.notify_all();
    }

    /// Requests a pause: the controlled campaign blocks at its next step
    /// boundary until [`CampaignControl::resume`] or
    /// [`CampaignControl::cancel`]. No-op on a cancelled handle.
    pub fn pause(&self) {
        let mut state = self.inner.state.lock().expect("control lock");
        if *state == ControlState::Running {
            *state = ControlState::Paused;
        }
    }

    /// Resumes a paused campaign. No-op unless currently paused.
    pub fn resume(&self) {
        let mut state = self.inner.state.lock().expect("control lock");
        if *state == ControlState::Paused {
            *state = ControlState::Running;
            self.inner.cond.notify_all();
        }
    }

    /// The driver's step-boundary poll: blocks while paused, then returns
    /// `true` iff the campaign should stop (cancelled). Runnable from any
    /// worker thread; on the default handle it is a single lock + compare.
    pub fn checkpoint(&self) -> bool {
        let mut state = self.inner.state.lock().expect("control lock");
        while *state == ControlState::Paused {
            state = self.inner.cond.wait(state).expect("control wait");
        }
        *state == ControlState::Cancelled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn default_handle_runs() {
        let c = CampaignControl::new();
        assert_eq!(c.state(), ControlState::Running);
        assert!(!c.checkpoint());
        assert!(!c.is_cancelled());
        assert!(!c.is_paused());
    }

    #[test]
    fn cancel_is_terminal_and_shared_across_clones() {
        let c = CampaignControl::new();
        let clone = c.clone();
        c.cancel();
        assert!(clone.is_cancelled());
        assert!(clone.checkpoint());
        // Pause and resume cannot revive a cancelled handle.
        clone.pause();
        clone.resume();
        assert!(c.is_cancelled());
    }

    #[test]
    fn checkpoint_blocks_while_paused_until_resumed() {
        let c = CampaignControl::new();
        c.pause();
        assert!(c.is_paused());
        let worker = {
            let c = c.clone();
            std::thread::spawn(move || c.checkpoint())
        };
        // The worker parks; resuming releases it with "keep going".
        std::thread::sleep(Duration::from_millis(20));
        assert!(!worker.is_finished(), "checkpoint must block while paused");
        c.resume();
        assert!(!worker.join().unwrap());
    }

    #[test]
    fn cancel_unparks_a_paused_checkpoint() {
        let c = CampaignControl::new();
        c.pause();
        let worker = {
            let c = c.clone();
            std::thread::spawn(move || c.checkpoint())
        };
        std::thread::sleep(Duration::from_millis(20));
        c.cancel();
        assert!(worker.join().unwrap(), "cancel must stop a paused run");
    }
}
