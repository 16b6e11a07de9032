//! The campaign layer: declarative experiment specs over one polymorphic
//! driver.
//!
//! The paper's methodology is a *campaign* — train agents across
//! benchmarks, seeds and reward targets, then compare fronts — and this
//! module is its single entry point. An [`ExperimentSpec`] describes the
//! whole experiment as serialisable data (benchmarks, agent roster, seed
//! range, [`BackendSpec`] backend choice, budget and parallelism); the
//! [`Campaign`] driver executes any such grid through any
//! [`BackendProvider`], shares one design [`crate::backend::SharedCache`]
//! across every run, grants an optional evaluation budget to the grid's
//! cells, hands its typed events to an [`Observer`] and returns a
//! structured [`CampaignReport`] — the same one at any worker count.
//!
//! Budgets count distinct designs and are divided across (benchmark,
//! agent) cells by a [`BudgetPolicy`], which the driver lowers to a plan
//! of rung ladders run by one engine. Each pass grants a rung's share to
//! the live cells ([`CellLedger`]), resumes their runs and records each
//! cell on its rung ([`RungLedger`]). A run spends what its own backend
//! reports as distinct evaluations and stops once its cell's runs
//! together have spent the cell's grant, so the pass's workers take whole
//! cells and resume each cell's runs in seed order; after the pass the
//! ledger settles each cell's spend from its runs' counts. A ladder with
//! a barrier then ranks the whole rung and eliminates the losers; one
//! without a barrier promotes each cell as soon as it ranks. Uniform and
//! weighted shares are a single rung, successive halving is one ladder
//! with a barrier, ASHA one without, and Hyperband a sequence of barrier
//! ladders, one per bracket. Every rung is reported as an
//! [`AllocationReport`]. See `docs/spec_reference.md` for the complete
//! JSON schema of every spec field and policy form.
//!
//! The spec is the only description of a campaign, and it is validated
//! once, when the campaign runs: every spec [`ExperimentSpec::validate`]
//! rejects comes back as [`RunSpecError::Spec`], never a panic. Every
//! exploration entry point routes through this driver — a 1×1×N campaign
//! is a seed sweep, a 1×M×1 campaign is a portfolio race — and
//! [`run_spec`] runs any spec end to end, building the library and
//! benchmarks it names (the engine behind `repro run <spec.json>`).
//! [`RunSpecOptions`] holds what a run attaches beyond the spec: a
//! shared cache, an observer, telemetry, and a [`CampaignControl`] that
//! cancels or pauses a campaign cooperatively at step boundaries. A
//! [`GlobalScheduler`] arbitrates one server-wide budget across many
//! concurrent campaigns (the `ax-serve` daemon) by granting each job its
//! cap when it admits the job; the job runs its spec with that cap as
//! the spec's budget, so its report is byte-identical to a local
//! `repro run --budget N` with the granted cap, whether or not the cap
//! binds.

#![warn(missing_docs)]

pub mod budget;
pub mod control;
pub mod driver;
pub mod global;
pub mod run;
pub mod spec;

pub use budget::{CellLedger, RungLedger};
pub use control::{CampaignControl, ControlState};
pub use driver::{
    explore, AllocationReport, BackendProvider, BudgetReport, Campaign, CampaignReport,
    CellAllocation, CellReport, ExactProvider, InterpretedProvider, ParetoPoint, ParetoReport,
    TelemetrySummary, WrapProvider,
};
pub use global::{GlobalScheduler, JobPhase, JobTicket};
pub use run::{run_spec, RunSpecError, RunSpecOptions};
// The telemetry vocabulary campaign observers speak, re-exported so
// downstream crates need no direct `ax-telemetry` dependency.
pub use ax_telemetry::{
    Event, EventKind, JsonlSink, MetricsSnapshot, Observer, RingBuffer, Telemetry,
    SOURCE_COORDINATOR,
};
pub use spec::{
    BackendSpec, BenchmarkSpec, BudgetPolicy, ExperimentSpec, HalvingBracket, LibrarySpec,
    SeedRange, SpecError,
};
// The multi-objective vocabulary campaign ranking and reports speak.
pub use crate::pareto::{DesignObjectives, Objective, ObjectiveDecl, Ranking};
