//! Umbrella crate for the AxDSE reproduction workspace.
//!
//! Re-exports every workspace member so the runnable examples under
//! `examples/` and the cross-crate integration tests under `tests/` can
//! depend on a single package. Library users should depend on the
//! individual crates (`ax-dse`, `ax-operators`, ...) directly.

pub use ax_agents;
pub use ax_dse;
pub use ax_operators;
pub use ax_telemetry;
pub use ax_vm;
pub use ax_workloads;
