//! Reproduction harness: one function per paper table/figure plus the
//! ablation studies; the `repro` binary is a thin CLI over these.
//!
//! Each function prints a paper-style ASCII table to stdout and, when given
//! an output directory, writes the raw series as CSV so the figures can be
//! replotted. The functions return their structured results so integration
//! tests can assert on the reproduced shapes.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablations;
pub mod figures;
pub mod tables;

use ax_dse::backend::EvalContext;
use ax_dse::campaign::{run_spec, CampaignReport, ExperimentSpec, RunSpecOptions};
use ax_dse::explore::{AgentKind, ExplorationOutcome, ExploreOptions};
use ax_operators::OperatorLibrary;
use ax_workloads::Workload;
use std::path::PathBuf;
use std::sync::Arc;

/// One exploration of `workload` by one agent, on a fresh uncached
/// context, through the campaign layer's single-run primitive
/// ([`ax_dse::campaign::explore`]).
pub(crate) fn explore_one(
    workload: &dyn Workload,
    lib: &OperatorLibrary,
    opts: &ExploreOptions,
    kind: AgentKind,
) -> ExplorationOutcome {
    let ctx = EvalContext::new(workload, Arc::new(lib.clone()), opts.input_seed)
        .expect("benchmark must prepare");
    ax_dse::campaign::explore(&ctx, opts, kind)
}

/// Runs `spec` with nothing attached, or exits the process with status 1
/// and `error: …` on stderr when it cannot run — a spec that does not
/// validate (e.g. `--steps 0`) or a benchmark that cannot be prepared.
pub fn run_or_exit(spec: &ExperimentSpec) -> CampaignReport {
    run_spec(spec, RunSpecOptions::default()).unwrap_or_else(|e| {
        eprintln!("error: {} campaign failed: {e}", spec.name);
        std::process::exit(1)
    })
}

/// Where CSV artefacts are written (`None` = stdout only).
#[derive(Debug, Clone, Default)]
pub struct OutputDir(pub Option<PathBuf>);

impl OutputDir {
    /// An output directory rooted at `path`.
    pub fn at(path: impl Into<PathBuf>) -> Self {
        Self(Some(path.into()))
    }

    /// Writes `rows` as `<name>.csv` if a directory is configured.
    pub fn write(&self, name: &str, headers: &[&str], rows: &[Vec<String>]) {
        if let Some(dir) = &self.0 {
            let path = dir.join(format!("{name}.csv"));
            if let Err(e) = ax_dse::report::write_csv(&path, headers, rows) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("  wrote {}", path.display());
            }
        }
    }
}
