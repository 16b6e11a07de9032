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

/// Appends one benchmark record to a `BENCH_*.json` perf-trajectory file.
///
/// The file holds a JSON array of run records (newest last); a legacy
/// single-object file is wrapped into an array first, a missing or
/// unreadable file starts a fresh one. This is how successive cold/warm
/// sweep numbers accumulate instead of overwriting history.
///
/// # Errors
///
/// Propagates filesystem errors. A present-but-unparseable file is an
/// error ([`std::io::ErrorKind::InvalidData`]), **not** a fresh start —
/// the file is accumulated history, and overwriting it on a corrupt read
/// would silently destroy every prior record.
pub fn append_bench_record(
    path: impl AsRef<std::path::Path>,
    record: ax_dse::json::Json,
) -> std::io::Result<()> {
    use ax_dse::json::Json;
    let path = path.as_ref();
    let mut records = match std::fs::read_to_string(path) {
        Ok(text) => match Json::parse(&text) {
            Ok(Json::Arr(items)) => items,
            Ok(obj @ Json::Obj(_)) => vec![obj],
            Ok(other) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{} holds {other:?}, not a record array", path.display()),
                ))
            }
            Err(e) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("refusing to overwrite unparseable {}: {e}", path.display()),
                ))
            }
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    records.push(record);
    std::fs::write(path, Json::Arr(records).pretty())
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
