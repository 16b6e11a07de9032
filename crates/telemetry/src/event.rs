//! Typed, sequence-numbered telemetry events and their stable JSONL
//! schema.
//!
//! Every [`Event`] carries a logical `source` and a per-source `seq`:
//! coordinator-side transitions (grants, promotions, eliminations) come
//! from [`SOURCE_COORDINATOR`], run-side transitions (pause/complete)
//! from `1 + run index` in the campaign's deterministic benchmark-major
//! grid order — never from a thread id. Sorting a set of events by
//! `(source, seq)` is the canonical merge order; a parallel campaign
//! produces the same canonical event list as a sequential one.
//!
//! Events deliberately contain **no wall-clock data** and no raw
//! (overshoot-bearing) spend values — anything timing- or
//! interleaving-dependent belongs in the metrics registry, not the event
//! stream, so the stream stays byte-comparable across schedules.

use crate::metrics::{push_f64, push_json_string};

/// The `source` id of events emitted by the campaign coordinator (grid
/// construction, grants, rung transitions). Run-level events use
/// `1 + run index`.
pub const SOURCE_COORDINATOR: u32 = 0;

/// What happened. One variant per scheduler/run transition; the JSONL
/// `kind` field is the variant's snake_case name (see
/// [`EventKind::kind_name`]).
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// The campaign is about to execute `total_runs` explorations.
    CampaignStart {
        /// Campaign name.
        name: String,
        /// Grid size: benchmarks × agents × seeds.
        total_runs: u64,
    },
    /// A benchmark's context (precise reference, cache scope) is prepared.
    BenchmarkReady {
        /// Benchmark name.
        benchmark: String,
    },
    /// The scheduler granted `units` evaluation budget to a cell.
    BudgetGrant {
        /// Cell index (benchmark-major).
        cell: u64,
        /// Round (or rung) index within the bracket.
        round: u64,
        /// Hyperband bracket index (0 elsewhere).
        bracket: u64,
        /// Budget units granted.
        units: u64,
    },
    /// The cells' spend reached the campaign's evaluation cap (fires
    /// once, after the resume pass in which it happened). Carries the cap
    /// (= the clamped spend), not the raw overshooting counter.
    BudgetExhausted {
        /// The global cap that was reached.
        cap: u64,
    },
    /// A run paused cooperatively at a budget boundary.
    RunPaused {
        /// Benchmark name.
        benchmark: String,
        /// Agent name.
        agent: String,
        /// The run's agent seed.
        seed: u64,
        /// Steps taken so far.
        steps: u64,
    },
    /// A run finished (naturally, or closed out by the scheduler).
    RunComplete {
        /// Benchmark name.
        benchmark: String,
        /// Agent name.
        agent: String,
        /// The run's agent seed.
        seed: u64,
        /// The stop reason's debug name.
        stop: String,
        /// Steps taken in total.
        steps: u64,
    },
    /// A synchronous-halving round eliminated a cell.
    CellEliminated {
        /// Cell index (benchmark-major).
        cell: u64,
        /// Round (or final rung) index.
        round: u64,
        /// Hyperband bracket index (0 elsewhere).
        bracket: u64,
    },
    /// A Hyperband bracket began (re-opening the whole grid).
    BracketStart {
        /// Bracket index.
        bracket: u64,
    },
    /// A cell eliminated under an earlier bracket re-entered the race.
    CellRevived {
        /// Cell index (benchmark-major).
        cell: u64,
        /// The bracket reviving it.
        bracket: u64,
    },
    /// ASHA recorded a cell's score on a rung boundary.
    RungRecorded {
        /// Cell index (benchmark-major).
        cell: u64,
        /// Rung index.
        rung: u64,
        /// The cell's best solution score so far.
        score: f64,
    },
    /// ASHA parked a cell at a rung boundary (waiting to rank).
    CellParked {
        /// Cell index (benchmark-major).
        cell: u64,
        /// The rung it parked on.
        rung: u64,
    },
    /// ASHA promoted a cell to the next rung with a fresh grant.
    RungPromoted {
        /// Cell index (benchmark-major).
        cell: u64,
        /// The rung promoted *to*.
        rung: u64,
        /// Budget units granted for the new rung.
        units: u64,
    },
    /// A Pareto-ranked scheduler measured the current non-dominated
    /// front over the live cells' objective vectors. Emitted only when
    /// a campaign runs with the `pareto` ranking, so scalarised event
    /// streams stay byte-identical to pre-multi-objective campaigns.
    ParetoFront {
        /// Cells on the non-dominated front (rank 0).
        front_size: u64,
        /// Hypervolume of the front against the resolved reference point.
        hypervolume: f64,
    },
    /// The campaign finished; final clamped spend and overshoot.
    CampaignComplete {
        /// Units spent, clamped to the cap.
        spent: u64,
        /// Cooperative overshoot beyond the cap.
        overshoot: u64,
    },
}

impl EventKind {
    /// The stable snake_case schema name of this variant — the JSONL
    /// `kind` field.
    pub fn kind_name(&self) -> &'static str {
        match self {
            EventKind::CampaignStart { .. } => "campaign_start",
            EventKind::BenchmarkReady { .. } => "benchmark_ready",
            EventKind::BudgetGrant { .. } => "budget_grant",
            EventKind::BudgetExhausted { .. } => "budget_exhausted",
            EventKind::RunPaused { .. } => "run_paused",
            EventKind::RunComplete { .. } => "run_complete",
            EventKind::CellEliminated { .. } => "cell_eliminated",
            EventKind::BracketStart { .. } => "bracket_start",
            EventKind::CellRevived { .. } => "cell_revived",
            EventKind::RungRecorded { .. } => "rung_recorded",
            EventKind::CellParked { .. } => "cell_parked",
            EventKind::RungPromoted { .. } => "rung_promoted",
            EventKind::ParetoFront { .. } => "pareto_front",
            EventKind::CampaignComplete { .. } => "campaign_complete",
        }
    }
}

/// One emitted event: a logical source, its per-source sequence number,
/// and the typed payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Logical emitter: [`SOURCE_COORDINATOR`] or `1 + run index`.
    pub source: u32,
    /// 0-based sequence number within `source`.
    pub seq: u64,
    /// The typed payload.
    pub kind: EventKind,
}

impl Event {
    /// The event as one line of JSON (no trailing newline). The first
    /// three fields are always `source`, `seq`, `kind`; the rest are the
    /// variant's payload fields in declaration order — the schema
    /// `docs/telemetry_reference.md` documents.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str(&format!(
            "{{\"source\": {}, \"seq\": {}, \"kind\": \"{}\"",
            self.source,
            self.seq,
            self.kind.kind_name()
        ));
        let field_u64 = |out: &mut String, name: &str, v: u64| {
            out.push_str(&format!(", \"{name}\": {v}"));
        };
        match &self.kind {
            EventKind::CampaignStart { name, total_runs } => {
                out.push_str(", \"name\": ");
                push_json_string(&mut out, name);
                field_u64(&mut out, "total_runs", *total_runs);
            }
            EventKind::BenchmarkReady { benchmark } => {
                out.push_str(", \"benchmark\": ");
                push_json_string(&mut out, benchmark);
            }
            EventKind::BudgetGrant {
                cell,
                round,
                bracket,
                units,
            } => {
                field_u64(&mut out, "cell", *cell);
                field_u64(&mut out, "round", *round);
                field_u64(&mut out, "bracket", *bracket);
                field_u64(&mut out, "units", *units);
            }
            EventKind::BudgetExhausted { cap } => field_u64(&mut out, "cap", *cap),
            EventKind::RunPaused {
                benchmark,
                agent,
                seed,
                steps,
            } => {
                out.push_str(", \"benchmark\": ");
                push_json_string(&mut out, benchmark);
                out.push_str(", \"agent\": ");
                push_json_string(&mut out, agent);
                field_u64(&mut out, "seed", *seed);
                field_u64(&mut out, "steps", *steps);
            }
            EventKind::RunComplete {
                benchmark,
                agent,
                seed,
                stop,
                steps,
            } => {
                out.push_str(", \"benchmark\": ");
                push_json_string(&mut out, benchmark);
                out.push_str(", \"agent\": ");
                push_json_string(&mut out, agent);
                field_u64(&mut out, "seed", *seed);
                out.push_str(", \"stop\": ");
                push_json_string(&mut out, stop);
                field_u64(&mut out, "steps", *steps);
            }
            EventKind::CellEliminated {
                cell,
                round,
                bracket,
            } => {
                field_u64(&mut out, "cell", *cell);
                field_u64(&mut out, "round", *round);
                field_u64(&mut out, "bracket", *bracket);
            }
            EventKind::BracketStart { bracket } => field_u64(&mut out, "bracket", *bracket),
            EventKind::CellRevived { cell, bracket } => {
                field_u64(&mut out, "cell", *cell);
                field_u64(&mut out, "bracket", *bracket);
            }
            EventKind::RungRecorded { cell, rung, score } => {
                field_u64(&mut out, "cell", *cell);
                field_u64(&mut out, "rung", *rung);
                out.push_str(", \"score\": ");
                push_f64(&mut out, *score);
            }
            EventKind::CellParked { cell, rung } => {
                field_u64(&mut out, "cell", *cell);
                field_u64(&mut out, "rung", *rung);
            }
            EventKind::RungPromoted { cell, rung, units } => {
                field_u64(&mut out, "cell", *cell);
                field_u64(&mut out, "rung", *rung);
                field_u64(&mut out, "units", *units);
            }
            EventKind::ParetoFront {
                front_size,
                hypervolume,
            } => {
                field_u64(&mut out, "front_size", *front_size);
                out.push_str(", \"hypervolume\": ");
                push_f64(&mut out, *hypervolume);
            }
            EventKind::CampaignComplete { spent, overshoot } => {
                field_u64(&mut out, "spent", *spent);
                field_u64(&mut out, "overshoot", *overshoot);
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_have_the_stable_header() {
        let e = Event {
            source: 3,
            seq: 7,
            kind: EventKind::RungRecorded {
                cell: 1,
                rung: 0,
                score: 1.5,
            },
        };
        assert_eq!(
            e.to_json_line(),
            "{\"source\": 3, \"seq\": 7, \"kind\": \"rung_recorded\", \
             \"cell\": 1, \"rung\": 0, \"score\": 1.5}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let e = Event {
            source: 0,
            seq: 0,
            kind: EventKind::BenchmarkReady {
                benchmark: "odd\"name\n".into(),
            },
        };
        assert_eq!(
            e.to_json_line(),
            "{\"source\": 0, \"seq\": 0, \"kind\": \"benchmark_ready\", \
             \"benchmark\": \"odd\\\"name\\n\"}"
        );
    }

    #[test]
    fn pareto_front_events_carry_size_and_hypervolume() {
        let e = Event {
            source: 0,
            seq: 2,
            kind: EventKind::ParetoFront {
                front_size: 3,
                hypervolume: 12.25,
            },
        };
        assert_eq!(
            e.to_json_line(),
            "{\"source\": 0, \"seq\": 2, \"kind\": \"pareto_front\", \
             \"front_size\": 3, \"hypervolume\": 12.25}"
        );
    }

    #[test]
    fn non_finite_scores_serialise_as_null() {
        let e = Event {
            source: 0,
            seq: 0,
            kind: EventKind::RungRecorded {
                cell: 0,
                rung: 0,
                score: f64::NEG_INFINITY,
            },
        };
        assert!(e.to_json_line().ends_with("\"score\": null}"));
    }
}
