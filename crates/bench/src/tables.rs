//! Tables I, II and III of the paper.

use crate::OutputDir;
use ax_dse::explore::{AgentKind, ExplorationOutcome, ExploreOptions};
use ax_dse::report::{ascii_table, fmt_metric};
use ax_operators::{
    characterize_adder, characterize_multiplier, BitWidth, CharacterizeMode, OperatorLibrary,
};
use ax_workloads::paper_benchmarks;

/// One row of the operator characterisation tables: published vs measured.
#[derive(Debug, Clone)]
pub struct OperatorRow {
    /// Operator short name.
    pub name: String,
    /// Operand width.
    pub width: BitWidth,
    /// Published MRED (%), from the paper's table.
    pub published_mred: f64,
    /// MRED (%) measured on our behavioural model.
    pub measured_mred: f64,
    /// Published power (mW).
    pub power_mw: f64,
    /// Published computation time (ns).
    pub time_ns: f64,
}

fn adder_mode(w: BitWidth) -> CharacterizeMode {
    match w {
        BitWidth::W8 => CharacterizeMode::Exhaustive,
        _ => CharacterizeMode::MonteCarlo {
            samples: 1_000_000,
            seed: 0xA11CE,
        },
    }
}

/// Reproduces Table I: the selected adders with MRED / power / time,
/// measured MRED alongside.
pub fn table1(out: &OutputDir) -> Vec<OperatorRow> {
    let lib = OperatorLibrary::evoapprox();
    let mut rows = Vec::new();
    for width in [BitWidth::W8, BitWidth::W16] {
        for e in lib.adders(width) {
            let profile = characterize_adder(&e.model, adder_mode(width));
            rows.push(OperatorRow {
                name: e.spec.name().to_owned(),
                width,
                published_mred: e.spec.mred_pct(),
                measured_mred: profile.mred_pct,
                power_mw: e.spec.power_mw(),
                time_ns: e.spec.time_ns(),
            });
        }
    }
    print_operator_table("Table I: selected adders", "table1_adders", &rows, out);
    rows
}

/// Reproduces Table II: the selected multipliers.
pub fn table2(out: &OutputDir) -> Vec<OperatorRow> {
    let lib = OperatorLibrary::evoapprox();
    let mut rows = Vec::new();
    for width in [BitWidth::W8, BitWidth::W32] {
        let mode = match width {
            BitWidth::W8 => CharacterizeMode::Exhaustive,
            _ => CharacterizeMode::MonteCarlo {
                samples: 1_000_000,
                seed: 0xA11CE,
            },
        };
        for e in lib.multipliers(width) {
            let profile = characterize_multiplier(&e.model, mode);
            rows.push(OperatorRow {
                name: e.spec.name().to_owned(),
                width,
                published_mred: e.spec.mred_pct(),
                measured_mred: profile.mred_pct,
                power_mw: e.spec.power_mw(),
                time_ns: e.spec.time_ns(),
            });
        }
    }
    print_operator_table(
        "Table II: selected multipliers",
        "table2_multipliers",
        &rows,
        out,
    );
    rows
}

fn print_operator_table(title: &str, file: &str, rows: &[OperatorRow], out: &OutputDir) {
    let headers = [
        "operator",
        "type",
        "MRED % (paper)",
        "MRED % (measured)",
        "power mW",
        "time ns",
    ];
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!(
                    "{} {}",
                    r.width,
                    if r.name.contains("precise") {
                        "precise"
                    } else {
                        ""
                    }
                )
                .trim()
                .to_owned(),
                r.name.clone(),
                format!("{:.3}", r.published_mred),
                format!("{:.3}", r.measured_mred),
                format!("{}", r.power_mw),
                format!("{}", r.time_ns),
            ]
        })
        .collect();
    println!("\n{title}");
    println!("{}", ascii_table(&headers, &table_rows));
    out.write(file, &headers, &table_rows);
}

/// Reproduces Table III: the four explorations with min/solution/max of
/// ΔPower, ΔTime and accuracy degradation plus the selected operator types.
pub fn table3(opts: &ExploreOptions, out: &OutputDir) -> Vec<ExplorationOutcome> {
    let lib = OperatorLibrary::evoapprox();
    let mut outcomes = Vec::new();
    for wl in paper_benchmarks() {
        println!("exploring {} ...", wl.name());
        let outcome = crate::explore_one(wl.as_ref(), &lib, opts, AgentKind::QLearning);
        outcomes.push(outcome);
    }

    let headers: Vec<&str> = {
        let mut h = vec!["metric"];
        h.extend(outcomes.iter().map(|o| &*o.summary.benchmark));
        h
    };
    let mut rows: Vec<Vec<String>> = Vec::new();
    type MetricFn = fn(&ExplorationOutcome) -> f64;
    let metric_rows: [(&str, MetricFn); 9] = [
        ("d-power min (mW)", |o| o.summary.power.min),
        ("d-power solution", |o| o.summary.power.solution),
        ("d-power max", |o| o.summary.power.max),
        ("d-time min (ns)", |o| o.summary.time.min),
        ("d-time solution", |o| o.summary.time.solution),
        ("d-time max", |o| o.summary.time.max),
        ("acc-degr min", |o| o.summary.accuracy.min),
        ("acc-degr solution", |o| o.summary.accuracy.solution),
        ("acc-degr max", |o| o.summary.accuracy.max),
    ];
    for (label, f) in metric_rows {
        let mut row = vec![label.to_owned()];
        row.extend(outcomes.iter().map(|o| fmt_metric(f(o))));
        rows.push(row);
    }
    for (label, f) in [
        (
            "adder type",
            (|o: &ExplorationOutcome| o.summary.adder_name.to_string())
                as fn(&ExplorationOutcome) -> String,
        ),
        ("multiplier type", |o| o.summary.mul_name.to_string()),
        ("steps", |o| o.summary.steps.to_string()),
        ("distinct configs", |o| o.distinct_configs.to_string()),
    ] {
        let mut row = vec![label.to_owned()];
        row.extend(outcomes.iter().map(f));
        rows.push(row);
    }

    println!("\nTable III: exploration results for power, computation time, and accuracy");
    println!("{}", ascii_table(&headers, &rows));
    out.write("table3_explorations", &headers, &rows);
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_rows_cover_all_adders_in_order() {
        let rows = table1(&OutputDir::default());
        assert_eq!(rows.len(), 12);
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "1HG", "6PT", "6R6", "0TP", "00M", "02Y", "1A5", "0GN", "0BC", "0HE", "0SL", "067"
            ]
        );
        // Measured MRED tracks the published ladder within each width class.
        for class in rows.chunks(6) {
            for pair in class.windows(2) {
                assert!(pair[0].measured_mred <= pair[1].measured_mred + 1e-9);
            }
        }
    }

    #[test]
    fn table2_rows_cover_all_multipliers() {
        let rows = table2(&OutputDir::default());
        assert_eq!(rows.len(), 12);
        assert_eq!(rows[0].name, "1JJQ");
        assert_eq!(rows[6].name, "precise");
        assert_eq!(rows[11].name, "067");
    }
}
