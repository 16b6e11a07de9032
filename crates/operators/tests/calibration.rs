//! Calibration of behavioural models against the paper's published MRED.
//!
//! The ignored `calibration_grid` test prints measured MRED for a grid of
//! candidate family configurations — it is the tool used to pick the
//! parameters hard-coded in `OperatorLibrary::evoapprox`. The non-ignored
//! tests pin the chosen configurations to the published values within a
//! tolerance band recorded in EXPERIMENTS.md.

use ax_operators::{
    characterize_adder, characterize_multiplier, AdderKind, AdderModel, BitWidth, CharacterizeMode,
    MulKind, MulModel, OperatorLibrary,
};

fn mc(samples: u64) -> CharacterizeMode {
    CharacterizeMode::MonteCarlo {
        samples,
        seed: 0xA11CE,
    }
}

fn adder_mode(w: BitWidth) -> CharacterizeMode {
    match w {
        BitWidth::W8 => CharacterizeMode::Exhaustive,
        _ => mc(1_000_000),
    }
}

#[test]
#[ignore = "calibration tool: prints a measurement grid, run with --nocapture"]
fn calibration_grid() {
    println!("== 8-bit adders (targets: 0.14, 2.93, 6.16, 14.58, 24.87) ==");
    let mut cands: Vec<(String, AdderKind)> = Vec::new();
    for k in 1..=8u32 {
        cands.push((format!("loa{k}"), AdderKind::Loa { approx_bits: k }));
        cands.push((format!("trunc{k}"), AdderKind::Trunc { cut_bits: k }));
        cands.push((format!("set1_{k}"), AdderKind::SetOne { cut_bits: k }));
        cands.push((format!("passb{k}"), AdderKind::PassB { approx_bits: k }));
    }
    for (name, kind) in &cands {
        let m = AdderModel::new(*kind, BitWidth::W8);
        let p = characterize_adder(&m, CharacterizeMode::Exhaustive);
        println!(
            "  {name:10} MRED {:8.4}%  MAE {:8.3}  ER {:6.4}",
            p.mred_pct, p.mae, p.error_rate
        );
    }

    println!("== 16-bit adders (targets: 0.005, 0.018, 0.16, 9.54, 22.35) ==");
    let mut cands16: Vec<(String, AdderKind)> = Vec::new();
    for k in 1..=16u32 {
        cands16.push((format!("loa{k}"), AdderKind::Loa { approx_bits: k }));
        if k < 16 {
            cands16.push((format!("set1_{k}"), AdderKind::SetOne { cut_bits: k }));
            cands16.push((format!("trunc{k}"), AdderKind::Trunc { cut_bits: k }));
        }
    }
    for (name, kind) in &cands16 {
        let m = AdderModel::new(*kind, BitWidth::W16);
        let p = characterize_adder(&m, mc(1_000_000));
        println!(
            "  {name:10} MRED {:8.5}%  MAE {:10.3}  ER {:6.4}",
            p.mred_pct, p.mae, p.error_rate
        );
    }

    println!("== 8-bit multipliers (targets: 0.033, 1.23, 4.52, 17.98, 53.17) ==");
    let mut mcands: Vec<(String, MulKind)> = vec![
        ("mitchell".into(), MulKind::Mitchell),
        (
            "po2floor".into(),
            MulKind::Po2(ax_operators::multipliers::Po2Mode::Floor),
        ),
        (
            "po2near".into(),
            MulKind::Po2(ax_operators::multipliers::Po2Mode::Nearest),
        ),
    ];
    for n in 1..=6u32 {
        mcands.push((format!("logit{n}"), MulKind::LogIter { iterations: n }));
    }
    for k in 2..=7u32 {
        mcands.push((format!("drum{k}"), MulKind::Drum { k }));
    }
    for c in 1..=12u32 {
        mcands.push((format!("trures{c}"), MulKind::TruncResult { cut_bits: c }));
        mcands.push((format!("trupp{c}"), MulKind::TruncPp { cut_columns: c }));
    }
    for r in 1..=7u32 {
        mcands.push((format!("bam{r}"), MulKind::BrokenArray { rows: r }));
    }
    for (name, kind) in &mcands {
        let m = MulModel::new(*kind, BitWidth::W8);
        let p = characterize_multiplier(&m, CharacterizeMode::Exhaustive);
        println!(
            "  {name:10} MRED {:8.4}%  MAE {:10.3}  ER {:6.4}",
            p.mred_pct, p.mae, p.error_rate
        );
    }

    println!("== 32-bit multipliers (targets: 0.00, 0.01, 1.45, 10.59, 41.25) ==");
    let mut wide: Vec<(String, MulKind)> = vec![
        ("mitchell".into(), MulKind::Mitchell),
        (
            "po2floor".into(),
            MulKind::Po2(ax_operators::multipliers::Po2Mode::Floor),
        ),
        (
            "po2near".into(),
            MulKind::Po2(ax_operators::multipliers::Po2Mode::Nearest),
        ),
    ];
    for k in [3u32, 4, 5, 6, 7, 8, 12, 13, 14, 16] {
        wide.push((format!("drum{k}"), MulKind::Drum { k }));
    }
    for n in 1..=4u32 {
        wide.push((format!("logit{n}"), MulKind::LogIter { iterations: n }));
    }
    for (name, kind) in &wide {
        let m = MulModel::new(*kind, BitWidth::W32);
        let p = characterize_multiplier(&m, mc(500_000));
        println!(
            "  {name:10} MRED {:9.5}%  ER {:6.4}",
            p.mred_pct, p.error_rate
        );
    }
}

/// Relative tolerance between a measured MRED and the published value.
///
/// The published circuits are evolved netlists we cannot replicate
/// gate-for-gate; the calibration contract is "same ladder, same ballpark":
/// each measured MRED must land within a factor of 2.5 of the published one
/// (absolute slack 0.02 percentage points for the near-zero entries). Seven
/// of the nineteen entries with a nonzero published MRED land within ten
/// percent (EXPERIMENTS.md lists them all); the widest gaps are the 8-bit
/// adder `02Y`, whose hard truncation measures 56.7 % against the published
/// 24.9 %, and the ultra-cheap `17MJ` multiplier, whose zero-mean
/// behavioural model (required for its accumulation behaviour, see
/// `po2_compensated`) measures 25.8 % against the published 53.2 %.
fn within_band(measured: f64, published: f64) -> bool {
    if published == 0.0 {
        return measured == 0.0;
    }
    let lo = published / 2.5 - 0.02;
    let hi = published * 2.5 + 0.02;
    measured >= lo && measured <= hi
}

#[test]
fn library_adders_match_published_band() {
    let lib = OperatorLibrary::evoapprox();
    for w in [BitWidth::W8, BitWidth::W16] {
        for e in lib.adders(w) {
            let p = characterize_adder(&e.model, adder_mode(w));
            assert!(
                within_band(p.mred_pct, e.spec.mred_pct()),
                "{w} adder {}: measured {:.4}% vs published {:.4}%",
                e.spec.name(),
                p.mred_pct,
                e.spec.mred_pct()
            );
        }
    }
}

#[test]
fn library_multipliers_match_published_band() {
    let lib = OperatorLibrary::evoapprox();
    for (w, mode) in [
        (BitWidth::W8, CharacterizeMode::Exhaustive),
        (BitWidth::W32, mc(1_000_000)),
    ] {
        for e in lib.multipliers(w) {
            let p = characterize_multiplier(&e.model, mode);
            // The "000" 32-bit multiplier is published as 0.00% but is not
            // exact; accept anything that rounds to 0.00 (i.e. < 0.005%).
            if e.spec.mred_pct() == 0.0 && !e.model.is_exact() {
                assert!(p.mred_pct < 0.005, "{}: {:.5}%", e.spec.name(), p.mred_pct);
                continue;
            }
            assert!(
                within_band(p.mred_pct, e.spec.mred_pct()),
                "{w} multiplier {}: measured {:.4}% vs published {:.4}%",
                e.spec.name(),
                p.mred_pct,
                e.spec.mred_pct()
            );
        }
    }
}
