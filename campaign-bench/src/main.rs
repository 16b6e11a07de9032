//! Campaign benchmark: times whole AxDSE campaigns, from spec to report,
//! and replays them layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path campaign-bench/Cargo.toml -- \
//!     --workload cold-grid|warm-replay|budgeted-asha --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` runs the workload's campaigns back to back for `S` seconds
//! with tracing off and reports the end-to-end metrics; `--trace 1` runs
//! the traced per-layer replay instead (see `layers.rs`). Either way the
//! last line of standard output is one JSON object,
//! `{"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value", "unit"}}}`,
//! and the process exits 0 only when every output checked out.
//!
//! A run cycles through the workload's campaigns in passes; one sample is
//! the mean campaign time (spec to report) of a pass, and a 30 s run takes
//! about 100 to 400 of them. End-to-end metrics:
//!
//! - `campaign_rel` — the median of the samples, each divided by the time
//!   of the reference workload (`reference.rs`) run just before its pass
//!   (smoothed over the last few passes). On a shared 2-vCPU cloud VM,
//!   other tenants switch the machine's speed between levels up to 2×
//!   apart for stretches of 5 to 60 s. Over ten runs of one build, the
//!   quartile spread of the raw 90th percentile reached 39%, that of the
//!   ratio's median stayed within 2 to 5%. The ratio's 90th percentile
//!   still spread 10 to 17%, being mostly those stretches, so it is not a
//!   gated metric. The raw median and 90th percentile and the ratio's 90th
//!   percentile go to standard error; the traced run reports raw per-layer
//!   times.
//! - `peak_rss_mb` — the process's peak resident memory after the timed
//!   campaigns.
//! - `setup_s` — the median of several set-ups spread over the run:
//!   parsing the specs and building the operator library and benchmarks,
//!   plus, for the warm replay, the cold campaigns that fill its caches.

mod layers;
mod reference;
mod scenario;

use scenario::{Bench, Kind};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Passes over the workload's campaigns a run times at least, however
/// short `--seconds` is.
const MIN_PASSES: usize = 5;

const USAGE: &str =
    "usage: campaign-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| {
                    format!("unknown workload `{value}` (one of {})", Kind::names())
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run prints as its last line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// `true` when every output checked out and every metric measured
    /// something (a non-finite value means a layer had nothing to time).
    fn is_correct(&self) -> bool {
        self.correct && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line. Values print with every digit of Rust's shortest
    /// round-trip form; a non-finite value prints as 0 so the line stays
    /// valid JSON, and the run reports itself incorrect.
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    r#""{}": {{"value": {value}, "unit": "{}"}}"#,
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.is_correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// The nearest-rank `q`-quantile of `values` (sorted in place); NaN when
/// empty.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Sets the workload up once; returns the set-up and its time in seconds.
fn timed_set_up(kind: Kind, specs: &[String]) -> Result<(Bench, f64), String> {
    let t0 = Instant::now();
    let bench = Bench::set_up(kind, specs)?;
    Ok((bench, t0.elapsed().as_secs_f64()))
}

/// Checks campaign `i`'s report on its own and against `reference` (the
/// first report of the same spec, once there is one).
fn check(
    bench: &Bench,
    i: usize,
    report: Result<ax_dse::campaign::CampaignReport, String>,
    reference: &mut Option<String>,
) -> Result<(), String> {
    let report = report?;
    bench.check_report(i, &report)?;
    let json = report.to_json_string();
    if *reference.get_or_insert_with(|| json.clone()) != json {
        return Err("the report differs from the spec's first one".into());
    }
    Ok(())
}

/// The process's peak resident set size in KiB (`VmHWM`).
fn peak_rss_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// `--trace 0`: cycles through the workload's campaigns for `seconds`,
/// timing each from spec to report against the workload's cache. One
/// sample is the mean campaign time of a pass over every spec. Every
/// report must equal its spec's first (for a warm replay, the cold report
/// from set-up) byte for byte; afterwards the reference interpreter
/// re-executes every design the last campaigns cached.
///
/// `first_setup_s` timed the set-up that built `bench`; `set_up_again`
/// times a fresh one. The [`SETUP_REPS`] set-ups are spread evenly over
/// the run, between passes, so their median meets the same machine
/// conditions as the campaigns rather than one moment's.
fn end_to_end(
    bench: &Bench,
    seconds: f64,
    first_setup_s: f64,
    set_up_again: impl Fn() -> Result<f64, String>,
) -> Result<Outcome, String> {
    let mut setup_times = vec![first_setup_s];
    let n = bench.specs.len();
    let mut references: Vec<Option<String>> = (0..n)
        .map(|i| bench.expected_report(i).map(str::to_owned))
        .collect();
    let mut last_caches = vec![None; n];
    // Per pass: the mean campaign time, and its ratio to the reference
    // workload timed just before the pass.
    let (mut samples, mut ratios) = (Vec::new(), Vec::new());
    let mut host = reference::Reference::default();
    let (mut passes, mut attempted, mut failed) = (0, 0u64, 0u64);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let setup_every = Duration::from_secs_f64(seconds / SETUP_REPS as f64);
    while passes < MIN_PASSES || Instant::now() < deadline {
        if setup_times.len() < SETUP_REPS
            && start.elapsed() >= setup_every * setup_times.len() as u32
        {
            setup_times.push(set_up_again()?);
        }
        passes += 1;
        let reference_s = host.time();
        let (mut pass_s, mut ok) = (0.0, true);
        for (i, reference) in references.iter_mut().enumerate() {
            attempted += 1;
            let cache = bench.cache(i);
            let t0 = Instant::now();
            let report = bench.run(i, Arc::clone(&cache));
            pass_s += t0.elapsed().as_secs_f64();
            match check(bench, i, report, reference) {
                Ok(()) => last_caches[i] = Some(cache),
                Err(e) => {
                    eprintln!("campaign {attempted} (spec {i}) failed: {e}");
                    failed += 1;
                    ok = false;
                }
            }
        }
        if ok {
            samples.push(pass_s / n as f64);
            ratios.push(pass_s / n as f64 / reference_s);
        }
    }
    while setup_times.len() < SETUP_REPS {
        setup_times.push(set_up_again()?);
    }
    let peak_rss_kb = peak_rss_kb();
    let mut oracle_ok = true;
    for (i, cache) in last_caches.iter().enumerate() {
        let mismatches = match cache {
            Some(cache) => bench.oracle_mismatches(i, cache)?,
            None => 1,
        };
        if mismatches > 0 {
            eprintln!(
                "spec {i}: {mismatches} cached designs differ from the reference interpreter"
            );
            oracle_ok = false;
        }
    }
    if !bench.warm_caches_held() {
        eprintln!("the warm replay missed its cache");
    }
    eprintln!(
        "{} samples: campaign median {:.3} ms, p90 {:.3} ms; relative p90 {:.4}",
        samples.len(),
        median(&mut samples) * 1e3,
        percentile(&mut samples, 0.9) * 1e3,
        percentile(&mut ratios, 0.9),
    );
    Ok(Outcome {
        correct: failed == 0 && oracle_ok && bench.warm_caches_held(),
        attempted,
        failed,
        metrics: vec![
            metric("campaign_rel", median(&mut ratios), "x"),
            metric("peak_rss_mb", peak_rss_kb? as f64 / 1024.0, "MB"),
            metric("setup_s", median(&mut setup_times), "s"),
        ],
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("campaign-bench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let specs = args.kind.specs(args.seed);
    let outcome = timed_set_up(args.kind, &specs).and_then(|(bench, setup_s)| {
        if args.trace {
            layers::run(&bench, args.seconds)
        } else {
            end_to_end(&bench, args.seconds, setup_s, || {
                timed_set_up(args.kind, &specs).map(|(_, s)| s)
            })
        }
    });
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            if outcome.is_correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("campaign-bench: {e}");
            ExitCode::FAILURE
        }
    }
}
