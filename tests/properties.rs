//! Cross-crate property-based tests.

use axdse_suite::ax_dse::backend::SharedCache;
use axdse_suite::ax_dse::campaign::{ExperimentSpec, GlobalScheduler};
use axdse_suite::ax_dse::config::{AxConfig, SpaceDims};
use axdse_suite::ax_dse::pareto::{dominates, hypervolume, non_dominated_ranks, rank_order};
use axdse_suite::ax_dse::reward::{reward, RewardParams};
use axdse_suite::ax_dse::thresholds::Thresholds;
use axdse_suite::ax_dse::EvalMetrics;
use axdse_suite::ax_dse::{EvalContext, Evaluator};
use axdse_suite::ax_operators::{AdderId, MulId, OperatorLibrary};
use axdse_suite::ax_workloads::dot::DotProduct;
use axdse_suite::ax_workloads::fir::Fir;
use axdse_suite::ax_workloads::matmul::MatMul;
use axdse_suite::ax_workloads::Workload;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

const DIMS: SpaceDims = SpaceDims {
    n_add: 6,
    n_mul: 6,
    n_vars: 4,
};

fn arb_config() -> impl Strategy<Value = AxConfig> {
    (0usize..6, 0usize..6, 0u64..16).prop_map(|(a, m, v)| AxConfig {
        adder: AdderId(a),
        mul: MulId(m),
        vars: v,
    })
}

fn arb_points() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec((0.0f64..10.0, 0.0f64..10.0), 1..12)
        .prop_map(|ps| ps.into_iter().map(|(a, b)| vec![a, b]).collect())
}

fn arb_metrics() -> impl Strategy<Value = EvalMetrics> {
    (0.0f64..500.0, -100.0f64..500.0, -100.0f64..500.0).prop_map(|(acc, p, t)| EvalMetrics {
        delta_acc: acc,
        delta_power: p,
        delta_time: t,
        signed_error: 0.0,
        power: 0.0,
        time_ns: 0.0,
    })
}

proptest! {
    /// Algorithm 1 is total and its outputs take exactly the four documented
    /// values; terminate implies maximal reward.
    #[test]
    fn reward_is_total_and_bounded(config in arb_config(), m in arb_metrics()) {
        let params = RewardParams::new(
            50.0,
            Thresholds { acc_th: 100.0, power_th: 50.0, time_th: 50.0 },
        );
        let (r, term) = reward(&config, DIMS, &m, &params);
        prop_assert!(r == 1.0 || r == -1.0 || r == 50.0 || r == -50.0);
        if term {
            prop_assert_eq!(r, 50.0);
            prop_assert!(config.is_fully_approximate(DIMS));
            prop_assert!(m.delta_acc <= 100.0);
        }
        if m.delta_acc > 100.0 {
            prop_assert_eq!(r, -50.0);
        }
    }

    /// Tightening the accuracy threshold never turns a penalised
    /// configuration into a rewarded one (monotonicity of Algorithm 1).
    #[test]
    fn reward_monotone_in_accuracy_threshold(
        config in arb_config(),
        m in arb_metrics(),
        th_lo in 1.0f64..200.0,
        extra in 1.0f64..200.0,
    ) {
        let th_hi = th_lo + extra;
        let mk = |acc_th| RewardParams::new(
            50.0,
            Thresholds { acc_th, power_th: 50.0, time_th: 50.0 },
        );
        let (r_tight, _) = reward(&config, DIMS, &m, &mk(th_lo));
        let (r_loose, _) = reward(&config, DIMS, &m, &mk(th_hi));
        prop_assert!(r_loose >= r_tight, "loosening hurt: {r_tight} -> {r_loose}");
    }

    /// Neighbour moves always stay valid and differ in exactly one axis.
    #[test]
    fn neighbors_are_single_axis_moves(config in arb_config(), seed in 0u64..1000) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let n = config.neighbor(DIMS, &mut rng);
        prop_assert!(n.is_valid(DIMS));
        let changes = [
            n.adder != config.adder,
            n.mul != config.mul,
            n.vars != config.vars,
        ].iter().filter(|&&c| c).count();
        prop_assert_eq!(changes, 1);
    }

    /// Evaluator metrics are self-consistent for arbitrary configurations:
    /// Δ values complement the absolute values against the precise run, and
    /// MAE dominates the literal signed mean error.
    #[test]
    fn evaluator_metric_identities(config in arb_config()) {
        let lib = OperatorLibrary::evoapprox();
        let mut ev = Evaluator::new(&DotProduct::new(6), &lib, 3).unwrap();
        prop_assume!(config.is_valid(ev.dims()));
        let m = ev.evaluate(&config).unwrap();
        prop_assert!((m.delta_power - (ev.precise_power() - m.power)).abs() < 1e-9);
        prop_assert!((m.delta_time - (ev.precise_time() - m.time_ns)).abs() < 1e-9);
        prop_assert!(m.delta_acc >= m.signed_error.abs() - 1e-9);
        prop_assert!(m.delta_acc >= 0.0);
    }

    /// The server-wide budget stack of the campaign daemon: jobs with
    /// arbitrary priorities, per-job caps and demands, drained through a
    /// [`GlobalScheduler`], never push the aggregate spend past the
    /// server cap or any job past its own cap — and the per-job ledger
    /// reconstructs the server's spend exactly.
    #[test]
    fn global_scheduler_budget_stack_never_exceeds_any_cap(
        server_cap_raw in 0u64..150,
        max_job_budget_raw in 0u64..60,
        jobs_raw in prop::collection::vec((0u8..4, 0u64..50, 0u64..70), 1..8),
    ) {
        // The shim has no Option strategy: 0 encodes "unbounded".
        let server_cap = (server_cap_raw > 0).then_some(server_cap_raw);
        let max_job_budget = (max_job_budget_raw > 0).then_some(max_job_budget_raw);
        let jobs: Vec<(u8, Option<u64>, u64)> = jobs_raw
            .into_iter()
            .map(|(p, r, d)| (p, (r > 0).then_some(r), d))
            .collect();
        let sched = GlobalScheduler::new(server_cap, 2, max_job_budget);
        let tickets: Vec<_> = jobs
            .iter()
            .map(|&(priority, requested, _)| sched.submit(priority, requested))
            .collect();
        // Drain in admission order (priority desc, id asc) so a single
        // thread mirrors what the daemon's worker pool converges to. Each
        // "evaluation" checks both stacked budgets before charging them
        // with the same delta — exactly the campaign driver's contract.
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(jobs[i].0), i));
        let mut expected_total = 0u64;
        for &i in &order {
            prop_assert!(sched.acquire(&tickets[i]));
            for _ in 0..jobs[i].2 {
                if tickets[i].budget().exhausted() || sched.server().exhausted() {
                    break;
                }
                tickets[i].budget().charge(1);
                sched.server().charge(1);
            }
            sched.finish(&tickets[i]);
            // Sequentially, each job gets min(demand, own cap, what the
            // server has left).
            let own_cap = match (jobs[i].1, max_job_budget) {
                (Some(r), Some(m)) => Some(r.min(m)),
                (r, m) => r.or(m),
            };
            let mut want = jobs[i].2;
            if let Some(cap) = own_cap {
                want = want.min(cap);
            }
            if let Some(cap) = server_cap {
                want = want.min(cap - expected_total);
            }
            prop_assert_eq!(tickets[i].budget().spent(), want);
            expected_total += want;
        }
        if let Some(cap) = server_cap {
            prop_assert!(sched.server().spent() <= cap);
        }
        prop_assert_eq!(sched.server().spent(), expected_total);
        prop_assert_eq!(sched.jobs_spent_total(), sched.server().spent());
        prop_assert_eq!(sched.counts(), (0, 0, 0, jobs.len()));
    }

    /// Non-dominated sorting is sound: no rank-0 point is dominated by
    /// anything, and the survival order leads with exactly the front.
    #[test]
    fn no_front_member_is_dominated(points in arb_points()) {
        let ranks = non_dominated_ranks(&points);
        for (i, &r) in ranks.iter().enumerate() {
            if r == 0 {
                for p in &points {
                    prop_assert!(
                        !dominates(p, &points[i]),
                        "{p:?} dominates front member {:?}",
                        points[i]
                    );
                }
            }
        }
        let order = rank_order(&points);
        let front = ranks.iter().filter(|&&r| r == 0).count();
        prop_assert!(front >= 1);
        for &i in &order[..front] {
            prop_assert_eq!(ranks[i], 0, "survival order must lead with the front");
        }
    }

    /// Hypervolume is monotone: adding a point that dominates an existing
    /// one (or any point at all) never shrinks the dominated volume.
    #[test]
    fn hypervolume_monotone_under_adding_a_dominating_point(
        points in arb_points(),
        frac in 0.0f64..0.99,
    ) {
        let reference = [10.0, 10.0];
        let base = hypervolume(&points, &reference);
        prop_assert!(base >= 0.0);
        let mut more = points.clone();
        // Scale the first point toward the ideal corner: componentwise
        // no worse, so it dominates (or equals) its parent.
        more.push(vec![points[0][0] * frac, points[0][1] * frac]);
        let grown = hypervolume(&more, &reference);
        prop_assert!(
            grown >= base - 1e-12,
            "hypervolume shrank: {base} -> {grown}"
        );
        // And the union never exceeds the reference box itself.
        prop_assert!(grown <= 10.0 * 10.0 + 1e-9);
    }

    /// The precise adder/multiplier pair with any variable selection is
    /// error-free: selecting variables only matters with approximate
    /// operators bound.
    #[test]
    fn precise_operators_are_error_free_under_any_mask(vars in 0u64..16) {
        let lib = OperatorLibrary::evoapprox();
        let mut ev = Evaluator::new(&DotProduct::new(6), &lib, 3).unwrap();
        let config = AxConfig { adder: AdderId(0), mul: MulId(0), vars };
        let m = ev.evaluate(&config).unwrap();
        prop_assert_eq!(m.delta_acc, 0.0);
        prop_assert_eq!(m.delta_power, 0.0);
        prop_assert_eq!(m.delta_time, 0.0);
    }
}

/// The checked-in campaign specs, as mutation seeds.
const EXAMPLE_SPECS: [&str; 4] = [
    include_str!("../examples/campaign_matmul.json"),
    include_str!("../examples/campaign_halving.json"),
    include_str!("../examples/campaign_asha.json"),
    include_str!("../examples/campaign_pareto.json"),
];

/// A byte to splice in: half arbitrary, half JSON structure, so mutants
/// get past the tokenizer into the schema checks.
fn arb_byte() -> impl Strategy<Value = u8> {
    const JSON: &[u8] = b"{}[]\",:-.0123456789eE \\ntrufalse";
    prop_oneof![0u8..=255, (0..JSON.len()).prop_map(|i| JSON[i])]
}

/// One to four `(op, position, byte)` edits; see [`mutate`].
fn arb_edits() -> impl Strategy<Value = Vec<(u8, usize, u8)>> {
    prop::collection::vec((0u8..4, 0usize..1 << 16, arb_byte()), 1..5)
}

/// Applies overwrite / insert / delete / truncate edits at positions
/// taken modulo the current length.
fn mutate(mut bytes: Vec<u8>, edits: &[(u8, usize, u8)]) -> Vec<u8> {
    for &(op, pos, byte) in edits {
        let len = bytes.len();
        match op {
            0 if len > 0 => bytes[pos % len] = byte,
            1 => bytes.insert(pos % (len + 1), byte),
            2 if len > 0 => {
                bytes.remove(pos % len);
            }
            3 => bytes.truncate(pos % (len + 1)),
            _ => {}
        }
    }
    bytes
}

/// A saved two-scope cache file, filled by evaluating four designs of
/// each benchmark.
fn saved_cache_file() -> &'static [u8] {
    static FILE: OnceLock<Vec<u8>> = OnceLock::new();
    FILE.get_or_init(|| {
        let cache = SharedCache::new();
        let lib = Arc::new(OperatorLibrary::evoapprox());
        let benchmarks: [(&dyn Workload, u64); 2] = [(&MatMul::new(4), 11), (&Fir::new(16), 42)];
        for (workload, input_seed) in benchmarks {
            let ctx =
                EvalContext::with_cache(workload, Arc::clone(&lib), input_seed, Arc::clone(&cache))
                    .unwrap();
            let mut evaluator = ctx.evaluator();
            for vars in 0..4u64 {
                let config = AxConfig {
                    adder: AdderId(1),
                    mul: MulId(2),
                    vars,
                };
                evaluator.evaluate(&config).unwrap();
            }
        }
        let path = temp_path("saved_cache");
        let _ = std::fs::remove_file(&path);
        cache.save(&path, usize::MAX, None).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        bytes
    })
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ax_prop_{tag}_{}.json", std::process::id()))
}

/// Merges `bytes` from a file into a fresh cache: `Ok`, or an
/// `InvalidData` error, never a panic or another error kind.
fn merge_bytes(tag: &str, bytes: &[u8]) -> Result<(), TestCaseError> {
    let path = temp_path(tag);
    std::fs::write(&path, bytes).unwrap();
    let merged = SharedCache::new().merge_from(&path);
    let _ = std::fs::remove_file(&path);
    if let Err(e) = merged {
        prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{}", e);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes in a cache file are a typed error, never a panic.
    #[test]
    fn arbitrary_cache_files_merge_or_fail_cleanly(
        bytes in prop::collection::vec(0u8..=255, 0..512),
    ) {
        merge_bytes("arbitrary_cache", &bytes)?;
    }

    /// So is any byte-level mutation of a saved cache file.
    #[test]
    fn mutated_cache_files_merge_or_fail_cleanly(edits in arb_edits()) {
        merge_bytes("mutated_cache", &mutate(saved_cache_file().to_vec(), &edits))?;
    }

    /// Mutated campaign specs parse or return a `SpecError`; a mutant
    /// that still parses also validates without panicking.
    #[test]
    fn mutated_specs_parse_or_fail_cleanly(which in 0usize..4, edits in arb_edits()) {
        let bytes = mutate(EXAMPLE_SPECS[which].as_bytes().to_vec(), &edits);
        if let Ok(spec) = ExperimentSpec::from_json_str(&String::from_utf8_lossy(&bytes)) {
            let _ = spec.validate();
        }
    }
}
