//! Compiled-vs-interpreter differential tests across the whole stack.
//!
//! The threaded-code engine (`CompiledProgram`, the default
//! `ExecEngine::Compiled`) is a performance substrate only: every result
//! it produces must be bit-identical to the interpreter reference, from
//! single workload designs up through backend metrics and whole campaigns.
//! These tests pin that contract at each layer.

use axdse_suite::ax_dse::config::AxConfig;
use axdse_suite::ax_dse::{EvalContext, ExecEngine};
use axdse_suite::ax_operators::multipliers::Po2Mode;
use axdse_suite::ax_operators::{
    AdderId, AdderKind, AdderModel, BitWidth, MulId, MulKind, MulModel, OperatorLibrary,
    OperatorSpec,
};
use axdse_suite::ax_vm::exec::ExecScratch;
use axdse_suite::ax_vm::{Binding, CompiledSkeleton, ExecOutcome, VarMask};
use axdse_suite::ax_workloads::conv2d::Conv2d;
use axdse_suite::ax_workloads::dct::Dct8;
use axdse_suite::ax_workloads::dot::DotProduct;
use axdse_suite::ax_workloads::fir::Fir;
use axdse_suite::ax_workloads::matmul::MatMul;
use axdse_suite::ax_workloads::sobel::Sobel;
use axdse_suite::ax_workloads::{PreparedWorkload, Workload};
use proptest::prelude::*;
use std::sync::Arc;

/// One small instance of every workload in the suite.
fn workload_for(ix: usize) -> Box<dyn Workload> {
    match ix {
        0 => Box::new(MatMul::new(3)),
        1 => Box::new(Fir::new(16)),
        2 => Box::new(DotProduct::new(8)),
        3 => Box::new(Conv2d::new(4)),
        4 => Box::new(Sobel::new(4)),
        _ => Box::new(Dct8::new(1)),
    }
}

const N_WORKLOADS: usize = 6;

/// The operator libraries the engines are compared on: the paper's
/// selection, the extended one (SetMid and CarryCut adders, LogIter,
/// BrokenArray and TruncPp multipliers), and the paper's selection plus
/// the two kinds no shipped library carries, so every adder and multiplier
/// kind meets both engines.
fn library_for(ix: usize) -> OperatorLibrary {
    match ix {
        0 => OperatorLibrary::evoapprox(),
        1 => OperatorLibrary::evoapprox_extended(),
        _ => {
            let base = OperatorLibrary::evoapprox();
            let mut builder = OperatorLibrary::builder();
            for width in [BitWidth::W8, BitWidth::W16] {
                for e in base.adders(width) {
                    builder = builder.adder(e.spec.clone(), e.model);
                }
            }
            for width in [BitWidth::W8, BitWidth::W32] {
                for e in base.multipliers(width) {
                    builder = builder.multiplier(e.spec.clone(), e.model);
                }
            }
            builder
                .adder(
                    OperatorSpec::new("PB3", BitWidth::W8, 3.5, 0.011, 0.26),
                    AdderModel::new(AdderKind::PassB { approx_bits: 3 }, BitWidth::W8),
                )
                .adder(
                    OperatorSpec::new("PB6", BitWidth::W16, 0.1, 0.04, 0.8),
                    AdderModel::new(AdderKind::PassB { approx_bits: 6 }, BitWidth::W16),
                )
                .multiplier(
                    OperatorSpec::new("PO2F", BitWidth::W8, 30.0, 0.003, 0.1),
                    MulModel::new(MulKind::Po2(Po2Mode::Floor), BitWidth::W8),
                )
                .multiplier(
                    OperatorSpec::new("PO2F", BitWidth::W32, 30.0, 0.4, 1.6),
                    MulModel::new(MulKind::Po2(Po2Mode::Floor), BitWidth::W32),
                )
                .build()
        }
    }
}

const N_LIBRARIES: usize = 3;

/// Runs `configs` one design at a time through both engines: a compiled
/// program per design, each taking its opcode vector from the skeleton's
/// shared table of class-mask specialisations (as the exact backend's
/// `Evaluator` does), and the interpreter. Returns the compiled and the
/// interpreted outcomes, in `configs` order.
fn run_on_both_engines(
    prepared: &PreparedWorkload,
    lib: &OperatorLibrary,
    configs: &[(AdderId, MulId, u64)],
) -> (Vec<ExecOutcome>, Vec<ExecOutcome>) {
    let program = &prepared.program;
    let image = prepared.executor().unwrap().initial_memory().unwrap();
    let skeleton = Arc::new(CompiledSkeleton::new(program));
    let mut scratch = ExecScratch::new();
    let (mut fast, mut reference) = (Vec::new(), Vec::new());
    for &(adder, mul, bits) in configs {
        let binding = Binding::new(lib, program, adder, mul).unwrap();
        let engine = skeleton.compile(&binding, bits);
        fast.push(engine.run(&image, &mut scratch).unwrap());
        let mask = VarMask::with_bits(program, bits);
        reference.push(prepared.run(&binding, &mask).unwrap());
    }
    (fast, reference)
}

#[test]
fn compiled_engine_matches_interpreter_on_every_workload() {
    for lib_ix in 0..N_LIBRARIES {
        let lib = library_for(lib_ix);
        for ix in 0..N_WORKLOADS {
            let wl = workload_for(ix);
            let prepared = wl.prepare(7).unwrap();
            let n_vars = VarMask::none(&prepared.program).len();
            let full = (1u64 << n_vars.min(63)) - 1;
            let n_add = lib.adders(prepared.program.add_width()).len();
            let n_mul = lib.multipliers(prepared.program.mul_width()).len();
            let bit_patterns = [0, 1 & full, full / 2 + 1, full];

            // Mask-major order: long runs of equal selection bits, so most
            // designs reuse the opcode vector the design before fetched.
            let mut mask_major = Vec::new();
            for bits in bit_patterns {
                for a in 0..n_add {
                    for m in 0..n_mul {
                        mask_major.push((AdderId(a), MulId(m), bits));
                    }
                }
            }
            // Operator-major order: selection bits alternate, so every
            // design switches to another class's opcode vector.
            let mut op_major = Vec::new();
            for a in 0..n_add {
                for m in 0..n_mul {
                    for bits in bit_patterns {
                        op_major.push((AdderId(a), MulId(m), bits));
                    }
                }
            }
            for configs in [&mask_major, &op_major] {
                let (compiled, interpreted) = run_on_both_engines(&prepared, &lib, configs);
                assert_eq!(
                    compiled,
                    interpreted,
                    "workload {}, library {lib_ix}",
                    wl.name()
                );
            }
        }
    }
}

#[test]
fn backend_engines_agree_on_metrics() {
    // The same designs through `Evaluator` on both engines: per-design
    // `evaluate` and neighbourhood `evaluate_batch` must return the same
    // metrics bit for bit (they feed reward shaping, so an ULP of drift
    // would fork agent trajectories).
    let lib = Arc::new(OperatorLibrary::evoapprox());
    let wl = MatMul::new(4);
    let ctx = EvalContext::new(&wl, Arc::clone(&lib), 3).unwrap();
    let ctx_int = ctx.clone().with_engine(ExecEngine::Interpreter);
    assert_eq!(
        ctx.engine(),
        ExecEngine::Compiled,
        "compiled is the default"
    );
    let mut compiled = ctx.evaluator();
    let mut interpreted = ctx_int.evaluator();
    let dims = compiled.dims();
    let full = (1u64 << dims.n_vars.min(63)) - 1;

    let mut configs = Vec::new();
    for a in 0..dims.n_add {
        for m in 0..dims.n_mul {
            for vars in [0, full / 3, full] {
                configs.push(AxConfig {
                    adder: AdderId(a),
                    mul: MulId(m),
                    vars,
                });
            }
        }
    }
    for config in &configs {
        let c = compiled.evaluate(config).unwrap();
        let i = interpreted.evaluate(config).unwrap();
        assert_eq!(c, i, "{config}");
    }
    // Fresh evaluators, batch path: nothing answered from the per-design
    // caches above.
    let mut compiled = ctx.evaluator();
    let mut interpreted = ctx_int.evaluator();
    assert_eq!(
        compiled.evaluate_batch(&configs).unwrap(),
        interpreted.evaluate_batch(&configs).unwrap()
    );
}

#[test]
fn exact_and_interpreted_campaigns_agree() {
    // Whole-campaign determinism: a spec pinned to the interpreter
    // reference (`"exact-interpreted"`) must reproduce the compiled
    // engine's campaign exactly — a byte-identical report.
    use axdse_suite::ax_dse::campaign::{
        run_spec, BackendSpec, BenchmarkSpec, ExperimentSpec, SeedRange,
    };
    use axdse_suite::ax_dse::explore::{AgentKind, ExploreOptions};

    let run = |backend| {
        let spec = ExperimentSpec::new("engine-equivalence")
            .benchmark(BenchmarkSpec::MatMul(4))
            .benchmark(BenchmarkSpec::Dot(8))
            .agent(AgentKind::QLearning)
            .agent(AgentKind::Sarsa)
            .seeds(SeedRange::new(0, 2))
            .explore(ExploreOptions {
                max_steps: 150,
                ..Default::default()
            })
            .backend(backend);
        run_spec(&spec, Default::default())
            .unwrap()
            .to_json_string()
    };
    assert_eq!(run(BackendSpec::Exact), run(BackendSpec::ExactInterpreted));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The shared cache's execution-class key, on every workload and both
    /// engines. Without a shared cache every design really executes, so a
    /// design and its class representative are compared by running both:
    /// identical metrics, an idempotent mapping, and an empty selection
    /// mapping to the precise design.
    #[test]
    fn class_representatives_evaluate_like_their_designs(
        wl_ix in 0usize..N_WORKLOADS,
        input_seed in 0u64..4,
        raw in prop::collection::vec((0usize..16, 0usize..16, 0u64..u64::MAX), 1..12),
    ) {
        let lib = Arc::new(OperatorLibrary::evoapprox());
        let wl = workload_for(wl_ix);
        let ctx = EvalContext::new(wl.as_ref(), lib, input_seed).unwrap();
        let dims = ctx.evaluator().dims();
        for engine in [ExecEngine::Compiled, ExecEngine::Interpreter] {
            let ctx = ctx.clone().with_engine(engine);
            let mut ev = ctx.evaluator();
            for &(a, m, bits) in &raw {
                let config = AxConfig {
                    adder: AdderId(a % dims.n_add),
                    mul: MulId(m % dims.n_mul),
                    vars: bits & ((1u64 << dims.n_vars.min(63)) - 1),
                };
                let rep = ctx.class_representative(&config);
                prop_assert_eq!(ctx.class_representative(&rep), rep);
                prop_assert_eq!(
                    ev.evaluate(&config).unwrap(),
                    ev.evaluate(&rep).unwrap(),
                    "{} vs its representative {} on {}", config, rep, wl.name()
                );
                let empty = AxConfig { vars: 0, ..config };
                prop_assert_eq!(ctx.class_representative(&empty), AxConfig::precise());
            }
        }
    }

    /// Arbitrary design sequences run design by design through both
    /// engines are byte-identical on every workload and every library —
    /// outputs and arithmetic profiles both.
    #[test]
    fn compiled_designs_match_interpreter(
        wl_ix in 0usize..N_WORKLOADS,
        lib_ix in 0usize..N_LIBRARIES,
        input_seed in 0u64..4,
        raw in prop::collection::vec((0usize..16, 0usize..16, 0u64..u64::MAX), 1..12),
    ) {
        let lib = library_for(lib_ix);
        let wl = workload_for(wl_ix);
        let prepared = wl.prepare(input_seed).unwrap();
        let n_vars = VarMask::none(&prepared.program).len();
        let n_add = lib.adders(prepared.program.add_width()).len();
        let n_mul = lib.multipliers(prepared.program.mul_width()).len();
        let configs: Vec<_> = raw
            .iter()
            .map(|&(a, m, bits)| {
                (
                    AdderId(a % n_add),
                    MulId(m % n_mul),
                    bits & ((1u64 << n_vars.min(63)) - 1),
                )
            })
            .collect();
        let (compiled, interpreted) = run_on_both_engines(&prepared, &lib, &configs);
        prop_assert_eq!(compiled, interpreted, "workload {}, library {}", wl.name(), lib_ix);
    }
}
