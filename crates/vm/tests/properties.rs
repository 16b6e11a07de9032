//! Property-based tests over randomly generated straight-line programs.
//!
//! A reference interpreter over plain `i64` arithmetic serves as the oracle
//! for precise execution; approximate execution is checked against
//! structural invariants (cost accounting, error confinement), and the
//! compiled engine against the interpreter on chain-shaped programs.

use ax_operators::{
    AdderId, AdderKind, AdderModel, BitWidth, MulId, OperatorLibrary, OperatorSpec,
};
use ax_vm::exec::{run_from_image, Binding, ExecScratch, Executor};
use ax_vm::instrument::{instruction_flags, VarMask};
use ax_vm::ir::{Instr, Program, ProgramBuilder, Slot, VarId};
use ax_vm::CompiledSkeleton;
use proptest::prelude::*;
use std::sync::Arc;

/// A randomly generated program description: variable lengths plus an
/// instruction recipe over them.
#[derive(Debug, Clone)]
struct ProgramSpec {
    input_len: u32,
    temp_len: u32,
    output_len: u32,
    /// (kind, dst, a, b) with indices resolved modulo the variable lengths.
    ops: Vec<(u8, u32, u32, u32)>,
    inputs: Vec<i64>,
}

fn arb_spec() -> impl Strategy<Value = ProgramSpec> {
    (1u32..5, 1u32..4, 1u32..5)
        .prop_flat_map(|(input_len, temp_len, output_len)| {
            let ops = prop::collection::vec((0u8..4, 0u32..16, 0u32..16, 0u32..16), 1..24);
            let inputs = prop::collection::vec(0i64..16, input_len as usize);
            (Just((input_len, temp_len, output_len)), ops, inputs)
        })
        .prop_map(
            |((input_len, temp_len, output_len), ops, inputs)| ProgramSpec {
                input_len,
                temp_len,
                output_len,
                ops,
                inputs,
            },
        )
}

/// Builds the program plus a parallel "oracle recipe" of resolved slots.
fn build(spec: &ProgramSpec) -> Program {
    let mut pb = ProgramBuilder::new("random", BitWidth::W8, BitWidth::W8);
    let x = pb.input("x", spec.input_len);
    let t = pb.temp("t", spec.temp_len);
    let y = pb.output("y", spec.output_len);
    for &(kind, d, a, b) in &spec.ops {
        let dst = resolve_writable(spec, t, y, d);
        let sa = resolve_any(spec, x, t, y, a);
        let sb = resolve_any(spec, x, t, y, b);
        match kind {
            0 => {
                pb.konst(dst, (a % 16) as i64);
            }
            1 => {
                pb.copy(dst, sa);
            }
            2 => {
                pb.add(dst, sa, sb);
            }
            _ => {
                pb.mul(dst, sa, sb, 0);
            }
        }
    }
    pb.build().expect("generated program is structurally valid")
}

fn resolve_writable(spec: &ProgramSpec, t: VarId, y: VarId, idx: u32) -> Slot {
    let total = spec.temp_len + spec.output_len;
    let i = idx % total;
    if i < spec.temp_len {
        t.at(i)
    } else {
        y.at(i - spec.temp_len)
    }
}

fn resolve_any(spec: &ProgramSpec, x: VarId, t: VarId, y: VarId, idx: u32) -> Slot {
    let total = spec.input_len + spec.temp_len + spec.output_len;
    let i = idx % total;
    if i < spec.input_len {
        x.at(i)
    } else if i < spec.input_len + spec.temp_len {
        t.at(i - spec.input_len)
    } else {
        y.at(i - spec.input_len - spec.temp_len)
    }
}

/// Plain-i64 oracle for the precise semantics. Mul operands are checked the
/// same way the interpreter does; programs whose values outgrow the 8-bit
/// multiplier are discarded by the caller.
fn oracle(program: &Program, inputs: &[i64]) -> Option<Vec<i64>> {
    let mut mem = vec![0i64; program.total_cells() as usize];
    let x = program.var_by_name("x").unwrap();
    let base = program.offset_of(x);
    mem[base..base + inputs.len()].copy_from_slice(inputs);
    for instr in program.instrs() {
        match *instr {
            Instr::Const { dst, value } => mem[program.offset_of_slot(dst)] = value,
            Instr::Copy { dst, src } => {
                mem[program.offset_of_slot(dst)] = mem[program.offset_of_slot(src)]
            }
            Instr::Add { dst, a, b } => {
                mem[program.offset_of_slot(dst)] =
                    mem[program.offset_of_slot(a)] + mem[program.offset_of_slot(b)]
            }
            Instr::Mul { dst, a, b, shift } => {
                let (va, vb) = (
                    mem[program.offset_of_slot(a)],
                    mem[program.offset_of_slot(b)],
                );
                if va.unsigned_abs() > 255 || vb.unsigned_abs() > 255 {
                    return None;
                }
                mem[program.offset_of_slot(dst)] = (va * vb) >> shift;
            }
        }
    }
    let y = program.var_by_name("y").unwrap();
    let base = program.offset_of(y);
    let len = program.var(y).len() as usize;
    Some(mem[base..base + len].to_vec())
}

/// Test-only helpers mirroring the crate-private offset computation.
trait OffsetExt {
    fn offset_of(&self, var: VarId) -> usize;
    fn offset_of_slot(&self, slot: Slot) -> usize;
}

impl OffsetExt for Program {
    fn offset_of(&self, var: VarId) -> usize {
        let mut off = 0usize;
        for (i, decl) in self.vars().iter().enumerate() {
            if i == var.index() {
                return off;
            }
            off += decl.len() as usize;
        }
        unreachable!("variable out of range")
    }

    fn offset_of_slot(&self, slot: Slot) -> usize {
        self.offset_of(slot.var) + slot.idx as usize
    }
}

/// One segment of a multiply-accumulate-shaped program: `kind` 0 is a
/// constant and 1 a copy between the chains; otherwise a run of
/// `operands.len()` pairs `p ← (a·b) >> shift; o ← p + o` (or `o + p` if
/// `acc_first` is odd), with `alias` 0 reading `o` as the middle link's
/// `a` and `alias` 1 making `p` and `o` one cell.
#[derive(Debug, Clone)]
struct Segment {
    kind: u8,
    acc_first: u8,
    alias: u8,
    shift: u32,
    p: u32,
    o: u32,
    operands: Vec<(u32, u32)>,
}

/// A chain-shaped program: its segments, then the inputs `x` and `w`.
#[derive(Debug, Clone)]
struct ChainProgramSpec {
    segments: Vec<Segment>,
    x: Vec<i64>,
    w: Vec<i64>,
}

fn arb_segment() -> impl Strategy<Value = Segment> {
    (
        0u8..6,
        0u8..2,
        0u8..6,
        0u32..3,
        0u32..2,
        0u32..4,
        prop::collection::vec((0u32..8, 0u32..8), 1..7),
    )
        .prop_map(|(kind, acc_first, alias, shift, p, o, operands)| Segment {
            kind,
            acc_first,
            alias,
            shift,
            p,
            o,
            operands,
        })
}

fn arb_chain_program() -> impl Strategy<Value = ChainProgramSpec> {
    (
        prop::collection::vec(arb_segment(), 1..6),
        prop::collection::vec(-40i64..40, 4),
        prop::collection::vec(-40i64..40, 4),
    )
        .prop_map(|(segments, x, w)| ChainProgramSpec { segments, x, w })
}

/// Builds a chain-shaped program over inputs `x`, `w` (4 cells each) and
/// outputs `t` (2 cells, which hold the products) and `y` (2 cells): every
/// cell a chain writes is an output, so a product or sum stored wrong
/// shows.
fn build_chains(spec: &ChainProgramSpec) -> Program {
    let mut pb = ProgramBuilder::new("chains", BitWidth::W8, BitWidth::W8);
    let x = pb.input("x", 4);
    let w = pb.input("w", 4);
    let t = pb.output("t", 2);
    let y = pb.output("y", 2);
    let input = |i: u32| if i < 4 { x.at(i) } else { w.at(i - 4) };
    // `o` ranges over t[1], y[0], y[1] and t[0]; `p` over t[0], t[1].
    let cell = |i: u32| match i % 4 {
        0 => t.at(1),
        1 => y.at(0),
        2 => y.at(1),
        _ => t.at(0),
    };
    for seg in &spec.segments {
        let p = t.at(seg.p);
        let o = if seg.alias == 1 { p } else { cell(seg.o) };
        match seg.kind {
            0 => {
                pb.konst(o, i64::from(seg.shift) - 1);
            }
            1 => {
                pb.copy(o, input(seg.o));
            }
            _ => {
                let middle = seg.operands.len() / 2;
                for (k, &(a, b)) in seg.operands.iter().enumerate() {
                    let a = if seg.alias == 0 && k == middle {
                        o
                    } else {
                        input(a)
                    };
                    pb.mul(p, a, input(b), seg.shift);
                    if seg.acc_first % 2 == 1 {
                        pb.add(o, o, p);
                    } else {
                        pb.add(o, p, o);
                    }
                }
            }
        }
    }
    pb.build().expect("generated program is structurally valid")
}

/// `evoapprox` at 8 bits plus a `PassB` adder (index 6), which copies its
/// second operand's low bits: the one adder here for which the order of a
/// chain's add operands matters.
fn lib_with_pass_b() -> OperatorLibrary {
    let base = OperatorLibrary::evoapprox();
    let mut builder = OperatorLibrary::builder();
    for e in base.adders(BitWidth::W8) {
        builder = builder.adder(e.spec.clone(), e.model);
    }
    for e in base.multipliers(BitWidth::W8) {
        builder = builder.multiplier(e.spec.clone(), e.model);
    }
    builder
        .adder(
            OperatorSpec::new("PB3", BitWidth::W8, 1.0, 0.01, 0.2),
            AdderModel::new(AdderKind::PassB { approx_bits: 3 }, BitWidth::W8),
        )
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The compiled engine fuses multiply-accumulate chains; under every
    /// selection it must still return the interpreter's outcome — outputs
    /// and profile, or the same error.
    #[test]
    fn chain_shaped_programs_compile_to_the_interpreters_outcome(
        spec in arb_chain_program(),
        adder in 0usize..7,
        mul in 0usize..6,
    ) {
        let program = build_chains(&spec);
        let lib = lib_with_pass_b();
        let binding = Binding::new(&lib, &program, AdderId(adder), MulId(mul)).unwrap();
        let image = Executor::new(&program)
            .with_input("x", &spec.x)
            .and_then(|e| e.with_input("w", &spec.w))
            .and_then(|e| e.initial_memory())
            .unwrap();
        let skeleton = Arc::new(CompiledSkeleton::new(&program));
        let (mut scratch, mut compiled_scratch) = (ExecScratch::new(), ExecScratch::new());
        let mut mask = VarMask::none(&program);
        for bits in 0..(1u64 << mask.len()) {
            mask.set_raw_bits(bits);
            let reference = run_from_image(&program, &image, &binding, &mask, &mut scratch);
            let got = skeleton.compile(&binding, bits).run(&image, &mut compiled_scratch);
            prop_assert_eq!(got, reference);
        }
    }

    /// Precise execution of any generated program matches the i64 oracle.
    #[test]
    fn precise_execution_matches_oracle(spec in arb_spec()) {
        let program = build(&spec);
        let Some(expect) = oracle(&program, &spec.inputs) else {
            return Ok(()); // values outgrew the multiplier width
        };
        let lib = OperatorLibrary::evoapprox();
        let binding = Binding::precise(&lib, &program).unwrap();
        let out = Executor::new(&program)
            .with_input("x", &spec.inputs)
            .unwrap()
            .run(&binding, &VarMask::none(&program));
        // The interpreter may reject the same overflow the oracle allowed
        // through intermediate wrap differences; both must agree when Ok.
        if let Ok(out) = out {
            prop_assert_eq!(out.outputs, expect);
        }
    }

    /// Cost accounting counts exactly the arithmetic instructions, with the
    /// approximate share matching the instrumentation flags.
    #[test]
    fn cost_counts_match_flags(spec in arb_spec(), mask_bits in 0u64..8) {
        let program = build(&spec);
        let lib = OperatorLibrary::evoapprox();
        let mask_bits = mask_bits % (1 << VarMask::none(&program).len().min(6));
        let mask = VarMask::with_bits(&program, mask_bits);
        let flags = instruction_flags(&program, &mask);
        let binding = Binding::new(&lib, &program, AdderId(3), MulId(3)).unwrap();
        let run = Executor::new(&program)
            .with_input("x", &spec.inputs)
            .unwrap()
            .run(&binding, &mask);
        let Ok(out) = run else { return Ok(()); };

        let stats = program.stats();
        prop_assert_eq!(out.profile.adds_total + out.profile.muls_total,
            (stats.adds + stats.muls) as u64);
        let flagged: u64 = program
            .instrs()
            .iter()
            .zip(&flags)
            .filter(|(i, &f)| i.is_arith() && f)
            .count() as u64;
        prop_assert_eq!(out.profile.adds_approx + out.profile.muls_approx, flagged);
    }

    /// With no variables selected, any operator binding behaves precisely
    /// and costs exactly the precise constants.
    #[test]
    fn empty_mask_is_always_precise(spec in arb_spec(), adder in 0usize..6, mul in 0usize..6) {
        let program = build(&spec);
        let lib = OperatorLibrary::evoapprox();
        let precise = Binding::precise(&lib, &program).unwrap();
        let approx = Binding::new(&lib, &program, AdderId(adder), MulId(mul)).unwrap();
        let none = VarMask::none(&program);
        let mut ex = Executor::new(&program).with_input("x", &spec.inputs).unwrap();
        let (a, b) = (ex.run(&precise, &none), ex.run(&approx, &none));
        match (a, b) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.outputs, b.outputs);
                prop_assert!((a.profile.power_mw - b.profile.power_mw).abs() < 1e-12);
            }
            (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb),
            (a, b) => prop_assert!(false, "divergent results: {a:?} vs {b:?}"),
        }
    }
}
