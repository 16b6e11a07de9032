//! The instrumented interpreter.
//!
//! [`Executor`] runs a [`Program`] under an operator [`Binding`]: every
//! addition or multiplication flagged by the variable selection executes on
//! the binding's approximate models and is charged their power/time; every
//! other arithmetic instruction executes on the width class's precise
//! operator and is charged the precise constants. The paper's Δpower/Δtime
//! then fall out as differences between two [`ExecOutcome`] profiles.

use crate::cost::{ArithProfile, CostMeter, OpCost};
use crate::error::VmError;
use crate::instrument::{instruction_flags_into, VarMask};
use crate::ir::{Instr, Program, VarRole};
use ax_operators::signed::mul_signed;
use ax_operators::{AdderEntry, AdderId, BitWidth, MulEntry, MulId, OperatorLibrary};

/// The operator pair a configuration binds to a program, plus the precise
/// reference operators of the same width classes.
///
/// The per-operation cost constants of all four operators are captured into
/// `[precise, approximate]` pairs at construction, so neither execution
/// engine touches an operator spec on its hot path.
#[derive(Debug, Clone)]
pub struct Binding<'lib> {
    adder: &'lib AdderEntry,
    mul: &'lib MulEntry,
    precise_adder: &'lib AdderEntry,
    precise_mul: &'lib MulEntry,
    add_costs: [OpCost; 2],
    mul_costs: [OpCost; 2],
}

fn cost_of(spec: &ax_operators::OperatorSpec) -> OpCost {
    OpCost {
        power_mw: spec.power_mw(),
        time_ns: spec.time_ns(),
    }
}

impl<'lib> Binding<'lib> {
    /// Binds the `adder`-th adder and `mul`-th multiplier of the library's
    /// width classes matching the program.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::UnsupportedWidth`] if the library carries no
    /// operators at the program's widths.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range for its (non-empty) width class.
    pub fn new(
        lib: &'lib OperatorLibrary,
        program: &Program,
        adder: AdderId,
        mul: MulId,
    ) -> Result<Self, VmError> {
        let (add_width, mul_width) = (program.add_width(), program.mul_width());
        let adders = lib.adders(add_width);
        if adders.is_empty() {
            return Err(VmError::UnsupportedWidth {
                what: "adder",
                width_bits: add_width.bits(),
            });
        }
        let muls = lib.multipliers(mul_width);
        if muls.is_empty() {
            return Err(VmError::UnsupportedWidth {
                what: "multiplier",
                width_bits: mul_width.bits(),
            });
        }
        let (adder, mul) = (&adders[adder.0], &muls[mul.0]);
        let (precise_adder, precise_mul) = (&adders[0], &muls[0]);
        Ok(Self {
            adder,
            mul,
            precise_adder,
            precise_mul,
            add_costs: [cost_of(&precise_adder.spec), cost_of(&adder.spec)],
            mul_costs: [cost_of(&precise_mul.spec), cost_of(&mul.spec)],
        })
    }

    /// Binds the precise operators of both width classes (the reference
    /// execution).
    ///
    /// # Errors
    ///
    /// Returns [`VmError::UnsupportedWidth`] if the library carries no
    /// operators at the program's widths.
    pub fn precise(lib: &'lib OperatorLibrary, program: &Program) -> Result<Self, VmError> {
        Self::new(lib, program, AdderId(0), MulId(0))
    }

    /// The bound approximate adder entry.
    pub fn adder(&self) -> &'lib AdderEntry {
        self.adder
    }

    /// The bound approximate multiplier entry.
    pub fn mul(&self) -> &'lib MulEntry {
        self.mul
    }

    /// The `[precise, approximate]` per-addition cost pair, captured once
    /// at construction.
    pub fn add_costs(&self) -> &[OpCost; 2] {
        &self.add_costs
    }

    /// The `[precise, approximate]` per-multiplication cost pair, captured
    /// once at construction.
    pub fn mul_costs(&self) -> &[OpCost; 2] {
        &self.mul_costs
    }
}

/// Result of one program execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome {
    /// Output variable contents, concatenated in declaration order.
    pub outputs: Vec<i64>,
    /// Arithmetic activity and accumulated power/time.
    pub profile: ArithProfile,
}

/// Reusable execution buffers.
///
/// Evaluating thousands of designs against the same program (a DSE sweep)
/// would pay a memory-image and instruction-flag allocation per design if
/// each run allocated afresh. The sweep hot path — [`Executor::initial_memory`]
/// once, then [`run_from_image`] per design — clears and refills one scratch
/// instead, so the buffers are allocated once per thread and amortised
/// across the sweep. [`Executor`] owns one internally for the same reason.
#[derive(Debug, Clone, Default)]
pub struct ExecScratch {
    pub(crate) mem: Vec<i64>,
    flags: Vec<bool>,
}

impl ExecScratch {
    /// Empty buffers; they grow to the program's size on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Prepares inputs for and runs a program.
#[derive(Debug, Clone)]
pub struct Executor<'p> {
    program: &'p Program,
    inputs: Vec<Option<Vec<i64>>>,
    /// Reused across [`Executor::run`] calls: repeated runs of one executor
    /// (tests, reference sweeps) pay the buffer allocation once.
    scratch: ExecScratch,
}

impl<'p> Executor<'p> {
    /// An executor with no inputs bound yet.
    pub fn new(program: &'p Program) -> Self {
        Self {
            program,
            inputs: vec![None; program.vars().len()],
            scratch: ExecScratch::new(),
        }
    }

    /// Binds input data to the named input variable.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::UnknownVariable`] for an unknown name and
    /// [`VmError::InputLengthMismatch`] if the data length differs from the
    /// declaration.
    pub fn with_input(mut self, name: &str, values: &[i64]) -> Result<Self, VmError> {
        let id = self
            .program
            .var_by_name(name)
            .ok_or_else(|| VmError::UnknownVariable {
                name: name.to_owned(),
            })?;
        let decl = self.program.var(id);
        if decl.len() as usize != values.len() {
            return Err(VmError::InputLengthMismatch {
                name: name.to_owned(),
                expected: decl.len(),
                got: values.len(),
            });
        }
        self.inputs[id.index()] = Some(values.to_vec());
        Ok(self)
    }

    /// Executes the program under `binding` with the variables in `mask`
    /// approximated.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::MissingInput`] if an input variable has no data
    /// bound, or [`VmError::OperandOverflow`] if a multiplication operand's
    /// magnitude exceeds the multiplier width.
    pub fn run(&mut self, binding: &Binding<'_>, mask: &VarMask) -> Result<ExecOutcome, VmError> {
        let image = self.initial_memory()?;
        run_from_image(self.program, &image, binding, mask, &mut self.scratch)
    }

    /// Resolves and validates the initial memory image once: inputs bound
    /// at their offsets, everything else zeroed. Evaluation engines compute
    /// this per benchmark and replay it through [`run_from_image`] for each
    /// design, instead of re-binding (and re-cloning) inputs per run.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::MissingInput`] if an input variable has no data
    /// bound.
    pub fn initial_memory(&self) -> Result<Vec<i64>, VmError> {
        let program = self.program;
        let mut mem = vec![0i64; program.total_cells() as usize];
        for (idx, decl) in program.vars().iter().enumerate() {
            match (&self.inputs[idx], decl.role()) {
                (Some(values), _) => {
                    let base = program.offset(crate::ir::VarId(idx as u32).at(0));
                    mem[base..base + values.len()].copy_from_slice(values);
                }
                (None, VarRole::Input) => {
                    return Err(VmError::MissingInput {
                        name: decl.name().to_owned(),
                    });
                }
                _ => {}
            }
        }
        Ok(mem)
    }
}

/// Executes `program` from a precomputed initial memory image (see
/// [`Executor::initial_memory`]): one memcpy into the scratch buffers, then
/// the interpreter loop — no input re-binding per design.
///
/// # Errors
///
/// Returns [`VmError::OperandOverflow`] if a multiplication operand's
/// magnitude exceeds the multiplier width.
///
/// # Panics
///
/// Panics if `image` does not match the program's cell count.
pub fn run_from_image(
    program: &Program,
    image: &[i64],
    binding: &Binding<'_>,
    mask: &VarMask,
    scratch: &mut ExecScratch,
) -> Result<ExecOutcome, VmError> {
    assert_eq!(
        image.len(),
        program.total_cells() as usize,
        "memory image size does not match the program"
    );
    instruction_flags_into(program, mask, &mut scratch.flags);
    {
        let mem = &mut scratch.mem;
        mem.clear();
        mem.extend_from_slice(image);

        let flags = &scratch.flags;
        let mut meter = CostMeter::new();
        let add_width = program.add_width();
        let mul_width = program.mul_width();

        for (pc, instr) in program.instrs().iter().enumerate() {
            match *instr {
                Instr::Const { dst, value } => {
                    mem[program.offset(dst)] = value;
                }
                Instr::Copy { dst, src } => {
                    mem[program.offset(dst)] = mem[program.offset(src)];
                }
                Instr::Add { dst, a, b } => {
                    let approx = flags[pc];
                    let model = if approx {
                        &binding.adder.model
                    } else {
                        &binding.precise_adder.model
                    };
                    let x = mem[program.offset(a)];
                    let y = mem[program.offset(b)];
                    mem[program.offset(dst)] = sliced_add(model, x, y, add_width);
                    meter.record_add(approx);
                }
                Instr::Mul { dst, a, b, shift } => {
                    let approx = flags[pc];
                    let model = if approx {
                        &binding.mul.model
                    } else {
                        &binding.precise_mul.model
                    };
                    let x = mem[program.offset(a)];
                    let y = mem[program.offset(b)];
                    for v in [x, y] {
                        if v.unsigned_abs() > mul_width.mask() {
                            return Err(VmError::OperandOverflow {
                                pc,
                                value: v,
                                width_bits: mul_width.bits(),
                            });
                        }
                    }
                    let p = mul_signed(model, x, y);
                    mem[program.offset(dst)] = p >> shift;
                    meter.record_mul(approx);
                }
            }
        }

        let mut outputs = Vec::new();
        for id in program.output_vars() {
            let base = program.offset(id.at(0));
            let len = program.var(id).len() as usize;
            outputs.extend_from_slice(&mem[base..base + len]);
        }
        Ok(ExecOutcome {
            outputs,
            profile: meter.finish(binding.add_costs(), binding.mul_costs()),
        })
    }
}

/// Adds two `i64` registers with the low `width` bits computed by the adder
/// slice and the upper bits added exactly with the slice's carry-out — the
/// "approximate low-part ALU" embedding (see the crate docs).
pub(crate) fn sliced_add(model: &ax_operators::AdderModel, a: i64, b: i64, width: BitWidth) -> i64 {
    let bits = width.bits();
    let mask = width.mask();
    let low = model.add((a as u64) & mask, (b as u64) & mask);
    let carry = (low >> bits) as i64;
    let high = (a >> bits).wrapping_add(b >> bits).wrapping_add(carry);
    (high << bits) | (low & mask) as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ProgramBuilder;
    use ax_operators::{AdderKind, AdderModel};

    fn lib() -> OperatorLibrary {
        OperatorLibrary::evoapprox()
    }

    /// dot product of two length-3 vectors on 8-bit operators.
    fn dot3() -> Program {
        let mut pb = ProgramBuilder::new("dot3", BitWidth::W8, BitWidth::W8);
        let x = pb.input("x", 3);
        let y = pb.input("y", 3);
        let p = pb.temp("p", 1);
        let acc = pb.output("acc", 1);
        pb.konst(acc.at(0), 0);
        for i in 0..3 {
            pb.mul(p.at(0), x.at(i), y.at(i), 0);
            pb.add(acc.at(0), acc.at(0), p.at(0));
        }
        pb.build().unwrap()
    }

    #[test]
    fn precise_run_matches_native_dot_product() {
        let prog = dot3();
        let lib = lib();
        let binding = Binding::precise(&lib, &prog).unwrap();
        let out = Executor::new(&prog)
            .with_input("x", &[3, 5, 7])
            .unwrap()
            .with_input("y", &[11, 13, 2])
            .unwrap()
            .run(&binding, &VarMask::none(&prog))
            .unwrap();
        assert_eq!(out.outputs, vec![3 * 11 + 5 * 13 + 7 * 2]);
        assert_eq!(out.profile.adds_total, 3);
        assert_eq!(out.profile.muls_total, 3);
        assert_eq!(out.profile.adds_approx, 0);
        assert_eq!(out.profile.muls_approx, 0);
    }

    #[test]
    fn precise_costs_match_spec_sums() {
        let prog = dot3();
        let lib = lib();
        let binding = Binding::precise(&lib, &prog).unwrap();
        let out = Executor::new(&prog)
            .with_input("x", &[1, 1, 1])
            .unwrap()
            .with_input("y", &[1, 1, 1])
            .unwrap()
            .run(&binding, &VarMask::none(&prog))
            .unwrap();
        let a = &lib.adders(BitWidth::W8)[0].spec;
        let m = &lib.multipliers(BitWidth::W8)[0].spec;
        let expect_power = 3.0 * a.power_mw() + 3.0 * m.power_mw();
        let expect_time = 3.0 * a.time_ns() + 3.0 * m.time_ns();
        assert!((out.profile.power_mw - expect_power).abs() < 1e-12);
        assert!((out.profile.time_ns - expect_time).abs() < 1e-12);
    }

    #[test]
    fn approximating_all_variables_changes_cost_not_counts() {
        let prog = dot3();
        let lib = lib();
        // Most aggressive operators: adder 02Y (idx 5), multiplier 17MJ (idx 5).
        let binding = Binding::new(&lib, &prog, AdderId(5), MulId(5)).unwrap();
        let out = Executor::new(&prog)
            .with_input("x", &[100, 101, 102])
            .unwrap()
            .with_input("y", &[55, 66, 77])
            .unwrap()
            .run(&binding, &VarMask::all(&prog))
            .unwrap();
        assert_eq!(out.profile.adds_total, 3);
        assert_eq!(out.profile.adds_approx, 3);
        assert_eq!(out.profile.muls_approx, 3);
        let a = &lib.adders(BitWidth::W8)[5].spec;
        let m = &lib.multipliers(BitWidth::W8)[5].spec;
        assert!((out.profile.power_mw - 3.0 * (a.power_mw() + m.power_mw())).abs() < 1e-12);
        // The cheap operators degrade accuracy: the dot product of values
        // around 100·60 cannot survive a po2-floor multiplier unchanged.
        assert_ne!(out.outputs, vec![100 * 55 + 101 * 66 + 102 * 77]);
    }

    #[test]
    fn partial_selection_splits_costs() {
        let prog = dot3();
        let lib = lib();
        let binding = Binding::new(&lib, &prog, AdderId(4), MulId(4)).unwrap();
        // Select only the accumulator: adds touch it, muls do not.
        let acc_pos = {
            let vars = prog.approximable_vars();
            vars.iter()
                .position(|&v| prog.var(v).name() == "acc")
                .unwrap() as u32
        };
        let mut mask = VarMask::none(&prog);
        mask.set(acc_pos, true);
        let out = Executor::new(&prog)
            .with_input("x", &[1, 2, 3])
            .unwrap()
            .with_input("y", &[4, 5, 6])
            .unwrap()
            .run(&binding, &mask)
            .unwrap();
        assert_eq!(out.profile.adds_approx, 3);
        assert_eq!(out.profile.muls_approx, 0);
    }

    #[test]
    fn missing_input_is_reported() {
        let prog = dot3();
        let lib = lib();
        let binding = Binding::precise(&lib, &prog).unwrap();
        let err = Executor::new(&prog)
            .with_input("x", &[1, 2, 3])
            .unwrap()
            .run(&binding, &VarMask::none(&prog))
            .unwrap_err();
        assert_eq!(err, VmError::MissingInput { name: "y".into() });
    }

    #[test]
    fn input_length_mismatch_is_reported() {
        let prog = dot3();
        let err = Executor::new(&prog).with_input("x", &[1, 2]).unwrap_err();
        assert!(matches!(
            err,
            VmError::InputLengthMismatch {
                expected: 3,
                got: 2,
                ..
            }
        ));
    }

    #[test]
    fn unknown_input_is_reported() {
        let prog = dot3();
        let err = Executor::new(&prog).with_input("zz", &[1]).unwrap_err();
        assert!(matches!(err, VmError::UnknownVariable { .. }));
    }

    #[test]
    fn mul_operand_overflow_is_reported() {
        let prog = dot3();
        let lib = lib();
        let binding = Binding::precise(&lib, &prog).unwrap();
        let err = Executor::new(&prog)
            .with_input("x", &[300, 0, 0]) // exceeds 8-bit magnitude
            .unwrap()
            .with_input("y", &[1, 0, 0])
            .unwrap()
            .run(&binding, &VarMask::none(&prog))
            .unwrap_err();
        assert!(matches!(
            err,
            VmError::OperandOverflow { width_bits: 8, .. }
        ));
    }

    #[test]
    fn sliced_add_is_exact_with_precise_slice() {
        let m = AdderModel::precise(BitWidth::W8);
        for (a, b) in [
            (0i64, 0i64),
            (255, 1),
            (1000, 2000),
            (-1, 1),
            (-1000, 999),
            (-128, -128),
            (i32::MAX as i64, 1),
            (i32::MIN as i64, -1),
        ] {
            assert_eq!(sliced_add(&m, a, b, BitWidth::W8), a + b, "({a},{b})");
        }
    }

    #[test]
    fn sliced_add_error_confined_to_low_bits() {
        let approx = AdderModel::new(AdderKind::Trunc { cut_bits: 4 }, BitWidth::W8);
        for (a, b) in [(1000i64, 2000i64), (-500, 1234), (7, 9), (-8, -9)] {
            let got = sliced_add(&approx, a, b, BitWidth::W8);
            // Error bound: dropped low sum plus one carry = < 2^(4+1) + 2^8.
            assert!((got - (a + b)).abs() < 512, "({a},{b}) -> {got}");
        }
    }

    #[test]
    fn unsupported_width_is_reported() {
        // A program adding at 32 bits: the library has no 32-bit adders.
        let mut pb = ProgramBuilder::new("w32add", BitWidth::W32, BitWidth::W32);
        let a = pb.input("a", 1);
        let y = pb.output("y", 1);
        pb.add(y.at(0), a.at(0), a.at(0));
        let prog = pb.build().unwrap();
        let lib = lib();
        let err = Binding::precise(&lib, &prog).unwrap_err();
        assert_eq!(
            err,
            VmError::UnsupportedWidth {
                what: "adder",
                width_bits: 32
            }
        );
    }

    #[test]
    fn fixed_point_shift_rescales_product() {
        let mut pb = ProgramBuilder::new("q4", BitWidth::W8, BitWidth::W8);
        let a = pb.input("a", 1);
        let b = pb.input("b", 1);
        let y = pb.output("y", 1);
        pb.mul(y.at(0), a.at(0), b.at(0), 4); // Q4 fixed point
        let prog = pb.build().unwrap();
        let lib = lib();
        let binding = Binding::precise(&lib, &prog).unwrap();
        let out = Executor::new(&prog)
            .with_input("a", &[32]) // 2.0 in Q4
            .unwrap()
            .with_input("b", &[24]) // 1.5 in Q4
            .unwrap()
            .run(&binding, &VarMask::none(&prog))
            .unwrap();
        assert_eq!(out.outputs, vec![48]); // 3.0 in Q4
    }

    #[test]
    fn temps_are_zero_initialised_between_runs() {
        let mut pb = ProgramBuilder::new("t0", BitWidth::W8, BitWidth::W8);
        let t = pb.temp("t", 1);
        let y = pb.output("y", 1);
        pb.copy(y.at(0), t.at(0));
        let prog = pb.build().unwrap();
        let lib = lib();
        let binding = Binding::precise(&lib, &prog).unwrap();
        let mut ex = Executor::new(&prog);
        for _ in 0..2 {
            let out = ex.run(&binding, &VarMask::none(&prog)).unwrap();
            assert_eq!(out.outputs, vec![0]);
        }
    }
}
