//! Threaded-code design specialisation: compile the interpreter away.
//!
//! [`crate::exec::run_from_image`] pays, per instruction and per design:
//! a `flags[pc]` lookup and branch, an operator-model `match`, up to three
//! `Program::offset` double indirections, and two cost-meter updates — plus
//! a full per-design instruction-flag recomputation. A DSE sweep executes
//! the *same program* thousands of times, so all of that is loop-invariant
//! with respect to the design and can be resolved once.
//!
//! The compilation pass works in two stages:
//!
//! 1. [`CompiledSkeleton`] — built **once per program**: every operand slot
//!    is resolved to its flat `usize` memory offset, every arithmetic
//!    instruction carries the bitmask of approximable variables it touches
//!    (so the per-design approximate/precise decision is a single `AND`),
//!    and output ranges are precomputed.
//! 2. [`CompiledProgram`] — the skeleton **specialised to one
//!    `(Binding, VarMask)` design**: each instruction is rewritten into an
//!    exact or approximate opcode (no `flags[pc]` branch at run time;
//!    precise additions and multiplications compile to raw two's-complement
//!    arithmetic, bypassing the operator-model `match` entirely), and the
//!    run's [`ArithProfile`] is computed **analytically at compile time**
//!    from the static approximate/precise operation counts and the
//!    binding's precomputed [`OpCost`] pairs — the run loop is just loads,
//!    operator-model calls, and stores.
//!
//! Re-specialising is asymmetric by design: changing the variable selection
//! rewrites the opcode vector in place (one linear pass, no allocation),
//! while changing only the operator binding is O(1) — the approximate
//! models live in the [`CompiledProgram`] header, not in each opcode, so a
//! sweep iterating operators in the inner loop pays nothing per design
//! beyond the profile refresh.
//!
//! Equivalence with the interpreter is bit-exact, for outputs *and*
//! profiles: the precise opcodes are algebraically identical to the
//! interpreter's precise model path (see `exact_add`/`exact_mul` notes),
//! and both engines derive power/time through the single
//! [`ArithProfile::from_counts`] formula.

use crate::cost::{ArithCounts, ArithProfile, OpCost};
use crate::error::VmError;
#[allow(unused_imports)] // doc links
use crate::exec::sliced_add;
use crate::exec::{Binding, ExecOutcome, ExecScratch};
use crate::ir::{Instr, Program};
use ax_operators::signed::mul_signed;
use ax_operators::{AdderId, AdderModel, BitWidth, MulId, MulModel};
use std::sync::Arc;

/// One instruction with operand offsets resolved and its touched-variable
/// bitmask attached — everything about the instruction that does not depend
/// on the design.
#[derive(Debug, Clone, Copy)]
enum SkelOp {
    Const {
        dst: usize,
        value: i64,
    },
    Copy {
        dst: usize,
        src: usize,
    },
    Add {
        dst: usize,
        a: usize,
        b: usize,
        /// Bit `i` set iff the instruction touches approximable variable
        /// `i` (mask-bit order): the design's flag is `touched & bits != 0`.
        touched: u64,
    },
    Mul {
        dst: usize,
        a: usize,
        b: usize,
        shift: u32,
        /// Original instruction index, kept for overflow-error parity with
        /// the interpreter.
        pc: u32,
        touched: u64,
    },
}

/// The design-independent compiled form of one [`Program`]: offsets
/// resolved, touched-variable masks attached, output ranges precomputed.
/// Built once per program and shared (via `Arc`) by every
/// [`CompiledProgram`] specialised from it.
#[derive(Debug, Clone)]
pub struct CompiledSkeleton {
    ops: Vec<SkelOp>,
    /// `(base, len)` of each output variable, in declaration order.
    outputs: Vec<(usize, usize)>,
    total_cells: usize,
    output_cells: usize,
    add_width: BitWidth,
    mul_width: BitWidth,
    adds_total: u64,
    muls_total: u64,
    /// The distinct non-zero `touched` masks across all instructions — the
    /// program's *flag classes*. Two variable selections that intersect
    /// every class identically flag every instruction identically, which
    /// [`CompiledSkeleton::class_representative`] exploits.
    flag_classes: Vec<FlagClass>,
}

/// One flag class: the touched-variable mask its instructions share, and
/// whether any of them is an addition or a multiplication.
#[derive(Debug, Clone, Copy)]
struct FlagClass {
    touched: u64,
    adds: bool,
    muls: bool,
}

impl CompiledSkeleton {
    /// Resolves `program` into its offset-resolved skeleton.
    ///
    /// # Panics
    ///
    /// Panics if the program has more than 64 approximable variables (the
    /// same bound [`crate::instrument::VarMask`] enforces).
    pub fn new(program: &Program) -> Self {
        // Bit position of each variable in the approximable list; u64::MAX
        // shifts below never match (var not selectable -> touched bit 0).
        let approximable = program.approximable_vars();
        assert!(
            approximable.len() <= 64,
            "at most 64 approximable variables supported"
        );
        let mut var_bit = vec![0u64; program.vars().len()];
        for (i, v) in approximable.iter().enumerate() {
            var_bit[v.index()] = 1u64 << i;
        }

        let (mut adds_total, mut muls_total) = (0u64, 0u64);
        let ops: Vec<SkelOp> = program
            .instrs()
            .iter()
            .enumerate()
            .map(|(pc, instr)| match *instr {
                Instr::Const { dst, value } => SkelOp::Const {
                    dst: program.offset(dst),
                    value,
                },
                Instr::Copy { dst, src } => SkelOp::Copy {
                    dst: program.offset(dst),
                    src: program.offset(src),
                },
                Instr::Add { dst, a, b } => {
                    adds_total += 1;
                    SkelOp::Add {
                        dst: program.offset(dst),
                        a: program.offset(a),
                        b: program.offset(b),
                        touched: var_bit[dst.var.index()]
                            | var_bit[a.var.index()]
                            | var_bit[b.var.index()],
                    }
                }
                Instr::Mul { dst, a, b, shift } => {
                    muls_total += 1;
                    SkelOp::Mul {
                        dst: program.offset(dst),
                        a: program.offset(a),
                        b: program.offset(b),
                        shift,
                        pc: pc as u32,
                        touched: var_bit[dst.var.index()]
                            | var_bit[a.var.index()]
                            | var_bit[b.var.index()],
                    }
                }
            })
            .collect();

        let outputs: Vec<(usize, usize)> = program
            .output_vars()
            .into_iter()
            .map(|id| (program.offset(id.at(0)), program.var(id).len() as usize))
            .collect();
        let output_cells = outputs.iter().map(|&(_, len)| len).sum();

        let mut flag_classes: Vec<FlagClass> = Vec::new();
        for op in &ops {
            let (touched, is_add) = match *op {
                SkelOp::Add { touched, .. } => (touched, true),
                SkelOp::Mul { touched, .. } => (touched, false),
                _ => continue,
            };
            if touched == 0 {
                continue;
            }
            let i = match flag_classes.iter().position(|c| c.touched == touched) {
                Some(i) => i,
                None => {
                    flag_classes.push(FlagClass {
                        touched,
                        adds: false,
                        muls: false,
                    });
                    flag_classes.len() - 1
                }
            };
            flag_classes[i].adds |= is_add;
            flag_classes[i].muls |= !is_add;
        }

        Self {
            ops,
            outputs,
            total_cells: program.total_cells() as usize,
            output_cells,
            add_width: program.add_width(),
            mul_width: program.mul_width(),
            adds_total,
            muls_total,
            flag_classes,
        }
    }

    /// The canonical member of the design `(adder, mul, bits)`'s execution
    /// class: the selection becomes every flag-class variable minus the
    /// classes `bits` misses, and an operator axis no approximated
    /// instruction uses collapses to index 0. The representative flags
    /// exactly the instructions `bits` flags and keeps every operator an
    /// approximate instruction runs, so both engines return bit-identical
    /// outcomes for a design and its representative; the mapping is idempotent, and an empty selection
    /// maps to the precise design `(0, 0, 0)`.
    pub fn class_representative(
        &self,
        adder: AdderId,
        mul: MulId,
        bits: u64,
    ) -> (AdderId, MulId, u64) {
        let (mut all, mut missed) = (0u64, 0u64);
        let (mut adds, mut muls) = (false, false);
        for class in &self.flag_classes {
            all |= class.touched;
            if class.touched & bits == 0 {
                missed |= class.touched;
            } else {
                adds |= class.adds;
                muls |= class.muls;
            }
        }
        (
            if adds { adder } else { AdderId(0) },
            if muls { mul } else { MulId(0) },
            all & !missed,
        )
    }

    /// Specialises this skeleton to one design. See
    /// [`CompiledProgram::compile`].
    pub fn compile(self: &Arc<Self>, binding: &Binding<'_>, mask_bits: u64) -> CompiledProgram {
        CompiledProgram::compile(self, binding, mask_bits)
    }
}

/// One opcode of a specialised program: the approximate/precise choice is
/// baked into the variant, so the run loop has no flag lookup and no cost
/// accounting. Operand offsets are `u32` deliberately — a sweep streams the
/// opcode vector thousands of times, and the narrow encoding keeps whole
/// programs resident in L1 (cell counts are bounded by the program IR's
/// `u32` cell space, so the narrowing is lossless).
#[derive(Debug, Clone, Copy)]
enum CompiledOp {
    Const {
        dst: u32,
        value: i64,
    },
    Copy {
        dst: u32,
        src: u32,
    },
    /// Precise addition: raw two's-complement `wrapping_add` (bit-identical
    /// to the precise adder slice, see `exact_add`).
    AddExact {
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Approximate addition through the design's adder model.
    AddApprox {
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Precise multiplication: operand check + raw `wrapping_mul`
    /// (bit-identical to the sign-magnitude precise model, see `exact_mul`).
    MulExact {
        dst: u32,
        a: u32,
        b: u32,
        shift: u32,
        pc: u32,
    },
    /// Approximate multiplication through the design's multiplier model.
    MulApprox {
        dst: u32,
        a: u32,
        b: u32,
        shift: u32,
        pc: u32,
    },
}

/// Resolves an [`AdderModel`] to a fully inlined approximate-add closure
/// and runs `$body` with it bound to `$add` — the adder-kind `match` is
/// hoisted out of the execution loops, so each kind monomorphises its loop
/// with the kernel inlined (no per-instruction operator dispatch survives
/// to run time). The embedding is bit-identical to the interpreter's
/// [`sliced_add`]; `AdderKind::Precise` shortcuts to `wrapping_add`, which
/// the exactness notes prove equal to the precise sliced path.
macro_rules! with_add_kernel {
    ($model:expr, $w:expr, |$add:ident| $body:expr) => {{
        use ax_operators::adders as kernel;
        use ax_operators::AdderKind as K;
        let w = $w;
        match $model.kind() {
            K::Precise => {
                let $add = |x: i64, y: i64| x.wrapping_add(y);
                $body
            }
            K::Loa { approx_bits } => {
                let $add =
                    move |x: i64, y: i64| sliced(x, y, w, |a, b| kernel::loa(a, b, w, approx_bits));
                $body
            }
            K::Trunc { cut_bits } => {
                let $add =
                    move |x: i64, y: i64| sliced(x, y, w, |a, b| kernel::trunc(a, b, w, cut_bits));
                $body
            }
            K::SetOne { cut_bits } => {
                let $add = move |x: i64, y: i64| {
                    sliced(x, y, w, |a, b| kernel::set_one(a, b, w, cut_bits))
                };
                $body
            }
            K::SetMid { cut_bits } => {
                let $add = move |x: i64, y: i64| {
                    sliced(x, y, w, |a, b| kernel::set_mid(a, b, w, cut_bits))
                };
                $body
            }
            K::CarryCut { cut, window } => {
                let $add = move |x: i64, y: i64| {
                    sliced(x, y, w, |a, b| kernel::carry_cut(a, b, w, cut, window))
                };
                $body
            }
            K::PassB { approx_bits } => {
                let $add = move |x: i64, y: i64| {
                    sliced(x, y, w, |a, b| kernel::pass_b(a, b, w, approx_bits))
                };
                $body
            }
        }
    }};
}

/// A `(Program, Binding, VarMask)` triple compiled to threaded code, ready
/// to run against any input image of the program.
///
/// The approximate models and the multiplier's overflow bound live in this
/// header (one `Copy` each — operator models are plain value types), the
/// per-instruction choice lives in the opcode variants, and the whole run's
/// cost profile is a precomputed constant.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    skeleton: Arc<CompiledSkeleton>,
    ops: Vec<CompiledOp>,
    mask_bits: u64,
    add_model: AdderModel,
    mul_model: MulModel,
    add_costs: [OpCost; 2],
    mul_costs: [OpCost; 2],
    /// Operand-magnitude bound of the multiplier width (overflow mask).
    mul_mask: u64,
    mul_width_bits: u32,
    counts: ArithCounts,
    profile: ArithProfile,
}

impl CompiledProgram {
    /// Specialises `skeleton` to the design `(binding, mask_bits)`.
    ///
    /// `mask_bits` is the raw variable selection
    /// ([`crate::instrument::VarMask::raw_bits`]) over the program's
    /// approximable variables.
    pub fn compile(
        skeleton: &Arc<CompiledSkeleton>,
        binding: &Binding<'_>,
        mask_bits: u64,
    ) -> Self {
        let mut compiled = Self {
            skeleton: Arc::clone(skeleton),
            ops: Vec::with_capacity(skeleton.ops.len()),
            mask_bits: 0,
            add_model: binding.adder().model,
            mul_model: binding.mul().model,
            add_costs: *binding.add_costs(),
            mul_costs: *binding.mul_costs(),
            mul_mask: skeleton.mul_width.mask(),
            mul_width_bits: skeleton.mul_width.bits(),
            counts: ArithCounts::default(),
            profile: ArithProfile::default(),
        };
        compiled.select_impl(mask_bits, true);
        compiled
    }

    /// Re-specialises to a new operator binding, keeping the variable
    /// selection: O(1) — swaps the models and refreshes the analytic
    /// profile, without touching the opcode vector.
    fn rebind(&mut self, binding: &Binding<'_>) {
        self.add_model = binding.adder().model;
        self.mul_model = binding.mul().model;
        self.add_costs = *binding.add_costs();
        self.mul_costs = *binding.mul_costs();
        self.profile = ArithProfile::from_counts(self.counts, &self.add_costs, &self.mul_costs);
    }

    /// Re-specialises to a new variable selection, keeping the binding:
    /// rewrites the opcode vector in place (one pass, allocation-free). A
    /// no-op when `mask_bits` is unchanged.
    fn select(&mut self, mask_bits: u64) {
        if mask_bits != self.mask_bits {
            self.select_impl(mask_bits, false);
        }
    }

    /// Re-specialises to a whole new design in place: swapping operators
    /// is O(1), and the opcode vector is rewritten only when `mask_bits`
    /// changes.
    pub fn specialize(&mut self, binding: &Binding<'_>, mask_bits: u64) {
        self.rebind(binding);
        self.select(mask_bits);
    }

    fn select_impl(&mut self, mask_bits: u64, force: bool) {
        debug_assert!(force || mask_bits != self.mask_bits);
        let skeleton = &self.skeleton;
        let (mut adds_approx, mut muls_approx) = (0u64, 0u64);
        self.ops.clear();
        self.ops.extend(skeleton.ops.iter().map(|op| match *op {
            SkelOp::Const { dst, value } => CompiledOp::Const {
                dst: dst as u32,
                value,
            },
            SkelOp::Copy { dst, src } => CompiledOp::Copy {
                dst: dst as u32,
                src: src as u32,
            },
            SkelOp::Add { dst, a, b, touched } => {
                let (dst, a, b) = (dst as u32, a as u32, b as u32);
                if touched & mask_bits != 0 {
                    adds_approx += 1;
                    CompiledOp::AddApprox { dst, a, b }
                } else {
                    CompiledOp::AddExact { dst, a, b }
                }
            }
            SkelOp::Mul {
                dst,
                a,
                b,
                shift,
                pc,
                touched,
            } => {
                let (dst, a, b) = (dst as u32, a as u32, b as u32);
                if touched & mask_bits != 0 {
                    muls_approx += 1;
                    CompiledOp::MulApprox {
                        dst,
                        a,
                        b,
                        shift,
                        pc,
                    }
                } else {
                    CompiledOp::MulExact {
                        dst,
                        a,
                        b,
                        shift,
                        pc,
                    }
                }
            }
        }));
        self.mask_bits = mask_bits;
        self.counts = ArithCounts {
            adds_total: skeleton.adds_total,
            adds_approx,
            muls_total: skeleton.muls_total,
            muls_approx,
        };
        self.profile = ArithProfile::from_counts(self.counts, &self.add_costs, &self.mul_costs);
    }

    /// The design's run profile, computed analytically at compile time —
    /// identical to what [`CompiledProgram::run`] returns in its outcome.
    pub fn profile(&self) -> ArithProfile {
        self.profile
    }

    /// Executes the compiled design against one input image (see
    /// [`crate::exec::Executor::initial_memory`]), reusing `scratch`'s
    /// memory buffer.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OperandOverflow`] if a multiplication operand's
    /// magnitude exceeds the multiplier width.
    ///
    /// # Panics
    ///
    /// Panics if `image` does not match the program's cell count.
    pub fn run(&self, image: &[i64], scratch: &mut ExecScratch) -> Result<ExecOutcome, VmError> {
        assert_eq!(
            image.len(),
            self.skeleton.total_cells,
            "memory image size does not match the program"
        );
        let mem = &mut scratch.mem;
        mem.clear();
        mem.extend_from_slice(image);

        self.exec_ops(mem)?;

        let mut outputs = Vec::with_capacity(self.skeleton.output_cells);
        for &(base, len) in &self.skeleton.outputs {
            outputs.extend_from_slice(&mem[base..base + len]);
        }
        Ok(ExecOutcome {
            outputs,
            profile: self.profile,
        })
    }

    /// The execution loop behind [`CompiledProgram::run`]: dispatches once
    /// on the adder kind (see [`with_add_kernel!`]) and runs the
    /// monomorphised loop.
    fn exec_ops(&self, mem: &mut [i64]) -> Result<(), VmError> {
        with_add_kernel!(self.add_model, self.skeleton.add_width, |add| self
            .exec_ops_with(mem, add))
    }

    /// The monomorphised loop behind [`CompiledProgram::exec_ops`]: pure
    /// loads, arithmetic, and stores against `mem`, with `add` the fully
    /// resolved approximate-add kernel.
    fn exec_ops_with(&self, mem: &mut [i64], add: impl Fn(i64, i64) -> i64) -> Result<(), VmError> {
        for op in &self.ops {
            match *op {
                CompiledOp::Const { dst, value } => mem[dst as usize] = value,
                CompiledOp::Copy { dst, src } => mem[dst as usize] = mem[src as usize],
                CompiledOp::AddExact { dst, a, b } => {
                    mem[dst as usize] = mem[a as usize].wrapping_add(mem[b as usize]);
                }
                CompiledOp::AddApprox { dst, a, b } => {
                    mem[dst as usize] = add(mem[a as usize], mem[b as usize]);
                }
                CompiledOp::MulExact {
                    dst,
                    a,
                    b,
                    shift,
                    pc,
                } => {
                    let (x, y) = (mem[a as usize], mem[b as usize]);
                    self.check_mul_operands(x, y, pc)?;
                    mem[dst as usize] = x.wrapping_mul(y) >> shift;
                }
                CompiledOp::MulApprox {
                    dst,
                    a,
                    b,
                    shift,
                    pc,
                } => {
                    let (x, y) = (mem[a as usize], mem[b as usize]);
                    self.check_mul_operands(x, y, pc)?;
                    mem[dst as usize] = mul_signed(&self.mul_model, x, y) >> shift;
                }
            }
        }
        Ok(())
    }

    #[inline]
    fn check_mul_operands(&self, x: i64, y: i64, pc: u32) -> Result<(), VmError> {
        for v in [x, y] {
            if v.unsigned_abs() > self.mul_mask {
                return Err(VmError::OperandOverflow {
                    pc: pc as usize,
                    value: v,
                    width_bits: self.mul_width_bits,
                });
            }
        }
        Ok(())
    }
}

/// The sliced-ALU embedding of [`sliced_add`], generic over the low-part
/// adder kernel so each [`ax_operators::AdderKind`] monomorphises into a
/// branch-free inline sequence. Must stay structurally identical to
/// [`sliced_add`] — the differential tests pin the equivalence.
#[inline(always)]
fn sliced(a: i64, b: i64, width: BitWidth, low_add: impl Fn(u64, u64) -> u64) -> i64 {
    let bits = width.bits();
    let mask = width.mask();
    let low = low_add((a as u64) & mask, (b as u64) & mask);
    let carry = (low >> bits) as i64;
    let high = (a >> bits).wrapping_add(b >> bits).wrapping_add(carry);
    (high << bits) | (low & mask) as i64
}

/// Notes on exactness (checked by the `compiled_matches_interpreter_*`
/// tests and the cross-crate differential suite):
///
/// * **`AddExact` ≡ precise sliced add.** The interpreter's precise path
///   splits each operand at the add width, feeds the low parts through the
///   exact adder (low sum + carry) and adds the upper parts with
///   `wrapping_add`, then reassembles. That is the standard carry
///   decomposition of two's-complement addition — equal to
///   `a.wrapping_add(b)` for **all** `i64` pairs.
/// * **`MulExact` ≡ precise sign-magnitude mul.** The interpreter's precise
///   path computes `|a|·|b|` exactly in `u64` (operands are pre-checked to
///   the multiplier width, so the product cannot wrap `u64`) and applies
///   the sign — congruent mod 2⁶⁴ to `a.wrapping_mul(b)`, hence
///   bit-identical after the cast.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_from_image, Executor};
    use crate::instrument::VarMask;
    use crate::ir::ProgramBuilder;
    use ax_operators::OperatorLibrary;

    fn lib() -> OperatorLibrary {
        OperatorLibrary::evoapprox()
    }

    /// dot product of two length-3 vectors on 8-bit operators (same shape
    /// as the interpreter's test kernel).
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

    fn image(prog: &Program, x: &[i64], y: &[i64]) -> Vec<i64> {
        Executor::new(prog)
            .with_input("x", x)
            .unwrap()
            .with_input("y", y)
            .unwrap()
            .initial_memory()
            .unwrap()
    }

    #[test]
    fn compiled_matches_interpreter_across_the_whole_space() {
        let prog = dot3();
        let lib = lib();
        let img = image(&prog, &[3, 5, 7], &[11, 13, 2]);
        let skeleton = Arc::new(CompiledSkeleton::new(&prog));
        let mut mask = VarMask::none(&prog);
        let mut scratch = ExecScratch::new();
        let mut compiled_scratch = ExecScratch::new();
        for adder in 0..6 {
            for mul in 0..6 {
                let binding = Binding::new(&lib, &prog, AdderId(adder), MulId(mul)).unwrap();
                let mut compiled = skeleton.compile(&binding, 0);
                for bits in 0..(1u64 << mask.len()) {
                    mask.set_raw_bits(bits);
                    compiled.select(bits);
                    let reference =
                        run_from_image(&prog, &img, &binding, &mask, &mut scratch).unwrap();
                    let got = compiled.run(&img, &mut compiled_scratch).unwrap();
                    assert_eq!(got, reference, "adder {adder}, mul {mul}, bits {bits:#b}");
                    assert_eq!(compiled.profile(), reference.profile);
                }
            }
        }
    }

    #[test]
    fn rebind_matches_fresh_compile() {
        let prog = dot3();
        let lib = lib();
        let img = image(&prog, &[100, 101, 102], &[55, 66, 77]);
        let skeleton = Arc::new(CompiledSkeleton::new(&prog));
        let b0 = Binding::new(&lib, &prog, AdderId(0), MulId(0)).unwrap();
        let b5 = Binding::new(&lib, &prog, AdderId(5), MulId(5)).unwrap();
        let bits = 0b1011;

        let mut reused = skeleton.compile(&b0, bits);
        reused.rebind(&b5);
        let fresh = skeleton.compile(&b5, bits);

        let mut s = ExecScratch::new();
        assert_eq!(
            reused.run(&img, &mut s).unwrap(),
            fresh.run(&img, &mut s).unwrap()
        );
        assert_eq!(reused.profile(), fresh.profile());
    }

    #[test]
    fn class_representatives_run_like_their_designs_and_collapse_unused_operators() {
        // dot3's flag classes: {x, y, p} holds the muls, {acc, p} the adds.
        let prog = dot3();
        let lib = lib();
        let img = image(&prog, &[3, 5, 7], &[11, 13, 2]);
        let skeleton = Arc::new(CompiledSkeleton::new(&prog));
        let run = |(adder, mul, bits): (AdderId, MulId, u64)| {
            let binding = Binding::new(&lib, &prog, adder, mul).unwrap();
            let compiled = skeleton.compile(&binding, bits);
            compiled.run(&img, &mut ExecScratch::new()).unwrap()
        };
        let mut reps = std::collections::HashSet::new();
        for bits in 0..16u64 {
            for adder in 0..6 {
                for mul in 0..6 {
                    let design = (AdderId(adder), MulId(mul), bits);
                    let rep = skeleton.class_representative(AdderId(adder), MulId(mul), bits);
                    assert_eq!(run(rep), run(design), "{design:?} vs {rep:?}");
                    assert_eq!(skeleton.class_representative(rep.0, rep.1, rep.2), rep);
                    reps.insert(rep);
                }
            }
        }
        // Precise, adds only (6 adders), muls only (6 muls), both (36).
        assert_eq!(reps.len(), 1 + 6 + 6 + 36);
        assert_eq!(
            skeleton.class_representative(AdderId(4), MulId(3), 0),
            (AdderId(0), MulId(0), 0)
        );
    }

    #[test]
    fn overflow_error_matches_interpreter() {
        let prog = dot3();
        let lib = lib();
        let img = image(&prog, &[300, 0, 0], &[1, 0, 0]);
        let binding = Binding::precise(&lib, &prog).unwrap();
        let skeleton = Arc::new(CompiledSkeleton::new(&prog));
        let compiled = skeleton.compile(&binding, 0);
        let got = compiled.run(&img, &mut ExecScratch::new()).unwrap_err();
        let reference = run_from_image(
            &prog,
            &img,
            &binding,
            &VarMask::none(&prog),
            &mut ExecScratch::new(),
        )
        .unwrap_err();
        assert_eq!(got, reference, "pc/value/width must all round-trip");
    }

    #[test]
    fn static_profile_is_the_run_profile() {
        let prog = dot3();
        let lib = lib();
        let img = image(&prog, &[1, 2, 3], &[4, 5, 6]);
        let binding = Binding::new(&lib, &prog, AdderId(2), MulId(3)).unwrap();
        let skeleton = Arc::new(CompiledSkeleton::new(&prog));
        let compiled = skeleton.compile(&binding, 0b110);
        let out = compiled.run(&img, &mut ExecScratch::new()).unwrap();
        assert_eq!(out.profile, compiled.profile());
        assert_eq!(out.profile.adds_total, 3);
        assert_eq!(out.profile.muls_total, 3);
    }
}
