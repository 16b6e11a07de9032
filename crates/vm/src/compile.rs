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
//!    and output ranges are precomputed. The skeleton also keeps a small
//!    table of **specialised opcode vectors**, one per canonical class mask
//!    (see [`CompiledSkeleton::class_representative`]): every selection of
//!    one class flags exactly the same instructions, so they share one
//!    opcode vector, built on first use and `Arc`-shared by every
//!    [`CompiledProgram`] on every thread that runs the program.
//!    The skeleton also fuses every **multiply-accumulate chain** — two or
//!    more consecutive `p ← (a·b) >> s; o ← p + o` pairs that one selection
//!    flags alike (see [`CompiledSkeleton::new`]) — into one step, so
//!    specialising decides each chain's two flags at once.
//! 2. [`CompiledProgram`] — one `(Binding, VarMask)` design: the table's
//!    opcode vector for the selection (each instruction or chain an exact
//!    or approximate opcode, so there is no `flags[pc]` branch at run time;
//!    precise additions and multiplications compile to raw two's-complement
//!    arithmetic, bypassing the operator models entirely), the binding's
//!    two operator models, and the run's [`ArithProfile`], computed
//!    **analytically** from the static approximate/precise operation counts
//!    and the binding's precomputed [`OpCost`](crate::cost::OpCost) pairs.
//!
//! A run resolves both operator models once, through `with_add_kernel!` and
//! `with_mul_kernel!`: each (adder kind, multiplier kind) pair monomorphises
//! its own loop with both kernels inlined, so the loop is just loads, inline
//! arithmetic and stores; a chain op keeps its product and accumulator in
//! registers and stores both once, after its last link. Building a
//! [`CompiledProgram`] is a table lookup,
//! not a pass over the program: changing operators or selection allocates
//! nothing once the selection's class has been specialised.
//!
//! Equivalence with the interpreter is bit-exact, for outputs *and*
//! profiles: the precise opcodes are algebraically identical to the
//! interpreter's precise model path (see `exact_add`/`exact_mul` notes),
//! the approximate kernels embed the models exactly as the interpreter
//! does, and both engines derive power/time through the single
//! [`ArithProfile::from_counts`] formula.

use crate::cost::{ArithCounts, ArithProfile};
use crate::error::VmError;
#[allow(unused_imports)] // doc links
use crate::exec::sliced_add;
use crate::exec::{Binding, ExecOutcome, ExecScratch};
use crate::fingerprint::Fingerprint;
use crate::ir::{Instr, Program};
use ax_operators::{AdderId, AdderModel, BitWidth, MulId, MulModel};
use std::collections::VecDeque;
use std::hash::Hasher;
use std::sync::{Arc, Mutex, PoisonError};

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

impl SkelOp {
    /// Folds the instruction into `fp` as three words: its operand offsets
    /// (each below 2^32, the IR's cell space), then its shift and opcode,
    /// then its touched-variable mask or constant.
    #[inline]
    fn fold_into(&self, fp: &mut Fingerprint) {
        let (opcode, dst, a, b, shift, last) = match *self {
            SkelOp::Const { dst, value } => (0, dst, 0, 0, 0, value as u64),
            SkelOp::Copy { dst, src } => (1, dst, src, 0, 0, 0),
            SkelOp::Add { dst, a, b, touched } => (2, dst, a, b, 0, touched),
            SkelOp::Mul {
                dst,
                a,
                b,
                shift,
                touched,
                ..
            } => (3, dst, a, b, shift, touched),
        };
        fp.write_u64((dst as u64) << 32 | a as u64);
        fp.write_u64((b as u64) << 32 | u64::from(shift) << 8 | opcode);
        fp.write_u64(last);
    }
}

/// One step of a skeleton's run order: a single instruction, or a fused
/// multiply-accumulate chain.
#[derive(Debug, Clone, Copy)]
enum Step {
    Op(SkelOp),
    Chain {
        /// Index into [`CompiledSkeleton`]'s chain table.
        id: u32,
        /// The touched-variable mask every multiply of the chain shares.
        mul_touched: u64,
        /// The touched-variable mask every add of the chain shares.
        add_touched: u64,
    },
}

/// A multiply-accumulate chain: `len ≥ 2` consecutive instruction pairs
/// `prod ← (a·b) >> shift; acc ← prod + acc` (or `acc ← acc + prod`),
/// every pair with the same `prod`, `acc`, `shift` and add order, and no
/// operand `a` or `b` that the chain writes. It runs as a fold over its
/// operand pairs that stores `prod` and `acc` once, at the end.
#[derive(Debug, Clone, Copy)]
struct Chain {
    prod: u32,
    acc: u32,
    shift: u32,
    /// `true` for `acc ← acc + prod`, `false` for `acc ← prod + acc`:
    /// approximate adders are not commutative (`PassB` copies `b`).
    acc_first: bool,
    /// Instruction index of the first multiply; the k-th multiply's is
    /// `pc + 2k`, reported in its overflow error as the interpreter does.
    pc: u32,
    /// The chain's `(a, b)` offsets are `pairs[start..start + len]`.
    start: u32,
    len: u32,
}

/// One multiply and the add after it, when they form a link of a chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Link {
    prod: usize,
    acc: usize,
    shift: u32,
    acc_first: bool,
    mul_touched: u64,
    add_touched: u64,
}

impl Link {
    /// The link `mul` and `add` form, with its operand pair, if `mul`
    /// multiplies into `prod` and `add` adds `prod` into a different cell
    /// `acc`, with neither multiply operand in `{prod, acc}` — so the link
    /// reads no cell a chain of it writes.
    fn of(mul: SkelOp, add: SkelOp) -> Option<(Self, [u32; 2])> {
        let SkelOp::Mul {
            dst: prod,
            a,
            b,
            shift,
            touched: mul_touched,
            ..
        } = mul
        else {
            return None;
        };
        let SkelOp::Add {
            dst: acc,
            a: x,
            b: y,
            touched: add_touched,
        } = add
        else {
            return None;
        };
        let acc_first = match (x == prod, y == prod) {
            (true, false) if y == acc => false,
            (false, true) if x == acc => true,
            _ => return None,
        };
        let writes = [prod, acc];
        if prod == acc || writes.contains(&a) || writes.contains(&b) {
            return None;
        }
        let link = Self {
            prod,
            acc,
            shift,
            acc_first,
            mul_touched,
            add_touched,
        };
        Some((link, [a as u32, b as u32]))
    }
}

/// Most specialised opcode vectors one skeleton keeps; past it the oldest
/// is evicted first. MatMul, FIR, Conv2d, DCT and Dot have two flag
/// classes (four canonical masks) and Sobel four (16), so every shipped
/// workload's whole set stays resident; a program with more classes
/// rebuilds an evicted vector on its next use.
pub const MAX_SPECIALISATIONS: usize = 16;

/// One specialised opcode vector with its static operation counts.
#[derive(Debug, Clone)]
struct Specialisation {
    /// The canonical class mask it was specialised to.
    class_bits: u64,
    ops: Arc<[CompiledOp]>,
    counts: ArithCounts,
}

/// The design-independent compiled form of one [`Program`]: offsets
/// resolved, touched-variable masks attached, output ranges precomputed,
/// plus the table of opcode vectors specialised so far. Built once per
/// program and shared (via `Arc`) by every [`CompiledProgram`] compiled
/// from it.
#[derive(Debug)]
pub struct CompiledSkeleton {
    /// The run order: every instruction outside a chain, and one step per
    /// multiply-accumulate chain.
    steps: Vec<Step>,
    chains: Vec<Chain>,
    /// Every chain's `(a, b)` multiply operand offsets, chain by chain.
    pairs: Vec<[u32; 2]>,
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
    /// Opcode vectors by canonical class mask, oldest first, at most
    /// [`MAX_SPECIALISATIONS`] of them.
    specialisations: Mutex<VecDeque<Specialisation>>,
    /// Digest of everything above that a run depends on; see
    /// [`CompiledSkeleton::fingerprint`].
    fingerprint: u64,
}

/// What a variable selection does to a program: its canonical class mask
/// (see [`CompiledSkeleton::class_representative`]), and whether the flag
/// classes it hits hold additions and multiplications. Two selections with
/// equal classes flag exactly the same instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectionClass {
    /// Every flag-class variable minus the classes the selection misses.
    pub bits: u64,
    /// `true` if the selection approximates some addition.
    pub adds: bool,
    /// `true` if the selection approximates some multiplication.
    pub muls: bool,
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
    /// Resolves `program` into its offset-resolved skeleton, and fuses its
    /// multiply-accumulate chains: every maximal run of at least two
    /// consecutive pairs `Mul { dst: p, a, b, shift }`,
    /// `Add { dst: o, a: p, b: o }` (or `a: o, b: p`) with equal `p`, `o`,
    /// `shift`, add order and touched-variable masks, `p ≠ o`, and `a`,
    /// `b` outside `{p, o}`. One selection flags a whole chain alike, and
    /// no link reads a cell the chain writes, so the fused run is the
    /// interpreter's run of the pairs. The fingerprint, the flag classes
    /// and the operation counts come from the instructions, not the chains.
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
        let mut fp = Fingerprint::new();
        let ops: Vec<SkelOp> = program
            .instrs()
            .iter()
            .enumerate()
            .map(|(pc, instr)| {
                let op = match *instr {
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
                };
                op.fold_into(&mut fp);
                op
            })
            .collect();

        let outputs: Vec<(usize, usize)> = program
            .output_vars()
            .into_iter()
            .map(|id| (program.offset(id.at(0)), program.var(id).len() as usize))
            .collect();
        let output_cells = outputs.iter().map(|&(_, len)| len).sum();
        fp.write_usize(ops.len());
        for &(base, len) in &outputs {
            fp.write_usize(base);
            fp.write_usize(len);
        }
        fp.write_u32(program.total_cells());
        fp.write_u32(program.add_width().bits());
        fp.write_u32(program.mul_width().bits());
        fp.write_usize(approximable.len());

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
        let (steps, chains, pairs) = fuse_chains(&ops);

        Self {
            steps,
            chains,
            pairs,
            outputs,
            total_cells: program.total_cells() as usize,
            output_cells,
            add_width: program.add_width(),
            mul_width: program.mul_width(),
            adds_total,
            muls_total,
            flag_classes,
            specialisations: Mutex::new(VecDeque::with_capacity(MAX_SPECIALISATIONS)),
            fingerprint: fp.finish(),
        }
    }

    /// A digest of the program as this skeleton runs it: every resolved
    /// instruction with its touched-variable mask, the output ranges, the
    /// memory size, both operator widths and the number of approximable
    /// variables. Two programs with equal fingerprints run every design
    /// alike on equal memory images. The digest has no per-process seed
    /// ([`Fingerprint`]), so it can key data saved to disk.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The class of the selection `bits`: its canonical class mask — every
    /// flag-class variable minus the classes `bits` misses — and whether
    /// the classes it hits hold additions and multiplications.
    pub fn classify(&self, bits: u64) -> SelectionClass {
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
        SelectionClass {
            bits: all & !missed,
            adds,
            muls,
        }
    }

    /// The canonical member of the design `(adder, mul, bits)`'s execution
    /// class: the selection becomes its canonical class mask, and an
    /// operator axis no approximated instruction uses collapses to index 0.
    /// The representative flags exactly the instructions `bits` flags and
    /// keeps every operator an approximate instruction runs, so both
    /// engines return bit-identical outcomes for a design and its
    /// representative; the mapping is idempotent, and an empty selection
    /// maps to the precise design `(0, 0, 0)`.
    pub fn class_representative(
        &self,
        adder: AdderId,
        mul: MulId,
        bits: u64,
    ) -> (AdderId, MulId, u64) {
        let class = self.classify(bits);
        (
            if class.adds { adder } else { AdderId(0) },
            if class.muls { mul } else { MulId(0) },
            class.bits,
        )
    }

    /// Number of specialised opcode vectors the table holds (at most
    /// [`MAX_SPECIALISATIONS`]).
    pub fn specialisations(&self) -> usize {
        self.table().len()
    }

    /// Specialises this skeleton to one design. See
    /// [`CompiledProgram::compile`].
    pub fn compile(self: &Arc<Self>, binding: &Binding<'_>, mask_bits: u64) -> CompiledProgram {
        CompiledProgram::compile(self, binding, mask_bits)
    }

    /// The table, whose entries stay consistent even if a holder panicked:
    /// an entry is only ever pushed whole.
    fn table(&self) -> std::sync::MutexGuard<'_, VecDeque<Specialisation>> {
        self.specialisations
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The opcode vector of the selection `mask_bits`'s class: from the
    /// table, or specialised under the lock and inserted, evicting the
    /// oldest entry of a full table.
    fn specialisation(&self, mask_bits: u64) -> Specialisation {
        let class_bits = self.classify(mask_bits).bits;
        let mut table = self.table();
        if let Some(hit) = table.iter().find(|s| s.class_bits == class_bits) {
            return hit.clone();
        }
        let built = self.specialise(class_bits);
        if table.len() == MAX_SPECIALISATIONS {
            table.pop_front();
        }
        table.push_back(built.clone());
        built
    }

    /// One pass over the skeleton: each arithmetic instruction becomes its
    /// exact or approximate opcode under the selection `bits`, and each
    /// chain carries whether its multiplies and its adds are approximate.
    fn specialise(&self, bits: u64) -> Specialisation {
        let (mut adds_approx, mut muls_approx) = (0u64, 0u64);
        let ops = self
            .steps
            .iter()
            .map(|step| match *step {
                Step::Chain {
                    id,
                    mul_touched,
                    add_touched,
                } => {
                    let len = u64::from(self.chains[id as usize].len);
                    let (mul_approx, add_approx) =
                        (mul_touched & bits != 0, add_touched & bits != 0);
                    muls_approx += if mul_approx { len } else { 0 };
                    adds_approx += if add_approx { len } else { 0 };
                    CompiledOp::Chain {
                        id,
                        mul_approx,
                        add_approx,
                    }
                }
                Step::Op(SkelOp::Const { dst, value }) => CompiledOp::Const {
                    dst: dst as u32,
                    value,
                },
                Step::Op(SkelOp::Copy { dst, src }) => CompiledOp::Copy {
                    dst: dst as u32,
                    src: src as u32,
                },
                Step::Op(SkelOp::Add { dst, a, b, touched }) => {
                    let (dst, a, b) = (dst as u32, a as u32, b as u32);
                    if touched & bits != 0 {
                        adds_approx += 1;
                        CompiledOp::AddApprox { dst, a, b }
                    } else {
                        CompiledOp::AddExact { dst, a, b }
                    }
                }
                Step::Op(SkelOp::Mul {
                    dst,
                    a,
                    b,
                    shift,
                    pc,
                    touched,
                }) => {
                    let (dst, a, b) = (dst as u32, a as u32, b as u32);
                    if touched & bits != 0 {
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
            })
            .collect();
        Specialisation {
            class_bits: bits,
            ops,
            counts: ArithCounts {
                adds_total: self.adds_total,
                adds_approx,
                muls_total: self.muls_total,
                muls_approx,
            },
        }
    }
}

/// Splits `ops` into run steps, fusing every multiply-accumulate chain (see
/// [`CompiledSkeleton::new`]) into one step over the returned chain table
/// and operand-pair table.
fn fuse_chains(ops: &[SkelOp]) -> (Vec<Step>, Vec<Chain>, Vec<[u32; 2]>) {
    let link_at = |pc: usize| match ops.get(pc..pc + 2) {
        Some(&[mul, add]) => Link::of(mul, add),
        _ => None,
    };
    let (mut steps, mut chains, mut pairs) = (Vec::new(), Vec::new(), Vec::new());
    let mut pc = 0;
    while pc < ops.len() {
        let Some((link, first)) = link_at(pc) else {
            steps.push(Step::Op(ops[pc]));
            pc += 1;
            continue;
        };
        let start = pairs.len();
        pairs.push(first);
        let mut end = pc + 2;
        while let Some((_, pair)) = link_at(end).filter(|(next, _)| *next == link) {
            pairs.push(pair);
            end += 2;
        }
        if pairs.len() - start < 2 {
            pairs.truncate(start);
            steps.extend(ops[pc..end].iter().map(|&op| Step::Op(op)));
        } else {
            steps.push(Step::Chain {
                id: chains.len() as u32,
                mul_touched: link.mul_touched,
                add_touched: link.add_touched,
            });
            chains.push(Chain {
                prod: link.prod as u32,
                acc: link.acc as u32,
                shift: link.shift,
                acc_first: link.acc_first,
                pc: pc as u32,
                start: start as u32,
                len: (pairs.len() - start) as u32,
            });
        }
        pc = end;
    }
    (steps, chains, pairs)
}

/// One opcode of a specialised program: the approximate/precise choice is
/// baked into the variant, so the run loop has no flag lookup and no cost
/// accounting. Operand offsets are `u32` deliberately — a sweep streams the
/// opcode vector thousands of times, and the narrow encoding keeps an op at
/// 24 bytes (cell counts are bounded by the program IR's `u32` cell space,
/// so the narrowing is lossless). A chain is one op, whose 8-byte operand
/// pairs the skeleton holds: FIR-100's 3,500 instructions run as 200 ops
/// (4.8 KB) over a 13.6 KB pair table, where one op per instruction took
/// 84 KB, more than L1d holds.
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
    /// A multiply-accumulate chain of the skeleton's chain table, each of
    /// its two operations exact or through the design's model.
    Chain {
        id: u32,
        mul_approx: bool,
        add_approx: bool,
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

/// The multiplier twin of [`with_add_kernel!`]: resolves a [`MulModel`] to
/// a fully inlined signed-multiply closure bound to `$mul`, so the
/// multiplier-kind `match` runs once per run instead of once per multiply.
/// The embedding is the interpreter's sign-magnitude one (see
/// [`signed`]); `MulKind::Precise` shortcuts to `wrapping_mul`, which the
/// exactness notes prove equal to the precise sign-magnitude product.
macro_rules! with_mul_kernel {
    ($model:expr, $w:expr, |$mul:ident| $body:expr) => {{
        use ax_operators::multipliers as mul_kernel;
        use ax_operators::multipliers::Po2Mode;
        use ax_operators::MulKind as K;
        let w = $w;
        match $model.kind() {
            K::Precise => {
                let $mul = |x: i64, y: i64| x.wrapping_mul(y);
                $body
            }
            K::TruncResult { cut_bits } => {
                let $mul = move |x: i64, y: i64| {
                    signed(x, y, |a, b| mul_kernel::trunc_result(a, b, w, cut_bits))
                };
                $body
            }
            K::TruncPp { cut_columns } => {
                let $mul = move |x: i64, y: i64| {
                    signed(x, y, |a, b| mul_kernel::trunc_pp(a, b, w, cut_columns))
                };
                $body
            }
            K::BrokenArray { rows } => {
                let $mul = move |x: i64, y: i64| {
                    signed(x, y, |a, b| mul_kernel::broken_array(a, b, w, rows))
                };
                $body
            }
            K::Mitchell => {
                let $mul = move |x: i64, y: i64| signed(x, y, |a, b| mul_kernel::mitchell(a, b, w));
                $body
            }
            K::LogIter { iterations } => {
                let $mul = move |x: i64, y: i64| {
                    signed(x, y, |a, b| mul_kernel::log_iter(a, b, w, iterations))
                };
                $body
            }
            K::Drum { k } => {
                let $mul = move |x: i64, y: i64| signed(x, y, |a, b| mul_kernel::drum(a, b, w, k));
                $body
            }
            K::Po2(Po2Mode::Floor) => {
                let $mul =
                    move |x: i64, y: i64| signed(x, y, |a, b| mul_kernel::po2_floor(a, b, w));
                $body
            }
            K::Po2(Po2Mode::Nearest) => {
                let $mul =
                    move |x: i64, y: i64| signed(x, y, |a, b| mul_kernel::po2_nearest(a, b, w));
                $body
            }
            K::Po2(Po2Mode::Compensated) => {
                let $mul =
                    move |x: i64, y: i64| signed(x, y, |a, b| mul_kernel::po2_compensated(a, b, w));
                $body
            }
        }
    }};
}

/// One design compiled to threaded code, ready to run against any input
/// image of the program.
///
/// It holds the skeleton table's opcode vector for the design's selection
/// (shared, never rewritten), the two operator models (one `Copy` each —
/// operator models are plain value types), and the whole run's cost
/// profile as a precomputed constant.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    skeleton: Arc<CompiledSkeleton>,
    ops: Arc<[CompiledOp]>,
    add_model: AdderModel,
    mul_model: MulModel,
    profile: ArithProfile,
}

impl CompiledProgram {
    /// Specialises `skeleton` to the design `(binding, mask_bits)`: the
    /// selection's opcode vector comes from the skeleton's table (built on
    /// the class's first use), so compiling is a lookup plus the profile.
    ///
    /// `mask_bits` is the raw variable selection
    /// ([`crate::instrument::VarMask::raw_bits`]) over the program's
    /// approximable variables.
    pub fn compile(
        skeleton: &Arc<CompiledSkeleton>,
        binding: &Binding<'_>,
        mask_bits: u64,
    ) -> Self {
        let Specialisation { ops, counts, .. } = skeleton.specialisation(mask_bits);
        Self {
            skeleton: Arc::clone(skeleton),
            ops,
            add_model: binding.adder().model,
            mul_model: binding.mul().model,
            profile: ArithProfile::from_counts(counts, binding.add_costs(), binding.mul_costs()),
        }
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
        let skeleton = &*self.skeleton;
        assert_eq!(
            image.len(),
            skeleton.total_cells,
            "memory image size does not match the program"
        );
        let mem = &mut scratch.mem;
        mem.clear();
        mem.extend_from_slice(image);

        with_add_kernel!(self.add_model, skeleton.add_width, |add| {
            with_mul_kernel!(self.mul_model, skeleton.mul_width, |mul| exec_ops(
                &self.ops, skeleton, mem, add, mul
            ))
        })?;

        let mut outputs = Vec::with_capacity(skeleton.output_cells);
        for &(base, len) in &skeleton.outputs {
            outputs.extend_from_slice(&mem[base..base + len]);
        }
        Ok(ExecOutcome {
            outputs,
            profile: self.profile,
        })
    }
}

/// The monomorphised loop behind [`CompiledProgram::run`]: pure loads,
/// arithmetic, and stores against `mem`, with `add` and `mul` the fully
/// resolved approximate kernels and `skeleton` holding the chains.
#[inline(always)]
fn exec_ops(
    ops: &[CompiledOp],
    skeleton: &CompiledSkeleton,
    mem: &mut [i64],
    add: impl Fn(i64, i64) -> i64,
    mul: impl Fn(i64, i64) -> i64,
) -> Result<(), VmError> {
    let operands = OperandCheck::new(skeleton.mul_width);
    for op in ops {
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
                operands.check(x, y, pc)?;
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
                operands.check(x, y, pc)?;
                mem[dst as usize] = mul(x, y) >> shift;
            }
            CompiledOp::Chain {
                id,
                mul_approx,
                add_approx,
            } => {
                let chain = &skeleton.chains[id as usize];
                let pairs = &skeleton.pairs[chain.start as usize..][..chain.len as usize];
                let o = operands;
                match (mul_approx, add_approx) {
                    (false, false) => run_chain(chain, pairs, mem, o, exact_mul, exact_add),
                    (false, true) => run_chain(chain, pairs, mem, o, exact_mul, &add),
                    (true, false) => run_chain(chain, pairs, mem, o, &mul, exact_add),
                    (true, true) => run_chain(chain, pairs, mem, o, &mul, &add),
                }?;
            }
        }
    }
    Ok(())
}

/// The multiplier width's operand check, with its magnitude mask resolved
/// once per run rather than per multiply.
#[derive(Clone, Copy)]
struct OperandCheck {
    mask: u64,
    width: BitWidth,
}

impl OperandCheck {
    fn new(width: BitWidth) -> Self {
        Self {
            mask: width.mask(),
            width,
        }
    }

    /// Fails with the interpreter's error if an operand of the multiply
    /// at `pc` does not fit the multiplier width. `|v| ≤ mask` exactly
    /// when `v + mask` lies in `[0, 2·mask]`, so each operand costs one
    /// add and one unsigned compare (masks are at most 32 bits wide, so
    /// nothing wraps into range), and both share one branch.
    #[inline(always)]
    fn check(self, x: i64, y: i64, pc: u32) -> Result<(), VmError> {
        let outside = |v: i64| v.wrapping_add(self.mask as i64) as u64 > 2 * self.mask;
        if outside(x) | outside(y) {
            return Err(self.overflow(x, y, pc));
        }
        Ok(())
    }

    /// The interpreter's error for the multiply at `pc`: it names `x` if
    /// `x` is out of range, else `y`.
    #[cold]
    fn overflow(self, x: i64, y: i64, pc: u32) -> VmError {
        VmError::OperandOverflow {
            pc: pc as usize,
            value: if x.unsigned_abs() > self.mask { x } else { y },
            width_bits: self.width.bits(),
        }
    }
}

/// The precise kernels of a chain. Free functions rather than closures, so
/// a chain that is exact in one operation shares one copy of
/// [`run_chain`] across every operator model of the other.
fn exact_mul(x: i64, y: i64) -> i64 {
    x.wrapping_mul(y)
}

/// See [`exact_mul`].
fn exact_add(x: i64, y: i64) -> i64 {
    x.wrapping_add(y)
}

/// Runs one chain on the kernels `mul` and `add` (exact or approximate),
/// in its add order. Not inlined: one call per chain costs nothing
/// measurable against its links, while inlining the four variants into
/// each of the 70 `(adder, multiplier)` loops of [`exec_ops`] made a
/// release rebuild of this crate about 2.6 times slower. Out of line, each
/// variant exact in one operation is also one copy, shared by every model
/// of the other.
#[inline(never)]
fn run_chain(
    chain: &Chain,
    pairs: &[[u32; 2]],
    mem: &mut [i64],
    operands: OperandCheck,
    mul: impl Fn(i64, i64) -> i64,
    add: impl Fn(i64, i64) -> i64,
) -> Result<(), VmError> {
    // `fold_chain` accumulates as `accumulate(acc, prod)`.
    if chain.acc_first {
        fold_chain(chain, pairs, mem, operands, mul, &add)
    } else {
        fold_chain(chain, pairs, mem, operands, mul, |acc, prod| add(prod, acc))
    }
}

/// The links of `chain` with the product and the accumulator in
/// registers: the k-th link checks its operands as the multiply at
/// `chain.pc + 2k`, and both cells are stored once, after the last link.
/// No link reads `prod` or `acc` from `mem`, so nothing observes the
/// skipped stores; an error ends the run, so nothing observes them then
/// either.
#[inline(always)]
fn fold_chain(
    chain: &Chain,
    pairs: &[[u32; 2]],
    mem: &mut [i64],
    operands: OperandCheck,
    mul: impl Fn(i64, i64) -> i64,
    accumulate: impl Fn(i64, i64) -> i64,
) -> Result<(), VmError> {
    let (mut prod, mut acc) = (mem[chain.prod as usize], mem[chain.acc as usize]);
    for (k, &[a, b]) in (0u32..).zip(pairs) {
        let (x, y) = (mem[a as usize], mem[b as usize]);
        operands.check(x, y, chain.pc + 2 * k)?;
        prod = mul(x, y) >> chain.shift;
        acc = accumulate(acc, prod);
    }
    mem[chain.prod as usize] = prod;
    mem[chain.acc as usize] = acc;
    Ok(())
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

/// The sign-magnitude embedding of
/// [`ax_operators::signed::mul_signed`], generic over the magnitude kernel
/// so each [`ax_operators::MulKind`] monomorphises into an inline sequence.
/// The sign is applied without a branch: `s` is all ones when the operand
/// signs differ, and `(p ^ s) - s` is then `-p` (and `p` otherwise), which
/// is exactly the interpreter's conditional negation.
#[inline(always)]
fn signed(x: i64, y: i64, magnitude: impl Fn(u64, u64) -> u64) -> i64 {
    let mag = magnitude(x.unsigned_abs(), y.unsigned_abs());
    debug_assert!(mag <= i64::MAX as u64, "magnitude product overflows i64");
    let s = (x ^ y) >> 63;
    ((mag as i64) ^ s).wrapping_sub(s)
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
    use ax_operators::multipliers::Po2Mode;
    use ax_operators::{MulKind, OperatorLibrary, OperatorSpec};

    fn lib() -> OperatorLibrary {
        OperatorLibrary::evoapprox()
    }

    /// [`lib`] plus a `PassB` adder at 8 and 16 bits: it copies its second
    /// operand's low bits, so unlike `evoapprox`'s adders it is not
    /// commutative, and a chain run with its add operands swapped differs.
    fn lib_with_pass_b() -> OperatorLibrary {
        let base = lib();
        let mut builder = OperatorLibrary::builder();
        for width in [BitWidth::W8, BitWidth::W16, BitWidth::W32] {
            for e in base.adders(width) {
                builder = builder.adder(e.spec.clone(), e.model);
            }
            for e in base.multipliers(width) {
                builder = builder.multiplier(e.spec.clone(), e.model);
            }
        }
        for width in [BitWidth::W8, BitWidth::W16] {
            builder = builder.adder(
                OperatorSpec::new(format!("PB{}", width.bits()), width, 1.0, 0.01, 0.2),
                AdderModel::new(ax_operators::AdderKind::PassB { approx_bits: 3 }, width),
            );
        }
        builder.build()
    }

    /// dot product of two length-3 vectors on 8-bit operators (same shape
    /// as the interpreter's test kernel): one chain in `(acc, prod)` order.
    fn dot3() -> Program {
        dot3_in_order(true)
    }

    /// [`dot3`] with its adds in `(acc, prod)` order if `acc_first`, else
    /// in the shipped workloads' `(prod, acc)` order.
    fn dot3_in_order(acc_first: bool) -> Program {
        let mut pb = ProgramBuilder::new("dot3", BitWidth::W8, BitWidth::W8);
        let x = pb.input("x", 3);
        let y = pb.input("y", 3);
        let p = pb.temp("p", 1);
        let acc = pb.output("acc", 1);
        pb.konst(acc.at(0), 0);
        for i in 0..3 {
            pb.mul(p.at(0), x.at(i), y.at(i), 0);
            if acc_first {
                pb.add(acc.at(0), acc.at(0), p.at(0));
            } else {
                pb.add(acc.at(0), p.at(0), acc.at(0));
            }
        }
        pb.build().unwrap()
    }

    /// The number of chain ops in a design's opcode vector.
    fn chain_ops(design: &CompiledProgram) -> usize {
        design
            .ops
            .iter()
            .filter(|op| matches!(op, CompiledOp::Chain { .. }))
            .count()
    }

    /// Runs every design of `prog` over every operator pair of `evoapprox`
    /// plus a `PassB` adder on both engines from `img`, and checks that
    /// outcomes — outputs and profile, or the error — are equal.
    fn assert_every_design_matches_the_interpreter(prog: &Program, img: &[i64]) {
        let lib = lib_with_pass_b();
        let skeleton = Arc::new(CompiledSkeleton::new(prog));
        let mut mask = VarMask::none(prog);
        let (mut scratch, mut compiled_scratch) = (ExecScratch::new(), ExecScratch::new());
        for adder in 0..lib.adders(prog.add_width()).len() {
            for mul in 0..lib.multipliers(prog.mul_width()).len() {
                let binding = Binding::new(&lib, prog, AdderId(adder), MulId(mul)).unwrap();
                for bits in 0..(1u64 << mask.len()) {
                    mask.set_raw_bits(bits);
                    let compiled = skeleton.compile(&binding, bits);
                    let reference = run_from_image(prog, img, &binding, &mask, &mut scratch);
                    let got = compiled.run(img, &mut compiled_scratch);
                    if let Ok(reference) = &reference {
                        assert_eq!(compiled.profile(), reference.profile);
                    }
                    assert_eq!(got, reference, "adder {adder}, mul {mul}, bits {bits:#b}");
                }
            }
        }
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
    fn the_fingerprint_follows_what_a_run_depends_on() {
        let fp = |prog: &Program| CompiledSkeleton::new(prog).fingerprint();
        assert_eq!(fp(&dot3()), fp(&dot3()), "a rebuilt program");
        // One variant per ingredient: a shift, a constant, an operand, the
        // operator width and the selectable variables.
        let variant = |shift: u32, init: i64, swap: bool, width: BitWidth, approx_p: bool| {
            let mut pb = ProgramBuilder::new("dot3", width, BitWidth::W8);
            let x = pb.input("x", 3);
            let y = pb.input("y", 3);
            let p = pb.temp("p", 1);
            if !approx_p {
                pb.not_approximable(p);
            }
            let acc = pb.output("acc", 1);
            pb.konst(acc.at(0), init);
            for i in 0..3 {
                let (a, b) = if swap && i == 2 { (y, x) } else { (x, y) };
                pb.mul(p.at(0), a.at(i), b.at(i), shift);
                pb.add(acc.at(0), acc.at(0), p.at(0));
            }
            pb.build().unwrap()
        };
        let base = fp(&variant(0, 0, false, BitWidth::W8, true));
        assert_eq!(base, fp(&dot3()));
        for other in [
            variant(1, 0, false, BitWidth::W8, true),
            variant(0, 1, false, BitWidth::W8, true),
            variant(0, 0, true, BitWidth::W8, true),
            variant(0, 0, false, BitWidth::W16, true),
            variant(0, 0, false, BitWidth::W8, false),
        ] {
            assert_ne!(fp(&other), base);
        }
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
                for bits in 0..(1u64 << mask.len()) {
                    mask.set_raw_bits(bits);
                    let compiled = skeleton.compile(&binding, bits);
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
    fn one_opcode_vector_per_class_mask() {
        // dot3's flag classes: {x, y, p} holds the muls, {acc, p} the adds,
        // so its 16 selections fall into four canonical class masks.
        let prog = dot3();
        let lib = lib();
        let skeleton = Arc::new(CompiledSkeleton::new(&prog));
        let b0 = Binding::precise(&lib, &prog).unwrap();
        let b5 = Binding::new(&lib, &prog, AdderId(5), MulId(5)).unwrap();
        for bits in 0..16u64 {
            let (_, _, class_bits) = skeleton.class_representative(AdderId(0), MulId(0), bits);
            let design = skeleton.compile(&b5, bits);
            assert!(Arc::ptr_eq(
                &design.ops,
                &skeleton.compile(&b0, class_bits).ops
            ));
        }
        assert_eq!(skeleton.specialisations(), 4);
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

    /// Every [`MulKind`] at `width`, with parameters valid there.
    fn every_mul_kind(width: BitWidth) -> Vec<MulKind> {
        let wide = width == BitWidth::W32;
        vec![
            MulKind::Precise,
            MulKind::TruncResult {
                cut_bits: if wide { 20 } else { 4 },
            },
            MulKind::TruncPp {
                cut_columns: if wide { 12 } else { 4 },
            },
            MulKind::BrokenArray {
                rows: if wide { 10 } else { 3 },
            },
            MulKind::Mitchell,
            MulKind::LogIter { iterations: 2 },
            MulKind::Drum {
                k: if wide { 6 } else { 4 },
            },
            MulKind::Po2(Po2Mode::Floor),
            MulKind::Po2(Po2Mode::Nearest),
            MulKind::Po2(Po2Mode::Compensated),
        ]
    }

    /// Multiplies each operand pair through every multiplier kind on both
    /// engines, with every multiplication approximated, and checks that
    /// outputs and profiles agree.
    fn check_signed_products(mul_width: BitWidth, pairs: &[(i64, i64)]) {
        let add_width = if mul_width == BitWidth::W8 {
            BitWidth::W8
        } else {
            BitWidth::W16
        };
        let n = pairs.len() as u32;
        let mut pb = ProgramBuilder::new("products", add_width, mul_width);
        let x = pb.input("x", n);
        let y = pb.input("y", n);
        let z = pb.output("z", n);
        for k in 0..n {
            pb.mul(z.at(k), x.at(k), y.at(k), 0);
        }
        let prog = pb.build().unwrap();
        let (xs, ys): (Vec<i64>, Vec<i64>) = pairs.iter().copied().unzip();
        let img = image(&prog, &xs, &ys);
        let kinds = every_mul_kind(mul_width);
        let mut builder = OperatorLibrary::builder().adder(
            OperatorSpec::new("exact", add_width, 0.0, 0.1, 1.0),
            AdderModel::precise(add_width),
        );
        for (i, &kind) in kinds.iter().enumerate() {
            builder = builder.multiplier(
                OperatorSpec::new(format!("m{i}"), mul_width, i as f64, 1.0, 1.0),
                MulModel::new(kind, mul_width),
            );
        }
        let lib = builder.build();
        let skeleton = Arc::new(CompiledSkeleton::new(&prog));
        let all = VarMask::all(&prog);
        for (m, &kind) in kinds.iter().enumerate() {
            let binding = Binding::new(&lib, &prog, AdderId(0), MulId(m)).unwrap();
            assert_eq!(binding.mul().model.kind(), kind);
            let got = skeleton
                .compile(&binding, all.raw_bits())
                .run(&img, &mut ExecScratch::new())
                .unwrap();
            let reference =
                run_from_image(&prog, &img, &binding, &all, &mut ExecScratch::new()).unwrap();
            assert_eq!(got.profile.muls_approx, u64::from(n));
            assert_eq!(got, reference, "{kind} on {mul_width}");
        }
    }

    #[test]
    fn every_multiplier_kind_matches_the_interpreter_on_every_signed_8_bit_pair() {
        // Every magnitude pair up to 255 under all four sign combinations.
        let pairs: Vec<(i64, i64)> = (-255..=255)
            .flat_map(|x| (-255..=255).map(move |y| (x, y)))
            .collect();
        check_signed_products(BitWidth::W8, &pairs);
    }

    #[test]
    fn every_multiplier_kind_matches_the_interpreter_on_signed_32_bit_samples() {
        let magnitudes = [
            0i64,
            1,
            2,
            3,
            255,
            256,
            12_345,
            (1 << 15) - 1,
            1 << 15,
            (1 << 15) + 1,
            65_535,
            (1 << 20) + 3,
            987_654_321,
            (1 << 31) - 1,
            1 << 31,
        ];
        let operands: Vec<i64> = magnitudes
            .iter()
            .flat_map(|&v| [v, -v])
            .skip(1) // -0
            .collect();
        // Every sign combination of every pair whose exact product is at
        // most 2^61: the compensated power-of-two multiplier can scale a
        // product by up to 2.25, and every kind's product must fit an i64.
        let pairs: Vec<(i64, i64)> = operands
            .iter()
            .flat_map(|&x| operands.iter().map(move |&y| (x, y)))
            .filter(|&(x, y)| {
                u128::from(x.unsigned_abs()) * u128::from(y.unsigned_abs()) <= 1 << 61
            })
            .collect();
        assert!(pairs.contains(&(-(1 << 31), 1 << 15)));
        check_signed_products(BitWidth::W32, &pairs);
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

    #[test]
    fn both_add_orders_fuse_and_match_the_interpreter() {
        for acc_first in [true, false] {
            let prog = dot3_in_order(acc_first);
            let skeleton = CompiledSkeleton::new(&prog);
            assert_eq!(skeleton.steps.len(), 2, "the const, then one chain");
            assert_eq!(skeleton.chains.len(), 1);
            let chain = skeleton.chains[0];
            assert_eq!((chain.acc_first, chain.pc, chain.len), (acc_first, 1, 3));
            assert_eq!(skeleton.pairs, [[0, 3], [1, 4], [2, 5]]);
            for (x, y) in [
                ([3, 5, 7], [11, 13, 2]),
                ([-255, 255, 128], [255, -255, -1]),
            ] {
                assert_every_design_matches_the_interpreter(&prog, &image(&prog, &x, &y));
            }
        }
    }

    #[test]
    fn a_chain_reading_a_cell_it_writes_is_not_fused() {
        // acc ← acc · x[i], p ← p · x[i] and p == acc: each link reads a
        // cell the chain writes.
        for alias in 0..3 {
            let mut pb = ProgramBuilder::new("alias", BitWidth::W8, BitWidth::W8);
            let x = pb.input("x", 3);
            let y = pb.input("y", 3);
            let p = pb.temp("p", 1);
            let acc = pb.output("acc", 1);
            pb.konst(acc.at(0), 1);
            pb.konst(p.at(0), 1);
            for i in 0..3 {
                let (p, acc) = (p.at(0), acc.at(0));
                match alias {
                    0 => pb.mul(p, acc, x.at(i), 0),
                    1 => pb.mul(p, p, y.at(i), 0),
                    _ => pb.mul(acc, x.at(i), y.at(i), 0),
                };
                match alias {
                    0 | 1 => pb.add(acc, p, acc),
                    _ => pb.add(acc, acc, acc),
                };
            }
            let prog = pb.build().unwrap();
            let skeleton = CompiledSkeleton::new(&prog);
            assert!(skeleton.chains.is_empty(), "alias {alias}");
            assert_eq!(skeleton.steps.len(), prog.instrs().len());
            assert_every_design_matches_the_interpreter(
                &prog,
                &image(&prog, &[2, -3, 1], &[1, 2, -1]),
            );
        }
    }

    #[test]
    fn a_change_of_touched_mask_splits_the_chain() {
        // x·y then x·z into one accumulator: the multiplies touch {x, y, p}
        // and then {x, z, p}, so one selection can flag one half only.
        let mut pb = ProgramBuilder::new("split", BitWidth::W8, BitWidth::W8);
        let x = pb.input("x", 3);
        let y = pb.input("y", 3);
        let z = pb.input("z", 3);
        let p = pb.temp("p", 1);
        let acc = pb.output("acc", 1);
        pb.konst(acc.at(0), 0);
        for w in [y, z] {
            for i in 0..3 {
                pb.mul(p.at(0), x.at(i), w.at(i), 0);
                pb.add(acc.at(0), p.at(0), acc.at(0));
            }
        }
        let prog = pb.build().unwrap();
        let skeleton = CompiledSkeleton::new(&prog);
        let chains: Vec<(u32, u32)> = skeleton.chains.iter().map(|c| (c.pc, c.len)).collect();
        assert_eq!(chains, [(1, 3), (7, 3)]);
        let img = Executor::new(&prog)
            .with_input("x", &[3, -5, 7])
            .and_then(|e| e.with_input("y", &[11, 13, -2]))
            .and_then(|e| e.with_input("z", &[-100, 99, 42]))
            .and_then(|e| e.initial_memory())
            .unwrap();
        assert_every_design_matches_the_interpreter(&prog, &img);
    }

    #[test]
    fn an_overflow_in_a_middle_link_is_the_interpreters_error() {
        for acc_first in [true, false] {
            let prog = dot3_in_order(acc_first);
            // The second multiply (pc 3) overflows on `y`.
            let img = image(&prog, &[2, 4, 6], &[1, -300, 5]);
            let skeleton = Arc::new(CompiledSkeleton::new(&prog));
            let lib = lib();
            for (adder, mul) in [(0, 0), (3, 4)] {
                let binding = Binding::new(&lib, &prog, AdderId(adder), MulId(mul)).unwrap();
                for bits in 0..16 {
                    let mask = VarMask::with_bits(&prog, bits);
                    let got = skeleton
                        .compile(&binding, bits)
                        .run(&img, &mut ExecScratch::new())
                        .unwrap_err();
                    let reference =
                        run_from_image(&prog, &img, &binding, &mask, &mut ExecScratch::new())
                            .unwrap_err();
                    assert_eq!(
                        got,
                        VmError::OperandOverflow {
                            pc: 3,
                            value: -300,
                            width_bits: 8
                        }
                    );
                    assert_eq!(got, reference);
                }
            }
        }
    }

    /// The shipped MatMul-n program, as `ax_workloads::matmul` builds it.
    fn matmul(n: u32) -> Program {
        let mut pb = ProgramBuilder::new("matmul", BitWidth::W8, BitWidth::W8);
        let a = pb.input("a", n * n);
        let b = pb.input("b", n * n);
        let prod = pb.temp("prod", 1);
        let c = pb.output("c", n * n);
        for i in 0..n {
            for j in 0..n {
                let out = c.at(i * n + j);
                pb.konst(out, 0);
                for k in 0..n {
                    pb.mul(prod.at(0), a.at(i * n + k), b.at(k * n + j), 0);
                    pb.add(out, prod.at(0), out);
                }
            }
        }
        pb.build().unwrap()
    }

    /// The shipped FIR program over `samples` samples with 17 taps, as
    /// `ax_workloads::fir` builds it.
    fn fir(samples: u32) -> Program {
        let taps = 17;
        let mut pb = ProgramBuilder::new("fir", BitWidth::W16, BitWidth::W32);
        let x = pb.input("x", samples + taps - 1);
        let h = pb.input("h", taps);
        let prod = pb.temp("prod", 1);
        let y = pb.output("y", samples);
        for i in 0..samples {
            pb.konst(y.at(i), 0);
            for k in 0..taps {
                pb.mul(prod.at(0), h.at(k), x.at((taps - 1) + i - k), 15);
                pb.add(y.at(i), prod.at(0), y.at(i));
            }
        }
        pb.build().unwrap()
    }

    #[test]
    fn matmul_10_and_fir_100_run_as_one_chain_op_per_output() {
        // The fingerprints are the shipped workloads' (pinned against
        // `ax_workloads` in the workspace's `tests/cache_identity.rs`), so
        // these are the programs campaigns run.
        for (prog, fingerprint, outputs, links) in [
            (matmul(10), 0x1508_cdd1_864b_0018, 100, 10),
            (fir(100), 0x9c53_591f_7b52_d905, 100, 17),
        ] {
            let skeleton = Arc::new(CompiledSkeleton::new(&prog));
            assert_eq!(skeleton.fingerprint(), fingerprint);
            assert!(skeleton.chains.iter().all(|c| c.len == links));
            assert_eq!(
                skeleton.steps.len(),
                2 * outputs,
                "a const and a chain each"
            );
            let lib = lib();
            let n_vars = prog.approximable_vars().len();
            for (adder, mul) in [(0, 0), (3, 3)] {
                let binding = Binding::new(&lib, &prog, AdderId(adder), MulId(mul)).unwrap();
                for bits in 0..(1u64 << n_vars) {
                    assert_eq!(chain_ops(&skeleton.compile(&binding, bits)), outputs);
                }
            }
        }
    }

    #[test]
    fn the_operand_check_is_the_interpreters_at_every_boundary() {
        for width in [BitWidth::W8, BitWidth::W16, BitWidth::W32] {
            let operands = OperandCheck::new(width);
            let m = width.mask() as i64;
            for v in [0, 1, -1, m, -m] {
                assert_eq!(operands.check(v, -v, 7), Ok(()), "{v} on {width}");
            }
            for v in [
                m + 1,
                -m - 1,
                i64::MAX,
                i64::MIN,
                i64::MAX - m,
                i64::MIN + m,
            ] {
                let overflow = |value| VmError::OperandOverflow {
                    pc: 7,
                    value,
                    width_bits: width.bits(),
                };
                assert_eq!(operands.check(v, 0, 7), Err(overflow(v)), "{v} on {width}");
                assert_eq!(operands.check(m, v, 7), Err(overflow(v)), "{v} on {width}");
                assert_eq!(operands.check(v, m + 2, 7), Err(overflow(v)), "x first");
            }
        }
    }

    #[test]
    fn a_compiled_op_stays_24_bytes() {
        assert_eq!(std::mem::size_of::<CompiledOp>(), 24);
    }
}
