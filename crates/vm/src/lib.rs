//! Instrumented-execution substrate: kernel IR, interpreter, instrumentation
//! and per-operation cost accounting.
//!
//! The reproduced paper "considers a CPU running software with dedicated
//! instructions to trigger different approximate adders and multipliers" and
//! generates approximate application versions "through automatic code
//! instrumentation" that approximates *all sums or multiplications on selected
//! variables*. This crate is that substrate:
//!
//! * [`ir`] — a small straight-line kernel IR whose arithmetic instructions
//!   are tagged with the **named variables** they read and write, built
//!   through [`ir::ProgramBuilder`];
//! * [`instrument`] — variable-selection masks ([`instrument::VarMask`]) and
//!   the rule deciding which instructions execute approximately (an
//!   instruction is approximate iff it touches a selected variable);
//! * [`exec`] — the interpreter: executes a program under an operator
//!   [`exec::Binding`], routing flagged additions and multiplications
//!   through the bound approximate models while accumulating power and time
//!   ([`cost::ArithProfile`]);
//! * [`cost`] — per-run cost accounting, with power/time computed from the
//!   pre-characterised per-operation constants exactly as in the paper;
//! * [`compile`] — the threaded-code compiler: specialises a
//!   `(Program, Binding, VarMask)` triple into a pre-resolved
//!   [`compile::CompiledProgram`] (offsets resolved, approximate/precise
//!   choice baked per instruction, multiply-accumulate chains fused into
//!   one op each, profile computed analytically at compile time) —
//!   bit-identical to the interpreter, several times faster on DSE
//!   sweeps;
//! * [`fingerprint`] — a seedless 64-bit content digest, which keys cached
//!   evaluation outcomes by the program, operators and inputs that produced
//!   them.
//!
//! # Arithmetic semantics
//!
//! Registers are `i64`. An `Add` at width `W` feeds the low `W` bits of both
//! operands through the (possibly approximate) adder slice and adds the upper
//! bits exactly, propagating the slice's carry — the standard "approximate
//! low-part ALU" construction, which handles two's-complement signs
//! transparently. Every adder kind changes only the low `k ≤ W` bits of the
//! sum and the carry into bit `k`, so the compiled engine computes the same
//! value as one 64-bit expression, `((x >> k) + (y >> k) + c) << k | low`:
//! truncation and the constant-low adders have `c = 0` and a constant
//! `low`; LOA takes `c` from bit `k − 1` of `x & y` and `low` from
//! `x | y`; the pass-through adder takes `c` from bit `k − 1` of `x` and
//! `low` from `y` (both with `c = 0` at `k = W`); and the carry-cut adder
//! takes `c` from its look-back window and `low` from the exact sum. The
//! interpreter keeps the sliced form as the reference. A `Mul` at width `W`
//! requires operand magnitudes to fit `W` bits and uses the sign-magnitude
//! embedding.
//!
//! ```
//! use ax_vm::ir::ProgramBuilder;
//! use ax_vm::exec::{Binding, Executor};
//! use ax_vm::instrument::VarMask;
//! use ax_operators::{BitWidth, OperatorLibrary};
//!
//! # fn main() -> Result<(), ax_vm::VmError> {
//! // y = a*b + c, all on 8-bit data.
//! let mut pb = ProgramBuilder::new("axpy", BitWidth::W8, BitWidth::W8);
//! let a = pb.input("a", 1);
//! let b = pb.input("b", 1);
//! let c = pb.input("c", 1);
//! let p = pb.temp("p", 1);
//! let y = pb.output("y", 1);
//! pb.mul(p.at(0), a.at(0), b.at(0), 0);
//! pb.add(y.at(0), p.at(0), c.at(0));
//! let prog = pb.build()?;
//!
//! let lib = OperatorLibrary::evoapprox();
//! let binding = Binding::precise(&lib, &prog)?;
//! let out = Executor::new(&prog)
//!     .with_input("a", &[7])?
//!     .with_input("b", &[6])?
//!     .with_input("c", &[10])?
//!     .run(&binding, &VarMask::none(&prog))?;
//! assert_eq!(out.outputs, vec![52]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod compile;
pub mod cost;
pub mod error;
pub mod exec;
pub mod fingerprint;
pub mod instrument;
pub mod ir;

pub use compile::{CompiledProgram, CompiledSkeleton, SelectionClass};
pub use cost::ArithProfile;
pub use error::VmError;
pub use exec::{Binding, ExecOutcome, Executor};
pub use fingerprint::Fingerprint;
pub use instrument::VarMask;
pub use ir::{Program, ProgramBuilder, Slot, VarId};
