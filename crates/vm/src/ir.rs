//! The kernel intermediate representation.
//!
//! Programs are straight-line sequences of instructions over **named
//! variables** (scalars or arrays of `i64` cells). Every arithmetic
//! instruction records which variables it touches, which is what the paper's
//! instrumentation keys on: selecting a variable approximates *all sums or
//! multiplications on that variable*.
//!
//! Control flow is resolved at build time: benchmark generators emit the
//! fully unrolled instruction stream (loops run in the Rust builder, not the
//! interpreter), keeping the interpreter trivial and the per-instruction
//! approximation flags static.

use crate::error::VmError;
use ax_operators::BitWidth;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a program variable (index into the variable table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// The raw table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// A [`Slot`] addressing element `idx` of this variable.
    pub fn at(self, idx: u32) -> Slot {
        Slot { var: self, idx }
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A static storage location: one element of one variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Slot {
    /// The variable owning the element.
    pub var: VarId,
    /// Element index within the variable (0 for scalars).
    pub idx: u32,
}

/// Role of a variable in the program interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarRole {
    /// Filled by the caller before execution.
    Input,
    /// Read back after execution, in declaration order.
    Output,
    /// Internal scratch storage, zero-initialised.
    Temp,
}

/// Declaration record of one program variable.
#[derive(Debug, Clone)]
pub struct VarDecl {
    name: String,
    len: u32,
    role: VarRole,
    approximable: bool,
}

impl VarDecl {
    /// The variable's source-level name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of elements.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// `true` if the variable holds no elements (never true for built
    /// programs — the builder rejects empty variables).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The variable's interface role.
    pub fn role(&self) -> VarRole {
        self.role
    }

    /// `true` if the DSE may select this variable for approximation.
    pub fn approximable(&self) -> bool {
        self.approximable
    }
}

/// One straight-line instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// `dst <- value`
    Const {
        /// Destination element.
        dst: Slot,
        /// Immediate value.
        value: i64,
    },
    /// `dst <- src`
    Copy {
        /// Destination element.
        dst: Slot,
        /// Source element.
        src: Slot,
    },
    /// `dst <- a + b` through the bound adder at the program's add width.
    Add {
        /// Destination element.
        dst: Slot,
        /// Left operand.
        a: Slot,
        /// Right operand.
        b: Slot,
    },
    /// `dst <- (a * b) >> shift` through the bound multiplier at the
    /// program's multiply width (arithmetic shift; `shift` implements
    /// fixed-point rescaling such as Q15).
    Mul {
        /// Destination element.
        dst: Slot,
        /// Left operand.
        a: Slot,
        /// Right operand.
        b: Slot,
        /// Arithmetic right shift applied to the signed product.
        shift: u32,
    },
}

impl Instr {
    /// The variables this instruction touches (destination and operands).
    ///
    /// Duplicates are possible (e.g. `acc <- acc + p` yields `acc` twice);
    /// callers treat the result as a small set.
    pub fn touched_vars(&self) -> [Option<VarId>; 3] {
        match *self {
            Instr::Const { dst, .. } => [Some(dst.var), None, None],
            Instr::Copy { dst, src } => [Some(dst.var), Some(src.var), None],
            Instr::Add { dst, a, b } | Instr::Mul { dst, a, b, .. } => {
                [Some(dst.var), Some(a.var), Some(b.var)]
            }
        }
    }

    /// `true` for the arithmetic instructions that cost power/time and can
    /// be approximated (additions and multiplications, per the paper).
    pub fn is_arith(&self) -> bool {
        matches!(self, Instr::Add { .. } | Instr::Mul { .. })
    }
}

/// Aggregate instruction statistics of a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProgramStats {
    /// Total instructions.
    pub instructions: usize,
    /// Addition count.
    pub adds: usize,
    /// Multiplication count.
    pub muls: usize,
    /// Copy/const (non-arithmetic) count.
    pub moves: usize,
}

/// An immutable, validated kernel program.
#[derive(Debug, Clone)]
pub struct Program {
    name: String,
    add_width: BitWidth,
    mul_width: BitWidth,
    vars: Vec<VarDecl>,
    instrs: Vec<Instr>,
    /// Base offset of each variable in the flattened memory image.
    offsets: Vec<u32>,
    total_cells: u32,
}

impl Program {
    /// The program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Operand width used by every `Add`.
    pub fn add_width(&self) -> BitWidth {
        self.add_width
    }

    /// Operand width used by every `Mul`.
    pub fn mul_width(&self) -> BitWidth {
        self.mul_width
    }

    /// The declared variables, in declaration order.
    pub fn vars(&self) -> &[VarDecl] {
        &self.vars
    }

    /// The declaration of one variable.
    pub fn var(&self, id: VarId) -> &VarDecl {
        &self.vars[id.index()]
    }

    /// Looks a variable up by name.
    pub fn var_by_name(&self, name: &str) -> Option<VarId> {
        self.vars
            .iter()
            .position(|v| v.name == name)
            .map(|i| VarId(i as u32))
    }

    /// The instruction stream.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Ids of the variables the DSE may select for approximation, in
    /// declaration order. This is the paper's indexed variable list
    /// `a_0 .. a_{N-1}`.
    pub fn approximable_vars(&self) -> Vec<VarId> {
        self.vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.approximable)
            .map(|(i, _)| VarId(i as u32))
            .collect()
    }

    /// Ids of output variables in declaration order.
    pub fn output_vars(&self) -> Vec<VarId> {
        self.vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.role == VarRole::Output)
            .map(|(i, _)| VarId(i as u32))
            .collect()
    }

    /// Total `i64` cells in the flattened memory image.
    pub fn total_cells(&self) -> u32 {
        self.total_cells
    }

    /// Flat memory offset of a slot.
    pub(crate) fn offset(&self, slot: Slot) -> usize {
        (self.offsets[slot.var.index()] + slot.idx) as usize
    }

    /// Instruction counts by kind.
    pub fn stats(&self) -> ProgramStats {
        let mut s = ProgramStats {
            instructions: self.instrs.len(),
            ..Default::default()
        };
        for i in &self.instrs {
            match i {
                Instr::Add { .. } => s.adds += 1,
                Instr::Mul { .. } => s.muls += 1,
                _ => s.moves += 1,
            }
        }
        s
    }

    /// Renders a human-readable listing (one instruction per line) — useful
    /// in tests and docs.
    pub fn listing(&self) -> String {
        use std::fmt::Write as _;
        let slot = |s: Slot| format!("{}[{}]", self.vars[s.var.index()].name, s.idx);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "program {} (add {}, mul {})",
            self.name, self.add_width, self.mul_width
        );
        for (pc, i) in self.instrs.iter().enumerate() {
            let line = match *i {
                Instr::Const { dst, value } => format!("{} <- {value}", slot(dst)),
                Instr::Copy { dst, src } => format!("{} <- {}", slot(dst), slot(src)),
                Instr::Add { dst, a, b } => {
                    format!("{} <- {} + {}", slot(dst), slot(a), slot(b))
                }
                Instr::Mul {
                    dst,
                    a,
                    b,
                    shift: 0,
                } => {
                    format!("{} <- {} * {}", slot(dst), slot(a), slot(b))
                }
                Instr::Mul { dst, a, b, shift } => {
                    format!("{} <- ({} * {}) >> {shift}", slot(dst), slot(a), slot(b))
                }
            };
            let _ = writeln!(out, "  {pc:>5}: {line}");
        }
        out
    }
}

/// Incrementally constructs a [`Program`].
///
/// Declare variables first, then emit instructions; [`ProgramBuilder::build`]
/// validates slot bounds and interface completeness.
///
/// ```
/// use ax_vm::ir::ProgramBuilder;
/// use ax_operators::BitWidth;
///
/// # fn main() -> Result<(), ax_vm::VmError> {
/// let mut pb = ProgramBuilder::new("dot2", BitWidth::W8, BitWidth::W8);
/// let x = pb.input("x", 2);
/// let y = pb.input("y", 2);
/// let p = pb.temp("p", 1);
/// let acc = pb.output("acc", 1);
/// pb.konst(acc.at(0), 0);
/// for i in 0..2 {
///     pb.mul(p.at(0), x.at(i), y.at(i), 0);
///     pb.add(acc.at(0), acc.at(0), p.at(0));
/// }
/// let prog = pb.build()?;
/// assert_eq!(prog.stats().muls, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ProgramBuilder {
    name: String,
    add_width: BitWidth,
    mul_width: BitWidth,
    vars: Vec<VarDecl>,
    names: HashMap<String, VarId>,
    instrs: Vec<Instr>,
    error: Option<VmError>,
}

impl ProgramBuilder {
    /// Starts a program with the given arithmetic widths.
    pub fn new(name: impl Into<String>, add_width: BitWidth, mul_width: BitWidth) -> Self {
        Self {
            name: name.into(),
            add_width,
            mul_width,
            vars: Vec::new(),
            names: HashMap::new(),
            instrs: Vec::new(),
            error: None,
        }
    }

    fn declare(&mut self, name: &str, len: u32, role: VarRole, approximable: bool) -> VarId {
        let id = VarId(self.vars.len() as u32);
        if self.names.contains_key(name) {
            self.fail(VmError::DuplicateVariable {
                name: name.to_owned(),
            });
        }
        if len == 0 {
            self.fail(VmError::EmptyVariable {
                name: name.to_owned(),
            });
        }
        self.names.insert(name.to_owned(), id);
        self.vars.push(VarDecl {
            name: name.to_owned(),
            len,
            role,
            approximable,
        });
        id
    }

    /// Declares an input variable of `len` elements (approximable).
    pub fn input(&mut self, name: &str, len: u32) -> VarId {
        self.declare(name, len, VarRole::Input, true)
    }

    /// Declares an output variable of `len` elements (approximable).
    pub fn output(&mut self, name: &str, len: u32) -> VarId {
        self.declare(name, len, VarRole::Output, true)
    }

    /// Declares a temporary variable of `len` elements (approximable).
    pub fn temp(&mut self, name: &str, len: u32) -> VarId {
        self.declare(name, len, VarRole::Temp, true)
    }

    /// Excludes a variable from the DSE's selectable set (it will always
    /// execute precisely unless another touched variable is selected).
    pub fn not_approximable(&mut self, id: VarId) -> &mut Self {
        self.vars[id.index()].approximable = false;
        self
    }

    /// Emits `dst <- value`.
    pub fn konst(&mut self, dst: Slot, value: i64) -> &mut Self {
        self.push(Instr::Const { dst, value })
    }

    /// Emits `dst <- src`.
    pub fn copy(&mut self, dst: Slot, src: Slot) -> &mut Self {
        self.push(Instr::Copy { dst, src })
    }

    /// Emits `dst <- a + b`.
    pub fn add(&mut self, dst: Slot, a: Slot, b: Slot) -> &mut Self {
        self.push(Instr::Add { dst, a, b })
    }

    /// Emits `dst <- (a * b) >> shift`.
    pub fn mul(&mut self, dst: Slot, a: Slot, b: Slot, shift: u32) -> &mut Self {
        self.push(Instr::Mul { dst, a, b, shift })
    }

    fn push(&mut self, i: Instr) -> &mut Self {
        let vars = &self.vars;
        let in_bounds = |slot: Slot| vars.get(slot.var.index()).is_some_and(|d| slot.idx < d.len);
        if !slots_of(i).into_iter().flatten().all(in_bounds) {
            self.reject_slots(i);
        }
        self.instrs.push(i);
        self
    }

    /// Records the error of `i`'s first bad slot, destination first (see
    /// [`ProgramBuilder::fail`]). Out of line, so emitting a valid
    /// instruction builds no error.
    #[cold]
    #[inline(never)]
    fn reject_slots(&mut self, i: Instr) {
        for slot in slots_of(i).into_iter().flatten() {
            let Some(decl) = self.vars.get(slot.var.index()) else {
                self.fail(VmError::UnknownVariable {
                    name: format!("{}", slot.var),
                });
                continue;
            };
            if slot.idx >= decl.len {
                self.fail(VmError::IndexOutOfBounds {
                    var: decl.name.clone(),
                    index: slot.idx,
                    len: decl.len,
                });
            }
        }
    }

    fn fail(&mut self, e: VmError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    /// Validates and freezes the program.
    ///
    /// # Errors
    ///
    /// Returns the first construction error (duplicate or empty variable,
    /// out-of-bounds slot) or [`VmError::NoOutputs`] if no output variable
    /// was declared.
    pub fn build(self) -> Result<Program, VmError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if !self.vars.iter().any(|v| v.role == VarRole::Output) {
            return Err(VmError::NoOutputs);
        }
        let mut offsets = Vec::with_capacity(self.vars.len());
        let mut total = 0u32;
        for v in &self.vars {
            offsets.push(total);
            total += v.len;
        }
        Ok(Program {
            name: self.name,
            add_width: self.add_width,
            mul_width: self.mul_width,
            vars: self.vars,
            instrs: self.instrs,
            offsets,
            total_cells: total,
        })
    }
}

/// The slots `i` names, destination first: the order [`ProgramBuilder`]
/// checks them in, so the first error it reports names the earliest slot.
fn slots_of(i: Instr) -> [Option<Slot>; 3] {
    match i {
        Instr::Const { dst, .. } => [Some(dst), None, None],
        Instr::Copy { dst, src } => [Some(dst), Some(src), None],
        Instr::Add { dst, a, b } | Instr::Mul { dst, a, b, .. } => [Some(dst), Some(a), Some(b)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Program {
        let mut pb = ProgramBuilder::new("tiny", BitWidth::W8, BitWidth::W8);
        let a = pb.input("a", 2);
        let b = pb.input("b", 2);
        let t = pb.temp("t", 1);
        let y = pb.output("y", 1);
        pb.konst(y.at(0), 0);
        for i in 0..2 {
            pb.mul(t.at(0), a.at(i), b.at(i), 0);
            pb.add(y.at(0), y.at(0), t.at(0));
        }
        pb.build().unwrap()
    }

    #[test]
    fn builder_produces_expected_layout() {
        let p = tiny();
        assert_eq!(p.total_cells(), 6);
        assert_eq!(p.vars().len(), 4);
        assert_eq!(p.var_by_name("t"), Some(VarId(2)));
        assert_eq!(p.var_by_name("missing"), None);
        assert_eq!(p.offset(VarId(1).at(1)), 3);
    }

    #[test]
    fn stats_count_instruction_kinds() {
        let s = tiny().stats();
        assert_eq!(s.instructions, 5);
        assert_eq!(s.adds, 2);
        assert_eq!(s.muls, 2);
        assert_eq!(s.moves, 1);
    }

    #[test]
    fn approximable_and_output_lists() {
        let mut pb = ProgramBuilder::new("p", BitWidth::W8, BitWidth::W8);
        let a = pb.input("a", 1);
        let y = pb.output("y", 1);
        pb.not_approximable(y);
        pb.copy(y.at(0), a.at(0));
        let p = pb.build().unwrap();
        assert_eq!(p.approximable_vars(), vec![a]);
        assert_eq!(p.output_vars(), vec![y]);
    }

    #[test]
    fn duplicate_variable_rejected() {
        let mut pb = ProgramBuilder::new("p", BitWidth::W8, BitWidth::W8);
        pb.input("a", 1);
        pb.input("a", 1);
        pb.output("y", 1);
        assert!(matches!(pb.build(), Err(VmError::DuplicateVariable { .. })));
    }

    #[test]
    fn zero_length_variable_rejected() {
        let mut pb = ProgramBuilder::new("p", BitWidth::W8, BitWidth::W8);
        pb.input("a", 0);
        pb.output("y", 1);
        assert!(matches!(pb.build(), Err(VmError::EmptyVariable { .. })));
    }

    #[test]
    fn out_of_bounds_slot_rejected() {
        let mut pb = ProgramBuilder::new("p", BitWidth::W8, BitWidth::W8);
        let a = pb.input("a", 2);
        let y = pb.output("y", 1);
        pb.copy(y.at(0), a.at(2));
        assert!(matches!(pb.build(), Err(VmError::IndexOutOfBounds { .. })));
    }

    #[test]
    fn missing_output_rejected() {
        let mut pb = ProgramBuilder::new("p", BitWidth::W8, BitWidth::W8);
        pb.input("a", 1);
        assert!(matches!(pb.build(), Err(VmError::NoOutputs)));
    }

    #[test]
    fn first_error_wins() {
        let mut pb = ProgramBuilder::new("p", BitWidth::W8, BitWidth::W8);
        let a = pb.input("a", 1);
        pb.input("a", 2); // duplicate (first error)
        let y = pb.output("y", 1);
        pb.copy(y.at(0), a.at(5)); // also out of bounds
        assert!(matches!(pb.build(), Err(VmError::DuplicateVariable { .. })));
    }

    #[test]
    fn slot_errors_name_the_destination_then_a_then_b() {
        let out_of_bounds = |dst: u32, a: u32, b: u32| {
            let mut pb = ProgramBuilder::new("p", BitWidth::W8, BitWidth::W8);
            let x = pb.input("x", 1);
            let w = pb.input("w", 1);
            let y = pb.output("y", 1);
            pb.mul(y.at(dst), x.at(a), w.at(b), 0);
            match pb.build() {
                Err(VmError::IndexOutOfBounds { var, index, .. }) => (var, index),
                other => panic!("expected an out-of-bounds slot, got {other:?}"),
            }
        };
        assert_eq!(out_of_bounds(3, 5, 7), ("y".to_owned(), 3));
        assert_eq!(out_of_bounds(0, 5, 7), ("x".to_owned(), 5));
        assert_eq!(out_of_bounds(0, 0, 7), ("w".to_owned(), 7));
    }

    #[test]
    fn touched_vars_cover_operands() {
        let p = tiny();
        let mul = p.instrs()[1];
        let touched: Vec<_> = mul.touched_vars().into_iter().flatten().collect();
        assert!(touched.contains(&p.var_by_name("t").unwrap()));
        assert!(touched.contains(&p.var_by_name("a").unwrap()));
        assert!(touched.contains(&p.var_by_name("b").unwrap()));
        assert!(mul.is_arith());
        assert!(!p.instrs()[0].is_arith());
    }

    #[test]
    fn listing_mentions_variables_and_widths() {
        let text = tiny().listing();
        assert!(text.contains("program tiny"));
        assert!(text.contains("8-bit"));
        assert!(text.contains("y[0] <- y[0] + t[0]"));
        assert!(text.contains("t[0] <- a[0] * b[0]"));
    }
}
