//! Variable selection and automatic instruction instrumentation.
//!
//! The paper's approximation unit is the **variable**: a configuration
//! selects a subset of program variables, and every addition or
//! multiplication touching a selected variable executes on the approximate
//! operators. [`VarMask`] is the boolean selection vector
//! (`variables_approx = {a_0 .. a_{N-1} | a_i ∈ {0, 1}}` in the paper's
//! Equation 1) and [`instruction_flags`] derives the per-instruction
//! approximate/precise decision — the "automatic code instrumentation".

use crate::ir::{Program, VarId};
use std::fmt;

/// A selection of program variables for approximation.
///
/// The mask is indexed over the program's **approximable** variable list
/// (`Program::approximable_vars`), which is how the paper's environment
/// exposes it to the agent: bit `i` selects the `i`-th approximable variable.
///
/// ```
/// use ax_vm::ir::ProgramBuilder;
/// use ax_vm::instrument::VarMask;
/// use ax_operators::BitWidth;
///
/// # fn main() -> Result<(), ax_vm::VmError> {
/// let mut pb = ProgramBuilder::new("p", BitWidth::W8, BitWidth::W8);
/// let a = pb.input("a", 1);
/// let y = pb.output("y", 1);
/// pb.copy(y.at(0), a.at(0));
/// let prog = pb.build()?;
///
/// let mut mask = VarMask::none(&prog);
/// assert_eq!(mask.count_selected(), 0);
/// mask.set(0, true);
/// assert!(mask.is_selected(0));
/// assert!(mask.selected_vars().contains(&a));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VarMask {
    bits: u64,
    len: u32,
    /// Approximable variable ids, in mask-bit order.
    vars: Vec<VarId>,
}

impl VarMask {
    /// An empty selection over the program's approximable variables.
    ///
    /// # Panics
    ///
    /// Panics if the program has more than 64 approximable variables (the
    /// paper's configurations are far below this; the DSE state space would
    /// be astronomically large anyway).
    pub fn none(program: &Program) -> Self {
        let vars = program.approximable_vars();
        assert!(
            vars.len() <= 64,
            "at most 64 approximable variables supported"
        );
        Self {
            bits: 0,
            len: vars.len() as u32,
            vars,
        }
    }

    /// A selection with every approximable variable chosen.
    pub fn all(program: &Program) -> Self {
        let mut m = Self::none(program);
        m.bits = if m.len == 64 {
            u64::MAX
        } else {
            (1u64 << m.len) - 1
        };
        m
    }

    /// Number of mask positions (approximable variables).
    pub fn len(&self) -> u32 {
        self.len
    }

    /// `true` if the program has no approximable variables.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` if mask position `i` is selected.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn is_selected(&self, i: u32) -> bool {
        assert!(i < self.len, "mask index {i} out of range {}", self.len);
        (self.bits >> i) & 1 == 1
    }

    /// Sets mask position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn set(&mut self, i: u32, selected: bool) {
        assert!(i < self.len, "mask index {i} out of range {}", self.len);
        if selected {
            self.bits |= 1 << i;
        } else {
            self.bits &= !(1 << i);
        }
    }

    /// Flips mask position `i`, returning the new value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn toggle(&mut self, i: u32) -> bool {
        assert!(i < self.len, "mask index {i} out of range {}", self.len);
        self.bits ^= 1 << i;
        self.is_selected(i)
    }

    /// Number of selected positions.
    pub fn count_selected(&self) -> u32 {
        self.bits.count_ones()
    }

    /// `true` if every position is selected — the paper's "variables
    /// contains all ones" termination condition.
    pub fn is_all_selected(&self) -> bool {
        self.count_selected() == self.len
    }

    /// The selected variable ids.
    pub fn selected_vars(&self) -> Vec<VarId> {
        (0..self.len)
            .filter(|&i| self.is_selected(i))
            .map(|i| self.vars[i as usize])
            .collect()
    }

    /// The raw bit pattern (low `len` bits meaningful) — used as part of the
    /// DSE state key.
    pub fn raw_bits(&self) -> u64 {
        self.bits
    }

    /// Reconstructs a mask from raw bits over the same program.
    ///
    /// # Panics
    ///
    /// Panics if `bits` has positions set at or above `len()`.
    pub fn with_bits(program: &Program, bits: u64) -> Self {
        let mut m = Self::none(program);
        m.set_raw_bits(bits);
        m
    }

    /// Replaces the whole selection in place — the interpreter engine
    /// reuses one mask across many configurations instead of rebuilding
    /// the variable table per design.
    ///
    /// # Panics
    ///
    /// Panics if `bits` has positions set at or above `len()`.
    pub fn set_raw_bits(&mut self, bits: u64) {
        let valid = if self.len == 64 {
            u64::MAX
        } else {
            (1u64 << self.len) - 1
        };
        assert!(
            bits & !valid == 0,
            "bits {bits:#x} exceed mask length {}",
            self.len
        );
        self.bits = bits;
    }
}

impl fmt::Display for VarMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", if self.is_selected(i) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

/// Computes the per-instruction approximation flags for a selection: flag
/// `pc` is `true` iff instruction `pc` is an addition or multiplication
/// touching at least one selected variable.
pub fn instruction_flags(program: &Program, mask: &VarMask) -> Vec<bool> {
    let mut flags = Vec::new();
    instruction_flags_into(program, mask, &mut flags);
    flags
}

/// Buffer-reusing variant of [`instruction_flags`]: clears and refills
/// `flags` instead of allocating a fresh vector, so evaluators can
/// amortise the allocation across thousands of designs.
pub fn instruction_flags_into(program: &Program, mask: &VarMask, flags: &mut Vec<bool>) {
    let selected = mask.selected_vars();
    let is_selected = |v: VarId| selected.contains(&v);
    flags.clear();
    flags.extend(
        program
            .instrs()
            .iter()
            .map(|i| i.is_arith() && i.touched_vars().into_iter().flatten().any(is_selected)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ProgramBuilder;
    use ax_operators::BitWidth;

    fn prog() -> Program {
        let mut pb = ProgramBuilder::new("p", BitWidth::W8, BitWidth::W8);
        let a = pb.input("a", 1);
        let b = pb.input("b", 1);
        let t = pb.temp("t", 1);
        let y = pb.output("y", 1);
        pb.not_approximable(y);
        pb.mul(t.at(0), a.at(0), b.at(0), 0); // touches a, b, t
        pb.add(y.at(0), y.at(0), t.at(0)); // touches y, t
        pb.copy(y.at(0), y.at(0)); // never approximable
        pb.build().unwrap()
    }

    #[test]
    fn none_and_all() {
        let p = prog();
        let none = VarMask::none(&p);
        assert_eq!(none.len(), 3); // a, b, t (y excluded)
        assert_eq!(none.count_selected(), 0);
        assert!(!none.is_all_selected());

        let all = VarMask::all(&p);
        assert_eq!(all.count_selected(), 3);
        assert!(all.is_all_selected());
    }

    #[test]
    fn set_toggle_roundtrip() {
        let p = prog();
        let mut m = VarMask::none(&p);
        assert!(m.toggle(1));
        assert!(m.is_selected(1));
        assert!(!m.toggle(1));
        assert!(!m.is_selected(1));
        m.set(2, true);
        m.set(2, true); // idempotent
        assert_eq!(m.count_selected(), 1);
    }

    #[test]
    fn selected_vars_map_to_ids() {
        let p = prog();
        let mut m = VarMask::none(&p);
        m.set(0, true); // a
        m.set(2, true); // t
        let sel = m.selected_vars();
        assert_eq!(sel.len(), 2);
        assert!(sel.contains(&p.var_by_name("a").unwrap()));
        assert!(sel.contains(&p.var_by_name("t").unwrap()));
    }

    #[test]
    fn raw_bits_roundtrip() {
        let p = prog();
        let mut m = VarMask::none(&p);
        m.set(0, true);
        m.set(2, true);
        let restored = VarMask::with_bits(&p, m.raw_bits());
        assert_eq!(m, restored);
    }

    #[test]
    #[should_panic(expected = "exceed mask length")]
    fn with_bits_rejects_overflow() {
        let p = prog();
        VarMask::with_bits(&p, 0b1000);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_rejects_out_of_range() {
        let p = prog();
        VarMask::none(&p).set(3, true);
    }

    #[test]
    fn flags_follow_touched_variables() {
        let p = prog();
        // Select only `a`: the mul touches a -> approx; the add does not.
        let mut m = VarMask::none(&p);
        m.set(0, true);
        assert_eq!(instruction_flags(&p, &m), vec![true, false, false]);

        // Select only `t`: both arithmetic instructions touch t.
        let mut m = VarMask::none(&p);
        m.set(2, true);
        assert_eq!(instruction_flags(&p, &m), vec![true, true, false]);

        // Empty selection: nothing approximate.
        assert_eq!(instruction_flags(&p, &VarMask::none(&p)), vec![false; 3]);
    }

    #[test]
    fn copies_never_flagged() {
        let p = prog();
        let flags = instruction_flags(&p, &VarMask::all(&p));
        assert!(
            !flags[2],
            "copy must stay precise even with all vars selected"
        );
    }

    #[test]
    fn display_is_bit_string() {
        let p = prog();
        let mut m = VarMask::none(&p);
        m.set(0, true);
        assert_eq!(m.to_string(), "100");
    }
}
