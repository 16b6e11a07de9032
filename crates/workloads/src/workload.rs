//! The workload contract shared by all benchmarks.

use ax_operators::OperatorLibrary;
use ax_vm::exec::{Binding, ExecOutcome, Executor};
use ax_vm::instrument::VarMask;
use ax_vm::ir::Program;
use ax_vm::VmError;

/// A benchmark kernel: a program plus a seeded input generator.
///
/// Implementations build the *same* program regardless of seed; only the
/// input data varies. The precise reference outputs are obtained by running
/// the program under a precise [`Binding`] — exactly how the paper computes
/// its accuracy baseline.
pub trait Workload {
    /// Stable identifier, e.g. `"matmul-10x10"`.
    fn name(&self) -> String;

    /// Builds the kernel program.
    ///
    /// # Errors
    ///
    /// Propagates IR construction errors (a bug in the generator).
    fn build(&self) -> Result<Program, VmError>;

    /// Deterministically generates the named input vectors for `seed`.
    fn inputs(&self, seed: u64) -> Vec<(String, Vec<i64>)>;

    /// Builds the program and binds the seeded inputs.
    ///
    /// # Errors
    ///
    /// Propagates construction/binding errors.
    fn prepare(&self, seed: u64) -> Result<PreparedWorkload, VmError> {
        let program = self.build()?;
        let inputs = self.inputs(seed);
        Ok(PreparedWorkload { program, inputs })
    }
}

/// A built program together with its bound input data.
#[derive(Debug, Clone)]
pub struct PreparedWorkload {
    /// The kernel program.
    pub program: Program,
    /// Named input vectors.
    pub inputs: Vec<(String, Vec<i64>)>,
}

impl PreparedWorkload {
    /// An [`Executor`] with all inputs bound.
    ///
    /// # Errors
    ///
    /// Propagates input binding errors (a generator/program mismatch).
    pub fn executor(&self) -> Result<Executor<'_>, VmError> {
        let mut ex = Executor::new(&self.program);
        for (name, values) in &self.inputs {
            ex = ex.with_input(name, values)?;
        }
        Ok(ex)
    }

    /// Runs the workload precisely (the paper's reference execution).
    ///
    /// # Errors
    ///
    /// Propagates binding and execution errors.
    pub fn run_precise(&self, lib: &OperatorLibrary) -> Result<ExecOutcome, VmError> {
        let binding = Binding::precise(lib, &self.program)?;
        self.executor()?
            .run(&binding, &VarMask::none(&self.program))
    }

    /// Runs the workload under an arbitrary binding and variable selection.
    ///
    /// # Errors
    ///
    /// Propagates execution errors.
    pub fn run(&self, binding: &Binding<'_>, mask: &VarMask) -> Result<ExecOutcome, VmError> {
        self.executor()?.run(binding, mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::MatMul;

    #[test]
    fn prepare_binds_all_inputs() {
        let wl = MatMul::new(3);
        let prepared = wl.prepare(9).unwrap();
        let lib = OperatorLibrary::evoapprox();
        let out = prepared.run_precise(&lib).unwrap();
        assert_eq!(out.outputs.len(), 9);
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        let wl = MatMul::new(3);
        assert_ne!(wl.inputs(1), wl.inputs(2));
        assert_eq!(wl.inputs(5), wl.inputs(5));
    }
}
