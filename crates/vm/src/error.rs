//! Error type for program construction and execution.

use std::error::Error;
use std::fmt;

/// Errors raised while building or executing a kernel program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// A variable name was declared twice in one program.
    DuplicateVariable {
        /// The clashing name.
        name: String,
    },
    /// A slot refers past the end of its variable.
    IndexOutOfBounds {
        /// The variable's name.
        var: String,
        /// The offending element index.
        index: u32,
        /// The variable's declared length.
        len: u32,
    },
    /// A referenced variable name does not exist in the program.
    UnknownVariable {
        /// The unresolved name.
        name: String,
    },
    /// An input variable was not provided before running.
    MissingInput {
        /// The input variable's name.
        name: String,
    },
    /// Provided input data does not match the variable's length.
    InputLengthMismatch {
        /// The input variable's name.
        name: String,
        /// Declared length.
        expected: u32,
        /// Provided length.
        got: usize,
    },
    /// A multiplication operand's magnitude exceeds the multiplier width.
    OperandOverflow {
        /// Instruction index within the program.
        pc: usize,
        /// The offending operand value.
        value: i64,
        /// The multiplier operand width in bits.
        width_bits: u32,
    },
    /// The operator library has no operators for a requested width.
    UnsupportedWidth {
        /// What was requested ("adder" or "multiplier").
        what: &'static str,
        /// The requested width in bits.
        width_bits: u32,
    },
    /// A program must declare at least one output element.
    NoOutputs,
    /// A program declared a zero-length variable.
    EmptyVariable {
        /// The variable's name.
        name: String,
    },
    /// The design space (adders × multipliers × variable selections) is
    /// larger than the exploration supports.
    DesignSpaceTooLarge {
        /// Adders at the program's addition width.
        adders: usize,
        /// Multipliers at the program's multiplication width.
        multipliers: usize,
        /// Approximable variables of the program.
        variables: usize,
        /// The most designs a space may hold.
        max_designs: usize,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::DuplicateVariable { name } => {
                write!(f, "variable `{name}` declared more than once")
            }
            VmError::IndexOutOfBounds { var, index, len } => {
                write!(f, "index {index} out of bounds for variable `{var}` of length {len}")
            }
            VmError::UnknownVariable { name } => write!(f, "unknown variable `{name}`"),
            VmError::MissingInput { name } => write!(f, "input `{name}` was not provided"),
            VmError::InputLengthMismatch { name, expected, got } => write!(
                f,
                "input `{name}` expects {expected} elements but {got} were provided"
            ),
            VmError::OperandOverflow { pc, value, width_bits } => write!(
                f,
                "multiplication operand {value} at instruction {pc} exceeds {width_bits}-bit magnitude"
            ),
            VmError::UnsupportedWidth { what, width_bits } => {
                write!(f, "operator library provides no {width_bits}-bit {what}")
            }
            VmError::NoOutputs => write!(f, "program declares no output elements"),
            VmError::EmptyVariable { name } => {
                write!(f, "variable `{name}` has zero length")
            }
            VmError::DesignSpaceTooLarge {
                adders,
                multipliers,
                variables,
                max_designs,
            } => write!(
                f,
                "design space of {adders} adders × {multipliers} multipliers × 2^{variables} \
                 variable selections exceeds {max_designs} designs"
            ),
        }
    }
}

impl Error for VmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_specific() {
        let cases: Vec<VmError> = vec![
            VmError::DuplicateVariable { name: "x".into() },
            VmError::IndexOutOfBounds {
                var: "a".into(),
                index: 9,
                len: 4,
            },
            VmError::UnknownVariable {
                name: "ghost".into(),
            },
            VmError::MissingInput { name: "in".into() },
            VmError::InputLengthMismatch {
                name: "in".into(),
                expected: 4,
                got: 2,
            },
            VmError::OperandOverflow {
                pc: 3,
                value: 300,
                width_bits: 8,
            },
            VmError::UnsupportedWidth {
                what: "adder",
                width_bits: 32,
            },
            VmError::NoOutputs,
            VmError::EmptyVariable { name: "z".into() },
            VmError::DesignSpaceTooLarge {
                adders: 6,
                multipliers: 6,
                variables: 11,
                max_designs: 65_535,
            },
        ];
        for e in cases {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase(), "{msg}");
            assert!(!msg.ends_with('.'), "{msg}");
        }
    }

    #[test]
    fn implements_std_error() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<VmError>();
    }
}
