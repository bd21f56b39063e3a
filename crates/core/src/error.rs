//! Error type for core operations.

use crate::{Attr, Schema};
use std::fmt;

/// Errors produced by bag/relation operations.
#[derive(Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A tuple's arity did not match the schema it was used with.
    ArityMismatch {
        /// Arity the schema requires.
        expected: usize,
        /// Arity that was supplied.
        got: usize,
    },
    /// An operation required `sub ⊆ sup` on schemas but it did not hold.
    NotASubschema {
        /// The would-be subschema.
        sub: Schema,
        /// The schema it had to be contained in.
        sup: Schema,
    },
    /// Two operands were required to have the same schema.
    SchemaMismatch {
        /// Schema of the left operand.
        left: Schema,
        /// Schema of the right operand.
        right: Schema,
    },
    /// An attribute assignment mentioned an attribute twice.
    DuplicateAttr(Attr),
    /// An attribute assignment did not cover the full schema.
    MissingAttr(Attr),
    /// A multiplicity computation exceeded `u64::MAX`.
    ///
    /// The paper's size bounds (Theorem 3) concern binary-encoded
    /// multiplicities; rather than silently wrapping we surface overflow.
    MultiplicityOverflow,
    /// A signed multiplicity delta would drive a count below zero
    /// ([`crate::Bag::apply_delta`]).
    MultiplicityUnderflow,
    /// A configuration builder rejected its inputs (e.g. zero threads in
    /// [`crate::exec::ExecConfigBuilder::build`]).
    InvalidConfig(&'static str),
    /// The operation stopped at a poll site before completing: its
    /// [`crate::Deadline`] expired or a search budget ran out. The
    /// operands are left exactly as they were — callers can retry with a
    /// larger budget or surface the reason as an "unknown" answer.
    Aborted(crate::AbortReason),
    /// A worker thread panicked inside a parallel bulk operation. The
    /// executor contained the panic ([`crate::exec::try_run_tasks`]),
    /// cancelled the sibling chunks, and reports which task failed; the
    /// operation's operands are left exactly as they were.
    WorkerPanicked {
        /// Index of the task whose body panicked.
        task: usize,
        /// The panic payload's message, when it was a string.
        message: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "tuple arity {got} does not match schema arity {expected}"
                )
            }
            CoreError::NotASubschema { sub, sup } => {
                write!(f, "schema {sub} is not a subset of {sup}")
            }
            CoreError::SchemaMismatch { left, right } => {
                write!(f, "schemas differ: {left} vs {right}")
            }
            CoreError::DuplicateAttr(a) => write!(f, "attribute {a} assigned twice"),
            CoreError::MissingAttr(a) => write!(f, "attribute {a} missing from assignment"),
            CoreError::MultiplicityOverflow => {
                write!(f, "multiplicity arithmetic overflowed u64")
            }
            CoreError::MultiplicityUnderflow => {
                write!(f, "multiplicity delta drove a count below zero")
            }
            CoreError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::Aborted(reason) => write!(f, "operation aborted: {reason}"),
            CoreError::WorkerPanicked { task, message } => {
                write!(f, "worker task {task} panicked: {message}")
            }
        }
    }
}

impl fmt::Debug for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Attr;

    #[test]
    fn display_messages() {
        let s1 = Schema::from_attrs([Attr(0), Attr(1)]);
        let s2 = Schema::from_attrs([Attr(2)]);
        let e = CoreError::NotASubschema {
            sub: s2.clone(),
            sup: s1.clone(),
        };
        assert!(e.to_string().contains("not a subset"));
        let e = CoreError::SchemaMismatch {
            left: s1,
            right: s2,
        };
        assert!(e.to_string().contains("schemas differ"));
        assert!(CoreError::MultiplicityOverflow
            .to_string()
            .contains("overflow"));
        assert!(CoreError::ArityMismatch {
            expected: 2,
            got: 3
        }
        .to_string()
        .contains("arity"));
        assert!(CoreError::DuplicateAttr(Attr(1))
            .to_string()
            .contains("twice"));
        assert!(CoreError::MissingAttr(Attr(1))
            .to_string()
            .contains("missing"));
    }
}
