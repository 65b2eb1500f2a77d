//! Compiler error type.

use std::fmt;

use camus_bdd::BddError;
use camus_lang::ast::FieldRef;
use camus_lang::dnf::DnfOverflow;
use camus_pipeline::PipelineError;

/// Errors from static or dynamic compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A rule references a field that is not annotated `@query_field`
    /// (or is ambiguous in shorthand form).
    UnresolvedField(FieldRef),
    /// A rule references an undeclared state variable.
    UnknownStateVar(String),
    /// A range predicate (`<`/`>`) on an `@query_field_exact` field.
    RangeOnExactField(FieldRef),
    /// A constant does not fit the field's width.
    ValueOutOfRange {
        /// The field.
        field: FieldRef,
        /// The offending constant.
        value: u64,
        /// Field width in bits.
        bits: u32,
    },
    /// Aggregate macro used without an argument field (only `count()`
    /// may be nullary).
    AggNeedsField(&'static str),
    /// A rule's condition exploded during DNF normalization.
    Dnf(DnfOverflow),
    /// BDD construction failed (internal inconsistency).
    Bdd(BddError),
    /// The generated program failed to configure the pipeline.
    Pipeline(PipelineError),
    /// The spec cannot be compiled with the chosen encapsulation.
    BadSpec(String),
    /// An incremental update needs resources the installed program
    /// lacks (new predicates or state slots): fall back to a full
    /// compile.
    NeedsFullRecompile(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnresolvedField(fr) => {
                write!(
                    f,
                    "field `{fr}` is not a declared @query_field (or is ambiguous)"
                )
            }
            CompileError::UnknownStateVar(v) => write!(f, "unknown state variable `{v}`"),
            CompileError::RangeOnExactField(fr) => {
                write!(f, "range predicate on exact-match field `{fr}`")
            }
            CompileError::ValueOutOfRange { field, value, bits } => {
                write!(
                    f,
                    "constant {value} does not fit {bits}-bit field `{field}`"
                )
            }
            CompileError::AggNeedsField(name) => {
                write!(f, "aggregate `{name}` requires a field argument")
            }
            CompileError::Dnf(e) => write!(f, "{e}"),
            CompileError::Bdd(e) => write!(f, "BDD construction: {e}"),
            CompileError::Pipeline(e) => write!(f, "pipeline configuration: {e}"),
            CompileError::BadSpec(msg) => write!(f, "bad spec: {msg}"),
            CompileError::NeedsFullRecompile(msg) => {
                write!(f, "incremental update not possible: {msg}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<DnfOverflow> for CompileError {
    fn from(e: DnfOverflow) -> Self {
        CompileError::Dnf(e)
    }
}

impl From<BddError> for CompileError {
    fn from(e: BddError) -> Self {
        CompileError::Bdd(e)
    }
}

impl From<PipelineError> for CompileError {
    fn from(e: PipelineError) -> Self {
        CompileError::Pipeline(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let e = CompileError::UnresolvedField(FieldRef::short("volume"));
        assert!(e.to_string().contains("volume"));
        let e = CompileError::ValueOutOfRange {
            field: FieldRef::short("price"),
            value: 300,
            bits: 8,
        };
        assert!(e.to_string().contains("300"));
    }
}
