//! Error types for pipeline configuration and execution.

use std::fmt;

/// Errors raised while configuring or running the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The parser ran past the end of the packet.
    ParseUnderflow {
        /// Parse state that needed more bytes.
        state: String,
        /// Bits needed beyond the packet end.
        missing_bits: u32,
    },
    /// The parser's select field matched no transition and the state has
    /// no default.
    ParseNoTransition {
        /// Parse state name.
        state: String,
        /// The selector value that matched nothing.
        value: u64,
    },
    /// The parser exceeded its loop bound (malformed packet or a parse
    /// graph cycle without `advance`).
    ParseLoopBound,
    /// A table references a PHV field that does not exist in the layout.
    UnknownPhvField(String),
    /// An entry's match values do not line up with the table's keys.
    EntryShapeMismatch {
        /// Table name.
        table: String,
        /// Expected number of match values (= number of keys).
        expected: usize,
        /// Provided number.
        got: usize,
    },
    /// An entry uses a match value incompatible with the key's kind
    /// (e.g. a range on an exact key).
    EntryKindMismatch {
        /// Table name.
        table: String,
        /// Key position.
        key: usize,
    },
    /// A table's key list is not one the interval index holds (`[]`,
    /// `[Exact]`, `[Range]`, `[Exact, Exact|Range]`).
    UnsupportedKeys {
        /// Table name.
        table: String,
    },
    /// A table was looked up after an entry change without a
    /// `prepare()` — the executor never falls back to a scan.
    TableNotPrepared {
        /// Table name.
        table: String,
    },
    /// An action referenced a multicast group that was never configured.
    UnknownGroup(u32),
    /// An action referenced a register slot out of range.
    RegisterOutOfRange(usize),
    /// The program does not fit the ASIC resource model.
    PlacementFailure(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::ParseUnderflow {
                state,
                missing_bits,
            } => {
                write!(
                    f,
                    "parser underflow in state `{state}`: needs {missing_bits} more bits"
                )
            }
            PipelineError::ParseNoTransition { state, value } => {
                write!(
                    f,
                    "no parser transition from `{state}` on selector value {value:#x}"
                )
            }
            PipelineError::ParseLoopBound => write!(f, "parser loop bound exceeded"),
            PipelineError::UnknownPhvField(name) => write!(f, "unknown PHV field `{name}`"),
            PipelineError::EntryShapeMismatch {
                table,
                expected,
                got,
            } => {
                write!(
                    f,
                    "table `{table}`: entry has {got} match values, keys require {expected}"
                )
            }
            PipelineError::EntryKindMismatch { table, key } => {
                write!(
                    f,
                    "table `{table}`: match value incompatible with key {key}"
                )
            }
            PipelineError::UnsupportedKeys { table } => {
                write!(f, "table `{table}`: key list cannot be lowered")
            }
            PipelineError::TableNotPrepared { table } => {
                write!(f, "table `{table}`: looked up before prepare()")
            }
            PipelineError::UnknownGroup(g) => write!(f, "unknown multicast group {g}"),
            PipelineError::RegisterOutOfRange(i) => write!(f, "register slot {i} out of range"),
            PipelineError::PlacementFailure(msg) => write!(f, "placement failure: {msg}"),
        }
    }
}

impl std::error::Error for PipelineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let e = PipelineError::EntryShapeMismatch {
            table: "stock".into(),
            expected: 2,
            got: 1,
        };
        assert!(e.to_string().contains("stock"));
        assert!(PipelineError::ParseLoopBound.to_string().contains("loop"));
    }
}
