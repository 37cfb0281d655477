//! Error types shared across the workspace.

use std::fmt;

use crate::sym::Sym;

/// Convenient result alias over [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by the foundation types and re-used by the engine crates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A literal failed to parse (addresses, prefixes, rule text).
    Parse(String),
    /// A value had the wrong dynamic type.
    Type {
        /// The type the caller required.
        expected: &'static str,
        /// The type actually found.
        got: &'static str,
    },
    /// A tuple did not match its table's declared schema.
    Schema {
        /// The offending table.
        table: Sym,
        /// Human-readable explanation.
        message: String,
    },
    /// A table was referenced but never declared.
    UnknownTable(Sym),
    /// Arithmetic failed while evaluating or inverting an expression
    /// (division by zero, overflow, modulo of negative operands, ...).
    Arith(String),
    /// An expression could not be inverted during taint propagation
    /// (Section 4.5: e.g. a hash). The payload describes the computation.
    NonInvertible(String),
    /// A durable byte stream failed to decode (truncation, a bad tag, a
    /// checksum or version mismatch). `context` names the structure being
    /// decoded; `detail` says what was wrong with the bytes. Decoders
    /// return this — they never panic on corrupt input.
    Codec {
        /// The structure being decoded (e.g. "value", "layer header").
        context: &'static str,
        /// What was wrong with the bytes.
        detail: String,
    },
    /// A catch-all for engine-level failures with context attached.
    Engine(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(msg) => write!(f, "parse error: {msg}"),
            Error::Type { expected, got } => {
                write!(f, "type error: expected {expected}, got {got}")
            }
            Error::Schema { table, message } => {
                write!(f, "schema error in table {table}: {message}")
            }
            Error::UnknownTable(t) => write!(f, "unknown table {t}"),
            Error::Arith(msg) => write!(f, "arithmetic error: {msg}"),
            Error::NonInvertible(msg) => write!(f, "non-invertible computation: {msg}"),
            Error::Codec { context, detail } => {
                write!(f, "codec error decoding {context}: {detail}")
            }
            Error::Engine(msg) => write!(f, "engine error: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = Error::Schema {
            table: Sym::new("flowEntry"),
            message: "arity 3, got 2".into(),
        };
        assert_eq!(
            e.to_string(),
            "schema error in table flowEntry: arity 3, got 2"
        );
        let e = Error::UnknownTable(Sym::new("nope"));
        assert!(e.to_string().contains("nope"));
    }
}
