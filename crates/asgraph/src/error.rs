//! Error types for topology construction and dataset parsing.

use crate::ingest::LineError;
use std::fmt;

/// Errors produced while building or parsing an AS-level topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A dataset line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A link connects an AS to itself, which the AS-level model forbids.
    SelfLoop {
        /// The offending AS.
        asn: u32,
    },
    /// An AS referenced by an operation is not present in the graph.
    UnknownAs {
        /// The missing AS.
        asn: u32,
    },
    /// An ASN table or edge list handed to
    /// [`AsGraph::from_canonical_edges`](crate::AsGraph::from_canonical_edges)
    /// is not in the canonical form that constructor documents.
    NotCanonical {
        /// Which rule was broken, and where.
        detail: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            GraphError::SelfLoop { asn } => write!(f, "self-loop on AS{asn}"),
            GraphError::UnknownAs { asn } => write!(f, "AS{asn} is not in the graph"),
            GraphError::NotCanonical { detail } => write!(f, "graph not in canonical form: {detail}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<LineError> for GraphError {
    fn from(LineError { line, message }: LineError) -> Self {
        GraphError::Parse { line, message }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = GraphError::Parse { line: 7, message: "bad field".into() };
        assert_eq!(e.to_string(), "parse error on line 7: bad field");
        let e = GraphError::SelfLoop { asn: 5 };
        assert!(e.to_string().contains("AS5"));
        let e = GraphError::UnknownAs { asn: 9 };
        assert!(e.to_string().contains("AS9"));
    }
}
