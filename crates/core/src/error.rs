//! The simulation path's unified error type.
//!
//! The crates below `flatnet-core` each carry a narrow error enum
//! ([`GraphError`] for topology parsing/building, [`SweepError`] for
//! per-item sweep failures, [`ExclusionError`] for tier sets applied to
//! the wrong graph). [`FlatnetError`] folds them into one type with `From`
//! conversions, so the pipeline and the CLI can use `?` end-to-end
//! instead of stringifying at every crate boundary.

use flatnet_asgraph::GraphError;
use flatnet_bgpsim::parallel::SweepError;
use flatnet_bgpsim::ExclusionError;
use std::fmt;

/// Any failure on the measurement/simulation path.
#[derive(Debug, Clone)]
pub enum FlatnetError {
    /// Topology parsing or construction failed.
    Graph(GraphError),
    /// A single sweep item failed (panic isolated to one origin).
    Sweep(SweepError),
    /// The tier sets handed to an exclusion do not belong to the graph.
    Exclusion(ExclusionError),
    /// An I/O failure, annotated with the path involved.
    Io {
        /// The file or directory the operation touched.
        path: String,
        /// The underlying error message.
        message: String,
    },
    /// Invalid input or configuration (bad flag value, unknown AS, ...).
    Invalid(String),
}

impl fmt::Display for FlatnetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlatnetError::Graph(e) => write!(f, "{e}"),
            FlatnetError::Sweep(e) => write!(f, "{e}"),
            FlatnetError::Exclusion(e) => write!(f, "{e}"),
            FlatnetError::Io { path, message } => write!(f, "{path}: {message}"),
            FlatnetError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for FlatnetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlatnetError::Graph(e) => Some(e),
            FlatnetError::Sweep(e) => Some(e),
            FlatnetError::Exclusion(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for FlatnetError {
    fn from(e: GraphError) -> Self {
        FlatnetError::Graph(e)
    }
}

impl From<SweepError> for FlatnetError {
    fn from(e: SweepError) -> Self {
        FlatnetError::Sweep(e)
    }
}

impl From<ExclusionError> for FlatnetError {
    fn from(e: ExclusionError) -> Self {
        FlatnetError::Exclusion(e)
    }
}

/// Lets `Result<_, String>` call sites (the CLI command layer) use `?`
/// on core results without a `map_err` at every boundary.
impl From<FlatnetError> for String {
    fn from(e: FlatnetError) -> Self {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: FlatnetError = GraphError::SelfLoop { asn: 5 }.into();
        assert!(matches!(e, FlatnetError::Graph(_)));
        assert!(e.to_string().contains("self-loop"), "{e}");

        let e: FlatnetError = SweepError { index: 3, message: "boom".into() }.into();
        assert!(e.to_string().contains("item 3"), "{e}");
        let s: String = e.into();
        assert!(s.contains("boom"));

        let e: FlatnetError =
            ExclusionError { node: flatnet_asgraph::NodeId(7), graph_len: 3 }.into();
        assert!(e.to_string().contains("3-node graph"), "{e}");

        let e = FlatnetError::Io { path: "as-rel.txt".into(), message: "missing".into() };
        assert_eq!(e.to_string(), "as-rel.txt: missing");
        let e = FlatnetError::Invalid("bad flag".into());
        assert_eq!(e.to_string(), "bad flag");
    }

    #[test]
    fn source_chains_to_the_underlying_error() {
        use std::error::Error;
        let e: FlatnetError = SweepError { index: 0, message: "x".into() }.into();
        assert!(e.source().is_some());
        let e = FlatnetError::Invalid("y".into());
        assert!(e.source().is_none());
    }
}
