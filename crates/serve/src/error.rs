//! The daemon's typed error: what failed, distinguishably.
//!
//! The serving stack used to stringify every failure at the crate
//! boundary, which made a corrupted store file, a bad source path, and
//! a port collision indistinguishable in logs and `/healthz`. Each
//! [`ServeError`] variant names a failure domain and carries the
//! underlying typed cause ([`flatnet_core::error::FlatnetError`] for
//! ingestion, [`flatnet_store::StoreError`] for the snapshot store), so
//! the fallback ladder can log structured diagnostics and `/healthz`
//! can surface the kind.

use flatnet_core::error::FlatnetError;
use flatnet_store::StoreError;
use std::fmt;

/// Any failure in the serving stack.
#[derive(Debug)]
pub enum ServeError {
    /// Reading or parsing the topology source failed.
    Ingest(FlatnetError),
    /// The topology was readable but failed the pre-flight health gate.
    HealthGate {
        /// The rendered health report.
        report: String,
    },
    /// The snapshot store could not be read, verified, or written.
    Store(StoreError),
    /// The listener could not be bound.
    Bind {
        /// The configured address.
        addr: String,
        /// The underlying error message.
        message: String,
    },
    /// A daemon thread could not be spawned.
    Spawn {
        /// Which thread.
        what: &'static str,
        /// The underlying error message.
        message: String,
    },
    /// A reload was refused because the previous one failed recently;
    /// retry after the backoff expires.
    ReloadBackoff {
        /// Milliseconds until the next reload will be accepted.
        retry_after_ms: u64,
        /// The failure that armed the backoff.
        last_error: String,
    },
}

impl ServeError {
    /// A short machine-friendly label for logs and `/healthz`
    /// (`ingest`, `health-gate`, `store`, `bind`, `spawn`, `backoff`).
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            ServeError::Ingest(_) => "ingest",
            ServeError::HealthGate { .. } => "health-gate",
            ServeError::Store(_) => "store",
            ServeError::Bind { .. } => "bind",
            ServeError::Spawn { .. } => "spawn",
            ServeError::ReloadBackoff { .. } => "backoff",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Ingest(e) => write!(f, "topology ingestion failed: {e}"),
            ServeError::HealthGate { report } => {
                write!(f, "topology failed health gate:\n{report}")
            }
            ServeError::Store(e) => write!(f, "snapshot store: {e}"),
            ServeError::Bind { addr, message } => write!(f, "cannot bind {addr}: {message}"),
            ServeError::Spawn { what, message } => write!(f, "spawn {what}: {message}"),
            ServeError::ReloadBackoff { retry_after_ms, last_error } => write!(
                f,
                "reload in backoff for {retry_after_ms} ms after failure: {last_error}"
            ),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Ingest(e) => Some(e),
            ServeError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FlatnetError> for ServeError {
    fn from(e: FlatnetError) -> Self {
        ServeError::Ingest(e)
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        ServeError::Store(e)
    }
}

/// Keeps `Result<_, String>` call sites (the CLI) on plain `?`.
impl From<ServeError> for String {
    fn from(e: ServeError) -> Self {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinguishable() {
        let ingest: ServeError =
            FlatnetError::Io { path: "x.txt".into(), message: "gone".into() }.into();
        let store: ServeError = StoreError::HeaderChecksum.into();
        let bind = ServeError::Bind { addr: "127.0.0.1:1".into(), message: "denied".into() };
        assert_eq!(ingest.kind(), "ingest");
        assert_eq!(store.kind(), "store");
        assert_eq!(bind.kind(), "bind");
        assert!(ingest.to_string().contains("x.txt"));
        assert!(store.to_string().contains("header checksum"));
        use std::error::Error;
        assert!(ingest.source().is_some());
        assert!(store.source().is_some());
        assert!(bind.source().is_none());
    }
}
