#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # flatnet-serve — a std-only query daemon over versioned topology snapshots
//!
//! The batched propagation engine made per-origin queries cheap enough
//! to answer interactively; this crate turns that into a long-running
//! HTTP daemon (`flatnet serve`) that builds a topology **once** and
//! answers **many** reachability / reliance / what-if queries from it.
//! Everything is hand-rolled over `std::net` — the workspace has no
//! crates.io access, and an HTTP/1.1 subset is small enough to own.
//!
//! Three layers (see `DESIGN.md` § Serving for the full picture):
//!
//! * [`snapshot`] — ingestion (CAIDA file, netgen config, or a
//!   pre-built graph), the PR-1 health gate, and versioned hot-reload
//!   behind an `Arc` swap so in-flight queries finish on the snapshot
//!   they started with. Every solve runs on the snapshot's graph; its
//!   `topo` handle is filled for the `benchmark/` package and unread.
//! * [`mod@engine`] — a fixed pool of stateless workers whose solves
//!   check their buffers out of the snapshot's pools (zero steady-state
//!   allocation), a bounded queue with 503-backpressure, per-request
//!   deadlines, and a sharded LRU [`cache`] keyed by
//!   `(snapshot version, origin, policy fingerprint)`.
//! * [`front`] + [`http`] — the HTTP front this daemon and
//!   `flatnet-router` both run (one accept loop, one keep-alive
//!   connection loop with its counters, stage histograms and trace ring)
//!   over the strict, bounded codec (`flatnet-wire`'s, re-exported
//!   here). Connections are keep-alive by default (pipelining works,
//!   budgets and idle timeouts bound reuse) and large reach sets stream
//!   as chunked responses; [`server`] is the daemon's lifecycle handle.
//!
//! Endpoints: `GET /v1/reachability`, `GET /v1/reliance` (both take
//! `origin=` or a comma-separated `origins=` batch fed to the lane
//! kernel), `POST /v1/whatif/leak` (single or `{"queries":[…]}`),
//! `GET /healthz`, `GET /metrics` (flatnet-obs/v2, `?format=prom`),
//! `GET /debug/queue`, `GET /debug/trace/{recent,slow}`,
//! `POST /admin/reload`, `POST /admin/shutdown`. Every `/v1` body is
//! wrapped in the `{"schema":"flatnet-serve/v1","snapshot_version":…,
//! "trace_id":…,"data"|"error":…}` envelope — see DESIGN.md § API
//! reference.

mod answer;
pub mod cache;
pub mod engine;
pub mod error;
pub mod front;
pub mod json;
pub mod server;
pub mod snapshot;

pub use cache::{policy_fingerprint, CacheKey, ResultCache};
pub use error::ServeError;
pub use flatnet_wire::http;
pub use server::{serve, ServeConfig, Server};
pub use snapshot::{ManagerStatus, ServeSnapshot, SnapshotManager, TopologySource};
