#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

//! # flatnet-store — crash-safe persistence for serve snapshots
//!
//! The serve daemon reads, parses, builds and tier-infers its topology
//! from raw CAIDA/netgen input on every start; this crate gives the
//! result — the graph and the tier sets, nothing derived from them — a
//! durable, integrity-checked home, so a restart costs a file read and
//! one graph build instead of a re-ingest, and a corrupted file costs a
//! rebuild from the source instead of a wrong answer.
//!
//! Two guarantees, one per layer:
//!
//! * **Format** (`format`, `codec`) — a versioned binary container
//!   (magic + format version + section table) with length-prefixed,
//!   individually CRC-32-checksummed sections for the snapshot version,
//!   the AS graph and the tier sets. Every length and offset is
//!   bounds-checked with checked arithmetic; [`decode`] never panics on
//!   any input (`tests/fuzz.rs` attacks it with arbitrary bytes, and
//!   `tests/fault_injection.rs` with one fault per error kind). The
//!   snapshot's `topo` field, a [`flatnet_bgpsim::TopologySnapshot`]
//!   handle on the graph it just validated, is filled because the
//!   `benchmark/` package builds the struct literally; nothing else
//!   reads it, and it shares the graph's links.
//! * **Durability** (`store`) — [`save_atomic`] writes temp file →
//!   fsync → rename → directory fsync, so a crash mid-write can never
//!   leave a half-valid store under the real name; [`load`] verifies
//!   every checksum before constructing anything.
//!
//! The serve daemon's fallback ladder on top of this lives in
//! `flatnet-serve`: warm-start from a valid store, rebuild from the source
//! and rewrite on any [`StoreError`].

mod codec;
pub mod crc32;
mod error;
mod format;
mod store;

pub use codec::{decode, encode, StoredSnapshot};
pub use error::{SectionId, StoreError};
pub use store::{load, save_atomic, verify, VerifyReport};
