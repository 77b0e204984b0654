#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

//! # flatnet-mrt — MRT TABLE_DUMP_V2 RIB dumps, from scratch
//!
//! RouteViews and RIPE RIS publish the BGP RIB snapshots behind CAIDA's
//! AS-relationship datasets in the MRT format (RFC 6396). The Rust
//! ecosystem's MRT support is thin — one of this reproduction's stated
//! porting gaps — so this crate implements the subset those pipelines
//! actually consume, reading **and** writing:
//!
//! * the `TABLE_DUMP_V2` / `PEER_INDEX_TABLE` record (collector id, view
//!   name, peer table with AS4 peers);
//! * `TABLE_DUMP_V2` / `RIB_IPV4_UNICAST` records (prefix + one RIB entry
//!   per peer, with `ORIGIN`, `AS_PATH` (4-byte ASes, AS_SEQUENCE), and
//!   `NEXT_HOP` path attributes).
//!
//! [`from_rib_entries`] bridges from the simulated route collectors in
//! [`flatnet_bgpsim::collectors`], so a synthetic Internet can emit byte-
//! exact MRT that any standard tooling could parse — and the `flatnet`
//! CLI can round-trip for relationship inference.

mod codec;
mod model;

pub use codec::{parse_mrt, parse_mrt_with, write_mrt, MrtError};
pub use model::{from_rib_entries, to_rib_entries, MrtPeer, MrtRib, MrtRoute};
