#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

//! # flatnet-wire — the two byte boundaries, once
//!
//! Every answer the serving tier gives crosses HTTP/1.1 framing and a
//! JSON envelope on its way through `serve`, `router`, the benchmark
//! and the CLI. This std-only leaf crate owns both, so each is read in
//! exactly one place and bounded in exactly one place:
//!
//! * [`http`] — the bounded HTTP/1.1 codec: the request parser and
//!   response writer the daemons use, the response reader every client
//!   uses, and the `/v1` query vocabulary both fronts share.
//! * `client` — the pooled keep-alive client over that codec, with
//!   split send/recv halves for scatter-gather and the one
//!   stale-pooled-socket replay.
//! * [`json`] — one tokenizer under two views: an owned tree with
//!   lossless integers, and borrowed spans for the router's verbatim
//!   envelope merge.
//!
//! It sits below `flatnet-obs` (whose snapshot and trace documents are
//! read back through [`json`]), so it records no metrics itself; see
//! `DESIGN.md` § Wire for the table of bounds.

mod client;
pub mod http;
pub mod json;

pub use client::{Call, Client, Conn};
pub use http::Reply;
