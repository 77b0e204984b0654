#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

//! # flatnet-router — a sharded, multi-process serving tier
//!
//! One `flatnet serve` process tops out at one machine's worth of
//! worker threads and one result cache. This crate is the layer that
//! scales the serving tier *out*: a router process fronts N shard
//! processes, each a plain `flatnet-serve` daemon warm-started from the
//! **same snapshot store**, and presents them as a single daemon with
//! the exact same `/v1` API.
//!
//! * `ring` — consistent-hash ownership of the origin space. Every
//!   shard holds the full topology; ownership partitions CPU and cache
//!   so an origin's results live on exactly one process.
//! * [`Upstream`] — `flatnet-wire`'s pooled keep-alive HTTP client, as
//!   the router speaks it to shards (persistent connections, split
//!   send/recv halves for scatter-gather, one replay on a stale pooled
//!   socket).
//! * `shard` — per-shard health state: a circuit breaker fed by both
//!   a background `/healthz` prober and data-path failures.
//! * [`merge`] — text-level JSON surgery that merges shard envelopes
//!   into one response **byte-identical in `data`** to a single
//!   process's answer (nothing a shard rendered is ever re-rendered).
//! * `server` — the router itself: one route for every owned `/v1`
//!   request (forwarded whole when one shard owns all its origins or
//!   leak victims, scattered and merged when they span shards),
//!   slice-scoped `503 shard-unavailable` with partial batch envelopes, rolling
//!   `/admin/reload` one synchronous shard reload at a time, and aggregated
//!   `/healthz`, `/metrics`, `/debug/shards`, behind the shards' own
//!   connection loop ([`flatnet_serve::front`]).
//!
//! Trace ids propagate router → shard via `X-Flatnet-Trace-Id`, so one
//! id stitches the router's view to every shard trace it fanned into;
//! the router records its side as `router.request_us`, `router.stage_us`.

pub mod merge;
mod ring;
mod server;
mod shard;

pub use flatnet_wire::{Client as Upstream, Reply as UpstreamResponse};
pub use ring::HashRing;
pub use server::{Router, RouterConfig, SHARD_UNAVAILABLE};
