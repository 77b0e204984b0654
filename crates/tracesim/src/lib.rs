#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

//! # flatnet-tracesim — traceroute campaigns and cloud-neighbor inference
//!
//! Reproduces the measurement half of "Cloud Provider Connectivity in the
//! Flat Internet" (§4.1, §5): issue traceroutes from VMs inside each cloud
//! provider to every routable prefix, map hop IPs to ASes through a layered
//! resolver, and infer the set of ASes directly neighboring the cloud.
//!
//! * `model` — the traceroute data model (vantage points, hops,
//!   unresponsive `*` hops);
//! * [`scamper`] — a scamper-like text format, parse + write;
//! * [`warts`] — a warts-style binary campaign format (scamper's native
//!   output is binary warts; Rust support for it is thin);
//! * `engine` — the campaign simulator: paths come from valley-free
//!   tied-best routes over the generator's *ground-truth* topology, with
//!   per-VM egress selection (geographic preference, Amazon-style early
//!   exit, route-server de-preference), hop-level addressing from the
//!   ground-truth address plan, packet loss, and the occasional
//!   third-party address — the §5 failure modes;
//! * `inference` — the neighbor-inference pipeline with the paper's
//!   *methodology iterations* as explicit configurations (assume-direct vs
//!   discard-on-unresponsive, Cymru-first vs PeeringDB-first resolution);
//! * `validate` — FDR/FNR scoring against the generator's ground truth,
//!   reproducing §5's validation tables.

mod engine;
mod inference;
mod model;
pub mod scamper;
mod validate;
pub mod warts;

pub use engine::{run_campaign, Campaign, CampaignOptions};
pub use inference::{infer_neighbors, traceroute_as_path, Methodology};
pub use model::{Hop, Traceroute, VantagePoint};
pub use validate::{validate_neighbors, ValidationReport};
