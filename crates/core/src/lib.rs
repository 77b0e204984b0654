#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

//! # flatnet-core — hierarchy-free reachability and the IMC 2020 "Flat
//! Internet" experiment suite
//!
//! This crate is the paper's primary contribution as a reusable library:
//! the **hierarchy-free reachability** metric and every analysis built on
//! it, wired to the substrates in the companion crates
//! (`flatnet-asgraph`, `flatnet-bgpsim`, `flatnet-prefixdb`,
//! `flatnet-tracesim`, `flatnet-netgen`, `flatnet-geo`).
//!
//! ## The metric
//!
//! For an origin AS `o` over an AS-level topology `I`, with `P_o` its
//! transit providers and `T1`/`T2` the Tier-1/Tier-2 ISP sets:
//!
//! * **provider-free reachability** — `reach(o, I \ P_o)` (§6.2)
//! * **Tier-1-free reachability** — `reach(o, I \ P_o \ T1)` (§6.3)
//! * **hierarchy-free reachability** — `reach(o, I \ P_o \ T1 \ T2)` (§6.4)
//!
//! where `reach(o, G)` counts the ASes that receive `o`'s announcement
//! under valley-free route propagation with all tied-best routes kept.
//!
//! ## Module map (one per paper analysis)
//!
//! | module | paper section |
//! |---|---|
//! | [`reachability`] | §6.2-6.4, Fig. 2, Table 1 |
//! | [`cone_compare`] | §6.6, Fig. 3 |
//! | [`mod@unreachable`] | §6.7, Fig. 4 |
//! | [`reliance_exp`] | §7, Table 2, Fig. 6, Appendix B |
//! | [`leaks`] | §8, Figs. 7-10 |
//! | [`pops_exp`] | §9, Figs. 11-12, Table 3 |
//! | [`pathlen`] | Appendix E, Fig. 13 |
//! | [`pipeline`] | §4.1/§5 measurement-to-topology pipeline |
//! | [`path_validation`] | Appendix A |
//! | [`feeds`] | §2.3/§4.1: collector RIBs → MRT → relationship inference |
//! | `hegemony` | §10's inbetweenness / AS-hegemony metric family |
//! | [`rankings`] | cross-metric rank correlations (extends §6.6) |
//!
//! ## Quick start
//!
//! ```
//! // A small synthetic Internet (deterministic in the seed).
//! let net = flatnet_netgen::generate(&flatnet_netgen::NetGenConfig::tiny(7));
//! let tiers = net.tiers_for(&net.truth);
//! let google = net.clouds[0].asn;
//! let profile = flatnet_core::reachability::reachability_profile(
//!     &net.truth,
//!     &tiers,
//!     &[google],
//! );
//! assert_eq!(profile.len(), 1);
//! assert!(profile[0].hierarchy_free > 0);
//! assert!(profile[0].provider_free >= profile[0].tier1_free);
//! ```

pub mod cone_compare;
pub mod error;
pub mod feeds;
mod hegemony;
pub mod leaks;
pub mod path_validation;
pub mod pathlen;
pub mod pipeline;
pub mod pops_exp;
pub mod rankings;
pub mod reachability;
pub mod reliance_exp;
pub mod report;
pub mod unreachable;
