#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

//! # flatnet-asgraph — AS-level Internet topology substrate
//!
//! This crate models the Internet's Autonomous-System-level topology the way
//! "Cloud Provider Connectivity in the Flat Internet" (IMC 2020) does:
//!
//! * ASes are identified by their AS number ([`AsId`]) and connected by
//!   *relationship-annotated* links: customer-to-provider ([`Relationship::P2c`],
//!   read "left provides transit to right") or settlement-free peering
//!   ([`Relationship::P2p`]).
//! * Topologies are usually loaded from CAIDA AS-relationship files
//!   ([`caida`] parses both the `serial-1` and `serial-2` formats used for the
//!   paper's September 2015 and September 2020 snapshots) and then *augmented*
//!   with peer links discovered by traceroutes from inside cloud networks
//!   (`augment`).
//! * Classic AS metrics are provided: customer-cone sizes and transit
//!   degree ([`cone`]), plus Tier-1 clique inference and the tier sets
//!   ([`tiers`]), and CAIDA-style AS type classification ([`astype`]).
//!
//! The central type is [`AsGraph`]: an immutable, index-compressed adjacency
//! structure with neighbors split by relationship class, which is exactly the
//! access pattern valley-free route propagation needs. Build one with
//! [`AsGraphBuilder`], from a CAIDA file's bytes via [`caida::parse_auto`]
//! (either serial; [`caida::parse_serial2`] / [`caida::parse_serial1`] for
//! one), or synthetically with the `flatnet-netgen` crate. Every text
//! input is read by one line loop, [`ingest::read_lines`].
//!
//! ```
//! use flatnet_asgraph::{AsGraphBuilder, AsId, Relationship};
//!
//! let mut b = AsGraphBuilder::new();
//! // AS 100 provides transit to AS 200; AS 200 peers with AS 300.
//! b.add_link(AsId(100), AsId(200), Relationship::P2c);
//! b.add_link(AsId(200), AsId(300), Relationship::P2p);
//! let g = b.build();
//! assert_eq!(g.len(), 3);
//! let n200 = g.index_of(AsId(200)).unwrap();
//! assert_eq!(g.providers(n200).len(), 1);
//! assert_eq!(g.peers(n200).len(), 1);
//! ```

pub mod astype;
mod augment;
pub mod caida;
pub mod cone;
pub mod dot;
mod error;
pub mod graph;
pub mod ingest;
pub mod problink;
pub mod relinfer;
pub mod tiers;
mod validate;

pub use augment::{augment_many, AugmentReport};
pub use error::GraphError;
pub use graph::{AsGraph, AsGraphBuilder, AsId, NodeId, Relationship};
pub use ingest::{ParseDiagnostics, ParseOptions};
pub use relinfer::{infer_relationships, score_inference};
pub use tiers::Tiers;
pub use validate::{validate_topology, HealthCheck, HealthReport, Severity, ValidateOptions};
