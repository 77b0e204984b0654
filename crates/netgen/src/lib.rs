#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # flatnet-netgen — a deterministic synthetic Internet
//!
//! The paper's experiments need inputs we cannot ship: CAIDA relationship
//! snapshots, traceroutes from inside four clouds, PeeringDB, APNIC user
//! estimates, and gridded world population. This crate generates a
//! *synthetic Internet* with the structural properties those experiments
//! actually depend on, fully deterministically from a seed:
//!
//! * a **tiered AS topology** ([`topology`]): a Tier-1 clique, Tier-2
//!   transit providers, regional mid-tier transit, and a large edge of
//!   access/content/enterprise ASes with realistic multihoming — plus four
//!   cloud providers (and a Facebook-like content giant) whose edge-peering
//!   breadth and policies mirror §4.1's measured peer counts;
//! * **two views** of that topology: the ground truth, and a BGP-feed view
//!   that hides most cloud edge peerings (BGP feeds miss up to 90% of them
//!   — the gap the paper's traceroute campaign exists to close);
//! * **addressing** ([`addressing`]): per-AS announced prefixes, IXP
//!   peering LANs (some unannounced, the §5 resolution trap), PeeringDB
//!   netixlan/facility records, and a whois registry;
//! * **geography and populations** ([`geoassign`]): per-AS home metros,
//!   user populations for eyeball networks (APNIC substitute), PoP
//!   footprints for the big networks, and rDNS hostname conventions.
//!
//! Everything hangs off [`SyntheticInternet`], produced by
//! [`generate`] from a [`NetGenConfig`]. `generate` builds the truth
//! graph, the per-AS roles and metadata, the geography and the clouds —
//! what the serving daemon and the benchmark read. The BGP-feed view
//! ([`SyntheticInternet::public`]) and the address plan
//! ([`SyntheticInternet::addressing`]) are derived on first read and kept;
//! both come out the same whenever they are first read.

pub mod addressing;
pub mod config;
pub mod dataset;
pub mod geoassign;
pub mod internet;
pub mod stats;
pub mod topology;

pub use config::{CloudSpec, Epoch, NetGenConfig, PeeringPolicy};
pub use dataset::{load_dataset, write_dataset, LoadedDataset};
pub use internet::{generate, AsMeta, AsRole, CloudInfo, CloudPeerLink, PeerKind, SyntheticInternet};
