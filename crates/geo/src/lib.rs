#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

//! # flatnet-geo — geographic substrate for PoP deployment analysis
//!
//! Section 9 of "Cloud Provider Connectivity in the Flat Internet" compares
//! cloud and transit providers' Point-of-Presence deployments against world
//! population: which networks put PoPs near people, and what share of the
//! population lives within 500/700/1000 km of each network's PoPs
//! (Figures 11 and 12), with each PoP's confirmations by published maps,
//! PeeringDB and router hostnames in reverse DNS (Table 3), and an
//! RTT-constrained geolocation over candidate cities (Appendix D).
//!
//! This crate provides those building blocks from scratch:
//!
//! * `coords` — latitude/longitude points, haversine distance, continents;
//! * [`cities`] — a built-in table of ~120 real metro areas (public
//!   coordinates and rough metro populations) that seeds the synthetic
//!   population grid and PoP deployments;
//! * `popgrid` — a GPWv4-like gridded population model with
//!   population-within-radius queries;
//! * [`pops`] — network PoP footprints consolidated from multiple sources
//!   (published maps, PeeringDB-like facility lists, rDNS confirmations);
//! * [`mod@geolocate`] — the paper's Appendix-D active-geolocation procedure
//!   (candidate facilities + RTT-constrained verification).

pub mod cities;
mod coords;
pub mod geolocate;
mod popgrid;
pub mod pops;

pub use coords::{haversine_km, Continent, GeoPoint};
pub use popgrid::PopulationGrid;
