#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

//! # flatnet-prefixdb — IPv4 prefixes and the paper's IP→ASN resolution stack
//!
//! The neighbor-inference methodology of "Cloud Provider Connectivity in the
//! Flat Internet" (IMC 2020, §4.1/§5) hinges on mapping traceroute hop IP
//! addresses to the AS that operates the router. The paper resolves
//! iteratively through three sources:
//!
//! 1. **PeeringDB** (`peeringdb`) — preferred, because IXP peering LANs
//!    often use address space that is *not announced in BGP* (e.g. the
//!    NL-IX `193.238.116.0/22` example) or is announced by the IXP's own AS
//!    while the individual addresses belong to members;
//! 2. a **Team Cymru-style announced-prefix database** (`cymru`) — longest
//!    prefix match over globally announced prefixes and their origin ASes;
//! 3. a **whois-style allocation registry** (`whois`) — covers allocated
//!    but unannounced space.
//!
//! [`resolver::Resolver`] chains the three in either the paper's *initial*
//! order (Cymru before PeeringDB — which §5 shows misinfers IXP addresses)
//! or its *final* order (PeeringDB first), so the validation experiment can
//! reproduce the methodology iterations.
//!
//! Everything is built on two from-scratch primitives: [`ipv4::Ipv4Prefix`]
//! and the binary longest-prefix-match trie `trie::PrefixTrie`.

pub mod aggregate;
mod cymru;
mod ipv4;
mod peeringdb;
mod resolver;
mod trie;
mod whois;

pub use aggregate::aggregate;
pub use cymru::AnnouncedDb;
pub use ipv4::{Ipv4Prefix, PrefixParseError};
pub use peeringdb::{IxpId, PeeringDb};
pub use resolver::{Resolution, ResolutionOrder, ResolutionSource, Resolver};
pub use whois::WhoisDb;
