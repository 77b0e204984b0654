//! A whois-style allocation registry: who an address block is *allocated*
//! to, independent of whether it is announced in BGP.
//!
//! §5 of the paper: "unresolved IP addresses were registered in whois and
//! frequently belonged to IXPs but were not advertised globally into BGP.
//! To resolve these hops to ASes, we now use PeeringDB (when an AS lists the
//! IP address) or whois information." This registry captures that fallback:
//! allocations cover announced space *and* infrastructure-only space.

use crate::ipv4::Ipv4Prefix;
use crate::trie::PrefixTrie;
use flatnet_asgraph::AsId;
use std::net::Ipv4Addr;

/// One allocation record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Allocation {
    /// AS the block is registered to (IXPs register under their own AS).
    pub asn: AsId,
    /// Registry organization string, e.g. `"NL-IX B.V."`.
    pub org: String,
}

/// Longest-prefix-match registry of address allocations.
#[derive(Debug, Clone, Default)]
pub struct WhoisDb {
    trie: PrefixTrie<Allocation>,
}

impl WhoisDb {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an allocation (most-specific lookup wins on overlap).
    pub fn allocate(&mut self, prefix: Ipv4Prefix, asn: AsId, org: impl Into<String>) {
        self.trie.insert(prefix, Allocation { asn, org: org.into() });
    }

    /// The allocation covering `ip`, if any.
    pub(crate) fn lookup(&self, ip: Ipv4Addr) -> Option<&Allocation> {
        self.trie.lookup(ip).map(|(_, a)| a)
    }

    /// Shorthand for the allocated AS.
    pub fn resolve(&self, ip: Ipv4Addr) -> Option<AsId> {
        self.lookup(ip).map(|a| a.asn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn resolves_unannounced_infrastructure_space() {
        let mut db = WhoisDb::new();
        db.allocate("193.238.116.0/22".parse().unwrap(), AsId(34307), "NL-IX B.V.");
        let a = db.lookup(ip("193.238.117.9")).unwrap();
        assert_eq!(a.asn, AsId(34307));
        assert_eq!(a.org, "NL-IX B.V.");
        assert_eq!(db.resolve(ip("8.8.8.8")), None);
    }

    #[test]
    fn most_specific_allocation_wins() {
        let mut db = WhoisDb::new();
        db.allocate("10.0.0.0/8".parse().unwrap(), AsId(1), "big");
        db.allocate("10.5.0.0/16".parse().unwrap(), AsId(2), "small");
        assert_eq!(db.resolve(ip("10.5.1.1")), Some(AsId(2)));
        assert_eq!(db.resolve(ip("10.6.1.1")), Some(AsId(1)));
        assert_eq!(db.trie.len(), 2);
    }

    #[test]
    fn empty_registry() {
        let db = WhoisDb::new();
        assert_eq!(db.trie.len(), 0);
        assert_eq!(db.resolve(ip("1.1.1.1")), None);
    }
}
