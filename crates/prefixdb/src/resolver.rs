//! The paper's layered IP→ASN resolution pipeline (§4.1, §5).
//!
//! Two source orders are provided so the §5 methodology-iteration experiment
//! can be reproduced:
//!
//! * [`ResolutionOrder::CymruFirst`] — the paper's *initial* methodology:
//!   announced-prefix LPM first, PeeringDB second, whois last. IXP LAN
//!   addresses whose prefix **is** announced (by the IXP's AS) incorrectly
//!   resolve to the IXP AS here.
//! * [`ResolutionOrder::PeeringDbFirst`] — the *final* methodology:
//!   PeeringDB `netixlan` exact matches take precedence, fixing the IXP
//!   misattributions and lowering both FDR and FNR.

use crate::cymru::AnnouncedDb;
use crate::peeringdb::PeeringDb;
use crate::whois::WhoisDb;
use flatnet_asgraph::AsId;
use std::net::Ipv4Addr;

/// Which data source produced a resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResolutionSource {
    /// PeeringDB `netixlan` exact-address record.
    PeeringDb,
    /// Announced-prefix (Team Cymru-style) longest-prefix match.
    Cymru,
    /// Whois allocation registry.
    Whois,
}

/// The order sources are consulted in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResolutionOrder {
    /// Initial methodology: Cymru → PeeringDB → whois.
    CymruFirst,
    /// Final methodology: PeeringDB → Cymru → whois.
    PeeringDbFirst,
}

/// A successful resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolution {
    /// The AS the address was attributed to.
    pub asn: AsId,
    /// Which source answered.
    pub source: ResolutionSource,
}

/// The three-source resolver.
#[derive(Debug, Clone, Default)]
pub struct Resolver {
    /// PeeringDB-like dataset (exact IXP LAN addresses).
    pub peeringdb: PeeringDb,
    /// Announced-prefix database.
    pub announced: AnnouncedDb,
    /// Whois-like allocation registry.
    pub whois: WhoisDb,
}

impl Resolver {
    /// A resolver over the three given sources.
    pub fn new(peeringdb: PeeringDb, announced: AnnouncedDb, whois: WhoisDb) -> Self {
        Resolver { peeringdb, announced, whois }
    }

    /// Resolves `ip` consulting sources in the given order.
    pub fn resolve(&self, ip: Ipv4Addr, order: ResolutionOrder) -> Option<Resolution> {
        let pdb = || {
            self.peeringdb
                .resolve(ip)
                .map(|asn| Resolution { asn, source: ResolutionSource::PeeringDb })
        };
        let cymru = || {
            self.announced
                .resolve(ip)
                .map(|asn| Resolution { asn, source: ResolutionSource::Cymru })
        };
        let whois = || {
            self.whois
                .resolve(ip)
                .map(|asn| Resolution { asn, source: ResolutionSource::Whois })
        };
        match order {
            ResolutionOrder::CymruFirst => cymru().or_else(pdb).or_else(whois),
            ResolutionOrder::PeeringDbFirst => pdb().or_else(cymru).or_else(whois),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    /// An IXP LAN announced into BGP by the IXP's AS (64600) while member
    /// AS 15169 holds one address — the §5 false-negative scenario.
    fn resolver() -> Resolver {
        let mut pdb = PeeringDb::new();
        let ixp = pdb.add_ixp("EX-IX", Some(AsId(64600)), vec!["203.0.113.0/24".parse().unwrap()]);
        pdb.add_netixlan(AsId(15169), ixp, ip("203.0.113.10"));
        let mut ann = AnnouncedDb::new();
        ann.announce("203.0.113.0/24".parse().unwrap(), AsId(64600));
        ann.announce("8.8.8.0/24".parse().unwrap(), AsId(15169));
        let mut whois = WhoisDb::new();
        whois.allocate("198.51.100.0/24".parse().unwrap(), AsId(64700), "Example-IX");
        Resolver::new(pdb, ann, whois)
    }

    #[test]
    fn cymru_first_misattributes_ixp_member_addresses() {
        let r = resolver();
        let res = r.resolve(ip("203.0.113.10"), ResolutionOrder::CymruFirst).unwrap();
        assert_eq!(res.asn, AsId(64600)); // the IXP AS — wrong for inference
        assert_eq!(res.source, ResolutionSource::Cymru);
    }

    #[test]
    fn peeringdb_first_fixes_the_misattribution() {
        let r = resolver();
        let res = r.resolve(ip("203.0.113.10"), ResolutionOrder::PeeringDbFirst).unwrap();
        assert_eq!(res.asn, AsId(15169));
        assert_eq!(res.source, ResolutionSource::PeeringDb);
    }

    #[test]
    fn announced_space_resolves_in_both_orders() {
        let r = resolver();
        for order in [ResolutionOrder::CymruFirst, ResolutionOrder::PeeringDbFirst] {
            let res = r.resolve(ip("8.8.8.8"), order).unwrap();
            assert_eq!(res.asn, AsId(15169));
            assert_eq!(res.source, ResolutionSource::Cymru);
        }
    }

    #[test]
    fn whois_is_the_last_resort() {
        let r = resolver();
        let res = r.resolve(ip("198.51.100.7"), ResolutionOrder::PeeringDbFirst).unwrap();
        assert_eq!(res.asn, AsId(64700));
        assert_eq!(res.source, ResolutionSource::Whois);
    }

    #[test]
    fn unknown_space_is_unresolved() {
        let r = resolver();
        assert!(r.resolve(ip("100.64.0.1"), ResolutionOrder::PeeringDbFirst).is_none());
    }
}
