//! A PeeringDB-like store: IXPs with peering LANs and per-member LAN
//! addresses (`netixlan` records).
//!
//! The paper uses PeeringDB for IP→ASN resolution (§4.1/§5): a `netixlan`
//! record pins an exact IXP LAN address to the member AS that configured it,
//! which is authoritative even when the LAN prefix is unannounced or
//! announced by the IXP's AS. Preferring PeeringDB over the announced-prefix
//! DB was the final methodology improvement that brought Microsoft's FDR down
//! to 11%. The paper's other use, facility candidates for geolocation (§4.2,
//! App. D), is not modelled here: `repro appendix_d` takes its candidates
//! from the synthetic PoP footprints (`flatnet_geo::pops`).

use crate::ipv4::Ipv4Prefix;
use crate::trie::PrefixTrie;
use flatnet_asgraph::AsId;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Identifier of an IXP record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IxpId(pub u32);

/// An Internet eXchange Point with its peering LAN prefixes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Ixp {
    /// Display name, e.g. `"NL-IX"`.
    pub name: String,
    /// The AS number the IXP itself operates (route servers, mgmt), if any.
    pub ixp_asn: Option<AsId>,
    /// Peering LAN prefixes.
    pub lans: Vec<Ipv4Prefix>,
}

/// The in-memory PeeringDB-like dataset.
#[derive(Debug, Clone, Default)]
pub struct PeeringDb {
    ixps: Vec<Ixp>,
    /// Exact LAN address -> member AS (netixlan).
    netixlan: BTreeMap<u32, (AsId, IxpId)>,
    /// LAN prefix -> IXP (for "this hop is inside an IXP LAN" checks).
    lan_trie: PrefixTrie<IxpId>,
}

impl PeeringDb {
    /// Empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an IXP and its peering LANs.
    pub fn add_ixp(&mut self, name: impl Into<String>, ixp_asn: Option<AsId>, lans: Vec<Ipv4Prefix>) -> IxpId {
        let id = IxpId(self.ixps.len() as u32);
        for &lan in &lans {
            self.lan_trie.insert(lan, id);
        }
        self.ixps.push(Ixp { name: name.into(), ixp_asn, lans });
        id
    }

    /// Registers a member's address on an IXP LAN (a `netixlan` record).
    /// Re-registering an address overwrites the member (PeeringDB has one
    /// record per address).
    pub fn add_netixlan(&mut self, asn: AsId, ixp: IxpId, ip: Ipv4Addr) {
        self.netixlan.insert(u32::from(ip), (asn, ixp));
    }

    /// Resolves an IP to a member AS via an exact `netixlan` record.
    pub(crate) fn resolve(&self, ip: Ipv4Addr) -> Option<AsId> {
        self.netixlan.get(&u32::from(ip)).map(|&(asn, _)| asn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn sample() -> (PeeringDb, IxpId) {
        let mut db = PeeringDb::new();
        let nlix = db.add_ixp("NL-IX", Some(AsId(34307)), vec!["193.238.116.0/22".parse().unwrap()]);
        db.add_netixlan(AsId(15169), nlix, ip("193.238.116.10"));
        db.add_netixlan(AsId(8075), nlix, ip("193.238.116.20"));
        (db, nlix)
    }

    #[test]
    fn netixlan_resolution_is_exact() {
        let (db, _) = sample();
        assert_eq!(db.resolve(ip("193.238.116.10")), Some(AsId(15169)));
        assert_eq!(db.resolve(ip("193.238.116.20")), Some(AsId(8075)));
        // Address on the LAN with no record: no member resolution.
        assert_eq!(db.resolve(ip("193.238.116.99")), None);
    }

    #[test]
    fn netixlan_overwrite_keeps_latest() {
        let (mut db, nlix) = sample();
        db.add_netixlan(AsId(64512), nlix, ip("193.238.116.10"));
        assert_eq!(db.resolve(ip("193.238.116.10")), Some(AsId(64512)));
        assert_eq!(db.netixlan.len(), 2);
    }

    #[test]
    fn counts() {
        let (db, _) = sample();
        assert_eq!(db.ixps.len(), 1);
        assert_eq!(db.netixlan.len(), 2);
    }
}
