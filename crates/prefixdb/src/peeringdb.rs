//! A PeeringDB-like store: IXPs with peering LANs, per-member LAN addresses
//! (`netixlan` records), and colocation facilities with member lists.
//!
//! The paper uses PeeringDB for two distinct jobs:
//!
//! * **IP→ASN resolution (§4.1/§5)** — a `netixlan` record pins an exact IXP
//!   LAN address to the member AS that configured it, which is authoritative
//!   even when the LAN prefix is unannounced or announced by the IXP's AS.
//!   Preferring PeeringDB over the announced-prefix DB was the final
//!   methodology improvement that brought Microsoft's FDR down to 11%.
//! * **Geolocation and PoP mapping (§4.2, App. D)** — `fac`/`netfac` records
//!   list the facilities (with city coordinates) where an AS is present.

use crate::ipv4::Ipv4Prefix;
use crate::trie::PrefixTrie;
use flatnet_asgraph::AsId;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Identifier of an IXP record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IxpId(pub u32);

/// Identifier of a facility record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FacilityId(pub u32);

/// An Internet eXchange Point with its peering LAN prefixes.
#[derive(Debug, Clone, PartialEq)]
pub struct Ixp {
    /// Display name, e.g. `"NL-IX"`.
    pub name: String,
    /// The AS number the IXP itself operates (route servers, mgmt), if any.
    pub ixp_asn: Option<AsId>,
    /// Peering LAN prefixes.
    pub lans: Vec<Ipv4Prefix>,
}

/// A colocation facility.
#[derive(Debug, Clone, PartialEq)]
pub struct Facility {
    /// Display name.
    pub name: String,
    /// City the facility is in.
    pub city: String,
    /// Latitude in degrees.
    pub lat: f64,
    /// Longitude in degrees.
    pub lon: f64,
}

/// The in-memory PeeringDB-like dataset.
#[derive(Debug, Clone, Default)]
pub struct PeeringDb {
    ixps: Vec<Ixp>,
    facilities: Vec<Facility>,
    /// Exact LAN address -> member AS (netixlan).
    netixlan: BTreeMap<u32, (AsId, IxpId)>,
    /// LAN prefix -> IXP (for "this hop is inside an IXP LAN" checks).
    lan_trie: PrefixTrie<IxpId>,
    /// AS -> facilities it is present at (netfac).
    netfac: BTreeMap<u32, Vec<FacilityId>>,
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

    /// Registers a facility.
    pub fn add_facility(&mut self, name: impl Into<String>, city: impl Into<String>, lat: f64, lon: f64) -> FacilityId {
        let id = FacilityId(self.facilities.len() as u32);
        self.facilities.push(Facility { name: name.into(), city: city.into(), lat, lon });
        id
    }

    /// Registers an AS's presence at a facility (a `netfac` record).
    pub fn add_netfac(&mut self, asn: AsId, fac: FacilityId) {
        let list = self.netfac.entry(asn.0).or_default();
        if !list.contains(&fac) {
            list.push(fac);
        }
    }

    /// Resolves an IP to a member AS via an exact `netixlan` record.
    pub fn resolve(&self, ip: Ipv4Addr) -> Option<AsId> {
        self.netixlan.get(&u32::from(ip)).map(|&(asn, _)| asn)
    }

    /// The IXP whose peering LAN contains `ip`, if any.
    pub fn ixp_lan_of(&self, ip: Ipv4Addr) -> Option<IxpId> {
        self.lan_trie.lookup(ip).map(|(_, &id)| id)
    }

    /// IXP record by id.
    pub fn ixp(&self, id: IxpId) -> &Ixp {
        &self.ixps[id.0 as usize]
    }

    /// Facility record by id.
    pub fn facility(&self, id: FacilityId) -> &Facility {
        &self.facilities[id.0 as usize]
    }

    /// Facilities an AS is registered at (empty slice if none).
    pub fn facilities_of(&self, asn: AsId) -> &[FacilityId] {
        self.netfac.get(&asn.0).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All member ASes with addresses on the given IXP, ascending, deduped.
    pub fn members_of(&self, ixp: IxpId) -> Vec<AsId> {
        let mut members: Vec<AsId> = self
            .netixlan
            .values()
            .filter(|&&(_, i)| i == ixp)
            .map(|&(asn, _)| asn)
            .collect();
        members.sort_unstable();
        members.dedup();
        members
    }

    /// Number of IXPs.
    pub fn ixp_count(&self) -> usize {
        self.ixps.len()
    }

    /// Number of facilities.
    pub fn facility_count(&self) -> usize {
        self.facilities.len()
    }

    /// Number of `netixlan` records.
    pub fn netixlan_count(&self) -> usize {
        self.netixlan.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn sample() -> (PeeringDb, IxpId, FacilityId) {
        let mut db = PeeringDb::new();
        let nlix = db.add_ixp("NL-IX", Some(AsId(34307)), vec!["193.238.116.0/22".parse().unwrap()]);
        db.add_netixlan(AsId(15169), nlix, ip("193.238.116.10"));
        db.add_netixlan(AsId(8075), nlix, ip("193.238.116.20"));
        let fac = db.add_facility("Equinix AM7", "Amsterdam", 52.37, 4.90);
        db.add_netfac(AsId(15169), fac);
        (db, nlix, fac)
    }

    #[test]
    fn netixlan_resolution_is_exact() {
        let (db, _, _) = sample();
        assert_eq!(db.resolve(ip("193.238.116.10")), Some(AsId(15169)));
        assert_eq!(db.resolve(ip("193.238.116.20")), Some(AsId(8075)));
        // Address on the LAN with no record: no member resolution.
        assert_eq!(db.resolve(ip("193.238.116.99")), None);
    }

    #[test]
    fn ixp_lan_containment() {
        let (db, nlix, _) = sample();
        assert_eq!(db.ixp_lan_of(ip("193.238.117.1")), Some(nlix));
        assert_eq!(db.ixp_lan_of(ip("10.0.0.1")), None);
        assert_eq!(db.ixp(nlix).name, "NL-IX");
        assert_eq!(db.ixp(nlix).ixp_asn, Some(AsId(34307)));
    }

    #[test]
    fn members_listing() {
        let (db, nlix, _) = sample();
        assert_eq!(db.members_of(nlix), vec![AsId(8075), AsId(15169)]);
    }

    #[test]
    fn facilities_and_netfac() {
        let (mut db, _, fac) = sample();
        assert_eq!(db.facilities_of(AsId(15169)), &[fac]);
        assert!(db.facilities_of(AsId(1)).is_empty());
        // Duplicate netfac is idempotent.
        db.add_netfac(AsId(15169), fac);
        assert_eq!(db.facilities_of(AsId(15169)).len(), 1);
        let f = db.facility(fac);
        assert_eq!(f.city, "Amsterdam");
    }

    #[test]
    fn netixlan_overwrite_keeps_latest() {
        let (mut db, nlix, _) = sample();
        db.add_netixlan(AsId(64512), nlix, ip("193.238.116.10"));
        assert_eq!(db.resolve(ip("193.238.116.10")), Some(AsId(64512)));
        assert_eq!(db.netixlan_count(), 2);
    }

    #[test]
    fn counts() {
        let (db, _, _) = sample();
        assert_eq!(db.ixp_count(), 1);
        assert_eq!(db.facility_count(), 1);
        assert_eq!(db.netixlan_count(), 2);
    }
}
