//! Network PoP footprints consolidated from multiple public sources.
//!
//! §4.2: "We use network maps provided by individual ASes when available
//! ... incorporate router locations from looking glass websites ...
//! incorporate data from PeeringDB ... \[and\] router hostnames" — each PoP
//! of a network can therefore be corroborated by several sources, and
//! Table 3 reports how many PoPs rDNS could confirm. [`Footprint`] models
//! exactly that: a per-network set of city-level sites, each annotated with
//! the sources that mentioned it.

use crate::coords::GeoPoint;

/// Where knowledge of a PoP came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SiteSource {
    /// The network's published backbone map.
    NetworkMap,
    /// A looking-glass router list.
    LookingGlass,
    /// PeeringDB facility presence.
    PeeringDb,
    /// A router hostname in reverse DNS encoding the location.
    Rdns,
}

/// One city-level PoP site.
#[derive(Debug, Clone, PartialEq)]
pub struct PopSite {
    /// City code (see [`crate::cities`]).
    pub city: String,
    /// Coordinates of the site (city centre granularity).
    pub point: GeoPoint,
    /// Sources corroborating the site, sorted and deduplicated.
    pub sources: Vec<SiteSource>,
}

/// A network's consolidated city-level PoP footprint.
#[derive(Debug, Clone, PartialEq)]
pub struct Footprint {
    /// Display name, e.g. `"Google"`.
    pub name: String,
    /// The network's ASN.
    pub asn: u32,
    /// Consolidated sites, in insertion order of first mention.
    sites: Vec<PopSite>,
    /// Router/interface hostnames observed in rDNS for this network
    /// (Table 3's second column); 0 for networks with no rDNS (Amazon).
    pub router_hostnames: usize,
}

impl Footprint {
    /// An empty footprint.
    pub fn new(name: impl Into<String>, asn: u32) -> Self {
        Footprint { name: name.into(), asn, sites: Vec::new(), router_hostnames: 0 }
    }

    /// Records a PoP mention from one source, merging into an existing site
    /// with the same city code if present.
    pub fn add_site(&mut self, city: &str, point: GeoPoint, source: SiteSource) {
        if let Some(site) = self.sites.iter_mut().find(|s| s.city == city) {
            if !site.sources.contains(&source) {
                site.sources.push(source);
                site.sources.sort_unstable();
            }
        } else {
            self.sites.push(PopSite { city: city.to_string(), point, sources: vec![source] });
        }
    }

    /// The consolidated sites.
    pub fn sites(&self) -> &[PopSite] {
        &self.sites
    }

    /// Number of distinct PoP cities (Table 3's "# Graph PoPs").
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether no sites are recorded.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Site coordinates, for population-coverage queries.
    pub fn points(&self) -> Vec<GeoPoint> {
        self.sites.iter().map(|s| s.point).collect()
    }

    /// Sites confirmed by rDNS hostnames.
    pub(crate) fn rdns_confirmed(&self) -> usize {
        self.sites.iter().filter(|s| s.sources.contains(&SiteSource::Rdns)).count()
    }

    /// Percentage (0..=100) of PoPs with rDNS confirmation (Table 3's
    /// "% rDNS"); 0 for an empty footprint.
    pub fn rdns_percent(&self) -> f64 {
        if self.sites.is_empty() {
            0.0
        } else {
            100.0 * self.rdns_confirmed() as f64 / self.sites.len() as f64
        }
    }

    /// Whether the footprint has a PoP in the given city.
    pub fn has_city(&self, city: &str) -> bool {
        self.sites.iter().any(|s| s.city == city)
    }
}

/// Unions several footprints into a cohort footprint (e.g. "all cloud
/// providers" vs "all transit providers" in Fig. 11/12a). Hostname counts
/// are summed.
pub fn union_footprints(name: &str, footprints: &[&Footprint]) -> Footprint {
    let mut out = Footprint::new(name, 0);
    for fp in footprints {
        for site in fp.sites() {
            for &src in &site.sources {
                out.add_site(&site.city, site.point, src);
            }
        }
        out.router_hostnames += fp.router_hostnames;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cities::by_code;

    fn site(code: &str) -> GeoPoint {
        by_code(code).unwrap().point()
    }

    #[test]
    fn merges_sources_per_city() {
        let mut fp = Footprint::new("Google", 15169);
        fp.add_site("ams", site("ams"), SiteSource::NetworkMap);
        fp.add_site("ams", site("ams"), SiteSource::Rdns);
        fp.add_site("ams", site("ams"), SiteSource::Rdns); // duplicate source
        fp.add_site("fra", site("fra"), SiteSource::PeeringDb);
        assert_eq!(fp.len(), 2);
        assert_eq!(fp.sites()[0].sources, vec![SiteSource::NetworkMap, SiteSource::Rdns]);
        assert!(fp.has_city("ams"));
        assert!(!fp.has_city("nyc"));
    }

    #[test]
    fn rdns_confirmation_stats() {
        let mut fp = Footprint::new("NTT", 2914);
        fp.add_site("ams", site("ams"), SiteSource::Rdns);
        fp.add_site("fra", site("fra"), SiteSource::NetworkMap);
        fp.add_site("lon", site("lon"), SiteSource::Rdns);
        assert_eq!(fp.rdns_confirmed(), 2);
        assert!((fp.rdns_percent() - 66.666).abs() < 0.01);
        let empty = Footprint::new("x", 1);
        assert_eq!(empty.rdns_percent(), 0.0);
        assert!(empty.is_empty());
    }

    #[test]
    fn only_in_difference() {
        let mut cloud = Footprint::new("cloud", 0);
        cloud.add_site("sha", site("sha"), SiteSource::NetworkMap);
        cloud.add_site("ams", site("ams"), SiteSource::NetworkMap);
        let mut transit = Footprint::new("transit", 0);
        transit.add_site("ams", site("ams"), SiteSource::NetworkMap);
        transit.add_site("lim", site("lim"), SiteSource::NetworkMap);
        // Fig. 11's "cloud only" / "transit only" sites.
        let only_in = |a: &Footprint, b: &Footprint| -> Vec<String> {
            a.sites().iter().filter(|s| !b.has_city(&s.city)).map(|s| s.city.clone()).collect()
        };
        assert_eq!(only_in(&cloud, &transit), vec!["sha".to_string()]);
        assert_eq!(only_in(&transit, &cloud), vec!["lim".to_string()]);
    }

    #[test]
    fn union_combines_sites_and_hostnames() {
        let mut a = Footprint::new("A", 1);
        a.add_site("ams", site("ams"), SiteSource::NetworkMap);
        a.router_hostnames = 10;
        let mut b = Footprint::new("B", 2);
        b.add_site("ams", site("ams"), SiteSource::Rdns);
        b.add_site("nyc", site("nyc"), SiteSource::NetworkMap);
        b.router_hostnames = 5;
        let u = union_footprints("cohort", &[&a, &b]);
        assert_eq!(u.len(), 2);
        assert_eq!(u.router_hostnames, 15);
        let ams = u.sites().iter().find(|s| s.city == "ams").unwrap();
        assert_eq!(ams.sources, vec![SiteSource::NetworkMap, SiteSource::Rdns]);
    }

    #[test]
    fn points_align_with_sites() {
        let mut fp = Footprint::new("x", 1);
        fp.add_site("syd", site("syd"), SiteSource::LookingGlass);
        let pts = fp.points();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].lat, by_code("syd").unwrap().lat);
    }
}
