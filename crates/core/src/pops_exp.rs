//! PoP deployment experiments (§9, Figures 11-12, Table 3).

use flatnet_geo::pops::{union_footprints, Footprint};
use flatnet_geo::{Continent, GeoPoint, PopulationGrid};

/// The paper's three proximity radii (km).
pub const RADII_KM: [f64; 3] = [500.0, 700.0, 1000.0];

/// Fig. 12 row: population coverage of one footprint at the three radii.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageRow {
    /// Network (or cohort) name.
    pub name: String,
    /// Coverage percentage at 500 / 700 / 1000 km, worldwide.
    pub world: [f64; 3],
}

/// Fig. 12a row: per-continent coverage of a cohort at the three radii.
#[derive(Debug, Clone, PartialEq)]
pub struct ContinentCoverageRow {
    /// Continent.
    pub continent: Continent,
    /// Coverage percentage of the continent's population at the radii.
    pub coverage: [f64; 3],
}

/// Computes worldwide coverage at the three radii for one footprint.
pub fn coverage_row(grid: &PopulationGrid, fp: &Footprint) -> CoverageRow {
    let sites = fp.points();
    let mut world = [0.0; 3];
    for (i, &r) in RADII_KM.iter().enumerate() {
        world[i] = 100.0 * grid.coverage_fraction(&sites, r);
    }
    CoverageRow { name: fp.name.clone(), world }
}

/// Computes per-continent coverage for a set of sites (Fig. 12a uses the
/// cloud cohort vs the transit cohort).
pub fn continent_coverage(grid: &PopulationGrid, sites: &[GeoPoint]) -> Vec<ContinentCoverageRow> {
    let totals = grid.population_by_continent();
    let mut rows = Vec::new();
    let mut per_radius: Vec<[(Continent, f64); 6]> = Vec::new();
    for &r in &RADII_KM {
        per_radius.push(grid.population_within_by_continent(sites, r));
    }
    for (ci, &(cont, total)) in totals.iter().enumerate() {
        let mut coverage = [0.0; 3];
        for (ri, within) in per_radius.iter().enumerate() {
            coverage[ri] = if total == 0.0 { 0.0 } else { 100.0 * within[ci].1 / total };
        }
        rows.push(ContinentCoverageRow { continent: cont, coverage });
    }
    rows
}

/// Fig. 11's city classification: which PoP metros host only the cloud
/// cohort, only the transit cohort, or both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeploymentSplit {
    /// Cities with cloud PoPs but no transit PoPs (e.g. Shanghai/Beijing).
    pub cloud_only: Vec<String>,
    /// Cities with transit PoPs but no cloud PoPs.
    pub transit_only: Vec<String>,
    /// Cities hosting both cohorts.
    pub both: Vec<String>,
}

/// Computes the Fig. 11 split from the two cohort footprints.
pub fn deployment_split(clouds: &[&Footprint], transits: &[&Footprint]) -> DeploymentSplit {
    let cloud = union_footprints("clouds", clouds);
    let transit = union_footprints("transit", transits);
    let mut cloud_only = Vec::new();
    let mut both = Vec::new();
    for s in cloud.sites() {
        if transit.has_city(&s.city) {
            both.push(s.city.clone());
        } else {
            cloud_only.push(s.city.clone());
        }
    }
    let transit_only: Vec<String> = transit
        .sites()
        .iter()
        .filter(|s| !cloud.has_city(&s.city))
        .map(|s| s.city.clone())
        .collect();
    cloud_only.sort();
    both.sort();
    let mut transit_only = transit_only;
    transit_only.sort();
    DeploymentSplit { cloud_only, transit_only, both }
}

/// One Table 3 row.
#[derive(Debug, Clone, PartialEq)]
pub struct RdnsRow {
    /// Network name.
    pub name: String,
    /// ASN.
    pub asn: u32,
    /// Number of PoPs in the consolidated map.
    pub pops: usize,
    /// Router/interface hostnames observed in rDNS.
    pub hostnames: usize,
    /// % of PoPs confirmable via rDNS.
    pub rdns_pct: f64,
}

/// Builds Table 3 from footprints, sorted descending by rDNS coverage
/// (the paper's presentation order).
pub fn rdns_table(footprints: &[&Footprint]) -> Vec<RdnsRow> {
    let mut rows: Vec<RdnsRow> = footprints
        .iter()
        .map(|fp| RdnsRow {
            name: fp.name.clone(),
            asn: fp.asn,
            pops: fp.len(),
            hostnames: fp.router_hostnames,
            rdns_pct: fp.rdns_percent(),
        })
        .collect();
    rows.sort_by(|a, b| b.rdns_pct.partial_cmp(&a.rdns_pct).unwrap().then(a.asn.cmp(&b.asn)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use flatnet_geo::cities::by_code;
    use flatnet_geo::pops::SiteSource;

    fn fp(name: &str, asn: u32, cities: &[&str], rdns: &[&str]) -> Footprint {
        let mut f = Footprint::new(name, asn);
        for c in cities {
            f.add_site(c, by_code(c).unwrap().point(), SiteSource::NetworkMap);
        }
        for c in rdns {
            f.add_site(c, by_code(c).unwrap().point(), SiteSource::Rdns);
            f.router_hostnames += 10;
        }
        f
    }

    #[test]
    fn coverage_row_monotone_in_radius() {
        let grid = PopulationGrid::from_cities(0.5, 2);
        let f = fp("X", 1, &["ams", "nyc", "tyo"], &[]);
        let row = coverage_row(&grid, &f);
        assert!(row.world[0] > 0.0);
        assert!(row.world[0] <= row.world[1]);
        assert!(row.world[1] <= row.world[2]);
        assert!(row.world[2] < 100.0);
    }

    #[test]
    fn continent_coverage_localizes() {
        let grid = PopulationGrid::from_cities(0.5, 2);
        let sites = vec![by_code("syd").unwrap().point(), by_code("akl").unwrap().point()];
        let rows = continent_coverage(&grid, &sites);
        let oceania = rows.iter().find(|r| r.continent == Continent::Oceania).unwrap();
        let europe = rows.iter().find(|r| r.continent == Continent::Europe).unwrap();
        assert!(oceania.coverage[2] > 30.0, "{:?}", oceania);
        assert_eq!(europe.coverage[2], 0.0);
    }

    #[test]
    fn deployment_split_cities() {
        let cloud = fp("cloud", 1, &["sha", "ams", "nyc"], &[]);
        let transit = fp("transit", 2, &["ams", "nyc", "lim"], &[]);
        let split = deployment_split(&[&cloud], &[&transit]);
        assert_eq!(split.cloud_only, vec!["sha"]);
        assert_eq!(split.transit_only, vec!["lim"]);
        assert_eq!(split.both, vec!["ams", "nyc"]);
    }

    #[test]
    fn rdns_table_sorted_by_coverage() {
        let a = fp("A", 1, &["ams", "nyc"], &["ams", "nyc"]); // 100%
        let b = fp("B", 2, &["ams", "nyc"], &["ams"]); // 50%
        let c = fp("C", 3, &["ams"], &[]); // 0%
        let rows = rdns_table(&[&c, &a, &b]);
        assert_eq!(rows[0].name, "A");
        assert_eq!(rows[1].name, "B");
        assert_eq!(rows[2].name, "C");
        assert_eq!(rows[0].pops, 2);
        assert_eq!(rows[0].hostnames, 20);
        assert_eq!(rows[2].rdns_pct, 0.0);
    }
}
