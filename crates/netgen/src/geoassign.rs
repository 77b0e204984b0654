//! Geography: home metros, user populations and PoP footprints (with their
//! rDNS-confirmed sites) for the synthetic Internet.

use crate::config::NetGenConfig;
use crate::topology::{AsRole, Topology, N_REGIONS};
use flatnet_asgraph::astype::CaidaClass;
use flatnet_geo::cities::CITIES;
use flatnet_geo::pops::{Footprint, SiteSource};
use flatnet_geo::Continent;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Geographic assignment results.
#[derive(Debug, Clone)]
pub struct GeoAssign {
    /// Home metro (index into [`CITIES`]) per AS, by node index.
    pub home_city: Vec<usize>,
    /// APNIC-style estimated users per AS (0 for non-eyeball networks),
    /// by node index.
    pub users: Vec<u64>,
    /// PoP footprints for the named networks (clouds + Tier-1s + Tier-2s).
    /// A site confirmed by reverse DNS carries [`SiteSource::Rdns`]; each
    /// network draws its own rDNS coverage (Amazon's is 0), and Table 3
    /// counts those sites.
    pub footprints: BTreeMap<u32, Footprint>,
    /// VM datacenter metros per cloud (indices into `CITIES`), aligned
    /// with `config.clouds`.
    pub vp_cities: Vec<Vec<usize>>,
}

/// Cities grouped per region index, weighted by population.
fn cities_by_region() -> Vec<Vec<usize>> {
    let mut by_region = vec![Vec::new(); N_REGIONS];
    for (i, c) in CITIES.iter().enumerate() {
        let r = Continent::ALL.iter().position(|&x| x == c.continent).unwrap();
        by_region[r].push(i);
    }
    by_region
}

fn weighted_city(pool: &[usize], rng: &mut SmallRng) -> usize {
    let total: f64 = pool.iter().map(|&i| CITIES[i].population_m).sum();
    let mut x = rng.gen::<f64>() * total;
    for &i in pool {
        x -= CITIES[i].population_m;
        if x <= 0.0 {
            return i;
        }
    }
    *pool.last().expect("non-empty city pool")
}

/// Samples `count` distinct cities from `pool`, population-weighted.
fn sample_cities(pool: &[usize], count: usize, rng: &mut SmallRng) -> Vec<usize> {
    let mut chosen = Vec::new();
    let mut guard = 0;
    while chosen.len() < count.min(pool.len()) && guard < 10_000 {
        let c = weighted_city(pool, rng);
        if !chosen.contains(&c) {
            chosen.push(c);
        }
        guard += 1;
    }
    chosen
}

/// Builds the geographic assignment.
pub(crate) fn build(cfg: &NetGenConfig, topo: &Topology) -> GeoAssign {
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x6E0A_551E_6E0A_551E);
    let by_region = cities_by_region();
    let all_cities: Vec<usize> = (0..CITIES.len()).collect();
    // Transit providers avoid Shanghai/Beijing; clouds are present there
    // (the Fig. 11 observation).
    let cn_codes = ["sha", "bjs"];
    let transit_cities: Vec<usize> = all_cities
        .iter()
        .copied()
        .filter(|&i| !cn_codes.contains(&CITIES[i].code))
        .collect();
    // Cloud deployments concentrate in NA / Europe / Asia (triple weight)
    // but do reach the other continents' biggest metros too (São Paulo,
    // Sydney, Johannesburg, ... — the paper's Fig. 11/12).
    let mut cloud_cities: Vec<usize> = Vec::new();
    for &i in &all_cities {
        let copies = if matches!(
            CITIES[i].continent,
            Continent::NorthAmerica | Continent::Europe | Continent::Asia
        ) {
            3
        } else {
            1
        };
        for _ in 0..copies {
            cloud_cities.push(i);
        }
    }

    // A Tier-2 may also be numbered as a mid-tier transit (AS22652 once
    // there are 2 653 or more of them); the role table calls it a transit,
    // and it still draws users as the Tier-2 incumbent it is.
    let mut incumbent = vec![false; topo.truth.len()];
    for n in topo.tier2.iter().filter_map(|&a| topo.truth.index_of(a)) {
        incumbent[n.idx()] = true;
    }
    let mut home_city = Vec::with_capacity(topo.truth.len());
    let mut users = Vec::with_capacity(topo.truth.len());
    for n in topo.truth.nodes() {
        let r = topo.region[n.idx()] as usize;
        let pool = if by_region[r].is_empty() { &all_cities } else { &by_region[r] };
        let city = weighted_city(pool, &mut rng);
        home_city.push(city);

        // APNIC-style users: heavy-tailed, only for access-class edges and
        // a few Tier-2s (national incumbents).
        let u = match topo.roles[n.idx()] {
            (AsRole::Edge, CaidaClass::TransitAccess) => {
                // log-uniform 10^3 .. 10^7, scaled by metro size.
                let exp = 3.0 + 4.0 * rng.gen::<f64>() * rng.gen::<f64>();
                (10f64.powf(exp) * (0.5 + CITIES[city].population_m / 20.0)) as u64
            }
            _ if incumbent[n.idx()] && rng.gen::<f64>() < 0.4 => {
                (10f64.powf(5.0 + 2.0 * rng.gen::<f64>())) as u64
            }
            _ => 0,
        };
        users.push(u);
    }

    // --- Footprints and rDNS for the named networks. ---
    let mut footprints = BTreeMap::new();
    let mut vp_cities = Vec::new();

    let make_footprint = |asn: u32,
                              name: &str,
                              sites: Vec<usize>,
                              coverage: f64,
                              rng: &mut SmallRng|
     -> Footprint {
        let mut fp = Footprint::new(name, asn);
        let mut hostnames = 0usize;
        for &city in &sites {
            let point = CITIES[city].point();
            fp.add_site(CITIES[city].code, point, SiteSource::NetworkMap);
            if rng.gen::<f64>() < 0.7 {
                fp.add_site(CITIES[city].code, point, SiteSource::PeeringDb);
            }
            if rng.gen::<f64>() < coverage {
                fp.add_site(CITIES[city].code, point, SiteSource::Rdns);
                hostnames += 20 + (rng.gen::<f64>() * 180.0) as usize;
            }
        }
        fp.router_hostnames = hostnames;
        fp
    };

    for (i, &t1) in topo.tier1.iter().enumerate() {
        let name = topo.names[&t1.0].clone();
        let n_sites = 25 + (rng.gen::<f64>() * 35.0) as usize;
        let sites = sample_cities(&transit_cities, n_sites, &mut rng);
        let coverage = match i {
            0..=4 => 0.85 + 0.15 * rng.gen::<f64>(), // big T1s maintain rDNS
            _ => 0.25 + 0.6 * rng.gen::<f64>(),
        };
        footprints.insert(t1.0, make_footprint(t1.0, &name, sites, coverage, &mut rng));
    }
    for &t2 in &topo.tier2 {
        let name = topo.names[&t2.0].clone();
        let home = home_city[topo.truth.index_of(t2).expect("a Tier-2 is in the graph").idx()];
        let home_region = Continent::ALL
            .iter()
            .position(|&c| c == CITIES[home].continent)
            .unwrap();
        // Regional concentration: 70% home-region cities, rest global.
        // Transit providers stay out of Shanghai/Beijing (Fig. 11).
        let home_pool: Vec<usize> = by_region[home_region]
            .iter()
            .copied()
            .filter(|&i| !cn_codes.contains(&CITIES[i].code))
            .collect();
        let n_sites = 12 + (rng.gen::<f64>() * 22.0) as usize;
        let n_home = (n_sites as f64 * 0.7) as usize;
        let mut sites = sample_cities(&home_pool, n_home, &mut rng);
        for extra in sample_cities(&transit_cities, n_sites - sites.len().min(n_sites), &mut rng) {
            if !sites.contains(&extra) {
                sites.push(extra);
            }
        }
        let coverage = 0.3 + 0.7 * rng.gen::<f64>();
        footprints.insert(t2.0, make_footprint(t2.0, &name, sites, coverage, &mut rng));
    }
    for (ci, cloud) in topo.clouds.iter().enumerate() {
        let spec = &cfg.clouds[cloud.spec_idx];
        let n_sites = 20 + (rng.gen::<f64>() * 25.0) as usize;
        let mut sites = sample_cities(&cloud_cities, n_sites, &mut rng);
        // Clouds (unlike transit) are present in Shanghai/Beijing.
        for code in cn_codes {
            if let Some(i) = CITIES.iter().position(|c| c.code == code) {
                if !sites.contains(&i) && rng.gen::<f64>() < 0.75 {
                    sites.push(i);
                }
            }
        }
        let coverage = match spec.name.as_str() {
            "Amazon" => 0.0,     // no rDNS at all (Table 3)
            "Microsoft" => 0.45, // confirmed-low coverage (Table 3 note)
            "Google" => 0.89,
            _ => 0.5 + 0.3 * rng.gen::<f64>(),
        };
        footprints.insert(
            spec.asn,
            make_footprint(spec.asn, &spec.name, sites.clone(), coverage, &mut rng),
        );
        // VM datacenters: a subset of the footprint metros.
        let mut vps: Vec<usize> = sites.iter().copied().take(spec.n_datacenters).collect();
        vps.sort_unstable();
        vps.dedup();
        vp_cities.push(vps);
        debug_assert_eq!(ci, vp_cities.len() - 1);
    }

    GeoAssign { home_city, users, footprints, vp_cities }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetGenConfig;
    use crate::topology;

    fn setup() -> (NetGenConfig, Topology, GeoAssign) {
        let cfg = NetGenConfig::tiny(42);
        let topo = topology::build(&cfg);
        let geo = build(&cfg, &topo);
        (cfg, topo, geo)
    }

    #[test]
    fn every_as_has_home_and_users_entry() {
        let (_, topo, geo) = setup();
        assert_eq!(geo.home_city.len(), topo.truth.len());
        assert_eq!(geo.users.len(), topo.truth.len());
        assert!(geo.home_city.iter().all(|&c| c < CITIES.len()));
    }

    #[test]
    fn only_eyeballish_networks_have_users() {
        let (_, topo, geo) = setup();
        let mut access_with_users = 0;
        for (n, &(role, class)) in topo.roles.iter().enumerate() {
            if role != AsRole::Edge {
                continue;
            }
            let u = geo.users[n];
            match class {
                CaidaClass::TransitAccess => {
                    if u > 0 {
                        access_with_users += 1;
                    }
                }
                _ => assert_eq!(u, 0, "non-access edge node {n} has users"),
            }
        }
        assert!(access_with_users > 50);
        // Clouds have no APNIC users.
        for c in &topo.clouds {
            assert_eq!(geo.users[topo.truth.index_of(c.asn).unwrap().idx()], 0);
        }
    }

    #[test]
    fn named_networks_have_footprints() {
        let (cfg, topo, geo) = setup();
        for &t1 in &topo.tier1 {
            assert!(geo.footprints[&t1.0].len() >= 20, "thin T1 footprint");
        }
        for &t2 in &topo.tier2 {
            assert!(geo.footprints[&t2.0].len() >= 10);
        }
        for spec in &cfg.clouds {
            assert!(geo.footprints[&spec.asn].len() >= 15);
        }
    }

    #[test]
    fn amazon_has_no_rdns_microsoft_low() {
        let (_, _, geo) = setup();
        let amazon = &geo.footprints[&16509];
        assert_eq!(amazon.router_hostnames, 0);
        assert_eq!(amazon.rdns_percent(), 0.0);
        let ms = &geo.footprints[&8075];
        assert!(ms.rdns_percent() < 70.0);
        let google = &geo.footprints[&15169];
        assert!(google.rdns_percent() > 70.0);
        assert!(google.router_hostnames > 0);
    }

    #[test]
    fn transit_absent_from_china_clouds_present() {
        let (_, topo, geo) = setup();
        for &t1 in &topo.tier1 {
            let fp = &geo.footprints[&t1.0];
            assert!(!fp.has_city("sha") && !fp.has_city("bjs"), "transit in CN");
        }
        let any_cloud_in_cn = topo
            .clouds
            .iter()
            .any(|c| geo.footprints[&c.asn.0].has_city("sha") || geo.footprints[&c.asn.0].has_city("bjs"));
        assert!(any_cloud_in_cn, "no cloud present in Shanghai/Beijing");
    }

    #[test]
    fn vp_cities_subset_of_footprint() {
        let (cfg, topo, geo) = setup();
        assert_eq!(geo.vp_cities.len(), cfg.clouds.len());
        for (ci, cloud) in topo.clouds.iter().enumerate() {
            let fp = &geo.footprints[&cloud.asn.0];
            assert!(!geo.vp_cities[ci].is_empty());
            for &c in &geo.vp_cities[ci] {
                assert!(fp.has_city(CITIES[c].code), "VP city outside footprint");
            }
        }
    }

    #[test]
    fn deterministic() {
        let cfg = NetGenConfig::tiny(5);
        let topo = topology::build(&cfg);
        let a = build(&cfg, &topo);
        let b = build(&cfg, &topo);
        assert_eq!(a.home_city, b.home_city);
        assert_eq!(a.users, b.users);
        assert_eq!(a.vp_cities, b.vp_cities);
    }
}
