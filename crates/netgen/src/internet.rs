//! Assembly of the full [`SyntheticInternet`].
//!
//! [`generate`] builds the truth graph, the role table and [`AsMeta`],
//! the geography and the clouds. Two views are derived from those on
//! first read and kept from then on: the BGP-feed graph
//! ([`SyntheticInternet::public`]) and the address plan
//! ([`SyntheticInternet::addressing`]). Each is a pure function of what
//! `generate` kept — the address plan draws from a random stream of its
//! own — so a view reads the same whenever, and whether, it is first read.

use crate::addressing::{self, Addressing};
use crate::config::{CloudSpec, NetGenConfig};
use crate::geoassign::{self, GeoAssign};
use crate::topology;
pub use crate::topology::{AsRole, CloudPeerLink, PeerKind};
use flatnet_asgraph::astype::CaidaClass;
use flatnet_asgraph::{AsGraph, AsId, NodeId, Tiers};
use flatnet_geo::PopulationGrid;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Per-AS metadata, indexed by the (shared) node index of the truth and
/// public graphs.
#[derive(Debug, Clone)]
pub struct AsMeta {
    /// The AS number.
    pub asn: AsId,
    /// Ground-truth role.
    pub role: AsRole,
    /// CAIDA-style class (clouds/content giants classify as Content).
    pub class: CaidaClass,
    /// APNIC-style estimated users (0 for non-eyeballs).
    pub users: u64,
    /// Home metro (index into [`flatnet_geo::cities::CITIES`]).
    pub home_city: usize,
}

/// One synthesized cloud provider.
#[derive(Debug, Clone)]
pub struct CloudInfo {
    /// The configuration it was generated from.
    pub spec: CloudSpec,
    /// The cloud's ASN.
    pub asn: AsId,
    /// Its transit providers.
    pub providers: Vec<AsId>,
    /// Ground-truth peer links.
    pub peer_links: Vec<CloudPeerLink>,
    /// VM datacenter metros (city indices) usable as vantage points.
    pub vp_cities: Vec<usize>,
}

impl CloudInfo {
    /// The ground-truth peer set (ASNs), sorted.
    pub fn true_peers(&self) -> Vec<AsId> {
        let mut v: Vec<AsId> = self.peer_links.iter().map(|l| l.peer).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// The fully assembled synthetic Internet.
#[derive(Debug, Clone)]
pub struct SyntheticInternet {
    /// The generating configuration.
    pub config: NetGenConfig,
    /// Ground-truth AS graph.
    pub truth: AsGraph,
    /// Tier-1 ASNs.
    pub tier1: Vec<AsId>,
    /// Tier-2 ASNs.
    pub tier2: Vec<AsId>,
    /// Mid-tier transit ASNs.
    pub transit: Vec<AsId>,
    /// Per-AS metadata, indexed by node index.
    pub meta: Vec<AsMeta>,
    /// The synthesized clouds (order follows `config.clouds`).
    pub clouds: Vec<CloudInfo>,
    /// Geography (footprints, conventions, populations).
    pub geo: GeoAssign,
    /// Gridded world population.
    pub popgrid: PopulationGrid,
    /// Display names for named networks.
    pub names: BTreeMap<u32, String>,
    /// Home region of each AS, by node index: where the address plan
    /// places a peer's IXP links.
    pub(crate) region: Vec<u8>,
    /// The truth links BGP feeds miss, ascending `(low, high)` pairs.
    hidden: Vec<(AsId, AsId)>,
    public: OnceLock<AsGraph>,
    addressing: OnceLock<Addressing>,
}

impl SyntheticInternet {
    /// BGP-feed-visible AS graph (same node universe as `truth`): the
    /// truth minus the links the feeds miss. Derived on first read.
    pub fn public(&self) -> &AsGraph {
        self.public.get_or_init(|| topology::public_view(&self.truth, &self.hidden))
    }

    /// Address plan and IP→ASN resolver, including each cloud peer link's
    /// interconnect addresses ([`Addressing::links`]). Derived on first
    /// read.
    pub fn addressing(&self) -> &Addressing {
        self.addressing.get_or_init(|| addressing::build(self))
    }

    /// Node index of an ASN in both graphs (they share the universe).
    pub fn node(&self, asn: AsId) -> NodeId {
        self.truth.index_of(asn).expect("ASN generated by this internet")
    }

    /// Ground-truth tier sets bound to the given graph view.
    pub fn tiers_for(&self, graph: &AsGraph) -> Tiers {
        Tiers::from_lists(graph, &self.tier1, &self.tier2)
    }

    /// Per-node user counts (for population weighting), aligned to node
    /// indices.
    pub fn user_weights(&self) -> Vec<f64> {
        self.meta.iter().map(|m| m.users as f64).collect()
    }

    /// Display name of an AS (falls back to `ASxxxx`).
    pub fn name_of(&self, asn: AsId) -> String {
        self.names.get(&asn.0).cloned().unwrap_or_else(|| format!("AS{}", asn.0))
    }

    /// The clouds that are actual cloud providers (excludes the
    /// Facebook-like content giant).
    pub fn cloud_providers(&self) -> impl Iterator<Item = &CloudInfo> {
        self.clouds.iter().filter(|c| c.spec.is_cloud)
    }
}

/// Generates a synthetic Internet from a configuration. Deterministic:
/// equal configs yield byte-identical structures.
pub fn generate(cfg: &NetGenConfig) -> SyntheticInternet {
    let topo = topology::build(cfg);
    let geo = geoassign::build(cfg, &topo);
    let popgrid = PopulationGrid::from_cities(0.5, 2);

    let meta = topo
        .truth
        .nodes()
        .map(|n| {
            let asn = topo.truth.asn(n);
            let (role, class) = topo.roles[n.idx()];
            AsMeta {
                asn,
                role,
                class,
                users: geo.users[n.idx()],
                home_city: geo.home_city[n.idx()],
            }
        })
        .collect();

    let clouds = topo
        .clouds
        .into_iter()
        .zip(&geo.vp_cities)
        .map(|(ct, vp_cities)| CloudInfo {
            spec: cfg.clouds[ct.spec_idx].clone(),
            asn: ct.asn,
            providers: ct.providers,
            peer_links: ct.peer_links,
            vp_cities: vp_cities.clone(),
        })
        .collect();

    SyntheticInternet {
        config: cfg.clone(),
        truth: topo.truth,
        tier1: topo.tier1,
        tier2: topo.tier2,
        transit: topo.transit,
        meta,
        clouds,
        geo,
        popgrid,
        names: topo.names,
        region: topo.region,
        hidden: topo.hidden,
        public: OnceLock::new(),
        addressing: OnceLock::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetGenConfig;

    fn net() -> SyntheticInternet {
        generate(&NetGenConfig::tiny(42))
    }

    #[test]
    fn meta_aligned_with_nodes() {
        let net = net();
        assert_eq!(net.meta.len(), net.truth.len());
        for n in net.truth.nodes() {
            assert_eq!(net.meta[n.idx()].asn, net.truth.asn(n));
        }
    }

    #[test]
    fn tiers_bind_to_either_view() {
        let net = net();
        let tt = net.tiers_for(&net.truth);
        let tp = net.tiers_for(net.public());
        assert_eq!(tt.tier1().len(), net.tier1.len());
        assert_eq!(tp.tier1().len(), net.tier1.len());
        // Same universe => same indices.
        assert_eq!(tt.tier1(), tp.tier1());
    }

    #[test]
    fn cloud_links_carry_addresses() {
        let net = net();
        for c in &net.clouds {
            let mut with_ip = 0;
            for l in &c.peer_links {
                if net.addressing().links.contains_key(&(c.asn.0, l.peer.0)) {
                    with_ip += 1;
                }
            }
            // Cloud-cloud PNIs added after addressing may lack records;
            // everything else must have one.
            assert!(with_ip + net.clouds.len() >= c.peer_links.len(), "{}", c.spec.name);
            assert!(!c.vp_cities.is_empty());
        }
    }

    #[test]
    fn names_and_helpers() {
        let net = net();
        assert_eq!(net.name_of(AsId(15169)), "Google");
        assert_eq!(net.name_of(AsId(40_000)), "AS40000");
        assert_eq!(net.cloud_providers().count(), 4);
        let weights = net.user_weights();
        assert_eq!(weights.len(), net.truth.len());
        assert!(weights.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn true_peers_sorted_unique() {
        let net = net();
        let peers = net.clouds[0].true_peers();
        for w in peers.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&NetGenConfig::tiny(3));
        let b = generate(&NetGenConfig::tiny(3));
        assert!(a.truth.edges().eq(b.truth.edges()));
        assert_eq!(a.clouds[0].peer_links, b.clouds[0].peer_links);
        let ips = |net: &SyntheticInternet| {
            net.addressing().links.iter().map(|(&k, l)| (k, l.peer_ip)).collect::<Vec<_>>()
        };
        assert_eq!(ips(&a), ips(&b));
    }

    #[test]
    fn derived_views_are_read_once_and_kept() {
        let net = net();
        assert!(net.public.get().is_none() && net.addressing.get().is_none());
        assert!(std::ptr::eq(net.public(), net.public()));
        assert!(std::ptr::eq(net.addressing(), net.addressing()));
        assert_eq!(net.public().edge_count() + net.hidden.len(), net.truth.edge_count());
    }
}
