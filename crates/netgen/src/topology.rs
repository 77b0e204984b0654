//! Tiered AS-topology synthesis: clique, Tier-2s, regional transit, edge,
//! and the cloud providers' peering fabrics — in two views (ground truth
//! vs BGP-feed-visible).

use crate::config::{NetGenConfig, PeeringPolicy};
use flatnet_asgraph::astype::CaidaClass;
use flatnet_asgraph::{AsGraph, AsGraphBuilder, AsId, Relationship};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// How a cloud peer link is realized (drives traceroute hop addressing and
/// the inference false-negative model: route-server peers carry little
/// traffic and are rarely exercised from cloud VMs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PeerKind {
    /// Private network interconnect (dedicated cross-connect).
    Pni,
    /// Bilateral BGP session over an IXP peering LAN.
    BilateralIxp,
    /// Session via an IXP route server.
    RouteServer,
}

impl PeerKind {
    /// Report label.
    pub fn name(self) -> &'static str {
        match self {
            PeerKind::Pni => "pni",
            PeerKind::BilateralIxp => "bilateral-ixp",
            PeerKind::RouteServer => "route-server",
        }
    }
}

/// One cloud peer link: the neighbor and how the link is realized. Its
/// interconnect addresses are in the address plan
/// (`crate::addressing::Addressing::links`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CloudPeerLink {
    /// The neighbor AS.
    pub peer: AsId,
    /// PNI / bilateral IXP / route server.
    pub kind: PeerKind,
}

/// Ground-truth role of an AS in the synthetic hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AsRole {
    /// Member of the Tier-1 clique.
    Tier1,
    /// Tier-2 transit provider.
    Tier2,
    /// Regional mid-tier transit provider.
    Transit,
    /// Cloud or content giant.
    Cloud,
    /// Edge network (access / content / enterprise).
    Edge,
}

/// Real Tier-1 names/ASNs used for familiarity in reports.
pub(crate) const TIER1_NAMES: &[(&str, u32)] = &[
    ("Level3", 3356),
    ("Cogent", 174),
    ("Telia", 1299),
    ("GTT", 3257),
    ("NTT", 2914),
    ("Tata", 6453),
    ("Sprint", 1239),
    ("Orange", 5511),
    ("Zayo", 6461),
    ("D.Telekom", 3320),
    ("Telxius", 12956),
    ("Verizon", 701),
];

/// Real Tier-2 names/ASNs (the paper takes its Tier-2 list from ProbLink).
pub(crate) const TIER2_NAMES: &[(&str, u32)] = &[
    ("HE", 6939),
    ("Vocus", 4826),
    ("RETN", 9002),
    ("Telstra", 4637),
    ("Comcast", 7922),
    ("KPN", 286),
    ("CN-Net", 4134),
    ("KoreaTel", 4766),
    ("Sparkle", 6762),
    ("AT&T", 7018),
    ("KCOM", 12390),
    ("TDC", 3292),
    ("Fibrenoire", 22652),
    ("Telefonica", 6805),
    ("Stealth", 8002),
    ("Vodafone", 1273),
    ("IIJ", 2497),
    ("LibertyGlobal", 6830),
    ("BT", 5400),
    ("Tele2", 1257),
    ("KDDI", 2516),
    ("PCCW", 3491),
    ("TELIN", 7713),
    ("PT", 8657),
    ("Internap", 14744),
    ("Easynet", 4589),
    ("FiberRing", 38930),
    ("SG.GS", 24482),
];

/// Per-Tier-1 probability of peering with each regional mid-tier transit,
/// indexed like [`TIER1_NAMES`]. This is what separates *diversified*
/// Tier-1s (Level3 at the top of Fig. 2 with 90% hierarchy-free
/// reachability) from *hierarchical* ones (Sprint, Deutsche Telekom —
/// Appendix B's case studies, which crash once the Tier-2s are removed).
pub(crate) const T1_MID_PEERING: [f64; 12] =
    [0.85, 0.70, 0.68, 0.62, 0.60, 0.55, 0.02, 0.02, 0.70, 0.02, 0.02, 0.02];

/// Regions (continent indices into [`flatnet_geo::Continent::ALL`]):
/// 0 Africa, 1 Asia, 2 Europe, 3 North America, 4 South America, 5 Oceania.
pub(crate) const N_REGIONS: usize = 6;
const REGION_WEIGHTS: [f64; N_REGIONS] = [0.08, 0.36, 0.22, 0.20, 0.09, 0.05];

/// One synthesized cloud's topology attachment.
#[derive(Debug, Clone)]
pub(crate) struct CloudTopo {
    /// Index into `config.clouds`.
    pub spec_idx: usize,
    /// The cloud's ASN.
    pub asn: AsId,
    /// Transit providers (c2p with the cloud as customer).
    pub providers: Vec<AsId>,
    /// Ground-truth peer links with their realization kind.
    pub peer_links: Vec<CloudPeerLink>,
}

/// The synthesized relationship topology.
#[derive(Debug, Clone)]
pub(crate) struct Topology {
    /// Ground-truth graph (every link that really exists).
    pub truth: AsGraph,
    /// The truth links BGP feeds miss (most cloud edge peering), as
    /// ascending `(low, high)` pairs; [`public_view`] removes them.
    pub hidden: Vec<(AsId, AsId)>,
    /// Ground-truth role and CAIDA class of every AS, by node index of
    /// `truth`: the one role table. An AS on two of the lists below takes
    /// the role of the later one (clouds last); edge ASes carry their
    /// class, the transit roles `TransitAccess`, clouds `Content`.
    pub roles: Vec<(AsRole, CaidaClass)>,
    /// Tier-1 ASNs in clique order.
    pub tier1: Vec<AsId>,
    /// Tier-2 ASNs.
    pub tier2: Vec<AsId>,
    /// Mid-tier transit ASNs.
    pub transit: Vec<AsId>,
    /// Per-cloud attachment.
    pub clouds: Vec<CloudTopo>,
    /// Home region per AS, by node index (index into the region-weight
    /// table); big networks are global and get the region of their
    /// headquarters.
    pub region: Vec<u8>,
    /// Display names for the named networks.
    pub names: BTreeMap<u32, String>,
}

fn pick_region(rng: &mut SmallRng) -> u8 {
    let x: f64 = rng.gen();
    let mut acc = 0.0;
    for (i, w) in REGION_WEIGHTS.iter().enumerate() {
        acc += w;
        if x < acc {
            return i as u8;
        }
    }
    N_REGIONS as u8 - 1
}

/// Builds the topology. Deterministic in `cfg.seed`.
pub(crate) fn build(cfg: &NetGenConfig) -> Topology {
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x7060_5040_3020_1001);
    let mut truth = AsGraphBuilder::new();
    // Edge visibility decisions are collected, then replayed to build the
    // public view (so both views share the exact same link set decisions).
    let mut hidden: Vec<(AsId, AsId)> = Vec::new();
    let mut names = BTreeMap::new();
    // Home regions as assigned, in order; a later assignment to the same
    // AS wins.
    let mut region: Vec<(AsId, u8)> = Vec::with_capacity(cfg.n_ases);

    // --- Tier-1 clique ---
    let n_t1 = cfg.n_tier1.min(TIER1_NAMES.len());
    let tier1: Vec<AsId> = TIER1_NAMES[..n_t1].iter().map(|&(_, a)| AsId(a)).collect();
    for (name, asn) in &TIER1_NAMES[..n_t1] {
        names.insert(*asn, name.to_string());
        region.push((AsId(*asn), pick_region(&mut rng)));
    }
    for i in 0..tier1.len() {
        for j in (i + 1)..tier1.len() {
            truth.add_link(tier1[i], tier1[j], Relationship::P2p);
        }
    }

    // --- Tier-2 ---
    let n_t2 = cfg.n_tier2.min(TIER2_NAMES.len());
    let tier2: Vec<AsId> = TIER2_NAMES[..n_t2].iter().map(|&(_, a)| AsId(a)).collect();
    for (name, asn) in &TIER2_NAMES[..n_t2] {
        names.insert(*asn, name.to_string());
        region.push((AsId(*asn), pick_region(&mut rng)));
    }
    for (i, &t2) in tier2.iter().enumerate() {
        // 2-3 Tier-1 providers.
        let n_prov = 2 + (rng.gen::<f64>() < 0.5) as usize;
        let mut provs: Vec<usize> = (0..tier1.len()).collect();
        shuffle(&mut provs, &mut rng);
        for &p in provs.iter().take(n_prov) {
            truth.add_link(tier1[p], t2, Relationship::P2c);
        }
        // Peer with a slice of the other Tier-2s. Index 0 is the
        // Hurricane-Electric-like open peer: peers with almost everyone.
        let open = i == 0;
        for (j, &other) in tier2.iter().enumerate().skip(i + 1) {
            let p = if open || j == 0 { 0.85 } else { 0.45 };
            if rng.gen::<f64>() < p {
                truth.add_link(t2, other, Relationship::P2p);
            }
        }
        // Occasional settlement-free peering with a Tier-1 (beyond transit).
        for &t1 in &tier1 {
            if !truth.contains_link(t1, t2) && rng.gen::<f64>() < 0.12 {
                truth.add_link(t2, t1, Relationship::P2p);
            }
        }
    }

    // --- Regional mid-tier transit ---
    let transit: Vec<AsId> = (0..cfg.n_transit).map(|i| AsId(20_000 + i as u32)).collect();
    let mut transit_region = Vec::with_capacity(transit.len());
    for &m in &transit {
        let r = pick_region(&mut rng);
        region.push((m, r));
        transit_region.push(r);
    }
    for (i, &m) in transit.iter().enumerate() {
        // Providers: 1-2 Tier-2s, possibly a direct Tier-1.
        let n_prov = 1 + (rng.gen::<f64>() < 0.6) as usize;
        for _ in 0..n_prov {
            let t2 = tier2[rng.gen_range(0..tier2.len())];
            truth.add_link(t2, m, Relationship::P2c);
        }
        if rng.gen::<f64>() < 0.55 {
            // Diversified Tier-1s (low clique index) attract more direct
            // mid-tier customers — this is what separates Level3 from
            // Sprint in hierarchy-free reachability (§6.4, App. B).
            let t1_idx = (rng.gen::<f64>() * rng.gen::<f64>() * tier1.len() as f64) as usize;
            truth.add_link(tier1[t1_idx.min(tier1.len() - 1)], m, Relationship::P2c);
        }
        // Regional peering mesh among mid-tier transits.
        for (j, &other) in transit.iter().enumerate().skip(i + 1) {
            let same_region = transit_region[i] == transit_region[j];
            let p = if same_region { 0.20 } else { 0.02 };
            if rng.gen::<f64>() < p {
                truth.add_link(m, other, Relationship::P2p);
            }
        }
        // The HE-like Tier-2 (index 0) peers with most mids; diversified
        // Tier-1s peer with mids per their profile, hierarchical ones
        // essentially never do.
        if rng.gen::<f64>() < 0.85 {
            truth.add_link(m, tier2[0], Relationship::P2p);
        }
        for (t1_idx, &p) in T1_MID_PEERING.iter().enumerate().take(tier1.len()) {
            if rng.gen::<f64>() < p {
                truth.add_link(m, tier1[t1_idx], Relationship::P2p);
            }
        }
    }

    // --- Edge ---
    let n_named = tier1.len() + tier2.len() + transit.len() + cfg.clouds.len();
    let n_edge = cfg.n_ases.saturating_sub(n_named);
    let mut edge: Vec<(AsId, CaidaClass)> = Vec::with_capacity(n_edge);
    for i in 0..n_edge {
        let asn = AsId(40_000 + i as u32);
        let x: f64 = rng.gen();
        let class = if x < cfg.frac_access {
            CaidaClass::TransitAccess // refined to Access once users assigned
        } else if x < cfg.frac_access + cfg.frac_content {
            CaidaClass::Content
        } else {
            CaidaClass::Enterprise
        };
        edge.push((asn, class));
        let r = pick_region(&mut rng);
        region.push((asn, r));

        // Providers: usually regional mids, sometimes Tier-2/Tier-1, and a
        // small chance of buying from an earlier edge AS (small cones).
        let n_prov = 1 + (rng.gen::<f64>() < 0.35) as usize;
        for _ in 0..n_prov {
            let x: f64 = rng.gen();
            if x < 0.05 && i > 10 {
                let upstream = edge[rng.gen_range(0..i)].0;
                truth.add_link(upstream, asn, Relationship::P2c);
            } else if x < 0.18 {
                // National/open Tier-2s (low index: HE, Vocus, RETN) sell
                // far more direct edge transit than the tail of the list.
                let t2_idx = (rng.gen::<f64>() * rng.gen::<f64>() * tier2.len() as f64) as usize;
                truth.add_link(tier2[t2_idx.min(tier2.len() - 1)], asn, Relationship::P2c);
            } else if x < 0.27 {
                // Likewise the diversified Tier-1s (Level3-like) have huge
                // direct customer bases — the source of their top-ranked
                // hierarchy-free reachability in Fig. 2.
                let t1_idx = (rng.gen::<f64>() * rng.gen::<f64>() * tier1.len() as f64) as usize;
                truth.add_link(tier1[t1_idx.min(tier1.len() - 1)], asn, Relationship::P2c);
            } else {
                // Prefer a same-region mid (first match in a few draws).
                let mut chosen = transit[rng.gen_range(0..transit.len())];
                for _ in 0..4 {
                    let cand = rng.gen_range(0..transit.len());
                    if transit_region[cand] == r {
                        chosen = transit[cand];
                        break;
                    }
                }
                truth.add_link(chosen, asn, Relationship::P2c);
            }
        }
        // Regional peering: a sizable minority of edge networks peer with
        // nearby mid-tier transits at IXPs (this fat middle of the
        // reachability distribution is what §6.6 contrasts against the
        // top-heavy customer-cone distribution).
        if rng.gen::<f64>() < 0.35 {
            let n_peers = 1 + (rng.gen::<f64>() * 3.0) as usize;
            for _ in 0..n_peers {
                let mut cand = rng.gen_range(0..transit.len());
                for _ in 0..4 {
                    let c2 = rng.gen_range(0..transit.len());
                    if transit_region[c2] == r {
                        cand = c2;
                        break;
                    }
                }
                if truth.add_link(asn, transit[cand], Relationship::P2p)
                    && rng.gen::<f64>() > 0.10
                {
                    hidden.push((asn, transit[cand]));
                }
            }
        }
        // Sparse edge-edge peering (mostly invisible to BGP feeds).
        if i > 0 && rng.gen::<f64>() < 0.06 {
            let other = edge[rng.gen_range(0..i)].0;
            if truth.add_link(asn, other, Relationship::P2p) && rng.gen::<f64>() > 0.10 {
                hidden.push((asn, other));
            }
        }
        // Content edges peer with mids (CDN-style).
        if class == CaidaClass::Content && rng.gen::<f64>() < 0.30 {
            let m = transit[rng.gen_range(0..transit.len())];
            if truth.add_link(asn, m, Relationship::P2p) && rng.gen::<f64>() > 0.5 {
                hidden.push((asn, m));
            }
        }
        // The HE-like Tier-2 peers opportunistically at the edge too.
        if rng.gen::<f64>() < 0.18
            && truth.add_link(asn, tier2[0], Relationship::P2p)
            && rng.gen::<f64>() > 0.5
        {
            hidden.push((asn, tier2[0]));
        }
    }

    // --- Clouds ---
    let mut clouds = Vec::new();
    for (spec_idx, spec) in cfg.clouds.iter().enumerate() {
        let asn = AsId(spec.asn);
        names.insert(spec.asn, spec.name.clone());
        region.push((asn, 3)); // all five are US-headquartered
        let mut providers = Vec::new();
        // Providers: mostly Tier-1s, with the tail drawn from Tier-2/mid
        // (Google's third provider in the Sep 2020 data is a small Brazilian
        // transit network, the source of its Table-2 reliance outlier).
        let mut t1_order: Vec<usize> = (0..tier1.len()).collect();
        shuffle(&mut t1_order, &mut rng);
        for k in 0..spec.n_providers {
            let p = if k + 1 == spec.n_providers && spec.policy == PeeringPolicy::Open {
                // One deliberately small last provider.
                transit[rng.gen_range(0..transit.len())]
            } else if k < t1_order.len() {
                tier1[t1_order[k]]
            } else {
                tier2[rng.gen_range(0..tier2.len())]
            };
            if !providers.contains(&p) {
                truth.add_link(p, asn, Relationship::P2c);
                providers.push(p);
            }
        }

        let mut peer_links: Vec<CloudPeerLink> = Vec::new();
        let add_peer = |target: AsId,
                            truth: &mut AsGraphBuilder,
                            rng: &mut SmallRng,
                            peer_links: &mut Vec<CloudPeerLink>,
                            hidden: &mut Vec<(AsId, AsId)>,
                            visible: bool| {
            if target == asn || providers.contains(&target) {
                return;
            }
            if truth.add_link(asn, target, Relationship::P2p) {
                let x: f64 = rng.gen();
                let kind = if x < spec.route_server_fraction {
                    PeerKind::RouteServer
                } else if x < spec.route_server_fraction + 0.4 {
                    PeerKind::Pni
                } else {
                    PeerKind::BilateralIxp
                };
                peer_links.push(CloudPeerLink { peer: target, kind });
                if !visible {
                    hidden.push((asn, target));
                }
            }
        };

        // Peer with (almost) all Tier-1s and most Tier-2s — visible in BGP.
        for &t1 in &tier1 {
            let p = match spec.policy {
                PeeringPolicy::Open | PeeringPolicy::Selective => 1.0,
                PeeringPolicy::Restrictive => 0.6,
            };
            if rng.gen::<f64>() < p {
                add_peer(t1, &mut truth, &mut rng, &mut peer_links, &mut hidden, true);
            }
        }
        for &t2 in &tier2 {
            let p = match spec.policy {
                PeeringPolicy::Open => 0.95,
                PeeringPolicy::Selective => 0.80,
                PeeringPolicy::Restrictive => 0.60,
            };
            if rng.gen::<f64>() < p {
                add_peer(t2, &mut truth, &mut rng, &mut peer_links, &mut hidden, true);
            }
        }
        // Mid-tier transit peering: the main driver of hierarchy-free reach.
        let tp = cfg.transit_peering(spec);
        for &m in &transit {
            if rng.gen::<f64>() < tp {
                let visible = rng.gen::<f64>() < spec.bgp_visibility;
                add_peer(m, &mut truth, &mut rng, &mut peer_links, &mut hidden, visible);
            }
        }
        // Edge peering with access bias.
        let ep = cfg.edge_peering(spec);
        for &(e, class) in &edge {
            let factor = if class == CaidaClass::TransitAccess {
                1.0 + spec.access_bias
            } else {
                1.0 - spec.access_bias
            };
            if rng.gen::<f64>() < (ep * factor).min(1.0) {
                let visible = rng.gen::<f64>() < spec.bgp_visibility;
                add_peer(e, &mut truth, &mut rng, &mut peer_links, &mut hidden, visible);
            }
        }
        clouds.push(CloudTopo { spec_idx, asn, providers, peer_links });
    }
    // Clouds peer with each other (always visible; these are giant PNIs).
    for i in 0..clouds.len() {
        for j in (i + 1)..clouds.len() {
            let (a, b) = (clouds[i].asn, clouds[j].asn);
            if truth.add_link(a, b, Relationship::P2p) {
                clouds[i].peer_links.push(CloudPeerLink { peer: b, kind: PeerKind::Pni });
                clouds[j].peer_links.push(CloudPeerLink { peer: a, kind: PeerKind::Pni });
            }
        }
    }

    let truth = truth.build();
    let mut hidden: Vec<(AsId, AsId)> = hidden.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
    hidden.sort_unstable();

    // The role table and the regions, by node index.
    let mut roles = vec![(AsRole::Edge, CaidaClass::Enterprise); truth.len()];
    let mut set_role = |asn: AsId, role: AsRole, class: CaidaClass| {
        if let Some(n) = truth.index_of(asn) {
            roles[n.idx()] = (role, class);
        }
    };
    edge.iter().for_each(|&(a, class)| set_role(a, AsRole::Edge, class));
    tier1.iter().for_each(|&a| set_role(a, AsRole::Tier1, CaidaClass::TransitAccess));
    tier2.iter().for_each(|&a| set_role(a, AsRole::Tier2, CaidaClass::TransitAccess));
    transit.iter().for_each(|&a| set_role(a, AsRole::Transit, CaidaClass::TransitAccess));
    clouds.iter().for_each(|c| set_role(c.asn, AsRole::Cloud, CaidaClass::Content));
    let mut by_node = vec![3u8; truth.len()];
    for (asn, r) in region {
        if let Some(n) = truth.index_of(asn) {
            by_node[n.idx()] = r;
        }
    }

    Topology {
        truth,
        hidden,
        roles,
        tier1,
        tier2,
        transit,
        clouds,
        region: by_node,
        names,
    }
}

/// The BGP-feed view of `truth`: its canonical edges minus the `hidden`
/// pairs (ascending, as [`Topology::hidden`] holds them), over the same
/// node universe so indices line up across views. Node ids ascend with
/// ASNs, so the hidden pairs meet the edges in order, in one merge walk.
/// The filter owns its cursor into them, so the constructor's second walk
/// of the stream starts the merge afresh.
pub(crate) fn public_view(truth: &AsGraph, hidden: &[(AsId, AsId)]) -> AsGraph {
    let mut hidden = hidden.iter().peekable();
    let public_edges = truth.edges().filter(move |&(x, y, _)| {
        let (a, b) = (truth.asn(x), truth.asn(y));
        let pair = (a.min(b), a.max(b));
        while hidden.next_if(|&&h| h < pair).is_some() {}
        hidden.peek() != Some(&&pair)
    });
    AsGraph::from_canonical_edges(truth.asns().map(|a| a.0).collect(), public_edges)
        .expect("a subset of a graph's canonical edges is canonical")
}

/// Fisher-Yates shuffle (avoids pulling in rand's slice extension trait).
fn shuffle<T>(v: &mut [T], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetGenConfig;

    fn topo() -> Topology {
        build(&NetGenConfig::tiny(42))
    }

    #[test]
    fn node_universes_match_between_views() {
        let t = topo();
        let public = public_view(&t.truth, &t.hidden);
        assert_eq!(t.truth.len(), public.len());
        for n in t.truth.nodes() {
            assert_eq!(t.truth.asn(n), public.asn(n));
        }
        assert_eq!(t.truth.len(), 400);
    }

    #[test]
    fn public_view_is_a_subset_of_truth() {
        let t = topo();
        let public = public_view(&t.truth, &t.hidden);
        assert_eq!(public.edge_count() + t.hidden.len(), t.truth.edge_count());
        for (x, y, rel) in public.edges() {
            let a = t.truth.index_of(public.asn(x)).unwrap();
            let b = t.truth.index_of(public.asn(y)).unwrap();
            let kind = t.truth.kind_between(a, b);
            assert!(kind.is_some(), "public link missing from truth");
            // Relationship type matches.
            let expect = match rel {
                Relationship::P2c => flatnet_asgraph::graph::NeighborKind::Customer,
                Relationship::P2p => flatnet_asgraph::graph::NeighborKind::Peer,
            };
            assert_eq!(kind.unwrap(), expect);
        }
    }

    #[test]
    fn tier1_is_a_true_clique_without_providers() {
        let t = topo();
        for &a in &t.tier1 {
            let n = t.truth.index_of(a).unwrap();
            assert!(t.truth.providers(n).is_empty(), "{a} buys transit");
            for &b in &t.tier1 {
                if a != b {
                    let m = t.truth.index_of(b).unwrap();
                    assert!(t.truth.peers(n).binary_search(&m).is_ok(), "{a} !~ {b}");
                }
            }
        }
    }

    #[test]
    fn tier2_buys_from_tier1_only() {
        let t = topo();
        for &a in &t.tier2 {
            let n = t.truth.index_of(a).unwrap();
            assert!(!t.truth.providers(n).is_empty());
            for &p in t.truth.providers(n) {
                assert!(t.tier1.contains(&t.truth.asn(p)));
            }
        }
    }

    #[test]
    fn p2c_hierarchy_is_acyclic() {
        let t = topo();
        // Kahn's algorithm over provider->customer edges.
        let g = &t.truth;
        let mut indeg = vec![0usize; g.len()];
        for n in g.nodes() {
            indeg[n.idx()] = g.providers(n).len();
        }
        let mut queue: Vec<_> = g.nodes().filter(|&n| indeg[n.idx()] == 0).collect();
        let mut seen = 0;
        while let Some(u) = queue.pop() {
            seen += 1;
            for &c in g.customers(u) {
                indeg[c.idx()] -= 1;
                if indeg[c.idx()] == 0 {
                    queue.push(c);
                }
            }
        }
        assert_eq!(seen, g.len(), "p2c cycle detected");
    }

    #[test]
    fn clouds_have_expected_shape() {
        let t = topo();
        let cfg = NetGenConfig::tiny(42);
        assert_eq!(t.clouds.len(), cfg.clouds.len());
        let google = &t.clouds[0];
        let amazon = &t.clouds[3];
        assert_eq!(t.names[&google.asn.0], "Google");
        // Google (open) has far more peers than Amazon (restrictive).
        assert!(
            google.peer_links.len() > 2 * amazon.peer_links.len(),
            "google {} vs amazon {}",
            google.peer_links.len(),
            amazon.peer_links.len()
        );
        // Providers are recorded and real links.
        for c in &t.clouds {
            assert!(!c.providers.is_empty());
            let n = t.truth.index_of(c.asn).unwrap();
            assert_eq!(t.truth.providers(n).len(), c.providers.len());
        }
    }

    #[test]
    fn cloud_edge_peering_mostly_hidden_from_public_view() {
        let t = topo();
        let public = public_view(&t.truth, &t.hidden);
        let google = &t.clouds[0];
        let gn_truth = t.truth.index_of(google.asn).unwrap();
        let gn_public = public.index_of(google.asn).unwrap();
        let truth_peers = t.truth.peers(gn_truth).len();
        let public_peers = public.peers(gn_public).len();
        assert!(
            (public_peers as f64) < 0.5 * truth_peers as f64,
            "public {public_peers} vs truth {truth_peers}"
        );
        // IBM is mostly visible.
        let ibm = &t.clouds[2];
        let in_truth = t.truth.peers(t.truth.index_of(ibm.asn).unwrap()).len();
        let in_public = public.peers(public.index_of(ibm.asn).unwrap()).len();
        assert!(in_public as f64 > 0.55 * in_truth as f64, "ibm public {in_public} / truth {in_truth}");
    }

    #[test]
    fn determinism_same_seed_same_graph() {
        let a = build(&NetGenConfig::tiny(7));
        let b = build(&NetGenConfig::tiny(7));
        assert!(a.truth.edges().eq(b.truth.edges()));
        assert_eq!(a.hidden, b.hidden);
        let c = build(&NetGenConfig::tiny(8));
        assert!(a.truth.edges().ne(c.truth.edges()));
    }

    #[test]
    fn roles_are_consistent() {
        let t = topo();
        let role = |asn: AsId| t.roles[t.truth.index_of(asn).unwrap().idx()].0;
        assert_eq!(role(t.tier1[0]), AsRole::Tier1);
        assert_eq!(role(t.tier2[0]), AsRole::Tier2);
        assert_eq!(role(t.transit[0]), AsRole::Transit);
        assert_eq!(role(t.clouds[0].asn), AsRole::Cloud);
        assert!(t.roles.iter().any(|&(r, _)| r == AsRole::Edge));
        assert_eq!(t.roles.len(), t.truth.len());
    }

    #[test]
    fn regions_cover_all_ases() {
        let t = topo();
        assert_eq!(t.region.len(), t.truth.len());
        assert!(t.region.iter().all(|&r| (r as usize) < N_REGIONS));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::config::NetGenConfig;
    use proptest::prelude::*;

    /// Kahn's algorithm: true iff the p2c hierarchy is acyclic.
    fn p2c_acyclic(g: &AsGraph) -> bool {
        let mut indeg = vec![0usize; g.len()];
        for n in g.nodes() {
            indeg[n.idx()] = g.providers(n).len();
        }
        let mut queue: Vec<_> = g.nodes().filter(|&n| indeg[n.idx()] == 0).collect();
        let mut seen = 0usize;
        while let Some(u) = queue.pop() {
            seen += 1;
            for &c in g.customers(u) {
                indeg[c.idx()] -= 1;
                if indeg[c.idx()] == 0 {
                    queue.push(c);
                }
            }
        }
        seen == g.len()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Structural invariants hold for every seed, not just the one the
        /// unit tests use: acyclic p2c, a true clique, and view-consistent
        /// node universes.
        #[test]
        fn invariants_hold_for_any_seed(seed in 0u64..10_000) {
            let mut cfg = NetGenConfig::tiny(seed);
            cfg.n_ases = 250;
            let t = build(&cfg);
            let public = public_view(&t.truth, &t.hidden);
            prop_assert!(p2c_acyclic(&t.truth), "p2c cycle at seed {seed}");
            prop_assert!(p2c_acyclic(&public));
            prop_assert_eq!(t.truth.len(), public.len());
            // Clique members never buy transit and mutually peer.
            for &a in &t.tier1 {
                let n = t.truth.index_of(a).unwrap();
                prop_assert!(t.truth.providers(n).is_empty());
                for &b in &t.tier1 {
                    if a != b {
                        let m = t.truth.index_of(b).unwrap();
                        prop_assert!(t.truth.peers(n).binary_search(&m).is_ok());
                    }
                }
            }
            // Every non-clique AS has at least one provider (global
            // reachability needs a connected hierarchy).
            for n in t.truth.nodes() {
                let asn = t.truth.asn(n);
                if !t.tier1.contains(&asn) {
                    prop_assert!(
                        !t.truth.providers(n).is_empty(),
                        "AS{} has no provider at seed {seed}",
                        asn.0
                    );
                }
            }
        }
    }
}
