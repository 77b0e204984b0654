//! Tier-1 / Tier-2 ISP sets and clique inference.
//!
//! Hierarchy-free reachability is defined relative to two sets of large
//! transit providers: the **Tier-1 clique** (mutually peering, transit-free
//! ASes at the hierarchy's apex) and the **Tier-2 ISPs** (large regional or
//! global transit providers one step below). The paper takes both lists from
//! prior work (ProbLink / AS-Rank); this module lets callers supply explicit
//! lists (e.g. ground truth from the synthetic generator) and also provides
//! an AS-Rank-style inference for real datasets where no list is available.

use crate::cone::{customer_cone_sizes, transit_degree};
use crate::graph::{AsGraph, AsId, NodeId};

/// The Tier-1 and Tier-2 ISP sets used to constrain reachability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tiers {
    tier1: Vec<NodeId>,
    tier2: Vec<NodeId>,
}

impl Tiers {
    /// Builds tier sets from explicit AS lists, dropping ASes not present in
    /// the graph (real-world lists routinely contain ASes that a particular
    /// snapshot lacks) and deduplicating. An AS listed in both tiers is kept
    /// only in Tier-1.
    pub fn from_lists(g: &AsGraph, tier1: &[AsId], tier2: &[AsId]) -> Self {
        let mut t1: Vec<NodeId> = tier1.iter().filter_map(|&a| g.index_of(a)).collect();
        t1.sort_unstable();
        t1.dedup();
        let mut t2: Vec<NodeId> = tier2
            .iter()
            .filter_map(|&a| g.index_of(a))
            .filter(|n| t1.binary_search(n).is_err())
            .collect();
        t2.sort_unstable();
        t2.dedup();
        Tiers { tier1: t1, tier2: t2 }
    }

    /// Tier-1 members, sorted by node index.
    pub fn tier1(&self) -> &[NodeId] {
        &self.tier1
    }

    /// Tier-2 members, sorted by node index.
    pub fn tier2(&self) -> &[NodeId] {
        &self.tier2
    }

    /// Whether `n` is a Tier-1 ISP.
    pub fn is_tier1(&self, n: NodeId) -> bool {
        self.tier1.binary_search(&n).is_ok()
    }

    /// Whether `n` is a Tier-2 ISP.
    pub fn is_tier2(&self, n: NodeId) -> bool {
        self.tier2.binary_search(&n).is_ok()
    }

    /// The Tier-1 and Tier-2 members as ASNs of `g`.
    pub fn asns(&self, g: &AsGraph) -> TierLists {
        let asns = |ns: &[NodeId]| ns.iter().map(|&n| g.asn(n)).collect();
        (asns(&self.tier1), asns(&self.tier2))
    }
}

/// Tier-1 and Tier-2 ASN lists.
pub type TierLists = (Vec<AsId>, Vec<AsId>);

/// The tier rule every command that takes `--tier1`/`--tier2` and the
/// serving daemon share: the declared lists when a Tier-1 list is declared
/// (non-empty), [`infer_tiers`]`(g, 32, 28)` otherwise.
///
/// The second value is what the health gate
/// ([`validate_topology`](crate::validate::validate_topology)) checks: the
/// declared lists as given, so a member the graph lacks is reported (the
/// resolved [`Tiers`] have dropped it), or empty lists for inferred sets,
/// which skip the tier checks: `infer_clique` admits only an AS that
/// peers with every member already admitted, and only ASes of the graph,
/// so neither check could find anything. Inferring logs how many Tier-1s
/// and Tier-2s it found.
pub fn declared_or_inferred(g: &AsGraph, tier1: &[AsId], tier2: &[AsId]) -> (Tiers, TierLists) {
    if tier1.is_empty() {
        let tiers = infer_tiers(g, 32, 28);
        flatnet_obs::info!(
            "inferred {} Tier-1s and {} Tier-2s (pass --tier1/--tier2 to override)",
            tiers.tier1().len(),
            tiers.tier2().len()
        );
        (tiers, TierLists::default())
    } else {
        (Tiers::from_lists(g, tier1, tier2), (tier1.to_vec(), tier2.to_vec()))
    }
}

/// Infers the Tier-1 clique AS-Rank style.
///
/// Candidates are the ASes with the highest transit degree; the clique is
/// grown greedily in that order, admitting an AS only if it links (peers — a
/// true clique member never buys transit, so any link between members is a
/// peering) with every AS already admitted and has no transit providers
/// itself. `max_candidates` bounds the search (AS-Rank uses a similar
/// cutoff); the returned clique is sorted by node index.
pub(crate) fn infer_clique(g: &AsGraph, max_candidates: usize) -> Vec<NodeId> {
    let mut candidates: Vec<NodeId> = g.nodes().collect();
    // Highest transit degree first; ties broken by ASN for determinism.
    candidates.sort_by_key(|&n| (std::cmp::Reverse(transit_degree(g, n)), g.asn(n)));
    candidates.truncate(max_candidates);

    let mut clique: Vec<NodeId> = Vec::new();
    for &cand in &candidates {
        if !g.providers(cand).is_empty() {
            continue; // A Tier-1 never buys transit.
        }
        let connected_to_all = clique
            .iter()
            .all(|&m| g.peers(cand).binary_search(&m).is_ok());
        if connected_to_all {
            clique.push(cand);
        }
    }
    clique.sort_unstable();
    clique
}

/// Infers a full [`Tiers`] assignment: the Tier-1 clique via
/// `infer_clique`, then the `tier2_count` largest remaining ASes by
/// customer cone size (the paper's Tier-2s are exactly the big transit
/// sellers below the clique).
pub fn infer_tiers(g: &AsGraph, max_candidates: usize, tier2_count: usize) -> Tiers {
    let tier1 = infer_clique(g, max_candidates);
    let cones = customer_cone_sizes(g);
    let mut rest: Vec<NodeId> = g
        .nodes()
        .filter(|n| tier1.binary_search(n).is_err())
        .collect();
    rest.sort_by_key(|&n| (std::cmp::Reverse(cones[n.idx()]), g.asn(n)));
    let mut tier2: Vec<NodeId> = rest.into_iter().take(tier2_count).collect();
    tier2.sort_unstable();
    Tiers { tier1, tier2 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{AsGraphBuilder, Relationship};

    /// Three mutually peering transit-free ASes (1,2,3), each with a chain of
    /// customers; AS 10 is a big Tier-2 under 1 and 2.
    fn hierarchy() -> AsGraph {
        let mut b = AsGraphBuilder::new();
        for (a, x) in [(1, 2), (1, 3), (2, 3)] {
            b.add_link(AsId(a), AsId(x), Relationship::P2p);
        }
        b.add_link(AsId(1), AsId(10), Relationship::P2c);
        b.add_link(AsId(2), AsId(10), Relationship::P2c);
        // AS 10 has many customers, making it the biggest non-clique cone.
        for c in 100..110 {
            b.add_link(AsId(10), AsId(c), Relationship::P2c);
        }
        // Each clique member also has a couple of direct customers.
        b.add_link(AsId(1), AsId(11), Relationship::P2c);
        b.add_link(AsId(2), AsId(12), Relationship::P2c);
        b.add_link(AsId(3), AsId(13), Relationship::P2c);
        b.add_link(AsId(3), AsId(14), Relationship::P2c);
        b.build()
    }

    #[test]
    fn infers_the_clique() {
        let g = hierarchy();
        let clique = infer_clique(&g, 16);
        let asns: Vec<u32> = clique.iter().map(|&n| g.asn(n).0).collect();
        assert_eq!(asns, vec![1, 2, 3]);
    }

    #[test]
    fn clique_excludes_transit_buyers() {
        let g = hierarchy();
        // AS 10 has high transit degree but buys transit: never clique.
        let clique = infer_clique(&g, 100);
        let n10 = g.index_of(AsId(10)).unwrap();
        assert!(!clique.contains(&n10));
    }

    #[test]
    fn infer_tiers_picks_largest_cones_for_tier2() {
        let g = hierarchy();
        let tiers = infer_tiers(&g, 16, 1);
        let n10 = g.index_of(AsId(10)).unwrap();
        assert_eq!(tiers.tier2(), &[n10]);
        assert!(tiers.is_tier2(n10) && !tiers.is_tier1(n10));
        let n1 = g.index_of(AsId(1)).unwrap();
        assert!(tiers.is_tier1(n1) && !tiers.is_tier2(n1));
        let n100 = g.index_of(AsId(100)).unwrap();
        assert!(!tiers.is_tier1(n100) && !tiers.is_tier2(n100));
    }

    #[test]
    fn from_lists_drops_unknown_and_deduplicates() {
        let g = hierarchy();
        let tiers = Tiers::from_lists(
            &g,
            &[AsId(1), AsId(1), AsId(99999)],
            &[AsId(10), AsId(1)], // AS 1 already Tier-1: dropped from Tier-2.
        );
        assert_eq!(tiers.tier1().len(), 1);
        assert_eq!(tiers.tier2().len(), 1);
        let n1 = g.index_of(AsId(1)).unwrap();
        assert!(tiers.is_tier1(n1));
        assert!(!tiers.is_tier2(n1));
    }

    /// With no Tier-1 list declared the health gate gets no lists, and
    /// renders what it renders with the inferred sets' ASNs: an inferred
    /// clique peers pairwise and its members are the graph's.
    #[test]
    fn inferred_tiers_hand_the_gate_no_lists() {
        use crate::validate::{validate_topology, ValidateOptions};
        let g = hierarchy();
        let (tiers, lists) = declared_or_inferred(&g, &[], &[]);
        assert_eq!(tiers, infer_tiers(&g, 32, 28));
        assert_eq!(lists, TierLists::default());
        let gate = |(t1, t2): &TierLists| {
            validate_topology(&g, t1, t2, &[], &ValidateOptions::default()).render()
        };
        assert_eq!(gate(&lists), gate(&tiers.asns(&g)));
    }

    #[test]
    fn empty_graph_yields_empty_tiers() {
        let g = AsGraph::empty();
        assert!(infer_clique(&g, 10).is_empty());
        let t = infer_tiers(&g, 10, 5);
        assert!(t.tier1().is_empty() && t.tier2().is_empty());
    }
}
