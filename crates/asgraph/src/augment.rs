//! Topology augmentation with traceroute-discovered cloud peers (§4.1).
//!
//! BGP feeds miss up to 90% of edge peering links. The paper's methodology
//! adds every cloud neighbor discovered by traceroutes as a **p2p** link —
//! "Since BGP feeds have a high success rate identifying c2p links but miss
//! nearly all edge peer links, we can safely assume newly identified links
//! are peer links. When a connection identified in a traceroute already
//! exists in the CAIDA dataset, we do not modify the previously identified
//! link type."

use crate::graph::{AsGraph, AsId, Relationship};

/// What happened during one augmentation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AugmentReport {
    /// Peer links newly added to the topology.
    pub added: usize,
    /// Neighbor pairs already present (left untouched, whatever their type).
    pub already_present: usize,
    /// Neighbors whose ASN was not previously in the graph at all (they are
    /// added as new nodes with the single peer link).
    pub new_ases: usize,
    /// The cloud's neighbor count in the original graph.
    pub neighbors_before: usize,
    /// The cloud's neighbor count after augmentation.
    pub neighbors_after: usize,
}

/// Adds traceroute-inferred `cloud`→neighbor peerings to `g`.
///
/// Returns the augmented graph and a report. Neighbor entries equal to the
/// cloud itself are ignored. The input graph is not required to contain the
/// cloud AS already (it will after augmentation, if `peers` is non-empty).
pub(crate) fn augment_with_peers(
    g: &AsGraph,
    cloud: AsId,
    peers: &[AsId],
) -> (AsGraph, AugmentReport) {
    let mut b = g.to_builder();
    let mut report = AugmentReport {
        neighbors_before: g.index_of(cloud).map(|n| g.degree(n)).unwrap_or(0),
        ..AugmentReport::default()
    };
    for &p in peers {
        if p == cloud {
            continue;
        }
        if g.index_of(p).is_none() {
            report.new_ases += 1;
        }
        if b.contains_link(cloud, p) {
            report.already_present += 1;
        } else {
            b.add_link(cloud, p, Relationship::P2p);
            report.added += 1;
        }
    }
    let out = b.build();
    report.neighbors_after = out.index_of(cloud).map(|n| out.degree(n)).unwrap_or(0);
    (out, report)
}

/// Augments one graph with several clouds' inferred peer sets in one pass.
///
/// Equivalent to chaining `augment_with_peers` once per cloud; returns the
/// final graph and per-cloud reports in input order.
pub fn augment_many(g: &AsGraph, sets: &[(AsId, Vec<AsId>)]) -> (AsGraph, Vec<AugmentReport>) {
    let mut current = g.clone();
    let mut reports = Vec::with_capacity(sets.len());
    for (cloud, peers) in sets {
        let (next, rep) = augment_with_peers(&current, *cloud, peers);
        current = next;
        reports.push(rep);
    }
    (current, reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{AsGraphBuilder, NeighborKind};

    fn base() -> AsGraph {
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(100), AsId(15169), Relationship::P2c); // provider of cloud
        b.add_link(AsId(100), AsId(200), Relationship::P2c);
        b.add_link(AsId(100), AsId(300), Relationship::P2c);
        b.build()
    }

    #[test]
    fn adds_new_peers_as_p2p() {
        let g = base();
        let (g2, rep) = augment_with_peers(&g, AsId(15169), &[AsId(200), AsId(300)]);
        assert_eq!(rep.added, 2);
        assert_eq!(rep.already_present, 0);
        assert_eq!(rep.new_ases, 0);
        assert_eq!(rep.neighbors_before, 1);
        assert_eq!(rep.neighbors_after, 3);
        let cloud = g2.index_of(AsId(15169)).unwrap();
        let n200 = g2.index_of(AsId(200)).unwrap();
        assert_eq!(g2.kind_between(cloud, n200), Some(NeighborKind::Peer));
    }

    #[test]
    fn existing_links_keep_their_type() {
        let g = base();
        // AS 100 is already the cloud's provider; traceroute "rediscovers" it.
        let (g2, rep) = augment_with_peers(&g, AsId(15169), &[AsId(100)]);
        assert_eq!(rep.added, 0);
        assert_eq!(rep.already_present, 1);
        let cloud = g2.index_of(AsId(15169)).unwrap();
        let n100 = g2.index_of(AsId(100)).unwrap();
        // Still provider, NOT downgraded to peer.
        assert_eq!(g2.kind_between(cloud, n100), Some(NeighborKind::Provider));
    }

    #[test]
    fn unknown_neighbors_become_new_nodes() {
        let g = base();
        let (g2, rep) = augment_with_peers(&g, AsId(15169), &[AsId(99999)]);
        assert_eq!(rep.new_ases, 1);
        assert_eq!(rep.added, 1);
        assert!(g2.index_of(AsId(99999)).is_some());
    }

    #[test]
    fn self_peering_ignored() {
        let g = base();
        let (_, rep) = augment_with_peers(&g, AsId(15169), &[AsId(15169)]);
        assert_eq!(rep.added, 0);
        assert_eq!(rep.already_present, 0);
    }

    #[test]
    fn augment_many_applies_sequentially() {
        let g = base();
        let sets = vec![
            (AsId(15169), vec![AsId(200)]),
            (AsId(8075), vec![AsId(200), AsId(300)]),
        ];
        let (g2, reps) = augment_many(&g, &sets);
        assert_eq!(reps.len(), 2);
        assert_eq!(reps[0].added, 1);
        assert_eq!(reps[1].added, 2);
        assert_eq!(reps[1].new_ases, 0); // 8075 itself is new but neighbors are not counted as such
        let ms = g2.index_of(AsId(8075)).unwrap();
        assert_eq!(g2.degree(ms), 2);
    }

    #[test]
    fn duplicate_peer_entries_counted_once() {
        let g = base();
        let (g2, rep) = augment_with_peers(&g, AsId(15169), &[AsId(200), AsId(200)]);
        assert_eq!(rep.added, 1);
        assert_eq!(rep.already_present, 1);
        let cloud = g2.index_of(AsId(15169)).unwrap();
        assert_eq!(g2.degree(cloud), 2);
    }
}
