//! Route-collector simulation: the BGP feeds that AS-relationship
//! datasets are built from.
//!
//! CAIDA's as-rel files (§4.1) come from algorithms run over RouteViews /
//! RIPE RIS RIB dumps — AS paths observed at a few hundred monitor ASes.
//! This module produces exactly that input: for a set of monitor
//! (vantage-point) ASes, the tied-best AS path each monitor holds toward
//! every origin, as a flat list of `(origin, path)` records. Downstream,
//! `flatnet-asgraph`'s relationship inference and `flatnet-mrt`'s
//! TABLE_DUMP_V2 encoding consume these.
//!
//! The structural limitation the paper leans on falls out for free: a
//! monitor only sees a p2p link if it sits in one of the two peers'
//! customer cones, so edge peering (cloud peering in particular) is
//! invisible to feeds built this way.

use crate::engine::Simulation;
use crate::propagate::PropagationConfig;
use flatnet_asgraph::{AsGraph, AsId, NodeId};

/// One RIB entry observed at a monitor: the AS path from the monitor to
/// the origin, monitor first, origin last (as in a real RIB's AS_PATH
/// with the monitor's own AS prepended for uniformity).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RibEntry {
    /// The monitor AS holding this route.
    pub monitor: AsId,
    /// The origin AS of the prefix.
    pub origin: AsId,
    /// Full AS path `[monitor, ..., origin]` (no prepending, no loops).
    pub path: Vec<AsId>,
}

/// Collects, for each origin in `origins`, the best path each monitor
/// holds (one deterministic representative among ties: the lexicographically
/// smallest next-hop at each step). Unreachable monitor/origin pairs yield
/// no entry. O(|origins| · E); each origin's run is read in place, and a
/// path costs only its own hops.
pub fn collect_ribs(g: &AsGraph, monitors: &[NodeId], origins: &[NodeId]) -> Vec<RibEntry> {
    let cfg = PropagationConfig::default();
    let mut ctx = Simulation::over(g).ctx();
    let mut out = Vec::new();
    for &o in origins {
        let ws = ctx.run(o);
        for &m in monitors {
            if m == o || !ws.reachable(m) {
                continue;
            }
            // Deterministic representative path: smallest next hop (the
            // lists are sorted) at every step.
            let mut path = vec![g.asn(m)];
            let mut cur = m;
            while cur != o {
                let next = ws.next_hops(g, &cfg, cur)[0];
                path.push(g.asn(next));
                cur = next;
            }
            out.push(RibEntry { monitor: g.asn(m), origin: g.asn(o), path });
        }
    }
    out
}

/// The set of AS adjacencies visible in a RIB collection (each consecutive
/// pair on any path), deduplicated and canonically ordered
/// `(min asn, max asn)`.
pub fn visible_links(ribs: &[RibEntry]) -> Vec<(AsId, AsId)> {
    let mut links: Vec<(AsId, AsId)> = ribs
        .iter()
        .flat_map(|e| e.path.windows(2))
        .map(|w| (w[0].min(w[1]), w[0].max(w[1])))
        .collect();
    links.sort_unstable();
    links.dedup();
    links
}

#[cfg(test)]
mod tests {
    use super::*;
    use flatnet_asgraph::{AsGraphBuilder, Relationship};

    /// Tier-1 1 over {2, 3}; 2 over stub 4; 3 over stub 5; 4 peers 5
    /// (edge peering invisible from above).
    fn sample() -> AsGraph {
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(1), AsId(2), Relationship::P2c);
        b.add_link(AsId(1), AsId(3), Relationship::P2c);
        b.add_link(AsId(2), AsId(4), Relationship::P2c);
        b.add_link(AsId(3), AsId(5), Relationship::P2c);
        b.add_link(AsId(4), AsId(5), Relationship::P2p);
        b.build()
    }

    fn node(g: &AsGraph, a: u32) -> NodeId {
        g.index_of(AsId(a)).unwrap()
    }

    #[test]
    fn paths_are_valid_and_start_end_correctly() {
        let g = sample();
        let monitors = vec![node(&g, 1), node(&g, 4)];
        let origins: Vec<NodeId> = g.nodes().collect();
        let ribs = collect_ribs(&g, &monitors, &origins);
        for e in &ribs {
            assert_eq!(*e.path.first().unwrap(), e.monitor);
            assert_eq!(*e.path.last().unwrap(), e.origin);
            // Consecutive hops are real adjacencies.
            for w in e.path.windows(2) {
                let a = g.index_of(w[0]).unwrap();
                let b = g.index_of(w[1]).unwrap();
                assert!(g.kind_between(a, b).is_some(), "{:?}", e.path);
            }
            // No loops.
            let mut sorted = e.path.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), e.path.len());
        }
        // Monitor 1 holds a route to every other AS (it's the top).
        assert_eq!(ribs.iter().filter(|e| e.monitor == AsId(1)).count(), 4);
    }

    #[test]
    fn edge_peering_invisible_to_top_monitor() {
        let g = sample();
        let origins: Vec<NodeId> = g.nodes().collect();
        // A monitor at the Tier-1 never routes through the 4-5 peering.
        let ribs = collect_ribs(&g, &[node(&g, 1)], &origins);
        let links = visible_links(&ribs);
        assert!(!links.contains(&(AsId(4), AsId(5))), "{links:?}");
        // A monitor at 4 *does* use its own peer link toward 5.
        let ribs = collect_ribs(&g, &[node(&g, 4)], &origins);
        let links = visible_links(&ribs);
        assert!(links.contains(&(AsId(4), AsId(5))), "{links:?}");
    }

    #[test]
    fn deterministic_representative_paths() {
        let g = sample();
        let monitors = vec![node(&g, 4)];
        let origins: Vec<NodeId> = g.nodes().collect();
        let a = collect_ribs(&g, &monitors, &origins);
        let b = collect_ribs(&g, &monitors, &origins);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_inputs() {
        let g = sample();
        assert!(collect_ribs(&g, &[], &[node(&g, 1)]).is_empty());
        assert!(collect_ribs(&g, &[node(&g, 1)], &[]).is_empty());
        assert!(visible_links(&[]).is_empty());
    }
}
