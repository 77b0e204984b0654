//! Classic AS influence metrics: customer cone sizes and transit degree.
//!
//! The paper (§6.6) contrasts its new *hierarchy-free reachability* metric
//! with **customer cone** — "the set of ASes that X can reach using only p2c
//! links" (AS-Rank / Luckie et al.) — and uses **transit degree** when
//! reasoning about which networks sit at the hierarchy's top. Both are
//! implemented here directly on [`AsGraph`].

use crate::graph::{AsGraph, NodeId};

/// Customer cone **sizes** for every AS in the graph, indexed by node index.
///
/// Each entry counts the cone including the AS itself, so stub networks have
/// size 1. Implemented as one bounded DFS per AS with an epoch-stamped
/// visited array; total cost is the sum of cone edge masses, which is small
/// for Internet-like hierarchies (most ASes are stubs).
pub fn customer_cone_sizes(g: &AsGraph) -> Vec<u32> {
    let n = g.len();
    let mut sizes = vec![0u32; n];
    let mut stamp = vec![0u32; n];
    let mut epoch = 0u32;
    let mut stack: Vec<NodeId> = Vec::new();
    for root in g.nodes() {
        epoch += 1;
        let mut count = 0u32;
        stack.clear();
        stack.push(root);
        stamp[root.idx()] = epoch;
        while let Some(u) = stack.pop() {
            count += 1;
            for &c in g.customers(u) {
                if stamp[c.idx()] != epoch {
                    stamp[c.idx()] = epoch;
                    stack.push(c);
                }
            }
        }
        sizes[root.idx()] = count;
    }
    sizes
}

/// AS-Rank-style **transit degree**: the number of unique neighbors that can
/// appear on either side of `n` in a valley-free transited path.
///
/// Traffic only transits `n` between a customer and some other neighbor, so
/// an AS with no customers has transit degree 0; an AS with at least one
/// customer and at least two neighbors can transit between any neighbor pair
/// that includes a customer, making every neighbor countable. (CAIDA defines
/// transit degree over observed BGP paths; this is the graph-theoretic
/// equivalent under the valley-free model, which is all a relationship-only
/// dataset can support.)
pub fn transit_degree(g: &AsGraph, n: NodeId) -> usize {
    let customers = g.customers(n).len();
    let total = g.degree(n);
    if customers == 0 || total < 2 {
        0
    } else {
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{AsGraphBuilder, AsId, Relationship};

    /// The customer cone of `n`: every AS reachable from `n` by repeatedly
    /// following provider-to-customer links, **including `n` itself** (AS-Rank's
    /// convention). Returned sorted by node index: the reference
    /// [`customer_cone_sizes`] is checked against.
    fn customer_cone(g: &AsGraph, n: NodeId) -> Vec<NodeId> {
        let mut visited = vec![false; g.len()];
        let mut stack = vec![n];
        let mut cone = Vec::new();
        visited[n.idx()] = true;
        while let Some(u) = stack.pop() {
            cone.push(u);
            for &c in g.customers(u) {
                if !visited[c.idx()] {
                    visited[c.idx()] = true;
                    stack.push(c);
                }
            }
        }
        cone.sort_unstable();
        cone
    }

    /// 1 -> 2 -> {3, 4}; 3 peers 5; 5 is a stub customer of 4.
    fn chain() -> AsGraph {
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(1), AsId(2), Relationship::P2c);
        b.add_link(AsId(2), AsId(3), Relationship::P2c);
        b.add_link(AsId(2), AsId(4), Relationship::P2c);
        b.add_link(AsId(3), AsId(5), Relationship::P2p);
        b.add_link(AsId(4), AsId(5), Relationship::P2c);
        b.build()
    }

    fn asns(g: &AsGraph, nodes: &[NodeId]) -> Vec<u32> {
        nodes.iter().map(|&n| g.asn(n).0).collect()
    }

    #[test]
    fn cone_follows_only_p2c_down() {
        let g = chain();
        let n1 = g.index_of(AsId(1)).unwrap();
        let cone = customer_cone(&g, n1);
        // Peer link 3-5 must not be followed, but 5 enters via 4.
        assert_eq!(asns(&g, &cone), vec![1, 2, 3, 4, 5]);

        let n3 = g.index_of(AsId(3)).unwrap();
        assert_eq!(asns(&g, &customer_cone(&g, n3)), vec![3]);
    }

    #[test]
    fn cone_sizes_match_individual_cones() {
        let g = chain();
        let sizes = customer_cone_sizes(&g);
        for n in g.nodes() {
            assert_eq!(sizes[n.idx()] as usize, customer_cone(&g, n).len(), "node {n}");
        }
    }

    #[test]
    fn stub_cone_is_self_only() {
        let g = chain();
        let n5 = g.index_of(AsId(5)).unwrap();
        assert_eq!(customer_cone(&g, n5), vec![n5]);
    }

    #[test]
    fn cone_handles_diamonds_without_double_count() {
        // 1 -> 2, 1 -> 3, 2 -> 4, 3 -> 4: 4 reached twice, counted once.
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(1), AsId(2), Relationship::P2c);
        b.add_link(AsId(1), AsId(3), Relationship::P2c);
        b.add_link(AsId(2), AsId(4), Relationship::P2c);
        b.add_link(AsId(3), AsId(4), Relationship::P2c);
        let g = b.build();
        let n1 = g.index_of(AsId(1)).unwrap();
        assert_eq!(customer_cone(&g, n1).len(), 4);
    }

    #[test]
    fn transit_degree_zero_without_customers() {
        let g = chain();
        let n5 = g.index_of(AsId(5)).unwrap(); // only peer + provider
        assert_eq!(transit_degree(&g, n5), 0);
        let n2 = g.index_of(AsId(2)).unwrap(); // 1 provider, 2 customers
        assert_eq!(transit_degree(&g, n2), 3);
        let n1 = g.index_of(AsId(1)).unwrap(); // single neighbor: cannot transit
        assert_eq!(transit_degree(&g, n1), 0);
    }

    #[test]
    fn node_degree_counts_all_classes() {
        let g = chain();
        let n3 = g.index_of(AsId(3)).unwrap();
        assert_eq!(g.degree(n3), 2); // provider 2 + peer 5
    }
}
