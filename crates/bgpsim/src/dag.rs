//! The tied-best next-hop DAG of a propagation outcome.
//!
//! Because the simulator keeps *all* routes tied for best (§6.1/§7.1), each
//! AS may have several next hops toward the origin. The set of tied-best
//! AS paths from `t` is exactly the set of paths from `t` to the origin in
//! this DAG. The DAG is acyclic because every hop decreases the selected
//! path length by exactly one.

use crate::propagate::{PropagationConfig, RoutingOutcome};
use flatnet_asgraph::{AsGraph, NodeId};

/// CSR-packed next-hop DAG with per-node tied-best path counts.
#[derive(Debug, Clone)]
pub struct NextHopDag {
    origin: NodeId,
    offsets: Vec<u32>,
    hops: Vec<NodeId>,
    /// Nodes ordered by increasing selected path length (topological order
    /// from the origin outward). Unreachable nodes are absent.
    topo: Vec<NodeId>,
    /// Selected path length per node (`u32::MAX` if unreachable).
    dist: Vec<u32>,
    /// Tied-best path count per node, as f64 (counts can be astronomically
    /// large; relative magnitudes are what reliance needs).
    counts: Vec<f64>,
}

impl NextHopDag {
    /// Materializes the DAG for `outcome` (computed on `g` under `cfg` —
    /// pass the same values or next hops will be inconsistent).
    pub fn build(g: &AsGraph, cfg: &PropagationConfig, outcome: &RoutingOutcome) -> Self {
        let n = g.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut hops = Vec::new();
        let mut dist = vec![u32::MAX; n];
        offsets.push(0u32);
        for i in 0..n as u32 {
            let u = NodeId(i);
            let nh = outcome.next_hops(g, cfg, u);
            hops.extend_from_slice(&nh);
            offsets.push(hops.len() as u32);
            if let Some((_, l)) = outcome.selection(u) {
                dist[u.idx()] = l;
            }
        }
        // Topological order: by increasing selected length, then node index.
        let mut topo: Vec<NodeId> = (0..n as u32)
            .map(NodeId)
            .filter(|&u| dist[u.idx()] != u32::MAX)
            .collect();
        topo.sort_by_key(|&u| (dist[u.idx()], u));

        // Path counts: N(origin) = 1; N(u) = sum of N(next hop).
        let mut counts = vec![0.0f64; n];
        for &u in &topo {
            if u == outcome.origin() {
                counts[u.idx()] = 1.0;
                continue;
            }
            let (s, e) = (offsets[u.idx()] as usize, offsets[u.idx() + 1] as usize);
            let mut total = 0.0;
            for &h in &hops[s..e] {
                total += counts[h.idx()];
            }
            counts[u.idx()] = total;
        }
        NextHopDag { origin: outcome.origin(), offsets, hops, topo, dist, counts }
    }

    /// The origin node.
    pub fn origin(&self) -> NodeId {
        self.origin
    }

    /// Tied-best next hops of `u`, sorted by node index.
    #[inline]
    pub fn next_hops(&self, u: NodeId) -> &[NodeId] {
        &self.hops[self.offsets[u.idx()] as usize..self.offsets[u.idx() + 1] as usize]
    }

    /// Number of tied-best paths from `u` to the origin (0.0 when
    /// unreachable, 1.0 for the origin itself).
    #[inline]
    pub fn path_count(&self, u: NodeId) -> f64 {
        self.counts[u.idx()]
    }

    /// Reachable nodes in topological (origin-outward) order.
    pub fn topo_order(&self) -> &[NodeId] {
        &self.topo
    }

    /// Number of nodes in the underlying graph (reachable or not).
    pub(crate) fn len(&self) -> usize {
        self.dist.len()
    }

    /// Number of reachable nodes (including the origin).
    pub fn reachable_len(&self) -> usize {
        self.topo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagate::propagate;
    use flatnet_asgraph::{AsGraphBuilder, AsId, Relationship};

    fn node(g: &AsGraph, asn: u32) -> NodeId {
        g.index_of(AsId(asn)).unwrap()
    }

    /// Exact tied-best path count from `u` to the origin, saturating at
    /// `u128::MAX`: the reference the `f64` [`NextHopDag::path_count`] is
    /// checked against.
    fn path_count_exact(dag: &NextHopDag, u: NodeId) -> u128 {
        let mut counts = vec![0u128; dag.dist.len()];
        for &v in &dag.topo {
            if v == dag.origin {
                counts[v.idx()] = 1;
                continue;
            }
            let mut total = 0u128;
            for &h in dag.next_hops(v) {
                total = total.saturating_add(counts[h.idx()]);
            }
            counts[v.idx()] = total;
        }
        counts[u.idx()]
    }

    /// Figure-5-style topology: origin 1; 2, 3, 4 its providers; 5 provider
    /// of 2 and 3; 6 provider of 4; 7 provider of 5 and 6.
    fn fig5() -> AsGraph {
        let mut b = AsGraphBuilder::new();
        for p in [2, 3, 4] {
            b.add_link(AsId(p), AsId(1), Relationship::P2c);
        }
        b.add_link(AsId(5), AsId(2), Relationship::P2c);
        b.add_link(AsId(5), AsId(3), Relationship::P2c);
        b.add_link(AsId(6), AsId(4), Relationship::P2c);
        b.add_link(AsId(7), AsId(5), Relationship::P2c);
        b.add_link(AsId(7), AsId(6), Relationship::P2c);
        b.build()
    }

    #[test]
    fn path_counts_match_fig5() {
        let g = fig5();
        let opts = PropagationConfig::default();
        let out = propagate(&g, node(&g, 1), &opts);
        let dag = NextHopDag::build(&g, &opts, &out);
        assert_eq!(dag.path_count(node(&g, 1)), 1.0);
        assert_eq!(dag.path_count(node(&g, 5)), 2.0); // via 2 or 3
        assert_eq!(dag.path_count(node(&g, 6)), 1.0); // via 4
        assert_eq!(dag.path_count(node(&g, 7)), 3.0); // 2 via 5 + 1 via 6
        assert_eq!(path_count_exact(&dag, node(&g, 7)), 3);
        assert_eq!(dag.reachable_len(), 7);
    }

    #[test]
    fn topo_order_is_origin_outward() {
        let g = fig5();
        let opts = PropagationConfig::default();
        let out = propagate(&g, node(&g, 1), &opts);
        let dag = NextHopDag::build(&g, &opts, &out);
        let order = dag.topo_order();
        assert_eq!(order[0], node(&g, 1));
        // Every next hop of a node appears before the node itself.
        let pos: std::collections::HashMap<NodeId, usize> =
            order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for &u in order {
            for &h in dag.next_hops(u) {
                assert!(pos[&h] < pos[&u], "{h} should precede {u}");
            }
        }
    }

    #[test]
    fn unreachable_nodes_have_zero_count() {
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(1), AsId(2), Relationship::P2p);
        b.add_isolated(AsId(9));
        let g = b.build();
        let opts = PropagationConfig::default();
        let out = propagate(&g, node(&g, 1), &opts);
        let dag = NextHopDag::build(&g, &opts, &out);
        assert_eq!(dag.path_count(node(&g, 9)), 0.0);
        assert_eq!(dag.dist[node(&g, 9).idx()], u32::MAX, "unreachable");
        assert_eq!(dag.dist[node(&g, 2).idx()], 1);
        assert_eq!(dag.reachable_len(), 2);
    }

    #[test]
    fn exponential_tie_fan_exact_counts() {
        // A ladder of k diamond levels gives 2^k tied paths.
        let mut b = AsGraphBuilder::new();
        let k = 20;
        b.add_isolated(AsId(1));
        // Node numbering: joint of level i is 100*i (origin = AS 1 at level
        // 0); the two mid nodes of level i are 100*i + 11 and 100*i + 12.
        for i in 0..k {
            let joint = if i == 0 { 1 } else { 100 * i };
            let next_joint = 100 * (i + 1);
            for mid in [100 * i + 11, 100 * i + 12] {
                b.add_link(AsId(mid), AsId(joint), Relationship::P2c);
                b.add_link(AsId(next_joint), AsId(mid), Relationship::P2c);
            }
        }
        let g = b.build();
        let opts = PropagationConfig::default();
        let out = propagate(&g, node(&g, 1), &opts);
        let dag = NextHopDag::build(&g, &opts, &out);
        let top = node(&g, 100 * k);
        assert_eq!(path_count_exact(&dag, top), 1u128 << k);
        assert!((dag.path_count(top) - (1u128 << k) as f64).abs() < 1e-6);
    }
}
