//! Test-only: tied-best path enumeration over the next-hop DAG.
//!
//! Listing every tied-best path is exponential in the ties, so nothing
//! shipped does it. It stays as the brute force the reliance recurrence
//! is checked against (`reliance`'s `matches_brute_force_path_enumeration`)
//! and as the reference for the membership rule shipped code uses,
//! `RoutingOutcome::is_tied_best_path`.

use crate::dag::NextHopDag;
use flatnet_asgraph::NodeId;

/// Error from a bounded enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TooManyPaths {
    /// The limit that was exceeded.
    pub limit: usize,
}

impl std::fmt::Display for TooManyPaths {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "more than {} tied-best paths", self.limit)
    }
}

/// Enumerates every tied-best path from `t` to the origin, each written
/// `[t, ..., origin]`. Fails once more than `limit` paths accumulate (tie
/// counts can be exponential). An unreachable `t` yields an empty vector.
pub(crate) fn enumerate_paths(
    dag: &NextHopDag,
    t: NodeId,
    limit: usize,
) -> Result<Vec<Vec<NodeId>>, TooManyPaths> {
    let mut out = Vec::new();
    if dag.path_count(t) == 0.0 {
        return Ok(out);
    }
    let mut current = vec![t];
    walk(dag, t, &mut current, &mut out, limit)?;
    Ok(out)
}

fn walk(
    dag: &NextHopDag,
    u: NodeId,
    current: &mut Vec<NodeId>,
    out: &mut Vec<Vec<NodeId>>,
    limit: usize,
) -> Result<(), TooManyPaths> {
    if u == dag.origin() {
        if out.len() >= limit {
            return Err(TooManyPaths { limit });
        }
        out.push(current.clone());
        return Ok(());
    }
    for &h in dag.next_hops(u) {
        current.push(h);
        walk(dag, h, current, out, limit)?;
        current.pop();
    }
    Ok(())
}

mod tests {
    use super::*;
    use crate::propagate::{propagate, PropagationConfig, RoutingOutcome};
    use flatnet_asgraph::{AsGraph, AsGraphBuilder, AsId, Relationship};

    fn node(g: &AsGraph, asn: u32) -> NodeId {
        g.index_of(AsId(asn)).unwrap()
    }

    fn diamond() -> (AsGraph, RoutingOutcome, NextHopDag) {
        // origin 1; 2 and 3 providers of 1; 4 provider of both.
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(2), AsId(1), Relationship::P2c);
        b.add_link(AsId(3), AsId(1), Relationship::P2c);
        b.add_link(AsId(4), AsId(2), Relationship::P2c);
        b.add_link(AsId(4), AsId(3), Relationship::P2c);
        b.add_isolated(AsId(9));
        let g = b.build();
        let opts = PropagationConfig::default();
        let out = propagate(&g, node(&g, 1), &opts);
        let dag = NextHopDag::build(&g, &opts, &out);
        (g, out, dag)
    }

    #[test]
    fn enumerates_both_diamond_paths() {
        let (g, _, dag) = diamond();
        let mut paths = enumerate_paths(&dag, node(&g, 4), 100).unwrap();
        paths.sort();
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0], vec![node(&g, 4), node(&g, 2), node(&g, 1)]);
        assert_eq!(paths[1], vec![node(&g, 4), node(&g, 3), node(&g, 1)]);
    }

    #[test]
    fn limit_is_enforced() {
        let (g, _, dag) = diamond();
        let err = enumerate_paths(&dag, node(&g, 4), 1).unwrap_err();
        assert_eq!(err, TooManyPaths { limit: 1 });
        assert!(err.to_string().contains("more than 1"));
    }

    #[test]
    fn unreachable_enumerates_empty() {
        let (g, _, dag) = diamond();
        assert!(enumerate_paths(&dag, node(&g, 9), 10).unwrap().is_empty());
    }

    #[test]
    fn origin_has_the_trivial_path() {
        let (g, _, dag) = diamond();
        let paths = enumerate_paths(&dag, node(&g, 1), 10).unwrap();
        assert_eq!(paths, vec![vec![node(&g, 1)]]);
    }

    /// The shipped membership rule, read off the run in place, accepts
    /// every enumerated path and nothing else on the diamond.
    #[test]
    fn contains_path_agrees_with_enumeration() {
        let (g, out, dag) = diamond();
        let cfg = PropagationConfig::default();
        let holds = |asns: &[u32]| {
            let path: Vec<NodeId> = asns.iter().map(|&a| node(&g, a)).collect();
            out.is_tied_best_path(&g, &cfg, &path)
        };
        for t in g.nodes() {
            for p in enumerate_paths(&dag, t, 100).unwrap() {
                assert!(out.is_tied_best_path(&g, &cfg, &p), "{p:?}");
            }
        }
        assert!(holds(&[4, 2, 1]));
        assert!(holds(&[4, 3, 1]));
        // Wrong order / non-best / not ending at origin.
        assert!(!holds(&[4, 1]));
        assert!(!holds(&[4, 2]));
        assert!(!holds(&[]));
        assert!(holds(&[1]));
    }
}
