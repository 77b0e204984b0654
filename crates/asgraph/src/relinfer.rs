//! AS-relationship inference from observed BGP paths (Gao's algorithm).
//!
//! The CAIDA as-rel datasets the paper builds on (§2.3, §4.1) are produced
//! by inference algorithms (Gao 2001 → AS-Rank → ProbLink) run over route
//! collector RIBs. This module implements the classic degree-based Gao
//! algorithm over AS paths:
//!
//! 1. every path is assumed **valley-free**, so it climbs customer→provider
//!    links to a *top provider* and then descends provider→customer;
//! 2. the top provider of a path is its highest-degree AS (degree measured
//!    over the observed paths themselves);
//! 3. each path votes its uphill edges as c2p and its downhill edges as
//!    p2c — **excluding the one or two edges adjacent to the top**, where a
//!    settlement-free peering may legally sit (Gao's refined algorithm);
//! 4. edges left without any transit vote are classified p2p when their
//!    endpoints' degrees are within `peer_degree_ratio` (Gao's `R`),
//!    else c2p with the smaller-degree side as the customer.
//!
//! Run against RIBs simulated from a known ground truth
//! (`flatnet_bgpsim::collectors` — via the `flatnet-core` experiment),
//! this reproduces the paper's premise quantitatively: **c2p links infer
//! accurately, edge p2p links barely appear in feeds at all** — which is
//! why the paper augments with traceroutes from inside the clouds.

use crate::graph::{AsGraph, AsGraphBuilder, AsId, Relationship};
use std::collections::{BTreeMap, BTreeSet};

/// Votes accumulated for one canonically ordered AS pair `(lo, hi)`.
#[derive(Debug, Default, Clone, Copy)]
struct EdgeVotes {
    /// Transit votes with `lo` on the customer side.
    lo_customer: u32,
    /// Transit votes with `hi` on the customer side.
    hi_customer: u32,
}

/// The inferred topology plus bookkeeping for evaluation.
#[derive(Debug, Clone)]
pub struct InferredRelationships {
    /// The inferred relationship graph.
    pub graph: AsGraph,
    /// Number of distinct links observed in the paths.
    pub observed_links: usize,
    /// Links classified p2p.
    pub inferred_p2p: usize,
    /// Links classified p2c.
    pub inferred_p2c: usize,
}

/// Runs Gao-style inference over AS paths (each `[monitor, ..., origin]`,
/// loop-free). `peer_degree_ratio` is Gao's `R` (the paper's lineage used
/// R = 60): an edge can only be p2p if its endpoints' degrees are within
/// this factor.
pub fn infer_relationships(paths: &[Vec<AsId>], peer_degree_ratio: f64) -> InferredRelationships {
    // Degrees over the observed adjacency set.
    let mut neighbors: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    for p in paths {
        for w in p.windows(2) {
            if w[0] == w[1] {
                continue;
            }
            neighbors.entry(w[0].0).or_default().insert(w[1].0);
            neighbors.entry(w[1].0).or_default().insert(w[0].0);
        }
    }
    let degree = |a: AsId| neighbors.get(&a.0).map(|s| s.len()).unwrap_or(0);

    // Vote per edge.
    let mut votes: BTreeMap<(u32, u32), EdgeVotes> = BTreeMap::new();
    for p in paths {
        if p.len() < 2 {
            continue;
        }
        // Top provider: highest degree, leftmost on ties (Gao).
        let top = (0..p.len())
            .max_by_key(|&i| (degree(p[i]), std::cmp::Reverse(i)))
            .unwrap();
        for k in 0..p.len() - 1 {
            let (a, b) = (p[k], p[k + 1]);
            if a == b {
                continue;
            }
            let key = (a.0.min(b.0), a.0.max(b.0));
            let v = votes.entry(key).or_default();
            // The ≤2 edges touching the top provider carry no transit
            // evidence — one of them may be the path's single peer link.
            if k + 1 == top || k == top {
                continue;
            }
            // Uphill strictly below the top, downhill strictly after: the
            // customer side is `a` when climbing, `b` when descending.
            let customer = if k < top { a } else { b };
            if customer.0 == key.0 {
                v.lo_customer += 1;
            } else {
                v.hi_customer += 1;
            }
        }
    }

    // Classify.
    let mut b = AsGraphBuilder::new();
    let mut inferred_p2p = 0usize;
    let mut inferred_p2c = 0usize;
    for (&(lo, hi), v) in &votes {
        let (dlo, dhi) = (degree(AsId(lo)) as f64, degree(AsId(hi)) as f64);
        let comparable = dlo.max(dhi) / dlo.min(dhi).max(1.0) <= peer_degree_ratio;
        if v.lo_customer == 0 && v.hi_customer == 0 {
            // Never transited through: the edge only ever appeared
            // adjacent to path tops. Comparable degrees ⇒ p2p; otherwise
            // the small side buys transit from the big side.
            if comparable {
                b.add_link(AsId(lo), AsId(hi), Relationship::P2p);
                inferred_p2p += 1;
            } else if dlo < dhi {
                b.add_link(AsId(hi), AsId(lo), Relationship::P2c);
                inferred_p2c += 1;
            } else {
                b.add_link(AsId(lo), AsId(hi), Relationship::P2c);
                inferred_p2c += 1;
            }
        } else if v.lo_customer >= v.hi_customer {
            // `lo` is the customer: provider is `hi`.
            b.add_link(AsId(hi), AsId(lo), Relationship::P2c);
            inferred_p2c += 1;
        } else {
            b.add_link(AsId(lo), AsId(hi), Relationship::P2c);
            inferred_p2c += 1;
        }
    }
    InferredRelationships {
        graph: b.build(),
        observed_links: votes.len(),
        inferred_p2p,
        inferred_p2c,
    }
}

/// Accuracy of an inferred graph against ground truth, over the links the
/// inference observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RelAccuracy {
    /// Observed links that are c2p in truth and inferred c2p with the
    /// correct orientation.
    pub c2p_correct: usize,
    /// Observed truth-c2p links inferred with the wrong orientation.
    pub c2p_flipped: usize,
    /// Observed truth-c2p links inferred as p2p.
    pub c2p_as_p2p: usize,
    /// Observed truth-p2p links inferred as p2p.
    pub p2p_correct: usize,
    /// Observed truth-p2p links inferred as c2p (either orientation).
    pub p2p_as_c2p: usize,
    /// Truth-p2p links that never appeared in any path (the invisibility
    /// the paper's traceroute campaign exists to fix).
    pub p2p_invisible: usize,
    /// Truth-c2p links that never appeared in any path.
    pub c2p_invisible: usize,
}

impl RelAccuracy {
    /// Fraction of *observed* truth-c2p links inferred correctly.
    pub fn c2p_accuracy(&self) -> f64 {
        let total = self.c2p_correct + self.c2p_flipped + self.c2p_as_p2p;
        if total == 0 {
            0.0
        } else {
            self.c2p_correct as f64 / total as f64
        }
    }

    /// Fraction of **all** truth-p2p links that were both observed and
    /// correctly classified — the feed's real peer coverage.
    pub fn p2p_recall(&self) -> f64 {
        let total = self.p2p_correct + self.p2p_as_c2p + self.p2p_invisible;
        if total == 0 {
            0.0
        } else {
            self.p2p_correct as f64 / total as f64
        }
    }

    /// Fraction of truth-p2p links that never showed up in the feed.
    pub fn p2p_invisible_fraction(&self) -> f64 {
        let total = self.p2p_correct + self.p2p_as_c2p + self.p2p_invisible;
        if total == 0 {
            0.0
        } else {
            self.p2p_invisible as f64 / total as f64
        }
    }
}

/// Scores `inferred` against `truth`. Links in `inferred` that don't exist
/// in `truth` are ignored (the simulator never fabricates adjacencies, so
/// they cannot occur in our pipelines).
pub fn score_inference(inferred: &AsGraph, truth: &AsGraph) -> RelAccuracy {
    use crate::graph::NeighborKind;
    let mut acc = RelAccuracy::default();
    for (x, y, rel) in truth.edges() {
        let a = truth.asn(x); // provider for P2c
        let b = truth.asn(y);
        let inferred_kind = match (inferred.index_of(a), inferred.index_of(b)) {
            (Some(ia), Some(ib)) => inferred.kind_between(ia, ib),
            _ => None,
        };
        match rel {
            Relationship::P2c => match inferred_kind {
                None => acc.c2p_invisible += 1,
                // From a's perspective b should be a Customer.
                Some(NeighborKind::Customer) => acc.c2p_correct += 1,
                Some(NeighborKind::Provider) => acc.c2p_flipped += 1,
                Some(NeighborKind::Peer) => acc.c2p_as_p2p += 1,
            },
            Relationship::P2p => match inferred_kind {
                None => acc.p2p_invisible += 1,
                Some(NeighborKind::Peer) => acc.p2p_correct += 1,
                Some(_) => acc.p2p_as_c2p += 1,
            },
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(path: &[u32]) -> Vec<AsId> {
        path.iter().map(|&a| AsId(a)).collect()
    }

    #[test]
    fn infers_simple_hierarchy() {
        // Two tops 1 and 2 peering; customers 10 (of 1) and 20 (of 2);
        // stubs 100 (of 10), 200 (of 20). Monitors at the stubs see
        // valley-free paths over the top.
        // Extra customers (3,4 under 1; 5,6 under 2) give the tops the
        // degree dominance the heuristic keys on.
        let paths = vec![
            p(&[100, 10, 1, 2, 20, 200]),
            p(&[200, 20, 2, 1, 10, 100]),
            p(&[100, 10, 1, 2, 20]),
            p(&[200, 20, 2, 1, 10]),
            p(&[100, 10, 1, 3]),
            p(&[100, 10, 1, 4]),
            p(&[200, 20, 2, 5]),
            p(&[200, 20, 2, 6]),
        ];
        let inf = infer_relationships(&paths, 3.0);
        let g = &inf.graph;
        let n = |a: u32| g.index_of(AsId(a)).unwrap();
        use crate::graph::NeighborKind;
        assert_eq!(g.kind_between(n(10), n(1)), Some(NeighborKind::Provider));
        assert_eq!(g.kind_between(n(100), n(10)), Some(NeighborKind::Provider));
        assert_eq!(g.kind_between(n(20), n(2)), Some(NeighborKind::Provider));
        // The 1-2 edge sits at the top of every path crossing it, with
        // conflicting climb directions: p2p.
        assert_eq!(g.kind_between(n(1), n(2)), Some(NeighborKind::Peer));
        // 1's and 2's extra customers classify as c2p.
        assert_eq!(g.kind_between(n(3), n(1)), Some(NeighborKind::Provider));
        assert_eq!(g.kind_between(n(5), n(2)), Some(NeighborKind::Provider));
        assert_eq!(inf.observed_links, 9);
        assert_eq!(inf.inferred_p2p, 1);
        assert_eq!(inf.inferred_p2c, 8);
    }

    #[test]
    fn degree_gap_blocks_false_peering() {
        // A stub single-homed behind a huge provider: even though the edge
        // is top-adjacent from the stub's own monitor, the degree gap keeps
        // it c2p... with ratio 1.0 it *could* flip, so use Gao's R.
        let mut paths = vec![p(&[100, 1])];
        // Give 1 many neighbors to create the degree gap.
        for x in 2..40 {
            paths.push(p(&[100, 1, x]));
        }
        let inf = infer_relationships(&paths, 3.0);
        let g = &inf.graph;
        let n = |a: u32| g.index_of(AsId(a)).unwrap();
        use crate::graph::NeighborKind;
        assert_eq!(g.kind_between(n(100), n(1)), Some(NeighborKind::Provider));
    }

    #[test]
    fn scoring_counts_all_cases() {
        let mut truth = AsGraphBuilder::new();
        truth.add_link(AsId(1), AsId(2), Relationship::P2c);
        truth.add_link(AsId(1), AsId(3), Relationship::P2c);
        truth.add_link(AsId(2), AsId(3), Relationship::P2p);
        truth.add_link(AsId(4), AsId(5), Relationship::P2p); // invisible
        let truth = truth.build();

        let mut inf = AsGraphBuilder::new();
        inf.add_link(AsId(1), AsId(2), Relationship::P2c); // correct
        inf.add_link(AsId(3), AsId(1), Relationship::P2c); // flipped
        inf.add_link(AsId(2), AsId(3), Relationship::P2c); // p2p as c2p
        let inf = inf.build();

        let acc = score_inference(&inf, &truth);
        assert_eq!(acc.c2p_correct, 1);
        assert_eq!(acc.c2p_flipped, 1);
        assert_eq!(acc.p2p_as_c2p, 1);
        assert_eq!(acc.p2p_invisible, 1);
        assert_eq!(acc.c2p_invisible, 0);
        assert!((acc.c2p_accuracy() - 0.5).abs() < 1e-12);
        assert_eq!(acc.p2p_recall(), 0.0);
        assert!((acc.p2p_invisible_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_and_degenerate_paths() {
        let inf = infer_relationships(&[], 60.0);
        assert_eq!(inf.observed_links, 0);
        let inf = infer_relationships(&[p(&[7]), p(&[])], 60.0);
        assert_eq!(inf.observed_links, 0);
        let acc = RelAccuracy::default();
        assert_eq!(acc.c2p_accuracy(), 0.0);
        assert_eq!(acc.p2p_recall(), 0.0);
    }
}
