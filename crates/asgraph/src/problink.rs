//! ProbLink-style iterative refinement of inferred AS relationships.
//!
//! ProbLink (Jin et al., NSDI '19) — "the current state of the art
//! algorithm for inferring AS relationships" per the paper's §2.3 —
//! improves a base inference (Gao / AS-Rank) by iteratively reweighing
//! each link against evidence from the paths it appears on. This module
//! implements the core of that idea as deterministic constraint
//! propagation (not a port of ProbLink's naive-Bayes machinery, whose
//! features need IXP/co-location data we model elsewhere):
//!
//! every observed path must be **valley-free** under the current labels —
//! a climb segment (c2p links), at most one flat step (p2p), then a
//! descent (p2c). Each sweep finds the single relabeling that removes the
//! most violations — ties broken by a degree prior (a label that makes a
//! high-degree AS buy transit from a low-degree one is the least
//! trustworthy, ProbLink's strongest feature) and then by canonical link
//! order — and applies it. Total violations strictly decrease each sweep,
//! so the loop terminates. Valley-freeness alone cannot always identify a
//! unique ground truth (whole consistent relabelings exist); the prior is
//! what steers the descent toward the plausible one.

use crate::graph::{AsGraph, AsGraphBuilder, AsId, Relationship};
use std::collections::BTreeMap;

/// Directed label of a link `(lo, hi)` (canonical ASN order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Label {
    /// `lo` is the customer of `hi`.
    LoCustomer,
    /// `hi` is the customer of `lo`.
    HiCustomer,
    /// Settlement-free peers.
    Peer,
}

/// Result of a refinement run.
#[derive(Debug, Clone)]
pub struct RefinedRelationships {
    /// The refined graph.
    pub graph: AsGraph,
    /// Links whose label changed from the base inference.
    pub relabeled: usize,
    /// Iterations executed (including the final no-change pass).
    pub iterations: usize,
    /// Valley-free violations remaining across all path adjacencies.
    pub remaining_violations: usize,
}

type Key = (u32, u32);

fn key(a: AsId, b: AsId) -> Key {
    (a.0.min(b.0), a.0.max(b.0))
}

/// The per-hop direction a label implies when traversing from `from`:
/// -1 = downhill (provider→customer), 0 = flat, +1 = uphill.
fn step(label: Label, from: AsId, k: Key) -> i8 {
    match label {
        Label::Peer => 0,
        Label::LoCustomer => {
            if from.0 == k.0 {
                1 // customer → provider: climbing
            } else {
                -1
            }
        }
        Label::HiCustomer => {
            if from.0 == k.1 {
                1
            } else {
                -1
            }
        }
    }
}

/// Whether a consecutive pair of steps violates valley-freeness:
/// after going flat (0) or down (-1), the path may never go up (+1) or
/// flat again (a second flat step is also a violation).
fn violates(prev: i8, next: i8) -> bool {
    match prev {
        1 => false,              // still climbing: anything may follow
        0 => next != -1,         // after the single flat step: must descend
        _ => next != -1,         // descending: must keep descending
    }
}

/// Refines a base inference (typically [`crate::relinfer`]'s output)
/// against the observed paths, for at most `max_iters` sweeps.
pub fn refine_relationships(
    base: &AsGraph,
    paths: &[Vec<AsId>],
    max_iters: usize,
) -> RefinedRelationships {
    // Current labels.
    let mut labels: BTreeMap<Key, Label> = BTreeMap::new();
    for (x, y, rel) in base.edges() {
        let (a, b) = (base.asn(x), base.asn(y));
        let k = key(a, b);
        let label = match rel {
            Relationship::P2p => Label::Peer,
            Relationship::P2c => {
                // x is the provider: the customer is y.
                if b.0 == k.0 {
                    Label::LoCustomer
                } else {
                    Label::HiCustomer
                }
            }
        };
        labels.insert(k, label);
    }
    let original = labels.clone();

    // Index: for each link, the list of (prev link + direction, next link +
    // direction) adjacencies it participates in, as (neighbor key, my
    // `from`, neighbor `from`, i_am_first).
    #[derive(Clone, Copy)]
    struct Adj {
        other: Key,
        my_from: AsId,
        other_from: AsId,
        i_am_first: bool,
    }
    let mut adjacencies: BTreeMap<Key, Vec<Adj>> = BTreeMap::new();
    for p in paths {
        for w in p.windows(3) {
            let (a, b, c) = (w[0], w[1], w[2]);
            if a == b || b == c {
                continue;
            }
            let k1 = key(a, b);
            let k2 = key(b, c);
            if !labels.contains_key(&k1) || !labels.contains_key(&k2) {
                continue;
            }
            adjacencies.entry(k1).or_default().push(Adj {
                other: k2,
                my_from: a,
                other_from: b,
                i_am_first: true,
            });
            adjacencies.entry(k2).or_default().push(Adj {
                other: k1,
                my_from: b,
                other_from: a,
                i_am_first: false,
            });
        }
    }

    let violations_for = |k: Key, label: Label, labels: &BTreeMap<Key, Label>| -> usize {
        adjacencies
            .get(&k)
            .map(|adjs| {
                adjs.iter()
                    .filter(|adj| {
                        let other = labels[&adj.other];
                        let mine = step(label, adj.my_from, k);
                        let theirs = step(other, adj.other_from, adj.other);
                        if adj.i_am_first {
                            violates(mine, theirs)
                        } else {
                            violates(theirs, mine)
                        }
                    })
                    .count()
            })
            .unwrap_or(0)
    };

    // Degree prior: how implausible a label is. A big network buying
    // transit from a much smaller one is suspect; peering is neutral.
    let mut degree: BTreeMap<u32, usize> = BTreeMap::new();
    for n in base.nodes() {
        degree.insert(base.asn(n).0, base.degree(n));
    }
    let prior_penalty = |k: Key, label: Label| -> i64 {
        let (dlo, dhi) = (degree[&k.0] as i64, degree[&k.1] as i64);
        match label {
            Label::Peer => 0,
            Label::LoCustomer => (dlo - dhi).max(0), // lo buys from hi
            Label::HiCustomer => (dhi - dlo).max(0),
        }
    };

    let mut iterations = 0;
    for _ in 0..max_iters {
        iterations += 1;
        // Pick the single best relabeling this sweep:
        // (violations removed, prior improvement, reversed key) — maximal.
        let mut best: Option<(usize, i64, std::cmp::Reverse<Key>, Key, Label)> = None;
        for (&k, &current) in &labels {
            let current_cost = violations_for(k, current, &labels);
            if current_cost == 0 {
                continue;
            }
            for cand in [Label::LoCustomer, Label::HiCustomer, Label::Peer] {
                if cand == current {
                    continue;
                }
                let cost = violations_for(k, cand, &labels);
                if cost >= current_cost {
                    continue;
                }
                let removed = current_cost - cost;
                let prior_gain = prior_penalty(k, current) - prior_penalty(k, cand);
                let entry = (removed, prior_gain, std::cmp::Reverse(k), k, cand);
                if best.as_ref().map(|b| (b.0, b.1, b.2) < (removed, prior_gain, std::cmp::Reverse(k))).unwrap_or(true) {
                    best = Some(entry);
                }
            }
        }
        match best {
            Some((_, _, _, k, label)) => {
                labels.insert(k, label);
            }
            None => break,
        }
    }

    // Remaining violations (each adjacency counted once, from its first
    // link's perspective).
    let mut remaining = 0usize;
    for (k, adjs) in &adjacencies {
        for adj in adjs {
            if adj.i_am_first {
                let mine = step(labels[k], adj.my_from, *k);
                let theirs = step(labels[&adj.other], adj.other_from, adj.other);
                if violates(mine, theirs) {
                    remaining += 1;
                }
            }
        }
    }

    let relabeled = labels.iter().filter(|(k, &l)| original[*k] != l).count();
    let mut b = AsGraphBuilder::new();
    for (&(lo, hi), &label) in &labels {
        match label {
            Label::Peer => {
                b.add_link(AsId(lo), AsId(hi), Relationship::P2p);
            }
            Label::LoCustomer => {
                b.add_link(AsId(hi), AsId(lo), Relationship::P2c);
            }
            Label::HiCustomer => {
                b.add_link(AsId(lo), AsId(hi), Relationship::P2c);
            }
        }
    }
    // Preserve isolated nodes so the universes match.
    for n in base.nodes() {
        if base.degree(n) == 0 {
            b.add_isolated(base.asn(n));
        }
    }
    RefinedRelationships {
        graph: b.build(),
        relabeled,
        iterations,
        remaining_violations: remaining,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NeighborKind;

    fn p(path: &[u32]) -> Vec<AsId> {
        path.iter().map(|&a| AsId(a)).collect()
    }

    /// Base graph with one deliberately flipped link; the paths pin it.
    #[test]
    fn fixes_a_flipped_c2p_link() {
        // Truth: 1 provider of 2 provider of 3; paths climb 3->2->1 to the
        // top then descend 1->4.
        let mut base = AsGraphBuilder::new();
        base.add_link(AsId(1), AsId(2), Relationship::P2c);
        // FLIPPED: base wrongly says 3 is the provider of 2.
        base.add_link(AsId(3), AsId(2), Relationship::P2c);
        base.add_link(AsId(1), AsId(4), Relationship::P2c);
        let base = base.build();
        let paths = vec![p(&[3, 2, 1, 4]), p(&[3, 2, 1]), p(&[4, 1, 2, 3])];
        // With the flip, path [3,2,1,4] steps: (3->2) down, (2->1) up: a
        // valley. Refinement must relabel (2,3) so 3 is the customer.
        let out = refine_relationships(&base, &paths, 10);
        let g = &out.graph;
        let n2 = g.index_of(AsId(2)).unwrap();
        let n3 = g.index_of(AsId(3)).unwrap();
        assert_eq!(g.kind_between(n2, n3), Some(NeighborKind::Customer));
        assert_eq!(out.relabeled, 1);
        assert_eq!(out.remaining_violations, 0);
    }

    #[test]
    fn consistent_base_is_untouched() {
        let mut base = AsGraphBuilder::new();
        base.add_link(AsId(1), AsId(2), Relationship::P2c);
        base.add_link(AsId(1), AsId(3), Relationship::P2c);
        base.add_link(AsId(2), AsId(4), Relationship::P2c);
        let base = base.build();
        let paths = vec![p(&[4, 2, 1, 3]), p(&[3, 1, 2, 4])];
        let out = refine_relationships(&base, &paths, 10);
        assert_eq!(out.relabeled, 0);
        assert_eq!(out.remaining_violations, 0);
        assert!(out.graph.edges().eq(base.edges()));
    }

    #[test]
    fn double_peer_step_is_a_violation_to_fix() {
        // Truth: 1-2 peer, 2 provider of 3. Base wrongly has 2-3 as peer:
        // path [1,2,3] would go flat-flat.
        let mut base = AsGraphBuilder::new();
        base.add_link(AsId(1), AsId(2), Relationship::P2p);
        base.add_link(AsId(2), AsId(3), Relationship::P2p);
        let base = base.build();
        let paths = vec![p(&[1, 2, 3])];
        let out = refine_relationships(&base, &paths, 10);
        assert_eq!(out.remaining_violations, 0);
        // Valley-freeness alone cannot tell which of the two flat steps is
        // wrong (both single-flip solutions are consistent); the guarantee
        // is consistency with exactly one relabeling.
        assert_eq!(out.relabeled, 1);
        let g = &out.graph;
        let n1 = g.index_of(AsId(1)).unwrap();
        let n2 = g.index_of(AsId(2)).unwrap();
        let n3 = g.index_of(AsId(3)).unwrap();
        let still_peer = [g.kind_between(n1, n2), g.kind_between(n2, n3)]
            .iter()
            .filter(|k| **k == Some(NeighborKind::Peer))
            .count();
        assert_eq!(still_peer, 1);
    }

    #[test]
    fn empty_inputs_and_termination() {
        let base = AsGraphBuilder::new().build();
        let out = refine_relationships(&base, &[], 5);
        assert_eq!(out.relabeled, 0);
        assert_eq!(out.iterations, 1);
        // max_iters == 0: nothing runs, base preserved.
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(1), AsId(2), Relationship::P2p);
        let base = b.build();
        let out = refine_relationships(&base, &[p(&[1, 2])], 0);
        assert_eq!(out.iterations, 0);
        assert!(out.graph.edges().eq(base.edges()));
    }
}
