//! Unreachable-network type breakdown (§6.7, Figure 4).
//!
//! Which *kinds* of networks does each provider fail to reach under the
//! hierarchy-free constraint? The split reveals peering strategy: Google,
//! IBM, and Microsoft concentrate on access networks (few unreachable
//! eyeballs), Amazon looks like a transit provider.

use flatnet_asgraph::astype::AsType;
use flatnet_asgraph::{AsGraph, AsId, NodeId, Tiers};
use flatnet_bgpsim::{Exclusion, ExclusionPolicy, Simulation, Words};

/// Fig. 4: one provider's unreachable-AS breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct UnreachableBreakdown {
    /// The origin network.
    pub asn: AsId,
    /// Total unreachable ASes under hierarchy-free constraints (the
    /// excluded sets themselves are not counted as unreachable).
    pub total: usize,
    /// Counts per type, in [`AsType::ALL`] order
    /// (content, transit, access, enterprise).
    pub by_type: [usize; 4],
}

impl UnreachableBreakdown {
    /// Percentage of the unreachable set that is of the given type.
    pub fn pct(&self, ty: AsType) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let i = AsType::ALL.iter().position(|&t| t == ty).unwrap();
        100.0 * self.by_type[i] as f64 / self.total as f64
    }
}

/// Computes Fig. 4 for one origin. `type_of` maps a node to its refined
/// AS type (callers typically close over `AsTypeDb` + user counts).
pub fn unreachable_breakdown(
    g: &AsGraph,
    tiers: &Tiers,
    origin: AsId,
    type_of: impl Fn(NodeId) -> AsType,
) -> Option<UnreachableBreakdown> {
    unreachable_breakdowns(g, tiers, &[origin], type_of, 1).pop().unwrap()
}

/// Computes Fig. 4 for many origins in one bit-parallel sweep (up to 256
/// origins per kernel block). Unknown ASNs yield `None` at their slot.
pub fn unreachable_breakdowns(
    g: &AsGraph,
    tiers: &Tiers,
    origins: &[AsId],
    type_of: impl Fn(NodeId) -> AsType,
    threads: usize,
) -> Vec<Option<UnreachableBreakdown>> {
    let known: Vec<(usize, AsId, NodeId)> = origins
        .iter()
        .enumerate()
        .filter_map(|(slot, &a)| g.index_of(a).map(|n| (slot, a, n)))
        .collect();
    let sweep: Vec<NodeId> = known.iter().map(|&(_, _, n)| n).collect();
    let excl = Exclusion::new(g, tiers, ExclusionPolicy::HIERARCHY_FREE)
        .unwrap_or_else(|e| panic!("{e}"));
    let reach = Simulation::over(g)
        .threads(threads)
        .config(excl.shared_config())
        .sweep(&sweep, |o, ex| excl.fill_lane(o, ex), Words)
        .unwrap_or_else(|e| panic!("{e}"))
        .kept;

    let mut excluded = vec![false; g.len()];
    let mut out: Vec<Option<UnreachableBreakdown>> = vec![None; origins.len()];
    for (&(slot, asn, o), words) in known.iter().zip(&reach) {
        excl.fill_scalar(o, &mut excluded);
        let reached = |n: NodeId| (words[n.idx() >> 6] >> (n.idx() & 63)) & 1 == 1;
        let mut by_type = [0usize; 4];
        let mut total = 0usize;
        for n in g.nodes() {
            // The excluded hierarchy itself isn't "unreachable"; the
            // origin's own reach bit is always set, so `reached` also
            // skips the origin.
            if reached(n) || excluded[n.idx()] {
                continue;
            }
            let ty = type_of(n);
            let ti = AsType::ALL.iter().position(|&t| t == ty).unwrap();
            by_type[ti] += 1;
            total += 1;
        }
        out[slot] = Some(UnreachableBreakdown { asn, total, by_type });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flatnet_asgraph::{AsGraphBuilder, Relationship};

    #[test]
    fn counts_only_truly_unreachable_non_hierarchy_ases() {
        // Cloud 10 peers with 20; 30 and 40 are only reachable through
        // Tier-1 1. 30 is access, 40 enterprise, 20 content.
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(1), AsId(10), Relationship::P2c);
        b.add_link(AsId(1), AsId(30), Relationship::P2c);
        b.add_link(AsId(1), AsId(40), Relationship::P2c);
        b.add_link(AsId(10), AsId(20), Relationship::P2p);
        let g = b.build();
        let tiers = Tiers::from_lists(&g, &[AsId(1)], &[]);
        let type_of = |n: NodeId| match g.asn(n).0 {
            30 => AsType::Access,
            40 => AsType::Enterprise,
            20 => AsType::Content,
            _ => AsType::Transit,
        };
        let bd = unreachable_breakdown(&g, &tiers, AsId(10), type_of).unwrap();
        // Unreachable: 30 (access) and 40 (enterprise). AS 1 is excluded
        // hierarchy, not "unreachable"; 20 is reached.
        assert_eq!(bd.total, 2);
        assert_eq!(bd.by_type, [0, 0, 1, 1]);
        assert!((bd.pct(AsType::Access) - 50.0).abs() < 1e-12);
        assert!((bd.pct(AsType::Content) - 0.0).abs() < 1e-12);
    }

    /// The kernel-backed batch agrees with a scalar run + mask reference
    /// for every origin (including `None` slots for unknowns).
    #[test]
    fn batch_matches_scalar_propagate() {
        use flatnet_bgpsim::Simulation;
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(1), AsId(10), Relationship::P2c);
        b.add_link(AsId(1), AsId(2), Relationship::P2p);
        b.add_link(AsId(2), AsId(3), Relationship::P2c);
        b.add_link(AsId(3), AsId(30), Relationship::P2c);
        b.add_link(AsId(10), AsId(40), Relationship::P2p);
        b.add_link(AsId(2), AsId(50), Relationship::P2c);
        let g = b.build();
        let tiers = Tiers::from_lists(&g, &[AsId(1), AsId(2)], &[AsId(3)]);
        let type_of = |n: NodeId| AsType::ALL[n.idx() % 4];

        let mut origins: Vec<AsId> = g.asns().collect();
        origins.push(AsId(777)); // unknown
        let batch = unreachable_breakdowns(&g, &tiers, &origins, type_of, 2);
        assert_eq!(batch.len(), origins.len());
        assert_eq!(batch.last().unwrap(), &None);

        for (slot, &a) in origins.iter().enumerate() {
            let Some(o) = g.index_of(a) else { continue };
            let mut mask = vec![false; g.len()];
            for &p in g.providers(o) {
                mask[p.idx()] = true;
            }
            for &n in tiers.tier1() {
                mask[n.idx()] = true;
            }
            for &n in tiers.tier2() {
                mask[n.idx()] = true;
            }
            mask[o.idx()] = false;
            let out = Simulation::over(&g).excluded(mask.clone()).run(o);
            let mut by_type = [0usize; 4];
            let mut total = 0usize;
            for n in g.nodes() {
                if n == o || mask[n.idx()] || out.reachable(n) {
                    continue;
                }
                let i = AsType::ALL.iter().position(|&t| t == type_of(n)).unwrap();
                by_type[i] += 1;
                total += 1;
            }
            assert_eq!(
                batch[slot],
                Some(UnreachableBreakdown { asn: a, total, by_type }),
                "origin {a}"
            );
        }
    }

    #[test]
    fn unknown_origin_yields_none() {
        let g = AsGraphBuilder::new().build();
        let tiers = Tiers::from_lists(&g, &[], &[]);
        assert!(unreachable_breakdown(&g, &tiers, AsId(5), |_| AsType::Access).is_none());
    }

    #[test]
    fn fully_connected_origin_has_no_unreachables() {
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(10), AsId(20), Relationship::P2p);
        b.add_link(AsId(10), AsId(30), Relationship::P2p);
        let g = b.build();
        let tiers = Tiers::from_lists(&g, &[], &[]);
        let bd = unreachable_breakdown(&g, &tiers, AsId(10), |_| AsType::Access).unwrap();
        assert_eq!(bd.total, 0);
        assert_eq!(bd.pct(AsType::Access), 0.0);
    }
}
