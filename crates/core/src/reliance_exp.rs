//! Reachability reliance experiments (§7, Table 2, Figure 6, Appendix B).

use flatnet_asgraph::{AsGraph, AsId, NodeId, Tiers};
use flatnet_bgpsim::{Exclusion, ExclusionPolicy, Simulation};

/// One AS's reliance value from an origin's perspective.
#[derive(Debug, Clone, PartialEq)]
pub struct RelianceEntry {
    /// The relied-upon AS.
    pub asn: AsId,
    /// `rely(origin, asn)` in "ASes" (§7.1).
    pub rely: f64,
}

/// Full reliance picture for one origin under one constraint set.
#[derive(Debug, Clone, PartialEq)]
pub struct RelianceProfile {
    /// The origin.
    pub origin: AsId,
    /// Reliance per AS, only entries > 0, sorted descending by value
    /// (ties by ASN). The origin's own entry is omitted.
    pub entries: Vec<RelianceEntry>,
    /// Number of ASes that received routes (reachability cross-check).
    pub receivers: usize,
}

impl RelianceProfile {
    /// The top-`k` relied-upon networks (Table 2's top-3).
    pub fn top(&self, k: usize) -> &[RelianceEntry] {
        &self.entries[..k.min(self.entries.len())]
    }

    /// Fig. 6 histogram: bins of `width` (the paper uses 25), counting how
    /// many ASes fall in each reliance bin. Returns (bin lower bound,
    /// count), skipping empty bins.
    pub fn histogram(&self, width: f64) -> Vec<(f64, usize)> {
        let mut bins: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
        for e in &self.entries {
            let b = (e.rely / width).floor() as u64;
            *bins.entry(b).or_insert(0) += 1;
        }
        bins.into_iter().map(|(b, c)| (b as f64 * width, c)).collect()
    }
}

/// The scalar exclusion mask of `o` under `policy`. Panics when `tiers`
/// were built against a different graph.
fn scalar_mask(g: &AsGraph, tiers: &Tiers, o: NodeId, policy: ExclusionPolicy) -> Vec<bool> {
    let excl = Exclusion::new(g, tiers, policy).unwrap_or_else(|e| panic!("{e}"));
    let mut mask = vec![false; g.len()];
    excl.fill_scalar(o, &mut mask);
    mask
}

/// Reliance of `origin` on every other AS under **hierarchy-free**
/// constraints (§7.2's setting: the origin bypasses its providers, the
/// Tier-1s, and the Tier-2s).
pub fn reliance_under_hierarchy_free(g: &AsGraph, tiers: &Tiers, origin: AsId) -> Option<RelianceProfile> {
    reliance_excluding(g, tiers, origin, ExclusionPolicy::HIERARCHY_FREE)
}

/// Reliance under **Tier-1-free** constraints (Appendix B's setting for
/// the Sprint / Deutsche Telekom case study).
pub fn reliance_under_tier1_free(g: &AsGraph, tiers: &Tiers, origin: AsId) -> Option<RelianceProfile> {
    reliance_excluding(g, tiers, origin, ExclusionPolicy::TIER1_FREE)
}

fn reliance_excluding(
    g: &AsGraph,
    tiers: &Tiers,
    origin: AsId,
    policy: ExclusionPolicy,
) -> Option<RelianceProfile> {
    let o = g.index_of(origin)?;
    let mask = scalar_mask(g, tiers, o, policy);
    let mut ctx = Simulation::over(g).excluded(mask).ctx();
    let scored = ctx.run_reliance(o);
    let w = scored.scores();
    let mut entries: Vec<RelianceEntry> = g
        .nodes()
        .filter(|&n| n != o && w[n.idx()] > 0.0)
        .map(|n| RelianceEntry { asn: g.asn(n), rely: w[n.idx()] })
        .collect();
    entries.sort_by(|a, b| b.rely.total_cmp(&a.rely).then(a.asn.cmp(&b.asn)));
    Some(RelianceProfile { origin, entries, receivers: scored.receivers() })
}

/// Appendix-B helper: reachability of `origin` under Tier-1-free
/// constraints when *additionally* bypassing the given ASes (the paper
/// removes six Tier-2s that Sprint leans on and shows the drop covers
/// almost the whole hierarchy-free decline).
pub fn tier1_free_reach_also_excluding(
    g: &AsGraph,
    tiers: &Tiers,
    origin: AsId,
    also: &[AsId],
) -> Option<usize> {
    let o = g.index_of(origin)?;
    let mut mask = scalar_mask(g, tiers, o, ExclusionPolicy::TIER1_FREE);
    for a in also {
        if let Some(n) = g.index_of(*a) {
            if n != o {
                mask[n.idx()] = true;
            }
        }
    }
    Some(Simulation::over(g).excluded(mask).run(o).reachable_count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flatnet_asgraph::{AsGraphBuilder, Relationship};

    /// Cloud 10: provider 1 (Tier-1); peers 2 (Tier-2), 3 and 4 (mids).
    /// 3 and 4 both serve customer 5; 3 also serves 6.
    fn sample() -> (AsGraph, Tiers) {
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(1), AsId(10), Relationship::P2c);
        b.add_link(AsId(10), AsId(2), Relationship::P2p);
        b.add_link(AsId(10), AsId(3), Relationship::P2p);
        b.add_link(AsId(10), AsId(4), Relationship::P2p);
        b.add_link(AsId(3), AsId(5), Relationship::P2c);
        b.add_link(AsId(4), AsId(5), Relationship::P2c);
        b.add_link(AsId(3), AsId(6), Relationship::P2c);
        let g = b.build();
        let tiers = Tiers::from_lists(&g, &[AsId(1)], &[AsId(2)]);
        (g, tiers)
    }

    #[test]
    fn hierarchy_free_reliance_values() {
        let (g, tiers) = sample();
        let prof = reliance_under_hierarchy_free(&g, &tiers, AsId(10)).unwrap();
        // Receivers: 10, 3, 4, 5, 6 (1 and 2 excluded).
        assert_eq!(prof.receivers, 5);
        let get = |asn: u32| prof.entries.iter().find(|e| e.asn == AsId(asn)).map(|e| e.rely);
        // AS 3: own path + all of 6's path + half of 5's = 1 + 1 + 0.5.
        assert!((get(3).unwrap() - 2.5).abs() < 1e-9);
        assert!((get(4).unwrap() - 1.5).abs() < 1e-9);
        assert!((get(5).unwrap() - 1.0).abs() < 1e-9);
        // Excluded hierarchy has no reliance entries.
        assert!(get(1).is_none());
        assert!(get(2).is_none());
        // Top-1 is AS 3.
        assert_eq!(prof.top(1)[0].asn, AsId(3));
    }

    #[test]
    fn histogram_bins() {
        let (g, tiers) = sample();
        let prof = reliance_under_hierarchy_free(&g, &tiers, AsId(10)).unwrap();
        let h = prof.histogram(1.0);
        // rely values 2.5, 1.5, 1.0, 1.0 -> bins 2:1, 1:3.
        assert_eq!(h, vec![(1.0, 3), (2.0, 1)]);
        let wide = prof.histogram(25.0);
        assert_eq!(wide, vec![(0.0, 4)]);
    }

    #[test]
    fn tier1_free_vs_additional_exclusions() {
        let (g, tiers) = sample();
        let base = reliance_under_tier1_free(&g, &tiers, AsId(10)).unwrap();
        // Tier-1-free: 2, 3, 4, 5, 6 reachable (5 receivers incl. origin -> 6).
        assert_eq!(base.receivers, 6);
        // Additionally excluding 3 and 4 drops 5 and 6 as well.
        let r = tier1_free_reach_also_excluding(&g, &tiers, AsId(10), &[AsId(3), AsId(4)]).unwrap();
        assert_eq!(r, 1); // only the Tier-2 peer 2 remains
    }

    #[test]
    fn unknown_origin() {
        let (g, tiers) = sample();
        assert!(reliance_under_hierarchy_free(&g, &tiers, AsId(999)).is_none());
        assert!(tier1_free_reach_also_excluding(&g, &tiers, AsId(999), &[]).is_none());
    }
}
