//! Hierarchy-free reachability vs customer cone (§6.6, Figure 3).
//!
//! The paper's point: customer cone measures *transit market power* and
//! concentrates in a handful of networks, while hierarchy-free
//! reachability reveals thousands of well-connected networks the cone
//! metric ranks as irrelevant. This module computes both for every AS and
//! packages the scatter data plus the paper's two headline summary counts.

use flatnet_asgraph::cone::customer_cone_sizes;
use flatnet_asgraph::{AsGraph, AsId, Tiers};

/// One point of the Fig. 3 scatter.
#[derive(Debug, Clone, PartialEq)]
pub struct ConePoint {
    /// The AS.
    pub asn: AsId,
    /// Customer cone size (including the AS itself).
    pub cone: u32,
    /// Hierarchy-free reachability.
    pub hfr: u32,
    /// Category used for Fig. 3's markers.
    pub category: ConeCategory,
}

/// Fig. 3 marker categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConeCategory {
    /// One of the four cloud providers.
    Cloud,
    /// Tier-1 ISP.
    Tier1,
    /// Tier-2 ISP.
    Tier2,
    /// Everything else (the paper splits this further by AS type; the
    /// split lives in the caller via `AsType`).
    Other,
}

/// Summary statistics contrasting the two metrics (§6.6's "8,374 networks
/// with hierarchy-free reachability ≥ 1,000, but only 51 with a customer
/// cone ≥ 1,000" claim, at our scale).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConeCompareSummary {
    /// Number of ASes with hierarchy-free reachability ≥ threshold.
    pub high_hfr: usize,
    /// Number of ASes with customer cone ≥ threshold.
    pub high_cone: usize,
    /// The threshold used.
    pub threshold: u32,
}

/// Computes the full scatter. `hfr` comes from
/// [`crate::reachability::hierarchy_free_all`]; `clouds` marks the cloud
/// ASNs.
pub fn cone_vs_hfr(g: &AsGraph, tiers: &Tiers, hfr: &[u32], clouds: &[AsId]) -> Vec<ConePoint> {
    let cones = customer_cone_sizes(g);
    g.nodes()
        .map(|n| {
            let asn = g.asn(n);
            let category = if clouds.contains(&asn) {
                ConeCategory::Cloud
            } else if tiers.is_tier1(n) {
                ConeCategory::Tier1
            } else if tiers.is_tier2(n) {
                ConeCategory::Tier2
            } else {
                ConeCategory::Other
            };
            ConePoint { asn, cone: cones[n.idx()], hfr: hfr[n.idx()], category }
        })
        .collect()
}

/// Counts how many ASes clear `threshold` on each metric.
pub fn summarize(points: &[ConePoint], threshold: u32) -> ConeCompareSummary {
    ConeCompareSummary {
        high_hfr: points.iter().filter(|p| p.hfr >= threshold).count(),
        high_cone: points.iter().filter(|p| p.cone >= threshold).count(),
        threshold,
    }
}

/// Pearson correlation between log-cone and hierarchy-free reachability
/// over non-tier networks — the paper observes "little correlation".
/// Returns `None` when degenerate (fewer than two distinct values).
pub fn correlation_other(points: &[ConePoint]) -> Option<f64> {
    let xs: Vec<f64> = points
        .iter()
        .filter(|p| p.category == ConeCategory::Other)
        .map(|p| (p.cone as f64).ln_1p())
        .collect();
    let ys: Vec<f64> = points
        .iter()
        .filter(|p| p.category == ConeCategory::Other)
        .map(|p| p.hfr as f64)
        .collect();
    pearson(&xs, &ys)
}

fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    let n = xs.len() as f64;
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx).powi(2);
        syy += (y - my).powi(2);
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reachability::hierarchy_free_all;
    use flatnet_asgraph::{AsGraphBuilder, Relationship};

    fn sample() -> (AsGraph, Tiers) {
        let mut b = AsGraphBuilder::new();
        // Tier-1 1 with a large cone; cloud 10 with many peers, no cone.
        b.add_link(AsId(1), AsId(2), Relationship::P2c);
        b.add_link(AsId(2), AsId(3), Relationship::P2c);
        b.add_link(AsId(2), AsId(4), Relationship::P2c);
        b.add_link(AsId(1), AsId(10), Relationship::P2c);
        for e in [3, 4, 5] {
            b.add_link(AsId(10), AsId(e), Relationship::P2p);
        }
        b.add_link(AsId(2), AsId(5), Relationship::P2c);
        let g = b.build();
        let tiers = Tiers::from_lists(&g, &[AsId(1)], &[AsId(2)]);
        (g, tiers)
    }

    #[test]
    fn scatter_categories_and_values() {
        let (g, tiers) = sample();
        let hfr = hierarchy_free_all(&g, &tiers);
        let points = cone_vs_hfr(&g, &tiers, &hfr, &[AsId(10)]);
        let p10 = points.iter().find(|p| p.asn == AsId(10)).unwrap();
        assert_eq!(p10.category, ConeCategory::Cloud);
        assert_eq!(p10.cone, 1); // no customers
        assert_eq!(p10.hfr, 3); // direct peers 3, 4, 5
        let p1 = points.iter().find(|p| p.asn == AsId(1)).unwrap();
        assert_eq!(p1.category, ConeCategory::Tier1);
        assert_eq!(p1.cone, 6);
        let p2 = points.iter().find(|p| p.asn == AsId(2)).unwrap();
        assert_eq!(p2.category, ConeCategory::Tier2);
        let p3 = points.iter().find(|p| p.asn == AsId(3)).unwrap();
        assert_eq!(p3.category, ConeCategory::Other);
    }

    #[test]
    fn summary_thresholds() {
        let (g, tiers) = sample();
        let hfr = hierarchy_free_all(&g, &tiers);
        let points = cone_vs_hfr(&g, &tiers, &hfr, &[AsId(10)]);
        let s = summarize(&points, 3);
        // hfr >= 3: cloud 10 (3) + whoever else; cone >= 3: only 1 and 2.
        assert!(s.high_hfr >= 1);
        assert_eq!(s.high_cone, 2);
        assert_eq!(s.threshold, 3);
    }

    #[test]
    fn pearson_basics() {
        assert_eq!(pearson(&[1.0], &[1.0]), None);
        assert_eq!(pearson(&[1.0, 1.0], &[1.0, 2.0]), None); // zero variance
        let r = pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]).unwrap();
        assert!((r - 1.0).abs() < 1e-12);
        let r = pearson(&[1.0, 2.0, 3.0], &[6.0, 4.0, 2.0]).unwrap();
        assert!((r + 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_other_runs_on_scatter() {
        let (g, tiers) = sample();
        let hfr = hierarchy_free_all(&g, &tiers);
        let points = cone_vs_hfr(&g, &tiers, &hfr, &[AsId(10)]);
        // 4 "other" points; correlation may be anything, just well-formed.
        if let Some(r) = correlation_other(&points) {
            assert!((-1.0..=1.0).contains(&r));
        }
    }
}
