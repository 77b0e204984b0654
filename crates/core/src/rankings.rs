//! Cross-metric ranking comparison (§6.6 generalized, §10's metric
//! discussion): how do the classic importance metrics — node degree,
//! transit degree, customer cone, AS hegemony — relate to hierarchy-free
//! reachability?
//!
//! The paper's argument is that cone-style, transit-centric metrics miss
//! the flattened Internet's structure. This module scores every AS on all
//! five metrics and computes Kendall rank correlations between them, so
//! the claim "customer cone does not predict hierarchy-free reachability"
//! becomes a number.

use crate::hegemony::global_hegemony;
use flatnet_asgraph::cone::{customer_cone_sizes, transit_degree};
use flatnet_asgraph::{AsGraph, AsId};

/// All metrics for one AS.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRow {
    /// The AS.
    pub asn: AsId,
    /// Node degree (unique neighbors).
    pub degree: u32,
    /// AS-Rank-style transit degree.
    pub transit_degree: u32,
    /// Customer cone size (incl. self).
    pub cone: u32,
    /// Global AS hegemony (mean path share across sampled destinations).
    pub hegemony: f64,
    /// Hierarchy-free reachability.
    pub hfr: u32,
}

/// The full metric table plus pairwise rank correlations.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricComparison {
    /// Per-AS metric values, in node-index order.
    pub rows: Vec<MetricRow>,
    /// Kendall tau-b between each metric and hierarchy-free reachability:
    /// `(metric name, tau)`.
    pub tau_vs_hfr: Vec<(&'static str, f64)>,
}

/// Builds the comparison. `hfr` comes from
/// [`crate::reachability::hierarchy_free_all`]; `hegemony_sample` controls
/// the global-hegemony estimate's cost/precision.
pub fn compare_metrics(
    g: &AsGraph,
    hfr: &[u32],
    hegemony_sample: usize,
    seed: u64,
) -> MetricComparison {
    let cones = customer_cone_sizes(g);
    let hegemony = global_hegemony(g, hegemony_sample, seed);
    let rows: Vec<MetricRow> = g
        .nodes()
        .map(|n| MetricRow {
            asn: g.asn(n),
            degree: g.degree(n) as u32,
            transit_degree: transit_degree(g, n) as u32,
            cone: cones[n.idx()],
            hegemony: hegemony[n.idx()],
            hfr: hfr[n.idx()],
        })
        .collect();
    let hfr_f: Vec<f64> = rows.iter().map(|r| r.hfr as f64).collect();
    let tau_vs_hfr = vec![
        ("degree", kendall_tau(&rows.iter().map(|r| r.degree as f64).collect::<Vec<_>>(), &hfr_f)),
        (
            "transit_degree",
            kendall_tau(&rows.iter().map(|r| r.transit_degree as f64).collect::<Vec<_>>(), &hfr_f),
        ),
        ("cone", kendall_tau(&rows.iter().map(|r| r.cone as f64).collect::<Vec<_>>(), &hfr_f)),
        ("hegemony", kendall_tau(&rows.iter().map(|r| r.hegemony).collect::<Vec<_>>(), &hfr_f)),
    ];
    MetricComparison { rows, tau_vs_hfr }
}

/// Kendall's tau-b rank correlation (tie-corrected), O(n²) — fine for the
/// tens of thousands of ASes these analyses run on when sampled, and for
/// the few thousands they typically use directly. Returns 0 for degenerate
/// inputs (all ties or fewer than two points).
pub(crate) fn kendall_tau(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "paired samples required");
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    let mut ties_x = 0i64;
    let mut ties_y = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            let dx = xs[i] - xs[j];
            let dy = ys[i] - ys[j];
            if dx == 0.0 && dy == 0.0 {
                // tied in both: counted in neither denominator term
            } else if dx == 0.0 {
                ties_x += 1;
            } else if dy == 0.0 {
                ties_y += 1;
            } else if dx * dy > 0.0 {
                concordant += 1;
            } else {
                discordant += 1;
            }
        }
    }
    let denom = (((concordant + discordant + ties_x) as f64)
        * ((concordant + discordant + ties_y) as f64))
        .sqrt();
    if denom == 0.0 {
        0.0
    } else {
        (concordant - discordant) as f64 / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reachability::hierarchy_free_all;
    use flatnet_asgraph::{AsGraphBuilder, AsId, Relationship, Tiers};

    #[test]
    fn kendall_tau_basics() {
        assert_eq!(kendall_tau(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]), 1.0);
        assert_eq!(kendall_tau(&[1.0, 2.0, 3.0], &[30.0, 20.0, 10.0]), -1.0);
        assert_eq!(kendall_tau(&[], &[]), 0.0);
        assert_eq!(kendall_tau(&[1.0, 1.0], &[1.0, 1.0]), 0.0);
        // Partial agreement.
        let tau = kendall_tau(&[1.0, 2.0, 3.0, 4.0], &[1.0, 3.0, 2.0, 4.0]);
        assert!(tau > 0.0 && tau < 1.0);
    }

    #[test]
    #[should_panic(expected = "paired samples")]
    fn kendall_tau_requires_pairs() {
        kendall_tau(&[1.0], &[]);
    }

    #[test]
    fn comparison_over_a_small_hierarchy() {
        // Tier-1 1 over Tier-2 2 over mids 3,4; cloud 10 peering widely.
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(1), AsId(2), Relationship::P2c);
        b.add_link(AsId(2), AsId(3), Relationship::P2c);
        b.add_link(AsId(2), AsId(4), Relationship::P2c);
        b.add_link(AsId(3), AsId(5), Relationship::P2c);
        b.add_link(AsId(4), AsId(6), Relationship::P2c);
        b.add_link(AsId(1), AsId(10), Relationship::P2c);
        for p in [3, 4, 5, 6] {
            b.add_link(AsId(10), AsId(p), Relationship::P2p);
        }
        let g = b.build();
        let tiers = Tiers::from_lists(&g, &[AsId(1)], &[AsId(2)]);
        let hfr = hierarchy_free_all(&g, &tiers);
        let cmp = compare_metrics(&g, &hfr, g.len(), 3);
        assert_eq!(cmp.rows.len(), g.len());
        // Cloud 10: cone of 1, top-tier hierarchy-free reach.
        let cloud = cmp.rows.iter().find(|r| r.asn == AsId(10)).unwrap();
        assert_eq!(cloud.cone, 1);
        let max_hfr = cmp.rows.iter().map(|r| r.hfr).max().unwrap();
        assert_eq!(cloud.hfr, max_hfr);
        // All four correlations computed and within [-1, 1].
        assert_eq!(cmp.tau_vs_hfr.len(), 4);
        for (name, tau) in &cmp.tau_vs_hfr {
            assert!((-1.0..=1.0).contains(tau), "{name}: {tau}");
        }
    }

}
