//! Structural statistics of generated topologies.
//!
//! DESIGN.md claims the generator produces "power-law-ish degree structure"
//! with a proper hierarchy. This module computes the statistics that back
//! the claim — degree and customer-cone distributions, a Hill tail-index
//! estimate, and per-role summaries — and the tests pin them, so a
//! generator regression that flattens the structure fails loudly.

use crate::internet::SyntheticInternet;
use crate::topology::AsRole;
use flatnet_asgraph::cone::customer_cone_sizes;
use flatnet_asgraph::AsGraph;

/// Summary statistics for one topology view.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyStats {
    /// Number of ASes.
    pub nodes: usize,
    /// Number of links.
    pub links: usize,
    /// Mean node degree.
    pub mean_degree: f64,
    /// Maximum node degree.
    pub max_degree: usize,
    /// Degree Gini coefficient (0 = uniform, →1 = concentrated).
    pub degree_gini: f64,
    /// Hill estimator of the degree tail index over the top `k` degrees
    /// (heavy-tailed distributions land roughly in 1..3 for Internet-like
    /// graphs).
    pub hill_tail_index: f64,
    /// Fraction of ASes that are stubs (no customers).
    pub stub_fraction: f64,
    /// Largest customer cone (fraction of all ASes).
    pub max_cone_fraction: f64,
}

/// Computes [`TopologyStats`] for a graph. `hill_k` caps the tail sample
/// (a common choice is ~the top 10%).
pub fn topology_stats(g: &AsGraph, hill_k: usize) -> TopologyStats {
    let n = g.len();
    let mut degrees: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
    degrees.sort_unstable();
    let total: usize = degrees.iter().sum();
    let mean_degree = if n == 0 { 0.0 } else { total as f64 / n as f64 };
    let max_degree = degrees.last().copied().unwrap_or(0);
    let stubs = g.nodes().filter(|&v| g.customers(v).is_empty()).count();
    let cones = customer_cone_sizes(g);
    let max_cone = cones.iter().copied().max().unwrap_or(0);

    TopologyStats {
        nodes: n,
        links: g.edge_count(),
        mean_degree,
        max_degree,
        degree_gini: gini(&degrees),
        hill_tail_index: hill(&degrees, hill_k),
        stub_fraction: if n == 0 { 0.0 } else { stubs as f64 / n as f64 },
        max_cone_fraction: if n == 0 { 0.0 } else { max_cone as f64 / n as f64 },
    }
}

/// Gini coefficient of a sorted (ascending) non-negative sample.
fn gini(sorted: &[usize]) -> f64 {
    let n = sorted.len();
    let total: usize = sorted.iter().sum();
    if n == 0 || total == 0 {
        return 0.0;
    }
    let mut weighted = 0.0f64;
    for (i, &x) in sorted.iter().enumerate() {
        weighted += (2.0 * (i as f64 + 1.0) - n as f64 - 1.0) * x as f64;
    }
    weighted / (n as f64 * total as f64)
}

/// Hill estimator of the power-law tail index over the top `k` order
/// statistics of the sorted (ascending) sample. Returns 0 when degenerate.
fn hill(sorted: &[usize], k: usize) -> f64 {
    let n = sorted.len();
    let k = k.min(n.saturating_sub(1));
    if k < 2 {
        return 0.0;
    }
    let threshold = sorted[n - k - 1].max(1) as f64;
    let mut acc = 0.0f64;
    let mut used = 0usize;
    for &x in &sorted[n - k..] {
        if x as f64 > threshold {
            acc += (x as f64 / threshold).ln();
            used += 1;
        }
    }
    if used == 0 || acc == 0.0 {
        0.0
    } else {
        used as f64 / acc
    }
}

/// Mean ground-truth degree per role, in
/// `[Tier1, Tier2, Transit, Cloud, Edge]` order.
pub fn mean_degree_by_role(net: &SyntheticInternet) -> [f64; 5] {
    let roles = [AsRole::Tier1, AsRole::Tier2, AsRole::Transit, AsRole::Cloud, AsRole::Edge];
    let mut sums = [0.0f64; 5];
    let mut counts = [0usize; 5];
    for n in net.truth.nodes() {
        let role = net.meta[n.idx()].role;
        let i = roles.iter().position(|&r| r == role).unwrap();
        sums[i] += net.truth.degree(n) as f64;
        counts[i] += 1;
    }
    let mut out = [0.0f64; 5];
    for i in 0..5 {
        out[i] = if counts[i] == 0 { 0.0 } else { sums[i] / counts[i] as f64 };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetGenConfig;
    use crate::internet::generate;

    #[test]
    fn gini_extremes() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[5, 5, 5, 5]), 0.0);
        // All mass in one node: Gini -> (n-1)/n.
        let g = gini(&[0, 0, 0, 100]);
        assert!((g - 0.75).abs() < 1e-12, "{g}");
        // Monotone: more concentration, higher Gini.
        assert!(gini(&[1, 1, 1, 97]) > gini(&[10, 20, 30, 40]));
    }

    #[test]
    fn hill_detects_heavy_tails() {
        // Pareto(alpha=2)-ish sample vs uniform-ish sample.
        let mut pareto: Vec<usize> = (1..=500).map(|i| (1000.0 / (i as f64).sqrt()) as usize).collect();
        pareto.sort_unstable();
        let heavy = hill(&pareto, 50);
        assert!((heavy - 2.0).abs() < 0.8, "pareto tail index {heavy}");
        let uniform: Vec<usize> = (500..1000).collect();
        let light = hill(&uniform, 50);
        assert!(light > heavy, "uniform {light} should exceed pareto {heavy}");
        assert_eq!(hill(&[], 10), 0.0);
        assert_eq!(hill(&[1], 10), 0.0);
    }

    #[test]
    fn generated_topology_is_internet_shaped() {
        let net = generate(&NetGenConfig::paper_2020(1000, 3));
        let s = topology_stats(&net.truth, 100);
        assert_eq!(s.nodes, 1000);
        // Sparse graph with hubs: low mean, high max.
        assert!(s.mean_degree > 2.0 && s.mean_degree < 20.0, "mean {}", s.mean_degree);
        assert!(s.max_degree > 50, "max {}", s.max_degree);
        // Strong concentration and a heavy-ish tail.
        assert!(s.degree_gini > 0.4, "gini {}", s.degree_gini);
        assert!(s.hill_tail_index > 0.4 && s.hill_tail_index < 5.0, "hill {}", s.hill_tail_index);
        // Mostly stubs; the biggest cone is a large chunk of the Internet.
        assert!(s.stub_fraction > 0.5, "stubs {}", s.stub_fraction);
        assert!(s.max_cone_fraction > 0.1, "max cone {}", s.max_cone_fraction);
        // The public view is strictly sparser but same shape.
        let p = topology_stats(net.public(), 100);
        assert!(p.links < s.links);
        assert_eq!(p.nodes, s.nodes);
    }

    #[test]
    fn role_degrees_are_ordered() {
        let net = generate(&NetGenConfig::paper_2020(1000, 3));
        let [t1, t2, mid, cloud, edge] = mean_degree_by_role(&net);
        // Clouds out-peer everyone; the hierarchy orders the rest.
        assert!(cloud > t1, "cloud {cloud} vs t1 {t1}");
        assert!(t1 > t2, "t1 {t1} vs t2 {t2}");
        assert!(t2 > edge, "t2 {t2} vs edge {edge}");
        assert!(mid > edge, "mid {mid} vs edge {edge}");
    }
}
