//! Topology health checks.
//!
//! A structurally broken topology — a Tier-1 "clique" that isn't one,
//! relationship conflicts, a graph that is mostly disconnected — makes
//! every downstream analysis quietly wrong. [`validate_topology`] runs a
//! battery of checks and grades each finding by [`Severity`], so
//! pipelines can refuse to run (or knowingly degrade) *before* paying
//! for route propagation.
//!
//! Checks:
//!
//! * **empty-graph** — no ASes at all (critical).
//! * **tier1-clique** — every pair of Tier-1 ASes present in the graph
//!   must peer (the defining property of the clique); missing peerings
//!   are critical because valley-free reachability through the core
//!   depends on them.
//! * **tier-membership** — tier-list members that don't exist in the
//!   graph (warning: the lists and the topology disagree).
//! * **relationship-conflicts** — links declared with contradictory
//!   relationships during construction (warning; first declaration won).
//! * **orphaned-ases** — degree-0 ASes (info; they can't route at all).
//! * **disconnected** — ASes outside the largest connected component
//!   (warning above a configurable fraction, info otherwise).
//! * **degree-anomalies** — ASes whose degree exceeds an outlier
//!   threshold relative to the mean (info; real Internets have heavy
//!   tails, but a synthetic or corrupted dataset may not).

use crate::graph::{AsGraph, AsId, NeighborKind, RelConflict};
use std::collections::VecDeque;
use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Noteworthy but harmless.
    Info,
    /// Suspicious; results may be skewed.
    Warning,
    /// The topology is unfit for analysis.
    Critical,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        })
    }
}

/// One graded finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthCheck {
    /// Stable check identifier (e.g. `tier1-clique`).
    pub name: &'static str,
    /// Grade.
    pub severity: Severity,
    /// Human-readable description of what was found.
    pub message: String,
    /// Example ASes involved (capped at [`ValidateOptions::max_listed`]).
    pub affected: Vec<AsId>,
}

impl fmt::Display for HealthCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.severity, self.name, self.message)
    }
}

/// The result of [`validate_topology`]: zero or more graded findings.
/// No findings means a clean bill of health.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// All findings, in check order.
    pub checks: Vec<HealthCheck>,
}

impl HealthReport {
    /// The worst severity present, if any finding exists.
    pub(crate) fn worst(&self) -> Option<Severity> {
        self.checks.iter().map(|c| c.severity).max()
    }

    /// True when nothing critical was found.
    pub fn is_usable(&self) -> bool {
        self.worst() != Some(Severity::Critical)
    }

    /// True when nothing at all was found.
    pub fn is_clean(&self) -> bool {
        self.checks.is_empty()
    }

    /// Multi-line human summary.
    pub fn render(&self) -> String {
        if self.is_clean() {
            return "topology healthy: all checks passed".to_string();
        }
        let mut out = String::new();
        for c in &self.checks {
            out.push_str(&c.to_string());
            if !c.affected.is_empty() {
                let list: Vec<String> = c.affected.iter().map(|a| a.to_string()).collect();
                out.push_str(&format!(" [{}]", list.join(", ")));
            }
            out.push('\n');
        }
        out
    }

    fn push(
        &mut self,
        name: &'static str,
        severity: Severity,
        message: String,
        affected: Vec<AsId>,
    ) {
        self.checks.push(HealthCheck { name, severity, message, affected });
    }
}

/// Tuning for [`validate_topology`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidateOptions {
    /// Maximum number of example ASes listed per finding.
    pub max_listed: usize,
    /// Fraction of ASes allowed outside the largest connected component
    /// before the `disconnected` finding escalates from info to warning.
    pub max_disconnected_fraction: f64,
    /// A node whose degree exceeds `mean_degree * degree_anomaly_factor`
    /// (and is at least 16) is flagged as a degree anomaly.
    pub degree_anomaly_factor: f64,
}

impl Default for ValidateOptions {
    fn default() -> Self {
        ValidateOptions {
            max_listed: 8,
            max_disconnected_fraction: 0.01,
            degree_anomaly_factor: 50.0,
        }
    }
}

/// Runs every health check against `g`.
///
/// `tier1`/`tier2` are the *declared* tier lists (pass empty slices when
/// unknown; the tier checks are skipped). `conflicts` is what the
/// builder recorded (see `AsGraphBuilder::conflicts`); pass `&[]` when
/// the graph didn't come from a tracked builder.
pub fn validate_topology(
    g: &AsGraph,
    tier1: &[AsId],
    tier2: &[AsId],
    conflicts: &[RelConflict],
    opts: &ValidateOptions,
) -> HealthReport {
    let mut report = HealthReport::default();
    let cap = |mut v: Vec<AsId>| {
        v.truncate(opts.max_listed);
        v
    };

    if g.is_empty() {
        report.push("empty-graph", Severity::Critical, "the topology has no ASes".into(), vec![]);
        return report;
    }

    // tier-membership: declared tier members missing from the graph.
    // A member listed twice is one member, here and in the clique.
    let mut missing_members: Vec<AsId> = tier1
        .iter()
        .chain(tier2)
        .copied()
        .filter(|&a| g.index_of(a).is_none())
        .collect();
    missing_members.sort_unstable();
    missing_members.dedup();
    if !missing_members.is_empty() {
        report.push(
            "tier-membership",
            Severity::Warning,
            format!(
                "{} tier-list member(s) are not present in the graph",
                missing_members.len()
            ),
            cap(missing_members),
        );
    }

    // tier1-clique: every present pair must peer.
    let mut t1_nodes: Vec<_> = tier1.iter().filter_map(|&a| g.index_of(a)).collect();
    t1_nodes.sort_unstable();
    t1_nodes.dedup();
    let mut broken_pairs = 0usize;
    let mut broken_examples: Vec<AsId> = Vec::new();
    for (i, &a) in t1_nodes.iter().enumerate() {
        for &b in &t1_nodes[i + 1..] {
            if g.kind_between(a, b) != Some(NeighborKind::Peer) {
                broken_pairs += 1;
                for n in [a, b] {
                    let asn = g.asn(n);
                    if !broken_examples.contains(&asn) {
                        broken_examples.push(asn);
                    }
                }
            }
        }
    }
    if broken_pairs > 0 {
        let total = t1_nodes.len() * t1_nodes.len().saturating_sub(1) / 2;
        report.push(
            "tier1-clique",
            Severity::Critical,
            format!("{broken_pairs} of {total} Tier-1 pairs do not peer; the clique is broken"),
            cap(broken_examples),
        );
    }

    // relationship-conflicts from the builder.
    if !conflicts.is_empty() {
        let mut affected: Vec<AsId> = Vec::new();
        for c in conflicts {
            for a in [c.a, c.b] {
                if !affected.contains(&a) {
                    affected.push(a);
                }
            }
        }
        report.push(
            "relationship-conflicts",
            Severity::Warning,
            format!(
                "{} link(s) declared with contradictory relationships (first declaration kept); first: {}",
                conflicts.len(),
                conflicts[0]
            ),
            cap(affected),
        );
    }

    // orphaned-ases: degree 0.
    let orphans: Vec<AsId> =
        g.nodes().filter(|&n| g.degree(n) == 0).map(|n| g.asn(n)).collect();
    if !orphans.is_empty() {
        report.push(
            "orphaned-ases",
            Severity::Info,
            format!("{} AS(es) have no links at all", orphans.len()),
            cap(orphans),
        );
    }

    // disconnected: nodes outside the largest connected component.
    let outside = nodes_outside_largest_component(g);
    if !outside.is_empty() {
        let frac = outside.len() as f64 / g.len() as f64;
        let severity = if frac > opts.max_disconnected_fraction {
            Severity::Warning
        } else {
            Severity::Info
        };
        report.push(
            "disconnected",
            severity,
            format!(
                "{} AS(es) ({:.2}% of the graph) are outside the largest connected component",
                outside.len(),
                frac * 100.0
            ),
            cap(outside.into_iter().map(|n| g.asn(n)).collect()),
        );
    }

    // degree-anomalies.
    let mean = 2.0 * g.edge_count() as f64 / g.len() as f64;
    let threshold = (mean * opts.degree_anomaly_factor).max(16.0);
    let anomalies: Vec<AsId> = g
        .nodes()
        .filter(|&n| g.degree(n) as f64 > threshold)
        .map(|n| g.asn(n))
        .collect();
    if !anomalies.is_empty() {
        report.push(
            "degree-anomalies",
            Severity::Info,
            format!(
                "{} AS(es) have degree above {:.0} ({}x the mean of {:.1})",
                anomalies.len(),
                threshold,
                opts.degree_anomaly_factor,
                mean
            ),
            cap(anomalies),
        );
    }

    report
}

/// All nodes not in the largest connected component (relationship
/// classes ignored; links treated as undirected).
fn nodes_outside_largest_component(g: &AsGraph) -> Vec<crate::graph::NodeId> {
    let n = g.len();
    let mut component = vec![u32::MAX; n];
    let mut sizes: Vec<usize> = Vec::new();
    for start in g.nodes() {
        if component[start.idx()] != u32::MAX {
            continue;
        }
        let id = sizes.len() as u32;
        let mut size = 0usize;
        let mut queue = VecDeque::from([start]);
        component[start.idx()] = id;
        while let Some(v) = queue.pop_front() {
            size += 1;
            for (w, _) in g.neighbors(v) {
                if component[w.idx()] == u32::MAX {
                    component[w.idx()] = id;
                    queue.push_back(w);
                }
            }
        }
        sizes.push(size);
    }
    let largest = sizes
        .iter()
        .enumerate()
        .max_by_key(|&(_, s)| s)
        .map(|(i, _)| i as u32)
        .unwrap_or(0);
    g.nodes().filter(|v| component[v.idx()] != largest).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{AsGraphBuilder, Relationship};

    /// Three Tier-1s fully meshed, each providing a customer; customers
    /// peer in a ring.
    fn healthy() -> (AsGraph, Vec<AsId>, Vec<AsId>) {
        let mut b = AsGraphBuilder::new();
        let t1 = [AsId(1), AsId(2), AsId(3)];
        for (i, &a) in t1.iter().enumerate() {
            for &c in &t1[i + 1..] {
                b.add_link(a, c, Relationship::P2p);
            }
        }
        for (i, &a) in t1.iter().enumerate() {
            b.add_link(a, AsId(10 + i as u32), Relationship::P2c);
        }
        b.add_link(AsId(10), AsId(11), Relationship::P2p);
        b.add_link(AsId(11), AsId(12), Relationship::P2p);
        (b.build(), t1.to_vec(), vec![AsId(10), AsId(11), AsId(12)])
    }

    #[test]
    fn healthy_topology_is_clean() {
        let (g, t1, t2) = healthy();
        let r = validate_topology(&g, &t1, &t2, &[], &ValidateOptions::default());
        assert!(r.is_clean(), "{}", r.render());
        assert!(r.is_usable());
        assert_eq!(r.worst(), None);
    }

    #[test]
    fn broken_clique_is_critical() {
        let mut b = AsGraphBuilder::new();
        // 1-2 peer, but 3 is not meshed with either.
        b.add_link(AsId(1), AsId(2), Relationship::P2p);
        b.add_link(AsId(3), AsId(10), Relationship::P2c);
        b.add_link(AsId(1), AsId(10), Relationship::P2c);
        b.add_link(AsId(2), AsId(10), Relationship::P2c);
        let g = b.build();
        let t1 = vec![AsId(1), AsId(2), AsId(3)];
        let r = validate_topology(&g, &t1, &[], &[], &ValidateOptions::default());
        let clique = r.checks.iter().find(|c| c.name == "tier1-clique").expect("flagged");
        assert_eq!(clique.severity, Severity::Critical);
        assert!(clique.message.contains("2 of 3"), "{}", clique.message);
        assert!(!r.is_usable());
    }

    #[test]
    fn repeated_tier_members_count_once() {
        let (g, t1, t2) = healthy();
        let twice = |v: &[AsId]| [v, v].concat();
        let r = validate_topology(&g, &twice(&t1), &t2, &[], &ValidateOptions::default());
        assert!(r.is_clean(), "{}", r.render());
        let r = validate_topology(&g, &[AsId(999), AsId(999)], &[], &[], &ValidateOptions::default());
        let m = r.checks.iter().find(|c| c.name == "tier-membership").expect("flagged");
        assert_eq!(m.affected, vec![AsId(999)]);
    }

    #[test]
    fn missing_tier_member_is_flagged() {
        let (g, mut t1, t2) = healthy();
        t1.push(AsId(999));
        let r = validate_topology(&g, &t1, &t2, &[], &ValidateOptions::default());
        let m = r.checks.iter().find(|c| c.name == "tier-membership").expect("flagged");
        assert_eq!(m.severity, Severity::Warning);
        assert_eq!(m.affected, vec![AsId(999)]);
        // A missing member can't break the clique among present members.
        assert!(r.checks.iter().all(|c| c.name != "tier1-clique"), "{}", r.render());
    }

    #[test]
    fn relationship_conflicts_surface_as_warning() {
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(1), AsId(2), Relationship::P2c);
        b.add_link(AsId(1), AsId(2), Relationship::P2p); // conflict
        let conflicts = b.conflicts().to_vec();
        let g = b.build();
        let r = validate_topology(&g, &[], &[], &conflicts, &ValidateOptions::default());
        let c = r.checks.iter().find(|c| c.name == "relationship-conflicts").expect("flagged");
        assert_eq!(c.severity, Severity::Warning);
        assert!(c.message.contains("contradictory"), "{}", c.message);
        assert!(r.is_usable(), "conflicts alone don't make the graph unusable");
    }

    #[test]
    fn orphans_and_disconnection_detected() {
        let (g, t1, t2) = healthy();
        let mut b = g.to_builder();
        b.add_isolated(AsId(500));
        b.add_link(AsId(600), AsId(601), Relationship::P2p); // island
        let g = b.build();
        let r = validate_topology(&g, &t1, &t2, &[], &ValidateOptions::default());
        let orphans = r.checks.iter().find(|c| c.name == "orphaned-ases").expect("flagged");
        assert_eq!(orphans.affected, vec![AsId(500)]);
        let disc = r.checks.iter().find(|c| c.name == "disconnected").expect("flagged");
        // 3 of 9 nodes outside the main component: way above 1%.
        assert_eq!(disc.severity, Severity::Warning);
        assert!(disc.message.contains("3 AS(es)"), "{}", disc.message);
    }

    #[test]
    fn empty_graph_is_critical() {
        let r = validate_topology(
            &AsGraph::empty(),
            &[],
            &[],
            &[],
            &ValidateOptions::default(),
        );
        assert_eq!(r.worst(), Some(Severity::Critical));
        assert!(!r.is_usable());
    }

    #[test]
    fn degree_anomaly_detected_with_low_factor() {
        let mut b = AsGraphBuilder::new();
        // A star: hub with 40 spokes, plus a few spoke-spoke links.
        for i in 0..40 {
            b.add_link(AsId(1), AsId(100 + i), Relationship::P2c);
        }
        b.add_link(AsId(100), AsId(101), Relationship::P2p);
        let g = b.build();
        let opts = ValidateOptions { degree_anomaly_factor: 8.0, ..Default::default() };
        let r = validate_topology(&g, &[], &[], &[], &opts);
        let a = r.checks.iter().find(|c| c.name == "degree-anomalies").expect("flagged");
        assert_eq!(a.affected, vec![AsId(1)]);
        assert_eq!(a.severity, Severity::Info);
    }

    #[test]
    fn severity_ordering_and_render() {
        assert!(Severity::Critical > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        let (g, t1, t2) = healthy();
        let r = validate_topology(&g, &t1, &t2, &[], &ValidateOptions::default());
        assert!(r.render().contains("healthy"));
    }
}
