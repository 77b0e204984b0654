//! Graphviz (DOT) export of AS topologies.
//!
//! Small subgraphs — a cloud and its neighborhood, a leak scenario, a
//! Fig. 1-style illustration — are much easier to discuss as pictures.
//! `p2c` links render as directed provider→customer edges; `p2p` links as
//! undirected (dashed) edges.

use crate::graph::{AsGraph, AsId, NodeId, Relationship};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Options for DOT rendering.
#[derive(Debug, Clone, Default)]
pub struct DotOptions {
    /// Node labels (defaults to `AS<asn>` when absent).
    pub labels: BTreeMap<u32, String>,
    /// ASes to highlight (doubled border, filled).
    pub highlight: Vec<AsId>,
    /// Restrict output to these ASes and the links among them
    /// (`None` = whole graph — only sensible for small graphs).
    pub restrict_to: Option<Vec<AsId>>,
}

/// Renders the graph (or a restricted subgraph) as DOT.
pub fn to_dot(g: &AsGraph, opts: &DotOptions) -> String {
    let included = |n: NodeId| -> bool {
        match &opts.restrict_to {
            None => true,
            Some(list) => list.contains(&g.asn(n)),
        }
    };
    let mut out = String::new();
    out.push_str("digraph flatnet {\n");
    out.push_str("  rankdir=TB;\n  node [shape=ellipse, fontname=\"monospace\"];\n");
    for n in g.nodes() {
        if !included(n) {
            continue;
        }
        let asn = g.asn(n);
        let label = opts
            .labels
            .get(&asn.0)
            .cloned()
            .unwrap_or_else(|| format!("AS{}", asn.0));
        let style = if opts.highlight.contains(&asn) {
            ", style=filled, fillcolor=lightblue, peripheries=2"
        } else {
            ""
        };
        let _ = writeln!(out, "  n{} [label=\"{}\"{}];", asn.0, escape(&label), style);
    }
    for (x, y, rel) in g.edges() {
        if !included(x) || !included(y) {
            continue;
        }
        let (a, b) = (g.asn(x).0, g.asn(y).0);
        match rel {
            // Provider above customer: directed edge downward.
            Relationship::P2c => {
                let _ = writeln!(out, "  n{a} -> n{b};");
            }
            Relationship::P2p => {
                let _ = writeln!(out, "  n{a} -> n{b} [dir=none, style=dashed];");
            }
        }
    }
    out.push_str("}\n");
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::AsGraphBuilder;

    fn sample() -> AsGraph {
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(1), AsId(2), Relationship::P2c);
        b.add_link(AsId(2), AsId(3), Relationship::P2p);
        b.add_link(AsId(3), AsId(4), Relationship::P2c);
        b.build()
    }

    #[test]
    fn renders_edges_by_relationship() {
        let g = sample();
        let dot = to_dot(&g, &DotOptions::default());
        assert!(dot.starts_with("digraph flatnet {"));
        assert!(dot.contains("n1 -> n2;"), "{dot}");
        assert!(dot.contains("n2 -> n3 [dir=none, style=dashed];"));
        assert!(dot.contains("n3 -> n4;"));
        assert!(dot.trim_end().ends_with('}'));
        // Every node declared.
        for a in 1..=4 {
            assert!(dot.contains(&format!("n{a} [label=\"AS{a}\"")), "{dot}");
        }
    }

    #[test]
    fn labels_highlights_and_restriction() {
        let g = sample();
        let mut opts = DotOptions::default();
        opts.labels.insert(2, "Goo\"gle".into());
        opts.highlight.push(AsId(2));
        opts.restrict_to = Some(vec![AsId(1), AsId(2), AsId(3)]);
        let dot = to_dot(&g, &opts);
        assert!(dot.contains("label=\"Goo\\\"gle\""), "{dot}");
        assert!(dot.contains("fillcolor=lightblue"));
        // AS 4 and the 3->4 link are excluded.
        assert!(!dot.contains("n4"));
        assert!(!dot.contains("n3 -> n4"));
        assert!(dot.contains("n2 -> n3"));
    }

    #[test]
    fn empty_graph() {
        let g = AsGraphBuilder::new().build();
        let dot = to_dot(&g, &DotOptions::default());
        assert!(dot.contains("digraph"));
        assert!(!dot.contains("->"));
    }
}
