//! The scalar engine's work counters describe the engine's own run: they
//! are a function of (snapshot, origin, config) — not of what the
//! workspace ran before — and they count work the run did, so a run that
//! reaches a corner of the topology is not billed for the rest of it.
//!
//! Everything lives in ONE `#[test]`, alone in its binary, because the
//! obs registry is process-wide: a concurrently running test would
//! record into the same `propagate.*` counters.

use flatnet_asgraph::{AsGraph, AsGraphBuilder, AsId, NodeId, Relationship};
use flatnet_bgpsim::{PropagationConfig, TopologySnapshot, Workspace};
use std::collections::BTreeMap;

/// A small hierarchy (origin 1 under providers 2 and 3, which peer with
/// each other and with 4; customers hang below each) next to a 30-AS
/// peering mesh (100..130) no route from the hierarchy ever enters: 435
/// peer links, 870 peer adjacency entries, all outside the origin's reach.
fn graph() -> AsGraph {
    let mut b = AsGraphBuilder::new();
    for (provider, customer) in [(2, 1), (3, 1), (5, 2), (5, 3), (2, 6), (3, 7), (4, 8), (6, 9)] {
        b.add_link(AsId(provider), AsId(customer), Relationship::P2c);
    }
    for (a, c) in [(2, 3), (2, 4), (3, 4), (5, 4)] {
        b.add_link(AsId(a), AsId(c), Relationship::P2p);
    }
    for a in 100..130u32 {
        for c in a + 1..130 {
            b.add_link(AsId(a), AsId(c), Relationship::P2p);
        }
    }
    b.build()
}

/// The `propagate.*` counter deltas of one `ws.run(..)`.
fn run_counters(
    ws: &mut Workspace,
    snap: &TopologySnapshot,
    origin: NodeId,
    cfg: &PropagationConfig,
) -> BTreeMap<String, u64> {
    let before = flatnet_obs::snapshot();
    ws.run(snap, origin, cfg);
    let mut delta = flatnet_obs::snapshot().delta_since(&before).counters;
    delta.retain(|name, _| name.starts_with("propagate."));
    delta
}

#[test]
fn a_runs_counters_are_a_function_of_its_inputs_and_count_its_own_work() {
    let g = graph();
    let snap = TopologySnapshot::compile(&g);
    let node = |asn| g.index_of(AsId(asn)).expect("AS exists");
    let mut masked = vec![false; g.len()];
    masked[node(3).idx()] = true;
    let configs = [PropagationConfig::new(), PropagationConfig::new().with_excluded(masked)];

    for (c, cfg) in configs.iter().enumerate() {
        for origin in [node(1), node(9), node(4), node(100)] {
            // The same run on a used workspace, on the same workspace after
            // a different (deeper or shallower) run, and on a fresh one.
            let mut used = Workspace::for_snapshot(&snap);
            let first = run_counters(&mut used, &snap, origin, cfg);
            used.run(&snap, node(5), cfg);
            used.run(&snap, node(110), cfg);
            let second = run_counters(&mut used, &snap, origin, cfg);
            let fresh = run_counters(&mut Workspace::new(), &snap, origin, cfg);
            assert_eq!(first, second, "config {c}, origin {origin}: history changed the counters");
            assert_eq!(first, fresh, "config {c}, origin {origin}: a fresh workspace counts differently");
            assert_eq!(first["propagate.runs"], 1);

            // The run's own work: every export check is an adjacency entry
            // of a node the run reached, examined at most once.
            let reached_entries: u64 = g
                .nodes()
                .filter(|&n| used.reachable(n))
                .map(|n| (g.customers(n).len() + g.peers(n).len() + g.providers(n).len()) as u64)
                .sum();
            let checks = first["propagate.export_checks"];
            assert!(checks > 0, "config {c}, origin {origin}: nothing was counted");
            assert!(
                checks <= reached_entries,
                "config {c}, origin {origin}: {checks} export checks, but the {} reached nodes \
                 have {reached_entries} adjacency entries",
                used.reachable_count() + 1,
            );
        }
    }

    // From the hierarchy the mesh is out of reach, and its 870 peer
    // entries — which a receiver-side scan of every AS would bill to this
    // run — are more than everything the run could have examined.
    let mut ws = Workspace::for_snapshot(&snap);
    let counters = run_counters(&mut ws, &snap, node(1), &configs[0]);
    assert!(!ws.reachable(node(100)));
    assert_eq!(ws.reachable_count(), 8);
    assert!(counters["propagate.export_checks"] < 870, "{counters:?}");
}
