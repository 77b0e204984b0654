//! The scalar engine's work counters describe the engine's own run: they
//! are a function of (snapshot, origin, config) — not of what the
//! workspace ran before — and they count work the run did, so a run that
//! reaches a corner of the topology is not billed for the rest of it.
//!
//! The reliance kernel's `reliance.hop_checks` is held to the same idea:
//! deriving the hops of a run examines no more adjacency than the run did.
//!
//! Everything lives in ONE `#[test]`, alone in its binary, because the
//! obs registry is process-wide: a concurrently running test would
//! record into the same `propagate.*` and `reliance.*` counters.

use flatnet_asgraph::{AsGraph, AsGraphBuilder, AsId, NodeId, Relationship};
use flatnet_bgpsim::{PropagationConfig, RelianceWorkspace, RouteClass, TopologySnapshot, Workspace};
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

/// The `propagate.*` and `reliance.*` counter deltas of `work`.
fn counters_during(work: impl FnOnce()) -> BTreeMap<String, u64> {
    let before = flatnet_obs::snapshot();
    work();
    let mut delta = flatnet_obs::snapshot().delta_since(&before).counters;
    delta.retain(|name, _| name.starts_with("propagate.") || name.starts_with("reliance."));
    delta
}

/// The counter deltas of one `ws.run(..)`.
fn run_counters(
    ws: &mut Workspace,
    snap: &TopologySnapshot,
    origin: NodeId,
    cfg: &PropagationConfig,
) -> BTreeMap<String, u64> {
    counters_during(|| ws.run(snap, origin, cfg))
}

/// Origin 1 under hub 2 under hub 3. Each hub peers with 2 000 ASes of
/// its own, every one of which has a stub customer and peers with the
/// next five of its kind; hub 3 has 1 500 stub customers besides.
fn hub_heavy() -> AsGraph {
    let mut b = AsGraphBuilder::new();
    b.add_link(AsId(2), AsId(1), Relationship::P2c);
    b.add_link(AsId(3), AsId(2), Relationship::P2c);
    for i in 0..4000u32 {
        let (peer, stub) = (10_000 + i, 20_000 + i);
        b.add_link(AsId(2 + i % 2), AsId(peer), Relationship::P2p);
        b.add_link(AsId(peer), AsId(stub), Relationship::P2c);
        for j in 1..=5 {
            b.add_link(AsId(peer), AsId(10_000 + (i + j) % 4000), Relationship::P2p);
        }
    }
    for stub in 30_000..31_500 {
        b.add_link(AsId(3), AsId(stub), Relationship::P2c);
    }
    b.build()
}

/// `propagate.export_checks` of every (config, origin) run below, as
/// recorded before phase 3 stopped queueing stubs: keeping a node out of
/// the bucket queue must not change what any exporter examines.
const EXPORT_CHECKS: [[u64; 4]; 2] = [[17, 14, 11, 29], [12, 12, 9, 29]];

#[test]
fn a_runs_counters_are_a_function_of_its_inputs_and_count_its_own_work() {
    let g = graph();
    let snap = TopologySnapshot::compile(&g);
    let node = |asn| g.index_of(AsId(asn)).expect("AS exists");
    let mut masked = vec![false; g.len()];
    masked[node(3).idx()] = true;
    let configs = [PropagationConfig::new(), PropagationConfig::new().with_excluded(masked)];

    for (c, cfg) in configs.iter().enumerate() {
        for (o, origin) in [node(1), node(9), node(4), node(100)].into_iter().enumerate() {
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
            assert_eq!(
                first["propagate.export_checks"], EXPORT_CHECKS[c][o],
                "config {c}, origin {origin}: the export checks moved"
            );

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

    // A pop is a node drained to export to its customers, so stubs are
    // never popped: under provider 2, forty stubs (10..50) and one transit
    // customer 3 with a stub of its own. From origin 1, 2's customer route
    // goes down to all forty-two — one bucket entry, 3 — and every one of
    // them is still examined and reached.
    let mut b = AsGraphBuilder::new();
    b.add_link(AsId(2), AsId(1), Relationship::P2c);
    b.add_link(AsId(2), AsId(3), Relationship::P2c);
    b.add_link(AsId(3), AsId(4), Relationship::P2c);
    for stub in 10..50 {
        b.add_link(AsId(2), AsId(stub), Relationship::P2c);
    }
    let g = b.build();
    let snap = TopologySnapshot::compile(&g);
    let origin = g.index_of(AsId(1)).expect("AS exists");
    let counters = run_counters(&mut ws, &snap, origin, &configs[0]);
    assert_eq!(ws.reachable_count(), 43);
    assert_eq!(counters["propagate.dijkstra_pops"], 1, "{counters:?}");
    // 1's provider entry, 2's forty-two customers, 3's one.
    assert_eq!(counters["propagate.export_checks"], 1 + 42 + 1, "{counters:?}");

    // Deriving a run's next hops examines no more adjacency than the run
    // itself did: customer- and peer-class hops are read off the three
    // customer-routed senders' provider and peer entries (what phases 1-2
    // examined), not off every receiver's own class slice — hub 3's 1 501
    // customers, the 40 000 entries of the peer ring.
    let g = hub_heavy();
    let snap = TopologySnapshot::compile(&g);
    let origin = g.index_of(AsId(1)).expect("AS exists");
    let mut rely = RelianceWorkspace::new();
    let counters = counters_during(|| {
        ws.run(&snap, origin, &configs[0]);
        rely.score(&snap, &ws, &configs[0]);
    });
    assert_eq!(ws.reachable_count(), g.len() - 1);
    assert_eq!(counters["reliance.runs"], 1);
    let (hops, exports) = (counters["reliance.hop_checks"], counters["propagate.export_checks"]);
    let receiver_side: u64 = g
        .nodes()
        .map(|n| match ws.selection(n).expect("everyone is reached").0 {
            RouteClass::Customer => g.customers(n).len(),
            RouteClass::Peer => g.peers(n).len(),
            RouteClass::Provider => g.providers(n).len(),
        } as u64)
        .sum();
    println!("hub-heavy: {hops} hop checks, {exports} export checks, {receiver_side} receiver-side");
    assert!(hops <= exports, "{hops} hop checks for a run of {exports} export checks");
    assert!(exports < receiver_side, "{exports} vs {receiver_side}: the topology is not hub-heavy");
}
