//! The scalar miss path against its oracles on random small graphs.
//!
//! `tests/engine_equiv.rs` walks a fixed corpus of generated Internets;
//! this attacks the rules the engine and the reliance kernel lean on —
//! stubs stay out of the provider queue, customer- and peer-class hops
//! come from the senders, a reset fills or undoes by how far the last run
//! reached — on shapes that corpus does not hold: graphs that are mostly
//! stubs under a few hubs, peer-only nodes, isolated ASes, multi-provider
//! ties, under random exclusion masks, origin-export masks and every
//! [`ImportPolicy`].
//!
//! Each case runs all its graphs and origins on ONE [`Workspace`] and ONE
//! [`RelianceWorkspace`], alternating runs that reach most of a graph
//! with runs that reach almost nothing, so all three reset branches
//! (resize, fill, undo) and the switches between them are taken with
//! stale state to trip over.

use flatnet_asgraph::{AsGraph, AsGraphBuilder, AsId, NodeId, Relationship};
use flatnet_bgpsim::oracle::propagate_legacy;
use flatnet_bgpsim::{
    reliance, ImportPolicy, NextHopDag, PropagationConfig, RelianceWorkspace, TopologySnapshot,
    Workspace,
};
use proptest::prelude::*;

/// SplitMix64, for the per-node draws of one step.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 16–48 ASes (so an eighth of the graph is more than the origin alone).
/// Providers are drawn from the lowest-numbered quarter, which leaves
/// most ASes without customers; a provider always has the smaller ASN, so
/// the hierarchy is acyclic. ASes no link names stay isolated.
fn arb_graph() -> impl Strategy<Value = AsGraph> {
    (16u32..48, proptest::collection::vec((any::<u32>(), any::<u32>(), 0u8..4), 0..120)).prop_map(
        |(n, links)| {
            let mut b = AsGraphBuilder::new();
            for asn in 0..n {
                b.add_isolated(AsId(asn));
            }
            let hubs = (n / 4).max(2);
            for (x, y, kind) in links {
                let (a, c) = if kind == 3 { (x % n, y % n) } else { (x % hubs, y % n) };
                if a == c {
                    continue;
                }
                if kind == 3 {
                    b.add_link(AsId(a), AsId(c), Relationship::P2p);
                } else {
                    b.add_link(AsId(a.min(c)), AsId(a.max(c)), Relationship::P2c);
                }
            }
            b.build()
        },
    )
}

/// One run of a case's sequence: where it starts, what shapes its policy.
#[derive(Debug, Clone)]
struct Step {
    origin: u32,
    seed: u64,
    /// Bit 0: exclusion mask, 1: origin-export mask, 2: import policies.
    knobs: u8,
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((any::<u32>(), any::<u64>(), 0u8..8), 8..14).prop_map(|steps| {
        steps.into_iter().map(|(origin, seed, knobs)| Step { origin, seed, knobs }).collect()
    })
}

/// The config of step `k`. Odd steps reach next to nothing whatever their
/// knobs say — every other one excludes all but the origin, the rest
/// seven of every eight ASes; even steps exclude at most a tenth.
fn config_for(step: &Step, k: usize, n: usize, origin: NodeId) -> PropagationConfig {
    let mut rng = step.seed;
    let mut cfg = PropagationConfig::new();
    let sparse = k % 2 == 1;
    if sparse || step.knobs & 1 != 0 {
        let excluded_in_8 = if k % 4 == 1 { 8 } else if sparse { 7 } else { 1 };
        let mut mask: Vec<bool> = (0..n).map(|_| next(&mut rng) % 8 < excluded_in_8).collect();
        // An excluded origin is its own (empty) case: let it come up, but
        // not often.
        mask[origin.idx()] = next(&mut rng).is_multiple_of(16);
        cfg = cfg.with_excluded(mask);
    }
    if step.knobs & 2 != 0 {
        cfg = cfg.with_origin_export((0..n).map(|_| !next(&mut rng).is_multiple_of(4)).collect());
    }
    if step.knobs & 4 != 0 {
        let policies = (0..n)
            .map(|_| match next(&mut rng) % 8 {
                0 => ImportPolicy::OnlyDirectFromOrigin,
                1 => ImportPolicy::RejectDirectFromOrigin,
                2 => ImportPolicy::Never,
                _ => ImportPolicy::Normal,
            })
            .collect();
        cfg = cfg.with_import(policies);
    }
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn one_workspace_matches_both_oracles_over_a_mixed_sequence(
        worlds in proptest::collection::vec((arb_graph(), arb_steps()), 48),
    ) {
        let mut ws = Workspace::new();
        let mut rely = RelianceWorkspace::new();
        // Runs that reached at least an eighth of their graph (the next
        // reset fills) and runs that did not (it undoes), and how often
        // one kind followed the other on the same graph.
        let (mut wide, mut narrow, mut switches) = (0, 0, 0);
        for (w, (g, steps)) in worlds.iter().enumerate() {
            let n = g.len();
            let snap = TopologySnapshot::compile(g);
            let mut last_was_wide = None;
            for (k, step) in steps.iter().enumerate() {
                let origin = NodeId(step.origin % n as u32);
                let cfg = config_for(step, k, n, origin);
                let what = format!("world {w} ({n} ASes) step {k} ({step:?})");

                ws.run(&snap, origin, &cfg);
                let want = propagate_legacy(g, origin, &cfg);
                prop_assert_eq!(ws.origin(), want.origin(), "{}: origin", what);
                prop_assert_eq!(ws.len(), want.len(), "{}: len", what);
                prop_assert_eq!(ws.reachable_count(), want.reachable_count(), "{}: count", what);
                prop_assert_eq!(ws.reach_words(), want.reach_words(), "{}: reach bitset", what);
                for v in g.nodes() {
                    prop_assert_eq!(ws.reachable(v), want.reachable(v), "{}: reach bit of {}", what, v);
                    prop_assert_eq!(ws.selection(v), want.selection(v), "{}: selection of {}", what, v);
                    prop_assert_eq!(
                        ws.next_hops(g, &cfg, v),
                        want.next_hops(g, &cfg, v),
                        "{}: next hops of {}", what, v
                    );
                }

                let scores = rely.score(&snap, &ws, &cfg);
                let dag = NextHopDag::build(g, &cfg, &want);
                let oracle = reliance(&dag);
                prop_assert_eq!(scores.len(), oracle.len(), "{}: scores", what);
                for (i, (a, b)) in scores.iter().zip(&oracle).enumerate() {
                    prop_assert_eq!(
                        a.to_bits(), b.to_bits(),
                        "{}: rely of node {}: {} vs {}", what, i, a, b
                    );
                }
                prop_assert_eq!(rely.receivers(), dag.reachable_len(), "{}: receivers", what);

                let is_wide = dag.reachable_len() >= n / 8;
                wide += usize::from(is_wide);
                narrow += usize::from(!is_wide);
                switches += usize::from(last_was_wide.is_some_and(|last| last != is_wide));
                last_was_wide = Some(is_wide);
            }
        }
        // The sequence really did mix the reset regimes.
        prop_assert!(wide >= 100 && narrow >= 100 && switches >= 100, "{wide} wide, {narrow} narrow, {switches} switches");
    }
}
