//! The scalar miss path against its references on random small graphs:
//! every run's selections and tie sets against the stable-paths fixpoint
//! ([`flatnet_testkit::stable_paths`]), its reliance scores against
//! `reliance(&NextHopDag::build(..))`.
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
//!
//! Every step also runs through the topology's pooled contexts, which
//! one world's steps and leak competitions under random lockings share:
//! a [`SweepCtx`](flatnet_bgpsim::SweepCtx) must start with exactly its
//! caller's policy, however the previous holder left the lent masks, and
//! a [`VictimSide`] must equal one on a rebuilt graph, whose pools are
//! empty. And every step
//! runs a lane block holding its origin and at least eight others under
//! the step's policy, each lane's reach set equal to a scalar run.

use flatnet_asgraph::{AsGraph, AsGraphBuilder, AsId, NodeId, Relationship};
use flatnet_bgpsim::{
    reliance, ImportPolicy, LaneWidth, LockingSemantics, NextHopDag, PropagationConfig,
    RelianceWorkspace, Simulation, VictimSide, Words, Workspace,
};
use flatnet_testkit::{stable_paths, Rules};
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
    /// Bit 0: exclusion mask, 1: origin-export mask, 2: import policies,
    /// 3: a leak competition runs on the pool before the step.
    knobs: u8,
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((any::<u32>(), any::<u64>(), 0u8..16), 8..14).prop_map(|steps| {
        steps.into_iter().map(|(origin, seed, knobs)| Step { origin, seed, knobs }).collect()
    })
}

/// The policy of step `k`. Odd steps reach next to nothing whatever their
/// knobs say — every other one excludes all but the origin, the rest
/// seven of every eight ASes; even steps exclude at most a tenth.
fn rules_for(step: &Step, k: usize, n: usize, origin: NodeId) -> Rules {
    let mut rng = step.seed;
    let mut rules = Rules::default();
    let sparse = k % 2 == 1;
    if sparse || step.knobs & 1 != 0 {
        let excluded_in_8 = if k % 4 == 1 { 8 } else if sparse { 7 } else { 1 };
        let mut mask: Vec<bool> = (0..n).map(|_| next(&mut rng) % 8 < excluded_in_8).collect();
        // An excluded origin is its own (empty) case: let it come up, but
        // not often.
        mask[origin.idx()] = next(&mut rng).is_multiple_of(16);
        rules.excluded = mask;
    }
    if step.knobs & 2 != 0 {
        rules.origin_export = (0..n).map(|_| !next(&mut rng).is_multiple_of(4)).collect();
    }
    if step.knobs & 4 != 0 {
        rules.import = (0..n)
            .map(|_| match next(&mut rng) % 8 {
                0 => ImportPolicy::OnlyDirectFromOrigin,
                1 => ImportPolicy::RejectDirectFromOrigin,
                2 => ImportPolicy::Never,
                _ => ImportPolicy::Normal,
            })
            .collect();
    }
    rules
}

/// A leak competition on `g`'s pools with a random victim export and
/// locking set drawn from `rng`; its outcome must equal the same
/// competition on `g` built again from its edges, whose pools are empty
/// (every clone of `g` itself shares them).
fn leak_on_the_pool(g: &AsGraph, rng: &mut u64, what: &str) {
    let n = g.len() as u64;
    let victim = NodeId((next(rng) % n) as u32);
    let leaker = NodeId(((victim.0 as u64 + 1 + next(rng) % (n - 1)) % n) as u32);
    let neighbors: Vec<NodeId> = g.neighbors(victim).map(|(x, _)| x).collect();
    let locking: Vec<NodeId> =
        neighbors.iter().copied().filter(|_| next(rng).is_multiple_of(2)).collect();
    let export: Option<Vec<NodeId>> = next(rng)
        .is_multiple_of(2)
        .then(|| neighbors.iter().copied().filter(|_| !next(rng).is_multiple_of(3)).collect());
    let semantics = if next(rng).is_multiple_of(4) {
        LockingSemantics::PreErratum
    } else {
        LockingSemantics::Corrected
    };
    let asns = g.asns().map(|a| a.0).collect();
    let fresh = AsGraph::from_canonical_edges(asns, g.edges()).unwrap();
    let run = |g: &AsGraph| {
        let side = VictimSide::propagate(g, victim, export.as_deref(), &locking, semantics);
        let outcome = side.leakers().run(leaker);
        outcome.states().to_vec()
    };
    prop_assert_eq!(
        run(g),
        run(&fresh),
        "{}: leak {}->{} (locking {:?}, export {:?}, {:?}), pooled vs fresh",
        what, victim, leaker, locking, export, semantics
    );
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
            let mut last_was_wide = None;
            for (k, step) in steps.iter().enumerate() {
                let origin = NodeId(step.origin % n as u32);
                let rules = rules_for(step, k, n, origin);
                let cfg = rules.config();
                let what = format!("world {w} ({n} ASes) step {k} ({step:?})");

                ws.run(g, origin, &cfg);
                let want = stable_paths(g, origin, &rules);
                prop_assert_eq!(want.check(g, &cfg, &ws), Ok(()), "{}", what);

                let scores = rely.score(g, &ws, &cfg);
                let dag = NextHopDag::build(g, &cfg, &ws);
                let oracle = reliance(&dag);
                prop_assert_eq!(scores.len(), oracle.len(), "{}: scores", what);
                for (i, (a, b)) in scores.iter().zip(&oracle).enumerate() {
                    prop_assert_eq!(
                        a.to_bits(), b.to_bits(),
                        "{}: rely of node {}: {} vs {}", what, i, a, b
                    );
                }
                prop_assert_eq!(rely.receivers(), dag.reachable_len(), "{}: receivers", what);

                // The same run on a pooled context: whatever the last
                // holder (a step, a leak side) left in the lent config,
                // this one runs under `cfg` alone.
                if step.knobs & 8 != 0 {
                    leak_on_the_pool(g, &mut (step.seed ^ 0x5EED), &what);
                }
                let sim = Simulation::over(g).config(cfg.clone()).threads(1);
                let mut ctx = sim.ctx();
                prop_assert_eq!(want.check(g, &cfg, ctx.run(origin)), Ok(()), "{}: pooled", what);
                let pooled = ctx.run_reliance(origin).scores();
                for (i, (a, b)) in pooled.iter().zip(&oracle).enumerate() {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "{}: pooled rely of {}", what, i);
                }

                // A lane block under the step's whole policy: the origin
                // and 8–15 others, each lane against a scalar run.
                let mut lane_rng = step.seed ^ 0x1A4E;
                let others = 8 + next(&mut lane_rng) % 8;
                let block: Vec<NodeId> = std::iter::once(origin)
                    .chain((0..others).map(|_| NodeId((next(&mut lane_rng) % n as u64) as u32)))
                    .collect();
                let lanes = sim.clone().lane_width(LaneWidth::W64).sweep(&block, |_, _| {}, Words).unwrap();
                for (i, &o) in block.iter().enumerate() {
                    let scalar = ctx.run(o).reach_words();
                    prop_assert_eq!(&lanes.kept[i][..], scalar, "{}: lane {} ({})", what, i, o);
                }

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

/// A graph of `(a, b, rel)` links; for `P2c`, `a` provides transit to `b`.
fn graph(links: &[(u32, u32, Relationship)]) -> AsGraph {
    let mut b = AsGraphBuilder::new();
    for &(x, y, rel) in links {
        b.add_link(AsId(x), AsId(y), rel);
    }
    b.build()
}

/// Every origin of a diamond with a peered-off branch, one workspace
/// reused across them, under no policy.
#[test]
fn workspace_matches_stable_paths_on_every_origin() {
    use Relationship::{P2c, P2p};
    let g = graph(&[(2, 1, P2c), (3, 1, P2c), (4, 2, P2c), (4, 3, P2c), (4, 5, P2p), (5, 6, P2c)]);
    let mut ws = Workspace::for_snapshot(&g);
    let cfg = PropagationConfig::default();
    for origin in g.nodes() {
        ws.run(&g, origin, &cfg);
        let want = stable_paths(&g, origin, &Rules::default());
        assert_eq!(want.check(&g, &cfg, &ws), Ok(()), "origin {origin}");
    }
}

/// A cloud (AS 10) peering with a Tier-1 (2), a Tier-2 (3) and two user
/// ISPs (40, 50), with its transit provider (1) excluded: one mask drives
/// the engine and the fixpoint, and both reach the peers and their
/// customers alone.
#[test]
fn the_cloud_without_its_transit_matches_stable_paths() {
    use Relationship::{P2c, P2p};
    let g = graph(&[
        (1, 10, P2c),
        (1, 60, P2c),
        (1, 2, P2p),
        (2, 3, P2c),
        (2, 20, P2c),
        (3, 30, P2c),
        (10, 2, P2p),
        (10, 3, P2p),
        (10, 40, P2p),
        (10, 50, P2p),
    ]);
    let node = |asn: u32| g.index_of(AsId(asn)).unwrap();
    let mut rules = Rules { excluded: vec![false; g.len()], ..Rules::default() };
    rules.excluded[node(1).idx()] = true;
    let cfg = rules.config();
    let out = Simulation::over(&g).config(cfg.clone()).run(node(10));
    assert_eq!(stable_paths(&g, node(10), &rules).check(&g, &cfg, &out), Ok(()));
    assert_eq!(out.reachable_count(), 6, "peers 2, 3, 40, 50 and customers 20, 30");
}

/// Random acyclic relationship graphs over ten ASes and an isolated one:
/// any AS may provide transit, to ASes of larger number only.
fn arb_dense_graph() -> impl Strategy<Value = AsGraph> {
    proptest::collection::vec((0u32..10, 0u32..10, 0u8..2), 1..30).prop_map(|links| {
        let mut b = AsGraphBuilder::new();
        for (a, c, r) in links {
            if a == c {
                continue;
            }
            if r == 1 {
                b.add_link(AsId(a), AsId(c), Relationship::P2p);
            } else {
                b.add_link(AsId(a.min(c)), AsId(a.max(c)), Relationship::P2c);
            }
        }
        b.add_isolated(AsId(99));
        b.build()
    })
}

proptest! {
    /// A `Simulation` run equals the stable-paths fixpoint on every AS,
    /// selection and tie set alike.
    #[test]
    fn three_phase_equals_fixpoint(g in arb_dense_graph(), seed in 0u32..10) {
        let origin = NodeId(seed % g.len() as u32);
        let cfg = PropagationConfig::default();
        let out = Simulation::over(&g).run(origin);
        let want = stable_paths(&g, origin, &Rules::default());
        prop_assert_eq!(want.check(&g, &cfg, &out), Ok(()), "origin {}", origin);
    }
}
