//! Differential test: the batched propagation engine must be observably
//! identical to the stable-paths fixpoint of the same rules
//! ([`flatnet_testkit::stable_paths`]) — selections, reach bits, counts,
//! and tied-best next hops against the fixpoint's own tie sets — across
//! many seeded topologies, origins, and every policy knob; and a leak
//! competition ([`LeakerSide::run`](flatnet_bgpsim::LeakerSide::run))
//! must give every AS the detour state two fixpoints give it, under both
//! locking semantics, random locking sets and victim export lists; and
//! the bit-parallel multi-origin kernel must produce reach sets
//! bit-identical to per-origin [`Workspace`] runs over the same corpus;
//! and the exclusion rule's lane rendering (shared tier mask + per-lane
//! fill) must equal its scalar rendering for every origin and policy;
//! and the reliance kernel ([`RelianceWorkspace`]) must score every one
//! of those runs bit-identically (`f64::to_bits`) to
//! `reliance(&NextHopDag::build(..))` while one workspace is reused
//! across origins, policies and graphs of different size; and a
//! finished run read where it lies (the `RoutingOutcome` a [`Workspace`]
//! dereferences to) must equal its `to_outcome()` clone and the
//! fixpoint, down to the DAG built from it. Plus steady-state allocation
//! smokes: once a sweep context (or lane workspace, or reliance
//! workspace) is warm, further runs (with per-origin mask refills) must
//! not allocate at all, and reading a run through the borrow allocates
//! nothing of its own. And a byte budget on holding a topology twice:
//! compiling a snapshot of a graph, or cloning the graph, allocates per
//! node and nothing per link.
//!
//! Everything lives in ONE `#[test]` because the process hosts a global
//! counting allocator, and interleaving other tests would make the
//! allocation delta meaningless.

use flatnet_asgraph::{AsId, NodeId, Tiers};
use flatnet_bgpsim::{
    reliance, Counts, DetourState, Exclusion, ExclusionPolicy, ImportPolicy, LaneWidth,
    LockingSemantics, NextHopDag, PropagationConfig, RelianceWorkspace, RoutingOutcome,
    Simulation, SweepCtx, TopologySnapshot, VictimSide, Words, Workspace,
};
use flatnet_netgen::{generate, NetGenConfig};
use flatnet_testkit::{leak_states, process, stable_paths, Counting, Rules};

#[global_allocator]
static ALLOC: Counting = Counting;

/// Deterministic xorshift; keeps the test free of RNG-crate coupling.
fn next(rng: &mut u64) -> u64 {
    *rng ^= *rng << 13;
    *rng ^= *rng >> 7;
    *rng ^= *rng << 17;
    *rng
}

fn random_policy(rng: &mut u64) -> ImportPolicy {
    match next(rng) % 4 {
        0 => ImportPolicy::Normal,
        1 => ImportPolicy::OnlyDirectFromOrigin,
        2 => ImportPolicy::RejectDirectFromOrigin,
        _ => ImportPolicy::Never,
    }
}

/// Requires two outcomes to read the same through every accessor:
/// origin, reach words and count, selections, tied-best next hops.
fn assert_same_outcome(
    g: &flatnet_asgraph::AsGraph,
    cfg: &PropagationConfig,
    a: &RoutingOutcome,
    b: &RoutingOutcome,
    what: &str,
) {
    assert_eq!((a.origin(), a.len()), (b.origin(), b.len()), "{what}: origin, length");
    assert_eq!(a.reach_words(), b.reach_words(), "{what}: reach words");
    assert_eq!(a.reachable_count(), b.reachable_count(), "{what}: reach count");
    for v in g.nodes() {
        assert_eq!(a.selection(v), b.selection(v), "{what} node {v:?}: selection");
        assert_eq!(a.next_hops(g, cfg, v), b.next_hops(g, cfg, v), "{what} node {v:?}: tie set");
    }
}

/// Requires two DAGs to agree on order, hops and path counts (by bits).
fn assert_same_dag(g: &flatnet_asgraph::AsGraph, a: &NextHopDag, b: &NextHopDag, what: &str) {
    assert_eq!(a.topo_order(), b.topo_order(), "{what}: topological order");
    for v in g.nodes() {
        assert_eq!(a.next_hops(v), b.next_hops(v), "{what} node {v:?}: DAG hops");
        assert_eq!(
            a.path_count(v).to_bits(),
            b.path_count(v).to_bits(),
            "{what} node {v:?}: path count"
        );
    }
}

/// Scores the run `ws` holds with the kernel and with the oracle
/// (`RoutingOutcome` copy → `NextHopDag` → `reliance`) and requires every
/// score to agree bit for bit, and the receiver counts to agree.
fn assert_kernel_matches_oracle(
    g: &flatnet_asgraph::AsGraph,
    ws: &Workspace,
    rely: &mut RelianceWorkspace,
    cfg: &PropagationConfig,
    what: &str,
) {
    let dag = NextHopDag::build(g, cfg, &ws.to_outcome());
    assert_same_dag(g, &NextHopDag::build(g, cfg, ws), &dag, what);
    let want = reliance(&dag);
    let got = rely.score(g, ws, cfg);
    assert_eq!(got.len(), want.len(), "{what}: score vector length");
    for (i, (a, b)) in got.iter().zip(&want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what} node {i}: kernel {a} vs oracle {b}");
    }
    assert_eq!(rely.receivers(), dag.reachable_len(), "{what}: receivers");
}

#[test]
fn engine_matches_stable_paths_and_allocates_nothing_in_steady_state() {
    // ---- Part 1: differential equivalence over >= 50 topologies. ----
    let mut compared = 0usize;
    // The most rounds a fixpoint took, and how often each detour state
    // came out of a leak competition.
    let mut rounds = 0usize;
    let mut states = [0usize; 3];
    // One engine workspace and one reliance workspace for the whole
    // corpus: they are reused across origins, policy variants and
    // graphs of different node counts (120..150).
    let mut rely_ws = Workspace::new();
    let mut rely = RelianceWorkspace::new();
    for seed in 0..52u64 {
        let mut gen_cfg = NetGenConfig::tiny(seed);
        gen_cfg.n_ases = 120 + (seed as usize % 4) * 10;
        let net = generate(&gen_cfg);
        let g = &net.truth;
        let n = g.len();
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;

        let mut origins = Vec::new();
        for _ in 0..3 {
            origins.push(NodeId((next(&mut rng) % n as u64) as u32));
        }

        for &origin in &origins {
            // Variant 0: no restrictions. 1: exclusion mask. 2: origin
            // export restriction. 3: random import policies. 4: all three.
            for variant in 0..5u32 {
                let mut rules = Rules::default();
                if variant == 1 || variant == 4 {
                    rules.excluded = (0..n).map(|_| next(&mut rng).is_multiple_of(10)).collect();
                    rules.excluded[origin.idx()] = false;
                }
                if variant == 2 || variant == 4 {
                    rules.origin_export = (0..n).map(|_| next(&mut rng).is_multiple_of(2)).collect();
                }
                if variant == 3 || variant == 4 {
                    rules.import = (0..n).map(|_| random_policy(&mut rng)).collect();
                }
                let cfg = rules.config();
                let what = format!("seed {seed} origin {origin:?} variant {variant}");

                let want = stable_paths(g, origin, &rules);
                rounds = rounds.max(want.rounds());
                let engine = Simulation::over(g).config(cfg.clone()).run(origin);
                assert_eq!(want.check(g, &cfg, &engine), Ok(()), "{what}: a simulation's run");

                // The run read where it lies, its clone, and the fixpoint;
                // the reliance kernel against its oracle on the same run.
                rely_ws.run(g, origin, &cfg);
                assert_eq!(want.check(g, &cfg, &rely_ws), Ok(()), "{what}: a workspace's run");
                assert_same_outcome(g, &cfg, &rely_ws, &rely_ws.to_outcome(), &format!("{what}: borrowed vs clone"));
                assert_kernel_matches_oracle(g, &rely_ws, &mut rely, &cfg, &what);
                compared += 1;
            }
            // An excluded origin announces nothing: every score is zero,
            // and nothing of the previous run's scores may survive.
            let mut mask = vec![false; n];
            mask[origin.idx()] = true;
            let cfg = PropagationConfig::new().with_excluded(mask);
            rely_ws.run(g, origin, &cfg);
            let what = format!("seed {seed} origin {origin:?} excluded");
            assert_kernel_matches_oracle(g, &rely_ws, &mut rely, &cfg, &what);
            assert!(rely.scores().iter().all(|&s| s == 0.0), "{what}");
            assert_eq!(rely.receivers(), 0, "{what}");
        }

        // ---- Part 1a: leak competitions against two fixpoints. Each
        // origin is a victim with two leakers, a random half of its
        // neighbours locking, and every other victim announcing to a
        // random two thirds of its neighbours only.
        for (k, &victim) in origins.iter().enumerate() {
            let neighbors: Vec<NodeId> = g.neighbors(victim).map(|(x, _)| x).collect();
            let locking: Vec<NodeId> =
                neighbors.iter().copied().filter(|_| next(&mut rng).is_multiple_of(2)).collect();
            let export: Option<Vec<NodeId>> = (k % 2 == 1)
                .then(|| neighbors.iter().copied().filter(|_| !next(&mut rng).is_multiple_of(3)).collect());
            let leakers: Vec<NodeId> = (0..2)
                .map(|_| NodeId(((victim.0 as u64 + 1 + next(&mut rng) % (n as u64 - 1)) % n as u64) as u32))
                .collect();
            for semantics in [LockingSemantics::Corrected, LockingSemantics::PreErratum] {
                let side = VictimSide::propagate(g, victim, export.as_deref(), &locking, semantics);
                let mut leakers_side = side.leakers();
                for &leaker in &leakers {
                    let got = leakers_side.run(leaker);
                    let want = leak_states(g, victim, leaker, export.as_deref(), &locking, semantics);
                    let differ = g.nodes().find(|&t| got.state(t) != want[t.idx()]);
                    assert_eq!(
                        differ.map(|t| (t, got.state(t), want[t.idx()])),
                        None,
                        "seed {seed}: leak {victim:?}->{leaker:?} ({semantics:?}, locking {locking:?}, \
                         export {export:?}): the first AS whose state differs (run, fixpoint)"
                    );
                    for s in want {
                        states[match s {
                            DetourState::Legit => 0,
                            DetourState::Detoured => 1,
                            DetourState::NoRoute => 2,
                        }] += 1;
                    }
                }
            }
        }
    }
    assert!(compared >= 50 * 5, "only ran {compared} comparisons");
    eprintln!("stable paths: {compared} runs, at most {rounds} rounds each");
    let [legit, detoured, no_route] = states;
    assert!(legit > 0 && detoured > 0 && no_route > 0, "leak states {states:?}: one never came up");

    // ---- Part 1b: the bit-parallel kernel is bit-identical to
    // per-origin Workspace runs over the same topology corpus, at every
    // lane width (64, 128, and 256 origins per block). Sweeping every
    // node covers multiple blocks plus a partial tail block at each
    // width, and the n % 64 != 0 sizes exercise the tail-word masking;
    // at 256 lanes the per-lane fills land in lane words beyond bit 63.
    let mut kernel_compared = 0usize;
    for seed in 0..52u64 {
        let mut gen_cfg = NetGenConfig::tiny(seed);
        gen_cfg.n_ases = 120 + (seed as usize % 4) * 10;
        let net = generate(&gen_cfg);
        let g = &net.truth;
        let n = g.len();
        let mut rng = seed.wrapping_mul(0x517C_C1B7_2722_0A95) | 1;
        let origins: Vec<NodeId> = g.nodes().collect();

        for variant in 0..5u32 {
            // Same policy grid as Part 1, but the config is shared by the
            // whole sweep (kernel blocks run one config across 64 lanes).
            let excluded: Option<Vec<bool>> = (variant == 1 || variant == 4)
                .then(|| (0..n).map(|_| next(&mut rng).is_multiple_of(10)).collect());
            let origin_export: Option<Vec<bool>> = (variant == 2 || variant == 4)
                .then(|| (0..n).map(|_| next(&mut rng).is_multiple_of(2)).collect());
            let import: Option<Vec<ImportPolicy>> = (variant == 3 || variant == 4)
                .then(|| (0..n).map(|_| random_policy(&mut rng)).collect());

            let mut cfg = PropagationConfig::new();
            if let Some(m) = &excluded {
                cfg = cfg.with_excluded(m.clone());
            }
            if let Some(m) = &origin_export {
                cfg = cfg.with_origin_export(m.clone());
            }
            if let Some(m) = &import {
                cfg = cfg.with_import(m.clone());
            }

            // A lane's own origin must not stay excluded by the shared
            // mask, mirroring the `mask[origin] = false` refill the
            // scalar sweeps do; per-lane providers ride on top for the
            // all-knobs variant to cover the LaneExcluder path too.
            let with_providers = variant == 4;
            let fill = |o: NodeId, ex: &mut flatnet_bgpsim::LaneExcluder<'_>| {
                if with_providers {
                    for &p in g.providers(o) {
                        ex.exclude(p);
                    }
                }
                ex.allow(o);
            };
            let widths = [LaneWidth::W64, LaneWidth::W128, LaneWidth::W256];
            let per_width: Vec<_> = widths
                .iter()
                .map(|&w| {
                    let sim =
                        Simulation::over(g).config(cfg.clone()).threads(1).lane_width(w);
                    let words = sim.sweep(&origins, fill, Words).expect("no fill panics");
                    (words, sim.sweep(&origins, fill, Counts).expect("no fill panics").counts)
                })
                .collect();

            let mut ws = Workspace::for_snapshot(g);
            for (i, &o) in origins.iter().enumerate() {
                let mut scalar_cfg = cfg.clone();
                let mask = scalar_cfg.excluded_mask_mut(n);
                if with_providers {
                    for &p in g.providers(o) {
                        mask[p.idx()] = true;
                    }
                }
                mask[o.idx()] = false;
                ws.run(g, o, &scalar_cfg);
                for (w, (reach, counts)) in widths.iter().zip(&per_width) {
                    assert_eq!(
                        reach.kept[i],
                        ws.reach_words(),
                        "seed {seed} variant {variant} origin {o:?} width {w:?}: kernel reach words"
                    );
                    assert_eq!(
                        reach.counts[i] as usize,
                        ws.reachable_count(),
                        "seed {seed} variant {variant} origin {o:?} width {w:?}: kernel reach count"
                    );
                    assert_eq!(
                        counts[i] as usize,
                        ws.reachable_count(),
                        "seed {seed} variant {variant} origin {o:?} width {w:?}: counts-only sweep"
                    );
                }
            }
            kernel_compared += 1;
        }
    }
    assert!(kernel_compared >= 50 * 5, "only ran {kernel_compared} kernel comparisons");

    // ---- Part 1c: one exclusion rule, two renderings. For every origin
    // of every corpus topology and every 3-bit policy, a lane sweep under
    // `shared_config` + `fill_lane` reaches exactly what a scalar run
    // under `fill_scalar` reaches. Sweeping every node includes the
    // Tier-1 and Tier-2 origins, whose own bit the shared mask covers and
    // the lane fill must carve back out.
    let mut exclusion_compared = 0usize;
    for seed in 0..52u64 {
        let mut gen_cfg = NetGenConfig::tiny(seed);
        gen_cfg.n_ases = 120 + (seed as usize % 4) * 10;
        let net = generate(&gen_cfg);
        let g = &net.truth;
        let tiers = net.tiers_for(g);
        let origins: Vec<NodeId> = g.nodes().collect();
        let mut ws = Workspace::for_snapshot(g);
        let mut scalar_cfg = PropagationConfig::new();
        for bits in 0..8u64 {
            let policy = ExclusionPolicy::from_bits(bits);
            assert_eq!(policy.bits(), bits);
            let excl = Exclusion::new(g, &tiers, policy).expect("generator tiers match the graph");
            let reach = Simulation::over(g)
                .threads(1)
                .config(excl.shared_config())
                .sweep(&origins, |o, ex| excl.fill_lane(o, ex), Words)
                .expect("no fill panics");
            for (i, &o) in origins.iter().enumerate() {
                excl.fill_scalar(o, scalar_cfg.excluded_mask_mut(g.len()));
                ws.run(g, o, &scalar_cfg);
                assert_eq!(
                    reach.kept[i],
                    ws.reach_words(),
                    "seed {seed} policy {policy:?} origin {o:?}: lane vs scalar exclusion"
                );
                let origin_bit = (reach.kept[i][o.idx() >> 6] >> (o.idx() & 63)) & 1;
                assert_eq!(origin_bit, 1, "seed {seed} policy {policy:?}: origin {o:?} excluded itself");
            }
            exclusion_compared += 1;
        }
        assert!(!tiers.tier1().is_empty(), "seed {seed}: corpus topology without a Tier-1 origin");

        // Tiers built against a different (larger) graph are refused up
        // front with a typed error, under every policy.
        if seed == 0 {
            let big = generate(&NetGenConfig::tiny(1000 + seed)).truth;
            assert!(big.len() > g.len());
            let last = big.asn(NodeId(big.len() as u32 - 1));
            let foreign = Tiers::from_lists(&big, &[last], &[AsId(u32::MAX)]);
            for bits in 0..8u64 {
                let err = Exclusion::new(g, &foreign, ExclusionPolicy::from_bits(bits)).unwrap_err();
                assert_eq!((err.node.idx(), err.graph_len), (big.len() - 1, g.len()));
            }
        }
    }
    assert_eq!(exclusion_compared, 52 * 8);

    // ---- Part 2: zero steady-state allocation. ----
    let mut gen_cfg = NetGenConfig::tiny(999);
    gen_cfg.n_ases = 150;
    let net = generate(&gen_cfg);
    let g = &net.truth;
    let n = g.len();
    let sim = Simulation::over(g);
    let mut ctx = sim.ctx();
    let origins: Vec<NodeId> = g.nodes().take(40).collect();

    let pass = |ctx: &mut SweepCtx| -> usize {
        let mut acc = 0usize;
        for &o in &origins {
            // Refill the exclusion mask per origin, like the reachability
            // sweeps do, so the mask path is covered as well.
            let mask = ctx.config_mut().excluded_mask_mut(n);
            mask.fill(false);
            mask[(o.idx() + 1) % n] = true;
            mask[o.idx()] = false;
            acc += ctx.run(o).reachable_count();
        }
        acc
    };

    // Warm pass: buckets deepen, the mask allocates once, counters resolve.
    let warm = pass(&mut ctx);
    let before = process().allocations;
    let again = pass(&mut ctx);
    let after = process().allocations;
    assert_eq!(warm, again, "steady-state pass changed results");
    assert_eq!(
        after - before,
        0,
        "engine allocated {} time(s) during a warm sweep pass",
        after - before
    );

    // ---- Part 2a: the reliance kernel is allocation-free once warm —
    // propagation, DAG derivation and scoring, with the same per-origin
    // mask refills.
    let rely_pass = |ctx: &mut SweepCtx| -> f64 {
        let mut acc = 0.0;
        for &o in &origins {
            let mask = ctx.config_mut().excluded_mask_mut(n);
            mask.fill(false);
            mask[(o.idx() + 1) % n] = true;
            mask[o.idx()] = false;
            let r = ctx.run_reliance(o);
            acc += r.scores()[o.idx()] + r.receivers() as f64;
        }
        acc
    };
    let warm = rely_pass(&mut ctx);
    let before = process().allocations;
    let again = rely_pass(&mut ctx);
    let after = process().allocations;
    assert_eq!(warm.to_bits(), again.to_bits(), "warm reliance pass changed results");
    assert_eq!(
        after - before,
        0,
        "reliance kernel allocated {} time(s) during a warm pass",
        after - before
    );

    // ---- Part 2c: reading a run copies nothing. On the warm context a
    // run still allocates nothing with a DAG built from the borrowed
    // outcome after each one, and that DAG costs exactly its own
    // allocations — what building it from an owned copy costs, without
    // the copy's two arrays.
    let dag_cfg = {
        ctx.config_mut().excluded_mask_mut(n).fill(false);
        ctx.config().clone()
    };
    let allocs = || process().allocations;
    let (mut run, mut borrowed, mut copy, mut from_copy) = (0u64, 0u64, 0u64, 0u64);
    for &o in &origins {
        let start = allocs();
        let ws = ctx.run(o);
        let ran = allocs();
        let dag = NextHopDag::build(g, &dag_cfg, ws);
        let built = allocs();
        let owned = ws.to_outcome();
        let copied = allocs();
        let dag_of_copy = NextHopDag::build(g, &dag_cfg, &owned);
        let rebuilt = allocs();
        run += ran - start;
        borrowed += built - ran;
        copy += copied - built;
        from_copy += rebuilt - copied;
        assert_same_dag(g, &dag, &dag_of_copy, &format!("origin {o:?}: borrowed vs copied"));
    }
    assert_eq!(run, 0, "runs allocated with borrowed DAG builds between them");
    assert_eq!(borrowed, from_copy, "the borrowed form allocated beyond the DAG's own buffers");
    assert_eq!(copy, 2 * origins.len() as u64, "a copy is the selection and the bitset");

    // ---- Part 2b: a warm lane sweep allocates its own bookkeeping and
    // nothing else, per-lane exclusion refills included — the property
    // that makes the pooled workspaces in `Simulation` worth keeping.
    // One 64-origin block on one thread takes exactly three allocations:
    // the block list, the part list the parallel map returns, and the
    // block's counts, which a one-block sweep hands back as its own.
    // `Counts` keeps `()`, which takes no memory, and the workspace comes
    // warm out of the topology's pool, so a fourth is the kernel's.
    let origins: Vec<NodeId> = g.nodes().take(64).collect();
    let sim = Simulation::over(g).threads(1);
    let lane_pass = || -> u32 {
        let fill = |o: NodeId, ex: &mut flatnet_bgpsim::LaneExcluder<'_>| {
            for &p in g.providers(o) {
                ex.exclude(p);
            }
            ex.allow(o);
        };
        sim.sweep(&origins, fill, Counts).expect("no fill panics").counts.iter().sum()
    };
    let warm = lane_pass();
    let before = process().allocations;
    let again = lane_pass();
    let after = process().allocations;
    assert_eq!(warm, again, "warm lane pass changed results");
    assert_eq!(after - before, 3, "a warm one-block lane sweep allocated {} time(s), not 3", after - before);

    // ---- Part 3: a topology's links are held once. Compiling a snapshot
    // of a graph, or cloning the graph, shares the adjacency the graph
    // already holds: what either allocates is bounded per node (compile:
    // the who-has-customers bitset; clone: a refcount bump) with no term
    // in the link count. A copy of the links alone would be 8 bytes per
    // link.
    let net = generate(&NetGenConfig::paper_2020(50_000, 7));
    let g = &net.truth;
    let (nodes, links) = (g.len() as u64, g.edge_count() as u64);
    assert!(links > 4 * nodes, "{links} links over {nodes} nodes: too sparse to tell the terms apart");
    let bytes = || process().bytes;
    let start = bytes();
    let snap = TopologySnapshot::compile(g);
    let compiled = bytes();
    let twin = g.clone();
    let cloned = bytes();
    assert!(compiled - start < 8 * nodes, "compile allocated {} bytes", compiled - start);
    assert!(cloned - compiled < 8 * nodes, "AsGraph::clone allocated {} bytes", cloned - compiled);
    assert_eq!((g.len(), snap.edge_entries()), (twin.len(), 2 * twin.edge_count()));
}
