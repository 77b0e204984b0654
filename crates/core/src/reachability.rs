//! Provider-free, Tier-1-free, and hierarchy-free reachability
//! (§6.1-6.4; Figure 2, Table 1).

use crate::parallel::SweepError;
use flatnet_asgraph::{AsGraph, AsId, NodeId, Tiers};
use flatnet_bgpsim::{LaneExcluder, Simulation, TopologySnapshot};
use std::fmt;

/// A worker panic in a fault-isolated reachability sweep, tied back to the
/// origin AS whose computation blew up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPanic {
    /// The origin AS whose worker panicked.
    pub asn: AsId,
    /// The panic payload, downcast to text where possible.
    pub message: String,
}

impl fmt::Display for SweepPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "reachability worker for origin {} panicked: {}", self.asn, self.message)
    }
}

impl std::error::Error for SweepPanic {}

/// The three reachability levels of one origin (Fig. 2's stacked bars).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachabilityResult {
    /// The origin AS.
    pub asn: AsId,
    /// `reach(o, I \ P_o)` — bypassing the origin's transit providers.
    pub provider_free: usize,
    /// `reach(o, I \ P_o \ T1)`.
    pub tier1_free: usize,
    /// `reach(o, I \ P_o \ T1 \ T2)` — the paper's headline metric.
    pub hierarchy_free: usize,
    /// Number of ASes in the topology minus one (the denominator for
    /// percentages; the Tier-1s attain it provider-free).
    pub max_possible: usize,
}

impl ReachabilityResult {
    /// Hierarchy-free reachability as a percentage of the maximum.
    pub fn hierarchy_free_pct(&self) -> f64 {
        100.0 * self.hierarchy_free as f64 / self.max_possible.max(1) as f64
    }

    /// Provider-free reachability as a percentage.
    pub fn provider_free_pct(&self) -> f64 {
        100.0 * self.provider_free as f64 / self.max_possible.max(1) as f64
    }

    /// Tier-1-free reachability as a percentage.
    pub fn tier1_free_pct(&self) -> f64 {
        100.0 * self.tier1_free as f64 / self.max_possible.max(1) as f64
    }
}

/// Shared exclusion mask for one constraint level. The tier sets are
/// origin-independent, so they ride in the simulation's config — the
/// kernel broadcasts them once per 64-lane block instead of re-installing
/// them lane by lane.
fn tier_mask(tiers: &Tiers, include_t2: bool, n: usize) -> Vec<bool> {
    let mut mask = vec![false; n];
    for &t in tiers.tier1() {
        mask[t.idx()] = true;
    }
    if include_t2 {
        for &t in tiers.tier2() {
            mask[t.idx()] = true;
        }
    }
    mask
}

/// Installs the per-origin remainder of the exclusions into a kernel
/// lane: the origin's transit providers, with the origin itself allowed
/// even where the shared tier mask covers it (a Tier-1 computing its
/// Tier-1-free reachability bypasses the *other* clique members).
fn fill_lane_providers(g: &AsGraph, origin: NodeId, ex: &mut LaneExcluder<'_>) {
    for &p in g.providers(origin) {
        ex.exclude(p);
    }
    ex.allow(origin);
}

/// The all-in-lane form [`fill_lane_providers`] + tiers, used by the
/// `try_*` variants only: their contract attributes any fill panic (e.g.
/// a `Tiers` built against a different graph indexing out of bounds) to
/// the offending origin, which requires the tier indexing to happen
/// inside the panic-isolated per-lane fill rather than up front in
/// [`tier_mask`].
fn fill_lane_exclusions(
    g: &AsGraph,
    origin: NodeId,
    tiers: Option<&Tiers>,
    include_t2: bool,
    ex: &mut LaneExcluder<'_>,
) {
    for &p in g.providers(origin) {
        ex.exclude(p);
    }
    if let Some(t) = tiers {
        for &n in t.tier1() {
            ex.exclude(n);
        }
        if include_t2 {
            for &n in t.tier2() {
                ex.exclude(n);
            }
        }
    }
    ex.allow(origin);
}

/// Computes the full three-level profile for a list of origins
/// (regenerates Figure 2 when given the clouds + Tier-1s + Tier-2s).
/// Unknown ASNs are skipped. Runs origins in parallel over the available
/// cores; use [`reachability_profile_t`] to pick the thread count.
pub fn reachability_profile(g: &AsGraph, tiers: &Tiers, origins: &[AsId]) -> Vec<ReachabilityResult> {
    reachability_profile_t(g, tiers, origins, 0)
}

/// [`reachability_profile`] with an explicit worker-thread count
/// (`0` = available parallelism). Results are identical for any count.
pub fn reachability_profile_t(
    g: &AsGraph,
    tiers: &Tiers,
    origins: &[AsId],
    threads: usize,
) -> Vec<ReachabilityResult> {
    let _span = flatnet_obs::span_root("propagate");
    let nodes: Vec<(AsId, NodeId)> = origins
        .iter()
        .filter_map(|&a| g.index_of(a).map(|n| (a, n)))
        .collect();
    let sweep: Vec<NodeId> = nodes.iter().map(|&(_, n)| n).collect();
    let snap = TopologySnapshot::compile(g);
    // One bit-parallel counts sweep per constraint level; the kernel packs
    // 64 origins per block, so this is three passes instead of 3·|origins|.
    // Each level's tier exclusions are shared config, not per-lane fills.
    let pf = Simulation::over(&snap)
        .threads(threads)
        .run_sweep_reach_counts_with(&sweep, |n, ex| fill_lane_providers(g, n, ex));
    let t1 = Simulation::over(&snap)
        .threads(threads)
        .excluded(tier_mask(tiers, false, g.len()))
        .run_sweep_reach_counts_with(&sweep, |n, ex| fill_lane_providers(g, n, ex));
    let hf = Simulation::over(&snap)
        .threads(threads)
        .excluded(tier_mask(tiers, true, g.len()))
        .run_sweep_reach_counts_with(&sweep, |n, ex| fill_lane_providers(g, n, ex));
    nodes
        .iter()
        .enumerate()
        .map(|(i, &(asn, _))| ReachabilityResult {
            asn,
            provider_free: pf[i] as usize,
            tier1_free: t1[i] as usize,
            hierarchy_free: hf[i] as usize,
            max_possible: g.len() - 1,
        })
        .collect()
}

/// [`reachability_profile`] with panic isolation: a worker panic aborts
/// the sweep with the offending origin's ASN and the panic message instead
/// of tearing down the process.
pub fn try_reachability_profile(
    g: &AsGraph,
    tiers: &Tiers,
    origins: &[AsId],
) -> Result<Vec<ReachabilityResult>, SweepPanic> {
    try_reachability_profile_t(g, tiers, origins, 0)
}

/// [`try_reachability_profile`] with an explicit worker-thread count.
pub fn try_reachability_profile_t(
    g: &AsGraph,
    tiers: &Tiers,
    origins: &[AsId],
    threads: usize,
) -> Result<Vec<ReachabilityResult>, SweepPanic> {
    let _span = flatnet_obs::span_root("propagate");
    let nodes: Vec<(AsId, NodeId)> = origins
        .iter()
        .filter_map(|&a| g.index_of(a).map(|n| (a, n)))
        .collect();
    let sweep: Vec<NodeId> = nodes.iter().map(|&(_, n)| n).collect();
    let snap = TopologySnapshot::compile(g);
    let sim = Simulation::over(&snap).threads(threads);
    let pf = sim.try_run_sweep_reach_counts_with(&sweep, |n, ex| {
        fill_lane_exclusions(g, n, None, false, ex);
    });
    let t1 = sim.try_run_sweep_reach_counts_with(&sweep, |n, ex| {
        fill_lane_exclusions(g, n, Some(tiers), false, ex);
    });
    let hf = sim.try_run_sweep_reach_counts_with(&sweep, |n, ex| {
        fill_lane_exclusions(g, n, Some(tiers), true, ex);
    });
    let mut out = Vec::with_capacity(nodes.len());
    // Scan origins in sweep order so the reported panic is the first
    // failing origin (checking its three levels in level order), matching
    // the per-origin scalar sweep's attribution.
    for (i, &(asn, _)) in nodes.iter().enumerate() {
        let level = |r: &Result<u32, SweepError>| -> Result<usize, SweepPanic> {
            match r {
                Ok(v) => Ok(*v as usize),
                Err(e) => Err(SweepPanic { asn, message: e.message.clone() }),
            }
        };
        out.push(ReachabilityResult {
            asn,
            provider_free: level(&pf[i])?,
            tier1_free: level(&t1[i])?,
            hierarchy_free: level(&hf[i])?,
            max_possible: g.len() - 1,
        });
    }
    Ok(out)
}

/// Hierarchy-free reachability of **every** AS in the graph (the paper
/// computes this for Fig. 3 and the Table 1 top-20 ranking). Indexed by
/// node. Parallel; O(V·E) total.
pub fn hierarchy_free_all(g: &AsGraph, tiers: &Tiers) -> Vec<u32> {
    hierarchy_free_all_t(g, tiers, 0)
}

/// [`hierarchy_free_all`] with an explicit worker-thread count
/// (`0` = available parallelism). Results are identical for any count.
pub fn hierarchy_free_all_t(g: &AsGraph, tiers: &Tiers, threads: usize) -> Vec<u32> {
    let _span = flatnet_obs::span_root("propagate");
    let nodes: Vec<NodeId> = g.nodes().collect();
    let snap = TopologySnapshot::compile(g);
    Simulation::over(&snap)
        .threads(threads)
        .excluded(tier_mask(tiers, true, g.len()))
        .run_sweep_reach_counts_with(&nodes, |n, ex| fill_lane_providers(g, n, ex))
}

/// [`hierarchy_free_all`] with panic isolation (see
/// [`try_reachability_profile`]).
pub fn try_hierarchy_free_all(g: &AsGraph, tiers: &Tiers) -> Result<Vec<u32>, SweepPanic> {
    try_hierarchy_free_all_t(g, tiers, 0)
}

/// [`try_hierarchy_free_all`] with an explicit worker-thread count.
pub fn try_hierarchy_free_all_t(
    g: &AsGraph,
    tiers: &Tiers,
    threads: usize,
) -> Result<Vec<u32>, SweepPanic> {
    let _span = flatnet_obs::span_root("propagate");
    let nodes: Vec<NodeId> = g.nodes().collect();
    let snap = TopologySnapshot::compile(g);
    let results = Simulation::over(&snap).threads(threads).try_run_sweep_reach_counts_with(
        &nodes,
        |n, ex| {
            fill_lane_exclusions(g, n, Some(tiers), true, ex);
        },
    );
    collect_sweep(results, |i| g.asn(nodes[i]))
}

/// Collects per-item sweep results, converting the first failure into a
/// [`SweepPanic`] naming the origin the item index maps to.
fn collect_sweep<R>(
    results: Vec<Result<R, SweepError>>,
    origin_of: impl Fn(usize) -> AsId,
) -> Result<Vec<R>, SweepPanic> {
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        match r {
            Ok(v) => out.push(v),
            Err(e) => return Err(SweepPanic { asn: origin_of(e.index), message: e.message }),
        }
    }
    Ok(out)
}

/// One row of Table 1: an AS ranked by hierarchy-free reachability.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedAs {
    /// 1-based rank.
    pub rank: usize,
    /// The AS.
    pub asn: AsId,
    /// Hierarchy-free reachability (AS count).
    pub reach: u32,
    /// As a percentage of all other ASes.
    pub pct: f64,
}

/// Ranks all ASes by hierarchy-free reachability, descending, ASN
/// ascending on ties (Table 1's ordering).
pub fn rank_by_hierarchy_free(g: &AsGraph, hfr: &[u32]) -> Vec<RankedAs> {
    let mut order: Vec<NodeId> = g.nodes().collect();
    order.sort_by_key(|&n| (std::cmp::Reverse(hfr[n.idx()]), g.asn(n)));
    let denom = (g.len() - 1).max(1) as f64;
    order
        .into_iter()
        .enumerate()
        .map(|(i, n)| RankedAs {
            rank: i + 1,
            asn: g.asn(n),
            reach: hfr[n.idx()],
            pct: 100.0 * hfr[n.idx()] as f64 / denom,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flatnet_asgraph::{AsGraphBuilder, Relationship};
    use flatnet_bgpsim::SweepCtx;

    /// The pre-kernel scalar path: refill a boolean exclusion mask and run
    /// one origin through the per-origin engine. Kept as the reference the
    /// bit-parallel sweep must agree with.
    fn scalar_reach(
        ctx: &mut SweepCtx<'_>,
        g: &AsGraph,
        origin: NodeId,
        tiers: Option<&Tiers>,
        include_t2: bool,
    ) -> usize {
        let mask = ctx.config_mut().excluded_mask_mut(g.len());
        mask.fill(false);
        for &p in g.providers(origin) {
            mask[p.idx()] = true;
        }
        if let Some(t) = tiers {
            for &n in t.tier1() {
                mask[n.idx()] = true;
            }
            if include_t2 {
                for &n in t.tier2() {
                    mask[n.idx()] = true;
                }
            }
        }
        mask[origin.idx()] = false;
        ctx.run(origin).reachable_count()
    }

    fn scalar_profile(g: &AsGraph, tiers: &Tiers, origins: &[AsId]) -> Vec<ReachabilityResult> {
        let nodes: Vec<(AsId, NodeId)> =
            origins.iter().filter_map(|&a| g.index_of(a).map(|n| (a, n))).collect();
        let sweep: Vec<NodeId> = nodes.iter().map(|&(_, n)| n).collect();
        let snap = TopologySnapshot::compile(g);
        Simulation::over(&snap).run_sweep_map(&sweep, |ctx, n| ReachabilityResult {
            asn: g.asn(n),
            provider_free: scalar_reach(ctx, g, n, None, false),
            tier1_free: scalar_reach(ctx, g, n, Some(tiers), false),
            hierarchy_free: scalar_reach(ctx, g, n, Some(tiers), true),
            max_possible: g.len() - 1,
        })
    }

    #[test]
    fn kernel_profile_matches_scalar_engine() {
        let (g, tiers) = fig1();
        let origins: Vec<AsId> = g.asns().collect();
        assert_eq!(reachability_profile(&g, &tiers, &origins), scalar_profile(&g, &tiers, &origins));
    }

    /// The Fig. 1-style example from the bgpsim tests: cloud 10, provider
    /// 1 (Tier-1), Tier-1 2 (customer 20), Tier-2 3 (customer 30), user
    /// ISPs 40, 50, and 60 (only reachable via the provider).
    fn fig1() -> (AsGraph, Tiers) {
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(1), AsId(10), Relationship::P2c);
        b.add_link(AsId(1), AsId(60), Relationship::P2c);
        b.add_link(AsId(1), AsId(2), Relationship::P2p);
        b.add_link(AsId(2), AsId(3), Relationship::P2c);
        b.add_link(AsId(2), AsId(20), Relationship::P2c);
        b.add_link(AsId(3), AsId(30), Relationship::P2c);
        b.add_link(AsId(10), AsId(2), Relationship::P2p);
        b.add_link(AsId(10), AsId(3), Relationship::P2p);
        b.add_link(AsId(10), AsId(40), Relationship::P2p);
        b.add_link(AsId(10), AsId(50), Relationship::P2p);
        let g = b.build();
        let tiers = Tiers::from_lists(&g, &[AsId(1), AsId(2)], &[AsId(3)]);
        (g, tiers)
    }

    #[test]
    fn profile_matches_hand_counts() {
        let (g, tiers) = fig1();
        let prof = reachability_profile(&g, &tiers, &[AsId(10)]);
        assert_eq!(prof.len(), 1);
        let r = &prof[0];
        // Provider-free: 2, 3, 40, 50, 20, 30 (not 1, not 60).
        assert_eq!(r.provider_free, 6);
        // Tier-1-free (also drop 2): 3, 30, 40, 50.
        assert_eq!(r.tier1_free, 4);
        // Hierarchy-free (also drop 3): 40, 50.
        assert_eq!(r.hierarchy_free, 2);
        assert_eq!(r.max_possible, 8);
        assert!((r.hierarchy_free_pct() - 25.0).abs() < 1e-9);
        assert!(r.provider_free_pct() > r.tier1_free_pct());
    }

    #[test]
    fn tier1_origin_is_not_excluded_from_its_own_run() {
        let (g, tiers) = fig1();
        let prof = reachability_profile(&g, &tiers, &[AsId(2)]);
        let r = &prof[0];
        // AS 2 has no providers. Provider-free: customers 3, 20 (+30),
        // peers 1, 10, and 1's customer 60 — but NOT 40/50: AS 10 learned
        // the route from a peer and only exports peer-learned routes to
        // customers, of which it has none.
        assert_eq!(r.provider_free, 6);
        // Tier-1-free: drop AS 1 (but NOT the origin itself). AS 2 reaches
        // its customers 3, 20 (+30), and peer 10. Not 40/50 (10 learned
        // from peer, exports only to customers... 10 has no customers), not 60.
        assert_eq!(r.tier1_free, 4);
        // Hierarchy-free: additionally drop 3 => 20, 10.
        assert_eq!(r.hierarchy_free, 2);
    }

    #[test]
    fn unknown_origins_are_skipped() {
        let (g, tiers) = fig1();
        let prof = reachability_profile(&g, &tiers, &[AsId(99999), AsId(10)]);
        assert_eq!(prof.len(), 1);
        assert_eq!(prof[0].asn, AsId(10));
    }

    #[test]
    fn hierarchy_free_all_agrees_with_profile() {
        let (g, tiers) = fig1();
        let all = hierarchy_free_all(&g, &tiers);
        let prof = reachability_profile(&g, &tiers, &[AsId(10), AsId(2), AsId(40)]);
        for r in &prof {
            let n = g.index_of(r.asn).unwrap();
            assert_eq!(all[n.idx()] as usize, r.hierarchy_free, "{}", r.asn);
        }
    }

    #[test]
    fn ranking_is_descending_and_stable() {
        let (g, tiers) = fig1();
        let all = hierarchy_free_all(&g, &tiers);
        let ranked = rank_by_hierarchy_free(&g, &all);
        assert_eq!(ranked.len(), g.len());
        for w in ranked.windows(2) {
            assert!(w[0].reach >= w[1].reach);
            if w[0].reach == w[1].reach {
                assert!(w[0].asn < w[1].asn);
            }
        }
        assert_eq!(ranked[0].rank, 1);
    }

    mod prop {
        use super::*;
        use flatnet_asgraph::AsGraphBuilder;
        use proptest::prelude::*;

        /// Random acyclic relationship graphs with random tier picks.
        fn arb_case() -> impl Strategy<Value = (AsGraph, Vec<AsId>, Vec<AsId>)> {
            proptest::collection::vec((0u32..12, 0u32..12, 0u8..2), 4..40).prop_map(|links| {
                let mut b = AsGraphBuilder::new();
                for (a, c, r) in &links {
                    if a == c {
                        continue;
                    }
                    if *r == 1 {
                        b.add_link(AsId(*a), AsId(*c), Relationship::P2p);
                    } else {
                        b.add_link(AsId(*a.min(c)), AsId(*a.max(c)), Relationship::P2c);
                    }
                }
                b.add_isolated(AsId(99));
                let g = b.build();
                // Tier picks: lowest-ASN transit-free ASes as "T1", next
                // two ASes as "T2".
                let t1: Vec<AsId> = g.transit_free().iter().take(2).map(|&n| g.asn(n)).collect();
                let t2: Vec<AsId> = g.asns().filter(|a| !t1.contains(a)).take(2).collect();
                (g, t1, t2)
            })
        }

        proptest! {
            /// The paper's three constraint levels are nested subgraphs, so
            /// reachability can only shrink at each level — for EVERY
            /// origin, not just the hand-built examples.
            #[test]
            fn levels_are_monotone_for_every_origin((g, t1, t2) in arb_case()) {
                let tiers = Tiers::from_lists(&g, &t1, &t2);
                let origins: Vec<AsId> = g.asns().collect();
                for r in reachability_profile(&g, &tiers, &origins) {
                    prop_assert!(r.provider_free >= r.tier1_free, "{:?}", r);
                    prop_assert!(r.tier1_free >= r.hierarchy_free, "{:?}", r);
                }
            }

            /// The bit-parallel kernel sweep agrees with the per-origin
            /// scalar engine under arbitrary topologies and tier choices.
            #[test]
            fn kernel_matches_scalar_on_arbitrary_graphs((g, t1, t2) in arb_case()) {
                let tiers = Tiers::from_lists(&g, &t1, &t2);
                let origins: Vec<AsId> = g.asns().collect();
                prop_assert_eq!(
                    reachability_profile(&g, &tiers, &origins),
                    scalar_profile(&g, &tiers, &origins)
                );
            }

            /// hierarchy_free_all agrees with per-origin profiles under
            /// arbitrary tier choices.
            #[test]
            fn bulk_matches_individual((g, t1, t2) in arb_case()) {
                let tiers = Tiers::from_lists(&g, &t1, &t2);
                let all = hierarchy_free_all(&g, &tiers);
                let origins: Vec<AsId> = g.asns().collect();
                for r in reachability_profile(&g, &tiers, &origins) {
                    let n = g.index_of(r.asn).unwrap();
                    prop_assert_eq!(all[n.idx()] as usize, r.hierarchy_free);
                }
            }
        }
    }

    #[test]
    fn try_variants_agree_with_plain_ones() {
        let (g, tiers) = fig1();
        assert_eq!(try_hierarchy_free_all(&g, &tiers).unwrap(), hierarchy_free_all(&g, &tiers));
        let origins = [AsId(10), AsId(2)];
        assert_eq!(
            try_reachability_profile(&g, &tiers, &origins).unwrap(),
            reachability_profile(&g, &tiers, &origins)
        );
    }

    #[test]
    fn sweep_panic_names_the_offending_origin() {
        let (g, _) = fig1();
        // Tiers built against a *larger* graph hold node ids that are out
        // of bounds for `g`, so every worker panics on the mask indexing;
        // the reported origin must be the first swept AS.
        let mut b = AsGraphBuilder::new();
        for i in 1..200u32 {
            b.add_link(AsId(1000), AsId(1000 + i), Relationship::P2c);
        }
        let big = b.build();
        let bad_tiers = Tiers::from_lists(&big, &[AsId(1199)], &[]);
        let err = try_hierarchy_free_all(&g, &bad_tiers).unwrap_err();
        assert_eq!(err.asn, g.asn(g.nodes().next().unwrap()));
        assert!(err.message.contains("index out of bounds"), "{err}");
        assert!(err.to_string().contains(&format!("origin {}", err.asn)), "{err}");
    }

    #[test]
    fn stub_origin_still_counts_direct_peers() {
        let (g, tiers) = fig1();
        let prof = reachability_profile(&g, &tiers, &[AsId(40)]);
        // 40's only link is a peering with 10; 10 exports a peer route to
        // nobody (no customers): hierarchy-free = 1 (just 10).
        assert_eq!(prof[0].hierarchy_free, 1);
    }
}