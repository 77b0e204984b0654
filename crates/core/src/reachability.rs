//! Provider-free, Tier-1-free, and hierarchy-free reachability
//! (§6.1-6.4; Figure 2, Table 1).

use crate::error::FlatnetError;
use flatnet_asgraph::{AsGraph, AsId, NodeId, Tiers};
use flatnet_bgpsim::{Counts, Exclusion, ExclusionPolicy, Simulation};
use flatnet_obs::PhaseTimer;

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

/// One bit-parallel counts sweep of `sweep` under `policy`: the tier
/// exclusions ride the sweep's shared config (broadcast once per kernel
/// block), the origin's providers go in per lane. Fails with the typed
/// exclusion error when `tiers` do not belong to `g`, or with the first
/// origin whose lane panicked.
fn counts_under(
    g: &AsGraph,
    tiers: &Tiers,
    sweep: &[NodeId],
    policy: ExclusionPolicy,
    threads: usize,
) -> Result<Vec<u32>, FlatnetError> {
    let excl = Exclusion::new(g, tiers, policy)?;
    let swept = Simulation::over(g)
        .threads(threads)
        .config(excl.shared_config())
        .sweep(sweep, |o, ex| excl.fill_lane(o, ex), Counts)?;
    Ok(swept.counts)
}

/// Computes the full three-level profile for a list of origins
/// (regenerates Figure 2 when given the clouds + Tier-1s + Tier-2s).
/// Unknown ASNs are skipped. Runs origins in parallel over the available
/// cores. Panics where [`try_reachability_profile_t`] returns an error.
pub fn reachability_profile(g: &AsGraph, tiers: &Tiers, origins: &[AsId]) -> Vec<ReachabilityResult> {
    try_reachability_profile_t(g, tiers, origins, 0).unwrap_or_else(|e| panic!("{e}"))
}

/// [`reachability_profile`] with an explicit worker-thread count
/// (`0` = available parallelism; results are identical for any count)
/// and failures as values: tier sets that do not belong to `g` are a
/// typed [`FlatnetError::Exclusion`], and a worker panic is a
/// [`FlatnetError::Sweep`] naming the offending origin's index among the
/// known `origins`, instead of tearing down the process.
pub fn try_reachability_profile_t(
    g: &AsGraph,
    tiers: &Tiers,
    origins: &[AsId],
    threads: usize,
) -> Result<Vec<ReachabilityResult>, FlatnetError> {
    PhaseTimer::PIPELINE.time("propagate", || {
        let nodes: Vec<(AsId, NodeId)> = origins
            .iter()
            .filter_map(|&a| g.index_of(a).map(|n| (a, n)))
            .collect();
        let sweep: Vec<NodeId> = nodes.iter().map(|&(_, n)| n).collect();
        // One bit-parallel counts sweep per constraint level; the kernel
        // packs up to 256 origins per block, so this is three passes
        // instead of 3·|origins|.
        let level = |policy| counts_under(g, tiers, &sweep, policy, threads);
        let pf = level(ExclusionPolicy::PROVIDER_FREE)?;
        let t1 = level(ExclusionPolicy::TIER1_FREE)?;
        let hf = level(ExclusionPolicy::HIERARCHY_FREE)?;
        Ok(nodes
            .iter()
            .enumerate()
            .map(|(i, &(asn, _))| ReachabilityResult {
                asn,
                provider_free: pf[i] as usize,
                tier1_free: t1[i] as usize,
                hierarchy_free: hf[i] as usize,
                max_possible: g.len() - 1,
            })
            .collect())
    })
}

/// Hierarchy-free reachability of **every** AS in the graph (the paper
/// computes this for Fig. 3 and the Table 1 top-20 ranking). Indexed by
/// node. Parallel; O(V·E) total.
pub fn hierarchy_free_all(g: &AsGraph, tiers: &Tiers) -> Vec<u32> {
    hierarchy_free_all_t(g, tiers, 0)
}

/// [`hierarchy_free_all`] with an explicit worker-thread count
/// (`0` = available parallelism). Results are identical for any count.
/// Panics where [`try_hierarchy_free_all_t`] returns an error.
pub fn hierarchy_free_all_t(g: &AsGraph, tiers: &Tiers, threads: usize) -> Vec<u32> {
    try_hierarchy_free_all_t(g, tiers, threads).unwrap_or_else(|e| panic!("{e}"))
}

/// [`hierarchy_free_all_t`] with failures as values (see
/// [`try_reachability_profile_t`]).
pub fn try_hierarchy_free_all_t(
    g: &AsGraph,
    tiers: &Tiers,
    threads: usize,
) -> Result<Vec<u32>, FlatnetError> {
    PhaseTimer::PIPELINE.time("propagate", || {
        let nodes: Vec<NodeId> = g.nodes().collect();
        counts_under(g, tiers, &nodes, ExclusionPolicy::HIERARCHY_FREE, threads)
    })
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
        ctx: &mut SweepCtx,
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
        Simulation::over(g).run_sweep_map(&sweep, |ctx, n| ReachabilityResult {
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
    fn tiers_of_another_graph_are_a_typed_error_not_a_panic() {
        let (g, _) = fig1();
        // Tiers built against a *larger* graph hold node ids that are out
        // of bounds for `g`; the check runs once, before any sweep.
        let mut b = AsGraphBuilder::new();
        for i in 1..200u32 {
            b.add_link(AsId(1000), AsId(1000 + i), Relationship::P2c);
        }
        let big = b.build();
        let bad_tiers = Tiers::from_lists(&big, &[AsId(1199)], &[]);
        let bad_node = big.index_of(AsId(1199)).unwrap();
        for err in [
            try_hierarchy_free_all_t(&g, &bad_tiers, 0).unwrap_err(),
            try_reachability_profile_t(&g, &bad_tiers, &[AsId(10)], 0).unwrap_err(),
        ] {
            let FlatnetError::Exclusion(e) = &err else { panic!("want an exclusion error: {err}") };
            assert_eq!((e.node, e.graph_len), (bad_node, g.len()));
            assert!(err.to_string().contains("out of range"), "{err}");
        }
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