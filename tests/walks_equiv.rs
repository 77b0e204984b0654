//! Differential test: the shipped walks of tied next hops read each run
//! in place, and must give what walking a materialised [`NextHopDag`]
//! gives — the RIBs `collect_ribs` builds (§4.1) and the per-cloud
//! Appendix-A agreement `validate_paths` scores. The references below are
//! those two functions written over `NextHopDag::build`, one DAG per
//! destination.

use flatnet_asgraph::{AsGraph, AsId, NodeId};
use flatnet_bgpsim::{
    collect_ribs, NextHopDag, PropagationConfig, RibEntry, Simulation,
};
use flatnet_core::path_validation::{validate_paths, PathAgreement};
use flatnet_netgen::{generate, NetGenConfig};
use flatnet_prefixdb::{ResolutionOrder, Resolver};
use flatnet_tracesim::{run_campaign, traceroute_as_path, Campaign, CampaignOptions};
use std::collections::BTreeMap;

/// `collect_ribs` over a DAG per origin: smallest next hop at every step.
fn dag_collect_ribs(g: &AsGraph, monitors: &[NodeId], origins: &[NodeId]) -> Vec<RibEntry> {
    let cfg = PropagationConfig::default();
    let mut ctx = Simulation::over(g).ctx();
    let mut out = Vec::new();
    for &o in origins {
        let dag = NextHopDag::build(g, &cfg, ctx.run(o));
        for &m in monitors {
            if m == o || dag.path_count(m) == 0.0 {
                continue;
            }
            let mut path = vec![g.asn(m)];
            let mut cur = m;
            while cur != o {
                cur = dag.next_hops(cur)[0];
                path.push(g.asn(cur));
            }
            out.push(RibEntry { monitor: g.asn(m), origin: g.asn(o), path });
        }
    }
    out
}

/// `validate_paths` over a cached DAG per destination, membership by
/// binary search in each hop's sorted DAG list.
fn dag_validate_paths(
    g: &AsGraph,
    resolver: &Resolver,
    campaign: &Campaign,
    clouds: &[AsId],
) -> BTreeMap<u32, PathAgreement> {
    let mut per_cloud: BTreeMap<u32, PathAgreement> =
        clouds.iter().map(|c| (c.0, PathAgreement { scored: 0, matching: 0 })).collect();
    let cfg = PropagationConfig::default();
    let mut ctx = Simulation::over(g).ctx();
    let mut dags: BTreeMap<u32, Option<NextHopDag>> = BTreeMap::new();
    for t in &campaign.traces {
        let Some(stats) = per_cloud.get_mut(&t.vp.cloud.0) else { continue };
        let Some(as_path) = traceroute_as_path(t, resolver, ResolutionOrder::PeeringDbFirst) else {
            continue;
        };
        let Some(path) = as_path.iter().map(|&a| g.index_of(a)).collect::<Option<Vec<NodeId>>>()
        else {
            continue;
        };
        let dag = dags.entry(t.dst_asn.0).or_insert_with(|| {
            g.index_of(t.dst_asn).map(|d| NextHopDag::build(g, &cfg, ctx.run(d)))
        });
        let Some(dag) = dag else { continue };
        stats.scored += 1;
        let holds = path.last() == Some(&dag.origin())
            && path.windows(2).all(|w| dag.next_hops(w[0]).binary_search(&w[1]).is_ok());
        if holds {
            stats.matching += 1;
        }
    }
    per_cloud
}

#[test]
fn shipped_walks_match_the_dag_reference() {
    let mut cfg = NetGenConfig::tiny(42);
    cfg.n_ases = 300;
    let net = generate(&cfg);

    // §4.1's RIBs: every node an origin, monitors spread over the index
    // range (Tier-1s, mid-tier, stubs).
    let g = &net.truth;
    let origins: Vec<NodeId> = g.nodes().collect();
    let monitors: Vec<NodeId> = g.nodes().step_by(37).collect();
    assert!(monitors.len() >= 8);
    let ribs = collect_ribs(g, &monitors, &origins);
    assert!(ribs.len() > 7 * origins.len(), "{} RIB entries", ribs.len());
    assert_eq!(ribs, dag_collect_ribs(g, &monitors, &origins));

    // Appendix A: the truth graph generated the traces (high agreement);
    // the public view lacks most cloud peering, so it also scores misses.
    let opts = CampaignOptions { dest_sample: 0.4, max_vps: 2, ..Default::default() };
    let campaign = run_campaign(&net, &opts);
    let clouds: Vec<AsId> = net.clouds.iter().map(|c| c.asn).collect();
    let resolver = &net.addressing().resolver;
    for (view, g) in [("truth", &net.truth), ("public", net.public())] {
        let got = validate_paths(g, resolver, &campaign, &clouds);
        assert_eq!(got, dag_validate_paths(g, resolver, &campaign, &clouds), "{view}");
        let scored: usize = got.values().map(|a| a.scored).sum();
        let matching: usize = got.values().map(|a| a.matching).sum();
        assert!(scored > 100 && matching > 0, "{view}: {matching} of {scored}");
        if view == "public" {
            assert!(matching < scored, "public view matched every trace");
        }
    }
}
