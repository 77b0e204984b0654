//! Appendix A: do simulated paths reflect actual (traceroute) paths?
//!
//! For every traceroute that reached its destination AS, resolve its
//! AS-level path and check whether it appears among the simulated paths
//! tied for best when the destination announces over the topology. The
//! paper reports 73.3% (Amazon) to 91.9% (Google) agreement.

use flatnet_asgraph::{AsGraph, AsId, NodeId};
use flatnet_bgpsim::{PropagationConfig, Simulation};
use flatnet_prefixdb::{ResolutionOrder, Resolver};
use flatnet_tracesim::{traceroute_as_path, Campaign};
use std::collections::BTreeMap;

/// Appendix-A agreement stats for one cloud.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathAgreement {
    /// Traceroutes that reached their destination AS and resolved cleanly.
    pub scored: usize,
    /// Of those, how many follow a simulated tied-best path.
    pub matching: usize,
}

impl PathAgreement {
    /// Agreement percentage (0 when nothing scored).
    pub fn pct(&self) -> f64 {
        if self.scored == 0 {
            0.0
        } else {
            100.0 * self.matching as f64 / self.scored as f64
        }
    }
}

/// Scores a campaign's traceroutes against simulated paths on `g` (the
/// graph the simulation used — typically the augmented topology).
///
/// Returns per-cloud agreement. Traces are visited grouped by destination,
/// so the cost is one propagation per distinct destination AS, read in
/// place and kept no longer than its group, plus O(path) per trace.
pub fn validate_paths(
    g: &AsGraph,
    resolver: &Resolver,
    campaign: &Campaign,
    clouds: &[AsId],
) -> BTreeMap<u32, PathAgreement> {
    let mut per_cloud: BTreeMap<u32, PathAgreement> =
        clouds.iter().map(|c| (c.0, PathAgreement { scored: 0, matching: 0 })).collect();
    let cfg = PropagationConfig::default();
    let mut ctx = Simulation::over(g).ctx();
    let traces = &campaign.traces;
    let mut order: Vec<usize> = (0..traces.len()).collect();
    order.sort_by_key(|&i| traces[i].dst_asn);

    for group in order.chunk_by(|&a, &b| traces[a].dst_asn == traces[b].dst_asn) {
        let Some(d) = g.index_of(traces[group[0]].dst_asn) else { continue };
        let ws = ctx.run(d);
        for t in group.iter().map(|&i| &traces[i]) {
            let Some(stats) = per_cloud.get_mut(&t.vp.cloud.0) else { continue };
            let Some(as_path) = traceroute_as_path(t, resolver, ResolutionOrder::PeeringDbFirst)
            else {
                continue;
            };
            // Map to node ids; paths touching unknown ASes can't be scored.
            let Some(node_path) =
                as_path.iter().map(|&a| g.index_of(a)).collect::<Option<Vec<NodeId>>>()
            else {
                continue;
            };
            stats.scored += 1;
            if ws.is_tied_best_path(g, &cfg, &node_path) {
                stats.matching += 1;
            }
        }
    }
    per_cloud
}

#[cfg(test)]
mod tests {
    use super::*;
    use flatnet_netgen::{generate, NetGenConfig};
    use flatnet_tracesim::{run_campaign, CampaignOptions};

    #[test]
    fn truth_graph_agreement_is_high() {
        let mut cfg = NetGenConfig::tiny(42);
        cfg.n_ases = 200;
        let net = generate(&cfg);
        let campaign = run_campaign(
            &net,
            &CampaignOptions { dest_sample: 0.4, max_vps: 2, ..Default::default() },
        );
        let clouds: Vec<AsId> = net.clouds.iter().map(|c| c.asn).collect();
        // Against the *ground-truth* graph (which generated the paths),
        // agreement should be very high — only resolution noise
        // (third-party addresses, collapsed unresponsive hops) misses.
        let agreement = validate_paths(&net.truth, &net.addressing().resolver, &campaign, &clouds);
        for (asn, a) in &agreement {
            assert!(a.scored > 20, "AS{asn} scored only {}", a.scored);
            assert!(a.pct() > 60.0, "AS{asn} agreement {:.1}%", a.pct());
        }
    }

    #[test]
    fn empty_campaign_scores_nothing() {
        let cfg = NetGenConfig::tiny(1);
        let net = generate(&cfg);
        let campaign = Campaign { traces: vec![] };
        let agreement =
            validate_paths(&net.truth, &net.addressing().resolver, &campaign, &[net.clouds[0].asn]);
        assert_eq!(agreement[&net.clouds[0].asn.0].scored, 0);
        assert_eq!(agreement[&net.clouds[0].asn.0].pct(), 0.0);
    }
}
