//! Path-change detection across repeated campaigns (§4.1's supplemental
//! traceroutes).
//!
//! The paper complements its full sweeps with "smaller sets of
//! supplemental traceroutes to look for path changes by selecting one
//! prefix originated by each AS". Given two campaigns over the same
//! vantage points and destinations (e.g. different measurement days —
//! here, different engine seeds), this module reports how many
//! (VP, destination) pairs changed their AS-level path, per cloud.
//!
//! Path changes matter to the methodology: a changing path exposes
//! *additional* neighbors over time (lowering FNR), which is why the
//! paper kept measuring.

use crate::engine::Campaign;
use crate::inference::traceroute_as_path;
use flatnet_asgraph::AsId;
use flatnet_prefixdb::{ResolutionOrder, Resolver};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Per-cloud path-change statistics between two campaigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PathChangeStats {
    /// (VP, destination) pairs present and resolvable in both campaigns.
    pub compared: usize,
    /// Of those, pairs whose AS-level path differs.
    pub changed: usize,
}

impl PathChangeStats {
    /// Fraction of compared pairs that changed (0 when nothing compared).
    pub fn change_rate(&self) -> f64 {
        if self.compared == 0 {
            0.0
        } else {
            self.changed as f64 / self.compared as f64
        }
    }
}

type PairKey = (u32, usize, Ipv4Addr);

fn index_paths(
    campaign: &Campaign,
    resolver: &Resolver,
) -> BTreeMap<PairKey, Vec<AsId>> {
    let mut out = BTreeMap::new();
    for t in &campaign.traces {
        if let Some(path) = traceroute_as_path(t, resolver, ResolutionOrder::PeeringDbFirst) {
            out.insert((t.vp.cloud.0, t.vp.city, t.dst), path);
        }
    }
    out
}

/// Compares two campaigns' AS-level paths pairwise, reporting per-cloud
/// change statistics (keyed by cloud ASN).
pub fn path_changes(
    before: &Campaign,
    after: &Campaign,
    resolver: &Resolver,
) -> BTreeMap<u32, PathChangeStats> {
    let a = index_paths(before, resolver);
    let b = index_paths(after, resolver);
    let mut stats: BTreeMap<u32, PathChangeStats> = BTreeMap::new();
    for (key, path_a) in &a {
        let Some(path_b) = b.get(key) else { continue };
        let s = stats.entry(key.0).or_default();
        s.compared += 1;
        if path_a != path_b {
            s.changed += 1;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_campaign, CampaignOptions};
    use flatnet_netgen::{generate, NetGenConfig};

    #[test]
    fn identical_campaigns_show_no_changes() {
        let mut cfg = NetGenConfig::tiny(42);
        cfg.n_ases = 200;
        let net = generate(&cfg);
        let opts = CampaignOptions { dest_sample: 0.3, max_vps: 2, ..Default::default() };
        let a = run_campaign(&net, &opts);
        let b = run_campaign(&net, &opts);
        let stats = path_changes(&a, &b, &net.addressing().resolver);
        let total: usize = stats.values().map(|s| s.compared).sum();
        assert!(total > 100);
        for (asn, s) in &stats {
            assert_eq!(s.changed, 0, "AS{asn} changed {}/{}", s.changed, s.compared);
            assert_eq!(s.change_rate(), 0.0);
        }
    }

    #[test]
    fn different_seeds_change_some_paths() {
        let mut cfg = NetGenConfig::tiny(42);
        cfg.n_ases = 200;
        let net = generate(&cfg);
        let a = run_campaign(
            &net,
            &CampaignOptions { seed: 1, dest_sample: 1.0, max_vps: 3, ..Default::default() },
        );
        let b = run_campaign(
            &net,
            &CampaignOptions { seed: 2, dest_sample: 1.0, max_vps: 3, ..Default::default() },
        );
        let stats = path_changes(&a, &b, &net.addressing().resolver);
        let compared: usize = stats.values().map(|s| s.compared).sum();
        let changed: usize = stats.values().map(|s| s.changed).sum();
        assert!(compared > 500);
        // Tied-best diversity + different tie-breaks => some but not all
        // paths move (the effect the supplemental traceroutes look for).
        assert!(changed > 0, "no path changes at all");
        assert!(
            (changed as f64) < 0.8 * compared as f64,
            "nearly everything changed ({changed}/{compared})"
        );
    }

    #[test]
    fn empty_campaigns() {
        let net = generate(&NetGenConfig::tiny(1));
        let empty = Campaign { traces: vec![] };
        let stats = path_changes(&empty, &empty, &net.addressing().resolver);
        assert!(stats.is_empty());
    }
}
