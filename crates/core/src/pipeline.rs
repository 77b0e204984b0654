//! The end-to-end measurement pipeline (§4.1 + §5): traceroute campaign →
//! neighbor inference → topology augmentation → validation.
//!
//! This is the glue that turns the synthetic Internet's *BGP-feed view*
//! plus a traceroute campaign into the *augmented* topology every §6-§8
//! experiment runs on — exactly the paper's data flow.

use flatnet_asgraph::{augment_many, AsGraph, AsId, AugmentReport};
use flatnet_netgen::SyntheticInternet;
use flatnet_obs::PhaseTimer;
use flatnet_tracesim::{
    infer_neighbors, run_campaign, validate_neighbors, Campaign, CampaignOptions, Methodology,
    ValidationReport,
};
use std::collections::{BTreeMap, BTreeSet};

/// Per-cloud peer counts, CAIDA-only vs CAIDA+traceroutes (§4.1's
/// "333 vs. 1,389 peers for Amazon, ..." comparison).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerCountRow {
    /// Cloud name.
    pub name: String,
    /// Cloud ASN.
    pub asn: u32,
    /// Neighbors visible in the BGP-feed view alone.
    pub bgp_only: usize,
    /// Neighbors after augmenting with traceroute inferences.
    pub augmented: usize,
    /// Ground-truth neighbor count (unknowable in the real world).
    pub truth: usize,
}

/// The measured topology and everything that went into it.
#[derive(Debug, Clone)]
pub struct Measured {
    /// The traceroute campaign.
    pub campaign: Campaign,
    /// Inferred neighbor set per cloud ASN.
    pub inferred: BTreeMap<u32, BTreeSet<AsId>>,
    /// The BGP-feed topology augmented with the inferred cloud peerings.
    pub augmented: AsGraph,
    /// Per-cloud augmentation reports (in `net.clouds` order).
    pub augment_reports: Vec<AugmentReport>,
    /// §5-style validation against ground truth, per cloud ASN.
    pub validation: BTreeMap<u32, ValidationReport>,
    /// §4.1's peer-count comparison rows (in `net.clouds` order).
    pub peer_counts: Vec<PeerCountRow>,
}

/// Ground-truth neighbor set of a cloud (peers + providers).
pub fn true_neighbors(net: &SyntheticInternet, cloud_idx: usize) -> BTreeSet<AsId> {
    let c = &net.clouds[cloud_idx];
    let mut set: BTreeSet<AsId> = c.true_peers().into_iter().collect();
    set.extend(c.providers.iter().copied());
    set
}

/// Runs the full §4.1/§5 pipeline over a synthetic Internet, timed as
/// the `measure` pipeline phase around its `campaign`, `infer` and
/// `augment` steps.
pub fn measure(net: &SyntheticInternet, opts: &CampaignOptions, methodology: &Methodology) -> Measured {
    PhaseTimer::PIPELINE.time("measure", || measure_steps(net, opts, methodology))
}

fn measure_steps(net: &SyntheticInternet, opts: &CampaignOptions, methodology: &Methodology) -> Measured {
    let phases = PhaseTimer::PIPELINE;
    let campaign = phases.time("campaign", || run_campaign(net, opts));
    let mut inferred = BTreeMap::new();
    let mut validation = BTreeMap::new();
    let mut peer_counts = Vec::new();
    let mut augment_sets = Vec::new();
    phases.time("infer", || {
        for (ci, cloud) in net.clouds.iter().enumerate() {
            let neighbors = infer_neighbors(
                campaign.for_cloud(cloud.asn),
                &net.addressing().resolver,
                methodology,
                cloud.asn,
            );
            let truth = true_neighbors(net, ci);
            validation.insert(cloud.asn.0, validate_neighbors(&neighbors, &truth));
            augment_sets.push((cloud.asn, neighbors.iter().copied().collect::<Vec<_>>()));
            inferred.insert(cloud.asn.0, neighbors);
        }
    });
    let (augmented, augment_reports) =
        phases.time("augment", || augment_many(net.public(), &augment_sets));
    for (ci, cloud) in net.clouds.iter().enumerate() {
        let bgp_only = net
            .public()
            .index_of(cloud.asn)
            .map(|n| net.public().degree(n))
            .unwrap_or(0);
        let after = augmented
            .index_of(cloud.asn)
            .map(|n| augmented.degree(n))
            .unwrap_or(0);
        peer_counts.push(PeerCountRow {
            name: cloud.spec.name.clone(),
            asn: cloud.asn.0,
            bgp_only,
            augmented: after,
            truth: true_neighbors(net, ci).len(),
        });
    }
    Measured { campaign, inferred, augmented, augment_reports, validation, peer_counts }
}

/// Runs the §5 methodology-iteration study: the same campaign scored under
/// the three methodology stages, in order. Returns (stage name, per-cloud
/// validation) tuples.
pub fn methodology_iterations(
    net: &SyntheticInternet,
    opts: &CampaignOptions,
) -> Vec<(&'static str, BTreeMap<u32, ValidationReport>)> {
    let campaign = run_campaign(net, opts);
    let stages: [(&'static str, Methodology); 3] = [
        ("initial (cymru-only, assume-direct)", Methodology::initial()),
        ("discard-unknown + registries", Methodology::with_registries()),
        ("final (PeeringDB-first)", Methodology::final_methodology()),
    ];
    stages
        .iter()
        .map(|(name, m)| {
            let mut per_cloud = BTreeMap::new();
            for (ci, cloud) in net.clouds.iter().enumerate() {
                let neighbors =
                    infer_neighbors(campaign.for_cloud(cloud.asn), &net.addressing().resolver, m, cloud.asn);
                per_cloud.insert(cloud.asn.0, validate_neighbors(&neighbors, &true_neighbors(net, ci)));
            }
            (*name, per_cloud)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flatnet_netgen::{generate, NetGenConfig};

    fn net() -> SyntheticInternet {
        let mut cfg = NetGenConfig::tiny(42);
        cfg.n_ases = 250;
        generate(&cfg)
    }

    fn opts() -> CampaignOptions {
        CampaignOptions { dest_sample: 0.6, max_vps: 4, ..Default::default() }
    }

    #[test]
    fn pipeline_augments_the_public_view() {
        let net = net();
        let m = measure(&net, &opts(), &Methodology::final_methodology());
        // Augmentation must add links for the poorly-visible clouds.
        let google = &m.peer_counts[0];
        assert!(google.augmented > google.bgp_only, "{:?}", google);
        assert!(m.augmented.edge_count() > net.public().edge_count());
        // And inferred sets should be mostly correct.
        let v = &m.validation[&net.clouds[0].asn.0];
        assert!(v.fdr() < 0.3, "google FDR {}", v.fdr());
        assert!(v.fnr() < 0.7, "google FNR {}", v.fnr());
    }

    #[test]
    fn final_methodology_beats_initial_on_fdr() {
        let net = net();
        let stages = methodology_iterations(&net, &opts());
        assert_eq!(stages.len(), 3);
        let fdr_of = |stage: &BTreeMap<u32, ValidationReport>| {
            let mut sum = 0.0;
            for v in stage.values() {
                sum += v.fdr();
            }
            sum / stage.len() as f64
        };
        let initial = fdr_of(&stages[0].1);
        let final_ = fdr_of(&stages[2].1);
        assert!(
            final_ < initial,
            "final FDR {final_} should improve on initial {initial}"
        );
    }

    #[test]
    fn augmentation_adds_at_most_a_few_ixp_ases() {
        let net = net();
        let m = measure(&net, &opts(), &Methodology::final_methodology());
        // Most inferred neighbors are existing ASes; a handful of false
        // positives resolve to IXP route-server ASes (64600+), which are
        // new nodes — exactly what would happen with real CAIDA data.
        assert!(m.augmented.len() >= net.public().len());
        let growth = m.augmented.len() - net.public().len();
        assert!(growth <= net.addressing().ixps.len(), "grew by {growth}");
        for n in m.augmented.nodes() {
            let asn = m.augmented.asn(n);
            if net.public().index_of(asn).is_none() {
                assert!((64_600..64_700).contains(&asn.0), "unexpected new node {asn}");
            }
        }
    }

    #[test]
    fn peer_counts_are_consistent() {
        let net = net();
        let m = measure(&net, &opts(), &Methodology::final_methodology());
        assert_eq!(m.peer_counts.len(), net.clouds.len());
        for row in &m.peer_counts {
            assert!(row.augmented >= row.bgp_only, "{:?}", row);
            assert!(row.truth > 0);
        }
    }
}
