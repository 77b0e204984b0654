//! End-to-end integration: synthetic Internet → traceroute campaign →
//! neighbor inference → augmented topology → reachability experiments.
//!
//! These tests assert the *shape* claims of the paper hold on our
//! synthetic substrate (who wins, orderings, rough factors) — not the
//! absolute numbers, which depend on the authors' datasets.

use flatnet_core::pipeline::{measure, methodology_iterations};
use flatnet_core::reachability::{hierarchy_free_all, rank_by_hierarchy_free, reachability_profile};
use flatnet_netgen::{generate, NetGenConfig, SyntheticInternet};
use flatnet_tracesim::{CampaignOptions, Methodology};

fn net() -> SyntheticInternet {
    generate(&NetGenConfig::paper_2020(600, 42))
}

fn opts() -> CampaignOptions {
    CampaignOptions { dest_sample: 0.5, ..Default::default() }
}

#[test]
fn traceroutes_recover_the_hidden_cloud_peering() {
    let net = net();
    let m = measure(&net, &opts(), &Methodology::final_methodology());
    // §4.1's headline: BGP feeds miss most Google/Microsoft peers; the
    // campaign recovers a multiple of them.
    for name in ["Google", "Microsoft"] {
        let row = m.peer_counts.iter().find(|r| r.name == name).unwrap();
        assert!(
            row.augmented as f64 > 2.0 * row.bgp_only as f64,
            "{name}: augmented {} vs bgp-only {}",
            row.augmented,
            row.bgp_only
        );
    }
    // IBM is mostly visible already: augmentation gains little.
    let ibm = m.peer_counts.iter().find(|r| r.name == "IBM").unwrap();
    assert!(
        (ibm.augmented as f64) < 1.6 * ibm.bgp_only as f64,
        "IBM: augmented {} vs bgp-only {}",
        ibm.augmented,
        ibm.bgp_only
    );
}

#[test]
fn validation_quality_matches_the_papers_band() {
    let net = net();
    let m = measure(&net, &opts(), &Methodology::final_methodology());
    // §5: final methodology lands near 11-15% FDR and ~21% FNR. Allow a
    // generous band around that for the synthetic substrate.
    for cloud in net.cloud_providers() {
        let v = &m.validation[&cloud.asn.0];
        assert!(v.fdr() < 0.25, "{} FDR {:.2}", cloud.spec.name, v.fdr());
        assert!(v.fnr() < 0.60, "{} FNR {:.2}", cloud.spec.name, v.fnr());
        assert!(v.tp > 20, "{} TP {}", cloud.spec.name, v.tp);
    }
}

#[test]
fn methodology_iterations_improve_monotonically_on_fdr() {
    let net = net();
    let stages = methodology_iterations(&net, &opts());
    let mean_fdr = |i: usize| {
        let vs = &stages[i].1;
        vs.values().map(|v| v.fdr()).sum::<f64>() / vs.len() as f64
    };
    let initial = mean_fdr(0);
    let registries = mean_fdr(1);
    let final_ = mean_fdr(2);
    assert!(registries < initial, "registries {registries} vs initial {initial}");
    assert!(final_ <= registries, "final {final_} vs registries {registries}");
    // The initial methodology is drastically worse (the paper saw ~50%).
    assert!(initial > 2.0 * final_, "initial {initial} vs final {final_}");
}

#[test]
fn clouds_rank_among_the_most_hierarchy_independent() {
    let net = net();
    let m = measure(&net, &opts(), &Methodology::final_methodology());
    let g = &m.augmented;
    let tiers = net.tiers_for(g);
    let hfr = hierarchy_free_all(g, &tiers);
    let ranked = rank_by_hierarchy_free(g, &hfr);
    // All four clouds inside the top 40 of ~600 ASes; Google in the top 10.
    let pos = |asn: flatnet_asgraph::AsId| ranked.iter().position(|r| r.asn == asn).unwrap() + 1;
    for cloud in net.cloud_providers() {
        let p = pos(cloud.asn);
        assert!(p <= 40, "{} ranked #{p}", cloud.spec.name);
    }
    let google = net.clouds[0].asn;
    assert!(pos(google) <= 10, "Google ranked #{}", pos(google));
}

#[test]
fn reachability_levels_are_monotone_and_clouds_reach_most_of_the_internet() {
    let net = net();
    let m = measure(&net, &opts(), &Methodology::final_methodology());
    let g = &m.augmented;
    let tiers = net.tiers_for(g);
    let clouds: Vec<_> = net.cloud_providers().map(|c| c.asn).collect();
    let profile = reachability_profile(g, &tiers, &clouds);
    for r in &profile {
        assert!(r.provider_free >= r.tier1_free);
        assert!(r.tier1_free >= r.hierarchy_free);
        // §6.4: every cloud reaches a large majority of the Internet
        // hierarchy-free (the paper: ≥ 75%).
        assert!(
            r.hierarchy_free_pct() > 55.0,
            "{} hierarchy-free only {:.1}%",
            net.name_of(r.asn),
            r.hierarchy_free_pct()
        );
    }
    // Google is the most independent of the four (paper: #3 overall, top
    // cloud).
    let google = profile.iter().find(|r| r.asn == net.clouds[0].asn).unwrap();
    let amazon = profile.iter().find(|r| r.asn == net.clouds[3].asn).unwrap();
    assert!(google.hierarchy_free > amazon.hierarchy_free);
}

#[test]
fn truth_and_augmented_reachability_agree_roughly() {
    // The augmented (measured) topology should put cloud hierarchy-free
    // reachability within a modest band of the ground truth — §5's
    // "between a slight overestimate and a slight underestimate".
    let net = net();
    let m = measure(&net, &opts(), &Methodology::final_methodology());
    let clouds: Vec<_> = net.cloud_providers().map(|c| c.asn).collect();
    let t_truth = net.tiers_for(&net.truth);
    let t_aug = net.tiers_for(&m.augmented);
    let truth = reachability_profile(&net.truth, &t_truth, &clouds);
    let aug = reachability_profile(&m.augmented, &t_aug, &clouds);
    for (t, a) in truth.iter().zip(&aug) {
        assert_eq!(t.asn, a.asn);
        let ratio = a.hierarchy_free as f64 / t.hierarchy_free.max(1) as f64;
        assert!(
            (0.5..=1.3).contains(&ratio),
            "{}: measured {} vs truth {} (ratio {ratio:.2})",
            net.name_of(t.asn),
            a.hierarchy_free,
            t.hierarchy_free
        );
    }
}

#[test]
fn deterministic_end_to_end() {
    let a = measure(&net(), &opts(), &Methodology::final_methodology());
    let b = measure(&net(), &opts(), &Methodology::final_methodology());
    assert_eq!(a.inferred, b.inferred);
    assert!(a.augmented.edges().eq(b.augmented.edges()));
}
