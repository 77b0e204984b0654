//! Cross-crate integration for the supporting substrates: dataset bundles,
//! route aggregation, warts archives, and the generator's structural
//! statistics.

use flatnet_netgen::{generate, stats, NetGenConfig, SyntheticInternet};
use flatnet_prefixdb::aggregate;
use flatnet_tracesim::warts::{parse_warts, write_warts};
use flatnet_tracesim::{run_campaign, CampaignOptions};

fn net() -> SyntheticInternet {
    let mut cfg = NetGenConfig::tiny(42);
    cfg.n_ases = 300;
    generate(&cfg)
}

#[test]
fn dataset_bundle_supports_the_full_analysis_loop() {
    let net = net();
    let dir = std::env::temp_dir().join(format!("flatnet-substrates-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    flatnet_netgen::write_dataset(&net, &dir).unwrap();
    let loaded = flatnet_netgen::load_dataset(&dir).unwrap();

    // Reachability on the loaded truth graph matches in-memory results.
    let truth = loaded.truth.as_ref().unwrap();
    let tiers_disk = loaded.tiers_for(truth);
    let tiers_mem = net.tiers_for(&net.truth);
    let clouds: Vec<_> = net.cloud_providers().map(|c| c.asn).collect();
    let from_disk =
        flatnet_core::reachability::reachability_profile(truth, &tiers_disk, &clouds);
    let in_memory =
        flatnet_core::reachability::reachability_profile(&net.truth, &tiers_mem, &clouds);
    assert_eq!(from_disk, in_memory);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn generated_announcements_survive_aggregation() {
    let net = net();
    let announced = &net.addressing().resolver.announced;
    let agg = aggregate(announced);
    assert!(agg.len() <= announced.len());
    // Spot-check resolution preservation over every AS's origin prefix.
    for n in net.truth.nodes() {
        let asn = net.truth.asn(n);
        if let Some(p) = net.addressing().origin_prefix(asn) {
            let probe = p.addr(p.size() / 2);
            assert_eq!(agg.resolve(probe), announced.resolve(probe), "{asn}");
        }
    }
}

#[test]
fn campaign_budget_and_warts_roundtrip() {
    let net = net();
    let campaign = run_campaign(
        &net,
        &CampaignOptions { dest_sample: 0.3, max_vps: 2, ..Default::default() },
    );
    // Binary archive round-trip of the whole campaign.
    let bytes = write_warts(&campaign.traces);
    let back = parse_warts(&bytes).unwrap();
    assert_eq!(back, campaign.traces);
    // Binary is more compact than the text serialization.
    let text = flatnet_tracesim::scamper::write_traces(&campaign.traces);
    assert!(bytes.len() < text.len());
}

#[test]
fn generator_statistics_hold_at_multiple_scales_and_seeds() {
    for (n, seed) in [(300usize, 1u64), (600, 9)] {
        let mut cfg = NetGenConfig::tiny(seed);
        cfg.n_ases = n;
        let net = generate(&cfg);
        let s = stats::topology_stats(&net.truth, n / 10);
        assert_eq!(s.nodes, n);
        assert!(s.degree_gini > 0.35, "n={n} seed={seed}: gini {}", s.degree_gini);
        assert!(s.stub_fraction > 0.4, "n={n} seed={seed}: stubs {}", s.stub_fraction);
        assert!(s.max_cone_fraction > 0.05, "n={n} seed={seed}: cone {}", s.max_cone_fraction);
        let [t1, _, _, cloud, edge] = stats::mean_degree_by_role(&net);
        assert!(cloud > t1 && t1 > edge, "n={n} seed={seed}: {cloud} {t1} {edge}");
    }
}
