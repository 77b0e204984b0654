//! Cross-crate format and dataset plumbing: CAIDA serialization of
//! generated topologies, scamper round-trips of full campaigns, Appendix A
//! path validation, Appendix D geolocation over the synthetic world, and a
//! malformed-input corpus exercising strict vs lenient ingestion.

use flatnet_asgraph::caida::{
    parse_serial1, parse_serial2, parse_serial2_with, write_serial1, write_serial2,
};
use flatnet_asgraph::graph::{AsGraphBuilder, Relationship};
use flatnet_asgraph::ingest::{ParseOptions, RecordLocation};
use flatnet_asgraph::AsId;
use flatnet_core::path_validation::validate_paths;
use flatnet_geo::geolocate::{fiber_rtt_ms, geolocate};
use flatnet_netgen::{generate, NetGenConfig, SyntheticInternet};
use flatnet_tracesim::scamper::{parse_traces, parse_traces_with, write_traces};
use flatnet_tracesim::{run_campaign, CampaignOptions};

fn net() -> SyntheticInternet {
    let mut cfg = NetGenConfig::tiny(42);
    cfg.n_ases = 300;
    generate(&cfg)
}

#[test]
fn generated_topologies_roundtrip_through_caida_formats() {
    let net = net();
    for g in [&net.truth, net.public()] {
        let text1 = write_serial1(g);
        let back1 = parse_serial1(text1.as_bytes()).unwrap().build();
        assert_eq!(back1.edge_count(), g.edge_count());
        let text2 = write_serial2(g);
        let back2 = parse_serial2(text2.as_bytes()).unwrap().build();
        assert!(back2.edges().eq(back1.edges()));
        // Relationship annotations survive.
        for (x, y, rel) in g.edges() {
            let a = back1.index_of(g.asn(x)).unwrap();
            let b = back1.index_of(g.asn(y)).unwrap();
            let kind = back1.kind_between(a, b).unwrap();
            match rel {
                flatnet_asgraph::Relationship::P2c => {
                    assert_eq!(kind, flatnet_asgraph::graph::NeighborKind::Customer)
                }
                flatnet_asgraph::Relationship::P2p => {
                    assert_eq!(kind, flatnet_asgraph::graph::NeighborKind::Peer)
                }
            }
        }
    }
}

#[test]
fn campaigns_roundtrip_through_scamper_text() {
    let net = net();
    let campaign = run_campaign(
        &net,
        &CampaignOptions { dest_sample: 0.2, max_vps: 2, ..Default::default() },
    );
    assert!(campaign.len() > 100);
    let text = write_traces(&campaign.traces);
    let parsed = parse_traces(&text).unwrap();
    assert_eq!(parsed, campaign.traces);
}

#[test]
fn appendix_a_agreement_band() {
    let net = net();
    let campaign = run_campaign(
        &net,
        &CampaignOptions { dest_sample: 0.5, max_vps: 3, ..Default::default() },
    );
    let clouds: Vec<_> = net.clouds.iter().map(|c| c.asn).collect();
    let agreement = validate_paths(&net.truth, &net.addressing().resolver, &campaign, &clouds);
    // The paper saw 73-92% agreement; on the ground-truth graph (which
    // generated the traffic) only resolution noise should miss.
    for cloud in &net.clouds {
        let a = &agreement[&cloud.asn.0];
        assert!(a.scored > 50, "{} scored {}", cloud.spec.name, a.scored);
        assert!(
            a.pct() > 65.0,
            "{} agreement {:.1}% ({}/{})",
            cloud.spec.name,
            a.pct(),
            a.matching,
            a.scored
        );
    }
}

#[test]
fn appendix_d_geolocation_on_synthetic_facilities() {
    // Build candidate lists from a Tier-1's synthetic PoP footprint sites
    // and verify the RTT procedure pins router locations.
    let net = net();
    // Take a Tier-1 with a footprint; its PoP cities are the candidates.
    let t1 = net.tier1[0];
    let fp = &net.geo.footprints[&t1.0];
    let candidates: Vec<(String, flatnet_geo::GeoPoint)> =
        fp.sites().iter().map(|s| (s.city.clone(), s.point)).collect();
    assert!(candidates.len() > 5);
    // A "router" at the 3rd PoP city.
    let true_site = &fp.sites()[2];
    let got = geolocate(&candidates, None, |vp| Some(fiber_rtt_ms(*vp, true_site.point)));
    let got = got.expect("geolocates");
    // Accepts a city within ~100 km of the truth (usually the same city).
    assert!(
        flatnet_geo::haversine_km(got.point, true_site.point) <= 100.0,
        "placed {} at {}",
        true_site.city,
        got.city
    );
    // With an rDNS hint, the answer is exact.
    let hinted = geolocate(&candidates, Some(&true_site.city), |vp| {
        Some(fiber_rtt_ms(*vp, true_site.point))
    })
    .expect("geolocates with hint");
    assert_eq!(hinted.city, true_site.city);
}

// ---------------------------------------------------------------------------
// Malformed-input corpus: every loader must fail cleanly in strict mode and
// skip-and-tally in lenient mode, with exact diagnostics.

/// A small but real MRT dump: one monitor's RIB over a three-AS chain.
fn mrt_corpus() -> Vec<u8> {
    let mut b = AsGraphBuilder::new();
    b.add_link(AsId(1), AsId(2), Relationship::P2c);
    b.add_link(AsId(2), AsId(3), Relationship::P2c);
    let g = b.build();
    let monitors: Vec<_> = g.nodes().take(1).collect();
    let origins: Vec<_> = g.nodes().collect();
    let ribs = flatnet_bgpsim::collect_ribs(&g, &monitors, &origins);
    let rib = flatnet_mrt::from_rib_entries(&ribs, |o| {
        Some(flatnet_prefixdb::Ipv4Prefix::new(
            std::net::Ipv4Addr::from(0x0a00_0000u32 + (o.0 << 8)),
            24,
        ))
    });
    flatnet_mrt::write_mrt(&rib, 1_600_000_000)
}

#[test]
fn truncated_mrt_fails_cleanly_in_both_modes() {
    let bytes = mrt_corpus();
    // Sanity: the intact dump parses.
    let rib = flatnet_mrt::parse_mrt(&bytes).unwrap();
    assert!(!rib.routes.is_empty());
    // Cut mid-record: strict reports the truncation instead of panicking...
    let cut = &bytes[..bytes.len() - 5];
    let err = flatnet_mrt::parse_mrt(cut).unwrap_err();
    assert!(err.to_string().contains("truncated"), "{err}");
    // ...and truncation is framing corruption, so lenient mode cannot
    // resync past it either.
    assert!(flatnet_mrt::parse_mrt_with(cut, &ParseOptions::lenient()).is_err());
}

#[test]
fn corrupt_mrt_length_field_is_rejected() {
    let mut bytes = mrt_corpus();
    // The second record's header starts after the first record; its length
    // field (bytes 8..12 of the header) gets an absurd value.
    let first_len =
        u32::from_be_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
    let second = 12 + first_len;
    assert!(second + 12 < bytes.len(), "corpus has at least two records");
    bytes[second + 8..second + 12].copy_from_slice(&u32::MAX.to_be_bytes());
    for mode in [ParseOptions::strict(), ParseOptions::lenient()] {
        let err = flatnet_mrt::parse_mrt_with(&bytes, &mode).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
    }
}

#[test]
fn garbage_caida_lines_strict_vs_lenient() {
    let text = "\
# corpus
1|2|-1|bgp
totally garbage
2|3|-1|bgp
4|5|nope|bgp
2|4|0|bgp
";
    // Strict fails at the *first* bad line.
    let err = parse_serial2_with(text.as_bytes(), &ParseOptions::strict()).unwrap_err();
    assert!(err.to_string().contains("line 3"), "{err}");
    // Lenient drops exactly the two bad lines and keeps the three good ones.
    let (b, diag) = parse_serial2_with(text.as_bytes(), &ParseOptions::lenient()).unwrap();
    assert_eq!(diag.dropped(), 2, "{:?}", diag.issues);
    assert_eq!(diag.records_ok, 3);
    assert_eq!(
        diag.issues.iter().map(|i| i.location).collect::<Vec<_>>(),
        vec![RecordLocation::Line(3), RecordLocation::Line(5)]
    );
    let g = b.build();
    assert_eq!(g.edge_count(), 3);
    // An exhausted error budget aborts even in lenient mode.
    let tight = ParseOptions::lenient().with_max_errors(1);
    assert!(parse_serial2_with(text.as_bytes(), &tight).is_err());
}

#[test]
fn scamper_unparsable_hops_strict_vs_lenient() {
    let text = "\
trace from AS1/city0 to 1.2.3.4 asn 5 complete
 1 1.0.0.1 0.500 ms
 bogus hop line
 2 1.2.3.4 1.000 ms
trace from AS2/city1 to 5.6.7.8 asn 9 complete
 1 *
 2 5.6.7.8 2.000 ms
";
    assert!(parse_traces(text).is_err());
    let (traces, diag) = parse_traces_with(text, &ParseOptions::lenient()).unwrap();
    assert_eq!(traces.len(), 2);
    assert_eq!(diag.dropped(), 1, "{:?}", diag.issues);
    assert_eq!(diag.issues[0].location, RecordLocation::Line(3));
    // The surviving hops of the first trace are intact.
    assert_eq!(traces[0].hops.len(), 2);
}

#[test]
fn truncated_warts_fails_cleanly_in_both_modes() {
    let clean = "\
trace from AS1/city0 to 1.2.3.4 asn 5 complete
 1 1.0.0.1 0.500 ms
 2 1.2.3.4 1.000 ms
";
    let traces = parse_traces(clean).unwrap();
    let bytes = flatnet_tracesim::warts::write_warts(&traces);
    let back = flatnet_tracesim::warts::parse_warts(&bytes).unwrap();
    assert_eq!(back, traces);
    let cut = &bytes[..bytes.len() - 3];
    let err = flatnet_tracesim::warts::parse_warts(cut).unwrap_err();
    assert!(err.to_string().contains("truncated"), "{err}");
    assert!(
        flatnet_tracesim::warts::parse_warts_with(cut, &ParseOptions::lenient()).is_err(),
        "truncation is framing corruption; lenient cannot resync"
    );
}
