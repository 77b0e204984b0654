//! The BGP-feed loop (§2.3/§4.1's premise, end to end): simulate route
//! collectors over a known ground truth, serialize their RIBs as MRT
//! TABLE_DUMP_V2 bytes, parse the bytes back, run Gao-style relationship
//! inference over the recovered paths, and score the result — showing
//! exactly why feeds miss cloud peering.
//!
//! ```sh
//! cargo run --release --example bgp_feeds
//! ```

use flatnet_asgraph::{infer_relationships, score_inference, AsId};
use flatnet_bgpsim::{collect_ribs, visible_links};
use flatnet_core::feeds::place_monitors;
use flatnet_mrt::{from_rib_entries, parse_mrt, to_rib_entries, write_mrt};
use flatnet_netgen::{generate, NetGenConfig};

fn main() {
    let net = generate(&NetGenConfig::paper_2020(1200, 13));
    println!(
        "ground truth: {} ASes, {} links",
        net.truth.len(),
        net.truth.edge_count()
    );

    // RouteViews-style monitors: hierarchy-heavy placement.
    let monitors = place_monitors(&net, 40, 13);
    let origins: Vec<_> = net.truth.nodes().collect();
    let ribs = collect_ribs(&net.truth, &monitors, &origins);
    println!("collected {} RIB entries from {} monitors", ribs.len(), monitors.len());

    // Round-trip through the MRT binary format.
    let mrt = from_rib_entries(&ribs, |o| net.addressing().origin_prefix(o));
    let bytes = write_mrt(&mrt, 1_600_000_000);
    println!("MRT dump: {} bytes ({} routes)", bytes.len(), mrt.routes.len());
    let recovered = to_rib_entries(&parse_mrt(&bytes).expect("own MRT parses"));
    assert_eq!(recovered.len(), ribs.len());

    // Gao inference over the recovered paths.
    let paths: Vec<Vec<AsId>> = recovered.iter().map(|e| e.path.clone()).collect();
    let inferred = infer_relationships(&paths, 60.0);
    let acc = score_inference(&inferred.graph, &net.truth);
    println!(
        "\ninference: {} links observed -> {} p2c + {} p2p",
        inferred.observed_links, inferred.inferred_p2c, inferred.inferred_p2p
    );
    println!(
        "c2p accuracy (observed):       {:>5.1}%",
        100.0 * acc.c2p_accuracy()
    );
    println!(
        "p2p recall (all true peers):   {:>5.1}%",
        100.0 * acc.p2p_recall()
    );
    println!(
        "p2p links invisible to feeds:  {:>5.1}%",
        100.0 * acc.p2p_invisible_fraction()
    );

    // The cloud-specific invisibility (the paper's headline).
    let visible = visible_links(&recovered);
    for cloud in net.cloud_providers() {
        let total = cloud.peer_links.len();
        let seen = cloud
            .peer_links
            .iter()
            .filter(|l| {
                let key = (cloud.asn.min(l.peer), cloud.asn.max(l.peer));
                visible.binary_search(&key).is_ok()
            })
            .count();
        println!(
            "{:<10} peer links visible to the feed: {:>4}/{:<4} ({:.0}% invisible)",
            cloud.spec.name,
            seen,
            total,
            100.0 * (1.0 - seen as f64 / total.max(1) as f64)
        );
    }
    println!("\n(paper §4.1: BGP feeds do not see ~90% of Google/Microsoft peers — hence the traceroute campaign)");
}
