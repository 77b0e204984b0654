//! The store decoder's heap peak as a rule: decoding the image of a
//! generated 20 000-AS snapshot (about 100 000 links) holds at most 16
//! bytes of heap per link at once beyond the image it was handed,
//! counted through `flatnet-testkit`. That is the ASN table and the
//! adjacency block (8 bytes a link and 16 a node, about 3 a link here)
//! the edge records stream into, plus the tier sets and the compiled
//! snapshot's bit per node. A decoded edge list between the image and
//! the block would add 12 bytes a link: this decode measures 11.2 bytes
//! a link, and measured 23.2 while it decoded such a list.

use flatnet_asgraph::tiers::infer_tiers;
use flatnet_bgpsim::TopologySnapshot;
use flatnet_netgen::{generate, NetGenConfig};
use flatnet_store::{decode, encode, StoredSnapshot};
use flatnet_testkit::{measure, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

const MAX_BYTES_PER_LINK: f64 = 16.0;

#[test]
fn decoding_a_snapshot_peaks_under_16_bytes_per_link() {
    let graph = generate(&NetGenConfig::paper_2020(20_000, 1)).truth;
    let tiers = infer_tiers(&graph, 32, 28);
    let topo = TopologySnapshot::compile(&graph);
    let snap = StoredSnapshot { version: 1, graph, tiers, topo };
    let image = encode(&snap);
    let links = snap.graph.edge_count();
    assert!(links >= 100_000, "only {links} links");

    let (back, usage) = measure(|| decode(&image).expect("a valid image decodes"));
    assert!(back.graph.edges().eq(snap.graph.edges()));
    let per_link = usage.peak as f64 / links as f64;
    eprintln!(
        "{} ASes, {links} links, {} B image: decode peak {:.2} MB = {per_link:.1} B/link",
        back.graph.len(),
        image.len(),
        usage.peak as f64 / 1e6
    );
    assert!(per_link <= MAX_BYTES_PER_LINK, "{per_link:.1} B/link over {MAX_BYTES_PER_LINK}");
}
