//! Byte pins for the ingest path: the generator, the as-rel writer and
//! the store encoder must keep producing exactly these bytes. The
//! benchmark regenerates its topology from the seed on both sides of an
//! A/B comparison; if any of the three drifts, the two sides measure
//! different Internets. The as-rel constants were recorded on the code
//! before the one-constructor ingest rewrite and must never be
//! re-recorded to make a change pass. The store constant is format v2's:
//! the v1 image recorded at the same time, minus the section v2 dropped,
//! and the test holds it to that arithmetic.

use flatnet_asgraph::caida::write_serial2;
use flatnet_asgraph::tiers::infer_tiers;
use flatnet_bgpsim::TopologySnapshot;
use flatnet_netgen::{generate, NetGenConfig};
use flatnet_store::{encode, StoredSnapshot};

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

#[test]
fn generator_writer_and_store_bytes_are_pinned() {
    let net = generate(&NetGenConfig::paper_2020(4000, 1));
    let truth = write_serial2(&net.truth);
    let public = write_serial2(net.public());
    let graph = net.truth;
    let (n, m) = (graph.len(), graph.edge_count());
    let tiers = infer_tiers(&graph, 32, 28);
    let topo = TopologySnapshot::compile(&graph);
    let image = encode(&StoredSnapshot { version: 1, graph, tiers, topo });
    // v2 is v1 without the compiled adjacency: a payload of two counts,
    // a u64 total and 3n + 1 + 2m words, and its 24-byte table entry.
    const V1_IMAGE_BYTES: usize = 356_190;
    assert_eq!(image.len(), V1_IMAGE_BYTES - (16 + 4 * (3 * n + 1 + 2 * m)) - 24);
    let got = [
        ("write_serial2(truth)", truth.len(), fnv1a64(truth.as_bytes())),
        ("write_serial2(public)", public.len(), fnv1a64(public.as_bytes())),
        ("store::encode", image.len(), fnv1a64(&image)),
    ];
    let want = [
        ("write_serial2(truth)", 309_439usize, 0x54fa_6cd7_004a_2a0cu64),
        ("write_serial2(public)", 177_621, 0x77c2_d10a_cfdf_dadb),
        ("store::encode", 170_786, 0x0ce3_83e6_ba8f_14de),
    ];
    assert_eq!(got, want, "(what, bytes, fnv1a64) drifted: got {got:#x?}");
}
