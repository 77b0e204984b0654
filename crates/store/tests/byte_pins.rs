//! Byte pins for the ingest path: the generator, the as-rel writer and
//! the store encoder must keep producing exactly these bytes. The
//! benchmark regenerates its topology from the seed on both sides of an
//! A/B comparison; if any of the three drifts, the two sides measure
//! different Internets. The constants were recorded on the code before
//! the one-constructor ingest rewrite and must never be re-recorded to
//! make a change pass.

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
    let public = write_serial2(&net.public);
    let graph = net.truth;
    let tiers = infer_tiers(&graph, 32, 28);
    let topo = TopologySnapshot::compile(&graph);
    let image = encode(&StoredSnapshot { version: 1, graph, tiers, topo });
    let got = [
        ("write_serial2(truth)", truth.len(), fnv1a64(truth.as_bytes())),
        ("write_serial2(public)", public.len(), fnv1a64(public.as_bytes())),
        ("store::encode", image.len(), fnv1a64(&image)),
    ];
    let want = [
        ("write_serial2(truth)", 309_439usize, 0x54fa_6cd7_004a_2a0cu64),
        ("write_serial2(public)", 177_621, 0x77c2_d10a_cfdf_dadb),
        ("store::encode", 356_190, 0x7124_0611_a163_e7dd),
    ];
    assert_eq!(got, want, "(what, bytes, fnv1a64) drifted: got {got:#x?}");
}
