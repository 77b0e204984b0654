//! The faults random edits are unlikely to hit, pinned: edits that keep
//! every checksum valid, header and table edits behind a header checksum
//! put right, and one fault for every error kind `decode` can return.
//! Each must be refused with its own typed error — zero panics, zero
//! silent accepts — and a pristine image must round-trip to the bytes it
//! was read from. The arbitrary-byte attacks are `fuzz.rs`.

mod image;

use flatnet_asgraph::tiers::infer_tiers;
use flatnet_bgpsim::TopologySnapshot;
use flatnet_netgen::{generate, NetGenConfig};
use flatnet_store::{decode, encode, StoreError, StoredSnapshot};
use image::{fixture, pack, payloads_of, seal};

fn sample_snapshot(ases: usize, seed: u64) -> StoredSnapshot {
    let net = generate(&NetGenConfig::paper_2020(ases, seed));
    let graph = net.truth;
    let tiers = infer_tiers(&graph, 32, 28);
    let topo = TopologySnapshot::compile(&graph);
    StoredSnapshot { version: 1, graph, tiers, topo }
}

/// The eight checksum-valid edits of a valid image: `(what, the section
/// it breaks, the image)`. Each changes a few bytes of one payload and
/// packs the image again, every length and checksum right, so only the
/// validators behind the checksums stand in the way. Offsets follow the
/// layouts `codec` writes: Graph is n, m, the ASN table, then m records
/// of (a u32, b u32, rel u8); Tiers is |t1|, |t2|, then both id lists.
fn checksum_valid_edits(image: &[u8]) -> Vec<(&'static str, &'static str, Vec<u8>)> {
    const GRAPH: usize = 1;
    const TIERS: usize = 2;
    let payloads = payloads_of(image);
    let word = |p: &[u8], at: usize| u32::from_le_bytes(p[at..at + 4].try_into().unwrap());
    let put = |p: &mut [u8], at: usize, v: u32| p[at..at + 4].copy_from_slice(&v.to_le_bytes());
    let (graph, tiers) = (&payloads[GRAPH], &payloads[TIERS]);
    let (n, m) = (word(graph, 0), word(graph, 4) as usize);
    let asn_at = |i: usize| 8 + 4 * i;
    let edge_at = |i: usize| 8 + 4 * n as usize + 9 * i;
    let (t1, t2) = (word(tiers, 0) as usize, word(tiers, 4) as usize);
    let tier_at = |i: usize| 8 + 4 * i;
    assert!(n >= 2 && m >= 2 && t1 >= 1 && t2 >= 1, "an image too small to edit");
    let peer = (0..m).find(|&i| graph[edge_at(i) + 8] == 1).expect("a p2p edge");
    // Lowering a set's first id keeps it ascending.
    let low = word(tiers, tier_at(0)).min(word(tiers, tier_at(t1)));

    let edit = |name, section, f: &dyn Fn(&mut Vec<u8>)| {
        let mut edited = payloads.clone();
        f(&mut edited[section]);
        (name, ["meta", "graph", "tiers"][section], pack(2, &edited))
    };
    vec![
        edit("duplicate edge", GRAPH, &|g| g.copy_within(edge_at(0)..edge_at(1), edge_at(1))),
        edit("adjacent edges swapped", GRAPH, &|g| {
            let (first, second) = g[edge_at(0)..edge_at(2)].split_at_mut(9);
            first.swap_with_slice(second);
        }),
        edit("p2p edge stored high endpoint first", GRAPH, &|g| {
            let (a, b) = g[edge_at(peer)..edge_at(peer) + 8].split_at_mut(4);
            a.swap_with_slice(b);
        }),
        edit("edge endpoint == n", GRAPH, &|g| put(g, edge_at(0) + 4, n)),
        edit("self-loop", GRAPH, &|g| g.copy_within(edge_at(0)..edge_at(0) + 4, edge_at(0) + 4)),
        edit("asn table entries swapped", GRAPH, &|g| {
            let (x, y) = (word(g, asn_at(0)), word(g, asn_at(1)));
            put(g, asn_at(0), y);
            put(g, asn_at(1), x);
        }),
        // The last tier-1 id may grow without breaking its set's order.
        edit("tier id == n", TIERS, &|t| put(t, tier_at(t1 - 1), n)),
        edit("tier member in both sets", TIERS, &|t| {
            put(t, tier_at(0), low);
            put(t, tier_at(t1), low);
        }),
    ]
}

/// One fault of a valid image per error kind `decode` returns: `(what,
/// the image, the kind it must be refused as)`. Header and table edits
/// come with the header checksum put right, so the check behind it is
/// what trips.
fn faults(image: &[u8]) -> Vec<(&'static str, Vec<u8>, &'static str)> {
    let edited = |f: &dyn Fn(&mut Vec<u8>)| {
        let mut bytes = image.to_vec();
        f(&mut bytes);
        bytes
    };
    let sealed = |f: &dyn Fn(&mut Vec<u8>)| {
        edited(&|b: &mut Vec<u8>| {
            f(b);
            assert!(seal(b));
        })
    };
    let mut out = vec![
        ("zeroed header", edited(&|b| b[..16].fill(0)), "bad-magic"),
        ("cut inside the section table", image[..40].to_vec(), "truncated-header"),
        ("version changed, header checksum not", edited(&|b| b[8] ^= 1), "header-checksum"),
        ("format version 99", sealed(&|b| b[8..12].copy_from_slice(&99u32.to_le_bytes())), "unsupported-version"),
        ("section ids 1 and 2 swapped", sealed(&|b| swap_words(b, 16, 40)), "bad-section-table"),
        ("section checksums 1 and 2 swapped", sealed(&|b| swap_words(b, 20, 44)), "section-checksum"),
        ("trailing garbage", edited(&|b| b.extend_from_slice(b"\0garbage")), "trailing-bytes"),
    ];
    for (name, _, bytes) in checksum_valid_edits(image) {
        out.push((name, bytes, "malformed-section"));
    }
    out
}

fn swap_words(b: &mut [u8], x: usize, y: usize) {
    for k in 0..4 {
        b.swap(x + k, y + k);
    }
}

/// Requires every fault of `image` to be refused as its kind.
fn assert_refused(image: &[u8]) {
    for (name, bytes, kind) in faults(image) {
        let err = decode(&bytes).expect_err(name);
        assert_eq!(err.kind(), kind, "{name}: {err}");
    }
}

#[test]
fn valid_image_round_trips_bit_identical_to_a_fresh_compile() {
    let snap = sample_snapshot(300, 11);
    let bytes = encode(&snap);
    let back = decode(&bytes).expect("valid image decodes");
    assert!(back.graph.edges().eq(snap.graph.edges()));
    assert!(back.graph.asns().eq(snap.graph.asns()));
    assert_eq!(back.tiers, snap.tiers);
    // The topology a warm start serves is compiled from the decoded
    // graph, so it covers exactly that graph.
    assert_eq!(back.topo.len(), back.graph.len());
    assert_eq!(back.topo.edge_entries(), 2 * back.graph.edge_count());
    // Encoding is deterministic and stable through a round trip.
    assert_eq!(encode(&back), bytes);
}

#[test]
fn every_injected_fault_yields_a_typed_error_and_never_a_panic() {
    let image = encode(&sample_snapshot(300, 11));
    // The distinct failure modes must be distinguishable — the fallback
    // ladder logs them separately — so each has a fault of its own.
    let kinds: std::collections::BTreeSet<_> = faults(&image).into_iter().map(|(.., kind)| kind).collect();
    let want = ["bad-magic", "truncated-header", "header-checksum", "section-checksum",
        "unsupported-version", "bad-section-table", "trailing-bytes", "malformed-section"];
    assert_eq!(kinds, want.into_iter().collect());
    assert_refused(&image);
}

#[test]
fn checksum_valid_faults_are_refused_by_the_section_they_break() {
    // These images pass every CRC; only the semantic validation behind
    // the checksums stands between them and a served snapshot. While the
    // decoder re-sorted the edge list instead of checking its order, the
    // second and third were accepted and re-encoded to different bytes.
    for (name, section, bytes) in checksum_valid_edits(&encode(&sample_snapshot(300, 11))) {
        let err = decode(&bytes).expect_err(name);
        assert_eq!(err.kind(), "malformed-section", "{name}: {err}");
        assert!(err.to_string().starts_with(&format!("malformed section '{section}'")), "{name}: {err}");
    }
}

#[test]
fn a_bad_tag_in_the_last_record_alone_is_refused() {
    // The records stream into the graph only after one pass has checked
    // every tag, so the last record's tag is checked like the first's.
    let image = encode(&sample_snapshot(300, 11));
    let mut payloads = payloads_of(&image);
    let graph = &mut payloads[1];
    let m = u32::from_le_bytes(graph[4..8].try_into().unwrap()) as usize;
    *graph.last_mut().expect("a graph with edges") = 2;
    let err = decode(&pack(2, &payloads)).expect_err("tag 2 is no relationship");
    assert_eq!(err.kind(), "malformed-section", "{err}");
    let detail = format!("edge {}: unknown relationship tag 2", m - 1);
    assert!(err.to_string().ends_with(&detail), "{err}");
}

#[test]
fn checked_in_tiny_store_still_decodes_and_survives_the_corpus() {
    // The committed fixture pins the on-disk format: if an encoder
    // change silently breaks compatibility with existing stores, this
    // fails before any deployment does. `fuzz.rs` attacks the same file
    // with every truncation and random edits.
    let bytes = fixture("tiny.store");
    let snap = decode(&bytes).expect("the committed fixture must decode");
    assert_eq!(snap.graph.len(), 120);
    // …and the encoder still writes it byte for byte.
    assert_eq!(encode(&snap), bytes);
    assert_refused(&bytes);
}

#[test]
fn the_v1_fixture_is_refused_as_a_version_and_as_a_layout() {
    // The image format v1 wrote for the same 120-AS topology: graph,
    // tiers, and the compiled adjacency as a fourth section.
    let v1 = fixture("tiny.v1.store");
    assert!(matches!(decode(&v1), Err(StoreError::UnsupportedVersion { found: 1 })));
    // v2 is that image without the fourth section: its payload of two
    // counts, a u64 total and 3n + 1 + 2m words, and its 24-byte table entry.
    let v2 = fixture("tiny.store");
    let snap = decode(&v2).expect("the v2 fixture decodes");
    let (n, m) = (snap.graph.len(), snap.graph.edge_count());
    assert_eq!(v2.len(), v1.len() - (16 + 4 * (3 * n + 1 + 2 * m)) - 24);
    // Relabelling does not bring the layout back: four sections are one
    // too many, and wire id 4 names nothing.
    let mut relabelled = v1.clone();
    relabelled[8..12].copy_from_slice(&2u32.to_le_bytes());
    assert!(seal(&mut relabelled));
    let err = decode(&relabelled).unwrap_err();
    assert_eq!(err.kind(), "bad-section-table", "{err}");
    let mut renamed = v2.clone();
    renamed[16 + 2 * 24..][..4].copy_from_slice(&4u32.to_le_bytes());
    assert!(seal(&mut renamed));
    let err = decode(&renamed).unwrap_err();
    assert_eq!(err.kind(), "bad-section-table", "{err}");
    assert!(err.to_string().contains("has id 4"), "{err}");
}

#[test]
fn decoder_survives_arbitrary_noise_prefixes() {
    // Beyond the deterministic faults: a few shapeless inputs.
    let cases: &[&[u8]] = &[
        b"",
        b"FNSNAP",
        b"FNSNAP\r\n",
        b"\x00\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff",
        b"GET / HTTP/1.1\r\n\r\n",
    ];
    for case in cases {
        let err = decode(case).expect_err("noise accepted");
        let _ = err.to_string();
    }
}
