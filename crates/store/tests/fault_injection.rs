//! The corruption corpus, pinned: every systematic mutation of a valid
//! store image must yield a clean typed error — zero panics, zero
//! silent accepts — and a pristine image must round-trip to the bytes it
//! was read from. This is the same differential-pinning
//! discipline the propagation engines use (PR 3/5), applied to the
//! persistence layer.

use flatnet_asgraph::tiers::infer_tiers;
use flatnet_bgpsim::TopologySnapshot;
use flatnet_netgen::{generate, NetGenConfig};
use flatnet_store::{
    corruption_corpus, decode, encode, run_corpus, FaultOutcome, StoreError, StoredSnapshot,
};

fn sample_snapshot(ases: usize, seed: u64) -> StoredSnapshot {
    let net = generate(&NetGenConfig::paper_2020(ases, seed));
    let graph = net.truth;
    let tiers = infer_tiers(&graph, 32, 28);
    let topo = TopologySnapshot::compile(&graph);
    StoredSnapshot { version: 1, graph, tiers, topo }
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
    let snap = sample_snapshot(300, 11);
    let bytes = encode(&snap);
    let results = run_corpus(&bytes);
    // The corpus must actually cover the layout: truncations at each of
    // the three section boundaries, flips in each section, the header
    // mutations, and the semantic mutations.
    assert!(results.len() >= 30, "suspiciously small corpus: {}", results.len());
    let mut kinds = std::collections::BTreeMap::new();
    for r in &results {
        match r.outcome {
            FaultOutcome::TypedError(kind) => {
                *kinds.entry(kind).or_insert(0usize) += 1;
            }
            FaultOutcome::Panicked => panic!("fault '{}' made the decoder panic", r.name),
            FaultOutcome::Accepted => panic!("fault '{}' was silently accepted", r.name),
        }
    }
    // The distinct failure modes must be distinguishable — the fallback
    // ladder logs them separately.
    for want in ["bad-magic", "truncated-header", "header-checksum", "section-checksum",
        "unsupported-version", "bad-section-table", "trailing-bytes", "malformed-section"]
    {
        assert!(kinds.contains_key(want), "no fault exercised kind {want:?}: {kinds:?}");
    }
}

#[test]
fn checksum_valid_faults_are_refused_by_the_section_they_break() {
    // These images pass every CRC; only the semantic validation behind
    // the checksums stands between them and a served snapshot. While the
    // decoder re-sorted the edge list instead of checking its order, the
    // second and third were accepted and re-encoded to different bytes.
    let bytes = encode(&sample_snapshot(300, 11));
    let got: Vec<(String, FaultOutcome, String)> = run_corpus(&bytes)
        .into_iter()
        .filter_map(|r| {
            let name = r.name.strip_prefix("checksum-valid: ")?.to_string();
            Some((name, r.outcome, r.detail))
        })
        .collect();
    let want = [
        ("duplicate edge", "graph"),
        ("adjacent edges swapped", "graph"),
        ("p2p edge stored high endpoint first", "graph"),
        ("edge endpoint == n", "graph"),
        ("self-loop", "graph"),
        ("asn table entries swapped", "graph"),
        ("tier id == n", "tiers"),
        ("tier member in both sets", "tiers"),
    ];
    assert_eq!(
        got.iter().map(|(name, ..)| name.as_str()).collect::<Vec<_>>(),
        want.map(|(name, _)| name)
    );
    for ((name, outcome, detail), (_, section)) in got.iter().zip(want) {
        assert_eq!(*outcome, FaultOutcome::TypedError("malformed-section"), "{name}: {detail}");
        assert!(detail.starts_with(&format!("malformed section '{section}'")), "{name}: {detail}");
    }
}

#[test]
fn corpus_covers_every_section_with_flips_and_boundary_truncations() {
    let snap = sample_snapshot(120, 3);
    let bytes = encode(&snap);
    let corpus = corruption_corpus(&bytes);
    for section in 1..=3u32 {
        let flips = corpus
            .iter()
            .filter(|f| f.name.starts_with("bitflip") && f.name.contains(&format!("section{section} ")))
            .count();
        assert!(flips >= 3, "section {section} has {flips} bit-flips, want >= 3");
        let cuts = corpus
            .iter()
            .filter(|f| {
                f.name.starts_with("truncate")
                    && (f.name.contains(&format!("section{section} start"))
                        || f.name.contains(&format!("section{section} end")))
            })
            .count();
        assert!(cuts >= 1, "section {section} has no boundary truncation");
    }
    assert!(corpus.iter().any(|f| f.name == "zeroed header"));
    assert!(corpus.iter().any(|f| f.name.starts_with("swap section ids")));
    assert!(corpus.iter().any(|f| f.name == "format version 99"));
}

#[test]
fn checked_in_tiny_store_still_decodes_and_survives_the_corpus() {
    // The committed fixture pins the on-disk format: if an encoder
    // change silently breaks compatibility with existing stores, this
    // fails before any deployment does. CI also runs `snapshot fuzz`
    // and `snapshot verify` against the same file.
    let bytes = fixture("tiny.store");
    let snap = decode(&bytes).expect("the committed fixture must decode");
    assert_eq!(snap.graph.len(), 120);
    // …and the encoder still writes it byte for byte.
    assert_eq!(encode(&snap), bytes);
    for r in run_corpus(&bytes) {
        assert!(
            matches!(r.outcome, FaultOutcome::TypedError(_)),
            "fixture fault '{}' was mishandled",
            r.name
        );
    }
}

fn fixture(name: &str) -> Vec<u8> {
    let path = format!("{}/tests/data/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{path} is checked in: {e}"))
}

/// Rewrites the header CRC after a deliberate header edit, so the check
/// behind the checksum is what trips.
fn fix_header_crc(bytes: &mut [u8]) {
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let table_end = 16 + 24 * count;
    let crc = flatnet_store::crc32::crc32(&bytes[..table_end]);
    bytes[table_end..table_end + 4].copy_from_slice(&crc.to_le_bytes());
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
    fix_header_crc(&mut relabelled);
    let err = decode(&relabelled).unwrap_err();
    assert_eq!(err.kind(), "bad-section-table", "{err}");
    let mut renamed = v2.clone();
    renamed[16 + 2 * 24..][..4].copy_from_slice(&4u32.to_le_bytes());
    fix_header_crc(&mut renamed);
    let err = decode(&renamed).unwrap_err();
    assert_eq!(err.kind(), "bad-section-table", "{err}");
    assert!(err.to_string().contains("has id 4"), "{err}");
}

#[test]
fn decoder_survives_arbitrary_noise_prefixes() {
    // Beyond the structured corpus: a few shapeless inputs.
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
