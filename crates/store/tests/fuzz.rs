//! Arbitrary bytes into the store decoder, beyond the deterministic
//! faults of `fault_injection.rs`: byte soup, and valid images spliced,
//! overwritten, given lying count fields and cut at every offset, with
//! and without their checksums put right again. Whatever arrives,
//! `decode` never panics and never holds more heap than a small multiple
//! of the bytes it was given — a count field buys no allocation the
//! bytes behind it cannot back — every truncation is an error, and
//! whatever is accepted re-encodes to exactly the bytes it came from.
//!
//! Generation is the vendored fixed-seed `proptest`, so every run
//! explores the same inputs and a failure reproduces.

mod image;

use flatnet_store::{decode, encode, StoreError, StoredSnapshot};
use flatnet_testkit::{edited, edits, soup, Counting, Target};
use image::{fixture, pack, payloads_of, seal, MAGIC};
use proptest::collection::vec;
use proptest::prelude::*;

#[global_allocator]
static ALLOC: Counting = Counting;

/// The most heap `decode` may hold for `len` input bytes. A node is 4
/// bytes of image and 16 of heap (the ASN table and the adjacency
/// block's three per-node offsets, which double as its fill cursors); an
/// edge is 9 bytes of image and 8 of heap (the two 4-byte entries the
/// block keeps: the records stream into it from the image). The compiled
/// topology adds a bit per node and no copy of either. Measured 4.0× the
/// image on 5 000 nodes without edges, 2.3× on the 120-AS fixture, 2.8×
/// on a 5 000-node chain while a 12-byte decoded edge list stood between
/// image and block. The constant covers the section list and the error
/// strings. `load_peak.rs` holds a paper-shaped decode to its own bound.
fn heap_cap(len: usize) -> usize {
    4096 + 5 * len
}

/// The decoder under attack: what it accepts re-encodes to its input.
fn decoder() -> Target<'static, StoredSnapshot, StoreError> {
    Target::new(heap_cap, decode).canonical(encode)
}

/// Valid images to mutate: the committed 120-AS fixture, a six-node
/// graph with both tier sets, and the empty graph.
fn bases() -> &'static [Vec<u8>] {
    static BASES: std::sync::OnceLock<Vec<Vec<u8>>> = std::sync::OnceLock::new();
    BASES.get_or_init(build_bases)
}

fn build_bases() -> Vec<Vec<u8>> {
    let u32s = |vs: &[u32]| vs.iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<u8>>();
    // ASNs 10 < 20 < … < 60; edges in canonical order as (a, b, rel).
    let mut graph = u32s(&[6, 5, 10, 20, 30, 40, 50, 60]);
    for (a, b, rel) in [(0u32, 2u32, 0u8), (0, 3, 0), (1, 2, 0), (1, 3, 0), (2, 3, 1)] {
        graph.extend_from_slice(&u32s(&[a, b]));
        graph.push(rel);
    }
    let small = pack(2, &[7u64.to_le_bytes().to_vec(), graph, u32s(&[2, 1, 0, 1, 2])]);
    let empty = pack(2, &[1u64.to_le_bytes().to_vec(), u32s(&[0, 0]), u32s(&[0, 0])]);
    let bases = vec![fixture("tiny.store"), small, empty];
    for base in &bases {
        assert!(decoder().check(base).is_ok(), "a base image must decode");
        assert_eq!(&pack(2, &payloads_of(base)), base, "the packer writes what the encoder does");
    }
    bases
}

/// Count fields worth lying with: the edges of each range check and the
/// largest values the decoder's sanity caps let through.
const COUNTS: [u32; 10] =
    [0, 1, 2, 119, 121, 0xffff, 15_999_999, 16_000_001, 0x7fff_ffff, u32::MAX];

/// Format versions to pack edited payloads under: mostly the current one.
const VERSIONS: [u32; 8] = [2, 2, 2, 2, 2, 2, 1, 3];

/// Pieces that steer byte soup past the first check of each layer.
const PIECES: &[&[u8]] = &[
    MAGIC,
    b"FNSNAP\n",
    &[1, 0, 0, 0],
    &[2, 0, 0, 0],
    &[3, 0, 0, 0],
    &[4, 0, 0, 0],
    &[0xff; 4],
    &[0; 8],
    &[0xff; 8],
    // A table entry: id 2, a checksum, offset 92, length 16.
    &[2, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 92, 0, 0, 0, 0, 0, 0, 0, 16, 0, 0, 0, 0, 0, 0, 0],
];

fn store_soup() -> impl Strategy<Value = Vec<u8>> {
    (0..4u8, soup(PIECES, 0..24, 12)).prop_map(|(start, body)| {
        // Three in four begin with the magic, or nothing behind it is read.
        let mut out = if start > 0 { MAGIC.to_vec() } else { Vec::new() };
        out.extend(body);
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Shapeless input, as it comes and with the header checksum put
    /// right for whatever section count it claims.
    #[test]
    fn byte_soup_never_panics_and_stays_within_the_cap(input in store_soup()) {
        let _ = decoder().check(&input);
        let mut sealed = input;
        if seal(&mut sealed) {
            let _ = decoder().check(&sealed);
        }
    }

    /// A valid image edited anywhere — header, table, payloads — with
    /// no checksum put right: what the container layer sees.
    #[test]
    fn edited_images_are_refused_or_round_trip(base in 0..3usize, edits in edits(1..4)) {
        let _ = decoder().check(&edited(&bases()[base], &edits));
    }

    /// One payload of a valid image edited, its two leading counts (every
    /// Graph and Tiers payload starts with two) perhaps set to a lie, and
    /// the image packed again around it, every length and both checksums
    /// right: what only the section validators behind the checksums can
    /// refuse.
    #[test]
    fn edited_payloads_behind_valid_checksums_are_refused_or_round_trip(
        base in 0..3usize,
        section in 0..3usize,
        edits in edits(1..3),
        lies in vec((0..2usize, 0..COUNTS.len()), 0..2),
        version in 0..VERSIONS.len(),
    ) {
        let mut payloads = payloads_of(&bases()[base]);
        let payload = &mut payloads[section];
        *payload = edited(payload, &edits);
        for (word, pick) in lies {
            if let Some(field) = payload.get_mut(4 * word..4 * word + 4) {
                field.copy_from_slice(&COUNTS[pick].to_le_bytes());
            }
        }
        let _ = decoder().check(&pack(VERSIONS[version], &payloads));
    }
}

#[test]
fn every_truncation_of_every_base_image_is_an_error() {
    for base in bases() {
        let decoded = decoder().truncations(base);
        assert!(decoded.is_empty(), "prefixes of {} bytes decoded: {decoded:?}", base.len());
    }
}
