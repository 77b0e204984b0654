//! Arbitrary bytes into the store decoder, beyond the deterministic
//! corpus of `fault_injection.rs`: byte soup, and valid images spliced,
//! overwritten, given lying count fields and cut at every offset, with
//! and without their checksums put right again. Whatever arrives,
//! `decode` never panics and never holds more heap than a small multiple
//! of the bytes it was given — a count field buys no allocation the
//! bytes behind it cannot back — every truncation is an error, and
//! whatever is accepted re-encodes to exactly the bytes it came from.
//!
//! Generation is the vendored fixed-seed `proptest`, so every run
//! explores the same inputs and a failure reproduces.

use flatnet_store::crc32::crc32;
use flatnet_store::{decode, encode};
use proptest::collection::vec;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// ---------------------------------------------------------------------
// Allocation accounting: per-thread live and peak heap bytes, so tests
// running in parallel do not see each other.
// ---------------------------------------------------------------------

struct Counting;

thread_local! {
    // Const-initialized and drop-free, so touching them never allocates.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grew(bytes: usize) {
    let live = LIVE.get() + bytes;
    LIVE.set(live);
    PEAK.set(PEAK.get().max(live));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract (`realloc` defaults to `alloc` + copy +
// `dealloc`); the bookkeeping around it touches only plain thread-local
// integers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.set(LIVE.get().saturating_sub(layout.size()));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns the most heap it held at once beyond what was
/// live when it started.
fn peak_heap<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.get();
    PEAK.set(base);
    let out = f();
    (out, PEAK.get().saturating_sub(base))
}

/// The most heap `decode` may hold for `len` input bytes. A node is 4
/// bytes of image and 16 of heap (the ASN table and the adjacency
/// block's three per-node offsets, which double as its fill cursors); an
/// edge is 9 bytes of image and 20 of heap at the peak (12 in the decoded
/// edge list, dropped once the block is filled, and the two 4-byte
/// entries the block keeps). The compiled topology adds a bit per node
/// and no copy of either. Measured 4.0× the image on 5 000 nodes without
/// edges, 2.3× on the 120-AS fixture, 2.8× on a 5 000-node chain. The
/// constant covers the section list and the error strings.
fn heap_cap(len: usize) -> usize {
    4096 + 5 * len
}

/// The property every input is held to. Returns whether it decoded.
fn check(input: &[u8]) -> bool {
    let (result, peak) = peak_heap(|| decode(input));
    assert!(
        peak <= heap_cap(input.len()),
        "decode held {peak} bytes of heap for {} input bytes",
        input.len()
    );
    match result {
        Ok(snap) => {
            assert!(encode(&snap) == input, "an accepted image re-encodes to other bytes");
            true
        }
        Err(e) => {
            assert!(!e.to_string().is_empty());
            false
        }
    }
}

// ---------------------------------------------------------------------
// Images: a test-local packer (the format written down a second time),
// and the valid ones the mutations start from.
// ---------------------------------------------------------------------

const MAGIC: &[u8; 8] = b"FNSNAP\r\n";

/// A container holding `payloads` under wire ids 1.., every offset,
/// length and checksum right.
fn pack(version: u32, payloads: &[Vec<u8>]) -> Vec<u8> {
    let header_end = 16 + 24 * payloads.len() + 4;
    let mut out = Vec::from(*MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payloads.len() as u32).to_le_bytes());
    let mut offset = header_end as u64;
    for (i, payload) in payloads.iter().enumerate() {
        out.extend_from_slice(&(i as u32 + 1).to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        offset += payload.len() as u64;
    }
    out.extend_from_slice(&crc32(&out).to_le_bytes());
    payloads.iter().for_each(|p| out.extend_from_slice(p));
    out
}

/// The three payloads of a valid image, read off its table.
fn payloads_of(image: &[u8]) -> Vec<Vec<u8>> {
    let word = |at: usize| u64::from_le_bytes(image[at..at + 8].try_into().unwrap()) as usize;
    (0..3).map(|i| image[word(16 + 24 * i + 8)..][..word(16 + 24 * i + 16)].to_vec()).collect()
}

/// Valid images to mutate: the committed 120-AS fixture, a six-node
/// graph with both tier sets, and the empty graph.
fn bases() -> &'static [Vec<u8>] {
    static BASES: std::sync::OnceLock<Vec<Vec<u8>>> = std::sync::OnceLock::new();
    BASES.get_or_init(build_bases)
}

fn build_bases() -> Vec<Vec<u8>> {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/tiny.store");
    let u32s = |vs: &[u32]| vs.iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<u8>>();
    // ASNs 10 < 20 < … < 60; edges in canonical order as (a, b, rel).
    let mut graph = u32s(&[6, 5, 10, 20, 30, 40, 50, 60]);
    for (a, b, rel) in [(0u32, 2u32, 0u8), (0, 3, 0), (1, 2, 0), (1, 3, 0), (2, 3, 1)] {
        graph.extend_from_slice(&u32s(&[a, b]));
        graph.push(rel);
    }
    let small = pack(2, &[7u64.to_le_bytes().to_vec(), graph, u32s(&[2, 1, 0, 1, 2])]);
    let empty = pack(2, &[1u64.to_le_bytes().to_vec(), u32s(&[0, 0]), u32s(&[0, 0])]);
    let bases = vec![std::fs::read(fixture).expect("tiny.store is checked in"), small, empty];
    for base in &bases {
        assert!(check(base), "a base image must decode");
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

/// One edit of a byte string.
#[derive(Debug, Clone)]
enum Edit {
    /// Insert the bytes at the (scaled) position.
    Splice(Vec<u8>),
    /// Write the bytes over what is at the (scaled) position.
    Overwrite(Vec<u8>),
    /// Drop everything from the (scaled) position on.
    Truncate,
    /// Set the `u32` at word `word` (0 or 1: the two counts every Graph
    /// and Tiers payload starts with) to `COUNTS[pick]`.
    Count { word: usize, pick: usize },
}

/// An edit of one of the first `kinds` kinds, and where to make it.
fn edit(kinds: u8) -> impl Strategy<Value = (Edit, u16)> {
    let kind = (0..kinds, vec(any::<u8>(), 1..24), 0..2usize, 0..COUNTS.len());
    (kind, any::<u16>()).prop_map(|((kind, bytes, word, pick), at)| {
        let edit = match kind {
            0 => Edit::Splice(bytes),
            1 => Edit::Overwrite(bytes),
            2 => Edit::Truncate,
            _ => Edit::Count { word, pick },
        };
        (edit, at)
    })
}

/// Applies `edit` to `bytes`; `at` scales to a position within them.
fn apply(bytes: &mut Vec<u8>, edit: &Edit, at: u16) {
    let pos = bytes.len() * at as usize / (u16::MAX as usize + 1);
    match edit {
        Edit::Splice(new) => {
            bytes.splice(pos..pos, new.iter().copied());
        }
        Edit::Overwrite(new) => {
            let end = (pos + new.len()).min(bytes.len());
            bytes[pos..end].copy_from_slice(&new[..end - pos]);
        }
        Edit::Truncate => bytes.truncate(pos),
        Edit::Count { word, pick } => {
            if let Some(field) = bytes.get_mut(4 * word..4 * word + 4) {
                field.copy_from_slice(&COUNTS[*pick].to_le_bytes());
            }
        }
    }
}

/// Pieces that steer byte soup past the first check of each layer.
fn soup() -> impl Strategy<Value = Vec<u8>> {
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
    let parts = vec((0..=PIECES.len(), vec(any::<u8>(), 0..12)), 0..24);
    (0..4u8, parts).prop_map(|(start, parts)| {
        // Three in four begin with the magic, or nothing behind it is read.
        let mut out = if start > 0 { MAGIC.to_vec() } else { Vec::new() };
        for (pick, random) in parts {
            out.extend_from_slice(PIECES.get(pick).copied().unwrap_or(&random));
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Shapeless input, as it comes and with the header checksum put
    /// right for whatever section count it claims.
    #[test]
    fn byte_soup_never_panics_and_stays_within_the_cap(input in soup()) {
        check(&input);
        let mut sealed = input;
        let count = sealed.get(12..16).map_or(0, |c| u32::from_le_bytes(c.try_into().unwrap()));
        let table_end = 16 + 24 * count.min(8) as usize;
        if sealed.len() >= table_end + 4 {
            let crc = crc32(&sealed[..table_end]);
            sealed[table_end..table_end + 4].copy_from_slice(&crc.to_le_bytes());
            check(&sealed);
        }
    }

    /// A valid image edited anywhere — header, table, payloads — with
    /// no checksum put right: what the container layer sees.
    #[test]
    fn edited_images_are_refused_or_round_trip(
        base in 0..3usize,
        edits in vec(edit(3), 1..4),
    ) {
        let mut image = bases()[base].clone();
        for (edit, at) in &edits {
            apply(&mut image, edit, *at);
        }
        check(&image);
    }

    /// One payload of a valid image edited and the image packed again
    /// around it, every length and both checksums right: what only the
    /// section validators behind the checksums can refuse.
    #[test]
    fn edited_payloads_behind_valid_checksums_are_refused_or_round_trip(
        base in 0..3usize,
        section in 0..3usize,
        edits in vec(edit(4), 1..3),
        version in 0..VERSIONS.len(),
    ) {
        let mut payloads = payloads_of(&bases()[base]);
        for (edit, at) in &edits {
            apply(&mut payloads[section], edit, *at);
        }
        check(&pack(VERSIONS[version], &payloads));
    }
}

#[test]
fn every_truncation_of_every_base_image_is_an_error() {
    for base in bases() {
        for cut in 0..base.len() {
            assert!(!check(&base[..cut]), "a {cut}-byte prefix of {} bytes decoded", base.len());
        }
    }
}
