//! Corruption fault injection: systematic mutations of a valid store
//! image, plus a runner asserting the decoder degrades to typed errors.
//!
//! The corpus is deterministic (no RNG): truncation at every section
//! boundary and at structurally interesting header offsets, at least
//! three bit-flips per non-empty section plus flips in every header
//! field, a zeroed header, swapped section ids and checksums (with the
//! header checksum recomputed so the *semantic* check is what trips,
//! not the checksum), a format-version skew, trailing garbage, and a
//! family of *checksum-valid* payload edits (section and header CRCs
//! recomputed) that only the semantic validators behind the checksums
//! can catch: non-canonical edge lists, out-of-range ids, overlapping
//! tier sets.
//! This mirrors how PR 3/5 pinned the propagation engines: the decoder
//! is pinned against the full corpus in CI, so a refactor that makes
//! any corruption panic — or worse, load — fails the build.

use crate::codec::{decode, EDGE_RECORD};
use crate::crc32::crc32;
use crate::format::{FIXED_HEADER, TABLE_ENTRY};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One corrupted image and the mutation that produced it.
pub struct Fault {
    /// What was done to the valid image.
    pub name: String,
    /// The mutated image.
    pub bytes: Vec<u8>,
}

fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

fn read_u64(b: &[u8], at: usize) -> u64 {
    let mut v = [0u8; 8];
    v.copy_from_slice(&b[at..at + 8]);
    u64::from_le_bytes(v)
}

/// Recomputes the header CRC after a deliberate header/table mutation,
/// so the mutated file exercises the semantic validation behind the
/// checksum instead of the checksum itself.
fn fix_header_crc(bytes: &mut [u8]) {
    let count = read_u32(bytes, 12) as usize;
    let table_end = FIXED_HEADER + count * TABLE_ENTRY;
    if bytes.len() >= table_end + 4 {
        let crc = crc32(&bytes[..table_end]);
        bytes[table_end..table_end + 4].copy_from_slice(&crc.to_le_bytes());
    }
}

/// Recomputes section `index`'s CRC in the table after a deliberate
/// payload mutation, then the header CRC over the changed table: the
/// image passes every checksum and only the section's own validation
/// can refuse it.
fn fix_section_crc(bytes: &mut [u8], index: usize) {
    let at = FIXED_HEADER + index * TABLE_ENTRY;
    let start = read_u64(bytes, at + 8) as usize;
    let len = read_u64(bytes, at + 16) as usize;
    let crc = crc32(&bytes[start..start + len]);
    bytes[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
    fix_header_crc(bytes);
}

fn write_u32(b: &mut [u8], at: usize, v: u32) {
    b[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// Checksum-valid semantic faults: each edits a few payload bytes of one
/// section of a valid image and re-fixes both CRCs. Offsets follow the
/// section layouts `codec` writes; an edit whose precondition the image
/// does not meet (too few edges, an empty tier set) is left out.
fn semantic_faults(valid: &[u8], extents: &[(String, usize, usize)]) -> Vec<Fault> {
    const GRAPH: usize = 1;
    const TIERS: usize = 2;
    let mut out = Vec::new();
    let mut edit = |name: &str, section: usize, f: &dyn Fn(&mut [u8])| {
        let mut bytes = valid.to_vec();
        f(&mut bytes);
        fix_section_crc(&mut bytes, section);
        out.push(Fault { name: format!("checksum-valid: {name}"), bytes });
    };

    // Graph: n, m, asns[n], then m records of (a u32, b u32, rel u8).
    let g = extents[GRAPH].1;
    let n = read_u32(valid, g);
    let m = read_u32(valid, g + 4) as usize;
    let asn_at = |i: usize| g + 8 + 4 * i;
    let edge_at = |i: usize| g + 8 + 4 * n as usize + EDGE_RECORD * i;
    if m >= 2 {
        edit("duplicate edge", GRAPH, &|b| b.copy_within(edge_at(0)..edge_at(1), edge_at(1)));
        edit("adjacent edges swapped", GRAPH, &|b| {
            let (first, second) = b[edge_at(0)..edge_at(2)].split_at_mut(EDGE_RECORD);
            first.swap_with_slice(second);
        });
    }
    if let Some(peer) = (0..m).find(|&i| valid[edge_at(i) + 8] == 1) {
        edit("p2p edge stored high endpoint first", GRAPH, &|b| {
            let at = edge_at(peer);
            let (a, z) = b[at..at + 8].split_at_mut(4);
            a.swap_with_slice(z);
        });
    }
    if m >= 1 {
        edit("edge endpoint == n", GRAPH, &|b| write_u32(b, edge_at(0) + 4, n));
        edit("self-loop", GRAPH, &|b| b.copy_within(edge_at(0)..edge_at(0) + 4, edge_at(0) + 4));
    }
    if n >= 2 {
        edit("asn table entries swapped", GRAPH, &|b| {
            let (x, y) = (read_u32(b, asn_at(0)), read_u32(b, asn_at(1)));
            write_u32(b, asn_at(0), y);
            write_u32(b, asn_at(1), x);
        });
    }

    // Tiers: |t1|, |t2|, t1 ids, t2 ids (each strictly ascending).
    let t = extents[TIERS].1;
    let (t1, t2) = (read_u32(valid, t) as usize, read_u32(valid, t + 4) as usize);
    let tier_at = |i: usize| t + 8 + 4 * i;
    if t1 + t2 >= 1 {
        // The last id of a set may grow without breaking its order.
        let last = if t1 >= 1 { t1 - 1 } else { t2 - 1 };
        edit("tier id == n", TIERS, &|b| write_u32(b, tier_at(last), n));
    }
    if t1 >= 1 && t2 >= 1 {
        // Lowering a set's first id keeps it ascending too.
        let low = read_u32(valid, tier_at(0)).min(read_u32(valid, tier_at(t1)));
        edit("tier member in both sets", TIERS, &|b| {
            write_u32(b, tier_at(0), low);
            write_u32(b, tier_at(t1), low);
        });
    }
    out
}

/// Section boundaries of a valid image: `(name, start, end)` per
/// section, read straight from its table.
fn section_extents(valid: &[u8]) -> Vec<(String, usize, usize)> {
    let count = read_u32(valid, 12) as usize;
    (0..count)
        .map(|i| {
            let at = FIXED_HEADER + i * TABLE_ENTRY;
            let id = read_u32(valid, at);
            let start = read_u64(valid, at + 8) as usize;
            let len = read_u64(valid, at + 16) as usize;
            (format!("section{id}"), start, start + len)
        })
        .collect()
}

/// Builds the deterministic corruption corpus for a valid store image.
///
/// Panics if `valid` is not a well-formed image (the corpus is built
/// from the real layout, so the input must decode) — harness misuse,
/// not a runtime condition.
pub fn corruption_corpus(valid: &[u8]) -> Vec<Fault> {
    decode(valid).expect("corruption_corpus needs a valid store image");
    let extents = section_extents(valid);
    let count = extents.len();
    let table_end = FIXED_HEADER + count * TABLE_ENTRY;
    let header_end = table_end + 4;
    let mut corpus = Vec::new();
    let mut push = |name: String, bytes: Vec<u8>| corpus.push(Fault { name, bytes });

    // --- Truncations: every section boundary plus header landmarks. ---
    let mut cuts: Vec<(String, usize)> = vec![
        ("empty file".into(), 0),
        ("mid-magic".into(), 4),
        ("after fixed header".into(), FIXED_HEADER),
        ("mid-table".into(), FIXED_HEADER + TABLE_ENTRY + 7),
        ("before header crc".into(), table_end),
        ("after header".into(), header_end),
        ("last byte missing".into(), valid.len() - 1),
    ];
    for (name, start, end) in &extents {
        cuts.push((format!("at {name} start"), *start));
        cuts.push((format!("inside {name}"), start + (end - start) / 2));
        cuts.push((format!("at {name} end"), *end));
    }
    cuts.sort_by_key(|&(_, c)| c);
    // Adjacent sections share a boundary; keep one cut with both names.
    cuts.dedup_by(|(name_b, b), (name_a, a)| {
        if a == b {
            name_a.push_str(" / ");
            name_a.push_str(name_b);
            true
        } else {
            false
        }
    });
    for (what, cut) in cuts {
        if cut < valid.len() {
            push(format!("truncate[{cut}] {what}"), valid[..cut].to_vec());
        }
    }

    // --- Bit flips: ≥3 per non-empty section, plus header fields. ---
    let mut flips: Vec<(String, usize)> = vec![
        ("magic".into(), 0),
        ("format version".into(), 8),
        ("section count".into(), 12),
        ("table entry id".into(), FIXED_HEADER),
        ("table entry offset".into(), FIXED_HEADER + 8),
        ("table entry length".into(), FIXED_HEADER + 16),
        ("header crc".into(), table_end),
    ];
    for (name, start, end) in &extents {
        if end > start {
            flips.push((format!("{name} first byte"), *start));
            flips.push((format!("{name} middle byte"), start + (end - start) / 2));
            flips.push((format!("{name} last byte"), end - 1));
        }
    }
    for (what, at) in flips {
        for bit in [0u8, 7] {
            let mut bytes = valid.to_vec();
            bytes[at] ^= 1 << bit;
            push(format!("bitflip[{at}.{bit}] {what}"), bytes);
        }
    }

    // --- Zeroed header. ---
    let mut bytes = valid.to_vec();
    bytes[..FIXED_HEADER].fill(0);
    push("zeroed header".into(), bytes);

    // --- Swapped section order (ids swapped, header crc fixed up so the
    //     table-order validation is what trips). ---
    for i in 0..count.saturating_sub(1) {
        let mut bytes = valid.to_vec();
        let a = FIXED_HEADER + i * TABLE_ENTRY;
        let b = a + TABLE_ENTRY;
        for k in 0..4 {
            bytes.swap(a + k, b + k);
        }
        fix_header_crc(&mut bytes);
        push(format!("swap section ids {i}<->{}", i + 1), bytes);
    }

    // --- Swapped section checksums (payloads no longer match). ---
    if count >= 2 {
        let mut bytes = valid.to_vec();
        let a = FIXED_HEADER + 4;
        let b = FIXED_HEADER + TABLE_ENTRY + 4;
        for k in 0..4 {
            bytes.swap(a + k, b + k);
        }
        fix_header_crc(&mut bytes);
        push("swap section crcs 0<->1".into(), bytes);
    }

    // --- Format-version skew (header crc fixed, so the version check
    //     itself is exercised). ---
    let mut bytes = valid.to_vec();
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    fix_header_crc(&mut bytes);
    push("format version 99".into(), bytes);

    // --- Trailing garbage. ---
    let mut bytes = valid.to_vec();
    bytes.extend_from_slice(b"\0garbage");
    push("trailing garbage".into(), bytes);

    // --- Checksum-valid payload edits. ---
    corpus.extend(semantic_faults(valid, &extents));

    corpus
}

/// How one injected fault played out.
#[derive(Debug, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Decode returned the typed error named here — the required result.
    TypedError(&'static str),
    /// Decode panicked — always a harness failure.
    Panicked,
    /// Decode accepted the corrupted image — always a harness failure.
    Accepted,
}

/// Result of running one fault through the decoder.
pub struct FaultResult {
    /// The mutation.
    pub name: String,
    /// What the decoder did.
    pub outcome: FaultOutcome,
    /// The error's display form, when there was one.
    pub detail: String,
}

/// Runs every fault in the corpus through the decoder, recording the
/// outcome. The caller asserts that no outcome is `Panicked` or
/// `Accepted`.
pub fn run_corpus(valid: &[u8]) -> Vec<FaultResult> {
    corruption_corpus(valid)
        .into_iter()
        .map(|fault| {
            let outcome = catch_unwind(AssertUnwindSafe(|| decode(&fault.bytes)));
            let (outcome, detail) = match outcome {
                Ok(Err(e)) => (FaultOutcome::TypedError(e.kind()), e.to_string()),
                Ok(Ok(_)) => (FaultOutcome::Accepted, String::new()),
                Err(_) => (FaultOutcome::Panicked, String::new()),
            };
            FaultResult { name: fault.name, outcome, detail }
        })
        .collect()
}

/// Convenience for CLI/CI: runs the corpus and returns
/// `(total, failures)` where failures are panics or accepted images,
/// logging each failure through `report`.
pub fn run_corpus_checked(
    valid: &[u8],
    mut report: impl FnMut(&FaultResult),
) -> (usize, usize) {
    let results = run_corpus(valid);
    let total = results.len();
    let mut failures = 0;
    for r in &results {
        if !matches!(r.outcome, FaultOutcome::TypedError(_)) {
            failures += 1;
        }
        report(r);
    }
    (total, failures)
}
