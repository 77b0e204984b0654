//! The binary container: magic, format version, checksummed section
//! table, length-prefixed checksummed payloads.
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"FNSNAP\r\n"  (the \r\n catches newline mangling)
//! 8       4     format version, u32 LE (currently 2)
//! 12      4     section count, u32 LE
//! 16      24*k  section table: { id u32, crc32 u32, offset u64, len u64 }
//! 16+24k  4     crc32 over bytes [0, 16+24k)
//! ...           section payloads, contiguous, in table order
//! ```
//!
//! Everything is little-endian. The decoder bounds-checks every length
//! and offset with checked arithmetic before touching a payload, and
//! requires the table to list exactly the known sections, ascending, with
//! payloads packed contiguously — so a truncation, a reordering, or any
//! trailing garbage is a typed error, never an out-of-bounds read and
//! never a silently-ignored region. Inside a payload, [`crate::codec`]
//! reads through `flatnet_asgraph::ingest::ByteReader`, the one
//! bounds-checked reader every binary input shares; this module has
//! none of its own.

use crate::crc32::crc32;
use crate::error::{SectionId, StoreError};

/// The 8-byte file magic.
pub(crate) const MAGIC: &[u8; 8] = b"FNSNAP\r\n";
/// The format version this build reads and writes.
pub(crate) const FORMAT_VERSION: u32 = 2;
/// Fixed header bytes before the section table.
pub(crate) const FIXED_HEADER: usize = 16;
/// Bytes per section-table entry.
pub(crate) const TABLE_ENTRY: usize = 24;

/// The sections every store file must contain, in table order.
pub(crate) const REQUIRED_SECTIONS: [SectionId; 3] =
    [SectionId::Meta, SectionId::Graph, SectionId::Tiers];

fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

fn read_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes([
        b[at],
        b[at + 1],
        b[at + 2],
        b[at + 3],
        b[at + 4],
        b[at + 5],
        b[at + 6],
        b[at + 7],
    ])
}

/// Splits a container into its verified section payloads, in
/// [`REQUIRED_SECTIONS`] order. Every structural and checksum violation
/// is a typed [`StoreError`]; no input can make this panic or read out
/// of bounds.
pub(crate) fn unpack(bytes: &[u8]) -> Result<Vec<(SectionId, &[u8])>, StoreError> {
    if bytes.len() < FIXED_HEADER {
        return Err(StoreError::TruncatedHeader { len: bytes.len(), need: FIXED_HEADER });
    }
    if &bytes[..8] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = read_u32(bytes, 8);
    let count = read_u32(bytes, 12) as usize;
    // The table extent must be known before the header CRC can be
    // checked, so a truncated table reports as truncation, and a version
    // we cannot read reports as such only once the header verifies.
    let table_end = FIXED_HEADER
        .checked_add(count.checked_mul(TABLE_ENTRY).ok_or(StoreError::BadSectionTable {
            detail: format!("section count {count} overflows"),
        })?)
        .ok_or(StoreError::BadSectionTable { detail: format!("section count {count} overflows") })?;
    let header_end = table_end
        .checked_add(4)
        .ok_or(StoreError::BadSectionTable { detail: "header size overflows".into() })?;
    if bytes.len() < header_end {
        return Err(StoreError::TruncatedHeader { len: bytes.len(), need: header_end });
    }
    let stored_crc = read_u32(bytes, table_end);
    if crc32(&bytes[..table_end]) != stored_crc {
        return Err(StoreError::HeaderChecksum);
    }
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion { found: version });
    }
    if count != REQUIRED_SECTIONS.len() {
        return Err(StoreError::BadSectionTable {
            detail: format!("{count} sections, want {}", REQUIRED_SECTIONS.len()),
        });
    }

    let mut sections = Vec::with_capacity(count);
    let mut expect_offset = header_end as u64;
    for (i, &want_id) in REQUIRED_SECTIONS.iter().enumerate() {
        let at = FIXED_HEADER + i * TABLE_ENTRY;
        let id = read_u32(bytes, at);
        let payload_crc = read_u32(bytes, at + 4);
        let offset = read_u64(bytes, at + 8);
        let len = read_u64(bytes, at + 16);
        if SectionId::from_wire(id) != Some(want_id) {
            return Err(StoreError::BadSectionTable {
                detail: format!(
                    "entry {i} has id {id}, want '{}' ({})",
                    want_id.name(),
                    want_id.wire()
                ),
            });
        }
        if offset != expect_offset {
            return Err(StoreError::BadSectionTable {
                detail: format!(
                    "section '{}' at offset {offset}, want contiguous {expect_offset}",
                    want_id.name()
                ),
            });
        }
        let end = offset.checked_add(len).ok_or_else(|| StoreError::BadSectionTable {
            detail: format!("section '{}' extent overflows", want_id.name()),
        })?;
        if end > bytes.len() as u64 {
            return Err(StoreError::BadSectionTable {
                detail: format!(
                    "section '{}' ends at {end} but the file has {} bytes",
                    want_id.name(),
                    bytes.len()
                ),
            });
        }
        let payload = &bytes[offset as usize..end as usize];
        if crc32(payload) != payload_crc {
            return Err(StoreError::SectionChecksum { section: want_id });
        }
        sections.push((want_id, payload));
        expect_offset = end;
    }
    if expect_offset != bytes.len() as u64 {
        return Err(StoreError::TrailingBytes {
            extra: (bytes.len() as u64 - expect_offset) as usize,
        });
    }
    Ok(sections)
}

// ---------------------------------------------------------------------
// The image writer. Payloads are read back through
// `flatnet_asgraph::ingest::ByteReader`, as every binary input is.
// ---------------------------------------------------------------------

/// Writes a container image into one buffer. The header and the section
/// table are laid out first and filled in by [`Enc::finish`]; each
/// section's little-endian fields are appended straight behind them, so
/// no payload is built somewhere else and copied in.
pub(crate) struct Enc {
    buf: Vec<u8>,
    /// Table slots laid out in the header.
    slots: usize,
    /// The sections begun so far, with where each payload starts.
    sections: Vec<(SectionId, usize)>,
}

impl Enc {
    /// An image of `sections` sections whose payloads total
    /// `payload_bytes` (a reservation: the buffer grows if it was short).
    pub(crate) fn new(sections: usize, payload_bytes: usize) -> Self {
        let header_end = FIXED_HEADER + sections * TABLE_ENTRY + 4;
        let mut buf = Vec::with_capacity(header_end + payload_bytes);
        buf.resize(header_end, 0);
        Enc { buf, slots: sections, sections: Vec::with_capacity(sections) }
    }

    /// Ends the current section, if any, and begins section `id`.
    pub(crate) fn section(&mut self, id: SectionId) {
        assert!(self.sections.len() < self.slots, "more sections than the table was laid out for");
        self.sections.push((id, self.buf.len()));
    }

    /// Appends a `u8`.
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32` LE.
    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` LE.
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Fills in the header, the section table and the checksums, and
    /// returns the finished image.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        assert_eq!(self.sections.len(), self.slots, "fewer sections than the table was laid out for");
        let table_end = FIXED_HEADER + self.slots * TABLE_ENTRY;
        self.buf[..8].copy_from_slice(MAGIC);
        self.buf[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        self.buf[12..16].copy_from_slice(&(self.slots as u32).to_le_bytes());
        for i in 0..self.slots {
            let (id, start) = self.sections[i];
            let end = self.sections.get(i + 1).map_or(self.buf.len(), |&(_, next)| next);
            let crc = crc32(&self.buf[start..end]);
            let entry = &mut self.buf[FIXED_HEADER + i * TABLE_ENTRY..][..TABLE_ENTRY];
            entry[..4].copy_from_slice(&id.wire().to_le_bytes());
            entry[4..8].copy_from_slice(&crc.to_le_bytes());
            entry[8..16].copy_from_slice(&(start as u64).to_le_bytes());
            entry[16..].copy_from_slice(&((end - start) as u64).to_le_bytes());
        }
        let header_crc = crc32(&self.buf[..table_end]);
        self.buf[table_end..table_end + 4].copy_from_slice(&header_crc.to_le_bytes());
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flatnet_asgraph::ingest::ByteReader;

    fn tiny() -> Vec<u8> {
        let payloads: [(SectionId, &[u8]); 3] = [
            (SectionId::Meta, &[1, 2, 3]),
            (SectionId::Graph, &[]),
            (SectionId::Tiers, &[6; 10]),
        ];
        let mut enc = Enc::new(payloads.len(), 13);
        for (id, payload) in payloads {
            enc.section(id);
            payload.iter().for_each(|&b| enc.u8(b));
        }
        enc.finish()
    }

    #[test]
    fn u32s_move_as_little_endian_words() {
        let words = [1u32, 0x0403_0201, u32::MAX];
        let mut enc = Enc::new(REQUIRED_SECTIONS.len(), 0);
        REQUIRED_SECTIONS.iter().for_each(|&id| enc.section(id));
        words.iter().for_each(|&w| enc.u32(w));
        let bytes = enc.finish();
        let last = unpack(&bytes).unwrap()[2].1;
        assert_eq!(last, [1, 0, 0, 0, 1, 2, 3, 4, 255, 255, 255, 255]);
        let mut r = ByteReader::new("payload", last);
        assert_eq!(words.map(|_| r.u32_le("word").unwrap()), words);
        assert!(r.expect_end("payload").is_ok());
    }

    #[test]
    fn pack_unpack_round_trip() {
        let bytes = tiny();
        let sections = unpack(&bytes).unwrap();
        assert_eq!(sections.len(), 3);
        assert_eq!(sections[0], (SectionId::Meta, &[1u8, 2, 3][..]));
        assert_eq!(sections[1].1, &[0u8; 0][..]);
        assert_eq!(sections[2].1, &[6u8; 10][..]);
    }

    #[test]
    fn every_prefix_truncation_is_a_typed_error() {
        let bytes = tiny();
        for cut in 0..bytes.len() {
            let err = unpack(&bytes[..cut]).expect_err(&format!("accepted {cut}-byte prefix"));
            // Any error variant is fine; the point is no panic and no Ok.
            let _ = err.to_string();
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = tiny();
        bytes.push(0);
        assert!(matches!(unpack(&bytes), Err(StoreError::TrailingBytes { extra: 1 })));
    }
}
