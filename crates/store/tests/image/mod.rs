//! The container format written down a second time, independently of
//! `flatnet_store::format`: how the attacks in `fuzz.rs` and the faults in
//! `fault_injection.rs` build the images they feed the decoder.

use flatnet_store::crc32::crc32;

pub const MAGIC: &[u8; 8] = b"FNSNAP\r\n";

/// A container holding `payloads` under wire ids 1.., every offset,
/// length and checksum right.
pub fn pack(version: u32, payloads: &[Vec<u8>]) -> Vec<u8> {
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
pub fn payloads_of(image: &[u8]) -> Vec<Vec<u8>> {
    let word = |at: usize| u64::from_le_bytes(image[at..at + 8].try_into().unwrap()) as usize;
    (0..3).map(|i| image[word(16 + 24 * i + 8)..][..word(16 + 24 * i + 16)].to_vec()).collect()
}

/// Puts the header checksum right for the section count the image
/// claims (at most 8), so an edit of the header or the table meets the
/// checks behind the checksum. Returns whether the image was long enough.
pub fn seal(image: &mut [u8]) -> bool {
    let Some(count) = image.get(12..16) else { return false };
    let table_end = 16 + 24 * u32::from_le_bytes(count.try_into().unwrap()).min(8) as usize;
    if image.len() < table_end + 4 {
        return false;
    }
    let crc = crc32(&image[..table_end]);
    image[table_end..table_end + 4].copy_from_slice(&crc.to_le_bytes());
    true
}

/// A checked-in image from `tests/data`.
pub fn fixture(name: &str) -> Vec<u8> {
    let path = format!("{}/tests/data/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{path} is checked in: {e}"))
}
