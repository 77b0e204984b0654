//! Durable store operations: atomic save, verified load, verify.
//!
//! The write protocol is the classic crash-safe ladder: serialize to a
//! sibling temp file, `fsync` the file, `rename` over the target, then
//! `fsync` the containing directory so the rename itself is durable. A
//! crash at any point leaves either the old store intact or the new one
//! complete — never a half-written file under the real name. Each save
//! writes through a temp name of its own, so saves racing on one path
//! (the shards of one `flatnet router --store P`, rebuilding at once)
//! each install a complete image and the last rename wins. A temp file
//! a crash leaves behind stays until removed by hand: the next save
//! writes under a new name.

use crate::codec::{decode, encode, StoredSnapshot};
use crate::error::StoreError;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn io_err(path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Io { path: path.display().to_string(), message: e.to_string() }
}

/// Cap on the store file size `load` will read (a corrupted or
/// mis-pointed path must not OOM the daemon before decoding even
/// starts). 4 GiB holds a CAIDA-scale snapshot ~400× over.
const MAX_FILE_BYTES: u64 = 4 << 30;

/// A temp-file path no other save shares: `<store>.<pid>-<seq>.tmp` in
/// the same directory (same filesystem, so the rename is atomic).
fn temp_path(path: &Path) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".{}-{seq}.tmp", std::process::id()));
    path.with_file_name(name)
}

/// Writes `bytes` to the file at `tmp` and fsyncs it.
fn write_synced(tmp: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut f = OpenOptions::new().write(true).create(true).truncate(true).open(tmp)?;
    f.write_all(bytes)?;
    f.sync_all()
}

/// Atomically writes `snap` to `path`: temp file → fsync → rename →
/// directory fsync. A failed save removes its temp file.
pub fn save_atomic(path: impl AsRef<Path>, snap: &StoredSnapshot) -> Result<(), StoreError> {
    let path = path.as_ref();
    let bytes = encode(snap);
    let tmp = temp_path(path);
    let installed = write_synced(&tmp, &bytes)
        .map_err(|e| io_err(&tmp, e))
        .and_then(|()| fs::rename(&tmp, path).map_err(|e| io_err(path, e)));
    if installed.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    installed?;
    // Make the rename durable: fsync the directory entry's parent.
    // Directory fsync is a Unix-ism; on platforms where opening a
    // directory fails, the rename alone is the best available.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Reads and fully verifies a store file: size cap, header and section
/// checksums, and structural validation of every section. Returns the
/// decoded snapshot, ready to serve. Never
/// panics on any input.
pub fn load(path: impl AsRef<Path>) -> Result<StoredSnapshot, StoreError> {
    let path = path.as_ref();
    let meta = fs::metadata(path).map_err(|e| io_err(path, e))?;
    if meta.len() > MAX_FILE_BYTES {
        return Err(StoreError::Io {
            path: path.display().to_string(),
            message: format!("{} bytes exceeds the {MAX_FILE_BYTES}-byte store cap", meta.len()),
        });
    }
    let bytes = fs::read(path).map_err(|e| io_err(path, e))?;
    decode(&bytes)
}

/// What [`verify`] found in a healthy store.
#[derive(Debug)]
pub struct VerifyReport {
    /// Snapshot version recorded in the store.
    pub version: u64,
    /// Node count.
    pub nodes: usize,
    /// Undirected link count.
    pub links: usize,
    /// Tier-1 / Tier-2 set sizes.
    pub tier_sizes: (usize, usize),
    /// File size in bytes.
    pub file_bytes: u64,
}

/// Verifies a store file: exactly the [`load`] a warm start runs
/// (checksums + structural validation), summarised. `_deep` is accepted
/// and has no effect: the file holds nothing derived, so there is
/// nothing a deeper pass could cross-check (the parameter stays while
/// `benchmark/`'s replay passes it).
pub fn verify(path: impl AsRef<Path>, _deep: bool) -> Result<VerifyReport, StoreError> {
    let path = path.as_ref();
    let file_bytes = fs::metadata(path).map_err(|e| io_err(path, e))?.len();
    let snap = load(path)?;
    Ok(VerifyReport {
        version: snap.version,
        nodes: snap.graph.len(),
        links: snap.graph.edge_count(),
        tier_sizes: (snap.tiers.tier1().len(), snap.tiers.tier2().len()),
        file_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flatnet_asgraph::{AsGraphBuilder, AsId, Relationship, Tiers};
    use flatnet_bgpsim::TopologySnapshot;

    fn sample() -> StoredSnapshot {
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(1), AsId(2), Relationship::P2c);
        b.add_link(AsId(1), AsId(3), Relationship::P2c);
        b.add_link(AsId(2), AsId(3), Relationship::P2p);
        let graph = b.build();
        let tiers = Tiers::from_lists(&graph, &[AsId(1)], &[AsId(2)]);
        let topo = TopologySnapshot::compile(&graph);
        StoredSnapshot { version: 3, graph, tiers, topo }
    }

    #[test]
    fn save_load_verify_round_trip() {
        let dir = std::env::temp_dir().join(format!("flatnet-store-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.store");
        let snap = sample();
        save_atomic(&path, &snap).unwrap();
        // No temp file left behind.
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        let back = load(&path).unwrap();
        assert_eq!(back.version, 3);
        assert!(back.graph.edges().eq(snap.graph.edges()));
        let report = verify(&path, true).unwrap();
        assert_eq!(report.nodes, 3);
        assert_eq!(report.links, 3);
        // Saving over an existing store is atomic and keeps it loadable.
        save_atomic(&path, &StoredSnapshot { version: 4, ..snap }).unwrap();
        assert_eq!(load(&path).unwrap().version, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = load("/nonexistent/flatnet.store").unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
        assert!(err.to_string().contains("/nonexistent"));
    }
}
