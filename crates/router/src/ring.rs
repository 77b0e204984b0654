//! Consistent-hash ownership of the origin AS space.
//!
//! Every shard holds the full compiled snapshot (sharding partitions
//! CPU and cache, not data), but each origin has exactly one *owner*
//! shard so its cache entries concentrate on one process and a batch
//! splits deterministically. The ring hashes `vnodes` virtual points
//! per shard onto a 64-bit circle (FNV-1a); an origin belongs to the
//! first point at or after its own hash. Ownership therefore depends
//! only on `(shard count, vnodes)` — router restarts, probe flaps, and
//! shard restarts never reshuffle the mapping.

/// FNV-1a over `bytes` with a splitmix64 finalizer. Plain FNV clusters
/// badly on short sequential keys (exactly what shard ids and ASNs
/// are); the finalizer spreads those clusters over the full 64-bit
/// circle.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58476d1ce4e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d049bb133111eb);
    h ^ (h >> 31)
}

/// Default virtual points per shard; enough that a 3-shard layout's
/// slices stay within a few percent of even.
pub(crate) const DEFAULT_VNODES: u32 = 64;

/// The shard-ownership ring. Cheap to build, immutable afterwards.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point hash, shard id)` sorted by hash.
    points: Vec<(u64, u32)>,
}

impl HashRing {
    /// A ring over `shards` shards with `DEFAULT_VNODES` points each.
    pub fn new(shards: u32) -> HashRing {
        HashRing::with_vnodes(shards, DEFAULT_VNODES)
    }

    /// A ring with an explicit virtual-point count (tests use small
    /// values to exercise skew).
    pub(crate) fn with_vnodes(shards: u32, vnodes: u32) -> HashRing {
        assert!(shards > 0, "a ring needs at least one shard");
        let mut points = Vec::with_capacity((shards * vnodes.max(1)) as usize);
        for shard in 0..shards {
            for vnode in 0..vnodes.max(1) {
                let mut key = [0u8; 8];
                key[..4].copy_from_slice(&shard.to_le_bytes());
                key[4..].copy_from_slice(&vnode.to_le_bytes());
                points.push((fnv1a64(&key), shard));
            }
        }
        points.sort_unstable();
        HashRing { points }
    }

    /// The shard owning `origin`: first ring point clockwise from the
    /// origin's hash (wrapping to the first point past the top).
    pub fn owner(&self, origin: u32) -> u32 {
        let h = fnv1a64(&origin.to_le_bytes());
        let idx = self.points.partition_point(|&(p, _)| p < h);
        self.points[if idx == self.points.len() { 0 } else { idx }].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_total() {
        let a = HashRing::new(3);
        let b = HashRing::new(3);
        for origin in 0..10_000u32 {
            let o = a.owner(origin);
            assert_eq!(o, b.owner(origin));
            assert!(o < 3);
        }
    }

    #[test]
    fn reasonably_balanced() {
        let ring = HashRing::new(3);
        let mut counts = [0usize; 3];
        for origin in 1..=30_000u32 {
            counts[ring.owner(origin) as usize] += 1;
        }
        for &c in &counts {
            // Even split would be 10k; accept a 2x band — consistent
            // hashing trades perfect balance for stability.
            assert!((5_000..20_000).contains(&c), "skewed slice: {counts:?}");
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        let ring = HashRing::new(1);
        for origin in [0u32, 1, 174, 3356, u32::MAX] {
            assert_eq!(ring.owner(origin), 0);
        }
    }
}
