//! Sharded LRU result cache for query answers.
//!
//! Keys are `(snapshot version, origin, policy fingerprint)`, so a
//! hot-reload never serves stale data: the new snapshot's version makes
//! every old key unreachable (and `/admin/reload` additionally clears the
//! shards so the memory is reclaimed immediately rather than by
//! eviction).
//!
//! Sharding bounds contention: workers hashing to different shards never
//! touch the same mutex. Within a shard, recency is a monotonic stamp
//! bumped on every hit; eviction scans the (small, capacity-bounded)
//! shard for the minimum stamp. That is O(shard size) instead of a
//! linked-list O(1), but shards hold at most a few hundred entries and
//! the scan only runs when a *miss* inserts into a full shard — misses
//! already paid for a full propagation, so the scan is noise.
//!
//! The cache knows its own weight: a weight function given at
//! construction prices each value, and running `entries` and `bytes`
//! totals move with every insert, replace, evict and clear, so
//! `/healthz` reads them in O(1) instead of walking every shard. The
//! same deltas feed the process-wide `serve.cache_entries` /
//! `serve.cache_bytes` gauges (the sum over the process's live caches).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Number of independently locked shards.
pub(crate) const SHARDS: usize = 8;

/// What uniquely identifies a cacheable answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Snapshot version the answer was computed against.
    pub version: u64,
    /// Origin ASN.
    pub origin: u32,
    /// Fingerprint of everything else that shapes the answer (endpoint
    /// and policy knobs); see [`policy_fingerprint`].
    pub fingerprint: u64,
}

/// FNV-1a over the endpoint discriminant and policy bits — cheap, stable
/// across runs, and collision-free in practice for the tiny domain of
/// (endpoint, flag-set) combinations this daemon exposes.
pub fn policy_fingerprint(endpoint: u8, policy_bits: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in std::iter::once(endpoint).chain(policy_bits.to_le_bytes()) {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct Shard<V> {
    map: HashMap<CacheKey, (Arc<V>, u64)>,
}

/// The cache. `V` is the answer payload; entries are handed out as
/// `Arc<V>` so a hit costs one refcount bump and eviction can never pull
/// an answer out from under a renderer.
pub struct ResultCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    per_shard: usize,
    tick: AtomicU64,
    /// Bytes one value keeps alive; a pure function of the value, so an
    /// entry leaving the cache is priced as it was when it entered.
    weight: fn(&V) -> usize,
    /// Running totals over every shard, moved under the shard's lock.
    entries: AtomicI64,
    bytes: AtomicI64,
    hits: flatnet_obs::Counter,
    misses: flatnet_obs::Counter,
    evictions: flatnet_obs::Counter,
    entries_gauge: flatnet_obs::Gauge,
    bytes_gauge: flatnet_obs::Gauge,
}

impl<V> ResultCache<V> {
    /// A cache holding at most `capacity` entries (split across shards;
    /// tiny capacities are rounded up to one entry per shard) whose
    /// values weigh nothing: `Self::bytes` stays 0.
    pub fn new(capacity: usize) -> Self {
        Self::weighted(capacity, |_| 0)
    }

    /// [`Self::new`] with the function that prices a value in bytes.
    pub(crate) fn weighted(capacity: usize, weight: fn(&V) -> usize) -> Self {
        let reg = flatnet_obs::global();
        ResultCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard { map: HashMap::new() })).collect(),
            per_shard: capacity.div_ceil(SHARDS).max(1),
            tick: AtomicU64::new(0),
            weight,
            entries: AtomicI64::new(0),
            bytes: AtomicI64::new(0),
            hits: reg.counter("serve.cache_hit"),
            misses: reg.counter("serve.cache_miss"),
            evictions: reg.counter("serve.cache_evictions"),
            entries_gauge: reg.gauge("serve.cache_entries"),
            bytes_gauge: reg.gauge("serve.cache_bytes"),
        }
    }

    /// Moves the running totals and the process-wide gauges by one
    /// shard-local change.
    fn account(&self, entries: i64, bytes: i64) {
        self.entries.fetch_add(entries, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.entries_gauge.add(entries);
        self.bytes_gauge.add(bytes);
    }

    /// Index of the shard `key` lives in.
    fn shard_of(key: &CacheKey) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() % SHARDS as u64) as usize
    }

    /// Locks shard `si`. A map insert, remove or stamp write leaves the
    /// shard valid at every step, so a lock poisoned by a panicking
    /// holder is safe to keep using: one worker's panic must not turn
    /// every later request hashing here into another.
    fn lock(&self, si: usize) -> MutexGuard<'_, Shard<V>> {
        self.shards[si].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up `key`, bumping its recency. Counts a hit or miss.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<V>> {
        let stamp = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.lock(Self::shard_of(key));
        match shard.map.get_mut(key) {
            Some((v, last)) => {
                *last = stamp;
                self.hits.inc();
                Some(Arc::clone(v))
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Bulk lookup for batch queries: probes every key, returning answers
    /// positionally (`None` = miss). Keys are grouped by shard first, so
    /// a 64-origin batch takes each shard lock once instead of 64 lock
    /// round-trips. Hit/miss counters and recency behave exactly as if
    /// [`ResultCache::get`] had been called per key.
    pub fn probe_many(&self, keys: &[CacheKey]) -> Vec<Option<Arc<V>>> {
        let mut out: Vec<Option<Arc<V>>> = Vec::with_capacity(keys.len());
        out.resize_with(keys.len(), || None);
        let mut by_shard: [Vec<usize>; SHARDS] = std::array::from_fn(|_| Vec::new());
        for (i, key) in keys.iter().enumerate() {
            by_shard[Self::shard_of(key)].push(i);
        }
        for (si, indices) in by_shard.iter().enumerate() {
            if indices.is_empty() {
                continue;
            }
            let mut shard = self.lock(si);
            for &i in indices {
                let stamp = self.tick.fetch_add(1, Ordering::Relaxed);
                match shard.map.get_mut(&keys[i]) {
                    Some((v, last)) => {
                        *last = stamp;
                        self.hits.inc();
                        out[i] = Some(Arc::clone(v));
                    }
                    None => self.misses.inc(),
                }
            }
        }
        out
    }

    /// Inserts `value` under `key`, evicting the shard's least-recently
    /// used entry if it is full.
    pub fn put(&self, key: CacheKey, value: Arc<V>) {
        let stamp = self.tick.fetch_add(1, Ordering::Relaxed);
        let (mut entries, mut bytes) = (1, (self.weight)(&value) as i64);
        let mut shard = self.lock(Self::shard_of(&key));
        if shard.map.len() >= self.per_shard && !shard.map.contains_key(&key) {
            if let Some(oldest) =
                shard.map.iter().min_by_key(|(_, (_, last))| *last).map(|(k, _)| *k)
            {
                if let Some((evicted, _)) = shard.map.remove(&oldest) {
                    entries -= 1;
                    bytes -= (self.weight)(&evicted) as i64;
                }
                self.evictions.inc();
            }
        }
        if let Some((replaced, _)) = shard.map.insert(key, (value, stamp)) {
            entries -= 1;
            bytes -= (self.weight)(&replaced) as i64;
        }
        self.account(entries, bytes);
    }

    /// Drops every entry (used by `/admin/reload`).
    pub(crate) fn clear(&self) {
        for si in 0..SHARDS {
            let mut shard = self.lock(si);
            let bytes: usize = shard.map.values().map(|(v, _)| (self.weight)(v)).sum();
            self.account(-(shard.map.len() as i64), -(bytes as i64));
            shard.map.clear();
        }
    }

    /// Current number of cached entries (the running total).
    pub(crate) fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed) as usize
    }

    /// Bytes the cached values keep alive, by the weight function (the
    /// running total).
    pub(crate) fn bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed) as usize
    }
}

/// The process-wide gauges are sums over live caches: a cache that goes
/// away takes its share with it.
impl<V> Drop for ResultCache<V> {
    fn drop(&mut self) {
        self.entries_gauge.add(-self.entries.load(Ordering::Relaxed));
        self.bytes_gauge.add(-self.bytes.load(Ordering::Relaxed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(origin: u32) -> CacheKey {
        CacheKey { version: 1, origin, fingerprint: policy_fingerprint(1, 0) }
    }

    /// Two keys that hash to the same shard.
    fn two_keys_in_one_shard() -> [CacheKey; 2] {
        let shard_of = ResultCache::<u32>::shard_of;
        let other = (1..64).map(key).find(|k| shard_of(k) == shard_of(&key(0)));
        [key(0), other.expect("64 keys over 8 shards collide")]
    }

    #[test]
    fn hit_returns_inserted_value() {
        let cache: ResultCache<String> = ResultCache::new(16);
        assert!(cache.get(&key(1)).is_none());
        cache.put(key(1), Arc::new("a".into()));
        assert_eq!(cache.get(&key(1)).as_deref(), Some(&"a".to_string()));
        assert!(cache.get(&key(2)).is_none());
    }

    #[test]
    fn distinct_versions_and_fingerprints_do_not_collide() {
        let cache: ResultCache<u32> = ResultCache::new(16);
        let a = CacheKey { version: 1, origin: 7, fingerprint: policy_fingerprint(1, 0) };
        let b = CacheKey { version: 2, origin: 7, fingerprint: policy_fingerprint(1, 0) };
        let c = CacheKey { version: 1, origin: 7, fingerprint: policy_fingerprint(1, 3) };
        cache.put(a, Arc::new(10));
        cache.put(b, Arc::new(20));
        cache.put(c, Arc::new(30));
        assert_eq!(cache.get(&a).as_deref(), Some(&10));
        assert_eq!(cache.get(&b).as_deref(), Some(&20));
        assert_eq!(cache.get(&c).as_deref(), Some(&30));
    }

    #[test]
    fn eviction_prefers_least_recently_used() {
        // Capacity 8 = one entry per shard; inserting two keys that land
        // in the same shard must evict the stale one.
        let cache: ResultCache<u32> = ResultCache::new(SHARDS);
        let [ka, kb] = two_keys_in_one_shard();
        cache.put(ka, Arc::new(1));
        cache.put(kb, Arc::new(2));
        assert!(cache.get(&ka).is_none(), "older entry should have been evicted");
        assert_eq!(cache.get(&kb).as_deref(), Some(&2));
    }

    /// A holder that panics poisons its shard's mutex; the shard keeps
    /// serving — hits, inserts, evictions, bulk probes and clears.
    #[test]
    fn a_poisoned_shard_keeps_serving() {
        let cache: ResultCache<u32> = ResultCache::new(SHARDS);
        let [ka, kb] = two_keys_in_one_shard();
        cache.put(ka, Arc::new(1));
        let si = ResultCache::<u32>::shard_of(&ka);
        let holder = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = cache.shards[si].lock().unwrap();
                panic!("a worker panics holding the shard");
            })
            .join()
        });
        assert!(holder.is_err());
        assert!(cache.shards[si].is_poisoned(), "the panic did not poison the shard");

        assert_eq!(cache.get(&ka).as_deref(), Some(&1));
        assert_eq!(cache.probe_many(&[kb, ka]), vec![None, Some(Arc::new(1))]);
        // One entry per shard: the insert evicts through the poisoned lock.
        cache.put(kb, Arc::new(2));
        assert!(cache.get(&ka).is_none(), "older entry should have been evicted");
        assert_eq!(cache.get(&kb).as_deref(), Some(&2));
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn probe_many_matches_per_key_get() {
        let cache: ResultCache<u32> = ResultCache::new(64);
        for i in (0..32).step_by(2) {
            cache.put(key(i), Arc::new(i));
        }
        let keys: Vec<CacheKey> = (0..32).map(key).collect();
        let bulk = cache.probe_many(&keys);
        for (i, got) in bulk.iter().enumerate() {
            let want = cache.get(&keys[i]);
            assert_eq!(got.as_deref(), want.as_deref(), "key {i}");
            assert_eq!(got.is_some(), i % 2 == 0, "key {i}");
        }
    }

    /// `(entries, bytes)` by walking every shard.
    fn recount(cache: &ResultCache<Vec<u64>>) -> (usize, usize) {
        let (mut entries, mut bytes) = (0, 0);
        for si in 0..SHARDS {
            for (value, _) in cache.lock(si).map.values() {
                entries += 1;
                bytes += (cache.weight)(value);
            }
        }
        (entries, bytes)
    }

    /// Inserts, overwrites of a live key by a value of another size,
    /// evictions and a clear: after every step the running totals are
    /// what a walk over every shard counts.
    #[test]
    fn running_totals_equal_a_full_recount() {
        let cache: ResultCache<Vec<u64>> = ResultCache::weighted(32, |v| 24 + 8 * v.len());
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut overwrites, evictions_before) = (0, cache.evictions.get());
        for step in 0..2_000 {
            // 96 keys over 32 slots: most puts evict, many hit a live key.
            let k = key((next() % 96) as u32);
            let si = ResultCache::<Vec<u64>>::shard_of(&k);
            overwrites += usize::from(cache.lock(si).map.contains_key(&k));
            cache.put(k, Arc::new(vec![0; (next() % 50) as usize]));
            assert_eq!((cache.len(), cache.bytes()), recount(&cache), "after put {step}");
            if step % 700 == 699 {
                cache.clear();
                assert_eq!((cache.len(), cache.bytes()), (0, 0), "after a clear");
                assert_eq!(recount(&cache), (0, 0));
            }
        }
        assert!(overwrites > 100, "only {overwrites} puts replaced a live key");
        assert!(cache.evictions.get() - evictions_before > 100, "too few evictions to count");
        assert!(cache.bytes() > 0);
    }

    #[test]
    fn an_unweighted_cache_counts_entries_and_no_bytes() {
        let cache: ResultCache<Vec<u64>> = ResultCache::new(64);
        for i in 0..32u32 {
            cache.put(key(i), Arc::new(vec![0; i as usize]));
        }
        assert_eq!((cache.len(), cache.bytes()), (32, 0));
    }

    #[test]
    fn clear_empties_every_shard() {
        let cache: ResultCache<u32> = ResultCache::new(64);
        for i in 0..32 {
            cache.put(key(i), Arc::new(i));
        }
        assert_ne!(cache.len(), 0);
        cache.clear();
        assert_eq!(cache.len(), 0);
        assert!(cache.get(&key(0)).is_none());
    }
}
