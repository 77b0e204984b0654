//! Atomic counters, gauges, and fixed-bucket latency histograms.
//!
//! All three are cheap enough for hot paths: a handle is an `Arc` around
//! atomics, so recording never takes a lock. Handles are obtained from a
//! [`crate::registry::Registry`] (one lock per *lookup*, so hoist the
//! lookup out of loops) and values commute, which is what makes counter
//! totals bit-identical regardless of how a sweep is partitioned over
//! threads.
//!
//! Histograms additionally keep three cheap sidecars that sharpen the
//! tail without slowing the record path:
//!
//! - an exact-sample reservoir of the first [`RAW_SAMPLES`] observations,
//!   so percentiles of small populations are *exact* instead of
//!   bucket-bound estimates;
//! - a running maximum, which clamps the top bucket's interpolation;
//! - one **exemplar** slot per bucket (trace id, origin AS, exact value)
//!   so an exported p99 can name the concrete request behind it.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing event tally.
#[derive(Clone, Debug, Default)]
pub struct Counter(pub(crate) Arc<AtomicU64>);

impl Counter {
    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-writer-wins instantaneous value (thread counts, sizes).
#[derive(Clone, Debug, Default)]
pub struct Gauge(pub(crate) Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjusts the value by `delta`.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub(crate) fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: powers of two from 1 µs up to ~67 s,
/// plus a final overflow bucket.
pub(crate) const HISTOGRAM_BUCKETS: usize = 28;

/// Exact observations kept per histogram: while a histogram holds at most
/// this many samples, its percentiles are computed from the raw values
/// and are exact (a p99 over 60 samples is the 60th sample, not the
/// upper bound of its power-of-two bucket).
pub(crate) const RAW_SAMPLES: usize = 128;

/// Upper bound (inclusive) of bucket `i` in microseconds; the last bucket
/// is unbounded and reports `u64::MAX`.
pub(crate) fn bucket_bound_us(i: usize) -> u64 {
    if i + 1 >= HISTOGRAM_BUCKETS {
        u64::MAX
    } else {
        1u64 << i
    }
}

/// One tail-latency exemplar: the concrete observation currently
/// representing a bucket, carrying enough identity (trace id, origin AS)
/// to find the request behind a percentile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// Trace id of the request that recorded this observation (nonzero).
    pub trace_id: u64,
    /// Origin AS the request was about (0 when not applicable).
    pub origin: u64,
    /// The exact observed value, microseconds.
    pub value_us: u64,
}

/// A fixed-bucket histogram for microsecond latencies.
///
/// Buckets are powers of two, so recording is a `leading_zeros` plus a
/// handful of relaxed atomic stores — no allocation, no locks.
/// Percentiles are exact while the population fits the raw reservoir
/// (see `RAW_SAMPLES`), and linearly interpolated within the target
/// bucket (clamped by the recorded maximum) beyond that.
#[derive(Debug)]
pub struct Histogram {
    pub(crate) buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    pub(crate) count: AtomicU64,
    pub(crate) sum_us: AtomicU64,
    pub(crate) max_us: AtomicU64,
    /// First observations, stored as `value + 1` (0 = empty slot) so a
    /// legitimate 0 µs sample is distinguishable from an unwritten slot.
    pub(crate) raw: [AtomicU64; RAW_SAMPLES],
    pub(crate) raw_next: AtomicU64,
    /// Per-bucket exemplar slots; `id == 0` means the slot is empty.
    pub(crate) ex_id: [AtomicU64; HISTOGRAM_BUCKETS],
    pub(crate) ex_origin: [AtomicU64; HISTOGRAM_BUCKETS],
    pub(crate) ex_value: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
            raw: std::array::from_fn(|_| AtomicU64::new(0)),
            raw_next: AtomicU64::new(0),
            ex_id: std::array::from_fn(|_| AtomicU64::new(0)),
            ex_origin: std::array::from_fn(|_| AtomicU64::new(0)),
            ex_value: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Index of the bucket covering `us`.
    #[inline]
    fn bucket_of(us: u64) -> usize {
        // Bucket i covers (2^(i-1), 2^i]; values 0 and 1 land in bucket 0.
        let idx = 64 - us.max(1).leading_zeros() as usize - 1;
        let idx = if us.is_power_of_two() || us <= 1 { idx } else { idx + 1 };
        idx.min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one observation of `us` microseconds.
    #[inline]
    pub fn record_us(&self, us: u64) {
        self.buckets[Self::bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
        let slot = self.raw_next.fetch_add(1, Ordering::Relaxed);
        if (slot as usize) < RAW_SAMPLES {
            // `+1` so an all-zero slot still reads as "written".
            self.raw[slot as usize].store(us.saturating_add(1).max(1), Ordering::Relaxed);
        }
    }

    /// Records one observation and installs it as the exemplar of its
    /// bucket. The exemplar slot is last-writer-wins across threads; a
    /// torn (id, origin, value) triple under contention merely names a
    /// *different real request* from the same bucket, which is still a
    /// valid exemplar.
    #[inline]
    pub fn record_us_tagged(&self, us: u64, trace_id: u64, origin: u64) {
        self.record_us(us);
        if trace_id != 0 {
            let b = Self::bucket_of(us);
            self.ex_value[b].store(us, Ordering::Relaxed);
            self.ex_origin[b].store(origin, Ordering::Relaxed);
            self.ex_id[b].store(trace_id, Ordering::Relaxed);
        }
    }

    /// Records a [`std::time::Duration`].
    #[inline]
    pub fn record(&self, d: std::time::Duration) {
        self.record_us(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, microseconds.
    pub(crate) fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Largest observation so far, microseconds (0 when empty).
    pub(crate) fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    /// The raw reservoir, sorted — complete (and therefore usable for
    /// exact percentiles) only while `count() <= RAW_SAMPLES`.
    pub(crate) fn raw_sorted(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .raw
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .filter(|&v| v != 0)
            .map(|v| v - 1)
            .collect();
        out.sort_unstable();
        out
    }

    /// The current exemplar of bucket `i`, if one was ever installed.
    pub(crate) fn exemplar(&self, i: usize) -> Option<Exemplar> {
        let id = self.ex_id[i].load(Ordering::Relaxed);
        if id == 0 {
            return None;
        }
        Some(Exemplar {
            trace_id: id,
            origin: self.ex_origin[i].load(Ordering::Relaxed),
            value_us: self.ex_value[i].load(Ordering::Relaxed),
        })
    }
}

/// Nearest-rank percentile over a sorted sample set — exact by
/// construction. `sorted` must be non-empty.
pub(crate) fn percentile_exact(sorted: &[u64], p: f64) -> u64 {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    sorted[rank.min(n) - 1]
}

/// Percentile estimation for a snapshot's buckets: finds
/// the bucket holding the target rank and interpolates linearly within
/// it. `max_us`, when known, clamps the top occupied bucket (so a p99
/// that lands in the maximum's bucket can never exceed the maximum —
/// previously a sub-100-sample p99 collapsed to the bucket's upper
/// bound, up to 2x above any real observation).
pub(crate) fn percentile_from_buckets(
    counts: &[u64],
    p: f64,
    max_us: Option<u64>,
) -> Option<u64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let target = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
    let top = counts.iter().rposition(|&c| c != 0).unwrap_or(0);
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        seen += c;
        if seen < target {
            continue;
        }
        let lower = if i == 0 { 0 } else { bucket_bound_us(i - 1) };
        let mut upper = bucket_bound_us(i);
        if i == top {
            if let Some(max) = max_us {
                // The global maximum lives in the top occupied bucket.
                upper = upper.min(max.max(lower));
            }
        }
        if upper == u64::MAX {
            // Overflow bucket with no known maximum: no finite bound.
            return Some(u64::MAX);
        }
        // Rank position within this bucket, 1..=c.
        let r = c - (seen - target);
        let span = (upper - lower) as u128;
        return Some(lower + (span * r as u128 / c as u128) as u64);
    }
    Some(bucket_bound_us(counts.len() - 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::default();
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
    }

    #[test]
    fn bucket_boundaries_are_inclusive_powers_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 2);
        assert_eq!(Histogram::bucket_of(5), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    /// A histogram recording into a registry of its own, and its
    /// percentiles as `/metrics` reads them: off the registry's snapshot.
    fn fresh() -> (Registry, Arc<Histogram>) {
        let reg = Registry::new();
        let h = reg.histogram("h");
        (reg, h)
    }

    fn percentile(reg: &Registry, p: f64) -> Option<u64> {
        reg.snapshot().histograms["h"].percentile_us(p)
    }

    #[test]
    fn small_populations_report_exact_percentiles() {
        let (reg, h) = fresh();
        // 90 fast observations and 10 slow ones — under RAW_SAMPLES, so
        // every percentile is the exact nearest-rank sample, not the
        // bucket's upper bound.
        for _ in 0..90 {
            h.record_us(3);
        }
        for _ in 0..10 {
            h.record_us(5000);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum_us(), 90 * 3 + 10 * 5000);
        assert_eq!(h.max_us(), 5000);
        assert_eq!(percentile(&reg, 50.0), Some(3));
        assert_eq!(percentile(&reg, 90.0), Some(3));
        assert_eq!(percentile(&reg, 99.0), Some(5000), "p99 must be exact, not 8192");
        assert_eq!(percentile(&reg, 99.9), Some(5000));
        assert_eq!(percentile(&reg, 100.0), Some(5000));
        assert_eq!(percentile(&fresh().0, 50.0), None);
    }

    #[test]
    fn zero_valued_samples_are_exact_too() {
        let (reg, h) = fresh();
        for _ in 0..5 {
            h.record_us(0);
        }
        assert_eq!(percentile(&reg, 99.0), Some(0));
    }

    #[test]
    fn large_populations_interpolate_and_clamp_to_max() {
        let (reg, h) = fresh();
        // Overflow the reservoir so the bucket estimator takes over.
        for _ in 0..(RAW_SAMPLES as u64 * 4) {
            h.record_us(3000); // bucket (2048, 4096]
        }
        let p99 = percentile(&reg, 99.0).unwrap();
        assert!(p99 <= 3000, "interpolation must clamp to the observed max, got {p99}");
        assert!(p99 > 2048, "interpolation must stay above the bucket floor, got {p99}");
    }

    #[test]
    fn interpolation_tracks_rank_within_bucket() {
        // No max clamp: 100 samples in bucket (8, 16]; p50 should land
        // mid-bucket, not at the upper bound.
        let counts = {
            let mut c = vec![0u64; HISTOGRAM_BUCKETS];
            c[4] = 100; // (8, 16]
            c
        };
        let p50 = percentile_from_buckets(&counts, 50.0, None).unwrap();
        assert_eq!(p50, 8 + (16 - 8) * 50 / 100);
        let p100 = percentile_from_buckets(&counts, 100.0, None).unwrap();
        assert_eq!(p100, 16);
    }

    #[test]
    fn exemplars_land_in_the_right_bucket() {
        let h = Histogram::new();
        h.record_us_tagged(5000, 0xdead_beef, 15169);
        h.record_us_tagged(3, 0x42, 64512);
        let slow = h.exemplar(Histogram::bucket_of(5000)).unwrap();
        assert_eq!(slow.trace_id, 0xdead_beef);
        assert_eq!(slow.origin, 15169);
        assert_eq!(slow.value_us, 5000);
        let fast = h.exemplar(Histogram::bucket_of(3)).unwrap();
        assert_eq!(fast.trace_id, 0x42);
        // Zero trace ids never install an exemplar.
        let h2 = Histogram::new();
        h2.record_us_tagged(10, 0, 1);
        assert!(h2.exemplar(Histogram::bucket_of(10)).is_none());
        assert_eq!(h2.count(), 1, "the observation itself is still recorded");
    }

    #[test]
    fn record_duration_converts_to_micros() {
        let h = Histogram::new();
        h.record(std::time::Duration::from_millis(2));
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum_us(), 2000);
    }
}
