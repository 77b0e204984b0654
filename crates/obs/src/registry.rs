//! The thread-safe metric registry and the process-wide default instance.
//!
//! A [`Registry`] owns every counter, gauge, and histogram.
//! Lookup by name takes a short lock and hands back an `Arc`-based handle
//! that records lock-free afterwards; hot paths should look a handle up
//! once, outside their loop. Library code records into [`global()`];
//! tests that need isolation construct their own `Registry`.

use crate::metrics::{Counter, Gauge, Histogram, HISTOGRAM_BUCKETS};
use crate::snapshot::{HistogramSnapshot, Snapshot};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Locks one of the crate's metric tables. An insert, a tally or a push
/// leaves a table valid at every step, so a lock poisoned by a panicking
/// holder is safe to keep using — and must be: recording runs outside the
/// daemon's per-request `catch_unwind`.
pub(crate) fn lock<T>(table: &Mutex<T>) -> MutexGuard<'_, T> {
    table.lock().unwrap_or_else(|e| e.into_inner())
}

/// A thread-safe collection of named metrics.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = lock(&self.counters);
        map.entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = lock(&self.gauges);
        map.entry(name.to_string()).or_default().clone()
    }

    /// The histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = lock(&self.histograms);
        map.entry(name.to_string()).or_insert_with(|| Arc::new(Histogram::new())).clone()
    }

    /// A point-in-time copy of every metric. Counter/gauge/histogram
    /// reads are individually atomic; the snapshot as a whole is not a
    /// cross-metric transaction.
    pub fn snapshot(&self) -> Snapshot {
        let counters = lock(&self.counters).iter().map(|(k, v)| (k.clone(), v.get())).collect();
        let gauges = lock(&self.gauges).iter().map(|(k, v)| (k.clone(), v.get())).collect();
        let histograms = lock(&self.histograms)
            .iter()
            .map(|(k, h)| {
                let mut buckets = [0u64; HISTOGRAM_BUCKETS];
                for (b, slot) in h.buckets.iter().zip(buckets.iter_mut()) {
                    *slot = b.load(Ordering::Relaxed);
                }
                let count: u64 = buckets.iter().sum();
                // The raw sample set is only meaningful while complete —
                // an overflowed reservoir describes an arbitrary prefix.
                let raw = {
                    let raw = h.raw_sorted();
                    if raw.len() as u64 == count { raw } else { Vec::new() }
                };
                let exemplars = (0..HISTOGRAM_BUCKETS)
                    .filter_map(|i| h.exemplar(i).map(|e| (i, e)))
                    .collect();
                (
                    k.clone(),
                    HistogramSnapshot {
                        buckets,
                        sum_us: h.sum_us(),
                        max_us: h.max_us(),
                        raw,
                        exemplars,
                    },
                )
            })
            .collect();
        Snapshot { counters, gauges, histograms }
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide default registry all library instrumentation records
/// into.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Poisons `table` the way a crashing request would: a thread panics
    /// while holding it.
    pub(crate) fn poison<T: Send>(table: &Mutex<T>) {
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _held = table.lock();
                panic!("poisoning the lock on purpose");
            });
            assert!(holder.join().is_err());
        });
        assert!(table.is_poisoned());
    }

    #[test]
    fn handles_are_shared_by_name() {
        let reg = Registry::new();
        reg.counter("a").add(2);
        reg.counter("a").add(3);
        reg.counter("b").inc();
        reg.gauge("g").set(-4);
        reg.histogram("h").record_us(10);
        reg.histogram("h").record_us(20);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["a"], 5);
        assert_eq!(snap.counters["b"], 1);
        assert_eq!(snap.gauges["g"], -4);
        assert_eq!(snap.histograms["h"].count(), 2);
        assert_eq!(snap.histograms["h"].sum_us, 30);
    }

    #[test]
    fn a_poisoned_table_keeps_recording_and_snapshotting() {
        let reg = Registry::new();
        reg.counter("a").inc();
        poison(&reg.counters);
        poison(&reg.gauges);
        poison(&reg.histograms);
        reg.counter("a").inc();
        reg.gauge("g").set(3);
        reg.histogram("h").record_us(10);
        let snap = reg.snapshot();
        assert_eq!((snap.counters["a"], snap.gauges["g"]), (2, 3));
        assert_eq!(snap.histograms["h"].count(), 1);
    }

    #[test]
    fn concurrent_counting_is_exact() {
        let reg = Registry::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let c = reg.counter("hits");
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(reg.counter("hits").get(), 8000);
    }

    #[test]
    fn global_is_a_singleton() {
        let a = global() as *const Registry;
        let b = global() as *const Registry;
        assert_eq!(a, b);
    }
}
