//! Parallel per-origin sweeps with panic isolation.
//!
//! Every whole-Internet experiment (hierarchy-free reachability for all
//! ASes, leak CDFs, ...) is a map over independent origins; this helper
//! fans the map out over scoped threads with a static partition, so the
//! result is deterministic regardless of thread count.
//!
//! `try_parallel_map_ctx` isolates panics: a closure that panics on
//! one item produces a per-item [`SweepError`] carrying the panic
//! message, while every other item still completes. The error layout is
//! identical for any thread count, including the sequential fast path.
//! [`parallel_map_ctx`] is the same sweep with the first error re-raised.
//!
//! Every worker thread gets a private mutable context built by a factory
//! closure — the hook the batched engine uses to hand each worker its
//! own [`crate::engine::Workspace`] so a sweep does zero steady-state
//! allocation. The calling thread builds every worker's context before
//! any worker starts, so a sweep of `k` workers always holds `k` at once
//! and a pooled context is never handed back mid-call; each is then
//! moved to its worker (`Send`) and never shared. Stateless callers pass
//! `|| ()`.

use crate::scratch::cores;
use flatnet_obs::{Counter, Gauge, Histogram};
use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Pre-resolved sweep metrics; items are timed individually, so handles
/// are looked up once and recorded lock-free from every worker thread.
/// `sweep.threads` is a gauge (instantaneous, thread-count dependent) and
/// is therefore excluded from cross-thread-count determinism comparisons;
/// the counters are exact regardless of partitioning.
struct SweepMetrics {
    items: Counter,
    panics: Counter,
    threads: Gauge,
    item_us: Arc<Histogram>,
}

fn metrics() -> &'static SweepMetrics {
    static METRICS: OnceLock<SweepMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = flatnet_obs::global();
        SweepMetrics {
            items: reg.counter("sweep.items"),
            panics: reg.counter("sweep.panics"),
            threads: reg.gauge("sweep.threads"),
            item_us: reg.histogram("sweep.item_us"),
        }
    })
}

/// The failure of a single sweep item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError {
    /// Index of the item in the input slice.
    pub index: usize,
    /// The panic message (or a placeholder for non-string payloads).
    pub message: String,
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sweep item {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for SweepError {}

/// Extracts a human-readable message from a panic payload.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn run_guarded<T, C, R, F>(f: &F, ctx: &mut C, item: &T, index: usize) -> Result<R, SweepError>
where
    F: Fn(&mut C, &T) -> R,
{
    let obs = metrics();
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| f(ctx, item)));
    obs.item_us.record(start.elapsed());
    result.map_err(|payload| {
        obs.panics.inc();
        SweepError { index, message: panic_message(payload.as_ref()) }
    })
}

/// Applies `f(&mut ctx, item)` to every item, in parallel, preserving
/// order; each worker thread gets one private context, built with
/// `mk_ctx` on the calling thread before the workers start, and reuses
/// it for all of its items. A panic in `f` becomes a per-item
/// `Err` instead of tearing down the sweep.
///
/// Uses `threads` workers, or, when `threads == 0`, the available
/// parallelism as read once for the scratch pools' bounds, so a sweep
/// never fans out over more workers than those pools keep. The per-item
/// results and error layout are identical for any thread count (the
/// context only affects performance — callers must not let results
/// depend on which items share a context).
pub(crate) fn try_parallel_map_ctx<T, C, R, M, F>(
    items: &[T],
    threads: usize,
    mk_ctx: M,
    f: F,
) -> Vec<Result<R, SweepError>>
where
    T: Sync,
    C: Send,
    R: Send,
    M: Fn() -> C,
    F: Fn(&mut C, &T) -> R + Sync,
{
    let threads = if threads == 0 { cores() } else { threads };
    let threads = threads.min(items.len()).max(1);
    let obs = metrics();
    obs.items.add(items.len() as u64);
    obs.threads.set(threads as i64);
    if threads <= 1 || items.len() < 2 {
        let mut ctx = mk_ctx();
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| run_guarded(&f, &mut ctx, item, i))
            .collect();
    }

    let mut results: Vec<Option<Result<R, SweepError>>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);
    let chunk = items.len().div_ceil(threads);
    // Every worker's context is built before any worker starts. Built
    // inside the workers, a context could be one a finished sibling had
    // already handed back to its pool, and how many a call checks out
    // would depend on how the threads happened to be scheduled.
    let ctxs: Vec<C> = (0..items.len().div_ceil(chunk)).map(|_| mk_ctx()).collect();

    std::thread::scope(|s| {
        let f = &f;
        let parts = results.chunks_mut(chunk).zip(items.chunks(chunk)).zip(ctxs);
        for (w, ((out, slice), mut ctx)) in parts.enumerate() {
            s.spawn(move || {
                for (i, (out, item)) in out.iter_mut().zip(slice).enumerate() {
                    *out = Some(run_guarded(f, &mut ctx, item, w * chunk + i));
                }
            });
        }
    });

    results.into_iter().map(|r| r.expect("all slots filled")).collect()
}

/// Applies `f(&mut ctx, item)` to every item, in parallel, preserving
/// order, with one context per worker thread (see
/// `try_parallel_map_ctx`). A panic in `f` aborts the whole sweep
/// (after all items have run) with a message naming the first offending
/// item.
pub fn parallel_map_ctx<T, C, R, M, F>(items: &[T], threads: usize, mk_ctx: M, f: F) -> Vec<R>
where
    T: Sync,
    C: Send,
    R: Send,
    M: Fn() -> C,
    F: Fn(&mut C, &T) -> R + Sync,
{
    try_parallel_map_ctx(items, threads, mk_ctx, f)
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = parallel_map_ctx(&items, 4, || (), |_, &x| x * x);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i * i) as u64);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let items: Vec<u64> = (0..257).collect();
        let a = parallel_map_ctx(&items, 1, || (), |_, &x| x.wrapping_mul(0x9E3779B9));
        let b = parallel_map_ctx(&items, 7, || (), |_, &x| x.wrapping_mul(0x9E3779B9));
        let c = parallel_map_ctx(&items, 0, || (), |_, &x| x.wrapping_mul(0x9E3779B9));
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map_ctx(&empty, 4, || (), |_, &x| x).is_empty());
        assert_eq!(parallel_map_ctx(&[42u32], 4, || (), |_, &x| x + 1), vec![43]);
    }

    #[test]
    fn more_threads_than_items() {
        let items = vec![1u32, 2, 3];
        assert_eq!(parallel_map_ctx(&items, 64, || (), |_, &x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn panic_becomes_per_item_error() {
        let items: Vec<u32> = (0..100).collect();
        let out = try_parallel_map_ctx(&items, 4, || (), |_, &x| {
            if x == 13 {
                panic!("unlucky origin {x}");
            }
            x * 2
        });
        assert_eq!(out.len(), items.len());
        for (i, r) in out.iter().enumerate() {
            if i == 13 {
                let e = r.as_ref().unwrap_err();
                assert_eq!(e.index, 13);
                assert!(e.message.contains("unlucky origin 13"), "{e}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), (i as u32) * 2);
            }
        }
    }

    #[test]
    fn panic_isolation_identical_across_thread_counts() {
        let items: Vec<u32> = (0..61).collect();
        let run = |threads| {
            try_parallel_map_ctx(&items, threads, || (), |_, &x| {
                if x % 17 == 5 {
                    panic!("bad item {x}");
                }
                x + 1
            })
        };
        let a = run(1);
        for threads in [2, 3, 8, 64, 0] {
            assert_eq!(run(threads), a, "threads={threads}");
        }
        assert_eq!(a.iter().filter(|r| r.is_err()).count(), 4);
    }

    #[test]
    fn strict_map_names_offending_item() {
        let items = vec![1u32, 2, 3];
        let caught = std::panic::catch_unwind(|| {
            parallel_map_ctx(&items, 1, || (), |_, &x| {
                if x == 2 {
                    panic!("boom");
                }
                x
            })
        });
        let msg = panic_message(caught.unwrap_err().as_ref());
        assert!(msg.contains("sweep item 1"), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn ctx_is_private_per_thread_and_reused_within_it() {
        // Each worker's context counts the items it processed; the sum
        // over all contexts must equal the item count, and a context is
        // reused (not rebuilt) across a worker's items.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let built = AtomicUsize::new(0);
        let items: Vec<u32> = (0..100).collect();
        let out = parallel_map_ctx(
            &items,
            4,
            || {
                built.fetch_add(1, Ordering::SeqCst);
                0usize
            },
            |seen, &x| {
                *seen += 1;
                (x, *seen)
            },
        );
        assert_eq!(built.load(Ordering::SeqCst), 4);
        assert_eq!(out.len(), 100);
        // Per-context counters add up to the total item count.
        let total: usize = out.iter().filter(|(_, seen)| *seen == 25).count();
        assert_eq!(total, 4, "each of 4 workers processes 25 items: {out:?}");
    }

    #[test]
    fn ctx_sequential_path_builds_one_context() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let built = AtomicUsize::new(0);
        let items: Vec<u32> = (0..10).collect();
        let out = parallel_map_ctx(
            &items,
            1,
            || {
                built.fetch_add(1, Ordering::SeqCst);
            },
            |_ctx, &x| x + 1,
        );
        assert_eq!(built.load(Ordering::SeqCst), 1);
        assert_eq!(out, (1..=10).collect::<Vec<u32>>());
    }
}
