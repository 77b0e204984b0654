//! The counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// [`System`]'s allocator with the bookkeeping of the
/// [crate docs](crate). Install it in a test binary as its
/// `#[global_allocator]`.
pub struct Counting;

/// One thread's running totals.
#[derive(Clone, Copy)]
struct Tally {
    allocations: u64,
    bytes: u64,
    live: usize,
    peak: usize,
    muted: bool,
}

thread_local! {
    // Const-initialized and without a destructor, so the allocator reads
    // and writes it without allocating or registering anything.
    static THREAD: Cell<Tally> = const {
        Cell::new(Tally { allocations: 0, bytes: 0, live: 0, peak: 0, muted: false })
    };
}

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Books one allocation of `new` bytes that replaces `old` (0 for a
/// fresh one): the peak sees both at once, as it would under an
/// alloc-copy-free `realloc`.
fn allocated(new: usize, old: usize) {
    let grew = new.saturating_sub(old) as u64;
    // A thread whose locals are gone counts for nothing.
    let muted = THREAD
        .try_with(|t| {
            let mut c = t.get();
            c.allocations = c.allocations.wrapping_add(1);
            c.bytes = c.bytes.wrapping_add(grew);
            let both = c.live.saturating_add(new);
            c.peak = c.peak.max(both);
            // Memory another thread allocated may be freed here, so live
            // heap saturates at zero instead of going negative.
            c.live = both.saturating_sub(old);
            t.set(c);
            c.muted
        })
        .unwrap_or(true);
    if !muted {
        ALLOCATIONS.fetch_add(1, Relaxed);
        BYTES.fetch_add(grew, Relaxed);
    }
}

fn freed(size: usize) {
    let _ = THREAD.try_with(|t| {
        let mut c = t.get();
        c.live = c.live.saturating_sub(size);
        t.set(c);
    });
}

// SAFETY: every method hands its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract, and returns what `System` returned.
// The bookkeeping before each call touches only the const-initialized,
// destructor-free thread local above and two atomics, with wrapping or
// saturating arithmetic: it never allocates (so never re-enters), never
// panics, and never touches the memory being handed out or back.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        allocated(layout.size(), 0);
        // SAFETY: the caller's guarantees about `layout` are the ones
        // `System.alloc` needs.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        allocated(layout.size(), 0);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        allocated(new_size, layout.size());
        // SAFETY: `ptr` came from this allocator, so from `System`, with
        // `layout`; the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        freed(layout.size());
        // SAFETY: `ptr` came from this allocator, so from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// What the calling thread allocated while a closure ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Usage {
    /// Allocations, a `realloc` counting as one.
    pub allocations: u64,
    /// Bytes allocated, a `realloc` counting what it grew by.
    pub bytes: u64,
    /// The most heap held at once beyond what was live when it started.
    pub peak: usize,
}

/// Runs `f` and returns what the calling thread allocated while it ran.
/// Calls nest: an outer call's peak still covers what an inner one held.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Usage) {
    let before = THREAD.get();
    THREAD.set(Tally { peak: before.live, ..before });
    let out = f();
    let after = THREAD.get();
    THREAD.set(Tally { peak: after.peak.max(before.peak), ..after });
    let usage = Usage {
        allocations: after.allocations.wrapping_sub(before.allocations),
        bytes: after.bytes.wrapping_sub(before.bytes),
        peak: after.peak - before.live,
    };
    (out, usage)
}

/// Allocations and bytes of every thread that has not muted itself,
/// since the process started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Totals {
    /// Allocations, a `realloc` counting as one.
    pub allocations: u64,
    /// Bytes allocated, a `realloc` counting what it grew by.
    pub bytes: u64,
}

/// The process-wide [`Totals`] so far.
pub fn process() -> Totals {
    Totals { allocations: ALLOCATIONS.load(Relaxed), bytes: BYTES.load(Relaxed) }
}

/// Leaves the calling thread's allocations out of [`process`] from now
/// on ([`measure`] still sees them): a test mutes itself so that only the
/// threads of the code under test are counted.
pub fn mute_this_thread() {
    THREAD.set(Tally { muted: true, ..THREAD.get() });
}

/// Whether [`Counting`] is this process's global allocator.
pub(crate) fn installed() -> bool {
    measure(|| std::hint::black_box(Box::new(0u64))).1.allocations == 1
}
