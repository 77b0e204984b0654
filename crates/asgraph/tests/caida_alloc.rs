//! The as-rel reader allocates for what it keeps, not for what it reads:
//! a file whose every line repeats one link costs the same number of
//! allocations at a thousand lines as at a hundred thousand. (A
//! `String` per line, as `reader.lines()` makes them, fails this by
//! 99 000.) Counting is per thread, the pattern of
//! `crates/wire/tests/fuzz.rs`.

use flatnet_asgraph::caida::{parse_auto, parse_serial2_with};
use flatnet_asgraph::ParseOptions;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    // Const-initialized and drop-free, so touching it never allocates.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract (`realloc` defaults to `alloc` + copy +
// `dealloc`, so growth is counted too); the bookkeeping around it
// touches only a plain thread-local integer.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.get();
    let out = f();
    (out, ALLOCATIONS.get() - before)
}

#[test]
fn parsing_allocates_per_link_kept_not_per_line_read() {
    let strict = ParseOptions::strict();
    let file = |lines: usize| "64512|65000|-1|bgp\r\n".repeat(lines);
    // Once unmeasured: the first parse registers the `parse.caida.*`
    // counters it publishes to.
    parse_serial2_with(file(10).as_bytes(), &strict).unwrap();

    let (small, large) = (file(1_000), file(100_000));
    let mut counts = Vec::new();
    for text in [&small, &large] {
        let ((b, diag), explicit) =
            allocations_during(|| parse_serial2_with(text.as_bytes(), &strict).unwrap());
        assert_eq!((b.link_count(), diag.records_ok), (1, text.len() / 20));
        let (_, sniffed) = allocations_during(|| parse_auto(text.as_bytes(), &strict).unwrap());
        counts.push((explicit, sniffed));
    }
    assert_eq!(counts[0], counts[1], "(explicit, sniffed) allocations at 1 000 vs 100 000 lines");
    assert!(counts[0].0 < 32, "a one-link parse made {} allocations", counts[0].0);
}
