//! The as-rel reader allocates for what it keeps, not for what it reads:
//! a file whose every line repeats one link costs the same number of
//! allocations at a thousand lines as at a hundred thousand. (A
//! `String` per line, as `reader.lines()` makes them, fails this by
//! 99 000.) Counting is per thread, through `flatnet-testkit`.

use flatnet_asgraph::caida::{parse_auto, parse_serial2_with};
use flatnet_asgraph::ParseOptions;
use flatnet_testkit::{measure, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

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
        let ((b, diag), explicit) = measure(|| parse_serial2_with(text.as_bytes(), &strict).unwrap());
        assert_eq!((b.link_count(), diag.records_ok), (1, text.len() / 20));
        let (_, sniffed) = measure(|| parse_auto(text.as_bytes(), &strict).unwrap());
        counts.push((explicit.allocations, sniffed.allocations));
    }
    assert_eq!(counts[0], counts[1], "(explicit, sniffed) allocations at 1 000 vs 100 000 lines");
    assert!(counts[0].0 < 32, "a one-link parse made {} allocations", counts[0].0);
}
