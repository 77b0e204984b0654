//! The as-rel ingest's heap peak as a rule: reading a file of a few
//! hundred thousand links and building its graph holds at most 44 bytes
//! of heap per link at once, counted through `flatnet-testkit` (a
//! `realloc` holding old and new at once). That is the file's links
//! appended, settled and grown in one vector of 12-byte records, the
//! edge list `build` hands to the constructor, and the graph itself. The
//! same file in shuffled line order is held to the same rule: the
//! reader's bulk settle must not lean on the canonical order a generated
//! file arrives in. Also reports what `netgen::generate` peaks at.

use flatnet_asgraph::caida::{parse_auto, write_serial2};
use flatnet_asgraph::ParseOptions;
use flatnet_netgen::{generate, NetGenConfig};
use flatnet_testkit::{measure, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

const MAX_BYTES_PER_LINK: f64 = 44.0;

#[test]
fn reading_and_building_peaks_under_44_bytes_per_link() {
    let cfg = NetGenConfig::paper_2020(20_000, 1);
    let (net, generated) = measure(|| generate(&cfg));
    let text = write_serial2(&net.truth);
    let links = net.truth.edge_count();
    assert!(links >= 100_000, "only {links} links");
    eprintln!(
        "generate({} ASes): peak {:.1} MB, {} allocations",
        cfg.n_ases,
        generated.peak as f64 / 1e6,
        generated.allocations
    );
    drop(net);

    // The same lines in a scrambled order (a fixed xorshift shuffle).
    let (header, body) = text.split_once('\n').unwrap();
    let mut lines: Vec<&str> = body.lines().collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..lines.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        lines.swap(i, (state % (i as u64 + 1)) as usize);
    }
    let shuffled = format!("{header}\n{}\n", lines.join("\n"));
    drop(lines);

    let strict = ParseOptions::strict();
    // Once unmeasured: the first parse registers the counters it
    // publishes to.
    parse_auto(b"1|2|0\n", &strict).unwrap();
    for (what, file) in [("canonical", &text), ("shuffled", &shuffled)] {
        let (graph, usage) = measure(|| parse_auto(file.as_bytes(), &strict).unwrap().0.build());
        assert_eq!(graph.edge_count(), links, "{what}");
        let per_link = usage.peak as f64 / links as f64;
        eprintln!("{what}: {links} links, ingest peak {:.2} MB = {per_link:.1} B/link", usage.peak as f64 / 1e6);
        assert!(per_link <= MAX_BYTES_PER_LINK, "{what}: {per_link:.1} B/link over {MAX_BYTES_PER_LINK}");
    }
}
