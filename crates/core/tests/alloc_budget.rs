//! The allocation budget of the graph-taking entry points: a call that
//! compiles the graph it is handed still runs on the topology's warm
//! scratch pools, so once the first calls have sized them, a call
//! allocates its answer and nothing topology-sized beside it.
//!
//! `leak_cdf` with 2 leakers keeps a victim side and a leaker side per
//! worker; its answer is two fractions, so a warm call allocates well
//! under a byte a node. `reliance_under_hierarchy_free` allocates its
//! exclusion mask (1 B a node) and its answer's entries (16 B per AS
//! with a score); a call that sized its own scalar context and reliance
//! kernel would add about 50 B a node more. Both budgets hold at two
//! node counts a factor of four apart.
//!
//! Counted process-wide through the `flatnet-testkit` counting
//! `#[global_allocator]`: the leak CDF fans its leakers out over worker
//! threads, whose allocations count too. ONE `#[test]`, so no other test
//! of this binary allocates into the same counter.

use flatnet_core::leaks::{leak_cdf, Announce, Locking};
use flatnet_core::reliance_exp::reliance_under_hierarchy_free;
use flatnet_netgen::{generate, NetGenConfig};
use flatnet_testkit::{process, Counting};
use std::hint::black_box;

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes the third of three identical calls of `call` allocates, per
/// node of an `n`-node graph: the first two size whatever the topology
/// pools.
fn third_call_per_node<T>(n: usize, call: impl Fn() -> T) -> f64 {
    black_box(call());
    black_box(call());
    let before = process().bytes;
    black_box(call());
    (process().bytes - before) as f64 / n as f64
}

#[test]
fn graph_taking_entry_points_run_on_pooled_scratch() {
    for ases in [5_000, 20_000] {
        let net = generate(&NetGenConfig::paper_2020(ases, 3));
        let (g, tiers) = (&net.truth, net.tiers_for(&net.truth));
        let cloud = net.clouds[0].asn;
        let n = g.len();

        let leak = third_call_per_node(n, || {
            leak_cdf(g, &tiers, cloud, Announce::ToAll, Locking::None, 2, 7, None).expect("cloud exists")
        });
        assert!(leak < 1.0, "{ases} ASes: a warm 2-leaker leak_cdf allocated {leak:.1} B a node");

        let rely = third_call_per_node(n, || reliance_under_hierarchy_free(g, &tiers, cloud).expect("cloud exists"));
        assert!(rely < 48.0, "{ases} ASes: a warm reliance_under_hierarchy_free allocated {rely:.1} B a node");
        println!("{ases} ASes: leak_cdf {leak:.2} B a node, reliance_under_hierarchy_free {rely:.1} B a node");
    }
}
