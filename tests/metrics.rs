//! Observability invariants on a real workload: counter metrics must be
//! bit-identical regardless of the sweep's thread count, and a snapshot
//! taken around a workload must survive a JSON round trip byte-stably.
//!
//! Everything lives in one `#[test]` because the obs registry is a
//! process-wide global: a second concurrently-running test would record
//! into the same registry and pollute the delta windows.

use flatnet_core::reachability::hierarchy_free_all_t;
use flatnet_netgen::{generate, NetGenConfig};
use flatnet_obs::Snapshot;

#[test]
fn counters_are_thread_count_invariant() {
    let net = generate(&NetGenConfig::paper_2020(300, 7));
    let tiers = net.tiers_for(&net.truth);

    let before = flatnet_obs::snapshot();
    let hfr_serial = hierarchy_free_all_t(&net.truth, &tiers, 1);
    let serial = flatnet_obs::snapshot().delta_since(&before);

    let before = flatnet_obs::snapshot();
    let hfr_parallel = hierarchy_free_all_t(&net.truth, &tiers, 4);
    let parallel = flatnet_obs::snapshot().delta_since(&before);

    // The workload itself is deterministic...
    assert_eq!(hfr_serial, hfr_parallel);

    // ...and so is every counter: route selections, export checks,
    // Dijkstra pops, and sweep item counts all commute across threads.
    assert_eq!(serial.counters, parallel.counters);
    assert!(
        serial.counters.get("sweep.items").copied().unwrap_or(0) > 0,
        "expected the sweep to record items: {:?}",
        serial.counters
    );
    assert!(
        serial.counters.get("propagate.runs").copied().unwrap_or(0) > 0,
        "expected propagation runs to be counted: {:?}",
        serial.counters
    );

    // Phase *counts* are deterministic too (durations of course are not):
    // one `propagate` sample per call, whatever the thread count.
    let propagate = |s: &Snapshot| s.histograms["pipeline.phase_us{phase=\"propagate\"}"].count();
    assert_eq!((propagate(&serial), propagate(&parallel)), (1, 1));

    // Gauges are explicitly allowed to differ: they record environment,
    // not work (e.g. `sweep.threads` is the resolved worker count —
    // capped by how many work items the sweep actually had, and kernel
    // sweeps chunk origins into lane blocks, so 300 origins in 256-lane
    // blocks resolve to fewer workers than requested).
    let resolved = parallel.gauges.get("sweep.threads").copied().unwrap_or(0);
    assert!((1..=4).contains(&resolved), "resolved sweep.threads = {resolved}");

    // A snapshot of real measured data must round-trip through the JSON
    // exporter byte-stably.
    let json = parallel.to_json();
    let back = Snapshot::from_json(&json).expect("snapshot JSON must parse back");
    assert_eq!(back, parallel);
    assert_eq!(back.to_json(), json);
}
