//! `flatnet-obs` — zero-dependency observability for the flatnet
//! measurement pipeline.
//!
//! Four primitives, one registry, two exporters:
//!
//! - **Spans** ([`span()`], [`span_root`]) time a scope via an RAII guard
//!   and nest hierarchically per thread (`"measure/campaign"`).
//! - **Counters** ([`counter`]) and **gauges** ([`gauge`]) are atomic and
//!   commute, so totals are bit-identical across thread counts.
//! - **Histograms** ([`histogram`]) bucket microsecond latencies into
//!   powers of two and report p50/p90/p99.
//! - A [`Snapshot`] freezes the registry and exports as a deterministic
//!   JSON document (`flatnet-obs/v2`) or a human-readable table.
//!
//! Library code records into the process-wide [`global()`] registry;
//! binaries snapshot it at exit (or diff two snapshots with
//! [`Snapshot::delta_since`] for per-experiment files). The [`log`]
//! module adds a leveled stderr logger behind `error!`/`warn!`/`info!`/
//! `debug!` macros.
//!
//! Everything here is plain `std` — no crates.io dependencies — so the
//! crate is safe to pull into every workspace member.

#![forbid(unsafe_code)]

pub mod log;
pub mod metrics;
pub mod prom;
pub mod registry;
pub mod snapshot;
pub mod span;
pub mod trace;

pub use log::Level;
pub use metrics::{bucket_bound_us, Counter, Exemplar, Gauge, Histogram, HISTOGRAM_BUCKETS};
pub use prom::to_prometheus;
pub use registry::{global, Registry};
pub use snapshot::{HistogramSnapshot, Snapshot, SCHEMA};
pub use span::{SpanGuard, SpanStat};
pub use trace::{Stage, TraceCtx, TraceDump, TraceEvent, Tracer};

/// The counter named `name` in the global registry.
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// The gauge named `name` in the global registry.
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

/// The histogram named `name` in the global registry.
pub fn histogram(name: &str) -> std::sync::Arc<Histogram> {
    global().histogram(name)
}

/// Opens a nested timed span on the global registry.
pub fn span(name: &str) -> SpanGuard<'static> {
    global().span(name)
}

/// Opens a top-level timed span on the global registry (pipeline phases).
pub fn span_root(name: &str) -> SpanGuard<'static> {
    global().span_root(name)
}

/// A snapshot of the global registry.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Records one parser run under the shared naming scheme:
/// `parse.<format>.records_ok` and `parse.<format>.records_dropped`.
/// Call with zeros to preregister a parser so it appears in snapshots
/// even when its input never arrives.
pub fn record_parse(format: &str, records_ok: u64, records_dropped: u64) {
    let reg = global();
    reg.counter(&format!("parse.{format}.records_ok")).add(records_ok);
    reg.counter(&format!("parse.{format}.records_dropped")).add(records_dropped);
}

#[cfg(test)]
mod tests {
    #[test]
    fn record_parse_uses_the_shared_names() {
        super::record_parse("testfmt", 7, 2);
        super::record_parse("testfmt", 1, 0);
        let snap = super::snapshot();
        assert_eq!(snap.counters["parse.testfmt.records_ok"], 8);
        assert_eq!(snap.counters["parse.testfmt.records_dropped"], 2);
    }
}
