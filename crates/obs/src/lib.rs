//! `flatnet-obs` — zero-dependency observability for the flatnet
//! measurement pipeline.
//!
//! Three primitives, one registry, two exporters:
//!
//! - **Counters** ([`counter`]) and **gauges** ([`Registry::gauge`]) are atomic and
//!   commute, so totals are bit-identical across thread counts.
//! - **Histograms** ([`histogram`]) bucket microsecond latencies into
//!   powers of two and report p50/p90/p99.
//! - A [`Snapshot`] freezes the registry and exports as a deterministic
//!   JSON document (`flatnet-obs/v2`) or a human-readable table.
//!
//! A timed phase is a histogram too: [`PhaseTimer`] records each run of
//! a phase as one sample of a labelled family, so the phase's call count
//! and total time are the histogram's count and `sum_us`.
//!
//! Library code records into the process-wide [`global()`] registry;
//! binaries snapshot it at exit (or diff two snapshots with
//! [`Snapshot::delta_since`] for per-experiment files). The [`log`]
//! module adds a leveled stderr logger behind `error!`/`warn!`/`info!`/
//! `debug!` macros.
//!
//! Everything here is plain `std` — no crates.io dependencies — so the
//! crate is safe to pull into every workspace member.

#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod log;
mod metrics;
pub mod prom;
mod registry;
mod snapshot;
pub mod trace;

pub use log::Level;
pub use metrics::{Counter, Exemplar, Gauge, Histogram};
pub use prom::to_prometheus;
pub use registry::{global, Registry};
pub use snapshot::{HistogramSnapshot, Snapshot};
pub use trace::{Stage, TraceDump, TraceEvent};

use std::time::{Duration, Instant};

/// The counter named `name` in the global registry.
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// The histogram named `name` in the global registry.
pub fn histogram(name: &str) -> std::sync::Arc<Histogram> {
    global().histogram(name)
}

/// Times the phases of a job into one histogram family of the global
/// registry: each run of phase `p` is one sample of `<family>{phase="p"}`.
/// Phases may nest; each records its own inclusive wall time.
#[derive(Debug, Clone, Copy)]
pub struct PhaseTimer(&'static str);

impl PhaseTimer {
    /// The measurement pipeline's phases, `pipeline.phase_us{phase=…}`:
    /// `preflight`, `measure` (holding `campaign`, `infer` and `augment`),
    /// `propagate` and `report`.
    pub const PIPELINE: PhaseTimer = PhaseTimer::new("pipeline.phase_us");

    /// A timer recording under `family`, a `_us` histogram name.
    pub const fn new(family: &'static str) -> PhaseTimer {
        PhaseTimer(family)
    }

    /// Runs `f` as phase `phase` and returns its output and wall time.
    pub fn timed<T>(self, phase: &str, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let took = start.elapsed();
        histogram(&format!("{}{{phase=\"{phase}\"}}", self.0)).record(took);
        (out, took)
    }

    /// [`PhaseTimer::timed`], keeping only the output.
    pub fn time<T>(self, phase: &str, f: impl FnOnce() -> T) -> T {
        self.timed(phase, f).0
    }
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

    #[test]
    fn a_timed_phase_is_one_sample_of_its_labelled_histogram() {
        let timer = super::PhaseTimer::new("testphase.run_us");
        let (out, took) = timer.timed("outer", || timer.time("inner", || 7));
        assert_eq!(out, 7);
        timer.time("inner", || ());
        let snap = super::snapshot();
        let outer = &snap.histograms["testphase.run_us{phase=\"outer\"}"];
        let inner = &snap.histograms["testphase.run_us{phase=\"inner\"}"];
        assert_eq!((outer.count(), inner.count()), (1, 2));
        assert_eq!(outer.sum_us, took.as_micros() as u64);
    }
}
