//! The benchmark's own span recorder. Spans are taken around the calls
//! into each layer (the program itself is not instrumented by this
//! change), kept in memory, and written to
//! `benchmark/out/trace-<workload>.json` when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call. Spans of one op share `op`; `parent` is the index of
/// the span that caused this one (`None` for the op's root span).
#[derive(Debug, Clone)]
pub struct Span {
    pub op: u32,
    pub name: &'static str,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans of one run, timed against a common epoch.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its index, for children to
    /// name as their parent.
    pub fn record(
        &mut self,
        op: u32,
        name: &'static str,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let span = Span {
            op,
            name,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Times `f` as a span of `op` and returns its result with the
    /// span's duration in nanoseconds.
    pub fn time<T>(
        &mut self,
        op: u32,
        name: &'static str,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(op, name, parent, start, end);
        (out, (end - start).as_nanos() as f64)
    }

    /// Writes the `flatnet-bench-trace/v1` document: one object per span
    /// with its op id, name, parent index (or null), start and end in
    /// nanoseconds since the run's epoch.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"schema\":\"flatnet-bench-trace/v1\",\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n{{\"id\":{i},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                if i > 0 { "," } else { "" },
                s.op,
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}
