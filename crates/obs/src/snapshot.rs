//! Point-in-time metric snapshots and the two exporters: a deterministic
//! JSON document and a human-readable summary table.
//!
//! The JSON schema (`flatnet-obs/v2`) is the machine-readable contract
//! between a process and whatever reads its metrics: `--metrics` files,
//! `repro`'s per-experiment checkpoint deltas, `/metrics` scrapes (a
//! router merges its shards' through it) and `flatnet metrics --in`:
//!
//! ```json
//! {
//!   "schema": "flatnet-obs/v2",
//!   "counters": {"parse.caida.records_ok": 4},
//!   "gauges": {"sweep.threads": 8},
//!   "histograms": {"sweep.item_us": {
//!       "count": 10, "sum_us": 50, "max_us": 7,
//!       "p50_us": 4, "p90_us": 7, "p99_us": 7, "p999_us": 7,
//!       "buckets": [[4, 7], [8, 3]],
//!       "raw": [1, 2, 4, 5, 5, 5, 6, 6, 7, 7],
//!       "exemplars": [[8, 81985529216486895, 15169, 7]]}}
//! }
//! ```
//!
//! v2 added `max_us`, `p999_us`, and the optional `raw` (exact sample
//! set, present while complete) and `exemplars`
//! (`[bucket bound, trace id, origin AS, value]`) histogram fields; a
//! v1 document is an unsupported schema. Every section is optional and
//! an unknown member is ignored, so a v2 document an older binary wrote
//! with a `spans` section (timed phases before they were histograms)
//! still parses, without it.
//!
//! Keys are sorted, maps are emitted in a single canonical form, and all
//! values are integers, so two snapshots with equal contents serialize to
//! byte-identical documents — that is what lets CI diff counter sections
//! across thread counts. This module carries its own emitter;
//! [`Snapshot::from_json`] reads documents back through `flatnet-wire`'s
//! JSON tree and accepts exactly what [`Snapshot::to_json`] produces.

use crate::metrics::{
    bucket_bound_us, percentile_exact, percentile_from_buckets, Exemplar, HISTOGRAM_BUCKETS,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Frozen state of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see `bucket_bound_us`).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of observations, microseconds.
    pub sum_us: u64,
    /// Largest observation, microseconds (0 when empty). Clamps the top
    /// bucket during percentile interpolation.
    pub max_us: u64,
    /// The exact (sorted) sample set, present only while the live
    /// histogram's raw reservoir still covered every observation — then
    /// `raw.len() == count()` and percentiles are exact.
    pub raw: Vec<u64>,
    /// Per-bucket exemplars as `(bucket index, exemplar)`, ascending.
    pub exemplars: Vec<(usize, Exemplar)>,
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The `p`-th percentile in microseconds: exact when the raw sample
    /// set is complete, bucket-interpolated (clamped by `max_us`)
    /// otherwise.
    pub(crate) fn percentile_us(&self, p: f64) -> Option<u64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        if self.raw.len() as u64 == n {
            return Some(percentile_exact(&self.raw, p));
        }
        percentile_from_buckets(&self.buckets, p, Some(self.max_us))
    }
}

/// A point-in-time copy of a registry's metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Schema identifier emitted in every JSON document, and the only one
/// [`Snapshot::from_json`] accepts.
pub(crate) const SCHEMA: &str = "flatnet-obs/v2";

impl Snapshot {
    /// The change from `earlier` to `self`: counters and histogram
    /// buckets subtract entry-wise (entries absent from `earlier` count
    /// from zero; negative deltas clamp to zero); gauges are
    /// instantaneous, so the later value is kept as-is.
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0))))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let mut out = h.clone();
                if let Some(e) = earlier.histograms.get(k) {
                    for (slot, prev) in out.buckets.iter_mut().zip(e.buckets.iter()) {
                        *slot = slot.saturating_sub(*prev);
                    }
                    out.sum_us = out.sum_us.saturating_sub(e.sum_us);
                    if e.count() > 0 {
                        // The raw reservoir only describes the histogram's
                        // full lifetime; a window starting mid-life cannot
                        // be reconstructed from it.
                        out.raw.clear();
                    }
                    // `max_us` stays the lifetime high-watermark: an upper
                    // bound for the window, which keeps the interpolation
                    // clamp safe. Exemplars survive only for buckets the
                    // window actually touched.
                    out.exemplars.retain(|(i, _)| out.buckets[*i] > 0);
                }
                (k.clone(), out)
            })
            .collect();
        Snapshot { counters, gauges: self.gauges.clone(), histograms }
    }

    /// Folds `other` into `self`, entry-wise — the aggregation a router
    /// needs to present N shard processes as one `/metrics` document.
    /// Counters and gauges add; histograms add
    /// bucket-wise (`sum_us` adds, `max_us` takes the max). The raw
    /// sample sets merge (re-sorted) only while both sides were complete
    /// — otherwise the merged reservoir would misrepresent the union and
    /// is dropped, falling percentiles back to bucket interpolation.
    /// Exemplars keep one entry per touched bucket, preferring the
    /// larger observation (the more interesting outlier).
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            let mine = self.histograms.entry(k.clone()).or_default();
            let both_complete = mine.raw.len() as u64 == mine.count()
                && h.raw.len() as u64 == h.count();
            for (slot, add) in mine.buckets.iter_mut().zip(h.buckets.iter()) {
                *slot += add;
            }
            mine.sum_us += h.sum_us;
            mine.max_us = mine.max_us.max(h.max_us);
            if both_complete {
                mine.raw.extend_from_slice(&h.raw);
                mine.raw.sort_unstable();
            } else {
                mine.raw.clear();
            }
            for (i, ex) in &h.exemplars {
                match mine.exemplars.iter_mut().find(|(j, _)| j == i) {
                    Some((_, mine_ex)) => {
                        if ex.value_us > mine_ex.value_us {
                            *mine_ex = *ex;
                        }
                    }
                    None => mine.exemplars.push((*i, *ex)),
                }
            }
            mine.exemplars.sort_by_key(|(i, _)| *i);
        }
    }

    /// Serializes to the canonical `flatnet-obs/v2` JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", json_string(SCHEMA));
        out.push_str("  \"counters\": {");
        emit_map(&mut out, self.counters.iter().map(|(k, v)| (k.as_str(), v.to_string())));
        out.push_str("},\n  \"gauges\": {");
        emit_map(&mut out, self.gauges.iter().map(|(k, v)| (k.as_str(), v.to_string())));
        out.push_str("},\n  \"histograms\": {");
        emit_map(
            &mut out,
            self.histograms.iter().map(|(k, h)| {
                let mut buckets = String::from("[");
                let mut first = true;
                for (i, &c) in h.buckets.iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    if !first {
                        buckets.push_str(", ");
                    }
                    first = false;
                    let _ = write!(buckets, "[{}, {}]", bucket_bound_us(i), c);
                }
                buckets.push(']');
                let pct = |p: f64| h.percentile_us(p).unwrap_or(0);
                let mut doc = format!(
                    "{{\"count\": {}, \"sum_us\": {}, \"max_us\": {}, \"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {}, \"p999_us\": {}, \"buckets\": {}",
                    h.count(),
                    h.sum_us,
                    h.max_us,
                    pct(50.0),
                    pct(90.0),
                    pct(99.0),
                    pct(99.9),
                    buckets
                );
                if !h.raw.is_empty() {
                    doc.push_str(", \"raw\": [");
                    for (i, v) in h.raw.iter().enumerate() {
                        if i > 0 {
                            doc.push_str(", ");
                        }
                        let _ = write!(doc, "{v}");
                    }
                    doc.push(']');
                }
                if !h.exemplars.is_empty() {
                    doc.push_str(", \"exemplars\": [");
                    for (i, (bucket, ex)) in h.exemplars.iter().enumerate() {
                        if i > 0 {
                            doc.push_str(", ");
                        }
                        let _ = write!(
                            doc,
                            "[{}, {}, {}, {}]",
                            bucket_bound_us(*bucket),
                            ex.trace_id,
                            ex.origin,
                            ex.value_us
                        );
                    }
                    doc.push(']');
                }
                doc.push('}');
                (k.as_str(), doc)
            }),
        );
        out.push_str("}\n}\n");
        out
    }

    /// Parses a document produced by [`Snapshot::to_json`]. Derived
    /// fields (`count`, percentiles) are recomputed from the buckets, so
    /// `from_json(to_json(s)) == s` and re-serializing is byte-identical.
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let top = doc::parse(text)?;
        doc::object(&top, "top level")?;
        let schema = doc::string(top.get("schema").ok_or("missing \"schema\"")?, "schema")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema {schema:?} (want {SCHEMA:?})"));
        }
        let mut snap = Snapshot::default();
        if let Some(v) = top.get("counters") {
            for (k, v) in doc::object(v, "counters")? {
                snap.counters.insert(k.clone(), doc::uint(v, "counter")?);
            }
        }
        if let Some(v) = top.get("gauges") {
            for (k, v) in doc::object(v, "gauges")? {
                snap.gauges.insert(k.clone(), doc::int(v, "gauge")?);
            }
        }
        if let Some(v) = top.get("histograms") {
            for (k, fields) in doc::object(v, "histograms")? {
                doc::object(fields, "histogram")?;
                let mut h = HistogramSnapshot {
                    sum_us: doc::uint(
                        fields.get("sum_us").ok_or("histogram missing sum_us")?,
                        "sum_us",
                    )?,
                    max_us: doc::uint(
                        fields.get("max_us").ok_or("histogram missing max_us")?,
                        "max_us",
                    )?,
                    ..HistogramSnapshot::default()
                };
                let buckets = fields.get("buckets").ok_or("histogram missing buckets")?;
                for pair in doc::array(buckets, "buckets")? {
                    let pair = doc::array(pair, "bucket pair")?;
                    if pair.len() != 2 {
                        return Err("bucket pair must be [bound_us, count]".into());
                    }
                    let bound = doc::uint(&pair[0], "bucket bound")?;
                    let count = doc::uint(&pair[1], "bucket count")?;
                    let idx = (0..HISTOGRAM_BUCKETS)
                        .find(|&i| bucket_bound_us(i) == bound)
                        .ok_or_else(|| format!("unknown bucket bound {bound}"))?;
                    h.buckets[idx] = count;
                }
                if let Some(raw) = fields.get("raw") {
                    for v in doc::array(raw, "raw")? {
                        h.raw.push(doc::uint(v, "raw sample")?);
                    }
                }
                if let Some(exs) = fields.get("exemplars") {
                    for entry in doc::array(exs, "exemplars")? {
                        let entry = doc::array(entry, "exemplar")?;
                        if entry.len() != 4 {
                            return Err(
                                "exemplar must be [bound_us, trace_id, origin, value_us]".into()
                            );
                        }
                        let bound = doc::uint(&entry[0], "exemplar bound")?;
                        let idx = (0..HISTOGRAM_BUCKETS)
                            .find(|&i| bucket_bound_us(i) == bound)
                            .ok_or_else(|| format!("unknown exemplar bound {bound}"))?;
                        h.exemplars.push((
                            idx,
                            Exemplar {
                                trace_id: doc::uint(&entry[1], "exemplar trace_id")?,
                                origin: doc::uint(&entry[2], "exemplar origin")?,
                                value_us: doc::uint(&entry[3], "exemplar value_us")?,
                            },
                        ));
                    }
                }
                snap.histograms.insert(k.clone(), h);
            }
        }
        Ok(snap)
    }

    /// Renders the human-readable summary table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            let width = self.counters.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<width$}  {v:>14}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            let width = self.gauges.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "  {name:<width$}  {v:>14}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms (µs):\n");
            let width = self.histograms.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, h) in &self.histograms {
                let pct = |p: f64| h.percentile_us(p).unwrap_or(0);
                let _ = writeln!(
                    out,
                    "  {name:<width$}  {:>8} obs  total {:>12}  p50 {:>8}  p90 {:>8}  p99 {:>8}",
                    h.count(),
                    h.sum_us,
                    pct(50.0),
                    pct(90.0),
                    pct(99.0),
                );
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }
}

/// Writes `"key": value` pairs with the canonical layout.
fn emit_map<'a>(out: &mut String, entries: impl Iterator<Item = (&'a str, String)>) {
    let mut first = true;
    for (key, rendered) in entries {
        if first {
            out.push('\n');
        } else {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(out, "    {}: {rendered}", json_string(key));
    }
    if !first {
        out.push_str("\n  ");
    }
}

/// A quoted JSON string (metric names are ASCII, but be correct anyway).
fn json_string(s: &str) -> String {
    format!("\"{}\"", flatnet_wire::json::escape(s))
}

/// Typed reads over `flatnet-wire`'s JSON tree for the two obs document
/// schemas (this one and `crate::trace`'s), which hold objects, arrays,
/// integers and strings only.
pub(crate) mod doc {
    use flatnet_wire::json::Json;

    /// Parses `text`, then rejects floats, booleans and null anywhere in
    /// the tree — the schemas have none, so one is a corrupt document.
    pub(crate) fn parse(text: &str) -> Result<Json, String> {
        fn check(v: &Json) -> Result<(), String> {
            match v {
                Json::Int(_) | Json::Str(_) => Ok(()),
                Json::Array(items) => items.iter().try_for_each(check),
                Json::Object(pairs) => pairs.iter().try_for_each(|(_, v)| check(v)),
                other => Err(format!("{other:?} is not part of the schema")),
            }
        }
        let v = flatnet_wire::json::parse(text)?;
        check(&v)?;
        Ok(v)
    }

    fn expected<T>(got: Option<T>, v: &Json, what: &str, kind: &str) -> Result<T, String> {
        got.ok_or_else(|| format!("{what}: expected {kind}, got {v:?}"))
    }

    pub(crate) fn object<'a>(v: &'a Json, what: &str) -> Result<&'a [(String, Json)], String> {
        expected(v.as_object(), v, what, "object")
    }

    pub(crate) fn array<'a>(v: &'a Json, what: &str) -> Result<&'a [Json], String> {
        expected(v.as_array(), v, what, "array")
    }

    pub(crate) fn string<'a>(v: &'a Json, what: &str) -> Result<&'a str, String> {
        expected(v.as_str(), v, what, "string")
    }

    pub(crate) fn uint(v: &Json, what: &str) -> Result<u64, String> {
        expected(v.as_u64(), v, what, "unsigned integer")
    }

    pub(crate) fn int(v: &Json, what: &str) -> Result<i64, String> {
        expected(v.as_i64(), v, what, "integer")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> Snapshot {
        let reg = Registry::new();
        reg.counter("parse.caida.records_ok").add(41);
        reg.counter("sweep.items").add(9);
        reg.gauge("sweep.threads").set(8);
        let h = reg.histogram("sweep.item_us");
        for us in [1, 3, 3, 900, 70_000_000_000] {
            h.record_us(us);
        }
        reg.histogram("pipeline.phase_us{phase=\"measure\"}").record_us(1234);
        reg.snapshot()
    }

    #[test]
    fn json_round_trips_and_is_byte_stable() {
        let snap = sample();
        let json = snap.to_json();
        let parsed = Snapshot::from_json(&json).unwrap();
        assert_eq!(parsed, snap);
        assert_eq!(parsed.to_json(), json, "re-serialization must be byte-identical");
    }

    #[test]
    fn json_contains_the_schema_and_sections() {
        let json = sample().to_json();
        assert!(json.contains("\"schema\": \"flatnet-obs/v2\""));
        for section in ["counters", "gauges", "histograms"] {
            assert!(json.contains(&format!("\"{section}\"")), "{json}");
        }
        assert!(!json.contains("\"spans\""), "{json}");
        assert!(json.contains("\"pipeline.phase_us{phase=\\\"measure\\\"}\""), "{json}");
        // The overflow bucket bound survives the trip.
        assert!(json.contains(&u64::MAX.to_string()));
    }

    #[test]
    fn from_json_rejects_bad_documents() {
        assert!(Snapshot::from_json("").is_err());
        assert!(Snapshot::from_json("{}").is_err()); // missing schema
        assert!(Snapshot::from_json("{\"schema\": \"other/v9\"}").is_err());
        // Nothing has written v1 since the exemplar work; it is not read.
        let err = Snapshot::from_json("{\"schema\": \"flatnet-obs/v1\"}").unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
        assert!(Snapshot::from_json("{\"schema\": \"flatnet-obs/v2\"} x").is_err());
        let float = "{\"schema\": \"flatnet-obs/v2\", \"counters\": {\"a\": 1.5}}";
        assert!(Snapshot::from_json(float).is_err());
        let negative = "{\"schema\": \"flatnet-obs/v2\", \"counters\": {\"a\": -2}}";
        assert!(Snapshot::from_json(negative).is_err());
        let neg_gauge = "{\"schema\": \"flatnet-obs/v2\", \"gauges\": {\"a\": -2}}";
        assert_eq!(Snapshot::from_json(neg_gauge).unwrap().gauges["a"], -2);
        // Booleans and null parse as JSON but are not part of the schema.
        for alien in ["true", "null"] {
            let doc = format!("{{\"schema\": \"flatnet-obs/v2\", \"x\": {alien}}}");
            assert!(Snapshot::from_json(&doc).is_err(), "{doc}");
        }
        // 200 000 levels deep is an error from the reader's depth cap, not
        // a stack overflow.
        let deep = "[".repeat(200_000);
        assert!(Snapshot::from_json(&deep).is_err());
        assert!(crate::TraceDump::from_json(&deep).is_err());
        let wrapped = format!("{{\"schema\": \"flatnet-obs/v2\", \"counters\": {deep}");
        assert!(Snapshot::from_json(&wrapped).is_err());
    }

    /// A document from before phases were histograms still reads: the
    /// `spans` member is ignored, the rest is kept.
    #[test]
    fn a_v2_document_with_a_spans_section_still_parses() {
        let old = "{\"schema\": \"flatnet-obs/v2\", \"counters\": {\"a\": 3}, \
                   \"spans\": {\"measure\": {\"count\": 1, \"total_ns\": 12345}}}";
        let snap = Snapshot::from_json(old).unwrap();
        assert_eq!(snap.counters["a"], 3);
        assert!(!snap.to_json().contains("spans"));
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let empty = Snapshot::default();
        let json = empty.to_json();
        assert_eq!(Snapshot::from_json(&json).unwrap(), empty);
    }

    #[test]
    fn delta_subtracts_counters_spans_and_buckets() {
        let reg = Registry::new();
        reg.counter("c").add(3);
        reg.histogram("h").record_us(5);
        let before = reg.snapshot();
        reg.counter("c").add(4);
        reg.counter("new").inc();
        reg.histogram("h").record_us(5);
        reg.histogram("h").record_us(100);
        reg.gauge("g").set(2);
        reg.histogram("phase_us{phase=\"new\"}").record_us(9);
        let delta = reg.snapshot().delta_since(&before);
        assert_eq!(delta.counters["c"], 4);
        assert_eq!(delta.counters["new"], 1);
        assert_eq!(delta.histograms["h"].count(), 2);
        assert_eq!(delta.histograms["h"].sum_us, 105);
        assert_eq!(delta.histograms["phase_us{phase=\"new\"}"].sum_us, 9);
        assert_eq!(delta.gauges["g"], 2);
    }

    #[test]
    fn exemplars_and_raw_round_trip() {
        let reg = Registry::new();
        let h = reg.histogram("req_us");
        h.record_us_tagged(5000, 77, 15169);
        h.record_us(3);
        let snap = reg.snapshot();
        let json = snap.to_json();
        assert!(json.contains("\"exemplars\": [[8192, 77, 15169, 5000]]"), "{json}");
        assert!(json.contains("\"raw\": [3, 5000]"), "{json}");
        assert!(json.contains("\"p999_us\": 5000"), "{json}");
        assert!(json.contains("\"max_us\": 5000"), "{json}");
        let back = Snapshot::from_json(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn summary_table_lists_every_section() {
        let table = sample().render_table();
        for needle in ["counters:", "gauges:", "histograms", "sweep.item_us", "measure"] {
            assert!(table.contains(needle), "missing {needle} in:\n{table}");
        }
        // A histogram row carries its count and its total.
        let row = table.lines().find(|l| l.contains("phase=\"measure\"")).unwrap();
        assert!(row.contains("1 obs  total         1234"), "{row}");
        assert!(Snapshot::default().render_table().contains("no metrics"));
    }
}
