//! Prometheus text exposition for [`crate::Snapshot`].
//!
//! Renders every counter, gauge, and histogram of a snapshot
//! in the Prometheus text format (v0.0.4, with OpenMetrics-style
//! exemplars on histogram bucket lines), so `flatnet serve` is scrapeable
//! by standard tooling via `/metrics?format=prom` and any obs JSON
//! snapshot converts offline via `flatnet metrics --prom`.
//!
//! Mapping rules:
//!
//! - Registry names are dotted (`serve.request_us`); Prometheus names
//!   are underscored, so every character outside `[a-zA-Z0-9_:]` maps to
//!   `_`.
//! - A registry name may embed labels verbatim —
//!   `serve.stage_us{stage="queue_wait"}` — which lets label-less
//!   registries still export one Prometheus *family* with many labeled
//!   series. The JSON exporter treats the whole string as the name.
//! - Histogram families ending in `_us` are exported in **seconds**
//!   (the Prometheus base unit) under `<base>_seconds`; bucket `le`
//!   bounds convert accordingly and the overflow bucket becomes `+Inf`.
//! - Counters gain the conventional `_total` suffix.
//! - A bucket with an exemplar appends
//!   `# {trace_id="<hex>",origin_as="<asn>"} <exact value>` so the series
//!   behind a p99 names the concrete request that produced it.

use crate::snapshot::Snapshot;
use crate::metrics::{bucket_bound_us, HISTOGRAM_BUCKETS};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The Content-Type to serve this exposition under.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Splits a registry name into its Prometheus family base and an
/// optional verbatim label block (without braces).
fn split_name(name: &str) -> (String, &str) {
    let (base, labels) = match name.split_once('{') {
        Some((b, rest)) => (b, rest.strip_suffix('}').unwrap_or(rest)),
        None => (name, ""),
    };
    let mut out = String::with_capacity(base.len());
    for (i, c) in base.chars().enumerate() {
        match c {
            'a'..='z' | 'A'..='Z' | '_' | ':' => out.push(c),
            '0'..='9' if i > 0 => out.push(c),
            _ => out.push('_'),
        }
    }
    (out, labels)
}

/// Joins a verbatim label block with one extra `key="value"` pair.
fn join_labels(labels: &str, extra: &str) -> String {
    match (labels.is_empty(), extra.is_empty()) {
        (true, true) => String::new(),
        (true, false) => format!("{{{extra}}}"),
        (false, true) => format!("{{{labels}}}"),
        (false, false) => format!("{{{labels},{extra}}}"),
    }
}

/// Fixed-point microseconds → seconds, deterministic across platforms.
fn us_as_seconds(us: u64) -> String {
    format!("{}.{:06}", us / 1_000_000, us % 1_000_000)
}

#[derive(Default)]
struct Family {
    kind: &'static str,
    /// Pre-rendered sample lines, in insertion (BTreeMap name) order.
    lines: Vec<String>,
}

/// Renders `snap` as a Prometheus text document. Series are grouped by
/// family with exactly one `# HELP` / `# TYPE` pair each, families
/// sorted by name — deterministic for equal snapshots.
pub fn to_prometheus(snap: &Snapshot) -> String {
    let mut families: BTreeMap<String, Family> = BTreeMap::new();
    let mut push = |family: String, kind: &'static str, line: String| {
        let f = families.entry(family).or_default();
        if f.kind.is_empty() {
            f.kind = kind;
        }
        if f.kind == kind {
            f.lines.push(line);
        }
        // A name colliding across metric kinds after sanitization keeps
        // the first kind and drops the rest rather than emitting a
        // duplicate-TYPE document; registry naming makes this unreachable
        // in practice.
    };

    for (name, value) in &snap.counters {
        let (base, labels) = split_name(name);
        let fam =
            if base.ends_with("_total") { base } else { format!("{base}_total") };
        let line = format!("{fam}{} {value}", join_labels(labels, ""));
        push(fam, "counter", line);
    }

    for (name, value) in &snap.gauges {
        let (fam, labels) = split_name(name);
        let line = format!("{fam}{} {value}", join_labels(labels, ""));
        push(fam, "gauge", line);
    }

    for (name, h) in &snap.histograms {
        let (base, labels) = split_name(name);
        let (fam, in_seconds) = match base.strip_suffix("_us") {
            Some(stripped) => (format!("{stripped}_seconds"), true),
            None => (base, false),
        };
        let exemplar_of = |i: usize| -> Option<String> {
            let (_, ex) = h.exemplars.iter().find(|(b, _)| *b == i)?;
            let value = if in_seconds {
                us_as_seconds(ex.value_us)
            } else {
                ex.value_us.to_string()
            };
            Some(format!(
                " # {{trace_id=\"{:016x}\",origin_as=\"{}\"}} {value}",
                ex.trace_id, ex.origin
            ))
        };
        let mut cumulative = 0u64;
        let mut lines = Vec::with_capacity(HISTOGRAM_BUCKETS + 2);
        for i in 0..HISTOGRAM_BUCKETS {
            cumulative += h.buckets[i];
            // Collapse empty leading/inner buckets? No — Prometheus
            // clients expect the full ladder; but 28 buckets per family
            // is noisy, so skip buckets that add nothing *and* have no
            // exemplar, keeping the first, any occupied, and +Inf.
            let bound = bucket_bound_us(i);
            let is_last = i + 1 == HISTOGRAM_BUCKETS;
            let ex = exemplar_of(i);
            if h.buckets[i] == 0 && !is_last && ex.is_none() {
                continue;
            }
            let le = if is_last {
                "+Inf".to_string()
            } else if in_seconds {
                us_as_seconds(bound)
            } else {
                bound.to_string()
            };
            lines.push(format!(
                "{fam}_bucket{} {cumulative}{}",
                join_labels(labels, &format!("le=\"{le}\"")),
                ex.unwrap_or_default()
            ));
        }
        let sum = if in_seconds { us_as_seconds(h.sum_us) } else { h.sum_us.to_string() };
        lines.push(format!("{fam}_sum{} {sum}", join_labels(labels, "")));
        lines.push(format!("{fam}_count{} {}", join_labels(labels, ""), h.count()));
        for line in lines {
            push(fam.clone(), "histogram", line);
        }
    }

    let mut out = String::new();
    for (fam, family) in &families {
        let _ = writeln!(out, "# HELP {fam} flatnet metric {fam}");
        let _ = writeln!(out, "# TYPE {fam} {}", family.kind);
        for line in &family.lines {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn exposition() -> String {
        let reg = Registry::new();
        reg.counter("parse.caida.records_ok").add(41);
        reg.gauge("serve.queue_depth").set(3);
        reg.histogram("serve.stage_us{stage=\"queue_wait\"}").record_us(50);
        reg.histogram("serve.stage_us{stage=\"propagate\"}").record_us_tagged(
            5000, 0xabcd, 15169,
        );
        reg.histogram("store.load_bytes").record_us(2048);
        reg.histogram("pipeline.phase_us{phase=\"measure\"}").record_us(1_500_000);
        to_prometheus(&reg.snapshot())
    }

    /// The same minimal linter CI runs: every sample's family must have
    /// exactly one HELP and one TYPE, declared before any sample.
    fn lint(text: &str) {
        use std::collections::HashMap;
        let mut helps: HashMap<&str, u32> = HashMap::new();
        let mut types: HashMap<&str, &str> = HashMap::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let fam = rest.split(' ').next().unwrap();
                *helps.entry(fam).or_insert(0) += 1;
                assert_eq!(helps[fam], 1, "duplicate HELP for {fam}");
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split(' ');
                types.insert(it.next().unwrap(), it.next().unwrap());
            } else if !line.is_empty() {
                let name = line.split(['{', ' ']).next().unwrap();
                let fam = name
                    .strip_suffix("_bucket")
                    .or_else(|| name.strip_suffix("_sum"))
                    .or_else(|| name.strip_suffix("_count"))
                    .filter(|f| types.get(f) == Some(&"histogram"))
                    .unwrap_or(name);
                assert!(types.contains_key(fam), "untyped series {name}: {line}");
            }
        }
    }

    #[test]
    fn exposition_is_typed_and_lint_clean() {
        let text = exposition();
        lint(&text);
        assert!(text.contains("# TYPE parse_caida_records_ok_total counter"), "{text}");
        assert!(text.contains("parse_caida_records_ok_total 41"), "{text}");
        assert!(text.contains("# TYPE serve_queue_depth gauge"), "{text}");
        assert!(text.contains("serve_queue_depth 3"), "{text}");
        // A timed phase is a seconds histogram labelled by its phase.
        assert!(text.contains("pipeline_phase_seconds_count{phase=\"measure\"} 1"), "{text}");
        assert!(text.contains("pipeline_phase_seconds_sum{phase=\"measure\"} 1.500000"), "{text}");
    }

    #[test]
    fn labeled_histograms_share_one_family() {
        let text = exposition();
        assert_eq!(
            text.matches("# TYPE serve_stage_seconds histogram").count(),
            1,
            "{text}"
        );
        assert!(
            text.contains("serve_stage_seconds_bucket{stage=\"queue_wait\",le=\"0.000064\"} 1"),
            "{text}"
        );
        assert!(text.contains("serve_stage_seconds_count{stage=\"propagate\"} 1"), "{text}");
        assert!(text.contains("serve_stage_seconds_sum{stage=\"queue_wait\"} 0.000050"), "{text}");
        // Non-_us histograms keep their unit and name.
        assert!(text.contains("# TYPE store_load_bytes histogram"), "{text}");
        assert!(text.contains("store_load_bytes_bucket{le=\"2048\"} 1"), "{text}");
    }

    #[test]
    fn exemplars_ride_the_bucket_line() {
        let text = exposition();
        let line = text
            .lines()
            .find(|l| l.contains("stage=\"propagate\"") && l.contains("# {"))
            .expect("exemplar line");
        assert!(line.contains("trace_id=\"000000000000abcd\""), "{line}");
        assert!(line.contains("origin_as=\"15169\""), "{line}");
        assert!(line.ends_with("0.005000"), "{line}");
    }

    #[test]
    fn overflow_bucket_is_plus_inf() {
        let reg = Registry::new();
        reg.histogram("h_us").record_us(u64::MAX);
        let text = to_prometheus(&reg.snapshot());
        assert!(text.contains("h_seconds_bucket{le=\"+Inf\"} 1"), "{text}");
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        assert_eq!(to_prometheus(&Snapshot::default()), "");
    }
}
