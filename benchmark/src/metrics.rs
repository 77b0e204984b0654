//! Every metric the benchmark reports, by name, unit and direction. The
//! two tables are the source of truth: `BENCHMARK.json` must list exactly
//! these (a test compares them), and a run may only set a metric that is
//! declared here.

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening that counts as a regression: set for the
    /// issue's end-to-end metrics, 0 for a layer's own.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
        bound: 0.0,
    }
}

/// The end-to-end metrics `BENCHMARK.json` gates later changes on: the two
/// of the issue's seven that the reference box lets repeat. Neither keeps
/// the issue's bound. `setup_s` (issue: 0.10) spreads 12–47 % over ten
/// runs, but the driver wants it here, with the largest bound. The spread
/// of `peak_rss_mb` (issue: 0.05) is 2.5–6.5 %, and the driver asks for a
/// bound three times the spread.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.20),
];

/// One layer each; reported from the traced run. A metric that a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: &[Def] = &[
    // The issue's other end-to-end metrics, with the issue's bounds. Every
    // run measures and prints them over the whole untraced window, but on
    // the reference box their ten-run spreads are 7–49 %: none repeats
    // within its bound, nor within the driver's largest on every workload,
    // so by the issue's own rule they are declared here, ungated, instead
    // of getting a wider bound. `error_rate` is 0 on a healthy run, which the driver's
    // relative bounds cannot hold; it is `failed` / `attempted` of the
    // result line.
    e2e("ops_per_s", "1/s", Better::Higher, 0.08),
    e2e("latency_p50_us", "us", Better::Lower, 0.10),
    e2e("latency_p99_us", "us", Better::Lower, 0.10),
    e2e("cpu_s_per_kop", "s", Better::Lower, 0.08),
    lo("error_rate", "ratio"),
    // Set-up, layer by layer.
    lo("netgen.generate_ms", "ms"),
    lo("asgraph.parse_ms", "ms"),
    hi("asgraph.parse_mb_per_s", "MB/s"),
    lo("asgraph.infer_tiers_ms", "ms"),
    lo("asgraph.validate_ms", "ms"),
    lo("bgpsim.compile_ms", "ms"),
    lo("store.save_ms", "ms"),
    lo("store.load_ms", "ms"),
    lo("store.verify_ms", "ms"),
    lo("store.bytes", "count"),
    lo("serve.start_cold_ms", "ms"),
    lo("serve.start_warm_ms", "ms"),
    // bgpsim: scalar engine.
    lo("bgpsim.scalar_full_us", "us"),
    lo("bgpsim.scalar_hfree_us", "us"),
    lo("bgpsim.dijkstra_pops_per_run", "count"),
    lo("bgpsim.export_checks_per_run", "count"),
    lo("bgpsim.runs_per_kop", "count"),
    // bgpsim: lane kernel.
    lo("bgpsim.kernel_dense_ns_per_origin", "ns"),
    lo("bgpsim.kernel_dense64_ns_per_origin", "ns"),
    lo("bgpsim.kernel_dense_ns_per_edge", "ns"),
    lo("bgpsim.kernel_hfree_ns_per_origin", "ns"),
    lo("bgpsim.materialize_ns_per_origin", "ns"),
    lo("bgpsim.kernel_rounds_per_block", "count"),
    // bgpsim: DAG consumers.
    lo("bgpsim.reliance_us", "us"),
    lo("bgpsim.leak_us_per_leaker", "us"),
    // core: the paper's experiments.
    lo("core.hfree_all_ms", "ms"),
    lo("core.reliance_profile_ms", "ms"),
    lo("core.leak_cdf_ms", "ms"),
    // serve, replayed through its public functions.
    lo("serve.http_parse_ns", "ns"),
    lo("serve.cache_get_ns", "ns"),
    lo("serve.envelope_ns", "ns"),
    lo("serve.write_small_ns", "ns"),
    lo("serve.cache_put_ns", "ns"),
    lo("serve.cache_probe_many_ns_per_key", "ns"),
    lo("serve.json_parse_ns", "ns"),
    lo("serve.write_full_us", "us"),
    // serve, scraped from the daemon's /metrics around the window.
    lo("serve.stage.queue_wait_us", "us"),
    lo("serve.stage.parse_us", "us"),
    lo("serve.stage.cache_probe_us", "us"),
    lo("serve.stage.propagate_us", "us"),
    lo("serve.stage.serialize_us", "us"),
    lo("serve.stage.write_us", "us"),
    lo("serve.stage.keepalive_idle_us", "us"),
    lo("serve.propagate_share", "ratio"),
    lo("serve.worker_busy_share", "ratio"),
    hi("serve.cache_hit_ratio", "ratio"),
    lo("serve.cache_evictions_per_kop", "count"),
    lo("serve.connections_per_kop", "count"),
    lo("serve.queue_rejected", "count"),
    lo("serve.http_5xx", "count"),
    // router.
    lo("router.ring_owner_ns", "ns"),
    lo("router.merge_us", "us"),
    lo("router.upstream_rtt_us", "us"),
    lo("router.relay_full_us", "us"),
    lo("router.overhead_us", "us"),
    hi("router.upstream_reuse_ratio", "ratio"),
    lo("router.scatters_per_kop", "count"),
    lo("router.partials", "count"),
    // obs: what the instrumentation itself costs.
    lo("obs.histogram_record_ns", "ns"),
    lo("obs.metrics_render_us", "us"),
    // The load generator's own share of a request.
    lo("client.write_us", "us"),
    lo("client.wait_us", "us"),
    lo("client.read_us", "us"),
    lo("client.reconnects_per_kop", "count"),
    // The process.
    lo("proc.cpu_user_s", "s"),
    lo("proc.cpu_sys_s", "s"),
    lo("proc.ctx_switches_per_kop", "count"),
    lo("proc.rss_end_mb", "MB"),
    // Per kind of op: median latency and share of the window's op time.
    lo("kind.single.p50_us", "us"),
    lo("kind.batch.p50_us", "us"),
    lo("kind.reliance.p50_us", "us"),
    lo("kind.full.p50_us", "us"),
    lo("kind.leak.p50_us", "us"),
    lo("kind.dense.p50_us", "us"),
    lo("kind.hfree.p50_us", "us"),
    lo("kind.single.share", "ratio"),
    lo("kind.batch.share", "ratio"),
    lo("kind.reliance.share", "ratio"),
    lo("kind.full.share", "ratio"),
    lo("kind.leak.share", "ratio"),
    lo("kind.dense.share", "ratio"),
    lo("kind.hfree.share", "ratio"),
    // The trace against the end-to-end figures.
    hi("trace.reconcile_ratio", "ratio"),
    lo("trace.overhead_ratio", "ratio"),
    hi("trace.origins_per_s", "1/s"),
    hi("trace.bytes_out_per_s", "1/s"),
];

/// The issue's end-to-end metrics declared per layer: measured in every
/// run, compared by `--sets`, gating nothing.
pub fn ungated() -> impl Iterator<Item = &'static Def> {
    PER_LAYER.iter().filter(|d| d.bound > 0.0)
}

/// The values of one run, keyed by declared metric name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Sets a per-layer metric; the name must be declared in
    /// [`PER_LAYER`] or [`END_TO_END`].
    pub fn set(&mut self, name: &str, value: f64) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared in metrics.rs"));
        // `+ 0.0` turns the -0.0 an empty sum yields into 0.0.
        self.values
            .insert(def.name, if value.is_finite() { value + 0.0 } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The `metrics` object of the result line: every metric of `defs`,
    /// unset ones as 0.
    pub fn to_json(&self, defs: &[Def]) -> String {
        let mut out = String::from("{");
        for (i, d) in defs.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i > 0 { ", " } else { "" },
                d.name,
                fmt_value(self.get(d.name)),
                d.unit
            );
        }
        out.push('}');
        out
    }

    /// The human-readable listing: one `name value unit` line each.
    pub fn render(&self, defs: &[Def]) -> String {
        let mut out = String::new();
        for d in defs {
            let _ = writeln!(
                out,
                "  {:<40} {:>16} {}",
                d.name,
                fmt_value(self.get(d.name)),
                d.unit
            );
        }
        out
    }
}

/// A value as measured, with all its digits, in a form JSON accepts.
pub fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_meet_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(d.name), "{}", d.name);
            assert!(ok_unit(d.unit), "{} unit {}", d.name, d.unit);
            assert!(seen.insert(d.name), "{} declared twice", d.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s is required");
        assert!(
            END_TO_END.iter().all(|d| d.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn values_print_as_json_numbers() {
        assert_eq!(fmt_value(3.0), "3.0");
        assert_eq!(fmt_value(1.2034), "1.2034");
        assert_eq!(fmt_value(0.0), "0.0");
        let mut m = Metrics::default();
        m.set("ops_per_s", f64::NAN);
        assert_eq!(m.get("ops_per_s"), 0.0);
    }
}
