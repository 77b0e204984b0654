//! The flatnet benchmark: four named workloads at the paper's scale, the
//! issue's seven end-to-end figures for each, and a traced run that
//! explains them layer by layer. See `README.md` beside this package for
//! every name, and for which figures gate later changes.
//!
//! Two ways in:
//!
//! * `--workload NAME --seed S --seconds T --trace 0|1` runs one workload
//!   in this process and ends its standard output with one JSON line
//!   (`correct`, `attempted`, `failed`, `metrics`).
//! * without `--workload`, the whole suite runs — each workload in a
//!   child process of its own, so that set-up time, peak memory and CPU
//!   time belong to that workload alone — `--sets N` times over, with a
//!   PASS/FAIL comparison of the sets against each metric's bound.

mod client;
mod metrics;
mod ops;
mod procstat;
mod replay;
mod serving;
mod stats;
mod suite;
mod sweep;
mod trace;
mod window;
mod world;

use metrics::{Metrics, END_TO_END, PER_LAYER};
use ops::Kind;
use std::path::PathBuf;
use trace::Trace;
use window::Window;

/// ASes of the paper's September 2020 topology.
pub const PAPER_ASES: usize = 69_488;
/// The measured window's default length; `BENCHMARK.json` names the same.
pub const DEFAULT_SECONDS: f64 = 22.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Hot,
    Cold,
    Fleet,
    Sweep,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Hot,
        Workload::Cold,
        Workload::Fleet,
        Workload::Sweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Hot => "hot",
            Workload::Cold => "cold",
            Workload::Fleet => "fleet",
            Workload::Sweep => "sweep",
        }
    }

    fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload {s:?} (want hot|cold|fleet|sweep)"))
    }
}

/// The settings of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sets: usize,
    /// `--smoke`: 4 000 ASes, 2-second windows — what the harness tests
    /// run.
    pub smoke: bool,
    pub ases: usize,
    pub warmup_s: f64,
    /// Test hook: make every expected reach count wrong, which must fail
    /// verification and the command.
    pub inject_wrong_expected: bool,
    /// Where the trace files go.
    pub out_dir: PathBuf,
    /// This process's own scratch directory, removed when it ends.
    pub scratch: PathBuf,
}

fn usage() -> String {
    "usage: flatnet-benchmark [--workload hot|cold|fleet|sweep] [--seed S] [--seconds T] \
     [--trace [0|1]] [--sets N] [--smoke]"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    // The package as found from the checkout the command runs in; the
    // path baked in at build time is only the fallback.
    let out_dir = match std::env::current_dir() {
        Ok(cwd) if cwd.join("benchmark/Cargo.toml").exists() => cwd.join("benchmark"),
        _ => PathBuf::from(env!("CARGO_MANIFEST_DIR")),
    }
    .join("out");
    let mut o = Opts {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        sets: 1,
        smoke: false,
        ases: PAPER_ASES,
        warmup_s: 3.0,
        inject_wrong_expected: false,
        scratch: out_dir.join(format!("run-{}", std::process::id())),
        out_dir,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        args.get(*i)
            .ok_or_else(|| format!("{} needs a value\n{}", args[*i - 1], usage()))
    };
    let number = |name: &str, s: &str| s.parse::<f64>().map_err(|_| format!("bad {name} {s:?}"));
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => o.workload = Some(Workload::parse(value(&mut i)?)?),
            "--seed" => {
                o.seed = value(&mut i)?
                    .parse()
                    .map_err(|_| "bad --seed".to_string())?
            }
            "--seconds" => o.seconds = number("--seconds", value(&mut i)?)?,
            "--sets" => o.sets = number("--sets", value(&mut i)?)? as usize,
            "--trace" => {
                // `--trace` alone switches tracing on; `--trace 0|1` is
                // the driver's spelling.
                o.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => {
                o.smoke = true;
                o.ases = 4000;
                o.seconds = 2.0;
                o.warmup_s = 0.5;
            }
            "--inject-wrong-expected" => o.inject_wrong_expected = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
        i += 1;
    }
    if !(o.seconds > 0.0 && o.seconds <= 600.0) || o.sets == 0 {
        return Err(format!("argument out of range\n{}", usage()));
    }
    Ok(o)
}

/// What one workload run found.
pub struct Outcome {
    pub metrics: Metrics,
    /// Ops attempted: verified ones plus everything the windows sent.
    pub attempted: u64,
    /// Non-200s, transport failures and wrong answers.
    pub failed: u64,
    pub checksum: Option<u64>,
}

impl Outcome {
    pub fn new(verified: u64, mismatches: &[String]) -> Outcome {
        println!(
            "verification: {verified} answers checked against bgpsim/core, {} wrong",
            mismatches.len()
        );
        for m in mismatches.iter().take(5) {
            println!("  WRONG {m}");
        }
        Outcome {
            metrics: Metrics::default(),
            attempted: verified,
            failed: mismatches.len() as u64,
            checksum: None,
        }
    }

    pub fn absorb_failures(&mut self, w: &Window) {
        self.attempted += w.attempted();
        self.failed += w.failed;
        for e in &w.errors {
            println!("  FAILED {e}");
        }
    }

    pub fn print_window(workload: Workload, what: &str, w: &Window) {
        println!(
            "{} {what}: {:.1} s, {} ops completed, {} failed; {:.1} ops/s, p50 {:.1} us, \
             p99 {:.1} us over {} samples ({} beyond it)",
            workload.name(),
            w.seconds,
            w.completed(),
            w.failed,
            w.ops_per_s(),
            w.percentile_us(50.0),
            w.percentile_us(99.0),
            w.completed(),
            w.samples_beyond(99.0),
        );
    }

    /// The reconciliation line of a traced run: where the mean latency
    /// goes.
    pub fn reconcile_line(&self, workload: Workload, w: &Window, replayed_us: f64) {
        let mean = w.mean_latency_us();
        let client = self.metrics.get("client.write_us") + self.metrics.get("client.read_us");
        println!(
            "reconcile {}: mean end-to-end {:.1} us = replayed layers {:.1} us + client write/read {:.1} us \
             + unexplained (loopback, wake-ups) {:.1} us; serve.propagate_share {:.3}",
            workload.name(),
            mean,
            replayed_us,
            client,
            mean - replayed_us - client,
            self.metrics.get("serve.propagate_share"),
        );
    }

    fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The issue's end-to-end figures of an untraced window, each over the
/// whole window (`error_rate` follows once the run knows its failures).
pub fn report_window(w: &Window, setup_s: f64, m: &mut Metrics) {
    m.set("setup_s", setup_s);
    m.set("ops_per_s", w.ops_per_s());
    m.set("latency_p50_us", w.percentile_us(50.0));
    m.set("latency_p99_us", w.percentile_us(99.0));
    m.set("cpu_s_per_kop", w.cpu_s_per_kop());
    m.set("peak_rss_mb", w.rss_peak_mb);
}

/// The per-layer metrics that come straight from the traced window:
/// per-kind figures, the client's share, the process's counters.
pub fn report_traced_window(traced: &Window, untraced: &Window, m: &mut Metrics) {
    for kind in Kind::ALL {
        m.set(
            &format!("kind.{}.p50_us", kind.name()),
            traced.kind_p50_us(kind),
        );
        m.set(
            &format!("kind.{}.share", kind.name()),
            traced.kind_share(kind),
        );
    }
    let ops = traced.completed().max(1) as f64;
    m.set("client.write_us", traced.write_ns as f64 / ops / 1e3);
    m.set("client.wait_us", traced.wait_ns as f64 / ops / 1e3);
    m.set("client.read_us", traced.read_ns as f64 / ops / 1e3);
    m.set(
        "client.reconnects_per_kop",
        traced.reconnects as f64 / traced.kops().max(1e-9),
    );
    m.set(
        "proc.cpu_user_s",
        traced.cpu_after.user_s - traced.cpu_before.user_s,
    );
    m.set(
        "proc.cpu_sys_s",
        traced.cpu_after.sys_s - traced.cpu_before.sys_s,
    );
    let switches = traced
        .cpu_after
        .ctx_switches
        .saturating_sub(traced.cpu_before.ctx_switches);
    m.set(
        "proc.ctx_switches_per_kop",
        switches as f64 / traced.kops().max(1e-9),
    );
    m.set("proc.rss_end_mb", traced.rss_end_mb);
    m.set(
        "trace.overhead_ratio",
        untraced.ops_per_s() / traced.ops_per_s().max(1e-9),
    );
    m.set(
        "trace.origins_per_s",
        traced.origins as f64 / traced.seconds,
    );
    m.set(
        "trace.bytes_out_per_s",
        traced.bytes as f64 / traced.seconds,
    );
}

/// Turns the ops a traced window kept into spans: one per op, with the
/// client's write / wait-first-byte / read-body parts as children.
pub fn client_spans(w: &Window, trace: &mut Trace) {
    for (client, spans) in w.spans.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            // Op ids of client `c` are `c`, `c + clients`, …; client 0's
            // line up with the replayed ops.
            let op = (i * w.spans.len() + client) as u32;
            let name = match s.kind {
                Kind::Single => "op.single",
                Kind::Batch => "op.batch",
                Kind::Reliance => "op.reliance",
                Kind::Full => "op.full",
                Kind::Leak => "op.leak",
                Kind::Dense => "op.dense",
                Kind::Hfree => "op.hfree",
            };
            let root = trace.record(op, name, None, s.start, s.end);
            if let Some((written, first_byte)) = s.io {
                trace.record(op, "client.write", Some(root), s.start, written);
                trace.record(op, "client.wait", Some(root), written, first_byte);
                trace.record(op, "client.read", Some(root), first_byte, s.end);
            }
        }
    }
}

/// Runs one workload in this process and prints its result line.
fn run_one(workload: Workload, opts: &Opts) -> Result<bool, String> {
    if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        return Err(
            "the benchmark needs at least 2 cores: its clients and the daemon's workers \
                    would time-slice one core and every latency would be the scheduler's"
                .into(),
        );
    }
    flatnet_obs::log::set_level(flatnet_obs::Level::Warn);
    std::fs::create_dir_all(&opts.scratch)
        .map_err(|e| format!("{}: {e}", opts.scratch.display()))?;
    suite::print_environment(opts);
    let result = match workload {
        Workload::Sweep => sweep::run(opts),
        _ => serving::run(workload, opts),
    };
    let _ = std::fs::remove_dir_all(&opts.scratch);
    let mut out = result?;

    let error_rate = out.error_rate();
    out.metrics.set("error_rate", error_rate);
    println!("{} metrics, seed {}:", workload.name(), opts.seed);
    println!(" end to end");
    print!("{}", out.metrics.render(END_TO_END));
    let defs = if opts.trace {
        println!(" per layer");
        print!("{}", out.metrics.render(PER_LAYER));
        PER_LAYER
    } else {
        println!(" end to end, not gated (declared per layer)");
        let ungated: Vec<_> = metrics::ungated().copied().collect();
        print!("{}", out.metrics.render(&ungated));
        END_TO_END
    };
    println!(
        "attempted {} succeeded {} failed {} error_rate {error_rate}",
        out.attempted,
        out.attempted - out.failed,
        out.failed
    );
    let correct = out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        out.metrics.to_json(defs)
    );
    Ok(correct)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let ok = match opts.workload {
        Some(w) => run_one(w, &opts),
        None => suite::run(&opts),
    };
    match ok {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("flatnet-benchmark: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// `BENCHMARK.json` at the repository root is the driver's view of
    /// this package; it must name exactly what the code reports.
    #[test]
    fn benchmark_json_declares_what_the_code_reports() {
        use flatnet_serve::json::{self, Json};
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect(path))
            .expect("BENCHMARK.json parses");
        let text =
            |v: &Json, key: &str| v.get(key).and_then(Json::as_str).unwrap_or("").to_string();
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap_or(&[])
                .to_vec()
        };

        let declared: Vec<_> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect();
        let reported: Vec<_> = END_TO_END
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.name().to_string(),
                    Some(d.bound),
                )
            })
            .collect();
        assert_eq!(declared, reported);

        let declared: Vec<_> = list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let reported: Vec<_> = PER_LAYER
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.name().to_string(),
                )
            })
            .collect();
        assert_eq!(declared, reported);

        let workloads: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
        assert!(list("workloads")
            .iter()
            .all(|w| !text(w, "why").is_empty() && text(w, "why").len() <= 200));
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        let strings = |key: &str| {
            list(key)
                .iter()
                .map(|v| v.as_str().unwrap_or("").to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(strings("paths"), ["benchmark"]);
        let command = strings("command");
        assert!(
            command.iter().any(|c| c == "benchmark/Cargo.toml")
                && command.last().is_some_and(|c| c == "--")
        );
    }

    #[test]
    fn driver_and_human_spellings_of_trace_both_parse() {
        let o = parse_args(&args("--workload cold --seed 7 --seconds 10 --trace 0")).unwrap();
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.trace),
            (Some(Workload::Cold), 7, 10.0, false)
        );
        assert!(parse_args(&args("--workload hot --trace 1")).unwrap().trace);
        assert!(parse_args(&args("--trace --sets 2")).unwrap().trace);
        assert_eq!(parse_args(&args("--trace --sets 2")).unwrap().sets, 2);
        let smoke = parse_args(&args("--smoke")).unwrap();
        assert_eq!((smoke.ases, smoke.seconds), (4000, 2.0));
        assert!(parse_args(&args("--workload lukewarm")).is_err());
        assert!(parse_args(&args("--seconds 0")).is_err());
        assert!(parse_args(&args("--frobnicate")).is_err());
    }
}
