//! The whole-suite mode: every workload in a child process of its own,
//! `--sets N` times, with the sets compared against each end-to-end
//! metric's bound. Also the environment block every run starts with.

use crate::metrics::{ungated, Better, Def, END_TO_END, PER_LAYER};
use crate::ops::{Kind, CLIENTS};
use crate::{Opts, Workload};
use flatnet_serve::json::{self, Json};
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Everything that must match before two results may be compared.
pub fn print_environment(opts: &Opts) {
    let lanes = flatnet_bgpsim::LaneWidth::Auto.lanes();
    println!("environment:");
    println!(
        "  nproc {}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!(
        "  cpu_features {}",
        flatnet_bgpsim::cpu_features().join(",")
    );
    println!("  lane_width auto -> {lanes} origins per kernel block");
    println!(
        "  git_commit {}",
        command_line("git", &["rev-parse", "HEAD"])
    );
    println!("  rustc {}", command_line("rustc", &["--version"]));
    println!("  seed {} ases_requested {}", opts.seed, opts.ases);
    println!(
        "  clients {CLIENTS} closed-loop keep-alive connections; daemon workers 2, cache_cap 4096; \
         fleet 2 shards x 4 workers; sweep threads 2"
    );
    println!(
        "  warm-up {} s, measured window {} s{}",
        opts.warmup_s,
        opts.seconds,
        if opts.trace {
            " (two thirds untraced, one third traced)"
        } else {
            ""
        }
    );
}

/// What one child run printed: its verdict and every metric line.
struct ChildResult {
    correct: bool,
    metrics: Vec<(String, f64)>,
    checksum: Option<String>,
}

impl ChildResult {
    fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Runs one workload in a child of this executable, echoing its output,
/// and reads back its `name value unit` metric lines and the JSON line it
/// ends with.
fn run_child(
    workload: Workload,
    opts: &Opts,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    cmd.args([
        "--workload",
        workload.name(),
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ])
    .args(["--trace", if trace { "1" } else { "0" }]);
    if opts.inject_wrong_expected {
        cmd.arg("--inject-wrong-expected");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot run {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let last = stdout.lines().last().unwrap_or("");
    let doc = json::parse(last).map_err(|e| {
        format!(
            "{} (exit {:?}) printed no result line: {e}",
            workload.name(),
            output.status.code()
        )
    })?;
    let metrics = stdout
        .lines()
        .filter_map(|l| {
            let mut tokens = l.split_whitespace();
            let name = tokens.next()?;
            let value = tokens.next()?.parse().ok()?;
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .any(|d| d.name == name)
                .then(|| (name.to_string(), value))
        })
        .collect();
    let checksum = stdout
        .lines()
        .find_map(|l| l.strip_prefix("sweep checksum: "))
        .map(str::to_string);
    Ok(ChildResult {
        correct: doc.get("correct").and_then(Json::as_bool) == Some(true),
        metrics,
        checksum,
    })
}

/// How much worse `b` is than `a`, as a share of `a`.
fn worsening(def: &Def, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn run(opts: &Opts) -> Result<bool, String> {
    let mut ok = true;
    // results[set][workload]
    let mut sets: Vec<Vec<ChildResult>> = Vec::new();
    let mut traced: Vec<ChildResult> = Vec::new();
    for set in 0..opts.sets {
        let mut results = Vec::new();
        for workload in Workload::ALL {
            println!(
                "\n=== set {} / {}: {} ===",
                set + 1,
                opts.sets,
                workload.name()
            );
            let r = run_child(workload, opts, opts.seed, opts.seconds, false)?;
            ok &= r.correct;
            results.push(r);
            if opts.trace && set == 0 {
                println!("\n=== traced run: {} ===", workload.name());
                let r = run_child(workload, opts, opts.seed, opts.seconds, true)?;
                ok &= r.correct;
                traced.push(r);
            }
        }
        sets.push(results);
    }

    println!("\n=== end-to-end summary (seed {}) ===", opts.seed);
    for (w, workload) in Workload::ALL.iter().enumerate() {
        for def in END_TO_END.iter().chain(ungated()) {
            let values: Vec<f64> = sets.iter().map(|s| s[w].get(def.name)).collect();
            let mut line = format!("{:<6} {:<16}", workload.name(), def.name);
            for v in &values {
                line.push_str(&format!(" {v:>14.4}"));
            }
            line.push_str(&format!(" {}", def.unit));
            if values.len() >= 2 {
                // Repeatability: every later set against the first, in
                // both directions — neither may be worse than the other
                // by more than the bound. A verdict, not an error: the
                // exit code reports wrong answers only, since single
                // runs on a shared box differ by more than most bounds.
                let worst = values[1..]
                    .iter()
                    .map(|&v| worsening(def, values[0], v).max(worsening(def, v, values[0])))
                    .fold(0.0, f64::max);
                let pass = worst <= def.bound;
                let gated = END_TO_END.iter().any(|d| d.name == def.name);
                line.push_str(&format!(
                    "  diff {:.2}% of bound {:.0}% {}{}",
                    worst * 100.0,
                    def.bound * 100.0,
                    if pass { "PASS" } else { "FAIL" },
                    if gated { "" } else { " (not gated)" }
                ));
            }
            println!("{line}");
        }
    }
    let checksums: Vec<&String> = sets.iter().filter_map(|s| s[3].checksum.as_ref()).collect();
    if checksums.windows(2).any(|p| p[0] != p[1]) {
        println!("sweep checksum differs between sets: {checksums:?} FAIL");
        ok = false;
    } else if let Some(c) = checksums.first() {
        println!("sweep checksum {c} in every set");
    }

    if opts.trace {
        println!("\n=== separation of the workloads (traced runs) ===");
        for (r, workload) in traced.iter().zip(Workload::ALL) {
            println!(
                "{:<6} serve.propagate_share {:.3}  serve.cache_hit_ratio {:.3}  router.scatters_per_kop {:.1}  \
                 trace.reconcile_ratio {:.3}  trace.overhead_ratio {:.3}",
                workload.name(),
                r.get("serve.propagate_share"),
                r.get("serve.cache_hit_ratio"),
                r.get("router.scatters_per_kop"),
                r.get("trace.reconcile_ratio"),
                r.get("trace.overhead_ratio"),
            );
        }
        // A second seed must tell the same story about `cold`.
        let other_seed = if opts.seed == 7 { 8 } else { 7 };
        println!(
            "\n=== cold with seed {other_seed}: the kind shares must not depend on the seed ==="
        );
        let second = run_child(
            Workload::Cold,
            opts,
            other_seed,
            opts.seconds.min(6.0),
            true,
        )?;
        ok &= second.correct;
        for kind in Kind::ALL {
            let name = format!("kind.{}.share", kind.name());
            println!(
                "{name:<22} seed {} {:.3}   seed {other_seed} {:.3}",
                opts.seed,
                traced[1].get(&name),
                second.get(&name)
            );
        }
    }
    println!(
        "\n{}",
        if ok {
            "benchmark: OK"
        } else {
            "benchmark: FAILED"
        }
    );
    Ok(ok)
}
