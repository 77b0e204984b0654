//! `flatnet bench propagate` — wall-clock benchmark of the two shipped
//! propagation paths: the scalar engine and the bit-parallel lane kernel.
//!
//! The headline passes run the same hierarchy-free reachability
//! workload: for every sampled origin, exclude its providers plus all
//! Tier-1s and Tier-2s ([`flatnet_bgpsim::Exclusion`]), propagate, and
//! count reachable ASes. The engine pass compiles one
//! [`TopologySnapshot`] and reuses a [`SweepCtx`] per worker, refilling
//! the scalar mask per origin, so the steady state allocates nothing.
//! The kernel pass runs the same workload through the multi-origin
//! kernel pinned at the narrowest lane width (64 origins per block,
//! `Simulation::run_sweep_reach_counts_with`), tiers on the shared mask
//! and providers per lane. The two must agree on total reach.
//!
//! A further pair (`kernel_dense` / `kernel_wide`) times the serve batch
//! and cache-warm workload — an unrestricted full-reach sweep of the same
//! origins, where lanes share most node visits — first in 64-lane
//! blocks, then at the wide lane width (256 origins per block on AVX2
//! hardware, or whatever `--lane-width` selects); the
//! `kernel_wide_vs_kernel` ratio compares those two legs and is the CI
//! lane-widening gate. A final pair of passes re-times the engine and
//! 64-lane kernel sweeps multithreaded (`--mt-threads`, default all
//! cores).
//!
//! Results go to stdout and to a JSON report (schema
//! `flatnet-bench-propagate/v2`) consumed by the CI regression gate.
//! The report records the resolved lane widths, per-pass block lane
//! occupancy, and the detected CPU SIMD features, so baselines measured
//! on different runners are comparable.
//! Every ratio is within-run (totals measured on the same machine in the
//! same process), so it is comparable across hosts; the headline passes
//! default to single-threaded for the same reason — `--threads N`
//! changes their sweep parallelism. Each pass runs `--reps` times and
//! keeps its fastest repetition, so the reported totals describe warm
//! steady state rather than allocator warm-up.

use crate::flag_value;
use flatnet_asgraph::NodeId;
use flatnet_bgpsim::{
    cpu_features, Exclusion, ExclusionPolicy, LaneWidth, Simulation, SweepCtx, TopologySnapshot,
    LANES,
};
use flatnet_netgen::{generate, NetGenConfig};
use std::time::Instant;

/// One timing pass's summary statistics.
struct PassStats {
    total_ms: f64,
    p50_us: u64,
    p90_us: u64,
    total_reach: u64,
}

fn percentile(sorted_us: &[u64], pct: usize) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let i = (sorted_us.len() * pct / 100).min(sorted_us.len() - 1);
    sorted_us[i]
}

fn stats(mut per_origin_us: Vec<u64>, total_ms: f64, total_reach: u64) -> PassStats {
    per_origin_us.sort_unstable();
    PassStats {
        total_ms,
        p50_us: percentile(&per_origin_us, 50),
        p90_us: percentile(&per_origin_us, 90),
        total_reach,
    }
}

/// Peak resident set size in bytes (`VmHWM` from `/proc/self/status`),
/// or 0 where procfs is unavailable.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Runs the propagation benchmark with CLI-style `args` (the `bench
/// propagate` subcommand). Writes the JSON report and prints a summary.
pub fn run(args: &[String]) -> Result<(), String> {
    let mut ases = 4000usize;
    let mut seed = 2020u64;
    let mut n_origins = 600usize;
    let mut threads = 1usize;
    let mut mt_threads = 0usize;
    let mut reps = 7usize;
    let mut out = String::from("BENCH_propagate.json");
    let mut lane_width_flag = String::from("auto");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--ases" => ases = flag_value("--ases", it.next())?,
            "--seed" => seed = flag_value("--seed", it.next())?,
            "--origins" => n_origins = flag_value("--origins", it.next())?,
            "--threads" => threads = flag_value("--threads", it.next())?,
            "--mt-threads" => mt_threads = flag_value("--mt-threads", it.next())?,
            "--reps" => reps = flag_value("--reps", it.next())?,
            "--lane-width" => {
                lane_width_flag = it.next().ok_or("--lane-width requires a value")?.clone()
            }
            "--out" => out = it.next().ok_or("--out requires a file path")?.clone(),
            "--help" | "-h" => {
                println!("usage: flatnet bench propagate [--ases N] [--seed S] [--origins K]");
                println!("                               [--threads N] [--mt-threads N] [--reps R]");
                println!("                               [--lane-width W] [--out PATH]");
                println!("--ases N:       topology size (default 4000)");
                println!("--seed S:       generator seed (default 2020)");
                println!("--origins K:    origins to sweep, 0 = every AS (default 600)");
                println!("--threads N:    sweep workers for the headline passes (default 1,");
                println!("                for pure within-run ratios; 0 = all cores)");
                println!("--mt-threads N: workers for the extra multithreaded passes");
                println!("                (default 0 = all cores)");
                println!("--reps R:       repetitions per pass, fastest wins (default 7;");
                println!("                the first rep warms allocators and page cache)");
                println!("--lane-width W: kernel_wide pass lane width: auto, 64, 128, or 256");
                println!("                (default auto = widest the CPU runs well)");
                println!("--out PATH:     JSON report path (default BENCH_propagate.json)");
                return Ok(());
            }
            other => return Err(format!("unknown argument {other:?} (see --help)")),
        }
    }
    let reps = reps.max(1);
    let lane_width = LaneWidth::parse(&lane_width_flag)?;

    let net = generate(&NetGenConfig::paper_2020(ases, seed));
    let g = &net.truth;
    let tiers = net.tiers_for(g);
    let n = g.len();

    // Evenly-spaced origin sample, deterministic for a given (ases, seed).
    let origins: Vec<NodeId> = if n_origins == 0 || n_origins >= n {
        g.nodes().collect()
    } else {
        let step = n / n_origins;
        g.nodes().step_by(step.max(1)).take(n_origins).collect()
    };
    println!(
        "# flatnet bench propagate — {n} ASes (seed {seed}), {} origins, {threads} thread(s)",
        origins.len()
    );

    // Every pass runs `reps` times and keeps its fastest repetition: the
    // first rep pays allocator warm-up and first-touch page faults, and
    // min-of-reps filters scheduler noise out of the within-run ratios.
    let best = |best: &mut Option<PassStats>, s: PassStats| {
        if best.as_ref().is_none_or(|b| s.total_ms < b.total_ms) {
            *best = Some(s);
        }
    };
    // The same for passes that keep only a total: `(fastest ms, reach)`.
    let best_total = |pass: &dyn Fn() -> u64| {
        (0..reps).fold((f64::INFINITY, 0u64), |(ms, _), _| {
            let t0 = Instant::now();
            let reach = pass();
            (ms.min(t0.elapsed().as_secs_f64() * 1e3), reach)
        })
    };
    let total = |counts: Vec<u32>| counts.iter().map(|&c| c as u64).sum::<u64>();

    let excl = Exclusion::new(g, &tiers, ExclusionPolicy::HIERARCHY_FREE)
        .map_err(|e| e.to_string())?;

    // ---- Engine pass: one snapshot, reused workspaces, mask refills. ----
    let tc = Instant::now();
    let snap = TopologySnapshot::compile(g);
    let compile_ms = tc.elapsed().as_secs_f64() * 1e3;
    let sim = Simulation::over(&snap).threads(threads);
    let mut engine_best: Option<PassStats> = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let timed: Vec<(u64, u64)> = sim.run_sweep_map(&origins, |ctx: &mut SweepCtx<'_>, o| {
            let t = Instant::now();
            excl.fill_scalar(o, ctx.config_mut().excluded_mask_mut(n));
            let reach = ctx.run(o).reachable_count() as u64;
            (t.elapsed().as_micros() as u64, reach)
        });
        let total_ms = t0.elapsed().as_secs_f64() * 1e3;
        let reach: u64 = timed.iter().map(|&(_, r)| r).sum();
        best(&mut engine_best, stats(timed.iter().map(|&(us, _)| us).collect(), total_ms, reach));
    }
    let engine = engine_best.expect("reps >= 1");

    // ---- Kernel pass, pinned at the narrowest width (64 origins per
    // block) as the lane-widening baseline; tiers broadcast via the
    // shared mask, providers + origin-allow per lane. ----
    let ksim = Simulation::over(&snap)
        .threads(threads)
        .config(excl.shared_config())
        .lane_width(LaneWidth::W64);
    let hfree = |sim: &Simulation<'_>| {
        total(sim.run_sweep_reach_counts_with(&origins, |o, ex| excl.fill_lane(o, ex)))
    };
    let (kernel_total_ms, kernel_reach) = best_total(&|| hfree(&ksim));
    let kernel_blocks = origins.len().div_ceil(LANES).max(1);
    // Mean origins actually occupying each block (the report used to
    // hardcode 64, wrong for every partial tail block).
    let kernel_occupancy = origins.len() as f64 / kernel_blocks as f64;
    if kernel_reach != engine.total_reach {
        return Err(format!(
            "kernel disagrees with engine: total reach {kernel_reach} vs {}",
            engine.total_reach
        ));
    }

    // ---- Wide-kernel pair: the serve batch / cache-warm workload — an
    // unrestricted full-reach sweep of the same origins, where every
    // lane's announcement floods most of the graph. This is the workload
    // lane *width* exists for: the per-node traversal is shared by every
    // lane that reaches the node, so 256-lane blocks amortize the graph
    // walk over 4x the origins while AVX2 keeps each mask op one vector
    // instruction. (The hierarchy-free pass above is the opposite shape:
    // tier exclusions shrink each reach set to a few dozen nearly
    // disjoint nodes, so there is no shared traversal to amortize and
    // the bench pins that pass to 64 lanes.) The
    // 64-lane leg of the pair runs the *same* dense workload, so the
    // ratio isolates lane widening alone. ----
    let wide_lanes = LANES * lane_width.words_for(origins.len());
    let dsim = Simulation::over(&snap).threads(threads).lane_width(LaneWidth::W64);
    let (kernel_dense_ms, dense_reach) =
        best_total(&|| total(dsim.run_sweep_reach_counts(&origins)));
    let wsim = Simulation::over(&snap).threads(threads).lane_width(lane_width);
    let (kernel_wide_ms, kernel_wide_reach) =
        best_total(&|| total(wsim.run_sweep_reach_counts(&origins)));
    let kernel_wide_blocks = origins.len().div_ceil(wide_lanes).max(1);
    let kernel_wide_occupancy = origins.len() as f64 / kernel_wide_blocks as f64;
    if kernel_wide_reach != dense_reach {
        return Err(format!(
            "wide kernel disagrees with 64-lane kernel on the dense sweep: \
             total reach {kernel_wide_reach} vs {dense_reach}"
        ));
    }

    // ---- Multithreaded variants of both sweeps. ----
    let mt_sim = Simulation::over(&snap).threads(mt_threads);
    let (engine_mt_ms, mt_reach) = best_total(&|| {
        let reached = mt_sim.run_sweep_map(&origins, |ctx: &mut SweepCtx<'_>, o| {
            excl.fill_scalar(o, ctx.config_mut().excluded_mask_mut(n));
            ctx.run(o).reachable_count() as u64
        });
        reached.iter().sum()
    });
    let kmt_sim = Simulation::over(&snap)
        .threads(mt_threads)
        .config(excl.shared_config())
        .lane_width(LaneWidth::W64);
    let (kernel_mt_ms, kernel_mt_reach) = best_total(&|| hfree(&kmt_sim));
    if mt_reach != engine.total_reach || kernel_mt_reach != engine.total_reach {
        return Err(format!(
            "multithreaded passes disagree with the single-threaded ones: engine {mt_reach}, \
             kernel {kernel_mt_reach}, want {}",
            engine.total_reach
        ));
    }

    let kernel_vs_engine = engine.total_ms / kernel_total_ms.max(1e-9);
    // Within-pair ratio: both legs run the dense full-reach sweep, so
    // this isolates what lane widening alone buys (the CI gate).
    let kernel_wide_vs_kernel = kernel_dense_ms / kernel_wide_ms.max(1e-9);
    let features = cpu_features();
    let rss = peak_rss_bytes();
    println!(
        "engine : {:9.1} ms total, p50 {:6} us, p90 {:6} us (+ {:.1} ms snapshot compile)",
        engine.total_ms, engine.p50_us, engine.p90_us, compile_ms
    );
    println!(
        "kernel : {kernel_total_ms:9.1} ms total, {kernel_blocks} blocks of {LANES} lanes \
         (mean occupancy {kernel_occupancy:.1}, {kernel_vs_engine:.2}x over engine)"
    );
    println!(
        "dense64: {kernel_dense_ms:9.1} ms total (full-reach sweep, 64-lane blocks — the \
         serve batch/warm workload)"
    );
    println!(
        "wide   : {kernel_wide_ms:9.1} ms total, {kernel_wide_blocks} blocks of {wide_lanes} \
         lanes (mean occupancy {kernel_wide_occupancy:.1}, {kernel_wide_vs_kernel:.2}x over \
         64-lane kernel on the same sweep)"
    );
    println!(
        "mt     : engine {engine_mt_ms:9.1} ms, kernel {kernel_mt_ms:9.1} ms \
         (threads: {mt_threads}, 0 = all cores)"
    );
    println!(
        "cpu: [{}]   peak RSS: {:.1} MiB",
        features.join(" "),
        rss as f64 / (1 << 20) as f64
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"flatnet-bench-propagate/v2\",\n",
            "  \"ases\": {},\n",
            "  \"seed\": {},\n",
            "  \"origins\": {},\n",
            "  \"threads\": {},\n",
            "  \"mt_threads\": {},\n",
            "  \"reps\": {},\n",
            "  \"lane_width\": \"{}\",\n",
            "  \"cpu_features\": [{}],\n",
            "  \"engine\": {{ \"total_ms\": {:.3}, \"p50_us\": {}, \"p90_us\": {}, \"compile_ms\": {:.3} }},\n",
            "  \"kernel\": {{ \"total_ms\": {:.3}, \"blocks\": {}, \"lanes\": {}, \"occupancy\": {:.2} }},\n",
            "  \"kernel_dense\": {{ \"total_ms\": {:.3}, \"total_reach\": {} }},\n",
            "  \"kernel_wide\": {{ \"total_ms\": {:.3}, \"blocks\": {}, \"lanes\": {}, \"occupancy\": {:.2} }},\n",
            "  \"engine_mt\": {{ \"total_ms\": {:.3} }},\n",
            "  \"kernel_mt\": {{ \"total_ms\": {:.3} }},\n",
            "  \"total_reach\": {},\n",
            "  \"kernel_vs_engine\": {:.4},\n",
            "  \"kernel_wide_vs_kernel\": {:.4},\n",
            "  \"peak_rss_bytes\": {}\n",
            "}}\n"
        ),
        n,
        seed,
        origins.len(),
        threads,
        mt_threads,
        reps,
        lane_width_flag,
        features.iter().map(|f| format!("\"{f}\"")).collect::<Vec<_>>().join(", "),
        engine.total_ms,
        engine.p50_us,
        engine.p90_us,
        compile_ms,
        kernel_total_ms,
        kernel_blocks,
        LANES,
        kernel_occupancy,
        kernel_dense_ms,
        dense_reach,
        kernel_wide_ms,
        kernel_wide_blocks,
        wide_lanes,
        kernel_wide_occupancy,
        engine_mt_ms,
        kernel_mt_ms,
        engine.total_reach,
        kernel_vs_engine,
        kernel_wide_vs_kernel,
        rss,
    );
    std::fs::write(&out, &json).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("report written to {out}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_rss() {
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[7], 50), 7);
        assert_eq!(percentile(&[1, 2, 3, 4], 50), 3);
        assert_eq!(percentile(&[1, 2, 3, 4], 90), 4);
        // On Linux this reads VmHWM; elsewhere it degrades to 0.
        let _ = peak_rss_bytes();
    }

    #[test]
    fn tiny_bench_writes_a_schema_tagged_report() {
        let dir = std::env::temp_dir().join("flatnet_propbench_test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("bench.json");
        let args: Vec<String> = [
            "--ases", "200", "--origins", "20", "--seed", "7", "--out",
            out.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&args).unwrap();
        let body = std::fs::read_to_string(&out).unwrap();
        assert!(body.contains("\"schema\": \"flatnet-bench-propagate/v2\""));
        assert!(!body.contains("legacy") && !body.contains("speedup"));
        assert!(body.contains("\"total_reach\""));
        assert!(body.contains("\"kernel\""));
        assert!(body.contains("\"kernel_vs_engine\""));
        assert!(body.contains("\"kernel_mt\""));
        assert!(body.contains("\"reps\""));
        assert!(body.contains("\"kernel_wide\""));
        assert!(body.contains("\"kernel_wide_vs_kernel\""));
        assert!(body.contains("\"lane_width\": \"auto\""));
        assert!(body.contains("\"cpu_features\""));
        assert!(body.contains("\"occupancy\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let args = vec!["--bogus".to_string()];
        assert!(run(&args).is_err());
        let args = vec!["--ases".to_string()];
        assert!(run(&args).is_err());
    }
}
