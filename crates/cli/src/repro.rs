//! The repro harness — regenerates every table and figure of "Cloud
//! Provider Connectivity in the Flat Internet" (IMC 2020) on the
//! synthetic substrate, as text. Reached as `flatnet repro`.
//!
//! ```sh
//! flatnet repro all
//! flatnet repro fig2 table1 --ases 2000
//! flatnet repro fig2 --fast --metrics out.json
//! ```
//!
//! The `EXPERIMENTS` table is the experiment list; `all` (or no name)
//! runs it in order. Flags: `--ases N` `--seed S` `--leakers K` `--fast`
//! `--checkpoint DIR` `--threads N`, plus the CLI's global `--metrics
//! PATH` and `--log-level LEVEL`.
//!
//! Every requested name is checked before anything runs: an unknown one
//! is a usage error. Experiments are panic-isolated: one blowing up
//! doesn't kill the run, it is reported and the remaining experiments
//! still execute (the run then fails at the end). With `--checkpoint DIR`,
//! each completed experiment drops a `DIR/<name>.done` marker and an
//! interrupted `all` run resumes where it left off, skipping experiments
//! already marked done; each completed experiment also writes a
//! `DIR/<name>.metrics.json` delta snapshot of the metrics it alone
//! recorded.

use crate::lab::{Lab, Scale};
use flatnet_asgraph::astype::{refine, AsType};
use flatnet_asgraph::AsId;
use flatnet_core::cone_compare::{cone_vs_hfr, correlation_other, summarize};
use flatnet_bgpsim::LockingSemantics;
use flatnet_core::leaks::{
    average_resilience_cdf, leak_cdf, leak_cdf_with_semantics, subprefix_hijack_cdf, Announce,
    LeakCdf, Locking,
};
use flatnet_core::path_validation::validate_paths;
use flatnet_core::pathlen::path_length_profile;
use flatnet_core::pipeline::methodology_iterations;
use flatnet_core::pops_exp::{
    continent_coverage, coverage_row, deployment_split, rdns_table, RADII_KM,
};
use flatnet_core::reachability::{rank_by_hierarchy_free, reachability_profile};
use flatnet_core::reliance_exp::{
    reliance_under_hierarchy_free, reliance_under_tier1_free, tier1_free_reach_also_excluding,
};
use flatnet_core::report::{ascii_cdf, ascii_world_map, thousands, TextTable};
use flatnet_core::unreachable::unreachable_breakdown;
use flatnet_geo::geolocate::{fiber_rtt_ms, geolocate};
use flatnet_geo::pops::{union_footprints, Footprint};
use flatnet_tracesim::CampaignOptions;

/// One runnable experiment: its command-line name and its body.
type Experiment = (&'static str, fn(&Lab));

/// Every experiment, in `all` order. `--help`, the `all` expansion and the
/// name lookup all read this one table.
const EXPERIMENTS: &[Experiment] = &[
    ("peers", peers),
    ("validation", validation),
    ("fig2", fig2),
    ("table1", table1),
    ("fig3", fig3),
    ("fig4", fig4),
    ("table2", table2),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("table3", table3),
    ("appendix_a", appendix_a),
    ("appendix_b", appendix_b),
    ("appendix_d", appendix_d),
    ("erratum", erratum),
    ("ablation_topology", ablation_topology),
    ("rankings", rankings),
    ("feeds", feeds),
];

fn names(experiments: &[Experiment]) -> Vec<&'static str> {
    experiments.iter().map(|&(name, _)| name).collect()
}

/// The `--help` text; the experiment names come from [`EXPERIMENTS`].
fn help() -> String {
    format!(
        "usage: flatnet repro [EXPERIMENT...] [--ases N] [--seed S] [--leakers K] [--fast]
                     [--checkpoint DIR] [--threads N]
experiments: {} all
--checkpoint DIR: drop a DIR/<name>.done marker per finished experiment
                  (plus a DIR/<name>.metrics.json metric delta)
                  and skip already-marked experiments on the next run
--threads N:      worker threads for parallel sweeps (0 = all cores)
--metrics PATH, --log-level L: the global flags of `flatnet help`",
        names(EXPERIMENTS).join(" ")
    )
}

/// Parses a flag's value, reporting the flag name and the offending value
/// instead of panicking.
fn flag_value<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let v = value.ok_or_else(|| format!("{flag} requires a value"))?;
    v.parse().map_err(|e| format!("bad value {v:?} for {flag}: {e}"))
}

/// Resolves the requested names against [`EXPERIMENTS`]; no name, or `all`
/// among them, selects the whole table. An unknown name is an error.
fn select(wanted: &[String]) -> Result<Vec<Experiment>, String> {
    let mut picked = Vec::new();
    let mut all = wanted.is_empty();
    for w in wanted {
        match EXPERIMENTS.iter().find(|(name, _)| name == w) {
            Some(&e) => picked.push(e),
            None if w == "all" => all = true,
            None => return Err(format!("unknown experiment {w:?} (see --help)")),
        }
    }
    Ok(if all { EXPERIMENTS.to_vec() } else { picked })
}

/// Runs the repro harness with CLI-style `args` (flags + experiment
/// names, `flatnet repro` already stripped). Fails on unusable arguments
/// before running anything, and after the run if any experiment panicked.
pub(crate) fn run(args: &[String]) -> Result<(), String> {
    // `--fast` picks the base scale; the other scale flags apply on top of
    // it wherever they stand.
    let (mut fast, mut ases, mut seed, mut leakers) = (false, None, None, None);
    let mut wanted: Vec<String> = Vec::new();
    let mut checkpoint: Option<std::path::PathBuf> = None;
    let mut threads = 0usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--ases" => ases = Some(flag_value("--ases", it.next())?),
            "--seed" => seed = Some(flag_value("--seed", it.next())?),
            "--leakers" => leakers = Some(flag_value("--leakers", it.next())?),
            "--fast" => fast = true,
            "--threads" => threads = flag_value("--threads", it.next())?,
            "--checkpoint" => {
                let dir = it.next().ok_or("--checkpoint requires a directory")?;
                checkpoint = Some(std::path::PathBuf::from(dir));
            }
            "--help" | "-h" => {
                println!("{}", help());
                return Ok(());
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other:?}"));
            }
            other => wanted.push(other.to_string()),
        }
    }
    let base = if fast { Scale::fast() } else { Scale::default_scale() };
    let scale = Scale {
        n_ases: ases.unwrap_or(base.n_ases),
        seed: seed.unwrap_or(base.seed),
        n_leakers: leakers.unwrap_or(base.n_leakers),
        threads,
        ..base
    };
    let wanted = select(&wanted)?;
    // Preregister the parser counters so every snapshot carries the full
    // per-parser counter set, even for experiments that parse nothing.
    for format in ["caida", "mrt", "scamper", "warts", "prefixdb"] {
        flatnet_obs::record_parse(format, 0, 0);
    }
    if let Some(dir) = &checkpoint {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create checkpoint dir {}: {e}", dir.display()))?;
    }

    let lab = Lab::new(scale);
    println!(
        "# flatnet repro — {} ASes (2020 epoch), seed {}, {} leak sims/config\n",
        scale.n_ases, scale.seed, scale.n_leakers
    );
    let mut failed = 0usize;
    for &(w, experiment) in &wanted {
        let marker = checkpoint.as_ref().map(|dir| dir.join(format!("{w}.done")));
        if let Some(m) = &marker {
            if m.exists() {
                println!("[{w} skipped: already checkpointed at {}]\n", m.display());
                continue;
            }
        }
        let t0 = std::time::Instant::now();
        let before = flatnet_obs::snapshot();
        // Panic isolation: one experiment blowing up must not take down
        // the rest of an `all` run (or an existing checkpoint trail).
        let outcome = flatnet_obs::PhaseTimer::PIPELINE.time("report", || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| experiment(&lab)))
        });
        match outcome {
            Ok(()) => {
                let elapsed = t0.elapsed();
                if let Some(m) = &marker {
                    let note = format!(
                        "completed in {elapsed:.1?} (ases={}, seed={}, leakers={})\n",
                        scale.n_ases, scale.seed, scale.n_leakers
                    );
                    std::fs::write(m, note)
                        .map_err(|e| format!("cannot write checkpoint {}: {e}", m.display()))?;
                }
                if let Some(dir) = &checkpoint {
                    // What this experiment alone recorded (the Lab caches
                    // shared artifacts, so the first experiment to need
                    // one pays for — and observes — building it).
                    let delta = flatnet_obs::snapshot().delta_since(&before);
                    let path = dir.join(format!("{w}.metrics.json"));
                    std::fs::write(&path, delta.to_json())
                        .map_err(|e| format!("cannot write metrics {}: {e}", path.display()))?;
                }
                println!("[{w} took {elapsed:.1?}]\n");
            }
            Err(payload) => {
                failed += 1;
                flatnet_obs::error!(
                    "[{w} FAILED after {:.1?}: {}]",
                    t0.elapsed(),
                    flatnet_bgpsim::parallel::panic_message(payload.as_ref())
                );
            }
        }
    }
    flatnet_obs::debug!("metrics summary:\n{}", flatnet_obs::snapshot().render_table());
    if failed > 0 {
        return Err(format!("{failed} experiment(s) failed"));
    }
    Ok(())
}

/// §4.1: peer counts, BGP feeds alone vs augmented with traceroutes.
fn peers(lab: &Lab) {
    println!("## §4.1 — cloud peers: BGP feeds alone vs augmented with cloud traceroutes");
    println!("(paper: 333 vs 1,389 Amazon; 818 vs 7,757 Google; 3,027 vs 3,702 IBM; 315 vs 3,580 Microsoft)\n");
    let m = lab.measured2020();
    let mut t = TextTable::new(["cloud", "bgp-only", "augmented", "ground truth", "recovered"]);
    for row in &m.peer_counts {
        t.row([
            row.name.clone(),
            thousands(row.bgp_only as u64),
            thousands(row.augmented as u64),
            thousands(row.truth as u64),
            format!("{:.0}%", 100.0 * row.augmented as f64 / row.truth.max(1) as f64),
        ]);
    }
    println!("{}", t.render());
}

/// §5: FDR/FNR across the methodology iterations.
fn validation(lab: &Lab) {
    println!("## §5 — neighbor-inference validation across methodology iterations");
    println!("(paper: initial ~50% FDR; final 11-15% FDR, ~21% FNR)\n");
    let opts = CampaignOptions { dest_sample: 1.0, ..Default::default() };
    let stages = methodology_iterations(lab.net2020(), &opts);
    for (name, per_cloud) in &stages {
        println!("methodology: {name}");
        let mut t = TextTable::new(["cloud", "TP", "FP", "FN", "FDR", "FNR"]);
        for cloud in &lab.net2020().clouds {
            let v = &per_cloud[&cloud.asn.0];
            t.row([
                cloud.spec.name.clone(),
                v.tp.to_string(),
                v.fp.to_string(),
                v.fn_.to_string(),
                format!("{:.1}%", 100.0 * v.fdr()),
                format!("{:.1}%", 100.0 * v.fnr()),
            ]);
        }
        println!("{}", t.render());
    }
}

/// Fig. 2: the three reachability levels for clouds, Tier-1s, Tier-2s.
fn fig2(lab: &Lab) {
    println!("## Fig. 2 — provider-free / Tier-1-free / hierarchy-free reachability");
    println!("(augmented 2020 topology; sorted by hierarchy-free reachability)\n");
    let net = lab.net2020();
    let g = lab.graph2020();
    let tiers = lab.tiers2020();
    let focus: Vec<AsId> = net
        .cloud_providers()
        .map(|c| c.asn)
        .chain(net.tier1.iter().copied())
        .chain(net.tier2.iter().copied())
        .collect();
    let mut profile = reachability_profile(g, &tiers, &focus);
    profile.sort_by_key(|r| std::cmp::Reverse(r.hierarchy_free));
    let mut t = TextTable::new(["network", "kind", "I\\Po", "I\\Po\\T1", "I\\Po\\T1\\T2", "hf %"]);
    for r in &profile {
        let kind = if net.cloud_providers().any(|c| c.asn == r.asn) {
            "cloud"
        } else if net.tier1.contains(&r.asn) {
            "tier1"
        } else {
            "tier2"
        };
        t.row([
            lab.name(r.asn),
            kind.to_string(),
            thousands(r.provider_free as u64),
            thousands(r.tier1_free as u64),
            thousands(r.hierarchy_free as u64),
            format!("{:.1}%", r.hierarchy_free_pct()),
        ]);
    }
    println!("{}", t.render());
}

/// Table 1: top-20 by hierarchy-free reachability, 2015 vs 2020.
fn table1(lab: &Lab) {
    println!("## Table 1 — top 20 ASes by hierarchy-free reachability, 2015 vs 2020\n");
    for (year, g, hfr, net) in [
        ("2015", lab.graph2015(), lab.hfr2015(), lab.net2015()),
        ("2020", lab.graph2020(), lab.hfr2020(), lab.net2020()),
    ] {
        println!("{year}:");
        let ranked = rank_by_hierarchy_free(g, hfr);
        let mut t = TextTable::new(["#", "network", "reach", "%"]);
        for r in ranked.iter().take(20) {
            t.row([
                r.rank.to_string(),
                net.name_of(r.asn),
                thousands(r.reach as u64),
                format!("{:.1}%", r.pct),
            ]);
        }
        // The clouds' positions even when below the top 20 (2015: the
        // paper lists Microsoft #62 and Amazon #206).
        for cloud in net.cloud_providers() {
            if let Some(r) = ranked.iter().find(|r| r.asn == cloud.asn) {
                if r.rank > 20 {
                    t.row([
                        r.rank.to_string(),
                        net.name_of(r.asn),
                        thousands(r.reach as u64),
                        format!("{:.1}%", r.pct),
                    ]);
                }
            }
        }
        println!("{}", t.render());
    }
    // % change for the clouds across epochs.
    let r20 = rank_by_hierarchy_free(lab.graph2020(), lab.hfr2020());
    let r15 = rank_by_hierarchy_free(lab.graph2015(), lab.hfr2015());
    let mut t = TextTable::new(["cloud", "2015 %", "2020 %", "change"]);
    for cloud in lab.net2020().cloud_providers() {
        let p20 = r20.iter().find(|r| r.asn == cloud.asn).map(|r| r.pct).unwrap_or(0.0);
        let p15 = r15.iter().find(|r| r.asn == cloud.asn).map(|r| r.pct).unwrap_or(0.0);
        t.row([
            cloud.spec.name.clone(),
            format!("{p15:.1}%"),
            format!("{p20:.1}%"),
            format!("{:+.1} pts", p20 - p15),
        ]);
    }
    println!("cloud change 2015 -> 2020:\n{}", t.render());
}

/// Fig. 3: hierarchy-free reachability vs customer cone.
fn fig3(lab: &Lab) {
    println!("## Fig. 3 — hierarchy-free reachability vs customer cone (all ASes)\n");
    let net = lab.net2020();
    let g = lab.graph2020();
    let tiers = lab.tiers2020();
    let clouds: Vec<AsId> = net.cloud_providers().map(|c| c.asn).collect();
    let points = cone_vs_hfr(g, &tiers, lab.hfr2020(), &clouds);
    let threshold = ((g.len() as f64) * 0.015).ceil() as u32;
    let s = summarize(&points, threshold);
    println!(
        "ASes with hierarchy-free reachability >= {}: {}   |   ASes with customer cone >= {}: {}",
        threshold,
        thousands(s.high_hfr as u64),
        threshold,
        thousands(s.high_cone as u64)
    );
    println!("(paper, at >= 1,000: 8,374 vs 51)");
    if let Some(r) = correlation_other(&points) {
        println!("correlation (log cone vs hfr) over non-tier networks: {r:.3} (paper: \"little correlation\")");
    }
    let mut t = TextTable::new(["network", "customer cone", "hierarchy-free reach"]);
    for &asn in &clouds {
        let p = points.iter().find(|p| p.asn == asn).unwrap();
        t.row([lab.name(asn), thousands(p.cone as u64), thousands(p.hfr as u64)]);
    }
    for &asn in net.tier1.iter().take(3) {
        let p = points.iter().find(|p| p.asn == asn).unwrap();
        t.row([lab.name(asn), thousands(p.cone as u64), thousands(p.hfr as u64)]);
    }
    println!("{}", t.render());
}

/// Fig. 4: unreachable-AS type split per provider.
fn fig4(lab: &Lab) {
    println!("## Fig. 4 — types of unreachable ASes under hierarchy-free constraints\n");
    let net = lab.net2020();
    let g = lab.graph2020();
    let tiers = lab.tiers2020();
    let type_of = |n: flatnet_asgraph::NodeId| {
        net.truth
            .index_of(g.asn(n))
            .map(|tn| {
                let m = &net.meta[tn.idx()];
                refine(m.class, m.users)
            })
            .unwrap_or(AsType::Enterprise)
    };
    let focus: Vec<AsId> = net
        .cloud_providers()
        .map(|c| c.asn)
        .chain(net.tier1.iter().copied().take(4))
        .chain(net.tier2.iter().copied().take(4))
        .collect();
    let mut t = TextTable::new(["network", "unreachable", "content", "transit", "access", "enterprise"]);
    for asn in focus {
        if let Some(bd) = unreachable_breakdown(g, &tiers, asn, type_of) {
            t.row([
                lab.name(asn),
                thousands(bd.total as u64),
                format!("{:.1}%", bd.pct(AsType::Content)),
                format!("{:.1}%", bd.pct(AsType::Transit)),
                format!("{:.1}%", bd.pct(AsType::Access)),
                format!("{:.1}%", bd.pct(AsType::Enterprise)),
            ]);
        }
    }
    println!("{}", t.render());
    println!("(paper: Google/IBM/Microsoft leave few access networks unreachable; Amazon resembles a transit provider)");
}

/// Table 2: top-3 reliance per cloud.
fn table2(lab: &Lab) {
    println!("## Table 2 — top-3 reliance networks per cloud (hierarchy-free constraints)\n");
    let g = lab.graph2020();
    let tiers = lab.tiers2020();
    let mut t = TextTable::new(["cloud", "#1", "#2", "#3", "receivers"]);
    for cloud in lab.net2020().cloud_providers() {
        if let Some(prof) = reliance_under_hierarchy_free(g, &tiers, cloud.asn) {
            let cell = |i: usize| {
                prof.top(3)
                    .get(i)
                    .map(|e| format!("{} ({:.1})", lab.name(e.asn), e.rely))
                    .unwrap_or_default()
            };
            t.row([
                cloud.spec.name.clone(),
                cell(0),
                cell(1),
                cell(2),
                thousands(prof.receivers as u64),
            ]);
        }
    }
    println!("{}", t.render());
}

/// Fig. 6: reliance histograms.
fn fig6(lab: &Lab) {
    println!("## Fig. 6 — reliance histogram per cloud (bin width 25, hierarchy-free)\n");
    let g = lab.graph2020();
    let tiers = lab.tiers2020();
    for cloud in lab.net2020().cloud_providers() {
        if let Some(prof) = reliance_under_hierarchy_free(g, &tiers, cloud.asn) {
            let hist = prof.histogram(25.0);
            let rendered: Vec<String> =
                hist.iter().map(|(lo, c)| format!("[{lo:.0}+): {c}")).collect();
            println!("{:<10} {}", cloud.spec.name, rendered.join("  "));
        }
    }
    println!("\n(paper: rely ≈ 1 for the overwhelming majority; a handful of networks higher)");
}

fn leak_configs() -> [(&'static str, Announce, Locking); 5] {
    [
        ("announce to all, global peer lock", Announce::ToAll, Locking::Global),
        ("announce to all, T1+T2 peer lock", Announce::ToAll, Locking::Tier12),
        ("announce to all, T1 peer lock", Announce::ToAll, Locking::Tier1),
        ("announce to all", Announce::ToAll, Locking::None),
        ("announce to T1, T2, and providers", Announce::ToTier12AndProviders, Locking::None),
    ]
}

/// One victim's leak figure over the 2020 graph: every announce × lock
/// configuration and the average-resilience baseline, all on the
/// topology's pooled buffers.
fn leak_figure(lab: &Lab, victim: AsId, weights: Option<&[f64]>, label: &str) {
    let g = lab.graph2020();
    let tiers = lab.tiers2020();
    let (n_leakers, n_avg, seed) = (lab.scale.n_leakers, lab.scale.n_avg, lab.scale.seed);
    println!("victim: {} — {label}", lab.name(victim));
    println!("{:<38} {:>7} {:>7} {:>7}  cdf 0..100%", "configuration", "median", "p90", "worst");
    for (name, a, l) in leak_configs() {
        if let Some(cdf) = leak_cdf(g, &tiers, victim, a, l, n_leakers, seed, weights) {
            print_leak_line(name, &cdf);
        }
    }
    let avg = average_resilience_cdf(g, n_avg, n_avg, seed, weights);
    print_leak_line("average resilience", &avg);
}

fn print_leak_line(name: &str, cdf: &LeakCdf) {
    println!(
        "{:<38} {:>6.1}% {:>6.1}% {:>6.1}%  |{}|",
        name,
        100.0 * cdf.median(),
        100.0 * cdf.percentile(90.0),
        100.0 * cdf.max(),
        ascii_cdf(&cdf.fractions, 32)
    );
}

/// Fig. 7a-d: Microsoft, Amazon, IBM, Facebook.
fn fig7(lab: &Lab) {
    println!("## Fig. 7 — route-leak resilience: Microsoft / Amazon / IBM / Facebook\n");
    for name in ["Microsoft", "Amazon", "IBM", "Facebook"] {
        let asn = lab
            .net2020()
            .clouds
            .iter()
            .find(|c| c.spec.name == name)
            .map(|c| c.asn)
            .expect("provider exists");
        leak_figure(lab, asn, None, "% of ASes detoured");
        println!();
    }
}

/// Fig. 8: Google (plus the more-specific-hijack extension).
fn fig8(lab: &Lab) {
    println!("## Fig. 8 — route-leak resilience: Google\n");
    let google = lab.net2020().clouds[0].asn;
    leak_figure(lab, google, None, "% of ASes detoured");
    println!("\nextension — more-specific (sub-prefix) hijacks, where LPM always prefers the hijacker:");
    let g = lab.graph2020();
    let tiers = lab.tiers2020();
    for locking in [Locking::None, Locking::Tier12, Locking::Global] {
        if let Some(cdf) =
            subprefix_hijack_cdf(g, &tiers, google, locking, lab.scale.n_leakers, lab.scale.seed, None)
        {
            print_leak_line(&format!("sub-prefix, {}", locking.name()), &cdf);
        }
    }
}

/// Fig. 9: Google, weighted by users.
fn fig9(lab: &Lab) {
    println!("## Fig. 9 — route-leak resilience: Google, weighted by user population\n");
    let weights = Lab::user_weights(lab.net2020(), lab.graph2020());
    let google = lab.net2020().clouds[0].asn;
    leak_figure(lab, google, Some(&weights), "% of users detoured");
}

/// Fig. 10: Google 2015 vs 2020.
fn fig10(lab: &Lab) {
    println!("## Fig. 10 — Google leak resilience, 2015 vs 2020 (announce to all)\n");
    for (year, g, tiers, net) in [
        ("2015", lab.graph2015(), lab.tiers2015(), lab.net2015()),
        ("2020", lab.graph2020(), lab.tiers2020(), lab.net2020()),
    ] {
        let google = net.clouds[0].asn;
        if let Some(cdf) = leak_cdf(
            g,
            &tiers,
            google,
            Announce::ToAll,
            Locking::None,
            lab.scale.n_leakers,
            lab.scale.seed,
            None,
        ) {
            print_leak_line(year, &cdf);
        }
    }
    println!("(paper: only small changes — new peers are mostly small edge ASes)");
}

fn cohort_footprints(lab: &Lab) -> (Vec<&Footprint>, Vec<&Footprint>) {
    let net = lab.net2020();
    let clouds: Vec<&Footprint> = net
        .cloud_providers()
        .map(|c| &net.geo.footprints[&c.asn.0])
        .collect();
    let transits: Vec<&Footprint> = net
        .tier1
        .iter()
        .chain(net.tier2.iter().take(8))
        .map(|a| &net.geo.footprints[&a.0])
        .collect();
    (clouds, transits)
}

/// Fig. 11: deployment locations split, plotted over population density.
fn fig11(lab: &Lab) {
    println!("## Fig. 11 — PoP deployment metros by cohort (over population density)\n");
    let (clouds, transits) = cohort_footprints(lab);
    let split = deployment_split(&clouds, &transits);
    // The map: population density as shading, PoP cohorts as C/T/B.
    let grid = &lab.net2020().popgrid;
    let cloud_u = union_footprints("clouds", &clouds);
    let transit_u = union_footprints("transit", &transits);
    let mut markers: Vec<(f64, f64, char)> = Vec::new();
    for s in transit_u.sites() {
        markers.push((s.point.lat, s.point.lon, 'T'));
    }
    for s in cloud_u.sites() {
        let c = if transit_u.has_city(&s.city) { 'B' } else { 'C' };
        markers.push((s.point.lat, s.point.lon, c));
    }
    let map = ascii_world_map(
        110,
        26,
        |lat, lon| {
            let here = flatnet_geo::GeoPoint::new(lat, lon);
            grid.cells()
                .iter()
                .filter(|c| flatnet_geo::haversine_km(c.center, here) < 400.0)
                .map(|c| c.population)
                .sum()
        },
        &markers,
    );
    println!("{map}");
    println!("shading = population density; C = cloud-only, T = transit-only, B = both cohorts\n");
    println!("cloud-only metros   : {:?}", split.cloud_only);
    println!("transit-only metros : {:?}", split.transit_only);
    println!("shared metros       : {}", split.both.len());
    println!("(paper: clouds are a subset of transit locations except Shanghai/Beijing)");
}

/// Fig. 12: population coverage.
fn fig12(lab: &Lab) {
    println!("## Fig. 12 — % of population within 500/700/1000 km of PoPs\n");
    let grid = &lab.net2020().popgrid;
    let (clouds, transits) = cohort_footprints(lab);
    let cloud_union = union_footprints("cloud cohort", &clouds);
    let transit_union = union_footprints("transit cohort", &transits);
    println!("per continent (cloud | transit):");
    let mut t = TextTable::new(["continent", "cloud 500", "700", "1000", "transit 500", "700", "1000"]);
    let c_rows = continent_coverage(grid, &cloud_union.points());
    let t_rows = continent_coverage(grid, &transit_union.points());
    for (c, tr) in c_rows.iter().zip(&t_rows) {
        t.row([
            c.continent.name().to_string(),
            format!("{:.1}%", c.coverage[0]),
            format!("{:.1}%", c.coverage[1]),
            format!("{:.1}%", c.coverage[2]),
            format!("{:.1}%", tr.coverage[0]),
            format!("{:.1}%", tr.coverage[1]),
            format!("{:.1}%", tr.coverage[2]),
        ]);
    }
    println!("{}", t.render());
    println!("per network (worldwide, radii {RADII_KM:?} km):");
    let mut rows: Vec<_> = clouds
        .iter()
        .chain(transits.iter())
        .map(|fp| coverage_row(grid, fp))
        .collect();
    rows.sort_by(|a, b| b.world[0].partial_cmp(&a.world[0]).unwrap());
    let mut t = TextTable::new(["network", "500 km", "700 km", "1000 km"]);
    for r in rows {
        t.row([
            r.name,
            format!("{:.1}%", r.world[0]),
            format!("{:.1}%", r.world[1]),
            format!("{:.1}%", r.world[2]),
        ]);
    }
    println!("{}", t.render());
}

/// Fig. 13: path length mix 2015 vs 2020, three weightings.
fn fig13(lab: &Lab) {
    println!("## Fig. 13 — path lengths from the clouds, 2015 vs 2020\n");
    let mut t = TextTable::new(["cloud", "year", "weighting", "1 hop", "2 hops", "3+ hops"]);
    for (year, g, net) in [
        ("2015", lab.graph2015(), lab.net2015()),
        ("2020", lab.graph2020(), lab.net2020()),
    ] {
        let users = Lab::user_weights(net, g);
        for cloud in net.cloud_providers() {
            if year == "2015" && cloud.spec.name == "Microsoft" {
                // The 2015 traceroute dataset had no Microsoft traces.
                t.row([
                    cloud.spec.name.clone(),
                    year.to_string(),
                    "(no 2015 traceroute data)".to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
                continue;
            }
            if let Some(p) = path_length_profile(g, cloud.asn, &users) {
                for (w, s) in [
                    ("ASes", p.all_ases),
                    ("eyeball ASes", p.eyeball_ases),
                    ("population", p.population),
                ] {
                    t.row([
                        cloud.spec.name.clone(),
                        year.to_string(),
                        w.to_string(),
                        format!("{:.1}%", s.one),
                        format!("{:.1}%", s.two),
                        format!("{:.1}%", s.three_plus),
                    ]);
                }
            }
        }
    }
    println!("{}", t.render());
}

/// Table 3: PoPs / hostnames / % rDNS.
fn table3(lab: &Lab) {
    println!("## Table 3 — PoPs, router hostnames, % rDNS-confirmed\n");
    let (clouds, transits) = cohort_footprints(lab);
    let all: Vec<&Footprint> = clouds.iter().chain(transits.iter()).copied().collect();
    let mut t = TextTable::new(["network", "ASN", "# PoPs", "# hostnames", "% rDNS"]);
    for row in rdns_table(&all) {
        t.row([
            row.name,
            row.asn.to_string(),
            row.pops.to_string(),
            row.hostnames.to_string(),
            format!("{:.1}%", row.rdns_pct),
        ]);
    }
    println!("{}", t.render());
    println!("(paper: Amazon 0% — no rDNS at all; Microsoft 45.3%)");
}

/// Appendix A: simulated paths contain traceroute paths.
fn appendix_a(lab: &Lab) {
    println!("## Appendix A — simulated tied-best paths vs traceroute paths\n");
    let net = lab.net2020();
    let m = lab.measured2020();
    let clouds: Vec<AsId> = net.clouds.iter().map(|c| c.asn).collect();
    let agreement = validate_paths(&m.augmented, &net.addressing().resolver, &m.campaign, &clouds);
    let mut t = TextTable::new(["cloud", "scored traces", "agreement"]);
    for cloud in &net.clouds {
        let a = &agreement[&cloud.asn.0];
        t.row([
            cloud.spec.name.clone(),
            thousands(a.scored as u64),
            format!("{:.1}%", a.pct()),
        ]);
    }
    println!("{}", t.render());
    println!("(paper: 73.3% Amazon, 91.9% Google, 82.9% IBM, 85.4% Microsoft)");
}

/// Appendix B: Sprint/DTAG-style reliance on a few Tier-2s.
fn appendix_b(lab: &Lab) {
    println!("## Appendix B — hierarchical Tier-1s rely on a handful of Tier-2s\n");
    let net = lab.net2020();
    let g = lab.graph2020();
    let tiers = lab.tiers2020();
    let t2_set: std::collections::BTreeSet<u32> = net.tier2.iter().map(|a| a.0).collect();
    // The two least-diversified Tier-1s (the generator's Sprint/DTAG).
    for &t1 in net.tier1.iter().rev().take(2) {
        let prof = &reachability_profile(g, &tiers, &[t1])[0];
        let Some(rel) = reliance_under_tier1_free(g, &tiers, t1) else { continue };
        let top6: Vec<AsId> = rel
            .entries
            .iter()
            .filter(|e| t2_set.contains(&e.asn.0))
            .take(6)
            .map(|e| e.asn)
            .collect();
        let reduced = tier1_free_reach_also_excluding(g, &tiers, t1, &top6).unwrap_or(0);
        println!(
            "{}: Tier-1-free {} -> hierarchy-free {}; removing just its top-6 Tier-2s ({}) gives {}",
            lab.name(t1),
            thousands(prof.tier1_free as u64),
            thousands(prof.hierarchy_free as u64),
            top6.iter().map(|a| lab.name(*a)).collect::<Vec<_>>().join(", "),
            thousands(reduced as u64),
        );
    }
    println!("(paper: six Tier-2s cover almost the entire decline for Sprint and Deutsche Telekom)");
}

/// Appendix D: RTT geolocation over candidates taken from the PoP footprints.
fn appendix_d(lab: &Lab) {
    println!("## Appendix D — footprint-site candidates + RTT-verified geolocation\n");
    let net = lab.net2020();
    let mut total = 0usize;
    let mut placed = 0usize;
    let mut correct = 0usize;
    for asn in net.tier1.iter().chain(net.tier2.iter().take(6)) {
        let fp = &net.geo.footprints[&asn.0];
        let candidates: Vec<(String, flatnet_geo::GeoPoint)> =
            fp.sites().iter().map(|s| (s.city.clone(), s.point)).collect();
        for site in fp.sites() {
            total += 1;
            let hint = site.sources.contains(&flatnet_geo::pops::SiteSource::Rdns);
            let got = geolocate(
                &candidates,
                hint.then_some(site.city.as_str()),
                |vp| Some(fiber_rtt_ms(*vp, site.point)),
            );
            if let Some(res) = got {
                placed += 1;
                if res.city == site.city {
                    correct += 1;
                }
            }
        }
    }
    println!(
        "routers: {total}; geolocated: {placed} ({:.1}%); exact-city: {correct} ({:.1}% of placed)",
        100.0 * placed as f64 / total.max(1) as f64,
        100.0 * correct as f64 / placed.max(1) as f64
    );
    println!("(1 ms RTT bound ≈ 100 km; an rDNS hint narrows the candidate sites)");
}

/// Erratum ablation: the paper's original peer-locking simulation flaw vs
/// the published correction.
fn erratum(lab: &Lab) {
    println!("## Erratum ablation — original vs corrected peer-locking semantics");
    println!("(the published erratum: the original simulation let leaks re-enter locking");
    println!(" ASes via non-deploying intermediaries, underestimating peer locking)\n");
    let g = lab.graph2020();
    let tiers = lab.tiers2020();
    let google = lab.net2020().clouds[0].asn;
    for locking in [Locking::Tier1, Locking::Tier12, Locking::Global] {
        for (label, semantics) in [
            ("pre-erratum", LockingSemantics::PreErratum),
            ("corrected  ", LockingSemantics::Corrected),
        ] {
            if let Some(cdf) = leak_cdf_with_semantics(
                g,
                &tiers,
                google,
                Announce::ToAll,
                locking,
                semantics,
                lab.scale.n_leakers,
                lab.scale.seed,
                None,
            ) {
                print_leak_line(&format!("{} / {label}", locking.name()), &cdf);
            }
        }
    }
}

/// Topology-view ablation: how much does each view of the topology change
/// cloud hierarchy-free reachability? This quantifies the paper's central
/// measurement claim — BGP feeds alone hide the clouds' independence.
fn ablation_topology(lab: &Lab) {
    println!("## Topology ablation — hierarchy-free reachability per topology view\n");
    let net = lab.net2020();
    let clouds: Vec<AsId> = net.cloud_providers().map(|c| c.asn).collect();
    let mut t = TextTable::new(["cloud", "BGP feeds only", "augmented (measured)", "ground truth"]);
    let views: [(&str, &flatnet_asgraph::AsGraph); 3] = [
        ("public", net.public()),
        ("augmented", lab.graph2020()),
        ("truth", &net.truth),
    ];
    let mut per_view: Vec<Vec<f64>> = Vec::new();
    for (_, g) in &views {
        let tiers = net.tiers_for(g);
        let prof = reachability_profile(g, &tiers, &clouds);
        per_view.push(prof.iter().map(|r| r.hierarchy_free_pct()).collect());
    }
    for (i, &asn) in clouds.iter().enumerate() {
        t.row([
            lab.name(asn),
            format!("{:.1}%", per_view[0][i]),
            format!("{:.1}%", per_view[1][i]),
            format!("{:.1}%", per_view[2][i]),
        ]);
    }
    println!("{}", t.render());
    println!("(the augmented view recovers nearly all of the independence the BGP-feed view hides)");
}

/// Cross-metric rankings: degree / transit degree / cone / hegemony vs
/// hierarchy-free reachability, with Kendall tau-b (extends §6.6).
fn rankings(lab: &Lab) {
    println!("## Metric rankings — classic importance metrics vs hierarchy-free reachability\n");
    let net = lab.net2020();
    let g = lab.graph2020();
    let cmp = flatnet_core::rankings::compare_metrics(g, lab.hfr2020(), 48, lab.scale.seed);
    let mut t = TextTable::new(["network", "degree", "transit deg", "cone", "hegemony", "hfr"]);
    let focus: Vec<AsId> = net
        .cloud_providers()
        .map(|c| c.asn)
        .chain(net.tier1.iter().copied().take(3))
        .chain([net.tier2[0]])
        .collect();
    for asn in focus {
        if let Some(r) = cmp.rows.iter().find(|r| r.asn == asn) {
            t.row([
                lab.name(asn),
                r.degree.to_string(),
                r.transit_degree.to_string(),
                thousands(r.cone as u64),
                format!("{:.4}", r.hegemony),
                thousands(r.hfr as u64),
            ]);
        }
    }
    println!("{}", t.render());
    println!("Kendall tau-b vs hierarchy-free reachability (all ASes):");
    for (name, tau) in &cmp.tau_vs_hfr {
        println!("  {name:<15} {tau:+.3}");
    }
    println!("(§6.6: transit-centric metrics are weak predictors of hierarchy-free reach)");
}

/// The BGP-feed experiment: collector RIBs → MRT bytes → Gao inference →
/// accuracy vs ground truth (§2.3/§4.1's premise, quantified).
fn feeds(lab: &Lab) {
    println!("## BGP feeds — collector RIBs, MRT round-trip, relationship inference\n");
    let net = lab.net2020();
    let monitors = 60.min(net.truth.len() / 10).max(8);
    let origins = (net.truth.len() / 2).max(200).min(net.truth.len());
    let exp = flatnet_core::feeds::run_feed_experiment(net, monitors, origins, lab.scale.seed);
    println!(
        "{} monitors, {} origins -> {} RIB entries, {} of MRT",
        exp.monitors,
        thousands(exp.origins as u64),
        thousands(exp.rib_entries as u64),
        human_bytes(exp.mrt_bytes)
    );
    let a = &exp.accuracy;
    println!(
        "c2p links: {:.1}% of observed inferred correctly ({} correct, {} flipped, {} as p2p; {} invisible)",
        100.0 * a.c2p_accuracy(),
        thousands(a.c2p_correct as u64),
        a.c2p_flipped,
        a.c2p_as_p2p,
        thousands(a.c2p_invisible as u64)
    );
    println!(
        "p2p links: {:.1}% recall overall; {:.1}% of all p2p links never appear in the feed",
        100.0 * a.p2p_recall(),
        100.0 * a.p2p_invisible_fraction()
    );
    println!(
        "cloud peer links: {} of {} visible to the feed ({:.0}% invisible — paper: up to 90%)",
        thousands(exp.cloud_peer_links_visible as u64),
        thousands(exp.cloud_peer_links as u64),
        100.0 * exp.cloud_peer_invisible_fraction()
    );
    let r = &exp.refined_accuracy;
    println!(
        "after ProbLink-style refinement ({} links relabeled): c2p {:.1}%, p2p recall {:.1}%",
        exp.refined_relabeled,
        100.0 * r.c2p_accuracy(),
        100.0 * r.p2p_recall()
    );
}

fn human_bytes(n: usize) -> String {
    if n >= 1 << 20 {
        format!("{:.1} MiB", n as f64 / (1 << 20) as f64)
    } else if n >= 1 << 10 {
        format!("{:.1} KiB", n as f64 / (1 << 10) as f64)
    } else {
        format!("{n} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn an_unknown_name_is_rejected_before_any_work() {
        let dir = std::env::temp_dir().join(format!("flatnet-repro-typo-{}", std::process::id()));
        let err = run(&argv(&["fig2", "fig99", "--fast", "--checkpoint", dir.to_str().unwrap()]))
            .unwrap_err();
        assert!(err.contains("fig99"), "{err}");
        // The checkpoint directory is made before the first experiment
        // runs, so its absence shows the run never got that far.
        assert!(!dir.exists());
        assert!(select(&argv(&["all", "fig99"])).is_err(), "`all` does not excuse a typo");
    }

    #[test]
    fn all_is_the_table_and_names_are_unique() {
        let table = names(EXPERIMENTS);
        assert_eq!(names(&select(&[]).unwrap()), table);
        assert_eq!(names(&select(&argv(&["fig2", "all"])).unwrap()), table);
        assert_eq!(names(&select(&argv(&["table1", "fig2"])).unwrap()), ["table1", "fig2"]);
        let unique: std::collections::BTreeSet<_> = table.iter().collect();
        assert_eq!(unique.len(), table.len(), "duplicate experiment name");
        assert!(!unique.contains(&"all"), "`all` is the expansion, not an entry");
    }

    #[test]
    fn help_prints_every_table_entry() {
        let help = help();
        let line = help.lines().find_map(|l| l.strip_prefix("experiments: ")).unwrap();
        let listed: Vec<&str> = line.split(' ').collect();
        assert_eq!(listed, [names(EXPERIMENTS), vec!["all"]].concat());
    }
}
