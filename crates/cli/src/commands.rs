//! The `flatnet` subcommand implementations.

use crate::opts::Opts;
use flatnet_asgraph::caida;
use flatnet_asgraph::graph::RelConflict;
use flatnet_asgraph::ingest::{ParseDiagnostics, ParseOptions};
use flatnet_asgraph::{validate_topology, AsGraph, AsId, Tiers, ValidateOptions};
use flatnet_core::leaks::{leak_cdf, Announce, Locking};
use flatnet_core::reachability::{hierarchy_free_all, rank_by_hierarchy_free, reachability_profile};
use flatnet_core::report::{thousands, TextTable};
use flatnet_netgen::{generate, Epoch, NetGenConfig};
use flatnet_prefixdb::{AnnouncedDb, PeeringDb, Resolver, WhoisDb};
use flatnet_tracesim::{infer_neighbors, run_campaign, scamper, CampaignOptions, Methodology};
use flatnet_asgraph::cone::customer_cone_sizes;
use std::fs;
use std::path::Path;

/// Parse strictness from the shared `--lenient` / `--max-errors` flags
/// (`--max-errors N` implies `--lenient`).
fn parse_mode(opts: &Opts) -> Result<ParseOptions, String> {
    let mut mode =
        if opts.switch("lenient") { ParseOptions::lenient() } else { ParseOptions::strict() };
    if let Some(v) = opts.get("max-errors") {
        let n: usize =
            v.parse().map_err(|_| format!("--max-errors: bad value {v:?} (want a count)"))?;
        mode = ParseOptions::lenient().with_max_errors(n);
    }
    Ok(mode)
}

/// Surfaces what a lenient parse dropped.
fn note_diag(path: &str, diag: &ParseDiagnostics) {
    if !diag.is_clean() {
        flatnet_obs::warn!("{path}: {}", diag.summary());
    }
}

/// Loads an AS-relationship file, accepting either CAIDA format.
fn load_graph(path: &str, mode: &ParseOptions) -> Result<AsGraph, String> {
    load_graph_full(path, mode).map(|(g, _)| g)
}

/// As [`load_graph`], also returning the relationship conflicts seen while
/// building (for `--validate`).
fn load_graph_full(
    path: &str,
    mode: &ParseOptions,
) -> Result<(AsGraph, Vec<RelConflict>), String> {
    let data = fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let (b, diag) = caida::parse_auto(&data, mode)
        .map_err(|e| format!("{path}: not a CAIDA as-rel file: {e}"))?;
    note_diag(path, &diag);
    let conflicts = b.conflicts().to_vec();
    Ok((b.build(), conflicts))
}

/// `--validate`: pre-flight topology health checks; critical findings
/// abort the command.
fn run_validation(g: &AsGraph, tiers: &Tiers, conflicts: &[RelConflict]) -> Result<(), String> {
    let t1: Vec<AsId> = tiers.tier1().iter().map(|&n| g.asn(n)).collect();
    let t2: Vec<AsId> = tiers.tier2().iter().map(|&n| g.asn(n)).collect();
    let report = validate_topology(g, &t1, &t2, conflicts, &ValidateOptions::default());
    flatnet_obs::info!("{}", report.render());
    if !report.is_usable() {
        return Err("topology failed pre-flight health checks (critical findings above)".into());
    }
    Ok(())
}

/// Explicit Tier-1 and Tier-2 ASNs.
type TierLists = (Vec<AsId>, Vec<AsId>);

/// The explicit `--tier1`/`--tier2` lists, `None` when tiers are to be
/// inferred. `--tier2` alone is a usage error in every command that takes
/// the pair: an explicit Tier-2 list means nothing beside inferred Tier-1s.
fn tier_flags(opts: &Opts) -> Result<Option<TierLists>, String> {
    match (opts.as_list("tier1")?, opts.as_list("tier2")?) {
        (Some(t1), t2) => Ok(Some((t1, t2.unwrap_or_default()))),
        (None, Some(_)) => Err("--tier2 requires --tier1".into()),
        (None, None) => Ok(None),
    }
}

/// Resolves tier sets: explicit lists when given, AS-Rank-style inference
/// otherwise.
fn tiers_for(g: &AsGraph, opts: &Opts) -> Result<Tiers, String> {
    match tier_flags(opts)? {
        Some((t1, t2)) => Ok(Tiers::from_lists(g, &t1, &t2)),
        None => {
            let tiers = flatnet_asgraph::tiers::infer_tiers(g, 32, 28);
            flatnet_obs::info!(
                "inferred {} Tier-1s and {} Tier-2s (pass --tier1/--tier2 to override)",
                tiers.tier1().len(),
                tiers.tier2().len()
            );
            Ok(tiers)
        }
    }
}

/// `flatnet gen` — write a full synthetic dataset to a directory.
pub fn gen(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &[], &["out", "ases", "seed", "trace-sample", "epoch"])?;
    let out = opts.required("out")?.to_string();
    let n_ases: usize = opts.num_or("ases", 2000)?;
    let seed: u64 = opts.num_or("seed", 2020)?;
    let trace_sample: f64 = opts.num_or("trace-sample", 0.5)?;
    let epoch = match opts.get("epoch").unwrap_or("2020") {
        "2020" => Epoch::Y2020,
        "2015" => Epoch::Y2015,
        other => return Err(format!("--epoch must be 2020 or 2015, got {other:?}")),
    };
    let cfg = match epoch {
        Epoch::Y2020 => NetGenConfig::paper_2020(n_ases, seed),
        Epoch::Y2015 => NetGenConfig::paper_2015(n_ases, seed),
    };
    let net = generate(&cfg);
    let dir = Path::new(&out);
    flatnet_netgen::write_dataset(&net, dir)?;
    let campaign = run_campaign(
        &net,
        &CampaignOptions { seed, dest_sample: trace_sample, ..Default::default() },
    );
    fs::write(dir.join("traces.txt"), scamper::write_traces(&campaign.traces))
        .map_err(|e| format!("traces.txt: {e}"))?;
    fs::write(dir.join("traces.warts"), flatnet_tracesim::warts::write_warts(&campaign.traces))
        .map_err(|e| format!("traces.warts: {e}"))?;

    println!(
        "wrote dataset to {out}: {} ASes, {} public links, {} truth links, {} traces",
        net.truth.len(),
        net.public().edge_count(),
        net.truth.edge_count(),
        campaign.len()
    );
    Ok(())
}

/// `flatnet reach` — reachability profile for given origins.
pub fn reach(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(
        args,
        &["lenient", "validate"],
        &["as-rel", "origin", "tier1", "tier2", "max-errors"],
    )?;
    let mode = parse_mode(&opts)?;
    let (g, conflicts) = load_graph_full(opts.required("as-rel")?, &mode)?;
    let origins = opts
        .as_list("origin")?
        .ok_or("missing required flag --origin")?;
    let tiers = tiers_for(&g, &opts)?;
    if opts.switch("validate") {
        run_validation(&g, &tiers, &conflicts)?;
    }
    let profile = reachability_profile(&g, &tiers, &origins);
    if profile.is_empty() {
        return Err("none of the given origins exist in the topology".into());
    }
    let mut t = TextTable::new(["origin", "provider-free", "tier1-free", "hierarchy-free", "hf %"]);
    for r in &profile {
        t.row([
            r.asn.to_string(),
            thousands(r.provider_free as u64),
            thousands(r.tier1_free as u64),
            thousands(r.hierarchy_free as u64),
            format!("{:.1}%", r.hierarchy_free_pct()),
        ]);
    }
    print!("{}", t.render());
    Ok(())
}

/// `flatnet rank` — Table-1-style ranking.
pub fn rank(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(
        args,
        &["lenient", "validate"],
        &["as-rel", "top", "tier1", "tier2", "max-errors"],
    )?;
    let mode = parse_mode(&opts)?;
    let (g, conflicts) = load_graph_full(opts.required("as-rel")?, &mode)?;
    let top: usize = opts.num_or("top", 20)?;
    let tiers = tiers_for(&g, &opts)?;
    if opts.switch("validate") {
        run_validation(&g, &tiers, &conflicts)?;
    }
    let hfr = hierarchy_free_all(&g, &tiers);
    let ranked = rank_by_hierarchy_free(&g, &hfr);
    let mut t = TextTable::new(["#", "origin", "hierarchy-free reach", "%"]);
    for r in ranked.iter().take(top) {
        t.row([
            r.rank.to_string(),
            r.asn.to_string(),
            thousands(r.reach as u64),
            format!("{:.1}%", r.pct),
        ]);
    }
    print!("{}", t.render());
    Ok(())
}

/// `flatnet cone` — customer-cone / transit-degree ranking.
pub fn cone(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &["lenient"], &["as-rel", "top", "max-errors"])?;
    let mode = parse_mode(&opts)?;
    let g = load_graph(opts.required("as-rel")?, &mode)?;
    let top: usize = opts.num_or("top", 20)?;
    let cones = customer_cone_sizes(&g);
    let mut order: Vec<_> = g.nodes().collect();
    order.sort_by_key(|&n| (std::cmp::Reverse(cones[n.idx()]), g.asn(n)));
    let mut t = TextTable::new(["#", "origin", "customer cone", "transit degree", "node degree"]);
    for (i, &n) in order.iter().take(top).enumerate() {
        t.row([
            (i + 1).to_string(),
            g.asn(n).to_string(),
            thousands(cones[n.idx()] as u64),
            flatnet_asgraph::cone::transit_degree(&g, n).to_string(),
            g.degree(n).to_string(),
        ]);
    }
    print!("{}", t.render());
    Ok(())
}

/// `flatnet leak` — §8 resilience CDF.
pub fn leak(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(
        args,
        &["lenient", "validate"],
        &["as-rel", "victim", "leakers", "seed", "lock", "tier1", "tier2", "max-errors"],
    )?;
    let mode = parse_mode(&opts)?;
    let (g, conflicts) = load_graph_full(opts.required("as-rel")?, &mode)?;
    let victim = opts
        .as_list("victim")?
        .and_then(|v| v.first().copied())
        .ok_or("missing required flag --victim")?;
    let leakers: usize = opts.num_or("leakers", 200)?;
    let seed: u64 = opts.num_or("seed", 1)?;
    let lock = opts.get("lock").unwrap_or("none");
    let locking = Locking::from_token(lock)
        .ok_or_else(|| format!("--lock must be none|t1|t12|global, got {lock:?}"))?;
    let tiers = tiers_for(&g, &opts)?;
    if opts.switch("validate") {
        run_validation(&g, &tiers, &conflicts)?;
    }
    let cdf = leak_cdf(&g, &tiers, victim, Announce::ToAll, locking, leakers, seed, None)
        .ok_or_else(|| format!("{victim} is not in the topology"))?;
    println!(
        "victim {victim}, {} leak simulations, locking: {}",
        cdf.fractions.len(),
        locking.name()
    );
    println!(
        "ASes detoured: median {:.1}%  p90 {:.1}%  worst {:.1}%",
        100.0 * cdf.median(),
        100.0 * cdf.percentile(90.0),
        100.0 * cdf.max()
    );
    Ok(())
}

/// `flatnet infer` — §4.1 neighbor inference from a trace file.
pub fn infer(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(
        args,
        &["initial", "lenient"],
        &["traces", "prefixes", "cloud", "max-errors"],
    )?;
    let mode = parse_mode(&opts)?;
    let traces_path = opts.required("traces")?;
    let prefixes_path = opts.required("prefixes")?;
    let cloud = opts
        .as_list("cloud")?
        .and_then(|v| v.first().copied())
        .ok_or("missing required flag --cloud")?;
    // Sniff the format: warts records start with the 0x1205 magic.
    let raw = fs::read(traces_path).map_err(|e| format!("{traces_path}: {e}"))?;
    let (traces, diag) = if raw.starts_with(&[0x12, 0x05]) {
        flatnet_tracesim::warts::parse_warts_with(&raw, &mode).map_err(|e| e.to_string())
    } else {
        scamper::parse_traces_with(&raw, &mode)
    }
    .map_err(|e| format!("{traces_path}: {e}"))?;
    note_diag(traces_path, &diag);
    let prefix_bytes = fs::read(prefixes_path).map_err(|e| format!("{prefixes_path}: {e}"))?;
    let (announced, diag) =
        AnnouncedDb::parse_with(&prefix_bytes, &mode).map_err(|e| format!("{prefixes_path}: {e}"))?;
    note_diag(prefixes_path, &diag);
    let resolver = Resolver::new(PeeringDb::new(), announced, WhoisDb::new());
    let methodology = if opts.switch("initial") {
        Methodology::initial()
    } else {
        Methodology::final_methodology()
    };
    let neighbors = infer_neighbors(traces.iter(), &resolver, &methodology, cloud);
    println!("# {} neighbors inferred for {cloud} from {} traces", neighbors.len(), traces.len());
    for n in &neighbors {
        println!("{}", n.0);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    /// A unique temp directory per test.
    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("flatnet-cli-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn gen_then_analyze_roundtrip() {
        let dir = tmpdir("gen");
        let out = dir.to_str().unwrap().to_string();
        gen(&argv(&["--out", &out, "--ases", "300", "--seed", "7", "--trace-sample", "0.3"]))
            .unwrap();
        for f in ["as-rel.txt", "as-rel-truth.txt", "as2types.txt", "prefixes.txt", "users.txt", "traces.txt", "traces.warts", "tiers.txt"] {
            assert!(dir.join(f).exists(), "{f} missing");
        }
        let rel = dir.join("as-rel-truth.txt");
        let rel_s = rel.to_str().unwrap();
        // reach over the generated truth file for Google.
        reach(&argv(&["--as-rel", rel_s, "--origin", "15169"])).unwrap();
        // rank and cone run end to end.
        rank(&argv(&["--as-rel", rel_s, "--top", "5"])).unwrap();
        cone(&argv(&["--as-rel", rel_s, "--top", "5"])).unwrap();
        // leak with explicit tiny leaker count.
        leak(&argv(&["--as-rel", rel_s, "--victim", "15169", "--leakers", "5", "--lock", "t1"]))
            .unwrap();
        // infer against the generated traces + prefixes.
        let prefixes = dir.join("prefixes.txt");
        for traces in ["traces.txt", "traces.warts"] {
            infer(&argv(&[
                "--traces",
                dir.join(traces).to_str().unwrap(),
                "--prefixes",
                prefixes.to_str().unwrap(),
                "--cloud",
                "15169",
            ]))
            .unwrap();
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_are_reported() {
        let strict = ParseOptions::strict();
        assert!(load_graph("/nonexistent/file", &strict).is_err());
        assert!(reach(&argv(&["--as-rel", "/nonexistent"])).is_err());
        assert!(gen(&argv(&["--ases", "10"])).is_err()); // missing --out
        assert!(leak(&argv(&["--as-rel", "/nonexistent", "--victim", "1"])).is_err());
        let dir = tmpdir("err");
        let f = dir.join("bad.txt");
        fs::write(&f, "not a caida file\n").unwrap();
        assert!(load_graph(f.to_str().unwrap(), &strict).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lenient_flag_tolerates_bad_lines() {
        let dir = tmpdir("lenient");
        let f = dir.join("rel.txt");
        // One garbage line amid valid serial-2 records.
        fs::write(&f, "1|2|-1|bgp\ngarbage line here\n2|3|-1|bgp\n3|4|0|bgp\n").unwrap();
        let fs_ = f.to_str().unwrap();
        // Strict load fails...
        assert!(reach(&argv(&["--as-rel", fs_, "--origin", "4", "--tier1", "1"])).is_err());
        // ...lenient succeeds and still finds the origin.
        reach(&argv(&["--as-rel", fs_, "--origin", "4", "--tier1", "1", "--lenient"])).unwrap();
        // --max-errors implies lenient; a zero budget still aborts.
        assert!(reach(&argv(&[
            "--as-rel", fs_, "--origin", "4", "--tier1", "1", "--max-errors", "0"
        ]))
        .is_err());
        reach(&argv(&["--as-rel", fs_, "--origin", "4", "--tier1", "1", "--max-errors", "5"]))
            .unwrap();
        // Bad flag values name the offending value.
        let err = reach(&argv(&[
            "--as-rel", fs_, "--origin", "4", "--tier1", "1", "--max-errors", "lots"
        ]))
        .unwrap_err();
        assert!(err.contains("\"lots\""), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_lenient_load_drops_a_non_utf_8_line_and_keeps_the_rest() {
        let dir = tmpdir("utf8");
        let f = dir.join("rel.txt");
        fs::write(&f, b"1|2|-1|bgp\n2|\xff3|-1|bgp\n3|4|0|bgp\n4|5|-1|bgp\n").unwrap();
        let path = f.to_str().unwrap();
        let err = load_graph(path, &ParseOptions::strict()).unwrap_err();
        assert!(err.ends_with("parse error on line 2: not valid UTF-8"), "{err}");
        let g = load_graph(path, &ParseOptions::lenient()).unwrap();
        assert_eq!((g.len(), g.edge_count()), (5, 3));
        assert!(g.index_of(AsId(2)).is_some() && g.index_of(AsId(3)).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A reader's error names the file it came from, whichever of
    /// `--traces` and `--prefixes` is the bad one.
    #[test]
    fn infer_errors_name_the_file_that_failed() {
        let dir = tmpdir("infer-names");
        let write = |name: &str, text: &str| {
            let f = dir.join(name);
            fs::write(&f, text).unwrap();
            f.to_str().unwrap().to_string()
        };
        let header = "trace from AS1/city0 to 1.2.3.4 asn 5 complete\n";
        let good_traces = write("good-traces.txt", &format!("{header} 1 1.2.3.4 1.000 ms\n"));
        let bad_traces = write("bad-traces.txt", &format!("{header} x 1.2.3.4\n"));
        let good_prefixes = write("good-prefixes.txt", "1.2.3.0/24|5\n");
        let bad_prefixes = write("bad-prefixes.txt", "1.2.3.0/24|5\nnot-a-line\n");
        let infer_err = |traces: &str, prefixes: &str| {
            infer(&argv(&["--traces", traces, "--prefixes", prefixes, "--cloud", "1"])).unwrap_err()
        };
        let err = infer_err(&bad_traces, &good_prefixes);
        assert!(err.starts_with(&format!("{bad_traces}: line 2: ")), "{err}");
        let err = infer_err(&good_traces, &bad_prefixes);
        assert!(err.starts_with(&format!("{bad_prefixes}: line 2: ")), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn validate_flag_gates_on_health() {
        let dir = tmpdir("validate");
        let f = dir.join("rel.txt");
        // 1 and 2 are a peered Tier-1 clique; 3 is their customer.
        fs::write(&f, "1|2|0|bgp\n1|3|-1|bgp\n2|3|-1|bgp\n").unwrap();
        let fs_ = f.to_str().unwrap();
        reach(&argv(&[
            "--as-rel", fs_, "--origin", "3", "--tier1", "1,2", "--validate",
        ]))
        .unwrap();
        // Declaring the customer a Tier-1 breaks the clique: 3 does not peer
        // with anyone, so --validate must refuse to run the measurement.
        let err = reach(&argv(&[
            "--as-rel", fs_, "--origin", "3", "--tier1", "1,2,3", "--validate",
        ]))
        .unwrap_err();
        assert!(err.contains("health"), "{err}");
        // Same topology without --validate still runs.
        reach(&argv(&["--as-rel", fs_, "--origin", "3", "--tier1", "1,2,3"])).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiers_flags() {
        let dir = tmpdir("tiers");
        let f = dir.join("rel.txt");
        fs::write(&f, "1|2|-1|bgp\n2|3|-1|bgp\n").unwrap();
        let fs_ = f.to_str().unwrap();
        // Explicit tiers.
        reach(&argv(&["--as-rel", fs_, "--origin", "3", "--tier1", "1", "--tier2", "2"])).unwrap();
        // tier2 without tier1 is an error.
        assert!(reach(&argv(&["--as-rel", fs_, "--origin", "3", "--tier2", "2"])).is_err());
        // Unknown origin.
        assert!(reach(&argv(&["--as-rel", fs_, "--origin", "99"])).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tier2_without_tier1_is_refused_before_a_daemon_loads_or_spawns_anything() {
        // The address cannot be bound, so a command that gets as far as
        // building its topology fails on that instead.
        let err = serve(&argv(&["--tier2", "174", "--ases", "200", "--addr", "not-an-address"]))
            .unwrap_err();
        assert_eq!(err, "--tier2 requires --tier1");
        for fleet in [&["--shards", "2"][..], &["--shard-addrs", "127.0.0.1:1"]] {
            let mut args = argv(&["--tier2", "174", "--ases", "200", "--addr", "not-an-address"]);
            args.extend(argv(fleet));
            assert_eq!(router(&args).unwrap_err(), "--tier2 requires --tier1");
        }
    }

    #[test]
    fn snapshot_save_holds_the_topology_to_the_daemons_health_gate() {
        let dir = tmpdir("save-gate");
        let rel = dir.join("rel.txt");
        let out = dir.join("snap.store");
        let (rel_s, out_s) = (rel.to_str().unwrap(), out.to_str().unwrap());
        let nothing_written = || {
            assert_eq!(fs::read_dir(&dir).unwrap().count(), 1, "only the as-rel file");
        };
        // No data lines: an empty graph, which the daemon refuses to serve.
        fs::write(&rel, "# as1|as2|rel\n").unwrap();
        let err = snapshot(&argv(&["save", "--out", out_s, "--as-rel", rel_s])).unwrap_err();
        assert!(err.contains("health"), "{err}");
        nothing_written();
        // A Tier-1 "clique" whose third member peers with nobody.
        fs::write(&rel, "1|2|0|bgp\n1|3|-1|bgp\n2|3|-1|bgp\n").unwrap();
        let broken = ["save", "--out", out_s, "--as-rel", rel_s, "--tier1", "1,2,3"];
        let err = snapshot(&argv(&broken)).unwrap_err();
        assert!(err.contains("health"), "{err}");
        nothing_written();
        // The same file with the real clique is written, and verifies.
        snapshot(&argv(&["save", "--out", out_s, "--as-rel", rel_s, "--tier1", "1,2"])).unwrap();
        snapshot(&argv(&["verify", "--store", out_s])).unwrap();
        let stored = flatnet_store::load(out_s).unwrap();
        assert_eq!((stored.graph.len(), stored.tiers.tier1().len()), (3, 2));
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 2, "the store and no temp file");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn leak_lock_validation() {
        let dir = tmpdir("lock");
        let f = dir.join("rel.txt");
        fs::write(&f, "1|2|-1|bgp\n1|3|-1|bgp\n").unwrap();
        let fs_ = f.to_str().unwrap();
        assert!(leak(&argv(&["--as-rel", fs_, "--victim", "2", "--lock", "bogus"])).is_err());
        leak(&argv(&["--as-rel", fs_, "--victim", "2", "--leakers", "2"])).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }
}

/// `flatnet collect` — simulate route collectors and write MRT.
pub fn collect(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(
        args,
        &["lenient"],
        &["as-rel", "out", "origins", "seed", "monitors", "max-errors"],
    )?;
    let mode = parse_mode(&opts)?;
    let g = load_graph(opts.required("as-rel")?, &mode)?;
    let out = opts.required("out")?.to_string();
    let n_origins: usize = opts.num_or("origins", g.len())?;
    let seed: u64 = opts.num_or("seed", 1)?;
    let monitors: Vec<_> = match opts.as_list("monitors")? {
        Some(list) => list
            .iter()
            .map(|&a| g.index_of(a).ok_or_else(|| format!("monitor {a} not in topology")))
            .collect::<Result<Vec<_>, _>>()?,
        None => {
            // Default: the 30 largest transit ASes (RouteViews peers are
            // overwhelmingly transit networks).
            let cones = customer_cone_sizes(&g);
            let mut order: Vec<_> = g.nodes().collect();
            order.sort_by_key(|&n| (std::cmp::Reverse(cones[n.idx()]), g.asn(n)));
            order.into_iter().take(30).collect()
        }
    };
    // Deterministic origin sample.
    let mut origins: Vec<_> = g.nodes().collect();
    if n_origins < origins.len() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        for i in (1..origins.len()).rev() {
            origins.swap(i, rng.gen_range(0..=i));
        }
        origins.truncate(n_origins);
        origins.sort_unstable();
    }
    let ribs = flatnet_bgpsim::collect_ribs(&g, &monitors, &origins);
    // Synthesize one /20 per origin for the MRT prefix field.
    let mrt = flatnet_mrt::from_rib_entries(&ribs, |origin| {
        Some(flatnet_prefixdb::Ipv4Prefix::new(
            std::net::Ipv4Addr::from(0x0100_0000u32.wrapping_add(origin.0 << 12)),
            20,
        ))
    });
    let bytes = flatnet_mrt::write_mrt(&mrt, 1_600_000_000);
    fs::write(&out, &bytes).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "wrote {}: {} monitors, {} RIB entries, {} bytes",
        out,
        monitors.len(),
        ribs.len(),
        bytes.len()
    );
    Ok(())
}

/// `flatnet relinfer` — Gao inference from an MRT dump.
pub fn relinfer(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &["lenient"], &["mrt", "truth", "out", "max-errors"])?;
    let mode = parse_mode(&opts)?;
    let path = opts.required("mrt")?;
    let bytes = fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let (rib, diag) = flatnet_mrt::parse_mrt_with(&bytes, &mode).map_err(|e| e.to_string())?;
    note_diag(path, &diag);
    let entries = flatnet_mrt::to_rib_entries(&rib);
    let paths: Vec<Vec<AsId>> = entries.iter().map(|e| e.path.clone()).collect();
    let inferred = flatnet_asgraph::infer_relationships(&paths, 60.0);
    println!(
        "{} paths -> {} links observed: {} inferred p2c, {} inferred p2p",
        paths.len(),
        inferred.observed_links,
        inferred.inferred_p2c,
        inferred.inferred_p2p
    );
    if let Some(truth_path) = opts.get("truth") {
        let truth = load_graph(truth_path, &mode)?;
        let acc = flatnet_asgraph::score_inference(&inferred.graph, &truth);
        println!(
            "vs truth: c2p accuracy {:.1}% ({} correct / {} flipped / {} as-p2p), p2p recall {:.1}%, p2p invisible {:.1}%",
            100.0 * acc.c2p_accuracy(),
            acc.c2p_correct,
            acc.c2p_flipped,
            acc.c2p_as_p2p,
            100.0 * acc.p2p_recall(),
            100.0 * acc.p2p_invisible_fraction()
        );
    }
    if let Some(out) = opts.get("out") {
        fs::write(out, caida::write_serial1(&inferred.graph)).map_err(|e| format!("{out}: {e}"))?;
        println!("wrote inferred topology to {out}");
    }
    Ok(())
}

#[cfg(test)]
mod mrt_tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn collect_then_relinfer_roundtrip() {
        let dir = std::env::temp_dir().join(format!("flatnet-cli-mrt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let out = dir.to_str().unwrap().to_string();
        gen(&argv(&["--out", &out, "--ases", "250", "--seed", "9", "--trace-sample", "0.1"])).unwrap();
        let rel = dir.join("as-rel-truth.txt");
        let mrt = dir.join("ribs.mrt");
        collect(&argv(&[
            "--as-rel",
            rel.to_str().unwrap(),
            "--out",
            mrt.to_str().unwrap(),
            "--origins",
            "120",
        ]))
        .unwrap();
        assert!(mrt.exists());
        let inferred = dir.join("inferred.txt");
        relinfer(&argv(&[
            "--mrt",
            mrt.to_str().unwrap(),
            "--truth",
            rel.to_str().unwrap(),
            "--out",
            inferred.to_str().unwrap(),
        ]))
        .unwrap();
        // The inferred file is a loadable serial-1 topology.
        let g = load_graph(inferred.to_str().unwrap(), &ParseOptions::strict()).unwrap();
        assert!(g.edge_count() > 100);
        // Explicit monitor list and error paths.
        collect(&argv(&[
            "--as-rel",
            rel.to_str().unwrap(),
            "--out",
            mrt.to_str().unwrap(),
            "--monitors",
            "3356,174",
        ]))
        .unwrap();
        assert!(collect(&argv(&[
            "--as-rel",
            rel.to_str().unwrap(),
            "--out",
            mrt.to_str().unwrap(),
            "--monitors",
            "999999",
        ]))
        .is_err());
        assert!(relinfer(&argv(&["--mrt", "/nonexistent"])).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}

/// `flatnet dot` — Graphviz export of an AS neighborhood.
pub fn dot(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &["lenient"], &["as-rel", "focus", "out", "max-errors"])?;
    let mode = parse_mode(&opts)?;
    let g = load_graph(opts.required("as-rel")?, &mode)?;
    let focus = opts
        .as_list("focus")?
        .and_then(|v| v.first().copied())
        .ok_or("missing required flag --focus")?;
    let n = g.index_of(focus).ok_or_else(|| format!("{focus} not in topology"))?;
    // The focus AS plus its direct neighborhood.
    let mut include = vec![focus];
    for (m, _) in g.neighbors(n) {
        include.push(g.asn(m));
    }
    let dot_opts = flatnet_asgraph::dot::DotOptions {
        labels: Default::default(),
        highlight: vec![focus],
        restrict_to: Some(include),
    };
    let rendered = flatnet_asgraph::dot::to_dot(&g, &dot_opts);
    match opts.get("out") {
        Some(path) => {
            fs::write(path, rendered).map_err(|e| format!("{path}: {e}"))?;
            println!("wrote {path}");
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

/// The daemon's topology source from the flags `serve` and `snapshot save`
/// share: `--as-rel FILE [--tier1 .. --tier2 ..] [--lenient]`, or the
/// generator's `--ases N --seed S`.
fn topology_source(opts: &Opts) -> Result<flatnet_serve::TopologySource, String> {
    let (tier1, tier2) = tier_flags(opts)?.unwrap_or_default();
    Ok(match opts.get("as-rel") {
        Some(path) => flatnet_serve::TopologySource::CaidaFile {
            path: path.to_string(),
            tier1,
            tier2,
            lenient: opts.switch("lenient"),
        },
        None => flatnet_serve::TopologySource::Generated {
            ases: opts.num_or("ases", 4000usize)?,
            seed: opts.num_or("seed", 2020u64)?,
        },
    })
}

/// `flatnet serve`: run the query daemon until `/admin/shutdown`.
pub fn serve(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(
        args,
        &["lenient"],
        &[
            "addr",
            "as-rel",
            "ases",
            "seed",
            "workers",
            "queue",
            "cache",
            "deadline-ms",
            "warm",
            "io-timeout-ms",
            "keepalive-max",
            "keepalive-idle-ms",
            "store",
            "tier1",
            "tier2",
            "shard-id",
            "shard-count",
        ],
    )?;
    let shard = match (opts.get("shard-id"), opts.get("shard-count")) {
        (None, None) => None,
        (Some(id), Some(count)) => {
            let id: u32 = id.parse().map_err(|_| format!("--shard-id: bad number {id:?}"))?;
            let count: u32 =
                count.parse().map_err(|_| format!("--shard-count: bad number {count:?}"))?;
            if count == 0 || id >= count {
                return Err(format!("--shard-id {id} out of range for --shard-count {count}"));
            }
            Some((id, count))
        }
        _ => return Err("--shard-id and --shard-count go together".into()),
    };
    let source = topology_source(&opts)?;
    let cfg = flatnet_serve::ServeConfig {
        addr: opts.get("addr").unwrap_or("127.0.0.1:8080").to_string(),
        workers: opts.num_or("workers", 0usize)?,
        queue_cap: opts.num_or("queue", 256usize)?,
        cache_cap: opts.num_or("cache", 4096usize)?,
        deadline_ms: opts.num_or("deadline-ms", 5000u64)?,
        warm: opts.num_or("warm", 0usize)?,
        io_timeout_ms: opts.num_or("io-timeout-ms", 10_000u64)?,
        keepalive_max: opts.num_or("keepalive-max", 1024u64)?,
        keepalive_idle_ms: opts.num_or("keepalive-idle-ms", 5000u64)?,
        store: opts.get("store").map(str::to_string),
        shard,
        source,
    };
    flatnet_serve::serve(cfg).map_err(String::from)
}

/// Polls a shard's `/healthz` until it answers 200 (compiling a large
/// topology can take a while, hence the generous budget).
fn wait_shard_ready(addr: &str, budget: std::time::Duration) -> Result<(), String> {
    let deadline = std::time::Instant::now() + budget;
    let shard = flatnet_wire::Client::new(addr.to_string(), std::time::Duration::from_secs(5));
    loop {
        // One-shot: a parked keep-alive connection would pin one of the
        // shard's workers.
        match shard.one_shot("GET", "/healthz").map(|reply| reply.status) {
            Ok(200) => return Ok(()),
            Ok(status) => {
                if std::time::Instant::now() >= deadline {
                    return Err(format!("last /healthz status: {status}"));
                }
            }
            Err(e) => {
                if std::time::Instant::now() >= deadline {
                    return Err(format!("last error: {e}"));
                }
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
}

/// `flatnet router`: the sharded serving tier. Either spawns `--shards N`
/// child `flatnet serve` processes (one consistent-hash slice each, all
/// from the same topology flags) or adopts externally managed shards via
/// `--shard-addrs`, then fronts them with the origin-hash scatter-gather
/// router until `POST /admin/shutdown`.
pub fn router(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(
        args,
        &["lenient"],
        &[
            "addr",
            "shards",
            "shard-addrs",
            "base-port",
            "store",
            "as-rel",
            "ases",
            "seed",
            "tier1",
            "tier2",
            "workers",
            "cache",
            "probe-ms",
            "upstream-timeout-ms",
        ],
    )?;
    // Every flag is read before the first shard is spawned: a bad value
    // must not leave healthy children behind.
    let mut cfg = flatnet_router::RouterConfig {
        addr: opts.get("addr").unwrap_or("127.0.0.1:8070").to_string(),
        probe_interval_ms: opts.num_or("probe-ms", 200u64)?,
        upstream_timeout_ms: opts.num_or("upstream-timeout-ms", 10_000u64)?,
        ..flatnet_router::RouterConfig::default()
    };
    // The pair is forwarded verbatim to every spawned shard; refuse here
    // what each of them would refuse.
    tier_flags(&opts)?;

    // Adopted shards (--shard-addrs) stay up when the router goes — they
    // are not ours; spawned ones go down with `spawned`, on every path.
    let mut spawned = SpawnedShards(Vec::new());
    if let Some(list) = opts.get("shard-addrs") {
        if opts.get("shards").is_some() {
            return Err("--shard-addrs (adopt) and --shards (spawn) are mutually exclusive".into());
        }
        cfg.shard_addrs =
            list.split(',').map(str::trim).filter(|s| !s.is_empty()).map(str::to_string).collect();
        if cfg.shard_addrs.is_empty() {
            return Err("--shard-addrs: no addresses given".into());
        }
    } else {
        let n: u32 = opts.num_or("shards", 3u32)?;
        if n == 0 {
            return Err("--shards must be at least 1".into());
        }
        let base: u16 = opts.num_or("base-port", 8180u16)?;
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
        let mut common: Vec<String> = Vec::new();
        for flag in ["store", "as-rel", "ases", "seed", "tier1", "tier2", "workers", "cache"] {
            if let Some(v) = opts.get(flag) {
                common.push(format!("--{flag}"));
                common.push(v.to_string());
            }
        }
        if opts.get("workers").is_none() {
            // A serve worker stays bound to its connection for the
            // connection's whole life, so a shard needs at least as many
            // workers as the router holds sockets to it at once — pooled
            // data-plane connections plus a health probe plus a rolling
            // reload — or the excess connections starve to the queue
            // deadline. Workers beyond the core count are nearly free
            // (they park in `fill_buf`), so spawned shards get a
            // generous floor rather than serve's all-cores default.
            let cores = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
            common.push("--workers".into());
            common.push(cores.max(8).to_string());
        }
        if opts.switch("lenient") {
            common.push("--lenient".into());
        }
        cfg.shard_addrs = (0..n)
            .map(|i| {
                base.checked_add(i as u16)
                    .map(|p| format!("127.0.0.1:{p}"))
                    .ok_or_else(|| format!("--base-port {base} + {n} shards overflows a port"))
            })
            .collect::<Result<_, _>>()?;
        for (i, shard_addr) in cfg.shard_addrs.iter().enumerate() {
            let child = std::process::Command::new(&exe)
                .arg("serve")
                .args(["--addr", shard_addr])
                .args(["--shard-id", &i.to_string()])
                .args(["--shard-count", &n.to_string()])
                .args(&common)
                .spawn()
                .map_err(|e| format!("spawning shard {i}: {e}"))?;
            flatnet_obs::info!("spawned shard {i} (pid {}) on {shard_addr}", child.id());
            cfg.shard_pids.push(child.id());
            spawned.0.push((child, shard_addr.clone()));
        }
        for (i, shard_addr) in cfg.shard_addrs.iter().enumerate() {
            wait_shard_ready(shard_addr, std::time::Duration::from_secs(120))
                .map_err(|e| format!("shard {i} on {shard_addr} never became healthy ({e})"))?;
        }
    }

    let router = flatnet_router::Router::start(cfg)
        .map_err(|e| format!("router failed to start: {e}"))?;
    router.wait();
    Ok(())
}

/// The `flatnet serve` children of `flatnet router --shards N`, each with
/// its address. Dropping it takes them down, so no way out of `router` —
/// a later shard that fails to spawn, one that never turns healthy, a
/// taken `--addr`, the clean shutdown — leaves a child holding its port.
struct SpawnedShards(Vec<(std::process::Child, String)>);

impl Drop for SpawnedShards {
    fn drop(&mut self) {
        let grace = std::time::Duration::from_secs(5);
        for (child, addr) in &mut self.0 {
            // A child that already exited is not asked: whatever answers
            // on its port now is not ours. A live one gets the chance to
            // leave by itself (exit 0) before it is killed.
            if matches!(child.try_wait(), Ok(None)) {
                let shard = flatnet_wire::Client::new(addr.clone(), grace);
                if shard.one_shot("POST", "/admin/shutdown").is_ok() {
                    let deadline = std::time::Instant::now() + grace;
                    while matches!(child.try_wait(), Ok(None))
                        && std::time::Instant::now() < deadline
                    {
                        std::thread::sleep(std::time::Duration::from_millis(10));
                    }
                }
            }
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// `flatnet snapshot save|verify`: the crash-safe snapshot store.
pub fn snapshot(args: &[String]) -> Result<(), String> {
    let Some((sub, rest)) = args.split_first() else {
        return Err("snapshot requires a subcommand (save|verify)".into());
    };
    match sub.as_str() {
        "save" => snapshot_save(rest),
        "verify" => snapshot_verify(rest),
        other => Err(format!("unknown snapshot subcommand {other:?} (want save|verify)")),
    }
}

/// `flatnet snapshot save --out FILE [--as-rel FILE | --ases N --seed S]`
/// — build the snapshot the daemon would serve from these flags
/// ([`flatnet_serve::TopologySource::build`]: ingest, health gate,
/// compile) and persist it atomically, so a later `flatnet serve --store
/// FILE` warm-starts without reading the source. A topology the daemon
/// would refuse is refused here, and nothing is written.
fn snapshot_save(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(
        args,
        &["lenient"],
        &["out", "as-rel", "ases", "seed", "tier1", "tier2"],
    )?;
    let out = opts.required("out")?;
    let snap = topology_source(&opts)?.build(1)?;
    flatnet_store::save_atomic(out, &snap).map_err(|e| e.to_string())?;
    let report = flatnet_store::verify(out, false).map_err(|e| e.to_string())?;
    println!(
        "wrote {out}: v{} {} ASes, {} links, {} bytes",
        report.version,
        thousands(report.nodes as u64),
        thousands(report.links as u64),
        thousands(report.file_bytes),
    );
    Ok(())
}

/// `flatnet snapshot verify --store FILE` — decode and checksum-check a
/// store, exactly as a warm start would.
fn snapshot_verify(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &[], &["store"])?;
    let path = opts.required("store")?;
    let report = flatnet_store::verify(path, false).map_err(|e| e.to_string())?;
    println!(
        "{path}: ok (v{}, {} ASes, {} links, tiers {}/{}, {} bytes)",
        report.version,
        thousands(report.nodes as u64),
        thousands(report.links as u64),
        report.tier_sizes.0,
        report.tier_sizes.1,
        thousands(report.file_bytes),
    );
    Ok(())
}

/// `flatnet metrics [--in PATH] [--prom]` — render an obs snapshot (a
/// `flatnet-obs/v2` JSON file, or the live in-process registry when
/// `--in` is omitted) as the summary table or the Prometheus text
/// exposition.
pub fn metrics(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &["prom"], &["in"])?;
    let snap = match opts.get("in") {
        Some(path) => {
            let text =
                fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            flatnet_obs::Snapshot::from_json(&text).map_err(|e| format!("{path}: {e}"))?
        }
        None => flatnet_obs::snapshot(),
    };
    if opts.switch("prom") {
        print!("{}", flatnet_obs::to_prometheus(&snap));
    } else {
        print!("{}", snap.render_table());
    }
    Ok(())
}

/// `flatnet trace top --in PATH [--top N]` — summarize a drained trace
/// dump (a `flatnet-trace/v1` document from `/debug/trace/recent` or
/// `/debug/trace/slow`): stage breakdown, slowest origins, slowest
/// requests.
pub fn trace(args: &[String]) -> Result<(), String> {
    let Some((sub, rest)) = args.split_first() else {
        return Err("trace requires a subcommand (try `trace top --in DUMP.json`)".into());
    };
    if sub != "top" {
        return Err(format!("unknown trace subcommand {sub:?} (want top)"));
    }
    let opts = Opts::parse(rest, &[], &["in", "top"])?;
    let path = opts.required("in")?;
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let dump = flatnet_obs::TraceDump::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    print!("{}", dump.render_top(opts.num_or("top", 10usize)?));
    Ok(())
}

#[cfg(test)]
mod obs_tests {
    use super::*;

    #[test]
    fn metrics_renders_file_snapshots_and_rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("flatnet-cli-obs-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("obs.json");
        let reg = flatnet_obs::Registry::new();
        reg.counter("parse.test.records_ok").add(5);
        reg.histogram("serve.stage_us{stage=\"queue_wait\"}").record_us_tagged(80, 9, 15169);
        fs::write(&path, reg.snapshot().to_json()).unwrap();
        let argv = vec!["--in".to_string(), path.to_str().unwrap().to_string()];
        metrics(&argv).unwrap();
        let prom = vec![
            "--in".to_string(),
            path.to_str().unwrap().to_string(),
            "--prom".to_string(),
        ];
        metrics(&prom).unwrap();
        fs::write(&path, "not json").unwrap();
        assert!(metrics(&argv).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_top_summarizes_a_dump() {
        let dir = std::env::temp_dir().join(format!("flatnet-cli-trace-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.json");
        let mut ev = flatnet_obs::TraceEvent {
            trace_id: 7,
            total_us: 1234,
            status: 200,
            origin: 64500,
            ..flatnet_obs::TraceEvent::default()
        };
        ev.set_tag("reachability");
        fs::write(&path, flatnet_obs::TraceDump { events: vec![ev] }.to_json()).unwrap();
        let argv: Vec<String> =
            ["top", "--in", path.to_str().unwrap(), "--top", "5"].iter().map(|s| s.to_string()).collect();
        trace(&argv).unwrap();
        assert!(trace(&["bogus".to_string()]).is_err());
        assert!(trace(&[]).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod dot_tests {
    use super::*;

    #[test]
    fn dot_neighborhood_export() {
        let dir = std::env::temp_dir().join(format!("flatnet-cli-dot-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let rel = dir.join("rel.txt");
        fs::write(&rel, "1|2|-1|bgp\n2|3|-1|bgp\n2|4|0|bgp\n3|5|-1|bgp\n").unwrap();
        let out = dir.join("g.dot");
        let argv: Vec<String> = [
            "--as-rel",
            rel.to_str().unwrap(),
            "--focus",
            "2",
            "--out",
            out.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        dot(&argv).unwrap();
        let text = fs::read_to_string(&out).unwrap();
        // Neighborhood of AS2: 1 (provider), 3 (customer), 4 (peer) — not 5.
        assert!(text.contains("n1 -> n2;"));
        assert!(text.contains("n2 -> n3;"));
        assert!(text.contains("dir=none"));
        assert!(!text.contains("n5"));
        // Missing focus errors.
        let bad: Vec<String> =
            ["--as-rel", rel.to_str().unwrap(), "--focus", "99"].iter().map(|s| s.to_string()).collect();
        assert!(dot(&bad).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
