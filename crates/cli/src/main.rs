//! `flatnet` — command-line front end for the flat-Internet analyses.
//!
//! Works on real CAIDA AS-relationship files or on datasets produced by
//! `flatnet gen`. See `flatnet help` for the full command set.

#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod commands;
mod lab;
mod opts;
mod repro;

use std::process::ExitCode;

const USAGE: &str = "\
flatnet — hierarchy-free reachability & friends (IMC 2020 reproduction)

USAGE:
  flatnet gen    --out DIR [--ases N] [--seed S] [--epoch 2020|2015]
      Generate a synthetic dataset: as-rel (public + truth), as2types,
      announced prefixes, per-AS users, and a scamper-style traceroute
      campaign.

  flatnet reach  --as-rel FILE --origin ASN[,ASN...]
                 [--tier1 ASN,.. --tier2 ASN,..] [--validate]
      Provider-free / Tier-1-free / hierarchy-free reachability for the
      given origins. Tiers are inferred (AS-Rank style) unless given.

  flatnet rank   --as-rel FILE [--top N] [--tier1 .. --tier2 ..]
                 [--validate]
      Rank all ASes by hierarchy-free reachability (Table-1 style).

  flatnet cone   --as-rel FILE [--top N]
      Rank all ASes by customer cone and transit degree.

  flatnet leak   --as-rel FILE --victim ASN [--leakers K]
                 [--lock none|t1|t12|global] [--tier1 .. --tier2 ..]
                 [--validate]
      Route-leak resilience CDF for a victim (§8).

  flatnet infer  --traces FILE --prefixes FILE --cloud ASN [--initial]
      Infer a cloud's neighbors from a scamper-style trace file and an
      announced-prefix dump (§4.1/§5). --initial uses the paper's first
      (flawed) methodology instead of the final one.

  flatnet collect  --as-rel FILE --out FILE.mrt [--monitors ASN,..]
                   [--origins N] [--seed S]
      Simulate route collectors over a topology and write their RIBs as
      an MRT TABLE_DUMP_V2 dump. Monitors default to the 30 largest
      transit ASes.

  flatnet relinfer --mrt FILE [--truth FILE] [--out FILE]
      Gao-style AS-relationship inference from an MRT RIB dump; with
      --truth, scores the result; with --out, writes the inferred
      topology as a CAIDA serial-1 file.

  flatnet dot    --as-rel FILE --focus ASN [--out FILE.dot]
      Graphviz export of an AS and its direct neighborhood.

  flatnet repro  [EXPERIMENT...] [--ases N] [--seed S] [--leakers K]
                 [--fast] [--checkpoint DIR] [--threads N]
      Regenerate the paper's tables and figures on the synthetic
      substrate (see `flatnet repro --help` for the experiment list).
      An unknown experiment name is an error; nothing runs.

  flatnet serve  [--as-rel FILE | --ases N --seed S] [--addr HOST:PORT]
                 [--workers N] [--queue N] [--cache N] [--deadline-ms MS]
                 [--warm N] [--io-timeout-ms MS] [--keepalive-max N]
                 [--keepalive-idle-ms MS] [--store FILE]
                 [--tier1 .. --tier2 ..]
      Run the query daemon: reachability/reliance/what-if answers over
      HTTP from a compiled snapshot. Endpoints: /v1/reachability,
      /v1/reliance (origin= or a comma-separated origins= batch),
      /v1/whatif/leak, /healthz, /metrics (add ?format=prom for
      Prometheus text), /debug/trace/recent, /debug/trace/slow?ms=N,
      /admin/reload, /admin/shutdown. Every /v1 body is
      wrapped in one envelope (schema, snapshot_version, trace_id, then
      data or error); responses carry an X-Flatnet-Trace-Id header.
      Connections are keep-alive by default: --keepalive-max (1024)
      bounds requests per connection, --keepalive-idle-ms (5000) closes
      quiet ones.
      --warm N pre-fills the reachability cache for the N highest-degree
      origins after startup and every reload (default 0 = off).
      Without --as-rel, serves a synthetic topology.
      With --store, warm-starts from the snapshot store when it is valid
      (the source is not read, parsed or tier-inferred), rebuilds from
      the source and rewrites the store when it is corrupt or of an older
      format, and persists every successful reload to it.
      --shard-id I --shard-count N mark the daemon as one slice of a
      `flatnet router` fleet (surfaced in /healthz; normally set by the
      router when it spawns shards, not by hand).

  flatnet router [--shards N [--base-port P] | --shard-addrs A:P,..]
                 [--addr HOST:PORT] [--probe-ms MS]
                 [--upstream-timeout-ms MS] [--store FILE]
                 [--as-rel FILE | --ases N --seed S] [--tier1 .. --tier2 ..]
                 [--workers N] [--cache N]
      Front a sharded serving tier: either spawn --shards N child
      `flatnet serve` processes (default 3, listening from --base-port
      8180 up, topology flags forwarded to each) or adopt running shards
      with --shard-addrs. Each shard owns a consistent-hash slice of the
      origin space; the router forwards single-origin /v1 queries to the
      owning shard and scatter-gathers origins= batches across shards
      over pooled keep-alive connections, merging the shard envelopes
      bit-identically. A dead shard 503s only its slice (error kind
      \"shard-unavailable\"; batches return a partial envelope flagged
      with a router.partial marker). POST /admin/reload rolls the fleet
      one shard at a time, each behind its own health gate; /healthz, /metrics, and
      /debug/shards aggregate across shards, /debug/trace/recent and
      /debug/trace/slow serve the router's own trace ring. Trace ids
      propagate to shards via X-Flatnet-Trace-Id.

  flatnet snapshot save   --out FILE [--as-rel FILE | --ases N --seed S]
                          [--tier1 .. --tier2 ..]
  flatnet snapshot verify --store FILE
      Manage crash-safe snapshot stores (graph + tier sets; the compiled
      topology is rebuilt on load): `save` builds a topology, refuses it
      if it fails the daemon's health gate, and writes it atomically;
      `verify` decodes and checksum-checks it as a warm start would.

  flatnet metrics [--in PATH] [--prom]
      Render an obs snapshot — from a flatnet-obs/v2 file written with
      `--metrics PATH` (or scraped from /metrics) when --in is given,
      else the live process registry — as a text table, or as
      Prometheus text exposition with --prom.

  flatnet trace top --in DUMP.json [--top N]
      Summarize a flatnet-trace/v1 dump (as returned by
      /debug/trace/recent or /debug/trace/slow): per-stage time
      breakdown, slowest origins, and the N slowest requests.

  flatnet help
      This message.

Common flags take comma-separated AS numbers. All commands print text
tables to stdout and are deterministic.

Observability (any command):
  --metrics PATH   On exit, write a flatnet-obs/v2 JSON snapshot of the
                   process's counters, gauges, and histograms (phase
                   times included) to PATH.
  --log-level L    Stderr verbosity: error|warn|info|debug (default
                   info; $FLATNET_LOG is read first).
  --threads N      (repro) Worker threads for parallel sweeps; 0 = all
                   cores. Counter metrics are identical for any N.

Fault tolerance (every command that reads a file):
  --lenient        Skip malformed records instead of aborting; dropped
                   record counts are reported on stderr. serve, router
                   and snapshot save take it with the default budget.
  --max-errors N   (reach/rank/cone/leak/infer/collect/relinfer/dot) Cap
                   on skipped records in lenient mode (implies
                   --lenient; default 1000). Parsing aborts once the
                   budget is exhausted.
  --validate       (reach/rank/leak) Run topology health checks before
                   measuring; critical findings (e.g. a broken Tier-1
                   clique) abort the run.";

/// Pulls the global `--metrics PATH` / `--log-level LEVEL` flags out of
/// the argument list (applying the log level immediately) so subcommand
/// parsers, which reject unknown flags, never see them.
fn strip_global_flags(args: Vec<String>) -> Result<(Vec<String>, Option<String>), String> {
    let mut rest = Vec::with_capacity(args.len());
    let mut metrics = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--metrics" => {
                metrics = Some(it.next().ok_or("--metrics requires a file path")?);
            }
            "--log-level" => {
                let name = it.next().ok_or("--log-level requires error|warn|info|debug")?;
                let level = flatnet_obs::log::parse_level(&name)
                    .ok_or_else(|| format!("bad value {name:?} for --log-level"))?;
                flatnet_obs::log::set_level(level);
            }
            _ => rest.push(a),
        }
    }
    Ok((rest, metrics))
}

fn main() -> ExitCode {
    flatnet_obs::log::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (args, metrics) = match strip_global_flags(args) {
        Ok(split) => split,
        Err(e) => {
            flatnet_obs::error!("flatnet: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "gen" => commands::gen(rest),
        "reach" => commands::reach(rest),
        "rank" => commands::rank(rest),
        "cone" => commands::cone(rest),
        "leak" => commands::leak(rest),
        "infer" => commands::infer(rest),
        "collect" => commands::collect(rest),
        "relinfer" => commands::relinfer(rest),
        "dot" => commands::dot(rest),
        "serve" => commands::serve(rest),
        "router" => commands::router(rest),
        "snapshot" => commands::snapshot(rest),
        "metrics" => commands::metrics(rest),
        "trace" => commands::trace(rest),
        "repro" => repro::run(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?} (try `flatnet help`)")),
    };
    if let Some(path) = &metrics {
        let snap = flatnet_obs::snapshot();
        if let Err(e) = std::fs::write(path, snap.to_json()) {
            flatnet_obs::error!("flatnet: cannot write metrics {path}: {e}");
            return ExitCode::FAILURE;
        }
        flatnet_obs::info!("metrics snapshot written to {path}");
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            flatnet_obs::error!("flatnet: {e}");
            ExitCode::FAILURE
        }
    }
}
