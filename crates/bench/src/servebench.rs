//! `flatnet bench serve` — a closed-loop load generator for the
//! `flatnet-serve` daemon.
//!
//! Starts an in-process server on a loopback port, warms the origin
//! pool (so the cache holds every origin once), then runs three load
//! passes from `--conc` closed-loop client threads (a new request
//! leaves only when the previous response arrived, so the offered load
//! adapts to the server instead of overrunning it):
//!
//! 1. **close** — one fresh connection per request (`Connection:
//!    close`), the historical baseline where TCP setup dominates;
//! 2. **keepalive** — each client holds one persistent connection and
//!    issues its requests back-to-back over it (optionally pipelined
//!    `--pipeline` deep), measuring what connection reuse buys;
//! 3. **batch** — persistent connections carrying `origins=` batch
//!    queries that feed whole lane blocks to the sweep kernel.
//!
//! The report (schema `flatnet-bench-serve/v1`) carries per-pass
//! requests/sec, per-connection reuse stats, and the
//! `keepalive_vs_close` throughput ratio that CI gates on (≥3×),
//! alongside the cache-hit latency split and server-side stage
//! percentiles.

use flatnet_netgen::{generate, NetGenConfig};
use flatnet_serve::{ServeConfig, Server, TopologySource};
use flatnet_wire::{Client, Conn, Reply};
use std::io::Write;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One request's outcome as seen by a client thread.
struct Sample {
    us: u64,
    status: u16,
    cached: bool,
}

/// Writes `paths.len()` pipelined requests on `conn` (dialing when the
/// server closed the last one — budget exhaustion, a 5xx, or a
/// transport error), then reads that many responses.
fn try_group(
    client: &Client,
    conn: &mut Option<Conn>,
    paths: &[String],
) -> std::io::Result<Vec<Reply>> {
    let mut live = match conn.take() {
        Some(live) => live,
        None => client.dial()?,
    };
    let mut req = String::new();
    for path in paths {
        use std::fmt::Write as _;
        let _ = write!(req, "GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n");
    }
    live.write_all(req.as_bytes())?;
    let mut out = Vec::with_capacity(paths.len());
    for _ in paths {
        let reply = live.recv()?;
        let closed = reply.close;
        out.push(reply);
        if closed {
            if out.len() < paths.len() {
                return Err(std::io::Error::other("server closed mid-pipeline"));
            }
            return Ok(out);
        }
    }
    *conn = Some(live);
    Ok(out)
}

/// What one load pass measured.
struct PassResult {
    samples: Vec<Sample>,
    elapsed_ms: f64,
    connections: usize,
}

impl PassResult {
    fn qps(&self) -> f64 {
        self.samples.len() as f64 / (self.elapsed_ms / 1e3).max(1e-9)
    }
}

enum Mode {
    /// Fresh connection per request, `Connection: close`.
    Close,
    /// One persistent connection per client, `pipeline` requests in
    /// flight at a time.
    KeepAlive { pipeline: usize },
    /// Persistent connections carrying `origins=` lists of this size.
    Batch { size: usize },
}

/// Runs one closed-loop pass: `conc` clients pull request indices from
/// a shared counter until `requests` have been issued.
fn run_pass(
    addr: SocketAddr,
    conc: usize,
    requests: usize,
    origins: &Arc<Vec<u32>>,
    mode: &Mode,
) -> Result<PassResult, String> {
    let next = Arc::new(AtomicUsize::new(0));
    let group = match mode {
        Mode::Close => 1,
        Mode::KeepAlive { pipeline } => (*pipeline).max(1),
        Mode::Batch { .. } => 1,
    };
    let batch = match mode {
        Mode::Batch { size } => (*size).max(1),
        _ => 0,
    };
    let keepalive = !matches!(mode, Mode::Close);
    let t0 = Instant::now();
    let clients: Vec<_> = (0..conc)
        .map(|_| {
            let next = Arc::clone(&next);
            let origins = Arc::clone(origins);
            std::thread::spawn(move || -> Result<(Vec<Sample>, usize), String> {
                let mut samples = Vec::new();
                let client = Client::new(addr.to_string(), Duration::from_secs(30));
                let mut conn = None;
                loop {
                    let i = next.fetch_add(group, Ordering::Relaxed);
                    if i >= requests {
                        // One TCP connect per dial, in either mode.
                        return Ok((samples, client.stats().0 as usize));
                    }
                    let n = group.min(requests - i);
                    let paths: Vec<String> = (i..i + n)
                        .map(|j| {
                            if batch > 0 {
                                // Rotate a `batch`-wide window through the
                                // pool so every request is a real batch.
                                let list: Vec<String> = (0..batch)
                                    .map(|k| {
                                        origins[(j * batch + k) % origins.len()].to_string()
                                    })
                                    .collect();
                                format!("/v1/reachability?origins={}", list.join(","))
                            } else {
                                format!(
                                    "/v1/reachability?origin={}",
                                    origins[j % origins.len()]
                                )
                            }
                        })
                        .collect();
                    let t = Instant::now();
                    let replies = if keepalive {
                        // A group that failed mid-stream is retried once,
                        // on a fresh connection.
                        try_group(&client, &mut conn, &paths)
                            .or_else(|_| try_group(&client, &mut conn, &paths))
                    } else {
                        client.one_shot("GET", &paths[0]).map(|reply| vec![reply])
                    };
                    let us = t.elapsed().as_micros() as u64 / n as u64;
                    match replies {
                        Ok(replies) => samples.extend(replies.iter().map(|r| Sample {
                            us,
                            status: r.status,
                            cached: r.body.contains("\"cached\":true")
                                && !r.body.contains("\"cached\":false"),
                        })),
                        Err(_) => {
                            samples.extend((0..n).map(|_| Sample { us, status: 0, cached: false }))
                        }
                    }
                }
            })
        })
        .collect();
    let mut samples = Vec::with_capacity(requests);
    let mut connections = 0usize;
    for c in clients {
        let (s, conns) = c.join().map_err(|_| "client thread panicked")??;
        samples.extend(s);
        connections += conns;
    }
    Ok(PassResult { samples, elapsed_ms: t0.elapsed().as_secs_f64() * 1e3, connections })
}

fn percentile(sorted_us: &[u64], pct: usize) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let i = (sorted_us.len() * pct / 100).min(sorted_us.len() - 1);
    sorted_us[i]
}

/// Renders one pass's report block.
fn pass_block(name: &str, pass: &PassResult, extra: &str) -> String {
    let mut us: Vec<u64> = pass.samples.iter().map(|s| s.us).collect();
    us.sort_unstable();
    let ok = pass.samples.iter().filter(|s| s.status == 200).count();
    let e4 = pass.samples.iter().filter(|s| (400..500).contains(&s.status)).count();
    let e5 = pass.samples.iter().filter(|s| s.status >= 500).count();
    let tr = pass.samples.iter().filter(|s| s.status == 0).count();
    let reuse = pass.samples.len() as f64 / pass.connections.max(1) as f64;
    format!(
        "    \"{name}\": {{ \"requests\": {n}, \"elapsed_ms\": {ms:.3}, \"qps\": {qps:.1}, \
         \"connections\": {conns}, \"requests_per_conn\": {reuse:.1}, \
         \"latency\": {{ \"p50_us\": {p50}, \"p90_us\": {p90}, \"p99_us\": {p99} }}, \
         \"status\": {{ \"ok_200\": {ok}, \"err_4xx\": {e4}, \"err_5xx\": {e5}, \
         \"transport\": {tr} }}{extra} }}",
        n = pass.samples.len(),
        ms = pass.elapsed_ms,
        qps = pass.qps(),
        conns = pass.connections,
        p50 = percentile(&us, 50),
        p90 = percentile(&us, 90),
        p99 = percentile(&us, 99),
    )
}

/// The router scaling benchmark (`bench serve --router N`): the same
/// closed-loop batch workload thrown at one single-process daemon and
/// at an N-shard router fleet, every process capped at one worker
/// thread so the only lever is the router spreading lane blocks across
/// shard processes. Batches are sized to several 64-lane blocks per
/// shard (960 origins for 3 shards): the single process sweeps all
/// ~15 blocks sequentially, each shard sweeps ~5 — in parallel,
/// because the scatter writes every sub-request before reading any
/// response — so throughput should approach N×. Multiple blocks per
/// shard matter: they amortise the fixed per-sub-request cost (parse,
/// serialize, socket write) under propagation compute, and shrink the
/// relative imbalance the hash split introduces. The cache is
/// deliberately tiny relative to the origin pool — a cache-served
/// answer would measure the allocator, not the sweep.
///
/// The report records the host's core count: on a box with fewer
/// cores than `shards + 1` the shard processes time-slice one another
/// and the ratio degenerates to ~1× or below by construction — such a
/// result says nothing about the router. The CI gate checks the ratio
/// only where the fleet can actually run in parallel.
///
/// One closed-loop client and no background prober, deliberately: a
/// serve worker is bound to its connection for the connection's whole
/// life (idle parking included), so a 1-worker shard can serve exactly
/// one upstream connection. One client keeps the router at one pooled
/// connection per shard; more would starve behind the parked worker
/// and measure the shard's idle timeout instead of the sweep.
#[allow(clippy::too_many_arguments)] // one per CLI flag of `--router` mode
fn run_router(
    shards: u32,
    ases: usize,
    seed: u64,
    conc: usize,
    requests: usize,
    pool: usize,
    batch: usize,
    out: &str,
) -> Result<(), String> {
    use flatnet_router::{Router, RouterConfig};

    let cores = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    println!(
        "# flatnet bench serve --router {shards} — {ases} ASes (seed {seed}), \
         {conc} clients, {requests} batch requests/pass, {batch} origins/batch"
    );
    let net = generate(&NetGenConfig::paper_2020(ases, seed));
    let tiers = net.tiers_for(&net.truth);
    let origins: Vec<u32> = {
        let n = net.truth.len();
        let step = (n / pool.min(n)).max(1);
        net.truth.asns().step_by(step).take(pool).map(|a| a.0).collect()
    };
    let start_one = |shard: Option<(u32, u32)>| {
        Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            cache_cap: 64,
            shard,
            source: TopologySource::Preloaded { graph: net.truth.clone(), tiers: tiers.clone() },
            ..ServeConfig::default()
        })
    };

    let origins = Arc::new(origins);
    let single = start_one(None)?;
    println!("pass 1/2: single process (1 worker) ...");
    let single_pass =
        run_pass(single.addr(), conc, requests, &origins, &Mode::Batch { size: batch })?;
    single.shutdown();

    let fleet: Vec<Server> =
        (0..shards).map(|i| start_one(Some((i, shards)))).collect::<Result<_, _>>()?;
    let router = Router::start(RouterConfig {
        addr: "127.0.0.1:0".into(),
        shard_addrs: fleet.iter().map(|s| s.addr().to_string()).collect(),
        probe_interval_ms: 0,
        ..RouterConfig::default()
    })
    .map_err(|e| format!("router failed to start: {e}"))?;
    println!("pass 2/2: router over {shards} shards (1 worker each) ...");
    let router_pass =
        run_pass(router.addr(), conc, requests, &origins, &Mode::Batch { size: batch })?;
    router.shutdown();
    for s in fleet {
        s.shutdown();
    }

    let single_qps = single_pass.qps() * batch as f64;
    let router_qps = router_pass.qps() * batch as f64;
    let ratio = router_qps / (single_qps).max(1e-9);
    let extra = format!(", \"origins_per_request\": {batch}");
    let report = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"flatnet-bench-router/v1\",\n",
            "  \"ases\": {ases},\n",
            "  \"seed\": {seed},\n",
            "  \"shards\": {shards},\n",
            "  \"cores\": {cores},\n",
            "  \"concurrency\": {conc},\n",
            "  \"pool\": {pool},\n",
            "  \"batch\": {batch},\n",
            "  \"passes\": {{\n{single_block},\n{router_block}\n  }},\n",
            "  \"single_origin_qps\": {single_qps:.1},\n",
            "  \"router_origin_qps\": {router_qps:.1},\n",
            "  \"router_vs_single\": {ratio:.2}\n",
            "}}\n",
        ),
        ases = ases,
        seed = seed,
        shards = shards,
        cores = cores,
        conc = conc,
        pool = pool,
        batch = batch,
        single_block = pass_block("single", &single_pass, &extra),
        router_block = pass_block("router", &router_pass, &extra),
        single_qps = single_qps,
        router_qps = router_qps,
        ratio = ratio,
    );
    std::fs::write(out, &report).map_err(|e| format!("cannot write {out}: {e}"))?;

    println!("single: {:.0} batch qps = {single_qps:.0} origins/s", single_pass.qps());
    println!(
        "router: {:.0} batch qps = {router_qps:.0} origins/s — {ratio:.2}x single \
         ({shards} shards, {cores} cores)",
        router_pass.qps(),
    );
    if cores <= shards as usize {
        println!(
            "note: only {cores} cores for {shards} shard processes + a client — the fleet \
             is time-sliced, not parallel; the ratio is not meaningful on this host"
        );
    }
    println!("report: {out}");
    Ok(())
}

fn flag_value<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let v = value.ok_or_else(|| format!("{flag} requires a value"))?;
    v.parse().map_err(|e| format!("bad value {v:?} for {flag}: {e}"))
}

/// Runs the serve load benchmark with CLI-style `args` (the `bench
/// serve` subcommand). Writes the JSON report and prints a summary.
pub fn run(args: &[String]) -> Result<(), String> {
    let mut ases: Option<usize> = None;
    let mut seed = 2020u64;
    let mut conc: Option<usize> = None;
    let mut requests: Option<usize> = None;
    let mut pool: Option<usize> = None;
    let mut workers = 0usize;
    let mut pipeline = 1usize;
    let mut batch: Option<usize> = None;
    let mut router: u32 = 0;
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--ases" => ases = Some(flag_value("--ases", it.next())?),
            "--seed" => seed = flag_value("--seed", it.next())?,
            "--conc" => conc = Some(flag_value("--conc", it.next())?),
            "--requests" => requests = Some(flag_value("--requests", it.next())?),
            "--pool" => pool = Some(flag_value("--pool", it.next())?),
            "--workers" => workers = flag_value("--workers", it.next())?,
            "--pipeline" => pipeline = flag_value("--pipeline", it.next())?,
            "--batch" => batch = Some(flag_value("--batch", it.next())?),
            "--router" => router = flag_value("--router", it.next())?,
            "--out" => out = Some(it.next().ok_or("--out requires a file path")?.clone()),
            "--help" | "-h" => {
                println!("usage: flatnet bench serve [--ases N] [--seed S] [--conc C]");
                println!("                           [--requests R] [--pool P] [--workers W]");
                println!("                           [--pipeline D] [--batch B] [--out PATH]");
                println!("                           [--router N]");
                println!("--ases N:     topology size (default 4000; 3000 with --router)");
                println!("--seed S:     generator seed (default 2020)");
                println!("--conc C:     concurrent closed-loop clients (default 8; 1 with");
                println!("              --router — a 1-worker shard serves one connection)");
                println!("--requests R: requests per pass across all clients (default 4000;");
                println!("              batch requests, default 24, with --router)");
                println!("--pool P:     distinct origins cycled through (default 64; 5 batches");
                println!("              worth with --router)");
                println!("--workers W:  server worker threads, 0 = all cores (default 0)");
                println!("--pipeline D: pipelined requests in flight on the keepalive pass (default 1)");
                println!("--batch B:    origins per batch request, 0 = pool size (default 0;");
                println!("              5 x 64 lanes x shards, capped at 1024, with --router)");
                println!("--router N:   compare an N-shard router fleet against one single-worker");
                println!("              process on the batch workload; writes a");
                println!("              flatnet-bench-router/v1 report (default BENCH_router.json)");
                return Ok(());
            }
            other => return Err(format!("unknown argument {other:?} (see --help)")),
        }
    }
    if router > 0 {
        // Router mode: batches span several 64-lane blocks per shard so
        // propagation compute dominates the fixed per-sub-request cost,
        // and the pool cycles disjoint batches so the tiny shard caches
        // never serve the answer.
        let batch = match batch {
            Some(0) | None => {
                (64 * 5 * router as usize).min(flatnet_serve::engine::MAX_BATCH_ORIGINS)
            }
            Some(b) => b,
        };
        let conc = conc.unwrap_or(1);
        let requests = requests.unwrap_or(24);
        let pool = pool.unwrap_or(batch * 5);
        if conc == 0 || requests == 0 || pool == 0 || batch == 0 {
            return Err("--conc, --requests, --pool, and --batch must be positive".into());
        }
        return run_router(
            router,
            ases.unwrap_or(3000),
            seed,
            conc,
            requests,
            pool,
            batch,
            out.as_deref().unwrap_or("BENCH_router.json"),
        );
    }
    let ases = ases.unwrap_or(4000);
    let conc = conc.unwrap_or(8);
    let requests = requests.unwrap_or(4000);
    let pool = pool.unwrap_or(64);
    let out = out.unwrap_or_else(|| "BENCH_serve.json".to_string());
    if conc == 0 || requests == 0 || pool == 0 || pipeline == 0 {
        return Err("--conc, --requests, --pool, and --pipeline must be positive".into());
    }
    let batch = match batch {
        Some(0) | None => pool,
        Some(b) => b,
    };

    // Generate once and hand the graph to the server pre-built, so the
    // bench process does not pay for generation twice.
    println!("# flatnet bench serve — {ases} ASes (seed {seed}), {conc} clients, {requests} requests/pass");
    let net = generate(&NetGenConfig::paper_2020(ases, seed));
    let tiers = net.tiers_for(&net.truth);
    let origins: Vec<u32> = {
        let n = net.truth.len();
        let step = (n / pool.min(n)).max(1);
        net.truth.asns().step_by(step).take(pool).map(|a| a.0).collect()
    };
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        source: TopologySource::Preloaded { graph: net.truth.clone(), tiers },
        ..ServeConfig::default()
    })?;
    let addr = server.addr();

    // Warm pass: every origin once, so steady state measures the cache.
    let t_warm = Instant::now();
    let warm_client = Client::new(addr.to_string(), Duration::from_secs(30));
    for &o in &origins {
        let status = warm_client
            .one_shot("GET", &format!("/v1/reachability?origin={o}"))
            .map_err(|e| format!("warmup query for AS{o}: {e}"))?
            .status;
        if status != 200 {
            server.shutdown();
            return Err(format!("warmup query for AS{o} failed with {status}"));
        }
    }
    let warm_ms = t_warm.elapsed().as_secs_f64() * 1e3;

    // The server runs in-process, so the global obs registry holds its
    // per-stage histograms; the delta across the load passes isolates
    // the stage breakdown to exactly the measured requests.
    let obs_before = flatnet_obs::snapshot();

    let origins = Arc::new(origins);
    println!("pass 1/3: close-per-request ...");
    let close = run_pass(addr, conc, requests, &origins, &Mode::Close)?;
    println!("pass 2/3: keep-alive (pipeline {pipeline}) ...");
    let keepalive =
        run_pass(addr, conc, requests, &origins, &Mode::KeepAlive { pipeline })?;
    println!("pass 3/3: batch ({batch} origins/request) ...");
    let batch_requests = (requests / batch).max(conc);
    let batch_pass =
        run_pass(addr, conc, batch_requests, &origins, &Mode::Batch { size: batch })?;
    let obs_delta = flatnet_obs::snapshot().delta_since(&obs_before);
    server.shutdown();

    // Server-side per-stage percentiles over the load passes, from the
    // `serve.stage_us{stage="..."}` histograms the trace layer feeds.
    let stage_block = ["queue_wait", "keepalive_idle", "cache_probe", "propagate", "write"]
        .iter()
        .map(|name| {
            let key = format!("serve.stage_us{{stage=\"{name}\"}}");
            let (p50, p90, p99) = obs_delta
                .histograms
                .get(&key)
                .map(|h| {
                    let pct = |p: f64| h.percentile_us(p).unwrap_or(0);
                    (pct(50.0), pct(90.0), pct(99.0))
                })
                .unwrap_or((0, 0, 0));
            format!("\"{name}\": {{ \"p50_us\": {p50}, \"p90_us\": {p90}, \"p99_us\": {p99} }}")
        })
        .collect::<Vec<_>>()
        .join(", ");

    // ---- Aggregate: the hit/miss latency split from the single-query
    // passes (batch bodies mix hits and misses per response). ----
    let singles: Vec<&Sample> = close.samples.iter().chain(&keepalive.samples).collect();
    let mut hit_us: Vec<u64> = singles.iter().filter(|s| s.cached).map(|s| s.us).collect();
    let mut miss_us: Vec<u64> =
        singles.iter().filter(|s| !s.cached && s.status == 200).map(|s| s.us).collect();
    hit_us.sort_unstable();
    miss_us.sort_unstable();
    let all: Vec<&Sample> =
        singles.iter().copied().chain(&batch_pass.samples).collect();
    let err_5xx = all.iter().filter(|s| s.status >= 500).count();
    let transport = all.iter().filter(|s| s.status == 0).count();
    let ratio = keepalive.qps() / close.qps().max(1e-9);
    // Batch throughput in origins (answers) per second, the comparable
    // unit against the single-query passes.
    let origin_qps = batch_pass.qps() * batch as f64;

    let batch_extra = format!(
        ", \"origins_per_request\": {batch}, \"origin_qps\": {origin_qps:.1}"
    );
    let report = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"flatnet-bench-serve/v1\",\n",
            "  \"ases\": {ases},\n",
            "  \"seed\": {seed},\n",
            "  \"concurrency\": {conc},\n",
            "  \"pool\": {pool},\n",
            "  \"pipeline\": {pipeline},\n",
            "  \"warmup_ms\": {warm_ms:.3},\n",
            "  \"passes\": {{\n{close_block},\n{keepalive_block},\n{batch_block}\n  }},\n",
            "  \"keepalive_vs_close\": {ratio:.2},\n",
            "  \"stages\": {{ {stages} }},\n",
            "  \"cache_hit\": {{ \"count\": {hitn}, \"p50_us\": {hit50}, \"p99_us\": {hit99} }},\n",
            "  \"cache_miss\": {{ \"count\": {missn}, \"p50_us\": {miss50}, \"p99_us\": {miss99} }},\n",
            "  \"status\": {{ \"err_5xx\": {e5}, \"transport\": {tr} }}\n",
            "}}\n",
        ),
        ases = ases,
        seed = seed,
        conc = conc,
        pool = pool,
        pipeline = pipeline,
        warm_ms = warm_ms,
        close_block = pass_block("close", &close, ""),
        keepalive_block = pass_block("keepalive", &keepalive, ""),
        batch_block = pass_block("batch", &batch_pass, &batch_extra),
        ratio = ratio,
        stages = stage_block,
        hitn = hit_us.len(),
        hit50 = percentile(&hit_us, 50),
        hit99 = percentile(&hit_us, 99),
        missn = miss_us.len(),
        miss50 = percentile(&miss_us, 50),
        miss99 = percentile(&miss_us, 99),
        e5 = err_5xx,
        tr = transport,
    );
    std::fs::write(&out, &report).map_err(|e| format!("cannot write {out}: {e}"))?;

    println!(
        "close:     {:.0} qps over {} connections",
        close.qps(),
        close.connections
    );
    println!(
        "keepalive: {:.0} qps over {} connections ({:.0} requests/conn) — {ratio:.2}x close",
        keepalive.qps(),
        keepalive.connections,
        keepalive.samples.len() as f64 / keepalive.connections.max(1) as f64,
    );
    println!(
        "batch:     {:.0} batch qps = {origin_qps:.0} origins/s ({batch} origins/request)",
        batch_pass.qps(),
    );
    println!(
        "cache: {} hits (p50 {} us) / {} misses (p50 {} us); {} 5xx, {} transport",
        hit_us.len(),
        percentile(&hit_us, 50),
        miss_us.len(),
        percentile(&miss_us, 50),
        err_5xx,
        transport
    );
    println!("report: {out}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_bench_run_writes_schema_tagged_report() {
        let dir = std::env::temp_dir().join("flatnet_servebench_test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("BENCH_serve.json");
        let args: Vec<String> = [
            "--ases", "300", "--seed", "3", "--conc", "2", "--requests", "60",
            "--pool", "8", "--workers", "2", "--pipeline", "2",
            "--out", out.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&args).expect("bench run");
        let report = std::fs::read_to_string(&out).unwrap();
        assert!(report.contains("\"schema\": \"flatnet-bench-serve/v1\""));
        for pass in ["\"close\":", "\"keepalive\":", "\"batch\":"] {
            assert!(report.contains(pass), "missing pass {pass}:\n{report}");
        }
        assert!(report.contains("\"keepalive_vs_close\":"), "{report}");
        assert!(report.contains("\"requests_per_conn\":"), "{report}");
        assert!(report.contains("\"origin_qps\":"), "{report}");
        assert!(report.contains("\"cache_hit\""));
        assert!(report.contains("\"err_5xx\": 0"), "5xx under closed-loop load:\n{report}");
        // The pool is warmed, so the close and keepalive passes are all
        // hits: 60 requests each, all 200.
        assert_eq!(report.matches("\"ok_200\": 60").count(), 2, "{report}");
        // The per-stage breakdown comes from the in-process obs delta.
        for stage in ["queue_wait", "keepalive_idle", "cache_probe", "propagate", "write"] {
            assert!(report.contains(&format!("\"{stage}\": {{ \"p50_us\": ")), "{report}");
        }
    }

    #[test]
    fn rejects_unknown_flags_and_zero_values() {
        assert!(run(&["--bogus".to_string()]).is_err());
        assert!(run(&["--conc".to_string(), "0".to_string()]).is_err());
    }

    #[test]
    fn router_bench_writes_schema_tagged_report() {
        let dir = std::env::temp_dir().join("flatnet_routerbench_test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("BENCH_router.json");
        // Tiny on purpose: this pins the report contract, not the
        // ratio — CI measures that at full size where it is meaningful.
        let args: Vec<String> = [
            "--router", "2", "--ases", "300", "--seed", "3", "--conc", "1",
            "--requests", "6", "--batch", "16", "--pool", "64",
            "--out", out.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&args).expect("router bench run");
        let report = std::fs::read_to_string(&out).unwrap();
        assert!(report.contains("\"schema\": \"flatnet-bench-router/v1\""), "{report}");
        assert!(report.contains("\"shards\": 2"), "{report}");
        assert!(report.contains("\"cores\": "), "{report}");
        for field in
            ["\"single\":", "\"router\":", "\"router_vs_single\":", "\"router_origin_qps\":"]
        {
            assert!(report.contains(field), "missing {field}:\n{report}");
        }
        // Both passes answered everything: 6 batch requests each, no
        // 5xx and no transport failures.
        assert_eq!(report.matches("\"ok_200\": 6").count(), 2, "{report}");
        assert!(report.contains("\"err_5xx\": 0"), "{report}");
    }
}
