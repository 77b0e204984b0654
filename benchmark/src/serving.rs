//! Set-up, verification and measurement of the three serving workloads
//! (`hot`, `cold`, `fleet`): real daemons and a real router, in this
//! process, reached over loopback sockets.

use crate::client::{get_request, Client};
use crate::metrics::Metrics;
use crate::ops::{Plan, CLIENTS};
use crate::replay;
use crate::trace::Trace;
use crate::window::{run_window, Caller, OpDone, Window};
use crate::world::{ms_since, Reference, World};
use crate::{report_window, Opts, Outcome, Workload};
use flatnet_obs::Snapshot;
use flatnet_router::{Router, RouterConfig};
use flatnet_serve::{ServeConfig, Server, TopologySource};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Worker threads of the lone daemon (`hot`, `cold`): one per client
/// connection, since a worker is bound to its connection for life.
const DAEMON_WORKERS: usize = 2;
/// Worker threads of each `fleet` shard: the router's pooled upstreams,
/// its health prober and the harness's direct probes each hold one.
const SHARD_WORKERS: usize = 4;
const SHARDS: usize = 2;
/// Ops replayed and checked against the reference before each window.
const VERIFY_OPS: usize = 256;
/// Ops per client whose spans go into the trace file, and ops pushed
/// through the layer replay.
pub const TRACED_OPS: usize = 512;

/// A running system under test and what its set-up measured.
pub struct System {
    pub world: World,
    pub plan: Plan,
    /// Body length of every table row once cached (fixed-length plans).
    pub expect_len: Vec<u32>,
    servers: Vec<Server>,
    router: Option<Router>,
    /// Where the clients connect: the daemon, or the router.
    pub addr: SocketAddr,
    /// The daemons themselves (the shards on `fleet`).
    pub daemon_addrs: Vec<SocketAddr>,
    pub store_path: PathBuf,
    /// The reference, when set-up had to build it (`fleet` writes the
    /// store from it).
    reference: Option<Reference>,
    pub setup_s: f64,
    pub start_cold_ms: f64,
    pub start_warm_ms: f64,
    pub store_save_ms: f64,
}

fn daemon_config(
    as_rel: &Path,
    store: &Path,
    workers: usize,
    shard: Option<(u32, u32)>,
) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        store: Some(store.display().to_string()),
        shard,
        source: TopologySource::CaidaFile {
            path: as_rel.display().to_string(),
            tier1: Vec::new(),
            tier2: Vec::new(),
            lenient: false,
        },
        // cache_cap 4096, lane_width Auto, keepalive_max 1024: the
        // shipped defaults are the configuration under test.
        ..ServeConfig::default()
    }
}

/// Sends `requests` over `CLIENTS` connections in parallel, failing on
/// the first response that is not a 200. Returns each body's length.
fn fetch_all(addr: SocketAddr, requests: &[&[u8]]) -> Result<Vec<u32>, String> {
    let chunk = requests.len().div_ceil(CLIENTS).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut client = Client::new(addr);
                    part.iter()
                        .map(|req| {
                            let ex = client
                                .exchange(req)
                                .map_err(|e| format!("set-up request: {e}"))?;
                            if ex.status != 200 {
                                let body = String::from_utf8_lossy(client.body()).into_owned();
                                return Err(format!(
                                    "set-up request answered {}: {body:.300}",
                                    ex.status
                                ));
                            }
                            Ok(client.body().len() as u32)
                        })
                        .collect::<Result<Vec<u32>, String>>()
                })
            })
            .collect();
        let mut lengths = Vec::with_capacity(requests.len());
        for h in handles {
            lengths.extend(h.join().expect("set-up client panicked")?);
        }
        Ok(lengths)
    })
}

impl System {
    /// Brings the workload's system up from nothing: topology, as-rel
    /// file, daemon(s) and router, warm cache. Timed as `setup_s`.
    pub fn start(workload: Workload, opts: &Opts, dir: &Path) -> Result<System, String> {
        let t = Instant::now();
        let world = World::generate(opts.ases, opts.seed, dir).map_err(|e| e.to_string())?;
        let store_path = dir.join("snapshot.store");
        let (mut start_cold_ms, mut start_warm_ms, mut store_save_ms) = (0.0, 0.0, 0.0);
        let mut reference = None;
        let mut servers = Vec::new();
        let mut router = None;
        let start = |cfg: ServeConfig| Server::start(cfg).map_err(|e| format!("daemon start: {e}"));

        let plan = match workload {
            Workload::Fleet => {
                // The shards warm-start from one store file, which set-up
                // writes the way `flatnet serve --store` would have.
                let r = Reference::load(&world.as_rel_path)?;
                let ts = Instant::now();
                flatnet_store::save_atomic(&store_path, &r.snap).map_err(|e| e.to_string())?;
                store_save_ms = ms_since(ts);
                reference = Some(r);
                for i in 0..SHARDS {
                    let ts = Instant::now();
                    let shard = Some((i as u32, SHARDS as u32));
                    servers.push(start(daemon_config(
                        &world.as_rel_path,
                        &store_path,
                        SHARD_WORKERS,
                        shard,
                    ))?);
                    start_warm_ms += ms_since(ts) / SHARDS as f64;
                }
                router = Some(
                    Router::start(RouterConfig {
                        addr: "127.0.0.1:0".into(),
                        shard_addrs: servers.iter().map(|s| s.addr().to_string()).collect(),
                        ..RouterConfig::default()
                    })
                    .map_err(|e| format!("router start: {e}"))?,
                );
                Plan::fleet(&world, opts.seed)
            }
            _ => {
                let ts = Instant::now();
                servers.push(start(daemon_config(
                    &world.as_rel_path,
                    &store_path,
                    DAEMON_WORKERS,
                    None,
                ))?);
                start_cold_ms = ms_since(ts);
                if workload == Workload::Hot {
                    Plan::hot(&world, opts.seed)
                } else {
                    Plan::cold(&world, opts.seed)
                }
            }
        };
        let addr = router.as_ref().map_or(servers[0].addr(), Router::addr);

        let mut expect_len = Vec::new();
        if plan.fixed_lengths {
            let warm = Plan::prewarm_requests(&world, workload == Workload::Hot);
            fetch_all(addr, &warm.iter().map(Vec::as_slice).collect::<Vec<_>>())?;
            // Every row once more, now from cache: its body length is
            // what the window checks against.
            let rows: Vec<&[u8]> = plan.table.iter().map(|p| p.bytes.as_slice()).collect();
            expect_len = fetch_all(addr, &rows)?;
        }
        Ok(System {
            daemon_addrs: servers.iter().map(Server::addr).collect(),
            world,
            plan,
            expect_len,
            servers,
            router,
            addr,
            store_path,
            reference,
            setup_s: t.elapsed().as_secs_f64(),
            start_cold_ms,
            start_warm_ms,
            store_save_ms,
        })
    }

    /// Stops the router and the daemons and joins their threads.
    pub fn shutdown(self) {
        if let Some(router) = self.router {
            router.shutdown();
        }
        for server in self.servers {
            server.shutdown();
        }
    }

    /// One closed-loop caller per client connection over this system's
    /// plan. In the window only status, framing and body length are
    /// checked; the answers were verified before it.
    fn callers(&self) -> Vec<Caller<'_>> {
        (0..CLIENTS)
            .map(|c| {
                let schedule = &self.plan.schedules[c];
                let mut client = Client::new(self.addr);
                let caller: Caller<'_> = Box::new(move |i| {
                    let row = schedule[i % schedule.len()] as usize;
                    let prepared = &self.plan.table[row];
                    let ex = client
                        .exchange(&prepared.bytes)
                        .map_err(|e| format!("transport: {e}"))?;
                    let body = client.body();
                    if ex.status != 200 {
                        return Err(format!(
                            "status {} for {}",
                            ex.status,
                            prepared.request.target()
                        ));
                    }
                    let framed = match self.expect_len.get(row) {
                        Some(&len) => body.len() == len as usize,
                        None => {
                            body.starts_with(b"{\"schema\":\"flatnet-serve/v1\"")
                                && body.ends_with(b"}\n")
                        }
                    };
                    if !framed {
                        return Err(format!(
                            "body of {} bytes for {}",
                            body.len(),
                            prepared.request.target()
                        ));
                    }
                    Ok(OpDone {
                        kind: prepared.kind,
                        bytes: body.len() as u64,
                        origins: prepared.request.origins() as u64,
                        io: Some((ex.written, ex.first_byte)),
                        dialed: ex.dialed,
                    })
                });
                caller
            })
            .collect()
    }

    /// Runs the clients against the system for `seconds`. The clients'
    /// connections close when the window ends, which frees the daemon
    /// workers for the next phase.
    pub fn window(&self, seconds: f64, keep_spans: usize) -> Window {
        let w = run_window(self.callers(), seconds, keep_spans);
        // A worker notices its client's close on its next read; give it
        // a moment before anyone else needs a worker.
        std::thread::sleep(Duration::from_millis(30));
        w
    }

    /// Replays the first ops of client 0 and compares every answer with
    /// the reference (and, on `fleet`, with a lone daemon's body).
    /// Returns `(checked, mismatches)`.
    fn verify(&self, reference: &mut Reference, lone: Option<SocketAddr>) -> (u64, Vec<String>) {
        let mut client = Client::new(self.addr);
        let mut lone_client = lone.map(Client::new);
        let mut mismatches = Vec::new();
        let ops = VERIFY_OPS.min(self.plan.schedules[0].len());
        for &row in &self.plan.schedules[0][..ops] {
            let prepared = &self.plan.table[row as usize];
            let result = (|| {
                let ex = client
                    .exchange(&prepared.bytes)
                    .map_err(|e| format!("transport: {e}"))?;
                if ex.status != 200 {
                    return Err(format!("status {}", ex.status));
                }
                prepared.request.check(reference, client.body())?;
                if let Some(lone_client) = lone_client.as_mut() {
                    lone_client
                        .exchange(&prepared.bytes)
                        .map_err(|e| format!("lone daemon: {e}"))?;
                    if normalize(client.body()) != normalize(lone_client.body()) {
                        return Err("router body differs from a lone daemon's".into());
                    }
                }
                Ok(())
            })();
            if let Err(e) = result {
                mismatches.push(format!("{}: {e}", prepared.request.target()));
            }
        }
        (ops as u64, mismatches)
    }
}

/// A response body with the two members that legitimately differ
/// between two daemons blanked: the trace id and the `cached` flags.
pub fn normalize(body: &[u8]) -> String {
    let mut text = String::from_utf8_lossy(body).into_owned();
    if let Some(at) = text.find("\"trace_id\":\"") {
        let from = at + "\"trace_id\":\"".len();
        if let Some(len) = text[from..].find('"') {
            text.replace_range(from..from + len, "");
        }
    }
    text.replace("\"cached\":true", "\"cached\":_")
        .replace("\"cached\":false", "\"cached\":_")
}

/// `GET /metrics` from a daemon: the process's obs snapshot.
fn scrape(addr: SocketAddr) -> Result<Snapshot, String> {
    let mut client = Client::new(addr);
    let ex = client
        .exchange(&get_request("/metrics"))
        .map_err(|e| format!("scrape: {e}"))?;
    if ex.status != 200 {
        return Err(format!("scrape answered {}", ex.status));
    }
    Snapshot::from_json(&String::from_utf8_lossy(client.body()))
}

/// Turns the `/metrics` delta over a window into the scraped per-layer
/// metrics. On `fleet` both shards and the router share this process's
/// registry, so the figures are sums over the fleet.
fn scraped_metrics(delta: &Snapshot, window: &Window, workers: usize, m: &mut Metrics) {
    let counter = |name: &str| delta.counters.get(name).copied().unwrap_or(0) as f64;
    let stage = |name: &str| {
        delta
            .histograms
            .get(&format!("serve.stage_us{{stage=\"{name}\"}}"))
            .map_or((0.0, 0.0), |h| (h.sum_us as f64, h.count() as f64))
    };
    let mut handling_us = 0.0;
    for name in [
        "queue_wait",
        "parse",
        "cache_probe",
        "propagate",
        "serialize",
        "write",
        "keepalive_idle",
    ] {
        let (sum, count) = stage(name);
        m.set(
            &format!("serve.stage.{name}_us"),
            if count > 0.0 { sum / count } else { 0.0 },
        );
        if !matches!(name, "queue_wait" | "keepalive_idle") {
            handling_us += sum;
        }
    }
    m.set(
        "serve.propagate_share",
        stage("propagate").0 / handling_us.max(1.0),
    );
    // A worker's busy counter covers the whole life of its connection;
    // the part spent parked between requests is the keep-alive idle stage.
    let bound_us: f64 = delta
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("serve.worker_busy_us"))
        .map(|(_, &v)| v as f64)
        .sum();
    let worked_us = (bound_us - stage("keepalive_idle").0).max(0.0);
    m.set(
        "serve.worker_busy_share",
        worked_us / (workers as f64 * window.seconds * 1e6),
    );
    let (hit, miss) = (counter("serve.cache_hit"), counter("serve.cache_miss"));
    m.set("serve.cache_hit_ratio", hit / (hit + miss).max(1.0));
    let kops = window.kops().max(1e-9);
    m.set(
        "serve.cache_evictions_per_kop",
        counter("serve.cache_evictions") / kops,
    );
    m.set(
        "serve.connections_per_kop",
        counter("serve.connections") / kops,
    );
    // What `bgpsim` did for the window's requests: scalar runs plus kernel
    // blocks (0 where every answer came from cache).
    m.set(
        "bgpsim.runs_per_kop",
        (counter("propagate.runs") + counter("propagate.kernel_blocks")) / kops,
    );
    m.set("serve.queue_rejected", counter("serve.queue_rejected"));
    m.set("serve.http_5xx", counter("serve.http_5xx"));
    let (reuse, connects) = (
        counter("router.upstream_reuse"),
        counter("router.upstream_connects"),
    );
    m.set(
        "router.upstream_reuse_ratio",
        if reuse + connects > 0.0 {
            reuse / (reuse + connects)
        } else {
            0.0
        },
    );
    m.set("router.scatters_per_kop", counter("router.scatter") / kops);
    m.set("router.partials", counter("router.partial"));
}

/// Runs one serving workload end to end.
pub fn run(workload: Workload, opts: &Opts) -> Result<Outcome, String> {
    let mut system = System::start(workload, opts, &opts.scratch)?;

    let mut reference = match system.reference.take() {
        Some(r) => r,
        None => Reference::load(&system.world.as_rel_path)?,
    };
    reference.corrupt = opts.inject_wrong_expected;

    // Verification. On `fleet` a lone daemon, warm-started from the same
    // store, answers the same requests for a byte comparison; it is gone
    // before the warm-up.
    let lone = match workload {
        Workload::Fleet => Some(
            Server::start(daemon_config(
                &system.world.as_rel_path,
                &system.store_path,
                DAEMON_WORKERS,
                None,
            ))
            .map_err(|e| format!("lone daemon: {e}"))?,
        ),
        _ => None,
    };
    let (verified, mismatches) = system.verify(&mut reference, lone.as_ref().map(Server::addr));
    if let Some(lone) = lone {
        lone.shutdown();
    }

    let mut out = Outcome::new(verified, &mismatches);
    let warmup = system.window(opts.warmup_s, 0);
    out.absorb_failures(&warmup);

    let workers = if workload == Workload::Fleet {
        SHARDS * SHARD_WORKERS
    } else {
        DAEMON_WORKERS
    };
    if !opts.trace {
        let w = system.window(opts.seconds, 0);
        out.absorb_failures(&w);
        report_window(&w, system.setup_s, &mut out.metrics);
        Outcome::print_window(workload, "measured window (tracing off)", &w);
    } else {
        // Two thirds of the time untraced, one third traced: their ratio
        // is what tracing costs.
        let untraced = system.window(opts.seconds * 2.0 / 3.0, 0);
        out.absorb_failures(&untraced);
        report_window(&untraced, system.setup_s, &mut out.metrics);
        Outcome::print_window(workload, "untraced window", &untraced);
        let before = scrape(system.daemon_addrs[0])?;
        let traced = system.window(opts.seconds / 3.0, TRACED_OPS);
        let after = scrape(system.daemon_addrs[0])?;
        out.absorb_failures(&traced);
        Outcome::print_window(workload, "traced window", &traced);

        let m = &mut out.metrics;
        crate::report_traced_window(&traced, &untraced, m);
        scraped_metrics(&after.delta_since(&before), &traced, workers, m);
        reference.report_setup_layers(&system.world, m);
        m.set("serve.start_cold_ms", system.start_cold_ms);
        m.set("serve.start_warm_ms", system.start_warm_ms);

        let mut trace = Trace::new();
        crate::client_spans(&traced, &mut trace);
        let replayed_us = replay::serving(workload, &system, &reference, opts.seed, &mut trace, m)?;
        if system.store_save_ms > 0.0 {
            m.set("store.save_ms", system.store_save_ms);
        }
        m.set(
            "trace.reconcile_ratio",
            replayed_us / traced.mean_latency_us().max(1e-9),
        );
        out.reconcile_line(workload, &traced, replayed_us);
        let path = opts.out_dir.join(format!("trace-{}.json", workload.name()));
        trace
            .write_json(&path, workload.name(), opts.seed)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace: {} spans -> {}", trace.spans.len(), path.display());
    }
    system.shutdown();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::normalize;

    #[test]
    fn normalize_blanks_only_trace_id_and_cached() {
        let a = br#"{"schema":"flatnet-serve/v1","trace_id":"00000000000000aa","data":{"reachable":5,"cached":true}}"#;
        let b = br#"{"schema":"flatnet-serve/v1","trace_id":"00000000000000bb","data":{"reachable":5,"cached":false}}"#;
        let c = br#"{"schema":"flatnet-serve/v1","trace_id":"00000000000000bb","data":{"reachable":6,"cached":false}}"#;
        assert_eq!(normalize(a), normalize(b));
        assert_ne!(normalize(a), normalize(c));
    }
}
