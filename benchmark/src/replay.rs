//! Layer replay: the first ops of a workload's input are pushed through
//! each layer's public functions in this process, one span per call, so
//! that every layer has a cost of its own to set against the end-to-end
//! latency. Also the micro-measurements of layers an op does not isolate
//! (kernel widths, store, obs).
//!
//! The replay is tied to the live system: every replayed op is first sent
//! to it, the `data` the replay wraps and writes is the system's own, the
//! body the replay rebuilds must equal the system's (apart from the trace
//! id), and a single's reach count must be the one the system answered.
//! When the daemon's body shape, envelope or solve path changes, the
//! replay fails instead of timing an imitation.

use crate::client::Client;
use crate::metrics::Metrics;
use crate::ops::{Kind, Request};
use crate::serving::{normalize, System, TRACED_OPS};
use crate::stats::{median, Rng};
use crate::trace::Trace;
use crate::world::{ms_since, Reference, HIERARCHY_FREE, LOCKS};
use crate::Workload;
use flatnet_asgraph::NodeId;
use flatnet_bgpsim::{
    reliance, LaneWidth, LeakScenario, LeakSim, NextHopDag, PropagationConfig, Simulation,
    Workspace,
};
use flatnet_router::{merge, HashRing, Upstream};
use flatnet_serve::http::{read_request, BodyProducer, Response};
use flatnet_serve::{json, policy_fingerprint, CacheKey, ResultCache};
use std::hint::black_box;
use std::io::{BufReader, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Endpoint discriminants for the replay's own cache keys: any two
/// distinct values time the same probe.
const EP_REACHABILITY: u8 = 1;
const EP_RELIANCE: u8 = 2;

/// Mean of the values, 0 for none.
fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A loopback socket whose far end reads and discards, for timing
/// `Response::write_to` against a real socket.
struct SocketSink {
    stream: TcpStream,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl SocketSink {
    fn open() -> Result<SocketSink, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let stream = TcpStream::connect(listener.local_addr().map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        stream.set_nodelay(true).ok();
        let (mut far, _) = listener.accept().map_err(|e| e.to_string())?;
        let drain = std::thread::spawn(move || {
            let mut buf = vec![0u8; 64 * 1024];
            while matches!(far.read(&mut buf), Ok(n) if n > 0) {}
        });
        Ok(SocketSink {
            stream,
            drain: Some(drain),
        })
    }
}

impl Drop for SocketSink {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// Per-layer samples gathered over the replayed ops, in ns.
#[derive(Default)]
struct LayerSamples {
    http_parse: Vec<f64>,
    cache_get: Vec<f64>,
    cache_put: Vec<f64>,
    probe_many_per_key: Vec<f64>,
    json_parse: Vec<f64>,
    envelope: Vec<f64>,
    write_small: Vec<f64>,
    write_full: Vec<f64>,
    ring_owner: Vec<f64>,
    merge: Vec<f64>,
    upstream_rtt: Vec<f64>,
    relay_full: Vec<f64>,
}

/// The spans of one replayed op: every layer call is timed under the
/// op's root span and added to the op's layer total.
struct OpTrace<'t> {
    trace: &'t mut Trace,
    op: u32,
    root: u32,
    started: Instant,
    layers_ns: f64,
}

impl<'t> OpTrace<'t> {
    fn begin(trace: &'t mut Trace, op: u32) -> OpTrace<'t> {
        let started = Instant::now();
        // The root's end is filled in by `finish`.
        let root = trace.record(op, "replay.op", None, started, started);
        OpTrace {
            trace,
            op,
            root,
            started,
            layers_ns: 0.0,
        }
    }

    /// Times one layer call; returns its result and its time in ns.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let (out, ns) = self.trace.time(self.op, name, Some(self.root), f);
        self.layers_ns += ns;
        (out, ns)
    }

    /// Closes the root span; returns the op's summed layer time in µs.
    fn finish(self) -> f64 {
        let root = &mut self.trace.spans[self.root as usize];
        root.end_ns = root.start_ns + self.started.elapsed().as_nanos() as u64;
        self.layers_ns / 1e3
    }
}

/// Writes a response to the sink socket, timed as `serve.write`.
fn write(t: &mut OpTrace<'_>, sink: &SocketSink, response: Response) -> Result<f64, String> {
    let (written, ns) = t.time("serve.write", || response.write_to(&mut &sink.stream));
    written.map_err(|e| format!("replay: writing to the sink socket: {e}"))?;
    Ok(ns)
}

/// The `data` member of a body the live system answered.
fn data_of(real: &str) -> Result<&str, String> {
    merge::envelope_data(real).ok_or_else(|| format!("replay: no data in {real:.200}"))
}

/// Fails unless `rebuilt` is the body the live system answered, apart
/// from the trace id and the `cached` flags.
fn same_body(what: &str, rebuilt: &str, real: &str) -> Result<(), String> {
    if normalize(rebuilt.as_bytes()) == normalize(real.as_bytes()) {
        Ok(())
    } else {
        Err(format!(
            "replay: the {what} rebuilt from public functions is no longer the system's body:\n\
             {rebuilt:.300}\n{real:.300}"
        ))
    }
}

/// The worker's last two steps: wrap the system's own `data` in the
/// envelope — which must give the system's body back — and write the
/// response to the socket.
fn respond(
    t: &mut OpTrace<'_>,
    sink: &SocketSink,
    data: &str,
    real: &str,
    s: &mut LayerSamples,
) -> Result<(), String> {
    let (body, ns) = t.time("serve.envelope", || json::envelope(1, 1, data));
    s.envelope.push(ns);
    same_body("envelope", &body, real)?;
    s.write_small
        .push(write(t, sink, Response::json(200, body))?);
    Ok(())
}

/// Replays the first [`TRACED_OPS`] ops of client 0 layer by layer and
/// fills in the replayed per-layer metrics. Returns the mean, per op, of
/// the summed layer times in µs — the figure `trace.reconcile_ratio`
/// compares with the mean end-to-end latency.
pub fn serving(
    workload: Workload,
    system: &System,
    reference: &Reference,
    seed: u64,
    trace: &mut Trace,
    m: &mut Metrics,
) -> Result<f64, String> {
    let fleet = workload == Workload::Fleet;
    let (g, topo) = (reference.graph(), &reference.snap.topo);
    let n_nodes = g.len();

    // The cache as the daemon holds it: a warm plan finds every key.
    let cache: ResultCache<Vec<u64>> = ResultCache::new(4096);
    let key_of = |origin: u32, ep: u8, bits: u8| CacheKey {
        version: 1,
        origin,
        fingerprint: policy_fingerprint(ep, bits as u64),
    };
    if system.plan.fixed_lengths {
        for p in &system.plan.table {
            match &p.request {
                Request::Reach { origin, bits, .. } => cache.put(
                    key_of(*origin, EP_REACHABILITY, *bits),
                    Arc::new(vec![0; n_nodes.div_ceil(64)]),
                ),
                Request::Reliance { origin } => {
                    cache.put(key_of(*origin, EP_RELIANCE, 0), Arc::new(vec![0; 64]))
                }
                _ => {}
            }
        }
    }

    let sink = SocketSink::open()?;
    let mut live = Client::new(system.addr);
    let ring = HashRing::new(system.daemon_addrs.len() as u32);
    let upstreams: Vec<Upstream> = system
        .daemon_addrs
        .iter()
        .map(|a| Upstream::new(a.to_string(), Duration::from_secs(10)))
        .collect();
    let upstream_get = |shard: usize, target: &str| {
        upstreams[shard]
            .request("GET", target, None, 1)
            .map_err(|e| format!("replay upstream: {e}"))
    };
    let mut ws = Workspace::for_snapshot(topo);
    let mut cfg = PropagationConfig::default();
    let lanes = Simulation::over(topo).threads(1);
    let mut s = LayerSamples::default();
    let mut per_op_us = Vec::new();

    for (i, &row) in system.plan.schedules[0].iter().take(TRACED_OPS).enumerate() {
        let prepared = &system.plan.table[row as usize];
        let ex = live
            .exchange(&prepared.bytes)
            .map_err(|e| format!("replay: asking the live system: {e}"))?;
        if ex.status != 200 {
            return Err(format!(
                "replay: the live system answered {} for {}",
                ex.status,
                prepared.request.target()
            ));
        }
        let real = String::from_utf8_lossy(live.body()).into_owned();
        let mut t = OpTrace::begin(trace, i as u32);

        let (parsed, ns) = t.time("serve.http_parse", || {
            read_request(&mut BufReader::new(&prepared.bytes[..]))
        });
        if !matches!(parsed, Ok(Some(_))) {
            return Err(format!(
                "replay: the daemon's parser rejects {}",
                prepared.request.target()
            ));
        }
        s.http_parse.push(ns);

        match &prepared.request {
            Request::Reach { origin, full, .. } if fleet => {
                // The router's part of a single: find the owner, forward,
                // pass the shard's body through.
                let (owner, ns) = t.time("router.ring_owner", || ring.owner(*origin));
                s.ring_owner.push(ns);
                let target = prepared.request.target();
                let name = if *full {
                    "router.relay_full"
                } else {
                    "router.upstream_rtt"
                };
                let (resp, ns) = t.time(name, || upstream_get(owner as usize, &target));
                (if *full {
                    &mut s.relay_full
                } else {
                    &mut s.upstream_rtt
                })
                .push(ns);
                let body = resp?.body;
                same_body("relayed shard body", &body, &real)?;
                write(&mut t, &sink, Response::json(200, body))?;
            }
            Request::Reach { origin, bits, full } => {
                let node = reference.node(*origin)?;
                let key = key_of(*origin, EP_REACHABILITY, *bits);
                let (hit, ns) = t.time("serve.cache_get", || cache.get(&key));
                s.cache_get.push(ns);
                let data = data_of(&real)?;
                if hit.is_none() || *full {
                    let mask = reference.exclusion_mask(node, *bits);
                    t.time("bgpsim.scalar_run", || {
                        cfg.excluded_mask_mut(n_nodes).copy_from_slice(&mask);
                        ws.run(topo, node, &cfg);
                    });
                    if merge::member_u64(data, "reachable") != Some(ws.reachable_count() as u64) {
                        return Err(format!(
                            "replay: Workspace::run reaches {} ASes from AS{origin}, the system answered {data:.200}",
                            ws.reachable_count()
                        ));
                    }
                    let value = Arc::new(ws.reach_words().to_vec());
                    let (_, ns) = t.time("serve.cache_put", || cache.put(key, value));
                    s.cache_put.push(ns);
                }
                if !*full {
                    respond(&mut t, &sink, data, &real, &mut s)?;
                } else {
                    // The daemon streams the head of `data` and then one
                    // ASN at a time; so does this, from the system's text.
                    let (head, asns) = data
                        .split_once("\"reach\":[")
                        .ok_or("replay: a detail=full answer has no reach array")?;
                    let (head, asns) = (format!("{head}\"reach\":["), asns.to_string());
                    let producer: BodyProducer = Box::new(move |sink| {
                        sink.push(&json::envelope_prefix(1, 1))?;
                        sink.push(&head)?;
                        for piece in asns.split_inclusive(',') {
                            sink.push(piece)?;
                        }
                        sink.push("}\n")
                    });
                    s.write_full
                        .push(write(&mut t, &sink, Response::stream(200, producer))?);
                }
            }
            Request::ReachBatch { origins, bits } if fleet => {
                // Scatter: one sub-request per owning shard. They are sent
                // one after the other here; the router overlaps them, so
                // only the slowest counts towards the op.
                let mut groups: Vec<Vec<(usize, u32)>> = vec![Vec::new(); upstreams.len()];
                let (_, ns) = t.time("router.ring_owner", || {
                    for (pos, &o) in origins.iter().enumerate() {
                        groups[ring.owner(o) as usize].push((pos, o));
                    }
                });
                s.ring_owner.push(ns / origins.len() as f64);
                let groups: Vec<(usize, Vec<(usize, u32)>)> = groups
                    .into_iter()
                    .enumerate()
                    .filter(|(_, g)| !g.is_empty())
                    .collect();
                let mut bodies = Vec::new();
                let (mut total, mut slowest) = (0.0, 0.0f64);
                for (shard, group) in &groups {
                    let target = Request::ReachBatch {
                        origins: group.iter().map(|&(_, o)| o).collect(),
                        bits: *bits,
                    }
                    .target();
                    let (resp, ns) =
                        t.time("router.upstream_rtt", || upstream_get(*shard, &target));
                    bodies.push(resp?.body);
                    s.upstream_rtt.push(ns);
                    total += ns;
                    slowest = slowest.max(ns);
                }
                t.layers_ns -= total - slowest;
                // Gather: every shard's entries go back to the positions
                // their origins had in the request.
                let (merged, ns) = t.time("router.merge", || -> Result<String, String> {
                    let mut slots = vec![""; origins.len()];
                    for (body, (_, group)) in bodies.iter().zip(&groups) {
                        let data = merge::envelope_data(body).ok_or("shard body has no data")?;
                        let results =
                            merge::member(data, "results").ok_or("shard body has no results")?;
                        for (&(pos, _), entry) in group.iter().zip(merge::array_items(results)?) {
                            slots[pos] = entry;
                        }
                    }
                    let template =
                        merge::envelope_data(&bodies[0]).ok_or("shard body has no data")?;
                    merge::rebuild_batch_data(template, &slots.join(","), slots.len())
                });
                s.merge.push(ns);
                respond(&mut t, &sink, &merged?, &real, &mut s)?;
            }
            Request::ReachBatch { origins, bits } => {
                let keys: Vec<CacheKey> = origins
                    .iter()
                    .map(|&o| key_of(o, EP_REACHABILITY, *bits))
                    .collect();
                let (probes, ns) = t.time("serve.cache_probe_many", || cache.probe_many(&keys));
                s.probe_many_per_key.push(ns / keys.len() as f64);
                let misses: Vec<NodeId> = origins
                    .iter()
                    .zip(&probes)
                    .filter(|(_, p)| p.is_none())
                    .map(|(&o, _)| reference.node(o))
                    .collect::<Result<_, _>>()?;
                let (reach, _) = t.time("bgpsim.lane_sweep", || {
                    lanes.run_sweep_reach_with(&misses, |o, ex| ex.allow(o))
                });
                let (_, ns) = t.time("serve.cache_put", || {
                    for k in 0..reach.len() {
                        let key = key_of(g.asn(reach.origin(k)).0, EP_REACHABILITY, *bits);
                        cache.put(key, Arc::new(reach.reach_words(k).to_vec()));
                    }
                });
                s.cache_put.push(ns / reach.len().max(1) as f64);
                respond(&mut t, &sink, data_of(&real)?, &real, &mut s)?;
            }
            Request::Reliance { origin } => {
                let key = key_of(*origin, EP_RELIANCE, 0);
                let (hit, ns) = t.time("serve.cache_get", || cache.get(&key));
                s.cache_get.push(ns);
                if hit.is_none() {
                    let node = reference.node(*origin)?;
                    t.time("bgpsim.reliance", || {
                        cfg.excluded_mask_mut(n_nodes).fill(false);
                        ws.run(topo, node, &cfg);
                        black_box(reliance(&NextHopDag::build(g, &cfg, &ws.to_outcome())));
                    });
                    let (_, ns) =
                        t.time("serve.cache_put", || cache.put(key, Arc::new(vec![0; 64])));
                    s.cache_put.push(ns);
                }
                respond(&mut t, &sink, data_of(&real)?, &real, &mut s)?;
            }
            Request::Leak {
                victim,
                leakers,
                lock,
                seed,
            } => {
                let post = prepared.request.post_body().expect("a leak op has a body");
                let (doc, ns) = t.time("serve.json_parse", || json::parse(&post));
                doc.map_err(|e| format!("replay: the daemon's JSON reader rejects {post}: {e}"))?;
                s.json_parse.push(ns);
                let (cdf, _) = t.time("core.leak_cdf", || {
                    reference.leak(*victim, *leakers, LOCKS[*lock].1, *seed)
                });
                cdf?;
                respond(&mut t, &sink, data_of(&real)?, &real, &mut s)?;
            }
        }
        per_op_us.push(t.finish());
    }
    drop(sink);

    m.set("serve.http_parse_ns", mean(&s.http_parse));
    m.set("serve.cache_get_ns", mean(&s.cache_get));
    m.set("serve.cache_put_ns", mean(&s.cache_put));
    m.set(
        "serve.cache_probe_many_ns_per_key",
        mean(&s.probe_many_per_key),
    );
    m.set("serve.json_parse_ns", mean(&s.json_parse));
    m.set("serve.envelope_ns", mean(&s.envelope));
    m.set("serve.write_small_ns", mean(&s.write_small));
    m.set("serve.write_full_us", mean(&s.write_full) / 1e3);
    if fleet {
        m.set("router.ring_owner_ns", mean(&s.ring_owner));
        m.set("router.merge_us", mean(&s.merge) / 1e3);
        m.set("router.upstream_rtt_us", mean(&s.upstream_rtt) / 1e3);
        m.set("router.relay_full_us", mean(&s.relay_full) / 1e3);
        m.set("router.overhead_us", router_overhead_us(system)?);
    }
    store_layers(system, reference, m)?;
    obs_layers(m);
    if workload == Workload::Cold {
        bgpsim_layers(reference, &system.world.asns, seed, m)?;
    }
    Ok(mean(&per_op_us))
}

/// Router latency minus direct-to-shard latency for the same cached
/// single, medians over alternating probes.
fn router_overhead_us(system: &System) -> Result<f64, String> {
    let ring = HashRing::new(system.daemon_addrs.len() as u32);
    let Some(prepared) = system.plan.table.iter().find(|p| p.kind == Kind::Single) else {
        return Ok(0.0);
    };
    let Request::Reach { origin, .. } = prepared.request else {
        return Ok(0.0);
    };
    let mut via_router = crate::client::Client::new(system.addr);
    let mut direct = crate::client::Client::new(system.daemon_addrs[ring.owner(origin) as usize]);
    let (mut routed_us, mut direct_us) = (Vec::new(), Vec::new());
    for _ in 0..200 {
        for (client, out) in [
            (&mut via_router, &mut routed_us),
            (&mut direct, &mut direct_us),
        ] {
            let ex = client
                .exchange(&prepared.bytes)
                .map_err(|e| format!("overhead probe: {e}"))?;
            out.push((ex.end - ex.start).as_nanos() as f64 / 1e3);
        }
    }
    Ok(median(&mut routed_us) - median(&mut direct_us))
}

/// `store.*`: save, load and deep-verify the reference snapshot through
/// the store's public functions.
fn store_layers(system: &System, reference: &Reference, m: &mut Metrics) -> Result<(), String> {
    let path = system.store_path.with_extension("replay");
    let t = Instant::now();
    flatnet_store::save_atomic(&path, &reference.snap).map_err(|e| e.to_string())?;
    m.set("store.save_ms", ms_since(t));
    let t = Instant::now();
    black_box(flatnet_store::load(&path).map_err(|e| e.to_string())?);
    m.set("store.load_ms", ms_since(t));
    let t = Instant::now();
    let report = flatnet_store::verify(&path, true).map_err(|e| e.to_string())?;
    m.set("store.verify_ms", ms_since(t));
    m.set("store.bytes", report.file_bytes as f64);
    Ok(())
}

/// `obs.*`: what one histogram record and one `/metrics` rendering cost.
pub fn obs_layers(m: &mut Metrics) {
    const RECORDS: u64 = 200_000;
    let h = flatnet_obs::Histogram::new();
    let t = Instant::now();
    for i in 0..RECORDS {
        h.record_us_tagged(black_box(i % 5000), i, 15169);
    }
    m.set(
        "obs.histogram_record_ns",
        t.elapsed().as_nanos() as f64 / RECORDS as f64,
    );
    let mut renders: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(flatnet_obs::snapshot().to_json());
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    m.set("obs.metrics_render_us", median(&mut renders));
}

fn timed_ns<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_nanos() as f64
}

/// `bgpsim.*`: the scalar engine, the lane kernel at two widths and two
/// exclusion regimes, reliance and leaks — each on the same seeded
/// origins, single-threaded, median of three.
pub fn bgpsim_layers(
    reference: &Reference,
    asns: &[u32],
    seed: u64,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut rng = Rng::new(seed, 0xB695);
    let mut pick = |n: usize| -> Result<Vec<NodeId>, String> {
        (0..n)
            .map(|_| reference.node(asns[rng.below(asns.len())]))
            .collect()
    };
    let (dense_origins, hfree_origins, scalar_origins) = (pick(512)?, pick(2048)?, pick(64)?);
    let topo = &reference.snap.topo;
    let g = &reference.snap.graph;
    let n = g.len();
    let counter =
        |s: &flatnet_obs::Snapshot, name: &str| s.counters.get(name).copied().unwrap_or(0) as f64;

    // Scalar engine, with the work counters the engine itself keeps.
    let mut ws = Workspace::for_snapshot(topo);
    let mut cfg = PropagationConfig::default();
    for (metric, bits) in [
        ("bgpsim.scalar_full_us", 0),
        ("bgpsim.scalar_hfree_us", HIERARCHY_FREE),
    ] {
        let before = flatnet_obs::snapshot();
        let mut times = Vec::new();
        for &o in &scalar_origins {
            let mask = reference.exclusion_mask(o, bits);
            times.push(timed_ns(|| {
                cfg.excluded_mask_mut(n).copy_from_slice(&mask);
                ws.run(topo, o, &cfg);
            }));
        }
        m.set(metric, mean(&times) / 1e3);
        if bits == 0 {
            let after = flatnet_obs::snapshot();
            let runs =
                (counter(&after, "propagate.runs") - counter(&before, "propagate.runs")).max(1.0);
            for (metric, name) in [
                ("bgpsim.dijkstra_pops_per_run", "propagate.dijkstra_pops"),
                ("bgpsim.export_checks_per_run", "propagate.export_checks"),
            ] {
                m.set(
                    metric,
                    (counter(&after, name) - counter(&before, name)) / runs,
                );
            }
        }
    }

    // Lane kernel.
    let median3 = |f: &dyn Fn() -> f64| median(&mut [f(), f(), f()]);
    let auto = Simulation::over(topo).threads(1);
    let narrow = Simulation::over(topo).threads(1).lane_width(LaneWidth::W64);
    let before = flatnet_obs::snapshot();
    let dense_ns = median3(&|| timed_ns(|| auto.run_sweep_reach_counts(&dense_origins)));
    let after = flatnet_obs::snapshot();
    let blocks = (counter(&after, "propagate.kernel_blocks")
        - counter(&before, "propagate.kernel_blocks"))
    .max(1.0);
    m.set(
        "bgpsim.kernel_rounds_per_block",
        (counter(&after, "propagate.kernel_rounds") - counter(&before, "propagate.kernel_rounds"))
            / blocks,
    );
    m.set(
        "bgpsim.kernel_dense_ns_per_origin",
        dense_ns / dense_origins.len() as f64,
    );
    let blocks_per_run = dense_origins.len().div_ceil(LaneWidth::Auto.lanes()) as f64;
    m.set(
        "bgpsim.kernel_dense_ns_per_edge",
        dense_ns / blocks_per_run / topo.edge_entries() as f64,
    );
    let dense64_ns = median3(&|| timed_ns(|| narrow.run_sweep_reach_counts(&dense_origins)));
    m.set(
        "bgpsim.kernel_dense64_ns_per_origin",
        dense64_ns / dense_origins.len() as f64,
    );
    let with_sets_ns = median3(&|| timed_ns(|| auto.run_sweep_reach(&dense_origins)));
    m.set(
        "bgpsim.materialize_ns_per_origin",
        (with_sets_ns - dense_ns).max(0.0) / dense_origins.len() as f64,
    );

    let mut tier_mask = vec![false; n];
    for &t in reference
        .tiers()
        .tier1()
        .iter()
        .chain(reference.tiers().tier2())
    {
        tier_mask[t.idx()] = true;
    }
    let hfree = Simulation::over(topo).threads(1).excluded(tier_mask);
    let hfree_ns = median3(&|| {
        timed_ns(|| {
            hfree.run_sweep_reach_counts_with(&hfree_origins, |o, ex| {
                for &p in g.providers(o) {
                    ex.exclude(p);
                }
                ex.allow(o);
            })
        })
    });
    m.set(
        "bgpsim.kernel_hfree_ns_per_origin",
        hfree_ns / hfree_origins.len() as f64,
    );

    // DAG consumers.
    cfg.excluded_mask_mut(n).fill(false);
    let reliance_ns: Vec<f64> = scalar_origins[..16]
        .iter()
        .map(|&o| {
            timed_ns(|| {
                ws.run(topo, o, &cfg);
                reliance(&NextHopDag::build(g, &cfg, &ws.to_outcome()))
            })
        })
        .collect();
    m.set("bgpsim.reliance_us", mean(&reliance_ns) / 1e3);
    let mut sim = LeakSim::new(topo);
    let leak_ns: Vec<f64> = scalar_origins[..32]
        .chunks(2)
        .map(|pair| timed_ns(|| sim.fraction(&LeakScenario::simple(pair[0], pair[1]), None)))
        .collect();
    m.set("bgpsim.leak_us_per_leaker", mean(&leak_ns) / 1e3);
    Ok(())
}
