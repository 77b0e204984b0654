//! The query engine: a fixed pool of stateless workers, a bounded queue
//! with backpressure, per-request deadlines, and the endpoint handlers
//! themselves.
//!
//! Every buffer a solve computes on — the scalar context (a `Workspace`
//! and the `PropagationConfig` it runs under) of a single miss, the
//! reliance kernel and its ranking buffer, the lane workspaces of an
//! `origins=` batch, the leak simulators' contexts of
//! `/v1/whatif/leak` — is checked out of the pools on the snapshot's
//! graph (DESIGN.md § Scratch ownership) for the request and
//! returned after it, so a steady-state miss of any kind allocates its
//! answer and its response and nothing else, `scratch_bytes` counts all
//! of it, and a hot-reload frees the old snapshot's scratch with it.
//! Snapshots arrive per-request via `Arc` (see
//! `crate::snapshot::SnapshotManager`); a worker keeps nothing across
//! requests.
//!
//! A worker holds one connection at a time for that connection's whole
//! life: a connection whose first request waited out its deadline in the
//! queue is answered `503 deadline` here, every other one runs
//! [`Front::serve_connection`] — the keep-alive loop the router runs too
//! — with the endpoints below as its [`Handler`]. A route that panics
//! drops the buffers it had checked out instead of returning them.
//!
//! Every `/v1` response, success or failure, wears the same envelope:
//! `{"schema":…,"snapshot_version":…,"trace_id":…,"data":{…}}` on
//! success and `…,"error":{"kind":…,"message":…}}` on failure (error
//! envelopes are shared by every endpoint); `kind` strings mirror
//! `crate::error::ServeError::kind` labels where the failure is the
//! server's, and name the request defect otherwise. The three `/v1`
//! handlers solve first, then hand their answers to one emitter,
//! `emit_data`, which writes the `data` object — a single answer's
//! fields flat, a batch as `"batch":N,"results":[…]` — while each
//! handler writes only its own entry's fields; `respond` wraps it in
//! the envelope, streamed for `detail=full`.

use crate::answer::{Answer, RELIANCE_TOP_MAX};
use crate::cache::{policy_fingerprint, CacheKey, ResultCache};
use crate::front::{error_response, Front, Handler, Limits};
use crate::http::{parse_asn, Method, Request, Response};
use crate::json::{envelope_prefix, escape, Json, Num};
use crate::server::ServeConfig;
use crate::snapshot::{ServeSnapshot, SnapshotManager};
use flatnet_asgraph::{AsId, NodeId};
use flatnet_bgpsim::{Exclusion, ExclusionPolicy, LaneWidth, ReachForm, ReachSet, Sets, Simulation};
use flatnet_core::leaks::{leak_cdf, Announce, Locking};
use flatnet_obs::trace::{Stage, TraceCtx};
use std::collections::{HashMap, VecDeque};
use std::fmt::{self, Write as _};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The two cached analyses; the discriminant is the endpoint byte of
/// the cache fingerprint.
#[derive(Clone, Copy)]
enum Endpoint {
    Reachability = 1,
    Reliance = 2,
}

/// Cap on origins per batch query (4 kernel blocks at 256-lane width,
/// 16 at the narrowest).
pub const MAX_BATCH_ORIGINS: usize = 1024;

/// Cap on what-if leak queries per batch body (each one is a full
/// leak-CDF sweep).
pub(crate) const MAX_LEAK_QUERIES: usize = 64;

/// One accepted connection waiting for a worker, carrying the trace
/// context allocated at accept time (so queue wait is part of the
/// trace, not invisible pre-history).
pub(crate) struct Job {
    pub(crate) stream: TcpStream,
    pub(crate) accepted: Instant,
    pub(crate) trace: TraceCtx,
}

/// A request-level failure, rendered into the error envelope by the
/// dispatcher (which knows the snapshot version and trace id).
struct ApiError {
    status: u16,
    kind: &'static str,
    message: String,
    retry_after: Option<u32>,
}

impl ApiError {
    fn new(status: u16, kind: &'static str, message: impl Into<String>) -> Self {
        ApiError { status, kind, message: message.into(), retry_after: None }
    }

    fn bad_request(message: impl Into<String>) -> Self {
        ApiError::new(400, "bad-request", message)
    }

    fn not_found(message: impl Into<String>) -> Self {
        ApiError::new(404, "not-found", message)
    }

    fn unprocessable(message: impl Into<String>) -> Self {
        ApiError::new(422, "unprocessable", message)
    }

    fn into_response(self, version: u64, trace_id: u64) -> Response {
        let mut resp = error_response(self.status, self.kind, &self.message, version, trace_id);
        resp.retry_after = self.retry_after;
        resp
    }
}

/// Everything the accept loop and the workers share.
pub(crate) struct Shared {
    pub(crate) mgr: SnapshotManager,
    pub(crate) cache: ResultCache<Answer>,
    /// The connection loop the workers run, with its counters and ring.
    pub(crate) front: Front,
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
    queue_cap: usize,
    /// Read budget of a request, for a first request counted from accept.
    deadline: Duration,
    pub(crate) workers: usize,
    rejected: flatnet_obs::Counter,
    expired: flatnet_obs::Counter,
    /// Reach answers cached, by the form their set took
    /// (`ReachForm as usize`): the traffic mix the three forms serve.
    cache_put_form: [flatnet_obs::Counter; 3],
    queue_depth: flatnet_obs::Gauge,
    /// Idle pooled scratch of the current snapshot, read when one of the
    /// endpoints that report it is asked (`/healthz`, `/metrics`).
    scratch_bytes: flatnet_obs::Gauge,
    /// Per-worker busy-time counters (µs handling requests): each
    /// worker's utilization, read off `/metrics`.
    busy_us: Vec<flatnet_obs::Counter>,
    /// How many top-degree origins to pre-warm after load/reload; 0 = off.
    warm: usize,
    warmed: flatnet_obs::Counter,
    /// `(id, count)` when this process is one shard of a routed layout;
    /// rendered in `/healthz` so the process can identify itself.
    shard: Option<(u32, u32)>,
}

/// Trace-ring slots per request-handling thread (the workers and the
/// accept thread); `/debug/trace/recent` can see at most `workers + 1`
/// times this many events.
const TRACE_RING_CAP: usize = 256;

impl Shared {
    /// The daemon's shared state for `workers` workers under `cfg`.
    pub(crate) fn new(mgr: SnapshotManager, cfg: &ServeConfig, workers: usize) -> Self {
        let reg = flatnet_obs::global();
        let deadline = Duration::from_millis(cfg.deadline_ms.max(1));
        // The io timeout caps how long a stalled client can pin a worker
        // inside the deadline; 0 leaves the deadline alone.
        let io_timeout = (cfg.io_timeout_ms > 0).then(|| Duration::from_millis(cfg.io_timeout_ms));
        let limits = Limits {
            read_timeout: io_timeout.map_or(deadline, |io| io.min(deadline)),
            write_timeout: io_timeout.unwrap_or(deadline),
            keepalive_max: cfg.keepalive_max,
            keepalive_idle: Duration::from_millis(cfg.keepalive_idle_ms),
        };
        Shared {
            mgr,
            cache: ResultCache::weighted(cfg.cache_cap, Answer::retained_bytes),
            front: Front::new("serve", limits, (workers + 1) * TRACE_RING_CAP),
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            queue_cap: cfg.queue_cap,
            deadline,
            workers,
            rejected: reg.counter("serve.queue_rejected"),
            expired: reg.counter("serve.deadline_expired"),
            cache_put_form: ReachForm::ALL
                .map(|f| reg.counter(&format!("serve.cache_put{{form=\"{}\"}}", f.name()))),
            queue_depth: reg.gauge("serve.queue_depth"),
            scratch_bytes: reg.gauge("serve.scratch_bytes"),
            busy_us: (0..workers)
                .map(|i| reg.counter(&format!("serve.worker_busy_us{{worker=\"{i}\"}}")))
                .collect(),
            warm: cfg.warm,
            warmed: reg.counter("serve.cache_warmed"),
            shard: cfg.shard,
        }
    }

    /// Reads the current snapshot's pooled scratch (every buffer a solve
    /// computes on, at capacity) into the `serve.scratch_bytes` gauge.
    fn refresh_scratch_bytes(&self) -> usize {
        let bytes = flatnet_bgpsim::scratch_bytes(&self.mgr.current().graph);
        self.scratch_bytes.set(bytes as i64);
        bytes
    }

    /// Locks the job queue. A `VecDeque` push or pop leaves it valid at
    /// every step, so a lock poisoned by a panicking holder is safe to
    /// keep using: one panic must not take the accept thread and every
    /// worker's next pop down with it.
    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<Job>> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Hands an accepted connection to the pool, or answers
    /// `503 + Retry-After` right here when the queue is full —
    /// backpressure must not itself consume a worker. Allocates the
    /// request's trace context; rejected requests are traced too.
    pub(crate) fn submit(&self, stream: TcpStream) {
        let accepted = Instant::now();
        let mut trace = TraceCtx::new(self.front.tracer.next_id());
        let mut q = self.lock_queue();
        if q.len() >= self.queue_cap {
            drop(q);
            self.rejected.inc();
            trace.set_tag("rejected");
            let version = self.mgr.current().version;
            let mut resp =
                error_response(503, "queue-full", "request queue full", version, trace.id());
            resp.retry_after = Some(1);
            let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
            self.front.finish(&stream, resp, &mut trace);
            return;
        }
        q.push_back(Job { stream, accepted, trace });
        self.queue_depth.set(q.len() as i64);
        drop(q);
        self.ready.notify_one();
    }

    /// Flags shutdown, wakes the accept loop and every parked worker.
    /// Queued jobs are still drained before workers exit.
    pub(crate) fn begin_shutdown(&self) {
        self.front.stop();
        self.ready.notify_all();
    }
}

/// Spawns the background cache warm-up for one snapshot version (a no-op
/// when warming is configured off).
///
/// The "serve-warm" thread resolves the configured number of
/// highest-degree origins through [`resolve`] under the default policy
/// (no exclusions), one kernel block's worth at a time — so warming 1024
/// origins on AVX2 hardware is 4 lane sweeps — and the first client query
/// for a popular origin after startup or a hot-reload is a cache hit.
/// The thread bails between blocks if the daemon shuts down or the
/// snapshot version moves on, and it only ever *adds* entries for its
/// own version, so it can never resurrect stale answers.
pub(crate) fn spawn_warmup(shared: &Arc<Shared>, snap: Arc<ServeSnapshot>) {
    let top_n = shared.warm;
    if top_n == 0 {
        return;
    }
    let shared = Arc::clone(shared);
    let spawned = std::thread::Builder::new().name("serve-warm".into()).spawn(move || {
        let g = &snap.graph;
        let mut by_degree: Vec<NodeId> = g.nodes().collect();
        by_degree.sort_by_key(|&n| (std::cmp::Reverse(g.degree(n)), n.0));
        by_degree.truncate(top_n);
        let origins: Vec<(u32, NodeId)> = by_degree.iter().map(|&n| (g.asn(n).0, n)).collect();
        // Stage marks of a warm-up belong to no request; never recorded.
        let mut trace = TraceCtx::new(0);
        for block in origins.chunks(LaneWidth::Auto.lanes()) {
            if shared.front.stopping() || shared.mgr.current().version != snap.version {
                return;
            }
            let none = ExclusionPolicy::NONE;
            let solved = resolve(&shared, &snap, Endpoint::Reachability, none, block, &mut trace);
            if let Err(e) = solved {
                flatnet_obs::warn!("cache warm-up stopped: {}", e.message);
                return;
            }
            shared.warmed.add(block.len() as u64);
        }
    });
    if let Err(e) = spawned {
        flatnet_obs::warn!("cannot spawn cache warm-up thread: {e}");
    }
}

/// The worker thread body: pop a connection, serve every request on it
/// (keep-alive), loop. Returns when shutdown is flagged *and* the queue
/// is empty, so accepted requests are never dropped by a clean shutdown.
/// `worker` is this thread's index, naming its utilization counter.
pub(crate) fn worker_loop(shared: Arc<Shared>, worker: usize) {
    loop {
        let job = {
            let mut q = shared.lock_queue();
            loop {
                if let Some(j) = q.pop_front() {
                    shared.queue_depth.set(q.len() as i64);
                    break Some(j);
                }
                if shared.front.stopping() {
                    break None;
                }
                q = shared.ready.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(job) = job else { return };
        let started = Instant::now();
        handle_conn(&shared, job);
        shared.busy_us[worker].add(started.elapsed().as_micros() as u64);
    }
}

/// Serves one dequeued connection: a first request that expired in the
/// queue is answered `503 deadline` without reading it; otherwise the
/// front's connection loop runs the endpoints, with the first request's
/// read budget what the deadline left.
fn handle_conn(shared: &Arc<Shared>, job: Job) {
    let Job { stream, accepted, mut trace } = job;
    trace.mark(Stage::QueueWait);
    let budget = shared.deadline.saturating_sub(accepted.elapsed());
    if budget.is_zero() {
        shared.front.connections.inc();
        shared.front.requests.inc();
        shared.expired.inc();
        trace.set_tag("expired");
        let version = shared.mgr.current().version;
        let mut resp =
            error_response(503, "deadline", "deadline expired while queued", version, trace.id());
        resp.retry_after = Some(1);
        shared.front.finish(&stream, resp, &mut trace);
        return;
    }
    shared.front.serve_connection(&stream, trace, budget, &mut &*shared);
}

/// The endpoints, as a worker's connection loop calls them.
impl Handler for &Arc<Shared> {
    fn route(&mut self, req: &Request, trace: &mut TraceCtx) -> Response {
        route(self, req, trace).unwrap_or_else(|e| e.into_response(self.version(), trace.id()))
    }

    fn version(&self) -> u64 {
        self.mgr.current().version
    }
}

// ---------------------------------------------------------------------
// Routing and endpoint handlers (the HTTP front's dispatch table).
// ---------------------------------------------------------------------

fn route(shared: &Arc<Shared>, req: &Request, trace: &mut TraceCtx) -> Result<Response, ApiError> {
    match (req.method, req.path.as_str()) {
        (Method::Get, "/v1/reachability") => {
            trace.set_tag("reachability");
            reachability(shared, req, trace)
        }
        (Method::Get, "/v1/reliance") => {
            trace.set_tag("reliance");
            reliance_endpoint(shared, req, trace)
        }
        (Method::Post, "/v1/whatif/leak") => {
            trace.set_tag("whatif_leak");
            let resp = whatif_leak(shared, req, trace);
            trace.mark(Stage::Propagate); // leak sweep is all compute
            resp
        }
        (Method::Get, "/healthz") => {
            trace.set_tag("healthz");
            Ok(healthz(shared))
        }
        (Method::Get, "/metrics") => {
            trace.set_tag("metrics");
            shared.refresh_scratch_bytes();
            metrics(req)
        }
        (Method::Get, path @ ("/debug/trace/recent" | "/debug/trace/slow")) => {
            trace.set_tag(if path.ends_with("slow") { "trace_slow" } else { "trace_recent" });
            shared.front.trace_dump(req).map_err(ApiError::bad_request)
        }
        (Method::Get, "/debug/panic") => {
            // Deliberate: exercises the worker panic-isolation path
            // end-to-end (tests, drills). The front's connection loop
            // turns this into a traced 500.
            trace.set_tag("panic");
            panic!("debug-panic endpoint hit");
        }
        (Method::Post, "/admin/reload") => {
            trace.set_tag("reload");
            let resp = admin_reload(shared);
            trace.mark(Stage::Propagate); // reload rebuilds the snapshot
            resp
        }
        (Method::Post, "/admin/shutdown") => {
            trace.set_tag("shutdown");
            Ok(admin_shutdown(shared))
        }
        (
            _,
            "/v1/reachability" | "/v1/reliance" | "/v1/whatif/leak" | "/healthz" | "/metrics"
            | "/debug/trace/recent" | "/debug/trace/slow" | "/debug/panic" | "/admin/reload"
            | "/admin/shutdown",
        ) => Err(ApiError::new(405, "method", "method not allowed for this path")),
        _ => Err(ApiError::not_found("no such endpoint")),
    }
}

/// `GET /metrics[?format=prom]` — the obs snapshot as the canonical JSON
/// document, or as the Prometheus text exposition.
fn metrics(req: &Request) -> Result<Response, ApiError> {
    match req.query_param("format") {
        Some("prom") => Ok(Response::text(
            200,
            flatnet_obs::to_prometheus(&flatnet_obs::snapshot()),
            flatnet_obs::prom::CONTENT_TYPE,
        )),
        Some("json") | None => Ok(Response::json(200, flatnet_obs::snapshot().to_json())),
        Some(other) => Err(ApiError::bad_request(format!("bad format {other:?} (want json|prom)"))),
    }
}

/// Collects the query's origin list: `origins=a,b,c` (canonical batch
/// form) and/or `origin=a` (single alias; also accepts a comma list),
/// every ASN resolved against the snapshot. Returns the resolved list
/// plus whether the response should use the batch shape (`origins=`
/// present, or more than one origin).
fn parse_origins(
    snap: &ServeSnapshot,
    req: &Request,
) -> Result<(Vec<(u32, NodeId)>, bool), ApiError> {
    let (raw, plural) = req.origin_tokens();
    if raw.is_empty() {
        return Err(ApiError::bad_request(
            "missing required query parameter 'origins' (or 'origin')",
        ));
    }
    if raw.len() > MAX_BATCH_ORIGINS {
        return Err(ApiError::bad_request(format!(
            "too many origins ({} > {MAX_BATCH_ORIGINS})",
            raw.len()
        )));
    }
    let mut out = Vec::with_capacity(raw.len());
    for r in raw {
        let asn = parse_asn(r).ok_or_else(|| {
            ApiError::bad_request(format!("bad origin {r:?} (want an AS number)"))
        })?;
        let node = snap
            .graph
            .index_of(AsId(asn))
            .ok_or_else(|| ApiError::not_found(format!("AS{asn} is not in the topology")))?;
        out.push((asn, node));
    }
    let batch = plural || out.len() > 1;
    Ok((out, batch))
}

/// The `exclude=` tokens and the policy bit each one sets.
const EXCLUDE_TOKENS: [(&str, u64); 3] = [("providers", 1), ("tier1", 2), ("tier2", 4)];

/// Parses `exclude=providers,tier1,tier2` into the exclusion policy
/// (same semantics on every endpoint that accepts it).
fn parse_exclude(req: &Request) -> Result<ExclusionPolicy, ApiError> {
    let mut bits = 0u64;
    for token in req.query_param("exclude").unwrap_or("").split(',').filter(|t| !t.is_empty()) {
        let Some((_, bit)) = EXCLUDE_TOKENS.iter().find(|(name, _)| *name == token) else {
            return Err(ApiError::bad_request(format!(
                "unknown exclude token {token:?} (want providers|tier1|tier2)"
            )));
        };
        bits |= bit;
    }
    Ok(ExclusionPolicy::from_bits(bits))
}

/// `detail=full|summary`; absent means `summary`.
fn parse_detail(req: &Request) -> Result<bool, ApiError> {
    match req.query_param("detail") {
        Some("full") => Ok(true),
        Some("summary") | None => Ok(false),
        Some(other) => {
            Err(ApiError::bad_request(format!("bad detail {other:?} (want full|summary)")))
        }
    }
}

fn exclude_names(policy: ExclusionPolicy) -> String {
    let set = EXCLUDE_TOKENS.iter().filter(|(_, bit)| policy.bits() & bit != 0);
    set.map(|(name, _)| format!("\"{name}\"")).collect::<Vec<_>>().join(",")
}

/// The one solve path behind `/v1/reachability`, `/v1/reliance` and the
/// cache warm-up, and the only code that builds an [`Answer`]: probe
/// every origin's key, solve each distinct missing origin once, cache
/// what was solved. Returns one `(answer, cached)` per origin in request
/// order, where `cached` means "was in the cache when this request
/// probed" — a repeated origin reports one value at every occurrence.
///
/// A single is a batch of one; the engine is chosen from what is
/// observable here. Exactly one reachability miss runs on a scalar
/// context checked out of the snapshot's pool (no steady-state
/// allocation — the cold-single fast path); more run as one lane sweep,
/// tier exclusions broadcast once per block, the origin's providers per
/// lane. Reliance needs distances, so the misses take one scalar context
/// and each a run plus the reliance kernel, which also ranks the
/// answer's top pairs in its own buffer. All three read the rule from one
/// [`Exclusion`], which keeps single, batch and warmed answers
/// bit-identical. Marks `cache_probe` after the probes and `propagate`
/// after the solves (only when something was solved).
fn resolve(
    shared: &Shared,
    snap: &ServeSnapshot,
    endpoint: Endpoint,
    policy: ExclusionPolicy,
    origins: &[(u32, NodeId)],
    trace: &mut TraceCtx,
) -> Result<Vec<(Arc<Answer>, bool)>, ApiError> {
    let fingerprint = policy_fingerprint(endpoint as u8, policy.bits());
    let key = |asn: u32| CacheKey { version: snap.version, origin: asn, fingerprint };
    let keys: Vec<CacheKey> = origins.iter().map(|&(asn, _)| key(asn)).collect();
    let probes = match keys.as_slice() {
        [one] => vec![shared.cache.get(one)],
        many => shared.cache.probe_many(many),
    };
    trace.mark(Stage::CacheProbe);
    trace.set_cached(probes.iter().all(Option::is_some));

    // Distinct missing origins in first-occurrence order; every origin
    // is either its hit or the slot of its miss.
    let mut misses: Vec<(u32, NodeId)> = Vec::new();
    let mut miss_slot: HashMap<NodeId, usize> = HashMap::new();
    let pending: Vec<Result<Arc<Answer>, usize>> = origins
        .iter()
        .zip(probes)
        .map(|(&(asn, node), probe)| {
            probe.ok_or_else(|| {
                *miss_slot.entry(node).or_insert_with(|| {
                    misses.push((asn, node));
                    misses.len() - 1
                })
            })
        })
        .collect();

    let mut solved: Vec<Arc<Answer>> = Vec::with_capacity(misses.len());
    if !misses.is_empty() {
        let excl = Exclusion::new(&snap.graph, &snap.tiers, policy)
            .map_err(|e| ApiError::new(500, "internal", e.to_string()))?;
        let n = snap.graph.len();
        match (endpoint, misses.as_slice()) {
            (Endpoint::Reachability, &[(_, node)]) => {
                let mut ctx = Simulation::over(&snap.graph).ctx();
                excl.fill_scalar(node, ctx.config_mut().excluded_mask_mut(n));
                let ws = ctx.run(node);
                let set = ReachSet::from_words(ws.reach_words(), n);
                solved.push(Arc::new(Answer::Reach { set, reached: ws.reachable_count() }));
            }
            (Endpoint::Reachability, _) => {
                let nodes: Vec<NodeId> = misses.iter().map(|&(_, node)| node).collect();
                let swept = Simulation::over(&snap.graph)
                    .threads(1)
                    .config(excl.shared_config())
                    .sweep(&nodes, |o, ex| excl.fill_lane(o, ex), Sets)
                    .map_err(|e| ApiError::new(500, "internal", e.to_string()))?;
                // The sweep's per-origin sets become the answers as they are.
                solved.extend(swept.kept.into_iter().zip(swept.counts).map(|(set, reached)| {
                    Arc::new(Answer::Reach { set, reached: reached as usize })
                }));
            }
            (Endpoint::Reliance, _) => {
                let mut ctx = Simulation::over(&snap.graph).ctx();
                for &(_, node) in &misses {
                    excl.fill_scalar(node, ctx.config_mut().excluded_mask_mut(n));
                    let rely = ctx.run_reliance(node);
                    let receivers = rely.scores()[node.idx()];
                    // Nodes are numbered in ascending ASN order, so ranking
                    // by node index ranked by ASN; only the survivors are
                    // looked up.
                    let top = rely.top(RELIANCE_TOP_MAX);
                    let top = top.iter().map(|&(i, s)| (snap.graph.asn(NodeId(i)).0, s)).collect();
                    solved.push(Arc::new(Answer::Reliance { receivers, top }));
                }
            }
        }
        trace.mark(Stage::Propagate);
        for (&(asn, _), answer) in misses.iter().zip(&solved) {
            if let Answer::Reach { set, .. } = &**answer {
                shared.cache_put_form[set.form() as usize].inc();
            }
            shared.cache.put(key(asn), Arc::clone(answer));
        }
    }

    Ok(pending
        .into_iter()
        .map(|p| match p {
            Ok(hit) => (hit, true),
            Err(slot) => (Arc::clone(&solved[slot]), false),
        })
        .collect())
}

/// Where rendered response text goes: the response `String`, or a
/// chunked stream through `Chunks`.
type Emit<'a> = &'a mut dyn fmt::Write;

/// A chunked response body as a [`fmt::Write`] target; keeps the
/// socket error a write met, which `fmt::Error` cannot carry.
struct Chunks<'a, 'b> {
    sink: &'a mut crate::http::ChunkSink<'b>,
    failed: Option<std::io::Error>,
}

impl fmt::Write for Chunks<'_, '_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.sink.push(s).map_err(|e| {
            self.failed = Some(e);
            fmt::Error
        })
    }
}

/// Wraps the `data` object `render` writes in the success envelope: one
/// `String`, or with `stream` chunked frames, so a large graph never
/// materializes a multi-MB `detail=full` body.
fn respond(
    version: u64,
    trace_id: u64,
    stream: bool,
    render: impl FnOnce(Emit<'_>) -> fmt::Result + Send + 'static,
) -> Response {
    let mut body = envelope_prefix(version, trace_id);
    if !stream {
        render(&mut body).expect("writing to a String cannot fail");
        body.push_str("}\n");
        return Response::json(200, body);
    }
    Response::stream(
        200,
        Box::new(move |sink| {
            sink.push(&body)?;
            let mut out = Chunks { sink, failed: None };
            render(&mut out).map_err(|_| {
                out.failed.take().unwrap_or_else(|| std::io::Error::other("render failed"))
            })?;
            out.sink.push("}\n")
        }),
    )
}

/// The one writer of a `/v1` endpoint's `data` object: `{"endpoint":E`,
/// the `exclude` list when the endpoint takes one, then for a batch
/// `"batch":N,"results":[{…},…]}` with one object per item, or for a
/// single answer that item's fields spliced flat. `entry` writes one
/// item's fields (no braces) to `out`.
fn emit_data<T>(
    endpoint: &str,
    exclude: Option<ExclusionPolicy>,
    items: &[T],
    batch: bool,
    out: Emit<'_>,
    mut entry: impl FnMut(&T, Emit<'_>) -> fmt::Result,
) -> fmt::Result {
    write!(out, "{{\"endpoint\":\"{endpoint}\",")?;
    if let Some(policy) = exclude {
        write!(out, "\"exclude\":[{}],", exclude_names(policy))?;
    }
    if batch {
        write!(out, "\"batch\":{},\"results\":[", items.len())?;
    }
    for (i, item) in items.iter().enumerate() {
        if batch {
            out.write_str(if i > 0 { ",{" } else { "{" })?;
        }
        entry(item, &mut *out)?;
        if batch {
            out.write_str("}")?;
        }
    }
    out.write_str(if batch { "]}" } else { "}" })
}

/// Writes one origin's sorted reach-set ASNs as a JSON array body (no
/// brackets), straight off the set: an [`flatnet_asgraph::AsGraph`]
/// numbers its nodes in ascending ASN order (`index_of` is a binary search
/// over that table), so walking the set upwards already is the sorted
/// order, and neither the list nor its text is ever materialized. Each
/// number is formatted into a local buffer and handed to `out` in one
/// write: a stream pays per write, and a full answer is one per AS.
fn emit_reach_asns(
    snap: &ServeSnapshot,
    node: NodeId,
    set: &ReachSet,
    out: Emit<'_>,
) -> fmt::Result {
    let mut num = String::with_capacity(16);
    let mut first = true;
    for reached in set.iter().filter(|&reached| reached != node) {
        num.clear();
        if !std::mem::take(&mut first) {
            num.push(',');
        }
        write!(num, "{}", snap.graph.asn(reached).0)?;
        out.write_str(&num)?;
    }
    Ok(())
}

/// `GET /v1/reachability?origins=a,b,c[&exclude=…][&detail=full]`
/// (single-origin alias: `origin=ASN`).
///
/// Every origin resolves through [`resolve`] under the same cache key a
/// single-origin query would use, so batch and single answers are the
/// same `Answer` values, bit for bit; this handler only renders — an
/// entry is the origin's summary, and `detail=full` adds its sorted
/// reach set and streams the body.
fn reachability(
    shared: &Arc<Shared>,
    req: &Request,
    trace: &mut TraceCtx,
) -> Result<Response, ApiError> {
    let snap = shared.mgr.current();
    let (origins, batch) = parse_origins(&snap, req)?;
    trace.set_origin(origins[0].0);
    let policy = parse_exclude(req)?;
    let full = parse_detail(req)?;
    let answers = resolve(shared, &snap, Endpoint::Reachability, policy, &origins, trace)?;
    let items: Vec<_> = origins.into_iter().zip(answers).collect();
    Ok(respond(snap.version, trace.id(), full, move |out| {
        let max_possible = snap.graph.len().saturating_sub(1);
        emit_data("reachability", Some(policy), &items, batch, out, |item, out| {
            let ((asn, node), (answer, cached)) = item;
            let Answer::Reach { set, reached } = &**answer else { unreachable!("a reach key") };
            let pct = 100.0 * *reached as f64 / max_possible.max(1) as f64;
            write!(
                out,
                "\"origin\":{asn},\"reachable\":{reached},\"max_possible\":{max_possible},\
                 \"pct\":{},\"cached\":{cached}",
                Num((pct * 1e4).round() / 1e4),
            )?;
            if full {
                out.write_str(",\"reach\":[")?;
                emit_reach_asns(&snap, *node, set, out)?;
                out.write_str("]")?;
            }
            Ok(())
        })
    }))
}

/// `GET /v1/reliance?origins=a,b[&exclude=…][&top=K]` (single-origin
/// alias: `origin=ASN`). `exclude=` carries the same
/// providers/tier1/tier2 semantics as reachability and is part of the
/// cache fingerprint.
fn reliance_endpoint(
    shared: &Arc<Shared>,
    req: &Request,
    trace: &mut TraceCtx,
) -> Result<Response, ApiError> {
    let snap = shared.mgr.current();
    let (origins, batch) = parse_origins(&snap, req)?;
    trace.set_origin(origins[0].0);
    let policy = parse_exclude(req)?;
    let top_k: usize = match req.query_param("top").map(str::parse).transpose() {
        Ok(k) => k.unwrap_or(20).min(RELIANCE_TOP_MAX),
        Err(_) => return Err(ApiError::bad_request("bad 'top' (want a count)")),
    };
    let answers = resolve(shared, &snap, Endpoint::Reliance, policy, &origins, trace)?;
    let items: Vec<_> = origins.into_iter().zip(answers).collect();
    Ok(respond(snap.version, trace.id(), false, move |out| {
        emit_data("reliance", Some(policy), &items, batch, out, |item, out| {
            let ((asn, _), (answer, cached)) = item;
            let Answer::Reliance { receivers, top } = &**answer else { unreachable!("a reliance key") };
            let receivers = Num(*receivers);
            write!(out, "\"origin\":{asn},\"receivers\":{receivers},\"cached\":{cached},\"top\":[")?;
            for (j, &(a, s)) in top.iter().take(top_k).enumerate() {
                write!(out, "{}{{\"asn\":{a},\"rely\":{}}}", if j > 0 { "," } else { "" }, Num(s))?;
            }
            out.write_str("]")
        })
    }))
}

/// One parsed what-if leak query.
struct LeakQuery {
    victim: u32,
    leakers: usize,
    seed: u64,
    locking: Locking,
    announce: Announce,
}

/// Parses one leak-query JSON object (`victim` required; `leakers`,
/// `lock`, `seed`, `announce` optional).
fn parse_leak_query(doc: &Json) -> Result<LeakQuery, ApiError> {
    let Some(victim) = doc.get("victim").and_then(Json::as_u64) else {
        return Err(ApiError::unprocessable("missing required field 'victim' (an AS number)"));
    };
    let Ok(victim) = u32::try_from(victim) else {
        return Err(ApiError::unprocessable(format!(
            "field 'victim' out of range: {victim} is not a 32-bit AS number"
        )));
    };
    let leakers = doc.get("leakers").and_then(Json::as_u64).unwrap_or(50).min(5000) as usize;
    let seed = doc.get("seed").and_then(Json::as_u64).unwrap_or(1);
    let lock = doc.get("lock").and_then(Json::as_str).unwrap_or("none");
    let Some(locking) = Locking::from_token(lock) else {
        return Err(ApiError::unprocessable(format!("bad lock {lock:?} (want none|t1|t12|global)")));
    };
    let announce = doc.get("announce").and_then(Json::as_str).unwrap_or("all");
    let Some(announce) = Announce::from_token(announce) else {
        return Err(ApiError::unprocessable(format!("bad announce {announce:?} (want all|t12p)")));
    };
    Ok(LeakQuery { victim, leakers, seed, locking, announce })
}

/// `POST /v1/whatif/leak` with a JSON body — either one query object
/// `{"victim": ASN, "leakers": K, "lock": "none|t1|t12|global",
/// "seed": S, "announce": "all|t12p"}` (victim required), or a batch
/// `{"queries": [{…}, …]}` (at most [`MAX_LEAK_QUERIES`]). Every query
/// of the list runs on the one snapshot this request grabbed, on its
/// graph and the topology's pooled simulator buffers, so a batch pays
/// for snapshot access and scratch once.
fn whatif_leak(
    shared: &Arc<Shared>,
    req: &Request,
    trace: &mut TraceCtx,
) -> Result<Response, ApiError> {
    let snap = shared.mgr.current();
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| ApiError::bad_request("body is not UTF-8"))?;
    let doc = crate::json::parse(text)
        .map_err(|e| ApiError::bad_request(format!("bad JSON body: {e}")))?;

    let (queries, batch) = match doc.get("queries") {
        Some(queries) => match queries.as_array() {
            None => return Err(ApiError::unprocessable("'queries' must be an array")),
            Some([]) => return Err(ApiError::unprocessable("'queries' must not be empty")),
            Some(list) if list.len() > MAX_LEAK_QUERIES => {
                let n = list.len();
                return Err(ApiError::unprocessable(format!(
                    "too many queries ({n} > {MAX_LEAK_QUERIES})"
                )));
            }
            Some(list) => (list.iter().collect(), true),
        },
        None => (vec![&doc], false),
    };
    let mut items = Vec::with_capacity(queries.len());
    for q in queries {
        let q = parse_leak_query(q)?;
        let (g, tiers, victim) = (&snap.graph, &snap.tiers, AsId(q.victim));
        let cdf = leak_cdf(g, tiers, victim, q.announce, q.locking, q.leakers, q.seed, None)
            .ok_or_else(|| ApiError::not_found(format!("AS{} is not in the topology", q.victim)))?;
        items.push((cdf, q));
    }
    Ok(respond(snap.version, trace.id(), false, move |out| {
        emit_data("whatif_leak", None, &items, batch, out, |(cdf, q), out| {
            write!(
                out,
                "\"victim\":{},\"leakers\":{},\"lock\":\"{}\",\"announce\":\"{}\",\"seed\":{},\
                 \"detour_fraction\":{{\"median\":{},\"p90\":{},\"max\":{}}}",
                q.victim,
                cdf.fractions.len(),
                q.locking.token(),
                q.announce.token(),
                q.seed,
                Num(cdf.median()),
                Num(cdf.percentile(90.0)),
                Num(cdf.max()),
            )
        })
    }))
}

fn healthz(shared: &Arc<Shared>) -> Response {
    let snap = shared.mgr.current();
    let status = shared.mgr.status();
    let mut body = format!(
        "{{\"status\":\"ok\",\"snapshot_version\":{},\"ases\":{},\"workers\":{},\
         \"cache_entries\":{},\"cache_bytes\":{},\"scratch_bytes\":{},\
         \"warm_start\":{},\"snapshot_ready_ms\":{},\"store\":{},\
         \"reload_failures\":{},\"reload_backoff_ms\":{}",
        snap.version,
        snap.graph.len(),
        shared.workers,
        shared.cache.len(),
        shared.cache.bytes(),
        shared.refresh_scratch_bytes(),
        status.warm_start,
        status.snapshot_ready_ms,
        status.store_configured,
        status.consecutive_failures,
        status.backoff_remaining_ms,
    );
    // Self-identification: the bound address (a process behind a router
    // must be discoverable by what it actually listens on, not what it
    // was asked to bind — port 0 resolves here), its shard slot when it
    // serves a slice of a sharded layout, and the pid for operators.
    match shared.front.local_addr() {
        Some(addr) => body.push_str(&format!(",\"addr\":\"{addr}\"")),
        None => body.push_str(",\"addr\":null"),
    }
    match shared.shard {
        Some((id, count)) => {
            body.push_str(&format!(",\"shard\":{{\"id\":{id},\"count\":{count}}}"))
        }
        None => body.push_str(",\"shard\":null"),
    }
    body.push_str(&format!(",\"pid\":{}", std::process::id()));
    match (&status.last_error_kind, &status.last_error) {
        (Some(kind), Some(msg)) => {
            body.push_str(&format!(
                ",\"last_reload_error\":{{\"kind\":\"{}\",\"message\":\"{}\"}}",
                escape(kind),
                escape(msg)
            ));
        }
        _ => body.push_str(",\"last_reload_error\":null"),
    }
    body.push_str("}\n");
    Response::json(200, body)
}

fn admin_reload(shared: &Arc<Shared>) -> Result<Response, ApiError> {
    match shared.mgr.reload() {
        Ok(snap) => {
            // Old-version keys are unreachable already (the version is in
            // the key); clearing reclaims their memory immediately.
            shared.cache.clear();
            spawn_warmup(shared, Arc::clone(&snap));
            Ok(Response::json(
                200,
                format!(
                    "{{\"status\":\"reloaded\",\"snapshot_version\":{},\"ases\":{}}}\n",
                    snap.version,
                    snap.graph.len()
                ),
            ))
        }
        // A reload failure never degrades service — the old snapshot
        // keeps serving — so it's 503 (retryable), not 500. The envelope
        // kind passes the `ServeError::kind` label straight through.
        Err(crate::error::ServeError::ReloadBackoff { retry_after_ms, last_error }) => {
            let mut e = ApiError::new(
                503,
                "backoff",
                format!("reload in backoff after failure: {last_error}"),
            );
            e.retry_after = Some(retry_after_ms.div_ceil(1000).clamp(1, 60) as u32);
            Err(e)
        }
        Err(e) => {
            let mut api = ApiError::new(
                503,
                e.kind(),
                format!("reload failed; old snapshot still serving: {e}"),
            );
            api.retry_after = Some(1);
            Err(api)
        }
    }
}

fn admin_shutdown(shared: &Arc<Shared>) -> Response {
    shared.begin_shutdown();
    Response::json(200, "{\"status\":\"shutting-down\"}\n".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{envelope, fmt_f64};
    use crate::http::Body;
    use crate::snapshot::TopologySource;
    use flatnet_bgpsim::{reliance, NextHopDag, PropagationConfig};

    /// A one-worker `Shared` over a generated topology large enough that
    /// a full-reach reliance answer has more than `RELIANCE_TOP_MAX`
    /// positive scores.
    fn shared() -> Arc<Shared> {
        let mgr = SnapshotManager::with_store(TopologySource::Generated { ases: 1500, seed: 11 }, None)
            .expect("generated topology passes the health gate");
        let cfg = ServeConfig {
            cache_cap: 64,
            queue_cap: 16,
            io_timeout_ms: 0,
            keepalive_max: 16,
            keepalive_idle_ms: 1000,
            ..ServeConfig::default()
        };
        Arc::new(Shared::new(mgr, &cfg, 1))
    }

    /// Routes one request; returns the response's status and
    /// text body and the finished trace event.
    fn respond(
        shared: &Arc<Shared>,
        method: Method,
        path: &str,
        query: &str,
        body: &str,
    ) -> (u16, String, flatnet_obs::trace::TraceEvent) {
        let req = Request {
            method,
            path: path.into(),
            query: query
                .split('&')
                .filter(|kv| !kv.is_empty())
                .map(|kv| kv.split_once('=').expect("k=v"))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            http10: false,
        };
        let mut trace = TraceCtx::new(0xABCD);
        let resp = Handler::route(&mut &*shared, &req, &mut trace);
        let Body::Text(body) = resp.body else { panic!("{path} answers are not streamed") };
        (resp.status, body, trace.finish(resp.status))
    }

    /// [`respond`] for a request that must succeed: the 200 response's
    /// text body and the finished trace event.
    fn call(
        shared: &Arc<Shared>,
        method: Method,
        path: &str,
        query: &str,
        body: &str,
    ) -> (String, flatnet_obs::trace::TraceEvent) {
        let (status, text, ev) = respond(shared, method, path, query, body);
        assert_eq!(status, 200, "{path}?{query}: {text}");
        (text, ev)
    }

    /// Routes `GET /v1/reliance?<query>`.
    fn get_reliance(
        shared: &Arc<Shared>,
        query: &str,
    ) -> (String, flatnet_obs::trace::TraceEvent) {
        call(shared, Method::Get, "/v1/reliance", query, "")
    }

    /// One result entry exactly as the parent commit computed and
    /// rendered it: outcome copy, `NextHopDag`, `reliance`, a full sort
    /// of every positive score, `format!` per row.
    fn parent_entry(
        snap: &ServeSnapshot,
        asn: u32,
        policy: ExclusionPolicy,
        top_k: usize,
        cached: bool,
    ) -> String {
        let g = &snap.graph;
        let node = g.index_of(AsId(asn)).unwrap();
        let mut mask = vec![false; g.len()];
        Exclusion::new(g, &snap.tiers, policy).unwrap().fill_scalar(node, &mut mask);
        let cfg = PropagationConfig::new().with_excluded(mask);
        let out = Simulation::over(&snap.graph).config(cfg.clone()).run(node);
        let scores = reliance(&NextHopDag::build(g, &cfg, &out));
        let mut top: Vec<(u32, f64)> = scores
            .iter()
            .enumerate()
            .filter(|&(i, &s)| s > 0.0 && i != node.idx())
            .map(|(i, &s)| (g.asn(NodeId(i as u32)).0, s))
            .collect();
        top.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        top.truncate(1000);
        let rows: Vec<String> = top
            .iter()
            .take(top_k)
            .map(|(a, s)| format!("{{\"asn\":{a},\"rely\":{}}}", fmt_f64(*s)))
            .collect();
        format!(
            "{{\"origin\":{asn},\"receivers\":{},\"cached\":{cached},\"top\":[{}]}}",
            fmt_f64(scores[node.idx()]),
            rows.join(","),
        )
    }

    #[test]
    fn reliance_answers_match_the_parent_byte_for_byte_and_cache_a_bounded_payload() {
        let shared = shared();
        let snap = shared.mgr.current();
        let g = &snap.graph;
        // Two well-connected origins, so that full reach yields more
        // positive scores than the cache keeps.
        let mut by_degree: Vec<NodeId> = g.nodes().collect();
        by_degree.sort_by_key(|&n| (std::cmp::Reverse(g.degree(n)), n.0));
        let (a, b) = (g.asn(by_degree[0]).0, g.asn(by_degree[1]).0);

        // Single shape, cold then cached, across `top=` values (the
        // cached payload must serve every K up to the cap).
        let single = |asn: u32, policy: ExclusionPolicy, top_k: usize, cached: bool| {
            let entry = parent_entry(&snap, asn, policy, top_k, cached);
            let data = format!(
                "{{\"endpoint\":\"reliance\",\"exclude\":[{}],{}",
                exclude_names(policy),
                entry.strip_prefix('{').unwrap(),
            );
            envelope(snap.version, 0xABCD, &data)
        };
        let (cold, cold_ev) = get_reliance(&shared, &format!("origin={a}"));
        assert_eq!(cold, single(a, ExclusionPolicy::NONE, 20, false));
        assert!(cold_ev.stage_us(Stage::Propagate).is_some(), "a miss is a solve");
        assert!(cold_ev.stage_us(Stage::CacheProbe).is_some());
        assert!(!cold_ev.cached);
        for (query, top_k) in [("", 20), ("&top=0", 0), ("&top=3", 3), ("&top=5000", 1000)] {
            let (warm, ev) = get_reliance(&shared, &format!("origin={a}{query}"));
            assert_eq!(warm, single(a, ExclusionPolicy::NONE, top_k, true), "cached, {query:?}");
            assert!(ev.cached);
            assert_eq!(ev.stage_us(Stage::Propagate), None, "a cached answer solves nothing");
        }

        // Batch shape with exclusions and a repeated origin: `cached` is
        // "was in the cache when this request probed", so the repeat
        // reports the same miss as its first occurrence.
        let bits = ExclusionPolicy::PROVIDER_FREE;
        let (batch, ev) = get_reliance(
            &shared,
            &format!("origins={b},{a},{b}&exclude=providers&top=1000"),
        );
        let entries = [
            parent_entry(&snap, b, bits, 1000, false),
            parent_entry(&snap, a, bits, 1000, false),
            parent_entry(&snap, b, bits, 1000, false),
        ];
        let data = format!(
            "{{\"endpoint\":\"reliance\",\"exclude\":[{}],\"batch\":3,\"results\":[{}]}}",
            exclude_names(bits),
            entries.join(","),
        );
        assert_eq!(batch, envelope(snap.version, 0xABCD, &data));
        assert!(!ev.cached);

        // What the cache retains: at most the cap, at exact capacity.
        let cached = |asn: u32, policy: ExclusionPolicy| {
            let fingerprint = policy_fingerprint(Endpoint::Reliance as u8, policy.bits());
            let key = CacheKey { version: snap.version, origin: asn, fingerprint };
            shared.cache.get(&key).expect("the answer was cached")
        };
        let mut full = 0;
        for answer in [cached(a, ExclusionPolicy::NONE), cached(a, bits), cached(b, bits)] {
            let Answer::Reliance { top, .. } = &*answer else {
                panic!("only reliance was queried")
            };
            assert!(top.len() <= RELIANCE_TOP_MAX, "{} entries cached", top.len());
            assert_eq!(top.capacity(), top.len(), "cached answer pins unused capacity");
            full += usize::from(top.len() == RELIANCE_TOP_MAX);
        }
        assert!(full >= 1, "no answer reached the cap; the topology is too small for this test");
        assert_eq!(shared.cache.len(), 3);
        let bytes = shared.cache.bytes();
        assert!(bytes <= 3 * (std::mem::size_of::<Answer>() + RELIANCE_TOP_MAX * 16), "{bytes}");
    }

    /// A thread that panics holding the job queue poisons its mutex; the
    /// accept path still queues a connection and a worker still pops and
    /// answers it.
    #[test]
    fn a_poisoned_job_queue_keeps_serving() {
        use std::io::{Read as _, Write as _};
        let shared = shared();
        let holder = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = shared.queue.lock().unwrap();
                panic!("a thread panics holding the job queue");
            })
            .join()
        });
        assert!(holder.is_err());
        assert!(shared.queue.is_poisoned(), "the panic did not poison the queue");

        let (listener, addr) = shared.front.listen("127.0.0.1:0").expect("bind");
        let threads = [
            std::thread::spawn({
                let shared = Arc::clone(&shared);
                move || worker_loop(shared, 0)
            }),
            std::thread::spawn({
                let shared = Arc::clone(&shared);
                move || shared.front.accept(listener, |stream| shared.submit(stream))
            }),
        ];
        let mut client = TcpStream::connect(addr).expect("connect");
        client.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").expect("write");
        let mut reply = String::new();
        client.read_to_string(&mut reply).expect("read");
        assert!(reply.starts_with("HTTP/1.1 200 "), "{reply}");
        assert!(reply.contains("\"status\":\"ok\""), "{reply}");

        shared.begin_shutdown();
        for thread in threads {
            thread.join().expect("the accept loop and the worker exit cleanly");
        }
    }

    /// A leak victim above `u32::MAX` is refused naming the field, in both
    /// body shapes — not truncated onto whichever AS shares its low bits.
    #[test]
    fn an_out_of_range_leak_victim_is_unprocessable() {
        let shared = shared();
        let real = shared.mgr.current().graph.asns().next().expect("a first AS").0;
        let bogus = (1u64 << 32) + u64::from(real);
        let single = format!("{{\"victim\":{bogus},\"leakers\":2}}");
        let batch =
            format!("{{\"queries\":[{{\"victim\":{real},\"leakers\":2}},{{\"victim\":{bogus}}}]}}");
        for body in [single, batch] {
            let (status, text, _) =
                respond(&shared, Method::Post, "/v1/whatif/leak", "", &body);
            assert_eq!(status, 422, "{body} -> {text}");
            assert!(text.contains("unprocessable") && text.contains("'victim'"), "{text}");
            assert!(text.contains(&bogus.to_string()), "{text}");
        }
    }

    /// The `scratch_bytes` member of a `/healthz` body.
    fn scratch_bytes_of(body: &str) -> u64 {
        let doc = crate::json::parse(body).expect("a JSON body");
        doc.get("scratch_bytes").and_then(Json::as_u64).expect("a scratch_bytes member")
    }

    /// Every solve pools its scratch on the snapshot's compiled topology —
    /// a single's scalar context and a reliance kernel as much as a
    /// batch's lane workspace and a leak query's simulators — `/healthz`
    /// reports all of it beside `cache_bytes`, `/metrics` as the
    /// `serve.scratch_bytes` gauge, and
    /// `/admin/reload` frees it with the old snapshot: the successor
    /// starts with none.
    #[test]
    fn reload_frees_the_old_snapshots_scratch() {
        let shared = shared();
        let old = Arc::downgrade(&shared.mgr.current());
        let health = || scratch_bytes_of(&call(&shared, Method::Get, "/healthz", "", "").0);
        assert_eq!(health(), 0, "nothing has been solved yet");

        let snap = shared.mgr.current();
        let asns: Vec<String> = snap.graph.asns().take(72).map(|a| a.0.to_string()).collect();
        let n = snap.graph.len() as u64;
        drop(snap);
        // A single reach miss leaves its scalar context: the selection
        // and the touched list alone are 8 B a node.
        call(&shared, Method::Get, "/v1/reachability", &format!("origin={}", asns[0]), "");
        let single = health();
        assert!(single >= 8 * n, "a scalar context is at least 8 B a node, got {single}");
        // A reliance miss reuses that context and adds its kernel.
        call(&shared, Method::Get, "/v1/reliance", &format!("origin={}", asns[1]), "");
        let rely = health();
        assert!(rely >= single + 28 * n, "a reliance kernel is 28 B a node or more: {single} → {rely}");
        // A batch of misses sizes a lane workspace (at 128 lanes, one
        // 16 B route word a node: its reach sets are read straight off
        // them), a leak query the simulators' contexts beyond the one
        // idle; all stay with the snapshot.
        let query = format!("origins={}", asns[2..].join(","));
        call(&shared, Method::Get, "/v1/reachability", &query, "");
        let lanes = health();
        assert!(lanes >= rely + 16 * n, "a 128-lane workspace is 16 B a node or more: {rely} → {lanes}");
        let leak = format!("{{\"victim\":{},\"leakers\":3}}", asns[0]);
        call(&shared, Method::Post, "/v1/whatif/leak", "", &leak);
        let all = health();
        assert!(all >= lanes + 8 * n, "a victim side and a leaker side, got {all} after {lanes}");
        let metrics = call(&shared, Method::Get, "/metrics", "", "").0;
        let metrics = crate::json::parse(&metrics).expect("a JSON body");
        let gauge = metrics.get("gauges").and_then(|g| g.get("serve.scratch_bytes"));
        assert_eq!(gauge.and_then(Json::as_u64), Some(all));
        assert_eq!(flatnet_bgpsim::scratch_bytes(&shared.mgr.current().graph) as u64, all);

        call(&shared, Method::Post, "/admin/reload", "", "");
        assert!(old.upgrade().is_none(), "the old snapshot outlived its reload");
        assert_eq!(shared.mgr.current().version, 2);
        assert_eq!(health(), 0, "the new snapshot starts with no scratch");
    }
}
