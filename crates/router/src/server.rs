//! The router process: shard routing, scatter-gather, and the aggregated
//! control plane, as the [`Handler`] of the HTTP front the shards run
//! ([`flatnet_serve::front`]), so a client cannot tell a router from a
//! shard by protocol behaviour; the one difference is that each client
//! connection gets a thread of its own. Routing is key-hash ownership
//! over [`crate::ring::HashRing`]: every owned `/v1` request —
//! reachability and reliance keyed by their origins, what-if leaks by
//! their victims — takes one route, `owned_route`:
//!
//! * every key owned by one shard (a lone origin or leak query among
//!   them) → forwarded verbatim to it; the shard's envelope passes
//!   through byte-for-byte (the router's trace id was propagated via
//!   `X-Flatnet-Trace-Id`, so even `trace_id` matches).
//! * keys spanning shards (an `origins=` list, a `{"queries":[…]}`
//!   body) → split by owner, fanned out in parallel over pooled
//!   persistent connections (all sub-requests written before any
//!   response is read), and merged back in request order from verbatim
//!   text slices — `data` is byte-identical to a single process's
//!   answer.
//!
//! `router.scatter` counts every batch-shaped request once, whether it
//! fans out or forwards whole.
//!
//! A shard whose circuit is open (see [`crate::shard`]) answers `503`
//! with the stable kind `shard-unavailable` for its slice only; in a
//! batch the healthy slices still answer and the envelope carries a
//! `router` member flagging the partial result. `/admin/reload` rolls
//! the shards one at a time: a shard's reload answers only after its
//! new snapshot passed the shard's own health gate and serves, so a
//! healthy fleet never has two shards reloading at once.

use crate::merge;
use crate::ring::HashRing;
use crate::shard::Shard;
use crate::UpstreamResponse;
use flatnet_obs::trace::{Stage, TraceCtx};
use flatnet_serve::engine::MAX_BATCH_ORIGINS;
use flatnet_serve::front::{error_response, Front, Handler, Limits};
use flatnet_serve::http::{parse_asn, Method, Request, Response};
use flatnet_serve::json::{envelope, envelope_head, escape};
use flatnet_wire::{Call, Conn};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The stable error kind for a slice whose owner shard cannot answer.
pub const SHARD_UNAVAILABLE: &str = "shard-unavailable";

/// Router configuration; see field docs for defaults.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Shard addresses, one per ring slot, in shard-id order.
    pub shard_addrs: Vec<String>,
    /// Child pids parallel to `shard_addrs` when the CLI spawned the
    /// shards (shown in `/debug/shards`); empty for adopted shards.
    pub shard_pids: Vec<u32>,
    /// Per-upstream-operation socket timeout.
    pub upstream_timeout_ms: u64,
    /// Health-probe period; 0 disables the background prober (tests).
    pub probe_interval_ms: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:8070".into(),
            shard_addrs: Vec::new(),
            shard_pids: Vec::new(),
            upstream_timeout_ms: 10_000,
            probe_interval_ms: 200,
        }
    }
}

/// Serve's default keep-alive budget and idle timeout, one socket timeout.
const FRONT_LIMITS: Limits = Limits {
    read_timeout: Duration::from_secs(10),
    write_timeout: Duration::from_secs(10),
    keepalive_max: 1024,
    keepalive_idle: Duration::from_secs(5),
};

/// Concurrent client connections beyond which new ones are bounced.
const MAX_CONNS: usize = 256;

/// Events the router's trace ring keeps.
const TRACE_RING_CAP: usize = 1024;

struct Inner {
    front: Front,
    shards: Vec<Shard>,
    ring: HashRing,
    active_conns: AtomicUsize,
    /// Round-robin cursor for requests with no owner (unparsable
    /// origins forwarded for an authoritative 4xx).
    any_cursor: AtomicUsize,
    /// Serializes rolling reloads.
    reload_lock: Mutex<()>,
    forwarded: flatnet_obs::Counter,
    scatters: flatnet_obs::Counter,
    partials: flatnet_obs::Counter,
    unavailable: flatnet_obs::Counter,
}

/// A running router. Same lifecycle contract as
/// [`flatnet_serve::Server`]: `wait()` blocks until `/admin/shutdown`,
/// `shutdown()` stops it from the embedding process.
pub struct Router {
    addr: SocketAddr,
    inner: Arc<Inner>,
    accept_thread: Option<JoinHandle<()>>,
    prober: Option<JoinHandle<()>>,
}

impl Router {
    /// Binds the front listener and starts the accept loop and the
    /// health prober. Shards are adopted as given — the router does not
    /// spawn processes (the CLI layer does) and starts optimistic about
    /// their health.
    pub fn start(cfg: RouterConfig) -> std::io::Result<Router> {
        assert!(!cfg.shard_addrs.is_empty(), "router needs at least one shard");
        let timeout = Duration::from_millis(cfg.upstream_timeout_ms.max(1));
        let shards: Vec<Shard> = cfg
            .shard_addrs
            .iter()
            .enumerate()
            .map(|(i, addr)| {
                Shard::new(i as u32, addr.clone(), cfg.shard_pids.get(i).copied(), timeout)
            })
            .collect();
        let reg = flatnet_obs::global();
        let inner = Arc::new(Inner {
            front: Front::new("router", FRONT_LIMITS, TRACE_RING_CAP),
            ring: HashRing::new(shards.len() as u32),
            shards,
            active_conns: AtomicUsize::new(0),
            any_cursor: AtomicUsize::new(0),
            reload_lock: Mutex::new(()),
            forwarded: reg.counter("router.forwarded"),
            scatters: reg.counter("router.scatter"),
            partials: reg.counter("router.partial"),
            unavailable: reg.counter("router.shard_unavailable"),
        });
        let (listener, addr) = inner.front.listen(&cfg.addr)?;

        let accept_inner = Arc::clone(&inner);
        let accept_thread = std::thread::Builder::new()
            .name("router-accept".into())
            .spawn(move || {
                accept_inner.front.accept(listener, |stream| admit(&accept_inner, stream))
            })?;

        let prober = if cfg.probe_interval_ms > 0 {
            let probe_inner = Arc::clone(&inner);
            let period = Duration::from_millis(cfg.probe_interval_ms);
            Some(
                std::thread::Builder::new()
                    .name("router-prober".into())
                    .spawn(move || prober_loop(probe_inner, period))?,
            )
        } else {
            None
        };

        flatnet_obs::info!(
            "flatnet-router listening on http://{addr} ({} shards)",
            inner.shards.len()
        );
        Ok(Router { addr, inner, accept_thread: Some(accept_thread), prober })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Per-shard health view for embedding tests: `(healthy, snapshot
    /// version)` in shard-id order.
    pub fn shard_health(&self) -> Vec<(bool, u64)> {
        self.inner.shards.iter().map(|s| (s.healthy(), s.snapshot_version())).collect()
    }

    /// Client connections being served right now (embedding tests
    /// watch it return to zero).
    pub fn active_conns(&self) -> usize {
        self.inner.active_conns.load(Ordering::SeqCst)
    }

    /// Blocks until `/admin/shutdown` stops the router.
    pub fn wait(mut self) {
        self.join_all();
    }

    /// Stops the router from the embedding process.
    pub fn shutdown(mut self) {
        self.inner.front.stop();
        self.join_all();
    }

    fn join_all(&mut self) {
        // The accept loop returns only once shutdown is flagged, which
        // also stops the prober.
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.prober.take() {
            let _ = t.join();
        }
        // Connection threads are detached; give in-flight requests a
        // moment to finish so tests tearing the router down don't race
        // half-written responses.
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.inner.active_conns.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

fn prober_loop(inner: Arc<Inner>, period: Duration) {
    while !inner.front.stopping() {
        for shard in &inner.shards {
            if inner.front.stopping() {
                return;
            }
            shard.probe(inner.front.tracer.next_id());
        }
        let mut slept = Duration::ZERO;
        while slept < period && !inner.front.stopping() {
            let slice = (period - slept).min(Duration::from_millis(50));
            std::thread::sleep(slice);
            slept += slice;
        }
    }
}

/// Gives an accepted client a thread running the front's connection
/// loop, or bounces it with `503` when [`MAX_CONNS`] are open.
fn admit(inner: &Arc<Inner>, stream: TcpStream) {
    if inner.active_conns.load(Ordering::SeqCst) >= MAX_CONNS {
        let mut trace = TraceCtx::new(inner.front.tracer.next_id());
        trace.set_tag("rejected");
        let message = "router connection limit reached";
        let resp = error_resp(503, "unavailable", message, inner, trace.id());
        let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
        inner.front.finish(&stream, resp, &mut trace);
        return;
    }
    inner.active_conns.fetch_add(1, Ordering::SeqCst);
    let conn_inner = Arc::clone(inner);
    let spawned = std::thread::Builder::new().name("router-conn".into()).spawn(move || {
        // Released on drop, so a panic while serving the connection
        // cannot leak its slot.
        let _slot = ConnSlot(&conn_inner);
        let first = TraceCtx::new(conn_inner.front.tracer.next_id());
        // No queue before the first read: the read timeout is its budget.
        conn_inner.front.serve_connection(&stream, first, Duration::MAX, &mut &*conn_inner);
    });
    if spawned.is_err() {
        inner.active_conns.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One connection's claim on [`MAX_CONNS`].
struct ConnSlot<'a>(&'a Inner);

impl Drop for ConnSlot<'_> {
    fn drop(&mut self) {
        self.0.active_conns.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The router's answer to one client request.
impl Handler for &Inner {
    fn route(&mut self, req: &Request, trace: &mut TraceCtx) -> Response {
        let resp = route(self, req, trace.id());
        self.shards.iter().for_each(Shard::publish_upstream_stats);
        // The upstream exchange and any merge: the router's compute.
        trace.mark(Stage::Propagate);
        resp
    }

    fn version(&self) -> u64 {
        fleet_version(self)
    }
}

/// Best known snapshot version across the fleet (the envelope version
/// for router-composed bodies).
fn fleet_version(inner: &Inner) -> u64 {
    inner.shards.iter().map(|s| s.snapshot_version()).max().unwrap_or(0)
}

fn error_resp(
    status: u16,
    kind: &str,
    message: &str,
    inner: &Inner,
    trace_id: u64,
) -> Response {
    let mut resp = error_response(status, kind, message, fleet_version(inner), trace_id);
    if status == 503 {
        resp.retry_after = Some(1);
    }
    resp
}

fn route(inner: &Inner, req: &Request, trace_id: u64) -> Response {
    match (req.method, req.path.as_str()) {
        (Method::Get, "/v1/reachability") | (Method::Get, "/v1/reliance") => {
            query_route(inner, req, trace_id)
        }
        (Method::Post, "/v1/whatif/leak") => leak_route(inner, req, trace_id),
        (Method::Get, "/healthz") => healthz(inner),
        (Method::Get, "/metrics") => metrics(inner, req, trace_id),
        (Method::Get, "/debug/shards") => debug_shards(inner, trace_id),
        // The router's own ring: what this hop recorded, not a shard's.
        (Method::Get, "/debug/trace/recent" | "/debug/trace/slow") => inner
            .front
            .trace_dump(req)
            .unwrap_or_else(|e| error_resp(400, "bad-request", &e, inner, trace_id)),
        (Method::Post, "/admin/reload") => rolling_reload(inner, trace_id),
        (Method::Post, "/admin/shutdown") => {
            inner.front.stop();
            Response::json(200, "{\"status\":\"shutting-down\"}\n".to_string())
        }
        // Any other path goes to a healthy shard, which answers it or
        // refuses it (`404 not-found`) like any path it does not know.
        _ => forward_any(inner, req, trace_id),
    }
}

// ---------------------------------------------------------------------
// Data path: ownership, forwarding, scatter-gather.
// ---------------------------------------------------------------------

/// Percent-encodes conservatively: unreserved characters and `keep`
/// (`,` in a query token, `/` in a path) survive; the serve parser
/// decodes everything else back.
fn enc(s: &str, keep: u8, out: &mut String) {
    for &b in s.as_bytes() {
        match b {
            b if b.is_ascii_alphanumeric() || b"-._~".contains(&b) || b == keep => {
                out.push(b as char)
            }
            _ => {
                out.push('%');
                out.push_str(&format!("{b:02X}"));
            }
        }
    }
}

/// Rebuilds the request target. With `origins_override`, the first
/// `origins=`/`origin=` parameter is replaced by a canonical
/// `origins=<list>` (forcing the batch shape on sub-requests) and any
/// further origin parameters are dropped; every other parameter is
/// preserved in order.
fn rebuild_target(req: &Request, origins_override: Option<&str>) -> String {
    let mut out = String::new();
    enc(&req.path, b'/', &mut out);
    let mut sep = '?';
    let mut origins_done = false;
    for (k, v) in &req.query {
        if let (Some(list), "origins" | "origin") = (origins_override, k.as_str()) {
            if !origins_done {
                out.push(sep);
                sep = '&';
                out.push_str("origins=");
                out.push_str(list);
                origins_done = true;
            }
            continue;
        }
        out.push(sep);
        sep = '&';
        enc(k, b',', &mut out);
        out.push('=');
        enc(v, b',', &mut out);
    }
    out
}

/// `GET /v1/reachability` / `GET /v1/reliance`: routed by origin.
fn query_route(inner: &Inner, req: &Request, trace_id: u64) -> Response {
    // Anything the router cannot interpret — no origins, a bad token,
    // an oversized batch — is forwarded untouched so the *shard's*
    // validation answers, and router and single-process behavior can't
    // drift.
    let (tokens, plural) = req.origin_tokens();
    if tokens.is_empty() || tokens.len() > MAX_BATCH_ORIGINS {
        return forward_any(inner, req, trace_id);
    }
    let Some(asns) = tokens.iter().map(|t| parse_asn(t)).collect::<Option<Vec<u32>>>() else {
        return forward_any(inner, req, trace_id);
    };
    let batch = plural || asns.len() > 1;
    owned_route(inner, req, "origin", &asns, batch, trace_id, |positions| {
        let list = positions.iter().map(|&p| asns[p].to_string()).collect::<Vec<_>>().join(",");
        (rebuild_target(req, Some(&list)), None)
    })
}

/// Forwards `req` verbatim to shard `owner`, passing the shard's
/// response through byte-for-byte.
fn forward(
    inner: &Inner,
    owner: usize,
    req: &Request,
    target: &str,
    trace_id: u64,
) -> Response {
    let shard = &inner.shards[owner];
    if !shard.healthy() {
        inner.unavailable.inc();
        return error_resp(
            503,
            SHARD_UNAVAILABLE,
            &format!("shard {} ({}) is unavailable", shard.id, shard.upstream.addr()),
            inner,
            trace_id,
        );
    }
    let body = std::str::from_utf8(&req.body).ok().filter(|b| !b.is_empty());
    match shard.upstream.request(method_name(req.method), target, body, trace_id) {
        Ok(up) => {
            shard.record_ok();
            inner.forwarded.inc();
            relay(up)
        }
        Err(e) => {
            shard.record_failure(&format!("forward failed: {e}"));
            inner.unavailable.inc();
            error_resp(
                503,
                SHARD_UNAVAILABLE,
                &format!("shard {} ({}) failed: {e}", shard.id, shard.upstream.addr()),
                inner,
                trace_id,
            )
        }
    }
}

/// The method token a request to a shard carries.
fn method_name(method: Method) -> &'static str {
    match method {
        Method::Get => "GET",
        Method::Post => "POST",
    }
}

/// A shard's response, passed through to the client byte-for-byte.
fn relay(up: UpstreamResponse) -> Response {
    let retry_after = up.header("retry-after").and_then(|secs| secs.parse().ok());
    let mut resp = Response::json(up.status, up.body);
    resp.retry_after = retry_after;
    resp
}

/// Forwards to the next healthy shard in round-robin order — used when
/// the router has no opinion about ownership (no parsable origin) and
/// only wants an authoritative answer.
fn forward_any(inner: &Inner, req: &Request, trace_id: u64) -> Response {
    let n = inner.shards.len();
    let start = inner.any_cursor.fetch_add(1, Ordering::Relaxed);
    for off in 0..n {
        let idx = (start + off) % n;
        if inner.shards[idx].healthy() {
            return forward(inner, idx, req, &rebuild_target(req, None), trace_id);
        }
    }
    inner.unavailable.inc();
    error_resp(503, SHARD_UNAVAILABLE, "no healthy shards", inner, trace_id)
}

/// One sub-request of a fan-out.
struct SubReq {
    shard: usize,
    /// Positions (indexes into the client's origin list) this
    /// sub-request answers, in order.
    positions: Vec<usize>,
    method: &'static str,
    target: String,
    body: Option<String>,
}

impl SubReq {
    fn call(&self, trace_id: u64) -> Call<'_> {
        Call { method: self.method, target: &self.target, body: self.body.as_deref(), trace_id }
    }
}

/// The per-sub-request outcome of [`fan_out`].
type SubResult = Result<UpstreamResponse, String>;

/// Scatter-gather: writes every sub-request before reading any
/// response, so the shards compute in parallel while the router blocks
/// on the slowest one only once. A transport failure (after the
/// client's one replay of a stale pooled socket) feeds the breaker and
/// fails only its own slice.
fn fan_out(inner: &Inner, subs: &[SubReq], trace_id: u64) -> Vec<SubResult> {
    let sent: Vec<Result<Conn, String>> = subs
        .iter()
        .map(|sub| {
            let shard = &inner.shards[sub.shard];
            if !shard.healthy() {
                return Err("circuit open".into());
            }
            shard.upstream.send(&sub.call(trace_id)).map_err(|e| {
                shard.record_failure(&format!("scatter send failed: {e}"));
                e.to_string()
            })
        })
        .collect();
    // Gather in sub-request order.
    subs.iter()
        .zip(sent)
        .map(|(sub, conn)| {
            let shard = &inner.shards[sub.shard];
            let reply = shard.upstream.recv(conn?, &sub.call(trace_id)).map_err(|e| {
                shard.record_failure(&format!("scatter recv failed: {e}"));
                e.to_string()
            })?;
            shard.record_ok();
            Ok(reply)
        })
        .collect()
}

/// Groups the positions of `asns` by owner shard, groups ordered by
/// first appearance so the fan-out (and any error passthrough) is
/// deterministic.
fn group_by_owner(ring: &HashRing, asns: &[u32]) -> Vec<(usize, Vec<usize>)> {
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for (pos, &asn) in asns.iter().enumerate() {
        let owner = ring.owner(asn) as usize;
        match groups.iter_mut().find(|(s, _)| *s == owner) {
            Some((_, positions)) => positions.push(pos),
            None => groups.push((owner, vec![pos])),
        }
    }
    groups
}

/// The one route of every owned `/v1` request: `ids` are its owner keys
/// (origins, or leak victims), one per entry of the answer, and `key`
/// names them in a synthesized error entry. When one shard owns every
/// key — a lone origin or leak query among them — the request forwards
/// verbatim and the owner's envelope passes through. Otherwise `split`
/// builds each owner's sub-request (target and body) from the positions
/// it owns, the sub-requests fan out, and their entries merge back in
/// request order. `router.scatter` counts every `batch`-shaped request
/// once, whichever way it goes.
fn owned_route(
    inner: &Inner,
    req: &Request,
    key: &str,
    ids: &[u32],
    batch: bool,
    trace_id: u64,
    split: impl Fn(&[usize]) -> (String, Option<String>),
) -> Response {
    if batch {
        inner.scatters.inc();
    }
    let groups = group_by_owner(&inner.ring, ids);
    if let [(owner, _)] = groups[..] {
        return forward(inner, owner, req, &rebuild_target(req, None), trace_id);
    }
    let subs: Vec<SubReq> = groups
        .into_iter()
        .map(|(shard, positions)| {
            let (target, body) = split(&positions);
            SubReq { shard, positions, method: method_name(req.method), target, body }
        })
        .collect();
    let results = fan_out(inner, &subs, trace_id);
    merge_batch(inner, &subs, results, key, ids, trace_id)
}

/// Gathers fan-out results into the merged batch envelope. `key` names
/// the per-entry identity member for synthesized error entries
/// (`origin` for reachability/reliance, `victim` for what-if leaks),
/// and `ids[pos]` is its value at each position.
fn merge_batch(
    inner: &Inner,
    subs: &[SubReq],
    results: Vec<SubResult>,
    key: &str,
    ids: &[u32],
    trace_id: u64,
) -> Response {
    let mut bodies: Vec<Option<String>> = Vec::with_capacity(subs.len());
    let mut failed_shards: Vec<u32> = Vec::new();
    for (sub, result) in subs.iter().zip(results) {
        match result {
            Ok(up) if up.status == 200 => bodies.push(Some(up.body)),
            Ok(up) if (400..500).contains(&up.status) => {
                // The shard rejected its slice (unknown origin, bad
                // parameter). A single process would reject the whole
                // batch the same way; pass its verdict through.
                return relay(up);
            }
            Ok(up) => {
                // 5xx mid-scatter: the shard is alive but its slice got
                // no answer (reload backoff, queue full). Partial, not
                // fatal — and not a breaker event.
                let kind = merge::envelope_error_kind(&up.body).unwrap_or("unavailable");
                flatnet_obs::warn!(
                    "router: shard {} answered {} ({kind}) mid-scatter",
                    inner.shards[sub.shard].id,
                    up.status
                );
                failed_shards.push(inner.shards[sub.shard].id);
                bodies.push(None);
            }
            Err(err) => {
                flatnet_obs::warn!(
                    "router: shard {} lost its slice mid-scatter: {err}",
                    inner.shards[sub.shard].id
                );
                failed_shards.push(inner.shards[sub.shard].id);
                bodies.push(None);
            }
        }
    }
    let Some(template_body) = bodies.iter().flatten().next() else {
        inner.unavailable.inc();
        return error_resp(
            503,
            SHARD_UNAVAILABLE,
            "every owner shard failed to answer the batch",
            inner,
            trace_id,
        );
    };
    let version = bodies
        .iter()
        .flatten()
        .filter_map(|b| merge::member_u64(b, "snapshot_version"))
        .max()
        .unwrap_or_else(|| fleet_version(inner));
    let template_data = match merge::envelope_data(template_body) {
        Some(d) => d.to_string(),
        None => {
            return error_resp(500, "internal", "shard envelope missing data", inner, trace_id)
        }
    };
    // Re-slot every shard's entries back to their request positions.
    let mut slots: Vec<Option<&str>> = vec![None; ids.len()];
    for (sub, body) in subs.iter().zip(bodies.iter()) {
        let Some(body) = body else { continue };
        let entries = merge::envelope_data(body)
            .and_then(|d| merge::member(d, "results"))
            .and_then(|r| merge::array_items(r).ok());
        let Some(entries) = entries else {
            return error_resp(
                500,
                "internal",
                "shard batch response missing results",
                inner,
                trace_id,
            );
        };
        if entries.len() != sub.positions.len() {
            return error_resp(
                500,
                "internal",
                "shard returned a mis-sized results array",
                inner,
                trace_id,
            );
        }
        for (&pos, entry) in sub.positions.iter().zip(entries) {
            slots[pos] = Some(entry);
        }
    }
    let mut merged = String::new();
    for (pos, slot) in slots.iter().enumerate() {
        if pos > 0 {
            merged.push(',');
        }
        match slot {
            Some(entry) => merged.push_str(entry),
            None => merged.push_str(&format!(
                "{{\"{key}\":{},\"error\":{{\"kind\":\"{SHARD_UNAVAILABLE}\"}}}}",
                ids[pos]
            )),
        }
    }
    let data = match merge::rebuild_batch_data(&template_data, &merged, ids.len()) {
        Ok(d) => d,
        Err(e) => {
            return error_resp(
                500,
                "internal",
                &format!("cannot merge shard responses: {e}"),
                inner,
                trace_id,
            )
        }
    };
    if failed_shards.is_empty() {
        Response::json(200, envelope(version, trace_id, &data))
    } else {
        // The documented partial envelope: same framing fields, plus a
        // `router` member naming the failed shards, with the affected
        // entries carrying `{"error":{"kind":"shard-unavailable"}}`.
        inner.partials.inc();
        let shards_list =
            failed_shards.iter().map(u32::to_string).collect::<Vec<_>>().join(",");
        Response::json(
            200,
            format!(
                "{}\"router\":{{\"partial\":true,\"failed_shards\":[{shards_list}],\
                 \"kind\":\"{SHARD_UNAVAILABLE}\"}},\"data\":{data}}}\n",
                envelope_head(version, trace_id)
            ),
        )
    }
}

/// The `victim` of one leak-query object, when it is a 32-bit AS number.
fn leak_victim(query: &str) -> Option<u32> {
    merge::member_u64(query, "victim").and_then(|v| u32::try_from(v).ok())
}

/// `POST /v1/whatif/leak`: routed by victim, a `{"queries":[…]}` batch
/// by each query's victim. A body no owner can be read from —
/// unparsable, or a victim that is missing or out of range — goes to any
/// shard for its authoritative 4xx.
fn leak_route(inner: &Inner, req: &Request, trace_id: u64) -> Response {
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return forward_any(inner, req, trace_id);
    };
    let (items, batch) = match merge::member(body, "queries") {
        Some(queries) => match merge::array_items(queries) {
            Ok(items) if !items.is_empty() => (items, true),
            _ => return forward_any(inner, req, trace_id),
        },
        None => (vec![body], false),
    };
    let Some(victims) = items.iter().map(|q| leak_victim(q)).collect::<Option<Vec<u32>>>() else {
        return forward_any(inner, req, trace_id);
    };
    owned_route(inner, req, "victim", &victims, batch, trace_id, |positions| {
        let queries = positions.iter().map(|&p| items[p]).collect::<Vec<_>>().join(",");
        (rebuild_target(req, None), Some(format!("{{\"queries\":[{queries}]}}")))
    })
}

// ---------------------------------------------------------------------
// Control plane: health, metrics, debug, rolling reload.
// ---------------------------------------------------------------------

fn healthz(inner: &Inner) -> Response {
    let healthy = inner.shards.iter().filter(|s| s.healthy()).count();
    let status = if healthy == inner.shards.len() { "ok" } else { "degraded" };
    let addr = inner
        .front
        .local_addr()
        .map(|a| format!("\"{a}\""))
        .unwrap_or_else(|| "null".into());
    Response::json(
        200,
        format!(
            "{{\"status\":\"{status}\",\"router\":true,\"shards\":{},\"healthy_shards\":{healthy},\
             \"snapshot_version\":{},\"addr\":{addr},\"pid\":{}}}\n",
            inner.shards.len(),
            fleet_version(inner),
            std::process::id(),
        ),
    )
}

/// Aggregated `/metrics`: the router's own registry plus every
/// reachable shard's scrape, merged with [`flatnet_obs::Snapshot::merge`]
/// (counters and gauges sum, histograms merge bucket-wise).
fn metrics(inner: &Inner, req: &Request, trace_id: u64) -> Response {
    let mut acc = flatnet_obs::snapshot();
    for shard in &inner.shards {
        if !shard.healthy() {
            continue;
        }
        match shard.upstream.request("GET", "/metrics", None, trace_id) {
            Ok(up) if up.status == 200 => match flatnet_obs::Snapshot::from_json(&up.body) {
                Ok(snap) => acc.merge(&snap),
                Err(e) => {
                    flatnet_obs::warn!("router: shard {} metrics unparsable: {e}", shard.id)
                }
            },
            Ok(up) => flatnet_obs::warn!("router: shard {} metrics: {}", shard.id, up.status),
            Err(e) => flatnet_obs::warn!("router: shard {} metrics scrape failed: {e}", shard.id),
        }
    }
    if req.query_param("format") == Some("prom") {
        Response::text(200, flatnet_obs::to_prometheus(&acc), flatnet_obs::prom::CONTENT_TYPE)
    } else {
        Response::json(200, acc.to_json())
    }
}

fn debug_shards(inner: &Inner, trace_id: u64) -> Response {
    let mut entries = String::new();
    for (i, shard) in inner.shards.iter().enumerate() {
        if i > 0 {
            entries.push(',');
        }
        let (connects, reuse) = shard.upstream.stats();
        let pid = shard.pid.map(|p| p.to_string()).unwrap_or_else(|| "null".into());
        let last_error = shard.last_error();
        let last_error = if last_error.is_empty() {
            "null".to_string()
        } else {
            format!("\"{}\"", escape(&last_error))
        };
        entries.push_str(&format!(
            "{{\"id\":{},\"addr\":\"{}\",\"healthy\":{},\"consecutive_failures\":{},\
             \"snapshot_version\":{},\"pid\":{pid},\"upstream_connects\":{connects},\
             \"upstream_reuse\":{reuse},\"last_error\":{last_error}}}",
            shard.id,
            escape(shard.upstream.addr()),
            shard.healthy(),
            shard.fails(),
            shard.snapshot_version(),
        ));
    }
    let data = format!("{{\"endpoint\":\"shards\",\"shards\":[{entries}]}}");
    Response::json(200, envelope(fleet_version(inner), trace_id, &data))
}

/// `POST /admin/reload` — rolls the fleet one shard at a time. A
/// shard's reload is synchronous: its `200` comes only after the new
/// snapshot passed the shard's own health gate and was swapped in, so
/// the version it names is the one the shard now serves, and the next
/// shard is reloaded only then. A shard that refuses the reload
/// (backoff) or cannot be reached is recorded and skipped.
fn rolling_reload(inner: &Inner, trace_id: u64) -> Response {
    let _guard = inner.reload_lock.lock().unwrap_or_else(|e| e.into_inner());
    let mut entries: Vec<String> = Vec::new();
    let mut reloaded = 0usize;
    for shard in &inner.shards {
        if !shard.healthy() {
            entries.push(format!("{{\"id\":{},\"status\":\"skipped-unhealthy\"}}", shard.id));
            continue;
        }
        match shard.upstream.request("POST", "/admin/reload", None, trace_id) {
            Ok(up) if up.status == 200 => {
                let version = merge::member_u64(&up.body, "snapshot_version").unwrap_or(0);
                shard.set_snapshot_version(version);
                shard.record_ok();
                reloaded += 1;
                entries.push(format!(
                    "{{\"id\":{},\"status\":\"reloaded\",\"snapshot_version\":{version}}}",
                    shard.id
                ));
            }
            Ok(up) => {
                let kind = merge::envelope_error_kind(&up.body).unwrap_or("unavailable");
                entries.push(format!(
                    "{{\"id\":{},\"status\":\"failed\",\"http\":{},\"kind\":\"{}\"}}",
                    shard.id,
                    up.status,
                    escape(kind),
                ));
            }
            Err(e) => {
                shard.record_failure(&format!("reload failed: {e}"));
                entries.push(format!(
                    "{{\"id\":{},\"status\":\"failed\",\"kind\":\"{SHARD_UNAVAILABLE}\"}}",
                    shard.id
                ));
            }
        }
    }
    if reloaded == 0 {
        let mut resp = error_resp(
            503,
            SHARD_UNAVAILABLE,
            "no shard completed the rolling reload",
            inner,
            trace_id,
        );
        resp.retry_after = Some(1);
        return resp;
    }
    let status = if reloaded == inner.shards.len() { "reloaded" } else { "partial" };
    Response::json(
        200,
        format!(
            "{{\"status\":\"{status}\",\"reloaded\":{reloaded},\"shards\":[{}]}}\n",
            entries.join(",")
        ),
    )
}
