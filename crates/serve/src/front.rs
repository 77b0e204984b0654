//! The HTTP front both daemons run: one accept loop, one keep-alive
//! connection loop, one shutdown self-connect. `flatnet serve` queues
//! each accepted socket for a worker that runs [`Front::serve_connection`]
//! on it; `flatnet router` runs the same loop on one thread per
//! connection. What a request means is the caller's [`Handler`];
//! everything between it and the socket — timeouts, idle parking,
//! parsing, trace-id adoption, keep-alive negotiation, the parse-error
//! and panic envelopes, status counters, stage histograms, the trace ring
//! and the `/debug/trace/*` views of it — is here, so a client cannot
//! tell a router from a shard.
//!
//! A connection's first request is read against the budget its caller
//! passes in, capped by the read timeout; a stall is answered `408
//! timeout`. Between requests the loop parks in [`wait_for_request`]
//! (sliced reads, so shutdown waits at most one slice) until bytes
//! arrive, the idle budget runs out (a silent close) or the request
//! budget is spent. Pipelining needs nothing: the parser consumes exactly
//! one request's bytes and leaves the next in the `BufReader`. A front
//! named `serve` records `serve.requests`, `serve.stage_us{stage=…}`, ….

use crate::http::{read_request, wait_for_request, NextRequest, Request, Response};
use crate::json::error_envelope;
use flatnet_obs::trace::{Stage, TraceCtx, TraceDump, Tracer, STAGES};
use flatnet_obs::{Counter, Histogram};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// What a front serves: the part of a request's life that differs
/// between the daemon and the router.
pub trait Handler {
    /// Answers one parsed request, marking the stages it enters. A panic
    /// is caught by the connection loop and answered `500 panic`.
    fn route(&mut self, req: &Request, trace: &mut TraceCtx) -> Response;
    /// The snapshot version the loop's own error envelopes carry.
    fn version(&self) -> u64;
}

/// A front's socket and keep-alive limits.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Read timeout for one request; a stall past it is answered `408`.
    pub read_timeout: Duration,
    /// Write timeout for one response.
    pub write_timeout: Duration,
    /// Requests per connection before the front closes it (0 acts as 1).
    pub keepalive_max: u64,
    /// How long a connection may sit idle between requests.
    pub keepalive_idle: Duration,
}

/// One listening HTTP front: its limits, shutdown flag and bound address,
/// and everything it records.
#[derive(Debug)]
pub struct Front {
    name: &'static str,
    limits: Limits,
    shutdown: AtomicBool,
    local_addr: OnceLock<SocketAddr>,
    /// The ring of recent requests, the slowest-K reservoir, and the id
    /// generator.
    pub tracer: Tracer,
    pub(crate) requests: Counter,
    pub(crate) connections: Counter,
    pub(crate) keepalive_reuse: Counter,
    pub(crate) keepalive_idle_closed: Counter,
    pub(crate) panics: Counter,
    /// Responses by status class: 2xx, 4xx, everything else.
    status: [Counter; 3],
    request_us: Arc<Histogram>,
    /// Indexed by `Stage as usize`; exported as one `<name>_stage_seconds`
    /// family.
    pub(crate) stage_us: [Arc<Histogram>; STAGES],
}

/// A ready-to-write error envelope.
pub fn error_response(status: u16, kind: &str, message: &str, version: u64, id: u64) -> Response {
    Response::json(status, error_envelope(version, id, kind, message))
}

impl Front {
    /// A front whose series are named `<name>.…`, with a trace ring of
    /// `trace_cap` events.
    pub fn new(name: &'static str, limits: Limits, trace_cap: usize) -> Front {
        let reg = flatnet_obs::global();
        let counter = |what: &str| reg.counter(&format!("{name}.{what}"));
        Front {
            name,
            limits,
            shutdown: AtomicBool::new(false),
            local_addr: OnceLock::new(),
            tracer: Tracer::new(trace_cap),
            requests: counter("requests"),
            connections: counter("connections"),
            keepalive_reuse: counter("keepalive_reuse"),
            keepalive_idle_closed: counter("keepalive_idle_closed"),
            panics: counter("worker_panics"),
            status: ["http_2xx", "http_4xx", "http_5xx"].map(counter),
            request_us: reg.histogram(&format!("{name}.request_us")),
            stage_us: std::array::from_fn(|i| {
                reg.histogram(&format!("{name}.stage_us{{stage=\"{}\"}}", Stage::ALL[i].name()))
            }),
        }
    }

    /// Binds the listener and records the bound address (port 0
    /// resolved) for [`Front::stop`].
    pub fn listen(&self, addr: &str) -> std::io::Result<(TcpListener, SocketAddr)> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        let _ = self.local_addr.set(bound);
        Ok((listener, bound))
    }

    /// The address [`Front::listen`] bound.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr.get().copied()
    }

    /// Whether [`Front::stop`] was called.
    pub fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Flags shutdown and wakes the accept loop with a throwaway
    /// connection to the bound address; parked connections see the flag
    /// within one idle slice. After the accept loop returned, the
    /// connection is refused.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(addr) = self.local_addr() {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        }
    }

    /// Accepts until [`Front::stop`], handing each socket to `hand_off`
    /// with `TCP_NODELAY` set (a response is one write; Nagle only adds
    /// latency). Transient errors (EMFILE, ECONNABORTED) back off.
    pub fn accept(&self, listener: TcpListener, mut hand_off: impl FnMut(TcpStream)) {
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if self.stopping() {
                        return; // the wake-up connection, or a late client
                    }
                    stream.set_nodelay(true).ok();
                    hand_off(stream);
                }
                Err(e) => {
                    if self.stopping() {
                        return;
                    }
                    flatnet_obs::warn!("{} accept error: {e}", self.name);
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    }

    /// Serves one connection for its whole life. `first` is the first
    /// request's trace context, opened at accept, and `first_budget` what
    /// is left of its read budget; later requests open their own context
    /// when their bytes arrive. A route that panics is answered `500` and
    /// closes the connection.
    pub fn serve_connection<H: Handler>(
        &self,
        stream: &TcpStream,
        first: TraceCtx,
        first_budget: Duration,
        handler: &mut H,
    ) {
        self.connections.inc();
        let mut reader = BufReader::new(stream);
        let mut pending = Some((first, first_budget));
        let mut served: u64 = 0;
        loop {
            let (mut trace, budget) = match pending.take() {
                Some(first) => first,
                None => {
                    let mut trace = TraceCtx::new(self.tracer.next_id());
                    let idle = self.limits.keepalive_idle;
                    match wait_for_request(&mut reader, idle, &self.shutdown) {
                        NextRequest::Data => trace.mark(Stage::KeepaliveIdle),
                        NextRequest::Idle => {
                            self.keepalive_idle_closed.inc();
                            return;
                        }
                        NextRequest::Gone => return,
                    }
                    self.keepalive_reuse.inc();
                    (trace, self.limits.read_timeout)
                }
            };
            self.requests.inc();
            // The parser maps a timed-out read to a 408 (see `crate::http`).
            let _ = stream.set_read_timeout(Some(budget.min(self.limits.read_timeout)));
            let _ = stream.set_write_timeout(Some(self.limits.write_timeout));
            served += 1;
            let resp = match read_request(&mut reader) {
                Ok(None) => return, // peer connected and left; nothing to answer
                Ok(Some(req)) => {
                    trace.mark(Stage::Parse);
                    // Adopt a router's (or client's) trace id so the hops'
                    // traces stitch; garbage leaves the local id standing.
                    if let Some(id) = req.trace_id() {
                        trace.set_id(id);
                    }
                    let keep = served < self.limits.keepalive_max
                        && req.wants_keep_alive()
                        && !self.stopping();
                    match catch_unwind(AssertUnwindSafe(|| handler.route(&req, &mut trace))) {
                        Ok(mut resp) => {
                            resp.close = !keep;
                            resp.chunked_ok = !req.http10;
                            resp
                        }
                        Err(_) => {
                            // Answer, close (the framing is suspect too) and
                            // still trace it, the rest charged to `panic`.
                            self.panics.inc();
                            trace.mark(Stage::Panic);
                            let version = handler.version();
                            error_response(500, "panic", "internal error", version, trace.id())
                        }
                    }
                }
                Err(e) if e.wants_response() => {
                    // Framing is unknown after a parse error, so the
                    // response closes the connection (`close` defaults on).
                    trace.mark(Stage::Parse);
                    trace.set_tag("parse_error");
                    error_response(e.status, e.kind(), &e.reason, handler.version(), trace.id())
                }
                Err(_) => return,
            };
            if self.finish(stream, resp, &mut trace) {
                return;
            }
        }
    }

    /// `GET /debug/trace/recent[?n=K]` — the most recent stable trace
    /// events, newest first — or `GET /debug/trace/slow[?ms=N][&n=K]` —
    /// the slowest-K reservoir, optionally floored at `ms` milliseconds,
    /// slowest first — as a `flatnet-trace/v1` document of this front's
    /// ring. `Err` is a bad parameter, for the caller's `400`.
    pub fn trace_dump(&self, req: &Request) -> Result<Response, String> {
        let events = if req.path == "/debug/trace/slow" {
            let ms = query_u64(req, "ms", 0, u64::MAX / 1000)?;
            self.tracer.slow(ms * 1000, query_u64(req, "n", Tracer::SLOW_K as u64, 4096)? as usize)
        } else {
            self.tracer.recent(query_u64(req, "n", 64, 4096)? as usize)
        };
        Ok(Response::json(200, TraceDump { events }.to_json()))
    }

    /// Stamps the trace id onto `resp`, writes it (best effort), counts
    /// its status class, and records the request: each entered stage into
    /// its histogram (tagged, so a bucket's exemplar names the request),
    /// the total into `request_us`, the event into the ring. Returns
    /// whether the connection closed. Backpressure `503`s written outside
    /// the loop go out through it too.
    pub fn finish(&self, stream: &TcpStream, mut resp: Response, trace: &mut TraceCtx) -> bool {
        let status = resp.status;
        let class = match status {
            200..=299 => 0,
            400..=499 => 1,
            _ => 2,
        };
        self.status[class].inc();
        resp.trace_id = Some(trace.id());
        trace.mark(Stage::Serialize); // header assembly + body built since the last mark
        let closed = resp.write_to(&mut &*stream).unwrap_or(true);
        trace.mark(Stage::Write);
        let ev = trace.finish(status);
        for stage in Stage::ALL {
            if let Some(us) = ev.stage_us(stage) {
                self.stage_us[stage as usize].record_us_tagged(us, ev.trace_id, ev.origin as u64);
            }
        }
        self.request_us.record_us_tagged(ev.total_us, ev.trace_id, ev.origin as u64);
        self.tracer.record(ev);
        closed
    }
}

/// Parses a bounded positive integer query parameter.
fn query_u64(req: &Request, name: &str, default: u64, max: u64) -> Result<u64, String> {
    match req.query_param(name).map(str::parse) {
        None => Ok(default),
        Some(Ok(v)) => Ok(std::cmp::min(v, max)),
        Some(Err(_)) => Err(format!("bad '{name}' (want a number)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use std::io::{Read as _, Write as _};

    /// Answers `/ok` and panics on anything else.
    struct Panicky;

    impl Handler for Panicky {
        fn route(&mut self, req: &Request, _trace: &mut TraceCtx) -> Response {
            assert_eq!(req.path, "/ok", "a route that panics");
            Response::json(200, "{}\n".into())
        }

        fn version(&self) -> u64 {
            7
        }
    }

    /// A route that panics on a live keep-alive connection is answered
    /// with a `500 panic` envelope that names the request's trace id in
    /// its body and header, the connection closes behind it, and the
    /// panic counter moves by one.
    #[test]
    fn a_panicking_route_is_a_traced_500_that_closes_its_connection() {
        let limits = Limits {
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            keepalive_max: 16,
            keepalive_idle: Duration::from_secs(5),
        };
        // A name of its own: no other test in this binary moves its counters.
        let front = Front::new("front_test", limits, 16);
        let (listener, addr) = front.listen("127.0.0.1:0").expect("bind");
        let panics_before = front.panics.get();
        std::thread::scope(|s| {
            s.spawn(|| {
                front.accept(listener, |stream| {
                    let first = TraceCtx::new(front.tracer.next_id());
                    front.serve_connection(&stream, first, Duration::MAX, &mut Panicky);
                })
            });
            let mut conn = flatnet_wire::Client::new(addr.to_string(), Duration::from_secs(10))
                .dial()
                .expect("connect");
            write!(conn, "GET /ok HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            let ok = conn.recv().expect("a response");
            assert!(ok.status == 200 && !ok.close, "{}", ok.head);
            write!(conn, "GET /boom HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            let reply = conn.recv().expect("an answer, not a dropped connection");
            assert_eq!(reply.status, 500);
            assert!(reply.close, "a panic must close the connection: {}", reply.head);
            let doc = parse(&reply.body).expect("an envelope");
            let error = doc.get("error").expect("an error member");
            assert_eq!(error.get("kind").and_then(Json::as_str), Some("panic"));
            assert_eq!(doc.get("snapshot_version").and_then(Json::as_u64), Some(7));
            let id = doc.get("trace_id").and_then(Json::as_str).expect("a trace id").to_string();
            assert!(reply.head.contains(&format!("X-Flatnet-Trace-Id: {id}")), "{}", reply.head);
            let mut rest = Vec::new();
            conn.read_to_end(&mut rest).expect("a clean close");
            assert!(rest.is_empty(), "{rest:?}");
            front.stop();
        });
        assert_eq!(front.panics.get() - panics_before, 1);
        let ev = front.tracer.recent(1)[0];
        assert!(ev.panicked && ev.status == 500, "{ev:?}");
        assert!(ev.stage_us(Stage::Panic).is_some(), "{ev:?}");
    }
}
