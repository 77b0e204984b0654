//! Request-scoped tracing, end to end over real TCP: every response
//! carries an `X-Flatnet-Trace-Id` header, the `/debug/trace/*`
//! endpoints expose the recorded events, `/metrics` carries the queue
//! and worker series and speaks Prometheus text when asked, a panicking worker still emits a
//! terminal trace event (stage `panic`) without wedging the server, and
//! the `Connection` header follows per-connection keep-alive
//! negotiation.

use flatnet_netgen::{generate, NetGenConfig};
use flatnet_obs::TraceDump;
use flatnet_serve::json::{parse, Json};
use flatnet_serve::{ServeConfig, Server, TopologySource};
use flatnet_wire::Client;
use std::io::Write;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn client(addr: SocketAddr) -> Client {
    Client::new(addr.to_string(), Duration::from_secs(30))
}

/// One round trip, returning (status, header block, body).
fn fetch_raw(addr: SocketAddr, method: &str, path: &str) -> (u16, String, String) {
    // Deliberately no `Connection: close` request header: dropping the
    // connection below reads as EOF at the server's next request
    // boundary, so it still winds down promptly under keep-alive.
    let mut conn = client(addr).dial().expect("connect");
    write!(conn, "{method} {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let reply = conn.recv().expect("framed response");
    (reply.status, reply.head, reply.body)
}

fn header<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.eq_ignore_ascii_case(name).then(|| v.trim())
    })
}

fn trace_id_of(head: &str) -> u64 {
    let hex = header(head, "X-Flatnet-Trace-Id")
        .unwrap_or_else(|| panic!("missing X-Flatnet-Trace-Id in {head:?}"));
    assert_eq!(hex.len(), 16, "trace id {hex:?} is not 16 hex chars");
    u64::from_str_radix(hex, 16).unwrap_or_else(|e| panic!("bad trace id {hex:?}: {e}"))
}

/// Polls `/debug/trace/recent` until `pred` matches an event (traces
/// are recorded just after the response bytes are written, so the
/// client can outrun the ring by a hair).
fn wait_for_event(
    addr: SocketAddr,
    pred: impl Fn(&flatnet_obs::TraceEvent) -> bool,
) -> flatnet_obs::TraceEvent {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, _, body) = fetch_raw(addr, "GET", "/debug/trace/recent?n=256");
        assert_eq!(status, 200);
        let dump = TraceDump::from_json(&body).expect("flatnet-trace/v1 dump");
        if let Some(ev) = dump.events.iter().find(|e| pred(e)) {
            return *ev;
        }
        assert!(Instant::now() < deadline, "trace event never surfaced");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn start_server() -> Server {
    let net = generate(&NetGenConfig::paper_2020(300, 11));
    let tiers = net.tiers_for(&net.truth);
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        source: TopologySource::Preloaded { graph: net.truth, tiers },
        ..ServeConfig::default()
    })
    .expect("server starts")
}

#[test]
fn responses_carry_trace_ids_and_debug_endpoints_expose_them() {
    let server = start_server();
    let addr = server.addr();

    // Find an origin the topology actually has via a ranked query.
    let (status, head, body) = fetch_raw(addr, "GET", "/v1/reachability?origin=1");
    let id = trace_id_of(&head);
    let doc = parse(&body).expect("json body");
    // Whether AS1 exists or not, the request is traced.
    assert!(status == 200 || status == 404, "unexpected status {status}: {doc:?}");

    let ev = wait_for_event(addr, |e| e.trace_id == id);
    assert_eq!(ev.tag_str(), "reachability");
    assert!(!ev.panicked);
    assert!(
        ev.stage_us(flatnet_obs::Stage::QueueWait).is_some(),
        "queue_wait stage missing from {ev:?}"
    );
    assert!(ev.stage_us(flatnet_obs::Stage::Write).is_some(), "write stage missing from {ev:?}");

    // /debug/trace/slow returns the same document shape, slowest first.
    let (status, _, body) = fetch_raw(addr, "GET", "/debug/trace/slow?ms=0");
    assert_eq!(status, 200);
    let slow = TraceDump::from_json(&body).expect("slow dump parses");
    assert!(!slow.events.is_empty(), "slow reservoir should have events by now");
    for pair in slow.events.windows(2) {
        assert!(pair[0].total_us >= pair[1].total_us, "slow dump not sorted");
    }

    // /metrics: queue depth, queue-wait percentiles, worker utilization
    // and the answered-request count are registry series.
    let (status, _, body) = fetch_raw(addr, "GET", "/metrics");
    assert_eq!(status, 200);
    let m = parse(&body).expect("metrics json");
    let series = |section: &str, name: &str| m.get(section).and_then(|s| s.get(name));
    assert!(series("gauges", "serve.queue_depth").is_some(), "no queue depth gauge");
    let wait = series("histograms", "serve.stage_us{stage=\"queue_wait\"}").expect("queue_wait");
    assert!(wait.get("count").and_then(Json::as_u64).unwrap() >= 1);
    for pct in ["p50_us", "p90_us", "p99_us"] {
        assert!(wait.get(pct).and_then(Json::as_u64).is_some(), "missing {pct}");
    }
    let counters = m.get("counters").and_then(Json::as_object).expect("counters");
    let busy = counters.iter().filter(|(k, _)| k.starts_with("serve.worker_busy_us{worker="));
    assert_eq!(busy.count(), 2);
    assert!(series("counters", "serve.http_2xx").and_then(Json::as_u64).unwrap() >= 1);

    server.shutdown();
}

#[test]
fn metrics_speaks_prometheus_when_asked() {
    let server = start_server();
    let addr = server.addr();

    // Drive one real query so the stage histograms have samples.
    let (_, _, _) = fetch_raw(addr, "GET", "/v1/reachability?origin=1");

    let (status, head, body) = fetch_raw(addr, "GET", "/metrics?format=prom");
    assert_eq!(status, 200);
    assert_eq!(header(&head, "Content-Type"), Some("text/plain; version=0.0.4"));
    assert!(body.contains("# TYPE serve_stage_seconds histogram"), "missing stage family");
    assert!(
        body.contains("serve_stage_seconds_bucket{stage=\"queue_wait\""),
        "missing queue_wait series"
    );
    assert!(body.contains("le=\"+Inf\""), "missing overflow bucket");
    assert!(body.contains("# TYPE serve_cache_bytes gauge"), "missing the cache gauge");
    assert!(body.contains(" # {trace_id="), "no bucket line carries an exemplar");

    // Unknown formats are rejected; default stays JSON.
    let (status, _, _) = fetch_raw(addr, "GET", "/metrics?format=xml");
    assert_eq!(status, 400);
    let (status, _, body) = fetch_raw(addr, "GET", "/metrics");
    assert_eq!(status, 200);
    assert!(parse(&body).is_ok(), "bare /metrics must stay JSON");

    server.shutdown();
}

#[test]
fn panicking_worker_emits_terminal_trace_and_server_survives() {
    let server = start_server();
    let addr = server.addr();

    // Repeated panics: each one must come back as a traced 500, not a
    // dropped connection, and must not leak a worker or a ring slot.
    let mut ids = Vec::new();
    for i in 0..8 {
        let (status, head, _) = fetch_raw(addr, "GET", "/debug/panic");
        assert_eq!(status, 500, "panic #{i} should surface as a 500");
        ids.push(trace_id_of(&head));
    }

    // The terminal event for a panicked request names the panic stage.
    let ev = wait_for_event(addr, |e| e.trace_id == ids[0]);
    assert!(ev.panicked, "event not flagged panicked: {ev:?}");
    assert_eq!(ev.status, 500);
    assert_eq!(ev.tag_str(), "panic");
    assert!(
        ev.stage_us(flatnet_obs::Stage::Panic).is_some(),
        "panic stage missing from {ev:?}"
    );

    // Every panic produced its own event — no ring slots were leaked
    // or reused for the wrong request.
    for &id in &ids {
        let ev = wait_for_event(addr, move |e| e.trace_id == id);
        assert!(ev.panicked);
    }

    // The pool is still healthy: real queries keep answering, and the
    // trailing trace is an ordinary non-panicked one.
    let (status, _, _) = fetch_raw(addr, "GET", "/healthz");
    assert_eq!(status, 200);
    let (status, head, _) = fetch_raw(addr, "GET", "/v1/reachability?origin=1");
    assert!(status == 200 || status == 404);
    let after = wait_for_event(addr, {
        let id = trace_id_of(&head);
        move |e| e.trace_id == id
    });
    assert!(!after.panicked, "post-panic request wrongly flagged: {after:?}");

    server.shutdown();
}

#[test]
fn connection_header_follows_keep_alive_negotiation() {
    let server = start_server();
    let addr = server.addr();
    for path in ["/healthz", "/metrics"] {
        // An HTTP/1.1 request without a Connection header negotiates
        // keep-alive.
        let (status, head, _) = fetch_raw(addr, "GET", path);
        assert_eq!(status, 200, "{path}");
        assert_eq!(
            header(&head, "Connection"),
            Some("keep-alive"),
            "{path} must advertise the negotiated keep-alive"
        );

        // `Connection: close` is still respected, and advertised back.
        let head = client(addr).one_shot("GET", path).expect("round trip").head;
        assert_eq!(
            header(&head, "Connection"),
            Some("close"),
            "{path} must honor Connection: close"
        );
    }
    server.shutdown();
}
