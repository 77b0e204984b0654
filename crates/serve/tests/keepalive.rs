//! Keep-alive connection lifecycle over real TCP: pipelined
//! back-to-back requests through the bounded parser, request bytes
//! split across syscalls, the idle timeout closing quiet connections,
//! a stalled request answered 408, the two backpressure 503s (a full
//! queue, a deadline spent queued), `Connection: close` honored
//! mid-stream, the per-connection request budget, and the batch/singles
//! differential that pins `origins=` batch answers bit-identical to N
//! separate `origin=` queries. The cases that hold at the router's fixed
//! limits run against a router over one daemon too: both run one front.

use flatnet_netgen::{generate, NetGenConfig};
use flatnet_router::{Router, RouterConfig};
use flatnet_serve::json::{parse, Json};
use flatnet_serve::{ServeConfig, Server, TopologySource};
use flatnet_wire::{Client, Conn};
use std::io::{Read, Write};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Reads one framed response off a persistent connection. Returns
/// (status, headers, body, server will close).
fn recv(conn: &mut Conn) -> (u16, String, String, bool) {
    let r = conn.recv().expect("framed response");
    (r.status, r.head, r.body, r.close)
}

fn connect(addr: SocketAddr) -> Conn {
    Client::new(addr.to_string(), Duration::from_secs(30)).dial().expect("connect")
}

/// Issues one request on an established keep-alive connection.
fn request(conn: &mut Conn, path: &str) -> (u16, String, String, bool) {
    write!(conn, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    recv(conn)
}

fn start_server(cfg_tweak: impl FnOnce(&mut ServeConfig)) -> Server {
    let net = generate(&NetGenConfig::paper_2020(300, 17));
    let tiers = net.tiers_for(&net.truth);
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        source: TopologySource::Preloaded { graph: net.truth, tiers },
        ..ServeConfig::default()
    };
    cfg_tweak(&mut cfg);
    Server::start(cfg).expect("server starts")
}

/// Runs `check` against both fronts: a lone daemon, then a router whose
/// one shard is that daemon.
fn on_both_fronts(check: impl Fn(SocketAddr)) {
    let server = start_server(|_| {});
    check(server.addr());
    let router = Router::start(RouterConfig {
        addr: "127.0.0.1:0".into(),
        shard_addrs: vec![server.addr().to_string()],
        probe_interval_ms: 0,
        ..RouterConfig::default()
    })
    .expect("router starts");
    check(router.addr());
    router.shutdown();
    server.shutdown();
}

/// Some origins that actually exist in the seed-17 topology.
fn known_origins(n: usize) -> Vec<u32> {
    let net = generate(&NetGenConfig::paper_2020(300, 17));
    let total = net.truth.len();
    let step = (total / n).max(1);
    net.truth.asns().step_by(step).take(n).map(|a| a.0).collect()
}

fn data_of(doc: &Json) -> &Json {
    doc.get("data").expect("enveloped /v1 response")
}

/// The `error.kind` of an error envelope.
fn error_kind(body: &str) -> Option<String> {
    let doc = parse(body).ok()?;
    doc.get("error")?.get("kind")?.as_str().map(str::to_string)
}

/// A one-worker daemon whose worker is bound to the returned idle
/// keep-alive connection (a worker serves its connection for life).
fn held_server(cfg_tweak: impl FnOnce(&mut ServeConfig)) -> (Server, Conn) {
    let server = start_server(|cfg| {
        cfg.workers = 1;
        cfg_tweak(cfg);
    });
    let mut holder = connect(server.addr());
    assert_eq!(request(&mut holder, "/healthz").0, 200);
    (server, holder)
}

#[test]
fn many_requests_reuse_one_connection_and_responses_stay_ordered() {
    let origins = known_origins(6);
    on_both_fronts(|addr| {
        let mut conn = connect(addr);
        for (i, &o) in origins.iter().enumerate().cycle().take(24) {
            let (status, head, body, close) =
                request(&mut conn, &format!("/v1/reachability?origin={o}"));
            assert_eq!(status, 200, "request {i}: {body}");
            assert!(!close, "request {i} must not close a healthy keep-alive connection");
            assert!(head.contains("Connection: keep-alive"), "request {i}: {head}");
            let doc = parse(&body).expect("json");
            // Responses arrive in request order: the answer names the
            // origin we just asked for, not a neighbor's.
            assert_eq!(
                data_of(&doc).get("origin").and_then(Json::as_u64),
                Some(o as u64),
                "request {i} got another request's answer"
            );
        }
    });
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let origins = known_origins(5);
    // Write all requests before reading anything: the parser must
    // consume exactly one request's bytes per iteration, leaving the
    // rest buffered for the next loop turn.
    let mut batch = String::new();
    for &o in &origins {
        use std::fmt::Write as _;
        let _ = write!(batch, "GET /v1/reachability?origin={o} HTTP/1.1\r\nHost: t\r\n\r\n");
    }
    on_both_fronts(|addr| {
        let mut conn = connect(addr);
        conn.write_all(batch.as_bytes()).unwrap();
        for &o in &origins {
            let (status, _, body, close) = recv(&mut conn);
            assert_eq!(status, 200, "{body}");
            assert!(!close);
            let doc = parse(&body).expect("json");
            assert_eq!(data_of(&doc).get("origin").and_then(Json::as_u64), Some(o as u64));
        }
    });
}

#[test]
fn request_bytes_split_across_syscalls_parse_fine() {
    let origin = known_origins(1)[0];
    let req = format!("GET /v1/reachability?origin={origin} HTTP/1.1\r\nHost: t\r\n\r\n");
    on_both_fronts(|addr| {
        let mut conn = connect(addr);
        // Dribble the request a few bytes per write, with pauses long
        // enough that the server's reader sees many short reads — but
        // well inside the io timeout, so this must NOT trip the 408 path.
        for piece in req.as_bytes().chunks(7) {
            conn.write_all(piece).unwrap();
            conn.flush().unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        let (status, _, body, close) = recv(&mut conn);
        assert_eq!(status, 200, "{body}");
        assert!(!close, "a slow but complete request must keep the connection open");

        // The connection is still usable afterwards.
        let (status, _, _, _) = request(&mut conn, "/healthz");
        assert_eq!(status, 200);
    });
}

#[test]
fn idle_connections_are_closed_cleanly_after_the_idle_timeout() {
    let server = start_server(|cfg| cfg.keepalive_idle_ms = 300);
    let addr = server.addr();

    let mut conn = connect(addr);
    let (status, _, _, close) = request(&mut conn, "/healthz");
    assert_eq!(status, 200);
    assert!(!close);

    // Go quiet: the server must close the connection on its own — a
    // clean EOF, not an error byte or a 408 response.
    let t0 = Instant::now();
    let mut leftover = Vec::new();
    conn.read_to_end(&mut leftover).expect("clean close, not a reset");
    assert!(leftover.is_empty(), "idle close must not write anything: {leftover:?}");
    let waited = t0.elapsed();
    assert!(
        waited >= Duration::from_millis(250),
        "closed too early ({waited:?}) — idle timeout is 300ms"
    );
    assert!(
        waited < Duration::from_secs(10),
        "idle close took {waited:?}, timeout is 300ms"
    );
    server.shutdown();
}

#[test]
fn a_stalled_request_is_answered_408_once_the_io_timeout_runs_out() {
    let server = start_server(|cfg| cfg.io_timeout_ms = 300);
    let mut conn = connect(server.addr());
    // Half a request line, then silence: the worker must not wait out
    // the whole 5 s deadline, nor drop the client without a word.
    let t0 = Instant::now();
    conn.write_all(b"GET /healthz HT").unwrap();
    let (status, _, body, close) = recv(&mut conn);
    let waited = t0.elapsed();
    assert_eq!(status, 408, "{body}");
    assert!(close, "a timed-out request closes its connection");
    assert_eq!(error_kind(&body).as_deref(), Some("timeout"), "{body}");
    assert!(waited < Duration::from_secs(2), "the 408 took {waited:?}, the io timeout is 300ms");
    server.shutdown();
}

/// With the one worker held, a second connection waits in the queue and
/// a third finds it full: the accept thread answers it `503 queue-full`.
#[test]
fn a_connection_beyond_the_queue_cap_is_answered_503_queue_full() {
    let rejected = flatnet_obs::counter("serve.queue_rejected");
    let before = rejected.get();
    let (server, holder) = held_server(|cfg| cfg.queue_cap = 1);
    let queued = connect(server.addr());
    let mut third = connect(server.addr());
    let (status, head, body, _) = recv(&mut third);
    assert_eq!(status, 503, "{body}");
    assert_eq!(error_kind(&body).as_deref(), Some("queue-full"), "{body}");
    assert!(head.contains("Retry-After: 1\n"), "{head}");
    assert_eq!(rejected.get() - before, 1);
    // The queued connection leaves first, so the freed worker finds it gone.
    drop((queued, third, holder));
    server.shutdown();
}

/// A connection that waits in the queue past the deadline is answered
/// `503 deadline` by the worker that finally pops it, without a read.
#[test]
fn a_connection_queued_past_the_deadline_is_answered_503_deadline() {
    let expired = flatnet_obs::counter("serve.deadline_expired");
    let before = expired.get();
    let (server, holder) = held_server(|cfg| cfg.deadline_ms = 200);
    let mut queued = connect(server.addr());
    std::thread::sleep(Duration::from_millis(400));
    drop(holder);
    let (status, head, body, _) = recv(&mut queued);
    assert_eq!(status, 503, "{body}");
    assert_eq!(error_kind(&body).as_deref(), Some("deadline"), "{body}");
    assert!(head.contains("Retry-After: 1\n"), "{head}");
    assert_eq!(expired.get() - before, 1);
    server.shutdown();
}

#[test]
fn connection_close_mid_stream_is_honored() {
    let origin = known_origins(1)[0];
    on_both_fronts(|addr| {
        let mut conn = connect(addr);
        for _ in 0..3 {
            let (status, _, _, close) =
                request(&mut conn, &format!("/v1/reachability?origin={origin}"));
            assert_eq!(status, 200);
            assert!(!close);
        }
        // Now ask to close: the response must carry `Connection: close`
        // and the server must actually hang up after it.
        write!(conn, "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
        let (status, head, _, close) = recv(&mut conn);
        assert_eq!(status, 200);
        assert!(close, "Connection: close must be advertised back: {head}");
        let mut leftover = Vec::new();
        conn.read_to_end(&mut leftover).expect("clean close");
        assert!(leftover.is_empty());
    });
}

#[test]
fn per_connection_request_budget_closes_after_the_limit() {
    let server = start_server(|cfg| cfg.keepalive_max = 3);
    let addr = server.addr();

    let mut conn = connect(addr);
    for i in 0..3 {
        let (status, _, _, close) = request(&mut conn, "/healthz");
        assert_eq!(status, 200);
        if i < 2 {
            assert!(!close, "request {i} is inside the budget");
        } else {
            assert!(close, "request {i} exhausts the budget of 3");
        }
    }
    let mut leftover = Vec::new();
    conn.read_to_end(&mut leftover).expect("clean close");
    assert!(leftover.is_empty());

    // A fresh connection gets a fresh budget.
    let mut conn = connect(addr);
    let (status, _, _, close) = request(&mut conn, "/healthz");
    assert_eq!(status, 200);
    assert!(!close);
    server.shutdown();
}

#[test]
fn batch_answers_are_bit_identical_to_singles() {
    let server = start_server(|_| {});
    let addr = server.addr();
    let origins = known_origins(8);
    let list = origins.iter().map(|o| o.to_string()).collect::<Vec<_>>().join(",");

    for (suffix, field) in [("", "reachable"), ("&detail=full", "reach")] {
        // N singles first (also warms the cache), then the batch; the
        // batch path solves misses through the lane kernel, so equality
        // here pins kernel answers to the scalar reference.
        let mut singles = Vec::new();
        for &o in &origins {
            let mut conn = connect(addr);
            let (status, _, body, _) =
                request(&mut conn, &format!("/v1/reachability?origin={o}{suffix}"));
            assert_eq!(status, 200, "{body}");
            singles.push(parse(&body).expect("json"));
        }
        let mut conn = connect(addr);
        let (status, _, body, _) =
            request(&mut conn, &format!("/v1/reachability?origins={list}{suffix}"));
        assert_eq!(status, 200, "{body}");
        let doc = parse(&body).expect("batch json");
        let results = data_of(&doc).get("results").and_then(Json::as_array).expect("results");
        assert_eq!(results.len(), origins.len());
        for ((single, batch_entry), &o) in singles.iter().zip(results).zip(&origins) {
            let single = data_of(single);
            assert_eq!(batch_entry.get("origin").and_then(Json::as_u64), Some(o as u64));
            assert_eq!(
                single.get("reachable").and_then(Json::as_u64),
                batch_entry.get("reachable").and_then(Json::as_u64),
                "AS{o}: batch reachable count differs from the single query"
            );
            if field == "reach" {
                let a = single.get("reach").and_then(Json::as_array).expect("single reach");
                let b =
                    batch_entry.get("reach").and_then(Json::as_array).expect("batch reach");
                assert_eq!(a.len(), b.len(), "AS{o}: reach set size differs");
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(
                        x.as_u64(),
                        y.as_u64(),
                        "AS{o}: reach set differs between batch and single"
                    );
                }
            }
        }
    }

    // An uncached batch must agree too: ask for origins the cache has
    // never seen by using a different exclusion policy.
    let mut conn = connect(addr);
    let (status, _, body, _) = request(
        &mut conn,
        &format!("/v1/reachability?origins={list}&exclude=tier1"),
    );
    assert_eq!(status, 200, "{body}");
    let batch_doc = parse(&body).expect("json");
    for (entry, &o) in
        data_of(&batch_doc).get("results").and_then(Json::as_array).unwrap().iter().zip(&origins)
    {
        let mut conn = connect(addr);
        let (status, _, body, _) =
            request(&mut conn, &format!("/v1/reachability?origin={o}&exclude=tier1"));
        assert_eq!(status, 200);
        let single = parse(&body).expect("json");
        assert_eq!(
            data_of(&single).get("reachable").and_then(Json::as_u64),
            entry.get("reachable").and_then(Json::as_u64),
            "AS{o}: excluded-policy batch differs from single"
        );
    }
    server.shutdown();
}

/// The router's upstream pool is a client-side mirror of the keep-alive
/// contract this file pins server-side: N single-origin requests
/// through an in-process router must ride pooled persistent connections
/// to the shards, dialing at most once per shard. The reuse counter has
/// to account for everything else.
#[test]
fn router_pools_upstream_connections() {
    let reg = flatnet_obs::global();
    let reuse_before = reg.counter("router.upstream_reuse").get();
    let connects_before = reg.counter("router.upstream_connects").get();

    let shards: Vec<Server> = (0..3)
        .map(|i| start_server(|cfg| cfg.shard = Some((i, 3))))
        .collect();
    let router = Router::start(RouterConfig {
        addr: "127.0.0.1:0".into(),
        shard_addrs: shards.iter().map(|s| s.addr().to_string()).collect(),
        // No background prober: only the data path may move the
        // upstream counters, so the arithmetic below is exact.
        probe_interval_ms: 0,
        ..RouterConfig::default()
    })
    .expect("router starts");

    const REQUESTS: usize = 30;
    let origins = known_origins(6);
    let mut conn = connect(router.addr());
    for (i, &o) in origins.iter().cycle().take(REQUESTS).enumerate() {
        let (status, _, body, close) =
            request(&mut conn, &format!("/v1/reachability?origin={o}"));
        assert_eq!(status, 200, "request {i}: {body}");
        assert!(!close, "request {i} closed the client keep-alive connection");
    }

    let reuse = reg.counter("router.upstream_reuse").get() - reuse_before;
    let connects = reg.counter("router.upstream_connects").get() - connects_before;
    // Every request is one checkout — a dial or a pool hit — plus at
    // most a rare stale-retry dial, never a per-request dial.
    assert!(
        reuse + connects >= REQUESTS as u64,
        "checkout accounting broken: {connects} dials + {reuse} reuses < {REQUESTS} requests"
    );
    assert!(
        reuse >= (REQUESTS - shards.len()) as u64,
        "pooled upstream connections were not reused: \
         {connects} dials / {reuse} reuses over {REQUESTS} requests"
    );

    router.shutdown();
    for s in shards {
        s.shutdown();
    }
}
