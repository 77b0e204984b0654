//! The router records what a shard records, under `router.`: requests
//! through it land in its status counters, its `request_us` histogram
//! and its `propagate` stage (upstream exchange plus merge), and in the
//! trace ring its own `/debug/trace/*` serves. A test binary of its own,
//! and deltas compared with `>=`, because the metrics registry is
//! process-wide.

use flatnet_netgen::{generate, NetGenConfig};
use flatnet_obs::TraceDump;
use flatnet_router::{Router, RouterConfig};
use flatnet_serve::{ServeConfig, Server, TopologySource};
use flatnet_wire::Client;
use std::io::Write;
use std::time::{Duration, Instant};

/// A one-shard fleet over a small generated topology, and an AS in it.
fn fleet() -> (Server, Router, u32) {
    let net = generate(&NetGenConfig::paper_2020(300, 17));
    let tiers = net.tiers_for(&net.truth);
    let origin = net.truth.asns().next().expect("an AS").0;
    let shard = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        source: TopologySource::Preloaded { graph: net.truth, tiers },
        ..ServeConfig::default()
    })
    .expect("shard starts");
    let router = Router::start(RouterConfig {
        addr: "127.0.0.1:0".into(),
        shard_addrs: vec![shard.addr().to_string()],
        probe_interval_ms: 0,
        ..RouterConfig::default()
    })
    .expect("router starts");
    (shard, router, origin)
}

#[test]
fn requests_through_a_router_land_in_its_counters_and_histograms() {
    let (shard, router, origin) = fleet();

    let reg = flatnet_obs::global();
    let ok = reg.counter("router.http_2xx");
    let total = reg.histogram("router.request_us");
    let upstream = reg.histogram("router.stage_us{stage=\"propagate\"}");
    let before = (ok.get(), total.count(), upstream.count());

    const N: u64 = 20;
    let mut conn = Client::new(router.addr().to_string(), Duration::from_secs(30))
        .dial()
        .expect("connect");
    // One request more than counted: a request is recorded just after
    // its response is written, and the connection's thread records it
    // before it reads the next one.
    for i in 0..=N {
        write!(conn, "GET /v1/reachability?origin={origin} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let reply = conn.recv().expect("a response");
        assert_eq!(reply.status, 200, "request {i}: {}", reply.body);
    }
    let grew = (ok.get() - before.0, total.count() - before.1, upstream.count() - before.2);
    assert!(
        grew.0 >= N && grew.1 >= N && grew.2 >= N,
        "{N} requests moved (2xx, total, propagate) by {grew:?}"
    );

    router.shutdown();
    shard.shutdown();
}

/// The router answers `/debug/trace/recent` from the ring it records
/// itself: a `/healthz` it answered without asking any shard is listed
/// under the trace id its response carried.
#[test]
fn the_router_serves_its_own_trace_ring() {
    let (shard, router, _) = fleet();
    let client = Client::new(router.addr().to_string(), Duration::from_secs(30));
    let health = client.one_shot("GET", "/healthz").expect("a response");
    assert_eq!(health.status, 200, "{}", health.body);
    let hex = health.header("X-Flatnet-Trace-Id").expect("a trace id header");
    let id = u64::from_str_radix(hex, 16).expect("a hex trace id");
    // The event is recorded just after the response is written, so the
    // client can outrun the ring by a hair.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let recent = client.one_shot("GET", "/debug/trace/recent?n=256").expect("a response");
        assert_eq!(recent.status, 200, "{}", recent.body);
        let dump = TraceDump::from_json(&recent.body).expect("a flatnet-trace/v1 dump");
        if dump.events.iter().any(|e| e.trace_id == id) {
            break;
        }
        assert!(Instant::now() < deadline, "trace {hex} never surfaced in the router's ring");
        std::thread::sleep(Duration::from_millis(10));
    }
    let bad = client.one_shot("GET", "/debug/trace/slow?ms=soon").expect("a response");
    assert_eq!(bad.status, 400, "{}", bad.body);

    router.shutdown();
    shard.shutdown();
}
