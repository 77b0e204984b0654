//! The router records what a shard records, under `router.`: requests
//! through it land in its status counters, its `request_us` histogram
//! and its `propagate` stage (upstream exchange plus merge). A test
//! binary of its own, and deltas compared with `>=`, because the metrics
//! registry is process-wide.

use flatnet_netgen::{generate, NetGenConfig};
use flatnet_router::{Router, RouterConfig};
use flatnet_serve::{ServeConfig, Server, TopologySource};
use flatnet_wire::Client;
use std::io::Write;
use std::time::Duration;

#[test]
fn requests_through_a_router_land_in_its_counters_and_histograms() {
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
