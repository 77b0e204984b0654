//! Coordinated rolling reload: `POST /admin/reload` on the router rolls
//! the fleet one shard at a time behind the health gate, bumping every
//! shard's snapshot version, while queries on healthy slices never see
//! a 5xx. A dead shard is skipped and reported, not retried into a
//! hang.

mod common;

use common::start_shard;
use flatnet_router::{merge, Router, RouterConfig};
use flatnet_serve::Server;
use flatnet_wire::Client;
use std::net::SocketAddr;
use std::time::Duration;

fn roundtrip(addr: SocketAddr, method: &str, target: &str) -> (u16, String) {
    let reply = Client::new(addr.to_string(), Duration::from_secs(30))
        .one_shot(method, target)
        .expect("round trip");
    (reply.status, reply.body)
}

#[test]
fn rolling_reload_bumps_every_shard_behind_the_health_gate() {
    let shards: Vec<Server> = (0..3).map(|i| start_shard(i, 3)).collect();
    let router = Router::start(RouterConfig {
        addr: "127.0.0.1:0".into(),
        shard_addrs: shards.iter().map(|s| s.addr().to_string()).collect(),
        probe_interval_ms: 50,
        ..RouterConfig::default()
    })
    .expect("router starts");

    // Let the prober learn every shard's starting version.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while router.shard_health().iter().any(|&(_, v)| v == 0) {
        assert!(std::time::Instant::now() < deadline, "prober never learned shard versions");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Two clients query through the router for as long as the roll takes.
    let rolling = std::sync::atomic::AtomicBool::new(true);
    let (status, body) = std::thread::scope(|s| {
        let hammers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| loop {
                    let (status, body) =
                        roundtrip(router.addr(), "GET", "/v1/reachability?origin=15169");
                    assert!(status < 500, "{status} during the rolling reload: {body}");
                    if !rolling.load(std::sync::atomic::Ordering::SeqCst) {
                        break;
                    }
                })
            })
            .collect();
        let rolled = roundtrip(router.addr(), "POST", "/admin/reload");
        rolling.store(false, std::sync::atomic::Ordering::SeqCst);
        for h in hammers {
            h.join().expect("no 5xx");
        }
        rolled
    });
    assert_eq!(status, 200, "rolling reload failed: {body}");
    assert_eq!(merge::member_str(&body, "status"), Some("reloaded"), "{body}");
    assert_eq!(merge::member_u64(&body, "reloaded"), Some(3), "{body}");
    let per_shard = merge::array_items(merge::member(&body, "shards").expect("shards")).unwrap();
    assert_eq!(per_shard.len(), 3);
    for (i, entry) in per_shard.iter().enumerate() {
        assert_eq!(merge::member_str(entry, "status"), Some("reloaded"), "shard {i}: {entry}");
        assert_eq!(
            merge::member_u64(entry, "snapshot_version"),
            Some(2),
            "shard {i} did not bump: {entry}"
        );
    }

    // The fleet version visible through the router follows.
    let (status, body) = roundtrip(router.addr(), "GET", "/healthz");
    assert_eq!(status, 200, "{body}");
    assert_eq!(merge::member_u64(&body, "snapshot_version"), Some(2), "{body}");

    router.shutdown();
    for s in shards {
        s.shutdown();
    }
}

#[test]
fn rolling_reload_skips_a_dead_shard_and_reports_partial() {
    let shards: Vec<Server> = (0..3).map(|i| start_shard(i, 3)).collect();
    let router = Router::start(RouterConfig {
        addr: "127.0.0.1:0".into(),
        shard_addrs: shards.iter().map(|s| s.addr().to_string()).collect(),
        probe_interval_ms: 25,
        ..RouterConfig::default()
    })
    .expect("router starts");

    let mut shards = shards;
    shards.remove(1).shutdown();
    // Wait for the prober to open shard 1's breaker so the roll skips it
    // instead of timing out against a dead socket.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while router.shard_health()[1].0 {
        assert!(std::time::Instant::now() < deadline, "prober never opened the breaker");
        std::thread::sleep(Duration::from_millis(20));
    }

    let (status, body) = roundtrip(router.addr(), "POST", "/admin/reload");
    assert_eq!(status, 200, "partial roll must still be 200: {body}");
    assert_eq!(merge::member_str(&body, "status"), Some("partial"), "{body}");
    assert_eq!(merge::member_u64(&body, "reloaded"), Some(2), "{body}");
    let per_shard = merge::array_items(merge::member(&body, "shards").expect("shards")).unwrap();
    let skipped: Vec<_> = per_shard
        .iter()
        .filter(|e| merge::member_str(e, "status") == Some("skipped-unhealthy"))
        .collect();
    assert_eq!(skipped.len(), 1, "exactly the dead shard is skipped: {body}");
    assert_eq!(merge::member_u64(skipped[0], "id"), Some(1), "{body}");

    router.shutdown();
    for s in shards {
        s.shutdown();
    }
}
