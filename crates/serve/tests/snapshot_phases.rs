//! The snapshot lifecycle is legible from `/metrics` alone: a cold start
//! records `read`/`parse`/`build`/`tiers`/`validate`/`compile`/`persist`
//! once each in `serve.snapshot_us{phase=…}`, a warm start records
//! `store_load` and `validate` and *nothing else* — no `read`, `parse`,
//! `build` or `tiers`, and no `compile` sample of its own: the stored
//! graph is compiled inside `flatnet_store::load`, under `store_load` —
//! a reload is a cold start again, and `/healthz` says how long the
//! serving snapshot took.
//!
//! ONE `#[test]`, alone in its binary: the registry is process-global and
//! the assertions are exact counts, which any other test starting a
//! daemon beside this one would break.

use flatnet_asgraph::caida;
use flatnet_netgen::{generate, NetGenConfig};
use flatnet_serve::json::Json;
use flatnet_serve::{ServeConfig, Server, TopologySource};
use flatnet_wire::Client;
use std::net::SocketAddr;
use std::time::Duration;

const PHASES: [&str; 8] =
    ["read", "parse", "build", "tiers", "validate", "compile", "persist", "store_load"];

/// Samples per phase, in `PHASES` order.
fn phase_counts() -> [u64; 8] {
    PHASES.map(|p| flatnet_obs::histogram(&format!("serve.snapshot_us{{phase=\"{p}\"}}")).count())
}

fn fetch(addr: SocketAddr, method: &str, path: &str) -> (u16, String) {
    let reply = Client::new(addr.to_string(), Duration::from_secs(30))
        .one_shot(method, path)
        .expect("round trip");
    (reply.status, reply.body)
}

fn health(addr: SocketAddr) -> Json {
    let (status, body) = fetch(addr, "GET", "/healthz");
    assert_eq!(status, 200, "{body}");
    flatnet_serve::json::parse(&body).expect("healthz is JSON")
}

#[test]
fn phases_tell_cold_start_warm_start_and_reload_apart() {
    let dir = std::env::temp_dir().join(format!("flatnet-snapshot-phases-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let rel = dir.join("as-rel.txt");
    std::fs::write(&rel, caida::write_serial2(&generate(&NetGenConfig::paper_2020(300, 9)).truth))
        .unwrap();
    let config = || ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        store: Some(dir.join("snap.store").display().to_string()),
        source: TopologySource::CaidaFile {
            path: rel.display().to_string(),
            tier1: vec![],
            tier2: vec![],
            lenient: false,
        },
        ..ServeConfig::default()
    };
    assert_eq!(phase_counts(), [0; 8]);

    // Cold: everything but the store load, once.
    let server = Server::start(config()).expect("cold start");
    assert_eq!(phase_counts(), [1, 1, 1, 1, 1, 1, 1, 0], "{PHASES:?} after a cold start");
    let h = health(server.addr());
    assert_eq!(h.get("warm_start").and_then(Json::as_bool), Some(false));
    assert!(h.get("snapshot_ready_ms").and_then(Json::as_u64).is_some(), "{h:?}");
    server.shutdown();

    // Warm: the store load and the health gate, and nothing else.
    let server = Server::start(config()).expect("warm start");
    assert_eq!(phase_counts(), [1, 1, 1, 1, 2, 1, 1, 1], "{PHASES:?} after a warm start");
    let h = health(server.addr());
    assert_eq!(h.get("warm_start").and_then(Json::as_bool), Some(true));
    assert!(h.get("snapshot_ready_ms").and_then(Json::as_u64).is_some(), "{h:?}");
    // The same split, as an operator scrapes it.
    let (status, prom) = fetch(server.addr(), "GET", "/metrics?format=prom");
    assert_eq!(status, 200);
    assert!(prom.contains("serve_snapshot_seconds_count{phase=\"store_load\"} 1"), "{prom}");
    assert!(prom.contains("serve_snapshot_seconds_count{phase=\"compile\"} 1"), "{prom}");

    // Reload: from the source again, and persisted.
    let (status, body) = fetch(server.addr(), "POST", "/admin/reload");
    assert_eq!(status, 200, "{body}");
    assert_eq!(phase_counts(), [2, 2, 2, 2, 3, 2, 2, 1], "{PHASES:?} after a reload");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
