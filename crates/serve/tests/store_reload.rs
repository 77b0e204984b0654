//! The self-healing store and the reload path, end to end: warm starts
//! must leave the source alone and answer byte-identically, corruption —
//! and an image of the previous format — must degrade to
//! rebuild-and-rewrite, and a daemon whose reloads keep failing must keep
//! answering queries from the old snapshot with zero 5xx and
//! monotonically non-decreasing versions.

use flatnet_asgraph::caida;
use flatnet_netgen::{generate, NetGenConfig};
use flatnet_serve::json::Json;
use flatnet_serve::{ServeConfig, Server, TopologySource};
use flatnet_wire::Client;
use std::net::SocketAddr;
use std::time::Duration;

/// One round trip on a fresh connection, closed afterwards.
fn fetch(addr: SocketAddr, method: &str, path: &str) -> (u16, Json) {
    let reply = Client::new(addr.to_string(), Duration::from_secs(30))
        .one_shot(method, path)
        .expect("round trip");
    let body = reply.body;
    (reply.status, flatnet_serve::json::parse(&body).unwrap_or_else(|e| panic!("bad JSON body {body:?}: {e}")))
}

/// The response payload: the `data` member for enveloped `/v1` responses,
/// the document itself for bare ones (healthz, admin).
fn data_of(doc: &Json) -> &Json {
    doc.get("data").unwrap_or(doc)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("flatnet-store-reload-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Obs counters are process-global and the test binary shares one
/// registry across tests, so every assertion is on a *delta*.
fn counter(name: &str) -> u64 {
    flatnet_obs::global().counter(name).get()
}

/// Samples in one `serve.snapshot_us{phase=…}` histogram.
fn phase(name: &str) -> u64 {
    flatnet_obs::histogram(&format!("serve.snapshot_us{{phase=\"{name}\"}}")).count()
}

/// The tests that start a daemon on a store hold this, so their deltas on
/// the store counters are exact.
static STORE_COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The `data` member, as sent, of one answer per `/v1` endpoint. The
/// envelope before it carries the per-request trace id.
fn answers(addr: SocketAddr, origin: u32) -> [String; 3] {
    let client = Client::new(addr.to_string(), Duration::from_secs(30));
    let leak = format!("{{\"victim\":{origin},\"lock\":\"t12\",\"leakers\":8}}");
    [
        ("GET", format!("/v1/reachability?origin={origin}&detail=full"), None),
        ("GET", format!("/v1/reliance?origin={origin}&top=50"), None),
        ("POST", "/v1/whatif/leak".to_string(), Some(leak.as_str())),
    ]
    .map(|(method, target, body)| {
        let reply = client.request(method, &target, body, 0).expect("round trip");
        assert_eq!(reply.status, 200, "{target}: {}", reply.body);
        let data = reply.body.find("\"data\":").expect("an enveloped answer");
        reply.body[data..].to_string()
    })
}

#[test]
fn warm_start_leaves_the_source_alone_and_answers_identically() {
    let _exact = STORE_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("warm");
    let store = dir.join("snap.store").display().to_string();
    let source = TopologySource::Generated { ases: 400, seed: 21 };

    // Cold start: compiles, writes the store, and we take a reference
    // answer with it.
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        store: Some(store.clone()),
        source: source.clone(),
        ..ServeConfig::default()
    })
    .expect("cold start");
    let (status, health) = fetch(server.addr(), "GET", "/healthz");
    assert_eq!(status, 200);
    assert_eq!(health.get("warm_start").and_then(Json::as_bool), Some(false));
    assert_eq!(health.get("store").and_then(Json::as_bool), Some(true));
    // Pick an origin that exists: regenerate the same deterministic
    // topology the daemon built and take its first node's ASN.
    let origin =
        generate(&NetGenConfig::paper_2020(400, 21)).truth.asn(flatnet_asgraph::NodeId(0)).0;
    let probe = format!("/v1/reachability?origin={origin}&detail=full");
    let (status, cold_doc) = fetch(server.addr(), "GET", &probe);
    assert_eq!(status, 200, "{cold_doc:?}");
    let cold_reach = data_of(&cold_doc).get("reach").and_then(Json::as_array).unwrap().len();
    let cold_answers = answers(server.addr(), origin);
    server.shutdown();

    // Warm start: counted, timed as a store load and a health gate, and
    // the same answers. (That it times no read, parse, build or tier
    // inference is `snapshot_phases.rs`, alone in its binary.)
    let warm_before = counter("serve.store_warm_start");
    let (loads_before, gates_before) = (phase("store_load"), phase("validate"));
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        store: Some(store.clone()),
        source: source.clone(),
        ..ServeConfig::default()
    })
    .expect("warm start");
    assert_eq!(counter("serve.store_warm_start"), warm_before + 1);
    assert_eq!(phase("store_load"), loads_before + 1);
    assert!(phase("validate") > gates_before, "a warm start re-runs the health gate");
    let (status, health) = fetch(server.addr(), "GET", "/healthz");
    assert_eq!(status, 200);
    assert_eq!(health.get("warm_start").and_then(Json::as_bool), Some(true));
    let (status, warm_doc) = fetch(server.addr(), "GET", &probe);
    assert_eq!(status, 200);
    assert_eq!(
        data_of(&warm_doc).get("reach").and_then(Json::as_array).unwrap().len(),
        cold_reach,
        "warm-start answer differs from the cold-start answer"
    );
    assert_eq!(
        data_of(&warm_doc).get("reachable").and_then(Json::as_u64),
        data_of(&cold_doc).get("reachable").and_then(Json::as_u64),
    );
    assert_eq!(answers(server.addr(), origin), cold_answers);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_store_recompiles_and_heals_the_file() {
    let _exact = STORE_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("heal");
    let store = dir.join("snap.store").display().to_string();
    let source = TopologySource::Generated { ases: 300, seed: 5 };
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        store: Some(store.clone()),
        source: source.clone(),
        ..ServeConfig::default()
    })
    .expect("cold start")
    .shutdown();

    // Truncate the store mid-file: the next start must reject it, count
    // the rejection, rebuild from the source, and rewrite a valid store.
    let bytes = std::fs::read(&store).unwrap();
    std::fs::write(&store, &bytes[..bytes.len() / 2]).unwrap();

    let rejected_before = counter("serve.store_rejected");
    let builds_before = phase("build");
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        store: Some(store.clone()),
        source,
        ..ServeConfig::default()
    })
    .expect("corruption must not prevent startup");
    assert_eq!(counter("serve.store_rejected"), rejected_before + 1);
    assert!(phase("build") > builds_before, "the fallback builds from the source");
    let (status, health) = fetch(server.addr(), "GET", "/healthz");
    assert_eq!(status, 200);
    assert_eq!(health.get("warm_start").and_then(Json::as_bool), Some(false));
    server.shutdown();

    // Self-healed: the rewritten store verifies.
    let report = flatnet_store::verify(&store, false).expect("store must be healed");
    assert_eq!(report.nodes, 300);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_v1_store_is_rejected_rewritten_as_v2_and_warm_from_then_on() {
    let _exact = STORE_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("v1");
    let store = dir.join("snap.store").display().to_string();
    // What a deployment upgrading across the format bump has on disk.
    let v1 = std::fs::read(concat!(env!("CARGO_MANIFEST_DIR"), "/../store/tests/data/tiny.v1.store"))
        .expect("the v1 fixture is checked in");
    std::fs::write(&store, &v1).unwrap();
    let err = flatnet_store::load(&store).expect_err("format v1 is not read");
    assert_eq!(err.kind(), "unsupported-version", "{err}");

    let config = || ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        store: Some(store.clone()),
        source: TopologySource::Generated { ases: 300, seed: 5 },
        ..ServeConfig::default()
    };
    let origin = generate(&NetGenConfig::paper_2020(300, 5)).truth.asn(flatnet_asgraph::NodeId(0)).0;

    // First start: like any rejected store — counted once, rebuilt from
    // the source, rewritten.
    let rejected_before = counter("serve.store_rejected");
    let server = Server::start(config()).expect("an old store must not prevent startup");
    assert_eq!(counter("serve.store_rejected"), rejected_before + 1);
    let (_, health) = fetch(server.addr(), "GET", "/healthz");
    assert_eq!(health.get("warm_start").and_then(Json::as_bool), Some(false));
    let cold_answers = answers(server.addr(), origin);
    server.shutdown();
    let rewritten = std::fs::read(&store).unwrap();
    assert_ne!(rewritten, v1);
    assert_eq!(flatnet_store::verify(&store, false).expect("rewritten as v2").nodes, 300);

    // Second start: warm, from the rewritten file, with the same answers.
    let warm_before = counter("serve.store_warm_start");
    let server = Server::start(config()).expect("warm start");
    assert_eq!(counter("serve.store_rejected"), rejected_before + 1);
    assert_eq!(counter("serve.store_warm_start"), warm_before + 1);
    let (_, health) = fetch(server.addr(), "GET", "/healthz");
    assert_eq!(health.get("warm_start").and_then(Json::as_bool), Some(true));
    assert_eq!(answers(server.addr(), origin), cold_answers);
    server.shutdown();
    assert_eq!(std::fs::read(&store).unwrap(), rewritten, "a warm start does not rewrite");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reload_under_fire_never_5xxes_queries_and_versions_stay_monotonic() {
    let dir = temp_dir("fire");
    let rel = dir.join("as-rel.txt");
    let net = generate(&NetGenConfig::paper_2020(300, 9));
    let valid = caida::write_serial2(&net.truth);
    std::fs::write(&rel, &valid).unwrap();

    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 3,
        source: TopologySource::CaidaFile {
            path: rel.display().to_string(),
            tier1: vec![],
            tier2: vec![],
            lenient: false,
        },
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();

    // Reference answer at version 1; the file never changes content, so
    // every version must serve exactly this count.
    let origin = net.truth.asn(flatnet_asgraph::NodeId(0)).0;
    let probe: &'static str =
        Box::leak(format!("/v1/reachability?origin={origin}").into_boxed_str());
    let (status, doc) = fetch(addr, "GET", probe);
    assert_eq!(status, 200, "{doc:?}");
    let want_count = data_of(&doc).get("reachable").and_then(Json::as_u64).expect("reachable");

    // Fire: query threads hammer the daemon while reloads alternate
    // between failing (file deleted) and succeeding (file restored).
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let workers: Vec<_> = (0..3)
        .map(|_| {
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let (status, doc) = fetch(addr, "GET", probe);
                    let version =
                        doc.get("snapshot_version").and_then(Json::as_u64).unwrap_or(0);
                    let count =
                        data_of(&doc).get("reachable").and_then(Json::as_u64).unwrap_or(0);
                    seen.push((status, version, count));
                }
                seen
            })
        })
        .collect();

    let mut expected_version = 1u64;
    for round in 0..4 {
        // Break the source: this reload fails, the old snapshot serves on.
        std::fs::remove_file(&rel).unwrap();
        let (status, doc) = fetch(addr, "POST", "/admin/reload");
        assert_eq!(status, 503, "round {round}: failed reload must be 503: {doc:?}");
        // An immediate retry is refused by the backoff, also with a 503.
        let (status, _) = fetch(addr, "POST", "/admin/reload");
        assert_eq!(status, 503, "round {round}: backoff must refuse the retry");

        // Heal the source, wait out the backoff, reload for real — from
        // two connections at once: the reloads take turns, each minting
        // a version of its own.
        std::fs::write(&rel, &valid).unwrap();
        std::thread::sleep(Duration::from_millis(700));
        let go = std::sync::Barrier::new(2);
        let mut versions: Vec<Option<u64>> = std::thread::scope(|s| {
            let reloads: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        go.wait();
                        let (status, doc) = fetch(addr, "POST", "/admin/reload");
                        assert_eq!(status, 200, "round {round}: healed reload must succeed: {doc:?}");
                        doc.get("snapshot_version").and_then(Json::as_u64)
                    })
                })
                .collect();
            reloads.into_iter().map(|r| r.join().expect("reload thread")).collect()
        });
        versions.sort_unstable();
        assert_eq!(
            versions,
            [Some(expected_version + 1), Some(expected_version + 2)],
            "round {round}: one version per reload, monotonic with no gaps"
        );
        expected_version += 2;
    }

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for w in workers {
        let seen = w.join().expect("query thread");
        assert!(!seen.is_empty());
        let mut last_version = 0u64;
        for (status, version, count) in seen {
            assert_eq!(status, 200, "a query 5xxed during reload fire");
            assert_eq!(count, want_count, "a stale or wrong answer was served (v{version})");
            assert!(
                version >= last_version,
                "snapshot version went backwards: {last_version} -> {version}"
            );
            last_version = version;
        }
    }

    // The failures are visible in /healthz bookkeeping: the last reload
    // succeeded, so the error is cleared and failures are zero again.
    let (status, health) = fetch(addr, "GET", "/healthz");
    assert_eq!(status, 200);
    assert_eq!(health.get("reload_failures").and_then(Json::as_u64), Some(0));
    assert_eq!(health.get("last_reload_error"), Some(&Json::Null));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
