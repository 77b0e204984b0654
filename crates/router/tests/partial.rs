//! Partial-failure semantics: a batch query where one shard dies or
//! 503s mid-scatter must return the documented partial envelope —
//! healthy slices answered, failed slices marked `shard-unavailable` —
//! never a hang and never a bare 500. Singles to a dead slice get a
//! slice-scoped 503 with the stable `shard-unavailable` kind while
//! other slices keep answering.

mod common;

use common::{known_origins, start_shard};
use flatnet_router::{merge, HashRing, Router, RouterConfig, SHARD_UNAVAILABLE};
use flatnet_serve::Server;
use flatnet_wire::Client;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

/// The hang guard: every read on the client side times out after 30s,
/// so a wedged scatter fails the test instead of stalling CI.
fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    let reply = Client::new(addr.to_string(), Duration::from_secs(30))
        .one_shot("GET", target)
        .expect("round trip");
    (reply.status, reply.body)
}

/// Origins from `pool` owned by shard `want` on an n-shard ring.
fn owned_by(pool: &[u32], ring: &HashRing, want: u32, n: usize) -> Vec<u32> {
    pool.iter().copied().filter(|&o| ring.owner(o) == want).take(n).collect()
}

/// Splits `pool` into (owned by `dead`, owned by others), at least one
/// of each, panicking if the pool never crosses the slice boundary.
fn split_by_owner(pool: &[u32], ring: &HashRing, dead: u32) -> (Vec<u32>, Vec<u32>) {
    let lost = owned_by(pool, ring, dead, usize::MAX);
    let alive: Vec<u32> = pool.iter().copied().filter(|&o| ring.owner(o) != dead).collect();
    assert!(!lost.is_empty() && !alive.is_empty(), "origin pool misses a slice; widen it");
    (lost, alive)
}

#[test]
fn killed_shard_yields_partial_batch_and_slice_scoped_503() {
    let shards: Vec<Server> = (0..3).map(|i| start_shard(i, 3)).collect();
    let shard_addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();
    let router = Router::start(RouterConfig {
        addr: "127.0.0.1:0".into(),
        shard_addrs,
        // No background prober: the data path alone must detect the
        // death, deterministically, on this very request.
        probe_interval_ms: 0,
        upstream_timeout_ms: 5_000,
        ..RouterConfig::default()
    })
    .expect("router starts");

    let pool = known_origins(12);
    let ring = HashRing::new(3);
    const DEAD: u32 = 1;
    let (lost, alive) = split_by_owner(&pool, &ring, DEAD);

    // Warm path first: prove the batch works before the kill.
    let all: Vec<u32> = pool.clone();
    let list = all.iter().map(u32::to_string).collect::<Vec<_>>().join(",");
    let (status, body) = get(router.addr(), &format!("/v1/reachability?origins={list}"));
    assert_eq!(status, 200, "pre-kill batch failed: {body}");
    assert!(!body.contains("\"router\""), "pre-kill batch must not be partial: {body}");

    // Kill shard 1 mid-fleet. Its pooled router connections are now
    // dead sockets; the next scatter hits them.
    let mut shards = shards;
    shards.remove(DEAD as usize).shutdown();

    let (status, body) = get(router.addr(), &format!("/v1/reachability?origins={list}"));
    assert_eq!(status, 200, "partial batch must still be 200: {body}");
    let router_member = merge::member(&body, "router")
        .unwrap_or_else(|| panic!("missing router partial marker: {body}"));
    assert_eq!(merge::member(router_member, "partial"), Some("true"), "{body}");
    assert_eq!(merge::member_str(router_member, "kind"), Some(SHARD_UNAVAILABLE), "{body}");
    assert_eq!(merge::member(router_member, "failed_shards"), Some("[1]"), "{body}");
    let data = merge::envelope_data(&body).expect("partial envelope still carries data");
    assert_eq!(merge::member_u64(data, "batch"), Some(all.len() as u64), "{data}");
    let results = merge::array_items(merge::member(data, "results").expect("results"))
        .expect("results parse");
    assert_eq!(results.len(), all.len(), "one entry per requested origin, in order");
    for (i, (&origin, entry)) in all.iter().zip(&results).enumerate() {
        assert_eq!(
            merge::member_u64(entry, "origin"),
            Some(origin as u64),
            "entry {i} out of order: {entry}"
        );
        let failed = merge::member(entry, "error").is_some();
        if ring.owner(origin) == DEAD {
            assert!(failed, "entry {i} (origin {origin}) lost its shard yet has data: {entry}");
            assert_eq!(
                merge::envelope_error_kind(&format!("{{\"error\":{}}}", merge::member(entry, "error").unwrap())),
                Some(SHARD_UNAVAILABLE),
                "entry {i}: {entry}"
            );
        } else {
            assert!(!failed, "entry {i} (origin {origin}) is on a healthy shard: {entry}");
        }
    }

    // Singles to the dead slice: slice-scoped 503 with the stable kind,
    // every time. Enough of them trip the breaker (FAILS_TO_OPEN
    // consecutive transport failures) so the later /healthz view is
    // deterministic without a background prober.
    for round in 0..4 {
        let (status, body) = get(router.addr(), &format!("/v1/reachability?origin={}", lost[0]));
        assert_eq!(status, 503, "dead slice must 503 (round {round}): {body}");
        assert_eq!(
            merge::envelope_error_kind(&body),
            Some(SHARD_UNAVAILABLE),
            "round {round}: {body}"
        );
    }
    assert!(!router.shard_health()[DEAD as usize].0, "breaker should be open by now");

    // Healthy slices keep answering as if nothing happened.
    let (status, body) = get(router.addr(), &format!("/v1/reachability?origin={}", alive[0]));
    assert_eq!(status, 200, "healthy slice must keep answering: {body}");
    assert!(body.contains("\"data\""), "{body}");

    // The aggregate health view downgrades but stays up.
    let (status, body) = get(router.addr(), "/healthz");
    assert_eq!(status, 200, "{body}");
    assert_eq!(merge::member_str(&body, "status"), Some("degraded"), "{body}");
    assert_eq!(merge::member_u64(&body, "healthy_shards"), Some(2), "{body}");

    router.shutdown();
    for s in shards {
        s.shutdown();
    }
}

/// A shard stand-in that speaks just enough keep-alive HTTP to answer
/// every request with `response`, verbatim.
fn start_fake_shard(response: Vec<u8>) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake shard");
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::Builder::new()
        .name("fake-shard".into())
        .spawn(move || {
            // Serve a handful of connections then quit; tests never need
            // more, and bounding it lets the thread die on its own.
            for stream in listener.incoming().take(32) {
                let Ok(stream) = stream else { break };
                stream.set_read_timeout(Some(Duration::from_secs(10))).ok();
                let mut reader = BufReader::new(stream);
                // Consume one request (headers only; the router only
                // ever GETs query endpoints here), answer, repeat until
                // the router hangs up.
                'requests: loop {
                    let mut saw_any = false;
                    loop {
                        let mut line = String::new();
                        match reader.read_line(&mut line) {
                            Ok(0) | Err(_) => break 'requests,
                            Ok(_) if line.trim_end().is_empty() && saw_any => break,
                            Ok(_) if line.trim_end().is_empty() => break 'requests,
                            Ok(_) => saw_any = true,
                        }
                    }
                    if reader.get_mut().write_all(&response).is_err() {
                        break;
                    }
                }
            }
        })
        .expect("spawn fake shard");
    (addr, handle)
}

#[test]
fn refusing_shard_yields_partial_batch_never_500() {
    let real: Vec<Server> = (0..2).map(|i| start_shard(i, 3)).collect();
    // "Up but refusing", distinct from a dead socket: every request
    // gets a 503 error envelope.
    let body = "{\"schema\":\"flatnet-serve/v1\",\"snapshot_version\":0,\
                \"trace_id\":\"0000000000000000\",\
                \"error\":{\"kind\":\"backoff\",\"message\":\"refusing\"}}";
    let refusal = format!(
        "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: keep-alive\r\nRetry-After: 1\r\n\r\n{body}",
        body.len()
    );
    let (fake_addr, _fake) = start_fake_shard(refusal.into_bytes());
    let mut shard_addrs: Vec<String> = real.iter().map(|s| s.addr().to_string()).collect();
    shard_addrs.push(fake_addr.to_string());
    let router = Router::start(RouterConfig {
        addr: "127.0.0.1:0".into(),
        shard_addrs,
        probe_interval_ms: 0,
        upstream_timeout_ms: 5_000,
        ..RouterConfig::default()
    })
    .expect("router starts");

    let pool = known_origins(12);
    let ring = HashRing::new(3);
    const FAKE: u32 = 2;
    let (_lost, _alive) = split_by_owner(&pool, &ring, FAKE);

    let list = pool.iter().map(u32::to_string).collect::<Vec<_>>().join(",");
    let (status, body) = get(router.addr(), &format!("/v1/reachability?origins={list}"));
    assert_eq!(status, 200, "app-level 503 from one shard must yield a partial 200: {body}");
    assert_ne!(status, 500, "never a bare 500");
    let router_member = merge::member(&body, "router")
        .unwrap_or_else(|| panic!("missing router partial marker: {body}"));
    assert_eq!(merge::member(router_member, "partial"), Some("true"), "{body}");
    assert_eq!(merge::member(router_member, "failed_shards"), Some("[2]"), "{body}");
    let data = merge::envelope_data(&body).expect("data");
    let results = merge::array_items(merge::member(data, "results").expect("results")).unwrap();
    for (&origin, entry) in pool.iter().zip(&results) {
        if ring.owner(origin) == FAKE {
            assert!(entry.contains(SHARD_UNAVAILABLE), "origin {origin}: {entry}");
        } else {
            assert!(merge::member(entry, "error").is_none(), "origin {origin}: {entry}");
        }
    }

    // An app-level 503 is the shard talking, not the socket dying: it
    // must NOT trip the circuit breaker.
    let health = router.shard_health();
    assert!(health[FAKE as usize].0, "app 503 wrongly opened the circuit");

    router.shutdown();
    for s in real {
        s.shutdown();
    }
}

/// Shards that lie about their framing — a length no server could send,
/// a chunk size that overflows, a header line that never ends — are a
/// transport failure of their own slice, not of the router.
#[test]
fn lying_shards_fail_their_slice_only_and_never_kill_the_router() {
    let hostile: [Vec<u8>; 3] = [
        b"HTTP/1.1 200 OK\r\nContent-Length: 99999999999999\r\n\r\n{".to_vec(),
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffffff\r\n{".to_vec(),
        [&b"HTTP/1.1 200 OK\r\nX-Pad: "[..], &[b'a'; 1 << 20]].concat(),
    ];
    let real = start_shard(0, 4);
    let mut shard_addrs = vec![real.addr().to_string()];
    shard_addrs.extend(hostile.into_iter().map(|r| start_fake_shard(r).0.to_string()));
    let router = Router::start(RouterConfig {
        addr: "127.0.0.1:0".into(),
        shard_addrs,
        probe_interval_ms: 0,
        upstream_timeout_ms: 5_000,
        ..RouterConfig::default()
    })
    .expect("router starts");

    let pool = known_origins(48);
    let ring = HashRing::new(4);
    let one_of = |shard: u32| {
        *owned_by(&pool, &ring, shard, 1).first().expect("origin pool misses a slice; widen it")
    };

    let list = pool.iter().map(u32::to_string).collect::<Vec<_>>().join(",");
    let (status, body) = get(router.addr(), &format!("/v1/reachability?origins={list}"));
    assert_eq!(status, 200, "lying shards must yield a partial 200: {body}");
    let router_member = merge::member(&body, "router")
        .unwrap_or_else(|| panic!("missing router partial marker: {body}"));
    assert_eq!(merge::member(router_member, "partial"), Some("true"), "{body}");
    let mut failed = merge::array_items(merge::member(router_member, "failed_shards").unwrap())
        .expect("failed_shards parse");
    failed.sort_unstable();
    assert_eq!(failed, ["1", "2", "3"], "{body}");
    let data = merge::envelope_data(&body).expect("data");
    let results = merge::array_items(merge::member(data, "results").expect("results")).unwrap();
    assert_eq!(results.len(), pool.len());
    for (&origin, entry) in pool.iter().zip(&results) {
        if ring.owner(origin) == 0 {
            assert!(merge::member(entry, "error").is_none(), "origin {origin}: {entry}");
        } else {
            assert!(entry.contains(SHARD_UNAVAILABLE), "origin {origin}: {entry}");
        }
    }

    // Singles to each lying slice: slice-scoped 503, stable kind.
    for shard in 1..4 {
        let (status, body) =
            get(router.addr(), &format!("/v1/reachability?origin={}", one_of(shard)));
        assert_eq!(status, 503, "shard {shard}: {body}");
        assert_eq!(merge::envelope_error_kind(&body), Some(SHARD_UNAVAILABLE), "{body}");
    }

    // The router keeps serving, and no connection slot leaked.
    let (status, body) = get(router.addr(), &format!("/v1/reachability?origin={}", one_of(0)));
    assert_eq!(status, 200, "healthy slice must keep answering: {body}");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while router.active_conns() > 0 {
        assert!(std::time::Instant::now() < deadline, "a router connection slot leaked");
        std::thread::sleep(Duration::from_millis(10));
    }

    router.shutdown();
    real.shutdown();
}

/// A `{"queries":[…]}` leak batch whose victims span a killed shard
/// answers like an `origins=` batch: 200, the `router` partial marker,
/// each of the dead slice's queries a `shard-unavailable` entry naming
/// its victim, and every other entry the bytes a lone daemon answers.
#[test]
fn leak_batch_through_a_killed_shard_is_partial_and_keeps_the_healthy_bytes() {
    let mut shards: Vec<Server> = (0..3).map(|i| start_shard(i, 3)).collect();
    let reference = start_shard(0, 1);
    let router = Router::start(RouterConfig {
        addr: "127.0.0.1:0".into(),
        shard_addrs: shards.iter().map(|s| s.addr().to_string()).collect(),
        probe_interval_ms: 0,
        upstream_timeout_ms: 5_000,
        ..RouterConfig::default()
    })
    .expect("router starts");

    let pool = known_origins(12);
    let ring = HashRing::new(3);
    const DEAD: u32 = 1;
    split_by_owner(&pool, &ring, DEAD);
    shards.remove(DEAD as usize).shutdown();

    let queries = pool
        .iter()
        .map(|v| format!("{{\"victim\":{v},\"leakers\":2,\"seed\":3}}"))
        .collect::<Vec<_>>()
        .join(",");
    let body = format!("{{\"queries\":[{queries}]}}");
    let post = |addr: SocketAddr| {
        let reply = Client::new(addr.to_string(), Duration::from_secs(30))
            .request("POST", "/v1/whatif/leak", Some(&body), 0)
            .expect("round trip");
        (reply.status, reply.body)
    };
    let (status, routed) = post(router.addr());
    let (lone_status, lone) = post(reference.addr());
    assert_eq!((status, lone_status), (200, 200), "router: {routed}\nlone: {lone}");

    let router_member = merge::member(&routed, "router")
        .unwrap_or_else(|| panic!("missing router partial marker: {routed}"));
    assert_eq!(merge::member(router_member, "partial"), Some("true"), "{routed}");
    assert_eq!(merge::member_str(router_member, "kind"), Some(SHARD_UNAVAILABLE), "{routed}");
    assert_eq!(merge::member(router_member, "failed_shards"), Some("[1]"), "{routed}");

    fn entries(doc: &str, batch: usize) -> Vec<&str> {
        let data = merge::envelope_data(doc).expect("data");
        assert_eq!(merge::member_u64(data, "batch"), Some(batch as u64), "{data}");
        let results = merge::array_items(merge::member(data, "results").expect("results"));
        let results = results.expect("results parse");
        assert_eq!(results.len(), batch, "{data}");
        results
    }
    let (routed_entries, lone_entries) = (entries(&routed, pool.len()), entries(&lone, pool.len()));
    for ((&victim, got), want) in pool.iter().zip(&routed_entries).zip(&lone_entries) {
        if ring.owner(victim) == DEAD {
            let lost = format!("{{\"victim\":{victim},\"error\":{{\"kind\":\"{SHARD_UNAVAILABLE}\"}}}}");
            assert_eq!(*got, lost, "victim {victim} lost its shard");
        } else {
            assert_eq!(got, want, "victim {victim} is on a healthy shard");
        }
    }

    router.shutdown();
    for s in shards {
        s.shutdown();
    }
    reference.shutdown();
}
