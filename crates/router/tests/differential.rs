//! The router's core contract over real TCP: for a fixed topology and
//! query corpus — singles, `origins=` batches, `detail=full`,
//! `exclude=` — every router-mediated response is **byte-identical in
//! `data`** to a single-process `flatnet serve` answering the same
//! corpus in the same order. Seeded random batches hold the merge to the
//! same standard beyond the fixed corpus.

use flatnet_netgen::{generate, NetGenConfig};
use flatnet_router::{merge, HashRing, Router, RouterConfig};
use flatnet_serve::{ServeConfig, Server, TopologySource};
use flatnet_wire::{Client, Conn};
use std::io::Write;
use std::net::SocketAddr;
use std::time::Duration;

const ASES: usize = 300;
const SEED: u64 = 17;

fn start_shard(id: u32, count: u32) -> Server {
    let net = generate(&NetGenConfig::paper_2020(ASES, SEED));
    let tiers = net.tiers_for(&net.truth);
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        shard: Some((id, count)),
        source: TopologySource::Preloaded { graph: net.truth, tiers },
        ..ServeConfig::default()
    })
    .expect("shard starts")
}

fn known_origins(n: usize) -> Vec<u32> {
    let net = generate(&NetGenConfig::paper_2020(ASES, SEED));
    let total = net.truth.len();
    let step = (total / n).max(1);
    net.truth.asns().step_by(step).take(n).map(|a| a.0).collect()
}

/// One HTTP exchange on a persistent connection.
fn exchange(conn: &mut Conn, method: &str, target: &str, body: Option<&str>) -> (u16, String) {
    let mut req = format!("{method} {target} HTTP/1.1\r\nHost: t\r\n");
    if let Some(b) = body {
        req.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{b}",
            b.len()
        ));
    } else {
        req.push_str("\r\n");
    }
    conn.write_all(req.as_bytes()).expect("write request");
    recv(conn)
}

fn recv(conn: &mut Conn) -> (u16, String) {
    let reply = conn.recv().expect("framed response");
    (reply.status, reply.body)
}

fn connect(addr: SocketAddr) -> Conn {
    Client::new(addr.to_string(), Duration::from_secs(60)).dial().expect("connect")
}

#[test]
fn router_responses_are_bit_identical_to_single_process() {
    let shards: Vec<Server> = (0..3).map(|i| start_shard(i, 3)).collect();
    let reference = start_shard(0, 1);
    let router = Router::start(RouterConfig {
        addr: "127.0.0.1:0".into(),
        shard_addrs: shards.iter().map(|s| s.addr().to_string()).collect(),
        probe_interval_ms: 100,
        ..RouterConfig::default()
    })
    .expect("router starts");

    let origins = known_origins(8);
    // The corpus must actually exercise scatter-gather: the batch below
    // has to span at least two shard slices.
    let ring = HashRing::new(3);
    let owners: std::collections::BTreeSet<u32> =
        origins.iter().map(|&o| ring.owner(o)).collect();
    assert!(owners.len() >= 2, "corpus covers one shard only; pick different origins");

    let list = |n: usize| {
        origins[..n].iter().map(u32::to_string).collect::<Vec<_>>().join(",")
    };
    let mut corpus: Vec<(&str, String, Option<String>)> = Vec::new();
    for &o in &origins {
        corpus.push(("GET", format!("/v1/reachability?origin={o}"), None));
    }
    corpus.push(("GET", format!("/v1/reachability?origins={}", list(8)), None));
    // Batch again: now every member is a cache hit, and the merged
    // `cached` flags must match the single process's.
    corpus.push(("GET", format!("/v1/reachability?origins={}", list(8)), None));
    corpus.push(("GET", format!("/v1/reachability?origins={}&detail=full", list(4)), None));
    // Cold exclude= variants miss the cache on both sides.
    corpus.push(("GET", format!("/v1/reachability?origins={}&exclude=tier1", list(6)), None));
    corpus.push((
        "GET",
        format!("/v1/reachability?origins={}&exclude=providers,tier2", list(5)),
        None,
    ));
    corpus.push(("GET", format!("/v1/reliance?origin={}", origins[0]), None));
    corpus.push(("GET", format!("/v1/reliance?origins={}&top=5", list(6)), None));
    corpus.push(("GET", format!("/v1/reliance?origins={}&exclude=tier1", list(4)), None));
    corpus.push((
        "POST",
        "/v1/whatif/leak".into(),
        Some(format!("{{\"victim\":{},\"leakers\":3,\"seed\":1}}", origins[1])),
    ));
    let leak_queries = origins[..4]
        .iter()
        .map(|o| format!("{{\"victim\":{o},\"leakers\":2,\"seed\":7}}"))
        .collect::<Vec<_>>()
        .join(",");
    corpus.push(("POST", "/v1/whatif/leak".into(), Some(format!("{{\"queries\":[{leak_queries}]}}"))));

    let mut via_router = connect(router.addr());
    let mut via_single = connect(reference.addr());
    for (i, (method, target, body)) in corpus.iter().enumerate() {
        let (rs, rb) = exchange(&mut via_router, method, target, body.as_deref());
        let (ss, sb) = exchange(&mut via_single, method, target, body.as_deref());
        assert_eq!(rs, ss, "query {i} ({target}): status diverged\nrouter: {rb}\nsingle: {sb}");
        assert_eq!(rs, 200, "query {i} ({target}) failed: {rb}");
        let rd = merge::envelope_data(&rb)
            .unwrap_or_else(|| panic!("query {i}: router body has no data: {rb}"));
        let sd = merge::envelope_data(&sb)
            .unwrap_or_else(|| panic!("query {i}: single body has no data: {sb}"));
        assert_eq!(rd, sd, "query {i} ({target}): data diverged");
        // A clean (non-partial) merge must not leave router residue in
        // the envelope.
        assert!(!rb.contains("\"router\""), "query {i}: unexpected partial marker: {rb}");
    }

    router.shutdown();
    for s in shards {
        s.shutdown();
    }
    reference.shutdown();
}

/// Seeded random batches: 1–64 origins drawn with repeats from the whole
/// topology, a random `exclude=` subset, `detail=full` on some, half of
/// them reachability and half reliance (with a random `top=`), through a
/// 3-shard router and to one lone daemon. Every `data` must match byte
/// for byte, `cached` flags included.
#[test]
fn random_batches_merge_to_the_lone_daemons_bytes() {
    let shards: Vec<Server> = (0..3).map(|i| start_shard(i, 3)).collect();
    let reference = start_shard(0, 1);
    let router = Router::start(RouterConfig {
        addr: "127.0.0.1:0".into(),
        shard_addrs: shards.iter().map(|s| s.addr().to_string()).collect(),
        probe_interval_ms: 100,
        ..RouterConfig::default()
    })
    .expect("router starts");

    let asns = known_origins(ASES);
    let mut state = 0x5EED_F1A7_0000_0001u64;
    let mut next = |below: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % below as u64) as usize
    };
    let mut via_router = connect(router.addr());
    let mut via_single = connect(reference.addr());
    for i in 0..48 {
        let origins: Vec<String> = (0..1 + next(64)).map(|_| asns[next(asns.len())].to_string()).collect();
        let mut target = if i % 2 == 0 {
            format!("/v1/reachability?origins={}", origins.join(","))
        } else {
            format!("/v1/reliance?origins={}&top={}", origins.join(","), 1 + next(30))
        };
        let exclude: Vec<&str> =
            ["providers", "tier1", "tier2"].into_iter().filter(|_| next(2) == 1).collect();
        if !exclude.is_empty() {
            target.push_str(&format!("&exclude={}", exclude.join(",")));
        }
        if next(3) == 0 {
            target.push_str("&detail=full");
        }
        let (rs, rb) = exchange(&mut via_router, "GET", &target, None);
        let (ss, sb) = exchange(&mut via_single, "GET", &target, None);
        assert_eq!((rs, ss), (200, 200), "batch {i} ({target})\nrouter: {rb}\nsingle: {sb}");
        let rd = merge::envelope_data(&rb).unwrap_or_else(|| panic!("batch {i}: no data: {rb}"));
        let sd = merge::envelope_data(&sb).unwrap_or_else(|| panic!("batch {i}: no data: {sb}"));
        assert_eq!(rd, sd, "batch {i} ({target}): data diverged");
        assert!(!rb.contains("\"router\""), "batch {i}: unexpected partial marker: {rb}");
    }

    router.shutdown();
    for s in shards {
        s.shutdown();
    }
    reference.shutdown();
}

#[test]
fn trace_id_propagates_to_the_owning_shard() {
    let shards: Vec<Server> = (0..2).map(|i| start_shard(i, 2)).collect();
    let router = Router::start(RouterConfig {
        addr: "127.0.0.1:0".into(),
        shard_addrs: shards.iter().map(|s| s.addr().to_string()).collect(),
        probe_interval_ms: 0,
        ..RouterConfig::default()
    })
    .expect("router starts");

    let origin = known_origins(1)[0];
    let mut conn = connect(router.addr());
    // Pin the trace id from the client side; the router must adopt it
    // and the shard's envelope must echo it — one id, two processes.
    conn.write_all(
        format!(
            "GET /v1/reachability?origin={origin} HTTP/1.1\r\nHost: t\r\n\
             X-Flatnet-Trace-Id: 00000000feedface\r\n\r\n"
        )
        .as_bytes(),
    )
    .unwrap();
    let (status, body) = recv(&mut conn);
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        merge::member_str(&body, "trace_id"),
        Some("00000000feedface"),
        "shard envelope did not adopt the propagated trace id: {body}"
    );

    router.shutdown();
    for s in shards {
        s.shutdown();
    }
}

/// A leak victim above `u32::MAX` has no owner: the router forwards the
/// body to a shard as it is, and the answer is that shard's 422 naming
/// the field — single and `queries` form — not the numbers of whichever
/// AS shares the victim's low 32 bits.
#[test]
fn an_out_of_range_leak_victim_gets_the_shards_422() {
    let shards: Vec<Server> = (0..2).map(|i| start_shard(i, 2)).collect();
    let router = Router::start(RouterConfig {
        addr: "127.0.0.1:0".into(),
        shard_addrs: shards.iter().map(|s| s.addr().to_string()).collect(),
        probe_interval_ms: 0,
        ..RouterConfig::default()
    })
    .expect("router starts");

    let real = known_origins(1)[0];
    let bogus = (1u64 << 32) + u64::from(real);
    let single = format!("{{\"victim\":{bogus},\"leakers\":2}}");
    let batch = format!("{{\"queries\":[{{\"victim\":{real},\"leakers\":2}},{{\"victim\":{bogus}}}]}}");
    let mut conn = connect(router.addr());
    for body in [single, batch] {
        let (status, reply) = exchange(&mut conn, "POST", "/v1/whatif/leak", Some(&body));
        assert_eq!(status, 422, "{body} -> {reply}");
        assert!(reply.contains("unprocessable") && reply.contains("'victim'"), "{reply}");
    }

    router.shutdown();
    for s in shards {
        s.shutdown();
    }
}
