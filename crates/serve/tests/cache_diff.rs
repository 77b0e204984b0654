//! Cache correctness, differentially: every `/v1/reachability` answer —
//! cached or not — must be bit-identical (reachable set + count) to a
//! fresh `Simulation` run over the same snapshot with the same exclusion
//! mask; `/admin/reload` must bump the version and invalidate every
//! cached entry; and a reload under concurrent query load must never
//! produce an error or a wrong answer. Every way of asking — single,
//! `origins=X`, a member of a block-crossing batch, a lone miss inside a
//! batch, a warmed entry — must give the byte-identical answer on both
//! cached endpoints under every `exclude=` mask, and a repeated origin
//! must report one `cached` value.

use flatnet_bgpsim::{PropagationConfig, Simulation, TopologySnapshot};
use flatnet_netgen::{generate, NetGenConfig};
use flatnet_serve::json::{parse, Json};
use flatnet_serve::{ServeConfig, Server, TopologySource};
use flatnet_wire::json::{array_items, member, members};
use flatnet_wire::Client;
use std::net::SocketAddr;
use std::time::Duration;

/// One round trip on a fresh connection, closed afterwards.
fn fetch(addr: SocketAddr, method: &str, path: &str) -> (u16, Json) {
    let reply = Client::new(addr.to_string(), Duration::from_secs(30))
        .one_shot(method, path)
        .expect("round trip");
    let body = reply.body;
    (reply.status, parse(&body).unwrap_or_else(|e| panic!("bad JSON body {body:?}: {e}")))
}

/// The response payload: the `data` member for enveloped `/v1` responses,
/// the document itself for bare ones (healthz, metrics, admin).
fn data_of(doc: &Json) -> &Json {
    doc.get("data").unwrap_or(doc)
}

/// The reference: a fresh engine run with the same mask the daemon
/// builds (providers of origin / Tier-1s / Tier-2s, origin kept).
fn direct_reach(
    net: &flatnet_netgen::SyntheticInternet,
    snap: &TopologySnapshot,
    tiers: &flatnet_asgraph::Tiers,
    origin_asn: u32,
    exclude: &str,
) -> (usize, Vec<u32>) {
    let g = &net.truth;
    let origin = g.index_of(flatnet_asgraph::AsId(origin_asn)).unwrap();
    let mut mask = vec![false; g.len()];
    for token in exclude.split(',').filter(|t| !t.is_empty()) {
        match token {
            "providers" => {
                for &p in g.providers(origin) {
                    mask[p.idx()] = true;
                }
            }
            "tier1" => {
                for &t in tiers.tier1() {
                    mask[t.idx()] = true;
                }
            }
            "tier2" => {
                for &t in tiers.tier2() {
                    mask[t.idx()] = true;
                }
            }
            other => panic!("bad exclude token {other}"),
        }
    }
    mask[origin.idx()] = false;
    let cfg = PropagationConfig::default().with_excluded(mask);
    let out = Simulation::over(snap).config(cfg).run(origin);
    let mut asns: Vec<u32> = out.reach_set().iter().map(|&n| g.asn(n).0).collect();
    asns.sort_unstable();
    (out.reachable_count(), asns)
}

fn reach_of(doc: &Json) -> (usize, Vec<u32>, bool, u64) {
    let data = data_of(doc);
    let count = data.get("reachable").and_then(Json::as_u64).expect("reachable") as usize;
    let asns: Vec<u32> = data
        .get("reach")
        .and_then(Json::as_array)
        .expect("reach array (detail=full)")
        .iter()
        .map(|v| v.as_u64().expect("asn") as u32)
        .collect();
    let cached = data.get("cached").and_then(Json::as_bool).expect("cached");
    // The envelope carries the version; `data` carries the answer.
    let version = doc.get("snapshot_version").and_then(Json::as_u64).expect("version");
    (count, asns, cached, version)
}

/// Polls `/metrics` until `serve.cache_warmed` reaches `want` (the warm
/// thread runs in the background; give it ample time under load).
///
/// The counter is the process's, not the daemon's: a test that warms a
/// daemon holds [`warming`] from before the daemon starts until it has
/// read the counter for the last time, and waits for the count it found
/// plus its own — or another test's warm-up is taken for its own (the
/// parent failed one run in fifteen that way).
fn wait_for_warmed(addr: SocketAddr, want: u64) -> u64 {
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let (status, metrics) = fetch(addr, "GET", "/metrics");
        assert_eq!(status, 200);
        let warmed = metrics
            .get("counters")
            .and_then(|c| c.get("serve.cache_warmed"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        if warmed >= want {
            return warmed;
        }
        assert!(std::time::Instant::now() < deadline, "warm-up stalled at {warmed}/{want}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// One warm-up at a time in this process: the guard, and what
/// `serve.cache_warmed` read when it was taken. See [`wait_for_warmed`].
fn warming() -> (std::sync::MutexGuard<'static, ()>, u64) {
    static WARMING: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let guard = WARMING.lock().unwrap_or_else(|e| e.into_inner());
    (guard, flatnet_obs::global().counter("serve.cache_warmed").get())
}

#[test]
fn warmup_prefills_cache_with_bit_identical_answers() {
    let (_one_at_a_time, warmed_before) = warming();
    let net = generate(&NetGenConfig::paper_2020(400, 7));
    let tiers = net.tiers_for(&net.truth);
    let snap = TopologySnapshot::compile(&net.truth);
    // warm > 64 so the warm thread crosses a kernel block boundary.
    let warm = 80usize;
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        warm,
        source: TopologySource::Preloaded { graph: net.truth.clone(), tiers: tiers.clone() },
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();
    wait_for_warmed(addr, warmed_before + warm as u64);

    // The warm set is the top-`warm` origins by degree (node id breaking
    // ties) — the same ordering the server computes.
    let g = &net.truth;
    let mut order: Vec<flatnet_asgraph::NodeId> = g.nodes().collect();
    order.sort_by_key(|&n| (std::cmp::Reverse(g.degree(n)), n.0));

    // First query for warmed origins must hit the cache, and the answer
    // must be bit-identical to a direct per-origin Simulation run.
    for &n in [order[0], order[63], order[warm - 1]].iter() {
        let origin = g.asn(n).0;
        let (want_count, want_asns) = direct_reach(&net, &snap, &tiers, origin, "");
        let path = format!("/v1/reachability?origin={origin}&detail=full");
        let (status, doc) = fetch(addr, "GET", &path);
        assert_eq!(status, 200, "{path}: {doc:?}");
        let (count, asns, cached, _) = reach_of(&doc);
        assert!(cached, "warmed origin {origin} should hit the cache on first query");
        assert_eq!(count, want_count, "{path}: warmed count vs direct Simulation");
        assert_eq!(asns, want_asns, "{path}: warmed reach set vs direct Simulation");
    }

    // An origin outside the warm set still misses on first query.
    let cold = g.asn(order[warm]).0;
    let (status, doc) = fetch(addr, "GET", &format!("/v1/reachability?origin={cold}&detail=full"));
    assert_eq!(status, 200);
    assert!(!data_of(&doc).get("cached").and_then(Json::as_bool).unwrap(), "AS{cold} was not warmed");

    // Reload re-warms for the new version.
    let before = wait_for_warmed(addr, warmed_before + warm as u64);
    let (status, reloaded) = fetch(addr, "POST", "/admin/reload");
    assert_eq!(status, 200, "{reloaded:?}");
    wait_for_warmed(addr, before + warm as u64);
    let hot = g.asn(order[0]).0;
    let (status, doc) = fetch(addr, "GET", &format!("/v1/reachability?origin={hot}&detail=full"));
    assert_eq!(status, 200);
    assert_eq!(doc.get("snapshot_version").and_then(Json::as_u64), Some(2));
    assert!(
        data_of(&doc).get("cached").and_then(Json::as_bool).unwrap(),
        "reload should re-warm AS{hot} under the new version"
    );

    server.shutdown();
}

#[test]
fn cached_answers_are_bit_identical_and_reload_invalidates() {
    let net = generate(&NetGenConfig::paper_2020(600, 42));
    let tiers = net.tiers_for(&net.truth);
    let snap = TopologySnapshot::compile(&net.truth);
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 3,
        source: TopologySource::Preloaded { graph: net.truth.clone(), tiers: tiers.clone() },
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();

    // A cloud, a Tier-1, and an arbitrary mid-table AS.
    let origins = [
        net.clouds[0].asn.0,
        net.truth.asn(tiers.tier1()[0]).0,
        net.truth.asn(flatnet_asgraph::NodeId((net.truth.len() / 2) as u32)).0,
    ];
    let variants =
        ["", "providers", "tier1", "providers,tier1", "providers,tier1,tier2", "tier2"];

    // ---- Differential pass: miss then hit, both bit-identical. ----
    for &origin in &origins {
        for variant in variants {
            let (want_count, want_asns) = direct_reach(&net, &snap, &tiers, origin, variant);
            let path = format!("/v1/reachability?origin={origin}&exclude={variant}&detail=full");
            let (status, first) = fetch(addr, "GET", &path);
            assert_eq!(status, 200, "{path}: {first:?}");
            let (count1, asns1, cached1, v1) = reach_of(&first);
            assert!(!cached1, "first query of {path} must be a miss");
            assert_eq!(v1, 1);
            assert_eq!(count1, want_count, "{path}: count vs direct Simulation");
            assert_eq!(asns1, want_asns, "{path}: reach set vs direct Simulation");

            let (status, second) = fetch(addr, "GET", &path);
            assert_eq!(status, 200);
            let (count2, asns2, cached2, _) = reach_of(&second);
            assert!(cached2, "second query of {path} must hit the cache");
            assert_eq!(count2, want_count, "{path}: cached count drifted");
            assert_eq!(asns2, want_asns, "{path}: cached reach set drifted");
        }
    }

    // The cache hits must be visible in /metrics.
    let (status, metrics) = fetch(addr, "GET", "/metrics");
    assert_eq!(status, 200);
    let hits = metrics
        .get("counters")
        .and_then(|c| c.get("serve.cache_hit"))
        .and_then(Json::as_u64)
        .expect("serve.cache_hit counter");
    assert!(hits >= (origins.len() * variants.len()) as u64, "only {hits} cache hits");

    // ---- Reload invalidates: version bumps, first query misses. ----
    let probe = format!("/v1/reachability?origin={}&exclude=providers&detail=full", origins[0]);
    let (status, reloaded) = fetch(addr, "POST", "/admin/reload");
    assert_eq!(status, 200, "{reloaded:?}");
    assert_eq!(reloaded.get("snapshot_version").and_then(Json::as_u64), Some(2));

    let (want_count, want_asns) = direct_reach(&net, &snap, &tiers, origins[0], "providers");
    let (status, after) = fetch(addr, "GET", &probe);
    assert_eq!(status, 200);
    let (count, asns, cached, version) = reach_of(&after);
    assert!(!cached, "reload must invalidate cached entries");
    assert_eq!(version, 2);
    // Same source -> same topology -> same answer, recomputed.
    assert_eq!(count, want_count);
    assert_eq!(asns, want_asns);

    // ---- Mid-load reload: queries keep answering correctly. ----
    let worker = {
        let origin = origins[1];
        std::thread::spawn(move || {
            let mut statuses = Vec::new();
            for _ in 0..40 {
                let (status, doc) =
                    fetch(addr, "GET", &format!("/v1/reachability?origin={origin}"));
                let count = data_of(&doc).get("reachable").and_then(Json::as_u64).unwrap_or(0);
                statuses.push((status, count));
            }
            statuses
        })
    };
    for _ in 0..5 {
        let (status, _) = fetch(addr, "POST", "/admin/reload");
        assert_eq!(status, 200);
    }
    let (want_count, _) = direct_reach(&net, &snap, &tiers, origins[1], "");
    for (status, count) in worker.join().expect("query thread") {
        assert_eq!(status, 200, "query failed during reload");
        assert_eq!(count as usize, want_count, "answer drifted during reload");
    }

    // Reliance answers cache correctly too (distinct fingerprint: the
    // reachability entries above must not collide with these).
    let rel = format!("/v1/reliance?origin={}", origins[0]);
    let (status, first) = fetch(addr, "GET", &rel);
    assert_eq!(status, 200);
    assert_eq!(data_of(&first).get("cached").and_then(Json::as_bool), Some(false));
    let receivers = data_of(&first).get("receivers").and_then(Json::as_f64).unwrap();
    assert!(receivers > 1.0);
    let (status, second) = fetch(addr, "GET", &rel);
    assert_eq!(status, 200);
    assert_eq!(data_of(&second).get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(data_of(&second).get("receivers").and_then(Json::as_f64), Some(receivers));

    server.shutdown();
}

/// One round trip; the verbatim text of the envelope's `data` member.
fn fetch_data(addr: SocketAddr, path: &str) -> String {
    let reply = Client::new(addr.to_string(), Duration::from_secs(60))
        .one_shot("GET", path)
        .expect("round trip");
    assert_eq!(reply.status, 200, "{path}: {}", reply.body);
    member(&reply.body, "data").unwrap_or_else(|| panic!("{path}: no data")).to_string()
}

/// One origin's answer as verbatim `(key, value text)` pairs plus its
/// `cached` flag — from a single's flat `data` object or one batch
/// `results` entry. `endpoint`/`exclude` belong to the response shape,
/// not the answer, and are dropped.
fn answer_of(obj: &str) -> (Vec<(String, String)>, bool) {
    let mut cached = None;
    let mut fields = Vec::new();
    for (k, v) in members(obj).expect("an object") {
        match k {
            "endpoint" | "exclude" => {}
            "cached" => cached = Some(v == "true"),
            _ => fields.push((k.to_string(), v.to_string())),
        }
    }
    (fields, cached.expect("cached flag"))
}

/// The `results` entries of a batch-shaped `data` object.
fn batch_answers(data: &str) -> Vec<(Vec<(String, String)>, bool)> {
    let results = member(data, "results").expect("results array");
    array_items(results).expect("array").into_iter().map(answer_of).collect()
}

#[rustfmt::skip]
const EXCLUDE_MASKS: [&str; 8] = [
    "", "providers", "tier1", "providers,tier1",
    "tier2", "providers,tier2", "tier1,tier2", "providers,tier1,tier2",
];

#[test]
fn every_way_of_asking_gives_the_byte_identical_answer() {
    let net = generate(&NetGenConfig::paper_2020(500, 23));
    let g = &net.truth;
    let tiers = net.tiers_for(g);
    let start = |warm: usize| {
        Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            warm,
            source: TopologySource::Preloaded { graph: g.clone(), tiers: tiers.clone() },
            ..ServeConfig::default()
        })
        .expect("server starts")
    };
    let server = start(0);
    let addr = server.addr();
    // Everything pre-warmed (default policy, reachability) on a second daemon.
    let warmed = {
        let (_one_at_a_time, warmed_before) = warming();
        let warmed = start(g.len());
        wait_for_warmed(warmed.addr(), warmed_before + g.len() as u64);
        warmed
    };

    // A Tier-1 (the shared tier mask covers the origin itself), a stub,
    // and a mid-tier AS with both providers and customers.
    let in_tiers = |n| tiers.is_tier1(n) || tiers.is_tier2(n);
    let tier1 = tiers.tier1()[0];
    let stub = g
        .nodes()
        .find(|&n| g.customers(n).is_empty() && !g.providers(n).is_empty())
        .expect("a stub");
    let mid = g
        .nodes()
        .find(|&n| !in_tiers(n) && !g.customers(n).is_empty() && !g.providers(n).is_empty())
        .expect("a mid-tier AS");
    let probes = [tier1, stub, mid].map(|n| g.asn(n).0);
    // A 300-origin batch (two kernel blocks at the widest lane width)
    // with the probes in the first block, across the boundary, and last.
    let mut batch: Vec<u32> = g
        .nodes()
        .map(|n| g.asn(n).0)
        .filter(|a| !probes.contains(a))
        .take(297)
        .collect();
    batch.insert(0, probes[0]);
    batch.insert(256, probes[1]);
    batch.push(probes[2]);
    assert_eq!(batch.len(), 300);
    let list = |asns: &[u32]| asns.iter().map(u32::to_string).collect::<Vec<_>>().join(",");
    let reload = || assert_eq!(fetch(addr, "POST", "/admin/reload").0, 200);

    for (endpoint, detail) in [("reachability", "&detail=full"), ("reliance", "&top=1000")] {
        for mask in EXCLUDE_MASKS {
            let what = format!("{endpoint} exclude={mask:?}");
            let url =
                |origins: &str| format!("/v1/{endpoint}?{origins}&exclude={mask}{detail}");
            // Single: one scalar solve each.
            let single: Vec<_> = probes
                .iter()
                .map(|x| {
                    let (fields, cached) = answer_of(&fetch_data(addr, &url(&format!("origin={x}"))));
                    assert!(!cached, "{what}: first single of AS{x}");
                    fields
                })
                .collect();
            // ... and again, from the cache.
            for (x, want) in probes.iter().zip(&single) {
                let (fields, cached) = answer_of(&fetch_data(addr, &url(&format!("origin={x}"))));
                assert!(cached, "{what}: second single of AS{x}");
                assert_eq!(&fields, want, "{what}: cached single of AS{x}");
            }
            // `origins=X`: the batch shape around a batch of one.
            reload();
            for (x, want) in probes.iter().zip(&single) {
                let got = batch_answers(&fetch_data(addr, &url(&format!("origins={x}"))));
                assert_eq!(got, vec![(want.clone(), false)], "{what}: origins={x}");
            }
            // A member of a batch that crosses a 256-lane block.
            reload();
            let got = batch_answers(&fetch_data(addr, &url(&format!("origins={}", list(&batch)))));
            assert_eq!(got.len(), batch.len());
            for (i, want) in [(0, &single[0]), (256, &single[1]), (299, &single[2])] {
                assert_eq!(got[i], (want.clone(), false), "{what}: batch slot {i}");
            }
            // The only miss of an otherwise cached batch.
            reload();
            fetch_data(addr, &url(&format!("origins={}", list(&batch[..299]))));
            let got = batch_answers(&fetch_data(addr, &url(&format!("origins={}", list(&batch)))));
            assert!(got[..299].iter().all(|(_, cached)| *cached), "{what}: primed slots");
            assert_eq!(got[299], (single[2].clone(), false), "{what}: lone miss in a batch");
            // The warm-up thread's entry.
            if endpoint == "reachability" && mask.is_empty() {
                for (x, want) in probes.iter().zip(&single) {
                    let path = url(&format!("origin={x}"));
                    let (fields, cached) = answer_of(&fetch_data(warmed.addr(), &path));
                    assert!(cached, "{what}: AS{x} was warmed");
                    assert_eq!(&fields, want, "{what}: warmed AS{x}");
                }
            }
        }
    }
    server.shutdown();
    warmed.shutdown();
}

/// `cached` means "was in the cache when this request probed", on both
/// endpoints: a repeated origin reports a miss at every occurrence of a
/// cold request and a hit at every occurrence of the next.
#[test]
fn a_repeated_origin_reports_one_cached_value_on_both_endpoints() {
    let net = generate(&NetGenConfig::paper_2020(300, 5));
    let tiers = net.tiers_for(&net.truth);
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        source: TopologySource::Preloaded { graph: net.truth.clone(), tiers },
        ..ServeConfig::default()
    })
    .expect("server starts");
    let (a, b) = (net.clouds[0].asn.0, net.clouds[1].asn.0);
    for endpoint in ["reachability", "reliance"] {
        let path = format!("/v1/{endpoint}?origins={a},{b},{a}");
        for want in [false, true] {
            let got = batch_answers(&fetch_data(server.addr(), &path));
            let flags: Vec<bool> = got.iter().map(|(_, cached)| *cached).collect();
            assert_eq!(flags, [want; 3], "{path}");
            assert_eq!(got[0].0, got[2].0, "{path}: the repeat is the same answer");
        }
    }
    server.shutdown();
}

/// One origin's `detail=full` `data` object as the parent commit rendered
/// it: the summary fields, then the sorted reach set walked bit by bit
/// off the engine's words.
fn parent_full_data(
    g: &flatnet_asgraph::AsGraph,
    origin: flatnet_asgraph::NodeId,
    exclude_names: &str,
    words: &[u64],
    reached: usize,
    cached: bool,
) -> String {
    let max_possible = g.len() - 1;
    let pct = 100.0 * reached as f64 / max_possible as f64;
    let mut data = format!(
        "{{\"endpoint\":\"reachability\",\"exclude\":[{exclude_names}],\"origin\":{},\
         \"reachable\":{reached},\"max_possible\":{max_possible},\"pct\":{},\"cached\":{cached},\
         \"reach\":[",
        g.asn(origin).0,
        flatnet_serve::json::fmt_f64((pct * 1e4).round() / 1e4),
    );
    let mut first = true;
    for (wi, &word) in words.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            let idx = (wi as u32) * 64 + w.trailing_zeros();
            w &= w - 1;
            if idx == origin.0 {
                continue;
            }
            if !std::mem::take(&mut first) {
                data.push(',');
            }
            data.push_str(&g.asn(flatnet_asgraph::NodeId(idx)).0.to_string());
        }
    }
    data.push_str("]}");
    data
}

/// A cached reach set is kept as its missing nodes, its reached nodes or
/// its bitset; whichever it is, `detail=full` streams the bytes the
/// parent's bit-walking emitter produced, as a miss and again as a hit.
#[test]
fn full_detail_bodies_are_the_parents_bytes_in_every_form() {
    use flatnet_bgpsim::{Exclusion, ExclusionPolicy, ReachForm, ReachSet, Workspace};
    let net = generate(&NetGenConfig::paper_2020(1500, 23));
    let tiers = net.tiers_for(&net.truth);
    let snap = TopologySnapshot::compile(&net.truth);
    let g = &net.truth;
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        // One for the keep-alive client below, one for the `/metrics` read.
        workers: 2,
        source: TopologySource::Preloaded { graph: g.clone(), tiers: tiers.clone() },
        ..ServeConfig::default()
    })
    .expect("server starts");
    let client = Client::new(server.addr().to_string(), Duration::from_secs(30));

    // With the hierarchy a cloud reaches everyone (its missing nodes are
    // the short side); without it a cloud keeps most of the graph and
    // loses much of it (the bitset), a stub keeps a handful of peers
    // or nobody (its reached nodes).
    let cloud = g.index_of(net.clouds[0].asn).unwrap();
    let stub = g.nodes().find(|&n| g.customers(n).is_empty() && g.peers(n).len() <= 2).unwrap();
    let hfree = ("providers,tier1,tier2", "\"providers\",\"tier1\",\"tier2\"");
    let cases = [
        (cloud, ("", ""), ExclusionPolicy::NONE, ReachForm::Except),
        (cloud, hfree, ExclusionPolicy::HIERARCHY_FREE, ReachForm::Bits),
        (stub, hfree, ExclusionPolicy::HIERARCHY_FREE, ReachForm::Only),
    ];
    let mut ws = Workspace::for_snapshot(&snap);
    for (origin, (exclude, names), policy, form) in cases {
        let mut mask = vec![false; g.len()];
        Exclusion::new(g, &tiers, policy).unwrap().fill_scalar(origin, &mut mask);
        ws.run(&snap, origin, &PropagationConfig::default().with_excluded(mask));
        let kept = ReachSet::from_words(ws.reach_words(), g.len());
        assert_eq!(kept.form(), form, "{} exclude={exclude}: the topology drifted", g.asn(origin));

        let target =
            format!("/v1/reachability?origin={}&exclude={exclude}&detail=full", g.asn(origin).0);
        for cached in [false, true] {
            let reply = client.request("GET", &target, None, 0).expect("round trip");
            assert_eq!(reply.status, 200, "{target}: {}", reply.body);
            let data = &reply.body[reply.body.find("\"data\":").expect("an enveloped body") + 7..];
            let want =
                parent_full_data(g, origin, names, ws.reach_words(), ws.reachable_count(), cached);
            assert_eq!(data, format!("{want}}}\n"), "{target}, cached {cached}, kept as {form:?}");
        }
    }

    // The mix is visible from `/metrics`, one counter a form.
    let (status, metrics) = fetch(server.addr(), "GET", "/metrics");
    assert_eq!(status, 200);
    for form in ReachForm::ALL {
        let name = format!("serve.cache_put{{form=\"{}\"}}", form.name());
        let puts = metrics.get("counters").and_then(|c| c.get(&name)).and_then(Json::as_u64);
        assert!(puts >= Some(1), "{name} reads {puts:?}");
    }
    server.shutdown();
}
