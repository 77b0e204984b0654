//! The allocation budget of a steady-state miss: once one request of each
//! kind has sized the long-lived scratch (the snapshot's pooled scalar
//! contexts, reliance kernel with its ranking buffer, and lane
//! workspaces), a miss
//! allocates the answer the cache keeps, the response it writes, and a
//! small constant of per-request bookkeeping — nothing that grows with
//! the topology. The same constants hold at two node counts a factor of
//! four apart, which is what "independent of node count" means here.
//!
//! Measured from outside, over the daemon's real request path: the
//! `flatnet-testkit` counting `#[global_allocator]` sums the bytes every
//! thread but the test's own allocates (the test thread mutes itself, so
//! its client-side buffers do not count), one worker serves one
//! keep-alive connection, and the answers' retained bytes are read off
//! `/healthz` (`cache_bytes` is the sum of the cached answers'
//! `retained_bytes`). That a request was a
//! miss is read off its own body (`"cached":false`), never inferred from
//! how much it kept: a reach answer is kept by its shorter side, so a
//! full-reach miss keeps a few dozen bytes at any node count and only an
//! answer that is neither nearly full nor nearly empty keeps the bitset.
//!
//! ONE `#[test]`: the process hosts a global counting allocator, and a
//! second test's daemon would allocate into the same counter.

use flatnet_netgen::{generate, NetGenConfig};
use flatnet_serve::json::{parse, Json};
use flatnet_serve::{ServeConfig, Server, TopologySource};
use flatnet_testkit::{mute_this_thread, process, Counting};
use flatnet_wire::Client;
use std::time::Duration;

#[global_allocator]
static ALLOC: Counting = Counting;

/// What one request cost the daemon.
struct Cost {
    /// Bytes the daemon's threads allocated while answering.
    allocated: u64,
    /// Growth of `/healthz` `cache_bytes`: the new answers' retained bytes.
    retained: u64,
    /// Origins the response reports as `"cached":false`.
    misses: u64,
    /// Bytes of the response body.
    response: u64,
}

impl Cost {
    /// Allocated bytes beyond the answers kept and the response written.
    fn overhead(&self) -> u64 {
        self.allocated.saturating_sub(self.retained + self.response)
    }
}

struct Daemon {
    server: Server,
    client: Client,
}

impl Daemon {
    fn start(ases: usize) -> Daemon {
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            // One worker, bound to the test's one keep-alive connection:
            // every request runs on the scratch the warm-ups sized.
            workers: 1,
            warm: 0,
            deadline_ms: 120_000,
            io_timeout_ms: 120_000,
            keepalive_max: 1 << 20,
            keepalive_idle_ms: 120_000,
            source: TopologySource::Generated { ases, seed: 15 },
            ..ServeConfig::default()
        })
        .expect("daemon starts");
        let client = Client::new(server.addr().to_string(), Duration::from_secs(120));
        Daemon { server, client }
    }

    fn request(&self, method: &str, target: &str, body: Option<&str>) -> String {
        let reply = self.client.request(method, target, body, 0).expect("round trip");
        assert_eq!(reply.status, 200, "{method} {target}: {}", reply.body);
        reply.body
    }

    fn health(&self, member: &str) -> u64 {
        let doc = parse(&self.request("GET", "/healthz", None)).expect("healthz is JSON");
        doc.get(member).and_then(Json::as_u64).unwrap_or_else(|| panic!("healthz has {member}"))
    }

    fn measure(&self, method: &str, target: &str, body: Option<&str>) -> Cost {
        let cache_before = self.health("cache_bytes");
        let before = process().bytes;
        let response = self.request(method, target, body);
        let allocated = process().bytes - before;
        let retained = self.health("cache_bytes") - cache_before;
        let misses = response.matches("\"cached\":false").count() as u64;
        Cost { allocated, retained, misses, response: response.len() as u64 }
    }
}

fn csv(asns: &[u32]) -> String {
    asns.iter().map(u32::to_string).collect::<Vec<_>>().join(",")
}

/// The middle one of an odd number of costs, by bytes beyond answer and
/// response. A long-lived buffer whose length follows the run (a touched
/// list, a frontier) grows by doubling, so one request in a few may
/// still push one of them a step further; the median is the steady state.
fn typical(mut costs: Vec<Cost>) -> Cost {
    costs.sort_by_key(Cost::overhead);
    costs.swap_remove(costs.len() / 2)
}

/// Per-request bookkeeping a 256-origin batch may allocate beyond its
/// answers and response, about 700 B an origin: the parsed request, keys,
/// probes and miss slots, 256 `Arc` headers, cache entries and the index
/// tables growing under them, a `format!` per rendered entry, the
/// response `String`'s doubling slack and the copy the writer frames.
const BATCH_OVERHEAD: u64 = 192 << 10;
/// The same for a single-origin miss and for a leak query (whose sweep
/// spawns its worker threads and samples its leakers per request).
const SINGLE_OVERHEAD: u64 = 24 << 10;
/// A `detail=full` stream renders through one fixed 32 KiB chunk buffer
/// and never holds its text, so its budget does not even include the
/// response: the answer plus this.
const STREAM_OVERHEAD: u64 = 64 << 10;
/// What the cache keeps of one reliance answer at most: the 1 000 best
/// `(asn, score)` pairs and the value holding them.
const RELIANCE_ANSWER_MAX: u64 = 1_000 * 16 + 64;
/// What the cache keeps of one no-exclusion reach answer at most: the
/// value and the handful of nodes the origin does *not* reach, whatever
/// the node count.
const FULL_REACH_ANSWER_MAX: u64 = 256;

#[test]
fn a_steady_state_miss_allocates_its_answer_and_its_response_and_no_scratch() {
    mute_this_thread();
    for ases in [3_000usize, 12_000] {
        let net = generate(&NetGenConfig::paper_2020(ases, 15));
        let asns: Vec<u32> = net.truth.asns().map(|a| a.0).collect();
        assert!(asns.len() >= 1_300, "topology too small for every disjoint batch below");
        let words_bytes = (asns.len().div_ceil(64) * 8) as u64;
        let daemon = Daemon::start(ases);
        let reach = |query: String| format!("/v1/reachability?{query}");
        let rely = |query: String| format!("/v1/reliance?{query}");
        let leak = format!("{{\"victim\":{},\"leakers\":4,\"lock\":\"t12\",\"seed\":3}}", asns[7]);

        // One request of each kind sizes every long-lived buffer.
        let (batches, singles) = asns.split_at(1024);
        daemon.request("GET", &reach(format!("origins={}", csv(&batches[..256]))), None);
        daemon.request("GET", &reach(format!("origin={}", singles[0])), None);
        daemon.request("GET", &reach(format!("origin={}&detail=full", singles[1])), None);
        daemon.request("GET", &rely(format!("origin={}", singles[2])), None);
        daemon.request("POST", "/v1/whatif/leak", Some(&leak));

        // 256-origin batches of misses: one lane sweep each.
        let batch = typical(
            batches[256..]
                .chunks(256)
                .map(|b| daemon.measure("GET", &reach(format!("origins={}", csv(b))), None))
                .collect(),
        );
        assert_eq!(batch.misses, 256, "all 256 origins were misses");
        assert!(batch.retained <= 256 * FULL_REACH_ANSWER_MAX, "the batch kept {}", batch.retained);
        // Which holds only while the sweep encodes each lane as it reads
        // it: 256 bitsets first would be 376 KB at 12 000 ASes.
        assert!(
            batch.overhead() <= BATCH_OVERHEAD,
            "{ases} ASes, batch: {} B allocated for {} B of answers and a {} B response",
            batch.allocated,
            batch.retained,
            batch.response
        );

        // Cold singles: the worker's scalar workspace.
        let single = typical(
            singles[3..8]
                .iter()
                .map(|o| daemon.measure("GET", &reach(format!("origin={o}")), None))
                .collect(),
        );
        assert_eq!(single.misses, 1, "the single was a miss");
        assert!(single.retained <= FULL_REACH_ANSWER_MAX, "the single kept {}", single.retained);
        assert!(
            single.overhead() <= SINGLE_OVERHEAD,
            "{ases} ASes, single: {} B allocated for a {} B answer and a {} B response",
            single.allocated,
            single.retained,
            single.response
        );

        // A cloud reaches most of the graph without the hierarchy and
        // misses much of it: neither side of its set is short, so the
        // answer is the bitset.
        let hfree = daemon.measure(
            "GET",
            &reach(format!("origin={}&exclude=providers,tier1,tier2", net.clouds[0].asn.0)),
            None,
        );
        assert_eq!(hfree.misses, 1, "the hierarchy-free single was a miss");
        assert!(hfree.retained >= words_bytes, "the hierarchy-free answer kept {}", hfree.retained);
        assert!(
            hfree.overhead() <= SINGLE_OVERHEAD,
            "{ases} ASes, hierarchy-free: {} B allocated for a {} B answer and a {} B response",
            hfree.allocated,
            hfree.retained,
            hfree.response
        );

        // `detail=full` misses: the answer, then a stream off its set.
        let full = typical(
            singles[8..11]
                .iter()
                .map(|o| daemon.measure("GET", &reach(format!("origin={o}&detail=full")), None))
                .collect(),
        );
        assert_eq!(full.misses, 1, "the streamed origin was a miss");
        assert!(full.retained <= FULL_REACH_ANSWER_MAX, "the streamed answer kept {}", full.retained);
        assert!(full.response > 2 * asns.len() as u64, "most of the graph is streamed");
        assert!(
            full.allocated <= full.retained + STREAM_OVERHEAD,
            "{ases} ASes, full: {} B allocated for a {} B answer (stream of {} B)",
            full.allocated,
            full.retained,
            full.response
        );

        // 4-leaker leak queries: nothing is cached, nothing is compiled,
        // the simulators come out of the snapshot's pool.
        let leaked = typical(
            (0..3).map(|_| daemon.measure("POST", "/v1/whatif/leak", Some(&leak))).collect(),
        );
        assert_eq!(leaked.retained, 0, "leak answers are not cached");
        assert!(
            leaked.overhead() <= SINGLE_OVERHEAD,
            "{ases} ASes, leak: {} B allocated for a {} B response",
            leaked.allocated,
            leaked.response
        );

        // Reliance misses, one and 32 to a request: a scalar run, the
        // kernel and the ranking on the worker's own buffers (the kernel's
        // per-node arrays were sized by the warm-up), so what is allocated
        // is the ranked pairs the cache keeps.
        let (rely_singles, rely_batches) = singles[11..112].split_at(5);
        let rely_single = typical(
            rely_singles
                .iter()
                .map(|o| daemon.measure("GET", &rely(format!("origin={o}")), None))
                .collect(),
        );
        let rely_batch = typical(
            rely_batches
                .chunks(32)
                .map(|b| daemon.measure("GET", &rely(format!("origins={}", csv(b))), None))
                .collect(),
        );
        for (cost, origins, budget, what) in [
            (&rely_single, 1, SINGLE_OVERHEAD, "reliance single"),
            (&rely_batch, 32, BATCH_OVERHEAD, "reliance batch"),
        ] {
            assert_eq!(cost.misses, origins, "{what}: every origin was a miss");
            assert!(cost.retained <= origins * RELIANCE_ANSWER_MAX, "{what} kept {}", cost.retained);
            assert!(
                cost.overhead() <= budget,
                "{ases} ASes, {what}: {} B allocated for {} B of answers and a {} B response",
                cost.allocated,
                cost.retained,
                cost.response
            );
        }

        println!(
            "{ases} ASes, bytes beyond answers + response: batch {}, single {}, full {} \
             (response not credited), leak {}, reliance single {}, reliance batch of 32 {}",
            batch.overhead(),
            single.overhead(),
            full.allocated - full.retained,
            leaked.overhead(),
            rely_single.overhead(),
            rely_batch.overhead()
        );
        daemon.server.shutdown();
    }
}
