//! The request side of the serving workloads: what each op asks, how it
//! is rendered, how its answer is checked, and the seeded plan (request
//! table + per-client schedule) of `hot`, `cold` and `fleet`.

use crate::client::{get_request, post_request};
use crate::stats::{cyclic_mix, Rng, Weighted};
use crate::world::{exclude_query, Reference, World, HIERARCHY_FREE, LOCKS};
use flatnet_serve::json::{self, Json};

/// The kinds of op the per-kind metrics are reported for; the first five
/// are HTTP requests, the last two are `sweep`'s kernel calls (`sweep`
/// reports its reliance and leak calls under the shared names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Single,
    Batch,
    Reliance,
    Full,
    Leak,
    Dense,
    Hfree,
}

impl Kind {
    pub const ALL: [Kind; 7] = [
        Kind::Single,
        Kind::Batch,
        Kind::Reliance,
        Kind::Full,
        Kind::Leak,
        Kind::Dense,
        Kind::Hfree,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Single => "single",
            Kind::Batch => "batch",
            Kind::Reliance => "reliance",
            Kind::Full => "full",
            Kind::Leak => "leak",
            Kind::Dense => "dense",
            Kind::Hfree => "hfree",
        }
    }
}

/// One HTTP op, in terms the checker can recompute.
#[derive(Debug, Clone)]
pub enum Request {
    /// `GET /v1/reachability?origin=A[&exclude=…][&detail=full]`
    Reach { origin: u32, bits: u8, full: bool },
    /// `GET /v1/reachability?origins=A,B,…[&exclude=…]`
    ReachBatch { origins: Vec<u32>, bits: u8 },
    /// `GET /v1/reliance?origin=A`
    Reliance { origin: u32 },
    /// `POST /v1/whatif/leak`, `lock` indexing [`LOCKS`].
    Leak {
        victim: u32,
        leakers: usize,
        lock: usize,
        seed: u64,
    },
}

fn with_exclude(mut target: String, bits: u8) -> String {
    if bits != 0 {
        target.push_str("&exclude=");
        target.push_str(&exclude_query(bits));
    }
    target
}

impl Request {
    pub fn kind(&self) -> Kind {
        match self {
            Request::Reach { full: false, .. } => Kind::Single,
            Request::Reach { full: true, .. } => Kind::Full,
            Request::ReachBatch { .. } => Kind::Batch,
            Request::Reliance { .. } => Kind::Reliance,
            Request::Leak { .. } => Kind::Leak,
        }
    }

    /// The request target (path and query), as the router replay needs it.
    pub fn target(&self) -> String {
        match self {
            Request::Reach { origin, bits, full } => {
                let mut t = with_exclude(format!("/v1/reachability?origin={origin}"), *bits);
                if *full {
                    t.push_str("&detail=full");
                }
                t
            }
            Request::ReachBatch { origins, bits } => {
                let list: Vec<String> = origins.iter().map(u32::to_string).collect();
                with_exclude(
                    format!("/v1/reachability?origins={}", list.join(",")),
                    *bits,
                )
            }
            Request::Reliance { origin } => format!("/v1/reliance?origin={origin}"),
            Request::Leak { .. } => "/v1/whatif/leak".to_string(),
        }
    }

    /// The JSON body of a `POST`, `None` for a `GET`.
    pub fn post_body(&self) -> Option<String> {
        match self {
            Request::Leak {
                victim,
                leakers,
                lock,
                seed,
            } => Some(format!(
                "{{\"victim\":{victim},\"leakers\":{leakers},\"lock\":\"{}\",\"seed\":{seed}}}",
                LOCKS[*lock].0
            )),
            _ => None,
        }
    }

    /// The bytes a client writes for this op.
    pub fn render(&self) -> Vec<u8> {
        match self.post_body() {
            Some(body) => post_request(&self.target(), &body),
            None => get_request(&self.target()),
        }
    }

    /// How many origins the op resolves (for `trace.origins_per_s`).
    pub fn origins(&self) -> usize {
        match self {
            Request::ReachBatch { origins, .. } => origins.len(),
            _ => 1,
        }
    }

    /// Recomputes the answer on the reference and compares every field
    /// the daemon derived from the topology.
    pub fn check(&self, reference: &mut Reference, body: &[u8]) -> Result<(), String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let doc = json::parse(text).map_err(|e| format!("body is not JSON: {e}"))?;
        if doc.get("schema").and_then(Json::as_str) != Some("flatnet-serve/v1") {
            return Err("envelope schema missing".into());
        }
        let data = doc
            .get("data")
            .ok_or_else(|| format!("no data member in {text:.200}"))?;
        match self {
            Request::Reach { origin, bits, full } => {
                let want = reference.reach_count(*origin, *bits)? as u64;
                check_reach_entry(reference, data, *origin, want)?;
                if *full {
                    let got: Vec<u32> = data
                        .get("reach")
                        .and_then(Json::as_array)
                        .ok_or("no reach array")?
                        .iter()
                        .map(|v| {
                            v.as_u64()
                                .map(|a| a as u32)
                                .ok_or("non-numeric reach entry")
                        })
                        .collect::<Result<_, _>>()?;
                    let want = reference.reach_set(*origin, *bits)?;
                    if got != want {
                        return Err(format!(
                            "AS{origin}: reach set differs ({} vs {} ASes)",
                            got.len(),
                            want.len()
                        ));
                    }
                }
                Ok(())
            }
            Request::ReachBatch { origins, bits } => {
                let results = data
                    .get("results")
                    .and_then(Json::as_array)
                    .ok_or("no results array")?;
                if results.len() != origins.len()
                    || data.get("batch").and_then(Json::as_u64) != Some(origins.len() as u64)
                {
                    return Err(format!(
                        "batch of {} answered {} entries",
                        origins.len(),
                        results.len()
                    ));
                }
                // Every entry against the lane kernel run directly, and
                // every sixteenth against the scalar engine as well (a
                // scalar run per entry would take a second per batch).
                let kernel = reference.reach_counts_kernel(origins, *bits)?;
                for (k, (entry, &origin)) in results.iter().zip(origins).enumerate() {
                    let want = if k % 16 == 0 {
                        reference.reach_count(origin, *bits)?
                    } else {
                        kernel[k]
                    };
                    if want != kernel[k] {
                        return Err(format!(
                            "AS{origin}: scalar engine {want}, lane kernel {}",
                            kernel[k]
                        ));
                    }
                    check_reach_entry(reference, entry, origin, want as u64)?;
                }
                Ok(())
            }
            Request::Reliance { origin } => {
                let (receivers, top) = reference.reliance(*origin)?;
                expect_f64(data, "receivers", receivers)?;
                let got = data
                    .get("top")
                    .and_then(Json::as_array)
                    .ok_or("no top array")?;
                // The endpoint's default `top` is 20.
                if got.len() != top.len().min(20) {
                    return Err(format!(
                        "AS{origin}: top has {} entries, want {}",
                        got.len(),
                        top.len().min(20)
                    ));
                }
                for (entry, (asn, rely)) in got.iter().zip(&top) {
                    if entry.get("asn").and_then(Json::as_u64) != Some(*asn as u64) {
                        return Err(format!("AS{origin}: top entry is not AS{asn}"));
                    }
                    expect_f64(entry, "rely", *rely)?;
                }
                Ok(())
            }
            Request::Leak {
                victim,
                leakers,
                lock,
                seed,
            } => {
                let cdf = reference.leak(*victim, *leakers, LOCKS[*lock].1, *seed)?;
                if data.get("leakers").and_then(Json::as_u64) != Some(cdf.fractions.len() as u64) {
                    return Err(format!("AS{victim}: leaker count differs"));
                }
                let detour = data.get("detour_fraction").ok_or("no detour_fraction")?;
                expect_f64(detour, "median", cdf.median())?;
                expect_f64(detour, "p90", cdf.percentile(90.0))?;
                expect_f64(detour, "max", cdf.max())
            }
        }
    }
}

/// The daemon prints six decimals; anything closer than that is equal.
fn expect_f64(obj: &Json, key: &str, want: f64) -> Result<(), String> {
    let got = obj
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("no numeric {key:?}"))?;
    if (got - want).abs() <= 1e-6 {
        Ok(())
    } else {
        Err(format!("{key}: got {got}, reference computes {want}"))
    }
}

/// One reachability summary (a single's `data` or a batch entry)
/// against the reach count `want` the reference computed.
fn check_reach_entry(
    reference: &Reference,
    entry: &Json,
    origin: u32,
    want: u64,
) -> Result<(), String> {
    if entry.get("origin").and_then(Json::as_u64) != Some(origin as u64) {
        return Err(format!("entry is not for AS{origin}"));
    }
    let got = entry.get("reachable").and_then(Json::as_u64);
    if got != Some(want) {
        return Err(format!(
            "AS{origin}: reachable {got:?}, reference computes {want}"
        ));
    }
    let max_possible = reference.graph().len() as u64 - 1;
    if entry.get("max_possible").and_then(Json::as_u64) != Some(max_possible) {
        return Err(format!("AS{origin}: max_possible is not {max_possible}"));
    }
    expect_f64(
        entry,
        "pct",
        ((100.0 * want as f64 / max_possible as f64) * 1e4).round() / 1e4,
    )
}

/// One row of a plan's request table.
pub struct Prepared {
    pub request: Request,
    pub kind: Kind,
    pub bytes: Vec<u8>,
}

impl Prepared {
    fn new(request: Request) -> Prepared {
        Prepared {
            kind: request.kind(),
            bytes: request.render(),
            request,
        }
    }
}

/// A workload's seeded input: the distinct requests and, per client
/// thread, the order in which it sends them (indices into the table; a
/// client that exhausts its schedule starts over).
pub struct Plan {
    pub table: Vec<Prepared>,
    pub schedules: Vec<Vec<u32>>,
    /// Whether every table row is answered from cache once it has been
    /// fetched once, i.e. whether its body length is fixed.
    pub fixed_lengths: bool,
}

/// Client threads (and keep-alive connections) of every serving workload.
pub const CLIENTS: usize = 2;
/// Schedule length of the workloads that sample a fixed key set.
const SAMPLED_SCHEDULE: usize = 1 << 16;
/// Schedule length of `cold`, whose every op is a fresh request; a
/// 60-second window at today's ~300 ops/s uses about two thirds of it.
const COLD_OPS_PER_CLIENT: usize = 15_000;
/// Eyeballs the `hot` reliance requests are drawn from.
const RELIANCE_EYEBALLS: usize = 128;
/// The two policies of the hot working set.
const HOT_POLICIES: [u8; 2] = [0, HIERARCHY_FREE];

/// The reachability singles of the hot working set: policy-major, so
/// row `p * eyeballs + e` is eyeball `e` under `HOT_POLICIES[p]`.
fn hot_singles(world: &World) -> Vec<Prepared> {
    HOT_POLICIES
        .iter()
        .flat_map(|&bits| {
            world.eyeballs.iter().map(move |&(origin, _)| {
                Prepared::new(Request::Reach {
                    origin,
                    bits,
                    full: false,
                })
            })
        })
        .collect()
}

fn eyeball_sampler(world: &World, top: usize) -> Weighted {
    let weights: Vec<f64> = world
        .eyeballs
        .iter()
        .take(top)
        .map(|&(_, users)| users)
        .collect();
    Weighted::new(&weights)
}

impl Plan {
    /// `hot`: 80 % reachability singles over the 1 024 largest eyeballs
    /// × 2 policies, 20 % reliance over the top 128, origins drawn
    /// population-weighted.
    pub fn hot(world: &World, seed: u64) -> Plan {
        let n = world.eyeballs.len();
        let mut table = hot_singles(world);
        let reliance_base = table.len();
        let reliance_n = RELIANCE_EYEBALLS.min(n);
        for &(origin, _) in world.eyeballs.iter().take(reliance_n) {
            table.push(Prepared::new(Request::Reliance { origin }));
        }
        let (all, top) = (
            eyeball_sampler(world, n),
            eyeball_sampler(world, reliance_n),
        );
        let mix = cyclic_mix(&[(Kind::Single, 4), (Kind::Reliance, 1)]);
        let schedules = (0..CLIENTS)
            .map(|c| {
                let mut rng = Rng::new(seed, 0x407 + c as u64);
                (0..SAMPLED_SCHEDULE)
                    .map(|i| match mix[i % mix.len()] {
                        Kind::Reliance => (reliance_base + top.sample(&mut rng)) as u32,
                        _ => (rng.below(HOT_POLICIES.len()) * n + all.sample(&mut rng)) as u32,
                    })
                    .collect()
            })
            .collect();
        Plan {
            table,
            schedules,
            fixed_lengths: true,
        }
    }

    /// `cold`: origins uniform over all ASes in a fixed cyclic mix of
    /// 66 % singles (4 policies), 10 % 256-origin batches, 10 % reliance,
    /// 10 % `detail=full`, 4 % leaks (4 leakers, lock cycling).
    pub fn cold(world: &World, seed: u64) -> Plan {
        // Every other single runs with no exclusion (2.3 ms of scalar
        // engine at paper scale); the others bypass Tier-1 (1.9 ms),
        // Tier-1 + Tier-2 (0.2 ms) and the whole hierarchy (0.03 ms).
        // That puts the median op in the middle of the full-propagation
        // singles; with the four policies in equal parts it sat on the
        // edge between the cheap and the full ones and jumped between
        // 0.7 and 1.8 ms from run to run.
        const POLICIES: [u8; 6] = [0, 2, 0, 6, 0, HIERARCHY_FREE];
        let mix = cyclic_mix(&[
            (Kind::Single, 33),
            (Kind::Batch, 5),
            (Kind::Reliance, 5),
            (Kind::Full, 5),
            (Kind::Leak, 2),
        ]);
        let asns = &world.asns;
        let mut table = Vec::with_capacity(CLIENTS * COLD_OPS_PER_CLIENT);
        let mut schedules = Vec::new();
        for c in 0..CLIENTS {
            let mut rng = Rng::new(seed, 0xC01D + c as u64);
            let (mut singles, mut leaks) = (0usize, 0usize);
            let base = table.len() as u32;
            for i in 0..COLD_OPS_PER_CLIENT {
                // The second client starts half a cycle in, so the two do
                // not send their leaks together.
                let origin = asns[rng.below(asns.len())];
                let request = match mix[(i + c * mix.len() / 2) % mix.len()] {
                    Kind::Single => {
                        singles += 1;
                        Request::Reach {
                            origin,
                            bits: POLICIES[singles % POLICIES.len()],
                            full: false,
                        }
                    }
                    Kind::Batch => Request::ReachBatch {
                        origins: (0..256).map(|_| asns[rng.below(asns.len())]).collect(),
                        bits: 0,
                    },
                    Kind::Reliance => Request::Reliance { origin },
                    Kind::Full => Request::Reach {
                        origin,
                        bits: 0,
                        full: true,
                    },
                    _ => {
                        leaks += 1;
                        Request::Leak {
                            victim: origin,
                            leakers: 4,
                            lock: leaks % 4,
                            seed: rng.next_u64() % 1000,
                        }
                    }
                };
                table.push(Prepared::new(request));
            }
            schedules.push((base..base + COLD_OPS_PER_CLIENT as u32).collect());
        }
        Plan {
            table,
            schedules,
            fixed_lengths: false,
        }
    }

    /// `fleet`: the hot working set through the router — 55 % singles
    /// (forwarded), 40 % 64-origin batches (scattered over both shards),
    /// 5 % `detail=full` singles (relayed).
    pub fn fleet(world: &World, seed: u64) -> Plan {
        const BATCH_POOL: usize = 256;
        const FULL_POOL: usize = 64;
        let n = world.eyeballs.len();
        let all = eyeball_sampler(world, n);
        let mut rng = Rng::new(seed, 0xF1EE7);
        let mut table = hot_singles(world);
        let batch_base = table.len();
        for i in 0..BATCH_POOL {
            let origins = (0..64)
                .map(|_| world.eyeballs[all.sample(&mut rng)].0)
                .collect();
            table.push(Prepared::new(Request::ReachBatch {
                origins,
                bits: HOT_POLICIES[i % 2],
            }));
        }
        let full_base = table.len();
        for _ in 0..FULL_POOL.min(n) {
            let origin = world.eyeballs[all.sample(&mut rng)].0;
            table.push(Prepared::new(Request::Reach {
                origin,
                bits: 0,
                full: true,
            }));
        }
        let full_n = table.len() - full_base;
        let mix = cyclic_mix(&[(Kind::Single, 11), (Kind::Batch, 8), (Kind::Full, 1)]);
        let schedules = (0..CLIENTS)
            .map(|c| {
                let mut rng = Rng::new(seed, 0xF1EE8 + c as u64);
                (0..SAMPLED_SCHEDULE)
                    .map(|i| match mix[(i + c * mix.len() / 2) % mix.len()] {
                        Kind::Batch => (batch_base + rng.below(BATCH_POOL)) as u32,
                        Kind::Full => (full_base + rng.below(full_n)) as u32,
                        _ => (rng.below(HOT_POLICIES.len()) * n + all.sample(&mut rng)) as u32,
                    })
                    .collect()
            })
            .collect();
        Plan {
            table,
            schedules,
            fixed_lengths: true,
        }
    }

    /// The requests that fill the cache with the hot working set in a few
    /// kernel sweeps: reachability in 256-origin batches per policy, and
    /// (for `hot`) reliance in 32-origin lists.
    pub fn prewarm_requests(world: &World, with_reliance: bool) -> Vec<Vec<u8>> {
        let origins: Vec<u32> = world.eyeballs.iter().map(|&(a, _)| a).collect();
        let mut out = Vec::new();
        for &bits in &HOT_POLICIES {
            for block in origins.chunks(256) {
                out.push(
                    Request::ReachBatch {
                        origins: block.to_vec(),
                        bits,
                    }
                    .render(),
                );
            }
        }
        if with_reliance {
            for block in origins[..RELIANCE_EYEBALLS.min(origins.len())].chunks(32) {
                let list: Vec<String> = block.iter().map(u32::to_string).collect();
                out.push(get_request(&format!(
                    "/v1/reliance?origins={}",
                    list.join(",")
                )));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn toy_world() -> World {
        World {
            as_rel_path: PathBuf::new(),
            as_rel_bytes: 0,
            asns: (1..=5000).collect(),
            eyeballs: (1..=1024).map(|i| (i, 1e6 / i as f64)).collect(),
            clouds: vec![1],
            generate_ms: 0.0,
        }
    }

    fn shares(plan: &Plan, client: usize, ops: usize) -> Vec<(Kind, usize)> {
        Kind::ALL
            .iter()
            .map(|&k| {
                let n = plan.schedules[client][..ops]
                    .iter()
                    .filter(|&&i| plan.table[i as usize].kind == k)
                    .count();
                (k, n)
            })
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    #[test]
    fn plans_carry_exactly_the_stated_mix() {
        let w = toy_world();
        assert_eq!(
            shares(&Plan::hot(&w, 1), 0, 1000),
            [(Kind::Single, 800), (Kind::Reliance, 200)]
        );
        assert_eq!(
            shares(&Plan::cold(&w, 1), 1, 5000),
            [
                (Kind::Single, 3300),
                (Kind::Batch, 500),
                (Kind::Reliance, 500),
                (Kind::Full, 500),
                (Kind::Leak, 200)
            ]
        );
        assert_eq!(
            shares(&Plan::fleet(&w, 1), 0, 2000),
            [(Kind::Single, 1100), (Kind::Batch, 800), (Kind::Full, 100)]
        );
    }

    #[test]
    fn plans_are_seed_deterministic_and_heavy_tailed() {
        let w = toy_world();
        let (a, b, c) = (Plan::hot(&w, 5), Plan::hot(&w, 5), Plan::hot(&w, 6));
        assert_eq!(a.schedules, b.schedules);
        assert_ne!(a.schedules, c.schedules);
        // Population weighting: the ten largest eyeballs (of 1 024) draw
        // far more than their 1 % head-count share of the singles.
        let singles: Vec<u32> = a.schedules[0]
            .iter()
            .copied()
            .filter(|&i| (i as usize) < 2048)
            .collect();
        let top10 =
            singles.iter().filter(|&&i| i % 1024 < 10).count() as f64 / singles.len() as f64;
        assert!(top10 > 0.25, "{top10}");
        let cold = Plan::cold(&w, 5);
        assert_eq!(
            cold.table[7].bytes,
            Plan::cold(&w, 5).table[7].bytes,
            "cold requests repeat for one seed"
        );
    }

    #[test]
    fn requests_render_as_the_daemon_expects() {
        let r = Request::Reach {
            origin: 15169,
            bits: HIERARCHY_FREE,
            full: true,
        };
        assert_eq!(
            r.target(),
            "/v1/reachability?origin=15169&exclude=providers,tier1,tier2&detail=full"
        );
        let l = Request::Leak {
            victim: 7,
            leakers: 4,
            lock: 2,
            seed: 9,
        };
        let text = String::from_utf8(l.render()).unwrap();
        assert!(
            text.starts_with("POST /v1/whatif/leak HTTP/1.1\r\n"),
            "{text}"
        );
        assert!(
            text.ends_with("{\"victim\":7,\"leakers\":4,\"lock\":\"t12\",\"seed\":9}"),
            "{text}"
        );
    }
}
