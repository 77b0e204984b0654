//! The traceroute campaign simulator.
//!
//! Paths follow the valley-free tied-best routes of the generator's
//! *ground-truth* topology (what real packets would do), while everything
//! the measurement pipeline gets to see — hop addresses, losses, IXP LANs,
//! third-party addresses — flows through the synthetic address plan, so the
//! inference pipeline faces the same failure modes §5 documents:
//!
//! * per-VM egress choice: among tied-best first hops, VMs prefer nearby
//!   interconnects and direct (PNI/bilateral) peers over route servers,
//!   and Amazon-style early-exit clouds can only use peer links near the
//!   VM's metro — so a campaign with few VPs misses many peers (FNR);
//! * unresponsive hops, extra border losses, and occasional third-party
//!   addresses (FDR).

use crate::model::{Hop, Traceroute, VantagePoint};
use flatnet_asgraph::{AsId, NodeId};
use flatnet_bgpsim::{PropagationConfig, RoutingOutcome, Simulation};
use flatnet_geo::cities::CITIES;
use flatnet_geo::haversine_km;
use flatnet_geo::GeoPoint;
use flatnet_netgen::{CloudInfo, PeerKind, SyntheticInternet};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Campaign knobs.
#[derive(Debug, Clone, Copy)]
pub struct CampaignOptions {
    /// Seed mixed into every per-trace decision.
    pub seed: u64,
    /// Max vantage points per cloud (VP cities are used in order);
    /// `usize::MAX` = all datacenters. §5: more VPs ⇒ fewer false
    /// negatives, slightly more false positives.
    pub max_vps: usize,
    /// Fraction of ASes probed (one representative prefix each, like the
    /// paper's supplemental per-AS campaign).
    pub dest_sample: f64,
    /// Per-hop no-response probability.
    pub loss_prob: f64,
    /// Additional no-response probability at AS borders.
    pub border_loss_prob: f64,
    /// Probability the cloud border hop responds with a third-party
    /// address from an unrelated AS.
    pub third_party_prob: f64,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            seed: 0,
            max_vps: usize::MAX,
            dest_sample: 1.0,
            loss_prob: 0.03,
            border_loss_prob: 0.05,
            third_party_prob: 0.01,
        }
    }
}

/// The result of a campaign: all traces, plus per-cloud indexing.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Every collected traceroute.
    pub traces: Vec<Traceroute>,
}

impl Campaign {
    /// Traces launched from one cloud.
    pub fn for_cloud(&self, cloud: AsId) -> impl Iterator<Item = &Traceroute> {
        self.traces.iter().filter(move |t| t.vp.cloud == cloud)
    }

    /// Number of traces.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether no traces were collected.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }
}

/// FNV-1a based deterministic hash → uniform u64.
fn mix(parts: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &p in parts {
        for b in p.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Uniform f64 in [0, 1) from a hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Per-cloud lookup tables built once per campaign.
struct CloudCtx<'a> {
    info: &'a CloudInfo,
    node: NodeId,
    /// peer ASN -> (kind, interconnect city index).
    links: BTreeMap<u32, (PeerKind, usize)>,
    providers: Vec<NodeId>,
    vps: Vec<usize>,
}

/// Runs a full campaign over every cloud in the synthetic Internet.
pub fn run_campaign(net: &SyntheticInternet, opts: &CampaignOptions) -> Campaign {
    // Map IXP id -> city for link geolocation.
    let ixp_city: BTreeMap<u32, usize> =
        net.addressing().ixps.iter().map(|ix| (ix.id.0, ix.city)).collect();

    let clouds: Vec<CloudCtx> = net
        .clouds
        .iter()
        .map(|info| {
            let links = info
                .peer_links
                .iter()
                .map(|l| {
                    let city = net
                        .addressing()
                        .links
                        .get(&(info.asn.0, l.peer.0))
                        .and_then(|la| la.ixp)
                        .and_then(|ix| ixp_city.get(&ix.0).copied())
                        .unwrap_or_else(|| {
                            net.meta[net.node(l.peer).idx()].home_city
                        });
                    (l.peer.0, (l.kind, city))
                })
                .collect();
            CloudCtx {
                info,
                node: net.node(info.asn),
                links,
                providers: info.providers.iter().map(|&p| net.node(p)).collect(),
                vps: info.vp_cities.iter().copied().take(opts.max_vps).collect(),
            }
        })
        .collect();

    let popts = PropagationConfig::default();
    let mut runs = Simulation::over(&net.truth).ctx();
    let mut traces = Vec::new();
    for d in net.truth.nodes() {
        let dst_asn = net.truth.asn(d);
        // Destination sampling (deterministic).
        if unit(mix(&[opts.seed, 0xD0, dst_asn.0 as u64])) >= opts.dest_sample {
            continue;
        }
        let Some(dst_prefix) = net.addressing().origin_prefix(dst_asn) else {
            continue;
        };
        let dst_ip = dst_prefix.addr(80);
        let ws = runs.run(d);
        for ctx in &clouds {
            if ctx.node == d || !ws.reachable(ctx.node) {
                continue;
            }
            for &vp_city in &ctx.vps {
                let vp = VantagePoint { cloud: ctx.info.asn, city: vp_city };
                let path = select_path(net, ctx, &popts, ws, vp_city, dst_asn, opts.seed);
                traces.push(synthesize(net, ctx, vp, dst_ip, dst_asn, &path, opts));
            }
        }
    }
    Campaign { traces }
}

/// Picks one concrete AS path among the tied-best routes `routes` (the
/// destination's run over `net.truth` under `cfg`) for a given VM.
fn select_path(
    net: &SyntheticInternet,
    ctx: &CloudCtx<'_>,
    cfg: &PropagationConfig,
    routes: &RoutingOutcome,
    vp_city: usize,
    dst: AsId,
    seed: u64,
) -> Vec<NodeId> {
    let vp_point = CITIES[vp_city].point();
    let mut path = vec![ctx.node];
    let mut cur = ctx.node;
    let mut first = true;
    while cur != routes.origin() {
        let hops = routes.next_hops(&net.truth, cfg, cur);
        debug_assert!(!hops.is_empty());
        let next = if first {
            // Egress selection: score every tied-best first hop.
            let mut best: Option<(f64, u64, NodeId)> = None;
            for &h in &hops {
                let asn = net.truth.asn(h);
                let mut w;
                if let Some(&(kind, city)) = ctx.links.get(&asn.0) {
                    w = match kind {
                        PeerKind::RouteServer => 0.15,
                        PeerKind::Pni | PeerKind::BilateralIxp => 1.0,
                    };
                    let dist = haversine_km(vp_point, CITIES[city].point());
                    w *= 1.0 / (1.0 + dist / 2000.0);
                    if ctx.info.spec.early_exit && dist > 3500.0 {
                        // Early-exit clouds cannot reach remote peering
                        // sites from this VM.
                        w = 0.0;
                    }
                } else if ctx.providers.contains(&h) {
                    w = 0.3; // transit always works, but peers are preferred
                } else {
                    w = 0.2; // e.g. another cloud
                }
                let tie = mix(&[seed, 1, vp_city as u64, dst.0 as u64, asn.0 as u64]);
                let cand = (w, tie, h);
                best = Some(match best {
                    None => cand,
                    Some(b) => {
                        if (cand.0, cand.1) > (b.0, b.1) {
                            cand
                        } else {
                            b
                        }
                    }
                });
            }
            let (w, _, h) = best.expect("non-empty next hops");
            if w == 0.0 {
                // All usable links scored zero (early exit, all far): fall
                // back to a provider if one is among the tied hops.
                *hops
                    .iter()
                    .find(|h| ctx.providers.contains(h))
                    .unwrap_or(&h)
            } else {
                h
            }
        } else {
            // Interior choice: deterministic per (vp, dst, node).
            let i = mix(&[seed, 2, vp_city as u64, dst.0 as u64, cur.0 as u64]) as usize % hops.len();
            hops[i]
        };
        path.push(next);
        cur = next;
        first = false;
    }
    path
}

/// Renders an AS path into hop-level traceroute output.
fn synthesize(
    net: &SyntheticInternet,
    ctx: &CloudCtx<'_>,
    vp: VantagePoint,
    dst_ip: Ipv4Addr,
    dst_asn: AsId,
    path: &[NodeId],
    opts: &CampaignOptions,
) -> Traceroute {
    let seed = opts.seed;
    let mut hops: Vec<Hop> = Vec::new();
    let mut ttl = 0u8;
    // RTT model: cumulative great-circle distance over the metros the path
    // visits at ~100 km per RTT-millisecond (speed of light in fibre, both
    // directions), plus a small per-hop forwarding cost and deterministic
    // jitter.
    let mut cum_km = 0.0f64;
    let mut prev_point: GeoPoint = CITIES[vp.city].point();
    let rtt_of = |cum_km: f64, ttl: u8, tag: u64| -> f64 {
        let base = cum_km / 100.0 + 0.08 * ttl as f64 + 0.05;
        let jitter = unit(mix(&[seed, 12, tag, vp.city as u64, dst_asn.0 as u64, ttl as u64]));
        // Quantize to microseconds so text (3 decimals) and warts (µs)
        // serializations round-trip exactly.
        ((base * (0.95 + 0.1 * jitter)) * 1000.0).round() / 1000.0
    };
    let push = |addr: Option<Ipv4Addr>, rtt_ms: Option<f64>, hops: &mut Vec<Hop>, ttl: &mut u8| {
        *ttl += 1;
        hops.push(Hop { ttl: *ttl, addr, rtt_ms: if addr.is_some() { rtt_ms } else { None } });
    };
    let lossy = |tag: u64, extra: f64| {
        unit(mix(&[seed, 3, tag, vp.city as u64, dst_asn.0 as u64])) < opts.loss_prob + extra
    };

    // Cloud-internal hops (1-2, tunnel-dependent).
    let n_internal = 1 + (mix(&[seed, 4, vp.city as u64, dst_asn.0 as u64]) % 2) as usize;
    for k in 0..n_internal {
        let salt = mix(&[seed, 5, vp.city as u64, dst_asn.0 as u64, k as u64]);
        let addr = net.addressing().host_of(ctx.info.asn, salt);
        let lost = lossy(10 + k as u64, 0.0);
        let rtt = rtt_of(cum_km, ttl + 1, 50 + k as u64);
        push(if lost { None } else { addr }, Some(rtt), &mut hops, &mut ttl);
    }

    // Remaining ASes on the path.
    for (i, &n) in path.iter().enumerate().skip(1) {
        let asn = net.truth.asn(n);
        let is_border_from_cloud = i == 1;
        // Advance the geographic position: border hops sit at the
        // interconnect metro when known, others at the AS's home metro.
        let hop_city = if is_border_from_cloud {
            ctx.links.get(&asn.0).map(|&(_, c)| c).unwrap_or(net.meta[n.idx()].home_city)
        } else {
            net.meta[n.idx()].home_city
        };
        let hop_point = CITIES[hop_city].point();
        cum_km += haversine_km(prev_point, hop_point);
        prev_point = hop_point;
        let mut addr: Option<Ipv4Addr> = if is_border_from_cloud {
            // Border into the first non-cloud AS: the link's interconnect
            // address when this is a peer link, else the neighbor's space.
            net.addressing()
                .links
                .get(&(ctx.info.asn.0, asn.0))
                .map(|la| la.peer_ip)
                .or_else(|| net.addressing().host_of(asn, mix(&[seed, 6, asn.0 as u64])))
        } else {
            net.addressing().host_of(asn, mix(&[seed, 7, vp.city as u64, dst_asn.0 as u64, asn.0 as u64]))
        };
        // Third-party address injection at the cloud border. Real
        // third-party responses come from a handful of multi-homed routers
        // near the cloud's edge, so the off-path AS is drawn from a small
        // per-cloud pool rather than the whole Internet — otherwise a long
        // campaign would accumulate an unrealistic zoo of distinct false
        // positives.
        if is_border_from_cloud
            && unit(mix(&[seed, 8, vp.city as u64, dst_asn.0 as u64])) < opts.third_party_prob
        {
            let pool_slot = mix(&[seed, 9, ctx.info.asn.0 as u64, dst_asn.0 as u64]) % 4;
            let victim = net.truth.asn(NodeId(
                (mix(&[seed, 9, ctx.info.asn.0 as u64, pool_slot]) % net.truth.len() as u64) as u32,
            ));
            addr = net.addressing().host_of(victim, mix(&[seed, 10, victim.0 as u64])).or(addr);
        }
        let extra = if is_border_from_cloud { opts.border_loss_prob } else { 0.0 };
        let lost = lossy(20 + i as u64, extra);
        if n == *path.last().unwrap() {
            // Destination AS: final hop responds with the probed address.
            if i > 1 || path.len() > 2 {
                // Possibly an ingress hop inside the destination AS first.
                if unit(mix(&[seed, 11, dst_asn.0 as u64, vp.city as u64])) < 0.5 {
                    let rtt = rtt_of(cum_km, ttl + 1, 60);
                    push(if lost { None } else { addr }, Some(rtt), &mut hops, &mut ttl);
                }
            } else if lost {
                // Border loss on a direct cloud->destination trace hides
                // the only border hop.
                push(None, None, &mut hops, &mut ttl);
            } else {
                let rtt = rtt_of(cum_km, ttl + 1, 61);
                push(addr, Some(rtt), &mut hops, &mut ttl);
            }
            let dst_lost = lossy(30, 0.0);
            let rtt = rtt_of(cum_km, ttl + 1, 62);
            push(if dst_lost { None } else { Some(dst_ip) }, Some(rtt), &mut hops, &mut ttl);
        } else {
            let rtt = rtt_of(cum_km, ttl + 1, 63 + i as u64);
            push(if lost { None } else { addr }, Some(rtt), &mut hops, &mut ttl);
        }
    }

    let completed = hops.last().map(|h| h.addr == Some(dst_ip)).unwrap_or(false);
    Traceroute { vp, dst: dst_ip, dst_asn, hops, completed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flatnet_netgen::{generate, NetGenConfig};

    fn small_net() -> SyntheticInternet {
        let mut cfg = NetGenConfig::tiny(42);
        cfg.n_ases = 200;
        generate(&cfg)
    }

    #[test]
    fn campaign_produces_traces_for_every_cloud() {
        let net = small_net();
        let opts = CampaignOptions { dest_sample: 0.3, max_vps: 3, ..Default::default() };
        let campaign = run_campaign(&net, &opts);
        assert!(!campaign.is_empty());
        for c in &net.clouds {
            let n = campaign.for_cloud(c.asn).count();
            assert!(n > 10, "{} has only {n} traces", c.spec.name);
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let net = small_net();
        let opts = CampaignOptions { dest_sample: 0.2, max_vps: 2, ..Default::default() };
        let a = run_campaign(&net, &opts);
        let b = run_campaign(&net, &opts);
        assert_eq!(a.traces, b.traces);
    }

    #[test]
    fn most_traces_complete_and_carry_addresses() {
        let net = small_net();
        let opts = CampaignOptions { dest_sample: 0.3, max_vps: 2, ..Default::default() };
        let campaign = run_campaign(&net, &opts);
        let complete = campaign.traces.iter().filter(|t| t.completed).count();
        assert!(
            complete as f64 > 0.7 * campaign.len() as f64,
            "{complete}/{} complete",
            campaign.len()
        );
        // Losses exist but are not rampant.
        let total_hops: usize = campaign.traces.iter().map(|t| t.hops.len()).sum();
        let losses: usize = campaign.traces.iter().map(|t| t.losses()).sum();
        assert!(losses > 0);
        assert!((losses as f64) < 0.15 * total_hops as f64);
    }

    #[test]
    fn more_vps_reach_more_first_hop_diversity() {
        let net = small_net();
        let few = run_campaign(&net, &CampaignOptions { dest_sample: 0.5, max_vps: 1, ..Default::default() });
        let many = run_campaign(&net, &CampaignOptions { dest_sample: 0.5, max_vps: 20, ..Default::default() });
        // Count distinct first-border addresses seen from Google.
        let google = net.clouds[0].asn;
        let borders = |c: &Campaign| {
            let mut set = std::collections::BTreeSet::new();
            for t in c.for_cloud(google) {
                for h in &t.hops {
                    if let Some(a) = h.addr {
                        set.insert(a);
                    }
                }
            }
            set.len()
        };
        assert!(borders(&many) >= borders(&few));
    }

    #[test]
    fn dest_sampling_scales_trace_count() {
        let net = small_net();
        let full = run_campaign(&net, &CampaignOptions { dest_sample: 1.0, max_vps: 1, ..Default::default() });
        let half = run_campaign(&net, &CampaignOptions { dest_sample: 0.5, max_vps: 1, ..Default::default() });
        assert!(half.len() < full.len());
        assert!(half.len() > full.len() / 4);
    }
}

#[cfg(test)]
mod rtt_and_failure_tests {
    use super::*;
    use flatnet_netgen::{generate, NetGenConfig};

    fn small_net2() -> SyntheticInternet {
        let mut cfg = NetGenConfig::tiny(42);
        cfg.n_ases = 200;
        generate(&cfg)
    }

    #[test]
    fn rtts_are_physical_and_nondecreasing_ish() {
        let net = small_net2();
        let c = run_campaign(&net, &CampaignOptions { dest_sample: 0.3, max_vps: 2, ..Default::default() });
        let mut with_rtt = 0usize;
        for t in &c.traces {
            let rtts: Vec<f64> = t.hops.iter().filter_map(|h| h.rtt_ms).collect();
            with_rtt += rtts.len();
            for &r in &rtts {
                // Positive and under one round-the-world trip.
                assert!(r > 0.0 && r < 450.0, "rtt {r}");
            }
            // The last hop's RTT dominates the first (within jitter).
            if rtts.len() >= 2 {
                assert!(
                    rtts[rtts.len() - 1] >= rtts[0] * 0.8,
                    "final rtt {} vs first {}",
                    rtts[rtts.len() - 1],
                    rtts[0]
                );
            }
            // Unresponsive hops carry no RTT.
            for h in &t.hops {
                if h.addr.is_none() {
                    assert!(h.rtt_ms.is_none());
                }
            }
        }
        assert!(with_rtt > 1000, "RTTs present ({with_rtt})");
    }

    #[test]
    fn total_loss_produces_no_usable_traces() {
        // Failure injection: every hop unresponsive.
        let net = small_net2();
        let opts = CampaignOptions {
            dest_sample: 0.2,
            max_vps: 1,
            loss_prob: 1.0,
            border_loss_prob: 0.0,
            ..Default::default()
        };
        let c = run_campaign(&net, &opts);
        assert!(!c.is_empty());
        for t in &c.traces {
            assert!(!t.completed);
            assert_eq!(t.addresses().count(), 0);
        }
        // And inference finds nothing.
        let google = net.clouds[0].asn;
        let inferred = crate::inference::infer_neighbors(
            c.for_cloud(google),
            &net.addressing().resolver,
            &crate::inference::Methodology::final_methodology(),
            google,
        );
        assert!(inferred.is_empty());
    }

    #[test]
    fn heavy_third_party_injection_inflates_fdr() {
        let net = small_net2();
        let clean = run_campaign(
            &net,
            &CampaignOptions { dest_sample: 0.4, max_vps: 2, third_party_prob: 0.0, ..Default::default() },
        );
        let dirty = run_campaign(
            &net,
            &CampaignOptions { dest_sample: 0.4, max_vps: 2, third_party_prob: 0.9, ..Default::default() },
        );
        let google = net.clouds[0].asn;
        let m = crate::inference::Methodology::final_methodology();
        let truth: std::collections::BTreeSet<_> = net.clouds[0]
            .true_peers()
            .into_iter()
            .chain(net.clouds[0].providers.iter().copied())
            .collect();
        let score = |c: &Campaign| {
            let inferred =
                crate::inference::infer_neighbors(c.for_cloud(google), &net.addressing().resolver, &m, google);
            crate::validate::validate_neighbors(&inferred, &truth).fdr()
        };
        let fdr_clean = score(&clean);
        let fdr_dirty = score(&dirty);
        assert!(
            fdr_dirty > fdr_clean,
            "massive third-party injection must hurt FDR: clean {fdr_clean:.3} dirty {fdr_dirty:.3}"
        );
    }
}
