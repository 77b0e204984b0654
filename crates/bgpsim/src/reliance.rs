//! Reachability reliance, `rely(o, a)` (§7.1).
//!
//! The paper defines the reliance of an origin `o` on an AS `a` as the sum,
//! over every AS `t` that receives routes to `o`, of the fraction of `t`'s
//! tied-best paths in which `a` appears. We adopt the convention that a
//! path "received by `t`" includes `t` itself, which reproduces both
//! extremes the paper calibrates against:
//!
//! * a **full mesh** (everyone peers with everyone) gives `rely(o, a) = 1`
//!   for every `a`: the only path containing `a` is `a`'s own direct path;
//! * a **pure hierarchy** with a single provider `P` above `o` gives
//!   `rely(o, P) =` (number of ASes receiving routes): every path crosses
//!   `P`.
//!
//! Computed exactly in one O(E) sweep over the next-hop DAG: a uniformly
//! random tied-best path from `t` moves from `v` to next hop `h` with
//! probability `N(h)/N(v)` (`N` = tied-best path counts), making it uniform
//! over `t`'s paths. The visit mass `W(u) = Σ_t P[path from t visits u]`
//! then satisfies `W(u) = 1 + Σ_{v: u ∈ NH(v)} W(v) · N(u)/N(v)`, evaluated
//! in reverse topological order. `rely(o, u) = W(u)` for every reachable
//! `u ≠ o` (and `W(o)` is the total number of ASes with routes, a useful
//! cross-check).
//!
//! Two implementations share that recurrence. [`reliance`] scores a
//! materialized [`NextHopDag`] and is the oracle; [`RelianceWorkspace`]
//! is the production kernel: it derives the same DAG straight from a
//! finished [`Workspace`] and its graph into reused
//! buffers, visiting nodes and hops in the oracle's order and summing in
//! the oracle's order, so every score is bit-identical
//! (`tests/engine_equiv.rs`). Nothing shipped builds a [`NextHopDag`]:
//! callers that walk tied next hops (collectors, traceroute simulation,
//! Appendix A's path check) read [`RoutingOutcome::next_hops`] off the
//! run in place.
//!
//! [`RoutingOutcome::next_hops`]: crate::RoutingOutcome::next_hops

use crate::dag::NextHopDag;
use crate::engine::Workspace;
use crate::propagate::{pack, sel_len, PropagationConfig, RouteClass, UNREACHED};
use crate::scratch::cap_bytes;
use flatnet_asgraph::{AsGraph, NodeId};
use flatnet_obs::{Counter, Histogram};
use std::sync::{Arc, OnceLock};

/// Computes `rely(origin, a)` for **every** AS `a` from a next-hop DAG.
///
/// Returns a vector indexed by node: `0.0` for unreachable nodes, `W(a)`
/// (in units of "ASes", the paper's unit) otherwise. The entry for the
/// origin equals the total number of ASes holding routes (including the
/// origin itself).
pub fn reliance(dag: &NextHopDag) -> Vec<f64> {
    let mut w = vec![0.0f64; dag.len()];
    // Every reachable node starts a unit of visit mass at itself.
    for &u in dag.topo_order() {
        w[u.idx()] += 1.0;
    }
    // Reverse topological order: farthest nodes first, so each W(v) is
    // final before its mass is pushed to its next hops.
    for &v in dag.topo_order().iter().rev() {
        let wv = w[v.idx()];
        let nv = dag.path_count(v);
        if nv == 0.0 {
            continue;
        }
        for &h in dag.next_hops(v) {
            w[h.idx()] += wv * dag.path_count(h) / nv;
        }
    }
    w
}

/// Reusable reliance kernel: scores `rely(origin, ·)` for the run a
/// [`Workspace`] holds, without building a [`RoutingOutcome`] or a
/// [`NextHopDag`]. The topology pools them for
/// [`SweepCtx::run_reliance`](crate::SweepCtx::run_reliance); buffers
/// are sized on the first [`score`](Self::score) call, resize when the
/// graph's node count changes, and are reused afterwards — a run on a
/// warm workspace does not allocate.
///
/// Scores are bit-identical to `reliance(&NextHopDag::build(..))` over
/// the same run:
///
/// * nodes are visited in `NextHopDag`'s topological order — reachable
///   nodes by `(selected distance, node index)` — produced here by a
///   counting sort over the reach bitset walked in node order;
/// * each node's tied-best hops are listed in the order
///   [`RoutingOutcome::next_hops`] walks them, under the same import
///   rules. A provider-routed node pulls them from its own provider
///   slice. Customer- and peer-routed nodes never scan theirs (a hub's
///   thousands of customers, every peer of every peer-routed AS):
///   their hops are all customer-routed *senders*, so
///   each sender offers itself to its providers and peers — the entries
///   phases 1–2 of the run examined. A receiver's hops all sit exactly
///   one level below it and senders are visited by `(distance, node)`,
///   so each receiver's hops arrive in ascending node order, which is
///   the order of its CSR slice;
/// * path counts and visit mass are accumulated hop by hop in that order
///   with the oracle's expressions, so no floating-point sum is
///   reassociated.
///
/// `reliance.runs`, `reliance.hop_checks` (adjacency entries examined
/// while deriving hops) and the `reliance.score_us` histogram record the
/// kernel's own work, flushed once per call.
///
/// [`RoutingOutcome`]: crate::propagate::RoutingOutcome
/// [`RoutingOutcome::next_hops`]: crate::propagate::RoutingOutcome::next_hops
#[derive(Debug, Default)]
pub struct RelianceWorkspace {
    /// Tied-best path count per node; only entries of reached nodes are
    /// meaningful (each is written before any later node reads it).
    counts: Vec<f64>,
    /// The result: visit mass per node, `0.0` for unreached nodes.
    scores: Vec<f64>,
    /// Reached nodes by `(selected distance, node index)`. Doubles as the
    /// undo list: the next run clears exactly these per-node slots.
    topo: Vec<u32>,
    /// Counting-sort cursors, indexed by distance.
    starts: Vec<u32>,
    /// `hops[hop_off[k]..hop_off[k + 1]]` are the next hops of `topo[k]`.
    hop_off: Vec<u32>,
    hops: Vec<u32>,
    /// Customer-routed nodes by `(distance, node index)`.
    senders: Vec<u32>,
    /// `(receiver, sender)` per sender-derived hop, in sender order.
    offers: Vec<(u32, u32)>,
    /// Per customer- or peer-routed receiver: its number of offers, then
    /// (once its `hops` range is reserved) the next slot to fill. Zero
    /// for every other node.
    slot: Vec<u32>,
    /// The ranking [`Self::top`] leaves: `(node index, score)` pairs.
    ranked: Vec<(u32, f64)>,
}

impl RelianceWorkspace {
    /// An empty workspace; buffers are sized by the first run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scores the run `ws` holds — `ws` must have been run over `g`
    /// under `cfg` — and returns the per-node reliance vector, exactly
    /// as [`reliance`] would: `0.0` for unreached nodes, and at the
    /// origin the number of ASes holding routes.
    pub fn score(&mut self, g: &AsGraph, ws: &Workspace, cfg: &PropagationConfig) -> &[f64] {
        let n = g.len();
        assert_eq!(ws.len(), n, "workspace was not run over this graph");
        let obs = metrics();
        obs.runs.inc();
        let started = std::time::Instant::now();
        let mut hop_checks = 0u64;
        let sel = &ws.sel[..];
        let pol = cfg.view();
        let origin = ws.origin();

        // Same rule as `Workspace::reset`: undo a small previous run
        // write by write, fill after one that reached much of the graph.
        if self.scores.len() != n {
            self.scores.clear();
            self.scores.resize(n, 0.0);
            self.counts.clear();
            self.counts.resize(n, 0.0);
            self.slot.clear();
            self.slot.resize(n, 0);
        } else if self.topo.len() >= n / 8 {
            self.scores.fill(0.0);
            self.slot.fill(0);
        } else {
            for &u in &self.topo {
                self.scores[u as usize] = 0.0;
                self.slot[u as usize] = 0;
            }
        }

        // Counting sort by selected distance. The bitset is walked in
        // node order twice (count, then place), so nodes of one distance
        // keep ascending index: the `(dist, node)` order of `NextHopDag`.
        self.starts.clear();
        self.starts.push(0);
        self.senders.clear();
        for_each_set_bit(ws.reach_words(), |i| {
            if sel[i] < pack(RouteClass::Peer, 0) {
                self.senders.push(i as u32);
            }
            let bucket = sel_len(sel[i]) as usize + 1;
            if bucket >= self.starts.len() {
                self.starts.resize(bucket + 1, 0);
            }
            self.starts[bucket] += 1;
        });
        for b in 1..self.starts.len() {
            self.starts[b] += self.starts[b - 1];
        }
        let reached = *self.starts.last().expect("starts holds at least one cursor") as usize;
        self.topo.clear();
        self.topo.resize(reached, 0);
        for_each_set_bit(ws.reach_words(), |i| {
            let cursor = &mut self.starts[sel_len(sel[i]) as usize];
            self.topo[*cursor as usize] = i as u32;
            *cursor += 1;
        });

        // Customer and peer routes are learned from a neighbour's customer
        // route, so the senders offer themselves, origin outward: a
        // sender's own path count is final once every sender one level
        // below it has been visited, and each receiver's count is summed
        // in its hop order (the first offer assigns: `0.0 + c == c`).
        self.senders.sort_unstable_by_key(|&v| (sel[v as usize], v));
        self.offers.clear();
        if reached > 0 {
            self.counts[origin.idx()] = 1.0;
        }
        for &v in &self.senders {
            let len = sel_len(sel[v as usize]) + 1;
            let paths = self.counts[v as usize];
            let (providers, peers) = (g.providers(NodeId(v)), g.peers(NodeId(v)));
            hop_checks += (providers.len() + peers.len()) as u64;
            let (customer, peer) = (pack(RouteClass::Customer, len), pack(RouteClass::Peer, len));
            let takers = providers
                .iter()
                .filter(|u| sel[u.idx()] == customer)
                .chain(peers.iter().filter(|u| sel[u.idx()] == peer));
            for &NodeId(u) in takers {
                let offered = &mut self.slot[u as usize];
                if !pol.import_ok(origin, NodeId(u), NodeId(v)) {
                    continue;
                }
                if *offered == 0 {
                    self.counts[u as usize] = paths;
                } else {
                    self.counts[u as usize] += paths;
                }
                *offered += 1;
                self.offers.push((u, v));
            }
        }

        // Forward pass, origin outward: lay out every node's hop range. A
        // customer- or peer-routed node reserves room for its offers; a
        // provider-routed one pulls from its providers' selections, each
        // one step closer to the origin, so its count is final before it
        // is read.
        self.hops.clear();
        self.hop_off.clear();
        self.hop_off.push(0);
        for k in 0..reached {
            let u = self.topo[k];
            let ui = u as usize;
            self.scores[ui] = 1.0;
            let first = self.hops.len();
            if sel[ui] < pack(RouteClass::Provider, 0) {
                // The origin reserves nothing: it has no offers. Every
                // other such node learned its route from a sender, so it
                // has at least one and its count is set.
                self.hops.resize(first + self.slot[ui] as usize, 0);
                self.slot[ui] = first as u32;
            } else {
                let len = sel_len(sel[ui]);
                for &NodeId(v) in g.providers(NodeId(u)) {
                    hop_checks += 1;
                    let sv = sel[v as usize];
                    if sv != UNREACHED
                        && sel_len(sv) + 1 == len
                        && pol.import_ok(origin, NodeId(u), NodeId(v))
                    {
                        self.hops.push(v);
                    }
                }
                let mut total = 0.0;
                for &h in &self.hops[first..] {
                    total += self.counts[h as usize];
                }
                self.counts[ui] = total;
            }
            self.hop_off.push(self.hops.len() as u32);
        }
        for &(u, v) in &self.offers {
            let at = &mut self.slot[u as usize];
            self.hops[*at as usize] = v;
            *at += 1;
        }

        // Reverse pass, farthest first: each node's visit mass is final
        // before it is split over its hops in proportion to path counts.
        for k in (0..reached).rev() {
            let v = self.topo[k] as usize;
            let wv = self.scores[v];
            let nv = self.counts[v];
            if nv == 0.0 {
                continue;
            }
            for &h in &self.hops[self.hop_off[k] as usize..self.hop_off[k + 1] as usize] {
                self.scores[h as usize] += wv * self.counts[h as usize] / nv;
            }
        }
        obs.hop_checks.add(hop_checks);
        obs.score_us.record_us(started.elapsed().as_micros() as u64);
        &self.scores
    }

    /// The scores of the most recent [`score`](Self::score) call.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Number of ASes that held routes in the most recently scored run,
    /// origin included ([`NextHopDag::reachable_len`]).
    pub fn receivers(&self) -> usize {
        self.topo.len()
    }

    /// The `cap` (at least 1) best `(node index, score)` pairs of the most
    /// recent run — positive scores only, the origin omitted, scores
    /// descending then index ascending — ranked in a buffer this
    /// workspace keeps, so a warm ranking allocates nothing.
    pub fn top(&mut self, cap: usize) -> &[(u32, f64)] {
        // The origin is the one node at distance 0, first in `topo`; a run
        // that reached nothing has no positive score to skip.
        let origin = self.topo.first().map_or(usize::MAX, |&o| o as usize);
        select_top(&self.scores, origin, cap, &mut self.ranked);
        &self.ranked
    }

    /// Heap bytes this workspace holds, every buffer at capacity.
    pub(crate) fn heap_bytes(&self) -> usize {
        let u32s = [&self.topo, &self.starts, &self.hop_off, &self.hops, &self.senders];
        u32s.into_iter().chain([&self.slot]).map(cap_bytes).sum::<usize>()
            + cap_bytes(&self.counts)
            + cap_bytes(&self.scores)
            + cap_bytes(&self.offers)
            + cap_bytes(&self.ranked)
    }
}

/// Leaves in `ranked` the `cap` best `(index, score)` pairs of `scores`
/// — positive scores only, `skip` omitted, scores descending then index
/// ascending — without ever holding more than `2 * cap` candidates: when
/// the buffer fills, a selection keeps its better half, and from then on
/// a candidate must beat the worst survivor to enter. A tie with that
/// survivor loses, as it should: the scan ascends, so the candidate's
/// index is the higher one.
fn select_top(scores: &[f64], skip: usize, cap: usize, ranked: &mut Vec<(u32, f64)>) {
    let by_rank = |a: &(u32, f64), b: &(u32, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
    ranked.clear();
    let mut floor = 0.0;
    for (i, &s) in scores.iter().enumerate() {
        if s > floor && i != skip {
            ranked.push((i as u32, s));
            if ranked.len() == 2 * cap {
                ranked.select_nth_unstable_by(cap - 1, by_rank);
                ranked.truncate(cap);
                floor = ranked[cap - 1].1;
            }
        }
    }
    if ranked.len() > cap {
        ranked.select_nth_unstable_by(cap - 1, by_rank);
        ranked.truncate(cap);
    }
    ranked.sort_unstable_by(by_rank);
}

/// Pre-resolved handles for the kernel's own work, tallied in locals and
/// flushed once per [`RelianceWorkspace::score`].
struct RelianceMetrics {
    runs: Counter,
    /// Adjacency entries examined while deriving hops.
    hop_checks: Counter,
    score_us: Arc<Histogram>,
}

fn metrics() -> &'static RelianceMetrics {
    static METRICS: OnceLock<RelianceMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = flatnet_obs::global();
        RelianceMetrics {
            runs: reg.counter("reliance.runs"),
            hop_checks: reg.counter("reliance.hop_checks"),
            score_us: reg.histogram("reliance.score_us"),
        }
    })
}

/// Calls `f` with the index of every set bit, ascending.
#[inline]
fn for_each_set_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (wi, &word) in words.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            f(wi * 64 + w.trailing_zeros() as usize);
            w &= w - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagate::{propagate, PropagationConfig};
    use flatnet_asgraph::{AsGraph, AsGraphBuilder, AsId, NodeId, Relationship};

    fn node(g: &AsGraph, asn: u32) -> NodeId {
        g.index_of(AsId(asn)).unwrap()
    }

    fn rely_of(g: &AsGraph, origin: u32) -> (AsGraph, Vec<f64>) {
        let opts = PropagationConfig::default();
        let out = propagate(g, node(g, origin), &opts);
        let dag = NextHopDag::build(g, &opts, &out);
        let w = reliance(&dag);
        (g.clone(), w)
    }

    #[test]
    fn full_mesh_reliance_is_one_everywhere() {
        // 5 ASes all peering with each other.
        let mut b = AsGraphBuilder::new();
        for a in 1..=5u32 {
            for c in (a + 1)..=5 {
                b.add_link(AsId(a), AsId(c), Relationship::P2p);
            }
        }
        let g = b.build();
        let (_, w) = rely_of(&g, 1);
        for asn in 2..=5u32 {
            assert!((w[node(&g, asn).idx()] - 1.0).abs() < 1e-12, "AS{asn}: {}", w[node(&g, asn).idx()]);
        }
        // Origin's W = all 5 ASes hold routes.
        assert!((w[node(&g, 1).idx()] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn pure_hierarchy_reliance_on_sole_provider_is_everyone() {
        // o=1 under provider 2; 2 under provider 3; 3 has another customer
        // subtree 4 -> {5, 6}.
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(2), AsId(1), Relationship::P2c);
        b.add_link(AsId(3), AsId(2), Relationship::P2c);
        b.add_link(AsId(3), AsId(4), Relationship::P2c);
        b.add_link(AsId(4), AsId(5), Relationship::P2c);
        b.add_link(AsId(4), AsId(6), Relationship::P2c);
        let g = b.build();
        let (_, w) = rely_of(&g, 1);
        // Every one of the 6 ASes holds a route; all of 2..6's paths (and
        // 2's own) pass through 2.
        assert!((w[node(&g, 1).idx()] - 6.0).abs() < 1e-12);
        assert!((w[node(&g, 2).idx()] - 5.0).abs() < 1e-12); // 2,3,4,5,6
        assert!((w[node(&g, 3).idx()] - 4.0).abs() < 1e-12); // 3,4,5,6
        assert!((w[node(&g, 4).idx()] - 3.0).abs() < 1e-12); // 4,5,6
        assert!((w[node(&g, 5).idx()] - 1.0).abs() < 1e-12);
    }

    /// Origin 1; providers 2, 3, 4; 5 above {2,3}; 6 above {4};
    /// 7 above {5,6}. From 7 there are 3 tied paths: 5-2, 5-3, 6-4.
    fn fig5() -> AsGraph {
        let mut b = AsGraphBuilder::new();
        for p in [2, 3, 4] {
            b.add_link(AsId(p), AsId(1), Relationship::P2c);
        }
        b.add_link(AsId(5), AsId(2), Relationship::P2c);
        b.add_link(AsId(5), AsId(3), Relationship::P2c);
        b.add_link(AsId(6), AsId(4), Relationship::P2c);
        b.add_link(AsId(7), AsId(5), Relationship::P2c);
        b.add_link(AsId(7), AsId(6), Relationship::P2c);
        b.build()
    }

    #[test]
    fn fig5_fractional_reliance() {
        let g = fig5();
        let (_, w) = rely_of(&g, 1);
        // W(5): itself 1 + from 7: 2/3 of 7's paths go via 5 = 5/3.
        assert!((w[node(&g, 5).idx()] - (1.0 + 2.0 / 3.0)).abs() < 1e-12);
        // W(6): itself + 1/3 from 7.
        assert!((w[node(&g, 6).idx()] - (1.0 + 1.0 / 3.0)).abs() < 1e-12);
        // W(2): itself + 1/2 of 5's mass (5's W = 5/3, half flows to 2)
        //        = 1 + (5/3)/2 = 11/6.
        assert!((w[node(&g, 2).idx()] - (1.0 + 5.0 / 6.0)).abs() < 1e-12);
        // W(4): itself + all of 6's mass = 1 + 4/3 = 7/3.
        assert!((w[node(&g, 4).idx()] - (1.0 + 4.0 / 3.0)).abs() < 1e-12);
        // Origin: 7 ASes hold routes.
        assert!((w[node(&g, 1).idx()] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn reliance_conserves_total_mass() {
        // Sum over non-origin nodes of (W(u) - 1) equals the expected number
        // of intermediate hops summed over all receivers, and W(origin)
        // equals the number of receivers. Check consistency: for each t the
        // random path visits exactly dist(t) + 1 nodes including t and o.
        let mut b = AsGraphBuilder::new();
        // Small mixed topology.
        b.add_link(AsId(2), AsId(1), Relationship::P2c);
        b.add_link(AsId(3), AsId(2), Relationship::P2c);
        b.add_link(AsId(3), AsId(4), Relationship::P2c);
        b.add_link(AsId(1), AsId(5), Relationship::P2p);
        b.add_link(AsId(5), AsId(6), Relationship::P2c);
        let g = b.build();
        let opts = PropagationConfig::default();
        let out = propagate(&g, node(&g, 1), &opts);
        let dag = NextHopDag::build(&g, &opts, &out);
        let w = reliance(&dag);
        let total_w: f64 = dag.topo_order().iter().map(|&u| w[u.idx()]).sum();
        let expected: f64 = dag
            .topo_order()
            .iter()
            .map(|&u| (out.selection(u).unwrap().1 + 1) as f64)
            .sum();
        assert!((total_w - expected).abs() < 1e-9, "{total_w} vs {expected}");
    }

    /// The bounded selection is a full sort and truncate, whatever the
    /// cap, however often the buffer compacts and wherever the ties fall.
    #[test]
    fn select_top_matches_sort_and_truncate() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut ranked = Vec::new();
        for round in 0..200 {
            let len = (next() % 400) as usize;
            // Few distinct values, zeros included: ties on every boundary.
            // Even rounds ascend, the worst case for the running floor.
            let mut scores: Vec<f64> = (0..len).map(|_| (next() % 7) as f64 * 0.5).collect();
            if round % 2 == 0 {
                scores.sort_by(f64::total_cmp);
            }
            let skip = (next() % (len as u64 + 1)) as usize;
            let cap = 1 + (next() % 40) as usize;
            let mut want: Vec<(u32, f64)> = (0..len)
                .filter(|&i| scores[i] > 0.0 && i != skip)
                .map(|i| (i as u32, scores[i]))
                .collect();
            want.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            want.truncate(cap);
            select_top(&scores, skip, cap, &mut ranked);
            assert_eq!(ranked, want, "round {round}: len {len}, skip {skip}, cap {cap}");
        }
        // At most 2 × 40 candidates were ever held, however long the scan.
        assert!(ranked.capacity() <= 4 * 40, "the scratch grew to {}", ranked.capacity());
    }

    /// `top` ranks the latest run and leaves its origin out.
    #[test]
    fn top_skips_the_origin_of_the_latest_run() {
        let (g, w) = rely_of(&fig5(), 1);
        let mut ctx = crate::engine::Simulation::over(&g).ctx();
        let origin = node(&g, 1);
        let top = ctx.run_reliance(origin).top(3).to_vec();
        let ranked = |asn| (node(&g, asn).0, w[node(&g, asn).idx()]);
        assert_eq!(top, [ranked(4), ranked(2), ranked(3)]);
    }

    /// Brute-force cross-check on random DAG-inducing topologies.
    mod prop {
        use super::*;
        use crate::paths::enumerate_paths;
        use proptest::prelude::*;

        /// Acyclic random graphs (provider = smaller ASN), matching the
        /// Gao-Rexford domain.
        fn arb_graph() -> impl Strategy<Value = AsGraph> {
            proptest::collection::vec((0u32..8, 0u32..8, 0u8..2), 1..24).prop_map(|links| {
                let mut b = AsGraphBuilder::new();
                for (a, c, r) in links {
                    if a == c {
                        continue;
                    }
                    if r == 1 {
                        b.add_link(AsId(a), AsId(c), Relationship::P2p);
                    } else {
                        b.add_link(AsId(a.min(c)), AsId(a.max(c)), Relationship::P2c);
                    }
                }
                b.add_isolated(AsId(99));
                b.build()
            })
        }

        proptest! {
            #[test]
            fn matches_brute_force_path_enumeration(g in arb_graph(), seed in 0u32..8) {
                let origin = NodeId(seed % g.len() as u32);
                let opts = PropagationConfig::default();
                let out = propagate(&g, origin, &opts);
                let dag = NextHopDag::build(&g, &opts, &out);
                let w = reliance(&dag);
                // Brute force: enumerate all tied-best paths per receiver.
                let mut expect = vec![0.0f64; g.len()];
                for &t in dag.topo_order() {
                    let paths = enumerate_paths(&dag, t, 10_000).unwrap();
                    let per_path = 1.0 / paths.len() as f64;
                    for p in &paths {
                        // Paths include t itself and the origin.
                        for &hop in p {
                            expect[hop.idx()] += per_path;
                        }
                    }
                }
                for u in g.nodes() {
                    prop_assert!((w[u.idx()] - expect[u.idx()]).abs() < 1e-9,
                        "node {}: got {} want {}", u, w[u.idx()], expect[u.idx()]);
                }
            }
        }
    }
}
