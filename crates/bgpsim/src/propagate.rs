//! Three-phase valley-free route propagation keeping all tied-best routes.
//!
//! For an origin `o`, the set of best routes every other AS holds toward `o`
//! is fully characterized by one word per node: its *selection*, the class
//! its best route was learned over packed above that route's AS-path
//! length (`pack`), so that a smaller word is a preferred route and
//! [`UNREACHED`] loses to every route. The three phases fill it in
//! preference order, and each follows one rule — a route enters a node
//! only where its word is smaller than the node's:
//!
//! 1. **customer phase** — routes `u` learns from a *customer* (or
//!    `u == o`, which selects `pack(Customer, 0) == 0`). An AS exports
//!    such routes to everyone, so they spread upward along c2p edges like
//!    a plain BFS from `o`.
//! 2. **peer phase** — routes learned from a *peer*. Peers only export
//!    customer/origin routes, so one relaxation pass offers
//!    `pack(Peer, len + 1)` from every customer-routed node to its peers;
//!    the offer never displaces a customer route.
//! 3. **provider phase** — routes learned from a *provider*. Providers
//!    export their *selected best* (whatever its class) to customers, so
//!    these lengths chain and are computed with a shortest-path pass over
//!    p2c-down edges; the offer `pack(Provider, d)` enters only nodes
//!    holding no customer or peer route.
//!
//! Every neighbor whose offer equals a node's selected word is one of its
//! tied-best next hops.
//!
//! The same machinery supports the paper's constrained scenarios through
//! [`PropagationConfig`]: node exclusion (reachability subgraphs), origin
//! export restriction, and per-node import policies (peer locking).
//!
//! Runs go through [`crate::engine`]: `Simulation::over(&g).run(o)` for
//! one origin, a [`crate::engine::Workspace`] read in place for many;
//! their selections and tie sets are held to the test kit's stable-paths
//! fixpoint (`flatnet_testkit::stable_paths`), which solves the same
//! rules without phases.

use flatnet_asgraph::{AsGraph, NodeId};
use flatnet_obs::Counter;
use std::sync::OnceLock;

/// Pre-resolved handles into the global metric registry; propagation is
/// the innermost loop of every sweep, so tallies are accumulated in
/// locals and flushed with one atomic add per counter per call.
pub(crate) struct PropagateMetrics {
    pub(crate) runs: Counter,
    pub(crate) routes_customer: Counter,
    pub(crate) routes_peer: Counter,
    pub(crate) routes_provider: Counter,
    pub(crate) export_checks: Counter,
    pub(crate) dijkstra_pops: Counter,
    /// Blocks run through the bit-parallel kernel (`crate::lanes`).
    pub(crate) kernel_blocks: Counter,
    /// Frontier rounds across the kernel's BFS phases; deterministic for
    /// a given (topology, origins, policy) regardless of thread count.
    pub(crate) kernel_rounds: Counter,
    /// Wall time of one single-origin engine run (`run_into`), µs — the
    /// `propagate` stage cost a cache-missing serve query pays.
    pub(crate) run_us: std::sync::Arc<flatnet_obs::Histogram>,
    /// Wall time of one bit-parallel kernel block (`crate::lanes`), µs.
    pub(crate) kernel_block_us: std::sync::Arc<flatnet_obs::Histogram>,
}

pub(crate) fn metrics() -> &'static PropagateMetrics {
    static METRICS: OnceLock<PropagateMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = flatnet_obs::global();
        PropagateMetrics {
            runs: reg.counter("propagate.runs"),
            routes_customer: reg.counter("propagate.routes_customer"),
            routes_peer: reg.counter("propagate.routes_peer"),
            routes_provider: reg.counter("propagate.routes_provider"),
            export_checks: reg.counter("propagate.export_checks"),
            dijkstra_pops: reg.counter("propagate.dijkstra_pops"),
            kernel_blocks: reg.counter("propagate.kernel_blocks"),
            kernel_rounds: reg.counter("propagate.kernel_rounds"),
            run_us: reg.histogram("propagate.run_us"),
            kernel_block_us: reg.histogram("propagate.kernel_block_us"),
        }
    })
}

/// The selection word of a node that received no route: larger than
/// every packed route ([`RoutingOutcome::selection`] reads it as `None`).
pub const UNREACHED: u32 = u32::MAX;

/// Bits of a selection word below its class: the AS-path length.
const LEN_BITS: u32 = 30;

/// A selected route as one word: `class` above `len`, so that the integer
/// order of two words is the routing preference of their routes — class
/// first (`RouteClass`'s declared order), then the shorter path. `len`
/// must be below 2³⁰; every packed route is below [`UNREACHED`].
#[inline]
pub(crate) const fn pack(class: RouteClass, len: u32) -> u32 {
    (class as u32) << LEN_BITS | len
}

/// The AS-path length of a packed selection word.
#[inline]
pub(crate) const fn sel_len(word: u32) -> u32 {
    word & ((1 << LEN_BITS) - 1)
}

/// Which relationship class the selected best route was learned over.
///
/// Order encodes local preference: lower is preferred. The discriminants
/// (0, 1, 2) are the class bits of a packed selection word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RouteClass {
    /// Learned from a customer (or the AS's own origin route).
    Customer,
    /// Learned from a settlement-free peer.
    Peer,
    /// Learned from a transit provider.
    Provider,
}

impl RouteClass {
    /// Report label.
    pub fn name(self) -> &'static str {
        match self {
            RouteClass::Customer => "customer",
            RouteClass::Peer => "peer",
            RouteClass::Provider => "provider",
        }
    }
}

/// Per-node route import behaviour, used to model §8's peer locking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ImportPolicy {
    /// Accept routes normally.
    #[default]
    Normal,
    /// Accept the prefix only when received directly from the origin —
    /// what a neighbor deploying *peer locking* for the origin's prefixes
    /// does. Leaked copies arriving over any other adjacency are discarded,
    /// so leaks can never propagate *through* such a node (the published
    /// erratum's corrected semantics).
    OnlyDirectFromOrigin,
    /// Reject the prefix only when received *directly* from the origin,
    /// accept it from anyone else. This models the paper's **original
    /// (pre-erratum) simulation flaw**: peer-locking deployers filtered
    /// leaks announced straight to them but let copies that detoured
    /// through non-deploying ASes back in.
    RejectDirectFromOrigin,
    /// Never accept the prefix (used for the leak origin's propagation as
    /// seen by peer-locking deployers under the corrected semantics).
    Never,
}

/// A borrowed view of the policy inputs of one propagation run; the one
/// place in this crate the exclusion / origin-export / import rules are
/// interpreted, so the engine, the kernels and `next_hops` cannot drift.
/// The test kit's stable-paths reference restates the rules on purpose: a
/// reference sharing this reading could not catch a wrong one.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PolicyView<'a> {
    pub(crate) excluded: Option<&'a [bool]>,
    pub(crate) origin_export: Option<&'a [bool]>,
    pub(crate) import: Option<&'a [ImportPolicy]>,
}

impl PolicyView<'_> {
    #[inline]
    pub(crate) fn is_excluded(&self, n: NodeId) -> bool {
        self.excluded.map(|m| m[n.idx()]).unwrap_or(false)
    }

    #[inline]
    fn import_of(&self, n: NodeId) -> ImportPolicy {
        self.import.map(|m| m[n.idx()]).unwrap_or(ImportPolicy::Normal)
    }

    /// Whether AS `u` may import the origin's prefix from neighbor `v`.
    #[inline]
    pub(crate) fn import_ok(&self, origin: NodeId, u: NodeId, v: NodeId) -> bool {
        if self.is_excluded(u) || self.is_excluded(v) {
            return false;
        }
        match self.import_of(u) {
            ImportPolicy::Normal => {}
            ImportPolicy::OnlyDirectFromOrigin => {
                if v != origin {
                    return false;
                }
            }
            ImportPolicy::RejectDirectFromOrigin => {
                if v == origin {
                    return false;
                }
            }
            ImportPolicy::Never => return false,
        }
        if v == origin {
            if let Some(mask) = self.origin_export {
                return mask[u.idx()];
            }
        }
        true
    }
}

/// Owned per-run propagation knobs: node exclusion, origin export
/// restriction and per-node import policies.
///
/// The config owns its masks, so it can be stored in builders and worker
/// contexts without lifetime plumbing. An empty mask is no mask, so a
/// mask switched off keeps its buffer: refilling one in place between
/// runs of a sweep (see [`PropagationConfig::excluded_mask_mut`]) or
/// copying another config over this one with [`Clone::clone_from`]
/// allocates nothing once the buffers are sized.
#[derive(Debug, Default)]
pub struct PropagationConfig {
    excluded: Vec<bool>,
    origin_export: Vec<bool>,
    import: Vec<ImportPolicy>,
}

impl Clone for PropagationConfig {
    fn clone(&self) -> Self {
        PropagationConfig {
            excluded: self.excluded.clone(),
            origin_export: self.origin_export.clone(),
            import: self.import.clone(),
        }
    }

    /// Copies `source`'s policy into the buffers already here: a present
    /// mask is copied in place, an absent one is switched off without
    /// being freed — how a pooled context takes on its caller's policy.
    fn clone_from(&mut self, source: &Self) {
        self.excluded.clone_from(&source.excluded);
        self.origin_export.clone_from(&source.origin_export);
        self.import.clone_from(&source.import);
    }
}

/// `mask` sized for an `n`-node graph in its own buffer; one of another
/// size (an absent one included) is refilled with `fill` first.
fn sized<T: Copy>(mask: &mut Vec<T>, n: usize, fill: T) -> &mut [T] {
    if mask.len() != n {
        mask.clear();
        mask.resize(n, fill);
    }
    mask
}

impl PropagationConfig {
    /// Config with no restrictions (same as `Default`): the full graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the excluded-node mask (`true` = removed from the topology).
    pub fn with_excluded(mut self, mask: Vec<bool>) -> Self {
        self.excluded = mask;
        self
    }

    /// Sets the origin-export mask: the origin announces only to neighbors
    /// flagged `true`.
    pub fn with_origin_export(mut self, mask: Vec<bool>) -> Self {
        self.origin_export = mask;
        self
    }

    /// Sets per-node import policies (peer locking).
    pub fn with_import(mut self, policies: Vec<ImportPolicy>) -> Self {
        self.import = policies;
        self
    }

    /// Mutable access to the exclusion mask, sized for an `n`-node graph.
    ///
    /// Sizes a cleared mask on first use and reuses it afterwards, so
    /// a sweep that re-fills the mask per origin does no steady-state
    /// allocation. The caller is responsible for clearing stale entries
    /// (`mask.fill(false)`) before writing the next origin's exclusions.
    pub fn excluded_mask_mut(&mut self, n: usize) -> &mut [bool] {
        sized(&mut self.excluded, n, false)
    }

    /// The origin-export mask, sized like [`Self::excluded_mask_mut`].
    pub(crate) fn origin_export_mut(&mut self, n: usize) -> &mut [bool] {
        sized(&mut self.origin_export, n, false)
    }

    /// The import policies, sized like [`Self::excluded_mask_mut`].
    pub(crate) fn import_mut(&mut self, n: usize) -> &mut [ImportPolicy] {
        sized(&mut self.import, n, ImportPolicy::Normal)
    }

    /// Heap bytes the masks hold, at capacity.
    pub(crate) fn heap_bytes(&self) -> usize {
        use crate::scratch::cap_bytes;
        cap_bytes(&self.excluded) + cap_bytes(&self.origin_export) + cap_bytes(&self.import)
    }

    /// The borrowed policy view the engine interprets.
    pub(crate) fn view(&self) -> PolicyView<'_> {
        PolicyView {
            excluded: present(&self.excluded),
            origin_export: present(&self.origin_export),
            import: present(&self.import),
        }
    }
}

/// A mask as the view reads it: `None` when switched off (empty).
fn present<T>(mask: &[T]) -> Option<&[T]> {
    (!mask.is_empty()).then_some(mask)
}

/// The result of propagating one origin's announcement.
///
/// Holds, for every node, its selected route as one packed word plus a
/// word-packed reachability bitset; the selection's class and length and
/// the tied-best next hops are derived views.
#[derive(Debug, Clone, Default)]
pub struct RoutingOutcome {
    pub(crate) origin: NodeId,
    /// Each node's selected route, packed (`pack`); `UNREACHED` where
    /// the node received none. Comparing two words compares the routes'
    /// preference.
    pub(crate) sel: Vec<u32>,
    /// Bit `i` set iff node `i` received the announcement (origin included).
    pub(crate) reach: Vec<u64>,
    /// Popcount of `reach`, maintained as the bitset is filled.
    pub(crate) reached: u32,
}

impl RoutingOutcome {
    /// The announcing AS.
    pub fn origin(&self) -> NodeId {
        self.origin
    }

    /// Number of nodes in the underlying graph.
    pub fn len(&self) -> usize {
        self.sel.len()
    }

    /// Whether the outcome covers an empty graph.
    pub fn is_empty(&self) -> bool {
        self.sel.is_empty()
    }

    /// The selected best route of `n`: class and AS-path length (number of
    /// inter-AS hops to the origin). `None` if `n` received no route.
    /// The origin itself selects `(Customer, 0)`.
    #[inline]
    pub fn selection(&self, n: NodeId) -> Option<(RouteClass, u32)> {
        let word = self.sel[n.idx()];
        let class = match word >> LEN_BITS {
            0 => RouteClass::Customer,
            1 => RouteClass::Peer,
            2 => RouteClass::Provider,
            _ => return None,
        };
        Some((class, sel_len(word)))
    }

    /// Whether `n` received the announcement.
    #[inline]
    pub fn reachable(&self, n: NodeId) -> bool {
        let i = n.idx();
        (self.reach[i >> 6] >> (i & 63)) & 1 == 1
    }

    /// Number of ASes that received the announcement, **excluding** the
    /// origin itself (an AS does not "reach" itself; the paper's maximum
    /// possible reachability is `|V| - 1` from the origin's perspective,
    /// attained by the Tier-1 ISPs over the full graph).
    ///
    /// O(1): backed by the popcount cached when the bitset was filled.
    pub fn reachable_count(&self) -> usize {
        (self.reached as usize).saturating_sub(1) // the origin always holds its own route
    }

    /// The word-packed reachability bitset (bit = node index, origin bit
    /// set). `reach_words().len() == len().div_ceil(64)`.
    pub fn reach_words(&self) -> &[u64] {
        &self.reach
    }

    /// All reachable nodes (the paper's `reach(o, G)` set), origin excluded.
    ///
    /// Allocates the result; hot loops should iterate [`Self::reach_words`]
    /// or use [`Self::reachable_count`] instead.
    pub fn reach_set(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.reachable_count());
        for (wi, &word) in self.reach.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros();
                let n = NodeId((wi as u32) * 64 + bit);
                if n != self.origin {
                    out.push(n);
                }
                w &= w - 1;
            }
        }
        out
    }

    /// The tied-best next hops of `n` toward the origin, under the same
    /// graph and config the outcome was computed with. Empty for the
    /// origin and for unreachable nodes. Sorted by node index. Every tied
    /// hop is returned: the paper's model (§6.1) breaks no ties.
    pub fn next_hops(&self, g: &AsGraph, cfg: &PropagationConfig, n: NodeId) -> Vec<NodeId> {
        let pol = cfg.view();
        let mut out = Vec::new();
        if n == self.origin {
            return out;
        }
        let Some((class, len)) = self.selection(n) else {
            return out;
        };
        // A customer or peer route is learned from a neighbour's customer
        // route one hop shorter.
        let sender = pack(RouteClass::Customer, len - 1);
        match class {
            RouteClass::Customer => {
                for &c in g.customers(n) {
                    if pol.import_ok(self.origin, n, c) && self.sel[c.idx()] == sender {
                        out.push(c);
                    }
                }
            }
            RouteClass::Peer => {
                for &v in g.peers(n) {
                    if pol.import_ok(self.origin, n, v) && self.sel[v.idx()] == sender {
                        out.push(v);
                    }
                }
            }
            RouteClass::Provider => {
                for &w in g.providers(n) {
                    if pol.import_ok(self.origin, n, w) {
                        if let Some((_, wlen)) = self.selection(w) {
                            if wlen + 1 == len {
                                out.push(w);
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Whether `path`, written `[t, ..., origin]`, is one of `t`'s
    /// tied-best paths: it ends at the origin and each hop is among the
    /// [`Self::next_hops`] of the one before. O(|path| · degree), nothing
    /// materialised; the origin alone is its own path, the empty path is
    /// nobody's.
    pub fn is_tied_best_path(&self, g: &AsGraph, cfg: &PropagationConfig, path: &[NodeId]) -> bool {
        path.last() == Some(&self.origin)
            && path.windows(2).all(|w| self.next_hops(g, cfg, w[0]).contains(&w[1]))
    }
}

/// One origin: the unit tests' shorthand for
/// `Simulation::over(g).config(cfg).run(origin)`.
#[cfg(test)]
pub(crate) fn propagate(g: &AsGraph, origin: NodeId, cfg: &PropagationConfig) -> RoutingOutcome {
    crate::engine::Simulation::over(g).config(cfg.clone()).run(origin)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flatnet_asgraph::{AsGraphBuilder, AsId, Relationship};

    fn node(g: &AsGraph, asn: u32) -> NodeId {
        g.index_of(AsId(asn)).unwrap()
    }

    /// Figure-1-style topology:
    ///
    /// * AS 1: the cloud's transit provider (also a Tier-1).
    /// * AS 2: a Tier-1 the cloud peers with; AS 20 is its customer.
    /// * AS 3: a Tier-2 the cloud peers with; AS 30 is its customer.
    /// * AS 40, 50: user ISPs the cloud peers with.
    /// * AS 60: user ISP reachable only through provider AS 1.
    /// * AS 10: the cloud.
    fn fig1() -> AsGraph {
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(1), AsId(10), Relationship::P2c);
        b.add_link(AsId(1), AsId(60), Relationship::P2c);
        b.add_link(AsId(1), AsId(2), Relationship::P2p);
        b.add_link(AsId(2), AsId(3), Relationship::P2c);
        b.add_link(AsId(2), AsId(20), Relationship::P2c);
        b.add_link(AsId(3), AsId(30), Relationship::P2c);
        b.add_link(AsId(10), AsId(2), Relationship::P2p);
        b.add_link(AsId(10), AsId(3), Relationship::P2p);
        b.add_link(AsId(10), AsId(40), Relationship::P2p);
        b.add_link(AsId(10), AsId(50), Relationship::P2p);
        b.build()
    }

    /// The integer order of packed words is the routing preference:
    /// class first, then length, with no route behind every route.
    #[test]
    fn packed_order_is_the_preference_order() {
        let classes = [RouteClass::Customer, RouteClass::Peer, RouteClass::Provider];
        let lens = [0, 1, 2, 3, 1 << 20, (1 << 30) - 2, (1 << 30) - 1];
        for a in classes {
            for x in lens {
                assert_eq!(sel_len(pack(a, x)), x);
                assert!(pack(a, x) < UNREACHED, "{a:?} {x}");
                for b in classes {
                    for y in lens {
                        let (p, q) = (pack(a, x), pack(b, y));
                        assert_eq!(p < q, (a, x) < (b, y), "{a:?} {x} vs {b:?} {y}");
                    }
                }
            }
        }
        // `selection()` reads back what was packed; the origin's word is 0.
        let g = fig1();
        let cloud = node(&g, 10);
        let mut out = propagate(&g, cloud, &PropagationConfig::default());
        assert_eq!(out.sel[cloud.idx()], 0);
        assert_eq!(out.selection(cloud), Some((RouteClass::Customer, 0)));
        let probe = node(&g, 60);
        for a in classes {
            for x in lens {
                out.sel[probe.idx()] = pack(a, x);
                assert_eq!(out.selection(probe), Some((a, x)));
            }
        }
        out.sel[probe.idx()] = UNREACHED;
        assert_eq!(out.selection(probe), None);
    }

    #[test]
    fn full_graph_reaches_everyone() {
        let g = fig1();
        let cloud = node(&g, 10);
        let out = propagate(&g, cloud, &PropagationConfig::default());
        assert_eq!(out.reachable_count(), g.len() - 1);
        // AS 60 is reached through the provider: 10 -> 1 -> 60, length 2.
        let n60 = node(&g, 60);
        assert_eq!(out.selection(n60), Some((RouteClass::Provider, 2)));
        assert_eq!(out.origin(), cloud);
    }

    #[test]
    fn provider_free_reachability_matches_hand_count() {
        let g = fig1();
        let cloud = node(&g, 10);
        let mut excl = vec![false; g.len()];
        excl[node(&g, 1).idx()] = true; // remove the transit provider
        let cfg = PropagationConfig::default().with_excluded(excl);
        let out = propagate(&g, cloud, &cfg);
        // Reaches peers 2, 3, 40, 50 and their customers 20, 30 — not 60.
        assert_eq!(out.reachable_count(), 6);
        assert!(!out.reachable(node(&g, 60)));
        assert!(!out.reachable(node(&g, 1)));
        assert!(out.reachable(node(&g, 20)));
    }

    #[test]
    fn tier1_free_removes_clique_customers_too() {
        let g = fig1();
        let cloud = node(&g, 10);
        let mut excl = vec![false; g.len()];
        for asn in [1, 2] {
            excl[node(&g, asn).idx()] = true; // providers + Tier-1s
        }
        let cfg = PropagationConfig::default().with_excluded(excl);
        let out = propagate(&g, cloud, &cfg);
        // Left: peer 3 (+30), peers 40, 50. AS 20 lost with AS 2.
        assert_eq!(out.reachable_count(), 4);
        assert!(!out.reachable(node(&g, 20)));
    }

    #[test]
    fn hierarchy_free_keeps_only_direct_peer_edges() {
        let g = fig1();
        let cloud = node(&g, 10);
        let mut excl = vec![false; g.len()];
        for asn in [1, 2, 3] {
            excl[node(&g, asn).idx()] = true; // providers + T1 + T2
        }
        let cfg = PropagationConfig::default().with_excluded(excl);
        let out = propagate(&g, cloud, &cfg);
        let mut reached: Vec<u32> = out.reach_set().iter().map(|&n| g.asn(n).0).collect();
        reached.sort_unstable();
        assert_eq!(reached, vec![40, 50]);
    }

    #[test]
    fn valley_free_blocks_peer_peer_transit() {
        // 1 -p2p- 2 -p2p- 3: an announcement from 1 must not cross 2 to 3.
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(1), AsId(2), Relationship::P2p);
        b.add_link(AsId(2), AsId(3), Relationship::P2p);
        let g = b.build();
        let out = propagate(&g, node(&g, 1), &PropagationConfig::default());
        assert!(out.reachable(node(&g, 2)));
        assert!(!out.reachable(node(&g, 3)));
    }

    #[test]
    fn valley_free_blocks_provider_then_peer() {
        // 1 is customer of 2; 2 peers with 3; 3 has customer 4.
        // 2 learned 1's route from a customer => exports to peer 3. ✔
        // 3 learned it from a peer => exports only to customers => 4 gets it.
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(2), AsId(1), Relationship::P2c);
        b.add_link(AsId(2), AsId(3), Relationship::P2p);
        b.add_link(AsId(3), AsId(4), Relationship::P2c);
        b.add_link(AsId(4), AsId(5), Relationship::P2p);
        let g = b.build();
        let out = propagate(&g, node(&g, 1), &PropagationConfig::default());
        assert_eq!(out.selection(node(&g, 2)), Some((RouteClass::Customer, 1)));
        assert_eq!(out.selection(node(&g, 3)), Some((RouteClass::Peer, 2)));
        assert_eq!(out.selection(node(&g, 4)), Some((RouteClass::Provider, 3)));
        // 4 learned from a provider: not exported to 4's peer 5.
        assert!(!out.reachable(node(&g, 5)));
    }

    #[test]
    fn prefers_customer_over_shorter_peer() {
        // 10 has customer chain 10<-20<-30 (origin 30) and also peers with 30.
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(10), AsId(20), Relationship::P2c);
        b.add_link(AsId(20), AsId(30), Relationship::P2c);
        b.add_link(AsId(10), AsId(30), Relationship::P2p);
        let g = b.build();
        let out = propagate(&g, node(&g, 30), &PropagationConfig::default());
        // Customer route of length 2 beats the peer route of length 1.
        assert_eq!(out.selection(node(&g, 10)), Some((RouteClass::Customer, 2)));
        let hops = out.next_hops(&g, &PropagationConfig::default(), node(&g, 10));
        assert_eq!(hops, vec![node(&g, 20)]);
    }

    #[test]
    fn ties_keep_all_next_hops() {
        // Origin 1 has two providers 2 and 3; both are customers of 4.
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(2), AsId(1), Relationship::P2c);
        b.add_link(AsId(3), AsId(1), Relationship::P2c);
        b.add_link(AsId(4), AsId(2), Relationship::P2c);
        b.add_link(AsId(4), AsId(3), Relationship::P2c);
        let g = b.build();
        let out = propagate(&g, node(&g, 1), &PropagationConfig::default());
        let hops = out.next_hops(&g, &PropagationConfig::default(), node(&g, 4));
        assert_eq!(hops.len(), 2);
        assert_eq!(out.selection(node(&g, 4)), Some((RouteClass::Customer, 2)));
    }

    #[test]
    fn origin_export_restriction_limits_spread() {
        let g = fig1();
        let cloud = node(&g, 10);
        // Announce only to the provider AS 1.
        let mut mask = vec![false; g.len()];
        mask[node(&g, 1).idx()] = true;
        let cfg = PropagationConfig::default().with_origin_export(mask);
        let out = propagate(&g, cloud, &cfg);
        // Peers 40/50 don't hear it directly and have no other path.
        assert!(!out.reachable(node(&g, 40)));
        assert!(!out.reachable(node(&g, 50)));
        // AS 1 has it as a customer route; exports to peer 2 and customer 60.
        assert!(out.reachable(node(&g, 60)));
        assert!(out.reachable(node(&g, 2)));
        assert_eq!(out.selection(node(&g, 2)), Some((RouteClass::Peer, 2)));
        // 2 learned from peer: exports to customers 3, 20 only.
        assert!(out.reachable(node(&g, 20)));
        assert_eq!(out.selection(node(&g, 3)), Some((RouteClass::Provider, 3)));
    }

    #[test]
    fn import_never_blocks_node_and_transit_through_it() {
        // chain origin 1 <- 2 <- 3 (2 is customer of 3... build: 2 provider of 1, 3 provider of 2)
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(2), AsId(1), Relationship::P2c);
        b.add_link(AsId(3), AsId(2), Relationship::P2c);
        let g = b.build();
        let mut import = vec![ImportPolicy::Normal; g.len()];
        import[node(&g, 2).idx()] = ImportPolicy::Never;
        let cfg = PropagationConfig::default().with_import(import);
        let out = propagate(&g, node(&g, 1), &cfg);
        assert!(!out.reachable(node(&g, 2)));
        assert!(!out.reachable(node(&g, 3)));
    }

    #[test]
    fn only_direct_import_accepts_just_the_origin_adjacency() {
        // Origin 1 peers with 2; 2 also reachable via provider 3 (longer).
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(1), AsId(2), Relationship::P2p);
        b.add_link(AsId(3), AsId(2), Relationship::P2c);
        b.add_link(AsId(3), AsId(1), Relationship::P2c);
        let g = b.build();
        let mut import = vec![ImportPolicy::Normal; g.len()];
        import[node(&g, 2).idx()] = ImportPolicy::OnlyDirectFromOrigin;
        let cfg = PropagationConfig::default().with_import(import);
        let out = propagate(&g, node(&g, 1), &cfg);
        assert_eq!(out.selection(node(&g, 2)), Some((RouteClass::Peer, 1)));
        let hops = out.next_hops(&g, &cfg, node(&g, 2));
        assert_eq!(hops, vec![node(&g, 1)]);
    }

    #[test]
    fn excluded_origin_yields_empty_outcome() {
        let g = fig1();
        let cloud = node(&g, 10);
        let mut excl = vec![false; g.len()];
        excl[cloud.idx()] = true;
        let cfg = PropagationConfig::default().with_excluded(excl);
        let out = propagate(&g, cloud, &cfg);
        assert_eq!(out.reachable_count(), 0);
        assert!(!out.reachable(cloud));
    }

    #[test]
    fn empty_graph() {
        let g = AsGraph::empty();
        // No nodes: nothing to propagate. (Constructing a NodeId for an
        // empty graph is a caller bug; we simulate via a 1-node graph.)
        assert!(g.is_empty());
        let mut b = AsGraphBuilder::new();
        b.add_isolated(AsId(1));
        let g = b.build();
        let out = propagate(&g, NodeId(0), &PropagationConfig::default());
        assert_eq!(out.reachable_count(), 0);
        assert!(out.reachable(NodeId(0))); // the origin holds its own route
    }

    #[test]
    fn next_hops_of_origin_and_unreachable_are_empty() {
        let g = fig1();
        let cloud = node(&g, 10);
        let mut excl = vec![false; g.len()];
        excl[node(&g, 1).idx()] = true;
        let cfg = PropagationConfig::default().with_excluded(excl);
        let out = propagate(&g, cloud, &cfg);
        assert!(out.next_hops(&g, &cfg, cloud).is_empty());
        assert!(out.next_hops(&g, &cfg, node(&g, 60)).is_empty());
    }

    #[test]
    fn provider_route_ties_across_two_providers() {
        // Origin 1; 2 and 3 both providers of 4 and both peers of 1.
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(1), AsId(2), Relationship::P2p);
        b.add_link(AsId(1), AsId(3), Relationship::P2p);
        b.add_link(AsId(2), AsId(4), Relationship::P2c);
        b.add_link(AsId(3), AsId(4), Relationship::P2c);
        let g = b.build();
        let out = propagate(&g, node(&g, 1), &PropagationConfig::default());
        assert_eq!(out.selection(node(&g, 4)), Some((RouteClass::Provider, 2)));
        let hops = out.next_hops(&g, &PropagationConfig::default(), node(&g, 4));
        assert_eq!(hops.len(), 2);
    }

    /// A pooled context takes on its caller's policy in place: every
    /// mask the source has is copied into the buffer already there, every
    /// one it lacks is switched off, and no buffer is freed.
    #[test]
    fn clone_from_lends_masks_without_freeing_them() {
        let mut lent = PropagationConfig::new()
            .with_excluded(vec![true; 4])
            .with_origin_export(vec![true; 4])
            .with_import(vec![ImportPolicy::Never; 4]);
        let before = lent.heap_bytes();
        let caller = PropagationConfig::new().with_excluded(vec![false, true, false, false]);
        lent.clone_from(&caller);
        let view = lent.view();
        assert_eq!(view.excluded, Some(&[false, true, false, false][..]));
        assert!(view.origin_export.is_none() && view.import.is_none());
        assert_eq!(lent.heap_bytes(), before, "a switched-off mask keeps its buffer");
    }

    #[test]
    fn excluded_mask_mut_is_reusable_across_sizes() {
        let mut cfg = PropagationConfig::default();
        let m = cfg.excluded_mask_mut(4);
        m[2] = true;
        assert_eq!(cfg.excluded_mask_mut(4), &[false, false, true, false]);
        // Resizing clears the mask (stale indices would be wrong anyway).
        assert_eq!(cfg.excluded_mask_mut(2), &[false, false]);
    }

    /// Properties of runs on random small graphs. Their selections and
    /// tie sets against the stable-paths fixpoint are
    /// `crates/bgpsim/tests/scalar_prop.rs`'s: the reference lives in the
    /// test kit, which depends on this crate, so only an integration test
    /// shares its types.
    mod prop {
        use super::*;
        use proptest::prelude::*;

        /// Random *acyclic* relationship graphs: in a p2c link the provider
        /// always has the smaller ASN, so provider-customer cycles (which
        /// the Gao-Rexford model excludes) cannot occur.
        fn arb_graph() -> impl Strategy<Value = AsGraph> {
            proptest::collection::vec((0u32..10, 0u32..10, 0u8..2), 1..30).prop_map(|links| {
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
            /// Adding a settlement-free peer link can only grow the set of
            /// ASes that receive an announcement: customer routes are
            /// untouched, peer routes only gain options, and providers
            /// still export *some* best route to their customers. (Path
            /// lengths and classes may change arbitrarily — only the
            /// reach *set* is monotone.)
            #[test]
            fn reach_set_monotone_under_added_peer_link(
                g in arb_graph(),
                seed in 0u32..10,
                a in 0u32..10,
                b in 0u32..10,
            ) {
                let origin = NodeId(seed % g.len() as u32);
                let before = propagate(&g, origin, &PropagationConfig::default());
                // Add one new peer link between two random ASes.
                let mut builder = g.to_builder();
                let (x, y) = (AsId(a), AsId(b));
                if x == y || builder.contains_link(x, y) {
                    return Ok(());
                }
                builder.add_link(x, y, Relationship::P2p);
                let g2 = builder.build();
                // Same node universe iff both endpoints already existed.
                if g2.len() != g.len() {
                    return Ok(());
                }
                let origin2 = g2.index_of(g.asn(origin)).unwrap();
                let after = propagate(&g2, origin2, &PropagationConfig::default());
                for n in g.nodes() {
                    let n2 = g2.index_of(g.asn(n)).unwrap();
                    prop_assert!(
                        !before.reachable(n) || after.reachable(n2),
                        "node {} lost reachability when peer link {}-{} was added",
                        g.asn(n), x, y
                    );
                }
            }

            #[test]
            fn next_hops_are_consistent(g in arb_graph(), seed in 0u32..10) {
                let origin = NodeId(seed % g.len() as u32);
                let cfg = PropagationConfig::default();
                let out = propagate(&g, origin, &cfg);
                for n in g.nodes() {
                    let hops = out.next_hops(&g, &cfg, n);
                    if n == origin {
                        prop_assert!(hops.is_empty());
                        continue;
                    }
                    match out.selection(n) {
                        None => prop_assert!(hops.is_empty()),
                        Some((_, len)) => {
                            // Every reachable non-origin node has >= 1 next hop,
                            // and each next hop is exactly one hop closer.
                            prop_assert!(!hops.is_empty(), "node {} reachable but no next hops", n);
                            for h in hops {
                                let (_, hl) = out.selection(h).unwrap();
                                prop_assert_eq!(hl + 1, len);
                            }
                        }
                    }
                }
            }
        }
    }
}
