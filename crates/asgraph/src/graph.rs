//! The immutable, index-compressed AS-level topology graph.
//!
//! [`AsGraph`] stores, for every AS, its neighbors split into the three sets
//! that valley-free routing cares about — *customers*, *peers*, and
//! *providers* — in one compressed-sparse-row block, laid out the way the
//! propagation engine walks it. All adjacency lists are sorted by node
//! index so that every traversal over the graph is deterministic. The
//! block is the process's only copy of the links: an [`AsGraph`] is an
//! `Arc` on it, so the graph's clones — the one inside `flatnet-bgpsim`'s
//! compiled snapshot among them — share it, and the canonical edge list
//! ([`AsGraph::edges`]) is read off it rather than stored beside it.

use crate::error::GraphError;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// An Autonomous System number.
///
/// The paper works with 16- and 32-bit ASNs from the CAIDA datasets; we store
/// the full 32-bit space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AsId(pub u32);

impl fmt::Display for AsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// A dense node index into an [`AsGraph`].
///
/// Node indices are assigned in ascending ASN order, so `NodeId(0)` is the
/// lowest-numbered AS in the graph. Indices are only meaningful relative to
/// the graph that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index as a `usize`, for slice indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The business relationship annotating an inter-AS link.
///
/// Orientation matters for [`Relationship::P2c`]: in `add_link(a, b, P2c)`,
/// `a` is the **provider** and `b` the **customer** (CAIDA's `-1`
/// annotation). [`Relationship::P2p`] is symmetric (CAIDA's `0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relationship {
    /// Provider-to-customer: the left AS sells transit to the right AS.
    P2c,
    /// Settlement-free peering.
    P2p,
}

impl Relationship {
    /// Human-readable name matching CAIDA's documentation.
    pub fn name(self) -> &'static str {
        match self {
            Relationship::P2c => "p2c",
            Relationship::P2p => "p2p",
        }
    }
}

/// How one AS sees a specific neighbor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NeighborKind {
    /// The neighbor sells us transit.
    Provider,
    /// We sell the neighbor transit.
    Customer,
    /// Settlement-free peer.
    Peer,
}

impl NeighborKind {
    /// Name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            NeighborKind::Provider => "provider",
            NeighborKind::Customer => "customer",
            NeighborKind::Peer => "peer",
        }
    }
}

/// Internal canonical edge record: `(low_asn, high_asn)` key with the
/// relationship expressed relative to that orientation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CanonRel {
    /// The lower-numbered AS is the provider.
    LowProvidesHigh,
    /// The higher-numbered AS is the provider.
    HighProvidesLow,
    /// Peering.
    Peer,
}

impl CanonRel {
    fn name(self) -> &'static str {
        match self {
            CanonRel::Peer => "p2p",
            _ => "p2c",
        }
    }

    /// Orientation-aware name, so conflicting `p2c` directions read
    /// differently in reports.
    fn describe(self) -> &'static str {
        match self {
            CanonRel::Peer => "p2p",
            CanonRel::LowProvidesHigh => "p2c (lower AS provides)",
            CanonRel::HighProvidesLow => "p2c (higher AS provides)",
        }
    }
}

/// A conflicting re-declaration of a link's relationship, recorded (not
/// applied) by [`AsGraphBuilder::add_link`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelConflict {
    /// Lower-numbered AS of the pair.
    pub a: AsId,
    /// Higher-numbered AS of the pair.
    pub b: AsId,
    /// The relationship kept (first declaration).
    pub kept: &'static str,
    /// The relationship dropped (later declaration).
    pub dropped: &'static str,
}

impl fmt::Display for RelConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}: kept {}, dropped {}", self.a, self.b, self.kept, self.dropped)
    }
}

/// Incremental builder for [`AsGraph`].
///
/// Links may be added in any order; duplicates are ignored and conflicting
/// re-declarations of the same pair keep the *first* relationship seen (the
/// paper's augmentation rule: "we do not modify the previously identified
/// link type"). Conflicts are recorded and available from
/// [`AsGraphBuilder::conflicts`] so topology health checks can surface
/// them. Use [`AsGraphBuilder::add_link_strict`] to treat conflicts as
/// errors instead.
#[derive(Debug, Default, Clone)]
pub struct AsGraphBuilder {
    links: BTreeMap<(u32, u32), CanonRel>,
    /// ASes declared with no links (isolated nodes still count as ASes).
    isolated: Vec<u32>,
    /// Conflicting re-declarations seen by `add_link` (first one kept).
    conflicts: Vec<RelConflict>,
}

impl AsGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct links added so far.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Declares that an AS exists even if no link mentions it.
    pub fn add_isolated(&mut self, asn: AsId) {
        self.isolated.push(asn.0);
    }

    fn canon(a: u32, b: u32, rel: Relationship) -> ((u32, u32), CanonRel) {
        let key = (a.min(b), a.max(b));
        let canon = match rel {
            Relationship::P2p => CanonRel::Peer,
            Relationship::P2c if a < b => CanonRel::LowProvidesHigh,
            Relationship::P2c => CanonRel::HighProvidesLow,
        };
        (key, canon)
    }

    /// Adds a link, first declaration winning on conflict.
    ///
    /// For [`Relationship::P2c`], `a` is the provider of `b`. Returns `true`
    /// if the link was newly inserted, `false` if the pair was already known
    /// (in which case the existing relationship is preserved). Self-loops are
    /// silently ignored and return `false`.
    pub fn add_link(&mut self, a: AsId, b: AsId, rel: Relationship) -> bool {
        if a == b {
            return false;
        }
        let (key, canon) = Self::canon(a.0, b.0, rel);
        match self.links.entry(key) {
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(canon);
                true
            }
            std::collections::btree_map::Entry::Occupied(o) => {
                let existing = *o.get();
                if existing != canon {
                    self.conflicts.push(RelConflict {
                        a: AsId(key.0),
                        b: AsId(key.1),
                        kept: existing.describe(),
                        dropped: canon.describe(),
                    });
                }
                false
            }
        }
    }

    /// Conflicting re-declarations recorded by [`AsGraphBuilder::add_link`]
    /// (the first declaration won each time).
    pub fn conflicts(&self) -> &[RelConflict] {
        &self.conflicts
    }

    /// Adds a link, erroring on self-loops and conflicting re-declarations.
    pub fn add_link_strict(&mut self, a: AsId, b: AsId, rel: Relationship) -> Result<(), GraphError> {
        if a == b {
            return Err(GraphError::SelfLoop { asn: a.0 });
        }
        let (key, canon) = Self::canon(a.0, b.0, rel);
        match self.links.entry(key) {
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(canon);
                Ok(())
            }
            std::collections::btree_map::Entry::Occupied(o) => {
                let existing = *o.get();
                if existing == canon {
                    Ok(())
                } else {
                    Err(GraphError::ConflictingRelationship {
                        a: key.0,
                        b: key.1,
                        first: existing.name(),
                        second: canon.name(),
                    })
                }
            }
        }
    }

    /// Returns whether a link between the two ASes has been declared.
    pub fn contains_link(&self, a: AsId, b: AsId) -> bool {
        self.links.contains_key(&(a.0.min(b.0), a.0.max(b.0)))
    }

    /// Finalizes the builder into an immutable [`AsGraph`].
    pub fn build(&self) -> AsGraph {
        // The node universe: every AS mentioned by a link plus explicitly
        // declared isolated ASes, in ascending ASN order. Low endpoints
        // arrive sorted with the keys, so each run of them is entered once.
        let mut asns: Vec<u32> = Vec::with_capacity(self.links.len() + self.isolated.len());
        let mut run = None;
        for &(lo, hi) in self.links.keys() {
            if run != Some(lo) {
                run = Some(lo);
                asns.push(lo);
            }
            asns.push(hi);
        }
        asns.extend_from_slice(&self.isolated);
        asns.sort_unstable();
        asns.dedup();
        asns.shrink_to_fit();

        // Map each link's endpoints to node ids once. The low endpoint
        // advances monotonically with the sorted keys; the high endpoint
        // lies above it and is the one search per link.
        let mut edges = Vec::with_capacity(self.links.len());
        let mut li = 0usize;
        for (&(lo, hi), &rel) in &self.links {
            while asns[li] < lo {
                li += 1;
            }
            let above = li + 1;
            let hi_i = above + asns[above..].binary_search(&hi).expect("asn collected above");
            let (li, hi_i) = (NodeId(li as u32), NodeId(hi_i as u32));
            edges.push(match rel {
                CanonRel::Peer => (li, hi_i, Relationship::P2p),
                CanonRel::LowProvidesHigh => (li, hi_i, Relationship::P2c),
                CanonRel::HighProvidesLow => (hi_i, li, Relationship::P2c),
            });
        }
        AsGraph::from_canonical_edges(asns, edges)
            .expect("an ordered map of distinct (low, high) keys yields canonical edges")
    }
}

/// What an [`AsGraph`] holds, once per topology: the ASN table and every
/// link in the layout every traversal walks — per node, one contiguous
/// run of `adj` split by relationship class, customers first, each class
/// sorted by node index.
///
/// ```text
/// adj:  [ customers(u) | peers(u) | providers(u) | customers(u+1) | ... ]
///        ^off[u]        ^cust_end[u]^peer_end[u]  ^off[u+1]
/// ```
///
/// The customers-first split is also the export rule of valley-free
/// routing: an AS exports a customer-learned route to its whole run, any
/// other route to the customer prefix only.
#[derive(Debug)]
struct Topology {
    /// Sorted ASNs; position is the node index.
    asns: Vec<u32>,
    /// `off[u]..off[u + 1]` is node `u`'s run in `adj`.
    off: Vec<u32>,
    /// End (exclusive) of node `u`'s customers within its run.
    cust_end: Vec<u32>,
    /// End (exclusive) of node `u`'s peers within its run.
    peer_end: Vec<u32>,
    adj: Vec<NodeId>,
}

/// An immutable AS-level topology with relationship-classed adjacency.
///
/// See the [crate docs](crate) for an overview and an example. The arrays
/// are written once, by [`AsGraph::from_canonical_edges`], and shared from
/// then on: a clone is a handle on the same topology, not a copy of it.
#[derive(Debug, Clone)]
pub struct AsGraph {
    t: Arc<Topology>,
}

impl AsGraph {
    /// An empty graph.
    pub fn empty() -> Self {
        Self::from_canonical_edges(Vec::new(), Vec::new()).expect("no input to reject")
    }

    /// Builds the graph from its canonical form: the ASN table and the
    /// edge list exactly as [`AsGraph::edges`] reports it. This is the one
    /// place the arrays are filled — [`AsGraphBuilder::build`], the
    /// snapshot store's decoder and netgen's public view all end here —
    /// in one counting pass and one fill pass, `O(V + E)`. The list itself
    /// is not kept.
    ///
    /// The form is checked, once and here, because the store decoder hands
    /// in bytes from outside the program. `Err`
    /// ([`GraphError::NotCanonical`] or [`GraphError::SelfLoop`]) unless
    /// all of these hold:
    ///
    /// * `asns` is strictly ascending (position is the node id);
    /// * both endpoints of every edge are `< asns.len()` and distinct;
    /// * the `(min, max)` endpoint pairs are strictly ascending, which is
    ///   also what rules out a duplicate link;
    /// * a `P2p` edge is stored low endpoint first (a `P2c` edge is
    ///   provider first, whichever end that is).
    pub fn from_canonical_edges(
        asns: Vec<u32>,
        edges: Vec<(NodeId, NodeId, Relationship)>,
    ) -> Result<AsGraph, GraphError> {
        let not_canonical = |detail: String| GraphError::NotCanonical { detail };
        if let Some(w) = asns.windows(2).find(|w| w[0] >= w[1]) {
            return Err(not_canonical(format!(
                "asn table not strictly ascending at {} >= {}",
                w[0], w[1]
            )));
        }
        let n = asns.len();
        // Node ids and offsets are u32; a link takes two entries.
        if n > u32::MAX as usize || edges.len() > (u32::MAX / 2) as usize {
            return Err(not_canonical(format!(
                "{n} nodes / {} edges exceed the 32-bit index space",
                edges.len()
            )));
        }

        // Counting pass, validating as it goes: `cust_end[v]`, `peer_end[v]`
        // and `off[v + 1]` first hold v's customer, peer and provider
        // counts.
        let mut off = vec![0u32; n + 1];
        let mut cust_end = vec![0u32; n];
        let mut peer_end = vec![0u32; n];
        let mut prev: Option<(NodeId, NodeId)> = None;
        for (i, &(a, b, rel)) in edges.iter().enumerate() {
            if a.idx() >= n || b.idx() >= n {
                return Err(not_canonical(format!(
                    "edge {i}: endpoints ({}, {}) out of range for {n} nodes",
                    a.0, b.0
                )));
            }
            if a == b {
                return Err(GraphError::SelfLoop { asn: asns[a.idx()] });
            }
            let key = (a.min(b), a.max(b));
            if prev >= Some(key) {
                return Err(not_canonical(format!(
                    "edge {i}: pair ({}, {}) is a duplicate or out of canonical order",
                    key.0 .0, key.1 .0
                )));
            }
            prev = Some(key);
            match rel {
                Relationship::P2p => {
                    if a > b {
                        return Err(not_canonical(format!(
                            "edge {i}: p2p pair ({}, {}) stored high endpoint first",
                            a.0, b.0
                        )));
                    }
                    peer_end[a.idx()] += 1;
                    peer_end[b.idx()] += 1;
                }
                Relationship::P2c => {
                    cust_end[a.idx()] += 1;
                    off[b.idx() + 1] += 1;
                }
            }
        }
        // Prefix sum: each count becomes where its class starts. That is
        // the cursor the fill pass advances, and it comes to rest where
        // the class ends — the value each array is named for.
        let mut at = 0u32;
        for v in 0..n {
            at += std::mem::replace(&mut cust_end[v], at);
            at += std::mem::replace(&mut peer_end[v], at);
            at += std::mem::replace(&mut off[v + 1], at);
        }

        // Fill pass. In canonical order a node first meets its lower
        // neighbors (as the high end of their pairs, ascending) and then
        // its higher ones (as the low end of its own, ascending), so every
        // class comes out sorted without sorting it.
        let mut adj = vec![NodeId(0); at as usize];
        let mut put = |cursor: &mut [u32], at: NodeId, neighbor: NodeId| {
            adj[cursor[at.idx()] as usize] = neighbor;
            cursor[at.idx()] += 1;
        };
        for &(a, b, rel) in &edges {
            match rel {
                Relationship::P2p => {
                    put(&mut peer_end, a, b);
                    put(&mut peer_end, b, a);
                }
                Relationship::P2c => {
                    put(&mut cust_end, a, b);
                    put(&mut off[1..], b, a);
                }
            }
        }

        Ok(AsGraph { t: Arc::new(Topology { asns, off, cust_end, peer_end, adj }) })
    }

    /// Number of ASes.
    pub fn len(&self) -> usize {
        self.t.asns.len()
    }

    /// Whether the graph has no ASes.
    pub fn is_empty(&self) -> bool {
        self.t.asns.is_empty()
    }

    /// Number of inter-AS links.
    pub fn edge_count(&self) -> usize {
        self.t.adj.len() / 2
    }

    /// The ASN of a node.
    #[inline]
    pub fn asn(&self, n: NodeId) -> AsId {
        AsId(self.t.asns[n.idx()])
    }

    /// Looks up the node index of an ASN, if present.
    #[inline]
    pub fn index_of(&self, asn: AsId) -> Option<NodeId> {
        self.t.asns.binary_search(&asn.0).ok().map(|i| NodeId(i as u32))
    }

    /// Iterates all node indices in ascending order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.t.asns.len() as u32).map(NodeId)
    }

    /// Iterates all ASNs in ascending order.
    pub fn asns(&self) -> impl Iterator<Item = AsId> + '_ {
        self.t.asns.iter().map(|&a| AsId(a))
    }

    /// The providers of `n` (ASes `n` buys transit from), sorted.
    #[inline]
    pub fn providers(&self, n: NodeId) -> &[NodeId] {
        let t = &*self.t;
        &t.adj[t.peer_end[n.idx()] as usize..t.off[n.idx() + 1] as usize]
    }

    /// The customers of `n` (ASes buying transit from `n`), sorted.
    #[inline]
    pub fn customers(&self, n: NodeId) -> &[NodeId] {
        let t = &*self.t;
        &t.adj[t.off[n.idx()] as usize..t.cust_end[n.idx()] as usize]
    }

    /// The settlement-free peers of `n`, sorted.
    #[inline]
    pub fn peers(&self, n: NodeId) -> &[NodeId] {
        let t = &*self.t;
        &t.adj[t.cust_end[n.idx()] as usize..t.peer_end[n.idx()] as usize]
    }

    /// All neighbors of `n` with how `n` sees each of them.
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = (NodeId, NeighborKind)> + '_ {
        self.providers(n)
            .iter()
            .map(|&p| (p, NeighborKind::Provider))
            .chain(self.customers(n).iter().map(|&c| (c, NeighborKind::Customer)))
            .chain(self.peers(n).iter().map(|&p| (p, NeighborKind::Peer)))
    }

    /// Total neighbor count (node degree).
    pub fn degree(&self, n: NodeId) -> usize {
        self.providers(n).len() + self.customers(n).len() + self.peers(n).len()
    }

    /// How `a` sees `b`, if they are neighbors.
    pub fn kind_between(&self, a: NodeId, b: NodeId) -> Option<NeighborKind> {
        if self.providers(a).binary_search(&b).is_ok() {
            Some(NeighborKind::Provider)
        } else if self.customers(a).binary_search(&b).is_ok() {
            Some(NeighborKind::Customer)
        } else if self.peers(a).binary_search(&b).is_ok() {
            Some(NeighborKind::Peer)
        } else {
            None
        }
    }

    /// The canonical edge list — `(provider, customer, P2c)` or
    /// `(low, high, P2p)`, ascending by `(min, max)` endpoint pair — read
    /// off the adjacency: node by node, a three-way merge of the
    /// neighbors above it.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Relationship)> + '_ {
        fn above(class: &[NodeId], u: NodeId) -> &[NodeId] {
            &class[class.partition_point(|&v| v < u)..]
        }
        self.nodes().flat_map(move |u| {
            let mut customers = above(self.customers(u), u);
            let mut peers = above(self.peers(u), u);
            let mut providers = above(self.providers(u), u);
            std::iter::from_fn(move || {
                let heads = [customers.first(), peers.first(), providers.first()];
                let &v = heads.into_iter().flatten().min()?;
                Some(if customers.first() == Some(&v) {
                    customers = &customers[1..];
                    (u, v, Relationship::P2c)
                } else if peers.first() == Some(&v) {
                    peers = &peers[1..];
                    (u, v, Relationship::P2p)
                } else {
                    providers = &providers[1..];
                    (v, u, Relationship::P2c)
                })
            })
        })
    }

    /// Re-opens the graph as a builder (used by topology augmentation).
    pub fn to_builder(&self) -> AsGraphBuilder {
        let mut b = AsGraphBuilder::new();
        for (x, y, rel) in self.edges() {
            b.add_link(self.asn(x), self.asn(y), rel);
        }
        // Preserve isolated nodes.
        for n in self.nodes() {
            if self.degree(n) == 0 {
                b.add_isolated(self.asn(n));
            }
        }
        b
    }

    /// ASes that buy transit from nobody (no providers). The Tier-1 clique is
    /// a subset of these.
    pub fn transit_free(&self) -> Vec<NodeId> {
        self.nodes().filter(|&n| self.providers(n).is_empty()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> AsGraph {
        // 1 and 2 are providers of 3 and 4; 3 peers with 4.
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(1), AsId(3), Relationship::P2c);
        b.add_link(AsId(1), AsId(4), Relationship::P2c);
        b.add_link(AsId(2), AsId(3), Relationship::P2c);
        b.add_link(AsId(2), AsId(4), Relationship::P2c);
        b.add_link(AsId(3), AsId(4), Relationship::P2p);
        b.add_link(AsId(1), AsId(2), Relationship::P2p);
        b.build()
    }

    #[test]
    fn builds_expected_adjacency() {
        let g = diamond();
        assert_eq!(g.len(), 4);
        assert_eq!(g.edge_count(), 6);
        let n3 = g.index_of(AsId(3)).unwrap();
        let n4 = g.index_of(AsId(4)).unwrap();
        let n1 = g.index_of(AsId(1)).unwrap();
        assert_eq!(g.providers(n3).len(), 2);
        assert_eq!(g.peers(n3), &[n4]);
        assert_eq!(g.customers(n1), &[n3, n4]);
        assert_eq!(g.kind_between(n3, n1), Some(NeighborKind::Provider));
        assert_eq!(g.kind_between(n1, n3), Some(NeighborKind::Customer));
        assert_eq!(g.kind_between(n3, n4), Some(NeighborKind::Peer));
        assert_eq!(g.kind_between(n3, n3), None);
    }

    #[test]
    fn node_indices_follow_asn_order() {
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(900), AsId(20), Relationship::P2c);
        b.add_link(AsId(900), AsId(500), Relationship::P2p);
        let g = b.build();
        let asns: Vec<u32> = g.asns().map(|a| a.0).collect();
        assert_eq!(asns, vec![20, 500, 900]);
        assert_eq!(g.asn(NodeId(0)), AsId(20));
    }

    #[test]
    fn duplicate_links_are_ignored_first_wins() {
        let mut b = AsGraphBuilder::new();
        assert!(b.add_link(AsId(1), AsId(2), Relationship::P2c));
        assert!(!b.add_link(AsId(1), AsId(2), Relationship::P2c));
        // Conflicting re-declaration keeps the first.
        assert!(!b.add_link(AsId(2), AsId(1), Relationship::P2p));
        let g = b.build();
        let n1 = g.index_of(AsId(1)).unwrap();
        let n2 = g.index_of(AsId(2)).unwrap();
        assert_eq!(g.kind_between(n1, n2), Some(NeighborKind::Customer));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn strict_add_detects_conflicts() {
        let mut b = AsGraphBuilder::new();
        b.add_link_strict(AsId(1), AsId(2), Relationship::P2c).unwrap();
        // Same declaration again is fine.
        b.add_link_strict(AsId(1), AsId(2), Relationship::P2c).unwrap();
        let err = b.add_link_strict(AsId(1), AsId(2), Relationship::P2p).unwrap_err();
        assert!(matches!(err, GraphError::ConflictingRelationship { .. }));
        // Reversed p2c orientation is a conflict too.
        let err = b.add_link_strict(AsId(2), AsId(1), Relationship::P2c).unwrap_err();
        assert!(matches!(err, GraphError::ConflictingRelationship { .. }));
        let err = b.add_link_strict(AsId(3), AsId(3), Relationship::P2p).unwrap_err();
        assert!(matches!(err, GraphError::SelfLoop { asn: 3 }));
    }

    #[test]
    fn self_loops_silently_dropped_by_lenient_add() {
        let mut b = AsGraphBuilder::new();
        assert!(!b.add_link(AsId(7), AsId(7), Relationship::P2p));
        assert_eq!(b.link_count(), 0);
    }

    #[test]
    fn isolated_nodes_survive_build_and_roundtrip() {
        let mut b = AsGraphBuilder::new();
        b.add_isolated(AsId(42));
        b.add_link(AsId(1), AsId(2), Relationship::P2p);
        let g = b.build();
        assert_eq!(g.len(), 3);
        let n42 = g.index_of(AsId(42)).unwrap();
        assert_eq!(g.degree(n42), 0);
        let g2 = g.to_builder().build();
        assert_eq!(g2.len(), 3);
        assert_eq!(g2.edge_count(), 1);
    }

    #[test]
    fn transit_free_finds_provider_less_ases() {
        let g = diamond();
        let tf: Vec<u32> = g.transit_free().into_iter().map(|n| g.asn(n).0).collect();
        assert_eq!(tf, vec![1, 2]);
    }

    #[test]
    fn roundtrip_through_builder_preserves_graph() {
        let g = diamond();
        let g2 = g.to_builder().build();
        assert_eq!(g.len(), g2.len());
        assert!(g.edges().eq(g2.edges()));
    }

    #[test]
    fn neighbors_iterator_covers_all_classes() {
        let g = diamond();
        let n3 = g.index_of(AsId(3)).unwrap();
        let mut kinds: Vec<(u32, &str)> = g
            .neighbors(n3)
            .map(|(n, k)| (g.asn(n).0, k.name()))
            .collect();
        kinds.sort();
        assert_eq!(kinds, vec![(1, "provider"), (2, "provider"), (4, "peer")]);
        assert_eq!(g.degree(n3), 3);
    }
}
