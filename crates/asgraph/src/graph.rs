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
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
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

/// A link's relationship relative to its `(low ASN, high ASN)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CanonRel {
    /// Peering.
    Peer,
    /// The lower-numbered AS is the provider.
    LowProvidesHigh,
    /// The higher-numbered AS is the provider.
    HighProvidesLow,
}

impl CanonRel {
    fn of(a: u32, b: u32, rel: Relationship) -> CanonRel {
        match rel {
            Relationship::P2p => CanonRel::Peer,
            Relationship::P2c if a < b => CanonRel::LowProvidesHigh,
            Relationship::P2c => CanonRel::HighProvidesLow,
        }
    }

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

/// One link as the builder holds it, 12 bytes: the pair, low ASN first,
/// and a tag whose low two bits are the [`CanonRel`] and whose high bits
/// are the declaration's sequence number while the CAIDA reader has not
/// settled it yet (0 once settled, and always for `add_link`).
#[derive(Debug, Clone, Copy)]
struct Link {
    lo: u32,
    hi: u32,
    tag: u32,
}

impl Link {
    fn new(a: u32, b: u32, rel: Relationship, seq: u32) -> Link {
        let rel = CanonRel::of(a, b, rel) as u32;
        Link { lo: a.min(b), hi: a.max(b), tag: seq << 2 | rel }
    }

    /// The pair as one integer, low ASN in the high half: what the index
    /// hashes and what `build` sorts by.
    fn pair(&self) -> u64 {
        (self.lo as u64) << 32 | self.hi as u64
    }

    /// The order a settle sorts in — pair, then sequence — as one integer.
    fn settle_key(&self) -> u128 {
        (self.pair() as u128) << 32 | self.tag as u128
    }

    fn rel(&self) -> CanonRel {
        match self.tag & 3 {
            0 => CanonRel::Peer,
            1 => CanonRel::LowProvidesHigh,
            _ => CanonRel::HighProvidesLow,
        }
    }

    fn conflict(&self, kept: CanonRel) -> RelConflict {
        RelConflict { a: AsId(self.lo), b: AsId(self.hi), kept: kept.describe(), dropped: self.rel().describe() }
    }
}

/// A conflicting re-declaration of a link's relationship, recorded (not
/// applied) by [`AsGraphBuilder::add_link`] and the CAIDA reader.
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

/// An empty slot of [`LinkIndex`].
const EMPTY: u32 = u32::MAX;

/// The builder's open-addressing index: linear probing over positions
/// into its link vector, keyed by pair through SipHash with a per-index
/// random key (the pairs can come from a file), at most half full.
/// Empty — no slots at all — until the first `add_link`.
#[derive(Debug, Default, Clone)]
struct LinkIndex {
    hasher: RandomState,
    slots: Vec<u32>,
}

impl LinkIndex {
    /// `Ok(position)` of the link with this pair, or `Err(slot)` where it
    /// would go.
    fn find(&self, links: &[Link], pair: u64) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.hasher.hash_one(pair) as usize & mask;
        loop {
            match self.slots[i] {
                EMPTY => return Err(i),
                at if links[at as usize].pair() == pair => return Ok(at as usize),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Makes room for one more link, indexing `links` afresh when the
    /// table is missing or would pass half full.
    fn reserve_one(&mut self, links: &[Link]) {
        if 2 * (links.len() + 1) <= self.slots.len() {
            return;
        }
        self.slots.clear();
        self.slots.resize((4 * (links.len() + 1)).next_power_of_two(), EMPTY);
        for (at, l) in links.iter().enumerate() {
            let slot = self.find(links, l.pair()).expect_err("the builder's links are distinct");
            self.slots[slot] = at as u32;
        }
    }
}

/// Links the CAIDA reader makes room for before its first settle.
const FIRST_CAPACITY: usize = 256;

/// Declarations the reader may hold unsettled: the sequence number has
/// 30 bits of the tag.
const MAX_UNSETTLED: usize = 1 << 30;

/// Incremental builder for [`AsGraph`].
///
/// Links may be added in any order; duplicates are ignored and conflicting
/// re-declarations of the same pair keep the *first* relationship seen (the
/// paper's augmentation rule: "we do not modify the previously identified
/// link type"). Conflicts are recorded and available from
/// [`AsGraphBuilder::conflicts`] so topology health checks can surface
/// them. Use [`AsGraphBuilder::add_link_strict`] to treat conflicts as
/// errors instead.
///
/// The links are one vector of distinct pairs. Until the first `add_link`
/// it is sorted by pair (as the CAIDA reader and
/// [`AsGraph::to_builder`] leave it) and `contains_link` searches it; the
/// first `add_link` builds an index over it, and links are appended from
/// then on.
#[derive(Debug, Default, Clone)]
pub struct AsGraphBuilder {
    links: Vec<Link>,
    index: LinkIndex,
    /// ASes declared with no links (isolated nodes still count as ASes).
    isolated: Vec<u32>,
    /// Conflicting re-declarations, in declaration order (first one kept).
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

    /// The position of `link`'s pair, or the index slot it would take.
    fn find(&mut self, link: &Link) -> Result<usize, usize> {
        self.index.reserve_one(&self.links);
        self.index.find(&self.links, link.pair())
    }

    fn insert(&mut self, slot: usize, link: Link) {
        self.index.slots[slot] = self.links.len() as u32;
        self.links.push(link);
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
        let link = Link::new(a.0, b.0, rel, 0);
        match self.find(&link) {
            Err(slot) => {
                self.insert(slot, link);
                true
            }
            Ok(at) => {
                let kept = self.links[at].rel();
                if kept != link.rel() {
                    self.conflicts.push(link.conflict(kept));
                }
                false
            }
        }
    }

    /// Conflicting re-declarations recorded by [`AsGraphBuilder::add_link`]
    /// or the CAIDA reader (the first declaration won each time), in the
    /// order they were declared.
    pub fn conflicts(&self) -> &[RelConflict] {
        &self.conflicts
    }

    /// Adds a link, erroring on self-loops and conflicting re-declarations.
    pub fn add_link_strict(&mut self, a: AsId, b: AsId, rel: Relationship) -> Result<(), GraphError> {
        if a == b {
            return Err(GraphError::SelfLoop { asn: a.0 });
        }
        let link = Link::new(a.0, b.0, rel, 0);
        match self.find(&link) {
            Err(slot) => {
                self.insert(slot, link);
                Ok(())
            }
            Ok(at) if self.links[at].rel() == link.rel() => Ok(()),
            Ok(at) => Err(GraphError::ConflictingRelationship {
                a: link.lo,
                b: link.hi,
                first: self.links[at].rel().name(),
                second: link.rel().name(),
            }),
        }
    }

    /// Returns whether a link between the two ASes has been declared.
    pub fn contains_link(&self, a: AsId, b: AsId) -> bool {
        let pair = Link::new(a.0, b.0, Relationship::P2p, 0).pair();
        if self.index.slots.is_empty() {
            self.links.binary_search_by_key(&pair, Link::pair).is_ok()
        } else {
            self.index.find(&self.links, pair).is_ok()
        }
    }

    /// The CAIDA reader's way in: appends a declaration without asking
    /// whether its pair is known. When the vector would grow it settles
    /// first, and grows only if that left it more than half full; the
    /// reader settles once more before it hands the builder out. `Err`
    /// only past [`MAX_UNSETTLED`] distinct links.
    pub(crate) fn append(&mut self, a: AsId, b: AsId, rel: Relationship) -> Result<(), String> {
        debug_assert!(self.index.slots.is_empty(), "the reader's builder is never indexed");
        if self.links.len() == self.links.capacity() {
            self.settle();
            let cap = self.links.capacity();
            if 2 * self.links.len() > cap || cap == 0 {
                self.links.reserve_exact(cap.max(FIRST_CAPACITY));
            }
        }
        if self.links.len() >= MAX_UNSETTLED {
            return Err(format!("more than {MAX_UNSETTLED} distinct links"));
        }
        let seq = self.links.len() as u32;
        self.links.push(Link::new(a.0, b.0, rel, seq));
        Ok(())
    }

    /// Brings appended declarations to the builder's invariant: sorted by
    /// pair, each pair's first declaration kept with its sequence number
    /// cleared, one [`RelConflict`] per later contradicting declaration,
    /// recorded in declaration order. Everything settled before was
    /// declared before the unsettled tail, and carries sequence 0, so it
    /// sorts first in its pair; the tail's sequence numbers are its
    /// positions, so the in-place unstable sort orders each pair's
    /// declarations as they were made without scratch memory.
    fn settle(&mut self) {
        self.links.sort_unstable_by_key(Link::settle_key);
        let mut later = Vec::new();
        let mut kept = 0usize;
        for at in 0..self.links.len() {
            let link = self.links[at];
            match kept.checked_sub(1).map(|k| self.links[k]) {
                Some(first) if first.pair() == link.pair() => {
                    if first.rel() != link.rel() {
                        later.push((link.tag >> 2, link.conflict(first.rel())));
                    }
                }
                _ => {
                    self.links[kept] = Link { tag: link.tag & 3, ..link };
                    kept += 1;
                }
            }
        }
        self.links.truncate(kept);
        later.sort_unstable_by_key(|&(seq, _)| seq);
        self.conflicts.extend(later.into_iter().map(|(_, c)| c));
    }

    /// The reader's last step: settles and gives back the growth room.
    pub(crate) fn finish_reading(&mut self) {
        self.settle();
        self.links.shrink_to_fit();
    }

    /// Finalizes the builder into an immutable [`AsGraph`].
    pub fn build(&self) -> AsGraph {
        // Sorted by pair: as the reader leaves the links, or a sorted copy
        // of the ones `add_link` appended.
        let sorted;
        let links = if self.links.is_sorted_by_key(Link::pair) {
            &self.links
        } else {
            let mut copy = self.links.clone();
            copy.sort_unstable_by_key(Link::pair);
            sorted = copy;
            &sorted
        };

        // The node universe: every AS mentioned by a link plus explicitly
        // declared isolated ASes, in ascending ASN order. Low endpoints
        // arrive in runs, and each run is entered once.
        let mut asns: Vec<u32> = Vec::with_capacity(links.len() + self.isolated.len());
        let mut run = None;
        for l in links {
            if run != Some(l.lo) {
                run = Some(l.lo);
                asns.push(l.lo);
            }
            asns.push(l.hi);
        }
        asns.extend_from_slice(&self.isolated);
        asns.sort_unstable();
        asns.dedup();
        asns.shrink_to_fit();

        // Map each link's endpoints to node ids once. The low endpoint
        // advances monotonically with the pairs; the high endpoint lies
        // above it and is the one search per link.
        let mut edges = Vec::with_capacity(links.len());
        let mut li = 0usize;
        for l in links {
            while asns[li] < l.lo {
                li += 1;
            }
            let above = li + 1;
            let hi_i = above + asns[above..].binary_search(&l.hi).expect("asn collected above");
            let (li, hi_i) = (NodeId(li as u32), NodeId(hi_i as u32));
            edges.push(match l.rel() {
                CanonRel::Peer => (li, hi_i, Relationship::P2p),
                CanonRel::LowProvidesHigh => (li, hi_i, Relationship::P2c),
                CanonRel::HighProvidesLow => (hi_i, li, Relationship::P2c),
            });
        }
        AsGraph::from_canonical_edges(asns, edges)
            .expect("distinct (low, high) pairs, sorted, yield canonical edges")
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
    /// The canonical edges are distinct and sorted by pair, which is the
    /// order a builder without an index keeps.
    pub fn to_builder(&self) -> AsGraphBuilder {
        let mut b = AsGraphBuilder::new();
        b.links = self.edges().map(|(x, y, rel)| Link::new(self.asn(x).0, self.asn(y).0, rel, 0)).collect();
        // Preserve isolated nodes.
        b.isolated = self.nodes().filter(|&n| self.degree(n) == 0).map(|n| self.asn(n).0).collect();
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
    fn contains_link_answers_before_and_after_the_index_exists() {
        // `to_builder` leaves the links sorted and unindexed: searched.
        let mut b = diamond().to_builder();
        assert!(b.contains_link(AsId(3), AsId(1)) && !b.contains_link(AsId(1), AsId(5)));
        // The first `add_link` indexes them; old and new answer alike.
        assert!(b.add_link(AsId(5), AsId(1), Relationship::P2c));
        assert!(!b.add_link(AsId(1), AsId(3), Relationship::P2c));
        assert!(b.contains_link(AsId(3), AsId(1)) && b.contains_link(AsId(1), AsId(5)));
        assert!(b.conflicts().is_empty());
        let g = b.build();
        assert_eq!(g.edge_count(), 7);
        assert_eq!(g.kind_between(g.index_of(AsId(5)).unwrap(), g.index_of(AsId(1)).unwrap()), Some(NeighborKind::Customer));
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
