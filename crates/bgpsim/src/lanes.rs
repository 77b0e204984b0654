//! Bit-parallel multi-origin propagation kernel with width-generic SIMD
//! lanes: 64, 128, or 256 origins per kernel block.
//!
//! Sweeps dominate every headline experiment — the same valley-free
//! propagation repeated over hundreds or thousands of origins on one
//! immutable [`AsGraph`]. The scalar engine
//! ([`crate::engine::Workspace`]) already amortizes allocation, but it
//! still walks the adjacency once *per origin*. This module packs one
//! origin per bit of a **lane vector** — `W ∈ {1, 2, 4}` `u64` words per
//! node, i.e. 64/128/256 origins per block — and runs the three
//! Gao-Rexford phases vector-wise, so a single frontier expansion
//! advances every origin in the block at once.
//!
//! ## Width selection policy
//!
//! The lane vector width is a runtime choice, not a compile-time one:
//!
//! * [`LaneWidth::Auto`] (the default everywhere) resolves to 256-bit
//!   lanes (`W = 4`, one AVX2 vector per mask op) when the CPU reports
//!   AVX2, and 128-bit lanes otherwise — two `u64` words autovectorize
//!   to one SSE2/NEON vector on every supported target.
//! * Nothing shipped overrides it: the daemons always run `Auto`.
//!   [`Simulation::lane_width`](crate::engine::Simulation::lane_width)
//!   pins a width for benchmarks and differential tests (the
//!   `benchmark/` package's 64-lane leg, `tests/engine_equiv.rs`).
//! * A sweep never runs wider than its origin count needs: the selected
//!   width is clamped so a 40-origin sweep uses one-word lanes and a
//!   100-origin sweep two-word lanes even when 256-bit lanes are
//!   selected ([`LaneWidth::words_for`]) — upper words would only add
//!   per-node memory traffic for permanently-empty lanes.
//!
//! Wide blocks win by sharing node visits between lanes: a full-reach
//! sweep walks the graph once per block instead of once per 64 origins
//! (the benchmark's `sweep` workload times both:
//! `bgpsim.kernel_dense64_ns_per_origin` and
//! `bgpsim.kernel_dense_ns_per_origin`), while sparse exclusion-heavy
//! sweeps have almost no visits to share. Lane width never changes
//! answers, so `Auto` stays the right default.
//!
//! The hot loops are straight-line word-parallel code (`for j in 0..W`
//! over fixed-size arrays) that LLVM autovectorizes for the compile
//! target's baseline; on x86-64 the whole phase runner is additionally
//! compiled a second time with the AVX2 target feature enabled and
//! dispatched at runtime ([`cpu_features`] reports what was detected),
//! so `[u64; 4]` mask ops run as single 256-bit instructions without
//! requiring `-C target-cpu=native` builds. That dispatch is the
//! crate's one `unsafe`, kept because it measures faster than the
//! portable runner (DESIGN.md § `LaneWorkspace<W>`).
//!
//! ## Bit-sliced representation
//!
//! Per node `i`, one lane vector tracks route *existence*, not distance:
//! `r[i]`, lane `k` set ⟺ node `i` holds a route of *any* class
//! (customer, peer, or provider) for lane `k`'s origin — the reach set
//! the kernel outputs — plus, until the block's end, the lanes node `i`
//! is excluded for (below).
//!
//! The peer phase needs one class more: it may export only
//! customer-learned routes (the origin's own included). Those need no
//! vector of their own. Until the peer phase, `r` is exactly the
//! customer lanes plus the excluded ones, so the customer phase runs
//! on `r` itself, and before the peer phase the customer lanes of the
//! nodes it reached (`r & !blocked`) are copied into a compact list,
//! one entry per customer-reached node — a block origin or a node with
//! a customer, at most a few hundred of tens of thousands. The scalar
//! engine's selected class and length have no lane counterpart:
//! existence-wise, a peer- or provider-learned route only ever feeds
//! the provider phase, and that phase spreads `r` itself, so any class
//! split finer than "customer vs any" carries no information the
//! kernel needs.
//!
//! `r` is a node's whole `NodeWords` struct, 8·W bytes aligned to its
//! size (8, 16 and 32 bytes at `W = 1, 2, 4`; compile-time asserted),
//! so a node never straddles a cache line and a receiver visit loads
//! one line at every width.
//!
//! The per-lane policy environment is sparse — a block's exclusions and
//! origins sit on a few hundred nodes of tens of thousands — so it
//! lives beside the node words, not in them:
//!
//! * **Exclusions are pre-filled into `r`.** Before seeding, a lane
//!   excluded at node `i` gets its `r` bit set: the shared exclusion
//!   mask sets every lane, [`LaneExcluder::exclude`] its own lane, and
//!   [`LaneExcluder::allow`] clears it again. The excluder reaches the
//!   route words through one width-free `dyn` method, so one fill
//!   closure serves every width. A receiver then needs only `send & !r`
//!   in every phase, an excluded origin's lane stays empty, and a node
//!   is saturated once `r` covers every active lane.
//! * **A side table keyed by node** holds, for each *flagged* node (one
//!   excluded for some lane or some lane's origin), its excluded lanes
//!   `blocked` and its origin marks `iso` (lane `k` set ⟺ node `i` *is*
//!   lane `k`'s origin), sorted by node and found by binary search.
//!   Three kinds of reader take it: an excluded node's sends in the
//!   customer and provider phases and its copied customer lanes, all
//!   `r & !blocked`; the block's end, which clears `r & blocked` on the
//!   flagged nodes, so `r` is the reach sets that counts and every
//!   read-out take; and the `POL = true` senders, where every
//!   origin-relative rule (`OnlyDirectFromOrigin`,
//!   `RejectDirectFromOrigin`, origin-export masks) is one AND with
//!   `iso` or its complement.
//! * **One flag byte per node** says queued, saturated, reached,
//!   excluded for some lane and origin of some lane. *Reached* decides a
//!   node's first touch, not `r != 0` — pre-filled exclusions make `r`
//!   non-zero on nodes no route reached.
//!
//! ## Reach-set-only contract
//!
//! The kernel computes **which** nodes receive a route, not *how*: no
//! distances, no selected class, no tie paths. This is sound because
//! route *existence* is a monotone closure that never needs distances —
//! under valley-free export every routed node announces its best route
//! to all its customers regardless of what that best route is, so the
//! provider phase spreads plain existence (`r`) down customer edges.
//! Consumers that need per-origin selections, next-hop DAGs, or tie
//! information must use the scalar [`crate::engine::Workspace`]; the
//! differential test in `tests/engine_equiv.rs` pins the kernel's reach
//! words bit-identical to per-origin workspace runs at every width.
//!
//! ## Phase equivalence (vs the scalar engine)
//!
//! Every phase admits a route through one receiver rule, the lane
//! counterpart of the scalar engine's import check: a lane enters a
//! receiver where `send & !r` — where it holds no route yet (a route
//! of any class makes a later one add nothing reach-wise) and the lane
//! is not excluded; the scalar guard `sel[p] == UNREACHED` becomes
//! `& !r[p]`, and an origin's own bit refuses re-entry like its
//! selection word 0 — then, under `POL = true`, where the receiver's
//! import policy and the origin-export mask allow it, each one AND
//! with the sender's origin marks `iso` or their complement. The phases
//! differ only in whom they send to and what they record after a
//! receiver takes a bit.
//!
//! 1. **Customer phase** — BFS up provider edges on `r`: a sender
//!    sends `r & !blocked`, its customer lanes, since until the peer
//!    phase `r` is exactly those plus the excluded lanes.
//! 2. **Peer phase** — the customer lanes of the customer-reached nodes
//!    are copied out first (`r & !blocked`, in reach order), since a
//!    peer route this phase adds to a sender's `r` must not be exported
//!    to its other peers. Then one relaxation over that list.
//! 3. **Provider phase** — closure down customer edges seeded from every
//!    routed node, each sending `r & !blocked`. The scalar engine's
//!    distance ordering (bucket queue) only affects *which* provider
//!    route wins, never *whether* a node is reached, so the unordered
//!    fixpoint reaches the identical set.
//!
//! All phases only ever OR bits in, so the fixpoint is unique and the
//! result is deterministic regardless of frontier order, thread count,
//! or lane width.
//!
//! The one way in is [`Simulation::sweep`](crate::engine::Simulation::sweep):
//! origins are chunked into `64 × W`-lane blocks and the blocks fan out
//! over [`crate::parallel`], one [`LaneWorkspace`] per worker, checked
//! out of the topology's per-width pool (`crate::scratch`), so a warm
//! sweep allocates only its own bookkeeping (pinned by the
//! counting-allocator smoke in `tests/engine_equiv.rs`). A block's reach
//! sets leave it straight from the node-major `r` words, into what the
//! sweep's [`Keep`](crate::engine::Keep) read-out keeps — a reach
//! bitset's own `Vec` through the 64×64 transpose, a [`ReachSet`] in its
//! final form or a lane's reached share through one pass over the nodes
//! — so no workspace holds a lane-major copy of a block.

use crate::propagate::{metrics, ImportPolicy, PropagationConfig};
use crate::reachset::{ReachForm, ReachSet};
use crate::scratch::{cap_bytes, Pool, Scratch};
use flatnet_asgraph::{AsGraph, NodeId};

/// Origins per lane *word*: one bit lane per origin per `u64`.
pub const LANES: usize = 64;

/// Widest supported lane vector, in `u64` words (256 lanes).
pub const MAX_LANE_WORDS: usize = 4;

/// Origins per kernel block at the widest supported lane width.
pub const MAX_LANES: usize = LANES * MAX_LANE_WORDS;

/// Runtime-selectable kernel lane width (origins per kernel block).
///
/// What [`Simulation::lane_width`](crate::engine::Simulation::lane_width)
/// accepts; see the [module docs](self) for the selection policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LaneWidth {
    /// Pick the widest width the CPU runs well: 256 lanes when AVX2 is
    /// detected, 128 otherwise (one SSE2/NEON vector per mask op).
    #[default]
    Auto,
    /// One `u64` word per node — 64 origins per block.
    W64,
    /// Two words (128-bit lanes) — 128 origins per block.
    W128,
    /// Four words (256-bit lanes, one AVX2 vector) — 256 origins per block.
    W256,
}

impl LaneWidth {
    /// Lane words per node at this width; `Auto` resolves via
    /// [`detected_lane_words`].
    pub fn words(self) -> usize {
        match self {
            LaneWidth::Auto => detected_lane_words(),
            LaneWidth::W64 => 1,
            LaneWidth::W128 => 2,
            LaneWidth::W256 => 4,
        }
    }

    /// Origins per kernel block at this width (`Auto` resolved).
    pub fn lanes(self) -> usize {
        LANES * self.words()
    }

    /// Lane words actually used for a sweep of `n_origins`: the selected
    /// (or detected) width, clamped down when a narrower width already
    /// fits every origin in one block — upper words would only add
    /// per-node memory traffic for permanently-empty lanes.
    pub fn words_for(self, n_origins: usize) -> usize {
        let need = match n_origins.div_ceil(LANES) {
            0 | 1 => 1,
            2 => 2,
            _ => MAX_LANE_WORDS,
        };
        self.words().min(need)
    }
}

/// Lane words per node that [`LaneWidth::Auto`] resolves to on this CPU:
/// 4 (256-bit lanes) when AVX2 is available, else 2 (one SSE2/NEON
/// vector).
pub fn detected_lane_words() -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            4
        } else {
            2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        2
    }
}

/// Whether a block of two or more lane words takes the AVX2 phase
/// runner: where the CPU reports AVX2, unless a test has sent this
/// thread's blocks to the portable runner to compare the two.
#[cfg(target_arch = "x86_64")]
fn takes_avx2() -> bool {
    #[cfg(test)]
    if tests::PORTABLE_ONLY.get() {
        return false;
    }
    std::arch::is_x86_feature_detected!("avx2")
}

/// SIMD features relevant to the kernel, as detected at runtime.
/// Printed in the benchmark's header so figures measured on different
/// machines are comparable.
pub fn cpu_features() -> Vec<&'static str> {
    #[allow(unused_mut)]
    let mut f: Vec<&'static str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        f.push("sse2");
        if std::arch::is_x86_feature_detected!("avx2") {
            f.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            f.push("avx512f");
        }
        if std::arch::is_x86_feature_detected!("avx512vpopcntdq") {
            f.push("avx512vpopcntdq");
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            f.push("neon");
        }
    }
    f
}

/// Zero-sized 16-byte-alignment marker (see [`LaneArity`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(align(16))]
pub struct Align16;

/// Zero-sized 32-byte-alignment marker (see [`LaneArity`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(align(32))]
pub struct Align32;

/// Ties a supported lane width to its node words' alignment, which is
/// the node's own size — 8, 16 and 32 bytes at `W = 1, 2, 4` — so a
/// node never straddles a cache line (eight, four and two per line).
/// One `u64` is 8-byte aligned already; the wider widths take a marker.
/// Implemented for [`Lanes<1>`], [`Lanes<2>`], and [`Lanes<4>`] only —
/// the width set the kernel supports.
pub trait LaneArity {
    /// Zero-sized alignment marker embedded in a node's route words.
    type Align: Copy + Clone + std::fmt::Debug + Default + PartialEq + Eq + Send + Sync;
}

/// Width-selector type: `Lanes<W>` implements [`LaneArity`] for each
/// supported lane width `W ∈ {1, 2, 4}`, which is how width-generic code
/// states "W is a supported width" as a bound.
#[derive(Clone, Copy, Debug)]
pub struct Lanes<const W: usize>;

impl LaneArity for Lanes<1> {
    type Align = u64;
}
impl LaneArity for Lanes<2> {
    type Align = Align16;
}
impl LaneArity for Lanes<4> {
    type Align = Align32;
}

/// One node's route lanes, aligned to their size (see [`LaneArity`]) so
/// a frontier edge inspects one cache line per receiver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct NodeWords<const W: usize>
where
    Lanes<W>: LaneArity,
{
    _align: [<Lanes<W> as LaneArity>::Align; 0],
    /// Any-class route lanes — the reach set the kernel outputs — with
    /// the node's excluded lanes pre-filled until the output is read.
    r: [u64; W],
}

impl<const W: usize> Default for NodeWords<W>
where
    Lanes<W>: LaneArity,
{
    fn default() -> Self {
        NodeWords { _align: [], r: [0; W] }
    }
}

// A node's lane vector must never straddle cache lines: each width's
// node is as large as its alignment (8, 16, 32 bytes), so eight, four or
// two fill a line exactly. Checked at compile time so a field addition
// or width addition cannot silently regress the kernel's memory layout.
const _: () = {
    assert!(std::mem::size_of::<NodeWords<1>>() == 8);
    assert!(std::mem::align_of::<NodeWords<1>>() == 8);
    assert!(std::mem::size_of::<NodeWords<2>>() == 16);
    assert!(std::mem::align_of::<NodeWords<2>>() == 16);
    assert!(std::mem::size_of::<NodeWords<4>>() == 32);
    assert!(std::mem::align_of::<NodeWords<4>>() == 32);
};

/// A flagged node's policy lanes, in the side table beside the node
/// words (see the [module docs](self)).
#[derive(Clone, Copy, Debug)]
struct Side<const W: usize> {
    /// The lanes the node is excluded for.
    blocked: [u64; W],
    /// The lanes the node is the origin of.
    iso: [u64; W],
}

/// Node flag: on the current or the next frontier.
const QUEUED: u8 = 1;
/// Node flag: `r` covers every active lane, so no receiver check can
/// add a bit. Receiver visits in the peer and provider phases skip the
/// node on a one-byte read instead of loading its `NodeWords` — in
/// dense sweeps most late-round edge visits hit saturated receivers.
const SAT: u8 = 2;
/// Node flag: holds a real route bit, so it is on the `touched` list.
const REACHED: u8 = 4;
/// Node flag: excluded for some lane (a side-table entry).
const EXCLUDED: u8 = 8;
/// Node flag: some lane's origin (a side-table entry).
const ORIGIN: u8 = 16;

/// Sets `bit` in node `i`'s flags, entering `i` on the side table's
/// key list the first time it is flagged excluded or origin.
#[inline]
fn flag(flags: &mut [u8], flagged: &mut Vec<u32>, i: u32, bit: u8) {
    let f = &mut flags[i as usize];
    if *f & (EXCLUDED | ORIGIN) == 0 {
        flagged.push(i);
    }
    *f |= bit;
}

/// OR-reduction of a lane vector — zero iff no lane is set.
#[inline(always)]
fn or_all<const W: usize>(a: &[u64; W]) -> u64 {
    let mut x = 0u64;
    for &w in a.iter() {
        x |= w;
    }
    x
}

/// A block's route words behind one width-free method, so one
/// [`LaneExcluder`] type (and every fill closure written against it)
/// drives every lane width.
trait LaneWords: std::fmt::Debug {
    /// Lane word `word` of node `node`'s route lanes.
    fn lane_word(&mut self, node: usize, word: usize) -> &mut u64;
}

impl<const W: usize> LaneWords for Vec<NodeWords<W>>
where
    Lanes<W>: LaneArity,
{
    #[inline]
    fn lane_word(&mut self, node: usize, word: usize) -> &mut u64 {
        &mut self[node].r[word]
    }
}

/// Per-lane exclusion writer handed to the fill callback of
/// [`Simulation::sweep`](crate::engine::Simulation::sweep):
/// marks nodes as excluded *for the current origin's lane only*, the
/// word-parallel replacement for refilling a `Vec<bool>` mask per
/// origin. Width-erased: it writes the block's route words through a
/// `dyn` reference — a few calls a lane, against a block's whole
/// propagation — so the same fill closure drives 64-, 128-, and 256-lane
/// blocks.
#[derive(Debug)]
pub struct LaneExcluder<'w> {
    words: &'w mut dyn LaneWords,
    flags: &'w mut [u8],
    flagged: &'w mut Vec<u32>,
    /// Lane word holding this origin's bit.
    word: usize,
    /// This origin's bit within that word.
    bit: u64,
}

impl LaneExcluder<'_> {
    /// Excludes `node` for this lane's origin (like setting its bit in a
    /// scalar exclusion mask). Excluding the origin itself makes the
    /// lane empty, matching the scalar engine's excluded-origin outcome;
    /// use [`LaneExcluder::allow`] to carve the origin back out of a
    /// blanket exclusion.
    #[inline]
    pub fn exclude(&mut self, node: NodeId) {
        flag(self.flags, self.flagged, node.0, EXCLUDED);
        *self.words.lane_word(node.idx(), self.word) |= self.bit;
    }

    /// Clears `node`'s exclusion for this lane (the mirror of the scalar
    /// sweeps' `mask[origin] = false` after a blanket tier fill).
    #[inline]
    pub fn allow(&mut self, node: NodeId) {
        *self.words.lane_word(node.idx(), self.word) &= !self.bit;
    }
}

/// Reusable state for the bit-parallel kernel at lane width `W` words
/// (64·W origins per block): the per-node route lanes, which a
/// [`LaneExcluder`] pre-fills whatever `W`, and flags, the side table,
/// the customer-lane list and the frontier queues. Nothing is
/// lane-major: a block's reach sets are read straight off its
/// node-major route words. Pooled on the topology, one per sweep
/// worker, and run through [`Simulation::sweep`](crate::engine::Simulation::sweep)
/// alone: after the first block of a shape a run performs no heap
/// allocation. Named in the [`Keep`](crate::engine::Keep) read-outs'
/// signatures, not constructible outside the crate.
#[derive(Debug)]
pub struct LaneWorkspace<const W: usize>
where
    Lanes<W>: LaneArity,
{
    /// Per-node route lanes.
    words: Vec<NodeWords<W>>,
    /// Per-node flag bits: `QUEUED`, `SAT`, `REACHED`, `EXCLUDED`,
    /// `ORIGIN`.
    flags: Vec<u8>,
    /// Nodes with a real route bit: the undo list for O(reached)
    /// resets, the peer phase's senders and the provider phase's seed.
    touched: Vec<u32>,
    /// Nodes flagged `EXCLUDED` or `ORIGIN`, sorted once the fills are
    /// in: the side table's keys, and its undo list.
    flagged: Vec<u32>,
    /// `flagged[t]`'s policy lanes at `side[t]`.
    side: Vec<Side<W>>,
    /// As the customer phase left them, `touched[t]`'s customer lanes at
    /// `cust[t]`, for every customer-reached node: what the peer phase
    /// sends. Each is a
    /// block origin or has a customer, so the capacity set when the
    /// workspace is sized, (nodes with a customer) + 64·W, is never
    /// outgrown on that topology.
    cust: Vec<[u64; W]>,
    frontier: Vec<u32>,
    next: Vec<u32>,
    /// Bitmask of the current block's active lanes (lane `k` set iff
    /// `k < block_len`), the saturation reference.
    lane_mask: [u64; W],
    /// Raw per-lane reach popcounts (origin bit included). Sized for the
    /// widest width so the array (1 KiB) needs no const-generic length
    /// arithmetic; only the first `64·W` entries are ever set.
    counts: [u32; MAX_LANES],
    /// Origins of the most recent block, in lane order.
    block_len: usize,
    n: usize,
}

impl<const W: usize> LaneWorkspace<W>
where
    Lanes<W>: LaneArity,
{
    /// Origins per kernel block at this workspace's width.
    pub(crate) const BLOCK_LANES: usize = LANES * W;

    /// An empty workspace; buffers are sized on first use.
    pub(crate) fn new() -> Self {
        LaneWorkspace {
            words: Vec::new(),
            flags: Vec::new(),
            touched: Vec::new(),
            flagged: Vec::new(),
            side: Vec::new(),
            cust: Vec::new(),
            frontier: Vec::new(),
            next: Vec::new(),
            lane_mask: [0; W],
            counts: [0; MAX_LANES],
            block_len: 0,
            n: 0,
        }
    }

    /// A workspace pre-sized for `g`: the per-node lanes, flags and
    /// lists are allocated up front.
    pub(crate) fn for_snapshot(g: &AsGraph) -> Self {
        let mut ws = Self::new();
        ws.begin(g);
        ws.block_len = 0;
        ws
    }

    /// Words in one lane's reach bitset (`n.div_ceil(64)`).
    #[inline]
    fn words_per(&self) -> usize {
        self.n.div_ceil(64)
    }

    /// Origins of the block in lane word `j`.
    #[inline]
    fn lanes_in(&self, j: usize) -> usize {
        self.block_len.saturating_sub(j * 64).min(64)
    }

    /// Sizes the buffers for `g` and clears the previous block's
    /// writes. Same-size resets undo via the touched and flagged lists,
    /// so for a fixed topology a reset is O(previously reached), not
    /// O(n).
    fn begin(&mut self, g: &AsGraph) {
        let n = g.len();
        if self.words.len() == n {
            // Every node with a lane bit or a flag set sits on one of
            // these two lists — queued and saturated nodes are reached,
            // even when a panic cut the last block short — so the reset
            // stays O(reached).
            for &i in self.touched.iter().chain(&self.flagged) {
                self.words[i as usize] = NodeWords::default();
                self.flags[i as usize] = 0;
            }
        } else {
            self.words.clear();
            self.words.resize(n, NodeWords::default());
            self.flags.clear();
            self.flags.resize(n, 0);
            // A node enters each of these lists at most once per block, so
            // sized to the graph here they never grow during a run.
            for list in [&mut self.touched, &mut self.frontier, &mut self.next] {
                *list = Vec::with_capacity(n);
            }
            let providers = g.nodes().filter(|&u| !g.customers(u).is_empty()).count();
            self.cust = Vec::with_capacity(providers + Self::BLOCK_LANES);
        }
        for list in [&mut self.touched, &mut self.flagged, &mut self.frontier, &mut self.next] {
            list.clear();
        }
        self.cust.clear();
        self.n = n;
        self.counts = [0; MAX_LANES];
    }

    /// Index of flagged node `i`'s side-table entry.
    #[inline]
    fn side_index(&self, i: u32) -> usize {
        match self.flagged.binary_search(&i) {
            Ok(t) => t,
            Err(_) => unreachable!("node {i} is flagged but has no side entry"),
        }
    }

    /// Number of origins in the most recent block.
    pub(crate) fn block_len(&self) -> usize {
        self.block_len
    }

    /// Heap bytes this workspace holds, every buffer at capacity.
    pub(crate) fn heap_bytes(&self) -> usize {
        let lists = [&self.touched, &self.flagged, &self.frontier, &self.next];
        lists.into_iter().map(cap_bytes).sum::<usize>()
            + cap_bytes(&self.words)
            + cap_bytes(&self.flags)
            + cap_bytes(&self.side)
            + cap_bytes(&self.cust)
    }

    /// The block kernel: runs up to `64·W` origins over `g` under
    /// `cfg`, `fill` installing each lane's exclusions through the
    /// [`LaneExcluder`] on top of `cfg`'s shared mask. Afterwards the
    /// node-major `r` words hold exactly the block's reach sets, and
    /// nothing else is left of it. The counts are not taken yet — each
    /// read-out takes them on its own pass over the words:
    /// [`Self::count`], [`Self::emit_words`], [`Self::emit_reach_sets`]
    /// or [`Self::emit_fractions`].
    pub(crate) fn run_block(
        &mut self,
        g: &AsGraph,
        origins: &[NodeId],
        cfg: &PropagationConfig,
        mut fill: impl FnMut(NodeId, &mut LaneExcluder<'_>),
    ) {
        assert!(
            origins.len() <= Self::BLOCK_LANES,
            "a {}-lane kernel block holds at most {} origins",
            Self::BLOCK_LANES,
            Self::BLOCK_LANES
        );
        let n = g.len();
        let obs = metrics();
        obs.runs.add(origins.len() as u64);
        obs.kernel_blocks.inc();
        let started = std::time::Instant::now();
        self.begin(g);
        self.block_len = origins.len();
        if n == 0 || origins.is_empty() {
            return;
        }
        for j in 0..W {
            let lanes_here = origins.len().saturating_sub(j * 64).min(64);
            self.lane_mask[j] = match lanes_here {
                0 => 0,
                64 => !0,
                l => (1u64 << l) - 1,
            };
        }
        let pol = cfg.view();

        // Pre-fill the exclusions into `r`: the shared mask's for every
        // lane, then each origin's own.
        if let Some(mask) = pol.excluded {
            for (i, &ex) in mask.iter().enumerate() {
                if ex {
                    flag(&mut self.flags, &mut self.flagged, i as u32, EXCLUDED);
                    self.words[i].r = self.lane_mask;
                }
            }
        }
        for (k, &o) in origins.iter().enumerate() {
            flag(&mut self.flags, &mut self.flagged, o.0, ORIGIN);
            let mut ex = LaneExcluder {
                words: &mut self.words,
                flags: &mut self.flags,
                flagged: &mut self.flagged,
                word: k >> 6,
                bit: 1u64 << (k & 63),
            };
            fill(o, &mut ex);
        }
        // The side table: until seeding, a node's `r` is exactly its
        // excluded lanes.
        self.flagged.sort_unstable();
        self.side.clear();
        self.side.reserve_exact(self.flagged.len());
        for &i in &self.flagged {
            self.side.push(Side { blocked: self.words[i as usize].r, iso: [0; W] });
        }
        // Seed: each origin gets its customer-class bit (the scalar
        // engine's `sel[origin] = pack(Customer, 0)`) unless its own lane is excluded
        // there, which leaves the lane empty — the scalar empty outcome.
        for (k, &o) in origins.iter().enumerate() {
            let (word, bit) = (k >> 6, 1u64 << (k & 63));
            let t = self.side_index(o.0);
            self.side[t].iso[word] |= bit;
            let oi = o.idx();
            if self.words[oi].r[word] & bit != 0 {
                continue;
            }
            self.words[oi].r[word] |= bit;
            let f = self.flags[oi];
            if f & REACHED == 0 {
                self.touched.push(o.0);
            }
            if f & QUEUED == 0 {
                self.frontier.push(o.0);
            }
            self.flags[oi] = f | REACHED | QUEUED;
        }

        // Sweep workloads (mask-only policies) take the specialized path
        // where the per-edge policy checks compile out entirely.
        let rounds = if pol.import.is_none() && pol.origin_export.is_none() {
            self.dispatch_phases::<false>(g, None, None)
        } else {
            self.dispatch_phases::<true>(g, pol.import, pol.origin_export)
        };
        obs.kernel_rounds.add(rounds);

        // The excluded lanes leave `r`: from here on it holds exactly
        // the block's reach sets.
        for (t, &i) in self.flagged.iter().enumerate() {
            let blocked = self.side[t].blocked;
            let r = &mut self.words[i as usize].r;
            for (w, b) in r.iter_mut().zip(blocked) {
                *w &= !b;
            }
        }
        obs.kernel_block_us.record_us(started.elapsed().as_micros() as u64);
    }

    /// Takes the per-lane counts off the finished block's `r` words.
    /// Sparse reach sets skip the transpose: iterating the set bits of
    /// the touched nodes costs one step per (origin, node) reach pair,
    /// which beats the fixed ~8-ops-per-word-per-node transpose until
    /// the block is about 1/8 full.
    pub(crate) fn count(&mut self) {
        let mut counts = [0u32; MAX_LANES];
        let mut bits = 0u64;
        for &i in &self.touched {
            for &w in self.words[i as usize].r.iter() {
                bits += w.count_ones() as u64;
            }
        }
        if (bits as usize) < 8 * self.n * W {
            for &i in &self.touched {
                for (j, &word) in self.words[i as usize].r.iter().enumerate() {
                    let mut w = word;
                    while w != 0 {
                        counts[j * 64 + w.trailing_zeros() as usize] += 1;
                        w &= w - 1;
                    }
                }
            }
        } else {
            let mut buf = [0u64; 64];
            for nodes in self.groups() {
                for j in (0..W).take_while(|&j| self.lanes_in(j) > 0) {
                    if self.group_lanes(nodes, j, &mut buf) {
                        for (k, &w) in buf[..self.lanes_in(j)].iter().enumerate() {
                            counts[j * 64 + k] += w.count_ones();
                        }
                    }
                }
            }
        }
        self.counts = counts;
    }

    /// The route words of the block's nodes in groups of 64 (group `gb`
    /// holds nodes `64·gb ..`; the last may be short).
    #[inline]
    fn groups(&self) -> std::slice::Chunks<'_, NodeWords<W>> {
        self.words[..self.n].chunks(64)
    }

    /// Copies lane word `j` of a group's `nodes` into `buf`, node-major,
    /// zero past the last node, and says whether the group's reach words
    /// in that lane word are uniform.
    #[inline]
    fn load_group(&self, nodes: &[NodeWords<W>], j: usize, buf: &mut [u64; 64]) -> Group {
        let (mut any, mut all) = (0, !0);
        for (b, w) in buf.iter_mut().zip(nodes) {
            *b = w.r[j];
            any |= *b;
            all &= *b;
        }
        buf[nodes.len()..].fill(0);
        if any == 0 {
            Group::Empty
        } else if all & self.lane_mask[j] == self.lane_mask[j] {
            Group::Full(u64::MAX >> (64 - nodes.len()))
        } else {
            Group::Mixed
        }
    }

    /// Lane word `j` of a group's reach words, lane-major: afterwards
    /// `buf[k]` is lane `64·j + k`'s word for the group's `nodes` (bit
    /// = node − 64·gb, zero past the last node) — one 64×64 transpose,
    /// unless the group is uniform in that word. Returns whether any
    /// lane reaches any node of the group.
    #[inline]
    fn group_lanes(&self, nodes: &[NodeWords<W>], j: usize, buf: &mut [u64; 64]) -> bool {
        let group = self.load_group(nodes, j, buf);
        group.to_lanes(buf);
        group != Group::Empty
    }

    /// Routes a block to the widest phase runner the CPU supports: on
    /// x86-64 with AVX2, the phase loops are recompiled with 256-bit
    /// vectors enabled ([`Self::run_phases_avx2`]); everywhere else the
    /// portable build's autovectorization applies.
    #[inline]
    fn dispatch_phases<const POL: bool>(
        &mut self,
        g: &AsGraph,
        imp: Option<&[ImportPolicy]>,
        oe: Option<&[bool]>,
    ) -> u64 {
        #[cfg(target_arch = "x86_64")]
        if W >= 2 && takes_avx2() {
            // SAFETY: `takes_avx2` is true only where the CPU reports
            // AVX2 at runtime; the callee is the portable function
            // recompiled, so the target feature is all that calling it
            // requires. The portable runner measures 7–8 % slower, so
            // the block stays (DESIGN.md § `LaneWorkspace<W>`).
            #[allow(unsafe_code)] // the crate's one `unsafe`
            return unsafe { self.run_phases_avx2::<POL>(g, imp, oe) };
        }
        self.run_phases::<POL>(g, imp, oe)
    }

    /// [`Self::run_phases`] compiled with the AVX2 target feature: the
    /// same portable code, its `[u64; W]` mask ops 256-bit vector
    /// instructions without a `-C target-cpu` build flag.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn run_phases_avx2<const POL: bool>(
        &mut self,
        g: &AsGraph,
        imp: Option<&[ImportPolicy]>,
        oe: Option<&[bool]>,
    ) -> u64 {
        self.run_phases::<POL>(g, imp, oe)
    }

    /// The three Gao-Rexford phases, lane-vector-wise. Monomorphized
    /// twice per width: `POL = false` is the fast path for mask-only
    /// sweeps (`imp` and `oe` must be `None`) where every per-edge
    /// policy branch, and with it every origin-mark lookup, compiles
    /// out; `POL = true` keeps [`Self::admitted`]'s policy half.
    /// Every mask op is a straight-line `for j in 0..W` loop over
    /// fixed-size arrays — the shape LLVM autovectorizes — and the whole
    /// function is additionally compiled under the AVX2 target feature
    /// (see [`Self::dispatch_phases`]). Returns the number of BFS rounds
    /// for the kernel-rounds counter.
    // The indexed `for j in 0..W` loops are the point: every lane array
    // is walked in lockstep by one counter, the exact shape LLVM turns
    // into single vector ops. Iterator zips obscure that contract.
    #[allow(clippy::needless_range_loop)]
    #[inline(always)]
    fn run_phases<const POL: bool>(
        &mut self,
        g: &AsGraph,
        imp: Option<&[ImportPolicy]>,
        oe: Option<&[bool]>,
    ) -> u64 {
        let mut rounds = 0u64;

        // Phase 1: customer routes spread up provider edges (word BFS).
        // Until phase 2, `r` is exactly the customer lanes plus the
        // excluded ones, so a sender's customer lanes are `r & !blocked`:
        // non-zero, since a node is queued only on gaining a route bit.
        while !self.frontier.is_empty() {
            rounds += 1;
            self.next.clear();
            for f in 0..self.frontier.len() {
                let u = self.frontier[f];
                let ui = u as usize;
                let fu = self.flags[ui] & !QUEUED;
                self.flags[ui] = fu;
                let (send, iso_u) = self.sends::<POL>(u, fu);
                for &NodeId(pi) in g.providers(NodeId(u)) {
                    let pu = pi as usize;
                    // Borrow the receiver in place: a by-value copy here
                    // would move 8*W bytes per edge visit, which at wide
                    // widths costs more than the mask algebra itself.
                    let wp = &mut self.words[pu];
                    let add = Self::admitted::<POL>(&send, &iso_u, &wp.r, pu, imp, oe);
                    if or_all(&add) == 0 {
                        continue;
                    }
                    // No saturation bookkeeping here: phase-1 receivers
                    // are guarded by `r` without consulting `SAT`, and
                    // phases 2/3 refresh the flag on their own updates.
                    // Keeping phase 1 lean matters for sparse
                    // exclusion-heavy sweeps where it does most adds.
                    for j in 0..W {
                        wp.r[j] |= add[j];
                    }
                    let fp = self.flags[pu];
                    if fp & REACHED == 0 {
                        self.touched.push(pi);
                    }
                    if fp & QUEUED == 0 {
                        self.next.push(pi);
                    }
                    self.flags[pu] = fp | REACHED | QUEUED;
                }
            }
            std::mem::swap(&mut self.frontier, &mut self.next);
        }
        let customer_reached = self.touched.len();

        // The customer lanes of every customer-reached node, copied out
        // before phase 2 adds peer routes to `r`: those must not reach
        // the sender's other peers.
        for t in 0..customer_reached {
            let v = self.touched[t];
            let send = self.sends::<false>(v, self.flags[v as usize]).0;
            self.cust.push(send);
        }

        // Phase 2: peers export customer routes — a single relaxation
        // over the customer-reached set (p2p adjacency is symmetric, so
        // sender→peers visits every pair the receiver scan would).
        for t in 0..customer_reached {
            let v = self.touched[t];
            let send = self.cust[t];
            let iso_v =
                if POL && self.flags[v as usize] & ORIGIN != 0 { self.side[self.side_index(v)].iso } else { [0; W] };
            for &NodeId(ui) in g.peers(NodeId(v)) {
                let uu = ui as usize;
                // Saturated receivers can never take another bit; the
                // one-byte flag spares the struct load.
                let fu = self.flags[uu];
                if fu & SAT != 0 {
                    continue;
                }
                // `!r` also refuses an origin its own lane: it holds
                // that bit, seeded or pre-filled.
                let wu = &mut self.words[uu];
                let add = Self::admitted::<POL>(&send, &iso_v, &wu.r, uu, imp, oe);
                if or_all(&add) == 0 {
                    continue;
                }
                if fu & REACHED == 0 {
                    self.touched.push(ui);
                }
                let mut full = true;
                for j in 0..W {
                    wu.r[j] |= add[j];
                    full &= wu.r[j] & self.lane_mask[j] == self.lane_mask[j];
                }
                self.flags[uu] = fu | REACHED | if full { SAT } else { 0 };
            }
        }

        // Phase 3: every routed node exports its (selected) route to its
        // customers; existence-wise that is the closure of `r`
        // down customer edges, seeded from everything routed so far.
        self.frontier.clear();
        for t in 0..self.touched.len() {
            let u = self.touched[t];
            self.flags[u as usize] |= QUEUED;
            self.frontier.push(u);
        }
        while !self.frontier.is_empty() {
            rounds += 1;
            self.next.clear();
            for f in 0..self.frontier.len() {
                let u = self.frontier[f];
                let ui = u as usize;
                let fu = self.flags[ui] & !QUEUED;
                self.flags[ui] = fu;
                // Never empty: the node holds a real route bit.
                let (send, iso_u) = self.sends::<POL>(u, fu);
                for &NodeId(xi) in g.customers(NodeId(u)) {
                    let xu = xi as usize;
                    // Same one-byte skip as the peer phase: in dense
                    // sweeps most late-round visits land on saturated
                    // nodes.
                    let fx = self.flags[xu];
                    if fx & SAT != 0 {
                        continue;
                    }
                    let wx = &mut self.words[xu];
                    let add = Self::admitted::<POL>(&send, &iso_u, &wx.r, xu, imp, oe);
                    if or_all(&add) == 0 {
                        continue;
                    }
                    if fx & REACHED == 0 {
                        self.touched.push(xi);
                    }
                    if fx & QUEUED == 0 {
                        self.next.push(xi);
                    }
                    let mut full = true;
                    for j in 0..W {
                        wx.r[j] |= add[j];
                        full &= wx.r[j] & self.lane_mask[j] == self.lane_mask[j];
                    }
                    self.flags[xu] = fx | REACHED | QUEUED | if full { SAT } else { 0 };
                }
            }
            std::mem::swap(&mut self.frontier, &mut self.next);
        }
        rounds
    }

    /// The lanes `receiver`, holding `r`, takes from a sender that sends
    /// `send` and is the origin of the lanes `iso`: the lane counterpart
    /// of the scalar engine's `PolicyView::import_ok`, the one receiver
    /// rule of all three phases. A lane enters only where the receiver
    /// holds no bit yet — `!r` also refuses an excluded lane, pre-filled
    /// there, and an origin its own lane — and, under `POL`, where the
    /// receiver's import policy and the origin-export mask let a route
    /// in: both are origin-relative, so each is one AND with `iso` or its
    /// complement. The empty test comes before any policy lookup, and
    /// under `POL = false` the policy code compiles out.
    #[allow(clippy::needless_range_loop)]
    #[inline(always)]
    fn admitted<const POL: bool>(
        send: &[u64; W],
        iso: &[u64; W],
        r: &[u64; W],
        receiver: usize,
        imp: Option<&[ImportPolicy]>,
        oe: Option<&[bool]>,
    ) -> [u64; W] {
        let mut add = [0u64; W];
        for j in 0..W {
            add[j] = send[j] & !r[j];
        }
        if !POL || or_all(&add) == 0 {
            return add;
        }
        if let Some(imp) = imp {
            match imp[receiver] {
                ImportPolicy::Normal => {}
                ImportPolicy::Never => return [0; W],
                ImportPolicy::OnlyDirectFromOrigin => {
                    for j in 0..W {
                        add[j] &= iso[j];
                    }
                }
                ImportPolicy::RejectDirectFromOrigin => {
                    for j in 0..W {
                        add[j] &= !iso[j];
                    }
                }
            }
        }
        if let Some(m) = oe {
            if !m[receiver] {
                for j in 0..W {
                    add[j] &= !iso[j];
                }
            }
        }
        add
    }

    /// What node `u`, flagged `fu`, sends: its route lanes minus the
    /// lanes it is excluded for (pre-filled in `r`, kept in its side
    /// entry), and under `POL` its origin marks. Only a flagged sender
    /// looks its side entry up, and under `POL = false` only an excluded
    /// one.
    #[allow(clippy::needless_range_loop)]
    #[inline(always)]
    fn sends<const POL: bool>(&self, u: u32, fu: u8) -> ([u64; W], [u64; W]) {
        let mut send = self.words[u as usize].r;
        let mut iso = [0u64; W];
        if fu & EXCLUDED != 0 || (POL && fu & ORIGIN != 0) {
            let side = self.side[self.side_index(u)];
            for j in 0..W {
                send[j] &= !side.blocked[j];
            }
            iso = side.iso;
        }
        (send, iso)
    }

    /// Appends each lane's reach bitset of the block [`Self::run_block`]
    /// left to `sets`, in lane order, in the layout of
    /// [`RoutingOutcome::reach_words`](crate::RoutingOutcome::reach_words)
    /// (bit = node index, origin bit set, tail bits zero), and takes the
    /// counts off the same transposes: each lane's words go straight
    /// into that lane's own `Vec`.
    pub(crate) fn emit_words(&mut self, sets: &mut Vec<Vec<u64>>) {
        let mut counts = [0u32; MAX_LANES];
        let start = sets.len();
        sets.extend((0..self.block_len).map(|_| vec![0; self.words_per()]));
        let lanes = &mut sets[start..];
        let mut buf = [0u64; 64];
        for (gb, nodes) in self.groups().enumerate() {
            for j in (0..W).take_while(|&j| self.lanes_in(j) > 0) {
                if self.group_lanes(nodes, j, &mut buf) {
                    let word = j * 64..j * 64 + self.lanes_in(j);
                    for ((lane, count), w) in lanes[word.clone()].iter_mut().zip(&mut counts[word]).zip(buf) {
                        lane[gb] = w;
                        *count += w.count_ones();
                    }
                }
            }
        }
        self.counts = counts;
    }

    /// Appends each lane's reach set of the block [`Self::run_block`]
    /// left to `sets`, in lane order, encoded as [`ReachSet::from_words`]
    /// would encode its bitset. The counts are taken first
    /// ([`Self::count`]), each lane's form is decided from its count
    /// ([`ReachForm::of`]) and its storage allocated at exactly its
    /// length; then one ascending pass over the nodes pushes each node
    /// onto the index lists that name it — an `Except` lane's through a
    /// flip of its bit, so a node it misses is pushed — and transposes
    /// the node groups that `Bits` lanes need.
    pub(crate) fn emit_reach_sets(&mut self, sets: &mut Vec<ReachSet>) {
        self.count();
        let (n, words_per) = (self.n, self.words_per());
        let forms: Vec<ReachForm> =
            self.counts[..self.block_len].iter().map(|&c| ReachForm::of(c as usize, n)).collect();
        // Per lane word: the lanes kept by index list, those of them
        // that list missing nodes, and the lanes kept as bits.
        let (mut listed, mut flip, mut bitsets) = ([0u64; W], [0u64; W], [0u64; W]);
        let mut lists: Vec<Vec<u32>> = Vec::with_capacity(forms.len());
        let mut bits: Vec<Vec<u64>> = Vec::with_capacity(forms.len());
        for (k, &form) in forms.iter().enumerate() {
            let (j, bit, present) = (k >> 6, 1u64 << (k & 63), self.counts[k] as usize);
            let (list_len, bits_len) = match form {
                ReachForm::Bits => {
                    bitsets[j] |= bit;
                    (0, words_per)
                }
                ReachForm::Except => {
                    (listed[j], flip[j]) = (listed[j] | bit, flip[j] | bit);
                    (n - present, 0)
                }
                ReachForm::Only => {
                    listed[j] |= bit;
                    (present, 0)
                }
            };
            lists.push(Vec::with_capacity(list_len));
            bits.push(vec![0; bits_len]);
        }
        let mut buf = [0u64; 64];
        for (gb, nodes) in self.groups().enumerate() {
            for j in (0..W).take_while(|&j| self.lanes_in(j) > 0) {
                let group = self.load_group(nodes, j, &mut buf);
                // The lists a node of the group can land on: in a
                // uniform group, only the lanes that miss every node
                // (`Except`, empty group) or reach every one (`Only`,
                // full group) have any.
                let pushes = match group {
                    Group::Empty => listed[j] & flip[j],
                    Group::Full(_) => listed[j] & !flip[j],
                    Group::Mixed => listed[j],
                };
                if pushes != 0 {
                    for (i, &word) in (gb as u32 * 64..).zip(&buf[..nodes.len()]) {
                        let mut w = (word ^ flip[j]) & pushes;
                        while w != 0 {
                            lists[j * 64 + w.trailing_zeros() as usize].push(i);
                            w &= w - 1;
                        }
                    }
                }
                if bitsets[j] != 0 && group != Group::Empty {
                    group.to_lanes(&mut buf);
                    let mut w = bitsets[j];
                    while w != 0 {
                        let k = w.trailing_zeros() as usize;
                        bits[j * 64 + k][gb] = buf[k];
                        w &= w - 1;
                    }
                }
            }
        }
        sets.extend(forms.into_iter().zip(lists.into_iter().zip(bits)).map(|(form, (list, bits))| {
            match form {
                ReachForm::Bits => ReachSet::bits(n, bits.into_boxed_slice()),
                _ => ReachSet::listed(n, form, list.into_boxed_slice()),
            }
        }));
    }

    /// Appends each lane's reached share of the topology to `kept`, in
    /// lane order, after taking the counts: its count over `n`, or with
    /// `weights` the weight mass of its reach set over the total weight
    /// (zero for an empty topology or a zero total). A lane's mass is
    /// summed node by node in ascending order, from the empty sum, so it
    /// is the very fold `leak::detour_fraction` runs over the same set.
    pub(crate) fn emit_fractions(&mut self, weights: Option<&[f64]>, kept: &mut Vec<f64>) {
        self.count();
        let (n, lanes) = (self.n, self.block_len);
        let Some(w) = weights else {
            let share = |&c: &u32| if n == 0 { 0.0 } else { c as f64 / n as f64 };
            kept.extend(self.counts[..lanes].iter().map(share));
            return;
        };
        let total: f64 = w.iter().sum();
        debug_assert_eq!(w.len(), n, "weights must cover every node");
        let mut mass = [std::iter::empty::<f64>().sum::<f64>(); MAX_LANES];
        for (node, &weight) in self.words[..n].iter().zip(w) {
            for (j, &word) in node.r.iter().enumerate() {
                let mut b = word;
                while b != 0 {
                    mass[j * 64 + b.trailing_zeros() as usize] += weight;
                    b &= b - 1;
                }
            }
        }
        kept.extend(mass[..lanes].iter().map(|&m| if total == 0.0 { 0.0 } else { m / total }));
    }

    /// Number of ASes reached in lane `k`, origin excluded — the kernel
    /// analogue of
    /// [`RoutingOutcome::reachable_count`](crate::RoutingOutcome::reachable_count).
    pub(crate) fn lane_reachable_count(&self, lane: usize) -> usize {
        assert!(lane < self.block_len, "lane {lane} out of block (len {})", self.block_len);
        (self.counts[lane] as usize).saturating_sub(1)
    }
}

/// One lane word of a 64-node group of a finished block, as
/// [`LaneWorkspace::load_group`] finds it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Group {
    /// No lane reaches any node of the group.
    Empty,
    /// Every lane of the block in the word reaches every node of the
    /// group: each lane's reach word is this mask of the group's nodes.
    Full(u64),
    /// Anything else: the lanes' words take a transpose.
    Mixed,
}

impl Group {
    /// Turns the group's node-major words in `buf`, as
    /// [`LaneWorkspace::load_group`] left them, lane-major: `buf[k]`
    /// becomes lane `k`'s word (an empty group's are already zero).
    #[inline]
    fn to_lanes(self, buf: &mut [u64; 64]) {
        match self {
            Group::Empty => {}
            Group::Full(live) => buf.fill(live),
            Group::Mixed => transpose64(buf),
        }
    }
}

/// Selects a width's pool in a topology's [`Scratch`], implemented per
/// supported width so the width-generic sweep driver can check a
/// workspace out without naming its own `W`.
pub(crate) trait PooledLaneWs: Sized {
    fn pool(scratch: &Scratch) -> &Pool<Self>;
}

impl PooledLaneWs for LaneWorkspace<1> {
    fn pool(scratch: &Scratch) -> &Pool<Self> {
        &scratch.lanes1
    }
}

impl PooledLaneWs for LaneWorkspace<2> {
    fn pool(scratch: &Scratch) -> &Pool<Self> {
        &scratch.lanes2
    }
}

impl PooledLaneWs for LaneWorkspace<4> {
    fn pool(scratch: &Scratch) -> &Pool<Self> {
        &scratch.lanes4
    }
}

/// In-place 64×64 bit-matrix transpose (Hacker's Delight 7-3 scaled to
/// 64 bits): afterwards, bit `i` of `a[j]` is what bit `j` of `a[i]` was.
pub(crate) fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k + j] ^= t;
            a[k] ^= t << j;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Counts, Fractions, Sets, Simulation, Words, Workspace};
    use crate::leak::{fill_leak_import, LeakScenario, LeakSim, LockingSemantics};
    use crate::reachset::ReachSet;
    use flatnet_asgraph::{AsGraph, AsGraphBuilder, AsId, Relationship};

    thread_local! {
        /// Sends this thread's blocks to the portable phase runner even
        /// where the CPU has AVX2 (see `takes_avx2`).
        pub(super) static PORTABLE_ONLY: std::cell::Cell<bool> =
            const { std::cell::Cell::new(false) };
    }

    fn transpose_naive(a: &[u64; 64]) -> [u64; 64] {
        let mut b = [0u64; 64];
        for (i, &w) in a.iter().enumerate() {
            for (j, col) in b.iter_mut().enumerate() {
                if (w >> j) & 1 == 1 {
                    *col |= 1 << i;
                }
            }
        }
        b
    }

    #[test]
    fn transpose_matches_naive() {
        // A deterministic pseudo-random matrix (xorshift).
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut a = [0u64; 64];
        for w in a.iter_mut() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            *w = s;
        }
        let mut t = a;
        transpose64(&mut t);
        assert_eq!(t, transpose_naive(&a));
        // An involution: transposing twice restores the original.
        transpose64(&mut t);
        assert_eq!(t, a);
    }

    #[test]
    fn node_words_never_straddle_cache_lines() {
        // Mirrors the compile-time asserts, visible in test output: a
        // node's lane vector fits 8/16/32 bytes aligned to its size, so
        // no vector crosses a 64-byte line boundary.
        assert_eq!(std::mem::size_of::<NodeWords<1>>(), 8);
        assert_eq!(std::mem::align_of::<NodeWords<1>>(), 8);
        assert_eq!(std::mem::size_of::<NodeWords<2>>(), 16);
        assert_eq!(std::mem::align_of::<NodeWords<2>>(), 16);
        assert_eq!(std::mem::size_of::<NodeWords<4>>(), 32);
        assert_eq!(std::mem::align_of::<NodeWords<4>>(), 32);
    }

    #[test]
    fn lane_width_parse_and_clamp() {
        assert_eq!(LaneWidth::W256.lanes(), 256);
        // Clamp: a sweep never runs wider than its origin count needs.
        assert_eq!(LaneWidth::W256.words_for(1), 1);
        assert_eq!(LaneWidth::W256.words_for(64), 1);
        assert_eq!(LaneWidth::W256.words_for(65), 2);
        assert_eq!(LaneWidth::W256.words_for(128), 2);
        assert_eq!(LaneWidth::W256.words_for(129), 4);
        assert_eq!(LaneWidth::W256.words_for(10_000), 4);
        assert_eq!(LaneWidth::W64.words_for(10_000), 1);
        assert_eq!(LaneWidth::W128.words_for(10_000), 2);
        // Auto resolves to whatever the CPU supports, and clamps too.
        assert_eq!(LaneWidth::Auto.words(), detected_lane_words());
        assert_eq!(LaneWidth::Auto.words_for(1), 1);
    }

    /// Each lane's reach words of the most recent block of `lanes`.
    fn lane_words<const W: usize>(lanes: &mut LaneWorkspace<W>) -> Vec<Vec<u64>>
    where
        Lanes<W>: LaneArity,
    {
        let mut words = Vec::new();
        lanes.emit_words(&mut words);
        words
    }

    fn diamond() -> AsGraph {
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(2), AsId(1), Relationship::P2c);
        b.add_link(AsId(3), AsId(1), Relationship::P2c);
        b.add_link(AsId(4), AsId(2), Relationship::P2c);
        b.add_link(AsId(4), AsId(3), Relationship::P2c);
        b.add_link(AsId(4), AsId(5), Relationship::P2p);
        b.add_link(AsId(5), AsId(6), Relationship::P2c);
        b.build()
    }

    #[test]
    fn kernel_matches_workspace_on_diamond() {
        let g = diamond();
        let origins: Vec<NodeId> = g.nodes().collect();
        let reach = Simulation::over(&g).threads(1).sweep(&origins, |_, _| {}, Words).unwrap();
        let mut ws = Workspace::for_snapshot(&g);
        let cfg = PropagationConfig::default();
        for (i, &o) in origins.iter().enumerate() {
            ws.run(&g, o, &cfg);
            assert_eq!(reach.kept[i], ws.reach_words(), "origin {o}");
            assert_eq!(reach.counts[i] as usize, ws.reachable_count(), "origin {o}");
        }
    }

    #[test]
    fn duplicate_origins_in_one_block_are_independent() {
        let g = diamond();
        let o = g.index_of(AsId(4)).unwrap();
        let origins = vec![o, o, o];
        let reach = Simulation::over(&g).threads(1).sweep(&origins, |_, _| {}, Words).unwrap();
        assert_eq!(reach.kept[0], reach.kept[1]);
        assert_eq!(reach.kept[0], reach.kept[2]);
        let single = Simulation::over(&g).run(o);
        assert_eq!(reach.kept[0], single.reach_words());
    }

    #[test]
    fn per_lane_exclusions_match_scalar_masks() {
        let g = diamond();
        let origins: Vec<NodeId> = g.nodes().collect();
        // Each lane excludes a different node: origin's index + 1 mod n.
        let excl_for = |o: NodeId| NodeId((o.0 + 1) % g.len() as u32);
        let sim = Simulation::over(&g).threads(1);
        let fill = |o, ex: &mut LaneExcluder<'_>| {
            ex.exclude(excl_for(o));
            ex.allow(o);
        };
        let reach = sim.sweep(&origins, fill, Words).unwrap();
        for (i, &o) in origins.iter().enumerate() {
            let banned = excl_for(o);
            let mut mask = vec![false; g.len()];
            mask[banned.idx()] = true;
            mask[o.idx()] = false;
            let out =
                Simulation::over(&g).config(PropagationConfig::new().with_excluded(mask)).run(o);
            assert_eq!(reach.kept[i], out.reach_words(), "origin {o}");
            assert_eq!(reach.counts[i] as usize, out.reachable_count(), "origin {o}");
        }
    }

    #[test]
    fn excluded_origin_lane_is_empty() {
        let g = diamond();
        let o = g.index_of(AsId(4)).unwrap();
        let mut mask = vec![false; g.len()];
        mask[o.idx()] = true;
        let reach = Simulation::over(&g)
            .config(PropagationConfig::new().with_excluded(mask))
            .threads(1)
            .sweep(&[o], |_, _| {}, Words)
            .unwrap();
        assert_eq!(reach.counts, [0]);
        assert!(reach.kept[0].iter().all(|&w| w == 0));
    }

    #[test]
    fn empty_origin_list_and_empty_graph() {
        let g = diamond();
        let reach = Simulation::over(&g).sweep(&[], |_, _| {}, Words).unwrap();
        assert!(reach.kept.is_empty() && reach.counts.is_empty());
        let empty = AsGraphBuilder::new().build();
        let r2 = Simulation::over(&empty).sweep(&[], |_, _| {}, Sets).unwrap();
        assert!(r2.kept.is_empty());
    }

    /// A deterministic mixed-relationship graph with exactly `n` nodes:
    /// a provider chain with periodic peerings and skip links, so routes
    /// spread through all three phases.
    fn mixed(n: u32) -> AsGraph {
        let mut b = AsGraphBuilder::new();
        for i in 1..n {
            let rel = if i % 5 == 0 { Relationship::P2p } else { Relationship::P2c };
            b.add_link(AsId(i), AsId(i + 1), rel);
        }
        let mut i = 1;
        while i + 9 <= n {
            b.add_link(AsId(i), AsId(i + 9), Relationship::P2c);
            i += 7;
        }
        b.build()
    }

    #[test]
    fn tail_block_sizes_match_workspace() {
        // n % 64 != 0 exercises the partial tail word of every lane
        // bitset; sweeping all nodes also leaves the last block partial.
        for n in [65u32, 127] {
            let g = mixed(n);
            assert_eq!(g.len(), n as usize);
            let origins: Vec<NodeId> = g.nodes().collect();
            let reach = Simulation::over(&g).threads(1).sweep(&origins, |_, _| {}, Words).unwrap();
            let mut ws = Workspace::for_snapshot(&g);
            let cfg = PropagationConfig::default();
            let valid = n as usize & 63;
            for (i, &o) in origins.iter().enumerate() {
                ws.run(&g, o, &cfg);
                assert_eq!(reach.kept[i], ws.reach_words(), "n={n} origin {o:?}");
                assert_eq!(reach.counts[i] as usize, ws.reachable_count(), "n={n} origin {o:?}");
                let tail = *reach.kept[i].last().unwrap();
                assert_eq!(tail & !((1u64 << valid) - 1), 0, "n={n} origin {o:?}: tail bits");
            }
        }
    }

    /// Every width produces bit-identical reach sets on a topology whose
    /// origin count is not a multiple of any block width (n = 200:
    /// 200 % 64, 200 % 128, 200 % 256 all non-zero), covering partial
    /// tail *blocks* and, at `W = 4`, lanes past bit 63 inside one block.
    #[test]
    fn widths_agree_bit_identically_on_tail_blocks() {
        let g = mixed(200);
        let origins: Vec<NodeId> = g.nodes().collect();
        let mut ws = Workspace::for_snapshot(&g);
        let cfg = PropagationConfig::default();
        for width in [LaneWidth::W64, LaneWidth::W128, LaneWidth::W256] {
            let sim = Simulation::over(&g).threads(1).lane_width(width);
            let reach = sim.sweep(&origins, |_, _| {}, Words).unwrap();
            let counts = sim.sweep(&origins, |_, _| {}, Counts).unwrap().counts;
            let kept = sim.sweep(&origins, |_, _| {}, Sets).unwrap();
            assert_eq!((&reach.counts, &kept.counts), (&counts, &counts), "{width:?}");
            for (i, &o) in origins.iter().enumerate() {
                ws.run(&g, o, &cfg);
                assert_eq!(reach.kept[i], ws.reach_words(), "{width:?} origin {o:?}");
                assert_eq!(counts[i] as usize, ws.reachable_count(), "{width:?} origin {o:?}");
                let encoded = ReachSet::from_words(ws.reach_words(), g.len());
                assert_eq!(kept.kept[i], encoded, "{width:?} origin {o:?}");
            }
        }
    }

    /// Per-lane `LaneExcluder` fills land in the correct lane word for
    /// lanes ≥ 64: sweep 200 origins in one 256-lane block, each lane
    /// with its own exclusion, and pin every lane against a scalar run
    /// with the equivalent mask.
    #[test]
    fn per_lane_exclusions_beyond_lane_63_match_scalar_masks() {
        let g = mixed(200);
        let origins: Vec<NodeId> = g.nodes().collect();
        let excl_for = |o: NodeId| NodeId((o.0 + 7) % g.len() as u32);
        let sim = Simulation::over(&g).threads(1).lane_width(LaneWidth::W256);
        let fill = |o, ex: &mut LaneExcluder<'_>| {
            ex.exclude(excl_for(o));
            ex.allow(o);
        };
        let reach = sim.sweep(&origins, fill, Words).unwrap();
        let mut ws = Workspace::for_snapshot(&g);
        for (i, &o) in origins.iter().enumerate() {
            let mut cfg = PropagationConfig::new();
            let mask = cfg.excluded_mask_mut(g.len());
            mask[excl_for(o).idx()] = true;
            mask[o.idx()] = false;
            ws.run(&g, o, &cfg);
            assert_eq!(reach.kept[i], ws.reach_words(), "lane {i} origin {o:?}");
            assert_eq!(reach.counts[i] as usize, ws.reachable_count(), "lane {i} origin {o:?}");
        }
    }

    #[test]
    fn workspace_reuse_across_snapshot_sizes() {
        // Growing, shrinking, and re-growing the same LaneWorkspace takes
        // begin()'s resize path each time the size changes and the
        // undo-list path when it does not; results must stay identical to
        // fresh per-origin runs throughout. Runs at the narrowest and
        // widest widths.
        fn check<const W: usize>()
        where
            Lanes<W>: LaneArity,
        {
            let g65 = mixed(65);
            let g127 = mixed(127);
            let mut lanes = LaneWorkspace::<W>::new();
            let cfg = PropagationConfig::default();
            for g in [&g127, &g65, &g127] {
                let origins: Vec<NodeId> = g.nodes().collect();
                let mut ws = Workspace::for_snapshot(g);
                for block in origins.chunks(LANES * W) {
                    lanes.run_block(g, block, &cfg, |_, _| {});
                    let words = lane_words(&mut lanes);
                    for (k, &o) in block.iter().enumerate() {
                        ws.run(g, o, &cfg);
                        assert_eq!(
                            words[k],
                            ws.reach_words(),
                            "W={W} n={} origin {o:?}",
                            g.len()
                        );
                        assert_eq!(lanes.lane_reachable_count(k), ws.reachable_count());
                    }
                }
            }
        }
        check::<1>();
        check::<4>();
    }

    /// One `Simulation` serving sweeps at several widths in sequence:
    /// the width-segregated pools hand back the right workspace after
    /// each change, and results stay bit-identical throughout.
    #[test]
    fn pooled_workspaces_survive_width_changes() {
        let g = mixed(200);
        let origins: Vec<NodeId> = g.nodes().collect();
        let sim = Simulation::over(&g).threads(1);
        let mut ws = Workspace::for_snapshot(&g);
        let cfg = PropagationConfig::default();
        // Auto → widest: warms one pool; the narrow sweep of 40 origins
        // clamps to one-word lanes (a different pool); then back wide.
        let wide = sim.sweep(&origins, |_, _| {}, Words).unwrap();
        let narrow: Vec<NodeId> = origins.iter().copied().take(40).collect();
        let small = sim.sweep(&narrow, |_, _| {}, Words).unwrap();
        let wide2 = sim.sweep(&origins, |_, _| {}, Words).unwrap();
        assert_eq!(wide, wide2, "width round-trip changed a sweep result");
        for (i, &o) in origins.iter().enumerate() {
            ws.run(&g, o, &cfg);
            assert_eq!(wide.kept[i], ws.reach_words(), "origin {o:?}");
            if i < narrow.len() {
                assert_eq!(small.kept[i], ws.reach_words(), "narrow origin {o:?}");
            }
        }
    }

    #[test]
    fn counts_only_sweep_matches_materialized() {
        let g = diamond();
        let origins: Vec<NodeId> = g.nodes().collect();
        let sim = Simulation::over(&g).threads(2);
        let reach = sim.sweep(&origins, |_, _| {}, Words).unwrap();
        let counts = sim.sweep(&origins, |_, _| {}, Counts).unwrap();
        assert_eq!((counts.kept.len(), counts.counts), (origins.len(), reach.counts));
    }

    /// SplitMix64, for the random graphs, policies and blocks below.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// 24–95 ASes and three random links per AS: peerings, and
    /// provider links from the lower-numbered end.
    fn random_graph(rng: &mut u64) -> AsGraph {
        let n = 24 + next(rng) % 72;
        let mut b = AsGraphBuilder::new();
        for _ in 0..3 * n {
            let (x, y) = (next(rng) % n, next(rng) % n);
            let rel = if next(rng).is_multiple_of(4) { Relationship::P2p } else { Relationship::P2c };
            b.add_link(AsId(1 + x.min(y) as u32), AsId(1 + x.max(y) as u32), rel);
        }
        b.build()
    }

    /// One full block of random origins (repeats allowed) through `lanes`
    /// twice — by dispatch, which takes the AVX2 runner at `W ≥ 2` on
    /// this CPU, then by the portable runner — each lane excluding a
    /// random node of its own. Returns whether the two agree by bits.
    fn runners_agree<const W: usize>(
        lanes: &mut LaneWorkspace<W>,
        g: &AsGraph,
        cfg: &PropagationConfig,
        rng: &mut u64,
    ) -> bool
    where
        Lanes<W>: LaneArity,
    {
        let n = g.len() as u64;
        let origins: Vec<NodeId> = (0..64 * W).map(|_| NodeId((next(rng) % n) as u32)).collect();
        let salt = next(rng);
        let mut reach = |portable: bool| {
            PORTABLE_ONLY.set(portable);
            lanes.run_block(g, &origins, cfg, |o, ex| {
                ex.exclude(NodeId(((o.0 as u64 ^ salt) % n) as u32));
                ex.allow(o);
            });
            PORTABLE_ONLY.set(false);
            let words = lane_words(lanes);
            let counts: Vec<usize> = (0..origins.len()).map(|k| lanes.lane_reachable_count(k)).collect();
            (words, counts)
        };
        reach(false) == reach(true)
    }

    /// The AVX2 runner is the portable one recompiled, and only this
    /// holds it to that: on an AVX2 CPU every block of two or more lane
    /// words takes it, so nothing else runs the portable runner at
    /// `W = 2` or `4`. Random small graphs, each under the mask-only
    /// policy (`POL = false`) and under random import and origin-export
    /// policies (`POL = true`).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_and_portable_phase_runners_reach_the_same_bits() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            eprintln!("skipped: this CPU has no AVX2, so blocks only ever take the portable runner");
            return;
        }
        let mut rng = 0x5EED_u64;
        let (mut w2, mut w4) = (LaneWorkspace::<2>::new(), LaneWorkspace::<4>::new());
        for _ in 0..40 {
            let g = random_graph(&mut rng);
            let n = g.len();
            let mask_only = PropagationConfig::new()
                .with_excluded((0..n).map(|_| next(&mut rng).is_multiple_of(8)).collect());
            let policies = [
                ImportPolicy::Normal,
                ImportPolicy::OnlyDirectFromOrigin,
                ImportPolicy::RejectDirectFromOrigin,
                ImportPolicy::Never,
            ];
            let with_policies = PropagationConfig::new()
                .with_import((0..n).map(|_| policies[(next(&mut rng) % 8).saturating_sub(4) as usize]).collect())
                .with_origin_export((0..n).map(|_| !next(&mut rng).is_multiple_of(4)).collect());
            for cfg in [&mask_only, &with_policies] {
                assert!(runners_agree(&mut w2, &g, cfg, &mut rng), "W = 2, {n} ASes");
                assert!(runners_agree(&mut w4, &g, cfg, &mut rng), "W = 4, {n} ASes");
            }
        }
    }

    /// A lane's exclusion rule: `(lane, origin, set)` calls `set(node,
    /// excluded)` for every node it excludes or allows back, in order.
    type LaneFill<'a> = dyn Fn(usize, NodeId, &mut dyn FnMut(NodeId, bool)) + 'a;

    /// Every lane of `origins` through `lanes` under `cfg` and a fill
    /// that runs `lane_fill(lane, origin, excluder)` — its words, its
    /// kept set and the count each read-out takes — held by bits against
    /// a per-origin scalar run under the lane's whole rule: `cfg`'s
    /// shared mask, what the fill excluded, minus what it allowed back
    /// (replayed on a mask).
    fn lanes_match_scalar<const W: usize>(
        lanes: &mut LaneWorkspace<W>,
        g: &AsGraph,
        cfg: &PropagationConfig,
        origins: &[NodeId],
        lane_fill: &LaneFill<'_>,
    ) where
        Lanes<W>: LaneArity,
    {
        let n = g.len();
        let mut k = 0;
        let fill = |o: NodeId, ex: &mut LaneExcluder<'_>| {
            lane_fill(k, o, &mut |node, excluded| if excluded { ex.exclude(node) } else { ex.allow(node) });
            k += 1;
        };
        lanes.run_block(g, origins, cfg, fill);
        let words = lane_words(lanes);
        let counted_with_words: Vec<usize> = (0..origins.len()).map(|k| lanes.lane_reachable_count(k)).collect();
        let mut sets = Vec::new();
        lanes.emit_reach_sets(&mut sets);
        assert_eq!((words.len(), sets.len()), (origins.len(), origins.len()));
        let mut ws = Workspace::for_snapshot(g);
        for (k, &o) in origins.iter().enumerate() {
            let mut mask = cfg.view().excluded.map_or_else(|| vec![false; n], <[bool]>::to_vec);
            lane_fill(k, o, &mut |node, excluded| mask[node.idx()] = excluded);
            let lane_cfg = cfg.clone().with_excluded(mask);
            ws.run(g, o, &lane_cfg);
            let what = format!("W = {W}, lane {k}, origin {o:?}, {n} ASes");
            assert_eq!(words[k], ws.reach_words(), "{what}");
            let want = ReachSet::from_words(ws.reach_words(), n);
            assert_eq!((sets[k].form(), &sets[k]), (want.form(), &want), "{what}");
            assert_eq!(counted_with_words[k], ws.reachable_count(), "{what}");
            assert_eq!(lanes.lane_reachable_count(k), ws.reachable_count(), "{what}");
        }
    }

    /// Exclusions pre-filled into `r` and read back from the side table,
    /// and origin marks read from it: lane kernel against per-origin
    /// scalar runs, by bits, at every width, mask-only
    /// (`POL = false`) and under import and origin-export policies
    /// (`POL = true`). Every block has duplicate origins (64·W lanes
    /// drawn from under 96 ASes); each lane excludes a dense random
    /// 3/8 of the nodes and the next lane's origin, one lane in five
    /// excludes its own origin, and the shared mask covers a quarter of
    /// the origins, which three lanes in five `allow` back.
    #[test]
    fn exclusions_and_origin_marks_match_scalar_runs() {
        let mut rng = 0xB10C_u64;
        let (mut w1, mut w2) = (LaneWorkspace::<1>::new(), LaneWorkspace::<2>::new());
        let mut w4 = LaneWorkspace::<4>::new();
        for _ in 0..12 {
            let g = random_graph(&mut rng);
            let n = g.len();
            let origins: Vec<NodeId> =
                (0..MAX_LANES).map(|_| NodeId((next(&mut rng) % n as u64) as u32)).collect();
            let mut shared = vec![false; n];
            for &o in origins.iter().step_by(4) {
                shared[o.idx()] = true;
            }
            let policies = [
                ImportPolicy::Normal,
                ImportPolicy::OnlyDirectFromOrigin,
                ImportPolicy::RejectDirectFromOrigin,
                ImportPolicy::Never,
            ];
            let mask_only = PropagationConfig::new().with_excluded(shared.clone());
            let with_policies = mask_only
                .clone()
                .with_import((0..n).map(|_| policies[(next(&mut rng) % 8).saturating_sub(4) as usize]).collect())
                .with_origin_export((0..n).map(|_| !next(&mut rng).is_multiple_of(4)).collect());
            let salt = next(&mut rng);
            let lane_fill = |k: usize, o: NodeId, set: &mut dyn FnMut(NodeId, bool)| {
                let mut lane_rng = salt ^ (k as u64).wrapping_mul(0x9E37_79B9);
                for node in 0..n as u32 {
                    if next(&mut lane_rng) % 8 < 3 {
                        set(NodeId(node), true);
                    }
                }
                set(origins[(k + 1) % origins.len()], true);
                match k % 5 {
                    0 => set(o, true),
                    1 => {}
                    _ => set(o, false),
                }
            };
            for cfg in [&mask_only, &with_policies] {
                lanes_match_scalar(&mut w1, &g, cfg, &origins[..64], &lane_fill);
                lanes_match_scalar(&mut w2, &g, cfg, &origins[..128], &lane_fill);
                lanes_match_scalar(&mut w4, &g, cfg, &origins, &lane_fill);
                // A partial block: lanes past the last origin stay empty.
                lanes_match_scalar(&mut w4, &g, cfg, &origins[..150], &lane_fill);
            }
        }
    }

    /// A node's customer lanes are derived, not stored: `r & !blocked`,
    /// read live in the customer phase and copied out for the peer
    /// phase before it adds peer routes to `r`. AS 1 is excluded for
    /// lane A (origin AS 12, its customer) and holds lane B's customer
    /// route (origin AS 11, its other customer); it has a provider,
    /// AS 2, and two peers: AS 3, the provider of lane C's origin AS 31,
    /// from which it takes lane C as a peer route, and AS 4. So neither
    /// AS 2 nor AS 4 may take lane A, nor AS 4 lane C. Both origin
    /// orders run — AS 3 reached ahead of AS 1, and behind — at every
    /// width, without policies (`POL = false`) and under import and
    /// origin-export policies that leave those routes alone
    /// (`POL = true`).
    #[test]
    fn derived_customer_lanes_match_scalar_runs() {
        let mut b = AsGraphBuilder::new();
        for (provider, customer) in [(1, 11), (1, 12), (2, 1), (3, 31), (4, 41)] {
            b.add_link(AsId(provider), AsId(customer), Relationship::P2c);
        }
        b.add_link(AsId(1), AsId(3), Relationship::P2p);
        b.add_link(AsId(1), AsId(4), Relationship::P2p);
        let g = b.build();
        let n = g.len();
        let node = |asn| g.index_of(AsId(asn)).unwrap();
        let (excluded, lane_a) = (node(1), node(12));
        let lane_fill = |_: usize, o: NodeId, set: &mut dyn FnMut(NodeId, bool)| {
            if o == lane_a {
                set(excluded, true);
            }
        };
        let mut import = vec![ImportPolicy::Normal; n];
        import[node(41).idx()] = ImportPolicy::RejectDirectFromOrigin;
        let mut origin_export = vec![true; n];
        origin_export[node(4).idx()] = false;
        let plain = PropagationConfig::new();
        let with_policies = PropagationConfig::new().with_import(import).with_origin_export(origin_export);
        let (mut w1, mut w2) = (LaneWorkspace::<1>::new(), LaneWorkspace::<2>::new());
        let mut w4 = LaneWorkspace::<4>::new();
        for origins in [[node(31), lane_a, node(11)], [node(11), lane_a, node(31)]] {
            for cfg in [&plain, &with_policies] {
                lanes_match_scalar(&mut w1, &g, cfg, &origins, &lane_fill);
                lanes_match_scalar(&mut w2, &g, cfg, &origins, &lane_fill);
                lanes_match_scalar(&mut w4, &g, cfg, &origins, &lane_fill);
            }
        }
    }

    /// What a sweep hands out of its blocks — kept [`ReachSet`]s (value
    /// and form), [`Words`] bitsets, [`Counts`] and sub-prefix
    /// [`Fractions`] — against per-origin scalar runs, at every width:
    /// random graphs, sweeps of two full blocks and a partial tail block
    /// spread over two workers. The first three run under per-origin
    /// exclusions from none to seven nodes in eight (one origin in six
    /// left excluded itself), so that every form is kept somewhere; the
    /// same origins then hijack one victim's sub-prefix under a random
    /// locking set, and each lane's detour share, unweighted and under
    /// weights of wide-ranging magnitude, must equal
    /// [`LeakSim::subprefix_fraction`]'s bit for bit.
    #[test]
    fn every_block_emitter_matches_scalar_runs() {
        let mut rng = 0xE417_u64;
        let mut forms_seen = [false; 3];
        for _ in 0..6 {
            let g = random_graph(&mut rng);
            let n = g.len();
            let salt = next(&mut rng);
            let rule = |o: NodeId, set: &mut dyn FnMut(NodeId, bool)| {
                let mut lane_rng = salt ^ u64::from(o.0).wrapping_mul(0x9E37_79B9);
                let eighths = [0, 1, 4, 7][(next(&mut lane_rng) % 4) as usize];
                for node in 0..n as u32 {
                    if next(&mut lane_rng) % 8 < eighths {
                        set(NodeId(node), true);
                    }
                }
                if !next(&mut lane_rng).is_multiple_of(6) {
                    set(o, false);
                }
            };
            let fill = |o: NodeId, ex: &mut LaneExcluder<'_>| {
                rule(o, &mut |node, excluded| if excluded { ex.exclude(node) } else { ex.allow(node) });
            };
            let weights: Vec<f64> =
                (0..n).map(|_| (next(&mut rng) >> 11) as f64 * 2f64.powi((next(&mut rng) % 40) as i32 - 53)).collect();
            let mut ws = Workspace::for_snapshot(&g);
            let mut leak = LeakSim::new(&g);
            for width in [LaneWidth::W64, LaneWidth::W128, LaneWidth::W256] {
                let lanes = width.lanes();
                let count = 2 * lanes + 1 + next(&mut rng) as usize % (lanes - 1);
                let origins: Vec<NodeId> = (0..count).map(|_| NodeId((next(&mut rng) % n as u64) as u32)).collect();
                let sim = Simulation::over(&g).threads(2).lane_width(width);
                let words = sim.sweep(&origins, fill, Words).unwrap();
                let kept = sim.sweep(&origins, fill, Sets).unwrap();
                let counts = sim.sweep(&origins, fill, Counts).unwrap().counts;
                assert_eq!((&words.counts, &kept.counts, counts.len()), (&counts, &counts, count));
                for (i, &o) in origins.iter().enumerate() {
                    let mut mask = vec![false; n];
                    rule(o, &mut |node, excluded| mask[node.idx()] = excluded);
                    ws.run(&g, o, &PropagationConfig::new().with_excluded(mask));
                    let what = format!("{width:?}, origin #{i} {o:?}, {n} ASes");
                    let want = ReachSet::from_words(ws.reach_words(), n);
                    assert_eq!(words.kept[i], ws.reach_words(), "{what}");
                    assert_eq!(kept.kept[i].form(), want.form(), "{what}");
                    assert_eq!(kept.kept[i], want, "{what}");
                    assert_eq!(counts[i] as usize, ws.reachable_count(), "{what}");
                    forms_seen[kept.kept[i].form() as usize] = true;
                }

                let victim = NodeId((next(&mut rng) % n as u64) as u32);
                let leakers: Vec<NodeId> = origins.iter().copied().filter(|&o| o != victim).collect();
                let locking: Vec<NodeId> = g.nodes().filter(|_| next(&mut rng).is_multiple_of(8)).collect();
                let semantics =
                    if next(&mut rng).is_multiple_of(2) { LockingSemantics::Corrected } else { LockingSemantics::PreErratum };
                let mut import = vec![ImportPolicy::Normal; n];
                fill_leak_import(&mut import, victim, &locking, semantics);
                let hijacks = sim.clone().config(PropagationConfig::new().with_import(import));
                for weights in [None, Some(&weights[..])] {
                    let shares = hijacks.sweep(&leakers, |_, _| {}, Fractions { weights }).unwrap();
                    assert_eq!(shares.kept.len(), leakers.len());
                    for (i, &leaker) in leakers.iter().enumerate() {
                        let locking = locking.clone();
                        let scenario = LeakScenario { victim, leaker, victim_export: None, locking, semantics };
                        let want = leak.subprefix_fraction(&scenario, weights);
                        let what = format!("{width:?}, leaker #{i} {leaker:?}, {semantics:?}, weighted {}", weights.is_some());
                        assert_eq!(shares.kept[i].to_bits(), want.to_bits(), "{what}: {} vs {want}", shares.kept[i]);
                    }
                }
            }
        }
        assert_eq!(forms_seen, [true; 3], "some form was never kept (bits, except, only)");
    }

    /// The reach-set read-out's uniform groups, which it fills without
    /// reading their words: a one-node tail group no lane reaches,
    /// beside lanes that miss only it (`Except`), and a one-node tail
    /// group every lane reaches, beside lanes that reach only it and
    /// their origin (`Only`) or it and half the graph (`Bits`). 127 ASes
    /// under two providers: AS 500, and AS 1000, the last node.
    #[test]
    fn uniform_tail_groups_keep_their_sets() {
        let mut b = AsGraphBuilder::new();
        for c in 1..=127 {
            b.add_link(AsId(500), AsId(c), Relationship::P2c);
            b.add_link(AsId(1000), AsId(c), Relationship::P2c);
        }
        let g = b.build();
        let n = g.len();
        let (top, backup) = (g.index_of(AsId(1000)).unwrap(), g.index_of(AsId(500)).unwrap());
        assert_eq!((n, top.idx()), (129, 128), "AS 1000 is the tail group's one node");
        let origins: Vec<NodeId> = (1..=127).map(|c| g.index_of(AsId(c)).unwrap()).collect();
        // Whether `(origin, node)` excludes `node` for `origin`'s lane.
        type Excluded<'a> = &'a (dyn Fn(NodeId, NodeId) -> bool + Sync);
        let rules: [(Excluded<'_>, ReachForm); 3] = [
            (&|_, node| node == top, ReachForm::Except),
            (&|o, node| node != o && node != top, ReachForm::Only),
            (&|o, node| node != o && (node == backup || node.0 % 2 == 1), ReachForm::Bits),
        ];
        let mut ws = Workspace::for_snapshot(&g);
        for (excluded, form) in rules {
            for width in [LaneWidth::W64, LaneWidth::W128] {
                let sim = Simulation::over(&g).threads(1).lane_width(width);
                let fill = |o, ex: &mut LaneExcluder<'_>| {
                    g.nodes().filter(|&node| excluded(o, node)).for_each(|node| ex.exclude(node));
                };
                let kept = sim.sweep(&origins, fill, Sets).unwrap();
                for (&o, (set, count)) in origins.iter().zip(kept.kept.iter().zip(&kept.counts)) {
                    let mask = g.nodes().map(|node| excluded(o, node)).collect();
                    ws.run(&g, o, &PropagationConfig::new().with_excluded(mask));
                    let want = ReachSet::from_words(ws.reach_words(), n);
                    assert_eq!((set.form(), want.form()), (form, form), "{width:?} origin {o:?}");
                    assert_eq!((set, *count as usize), (&want, ws.reachable_count()), "{width:?} origin {o:?}");
                }
            }
        }
    }

    /// A block's memory as a rule, at paper-like shape: on a generated
    /// 20 000-AS topology, one block with per-lane provider exclusions
    /// holds at most (8·W + 16) B a node — route words, the flag byte
    /// and three node lists — plus 64 B per flagged node (an origin or
    /// an excluded provider) for the side table and 8·W B per slot of
    /// the customer-lane list's bound (nodes with a customer, plus
    /// 64·W), whatever its lanes are read out as. A second route word a
    /// node, or a lane-major copy of its reach sets, would be 8·W B a
    /// node more.
    #[test]
    fn a_block_holds_route_words_and_a_sparse_side_table() {
        fn check<const W: usize>(g: &AsGraph)
        where
            Lanes<W>: LaneArity,
        {
            let n = g.len();
            let origins: Vec<NodeId> = (0..64 * W).map(|k| NodeId((k * n / (64 * W)) as u32)).collect();
            let mut flagged: Vec<NodeId> = origins.iter().flat_map(|&o| g.providers(o).iter().copied()).collect();
            flagged.extend(&origins);
            flagged.sort_unstable();
            flagged.dedup();
            let mut ws = LaneWorkspace::<W>::new();
            ws.run_block(g, &origins, &PropagationConfig::default(), |o, ex| {
                g.providers(o).iter().for_each(|&p| ex.exclude(p));
                ex.allow(o);
            });
            let (words, mut sets) = (lane_words(&mut ws), Vec::new());
            ws.emit_reach_sets(&mut sets);
            assert_eq!((words.len(), sets.len()), (origins.len(), origins.len()));
            let providers = g.nodes().filter(|&u| !g.customers(u).is_empty()).count();
            let cap = n * (8 * W + 16) + 64 * flagged.len() + 8 * W * (providers + 64 * W);
            let held = ws.heap_bytes();
            assert!(held <= cap, "W = {W}: {held} B over {cap} ({n} nodes, {} flagged)", flagged.len());
        }
        let net = flatnet_netgen::generate(&flatnet_netgen::NetGenConfig::paper_2020(20_000, 1));
        check::<1>(&net.truth);
        check::<2>(&net.truth);
        check::<4>(&net.truth);
    }
}
