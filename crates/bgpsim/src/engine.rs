//! Batched propagation engine: take the topology once, sweep many
//! origins with zero steady-state allocation.
//!
//! A run that allocates its arrays per origin pays for them tens of
//! thousands of times in a whole-Internet sweep (hierarchy-free
//! reachability, leak CDFs), so those allocations would dominate the
//! profile. This module splits the work into three pieces:
//!
//! * [`TopologySnapshot`] — the engine's view of an [`AsGraph`]: a
//!   handle on the graph (its links are shared, not copied) plus the
//!   per-topology state a run needs, made once per topology and found on
//!   the graph's own block by every later look. Every entry point takes
//!   the graph and looks the view up once per call; outside this crate
//!   the type is only a handle the `benchmark/` package holds, which
//!   dereferences to the graph.
//! * [`Workspace`] — the mutable per-run state: the
//!   [`RoutingOutcome`] a run fills in place (one selection word per
//!   node, the reach bitset) and the queues that fill it. Checked out of
//!   the topology's pool once per worker and reused for every origin;
//!   after the first few runs a sweep performs no heap allocation at
//!   all, and a finished run is read through the workspace, not copied
//!   out of it.
//! * [`Simulation`] — a builder over a borrowed graph:
//!   `Simulation::over(&g).run(origin)` for one origin,
//!   [`Simulation::run_sweep_map`] for batches (fanned out over
//!   [`crate::parallel`], one workspace per worker), and
//!   [`Simulation::sweep`] for reach-set-only sweeps through the lane
//!   kernel ([`crate::lanes`]), read out by a [`Keep`].
//!
//! ## Snapshot layout
//!
//! The links are the graph's own block — one array, filled once by
//! `AsGraph::from_canonical_edges` and held by `Arc`: the graph, its
//! clones and every snapshot compiled from it read the same memory. Per
//! node `u`, all three relationship classes live in one contiguous slice
//! of it, customers first:
//!
//! ```text
//! adj:  [ customers(u) | peers(u) | providers(u) | customers(u+1) | ... ]
//!        ^off[u]        ^cust_end[u]^peer_end[u]  ^off[u+1]
//! ```
//!
//! The customers-first split doubles as the precomputed per-node export
//! mask: an AS exports customer-learned routes to its whole range, but
//! peer/provider-learned routes only to the customer prefix
//! `adj[off[u]..cust_end[u]]` — exactly the slices the three phases walk.
//! Taking the view ([`TopologySnapshot::compile`]) therefore does nothing
//! per link, and little per call: the first look at a topology marks, one
//! bit per node, who has a customer and attaches that, with the
//! topology's empty scratch pools, to the graph's block
//! ([`AsGraph::attachment`]); every later look, through the graph or a
//! clone, is an atomic load and two handle clones, and finds both, pools
//! warm from whatever ran before. So an entry point that is handed the
//! graph takes the view once per call, and a sweep once, never once per
//! run.
//!
//! The provider phase drains a bucket queue (`Vec<Vec<u32>>` indexed by
//! distance) rather than a binary heap: edges all have weight 1, so
//! distances are dense small integers and each push/pop is O(1).
//!
//! The run itself is output-sensitive: a touched-node list doubles as
//! the reach set and the reset undo log, so a run costs O(reached +
//! edges-of-reached) rather than O(V + E). Phase 3 queues a node only to
//! export to its customers, so a node without any — most of the Internet
//! — is given its route and never queued. A reset undoes what the
//! previous run wrote, or fills the arrays when that run reached an
//! eighth of the graph or more. The `propagate.export_checks` and
//! `propagate.dijkstra_pops` counters count this run's own work — one
//! export check per adjacency entry a phase examines, one pop per node
//! drained from a bucket to export — so they are exact functions of
//! (topology, origin, config). Correctness is held on *results*: every
//! selection and tie set equals the test kit's stable-paths fixpoint of
//! the same rules (`tests/engine_equiv.rs`,
//! `crates/bgpsim/tests/scalar_prop.rs`).

use crate::lanes::{LaneArity, LaneExcluder, LaneWidth, LaneWorkspace, Lanes, PooledLaneWs};
use crate::parallel::{self, SweepError};
use crate::propagate::{
    metrics, pack, sel_len, PolicyView, PropagationConfig, RouteClass, RoutingOutcome, UNREACHED,
};
use crate::reachset::ReachSet;
use crate::reliance::RelianceWorkspace;
use crate::scratch::{cap_bytes, Scratch};
use flatnet_asgraph::{AsGraph, NodeId};
use std::collections::VecDeque;
use std::sync::Arc;

/// The engine's view of an [`AsGraph`]: a handle on the graph itself —
/// the same arrays, not a copy — plus what only a run needs. It
/// dereferences to the graph.
///
/// Every public entry point of this crate takes `&AsGraph` and takes
/// this view once per call ([`TopologySnapshot::compile`]). What a run
/// needs beyond the links — who has customers, and the scratch sized for
/// the topology (`crate::scratch`): lane-kernel workspaces, scalar
/// contexts and reliance kernels that sweeps check out and return — is
/// kept on the graph's own block ([`AsGraph::attachment`]), so every
/// look at one graph or a clone of it finds the same warm buffers, and
/// they are freed with the last handle on the topology.
///
/// Outside this crate the type is a handle and nothing more: the
/// `benchmark/` package compiles one and passes it where a graph is
/// taken, which deref coercion allows.
#[derive(Debug, Clone)]
pub struct TopologySnapshot {
    /// The graph: its links lie in the layout the module docs draw.
    graph: AsGraph,
    /// The graph's attachment: one per topology, however often compiled.
    compiled: Arc<Compiled>,
}

/// What a run needs beyond the graph's links, made once per topology.
#[derive(Debug)]
struct Compiled {
    /// Bit `u` set iff node `u` has a customer — the only nodes phase 3
    /// can ever export from, so the only ones it queues.
    has_customers: Vec<u64>,
    /// Pooled per-run buffers sized for this topology.
    scratch: Scratch,
}

impl std::ops::Deref for TopologySnapshot {
    type Target = AsGraph;

    /// The graph this view was taken of.
    fn deref(&self) -> &AsGraph {
        &self.graph
    }
}

impl TopologySnapshot {
    /// Takes a handle on `g` and its attachment. The first compile of a
    /// topology marks who has customers, O(V) and nothing per link; every
    /// later one, and every compile of a clone of `g`, only clones two
    /// handles.
    pub fn compile(g: &AsGraph) -> Self {
        let compiled = g.attachment(|| {
            let mut has_customers = vec![0u64; g.len().div_ceil(64)];
            for u in g.nodes().filter(|&u| !g.customers(u).is_empty()) {
                has_customers[u.idx() >> 6] |= 1 << (u.idx() & 63);
            }
            Compiled { has_customers, scratch: Scratch::default() }
        });
        TopologySnapshot { graph: g.clone(), compiled }
    }

    /// Number of directed adjacency entries (2× the undirected link count).
    pub fn edge_entries(&self) -> usize {
        2 * self.graph.edge_count()
    }

    /// The pooled buffers sized for this topology.
    pub(crate) fn scratch(&self) -> &Scratch {
        &self.compiled.scratch
    }

    /// Bytes of idle pooled scratch the topology currently holds (see
    /// [`scratch_bytes`]).
    pub(crate) fn scratch_bytes(&self) -> usize {
        self.compiled.scratch.bytes()
    }

    /// Whether `u` has any customer to export to.
    #[inline]
    pub(crate) fn has_customers(&self, u: u32) -> bool {
        (self.compiled.has_customers[(u >> 6) as usize] >> (u & 63)) & 1 == 1
    }

    /// A weak handle on what the topology attached, scratch pools and
    /// all: it upgrades while any graph or snapshot handle is alive.
    #[cfg(test)]
    pub(crate) fn attached(&self) -> std::sync::Weak<impl Sized> {
        Arc::downgrade(&self.compiled)
    }
}

/// Bytes of idle pooled scratch `g`'s topology currently holds (lane
/// workspaces, scalar contexts and reliance kernels, at capacity) —
/// shared by every clone of the graph, and freed with the last handle on
/// it. A graph rebuilt from the same edges is another topology and holds
/// none.
pub fn scratch_bytes(g: &AsGraph) -> usize {
    TopologySnapshot::compile(g).scratch_bytes()
}

/// Reusable per-run propagation state: the [`RoutingOutcome`] a run
/// fills in place, plus the scratch that fills it (the touched list, the
/// BFS frontier, the provider-phase bucket queue). Create once, run many
/// origins through it; the topology pools the ones its
/// [`SweepCtx`]s run on.
///
/// After a run the workspace dereferences to the finished outcome, so a
/// result is read where it lies — `ws.selection(n)`, `ws.reach_words()`,
/// `ws.next_hops(g, &cfg, n)` — and [`Workspace::to_outcome`]
/// clones it only when one must outlive the workspace.
#[derive(Debug, Default)]
pub struct Workspace {
    out: RoutingOutcome,
    /// Nodes given a route this run, in the order they were reached:
    /// customer-routed, then peer-routed, then provider-routed.
    /// The undo list that keeps [`Workspace::reset`] O(reached) after a
    /// small run, and the iteration domain for the phases that only care
    /// about routed nodes.
    touched: Vec<u32>,
    queue: VecDeque<u32>,
    buckets: Vec<Vec<u32>>,
}

impl std::ops::Deref for Workspace {
    type Target = RoutingOutcome;

    /// The most recent run's result (empty before the first run).
    fn deref(&self) -> &RoutingOutcome {
        &self.out
    }
}

impl Workspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A workspace pre-sized for `g`, so the first run allocates
    /// everything up front.
    pub fn for_snapshot(g: &AsGraph) -> Self {
        let mut ws = Self::new();
        ws.reset(g.len(), NodeId(0));
        ws
    }

    /// Clears all per-run state and sizes the buffers for an `n`-node
    /// graph. Reuses existing capacity and never allocates after the first
    /// call for a fixed topology. When the size is unchanged, a previous
    /// run that reached under an eighth of the graph is undone write by
    /// write (via the touched list), so a hierarchy-free sweep's reset
    /// costs O(previously reached); one that reached more is cleared by
    /// filling the arrays, which beats that many scattered writes.
    fn reset(&mut self, n: usize, origin: NodeId) {
        let out = &mut self.out;
        if out.sel.len() != n {
            out.sel.clear();
            out.sel.resize(n, UNREACHED);
            out.reach.clear();
            out.reach.resize(n.div_ceil(64), 0);
            // A node is touched at most once per run: sized to the graph
            // here, the list never grows during one.
            self.touched = Vec::with_capacity(n);
        } else if self.touched.len() >= n / 8 {
            out.sel.fill(UNREACHED);
            out.reach.fill(0);
        } else {
            // Every set reach bit belongs to a touched node, so clearing
            // whole words per touched node clears the bitset exactly.
            for &t in &self.touched {
                let i = t as usize;
                out.sel[i] = UNREACHED;
                out.reach[i >> 6] = 0;
            }
        }
        self.touched.clear();
        self.queue.clear();
        for b in &mut self.buckets {
            b.clear();
        }
        out.origin = origin;
        out.reached = 0;
    }

    /// First-touch bookkeeping: sets `i`'s reach bit, records it on the
    /// undo list, and counts it — exactly once per node per run.
    #[inline]
    fn mark(&mut self, i: u32) {
        let w = (i >> 6) as usize;
        let bit = 1u64 << (i & 63);
        if self.out.reach[w] & bit == 0 {
            self.out.reach[w] |= bit;
            self.touched.push(i);
            self.out.reached += 1;
        }
    }

    /// Files `i` under provider-route distance `d` for phase 3, to export
    /// to its customers when bucket `d` drains — so a node without any is
    /// never filed: most of the Internet is stubs, and a stub's pop would
    /// walk an empty slice.
    #[inline]
    fn push_bucket(&mut self, snap: &TopologySnapshot, d: usize, i: u32) {
        if !snap.has_customers(i) {
            return;
        }
        if d >= self.buckets.len() {
            self.buckets.resize_with(d + 1, Vec::new);
        }
        self.buckets[d].push(i);
    }

    /// Runs one origin over `g` under `cfg`, leaving the result in the
    /// workspace — the entry point for callers that hold a workspace of
    /// their own across runs (and possibly across *different* graphs:
    /// the buffers resize automatically when the node count changes, as
    /// during a hot-reload).
    ///
    /// It takes the engine's view of `g` once per call; a loop over many
    /// origins of one graph runs on a [`SweepCtx`]
    /// ([`Simulation::ctx`]), which takes it once.
    pub fn run(&mut self, g: &AsGraph, origin: NodeId, cfg: &PropagationConfig) {
        run_into(&TopologySnapshot::compile(g), origin, &cfg.view(), self)
    }

    /// Heap bytes this workspace holds, every buffer at capacity.
    pub(crate) fn heap_bytes(&self) -> usize {
        let out = &self.out;
        cap_bytes(&out.sel)
            + cap_bytes(&self.touched)
            + self.buckets.iter().map(cap_bytes).sum::<usize>()
            + cap_bytes(&out.reach)
            + cap_bytes(&self.buckets)
            + self.queue.capacity() * std::mem::size_of::<u32>()
    }

    /// Clones the run's result into an owned [`RoutingOutcome`].
    pub fn to_outcome(&self) -> RoutingOutcome {
        self.out.clone()
    }
}

/// Runs one origin's propagation over `snap` into `ws`.
///
/// This is the engine's hot loop; its selections and tie sets equal the
/// test kit's stable-paths fixpoint, and the `propagate.*` work counters
/// count its own work (see the module docs).
pub(crate) fn run_into(
    snap: &TopologySnapshot,
    origin: NodeId,
    pol: &PolicyView<'_>,
    ws: &mut Workspace,
) {
    let n = snap.len();
    let obs = metrics();
    obs.runs.inc();
    let started = std::time::Instant::now();
    ws.reset(n, origin);
    if n == 0 || pol.is_excluded(origin) {
        return;
    }
    let mut export_checks = 0u64;
    let mut dijkstra_pops = 0u64;

    // One rule for all three phases: a route enters a node only where its
    // packed word is smaller than the node's, so no phase overwrites a
    // route the node prefers and the origin (word 0) takes nothing.

    // Phase 1: customer routes spread up provider edges (plain BFS, all
    // edges weight 1). The origin's own route behaves like a customer route.
    ws.out.sel[origin.idx()] = pack(RouteClass::Customer, 0);
    ws.mark(origin.0);
    ws.queue.push_back(origin.0);
    while let Some(ui) = ws.queue.pop_front() {
        let offer = pack(RouteClass::Customer, sel_len(ws.out.sel[ui as usize]) + 1);
        for &NodeId(pi) in snap.providers(NodeId(ui)) {
            export_checks += 1;
            if ws.out.sel[pi as usize] == UNREACHED && pol.import_ok(origin, NodeId(pi), NodeId(ui))
            {
                ws.out.sel[pi as usize] = offer;
                ws.mark(pi);
                ws.queue.push_back(pi);
            }
        }
    }
    let customer_reached = ws.touched.len();

    // Phase 2: peers export customer/origin routes; a single relaxation,
    // driven from the customer-reached frontier (the touched prefix)
    // instead of scanning all n receivers — p2p adjacency is symmetric,
    // so pushing sender→peers visits exactly the (receiver, sender)
    // pairs a receiver-side scan would find routes on.
    for t in 0..customer_reached {
        let vi = ws.touched[t];
        let offer = pack(RouteClass::Peer, sel_len(ws.out.sel[vi as usize]) + 1);
        for &NodeId(ui) in snap.peers(NodeId(vi)) {
            export_checks += 1;
            if offer < ws.out.sel[ui as usize] && pol.import_ok(origin, NodeId(ui), NodeId(vi)) {
                ws.out.sel[ui as usize] = offer;
                ws.mark(ui);
            }
        }
    }

    // Phase 3: providers export their selected best to customers. All
    // edges are weight 1 and distances dense, so a bucket queue indexed
    // by distance replaces the heap; each bucket only receives pushes
    // from strictly smaller distances, so a single ascending scan drains
    // everything. Every node with a customer or peer route is on the
    // touched list and seeds in the order it was reached: that order
    // shapes the push/pop sequence (which entries go stale), never a
    // distance — the relaxation is a strict `<` and a bucket holds one
    // distance. A provider route enters only nodes without a customer or
    // peer route, so only provider-routed nodes are filed; one without
    // customers gets its word, reach bit and touched entry like any
    // other, and `push_bucket` leaves it unqueued.
    let seeds = ws.touched.len();
    for t in 0..seeds {
        let i = ws.touched[t];
        let d = sel_len(ws.out.sel[i as usize]) + 1;
        let offer = pack(RouteClass::Provider, d);
        for &NodeId(uj) in snap.customers(NodeId(i)) {
            export_checks += 1;
            if offer < ws.out.sel[uj as usize] && pol.import_ok(origin, NodeId(uj), NodeId(i)) {
                ws.out.sel[uj as usize] = offer;
                ws.mark(uj);
                ws.push_bucket(snap, d as usize, uj);
            }
        }
    }
    // `buckets.len()` can exceed this run's farthest distance when a
    // previous run on this workspace reached farther; the extra buckets
    // are empty and cost one `pop() == None` each.
    let mut d = 0usize;
    while d < ws.buckets.len() {
        while let Some(ui) = ws.buckets[d].pop() {
            dijkstra_pops += 1;
            if ws.out.sel[ui as usize] != pack(RouteClass::Provider, d as u32) {
                continue; // stale entry: a shorter provider route came later
            }
            let offer = pack(RouteClass::Provider, d as u32 + 1);
            for &NodeId(xi) in snap.customers(NodeId(ui)) {
                export_checks += 1;
                let x = NodeId(xi);
                if offer < ws.out.sel[xi as usize] && pol.import_ok(origin, x, NodeId(ui)) {
                    ws.out.sel[xi as usize] = offer;
                    ws.mark(xi);
                    ws.push_bucket(snap, d + 1, xi);
                }
            }
        }
        d += 1;
    }

    // Phase 1 marked the customer-routed nodes, phase 2 the peer-routed
    // rest of the first `seeds`, phase 3 the provider-routed ones after
    // them: the three class counts are lengths of the touched list.
    let sel_c = customer_reached as u64;
    let sel_p = (seeds - customer_reached) as u64;
    let sel_d = (ws.touched.len() - seeds) as u64;
    obs.routes_customer.add(sel_c);
    obs.routes_peer.add(sel_p);
    obs.routes_provider.add(sel_d);
    obs.export_checks.add(export_checks);
    obs.dijkstra_pops.add(dijkstra_pops);
    obs.run_us.record_us(started.elapsed().as_micros() as u64);
}

/// Builder-style front end over a borrowed [`AsGraph`]. Each call takes
/// the engine's view of the graph once ([`TopologySnapshot`]), so every
/// run, sweep and context of it computes on the topology's pooled
/// scratch.
///
/// ```
/// use flatnet_asgraph::{AsGraphBuilder, AsId, Relationship};
/// use flatnet_bgpsim::Simulation;
///
/// let mut b = AsGraphBuilder::new();
/// b.add_link(AsId(1), AsId(2), Relationship::P2c);
/// let g = b.build();
/// let origin = g.index_of(AsId(2)).unwrap();
/// let out = Simulation::over(&g).run(origin);
/// assert_eq!(out.reachable_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Simulation<'s> {
    graph: &'s AsGraph,
    cfg: PropagationConfig,
    threads: usize,
    /// Kernel lane width for [`Self::sweep`]; `Auto`
    /// (default) picks the widest width the CPU runs well and clamps to
    /// the sweep's origin count (see [`LaneWidth`]).
    lane_width: LaneWidth,
}

impl<'s> Simulation<'s> {
    /// Starts a simulation over `g` with default config (no
    /// restrictions, auto thread count for sweeps, auto lane width).
    pub fn over(g: &'s AsGraph) -> Self {
        Simulation {
            graph: g,
            cfg: PropagationConfig::default(),
            threads: 0,
            lane_width: LaneWidth::Auto,
        }
    }

    /// Replaces the whole propagation config.
    pub fn config(mut self, cfg: PropagationConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the excluded-node mask (`true` = removed from the topology).
    pub fn excluded(mut self, mask: Vec<bool>) -> Self {
        self.cfg = self.cfg.with_excluded(mask);
        self
    }

    /// Worker threads for [`Self::run_sweep_map`] and [`Self::sweep`];
    /// `0` (default) uses the available parallelism.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Pins the kernel lane width for [`Self::sweep`] (origins per
    /// bit-parallel block: 64/128/256) — for benchmarks and differential
    /// tests that compare widths. Everything shipped leaves the default
    /// [`LaneWidth::Auto`], which derives the width from detected CPU
    /// features. The width never changes what a sweep keeps, only its
    /// throughput; whatever is selected is clamped down for sweeps whose
    /// origin count fits a narrower block (`LaneWidth::words_for`).
    pub fn lane_width(mut self, width: LaneWidth) -> Self {
        self.lane_width = width;
        self
    }

    /// A worker context for manual batching, checked out of the
    /// topology's pool with this simulation's config copied in;
    /// [`Self::run_sweep_map`] checks out one per worker itself.
    pub fn ctx(&self) -> SweepCtx {
        SweepCtx::lend(TopologySnapshot::compile(self.graph), &self.cfg)
    }

    /// Propagates a single origin on a pooled context, returning an
    /// owned copy of the outcome.
    pub fn run(&self, origin: NodeId) -> RoutingOutcome {
        self.ctx().run(origin).to_outcome()
    }

    /// Sweeps `origins`, reducing each run inside the worker via `f` —
    /// the zero-copy form: `f` reads the worker's [`Workspace`] and
    /// returns only what the caller keeps (a count, a fraction, ...).
    ///
    /// A panic in `f` aborts the sweep naming the offending item.
    pub fn run_sweep_map<R, F>(&self, origins: &[NodeId], f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut SweepCtx, NodeId) -> R + Sync,
    {
        let snap = TopologySnapshot::compile(self.graph);
        let lend = || SweepCtx::lend(snap.clone(), &self.cfg);
        parallel::parallel_map_ctx(origins, self.threads, lend, |ctx, &o| f(ctx, o))
    }

    /// Sweeps `origins` through the bit-parallel kernel
    /// (`crate::lanes`) and keeps what `keep` reads off each finished
    /// block: [`Counts`] (the counts alone), [`Words`] (each origin's
    /// reach bitset) or [`Sets`] (each origin's [`ReachSet`]). Origins
    /// are chunked into 64/128/256-lane blocks (per
    /// [`Self::lane_width`]), each block advances all its origins in one
    /// lane-vector frontier expansion, and the blocks fan out over
    /// [`crate::parallel`], one pooled lane workspace per worker. What is
    /// kept, and every count, is bit-identical to per-origin
    /// [`Workspace`] runs under the same config at every width. Reach
    /// sets only: [`Self::run`] and [`Self::run_sweep_map`] have the
    /// distances, selections and tie paths.
    ///
    /// `fill` runs once per origin and installs that origin's exclusions
    /// through a [`LaneExcluder`], on top of the config's shared mask —
    /// the word-parallel analogue of refilling
    /// [`PropagationConfig::excluded_mask_mut`] per origin; `|_, _| {}`
    /// installs none. A panic in `fill` kills only its own lane; the
    /// sweep then returns the lowest-index failure, indexed into
    /// `origins`.
    ///
    /// ```
    /// use flatnet_asgraph::{AsGraphBuilder, AsId, Relationship};
    /// use flatnet_bgpsim::{Counts, Simulation};
    ///
    /// let mut b = AsGraphBuilder::new();
    /// b.add_link(AsId(1), AsId(2), Relationship::P2c);
    /// b.add_link(AsId(1), AsId(3), Relationship::P2c);
    /// let g = b.build();
    /// let origins: Vec<_> = g.nodes().collect();
    /// let top = g.index_of(AsId(1)).unwrap();
    /// // Every origin but AS 1 loses AS 1, and with it every other AS.
    /// let sim = Simulation::over(&g);
    /// let swept = sim.sweep(&origins, |o, ex| if o != top { ex.exclude(top) }, Counts).unwrap();
    /// assert_eq!(swept.counts, [2, 0, 0]);
    /// ```
    pub fn sweep<K, F>(
        &self,
        origins: &[NodeId],
        fill: F,
        keep: K,
    ) -> Result<Sweep<K::Set>, SweepError>
    where
        K: Keep,
        F: Fn(NodeId, &mut LaneExcluder<'_>) + Sync,
    {
        match self.lane_width.words_for(origins.len()) {
            1 => self.sweep_w::<1, K, F>(origins, fill, keep),
            2 => self.sweep_w::<2, K, F>(origins, fill, keep),
            _ => self.sweep_w::<4, K, F>(origins, fill, keep),
        }
    }

    /// [`Self::sweep`] at width `W`: chunk the origins into blocks, run
    /// each on a [`LaneWorkspace<W>`] checked out of the topology's pool
    /// with every lane's `fill` under its own `catch_unwind`, and string
    /// the blocks' counts and what `keep` reads off them together in
    /// origin order. A reach set leaves a block once, read off the
    /// block's route words as the value the caller ends up owning; no
    /// lane-major copy of a block exists. A lane whose fill panicked is
    /// killed — an excluded origin yields the empty outcome, so a
    /// half-run fill's exclusions cannot leak into a result — and its
    /// block reports the first such lane; a panic in the kernel itself
    /// fails its block from the block's first lane.
    fn sweep_w<const W: usize, K, F>(
        &self,
        origins: &[NodeId],
        fill: F,
        keep: K,
    ) -> Result<Sweep<K::Set>, SweepError>
    where
        Lanes<W>: LaneArity,
        LaneWorkspace<W>: PooledLaneWs,
        K: Keep,
        F: Fn(NodeId, &mut LaneExcluder<'_>) + Sync,
    {
        let snap = TopologySnapshot::compile(self.graph);
        let blocks: Vec<&[NodeId]> = origins.chunks(LaneWorkspace::<W>::BLOCK_LANES).collect();
        let parts = parallel::try_parallel_map_ctx(
            &blocks,
            self.threads,
            || LaneWorkspace::<W>::pool(snap.scratch()).checkout(|| LaneWorkspace::for_snapshot(&snap)),
            |ws, block| {
                let (mut lane, mut failed) = (0usize, None);
                let guarded = |o: NodeId, ex: &mut LaneExcluder<'_>| {
                    let run = std::panic::AssertUnwindSafe(|| fill(o, &mut *ex));
                    if let Err(payload) = std::panic::catch_unwind(run) {
                        let message = parallel::panic_message(payload.as_ref());
                        failed.get_or_insert(SweepError { index: lane, message });
                        ex.exclude(o);
                    }
                    lane += 1;
                };
                ws.run_block(&snap, block, &self.cfg, guarded);
                if let Some(e) = failed {
                    return Err(e);
                }
                let mut part = Sweep::with_capacity(block.len());
                keep.block(ws, &mut part.kept);
                part.counts.extend((0..block.len()).map(|k| ws.lane_reachable_count(k) as u32));
                Ok(part)
            },
        );
        let mut out = Sweep::with_capacity(if blocks.len() > 1 { origins.len() } else { 0 });
        let mut base = 0;
        for (block, part) in blocks.iter().zip(parts) {
            let part = part
                .map_err(|kernel| SweepError { index: 0, ..kernel })
                .and_then(|lanes| lanes)
                .map_err(|e| SweepError { index: base + e.index, ..e })?;
            // The common sweep is one block (a serve batch): it is the result.
            if blocks.len() == 1 {
                return Ok(part);
            }
            out.kept.extend(part.kept);
            out.counts.extend(part.counts);
            base += block.len();
        }
        Ok(out)
    }

    /// [`Self::sweep`] keeping [`Words`], as a [`SweepReach`]; panics
    /// with the sweep's failure. A one-expression wrapper kept only
    /// because the `benchmark/` package calls it.
    pub fn run_sweep_reach(&self, origins: &[NodeId]) -> SweepReach {
        SweepReach::new(
            origins,
            self.sweep(origins, |_, _| {}, Words).unwrap_or_else(|e| panic!("{e}")).kept,
        )
    }

    /// [`Self::sweep`] keeping [`Words`] under `fill`, as a
    /// [`SweepReach`]; panics with the sweep's failure. A one-expression
    /// wrapper kept only because the `benchmark/` package calls it.
    pub fn run_sweep_reach_with<F>(&self, origins: &[NodeId], fill: F) -> SweepReach
    where
        F: Fn(NodeId, &mut LaneExcluder<'_>) + Sync,
    {
        SweepReach::new(
            origins,
            self.sweep(origins, fill, Words).unwrap_or_else(|e| panic!("{e}")).kept,
        )
    }

    /// [`Self::sweep`]'s counts under [`Counts`]; panics with the sweep's
    /// failure. A one-expression wrapper kept only because the
    /// `benchmark/` package calls it.
    pub fn run_sweep_reach_counts(&self, origins: &[NodeId]) -> Vec<u32> {
        self.sweep(origins, |_, _| {}, Counts).unwrap_or_else(|e| panic!("{e}")).counts
    }

    /// [`Self::sweep`]'s counts under [`Counts`] and `fill`; panics with
    /// the sweep's failure. A one-expression wrapper kept only because
    /// the `benchmark/` package calls it.
    pub fn run_sweep_reach_counts_with<F>(&self, origins: &[NodeId], fill: F) -> Vec<u32>
    where
        F: Fn(NodeId, &mut LaneExcluder<'_>) + Sync,
    {
        self.sweep(origins, fill, Counts).unwrap_or_else(|e| panic!("{e}")).counts
    }
}

/// What a lane sweep keeps of each origin beside its reachable count:
/// the argument that picks [`Simulation::sweep`]'s read-out — [`Counts`],
/// [`Words`] or [`Sets`]. Each reads a finished block straight off its
/// route words. Sealed: the read-outs are this crate's.
pub trait Keep: sealed::ReadOut {}

impl<K: sealed::ReadOut> Keep for K {}

mod sealed {
    use super::*;

    /// The block read-out behind a [`Keep`].
    pub trait ReadOut: Sync {
        /// What is kept of one origin.
        type Set: Send;

        /// Reads `ws`'s finished block out: appends what is kept of each
        /// lane to `kept`, in lane order, and takes the block's counts.
        fn block<const W: usize>(&self, ws: &mut LaneWorkspace<W>, kept: &mut Vec<Self::Set>)
        where
            Lanes<W>: LaneArity;
    }
}

use sealed::ReadOut;

/// What [`Simulation::sweep`] keeps, in origin order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sweep<S> {
    /// What the [`Keep`] read-out kept of each origin.
    pub kept: Vec<S>,
    /// Each origin's reachable count, origin excluded.
    pub counts: Vec<u32>,
}

impl<S> Sweep<S> {
    fn with_capacity(origins: usize) -> Self {
        Sweep { kept: Vec::with_capacity(origins), counts: Vec::with_capacity(origins) }
    }
}

/// Keeps the counts alone: a `Sweep<()>`, whose `kept` takes no memory.
#[derive(Debug, Clone, Copy)]
pub struct Counts;

impl ReadOut for Counts {
    type Set = ();

    fn block<const W: usize>(&self, ws: &mut LaneWorkspace<W>, kept: &mut Vec<()>)
    where
        Lanes<W>: LaneArity,
    {
        ws.count();
        kept.resize(kept.len() + ws.block_len(), ());
    }
}

/// Keeps each origin's reach bitset, in the layout of
/// [`RoutingOutcome::reach_words`] (bit = node index, origin bit set,
/// tail bits zero): a `Sweep<Vec<u64>>`.
#[derive(Debug, Clone, Copy)]
pub struct Words;

impl ReadOut for Words {
    type Set = Vec<u64>;

    fn block<const W: usize>(&self, ws: &mut LaneWorkspace<W>, kept: &mut Vec<Vec<u64>>)
    where
        Lanes<W>: LaneArity,
    {
        ws.emit_words(kept);
    }
}

/// Keeps each origin's [`ReachSet`] by its shorter side, encoded straight
/// off the block's route words, so a block of full-reach origins never
/// exists as a block of bitsets: a `Sweep<ReachSet>`.
#[derive(Debug, Clone, Copy)]
pub struct Sets;

impl ReadOut for Sets {
    type Set = ReachSet;

    fn block<const W: usize>(&self, ws: &mut LaneWorkspace<W>, kept: &mut Vec<ReachSet>)
    where
        Lanes<W>: LaneArity,
    {
        ws.emit_reach_sets(kept);
    }
}

/// Keeps each origin's reached share of the topology, as
/// [`crate::leak::subprefix_detour_fractions`] scores a hijack: its
/// reach count over the node count, or with `weights` its weight mass
/// over theirs, summed in ascending node order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fractions<'w> {
    pub(crate) weights: Option<&'w [f64]>,
}

impl ReadOut for Fractions<'_> {
    type Set = f64;

    fn block<const W: usize>(&self, ws: &mut LaneWorkspace<W>, kept: &mut Vec<f64>)
    where
        Lanes<W>: LaneArity,
    {
        ws.emit_fractions(self.weights, kept);
    }
}

/// The reach bitsets of a [`Words`] sweep beside its origins, for the
/// two wrappers over [`Simulation::sweep`] that return it — kept only
/// because the `benchmark/` package reads them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepReach {
    origins: Vec<NodeId>,
    sets: Vec<Vec<u64>>,
}

impl SweepReach {
    fn new(origins: &[NodeId], sets: Vec<Vec<u64>>) -> Self {
        SweepReach { origins: origins.to_vec(), sets }
    }

    /// Number of origins swept.
    pub fn len(&self) -> usize {
        self.origins.len()
    }

    /// Whether the sweep covered no origins.
    pub fn is_empty(&self) -> bool {
        self.origins.is_empty()
    }

    /// The `i`-th swept origin.
    pub fn origin(&self, i: usize) -> NodeId {
        self.origins[i]
    }

    /// Origin `i`'s reach bitset, as [`Words`] keeps it.
    pub fn reach_words(&self, i: usize) -> &[u64] {
        &self.sets[i]
    }
}

/// What one scalar run computes on, pooled on the topology: a workspace
/// and the config it runs under.
#[derive(Debug, Default)]
pub(crate) struct ScalarCtx {
    pub(crate) ws: Workspace,
    pub(crate) cfg: PropagationConfig,
}

/// One worker's state for a sweep: the engine's view of the graph and a
/// scalar context taken from the topology's pool — a private config
/// (whose masks may be refilled per origin via
/// [`PropagationConfig::excluded_mask_mut`]) and a private workspace —
/// plus a reliance kernel, taken from its own pool on the first
/// [`Self::run_reliance`]. Both go back to the topology's pools on drop.
#[derive(Debug)]
pub struct SweepCtx {
    snap: TopologySnapshot,
    scalar: ScalarCtx,
    rely: Option<RelianceWorkspace>,
}

impl SweepCtx {
    /// Takes a context from `snap`'s pool with exactly `cfg`'s policy:
    /// copied into the lent config's buffers, so nothing an earlier
    /// holder installed survives and, once warm, nothing is allocated.
    pub(crate) fn lend(snap: TopologySnapshot, cfg: &PropagationConfig) -> Self {
        let mut scalar = snap.scratch().scalar.take(|| ScalarCtx {
            ws: Workspace::for_snapshot(&snap),
            cfg: PropagationConfig::default(),
        });
        scalar.cfg.clone_from(cfg);
        SweepCtx { snap, scalar, rely: None }
    }

    /// The graph this context runs over.
    pub(crate) fn graph(&self) -> &AsGraph {
        &self.snap
    }

    /// This worker's propagation config.
    pub fn config(&self) -> &PropagationConfig {
        &self.scalar.cfg
    }

    /// Mutable access to this worker's config, e.g. to refill the
    /// exclusion mask for the next origin without reallocating.
    pub fn config_mut(&mut self) -> &mut PropagationConfig {
        &mut self.scalar.cfg
    }

    /// The workspace holding the most recent run.
    pub(crate) fn workspace(&self) -> &Workspace {
        &self.scalar.ws
    }

    /// The engine's view this context runs over.
    pub(crate) fn snapshot(&self) -> &TopologySnapshot {
        &self.snap
    }

    /// Propagates `origin` under the current config, reusing this
    /// worker's buffers; returns the workspace holding the result.
    pub fn run(&mut self, origin: NodeId) -> &Workspace {
        let ScalarCtx { ws, cfg } = &mut self.scalar;
        run_into(&self.snap, origin, &cfg.view(), ws);
        ws
    }

    /// Propagates `origin` under the current config and scores
    /// `rely(origin, ·)` from the run, reusing this worker's buffers;
    /// returns the kernel holding the scores, the receiver count and the
    /// ranking buffer ([`RelianceWorkspace::top`]).
    pub fn run_reliance(&mut self, origin: NodeId) -> &mut RelianceWorkspace {
        self.run(origin);
        let SweepCtx { snap, scalar, rely } = self;
        let rely = rely.get_or_insert_with(|| snap.scratch().reliance.take(RelianceWorkspace::new));
        rely.score(snap, &scalar.ws, &scalar.cfg);
        rely
    }
}

impl Drop for SweepCtx {
    /// Returns the scalar context and the reliance kernel to the
    /// topology's pools.
    fn drop(&mut self) {
        let scratch = self.snap.scratch();
        scratch.scalar.put(std::mem::take(&mut self.scalar));
        if let Some(rely) = self.rely.take() {
            scratch.reliance.put(rely);
        }
    }
}

/// `g` built again from its canonical edges: the same graph as another
/// topology, so a snapshot of it starts with empty scratch pools — the
/// fresh leg a test compares a pooled run with.
#[cfg(test)]
pub(crate) fn rebuilt(g: &AsGraph) -> AsGraph {
    AsGraph::from_canonical_edges(g.asns().map(|a| a.0).collect(), g.edges())
        .expect("a graph's own edges are canonical")
}

#[cfg(test)]
mod tests {
    use super::*;
    use flatnet_asgraph::{AsGraphBuilder, AsId, Relationship};

    /// `(a, b, rel)`: for `P2c`, `a` provides transit to `b`.
    const DIAMOND: [(u32, u32, Relationship); 6] = [
        (2, 1, Relationship::P2c),
        (3, 1, Relationship::P2c),
        (4, 2, Relationship::P2c),
        (4, 3, Relationship::P2c),
        (4, 5, Relationship::P2p),
        (5, 6, Relationship::P2c),
    ];

    fn diamond() -> AsGraph {
        let mut b = AsGraphBuilder::new();
        for (x, y, rel) in DIAMOND {
            b.add_link(AsId(x), AsId(y), rel);
        }
        b.build()
    }

    /// The view's ranges are the graph's: one block, not two copies
    /// that agree.
    #[test]
    fn snapshot_ranges_match_graph_adjacency() {
        let g = diamond();
        let snap = TopologySnapshot::compile(&g);
        assert_eq!((snap.len(), snap.edge_entries()), (g.len(), 2 * g.edge_count()));
        let (snap2, g2) = (snap.clone(), g.clone());
        let same = |a: &[NodeId], b: &[NodeId]| std::ptr::eq(a, b);
        // Each class against the declared links, filtered naively.
        let node = |asn: u32| g.index_of(AsId(asn)).unwrap();
        for u in g.nodes() {
            let class = |pick: &dyn Fn(NodeId, NodeId, Relationship) -> Option<NodeId>| {
                let mut v: Vec<NodeId> =
                    DIAMOND.iter().filter_map(|&(a, b, rel)| pick(node(a), node(b), rel)).collect();
                v.sort_unstable();
                v
            };
            let custs = class(&|a, b, rel| (rel == Relationship::P2c && a == u).then_some(b));
            let provs = class(&|a, b, rel| (rel == Relationship::P2c && b == u).then_some(a));
            let peers = class(&|a, b, rel| match rel {
                Relationship::P2p if a == u => Some(b),
                Relationship::P2p if b == u => Some(a),
                _ => None,
            });
            assert_eq!(snap.customers(u), custs, "customers of {u}");
            assert_eq!(snap.peers(u), peers, "peers of {u}");
            assert_eq!(snap.providers(u), provs, "providers of {u}");
            assert_eq!(snap.has_customers(u.0), !custs.is_empty(), "customer bit of {u}");
            // One block: the view's slices, the graph's and their
            // clones' are the same memory.
            assert!(same(snap.customers(u), g.customers(u)) && same(snap2.peers(u), g2.peers(u)));
            assert!(same(snap.providers(u), g2.providers(u)), "providers of {u}");
        }
    }

    #[test]
    fn sweep_reuses_buffers_and_matches_single_runs() {
        let g = diamond();
        let sim = Simulation::over(&g).threads(2);
        let origins: Vec<NodeId> = g.nodes().collect();
        let counts = sim.run_sweep_map(&origins, |ctx, o| ctx.run(o).reachable_count());
        for (o, &c) in origins.iter().zip(&counts) {
            assert_eq!(c, sim.run(*o).reachable_count(), "origin {o}");
        }
    }

    #[test]
    fn ctx_mask_refill_equals_fresh_configs() {
        let g = diamond();
        let sim = Simulation::over(&g);
        let mut ctx = sim.ctx();
        let origin = g.index_of(AsId(1)).unwrap();
        let banned = g.index_of(AsId(2)).unwrap();
        // First run with node 2 excluded, second with a clean mask: the
        // refilled mask must not leak the previous origin's exclusions.
        let mask = ctx.config_mut().excluded_mask_mut(g.len());
        mask.fill(false);
        mask[banned.idx()] = true;
        let with_excl = ctx.run(origin).reachable_count();
        ctx.config_mut().excluded_mask_mut(g.len()).fill(false);
        let clean = ctx.run(origin).reachable_count();
        assert_eq!(clean, sim.run(origin).reachable_count());
        assert!(with_excl < clean);
    }

    /// A scalar run's footprint as a rule: one selection word, one touched
    /// entry and a reach bit a node, plus the queues — at most 12 B a node
    /// however far the runs reached. The reliance kernel reads that
    /// selection in place: beside its per-node scores, path counts and
    /// offer slots (20 B a node) it holds only lists of receivers, hops
    /// and offers (about 20 B a node at full reach on this graph), so a
    /// per-node copy of the selection (4 B more) crosses its 42 B cap.
    #[test]
    fn a_run_holds_one_selection_word_a_node() {
        let net = flatnet_netgen::generate(&flatnet_netgen::NetGenConfig::paper_2020(20_000, 1));
        let n = net.truth.len();
        let cfg = PropagationConfig::default();
        let mut ws = Workspace::new();
        let mut rely = RelianceWorkspace::new();
        let (mut worst_run, mut worst_rely) = (0, 0);
        for o in (0..n as u32).step_by(97).map(NodeId) {
            ws.run(&net.truth, o, &cfg);
            rely.score(&net.truth, &ws, &cfg);
            worst_run = worst_run.max(ws.heap_bytes());
            worst_rely = worst_rely.max(rely.heap_bytes());
        }
        assert!(worst_run <= 12 * n, "a workspace held {worst_run} B over {n} nodes");
        assert!(worst_rely <= 42 * n, "a reliance kernel held {worst_rely} B over {n} nodes");
    }

    /// A panicking `fill` kills only its own lane, at every width: with
    /// the lanes of origins #3 and #69 both panicking — one block apart
    /// at 64 lanes, in one block wider — the sweep returns the
    /// lowest-index failure and its message, and the same sweep without
    /// the panics, run again on the workspaces the failed one returned,
    /// is unchanged and equal to per-origin scalar runs. The plain
    /// wrappers re-raise the failure, naming the origin's index.
    #[test]
    fn lane_sweep_attributes_fill_panics_to_their_origin() {
        let g = diamond();
        // 70 origins, AS 3 (node 2) only at #3 and #69.
        let origins: Vec<NodeId> =
            (0..70).map(|i| NodeId(if i == 3 || i == 69 { 2 } else { [0, 1, 3, 4, 5][i % 5] })).collect();
        let fill = |panics: bool| {
            move |o: NodeId, ex: &mut LaneExcluder<'_>| {
                ex.exclude(NodeId((o.0 + 1) % 6));
                assert!(!(panics && o.0 == 2), "bad origin {o}");
                ex.allow(o);
            }
        };
        let mut ws = Workspace::for_snapshot(&g);
        let scalar: Vec<u32> = origins
            .iter()
            .map(|&o| {
                let mut mask = vec![false; g.len()];
                mask[(o.idx() + 1) % 6] = true;
                ws.run(&g, o, &PropagationConfig::new().with_excluded(mask));
                ws.reachable_count() as u32
            })
            .collect();
        for width in [LaneWidth::W64, LaneWidth::W128, LaneWidth::W256] {
            let sim = Simulation::over(&g).threads(2).lane_width(width);
            let before = sim.sweep(&origins, fill(false), Counts).unwrap();
            assert_eq!(before.counts, scalar, "{width:?}");
            let failed = sim.sweep(&origins, fill(true), Counts).unwrap_err();
            assert_eq!(failed.index, 3, "{width:?}");
            assert!(failed.message.contains("bad origin"), "{width:?}: {failed}");
            assert_eq!(sim.sweep(&origins, fill(false), Counts), Ok(before), "{width:?}");
            let words = || drop(sim.run_sweep_reach_with(&origins, fill(true)));
            let counts = || drop(sim.run_sweep_reach_counts_with(&origins, fill(true)));
            for wrapper in [&words as &dyn Fn(), &counts] {
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(wrapper));
                let msg = parallel::panic_message(caught.unwrap_err().as_ref());
                assert!(msg.contains("sweep item 3 panicked: bad origin"), "{width:?}: {msg}");
            }
        }
    }
}
