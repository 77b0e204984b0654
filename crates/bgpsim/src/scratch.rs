//! Topology-scoped scratch: every per-run buffer that outlives a request
//! has one owner, the topology it was sized for — the graph's shared
//! block, which the engine's view
//! ([`TopologySnapshot`](crate::engine::TopologySnapshot)) of the graph
//! or of any clone of it reaches.
//!
//! The lane kernel's [`LaneWorkspace`]s (one pool per width), the
//! [`ScalarCtx`]s (a workspace and its config) every
//! [`SweepCtx`](crate::engine::SweepCtx) and leak side runs on, and the
//! [`RelianceWorkspace`]s are sized by the topology's node count and are
//! expensive to create — about 50 B/node for a 256-lane workspace (at
//! 20 000 ASes; one route word a node, its lists and a customer-lane
//! list bounded by the nodes with a customer — a block's reach sets are
//! read straight off the words, never staged in the workspace), all of
//! it first-touch page faults — but carry no result between runs. Owned by
//! whoever ran the sweep (a `Simulation`, a `LeakSim`, a serve worker),
//! they were paid for per request or kept past the topology they were
//! sized for. Owned by one compiled handle, they were paid for again by
//! every entry point that compiles the graph it is handed (a reliance
//! profile or a leak CDF per call), and each call's freed buffers stayed
//! resident as allocator slack. Attached to the topology
//! ([`AsGraph::attachment`](flatnet_asgraph::AsGraph::attachment)), they
//! live exactly as long as what they are sized for: every compile and
//! clone of one graph, and every sweep, leak simulation and serve request
//! over any of them, shares them, and they are freed with the last handle
//! on the topology (on a serve hot-reload that builds a new graph, when
//! the last in-flight query drops the old `Arc`).
//!
//! Each pool keeps a bounded number of idle items, so a burst of
//! concurrent sweeps cannot pin more scratch than steady parallel use
//! needs; a return beyond the bound is simply dropped, which is what
//! every return did before the pools existed. Lane workspaces are bounded
//! at one per core ([`cores`]): a sweep fans its blocks out over at most
//! that many workers, and a daemon that sweeps single-threaded per
//! request runs at most that many request workers. Scalar contexts are
//! bounded at cores × (cores + 1): a leak CDF holds one victim side on
//! its calling thread and fans out one leaker side per core beneath it,
//! so a daemon with one request worker per core holds that many in
//! steady use. A bound one step too small is not harmless: with leak
//! buffers bounded at cores, one leak query in eleven on the 2-core
//! reference box found the pool empty and sized fresh buffers, +25 MB of
//! resident allocator slack. Reliance workspaces have the same bound in
//! a pool of their own, so the idle ones never outnumber the most
//! reliance solves that ran at once.

use crate::engine::ScalarCtx;
use crate::lanes::LaneWorkspace;
use crate::reliance::RelianceWorkspace;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The machine's available parallelism, read once (the query walks
/// cgroup files, far too slow for every return to a pool).
pub(crate) fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A stack of idle scratch items that keeps at most `bound` of them.
pub(crate) struct Pool<T> {
    idle: Mutex<Vec<T>>,
    bound: usize,
}

impl<T> fmt::Debug for Pool<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pool({} idle of at most {})", self.lock().len(), self.bound)
    }
}

/// Heap bytes `v` holds at capacity.
pub(crate) fn cap_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

impl<T> Pool<T> {
    fn with_bound(bound: usize) -> Self {
        Pool { idle: Mutex::new(Vec::new()), bound }
    }

    /// The idle stack. A push or pop leaves it valid at every step, so a
    /// lock poisoned by a panicking holder is safe to keep using.
    fn lock(&self) -> MutexGuard<'_, Vec<T>> {
        self.idle.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Takes an idle item, or builds one with `make` when none is idle;
    /// the guard returns it when dropped.
    pub(crate) fn checkout(&self, make: impl FnOnce() -> T) -> Checkout<'_, T> {
        Checkout { item: Some(self.take(make)), pool: self }
    }

    /// Takes an idle item, or builds one with `make` when none is idle,
    /// for a holder that owns the topology's handle and [`Self::put`]s
    /// the item back itself (a [`SweepCtx`](crate::engine::SweepCtx)).
    pub(crate) fn take(&self, make: impl FnOnce() -> T) -> T {
        let idle = self.lock().pop();
        idle.unwrap_or_else(make)
    }

    /// Returns `item` as idle — unless the thread is panicking, when the
    /// item is dropped instead, or the pool already keeps its bound.
    /// Items reset themselves at the start of their next run, so one
    /// returned after a caught panic inside a run is still clean to
    /// reuse.
    pub(crate) fn put(&self, item: T) {
        if std::thread::panicking() {
            return;
        }
        let mut idle = self.lock();
        if idle.len() < self.bound {
            idle.push(item);
        }
    }

    fn bytes(&self, heap_bytes: impl Fn(&T) -> usize) -> usize {
        self.lock().iter().map(|item| std::mem::size_of::<T>() + heap_bytes(item)).sum()
    }

    #[cfg(test)]
    fn idle(&self) -> usize {
        self.lock().len()
    }
}

/// An item checked out of a [`Pool`]; dereferences to it and
/// [`Pool::put`]s it back on drop.
#[derive(Debug)]
pub(crate) struct Checkout<'p, T> {
    item: Option<T>,
    pool: &'p Pool<T>,
}

impl<T> Deref for Checkout<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.item.as_ref().expect("item present until drop")
    }
}

impl<T> DerefMut for Checkout<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.item.as_mut().expect("item present until drop")
    }
}

impl<T> Drop for Checkout<'_, T> {
    fn drop(&mut self) {
        if let Some(item) = self.item.take() {
            self.pool.put(item);
        }
    }
}

/// The scratch one topology owns. Starts empty when the graph is first
/// compiled and fills as sweeps return what they sized; every later
/// compile or clone of the graph finds what is idle.
#[derive(Debug)]
pub(crate) struct Scratch {
    pub(crate) lanes1: Pool<LaneWorkspace<1>>,
    pub(crate) lanes2: Pool<LaneWorkspace<2>>,
    pub(crate) lanes4: Pool<LaneWorkspace<4>>,
    pub(crate) scalar: Pool<ScalarCtx>,
    pub(crate) reliance: Pool<RelianceWorkspace>,
}

impl Default for Scratch {
    fn default() -> Self {
        Scratch {
            lanes1: Pool::with_bound(cores()),
            lanes2: Pool::with_bound(cores()),
            lanes4: Pool::with_bound(cores()),
            scalar: Pool::with_bound(cores() * (cores() + 1)),
            reliance: Pool::with_bound(cores() * (cores() + 1)),
        }
    }
}

impl Scratch {
    /// Bytes the idle items hold, buffers at capacity.
    pub(crate) fn bytes(&self) -> usize {
        self.lanes1.bytes(LaneWorkspace::heap_bytes)
            + self.lanes2.bytes(LaneWorkspace::heap_bytes)
            + self.lanes4.bytes(LaneWorkspace::heap_bytes)
            + self.scalar.bytes(|c| c.ws.heap_bytes() + c.cfg.heap_bytes())
            + self.reliance.bytes(RelianceWorkspace::heap_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{rebuilt, Counts, Sets, Simulation, TopologySnapshot, Words};
    use crate::lanes::{LaneExcluder, LaneWidth};
    use crate::leak::{LeakScenario, LeakSim};
    use flatnet_asgraph::{AsGraph, AsGraphBuilder, AsId, NodeId, Relationship};
    use std::sync::Barrier;

    #[test]
    fn pool_reuses_returns_and_drops_beyond_its_bound() {
        let bound = 3;
        let pool: Pool<Vec<u8>> = Pool::with_bound(bound);
        // More concurrent checkouts than the bound: all are fresh.
        let mut out: Vec<Checkout<'_, Vec<u8>>> =
            (0..bound + 3).map(|_| pool.checkout(|| Vec::with_capacity(64))).collect();
        for (i, item) in out.iter_mut().enumerate() {
            item.push(i as u8);
        }
        drop(out);
        assert_eq!(pool.idle(), bound, "returns beyond the bound are dropped");
        assert_eq!(pool.bytes(Vec::capacity), bound * (std::mem::size_of::<Vec<u8>>() + 64));
        // The next checkout is one of the returned items, not a new one.
        let again = pool.checkout(|| unreachable!("an idle item exists"));
        assert_eq!(again.len(), 1);
    }

    #[test]
    fn a_checkout_dropped_while_unwinding_is_not_returned() {
        let pool: Pool<Vec<u8>> = Pool::with_bound(4);
        drop(pool.checkout(Vec::new));
        assert_eq!(pool.idle(), 1);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut half_run = pool.checkout(|| unreachable!("an idle item exists"));
            half_run.push(7);
            panic!("the run is cut short");
        }));
        assert!(unwound.is_err());
        assert_eq!(pool.idle(), 0, "the half-run item was dropped, not returned");
        // A checkout that outlives a caught panic goes back as usual.
        let held = pool.checkout(Vec::new);
        assert!(std::panic::catch_unwind(|| panic!("caught inside the run")).is_err());
        drop(held);
        assert_eq!(pool.idle(), 1);
    }

    /// A two-level hierarchy with a peering mesh on top: 4 transit ASes
    /// (1..=4, all peering), each with 5 customers.
    fn graph() -> AsGraph {
        let mut b = AsGraphBuilder::new();
        for t in 1..=4u32 {
            for u in t + 1..=4 {
                b.add_link(AsId(t), AsId(u), Relationship::P2p);
            }
            for c in 0..5 {
                b.add_link(AsId(t), AsId(10 * t + c), Relationship::P2c);
            }
        }
        b.build()
    }

    #[test]
    fn concurrent_sweeps_leave_at_most_the_bound_idle() {
        let g = graph();
        let snap = TopologySnapshot::compile(&g);
        let sweeps = cores() + 6;
        // Every sweep is inside its one lane's fill, workspace checked
        // out, before any of them goes on: `sweeps` workspaces exist at
        // once, and all of them are returned afterwards.
        let all_hold_one = Barrier::new(sweeps);
        std::thread::scope(|s| {
            for i in 0..sweeps {
                let (snap, all_hold_one) = (&snap, &all_hold_one);
                s.spawn(move || {
                    let sim = Simulation::over(snap).threads(1).lane_width(LaneWidth::W64);
                    let swept = sim.sweep(&[NodeId(i as u32 % 24)], |_, _| _ = all_hold_one.wait(), Counts);
                    assert_eq!(swept.unwrap().counts, [23]);
                });
            }
        });
        assert_eq!(snap.scratch().lanes1.idle(), cores(), "one per core is kept, the rest dropped");
        assert_eq!((snap.scratch().lanes2.idle(), snap.scratch().lanes4.idle()), (0, 0));
        assert!(snap.scratch_bytes() > 0);
        // Nothing follows a rebuild.
        assert_eq!(TopologySnapshot::compile(&rebuilt(&g)).scratch_bytes(), 0);
    }

    /// The pools follow the topology, not the handle: two compiles and a
    /// clone of one graph share one set — a workspace returned through
    /// one is idle in the others, and the next sweep through another
    /// sizes none — a graph rebuilt from the same edges starts with none,
    /// and the last handle on the topology, graph or snapshot, frees it.
    #[test]
    fn compiles_and_clones_of_one_graph_share_one_pool() {
        let g = graph();
        let (first, second) = (TopologySnapshot::compile(&g), TopologySnapshot::compile(&g.clone()));
        let cloned = first.clone();
        let origins: Vec<NodeId> = g.nodes().collect();
        let swept = Simulation::over(&first).threads(1).sweep(&origins, |_, _| {}, Words).unwrap();
        let bytes = first.scratch_bytes();
        for snap in [&second, &cloned] {
            assert_eq!((snap.scratch().lanes1.idle(), snap.scratch_bytes()), (1, bytes));
        }
        let again = Simulation::over(&second).threads(1).sweep(&origins, |_, _| {}, Words);
        assert_eq!(again, Ok(swept));
        assert_eq!((cloned.scratch().lanes1.idle(), cloned.scratch_bytes()), (1, bytes), "none was sized");
        assert_eq!(TopologySnapshot::compile(&rebuilt(&g)).scratch_bytes(), 0);

        let pools = first.attached();
        drop((first, second, cloned));
        assert!(pools.upgrade().is_some(), "the graph still holds its topology's pools");
        drop(g);
        assert!(pools.upgrade().is_none(), "the pools outlived the last handle on their topology");
    }

    #[test]
    fn simulations_over_one_snapshot_share_one_workspace() {
        let g = graph();
        let snap = TopologySnapshot::compile(&g);
        let origins: Vec<NodeId> = g.nodes().collect();
        let plain = Simulation::over(&snap).threads(1);
        let mut mask = vec![false; g.len()];
        mask[0] = true;
        let masked = Simulation::over(&snap).threads(1).excluded(mask.clone());
        let first = plain.sweep(&origins, |_, _| {}, Words).unwrap();
        assert_eq!(snap.scratch().lanes1.idle(), 1);
        let bytes = snap.scratch_bytes();
        let second = masked.sweep(&origins, |_, _| {}, Words).unwrap();
        assert_ne!(first, second);
        assert_eq!(snap.scratch().lanes1.idle(), 1, "the second simulation took the first's");
        assert!(snap.scratch_bytes() < 2 * bytes, "and sized no workspace of its own");
        // What the shared workspace computed is what a fresh one does.
        let fresh = TopologySnapshot::compile(&rebuilt(&g));
        assert_eq!(Ok(&second), masked.clone().sweep(&origins, |_, _| {}, Words).as_ref());
        let masked_fresh = Simulation::over(&fresh).threads(1).excluded(mask);
        assert_eq!(Ok(second), masked_fresh.sweep(&origins, |_, _| {}, Words));
    }

    #[test]
    fn a_panicking_fill_returns_a_clean_workspace() {
        let g = graph();
        let snap = TopologySnapshot::compile(&g);
        let origins: Vec<NodeId> = g.nodes().collect();
        let sim = Simulation::over(&snap).threads(1);
        let fill = |o: NodeId, ex: &mut LaneExcluder<'_>| {
            ex.exclude(NodeId((o.0 + 1) % 24));
            assert!(o.0 % 5 != 3, "bad origin {o}");
        };
        let failed = sim.sweep(&origins, fill, Counts).unwrap_err();
        assert_eq!(failed.index, 3, "the first of the five failures");
        assert_eq!(snap.scratch().lanes1.idle(), 1, "the workspace came back");
        // The next sweep runs on that workspace, half-installed
        // exclusions and all, and must not see any of it.
        let reused = sim.sweep(&origins, |_, _| {}, Words);
        assert_eq!(snap.scratch().lanes1.idle(), 1);
        let fresh = TopologySnapshot::compile(&rebuilt(&g));
        assert_eq!(reused, Simulation::over(&fresh).threads(1).sweep(&origins, |_, _| {}, Words));
    }

    #[test]
    fn leak_simulators_return_their_buffers() {
        let g = graph();
        let snap = TopologySnapshot::compile(&g);
        let node = |asn| g.index_of(AsId(asn)).unwrap();
        let locked = LeakScenario {
            victim_export: Some(vec![node(1)]),
            locking: vec![node(1), node(2)],
            ..LeakScenario::simple(node(10), node(31))
        };
        let plain = LeakScenario::simple(node(20), node(41));
        let bound = cores() * (cores() + 1);
        {
            // One victim side and a leaker side per worker: three sides
            // are out, and no idle workspace is parked beside any.
            let victim = locked.victim_side(&snap);
            let (mut a, mut b) = (victim.leakers(), victim.leakers());
            a.run(node(31));
            b.run(node(41));
            assert_eq!(snap.scratch().scalar.idle(), 0, "all three sides are out");
        }
        assert_eq!(snap.scratch().scalar.idle(), 3.min(bound));
        LeakSim::new(&snap).run_subprefix(&locked);
        assert_eq!(snap.scratch().scalar.idle(), 3.min(bound), "a simulator keeps nothing");
        let bytes = snap.scratch_bytes();
        // A simulator on returned sides — the locked scenario's
        // policies still in them — equals one on fresh buffers.
        let reused = LeakSim::new(&snap).run(&plain);
        let fresh = TopologySnapshot::compile(&rebuilt(&g));
        assert_eq!(reused.states(), LeakSim::new(&fresh).run(&plain).states());
        assert_eq!(snap.scratch().scalar.idle(), 3.min(bound));
        assert!(snap.scratch_bytes() < bytes + bytes / 4, "no fourth side was sized");
        // A sweep context takes a returned side, with none of its policy.
        let ctx_reach = Simulation::over(&snap).ctx().run(node(10)).reach_words().to_vec();
        assert_eq!(ctx_reach, Simulation::over(&fresh).run(node(10)).reach_words());
        assert_eq!(snap.scratch().scalar.idle(), 3.min(bound));
        assert_eq!(snap.scratch().reliance.idle(), 0, "no reliance kernel sized for a leak");
    }

    /// No sweep pools a workspace with a transposed output, whether it
    /// counts, keeps [`ReachSet`](crate::ReachSet)s or hands out words:
    /// at most (8·W + 16) B a node — one route word, the flag byte and
    /// three node lists, the rest slack for the struct itself — plus the
    /// side table, 64 B per origin of a block, and 8·W B per slot of the
    /// customer-lane list's bound (nodes with a customer, plus 64·W).
    /// One that kept a lane-major copy of its reach sets, or a second
    /// route word a node, would hold 8·W B a node more.
    #[test]
    fn no_sweep_pools_a_transposed_output() {
        let net = flatnet_netgen::generate(&flatnet_netgen::NetGenConfig::paper_2020(20_000, 1));
        let n = net.truth.len();
        let providers = net.truth.nodes().filter(|&u| !net.truth.customers(u).is_empty()).count();
        for width in [LaneWidth::W64, LaneWidth::W128, LaneWidth::W256] {
            let w = width.words();
            let block = 64 * w;
            let origins: Vec<NodeId> = (0..2 * block).map(|k| NodeId((k * n / (2 * block)) as u32)).collect();
            let cap = n * (8 * w + 16) + 64 * block + 8 * w * (providers + block);
            for kind in ["counts", "sets", "words"] {
                let g = rebuilt(&net.truth);
                let snap = TopologySnapshot::compile(&g);
                let sim = Simulation::over(&snap).threads(1).lane_width(width);
                let swept = match kind {
                    "counts" => sim.sweep(&origins, |_, _| {}, Counts).unwrap().kept.len(),
                    "sets" => sim.sweep(&origins, |_, _| {}, Sets).unwrap().kept.len(),
                    _ => sim.sweep(&origins, |_, _| {}, Words).unwrap().kept.len(),
                };
                assert_eq!(swept, origins.len());
                let held = snap.scratch_bytes();
                assert!(held <= cap, "W = {w}, {kind}: {held} B over {cap} ({n} nodes)");
            }
        }
    }

    #[test]
    fn reliance_kernels_are_pooled_apart_from_scalar_contexts() {
        let g = graph();
        let snap = TopologySnapshot::compile(&g);
        let sim = Simulation::over(&snap).threads(1);
        let mut plain = sim.ctx();
        plain.run(NodeId(0));
        drop(plain);
        assert_eq!((snap.scratch().scalar.idle(), snap.scratch().reliance.idle()), (1, 0));
        let scalar_bytes = snap.scratch_bytes();
        let origins: Vec<NodeId> = g.nodes().collect();
        let receivers = sim.run_sweep_map(&origins, |ctx, o| ctx.run_reliance(o).receivers());
        assert_eq!(receivers.len(), g.len());
        assert_eq!((snap.scratch().scalar.idle(), snap.scratch().reliance.idle()), (1, 1));
        assert!(snap.scratch_bytes() > scalar_bytes + 24 * g.len(), "the kernel is counted");
    }
}
