//! Snapshot-scoped scratch: every per-run buffer that outlives a request
//! has one owner, the [`TopologySnapshot`](crate::engine::TopologySnapshot)
//! it was sized for.
//!
//! The lane kernel's [`LaneWorkspace`]s (one pool per width) and the leak
//! simulator's [`LeakSide`]s are sized by the topology's node count and
//! are expensive to create — 174 B/node for a 256-lane workspace, all of
//! it first-touch page faults — but carry no result between runs. They
//! used to belong to whoever ran the sweep (a `Simulation` value, a
//! `LeakSim`), so a caller that builds those per request, as the serve
//! daemon does, paid for fresh buffers every time. Hanging the pools off
//! the compiled topology instead gives them exactly the lifetime of the
//! thing they are sized for: every `Simulation` and leak simulation over
//! one snapshot shares them, and they are freed with the snapshot (on a
//! serve hot-reload, when the last in-flight query drops the old `Arc`).
//!
//! The one exception to "one owner": the serve daemon's per-worker
//! `WorkerCtx` keeps a scalar `Workspace`, a `RelianceWorkspace` and a
//! `PropagationConfig` of its own across snapshots (pooling them here
//! would need the pooled config's masks lent and returned per request).
//! Those buffers are not in [`Scratch::bytes`].
//!
//! Each pool keeps a bounded number of idle items, so a burst of
//! concurrent sweeps cannot pin more scratch than steady parallel use
//! needs; a return beyond the bound is simply dropped, which is what
//! every return did before the pools existed. Lane workspaces are bounded
//! at one per core ([`cores`]): a sweep fans its blocks out over at most
//! that many workers, and a daemon that sweeps single-threaded per
//! request runs at most that many request workers. Leak sides are
//! bounded at cores × (cores + 1): a leak CDF holds one victim side on
//! its calling thread and fans out one leaker side per core beneath it,
//! so a daemon with one request worker per core holds that many in
//! steady use. A bound one step too small is not harmless: with leak
//! buffers bounded at cores, one leak query in eleven on the 2-core
//! reference box found the pool empty and sized fresh buffers, +25 MB of
//! resident allocator slack.

use crate::lanes::LaneWorkspace;
use crate::leak::LeakSide;
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
        let idle = self.lock().pop();
        Checkout { item: Some(idle.unwrap_or_else(make)), pool: self }
    }

    fn put(&self, item: T) {
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

/// An item checked out of a [`Pool`]; dereferences to it and returns it
/// on drop, including when the holder unwinds. Items reset themselves at
/// the start of their next run, so one returned mid-run is still clean
/// to reuse.
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

/// The scratch one compiled topology owns. Starts empty — after
/// `compile` and `clone` alike — and fills as sweeps return what they
/// sized.
#[derive(Debug)]
pub(crate) struct Scratch {
    pub(crate) lanes1: Pool<LaneWorkspace<1>>,
    pub(crate) lanes2: Pool<LaneWorkspace<2>>,
    pub(crate) lanes4: Pool<LaneWorkspace<4>>,
    pub(crate) leak: Pool<LeakSide>,
}

impl Default for Scratch {
    fn default() -> Self {
        Scratch {
            lanes1: Pool::with_bound(cores()),
            lanes2: Pool::with_bound(cores()),
            lanes4: Pool::with_bound(cores()),
            leak: Pool::with_bound(cores() * (cores() + 1)),
        }
    }
}

impl Clone for Scratch {
    /// Scratch is transient and holds no result; a cloned topology
    /// starts with none.
    fn clone(&self) -> Self {
        Scratch::default()
    }
}

impl Scratch {
    /// Bytes the idle items hold, buffers at capacity.
    pub(crate) fn bytes(&self) -> usize {
        self.lanes1.bytes(LaneWorkspace::heap_bytes)
            + self.lanes2.bytes(LaneWorkspace::heap_bytes)
            + self.lanes4.bytes(LaneWorkspace::heap_bytes)
            + self.leak.bytes(LeakSide::heap_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Simulation, TopologySnapshot};
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
                    let counts = sim
                        .run_sweep_reach_counts_with(&[NodeId(i as u32 % 24)], |_, _| {
                            all_hold_one.wait();
                        });
                    assert_eq!(counts, [23]);
                });
            }
        });
        assert_eq!(snap.scratch().lanes1.idle(), cores(), "one per core is kept, the rest dropped");
        assert_eq!((snap.scratch().lanes2.idle(), snap.scratch().lanes4.idle()), (0, 0));
        assert!(snap.scratch_bytes() > 0);
        // Nothing follows a clone.
        assert_eq!(snap.clone().scratch_bytes(), 0);
    }

    #[test]
    fn simulations_over_one_snapshot_share_one_workspace() {
        let g = graph();
        let snap = TopologySnapshot::compile(&g);
        let origins: Vec<NodeId> = g.nodes().collect();
        let plain = Simulation::over(&snap).threads(1);
        let mut mask = vec![false; g.len()];
        mask[0] = true;
        let masked = Simulation::over(&snap).threads(1).excluded(mask);
        let first = plain.run_sweep_reach(&origins);
        assert_eq!(snap.scratch().lanes1.idle(), 1);
        let bytes = snap.scratch_bytes();
        let second = masked.run_sweep_reach(&origins);
        assert_ne!(first, second);
        assert_eq!(snap.scratch().lanes1.idle(), 1, "the second simulation took the first's");
        assert!(snap.scratch_bytes() < 2 * bytes, "and sized no workspace of its own");
        // What the shared workspace computed is what a fresh one does.
        let fresh = snap.clone();
        assert_eq!(second, masked.clone().run_sweep_reach(&origins));
        let masked_fresh = Simulation::over(&fresh).config(masked.cfg().clone()).threads(1);
        assert_eq!(second, masked_fresh.run_sweep_reach(&origins));
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
        let failed = sim.try_run_sweep_reach_counts_with(&origins, fill);
        assert_eq!(failed.iter().filter(|r| r.is_err()).count(), 5);
        assert_eq!(snap.scratch().lanes1.idle(), 1, "the workspace came back");
        // The next sweep runs on that workspace, half-installed
        // exclusions and all, and must not see any of it.
        let reused = sim.run_sweep_reach(&origins);
        assert_eq!(snap.scratch().lanes1.idle(), 1);
        let fresh = snap.clone();
        assert_eq!(reused, Simulation::over(&fresh).threads(1).run_sweep_reach(&origins));
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
            assert_eq!(snap.scratch().leak.idle(), 0, "all three sides are out");
        }
        assert_eq!(snap.scratch().leak.idle(), 3.min(bound));
        LeakSim::new(&snap).run_subprefix(&locked);
        assert_eq!(snap.scratch().leak.idle(), 3.min(bound), "a simulator keeps nothing");
        let bytes = snap.scratch_bytes();
        // A simulator on returned sides — the locked scenario's
        // policies still in them — equals one on fresh buffers.
        let reused = LeakSim::new(&snap).run(&plain);
        let fresh = snap.clone();
        assert_eq!(reused.states(), LeakSim::new(&fresh).run(&plain).states());
        assert_eq!(snap.scratch().leak.idle(), 3.min(bound));
        assert!(snap.scratch_bytes() < bytes + bytes / 4, "no fourth side was sized");
    }
}
