//! Test-only differential reference: the original per-call three-phase
//! implementation the batched engine replaced.
//!
//! Nothing on a shipped path calls this module. It exists so that
//! `tests/engine_equiv.rs` and the in-crate engine tests can compare
//! [`crate::engine`] (and through it the lane kernel) against an
//! implementation that shares none of its data structures: adjacency
//! straight off the [`AsGraph`], fresh arrays per call, a binary heap
//! for the provider phase. CI fails the build if a non-test line under
//! `crates/*/src` or `examples/` names this module.

use crate::propagate::{metrics, pack, PropagationConfig, RouteClass, RoutingOutcome, UNREACHED};
use flatnet_asgraph::{AsGraph, NodeId};
use std::collections::{BinaryHeap, VecDeque};

/// The original, self-contained three-phase implementation.
///
/// Runs in O(V + E log V) (the log from the provider-phase binary heap)
/// and is deterministic: adjacency lists are sorted and ties never depend
/// on iteration order. Selections, reach sets and tie sets of
/// [`crate::engine::Simulation`] runs are asserted identical to this
/// function's. It
/// is compared on results only: its `propagate.export_checks` and
/// `propagate.dijkstra_pops` count this implementation's work (every
/// receiver's peer edges, a heap seeded in node order), the engine's
/// count the engine's.
pub fn propagate_legacy(g: &AsGraph, origin: NodeId, cfg: &PropagationConfig) -> RoutingOutcome {
    let n = g.len();
    let pol = cfg.view();
    let obs = metrics();
    obs.runs.inc();
    let mut export_checks = 0u64;
    let mut dijkstra_pops = 0u64;
    let mut dist_c = vec![UNREACHED; n];
    let mut dist_p = vec![UNREACHED; n];
    let mut dist_d = vec![UNREACHED; n];
    let mut sel = vec![UNREACHED; n];
    let mut reach = vec![0u64; n.div_ceil(64)];
    let mut reached = 0u32;
    if n == 0 || pol.is_excluded(origin) {
        return RoutingOutcome { origin, sel, reach, reached };
    }

    // Phase 1: customer routes spread up provider edges (plain BFS, all
    // edges weight 1). The origin's own route behaves like a customer route.
    dist_c[origin.idx()] = 0;
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    queue.push_back(origin);
    while let Some(u) = queue.pop_front() {
        let du = dist_c[u.idx()];
        for &p in g.providers(u) {
            export_checks += 1;
            if dist_c[p.idx()] == UNREACHED && pol.import_ok(origin, p, u) {
                dist_c[p.idx()] = du + 1;
                queue.push_back(p);
            }
        }
    }

    // Phase 2: peers export customer/origin routes; a single relaxation.
    for i in 0..n as u32 {
        let u = NodeId(i);
        if pol.is_excluded(u) || u == origin {
            continue;
        }
        let mut best = UNREACHED;
        for &v in g.peers(u) {
            export_checks += 1;
            if dist_c[v.idx()] != UNREACHED && pol.import_ok(origin, u, v) {
                best = best.min(dist_c[v.idx()] + 1);
            }
        }
        dist_p[u.idx()] = best;
    }

    // Phase 3: providers export their selected best to customers; distances
    // chain downward, so run Dijkstra seeded from every AS that already
    // holds a customer or peer route.
    let mut heap: BinaryHeap<std::cmp::Reverse<(u32, u32)>> = BinaryHeap::new();
    for i in 0..n as u32 {
        let w = NodeId(i);
        if dist_c[w.idx()] != UNREACHED || dist_p[w.idx()] != UNREACHED {
            let s = if dist_c[w.idx()] != UNREACHED { dist_c[w.idx()] } else { dist_p[w.idx()] };
            for &u in g.customers(w) {
                export_checks += 1;
                // A node with a customer/peer route already prefers it over
                // any provider route; still record dist_d for completeness
                // of tie information at equal class only — the selection
                // function ignores dist_d when a better class exists.
                if pol.import_ok(origin, u, w) && u != origin && s + 1 < dist_d[u.idx()] {
                    dist_d[u.idx()] = s + 1;
                    heap.push(std::cmp::Reverse((s + 1, u.0)));
                }
            }
        }
    }
    while let Some(std::cmp::Reverse((d, ui))) = heap.pop() {
        dijkstra_pops += 1;
        let u = NodeId(ui);
        if d != dist_d[u.idx()] {
            continue; // stale entry
        }
        // `u` only *exports* its provider route if that is its selection.
        if dist_c[u.idx()] != UNREACHED || dist_p[u.idx()] != UNREACHED {
            continue;
        }
        for &x in g.customers(u) {
            export_checks += 1;
            if x == origin {
                continue;
            }
            if pol.import_ok(origin, x, u) && d + 1 < dist_d[x.idx()] {
                dist_d[x.idx()] = d + 1;
                heap.push(std::cmp::Reverse((d + 1, x.0)));
            }
        }
    }

    // Selection: local preference first, then length. A node that holds
    // a customer or peer route never uses its provider route.
    let (mut sel_c, mut sel_p, mut sel_d) = (0u64, 0u64, 0u64);
    for i in 0..n {
        sel[i] = if dist_c[i] != UNREACHED {
            sel_c += 1;
            pack(RouteClass::Customer, dist_c[i])
        } else if dist_p[i] != UNREACHED {
            sel_p += 1;
            pack(RouteClass::Peer, dist_p[i])
        } else if dist_d[i] == UNREACHED {
            continue;
        } else {
            sel_d += 1;
            pack(RouteClass::Provider, dist_d[i])
        };
        reach[i >> 6] |= 1u64 << (i & 63);
        reached += 1;
    }
    obs.routes_customer.add(sel_c);
    obs.routes_peer.add(sel_p);
    obs.routes_provider.add(sel_d);
    obs.export_checks.add(export_checks);
    obs.dijkstra_pops.add(dijkstra_pops);
    RoutingOutcome { origin, sel, reach, reached }
}
