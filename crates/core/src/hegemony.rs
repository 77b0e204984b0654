//! AS hegemony — the path-centrality metric family the paper contrasts
//! with (§10 cites Fontugne et al.'s "AS hegemony" / inbetweenness).
//!
//! Hegemony of `a` for a destination `o` is the mean, over every AS `t`
//! holding routes to `o`, of the fraction of `t`'s best paths that cross
//! `a`. Our tied-best reliance machinery gives that mean exactly:
//! `hegemony(o, a) = rely(o, a) / receivers(o)` (we skip Fontugne's
//! viewpoint trimming — it exists to de-noise real BGP monitors, which a
//! simulator does not have; the simplification is noted in DESIGN.md's
//! substitution spirit). *Global* hegemony averages over a sample of
//! destination origins, exactly like the original metric averages over
//! monitored prefixes.

use flatnet_asgraph::{AsGraph, NodeId};
use flatnet_bgpsim::{Simulation, SweepCtx};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Runs one origin on the worker's buffers and turns its reliance scores
/// into its per-destination hegemony vector: `hegemony[a] = rely(o, a) /
/// receivers`.
///
/// Entries are in `[0, 1]`. The origin's own entry is zeroed (a network
/// trivially lies on every path toward itself; hegemony measures *other*
/// networks' dependence on it, as in Fontugne et al.). Unreachable ASes
/// score 0.
fn hegemony_of(ctx: &mut SweepCtx, origin: NodeId) -> Vec<f64> {
    let scored = ctx.run_reliance(origin);
    let receivers = scored.receivers().max(1) as f64;
    let mut h: Vec<f64> = scored.scores().iter().map(|w| w / receivers).collect();
    h[origin.idx()] = 0.0;
    h
}

/// Global hegemony: the mean per-destination hegemony over `sample_size`
/// deterministic random destination origins. O(sample × E); parallel.
pub fn global_hegemony(g: &AsGraph, sample_size: usize, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x4E60_4E60_4E60_4E60);
    let mut origins: Vec<NodeId> = Vec::new();
    let mut guard = 0usize;
    while origins.len() < sample_size.min(g.len()) && guard < 100 * sample_size + 1000 {
        let n = NodeId(rng.gen_range(0..g.len() as u32));
        if !origins.contains(&n) {
            origins.push(n);
        }
        guard += 1;
    }
    if origins.is_empty() {
        return vec![0.0; g.len()];
    }
    let per_origin = Simulation::over(g).run_sweep_map(&origins, hegemony_of);
    let mut acc = vec![0.0f64; g.len()];
    for h in &per_origin {
        for (a, v) in acc.iter_mut().zip(h) {
            *a += v;
        }
    }
    let k = per_origin.len() as f64;
    for a in &mut acc {
        *a /= k;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use flatnet_asgraph::{AsGraphBuilder, AsId, Relationship};

    fn hegemony_for_origin(g: &AsGraph, origin: NodeId) -> Vec<f64> {
        let mut ctx = Simulation::over(g).ctx();
        hegemony_of(&mut ctx, origin)
    }

    /// Pure chain: o=1 under 2 under 3; plus stub 4 under 3.
    fn chain() -> AsGraph {
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(2), AsId(1), Relationship::P2c);
        b.add_link(AsId(3), AsId(2), Relationship::P2c);
        b.add_link(AsId(3), AsId(4), Relationship::P2c);
        b.build()
    }

    #[test]
    fn chain_hegemony_is_transit_share() {
        let g = chain();
        let o = g.index_of(AsId(1)).unwrap();
        let h = hegemony_for_origin(&g, o);
        // Receivers: 1, 2, 3, 4. AS 2 lies on the paths of 2, 3, 4 (its
        // own counts per our receiver-inclusive convention): 3/4.
        let n2 = g.index_of(AsId(2)).unwrap();
        assert!((h[n2.idx()] - 0.75).abs() < 1e-12);
        // Stub 4 only appears on its own path: 1/4.
        let n4 = g.index_of(AsId(4)).unwrap();
        assert!((h[n4.idx()] - 0.25).abs() < 1e-12);
        for &v in &h {
            assert!((0.0..=1.0 + 1e-12).contains(&v));
        }
    }

    #[test]
    fn full_mesh_hegemony_is_uniformly_low() {
        let mut b = AsGraphBuilder::new();
        for a in 1..=6u32 {
            for c in (a + 1)..=6 {
                b.add_link(AsId(a), AsId(c), Relationship::P2p);
            }
        }
        let g = b.build();
        let h = global_hegemony(&g, 6, 1);
        // Everyone's reliance is 1 per origin; each AS is itself the
        // (zeroed) origin in one of the six samples => 5/36 everywhere.
        for n in g.nodes() {
            assert!((h[n.idx()] - 5.0 / 36.0).abs() < 1e-9, "{}", g.asn(n));
        }
    }

    #[test]
    fn global_hegemony_is_deterministic_and_bounded() {
        let g = chain();
        let a = global_hegemony(&g, 3, 9);
        let b = global_hegemony(&g, 3, 9);
        assert_eq!(a, b);
        let c = global_hegemony(&g, 3, 10);
        // Different seed may sample different origins.
        assert_eq!(c.len(), g.len());
        for &v in &a {
            assert!((0.0..=1.0 + 1e-9).contains(&v));
        }
    }

    #[test]
    fn empty_sample() {
        let g = chain();
        let h = global_hegemony(&g, 0, 1);
        assert!(h.iter().all(|&v| v == 0.0));
    }
}
