//! Route-leak resilience experiments (§8, Figures 7-10).
//!
//! Each figure is a CDF over randomly chosen misconfigured ASes of the
//! fraction of ASes (or users, Fig. 9) detoured when the victim announces
//! under a given configuration.

use flatnet_asgraph::{AsGraph, AsId, NodeId, Tiers};
use flatnet_bgpsim::parallel::parallel_map_ctx;
use flatnet_bgpsim::{subprefix_detour_fractions, LockingSemantics, VictimSide};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// §8.2's announcement configurations for the victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Announce {
    /// Announce to all neighbors (the clouds' real behaviour).
    ToAll,
    /// Announce only to Tier-1s, Tier-2s, and transit providers — the
    /// counterfactual that ignores the cloud's rich edge peering.
    ToTier12AndProviders,
}

/// §8.2's peer-locking deployments (always subsets of the victim's
/// neighbors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Locking {
    /// Nobody filters.
    None,
    /// Tier-1 neighbors deploy peer locking.
    Tier1,
    /// Tier-1 and Tier-2 neighbors deploy it.
    Tier12,
    /// Every neighbor deploys it ("global peer lock").
    Global,
}

impl Announce {
    /// The configuration's name in queries: `all` or `t12p`.
    pub fn token(self) -> &'static str {
        match self {
            Announce::ToAll => "all",
            Announce::ToTier12AndProviders => "t12p",
        }
    }

    /// The configuration [`Announce::token`] names, if any.
    pub fn from_token(token: &str) -> Option<Self> {
        [Announce::ToAll, Announce::ToTier12AndProviders].into_iter().find(|a| a.token() == token)
    }
}

impl Locking {
    /// The deployment's name in queries and flags: `none`, `t1`, `t12`
    /// or `global`.
    pub fn token(self) -> &'static str {
        match self {
            Locking::None => "none",
            Locking::Tier1 => "t1",
            Locking::Tier12 => "t12",
            Locking::Global => "global",
        }
    }

    /// The deployment [`Locking::token`] names, if any.
    pub fn from_token(token: &str) -> Option<Self> {
        [Locking::None, Locking::Tier1, Locking::Tier12, Locking::Global]
            .into_iter()
            .find(|l| l.token() == token)
    }

    /// Report label (matching the figures' legends).
    pub fn name(self) -> &'static str {
        match self {
            Locking::None => "announce to all",
            Locking::Tier1 => "T1 peer lock",
            Locking::Tier12 => "T1+T2 peer lock",
            Locking::Global => "global peer lock",
        }
    }
}

/// A CDF over simulated leaks: sorted detour fractions, one per
/// misconfigured AS.
#[derive(Debug, Clone, PartialEq)]
pub struct LeakCdf {
    /// Sorted ascending; `fractions[i]` is the detour fraction of the
    /// (i+1)-th least-damaging leaker.
    pub fractions: Vec<f64>,
}

impl LeakCdf {
    /// Median detour fraction (0 when empty).
    pub fn median(&self) -> f64 {
        percentile_sorted(&self.fractions, 50.0)
    }

    /// Arbitrary percentile (nearest-rank) of the sorted fractions.
    pub fn percentile(&self, p: f64) -> f64 {
        percentile_sorted(&self.fractions, p)
    }

    /// Fraction of simulations whose detour fraction is ≤ `x` (the CDF
    /// evaluated at `x`).
    pub fn cdf_at(&self, x: f64) -> f64 {
        if self.fractions.is_empty() {
            return 0.0;
        }
        let below = self.fractions.iter().filter(|&&f| f <= x).count();
        below as f64 / self.fractions.len() as f64
    }

    /// Worst case across all simulations.
    pub fn max(&self) -> f64 {
        self.fractions.last().copied().unwrap_or(0.0)
    }
}

fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Deterministically samples `k` distinct leaker nodes ≠ victim.
fn sample_leakers(g: &AsGraph, victim: Option<NodeId>, k: usize, seed: u64) -> Vec<NodeId> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x1EAC_1EAC_1EAC_1EAC);
    let mut chosen = Vec::with_capacity(k);
    let mut guard = 0;
    while chosen.len() < k.min(g.len().saturating_sub(1)) && guard < 100 * k + 1000 {
        let n = NodeId(rng.gen_range(0..g.len() as u32));
        if Some(n) != victim && !chosen.contains(&n) {
            chosen.push(n);
        }
        guard += 1;
    }
    chosen
}

/// The subset of the victim's neighbors deploying peer locking under a
/// given [`Locking`] configuration (leaker-independent).
fn locking_set_for(g: &AsGraph, tiers: &Tiers, victim: NodeId, locking: Locking) -> Vec<NodeId> {
    let neighbors = g.neighbors(victim).map(|(n, _)| n);
    match locking {
        Locking::None => Vec::new(),
        Locking::Tier1 => neighbors.filter(|&n| tiers.is_tier1(n)).collect(),
        Locking::Tier12 => neighbors.filter(|&n| tiers.is_tier1(n) || tiers.is_tier2(n)).collect(),
        Locking::Global => neighbors.collect(),
    }
}

/// The neighbors the victim announces to under `announce` (`None` = all
/// of them; leaker-independent).
fn victim_export_for(
    g: &AsGraph,
    tiers: &Tiers,
    victim: NodeId,
    announce: Announce,
) -> Option<Vec<NodeId>> {
    match announce {
        Announce::ToAll => None,
        Announce::ToTier12AndProviders => {
            let providers = g.providers(victim);
            Some(
                g.neighbors(victim)
                    .map(|(n, _)| n)
                    .filter(|&n| tiers.is_tier1(n) || tiers.is_tier2(n) || providers.contains(&n))
                    .collect(),
            )
        }
    }
}

/// Runs the leak CDF for one victim and configuration over `n_leakers`
/// random misconfigured ASes. Set `user_weights` to weight detoured ASes
/// by estimated users (Fig. 9) instead of counting ASes (Figs. 7/8/10).
///
/// The victim side and the leaker sides run on `g`'s pooled buffers, so
/// repeated queries against one topology (the figures' announce × lock
/// loops, the serve daemon) allocate nothing topology-sized once warm.
#[allow(clippy::too_many_arguments)] // mirrors the paper's experiment knobs
pub fn leak_cdf(
    g: &AsGraph,
    tiers: &Tiers,
    victim: AsId,
    announce: Announce,
    locking: Locking,
    n_leakers: usize,
    seed: u64,
    user_weights: Option<&[f64]>,
) -> Option<LeakCdf> {
    leak_cdf_with_semantics(
        g,
        tiers,
        victim,
        announce,
        locking,
        LockingSemantics::Corrected,
        n_leakers,
        seed,
        user_weights,
    )
}

/// As [`leak_cdf`], but with explicit peer-locking semantics — used by the
/// erratum ablation, which contrasts the paper's original (flawed) filter
/// model against the published correction.
#[allow(clippy::too_many_arguments)]
pub fn leak_cdf_with_semantics(
    g: &AsGraph,
    tiers: &Tiers,
    victim: AsId,
    announce: Announce,
    locking: Locking,
    semantics: LockingSemantics,
    n_leakers: usize,
    seed: u64,
    user_weights: Option<&[f64]>,
) -> Option<LeakCdf> {
    let v = g.index_of(victim)?;
    let leakers = sample_leakers(g, Some(v), n_leakers, seed);
    // Everything but the leaker is the same for the whole CDF: the victim
    // side is propagated once, here, and the workers only read it.
    let export = victim_export_for(g, tiers, v, announce);
    let locking_set = locking_set_for(g, tiers, v, locking);
    let victim = VictimSide::propagate(g, v, export.as_deref(), &locking_set, semantics);
    let mut fractions = parallel_map_ctx(
        &leakers,
        0,
        || victim.leakers(),
        |side, &m| side.fraction(m, user_weights),
    );
    fractions.sort_by(f64::total_cmp);
    Some(LeakCdf { fractions })
}

/// CDF for **more-specific (sub-prefix) hijacks** against a victim: the
/// hijacker's longer prefix wins by longest-prefix match wherever it
/// propagates, so only peer locking helps. An extension beyond §8's
/// same-length leaks.
pub fn subprefix_hijack_cdf(
    g: &AsGraph,
    tiers: &Tiers,
    victim: AsId,
    locking: Locking,
    n_leakers: usize,
    seed: u64,
    user_weights: Option<&[f64]>,
) -> Option<LeakCdf> {
    let v = g.index_of(victim)?;
    let leakers = sample_leakers(g, Some(v), n_leakers, seed);
    // The hijacker's more-specific prefix wins regardless of the victim's
    // announcements, and the locking set is leaker-independent — so all
    // leakers batch through the bit-parallel kernel, 64, 128 or 256 per
    // block (`LaneWidth::Auto`).
    let locking_set = locking_set_for(g, tiers, v, locking);
    let mut fractions = subprefix_detour_fractions(
        g,
        v,
        &leakers,
        &locking_set,
        LockingSemantics::Corrected,
        user_weights,
        0,
    );
    fractions.sort_by(f64::total_cmp);
    Some(LeakCdf { fractions })
}

/// The figures' *average resilience* baseline: for each of `n_leakers`
/// random misconfigured ASes, the mean detour fraction across `n_victims`
/// random legitimate origins announcing to all neighbors.
pub fn average_resilience_cdf(
    g: &AsGraph,
    n_leakers: usize,
    n_victims: usize,
    seed: u64,
    user_weights: Option<&[f64]>,
) -> LeakCdf {
    let leakers = sample_leakers(g, None, n_leakers, seed);
    // Each (victim, leaker) pair is its own plain scenario: the victim
    // announces to all, nobody locks, and its side serves one leaker.
    let mut fractions = parallel_map_ctx(
        &leakers,
        0,
        || (),
        |(), &m| {
            let victims = sample_leakers(g, Some(m), n_victims, seed ^ m.0 as u64 ^ 0xF00D);
            if victims.is_empty() {
                return 0.0;
            }
            let mut acc = 0.0;
            for &v in &victims {
                let side = VictimSide::propagate(g, v, None, &[], LockingSemantics::Corrected);
                acc += side.leakers().fraction(m, user_weights);
            }
            acc / victims.len() as f64
        },
    );
    fractions.sort_by(f64::total_cmp);
    LeakCdf { fractions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flatnet_asgraph::{AsGraphBuilder, Relationship};
    use flatnet_bgpsim::{DetourState, LeakScenario, LeakSim};

    /// `g` built again from its canonical edges: the same graph as
    /// another topology, so a CDF run on it starts with empty scratch
    /// pools rather than the ones every clone of `g` shares.
    fn rebuilt(g: &AsGraph) -> AsGraph {
        AsGraph::from_canonical_edges(g.asns().map(|a| a.0).collect(), g.edges())
            .expect("a graph's own edges are canonical")
    }

    /// Victim 10 peers with Tier-1 1 (which serves customers 20..24) and
    /// with edge ASes 40, 50; leakers live among 1's customers.
    fn sample() -> (AsGraph, Tiers) {
        let mut b = AsGraphBuilder::new();
        for c in 20..25 {
            b.add_link(AsId(1), AsId(c), Relationship::P2c);
        }
        b.add_link(AsId(10), AsId(1), Relationship::P2p);
        b.add_link(AsId(10), AsId(40), Relationship::P2p);
        b.add_link(AsId(10), AsId(50), Relationship::P2p);
        let g = b.build();
        let tiers = Tiers::from_lists(&g, &[AsId(1)], &[]);
        (g, tiers)
    }

    /// The full per-leaker scenario a CDF's configuration stands for.
    fn scenario_for(
        g: &AsGraph,
        tiers: &Tiers,
        victim: NodeId,
        leaker: NodeId,
        announce: Announce,
        locking: Locking,
        semantics: LockingSemantics,
    ) -> LeakScenario {
        LeakScenario {
            victim,
            leaker,
            victim_export: victim_export_for(g, tiers, victim, announce),
            locking: locking_set_for(g, tiers, victim, locking),
            semantics,
        }
    }

    #[test]
    fn tokens_name_each_configuration_once() {
        for l in [Locking::None, Locking::Tier1, Locking::Tier12, Locking::Global] {
            assert_eq!(Locking::from_token(l.token()), Some(l));
        }
        for a in [Announce::ToAll, Announce::ToTier12AndProviders] {
            assert_eq!(Announce::from_token(a.token()), Some(a));
        }
        assert_eq!(Locking::from_token("T1"), None);
        assert_eq!(Announce::from_token("none"), None);
    }

    #[test]
    fn locking_monotonically_improves_resilience() {
        let (g, tiers) = sample();
        let run = |locking| {
            leak_cdf(&g, &tiers, AsId(10), Announce::ToAll, locking, 6, 7, None)
                .unwrap()
                .median()
        };
        let none = run(Locking::None);
        let t1 = run(Locking::Tier1);
        let global = run(Locking::Global);
        assert!(t1 <= none, "t1 {t1} vs none {none}");
        assert!(global <= t1, "global {global} vs t1 {t1}");
    }

    #[test]
    fn cdf_accessors() {
        let cdf = LeakCdf { fractions: vec![0.1, 0.2, 0.3, 0.4] };
        assert!((cdf.median() - 0.2).abs() < 1e-12);
        assert!((cdf.percentile(100.0) - 0.4).abs() < 1e-12);
        assert_eq!(cdf.max(), 0.4);
        assert!((cdf.cdf_at(0.25) - 0.5).abs() < 1e-12);
        let empty = LeakCdf { fractions: vec![] };
        assert_eq!(empty.median(), 0.0);
        assert_eq!(empty.cdf_at(0.5), 0.0);
        assert_eq!(empty.max(), 0.0);
    }

    #[test]
    fn leaker_sampling_is_deterministic_and_excludes_victim() {
        let (g, _) = sample();
        let v = g.index_of(AsId(10)).unwrap();
        let a = sample_leakers(&g, Some(v), 5, 3);
        let b = sample_leakers(&g, Some(v), 5, 3);
        assert_eq!(a, b);
        assert!(!a.contains(&v));
        assert_eq!(a.len(), 5);
        let all = sample_leakers(&g, Some(v), 100, 3);
        assert_eq!(all.len(), g.len() - 1);
    }

    #[test]
    fn restricting_announcement_cannot_improve_reach_of_legit_routes() {
        let (g, tiers) = sample();
        let all = leak_cdf(&g, &tiers, AsId(10), Announce::ToAll, Locking::None, 7, 1, None).unwrap();
        let t12 = leak_cdf(
            &g,
            &tiers,
            AsId(10),
            Announce::ToTier12AndProviders,
            Locking::None,
            7,
            1,
            None,
        )
        .unwrap();
        // Announcing narrowly can only keep equal or worsen the detour
        // picture in this topology (peers lose their direct route).
        assert!(t12.median() >= all.median());
    }

    #[test]
    fn user_weighted_cdf_uses_weights() {
        let (g, tiers) = sample();
        // All users sit in AS 40, a direct peer of the victim: it only
        // detours when AS 40 itself is the leaker (one of the 8 possible
        // leakers), never otherwise.
        let mut w = vec![0.0; g.len()];
        w[g.index_of(AsId(40)).unwrap().idx()] = 1000.0;
        let cdf =
            leak_cdf(&g, &tiers, AsId(10), Announce::ToAll, Locking::None, 8, 2, Some(&w)).unwrap();
        assert_eq!(cdf.fractions.len(), 8);
        let zeros = cdf.fractions.iter().filter(|&&f| f == 0.0).count();
        assert_eq!(zeros, 7, "{:?}", cdf.fractions);
        assert_eq!(cdf.max(), 1.0);
    }

    /// The batched kernel subprefix CDF matches a per-leaker scalar
    /// [`LeakSim`] reference, for both AS-count and user-weighted modes.
    #[test]
    fn subprefix_cdf_matches_per_leaker_sim() {
        let (g, tiers) = sample();
        let mut w = vec![0.0; g.len()];
        for n in g.nodes() {
            w[n.idx()] = 1.0 + n.idx() as f64;
        }
        for locking in [Locking::None, Locking::Tier1, Locking::Global] {
            for weights in [None, Some(&w[..])] {
                let cdf =
                    subprefix_hijack_cdf(&g, &tiers, AsId(10), locking, 8, 5, weights).unwrap();
                let v = g.index_of(AsId(10)).unwrap();
                let leakers = sample_leakers(&g, Some(v), 8, 5);
                let mut sim = LeakSim::new(&g);
                let mut expect: Vec<f64> = leakers
                    .iter()
                    .map(|&m| {
                        let sc = scenario_for(
                            &g,
                            &tiers,
                            v,
                            m,
                            Announce::ToAll,
                            locking,
                            LockingSemantics::Corrected,
                        );
                        sim.subprefix_fraction(&sc, weights)
                    })
                    .collect();
                expect.sort_by(f64::total_cmp);
                assert_eq!(cdf.fractions, expect, "{locking:?} weighted={}", weights.is_some());
            }
        }
    }

    /// §8's detour share of one leak, read off the test kit's fixpoint
    /// states: the detoured count over all ASes, or with `weights` the
    /// detoured mass over the total, summed in ascending node order (as
    /// the simulator sums it; zero for a zero total).
    fn fixpoint_fraction(states: &[DetourState], weights: Option<&[f64]>) -> f64 {
        let hit = states.iter().enumerate().filter(|(_, &s)| s == DetourState::Detoured);
        match weights {
            None => hit.count() as f64 / states.len() as f64,
            Some(w) => {
                let total: f64 = w.iter().sum();
                if total == 0.0 {
                    return 0.0;
                }
                hit.map(|(i, _)| w[i]).sum::<f64>() / total
            }
        }
    }

    /// Every leak CDF equals the one read off the test kit's
    /// stable-paths fixpoint ([`leak_states`]) bit for bit, and so does a
    /// per-scenario [`LeakSim`], over the differential corpus
    /// (`tests/engine_equiv.rs`' 52 topologies) × every locking × both
    /// announcements × both semantics, weighted and unweighted. Each
    /// configuration runs twice: on `g`, whose pools are warm from the
    /// previous configuration — sides that held its policies — and on
    /// `g` rebuilt from its edges, whose pools start empty; the two agree
    /// bit for bit. Ties are in: the generated topologies are full of
    /// equal-length competing routes, and the worst-case tie rule is part
    /// of what must match. The average-resilience CDF, a fresh victim
    /// side per (victim, leaker) pair, is held to the same three
    /// references.
    ///
    /// A victim side built for scenario A cannot be asked about scenario
    /// B: that does not compile. A leaker run takes a leaker and nothing
    /// else, and the side owns its run and its leakers' policy, with no
    /// `&mut` method to change either.
    #[test]
    fn leak_cdfs_match_the_fixpoint_on_warm_and_fresh_pools() {
        use flatnet_netgen::{generate, NetGenConfig};
        use flatnet_testkit::leak_states;
        let bits = |fractions: &[f64]| fractions.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let sorted = |mut fractions: Vec<f64>| {
            fractions.sort_by(f64::total_cmp);
            bits(&fractions)
        };
        for seed in 0..52u64 {
            let mut cfg = NetGenConfig::tiny(seed);
            cfg.n_ases = 120 + (seed as usize % 4) * 10;
            let net = generate(&cfg);
            let tiers = net.tiers_for(&net.truth);
            let (g, tiers) = (&net.truth, &tiers);
            let victim = net.clouds[seed as usize % net.clouds.len()].asn;
            let v = g.index_of(victim).expect("victim exists");
            let user_weights = net.user_weights();
            let leakers = sample_leakers(g, Some(v), 12, seed);
            let mut sim = LeakSim::new(g);
            for locking in [Locking::None, Locking::Tier1, Locking::Tier12, Locking::Global] {
                for announce in [Announce::ToAll, Announce::ToTier12AndProviders] {
                    for semantics in [LockingSemantics::Corrected, LockingSemantics::PreErratum] {
                        let export = victim_export_for(g, tiers, v, announce);
                        let locking_set = locking_set_for(g, tiers, v, locking);
                        let states: Vec<Vec<DetourState>> = leakers
                            .iter()
                            .map(|&m| leak_states(g, v, m, export.as_deref(), &locking_set, semantics))
                            .collect();
                        for weights in [None, Some(user_weights.as_slice())] {
                            let what = format!(
                                "seed {seed} {locking:?} {announce:?} {semantics:?} weighted={}",
                                weights.is_some()
                            );
                            let cdf = |g: &AsGraph| {
                                leak_cdf_with_semantics(
                                    g, tiers, victim, announce, locking, semantics, 12, seed, weights,
                                )
                                .expect("victim exists")
                                .fractions
                            };
                            let warm = cdf(g);
                            assert_eq!(warm.len(), 12);
                            let fixpoint = states.iter().map(|s| fixpoint_fraction(s, weights)).collect();
                            assert_eq!(bits(&warm), sorted(fixpoint), "{what} (warm pools vs fixpoint)");
                            assert_eq!(bits(&warm), bits(&cdf(&rebuilt(g))), "{what} (warm vs fresh pools)");
                            let simulated = leakers
                                .iter()
                                .map(|&m| {
                                    let sc = scenario_for(g, tiers, v, m, announce, locking, semantics);
                                    sim.fraction(&sc, weights)
                                })
                                .collect();
                            assert_eq!(bits(&warm), sorted(simulated), "{what} (warm pools vs LeakSim)");
                        }
                    }
                }
            }
            for weights in [None, Some(user_weights.as_slice())] {
                let what = format!("seed {seed} average resilience weighted={}", weights.is_some());
                let warm = average_resilience_cdf(g, 6, 4, seed, weights).fractions;
                let fresh = average_resilience_cdf(&rebuilt(g), 6, 4, seed, weights).fractions;
                assert_eq!(bits(&warm), bits(&fresh), "{what} (warm vs fresh pools)");
                let mean_of = |fraction: &mut dyn FnMut(NodeId, NodeId) -> f64| {
                    let means = sample_leakers(g, None, 6, seed).into_iter().map(|m| {
                        let victims = sample_leakers(g, Some(m), 4, seed ^ m.0 as u64 ^ 0xF00D);
                        let total = victims.iter().fold(0.0, |acc, &v| acc + fraction(v, m));
                        if victims.is_empty() { 0.0 } else { total / victims.len() as f64 }
                    });
                    sorted(means.collect())
                };
                let fixpoint = mean_of(&mut |v, m| {
                    let states = leak_states(g, v, m, None, &[], LockingSemantics::Corrected);
                    fixpoint_fraction(&states, weights)
                });
                assert_eq!(bits(&warm), fixpoint, "{what} (warm pools vs fixpoint)");
                let simulated = mean_of(&mut |v, m| sim.fraction(&LeakScenario::simple(v, m), weights));
                assert_eq!(bits(&warm), simulated, "{what} (warm pools vs LeakSim)");
            }
            assert!(flatnet_bgpsim::scratch_bytes(g) > 0, "the simulators' buffers stayed with the topology");
        }
    }

    #[test]
    fn average_resilience_runs() {
        let (g, _) = sample();
        let cdf = average_resilience_cdf(&g, 4, 3, 9, None);
        assert_eq!(cdf.fractions.len(), 4);
        for f in &cdf.fractions {
            assert!((0.0..=1.0).contains(f));
        }
    }

    #[test]
    fn unknown_victim() {
        let (g, tiers) = sample();
        assert!(leak_cdf(&g, &tiers, AsId(999), Announce::ToAll, Locking::None, 3, 1, None).is_none());
    }
}
