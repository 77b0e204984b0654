//! Route-leak resilience simulation (§8).
//!
//! A *misconfigured AS* (the leaker) announces the same prefix as a cloud
//! provider (the victim) to all of its neighbors. Both announcements
//! propagate under normal valley-free policy and "the two routes compete
//! for propagation based on AS-path length" after local preference. An AS
//! is **detoured** if *any* of its tied-best routes leads to the leaker —
//! the paper's explicit worst-case tie handling.
//!
//! Peer locking (per the paper's published erratum): a deploying neighbor
//! of the victim discards routes for the victim's prefixes received from
//! anyone but the victim itself. In simulator terms the deployer's import
//! policy is [`ImportPolicy::OnlyDirectFromOrigin`] for the victim's
//! announcement and [`ImportPolicy::Never`] for the leaker's, so leaked
//! routes never propagate *through* a locking AS.
//!
//! The experiment has one victim side and many leakers, and so has the
//! API: [`VictimSide`] is the legitimate announcement of one scenario,
//! propagated once, and each [`LeakerSide`] drawn from it runs any number
//! of leakers against that finished run on buffers of its own — a leak
//! CDF over `k` leakers is `k + 1` propagations, its workers sharing the
//! victim side by reference. [`LeakSim`] is the two steps in sequence for
//! one scenario at a time. Every side computes on a [`SweepCtx`] — a
//! workspace and the config it runs under, taken from the topology's
//! scratch and returned on drop — so a caller that simulates per query
//! (the serve daemon) still runs on warm buffers and a sweep does no
//! steady-state allocation.

use crate::engine::{Fractions, Simulation, SweepCtx, Workspace};
use crate::propagate::{ImportPolicy, PropagationConfig, UNREACHED};
use flatnet_asgraph::{AsGraph, NodeId};

/// How one AS routes the contested prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetourState {
    /// All tied-best routes lead to the legitimate origin.
    Legit,
    /// At least one tied-best route leads to the leaker (worst case).
    Detoured,
    /// The AS received no route to the prefix at all.
    NoRoute,
}

/// Which peer-locking semantics to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LockingSemantics {
    /// The published erratum's corrected behaviour: a deploying AS accepts
    /// the victim's prefix only directly from the victim, so leaked copies
    /// can never propagate *through* it.
    #[default]
    Corrected,
    /// The paper's original simulation flaw: deployers filtered leaks
    /// announced directly to them, but copies that first passed through a
    /// non-deploying AS were accepted and re-propagated — underestimating
    /// peer locking's benefit. Kept for the erratum ablation.
    PreErratum,
}

/// One leak experiment configuration.
#[derive(Debug, Clone)]
pub struct LeakScenario {
    /// The legitimate origin (cloud provider).
    pub victim: NodeId,
    /// The misconfigured AS leaking the prefix (announces to all neighbors).
    pub leaker: NodeId,
    /// Neighbors the victim announces to; `None` = all neighbors
    /// (§8.2's announcement configurations).
    pub victim_export: Option<Vec<NodeId>>,
    /// Victim neighbors deploying peer locking for the victim's prefixes.
    pub locking: Vec<NodeId>,
    /// Corrected (erratum) vs original peer-locking semantics.
    pub semantics: LockingSemantics,
}

impl LeakScenario {
    /// A plain scenario: victim announces to all, no peer locking.
    pub fn simple(victim: NodeId, leaker: NodeId) -> Self {
        LeakScenario {
            victim,
            leaker,
            victim_export: None,
            locking: Vec::new(),
            semantics: LockingSemantics::Corrected,
        }
    }
}

/// Outcome of a leak simulation.
#[derive(Debug, Clone)]
pub struct LeakOutcome {
    victim: NodeId,
    leaker: NodeId,
    states: Vec<DetourState>,
}

impl LeakOutcome {
    /// Per-node routing states, indexed by node.
    pub fn states(&self) -> &[DetourState] {
        &self.states
    }

    /// State of one node.
    pub fn state(&self, n: NodeId) -> DetourState {
        self.states[n.idx()]
    }

    /// The legitimate origin.
    pub fn victim(&self) -> NodeId {
        self.victim
    }

    /// The leaker.
    pub fn leaker(&self) -> NodeId {
        self.leaker
    }

    /// Number of detoured ASes (the leaker itself counts: its traffic to
    /// the prefix terminates locally).
    pub fn detoured_count(&self) -> usize {
        self.states.iter().filter(|&&s| s == DetourState::Detoured).count()
    }

    /// Fraction of all ASes in the topology that are detoured — the
    /// quantity on the x-axis of Figures 7, 8, and 10.
    pub fn fraction_detoured(&self) -> f64 {
        detour_fraction(self.states.len(), None, |t| self.state(t) == DetourState::Detoured)
    }

    /// Weighted detour fraction: share of `weights` mass (e.g. estimated
    /// user population per AS, Fig. 9) sitting in detoured ASes. Zero when
    /// the total weight is zero.
    pub fn weighted_fraction_detoured(&self, weights: &[f64]) -> f64 {
        detour_fraction(self.states.len(), Some(weights), |t| {
            self.state(t) == DetourState::Detoured
        })
    }
}

/// Fills `import` with the policy any leaker's announcement of `victim`'s
/// prefix meets — it depends on the victim and the locking set only.
pub(crate) fn fill_leak_import(
    import: &mut [ImportPolicy],
    victim: NodeId,
    locking: &[NodeId],
    semantics: LockingSemantics,
) {
    // Under corrected semantics locking ASes never accept the leaked
    // copy, so it cannot pass through them either; under pre-erratum
    // semantics they only filter the copy announced to them directly
    // by the leaker.
    import.fill(ImportPolicy::Normal);
    for &l in locking {
        import[l.idx()] = match semantics {
            LockingSemantics::Corrected => ImportPolicy::Never,
            LockingSemantics::PreErratum => ImportPolicy::RejectDirectFromOrigin,
        };
    }
    // The victim itself never accepts the leaked route for its own prefix.
    import[victim.idx()] = ImportPolicy::Never;
}

/// The victim's half of a leak experiment, propagated: the legitimate
/// announcement under one export and locking configuration — everything
/// a [`LeakScenario`] fixes except who leaks. Build it once, then draw a
/// [`LeakerSide`] per worker and run any number of leakers against it.
///
/// The side owns its finished run and the import policy its leakers
/// meet, both made from one configuration, and has no `&mut` method; a
/// leaker run names a leaker and nothing else. So a leaker cannot be
/// compared with a stale victim run or another scenario's: there is
/// nothing to pass one through.
#[derive(Debug)]
pub struct VictimSide {
    victim: NodeId,
    /// The victim's run, and in its config the leakers' policy.
    ctx: SweepCtx,
}

impl VictimSide {
    /// Propagates `victim`'s announcement over `g`: to the neighbors
    /// in `victim_export` (`None` = all of them), with the ASes of
    /// `locking` deploying peer locking under `semantics`.
    pub fn propagate(
        g: &AsGraph,
        victim: NodeId,
        victim_export: Option<&[NodeId]>,
        locking: &[NodeId],
        semantics: LockingSemantics,
    ) -> Self {
        let n = g.len();
        let mut ctx = Simulation::over(g).ctx();
        let cfg = ctx.config_mut();
        // Under corrected semantics, locking neighbors accept only the
        // direct route. Under the pre-erratum semantics the legitimate
        // propagation was unrestricted.
        let import = cfg.import_mut(n);
        import.fill(ImportPolicy::Normal);
        if semantics == LockingSemantics::Corrected {
            for &l in locking {
                if l != victim {
                    import[l.idx()] = ImportPolicy::OnlyDirectFromOrigin;
                }
            }
        }
        if let Some(list) = victim_export {
            let mask = cfg.origin_export_mut(n);
            mask.fill(false);
            for &x in list {
                mask[x.idx()] = true;
            }
        }
        ctx.run(victim);
        // The run is finished and only its selections are read from here
        // on: the config now holds the leakers' policy, import alone
        // (every mask switched off first, its buffer kept).
        let cfg = ctx.config_mut();
        cfg.clone_from(&PropagationConfig::default());
        fill_leak_import(cfg.import_mut(n), victim, locking, semantics);
        VictimSide { victim, ctx }
    }

    /// A leaker half over this victim side, on a pooled context of its
    /// own under the leakers' policy: one per worker thread of a sweep,
    /// each reading the shared side.
    pub fn leakers(&self) -> LeakerSide<'_> {
        let ctx = SweepCtx::lend(self.ctx.snapshot().clone(), self.ctx.config());
        LeakerSide { victim: self, ctx }
    }
}

/// The leaker's half of a leak experiment: runs one leaker after another
/// against the [`VictimSide`] it was drawn from.
#[derive(Debug)]
pub struct LeakerSide<'v> {
    victim: &'v VictimSide,
    ctx: SweepCtx,
}

impl LeakerSide<'_> {
    fn propagate(&mut self, leaker: NodeId) {
        assert_ne!(self.victim.victim, leaker, "victim cannot leak its own prefix");
        self.ctx.run(leaker);
    }

    /// State of node `t` after [`Self::propagate`] ran `leaker`.
    #[inline]
    fn state_of(&self, leaker: NodeId, t: NodeId) -> DetourState {
        if t == self.victim.victim {
            return DetourState::Legit;
        }
        if t == leaker {
            return DetourState::Detoured;
        }
        // Packed selections compare as routes, no route losing to every
        // route; the leaked route wins ties in the worst-case analysis.
        let legit = self.victim.ctx.workspace().sel[t.idx()];
        let leaked = self.ctx.workspace().sel[t.idx()];
        if legit == UNREACHED && leaked == UNREACHED {
            DetourState::NoRoute
        } else if leaked <= legit {
            DetourState::Detoured
        } else {
            DetourState::Legit
        }
    }

    /// Runs `leaker` against the victim side, returning the full
    /// per-node outcome.
    ///
    /// Panics if `leaker` is the victim (a meaningless configuration
    /// callers are expected to avoid when sampling misconfigured ASes).
    pub fn run(&mut self, leaker: NodeId) -> LeakOutcome {
        self.propagate(leaker);
        let n = self.ctx.graph().len();
        let states = (0..n as u32).map(|i| self.state_of(leaker, NodeId(i))).collect();
        LeakOutcome { victim: self.victim.victim, leaker, states }
    }

    /// Runs `leaker` against the victim side and returns only the
    /// (optionally weighted) detour fraction, without materializing the
    /// per-node state vector — the zero-allocation form the CDF sweeps
    /// use.
    ///
    /// `weights: None` is [`LeakOutcome::fraction_detoured`];
    /// `Some(w)` is [`LeakOutcome::weighted_fraction_detoured`].
    pub fn fraction(&mut self, leaker: NodeId, weights: Option<&[f64]>) -> f64 {
        self.propagate(leaker);
        detour_fraction(self.ctx.graph().len(), weights, |t| {
            self.state_of(leaker, t) == DetourState::Detoured
        })
    }
}

impl LeakScenario {
    /// Propagates this scenario's victim side over `g` (its `leaker`
    /// is not read).
    pub fn victim_side(&self, g: &AsGraph) -> VictimSide {
        let export = self.victim_export.as_deref();
        VictimSide::propagate(g, self.victim, export, &self.locking, self.semantics)
    }
}

/// A leak simulator over a graph for one scenario at a time: each call
/// is a [`VictimSide`] and one leaker run against it. Sweeps over many
/// leakers of one scenario hold the victim side themselves and pay for
/// it once.
#[derive(Debug)]
pub struct LeakSim<'s> {
    graph: &'s AsGraph,
}

impl<'s> LeakSim<'s> {
    /// A simulator over `g`, on the topology's pooled buffers.
    pub fn new(g: &'s AsGraph) -> Self {
        LeakSim { graph: g }
    }

    /// Runs one scenario, returning the full per-node outcome.
    ///
    /// Panics if `victim == leaker` (a meaningless configuration callers
    /// are expected to avoid when sampling misconfigured ASes).
    pub fn run(&mut self, scenario: &LeakScenario) -> LeakOutcome {
        scenario.victim_side(self.graph).leakers().run(scenario.leaker)
    }

    /// Runs one scenario and returns only the (optionally weighted) detour
    /// fraction (see [`LeakerSide::fraction`]).
    pub fn fraction(&mut self, scenario: &LeakScenario, weights: Option<&[f64]>) -> f64 {
        scenario.victim_side(self.graph).leakers().fraction(scenario.leaker, weights)
    }

    /// Propagates the scenario's leaker alone, as a sub-prefix hijack
    /// needs: no route competes with a more specific prefix.
    fn subprefix_side(&self, scenario: &LeakScenario) -> SweepCtx {
        let mut ctx = Simulation::over(self.graph).ctx();
        let LeakScenario { victim, leaker, locking, semantics, .. } = scenario;
        let import = ctx.config_mut().import_mut(self.graph.len());
        fill_leak_import(import, *victim, locking, *semantics);
        assert_ne!(victim, leaker, "victim cannot leak its own prefix");
        ctx.run(*leaker);
        ctx
    }

    /// Runs a **more-specific (sub-prefix) hijack**: the leaker announces
    /// a longer prefix inside the victim's space, so longest-prefix-match
    /// — not BGP preference — decides, and *every* AS holding the leaked
    /// route is detoured regardless of its legitimate route.
    ///
    /// §8 deliberately studies same-length leaks ("the leaked routes have
    /// the same prefix length as the legitimate routes"); this extension
    /// quantifies the nastier variant. Peer locking is the only defence
    /// the model offers: under [`LockingSemantics::Corrected`], deployers
    /// drop the sub-prefix entirely, so it cannot spread through them.
    pub fn run_subprefix(&mut self, scenario: &LeakScenario) -> LeakOutcome {
        let side = self.subprefix_side(scenario);
        let n = self.graph.len();
        let ws = side.workspace();
        let states = (0..n as u32).map(|i| subprefix_state_of(ws, scenario, NodeId(i))).collect();
        LeakOutcome { victim: scenario.victim, leaker: scenario.leaker, states }
    }

    /// Sub-prefix hijack detour fraction without the per-node state vector.
    pub fn subprefix_fraction(
        &mut self,
        scenario: &LeakScenario,
        weights: Option<&[f64]>,
    ) -> f64 {
        let side = self.subprefix_side(scenario);
        detour_fraction(self.graph.len(), weights, |t| {
            subprefix_state_of(side.workspace(), scenario, t) == DetourState::Detoured
        })
    }
}

/// State of node `t` under a sub-prefix hijack whose leaker run `leak_ws`
/// holds.
#[inline]
fn subprefix_state_of(leak_ws: &Workspace, scenario: &LeakScenario, t: NodeId) -> DetourState {
    if t == scenario.victim {
        DetourState::Legit
    } else if t == scenario.leaker || leak_ws.reachable(t) {
        // LPM: any AS with the sub-prefix routes to the hijacker.
        DetourState::Detoured
    } else {
        // The covering legitimate prefix still serves everyone else;
        // treat "no sub-prefix route" as staying legit (the victim's
        // announcement configuration is irrelevant under LPM).
        DetourState::Legit
    }
}

/// The (optionally weighted) share of an `n`-node topology whose nodes
/// satisfy `detoured`, scanned in ascending node order: the node count
/// over `n` without weights ([`LeakOutcome::fraction_detoured`]), the
/// weight mass over the total with them
/// ([`LeakOutcome::weighted_fraction_detoured`]). Zero for an empty
/// topology or zero total weight.
fn detour_fraction(
    n: usize,
    weights: Option<&[f64]>,
    detoured: impl Fn(NodeId) -> bool,
) -> f64 {
    let hit = (0..n as u32).filter(|&i| detoured(NodeId(i)));
    match weights {
        None if n == 0 => 0.0,
        None => hit.count() as f64 / n as f64,
        Some(w) => {
            assert_eq!(w.len(), n, "weights must cover every node");
            let total: f64 = w.iter().sum();
            if total == 0.0 {
                return 0.0;
            }
            hit.map(|i| w[i as usize]).sum::<f64>() / total
        }
    }
}

/// Batch sub-prefix hijack: the (optionally weighted) detour fraction
/// for every leaker in `leakers`, under one victim / locking / semantics
/// configuration — the kernel-backed form of
/// [`LeakSim::subprefix_fraction`], bit-identical to running it per
/// leaker.
///
/// Sub-prefix detours are pure reach sets (longest-prefix match decides,
/// so there is no route competition), and the leaker propagation's
/// import policy depends only on the victim and the locking set — shared
/// by every leaker. That makes the whole CDF one multi-origin sweep:
/// leakers are packed 64, 128 or 256 per block ([`LaneWidth::Auto`](crate::LaneWidth::Auto))
/// through [`Simulation::sweep`], each lane-vector frontier expansion
/// advancing a block of hijacks at once, and each lane's detour share is
/// summed straight off the block's route words, in the node order
/// [`LeakSim::subprefix_fraction`] sums it. Note the per-lane policy semantics:
/// under [`LockingSemantics::PreErratum`] a locking AS rejects routes
/// *directly from the origin*, and "the origin" differs per lane — the
/// kernel's origin-membership words resolve that per bit.
pub fn subprefix_detour_fractions(
    g: &AsGraph,
    victim: NodeId,
    leakers: &[NodeId],
    locking: &[NodeId],
    semantics: LockingSemantics,
    weights: Option<&[f64]>,
    threads: usize,
) -> Vec<f64> {
    for &l in leakers {
        assert_ne!(victim, l, "victim cannot leak its own prefix");
    }
    let n = g.len();
    if let Some(w) = weights {
        assert_eq!(w.len(), n, "weights must cover every node");
    }
    let mut import = vec![ImportPolicy::Normal; n];
    fill_leak_import(&mut import, victim, locking, semantics);
    // Every AS holding the sub-prefix is detoured; the leaker's own
    // origin bit is set (its traffic terminates locally), and the
    // victim's import policy keeps its bit clear.
    Simulation::over(g)
        .config(PropagationConfig::new().with_import(import))
        .threads(threads)
        .sweep(leakers, |_, _| {}, Fractions { weights })
        .unwrap_or_else(|e| panic!("{e}"))
        .kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use flatnet_asgraph::{AsGraph, AsGraphBuilder, AsId, Relationship};

    /// One scenario on a fresh simulator over `g`.
    fn simulate(g: &AsGraph, scenario: &LeakScenario) -> LeakOutcome {
        LeakSim::new(g).run(scenario)
    }

    #[test]
    fn subprefix_hijack_detours_everything_reachable() {
        // Like `topology()`, but 40 also buys transit from T (1): its
        // 1-hop peer route to the victim wins the same-length competition,
        // yet the sub-prefix arriving via its provider still captures it.
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(1), AsId(30), Relationship::P2c);
        b.add_link(AsId(1), AsId(20), Relationship::P2c);
        b.add_link(AsId(1), AsId(40), Relationship::P2c);
        b.add_link(AsId(10), AsId(1), Relationship::P2p);
        b.add_link(AsId(10), AsId(40), Relationship::P2p);
        let g = b.build();
        let same = simulate(&g, &LeakScenario::simple(node(&g, 10), node(&g, 30)));
        assert_eq!(same.state(node(&g, 40)), DetourState::Legit);
        let out = LeakSim::new(&g).run_subprefix(&LeakScenario::simple(node(&g, 10), node(&g, 30)));
        assert_eq!(out.state(node(&g, 1)), DetourState::Detoured);
        assert_eq!(out.state(node(&g, 20)), DetourState::Detoured);
        assert_eq!(out.state(node(&g, 40)), DetourState::Detoured);
        assert_eq!(out.state(node(&g, 10)), DetourState::Legit);
        assert!(out.detoured_count() > same.detoured_count());
    }

    #[test]
    fn global_locking_contains_subprefix_hijacks() {
        let g = topology();
        let victim = node(&g, 10);
        let scenario = LeakScenario {
            victim,
            leaker: node(&g, 30),
            victim_export: None,
            locking: g.neighbors(victim).map(|(n, _)| n).collect(),
            semantics: LockingSemantics::Corrected,
        };
        let out = LeakSim::new(&g).run_subprefix(&scenario);
        // The locking transit drops the sub-prefix: only the leaker
        // itself is detoured.
        assert_eq!(out.detoured_count(), 1);
        assert_eq!(out.state(node(&g, 1)), DetourState::Legit);
        assert_eq!(out.state(node(&g, 40)), DetourState::Legit);
    }

    fn node(g: &AsGraph, asn: u32) -> NodeId {
        g.index_of(AsId(asn)).unwrap()
    }

    /// Victim 10 peers with transit T (1) and with edge ASes 40, 50.
    /// Leaker 30 is a customer of T. T also serves customer 20.
    fn topology() -> AsGraph {
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(1), AsId(30), Relationship::P2c);
        b.add_link(AsId(1), AsId(20), Relationship::P2c);
        b.add_link(AsId(10), AsId(1), Relationship::P2p);
        b.add_link(AsId(10), AsId(40), Relationship::P2p);
        b.add_link(AsId(10), AsId(50), Relationship::P2p);
        b.build()
    }

    #[test]
    fn customer_preference_attracts_transit() {
        let g = topology();
        let out = simulate(&g, &LeakScenario::simple(node(&g, 10), node(&g, 30)));
        // T prefers the leaked *customer* route from 30 over the peer route
        // from the victim.
        assert_eq!(out.state(node(&g, 1)), DetourState::Detoured);
        // ...and passes the leaked route to its customer 20.
        assert_eq!(out.state(node(&g, 20)), DetourState::Detoured);
        // Direct peers of the victim hold a 1-hop peer route; the leaked
        // copy reaches them as a longer peer route via T? No — T exports a
        // customer-learned route to peers, length 2 > 1. Legit wins.
        assert_eq!(out.state(node(&g, 40)), DetourState::Legit);
        assert_eq!(out.state(node(&g, 10)), DetourState::Legit);
        assert_eq!(out.state(node(&g, 30)), DetourState::Detoured);
        assert_eq!(out.detoured_count(), 3);
        assert!((out.fraction_detoured() - 3.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn leaksim_fraction_matches_full_outcome() {
        let g = topology();
        let mut sim = LeakSim::new(&g);
        let scenario = LeakScenario::simple(node(&g, 10), node(&g, 30));
        let out = sim.run(&scenario);
        assert_eq!(sim.fraction(&scenario, None), out.fraction_detoured());
        let mut w = vec![1.0; g.len()];
        w[node(&g, 1).idx()] = 5.0;
        assert_eq!(sim.fraction(&scenario, Some(&w)), out.weighted_fraction_detoured(&w));
        // Reusing the simulator for a sub-prefix run agrees too.
        let sub = sim.run_subprefix(&scenario);
        assert_eq!(sim.subprefix_fraction(&scenario, None), sub.fraction_detoured());
        assert_eq!(
            sim.subprefix_fraction(&scenario, Some(&w)),
            sub.weighted_fraction_detoured(&w)
        );
    }

    #[test]
    fn peer_locking_at_transit_stops_the_leak() {
        let g = topology();
        let scenario = LeakScenario {
            victim: node(&g, 10),
            leaker: node(&g, 30),
            victim_export: None,
            locking: vec![node(&g, 1)],
            semantics: LockingSemantics::Corrected,
        };
        let out = simulate(&g, &scenario);
        // T discards the leaked route (peer lock) and keeps the direct
        // peer route from the victim.
        assert_eq!(out.state(node(&g, 1)), DetourState::Legit);
        assert_eq!(out.state(node(&g, 20)), DetourState::Legit);
        // Only the leaker itself is detoured.
        assert_eq!(out.detoured_count(), 1);
    }

    #[test]
    fn pre_erratum_semantics_let_leaks_through_locking_ases() {
        // The leak reaches locking AS 1 via intermediary 2, which is 1's
        // *customer*. Under the original (pre-erratum) semantics, AS 1
        // accepts that indirect copy, and local preference makes the
        // customer-learned leak beat the victim's direct peer route — so 1
        // and its customer 20 are detoured. Under the corrected semantics
        // the indirect copy is discarded and both stay safe.
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(2), AsId(30), Relationship::P2c);
        b.add_link(AsId(1), AsId(2), Relationship::P2c);
        b.add_link(AsId(1), AsId(20), Relationship::P2c);
        b.add_link(AsId(10), AsId(1), Relationship::P2p);
        let g = b.build();
        let mut scenario = LeakScenario {
            victim: node(&g, 10),
            leaker: node(&g, 30),
            victim_export: None,
            locking: vec![node(&g, 1)],
            semantics: LockingSemantics::PreErratum,
        };
        let out = simulate(&g, &scenario);
        assert_eq!(out.state(node(&g, 1)), DetourState::Detoured);
        assert_eq!(out.state(node(&g, 2)), DetourState::Detoured);
        // (AS 20 compares the two independently propagated routes — the
        // victim's provider route wins on length there, the same per-AS
        // comparison the paper's simulator makes.)
        // Corrected semantics: the locking AS is immune again.
        scenario.semantics = LockingSemantics::Corrected;
        let out = simulate(&g, &scenario);
        assert_eq!(out.state(node(&g, 1)), DetourState::Legit);
        assert_eq!(out.state(node(&g, 20)), DetourState::Legit);
    }

    #[test]
    fn pre_erratum_still_filters_direct_leaks() {
        // Leaker adjacent to the locking AS: both semantics filter it.
        let g = topology();
        for semantics in [LockingSemantics::PreErratum, LockingSemantics::Corrected] {
            let scenario = LeakScenario {
                victim: node(&g, 10),
                leaker: node(&g, 30),
                victim_export: None,
                locking: vec![node(&g, 1)],
                semantics,
            };
            let out = simulate(&g, &scenario);
            assert_eq!(out.state(node(&g, 1)), DetourState::Legit, "{semantics:?}");
            assert_eq!(out.state(node(&g, 20)), DetourState::Legit, "{semantics:?}");
        }
    }

    #[test]
    fn leak_does_not_propagate_through_locking_as() {
        // Erratum semantics: a leaked route reaching a locking AS via some
        // other AS is still discarded.
        // Chain: leaker 30 -> its provider 2 -> 2 peers with locking T (1),
        // T has customer 20; victim 10 peers with T only.
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(2), AsId(30), Relationship::P2c);
        b.add_link(AsId(2), AsId(1), Relationship::P2p);
        b.add_link(AsId(1), AsId(20), Relationship::P2c);
        b.add_link(AsId(10), AsId(1), Relationship::P2p);
        let g = b.build();
        let scenario = LeakScenario {
            victim: node(&g, 10),
            leaker: node(&g, 30),
            victim_export: None,
            locking: vec![node(&g, 1)],
            semantics: LockingSemantics::Corrected,
        };
        let out = simulate(&g, &scenario);
        // Without locking, T would hear the leak from peer 2 (customer
        // route at 2, exportable to peers) and pass it to customer 20
        // tying/beating the legit peer route. With locking, 20 is safe.
        assert_eq!(out.state(node(&g, 1)), DetourState::Legit);
        assert_eq!(out.state(node(&g, 20)), DetourState::Legit);
        // 2 itself prefers its customer's leaked route.
        assert_eq!(out.state(node(&g, 2)), DetourState::Detoured);
    }

    #[test]
    fn announce_to_transit_only_reduces_resilience() {
        let g = topology();
        // Victim announces only to T — its direct peers 40/50 now depend on
        // T's route and tie-break worst-case toward the leak? 40 hears
        // nothing (T exports peer-learned route only to customers), so 40
        // has no route at all; it is not detoured but also not served.
        let scenario = LeakScenario {
            victim: node(&g, 10),
            leaker: node(&g, 30),
            victim_export: Some(vec![node(&g, 1)]),
            locking: vec![],
            semantics: LockingSemantics::Corrected,
        };
        let out = simulate(&g, &scenario);
        assert_eq!(out.state(node(&g, 40)), DetourState::NoRoute);
        // T still prefers the leaked customer route.
        assert_eq!(out.state(node(&g, 1)), DetourState::Detoured);
        assert_eq!(out.state(node(&g, 20)), DetourState::Detoured);
    }

    #[test]
    fn scenario_buffers_are_refilled_not_leaked_across_runs() {
        // Run a locking scenario, then a plain one on the same LeakSim:
        // the second run must behave exactly like a fresh simulator.
        let g = topology();
        let mut sim = LeakSim::new(&g);
        let locked = LeakScenario {
            victim: node(&g, 10),
            leaker: node(&g, 30),
            victim_export: Some(vec![node(&g, 1)]),
            locking: vec![node(&g, 1)],
            semantics: LockingSemantics::Corrected,
        };
        let _ = sim.run(&locked);
        let plain = LeakScenario::simple(node(&g, 10), node(&g, 30));
        let reused = sim.run(&plain);
        let fresh = simulate(&crate::engine::rebuilt(&g), &plain);
        assert_eq!(reused.states(), fresh.states());
    }

    #[test]
    fn equal_routes_detour_worst_case() {
        // t has two providers: one leads to victim, one to leaker, equal
        // class and length.
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(2), AsId(10), Relationship::P2c); // provider 2 -> victim
        b.add_link(AsId(3), AsId(30), Relationship::P2c); // provider 3 -> leaker
        b.add_link(AsId(2), AsId(5), Relationship::P2c);
        b.add_link(AsId(3), AsId(5), Relationship::P2c);
        let g = b.build();
        let out = simulate(&g, &LeakScenario::simple(node(&g, 10), node(&g, 30)));
        assert_eq!(out.state(node(&g, 5)), DetourState::Detoured);
    }

    #[test]
    fn weighted_fraction_uses_population_mass() {
        let g = topology();
        let out = simulate(&g, &LeakScenario::simple(node(&g, 10), node(&g, 30)));
        // Put all weight on a legit AS: weighted fraction 0.
        let mut w = vec![0.0; g.len()];
        w[node(&g, 40).idx()] = 100.0;
        assert_eq!(out.weighted_fraction_detoured(&w), 0.0);
        // All weight on the detoured transit: fraction 1.
        let mut w = vec![0.0; g.len()];
        w[node(&g, 1).idx()] = 7.0;
        assert_eq!(out.weighted_fraction_detoured(&w), 1.0);
        // Zero weights: defined as 0.
        let w = vec![0.0; g.len()];
        assert_eq!(out.weighted_fraction_detoured(&w), 0.0);
    }

    #[test]
    #[should_panic(expected = "victim cannot leak")]
    fn victim_equals_leaker_panics() {
        let g = topology();
        simulate(&g, &LeakScenario::simple(node(&g, 10), node(&g, 10)));
    }

    #[test]
    fn batch_subprefix_matches_per_leaker_sim() {
        // The hand-built topology, and a generated one of 300 ASes whose
        // 299 leakers fill whole blocks and leave a tail block at every
        // width, under weights whose magnitudes span twelve decades, so
        // that summing a lane's mass in any order but the scalar's shows.
        let small = topology();
        let net = flatnet_netgen::generate(&flatnet_netgen::NetGenConfig {
            n_ases: 300,
            ..flatnet_netgen::NetGenConfig::tiny(3)
        });
        let mut w = vec![1.0; small.len()];
        w[node(&small, 1).idx()] = 5.0;
        w[node(&small, 20).idx()] = 0.25;
        let wide: Vec<f64> =
            (0..300).map(|i: i32| f64::from((i * 7919) % 1013) * 10f64.powi(i % 13 - 6)).collect();
        let cases = [
            (&small, node(&small, 10), [node(&small, 1), node(&small, 40)], w),
            (&net.truth, NodeId(0), [NodeId(7), NodeId(150)], wide),
        ];
        for (g, victim, locked, w) in cases {
            let leakers: Vec<NodeId> = g.nodes().filter(|&t| t != victim).collect();
            for semantics in [LockingSemantics::Corrected, LockingSemantics::PreErratum] {
                for locking in [vec![], locked[..1].to_vec(), locked.to_vec()] {
                    for weights in [None, Some(w.as_slice())] {
                        let batch = subprefix_detour_fractions(
                            g, victim, &leakers, &locking, semantics, weights, 2,
                        );
                        let mut sim = LeakSim::new(g);
                        for (i, &leaker) in leakers.iter().enumerate() {
                            let scenario = LeakScenario {
                                victim,
                                leaker,
                                victim_export: None,
                                locking: locking.clone(),
                                semantics,
                            };
                            let want = sim.subprefix_fraction(&scenario, weights);
                            assert_eq!(
                                batch[i].to_bits(),
                                want.to_bits(),
                                "{} ASes, leaker {leaker}, {semantics:?}, locking {locking:?}, \
                                 weighted={}: batch {} != scalar {want}",
                                g.len(),
                                weights.is_some(),
                                batch[i],
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn batch_subprefix_empty_inputs() {
        let g = topology();
        let out = subprefix_detour_fractions(
            &g,
            node(&g, 10),
            &[],
            &[],
            LockingSemantics::Corrected,
            None,
            1,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn victim_never_accepts_the_leak() {
        // Victim's provider hears the leak from another customer; victim
        // must stay Legit regardless.
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(1), AsId(10), Relationship::P2c);
        b.add_link(AsId(1), AsId(30), Relationship::P2c);
        let g = b.build();
        let out = simulate(&g, &LeakScenario::simple(node(&g, 10), node(&g, 30)));
        assert_eq!(out.state(node(&g, 10)), DetourState::Legit);
        assert_eq!(out.victim(), node(&g, 10));
        assert_eq!(out.leaker(), node(&g, 30));
    }
}
