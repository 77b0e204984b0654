//! The routing reference: §6.1's policies solved as a Stable Paths
//! Problem (Griffin, Shepherd & Wilfong, ToN 2002).
//!
//! Every AS ranks the routes its neighbours export to it — class first
//! (learned from a customer, then a peer, then a provider), then the
//! shorter AS path — and keeps every sender of the best one. Exports are
//! valley-free: an AS passes a customer-learned route (its own prefix
//! included) to every neighbour, any other route to its customers only.
//! Gao & Rexford (ToN 2001) show that these policies reach one stable
//! state when no AS is its own indirect provider.
//!
//! The solver is the definition run until it holds: each round, every AS
//! takes the best offer its neighbours' selections of the round before
//! export to it, until a round changes nothing. There are no phases, no
//! queue and no class-ordered work. The exclusion, origin-export and
//! import rules are restated here rather than borrowed, and the solver
//! calls no `flatnet-bgpsim` code: it reads the graph's adjacency and
//! speaks the engine's vocabulary (`RouteClass`, `ImportPolicy`,
//! `DetourState`, `LockingSemantics`) and nothing else of it.
//! [`StablePaths::check`] is the other side of a differential: it reads
//! a finished engine run through its public accessors.

use flatnet_asgraph::graph::NeighborKind;
use flatnet_asgraph::{AsGraph, NodeId};
use flatnet_bgpsim::{
    DetourState, ImportPolicy, LockingSemantics, PropagationConfig, RouteClass, RoutingOutcome,
};
use std::fmt::Debug;

/// A route as the solver ranks it: class, then AS-path length.
pub type Route = (RouteClass, u32);

/// The policy inputs of one announcement, as a test draws them. An empty
/// mask is switched off, as in [`PropagationConfig`].
#[derive(Debug, Clone, Default)]
pub struct Rules {
    /// `true`: the AS is removed from the topology — it neither holds nor
    /// passes a route, and removed, the origin announces nothing.
    pub excluded: Vec<bool>,
    /// `true`: the origin announces to this neighbour.
    pub origin_export: Vec<bool>,
    /// What each AS accepts ([`ImportPolicy`]).
    pub import: Vec<ImportPolicy>,
}

impl Rules {
    /// The same masks as the engine's config, for the run under test.
    pub fn config(&self) -> PropagationConfig {
        PropagationConfig::new()
            .with_excluded(self.excluded.clone())
            .with_origin_export(self.origin_export.clone())
            .with_import(self.import.clone())
    }

    fn is_excluded(&self, v: NodeId) -> bool {
        !self.excluded.is_empty() && self.excluded[v.idx()]
    }

    /// Whether `u` takes what `v` exports to it of `origin`'s prefix.
    fn accepts(&self, origin: NodeId, u: NodeId, v: NodeId) -> bool {
        let direct = v == origin;
        let policy = if self.import.is_empty() { ImportPolicy::Normal } else { self.import[u.idx()] };
        let by_policy = match policy {
            ImportPolicy::Normal => true,
            ImportPolicy::OnlyDirectFromOrigin => direct,
            ImportPolicy::RejectDirectFromOrigin => !direct,
            ImportPolicy::Never => false,
        };
        let announced = !direct || self.origin_export.is_empty() || self.origin_export[u.idx()];
        !self.is_excluded(u) && !self.is_excluded(v) && by_policy && announced
    }
}

/// The stable state of one announcement: each AS's selected route and
/// the neighbours it is tied between.
#[derive(Debug, Clone)]
pub struct StablePaths {
    origin: NodeId,
    selection: Vec<Option<Route>>,
    ties: Vec<Vec<NodeId>>,
    rounds: usize,
}

/// Solves `origin`'s announcement over `g` under `rules`.
///
/// Panics if no round leaves every selection as it was within `2·|V| + 3`
/// rounds — more than any graph without a provider cycle needs.
pub fn stable_paths(g: &AsGraph, origin: NodeId, rules: &Rules) -> StablePaths {
    let n = g.len();
    let mut selection: Vec<Option<Route>> = vec![None; n];
    let mut ties = vec![Vec::new(); n];
    if rules.is_excluded(origin) {
        return StablePaths { origin, selection, ties, rounds: 0 };
    }
    selection[origin.idx()] = Some((RouteClass::Customer, 0));
    let mut rounds = 0;
    loop {
        rounds += 1;
        assert!(rounds <= 2 * n + 3, "no stable state from {origin} in {rounds} rounds");
        let mut next = selection.clone();
        for u in g.nodes().filter(|&u| u != origin) {
            next[u.idx()] = best_offer(g, origin, rules, &selection, u, &mut ties[u.idx()]);
        }
        if next == selection {
            // The tie sets were read off these very selections.
            return StablePaths { origin, selection, ties, rounds };
        }
        selection = next;
    }
}

/// The best route `u`'s neighbours export to it, given their selections,
/// with every neighbour that offers it in `senders` (ascending).
fn best_offer(
    g: &AsGraph,
    origin: NodeId,
    rules: &Rules,
    selection: &[Option<Route>],
    u: NodeId,
    senders: &mut Vec<NodeId>,
) -> Option<Route> {
    senders.clear();
    let mut best = None;
    for (v, kind) in g.neighbors(u) {
        let Some((class, len)) = selection[v.idx()] else { continue };
        // Valley-free: `v` passes a customer route to all, others down.
        let exported = class == RouteClass::Customer || kind == NeighborKind::Provider;
        if !exported || !rules.accepts(origin, u, v) {
            continue;
        }
        let learned_over = match kind {
            NeighborKind::Customer => RouteClass::Customer,
            NeighborKind::Peer => RouteClass::Peer,
            NeighborKind::Provider => RouteClass::Provider,
        };
        let offer = Some((learned_over, len + 1));
        if best.is_none() || offer < best {
            best = offer;
            senders.clear();
        }
        if offer == best {
            senders.push(v);
        }
    }
    senders.sort_unstable();
    best
}

impl StablePaths {
    /// `v`'s selected route; `None` if it holds none. The origin holds
    /// `(Customer, 0)` unless it is excluded.
    pub fn selection(&self, v: NodeId) -> Option<Route> {
        self.selection[v.idx()]
    }

    /// The neighbours `v`'s selected route is tied between, ascending;
    /// empty for the origin and for an AS without a route.
    pub fn ties(&self, v: NodeId) -> &[NodeId] {
        &self.ties[v.idx()]
    }

    /// Rounds until one changed nothing, that round included.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Whether the engine's `run` of this announcement, made over `g`
    /// under `cfg` (the same rules), reads the same through every
    /// accessor: origin, reach bit and count, each AS's selection and its
    /// tied-best next hops. `Err` names the first AS and accessor that
    /// differ.
    pub fn check(
        &self,
        g: &AsGraph,
        cfg: &PropagationConfig,
        run: &RoutingOutcome,
    ) -> Result<(), String> {
        same("origin, length", (run.origin(), run.len()), (self.origin, self.selection.len()))?;
        for v in g.nodes() {
            let of = |what: &str| format!("{what} of {v}");
            same(&of("selection"), run.selection(v), self.selection(v))?;
            same(&of("reach bit"), run.reachable(v), self.selection(v).is_some())?;
            same(&of("tie set"), &run.next_hops(g, cfg, v)[..], self.ties(v))?;
        }
        let reached = self.selection.iter().filter(|s| s.is_some()).count();
        same("reach count", run.reachable_count(), reached.saturating_sub(1))
    }
}

/// `Err` naming `what` unless the run's reading equals the fixpoint's.
fn same<T: PartialEq + Debug>(what: &str, run: T, fixpoint: T) -> Result<(), String> {
    if run == fixpoint {
        Ok(())
    } else {
        Err(format!("{what}: run {run:?} vs fixpoint {fixpoint:?}"))
    }
}

/// §8's leak competition from two fixpoints: `victim` and `leaker` both
/// announce the prefix, the victim to `victim_export` alone when given,
/// while the ASes of `locking` deploy peer locking under `semantics`.
///
/// The victim's announcement meets `OnlyDirectFromOrigin` at the lockers
/// under corrected semantics (the original simulation let it pass
/// unfiltered). The leaked one is never taken by the victim, and at the
/// lockers meets `Never` (corrected) or `RejectDirectFromOrigin`
/// (pre-erratum: only the copy the leaker hands over directly is
/// dropped). Then each AS compares the two routes it holds: the leaked
/// route wins ties (the paper's worst case), and no route loses to every
/// route.
pub fn leak_states(
    g: &AsGraph,
    victim: NodeId,
    leaker: NodeId,
    victim_export: Option<&[NodeId]>,
    locking: &[NodeId],
    semantics: LockingSemantics,
) -> Vec<DetourState> {
    assert_ne!(victim, leaker, "the victim cannot leak its own prefix");
    let n = g.len();
    let mark = |ases: &[NodeId]| {
        let mut mask = vec![false; n];
        ases.iter().for_each(|a| mask[a.idx()] = true);
        mask
    };
    let locks = mark(locking);
    let corrected = semantics == LockingSemantics::Corrected;
    let legit_rules = Rules {
        origin_export: victim_export.map(mark).unwrap_or_default(),
        import: (0..n)
            .map(|i| match corrected && locks[i] {
                true => ImportPolicy::OnlyDirectFromOrigin,
                false => ImportPolicy::Normal,
            })
            .collect(),
        ..Rules::default()
    };
    let leak_rules = Rules {
        import: (0..n)
            .map(|i| match (i == victim.idx(), locks[i]) {
                (true, _) => ImportPolicy::Never,
                (false, true) if corrected => ImportPolicy::Never,
                (false, true) => ImportPolicy::RejectDirectFromOrigin,
                (false, false) => ImportPolicy::Normal,
            })
            .collect(),
        ..Rules::default()
    };
    let legit = stable_paths(g, victim, &legit_rules);
    let leaked = stable_paths(g, leaker, &leak_rules);
    g.nodes()
        .map(|t| match (legit.selection(t), leaked.selection(t)) {
            _ if t == victim => DetourState::Legit,
            _ if t == leaker => DetourState::Detoured,
            (None, None) => DetourState::NoRoute,
            (_, None) => DetourState::Legit,
            (None, Some(_)) => DetourState::Detoured,
            (Some(a), Some(b)) if b <= a => DetourState::Detoured,
            (Some(_), Some(_)) => DetourState::Legit,
        })
        .collect()
}
