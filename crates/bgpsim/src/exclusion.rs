//! The paper's exclusion rule, spelled once.
//!
//! Every constrained analysis (§6.1 reachability, §6.4 unreachable
//! breakdown, §7.1 reliance) propagates over `I \ P_o \ T1 \ T2` or a
//! prefix of that chain: bypass the origin's transit providers, the
//! Tier-1s, the Tier-2s — the origin itself always allowed, so a Tier-1
//! computing its Tier-1-free reachability bypasses the *other* clique
//! members. [`Exclusion`] renders the rule in the two shapes the engines
//! want: for a lane sweep, the origin-independent tier sets as the shared
//! config mask ([`Exclusion::shared_config`], broadcast once per kernel
//! block instead of ~60 installs per lane) plus the per-origin remainder
//! per lane ([`Exclusion::fill_lane`]); for a scalar run, both halves in
//! one mask ([`Exclusion::fill_scalar`]). `tests/engine_equiv.rs` pins
//! the two equal for every origin and policy. Dependency metrics are only
//! comparable when every consumer excludes the same set, so nothing else
//! iterates the tier lists to build a mask.

use crate::lanes::LaneExcluder;
use crate::propagate::PropagationConfig;
use flatnet_asgraph::{AsGraph, NodeId, Tiers};
use std::fmt;

/// Which of the paper's three bypass sets a run excludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ExclusionPolicy {
    /// Bypass the origin's transit providers (`\ P_o`).
    pub providers: bool,
    /// Bypass the Tier-1 clique (`\ T1`).
    pub tier1: bool,
    /// Bypass the Tier-2 ISPs (`\ T2`).
    pub tier2: bool,
}

impl ExclusionPolicy {
    /// Nothing excluded: the full graph.
    pub const NONE: Self = Self::from_bits(0);
    /// `I \ P_o` — provider-free reachability.
    pub const PROVIDER_FREE: Self = Self::from_bits(1);
    /// `I \ P_o \ T1` — Tier-1-free reachability.
    pub const TIER1_FREE: Self = Self::from_bits(3);
    /// `I \ P_o \ T1 \ T2` — the paper's headline hierarchy-free metric.
    pub const HIERARCHY_FREE: Self = Self::from_bits(7);

    /// The policy as flag bits (`providers = 1`, `tier1 = 2`,
    /// `tier2 = 4`) — the value the serve cache fingerprints.
    pub const fn bits(self) -> u64 {
        self.providers as u64 | (self.tier1 as u64) << 1 | (self.tier2 as u64) << 2
    }

    /// The inverse of [`Self::bits`]; higher bits are ignored.
    pub const fn from_bits(bits: u64) -> Self {
        Self { providers: bits & 1 != 0, tier1: bits & 2 != 0, tier2: bits & 4 != 0 }
    }
}

/// The tier sets do not belong to the graph they are applied to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExclusionError {
    /// The offending tier member.
    pub node: NodeId,
    /// Node count of the graph it was checked against.
    pub graph_len: usize,
}

impl fmt::Display for ExclusionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tier member {} is out of range for a {}-node graph (tiers built against a different graph?)",
            self.node, self.graph_len
        )
    }
}

impl std::error::Error for ExclusionError {}

/// An [`ExclusionPolicy`] bound to the graph and tier sets it applies to.
#[derive(Debug, Clone, Copy)]
pub struct Exclusion<'a> {
    g: &'a AsGraph,
    tiers: &'a Tiers,
    policy: ExclusionPolicy,
}

impl<'a> Exclusion<'a> {
    /// Binds `policy` to `g` and `tiers`, checking once that every tier
    /// member is a node of `g` — so no rendering below can index out of
    /// bounds in the middle of a sweep.
    pub fn new(
        g: &'a AsGraph,
        tiers: &'a Tiers,
        policy: ExclusionPolicy,
    ) -> Result<Self, ExclusionError> {
        match tiers.tier1().iter().chain(tiers.tier2()).find(|t| t.idx() >= g.len()) {
            Some(&node) => Err(ExclusionError { node, graph_len: g.len() }),
            None => Ok(Exclusion { g, tiers, policy }),
        }
    }

    /// The tier members the policy excludes.
    fn tier_nodes(&self) -> impl Iterator<Item = NodeId> + 'a {
        let t1 = if self.policy.tier1 { self.tiers.tier1() } else { &[] };
        let t2 = if self.policy.tier2 { self.tiers.tier2() } else { &[] };
        t1.iter().chain(t2).copied()
    }

    /// The origin-independent half as a sweep's shared config: the
    /// excluded tiers as its mask, or no mask at all when the policy
    /// excludes neither tier.
    pub fn shared_config(&self) -> PropagationConfig {
        let mut cfg = PropagationConfig::default();
        if self.policy.tier1 || self.policy.tier2 {
            let mask = cfg.excluded_mask_mut(self.g.len());
            self.tier_nodes().for_each(|t| mask[t.idx()] = true);
        }
        cfg
    }

    /// The per-origin half for one kernel lane, on top of
    /// [`Self::shared_config`]: `origin`'s providers excluded, `origin`
    /// itself allowed even where the shared mask covers it.
    pub fn fill_lane(&self, origin: NodeId, ex: &mut LaneExcluder<'_>) {
        if self.policy.providers {
            self.g.providers(origin).iter().for_each(|&p| ex.exclude(p));
        }
        ex.allow(origin);
    }

    /// The whole rule for `origin` as a scalar mask over the graph's
    /// nodes (`mask.len() == g.len()`); every entry is overwritten.
    pub fn fill_scalar(&self, origin: NodeId, mask: &mut [bool]) {
        assert_eq!(mask.len(), self.g.len(), "exclusion mask must cover every node");
        mask.fill(false);
        if self.policy.providers {
            self.g.providers(origin).iter().for_each(|&p| mask[p.idx()] = true);
        }
        self.tier_nodes().for_each(|t| mask[t.idx()] = true);
        mask[origin.idx()] = false;
    }
}
