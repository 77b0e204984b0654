#![warn(missing_docs)]
#![deny(unsafe_code)]

//! # flatnet-bgpsim — valley-free BGP route propagation, all ties kept
//!
//! This crate implements the simulator at the heart of "Cloud Provider
//! Connectivity in the Flat Internet" (IMC 2020, §6.1): routes from an
//! origin AS propagate over an [`AsGraph`](flatnet_asgraph::AsGraph) under
//! the standard Gao-Rexford policy model —
//!
//! * **valley-free export**: an AS exports routes learned from customers
//!   (and its own prefixes) to everyone, but routes learned from peers or
//!   providers only to its customers;
//! * **local preference**: customer routes over peer routes over provider
//!   routes, then shortest AS path;
//! * **all paths tied for best propagate, without breaking ties** — the
//!   paper's explicit modelling choice for both reachability and the
//!   worst-case route-leak analysis.
//!
//! The module map follows the paper's analyses:
//!
//! * [`propagate`] — the three-phase propagation semantics, the owned
//!   [`PropagationConfig`] and the [`RoutingOutcome`] a run leaves (its
//!   selections, tied-best next hops and path membership, read in place),
//!   with support for *node exclusion* (the `I \ P_o \ T1 \ T2` subgraphs
//!   behind hierarchy-free reachability), *origin export restriction*
//!   (§8's "announce to Tier-1/Tier-2/providers only"), and *import
//!   policies* (§8's peer locking).
//! * [`engine`] — the batched propagation engine: reusable
//!   [`Workspace`]s and the builder-style [`Simulation`] sweep API every
//!   whole-Internet experiment runs on, including [`Simulation::sweep`],
//!   the one call in front of the kernel below, whose [`Keep`] argument
//!   picks what is read off each block: [`Counts`], [`Words`] or
//!   [`Sets`]. Every entry point takes the [`AsGraph`](flatnet_asgraph::AsGraph)
//!   itself, whose adjacency is already in the layout the kernels walk,
//!   and looks up once per call what the graph's block keeps for this
//!   crate: a who-has-customers bitset and the pooled scratch sized for
//!   the topology (lane workspaces, the scalar contexts a [`SweepCtx`]
//!   or leak side checks out, reliance kernels), so repeated sweeps over
//!   one topology reuse warm buffers whoever runs them;
//!   [`scratch_bytes`] reports what is idle. That lookup is the
//!   engine's own view, [`TopologySnapshot`]; outside this crate it is
//!   only a handle the `benchmark/` package holds, which dereferences to
//!   the graph.
//! * [`exclusion`] — the paper's `I \ P_o \ T1 \ T2` rule, spelled once:
//!   an [`ExclusionPolicy`] and its three renderings (shared tier mask,
//!   per-lane fill, scalar mask) for every constrained analysis.
//! * [`lanes`] — the bit-parallel multi-origin kernel: 64/128/256
//!   origins per block (width picked at runtime via [`LaneWidth`], AVX2
//!   runner included), one receiver rule for all three phases, one
//!   [`LaneExcluder`] for every width, reach sets bit-identical to
//!   per-origin [`Workspace`] runs at every width.
//! * [`reachset`] — [`ReachSet`], a reach set kept by its shorter side
//!   (missing nodes, reached nodes or the bitset) for consumers that hold
//!   many of them (a [`Sets`] sweep).
//! * [`parallel`] — panic-isolated parallel sweeps with per-worker
//!   contexts.
//! * [`mod@reliance`] — `rely(o, a)` (§7.1) in O(E) via a topological DP:
//!   the [`RelianceWorkspace`] kernel scores straight off a finished
//!   [`Workspace`].
//! * [`leak`] — route-leak competition between a legitimate origin and a
//!   misconfigured AS (§8), with the erratum-corrected peer-locking rule:
//!   a [`VictimSide`] propagated once, any number of leakers run against
//!   it.
//! * [`collectors`] — RouteViews-style RIB collection at monitor ASes,
//!   the raw input AS-relationship datasets are inferred from.
//!
//! Reference code, which nothing shipped calls (CI refuses a non-test
//! line under `crates/*/src` or `examples/` that names it):
//!
//! * [`dag`] — [`NextHopDag`], the tied-best next-hop DAG materialised
//!   with exact/floating path counts, and [`reliance()`] over it: the
//!   oracles of [`RelianceWorkspace`] and of the shipped walks that read
//!   next hops off a run in place (`tests/engine_equiv.rs`). `paths`, the
//!   exponential tied-best path enumeration, is compiled for the unit
//!   tests alone.
//!
//! Every run's selections and tie sets are held to a reference outside
//! this crate: the test kit's stable-paths fixpoint (`flatnet_testkit`).

pub mod collectors;
pub mod dag;
pub mod engine;
pub mod exclusion;
pub mod lanes;
pub mod leak;
pub mod parallel;
#[cfg(test)]
mod paths;
pub mod propagate;
pub mod reachset;
pub mod reliance;
mod scratch;

pub use collectors::{collect_ribs, visible_links, RibEntry};
pub use dag::NextHopDag;
pub use engine::{
    scratch_bytes, Counts, Keep, Sets, Simulation, Sweep, SweepCtx, SweepReach, TopologySnapshot,
    Words, Workspace,
};
pub use exclusion::{Exclusion, ExclusionError, ExclusionPolicy};
pub use lanes::{
    cpu_features, detected_lane_words, LaneExcluder, LaneWidth, LANES, MAX_LANES, MAX_LANE_WORDS,
};
pub use leak::{
    subprefix_detour_fractions, DetourState, LeakOutcome, LeakScenario, LeakSim, LeakerSide,
    LockingSemantics, VictimSide,
};
pub use parallel::{parallel_map_ctx, try_parallel_map_ctx, SweepError};
pub use propagate::{ImportPolicy, PropagationConfig, RouteClass, RoutingOutcome, UNREACHED};
pub use reachset::{ReachForm, ReachIter, ReachSet};
pub use reliance::{reliance, RelianceWorkspace};
