//! What the result cache keeps of a solved query.

use flatnet_bgpsim::ReachSet;

/// The most `top=` can ask of the reliance endpoint, and so the most
/// entries a cached reliance answer holds.
pub(crate) const RELIANCE_TOP_MAX: usize = 1000;

/// A cached answer: the expensive-to-compute core of a response, without
/// per-request presentation choices (`detail=full` re-renders from the
/// set).
pub(crate) enum Answer {
    /// One origin's reach set + count.
    Reach {
        /// The nodes holding a route, origin included, kept by its
        /// shorter side: a full-reach answer is a few bytes, not one bit
        /// a node.
        set: ReachSet,
        /// Reached ASes, origin excluded.
        reached: usize,
    },
    /// Reliance summary for one origin.
    Reliance {
        /// `W(origin)`: ASes holding routes, origin included.
        receivers: f64,
        /// Top ASes by `rely(o, a)`, as `(asn, score)`, descending; at
        /// most [`RELIANCE_TOP_MAX`], allocated at exactly its length.
        top: Vec<(u32, f64)>,
    },
}

impl Answer {
    /// Bytes the cache keeps alive for this answer — the cache's weight
    /// function: the value itself plus its heap buffer at *capacity*, so
    /// an over-allocated payload shows in `/healthz`.
    pub(crate) fn retained_bytes(&self) -> usize {
        std::mem::size_of::<Answer>()
            + match self {
                Answer::Reach { set, .. } => set.heap_bytes(),
                Answer::Reliance { top, .. } => top.capacity() * std::mem::size_of::<(u32, f64)>(),
            }
    }
}
