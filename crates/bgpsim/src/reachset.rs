//! A reach set kept by its shorter side.
//!
//! Reach sets are lopsided: with the hierarchy in place an origin
//! reaches every node, hierarchy-free an edge network reaches a handful
//! of peers and a cloud most of the Internet. A consumer that *keeps*
//! sets (the daemon's result cache) therefore should not pay one bit a
//! node for each: [`ReachSet`] stores the missing nodes, the reached
//! nodes, or the bitset, whichever takes the fewest heap bytes, and reads
//! the same through every form. Sweeps that read their sets once and drop
//! them (a [`Words`](crate::Words) sweep) keep the engine's words as they
//! are.

use flatnet_asgraph::NodeId;

/// Which side of the set a [`ReachSet`] stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReachForm {
    /// The word-packed bitset, one bit a node.
    Bits,
    /// The nodes *not* in the set.
    Except,
    /// The nodes in the set.
    Only,
}

impl ReachForm {
    /// Every form, indexed by `form as usize`.
    pub const ALL: [ReachForm; 3] = [ReachForm::Bits, ReachForm::Except, ReachForm::Only];

    /// The form a set of `present` nodes out of `0..n` is kept in: of
    /// `4·missing`, `4·present` and `8·⌈n/64⌉` heap bytes the least, a
    /// tie going to `Bits`, else to `Except`. Decided from the count
    /// alone, so a set can be allocated in its form before its nodes are
    /// read.
    pub(crate) fn of(present: usize, n: usize) -> ReachForm {
        let missing = n - present;
        if 8 * n.div_ceil(64) <= 4 * missing.min(present) {
            ReachForm::Bits
        } else if missing <= present {
            ReachForm::Except
        } else {
            ReachForm::Only
        }
    }

    /// Lower-case label (`bits`, `except`, `only`), for metric names.
    pub fn name(self) -> &'static str {
        match self {
            ReachForm::Bits => "bits",
            ReachForm::Except => "except",
            ReachForm::Only => "only",
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Repr {
    /// Same layout as [`Workspace::reach_words`](crate::Workspace::reach_words):
    /// bit = node index, tail bits zero.
    Bits(Box<[u64]>),
    /// Ascending indices of the nodes not in the set.
    Except(Box<[u32]>),
    /// Ascending indices of the nodes in the set.
    Only(Box<[u32]>),
}

/// A set of node indices out of `0..n`, immutable once encoded.
///
/// The form is chosen from the set's own popcount by `ReachForm::of`
/// and allocated at exactly its length. Equal sets over equal `n` encode
/// equally, so `==` compares the sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachSet {
    n: usize,
    repr: Repr,
}

impl ReachSet {
    /// Encodes the set whose bits are `words` (bit = node index, tail
    /// bits past `n` zero), as [`RoutingOutcome::reach_words`](crate::RoutingOutcome::reach_words)
    /// and a [`Words`](crate::Words) sweep show it.
    pub fn from_words(words: &[u64], n: usize) -> ReachSet {
        assert_eq!(words.len(), n.div_ceil(64), "{} words cannot hold {n} nodes", words.len());
        debug_assert!(n.is_multiple_of(64) || words[n / 64] >> (n % 64) == 0, "tail bits set");
        let present: usize = words.chunks(RUN).map(count_ones).sum();
        let repr = match ReachForm::of(present, n) {
            ReachForm::Bits => Repr::Bits(words.into()),
            ReachForm::Except => Repr::Except(indices(words, n, u64::MAX, n - present)),
            ReachForm::Only => Repr::Only(indices(words, n, 0, present)),
        };
        ReachSet { n, repr }
    }

    /// The set over `n` nodes whose bits are `words`, kept as they are:
    /// for a caller that built them because [`ReachForm::of`] chose
    /// [`ReachForm::Bits`].
    pub(crate) fn bits(n: usize, words: Box<[u64]>) -> ReachSet {
        debug_assert_eq!(words.len(), n.div_ceil(64));
        ReachSet { n, repr: Repr::Bits(words) }
    }

    /// The set over `n` nodes that `form`'s ascending index list
    /// `indices` names: its missing nodes for [`ReachForm::Except`], its
    /// nodes for [`ReachForm::Only`].
    pub(crate) fn listed(n: usize, form: ReachForm, indices: Box<[u32]>) -> ReachSet {
        debug_assert!(indices.windows(2).all(|p| p[0] < p[1]));
        let repr = match form {
            ReachForm::Except => Repr::Except(indices),
            ReachForm::Only => Repr::Only(indices),
            ReachForm::Bits => unreachable!("a bitset is no index list"),
        };
        ReachSet { n, repr }
    }

    /// Number of nodes in the set.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Bits(words) => words.iter().map(|w| w.count_ones() as usize).sum(),
            Repr::Except(missing) => self.n - missing.len(),
            Repr::Only(present) => present.len(),
        }
    }

    /// Whether the set holds no node.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `node` is in the set (`false` for a node outside `0..n`).
    pub fn contains(&self, node: NodeId) -> bool {
        match &self.repr {
            Repr::Bits(words) => {
                words.get(node.idx() >> 6).is_some_and(|w| (w >> (node.idx() & 63)) & 1 == 1)
            }
            Repr::Except(missing) => node.idx() < self.n && missing.binary_search(&node.0).is_err(),
            Repr::Only(present) => present.binary_search(&node.0).is_ok(),
        }
    }

    /// The nodes of the set in ascending index order.
    pub fn iter(&self) -> ReachIter<'_> {
        ReachIter(match &self.repr {
            Repr::Bits(words) => {
                let (&word, rest) = words.split_first().unwrap_or((&0, &[][..]));
                Walk::Bits { rest, base: 0, word }
            }
            Repr::Except(missing) => Walk::Except { next: 0, n: self.n, missing },
            Repr::Only(present) => Walk::Only(present.iter()),
        })
    }

    /// Which side of the set is stored.
    pub fn form(&self) -> ReachForm {
        match self.repr {
            Repr::Bits(_) => ReachForm::Bits,
            Repr::Except(_) => ReachForm::Except,
            Repr::Only(_) => ReachForm::Only,
        }
    }

    /// Bytes of heap the set keeps alive (a boxed slice has no spare
    /// capacity, so this is what the allocator was asked for).
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Bits(words) => std::mem::size_of_val::<[u64]>(words),
            Repr::Except(idx) | Repr::Only(idx) => std::mem::size_of_val::<[u32]>(idx),
        }
    }
}

/// Words looked at together while encoding: a lopsided set is all-ones
/// or all-zero words nearly throughout, and a run of them is recognised
/// by one OR over the run (which the compiler vectorizes), not a test a
/// word.
const RUN: usize = 8;

/// Whether every word of `run` is `word`.
fn uniform(run: &[u64], word: u64) -> bool {
    run.iter().fold(0, |acc, &w| acc | (w ^ word)) == 0
}

/// Set bits in `run`.
fn count_ones(run: &[u64]) -> usize {
    if uniform(run, u64::MAX) {
        64 * run.len()
    } else if uniform(run, 0) {
        0
    } else {
        run.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// The ascending indices below `n` of the set bits of `words ^ flip` —
/// the set itself (`flip` 0) or its complement (`flip` all ones) —
/// `count` of them, at exactly that capacity.
fn indices(words: &[u64], n: usize, flip: u64, count: usize) -> Box<[u32]> {
    // The last word's bits past `n` are no nodes: kept out of the complement.
    let (last, live) = (words.len() - 1, u64::MAX >> (words.len() * 64 - n));
    let mut out = Vec::with_capacity(count);
    for (ci, run) in words.chunks(RUN).enumerate().filter(|(_, run)| !uniform(run, flip)) {
        for (wi, &word) in (ci * RUN..).zip(run) {
            let mut w = (word ^ flip) & if wi == last { live } else { u64::MAX };
            while w != 0 {
                out.push(wi as u32 * 64 + w.trailing_zeros());
                w &= w - 1;
            }
        }
    }
    out.into_boxed_slice()
}

/// Ascending walk over a [`ReachSet`], whatever its form.
#[derive(Debug, Clone)]
pub struct ReachIter<'a>(Walk<'a>);

#[derive(Debug, Clone)]
enum Walk<'a> {
    /// `word` is what is left of the word whose bit 0 is node `base`.
    Bits { rest: &'a [u64], base: u32, word: u64 },
    /// `next` is the lowest index not yet decided.
    Except { next: usize, n: usize, missing: &'a [u32] },
    Only(std::slice::Iter<'a, u32>),
}

impl Iterator for ReachIter<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        match &mut self.0 {
            Walk::Bits { rest, base, word } => {
                while *word == 0 {
                    let (&first, tail) = rest.split_first()?;
                    (*word, *rest) = (first, tail);
                    *base += 64;
                }
                let idx = *base + word.trailing_zeros();
                *word &= *word - 1;
                Some(NodeId(idx))
            }
            Walk::Except { next, n, missing } => {
                while let Some((&gap, tail)) = missing.split_first() {
                    if gap as usize != *next {
                        break;
                    }
                    *missing = tail;
                    *next += 1;
                }
                if *next >= *n {
                    return None;
                }
                *next += 1;
                Some(NodeId((*next - 1) as u32))
            }
            Walk::Only(present) => present.next().map(|&i| NodeId(i)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The form rule at its edges: 8 heap bytes of bits against 4 a
    /// listed node. At 128 nodes the bitset is 16 B, so four nodes on
    /// the shorter side tie it and the tie goes to `Bits`; at 2 nodes
    /// one reached node ties the lists, and `missing == present` goes to
    /// `Except`.
    #[test]
    fn the_form_rule_breaks_ties_to_bits_then_to_except() {
        assert_eq!(ReachForm::of(3, 128), ReachForm::Only);
        assert_eq!(ReachForm::of(4, 128), ReachForm::Bits);
        assert_eq!(ReachForm::of(124, 128), ReachForm::Bits);
        assert_eq!(ReachForm::of(125, 128), ReachForm::Except);
        assert_eq!(ReachForm::of(1, 2), ReachForm::Except);
        assert_eq!(ReachForm::of(0, 2), ReachForm::Only);
        assert_eq!(ReachForm::of(2, 2), ReachForm::Except);
        // Four nodes, two reached: 8 B of bits ties 8 B of either list.
        assert_eq!(ReachForm::of(2, 4), ReachForm::Bits);
        // What `from_words` keeps is what the rule says.
        for (words, n) in [(vec![0b1u64], 2), (vec![0b0011], 4), (vec![!0, 0b1111], 128)] {
            let present = words.iter().map(|w| w.count_ones() as usize).sum();
            assert_eq!(ReachSet::from_words(&words, n).form(), ReachForm::of(present, n));
        }
    }
}
