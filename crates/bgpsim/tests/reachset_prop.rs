//! [`ReachSet`] where its three forms meet.
//!
//! A set is encoded from the engine's words by its popcount alone, so the
//! attack is on popcounts: every density from empty to full, and one
//! either side of each boundary between two forms, over node counts that
//! are and are not multiples of 64 (the last word's tail bits are no
//! nodes and must not come back out of the complement form). Whatever
//! form was chosen, the set reads as the source words do, and the form is
//! the cheapest of the three.

use flatnet_asgraph::NodeId;
use flatnet_bgpsim::{ReachForm, ReachSet};
use proptest::prelude::*;

/// SplitMix64.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Popcounts worth trying for `n` nodes: the named densities, then each
/// form boundary ± 1. `Bits` costs `8·⌈n/64⌉` bytes, an index list 4 a
/// node, so the lists lose to `Bits` from `2·⌈n/64⌉` entries up, on
/// either side; below that, `Except` and `Only` meet at `n / 2`.
fn popcounts(n: usize, seed: &mut u64) -> Vec<usize> {
    let lists_lose = 2 * n.div_ceil(64);
    let mut out = vec![
        0,                                   // empty
        1,                                   // origin only
        1 + next(seed) as usize % (n / 16 + 1), // sparse
        n / 2,                               // half
        n - next(seed) as usize % (n / 16 + 1), // dense
        n - 1,                               // all but one
        n,                                   // all
    ];
    for boundary in [lists_lose, n.saturating_sub(lists_lose), n / 2] {
        out.extend([boundary.saturating_sub(1), boundary, boundary + 1]);
    }
    out.retain(|&p| p <= n);
    out
}

/// The words of `n` nodes with `present` of them set, chosen by a seeded
/// shuffle; tail bits zero.
fn words_with(n: usize, present: usize, seed: &mut u64) -> Vec<u64> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, next(seed) as usize % (i + 1));
    }
    let mut words = vec![0u64; n.div_ceil(64)];
    for &i in &order[..present] {
        words[i >> 6] |= 1 << (i & 63);
    }
    words
}

fn check(words: &[u64], n: usize) {
    let want: Vec<u32> =
        (0..n as u32).filter(|&i| (words[i as usize >> 6] >> (i & 63)) & 1 == 1).collect();
    let (present, missing) = (want.len(), n - want.len());
    let set = ReachSet::from_words(words, n);

    let got: Vec<u32> = set.iter().map(|node| node.0).collect();
    assert_eq!(got, want, "n {n}, {present} present: the walk is not the set bits, ascending");
    assert_eq!(set.len(), present, "n {n}");
    assert_eq!(set.is_empty(), present == 0, "n {n}");
    for i in 0..n as u32 + 70 {
        let inside = want.binary_search(&i).is_ok();
        assert_eq!(set.contains(NodeId(i)), inside, "n {n}, {present} present, node {i}");
    }

    // The cheapest form, a tie going to the bitset, each at exactly the
    // bytes its side of the set needs.
    let bits = 8 * n.div_ceil(64);
    let (form, bytes) = if bits <= 4 * missing.min(present) {
        (ReachForm::Bits, bits)
    } else if missing <= present {
        (ReachForm::Except, 4 * missing)
    } else {
        (ReachForm::Only, 4 * present)
    };
    assert_eq!((set.form(), set.heap_bytes()), (form, bytes), "n {n}, {present} present");
    assert_eq!(bytes, bits.min(4 * missing).min(4 * present), "n {n}: not the least of the three");
    assert_eq!(set, ReachSet::from_words(words, n), "equal sets encode equally");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn every_form_reads_as_the_source_words(n in 1usize..=2000, seed in any::<u64>()) {
        let mut seed = seed;
        for present in popcounts(n, &mut seed) {
            check(&words_with(n, present, &mut seed), n);
        }
    }
}

/// The node counts around a word boundary at every popcount, `n = 0`
/// included: all three forms occur.
#[test]
fn small_and_word_boundary_node_counts_at_every_popcount() {
    let mut seed = 7;
    let mut seen = [0usize; 3];
    check(&[], 0);
    for n in [1, 2, 3, 63, 64, 65, 127, 128, 129, 191, 192, 193] {
        for present in 0..=n {
            let words = words_with(n, present, &mut seed);
            check(&words, n);
            seen[ReachSet::from_words(&words, n).form() as usize] += 1;
        }
    }
    assert!(seen.iter().all(|&count| count > 20), "a form went untested: {seen:?}");
}
