//! A binary longest-prefix-match trie over IPv4 prefixes.
//!
//! This is the core routing-table data structure underneath every IP→ASN
//! database in the crate. It is a plain bitwise trie (one node per prefix
//! bit) — simple and robust, per the smoltcp design philosophy, and fast
//! enough: a lookup touches at most 32 nodes.

use crate::ipv4::Ipv4Prefix;
use std::net::Ipv4Addr;

const NO_CHILD: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node<T> {
    children: [u32; 2],
    value: Option<T>,
}

impl<T> Node<T> {
    fn new() -> Self {
        Node { children: [NO_CHILD, NO_CHILD], value: None }
    }
}

/// A map from IPv4 prefixes to values with longest-prefix-match lookup,
/// the match `AnnouncedDb::resolve` answers with:
///
/// ```
/// use flatnet_asgraph::AsId;
/// use flatnet_prefixdb::AnnouncedDb;
/// let mut db = AnnouncedDb::new();
/// db.announce("10.0.0.0/8".parse().unwrap(), AsId(8));
/// db.announce("10.1.0.0/16".parse().unwrap(), AsId(16));
/// assert_eq!(db.resolve("10.1.2.3".parse().unwrap()), Some(AsId(16)));
/// assert_eq!(db.resolve("10.9.9.9".parse().unwrap()), Some(AsId(8)));
/// assert!(db.resolve("11.0.0.0".parse().unwrap()).is_none());
/// ```
#[derive(Debug, Clone)]
pub(crate) struct PrefixTrie<T> {
    nodes: Vec<Node<T>>,
    len: usize,
}

impl<T> Default for PrefixTrie<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PrefixTrie<T> {
    /// Creates an empty trie.
    pub(crate) fn new() -> Self {
        PrefixTrie { nodes: vec![Node::new()], len: 0 }
    }

    /// Number of prefixes stored.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Inserts a value for a prefix, returning the previous value if the
    /// exact prefix was already present.
    pub(crate) fn insert(&mut self, prefix: Ipv4Prefix, value: T) -> Option<T> {
        let mut node = 0usize;
        let bits = prefix.network_bits();
        for i in 0..prefix.len() {
            let bit = ((bits >> (31 - i)) & 1) as usize;
            let child = self.nodes[node].children[bit];
            node = if child == NO_CHILD {
                let idx = self.nodes.len() as u32;
                self.nodes.push(Node::new());
                self.nodes[node].children[bit] = idx;
                idx as usize
            } else {
                child as usize
            };
        }
        let old = self.nodes[node].value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Longest-prefix-match lookup: the most specific stored prefix
    /// containing `ip`, with its value.
    pub(crate) fn lookup(&self, ip: Ipv4Addr) -> Option<(Ipv4Prefix, &T)> {
        let bits = u32::from(ip);
        let mut node = 0usize;
        let mut best: Option<(u8, &T)> = self.nodes[0].value.as_ref().map(|v| (0, v));
        for i in 0..32u8 {
            let bit = ((bits >> (31 - i)) & 1) as usize;
            let child = self.nodes[node].children[bit];
            if child == NO_CHILD {
                break;
            }
            node = child as usize;
            if let Some(v) = self.nodes[node].value.as_ref() {
                best = Some((i + 1, v));
            }
        }
        best.map(|(len, v)| (Ipv4Prefix::new(ip, len), v))
    }

    /// Iterates all `(prefix, value)` pairs in lexicographic prefix order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Ipv4Prefix, &T)> {
        // Explicit stack DFS, visiting the 0-child before the 1-child.
        let mut out = Vec::with_capacity(self.len);
        let mut stack: Vec<(usize, u32, u8)> = vec![(0, 0, 0)];
        while let Some((node, bits, depth)) = stack.pop() {
            if let Some(v) = self.nodes[node].value.as_ref() {
                out.push((Ipv4Prefix::new(Ipv4Addr::from(bits), depth), v));
            }
            // Push 1-child first so the 0-child is processed first (LIFO).
            for bit in [1u32, 0u32] {
                let child = self.nodes[node].children[bit as usize];
                if child != NO_CHILD {
                    let next_bits = bits | (bit << (31 - depth));
                    stack.push((child as usize, next_bits, depth + 1));
                }
            }
        }
        out.sort_by_key(|&(p, _)| p);
        out.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The value stored for exactly `prefix`.
    fn get<T>(t: &PrefixTrie<T>, prefix: Ipv4Prefix) -> Option<&T> {
        t.iter().find(|&(q, _)| q == prefix).map(|(_, v)| v)
    }

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }
    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn longest_match_wins() {
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/0"), 0);
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.1.0.0/16"), 16);
        t.insert(p("10.1.2.0/24"), 24);
        assert_eq!(t.lookup(ip("10.1.2.3")).unwrap().1, &24);
        assert_eq!(t.lookup(ip("10.1.9.9")).unwrap().1, &16);
        assert_eq!(t.lookup(ip("10.9.9.9")).unwrap().1, &8);
        assert_eq!(t.lookup(ip("11.0.0.1")).unwrap().1, &0);
    }

    #[test]
    fn miss_without_default() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), ());
        assert!(t.lookup(ip("11.0.0.1")).is_none());
    }

    #[test]
    fn insert_replaces_and_reports_old() {
        let mut t = PrefixTrie::new();
        assert_eq!(t.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(get(&t, p("10.0.0.0/8")), Some(&2));
    }

    #[test]
    fn exact_get_does_not_aggregate() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), 8);
        assert_eq!(get(&t, p("10.0.0.0/8")), Some(&8));
        assert_eq!(get(&t, p("10.0.0.0/9")), None);
        assert_eq!(get(&t, p("10.0.0.0/7")), None);
    }

    #[test]
    fn slash32_entries() {
        let mut t = PrefixTrie::new();
        t.insert(p("192.0.2.1/32"), "host");
        assert_eq!(t.lookup(ip("192.0.2.1")).unwrap().1, &"host");
        assert!(t.lookup(ip("192.0.2.2")).is_none());
    }

    #[test]
    fn reported_prefix_matches_stored_one() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.1.0.0/16"), ());
        let (found, _) = t.lookup(ip("10.1.200.7")).unwrap();
        assert_eq!(found, p("10.1.0.0/16"));
    }

    #[test]
    fn iteration_in_prefix_order() {
        let mut t = PrefixTrie::new();
        let prefixes = [p("10.1.0.0/16"), p("9.0.0.0/8"), p("10.0.0.0/8"), p("0.0.0.0/0")];
        for (i, &pf) in prefixes.iter().enumerate() {
            t.insert(pf, i);
        }
        let got: Vec<Ipv4Prefix> = t.iter().map(|(pf, _)| pf).collect();
        let mut want = prefixes.to_vec();
        want.sort();
        assert_eq!(got, want);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn default_route_matches_everything() {
        let mut t = PrefixTrie::new();
        t.insert("0.0.0.0/0".parse().unwrap(), "any");
        assert_eq!(t.lookup(ip("255.255.255.255")).unwrap().1, &"any");
        assert_eq!(t.lookup(ip("0.0.0.0")).unwrap().1, &"any");
    }

    // Property: for random prefix sets, LPM equals the brute-force answer.
    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
            (any::<u32>(), 0u8..=32).prop_map(|(bits, len)| Ipv4Prefix::new(Ipv4Addr::from(bits), len))
        }

        proptest! {
            #[test]
            fn lpm_matches_brute_force(prefixes in proptest::collection::vec(arb_prefix(), 1..64), probe in any::<u32>()) {
                let mut t = PrefixTrie::new();
                for (i, &pf) in prefixes.iter().enumerate() {
                    t.insert(pf, i);
                }
                let ip = Ipv4Addr::from(probe);
                // Brute force: most specific containing prefix; on duplicates the
                // *last* insert wins.
                let expect = prefixes
                    .iter()
                    .enumerate()
                    .filter(|(_, pf)| pf.contains(ip))
                    .max_by_key(|(i, pf)| (pf.len(), *i))
                    .map(|(i, _)| i);
                let got = t.lookup(ip).map(|(_, &v)| v);
                prop_assert_eq!(got, expect);
            }

            #[test]
            fn len_counts_distinct_prefixes(prefixes in proptest::collection::vec(arb_prefix(), 0..64)) {
                let mut t = PrefixTrie::new();
                for &pf in &prefixes {
                    t.insert(pf, ());
                }
                let mut distinct = prefixes.clone();
                distinct.sort();
                distinct.dedup();
                prop_assert_eq!(t.len(), distinct.len());
            }
        }
    }
}
