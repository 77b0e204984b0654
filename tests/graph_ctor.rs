//! Differential test of the one graph constructor: whatever way a graph
//! is built — `AsGraphBuilder::build` from links in any order, with
//! duplicates, conflicting re-declarations, self-loops and isolated
//! ASes; netgen's public view straight from `from_canonical_edges`; a
//! `to_builder().build()` round trip — it must equal a naive reference
//! that knows nothing about CSR arrays, in its ASN table, its canonical
//! edge list and every `providers`/`customers`/`peers` slice. The CAIDA
//! reader, which appends and settles in bulk instead of asking per link,
//! must give the same graph and the same conflicts, in order. And the
//! constructor must refuse each malformed input it documents.

use flatnet_asgraph::caida::{parse_serial1_with, parse_serial2_with};
use flatnet_asgraph::graph::RelConflict;
use flatnet_asgraph::{AsGraph, AsGraphBuilder, AsId, GraphError, NodeId, ParseOptions, Relationship};
use flatnet_netgen::{generate, NetGenConfig};
use proptest::collection::vec;
use proptest::prelude::*;
use Relationship::{P2c, P2p};

/// A declaration in ASN space; for `P2c` the provider comes first.
type Link = (u32, u32, Relationship);
/// An edge in node-id space, as `AsGraph::edges` reports it.
type Edge = (NodeId, NodeId, Relationship);

fn pair(a: u32, b: u32) -> (u32, u32) {
    (a.min(b), a.max(b))
}

/// What a graph of these declarations must be, in ASN space: the sorted
/// ASN table, the canonical edge list (first declaration of a pair wins,
/// self-loops dropped, `P2p` low-first, sorted by pair), and how many
/// later declarations contradicted the one kept.
fn naive(links: &[Link], isolated: &[u32]) -> (Vec<u32>, Vec<Link>, usize) {
    let canon = |&(a, b, rel): &Link| if rel == P2p { (a.min(b), a.max(b), rel) } else { (a, b, rel) };
    let mut kept: Vec<Link> = Vec::new();
    let mut conflicts = 0;
    for link in links.iter().filter(|l| l.0 != l.1) {
        match kept.iter().find(|k| pair(k.0, k.1) == pair(link.0, link.1)) {
            Some(first) => conflicts += usize::from(*first != canon(link)),
            None => kept.push(canon(link)),
        }
    }
    kept.sort_by_key(|k| pair(k.0, k.1));
    let mut asns: Vec<u32> =
        kept.iter().flat_map(|k| [k.0, k.1]).chain(isolated.iter().copied()).collect();
    asns.sort_unstable();
    asns.dedup();
    (asns, kept, conflicts)
}

/// Compares every observable part of `g` with the naive expectation.
fn assert_graph_is(g: &AsGraph, asns: &[u32], edges: &[Link], what: &str) {
    assert_eq!(g.asns().map(|a| a.0).collect::<Vec<_>>(), asns, "{what}: asn table");
    let in_asns = |nodes: &[NodeId]| nodes.iter().map(|&v| g.asn(v).0).collect::<Vec<u32>>();
    let got: Vec<Link> = g.edges().map(|(x, y, rel)| (g.asn(x).0, g.asn(y).0, rel)).collect();
    assert_eq!(got, edges, "{what}: canonical edges");
    // The list is read off the adjacency, not stored: handed back to the
    // constructor, it must come out of the new graph unchanged.
    let listed: Vec<Edge> = g.edges().collect();
    assert_eq!(g.edge_count(), listed.len(), "{what}: edge count");
    let again = AsGraph::from_canonical_edges(asns.to_vec(), listed.clone()).expect("canonical");
    assert_eq!(again.edges().collect::<Vec<Edge>>(), listed, "{what}: edges of the edges");
    assert_eq!(again.edge_count(), listed.len(), "{what}: edge count rebuilt");
    for n in g.nodes() {
        let me = g.asn(n).0;
        let neighbors = |pick: &dyn Fn(&Link) -> Option<u32>| {
            let mut v: Vec<u32> = edges.iter().filter_map(pick).collect();
            v.sort_unstable();
            v
        };
        let providers = neighbors(&|e| (e.2 == P2c && e.1 == me).then_some(e.0));
        let customers = neighbors(&|e| (e.2 == P2c && e.0 == me).then_some(e.1));
        let peers = neighbors(&|e| {
            (e.2 == P2p && (e.0 == me || e.1 == me)).then_some(if e.0 == me { e.1 } else { e.0 })
        });
        assert_eq!(in_asns(g.providers(n)), providers, "{what}: providers of AS{me}");
        assert_eq!(in_asns(g.customers(n)), customers, "{what}: customers of AS{me}");
        assert_eq!(in_asns(g.peers(n)), peers, "{what}: peers of AS{me}");
    }
}

fn build_from(links: &[Link], isolated: &[u32]) -> (AsGraph, usize) {
    let mut b = AsGraphBuilder::new();
    let mut inserted = 0;
    for &(x, y, rel) in links {
        inserted += usize::from(b.add_link(AsId(x), AsId(y), rel));
    }
    assert_eq!(b.link_count(), inserted, "add_link's verdicts and link_count disagree");
    isolated.iter().for_each(|&a| b.add_isolated(AsId(a)));
    (b.build(), b.conflicts().len())
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[test]
fn generated_topologies_equal_the_naive_reference_in_both_views() {
    for seed in 0..52u64 {
        let mut cfg = NetGenConfig::tiny(seed);
        cfg.n_ases = 120 + (seed as usize % 4) * 10;
        let net = generate(&cfg);
        for (view, g) in [("truth", &net.truth), ("public", net.public())] {
            let what = format!("seed {seed} {view}");
            // The view's own links, shuffled, every seventh declared a
            // second time with the relationship flipped (a conflict the
            // first declaration must win).
            let mut links: Vec<Link> =
                g.edges().map(|(x, y, rel)| (g.asn(x).0, g.asn(y).0, rel)).collect();
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for i in (1..links.len()).rev() {
                links.swap(i, (xorshift(&mut rng) % (i as u64 + 1)) as usize);
            }
            let flipped: Vec<Link> = links
                .iter()
                .step_by(7)
                .map(|&(a, b, rel)| (b, a, if rel == P2p { P2c } else { P2p }))
                .collect();
            links.extend(&flipped);
            let isolated: Vec<u32> = g.asns().map(|a| a.0).collect();

            let (asns, edges, conflicts) = naive(&links, &isolated);
            assert_eq!(conflicts, flipped.len(), "{what}");
            // netgen's view itself (the public one never saw a builder)…
            assert_graph_is(g, &asns, &edges, &what);
            // …the same graph rebuilt from shuffled, conflicting input…
            let (rebuilt, seen_conflicts) = build_from(&links, &isolated);
            assert_eq!(seen_conflicts, conflicts, "{what}");
            assert_graph_is(&rebuilt, &asns, &edges, &format!("{what} rebuilt"));
            // …and once more through `to_builder`.
            assert_graph_is(&g.to_builder().build(), &asns, &edges, &format!("{what} reopened"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary declarations over a small ASN space, so that duplicates,
    /// conflicts and self-loops are common, in whatever order they were
    /// drawn; ASNs are a non-monotone function of the drawn index, so
    /// node-id order and insertion order have nothing to do with each
    /// other.
    #[test]
    fn arbitrary_declarations_equal_the_naive_reference(
        raw in vec((0u32..48, 0u32..48, any::<bool>()), 0..160),
        isolated in vec(0u32..64, 0..6),
    ) {
        let asn = |i: u32| (i ^ 0x2A) * 3 + 7;
        let links: Vec<Link> =
            raw.iter().map(|&(a, b, peer)| (asn(a), asn(b), if peer { P2p } else { P2c })).collect();
        let isolated: Vec<u32> = isolated.into_iter().map(asn).collect();
        let (asns, edges, conflicts) = naive(&links, &isolated);
        let (g, seen_conflicts) = build_from(&links, &isolated);
        prop_assert_eq!(seen_conflicts, conflicts);
        assert_graph_is(&g, &asns, &edges, "built");
        assert_graph_is(&g.to_builder().build(), &asns, &edges, "reopened");
    }
}

/// The conflicts the CAIDA reader must report for these declarations:
/// one per later declaration of a known pair that contradicts the first,
/// in declaration order, named as `RelConflict` names them.
fn naive_conflicts(links: &[Link]) -> Vec<RelConflict> {
    let describe = |&(a, b, rel): &Link| match rel {
        P2p => "p2p",
        P2c if a < b => "p2c (lower AS provides)",
        P2c => "p2c (higher AS provides)",
    };
    let mut first: Vec<Link> = Vec::new();
    let mut conflicts = Vec::new();
    for link in links.iter().filter(|l| l.0 != l.1) {
        let (a, b) = pair(link.0, link.1);
        match first.iter().find(|k| pair(k.0, k.1) == (a, b)) {
            Some(kept) if describe(kept) != describe(link) => conflicts.push(RelConflict {
                a: AsId(a),
                b: AsId(b),
                kept: describe(kept),
                dropped: describe(link),
            }),
            Some(_) => {}
            None => first.push(*link),
        }
    }
    conflicts
}

/// The declarations as as-rel text of either serial, one line each in
/// the order given (`P2c` provider first); self-loops are written only
/// when asked, for the lenient reader to drop.
fn as_rel_text(links: &[Link], serial2: bool, self_loops: bool) -> String {
    let mut text = String::from("# as1|as2|rel\n");
    for &(a, b, rel) in links.iter().filter(|l| self_loops || l.0 != l.1) {
        let code = if rel == P2c { "-1" } else { "0" };
        text.push_str(&format!("{a}|{b}|{code}{}\n", if serial2 { "|bgp" } else { "" }));
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The reader appends what it reads and settles in bulk (when its
    /// vector would grow, and at the end); lists up to ten times its
    /// first capacity make it settle mid-file. Whatever the density of
    /// duplicates, contradicting re-declarations and reversed `p2c`
    /// lines, both serials, strict and lenient, must give the naive
    /// first-wins graph and exactly its conflicts, in declaration order.
    #[test]
    fn the_reader_keeps_first_declarations_like_the_naive_reference(
        (space, raw) in (2u32..400).prop_flat_map(|space| {
            (Just(space), vec((0..space, 0..space, any::<bool>()), 0..2600))
        }),
    ) {
        let asn = |i: u32| (i ^ 0x155) * 7 + 3;
        let links: Vec<Link> =
            raw.iter().map(|&(a, b, peer)| (asn(a), asn(b), if peer { P2p } else { P2c })).collect();
        let self_loops = links.iter().filter(|l| l.0 == l.1).count();
        let (asns, edges, _) = naive(&links, &[]);
        let conflicts = naive_conflicts(&links);
        for serial2 in [false, true] {
            let read = |text: &str, opts: &ParseOptions| {
                if serial2 { parse_serial2_with(text.as_bytes(), opts) } else { parse_serial1_with(text.as_bytes(), opts) }
            };
            let lenient = ParseOptions::lenient().with_max_errors(usize::MAX);
            for (opts, with_loops) in [(ParseOptions::strict(), false), (lenient, true)] {
                let what = format!("space {space}, serial-{}, {}", 1 + serial2 as u8, if opts.strict { "strict" } else { "lenient" });
                let (b, diag) = read(&as_rel_text(&links, serial2, with_loops), &opts).expect(&what);
                prop_assert_eq!(diag.dropped(), if with_loops { self_loops } else { 0 }, "{}", what);
                prop_assert_eq!(b.link_count(), edges.len(), "{}", what);
                prop_assert_eq!(b.conflicts(), &conflicts[..], "{}", what);
                assert_graph_is(&b.build(), &asns, &edges, &what);
            }
        }
    }
}

#[test]
fn the_constructor_refuses_each_malformed_input_it_documents() {
    let e = |a: u32, b: u32, rel| -> Edge { (NodeId(a), NodeId(b), rel) };
    let asns = || vec![10, 20, 30, 40];
    // The well-formed baseline: P2c may be stored high endpoint first.
    let good = vec![e(1, 0, P2c), e(0, 2, P2p), e(3, 1, P2c), e(2, 3, P2p)];
    let g = AsGraph::from_canonical_edges(asns(), good.clone()).expect("canonical input");
    assert_eq!(g.edges().collect::<Vec<Edge>>(), good);
    assert_eq!(g.providers(NodeId(0)), &[NodeId(1)]);
    assert_eq!(g.providers(NodeId(1)), &[NodeId(3)]);

    let cases: Vec<(&str, Vec<u32>, Vec<Edge>)> = vec![
        ("asn table descending", vec![10, 30, 20, 40], good.clone()),
        ("asn table with a repeat", vec![10, 20, 20, 40], good.clone()),
        ("endpoint == n", asns(), vec![e(0, 4, P2c)]),
        ("endpoint == n, first", asns(), vec![e(4, 0, P2p)]),
        ("duplicate pair", asns(), vec![e(0, 1, P2p), e(0, 1, P2p)]),
        ("duplicate pair, other relationship", asns(), vec![e(0, 1, P2c), e(1, 0, P2c)]),
        ("pairs out of order", asns(), vec![e(0, 2, P2p), e(1, 0, P2c)]),
        ("low endpoints tie, high ones descend", asns(), vec![e(0, 3, P2p), e(2, 0, P2c)]),
        ("p2p stored high endpoint first", asns(), vec![e(2, 1, P2p)]),
        ("edges but no nodes", vec![], vec![e(0, 1, P2p)]),
    ];
    for (what, asns, edges) in cases {
        match AsGraph::from_canonical_edges(asns, edges) {
            Err(GraphError::NotCanonical { .. }) => {}
            other => panic!("{what}: expected NotCanonical, got {other:?}"),
        }
    }
    assert_eq!(
        AsGraph::from_canonical_edges(asns(), vec![e(2, 2, P2p)]).unwrap_err(),
        GraphError::SelfLoop { asn: 30 }
    );
}
