//! Section codecs: [`StoredSnapshot`] ⇄ the container's three payloads.
//!
//! The graph is stored as its canonical edge list plus the sorted ASN
//! table and handed to [`AsGraph::from_canonical_edges`] — the one
//! constructor every ingestion path ends in — which checks the canonical
//! form instead of restoring it: an image whose edges are out of order
//! is malformed, so whatever decodes re-encodes to the same bytes.
//! The constructor reads the edge records straight out of the image
//! (their tags checked first) and fills the one adjacency block the
//! process will hold for this topology; no decoded list exists between
//! the image and the block. Nothing derived is
//! stored: [`decode`] ends in [`TopologySnapshot::compile`] of the graph
//! it just validated, for the `topo` field the `benchmark/` package pins,
//! which keeps a handle on that block and copies no link, so it cannot
//! disagree with the graph — they read the same arrays.

use crate::error::{SectionId, StoreError};
use crate::format::{unpack, Enc, REQUIRED_SECTIONS};
use flatnet_asgraph::ingest::{ByteError, ByteReader};
use flatnet_asgraph::{AsGraph, AsId, NodeId, Relationship, Tiers};
use flatnet_bgpsim::TopologySnapshot;

/// One topology version with everything a query needs: the graph, the
/// tier sets, and the snapshot version the daemon had reached (so
/// versions stay monotonic across restarts). The store persists
/// `version`, `graph` and `tiers`; `topo`, a handle on `graph`, is
/// recompiled on load and read by nothing: the `benchmark/` package
/// builds this struct literally, so the field stays until that package
/// moves to the graph.
#[derive(Debug, Clone)]
pub struct StoredSnapshot {
    /// Monotonic serve-side version, starting at 1; part of every cache key.
    pub version: u64,
    /// The AS graph queries resolve ASNs against.
    pub graph: AsGraph,
    /// Tier-1/Tier-2 sets over `graph`'s node ids, for exclusion masks and
    /// leak locking.
    pub tiers: Tiers,
    /// `TopologySnapshot::compile(&graph)`: `graph`'s links by handle,
    /// never a second copy of them. Every solve runs on `graph`; this
    /// field is filled for the `benchmark/` package and read by nothing.
    pub topo: TopologySnapshot,
}

/// Hard cap on node/edge counts read from a file, so a corrupted count
/// field cannot provoke a multi-gigabyte allocation before validation.
/// Generous: ~30× the current full CAIDA topology.
const MAX_NODES: u32 = 16_000_000;
/// Cap on the edge count, same rationale.
const MAX_ENTRIES: u32 = 512_000_000;

/// A payload read's error; its offset counts from the payload's first byte.
fn malformed(section: SectionId) -> impl FnOnce(ByteError) -> StoreError {
    move |e| StoreError::Malformed { section, detail: e.to_string() }
}

/// `count` little-endian `u32`s, bounds-checked before the allocation.
fn u32s(c: &mut ByteReader<'_>, count: usize, what: &str) -> Result<Vec<u32>, ByteError> {
    let (words, _) = c.records(count, 4, what)?.as_chunks::<4>();
    Ok(words.iter().map(|&w| u32::from_le_bytes(w)).collect())
}

/// Bytes of one stored edge: two `u32` node ids and the relationship tag.
pub(crate) const EDGE_RECORD: usize = 9;

/// Encodes a snapshot into a complete container image. `snap.topo` is not
/// read: the image holds only what [`decode`] cannot recompute.
pub fn encode(snap: &StoredSnapshot) -> Vec<u8> {
    let g = &snap.graph;
    let (t1, t2) = (snap.tiers.tier1(), snap.tiers.tier2());
    // Every section's length is arithmetic in the counts it starts with,
    // so the image is sized once and written in place.
    let payload_bytes = 8
        + (8 + 4 * g.len() + EDGE_RECORD * g.edge_count())
        + (8 + 4 * (t1.len() + t2.len()));
    let mut enc = Enc::new(REQUIRED_SECTIONS.len(), payload_bytes);

    // Meta: version of the serve snapshot.
    enc.section(SectionId::Meta);
    enc.u64(snap.version);

    // Graph: n, m, sorted ASNs, canonical edges as (a, b, rel) node ids.
    enc.section(SectionId::Graph);
    enc.u32(g.len() as u32);
    enc.u32(g.edge_count() as u32);
    for asn in g.asns() {
        enc.u32(asn.0);
    }
    for (a, b, rel) in g.edges() {
        enc.u32(a.0);
        enc.u32(b.0);
        enc.u8(match rel {
            Relationship::P2c => 0,
            Relationship::P2p => 1,
        });
    }

    // Tiers: node-id lists (already sorted and disjoint by construction).
    enc.section(SectionId::Tiers);
    enc.u32(t1.len() as u32);
    enc.u32(t2.len() as u32);
    for &n in t1.iter().chain(t2) {
        enc.u32(n.0);
    }

    enc.finish()
}

fn decode_meta(payload: &[u8]) -> Result<u64, StoreError> {
    let section = SectionId::Meta;
    let mut c = ByteReader::new("payload", payload);
    let version = c.u64_le("snapshot_version").map_err(malformed(section))?;
    c.expect_end("meta").map_err(malformed(section))?;
    Ok(version)
}

fn decode_graph(payload: &[u8]) -> Result<AsGraph, StoreError> {
    let section = SectionId::Graph;
    let mut c = ByteReader::new("payload", payload);
    let n = c.u32_le("node count").map_err(malformed(section))?;
    let m = c.u32_le("edge count").map_err(malformed(section))?;
    if n > MAX_NODES {
        return Err(StoreError::Malformed {
            section,
            detail: format!("node count {n} exceeds the sanity cap {MAX_NODES}"),
        });
    }
    if m > MAX_ENTRIES {
        return Err(StoreError::Malformed {
            section,
            detail: format!("edge count {m} exceeds the sanity cap {MAX_ENTRIES}"),
        });
    }
    let asns = u32s(&mut c, n as usize, "asn table").map_err(malformed(section))?;
    let records = c.records(m as usize, EDGE_RECORD, "edge list").map_err(malformed(section))?;
    c.expect_end("graph").map_err(malformed(section))?;
    // Every tag is checked before the constructor sees a record, so the
    // records can be streamed to it as they lie in the image — as
    // fixed-size arrays, whose fields are read without bounds checks.
    let (records, _) = records.as_chunks::<EDGE_RECORD>();
    if let Some((i, r)) = records.iter().enumerate().find(|(_, r)| r[8] > 1) {
        return Err(StoreError::Malformed {
            section,
            detail: format!("edge {i}: unknown relationship tag {}", r[8]),
        });
    }
    let edges = records.iter().map(|r| {
        let a = u32::from_le_bytes([r[0], r[1], r[2], r[3]]);
        let z = u32::from_le_bytes([r[4], r[5], r[6], r[7]]);
        let rel = if r[8] == 0 { Relationship::P2c } else { Relationship::P2p };
        (NodeId(a), NodeId(z), rel)
    });
    // Ascending ASNs, endpoints in range, no self-loop, no duplicate, and
    // the canonical order itself are the constructor's checks.
    AsGraph::from_canonical_edges(asns, edges)
        .map_err(|e| StoreError::Malformed { section, detail: e.to_string() })
}

fn decode_tiers(payload: &[u8], graph: &AsGraph) -> Result<Tiers, StoreError> {
    let section = SectionId::Tiers;
    let n = graph.len() as u32;
    let mut c = ByteReader::new("payload", payload);
    let t1_count = c.u32_le("tier1 count").map_err(malformed(section))?;
    let t2_count = c.u32_le("tier2 count").map_err(malformed(section))?;
    if t1_count > n || t2_count > n {
        return Err(StoreError::Malformed {
            section,
            detail: format!("tier counts {t1_count}/{t2_count} exceed {n} nodes"),
        });
    }
    let read_set = |c: &mut ByteReader, count: u32, what: &str| -> Result<Vec<u32>, StoreError> {
        let ids = u32s(c, count as usize, what).map_err(malformed(section))?;
        if let Some(&bad) = ids.iter().find(|&&v| v >= n) {
            return Err(StoreError::Malformed {
                section,
                detail: format!("{what}: node id {bad} out of range (n = {n})"),
            });
        }
        if let Some(w) = ids.windows(2).find(|w| w[0] >= w[1]) {
            return Err(StoreError::Malformed {
                section,
                detail: format!("{what} not strictly ascending at {} >= {}", w[0], w[1]),
            });
        }
        Ok(ids)
    };
    let t1 = read_set(&mut c, t1_count, "tier1 set")?;
    let t2 = read_set(&mut c, t2_count, "tier2 set")?;
    c.expect_end("tiers").map_err(malformed(section))?;
    if let Some(&dup) = t2.iter().find(|id| t1.binary_search(id).is_ok()) {
        return Err(StoreError::Malformed {
            section,
            detail: format!("node {dup} appears in both tier sets"),
        });
    }
    let to_asids =
        |ids: &[u32]| -> Vec<AsId> { ids.iter().map(|&i| graph.asn(NodeId(i))).collect() };
    Ok(Tiers::from_lists(graph, &to_asids(&t1), &to_asids(&t2)))
}

/// Decodes a complete container image. Never panics; every corruption,
/// truncation, or version mismatch is a typed [`StoreError`].
pub fn decode(bytes: &[u8]) -> Result<StoredSnapshot, StoreError> {
    let sections = unpack(bytes)?;
    // `unpack` guarantees REQUIRED_SECTIONS order.
    let version = decode_meta(sections[0].1)?;
    let graph = decode_graph(sections[1].1)?;
    let tiers = decode_tiers(sections[2].1, &graph)?;
    let topo = TopologySnapshot::compile(&graph);
    Ok(StoredSnapshot { version, graph, tiers, topo })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flatnet_asgraph::AsGraphBuilder;
    use flatnet_bgpsim::{PropagationConfig, RouteClass, Workspace};

    fn diamond_snapshot() -> StoredSnapshot {
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(10), AsId(30), Relationship::P2c);
        b.add_link(AsId(10), AsId(40), Relationship::P2c);
        b.add_link(AsId(20), AsId(30), Relationship::P2c);
        b.add_link(AsId(20), AsId(40), Relationship::P2c);
        b.add_link(AsId(30), AsId(40), Relationship::P2p);
        b.add_isolated(AsId(99));
        let graph = b.build();
        let tiers = Tiers::from_lists(&graph, &[AsId(10), AsId(20)], &[AsId(30)]);
        let topo = TopologySnapshot::compile(&graph);
        StoredSnapshot { version: 7, graph, tiers, topo }
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let snap = diamond_snapshot();
        let bytes = encode(&snap);
        let back = decode(&bytes).unwrap();
        assert_eq!(back.version, 7);
        assert_eq!(back.graph.len(), snap.graph.len());
        assert!(back.graph.edges().eq(snap.graph.edges()));
        assert!(back.graph.asns().eq(snap.graph.asns()));
        assert_eq!(back.tiers, snap.tiers);
        assert_eq!(
            (back.topo.len(), back.topo.edge_entries()),
            (snap.topo.len(), snap.topo.edge_entries())
        );
        // Encoding the decoded snapshot reproduces the exact same bytes.
        assert_eq!(encode(&back), bytes);
    }

    /// Every node's selected `(class, length)`, from every origin.
    fn selections(topo: &TopologySnapshot, g: &AsGraph) -> Vec<Vec<Option<(RouteClass, u32)>>> {
        let mut ws = Workspace::for_snapshot(topo);
        let cfg = PropagationConfig::default();
        g.nodes()
            .map(|origin| {
                ws.run(topo, origin, &cfg);
                g.nodes().map(|t| ws.selection(t)).collect()
            })
            .collect()
    }

    #[test]
    fn what_decode_returns_propagates_like_a_compile_of_the_stored_graph() {
        // Graph A: AS1 → AS2 → AS3 with AS4 isolated. Graph B has the
        // same four ASes, with AS4 a customer of AS1. The snapshot holds
        // A beside B's compiled topology. An image that carried compiled
        // arrays would hand B's back — structurally sound for four nodes,
        // every checksum valid — and AS3 would reach AS4 through a link
        // the stored graph does not have.
        let build = |with_as4_link: bool| {
            let mut b = AsGraphBuilder::new();
            b.add_link(AsId(1), AsId(2), Relationship::P2c);
            b.add_link(AsId(2), AsId(3), Relationship::P2c);
            if with_as4_link {
                b.add_link(AsId(1), AsId(4), Relationship::P2c);
            } else {
                b.add_isolated(AsId(4));
            }
            b.build()
        };
        let (a, b) = (build(false), build(true));
        assert!(a.asns().eq(b.asns()));
        let tiers = Tiers::from_lists(&a, &[AsId(1)], &[]);
        let mixed =
            StoredSnapshot { version: 1, graph: a, tiers, topo: TopologySnapshot::compile(&b) };
        let back = decode(&encode(&mixed)).unwrap();
        assert!(back.graph.edges().eq(mixed.graph.edges()));
        let want = selections(&TopologySnapshot::compile(&back.graph), &back.graph);
        assert_eq!(selections(&back.topo, &back.graph), want);
        let as3 = back.graph.index_of(AsId(3)).unwrap();
        assert_eq!(want[as3.idx()].iter().flatten().count(), 3, "AS3 reaches AS1, AS2 and itself");
    }
}
