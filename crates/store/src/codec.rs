//! Section codecs: [`StoredSnapshot`] ⇄ the container's four payloads.
//!
//! The graph is stored as its canonical edge list plus the sorted ASN
//! table and handed to [`AsGraph::from_canonical_edges`] — the one
//! constructor every ingestion path ends in — which checks the canonical
//! form instead of restoring it: an image whose edges are out of order
//! is malformed, so whatever decodes re-encodes to the same bytes. The
//! CSR arrays are stored verbatim and revalidated by
//! [`TopologySnapshot::from_raw_parts`], so a warm start skips the
//! compile entirely without ever trusting unvalidated offsets.

use crate::error::{SectionId, StoreError};
use crate::format::{unpack, Cursor, Enc, REQUIRED_SECTIONS};
use flatnet_asgraph::{AsGraph, AsId, NodeId, Relationship, Tiers};
use flatnet_bgpsim::TopologySnapshot;

/// Everything the serve daemon needs to warm-start: the graph, the tier
/// sets, the compiled CSR snapshot, and the snapshot version the daemon
/// had reached when the store was written (so versions stay monotonic
/// across restarts).
#[derive(Debug, Clone)]
pub struct StoredSnapshot {
    /// The serve-side snapshot version this store captures.
    pub version: u64,
    /// The AS graph.
    pub graph: AsGraph,
    /// Tier-1/Tier-2 sets over `graph`'s node ids.
    pub tiers: Tiers,
    /// The compiled propagation snapshot of `graph`.
    pub topo: TopologySnapshot,
}

/// A [`StoredSnapshot`] by reference: what encoding reads, for a caller
/// that holds the parts elsewhere (the serve daemon's `ServeSnapshot`)
/// and should not deep-copy a topology just to write it out.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotParts<'a> {
    /// The serve-side snapshot version.
    pub version: u64,
    /// The AS graph.
    pub graph: &'a AsGraph,
    /// Tier-1/Tier-2 sets over `graph`'s node ids.
    pub tiers: &'a Tiers,
    /// The compiled propagation snapshot of `graph`.
    pub topo: &'a TopologySnapshot,
}

impl StoredSnapshot {
    /// This snapshot's parts, borrowed.
    pub fn parts(&self) -> SnapshotParts<'_> {
        SnapshotParts {
            version: self.version,
            graph: &self.graph,
            tiers: &self.tiers,
            topo: &self.topo,
        }
    }
}

/// Hard cap on node/edge counts read from a file, so a corrupted count
/// field cannot provoke a multi-gigabyte allocation before validation.
/// Generous: ~30× the current full CAIDA topology.
const MAX_NODES: u32 = 16_000_000;
/// Cap on adjacency/edge entries (directed), same rationale.
const MAX_ENTRIES: u32 = 512_000_000;

fn malformed(section: SectionId) -> impl FnOnce(String) -> StoreError {
    move |detail| StoreError::Malformed { section, detail }
}

/// Encodes a snapshot into a complete container image.
pub fn encode(snap: &StoredSnapshot) -> Vec<u8> {
    encode_parts(snap.parts())
}

/// Bytes of one stored edge: two `u32` node ids and the relationship tag.
pub(crate) const EDGE_RECORD: usize = 9;

/// [`encode`] from borrowed parts.
pub(crate) fn encode_parts(snap: SnapshotParts<'_>) -> Vec<u8> {
    let g = snap.graph;
    let (t1, t2) = (snap.tiers.tier1(), snap.tiers.tier2());
    let (off, cust_end, peer_end, adj, total_peer) = snap.topo.raw_parts();
    // Every section's length is arithmetic in the counts it starts with,
    // so the image is sized once and written in place.
    let payload_bytes = 8
        + (8 + 4 * g.len() + EDGE_RECORD * g.edge_count())
        + (8 + 4 * (t1.len() + t2.len()))
        + (16 + 4 * (off.len() + cust_end.len() + peer_end.len() + adj.len()));
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
    for &(a, b, rel) in g.edges() {
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

    // CSR: the compiled arrays, verbatim.
    enc.section(SectionId::Csr);
    enc.u32(snap.topo.len() as u32);
    enc.u32(adj.len() as u32);
    enc.u64(total_peer);
    enc.u32s(off);
    enc.u32s(cust_end);
    enc.u32s(peer_end);
    enc.u32s(adj);

    enc.finish()
}

fn decode_meta(payload: &[u8]) -> Result<u64, StoreError> {
    let section = SectionId::Meta;
    let mut c = Cursor::new(payload);
    let version = c.u64("snapshot_version").map_err(malformed(section))?;
    c.expect_end("meta").map_err(malformed(section))?;
    Ok(version)
}

fn decode_graph(payload: &[u8]) -> Result<AsGraph, StoreError> {
    let section = SectionId::Graph;
    let mut c = Cursor::new(payload);
    let n = c.u32("node count").map_err(malformed(section))?;
    let m = c.u32("edge count").map_err(malformed(section))?;
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
    let asns = c.u32s(n as usize, "asn table").map_err(malformed(section))?;
    let records = c.records(m as usize, EDGE_RECORD, "edge list").map_err(malformed(section))?;
    c.expect_end("graph").map_err(malformed(section))?;
    let mut edges = Vec::with_capacity(m as usize);
    for (i, r) in records.chunks_exact(EDGE_RECORD).enumerate() {
        let a = u32::from_le_bytes([r[0], r[1], r[2], r[3]]);
        let z = u32::from_le_bytes([r[4], r[5], r[6], r[7]]);
        let rel = match r[8] {
            0 => Relationship::P2c,
            1 => Relationship::P2p,
            other => {
                return Err(StoreError::Malformed {
                    section,
                    detail: format!("edge {i}: unknown relationship tag {other}"),
                })
            }
        };
        edges.push((NodeId(a), NodeId(z), rel));
    }
    // Ascending ASNs, endpoints in range, no self-loop, no duplicate, and
    // the canonical order itself are the constructor's checks.
    AsGraph::from_canonical_edges(asns, edges)
        .map_err(|e| StoreError::Malformed { section, detail: e.to_string() })
}

fn decode_tiers(payload: &[u8], graph: &AsGraph) -> Result<Tiers, StoreError> {
    let section = SectionId::Tiers;
    let n = graph.len() as u32;
    let mut c = Cursor::new(payload);
    let t1_count = c.u32("tier1 count").map_err(malformed(section))?;
    let t2_count = c.u32("tier2 count").map_err(malformed(section))?;
    if t1_count > n || t2_count > n {
        return Err(StoreError::Malformed {
            section,
            detail: format!("tier counts {t1_count}/{t2_count} exceed {n} nodes"),
        });
    }
    let read_set = |c: &mut Cursor, count: u32, what: &str| -> Result<Vec<u32>, StoreError> {
        let ids = c.u32s(count as usize, what).map_err(malformed(section))?;
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

fn decode_csr(payload: &[u8], graph: &AsGraph) -> Result<TopologySnapshot, StoreError> {
    let section = SectionId::Csr;
    let mut c = Cursor::new(payload);
    let n = c.u32("csr node count").map_err(malformed(section))?;
    let adj_len = c.u32("adjacency length").map_err(malformed(section))?;
    let total_peer = c.u64("total peer entries").map_err(malformed(section))?;
    if n as usize != graph.len() {
        return Err(StoreError::Malformed {
            section,
            detail: format!("csr covers {n} nodes but the graph has {}", graph.len()),
        });
    }
    if adj_len > MAX_ENTRIES {
        return Err(StoreError::Malformed {
            section,
            detail: format!("adjacency length {adj_len} exceeds the sanity cap {MAX_ENTRIES}"),
        });
    }
    let off = c.u32s(n as usize + 1, "off array").map_err(malformed(section))?;
    let cust_end = c.u32s(n as usize, "cust_end array").map_err(malformed(section))?;
    let peer_end = c.u32s(n as usize, "peer_end array").map_err(malformed(section))?;
    let adj = c.u32s(adj_len as usize, "adjacency array").map_err(malformed(section))?;
    c.expect_end("csr").map_err(malformed(section))?;
    TopologySnapshot::from_raw_parts(n as usize, off, cust_end, peer_end, adj, total_peer)
        .map_err(|detail| StoreError::Malformed { section, detail })
}

/// Decodes a complete container image. Never panics; every corruption,
/// truncation, or version mismatch is a typed [`StoreError`].
pub fn decode(bytes: &[u8]) -> Result<StoredSnapshot, StoreError> {
    let sections = unpack(bytes)?;
    // `unpack` guarantees REQUIRED_SECTIONS order.
    let version = decode_meta(sections[0].1)?;
    let graph = decode_graph(sections[1].1)?;
    let tiers = decode_tiers(sections[2].1, &graph)?;
    let topo = decode_csr(sections[3].1, &graph)?;
    Ok(StoredSnapshot { version, graph, tiers, topo })
}

/// Whether two compiled snapshots are bit-identical (same CSR arrays).
pub fn topo_identical(a: &TopologySnapshot, b: &TopologySnapshot) -> bool {
    a.len() == b.len() && a.raw_parts() == b.raw_parts()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flatnet_asgraph::AsGraphBuilder;

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
        assert_eq!(back.graph.edges(), snap.graph.edges());
        assert!(back.graph.asns().eq(snap.graph.asns()));
        assert_eq!(back.tiers, snap.tiers);
        assert!(topo_identical(&back.topo, &snap.topo));
        // Encoding the decoded snapshot reproduces the exact same bytes.
        assert_eq!(encode(&back), bytes);
    }

    #[test]
    fn csr_must_match_the_graph_dimension() {
        let snap = diamond_snapshot();
        let mut other = snap.clone();
        let mut b = AsGraphBuilder::new();
        b.add_link(AsId(1), AsId(2), Relationship::P2p);
        other.topo = TopologySnapshot::compile(&b.build());
        let bytes = encode(&other);
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err, StoreError::Malformed { section: SectionId::Csr, .. }), "{err}");
    }
}
