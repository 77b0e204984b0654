//! Binary encoding/decoding of the RFC 6396 TABLE_DUMP_V2 subset.
//!
//! Wire layout implemented here:
//!
//! ```text
//! MRT common header:  timestamp u32 | type u16 | subtype u16 | length u32
//!   type 13 = TABLE_DUMP_V2
//!   subtype 1 = PEER_INDEX_TABLE:
//!     collector BGP id u32 | view name len u16 | view name bytes |
//!     peer count u16 | peers: { peer type u8 (0x02 = IPv4 + AS4) |
//!                               BGP id u32 | IPv4 addr [4] | ASN u32 }
//!   subtype 2 = RIB_IPV4_UNICAST:
//!     sequence u32 | prefix len u8 | prefix bytes ceil(len/8) |
//!     entry count u16 | entries: { peer index u16 | originated u32 |
//!                                  attr len u16 | BGP attributes }
//! BGP attributes: flags u8 | type u8 | len u8 (u16 when flags & 0x10) | data
//!   ORIGIN (1): 1 byte, 0 = IGP
//!   AS_PATH (2): segments { type u8 (2 = AS_SEQUENCE) | count u8 |
//!                           ASNs u32 each } — 4-byte ASes per RFC 6396
//!   NEXT_HOP (3): 4 bytes
//! ```
//!
//! The reader is [`flatnet_asgraph::ingest::read_framed`] over this
//! header, with [`ByteReader`]s over each body: every [`MrtError`] names
//! the byte it failed at, counted from the start of the dump.

use crate::model::{MrtPeer, MrtRib, MrtRoute};
use flatnet_asgraph::ingest::{read_framed, ByteError, ByteReader, ParseDiagnostics, ParseOptions};
use flatnet_asgraph::AsId;
use flatnet_prefixdb::Ipv4Prefix;
use std::net::Ipv4Addr;

const MRT_TYPE_TABLE_DUMP_V2: u16 = 13;
const SUBTYPE_PEER_INDEX_TABLE: u16 = 1;
const SUBTYPE_RIB_IPV4_UNICAST: u16 = 2;
const PEER_TYPE_IPV4_AS4: u8 = 0x02;
const ATTR_ORIGIN: u8 = 1;
const ATTR_AS_PATH: u8 = 2;
const ATTR_NEXT_HOP: u8 = 3;
const FLAG_TRANSITIVE: u8 = 0x40;
const FLAG_EXTENDED_LEN: u8 = 0x10;
const SEG_AS_SEQUENCE: u8 = 2;

/// A decode error, at the absolute byte offset it was detected at.
pub type MrtError = ByteError;

// ---------------------------------------------------------------- writer

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_record(out: &mut Vec<u8>, timestamp: u32, subtype: u16, body: &[u8]) {
    put_u32(out, timestamp);
    put_u16(out, MRT_TYPE_TABLE_DUMP_V2);
    put_u16(out, subtype);
    put_u32(out, body.len() as u32);
    out.extend_from_slice(body);
}

fn encode_attributes(path: &[AsId], next_hop: Ipv4Addr) -> Vec<u8> {
    let mut attrs = Vec::new();
    // ORIGIN = IGP.
    attrs.extend_from_slice(&[FLAG_TRANSITIVE, ATTR_ORIGIN, 1, 0]);
    // AS_PATH: one AS_SEQUENCE segment (extended length for long paths).
    let mut seg = Vec::with_capacity(2 + 4 * path.len());
    // RFC 4271 caps a segment at 255 ASes; chunk longer paths.
    for chunk in path.chunks(255) {
        seg.push(SEG_AS_SEQUENCE);
        seg.push(chunk.len() as u8);
        for a in chunk {
            seg.extend_from_slice(&a.0.to_be_bytes());
        }
    }
    if path.is_empty() {
        // Zero-segment AS_PATH: the peer originates the prefix.
    }
    attrs.push(FLAG_TRANSITIVE | FLAG_EXTENDED_LEN);
    attrs.push(ATTR_AS_PATH);
    put_u16(&mut attrs, seg.len() as u16);
    attrs.extend_from_slice(&seg);
    // NEXT_HOP.
    attrs.extend_from_slice(&[FLAG_TRANSITIVE, ATTR_NEXT_HOP, 4]);
    attrs.extend_from_slice(&next_hop.octets());
    attrs
}

/// Serializes a RIB snapshot as MRT bytes: one PEER_INDEX_TABLE record
/// followed by one RIB_IPV4_UNICAST record per route.
pub fn write_mrt(rib: &MrtRib, timestamp: u32) -> Vec<u8> {
    let mut out = Vec::new();

    let mut body = Vec::new();
    put_u32(&mut body, rib.collector_id);
    let name = rib.view_name.as_bytes();
    put_u16(&mut body, name.len() as u16);
    body.extend_from_slice(name);
    put_u16(&mut body, rib.peers.len() as u16);
    for p in &rib.peers {
        body.push(PEER_TYPE_IPV4_AS4);
        put_u32(&mut body, p.bgp_id);
        body.extend_from_slice(&p.addr.octets());
        put_u32(&mut body, p.asn.0);
    }
    put_record(&mut out, timestamp, SUBTYPE_PEER_INDEX_TABLE, &body);

    for (seq, route) in rib.routes.iter().enumerate() {
        let mut body = Vec::new();
        put_u32(&mut body, seq as u32);
        body.push(route.prefix.len());
        let nbytes = route.prefix.len().div_ceil(8) as usize;
        body.extend_from_slice(&route.prefix.network_bits().to_be_bytes()[..nbytes]);
        put_u16(&mut body, route.entries.len() as u16);
        for (peer_idx, path) in &route.entries {
            put_u16(&mut body, *peer_idx);
            put_u32(&mut body, timestamp); // originated time
            let next_hop = rib
                .peers
                .get(*peer_idx as usize)
                .map(|p| p.addr)
                .unwrap_or(Ipv4Addr::UNSPECIFIED);
            let attrs = encode_attributes(path, next_hop);
            put_u16(&mut body, attrs.len() as u16);
            body.extend_from_slice(&attrs);
        }
        put_record(&mut out, timestamp, SUBTYPE_RIB_IPV4_UNICAST, &body);
    }
    out
}

// ---------------------------------------------------------------- reader

/// Minimum encoded size of one peer entry (type + BGP id + addr + ASN).
const PEER_ENTRY_BYTES: usize = 13;
/// Minimum encoded size of one RIB entry (peer index + originated + attr len).
const RIB_ENTRY_MIN_BYTES: usize = 8;

fn parse_peer_table(body: &mut ByteReader<'_>, rib: &mut MrtRib) -> Result<(), MrtError> {
    rib.collector_id = body.u32_be("collector id")?;
    let name_len = body.u16_be("view name length")? as usize;
    rib.view_name = String::from_utf8_lossy(body.take(name_len, "view name")?).into_owned();
    let count = body.u16_be("peer count")?;
    body.expect_room(count as usize, PEER_ENTRY_BYTES, "peer count")?;
    rib.peers.reserve(count as usize);
    for _ in 0..count {
        let ptype = body.u8("peer type")?;
        if ptype != PEER_TYPE_IPV4_AS4 {
            let message = format!("unsupported peer type {ptype:#x} (IPv4+AS4 only)");
            return Err(body.err_last(1, message));
        }
        let bgp_id = body.u32_be("peer BGP id")?;
        let addr = Ipv4Addr::from(body.u32_be("peer address")?);
        let asn = AsId(body.u32_be("peer ASN")?);
        rib.peers.push(MrtPeer { bgp_id, addr, asn });
    }
    Ok(())
}

fn parse_as_path(mut seg: ByteReader<'_>) -> Result<Vec<AsId>, MrtError> {
    let mut path = Vec::new();
    while !seg.is_empty() {
        let seg_type = seg.u8("AS_PATH segment type")?;
        if seg_type != SEG_AS_SEQUENCE {
            return Err(seg.err_last(1, format!("unsupported AS_PATH segment type {seg_type}")));
        }
        let count = seg.u8("AS_PATH segment length")? as usize;
        for _ in 0..count {
            path.push(AsId(seg.u32_be("AS_PATH ASN")?));
        }
    }
    Ok(path)
}

fn parse_rib_record(body: &mut ByteReader<'_>, rib: &mut MrtRib) -> Result<(), MrtError> {
    let _seq = body.u32_be("sequence number")?;
    let plen = body.u8("prefix length")?;
    if plen > 32 {
        return Err(body.err_last(1, format!("bad prefix length {plen}")));
    }
    let nbytes = plen.div_ceil(8) as usize;
    let mut bits = [0u8; 4];
    bits[..nbytes].copy_from_slice(body.take(nbytes, "prefix")?);
    let prefix = Ipv4Prefix::new(Ipv4Addr::from(bits), plen);
    let count = body.u16_be("entry count")?;
    body.expect_room(count as usize, RIB_ENTRY_MIN_BYTES, "entry count")?;
    let mut entries = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let peer_idx = body.u16_be("peer index")?;
        let _originated = body.u32_be("originated time")?;
        let attr_len = body.u16_be("attribute length")? as usize;
        let mut attrs = body.sub(attr_len, "attributes")?;
        let mut path = Vec::new();
        while !attrs.is_empty() {
            let flags = attrs.u8("attribute flags")?;
            let ty = attrs.u8("attribute type")?;
            let len = if flags & FLAG_EXTENDED_LEN != 0 {
                attrs.u16_be("attribute length")? as usize
            } else {
                attrs.u8("attribute length")? as usize
            };
            let data = attrs.sub(len, "attribute data")?;
            if ty == ATTR_AS_PATH {
                path = parse_as_path(data)?;
            }
        }
        entries.push((peer_idx, path));
    }
    rib.routes.push(MrtRoute { prefix, entries });
    Ok(())
}

/// Parses one record body.
fn parse_record_body(
    (ty, subtype): (u16, u16),
    mut body: ByteReader<'_>,
    rib: &mut MrtRib,
    saw_peer_table: &mut bool,
) -> Result<(), MrtError> {
    if ty != MRT_TYPE_TABLE_DUMP_V2 {
        return Err(body.err(format!("unsupported MRT type {ty} (TABLE_DUMP_V2 only)")));
    }
    match subtype {
        SUBTYPE_PEER_INDEX_TABLE => {
            parse_peer_table(&mut body, rib)?;
            *saw_peer_table = true;
        }
        SUBTYPE_RIB_IPV4_UNICAST if !*saw_peer_table => {
            return Err(body.err("RIB record before PEER_INDEX_TABLE"));
        }
        SUBTYPE_RIB_IPV4_UNICAST => parse_rib_record(&mut body, rib)?,
        other => return Err(body.err(format!("unsupported TABLE_DUMP_V2 subtype {other}"))),
    }
    body.expect_end("record body")
}

/// Parses MRT bytes produced by [`write_mrt`] (or any TABLE_DUMP_V2 dump
/// restricted to IPv4+AS4 peers and IPv4-unicast RIB records). Unknown
/// record types are rejected with their offset.
pub fn parse_mrt(bytes: &[u8]) -> Result<MrtRib, MrtError> {
    parse_mrt_with(bytes, &ParseOptions::strict()).map(|(rib, _)| rib)
}

/// [`parse_mrt`] with explicit strictness.
///
/// In lenient mode a record whose *body* fails to parse (bad peer type, bad
/// prefix length, malformed attributes, trailing bytes) is skipped — the
/// record length from the header lets the parser resynchronise at the next
/// record boundary — and tallied in [`ParseDiagnostics`], up to the error
/// budget. Framing corruption (a truncated header, or a record length that
/// overruns the remaining buffer) is always fatal: past it, record
/// boundaries can no longer be trusted.
pub fn parse_mrt_with(
    bytes: &[u8],
    opts: &ParseOptions,
) -> Result<(MrtRib, ParseDiagnostics), MrtError> {
    let mut rib = MrtRib::default();
    let mut saw_peer_table = false;
    let header = |r: &mut ByteReader<'_>| {
        let _timestamp = r.u32_be("timestamp")?;
        Ok((r.u16_be("MRT type")?, r.u16_be("MRT subtype")?))
    };
    let diag = read_framed(bytes, opts, "MRT", header, |fields, body| {
        // A failed record is rolled back, so lenient mode skips it whole.
        let (peers, routes, collector) = (rib.peers.len(), rib.routes.len(), rib.collector_id);
        let view = (fields.1 == SUBTYPE_PEER_INDEX_TABLE).then(|| rib.view_name.clone());
        parse_record_body(fields, body, &mut rib, &mut saw_peer_table).inspect_err(|_| {
            rib.peers.truncate(peers);
            rib.routes.truncate(routes);
            rib.collector_id = collector;
            if let Some(v) = view {
                rib.view_name = v;
            }
        })
    })?;
    Ok((rib, diag))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flatnet_asgraph::ingest::RecordLocation;

    fn sample() -> MrtRib {
        MrtRib {
            collector_id: 0xC011_EC70,
            view_name: "flatnet".into(),
            peers: vec![
                MrtPeer { bgp_id: 100, addr: Ipv4Addr::new(10, 0, 0, 100), asn: AsId(100) },
                MrtPeer { bgp_id: 101, addr: Ipv4Addr::new(10, 0, 0, 101), asn: AsId(4_200_000_001) },
            ],
            routes: vec![
                MrtRoute {
                    prefix: "192.0.2.0/24".parse().unwrap(),
                    entries: vec![
                        (0, vec![AsId(200), AsId(300)]),
                        (1, vec![AsId(300)]),
                    ],
                },
                MrtRoute {
                    prefix: "10.0.0.0/8".parse().unwrap(),
                    entries: vec![(0, vec![])],
                },
            ],
        }
    }

    #[test]
    fn roundtrips_bytes() {
        let rib = sample();
        let bytes = write_mrt(&rib, 1_600_000_000);
        let back = parse_mrt(&bytes).unwrap();
        assert_eq!(back, rib);
    }

    #[test]
    fn header_fields_are_wire_correct() {
        let bytes = write_mrt(&sample(), 42);
        // timestamp
        assert_eq!(&bytes[0..4], &42u32.to_be_bytes());
        // type 13 / subtype 1
        assert_eq!(&bytes[4..6], &13u16.to_be_bytes());
        assert_eq!(&bytes[6..8], &1u16.to_be_bytes());
        let len = u32::from_be_bytes(bytes[8..12].try_into().unwrap()) as usize;
        // Second record starts right after.
        assert_eq!(&bytes[12 + len + 4..12 + len + 6], &13u16.to_be_bytes());
        assert_eq!(&bytes[12 + len + 6..12 + len + 8], &2u16.to_be_bytes());
    }

    #[test]
    fn as4_numbers_survive() {
        let rib = sample();
        let bytes = write_mrt(&rib, 1);
        let back = parse_mrt(&bytes).unwrap();
        assert_eq!(back.peers[1].asn, AsId(4_200_000_001));
    }

    #[test]
    fn long_paths_chunk_into_multiple_segments() {
        let long: Vec<AsId> = (1..=600u32).map(AsId).collect();
        let rib = MrtRib {
            collector_id: 1,
            view_name: String::new(),
            peers: vec![MrtPeer { bgp_id: 1, addr: Ipv4Addr::LOCALHOST, asn: AsId(1) }],
            routes: vec![MrtRoute { prefix: "10.0.0.0/8".parse().unwrap(), entries: vec![(0, long.clone())] }],
        };
        let back = parse_mrt(&write_mrt(&rib, 1)).unwrap();
        assert_eq!(back.routes[0].entries[0].1, long);
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(parse_mrt(&[1, 2, 3]).is_err());
        let mut bytes = write_mrt(&sample(), 1);
        bytes.truncate(bytes.len() - 3);
        let err = parse_mrt(&bytes).unwrap_err();
        assert!(err.message.contains("truncated"), "{err}");
        // Unknown type.
        let mut bad = Vec::new();
        put_u32(&mut bad, 0);
        put_u16(&mut bad, 99);
        put_u16(&mut bad, 1);
        put_u32(&mut bad, 0);
        assert!(parse_mrt(&bad).unwrap_err().message.contains("unsupported MRT type"));
    }

    #[test]
    fn rejects_rib_before_peer_table() {
        let rib = sample();
        let bytes = write_mrt(&rib, 1);
        // Strip the first record (the peer table).
        let len = u32::from_be_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let rest = &bytes[12 + len..];
        let err = parse_mrt(rest).unwrap_err();
        assert!(err.message.contains("before PEER_INDEX_TABLE"), "{err}");
    }

    /// Clobbers the prefix-length byte of the first RIB record (record #1,
    /// after the peer table) so its body fails to parse while the record
    /// framing stays intact.
    fn corrupt_first_rib_record(bytes: &mut [u8]) {
        let l0 = u32::from_be_bytes(bytes[8..12].try_into().unwrap()) as usize;
        // record 1 header at 12+l0; body starts 12 bytes later; plen is at
        // body offset 4 (after the u32 sequence number).
        bytes[12 + l0 + 12 + 4] = 99;
    }

    #[test]
    fn oversized_length_field_errors_cleanly() {
        let mut bytes = write_mrt(&sample(), 1);
        bytes[8..12].copy_from_slice(&u32::MAX.to_be_bytes());
        let err = parse_mrt(&bytes).unwrap_err();
        assert_eq!(err.offset, 8, "{err}");
        assert!(err.message.contains("corrupt length field"), "{err}");
        assert!(err.message.contains(&format!("{}", u32::MAX)), "{err}");
    }

    /// Where each record's body starts and ends.
    fn body_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        let mut at = 0;
        while at < bytes.len() {
            let len = u32::from_be_bytes(bytes[at + 8..at + 12].try_into().unwrap()) as usize;
            spans.push((at + 12, at + 12 + len));
            at += 12 + len;
        }
        spans
    }

    #[test]
    fn body_errors_name_the_absolute_byte_that_failed() {
        let peer = MrtPeer { bgp_id: 1, addr: Ipv4Addr::new(10, 0, 0, 1), asn: AsId(64500) };
        let route = |prefix: &str| MrtRoute {
            prefix: prefix.parse().unwrap(),
            entries: vec![(0, vec![AsId(64500), AsId(64501)])],
        };
        let rib = MrtRib {
            collector_id: 9,
            view_name: "v".into(),
            peers: vec![peer],
            routes: vec![route("192.0.2.0/24"), route("198.51.100.0/24")],
        };
        let bytes = write_mrt(&rib, 1);
        let spans = body_spans(&bytes);
        assert_eq!(spans, [(12, 34), (46, 89), (101, 144)]);
        // The peer table's body: collector id u32, view name length u16,
        // the 1-byte name, peer count u16, then the peer's type byte. A
        // RIB body: sequence u32, prefix length, 3 prefix bytes, entry
        // count u16, then the entry: peer index u16, originated u32,
        // attribute length u16, ORIGIN (4 bytes), AS_PATH's flags, type and
        // u16 length, and its first segment's type byte.
        let (peer_type, prefix_len, segment_type) = (9, 4, 4 + 1 + 3 + 2 + 8 + 4 + 4);
        for (record, field, value, wants) in [
            (0, peer_type, 7, "unsupported peer type"),
            (1, prefix_len, 40, "bad prefix length 40"),
            (2, prefix_len, 40, "bad prefix length 40"),
            (2, segment_type, 9, "unsupported AS_PATH segment type 9"),
        ] {
            let (start, end) = spans[record];
            let mut bad = bytes.clone();
            bad[start + field] = value;
            let err = parse_mrt(&bad).unwrap_err();
            assert!(err.message.contains(wants), "{err}");
            assert_eq!(err.offset, start + field, "record {record}: {err}");
            assert!((start..end).contains(&err.offset));
        }
    }

    #[test]
    fn lenient_skips_bad_record_and_resyncs() {
        let rib = sample();
        let mut bytes = write_mrt(&rib, 1);
        corrupt_first_rib_record(&mut bytes);
        // Strict fails at the corrupt record.
        let err = parse_mrt(&bytes).unwrap_err();
        assert!(err.message.contains("bad prefix length"), "{err}");
        // Lenient drops exactly that record and keeps everything else.
        let (back, diag) = parse_mrt_with(&bytes, &ParseOptions::lenient()).unwrap();
        assert_eq!(diag.dropped(), 1, "{:?}", diag.issues);
        assert_eq!(diag.records_ok, 2);
        assert_eq!(diag.issues[0].location, RecordLocation::Record(1));
        assert!(diag.issues[0].message.contains("bad prefix length"), "{}", diag.issues[0]);
        assert_eq!(back.peers, rib.peers);
        assert_eq!(back.routes.len(), 1);
        assert_eq!(back.routes[0], rib.routes[1]);
    }

    #[test]
    fn lenient_framing_corruption_is_still_fatal() {
        let mut bytes = write_mrt(&sample(), 1);
        bytes[8..12].copy_from_slice(&10_000_000u32.to_be_bytes());
        let err = parse_mrt_with(&bytes, &ParseOptions::lenient()).unwrap_err();
        assert!(err.message.contains("exceeds"), "{err}");
    }

    #[test]
    fn lenient_rolls_back_failed_peer_table() {
        let rib = sample();
        let mut bytes = write_mrt(&rib, 1);
        // Peer table body: collector u32, name_len u16, name, count u16.
        let count_at = 12 + 4 + 2 + rib.view_name.len();
        bytes[count_at..count_at + 2].copy_from_slice(&u16::MAX.to_be_bytes());
        // Strict: the bogus count errors before any huge allocation.
        let err = parse_mrt(&bytes).unwrap_err();
        assert!(err.message.contains("peer count 65535"), "{err}");
        // Lenient: the peer table is dropped, so every RIB record that
        // depends on it is dropped too and nothing leaks into the result.
        let (back, diag) = parse_mrt_with(&bytes, &ParseOptions::lenient()).unwrap();
        assert_eq!(diag.dropped(), 3, "{:?}", diag.issues);
        assert!(back.peers.is_empty());
        assert!(back.routes.is_empty());
        assert!(diag.issues[1].message.contains("before PEER_INDEX_TABLE"));
    }

    #[test]
    fn lenient_error_budget_is_enforced() {
        let mut bytes = write_mrt(&sample(), 1);
        corrupt_first_rib_record(&mut bytes);
        // Also corrupt the second RIB record the same way.
        let l0 = u32::from_be_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let r1 = 12 + l0;
        let l1 = u32::from_be_bytes(bytes[r1 + 8..r1 + 12].try_into().unwrap()) as usize;
        bytes[r1 + 12 + l1 + 12 + 4] = 99;
        let err =
            parse_mrt_with(&bytes, &ParseOptions::lenient().with_max_errors(1)).unwrap_err();
        assert!(err.message.contains("error budget exhausted"), "{err}");
        let (back, diag) =
            parse_mrt_with(&bytes, &ParseOptions::lenient().with_max_errors(2)).unwrap();
        assert_eq!(diag.dropped(), 2);
        assert!(back.routes.is_empty());
        assert_eq!(back.peers.len(), 2);
    }

    #[test]
    fn empty_rib_roundtrip() {
        let rib = MrtRib {
            collector_id: 7,
            view_name: "v".into(),
            peers: vec![],
            routes: vec![],
        };
        assert_eq!(parse_mrt(&write_mrt(&rib, 0)).unwrap(), rib);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn arb_rib() -> impl Strategy<Value = MrtRib> {
            let peer = (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(id, a, asn)| MrtPeer {
                bgp_id: id,
                addr: Ipv4Addr::from(a),
                asn: AsId(asn),
            });
            let peers = proptest::collection::vec(peer, 1..5);
            peers.prop_flat_map(|peers| {
                let n_peers = peers.len() as u16;
                let path = proptest::collection::vec(any::<u32>().prop_map(AsId), 0..6);
                let entry = (0..n_peers, path);
                let route = (any::<u32>(), 0u8..=32, proptest::collection::vec(entry, 0..4))
                    .prop_map(|(bits, len, entries)| MrtRoute {
                        prefix: Ipv4Prefix::new(Ipv4Addr::from(bits), len),
                        entries,
                    });
                (
                    Just(peers),
                    proptest::collection::vec(route, 0..6),
                    any::<u32>(),
                    "[a-z]{0,12}",
                )
                    .prop_map(|(peers, routes, collector_id, view_name)| MrtRib {
                        collector_id,
                        view_name,
                        peers,
                        routes,
                    })
            })
        }

        proptest! {
            #[test]
            fn any_rib_roundtrips(rib in arb_rib(), ts in any::<u32>()) {
                let bytes = write_mrt(&rib, ts);
                let back = parse_mrt(&bytes).unwrap();
                prop_assert_eq!(back, rib);
            }

            #[test]
            fn parser_never_panics_on_noise(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
                let _ = parse_mrt(&bytes); // must not panic
            }
        }
    }
}
