//! A warts-style binary traceroute format.
//!
//! Scamper's native output is the binary *warts* format; like MRT, Rust
//! support for it is thin. This module implements a warts-inspired binary
//! encoding for campaign archives — same record discipline as the real
//! thing (magic-tagged records with explicit lengths, per-field presence
//! flags, microsecond RTTs), reduced to the fields our pipeline carries.
//!
//! ```text
//! record:  magic u16 (0x1205) | type u16 (0x0006 = trace) | length u32
//! trace:   cloud asn u32 | vp city u32 | dst u32 | dst asn u32 |
//!          flags u8 (bit0 = completed) | hop count u16 | hops
//! hop:     ttl u8 | flags u8 (bit0 = addr present, bit1 = rtt present) |
//!          [addr u32] [rtt u32 microseconds]
//! ```
//!
//! All integers are big-endian, as in the real format. The reader is
//! [`flatnet_asgraph::ingest::read_framed`], as MRT's is: every
//! [`WartsError`] names the byte it failed at, counted from the start.

use crate::model::{Hop, Traceroute, VantagePoint};
use flatnet_asgraph::ingest::{read_framed, ByteError, ByteReader, ParseDiagnostics, ParseOptions};
use flatnet_asgraph::AsId;
use std::net::Ipv4Addr;

const MAGIC: u16 = 0x1205;
const TYPE_TRACE: u16 = 0x0006;
const FLAG_COMPLETED: u8 = 0x01;
const HOP_HAS_ADDR: u8 = 0x01;
const HOP_HAS_RTT: u8 = 0x02;

/// A decode error, at the absolute byte offset it was detected at.
pub type WartsError = ByteError;

/// Serializes traceroutes as warts-style bytes.
pub fn write_warts(traces: &[Traceroute]) -> Vec<u8> {
    let mut out = Vec::new();
    for t in traces {
        let mut body = Vec::new();
        body.extend_from_slice(&t.vp.cloud.0.to_be_bytes());
        body.extend_from_slice(&(t.vp.city as u32).to_be_bytes());
        body.extend_from_slice(&u32::from(t.dst).to_be_bytes());
        body.extend_from_slice(&t.dst_asn.0.to_be_bytes());
        body.push(if t.completed { FLAG_COMPLETED } else { 0 });
        body.extend_from_slice(&(t.hops.len() as u16).to_be_bytes());
        for h in &t.hops {
            body.push(h.ttl);
            let mut flags = 0u8;
            if h.addr.is_some() {
                flags |= HOP_HAS_ADDR;
            }
            if h.rtt_ms.is_some() {
                flags |= HOP_HAS_RTT;
            }
            body.push(flags);
            if let Some(a) = h.addr {
                body.extend_from_slice(&u32::from(a).to_be_bytes());
            }
            if let Some(rtt) = h.rtt_ms {
                let us = (rtt * 1000.0).round().clamp(0.0, u32::MAX as f64) as u32;
                body.extend_from_slice(&us.to_be_bytes());
            }
        }
        out.extend_from_slice(&MAGIC.to_be_bytes());
        out.extend_from_slice(&TYPE_TRACE.to_be_bytes());
        out.extend_from_slice(&(body.len() as u32).to_be_bytes());
        out.extend_from_slice(&body);
    }
    out
}

/// Minimum encoded size of one hop (ttl + flags).
const HOP_MIN_BYTES: usize = 2;

fn parse_trace_body(mut b: ByteReader<'_>) -> Result<Traceroute, WartsError> {
    let cloud = AsId(b.u32_be("cloud ASN")?);
    let city = b.u32_be("vantage point city")? as usize;
    let dst = Ipv4Addr::from(b.u32_be("destination")?);
    let dst_asn = AsId(b.u32_be("destination ASN")?);
    let flags = b.u8("trace flags")?;
    let n_hops = b.u16_be("hop count")?;
    b.expect_room(n_hops as usize, HOP_MIN_BYTES, "hop count")?;
    let mut hops = Vec::with_capacity(n_hops as usize);
    for _ in 0..n_hops {
        let ttl = b.u8("hop ttl")?;
        let hflags = b.u8("hop flags")?;
        let addr = (hflags & HOP_HAS_ADDR != 0).then(|| b.u32_be("hop address")).transpose()?;
        let rtt_us = (hflags & HOP_HAS_RTT != 0).then(|| b.u32_be("hop rtt")).transpose()?;
        let rtt_ms = rtt_us.map(|us| us as f64 / 1000.0);
        hops.push(Hop { ttl, addr: addr.map(Ipv4Addr::from), rtt_ms });
    }
    b.expect_end("trace record")?;
    Ok(Traceroute {
        vp: VantagePoint { cloud, city },
        dst,
        dst_asn,
        hops,
        completed: flags & FLAG_COMPLETED != 0,
    })
}

/// Parses bytes produced by [`write_warts`].
pub fn parse_warts(bytes: &[u8]) -> Result<Vec<Traceroute>, WartsError> {
    parse_warts_with(bytes, &ParseOptions::strict()).map(|(t, _)| t)
}

/// [`parse_warts`] with explicit strictness.
///
/// In lenient mode a record whose *body* fails to decode is skipped (the
/// record length in the header lets the parser resynchronise at the next
/// record) and tallied, up to the error budget. Framing corruption — a bad
/// magic, an unknown record type, a truncated header, or a record length
/// overrunning the buffer — is always fatal because record boundaries can
/// no longer be trusted past it.
pub fn parse_warts_with(
    bytes: &[u8],
    opts: &ParseOptions,
) -> Result<(Vec<Traceroute>, ParseDiagnostics), WartsError> {
    let mut out = Vec::new();
    let header = |r: &mut ByteReader<'_>| {
        let magic = r.u16_be("magic")?;
        if magic != MAGIC {
            return Err(r.err_last(2, format!("bad magic {magic:#06x}")));
        }
        let ty = r.u16_be("record type")?;
        if ty != TYPE_TRACE {
            return Err(r.err_last(2, format!("unsupported record type {ty:#06x}")));
        }
        Ok(())
    };
    let diag = read_framed(bytes, opts, "warts", header, |(), body| {
        out.push(parse_trace_body(body)?);
        Ok(())
    })?;
    Ok((out, diag))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flatnet_asgraph::ingest::RecordLocation;

    fn sample() -> Vec<Traceroute> {
        vec![
            Traceroute {
                vp: VantagePoint { cloud: AsId(15169), city: 3 },
                dst: "10.0.0.1".parse().unwrap(),
                dst_asn: AsId(64512),
                hops: vec![
                    Hop { ttl: 1, addr: Some("1.0.0.1".parse().unwrap()), rtt_ms: Some(0.512) },
                    Hop { ttl: 2, addr: None, rtt_ms: None },
                    Hop { ttl: 3, addr: Some("10.0.0.1".parse().unwrap()), rtt_ms: Some(12.25) },
                ],
                completed: true,
            },
            Traceroute {
                vp: VantagePoint { cloud: AsId(8075), city: 0 },
                dst: "10.1.0.1".parse().unwrap(),
                dst_asn: AsId(64513),
                hops: vec![Hop { ttl: 1, addr: None, rtt_ms: None }],
                completed: false,
            },
        ]
    }

    #[test]
    fn roundtrips_exactly() {
        // RTTs quantize to microseconds, which our samples already are.
        let traces = sample();
        let bytes = write_warts(&traces);
        let back = parse_warts(&bytes).unwrap();
        assert_eq!(back, traces);
    }

    #[test]
    fn binary_is_compact_vs_text() {
        let traces = sample();
        let bin = write_warts(&traces).len();
        let text = crate::scamper::write_traces(&traces).len();
        assert!(bin < text, "binary {bin} vs text {text}");
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let mut bytes = write_warts(&sample());
        bytes[0] = 0xFF;
        assert!(parse_warts(&bytes).unwrap_err().message.contains("bad magic"));
        let bytes = write_warts(&sample());
        let err = parse_warts(&bytes[..bytes.len() - 2]).unwrap_err();
        assert!(err.message.contains("truncated"), "{err}");
        assert!(parse_warts(&[0x12]).is_err());
    }

    #[test]
    fn empty_roundtrip() {
        assert_eq!(parse_warts(&write_warts(&[])).unwrap(), Vec::new());
    }

    /// Clobbers the hop count of the first record (body offset 17: after
    /// four u32 fields and the flags byte) so the body fails to decode
    /// while its framing stays intact.
    fn corrupt_first_record_body(bytes: &mut [u8]) {
        bytes[8 + 17..8 + 19].copy_from_slice(&u16::MAX.to_be_bytes());
    }

    #[test]
    fn oversized_length_field_errors_cleanly() {
        let mut bytes = write_warts(&sample());
        bytes[4..8].copy_from_slice(&u32::MAX.to_be_bytes());
        let err = parse_warts(&bytes).unwrap_err();
        assert_eq!(err.offset, 4, "{err}");
        assert!(err.message.contains("corrupt length field"), "{err}");
    }

    #[test]
    fn body_errors_name_the_absolute_byte_that_failed() {
        let bytes = write_warts(&sample());
        // The first record: an 8-byte header, 19 bytes of fixed fields and
        // hop count, then 3 hops of 10, 2 and 10 bytes.
        let second = 8 + 19 + 22;
        let len = u32::from_be_bytes(bytes[second + 4..second + 8].try_into().unwrap()) as usize;
        let (start, end) = (second + 8, second + 8 + len);
        assert_eq!(end, bytes.len());
        // Its hop count claims more hops than its body holds: the refusal
        // is at the byte where the hops would begin.
        let mut bad = bytes.clone();
        bad[start + 17..start + 19].copy_from_slice(&u16::MAX.to_be_bytes());
        let err = parse_warts(&bad).unwrap_err();
        assert!(err.message.contains("hop count 65535"), "{err}");
        assert_eq!(err.offset, start + 19, "{err}");
        assert!((start..end).contains(&err.offset));
    }

    #[test]
    fn lenient_skips_bad_record_and_resyncs() {
        let traces = sample();
        let mut bytes = write_warts(&traces);
        corrupt_first_record_body(&mut bytes);
        // Strict fails on the bogus hop count.
        let err = parse_warts(&bytes).unwrap_err();
        assert!(err.message.contains("hop count 65535"), "{err}");
        // Lenient drops exactly that record.
        let (back, diag) = parse_warts_with(&bytes, &ParseOptions::lenient()).unwrap();
        assert_eq!(diag.dropped(), 1, "{:?}", diag.issues);
        assert_eq!(diag.records_ok, 1);
        assert_eq!(diag.issues[0].location, RecordLocation::Record(0));
        assert_eq!(back.len(), 1);
        assert_eq!(back[0], traces[1]);
    }

    #[test]
    fn lenient_framing_corruption_is_still_fatal() {
        let mut bytes = write_warts(&sample());
        bytes[0] = 0xFF;
        assert!(parse_warts_with(&bytes, &ParseOptions::lenient()).is_err());
        let mut bytes = write_warts(&sample());
        bytes[4..8].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(parse_warts_with(&bytes, &ParseOptions::lenient()).is_err());
    }

    #[test]
    fn lenient_budget_exhaustion_fails() {
        let mut bytes = write_warts(&sample());
        corrupt_first_record_body(&mut bytes);
        let err = parse_warts_with(&bytes, &ParseOptions::lenient().with_max_errors(0))
            .unwrap_err();
        assert!(err.message.contains("error budget exhausted"), "{err}");
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn arb_trace() -> impl Strategy<Value = Traceroute> {
            let hop = (any::<u8>(), proptest::option::of(any::<u32>()), proptest::option::of(0u32..10_000_000))
                .prop_map(|(ttl, addr, rtt_us)| Hop {
                    ttl,
                    addr: addr.map(Ipv4Addr::from),
                    rtt_ms: rtt_us.map(|us| us as f64 / 1000.0),
                });
            (
                any::<u32>(),
                0usize..1000,
                any::<u32>(),
                any::<u32>(),
                proptest::collection::vec(hop, 0..20),
                any::<bool>(),
            )
                .prop_map(|(cloud, city, dst, dst_asn, hops, completed)| Traceroute {
                    vp: VantagePoint { cloud: AsId(cloud), city },
                    dst: Ipv4Addr::from(dst),
                    dst_asn: AsId(dst_asn),
                    hops,
                    completed,
                })
        }

        proptest! {
            #[test]
            fn any_campaign_roundtrips(traces in proptest::collection::vec(arb_trace(), 0..8)) {
                let bytes = write_warts(&traces);
                let back = parse_warts(&bytes).unwrap();
                prop_assert_eq!(back, traces);
            }

            #[test]
            fn parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
                let _ = parse_warts(&bytes);
            }
        }
    }
}
