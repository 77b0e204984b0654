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
//! All integers are big-endian, as in the real format.

use crate::model::{Hop, Traceroute, VantagePoint};
use flatnet_asgraph::ingest::{ParseDiagnostics, ParseOptions, RecordLocation};
use flatnet_asgraph::AsId;
use std::fmt;
use std::net::Ipv4Addr;

const MAGIC: u16 = 0x1205;
const TYPE_TRACE: u16 = 0x0006;
const FLAG_COMPLETED: u8 = 0x01;
const HOP_HAS_ADDR: u8 = 0x01;
const HOP_HAS_RTT: u8 = 0x02;

/// Decode errors with byte offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WartsError {
    /// Byte offset the error was detected at.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for WartsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "warts parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for WartsError {}

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

struct Cur<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn err(&self, m: impl Into<String>) -> WartsError {
        WartsError { offset: self.pos, message: m.into() }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], WartsError> {
        if self.pos + n > self.data.len() {
            return Err(self.err(format!("truncated: wanted {n} bytes")));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, WartsError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, WartsError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, WartsError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }
}

/// Minimum encoded size of one hop (ttl + flags).
const HOP_MIN_BYTES: usize = 2;

fn parse_trace_body(body: &[u8], body_start: usize) -> Result<Traceroute, WartsError> {
    let mut b = Cur { data: body, pos: 0 };
    let cloud = AsId(b.u32().map_err(|e| off(e, body_start))?);
    let city = b.u32().map_err(|e| off(e, body_start))? as usize;
    let dst = Ipv4Addr::from(b.u32().map_err(|e| off(e, body_start))?);
    let dst_asn = AsId(b.u32().map_err(|e| off(e, body_start))?);
    let flags = b.u8().map_err(|e| off(e, body_start))?;
    let n_hops = b.u16().map_err(|e| off(e, body_start))?;
    let remaining = body.len() - b.pos;
    if n_hops as usize * HOP_MIN_BYTES > remaining {
        return Err(WartsError {
            offset: body_start + b.pos,
            message: format!(
                "hop count {n_hops} needs at least {} bytes but only {remaining} remain",
                n_hops as usize * HOP_MIN_BYTES
            ),
        });
    }
    let mut hops = Vec::with_capacity(n_hops as usize);
    for _ in 0..n_hops {
        let ttl = b.u8().map_err(|e| off(e, body_start))?;
        let hflags = b.u8().map_err(|e| off(e, body_start))?;
        let addr = if hflags & HOP_HAS_ADDR != 0 {
            Some(Ipv4Addr::from(b.u32().map_err(|e| off(e, body_start))?))
        } else {
            None
        };
        let rtt_ms = if hflags & HOP_HAS_RTT != 0 {
            Some(b.u32().map_err(|e| off(e, body_start))? as f64 / 1000.0)
        } else {
            None
        };
        hops.push(Hop { ttl, addr, rtt_ms });
    }
    if b.pos != body.len() {
        return Err(WartsError {
            offset: body_start + b.pos,
            message: "trailing bytes in trace record".into(),
        });
    }
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
    let mut c = Cur { data: bytes, pos: 0 };
    let mut out = Vec::new();
    let mut diag = ParseDiagnostics::new();
    let mut record_no = 0usize;
    while c.pos < bytes.len() {
        let magic = c.u16()?;
        if magic != MAGIC {
            return Err(WartsError {
                offset: c.pos - 2,
                message: format!("bad magic {magic:#06x}"),
            });
        }
        let ty = c.u16()?;
        if ty != TYPE_TRACE {
            return Err(c.err(format!("unsupported record type {ty:#06x}")));
        }
        let len_field_at = c.pos;
        let len = c.u32()? as usize;
        let remaining = bytes.len() - c.pos;
        if len > remaining {
            return Err(WartsError {
                offset: len_field_at,
                message: format!(
                    "record length {len} exceeds the {remaining} bytes remaining \
                     (truncated dump or corrupt length field)"
                ),
            });
        }
        let body_start = c.pos;
        let body = c.take(len)?;
        match parse_trace_body(body, body_start) {
            Ok(t) => {
                out.push(t);
                diag.record_ok();
            }
            Err(e) => diag.malformed(opts, RecordLocation::Record(record_no), e, |message| {
                WartsError { offset: body_start, message }
            })?,
        }
        record_no += 1;
    }
    diag.publish("warts");
    Ok((out, diag))
}

fn off(mut e: WartsError, base: usize) -> WartsError {
    e.offset += base;
    e
}

#[cfg(test)]
mod tests {
    use super::*;

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
