//! Parsers and writers for CAIDA AS-relationship datasets.
//!
//! The paper builds its topologies from two CAIDA products:
//!
//! * **serial-1** (`20150901.as-rel.txt`): lines of the form
//!   `<as1>|<as2>|<rel>` where `rel` is `-1` (as1 is the *provider* of as2)
//!   or `0` (peering). Comment lines start with `#`.
//! * **serial-2** (`.as-rel2.txt`): same, with a fourth field naming the
//!   inference source (`bgp`, `mlp`, ...), i.e.
//!   `<as1>|<as2>|<rel>|<source>`. The September 2020 snapshot the paper
//!   uses also incorporates Ark traceroute data through the `mlp` source.
//!
//! Both parsers are tolerant of blank lines and comments, strict about
//! everything else, and report 1-based line numbers on error.

use crate::error::GraphError;
use crate::graph::{AsGraph, AsGraphBuilder, AsId, Relationship};
use crate::ingest::{ParseDiagnostics, ParseOptions, RecordLocation};
use std::io::BufRead;

/// One parsed relationship record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelRecord {
    /// For `P2c`, the provider; otherwise just the first AS on the line.
    pub a: AsId,
    /// For `P2c`, the customer; otherwise the second AS on the line.
    pub b: AsId,
    /// Relationship with `a` oriented as provider when `P2c`.
    pub rel: Relationship,
}

/// Parses one data line: already trimmed, neither empty nor a comment.
fn parse_rel_line(line: &str, lineno: usize, fields: usize) -> Result<RelRecord, GraphError> {
    let mut parts = line.split('|');
    let err = |message: String| GraphError::Parse { line: lineno, message };
    let a: u32 = parts
        .next()
        .ok_or_else(|| err("missing first AS field".into()))?
        .trim()
        .parse()
        .map_err(|e| err(format!("bad first ASN: {e}")))?;
    let b: u32 = parts
        .next()
        .ok_or_else(|| err("missing second AS field".into()))?
        .trim()
        .parse()
        .map_err(|e| err(format!("bad second ASN: {e}")))?;
    let rel_field = parts.next().ok_or_else(|| err("missing relationship field".into()))?.trim();
    let rel = match rel_field {
        "-1" => Relationship::P2c,
        "0" => Relationship::P2p,
        other => return Err(err(format!("unknown relationship code {other:?}"))),
    };
    // serial-2 carries a trailing source field; serial-1 must not.
    let extra = parts.count();
    let expected_extra = fields - 3;
    if extra != expected_extra {
        return Err(err(format!(
            "expected {fields} fields, got {}",
            3 + extra
        )));
    }
    if a == b {
        return Err(err(format!("self-loop on AS{a}")));
    }
    Ok(RelRecord { a: AsId(a), b: AsId(b), rel })
}

/// Parses a CAIDA **serial-1** AS-relationship file (3 fields per line).
pub fn parse_serial1<R: BufRead>(reader: R) -> Result<AsGraphBuilder, GraphError> {
    parse_with_fields(reader, Some(3), &ParseOptions::strict()).map(|(b, _)| b)
}

/// Parses a CAIDA **serial-2** AS-relationship file (4 fields per line).
pub fn parse_serial2<R: BufRead>(reader: R) -> Result<AsGraphBuilder, GraphError> {
    parse_with_fields(reader, Some(4), &ParseOptions::strict()).map(|(b, _)| b)
}

/// [`parse_serial1`] with explicit strictness; lenient mode skips
/// malformed lines (up to the error budget) and reports them in the
/// returned [`ParseDiagnostics`].
pub fn parse_serial1_with<R: BufRead>(
    reader: R,
    opts: &ParseOptions,
) -> Result<(AsGraphBuilder, ParseDiagnostics), GraphError> {
    parse_with_fields(reader, Some(3), opts)
}

/// [`parse_serial2`] with explicit strictness (see [`parse_serial1_with`]).
pub fn parse_serial2_with<R: BufRead>(
    reader: R,
    opts: &ParseOptions,
) -> Result<(AsGraphBuilder, ParseDiagnostics), GraphError> {
    parse_with_fields(reader, Some(4), opts)
}

/// Parses an as-rel file of either serial, told apart by the field count
/// of the first data line: four fields are serial-2, anything else is
/// held to serial-1. (Trying one format and falling back would let a
/// lenient parse of the wrong format "succeed" by dropping every line.)
/// A file with no data line at all parses as an empty serial-1 file.
pub fn parse_auto(
    bytes: &[u8],
    opts: &ParseOptions,
) -> Result<(AsGraphBuilder, ParseDiagnostics), GraphError> {
    parse_with_fields(bytes, None, opts)
}

/// The one as-rel reader. `fields` is the serial's field count, or `None`
/// to take it from the first data line ([`parse_auto`]). Lines are read
/// into one reused buffer, so a clean parse allocates for the builder's
/// links and nothing else. Records are appended to the builder as they
/// are read and settled into distinct, first-declared links in bulk (see
/// `AsGraphBuilder::settle`), so [`AsGraphBuilder::conflicts`] is complete
/// when this returns.
fn parse_with_fields<R: BufRead>(
    mut reader: R,
    mut fields: Option<usize>,
    opts: &ParseOptions,
) -> Result<(AsGraphBuilder, ParseDiagnostics), GraphError> {
    let mut b = AsGraphBuilder::new();
    let mut diag = ParseDiagnostics::new();
    let mut buf = String::new();
    let mut lineno = 0usize;
    loop {
        buf.clear();
        lineno += 1;
        // I/O errors (a line that is not UTF-8 among them) are not
        // per-record problems; always fatal.
        let read = reader
            .read_line(&mut buf)
            .map_err(|e| GraphError::Parse { line: lineno, message: e.to_string() })?;
        if read == 0 {
            break;
        }
        let line = buf.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields =
            *fields.get_or_insert_with(|| if line.split('|').count() == 4 { 4 } else { 3 });
        match parse_rel_line(line, lineno, fields) {
            Ok(rec) => {
                diag.record_ok();
                b.append(rec.a, rec.b, rec.rel)
                    .map_err(|message| GraphError::Parse { line: lineno, message })?;
            }
            Err(e) => diag.malformed(opts, RecordLocation::Line(lineno), e, |message| {
                GraphError::Parse { line: lineno, message }
            })?,
        }
    }
    b.finish_reading();
    diag.publish("caida");
    Ok((b, diag))
}

/// Serializes a graph in serial-1 format (stable, canonical order).
///
/// The output round-trips through [`parse_serial1`]. Isolated ASes cannot be
/// represented by the format and are dropped, matching CAIDA's own files.
pub fn write_serial1(g: &AsGraph) -> String {
    write_rel(g, "# flatnet serial-1 export\n", "")
}

/// Serializes a graph in serial-2 format with a uniform `bgp` source tag.
pub fn write_serial2(g: &AsGraph) -> String {
    write_rel(g, "# flatnet serial-2 export\n", "|bgp")
}

/// Bytes reserved per link: `a|b|rel` with two six-digit ASNs, plus the
/// source field and the newline. Longer ASNs grow the buffer as usual.
const RESERVE_PER_LINK: usize = 22;

/// The one as-rel writer; the serials differ in the header line and in
/// the source field that ends each record (none in serial-1).
fn write_rel(g: &AsGraph, header: &str, source_field: &str) -> String {
    let mut out = String::with_capacity(header.len() + g.edge_count() * RESERVE_PER_LINK);
    out.push_str(header);
    for (x, y, rel) in g.edges() {
        push_decimal(&mut out, g.asn(x).0);
        out.push('|');
        push_decimal(&mut out, g.asn(y).0);
        out.push_str(match rel {
            Relationship::P2c => "|-1",
            Relationship::P2p => "|0",
        });
        out.push_str(source_field);
        out.push('\n');
    }
    out
}

/// Appends `v` in decimal, as `Display` writes it, without going through
/// `fmt`.
fn push_decimal(out: &mut String, mut v: u32) {
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NeighborKind;

    const SERIAL1: &str = "\
# inferred AS relationships
# as1|as2|rel
1|2|-1
2|3|0

3|4|-1
";

    const SERIAL2: &str = "\
# serial-2
1|2|-1|bgp
2|3|0|mlp
3|4|-1|bgp
";

    #[test]
    fn parses_serial1() {
        let g = parse_serial1(SERIAL1.as_bytes()).unwrap().build();
        assert_eq!(g.len(), 4);
        assert_eq!(g.edge_count(), 3);
        let n1 = g.index_of(AsId(1)).unwrap();
        let n2 = g.index_of(AsId(2)).unwrap();
        assert_eq!(g.kind_between(n1, n2), Some(NeighborKind::Customer));
        let n3 = g.index_of(AsId(3)).unwrap();
        assert_eq!(g.kind_between(n2, n3), Some(NeighborKind::Peer));
    }

    #[test]
    fn parses_serial2() {
        let g = parse_serial2(SERIAL2.as_bytes()).unwrap().build();
        assert_eq!(g.len(), 4);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn serial1_rejects_serial2_lines() {
        let err = parse_serial1("1|2|-1|bgp\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn serial2_rejects_serial1_lines() {
        let err = parse_serial2("1|2|-1\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_bad_relationship_code() {
        let err = parse_serial1("1|2|7\n".as_bytes()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown relationship code"), "{msg}");
    }

    #[test]
    fn rejects_bad_asn() {
        let err = parse_serial1("x|2|0\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("bad first ASN"));
        let err = parse_serial1("1|y|0\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("bad second ASN"));
    }

    #[test]
    fn rejects_self_loop_with_line_number() {
        let err = parse_serial1("1|2|0\n5|5|0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));
    }

    #[test]
    fn roundtrips_serial1() {
        let g = parse_serial1(SERIAL1.as_bytes()).unwrap().build();
        let text = write_serial1(&g);
        let g2 = parse_serial1(text.as_bytes()).unwrap().build();
        assert!(g.edges().eq(g2.edges()));
    }

    #[test]
    fn roundtrips_serial2() {
        let g = parse_serial2(SERIAL2.as_bytes()).unwrap().build();
        let text = write_serial2(&g);
        let g2 = parse_serial2(text.as_bytes()).unwrap().build();
        assert!(g.edges().eq(g2.edges()));
    }

    #[test]
    fn writer_digits_match_display() {
        for v in [0, 1, 9, 10, 99, 100, 15169, 65535, 4_199_999_999, u32::MAX] {
            let mut s = String::new();
            push_decimal(&mut s, v);
            assert_eq!(s, v.to_string());
        }
    }

    #[test]
    fn whitespace_tolerant() {
        let g = parse_serial1("  1 | 2 | -1  \n".as_bytes()).unwrap().build();
        assert_eq!(g.edge_count(), 1);
    }

    const DIRTY: &str = "\
# comment
1|2|-1
garbage line
3|4|zero
5|6|0
7|7|0
8|9|-1
";

    #[test]
    fn lenient_skips_and_counts_garbage_lines() {
        let (b, diag) =
            parse_serial1_with(DIRTY.as_bytes(), &ParseOptions::lenient()).unwrap();
        let g = b.build();
        assert_eq!(diag.dropped(), 3, "{:?}", diag.issues);
        assert_eq!(diag.records_ok, 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(diag.issues[0].location, RecordLocation::Line(3));
        assert_eq!(diag.issues[1].location, RecordLocation::Line(4));
        assert_eq!(diag.issues[2].location, RecordLocation::Line(6));
        assert!(diag.issues[2].message.contains("self-loop"), "{}", diag.issues[2]);
    }

    #[test]
    fn strict_fails_at_first_garbage_line() {
        let err = parse_serial1_with(DIRTY.as_bytes(), &ParseOptions::strict()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 3, .. }), "{err}");
        // The convenience wrappers stay strict.
        assert!(parse_serial1(DIRTY.as_bytes()).is_err());
    }

    #[test]
    fn lenient_error_budget_is_enforced() {
        let opts = ParseOptions::lenient().with_max_errors(2);
        let err = parse_serial1_with(DIRTY.as_bytes(), &opts).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("error budget exhausted"), "{msg}");
        assert!(msg.contains("max 2"), "{msg}");
        // A budget that covers the damage succeeds.
        let opts = ParseOptions::lenient().with_max_errors(3);
        let (b, diag) = parse_serial1_with(DIRTY.as_bytes(), &opts).unwrap();
        assert_eq!(diag.dropped(), 3);
        assert_eq!(b.build().edge_count(), 3);
    }

    #[test]
    fn lenient_on_clean_input_reports_clean() {
        let (b, diag) =
            parse_serial2_with(SERIAL2.as_bytes(), &ParseOptions::lenient()).unwrap();
        assert!(diag.is_clean());
        assert_eq!(diag.records_ok, 3);
        assert_eq!(b.build().edge_count(), 3);
    }
}
