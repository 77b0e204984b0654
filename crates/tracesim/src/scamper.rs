//! A scamper-like plain-text traceroute format.
//!
//! The paper collects ICMP traceroutes with Scamper (§4.1). We serialize
//! to a compact text form modeled on `scamper -O text` output so campaigns
//! can be dumped, diffed, and re-loaded:
//!
//! ```text
//! trace from AS15169/city3 to 10.0.0.1 asn 64512 complete
//!  1 1.0.0.1 0.512 ms
//!  2 *
//!  3 10.0.0.1 12.250 ms
//! ```
//!
//! The reader goes through `flatnet_asgraph::ingest::read_lines`, so it
//! takes the same lines as every other text format: leading white space
//! and `#` lines are skipped, and a non-UTF-8 line is one malformed record.

use crate::model::{Hop, Traceroute, VantagePoint};
use flatnet_asgraph::ingest::{read_lines, BadLine, NotUtf8, ParseDiagnostics, ParseOptions};
use flatnet_asgraph::AsId;

/// Serializes one traceroute.
pub(crate) fn write_trace(t: &Traceroute) -> String {
    let mut out = format!(
        "trace from AS{}/city{} to {} asn {} {}\n",
        t.vp.cloud.0,
        t.vp.city,
        t.dst,
        t.dst_asn.0,
        if t.completed { "complete" } else { "incomplete" }
    );
    for h in &t.hops {
        match (h.addr, h.rtt_ms) {
            (Some(a), Some(rtt)) => out.push_str(&format!("{:2} {} {:.3} ms\n", h.ttl, a, rtt)),
            (Some(a), None) => out.push_str(&format!("{:2} {}\n", h.ttl, a)),
            (None, _) => out.push_str(&format!("{:2} *\n", h.ttl)),
        }
    }
    out
}

/// Serializes a campaign (traces separated by their headers).
pub fn write_traces(traces: &[Traceroute]) -> String {
    traces.iter().map(write_trace).collect()
}

fn parse_header(rest: &str) -> Result<Traceroute, &'static str> {
    // AS15169/city3 to 10.0.0.1 asn 64512 complete
    let mut parts = rest.split_whitespace();
    let vp = parts.next().ok_or("missing vp")?;
    let (asn_s, city_s) = vp.split_once('/').ok_or("bad vp")?;
    let cloud: u32 = asn_s
        .strip_prefix("AS")
        .ok_or("bad vp asn")?
        .parse()
        .map_err(|_| "bad vp asn")?;
    let city: usize = city_s
        .strip_prefix("city")
        .ok_or("bad vp city")?
        .parse()
        .map_err(|_| "bad vp city")?;
    if parts.next() != Some("to") {
        return Err("expected 'to'");
    }
    let dst = parts.next().ok_or("missing dst")?.parse().map_err(|_| "bad dst")?;
    if parts.next() != Some("asn") {
        return Err("expected 'asn'");
    }
    let dst_asn: u32 = parts.next().ok_or("missing asn")?.parse().map_err(|_| "bad asn")?;
    let completed = match parts.next() {
        Some("complete") => true,
        Some("incomplete") => false,
        _ => return Err("missing completion flag"),
    };
    Ok(Traceroute {
        vp: VantagePoint { cloud: AsId(cloud), city },
        dst,
        dst_asn: AsId(dst_asn),
        hops: Vec::new(),
        completed,
    })
}

fn parse_hop_line(line: &str) -> Result<Hop, &'static str> {
    let mut parts = line.split_whitespace();
    let ttl: u8 = parts.next().ok_or("missing ttl")?.parse().map_err(|_| "bad ttl")?;
    let addr = match parts.next().ok_or("missing addr")? {
        "*" => None,
        a => Some(a.parse().map_err(|_| "bad addr")?),
    };
    let rtt_ms = match parts.next() {
        None => None,
        Some(v) => {
            if parts.next() != Some("ms") {
                return Err("expected 'ms' after RTT");
            }
            Some(v.parse().map_err(|_| "bad RTT")?)
        }
    };
    Ok(Hop { ttl, addr, rtt_ms })
}

/// Parses the output of [`write_traces`]: the file's bytes, or its text.
pub fn parse_traces(text: impl AsRef<[u8]>) -> Result<Vec<Traceroute>, String> {
    parse_traces_with(text, &ParseOptions::strict()).map(|(t, _)| t)
}

/// [`parse_traces`] with explicit strictness.
///
/// In lenient mode an unparsable hop line is dropped (and tallied), and a
/// bad trace header, one that is not UTF-8 too, drops the whole trace —
/// including its following hop lines, which have nothing valid to attach
/// to — until the next header.
pub fn parse_traces_with(
    text: impl AsRef<[u8]>,
    opts: &ParseOptions,
) -> Result<(Vec<Traceroute>, ParseDiagnostics), String> {
    let mut out: Vec<Traceroute> = Vec::new();
    // True while inside a trace whose header was dropped: its hop lines are
    // collateral, discarded without counting against the error budget.
    let mut skipping_trace = false;
    let diag = read_lines(text.as_ref(), opts, "scamper", |line| {
        // A header that is not UTF-8 still opens a trace, and drops it.
        let head = line.unwrap_or_else(|NotUtf8(head)| head);
        if let Some(rest) = head.strip_prefix("trace from ") {
            skipping_trace = true;
            line?;
            out.push(parse_header(rest)?);
            skipping_trace = false;
        } else if skipping_trace {
            return Err(BadLine::Collateral);
        } else {
            let hop = parse_hop_line(line?)?;
            out.last_mut().ok_or("hop before any trace header")?.hops.push(hop);
        }
        Ok(())
    })
    .map_err(|e| e.to_string())?;
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
    fn roundtrips() {
        let traces = sample();
        let text = write_traces(&traces);
        let parsed = parse_traces(&text).unwrap();
        assert_eq!(parsed, traces);
    }

    #[test]
    fn renders_stars_for_losses() {
        let text = write_trace(&sample()[0]);
        assert!(text.contains(" 2 *\n"), "{text}");
        assert!(text.contains("complete"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_traces(" 1 1.2.3.4\n").is_err()); // hop before header
        assert!(parse_traces("trace from X to 1.2.3.4 asn 5 complete\n").is_err());
        assert!(parse_traces("trace from AS1/city0 to nope asn 5 complete\n").is_err());
        assert!(parse_traces("trace from AS1/city0 to 1.2.3.4 asn 5 maybe\n").is_err());
        let bad_hop = "trace from AS1/city0 to 1.2.3.4 asn 5 complete\n x 1.2.3.4\n";
        assert!(parse_traces(bad_hop).is_err());
        // RTT must be followed by the 'ms' unit, and be numeric.
        let bad_rtt = "trace from AS1/city0 to 1.2.3.4 asn 5 complete\n 1 1.2.3.4 5.0\n";
        assert!(parse_traces(bad_rtt).is_err());
        let bad_rtt2 = "trace from AS1/city0 to 1.2.3.4 asn 5 complete\n 1 1.2.3.4 x ms\n";
        assert!(parse_traces(bad_rtt2).is_err());
    }

    #[test]
    fn empty_input() {
        assert_eq!(parse_traces("").unwrap(), Vec::new());
    }

    const DIRTY: &str = "\
trace from AS1/city0 to 1.2.3.4 asn 5 complete
 1 1.0.0.1 0.500 ms
 x not-a-hop
 2 1.2.3.4 1.000 ms
trace from BROKEN header line
 1 9.9.9.9 1.000 ms
trace from AS2/city1 to 5.6.7.8 asn 9 incomplete
 1 *
";

    #[test]
    fn lenient_drops_bad_hops_and_headerless_traces() {
        let (traces, diag) = parse_traces_with(DIRTY, &ParseOptions::lenient()).unwrap();
        // The bad hop line and the broken header are counted; the hop under
        // the broken header is collateral and not double-counted.
        assert_eq!(diag.dropped(), 2, "{:?}", diag.issues);
        assert_eq!(diag.issues[0].location, RecordLocation::Line(3));
        assert!(diag.issues[0].message.contains("bad ttl"), "{}", diag.issues[0]);
        assert_eq!(diag.issues[1].location, RecordLocation::Line(5));
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].hops.len(), 2);
        assert_eq!(traces[0].hops[1].ttl, 2);
        // The trace after the broken one parses normally.
        assert_eq!(traces[1].vp.cloud, AsId(2));
        assert_eq!(traces[1].hops.len(), 1);
    }

    #[test]
    fn strict_fails_at_first_bad_line() {
        let err = parse_traces_with(DIRTY, &ParseOptions::strict()).unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
    }

    #[test]
    fn lenient_budget_exhaustion_fails() {
        let err =
            parse_traces_with(DIRTY, &ParseOptions::lenient().with_max_errors(1)).unwrap_err();
        assert!(err.contains("error budget exhausted"), "{err}");
    }

    #[test]
    fn a_lenient_tally_names_its_line_once() {
        let (_, diag) = parse_traces_with(DIRTY, &ParseOptions::lenient()).unwrap();
        let issues: Vec<String> = diag.issues.iter().map(|i| i.to_string()).collect();
        assert_eq!(issues, ["line 3: bad ttl", "line 5: bad vp"]);
        let err =
            parse_traces_with(DIRTY, &ParseOptions::lenient().with_max_errors(1)).unwrap_err();
        assert_eq!(
            err,
            "line 5: error budget exhausted after 2 malformed records (max 1); last: line 5: bad vp"
        );
    }

    #[test]
    fn comments_and_indentation_follow_the_one_text_rule() {
        let text = "# campaign 1\n  trace from AS1/city0 to 1.2.3.4 asn 5 complete\n# hop\n 1 *\n";
        let traces = parse_traces(text).unwrap();
        assert_eq!((traces.len(), traces[0].hops.len()), (1, 1));
        let (traces, diag) = parse_traces_with(b"\xff\n", &ParseOptions::lenient()).unwrap();
        assert!(traces.is_empty());
        assert_eq!(diag.issues[0].to_string(), "line 1: not valid UTF-8");
    }

    #[test]
    fn a_header_that_is_not_utf8_drops_its_trace_and_hops() {
        let text: &[u8] = b"trace from AS1/city0 to 1.2.3.4 asn 5 complete\n 1 *\n\
trace from AS2/city\xff1 to 5.6.7.8 asn 9 complete\n 1 10.0.0.1 1.0 ms\n 2 \xfe\n\
trace from AS3/city0 to 9.9.9.9 asn 7 incomplete\n 1 *\n 2 *\n";
        let (traces, diag) = parse_traces_with(text, &ParseOptions::lenient()).unwrap();
        let hops: Vec<(u32, usize)> = traces.iter().map(|t| (t.vp.cloud.0, t.hops.len())).collect();
        assert_eq!(hops, [(1, 1), (3, 2)]);
        // Only the header is tallied: both hop lines under it, the one
        // that is not UTF-8 too, fall with it.
        let issues: Vec<String> = diag.issues.iter().map(|i| i.to_string()).collect();
        assert_eq!(issues, ["line 3: not valid UTF-8"]);
        // A hop line that is not UTF-8 under a good header is its own drop.
        let text: &[u8] = b"trace from AS1/city0 to 1.2.3.4 asn 5 complete\n 1 \xff\n 2 *\n";
        let (traces, diag) = parse_traces_with(text, &ParseOptions::lenient()).unwrap();
        assert_eq!((traces[0].hops.len(), diag.dropped()), (1, 1));
    }
}
