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

use crate::model::{Hop, Traceroute, VantagePoint};
use flatnet_asgraph::ingest::{ParseDiagnostics, ParseOptions, RecordLocation};
use flatnet_asgraph::AsId;

/// Serializes one traceroute.
pub fn write_trace(t: &Traceroute) -> String {
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

fn parse_header(rest: &str, lineno: usize) -> Result<Traceroute, String> {
    // AS15169/city3 to 10.0.0.1 asn 64512 complete
    let err = |m: &str| format!("line {lineno}: {m}");
    let mut parts = rest.split_whitespace();
    let vp = parts.next().ok_or_else(|| err("missing vp"))?;
    let (asn_s, city_s) = vp.split_once('/').ok_or_else(|| err("bad vp"))?;
    let cloud: u32 = asn_s
        .strip_prefix("AS")
        .ok_or_else(|| err("bad vp asn"))?
        .parse()
        .map_err(|_| err("bad vp asn"))?;
    let city: usize = city_s
        .strip_prefix("city")
        .ok_or_else(|| err("bad vp city"))?
        .parse()
        .map_err(|_| err("bad vp city"))?;
    if parts.next() != Some("to") {
        return Err(err("expected 'to'"));
    }
    let dst = parts
        .next()
        .ok_or_else(|| err("missing dst"))?
        .parse()
        .map_err(|_| err("bad dst"))?;
    if parts.next() != Some("asn") {
        return Err(err("expected 'asn'"));
    }
    let dst_asn: u32 = parts
        .next()
        .ok_or_else(|| err("missing asn"))?
        .parse()
        .map_err(|_| err("bad asn"))?;
    let completed = match parts.next() {
        Some("complete") => true,
        Some("incomplete") => false,
        _ => return Err(err("missing completion flag")),
    };
    Ok(Traceroute {
        vp: VantagePoint { cloud: AsId(cloud), city },
        dst,
        dst_asn: AsId(dst_asn),
        hops: Vec::new(),
        completed,
    })
}

fn parse_hop_line(line: &str, lineno: usize) -> Result<Hop, String> {
    let err = |m: &str| format!("line {lineno}: {m}");
    let mut parts = line.split_whitespace();
    let ttl: u8 = parts
        .next()
        .ok_or_else(|| err("missing ttl"))?
        .parse()
        .map_err(|_| err("bad ttl"))?;
    let addr = match parts.next().ok_or_else(|| err("missing addr"))? {
        "*" => None,
        a => Some(a.parse().map_err(|_| err("bad addr"))?),
    };
    let rtt_ms = match parts.next() {
        None => None,
        Some(v) => {
            if parts.next() != Some("ms") {
                return Err(err("expected 'ms' after RTT"));
            }
            Some(v.parse().map_err(|_| err("bad RTT"))?)
        }
    };
    Ok(Hop { ttl, addr, rtt_ms })
}

/// Parses the output of [`write_traces`].
pub fn parse_traces(text: &str) -> Result<Vec<Traceroute>, String> {
    parse_traces_with(text, &ParseOptions::strict()).map(|(t, _)| t)
}

/// [`parse_traces`] with explicit strictness.
///
/// In lenient mode an unparsable hop line is dropped (and tallied), and a
/// bad trace header drops the whole trace — including its following hop
/// lines, which have nothing valid to attach to — until the next header.
pub fn parse_traces_with(
    text: &str,
    opts: &ParseOptions,
) -> Result<(Vec<Traceroute>, ParseDiagnostics), String> {
    let mut out: Vec<Traceroute> = Vec::new();
    let mut diag = ParseDiagnostics::new();
    // True while inside a trace whose header was dropped: its hop lines are
    // collateral, discarded without counting against the error budget.
    let mut skipping_trace = false;
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let result: Result<(), String> = if let Some(rest) = line.strip_prefix("trace from ") {
            match parse_header(rest, lineno) {
                Ok(t) => {
                    out.push(t);
                    skipping_trace = false;
                    Ok(())
                }
                Err(e) => {
                    skipping_trace = true;
                    Err(e)
                }
            }
        } else if skipping_trace {
            continue;
        } else {
            match parse_hop_line(line, lineno) {
                Ok(h) => match out.last_mut() {
                    Some(t) => {
                        t.hops.push(h);
                        Ok(())
                    }
                    None => Err(format!("line {lineno}: hop before any trace header")),
                },
                Err(e) => Err(e),
            }
        };
        match result {
            Ok(()) => diag.record_ok(),
            Err(e) => diag.malformed(opts, RecordLocation::Line(lineno), e, |message| {
                format!("line {lineno}: {message}")
            })?,
        }
    }
    diag.publish("scamper");
    Ok((out, diag))
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
}
