//! The as-rel reader's accept/reject set, pinned: for every corpus entry,
//! in strict mode, lenient mode and lenient mode with a budget of one,
//! the outcome (`Ok`/`Err`, link, record and conflict counts, every
//! diagnostic with its 1-based line number, every error message) must be
//! exactly what the line-at-a-time `reader.lines()` parser produced. The
//! transcript below was recorded from that parser, before the reader
//! moved to one reused line buffer; it is the specification, corner
//! cases included. Two rules have changed since, and only the lines they
//! touch: a dropped record's tally names its line once (`line N: …`, not
//! `line N: parse error on line N: …`), and a non-UTF-8 line is one
//! malformed record, which lenient mode skips, not a fatal error.

use flatnet_asgraph::caida::{parse_auto, parse_serial1_with, parse_serial2_with};
use flatnet_asgraph::{AsGraphBuilder, GraphError, ParseDiagnostics, ParseOptions};

type Parsed = Result<(AsGraphBuilder, ParseDiagnostics), GraphError>;

/// `(name, serial, input)`.
const CORPUS: &[(&str, u8, &[u8])] = &[
    (
        "formats.rs garbage corpus",
        2,
        b"# corpus\n1|2|-1|bgp\ntotally garbage\n2|3|-1|bgp\n4|5|nope|bgp\n2|4|0|bgp\n",
    ),
    ("dirty serial-1", 1, b"# comment\n1|2|-1\ngarbage line\n3|4|zero\n5|6|0\n7|7|0\n8|9|-1\n"),
    ("trim on line and fields", 1, b"  1 | 2 | -1  \n\t3|4|0\t\n   # indented comment\n \t \n"),
    ("unicode whitespace trims too", 1, "\u{a0}1|2|0\u{2003}\n3|\u{a0}4|-1\n".as_bytes()),
    ("plus sign and leading zeros", 1, b"+5|6|0\n007|8|-1\n0|00|0\n"),
    ("u32 range", 1, b"4294967295|1|0\n4294967296|1|0\n1|99999999999|0\n-1|2|0\n"),
    ("crlf", 2, b"# dos\r\n1|2|-1|bgp\r\n\r\n3|4|0|mlp\r\n"),
    ("no final newline", 1, b"1|2|-1\n3|4|0"),
    ("carriage return inside a field", 1, b"1|2\r|0\n3|4|0\r\r\n"),
    ("non-utf-8 line", 1, b"1|2|0\n\xff\xfe|3|0\n5|6|0\n"),
    ("non-utf-8 line after a bad one", 1, b"x|2|0\n1|2|0\n3|\xc3|0\n"),
    ("empty file", 1, b""),
    ("comments and blanks only", 2, b"# a\n\n   \n#b\n"),
    ("field counts", 1, b"1|2\n1\n1|2|0|bgp\n1|2|0|bgp|x\n|||\n1|2|0|\n"),
    ("field counts, serial-2", 2, b"1|2|0\n1|2|0|bgp|x\n1|2|0|\n1|2|0|bgp\n"),
    ("empty and signed fields", 1, b"|2|0\n1||0\n1|2|\n1|2|+0\n1|2|-1 x\n1|2|1\n"),
    ("self-loop", 2, b"5|5|0|bgp\n5|6|0|bgp\n"),
    ("redeclarations", 1, b"1|2|-1\n2|1|-1\n1|2|0\n1|2|-1\n2|1|0\n"),
];

fn render(r: Parsed) -> String {
    match r {
        Ok((b, d)) => {
            let issues: Vec<String> = d.issues.iter().map(|i| i.to_string()).collect();
            format!(
                "ok links={} conflicts={} records_ok={} dropped=[{}]",
                b.link_count(),
                b.conflicts().len(),
                d.records_ok,
                issues.join("; ")
            )
        }
        Err(e) => format!("err {e}"),
    }
}

fn transcript() -> String {
    let modes = [
        ("strict ", ParseOptions::strict()),
        ("lenient", ParseOptions::lenient()),
        ("budget1", ParseOptions::lenient().with_max_errors(1)),
    ];
    let mut out = String::new();
    for &(name, serial, input) in CORPUS {
        out.push_str(&format!("== {name} (serial-{serial})\n"));
        for (label, opts) in &modes {
            let parsed = match serial {
                1 => parse_serial1_with(input, opts),
                _ => parse_serial2_with(input, opts),
            };
            out.push_str(&format!("{label}: {}\n", render(parsed)));
        }
    }
    out
}

const RECORDED: &str = r#"== formats.rs garbage corpus (serial-2)
strict : err parse error on line 3: bad first ASN: invalid digit found in string
lenient: ok links=3 conflicts=0 records_ok=3 dropped=[line 3: bad first ASN: invalid digit found in string; line 5: unknown relationship code "nope"]
budget1: err parse error on line 5: error budget exhausted after 2 malformed records (max 1); last: line 5: unknown relationship code "nope"
== dirty serial-1 (serial-1)
strict : err parse error on line 3: bad first ASN: invalid digit found in string
lenient: ok links=3 conflicts=0 records_ok=3 dropped=[line 3: bad first ASN: invalid digit found in string; line 4: unknown relationship code "zero"; line 6: self-loop on AS7]
budget1: err parse error on line 4: error budget exhausted after 2 malformed records (max 1); last: line 4: unknown relationship code "zero"
== trim on line and fields (serial-1)
strict : ok links=2 conflicts=0 records_ok=2 dropped=[]
lenient: ok links=2 conflicts=0 records_ok=2 dropped=[]
budget1: ok links=2 conflicts=0 records_ok=2 dropped=[]
== unicode whitespace trims too (serial-1)
strict : ok links=2 conflicts=0 records_ok=2 dropped=[]
lenient: ok links=2 conflicts=0 records_ok=2 dropped=[]
budget1: ok links=2 conflicts=0 records_ok=2 dropped=[]
== plus sign and leading zeros (serial-1)
strict : err parse error on line 3: self-loop on AS0
lenient: ok links=2 conflicts=0 records_ok=2 dropped=[line 3: self-loop on AS0]
budget1: ok links=2 conflicts=0 records_ok=2 dropped=[line 3: self-loop on AS0]
== u32 range (serial-1)
strict : err parse error on line 2: bad first ASN: number too large to fit in target type
lenient: ok links=1 conflicts=0 records_ok=1 dropped=[line 2: bad first ASN: number too large to fit in target type; line 3: bad second ASN: number too large to fit in target type; line 4: bad first ASN: invalid digit found in string]
budget1: err parse error on line 3: error budget exhausted after 2 malformed records (max 1); last: line 3: bad second ASN: number too large to fit in target type
== crlf (serial-2)
strict : ok links=2 conflicts=0 records_ok=2 dropped=[]
lenient: ok links=2 conflicts=0 records_ok=2 dropped=[]
budget1: ok links=2 conflicts=0 records_ok=2 dropped=[]
== no final newline (serial-1)
strict : ok links=2 conflicts=0 records_ok=2 dropped=[]
lenient: ok links=2 conflicts=0 records_ok=2 dropped=[]
budget1: ok links=2 conflicts=0 records_ok=2 dropped=[]
== carriage return inside a field (serial-1)
strict : ok links=2 conflicts=0 records_ok=2 dropped=[]
lenient: ok links=2 conflicts=0 records_ok=2 dropped=[]
budget1: ok links=2 conflicts=0 records_ok=2 dropped=[]
== non-utf-8 line (serial-1)
strict : err parse error on line 2: not valid UTF-8
lenient: ok links=2 conflicts=0 records_ok=2 dropped=[line 2: not valid UTF-8]
budget1: ok links=2 conflicts=0 records_ok=2 dropped=[line 2: not valid UTF-8]
== non-utf-8 line after a bad one (serial-1)
strict : err parse error on line 1: bad first ASN: invalid digit found in string
lenient: ok links=1 conflicts=0 records_ok=1 dropped=[line 1: bad first ASN: invalid digit found in string; line 3: not valid UTF-8]
budget1: err parse error on line 3: error budget exhausted after 2 malformed records (max 1); last: line 3: not valid UTF-8
== empty file (serial-1)
strict : ok links=0 conflicts=0 records_ok=0 dropped=[]
lenient: ok links=0 conflicts=0 records_ok=0 dropped=[]
budget1: ok links=0 conflicts=0 records_ok=0 dropped=[]
== comments and blanks only (serial-2)
strict : ok links=0 conflicts=0 records_ok=0 dropped=[]
lenient: ok links=0 conflicts=0 records_ok=0 dropped=[]
budget1: ok links=0 conflicts=0 records_ok=0 dropped=[]
== field counts (serial-1)
strict : err parse error on line 1: missing relationship field
lenient: ok links=0 conflicts=0 records_ok=0 dropped=[line 1: missing relationship field; line 2: missing second AS field; line 3: expected 3 fields, got 4; line 4: expected 3 fields, got 5; line 5: bad first ASN: cannot parse integer from empty string; line 6: expected 3 fields, got 4]
budget1: err parse error on line 2: error budget exhausted after 2 malformed records (max 1); last: line 2: missing second AS field
== field counts, serial-2 (serial-2)
strict : err parse error on line 1: expected 4 fields, got 3
lenient: ok links=1 conflicts=0 records_ok=2 dropped=[line 1: expected 4 fields, got 3; line 2: expected 4 fields, got 5]
budget1: err parse error on line 2: error budget exhausted after 2 malformed records (max 1); last: line 2: expected 4 fields, got 5
== empty and signed fields (serial-1)
strict : err parse error on line 1: bad first ASN: cannot parse integer from empty string
lenient: ok links=0 conflicts=0 records_ok=0 dropped=[line 1: bad first ASN: cannot parse integer from empty string; line 2: bad second ASN: cannot parse integer from empty string; line 3: unknown relationship code ""; line 4: unknown relationship code "+0"; line 5: unknown relationship code "-1 x"; line 6: unknown relationship code "1"]
budget1: err parse error on line 2: error budget exhausted after 2 malformed records (max 1); last: line 2: bad second ASN: cannot parse integer from empty string
== self-loop (serial-2)
strict : err parse error on line 1: self-loop on AS5
lenient: ok links=1 conflicts=0 records_ok=1 dropped=[line 1: self-loop on AS5]
budget1: ok links=1 conflicts=0 records_ok=1 dropped=[line 1: self-loop on AS5]
== redeclarations (serial-1)
strict : ok links=1 conflicts=3 records_ok=5 dropped=[]
lenient: ok links=1 conflicts=3 records_ok=5 dropped=[]
budget1: ok links=1 conflicts=3 records_ok=5 dropped=[]
"#;

#[test]
fn outcomes_equal_the_recorded_transcript() {
    let got = transcript();
    assert!(got == RECORDED, "transcript differs from the recorded one; got:\n{got}");
}

#[test]
fn parse_auto_takes_the_serial_from_the_first_data_line() {
    let strict = ParseOptions::strict();
    // Whatever the explicit parser of the sniffed serial says, to the letter.
    for &(name, _, input) in CORPUS {
        let first = std::str::from_utf8(input)
            .unwrap_or("")
            .lines()
            .map(str::trim)
            .find(|l| !l.is_empty() && !l.starts_with('#'));
        let want = match first.map(|l| l.split('|').count()) {
            Some(4) => parse_serial2_with(input, &strict),
            _ => parse_serial1_with(input, &strict),
        };
        assert_eq!(render(parse_auto(input, &strict)), render(want), "{name}");
    }
    // A serial-2 file is not a serial-1 file with droppable lines: the
    // lenient parse must keep its links, not shed them.
    let (b, diag) = parse_auto(b"# s2\n1|2|-1|bgp\n2|3|0|mlp\n", &ParseOptions::lenient()).unwrap();
    assert_eq!((b.link_count(), diag.dropped()), (2, 0));
    // The first data line decides, even when it is the odd one out.
    let err = parse_auto(b"1|2|0\n1|3|0|bgp\n", &strict).unwrap_err();
    assert_eq!(err.to_string(), "parse error on line 2: expected 3 fields, got 4");
}

#[test]
fn a_file_without_data_lines_is_an_empty_serial_1_graph() {
    // Both loaders rely on this: nothing to sniff means serial-1, an
    // empty graph, and the health gate refusing it downstream.
    for input in [&b""[..], b"# only\n# comments\n\n", b"\n\n"] {
        let (b, diag) = parse_auto(input, &ParseOptions::strict()).expect("nothing to reject");
        assert_eq!((b.link_count(), diag.records_ok, diag.dropped()), (0, 0, 0));
        assert!(b.build().is_empty());
    }
}
