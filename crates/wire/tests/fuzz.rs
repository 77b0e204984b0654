//! The one fuzz/property target for the one codec: arbitrary bytes into
//! the request parser, the response reader and both JSON views never
//! panic and never allocate past the caps; what `Response::write_to`
//! frames, `read_response` reads back — one byte per `read`, fixed
//! length, chunked or close-delimited — and cut short at any offset it
//! is an error, never a hang or a short body; and the span view's
//! slices re-parse to exactly the subtrees the tree view holds.
//!
//! Generation is the vendored fixed-seed `proptest`, so every run
//! explores the same inputs and a failure reproduces.

use flatnet_testkit::{soup, Counting, Dribble, Target};
use flatnet_wire::http::{
    read_request, read_response, ChunkSink, Reply, Request, Response, CHUNK_FLUSH, MAX_BODY,
    MAX_HEADER_LINE, MAX_REQUEST_LINE,
};
use flatnet_wire::json::{self, Json};
use proptest::collection::vec;
use proptest::prelude::*;
use std::io::BufReader;

#[global_allocator]
static ALLOC: Counting = Counting;

// ---------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------

/// Start lines, header lines and body fragments that steer random
/// input past the first byte of each reader: hostile lengths, chunk
/// sizes, escapes, nesting.
const START_LINES: &[&[u8]] = &[
    b"GET /v1/reachability?origins=1,2,AS3&exclude=tier1 HTTP/1.1\r\n",
    b"POST /v1/whatif/leak HTTP/1.0\r\n",
    b"HTTP/1.1 200 OK\r\n",
    b"HTTP/1.1 503 Service Unavailable\r\n",
];
const HEADERS: &[&[u8]] = &[
    b"Content-Length: 99999999999999\r\n",
    b"Content-Length: 65536\r\n",
    // Under the response-body cap, so only growing as bytes arrive
    // keeps this (and the `bebc200` chunk below) from holding 200 MB.
    b"Content-Length: 200000000\r\n",
    b"Content-Length: 7\r\n",
    b"Transfer-Encoding: chunked\r\n",
    b"Connection: close\r\n",
    b"X-Flatnet-Trace-Id: 00000000feedface\r\n",
];
const FRAGMENTS: &[&[u8]] = &[
    b"\r\n",
    b"ffffffffffffffff\r\n",
    b"bebc200\r\n",
    b"7\r\n{\"a\":1}\r\n",
    b"0\r\n\r\n",
    b"%zz%4",
    b"{\"a\":[1,2.5,-3e2,\"x\\ny\\u00e9\"],\"b\":{\"c\":null,\"d\":true}}",
    b"[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[",
    b"]]]]]]]]]]]]]]]]]]]]",
    b"\"\\u12",
    b"\"\\",
    b"18446744073709551615",
    b"-9223372036854775808",
    b"99999999999999999999999999999999999999999999",
    b"{\"queries\":[{\"victim\":15169},",
];

/// Byte soup: maybe a start line, a few header lines and the blank
/// line (an out-of-range pick is "none"), then fragments and short random
/// runs.
fn http_soup() -> impl Strategy<Value = Vec<u8>> {
    let head = (0..=START_LINES.len(), vec(0..=HEADERS.len(), 0..4), any::<bool>());
    (head, soup(FRAGMENTS, 0..16, 16)).prop_map(|((start, headers, blank_line), rest)| {
        let mut out = START_LINES.get(start).map_or(Vec::new(), |line| line.to_vec());
        for pick in headers {
            out.extend_from_slice(HEADERS.get(pick).copied().unwrap_or(b""));
        }
        if blank_line {
            out.extend_from_slice(b"\r\n");
        }
        out.extend(rest);
        out
    })
}

/// The request parser, within a buffer, the largest body and two
/// request lines of what the input declares.
fn request_parser() -> Target<'static, Option<Request>, String> {
    let cap = |len| 8192 + MAX_BODY + 2 * MAX_REQUEST_LINE + 4 * len;
    Target::new(cap, |b| read_request(&mut BufReader::new(b)).map_err(|e| e.reason))
}

/// The response reader, over a 16-byte buffer fed at once or one byte
/// per `read`: a body grows only as its bytes arrive.
fn response_reader(dribble: bool) -> Target<'static, Reply, std::io::Error> {
    let cap = |len| 64 * 1024 + 4 * MAX_HEADER_LINE + 4 * len;
    Target::new(cap, move |b| {
        if dribble {
            read_response(&mut BufReader::with_capacity(16, Dribble(b)))
        } else {
            read_response(&mut BufReader::with_capacity(16, b))
        }
    })
}

/// Drives the recursive generators a flat strategy cannot (a 64-bit
/// LCG, high half out).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 32 ^ self.0 << 32
    }

    fn below(&mut self, n: u64) -> u64 {
        (self.next() >> 32) % n
    }
}

/// String contents, already escaped as JSON spells them.
const STRINGS: &[&str] =
    &["", "a", "origin", "a,]}\\\"b", "x\\ny", "back\\\\slash", "é✓", "\\u0001", "\\/"];

/// Appends one random JSON value to `out`, with random whitespace
/// between tokens.
fn gen_text(rng: &mut Rng, depth: usize, out: &mut String) {
    let ws = |rng: &mut Rng| ["", "", " ", "\n\t", "  \r\n"][rng.below(5) as usize];
    let string = |rng: &mut Rng| STRINGS[rng.below(STRINGS.len() as u64) as usize];
    match rng.below(if depth >= 6 { 6 } else { 8 }) {
        0 => out.push_str("null"),
        1 => out.push_str(["true", "false"][rng.below(2) as usize]),
        2 => out.push_str(&rng.next().to_string()),
        3 => out.push_str(&(rng.next() as i64).to_string()),
        // `{:?}` always prints a `.` or an exponent, so this stays a float.
        4 => out.push_str(&format!("{:?}", rng.next() as i64 as f64 / 1024.0)),
        5 => out.push_str(&format!("\"{}\"", string(rng))),
        kind => {
            let object = kind == 7;
            out.push(if object { '{' } else { '[' });
            for i in 0..rng.below(5) {
                out.push_str(if i > 0 { "," } else { "" });
                out.push_str(ws(rng));
                if object {
                    // The index keeps keys distinct, so lookups by key
                    // are unambiguous.
                    out.push_str(&format!("\"{}{i}\"{}:{}", string(rng), ws(rng), ws(rng)));
                }
                gen_text(rng, depth + 1, out);
                out.push_str(ws(rng));
            }
            out.push(if object { '}' } else { ']' });
        }
    }
}

/// Checks that the span view over `text` agrees with `tree` (the tree
/// view's reading of the same text), all the way down.
fn spans_match_tree(text: &str, tree: &Json) {
    assert_eq!(&json::parse(text).expect("a span re-parses"), tree, "span {text:?}");
    assert_eq!(json::value_end(text.as_bytes(), 0), Ok(text.len()), "span {text:?} has slack");
    match tree {
        Json::Array(items) => {
            let spans = json::array_items(text).expect("array spans");
            assert_eq!(spans.len(), items.len());
            for (span, item) in spans.iter().zip(items) {
                spans_match_tree(span, item);
            }
        }
        Json::Object(pairs) => {
            let spans = json::members(text).expect("member spans");
            assert_eq!(spans.len(), pairs.len());
            for ((raw_key, span), (key, item)) in spans.iter().zip(pairs) {
                assert_eq!(json::parse(&format!("\"{raw_key}\"")), Ok(Json::Str(key.clone())));
                assert_eq!(json::member(text, raw_key), Some(*span));
                spans_match_tree(span, item);
            }
        }
        _ => {}
    }
}

/// What `resp` puts on the wire.
fn wire_bytes(resp: Response) -> Vec<u8> {
    let mut out = Vec::new();
    resp.write_to(&mut out).expect("writing to a Vec");
    out
}

/// A response streaming the ASCII `body` in `piece`-byte pushes.
fn streamed(body: &str, piece: usize) -> Response {
    let body = body.to_string();
    let push_all = move |sink: &mut ChunkSink<'_>| {
        body.as_bytes().chunks(piece).try_for_each(|p| sink.push(std::str::from_utf8(p).unwrap()))
    };
    Response::stream(200, Box::new(push_all))
}

/// A body of `len` bytes cycling through `seed`'s text.
fn body_of(seed: &str, len: usize) -> String {
    seed.chars().cycle().take(len).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// No input panics a reader, and none makes one hold more heap than
    /// its caps allow — whatever lengths the input declares.
    #[test]
    fn arbitrary_bytes_never_panic_and_stay_within_the_caps(input in http_soup()) {
        let _ = request_parser().check(&input);
        for dribble in [false, true] {
            let _ = response_reader(dribble).check(&input);
        }

        let text = String::from_utf8_lossy(&input);
        let json_views = Target::new(|len| 4096 + 64 * len, |text: &[u8]| {
            let text = std::str::from_utf8(text).expect("lossy text is UTF-8");
            let _ = json::parse(text);
            let _ = json::members(text);
            let _ = json::array_items(text);
            let _ = json::member_u64(text, "victim");
            for pos in 0..input.len().min(8) {
                let _ = json::value_end(&input, pos);
            }
            Ok::<(), std::convert::Infallible>(())
        });
        let _ = json_views.check(text.as_bytes());
    }

    /// Every span the borrowed view returns re-parses to the subtree
    /// the tree view holds for it.
    #[test]
    fn spans_reparse_to_the_tree_views_subtrees(seed in any::<u64>()) {
        let mut text = String::new();
        gen_text(&mut Rng(seed), 0, &mut text);
        spans_match_tree(&text, &json::parse(&text).expect("generated text is JSON"));
    }

    /// Integer tokens survive the tree exactly, across both 64-bit
    /// ranges.
    #[test]
    fn integers_round_trip_losslessly(u in any::<u64>(), i in any::<i64>()) {
        for u in [u, 0, u64::MAX] {
            prop_assert_eq!(json::parse(&u.to_string()).unwrap().as_u64(), Some(u));
        }
        for i in [i, i64::MIN, i64::MAX] {
            let doc = json::parse(&format!(" [{i}] ")).unwrap();
            prop_assert_eq!(doc.as_array().unwrap()[0].as_i64(), Some(i));
        }
    }
}

// Byte-at-a-time transports and every-offset truncation are quadratic
// in the body, so these run the default 64 cases.
proptest! {
    /// What the writer frames, the reader reads back — through a
    /// transport that delivers one byte per `read`.
    #[test]
    fn written_responses_read_back_through_a_dribbling_transport(
        seed in "[a-z0-9{}\":, ]{1,40}",
        len in 0usize..(2 * CHUNK_FLUSH + 500),
        piece in 1usize..5000,
        trace_id in any::<u64>(),
    ) {
        let body = body_of(&seed, len);

        let mut fixed = Response::json(503, body.clone());
        fixed.retry_after = Some(7);
        fixed.trace_id = Some(trace_id);
        fixed.close = false;
        let bytes = wire_bytes(fixed);
        let reply = read_response(&mut BufReader::new(Dribble(&bytes))).expect("fixed-length");
        prop_assert_eq!(reply.status, 503);
        prop_assert_eq!(&reply.body, &body);
        prop_assert!(!reply.close);
        prop_assert_eq!(reply.header("Retry-After"), Some("7"));
        let id = format!("{trace_id:016x}");
        prop_assert_eq!(reply.header("x-flatnet-trace-id"), Some(id.as_str()));

        // Two chunked responses back to back: the reader must stop at
        // the first one's last byte.
        let mut first = streamed(&body, piece);
        first.close = false;
        let mut bytes = wire_bytes(first);
        bytes.extend(wire_bytes(streamed("second", 3)));
        let mut transport = BufReader::new(Dribble(&bytes));
        let reply = read_response(&mut transport).expect("chunked");
        prop_assert_eq!((reply.status, &reply.body, reply.close), (200, &body, false));
        prop_assert_eq!(reply.header("Transfer-Encoding"), Some("chunked"));
        let reply = read_response(&mut transport).expect("pipelined chunked");
        prop_assert_eq!((reply.body.as_str(), reply.close), ("second", true));

        let mut http10 = streamed(&body, piece);
        http10.chunked_ok = false;
        let bytes = wire_bytes(http10);
        let reply = read_response(&mut BufReader::new(Dribble(&bytes))).expect("close-delimited");
        prop_assert_eq!((&reply.body, reply.close), (&body, true));
    }

    /// A length-framed response cut short at any offset is an error.
    #[test]
    fn truncation_at_every_offset_is_an_error(
        seed in "[a-z0-9{}\":, ]{1,40}",
        len in 0usize..300,
        piece in 1usize..64,
    ) {
        let body = body_of(&seed, len);
        let fixed = wire_bytes(Response::json(200, body.clone()));
        let chunked = wire_bytes(streamed(&body, piece));
        for bytes in [fixed, chunked] {
            let whole = response_reader(false).check(&bytes).expect("whole");
            prop_assert_eq!(whole.body, &body[..]);
            for dribble in [false, true] {
                let read = response_reader(dribble).truncations(&bytes);
                prop_assert!(read.is_empty(), "cuts at {read:?} read as whole");
            }
        }
    }
}

/// Nesting past the cap is an error in both views at any size — the
/// tree view must not recurse its way off the stack first.
#[test]
fn runaway_nesting_is_an_error_not_a_stack_overflow() {
    for open in ["[", "{\"a\":"] {
        let deep = open.repeat(200_000);
        assert!(json::parse(&deep).is_err());
        assert!(json::value_end(deep.as_bytes(), 0).is_err());
        assert!(json::members(&format!("{{\"k\":{deep}")).is_err());
    }
}
