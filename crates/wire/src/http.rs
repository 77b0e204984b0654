//! The strict, bounded HTTP/1.1 codec: the request parser and response
//! writer the daemons face the network with, and the response reader
//! every client in the workspace reads them back through.
//!
//! Both directions treat every input as hostile, in the same spirit as
//! the lenient-mode file ingestion parsers: every dimension of a
//! message is length-capped *before* any allocation grows to match it.
//! On the request side a violation maps to a definite 4xx status; on
//! the response side ([`read_response`]) to an `InvalidData` error a
//! caller treats like any other transport failure. Neither panics and
//! neither reads without bound.
//!
//! Connections are persistent by default: HTTP/1.1 requests keep the
//! socket open unless the client sends `Connection: close` (HTTP/1.0
//! closes unless the client opts in with `Connection: keep-alive`), and
//! the response writer emits the negotiated `Connection` header rather
//! than unconditionally closing. Because [`read_request`] consumes
//! exactly one request's bytes and never reads ahead, pipelined
//! requests queued behind the current one survive intact in the
//! connection's `BufRead` and are parsed on the next call. Streamed
//! bodies use chunked transfer-encoding on HTTP/1.1 (see [`Body`] and
//! [`ChunkSink`]); chunked *request* bodies and HTTP/2 remain
//! non-goals.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Cap on the request line (`GET /path?query HTTP/1.1`). Sized so a
/// full 1024-origin `origins=` list of 10-digit ASNs still fits — the
/// serve engine's batch cap is the binding limit, not the transport's.
pub const MAX_REQUEST_LINE: usize = 16 * 1024;
/// Cap on one header line (and on a response's status and chunk-size
/// lines).
pub const MAX_HEADER_LINE: usize = 1024;
/// Cap on the number of headers (and of chunked-body trailer lines).
pub(crate) const MAX_HEADERS: usize = 64;
/// Cap on a declared request body.
pub const MAX_BODY: usize = 64 * 1024;
/// Cap on a response body as [`read_response`] accepts it, declared or
/// accumulated. A `detail=full` batch at paper scale is a few MB.
pub(crate) const MAX_RESPONSE_BODY: usize = 256 * 1024 * 1024;

/// Request methods the daemon understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET`
    Get,
    /// `POST`
    Post,
}

/// One parsed, validated request.
#[derive(Debug)]
pub struct Request {
    /// The method.
    pub method: Method,
    /// Percent-decoded path (no query string).
    pub path: String,
    /// Percent-decoded query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Header name/value pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// The request declared `HTTP/1.0` (affects keep-alive default and
    /// forbids chunked response encoding).
    pub http10: bool,
}

impl Request {
    /// First value of query parameter `name`.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// First value of header `name` (case-insensitive).
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers.iter().find(|(k, _)| *k == lower).map(|(_, v)| v.as_str())
    }

    /// The trace id a router (or client) propagated in
    /// `X-Flatnet-Trace-Id`, for the receiving hop to adopt so one id
    /// stitches both hops' traces. Garbage and zero read as absent.
    pub fn trace_id(&self) -> Option<u64> {
        let hex = self.header("x-flatnet-trace-id")?;
        u64::from_str_radix(hex.trim(), 16).ok().filter(|&id| id != 0)
    }

    /// The query's origin tokens — `origins=a,b,c` (canonical batch
    /// form) and/or `origin=a` (single alias; also accepts a comma
    /// list), every occurrence, comma-split, empties dropped — plus
    /// whether `origins=` appeared (which forces the batch response
    /// shape even for one origin).
    pub fn origin_tokens(&self) -> (Vec<&str>, bool) {
        let mut tokens = Vec::new();
        let mut plural = false;
        for (k, v) in &self.query {
            if k == "origins" || k == "origin" {
                plural |= k == "origins";
                tokens.extend(v.split(',').filter(|s| !s.is_empty()));
            }
        }
        (tokens, plural)
    }

    /// Keep-alive negotiation: HTTP/1.1 persists unless the client says
    /// `Connection: close`; HTTP/1.0 closes unless the client says
    /// `Connection: keep-alive`. The header is parsed as a token list.
    pub fn wants_keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) => {
                let has = |tok: &str| v.split(',').any(|t| t.trim().eq_ignore_ascii_case(tok));
                if has("close") {
                    false
                } else if has("keep-alive") {
                    true
                } else {
                    !self.http10
                }
            }
            None => !self.http10,
        }
    }
}

/// A request that could not be parsed, carrying the status to answer
/// with. `status == 0` means the peer closed before sending anything —
/// don't answer at all.
#[derive(Debug)]
pub struct ParseError {
    /// HTTP status to respond with (0 = silent close).
    pub status: u16,
    /// Human-readable reason, echoed in the error body.
    pub reason: String,
}

impl ParseError {
    fn new(status: u16, reason: impl Into<String>) -> Self {
        ParseError { status, reason: reason.into() }
    }

    /// Whether any response should be written at all.
    pub fn wants_response(&self) -> bool {
        self.status != 0
    }

    /// The error-envelope `kind` for this failure's status.
    pub fn kind(&self) -> &'static str {
        match self.status {
            400 => "bad-request",
            405 => "method",
            408 => "timeout",
            413 => "payload",
            414 => "uri-too-long",
            431 => "headers",
            _ => "internal",
        }
    }
}

/// Parses one `123` / `AS123` origin token.
pub fn parse_asn(raw: &str) -> Option<u32> {
    raw.strip_prefix("AS").or_else(|| raw.strip_prefix("as")).unwrap_or(raw).parse().ok()
}

/// Maps a socket read error to the right parse error: a timed-out read
/// (the per-connection io timeout from `ServeConfig::io_timeout_ms`,
/// surfaced by the OS as `TimedOut` or `WouldBlock`) earns an explicit
/// 408 so a slow client learns why it was cut off; any other transport
/// error (reset, broken pipe) means the peer is gone — answering would
/// just fail again, so close silently (status 0).
fn read_error(e: std::io::Error) -> ParseError {
    use std::io::ErrorKind;
    match e.kind() {
        ErrorKind::TimedOut | ErrorKind::WouldBlock => ParseError::new(408, "read timed out"),
        _ => ParseError::new(0, format!("read failed: {e}")),
    }
}

/// The request parser's reading of a [`read_line_limited`] failure;
/// `too_long` is the status for an over-long line (414 for the request
/// line, 431 for a header).
fn line_error(e: std::io::Error, too_long: u16) -> ParseError {
    match e.kind() {
        std::io::ErrorKind::InvalidData => ParseError::new(too_long, "line too long"),
        std::io::ErrorKind::UnexpectedEof => ParseError::new(400, "truncated request"),
        _ => read_error(e),
    }
}

/// Reads one line (terminated by `\n`), enforcing `max` bytes *including*
/// the terminator. Returns `None` on immediate EOF (peer closed); a line
/// past `max` is `InvalidData` and a peer that closes mid-line
/// `UnexpectedEof`, which no socket read reports by itself.
fn read_line_limited<R: BufRead>(r: &mut R, max: usize) -> std::io::Result<Option<Vec<u8>>> {
    let mut line = Vec::new();
    loop {
        let buf = r.fill_buf()?;
        if buf.is_empty() {
            if line.is_empty() {
                return Ok(None);
            }
            return Err(eof("connection closed mid-line"));
        }
        let remaining = max.saturating_sub(line.len());
        match buf.iter().take(remaining).position(|&b| b == b'\n') {
            Some(i) => {
                line.extend_from_slice(&buf[..i]);
                r.consume(i + 1);
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Ok(Some(line));
            }
            None => {
                if buf.len() >= remaining {
                    return Err(bad_data("line too long"));
                }
                line.extend_from_slice(buf);
                let used = buf.len();
                r.consume(used);
            }
        }
    }
}

/// Percent-decodes `s`, with `+` as space (query-string convention).
fn percent_decode(s: &str) -> Result<String, ()> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hi = bytes.get(i + 1).and_then(|b| (*b as char).to_digit(16)).ok_or(())?;
                let lo = bytes.get(i + 2).and_then(|b| (*b as char).to_digit(16)).ok_or(())?;
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| ())
}

/// Parses one request from `r`. `Ok(None)` means the peer closed without
/// sending anything (not an error, nothing to answer).
pub fn read_request<R: BufRead>(r: &mut R) -> Result<Option<Request>, ParseError> {
    // Request line. A too-long line gets 414 (it is almost always a
    // runaway URI).
    let Some(line) =
        read_line_limited(r, MAX_REQUEST_LINE).map_err(|e| line_error(e, 414))?
    else {
        return Ok(None);
    };
    let line = String::from_utf8(line)
        .map_err(|_| ParseError::new(400, "request line is not UTF-8"))?;
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let method_raw = parts.next().ok_or_else(|| ParseError::new(400, "empty request line"))?;
    let target = parts.next().ok_or_else(|| ParseError::new(400, "missing request target"))?;
    let version = parts.next().ok_or_else(|| ParseError::new(400, "missing HTTP version"))?;
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(ParseError::new(400, "malformed request line"));
    }
    let http10 = version == "HTTP/1.0";
    if !target.starts_with('/') {
        return Err(ParseError::new(400, "request target must be absolute"));
    }
    // Only a *well-formed* request line with a real-but-unsupported
    // method earns a 405; anything shapeless stays a plain 400.
    let method = match method_raw {
        "GET" => Method::Get,
        "POST" => Method::Post,
        other if !other.is_empty() && other.chars().all(|c| c.is_ascii_uppercase()) => {
            return Err(ParseError::new(405, format!("method {other} not supported")));
        }
        _ => return Err(ParseError::new(400, "malformed request line")),
    };

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path)
        .map_err(|()| ParseError::new(400, "bad percent-encoding in path"))?;
    let mut query = Vec::new();
    if let Some(q) = raw_query {
        for pair in q.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            let k = percent_decode(k)
                .map_err(|()| ParseError::new(400, "bad percent-encoding in query"))?;
            let v = percent_decode(v)
                .map_err(|()| ParseError::new(400, "bad percent-encoding in query"))?;
            query.push((k, v));
        }
    }

    // Headers.
    let mut headers = Vec::new();
    loop {
        let line = read_line_limited(r, MAX_HEADER_LINE)
            .map_err(|e| line_error(e, 431))?
            .ok_or_else(|| ParseError::new(400, "truncated headers"))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ParseError::new(431, "too many headers"));
        }
        let line = String::from_utf8(line)
            .map_err(|_| ParseError::new(400, "header is not UTF-8"))?;
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError::new(400, "malformed header (missing ':')"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(ParseError::new(400, "malformed header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    // Body (only when declared; chunked encoding is not supported).
    let mut body = Vec::new();
    let content_length = headers.iter().find(|(k, _)| k == "content-length");
    if let Some((_, v)) = content_length {
        let len: usize =
            v.parse().map_err(|_| ParseError::new(400, "bad Content-Length"))?;
        if len > MAX_BODY {
            return Err(ParseError::new(413, "body too large"));
        }
        body.resize(len, 0);
        r.read_exact(&mut body).map_err(|e| {
            use std::io::ErrorKind;
            match e.kind() {
                // A client that declared a body and then stalled gets the
                // same 408 as one that stalled on the request line.
                ErrorKind::TimedOut | ErrorKind::WouldBlock => {
                    ParseError::new(408, "read timed out")
                }
                _ => ParseError::new(400, "truncated body"),
            }
        })?;
    } else if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(ParseError::new(400, "chunked encoding not supported"));
    }

    Ok(Some(Request { method, path, query, headers, body, http10 }))
}

/// Flush threshold for [`ChunkSink`]: buffered output is written to the
/// socket in chunks of roughly this size, so a multi-MB reach set never
/// materializes as one contiguous body.
pub const CHUNK_FLUSH: usize = 32 * 1024;

/// A streaming body writer handed to [`Body::Stream`] producers.
///
/// The producer appends text with [`ChunkSink::push`]; the sink buffers
/// up to [`CHUNK_FLUSH`] bytes and writes each full buffer as one
/// `Transfer-Encoding: chunked` frame (or raw bytes on the HTTP/1.0
/// close-delimited fallback). The response writer finishes the stream
/// with the terminal `0\r\n\r\n` frame.
pub struct ChunkSink<'a> {
    w: &'a mut dyn Write,
    buf: String,
    chunked: bool,
}

impl<'a> ChunkSink<'a> {
    fn new(w: &'a mut dyn Write, chunked: bool) -> Self {
        ChunkSink { w, buf: String::with_capacity(CHUNK_FLUSH + 512), chunked }
    }

    /// Appends `s`, flushing a chunk to the socket when the buffer
    /// crosses [`CHUNK_FLUSH`].
    pub fn push(&mut self, s: &str) -> std::io::Result<()> {
        self.buf.push_str(s);
        if self.buf.len() >= CHUNK_FLUSH {
            self.flush_buf()?;
        }
        Ok(())
    }

    fn flush_buf(&mut self) -> std::io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        if self.chunked {
            // One writev-shaped sequence: size line, payload, CRLF.
            let mut head = String::with_capacity(12);
            use std::fmt::Write as _;
            let _ = write!(head, "{:x}\r\n", self.buf.len());
            self.w.write_all(head.as_bytes())?;
            self.w.write_all(self.buf.as_bytes())?;
            self.w.write_all(b"\r\n")?;
        } else {
            self.w.write_all(self.buf.as_bytes())?;
        }
        self.buf.clear();
        Ok(())
    }

    fn finish(mut self) -> std::io::Result<()> {
        self.flush_buf()?;
        if self.chunked {
            self.w.write_all(b"0\r\n\r\n")?;
        }
        self.w.flush()
    }
}

/// A body producer for streamed responses: called once with the live
/// [`ChunkSink`] after the headers are on the wire.
pub type BodyProducer = Box<dyn FnOnce(&mut ChunkSink<'_>) -> std::io::Result<()> + Send>;

/// A response body: either fully materialized text (framed with
/// `Content-Length`) or a streaming producer (framed with chunked
/// transfer-encoding on HTTP/1.1, close-delimited on HTTP/1.0).
pub enum Body {
    /// A complete body, written with a `Content-Length` header.
    Text(String),
    /// A streamed body, produced incrementally into a [`ChunkSink`].
    Stream(BodyProducer),
}

impl std::fmt::Debug for Body {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Body::Text(s) => f.debug_tuple("Text").field(&s.len()).finish(),
            Body::Stream(_) => f.write_str("Stream(..)"),
        }
    }
}

/// A response ready to serialize.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body (text or streamed).
    pub body: Body,
    /// Adds a `Retry-After: N` header (backpressure rejections).
    pub retry_after: Option<u32>,
    /// `Content-Type` header value (JSON unless overridden — the
    /// Prometheus exposition is the one plain-text endpoint).
    pub content_type: &'static str,
    /// Adds an `X-Flatnet-Trace-Id` header (set by the engine just
    /// before the write, so every traced response names its trace).
    pub trace_id: Option<u64>,
    /// Close the connection after this response. Defaults to `true` so
    /// one-shot paths (accept-side 503, parse errors) behave; the
    /// connection loop clears it when keep-alive is negotiated.
    pub close: bool,
    /// The peer speaks HTTP/1.1, so chunked transfer-encoding is legal
    /// for a [`Body::Stream`]. When false, a streamed body falls back
    /// to a raw close-delimited stream (which forces `close`).
    pub chunked_ok: bool,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            body: Body::Text(body),
            retry_after: None,
            content_type: "application/json",
            trace_id: None,
            close: true,
            chunked_ok: true,
        }
    }

    /// A response with an explicit content type (Prometheus text).
    pub fn text(status: u16, body: String, content_type: &'static str) -> Self {
        Response { content_type, ..Response::json(status, body) }
    }

    /// A streamed JSON response.
    pub fn stream(status: u16, producer: BodyProducer) -> Self {
        Response { body: Body::Stream(producer), ..Response::json(status, String::new()) }
    }

    /// Serializes status line, headers, and body to `w`. A text body
    /// goes out as one write (single syscall on an unbuffered socket); a
    /// streamed body writes the header block and then chunk-by-chunk as
    /// the producer fills the [`ChunkSink`]. Returns whether the
    /// connection must close afterwards (a close-delimited stream forces
    /// it even if keep-alive was negotiated).
    pub fn write_to<W: Write>(self, w: &mut W) -> std::io::Result<bool> {
        let streamed_raw = matches!(self.body, Body::Stream(_)) && !self.chunked_ok;
        let close = self.close || streamed_raw;
        let mut out = String::with_capacity(match &self.body {
            Body::Text(b) => 192 + b.len(),
            Body::Stream(_) => 192,
        });
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
        );
        match &self.body {
            Body::Text(b) => {
                let _ = write!(out, "Content-Length: {}\r\n", b.len());
            }
            Body::Stream(_) if self.chunked_ok => {
                out.push_str("Transfer-Encoding: chunked\r\n");
            }
            // HTTP/1.0 streamed fallback: no length header at all — the
            // body runs to EOF and the close below delimits it.
            Body::Stream(_) => {}
        }
        let _ = write!(out, "Connection: {}\r\n", if close { "close" } else { "keep-alive" });
        if let Some(secs) = self.retry_after {
            let _ = write!(out, "Retry-After: {secs}\r\n");
        }
        if let Some(id) = self.trace_id {
            let _ = write!(out, "X-Flatnet-Trace-Id: {id:016x}\r\n");
        }
        out.push_str("\r\n");
        match self.body {
            Body::Text(b) => {
                out.push_str(&b);
                w.write_all(out.as_bytes())?;
                w.flush()?;
            }
            Body::Stream(producer) => {
                w.write_all(out.as_bytes())?;
                let mut sink = ChunkSink::new(w, self.chunked_ok);
                producer(&mut sink)?;
                sink.finish()?;
            }
        }
        Ok(close)
    }
}

/// Reason phrase for the status codes this daemon emits.
pub(crate) fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

fn bad_data(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

fn eof(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::UnexpectedEof, msg)
}

/// A fully read response, as a client sees it.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// The header block as the server spelled it: one `Name: value`
    /// line per header, each `\n`-terminated.
    pub head: String,
    /// The complete body (chunked transfer decoded).
    pub body: String,
    /// The server asked for (or, with a close-delimited body, implied)
    /// connection close.
    pub close: bool,
}

impl Reply {
    /// First value of header `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.head
            .lines()
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.trim())
    }
}

/// The most [`read_exactly`] reserves ahead of the bytes it has seen: a
/// typical body arrives into one allocation, and a peer that declares
/// a length it never sends costs no more than this.
const BODY_RESERVE: usize = 64 * 1024;

/// Appends exactly `n` more bytes to `body`, growing it as they arrive
/// rather than sizing it from the peer's say-so.
fn read_exactly<R: BufRead>(r: &mut R, n: usize, body: &mut Vec<u8>) -> std::io::Result<()> {
    body.reserve(n.min(BODY_RESERVE));
    if r.by_ref().take(n as u64).read_to_end(body)? < n {
        return Err(eof("connection closed mid-body"));
    }
    Ok(())
}

/// One line of a response's framing, as text; `eof_means` names what an
/// EOF in its place cut off.
fn response_line<R: BufRead>(r: &mut R, eof_means: &str) -> std::io::Result<String> {
    let line = read_line_limited(r, MAX_HEADER_LINE)?.ok_or_else(|| eof(eof_means))?;
    String::from_utf8(line).map_err(|_| bad_data("response framing is not UTF-8"))
}

/// Reads one HTTP/1.1 response: status line, headers, then a
/// `Content-Length`, chunked, or close-delimited body (the last reads
/// to EOF and marks the connection closed). Consumes exactly one
/// response's bytes, so pipelined responses behind it stay in `r`.
///
/// Every line goes through the same length-capped reader as the request
/// side, header and trailer counts are capped at `MAX_HEADERS`, and
/// the body at `MAX_RESPONSE_BODY`; a violation, like any malformed
/// framing, is an `InvalidData` error, and a peer that closes early an
/// `UnexpectedEof` — never a short body.
pub fn read_response<R: BufRead>(r: &mut R) -> std::io::Result<Reply> {
    let line = response_line(r, "connection closed before status line")?;
    let status: u16 = line
        .strip_prefix("HTTP/1.")
        .and_then(|rest| rest.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad_data(format!("bad status line {line:?}")))?;

    let mut head = String::new();
    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    let mut close = false;
    for n in 0.. {
        let line = response_line(r, "connection closed inside headers")?;
        if line.is_empty() {
            break;
        }
        if n >= MAX_HEADERS {
            return Err(bad_data("too many headers"));
        }
        let (name, value) =
            line.split_once(':').ok_or_else(|| bad_data("malformed header (missing ':')"))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = Some(value.parse().map_err(|_| bad_data("bad Content-Length"))?);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            chunked = value.eq_ignore_ascii_case("chunked");
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.split(',').any(|t| t.trim().eq_ignore_ascii_case("close"));
        }
        head.push_str(&line);
        head.push('\n');
    }

    let too_large = || bad_data("body too large");
    let mut body = Vec::new();
    if chunked {
        loop {
            let line = response_line(r, "connection closed before chunk size")?;
            let hex = line.trim();
            if hex.is_empty() || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(bad_data("bad chunk size"));
            }
            let size = usize::from_str_radix(hex, 16).map_err(|_| bad_data("bad chunk size"))?;
            if size == 0 {
                break;
            }
            if body.len().checked_add(size).is_none_or(|total| total > MAX_RESPONSE_BODY) {
                return Err(too_large());
            }
            read_exactly(r, size, &mut body)?;
            let mut crlf = [0u8; 2];
            r.read_exact(&mut crlf)?;
            if &crlf != b"\r\n" {
                return Err(bad_data("chunk not terminated by CRLF"));
            }
        }
        // Trailers (none are ever sent here) run to the blank line.
        for n in 0.. {
            if response_line(r, "connection closed inside trailers")?.is_empty() {
                break;
            }
            if n >= MAX_HEADERS {
                return Err(bad_data("too many trailers"));
            }
        }
    } else if let Some(n) = content_length {
        if n > MAX_RESPONSE_BODY {
            return Err(too_large());
        }
        read_exactly(r, n, &mut body)?;
    } else {
        r.by_ref().take(MAX_RESPONSE_BODY as u64 + 1).read_to_end(&mut body)?;
        if body.len() > MAX_RESPONSE_BODY {
            return Err(too_large());
        }
        close = true;
    }
    let body = String::from_utf8(body).map_err(|_| bad_data("non-UTF-8 body"))?;
    Ok(Reply { status, head, body, close })
}

/// Why [`wait_for_request`] returned.
pub enum NextRequest {
    /// Bytes are buffered (or just arrived): parse the next request.
    Data,
    /// The idle budget ran out with no new request: close cleanly.
    Idle,
    /// The peer closed (EOF), the transport failed, or the daemon is
    /// shutting down.
    Gone,
}

/// Slice length for idle waits: an idle keep-alive connection re-checks
/// the shutdown flag this often, bounding how long a parked connection
/// can delay a clean shutdown.
const IDLE_SLICE: Duration = Duration::from_millis(250);

/// Parks on a persistent connection until the next request's bytes
/// arrive, the `idle` budget runs out, the peer closes, or `shutdown`
/// is flagged. Pipelined bytes already sitting in the `BufReader` return
/// `Data` without reading the socket. The read timeout is left at the
/// last slice's; the caller sets the one it wants for the request.
pub fn wait_for_request(
    reader: &mut BufReader<&TcpStream>,
    idle: Duration,
    shutdown: &AtomicBool,
) -> NextRequest {
    let start = Instant::now();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return NextRequest::Gone;
        }
        let left = idle.saturating_sub(start.elapsed());
        if left.is_zero() {
            return NextRequest::Idle;
        }
        let _ = reader.get_ref().set_read_timeout(Some(IDLE_SLICE.min(left)));
        match reader.fill_buf() {
            Ok([]) => return NextRequest::Gone,
            Ok(_) => return NextRequest::Data,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                ) =>
            {
                continue
            }
            Err(_) => return NextRequest::Gone,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Option<Request>, ParseError> {
        read_request(&mut BufReader::new(raw))
    }

    #[test]
    fn parses_get_with_query() {
        let req = parse(b"GET /v1/reachability?origin=15169&exclude=tier1%2Ctier2 HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/v1/reachability");
        assert_eq!(req.query_param("origin"), Some("15169"));
        assert_eq!(req.query_param("exclude"), Some("tier1,tier2"));
        assert_eq!(req.header("host"), Some("x"));
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(b"POST /v1/whatif/leak HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.body, b"{}");
    }

    #[test]
    fn empty_connection_is_silent() {
        assert!(parse(b"").unwrap().is_none());
    }

    #[test]
    fn malformed_corpus_yields_definite_4xx() {
        let cases: &[(&[u8], u16)] = &[
            (b"GET /x", 400),                                  // truncated request line
            (b"GARBAGE\r\n\r\n", 400),                         // no target/version
            (b"get /x HTTP/1.1\r\n\r\n", 400),                 // lowercase method
            (b"DELETE /x HTTP/1.1\r\n\r\n", 405),              // unsupported method
            (b"GET x HTTP/1.1\r\n\r\n", 400),                  // relative target
            (b"GET /x HTTP/2.0\r\n\r\n", 400),                 // wrong version
            (b"GET /%zz HTTP/1.1\r\n\r\n", 400),               // bad percent-escape
            (b"GET /x?a=%9 HTTP/1.1\r\n\r\n", 400),            // truncated escape
            (b"GET /x HTTP/1.1\r\nNoColonHere\r\n\r\n", 400),  // malformed header
            (b"GET /x HTTP/1.1\r\n: empty\r\n\r\n", 400),      // empty header name
            (b"POST /x HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 400),
            (b"POST /x HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n", 413),
            (b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nab", 400), // truncated body
            (b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 400),
        ];
        for (raw, want) in cases {
            let err = parse(raw).expect_err(&format!("accepted {:?}", raw));
            assert_eq!(err.status, *want, "input {:?} -> {}", raw, err.reason);
        }
    }

    #[test]
    fn oversized_request_line_is_414() {
        let mut raw = b"GET /".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_REQUEST_LINE + 10));
        raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        assert_eq!(parse(&raw).unwrap_err().status, 414);
    }

    #[test]
    fn oversized_header_is_431() {
        let mut raw = b"GET /x HTTP/1.1\r\nX-Big: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEADER_LINE + 10));
        raw.extend_from_slice(b"\r\n\r\n");
        assert_eq!(parse(&raw).unwrap_err().status, 431);
    }

    #[test]
    fn too_many_headers_is_431() {
        let mut raw = b"GET /x HTTP/1.1\r\n".to_vec();
        for i in 0..(MAX_HEADERS + 2) {
            raw.extend_from_slice(format!("H{i}: v\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        assert_eq!(parse(&raw).unwrap_err().status, 431);
    }

    #[test]
    fn pipelined_garbage_after_request_is_ignored() {
        let req = parse(b"GET /healthz HTTP/1.1\r\n\r\n\x00\xffGARBAGE MORE GARBAGE")
            .unwrap()
            .unwrap();
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    /// A reader that yields `prefix` and then fails every read with
    /// `kind` — a socket whose peer stalled (timeout) or vanished
    /// (reset) mid-request.
    struct FailingReader {
        prefix: &'static [u8],
        kind: std::io::ErrorKind,
    }

    impl std::io::Read for FailingReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.prefix.is_empty() {
                return Err(std::io::Error::new(self.kind, "injected"));
            }
            let n = self.prefix.len().min(buf.len());
            buf[..n].copy_from_slice(&self.prefix[..n]);
            self.prefix = &self.prefix[n..];
            Ok(n)
        }
    }

    fn parse_failing(prefix: &'static [u8], kind: std::io::ErrorKind) -> ParseError {
        let mut r = BufReader::new(FailingReader { prefix, kind });
        read_request(&mut r).expect_err("failing reader accepted")
    }

    #[test]
    fn timed_out_read_is_408() {
        for kind in [std::io::ErrorKind::TimedOut, std::io::ErrorKind::WouldBlock] {
            // Stall before any bytes, mid-request-line, and mid-headers:
            // all are the io-timeout path and must answer 408.
            for prefix in
                [&b""[..], &b"GET /heal"[..], &b"GET /x HTTP/1.1\r\nHost: lo"[..]]
            {
                let err = parse_failing(prefix, kind);
                assert_eq!(err.status, 408, "prefix {prefix:?} kind {kind:?}");
                assert!(err.wants_response());
                assert_eq!(err.reason, "read timed out");
            }
        }
    }

    #[test]
    fn timed_out_body_read_is_408() {
        let err = parse_failing(
            b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nab",
            std::io::ErrorKind::TimedOut,
        );
        assert_eq!(err.status, 408);
    }

    #[test]
    fn transport_errors_close_silently() {
        // A reset peer can't receive a response; writing one would just
        // error again, so the parser asks for a silent close.
        for kind in
            [std::io::ErrorKind::ConnectionReset, std::io::ErrorKind::BrokenPipe]
        {
            let err = parse_failing(b"GET /x HT", kind);
            assert_eq!(err.status, 0, "kind {kind:?}");
            assert!(!err.wants_response());
        }
    }

    #[test]
    fn response_serialization_includes_trace_id_and_content_type() {
        let mut resp = Response::json(200, "{}\n".into());
        resp.trace_id = Some(0xabcd);
        let mut out = Vec::new();
        resp.write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("X-Flatnet-Trace-Id: 000000000000abcd\r\n"), "{text}");
        assert!(text.contains("Content-Type: application/json\r\n"), "{text}");

        let prom = Response::text(200, "# TYPE x counter\n".into(), "text/plain; version=0.0.4");
        let mut out = Vec::new();
        prom.write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Type: text/plain; version=0.0.4\r\n"), "{text}");
        assert!(!text.contains("X-Flatnet-Trace-Id"), "{text}");
    }

    #[test]
    fn response_serialization_includes_retry_after() {
        let mut resp = Response::json(503, "{\"error\":\"queue full\"}\n".into());
        resp.retry_after = Some(1);
        let mut out = Vec::new();
        let closed = resp.write_to(&mut out).unwrap();
        assert!(closed);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"error\":\"queue full\"}\n"));
    }

    #[test]
    fn connection_header_follows_close_flag() {
        let mut resp = Response::json(200, "{}\n".into());
        resp.close = false;
        let mut out = Vec::new();
        let closed = resp.write_to(&mut out).unwrap();
        assert!(!closed);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(!text.contains("Connection: close"), "{text}");
    }

    #[test]
    fn keep_alive_negotiation_defaults() {
        let req = |raw: &[u8]| parse(raw).unwrap().unwrap();
        // HTTP/1.1 defaults to keep-alive...
        assert!(req(b"GET /x HTTP/1.1\r\n\r\n").wants_keep_alive());
        // ...unless the client closes, in any token-list spelling.
        assert!(!req(b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n").wants_keep_alive());
        assert!(!req(b"GET /x HTTP/1.1\r\nConnection: Close\r\n\r\n").wants_keep_alive());
        assert!(
            !req(b"GET /x HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n").wants_keep_alive()
        );
        // HTTP/1.0 defaults to close unless it opts in.
        assert!(!req(b"GET /x HTTP/1.0\r\n\r\n").wants_keep_alive());
        assert!(req(b"GET /x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").wants_keep_alive());
        // Unknown tokens fall back to the version default.
        assert!(req(b"GET /x HTTP/1.1\r\nConnection: upgrade\r\n\r\n").wants_keep_alive());
    }

    #[test]
    fn streamed_body_uses_chunked_encoding() {
        let resp = Response::stream(
            200,
            Box::new(|sink| {
                sink.push("{\"data\":[")?;
                sink.push("1,2,3")?;
                sink.push("]}\n")
            }),
        );
        let mut out = Vec::new();
        let closed = resp.write_to(&mut out).unwrap();
        assert!(closed, "Response::stream defaults close=true");
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked\r\n"), "{text}");
        assert!(!text.contains("Content-Length"), "{text}");
        // The whole body fits one chunk: "{len:x}\r\n{body}\r\n0\r\n\r\n".
        let body = "{\"data\":[1,2,3]}\n";
        let framed = format!("{:x}\r\n{body}\r\n0\r\n\r\n", body.len());
        assert!(text.ends_with(&framed), "{text}");
    }

    #[test]
    fn streamed_body_flushes_in_chunks() {
        let big = "x".repeat(CHUNK_FLUSH + 100);
        let big2 = big.clone();
        let resp = Response::stream(200, Box::new(move |sink| sink.push(&big2)));
        let mut out = Vec::new();
        resp.write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        // Two chunks: the flushed CHUNK_FLUSH+100 buffer, then terminal 0.
        let framed = format!("{:x}\r\n{big}\r\n0\r\n\r\n", big.len());
        assert!(text.ends_with(&framed), "tail = {:?}", &text[text.len().saturating_sub(64)..]);
    }

    #[test]
    fn http10_streamed_body_is_close_delimited() {
        let mut resp = Response::stream(200, Box::new(|sink| sink.push("raw-body")));
        resp.chunked_ok = false;
        resp.close = false; // even a negotiated keep-alive must be overridden
        let mut out = Vec::new();
        let closed = resp.write_to(&mut out).unwrap();
        assert!(closed, "close-delimited stream must force close");
        let text = String::from_utf8(out).unwrap();
        assert!(!text.contains("Transfer-Encoding"), "{text}");
        assert!(!text.contains("Content-Length"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\nraw-body"), "{text}");
    }
}
