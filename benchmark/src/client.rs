//! The load generator's HTTP side: one keep-alive connection per client
//! thread and a response reader that handles `Content-Length` and chunked
//! bodies. Kept cheap on purpose — requests are pre-rendered bytes and
//! the read buffers are reused — because on `hot` the client shares two
//! cores with the daemon it measures.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Socket timeout for every client operation; far above any op of any
/// workload, so hitting it is a failure, never a measurement.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// What the reader learned about one response. The body itself stays in
/// the reader's buffer ([`ResponseReader::body`]) until the next read.
#[derive(Debug, Clone, Copy)]
pub struct ResponseMeta {
    pub status: u16,
    /// The server announced it closes the connection after this response.
    pub close: bool,
    /// When the first byte of the response arrived.
    pub first_byte: Instant,
}

/// Reads framed HTTP/1.1 responses off any byte stream, keeping bytes
/// that arrived beyond one response for the next.
#[derive(Debug)]
pub struct ResponseReader {
    /// Fixed-size receive window; `pos..end` holds unconsumed bytes.
    buf: Vec<u8>,
    pos: usize,
    end: usize,
    body: Vec<u8>,
}

impl Default for ResponseReader {
    fn default() -> Self {
        ResponseReader {
            buf: vec![0; 64 * 1024],
            pos: 0,
            end: 0,
            body: Vec::new(),
        }
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl ResponseReader {
    /// The body of the response read last, transfer-decoded.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// Reads more bytes; `Ok(false)` is end of stream.
    fn fill<R: Read>(&mut self, r: &mut R) -> io::Result<bool> {
        if self.pos == self.end {
            (self.pos, self.end) = (0, 0);
        } else if self.end == self.buf.len() {
            // Only a line longer than the window gets here.
            self.buf.copy_within(self.pos..self.end, 0);
            (self.pos, self.end) = (0, self.end - self.pos);
            if self.end == self.buf.len() {
                return Err(bad("line longer than the receive window"));
            }
        }
        loop {
            match r.read(&mut self.buf[self.end..]) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
                Ok(n) => {
                    self.end += n;
                    return Ok(n > 0);
                }
            }
        }
    }

    /// Consumes one CRLF-terminated line and returns where it sits in
    /// `buf` (terminator excluded); the range is valid until the next
    /// read.
    fn line<R: Read>(&mut self, r: &mut R) -> io::Result<std::ops::Range<usize>> {
        loop {
            if let Some(i) = self.buf[self.pos..self.end]
                .iter()
                .position(|&b| b == b'\n')
            {
                let start = self.pos;
                self.pos += i + 1;
                let cr = usize::from(i > 0 && self.buf[start + i - 1] == b'\r');
                return Ok(start..start + i - cr);
            }
            if !self.fill(r)? {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "closed inside a line",
                ));
            }
        }
    }

    fn text_line<R: Read>(&mut self, r: &mut R) -> io::Result<&str> {
        let range = self.line(r)?;
        std::str::from_utf8(&self.buf[range]).map_err(|_| bad("non-UTF-8 line"))
    }

    /// Moves exactly `n` payload bytes into the body.
    fn take<R: Read>(&mut self, r: &mut R, mut n: usize) -> io::Result<()> {
        while n > 0 {
            if self.pos == self.end && !self.fill(r)? {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "closed inside a body",
                ));
            }
            let k = n.min(self.end - self.pos);
            self.body
                .extend_from_slice(&self.buf[self.pos..self.pos + k]);
            self.pos += k;
            n -= k;
        }
        Ok(())
    }

    /// Reads one response: status line, headers, then a `Content-Length`
    /// or chunked body. A response with neither is a framing error — the
    /// daemon never sends one to an HTTP/1.1 client.
    pub fn read_response<R: Read>(&mut self, r: &mut R) -> io::Result<ResponseMeta> {
        self.body.clear();
        if self.pos == self.end && !self.fill(r)? {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "closed before a response",
            ));
        }
        let first_byte = Instant::now();
        let status_line = self.text_line(r)?;
        let status: u16 = status_line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.split(' ').next())
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {status_line:?}")))?;
        let (mut length, mut chunked, mut close) = (None, false, false);
        loop {
            let header = self.text_line(r)?;
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                return Err(bad(format!("bad header {header:?}")));
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| bad("bad Content-Length"))?,
                );
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.eq_ignore_ascii_case("chunked");
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        if chunked {
            loop {
                let size_line = self.text_line(r)?;
                let size = usize::from_str_radix(size_line.trim(), 16)
                    .map_err(|_| bad(format!("bad chunk size {size_line:?}")))?;
                if size == 0 {
                    if !self.line(r)?.is_empty() {
                        return Err(bad("trailer after the last chunk"));
                    }
                    break;
                }
                self.take(r, size)?;
                if !self.line(r)?.is_empty() {
                    return Err(bad("chunk payload not followed by CRLF"));
                }
            }
        } else {
            let n = length.ok_or_else(|| bad("response has neither length nor chunking"))?;
            self.take(r, n)?;
        }
        Ok(ResponseMeta {
            status,
            close,
            first_byte,
        })
    }
}

/// The three client-side moments of one request, for the traced run.
#[derive(Debug, Clone, Copy)]
pub struct Exchange {
    pub start: Instant,
    pub written: Instant,
    pub first_byte: Instant,
    pub end: Instant,
    pub status: u16,
    /// The exchange had to dial a new connection first.
    pub dialed: bool,
}

/// One closed-loop client: a persistent connection that is re-dialed
/// when the server's per-connection budget (`keepalive_max`) closes it.
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    reader: ResponseReader,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            stream: None,
            reader: ResponseReader::default(),
        }
    }

    fn connect(&mut self) -> io::Result<()> {
        let s = TcpStream::connect(self.addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(IO_TIMEOUT))?;
        s.set_write_timeout(Some(IO_TIMEOUT))?;
        (self.reader.pos, self.reader.end) = (0, 0);
        self.stream = Some(s);
        Ok(())
    }

    /// The body of the response read last.
    pub fn body(&self) -> &[u8] {
        self.reader.body()
    }

    /// Sends one pre-rendered request and reads its response. A transport
    /// failure is returned to the caller as a failed op; the next call
    /// starts on a fresh connection.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<Exchange> {
        let dialed = self.stream.is_none();
        if dialed {
            self.connect()?;
        }
        let start = Instant::now();
        let result = (|| {
            let stream = self.stream.as_mut().expect("connected above");
            stream.write_all(request)?;
            let written = Instant::now();
            let meta = self.reader.read_response(stream)?;
            Ok((written, meta))
        })();
        match result {
            Ok((written, meta)) => {
                let end = Instant::now();
                if meta.close {
                    self.stream = None;
                }
                Ok(Exchange {
                    start,
                    written,
                    first_byte: meta.first_byte,
                    end,
                    status: meta.status,
                    dialed,
                })
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }
}

/// Renders a `GET` request for `target` as the bytes the client writes.
pub fn get_request(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// Renders a JSON `POST` request.
pub fn post_request(target: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {target} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hands out its bytes `step` at a time, as a slow peer would.
    struct Dribble<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(self.data.len()).min(out.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    const FIXED: &[u8] =
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\nConnection: keep-alive\r\n\r\nhello world";
    const CHUNKED: &[u8] =
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n";

    #[test]
    fn reads_fixed_length_and_chunked_bodies_at_any_dribble_rate() {
        for step in [1, 2, 3, 7, 64, 4096] {
            let mut both = FIXED.to_vec();
            both.extend_from_slice(CHUNKED);
            let mut src = Dribble { data: &both, step };
            let mut reader = ResponseReader::default();

            let a = reader.read_response(&mut src).unwrap();
            assert_eq!((a.status, a.close), (200, false), "step {step}");
            assert_eq!(reader.body(), b"hello world");

            let b = reader.read_response(&mut src).unwrap();
            assert_eq!((b.status, b.close), (200, true), "step {step}");
            assert_eq!(reader.body(), b"hello world");

            let eof = reader.read_response(&mut src).unwrap_err();
            assert_eq!(eof.kind(), io::ErrorKind::UnexpectedEof);
        }
    }

    #[test]
    fn truncated_and_malformed_responses_are_errors() {
        let cut = &FIXED[..FIXED.len() - 3];
        let mut reader = ResponseReader::default();
        let err = reader
            .read_response(&mut Dribble { data: cut, step: 5 })
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        let no_framing = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nbody";
        let mut reader = ResponseReader::default();
        let err = reader
            .read_response(&mut Dribble {
                data: no_framing,
                step: 9,
            })
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let bad_chunk = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nhello\r\n";
        let mut reader = ResponseReader::default();
        let err = reader
            .read_response(&mut Dribble {
                data: bad_chunk,
                step: 4,
            })
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
