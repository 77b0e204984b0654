//! The pooled keep-alive HTTP/1.1 client — the only one in the
//! workspace. The router speaks to its shards through it, and the load
//! generator, the CLI's readiness polls and the integration tests speak
//! to the daemons through it.
//!
//! One [`Client`] per server address holds a pool of persistent
//! connections; a request checks one out, writes, reads one [`Reply`],
//! and checks it back in. Scatter-gather wants the two halves apart
//! (write to every owner shard first, then collect), so [`Client::send`]
//! and [`Client::recv`] are split out and [`Client::request`] is their
//! composition. A pooled connection may have been idle-closed by the
//! server since its last use, which surfaces as an error on its first
//! reuse and must not surface to the caller: both halves replay once on
//! a fresh dial, through the one `Client::redial`.
//!
//! The client keeps no metrics registry of its own — it sits below
//! `flatnet-obs` — and exposes [`Client::stats`] for callers that do.

use crate::http::{read_response, Reply};
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Connections kept per server beyond which check-ins just close.
const POOL_CAP: usize = 16;

/// One request as the client writes it.
#[derive(Debug, Clone, Copy)]
pub struct Call<'a> {
    /// `GET` / `POST`.
    pub method: &'a str,
    /// Request target (path and query, already percent-encoded).
    pub target: &'a str,
    /// A JSON body, sent with its `Content-Length`.
    pub body: Option<&'a str>,
    /// Propagated as `X-Flatnet-Trace-Id` unless zero (which the
    /// daemons read as absent anyway).
    pub trace_id: u64,
}

/// One open connection. [`Conn::recv`] reads the next response off it;
/// requests are written through the [`Client`], or raw through `Write`
/// by callers that pipeline or send deliberately odd bytes. `Read`
/// drains what the server sends outside any response (tests watch for
/// the clean EOF of an idle close with it).
pub struct Conn {
    reader: BufReader<TcpStream>,
    /// Came out of the pool (so a failure on it may only mean the
    /// server idle-closed it) rather than from a fresh dial.
    reused: bool,
}

impl Conn {
    /// Reads one response.
    pub fn recv(&mut self) -> std::io::Result<Reply> {
        read_response(&mut self.reader)
    }

    fn write_call(&mut self, host: &str, call: &Call<'_>, close: bool) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let Call { method, target, body, trace_id } = *call;
        let connection = if close { "close" } else { "keep-alive" };
        let mut req =
            format!("{method} {target} HTTP/1.1\r\nHost: {host}\r\nConnection: {connection}\r\n");
        // Writing to a `String` cannot fail.
        if trace_id != 0 {
            let _ = write!(req, "X-Flatnet-Trace-Id: {trace_id:016x}\r\n");
        }
        if let Some(b) = body {
            let _ =
                write!(req, "Content-Type: application/json\r\nContent-Length: {}\r\n", b.len());
        }
        req.push_str("\r\n");
        req.push_str(body.unwrap_or(""));
        self.write_all(req.as_bytes())
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.reader.read(buf)
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.reader.get_mut().write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.reader.get_mut().flush()
    }
}

/// The pooled client for one server address.
pub struct Client {
    addr: String,
    pool: Mutex<Vec<BufReader<TcpStream>>>,
    timeout: Duration,
    connects: AtomicU64,
    reuse: AtomicU64,
}

impl Client {
    /// A client for `addr` whose socket operations time out after
    /// `timeout`.
    pub fn new(addr: String, timeout: Duration) -> Client {
        Client {
            addr,
            pool: Mutex::new(Vec::new()),
            timeout,
            connects: AtomicU64::new(0),
            reuse: AtomicU64::new(0),
        }
    }

    /// The server address this client dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Lifetime `(dials, pool reuses)`.
    pub fn stats(&self) -> (u64, u64) {
        (self.connects.load(Ordering::Relaxed), self.reuse.load(Ordering::Relaxed))
    }

    fn pool(&self) -> std::sync::MutexGuard<'_, Vec<BufReader<TcpStream>>> {
        // Pushes and pops leave the pool valid at every step.
        self.pool.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Dials a fresh connection, outside the pool.
    pub fn dial(&self) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(self.timeout)).ok();
        stream.set_write_timeout(Some(self.timeout)).ok();
        self.connects.fetch_add(1, Ordering::Relaxed);
        Ok(Conn { reader: BufReader::new(stream), reused: false })
    }

    fn checkout(&self) -> std::io::Result<Conn> {
        if let Some(reader) = self.pool().pop() {
            self.reuse.fetch_add(1, Ordering::Relaxed);
            return Ok(Conn { reader, reused: true });
        }
        self.dial()
    }

    fn checkin(&self, conn: Conn) {
        let mut pool = self.pool();
        if pool.len() < POOL_CAP {
            pool.push(conn.reader);
        }
    }

    /// Drops every pooled connection (after the server was seen dead;
    /// its sockets are all suspect).
    pub fn drain_pool(&self) {
        self.pool().clear();
    }

    /// The stale-pooled-socket policy: `stale` is what a pooled
    /// connection answered on its first reuse, so `call` is written
    /// again on a fresh dial — once; a fresh connection that fails too
    /// is the server's failure, not the pool's.
    fn redial(&self, call: &Call<'_>, stale: std::io::Error) -> std::io::Result<Conn> {
        let mut fresh = self.dial().map_err(|dial| {
            std::io::Error::new(
                dial.kind(),
                format!("retry dial failed: {dial} (after stale pooled connection: {stale})"),
            )
        })?;
        fresh.write_call(&self.addr, call, false)?;
        Ok(fresh)
    }

    /// Scatter half: writes `call` on a pooled connection and returns
    /// the connection its response will arrive on.
    pub fn send(&self, call: &Call<'_>) -> std::io::Result<Conn> {
        let mut conn = self.checkout()?;
        match conn.write_call(&self.addr, call, false) {
            Ok(()) => Ok(conn),
            Err(e) if conn.reused => self.redial(call, e),
            Err(e) => Err(e),
        }
    }

    /// Gather half: reads the response to `call` off the connection
    /// [`Client::send`] returned, and returns the connection to the
    /// pool unless the server is closing it.
    pub fn recv(&self, mut conn: Conn, call: &Call<'_>) -> std::io::Result<Reply> {
        let reply = match conn.recv() {
            // The write may have landed in a socket the server had
            // already closed.
            Err(e) if conn.reused => {
                conn = self.redial(call, e)?;
                conn.recv()?
            }
            reply => reply?,
        };
        if !reply.close {
            self.checkin(conn);
        }
        Ok(reply)
    }

    /// One request/response round trip over a pooled connection.
    pub fn request(
        &self,
        method: &str,
        target: &str,
        body: Option<&str>,
        trace_id: u64,
    ) -> std::io::Result<Reply> {
        let call = Call { method, target, body, trace_id };
        self.recv(self.send(&call)?, &call)
    }

    /// One round trip on a fresh connection the server is asked to
    /// close — for callers that must not leave a keep-alive connection
    /// parked on the server (a serve worker is bound to its connection
    /// for the connection's whole life).
    pub fn one_shot(&self, method: &str, target: &str) -> std::io::Result<Reply> {
        let mut conn = self.dial()?;
        conn.write_call(&self.addr, &Call { method, target, body: None, trace_id: 0 }, true)?;
        conn.recv()
    }
}
