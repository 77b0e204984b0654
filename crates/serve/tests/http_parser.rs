//! Socket-level hardening test: the daemon must answer every entry of a
//! malformed-request corpus with a clean 4xx (or silently close), never
//! panic, and still be fully healthy afterwards — in the spirit of the
//! ingestion-parser corpus in `tests/formats.rs`, but over real TCP. A
//! router over that daemon runs the same front, so it must answer every
//! entry with the daemon's status.

use flatnet_netgen::{generate, NetGenConfig};
use flatnet_router::{Router, RouterConfig};
use flatnet_serve::{ServeConfig, Server, TopologySource};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

/// Writes raw bytes, half-closes, and returns the full raw response
/// (empty if the server closed without answering).
fn raw_roundtrip(addr: SocketAddr, raw: &[u8]) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.set_write_timeout(Some(Duration::from_secs(10))).unwrap();
    // The server may reject and close while we are still writing (e.g.
    // an oversized request line answered 414 mid-upload), so neither
    // the write nor the half-close is allowed to fail the test — the
    // response (or clean close) read below is the contract.
    let _ = s.write_all(raw);
    let _ = s.shutdown(Shutdown::Write);
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out); // a reset instead of EOF is fine too
    String::from_utf8_lossy(&out).into_owned()
}

fn status_of(response: &str) -> Option<u16> {
    response.strip_prefix("HTTP/1.1 ")?.split(' ').next()?.parse().ok()
}

#[test]
fn daemon_survives_malformed_request_corpus() {
    let net = generate(&NetGenConfig::paper_2020(300, 9));
    let tiers = net.tiers_for(&net.truth);
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        source: TopologySource::Preloaded { graph: net.truth.clone(), tiers },
        ..ServeConfig::default()
    })
    .expect("server starts");
    let router = Router::start(RouterConfig {
        addr: "127.0.0.1:0".into(),
        shard_addrs: vec![server.addr().to_string()],
        probe_interval_ms: 0,
        ..RouterConfig::default()
    })
    .expect("router starts");

    let corpus: &[(&[u8], &[u16])] = &[
        // (raw request, acceptable statuses; empty slice = silent close ok)
        (b"GET /x", &[400]),                               // truncated request line
        (b"\r\n\r\n", &[400]),                             // empty request line
        (b"GARBAGE\r\n\r\n", &[400]),                      // shapeless line
        (b"DELETE /v1/reachability HTTP/1.1\r\n\r\n", &[405]),
        (b"GET /v1/reachability?origin=%zz HTTP/1.1\r\n\r\n", &[400]), // bad escape
        (b"GET /%9 HTTP/1.1\r\n\r\n", &[400]),             // truncated escape
        (b"GET /healthz HTTP/0.9\r\n\r\n", &[400]),        // bad version
        (b"GET relative HTTP/1.1\r\n\r\n", &[400]),        // relative target
        (b"GET /healthz HTTP/1.1\r\nBroken Header\r\n\r\n", &[400]),
        (b"POST /v1/whatif/leak HTTP/1.1\r\nContent-Length: nope\r\n\r\n", &[400]),
        (b"POST /v1/whatif/leak HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n", &[413]),
        (b"POST /v1/whatif/leak HTTP/1.1\r\nContent-Length: 50\r\n\r\n{", &[400]),
        (b"POST /v1/whatif/leak HTTP/1.1\r\nContent-Length: 7\r\n\r\nnotjson", &[400]),
        (b"POST /v1/whatif/leak HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", &[422]), // no victim
        (b"\x00\xff\xfe\x01 binary noise\r\n\r\n", &[400]),
        (b"GET /no/such/endpoint HTTP/1.1\r\n\r\n", &[404]),
        (b"", &[]),                                        // connect-and-leave
    ];

    // Oversized request line -> 414; oversized header -> 431; header
    // flood -> 431.
    let mut huge_line = b"GET /".to_vec();
    huge_line.extend(std::iter::repeat_n(b'a', flatnet_serve::http::MAX_REQUEST_LINE + 10));
    huge_line.extend_from_slice(b" HTTP/1.1\r\n\r\n");
    let mut huge_header = b"GET /healthz HTTP/1.1\r\nX-Big: ".to_vec();
    huge_header.extend(std::iter::repeat_n(b'b', 5000));
    huge_header.extend_from_slice(b"\r\n\r\n");
    let mut many_headers = b"GET /healthz HTTP/1.1\r\n".to_vec();
    for i in 0..200 {
        many_headers.extend_from_slice(format!("H{i}: v\r\n").as_bytes());
    }
    many_headers.extend_from_slice(b"\r\n");
    // Pipelined garbage after a valid request must not corrupt anything.
    let pipelined = b"GET /healthz HTTP/1.1\r\n\r\nGET /also HTTP/1.1\r\n\r\n\x00\xde\xad".to_vec();

    let extra: Vec<(Vec<u8>, Vec<u16>)> = vec![
        (huge_line, vec![414]),
        (huge_header, vec![431]),
        (many_headers, vec![431]),
        (pipelined, vec![200]),
    ];

    let mut checked = 0usize;
    for (raw, want) in corpus
        .iter()
        .map(|(r, w)| (r.to_vec(), w.to_vec()))
        .chain(extra)
    {
        let response = raw_roundtrip(server.addr(), &raw);
        match status_of(&response) {
            Some(status) => {
                assert!(
                    want.contains(&status),
                    "input {:?} -> {} (wanted one of {:?}); response: {}",
                    String::from_utf8_lossy(&raw),
                    status,
                    want,
                    response.lines().next().unwrap_or("")
                );
                assert!(status < 500, "malformed input produced a 5xx: {response}");
            }
            None => {
                assert!(
                    want.is_empty(),
                    "input {:?}: no/invalid response (wanted {:?}): {response:?}",
                    String::from_utf8_lossy(&raw),
                    want
                );
            }
        }
        let routed = raw_roundtrip(router.addr(), &raw);
        assert_eq!(
            status_of(&routed),
            status_of(&response),
            "the router answered {:?} unlike its shard: {}",
            String::from_utf8_lossy(&raw),
            routed.lines().next().unwrap_or("")
        );
        // Both fronts must still answer a clean request after every blow.
        for addr in [server.addr(), router.addr()] {
            let health = raw_roundtrip(addr, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
            assert_eq!(status_of(&health), Some(200), "{addr} unhealthy after {raw:?}");
        }
        checked += 1;
    }
    assert!(checked >= 20, "corpus shrank to {checked} cases");

    router.shutdown();
    server.shutdown();
}
