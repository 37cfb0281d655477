//! Hostile requests against [`MetricsServer`]: whatever bytes arrive, the
//! client gets a `400`/`404` or a closed socket within five seconds, the
//! serving thread never panics, and the *next* well-formed
//! `GET /metrics` is still answered `200` with a valid body — the
//! endpoint fails closed at its boundary like every other one in the
//! stack.

use std::io::{Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use dp_trace::{validate_exposition, Class, MetricsServer, Tracer};
use dp_types::DetRng;

/// Sends `payload` (half-closing afterwards when `half_close`, so the
/// server sees end-of-request instead of waiting out its read deadline)
/// and reads until the server closes. Returns the response status, `None`
/// when the socket closed or reset without one.
fn exchange(addr: SocketAddr, payload: &[u8], half_close: bool) -> Option<u16> {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("server accepts");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // The server may answer and close before the payload is fully
    // written; a reset here is one of the permitted outcomes.
    let _ = stream.write_all(payload);
    if half_close {
        let _ = stream.shutdown(Shutdown::Write);
    }
    let mut raw = Vec::new();
    let _ = stream.read_to_end(&mut raw);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "no answer or close within 5 s for {} byte(s)",
        payload.len()
    );
    String::from_utf8_lossy(&raw)
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
}

/// The follow-up every hostile request must leave possible.
fn assert_still_serving(addr: SocketAddr, after: &str) {
    let mut stream = TcpStream::connect(addr).expect("server accepts");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(stream, "GET /metrics HTTP/1.1\r\nHost: dp\r\nConnection: close\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 200 "), "after {after}: {raw}");
    let body = raw.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    validate_exposition(body).unwrap_or_else(|e| panic!("after {after}: {e}\n{body}"));
    assert!(body.contains("dp_test_hits_total 1"), "after {after}: {body}");
}

#[test]
fn hostile_requests_fail_closed_and_the_server_keeps_serving() {
    let tracer = Tracer::aggregate_only();
    tracer.counter("test.hits", Class::Skeleton, 1);
    let server = MetricsServer::serve(tracer, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let mut rng = DetRng::seed_from_u64(0x5EED_0BAD_4E77);
    let mut cases: Vec<(String, Vec<u8>, bool)> = (0..16)
        .map(|i| {
            let len = rng.gen_range_usize(1, 2048);
            let bytes = (0..len).map(|_| rng.gen_u8()).collect();
            (format!("random bytes #{i}"), bytes, true)
        })
        .collect();
    cases.extend([
        ("a 17 KiB header with no terminator".into(), [b"GET /metrics HTTP/1.1\r\nX-Pad: ".as_slice(), &[b'a'; 17 * 1024]].concat(), false),
        ("a non-GET method".into(), b"POST /metrics HTTP/1.1\r\nHost: dp\r\n\r\n".to_vec(), false),
        ("invalid UTF-8 in the request line".into(), b"GET /\xff\xfe\xc0 HTTP/1.1\r\n\r\n".to_vec(), false),
        ("a request line with no path".into(), b"GET\r\n\r\n".to_vec(), false),
        ("a client that closes mid-line".into(), b"GET /metr".to_vec(), true),
        ("a client that sends nothing".into(), Vec::new(), false),
    ]);
    for (what, payload, half_close) in &cases {
        let status = exchange(addr, payload, *half_close);
        assert!(
            matches!(status, None | Some(400) | Some(404)),
            "{what}: answered {status:?}"
        );
        assert_still_serving(addr, what);
    }

    // The serving thread is still the one that started: it joins cleanly.
    server.shutdown();
}
