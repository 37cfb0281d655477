//! A std-only HTTP `/metrics` endpoint.
//!
//! The aggregate must be scrapeable while a replay is running, and the
//! container has no HTTP crate — so this is a deliberately small
//! HTTP/1.1 server on [`std::net::TcpListener`]: one accept thread,
//! requests handled serially (a scrape is a few kilobytes; Prometheus
//! scrapes one target at a time anyway), connections closed after each
//! response.
//!
//! Routes:
//!
//! * `GET /metrics` — Prometheus text exposition 0.0.4,
//! * `GET /metrics.json` — the same snapshot as JSON ([`crate::Aggregate::to_json`]),
//! * `GET /healthz` — liveness probe (`ok`),
//! * `GET /shutdown` — requests a clean stop; the accept loop exits after
//!   responding and [`MetricsServer::stop_requested`] turns true so the
//!   driving process can join and exit.
//!
//! The accept loop polls a non-blocking listener every few milliseconds so
//! a shutdown request (from HTTP or from [`MetricsServer::shutdown`]) is
//! honored promptly without platform signal machinery.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::{render_prometheus, Tracer};

/// A running `/metrics` endpoint. Dropping the handle without calling
/// [`MetricsServer::shutdown`] leaves the serving thread running for the
/// life of the process.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// serving `tracer`'s aggregate on a background thread.
    pub fn serve(tracer: Tracer, addr: impl ToSocketAddrs) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_thread = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("dp-trace-http".into())
            .spawn(move || accept_loop(listener, tracer, stop_thread))?;
        Ok(MetricsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a stop was requested (via `/shutdown` or
    /// [`MetricsServer::shutdown`]).
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Requests a stop and joins the serving thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: TcpListener, tracer: Tracer, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => handle_connection(stream, &tracer, &stop),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn handle_connection(mut stream: TcpStream, tracer: &Tracer, stop: &Arc<AtomicBool>) {
    // The accepted socket may inherit the listener's non-blocking mode on
    // some platforms; force blocking reads bounded by a timeout instead.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let Some(path) = read_request_path(&mut stream) else {
        let _ = respond(&mut stream, 400, "text/plain", "bad request\n");
        return;
    };
    match path.as_str() {
        "/metrics" => {
            let body = render_prometheus(&tracer.aggregate());
            let _ = respond(
                &mut stream,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            );
        }
        "/metrics.json" => {
            let body = tracer.aggregate().to_json();
            let _ = respond(&mut stream, 200, "application/json", &body);
        }
        "/healthz" => {
            let _ = respond(&mut stream, 200, "text/plain", "ok\n");
        }
        "/shutdown" => {
            let _ = respond(&mut stream, 200, "text/plain", "shutting down\n");
            stop.store(true, Ordering::SeqCst);
        }
        _ => {
            let _ = respond(&mut stream, 404, "text/plain", "not found\n");
        }
    }
}

/// Reads the request head (up to the blank line, capped at 16 KiB and
/// ~2 s) and returns the GET path, `None` on anything malformed.
fn read_request_path(stream: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::with_capacity(512);
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut chunk = [0u8; 512];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
        if buf.len() > 16 * 1024 || Instant::now() > deadline {
            return None;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => return None,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let request_line = head.lines().next()?;
    let mut parts = request_line.split(' ');
    let method = parts.next()?;
    let path = parts.next()?;
    if method != "GET" {
        return None;
    }
    // Strip any query string; routes here take none.
    Some(path.split('?').next().unwrap_or(path).to_string())
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{validate_exposition, Class};

    /// A minimal scrape client over raw `TcpStream` — the same shape the
    /// smoke test and the scrape-under-load test use.
    pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        write!(stream, "GET {path} HTTP/1.1\r\nHost: dp\r\nConnection: close\r\n\r\n")?;
        let mut raw = String::new();
        stream.read_to_string(&mut raw)?;
        let status: u16 = raw
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        Ok((status, body))
    }

    #[test]
    fn serves_scrapes_and_shuts_down() {
        let t = Tracer::aggregate_only();
        t.counter("test.hits", Class::Skeleton, 42);
        let server = MetricsServer::serve(t.clone(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        let (status, body) = http_get(addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        validate_exposition(&body).unwrap();
        assert!(body.contains("dp_test_hits_total 42"));

        let (status, body) = http_get(addr, "/metrics.json").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"dp_test_hits_total\""));

        let (status, _) = http_get(addr, "/healthz").unwrap();
        assert_eq!(status, 200);
        let (status, _) = http_get(addr, "/nope").unwrap();
        assert_eq!(status, 404);

        let (status, _) = http_get(addr, "/shutdown").unwrap();
        assert_eq!(status, 200);
        assert!(server.stop_requested());
        server.shutdown();
        // After shutdown the port no longer accepts.
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
    }

    #[test]
    fn scrape_sees_live_updates() {
        let t = Tracer::aggregate_only();
        let server = MetricsServer::serve(t.clone(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        for i in 1..=3u64 {
            t.counter("live.updates", Class::Skeleton, 1);
            let (_, body) = http_get(addr, "/metrics").unwrap();
            assert!(body.contains(&format!("dp_live_updates_total {i}")));
        }
        server.shutdown();
    }
}
