//! Integration test of the live `/metrics` endpoint **under load**: a
//! scraper thread hammers the std-only HTTP server every few
//! milliseconds while the main thread replays the campus scenario with
//! the served tracer attached. Every scraped body must be a valid
//! Prometheus 0.0.4 exposition — the server snapshots the aggregate
//! while counters, histograms, and HLL sketches are being updated
//! concurrently, and a torn or malformed exposition here is exactly the
//! bug this test exists to catch.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use diffprov::trace::{validate_exposition, MetricsServer, Tracer};

fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: dp\r\nConnection: close\r\n\r\n"
    )?;
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

/// Scrapes stay valid while a replay mutates the aggregate concurrently,
/// the scraper observes counters actually moving, and shutdown is clean.
#[test]
fn concurrent_scrapes_stay_valid_under_replay_load() {
    let tracer = Tracer::aggregate_only();
    let server = MetricsServer::serve(tracer.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let scraper_stop = Arc::clone(&stop);
    let scraper = std::thread::spawn(move || -> (u64, u64) {
        let mut scrapes = 0u64;
        let mut max_events = 0u64;
        while !scraper_stop.load(Ordering::SeqCst) {
            let (status, body) = http_get(addr, "/metrics").expect("scrape connects");
            assert_eq!(status, 200, "scrape {scrapes} failed");
            validate_exposition(&body)
                .unwrap_or_else(|e| panic!("scrape {scrapes}: invalid exposition: {e}\n{body}"));
            if let Some(line) = body
                .lines()
                .find(|l| l.starts_with("dp_engine_events_total "))
            {
                let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap_or(0);
                max_events = max_events.max(v);
            }
            scrapes += 1;
            std::thread::sleep(Duration::from_millis(2));
        }
        (scrapes, max_events)
    });

    // The workload: repeated campus replays, each engine wired to the
    // served tracer — counters move while the scraper reads them.
    let scenario = diffprov::sdn::campus(&diffprov::sdn::CampusConfig::default()).scenario;
    for _ in 0..3 {
        let mut exec = scenario.bad_exec.clone();
        exec.tracer = tracer.clone();
        exec.replay().unwrap();
    }

    stop.store(true, Ordering::SeqCst);
    let (scrapes, max_events) = scraper.join().unwrap();
    assert!(scrapes > 0, "the scraper never completed a scrape");
    assert!(
        max_events > 0,
        "{scrapes} scrapes never observed dp_engine_events_total > 0"
    );

    // The JSON route serves the same snapshot shape concurrently.
    let (status, json) = http_get(addr, "/metrics.json").unwrap();
    assert_eq!(status, 200);
    assert!(json.starts_with("{\"families\":["), "{json}");

    let (status, _) = http_get(addr, "/shutdown").unwrap();
    assert_eq!(status, 200);
    assert!(server.stop_requested());
    server.shutdown();
}
