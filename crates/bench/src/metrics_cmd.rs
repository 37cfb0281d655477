//! `repro -- metrics <scenario>` / `repro -- serve-metrics <scenario>` /
//! `repro -- metrics-smoke`: the exposition renderings of the one
//! instrumentation aggregate ([`dp_trace::Aggregate`]).
//!
//! * `metrics <scenario>` replays both executions of the scenario and
//!   runs one diagnosis, all reporting to one aggregate-only tracer, and
//!   prints the aggregate as JSON plus the Prometheus text exposition.
//! * `serve-metrics <scenario>` binds a std-only HTTP endpoint
//!   ([`MetricsServer`]) and keeps replaying the scenario on a worker
//!   thread so `curl /metrics` observes counters moving live; `GET
//!   /shutdown` stops both the workload and the server.
//! * `metrics-smoke` is the in-process end-to-end check the CI script
//!   runs: server on an ephemeral port, workload on a worker thread, a
//!   scrape loop that validates every body with
//!   [`dp_trace::validate_exposition`], key-series assertions, and a
//!   clean HTTP-initiated shutdown.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use diffprov_core::{DiffProv, Scenario};
use dp_trace::{render_prometheus, validate_exposition, Aggregate, MetricsServer, Tracer};
use dp_types::{Error, Result};

/// Replays both executions of `scenario` with one tracer cloned into
/// them and extracts each one's event tree — engine, recorder and
/// extraction series — then diagnoses the scenario with the same tracer
/// as the pipeline's, for the `diffprov.*` series. The diagnosis replays
/// the scenario's own, untraced executions, so every engine counter reads
/// exactly the two replays above.
pub fn scenario_aggregate(scenario: &Scenario) -> Result<Aggregate> {
    let tracer = Tracer::aggregate_only();
    for (exec, event) in [
        (&scenario.good_exec, &scenario.good_event),
        (&scenario.bad_exec, &scenario.bad_event),
    ] {
        let mut exec = exec.clone();
        exec.tracer = tracer.clone();
        exec.replay()?.query_at(&event.tref, event.at);
    }
    let dp = DiffProv {
        tracer: tracer.clone(),
        ..DiffProv::default()
    };
    scenario.diagnose_with(&dp)?;
    Ok(tracer.aggregate())
}

/// Renders the one-shot `metrics <scenario>` report: the JSON rendering
/// followed by the Prometheus text exposition (validated before printing,
/// so a malformed exposition fails loudly here rather than at scrape time).
pub fn one_shot(scenario: &Scenario) -> Result<String> {
    let agg = scenario_aggregate(scenario)?;
    let prom = render_prometheus(&agg);
    validate_exposition(&prom).map_err(|e| Error::Engine(format!("bad exposition: {e}")))?;
    Ok(format!("{}\n{}", agg.to_json(), prom))
}

/// Serves `/metrics` on `addr` while a worker thread replays `scenario` in
/// a loop, so scrapes observe live movement. Returns after `GET /shutdown`
/// (or [`MetricsServer::shutdown`] via Ctrl-C-less automation), reporting
/// how many replay rounds the workload completed.
pub fn serve(scenario: &Scenario, addr: &str) -> Result<u64> {
    let tracer = Tracer::aggregate_only();
    let server = MetricsServer::serve(tracer.clone(), addr)
        .map_err(|e| Error::Engine(format!("binding {addr}: {e}")))?;
    println!(
        "  serving http://{0}/metrics  (also /metrics.json, /healthz; GET /shutdown stops)",
        server.local_addr()
    );
    let (worker, stop) = spawn_workload(scenario, &tracer);
    while !server.stop_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    stop.store(true, Ordering::SeqCst);
    let rounds = worker.join().map_err(|_| worker_panic())??;
    server.shutdown();
    println!("  shutdown requested; workload completed {rounds} replay round(s)");
    Ok(rounds)
}

/// The end-to-end smoke test `scripts/check.sh` runs: scrape a live server
/// under load, validate every body, assert the workload's metrics landed,
/// and shut down over HTTP. Exits nonzero (via the returned error) on any
/// failure.
pub fn smoke(scenario: &Scenario) -> Result<()> {
    let tracer = Tracer::aggregate_only();
    let server = MetricsServer::serve(tracer.clone(), "127.0.0.1:0")
        .map_err(|e| Error::Engine(format!("binding ephemeral port: {e}")))?;
    let addr = server.local_addr();
    let (worker, stop) = spawn_workload(scenario, &tracer);

    let mut scrapes = 0u32;
    let mut last_events = 0u64;
    for _ in 0..20 {
        let (status, body) = get(addr, "/metrics")?;
        if status != 200 {
            return Err(Error::Engine(format!("/metrics returned {status}")));
        }
        validate_exposition(&body)
            .map_err(|e| Error::Engine(format!("scrape {scrapes}: bad exposition: {e}")))?;
        if let Some(line) = body
            .lines()
            .find(|l| l.starts_with("dp_engine_events_total "))
        {
            last_events = line
                .rsplit(' ')
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
        }
        scrapes += 1;
        std::thread::sleep(Duration::from_millis(5));
    }
    let (status, json) = get(addr, "/metrics.json")?;
    if status != 200 || !json.starts_with('{') {
        return Err(Error::Engine(format!("/metrics.json returned {status}")));
    }
    let (status, health) = get(addr, "/healthz")?;
    if status != 200 || health.trim() != "ok" {
        return Err(Error::Engine(format!("/healthz returned {status}: {health}")));
    }

    stop.store(true, Ordering::SeqCst);
    let rounds = worker.join().map_err(|_| worker_panic())??;

    // The workload must have actually reported: events counted, the
    // run span timed, and the tuple sketch non-empty.
    let agg = tracer.aggregate();
    if agg.counter("engine.events") == 0 {
        return Err(Error::Engine("no engine events counted".into()));
    }
    if agg.span_count("engine.run") == 0 {
        return Err(Error::Engine("engine.run never timed".into()));
    }
    if agg.sketch_estimate("engine.distinct_tuples") < 1.0 {
        return Err(Error::Engine("distinct-tuple sketch is empty".into()));
    }
    if last_events == 0 {
        return Err(Error::Engine(
            "scrapes never observed dp_engine_events_total > 0".into(),
        ));
    }

    let (status, _) = get(addr, "/shutdown")?;
    if status != 200 || !server.stop_requested() {
        return Err(Error::Engine("HTTP shutdown was not honored".into()));
    }
    server.shutdown();
    println!(
        "  metrics-smoke: {scrapes} valid scrapes over {rounds} replay round(s); \
         {} families, ~{:.0} distinct tuples; HTTP shutdown clean",
        render_prometheus(&agg).matches("# TYPE").count(),
        agg.sketch_estimate("engine.distinct_tuples")
    );
    Ok(())
}

/// Spawns the serve/smoke workload: replay `scenario`'s bad execution in a
/// loop against `tracer` until `stop` is raised; returns the round count.
fn spawn_workload(
    scenario: &Scenario,
    tracer: &Tracer,
) -> (std::thread::JoinHandle<Result<u64>>, Arc<AtomicBool>) {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_worker = Arc::clone(&stop);
    let mut exec = scenario.bad_exec.clone();
    exec.tracer = tracer.clone();
    let handle = std::thread::spawn(move || -> Result<u64> {
        let mut rounds = 0u64;
        while !stop_worker.load(Ordering::SeqCst) {
            exec.replay()?;
            rounds += 1;
        }
        Ok(rounds)
    });
    (handle, stop)
}

fn worker_panic() -> Error {
    Error::Engine("workload thread panicked".into())
}

/// A minimal scrape client over raw [`TcpStream`]: returns the status code
/// and body. (The server closes each connection after responding, so
/// read-to-end terminates.)
fn get(addr: SocketAddr, path: &str) -> Result<(u16, String)> {
    let io = |e: std::io::Error| Error::Engine(format!("GET {path}: {e}"));
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(io)?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: dp\r\nConnection: close\r\n\r\n"
    )
    .map_err(io)?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(io)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_cmd::find_scenario;
    use dp_replay::DurableStore;

    /// From a clean environment the one-shot report carries both
    /// renderings and every layer's families — engine, recorder,
    /// extraction, pipeline — not the engine's alone.
    #[test]
    fn one_shot_report_covers_every_layer() {
        let scenario = find_scenario("SDN1").unwrap();
        let text = one_shot(&scenario).unwrap();
        assert!(text.starts_with("{\"families\":["), "{text}");
        let families = [
            "dp_engine_events_total counter",
            "dp_engine_run_seconds histogram",
            "dp_engine_distinct_tuples gauge",
            "dp_prov_events_total counter",
            "dp_prov_live_records gauge",
            "dp_prov_bytes gauge",
            "dp_prov_bytes_per_record gauge",
            "dp_prov_extract_seconds histogram",
            "dp_prov_tree_vertices histogram",
            "dp_diffprov_diagnoses_total counter",
            "dp_diffprov_rounds_total counter",
            "dp_diffprov_find_seeds_seconds histogram",
            "dp_diffprov_delta_changes histogram",
        ];
        for family in families {
            assert!(text.contains(&format!("# TYPE {family}\n")), "no {family} in\n{text}");
        }
        assert!(text.contains("dp_diffprov_diagnoses_total{outcome=\"verified\"} 1\n"), "{text}");
    }

    /// The engine counters read the two replays and nothing else: the
    /// diagnosis riding along on the same tracer replays untraced.
    #[test]
    fn engine_counters_read_exactly_the_two_replays() {
        let scenario = find_scenario("SDN1").unwrap();
        let events = |exec: &dp_replay::Execution| exec.replay().unwrap().engine.stats().events;
        let agg = scenario_aggregate(&scenario).unwrap();
        assert_eq!(
            agg.counter("engine.events"),
            events(&scenario.good_exec) + events(&scenario.bad_exec)
        );
        assert_eq!(agg.span_count("engine.run"), 2);
    }

    /// A spill and a recovery report the store on the execution's tracer.
    #[test]
    fn durable_replay_reports_the_store_families() {
        let scenario = find_scenario("SDN1").unwrap();
        let tracer = Tracer::aggregate_only();
        let mut exec = scenario.bad_exec.clone();
        exec.tracer = tracer.clone();
        let mut store = DurableStore::temp().unwrap();
        exec.spill_into(&mut store).unwrap();
        let reopened = DurableStore::open(store.dir()).unwrap();
        exec.recovered_stream_digest(&reopened).unwrap();
        let agg = tracer.aggregate();
        assert_eq!(agg.counter("store.sealed_events"), exec.log.len() as u64);
        assert!(agg.level("store.layer_files") > 0 && agg.level("store.layer_bytes") > 0);
        assert_eq!(agg.span_count("store.recovery"), 1);
        let text = render_prometheus(&agg);
        for family in [
            "dp_store_seal_seconds histogram",
            "dp_store_sealed_events_total counter",
            "dp_store_layer_files gauge",
            "dp_store_layer_bytes gauge",
            "dp_store_recovery_seconds histogram",
        ] {
            assert!(text.contains(&format!("# TYPE {family}\n")), "no {family} in\n{text}");
        }
    }

    /// UPDATETREE's roll-forward reports on the execution's tracer: the
    /// fork fraction (`fork_events` ÷ `log_events`), the path taken and
    /// the two phase spans are scrapeable.
    #[test]
    fn rolled_replay_reports_the_fork_families() {
        let scenario = find_scenario("SDN1").unwrap();
        let delta = scenario.diagnose().unwrap().delta;
        let tracer = Tracer::aggregate_only();
        let mut exec = scenario.bad_exec.clone();
        exec.tracer = tracer.clone();
        exec.replay().unwrap().roll_forward(&exec, &delta, 0).unwrap();
        let agg = tracer.aggregate();
        assert_eq!(agg.counter("replay.log_events"), exec.log.len() as u64);
        assert!(agg.counter("replay.fork_events") > 0);
        let text = render_prometheus(&agg);
        for family in [
            "dp_replay_fork_events_total counter",
            "dp_replay_log_events_total counter",
            "dp_replay_rolled_total counter",
            "dp_replay_fork_seconds histogram",
            "dp_replay_withdraw_seconds histogram",
            "dp_replay_reissue_seconds histogram",
        ] {
            assert!(text.contains(&format!("# TYPE {family}\n")), "no {family} in\n{text}");
        }
        assert!(text.contains("dp_replay_rolled_total{path=\"roll\"} 1\n"), "{text}");
    }

    /// The full smoke path passes in-process.
    #[test]
    fn smoke_passes() {
        let scenario = find_scenario("SDN1").unwrap();
        smoke(&scenario).unwrap();
    }
}
