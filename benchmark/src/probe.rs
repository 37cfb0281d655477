//! The traced phase: per-layer metrics. Each layer is measured from
//! outside, one span per public call, in a process of its own so the
//! probing cannot touch the timed phase's numbers.

use std::time::Instant;

use diffprov_core::QueryEvent;
use dp_replay::layers::default_layer_events;
use dp_replay::{apply_changes, DurableStore, Execution, ProvBackend, Replayed};
use dp_types::{Error, LogicalTime, Result, TupleRef};

use crate::calibrate;
use crate::json::Json;
use crate::outcome::{nproc, Metric, Outcome};
use crate::spans::Spans;
use crate::stats::median;
use crate::timed::RunArgs;
use crate::workload::{Checker, Prepared};

/// Tree extractions timed per event (good and bad).
const EXTRACTS: usize = 20;

pub fn run_probe(args: &RunArgs) -> Result<Outcome> {
    let w = args.workload;
    let mut sp = Spans::default();
    let mut correct = true;
    let mut m: Vec<Metric> = Vec::new();
    let secs = |name: &str, v: f64| Metric::new(name, v, "s");

    let speed_before = calibrate::point(args.smoke);

    // sdn: set-up.
    let prepared = w.setup(args.seed, args.smoke, Some(&mut sp))?;
    let s = &prepared.campus.scenario;
    let exec = &s.bad_exec;
    m.push(secs("sdn.build_s", sp.seconds_of("sdn.build")[0]));
    m.push(Metric::count(
        "sdn.entries",
        prepared.campus.entry_count as u64,
    ));
    m.push(Metric::count("sdn.base_events", exec.log.len() as u64));

    // One discarded recording replay, so no layer line below pays the
    // first-touch page faults of a fresh heap.
    sp.span("diag.warmup", |_| exec.replay().map(drop)).0?;

    // ndlog: bare evaluation into a null sink (the baseline recording is
    // measured against), then the same run hashing its provenance stream.
    let (engine, eval_s) = sp.span("ndlog.eval", |_| exec.replay_null());
    let engine = engine?;
    let st = engine.stats();
    let engine_threads = engine.threads();
    drop(engine);
    let (first, digest_a_s) = sp.span("ndlog.digest", |_| exec.stream_digest());
    let (second, digest_b_s) = sp.span("ndlog.digest", |_| exec.stream_digest());
    let (digest, prov_events) = first?;
    if second? != (digest, prov_events) {
        eprintln!("diagbench: stream_digest differs between two calls");
        correct = false;
    }
    m.push(secs("ndlog.eval_s", eval_s));
    m.push(Metric::count("ndlog.prov_events", prov_events));
    m.push(Metric::new(
        "ndlog.events_per_s",
        prov_events as f64 / eval_s,
        "1/s",
    ));
    m.push(secs(
        "ndlog.emit_s",
        median(&[digest_a_s, digest_b_s]) - eval_s,
    ));
    for (name, v) in [
        ("ndlog.join_probes", st.join_probes),
        ("ndlog.join_candidates", st.join_candidates),
        ("ndlog.trie_probes", st.trie_probes),
        ("ndlog.batches", st.batches),
        ("ndlog.batched_deltas", st.batched_deltas),
        ("ndlog.parallel_batches", st.parallel_batches),
        ("ndlog.peak_tuples", st.peak_tuples),
        ("ndlog.peak_interned", st.peak_interned),
    ] {
        m.push(Metric::count(name, v));
    }
    // Wasted join work: candidates examined per complete body match.
    let per_match = st.join_candidates as f64 / st.join_matches.max(1) as f64;
    m.push(Metric::new(
        "ndlog.candidates_per_match",
        per_match,
        "ratio",
    ));

    // provenance: recording cost over bare evaluation, then extraction.
    let (replayed, initial_s) = sp.span("replay.initial", |_| exec.replay());
    let replayed = replayed?;
    m.push(secs("provenance.record_s", initial_s - eval_s));
    m.push(Metric::new(
        "provenance.record_ratio",
        initial_s / eval_s,
        "ratio",
    ));
    let records = match exec.provenance_backend {
        ProvBackend::Graph => replayed.graph().len() as u64,
        ProvBackend::Annot => replayed.annotations().stats().total(),
    };
    m.push(Metric::count("provenance.records", records));
    let (good_s, good_vertices) = extract(&mut sp, &replayed, &s.good_event)?;
    let (bad_s, bad_vertices) = extract(&mut sp, &replayed, &s.bad_event)?;
    let all = [good_s.as_slice(), bad_s.as_slice()].concat();
    m.push(secs("provenance.extract_s", median(&all)));
    m.push(secs(
        "provenance.extract_max_s",
        all.iter().copied().fold(0.0, f64::max),
    ));
    m.push(Metric::count(
        "provenance.tree_vertices_good",
        good_vertices as u64,
    ));
    m.push(Metric::count(
        "provenance.tree_vertices_bad",
        bad_vertices as u64,
    ));
    sp.span("provenance.drop", |_| drop(replayed));

    // diag: an untraced reference diagnosis, then the probe diagnosis
    // under spans; the ratio of the two is what tracing costs.
    let mut checker = Checker::default();
    let t = Instant::now();
    let reference = prepared.diagnose(None);
    let reference_s = t.elapsed().as_secs_f64();
    checker.check(&reference.report);
    drop(reference);
    sp.rep = 1;
    let (probe, probe_s) = sp.span("diag.rep", |sp| prepared.diagnose(Some(sp)));
    sp.rep = 0;
    checker.check(&probe.report);
    let report = probe.report?;

    // replay: the two replays a one-round diagnosis blocks on, apart.
    let bad_seed = report
        .bad_seed
        .as_ref()
        .ok_or_else(|| Error::Engine("report has no bad seed".into()))?;
    let inject_at = seed_due(exec, bad_seed).saturating_sub(1);
    let (_, apply_s) = sp.span("replay.apply_changes", |_| {
        apply_changes(&exec.log, &report.delta, inject_at)
    });
    let (updated, update_s) = sp.span("replay.update_tree", |_| {
        exec.replay_with(&report.delta, inject_at)
    });
    let updated = updated?;
    sp.span("provenance.drop", |_| drop(updated));
    let drop_s = median(&sp.seconds_of("provenance.drop"));
    m.push(secs("provenance.drop_s", drop_s));
    m.push(secs("replay.initial_s", initial_s));
    m.push(secs("replay.apply_changes_s", apply_s));
    m.push(secs("replay.update_tree_s", update_s));
    m.push(Metric::new(
        "replay.update_over_initial",
        update_s / initial_s,
        "ratio",
    ));

    m.extend(store_layer(
        &mut sp,
        &prepared,
        (digest, prov_events),
        &mut correct,
    )?);

    // core: DiffProv's own breakdown of the probe diagnosis.
    let dm = &report.metrics;
    m.push(secs("core.replay_s", dm.replay.as_secs_f64()));
    m.push(secs("core.find_seeds_s", dm.find_seeds.as_secs_f64()));
    m.push(secs(
        "core.detect_divergence_s",
        dm.detect_divergence.as_secs_f64(),
    ));
    m.push(secs("core.make_appear_s", dm.make_appear.as_secs_f64()));
    m.push(Metric::count("core.rounds", report.rounds.len() as u64));
    m.push(Metric::count("core.delta_size", report.delta.len() as u64));
    m.push(Metric::new(
        "core.reasoning_share",
        dm.reasoning().as_secs_f64() / probe_s,
        "ratio",
    ));

    // diag: what the layer lines leave unexplained of the probe
    // diagnosis. `core.replay_s` covers both replays (the UPDATETREE span
    // includes dropping the first recording) and the reasoning lines cover
    // the third extraction (inside the verify span); outside any of its
    // spans the diagnosis extracts the good and the bad tree and drops the
    // second recording on exit. The durable unit opens and loads first.
    let store_s: f64 = ["replay.layers.open", "replay.layers.load_log"]
        .iter()
        .flat_map(|name| sp.seconds_of(name))
        .sum();
    let attributed = store_s + dm.total().as_secs_f64() + median(&good_s) + median(&bad_s) + drop_s;
    m.push(secs("diag.probe_s", probe_s));
    m.push(secs("diag.unattributed_s", probe_s - attributed));
    m.push(Metric::new(
        "diag.probe_overhead_ratio",
        probe_s / reference_s,
        "ratio",
    ));
    // Layer lines are wall times; this says how slowed the machine was
    // while they were taken (start and end of the probe).
    let speed = calibrate::index(&speed_before, &calibrate::point(args.smoke));
    m.push(Metric::new("diag.probe_speed_index", speed, "ratio"));

    let trace = Json::obj([
        ("workload", Json::from(w.name)),
        ("seed", Json::from(args.seed)),
        ("smoke", Json::from(args.smoke)),
        ("nproc", Json::from(nproc())),
        ("engine_threads", Json::from(engine_threads as u64)),
        ("spans", sp.to_json()),
    ]);
    let path = args.out.join(format!("{}.trace.json", w.name));
    std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, format!("{trace}\n")))
        .map_err(|e| Error::Engine(format!("writing {}: {e}", path.display())))?;

    Ok(Outcome {
        correct: correct && checker.failed == 0,
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: m,
        // `nproc` and the engine's thread default are in the trace file.
        context: Vec::new(),
    })
}

/// Times `EXTRACTS` extractions of `event`'s tree; returns the durations
/// and the tree's vertex count.
fn extract(sp: &mut Spans, replayed: &Replayed, event: &QueryEvent) -> Result<(Vec<f64>, usize)> {
    let mut seconds = Vec::with_capacity(EXTRACTS);
    let mut vertices = 0;
    for _ in 0..EXTRACTS {
        let (tree, s) = sp.span("provenance.extract", |_| {
            replayed.query_at(&event.tref, event.at)
        });
        let tree =
            tree.ok_or_else(|| Error::Engine(format!("{} has no provenance", event.tref)))?;
        vertices = tree.len();
        seconds.push(s);
    }
    Ok((seconds, vertices))
}

/// The due time of the seed's base event in the log, as `diagnose`
/// computes it to place UPDATETREE's insertions.
fn seed_due(exec: &Execution, seed: &TupleRef) -> LogicalTime {
    let events = exec.log.events();
    events
        .iter()
        .find(|e| e.node == seed.node && e.tuple == seed.tuple)
        .map_or(0, |e| e.due)
}

/// replay.layers: the durable store's write, read and recovery paths and
/// its space. Only `campus_durable` touches the store; on the other
/// workloads the layer does no work and every line reads 0.
fn store_layer(
    sp: &mut Spans,
    prepared: &Prepared,
    stream: (u64, u64),
    correct: &mut bool,
) -> Result<Vec<Metric>> {
    const LINES: [(&str, &str); 12] = [
        ("spill_s", "s"),
        ("seal_s", "s"),
        ("open_s", "s"),
        ("load_log_s", "s"),
        ("recover_s", "s"),
        ("cold_replay_s", "s"),
        ("layer_bytes", "bytes"),
        ("checkpoint_bytes", "bytes"),
        ("bytes_per_event", "bytes"),
        ("layer_files", "count"),
        ("checkpoint_files", "count"),
        ("tail_events", "count"),
    ];
    let values = match &prepared.store {
        Some((store, reference)) => {
            measure_store(sp, prepared, store, *reference, stream, correct)?
        }
        None => [0.0; 12],
    };
    let lines = LINES.iter().zip(values);
    Ok(lines
        .map(|((name, unit), v)| Metric::new(&format!("replay.layers.{name}"), v, unit))
        .collect())
}

/// The values of `store_layer`'s lines, in their order.
fn measure_store(
    sp: &mut Spans,
    prepared: &Prepared,
    store: &DurableStore,
    reference: (u64, u64),
    stream: (u64, u64),
    correct: &mut bool,
) -> Result<[f64; 12]> {
    let exec = &prepared.campus.scenario.bad_exec;

    // Write path without the checkpointing replay: sealing alone.
    let mut fresh = DurableStore::temp()?;
    let events = exec.log.events();
    let (sealed, seal_s) = sp.span("replay.layers.seal", |_| {
        events
            .chunks(default_layer_events())
            .try_for_each(|chunk| fresh.seal_events(chunk).map(drop))
    });
    sealed?;
    drop(fresh);

    // Recovery through the newest checkpoint, against the crash-free
    // reference; then from layers alone, against the uncut stream.
    let recover = |sp: &mut Spans, span: &'static str, store: &DurableStore, expect: (u64, u64)| {
        let (got, s) = sp.span(span, |_| {
            DurableStore::open(store.dir()).and_then(|opened| exec.recovered_stream_digest(&opened))
        });
        let matches = got? == expect;
        if !matches {
            eprintln!("diagbench: {span}: recovered stream digest differs from its reference");
        }
        Ok::<(f64, bool), Error>((s, matches))
    };
    let (recover_s, recovered) = recover(sp, "replay.layers.recover", store, reference)?;
    let (cold, _) = sp.span("replay.layers.spill_uncut", |_| exec.spill_temp(0));
    let (cold_store, cold_reference) = cold?;
    if cold_reference != stream {
        eprintln!("diagbench: an uncut spill's reference differs from stream_digest");
    }
    let (cold_replay_s, cold_recovered) =
        recover(sp, "replay.layers.cold_replay", &cold_store, cold_reference)?;
    *correct &= recovered && cold_recovered && cold_reference == stream;

    let cut = store.latest_checkpoint().map(|cp| cp.cut);
    let tail_events = events
        .iter()
        .filter(|e| cut.is_none_or(|cut| e.due > cut))
        .count();
    Ok([
        sp.seconds_of("replay.layers.spill")[0],
        seal_s,
        sp.seconds_of("replay.layers.open")[0],
        sp.seconds_of("replay.layers.load_log")[0],
        recover_s,
        cold_replay_s,
        store.layer_bytes() as f64,
        store.checkpoint_bytes() as f64,
        store.total_bytes() as f64 / store.event_count().max(1) as f64,
        store.layer_count() as f64,
        store.checkpoint_count() as f64,
        tail_events as f64,
    ])
}
