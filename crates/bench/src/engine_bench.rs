//! Engine throughput benchmark: hash-indexed vs. naive nested-loop joins
//! and batched vs. tuple-at-a-time rule firing on the §6.7 campus
//! workload, plus cross-mode parity checks on every scenario.
//!
//! The results are written to `BENCH_engine.json` by `repro -- enginebench`
//! so the engine's perf trajectory is machine-readable across revisions.

use std::sync::Arc;

use dp_metrics::Metrics;
use dp_ndlog::{Engine, HashSink, Program, VecSink};
use dp_trace::Tracer;
use dp_replay::{BaseOp, Execution};
use dp_sdn::{campus, CampusConfig};
use dp_types::{FieldType, NodeId, Result, Schema, SchemaRegistry, Tuple};

/// Timing and counters for one indexed-vs-naive comparison run.
#[derive(Clone, Debug)]
pub struct EngineBenchResult {
    /// Configured forwarding/ACL entries in the campus network.
    pub entries: usize,
    /// Background packets streamed through the network.
    pub background_packets: usize,
    /// Wall time of the batched indexed replay (seconds) — the default
    /// engine configuration, prefix trie enabled.
    pub indexed_secs: f64,
    /// Wall time of the indexed replay with tuple-at-a-time firing
    /// (seconds), prefix trie enabled.
    pub unbatched_secs: f64,
    /// Wall time of the batched indexed replay with the prefix trie
    /// disabled (seconds) — the PR 2 baseline, where the `fwd` rule scans
    /// every flow entry per packet.
    pub scan_secs: f64,
    /// Wall time of the trie-disabled, tuple-at-a-time replay (seconds).
    pub unbatched_scan_secs: f64,
    /// Wall time of the naive nested-loop, tuple-at-a-time replay
    /// (seconds).
    pub naive_secs: f64,
    /// Events processed during the replay (identical in all modes).
    pub events: u64,
    /// Join steps answered by an index probe (batched indexed run).
    pub join_probes: u64,
    /// Join steps that fell back to a table scan (batched indexed run).
    pub join_scans: u64,
    /// Join steps answered by a prefix-trie walk (batched indexed run).
    pub trie_probes: u64,
    /// Trie-eligible steps forced to scan in the trie-disabled run.
    pub trie_scans: u64,
    /// Fraction of join steps answered by a probe (batched indexed run).
    pub index_hit_rate: f64,
    /// Delta batches flushed by the batched run.
    pub batches: u64,
    /// Deltas fired through those batches.
    pub batched_deltas: u64,
    /// High-water mark of live tuples across all nodes.
    pub peak_tuples: u64,
    /// High-water mark of *interned* tuples — the honest memory signal: it
    /// counts every distinct allocation the run held at a quiescent point,
    /// including tuples that later died, where `peak_tuples` only counts
    /// tuples currently alive in node states.
    pub peak_interned: u64,
    /// Whether all five runs emitted byte-identical provenance streams.
    pub streams_identical: bool,
}

impl EngineBenchResult {
    /// Naive time over batched indexed time.
    pub fn speedup(&self) -> f64 {
        self.naive_secs / self.indexed_secs.max(1e-12)
    }

    /// Tuple-at-a-time indexed time over batched indexed time — what
    /// delta batching alone buys on top of indexed joins.
    pub fn batch_speedup(&self) -> f64 {
        self.unbatched_secs / self.indexed_secs.max(1e-12)
    }

    /// Trie-disabled time over trie-enabled time, batched discipline —
    /// what the prefix-trie access path buys end-to-end.
    pub fn trie_speedup(&self) -> f64 {
        self.scan_secs / self.indexed_secs.max(1e-12)
    }

    /// Trie-disabled time over trie-enabled time, tuple-at-a-time
    /// discipline.
    pub fn unbatched_trie_speedup(&self) -> f64 {
        self.unbatched_scan_secs / self.unbatched_secs.max(1e-12)
    }

    /// Engine throughput of the batched indexed run, in events per second.
    pub fn tuples_per_sec(&self) -> f64 {
        self.events as f64 / self.indexed_secs.max(1e-12)
    }
}

/// Cross-mode agreement on one scenario: vertex counts of the good and
/// bad provenance trees (the Table 1 inputs) and stream equality.
#[derive(Clone, Debug)]
pub struct ScenarioParity {
    /// Scenario name ("SDN1", ..., "MR2-I", "campus").
    pub name: String,
    /// Good-tree vertex count (identical in every mode or the run fails).
    pub good_vertexes: usize,
    /// Bad-tree vertex count.
    pub bad_vertexes: usize,
    /// Whether batched-indexed, unbatched-indexed, and naive replays
    /// emitted identical event streams and identical tree sizes, for both
    /// the good and the bad execution.
    pub identical: bool,
}

/// Replays `exec` into a buffering sink, timing only the evaluation loop.
/// Runs `runs` times and reports the best time (the shared machines the
/// benchmark runs on are noisy; the minimum is the least-perturbed run).
///
/// Timing comes from a per-run private [`Metrics`] registry rather than a
/// bespoke stopwatch: each run's seconds are the `dp_engine_run_seconds`
/// histogram sum, so the BENCH legs are derived from the very same
/// quantity a `/metrics` scrape reports — one producer, no double
/// accounting between the trace aggregate and the registry. The engine's
/// tracer is still pinned to aggregate-only so a `DP_TRACE` full default
/// never makes the benchmark pay event buffering.
fn timed_replay(
    exec: &Execution,
    naive: bool,
    unbatched: bool,
    no_trie: bool,
    runs: usize,
) -> Result<(Engine<VecSink>, f64)> {
    let mut best: Option<(Engine<VecSink>, f64)> = None;
    for _ in 0..runs.max(1) {
        let mut eng = Engine::new(Arc::clone(&exec.program), VecSink::default());
        eng.set_naive_join(naive);
        eng.set_unbatched(unbatched);
        eng.set_no_trie(no_trie);
        eng.set_tracer(Tracer::aggregate_only());
        let metrics = Metrics::enabled();
        eng.set_metrics(metrics.clone());
        exec.log.schedule_into(&mut eng, None)?;
        eng.run()?;
        let secs = run_seconds(&metrics);
        if best.as_ref().is_none_or(|(_, b)| secs < *b) {
            best = Some((eng, secs));
        }
    }
    Ok(best.expect("at least one run"))
}

/// The `dp_engine_run_seconds` total of a private per-run registry — the
/// one timing source every BENCH leg reads.
fn run_seconds(metrics: &Metrics) -> f64 {
    metrics
        .snapshot()
        .histogram("dp_engine_run_seconds", &[])
        .map_or(0.0, |h| h.sum_secs())
}

/// Runs the campus workload at benchmark scale in both join modes.
///
/// `bulk_entries_per_router` is chosen so the network holds at least
/// `min_entries` forwarding/ACL entries (the paper's setup has 757 k; the
/// acceptance bar here is 100 k+). Background traffic is kept small so the
/// measurement isolates rule evaluation over large tables rather than
/// packet-count scaling (which is linear and identical in both modes).
pub fn engine_bench(min_entries: usize, background_packets: usize) -> Result<EngineBenchResult> {
    // entries ≈ 16 routers × 15 zones × (1 + bulk); solve for bulk.
    let per_bulk = 16 * 15;
    let bulk = min_entries / per_bulk + 1;
    let cfg = CampusConfig {
        bulk_entries_per_router: bulk,
        background_packets,
        ..Default::default()
    };
    let c = campus(&cfg);
    let exec = &c.scenario.bad_exec;

    // One untimed warmup so the first timed leg doesn't pay the cold
    // page-cache / allocator penalty the later legs inherit for free.
    timed_replay(exec, false, false, false, 1)?;
    let (indexed, indexed_secs) = timed_replay(exec, false, false, false, 5)?;
    let (unbatched, unbatched_secs) = timed_replay(exec, false, true, false, 5)?;
    let (scan, scan_secs) = timed_replay(exec, false, false, true, 5)?;
    let (unbatched_scan, unbatched_scan_secs) = timed_replay(exec, false, true, true, 5)?;
    let (naive, naive_secs) = timed_replay(exec, true, true, false, 5)?;
    let streams_identical = indexed.sink().events == unbatched.sink().events
        && indexed.sink().events == scan.sink().events
        && indexed.sink().events == unbatched_scan.sink().events
        && indexed.sink().events == naive.sink().events;
    let stats = indexed.stats();
    Ok(EngineBenchResult {
        entries: c.entry_count,
        background_packets,
        indexed_secs,
        unbatched_secs,
        scan_secs,
        unbatched_scan_secs,
        naive_secs,
        events: stats.events,
        join_probes: stats.join_probes,
        join_scans: stats.join_scans,
        trie_probes: stats.trie_probes,
        trie_scans: scan.stats().trie_scans,
        index_hit_rate: stats.index_hit_rate(),
        batches: stats.batches,
        batched_deltas: stats.batched_deltas,
        peak_tuples: stats.peak_tuples,
        peak_interned: stats.peak_interned,
        streams_identical,
    })
}

/// Result of the provenance-backend benchmark: the campus workload
/// recorded into the full temporal graph vs. the compact annotation
/// store, plus the price of reconstructing proof trees on demand.
#[derive(Clone, Debug)]
pub struct ProvBenchResult {
    /// Configured forwarding/ACL entries in the campus network.
    pub entries: usize,
    /// Background packets streamed through the network.
    pub background_packets: usize,
    /// Provenance records held live by the graph backend at quiescence:
    /// every vertex of the temporal graph plus its episode-index entries
    /// and extra-support references. The graph is append-only, so this is
    /// also its peak.
    pub graph_records: u64,
    /// Records held live by the annotation backend: one annotation per
    /// episode plus the body references of report-mode derivations.
    pub annot_records: u64,
    /// Wall time of the replay recording into the graph (seconds).
    pub graph_record_secs: f64,
    /// Wall time of the replay recording into the annotation store
    /// (seconds).
    pub annot_record_secs: f64,
    /// Proof trees sampled for the reconstruction-latency measurement.
    pub trees_sampled: usize,
    /// Mean on-demand reconstruction latency per tree (milliseconds).
    pub reconstruct_avg_ms: f64,
    /// Worst sampled reconstruction latency (milliseconds).
    pub reconstruct_max_ms: f64,
    /// Mean graph-extraction latency over the same trees (milliseconds) —
    /// the price the graph backend pays for the same query.
    pub extract_avg_ms: f64,
    /// Whether every sampled reconstruction rendered byte-identically to
    /// the graph extraction.
    pub trees_match: bool,
}

impl ProvBenchResult {
    /// Graph records over annotation records — how much smaller the
    /// compact backend's live state is (the §6.4 storage argument; the
    /// acceptance bar is ≥5x on the 100 k campus leg).
    pub fn reduction(&self) -> f64 {
        self.graph_records as f64 / (self.annot_records.max(1)) as f64
    }
}

/// The provenance-backend benchmark: one campus replay per backend, then
/// `samples` proof trees reconstructed from annotations and cross-checked
/// against graph extraction, with per-tree latency.
pub fn prov_bench(
    min_entries: usize,
    background_packets: usize,
    samples: usize,
) -> Result<ProvBenchResult> {
    use dp_provenance::{extract_tree, reconstruct_tree, AnnotRecorder, GraphRecorder};
    use dp_types::TupleRef;

    let per_bulk = 16 * 15;
    let cfg = CampusConfig {
        bulk_entries_per_router: min_entries / per_bulk + 1,
        background_packets,
        // A long-running network updates its state: four rounds of route
        // withdrawal/re-advertisement and traffic turnover. Every cycle
        // costs the graph a DELETE/UNDERIVE + DISAPPEAR and a fresh
        // INSERT/DERIVE + APPEAR + EXIST chain per affected tuple; the
        // annotation store closes the old interval in place and adds one
        // record for the new episode.
        update_churn_rounds: 4,
        ..Default::default()
    };
    let c = campus(&cfg);
    let exec = &c.scenario.bad_exec;

    let run = |sink_is_graph: bool| -> Result<(Option<dp_provenance::ProvGraph>, Option<dp_provenance::AnnotationStore>, f64)> {
        let metrics = Metrics::enabled();
        if sink_is_graph {
            let mut eng = Engine::new(Arc::clone(&exec.program), GraphRecorder::new());
            eng.set_unbatched(false);
            eng.set_tracer(Tracer::aggregate_only());
            eng.set_metrics(metrics.clone());
            exec.log.schedule_into(&mut eng, None)?;
            eng.run()?;
            let secs = run_seconds(&metrics);
            Ok((Some(eng.into_sink().finish()), None, secs))
        } else {
            let mut eng = Engine::new(
                Arc::clone(&exec.program),
                AnnotRecorder::new(Arc::clone(&exec.program)),
            );
            eng.set_unbatched(false);
            eng.set_tracer(Tracer::aggregate_only());
            eng.set_metrics(metrics.clone());
            exec.log.schedule_into(&mut eng, None)?;
            eng.run()?;
            let secs = run_seconds(&metrics);
            Ok((None, Some(eng.into_sink().finish()), secs))
        }
    };
    let (graph, _, graph_record_secs) = run(true)?;
    let (_, store, annot_record_secs) = run(false)?;
    let graph = graph.expect("graph leg ran");
    let store = store.expect("annot leg ran");

    // Sample query points evenly across every episode of every tuple the
    // graph saw, and time reconstruction against extraction on each.
    let mut points: Vec<(TupleRef, u64)> = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    let mut graph_index_records = 0u64;
    for v in graph.vertices() {
        let tref = TupleRef::new(v.node.clone(), Arc::clone(&v.tuple));
        if !seen.insert(tref.clone()) {
            continue;
        }
        for ep in graph.episodes(&tref) {
            graph_index_records += 1 + ep.extra_support.len() as u64;
            points.push((tref.clone(), ep.start));
        }
    }
    let stride = (points.len() / samples.max(1)).max(1);
    let mut recon_total = 0.0f64;
    let mut recon_max = 0.0f64;
    let mut extract_total = 0.0f64;
    let mut sampled = 0usize;
    let mut trees_match = true;
    for (tref, at) in points.iter().step_by(stride).take(samples) {
        let t0 = std::time::Instant::now();
        let got = reconstruct_tree(&store, tref, *at);
        let recon = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = std::time::Instant::now();
        let want = extract_tree(&graph, tref, *at);
        extract_total += t1.elapsed().as_secs_f64() * 1e3;
        recon_total += recon;
        recon_max = recon_max.max(recon);
        sampled += 1;
        trees_match &= match (&want, &got) {
            (Some(w), Some(g)) => w.render() == g.render(),
            (None, None) => true,
            _ => false,
        };
    }
    Ok(ProvBenchResult {
        entries: c.entry_count,
        background_packets,
        graph_records: graph.stats().total() + graph_index_records,
        annot_records: store.stats().total(),
        graph_record_secs,
        annot_record_secs,
        trees_sampled: sampled,
        reconstruct_avg_ms: recon_total / sampled.max(1) as f64,
        reconstruct_max_ms: recon_max,
        extract_avg_ms: extract_total / sampled.max(1) as f64,
        trees_match,
    })
}

/// Result of the durable-store benchmark: the campus workload sealed into
/// on-disk layer files with durable checkpoints, then "killed" and
/// recovered from the directory alone. All byte figures are real file
/// sizes, not storage-model estimates.
#[derive(Clone, Debug)]
pub struct DurableBenchResult {
    /// Configured forwarding/ACL entries in the campus network.
    pub entries: usize,
    /// Background packets streamed through the network.
    pub background_packets: usize,
    /// Base events sealed into the layer stack.
    pub events: u64,
    /// Immutable layer files written.
    pub layer_files: usize,
    /// Durable checkpoint files written.
    pub checkpoint_files: usize,
    /// Total on-disk bytes of the layer files.
    pub layer_bytes: u64,
    /// Total on-disk bytes of the checkpoint files.
    pub checkpoint_bytes: u64,
    /// Wall time of the spill: the checkpointing reference replay that
    /// seals every layer and writes every checkpoint (seconds).
    pub spill_secs: f64,
    /// Wall time of recovery: reopen the store from disk (checksum-verify
    /// every file), restore the newest checkpoint and replay the on-disk
    /// tail (seconds).
    pub recovery_secs: f64,
    /// Wall time of a checkpoint-free recovery over the same store —
    /// reopen plus a full replay of the whole layer stack (seconds).
    pub cold_replay_secs: f64,
    /// Provenance events past the newest checkpoint — what recovery
    /// actually re-evaluates.
    pub tail_events: u64,
    /// Provenance events in the full stream.
    pub stream_events: u64,
    /// Whether the recovered stream digest is bit-identical to the
    /// crash-free reference run.
    pub digest_match: bool,
}

impl DurableBenchResult {
    /// Real on-disk layer bytes per base event.
    pub fn bytes_per_event(&self) -> f64 {
        self.layer_bytes as f64 / (self.events.max(1)) as f64
    }

    /// Cold full-replay recovery time over checkpointed recovery time —
    /// what the durable checkpoints buy at restart.
    pub fn recovery_speedup(&self) -> f64 {
        self.cold_replay_secs / self.recovery_secs.max(1e-12)
    }
}

/// The durable-store benchmark: spill the campus workload to disk with
/// checkpoints every `checkpoint_every` base events, forget all in-memory
/// state, and time the recovery path against a cold full replay.
pub fn durable_bench(
    min_entries: usize,
    background_packets: usize,
    checkpoint_every: usize,
) -> Result<DurableBenchResult> {
    use dp_replay::DurableStore;

    let per_bulk = 16 * 15;
    let cfg = CampusConfig {
        bulk_entries_per_router: min_entries / per_bulk + 1,
        background_packets,
        ..Default::default()
    };
    let c = campus(&cfg);
    let exec = &c.scenario.bad_exec;

    let t0 = std::time::Instant::now();
    let (store, reference) = exec.spill_temp(checkpoint_every)?;
    let spill_secs = t0.elapsed().as_secs_f64();

    let tail_events = store
        .latest_checkpoint()
        .map_or(reference.1, |cp| reference.1 - cp.count);

    // Recovery: reopen from the directory alone (checksums verified on
    // open), restore the newest checkpoint, replay the on-disk tail.
    let t1 = std::time::Instant::now();
    let reopened = DurableStore::open(store.dir())?;
    let recovered = exec.recovered_stream_digest(&reopened)?;
    let recovery_secs = t1.elapsed().as_secs_f64();

    // The checkpoint-free baseline: reopen and replay the whole stack.
    let cold = exec.spill_temp(0)?;
    let t2 = std::time::Instant::now();
    let cold_reopened = DurableStore::open(cold.0.dir())?;
    let cold_digest = exec.recovered_stream_digest(&cold_reopened)?;
    let cold_replay_secs = t2.elapsed().as_secs_f64();

    Ok(DurableBenchResult {
        entries: c.entry_count,
        background_packets,
        events: store.event_count(),
        layer_files: store.layer_count(),
        checkpoint_files: store.checkpoint_count(),
        layer_bytes: store.layer_bytes(),
        checkpoint_bytes: store.checkpoint_bytes(),
        spill_secs,
        recovery_secs,
        cold_replay_secs,
        tail_events,
        stream_events: reference.1,
        digest_match: recovered == reference && cold_digest == cold.1,
    })
}

/// Result of the bulk-load benchmark: the campus configuration push with
/// no traffic, the workload delta batching targets.
#[derive(Clone, Debug)]
pub struct LoadBenchResult {
    /// Forwarding/ACL entries pushed.
    pub entries: usize,
    /// Wall time with delta batching (seconds).
    pub batched_secs: f64,
    /// Wall time with tuple-at-a-time firing (seconds).
    pub streamed_secs: f64,
    /// Join steps run by the batched engine (pruned groups excluded).
    pub batched_steps: u64,
    /// Join steps run by the streaming engine.
    pub streamed_steps: u64,
    /// Whether both runs emitted byte-identical provenance streams.
    pub streams_identical: bool,
}

impl LoadBenchResult {
    /// Streamed time over batched time.
    pub fn batch_speedup(&self) -> f64 {
        self.streamed_secs / self.batched_secs.max(1e-12)
    }
}

/// The firing-discipline benchmark: the campus configuration push (100 k+
/// `cfgEntry` inserts at one timestamp, and the 100 k+ `flowEntry`
/// derivations they trigger) with no packet traffic.
///
/// The end-to-end campus replay is dominated by the `fwd` rule's
/// longest-prefix scans, which cost the same under either discipline, so
/// it bounds the batching gap near 1x. This benchmark isolates the phase
/// batching targets: during the load, every delta's only rule has an
/// empty partner table (the switches' `switchUp`/`pktAt` tables fill
/// later), so the batched flush prunes whole delta groups where the
/// streaming engine attempts a trigger match and a doomed join per tuple.
pub fn load_bench(min_entries: usize) -> Result<LoadBenchResult> {
    let per_bulk = 16 * 15;
    let cfg = CampusConfig {
        bulk_entries_per_router: min_entries / per_bulk + 1,
        background_packets: 0,
        ..Default::default()
    };
    let c = campus(&cfg);
    let exec = &c.scenario.bad_exec;

    timed_replay(exec, false, false, false, 1)?; // warmup, untimed
    let (batched, batched_secs) = timed_replay(exec, false, false, false, 5)?;
    let (streamed, streamed_secs) = timed_replay(exec, false, true, false, 5)?;
    Ok(LoadBenchResult {
        entries: c.entry_count,
        batched_secs,
        streamed_secs,
        batched_steps: batched.stats().join_probes + batched.stats().join_scans,
        streamed_steps: streamed.stats().join_probes + streamed.stats().join_scans,
        streams_identical: batched.sink().events == streamed.sink().events,
    })
}

/// Result of the FIB-lookup join benchmark: the equality join the index
/// planner targets, run over the campus forwarding table.
#[derive(Clone, Debug)]
pub struct FibBenchResult {
    /// Forwarding entries in the joined table (taken from the campus log).
    pub entries: usize,
    /// Lookup queries streamed through the join.
    pub queries: usize,
    /// Wall time with hash-indexed joins (seconds).
    pub indexed_secs: f64,
    /// Wall time with naive nested-loop joins (seconds).
    pub naive_secs: f64,
    /// Join candidates examined by the indexed run.
    pub indexed_candidates: u64,
    /// Join candidates examined by the naive run.
    pub naive_candidates: u64,
    /// Whether both runs emitted byte-identical provenance streams.
    pub streams_identical: bool,
}

impl FibBenchResult {
    /// Naive time over indexed time.
    pub fn speedup(&self) -> f64 {
        self.naive_secs / self.indexed_secs.max(1e-12)
    }
}

/// The join-bound benchmark: FIB lookups against the campus forwarding
/// table.
///
/// The campus end-to-end replay is dominated by per-event costs and by the
/// `fwd` rule's longest-prefix matching, which is constraint-bound (no
/// column of `flowEntry` is equality-bound by a packet), so it bounds the
/// campus wall-clock gap at the `install` rule's share. This benchmark
/// isolates the access path the planner actually optimizes: an equality
/// join `fib(@C, Rid, Pt) :- query(@C, Sw, Dst), cfgEntry(@C, Rid, Sw,
/// Prio, SM, Dst, Pt)` keyed on (switch, destination prefix), over the
/// *real* campus `cfgEntry` tuples. Naive evaluation scans all `entries`
/// rows per lookup — quadratic; the planner probes one hash bucket.
pub fn fib_bench(min_entries: usize, queries: usize) -> Result<FibBenchResult> {
    let per_bulk = 16 * 15;
    let cfg = CampusConfig {
        bulk_entries_per_router: min_entries / per_bulk + 1,
        background_packets: 0,
        ..Default::default()
    };
    let c = campus(&cfg);

    let mut reg = SchemaRegistry::new();
    use dp_types::TableKind::*;
    reg.declare(
        Schema::new(
            "cfgEntry",
            MutableBase,
            [
                ("rid", FieldType::Int),
                ("sw", FieldType::Str),
                ("prio", FieldType::Int),
                ("srcMatch", FieldType::Prefix),
                ("dstMatch", FieldType::Prefix),
                ("port", FieldType::Int),
            ],
        )
        .with_key([0]),
    );
    reg.declare(Schema::new(
        "query",
        ImmutableBase,
        [("sw", FieldType::Str), ("dst", FieldType::Prefix)],
    ));
    reg.declare(Schema::new(
        "fib",
        Derived,
        [("rid", FieldType::Int), ("port", FieldType::Int)],
    ));
    let program: Arc<Program> = Program::builder(reg)
        .rules_text(
            "lkup fib(@C, Rid, Pt) :- query(@C, Sw, Dst), \
             cfgEntry(@C, Rid, Sw, Prio, SM, Dst, Pt).",
        )?
        .build()?;

    // The real campus forwarding state, straight from the scenario log.
    let ctl = NodeId::new("ctl");
    let entries: Vec<Tuple> = c
        .scenario
        .bad_exec
        .log
        .events()
        .iter()
        .filter(|e| e.op == BaseOp::Insert && e.tuple.table.as_str() == "cfgEntry")
        .map(|e| e.tuple.clone())
        .collect();
    let mut exec = Execution::new(program);
    for (i, t) in entries.iter().enumerate() {
        exec.log.insert(10 + i as u64, ctl.clone(), t.clone());
    }
    // Lookups spread deterministically across the table: every query keys
    // on an existing (switch, dstMatch) pair, so each probe hits.
    let stride = (entries.len() / queries.max(1)).max(1);
    let base = 10 + entries.len() as u64;
    for (qi, t) in entries.iter().step_by(stride).take(queries).enumerate() {
        exec.log.insert(
            base + qi as u64,
            ctl.clone(),
            Tuple::new("query", vec![t.args[1].clone(), t.args[4].clone()]),
        );
    }

    let (indexed, indexed_secs) = timed_replay(&exec, false, false, false, 3)?;
    let (naive, naive_secs) = timed_replay(&exec, true, false, false, 3)?;
    Ok(FibBenchResult {
        entries: entries.len(),
        queries,
        indexed_secs,
        naive_secs,
        indexed_candidates: indexed.stats().join_candidates,
        naive_candidates: naive.stats().join_candidates,
        streams_identical: indexed.sink().events == naive.sink().events,
    })
}

/// Replays one execution in five engine configurations — batched indexed
/// (the default, trie on), tuple-at-a-time indexed, both with the prefix
/// trie disabled, and tuple-at-a-time naive — and checks stream equality
/// across the lot.
fn exec_parity(exec: &Execution) -> Result<bool> {
    let (indexed, _) = timed_replay(exec, false, false, false, 1)?;
    let (unbatched, _) = timed_replay(exec, false, true, false, 1)?;
    let (scan, _) = timed_replay(exec, false, false, true, 1)?;
    let (unbatched_scan, _) = timed_replay(exec, false, true, true, 1)?;
    let (naive, _) = timed_replay(exec, true, true, false, 1)?;
    Ok(indexed.sink().events == unbatched.sink().events
        && indexed.sink().events == scan.sink().events
        && indexed.sink().events == unbatched_scan.sink().events
        && indexed.sink().events == naive.sink().events)
}

/// Tree vertex count for an event, replayed with the given join mode and
/// firing discipline.
fn tree_len(
    exec: &Execution,
    event: &diffprov_core::QueryEvent,
    naive: bool,
    unbatched: bool,
    no_trie: bool,
) -> Result<Option<usize>> {
    let mut exec = exec.clone();
    exec.naive_join = naive;
    exec.unbatched = unbatched;
    exec.no_trie = no_trie;
    let replayed = exec.replay()?;
    Ok(replayed.query_at(&event.tref, event.at).map(|t| t.len()))
}

/// Checks every scenario (the 8 Table 1 queries plus the campus network)
/// for agreement across join modes and firing disciplines.
pub fn scenario_parity() -> Result<Vec<ScenarioParity>> {
    let mut scenarios: Vec<diffprov_core::Scenario> = dp_sdn::all_sdn_scenarios();
    scenarios.extend(dp_mapreduce::all_mr_scenarios());
    scenarios.push(campus(&CampusConfig::default()).scenario);
    let mut out = Vec::new();
    for s in &scenarios {
        let good_i = tree_len(&s.good_exec, &s.good_event, false, false, false)?;
        let good_n = tree_len(&s.good_exec, &s.good_event, true, true, false)?;
        let good_u = tree_len(&s.good_exec, &s.good_event, false, true, false)?;
        let good_s = tree_len(&s.good_exec, &s.good_event, false, false, true)?;
        let bad_i = tree_len(&s.bad_exec, &s.bad_event, false, false, false)?;
        let bad_n = tree_len(&s.bad_exec, &s.bad_event, true, true, false)?;
        let bad_u = tree_len(&s.bad_exec, &s.bad_event, false, true, false)?;
        let bad_s = tree_len(&s.bad_exec, &s.bad_event, false, false, true)?;
        let identical = good_i == good_n
            && good_i == good_u
            && good_i == good_s
            && bad_i == bad_n
            && bad_i == bad_u
            && bad_i == bad_s
            && exec_parity(&s.good_exec)?
            && exec_parity(&s.bad_exec)?;
        out.push(ScenarioParity {
            name: s.name.to_string(),
            good_vertexes: good_i.unwrap_or(0),
            bad_vertexes: bad_i.unwrap_or(0),
            identical,
        });
    }
    Ok(out)
}

/// Enabled-vs-disabled cost of the metrics subsystem on a campus replay.
///
/// Both legs run the identical workload and are timed with the same
/// stopwatch (wall clock around the evaluation loop, best of `runs`), so
/// the ratio isolates the cost of live metric updates: counter/histogram
/// atomics per batch, the per-insert flow sketch, and the quiescence
/// interner sweep. The disabled leg carries an explicitly disabled
/// handle — one `Option` branch per would-be update, the provably-cheap
/// fast path.
#[derive(Clone, Debug)]
pub struct MetricsOverheadResult {
    /// Configured forwarding/ACL entries in the campus network.
    pub entries: usize,
    /// Background packets streamed through the network.
    pub background_packets: usize,
    /// Timed repetitions per leg (best time reported).
    pub runs: usize,
    /// Best replay seconds with metrics disabled.
    pub disabled_secs: f64,
    /// Best replay seconds with a live private registry attached.
    pub enabled_secs: f64,
    /// Metric families the enabled replay registered.
    pub metric_families: usize,
    /// Approximate distinct flows the enabled replay sketched.
    pub distinct_flows: u64,
    /// Whether both legs digested the identical provenance stream —
    /// metrics must be a strictly passive observer.
    pub streams_identical: bool,
}

impl MetricsOverheadResult {
    /// Enabled-over-disabled time ratio (1.0 = free).
    pub fn overhead_ratio(&self) -> f64 {
        self.enabled_secs / self.disabled_secs.max(1e-12)
    }
}

/// Measures the cost of enabling metrics on the campus workload: one leg
/// with an explicitly disabled handle, one with a fresh live registry per
/// run, both digesting their streams so passivity is checked, not assumed.
pub fn metrics_overhead_bench(
    min_entries: usize,
    background_packets: usize,
    runs: usize,
) -> Result<MetricsOverheadResult> {
    let per_bulk = 16 * 15;
    let cfg = CampusConfig {
        bulk_entries_per_router: min_entries / per_bulk + 1,
        background_packets,
        ..Default::default()
    };
    let c = campus(&cfg);
    let exec = &c.scenario.bad_exec;

    let leg = |metrics: &dyn Fn() -> Metrics| -> Result<(f64, u64, Metrics)> {
        let mut best = f64::INFINITY;
        let mut digest = 0u64;
        let mut last = Metrics::disabled();
        for _ in 0..runs.max(1) {
            let mut eng = Engine::new(Arc::clone(&exec.program), HashSink::default());
            eng.set_unbatched(false);
            eng.set_tracer(Tracer::aggregate_only());
            let m = metrics();
            eng.set_metrics(m.clone());
            exec.log.schedule_into(&mut eng, None)?;
            let t0 = std::time::Instant::now();
            eng.run()?;
            let secs = t0.elapsed().as_secs_f64();
            digest = eng.sink().digest();
            if secs < best {
                best = secs;
            }
            last = m;
        }
        Ok((best, digest, last))
    };

    // Warmup, untimed, so the first leg doesn't pay the cold caches.
    leg(&Metrics::disabled)?;
    let (disabled_secs, disabled_digest, _) = leg(&Metrics::disabled)?;
    let (enabled_secs, enabled_digest, m) = leg(&Metrics::enabled)?;
    let snap = m.snapshot();
    Ok(MetricsOverheadResult {
        entries: c.entry_count,
        background_packets,
        runs: runs.max(1),
        disabled_secs,
        enabled_secs,
        metric_families: snap.families.len(),
        distinct_flows: snap.hll_estimate("dp_engine_distinct_flows", &[]).round() as u64,
        streams_identical: disabled_digest == enabled_digest,
    })
}

/// Renders the benchmark results as a JSON document (hand-rolled; the
/// workspace builds offline, without serde).
pub fn to_json(
    bench: &EngineBenchResult,
    load: &LoadBenchResult,
    fib: &FibBenchResult,
    prov: Option<&ProvBenchResult>,
    durable: Option<&DurableBenchResult>,
    overhead: Option<&MetricsOverheadResult>,
    parity: &[ScenarioParity],
) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"bench\": \"ndlog-engine\",\n  \"campus\": {\n");
    s.push_str(&format!("    \"entries\": {},\n", bench.entries));
    s.push_str(&format!(
        "    \"background_packets\": {},\n",
        bench.background_packets
    ));
    s.push_str(&format!("    \"indexed_secs\": {:.6},\n", bench.indexed_secs));
    s.push_str(&format!(
        "    \"unbatched_secs\": {:.6},\n",
        bench.unbatched_secs
    ));
    s.push_str(&format!("    \"scan_secs\": {:.6},\n", bench.scan_secs));
    s.push_str(&format!(
        "    \"unbatched_scan_secs\": {:.6},\n",
        bench.unbatched_scan_secs
    ));
    s.push_str(&format!("    \"naive_secs\": {:.6},\n", bench.naive_secs));
    s.push_str(&format!("    \"speedup\": {:.2},\n", bench.speedup()));
    s.push_str(&format!(
        "    \"trie_speedup\": {:.2},\n",
        bench.trie_speedup()
    ));
    s.push_str(&format!(
        "    \"unbatched_trie_speedup\": {:.2},\n",
        bench.unbatched_trie_speedup()
    ));
    s.push_str(&format!(
        "    \"batch_speedup\": {:.2},\n",
        bench.batch_speedup()
    ));
    s.push_str(&format!("    \"batches\": {},\n", bench.batches));
    s.push_str(&format!(
        "    \"batched_deltas\": {},\n",
        bench.batched_deltas
    ));
    s.push_str(&format!("    \"events\": {},\n", bench.events));
    s.push_str(&format!(
        "    \"tuples_per_sec\": {:.0},\n",
        bench.tuples_per_sec()
    ));
    s.push_str(&format!("    \"join_probes\": {},\n", bench.join_probes));
    s.push_str(&format!("    \"join_scans\": {},\n", bench.join_scans));
    s.push_str(&format!("    \"trie_probes\": {},\n", bench.trie_probes));
    s.push_str(&format!("    \"trie_scans\": {},\n", bench.trie_scans));
    s.push_str(&format!(
        "    \"index_hit_rate\": {:.4},\n",
        bench.index_hit_rate
    ));
    s.push_str(&format!("    \"peak_tuples\": {},\n", bench.peak_tuples));
    s.push_str(&format!(
        "    \"peak_interned\": {},\n",
        bench.peak_interned
    ));
    s.push_str(&format!(
        "    \"streams_identical\": {}\n  }},\n",
        bench.streams_identical
    ));
    s.push_str("  \"bulk_load\": {\n");
    s.push_str(&format!("    \"entries\": {},\n", load.entries));
    s.push_str(&format!("    \"batched_secs\": {:.6},\n", load.batched_secs));
    s.push_str(&format!(
        "    \"streamed_secs\": {:.6},\n",
        load.streamed_secs
    ));
    s.push_str(&format!(
        "    \"batch_speedup\": {:.2},\n",
        load.batch_speedup()
    ));
    s.push_str(&format!("    \"batched_steps\": {},\n", load.batched_steps));
    s.push_str(&format!(
        "    \"streamed_steps\": {},\n",
        load.streamed_steps
    ));
    s.push_str(&format!(
        "    \"streams_identical\": {}\n  }},\n",
        load.streams_identical
    ));
    s.push_str("  \"fib_lookup\": {\n");
    s.push_str(&format!("    \"entries\": {},\n", fib.entries));
    s.push_str(&format!("    \"queries\": {},\n", fib.queries));
    s.push_str(&format!("    \"indexed_secs\": {:.6},\n", fib.indexed_secs));
    s.push_str(&format!("    \"naive_secs\": {:.6},\n", fib.naive_secs));
    s.push_str(&format!("    \"speedup\": {:.1},\n", fib.speedup()));
    s.push_str(&format!(
        "    \"indexed_candidates\": {},\n",
        fib.indexed_candidates
    ));
    s.push_str(&format!(
        "    \"naive_candidates\": {},\n",
        fib.naive_candidates
    ));
    s.push_str(&format!(
        "    \"streams_identical\": {}\n  }},\n",
        fib.streams_identical
    ));
    if let Some(p) = prov {
        s.push_str("  \"provenance_backend\": {\n");
        s.push_str(&format!("    \"entries\": {},\n", p.entries));
        s.push_str(&format!(
            "    \"background_packets\": {},\n",
            p.background_packets
        ));
        s.push_str(&format!("    \"graph_records\": {},\n", p.graph_records));
        s.push_str(&format!("    \"annot_records\": {},\n", p.annot_records));
        s.push_str(&format!("    \"reduction\": {:.2},\n", p.reduction()));
        s.push_str(&format!(
            "    \"graph_record_secs\": {:.6},\n",
            p.graph_record_secs
        ));
        s.push_str(&format!(
            "    \"annot_record_secs\": {:.6},\n",
            p.annot_record_secs
        ));
        s.push_str(&format!("    \"trees_sampled\": {},\n", p.trees_sampled));
        s.push_str(&format!(
            "    \"reconstruct_avg_ms\": {:.4},\n",
            p.reconstruct_avg_ms
        ));
        s.push_str(&format!(
            "    \"reconstruct_max_ms\": {:.4},\n",
            p.reconstruct_max_ms
        ));
        s.push_str(&format!(
            "    \"extract_avg_ms\": {:.4},\n",
            p.extract_avg_ms
        ));
        s.push_str(&format!("    \"trees_match\": {}\n  }},\n", p.trees_match));
    }
    if let Some(d) = durable {
        s.push_str("  \"durable_store\": {\n");
        s.push_str(&format!("    \"entries\": {},\n", d.entries));
        s.push_str(&format!(
            "    \"background_packets\": {},\n",
            d.background_packets
        ));
        s.push_str(&format!("    \"events\": {},\n", d.events));
        s.push_str(&format!("    \"layer_files\": {},\n", d.layer_files));
        s.push_str(&format!(
            "    \"checkpoint_files\": {},\n",
            d.checkpoint_files
        ));
        s.push_str(&format!("    \"layer_bytes\": {},\n", d.layer_bytes));
        s.push_str(&format!(
            "    \"checkpoint_bytes\": {},\n",
            d.checkpoint_bytes
        ));
        s.push_str(&format!(
            "    \"bytes_per_event\": {:.2},\n",
            d.bytes_per_event()
        ));
        s.push_str(&format!("    \"spill_secs\": {:.6},\n", d.spill_secs));
        s.push_str(&format!(
            "    \"recovery_secs\": {:.6},\n",
            d.recovery_secs
        ));
        s.push_str(&format!(
            "    \"cold_replay_secs\": {:.6},\n",
            d.cold_replay_secs
        ));
        s.push_str(&format!(
            "    \"recovery_speedup\": {:.2},\n",
            d.recovery_speedup()
        ));
        s.push_str(&format!("    \"tail_events\": {},\n", d.tail_events));
        s.push_str(&format!("    \"stream_events\": {},\n", d.stream_events));
        s.push_str(&format!(
            "    \"digest_match\": {}\n  }},\n",
            d.digest_match
        ));
    }
    if let Some(o) = overhead {
        s.push_str("  \"metrics_overhead\": {\n");
        s.push_str(&format!("    \"entries\": {},\n", o.entries));
        s.push_str(&format!(
            "    \"background_packets\": {},\n",
            o.background_packets
        ));
        s.push_str(&format!("    \"runs\": {},\n", o.runs));
        s.push_str(&format!(
            "    \"disabled_secs\": {:.6},\n",
            o.disabled_secs
        ));
        s.push_str(&format!("    \"enabled_secs\": {:.6},\n", o.enabled_secs));
        s.push_str(&format!(
            "    \"overhead_ratio\": {:.4},\n",
            o.overhead_ratio()
        ));
        s.push_str(&format!(
            "    \"metric_families\": {},\n",
            o.metric_families
        ));
        s.push_str(&format!(
            "    \"distinct_flows\": {},\n",
            o.distinct_flows
        ));
        s.push_str(&format!(
            "    \"streams_identical\": {}\n  }},\n",
            o.streams_identical
        ));
    }
    s.push_str("  \"parity\": [\n");
    for (i, p) in parity.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"good_vertexes\": {}, \"bad_vertexes\": {}, \"identical\": {}}}{}\n",
            p.name,
            p.good_vertexes,
            p.bad_vertexes,
            p.identical,
            if i + 1 < parity.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small-scale end-to-end run of the benchmark plumbing: streams
    /// must agree and the JSON must mention the headline figures.
    #[test]
    fn small_scale_bench_agrees() {
        let b = engine_bench(2_000, 10).expect("bench runs");
        assert!(b.entries >= 2_000);
        assert!(b.streams_identical);
        assert!(b.join_probes > 0);
        assert!(b.trie_probes > 0, "the fwd rule must probe the trie");
        assert!(b.trie_scans > 0, "the scan leg must fall back");
        assert!(b.batches > 0, "the default run must batch");
        assert!(b.batched_deltas >= b.batches);
        assert!(b.peak_interned > 0, "peak_interned must be accounted");
        let f = fib_bench(2_000, 20).expect("fib bench runs");
        assert!(f.entries >= 2_000);
        assert!(f.streams_identical);
        assert!(
            f.naive_candidates > f.indexed_candidates * 10,
            "naive {} vs indexed {}",
            f.naive_candidates,
            f.indexed_candidates
        );
        let l = load_bench(2_000).expect("load bench runs");
        assert!(l.entries >= 2_000);
        assert!(l.streams_identical);
        assert!(
            l.batched_steps < l.streamed_steps,
            "pruning must cut join steps: batched {} vs streamed {}",
            l.batched_steps,
            l.streamed_steps
        );
        let p = prov_bench(2_000, 10, 50).expect("prov bench runs");
        assert!(p.trees_sampled > 0);
        assert!(p.trees_match, "sampled reconstructions diverge");
        assert!(
            p.reduction() >= 5.0,
            "annotation store only {:.1}x smaller ({} vs {})",
            p.reduction(),
            p.graph_records,
            p.annot_records
        );
        let d = durable_bench(2_000, 10, 512).expect("durable bench runs");
        assert!(d.events > 0);
        assert!(d.layer_files > 0, "spill must seal layer files");
        assert!(d.checkpoint_files > 0, "spill must write checkpoints");
        assert!(d.layer_bytes > 0 && d.checkpoint_bytes > 0);
        assert!(d.digest_match, "recovery digest diverged from reference");
        assert!(
            d.tail_events < d.stream_events,
            "the newest checkpoint must cover a non-trivial prefix"
        );
        let o = metrics_overhead_bench(2_000, 10, 1).expect("overhead bench runs");
        assert!(
            o.streams_identical,
            "metrics perturbed the provenance stream"
        );
        assert!(o.metric_families > 0, "enabled leg registered nothing");
        assert!(o.distinct_flows > 0, "flow sketch saw no flows");
        let json = to_json(&b, &l, &f, Some(&p), Some(&d), Some(&o), &[]);
        assert!(json.contains("\"metrics_overhead\""));
        assert!(json.contains("\"overhead_ratio\""));
        assert!(json.contains("\"durable_store\""));
        assert!(json.contains("\"recovery_secs\""));
        assert!(json.contains("\"digest_match\": true"));
        assert!(json.contains("\"provenance_backend\""));
        assert!(json.contains("\"reconstruct_avg_ms\""));
        assert!(json.contains("\"reduction\""));
        assert!(json.contains("\"streams_identical\": true"));
        assert!(json.contains("\"fib_lookup\""));
        assert!(json.contains("\"entries\""));
        assert!(json.contains("\"unbatched_secs\""));
        assert!(json.contains("\"batch_speedup\""));
        assert!(json.contains("\"trie_speedup\""));
        assert!(json.contains("\"trie_probes\""));
        assert!(json.contains("\"peak_interned\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
