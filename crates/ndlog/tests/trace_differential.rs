//! Differential test of the dp-trace **determinism contract**: every
//! series but span wall time — counters, levels, size histograms and the
//! number of times each span closed — depends only on the program and its
//! input log, so two traced runs of one case leave equal aggregates.
//!
//! Alongside, the provenance stream of a traced run must be bit-identical
//! to a dark one — the handle is strictly passive; no process-wide switch
//! attaches a handle, so this file is where that is held. And the views of
//! one run cannot disagree: every [`Stats`] field equals its aggregate
//! entry. The corpus is the shared prefix-flavored program generator plus
//! all 9 repro scenarios, each also diagnosed end to end by DiffProv,
//! traced through the whole pipeline.

use std::collections::BTreeMap;
use std::sync::Arc;

use dp_ndlog::testsupport::{prefixgen, schedule_all, ScheduledOp};
use dp_ndlog::{Engine, Program, ProvEvent, Stats, VecSink};
use dp_trace::{Aggregate, Hist, Tracer};
use dp_types::DetRng;

/// The part of an aggregate the contract covers: everything but span wall
/// times, of which only each span's count is kept.
#[derive(Debug, PartialEq)]
struct Series {
    counters: BTreeMap<String, u64>,
    levels: BTreeMap<String, u64>,
    sizes: BTreeMap<String, Hist>,
    span_counts: BTreeMap<String, u64>,
}

impl Series {
    fn of(agg: Aggregate) -> Self {
        Series {
            span_counts: agg.spans.iter().map(|(name, h)| (name.clone(), h.count)).collect(),
            counters: agg.counters,
            levels: agg.levels,
            sizes: agg.sizes,
        }
    }
}

/// One run under an explicit handle: the stream, the engine's counters,
/// and the aggregate.
fn run_with(
    program: &Arc<Program>,
    ops: &[ScheduledOp],
    tracer: Tracer,
) -> (Vec<ProvEvent>, Stats, Aggregate) {
    let mut eng = Engine::new(Arc::clone(program), VecSink::default());
    eng.set_tracer(tracer.clone());
    schedule_all(&mut eng, ops);
    eng.run().unwrap();
    let stats = eng.stats();
    (eng.into_sink().events, stats, tracer.aggregate())
}

/// One case, dark and traced twice. The traced runs emit the dark run's
/// provenance stream byte for byte; they leave equal [`Series`]; and the
/// two views of a traced run — the engine's own [`Stats`] and the
/// tracer's aggregate — hold the same numbers.
fn assert_one_source(program: &Arc<Program>, ops: &[ScheduledOp], case: &str) {
    let (dark, _, _) = run_with(program, ops, Tracer::disabled());
    let (events, s, agg) = run_with(program, ops, Tracer::aggregate_only());
    assert_eq!(dark, events, "{case}: stream moves under tracing");
    let (_, _, again) = run_with(program, ops, Tracer::aggregate_only());
    type Read = fn(&Aggregate, &str) -> u64;
    let rows: [(u64, &str, Read); 15] = [
        (s.events, "engine.events", Aggregate::counter),
        (s.base_inserts, "engine.base_inserts", Aggregate::counter),
        (s.base_deletes, "engine.base_deletes", Aggregate::counter),
        (s.derivations, "engine.derivations", Aggregate::counter),
        (s.underivations, "engine.underivations", Aggregate::counter),
        (s.join_probes, "engine.join_probes", Aggregate::counter),
        (s.join_scans, "engine.join_scans", Aggregate::counter),
        (s.trie_probes, "engine.trie_probes", Aggregate::counter),
        (s.trie_scans, "engine.trie_scans", Aggregate::counter),
        (s.join_candidates, "engine.join_candidates", Aggregate::counter),
        (s.join_matches, "engine.join_matches", Aggregate::counter),
        (s.batches, "engine.batches", Aggregate::counter),
        (s.batched_deltas, "engine.batched_deltas", Aggregate::counter),
        (s.peak_tuples, "engine.peak_tuples", Aggregate::level),
        (s.peak_interned, "engine.peak_interned", Aggregate::level),
    ];
    for (field, name, read) in rows {
        assert_eq!(field, read(&agg, name), "{case}: Stats vs aggregate on {name}");
    }
    if !ops.is_empty() {
        assert!(s.events > 0, "{case}: nothing ran — vacuous comparison");
        assert_eq!(agg.span_count("engine.run"), 1, "{case}: run never timed");
    }
    assert_eq!(Series::of(agg), Series::of(again), "{case}: aggregate is not reproducible");
}

/// Random prefix-flavored programs: passive, reproducible, and one source
/// for every view.
#[test]
fn handle_views_agree_on_random_programs() {
    let mut rng = DetRng::seed_from_u64(0x0D5E_781C_0A11_D1FF);
    let mut cases = 0usize;
    while cases < 48 {
        let Some(program) = prefixgen::arb_program(&mut rng, true) else {
            continue;
        };
        let ops = prefixgen::alternating_schedule(&prefixgen::arb_ops(&mut rng, 8, 40, 4));
        cases += 1;
        assert_one_source(&program, &ops, &format!("case {cases}"));
    }
}

/// Levels are readings, not increments: two runs of one engine on one
/// shared tracer leave each node's live count at the node's size, not at
/// the sum of the two quiescence snapshots.
#[test]
fn levels_are_not_summed_across_runs() {
    let mut rng = DetRng::seed_from_u64(0x0D5E_781C_0A11_D1FF);
    let (program, ops) = loop {
        if let Some(program) = prefixgen::arb_program(&mut rng, true) {
            break (program, prefixgen::arb_ops(&mut rng, 8, 40, 4));
        }
    };
    let ops = prefixgen::alternating_schedule(&ops);
    let tracer = Tracer::aggregate_only();
    let mut eng = Engine::new(Arc::clone(&program), VecSink::default());
    eng.set_tracer(tracer.clone());
    let (first, second) = ops.split_at(ops.len() / 2);
    for half in [first, second] {
        schedule_all(&mut eng, half);
        eng.run().unwrap();
    }
    let agg = tracer.aggregate();
    assert_eq!(agg.span_count("engine.run"), 2);
    assert_eq!(agg.counter("engine.events"), eng.stats().events);
    assert!(eng.nodes().count() > 0, "the case populated no node");
    let mut live = 0;
    for (node, state) in eng.nodes() {
        let name = dp_trace::series("engine.node_live", "node", node);
        assert_eq!(agg.level(&name), state.len() as u64, "{name}");
        live += state.len() as u64;
    }
    assert_eq!(agg.level("engine.live_tuples"), live);
    assert_eq!(agg.level("engine.peak_tuples"), eng.stats().peak_tuples);
}

/// All 9 repro scenarios, good and bad executions: the same properties.
#[test]
fn aggregates_agree_on_all_repro_scenarios() {
    for s in &repro_scenarios() {
        for (label, exec) in [("good", &s.good_exec), ("bad", &s.bad_exec)] {
            assert_one_source(
                &exec.program,
                &exec.log.to_schedule(),
                &format!("scenario {} ({label})", s.name),
            );
        }
    }
}

/// End-to-end: a full DiffProv diagnosis of each of the 9 scenarios,
/// traced through the engine, the provenance recorder, the replay layer,
/// and the pipeline, leaves a reproducible aggregate and the report —
/// everything in it but the wall times — an untraced diagnosis gives.
#[test]
fn diagnosis_aggregate_is_reproducible() {
    for base in &repro_scenarios() {
        let case = format!("scenario {}", base.name);
        let diagnose = |tracer: Tracer| {
            let with_tracer = |exec: &dp_replay::Execution| {
                let mut e = exec.clone();
                e.tracer = tracer.clone();
                e
            };
            let scenario = diffprov_core::Scenario {
                name: base.name,
                description: base.description,
                good_exec: with_tracer(&base.good_exec),
                bad_exec: with_tracer(&base.bad_exec),
                good_event: base.good_event.clone(),
                bad_event: base.bad_event.clone(),
                expected_changes: base.expected_changes,
                expected_rounds: base.expected_rounds,
            };
            let dp = diffprov_core::DiffProv {
                tracer: tracer.clone(),
                ..diffprov_core::DiffProv::default()
            };
            let r = scenario.diagnose_with(&dp).unwrap();
            assert!(r.succeeded(), "{case}: {r}");
            let rendered = format!(
                "{r}rounds {:?}\nseeds {:?} {:?}\ntrees {} {}",
                r.rounds, r.good_seed, r.bad_seed, r.good_tree_size, r.bad_tree_size
            );
            (Series::of(tracer.aggregate()), rendered)
        };
        let (series, report) = diagnose(Tracer::aggregate_only());
        for span in ["engine.run", "prov.extract", "diffprov.detect_divergence"] {
            let count = series.span_counts.get(span).copied().unwrap_or(0);
            assert!(count > 0, "{case}: no {span} span closed");
        }
        let (again, _) = diagnose(Tracer::aggregate_only());
        assert_eq!(series, again, "{case}: diagnosis aggregate is not reproducible");
        let (_, dark) = diagnose(Tracer::disabled());
        assert_eq!(report, dark, "{case}: diagnosis moves under tracing");
    }
}

/// The 9 repro scenarios.
fn repro_scenarios() -> Vec<diffprov_core::Scenario> {
    let mut scenarios = dp_sdn::all_sdn_scenarios();
    scenarios.extend(dp_mapreduce::all_mr_scenarios());
    scenarios.push(dp_sdn::campus(&dp_sdn::CampusConfig::default()).scenario);
    assert_eq!(scenarios.len(), 9, "repro corpus changed size");
    scenarios
}
