//! Differential test of the dp-trace **skeleton contract**: the
//! deterministic part of a trace — span names, logical timestamps,
//! skeleton counter values, tick instants — depends only on the program
//! and its input log, so two traced runs of one case render the same
//! skeleton. Effort events (flush structure, probe/scan counts) are
//! excluded from the skeleton; wall times are excluded everywhere.
//!
//! Alongside the skeletons, the provenance stream of an instrumented run
//! must be bit-identical to a dark one — the handle is strictly passive,
//! in every mode (disabled, aggregate-only, full); no process-wide switch
//! attaches a handle, so this file is where that is held. And the views of
//! one run cannot disagree: on the enabled legs every [`Stats`] field
//! equals its aggregate entry. The corpus is the shared prefix-flavored
//! program generator plus all 9 repro scenarios, each also diagnosed end
//! to end by DiffProv, traced through the whole pipeline.

use std::sync::Arc;

use dp_ndlog::testsupport::{prefixgen, run_schedule_traced, schedule_all, ScheduledOp};
use dp_ndlog::{Engine, Program, ProvEvent, Stats, VecSink};
use dp_trace::{Aggregate, Tracer};
use dp_types::DetRng;

/// One run under an explicit handle: the stream, the engine's counters,
/// and the drained trace.
fn run_with(
    program: &Arc<Program>,
    ops: &[ScheduledOp],
    tracer: Tracer,
) -> (Vec<ProvEvent>, Stats, dp_trace::Trace) {
    let mut eng = Engine::new(Arc::clone(program), VecSink::default());
    eng.set_tracer(tracer.clone());
    schedule_all(&mut eng, ops);
    eng.run().unwrap();
    let stats = eng.stats();
    (eng.into_sink().events, stats, tracer.finish())
}

/// One case under every handle mode. Disabled, aggregate-only and full
/// runs emit byte-identical provenance streams; two full runs render
/// byte-identical skeletons; and on both enabled legs the two views of
/// the run — the engine's own [`Stats`] and the tracer's aggregate — hold
/// the same numbers.
fn assert_one_source(program: &Arc<Program>, ops: &[ScheduledOp], case: &str) {
    let (dark, _, _) = run_with(program, ops, Tracer::disabled());
    let (_, _, again) = run_with(program, ops, Tracer::full());
    for (mode, tracer) in [("agg", Tracer::aggregate_only()), ("full", Tracer::full())] {
        let (events, s, trace) = run_with(program, ops, tracer);
        assert_eq!(dark, events, "{case}: stream moves under a {mode} handle");
        if mode == "full" {
            assert_eq!(
                trace.skeleton(),
                again.skeleton(),
                "{case}: skeleton is not reproducible"
            );
        }
        let agg = &trace.aggregate;
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
            assert_eq!(field, read(agg, name), "{case} ({mode}): Stats vs aggregate on {name}");
        }
        if !ops.is_empty() {
            assert!(s.events > 0, "{case} ({mode}): nothing ran — vacuous comparison");
            assert_eq!(agg.span_count("engine.run"), 1, "{case} ({mode}): run never timed");
        }
    }
}

/// Random programs: the skeleton is reproducible, and the provenance
/// stream does not move when the tracer is attached.
#[test]
fn skeletons_agree_on_random_programs() {
    let mut rng = DetRng::seed_from_u64(0x7BAC_E5EE);
    let mut cases = 0usize;
    while cases < 48 {
        let Some(program) = prefixgen::arb_program(&mut rng, true) else {
            continue;
        };
        let ops = prefixgen::alternating_schedule(&prefixgen::arb_ops(&mut rng, 8, 40, 4));
        cases += 1;
        let traced = run_schedule_traced(&program, &ops);
        let skel = traced.skeleton.as_deref().unwrap();
        assert!(
            skel.contains("B engine.run") && skel.contains("E engine.run"),
            "skeleton missing the run span (case {cases}):\n{skel}"
        );
        assert!(
            skel.contains("I engine.tick"),
            "skeleton has no tick instants (case {cases}):\n{skel}"
        );
        assert_eq!(
            traced.skeleton,
            run_schedule_traced(&program, &ops).skeleton,
            "skeleton is not reproducible (case {cases})"
        );
        let mut dark = Engine::new(Arc::clone(&program), VecSink::default());
        dark.set_tracer(Tracer::disabled());
        schedule_all(&mut dark, &ops);
        dark.run().unwrap();
        assert_eq!(
            traced.events,
            dark.into_sink().events,
            "provenance stream moves under tracing (case {cases})"
        );
    }
}

/// Random prefix-flavored programs under every handle mode: passive, and
/// one source for every view.
#[test]
fn handle_views_agree_on_random_programs() {
    let mut rng = DetRng::seed_from_u64(0x0D5E_781C_0A11_D1FF);
    let mut cases = 0usize;
    while cases < 24 {
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
fn skeletons_agree_on_all_repro_scenarios() {
    let mut scenarios = dp_sdn::all_sdn_scenarios();
    scenarios.extend(dp_mapreduce::all_mr_scenarios());
    scenarios.push(dp_sdn::campus(&dp_sdn::CampusConfig::default()).scenario);
    assert_eq!(scenarios.len(), 9, "repro corpus changed size");
    for s in &scenarios {
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
/// and the pipeline, renders a reproducible skeleton and the report —
/// everything in it but the wall times — an untraced diagnosis gives.
#[test]
fn diagnosis_skeleton_is_reproducible() {
    let mut scenarios = dp_sdn::all_sdn_scenarios();
    scenarios.extend(dp_mapreduce::all_mr_scenarios());
    scenarios.push(dp_sdn::campus(&dp_sdn::CampusConfig::default()).scenario);
    assert_eq!(scenarios.len(), 9, "repro corpus changed size");
    for base in &scenarios {
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
            (tracer.finish().skeleton(), rendered)
        };
        let (skel, report) = diagnose(Tracer::full());
        assert!(
            skel.contains("B diffprov.detect_divergence") && skel.contains("B prov.extract"),
            "{case}: pipeline spans missing from the skeleton:\n{skel}"
        );
        let (again, _) = diagnose(Tracer::full());
        assert!(skel == again, "{case}: diagnosis skeleton is not reproducible");
        let (_, dark) = diagnose(Tracer::disabled());
        assert_eq!(report, dark, "{case}: diagnosis moves under tracing");
    }
}
