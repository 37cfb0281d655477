//! Differential test of the dp-trace **skeleton contract**: the
//! deterministic part of a trace — span names, logical timestamps,
//! skeleton counter values, tick instants — depends only on the program
//! and its input log, so two traced runs of one case render the same
//! skeleton. Effort events (flush structure, probe/scan counts) are
//! excluded from the skeleton; wall times are excluded everywhere.
//!
//! Alongside the skeletons, the provenance stream of a traced run must be
//! bit-identical to an untraced one — tracing must never perturb
//! evaluation. (Both pin their tracer explicitly, so the comparison also
//! holds under the `DP_TRACE=1` leg of `scripts/check.sh`.) The corpus is
//! the shared prefix-flavored program generator plus all 9 repro
//! scenarios, plus one end-to-end DiffProv diagnosis traced through the
//! whole pipeline.

use std::sync::Arc;

use dp_ndlog::testsupport::{prefixgen, run_schedule_traced, schedule_all};
use dp_ndlog::{Engine, ProvEvent, VecSink};
use dp_trace::Tracer;
use dp_types::DetRng;

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

/// All 9 repro scenarios, good and bad executions: same two properties.
#[test]
fn skeletons_agree_on_all_repro_scenarios() {
    let mut scenarios = dp_sdn::all_sdn_scenarios();
    scenarios.extend(dp_mapreduce::all_mr_scenarios());
    scenarios.push(dp_sdn::campus(&dp_sdn::CampusConfig::default()).scenario);
    assert_eq!(scenarios.len(), 9, "repro corpus changed size");
    for s in &scenarios {
        for (label, exec) in [("good", &s.good_exec), ("bad", &s.bad_exec)] {
            let run = |tracer: Tracer| -> (String, Vec<ProvEvent>) {
                let mut eng = Engine::new(Arc::clone(&exec.program), VecSink::default());
                eng.set_tracer(tracer.clone());
                exec.log.schedule_into(&mut eng, None).unwrap();
                eng.run().unwrap();
                (tracer.finish().skeleton(), eng.into_sink().events)
            };
            let traced = run(Tracer::full());
            let again = run(Tracer::full());
            let dark = run(Tracer::disabled());
            assert_eq!(
                traced.0, again.0,
                "scenario {} ({label} trace): skeleton is not reproducible",
                s.name
            );
            assert_eq!(
                traced.1, dark.1,
                "scenario {} ({label} trace): stream moves under tracing",
                s.name
            );
        }
    }
}

/// End-to-end: a full DiffProv diagnosis of SDN1, traced through the
/// engine, the provenance recorder, the replay layer, and the pipeline,
/// renders a reproducible skeleton and the report an untraced diagnosis
/// gives.
#[test]
fn diagnosis_skeleton_is_reproducible() {
    let base = dp_sdn::all_sdn_scenarios()
        .into_iter()
        .find(|s| s.name == "SDN1")
        .unwrap();
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
        let report = scenario.diagnose_with(&dp).unwrap();
        assert!(report.succeeded(), "{report}");
        (tracer.finish().skeleton(), report.delta)
    };
    let (skel, delta) = diagnose(Tracer::full());
    assert!(
        skel.contains("B diffprov.detect_divergence") && skel.contains("B prov.extract"),
        "pipeline spans missing from the skeleton:\n{skel}"
    );
    let (again, _) = diagnose(Tracer::full());
    assert_eq!(skel, again, "diagnosis skeleton is not reproducible");
    let (_, dark_delta) = diagnose(Tracer::disabled());
    assert_eq!(delta, dark_delta, "diagnosis moves under tracing");
}
