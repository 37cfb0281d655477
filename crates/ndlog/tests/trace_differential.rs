//! Differential test of the dp-trace **skeleton contract**: the
//! deterministic part of a trace — span names, logical timestamps,
//! skeleton counter values, tick instants — must be bit-identical in
//! every engine configuration, because it depends only on the program
//! and its input log. Effort events (flush structure, probe/scan
//! counts) are excluded from the skeleton and free to differ; wall times
//! are excluded everywhere.
//!
//! Three configurations are compared against the batched default
//! (`EngineConfig::matrix()` in `dp_ndlog::testsupport`): tuple-at-a-time
//! firing, the trie-disabled batched path, and the naive nested-loop
//! unbatched path. Alongside the skeletons, the provenance streams must
//! stay bit-identical — tracing must never perturb evaluation. The corpus
//! is the shared prefix-flavored program generator plus all 9 repro
//! scenarios, plus one end-to-end DiffProv diagnosis traced through the
//! whole pipeline.

use std::sync::Arc;

use dp_ndlog::testsupport::{prefixgen, run_schedule_traced, EngineConfig};
use dp_ndlog::{Engine, ProvEvent, VecSink};
use dp_trace::Tracer;
use dp_types::DetRng;

const CONFIGS: [EngineConfig; 4] = EngineConfig::matrix();

/// Random programs: skeletons and provenance streams are bit-identical
/// across all four configurations.
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
        let reference = run_schedule_traced(&program, &ops, &CONFIGS[0]);
        let ref_skel = reference.skeleton.as_deref().unwrap();
        assert!(
            ref_skel.contains("B engine.run") && ref_skel.contains("E engine.run"),
            "skeleton missing the run span (case {cases}):\n{ref_skel}"
        );
        assert!(
            ref_skel.contains("I engine.tick"),
            "skeleton has no tick instants (case {cases}):\n{ref_skel}"
        );
        for cfg in &CONFIGS[1..] {
            let got = run_schedule_traced(&program, &ops, cfg);
            assert_eq!(
                reference.skeleton, got.skeleton,
                "skeleton diverges under {} (case {cases})",
                cfg.label
            );
            assert_eq!(
                reference.events, got.events,
                "provenance stream diverges under {} (case {cases})",
                cfg.label
            );
        }
    }
}

/// All 9 repro scenarios, good and bad executions: skeletons and
/// provenance streams are bit-identical across all four configurations.
#[test]
fn skeletons_agree_on_all_repro_scenarios() {
    let mut scenarios = dp_sdn::all_sdn_scenarios();
    scenarios.extend(dp_mapreduce::all_mr_scenarios());
    scenarios.push(dp_sdn::campus(&dp_sdn::CampusConfig::default()).scenario);
    assert_eq!(scenarios.len(), 9, "repro corpus changed size");
    for s in &scenarios {
        for (label, exec) in [("good", &s.good_exec), ("bad", &s.bad_exec)] {
            let mut reference: Option<(String, Vec<ProvEvent>)> = None;
            for cfg in CONFIGS {
                let mut eng = Engine::new(Arc::clone(&exec.program), VecSink::default());
                cfg.apply(&mut eng);
                let tracer = Tracer::full();
                eng.set_tracer(tracer.clone());
                exec.log.schedule_into(&mut eng, None).unwrap();
                eng.run().unwrap();
                let got = (tracer.finish().skeleton(), eng.into_sink().events);
                match &reference {
                    None => reference = Some(got),
                    Some(r) => {
                        assert_eq!(
                            r.0, got.0,
                            "scenario {} ({label} trace): skeleton diverges under {}",
                            s.name, cfg.label
                        );
                        assert_eq!(
                            r.1, got.1,
                            "scenario {} ({label} trace): stream diverges under {}",
                            s.name, cfg.label
                        );
                    }
                }
            }
        }
    }
}

/// End-to-end: a full DiffProv diagnosis of SDN1, traced through the
/// engine, the provenance recorder, the replay layer, and the pipeline,
/// renders the same skeleton in every configuration.
#[test]
fn diagnosis_skeleton_agrees_across_configurations() {
    let base = dp_sdn::all_sdn_scenarios()
        .into_iter()
        .find(|s| s.name == "SDN1")
        .unwrap();
    let mut reference: Option<String> = None;
    for cfg in CONFIGS {
        let tracer = Tracer::full();
        let configure = |exec: &dp_replay::Execution| {
            let mut e = exec.clone();
            e.naive_join = cfg.naive_join.unwrap();
            e.unbatched = cfg.unbatched.unwrap();
            e.no_trie = cfg.no_trie.unwrap();
            e.tracer = tracer.clone();
            e
        };
        let scenario = diffprov_core::Scenario {
            name: base.name,
            description: base.description,
            good_exec: configure(&base.good_exec),
            bad_exec: configure(&base.bad_exec),
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
        assert!(report.succeeded(), "{}: {report}", cfg.label);
        let skel = tracer.finish().skeleton();
        assert!(
            skel.contains("B diffprov.detect_divergence") && skel.contains("B prov.extract"),
            "{}: pipeline spans missing from the skeleton:\n{skel}",
            cfg.label
        );
        match &reference {
            None => reference = Some(skel),
            Some(r) => assert_eq!(r, &skel, "diagnosis skeleton diverges under {}", cfg.label),
        }
    }
}
