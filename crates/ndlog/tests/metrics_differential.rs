//! Differential test of the dp-metrics **passivity contract**: attaching
//! a live metrics registry must not perturb evaluation. The provenance
//! event stream and the deterministic trace skeleton must be
//! byte-identical with metrics enabled and disabled — the registry
//! observes counters, sketches, and histograms off to the side, but never
//! influences scheduling, join order, batching, or the sink.
//!
//! Both legs pin the metrics handle explicitly ([`Metrics::disabled`] vs
//! a fresh [`Metrics::enabled`] registry per run), because `DP_METRICS`
//! resolves through a process-wide `OnceLock`: under the `DP_METRICS=1`
//! leg of `scripts/check.sh` the *global* registry is live, and this test
//! must still compare a genuinely-dark engine against a metered one.
//! The enabled leg additionally asserts the registry actually populated,
//! so the comparison can never pass vacuously.

use std::sync::Arc;

use dp_metrics::Metrics;
use dp_ndlog::testsupport::{prefixgen, schedule_all, ScheduledOp};
use dp_ndlog::{Engine, Program, ProvEvent, VecSink};
use dp_trace::Tracer;
use dp_types::DetRng;

/// One traced run with an explicit metrics handle; returns the stream,
/// the skeleton, and the handle (for populated-registry assertions).
fn run(
    program: &Arc<Program>,
    ops: &[ScheduledOp],
    metrics: Metrics,
) -> (Vec<ProvEvent>, String, Metrics) {
    let mut eng = Engine::new(Arc::clone(program), VecSink::default());
    let tracer = Tracer::full();
    eng.set_tracer(tracer.clone());
    eng.set_metrics(metrics.clone());
    schedule_all(&mut eng, ops);
    eng.run().unwrap();
    (eng.into_sink().events, tracer.finish().skeleton(), metrics)
}

fn assert_passive(program: &Arc<Program>, ops: &[ScheduledOp], case: &str) {
    let (dark_events, dark_skel, _) = run(program, ops, Metrics::disabled());
    let (lit_events, lit_skel, metrics) = run(program, ops, Metrics::enabled());
    assert_eq!(
        dark_events, lit_events,
        "{case}: stream diverges with metrics enabled"
    );
    assert_eq!(
        dark_skel, lit_skel,
        "{case}: skeleton diverges with metrics enabled"
    );
    let snap = metrics.snapshot();
    if !ops.is_empty() {
        assert!(
            snap.counter_value("dp_engine_events_total", &[]) > 0,
            "{case}: enabled leg metered nothing — vacuous comparison"
        );
        assert!(
            snap.histogram("dp_engine_run_seconds", &[]).is_some(),
            "{case}: run-time histogram never observed"
        );
    }
}

/// Random prefix-flavored programs: streams and skeletons are identical
/// with and without a live registry.
#[test]
fn metrics_are_passive_on_random_programs() {
    let mut rng = DetRng::seed_from_u64(0x0D5E_781C_0A11_D1FF);
    let mut cases = 0usize;
    while cases < 24 {
        let Some(program) = prefixgen::arb_program(&mut rng, true) else {
            continue;
        };
        let ops = prefixgen::alternating_schedule(&prefixgen::arb_ops(&mut rng, 8, 40, 4));
        cases += 1;
        assert_passive(&program, &ops, &format!("case {cases}"));
    }
}

/// All 9 repro scenarios, good and bad executions: enabling metrics
/// leaves both bit-identical.
#[test]
fn metrics_are_passive_on_all_repro_scenarios() {
    let mut scenarios = dp_sdn::all_sdn_scenarios();
    scenarios.extend(dp_mapreduce::all_mr_scenarios());
    scenarios.push(dp_sdn::campus(&dp_sdn::CampusConfig::default()).scenario);
    assert_eq!(scenarios.len(), 9, "repro corpus changed size");
    for s in &scenarios {
        for (label, exec) in [("good", &s.good_exec), ("bad", &s.bad_exec)] {
            assert_passive(
                &exec.program,
                &exec.log.to_schedule(),
                &format!("scenario {} ({label})", s.name),
            );
        }
    }
}
