//! Satellite coverage for two observability-adjacent contracts:
//!
//! * [`ProvenanceSink::record_batch`] delivers the *same stream* the
//!   reference evaluator records one event at a time, chunked at
//!   delta-batch boundaries with order preserved — asserted against a
//!   batch-boundary-recording sink.
//! * [`Engine::join_profile`] accumulates across `run()` calls: a bulk
//!   load and a later churn phase driven as two runs must produce the
//!   same per-rule profile as one run fed the whole schedule.

use std::sync::Arc;

use dp_ndlog::testsupport::{run_reference, schedule_all, ScheduledOp};
use dp_ndlog::{Engine, Program, ProvEvent, ProvenanceSink, VecSink};
use dp_types::{
    prefix::cidr, tuple, FieldType, NodeId, Schema, SchemaRegistry, TableKind, Value,
};

fn program() -> Arc<Program> {
    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new(
        "rt",
        TableKind::MutableBase,
        [("m", FieldType::Prefix), ("v", FieldType::Int)],
    ));
    reg.declare(Schema::new(
        "pk",
        TableKind::MutableBase,
        [("s", FieldType::Ip), ("d", FieldType::Ip)],
    ));
    reg.declare(Schema::new("out", TableKind::Derived, [("v", FieldType::Int)]));
    reg.declare(Schema::new("outc", TableKind::Derived, [("c", FieldType::Int)]));
    Program::builder(reg)
        .rules_text(
            "r0 out(@N, V) :- pk(@N, S, D), rt(@N, M, V), prefix_contains(M, S).\n\
             r1 out(@N, V) :- rt(@N, M, V), pk(@N, S, D), prefix_contains(M, D).\n\
             r2 outc(@N, agg_count(V)) :- pk(@N, S, D), rt(@N, M, V).",
        )
        .unwrap()
        .build()
        .unwrap()
}

/// A sink that keeps every delivered batch separate (and tags events
/// arriving through the tuple-at-a-time `record` path as one-element
/// batches), so tests can see both the stream and its chunking.
#[derive(Default)]
struct BatchSink {
    batches: Vec<Vec<ProvEvent>>,
    singles: usize,
}

impl ProvenanceSink for BatchSink {
    fn record(&mut self, event: ProvEvent) {
        self.singles += 1;
        self.batches.push(vec![event]);
    }

    fn record_batch(&mut self, events: &mut Vec<ProvEvent>) {
        self.batches.push(std::mem::take(events));
    }
}

/// The op schedule: a bulk route load in one tick (one deep batch),
/// packet churn spread over later ticks (small batches), and same-tick
/// delete/insert replacements.
fn schedule() -> Vec<ScheduledOp> {
    let mut ops = Vec::new();
    for i in 0..40u8 {
        let p = cidr(&format!("10.{}.{}.0/24", i % 4, i));
        ops.push(ScheduledOp::insert(0, "n", tuple!("rt", p, i as i64)));
    }
    for i in 0..12u8 {
        let src = format!("10.{}.{}.7", i % 4, i % 8);
        let dst = format!("10.{}.{}.9", (i + 1) % 4, (i + 2) % 8);
        ops.push(ScheduledOp::insert(
            (i as u64 % 3) + 1,
            "n",
            tuple!(
                "pk",
                Value::Ip(dp_types::prefix::ip(&src)),
                Value::Ip(dp_types::prefix::ip(&dst))
            ),
        ));
    }
    // A replacement inside an already-populated tick.
    ops.push(ScheduledOp::delete(2, "n", tuple!("rt", cidr("10.1.1.0/24"), 1)));
    ops.push(ScheduledOp::insert(2, "n", tuple!("rt", cidr("10.1.1.0/25"), 99)));
    ops
}

/// Batched delivery must concatenate to the oracle's stream: same events,
/// same order, just chunked — and really chunked (at least one
/// multi-event batch), with no stray `record` fallbacks.
#[test]
fn record_batch_preserves_stream_order() {
    let prog = program();
    let ops = schedule();
    let (reference, _) = run_reference(&prog, &ops);

    let mut batched = Engine::new(Arc::clone(&prog), BatchSink::default());
    schedule_all(&mut batched, &ops);
    batched.run().unwrap();
    let sink = batched.into_sink();

    let concatenated: Vec<ProvEvent> = sink.batches.iter().flatten().cloned().collect();
    assert_eq!(concatenated, reference, "batch concatenation diverges");
    assert_eq!(sink.singles, 0, "batched engine used the record() fallback");
    assert!(
        sink.batches.iter().any(|b| b.len() > 1),
        "no multi-event batch was ever delivered"
    );
    assert!(sink.batches.len() > 1, "everything arrived in one batch");
}

/// The two-phase schedule (bulk load at tick 0, churn from tick 100),
/// driven either as two separate `run()` calls — so the engine's counters
/// accumulate across runs — or as one.
fn two_phase(split_runs: bool) -> Engine<VecSink> {
    let prog = program();
    let mut eng = Engine::new(prog, VecSink::default());
    let n = NodeId::new("n");
    for i in 0..40u8 {
        let p = cidr(&format!("10.{}.{}.0/24", i % 4, i));
        eng.schedule_insert(0, n, tuple!("rt", p, i as i64))
            .unwrap();
    }
    if split_runs {
        eng.run().unwrap();
    }
    for i in 0..12u8 {
        let src = format!("10.{}.{}.7", i % 4, i % 8);
        eng.schedule_insert(
            100 + i as u64,
            n,
            tuple!(
                "pk",
                Value::Ip(dp_types::prefix::ip(&src)),
                Value::Ip(dp_types::prefix::ip("10.0.0.9"))
            ),
        )
        .unwrap();
    }
    eng.run().unwrap();
    eng
}

/// Counters are cumulative across `run()` calls: splitting the schedule
/// at a quiescent boundary changes neither the per-rule join profile nor
/// the firing counts.
#[test]
fn join_profile_accumulates_across_runs() {
    let single = two_phase(false);
    let split = two_phase(true);

    assert_eq!(
        single.join_profile(),
        split.join_profile(),
        "per-rule join profiles diverge between one run and two"
    );
    assert!(
        !single.join_profile().is_empty(),
        "schedule exercised no rules at all"
    );
    assert_eq!(single.rule_firings(), split.rule_firings());
}
