//! Randomized tests on the replay layer: log ordering and change
//! application. Inputs come from the in-repo deterministic generator
//! (offline build — no property-testing framework).

use std::collections::BTreeMap;
use std::sync::Arc;

use dp_ndlog::{Program, TupleChange};
use dp_replay::{apply_changes, EventLog, Execution, Replayed};
use dp_sdn::{campus, CampusConfig};
use dp_types::{tuple, DetRng, FieldType, NodeId, Schema, SchemaRegistry, TableKind, Tuple, Value};

fn program() -> Arc<Program> {
    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new("e", TableKind::ImmutableBase, [("x", FieldType::Int)]));
    reg.declare(Schema::new("k", TableKind::MutableBase, [("v", FieldType::Int)]));
    reg.declare(Schema::new("d", TableKind::Derived, [("y", FieldType::Int)]));
    Program::builder(reg)
        .rules_text("r d(@N, Y) :- e(@N, X), k(@N, V), Y := X + V.")
        .unwrap()
        .build()
        .unwrap()
}

/// The log is always sorted by due time, no matter the insertion order.
#[test]
fn log_is_sorted() {
    let mut rng = DetRng::seed_from_u64(0x4E91_0001);
    for _ in 0..64 {
        let mut dues: Vec<u64> = (0..rng.gen_range_usize(1, 40))
            .map(|_| rng.gen_range_u64(0, 1000))
            .collect();
        let mut log = EventLog::new();
        for (i, &due) in dues.iter().enumerate() {
            log.insert(due, "n", tuple!("e", i as i64));
        }
        let got: Vec<u64> = log.events().iter().map(|e| e.due).collect();
        dues.sort_unstable();
        assert_eq!(got, dues);
    }
}

/// Replacement changes preserve log length; deletions shrink it by the
/// number of matched events; insertions grow it by one.
#[test]
fn apply_changes_preserves_counts() {
    let mut rng = DetRng::seed_from_u64(0x4E91_0003);
    for _ in 0..64 {
        let ks: Vec<i64> = (0..rng.gen_range_usize(1, 6))
            .map(|_| rng.gen_range_i64(-5, 5))
            .collect();
        let target = rng.gen_range_i64(-5, 5);
        let mut log = EventLog::new();
        for (i, &k) in ks.iter().enumerate() {
            log.insert(i as u64, "n", tuple!("k", k));
        }
        let n = NodeId::new("n");
        let matched = ks.iter().filter(|&&k| k == target).count();

        // Replacement: same length.
        let replace = [TupleChange {
            node: n,
            before: Some(tuple!("k", target)),
            after: Some(tuple!("k", 99)),
        }];
        let replaced = apply_changes(&log, &replace, 0);
        if matched > 0 {
            assert_eq!(replaced.len(), log.len());
            let rewritten = replaced
                .events()
                .iter()
                .filter(|e| e.tuple == tuple!("k", 99))
                .count();
            assert!(rewritten >= matched);
        } else {
            // Unmatched replacement falls back to one insertion.
            assert_eq!(replaced.len(), log.len() + 1);
        }

        // Deletion: shrinks by the matches.
        let delete = [TupleChange {
            node: n,
            before: Some(tuple!("k", target)),
            after: None,
        }];
        let deleted = apply_changes(&log, &delete, 0);
        assert_eq!(deleted.len(), log.len() - matched);

        // Pure insertion: grows by one.
        let insert = [TupleChange {
            node: n,
            before: None,
            after: Some(tuple!("k", 77)),
        }];
        let inserted = apply_changes(&log, &insert, 0);
        assert_eq!(inserted.len(), log.len() + 1);
    }
}

/// Regression fence: a pure insertion at `inject_at` used to be appended
/// behind later-due events, and `apply_changes` returned the log like
/// that — unsorted, so every later `events()` read cloned and re-sorted
/// all of it. The patched log is built in replay order and never sorted.
#[test]
fn apply_changes_returns_a_normalized_log() {
    let mut log = EventLog::new();
    for due in 0..1_000u64 {
        log.insert(due, "n", tuple!("e", due as i64));
    }
    let insert = [TupleChange {
        node: NodeId::new("n"),
        before: None,
        after: Some(tuple!("k", 77)),
    }];
    let mut patched = apply_changes(&log, &insert, 500);
    let events = patched.events();
    assert!(events.windows(2).all(|w| w[0].due <= w[1].due));
    // Last within its due: the insertion arrived after the logged event.
    assert_eq!(events[501].tuple, tuple!("k", 77));
    drop(events);
    patched.normalize();
    assert_eq!(patched.reorder_effort(), 0, "the log came back awaiting a sort");
}

/// `apply_changes` streams the patched log out in replay order; this is
/// the definition it must agree with, event for event — rewrite or drop
/// matched events in place, append the unmatched insertions at
/// `inject_at`, stable-sort by due — on logs with repeated dues and change
/// sets that mix replacements (matched and not), deletions and insertions.
#[test]
fn apply_changes_is_rewrite_append_and_stable_sort() {
    let mut rng = DetRng::seed_from_u64(0x4E91_0005);
    let n = NodeId::new("n");
    for _ in 0..256 {
        let mut log = EventLog::new();
        for _ in 0..rng.gen_range_usize(0, 24) {
            let (due, k) = (rng.gen_range_u64(0, 6), rng.gen_range_i64(0, 5));
            if rng.gen_range_usize(0, 4) == 0 {
                log.delete(due, "n", tuple!("k", k));
            } else {
                log.insert(due, "n", tuple!("k", k));
            }
        }
        let changes: Vec<TupleChange> = (0..rng.gen_range_usize(0, 4))
            .map(|_| {
                let side = |rng: &mut DetRng| {
                    (rng.gen_range_usize(0, 3) > 0).then(|| tuple!("k", rng.gen_range_i64(0, 8)))
                };
                TupleChange {
                    node: n,
                    before: side(&mut rng),
                    after: side(&mut rng),
                }
            })
            .collect();
        let inject_at = rng.gen_range_u64(0, 7);

        let mut want = Vec::new();
        let mut matched = vec![false; changes.len()];
        for e in log.events().iter() {
            let hit = changes.iter().position(|c| c.before.as_ref() == Some(&e.tuple));
            match hit {
                None => want.push(e.clone()),
                Some(ci) => {
                    matched[ci] = true;
                    if let Some(after) = &changes[ci].after {
                        want.push(dp_replay::BaseEvent { tuple: after.into(), ..e.clone() });
                    }
                }
            }
        }
        for (c, _) in changes.iter().zip(&matched).filter(|(_, m)| !**m) {
            if let Some(after) = &c.after {
                want.push(dp_replay::BaseEvent {
                    due: inject_at,
                    node: n,
                    tuple: after.into(),
                    op: dp_replay::BaseOp::Insert,
                });
            }
        }
        want.sort_by_key(|e| e.due);
        assert_eq!(apply_changes(&log, &changes, inject_at).events(), want);
    }
}

/// End-to-end: replaying with a replacement change produces exactly the
/// state of an execution built with the replacement from the start.
#[test]
fn patched_replay_equals_rebuilt_execution() {
    let mut rng = DetRng::seed_from_u64(0x4E91_0004);
    for _ in 0..64 {
        let inputs: Vec<i64> = (0..rng.gen_range_usize(1, 10))
            .map(|_| rng.gen_range_i64(-20, 20))
            .collect();
        let k_before = rng.gen_range_i64(-5, 5);
        let k_after = rng.gen_range_i64(-5, 5);
        let build = |k: i64| {
            let mut exec = Execution::new(program());
            exec.log.insert(0, "n", tuple!("k", k));
            for (i, &x) in inputs.iter().enumerate() {
                exec.log.insert(10 + i as u64, "n", tuple!("e", x));
            }
            exec
        };
        let orig = build(k_before);
        let delta = [TupleChange {
            node: NodeId::new("n"),
            before: Some(tuple!("k", k_before)),
            after: Some(tuple!("k", k_after)),
        }];
        let patched = orig.replay_with(&delta, 0).unwrap();
        let rebuilt = build(k_after).replay().unwrap();
        // Same derived state.
        let n = NodeId::new("n");
        let dump = |r: &dp_replay::Replayed| -> Vec<Tuple> {
            r.engine
                .view(&n)
                .map(|v| v.table(&dp_types::Sym::new("d")).cloned().collect())
                .unwrap_or_default()
        };
        assert_eq!(dump(&patched), dump(&rebuilt));
    }
}

/// How many live base tuples `r`'s engine holds, each checked to be one of
/// the allocations `log`'s events hold for that located tuple — whichever
/// event the engine kept it from, never a copy. Located tuples `log` never
/// names — a change's `after` — are skipped.
fn shared_base_tuples(r: &Replayed, log: &EventLog, case: &str) -> usize {
    let events = log.events();
    let mut logged: BTreeMap<(&NodeId, &Tuple), Vec<*const Tuple>> = BTreeMap::new();
    for e in events.iter() {
        logged.entry((&e.node, &*e.tuple)).or_default().push(Arc::as_ptr(&e.tuple));
    }
    let mut shared = 0;
    for (node, state) in r.engine.nodes() {
        for (held, _) in state.all().filter(|(_, st)| st.base) {
            let Some(in_log) = logged.get(&(node, held)) else { continue };
            assert!(
                in_log.iter().any(|&p| std::ptr::eq(held, p)),
                "{case}: {held}@{node} is a copy"
            );
            shared += 1;
        }
    }
    shared
}

/// The allocation `r`'s engine holds for `tuple` at `node`.
fn held(r: &Replayed, node: &str, tuple: &Tuple) -> *const Tuple {
    let (_, state) = r.engine.nodes().find(|(n, _)| n.as_str() == node).expect("node state");
    let (held, _) = state.all().find(|(t, _)| *t == tuple).expect("the tuple is live");
    held
}

/// A base tuple is held once: what a replay's engine stores, indexes and
/// records is one of the log's own allocations of that located tuple — a
/// cloned execution's too — and a patched log shares every event its
/// changes left alone.
#[test]
fn a_replay_shares_the_logs_tuples() {
    let c = campus(&CampusConfig {
        bulk_entries_per_router: 2,
        background_packets: 30,
        update_churn_rounds: 1,
        ..CampusConfig::default()
    });
    let (good, bad) = (&c.scenario.good_exec, &c.scenario.bad_exec);
    // `campus()` clones one execution into the other: one set of tuples.
    for (g, b) in good.log.events().iter().zip(bad.log.events().iter()) {
        assert!(Arc::ptr_eq(&g.tuple, &b.tuple), "{} copied by the clone", g.tuple);
    }
    let replayed = good.replay().unwrap();
    assert!(shared_base_tuples(&replayed, &good.log, "replay") > 100);
    let of_clone = bad.clone().replay().unwrap();
    assert!(shared_base_tuples(&of_clone, &good.log, "clone") > 100);

    // Rewrite one logged entry: every other event of the patched log is
    // the original's allocation, and so is what its replay holds.
    let log = good.log.events();
    let at = log.iter().position(|e| e.tuple.table.as_str() == "cfgEntry").unwrap();
    let mut after = Tuple::clone(&log[at].tuple);
    after.args[0] = Value::Int(-1);
    let change = [TupleChange {
        node: log[at].node,
        before: Some(Tuple::clone(&log[at].tuple)),
        after: Some(after.clone()),
    }];
    let patched = apply_changes(&good.log, &change, 0);
    assert_eq!(patched.len(), log.len());
    for (i, (p, e)) in patched.events().iter().zip(log.iter()).enumerate() {
        if e.tuple == log[at].tuple {
            assert_eq!(p.tuple, after, "event {i} is rewritten");
        } else {
            assert!(Arc::ptr_eq(&p.tuple, &e.tuple), "event {i} ({}) was copied", e.tuple);
        }
    }
    let rolled = good.replay_with(&change, 0).unwrap();
    assert!(shared_base_tuples(&rolled, &good.log, "replay_with") > 100);
}

/// Scheduling base tuples files nothing in the interner: a log whose
/// tuples never join interns nothing, and one that derives interns its
/// heads alone, one per distinct head.
#[test]
fn only_derived_heads_are_interned() {
    let mut exec = Execution::new(program());
    for i in 0..50 {
        exec.log.insert(i, "n", tuple!("e", i as i64));
        exec.log.insert(i, "m", tuple!("k", i as i64)); // no `e` at `m`: no join
    }
    let stats = exec.replay().unwrap().engine.stats();
    assert_eq!((stats.peak_interned, stats.peak_tuples), (0, 100));

    exec.log.insert(100, "n", tuple!("k", 0)); // d(X + 0) for every e(X) at n
    exec.log.insert(101, "n", tuple!("k", 100)); // d(100..150)
    let stats = exec.replay().unwrap().engine.stats();
    assert_eq!(stats.peak_interned, 100, "one per distinct head: d(0..50), d(100..150)");
}

/// Two equal base tuples, logged by separate events at two nodes, are
/// each held as their event gave them: two allocations, not one chosen
/// by an interner.
#[test]
fn equal_base_tuples_at_two_nodes_are_each_held_as_logged() {
    let mut exec = Execution::new(program());
    exec.log.insert(0, "a", tuple!("k", 7));
    exec.log.insert(0, "b", tuple!("k", 7));
    let events = exec.log.events();
    let logged: Vec<*const Tuple> = events.iter().map(|e| Arc::as_ptr(&e.tuple)).collect();
    drop(events);
    let r = exec.replay().unwrap();
    let (at_a, at_b) = (held(&r, "a", &tuple!("k", 7)), held(&r, "b", &tuple!("k", 7)));
    assert_eq!(logged, [at_a, at_b]);
    assert_ne!(at_a, at_b);
}

/// A derived tuple that reaches a second node with the same content is
/// one allocation at both: the interner shares a forwarded head across
/// its hops, as it shares a packet's `pktAt` on the campus.
#[test]
fn a_head_forwarded_to_a_second_node_is_one_allocation() {
    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new("e", TableKind::ImmutableBase, [("x", FieldType::Int)]));
    reg.declare(Schema::new("link", TableKind::MutableBase, [("to", FieldType::Str)]));
    reg.declare(Schema::new("d", TableKind::Derived, [("x", FieldType::Int)]));
    let program = Program::builder(reg)
        .rules_text(
            "start d(@N, X) :- e(@N, X).\n\
             hop d(@M, X) :- d(@N, X), link(@N, M).",
        )
        .unwrap()
        .build()
        .unwrap();
    let mut exec = Execution::new(program);
    exec.log.insert(0, "a", tuple!("link", "b"));
    exec.log.insert(10, "a", tuple!("e", 1));
    let r = exec.replay().unwrap();
    let (at_a, at_b) = (held(&r, "a", &tuple!("d", 1)), held(&r, "b", &tuple!("d", 1)));
    assert_eq!(at_a, at_b, "the forwarded head was copied");
    assert_eq!(r.engine.stats().peak_interned, 1);
}
