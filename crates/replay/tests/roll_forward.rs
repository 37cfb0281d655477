//! The four facts `Replayed::roll_forward` is built around, each on the
//! smallest program that shows it. For (a)–(c) a mapper node ships `item`s
//! to a reducer node over a link, and a `start` fence at the reducer sums
//! what has arrived by then (aggregates fire on their fence only — the
//! MapReduce scenarios' `reduceStart` in miniature); (d) is two switches
//! of the SDN model and its `best_match` priority resolution.
//!
//! The whole-scenario differential is `roll_forward_differential.rs`;
//! these pin *why* the method withdraws what it withdraws, re-issues when
//! it re-issues, keeps `apply_changes`' semantics, and when it does not
//! trust its own rewind.

use std::collections::BTreeSet;
use std::sync::Arc;

use dp_ndlog::{Program, TupleChange};
use dp_replay::{BaseOp, Execution, Replayed};
use dp_trace::Tracer;
use dp_types::{tuple, FieldType, NodeId, Schema, SchemaRegistry, TableKind, Tuple};

fn program() -> Arc<Program> {
    use FieldType::{Int, Str};
    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new("pad", TableKind::ImmutableBase, [("x", Int)]));
    reg.declare(Schema::new("dest", TableKind::ImmutableBase, [("to", Str)]));
    reg.declare(Schema::new("item", TableKind::MutableBase, [("k", Int), ("v", Int)]));
    reg.declare(Schema::new("start", TableKind::ImmutableBase, [("gen", Int)]));
    reg.declare(Schema::new("got", TableKind::Derived, [("k", Int), ("v", Int)]));
    reg.declare(Schema::new("total", TableKind::Derived, [("sum", Int)]));
    Program::builder(reg)
        .rules_text(
            "hop got(@R, K, V) :- item(@M, K, V), dest(@M, R).
             sum total(@R, agg_sum(V)) :- start(@R, G), got(@R, K, V).",
        )
        .unwrap()
        .build()
        .unwrap()
}

/// Dues leave the clock room: the padding advances it by one per event.
const ITEMS: u64 = 100;
const FENCE: u64 = 200;

/// Padding (so the interesting events sit in the log's second half and
/// the cost rule rolls), the link, three items summing to 6, the fence.
fn execution() -> Execution {
    let mut exec = Execution::new(program());
    exec.tracer = Tracer::aggregate_only();
    for x in 0..16 {
        exec.log.insert(0, "m", tuple!("pad", x));
    }
    exec.log.insert(0, "m", tuple!("dest", "r"));
    for k in 1..=3 {
        exec.log.insert(ITEMS + k as u64, "m", tuple!("item", k, k));
    }
    exec.log.insert(FENCE, "r", tuple!("start", 0));
    exec
}

fn replace_item(k: i64, v: i64) -> [TupleChange; 1] {
    [TupleChange {
        node: NodeId::new("m"),
        before: Some(tuple!("item", k, k)),
        after: Some(tuple!("item", k, v)),
    }]
}

fn live(r: &Replayed) -> BTreeSet<(NodeId, Tuple)> {
    r.engine
        .nodes()
        .flat_map(|(n, s)| s.all().map(move |(t, _)| (n.clone(), t.clone())))
        .collect()
}

fn totals(r: &Replayed) -> Vec<Tuple> {
    let r_node = NodeId::new("r");
    r.engine
        .view(&r_node)
        .map(|v| v.table(&dp_types::Sym::new("total")).cloned().collect())
        .unwrap_or_default()
}

/// Rolls a fresh replay of `exec` to `delta`, checks that the cost rule
/// took the withdraw path and that the live state is the from-scratch
/// replay's, and returns it.
fn rolled(exec: &Execution, delta: &[TupleChange], inject_at: u64) -> Replayed {
    let mut r = exec.replay().unwrap();
    r.roll_forward(exec, delta, inject_at).unwrap();
    let agg = exec.tracer.aggregate();
    assert_eq!(agg.counter("replay.rolled{path=roll}"), 1, "fixture: the fork must be late");
    assert_eq!(agg.counter("replay.rolled{path=scratch}"), 0);
    assert_eq!(live(&r), live(&exec.replay_with(delta, inject_at).unwrap()));
    r
}

/// (a) The re-issued suffix is shifted in time. After a replay the clock
/// has overrun every logged due, so at their original dues the re-issued
/// base events all pop back to back — the fence before the items' `got`s
/// have crossed the link — and the aggregate counts the prefix's one item.
#[test]
fn reissue_is_time_shifted_so_the_fence_follows_derived_work() {
    let exec = execution();
    let delta = replace_item(2, 5);
    let r = rolled(&exec, &delta, 0);
    assert_eq!(totals(&r), [tuple!("total", 1 + 5 + 3)]);
    let agg = exec.tracer.aggregate();
    assert_eq!(agg.counter("replay.fork_events"), 3, "item 2, item 3, the fence");
    assert_eq!(agg.counter("replay.log_events"), 21);
    assert_eq!((agg.span_count("replay.withdraw"), agg.span_count("replay.reissue")), (1, 1));

    // The same withdraw and re-issue by hand, at the original dues.
    let mut naive = exec.replay().unwrap();
    let events = exec.log.events();
    let now = naive.now();
    for e in events[18..].iter().rev() {
        naive.engine.schedule_delete(now, e.node.clone(), e.tuple.clone()).unwrap();
    }
    naive.engine.run().unwrap();
    assert!(totals(&naive).is_empty(), "withdrawing the fence retires its aggregate");
    for e in dp_replay::apply_changes(&exec.log, &delta, 0).events()[18..].iter() {
        assert!(e.due < naive.now(), "the clock has overrun every logged due");
        naive.engine.schedule_insert(e.due, e.node.clone(), e.tuple.clone()).unwrap();
    }
    naive.engine.run().unwrap();
    assert_eq!(totals(&naive), [tuple!("total", 1)], "the fence fired before any re-issued item arrived");
}

/// (b) Withdraw inverts only the ops the engine acted on. A duplicate base
/// insert in the suffix was a no-op; deleting "it" would delete the
/// prefix's tuple, retire the aggregate the prefix's fence computed from
/// it, and nothing re-fires that fence. Likewise the inverse of deleting
/// an absent tuple would insert it.
#[test]
fn withdraw_inverts_only_the_ops_the_engine_acted_on() {
    let mut exec = execution();
    exec.log.insert(FENCE + 2, "m", tuple!("item", 4, 4)); // the fork: Δ rewrites this
    exec.log.insert(FENCE + 5, "m", tuple!("item", 1, 1)); // duplicate of the prefix's
    exec.log.delete(FENCE + 6, "m", tuple!("item", 7, 7)); // never inserted
    let r = rolled(&exec, &replace_item(4, 40), 0);
    let m = NodeId::new("m");
    assert!(r.exists(&m, &tuple!("item", 1, 1)));
    assert!(!r.exists(&m, &tuple!("item", 7, 7)));
    assert_eq!(totals(&r), [tuple!("total", 6)], "the prefix's aggregate must survive the rewind");
    assert_eq!(exec.tracer.aggregate().counter("replay.fork_events"), 3);

    // What blind inversion would have done to the held state.
    let mut naive = exec.replay().unwrap();
    let now = naive.now();
    let events = exec.log.events();
    for e in events[21..].iter().rev() {
        match e.op {
            BaseOp::Insert => naive.engine.schedule_delete(now, e.node.clone(), e.tuple.clone()),
            BaseOp::Delete => naive.engine.schedule_insert(now, e.node.clone(), e.tuple.clone()),
        }
        .unwrap();
    }
    naive.engine.run().unwrap();
    assert!(!naive.exists(&m, &tuple!("item", 1, 1)), "the prefix's item went with its duplicate");
    assert!(naive.exists(&m, &tuple!("item", 7, 7)));
    assert!(totals(&naive).is_empty());
}

/// (c) A change lands at its rewritten events' own dues (`apply_changes`),
/// not at the inject point. Applying it there instead — the alternative
/// ROADMAP item 1(a) asked about — delivers the new tuple *after* the
/// fence that should have aggregated it has fired: the sum is computed
/// without it and no fence fires again. (The MapReduce natives, fired on
/// their inputs in the prefix, are not re-fired by a later configuration
/// change either: MR1-I, MR2-D and MR2-I fail under that semantics.)
#[test]
fn changes_land_at_their_events_own_dues_not_at_the_inject_point() {
    let mut exec = execution();
    exec.log.insert(FENCE + 10, "m", tuple!("item", 9, 0)); // the later stimulus
    let inject_at = FENCE + 9;
    let delta = replace_item(2, 5);
    let patched = dp_replay::apply_changes(&exec.log, &delta, inject_at);
    let rewritten = patched.events().iter().position(|e| e.tuple == tuple!("item", 2, 5));
    assert_eq!(rewritten, Some(18), "the replacement keeps item 2's place and due");
    assert_eq!(patched.events()[18].due, ITEMS + 2);
    assert_eq!(totals(&rolled(&exec, &delta, inject_at)), [tuple!("total", 9)]);

    // Inject-point semantics: the old tuple's events go, the new tuple is
    // inserted at `inject_at`.
    let mut at_inject = Execution::new(program());
    for e in exec.log.events().iter().filter(|e| e.tuple != tuple!("item", 2, 2)) {
        at_inject.log.push(e.clone());
    }
    at_inject.log.insert(inject_at, "m", tuple!("item", 2, 5));
    let r = at_inject.replay().unwrap();
    assert!(r.exists(&NodeId::new("r"), &tuple!("got", 2, 5)), "the new item did arrive");
    assert_eq!(totals(&r), [tuple!("total", 4)], "summed without it: the fence had already fired");
}

/// (d) The cascade retracts what *depended on* a withdrawn tuple, not
/// what it *suppressed*. A packet parked at `S0` is released by an entry
/// in the prefix and reaches `S1` just after the suffix's high-priority
/// entry was installed there: `best_match` picks that one and the prefix's
/// own low-priority entry never fires. Withdrawing the high-priority entry
/// retracts the forwarding it caused, and nothing matches the packet
/// against the low-priority entry again — so a prefix holding such a
/// packet (live tuples in every body table of a rule with a stateful
/// builtin, one of them appeared since the fork's due) is not trusted
/// after the rewind: the patched log is replayed from scratch.
#[test]
fn a_prefix_that_read_the_suffix_is_replayed_not_rewound() {
    use dp_sdn::{cfg_entry, deliver_at, pkt_in, sdn_program, Topology};
    use dp_types::prefix::{cidr, ip};

    let mut topo = Topology::new("ctl");
    topo.switches(&["S0", "S1"]);
    topo.link("S0", "S1");
    let (to_a, to_b) = (topo.host("S1", "a"), topo.host("S1", "b"));
    let mut exec = Execution::new(sdn_program("ctl").unwrap());
    exec.tracer = Tracer::aggregate_only();
    topo.emit(&mut exec.log, 10);
    let any = cidr("0.0.0.0/0");
    let (src, dst) = (ip("19.0.0.1"), ip("10.0.0.80"));
    exec.log.insert(10, "ctl", cfg_entry(1, "S1", 5, any, any, to_a));
    exec.log.insert(1_000, "S0", pkt_in(1, src, dst, 6, 512));
    let release = cfg_entry(2, "S0", 1, any, any, topo.port_towards("S0", "S1"));
    exec.log.insert(2_000, "ctl", release);
    let high = |sm| cfg_entry(3, "S1", 7, sm, any, to_b);
    exec.log.insert(2_000, "ctl", high(any)); // the fork: Δ narrows this one
    let delta = [TupleChange {
        node: NodeId::new("ctl"),
        before: Some(high(any)),
        after: Some(high(cidr("0.0.0.0/4"))),
    }];
    let at = |host| deliver_at(host, 1, src, dst, 6, 512);
    let delivered = |r: &Replayed, host| r.exists(&at(host).node, &at(host).tuple);

    let held = exec.replay().unwrap();
    assert!(delivered(&held, "b") && !delivered(&held, "a"), "fixture: the high entry won");
    let scratch = exec.replay_with(&delta, 0).unwrap();
    assert!(delivered(&scratch, "a") && !delivered(&scratch, "b"));

    let mut r = held;
    r.roll_forward(&exec, &delta, 0).unwrap();
    assert_eq!(live(&r), live(&scratch));
    let agg = exec.tracer.aggregate();
    assert_eq!(agg.counter("replay.fork_events"), 1, "fixture: the fork is the last event");
    assert_eq!(agg.span_count("replay.withdraw"), 1, "the cost rule chose to rewind");
    assert_eq!(agg.counter("replay.rolled{path=scratch}"), 1, "the rewound prefix was not trusted");

    // The rewind and re-issue by hand: the packet is delivered nowhere.
    let mut naive = exec.replay().unwrap();
    let now = naive.now();
    let ctl = NodeId::new("ctl");
    naive.engine.schedule_delete(now, ctl.clone(), high(any)).unwrap();
    naive.engine.schedule_insert(now + 1, ctl, high(cidr("0.0.0.0/4"))).unwrap();
    naive.engine.run().unwrap();
    assert!(!delivered(&naive, "a") && !delivered(&naive, "b"));
}
