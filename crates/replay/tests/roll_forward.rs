//! The facts `Replayed::roll_forward` is built around, each on the
//! smallest program that shows it. For (a)–(c) a mapper node ships `item`s
//! to a reducer node over a link, and a `start` fence at the reducer sums
//! what has arrived by then (aggregates fire on their fence only — the
//! MapReduce scenarios' `reduceStart` in miniature), and (f) reuses it;
//! (d), (e) and (i) are switches of the SDN model and its `best_match`
//! priority resolution, whose read footprint (g) pins.
//!
//! The whole-scenario differential is `roll_forward_differential.rs`;
//! these pin *why* the method withdraws what it withdraws, re-issues what
//! it re-issues and nothing else, keeps `apply_changes`' semantics, and
//! when it does not trust its own roll.

use std::collections::BTreeSet;
use std::sync::Arc;

use dp_ndlog::{Program, TupleChange};
use dp_replay::{BaseOp, Execution, Replayed};
use dp_trace::Tracer;
use dp_types::{tuple, FieldType, NodeId, Schema, SchemaRegistry, TableKind, Tuple};

fn program() -> Arc<Program> {
    use FieldType::{Int, Str};
    let mut reg = SchemaRegistry::new();
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

/// Dues leave the clock room between the link, the items and the fence.
const ITEMS: u64 = 100;
const FENCE: u64 = 200;

/// The link, three items summing to 6, the fence.
fn execution() -> Execution {
    let mut exec = Execution::new(program());
    exec.tracer = Tracer::aggregate_only();
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
        .flat_map(|(n, s)| s.all().map(move |(t, _)| (*n, t.clone())))
        .collect()
}

fn totals(r: &Replayed) -> Vec<Tuple> {
    let r_node = NodeId::new("r");
    r.engine
        .view(&r_node)
        .map(|v| v.table(&dp_types::Sym::new("total")).cloned().collect())
        .unwrap_or_default()
}

/// Rolls a fresh replay of `exec` to `delta`, checks that the call took
/// `path` (`roll` or `scratch`) and that the live state is the
/// from-scratch replay's, and returns it.
fn rolled_by(exec: &Execution, delta: &[TupleChange], inject_at: u64, path: &str) -> Replayed {
    let mut r = exec.replay().unwrap();
    r.roll_forward(exec, delta, inject_at).unwrap();
    let agg = exec.tracer.aggregate();
    assert_eq!(agg.counter(&format!("replay.rolled{{path={path}}}")), 1, "took the {path} path");
    let paths = ["replay.rolled{path=roll}", "replay.rolled{path=scratch}"];
    assert_eq!(paths.map(|p| agg.counter(p)).iter().sum::<u64>(), 1);
    let refused = agg
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("replay.refused{"));
    let refused: u64 = refused.map(|(_, n)| n).sum();
    assert_eq!(
        refused,
        agg.counter(paths[1]),
        "a from-scratch replay names one reason"
    );
    assert_eq!(live(&r), live(&exec.replay_with(delta, inject_at).unwrap()));
    r
}

fn rolled(exec: &Execution, delta: &[TupleChange], inject_at: u64) -> Replayed {
    rolled_by(exec, delta, inject_at, "roll")
}

/// (a) The re-issued suffix is shifted in time. After a replay the clock
/// has overrun every logged due. That no longer decides the order: a
/// derived event is due at its trigger's due plus the link delay, not at
/// the clock, so even re-issued at their original dues the items' `got`s
/// are due before the fence and the aggregate counts them — the shift's
/// answer. Under the old due rule (the clock plus the delay) the naive
/// re-issue's fence ran first and counted the prefix's one item: the
/// ordering hazard the shift exists for came from the clock, not the log.
#[test]
fn reissue_is_time_shifted_so_the_fence_follows_derived_work() {
    let exec = execution();
    let delta = replace_item(2, 5);
    let r = rolled(&exec, &delta, 0);
    assert_eq!(totals(&r), [tuple!("total", 1 + 5 + 3)]);
    let agg = exec.tracer.aggregate();
    assert_eq!(agg.counter("replay.fork_events"), 3, "item 2, item 3, the fence");
    assert_eq!(agg.counter("replay.log_events"), 5);
    assert_eq!((agg.span_count("replay.withdraw"), agg.span_count("replay.reissue")), (1, 1));

    // The same withdraw and re-issue by hand, at the original dues.
    let mut naive = exec.replay().unwrap();
    let events = exec.log.events();
    let now = naive.now();
    for e in events[2..].iter().rev() {
        naive.engine.schedule_delete(now, e.node, e.tuple.clone()).unwrap();
    }
    naive.engine.run().unwrap();
    assert!(totals(&naive).is_empty(), "withdrawing the fence retires its aggregate");
    for e in dp_replay::apply_changes(&exec.log, &delta, 0).events()[2..].iter() {
        assert!(e.due < naive.now(), "the clock has overrun every logged due");
        naive.engine.schedule_insert(e.due, e.node, e.tuple.clone()).unwrap();
    }
    naive.engine.run().unwrap();
    assert_eq!(
        totals(&naive),
        [tuple!("total", 1 + 5 + 3)],
        "each got is due a link delay after its item's due, before the fence's"
    );
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
    for e in events[5..].iter().rev() {
        match e.op {
            BaseOp::Insert => naive.engine.schedule_delete(now, e.node, e.tuple.clone()),
            BaseOp::Delete => naive.engine.schedule_insert(now, e.node, e.tuple.clone()),
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
    assert_eq!(rewritten, Some(2), "the replacement keeps item 2's place and due");
    assert_eq!(patched.events()[2].due, ITEMS + 2);
    // The re-issued fence would sum the later item too: see (f).
    assert_eq!(totals(&rolled_by(&exec, &delta, inject_at, "scratch")), [tuple!("total", 9)]);
    assert_eq!(exec.tracer.aggregate().counter("replay.refused{why=order}"), 1);

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
/// against the low-priority entry again: the packet is the prefix's, so no
/// re-issue can. The recording shows it — a prefix firing that read state
/// through a builtin used the changed entry — and the trust rule sends
/// the patched log to a from-scratch replay.
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
    assert_eq!(agg.span_count("replay.affect"), 1, "the roll read the recording");
    assert_eq!(agg.span_count("replay.withdraw"), 0, "and withdrew nothing");
    assert_eq!(agg.counter("replay.rolled{path=scratch}"), 1, "the prefix was not trusted");
    assert_eq!(agg.counter("replay.refused{why=trust-prefix}"), 1);

    // The rewind and re-issue by hand: the packet is delivered nowhere.
    let mut naive = exec.replay().unwrap();
    let now = naive.now();
    let ctl = NodeId::new("ctl");
    naive.engine.schedule_delete(now, ctl, high(any)).unwrap();
    naive.engine.schedule_insert(now + 1, ctl, high(cidr("0.0.0.0/4"))).unwrap();
    naive.engine.run().unwrap();
    assert!(!delivered(&naive, "a") && !delivered(&naive, "b"));
}

/// Every live tuple's FINDSEED seed, for the tuples a packet seeds: a
/// packet's tree must spring from the packet in a roll as it does from
/// scratch.
fn packet_seeds(r: &Replayed) -> BTreeSet<(NodeId, Tuple, Tuple)> {
    live(r)
        .into_iter()
        .filter_map(|(node, tuple)| {
            let tree = r.query(&dp_types::TupleRef::new(node, tuple.clone()))?;
            let view = dp_provenance::tuple_view(&tree);
            let seed = Tuple::clone(&view.node(view.seed()).tref.tuple);
            (seed.table.as_str() == "pktIn").then_some((node, tuple, seed))
        })
        .collect()
}

/// (e) Δ lands first, at the clock, and what it reaches is re-issued. A
/// packet that matched no entry before Δ is parked at the switch: when
/// Δ's wider entry arrives it is the entry that triggers the forwarding,
/// where from scratch the entry was there first and the packet triggers.
/// A packet a lower-priority entry forwarded reads Δ's entry through
/// `best_match` (it now wins). Both are re-issued, in log order after
/// Δ's entry, so each packet's tree springs from the packet; the packet
/// no entry Δ touches keeps what it had.
#[test]
fn what_the_change_reaches_is_reissued_and_nothing_else() {
    use dp_sdn::{cfg_entry, deliver_at, pkt_in, sdn_program, Topology};
    use dp_types::prefix::{cidr, ip};

    let mut topo = Topology::new("ctl");
    topo.switches(&["S1"]);
    let (to_a, to_b, to_c) = (topo.host("S1", "a"), topo.host("S1", "b"), topo.host("S1", "c"));
    let mut exec = Execution::new(sdn_program("ctl").unwrap());
    exec.tracer = Tracer::aggregate_only();
    topo.emit(&mut exec.log, 10);
    let any = cidr("0.0.0.0/0");
    exec.log.insert(10, "ctl", cfg_entry(1, "S1", 5, any, cidr("10.9.0.0/16"), to_c));
    exec.log.insert(10, "ctl", cfg_entry(2, "S1", 3, any, cidr("10.0.2.0/24"), to_b));
    let entry = |dst| cfg_entry(3, "S1", 5, any, cidr(dst), to_a);
    exec.log.insert(10, "ctl", entry("10.0.0.0/24")); // the fork: Δ widens it
    let src = ip("19.0.0.1");
    let packets = [(1, "10.0.1.5"), (2, "10.0.2.9"), (3, "10.9.0.1")];
    for (pid, dst) in packets {
        exec.log.insert(1_000 + pid as u64, "S1", pkt_in(pid, src, ip(dst), 6, 64));
    }
    let delta = [TupleChange {
        node: NodeId::new("ctl"),
        before: Some(entry("10.0.0.0/24")),
        after: Some(entry("10.0.0.0/22")),
    }];
    let delivered = |r: &Replayed, host, pid, dst| {
        let at = deliver_at(host, pid, src, ip(dst), 6, 64);
        r.exists(&at.node, &at.tuple)
    };
    let held = exec.replay().unwrap();
    assert!(!delivered(&held, "a", 1, "10.0.1.5"), "fixture: packet 1 matches nothing");
    assert!(delivered(&held, "b", 2, "10.0.2.9"), "fixture: packet 2 takes the low entry");

    let r = rolled(&exec, &delta, 0);
    let scratch = exec.replay_with(&delta, 0).unwrap();
    assert!(delivered(&r, "a", 1, "10.0.1.5") && delivered(&r, "a", 2, "10.0.2.9"));
    assert!(delivered(&r, "c", 3, "10.9.0.1"));
    assert_eq!(packet_seeds(&r), packet_seeds(&scratch));
    let agg = exec.tracer.aggregate();
    assert_eq!(agg.counter("replay.fork_events"), 4, "the entry and three packets");
    assert_eq!(agg.counter("replay.affected_events"), 3, "the entry and packets 1 and 2");
}

/// (f) An independent event logged after an affected one that joins it is
/// included or the roll falls back — never kept with the order flipped.
/// Replacing item 2 reaches the fence (its sum read item 2). A re-issued
/// fence would find the later item 9 already there and sum it, where from
/// scratch the fence fired first; phase C's recording shows the join, and
/// the patched log is replayed from scratch for that reason and no other.
#[test]
fn an_affected_event_never_joins_a_later_independent_one() {
    let mut exec = execution();
    exec.log.insert(FENCE + 10, "m", tuple!("item", 9, 7));
    let delta = replace_item(2, 5);
    let scratch = exec.replay_with(&delta, 0).unwrap();
    assert_eq!(totals(&scratch), [tuple!("total", 1 + 5 + 3)]);
    let r = rolled_by(&exec, &delta, 0, "scratch");
    assert_eq!(totals(&r), totals(&scratch));
    let agg = exec.tracer.aggregate();
    assert_eq!(agg.counter("replay.refused{why=order}"), 1);
    // The call found item 2 and the fence, and neither item 3 nor item 9.
    assert_eq!(agg.counter("replay.affected_events"), 2);
}

/// (g) `best_match`'s read footprint: an entry matters to a packet's
/// priority resolution exactly when it matches the packet — source and
/// destination both — whatever its priority, and nothing but a flow
/// entry matters at all.
#[test]
fn best_match_reads_the_entries_that_match_the_packet() {
    use dp_ndlog::StatefulBuiltin;
    use dp_sdn::BestMatch;
    use dp_types::prefix::{cidr, ip};
    use dp_types::Value;

    let bm = BestMatch::new(None);
    let (src, dst) = (Value::Ip(ip("10.1.2.3")), Value::Ip(ip("172.16.0.9")));
    let args = [Value::str("S1"), src, dst, Value::Int(5)];
    let entry = |prio: i64, sm: &str, dm: &str| {
        let (sm, dm) = (Value::Prefix(cidr(sm)), Value::Prefix(cidr(dm)));
        Tuple::new("flowEntry", vec![Value::Int(1), Value::Int(prio), sm, dm, Value::Int(2)])
    };
    for (prio, sm, dm, reads) in [
        (5, "10.0.0.0/8", "172.16.0.0/12", true),
        (9, "0.0.0.0/0", "172.16.0.9/32", true),
        (1, "10.1.2.3/32", "0.0.0.0/0", true),
        (5, "11.0.0.0/8", "172.16.0.0/12", false),
        (5, "10.0.0.0/8", "172.17.0.0/16", false),
        (9, "11.0.0.0/8", "10.0.0.0/8", false),
    ] {
        assert_eq!(bm.may_read(&args, &entry(prio, sm, dm)), reads, "prio {prio} {sm} {dm}");
    }
    assert!(!bm.may_read(&args, &tuple!("pktAt", 1, 2, 3, 4, 5)));
}

/// `unlisted!(X)`: no `deny(X)` at the node. A `deny` tuple rejects a
/// match without taking part in any firing.
struct Unlisted;

impl dp_ndlog::StatefulBuiltin for Unlisted {
    fn name(&self) -> dp_types::Sym {
        dp_types::Sym::new("unlisted")
    }

    fn eval(
        &self,
        view: &dp_ndlog::NodeView<'_>,
        args: &[dp_types::Value],
    ) -> dp_types::Result<bool> {
        let deny = dp_types::Sym::new("deny");
        Ok(!view.table(&deny).any(|t| t.args.first() == args.first()))
    }

    fn may_read(&self, args: &[dp_types::Value], tuple: &Tuple) -> bool {
        tuple.table.as_str() == "deny" && tuple.args.first() == args.first()
    }
}

/// (h) A tuple Δ adds can reject a match it takes no part in: `deny(3)`
/// triggers nothing, so no firing of phase A names the item it blocks.
/// The item's recorded firing called `unlisted!` with arguments `deny(3)`
/// now falsifies — `may_read` over the tuples Δ *opened* finds it — and
/// only that item is re-issued, and blocked.
#[test]
fn a_tuple_the_change_adds_rejects_what_it_takes_no_part_in() {
    use FieldType::Int;
    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new("in", TableKind::ImmutableBase, [("x", Int)]));
    reg.declare(Schema::new("deny", TableKind::MutableBase, [("x", Int)]));
    reg.declare(Schema::new("out", TableKind::Derived, [("x", Int)]));
    let program = Program::builder(reg)
        .rules_text("pass out(@N, X) :- in(@N, X), unlisted!(X).")
        .unwrap()
        .builtin(Arc::new(Unlisted))
        .build()
        .unwrap();
    let mut exec = Execution::new(program);
    exec.tracer = Tracer::aggregate_only();
    for x in 1..=4 {
        exec.log.insert(ITEMS + x as u64, "n", tuple!("in", x));
    }
    let delta = [TupleChange {
        node: NodeId::new("n"),
        before: None,
        after: Some(tuple!("deny", 3)),
    }];
    let r = rolled(&exec, &delta, ITEMS); // injected before every item
    let n = NodeId::new("n");
    assert!(!r.exists(&n, &tuple!("out", 3)) && r.exists(&n, &tuple!("out", 4)));
    let agg = exec.tracer.aggregate();
    assert_eq!(agg.counter("replay.fork_events"), 4, "the held log's four items");
    assert_eq!(agg.counter("replay.affected_events"), 2, "deny(3) and item 3");
}

/// Every live tuple's tree, rendered without its ` t=` stamps (a roll runs
/// at later logical times), with its FINDSEED seed.
fn trees(r: &Replayed) -> Vec<(NodeId, Tuple, String, dp_types::TupleRef)> {
    live(r)
        .into_iter()
        .map(|(node, tuple)| {
            let root = dp_types::TupleRef::new(node, tuple.clone());
            let tree = r.query(&root).expect("a live tuple has a tree");
            let view = dp_provenance::tuple_view(&tree);
            let seed = view.node(view.seed()).tref.clone();
            let render = tree.render();
            let unstamped = render
                .lines()
                .map(|l| l.rsplit_once(" t=").map_or(l, |(head, _)| head));
            (node, tuple, unstamped.collect::<Vec<_>>().join("\n"), seed)
        })
        .collect()
}

/// (i) A located tuple is one id however many allocations carry it. Each
/// `insert` and `delete` of a log allocates its own tuple: packet 3's
/// insert and its later delete are two allocations of one located tuple,
/// and the entry Δ widens is logged three times (installed, withdrawn,
/// reinstalled) in three more. The roll groups each into one id: the
/// entry's events go and come back together, interleaved with the packets
/// they reach; packet 3, which no entry Δ touches, keeps both its events
/// and its episodes; and the result is the from-scratch replay's.
#[test]
fn one_located_tuple_is_one_id_across_its_allocations() {
    use dp_sdn::{cfg_entry, pkt_in, sdn_program, Topology};
    use dp_types::prefix::{cidr, ip};

    let mut topo = Topology::new("ctl");
    topo.switches(&["S1"]);
    let (to_a, to_b, to_c) = (
        topo.host("S1", "a"),
        topo.host("S1", "b"),
        topo.host("S1", "c"),
    );
    let mut exec = Execution::new(sdn_program("ctl").unwrap());
    exec.tracer = Tracer::aggregate_only();
    topo.emit(&mut exec.log, 10);
    let any = cidr("0.0.0.0/0");
    exec.log.insert(
        10,
        "ctl",
        cfg_entry(1, "S1", 5, any, cidr("10.9.0.0/16"), to_c),
    );
    exec.log.insert(
        10,
        "ctl",
        cfg_entry(2, "S1", 3, any, cidr("10.0.2.0/24"), to_b),
    );
    let entry = |dst| cfg_entry(3, "S1", 5, any, cidr(dst), to_a);
    exec.log.insert(10, "ctl", entry("10.0.0.0/24")); // the fork: Δ widens it
    let src = ip("19.0.0.1");
    let packet = |pid, dst| pkt_in(pid, src, ip(dst), 6, 64);
    for (pid, dst) in [(1, "10.0.1.5"), (2, "10.0.2.9"), (3, "10.9.0.1")] {
        exec.log.insert(1_000 + pid as u64, "S1", packet(pid, dst));
    }
    exec.log.delete(1_500, "S1", packet(3, "10.9.0.1"));
    exec.log.delete(1_800, "ctl", entry("10.0.0.0/24"));
    exec.log.insert(1_900, "ctl", entry("10.0.0.0/24"));
    let delta = [TupleChange {
        node: NodeId::new("ctl"),
        before: Some(entry("10.0.0.0/24")),
        after: Some(entry("10.0.0.0/22")),
    }];
    let events = exec.log.events();
    let allocations = |t: &Tuple| {
        let mut of: Vec<_> = events
            .iter()
            .filter(|e| *e.tuple == *t)
            .map(|e| Arc::as_ptr(&e.tuple))
            .collect();
        of.dedup();
        of.len()
    };
    assert_eq!(
        allocations(&packet(3, "10.9.0.1")),
        2,
        "fixture: packet 3's two events"
    );
    assert_eq!(
        allocations(&entry("10.0.0.0/24")),
        3,
        "fixture: the entry's three events"
    );
    drop(events);

    let r = rolled(&exec, &delta, 0);
    let scratch = exec.replay_with(&delta, 0).unwrap();
    assert_eq!(trees(&r), trees(&scratch));
    assert_eq!(packet_seeds(&r), packet_seeds(&scratch));
    let agg = exec.tracer.aggregate();
    assert_eq!(
        agg.counter("replay.fork_events"),
        7,
        "the entry's three events, four of packets"
    );
    assert_eq!(
        agg.counter("replay.suffix_tuples"),
        5,
        "either entry and three packets"
    );
    assert_eq!(
        agg.counter("replay.affected_events"),
        5,
        "the new entry's three events, packets 1 and 2"
    );
}

/// (j) Withdrawal cannot undo a cycle. Two nodes forward a packet to each
/// other, so once it has gone round, its tuple at either node is derived
/// from the other's: withdrawing the packet's event leaves both live, and
/// re-issuing it would find them already there, their episodes older
/// than Δ's. The roll sees a tuple that lost a derivation in the
/// withdrawal stay live resting only on itself, and replays from scratch
/// instead.
#[test]
fn tuples_that_hold_each_other_up_send_the_roll_to_scratch() {
    use FieldType::{Int, Str};
    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new("pkt", TableKind::ImmutableBase, [("k", Int)]));
    reg.declare(Schema::new("link", TableKind::ImmutableBase, [("to", Str)]));
    reg.declare(Schema::new("tag", TableKind::MutableBase, [("t", Int)]));
    reg.declare(Schema::new("at", TableKind::Derived, [("k", Int)]));
    reg.declare(Schema::new("seen", TableKind::Derived, [("k", Int), ("t", Int)]));
    let program = Program::builder(reg)
        .rules_text(
            "in at(@M, K) :- pkt(@M, K).
             hop at(@N, K) :- at(@M, K), link(@M, N).
             see seen(@M, K, T) :- at(@M, K), tag(@M, T).",
        )
        .unwrap()
        .build()
        .unwrap();
    let mut exec = Execution::new(program);
    exec.tracer = Tracer::aggregate_only();
    exec.log.insert(0, "a", tuple!("link", "b"));
    exec.log.insert(0, "b", tuple!("link", "a"));
    exec.log.insert(5, "a", tuple!("tag", 1));
    exec.log.insert(10, "a", tuple!("pkt", 1));
    // Δ's tag joins the packet's tuple at `a`: the packet is affected.
    let delta = [TupleChange {
        node: NodeId::new("a"),
        before: Some(tuple!("tag", 1)),
        after: Some(tuple!("tag", 2)),
    }];
    let r = rolled_by(&exec, &delta, 0, "scratch");
    assert_eq!(exec.tracer.aggregate().counter("replay.refused{why=cycle}"), 1);
    assert!(r.exists(&NodeId::new("a"), &tuple!("seen", 1, 2)));
}
