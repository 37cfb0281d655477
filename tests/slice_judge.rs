//! The slice's judge over every hand-built diagnosis: Table 1, the
//! extension scenarios, the three campus shapes at seeds 7, 3 and 11,
//! SDN3 with a second owner of the repaired entry's key, a relayed
//! name service whose alignment expects a base tuple owned outside the
//! slice, and three cases of the guard that holds a flow table only for
//! the entries covering a held packet: a rewrite to an address no queried
//! tuple carries, a repair whose narrowed entry covers neither packet, and
//! a builtin that counts a guarded table.
//! A diagnosis replays only the slices its trees depend on; here each one
//! runs once more over the whole logs, and the two must agree on the
//! change set, the rounds, the failure, `verified`, both seeds, both tree
//! sizes and both trees up to stamp ranks
//! ([`diffprov::core::judge`]). The `dp-sim` battery holds the same
//! judge on every divergent generated seed.

use std::sync::Arc;

use diffprov::core::{Failure, QueryEvent};
use diffprov::ndlog::{NodeView, Program, StatefulBuiltin};
use diffprov::ndlog::TupleChange;
use diffprov::provenance::tuple_view;
use diffprov::replay::{Execution, Replayed};
use diffprov::sdn::{campus, cfg_entry, deliver_at, pkt_in, CampusConfig, Topology};
use diffprov::trace::{Aggregate, Tracer};
use diffprov::types::prefix::{cidr, ip};
use diffprov::types::{
    FieldType, NodeId, Result, Schema, SchemaRegistry, Sym, TableKind, Tuple, TupleRef, Value,
};
use diffprov::{mapreduce, sdn, DiffProv, Report, Scenario};

fn judged(s: &Scenario) -> (Report, Aggregate) {
    let events = (&s.good_event, &s.bad_event);
    judge(s.name, &DiffProv::default(), (&s.good_exec, &s.bad_exec), events)
}

/// Judges `dp`'s diagnosis of the bad event against the good one, on
/// copies of the executions that report to one fresh tracer: the sliced
/// diagnosis must be the whole logs', each log is indexed at most once
/// (`replay.slice_index`) — the copies share their logs' indexes, and
/// UPDATETREE, MAKEAPPEAR's lookups and widenings read the one index — and
/// a repeat diagnosis reads no index events. Returns the sliced report and
/// the tracer's aggregate.
fn judge(
    case: &str,
    dp: &DiffProv,
    (good, bad): (&Execution, &Execution),
    (good_event, bad_event): (&QueryEvent, &QueryEvent),
) -> (Report, Aggregate) {
    let tracer = Tracer::aggregate_only();
    let (mut good, mut bad) = (good.clone(), bad.clone());
    good.tracer = tracer.clone();
    bad.tracer = tracer.clone();
    let judged = dp
        .judge(&good, good_event, &bad, bad_event)
        .unwrap_or_else(|e| panic!("{case}: {e}"));
    assert!(
        judged.disagreements.is_empty(),
        "{case}: the sliced diagnosis is not the whole log's:\n{}\n{}",
        judged.disagreements.join("\n"),
        judged.report
    );
    let agg = tracer.aggregate();
    let logs = if good.log.same(&bad.log) { 1 } else { 2 };
    assert!(agg.span_count("replay.slice_index") <= logs, "{case}: one index per log");
    let again = dp.diagnose(&good, good_event, &bad, bad_event).unwrap();
    let verdict = |r: &Report| (r.delta.clone(), r.verified);
    assert_eq!(verdict(&again), verdict(&judged.report), "{case}: a repeat diagnosis");
    let indexed = tracer.aggregate().counter("replay.index_events");
    assert_eq!(indexed, agg.counter("replay.index_events"), "{case}: a repeat indexes nothing");
    (judged.report, agg)
}

#[test]
fn table1_and_the_extensions_diagnose_their_slices_as_their_logs() {
    let mut scenarios = sdn::all_sdn_scenarios();
    scenarios.extend(mapreduce::all_mr_scenarios());
    scenarios.extend([
        sdn::flapping(),
        sdn::ecmp_same_branch(),
        sdn::ecmp_cross_branch(),
        sdn::nat_rewrite(),
    ]);
    for s in &scenarios {
        judged(s);
    }
}

/// Two owners sharing a key: SDN3's repair inserts `cfgEntry` rule 20 for
/// `S1` at the controller, and the log also configures rule 20 for a
/// switch no packet reaches. The slice holds only its owners' rows of
/// `cfgEntry`, yet the entry the repair replaces must be found as in the
/// whole log: the other switch's, owned outside the cut.
#[test]
fn a_repair_finds_the_entry_it_replaces_outside_the_slice() {
    let mut s = sdn::sdn3();
    let stray = cfg_entry(20, "S9", 10, cidr("0.0.0.0/0"), cidr("10.0.0.0/8"), 1);
    for exec in [&mut s.good_exec, &mut s.bad_exec] {
        exec.log.insert(0, "ctl", stray.clone());
    }
    let (report, _) = judged(&s);
    assert!(report.verified, "{report}");
    assert_eq!(report.delta[0].before.as_ref(), Some(&stray), "{report}");
}

/// The diagbench shapes, at test scale: table-heavy, traffic-heavy and
/// churning.
#[test]
fn the_campus_shapes_diagnose_their_slices_as_their_logs() {
    for seed in [7, 3, 11] {
        for (bulk, packets, churn) in [(40, 100, 0), (4, 1_500, 0), (10, 100, 4)] {
            let c = campus(&CampusConfig {
                seed,
                bulk_entries_per_router: bulk,
                background_packets: packets,
                update_churn_rounds: churn,
                ..CampusConfig::default()
            });
            judged(&c.scenario);
        }
    }
}

/// A name service where a query hops between nodes (`fwd`) to a server,
/// and a master pushes the server's record (`push`, owned by the server
/// it names, as `cfgEntry` is by its switch). Queries are the key group.
fn dns_relay_program() -> Arc<Program> {
    let mut reg = SchemaRegistry::new();
    let table = |name: &'static str, kind, fields: &[(&'static str, FieldType)]| {
        Schema::new(name, kind, fields.iter().copied())
    };
    use FieldType::{Int, Str};
    use TableKind::{Derived, ImmutableBase, MutableBase};
    reg.declare(table("query", ImmutableBase, &[("qid", Int), ("name", Str)]));
    reg.declare(table("fwd", ImmutableBase, &[("next", Str)]));
    reg.declare(
        table("push", MutableBase, &[("name", Str), ("addr", Int), ("srv", Str)]).with_key([0]),
    );
    reg.declare(table("rec", Derived, &[("name", Str), ("addr", Int)]));
    reg.declare(table("qIn", Derived, &[("qid", Int), ("name", Str)]));
    reg.declare(table("qAt", Derived, &[("qid", Int), ("name", Str)]));
    reg.declare(table("ans", Derived, &[("qid", Int), ("addr", Int)]));
    Program::builder(reg)
        .rules_text(
            "enter qIn(@S, Q, N) :- query(@S, Q, N).
             start qAt(@S, Q, N) :- qIn(@S, Q, N).
             hop   qAt(@T, Q, N) :- fwd(@M, T), qAt(@M, Q, N).
             load  rec(@S, N, A) :- push(@M, N, A, S).
             reply ans(@S, Q, A) :- rec(@S, N, A), qAt(@S, Q, N).",
        )
        .unwrap()
        .build()
        .unwrap()
}

/// An expected base tuple owned outside the bad slice. The reference
/// query hops `e1 → mg → s`, the faulty one `e2 → s`, and each answer's
/// seed is the record its master pushed after the query arrived: `mg`'s
/// and `mb`'s. With the seeds' nodes mapped (`mg` → `mb`), aligning the
/// faulty answer expects the query to hop through `mb`, so MAKEAPPEAR
/// asks whether `fwd(s)@mb` exists. The whole log holds it; the slice
/// does not, since neither query reaches `mb` and `mb`'s own push is
/// owned by `s`. Background queries elsewhere keep the slice below the
/// log.
#[test]
fn an_expected_base_tuple_owned_outside_the_slice_is_found() {
    let mut exec = Execution::new(dns_relay_program());
    let fwd = |next: &str| Tuple::new("fwd", vec![Value::str(next)]);
    let query = |qid: i64, name: &str| Tuple::new("query", vec![Value::Int(qid), Value::str(name)]);
    let push = |name: &str, addr: i64, srv: &str| {
        Tuple::new("push", vec![Value::str(name), Value::Int(addr), Value::str(srv)])
    };
    let ans = |qid: i64, addr: i64| Tuple::new("ans", vec![Value::Int(qid), Value::Int(addr)]);
    for (node, next) in [("e1", "mg"), ("mg", "s"), ("e2", "s"), ("mb", "s")] {
        exec.log.insert(0, node, fwd(next));
    }
    for i in 0..40 {
        let (entry, server) = (format!("x{i}"), format!("y{i}"));
        exec.log.insert(0, entry.as_str(), fwd(&server));
        exec.log.insert(10, entry.as_str(), query(100 + i, "bg"));
        exec.log.insert(50, format!("z{i}").as_str(), push("bg", i, &server));
    }
    exec.log.insert(10, "e1", query(1, "www"));
    exec.log.insert(10, "e2", query(2, "www2"));
    exec.log.insert(100, "mg", push("www", 100, "s"));
    exec.log.insert(200, "mb", push("www2", 200, "s"));
    let good = QueryEvent::new(TupleRef::new("s", ans(1, 100)), u64::MAX);
    let bad = QueryEvent::new(TupleRef::new("s", ans(2, 200)), u64::MAX);
    let dp = DiffProv {
        map_seed_nodes: true,
        ..DiffProv::default()
    };
    let (report, _) = judge("relay", &dp, (&exec, &exec), (&good, &bad));
    // The whole log's answer: `mb` forwards to `s`, so the hop that is
    // missing is `e1`'s to `mb`, and `fwd` is immutable.
    match &report.failure {
        Some(Failure::ImmutableChange { needed, .. }) => {
            assert_eq!(*needed, TupleRef::new("e1", fwd("mb")), "{report}")
        }
        other => panic!("expected an immutable hop, got {other:?}"),
    }
}

/// A rewrite to an address no queried tuple carries. `LB` rewrites the
/// VIP to `10.9.9.9`, `MID` forwards that address by an entry covering
/// it alone, and `S2` rewrites it to a backend — repointed, between the
/// two requests, from `b1` to `b2`. The queried deliveries carry the VIP's
/// backends, not `10.9.9.9`: the entries at `MID` and `S2` that match it
/// are held only once the closure widens the addresses by what a held
/// packet carried. Background entries at `MID` keep the slice below the
/// log.
#[test]
fn a_rewritten_address_widens_the_guard() {
    let mut topo = Topology::new("ctl");
    topo.switches(&["LB", "MID", "S2"]);
    topo.link("LB", "MID");
    topo.link("MID", "S2");
    let (p_b1, p_b2) = (topo.host("S2", "b1"), topo.host("S2", "b2"));
    let mut exec = Execution::new(sdn::sdn_program("ctl").unwrap());
    // `fwd` checks `flowEntry`'s matches, `install` carries `cfgEntry`'s
    // into them, and `fwdr` checks `rewriteEntry`'s.
    let plan = exec.program.slice_plan();
    let guard = |t: &str| plan.guard(&Sym::new(t)).to_vec();
    let guards = [guard("cfgEntry"), guard("flowEntry"), guard("rewriteEntry")];
    assert_eq!(guards, [vec![3, 4], vec![2, 3], vec![1]]);
    topo.emit(&mut exec.log, 10);
    let rewrite = |rid: i64, m: &str, to: &str, port: i64| {
        let (m, to) = (Value::Prefix(cidr(m)), Value::Ip(ip(to)));
        Tuple::new("rewriteEntry", vec![Value::Int(rid), m, to, Value::Int(port)])
    };
    let any = cidr("0.0.0.0/0");
    let to_mid = topo.port_towards("LB", "MID");
    exec.log.insert(10, "LB", rewrite(1, "10.0.0.100/32", "10.9.9.9", to_mid));
    let to_s2 = topo.port_towards("MID", "S2");
    exec.log.insert(10, "ctl", cfg_entry(30, "MID", 5, any, cidr("10.9.9.9/32"), to_s2));
    for i in 0..40 {
        let m = cidr(&format!("192.168.{i}.0/24"));
        exec.log.insert(10, "ctl", cfg_entry(100 + i, "MID", 5, any, m, to_s2));
    }
    let good_to = rewrite(2, "10.9.9.9/32", "10.0.1.1", p_b1);
    let bad_to = rewrite(2, "10.9.9.9/32", "10.0.1.2", p_b2);
    exec.log.insert(10, "S2", good_to.clone());
    let (src_good, src_bad, vip) = (ip("80.1.1.1"), ip("80.2.2.2"), ip("10.0.0.100"));
    exec.log.insert(1_000, "LB", pkt_in(1, src_good, vip, 6, 512));
    exec.log.delete(1_500, "S2", good_to);
    exec.log.insert(1_500, "S2", bad_to);
    exec.log.insert(2_000, "LB", pkt_in(2, src_bad, vip, 6, 512));
    let good = QueryEvent::new(deliver_at("b1", 1, src_good, ip("10.0.1.1"), 6, 512), u64::MAX);
    let bad = QueryEvent::new(deliver_at("b2", 2, src_bad, ip("10.0.1.2"), 6, 512), u64::MAX);
    let (report, agg) = judge("rewrite", &DiffProv::default(), (&exec, &exec), (&good, &bad));
    assert!(report.verified, "{report}");
    assert!(agg.counter("replay.slice_guard_dropped") >= 40, "the guard left the background in");
    assert_eq!(agg.counter("replay.slice_refused{why=size}"), 0);
}

/// SDN2's repair narrows the scrubber's entry from `66.0.0.0/7` to
/// `66.0.0.0/8`, which covers neither packet's source: the guard does not
/// pass it, yet UPDATETREE patches it in as the whole log does — its events
/// are the replaced entry's — without widening the slice. A second
/// switch's row sharing the entry's key, and background entries at `S1`,
/// sit outside the cut.
#[test]
fn a_narrowed_entry_outside_the_guard_rolls_as_the_whole_log() {
    let mut s = sdn::sdn2();
    let any = cidr("0.0.0.0/0");
    for exec in [&mut s.good_exec, &mut s.bad_exec] {
        exec.log.insert(0, "ctl", cfg_entry(20, "S9", 10, cidr("66.0.0.0/8"), any, 1));
        for i in 0..40 {
            let m = cidr(&format!("192.168.{i}.0/24"));
            exec.log.insert(0, "ctl", cfg_entry(100 + i, "S1", 5, any, m, 1));
        }
    }
    let (report, agg) = judged(&s);
    assert!(report.verified, "{report}");
    let after = report.delta[0].after.as_ref().expect("a narrowing");
    let sm = after.args[3].as_prefix().unwrap();
    assert!(!sm.contains(ip("68.0.0.5")) && !sm.contains(ip("67.1.2.3")), "{report}");
    assert_eq!(agg.counter("replay.slice_refused{why=size}"), 0);
    assert!(agg.counter("replay.slice_guard_dropped") >= 40);
    // The sliced diagnosis's UPDATETREE patches the held cut log: it cuts
    // no log beyond the closure rounds of the slice's first replay.
    assert_eq!(agg.span_count("replay.slice_cut"), agg.counter("replay.slice_rounds"));
}

/// `crowded!(N)` holds while node `N` holds at least twenty tuples, read
/// with [`NodeView::len`] or, for `table`, twenty routes read with
/// [`NodeView::table`]: either way every route counts, covering the packet
/// or not. It declares that it reads routes; `len` also counts `n1`'s
/// packets and what they sent, which are the two queried packets', held
/// by every slice.
struct Crowded {
    table: bool,
}

impl StatefulBuiltin for Crowded {
    fn name(&self) -> Sym {
        Sym::new("crowded")
    }

    fn eval(&self, view: &NodeView<'_>, _: &[Value]) -> Result<bool> {
        Ok(match self.table {
            true => view.table(&Sym::new("route")).count() >= 20,
            false => view.len() >= 20,
        })
    }

    fn reads_table(&self, table: &Sym) -> bool {
        *table == Sym::new("route")
    }
}

/// A builtin that counts a guarded table. The routes at `n1` are guarded
/// by `fwd`'s `prefix_contains(M, D)`, but `crowded!` reads all of them:
/// the slice must give the guard up for the owner share
/// (`replay.slice_refused{why=guard-read}`) and diagnose as the whole log.
/// `n2`'s routes and packets keep the slice below the log.
///
/// On one execution the good packet's firing counts the routes, and one
/// replay serves both trees. On separate executions the bad packet matches
/// no route: its `fwd` join fails before `crowded!` runs, so no firing of
/// the bad replay reads the routes and its slice keeps the guard.
/// MAKEAPPEAR then asks `crowded!(n1)` of the bad slice, which counts the
/// covering routes alone — too few — where the whole log has them all;
/// the read on `Engine::view` gives the bad slice's guard up too, and the
/// builtin is asked again on a wider replay.
#[test]
fn a_builtin_counting_a_guarded_table_gives_the_guard_up() {
    for table in [false, true] {
        let agg = counts_a_guarded_table(Crowded { table }, Shape::Shared);
        assert_eq!(agg.counter("replay.slice_refused{why=guard-read}"), 1);
        assert_eq!(agg.counter("replay.slice_guard_dropped"), 0);
        // The good replay's firing, then MAKEAPPEAR's read of the bad one.
        let agg = counts_a_guarded_table(Crowded { table }, Shape::Separate);
        assert_eq!(agg.counter("replay.slice_refused{why=guard-read}"), 2);
    }
}

/// Whether the two packets share an execution, or the bad one runs where
/// no route covers it.
enum Shape {
    Shared,
    Separate,
}

/// Judges a diagnosis of the route-counting program (`crowded`'s) in
/// `shape`, asserts it diagnoses as the whole log without replaying it,
/// and returns the tracer's aggregate.
fn counts_a_guarded_table(crowded: Crowded, shape: Shape) -> Aggregate {
    let mut reg = SchemaRegistry::new();
    use FieldType::{Int, Ip, Prefix};
    reg.declare(Schema::new("pkt", TableKind::ImmutableBase, [("pid", Int), ("dst", Ip)]));
    reg.declare(
        Schema::new("route", TableKind::MutableBase, [("rid", Int), ("m", Prefix), ("pt", Int)])
            .with_key([0]),
    );
    reg.declare(Schema::new("sent", TableKind::Derived, [("pid", Int), ("dst", Ip), ("pt", Int)]));
    let program = Program::builder(reg)
        .rules_text(
            "fwd sent(@N, P, D, Pt) :- pkt(@N, P, D), route(@N, R, M, Pt), \
             prefix_contains(M, D), crowded!(N).",
        )
        .unwrap()
        .builtin(Arc::new(crowded))
        .build()
        .unwrap();
    assert_eq!(program.slice_plan().guard(&Sym::new("route")), [1]);
    let route = |rid: i64, m: &str, pt: i64| {
        Tuple::new("route", vec![Value::Int(rid), Value::Prefix(cidr(m)), Value::Int(pt)])
    };
    let pkt = |pid: i64, dst: &str| Tuple::new("pkt", vec![Value::Int(pid), Value::Ip(ip(dst))]);
    let mut exec = Execution::new(program);
    exec.log.insert(0, "n1", route(1, "10.0.0.0/24", 1));
    for i in 0..30 {
        exec.log.insert(0, "n1", route(100 + i, &format!("192.168.{i}.0/24"), 9));
        exec.log.insert(0, "n2", route(200 + i, &format!("172.16.{i}.0/24"), 9));
        exec.log.insert(5, "n2", pkt(100 + i, &format!("172.16.{i}.1")));
    }
    let sent = |pid: i64, dst: &str, pt: i64| {
        Tuple::new("sent", vec![Value::Int(pid), Value::Ip(ip(dst)), Value::Int(pt)])
    };
    let n1 = NodeId::new("n1");
    let good = QueryEvent::new(TupleRef::new(n1, sent(1, "10.0.0.5", 1)), u64::MAX);
    let (mut good_exec, mut bad_exec) = (exec.clone(), exec);
    let bad = match shape {
        Shape::Shared => {
            bad_exec.log.insert(0, "n1", route(2, "10.0.1.0/24", 2));
            bad_exec.log.insert(10, "n1", pkt(1, "10.0.0.5"));
            bad_exec.log.insert(20, "n1", pkt(2, "10.0.1.5"));
            good_exec = bad_exec.clone();
            QueryEvent::new(TupleRef::new(n1, sent(2, "10.0.1.5", 2)), u64::MAX)
        }
        Shape::Separate => {
            good_exec.log.insert(10, "n1", pkt(1, "10.0.0.5"));
            bad_exec.log.insert(20, "n1", pkt(2, "10.0.1.5"));
            QueryEvent::new(TupleRef::new(n1, pkt(2, "10.0.1.5")), u64::MAX)
        }
    };
    let execs = (&good_exec, &bad_exec);
    let (report, agg) = judge("crowded", &DiffProv::default(), execs, (&good, &bad));
    assert!(report.verified, "{report}");
    assert_eq!(agg.counter("replay.slice_refused{why=size}"), 0);
    agg
}

/// Forty entries at `S1` for destinations no packet has: the guard
/// leaves them out of every slice, which keeps a slice below its log.
fn with_background(exec: &mut Execution) {
    for i in 0..40 {
        let m = cidr(&format!("192.168.{i}.0/24"));
        exec.log.insert(0, "ctl", cfg_entry(100 + i, "S1", 5, cidr("0.0.0.0/0"), m, 1));
    }
}

/// Replays the slice of `exec` that `roots` depend on and updates it to
/// each change set of `deltas` in turn, as DiffProv's UPDATETREE calls
/// do; after each, every tuple the slice holds is live in the replay of
/// the whole log patched by that set, with the same tree up to stamp
/// ranks. The slice must hold (no closure gave way to the whole log), and
/// its log is indexed once, however often an update cuts it again.
/// Returns the last update.
fn updated_as_the_whole_log(
    exec: &Execution,
    roots: &[TupleRef],
    deltas: &[&[TupleChange]],
    at: u64,
) -> Replayed {
    let trees = |r: &Replayed| -> Vec<(TupleRef, String)> {
        let live = r.engine.nodes().flat_map(|(node, state)| {
            state.all().map(move |(t, _)| TupleRef::new(*node, t.clone()))
        });
        live.map(|root| {
            let tree = r.query(&root).expect("a live tuple has a tree");
            (root, tree.render_ranked())
        })
        .collect()
    };
    let mut exec = exec.clone();
    exec.tracer = Tracer::aggregate_only();
    let roots = roots.iter().map(|r| (&r.node, &*r.tuple));
    let mut sliced = exec.replay_slice(roots, u64::MAX).unwrap();
    for (i, delta) in deltas.iter().enumerate() {
        sliced.update_tree(&exec, delta, at).unwrap();
        let whole: std::collections::BTreeMap<_, _> =
            trees(&exec.replay_with(delta, at).unwrap()).into_iter().collect();
        let got = trees(&sliced);
        assert!(!got.is_empty(), "update {i}: the slice holds nothing");
        for (root, tree) in &got {
            assert_eq!(Some(tree), whole.get(root), "update {i}: the tree of {root}");
        }
    }
    let agg = exec.tracer.aggregate();
    assert_eq!(agg.counter("replay.slice_refused{why=size}"), 0, "the slice holds");
    assert!(agg.span_count("replay.slice_index") <= 1, "one index for the log");
    sliced
}

/// SDN4 needs two rounds, and the second UPDATETREE patches the log with
/// both rounds' changes, not the first round's state with the second's:
/// its slice, updated to each round's accumulated Δ and then back to the
/// log as it stands, holds the whole patched log's tuples and trees each
/// time. (The cut keeps what a round widened it by: round 1's change
/// sends a packet through `S6`.)
#[test]
fn sdn4_updates_through_both_rounds_and_back() {
    let mut s = sdn::sdn4();
    with_background(&mut s.bad_exec);
    s.good_exec = s.bad_exec.clone();
    let report = s.diagnose().unwrap();
    assert!(report.verified, "{report}");
    assert_eq!(report.rounds.len(), 2, "SDN4 is the two-round scenario");
    let round1 = report.rounds[0].changes.clone();
    let both: Vec<_> = report.rounds.iter().flat_map(|r| r.changes.iter().cloned()).collect();
    let seed = report.bad_seed.expect("a verified report has seeds");
    let logged = s.bad_exec.log.events();
    let seeded = logged.iter().find(|e| e.node == seed.node && e.tuple == seed.tuple);
    let at = seeded.map_or(0, |e| e.due).saturating_sub(1);
    drop(logged);
    let roots = [s.good_event.tref.clone(), s.bad_event.tref.clone()];
    updated_as_the_whole_log(&s.bad_exec, &roots, &[&round1, &both, &[]], at);
}

/// A change reaches a packet of the log's early part through priority
/// resolution. A packet parked at `S0` is released by an entry and
/// reaches `S1` just after a high-priority entry was installed there:
/// `best_match` picks that one, and `S1`'s own low-priority entry never
/// fires. Δ narrows the high entry so it no longer matches: the packet
/// takes the low entry to `a`, and nothing is delivered to `b`.
#[test]
fn a_narrowed_entry_hands_an_earlier_packet_to_the_low_entry() {
    let mut topo = Topology::new("ctl");
    topo.switches(&["S0", "S1"]);
    topo.link("S0", "S1");
    let (to_a, to_b) = (topo.host("S1", "a"), topo.host("S1", "b"));
    let mut exec = Execution::new(sdn::sdn_program("ctl").unwrap());
    topo.emit(&mut exec.log, 10);
    let any = cidr("0.0.0.0/0");
    let (src, dst) = (ip("19.0.0.1"), ip("10.0.0.80"));
    exec.log.insert(10, "ctl", cfg_entry(1, "S1", 5, any, any, to_a));
    exec.log.insert(1_000, "S0", pkt_in(1, src, dst, 6, 512));
    let release = cfg_entry(2, "S0", 1, any, any, topo.port_towards("S0", "S1"));
    exec.log.insert(2_000, "ctl", release);
    let high = |sm| cfg_entry(3, "S1", 7, sm, any, to_b);
    exec.log.insert(2_000, "ctl", high(any));
    with_background(&mut exec);
    let delta = [TupleChange {
        node: NodeId::new("ctl"),
        before: Some(high(any)),
        after: Some(high(cidr("0.0.0.0/4"))),
    }];
    let at = |host| deliver_at(host, 1, src, dst, 6, 512);
    let delivered = |r: &Replayed, host| r.exists(&at(host).node, &at(host).tuple);
    let held = exec.replay().unwrap();
    assert!(delivered(&held, "b") && !delivered(&held, "a"), "fixture: the high entry won");
    let r = updated_as_the_whole_log(&exec, &[at("a"), at("b")], &[&delta], 0);
    assert!(delivered(&r, "a") && !delivered(&r, "b"));
}

/// A wider entry reaches the packets it now covers and no other. A packet
/// that matched no entry is delivered by Δ's entry, one a lower-priority
/// entry forwarded moves to it (it now wins `best_match`), and one no
/// entry Δ touches keeps its route; each delivery's tree springs from its
/// own packet.
#[test]
fn a_widened_entry_reaches_the_packets_it_covers() {
    let mut topo = Topology::new("ctl");
    topo.switches(&["S1"]);
    let (to_a, to_b, to_c) = (topo.host("S1", "a"), topo.host("S1", "b"), topo.host("S1", "c"));
    let mut exec = Execution::new(sdn::sdn_program("ctl").unwrap());
    topo.emit(&mut exec.log, 10);
    let any = cidr("0.0.0.0/0");
    exec.log.insert(10, "ctl", cfg_entry(1, "S1", 5, any, cidr("10.9.0.0/16"), to_c));
    exec.log.insert(10, "ctl", cfg_entry(2, "S1", 3, any, cidr("10.0.2.0/24"), to_b));
    let entry = |dst| cfg_entry(3, "S1", 5, any, cidr(dst), to_a);
    exec.log.insert(10, "ctl", entry("10.0.0.0/24"));
    let src = ip("19.0.0.1");
    let packets = [(1, "10.0.1.5", "a"), (2, "10.0.2.9", "a"), (3, "10.9.0.1", "c")];
    for (pid, dst, _) in packets {
        exec.log.insert(1_000 + pid as u64, "S1", pkt_in(pid, src, ip(dst), 6, 64));
    }
    with_background(&mut exec);
    let delta = [TupleChange {
        node: NodeId::new("ctl"),
        before: Some(entry("10.0.0.0/24")),
        after: Some(entry("10.0.0.0/22")),
    }];
    let delivery = |host, pid, dst| deliver_at(host, pid, src, ip(dst), 6, 64);
    let held = exec.replay().unwrap();
    let at_b = delivery("b", 2, "10.0.2.9");
    assert!(held.exists(&at_b.node, &at_b.tuple), "fixture: packet 2 takes the low entry");
    let wanted: Vec<_> = packets.iter().map(|&(pid, dst, host)| delivery(host, pid, dst)).collect();
    let r = updated_as_the_whole_log(&exec, &wanted, &[&delta], 0);
    assert!(!r.exists(&at_b.node, &at_b.tuple));
    for (root, (pid, dst, _)) in wanted.iter().zip(packets) {
        let tree = r.query(root).unwrap_or_else(|| panic!("{root} is not delivered"));
        let view = tuple_view(&tree);
        assert_eq!(*view.node(view.seed()).tref.tuple, pkt_in(pid, src, ip(dst), 6, 64));
    }
}
