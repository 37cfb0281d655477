//! The slice's judge over every hand-built diagnosis: Table 1, the
//! extension scenarios, the three campus shapes at seeds 7, 3 and 11,
//! SDN3 with a second owner of the repaired entry's key, and a relayed
//! name service whose alignment expects a base tuple owned outside the
//! slice.
//! A diagnosis replays only the slices its trees depend on; here each one
//! runs once more over the whole logs, and the two must agree on the
//! change set, the rounds, the failure, `verified`, both seeds, both tree
//! sizes and both trees up to stamp ranks
//! ([`diffprov::core::judge`]). The `dp-sim` battery holds the same
//! judge on every divergent generated seed.

use std::sync::Arc;

use diffprov::core::{Failure, QueryEvent};
use diffprov::ndlog::Program;
use diffprov::replay::Execution;
use diffprov::sdn::{campus, cfg_entry, CampusConfig};
use diffprov::types::prefix::cidr;
use diffprov::types::{FieldType, Schema, SchemaRegistry, TableKind, Tuple, TupleRef, Value};
use diffprov::{mapreduce, sdn, DiffProv, Report, Scenario};

fn judged(s: &Scenario) -> Report {
    let judged = DiffProv::default()
        .judge(&s.good_exec, &s.good_event, &s.bad_exec, &s.bad_event)
        .unwrap_or_else(|e| panic!("{}: {e}", s.name));
    assert!(
        judged.disagreements.is_empty(),
        "{}: the sliced diagnosis is not the whole log's:\n{}",
        s.name,
        judged.disagreements.join("\n")
    );
    judged.report
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
    let report = judged(&s);
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
    let judged = dp.judge(&exec, &good, &exec, &bad).unwrap();
    assert!(
        judged.disagreements.is_empty(),
        "the sliced diagnosis is not the whole log's:\n{}\n{}",
        judged.disagreements.join("\n"),
        judged.report
    );
    // The whole log's answer: `mb` forwards to `s`, so the hop that is
    // missing is `e1`'s to `mb`, and `fwd` is immutable.
    match &judged.report.failure {
        Some(Failure::ImmutableChange { needed, .. }) => {
            assert_eq!(*needed, TupleRef::new("e1", fwd("mb")), "{}", judged.report)
        }
        other => panic!("expected an immutable hop, got {other:?}"),
    }
}
