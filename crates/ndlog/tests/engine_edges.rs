//! Engine and program-builder edge cases beyond the unit suites.

use std::sync::Arc;

use dp_ndlog::testsupport::{self, Outcome, ScheduledOp};
use dp_ndlog::{
    parse_rules, BodyRef, Emitter, Engine, NativeRule, NodeView, NullSink, Program, ProvEvent,
    RuleJoinProfile, StatefulBuiltin, VecSink,
};
use dp_types::{tuple, FieldType, NodeId, Result, Schema, SchemaRegistry, Sym, TableKind, Tuple,
    TupleRef, Value};

/// Runs `ops` through the engine and holds the run to the oracle: same
/// provenance stream, same final tables.
fn run_checked(program: &Arc<Program>, ops: &[ScheduledOp]) -> Outcome {
    testsupport::run_checked(program, ops, "engine vs oracle")
}

/// The live tuples of `table` at `node`, in tuple order.
fn table_of(got: &Outcome, node: &str, table: &str) -> Vec<Tuple> {
    got.tables
        .iter()
        .filter(|(n, t, _)| n.as_str() == node && t.table == table)
        .map(|(_, t, _)| t.clone())
        .collect()
}

fn base_reg() -> SchemaRegistry {
    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new("e", TableKind::ImmutableBase, [("x", FieldType::Int)]));
    reg.declare(Schema::new("k", TableKind::MutableBase, [("v", FieldType::Int)]));
    reg.declare(Schema::new("d", TableKind::Derived, [("y", FieldType::Int)]));
    reg
}

#[test]
fn builder_rejects_rule_into_base_table() {
    let err = Program::builder(base_reg())
        .rules_text("r k(@N, X) :- e(@N, X).")
        .unwrap()
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("non-derived"), "{err}");
}

#[test]
fn builder_rejects_arity_mismatches() {
    let err = Program::builder(base_reg())
        .rules_text("r d(@N, X, X) :- e(@N, X).")
        .unwrap()
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("arity"), "{err}");
    let err = Program::builder(base_reg())
        .rules_text("r d(@N, X) :- e(@N, X, X).")
        .unwrap()
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("arity"), "{err}");
}

#[test]
fn builder_rejects_undeclared_tables_and_builtins() {
    let err = Program::builder(base_reg())
        .rules_text("r d(@N, X) :- nosuch(@N, X).")
        .unwrap()
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("nosuch"), "{err}");
    let err = Program::builder(base_reg())
        .rules_text("r d(@N, X) :- e(@N, X), mystery!(X).")
        .unwrap()
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("mystery"), "{err}");
}

#[test]
fn stateful_builtin_gates_derivations() {
    // A threshold predicate: derive only while fewer than 2 d-tuples exist.
    struct AtMost(usize);
    impl StatefulBuiltin for AtMost {
        fn name(&self) -> Sym {
            Sym::new("at_most")
        }
        fn eval(&self, view: &NodeView<'_>, _args: &[Value]) -> Result<bool> {
            Ok(view.table(&Sym::new("d")).count() < self.0)
        }
    }
    let program = Program::builder(base_reg())
        .rules_text("r d(@N, X) :- e(@N, X), at_most!(N).")
        .unwrap()
        .builtin(Arc::new(AtMost(2)))
        .build()
        .unwrap();
    let mut eng = Engine::new(program, NullSink);
    let n = NodeId::new("n");
    // Spaced insertions: each derivation lands before the next stimulus,
    // so the gate sees the up-to-date count.
    for i in 0..5u64 {
        eng.schedule_insert(i * 100, n, tuple!("e", i as i64)).unwrap();
    }
    eng.run().unwrap();
    let derived = eng
        .view(&n)
        .unwrap()
        .table(&Sym::new("d"))
        .count();
    assert_eq!(derived, 2, "the stateful gate must stop the third derivation");
}

#[test]
fn native_emissions_are_schema_checked() {
    struct BadEmitter;
    impl NativeRule for BadEmitter {
        fn name(&self) -> Sym {
            Sym::new("bad")
        }
        fn triggers(&self) -> Vec<Sym> {
            vec![Sym::new("e")]
        }
        fn fire(&self, view: &NodeView<'_>, trigger: &Tuple, out: &mut Emitter) -> Result<()> {
            // Wrong arity for table d.
            out.emit(
                *view.node,
                Tuple::new("d", vec![Value::Int(1), Value::Int(2)]),
                vec![TupleRef::new(*view.node, trigger.clone())],
            );
            Ok(())
        }
    }
    let program = Program::builder(base_reg())
        .native(Arc::new(BadEmitter))
        .build()
        .unwrap();
    let mut eng = Engine::new(program, NullSink);
    eng.schedule_insert(0, NodeId::new("n"), tuple!("e", 1)).unwrap();
    let err = eng.run().unwrap_err();
    assert!(err.to_string().contains("arity"), "{err}");
}

#[test]
fn self_join_fires_for_both_trigger_positions() {
    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new("p", TableKind::ImmutableBase, [("x", FieldType::Int)]));
    reg.declare(Schema::new(
        "pair",
        TableKind::Derived,
        [("a", FieldType::Int), ("b", FieldType::Int)],
    ));
    let program = Program::builder(reg)
        .rules_text("r pair(@N, A, B) :- p(@N, A), p(@N, B), A < B.")
        .unwrap()
        .build()
        .unwrap();
    let mut eng = Engine::new(program, VecSink::default());
    let n = NodeId::new("n");
    eng.schedule_insert(0, n, tuple!("p", 1)).unwrap();
    eng.schedule_insert(10, n, tuple!("p", 2)).unwrap();
    eng.schedule_insert(20, n, tuple!("p", 3)).unwrap();
    eng.run().unwrap();
    let pairs: Vec<Tuple> = eng
        .view(&n)
        .unwrap()
        .table(&Sym::new("pair"))
        .cloned()
        .collect();
    assert_eq!(
        pairs,
        vec![tuple!("pair", 1, 2), tuple!("pair", 1, 3), tuple!("pair", 2, 3)]
    );
}

#[test]
fn arithmetic_failures_suppress_single_firings() {
    // Division by zero in an assignment silently skips the firing rather
    // than killing the run (per-header arithmetic on hostile inputs).
    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new("e", TableKind::ImmutableBase, [("x", FieldType::Int)]));
    reg.declare(Schema::new("d", TableKind::Derived, [("y", FieldType::Int)]));
    let program = Program::builder(reg)
        .rules_text("r d(@N, Y) :- e(@N, X), Y := 100 / X.")
        .unwrap()
        .build()
        .unwrap();
    let got = run_checked(
        &program,
        &[
            ScheduledOp::insert(0, "n", tuple!("e", 0)), // would divide by zero
            ScheduledOp::insert(0, "n", tuple!("e", 4)),
        ],
    );
    assert_eq!(table_of(&got, "n", "d"), vec![tuple!("d", 25)]);
}

/// Two int tables `a`/`b` (x × y), a unary one `c`, and the derived
/// heads the compiled-rule cases below write into.
fn slot_reg() -> SchemaRegistry {
    let mut reg = SchemaRegistry::new();
    for t in ["a", "b"] {
        reg.declare(Schema::new(t, TableKind::MutableBase, [("x", FieldType::Int), ("y", FieldType::Int)]));
    }
    reg.declare(Schema::new("c", TableKind::MutableBase, [("x", FieldType::Int)]));
    reg.declare(Schema::new("d", TableKind::Derived, [("v", FieldType::Int)]));
    reg.declare(Schema::new("pair", TableKind::Derived, [("x", FieldType::Int), ("y", FieldType::Int)]));
    reg.declare(Schema::new("tot", TableKind::Derived, [("v", FieldType::Int)]));
    reg
}

fn slot_program(rules: &str) -> Arc<Program> {
    Program::builder(slot_reg()).rules_text(rules).unwrap().build().unwrap()
}

/// Runs `ops` through the engine and the oracle, both of which must
/// fail: with the same error, after the same stream. Returns the error.
fn fails_like_the_oracle(program: &Arc<Program>, ops: &[ScheduledOp]) -> String {
    let mut eng = Engine::new(Arc::clone(program), VecSink::default());
    testsupport::schedule_all(&mut eng, ops);
    let err = eng.run().expect_err("the engine must fail").to_string();
    let mut sink = VecSink::default();
    let oracle = dp_ndlog::reference::evaluate(program, ops, &mut sink)
        .expect_err("the oracle must fail")
        .to_string();
    assert_eq!(err, oracle, "the engine fails otherwise than the oracle");
    assert_eq!(eng.into_sink().events, sink.events, "the stream up to the failure diverges");
    err
}

#[test]
fn an_assignment_may_rebind_a_body_variable() {
    // `X := X * 10` overwrites a variable the trigger bound. Each match
    // starts from its own row again, so the second match of one firing
    // sees X as the row has it, not as the first match left it.
    let program = slot_program(
        "r pair(@N, X, Y) :- a(@N, X, _), b(@N, X, Y), X := X * 10.\n\
         s d(@N, X) :- c(@N, X), X := X + 1.",
    );
    let got = run_checked(
        &program,
        &[
            ScheduledOp::insert(0, "n", tuple!("b", 1, 5)),
            ScheduledOp::insert(0, "n", tuple!("b", 1, 6)),
            ScheduledOp::insert(0, "n", tuple!("b", 2, 7)),
            ScheduledOp::insert(5, "n", tuple!("a", 1, 0)),
            ScheduledOp::insert(6, "n", tuple!("a", 2, 0)),
            ScheduledOp::insert(7, "n", tuple!("c", 3)),
        ],
    );
    assert_eq!(
        table_of(&got, "n", "pair"),
        vec![tuple!("pair", 10, 5), tuple!("pair", 10, 6), tuple!("pair", 20, 7)]
    );
    assert_eq!(table_of(&got, "n", "d"), vec![tuple!("d", 4)]);
}

#[test]
fn repeated_shared_constant_and_wildcard_patterns_bind_like_the_oracle() {
    // X twice in the trigger-side atom and again in a joined one, a
    // literal and a wildcard: every atom triggers in turn, and only the
    // tuples that agree everywhere join.
    let program = slot_program("r d(@N, Y) :- a(@N, X, X), b(@N, X, Y), c(@N, 7), b(@N, _, 9).");
    let got = run_checked(
        &program,
        &[
            ScheduledOp::insert(0, "n", tuple!("a", 1, 1)),
            ScheduledOp::insert(0, "n", tuple!("a", 1, 2)), // X disagrees with itself
            ScheduledOp::insert(10, "n", tuple!("b", 1, 5)),
            ScheduledOp::insert(10, "n", tuple!("b", 2, 6)), // no a(2, 2) yet
            ScheduledOp::insert(20, "n", tuple!("c", 8)),    // not the literal
            ScheduledOp::insert(30, "n", tuple!("c", 7)),
            ScheduledOp::insert(40, "n", tuple!("b", 4, 9)), // the wildcard atom: d(5)
            ScheduledOp::insert(50, "n", tuple!("a", 2, 2)), // d(6)
            ScheduledOp::delete(60, "n", tuple!("b", 1, 5)), // d(5) goes
        ],
    );
    assert_eq!(table_of(&got, "n", "d"), vec![tuple!("d", 6)]);
    assert_eq!(got.stats.derivations, 2, "{:?}", got.stats);
}

#[test]
fn an_arithmetic_failure_drops_only_its_match() {
    // One firing, three matches: the one whose divisor is 0 is dropped,
    // the others derive.
    let program = slot_program("r d(@N, Q) :- c(@N, K), a(@N, K, X), Q := 100 / X.");
    let got = run_checked(
        &program,
        &[
            ScheduledOp::insert(0, "n", tuple!("a", 1, 0)),
            ScheduledOp::insert(0, "n", tuple!("a", 1, 4)),
            ScheduledOp::insert(0, "n", tuple!("a", 1, 5)),
            ScheduledOp::insert(5, "n", tuple!("c", 1)),
        ],
    );
    assert_eq!(table_of(&got, "n", "d"), vec![tuple!("d", 20), tuple!("d", 25)]);
    assert_eq!(got.stats.join_matches, 3);
}

#[test]
fn a_non_boolean_constraint_fails_the_run_as_the_oracle_does() {
    let program = slot_program("r d(@N, X) :- c(@N, X), X + 1.");
    let err = fails_like_the_oracle(
        &program,
        &[ScheduledOp::insert(0, "n", tuple!("a", 1, 1)), ScheduledOp::insert(5, "n", tuple!("c", 1))],
    );
    assert!(err.contains("non-boolean"), "{err}");
}

#[test]
fn a_variable_no_atom_binds_fails_the_run_as_the_oracle_does() {
    // Z is named by the head and by a constraint, bound by nothing.
    let program = slot_program("r d(@N, Z) :- c(@N, X).\ns d(@N, X) :- b(@N, X, _), Z > 0.");
    let err = fails_like_the_oracle(&program, &[ScheduledOp::insert(3, "n", tuple!("c", 1))]);
    assert!(err.contains("unbound variable Z"), "{err}");
    let err = fails_like_the_oracle(&program, &[ScheduledOp::insert(3, "n", tuple!("b", 1, 2))]);
    assert!(err.contains("unbound variable Z"), "{err}");
}

#[test]
fn builtin_arguments_are_evaluated_expressions() {
    /// `lt!(A, B)`: A < B on integers.
    struct Lt;
    impl StatefulBuiltin for Lt {
        fn name(&self) -> Sym {
            Sym::new("lt")
        }
        fn eval(&self, _view: &NodeView<'_>, args: &[Value]) -> Result<bool> {
            Ok(args[0].as_int()? < args[1].as_int()?)
        }
    }
    let program = Program::builder(slot_reg())
        .rules_text("r d(@N, X) :- c(@N, X), a(@N, X, Y), lt!(X * 2, Y + 3).")
        .unwrap()
        .builtin(Arc::new(Lt))
        .build()
        .unwrap();
    let mut ops: Vec<ScheduledOp> = (0..5i64).map(|x| ScheduledOp::insert(0, "n", tuple!("a", x, x))).collect();
    ops.extend((0..5i64).map(|x| ScheduledOp::insert(5, "n", tuple!("c", x))));
    let got = run_checked(&program, &ops);
    // 2X < X + 3 for X in 0, 1, 2.
    assert_eq!(table_of(&got, "n", "d"), vec![tuple!("d", 0), tuple!("d", 1), tuple!("d", 2)]);
}

#[test]
fn an_aggregate_may_fold_an_assigned_variable() {
    let program = slot_program("r tot(@N, agg_sum(V)) :- c(@N, G), a(@N, X, Y), V := X * 10 + Y.");
    let got = run_checked(
        &program,
        &[
            ScheduledOp::insert(0, "n", tuple!("a", 1, 2)),
            ScheduledOp::insert(0, "n", tuple!("a", 3, 4)),
            ScheduledOp::insert(5, "n", tuple!("c", 0)),
        ],
    );
    assert_eq!(table_of(&got, "n", "tot"), vec![tuple!("tot", 46)]);
}

#[test]
fn remote_delivery_respects_link_delay_ordering() {
    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new("ping", TableKind::ImmutableBase, [("v", FieldType::Int)]));
    reg.declare(Schema::new("nbr", TableKind::MutableBase, [("next", FieldType::Str)]));
    reg.declare(Schema::new("pong", TableKind::Derived, [("v", FieldType::Int)]));
    let program = Program::builder(reg)
        .rules_text("fwd pong(@M, V) :- ping(@N, V), nbr(@N, M).")
        .unwrap()
        .build()
        .unwrap();
    let mut eng = Engine::new(program, VecSink::default());
    let n1 = NodeId::new("n1");
    eng.schedule_insert(0, n1, tuple!("nbr", "n2")).unwrap();
    eng.schedule_insert(100, n1, tuple!("ping", 7)).unwrap();
    eng.run().unwrap();
    // The remote pong appears strictly after the ping (link delay >= 1).
    let events = eng.sink().events.clone();
    let t_ping = events
        .iter()
        .find_map(|e| match e {
            dp_ndlog::ProvEvent::Appear { time, tuple, .. } if tuple.table == "ping" => Some(*time),
            _ => None,
        })
        .unwrap();
    let t_pong = events
        .iter()
        .find_map(|e| match e {
            dp_ndlog::ProvEvent::Appear { time, tuple, .. } if tuple.table == "pong" => Some(*time),
            _ => None,
        })
        .unwrap();
    assert!(t_pong > t_ping);
}

#[test]
fn aggregation_rules_group_and_fold() {
    // wordCount-style: total(@N, W, agg_sum(C)) :- fence(@N, G), obs(@N, W, C).
    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new("fence", TableKind::ImmutableBase, [("g", FieldType::Int)]));
    reg.declare(Schema::new(
        "obs",
        TableKind::ImmutableBase,
        [("w", FieldType::Str), ("c", FieldType::Int), ("id", FieldType::Int)],
    ));
    reg.declare(Schema::new(
        "total",
        TableKind::Derived,
        [("w", FieldType::Str), ("sum", FieldType::Int)],
    ));
    reg.declare(Schema::new(
        "peak",
        TableKind::Derived,
        [("w", FieldType::Str), ("max", FieldType::Int)],
    ));
    reg.declare(Schema::new("howmany", TableKind::Derived, [("n", FieldType::Int)]));
    let program = Program::builder(reg)
        .rules_text(
            "rsum total(@N, W, agg_sum(C)) :- fence(@N, G), obs(@N, W, C, I).\n\
             rmax peak(@N, W, agg_max(C)) :- fence(@N, G), obs(@N, W, C, I).\n\
             rcnt howmany(@N, agg_count(C)) :- fence(@N, G), obs(@N, W, C, I).",
        )
        .unwrap()
        .build()
        .unwrap();
    let mut eng = Engine::new(program, VecSink::default());
    let n = NodeId::new("n");
    eng.schedule_insert(0, n, tuple!("obs", "a", 2, 1)).unwrap();
    eng.schedule_insert(0, n, tuple!("obs", "a", 5, 2)).unwrap();
    eng.schedule_insert(0, n, tuple!("obs", "b", 7, 3)).unwrap();
    eng.schedule_insert(1_000, n, tuple!("fence", 1)).unwrap();
    eng.run().unwrap();
    let view = eng.view(&n).unwrap();
    let totals: Vec<Tuple> = view.table(&Sym::new("total")).cloned().collect();
    assert_eq!(totals, vec![tuple!("total", "a", 7), tuple!("total", "b", 7)]);
    let peaks: Vec<Tuple> = view.table(&Sym::new("peak")).cloned().collect();
    assert_eq!(peaks, vec![tuple!("peak", "a", 5), tuple!("peak", "b", 7)]);
    let counts: Vec<Tuple> = view.table(&Sym::new("howmany")).cloned().collect();
    assert_eq!(counts, vec![tuple!("howmany", 3)]);
}

#[test]
fn aggregation_provenance_reports_all_contributors() {
    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new("fence", TableKind::ImmutableBase, [("g", FieldType::Int)]));
    reg.declare(Schema::new(
        "obs",
        TableKind::ImmutableBase,
        [("w", FieldType::Str), ("c", FieldType::Int), ("id", FieldType::Int)],
    ));
    reg.declare(Schema::new(
        "total",
        TableKind::Derived,
        [("w", FieldType::Str), ("sum", FieldType::Int)],
    ));
    let program = Program::builder(reg)
        .rules_text("rsum total(@N, W, agg_sum(C)) :- fence(@N, G), obs(@N, W, C, I).")
        .unwrap()
        .build()
        .unwrap();
    let mut eng = Engine::new(program, NullSink);
    let n = NodeId::new("n");
    eng.schedule_insert(0, n, tuple!("obs", "a", 2, 1)).unwrap();
    eng.schedule_insert(0, n, tuple!("obs", "a", 5, 2)).unwrap();
    eng.schedule_insert(1_000, n, tuple!("fence", 1)).unwrap();
    eng.run().unwrap();
    let st = eng.lookup(&n, &tuple!("total", "a", 7)).unwrap();
    assert_eq!(st.derivations.len(), 1);
    let body = &st.derivations[0].body;
    // Fence first (the trigger), then both contributing observations.
    assert_eq!(body[0].tuple, tuple!("fence", 1));
    assert_eq!(body.len(), 3);
}

#[test]
fn aggregation_ignores_tuples_after_the_fence() {
    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new("fence", TableKind::ImmutableBase, [("g", FieldType::Int)]));
    reg.declare(Schema::new(
        "obs",
        TableKind::ImmutableBase,
        [("w", FieldType::Str), ("c", FieldType::Int), ("id", FieldType::Int)],
    ));
    reg.declare(Schema::new(
        "total",
        TableKind::Derived,
        [("w", FieldType::Str), ("sum", FieldType::Int)],
    ));
    let program = Program::builder(reg)
        .rules_text("rsum total(@N, W, agg_sum(C)) :- fence(@N, G), obs(@N, W, C, I).")
        .unwrap()
        .build()
        .unwrap();
    let mut eng = Engine::new(program, NullSink);
    let n = NodeId::new("n");
    eng.schedule_insert(0, n, tuple!("obs", "a", 2, 1)).unwrap();
    eng.schedule_insert(100, n, tuple!("fence", 1)).unwrap();
    eng.schedule_insert(10_000, n, tuple!("obs", "a", 40, 2)).unwrap();
    eng.run().unwrap();
    assert!(eng.lookup(&n, &tuple!("total", "a", 2)).is_some());
    assert!(eng.lookup(&n, &tuple!("total", "a", 42)).is_none());
}

#[test]
fn same_timestamp_insert_then_delete_leaves_no_residue() {
    // Insert and delete of the same tuple scheduled at the same timestamp:
    // the insert is processed first (push order breaks the tie), so the
    // tuple briefly exists, but the delete must retract it and no derived
    // tuple may survive. The delete forces a batch flush, so the rule still
    // fires against the pre-delete state and the in-flight derivation is
    // dropped by the liveness check — exactly the oracle's stream.
    let program = Program::builder(base_reg())
        .rules_text("r d(@N, V) :- k(@N, V).")
        .unwrap()
        .build()
        .unwrap();
    let got = run_checked(
        &program,
        &[
            ScheduledOp::insert(5, "n", tuple!("k", 1)),
            ScheduledOp::delete(5, "n", tuple!("k", 1)),
        ],
    );
    assert!(got.tables.is_empty(), "base must be gone, no derived residue");
    let batched = got.events;
    // The tuple's whole life is visible in the stream: it appeared and
    // disappeared, but the derived tuple never appeared at all.
    let appears: Vec<&str> = batched
        .iter()
        .filter_map(|e| match e {
            ProvEvent::Appear { tuple, .. } => Some(tuple.table.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(appears, vec!["k"]);
    assert!(batched
        .iter()
        .any(|e| matches!(e, ProvEvent::Disappear { tuple, .. } if tuple.table == "k")));
}

#[test]
fn head_feeds_own_body_within_one_batch() {
    // A recursive self-join whose head lands back in its own body: q join q
    // derives new q tuples. Two seed rules with different link delays are
    // timed so both seeds arrive at the remote node at the SAME timestamp,
    // forming one delta batch -- the recursion then unfolds entirely
    // through batch flushes. The stratification bound `Z < L` keeps the
    // closure finite. The engine must produce the oracle's stream and
    // fixpoint.
    let program = {
        let mut reg = SchemaRegistry::new();
        reg.declare(Schema::new("a", TableKind::ImmutableBase, [("x", FieldType::Int)]));
        reg.declare(Schema::new("b", TableKind::ImmutableBase, [("x", FieldType::Int)]));
        reg.declare(Schema::new("dst", TableKind::MutableBase, [("m", FieldType::Str)]));
        reg.declare(Schema::new("lim", TableKind::ImmutableBase, [("l", FieldType::Int)]));
        reg.declare(Schema::new("q", TableKind::Derived, [("x", FieldType::Int)]));
        let mut rules = parse_rules(
            "seed1 q(@M, X) :- a(@N, X), dst(@N, M).\n\
             seed2 q(@M, X) :- b(@N, X), dst(@N, M).\n\
             chain q(@N, Z) :- q(@N, X), q(@N, Y), lim(@N, L), Z := X + Y, Z < L.",
        )
        .unwrap();
        // seed1 fires one clock tick before seed2 (its trigger is popped
        // first); the extra link delay makes both deliveries land at the
        // same timestamp on n2.
        rules
            .iter_mut()
            .find(|r| r.name == Sym::new("seed1"))
            .unwrap()
            .link_delay = 2;
        Program::builder(reg).rules(rules).build().unwrap()
    };
    let got = run_checked(
        &program,
        &[
            ScheduledOp::insert(0, "n1", tuple!("dst", "n2")),
            ScheduledOp::insert(0, "n2", tuple!("lim", 10)),
            ScheduledOp::insert(10, "n1", tuple!("a", 1)),
            ScheduledOp::insert(10, "n1", tuple!("b", 5)),
        ],
    );
    let fix_b: Vec<i64> = table_of(&got, "n2", "q")
        .iter()
        .filter_map(|t| match t.args[0] {
            Value::Int(x) => Some(x),
            _ => None,
        })
        .collect();
    let stats_b = got.stats;
    // Expected fixpoint: the closure of {1, 5} under pairwise sums below
    // the limit.
    let mut expected = std::collections::BTreeSet::from([1i64, 5]);
    loop {
        let vals: Vec<i64> = expected.iter().copied().collect();
        let before = expected.len();
        for &x in &vals {
            for &y in &vals {
                if x + y < 10 {
                    expected.insert(x + y);
                }
            }
        }
        if expected.len() == before {
            break;
        }
    }
    assert_eq!(fix_b, expected.into_iter().collect::<Vec<_>>());
    // At least one batch held more than one delta -- the two seeds really
    // did arrive together.
    assert!(
        stats_b.batched_deltas > stats_b.batches,
        "expected a multi-delta batch: {} deltas over {} batches",
        stats_b.batched_deltas,
        stats_b.batches
    );
}

#[test]
fn batched_flush_prunes_joins_with_empty_partner_tables() {
    // Within a batch tables only grow, so when a rule's partner table is
    // empty at flush time the whole delta group is pruned without running
    // the join. The oracle attempts (and fails) each join; the stream is
    // the same.
    let program = Program::builder(base_reg())
        .rules_text("r d(@N, X) :- e(@N, X), k(@N, X).")
        .unwrap()
        .build()
        .unwrap();
    let ops: Vec<ScheduledOp> = (0..10i64)
        .map(|i| ScheduledOp::insert(5, "n", tuple!("e", i)))
        .collect();
    let got = run_checked(&program, &ops);
    assert_eq!(
        got.stats.join_probes + got.stats.join_scans,
        0,
        "batched flush must prune the doomed joins"
    );
}

#[test]
fn self_join_counters_count_each_body_once() {
    // Regression: a rule with two bound atoms on the same table used to
    // enumerate each body twice (once per trigger position), double-
    // counting join matches and derivations. The trigger occurrence is now
    // skipped when an earlier join step re-scans the trigger's table, so
    // each distinct body is found exactly once. Pin the exact counters.
    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new(
        "s",
        TableKind::ImmutableBase,
        [("k", FieldType::Int), ("a", FieldType::Int)],
    ));
    reg.declare(Schema::new(
        "two",
        TableKind::Derived,
        [("a", FieldType::Int), ("b", FieldType::Int)],
    ));
    let program = Program::builder(reg)
        .rules_text("r two(@N, A, B) :- s(@N, K, A), s(@N, K, B).")
        .unwrap()
        .build()
        .unwrap();
    let mut eng = Engine::new(program, NullSink);
    let n = NodeId::new("n");
    eng.schedule_insert(0, n, tuple!("s", 1, 5)).unwrap();
    eng.schedule_insert(100, n, tuple!("s", 1, 7)).unwrap();
    eng.run().unwrap();
    let pairs: Vec<Tuple> = eng
        .view(&n)
        .unwrap()
        .table(&Sym::new("two"))
        .cloned()
        .collect();
    assert_eq!(
        pairs,
        vec![
            tuple!("two", 5, 5),
            tuple!("two", 5, 7),
            tuple!("two", 7, 5),
            tuple!("two", 7, 7),
        ]
    );
    // Each body found exactly once: the diagonal bodies (5,5) and
    // (7,7) carry a single derivation, not two.
    assert_eq!(eng.lookup(&n, &tuple!("two", 5, 5)).unwrap().derivations.len(), 1);
    assert_eq!(eng.lookup(&n, &tuple!("two", 7, 7)).unwrap().derivations.len(), 1);
    // First insert: 1 candidate per trigger position, 1 match (the
    // trigger occurrence is skipped at position 1). Second insert: 2
    // candidates per position, 2 + 1 matches. Candidates count the
    // skipped occurrences; matches and derivations do not.
    let profile = eng.join_profile()[&Sym::new("r")];
    assert_eq!(
        profile,
        RuleJoinProfile {
            attempts: 4,
            probes: 4,
            scans: 0,
            trie_probes: 0,
            trie_scans: 0,
            candidates: 6,
            matches: 4
        }
    );
    assert_eq!(eng.stats().derivations, 4);
    assert_eq!(eng.stats().join_matches, 4);
}

#[test]
fn flow_entry_replacement_keeps_trie_consistent() {
    // A flowEntry delete plus a re-insert at the same timestamp (a
    // controller "refreshing" an entry, then later replacing it) cascades
    // through the install rule into the flowEntry trie. The trie must end
    // up holding exactly the surviving entries: later packets join against
    // them and nothing else, exactly as under the oracle's full scans.
    use dp_sdn::{cfg_entry, pkt_in, sdn_program};
    use dp_types::prefix::{cidr, ip};

    let any = cidr("0.0.0.0/0");
    let e1 = cfg_entry(1, "s1", 1, cidr("10.0.0.0/8"), any, 2);
    let e2 = cfg_entry(2, "s1", 1, cidr("10.1.0.0/16"), any, 3);
    let got = run_checked(
        &sdn_program("c").unwrap(),
        &[
            ScheduledOp::insert(0, "s1", tuple!("hello", 1, "c")),
            ScheduledOp::insert(10, "c", e1.clone()),
            // Same-tick refresh: the entry vanishes and reappears within
            // one timestamp. Support counting and the trie must both end
            // at one.
            ScheduledOp::delete(20, "c", e1.clone()),
            ScheduledOp::insert(20, "c", e1.clone()),
            // Same-tick replacement: e1 out, the narrower e2 in.
            ScheduledOp::delete(30, "c", e1),
            ScheduledOp::insert(30, "c", e2),
            // 10.1.2.3 matches e2; 10.2.0.1 matched only the departed e1.
            ScheduledOp::insert(50, "s1", pkt_in(7, ip("10.1.2.3"), ip("1.1.1.1"), 6, 100)),
            ScheduledOp::insert(60, "s1", pkt_in(8, ip("10.2.0.1"), ip("1.1.1.1"), 6, 100)),
        ],
    );
    let outs = table_of(&got, "s1", "pktOut");
    // Only packet 7 is forwarded, out e2's port; packet 8's entry is gone.
    assert_eq!(outs.len(), 1, "exactly one packet forwarded: {outs:?}");
    assert_eq!(outs[0].args[0], Value::Int(7));
    assert_eq!(outs[0].args[5], Value::Int(3), "must use e2's port");
    assert!(got.stats.trie_probes > 0, "the fwd rule must go through the trie");
}

#[test]
fn overlapping_priorities_pick_best_match_through_the_trie() {
    // The SDN2 shape: a broad low-priority forwarding entry overlapped by
    // a narrow high-priority diversion. The trie surfaces *both* matching
    // entries (shortest prefix first); OpenFlow priority resolution is
    // still `best_match!`'s job, and it must see the same candidates it
    // would under the oracle's scan — the diverted packet takes only the
    // high-priority port, traffic outside the overlap only the broad one.
    use dp_sdn::{cfg_entry, pkt_in, sdn_program};
    use dp_types::prefix::{cidr, ip};

    let any = cidr("0.0.0.0/0");
    let got = run_checked(
        &sdn_program("c").unwrap(),
        &[
            ScheduledOp::insert(0, "s1", tuple!("hello", 1, "c")),
            ScheduledOp::insert(10, "c", cfg_entry(1, "s1", 1, any, any, 2)),
            ScheduledOp::insert(10, "c", cfg_entry(2, "s1", 9, cidr("10.0.0.0/8"), any, 5)),
            ScheduledOp::insert(50, "s1", pkt_in(1, ip("10.9.9.9"), ip("1.1.1.1"), 6, 100)),
            ScheduledOp::insert(60, "s1", pkt_in(2, ip("9.9.9.9"), ip("1.1.1.1"), 6, 100)),
        ],
    );
    let mut ports: Vec<(i64, i64)> = table_of(&got, "s1", "pktOut")
        .iter()
        .map(|t| match (&t.args[0], &t.args[5]) {
            (Value::Int(pid), Value::Int(pt)) => (*pid, *pt),
            other => panic!("unexpected pktOut shape: {other:?}"),
        })
        .collect();
    ports.sort_unstable();
    assert_eq!(ports, vec![(1, 5), (2, 2)], "priority resolution broke");
    assert!(got.stats.trie_probes > 0);
}

#[test]
fn trie_counters_are_pinned() {
    // Pin the exact trie counter values for a minimal prefix-join program.
    // Any change to when the engine consults the trie (or claims to) shows
    // up here.
    use dp_types::prefix::{cidr, ip};

    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new(
        "rt",
        TableKind::MutableBase,
        [("m", FieldType::Prefix), ("v", FieldType::Int)],
    ));
    reg.declare(Schema::new("pk", TableKind::MutableBase, [("s", FieldType::Ip)]));
    reg.declare(Schema::new("o", TableKind::Derived, [("v", FieldType::Int)]));
    let program = Program::builder(reg)
        .rules_text("r o(@N, V) :- pk(@N, S), rt(@N, M, V), prefix_contains(M, S).")
        .unwrap()
        .build()
        .unwrap();
    let mut eng = Engine::new(program, NullSink);
    let n = NodeId::new("n");
    for (p, v) in [("10.0.0.0/8", 1), ("10.1.0.0/16", 2), ("0.0.0.0/0", 3)] {
        eng.schedule_insert(0, n, tuple!("rt", cidr(p), v)).unwrap();
    }
    // Two packet triggers: each runs the rt step once, as a trie probe.
    eng.schedule_insert(1, n, tuple!("pk", Value::Ip(ip("10.1.2.3")))).unwrap();
    eng.schedule_insert(1, n, tuple!("pk", Value::Ip(ip("11.0.0.1")))).unwrap();
    // An rt trigger scans pk (the constraint column is already
    // bound) — not trie-eligible, so it moves neither counter.
    eng.schedule_insert(2, n, tuple!("rt", cidr("12.0.0.0/8"), 4)).unwrap();
    eng.run().unwrap();
    let stats = eng.stats();
    assert_eq!(stats.trie_probes, 2);
    assert_eq!(stats.trie_scans, 0);
    // 10.1.2.3 matches /0, /8, and /16; 11.0.0.1 matches only /0.
    let o: Vec<Tuple> = eng.view(&n).unwrap().table(&Sym::new("o")).cloned().collect();
    assert_eq!(o, vec![tuple!("o", 1), tuple!("o", 2), tuple!("o", 3)]);
}

#[test]
fn trie_pick_breaks_estimate_ties_by_column() {
    // Two trie-eligible columns on one scan step, engineered so their
    // `count_matches` estimates tie exactly. The pick must fall to the
    // lower column slot (then the probe position) — a *data* key — so the
    // probe counters and candidate walks are stable across platforms. The
    // two columns see different candidate sets under
    // the delta's visibility horizon (the estimate is taken on flush-time
    // state, the walk is horizon-filtered), so a pick by iteration order
    // would shift `join_candidates` and `join_matches` here.
    use dp_types::prefix::{cidr, ip};

    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new(
        "rt",
        TableKind::MutableBase,
        [("m1", FieldType::Prefix), ("m2", FieldType::Prefix), ("v", FieldType::Int)],
    ));
    reg.declare(Schema::new(
        "pk",
        TableKind::MutableBase,
        [("s", FieldType::Ip), ("d", FieldType::Ip)],
    ));
    reg.declare(Schema::new("o", TableKind::Derived, [("v", FieldType::Int)]));
    let program = Program::builder(reg)
        .rules_text(
            "r o(@N, V) :- pk(@N, S, D), rt(@N, M1, M2, V), \
             prefix_contains(M1, S), prefix_contains(M2, D).",
        )
        .unwrap()
        .build()
        .unwrap();
    let mut eng = Engine::new(program, NullSink);
    let n = NodeId::new("n");
    // S = 10.0.0.1 probes column m1, D = 10.1.0.1 probes column m2.
    // Containment per entry, written (m1 hit, m2 hit):
    //   e1 (yes, no)   e2 (yes, yes)   e3 (no, yes)   e5 (no, yes)
    for (m1, m2, v) in [
        ("10.0.0.0/16", "12.0.0.0/8", 1),  // e1
        ("10.0.0.0/8", "10.0.0.0/8", 2),   // e2
        ("11.0.0.0/8", "10.1.0.0/16", 3),  // e3
        ("11.1.0.0/16", "10.1.0.0/24", 5), // e5
    ] {
        eng.schedule_insert(0, n, tuple!("rt", cidr(m1), cidr(m2), v)).unwrap();
    }
    // Same tick: the packet arrives, then e4 (m1 hit, m2 miss) lands. At
    // flush time both tries estimate 3 — m1 holds {e1, e2, e4}, m2 holds
    // {e2, e3, e5} — but e4 is behind the packet's horizon, so probing m1
    // walks 2 candidates where m2 would walk 3.
    eng.schedule_insert(5, n, tuple!("pk", Value::Ip(ip("10.0.0.1")), Value::Ip(ip("10.1.0.1"))))
        .unwrap();
    eng.schedule_insert(5, n, tuple!("rt", cidr("10.0.0.0/24"), cidr("12.1.0.0/16"), 4))
        .unwrap();
    eng.run().unwrap();
    let stats = eng.stats();
    // The packet's firing probes the m1 trie (slot 0 wins the tie) for 2
    // candidates; e4's own firing scans the one packet (1 candidate, a
    // pattern match whose constraint then fails). A tie broken toward m2
    // would read 4 candidates here.
    assert_eq!(stats.trie_probes, 1);
    assert_eq!(stats.trie_scans, 0);
    assert_eq!(stats.join_scans, 1);
    assert_eq!(stats.join_probes, 0);
    assert_eq!(stats.join_candidates, 3);
    assert_eq!(stats.join_matches, 3);
    assert_eq!(stats.derivations, 1);
    // Only e2 satisfies both constraints.
    let o: Vec<Tuple> = eng.view(&n).unwrap().table(&Sym::new("o")).cloned().collect();
    assert_eq!(o, vec![tuple!("o", 2)]);
}

#[test]
fn messages_to_undeclared_nodes_do_not_panic() {
    // `@loc` routing means tuples land on nodes nothing ever declared or
    // seeded: a derived head addressed by data, or a deletion for a node
    // that never saw an insert. These used to hit `expect("node state
    // exists")`-style panics in the engine; they must instead behave as
    // against an empty node.
    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new("nbr", TableKind::MutableBase, [("next", FieldType::Str)]));
    reg.declare(Schema::new("ping", TableKind::ImmutableBase, [("v", FieldType::Int)]));
    reg.declare(Schema::new("pong", TableKind::Derived, [("v", FieldType::Int)]));
    reg.declare(Schema::new("echo", TableKind::Derived, [("v", FieldType::Int)]));
    let program = Program::builder(reg)
        .rules_text(
            "fwd pong(@M, V) :- ping(@N, V), nbr(@N, M).\n\
             ack echo(@M, V) :- pong(@M, V).",
        )
        .unwrap()
        .build()
        .unwrap();
    let mut eng = Engine::new(program, VecSink::default());
    let n = NodeId::new("n");
    let ghost = NodeId::new("ghost");
    // A deletion scheduled against a node with no state is a no-op,
    // not a panic (the tuple can't exist there).
    eng.schedule_delete(0, ghost, tuple!("nbr", "x")).unwrap();
    // The fwd rule routes pong to "ghost", which has no state when the
    // tuple arrives; the ack rule then fires *at* the undeclared node.
    eng.schedule_insert(1, n, tuple!("nbr", "ghost")).unwrap();
    eng.schedule_insert(2, n, tuple!("ping", 7)).unwrap();
    eng.run().unwrap();
    assert!(eng.lookup(&ghost, &tuple!("pong", 7)).is_some());
    assert!(eng.lookup(&ghost, &tuple!("echo", 7)).is_some());
}

#[test]
fn event_budget_errors_cleanly_with_provenance_flushed() {
    // A long-running program against a small `max_events` budget: the run
    // must end in a clean typed error (no hang, no panic), with the
    // provenance of everything actually applied already flushed to the
    // sink, not stuck in the batch buffer: exactly the oracle's stream up
    // to the event the budget tripped on. (The program counts each seed
    // up to a bound, so the oracle, which has no budget to set, finishes.)
    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new("seed", TableKind::ImmutableBase, [("x", FieldType::Int)]));
    reg.declare(Schema::new("p", TableKind::Derived, [("x", FieldType::Int)]));
    let program = Program::builder(reg)
        .rules_text(
            "init p(@N, X) :- seed(@N, X).\n\
             step p(@N, X1) :- p(@N, X), X1 := X + 1, X1 - (X1 / 1000) * 1000 < 50.",
        )
        .unwrap()
        .build()
        .unwrap();
    // Several seeds in one tick so the first batches hold several deltas
    // before the budget trips.
    let ops: Vec<ScheduledOp> = (0..8)
        .map(|i| ScheduledOp::insert(0, "n", tuple!("seed", i * 1000)))
        .collect();
    let mut eng = Engine::new(program.clone(), VecSink::default());
    eng.max_events = 100;
    testsupport::schedule_all(&mut eng, &ops);
    let err = eng.run().expect_err("the budget must stop the run");
    assert!(err.to_string().contains("event limit"), "{err}");
    let flushed = eng.into_sink().events;
    assert!(
        flushed.len() >= 100,
        "provenance up to the budget must be flushed: {} events",
        flushed.len()
    );
    let (reference, _) = testsupport::run_reference(&program, &ops);
    assert!(reference.len() > flushed.len(), "the budget never tripped early");
    assert_eq!(flushed, reference[..flushed.len()], "flushed stream is not the oracle's prefix");
}

/// The two mutually-neighbouring nodes the messaging tests below run on.
fn node_pair() -> (NodeId, NodeId) {
    (NodeId::new("w0"), NodeId::new("w1"))
}

#[test]
fn cross_node_messages_within_one_batch_match_the_oracle() {
    // Both nodes contribute deltas to the *same* batch, and firing one
    // node's delta produces a derived head addressed at the other. The
    // batched stream must stay byte-identical to the oracle's
    // tuple-at-a-time one.
    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new("ping", TableKind::ImmutableBase, [("v", FieldType::Int)]));
    reg.declare(Schema::new("nbr", TableKind::MutableBase, [("next", FieldType::Str)]));
    reg.declare(Schema::new("pong", TableKind::Derived, [("v", FieldType::Int)]));
    reg.declare(Schema::new("echo", TableKind::Derived, [("v", FieldType::Int)]));
    let program = Program::builder(reg)
        .rules_text(
            "fwd pong(@M, V) :- ping(@N, V), nbr(@N, M).\n\
             ack echo(@M, W) :- pong(@M, V), W := V + 1.",
        )
        .unwrap()
        .build()
        .unwrap();
    let (a, b) = node_pair();
    // Mutual neighbours, so due-5 ping batches on *both* nodes send heads
    // to the other node in both directions at once.
    let mut ops = vec![
        ScheduledOp::insert(0, a, tuple!("nbr", b.as_str())),
        ScheduledOp::insert(0, b, tuple!("nbr", a.as_str())),
    ];
    for v in 0..6i64 {
        ops.push(ScheduledOp::insert(5, a, tuple!("ping", v)));
        ops.push(ScheduledOp::insert(5, b, tuple!("ping", v + 100)));
    }
    let got = run_checked(&program, &ops);
    assert!(table_of(&got, b.as_str(), "pong").contains(&tuple!("pong", 0)));
    assert!(table_of(&got, a.as_str(), "echo").contains(&tuple!("echo", 101)));
    assert!(
        got.stats.batched_deltas > got.stats.batches,
        "the two nodes' pings never shared a batch: {:?}",
        got.stats
    );
}

/// A two-node ping-pong cascade whose queue holds exactly one event at
/// a time — the shape that used to let the event budget drop the
/// in-flight event on the floor and leave a silently-truncated engine
/// with an empty queue.
fn ping_pong_program() -> Arc<Program> {
    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new("seed", TableKind::ImmutableBase, [("v", FieldType::Int)]));
    reg.declare(Schema::new("nbr", TableKind::MutableBase, [("next", FieldType::Str)]));
    reg.declare(Schema::new("pong", TableKind::Derived, [("v", FieldType::Int)]));
    Program::builder(reg)
        .rules_text(
            "init pong(@M, V) :- seed(@N, V), nbr(@N, M).\n\
             fwd pong(@M, V1) :- pong(@N, V), nbr(@N, M), V1 := V + 1, V <= 400.",
        )
        .unwrap()
        .build()
        .unwrap()
}

#[test]
fn budget_tripped_mid_cascade_resumes_cleanly() {
    // The failed engine must still hold the complete frontier: a re-run
    // under a raised budget has to drain to exactly the fixpoint of an
    // engine that never tripped. (Regression: the budget check used to
    // pop-then-drop the in-flight event, so a one-event-deep cascade
    // erred into an *empty* queue and the next `run()` returned `Ok`
    // with the event lost.)
    let program = ping_pong_program();
    let (a, b) = node_pair();
    let schedule = |eng: &mut Engine<VecSink>| {
        eng.schedule_insert(0, a, tuple!("nbr", b.as_str())).unwrap();
        eng.schedule_insert(0, b, tuple!("nbr", a.as_str())).unwrap();
        for v in 0..4i64 {
            eng.schedule_insert(5, a, tuple!("seed", v * 1000)).unwrap();
        }
    };
    let fixpoint = |eng: &Engine<VecSink>| -> Vec<(NodeId, Tuple, usize)> {
        eng.nodes()
            .flat_map(|(node, st)| {
                st.all()
                    .map(|(t, s)| (*node, t.clone(), s.support()))
                    .collect::<Vec<_>>()
            })
            .collect()
    };
    // Uninterrupted reference.
    let mut reference = Engine::new(program.clone(), VecSink::default());
    schedule(&mut reference);
    reference.run().unwrap();

    let mut eng = Engine::new(program, VecSink::default());
    eng.max_events = 60;
    schedule(&mut eng);
    let err = eng.run().expect_err("the budget must trip mid-cascade");
    assert!(err.to_string().contains("event limit"), "{err}");

    // The frontier survived the error: resuming drains to the
    // uninterrupted fixpoint, with the identical event total.
    eng.max_events = 50_000_000;
    eng.run().unwrap();
    assert_eq!(
        fixpoint(&reference),
        fixpoint(&eng),
        "resumed run diverges from uninterrupted"
    );
    assert_eq!(
        reference.stats().events,
        eng.stats().events,
        "resume lost or duplicated events"
    );
}

#[test]
fn a_run_paused_at_quiescence_emits_the_uninterrupted_stream() {
    // Schedule, `run`, schedule more, `run`: when the pause falls at
    // quiescence between due-groups — after cross-node traffic has flowed
    // — the two runs together emit, byte for byte, the stream of
    // everything scheduled up front and run once. The engine keeps its
    // logical clock and sequence counter across `run()` calls, which is
    // what `Replayed::reissue` and every test that calls `run()` twice
    // lean on.
    let program = ping_pong_program();
    let (a, b) = node_pair();
    let phase1 = |eng: &mut Engine<VecSink>| {
        eng.schedule_insert(0, a, tuple!("nbr", b.as_str())).unwrap();
        eng.schedule_insert(0, b, tuple!("nbr", a.as_str())).unwrap();
        eng.schedule_insert(5, a, tuple!("seed", 395i64)).unwrap();
    };
    let phase2 = |eng: &mut Engine<VecSink>| {
        eng.schedule_insert(2000, b, tuple!("seed", 398i64)).unwrap();
    };

    let mut once = Engine::new(program.clone(), VecSink::default());
    phase1(&mut once);
    phase2(&mut once);
    once.run().unwrap();

    let mut paused = Engine::new(program, VecSink::default());
    phase1(&mut paused);
    paused.run().unwrap();
    let prefix_len = paused.sink().events.len();
    phase2(&mut paused);
    paused.run().unwrap();
    assert!(
        paused.sink().events.len() > prefix_len,
        "phase 2 produced no provenance"
    );
    assert_eq!(once.stats().events, paused.stats().events);
    assert_eq!(
        once.into_sink().events,
        paused.into_sink().events,
        "the paused run's stream diverges"
    );
}

/// A tuple deleted and re-derived inside one delivery batch — the support
/// swap that forces a mid-batch flush — must close and re-open an episode
/// in the recorded graph, and the fresh episode's tree must lean on the
/// new cause, not the dead one.
#[test]
fn same_batch_support_swap_opens_a_fresh_episode() {
    use dp_provenance::{extract_tree, GraphRecorder};

    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new(
        "a",
        TableKind::MutableBase,
        [("x", FieldType::Int), ("y", FieldType::Int)],
    ));
    reg.declare(Schema::new("d", TableKind::Derived, [("v", FieldType::Int)]));
    let program: Arc<Program> = Program::builder(reg)
        .rules_text("r d(@N, X) :- a(@N, X, _).")
        .unwrap()
        .build()
        .unwrap();

    let n = NodeId::new("n");
    let mut eng = Engine::new(Arc::clone(&program), GraphRecorder::new());
    // d(1) appears, supported by a(1,1).
    eng.schedule_insert(1, n, tuple!("a", 1, 1)).unwrap();
    // Same due: the only support dies and a replacement re-derives d(1).
    eng.schedule_delete(10, n, tuple!("a", 1, 1)).unwrap();
    eng.schedule_insert(10, n, tuple!("a", 1, 2)).unwrap();
    eng.run().unwrap();
    let graph = eng.into_sink().finish();

    let d = TupleRef::new(n, tuple!("d", 1));
    let eps = graph.episodes(&d);
    assert_eq!(eps.len(), 2, "the swap must close and re-open d(1)");
    assert!(eps[0].end.is_some() && eps[1].end.is_none());
    let first = extract_tree(&graph, &d, eps[0].start).unwrap().render();
    let second = extract_tree(&graph, &d, eps[1].start).unwrap().render();
    assert_ne!(first, second, "fresh episode re-used the dead proof");
    assert!(second.contains("a(1,2)"), "{second}");
}

/// A native triggered by `e`: reports `g(X)` back to its own node, two
/// ticks late, with the trigger as its only dependency.
struct EchoLate;
impl NativeRule for EchoLate {
    fn name(&self) -> Sym {
        Sym::new("nat")
    }
    fn triggers(&self) -> Vec<Sym> {
        vec![Sym::new("e")]
    }
    fn fire(&self, view: &NodeView<'_>, trigger: &Tuple, out: &mut Emitter) -> Result<()> {
        out.emit_delayed(
            *view.node,
            Tuple::new("g", vec![trigger.args[0].clone()]),
            vec![TupleRef::new(*view.node, trigger.clone())],
            2,
        );
        Ok(())
    }
}

#[test]
fn same_due_deltas_fire_delta_major() {
    // One table (`e`) triggers two declarative rules, an aggregate and a
    // native; three `e` tuples share due 5, so they fire in one flush at
    // clocks 5, 6 and 7. A head is due at its trigger's due plus its delay
    // (far +2, near +1, the local aggregate +0, the native +2), and the
    // three triggers share a due, so the heads of *different* deltas
    // collide on every due — and there only the push order decides who
    // runs first. The oracle fires tuple-at-a-time: everything the first
    // delta scheduled is pushed before anything of the second, each
    // delta's declarative rules in program order and then its natives. The
    // expected stream below is worked out by hand from that rule; a
    // rule-major flush would run d(1), d(2) and d(3) before any `nat` head
    // at due 7.
    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new("e", TableKind::ImmutableBase, [("x", FieldType::Int)]));
    reg.declare(Schema::new("obs", TableKind::ImmutableBase, [("c", FieldType::Int)]));
    reg.declare(Schema::new("peer", TableKind::MutableBase, [("next", FieldType::Str)]));
    for head in ["d", "f", "g"] {
        reg.declare(Schema::new(head, TableKind::Derived, [("x", FieldType::Int)]));
    }
    reg.declare(Schema::new(
        "tot",
        TableKind::Derived,
        [("x", FieldType::Int), ("sum", FieldType::Int)],
    ));
    let mut rules = parse_rules(
        "far d(@M, X) :- e(@N, X), peer(@N, M).\n\
         near f(@M, X) :- e(@N, X), peer(@N, M).\n\
         cnt tot(@N, X, agg_sum(C)) :- e(@N, X), obs(@N, C).",
    )
    .unwrap();
    rules[0].link_delay = 2;
    let program = Program::builder(reg)
        .rules(rules)
        .native(Arc::new(EchoLate))
        .build()
        .unwrap();
    let ops = [
        ScheduledOp::insert(0, "n", tuple!("peer", "m")),
        ScheduledOp::insert(0, "n", tuple!("obs", 4)),
        ScheduledOp::insert(0, "n", tuple!("obs", 6)),
        ScheduledOp::insert(5, "n", tuple!("e", 1)),
        ScheduledOp::insert(5, "n", tuple!("e", 2)),
        ScheduledOp::insert(5, "n", tuple!("e", 3)),
    ];
    let got = run_checked(&program, &ops);
    let derived: Vec<(u64, u64, &str, Tuple, &str)> = got
        .events
        .iter()
        .filter_map(|e| match e {
            ProvEvent::Derive { time, since, node, tuple, rule, body, trigger } => {
                assert_eq!(since, time, "{tuple} derived twice");
                // The firing clock is the trigger's appearance.
                let fired = body[*trigger].since;
                Some((fired, *time, node.as_str(), (**tuple).clone(), rule.as_str()))
            }
            _ => None,
        })
        .collect();
    assert_eq!(
        derived,
        vec![
            // due 5: the local aggregates, one per delta, in delta order.
            (5, 8, "n", tuple!("tot", 1, 10), "cnt"),
            (6, 9, "n", tuple!("tot", 2, 10), "cnt"),
            (7, 10, "n", tuple!("tot", 3, 10), "cnt"),
            // due 6: near, one per delta.
            (5, 11, "m", tuple!("f", 1), "near"),
            (6, 12, "m", tuple!("f", 2), "near"),
            (7, 13, "m", tuple!("f", 3), "near"),
            // due 7: six heads of three deltas, in push order — each
            // delta's far, then its native, before the next delta's.
            (5, 14, "m", tuple!("d", 1), "far"),
            (5, 15, "n", tuple!("g", 1), "nat"),
            (6, 16, "m", tuple!("d", 2), "far"),
            (6, 17, "n", tuple!("g", 2), "nat"),
            (7, 18, "m", tuple!("d", 3), "far"),
            (7, 19, "n", tuple!("g", 3), "nat"),
        ]
    );
    assert_eq!(got.stats.batched_deltas, 6 + 12);
}

#[test]
fn failed_flush_queues_nothing_and_leaves_nothing_behind() {
    // Three deltas in one batch; the constraint raises a type error (not
    // an arithmetic one, which would only suppress the firing) on the
    // second. The first delta's head was already buffered when the flush
    // failed: it must neither reach the queue nor sit in the engine's
    // reusable action buffer until the next flush picks it up.
    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new("q", TableKind::MutableBase, [("v", FieldType::Any)]));
    reg.declare(Schema::new("d", TableKind::Derived, [("v", FieldType::Int)]));
    let program = Program::builder(reg)
        .rules_text("r d(@N, V) :- q(@N, V), V > 0.")
        .unwrap()
        .build()
        .unwrap();
    let n = NodeId::new("n");
    let mut eng = Engine::new(program, VecSink::default());
    eng.schedule_insert(3, n, tuple!("q", 1)).unwrap();
    eng.schedule_insert(3, n, tuple!("q", "oops")).unwrap();
    eng.schedule_insert(3, n, tuple!("q", 3)).unwrap();
    let err = eng.run().expect_err("comparing a string with an integer is a type error");
    assert!(matches!(err, dp_types::Error::Type { .. }), "{err}");
    // The applied insertions are in the stream; no derivation is.
    let at_failure = eng.sink().events.len();
    assert_eq!(at_failure, 6, "{:?}", eng.sink().events);
    // Nothing was queued, and nothing runs.
    assert_eq!(eng.run().unwrap().events, 3, "the failed flush left events queued");
    assert_eq!(eng.sink().events.len(), at_failure);

    // A later stimulus fires on its own: d(5) only, at the next ticks —
    // d(1) from the failed batch does not ride along.
    eng.schedule_insert(100, n, tuple!("q", 5)).unwrap();
    eng.run().unwrap();
    let q5 = || BodyRef {
        tref: TupleRef::new(n, tuple!("q", 5)),
        since: 100,
    };
    assert_eq!(
        eng.sink().events[at_failure..],
        [
            ProvEvent::InsertBase {
                time: 100,
                since: 100,
                node: n,
                tuple: Arc::new(tuple!("q", 5)),
            },
            ProvEvent::Appear { time: 100, node: n, tuple: Arc::new(tuple!("q", 5)) },
            ProvEvent::Derive {
                time: 101,
                since: 101,
                node: n,
                tuple: Arc::new(tuple!("d", 5)),
                rule: Sym::new("r"),
                body: vec![q5()],
                trigger: 0,
            },
            ProvEvent::Appear { time: 101, node: n, tuple: Arc::new(tuple!("d", 5)) },
        ]
    );
    assert!(eng.lookup(&n, &tuple!("d", 1)).is_none());
    assert_eq!(eng.stats().events, 5);
}

/// The engine hands buffered provenance events to the sink whenever they
/// reach its hand-off size, not only at a flush, so a bulk load — one
/// same-`due` batch however long — never sits in the buffer whole. Where
/// the hand-offs fall is invisible in the stream: the runs concatenate to
/// the oracle's, and a firing error still leaves exactly the events of the
/// applied mutations behind.
#[test]
fn a_bulk_load_is_handed_off_in_bounded_runs() {
    use dp_ndlog::ProvenanceSink;
    /// `EVENT_HANDOFF`, private to `engine.rs`.
    const HANDOFF: usize = 4096;
    /// A `VecSink` that also notes the length of every hand-off.
    #[derive(Default)]
    struct Runs {
        events: Vec<ProvEvent>,
        runs: Vec<usize>,
    }
    impl ProvenanceSink for Runs {
        fn record(&mut self, event: ProvEvent) {
            self.runs.push(1);
            self.events.push(event);
        }
        fn record_batch(&mut self, events: &mut Vec<ProvEvent>) {
            self.runs.push(events.len());
            self.events.append(events);
        }
    }
    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new("q", TableKind::MutableBase, [("v", FieldType::Any)]));
    reg.declare(Schema::new("d", TableKind::Derived, [("v", FieldType::Int)]));
    let program = Program::builder(reg)
        .rules_text("r d(@N, V) :- q(@N, V), V > 0.")
        .unwrap()
        .build()
        .unwrap();

    // One batch of 3 x HANDOFF inserts, two events each; the derivations
    // behind it are local, so all are due at the load's own due, 3: one
    // second batch of 3 x HANDOFF.
    let ops: Vec<ScheduledOp> = (1..=3 * HANDOFF as i64)
        .map(|i| ScheduledOp::insert(3, "n", tuple!("q", i)))
        .collect();
    let mut eng = Engine::new(Arc::clone(&program), Runs::default());
    testsupport::schedule_all(&mut eng, &ops);
    let stats = eng.run().unwrap();
    assert_eq!(stats.batches, 2);
    let got = eng.into_sink();
    // A hand-off is due once an engine event leaves HANDOFF events or
    // more buffered, and an event here emits at most two.
    assert!(got.runs.iter().all(|&n| n <= HANDOFF + 1), "{:?}", &got.runs[..8]);
    assert_eq!(got.runs[..6], [HANDOFF; 6], "the load's hand-offs");
    assert_eq!(got.runs.iter().sum::<usize>(), got.events.len());
    assert_eq!(got.events.len(), 12 * HANDOFF);
    assert_eq!(got.events, testsupport::run_reference(&program, &ops).0);

    // The same load with a type error in the middle of it: every insert
    // is applied before the flush fails, and nothing else is in the sink.
    let n = NodeId::new("n");
    let load = 2 * HANDOFF as u64;
    let mut eng = Engine::new(program, Runs::default());
    for i in 0..load {
        let v = if i == load / 2 { Value::str("oops") } else { Value::Int(i as i64 + 1) };
        eng.schedule_insert(3, n, Tuple::new("q", vec![v])).unwrap();
    }
    let err = eng.run().expect_err("comparing a string with an integer is a type error");
    assert!(matches!(err, dp_types::Error::Type { .. }), "{err}");
    let got = eng.sink();
    assert!(got.runs.len() >= 4 && got.runs.iter().all(|&n| n <= HANDOFF + 1), "{:?}", got.runs);
    assert_eq!(got.events.len() as u64, 2 * load);
    for (i, pair) in got.events.chunks(2).enumerate() {
        let time = 3 + i as u64;
        assert!(
            matches!(&pair[0], ProvEvent::InsertBase { time: t, since, .. } if (*t, *since) == (time, time))
                && matches!(&pair[1], ProvEvent::Appear { time: t, .. } if *t == time),
            "events of insert {i}: {pair:?}"
        );
    }
}

/// A native emits only into a `Derived` table, as a rule head must: a
/// report of `m(1)`, a tuple of a *base* table, fails the run — in the
/// engine as in the oracle, after the same stream — instead of giving a
/// base tuple derived support. Base and derived tuples stay disjoint,
/// which is what lets the engine hold base tuples without interning them.
#[test]
fn a_native_emits_only_into_a_derived_table() {
    /// Reports `m(X)` at the trigger's node.
    struct Mirror;
    impl NativeRule for Mirror {
        fn name(&self) -> Sym {
            Sym::new("mirror")
        }
        fn triggers(&self) -> Vec<Sym> {
            vec![Sym::new("e")]
        }
        fn fire(&self, view: &NodeView<'_>, trigger: &Tuple, out: &mut Emitter) -> Result<()> {
            out.emit(
                *view.node,
                Tuple::new("m", vec![trigger.args[0].clone()]),
                vec![TupleRef::new(*view.node, trigger.clone())],
            );
            Ok(())
        }
    }
    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new("e", TableKind::MutableBase, [("x", FieldType::Int)]));
    reg.declare(Schema::new("m", TableKind::MutableBase, [("x", FieldType::Int)]));
    let program = Program::builder(reg).native(Arc::new(Mirror)).build().unwrap();
    let err = fails_like_the_oracle(&program, &[ScheduledOp::insert(0, "n", tuple!("e", 1))]);
    assert!(err.contains("native mirror emits into a non-derived table"), "{err}");
}

/// `a(x)`, `b(y)`, and two rules over them: `g(x)` from `a` alone and
/// `h(x, y)` from the pair, body order `a` then `b`.
fn pair_program() -> Arc<Program> {
    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new("a", TableKind::MutableBase, [("x", FieldType::Int)]));
    reg.declare(Schema::new("b", TableKind::MutableBase, [("y", FieldType::Int)]));
    reg.declare(Schema::new("g", TableKind::Derived, [("x", FieldType::Int)]));
    reg.declare(Schema::new(
        "h",
        TableKind::Derived,
        [("x", FieldType::Int), ("y", FieldType::Int)],
    ));
    Program::builder(reg)
        .rules_text(
            "rg g(@N, X) :- a(@N, X).\n\
             rh h(@N, X, Y) :- a(@N, X), b(@N, Y).",
        )
        .unwrap()
        .build()
        .unwrap()
}

/// The heads underived from `since` on, in stream order.
fn underived(got: &Outcome, since: u64) -> Vec<Tuple> {
    got.events
        .iter()
        .filter_map(|e| match e {
            ProvEvent::Underive { time, tuple, .. } if *time >= since => Some((**tuple).clone()),
            _ => None,
        })
        .collect()
}

/// A derivation registers its head with each body tuple only once every
/// body tuple has passed the in-flight re-check. When a later body tuple
/// turns out to have been retracted in flight, nothing is registered:
/// `a(1)`'s list must read as if `h(1,2)` had never been tried, so that
/// when `h(1,2)` is derived for real — after `h(1,3)` — the cascade that
/// retires `a(1)` meets the heads in the order they were recorded.
#[test]
fn body_retracted_in_flight_registers_no_dependent() {
    let program = pair_program();
    let got = run_checked(
        &program,
        &[
            ScheduledOp::insert(1, "n", tuple!("a", 1)),
            ScheduledOp::insert(5, "n", tuple!("b", 1)),
            // b(2) triggers h(1,2) and is gone before it is delivered:
            // the delete flushes the firing, then pops ahead of it.
            ScheduledOp::insert(10, "n", tuple!("b", 2)),
            ScheduledOp::delete(10, "n", tuple!("b", 2)),
            ScheduledOp::insert(20, "n", tuple!("b", 3)),
            ScheduledOp::insert(25, "n", tuple!("b", 2)),
            ScheduledOp::delete(30, "n", tuple!("a", 1)),
        ],
    );
    let derives_of_h12 = got
        .events
        .iter()
        .filter(|e| matches!(e, ProvEvent::Derive { tuple, .. } if **tuple == tuple!("h", 1, 2)))
        .count();
    assert_eq!(derives_of_h12, 1, "the in-flight derivation must have been dropped");
    assert_eq!(
        underived(&got, 30),
        vec![tuple!("g", 1), tuple!("h", 1, 1), tuple!("h", 1, 3), tuple!("h", 1, 2)],
        "a(1)'s dependents, in registration order"
    );
    assert_eq!(table_of(&got, "n", "b").len(), 3);
    assert!(table_of(&got, "n", "h").is_empty() && table_of(&got, "n", "g").is_empty());
}

/// The same `(rule, body)` delivered twice counts once — and registers
/// once. `b(1)` is inserted, deleted and re-inserted inside one due: the
/// delete flushes the first firing, whose delivery finds `b(1)` back and
/// is recorded; the re-insert's own firing then delivers the identical
/// derivation, which must register nothing and leave the first one's
/// registrations in place, on `a(1)` and on `b(1)` alike.
#[test]
fn duplicate_delivery_registers_its_head_once() {
    let program = pair_program();
    let ops = [
        ScheduledOp::insert(1, "n", tuple!("a", 1)),
        ScheduledOp::insert(10, "n", tuple!("b", 1)),
        ScheduledOp::delete(10, "n", tuple!("b", 1)),
        ScheduledOp::insert(10, "n", tuple!("b", 1)),
        ScheduledOp::insert(20, "n", tuple!("b", 3)),
    ];
    let mut eng = Engine::new(Arc::clone(&program), VecSink::default());
    testsupport::schedule_all(&mut eng, &ops);
    eng.run().unwrap();
    assert_eq!(eng.stats().join_matches, 4, "rg once; rh for b(1) twice and b(3)");
    assert_eq!(eng.stats().derivations, 3, "the second h(1,1) is a duplicate");
    let h11 = eng.lookup(&NodeId::new("n"), &tuple!("h", 1, 1)).unwrap();
    assert_eq!(h11.derivations.len(), 1);

    // Retiring b(1) must still find h(1,1) (its registration survived the
    // duplicate's undo), and retiring a(1) the rest, in order.
    let mut all = ops.to_vec();
    all.push(ScheduledOp::delete(30, "n", tuple!("b", 1)));
    all.push(ScheduledOp::insert(35, "n", tuple!("b", 1)));
    all.push(ScheduledOp::delete(40, "n", tuple!("a", 1)));
    let got = run_checked(&program, &all);
    assert_eq!(underived(&got, 30), vec![
        tuple!("h", 1, 1), // b(1) goes at 30
        tuple!("g", 1),    // a(1) goes at 40: registration order
        tuple!("h", 1, 1),
        tuple!("h", 1, 3),
    ]);
}

/// `h(Y)` from `b(X)` and any `g(Y)`; `kk(X)` from `b(X)` and `k(X)`.
fn stale_dependent_program() -> Arc<Program> {
    let mut reg = SchemaRegistry::new();
    for t in ["b", "g", "k"] {
        reg.declare(Schema::new(t, TableKind::MutableBase, [("x", FieldType::Int)]));
    }
    for t in ["h", "kk"] {
        reg.declare(Schema::new(t, TableKind::Derived, [("x", FieldType::Int)]));
    }
    Program::builder(reg)
        .rules_text(
            "rh h(@N, Y) :- b(@N, X), g(@N, Y).\n\
             rk kk(@N, X) :- b(@N, X), k(@N, X).",
        )
        .unwrap()
        .build()
        .unwrap()
}

/// A dependent is never pruned, so the body tuple `b(1)` still lists
/// `h(10)` after `h(10)` is gone. A different head of the same table,
/// `h(20)`, then appears — in the slot `h(10)` left, were slots handed to
/// other tuples — and is derived from `b(1)` too, after `kk(1)` was. When
/// `b(1)` goes, the stale entry must not reach `h(20)`: `kk(1)` is
/// underived first, in registration order, as the oracle (which lists
/// dependents as tuples) has it.
#[test]
fn a_stale_dependent_does_not_underive_a_new_occupant() {
    let program = stale_dependent_program();
    let ops = [
        ScheduledOp::insert(0, "n", tuple!("b", 1)),
        ScheduledOp::insert(10, "n", tuple!("g", 10)),
        ScheduledOp::delete(20, "n", tuple!("g", 10)),
        ScheduledOp::insert(30, "n", tuple!("k", 1)),
        ScheduledOp::insert(40, "n", tuple!("g", 20)),
        ScheduledOp::delete(50, "n", tuple!("b", 1)),
    ];
    let got = run_checked(&program, &ops);
    assert_eq!(
        underived(&got, 0),
        vec![tuple!("h", 10), tuple!("kk", 1), tuple!("h", 20)],
        "h(10) when g(10) goes; then kk(1) before h(20) when b(1) goes"
    );
    // Many rounds of the same churn, so any freed slot is handed out again.
    let mut ops = vec![ScheduledOp::insert(0, "n", tuple!("b", 1))];
    for round in 0..8i64 {
        let t = 10 + 10 * round as u64;
        ops.push(ScheduledOp::insert(t, "n", tuple!("g", round)));
        ops.push(ScheduledOp::delete(t + 5, "n", tuple!("g", round)));
    }
    ops.push(ScheduledOp::insert(200, "n", tuple!("k", 1)));
    ops.push(ScheduledOp::insert(210, "n", tuple!("g", 99)));
    ops.push(ScheduledOp::delete(220, "n", tuple!("b", 1)));
    let got = run_checked(&program, &ops);
    assert_eq!(
        underived(&got, 0)[8..],
        [tuple!("kk", 1), tuple!("h", 99)],
        "after eight withdrawn heads, kk(1) still goes before h(99)"
    );
}

/// The converse: the stale entry names a tuple, so when that same tuple
/// is derived from `b(1)` again it is the one the entry reaches — `h(10)`
/// goes before `kk(1)`, at the stale entry's place, as in the oracle.
#[test]
fn a_stale_dependent_reaches_its_tuple_in_a_later_episode() {
    let program = stale_dependent_program();
    let ops = [
        ScheduledOp::insert(0, "n", tuple!("b", 1)),
        ScheduledOp::insert(10, "n", tuple!("g", 10)),
        ScheduledOp::delete(20, "n", tuple!("g", 10)),
        ScheduledOp::insert(30, "n", tuple!("k", 1)),
        ScheduledOp::insert(40, "n", tuple!("g", 10)),
        ScheduledOp::delete(50, "n", tuple!("b", 1)),
    ];
    let got = run_checked(&program, &ops);
    assert_eq!(
        underived(&got, 0),
        vec![tuple!("h", 10), tuple!("h", 10), tuple!("kk", 1)],
    );
}
