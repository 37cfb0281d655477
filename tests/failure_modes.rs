//! Tests for DiffProv's documented limitations (Section 4.9 of the paper)
//! and failure modes (Section 4.7) — each implemented as an observable,
//! diagnosable behaviour rather than silently ignored.

use std::sync::Arc;

use diffprov::core::{DiffProv, Failure, QueryEvent};
use diffprov::ndlog::Program;
use diffprov::replay::Execution;
use diffprov::types::{tuple, FieldType, NodeId, Schema, SchemaRegistry, TableKind, TupleRef};

/// A hash in a derivation is harmless as long as its *inputs* come from
/// the good tree: DiffProv evaluates the formula forward and never needs
/// the preimage. Here the configuration is hashed into the output, and
/// DiffProv still pinpoints the configuration change.
#[test]
fn hashes_over_untainted_inputs_are_harmless() {
    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new("in", TableKind::ImmutableBase, [("x", FieldType::Int)]));
    reg.declare(Schema::new("cfg", TableKind::MutableBase, [("k", FieldType::Int)]));
    reg.declare(Schema::new(
        "out",
        TableKind::Derived,
        [("x", FieldType::Int), ("h", FieldType::Sum)],
    ));
    let program = Program::builder(reg)
        .rules_text("r out(@N, X, H) :- in(@N, X), cfg(@N, K), H := hash(K).")
        .unwrap()
        .build()
        .unwrap();

    let mk = |k: i64, x: i64| {
        let mut e = Execution::new(Arc::clone(&program));
        e.log.insert(0, "n", tuple!("cfg", k));
        e.log.insert(5, "n", tuple!("in", x));
        e
    };
    let good = mk(10, 1);
    let bad = mk(20, 1);
    let n = NodeId::new("n");
    let out_of = |e: &Execution| {
        let r = e.replay().unwrap();
        let out = r
            .engine
            .view(&n)
            .unwrap()
            .table(&diffprov::types::Sym::new("out"))
            .next()
            .unwrap()
            .clone();
        out
    };
    let good_out = out_of(&good);
    let bad_out = out_of(&bad);
    assert_ne!(good_out, bad_out);

    let report = DiffProv::default()
        .diagnose(
            &good,
            &QueryEvent::new(TupleRef::new(n, good_out), u64::MAX),
            &bad,
            &QueryEvent::new(TupleRef::new(n, bad_out), u64::MAX),
        )
        .unwrap();
    assert!(report.succeeded(), "{report}");
    assert_eq!(report.delta.len(), 1);
    assert_eq!(report.delta[0].after, Some(tuple!("cfg", 10)));
}

/// A *native* rule that consumed tainted inputs cannot be reasoned about
/// symbolically: DiffProv must fail with a clue naming the imperative
/// code (Section 4.7, third failure mode).
#[test]
fn native_rule_over_tainted_inputs_is_non_invertible() {
    use diffprov::ndlog::{Emitter, NativeRule, NodeView};
    use diffprov::types::{Sym, Tuple, Value};

    struct Doubler;
    impl NativeRule for Doubler {
        fn name(&self) -> Sym {
            Sym::new("doubler")
        }
        fn triggers(&self) -> Vec<Sym> {
            vec![Sym::new("in")]
        }
        fn fire(
            &self,
            view: &NodeView<'_>,
            trigger: &Tuple,
            out: &mut Emitter,
        ) -> diffprov::types::Result<()> {
            let x = trigger.args[0].as_int()?;
            out.emit(
                *view.node,
                Tuple::new("out", vec![Value::Int(2 * x)]),
                vec![diffprov::types::TupleRef::new(*view.node, trigger.clone())],
            );
            Ok(())
        }
    }

    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new("in", TableKind::ImmutableBase, [("x", FieldType::Int)]));
    reg.declare(Schema::new("out", TableKind::Derived, [("y", FieldType::Int)]));
    let program = Program::builder(reg)
        .native(Arc::new(Doubler))
        .build()
        .unwrap();

    let mk = |x: i64| {
        let mut e = Execution::new(Arc::clone(&program));
        e.log.insert(5, "n", tuple!("in", x));
        e
    };
    let good = mk(1); // out(2)
    let bad = mk(3); // out(6) — seeds differ, so the native inputs are tainted
    let n = NodeId::new("n");
    let report = DiffProv::default()
        .diagnose(
            &good,
            &QueryEvent::new(TupleRef::new(n, tuple!("out", 2)), u64::MAX),
            &bad,
            &QueryEvent::new(TupleRef::new(n, tuple!("out", 6)), u64::MAX),
        )
        .unwrap();
    match &report.failure {
        Some(Failure::NonInvertible { attempted }) => {
            assert!(
                attempted.contains("doubler") || attempted.contains("native"),
                "clue must name the imperative rule: {attempted}"
            );
        }
        other => panic!("expected non-invertible failure, got {other:?}"),
    }
}

/// The round limit is a hard stop: a DiffProv configured with zero rounds
/// cannot align anything that diverges.
#[test]
fn round_limit_is_respected() {
    let s = diffprov::sdn::sdn4();
    let dp = DiffProv {
        max_rounds: 1, // SDN4 needs two
        ..Default::default()
    };
    let report = dp
        .diagnose(&s.good_exec, &s.good_event, &s.bad_exec, &s.bad_event)
        .unwrap();
    assert!(
        matches!(report.failure, Some(Failure::RoundLimit { limit: 1 })),
        "{report}"
    );
    // The partial change set still contains the first fix — useful output
    // even on failure.
    assert_eq!(report.delta.len(), 1);
}

/// Non-minimality (Section 4.9, "Minimality"): DiffProv derives missing
/// tuples only via the rule used in the good tree, so its change set can
/// be larger than the smallest possible one. Here the good tree derives
/// through a two-input rule although a one-input derivation exists; the
/// result remains correct (it aligns, and verifies) but uses the good
/// tree's derivation path.
#[test]
fn change_set_follows_the_good_trees_derivation() {
    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new("in", TableKind::ImmutableBase, [("x", FieldType::Int)]));
    reg.declare(Schema::new("a", TableKind::MutableBase, [("v", FieldType::Int)]));
    reg.declare(Schema::new("b", TableKind::MutableBase, [("v", FieldType::Int)]));
    reg.declare(Schema::new("out", TableKind::Derived, [("y", FieldType::Int)]));
    // Two ways to derive out: via a alone, or via a AND b.
    let program = Program::builder(reg)
        .rules_text(
            "r1 out(@N, Y) :- in(@N, X), a(@N, V), Y := X + V.\n\
             r2 out(@N, Y) :- in(@N, X), a(@N, V), b(@N, W), Y := X + V + W.",
        )
        .unwrap()
        .build()
        .unwrap();

    // Good run: out(7) derivable via r1 (a=6) — and also via r2 (a=6,b=0).
    let mut good = Execution::new(Arc::clone(&program));
    good.log.insert(0, "n", tuple!("a", 6));
    good.log.insert(0, "n", tuple!("b", 0));
    good.log.insert(5, "n", tuple!("in", 1));
    // Bad run: a=9, b=5 -> out(10) via r1 and out(15) via r2.
    let mut bad = Execution::new(Arc::clone(&program));
    bad.log.insert(0, "n", tuple!("a", 9));
    bad.log.insert(0, "n", tuple!("b", 5));
    bad.log.insert(5, "n", tuple!("in", 1));

    let n = NodeId::new("n");
    let report = DiffProv::default()
        .diagnose(
            &good,
            &QueryEvent::new(TupleRef::new(n, tuple!("out", 7)), u64::MAX),
            &bad,
            &QueryEvent::new(TupleRef::new(n, tuple!("out", 10)), u64::MAX),
        )
        .unwrap();
    assert!(report.succeeded(), "{report}");
    assert!(report.verified);
    // Whichever derivation the good tree used, the change set repairs that
    // path; it may touch more tuples than the theoretical minimum of 1.
    assert!(!report.delta.is_empty() && report.delta.len() <= 2, "{report}");
}

/// An execution whose outcome does not follow from the modeled rules (the
/// stand-in for a race condition, Section 4.9): DiffProv aborts with a
/// no-progress diagnostic naming the tuple it was stuck on.
#[test]
fn unmodelable_divergence_reports_no_progress() {
    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new("in", TableKind::ImmutableBase, [("x", FieldType::Int)]));
    reg.declare(Schema::new(
        "flag",
        TableKind::ImmutableBase, // out of the operator's control
        [("v", FieldType::Int)],
    ));
    reg.declare(Schema::new("out", TableKind::Derived, [("y", FieldType::Int)]));
    let program = Program::builder(reg)
        .rules_text("r out(@N, X) :- in(@N, X), flag(@N, 1).")
        .unwrap()
        .build()
        .unwrap();
    // Good: the flag was up (say, a timing accident) and out(1) appeared.
    let mut good = Execution::new(Arc::clone(&program));
    good.log.insert(0, "n", tuple!("flag", 1));
    good.log.insert(5, "n", tuple!("in", 1));
    // Bad: the flag never showed; out(2) missing. The only "fix" is an
    // immutable tuple, which DiffProv must refuse.
    let mut bad = Execution::new(Arc::clone(&program));
    bad.log.insert(5, "n", tuple!("in", 2));

    let n = NodeId::new("n");
    let report = DiffProv::default()
        .diagnose(
            &good,
            &QueryEvent::new(TupleRef::new(n, tuple!("out", 1)), u64::MAX),
            &bad,
            &QueryEvent::new(TupleRef::new(n, tuple!("in", 2)), u64::MAX),
        )
        .unwrap();
    match &report.failure {
        Some(Failure::ImmutableChange { needed, .. }) => {
            assert_eq!(needed.tuple.table.as_str(), "flag");
        }
        other => panic!("expected an immutable-change failure, got {other:?}"),
    }
}

/// No false positives (Section 4.7): when DiffProv succeeds, replaying the
/// bad execution with Δ applied really produces the expected equivalent of
/// the good event — for every scenario.
#[test]
fn deltas_are_always_effective() {
    let mut scenarios = diffprov::sdn::all_sdn_scenarios();
    scenarios.extend(diffprov::mapreduce::all_mr_scenarios());
    for s in scenarios {
        let report = s.diagnose().unwrap();
        assert!(report.succeeded(), "{}", s.name);
        assert!(report.verified, "{}: succeeded but not verified", s.name);
    }
}
