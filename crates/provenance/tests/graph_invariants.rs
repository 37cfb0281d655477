//! Randomized tests: structural invariants of the temporal provenance
//! graph hold under arbitrary insertion/deletion schedules. Schedules are
//! generated with the in-repo deterministic generator (offline build — no
//! property-testing framework).

use std::sync::Arc;

use dp_ndlog::{Engine, Program, ScheduledOp};
use dp_provenance::{
    extract_tree, well_formedness_violations, GraphRecorder, ProvGraph, VertexKind,
};
use dp_types::{tuple, DetRng, FieldType, NodeId, Schema, SchemaRegistry, Sym, TableKind, TupleRef};

fn program() -> Arc<Program> {
    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new("e", TableKind::ImmutableBase, [("x", FieldType::Int)]));
    reg.declare(Schema::new("k", TableKind::MutableBase, [("v", FieldType::Int)]));
    reg.declare(Schema::new("m", TableKind::Derived, [("y", FieldType::Int)]));
    reg.declare(Schema::new("t", TableKind::Derived, [("y", FieldType::Int)]));
    Program::builder(reg)
        .rules_text(
            "r1 m(@N, Y) :- e(@N, X), k(@N, V), Y := X + V.\n\
             r2 t(@N, Z) :- m(@N, Y), Z := Y * 2.",
        )
        .unwrap()
        .build()
        .unwrap()
}

/// One random op: (is_delete, is_k_table, value, due).
fn arb_ops(rng: &mut DetRng) -> Vec<(bool, bool, i64, u64)> {
    (0..rng.gen_range_usize(1, 30))
        .map(|_| {
            (
                rng.gen_bool(0.5),
                rng.gen_bool(0.5),
                rng.gen_range_i64(-3, 3),
                rng.gen_range_u64(0, 200),
            )
        })
        .collect()
}

/// A random schedule of inserts and deletes, replayed into a graph.
fn run_schedule(ops: &[(bool, bool, i64, u64)]) -> (ProvGraph, u64) {
    let mut eng = Engine::new(program(), GraphRecorder::new());
    let n = NodeId::new("n");
    for &(is_delete, is_k, v, due) in ops {
        let t = if is_k { tuple!("k", v) } else { tuple!("e", v) };
        if is_delete && is_k {
            eng.schedule_delete(due, n, t).unwrap();
        } else {
            eng.schedule_insert(due, n, t).unwrap();
        }
    }
    eng.run().unwrap();
    let now = eng.now();
    (eng.into_sink().finish(), now)
}

/// Vertex-type grammar and episode ordering, via the exported checker
/// (`dp_provenance::well_formedness_violations`) that the simulation
/// harness also runs against every generated scenario. One seed per
/// former in-test loop so the covered schedules are unchanged.
#[test]
fn random_graphs_are_well_formed() {
    let mut nonempty = 0usize;
    for seed in [0x6A4F_0001u64, 0x6A4F_0002] {
        let mut rng = DetRng::seed_from_u64(seed);
        for _ in 0..48 {
            let ops = arb_ops(&mut rng);
            let (g, _) = run_schedule(&ops);
            nonempty += usize::from(!g.is_empty());
            let violations = well_formedness_violations(&g);
            assert!(
                violations.is_empty(),
                "schedule {ops:?}:\n{}",
                violations.join("\n")
            );
        }
    }
    assert!(nonempty > 48, "generator built mostly empty graphs");
}

/// Every derived tuple alive at the end has an extractable tree whose root
/// matches the query and whose leaves are all INSERT vertexes.
#[test]
fn live_tuples_have_well_formed_trees() {
    let mut rng = DetRng::seed_from_u64(0x6A4F_0003);
    for _ in 0..48 {
        let ops = arb_ops(&mut rng);
        let mut eng = Engine::new(program(), GraphRecorder::new());
        let n = NodeId::new("n");
        for &(is_delete, is_k, v, due) in &ops {
            let t = if is_k { tuple!("k", v) } else { tuple!("e", v) };
            if is_delete && is_k {
                eng.schedule_delete(due, n, t).unwrap();
            } else {
                eng.schedule_insert(due, n, t).unwrap();
            }
        }
        eng.run().unwrap();
        let now = eng.now();
        let live: Vec<TupleRef> = eng
            .nodes()
            .flat_map(|(node, st)| {
                st.table(&Sym::new("t"))
                    .map(|t| TupleRef::new(*node, t.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        let g = eng.into_sink().finish();
        for tref in live {
            let tree = extract_tree(&g, &tref, now);
            assert!(tree.is_some(), "live tuple {tref} has no tree");
            let tree = tree.unwrap();
            assert_eq!(tree.root().tuple, tref.tuple);
            for (_, leaf) in tree.leaves() {
                assert!(
                    matches!(leaf.kind, VertexKind::Insert),
                    "leaf {:?} is not an INSERT",
                    leaf.kind
                );
            }
        }
    }
}

/// The engine's batched evaluation records the same provenance graph as
/// the tuple-at-a-time reference evaluator, vertex for vertex: same kinds,
/// nodes, tuples, times, child lists, and vertex numbering. The schedule
/// spans several nodes and forwards derived tuples across them, so the
/// engine's recorder is fed whole multi-node batches at the flush
/// boundaries while the oracle's sees one event at a time — and none of
/// that may be visible in the finished graph.
#[test]
fn batched_multi_node_recording_builds_an_identical_graph() {
    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new("obs", TableKind::MutableBase, [("x", FieldType::Int)]));
    reg.declare(Schema::new("nbr", TableKind::MutableBase, [("next", FieldType::Str)]));
    reg.declare(Schema::new("rep", TableKind::Derived, [("v", FieldType::Int)]));
    let program: Arc<Program> = Program::builder(reg)
        .rules_text("fwd rep(@M, X) :- obs(@N, X), nbr(@N, M).")
        .unwrap()
        .build()
        .unwrap();
    let nodes: Vec<NodeId> = (0..5).map(|i| NodeId::new(format!("s{i}").as_str())).collect();
    let render = |g: &ProvGraph| -> String {
        g.vertices()
            .enumerate()
            .map(|(i, v)| format!("{i} {v} <- {:?}\n", v.children))
            .collect()
    };
    let mut rng = DetRng::seed_from_u64(0x6A4F_0004);
    let mut ops = Vec::new();
    for (i, n) in nodes.iter().enumerate() {
        let next = &nodes[(i + 1) % nodes.len()];
        ops.push(ScheduledOp::insert(0, *n, tuple!("nbr", next.as_str())));
    }
    for _ in 0..60 {
        let n = &nodes[rng.gen_range_usize(0, nodes.len())];
        let x = rng.gen_range_i64(0, 4);
        let due = rng.gen_range_u64(1, 6);
        ops.push(ScheduledOp {
            due,
            node: *n,
            tuple: tuple!("obs", x).into(),
            delete: rng.gen_bool(0.25),
        });
    }

    let mut recorder = GraphRecorder::new();
    dp_ndlog::reference::evaluate(&program, &ops, &mut recorder).unwrap();
    let reference = recorder.finish();
    assert!(
        reference.stats().total() > 100,
        "schedule too quiet: {:?}",
        reference.stats()
    );

    let mut eng = Engine::new(Arc::clone(&program), GraphRecorder::new());
    for op in &ops {
        eng.schedule(op).unwrap();
    }
    eng.run().unwrap();
    let batched = eng.into_sink().finish();
    assert_eq!(reference.stats(), batched.stats(), "graph stats diverge under batching");
    assert_eq!(render(&reference), render(&batched), "graph diverges under batching");
}
