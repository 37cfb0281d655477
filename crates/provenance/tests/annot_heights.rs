//! Property tests for the annotation store's min-height maintenance.
//!
//! The compact backend records one `(start, end, height, cause)` record
//! per episode, where `height` is the derivation depth of the episode-
//! opening proof: 0 for base facts and boundary episodes, and
//! `1 + max(body episode heights)` for derivations. The reconstructor
//! leans on that number twice — as an exactness filter (a candidate body
//! must reproduce the recorded height) and as the termination bound for
//! the body search on cyclic rule sets — so these tests pin it down
//! independently of the recording code path:
//!
//! 1. **Exactness** — for every episode of every tuple, the stored height
//!    equals the DERIVE-depth of the proof tree reconstructed at the
//!    episode's start (DetRng-seeded schedules with heavy same-timestamp
//!    insert/delete/re-derive churn).
//! 2. **Monotone re-annotation** — deleting a tuple's support and
//!    re-deriving it through a shorter rule at the *same* timestamp opens
//!    a fresh episode annotated with the new, smaller height: annotations
//!    follow the current minimal proof instead of sticking to a dead one
//!    (and re-deriving through a longer path raises it again).
//! 3. **Cyclic programs** — on hand-built cyclic rule sets (`p → q → p`)
//!    the heights are the pinned BFS depths from the seeding base fact,
//!    redundant around-the-loop re-derivations never disturb them, and
//!    reconstruction terminates and matches graph extraction exactly.

use std::sync::Arc;

use dp_ndlog::{Engine, Program};
use dp_provenance::{
    extract_tree, reconstruct_tree, AnnotRecorder, AnnotationStore, GraphRecorder, ProvGraph,
    ProvTree, VertexKind,
};
use dp_types::{
    tuple, DetRng, FieldType, NodeId, Schema, SchemaRegistry, TableKind, Tuple, TupleRef,
};

/// Base table `b` (int × int) plus a derivation ladder with a shortcut:
/// `mid` sits one step above `b`, `top` two steps — unless the shortcut
/// base `f` is present, in which case `top` is derivable in one step.
fn ladder_program() -> Arc<Program> {
    let mut reg = SchemaRegistry::new();
    for t in ["b", "f"] {
        reg.declare(Schema::new(
            t,
            TableKind::MutableBase,
            [("x", FieldType::Int), ("y", FieldType::Int)],
        ));
    }
    for t in ["mid", "top"] {
        reg.declare(Schema::new(t, TableKind::Derived, [("v", FieldType::Int)]));
    }
    Program::builder(reg)
        .rules_text(
            "rm mid(@N, X) :- b(@N, X, _).\n\
             rt top(@N, X) :- mid(@N, X).\n\
             rf top(@N, X) :- f(@N, X, _).\n",
        )
        .unwrap()
        .build()
        .unwrap()
}

/// `p` and `q` derive each other in a cycle, seeded from base `b`.
fn cyclic_program() -> Arc<Program> {
    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new(
        "b",
        TableKind::MutableBase,
        [("x", FieldType::Int), ("y", FieldType::Int)],
    ));
    for t in ["p", "q"] {
        reg.declare(Schema::new(t, TableKind::Derived, [("v", FieldType::Int)]));
    }
    Program::builder(reg)
        .rules_text(
            "rp p(@N, X) :- b(@N, X, _).\n\
             rq q(@N, X) :- p(@N, X).\n\
             rc p(@N, X) :- q(@N, X).\n",
        )
        .unwrap()
        .build()
        .unwrap()
}

/// Runs one schedule into both backends.
fn run_both(
    program: &Arc<Program>,
    ops: &[(bool, u64, Tuple)],
) -> (ProvGraph, AnnotationStore) {
    let mut graph_eng = Engine::new(Arc::clone(program), GraphRecorder::new());
    let mut annot_eng = Engine::new(Arc::clone(program), AnnotRecorder::new(Arc::clone(program)));
    for &(delete, due, ref tup) in ops {
        let n = NodeId::new("n");
        if delete {
            graph_eng.schedule_delete(due, n.clone(), tup.clone()).unwrap();
            annot_eng.schedule_delete(due, n, tup.clone()).unwrap();
        } else {
            graph_eng.schedule_insert(due, n.clone(), tup.clone()).unwrap();
            annot_eng.schedule_insert(due, n, tup.clone()).unwrap();
        }
    }
    graph_eng.run().unwrap();
    annot_eng.run().unwrap();
    (graph_eng.into_sink().finish(), annot_eng.into_sink().finish())
}

/// The DERIVE-depth of a proof tree: how many DERIVE vertexes the deepest
/// root-to-leaf path crosses. This is the independent recomputation of
/// the stored height.
fn derive_depth(tree: &ProvTree, idx: usize) -> u32 {
    let n = tree.node(idx);
    let inc = u32::from(matches!(n.kind, VertexKind::Derive { .. }));
    inc + n
        .children
        .iter()
        .map(|&c| derive_depth(tree, c))
        .max()
        .unwrap_or(0)
}

/// Every episode's stored height equals the DERIVE-depth of the tree
/// reconstructed at the episode's start; checked over the tuples of the
/// store itself, so the assertion also covers boundary synthesis.
fn assert_heights_exact(graph: &ProvGraph, store: &AnnotationStore, label: &str) -> usize {
    let mut checked = 0;
    let trefs: Vec<TupleRef> = graph
        .vertices()
        .map(|v| TupleRef::new(v.node.clone(), Arc::clone(v.tuple)))
        .collect();
    for tref in &trefs {
        for ep in store.episodes(tref) {
            let tree = reconstruct_tree(store, tref, ep.start)
                .unwrap_or_else(|| panic!("{label}: {tref}@{}: no tree", ep.start));
            assert_eq!(
                ep.height,
                derive_depth(&tree, ProvTree::ROOT),
                "{label}: {tref}@{}: stored height diverges from the tree depth",
                ep.start
            );
            checked += 1;
        }
    }
    checked
}

/// Property 1: DetRng-seeded same-timestamp churn over the ladder
/// program. Dues are drawn from a tiny domain so deletes, re-inserts and
/// re-derivations of one tuple routinely collide on a single timestamp.
#[test]
fn heights_are_exact_under_seeded_churn() {
    let mut rng = DetRng::seed_from_u64(0x4E16_4750);
    let program = ladder_program();
    let mut checked = 0;
    for _ in 0..40 {
        let ops: Vec<(bool, u64, Tuple)> = (0..rng.gen_range_usize(4, 28))
            .map(|_| {
                let table = ["b", "f"][rng.gen_range_usize(0, 2)];
                (
                    rng.gen_bool(0.35),
                    rng.gen_range_u64(0, 4),
                    tuple!(table, rng.gen_range_i64(0, 3), rng.gen_range_i64(0, 2)),
                )
            })
            .collect();
        let (graph, store) = run_both(&program, &ops);
        checked += assert_heights_exact(&graph, &store, "churn");
    }
    assert!(checked > 200, "suite barely checked: {checked} episodes");
}

/// Property 2: the pinned monotonicity vector. `top(1)` first lives via
/// the two-step ladder (height 2); deleting its support and inserting the
/// shortcut base *at the same timestamp* re-derives it at height 1; a
/// later flip back to the ladder raises it to 2 again. Each re-derivation
/// opens a fresh episode whose annotation reflects the now-minimal proof.
#[test]
fn rederivation_at_same_timestamp_reannotates_the_height() {
    let program = ladder_program();
    let ops = [
        (false, 1, tuple!("b", 1, 0)),  // ladder support: top at height 2
        (true, 10, tuple!("b", 1, 0)),  // same due: drop the ladder ...
        (false, 10, tuple!("f", 1, 0)), // ... and re-derive via the shortcut
        (true, 20, tuple!("f", 1, 0)),  // flip back to the ladder
        (false, 20, tuple!("b", 1, 0)),
    ];
    let (graph, store) = run_both(&program, &ops);
    let top = TupleRef::new("n", tuple!("top", 1));
    let heights: Vec<u32> = store.episodes(&top).iter().map(|e| e.height).collect();
    assert_eq!(heights, [2, 1, 2], "episode heights over the churn");
    // The intervals chain across the same-timestamp swaps.
    let spans: Vec<(u64, Option<u64>)> =
        store.episodes(&top).iter().map(|e| (e.start, e.end)).collect();
    assert_eq!(spans.len(), 3);
    assert!(spans[0].1.is_some() && spans[1].1.is_some() && spans[2].1.is_none());
    assert_heights_exact(&graph, &store, "pinned churn");
    // And the reconstructed trees match graph extraction at every start.
    for ep in store.episodes(&top) {
        assert_eq!(
            extract_tree(&graph, &top, ep.start).unwrap().render(),
            reconstruct_tree(&store, &top, ep.start).unwrap().render()
        );
    }
}

/// Property 3: the hand-built cycle. Heights are the BFS depths from the
/// seeding base fact (b=0, p=1, q=2); the around-the-loop re-derivation
/// of `p` (height 3, redundant) never disturbs the annotation; and the
/// height-bounded reconstruction terminates on the cyclic rule set and
/// matches extraction byte-for-byte.
#[test]
fn cyclic_programs_pin_bfs_heights_and_reconstruct() {
    let program = cyclic_program();
    let ops = [(false, 1, tuple!("b", 7, 0))];
    let (graph, store) = run_both(&program, &ops);
    for (tref, want) in [
        (TupleRef::new("n", tuple!("b", 7, 0)), 0u32),
        (TupleRef::new("n", tuple!("p", 7)), 1),
        (TupleRef::new("n", tuple!("q", 7)), 2),
    ] {
        let eps = store.episodes(&tref);
        assert_eq!(eps.len(), 1, "{tref}");
        assert_eq!(eps[0].height, want, "{tref}");
        assert_eq!(
            extract_tree(&graph, &tref, eps[0].start).unwrap().render(),
            reconstruct_tree(&store, &tref, eps[0].start).unwrap().render(),
            "{tref}"
        );
    }
    assert_heights_exact(&graph, &store, "cycle");
}

/// Property 3, churned: seeded insert/delete churn over the cyclic
/// program. Support counting may keep the loop alive through base
/// deletions; whatever the engine records, the annotations must stay
/// exact and every reconstruction must terminate and match extraction.
#[test]
fn cyclic_churn_stays_exact() {
    let mut rng = DetRng::seed_from_u64(0xC1C1_E0DE);
    let program = cyclic_program();
    let mut checked = 0;
    for _ in 0..25 {
        let ops: Vec<(bool, u64, Tuple)> = (0..rng.gen_range_usize(2, 16))
            .map(|_| {
                (
                    rng.gen_bool(0.4),
                    rng.gen_range_u64(0, 4),
                    tuple!("b", rng.gen_range_i64(0, 2), rng.gen_range_i64(0, 2)),
                )
            })
            .collect();
        let (graph, store) = run_both(&program, &ops);
        checked += assert_heights_exact(&graph, &store, "cyclic churn");
        for tref in graph
            .vertices()
            .map(|v| TupleRef::new(v.node.clone(), Arc::clone(v.tuple)))
        {
            for ep in store.episodes(&tref) {
                assert_eq!(
                    extract_tree(&graph, &tref, ep.start).unwrap().render(),
                    reconstruct_tree(&store, &tref, ep.start).unwrap().render(),
                    "{tref}@{}",
                    ep.start
                );
            }
        }
    }
    assert!(checked > 100, "suite barely checked: {checked} episodes");
}
