//! A replay of a slice holds the whole replay's provenance of what it
//! keeps: for every located tuple a generated run ever held, the slice
//! cut for that tuple alone answers its tree — stamps replaced by their
//! ranks — and its presence exactly as the whole log's replay does. The
//! programs come from the engine's three generators (`intgen`'s joins and
//! derived-on-derived chains on two nodes, `prefixgen`'s trie-probed
//! routes, `nodegen`'s messages between six nodes with aggregation
//! fences), so the slice plan meets keys it accepts, keys it refuses and
//! owners of every kind, and from `prefixgen`'s forwarding programs, whose
//! routes the plan guards; `DiffProv::judge` holds the same over whole
//! diagnoses.

use std::collections::BTreeSet;
use std::sync::Arc;

use dp_ndlog::testsupport::{intgen, nodegen, prefixgen};
use dp_ndlog::{Program, ScheduledOp};
use dp_provenance::VertexKind;
use dp_replay::Execution;
use dp_types::{DetRng, TupleRef};

fn execution(program: Arc<Program>, schedule: &[ScheduledOp]) -> Execution {
    let mut exec = Execution::new(program);
    for op in schedule {
        if op.delete {
            exec.log.delete(op.due, op.node, Arc::clone(&op.tuple));
        } else {
            exec.log.insert(op.due, op.node, Arc::clone(&op.tuple));
        }
    }
    exec
}

/// Every located tuple the whole replay held is answered alike by the
/// slice cut for it; true when the program sliced (its plan kept a key).
fn holds(exec: &Execution, case: &str) -> bool {
    let whole = exec.replay().unwrap();
    let roots: BTreeSet<TupleRef> = whole
        .graph()
        .vertices()
        .filter(|v| matches!(v.kind, VertexKind::Appear))
        .map(|v| TupleRef::new(*v.node, Arc::clone(v.tuple)))
        .collect();
    for root in &roots {
        let sliced = exec.replay_slice([(&root.node, &*root.tuple)], u64::MAX).unwrap();
        let tree = |r: &dp_replay::Replayed| r.query_at(root, u64::MAX).map(|t| t.render_ranked());
        assert_eq!(tree(&sliced), tree(&whole), "{case}: the tree of {root}");
        assert_eq!(
            sliced.exists(&root.node, &root.tuple),
            whole.exists(&root.node, &root.tuple),
            "{case}: the presence of {root}"
        );
    }
    exec.program.slice_plan().refused().is_none()
}

#[test]
fn intgen_slices_answer_as_their_logs() {
    let mut sliced = 0;
    for seed in 0..150 {
        let mut rng = DetRng::seed_from_u64(seed);
        let Some(program) = intgen::arb_program(&mut rng) else {
            continue;
        };
        let ops = if seed % 2 == 0 {
            intgen::join_ops(&mut rng)
        } else {
            intgen::batch_ops(&mut rng)
        };
        let exec = execution(program, &intgen::schedule(&ops));
        sliced += usize::from(holds(&exec, &format!("intgen seed {seed}")));
    }
    assert!(sliced > 10, "only {sliced} intgen programs sliced");
}

#[test]
fn prefixgen_slices_answer_as_their_logs() {
    let mut sliced = 0;
    for seed in 0..100 {
        let mut rng = DetRng::seed_from_u64(seed);
        let Some(program) = prefixgen::arb_program(&mut rng, seed % 3 == 0) else {
            continue;
        };
        let ops = prefixgen::arb_ops(&mut rng, 4, 30, 12);
        let schedule = if seed % 2 == 0 {
            prefixgen::single_node_schedule(&ops)
        } else {
            prefixgen::alternating_schedule(&ops)
        };
        let exec = execution(program, &schedule);
        sliced += usize::from(holds(&exec, &format!("prefixgen seed {seed}")));
    }
    assert!(sliced > 10, "only {sliced} prefixgen programs sliced");
}

/// `prefixgen`'s forwarding programs key packets by their source and
/// give their routes a guard (`prefix_contains` against the packet, or
/// `rt` carried into a checked `rd`), unless a rule reading a route
/// neither checks nor carries it: the slice then keeps a route only where
/// its prefix covers an address a held packet had.
#[test]
fn guarded_prefixgen_slices_answer_as_their_logs() {
    let mut guarded = 0;
    for seed in 0..100 {
        let mut rng = DetRng::seed_from_u64(seed);
        let Some(program) = prefixgen::arb_forwarding_program(&mut rng) else {
            continue;
        };
        let has_guards = program.slice_plan().has_guards();
        let ops = prefixgen::arb_ops(&mut rng, 4, 30, 12);
        let schedule = if seed % 2 == 0 {
            prefixgen::single_node_schedule(&ops)
        } else {
            prefixgen::alternating_schedule(&ops)
        };
        let exec = execution(program, &schedule);
        let sliced = holds(&exec, &format!("forwarding seed {seed}"));
        guarded += usize::from(sliced && has_guards);
    }
    assert!(guarded > 10, "only {guarded} forwarding programs sliced with a guard");
}

#[test]
fn nodegen_slices_answer_as_their_logs() {
    let mut sliced = 0;
    for seed in 0..150 {
        let mut rng = DetRng::seed_from_u64(seed);
        let Some(program) = nodegen::arb_program(&mut rng) else {
            continue;
        };
        let mut schedule = nodegen::topology_schedule(&mut rng);
        schedule.extend(nodegen::schedule(&nodegen::arb_ops(&mut rng)));
        let exec = execution(program, &schedule);
        sliced += usize::from(holds(&exec, &format!("nodegen seed {seed}")));
    }
    assert!(sliced > 10, "only {sliced} nodegen programs sliced");
}
