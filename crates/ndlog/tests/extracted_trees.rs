//! Well-formedness of *extracted* provenance trees. One schedule is run
//! into a [`GraphRecorder`], and at every query point the graph can
//! answer — each episode's start, the instant before each close, and a
//! latest-episode query past the horizon per tuple — the tree
//! [`extract_tree`] / [`extract_tree_latest`] returns must pass
//! [`tree_well_formedness_violations`].
//!
//! The cases come from the int-, the prefix- (constraints, builtins,
//! aggregations) and the multi-node generators, and the full repro
//! scenario corpus (4 SDN + 4 MapReduce + the campus network). Programs
//! come from the shared generators in `dp_ndlog::testsupport` (offline
//! build — no property-testing framework), so every case is reproducible
//! from the seeds below.

use std::collections::BTreeSet;
use std::sync::Arc;

use dp_ndlog::testsupport::{intgen, nodegen, prefixgen, schedule_all, ScheduledOp};
use dp_ndlog::{Engine, Program};
use dp_provenance::{
    extract_tree, extract_tree_latest, tree_well_formedness_violations, GraphRecorder,
};
use dp_types::{DetRng, LogicalTime, TupleRef};

/// Cap on checked query points per run: the random programs stay far
/// below it, and the campus scenario is sampled down to it (every k-th
/// point, deterministically) so the suite stays fast.
const QUERY_CAP: usize = 400;

/// Runs one case into a graph and checks the tree at every query point;
/// returns how many trees were checked, so callers can assert the case
/// was non-vacuous.
fn check_case(program: &Arc<Program>, ops: &[ScheduledOp], label: &str) -> usize {
    let mut engine = Engine::new(Arc::clone(program), GraphRecorder::new());
    schedule_all(&mut engine, ops);
    engine.run().unwrap();
    let graph = engine.into_sink().finish();

    let trefs: BTreeSet<TupleRef> = graph
        .vertices()
        .map(|v| TupleRef::new(*v.node, Arc::clone(v.tuple)))
        .collect();
    // Collect all (tref, time, latest?) query points first so large runs
    // can be sampled deterministically instead of silently truncated.
    let mut points: Vec<(&TupleRef, LogicalTime, bool)> = Vec::new();
    for tref in &trefs {
        let eps = graph.episodes(tref);
        for ep in &eps {
            points.push((tref, ep.start, false));
            if let Some(end) = ep.end {
                if end > ep.start + 1 {
                    points.push((tref, end - 1, false));
                }
            }
        }
        if !eps.is_empty() {
            points.push((tref, LogicalTime::MAX, true));
        }
    }
    let stride = points.len().div_ceil(QUERY_CAP).max(1);
    let mut checked = 0usize;
    for (tref, at, latest) in points.into_iter().step_by(stride) {
        let tree = if latest {
            extract_tree_latest(&graph, tref, at)
        } else {
            extract_tree(&graph, tref, at)
        };
        let tree = tree.unwrap_or_else(|| panic!("{label}: {tref}@{at}: episode without a tree"));
        let violations = tree_well_formedness_violations(&tree);
        assert!(
            violations.is_empty(),
            "{label}: {tref}@{at}: extracted tree malformed:\n{}",
            violations.join("\n")
        );
        checked += 1;
    }
    checked
}

/// `cases` programs from one generator, each with its schedule; returns
/// the trees checked over all of them.
fn check_generated(
    seed: u64,
    cases: usize,
    label: &str,
    mut arb: impl FnMut(&mut DetRng) -> Option<(Arc<Program>, Vec<ScheduledOp>)>,
) -> usize {
    let mut rng = DetRng::seed_from_u64(seed);
    let (mut done, mut checked) = (0, 0);
    while done < cases {
        let Some((program, ops)) = arb(&mut rng) else {
            continue;
        };
        done += 1;
        checked += check_case(&program, &ops, &format!("{label} case {done}"));
    }
    checked
}

#[test]
fn every_extracted_tree_is_well_formed() {
    // Int-flavored random programs (joins, assignments, comparison
    // constraints, derived-on-derived chaining).
    let checked = check_generated(0xA901_7D1F, 24, "int", |rng| {
        let program = intgen::arb_program(rng)?;
        Some((program, intgen::schedule(&intgen::batch_ops(rng))))
    });
    assert!(checked > 120, "int programs barely extracted: {checked} trees");

    // Prefix-flavored random programs: `prefix_contains` builtins and
    // aggregation fences that re-read whole tables.
    let checked = check_generated(0xA907_BEEF, 24, "prefix", |rng| {
        let program = prefixgen::arb_program(rng, true)?;
        let ops = prefixgen::alternating_schedule(&prefixgen::arb_ops(rng, 8, 30, 4));
        Some((program, ops))
    });
    assert!(checked > 120, "prefix programs barely extracted: {checked} trees");

    // Multi-node random programs (cross-node forwards, link delays).
    let checked = check_generated(0xA902_54AD, 16, "multi-node", |rng| {
        let program = nodegen::arb_program(rng)?;
        let mut ops = nodegen::topology_schedule(rng);
        ops.extend(nodegen::schedule(&nodegen::arb_ops(rng)));
        Some((program, ops))
    });
    assert!(checked > 75, "multi-node programs barely extracted: {checked} trees");

    // All 9 repro scenarios (4 SDN, 4 MapReduce, campus), both the good
    // and the bad trace of each.
    let mut scenarios = dp_sdn::all_sdn_scenarios();
    scenarios.extend(dp_mapreduce::all_mr_scenarios());
    scenarios.push(dp_sdn::campus(&dp_sdn::CampusConfig::default()).scenario);
    assert_eq!(scenarios.len(), 9, "repro corpus changed size");
    for s in &scenarios {
        for (label, exec) in [("good", &s.good_exec), ("bad", &s.bad_exec)] {
            let case = format!("{} ({label})", s.name);
            let checked = check_case(&exec.program, &exec.log.to_schedule(), &case);
            assert!(checked > 0, "{case}: no trees checked");
        }
    }
}
