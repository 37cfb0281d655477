//! Differential test of the two provenance backends: the explicit
//! temporal graph ([`GraphRecorder`]) against the compact annotation
//! store ([`AnnotRecorder`]) whose proof trees are *reconstructed* on
//! demand by re-running rule bodies. The same schedule is executed twice
//! — once into each backend — and then every
//! query point the graph can answer is asked of both: the reconstructed
//! tree must render byte-identically to the extracted one, both must
//! agree on episode intervals, and the reconstruction must pass the tree
//! well-formedness checker.
//!
//! The cases come from the int-, the prefix- (constraints, builtins,
//! aggregations — the report-mode rules), and the multi-node generators,
//! and the full repro scenario corpus (4 SDN + 4 MapReduce + the campus
//! network). Any inexactness in the
//! annotation backend's height-bounded body search — a wrong trigger pin,
//! a visibility leak, a lex tie broken differently than the engine broke
//! it — shows up here as a render divergence.
//!
//! Programs come from the shared generators in `dp_ndlog::testsupport`
//! (offline build — no property-testing framework), so every case is
//! reproducible from the seeds below.

use std::collections::BTreeSet;
use std::sync::Arc;

use dp_ndlog::testsupport::{intgen, nodegen, prefixgen, schedule_all, ScheduledOp};
use dp_ndlog::{Engine, Program};
use dp_provenance::{
    extract_tree, extract_tree_latest, reconstruct_tree, reconstruct_tree_latest,
    tree_well_formedness_violations, AnnotRecorder, AnnotationStore, GraphRecorder, ProvGraph,
};
use dp_types::{DetRng, LogicalTime, TupleRef};

/// Cap on cross-checked query points per run: the random programs stay
/// far below it, and the campus scenario is sampled down to it (every
/// k-th point, deterministically) so the suite stays fast.
const QUERY_CAP: usize = 400;

/// Runs one schedule into both backends.
fn run_backends(program: &Arc<Program>, ops: &[ScheduledOp]) -> (ProvGraph, AnnotationStore) {
    let mut graph_eng = Engine::new(Arc::clone(program), GraphRecorder::new());
    let mut annot_eng = Engine::new(Arc::clone(program), AnnotRecorder::new(Arc::clone(program)));
    schedule_all(&mut graph_eng, ops);
    schedule_all(&mut annot_eng, ops);
    graph_eng.run().unwrap();
    annot_eng.run().unwrap();
    (graph_eng.into_sink().finish(), annot_eng.into_sink().finish())
}

/// Every query point the graph can answer, asked of both backends. The
/// points are each episode's start, the instant before each close, and a
/// latest-episode query past the horizon per tuple. Returns how many
/// trees were compared, so callers can assert the case was non-vacuous.
fn cross_check(graph: &ProvGraph, store: &AnnotationStore, label: &str) -> usize {
    let trefs: BTreeSet<TupleRef> = graph
        .vertices()
        .map(|v| TupleRef::new(v.node.clone(), Arc::clone(v.tuple)))
        .collect();
    // Collect all (tref, time, latest?) query points first so large runs
    // can be sampled deterministically instead of silently truncated.
    let mut points: Vec<(&TupleRef, LogicalTime, bool)> = Vec::new();
    for tref in &trefs {
        let eps = graph.episodes(tref);
        let anns = store.episodes(tref);
        assert_eq!(
            eps.len(),
            anns.len(),
            "{label}: {tref}: episode count diverges"
        );
        for (ep, ann) in eps.iter().zip(anns) {
            assert_eq!(
                (ep.start, ep.end),
                (ann.start, ann.end),
                "{label}: {tref}: episode interval diverges"
            );
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
        let (want, got) = if latest {
            (
                extract_tree_latest(graph, tref, at),
                reconstruct_tree_latest(store, tref, at),
            )
        } else {
            (
                extract_tree(graph, tref, at),
                reconstruct_tree(store, tref, at),
            )
        };
        match (want, got) {
            (Some(w), Some(g)) => {
                assert_eq!(
                    w.render(),
                    g.render(),
                    "{label}: {tref}@{at}: reconstructed tree diverges from extraction"
                );
                let violations = tree_well_formedness_violations(&g);
                assert!(
                    violations.is_empty(),
                    "{label}: {tref}@{at}: reconstructed tree malformed:\n{}",
                    violations.join("\n")
                );
                checked += 1;
            }
            (None, None) => {}
            (w, g) => panic!(
                "{label}: {tref}@{at}: one backend answered, the other did not \
                 (graph: {}, annot: {})",
                w.is_some(),
                g.is_some()
            ),
        }
    }
    checked
}

/// Runs one case into both backends and cross-checks them; returns the
/// trees compared.
fn check_case(program: &Arc<Program>, ops: &[ScheduledOp], case: &str) -> usize {
    let (graph, store) = run_backends(program, ops);
    cross_check(&graph, &store, case)
}

/// Int-flavored random programs (joins, assignments, comparison
/// constraints, derived-on-derived chaining).
#[test]
fn annot_matches_graph_on_random_int_programs() {
    let mut rng = DetRng::seed_from_u64(0xA901_7D1F);
    let mut cases = 0usize;
    let mut checked = 0usize;
    while cases < 24 {
        let Some(program) = intgen::arb_program(&mut rng) else {
            continue;
        };
        let ops = intgen::schedule(&intgen::batch_ops(&mut rng));
        cases += 1;
        checked += check_case(&program, &ops, &format!("int case {cases}"));
    }
    assert!(checked > 120, "suite barely reconstructed: {checked} trees");
}

/// Prefix-flavored random programs: `prefix_contains` builtins force the
/// annotation store into report mode, and aggregation fences re-read
/// whole tables — both paths where reconstruction-by-search is impossible
/// and the body must have been recorded verbatim.
#[test]
fn annot_matches_graph_on_random_prefix_programs() {
    let mut rng = DetRng::seed_from_u64(0xA907_BEEF);
    let mut cases = 0usize;
    let mut checked = 0usize;
    while cases < 24 {
        let Some(program) = prefixgen::arb_program(&mut rng, true) else {
            continue;
        };
        let ops = prefixgen::alternating_schedule(&prefixgen::arb_ops(&mut rng, 8, 30, 4));
        cases += 1;
        checked += check_case(&program, &ops, &format!("prefix case {cases}"));
    }
    assert!(checked > 120, "suite barely reconstructed: {checked} trees");
}

/// Multi-node random programs (cross-node forwards, link delays):
/// reconstruction must pin remote triggers through the `fired_at + delay`
/// filter.
#[test]
fn annot_matches_graph_on_random_multi_node_programs() {
    let mut rng = DetRng::seed_from_u64(0xA902_54AD);
    let mut cases = 0usize;
    let mut checked = 0usize;
    while cases < 16 {
        let Some(program) = nodegen::arb_program(&mut rng) else {
            continue;
        };
        let mut ops = nodegen::topology_schedule(&mut rng);
        ops.extend(nodegen::schedule(&nodegen::arb_ops(&mut rng)));
        cases += 1;
        checked += check_case(&program, &ops, &format!("multi-node case {cases}"));
    }
    assert!(checked > 75, "suite barely reconstructed: {checked} trees");
}

/// All 9 repro scenarios (4 SDN, 4 MapReduce, campus), both the good and
/// the bad trace of each: replayed into both backends, every episode
/// cross-checked (sampled down to [`QUERY_CAP`] points on the campus
/// network).
#[test]
fn annot_matches_graph_on_all_repro_scenarios() {
    let mut scenarios = dp_sdn::all_sdn_scenarios();
    scenarios.extend(dp_mapreduce::all_mr_scenarios());
    scenarios.push(dp_sdn::campus(&dp_sdn::CampusConfig::default()).scenario);
    assert_eq!(scenarios.len(), 9, "repro corpus changed size");
    for s in &scenarios {
        for (label, exec) in [("good", &s.good_exec), ("bad", &s.bad_exec)] {
            let checked = check_case(
                &exec.program,
                &exec.log.to_schedule(),
                &format!("{} ({label})", s.name),
            );
            assert!(checked > 0, "scenario {} ({label}): no trees compared", s.name);
        }
    }
}

/// DESIGN §8's trade, at small campus scale: under route and traffic
/// churn the annotation store keeps at least 5x fewer live records than
/// the graph (its vertices plus one episode-index entry per episode and
/// extra support).
#[test]
fn annotation_store_is_5x_smaller_under_campus_churn() {
    let c = dp_sdn::campus(&dp_sdn::CampusConfig {
        bulk_entries_per_router: 9,
        background_packets: 10,
        update_churn_rounds: 4,
        ..Default::default()
    });
    assert!(c.entry_count >= 2_000, "campus too small: {}", c.entry_count);
    let exec = &c.scenario.bad_exec;
    let (graph, store) = run_backends(&exec.program, &exec.log.to_schedule());
    let tuples: BTreeSet<TupleRef> = graph
        .vertices()
        .map(|v| TupleRef::new(v.node.clone(), Arc::clone(v.tuple)))
        .collect();
    let index_records: u64 = tuples
        .iter()
        .flat_map(|t| graph.episodes(t))
        .map(|ep| 1 + ep.extra_support.len() as u64)
        .sum();
    let graph_records = graph.stats().total() + index_records;
    let annot_records = store.stats().total();
    assert!(
        graph_records >= 5 * annot_records,
        "annotation store only {:.1}x smaller ({graph_records} vs {annot_records})",
        graph_records as f64 / annot_records as f64
    );
}
