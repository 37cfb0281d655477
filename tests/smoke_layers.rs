//! Tier-1 smoke test of the layers the workspace suites cover in depth:
//! one small SDN scenario (SDN1) through the engine and its reference
//! evaluator, the durable store and a restart, and UPDATETREE of a
//! test-scale campus's slice against a from-scratch replay of the whole
//! patched log. `cargo
//! test -q` builds only the facade package, so without this file nothing
//! in Tier-1 would notice an engine, recorder, or store change going
//! wrong; the full differentials stay in `crates/*/tests` behind
//! `scripts/check.sh`.

use diffprov::replay::{DurableStore, Execution, Replayed};
use diffprov::sdn;
use diffprov::types::TupleRef;

/// SDN1's execution (its good and bad events live in the same run).
fn execution() -> Execution {
    sdn::sdn1().bad_exec
}

/// The reference evaluator's stream is the engine's, event for event.
#[test]
fn reference_paths_digest_the_default_stream() {
    let exec = execution();
    let want = exec.stream_digest().unwrap();
    assert!(want.1 > 0, "empty provenance stream");
    assert_eq!(want, exec.reference_stream_digest().unwrap());
}

/// The log spilled into sealed on-disk layers and recovered from the
/// directory alone digests the same stream as the in-memory log.
#[test]
fn disk_store_digests_the_memory_stream() {
    let exec = execution();
    let mut store = DurableStore::temp().unwrap();
    exec.spill_into(&mut store).unwrap();
    let reopened = DurableStore::open(store.dir()).unwrap();
    assert_eq!(
        exec.recovered_stream_digest(&reopened).unwrap(),
        exec.stream_digest().unwrap()
    );
}

/// The store's size on the test-scale campus (seed 7, 40 bulk entries
/// per router): the bad log spilled into layers of `LAYER_EVENTS`, its
/// bytes pinned exactly. Each layer names each name once, in its
/// dictionary, so a record is its fields and a few one-byte ids.
#[test]
fn the_campus_store_pins_its_bytes_per_event() {
    use diffprov::sdn::{campus, CampusConfig};
    let exec = campus(&CampusConfig {
        seed: 7,
        bulk_entries_per_router: 40,
        ..CampusConfig::default()
    })
    .scenario
    .bad_exec;
    let mut store = DurableStore::temp().unwrap();
    exec.spill_into(&mut store).unwrap();
    // 26.19 bytes per event.
    assert_eq!(store.event_count(), 10_066);
    assert_eq!(store.layer_count(), 3);
    assert_eq!(store.layer_bytes(), 263_595);
}

/// A restart is the process dying and the store surviving: seal up to the
/// boundary before the last packet, drop the handle, open the directory,
/// seal the rest, and recover from the directory alone — the digest is
/// the uncut run's.
#[test]
fn restart_resumes_to_the_uncut_digest() {
    let exec = execution();
    let events = exec.log.events();
    let cut = events.len() - 1;
    assert!(events[cut - 1].due < events[cut].due, "no boundary to cut at");

    let scratch = DurableStore::temp().unwrap();
    for session in [&events[..cut], &events[cut..]] {
        let mut store = DurableStore::open(scratch.dir()).unwrap();
        store.seal_events(session).unwrap();
    }
    let recovered = DurableStore::open(scratch.dir()).unwrap();
    assert_eq!(recovered.load_log().events()[..], events[..], "the log changed");
    assert_eq!(
        exec.recovered_stream_digest(&recovered).unwrap(),
        exec.stream_digest().unwrap(),
        "restarted stream diverges from the uncut run"
    );
}

/// UPDATETREE of a slice, as DiffProv calls it, equals the whole patched
/// log's replay: on the test-scale campus (whose slice holds a few dozen
/// of its ~1 500 events), the slice both packets' trees depend on, updated
/// to the diagnosis's Δ, holds only tuples the from-scratch replay of the
/// whole patched log holds, each with the same tree up to stamp ranks.
#[test]
fn update_tree_of_a_slice_equals_the_whole_patched_replay() {
    use diffprov::sdn::{campus, CampusConfig};
    use diffprov::trace::Tracer;
    let mut s = campus(&CampusConfig {
        seed: 7,
        bulk_entries_per_router: 40,
        background_packets: 100,
        ..CampusConfig::default()
    })
    .scenario;
    let report = s.diagnose().unwrap();
    assert!(report.verified, "{report}");
    let seed = report.bad_seed.expect("a verified report has seeds");
    let exec = &mut s.bad_exec;
    exec.tracer = Tracer::aggregate_only();
    let events = exec.log.events();
    let seeded = events.iter().find(|e| e.node == seed.node && e.tuple == seed.tuple);
    let at = seeded.map_or(0, |e| e.due).saturating_sub(1);
    drop(events);
    let (good, bad) = (&s.good_event.tref, &s.bad_event.tref);
    let roots = [(&good.node, &*good.tuple), (&bad.node, &*bad.tuple)];
    let mut sliced = exec.replay_slice(roots, u64::MAX).unwrap();
    let cuts = exec.tracer.aggregate().span_count("replay.slice_cut");
    sliced.update_tree(exec, &report.delta, at).unwrap();
    let agg = exec.tracer.aggregate();
    assert_eq!(agg.counter("replay.slice_refused{why=size}"), 0, "the slice holds");
    assert_eq!(agg.span_count("replay.slice_index"), 0, "the diagnosis indexed the log");
    assert_eq!(agg.span_count("replay.slice_cut"), cuts, "the held cut log was replayed");

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
    let whole = exec.replay_with(&report.delta, at).unwrap();
    let want: std::collections::BTreeMap<_, _> = trees(&whole).into_iter().collect();
    let got = trees(&sliced);
    assert!(
        !got.is_empty() && 10 * got.len() < want.len(),
        "{} of {} live tuples",
        got.len(),
        want.len()
    );
    for (root, tree) in &got {
        assert_eq!(Some(tree), want.get(root), "the tree of {root}");
    }
}
