//! Tier-1 smoke test of the layers the workspace suites cover in depth:
//! one small SDN scenario (SDN1) through the engine and its reference
//! evaluator, both provenance backends, both stores, and a restart. `cargo
//! test -q` builds only the facade package, so without this file nothing
//! in Tier-1 would notice an engine, recorder, or store change going
//! wrong; the full differentials stay in `crates/*/tests` behind
//! `scripts/check.sh`.

use std::sync::Arc;

use diffprov::ndlog::{Engine, HashSink};
use diffprov::replay::{BaseOp, Execution, ProvBackend, StoreMode};
use diffprov::sdn;

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

/// Reconstructed (annotation) trees render exactly like extracted
/// (graph) ones, for the good and the bad event.
#[test]
fn annot_trees_render_like_graph_trees() {
    let s = sdn::sdn1();
    for (side, exec, event) in [
        ("good", &s.good_exec, &s.good_event),
        ("bad", &s.bad_exec, &s.bad_event),
    ] {
        let render = |backend: ProvBackend| {
            let mut e = exec.clone();
            e.provenance_backend = backend;
            let tree = e.replay().unwrap().query_at(&event.tref, event.at);
            tree.unwrap_or_else(|| panic!("{side}: event has no tree")).render()
        };
        assert_eq!(render(ProvBackend::Graph), render(ProvBackend::Annot), "{side}");
    }
}

/// A replay routed through sealed on-disk layers (`DP_STORE=disk`) digests
/// the same stream as the in-memory log.
#[test]
fn disk_store_digests_the_memory_stream() {
    let mut mem = execution();
    mem.store_mode = StoreMode::Mem;
    let mut disk = execution();
    disk.store_mode = StoreMode::Disk;
    assert_eq!(mem.stream_digest().unwrap(), disk.stream_digest().unwrap());
}

/// Snapshot at the quiescent boundary before the last packet, restore,
/// resume: the folded digest equals the uncut run's.
#[test]
fn restart_resumes_to_the_uncut_digest() {
    let exec = execution();
    let events = exec.log.events();
    let cut = events[events.len() - 2].due;
    assert!(cut < events[events.len() - 1].due, "no boundary to cut at");

    let mut eng = Engine::new(Arc::clone(&exec.program), HashSink::default());
    exec.log.schedule_into(&mut eng, Some(cut)).unwrap();
    eng.run().unwrap();
    let snap = eng.snapshot().unwrap();
    let prefix = eng.into_sink();
    assert!(prefix.count > 0, "nothing ran before the cut");

    let mut eng = Engine::restore(
        Arc::clone(&exec.program),
        snap,
        HashSink::resume(prefix.digest(), prefix.count),
    )
    .unwrap();
    for e in events.iter().filter(|e| e.due > cut) {
        match e.op {
            BaseOp::Insert => eng.schedule_insert(e.due, e.node.clone(), e.tuple.clone()),
            BaseOp::Delete => eng.schedule_delete(e.due, e.node.clone(), e.tuple.clone()),
        }
        .unwrap();
    }
    eng.run().unwrap();
    let resumed = eng.into_sink();
    assert_eq!(
        exec.stream_digest().unwrap(),
        (resumed.digest(), resumed.count),
        "restarted stream diverges from the uncut run"
    );
}
