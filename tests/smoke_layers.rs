//! Tier-1 smoke test of the layers the workspace suites cover in depth:
//! one small SDN scenario (SDN1) through the engine and its reference
//! evaluator, the durable store, a restart, and UPDATETREE's
//! roll-forward against a from-scratch replay. `cargo
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

/// UPDATETREE by roll-forward, as DiffProv calls it, leaves the live
/// tuples of a from-scratch replay of the patched log, and the same tree
/// for each of them up to timestamps.
#[test]
fn roll_forward_reaches_the_from_scratch_state() {
    let s = sdn::sdn1();
    let delta = s.diagnose().unwrap().delta;
    assert_eq!(delta.len(), 1);
    let exec = &s.bad_exec;
    let trees = |r: &Replayed| -> Vec<(TupleRef, String)> {
        let live = r.engine.nodes().flat_map(|(node, state)| {
            state.all().map(move |(t, _)| TupleRef::new(*node, t.clone()))
        });
        live.map(|root| {
            let tree = r.query(&root).expect("a live tuple has a tree").render();
            let unstamped: Vec<_> = tree
                .lines()
                .map(|l| l.rsplit_once(" t=").map_or(l, |(head, _)| head))
                .collect();
            (root, unstamped.join("\n"))
        })
        .collect()
    };
    let want = trees(&exec.replay_with(&delta, 0).unwrap());
    assert!(!want.is_empty());
    let mut rolled = exec.replay().unwrap();
    rolled.roll_forward(exec, &delta, 0).unwrap();
    assert_eq!(trees(&rolled), want);
}
