//! Crash-recovery proofs for the durable layered store.
//!
//! The central obligation: seal an execution's log into on-disk layers
//! plus durable checkpoints, "kill" the process (forget all in-memory
//! state), reopen the store from its directory alone, restore the newest
//! checkpoint and replay the on-disk tail — the resulting provenance
//! stream digest must be **bit-identical** to the crash-free run of the
//! same checkpointing process. (Snapshot cuts quiesce the derived
//! cascade, so the checkpointing process's stream is the well-defined
//! recovery reference; without checkpoints the layer stack must reproduce
//! the uncut `stream_digest` exactly.) Corruption of any store file must
//! surface as a typed `Error::Codec`, never a panic.

use std::sync::Arc;

use dp_ndlog::Program;
use dp_replay::{DurableStore, Execution, ProvBackend, StoreMode};
use dp_types::{tuple, DetRng, Error, FieldType, NodeId, Schema, SchemaRegistry, TableKind, TupleRef};

fn program() -> Arc<Program> {
    let mut reg = SchemaRegistry::new();
    reg.declare(Schema::new("in", TableKind::ImmutableBase, [("x", FieldType::Int)]));
    reg.declare(Schema::new("cfg", TableKind::MutableBase, [("k", FieldType::Int)]));
    reg.declare(Schema::new("out", TableKind::Derived, [("x", FieldType::Int)]));
    Program::builder(reg)
        .rules_text("r out(@N, Y) :- in(@N, X), cfg(@N, K), Y := X + K.")
        .unwrap()
        .build()
        .unwrap()
}

/// A multi-node execution with out-of-order ingest, duplicate due times,
/// and a config flip — enough structure that any ordering or boundary
/// mistake in the layer merge changes the digest.
fn execution(seed: u64) -> Execution {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut exec = Execution::new(program());
    exec.store_mode = StoreMode::Mem;
    let nodes = ["n1", "n2", "n3"];
    for n in nodes {
        exec.log.insert(0, n, tuple!("cfg", 10));
    }
    for i in 0..60i64 {
        let due = rng.gen_range_u64(1, 40);
        let node = nodes[rng.gen_range_usize(0, nodes.len())];
        exec.log.insert(due, node, tuple!("in", i));
    }
    // A mid-stream config change on one node.
    exec.log.delete(20, "n2", tuple!("cfg", 10));
    exec.log.insert(20, "n2", tuple!("cfg", 100));
    exec
}

/// Recovery is bit-identical: newest durable checkpoint + on-disk tail
/// reproduces the crash-free checkpointing run's stream digest — and the
/// tail is genuinely replayed, not vacuously empty.
#[test]
fn recovery_digest_is_bit_identical() {
    let exec = execution(0xD15C_0001);
    let (store, reference) = exec.spill_temp(16).unwrap();
    assert!(store.checkpoint_count() >= 2, "fixture must span checkpoints");
    assert!(store.layer_count() >= 3, "fixture must span layer files");
    let latest = store.latest_checkpoint().unwrap();
    assert!(
        latest.count < reference.1,
        "fixture must leave a non-empty tail past the last checkpoint"
    );
    // "Kill": reopen from the directory alone, with no in-memory state.
    let recovered = DurableStore::open(store.dir()).unwrap();
    assert_eq!(recovered.event_count(), exec.log.len() as u64);
    let digest = exec.recovered_stream_digest(&recovered).unwrap();
    assert_eq!(
        digest, reference,
        "recovery digest diverged from the crash-free run"
    );
}

/// Without any checkpoint, recovery replays the whole layer stack from
/// scratch — and still lands on the same digest.
#[test]
fn recovery_without_checkpoints_replays_everything() {
    let exec = execution(0xD15C_0002);
    let uncut = exec.stream_digest().unwrap();
    let (store, reference) = exec.spill_temp(0).unwrap();
    assert_eq!(store.checkpoint_count(), 0);
    assert_eq!(reference, uncut, "no cuts: the reference is the uncut run");
    let recovered = DurableStore::open(store.dir()).unwrap();
    assert_eq!(exec.recovered_stream_digest(&recovered).unwrap(), uncut);
}

/// `DP_STORE=disk` semantics: a replay routed through the sealed layer
/// stack answers queries identically to the in-memory path.
#[test]
fn disk_mode_replay_is_observably_identical() {
    let mut mem = execution(0xD15C_0003);
    mem.provenance_backend = ProvBackend::Graph;
    let mut disk = execution(0xD15C_0003);
    disk.provenance_backend = ProvBackend::Graph;
    disk.store_mode = StoreMode::Disk;
    assert_eq!(disk.stream_digest().unwrap(), mem.stream_digest().unwrap());
    let m = mem.replay().unwrap();
    let d = disk.replay().unwrap();
    assert_eq!(m.now(), d.now());
    assert_eq!(m.graph().len(), d.graph().len());
    let n = NodeId::new("n2");
    let root = TupleRef::new(n, tuple!("out", 100));
    assert_eq!(
        m.query(&root).map(|t| t.render()),
        d.query(&root).map(|t| t.render())
    );
}

/// Durable replay-from-checkpoint mirrors the in-memory checkpoint path:
/// state is complete, recorded provenance covers only the tail.
#[test]
fn replay_from_durable_matches_replay_from_checkpoint() {
    let mut exec = execution(0xD15C_0004);
    exec.provenance_backend = ProvBackend::Graph;
    let (store, _) = exec.spill_temp(16).unwrap();
    let mem_store = exec.build_checkpoints(16).unwrap();
    let full = exec.replay().unwrap();
    let from = exec.log.horizon();
    let durable = exec.replay_from_durable(&store, from).unwrap();
    let fast = exec.replay_from_checkpoint(&mem_store, from).unwrap();
    assert_eq!(durable.now(), fast.now());
    assert_eq!(durable.now(), full.now());
    for n in ["n1", "n2", "n3"].map(NodeId::new) {
        for x in [10i64, 11, 20, 100, 110] {
            assert_eq!(
                durable.exists(&n, &tuple!("out", x)),
                full.exists(&n, &tuple!("out", x)),
                "state diverged at {n:?} out({x})"
            );
        }
    }
}

/// Every byte of every store file is covered by the checksum: flipping
/// any single bit makes `open` fail with a typed codec error — no panic,
/// no silent misread.
#[test]
fn corrupted_store_files_fail_closed_with_typed_errors() {
    let exec = execution(0xD15C_0005);
    let (store, reference) = exec.spill_temp(16).unwrap();
    let dir = store.dir().to_path_buf();
    let mut rng = DetRng::seed_from_u64(0xD15C_0006);
    for ext in ["dply", "dpck"] {
        let path = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| p.extension().and_then(|e| e.to_str()) == Some(ext))
            .unwrap_or_else(|| panic!("store has no .{ext} file"));
        let clean = std::fs::read(&path).unwrap();
        // Bit flips at random offsets, plus truncation.
        for _ in 0..16 {
            let mut bad = clean.clone();
            let byte = rng.gen_range_usize(0, bad.len());
            bad[byte] ^= 1 << rng.gen_range_u32(0, 8);
            std::fs::write(&path, &bad).unwrap();
            match DurableStore::open(&dir) {
                Err(Error::Codec { .. }) => {}
                Err(other) => panic!("corrupt .{ext}: expected codec error, got {other}"),
                Ok(_) => panic!("corrupt .{ext} opened cleanly"),
            }
        }
        let truncated = &clean[..clean.len() / 2];
        std::fs::write(&path, truncated).unwrap();
        assert!(
            matches!(DurableStore::open(&dir), Err(Error::Codec { .. })),
            "truncated .{ext} must be a typed codec error"
        );
        std::fs::write(&path, &clean).unwrap();
    }
    // Restored bytes open and recover cleanly again.
    let reopened = DurableStore::open(&dir).unwrap();
    assert_eq!(exec.recovered_stream_digest(&reopened).unwrap(), reference);
}

/// The rebuilt in-memory log from the layer stack replays identically to
/// the original log — full recovery of the mutable open layer.
#[test]
fn loaded_log_round_trips_through_the_layer_stack() {
    let exec = execution(0xD15C_0007);
    let (store, _) = exec.spill_temp(0).unwrap();
    let mut recovered = Execution::new(program());
    recovered.store_mode = StoreMode::Mem;
    recovered.log = store.load_log();
    assert_eq!(recovered.log.len(), exec.log.len());
    assert_eq!(recovered.log.horizon(), exec.log.horizon());
    assert_eq!(
        recovered.stream_digest().unwrap(),
        exec.stream_digest().unwrap()
    );
}
