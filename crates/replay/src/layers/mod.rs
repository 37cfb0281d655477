//! The layered durable base-event store.
//!
//! This is the real spill path behind the paper's storage story (Section
//! 5, Figs 5–6): the in-memory [`EventLog`] is the *open layer*; sealing
//! writes immutable, sorted layer files keyed by (node, due range)
//! ([`layer`]). The arrangement follows neon's pageserver layer stack: an
//! ephemeral open layer seals into immutable on-disk layers, and reads are
//! served through the merged stack. Layer files are all the store holds:
//! base events are persisted, everything else is rebuilt by replay.
//!
//! ## Exactness of read-through ordering
//!
//! The replay order is total: `(due, seq)`, where `seq` is the event's
//! position in the in-memory log's replay order, persisted with each
//! record at seal time. Layer files each hold a strictly increasing
//! `(due, seq)` run, so a k-way merge on that key across any set of
//! layers — whatever their due-range overlaps — yields exactly the one
//! global order the in-memory log would have produced. There is one such
//! merge (`DurableStore::merged`), and every read of the stack goes
//! through it.
//!
//! ## Recovery
//!
//! Recovery = [`DurableStore::open`] (every layer file checksum-verified
//! and validated, the stack's sequence numbers exactly `0..n`) + a replay
//! of the merged stack. Replay is deterministic in replay order, so the
//! recovered stream has one identity: its digest
//! ([`Execution::recovered_stream_digest`]) equals the in-memory
//! [`Execution::stream_digest`] and the oracle's
//! [`Execution::reference_stream_digest`], and [`DurableStore::load_log`]
//! equals the sealed log event for event — `tests/store_recovery.rs`
//! holds both from the directory alone on every scenario, and the dp-sim
//! battery's durable-recovery invariant on every generated one.

pub mod layer;

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dp_ndlog::{Engine, HashSink};
use dp_trace::Tracer;
use dp_types::{Error, LogicalTime, NodeId, Result};

pub use self::layer::{Layer, SeqEvent};

use crate::exec::Execution;
use crate::log::{BaseEvent, EventLog};

/// The seal threshold: events per sealed layer chunk.
pub const LAYER_EVENTS: usize = 4096;

/// An owned scratch directory under the system temp dir, removed on drop.
///
/// Directories are named `dp-store-{pid}-{n}` so stray ones from killed
/// processes are identifiable (and cleaned by `scripts/check.sh`).
#[derive(Debug)]
struct TempDir {
    path: PathBuf,
}

impl TempDir {
    fn new() -> Result<TempDir> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("dp-store-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| Error::Engine(format!("creating temp store {}: {e}", path.display())))?;
        Ok(TempDir { path })
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A layered durable store: sealed layer files in one directory.
///
/// Layers are immutable once sealed; the store only ever appends new
/// files. [`DurableStore::open`] rebuilds the whole in-memory view from
/// the directory alone — that *is* the recovery path, and every file is
/// checksum-verified eagerly so corruption surfaces as a typed
/// [`Error::Codec`](dp_types::Error::Codec) before any event replays.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    layers: Vec<Layer>,
    /// The tracer of the [`Execution`] that last spilled into this store
    /// (disabled until one does): times seals (`store.seal` spans) and
    /// carries the store's size levels.
    tracer: Tracer,
    _temp: Option<TempDir>,
}

impl DurableStore {
    /// Opens (or initializes) the store at `dir`, loading and verifying
    /// every layer file found there; any other file is ignored. The
    /// layers together must hold each sequence number `0..n` exactly
    /// once: a layer file missing from the middle of the stack, or
    /// present twice under two names, is a typed
    /// [`Error::Codec`](dp_types::Error::Codec), not a shorter or longer
    /// log.
    pub fn open(dir: &Path) -> Result<DurableStore> {
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::Engine(format!("creating store dir {}: {e}", dir.display())))?;
        let mut layers = Vec::new();
        let entries = std::fs::read_dir(dir)
            .map_err(|e| Error::Engine(format!("listing store dir {}: {e}", dir.display())))?;
        for entry in entries {
            let entry =
                entry.map_err(|e| Error::Engine(format!("listing store dir: {e}")))?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some("dply") {
                layers.push(layer::read_layer(&path)?);
            }
        }
        layers.sort_by_key(|l| l.first_seq);
        let total: usize = layers.iter().map(|l| l.events.len()).sum();
        let mut seen = vec![false; total];
        for l in &layers {
            for s in &l.events {
                let slot = usize::try_from(s.seq).ok().and_then(|seq| seen.get_mut(seq));
                if slot.is_none_or(|seen| std::mem::replace(seen, true)) {
                    return Err(Error::Codec {
                        context: "layer stack",
                        detail: format!(
                            "{} holds sequence number {}, which repeats or lies past the \
                             stack's {total} events (a layer file is missing or present twice)",
                            l.path.display(),
                            s.seq
                        ),
                    });
                }
            }
        }
        Ok(DurableStore {
            dir: dir.to_path_buf(),
            layers,
            tracer: Tracer::disabled(),
            _temp: None,
        })
    }

    /// A fresh store in an owned scratch directory, removed when the
    /// store is dropped.
    pub fn temp() -> Result<DurableStore> {
        let guard = TempDir::new()?;
        let mut store = DurableStore::open(&guard.path)?;
        store._temp = Some(guard);
        Ok(store)
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Seals `events` — the next run of the log's replay order — into
    /// immutable layer files, one per node touched. Returns the number of
    /// files written. Events receive consecutive global sequence numbers
    /// continuing from the stack this handle sees. A handle behind its
    /// directory (another one sealed after it was opened) would number a
    /// seal the directory already holds: that is an `Err` with nothing
    /// written, never a replaced layer.
    pub fn seal_events(&mut self, events: &[BaseEvent]) -> Result<usize> {
        if events.is_empty() {
            return Ok(0);
        }
        let span = self.tracer.span("store.seal");
        // The stack holds sequence numbers `0..n` exactly, so the next is n.
        let base = self.event_count();
        let mut by_node: BTreeMap<NodeId, Vec<SeqEvent>> = BTreeMap::new();
        for (i, e) in events.iter().enumerate() {
            by_node.entry(e.node).or_default().push(SeqEvent {
                seq: base + i as u64,
                event: e.clone(),
            });
        }
        let files = by_node.len();
        // The file named for `base` goes first: a handle behind its
        // directory collides on that one, before it has written any other.
        let lead = by_node.remove_entry(&events[0].node);
        for (node, evs) in lead.into_iter().chain(by_node) {
            let path = self.dir.join(format!("layer-{:020}.dply", evs[0].seq));
            self.layers.push(layer::write_layer(&path, &node, &evs)?);
        }
        self.layers.sort_by_key(|l| l.first_seq);
        let sealed = events.len() as u64;
        span.end_with(|agg| {
            agg.add("store.sealed_events", sealed);
            // The size levels ride the close of every seal span, so a
            // snapshot taken mid-spill sees the store as grown so far.
            agg.set_level("store.layer_files", self.layer_count() as u64);
            agg.set_level("store.layer_bytes", self.layer_bytes());
        });
        Ok(files)
    }

    /// Number of sealed layer files.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Total events across all sealed layers.
    pub fn event_count(&self) -> u64 {
        self.layers.iter().map(|l| l.events.len() as u64).sum()
    }

    /// Real on-disk bytes across all sealed layer files.
    pub fn layer_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.file_bytes).sum()
    }

    /// Real on-disk bytes of the whole store: layer files are all it
    /// holds.
    pub fn total_bytes(&self) -> u64 {
        self.layer_bytes()
    }

    /// The merged layer stack in the global replay order — the one read
    /// of the stack, behind [`DurableStore::load_log`] and
    /// [`Execution::recovered_stream_digest`] alike.
    fn merged(&self) -> impl Iterator<Item = &BaseEvent> {
        // Each layer is a strictly increasing (due, seq) run, so a heap
        // seeded with every layer's first event and advanced one record
        // at a time yields the unique global order.
        let mut pos = vec![0usize; self.layers.len()];
        let key = |s: &SeqEvent, li: usize| Reverse((s.event.due, s.seq, li));
        let mut heap: BinaryHeap<Reverse<(LogicalTime, u64, usize)>> = self
            .layers
            .iter()
            .enumerate()
            .filter_map(|(li, l)| Some(key(l.events.first()?, li)))
            .collect();
        std::iter::from_fn(move || {
            let Reverse((_, _, li)) = heap.pop()?;
            let events = &self.layers[li].events;
            let s = &events[pos[li]];
            pos[li] += 1;
            if let Some(next) = events.get(pos[li]) {
                heap.push(key(next, li));
            }
            Some(&s.event)
        })
    }

    /// Rebuilds an in-memory [`EventLog`] from the merged layer stack —
    /// the sealed log, event for event in replay order.
    pub fn load_log(&self) -> EventLog {
        let mut log = EventLog::new();
        for e in self.merged() {
            log.push(e.clone());
        }
        log
    }

    /// Shim for the frozen `benchmark/` (ROADMAP item 7 retires it): the
    /// store holds no checkpoints.
    pub fn latest_checkpoint(&self) -> Option<&Checkpoint> {
        None
    }

    /// Shim for the frozen `benchmark/` (ROADMAP item 7 retires it).
    pub fn checkpoint_count(&self) -> usize {
        0
    }

    /// Shim for the frozen `benchmark/` (ROADMAP item 7 retires it).
    pub fn checkpoint_bytes(&self) -> u64 {
        0
    }
}

/// Shim for the frozen `benchmark/` (ROADMAP item 7 retires it): what
/// [`DurableStore::latest_checkpoint`] would return, if it ever did.
pub struct Checkpoint {
    /// The one field `benchmark/src/probe.rs` reads.
    pub cut: LogicalTime,
}

/// Shim for the frozen `benchmark/` (ROADMAP item 7 retires it):
/// [`LAYER_EVENTS`].
pub fn default_layer_events() -> usize {
    LAYER_EVENTS
}

impl Execution {
    /// Seals this execution's entire log into `store`, in chunks of
    /// [`LAYER_EVENTS`], reporting on this execution's tracer.
    pub fn spill_into(&self, store: &mut DurableStore) -> Result<()> {
        store.tracer = self.tracer.clone();
        for chunk in self.log.events().chunks(LAYER_EVENTS) {
            store.seal_events(chunk)?;
        }
        Ok(())
    }

    /// Shim for the frozen `benchmark/` (ROADMAP item 7 retires it):
    /// [`Execution::spill_into`] a fresh temp store, paired with
    /// [`Execution::stream_digest`] as the digest recovery must reproduce.
    /// The argument is ignored.
    pub fn spill_temp(&self, _: usize) -> Result<(DurableStore, (u64, u64))> {
        let mut store = DurableStore::temp()?;
        self.spill_into(&mut store)?;
        Ok((store, self.stream_digest()?))
    }

    /// The recovery digest: replays the merged layer stack of `store` —
    /// this execution contributes the program and the tracer, not its log
    /// — and returns the `(digest, count)` of the provenance stream.
    ///
    /// This is the crash-recovery proof obligation: for a store the log
    /// was sealed into, the result is bit-identical to
    /// [`Execution::stream_digest`].
    pub fn recovered_stream_digest(&self, store: &DurableStore) -> Result<(u64, u64)> {
        let span = self.tracer.span("store.recovery");
        let mut engine = Engine::new(Arc::clone(&self.program), HashSink::default());
        self.configure(&mut engine);
        for e in store.merged() {
            e.schedule_as(&mut engine, e.due, e.op)?;
        }
        engine.run()?;
        let sink = engine.into_sink();
        span.end();
        Ok((sink.digest(), sink.count))
    }
}
