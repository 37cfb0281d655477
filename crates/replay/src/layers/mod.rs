//! The layered durable base-event store.
//!
//! This is the real spill path behind the paper's storage story (Section
//! 5, Figs 5–6): the in-memory [`EventLog`] is the *open layer*; a seal
//! writes the next run of its replay order as one immutable layer file
//! ([`layer`]). Layer files are all the store holds: base events are
//! persisted, everything else is rebuilt by replay.
//!
//! ## One read: concatenation
//!
//! Each layer is named for its `first_seq`, the number of events sealed
//! before it, and holds a run of the replay order. The layers read in
//! `first_seq` order, one after another, *are* the log's replay order, so
//! the one read of the stack (`DurableStore::events`) is a concatenation:
//! no per-record sequence number, no merge. Nothing reads the store by
//! node.
//!
//! ## Recovery
//!
//! Recovery is [`DurableStore::open`] (every layer file checksum-verified
//! and validated, the layers tiling `0..n` with dues that never decrease)
//! and a replay of the stack. Replay is deterministic in replay order, so
//! the recovered stream has one identity: its digest
//! ([`Execution::recovered_stream_digest`]) equals the in-memory
//! [`Execution::stream_digest`] and the oracle's
//! [`Execution::reference_stream_digest`], and [`DurableStore::load_log`]
//! equals the sealed log event for event — `tests/store_recovery.rs`
//! holds both from the directory alone on every scenario, and the dp-sim
//! battery's durable-recovery invariant on every generated one.

pub mod layer;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dp_ndlog::{Engine, HashSink};
use dp_trace::Tracer;
use dp_types::{Error, LogicalTime, Result};

pub use self::layer::Layer;

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
    /// every layer file found there; any other file is ignored. In
    /// `first_seq` order the layers must tile the log: each starts at the
    /// number of events before it, and its first due is no earlier than
    /// its predecessor's last. A layer file missing from the middle of the
    /// stack, or present twice under two names, is a typed
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
        let (mut seq, mut due) = (0, 0);
        for l in &layers {
            let broken = |detail: String| Error::Codec {
                context: "layer stack",
                detail: format!("{}: {detail}", l.path.display()),
            };
            if l.first_seq != seq {
                return Err(broken(format!(
                    "starts at sequence number {}, but the layers before it hold {seq} events \
                     (a layer file is missing or present twice)",
                    l.first_seq
                )));
            }
            if let Some(first) = l.events.first().filter(|e| e.due < due) {
                return Err(broken(format!(
                    "starts at due {}, before its predecessor's last due {due}",
                    first.due
                )));
            }
            seq += l.events.len() as u64;
            due = l.events.last().map_or(due, |e| e.due);
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

    /// Seals `events` — the next run of the log's replay order — into one
    /// immutable layer file, named for the number of events this handle
    /// sees sealed before it. A batch whose dues decrease, or start before
    /// the stack's last due, is not such a run: that is an `Err` with
    /// nothing written. A handle behind its directory (another one sealed
    /// after it was opened) would name its layer after one the directory
    /// already holds: that too is an `Err` with nothing written, never a
    /// replaced layer.
    pub fn seal_events(&mut self, events: &[BaseEvent]) -> Result<()> {
        let Some(head) = events.first() else {
            return Ok(());
        };
        let last_due = self.events().next_back().map_or(0, |e| e.due);
        if head.due < last_due || events.windows(2).any(|w| w[1].due < w[0].due) {
            return Err(Error::Engine(format!(
                "sealing into {}: the batch is not the next run of the replay order \
                 (its dues decrease, or start before the stack's last due {last_due})",
                self.dir.display()
            )));
        }
        let span = self.tracer.span("store.seal");
        let first_seq = self.event_count();
        let path = self.dir.join(format!("layer-{first_seq:020}.dply"));
        self.layers.push(layer::write_layer(&path, first_seq, events)?);
        let sealed = events.len() as u64;
        span.end_with(|agg| {
            agg.add("store.sealed_events", sealed);
            // The size levels ride the close of every seal span, so a
            // snapshot taken mid-spill sees the store as grown so far.
            agg.set_level("store.layer_files", self.layer_count() as u64);
            agg.set_level("store.layer_bytes", self.layer_bytes());
        });
        Ok(())
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

    /// The stack in the log's replay order — its layers one after
    /// another — the one read of the stack, behind
    /// [`DurableStore::load_log`] and
    /// [`Execution::recovered_stream_digest`] alike.
    fn events(&self) -> impl DoubleEndedIterator<Item = &BaseEvent> {
        self.layers.iter().flat_map(|l| &l.events)
    }

    /// Rebuilds an in-memory [`EventLog`] from the layer stack — the
    /// sealed log, event for event in replay order.
    pub fn load_log(&self) -> EventLog {
        let mut log = EventLog::new();
        for e in self.events() {
            log.push(e.clone());
        }
        log
    }

    /// Shim for the frozen `benchmark/` (ROADMAP item 1 retires it): the
    /// store holds no checkpoints.
    pub fn latest_checkpoint(&self) -> Option<&Checkpoint> {
        None
    }

    /// Shim for the frozen `benchmark/` (ROADMAP item 1 retires it).
    pub fn checkpoint_count(&self) -> usize {
        0
    }

    /// Shim for the frozen `benchmark/` (ROADMAP item 1 retires it).
    pub fn checkpoint_bytes(&self) -> u64 {
        0
    }
}

/// Shim for the frozen `benchmark/` (ROADMAP item 1 retires it): what
/// [`DurableStore::latest_checkpoint`] would return, if it ever did.
pub struct Checkpoint {
    /// The one field `benchmark/src/probe.rs` reads.
    pub cut: LogicalTime,
}

/// Shim for the frozen `benchmark/` (ROADMAP item 1 retires it):
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

    /// Shim for the frozen `benchmark/` (ROADMAP item 1 retires it):
    /// [`Execution::spill_into`] a fresh temp store, paired with
    /// [`Execution::stream_digest`] as the digest recovery must reproduce.
    /// The argument is ignored.
    pub fn spill_temp(&self, _: usize) -> Result<(DurableStore, (u64, u64))> {
        let mut store = DurableStore::temp()?;
        self.spill_into(&mut store)?;
        Ok((store, self.stream_digest()?))
    }

    /// The recovery digest: replays the layer stack of `store` —
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
        for e in store.events() {
            e.schedule_as(&mut engine, e.due, e.op)?;
        }
        engine.run()?;
        let sink = engine.into_sink();
        span.end();
        Ok((sink.digest(), sink.count))
    }
}
