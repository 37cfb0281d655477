//! The layered durable base-event/checkpoint store.
//!
//! This is the real spill path behind the paper's storage story (Section
//! 5, Figs 5–6): the in-memory [`EventLog`] is the *open layer*; sealing
//! writes immutable, sorted layer files keyed by (node, due range)
//! ([`layer`]), and durable checkpoints pair an [`EngineSnapshot`] with
//! the resumable provenance-stream digest at their cut ([`checkpoint`]).
//! The arrangement follows neon's pageserver layer stack: an ephemeral
//! open layer seals into immutable on-disk layers, and reads are served
//! through the merged stack.
//!
//! ## Exactness of read-through ordering
//!
//! The replay order is total: `(due, seq)`, where `seq` is the event's
//! position in the in-memory log's replay order, persisted with each
//! record at seal time. Layer files each hold a strictly increasing
//! `(due, seq)` run, so a k-way merge on that key across any set of
//! layers — whatever their due-range overlaps — yields exactly the one
//! global order the in-memory log would have produced. Replay is
//! deterministic in that order, so every replay served through the layer
//! stack is bit-identical to an in-memory replay: the differential suite
//! runs with `DP_STORE=disk` to prove it.
//!
//! ## Recovery
//!
//! Recovery = newest durable checkpoint + the on-disk tail (`due > cut`)
//! through the existing deterministic machinery. The checkpoint carries
//! the [`HashSink`] fold state at its cut, so the recovered stream digest
//! continues the fold and must equal the digest of an uninterrupted
//! in-memory run — the bit-identity proof lives in
//! `tests/store_recovery.rs` and the dp-sim battery's durable-recovery
//! invariant.
//!
//! ## Knobs
//!
//! * `DP_STORE=mem|disk` — default backing for every replay an
//!   [`Execution`] performs ([`StoreMode::default_from_env`]).
//! * `DP_LAYER_EVENTS=n` — seal threshold: events per sealed layer chunk
//!   (default 4096).

pub mod checkpoint;
pub mod layer;

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dp_ndlog::{Engine, EngineSnapshot, HashSink, ProvenanceSink};
use dp_trace::{Class, Tracer};
use dp_types::{Error, LogicalTime, NodeId, Result};

pub use self::checkpoint::DurableCheckpoint;
pub use self::layer::{Layer, SeqEvent};

use crate::exec::{Execution, Replayed};
use crate::log::{BaseEvent, EventLog};

/// Where an execution's replays read their base events from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StoreMode {
    /// Schedule straight from the in-memory [`EventLog`].
    #[default]
    Mem,
    /// Round-trip every replay through a tempdir-backed [`DurableStore`]:
    /// the log is sealed into layer files and the engine is fed from the
    /// merged on-disk read path. Slower, but every replay then exercises
    /// the codec, the seal path, and the layer-stack merge.
    Disk,
}

impl StoreMode {
    /// The process-wide default: the `DP_STORE` environment variable
    /// (`mem` or `disk`), read once, defaulting to [`StoreMode::Mem`].
    pub fn default_from_env() -> StoreMode {
        static MODE: std::sync::OnceLock<StoreMode> = std::sync::OnceLock::new();
        *MODE.get_or_init(|| match std::env::var("DP_STORE").as_deref() {
            Ok("disk") => StoreMode::Disk,
            _ => StoreMode::Mem,
        })
    }
}

/// The seal threshold: events per sealed layer chunk. `DP_LAYER_EVENTS`,
/// read once; defaults to 4096, floored at 1.
pub fn default_layer_events() -> usize {
    static N: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("DP_LAYER_EVENTS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map_or(4096, |n| n.max(1))
    })
}

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

/// A layered durable store: sealed layer files plus durable checkpoints
/// in one directory.
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
    checkpoints: Vec<DurableCheckpoint>,
    next_seq: u64,
    /// The tracer of the [`Execution`] that last spilled into this store
    /// (disabled until one does): times seals and checkpoint writes
    /// (`store.*` spans, all `Class::Effort` — where the log lives is
    /// configuration, not program) and carries the store's size levels.
    tracer: Tracer,
    _temp: Option<TempDir>,
}

impl DurableStore {
    /// Opens (or initializes) the store at `dir`, loading and verifying
    /// every layer and checkpoint file found there.
    pub fn open(dir: &Path) -> Result<DurableStore> {
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::Engine(format!("creating store dir {}: {e}", dir.display())))?;
        let mut layers = Vec::new();
        let mut checkpoints = Vec::new();
        let entries = std::fs::read_dir(dir)
            .map_err(|e| Error::Engine(format!("listing store dir {}: {e}", dir.display())))?;
        for entry in entries {
            let entry =
                entry.map_err(|e| Error::Engine(format!("listing store dir: {e}")))?;
            let path = entry.path();
            match path.extension().and_then(|e| e.to_str()) {
                Some("dply") => layers.push(layer::read_layer(&path)?),
                Some("dpck") => checkpoints.push(checkpoint::read_checkpoint(&path)?),
                _ => {}
            }
        }
        layers.sort_by_key(|l| l.first_seq);
        checkpoints.sort_by_key(|c| c.cut);
        let next_seq = layers
            .iter()
            .flat_map(|l| l.events.iter().map(|s| s.seq))
            .max()
            .map_or(0, |s| s + 1);
        Ok(DurableStore {
            dir: dir.to_path_buf(),
            layers,
            checkpoints,
            next_seq,
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
    /// continuing from the previous seal.
    pub fn seal_events(&mut self, events: &[BaseEvent]) -> Result<usize> {
        if events.is_empty() {
            return Ok(0);
        }
        let span = self.tracer.span("store.seal", Class::Effort, None);
        let base = self.next_seq;
        let mut by_node: BTreeMap<NodeId, Vec<SeqEvent>> = BTreeMap::new();
        for (i, e) in events.iter().enumerate() {
            by_node.entry(e.node.clone()).or_default().push(SeqEvent {
                seq: base + i as u64,
                event: e.clone(),
            });
        }
        let files = by_node.len();
        for (node, evs) in by_node {
            let path = self.dir.join(format!("layer-{:020}.dply", evs[0].seq));
            self.layers.push(layer::write_layer(&path, &node, &evs)?);
        }
        self.layers.sort_by_key(|l| l.first_seq);
        self.next_seq = base + events.len() as u64;
        let sealed = events.len() as u64;
        span.end_with(None, &[("events", sealed), ("files", files as u64)], |agg| {
            agg.add("store.sealed_events", sealed);
            self.observe_sizes(agg);
        });
        Ok(files)
    }

    /// Writes a durable checkpoint file and registers it with the store.
    pub fn add_checkpoint(
        &mut self,
        cut: LogicalTime,
        digest: u64,
        count: u64,
        snapshot: EngineSnapshot,
    ) -> Result<()> {
        let mut cp = DurableCheckpoint {
            cut,
            digest,
            count,
            snapshot,
            file_bytes: 0,
        };
        let span = self.tracer.span("store.checkpoint", Class::Effort, None);
        let path = self.dir.join(checkpoint::checkpoint_file_name(cut));
        cp.file_bytes = checkpoint::write_checkpoint(&path, &cp)?;
        self.checkpoints.push(cp);
        self.checkpoints.sort_by_key(|c| c.cut);
        span.end_with(Some(cut), &[], |agg| self.observe_sizes(agg));
        Ok(())
    }

    /// Sets the store's size levels — file counts and on-disk bytes of
    /// the store this tracer touched last. Rides the close of every seal
    /// and checkpoint span, so a scrape mid-spill watches the store grow.
    fn observe_sizes(&self, agg: &mut dp_trace::Aggregate) {
        agg.set_level("store.layer_files", self.layer_count() as u64);
        agg.set_level("store.layer_bytes", self.layer_bytes());
        agg.set_level("store.checkpoint_files", self.checkpoint_count() as u64);
        agg.set_level("store.checkpoint_bytes", self.checkpoint_bytes());
    }

    /// The newest durable checkpoint, if any.
    pub fn latest_checkpoint(&self) -> Option<&DurableCheckpoint> {
        self.checkpoints.last()
    }

    /// The newest durable checkpoint with `cut <= t` (the same inclusive
    /// boundary as [`crate::CheckpointStore::latest_at_or_before`]).
    pub fn latest_checkpoint_at_or_before(&self, t: LogicalTime) -> Option<&DurableCheckpoint> {
        self.checkpoints.iter().rev().find(|c| c.cut <= t)
    }

    /// Number of sealed layer files.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Number of durable checkpoints.
    pub fn checkpoint_count(&self) -> usize {
        self.checkpoints.len()
    }

    /// Total events across all sealed layers.
    pub fn event_count(&self) -> u64 {
        self.layers.iter().map(|l| l.events.len() as u64).sum()
    }

    /// Real on-disk bytes across all sealed layer files.
    pub fn layer_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.file_bytes).sum()
    }

    /// Real on-disk bytes across all checkpoint files.
    pub fn checkpoint_bytes(&self) -> u64 {
        self.checkpoints.iter().map(|c| c.file_bytes).sum()
    }

    /// Real on-disk bytes of the whole store.
    pub fn total_bytes(&self) -> u64 {
        self.layer_bytes() + self.checkpoint_bytes()
    }

    /// Schedules the merged layer stack into an engine, restoring the
    /// global replay order with a k-way merge on `(due, seq)`. Only
    /// events with `due > after` (if given) and `due <= until` (if given)
    /// are scheduled. Returns how many were.
    pub fn schedule_into<S: ProvenanceSink>(
        &self,
        engine: &mut Engine<S>,
        after: Option<LogicalTime>,
        until: Option<LogicalTime>,
    ) -> Result<u64> {
        // Each layer is a strictly increasing (due, seq) run, so a heap
        // seeded with every layer's first in-range event and advanced one
        // record at a time yields the unique global order.
        let mut pos: Vec<usize> = Vec::with_capacity(self.layers.len());
        let mut heap: BinaryHeap<Reverse<(LogicalTime, u64, usize)>> = BinaryHeap::new();
        for (li, l) in self.layers.iter().enumerate() {
            let start = match after {
                Some(cut) => l.events.partition_point(|s| s.event.due <= cut),
                None => 0,
            };
            pos.push(start);
            if let Some(s) = l.events.get(start) {
                heap.push(Reverse((s.event.due, s.seq, li)));
            }
        }
        let mut scheduled = 0u64;
        while let Some(Reverse((due, _seq, li))) = heap.pop() {
            if let Some(t) = until {
                if due > t {
                    break;
                }
            }
            let s = &self.layers[li].events[pos[li]];
            s.event.schedule_as(engine, s.event.due, s.event.op)?;
            scheduled += 1;
            pos[li] += 1;
            if let Some(next) = self.layers[li].events.get(pos[li]) {
                heap.push(Reverse((next.event.due, next.seq, li)));
            }
        }
        Ok(scheduled)
    }

    /// Rebuilds an in-memory [`EventLog`] from the merged layer stack —
    /// the full-recovery path for tooling that needs a mutable log again
    /// (the aged cut is floored at the newest checkpoint's cut).
    pub fn load_log(&self) -> EventLog {
        let mut merged: Vec<&SeqEvent> = self.layers.iter().flat_map(|l| &l.events).collect();
        merged.sort_by_key(|s| (s.event.due, s.seq));
        let mut log = EventLog::new();
        for s in merged {
            log.push(s.event.clone());
        }
        if let Some(cp) = self.latest_checkpoint() {
            // Nothing below the checkpoint cut is ever dropped from the
            // layers, but the horizon floor must survive recovery too.
            if log.is_empty() {
                log.retain_after(cp.cut);
            }
        }
        log
    }
}

impl Execution {
    /// Seals this execution's entire log into `store` (chunks of
    /// [`default_layer_events`]) and, when `checkpoint_every > 0`, writes
    /// durable checkpoints every `checkpoint_every` base events — each
    /// carrying the engine snapshot *and* the provenance-stream digest at
    /// its cut, captured by a single checkpointing reference replay.
    ///
    /// Only **closed** checkpoint intervals are durably cut; the newest
    /// interval is still open when the process dies, so it is the tail —
    /// sealed in the layers but folded past the last checkpoint without a
    /// snapshot, exactly as the live process would have kept running.
    ///
    /// Returns the reference `(digest, count)`: the stream digest of this
    /// checkpointing process having run the whole log, crash-free. The
    /// engine's provenance stream depends on where snapshot cuts quiesce
    /// the cascade (a cut drains in-flight derived work that an uncut run
    /// would interleave with later base events), so *this* is the digest
    /// recovery must reproduce bit-for-bit; with `checkpoint_every == 0`
    /// no cuts are taken and the reference equals
    /// [`Execution::stream_digest`].
    pub fn spill_into(
        &self,
        store: &mut DurableStore,
        checkpoint_every: usize,
    ) -> Result<(u64, u64)> {
        store.tracer = self.tracer.clone();
        let events = self.log.events();
        for chunk in events.chunks(default_layer_events()) {
            store.seal_events(chunk)?;
        }
        let mut engine = Engine::new(Arc::clone(&self.program), HashSink::default());
        self.configure(&mut engine);
        let mut i = 0;
        if let Some(every) = std::num::NonZeroUsize::new(checkpoint_every) {
            while i < events.len() {
                let end = crate::exec::chunk_end(&events, i, every);
                if end == events.len() {
                    break; // the newest interval is still open: tail, not a cut
                }
                for e in &events[i..end] {
                    e.schedule_as(&mut engine, e.due, e.op)?;
                }
                engine.run()?;
                store.add_checkpoint(
                    events[end - 1].due,
                    engine.sink().digest(),
                    engine.sink().count,
                    engine.snapshot()?,
                )?;
                i = end;
            }
        }
        for e in &events[i..] {
            e.schedule_as(&mut engine, e.due, e.op)?;
        }
        engine.run()?;
        let sink = engine.into_sink();
        Ok((sink.digest(), sink.count))
    }

    /// [`Execution::spill_into`] against a fresh tempdir-backed store.
    /// Returns the store and the crash-free reference `(digest, count)`.
    pub fn spill_temp(&self, checkpoint_every: usize) -> Result<(DurableStore, (u64, u64))> {
        let mut store = DurableStore::temp()?;
        let reference = self.spill_into(&mut store, checkpoint_every)?;
        Ok((store, reference))
    }

    /// The recovery digest: restores the newest durable checkpoint (with
    /// its resumable digest state), replays the on-disk tail, and returns
    /// the final `(digest, count)` of the provenance stream.
    ///
    /// This is the crash-recovery proof obligation: the result must be
    /// bit-identical to the crash-free reference digest
    /// [`Execution::spill_into`] returned — the stream the same
    /// checkpointing process produces when it is never killed. With no
    /// durable checkpoints the whole layer stack replays from scratch and
    /// the reference is [`Execution::stream_digest`] itself.
    pub fn recovered_stream_digest(&self, store: &DurableStore) -> Result<(u64, u64)> {
        let span = self.tracer.span("store.recovery", Class::Effort, None);
        let mut engine = match store.latest_checkpoint() {
            Some(cp) => {
                let mut engine = Engine::restore(
                    Arc::clone(&self.program),
                    cp.snapshot.clone(),
                    HashSink::resume(cp.digest, cp.count),
                )?;
                self.configure(&mut engine);
                store.schedule_into(&mut engine, Some(cp.cut), None)?;
                engine
            }
            None => {
                let mut engine = Engine::new(Arc::clone(&self.program), HashSink::default());
                self.configure(&mut engine);
                store.schedule_into(&mut engine, None, None)?;
                engine
            }
        };
        engine.run()?;
        let sink = engine.into_sink();
        span.end(None, &[("events", sink.count)]);
        Ok((sink.digest(), sink.count))
    }

    /// Replays from the durable store for provenance queries at `from`:
    /// newest checkpoint with `cut <= from` plus the on-disk tail. The
    /// recorded provenance covers the tail only, exactly like
    /// [`Execution::replay_from_checkpoint`].
    pub fn replay_from_durable(
        &self,
        store: &DurableStore,
        from: LogicalTime,
    ) -> Result<Replayed> {
        let mut engine = match store.latest_checkpoint_at_or_before(from) {
            Some(cp) => {
                let mut engine = Engine::restore(
                    Arc::clone(&self.program),
                    cp.snapshot.clone(),
                    self.recorder(),
                )?;
                self.configure(&mut engine);
                store.schedule_into(&mut engine, Some(cp.cut), None)?;
                engine
            }
            None => {
                let mut engine = Engine::new(Arc::clone(&self.program), self.recorder());
                self.configure(&mut engine);
                store.schedule_into(&mut engine, None, None)?;
                engine
            }
        };
        engine.run()?;
        Ok(Replayed::new(engine))
    }

    /// Schedules this execution's base events into `engine`, honoring the
    /// execution's [`StoreMode`]: straight from memory, or round-tripped
    /// through a tempdir-backed durable store so the codec, seal path,
    /// and layer-stack merge sit on every replay's read path.
    pub(crate) fn schedule_log<S: ProvenanceSink>(
        &self,
        engine: &mut Engine<S>,
        until: Option<LogicalTime>,
    ) -> Result<()> {
        match self.store_mode {
            StoreMode::Mem => self.log.schedule_into(engine, until),
            StoreMode::Disk => {
                let mut store = DurableStore::temp()?;
                store.tracer = self.tracer.clone();
                let events = self.log.events();
                for chunk in events.chunks(default_layer_events()) {
                    store.seal_events(chunk)?;
                }
                store.schedule_into(engine, None, until)?;
                Ok(())
            }
        }
    }
}
