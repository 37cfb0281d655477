//! The base-event log.
//!
//! Following the paper's "query-time based approach" (Section 5), the
//! logging engine writes down **base events only** — external inputs and
//! configuration changes — and the replay engine reconstructs all
//! derivations (and hence the provenance graph) deterministically at query
//! time. This favors runtime performance: diagnostic queries take longer,
//! but they are rare.
//!
//! A log's events exist once per process. The log is one `Arc` over its
//! state, so a clone — the good and bad executions of one run, a tool's
//! copy of an execution, the log a store hands out
//! ([`crate::DurableStore::load_log`]) — is a reference count, and a
//! clone that appends copies the events first and leaves its source as
//! it was. An event holds its tuple behind an `Arc` too, and everything
//! downstream — a patched log, the schedule handed to an engine or to the
//! reference evaluator, the engine's tables, indexes and provenance
//! events — takes that handle, not a copy: a logged base tuple is one
//! allocation per event, per process. The engine holds it as it is, with
//! no interner lookup; equal tuples logged by separate events stay
//! separate allocations, and are compared by content where they meet.
//!
//! Appends are O(1): the log buffers arrivals in arrival order and
//! restores the replay order — stable sort by `due`, arrival order within
//! a due — lazily, either in place ([`EventLog::normalize`]) or in the
//! sorted copy a read of a still-dirty log returns. The naive
//! alternative (binary-search + `Vec::insert` per event) is O(n) per
//! out-of-order arrival, which turned the reordered-install schedules
//! dp-sim generates into quadratic ingest; [`EventLog::reorder_effort`]
//! counts ordering work so the regression fence asserts effort, not wall
//! time.
//!
//! A log keeps the index a diagnosis reads it through
//! (`EventLog::index`) beside its events: built on first use, shared with
//! them by the log's clones, and dropped by the next write. Set-up pays
//! nothing for it, and an append stays a push.
//!
//! A log a store hands out holds no events: it holds the store's sealed
//! layers ([`crate::Layer`]), the bytes the store wrote or opened, checked
//! when they were, each record decoded where it lies when a reader asks
//! for it. The index, a slice's cut and MAKEAPPEAR's key lookup read a
//! log through one positional accessor (`EventLog::reader`): an event's
//! node, table and fields, or the event — the same code for both
//! storages — so a diagnosis from a store turns into events only the
//! records its cuts hold and its key lookups find (counter
//! `store.records_decoded`). [`EventLog::events`] on layers decodes the
//! whole log into an owned copy, the path of every whole-log
//! reader; a write copies the events out first, as it does from a shared
//! log, and leaves the layers to the store.

use std::borrow::Cow;
use std::fmt;
use std::sync::{Arc, OnceLock};

use dp_ndlog::{Fields, Program};
use dp_trace::Tracer;
use dp_types::{LogicalTime, NodeId, Result, Sym, Tuple, Value};

use crate::layers::layer::{Layer, Record};
use crate::slice::Index;

/// Whether a base event inserts or deletes its tuple.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BaseOp {
    /// Base-tuple insertion.
    Insert,
    /// Base-tuple deletion (the paper models deletions as special events,
    /// keeping the log append-only).
    Delete,
}

/// One logged base event. Cloning it shares the tuple (see the module
/// docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BaseEvent {
    /// Earliest logical time the event may execute.
    pub due: LogicalTime,
    /// Node the tuple lives on.
    pub node: NodeId,
    /// The tuple.
    pub tuple: Arc<Tuple>,
    /// Insert or delete.
    pub op: BaseOp,
}

/// An append-only log of base events, read back sorted by `due` (stable
/// for equal times, preserving arrival order — determinism again).
///
/// Events are kept in arrival order internally; the sorted replay order is
/// restored lazily. A stable sort preserves relative order of equal dues,
/// and the buffer's order *is* arrival order (inductively: it holds for
/// appends, and every sort preserves it within a due), so the lazy path
/// reads back exactly what eager insertion-sort produced.
///
/// The log is one `Arc` over its state: a clone shares it, and a write
/// copies it first if it is shared ([`Arc::make_mut`]) and drops its
/// index. Bulk producers append through [`Extend`] or [`FromIterator`],
/// which pay that check once per batch instead of once per event.
#[derive(Clone, Default)]
pub struct EventLog(Arc<State>);

#[derive(Clone, Default)]
struct State {
    storage: Storage,
    /// True when an append came before an earlier one's due: the events
    /// are not in replay order.
    unsorted: bool,
    /// Largest `due` ever pushed.
    max_due: LogicalTime,
    /// Elements moved while maintaining replay order (one per sorted
    /// element per in-place normalize). An effort counter for regression
    /// tests: a linear-ish ingest keeps this O(n), the old per-push
    /// `Vec::insert` scheme would have counted O(n²) shifts.
    effort: u64,
    /// The index of the events as they stand, for one program.
    index: OnceLock<(Arc<Program>, Arc<Index>)>,
}

impl fmt::Debug for EventLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.events().iter()).finish()
    }
}

/// Where a log's events are. Either way the state is the size it is for
/// the events alone, so an in-memory log allocates as it always has.
#[derive(Clone)]
enum Storage {
    /// The events, in arrival order.
    Events(Vec<BaseEvent>),
    /// The sealed layers the log reads its events from, tiling it in
    /// replay order: a store's log.
    Layers(Arc<[Arc<Layer>]>),
}

impl Default for Storage {
    fn default() -> Self {
        Storage::Events(Vec::new())
    }
}

impl State {
    /// The events, to write: a log backed by layers decodes them first,
    /// leaving the layers to the store and to the log's clones.
    fn events_mut(&mut self) -> &mut Vec<BaseEvent> {
        if let Storage::Layers(layers) = &self.storage {
            self.storage = Storage::Events(decode(layers));
        }
        match &mut self.storage {
            Storage::Events(events) => events,
            Storage::Layers(_) => unreachable!("decoded above"),
        }
    }

    fn push(&mut self, event: BaseEvent) {
        self.unsorted |= event.due < self.max_due;
        self.max_due = self.max_due.max(event.due);
        self.events_mut().push(event);
    }
}

/// How many records `layers`, tiling a log, hold.
fn layered_len(layers: &[Arc<Layer>]) -> usize {
    layers.last().map_or(0, |l| l.first_seq as usize + l.records())
}

/// Every record of `layers`, decoded, in replay order.
fn decode(layers: &[Arc<Layer>]) -> Vec<BaseEvent> {
    layers.iter().flat_map(|l| (0..l.records()).map(|i| l.event(i))).collect()
}

fn sort_events(events: &mut [BaseEvent]) {
    events.sort_by_key(|e| e.due); // sort_by_key is stable: arrival order within a due
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// The state, to write: copied first if a clone shares it, its index
    /// dropped (it indexes the events before the write).
    fn state_mut(&mut self) -> &mut State {
        let state = Arc::make_mut(&mut self.0);
        state.index.take();
        state
    }

    /// Appends a sealed layer, the next run of the log's replay order, to
    /// a log that is empty or backed by layers (a store's): the layer
    /// starts at the log's length, at a due no earlier than its horizon
    /// (the store checks both).
    pub(crate) fn append_layer(&mut self, layer: Arc<Layer>) {
        debug_assert!(self.is_empty() || !self.layers().is_empty(), "the log holds events");
        debug_assert_eq!(layer.first_seq, self.len() as u64);
        debug_assert!(layer.first_due() >= self.horizon());
        let layers = self.layers().iter().cloned().chain([Arc::clone(&layer)]).collect();
        let state = self.state_mut();
        state.max_due = state.max_due.max(layer.last_due());
        state.storage = Storage::Layers(layers);
    }

    /// The sealed layers the log reads its events from: empty for a log
    /// that holds its events.
    pub fn layers(&self) -> &[Arc<Layer>] {
        match &self.0.storage {
            Storage::Events(_) => &[],
            Storage::Layers(layers) => layers,
        }
    }

    /// The events in replay order.
    ///
    /// Borrows when the log is already ordered (always true right after
    /// [`EventLog::normalize`], or when every append arrived in order);
    /// otherwise returns an owned sorted copy. Mutating paths should
    /// normalize first so repeated reads stay allocation-free. A log
    /// backed by layers decodes every record into an owned copy.
    pub fn events(&self) -> Cow<'_, [BaseEvent]> {
        self.view(&Tracer::disabled())
    }

    /// [`EventLog::events`], counting the records it decodes on `tracer`
    /// (`store.records_decoded`).
    fn view(&self, tracer: &Tracer) -> Cow<'_, [BaseEvent]> {
        match &self.0.storage {
            Storage::Layers(layers) => {
                let events = decode(layers);
                tracer.counter("store.records_decoded", events.len() as u64);
                Cow::Owned(events)
            }
            Storage::Events(events) if !self.0.unsorted => Cow::Borrowed(events),
            Storage::Events(events) => {
                let mut copy = events.clone();
                sort_events(&mut copy);
                Cow::Owned(copy)
            }
        }
    }

    /// The log's events by position in replay order: the one accessor the
    /// index, a cut and a key lookup read a log through, whichever storage
    /// holds it (module docs). A log with unsorted appends pending is read
    /// through a sorted copy, as [`EventLog::events`] reads it.
    pub(crate) fn reader(&self) -> Reader<'_> {
        match &self.0.storage {
            Storage::Events(_) => Reader::Events(self.events()),
            Storage::Layers(layers) => Reader::Layers(layers),
        }
    }

    /// Restores replay order in place, making subsequent [`EventLog::events`]
    /// reads borrow. A no-op on an already-ordered log.
    pub fn normalize(&mut self) {
        if self.0.unsorted {
            let state = self.state_mut();
            let events = state.events_mut();
            let moved = events.len() as u64;
            sort_events(events);
            state.effort += moved;
            state.unsorted = false;
        }
    }

    /// Elements moved so far to maintain replay order (see the struct
    /// docs); asserted by regression tests instead of wall time.
    pub fn reorder_effort(&self) -> u64 {
        self.0.effort
    }

    /// Number of logged events.
    pub fn len(&self) -> usize {
        match &self.0.storage {
            Storage::Events(events) => events.len(),
            Storage::Layers(layers) => layered_len(layers),
        }
    }

    /// True when nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The replay horizon: the largest due time ever logged.
    pub fn horizon(&self) -> LogicalTime {
        self.0.max_due
    }

    /// True if `other` is this log or a clone of it that neither has
    /// written to since: then both hold the same events. (Two logs built
    /// apart can hold the same events and still be two.)
    pub fn same(&self, other: &EventLog) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// The index of this log for `program` (the `slice` module's
    /// [`Index`]), built by the first call (span `replay.slice_index`,
    /// counter `replay.index_events`, the events it read) and kept until
    /// the log is written to. A clone shares it. Asked for by another
    /// program than the one it was built for, it is built afresh and not
    /// kept.
    pub(crate) fn index(&self, program: &Arc<Program>, tracer: &Tracer) -> Arc<Index> {
        let build = || {
            let span = tracer.span("replay.slice_index");
            let log = self.reader();
            let index = Arc::new(Index::of(program, &log));
            span.end_with(|agg| agg.add("replay.index_events", log.len() as u64));
            index
        };
        let (built_for, index) = self.0.index.get_or_init(|| (Arc::clone(program), build()));
        if Arc::ptr_eq(built_for, program) {
            Arc::clone(index)
        } else {
            build()
        }
    }

    /// Appends an event in O(1); replay order is restored lazily.
    pub fn push(&mut self, event: BaseEvent) {
        self.state_mut().push(event);
    }

    /// Convenience: log an insertion.
    pub fn insert(
        &mut self,
        due: LogicalTime,
        node: impl Into<NodeId>,
        tuple: impl Into<Arc<Tuple>>,
    ) {
        self.push(BaseEvent {
            due,
            node: node.into(),
            tuple: tuple.into(),
            op: BaseOp::Insert,
        });
    }

    /// Convenience: log a deletion.
    pub fn delete(
        &mut self,
        due: LogicalTime,
        node: impl Into<NodeId>,
        tuple: impl Into<Arc<Tuple>>,
    ) {
        self.push(BaseEvent {
            due,
            node: node.into(),
            tuple: tuple.into(),
            op: BaseOp::Delete,
        });
    }

    /// The whole log as the reference evaluator's input
    /// ([`dp_ndlog::reference::evaluate`]), in replay order.
    pub fn to_schedule(&self) -> Vec<dp_ndlog::ScheduledOp> {
        self.events()
            .iter()
            .map(|e| dp_ndlog::ScheduledOp {
                due: e.due,
                node: e.node,
                tuple: Arc::clone(&e.tuple),
                delete: e.op == BaseOp::Delete,
            })
            .collect()
    }

    /// Feeds the whole log into an engine's schedule; returns how many
    /// events that was.
    pub fn schedule_into<S: dp_ndlog::ProvenanceSink>(
        &self,
        engine: &mut dp_ndlog::Engine<S>,
    ) -> Result<usize> {
        let events = self.view(engine.tracer());
        for e in events.iter() {
            let (node, tuple) = (e.node, Arc::clone(&e.tuple));
            match e.op {
                BaseOp::Insert => engine.schedule_insert(e.due, node, tuple)?,
                BaseOp::Delete => engine.schedule_delete(e.due, node, tuple)?,
            }
        }
        Ok(events.len())
    }
}

/// An [`EventLog`]'s events by position in replay order
/// ([`EventLog::reader`]).
pub(crate) enum Reader<'a> {
    /// A log that holds its events.
    Events(Cow<'a, [BaseEvent]>),
    /// A log backed by sealed layers.
    Layers(&'a [Arc<Layer>]),
}

/// One event of a [`Reader`]: a logged event, or a layer's record read
/// where it lies.
#[derive(Clone, Copy)]
pub(crate) enum Logged<'a> {
    Event(&'a BaseEvent),
    Record(Record<'a>),
}

impl Reader<'_> {
    /// How many events the log holds.
    pub(crate) fn len(&self) -> usize {
        match self {
            Reader::Events(events) => events.len(),
            Reader::Layers(layers) => layered_len(layers),
        }
    }

    /// The event at position `at`, which must be below the length.
    #[inline]
    pub(crate) fn get(&self, at: usize) -> Logged<'_> {
        match self {
            Reader::Events(events) => Logged::Event(&events[at]),
            Reader::Layers(layers) => {
                let l = &layers[layers.partition_point(|l| l.first_seq as usize <= at) - 1];
                Logged::Record(l.record(at - l.first_seq as usize))
            }
        }
    }

    /// Every event, in replay order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Logged<'_>> {
        let (events, layers) = match self {
            Reader::Events(events) => (&events[..], &[][..]),
            Reader::Layers(layers) => (&[][..], *layers),
        };
        let records =
            layers.iter().flat_map(|l| (0..l.records()).map(|i| Logged::Record(l.record(i))));
        events.iter().map(Logged::Event).chain(records)
    }

    /// The log of the events at `positions`, ascending, counting the
    /// records it decodes on `tracer` (`store.records_decoded`).
    pub(crate) fn log_of(
        &self,
        positions: impl IntoIterator<Item = usize>,
        tracer: &Tracer,
    ) -> EventLog {
        let log: EventLog = positions.into_iter().map(|at| self.get(at).event()).collect();
        if let Reader::Layers(_) = self {
            tracer.counter("store.records_decoded", log.len() as u64);
        }
        log
    }
}

impl Logged<'_> {
    /// The node the event's tuple lives on.
    #[inline]
    pub(crate) fn node(&self) -> NodeId {
        match self {
            Logged::Event(e) => e.node,
            Logged::Record(r) => r.node,
        }
    }

    /// The event's due.
    pub(crate) fn due(&self) -> LogicalTime {
        match self {
            Logged::Event(e) => e.due,
            Logged::Record(r) => r.due(),
        }
    }

    /// True if the event's tuple is `tuple`.
    pub(crate) fn is(&self, tuple: &Tuple) -> bool {
        match self {
            Logged::Event(e) => *e.tuple == *tuple,
            Logged::Record(r) => {
                r.table == tuple.table
                    && r.arity == tuple.args.len()
                    && tuple.args.iter().enumerate().all(|(c, v)| r.field(c).as_ref() == Some(v))
            }
        }
    }

    /// The event, decoded from a record.
    pub(crate) fn event(&self) -> BaseEvent {
        match self {
            Logged::Event(e) => BaseEvent::clone(e),
            Logged::Record(r) => r.event(),
        }
    }
}

impl Fields for Logged<'_> {
    #[inline]
    fn table(&self) -> Sym {
        match self {
            Logged::Event(e) => e.tuple.table,
            Logged::Record(r) => r.table,
        }
    }

    #[inline]
    fn arity(&self) -> usize {
        match self {
            Logged::Event(e) => e.tuple.args.len(),
            Logged::Record(r) => r.arity,
        }
    }

    #[inline]
    fn field(&self, col: usize) -> Option<Value> {
        match self {
            Logged::Event(e) => e.tuple.args.get(col).cloned(),
            Logged::Record(r) => r.field(col),
        }
    }
}

impl Extend<BaseEvent> for EventLog {
    /// Appends the events in order, as [`EventLog::push`] would, with one
    /// write to the state for the batch.
    fn extend<I: IntoIterator<Item = BaseEvent>>(&mut self, events: I) {
        let state = self.state_mut();
        events.into_iter().for_each(|e| state.push(e));
    }
}

impl FromIterator<BaseEvent> for EventLog {
    fn from_iter<I: IntoIterator<Item = BaseEvent>>(events: I) -> Self {
        let mut log = EventLog::new();
        log.extend(events);
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_types::tuple;

    #[test]
    fn log_stays_sorted_and_stable() {
        let mut log = EventLog::new();
        log.insert(10, "a", tuple!("t", 1));
        log.insert(5, "a", tuple!("t", 2));
        log.insert(10, "a", tuple!("t", 3));
        log.delete(7, "a", tuple!("t", 2));
        let dues: Vec<_> = log.events().iter().map(|e| e.due).collect();
        assert_eq!(dues, [5, 7, 10, 10]);
        // Stable: t=1 logged before t=3 at the same due.
        assert_eq!(log.events()[2].tuple, tuple!("t", 1));
        assert_eq!(log.events()[3].tuple, tuple!("t", 3));
        assert_eq!(log.horizon(), 10);
    }

    #[test]
    fn dirty_and_normalized_reads_agree() {
        let mut log = EventLog::new();
        for i in 0..100u64 {
            log.insert(100 - i, "a", tuple!("t", i as i64));
        }
        let dirty: Vec<_> = log.events().iter().cloned().collect();
        log.normalize();
        let clean: Vec<_> = log.events().iter().cloned().collect();
        assert_eq!(dirty, clean);
        // Normalized logs hand out borrows; a second normalize is free.
        let effort = log.reorder_effort();
        log.normalize();
        assert_eq!(log.reorder_effort(), effort);
    }

    /// Regression fence for the quadratic-ingest bug: a fully reversed
    /// 50k-event ingest (the worst case for the old binary-search +
    /// `Vec::insert` scheme, which shifts O(n) elements per push and would
    /// have counted ~1.25e9 moves here) must stay linear-ish. Asserts the
    /// effort counter, not wall time, so the fence is load-independent.
    #[test]
    fn reordered_ingest_stays_out_of_the_quadratic_regime() {
        const N: u64 = 50_000;
        let mut log = EventLog::new();
        for i in 0..N {
            log.insert(N - i, "a", tuple!("e", (i % 97) as i64));
        }
        log.normalize();
        assert!(
            log.reorder_effort() <= 4 * N,
            "ordering effort {} exceeds the linear budget {}",
            log.reorder_effort(),
            4 * N
        );
        let events = log.events();
        assert_eq!(events.len(), N as usize);
        assert!(events.windows(2).all(|w| w[0].due <= w[1].due));
    }
}
