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
//! [`EventsView`] a read of a still-dirty log returns. The naive
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

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use dp_ndlog::Program;
use dp_trace::Tracer;
use dp_types::{LogicalTime, NodeId, Result, Tuple};

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
    events: Vec<BaseEvent>,
    /// True when an append came before an earlier one's due: `events` is
    /// not in replay order.
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

impl State {
    fn push(&mut self, event: BaseEvent) {
        self.unsorted |= event.due < self.max_due;
        self.max_due = self.max_due.max(event.due);
        self.events.push(event);
    }
}

/// The events of an [`EventLog`] in replay order.
///
/// Borrows the log's buffer when it is already ordered; for a log with
/// unsorted appends still pending, the view owns a sorted copy instead, so
/// reads never require `&mut` access. Dereferences to `[BaseEvent]`.
#[derive(Clone, Debug)]
pub struct EventsView<'a>(ViewInner<'a>);

#[derive(Clone, Debug)]
enum ViewInner<'a> {
    Borrowed(&'a [BaseEvent]),
    Owned(Vec<BaseEvent>),
}

impl Deref for EventsView<'_> {
    type Target = [BaseEvent];

    fn deref(&self) -> &[BaseEvent] {
        match &self.0 {
            ViewInner::Borrowed(s) => s,
            ViewInner::Owned(v) => v,
        }
    }
}

impl AsRef<[BaseEvent]> for EventsView<'_> {
    fn as_ref(&self) -> &[BaseEvent] {
        self
    }
}

impl PartialEq for EventsView<'_> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for EventsView<'_> {}

impl PartialEq<[BaseEvent]> for EventsView<'_> {
    fn eq(&self, other: &[BaseEvent]) -> bool {
        **self == *other
    }
}

impl<'a, 'b> IntoIterator for &'b EventsView<'a> {
    type Item = &'b BaseEvent;
    type IntoIter = std::slice::Iter<'b, BaseEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
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

    /// The events in replay order.
    ///
    /// Borrows when the log is already ordered (always true right after
    /// [`EventLog::normalize`], or when every append arrived in order);
    /// otherwise returns an owned sorted copy. Mutating paths should
    /// normalize first so repeated reads stay allocation-free.
    pub fn events(&self) -> EventsView<'_> {
        if !self.0.unsorted {
            EventsView(ViewInner::Borrowed(&self.0.events))
        } else {
            let mut copy = self.0.events.clone();
            sort_events(&mut copy);
            EventsView(ViewInner::Owned(copy))
        }
    }

    /// Restores replay order in place, making subsequent [`EventLog::events`]
    /// reads borrow. A no-op on an already-ordered log.
    pub fn normalize(&mut self) {
        if self.0.unsorted {
            let state = self.state_mut();
            state.effort += state.events.len() as u64;
            sort_events(&mut state.events);
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
        self.0.events.len()
    }

    /// True when nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.0.events.is_empty()
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
            let events = self.events();
            let index = Arc::new(Index::of(program, &events));
            span.end_with(|agg| agg.add("replay.index_events", events.len() as u64));
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
        let events = self.events();
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
