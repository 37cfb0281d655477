//! The base-event log.
//!
//! Following the paper's "query-time based approach" (Section 5), the
//! logging engine writes down **base events only** — external inputs and
//! configuration changes — and the replay engine reconstructs all
//! derivations (and hence the provenance graph) deterministically at query
//! time. This favors runtime performance: diagnostic queries take longer,
//! but they are rare.
//!
//! An event holds its tuple behind an `Arc`, and everything downstream —
//! a clone of the log, a patched log, the schedule handed to an engine or
//! to the reference evaluator, the engine's tables, indexes and provenance
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

use std::ops::Deref;
use std::sync::Arc;

use dp_types::{LogicalTime, NodeId, Result, Tuple};

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

impl BaseEvent {
    /// Schedules this event's op on its located tuple at its due.
    pub(crate) fn schedule<S: dp_ndlog::ProvenanceSink>(
        &self,
        engine: &mut dp_ndlog::Engine<S>,
    ) -> Result<()> {
        let (node, tuple) = (self.node, Arc::clone(&self.tuple));
        match self.op {
            BaseOp::Insert => engine.schedule_insert(self.due, node, tuple),
            BaseOp::Delete => engine.schedule_delete(self.due, node, tuple),
        }
    }
}

/// An append-only log of base events, read back sorted by `due` (stable
/// for equal times, preserving arrival order — determinism again).
///
/// Events are kept in arrival order internally; the sorted replay order is
/// restored lazily. A stable sort preserves relative order of equal dues,
/// and the buffer's order *is* arrival order (inductively: it holds for
/// appends, and every sort preserves it within a due), so the lazy path
/// reads back exactly what eager insertion-sort produced.
#[derive(Clone, Debug)]
pub struct EventLog {
    events: Vec<BaseEvent>,
    /// True when `events` is already in replay order.
    sorted: bool,
    /// Largest `due` ever pushed.
    max_due: LogicalTime,
    /// Elements moved while maintaining replay order (one per sorted
    /// element per in-place normalize). An effort counter for regression
    /// tests: a linear-ish ingest keeps this O(n), the old per-push
    /// `Vec::insert` scheme would have counted O(n²) shifts.
    effort: u64,
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog {
            events: Vec::new(),
            sorted: true,
            max_due: 0,
            effort: 0,
        }
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

    /// The events in replay order.
    ///
    /// Borrows when the log is already ordered (always true right after
    /// [`EventLog::normalize`], or when every append arrived in order);
    /// otherwise returns an owned sorted copy. Mutating paths should
    /// normalize first so repeated reads stay allocation-free.
    pub fn events(&self) -> EventsView<'_> {
        if self.sorted {
            EventsView(ViewInner::Borrowed(&self.events))
        } else {
            let mut copy = self.events.clone();
            sort_events(&mut copy);
            EventsView(ViewInner::Owned(copy))
        }
    }

    /// Restores replay order in place, making subsequent [`EventLog::events`]
    /// reads borrow. A no-op on an already-ordered log.
    pub fn normalize(&mut self) {
        if !self.sorted {
            self.effort += self.events.len() as u64;
            sort_events(&mut self.events);
            self.sorted = true;
        }
    }

    /// Elements moved so far to maintain replay order (see the struct
    /// docs); asserted by regression tests instead of wall time.
    pub fn reorder_effort(&self) -> u64 {
        self.effort
    }

    /// Number of logged events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The replay horizon: the largest due time ever logged.
    pub fn horizon(&self) -> LogicalTime {
        self.max_due
    }

    /// Appends an event in O(1); replay order is restored lazily.
    pub fn push(&mut self, event: BaseEvent) {
        if let Some(last) = self.events.last() {
            if event.due < last.due {
                self.sorted = false;
            }
        }
        self.max_due = self.max_due.max(event.due);
        self.events.push(event);
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
            e.schedule(engine)?;
        }
        Ok(events.len())
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
