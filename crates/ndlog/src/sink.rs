//! The provenance event stream emitted by the engine.
//!
//! The engine reports everything a temporal provenance graph needs through
//! the [`ProvenanceSink`] trait. This corresponds to the paper's three
//! capture modes (Section 5): for declarative programs the events are
//! *inferred* from rule firings; native rules *report* their dependencies
//! explicitly (the instrumentation-hooks mode); and the external-
//! specification mode replays observations through a specification program,
//! producing the same event stream.
//!
//! # Sinks and the hand-off
//!
//! Sinks are not required to be thread-safe: the engine is single-
//! threaded. The engine buffers every [`ProvEvent`] in stream order as its
//! mutation is applied and hands the buffer to
//! [`ProvenanceSink::record_batch`] at each delta-batch boundary and, in
//! between, whenever it has grown to a few thousand events — a hand-off is
//! a run of consecutive stream events, not a delta batch, and where the
//! runs are cut carries no meaning. Concatenated, they are exactly the
//! stream the reference evaluator ([`crate::reference`]) records one event
//! at a time.
//!
//! # Events name their episode
//!
//! Every event says which *episode* of its tuple — which APPEAR-to-
//! DISAPPEAR lifetime — it belongs to, as `since`: the logical time of that
//! episode's APPEAR, which is the [`TupleState::appeared_at`] the evaluator
//! holds for the tuple while it handles the event. Clocks are unique per
//! processed event and one event makes at most one tuple appear, so `since`
//! identifies one episode in the whole stream and a consumer can keep its
//! per-episode state under an integer key instead of searching for the
//! tuple by value. An `Appear` opens the episode named by its own `time`;
//! an `InsertBase` or `Derive` with `since == time` is the cause of the
//! `Appear` that immediately follows it, and one with `since < time` adds
//! support to an episode that is already open.
//!
//! [`TupleState::appeared_at`]: crate::engine::TupleState::appeared_at

use std::sync::Arc;

use dp_types::{LogicalTime, NodeId, Sym, Tuple, TupleRef};

/// One provenance-relevant occurrence inside the engine.
///
/// The event kinds map one-to-one onto the vertex types of the temporal
/// provenance graph (Section 3.2 of the paper): INSERT/DELETE for base
/// tuples, DERIVE/UNDERIVE for rule firings and their invalidation, and
/// APPEAR/DISAPPEAR for support transitions (EXIST intervals are derived
/// from APPEAR/DISAPPEAR pairs by the graph builder).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ProvEvent {
    /// A base tuple was inserted.
    InsertBase {
        /// Logical time of the insertion.
        time: LogicalTime,
        /// The episode the insertion supports: `time` when it makes the
        /// tuple appear, earlier when the tuple was already there.
        since: LogicalTime,
        /// Node where the tuple lives.
        node: NodeId,
        /// The tuple.
        tuple: Arc<Tuple>,
    },
    /// A base tuple was deleted.
    DeleteBase {
        /// Logical time of the deletion.
        time: LogicalTime,
        /// The episode losing its base support.
        since: LogicalTime,
        /// Node where the tuple lived.
        node: NodeId,
        /// The tuple.
        tuple: Arc<Tuple>,
    },
    /// A rule derived a tuple.
    Derive {
        /// Logical time of the derivation.
        time: LogicalTime,
        /// The episode the derivation supports: `time` when it makes the
        /// tuple appear, earlier when the tuple already existed (extra
        /// support only).
        since: LogicalTime,
        /// Node where the derived tuple lives.
        node: NodeId,
        /// The derived tuple.
        tuple: Arc<Tuple>,
        /// The rule that fired.
        rule: Sym,
        /// The body tuples used, in rule-body order, each with the
        /// episode it was in when the derivation was delivered.
        body: Vec<BodyRef>,
        /// Index into `body` of the tuple whose appearance triggered the
        /// derivation (the paper's "last precondition", Section 4.2).
        trigger: usize,
    },
    /// A derivation became invalid because a body tuple disappeared.
    Underive {
        /// Logical time of the invalidation.
        time: LogicalTime,
        /// The episode losing the derivation.
        since: LogicalTime,
        /// Node of the (formerly) derived tuple.
        node: NodeId,
        /// The tuple losing support.
        tuple: Arc<Tuple>,
        /// The rule whose derivation was invalidated.
        rule: Sym,
    },
    /// A tuple's support went from zero to positive: the episode named
    /// `time` opens.
    Appear {
        /// Logical time.
        time: LogicalTime,
        /// Node.
        node: NodeId,
        /// The tuple.
        tuple: Arc<Tuple>,
    },
    /// A tuple's support returned to zero.
    Disappear {
        /// Logical time.
        time: LogicalTime,
        /// The episode that ends: the `time` of the `Appear` it closes.
        since: LogicalTime,
        /// Node.
        node: NodeId,
        /// The tuple.
        tuple: Arc<Tuple>,
    },
}

/// One body tuple of a derivation, with the episode it was read in.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BodyRef {
    /// The located body tuple.
    pub tref: TupleRef,
    /// The `time` of the `Appear` that opened the episode the tuple was in
    /// when the derivation was delivered.
    pub since: LogicalTime,
}

impl ProvEvent {
    /// The logical time of the event.
    pub fn time(&self) -> LogicalTime {
        match self {
            ProvEvent::InsertBase { time, .. }
            | ProvEvent::DeleteBase { time, .. }
            | ProvEvent::Derive { time, .. }
            | ProvEvent::Underive { time, .. }
            | ProvEvent::Appear { time, .. }
            | ProvEvent::Disappear { time, .. } => *time,
        }
    }
}

/// A consumer of the engine's provenance event stream.
pub trait ProvenanceSink {
    /// Records one event. Events arrive in non-decreasing time order.
    fn record(&mut self, event: ProvEvent);

    /// Records a run of consecutive stream events, draining `events`. The
    /// run is already in stream order and implementations must preserve
    /// it — the engine produces the reference evaluator's stream, just
    /// delivered a run at a time. A run ends where the engine chose to
    /// hand its buffer over (a delta-batch boundary, or the buffer's size
    /// bound inside a large batch): nothing may be read into its length.
    /// The default forwards to [`ProvenanceSink::record`] one event at a
    /// time; sinks with cheap bulk appends (e.g. [`VecSink`]) override it.
    fn record_batch(&mut self, events: &mut Vec<ProvEvent>) {
        for event in events.drain(..) {
            self.record(event);
        }
    }
}

/// A sink that discards everything (logging disabled; used to measure the
/// overhead of provenance capture, Section 6.4).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl ProvenanceSink for NullSink {
    fn record(&mut self, _event: ProvEvent) {}

    fn record_batch(&mut self, events: &mut Vec<ProvEvent>) {
        events.clear();
    }
}

/// A sink that buffers events in memory, for tests and for feeding a graph
/// builder after the fact.
#[derive(Clone, Debug, Default)]
pub struct VecSink {
    /// The recorded events, in arrival order.
    pub events: Vec<ProvEvent>,
}

impl ProvenanceSink for VecSink {
    fn record(&mut self, event: ProvEvent) {
        self.events.push(event);
    }

    fn record_batch(&mut self, events: &mut Vec<ProvEvent>) {
        self.events.append(events);
    }
}

/// A sink that folds the stream into an order-sensitive digest plus an
/// event count, without retaining the events.
///
/// Replays of large executions are compared with each other (rerun,
/// restart, disk store) and with the reference evaluator; buffering
/// several million events per run just to compare them would dominate
/// the memory profile, so the comparison runs over digests instead. The
/// digest hashes `(index, event)` pairs, so it distinguishes reorderings,
/// not just multisets. `DefaultHasher`'s *seed* is fixed (only
/// `RandomState` randomizes), so two sinks in one process — or across
/// processes on the same build — agree iff their streams are
/// byte-identical.
#[derive(Clone, Debug, Default)]
pub struct HashSink {
    /// Events observed so far.
    pub count: u64,
    digest: u64,
}

impl HashSink {
    /// The running order-sensitive digest of the stream.
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

impl ProvenanceSink for HashSink {
    fn record(&mut self, event: ProvEvent) {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.digest.hash(&mut h);
        self.count.hash(&mut h);
        event.hash(&mut h);
        self.digest = h.finish();
        self.count += 1;
    }

    fn record_batch(&mut self, events: &mut Vec<ProvEvent>) {
        for event in events.drain(..) {
            self.record(event);
        }
    }
}

impl<S: ProvenanceSink + ?Sized> ProvenanceSink for &mut S {
    fn record(&mut self, event: ProvEvent) {
        (**self).record(event);
    }

    fn record_batch(&mut self, events: &mut Vec<ProvEvent>) {
        (**self).record_batch(events);
    }
}
