//! The deterministic distributed evaluator.
//!
//! The engine executes a [`Program`] over a set of nodes. It is a discrete-
//! event simulator with a single logical clock: every processed event gets
//! a unique, strictly increasing timestamp. This determinism is load-
//! bearing — the paper's whole approach (Section 2.6) "exploits the fact
//! that ... given an initial state of the network, the sequence of events
//! that unfolds is largely deterministic", and replay-based provenance
//! reconstruction (Section 5) requires bit-identical re-execution.
//!
//! Derivations follow trigger semantics: a rule fires when its *last*
//! precondition appears (Section 4.2), joining against the body tuples
//! already present. Deletions cascade through support counting, emitting
//! the negative vertex events (DELETE/UNDERIVE/DISAPPEAR) of Section 3.2.
//!
//! # The engine and its oracle
//!
//! This engine is the fast implementation: batched, indexed and
//! trie-probed, always. What it must compute is defined by the small
//! reference evaluator in [`crate::reference`] — serial, tuple-at-a-time,
//! nested-loop joins over full table scans — and
//! `tests/reference_differential.rs` holds the two to identical
//! provenance streams and final tables. Each optimization below is
//! stated as the argument for why it cannot change that stream.
//!
//! # Join evaluation
//!
//! Joins run the build-time plans of `crate::compile`: each non-trigger body
//! atom is joined in most-bound-first order, probing a secondary hash index
//! keyed on its bound columns (falling back to a full ordered scan when no
//! column is bound). Indexes are maintained incrementally by the tables
//! (`engine/state.rs`) on insert/delete, and a table compares its rows by
//! their arguments alone (every row carries the table's name). A derived
//! head is interned where it is delivered — one `Arc` and one head id per
//! distinct head, so every node and provenance event naming it shares one
//! allocation, and its table finds its row by the id; a base tuple is held
//! as scheduled — the log's own allocation — and never interned, since no
//! head can equal it (heads are `Derived`, base operations are not, and
//! natives are held to the same line). A firing carries the head's
//! arguments to the queue as it built them: a head whose delivery is
//! dropped (a body tuple retracted in flight) is never looked up at all.
//!
//! A rule fires in its compiled form (`crate::compile`): its variables are
//! slots of one reused frame, bound and undone off a trail per candidate,
//! and nothing on the firing path is looked up by name (`engine/fire.rs`).
//!
//! Reordered probing discovers the same matches in a different order, so
//! the engine sorts the collected matches by their body-tuple vector
//! before acting on them. That is exactly the order the oracle's nested
//! loop enumerates them in (depth-first over body atoms, each table
//! scanned in BTree tuple order, the trigger slot constant).
//!
//! A scan step constrained by `prefix_contains(Col, Addr)` with a bound
//! IP address walks a per-(table, column) prefix trie instead of the
//! table: the trie yields only tuples whose prefix contains the address —
//! the ones the constraint would accept — plus every tuple whose column
//! is not prefix-like, so a type error surfaces exactly as it would under
//! a scan.
//!
//! # Semi-naive delta batching
//!
//! The engine does not fire rules tuple-at-a-time. Deltas that share a
//! scheduled timestamp (`due`) are applied to the tables first — one
//! event at a time, so base provenance events and logical clocks are
//! unchanged — and accumulate as the *delta relation* of classic
//! semi-naive evaluation. At the batch boundary (the next queued event
//! has a different `due`, or a deletion arrives) the batch is flushed:
//! the deltas supply the trigger tuples, the indexed tables supply the
//! rest. Because all of a batch's tuples are already inserted when the
//! joins run, each join carries an `as_of` horizon — a body tuple
//! qualifies only if it appeared no later than the delta being fired
//! (`TupleState::appeared_at <= as_of`) — which reproduces exactly the
//! state a tuple-at-a-time firing would have seen. Deletions flush the
//! pending batch before they cascade, keeping "in-flight" semantics
//! intact. Provenance events are buffered in emission order and handed to
//! the sink at each flush — and, inside a batch, whenever the buffer
//! reaches `EVENT_HANDOFF` events, so it is sized by what is in flight
//! and not by the largest same-`due` batch of the log (a bulk
//! configuration load is one batch). Order is emission order either way:
//! the stream cannot tell where the hand-offs fell.
//!
//! The flush fires **delta-major**. Consecutive deltas of one (node,
//! table) form a group; the group's trigger list is resolved once, and
//! because tables only ever grow within a batch (deletions flush first) a
//! rule whose partner table is empty is dropped for the whole group — the
//! join could not have completed for any delta: a bulk configuration push
//! runs its doomed trigger joins zero times instead of once per tuple.
//! Then, for each delta in arrival order, the surviving rules fire in
//! program order and the natives after them, every scheduled action
//! appended to one flat buffer. That is the order the oracle pushes in —
//! it pops one tuple, fires all its rules, then its natives, before it
//! touches the next — so the buffer is drained into the queue as it
//! stands, sequence numbers (and hence every downstream timestamp where
//! two heads share a `due`) come out the oracle's, and a flush costs what
//! its own deltas and actions cost: nothing is kept, reset or walked per
//! delta of an earlier, larger batch. A firing error discards the buffer:
//! none of the failed batch's actions is queued, then or later.
//!
//! # The event queue
//!
//! Events pop in ascending `(due, seq)` order, `seq` being the push
//! counter — the one total order the oracle's single heap defines. The
//! queue holds them in two places. A replayed log is scheduled in
//! ascending order before the run starts, so it goes into a **run** — a
//! `VecDeque` that `push` appends to whenever the new key exceeds the
//! run's back, and that is popped front to back, sequentially, at no
//! more than a move per event. Everything else — derived events, due now
//! or a link delay from now, which sort *before* the log's tail — goes
//! into a small **heap**. The run is sorted because only keys above its
//! back are appended to it; the heap's top is its least key; every queued
//! event is in exactly one of the two: so the lesser of the two fronts is
//! the least key queued, and `pop` and `next_due` take it. The pop
//! sequence is therefore the single heap's by construction — for any
//! interleaving of pushes and pops, not only a replay's — and the heap
//! holds what is in flight (a batch's derivations) instead of the whole
//! log. The event budget is checked *before* the pop, so the event it
//! refuses stays queued and a budget-tripped engine is visibly not
//! quiescent.
//!
//! # Where the state lives
//!
//! The nodes and their tables are in `engine/state.rs`. A live tuple is
//! one row of its (node, table) slab — its tuple, base flag, appearance
//! time, head id and the heads of its derivation and reverse-dependency
//! lists —
//! and everywhere else the engine names it by a `RowRef`, `(node, table,
//! row)` indices: the pending deltas, a scheduled derivation's body, the
//! index buckets and trie entries, the derivation bodies and the
//! dependents. The lists live in per-table pools, so a tuple's
//! derivations, bodies and dependents are entries of a few vectors, not
//! blocks of their own. A content keeps its row for the engine's life —
//! a tuple that disappears leaves its row dead, and comes back to it — so
//! a row id names a tuple exactly as the oracle's tuple-valued lists do
//! (the state module's docs say why that matters for a dependent never
//! pruned). The public [`TupleState`] is built from a row when
//! [`Engine::lookup`] or a [`NodeView`] is asked for it.
//!
//! Delivering a derivation makes one pass over its body rows: each must
//! still be live (a cascade may have removed one in flight), and then
//! each reports the episode it is in and takes the head into its
//! dependents list. A derivation that is not recorded — a body tuple
//! retracted in flight, or the same `(rule, body)` already there —
//! registers nothing, so the lists hold exactly the recorded derivations'
//! heads in recording order, which is the order a cascade walks them in.
//! The retirement of a tuple hands its list to the cascade. There is no
//! engine-wide `(node, tuple)`-keyed dependency map. The hash tables
//! under all this — the head interner, a derived table's rows by head id
//! and the join indexes — hash with `dp_types::WordHasher` or a fixed
//! multiply: no per-process seed, probed and never iterated for order.
//!
//! Per-rule counters (firings, join effort) are arrays indexed by the
//! rule's program index, natives after rules; they get their names when
//! [`Engine::rule_firings`] or [`Engine::join_profile`] is called.
//!
//! # Why the engine is serial
//!
//! One thread, one node map, one head interner: replay needs a single
//! clock, and both parallel designs tried here lost to this path on every
//! row recorded while they existed (worker pool 0.96x; shards 0.94x /
//! 0.54x / 0.66x).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::Arc;

mod fire;
mod state;

pub use state::NodeView;

use dp_trace::{series, Tracer};
use dp_types::{Error, LogicalTime, NodeId, Result, Sym, TableKind, Tuple, TupleRef, Value};

use crate::program::Program;
use crate::reference::ScheduledOp;
use crate::sink::{BodyRef, ProvEvent, ProvenanceSink};
use fire::{FireCtx, FireOut, Scratch};
use state::{Nodes, RowRef};

/// How many buffered provenance events make the engine hand them to the
/// sink without waiting for the batch's flush: ≈360 KB of events, which
/// stay in cache between being written and being read.
const EVENT_HANDOFF: usize = 4096;

/// One recorded derivation of a tuple (used for support counting, cascade
/// deletion, and DiffProv's "derived using the expected rule" checks).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DerivRecord {
    /// The rule (declarative or native) that fired.
    pub rule: Sym,
    /// The body tuples used, in rule-body order.
    pub body: Vec<TupleRef>,
    /// Index of the triggering body tuple.
    pub trigger: usize,
    /// When the derivation happened.
    pub time: LogicalTime,
}

/// A live tuple's bookkeeping, as [`Engine::lookup`] and [`NodeView`]
/// report it: built from the tuple's row when asked for, its derivation
/// bodies resolved to located tuples.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TupleState {
    /// True if the tuple was inserted as a base tuple (counts as support).
    pub base: bool,
    /// Active derivations supporting the tuple.
    pub derivations: Vec<DerivRecord>,
    /// When the tuple (last) appeared.
    pub appeared_at: LogicalTime,
}

impl TupleState {
    /// Number of independent supports keeping the tuple alive.
    pub fn support(&self) -> usize {
        usize::from(self.base) + self.derivations.len()
    }
}

/// The body of a scheduled derivation.
#[derive(Clone, Debug)]
enum Body {
    /// A rule's: the rows it matched, at the firing node.
    Rows(Vec<RowRef>),
    /// A native's, as it reported it through the `Emitter`: located
    /// tuples, found on delivery like the oracle finds them.
    Named(Vec<TupleRef>),
}

/// A derived head on its way to its node.
#[derive(Clone, Debug)]
struct Derivation {
    node: NodeId,
    /// The head's arguments as the firing built them, and its table's
    /// index in the program: made a tuple, and interned, only if the head
    /// is delivered. (A queued event is as large as its largest action,
    /// and the queue keeps its capacity: the head travels in two words
    /// and an index, where a `Tuple` would take four.)
    args: Box<[Value]>,
    table: u32,
    /// The rule's slot in the per-rule counters — its program index,
    /// natives after rules — which also names it.
    slot: u32,
    body: Body,
    trigger: u32,
}

#[derive(Clone, Debug)]
enum Action {
    InsertBase(NodeId, Arc<Tuple>),
    DeleteBase(NodeId, Arc<Tuple>),
    InsertDerived(Derivation),
}

#[derive(Clone, Debug)]
struct Scheduled {
    due: LogicalTime,
    seq: u64,
    action: Action,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// The event queue: a sorted run beside a heap (see the module docs).
///
/// `run` is ascending by `(due, seq)` — `push` appends to it only what
/// exceeds its back — and `heap` takes the rest, so the least queued event
/// is the lesser of the two fronts.
#[derive(Default)]
struct Queue {
    run: VecDeque<Scheduled>,
    heap: BinaryHeap<Reverse<Scheduled>>,
}

impl Queue {
    fn push(&mut self, ev: Scheduled) {
        if self.run.back().is_none_or(|back| *back < ev) {
            self.run.push_back(ev);
        } else {
            self.heap.push(Reverse(ev));
        }
    }

    /// True when the next event to pop is the heap's.
    fn heap_first(&self) -> bool {
        match (self.run.front(), self.heap.peek()) {
            (Some(run), Some(Reverse(heap))) => heap < run,
            (None, heap) => heap.is_some(),
            (Some(_), None) => false,
        }
    }

    /// The least `(due, seq)` event, removed.
    fn pop(&mut self) -> Option<Scheduled> {
        if self.heap_first() {
            self.heap.pop().map(|Reverse(ev)| ev)
        } else {
            self.run.pop_front()
        }
    }

    /// The `due` of the event [`Queue::pop`] would return.
    fn next_due(&self) -> Option<LogicalTime> {
        if self.heap_first() {
            self.heap.peek().map(|Reverse(ev)| ev.due)
        } else {
            self.run.front().map(|ev| ev.due)
        }
    }

    fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    fn is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty()
    }
}

/// Counters describing one engine run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Events processed.
    pub events: u64,
    /// Base insertions processed.
    pub base_inserts: u64,
    /// Base deletions processed.
    pub base_deletes: u64,
    /// Derivations recorded (including redundant ones).
    pub derivations: u64,
    /// Underivations recorded during cascades.
    pub underivations: u64,
    /// Join steps answered by an index probe.
    pub join_probes: u64,
    /// Join steps answered by a full table scan.
    pub join_scans: u64,
    /// Join steps answered by a prefix-trie walk.
    pub trie_probes: u64,
    /// Trie-eligible join steps answered by a full scan instead (the
    /// bound address was not an IP).
    pub trie_scans: u64,
    /// Candidate tuples examined across all join steps.
    pub join_candidates: u64,
    /// Complete body matches found by joins.
    pub join_matches: u64,
    /// High-water mark of live tuples across all nodes.
    pub peak_tuples: u64,
    /// Delta batches flushed.
    pub batches: u64,
    /// Deltas fired through batches (every appearance is one).
    pub batched_deltas: u64,
    /// Always 0; kept only because `benchmark/src/probe.rs` reads it.
    pub parallel_batches: u64,
    /// High-water mark of distinct derived tuples held by the engine's
    /// head interner: the heads the engine delivered and allocated, each
    /// once however many nodes and episodes hold it (a head whose delivery
    /// was dropped is never interned). Base tuples are not counted — they
    /// are the log's allocations — and [`Stats::peak_tuples`] counts live
    /// (node, tuple) occurrences instead.
    pub peak_interned: u64,
}

impl Stats {
    /// Fraction of join steps served by an index (1.0 when every step was
    /// a probe; 0.0 when the engine only scanned, or never joined).
    pub fn index_hit_rate(&self) -> f64 {
        let total = self.join_probes + self.join_scans;
        if total == 0 {
            0.0
        } else {
            self.join_probes as f64 / total as f64
        }
    }

    /// Hand-rolled JSON rendering (serde-free, matching the BENCH writer
    /// style). Field names and order mirror the struct declaration; the
    /// shape is pinned by a golden test and consumed by `repro -- stats`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"events\":{},\"base_inserts\":{},\"base_deletes\":{},\"derivations\":{},\
             \"underivations\":{},\"join_probes\":{},\"join_scans\":{},\"trie_probes\":{},\
             \"trie_scans\":{},\"join_candidates\":{},\"join_matches\":{},\"peak_tuples\":{},\
             \"batches\":{},\"batched_deltas\":{},\"peak_interned\":{}}}",
            self.events,
            self.base_inserts,
            self.base_deletes,
            self.derivations,
            self.underivations,
            self.join_probes,
            self.join_scans,
            self.trie_probes,
            self.trie_scans,
            self.join_candidates,
            self.join_matches,
            self.peak_tuples,
            self.batches,
            self.batched_deltas,
            self.peak_interned,
        )
    }
}

/// Per-rule join counters, exposed through [`Engine::join_profile`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuleJoinProfile {
    /// Times the rule's join ran (trigger matched, body joined).
    pub attempts: u64,
    /// Join steps answered by an index probe.
    pub probes: u64,
    /// Join steps answered by a full table scan.
    pub scans: u64,
    /// Join steps answered by a prefix-trie walk.
    pub trie_probes: u64,
    /// Trie-eligible join steps answered by a full scan instead.
    pub trie_scans: u64,
    /// Candidate tuples examined.
    pub candidates: u64,
    /// Complete body matches found.
    pub matches: u64,
}

impl RuleJoinProfile {
    /// Fraction of this rule's join steps served by an index.
    pub fn index_hit_rate(&self) -> f64 {
        let total = self.probes + self.scans;
        if total == 0 {
            0.0
        } else {
            self.probes as f64 / total as f64
        }
    }

    /// Adds `other`'s counts to these.
    fn absorb(&mut self, other: &RuleJoinProfile) {
        self.attempts += other.attempts;
        self.probes += other.probes;
        self.scans += other.scans;
        self.trie_probes += other.trie_probes;
        self.trie_scans += other.trie_scans;
        self.candidates += other.candidates;
        self.matches += other.matches;
    }

    /// Hand-rolled JSON rendering (serde-free). Field names and order
    /// mirror the struct declaration; the shape is pinned by a golden
    /// test and consumed by `repro -- stats`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"attempts\":{},\"probes\":{},\"scans\":{},\"trie_probes\":{},\
             \"trie_scans\":{},\"candidates\":{},\"matches\":{}}}",
            self.attempts,
            self.probes,
            self.scans,
            self.trie_probes,
            self.trie_scans,
            self.candidates,
            self.matches,
        )
    }
}

/// Renders a per-rule join profile map as one JSON object keyed by rule
/// name (serde-free; rule order is the map's deterministic `BTreeMap`
/// order). Used by `repro -- stats` and pinned by the same golden test as
/// [`RuleJoinProfile::to_json`].
pub fn join_profile_json(profile: &BTreeMap<Sym, RuleJoinProfile>) -> String {
    let mut s = String::from("{");
    for (i, (rule, p)) in profile.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&dp_trace::json_string(rule.as_str()));
        s.push(':');
        s.push_str(&p.to_json());
    }
    s.push('}');
    s
}

/// One tuple appearance whose rule firings are deferred to the current
/// batch boundary. `at` is the logical clock of the appearance; it serves
/// both as the firing's `now` (derived-event scheduling) and its `as_of`
/// visibility horizon.
struct Delta {
    row: RowRef,
    at: LogicalTime,
}

/// The evaluator. See the module docs for semantics.
pub struct Engine<S: ProvenanceSink> {
    program: Arc<Program>,
    /// The nodes' tables, and the head interner beside them: one
    /// allocation and one id per distinct derived tuple. Base tuples are
    /// the log's allocations, held as scheduled.
    nodes: Nodes,
    /// Provenance events not yet handed to the sink, in emission order:
    /// at most [`EVENT_HANDOFF`] plus one engine event's emissions, and
    /// none at quiescence.
    events: Vec<ProvEvent>,
    queue: Queue,
    clock: LogicalTime,
    seq: u64,
    sink: S,
    stats: Stats,
    live_tuples: u64,
    /// Firings and join effort per rule slot — the program's rule index,
    /// natives after rules — so counting is an array index, not a descent
    /// by rule name; [`Engine::rule_firings`] and [`Engine::join_profile`]
    /// name the slots on call.
    rule_firings: Vec<u64>,
    join_profile: Vec<RuleJoinProfile>,
    /// The instrumentation handle (disabled by default; see
    /// [`Engine::set_tracer`]).
    tracer: Tracer,
    /// Appearances of the current same-`due` batch, awaiting their rule
    /// firings (always empty at quiescence).
    pending: Vec<Delta>,
    /// The actions one flush's firings schedule, in push order; empty
    /// between flushes, kept for its allocation.
    flush_buf: Vec<(LogicalTime, Action)>,
    /// What rule firing reuses from one firing to the next.
    scratch: Scratch,
    /// Safety valve against runaway programs.
    pub max_events: u64,
}

impl<S: ProvenanceSink> Engine<S> {
    /// Creates an engine over `program`, streaming provenance into `sink`.
    pub fn new(program: Arc<Program>, sink: S) -> Self {
        let slots = program.rule_slots();
        Engine {
            program,
            nodes: Nodes::default(),
            events: Vec::new(),
            queue: Queue::default(),
            clock: 0,
            seq: 0,
            sink,
            stats: Stats::default(),
            live_tuples: 0,
            rule_firings: vec![0; slots],
            join_profile: vec![RuleJoinProfile::default(); slots],
            tracer: Tracer::disabled(),
            pending: Vec::new(),
            flush_buf: Vec::new(),
            scratch: Scratch::default(),
            max_events: 50_000_000,
        }
    }

    /// The program being executed.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The current logical time.
    pub fn now(&self) -> LogicalTime {
        self.clock
    }

    /// Run statistics so far.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// How many times each rule (declarative or native) has fired, by
    /// rule name; rules that never fired are absent.
    pub fn rule_firings(&self) -> BTreeMap<Sym, u64> {
        let mut by_name = BTreeMap::new();
        for (slot, &n) in self.rule_firings.iter().enumerate() {
            if n > 0 {
                *by_name.entry(self.program.slot_name(slot)).or_insert(0) += n;
            }
        }
        by_name
    }

    /// Per-rule join counters (probes, scans, candidates, matches), by
    /// rule name; rules whose join never ran are absent.
    pub fn join_profile(&self) -> BTreeMap<Sym, RuleJoinProfile> {
        let mut by_name: BTreeMap<Sym, RuleJoinProfile> = BTreeMap::new();
        for (slot, p) in self.join_profile.iter().enumerate() {
            if p.attempts > 0 {
                by_name.entry(self.program.slot_name(slot)).or_default().absorb(p);
            }
        }
        by_name
    }

    /// Always 1; kept only because `benchmark/src/timed.rs` and
    /// `benchmark/src/probe.rs` read it.
    pub fn threads(&self) -> usize {
        1
    }

    /// Attaches the instrumentation handle (`dp-trace`). Engines report
    /// at phase granularity only — never per tuple or per join step — so
    /// an enabled tracer costs a handful of mutex-guarded updates per
    /// batch:
    ///
    /// * an `engine.run` span per [`Engine::run`]; at quiescence the run's
    ///   [`Stats`] deltas, per-rule firings and join effort and per-node
    ///   live counts are published once, from the one table in
    ///   `publish_run`;
    /// * spans around each batch flush (`engine.flush`, `engine.fire`,
    ///   `engine.sink`); the batch-depth histogram and the queue-depth
    ///   level ride the close of `engine.flush`.
    ///
    /// Instrumentation is strictly passive, and every series but span wall
    /// time depends only on the program and its input;
    /// `crates/ndlog/tests/trace_differential.rs` pins both. Cloning one
    /// tracer into several engines (and the DiffProv pipeline) accumulates
    /// their series in one aggregate.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The engine's tracer (disabled unless [`Engine::set_tracer`] was
    /// called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Consumes the engine, returning its sink (e.g. a finished graph
    /// builder).
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Borrows the sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Mutably borrows the sink.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// A read-only view of `node`, if it has any state.
    pub fn view(&self, node: &NodeId) -> Option<NodeView<'_>> {
        let at = self.nodes.index(node)?;
        Some(NodeView::of_engine(&self.nodes, &self.program, at, LogicalTime::MAX))
    }

    /// The state of `tuple` at `node`, if currently present: a copy, its
    /// derivation bodies resolved to located tuples.
    pub fn lookup(&self, node: &NodeId, tuple: &Tuple) -> Option<TupleState> {
        let r = self.nodes.find(&self.program, node, tuple)?;
        self.nodes.slot(r).live.then(|| self.nodes.state_of(r))
    }

    /// True if `tuple` is currently present at `node`; [`Engine::lookup`]
    /// without building the state.
    pub fn contains(&self, node: &NodeId, tuple: &Tuple) -> bool {
        self.nodes
            .find(&self.program, node, tuple)
            .is_some_and(|r| self.nodes.slot(r).live)
    }

    /// Every node that ever held a tuple, with a view of its tables, in
    /// node order.
    pub fn nodes(&self) -> impl Iterator<Item = (&NodeId, NodeView<'_>)> {
        self.nodes.in_order().map(|(id, at)| {
            (id, NodeView::of_engine(&self.nodes, &self.program, at, LogicalTime::MAX))
        })
    }

    /// Schedules a base-tuple insertion not earlier than `due`. A tuple
    /// handed over behind an `Arc` is held as it is: the engine keeps the
    /// caller's allocation, neither a copy nor an interned twin of it.
    pub fn schedule_insert(
        &mut self,
        due: LogicalTime,
        node: NodeId,
        tuple: impl Into<Arc<Tuple>>,
    ) -> Result<()> {
        let tuple = tuple.into();
        self.check_base(&tuple)?;
        self.push(due, Action::InsertBase(node, tuple));
        Ok(())
    }

    /// Schedules a base-tuple deletion not earlier than `due`, holding the
    /// caller's allocation as [`Engine::schedule_insert`] does.
    pub fn schedule_delete(
        &mut self,
        due: LogicalTime,
        node: NodeId,
        tuple: impl Into<Arc<Tuple>>,
    ) -> Result<()> {
        let tuple = tuple.into();
        self.check_base(&tuple)?;
        self.push(due, Action::DeleteBase(node, tuple));
        Ok(())
    }

    /// Schedules one [`ScheduledOp`]: its insertion or deletion.
    pub fn schedule(&mut self, op: &ScheduledOp) -> Result<()> {
        if op.delete {
            self.schedule_delete(op.due, op.node, Arc::clone(&op.tuple))
        } else {
            self.schedule_insert(op.due, op.node, Arc::clone(&op.tuple))
        }
    }

    /// A base operation's tuple must fit its schema and belong to a
    /// non-`Derived` table — so it can never equal a rule head or a
    /// native's emission, which is why it skips the interner.
    fn check_base(&self, tuple: &Tuple) -> Result<()> {
        let schema = self.program.schemas.require(&tuple.table)?;
        schema.check(tuple)?;
        match schema.kind {
            TableKind::Derived => Err(Error::Schema {
                table: tuple.table,
                message: "cannot insert/delete into a derived table".into(),
            }),
            _ => Ok(()),
        }
    }

    fn push(&mut self, due: LogicalTime, action: Action) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled { due, seq, action });
    }

    /// Drains the event queue to quiescence.
    pub fn run(&mut self) -> Result<Stats> {
        // Snapshot the counters when traced so the quiescence summary
        // reports this run's deltas: several runs (or engines) sharing one
        // tracer then accumulate correctly in the aggregate.
        let traced = self.tracer.is_enabled().then(|| {
            (
                self.tracer.span("engine.run"),
                self.stats,
                self.rule_firings(),
                self.join_profile(),
            )
        });
        let result = self.run_inner();
        if result.is_err() {
            // Don't swallow provenance already produced by applied
            // mutations: it belongs to the stream up to the failure.
            self.drain_events();
        }
        // The head interner only grows during a run (nothing is GC'd
        // here), so the quiescent size is the run's high-water mark.
        self.stats.peak_interned = self.stats.peak_interned.max(self.nodes.heads.len() as u64);
        if let Some((span, s0, firings0, profile0)) = traced {
            self.publish_run(s0, &firings0, &profile0);
            span.end();
        }
        result.map(|()| self.stats)
    }

    /// Publishes this run to the tracer at quiescence, before its
    /// `engine.run` span closes: the one place the engine's quantities get
    /// their names. Counters carry this run's deltas, so several runs (or
    /// engines) sharing one tracer add up; levels are absolute readings
    /// and are set or raised instead.
    fn publish_run(
        &self,
        s0: Stats,
        firings0: &BTreeMap<Sym, u64>,
        profile0: &BTreeMap<Sym, RuleJoinProfile>,
    ) {
        /// How a [`Stats`] field reaches the aggregate.
        enum Publish {
            /// Monotone: this run's delta is added to a counter.
            Delta,
            /// High-water mark: the level is raised to the field.
            Peak,
        }
        /// One [`Stats`] field: how to read it, its name, how it is
        /// published.
        type Row = (fn(&Stats) -> u64, &'static str, Publish);
        const STATS: [Row; 15] = [
            (|s| s.events, "engine.events", Publish::Delta),
            (|s| s.base_inserts, "engine.base_inserts", Publish::Delta),
            (|s| s.base_deletes, "engine.base_deletes", Publish::Delta),
            (|s| s.derivations, "engine.derivations", Publish::Delta),
            (|s| s.underivations, "engine.underivations", Publish::Delta),
            (|s| s.peak_tuples, "engine.peak_tuples", Publish::Peak),
            (|s| s.join_probes, "engine.join_probes", Publish::Delta),
            (|s| s.join_scans, "engine.join_scans", Publish::Delta),
            (|s| s.trie_probes, "engine.trie_probes", Publish::Delta),
            (|s| s.trie_scans, "engine.trie_scans", Publish::Delta),
            (|s| s.join_candidates, "engine.join_candidates", Publish::Delta),
            (|s| s.join_matches, "engine.join_matches", Publish::Delta),
            (|s| s.batches, "engine.batches", Publish::Delta),
            (|s| s.batched_deltas, "engine.batched_deltas", Publish::Delta),
            (|s| s.peak_interned, "engine.peak_interned", Publish::Peak),
        ];
        let t = &self.tracer;
        for (field, name, publish) in STATS {
            match publish {
                Publish::Delta => t.counter(name, field(&self.stats) - field(&s0)),
                Publish::Peak => t.level_max(name, field(&self.stats)),
            }
        }
        t.level("engine.live_tuples", self.live_tuples);
        for (node, state) in self.nodes() {
            t.level(&series("engine.node_live", "node", node), state.len() as u64);
        }
        let per_rule = |family: &str, rule: &Sym, now: u64, before: u64| {
            if now > before {
                t.counter(&series(family, "rule", rule), now - before);
            }
        };
        for (rule, &n) in &self.rule_firings() {
            let prev = firings0.get(rule).copied().unwrap_or(0);
            per_rule("engine.rule_fired", rule, n, prev);
        }
        for (rule, p) in &self.join_profile() {
            let prev = profile0.get(rule).copied().unwrap_or_default();
            per_rule("engine.rule_attempts", rule, p.attempts, prev.attempts);
            per_rule("engine.rule_candidates", rule, p.candidates, prev.candidates);
            per_rule("engine.rule_matches", rule, p.matches, prev.matches);
        }
    }

    fn run_inner(&mut self) -> Result<()> {
        loop {
            if self.stats.events >= self.max_events && !self.queue.is_empty() {
                // Checked before the pop, so the event the budget refused
                // is still queued: a cascade whose queue holds exactly one
                // event at a time (a two-node ping-pong, say) must not
                // error into a state with an *empty* queue, from which a
                // second `run()` would return `Ok` with the event lost. A
                // re-run under a raised budget resumes exactly where the
                // budget tripped.
                return Err(Error::Engine(format!(
                    "event limit {} exceeded (runaway program?)",
                    self.max_events
                )));
            }
            let Some(ev) = self.queue.pop() else {
                break;
            };
            self.stats.events += 1;
            self.clock = self.clock.wrapping_add(1).max(ev.due);
            match ev.action {
                Action::InsertBase(node, tuple) => self.do_insert_base(node, tuple)?,
                Action::DeleteBase(node, tuple) => self.do_delete_base(node, tuple)?,
                Action::InsertDerived(d) => self.do_insert_derived(d)?,
            }
            if self.events.len() >= EVENT_HANDOFF {
                self.drain_events();
            }
            // Batch boundary: the next event (if any) carries a different
            // timestamp, so the current delta batch is complete. (The
            // flush may push same-`due` events; they simply open the next
            // batch — visibility is governed by clocks, not `due`.)
            if self.queue.next_due() != Some(ev.due) {
                self.flush_batch()?;
            }
        }
        debug_assert!(self.pending.is_empty() && self.events.is_empty());
        Ok(())
    }

    /// Releases the buffered provenance events to the sink in emission
    /// order.
    fn drain_events(&mut self) {
        if self.events.is_empty() {
            return;
        }
        let span = self.tracer.span("engine.sink");
        // The sink may take the vector; hand the (cleared) allocation back
        // either way so the next batch reuses it.
        let mut events = std::mem::take(&mut self.events);
        self.sink.record_batch(&mut events);
        events.clear();
        self.events = events;
        span.end();
    }

    fn note_appear(&mut self) {
        self.live_tuples += 1;
        self.stats.peak_tuples = self.stats.peak_tuples.max(self.live_tuples);
    }

    fn note_disappear(&mut self) {
        self.live_tuples = self.live_tuples.saturating_sub(1);
    }

    fn do_insert_base(&mut self, node: NodeId, tuple: Arc<Tuple>) -> Result<()> {
        let now = self.clock;
        // `check_base` found the table's schema when the event was
        // scheduled, so the program gave the table an index.
        let table = self
            .program
            .table_index(&tuple.table)
            .ok_or(Error::UnknownTable(tuple.table))?;
        let n = self.nodes.index_or_insert(node);
        let row = self.nodes.row_of(&self.program, n, table, &tuple);
        let slot = self.nodes.slot(row);
        if slot.base {
            return Ok(()); // idempotent re-insert
        }
        let was_present = slot.live;
        if !was_present {
            self.nodes.make_live(row, now);
        }
        let slot = self.nodes.slot_mut(row);
        slot.base = true;
        let since = slot.appeared_at;
        self.stats.base_inserts += 1;
        self.events.push(ProvEvent::InsertBase {
            time: now,
            since,
            node,
            tuple: Arc::clone(&tuple),
        });
        if !was_present {
            self.note_appear();
            self.events.push(ProvEvent::Appear {
                time: now,
                node,
                tuple,
            });
            self.pending.push(Delta { row, at: now });
        }
        Ok(())
    }

    fn do_delete_base(&mut self, node: NodeId, tuple: Arc<Tuple>) -> Result<()> {
        // A deletion must not overtake firings still pending in the
        // current batch: flush them first so the cascade sees exactly the
        // state tuple-at-a-time firing would have built by now.
        self.flush_batch()?;
        let now = self.clock;
        let Some(row) = self.nodes.find(&self.program, &node, &tuple) else {
            return Ok(());
        };
        let slot = self.nodes.slot_mut(row);
        if !slot.base {
            return Ok(());
        }
        slot.base = false;
        let since = slot.appeared_at;
        let gone = !self.nodes.derived(row);
        self.stats.base_deletes += 1;
        self.events.push(ProvEvent::DeleteBase {
            time: now,
            since,
            node,
            tuple: Arc::clone(&tuple),
        });
        if gone {
            let dependents = self.nodes.retire(row);
            self.note_disappear();
            self.events.push(ProvEvent::Disappear {
                time: now,
                since,
                node,
                tuple,
            });
            self.cascade(now, row, dependents);
        }
        Ok(())
    }

    /// The rows of `body` if every one of them is live: the in-flight
    /// re-check, since a cascade may have removed a precondition between
    /// scheduling and delivery. A native's body is found by content here,
    /// as the oracle finds it.
    fn live_body(&self, body: Body) -> Option<Vec<RowRef>> {
        let live = |r: &RowRef| self.nodes.slot(*r).live;
        match body {
            Body::Rows(rows) => rows.iter().all(live).then_some(rows),
            Body::Named(refs) => refs
                .iter()
                .map(|b| self.nodes.find(&self.program, &b.node, &b.tuple).filter(live))
                .collect(),
        }
    }

    fn do_insert_derived(&mut self, d: Derivation) -> Result<()> {
        let Derivation {
            node,
            args,
            table,
            slot,
            body,
            trigger,
        } = d;
        let now = self.clock;
        let Some(body) = self.live_body(body) else {
            return Ok(());
        };
        let n = self.nodes.index_or_insert(node);
        let tuple = Tuple::new(self.program.table_name(table), args.into_vec());
        let head = self.nodes.head_row(&self.program, n, table, tuple);
        let rule = self.program.slot_name(slot as usize);
        // The same (rule, body) derivation only counts once.
        if self.nodes.has_derivation(head, rule, &body) {
            return Ok(());
        }
        // Each body tuple is reported under the episode it is in now, and
        // registers the head, so its disappearance finds this derivation.
        let mut stamped = Vec::with_capacity(body.len());
        for &b in &body {
            stamped.push(BodyRef {
                tref: self.nodes.tuple_ref(b),
                since: self.nodes.slot(b).appeared_at,
            });
            self.nodes.depend(b, head);
        }
        let was_present = self.nodes.slot(head).live;
        if !was_present {
            self.nodes.make_live(head, now);
        }
        self.nodes.push_derivation(head, rule, &body, trigger, now);
        let held = self.nodes.slot(head);
        let (since, tuple) = (held.appeared_at, &held.tuple);
        self.events.push(ProvEvent::Derive {
            time: now,
            since,
            node,
            tuple: Arc::clone(tuple),
            rule,
            body: stamped,
            trigger: trigger as usize,
        });
        if !was_present {
            self.events.push(ProvEvent::Appear {
                time: now,
                node,
                tuple: Arc::clone(tuple),
            });
            self.note_appear();
            self.pending.push(Delta { row: head, at: now });
        }
        self.stats.derivations += 1;
        self.rule_firings[slot as usize] += 1;
        Ok(())
    }

    /// `gone` has disappeared and `dependents` is the reverse-dependency
    /// list its row held, in registration order: removes every derivation
    /// that used it as a body tuple, recursively retiring tuples whose
    /// support drops to zero. A head no longer live is skipped, as is one
    /// whose derivations from `gone` have gone already.
    fn cascade(&mut self, now: LogicalTime, gone: RowRef, dependents: u32) {
        let mut next = dependents;
        while next != state::NIL {
            let (head, after) = self.nodes.next_dependent(gone, next);
            next = after;
            if !self.nodes.slot(head).live {
                continue;
            }
            let slot = self.nodes.slot(head);
            let (since, tuple) = (slot.appeared_at, Arc::clone(&slot.tuple));
            let node = self.nodes.nodes[head.node as usize].id;
            let (events, stats) = (&mut self.events, &mut self.stats);
            let mut underived = false;
            self.nodes.withdraw(head, gone, |rule| {
                underived = true;
                stats.underivations += 1;
                events.push(ProvEvent::Underive {
                    time: now,
                    since,
                    node,
                    tuple: Arc::clone(&tuple),
                    rule,
                });
            });
            if !underived || self.nodes.slot(head).base || self.nodes.derived(head) {
                continue;
            }
            let dependents = self.nodes.retire(head);
            self.note_disappear();
            self.events.push(ProvEvent::Disappear {
                time: now,
                since,
                node,
                tuple,
            });
            self.cascade(now, head, dependents);
        }
    }

    /// Fires the rules of every delta accumulated in the current batch,
    /// queues what they scheduled, then releases the buffered provenance
    /// events to the sink.
    ///
    /// [`FireCtx::fire_deltas`] leaves the batch's actions in one flat
    /// buffer already in push order — delta by delta, which is the push
    /// (and therefore pop) sequence of tuple-at-a-time firing — so they
    /// are queued as they stand. Each delta fires with its own `now` and
    /// `as_of` horizon so joins, builtins, and natives observe the state
    /// as of that delta's appearance. A firing error queues none of the
    /// batch's actions.
    fn flush_batch(&mut self) -> Result<()> {
        if !self.pending.is_empty() {
            let flush_span = self.tracer.span("engine.flush");
            let deltas = std::mem::take(&mut self.pending);
            self.stats.batches += 1;
            self.stats.batched_deltas += deltas.len() as u64;
            let mut actions = std::mem::take(&mut self.flush_buf);
            let span = self.tracer.span("engine.fire");
            let ctx = FireCtx {
                program: &self.program,
                nodes: &self.nodes,
            };
            let mut out = FireOut {
                stats: &mut self.stats,
                profile: &mut self.join_profile,
                actions: &mut actions,
                scratch: &mut self.scratch,
            };
            let fired = ctx.fire_deltas(&deltas, &mut out);
            span.end();
            if let Err(e) = fired {
                // What the deltas before the failing one scheduled is
                // dropped here, not left for the next flush to queue.
                actions.clear();
                self.flush_buf = actions;
                return Err(e);
            }
            for (due, action) in actions.drain(..) {
                self.push(due, action);
            }
            self.flush_buf = actions;
            let (depth, queued) = (deltas.len() as u64, self.queue.len() as u64);
            flush_span.end_with(|agg| {
                agg.observe_size("engine.batch_deltas", depth);
                agg.set_level("engine.queue_depth", queued);
            });
        }
        self.drain_events();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::VecSink;
    use dp_types::{tuple, FieldType, Schema, SchemaRegistry};

    fn simple_schemas() -> SchemaRegistry {
        let mut reg = SchemaRegistry::new();
        reg.declare(Schema::new(
            "a",
            TableKind::ImmutableBase,
            [("x", FieldType::Int), ("y", FieldType::Int)],
        ));
        reg.declare(Schema::new(
            "b",
            TableKind::MutableBase,
            [("x", FieldType::Int), ("y", FieldType::Int), ("z", FieldType::Int)],
        ));
        reg.declare(Schema::new(
            "c",
            TableKind::Derived,
            [("x", FieldType::Int), ("y2", FieldType::Int), ("z1", FieldType::Int)],
        ));
        reg
    }

    /// The paper's Figure 4 rule: C(x, y*y, z+1) :- A(x,y), B(x,y,z).
    fn fig4_program() -> Arc<Program> {
        Program::builder(simple_schemas())
            .rules_text(
                "rc c(@N, X, Y2, Z1) :- a(@N, X, Y), b(@N, X, Y, Z), Y2 := Y * Y, Z1 := Z + 1.",
            )
            .unwrap()
            .build()
            .unwrap()
    }

    fn queued(due: LogicalTime, seq: u64) -> Scheduled {
        let action = Action::InsertBase(NodeId::new("n"), Arc::new(tuple!("a", 1, 1)));
        Scheduled { due, seq, action }
    }

    /// The run-beside-heap queue against one plain heap of `(due, seq)`
    /// keys: seeded interleavings of pushes with non-monotone dues and
    /// pops must agree on every pop, every `next_due` and every `len`.
    #[test]
    fn queue_pops_in_the_order_of_one_heap() {
        for seed in 0..32 {
            let mut rng = dp_types::DetRng::seed_from_u64(seed);
            let (mut queue, mut model) = (Queue::default(), BinaryHeap::new());
            let push_bias = 0.35 + 0.1 * (seed % 4) as f64;
            let (mut seq, mut pops, mut via_heap) = (0, 0, 0);
            for step in 0..4_000 {
                // Drain completely now and then: an empty run is a case.
                let draining = step % 1_000 >= 900;
                if !draining && rng.gen_bool(push_bias) {
                    // Ascending stretches (the log's shape) broken by
                    // dues from anywhere (derived events' shape).
                    let due = if rng.gen_bool(0.5) { seq / 3 } else { rng.gen_range_u64(0, 60) };
                    queue.push(queued(due, seq));
                    model.push(Reverse((due, seq)));
                    seq += 1;
                } else {
                    let want = model.pop().map(|Reverse(key)| key);
                    assert_eq!(queue.pop().map(|ev| (ev.due, ev.seq)), want, "seed {seed}");
                    pops += 1;
                }
                via_heap += usize::from(!queue.heap.is_empty());
                let peek = model.peek().map(|&Reverse((due, _))| due);
                assert_eq!(queue.next_due(), peek, "seed {seed} step {step}");
                assert_eq!(queue.len(), model.len(), "seed {seed} step {step}");
                assert_eq!(queue.is_empty(), model.is_empty());
            }
            assert!(pops > 1_000 && via_heap > 100, "seed {seed}: both halves exercised");
        }
    }

    /// The replay's shape: the log scheduled in ascending order, then
    /// derived events pushed between pops, due at or just after the event
    /// that caused them. The log stays the run, popped front to back, and
    /// the heap only ever holds what is in flight.
    #[test]
    fn queue_keeps_a_replayed_log_out_of_the_heap() {
        let n = 20_000;
        let mut rng = dp_types::DetRng::seed_from_u64(7);
        let (mut queue, mut model) = (Queue::default(), BinaryHeap::new());
        let mut seq = 0;
        for i in 0..n {
            queue.push(queued(10 + i / 4, seq));
            model.push(Reverse((10 + i / 4, seq)));
            seq += 1;
        }
        assert_eq!((queue.run.len(), queue.heap.len()), (n as usize, 0));
        let mut high_water = 0;
        while let Some(ev) = queue.pop() {
            assert_eq!(model.pop(), Some(Reverse((ev.due, ev.seq))));
            // Base events derive a few heads; heads derive fewer.
            let fanout = if ev.seq < n { 3 } else { 1 };
            for _ in 0..fanout {
                if rng.gen_bool(0.4) {
                    let due = ev.due + rng.gen_range_u64(0, 2);
                    queue.push(queued(due, seq));
                    model.push(Reverse((due, seq)));
                    seq += 1;
                }
            }
            high_water = high_water.max(queue.heap.len());
        }
        assert!(model.is_empty() && seq > n + n / 2, "{seq} events in all");
        assert!(high_water * 100 < n as usize, "heap held {high_water} of {n}");
    }

    #[test]
    fn derives_fig4_example() {
        let mut eng = Engine::new(fig4_program(), VecSink::default());
        let n = NodeId::new("n1");
        eng.schedule_insert(0, n, tuple!("a", 1, 2)).unwrap();
        eng.schedule_insert(0, n, tuple!("b", 1, 2, 3)).unwrap();
        eng.run().unwrap();
        assert!(eng.lookup(&n, &tuple!("c", 1, 4, 4)).is_some());
        // Trigger is the last tuple to appear: b (atom index 1).
        let st = eng.lookup(&n, &tuple!("c", 1, 4, 4)).unwrap();
        assert_eq!(st.derivations.len(), 1);
        assert_eq!(st.derivations[0].trigger, 1);
        assert_eq!(st.derivations[0].body[0].tuple, tuple!("a", 1, 2));
        assert_eq!(st.derivations[0].body[1].tuple, tuple!("b", 1, 2, 3));
    }

    #[test]
    fn join_requires_all_preconditions() {
        let mut eng = Engine::new(fig4_program(), VecSink::default());
        let n = NodeId::new("n1");
        eng.schedule_insert(0, n, tuple!("b", 1, 2, 3)).unwrap();
        eng.run().unwrap();
        assert!(eng.lookup(&n, &tuple!("c", 1, 4, 4)).is_none());
        // Now the missing precondition arrives; it becomes the trigger.
        eng.schedule_insert(10, n, tuple!("a", 1, 2)).unwrap();
        eng.run().unwrap();
        let st = eng.lookup(&n, &tuple!("c", 1, 4, 4)).unwrap();
        assert_eq!(st.derivations[0].trigger, 0);
    }

    #[test]
    fn join_variables_must_agree() {
        let mut eng = Engine::new(fig4_program(), VecSink::default());
        let n = NodeId::new("n1");
        eng.schedule_insert(0, n, tuple!("a", 1, 2)).unwrap();
        eng.schedule_insert(0, n, tuple!("b", 1, 9, 3)).unwrap(); // y mismatch
        eng.run().unwrap();
        assert_eq!(eng.view(&n).unwrap().table(&Sym::new("c")).count(), 0);
    }

    #[test]
    fn deletion_cascades_and_emits_negative_events() {
        let mut eng = Engine::new(fig4_program(), VecSink::default());
        let n = NodeId::new("n1");
        eng.schedule_insert(0, n, tuple!("a", 1, 2)).unwrap();
        eng.schedule_insert(0, n, tuple!("b", 1, 2, 3)).unwrap();
        eng.run().unwrap();
        assert!(eng.lookup(&n, &tuple!("c", 1, 4, 4)).is_some());
        eng.schedule_delete(100, n, tuple!("b", 1, 2, 3)).unwrap();
        eng.run().unwrap();
        assert!(eng.lookup(&n, &tuple!("c", 1, 4, 4)).is_none());
        let events = &eng.sink.events;
        assert!(events.iter().any(|e| matches!(e, ProvEvent::Underive { tuple, .. } if **tuple == tuple!("c", 1, 4, 4))));
        assert!(events.iter().any(|e| matches!(e, ProvEvent::Disappear { tuple, .. } if **tuple == tuple!("c", 1, 4, 4))));
    }

    #[test]
    fn timestamps_are_unique_and_increasing() {
        let mut eng = Engine::new(fig4_program(), VecSink::default());
        let n = NodeId::new("n1");
        for i in 0..10 {
            eng.schedule_insert(0, n, tuple!("a", i, i)).unwrap();
            eng.schedule_insert(0, n, tuple!("b", i, i, i)).unwrap();
        }
        eng.run().unwrap();
        let mut appear_times: Vec<LogicalTime> = eng
            .sink
            .events
            .iter()
            .filter_map(|e| match e {
                ProvEvent::Appear { time, .. } => Some(*time),
                _ => None,
            })
            .collect();
        let sorted = appear_times.clone();
        appear_times.dedup();
        assert_eq!(appear_times.len(), sorted.len(), "duplicate appear timestamps");
    }

    #[test]
    fn execution_is_deterministic() {
        let run = || {
            let mut eng = Engine::new(fig4_program(), VecSink::default());
            let n = NodeId::new("n1");
            for i in 0..20 {
                eng.schedule_insert(0, n, tuple!("a", i % 5, i % 3)).unwrap();
                eng.schedule_insert(0, n, tuple!("b", i % 5, i % 3, i)).unwrap();
            }
            eng.run().unwrap();
            eng.into_sink().events
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn indexed_join_probes_instead_of_scanning() {
        let mut eng = Engine::new(fig4_program(), VecSink::default());
        let n = NodeId::new("n1");
        for i in 0..10 {
            eng.schedule_insert(0, n, tuple!("a", i, i)).unwrap();
            eng.schedule_insert(0, n, tuple!("b", i, i, i)).unwrap();
        }
        eng.run().unwrap();
        let stats = eng.stats();
        assert!(stats.join_probes > 0, "no probes: {stats:?}");
        assert_eq!(stats.join_scans, 0, "unexpected scans: {stats:?}");
        assert!(stats.index_hit_rate() > 0.99);
        let profile = eng.join_profile().get(&Sym::new("rc")).copied().unwrap();
        assert_eq!(profile.attempts, 20);
        // Indexed probing examines only matching candidates: each probe
        // yields at most one candidate here.
        assert!(profile.candidates <= profile.probes);
    }

    #[test]
    fn peak_tuples_tracks_high_water_mark() {
        let mut eng = Engine::new(fig4_program(), VecSink::default());
        let n = NodeId::new("n1");
        eng.schedule_insert(0, n, tuple!("a", 1, 2)).unwrap();
        eng.schedule_insert(0, n, tuple!("b", 1, 2, 3)).unwrap();
        eng.run().unwrap();
        assert_eq!(eng.stats().peak_tuples, 3); // a, b, c
        eng.schedule_delete(100, n, tuple!("b", 1, 2, 3)).unwrap();
        eng.run().unwrap();
        assert_eq!(eng.stats().peak_tuples, 3); // peak unchanged after delete
    }

    #[test]
    fn remote_head_is_delivered_to_other_node() {
        let mut reg = SchemaRegistry::new();
        reg.declare(Schema::new(
            "ping",
            TableKind::ImmutableBase,
            [("v", FieldType::Int)],
        ));
        reg.declare(Schema::new(
            "nbr",
            TableKind::MutableBase,
            [("next", FieldType::Str)],
        ));
        reg.declare(Schema::new("pong", TableKind::Derived, [("v", FieldType::Int)]));
        let program = Program::builder(reg)
            .rules_text("fwd pong(@M, V) :- ping(@N, V), nbr(@N, M).")
            .unwrap()
            .build()
            .unwrap();
        let mut eng = Engine::new(program, VecSink::default());
        let n1 = NodeId::new("n1");
        let n2 = NodeId::new("n2");
        eng.schedule_insert(0, n1, tuple!("nbr", "n2")).unwrap();
        eng.schedule_insert(0, n1, tuple!("ping", 7)).unwrap();
        eng.run().unwrap();
        let st = eng.lookup(&n2, &tuple!("pong", 7)).unwrap();
        assert_eq!(st.derivations[0].body[0].node, n1);
    }

    #[test]
    fn rejects_base_ops_on_derived_tables() {
        let mut eng = Engine::new(fig4_program(), VecSink::default());
        let n = NodeId::new("n1");
        assert!(eng.schedule_insert(0, n, tuple!("c", 1, 2, 3)).is_err());
        assert!(eng.schedule_delete(0, n, tuple!("c", 1, 2, 3)).is_err());
    }

    #[test]
    fn rejects_schema_violations() {
        let mut eng = Engine::new(fig4_program(), VecSink::default());
        let n = NodeId::new("n1");
        assert!(eng.schedule_insert(0, n, tuple!("a", 1)).is_err());
        assert!(eng.schedule_insert(0, n, tuple!("nosuch", 1)).is_err());
    }

    #[test]
    fn event_limit_guards_runaway_programs() {
        // p(@N, X1) :- p(@N, X), X1 := X + 1 diverges; the limit stops it.
        let mut reg = SchemaRegistry::new();
        reg.declare(Schema::new("seed", TableKind::ImmutableBase, [("x", FieldType::Int)]));
        reg.declare(Schema::new("p", TableKind::Derived, [("x", FieldType::Int)]));
        let program = Program::builder(reg)
            .rules_text(
                "init p(@N, X) :- seed(@N, X).\n\
                 step p(@N, X1) :- p(@N, X), X1 := X + 1.",
            )
            .unwrap()
            .build()
            .unwrap();
        let mut eng = Engine::new(program, NullSinkForTest);
        eng.max_events = 10_000;
        eng.schedule_insert(0, NodeId::new("n"), tuple!("seed", 0)).unwrap();
        let err = eng.run().unwrap_err();
        assert!(err.to_string().contains("event limit"), "{err}");
    }

    struct NullSinkForTest;
    impl ProvenanceSink for NullSinkForTest {
        fn record(&mut self, _e: ProvEvent) {}
    }

    #[test]
    fn rule_firings_are_counted_per_rule() {
        let mut eng = Engine::new(fig4_program(), VecSink::default());
        let n = NodeId::new("n1");
        for i in 0..5 {
            eng.schedule_insert(0, n, tuple!("a", i, i)).unwrap();
            eng.schedule_insert(0, n, tuple!("b", i, i, i)).unwrap();
        }
        eng.run().unwrap();
        assert_eq!(eng.rule_firings().get(&Sym::new("rc")), Some(&5));
        assert_eq!(eng.rule_firings().get(&Sym::new("nope")), None);
    }

    #[test]
    fn duplicate_derivation_is_counted_once() {
        let mut eng = Engine::new(fig4_program(), VecSink::default());
        let n = NodeId::new("n1");
        eng.schedule_insert(0, n, tuple!("a", 1, 2)).unwrap();
        eng.schedule_insert(0, n, tuple!("b", 1, 2, 3)).unwrap();
        // Re-inserting the same base tuple is idempotent; no second firing.
        eng.schedule_insert(50, n, tuple!("a", 1, 2)).unwrap();
        eng.run().unwrap();
        let st = eng.lookup(&n, &tuple!("c", 1, 4, 4)).unwrap();
        assert_eq!(st.derivations.len(), 1);
    }

    #[test]
    fn multiple_derivations_keep_tuple_alive() {
        // Two different b-tuples derive the same c-tuple? They do not (z
        // differs), so use two a-tuples joining one b: a(1,2) only. Instead
        // verify support via base+derived: re-derive c after deleting one of
        // two supporting bodies.
        let mut reg = simple_schemas();
        reg.declare(Schema::new("d", TableKind::Derived, [("x", FieldType::Int)]));
        let program = Program::builder(reg)
            .rules_text(
                "rd d(@N, X) :- b(@N, X, _, _).",
            )
            .unwrap()
            .build()
            .unwrap();
        let mut eng = Engine::new(program, VecSink::default());
        let n = NodeId::new("n1");
        eng.schedule_insert(0, n, tuple!("b", 1, 0, 0)).unwrap();
        eng.schedule_insert(0, n, tuple!("b", 1, 0, 1)).unwrap();
        eng.run().unwrap();
        assert_eq!(eng.lookup(&n, &tuple!("d", 1)).unwrap().support(), 2);
        eng.schedule_delete(100, n, tuple!("b", 1, 0, 0)).unwrap();
        eng.run().unwrap();
        // One support gone, tuple still alive.
        assert_eq!(eng.lookup(&n, &tuple!("d", 1)).unwrap().support(), 1);
        eng.schedule_delete(200, n, tuple!("b", 1, 0, 1)).unwrap();
        eng.run().unwrap();
        assert!(eng.lookup(&n, &tuple!("d", 1)).is_none());
    }
}
