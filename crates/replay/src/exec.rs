//! Executions and deterministic replay.
//!
//! An [`Execution`] bundles a program with the base-event log of one run of
//! the primary system. Everything DiffProv needs is derived from it by
//! *replay* (Section 5): reconstructing provenance at query time,
//! and re-running with a set of tuple changes applied to a **clone** of
//! the execution (Section 4.6 — changes never touch the running system).
//! The clone is cheap and shared: a log holds its tuples behind `Arc`s, so
//! a cloned or patched log, every engine replaying either and every
//! recording made of them point at one allocation per base tuple.

use std::borrow::Cow;
use std::sync::Arc;

use dp_ndlog::{Engine, HashSink, NullSink, Program, ProvenanceSink, TupleChange};
use dp_provenance::{
    extract_tree_latest, extract_tree_since, GraphRecorder, ProvGraph, ProvTree, Step, VertexId,
};
use dp_trace::Tracer;
use dp_types::{LogicalTime, NodeId, Result, Tuple, TupleRef};

use crate::log::{BaseEvent, BaseOp, EventLog};
use crate::roll::{self, Phase, Refusal, Suffix};

/// Shim for the frozen `benchmark/` (ROADMAP item 1): there is one
/// provenance backend, and both values record the graph.
#[derive(Clone, Copy)]
pub enum ProvBackend {
    /// The temporal provenance graph.
    Graph,
    /// Also the graph.
    Annot,
}

/// A program plus the logged base events of one run.
#[derive(Clone)]
pub struct Execution {
    /// The system model.
    pub program: Arc<Program>,
    /// The logged base events.
    pub log: EventLog,
    /// The instrumentation handle threaded into every engine, recorder,
    /// store and tree extraction this execution performs (disabled by
    /// default). Cloned freely — clones share one aggregate, so the
    /// UPDATETREE replays of a cloned execution add up with the
    /// original's. Strictly passive: every setting
    /// replays the identical provenance stream.
    pub tracer: Tracer,
    /// Shim for the frozen `benchmark/` (ROADMAP item 1): read by nothing.
    pub provenance_backend: ProvBackend,
}

/// The outcome of a replay: a quiescent engine plus the provenance graph
/// recorded during re-execution.
pub struct Replayed {
    /// The engine at quiescence (final state; usable for existence checks).
    pub engine: Engine<GraphRecorder>,
    /// The change set (and its inject point) this state was last rolled
    /// to by [`Replayed::roll_forward`]; empty after a plain replay. The
    /// log the held state reflects is the execution's log with these
    /// changes applied.
    rolled: (Vec<TupleChange>, LogicalTime),
    /// Base ops scheduled on the held engine so far: the replay's, then
    /// each roll's. When the engine acted on as many (`base_inserts +
    /// base_deletes`), none of them was a no-op.
    scheduled: u64,
    /// True until the first roll: the recording is the replay's alone, so
    /// its base vertices are the log's events, in order.
    fresh: bool,
}

impl Replayed {
    /// Wraps a quiescent engine whose state reflects the execution's log
    /// as it stands, `scheduled` base ops of it run on this engine.
    fn new(engine: Engine<GraphRecorder>, scheduled: usize) -> Self {
        Replayed {
            engine,
            rolled: (Vec::new(), 0),
            scheduled: scheduled as u64,
            fresh: true,
        }
    }

    /// UPDATETREE (Section 4.6): brings this replay of `exec` to the state
    /// and provenance of `exec.replay_with(delta, inject_at)` by change
    /// propagation instead of a second replay. `self` must come from
    /// `exec.replay()`, possibly rolled before.
    ///
    /// The patched log is the one [`Execution::replay_with`] replays
    /// ([`apply_changes`]), read as a stream instead of built. The **fork**
    /// is the first replay-order position where it differs from the log the
    /// held state reflects; everything before it is shared and stays as it
    /// is. The suffixes from the fork on borrow the log's events, and each
    /// event's located tuple is keyed once. Of the suffix, only what the
    /// change can reach moves, on the same engine and recorder (the module
    /// `roll` names the parts):
    ///
    /// * **(A)** Δ is applied at the current clock — the located tuples a
    ///   change names restored to the prefix's base presence, then the
    ///   patched log's events of theirs scheduled — and run to quiescence.
    ///   What opened or closed is what Δ touches.
    /// * **(B)** One walk over the held recording finds the suffix's
    ///   located tuples whose firings Δ reaches: retracted, derived from a
    ///   withdrawn body, or reading a touched tuple through a builtin, an
    ///   aggregate or a native ([`dp_ndlog::Program::reads`]).
    /// * **(C)** The changed and affected located tuples are restored to
    ///   the prefix's base presence — the engine's own cascade is the
    ///   rewind — and the patched log's events of theirs are re-issued in
    ///   log order, shifted so that the first is due just after the current
    ///   clock and the spacing between their dues is kept. (A finished
    ///   replay's clock has overrun every logged due: at their original
    ///   dues all re-issued base events — phase fences included — would pop
    ///   before any derived work.) Every other suffix event keeps its
    ///   tuples and episodes.
    ///
    /// The whole-suffix withdraw is the case where every suffix event is
    /// affected. One fixed rule, read off the log and the held recording
    /// and not an option, sends a call to a from-scratch replay of the
    /// patched log instead (the held engine is released first), the trust
    /// rule: a prefix firing that read state through a builtin, an
    /// aggregate or a native, and that the change could reach, cannot be
    /// re-issued; nor may a firing outside the re-issued events read what
    /// phase C changed, an independent episode close, or a re-issued event
    /// join an independent one logged after it (the relative order, and so
    /// FINDSEED, would differ). Each refusal is counted under
    /// `replay.refused{why}`.
    ///
    /// Live tuples and the trees [`Replayed::query`] returns equal the
    /// from-scratch replay's up to timestamps, and so does every seed but
    /// one kind: the roll runs the prefix to quiescence before it re-issues
    /// anything, so a derivation that joined a re-issued event with prefix
    /// work still in flight at the fork is triggered by the re-issued one
    /// (`roll_forward_differential.rs`). The recording additionally keeps
    /// the history of what was withdrawn. After an `Err` the state is
    /// unspecified.
    pub fn roll_forward(
        &mut self,
        exec: &Execution,
        delta: &[TupleChange],
        inject_at: LogicalTime,
    ) -> Result<()> {
        let tracer = self.engine.tracer().clone();
        match self.rewind(exec, delta, inject_at, &tracer)? {
            Ok(()) => tracer.counter("replay.rolled{path=roll}", 1),
            Err(why) => {
                tracer.counter(why.series(), 1);
                tracer.counter("replay.rolled{path=scratch}", 1);
                // Release the held recording before the replay builds its
                // log and allocates its own, so the two never coexist.
                self.engine = Engine::new(Arc::clone(&exec.program), exec.recorder());
                *self = exec.replay_with(delta, inject_at)?;
            }
        }
        self.rolled = (delta.to_vec(), inject_at);
        self.fresh = false;
        Ok(())
    }

    /// The roll path, or why the caller has to replay from scratch —
    /// nothing this borrowed or built is alive by then.
    fn rewind(
        &mut self,
        exec: &Execution,
        delta: &[TupleChange],
        inject_at: LogicalTime,
        tracer: &Tracer,
    ) -> Result<std::result::Result<(), Refusal>> {
        // Both logs are read as streams over the execution's own, and the
        // suffixes borrow its events: the held recording is alive, and a
        // materialized copy of a campus log beside it would raise the
        // diagnosis's peak memory.
        let log = exec.log.events();
        let (rolled, rolled_at) = std::mem::take(&mut self.rolled);
        let span = tracer.span("replay.fork");
        let held = Patched::new(&log, &rolled, rolled_at);
        let patched = Patched::new(&log, delta, inject_at);
        let held_len = held.len();
        // One walk down both streams: side by side to the first pair that
        // differs, then each on its own to its end.
        let (mut h, mut p) = (held.events(), patched.events());
        let mut fork = 0;
        let parted = loop {
            match (h.next(), p.next()) {
                // Mostly both borrow the one logged event.
                (Some(a), Some(b)) if (a.0.is_some() && a.0 == b.0) || a.1 == b.1 => fork += 1,
                pair => break pair,
            }
        };
        tracer.counter("replay.fork_events", (held_len - fork) as u64);
        tracer.counter("replay.log_events", held_len as u64);
        // The engine counts the base ops it acted on; when that is every op
        // it was ever given, none of the withdrawn ones was a no-op and the
        // walk over the prefix that would find the prefix's presence has
        // nothing to add to what the suffix's first ops say.
        let acted = self.engine.stats();
        let every_op = acted.base_inserts + acted.base_deletes == self.scheduled;
        let engine = &self.engine;
        let mut suffix = Suffix::new(
            log.len(),
            parted.0.into_iter().chain(h),
            parted.1.into_iter().chain(p),
            &[&rolled, delta],
            (!every_op).then(|| held.events().take(fork).map(|(_, e)| e)),
            |node, tuple| engine.lookup(node, tuple).is_some_and(|s| s.base),
        );
        tracer.counter("replay.suffix_tuples", suffix.tuples() as u64);
        // A fresh replay's base vertices are the ops the engine acted on,
        // in log order: the walk starts at the first of the suffix's.
        let acted_ops = (acted.base_inserts + acted.base_deletes) as usize;
        let start = match acted_ops.checked_sub(suffix.acted) {
            Some(prefix_ops) if self.fresh => self.base_vertex(prefix_ops),
            _ => 0,
        };
        span.end();

        // (A) Δ at the clock.
        let span = tracer.span("replay.apply");
        let phase = Phase {
            start,
            held: self.graph().len() as VertexId,
            at: self.now(),
        };
        self.restore(&suffix.restore(true))?;
        let at = self.now();
        let mut applied = 0;
        for e in suffix.events(true) {
            e.schedule_as(&mut self.engine, at, e.op)?;
            applied += 1;
        }
        self.scheduled += applied;
        self.engine.run()?;
        span.end();

        // (B) What Δ reaches.
        let span = tracer.span("replay.affect");
        let found = roll::affect(&self.engine, &mut suffix, phase);
        span.end();
        tracer.counter("replay.affected_events", suffix.events(false).count() as u64);
        let found = match found {
            Ok(found) => found,
            Err(why) => return Ok(Err(why)),
        };

        // (C) Withdraw and re-issue what Δ reaches.
        let from = self.graph().len() as VertexId;
        let span = tracer.span("replay.withdraw");
        self.restore(&suffix.restore(false))?;
        span.end();
        self.reissue(suffix.events(false), tracer)?;
        let span = tracer.span("replay.settle");
        let settled = roll::settled(&self.engine, &suffix, found, from);
        span.end();
        Ok(settled)
    }

    /// The vertex of the `n`th base insertion or deletion the recording
    /// holds (its length when it holds fewer).
    fn base_vertex(&self, n: usize) -> VertexId {
        let graph = self.graph();
        let mut seen = 0;
        for v in 0..graph.len() as VertexId {
            if matches!(graph.step(v).1, Step::Insert | Step::Delete) {
                if seen == n {
                    return v;
                }
                seen += 1;
            }
        }
        graph.len() as VertexId
    }

    /// Re-issues `events` (in log order), shifted so that the first is due
    /// just after the current clock and the spacing between their dues is
    /// kept.
    fn reissue<'e>(
        &mut self,
        events: impl Iterator<Item = &'e BaseEvent>,
        tracer: &Tracer,
    ) -> Result<()> {
        let span = tracer.span("replay.reissue");
        let base = self.now() + 1;
        let mut first = None;
        for e in events {
            let first = *first.get_or_insert(e.due);
            e.schedule_as(&mut self.engine, base + (e.due - first), e.op)?;
            self.scheduled += 1;
        }
        self.engine.run()?;
        span.end();
        Ok(())
    }

    /// Sets each located tuple's base presence to the one given, at the
    /// current clock, last logged first, and runs to quiescence: the
    /// engine's cascade retracts what depended on a tuple that goes, and a
    /// tuple that comes back fires as it would have.
    fn restore(&mut self, tuples: &[(&TupleRef, bool)]) -> Result<()> {
        let at = self.now();
        for &(t, present) in tuples {
            if self.engine.lookup(&t.node, &t.tuple).is_some_and(|s| s.base) == present {
                continue;
            }
            let (node, tuple) = (t.node, Arc::clone(&t.tuple));
            if present {
                self.engine.schedule_insert(at, node, tuple)?;
            } else {
                self.engine.schedule_delete(at, node, tuple)?;
            }
            self.scheduled += 1;
        }
        self.engine.run()?;
        Ok(())
    }

    /// The recorded provenance graph.
    pub fn graph(&self) -> &ProvGraph {
        &self.engine.sink().graph
    }

    /// Shim for the frozen `benchmark/` (ROADMAP item 1): [`Replayed::graph`].
    pub fn annotations(&self) -> &ProvGraph {
        self.graph()
    }

    /// The logical time at quiescence.
    pub fn now(&self) -> LogicalTime {
        self.engine.now()
    }

    /// True if the located tuple is present in the final state.
    pub fn exists(&self, node: &NodeId, tuple: &Tuple) -> bool {
        self.engine.contains(node, tuple)
    }

    /// The provenance tree of `root` as of the final state.
    ///
    /// The graph finds the episode by key, not by search: an episode
    /// covering the final state is open, so the tuple is live and the
    /// engine's own table holds the clock it appeared at.
    pub fn query(&self, root: &TupleRef) -> Option<ProvTree> {
        self.timed_extract(|| extract_tree_since(self.graph(), root, self.live_since(root)?))
    }

    /// The provenance tree of `root` as of `at` (temporal query; tolerates
    /// tuples that have since disappeared).
    ///
    /// The wanted episode is the last one that started by `at`. For a
    /// tuple that is live and appeared by `at` that is its current one,
    /// found by key like [`Replayed::query`]'s; only a tuple that is gone,
    /// or that reappeared after `at`, costs the graph a scan of its
    /// episodes.
    pub fn query_at(&self, root: &TupleRef, at: LogicalTime) -> Option<ProvTree> {
        self.timed_extract(|| {
            self.live_since(root)
                .filter(|&since| since <= at)
                .and_then(|since| extract_tree_since(self.graph(), root, since))
                .or_else(|| extract_tree_latest(self.graph(), root, at))
        })
    }

    /// When the live tuple `root` appeared: the key of its open episode.
    fn live_since(&self, root: &TupleRef) -> Option<LogicalTime> {
        Some(self.engine.lookup(&root.node, &root.tuple)?.appeared_at)
    }

    /// Runs `extract` in a `prov.extract` span on the replaying engine's
    /// tracer (inert when that is disabled): the one stopwatch around a
    /// tree extraction. A found tree's size rides the close.
    fn timed_extract(&self, extract: impl FnOnce() -> Option<ProvTree>) -> Option<ProvTree> {
        let span = self.engine.tracer().span("prov.extract");
        let tree = extract();
        span.end_with(|agg| {
            if let Some(tree) = &tree {
                agg.observe_size("prov.tree_vertices", tree.len() as u64);
            }
        });
        tree
    }
}

impl Execution {
    /// Creates an execution over `program` with an empty log.
    pub fn new(program: Arc<Program>) -> Self {
        Execution {
            program,
            log: EventLog::new(),
            tracer: Tracer::disabled(),
            provenance_backend: ProvBackend::Graph,
        }
    }

    /// Attaches this execution's tracer to a freshly built engine.
    pub(crate) fn configure<S: ProvenanceSink>(&self, engine: &mut Engine<S>) {
        engine.set_tracer(self.tracer.clone());
    }

    /// The recorder for a replaying engine, sharing the execution's tracer
    /// so batched provenance folds show up in the same trace.
    fn recorder(&self) -> GraphRecorder {
        GraphRecorder::with_tracer(self.tracer.clone())
    }

    /// Schedules the log on a fresh engine over `sink` and runs it: the
    /// quiescent engine and how many base ops it was given.
    fn run_into<S: ProvenanceSink>(&self, sink: S) -> Result<(Engine<S>, usize)> {
        let mut engine = Engine::new(Arc::clone(&self.program), sink);
        self.configure(&mut engine);
        let span = self.tracer.span("replay.schedule");
        let scheduled = self.log.schedule_into(&mut engine)?;
        span.end_with(|agg| agg.add("replay.scheduled", scheduled as u64));
        engine.run()?;
        Ok((engine, scheduled))
    }

    /// Replays the full log, recording provenance.
    pub fn replay(&self) -> Result<Replayed> {
        let (engine, scheduled) = self.run_into(self.recorder())?;
        Ok(Replayed::new(engine, scheduled))
    }

    /// Replays without recording provenance: the cost of evaluation
    /// alone, with the execution's tracer attached.
    pub fn replay_null(&self) -> Result<Engine<NullSink>> {
        Ok(self.run_into(NullSink)?.0)
    }

    /// Replays the full log through a [`HashSink`], returning the
    /// order-sensitive digest of the provenance event stream and the
    /// number of events folded into it.
    ///
    /// The digest is the determinism fingerprint the simulation harness
    /// leans on: replaying the same execution twice, from memory or from
    /// a store sealed in one session or across restarts, must produce the
    /// same value — and so must [`Execution::reference_stream_digest`].
    /// Nothing is buffered, so the check is safe on executions whose
    /// streams would not fit in memory.
    pub fn stream_digest(&self) -> Result<(u64, u64)> {
        let sink = self.run_into(HashSink::default())?.0.into_sink();
        Ok((sink.digest(), sink.count))
    }

    /// Runs the full log through the reference evaluator
    /// ([`dp_ndlog::reference`]) instead of the engine, folding its
    /// provenance stream through the same [`HashSink`]: the `(digest,
    /// count)` pair [`Execution::stream_digest`] must equal.
    pub fn reference_stream_digest(&self) -> Result<(u64, u64)> {
        let mut sink = HashSink::default();
        dp_ndlog::reference::evaluate(&self.program, &self.log.to_schedule(), &mut sink)?;
        Ok((sink.digest(), sink.count))
    }

    /// Replays a **clone** of this execution with `changes` applied
    /// (Section 4.6). Pure insertions are injected at `inject_at`, i.e.
    /// "shortly before they are needed for the first time".
    ///
    /// This is the from-scratch path: [`Replayed::roll_forward`] reaches the
    /// same state from a replay already held, falls back to this when the
    /// trust rule refuses the roll, and is checked against it.
    pub fn replay_with(&self, changes: &[TupleChange], inject_at: LogicalTime) -> Result<Replayed> {
        let mut clone = Execution::new(Arc::clone(&self.program));
        clone.log = apply_changes(&self.log, changes, inject_at);
        clone.tracer = self.tracer.clone();
        clone.replay()
    }
}

/// Applies `Δ_{B→G}` to a log, producing the patched log for the cloned
/// replay, in replay order.
///
/// * replacements rewrite every insert/delete event of the `before` tuple
///   to the `after` tuple;
/// * deletions drop the `before` tuple's events;
/// * pure insertions (no `before`), and replacements whose `before` never
///   occurs in the log, add an insertion at `inject_at`, behind the logged
///   events of that due.
pub fn apply_changes(log: &EventLog, changes: &[TupleChange], inject_at: LogicalTime) -> EventLog {
    let events = log.events();
    let mut out = EventLog::new();
    for (_, e) in Patched::new(&events, changes, inject_at).events() {
        out.push(e.into_owned());
    }
    out
}

/// One event of a [`Patched`] log, with the log slot it borrows: `None`
/// for an event a change rewrote or injected (owned).
pub(crate) type Slotted<'a> = (Option<usize>, Cow<'a, BaseEvent>);

/// A log with a change set applied ([`apply_changes`]), read in replay
/// order without being built: logged events are borrowed, rewritten and
/// injected ones owned. The set-up scan is the only pass that compares
/// events with changes; what it found is kept as a sparse edit list.
pub(crate) struct Patched<'a> {
    log: &'a [BaseEvent],
    /// Each change's `after` tuple, allocated once: every event the change
    /// rewrites or injects, on every read, shares it.
    afters: Vec<Option<Arc<Tuple>>>,
    /// The logged events a change rewrites or drops, as `(log index,
    /// change index)` in log order.
    hits: Vec<(usize, usize)>,
    /// The insertions at `inject_at`, in change order.
    injected: Vec<BaseEvent>,
    /// Where they go: behind the last logged event due at or before
    /// `inject_at` (where a stable sort would leave late appends).
    at: usize,
}

impl<'a> Patched<'a> {
    /// `log` must be in replay order.
    pub(crate) fn new(
        log: &'a [BaseEvent],
        changes: &'a [TupleChange],
        inject_at: LogicalTime,
    ) -> Self {
        // The first change whose `before` is `e`'s located tuple.
        let change_of = |e: &BaseEvent| {
            changes
                .iter()
                .position(|c| c.node == e.node && c.before.as_ref() == Some(&e.tuple))
        };
        let hits: Vec<(usize, usize)> = log
            .iter()
            .enumerate()
            .filter_map(|(i, e)| Some((i, change_of(e)?)))
            .collect();
        let afters: Vec<Option<Arc<Tuple>>> =
            changes.iter().map(|c| c.after.as_ref().map(Arc::from)).collect();
        let unmatched = |ci: &usize| !hits.iter().any(|&(_, hit)| hit == *ci);
        let injected = (0..changes.len())
            .filter(unmatched)
            .filter_map(|ci| {
                afters[ci].as_ref().map(|after| BaseEvent {
                    due: inject_at,
                    node: changes[ci].node,
                    tuple: Arc::clone(after),
                    op: BaseOp::Insert,
                })
            })
            .collect();
        Patched {
            log,
            afters,
            hits,
            injected,
            at: log.partition_point(|e| e.due <= inject_at),
        }
    }

    /// How many events [`Patched::events`] yields.
    fn len(&self) -> usize {
        let dropped = self.hits.iter().filter(|&&(_, ci)| self.afters[ci].is_none());
        self.log.len() - dropped.count() + self.injected.len()
    }

    pub(crate) fn events(&self) -> PatchedEvents<'_> {
        PatchedEvents {
            of: self,
            next: 0,
            hit: 0,
            injected: 0,
            left: self.len(),
        }
    }
}

/// [`Patched::events`]: the cursor into the log, into the edit list and
/// into the injected insertions, and how many events are left.
pub(crate) struct PatchedEvents<'a> {
    of: &'a Patched<'a>,
    next: usize,
    hit: usize,
    injected: usize,
    left: usize,
}

impl<'a> PatchedEvents<'a> {
    fn step(&mut self) -> Option<Slotted<'a>> {
        let of = self.of;
        loop {
            if self.next == of.at && self.injected < of.injected.len() {
                self.injected += 1;
                return Some((None, Cow::Borrowed(&of.injected[self.injected - 1])));
            }
            let e = of.log.get(self.next)?;
            self.next += 1;
            match of.hits.get(self.hit) {
                Some(&(i, ci)) if i + 1 == self.next => {
                    self.hit += 1;
                    // A change without an `after` drops the event.
                    if let Some(after) = &of.afters[ci] {
                        let e = BaseEvent {
                            due: e.due,
                            node: e.node,
                            tuple: Arc::clone(after),
                            op: e.op,
                        };
                        return Some((None, Cow::Owned(e)));
                    }
                }
                _ => return Some((Some(self.next - 1), Cow::Borrowed(e))),
            }
        }
    }
}

impl<'a> Iterator for PatchedEvents<'a> {
    type Item = Slotted<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        let e = self.step()?;
        self.left -= 1;
        Some(e)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_types::{tuple, FieldType, Schema, SchemaRegistry, TableKind};

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

    fn execution() -> Execution {
        let mut exec = Execution::new(program());
        exec.log.insert(0, "n1", tuple!("cfg", 10));
        exec.log.insert(5, "n1", tuple!("in", 1));
        exec.log.insert(9, "n1", tuple!("in", 2));
        exec
    }

    #[test]
    fn replay_reconstructs_state_and_provenance() {
        let r = execution().replay().unwrap();
        let n = NodeId::new("n1");
        assert!(r.exists(&n, &tuple!("out", 11)));
        assert!(r.exists(&n, &tuple!("out", 12)));
        let tree = r.query(&TupleRef::new(n, tuple!("out", 11))).unwrap();
        assert_eq!(tree.len(), 9);
    }

    #[test]
    fn replay_is_deterministic() {
        let a = execution().replay().unwrap();
        let b = execution().replay().unwrap();
        assert_eq!(a.graph().len(), b.graph().len());
        assert_eq!(a.now(), b.now());
    }

    #[test]
    fn replay_with_replacement_change() {
        let exec = execution();
        let n = NodeId::new("n1");
        let delta = [TupleChange {
            node: n,
            before: Some(tuple!("cfg", 10)),
            after: Some(tuple!("cfg", 20)),
        }];
        let r = exec.replay_with(&delta, 0).unwrap();
        assert!(r.exists(&n, &tuple!("out", 21)));
        assert!(!r.exists(&n, &tuple!("out", 11)));
        // The original execution is untouched (changes apply to a clone).
        let orig = exec.replay().unwrap();
        assert!(orig.exists(&n, &tuple!("out", 11)));
    }

    #[test]
    fn replay_with_insertion_and_deletion_changes() {
        let exec = execution();
        let n = NodeId::new("n1");
        let delta = [
            TupleChange {
                node: n,
                before: None,
                after: Some(tuple!("cfg", 100)),
            },
            TupleChange {
                node: n,
                before: Some(tuple!("cfg", 10)),
                after: None,
            },
        ];
        let r = exec.replay_with(&delta, 1).unwrap();
        assert!(r.exists(&n, &tuple!("out", 101)));
        assert!(!r.exists(&n, &tuple!("out", 11)));
    }

    #[test]
    fn unmatched_replacement_falls_back_to_insertion() {
        let exec = execution();
        let n = NodeId::new("n1");
        let delta = [TupleChange {
            node: n,
            before: Some(tuple!("cfg", 77)), // never logged
            after: Some(tuple!("cfg", 30)),
        }];
        let r = exec.replay_with(&delta, 1).unwrap();
        assert!(r.exists(&n, &tuple!("out", 31)));
    }

    #[test]
    fn null_replay_matches_recorded_state() {
        let exec = execution();
        let with = exec.replay().unwrap();
        let without = exec.replay_null().unwrap();
        let n = NodeId::new("n1");
        assert_eq!(
            with.engine.lookup(&n, &tuple!("out", 11)).is_some(),
            without.lookup(&n, &tuple!("out", 11)).is_some()
        );
        assert_eq!(with.engine.stats().derivations, without.stats().derivations);
    }
}
