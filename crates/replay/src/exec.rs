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
//!
//! A diagnosis replays a *slice* ([`Execution::replay_slice`]): the events
//! the provenance of its queried tuples depends on, by the program's slice
//! plan, closed over the run (the `slice` module). A [`Replayed`] of a
//! slice holds the cut and the cut log, and one function replays it —
//! first, on every UPDATETREE ([`Replayed::update_tree`]) and on every
//! widening ([`Replayed::widen`]) — patching the held cut log until the
//! cut grows. [`Execution::replay`] replays the whole
//! log, for the judge's oracle and every reader that wants the whole run.
//! A slice is given up for the whole log, each time for a reason read off
//! the query, the program or the log: a query at a past time (only the
//! whole log keeps the whole run's clock), a plan that refused its key, and
//! a closure that would replay more events than the log holds. The entry
//! MAKEAPPEAR replaces ([`Replayed::base_tuples_by_key`]) is looked up by
//! its key in the log's index, with the changes applied to what it finds.

use std::collections::BTreeSet;
use std::sync::Arc;

use dp_ndlog::{Engine, HashSink, NullSink, Program, ProvenanceSink, TupleChange};
use dp_provenance::{extract_tree_latest, extract_tree_since, GraphRecorder, ProvGraph, ProvTree};
use dp_trace::Tracer;
use dp_types::{LogicalTime, NodeId, Result, Tuple, TupleRef};

use crate::log::{BaseEvent, BaseOp, EventLog};
use crate::slice::{Cut, Cuts, Slice};

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
    /// The change set (and its inject point) this state was last updated
    /// to by [`Replayed::update_tree`]; empty after a plain replay. The
    /// log the held state reflects is the execution's log with these
    /// changes applied.
    applied: (Vec<TupleChange>, LogicalTime),
    /// The slice this replays ([`Execution::replay_slice`]); `None` for
    /// the whole log.
    slice: Option<Box<Slice>>,
}

impl Replayed {
    /// UPDATETREE (Section 4.6): brings this replay of `exec` to the state
    /// and provenance of `exec`'s log patched by `delta` ([`apply_changes`]),
    /// by one more replay. `self` must come from `exec.replay()` or
    /// `exec.replay_slice(..)`, possibly updated before.
    ///
    /// A replay of the whole log replays the whole patched log
    /// ([`Execution::replay_with`]); a replay of a slice replays its slice
    /// patched (`Execution::replay_cut`), cut again where Δ or the replay
    /// reaches past it. The held recording is released before the new
    /// replay allocates its own, so the two never coexist. After an `Err`
    /// the state is unspecified.
    pub fn update_tree(
        &mut self,
        exec: &Execution,
        delta: &[TupleChange],
        inject_at: LogicalTime,
    ) -> Result<()> {
        *self = match self.release(exec) {
            None => exec.replay_with(delta, inject_at)?,
            Some(slice) => exec.replay_cut(slice, delta, inject_at)?.0,
        };
        self.applied = (delta.to_vec(), inject_at);
        Ok(())
    }

    /// Widens a replay of a slice by what was read through its engine's
    /// views since the slice was closed — a builtin MAKEAPPEAR asks on
    /// [`Engine::view`] probing an address outside the cut, or reading a
    /// guarded table whole — and replays the wider slice of `exec`'s log,
    /// patched as this replay was last updated. True if it did: what was
    /// read may have missed events the slice left out, and must be read
    /// again. A replay of the whole log has nothing outside it.
    pub fn widen(&mut self, exec: &Execution) -> Result<bool> {
        let plan = exec.program.slice_plan();
        let Some(slice) = self.slice.as_mut() else {
            return Ok(false);
        };
        if !slice.cut.close(plan, &self.engine) {
            return Ok(false);
        }
        // The held cut log is the narrower cut's.
        slice.log = None;
        let (delta, inject_at) = std::mem::take(&mut self.applied);
        self.update_tree(exec, &delta, inject_at)?;
        Ok(true)
    }

    /// Drops the held recording, so that the next replay does not allocate
    /// its own beside it, and hands back the slice this replays.
    fn release(&mut self, exec: &Execution) -> Option<Box<Slice>> {
        self.engine = Engine::new(Arc::clone(&exec.program), exec.recorder());
        self.slice.take()
    }

    /// The due of the first event of `tuple` at `node` in the unpatched log
    /// this replay holds — a slice's cut log, which holds every event of a
    /// tuple the cut holds, or `exec`'s log — or 0 if there is none.
    pub fn first_due(&self, exec: &Execution, node: &NodeId, tuple: &Tuple) -> LogicalTime {
        let held = self.slice.as_ref().and_then(|s| s.log.as_ref());
        let log = held.unwrap_or(&exec.log).reader();
        let first = log.iter().find(|e| e.node() == *node && e.is(tuple));
        first.map_or(0, |e| e.due())
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

    /// True if the located tuple is present once `exec`'s log, patched by
    /// the changes this replay was last updated to, has run. The engine
    /// answers for what the replay holds. A base tuple that a slice's cut
    /// leaves out — its key not queried, its owner not in the set, or a
    /// guarded prefix covering no held address — is looked up by its key
    /// instead ([`Replayed::base_tuples_by_key`]): the slice lacks its
    /// events, and the whole log may hold it.
    pub fn exists_in(&self, exec: &Execution, node: &NodeId, tuple: &Tuple) -> bool {
        let plan = exec.program.slice_plan();
        let outside = self.slice.as_ref().is_some_and(|s| !s.cut.holds(plan, node, tuple));
        if outside && exec.program.schemas.is_base(&tuple.table) {
            return self.base_tuples_by_key(exec, node, tuple).iter().any(|t| **t == *tuple);
        }
        self.exists(node, tuple)
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

    /// The base tuples of `like`'s table live at `node` once `exec`'s log,
    /// patched by the changes this replay was last updated to
    /// ([`apply_changes`]), has run, whose key columns hold `like`'s — all
    /// of the table's at `node` when it declares no key — in tuple order.
    /// They are read off the log, not the engine: a replay of a slice holds
    /// a table owned by a column only for the owners in its cut, so its
    /// engine can miss a row that another owner keeps at the same node.
    ///
    /// The log's index gives the events of the key, and every event of
    /// each `before` a change gives the key (counter `replay.key_events`):
    /// only these are read as events, from a log backed by layers too. The
    /// patched log's events of the key are these patched, and the
    /// insertions of the changes no logged event matched — which
    /// `apply_changes` injects into this part of the log as into the whole
    /// of it.
    pub fn base_tuples_by_key(
        &self,
        exec: &Execution,
        node: &NodeId,
        like: &Tuple,
    ) -> Vec<Arc<Tuple>> {
        let index = exec.log.index(&exec.program, &exec.tracer);
        let log = exec.log.reader();
        let key = exec.program.schemas.get(&like.table).and_then(|s| s.key.as_deref());
        let has_key = |t: &Tuple| {
            t.table == like.table && key.unwrap_or(&[]).iter().all(|&c| t.get(c) == like.get(c))
        };
        let (delta, inject_at) = &self.applied;
        let into_key = |c: &&TupleChange| c.node == *node && c.after.as_ref().is_some_and(has_key);
        let befores = delta.iter().filter(into_key).filter_map(|c| c.before.as_ref());
        let mut at: Vec<usize> = (std::iter::once(like).chain(befores))
            .flat_map(|t| index.by_key(&exec.program, &log, node, t).collect::<Vec<_>>())
            .collect();
        at.sort_unstable();
        at.dedup();
        exec.tracer.counter("replay.key_events", at.len() as u64);
        let part = log.log_of(at, &exec.tracer);
        let mut live = BTreeSet::new();
        for e in apply_changes(&part, delta, *inject_at).events().iter() {
            if e.node == *node && has_key(&e.tuple) {
                match e.op {
                    BaseOp::Insert => live.insert(Arc::clone(&e.tuple)),
                    BaseOp::Delete => live.remove(&e.tuple),
                };
            }
        }
        live.into_iter().collect()
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

    /// The recorder for a replaying engine, sharing the execution's tracer
    /// so batched provenance folds show up in the same trace.
    fn recorder(&self) -> GraphRecorder {
        GraphRecorder::with_tracer(self.tracer.clone())
    }

    /// Schedules `log` — this execution's, one cut or patched from it, or
    /// a store's — on a fresh engine over `sink`, with this execution's
    /// tracer, and runs it to quiescence.
    pub(crate) fn run_into<S: ProvenanceSink>(&self, log: &EventLog, sink: S) -> Result<Engine<S>> {
        let mut engine = Engine::new(Arc::clone(&self.program), sink);
        engine.set_tracer(self.tracer.clone());
        let span = self.tracer.span("replay.schedule");
        let scheduled = log.schedule_into(&mut engine)?;
        span.end_with(|agg| agg.add("replay.scheduled", scheduled as u64));
        engine.run()?;
        Ok(engine)
    }

    /// Replays the full log, recording provenance.
    pub fn replay(&self) -> Result<Replayed> {
        self.replay_log(&self.log, &[], 0)
    }

    /// Replays the slice of the log that the provenance of `tuples` depends
    /// on, recording provenance: the program's slice plan
    /// ([`dp_ndlog::slice`]) cut down to the keys and owners of `tuples`,
    /// then closed over the run (the module `slice`). The replay's live
    /// tuples and trees are the whole log's, restricted to what the slice
    /// keeps, with stamps re-ranked; a program whose plan refused its key
    /// replays its whole log.
    ///
    /// `at` is the time the trees will be queried at, on the whole run's
    /// clock ([`Replayed::query_at`]): `LogicalTime::MAX` for the final
    /// state. A slice counts fewer events, so its stamps are at most the
    /// whole run's and a tuple that appeared twice can have its second
    /// episode stamped before an earlier time of the whole run's. Only the
    /// whole log keeps that clock, so a query at an earlier time replays
    /// the whole log (`replay.slice_refused{why=past}`).
    ///
    /// A cut reads the log through the index the log keeps, built by the
    /// first diagnosis of the log (`EventLog::index`, the
    /// `replay.slice_index` span). Counted on the tracer, once per slice:
    /// `replay.slice_events` (events of the replay kept),
    /// `replay.slice_owners`, `replay.slice_guard_dropped` (events at the
    /// owners that the guard left out), `replay.slice_rounds` (closure
    /// rounds, each a recorded replay) and `replay.slice_refused{why}`.
    pub fn replay_slice<'t>(
        &self,
        tuples: impl IntoIterator<Item = (&'t NodeId, &'t Tuple)>,
        at: LogicalTime,
    ) -> Result<Replayed> {
        let plan = self.program.slice_plan();
        let past = (at != LogicalTime::MAX).then_some("past");
        if let Some(why) = plan.refused().or(past) {
            self.tracer.counter(&format!("replay.slice_refused{{why={why}}}"), 1);
            self.tracer.counter("replay.slice_events", self.log.len() as u64);
            return self.replay();
        }
        let slice = Slice {
            cut: Cut::of(plan, tuples),
            log: None,
        };
        let (replayed, cuts) = self.replay_cut(Box::new(slice), &[], 0)?;
        self.tracer.counter("replay.slice_events", cuts.events as u64);
        self.tracer.counter("replay.slice_owners", cuts.owners as u64);
        self.tracer.counter("replay.slice_guard_dropped", cuts.dropped as u64);
        self.tracer.counter("replay.slice_rounds", cuts.made);
        Ok(replayed)
    }

    /// Replays `slice` with `delta` applied: the one replay of a slice.
    /// While the cut holds the changes and the replay closes it, the held
    /// cut log is patched and replayed; once either grows the cut, the log
    /// is cut again from the log's index (`replay.slice_cut`) and the round
    /// repeats, its recording dropped first (`replay.cut_tested` counts the
    /// guarded events a cut tested). The cuts stop paying once
    /// they would replay more events than the whole log holds (a reused
    /// cut log was paid for): the cut that takes them past it replays the
    /// whole patched log instead (`replay.slice_refused{why=size}`).
    fn replay_cut(
        &self,
        mut slice: Box<Slice>,
        delta: &[TupleChange],
        inject_at: LogicalTime,
    ) -> Result<(Replayed, Cuts)> {
        let plan = self.program.slice_plan();
        if slice.cut.admit_changes(plan, delta) {
            slice.log = None;
        }
        let events = self.log.reader();
        let (mut cuts, mut spent, mut index) = (Cuts::default(), 0, None);
        loop {
            let log = match slice.log.take() {
                Some(log) => log,
                None => {
                    let index =
                        index.get_or_insert_with(|| self.log.index(&self.program, &self.tracer));
                    let span = self.tracer.span("replay.slice_cut");
                    let (log, dropped) = slice.cut.log(plan, index, &events, &self.tracer);
                    span.end();
                    cuts = Cuts {
                        made: cuts.made + 1,
                        events: log.len(),
                        owners: slice.cut.owners(),
                        dropped,
                    };
                    spent += log.len();
                    if spent >= events.len() {
                        self.tracer.counter("replay.slice_refused{why=size}", 1);
                        let whole = Cuts { events: events.len(), dropped: 0, ..cuts };
                        return Ok((self.replay_with(delta, inject_at)?, whole));
                    }
                    log
                }
            };
            let mut replayed = self.replay_log(&log, delta, inject_at)?;
            if !slice.cut.close(plan, &replayed.engine) {
                slice.log = Some(log);
                replayed.slice = Some(slice);
                return Ok((replayed, cuts));
            }
        }
    }

    /// Replays without recording provenance: the cost of evaluation
    /// alone, with the execution's tracer attached.
    pub fn replay_null(&self) -> Result<Engine<NullSink>> {
        self.run_into(&self.log, NullSink)
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
        let sink = self.run_into(&self.log, HashSink::default())?.into_sink();
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
    /// UPDATETREE ([`Replayed::update_tree`]) is this replay, of the whole
    /// log or of a slice's cut log.
    pub fn replay_with(&self, changes: &[TupleChange], inject_at: LogicalTime) -> Result<Replayed> {
        self.replay_log(&self.log, changes, inject_at)
    }

    /// Replays `log` with `changes` applied, recording provenance.
    fn replay_log(
        &self,
        log: &EventLog,
        changes: &[TupleChange],
        inject_at: LogicalTime,
    ) -> Result<Replayed> {
        let patched = (!changes.is_empty()).then(|| apply_changes(log, changes, inject_at));
        Ok(Replayed {
            engine: self.run_into(patched.as_ref().unwrap_or(log), self.recorder())?,
            applied: (Vec::new(), 0),
            slice: None,
        })
    }
}

/// Applies `Δ_{B→G}` to a log, producing the patched log for the cloned
/// replay, in replay order.
///
/// * replacements rewrite every insert/delete event of the `before` tuple
///   to the `after` tuple — the first change whose `before` it is;
/// * deletions drop the `before` tuple's events;
/// * pure insertions (no `before`), and replacements whose `before` never
///   occurs in the log, add an insertion at `inject_at`, behind the logged
///   events of that due.
pub fn apply_changes(log: &EventLog, changes: &[TupleChange], inject_at: LogicalTime) -> EventLog {
    let events = log.events();
    let change_of = |e: &BaseEvent| {
        changes.iter().position(|c| c.node == e.node && c.before.as_ref() == Some(&e.tuple))
    };
    let hits: Vec<Option<usize>> = events.iter().map(change_of).collect();
    // Each change's `after`, allocated once for every event it writes.
    let afters: Vec<Option<Arc<Tuple>>> =
        changes.iter().map(|c| c.after.as_ref().map(Arc::from)).collect();
    let as_after = |(due, node, op): (LogicalTime, NodeId, BaseOp), ci: usize| {
        let tuple = Arc::clone(afters[ci].as_ref()?);
        Some(BaseEvent { due, node, tuple, op })
    };
    let injected: Vec<BaseEvent> = (0..changes.len())
        .filter(|ci| !hits.contains(&Some(*ci)))
        .filter_map(|ci| as_after((inject_at, changes[ci].node, BaseOp::Insert), ci))
        .collect();
    let mut patched = events.iter().zip(&hits).map(|(e, hit)| match hit {
        None => Some(e.clone()),
        Some(ci) => as_after((e.due, e.node, e.op), *ci),
    });
    let at = events.partition_point(|e| e.due <= inject_at);
    let mut out: EventLog = patched.by_ref().take(at).flatten().collect();
    out.extend(injected);
    out.extend(patched.flatten());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_types::{tuple, FieldType, Schema, SchemaRegistry, TableKind};

    fn program() -> Arc<Program> {
        let mut reg = SchemaRegistry::new();
        reg.declare(Schema::new("in", TableKind::ImmutableBase, [("x", FieldType::Int)]));
        let cfg = Schema::new("cfg", TableKind::MutableBase, [("k", FieldType::Int)]);
        reg.declare(cfg.with_key([0]));
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

    /// The lookup MAKEAPPEAR replaces an entry by: the rows of a table at a
    /// node that share a key with a wanted tuple, off the log as patched by
    /// the changes the replay was updated to, in tuple order; a table
    /// without a key gives all of its rows.
    #[test]
    fn base_tuples_by_key_reads_the_patched_log_for_one_key() {
        let mut exec = execution();
        exec.log.insert(1, "n1", tuple!("cfg", 11));
        exec.log.insert(2, "n1", tuple!("cfg", 12));
        exec.log.delete(3, "n1", tuple!("cfg", 12));
        exec.log.insert(1, "n2", tuple!("cfg", 10));
        let n = NodeId::new("n1");
        let rows = |r: &Replayed, like: Tuple| -> Vec<Tuple> {
            let rows = r.base_tuples_by_key(&exec, &n, &like);
            rows.iter().map(|t| Tuple::clone(t)).collect()
        };
        let mut r = exec.replay().unwrap();
        assert_eq!(rows(&r, tuple!("cfg", 10)), [tuple!("cfg", 10)]);
        assert!(rows(&r, tuple!("cfg", 12)).is_empty());
        assert_eq!(rows(&r, tuple!("in", 99)), [tuple!("in", 1), tuple!("in", 2)]);
        let delta = [TupleChange {
            node: n,
            before: Some(tuple!("cfg", 10)),
            after: Some(tuple!("cfg", 13)),
        }];
        r.update_tree(&exec, &delta, 0).unwrap();
        assert!(rows(&r, tuple!("cfg", 10)).is_empty());
        assert_eq!(rows(&r, tuple!("cfg", 13)), [tuple!("cfg", 13)]);
        assert_eq!(rows(&r, tuple!("cfg", 11)), [tuple!("cfg", 11)]);
    }

    /// A mapper `m` ships `item`s to a reducer `r` over a link, and a
    /// `start` fence at the reducer sums what has arrived by then
    /// (aggregates fire on their fence only — the MapReduce scenarios'
    /// `reduceStart` in miniature): three items summing to 6, then the
    /// fence.
    fn fenced() -> Execution {
        use FieldType::{Int, Str};
        let mut reg = SchemaRegistry::new();
        reg.declare(Schema::new("dest", TableKind::ImmutableBase, [("to", Str)]));
        reg.declare(Schema::new("item", TableKind::MutableBase, [("k", Int), ("v", Int)]));
        reg.declare(Schema::new("start", TableKind::ImmutableBase, [("gen", Int)]));
        reg.declare(Schema::new("got", TableKind::Derived, [("k", Int), ("v", Int)]));
        reg.declare(Schema::new("total", TableKind::Derived, [("sum", Int)]));
        let program = Program::builder(reg)
            .rules_text(
                "hop got(@R, K, V) :- item(@M, K, V), dest(@M, R).
                 sum total(@R, agg_sum(V)) :- start(@R, G), got(@R, K, V).",
            )
            .unwrap()
            .build()
            .unwrap();
        let mut exec = Execution::new(program);
        exec.log.insert(0, "m", tuple!("dest", "r"));
        for k in 1..=3 {
            exec.log.insert(100 + k as u64, "m", tuple!("item", k, k));
        }
        exec.log.insert(200, "r", tuple!("start", 0));
        exec
    }

    fn totals(r: &Replayed) -> Vec<Tuple> {
        let view = r.engine.view(&NodeId::new("r"));
        view.map(|v| v.table(&dp_types::Sym::new("total")).cloned().collect())
            .unwrap_or_default()
    }

    /// UPDATETREE on `exec`'s replay, to `delta` injected at `inject_at`.
    fn updated(exec: &Execution, delta: &[TupleChange], inject_at: LogicalTime) -> Replayed {
        let mut r = exec.replay().unwrap();
        r.update_tree(exec, delta, inject_at).unwrap();
        r
    }

    /// A change lands at its rewritten events' own dues (`apply_changes`),
    /// not at the inject point, so the fence sums the replaced item — each
    /// `got` is due a link delay after its item's due, before the fence's —
    /// and not an item logged after the fence. Applied at the inject point
    /// instead, the new item arrives after the fence has fired: the sum is
    /// computed without it and no fence fires again. (The MapReduce
    /// natives, fired on their inputs early in the log, are not re-fired by
    /// a later configuration change either.)
    #[test]
    fn a_change_lands_at_its_events_own_dues_not_at_the_inject_point() {
        let mut exec = fenced();
        exec.log.insert(210, "m", tuple!("item", 9, 7)); // after the fence
        let inject_at = 209;
        let delta = [TupleChange {
            node: NodeId::new("m"),
            before: Some(tuple!("item", 2, 2)),
            after: Some(tuple!("item", 2, 5)),
        }];
        let patched = apply_changes(&exec.log, &delta, inject_at);
        let rewritten = patched.events().iter().position(|e| *e.tuple == tuple!("item", 2, 5));
        assert_eq!(rewritten, Some(2), "the replacement keeps item 2's place");
        assert_eq!(patched.events()[2].due, 102, "and its due");
        assert_eq!(totals(&updated(&exec, &delta, inject_at)), [tuple!("total", 1 + 5 + 3)]);

        // Inject-point semantics: the old tuple's events go, the new tuple
        // is inserted at `inject_at`.
        let mut at_inject = Execution::new(Arc::clone(&exec.program));
        for e in exec.log.events().iter().filter(|e| *e.tuple != tuple!("item", 2, 2)) {
            at_inject.log.push(e.clone());
        }
        at_inject.log.insert(inject_at, "m", tuple!("item", 2, 5));
        let r = at_inject.replay().unwrap();
        assert!(r.exists(&NodeId::new("r"), &tuple!("got", 2, 5)), "the new item did arrive");
        assert_eq!(totals(&r), [tuple!("total", 4)], "summed without it");
    }

    /// A duplicate insert and the delete of a tuple never inserted are
    /// no-ops in the patched log as in the log: the item the duplicate
    /// repeats stays, and so does the aggregate the fence computed from it.
    #[test]
    fn duplicate_and_absent_ops_stay_no_ops_after_an_update() {
        let mut exec = fenced();
        exec.log.insert(202, "m", tuple!("item", 4, 4)); // Δ rewrites this
        exec.log.insert(205, "m", tuple!("item", 1, 1)); // the first item's duplicate
        exec.log.delete(206, "m", tuple!("item", 7, 7)); // never inserted
        let delta = [TupleChange {
            node: NodeId::new("m"),
            before: Some(tuple!("item", 4, 4)),
            after: Some(tuple!("item", 4, 40)),
        }];
        let r = updated(&exec, &delta, 0);
        let (m, r_node) = (NodeId::new("m"), NodeId::new("r"));
        assert!(r.exists(&m, &tuple!("item", 1, 1)) && !r.exists(&m, &tuple!("item", 7, 7)));
        assert!(r.exists(&r_node, &tuple!("got", 4, 40)));
        assert_eq!(totals(&r), [tuple!("total", 6)], "the fence fired before item 4");
    }

    /// `unlisted!(X)`: no `deny(X)` at the node. A `deny` tuple rejects a
    /// match without taking part in any firing.
    struct Unlisted;

    impl dp_ndlog::StatefulBuiltin for Unlisted {
        fn name(&self) -> dp_types::Sym {
            dp_types::Sym::new("unlisted")
        }

        fn eval(&self, view: &dp_ndlog::NodeView<'_>, args: &[dp_types::Value]) -> Result<bool> {
            let deny = dp_types::Sym::new("deny");
            Ok(!view.table(&deny).any(|t| t.args.first() == args.first()))
        }
    }

    /// A tuple Δ adds can reject a match it takes no part in: `deny(3)`
    /// triggers nothing, yet the item it names is blocked and the others
    /// pass.
    #[test]
    fn a_tuple_the_change_adds_rejects_a_match_it_takes_no_part_in() {
        use FieldType::Int;
        let mut reg = SchemaRegistry::new();
        reg.declare(Schema::new("in", TableKind::ImmutableBase, [("x", Int)]));
        reg.declare(Schema::new("deny", TableKind::MutableBase, [("x", Int)]));
        reg.declare(Schema::new("out", TableKind::Derived, [("x", Int)]));
        let program = Program::builder(reg)
            .rules_text("pass out(@N, X) :- in(@N, X), unlisted!(X).")
            .unwrap()
            .builtin(Arc::new(Unlisted))
            .build()
            .unwrap();
        let mut exec = Execution::new(program);
        for x in 1..=4 {
            exec.log.insert(100 + x as u64, "n", tuple!("in", x));
        }
        let delta = [TupleChange {
            node: NodeId::new("n"),
            before: None,
            after: Some(tuple!("deny", 3)),
        }];
        let r = updated(&exec, &delta, 100); // injected before every item
        let n = NodeId::new("n");
        assert!(!r.exists(&n, &tuple!("out", 3)));
        assert!([1, 2, 4].iter().all(|&x| r.exists(&n, &tuple!("out", x))));
    }

    /// Tuples that hold each other up: two nodes forward a packet to each
    /// other, so once it has gone round, its tuple at either node is
    /// derived from the other's. Δ replaces the tag the packet's tuple
    /// joins at `a`: the update holds what the patched log derives — the
    /// new tag's `seen` and none of the old one's, the loop itself intact.
    #[test]
    fn tuples_that_hold_each_other_up_update_to_the_patched_log() {
        use FieldType::{Int, Str};
        let mut reg = SchemaRegistry::new();
        reg.declare(Schema::new("pkt", TableKind::ImmutableBase, [("k", Int)]));
        reg.declare(Schema::new("link", TableKind::ImmutableBase, [("to", Str)]));
        reg.declare(Schema::new("tag", TableKind::MutableBase, [("t", Int)]));
        reg.declare(Schema::new("at", TableKind::Derived, [("k", Int)]));
        reg.declare(Schema::new("seen", TableKind::Derived, [("k", Int), ("t", Int)]));
        let program = Program::builder(reg)
            .rules_text(
                "in at(@M, K) :- pkt(@M, K).
                 hop at(@N, K) :- at(@M, K), link(@M, N).
                 see seen(@M, K, T) :- at(@M, K), tag(@M, T).",
            )
            .unwrap()
            .build()
            .unwrap();
        let mut exec = Execution::new(program);
        exec.log.insert(0, "a", tuple!("link", "b"));
        exec.log.insert(0, "b", tuple!("link", "a"));
        exec.log.insert(5, "a", tuple!("tag", 1));
        exec.log.insert(10, "a", tuple!("pkt", 1));
        let delta = [TupleChange {
            node: NodeId::new("a"),
            before: Some(tuple!("tag", 1)),
            after: Some(tuple!("tag", 2)),
        }];
        let r = updated(&exec, &delta, 0);
        let (a, b) = (NodeId::new("a"), NodeId::new("b"));
        assert!(r.exists(&a, &tuple!("seen", 1, 2)) && !r.exists(&a, &tuple!("seen", 1, 1)));
        assert!(r.exists(&a, &tuple!("at", 1)) && r.exists(&b, &tuple!("at", 1)));
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
