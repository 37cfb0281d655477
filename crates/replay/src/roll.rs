//! What UPDATETREE's roll withdraws and re-issues: the suffix's located
//! tuples, and which of them a change can reach, read off the recording
//! the held replay already has (Section 4.6; "Provenance Traces": the
//! recorded trace is the dependency slice change propagation follows).
//!
//! A base event belongs to its *located tuple*: every suffix event of one
//! located tuple is withdrawn and re-issued together, or none is. A
//! located tuple is **changed** when a change names it (its `before` or
//! its `after`) and **affected** when it is changed or the walk below finds
//! that the change reaches what it caused. Everything else in the suffix
//! is **independent**: its tuples and episodes stay as they are.
//!
//! Every episode (row) of the recording has an **origin**: the base tuple
//! at the bottom of its trigger chain — the seed FINDSEED would find. An
//! independent located tuple becomes affected when a live firing it
//! triggered (its origin is the trigger's)
//!
//! * was retracted by the change (a body episode closed when Δ landed);
//! * used a body that will be withdrawn: one of an affected origin, or one
//!   derived (at any depth) from such a body — the forward closure, a bit
//!   per row;
//! * read through a stateful builtin, an aggregate or a native a tuple the
//!   change opened or closed at its node ([`dp_ndlog::Program::reads`]);
//!
//! or when a firing the change itself caused joined one of its tuples (a
//! packet that matched nothing until Δ's entry arrived), or when its tuple
//! sits where an aggregate or a native fires at a node the change touched
//! (their firings that emitted nothing leave no record to ask).
//!
//! A prefix firing cannot be re-issued. One that read through a builtin,
//! an aggregate or a native and that the change could reach — it depended
//! on a withdrawn body, or it ran after the fork and read what Δ touched —
//! sends the roll to a from-scratch replay instead (the trust rule). So
//! does a tuple that lost a derivation in the withdrawal and stays live
//! resting only on itself: tuples that hold each other up (a forwarding
//! loop) survive the cascade, and the re-issue would find them already
//! there.
//!
//! Each suffix event is keyed once: a located tuple's id is its rank in
//! the order first read — the patched suffix's tuples, then those only the
//! held suffix logs — found by hash (by log slot, so an event both
//! suffixes borrow from one slot is hashed once), and every later question
//! — an episode's origin, a change's tuple, the prefix's presence — probes
//! the same map.

use std::borrow::{Borrow, Cow};
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use dp_ndlog::{Engine, Program, TupleChange};
use dp_provenance::{GraphRecorder, ProvGraph, RowId, Step, VertexId, VertexKind};
use dp_types::{LogicalTime, NodeId, Sym, Tuple, TupleRef, WordBuildHasher};

use crate::exec::Slotted;
use crate::log::{BaseEvent, BaseOp};

/// The origin of a row no suffix event re-creates.
const PREFIX: u32 = u32::MAX;

/// Why a roll goes back to a from-scratch replay.
#[derive(Clone, Copy)]
pub(crate) enum Refusal {
    /// A prefix firing that read state depends on what the roll changes.
    TrustPrefix,
    /// A re-issued event joined an independent one logged after it.
    Order,
    /// An independent episode closed.
    Closed,
    /// A firing outside the re-issued events read what phase C changed.
    OutsideRead,
    /// A native or an aggregate fires on the prefix at a node the change
    /// touched, or where phase C changed its node.
    Native,
    /// A tuple a withdrawn event caused outlived the withdrawal: tuples
    /// that support each other (a forwarding loop) keep one another live,
    /// where the from-scratch replay never derives them.
    Cycle,
}

impl Refusal {
    /// The counter a refusal is counted under.
    pub(crate) fn series(self) -> &'static str {
        match self {
            Refusal::TrustPrefix => "replay.refused{why=trust-prefix}",
            Refusal::Order => "replay.refused{why=order}",
            Refusal::Closed => "replay.refused{why=closed}",
            Refusal::OutsideRead => "replay.refused{why=outside-read}",
            Refusal::Native => "replay.refused{why=native}",
            Refusal::Cycle => "replay.refused{why=cycle}",
        }
    }
}

/// A located tuple as the suffix's id map sees it: hashed and compared by
/// node and tuple content, so a probe borrows the two parts instead of
/// building a [`TupleRef`].
trait Located {
    fn parts(&self) -> (&NodeId, &Tuple);
}

impl Located for (&NodeId, &Tuple) {
    fn parts(&self) -> (&NodeId, &Tuple) {
        *self
    }
}

impl Hash for dyn Located + '_ {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.parts().hash(h);
    }
}

impl PartialEq for dyn Located + '_ {
    fn eq(&self, other: &Self) -> bool {
        let ((node, tuple), (other_node, other_tuple)) = (self.parts(), other.parts());
        // Mostly the one allocation: a located tuple's events share it.
        node == other_node && (std::ptr::eq(tuple, other_tuple) || tuple == other_tuple)
    }
}

impl Eq for dyn Located + '_ {}

/// The id map's key.
struct Key(TupleRef);

impl Located for Key {
    fn parts(&self) -> (&NodeId, &Tuple) {
        (&self.0.node, &self.0.tuple)
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, h: &mut H) {
        (self as &dyn Located).hash(h);
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        (self as &dyn Located) == (other as &dyn Located)
    }
}

impl Eq for Key {}

impl<'q> Borrow<dyn Located + 'q> for Key {
    fn borrow(&self) -> &(dyn Located + 'q) {
        self
    }
}

/// Located tuples to ids, in the order first read, while the suffixes are
/// read.
struct Keying {
    ids: HashMap<Key, u32, WordBuildHasher>,
    keys: Vec<TupleRef>,
    /// Per log slot: the id of its event's located tuple ([`PREFIX`] until
    /// read).
    slots: Vec<u32>,
}

impl Keying {
    /// The id of a suffix event's located tuple: its log slot's, once the
    /// slot has been read; otherwise found by hash, or new.
    fn id(&mut self, (slot, e): &Slotted<'_>) -> u32 {
        if let Some(&id) = slot.map(|s| &self.slots[s]).filter(|&&id| id != PREFIX) {
            return id;
        }
        let id = match self.ids.get(&(&e.node, &*e.tuple) as &dyn Located) {
            Some(&id) => id,
            None => {
                let id = self.keys.len() as u32;
                let key = TupleRef::new(e.node, Arc::clone(&e.tuple));
                self.keys.push(key.clone());
                self.ids.insert(Key(key), id);
                id
            }
        };
        if let Some(s) = *slot {
            self.slots[s] = id;
        }
        id
    }
}

/// The suffix's located tuples, by id, and the patched suffix.
pub(crate) struct Suffix<'a> {
    /// The located tuples, in the order first read: a tuple's id is its
    /// place here.
    keys: Vec<TupleRef>,
    /// The same, hashed: what every lookup probes.
    ids: HashMap<Key, u32, WordBuildHasher>,
    /// Per id: its first position in the patched suffix (past its end for
    /// a tuple only the held suffix logs).
    first: Vec<usize>,
    changed: Vec<bool>,
    affected: Vec<bool>,
    /// Per id: whether the prefix leaves it inserted as a base tuple.
    presence: Vec<bool>,
    /// The patched suffix — logged events borrowed, rewritten and injected
    /// ones owned — and each event's tuple's id.
    patched: Vec<Cow<'a, BaseEvent>>,
    patched_ids: Vec<u32>,
    /// How many of the held suffix's ops the engine acted on: those that
    /// changed their tuple's base presence.
    pub(crate) acted: usize,
}

impl<'a> Suffix<'a> {
    /// The located tuples of `held` (the held log's events from the fork
    /// on) and of `patched` (the patched log's), both read off a log of
    /// `slots` events, classified by `changes`. A tuple's prefix presence
    /// is read off `prefix` (the held log's events before the fork) when
    /// given; without it the engine acted on every op it was given, so a
    /// tuple's first held op says what was there before it, and one the
    /// held suffix never logs is as `current` finds it.
    pub(crate) fn new<'e>(
        slots: usize,
        held: impl Iterator<Item = Slotted<'a>>,
        patched: impl Iterator<Item = Slotted<'a>>,
        changes: &[&[TupleChange]],
        prefix: Option<impl Iterator<Item = Cow<'e, BaseEvent>>>,
        current: impl Fn(&NodeId, &Tuple) -> bool,
    ) -> Self {
        let mut keying = Keying {
            ids: HashMap::default(),
            keys: Vec::new(),
            slots: vec![PREFIX; slots],
        };
        // Sized exactly, as the streams know their lengths: a buffer
        // regrown by doubling would leave the allocator a hole beside the
        // recording.
        let len = patched.size_hint().0;
        let (mut events, mut patched_ids) = (Vec::with_capacity(len), Vec::with_capacity(len));
        for e in patched {
            patched_ids.push(keying.id(&e));
            events.push(e.1);
        }
        // The held suffix is read for its ops alone.
        let mut held_ops = Vec::with_capacity(held.size_hint().0);
        held_ops.extend(held.map(|e| (keying.id(&e), e.1.due, e.1.op)));
        let Keying { ids, keys, .. } = keying;
        let n = keys.len();
        let mut s = Suffix {
            keys,
            ids,
            first: vec![events.len(); n],
            changed: vec![false; n],
            affected: Vec::new(),
            presence: Vec::new(),
            patched: events,
            patched_ids,
            acted: 0,
        };
        for (pos, &id) in s.patched_ids.iter().enumerate().rev() {
            s.first[id as usize] = pos;
        }
        for c in changes.iter().copied().flatten() {
            for t in c.before.iter().chain(&c.after) {
                if let Some(id) = s.find(&c.node, t) {
                    s.changed[id as usize] = true;
                }
            }
        }
        s.affected.clone_from(&s.changed);
        // The independent events are the same events, in the same order, on
        // both sides; where they are not, nothing is independent. (One id
        // is one located tuple, so an event is its id, due and op.)
        let independent_held = held_ops.iter().copied();
        let independent_patched = s
            .patched_ids
            .iter()
            .zip(&s.patched)
            .map(|(&id, e)| (id, e.due, e.op));
        let independent = |&(id, ..): &(u32, LogicalTime, BaseOp)| !s.changed[id as usize];
        if !independent_held
            .filter(independent)
            .eq(independent_patched.filter(independent))
        {
            s.affected.fill(true);
        }
        let mut presence: Vec<Option<bool>> = vec![None; n];
        match prefix {
            Some(prefix) => {
                for e in prefix {
                    if let Some(id) = s.find(&e.node, &e.tuple) {
                        presence[id as usize] = Some(e.op == BaseOp::Insert);
                    }
                }
                presence
                    .iter_mut()
                    .for_each(|p| *p = Some(p.unwrap_or(false)));
            }
            None => {
                for &(id, _, op) in &held_ops {
                    presence[id as usize].get_or_insert(op == BaseOp::Delete);
                }
            }
        }
        s.presence = (0..n)
            .map(|id| presence[id].unwrap_or_else(|| current(&s.keys[id].node, &s.keys[id].tuple)))
            .collect();
        let mut present = s.presence.clone();
        for &(id, _, op) in &held_ops {
            let now = op == BaseOp::Insert;
            s.acted += usize::from(std::mem::replace(&mut present[id as usize], now) != now);
        }
        s
    }

    /// How many distinct located tuples the two suffixes log.
    pub(crate) fn tuples(&self) -> usize {
        self.keys.len()
    }

    /// The id of a located tuple the suffix logs.
    fn find(&self, node: &NodeId, tuple: &Tuple) -> Option<u32> {
        self.ids.get(&(node, tuple) as &dyn Located).copied()
    }

    /// The id of a located tuple, or [`PREFIX`] when the suffix does not
    /// log it.
    fn id_of(&self, node: &NodeId, tuple: &Tuple) -> u32 {
        self.find(node, tuple).unwrap_or(PREFIX)
    }

    fn independent(&self, origin: u32) -> bool {
        origin != PREFIX && !self.affected[origin as usize]
    }

    /// The patched suffix's events whose located tuple is changed (`true`)
    /// or affected (`false`), in log order.
    pub(crate) fn events(&self, changed_only: bool) -> impl Iterator<Item = &BaseEvent> {
        let pick = if changed_only {
            &self.changed
        } else {
            &self.affected
        };
        self.patched
            .iter()
            .zip(&self.patched_ids)
            .filter(|(_, &id)| pick[id as usize])
            .map(|(e, _)| &**e)
    }

    /// The changed (`true`) or affected (`false`) located tuples, last
    /// logged first, each with the base presence the prefix leaves it in:
    /// what restoring them to the prefix's state sets.
    pub(crate) fn restore(&self, changed_only: bool) -> Vec<(&TupleRef, bool)> {
        let pick = if changed_only {
            &self.changed
        } else {
            &self.affected
        };
        let mut ids: Vec<usize> = (0..self.keys.len()).filter(|&id| pick[id]).collect();
        ids.sort_by_key(|&id| std::cmp::Reverse(self.first[id]));
        ids.into_iter()
            .map(|id| (&self.keys[id], self.presence[id]))
            .collect()
    }
}

/// Where the walk reads a state: the recording's vertices before phase A
/// (`held`, from `start`), and the clock phase A began at.
#[derive(Clone, Copy)]
pub(crate) struct Phase {
    /// The first vertex that can belong to the suffix: every row opened
    /// before it is the prefix's.
    pub(crate) start: VertexId,
    /// The first vertex phase A recorded.
    pub(crate) held: VertexId,
    /// The clock phase A began at.
    pub(crate) at: LogicalTime,
}

/// What phase B leaves for the checks after phase C.
pub(crate) struct Found {
    /// Row origins ([`PREFIX`] or a located tuple's id), by row.
    origin: Vec<u32>,
    /// Tables a native or an aggregate fires on.
    watched: Vec<Sym>,
    /// Where the walk read.
    phase: Phase,
}

/// Located tuples by node, then by table.
type ByNode<'g> = BTreeMap<&'g NodeId, BTreeMap<&'g Sym, Vec<&'g Tuple>>>;

/// True when what the firing of `rule` over the body `rows` at `node`
/// read could change with one of `tuples` (the tuples changed there, by
/// table). The firing is re-evaluated only when its rule reads one of
/// those tables at all.
fn reads_any(
    program: &Program,
    graph: &ProvGraph,
    (rule, node, rows): (&Sym, &NodeId, &[RowId]),
    tuples: &BTreeMap<&Sym, Vec<&Tuple>>,
) -> bool {
    let mut read = tuples
        .iter()
        .filter(|(table, _)| program.reads_table(rule, table))
        .peekable();
    if read.peek().is_none() {
        return false;
    }
    let body: Vec<&Tuple> = rows.iter().map(|&b| &**graph.row(b).tuple).collect();
    let reads = program.reads(rule, node, &body);
    read.any(|(table, ts)| reads.reads_table(table) && ts.iter().any(|t| reads.may_read(t)))
}

/// Fills `rows` with the rows of a derivation's `body` (its EXIST
/// vertices) and returns the trigger's; `None` for an empty body.
fn body_rows(
    graph: &ProvGraph,
    body: &[VertexId],
    trigger: usize,
    rows: &mut Vec<RowId>,
) -> Option<RowId> {
    rows.clear();
    rows.extend(body.iter().map(|&x| graph.step(x).0));
    rows.get(trigger.min(rows.len().saturating_sub(1))).copied()
}

/// The located tuples a step opened or closed, from vertex `from` on:
/// phase A's `D`.
fn touched(graph: &ProvGraph, from: VertexId) -> ByNode<'_> {
    let mut by_node = ByNode::new();
    for v in from..graph.len() as VertexId {
        if let (row, Step::Appear | Step::Disappear) = graph.step(v) {
            let row = graph.row(row);
            by_node
                .entry(row.node)
                .or_default()
                .entry(&row.tuple.table)
                .or_default()
                .push(row.tuple);
        }
    }
    by_node
}

/// The tables an aggregate or a native fires on.
fn watched(program: &Program) -> Vec<Sym> {
    let fences = program
        .rules()
        .iter()
        .filter(|r| r.agg.is_some())
        .map(|r| r.body[0].table);
    let natives = program
        .schemas
        .iter()
        .filter(|s| !program.native_triggers(&s.name).is_empty())
        .map(|s| s.name);
    let mut tables: Vec<Sym> = fences.chain(natives).collect();
    tables.sort();
    tables.dedup();
    tables
}

/// Phase B: marks in `suffix` the independent located tuples the change
/// reaches (see the module docs), or refuses the roll.
pub(crate) fn affect(
    engine: &Engine<GraphRecorder>,
    suffix: &mut Suffix<'_>,
    phase: Phase,
) -> Result<Found, Refusal> {
    let graph = &engine.sink().graph;
    let program = engine.program();
    let d = touched(graph, phase.held);
    let mut walk = Walk {
        graph,
        program,
        origin: vec![PREFIX; graph.row_count()],
        taint: vec![false; graph.row_count()],
        used_by_other: vec![false; suffix.keys.len()],
        rows: Vec::new(),
    };
    let watched = watched(program);
    // One pass in vertex order marks what it can; a tuple marked after a
    // firing of another origin had already used its rows needs the pass
    // again, with the mark in place. Nothing is ever unmarked.
    loop {
        let mut again = false;
        walk.pass(suffix, &d, &watched, phase, &mut again)?;
        if !again {
            break;
        }
    }
    Ok(Found {
        origin: walk.origin,
        watched,
        phase,
    })
}

struct Walk<'g> {
    graph: &'g ProvGraph,
    program: &'g Program,
    origin: Vec<u32>,
    /// Per row: derived from a body the roll withdraws.
    taint: Vec<bool>,
    /// Per located tuple: a row of its was a body of a firing of another
    /// origin.
    used_by_other: Vec<bool>,
    /// The body rows of the firing being read.
    rows: Vec<RowId>,
}

impl Walk<'_> {
    fn pass(
        &mut self,
        suffix: &mut Suffix<'_>,
        d: &ByNode<'_>,
        watched: &[Sym],
        phase: Phase,
        again: &mut bool,
    ) -> Result<(), Refusal> {
        let graph = self.graph;
        let mut mark = |suffix: &mut Suffix<'_>, used: &[bool], k: u32| {
            let k = k as usize;
            if !suffix.affected[k] {
                suffix.affected[k] = true;
                *again |= used[k];
            }
        };
        for v in phase.start..graph.len() as VertexId {
            let (row, step) = graph.step(v);
            let r = row as usize;
            match step {
                Step::Insert if graph.row(row).cause == v => {
                    let view = graph.row(row);
                    self.origin[r] = suffix.id_of(view.node, view.tuple);
                }
                Step::Appear if v < phase.held && !watched.is_empty() => {
                    // A live tuple an aggregate or a native fires on, at a
                    // node the change touched.
                    let view = graph.row(row);
                    let live = view.end.is_none_or(|end| end >= phase.at);
                    if live && d.contains_key(view.node) && watched.contains(&view.tuple.table) {
                        match self.origin[r] {
                            PREFIX => return Err(Refusal::Native),
                            k if suffix.independent(k) => mark(suffix, &self.used_by_other, k),
                            _ => {}
                        }
                    }
                }
                Step::Derive {
                    rule,
                    trigger,
                    body,
                } => {
                    let Some(trow) = body_rows(graph, body, trigger, &mut self.rows) else {
                        continue;
                    };
                    let t_origin = self.origin[trow as usize];
                    if graph.row(row).cause == v {
                        self.origin[r] = t_origin;
                    }
                    if v >= phase.held {
                        // Phase A's own firing: a body of an independent
                        // origin was there before Δ's tuple that triggered
                        // it, where the from-scratch replay has Δ first.
                        for (i, &b) in self.rows.iter().enumerate() {
                            let o = self.origin[b as usize];
                            if i != trigger && suffix.independent(o) {
                                mark(suffix, &self.used_by_other, o);
                            }
                        }
                        continue;
                    }
                    let ends = self.rows.iter().map(|&b| graph.row(b).end);
                    if ends.clone().any(|end| end.is_some_and(|e| e < phase.at)) {
                        continue; // retracted before: not a live firing
                    }
                    let retracted = ends.clone().any(|end| end.is_some());
                    let tainted = retracted
                        || self.rows.iter().any(|&b| {
                            let o = self.origin[b as usize];
                            self.taint[b as usize] || (o != PREFIX && suffix.affected[o as usize])
                        });
                    if tainted {
                        self.taint[r] = true;
                    }
                    for &b in &self.rows {
                        let o = self.origin[b as usize];
                        if o != PREFIX && o != t_origin {
                            self.used_by_other[o as usize] = true;
                        }
                    }
                    if t_origin != PREFIX && suffix.affected[t_origin as usize] && !tainted {
                        continue;
                    }
                    if !self.program.reads_state(rule) {
                        if tainted && suffix.independent(t_origin) {
                            mark(suffix, &self.used_by_other, t_origin);
                        }
                        continue;
                    }
                    let node = graph.row(trow).node;
                    let reads = !tainted
                        && d.get(node).is_some_and(|ds| {
                            reads_any(self.program, graph, (rule, node, &self.rows), ds)
                        });
                    match t_origin {
                        PREFIX if tainted || reads => return Err(Refusal::TrustPrefix),
                        k if suffix.independent(k) && (tainted || reads) => {
                            mark(suffix, &self.used_by_other, k)
                        }
                        _ => {}
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// Row origins: the walk's, then those of the rows opened after it.
struct Origins {
    walked: Vec<u32>,
    opened: Vec<u32>,
}

impl Origins {
    fn get(&self, r: RowId) -> u32 {
        let r = r as usize;
        match r.checked_sub(self.walked.len()) {
            Some(i) => self.opened[i],
            None => self.walked[r],
        }
    }

    fn set(&mut self, r: RowId, origin: u32) {
        let r = r as usize;
        match r.checked_sub(self.walked.len()) {
            Some(i) => self.opened[i] = origin,
            None => self.walked[r] = origin,
        }
    }
}

/// After phase C's withdrawal, recorded from vertex `from` on: a tuple
/// that lost a derivation and stayed live must still rest on base tuples
/// through some derivation. One that rests only on itself — tuples that
/// support each other, a forwarding loop — outlived what it came from, and
/// the re-issue would find it already there.
pub(crate) fn withdrawn(engine: &Engine<GraphRecorder>, from: VertexId) -> Result<(), Refusal> {
    let graph = &engine.sink().graph;
    let held: Vec<TupleRef> = (from..graph.len() as VertexId)
        .filter(|&v| matches!(graph.vertex(v).kind, VertexKind::Underive { .. }))
        .map(|v| graph.row(graph.step(v).0))
        .filter(|view| view.end.is_none())
        .map(|view| TupleRef::new(*view.node, Arc::clone(view.tuple)))
        .collect();
    if rest_on_base(engine, &held) {
        Ok(())
    } else {
        Err(Refusal::Cycle)
    }
}

/// True if every live tuple of `roots` rests on base tuples: it is one,
/// or it has a derivation whose body tuples all rest on base tuples. That
/// is the least set closed under the two rules, found bottom-up over the
/// tuples below `roots`: each derivation counts down its body tuples not
/// yet found, and its head is found when the count reaches zero. Tuples
/// that hold only each other up never are. Each tuple is looked up once
/// and each body tuple counted once, so the check costs the size of the
/// derivations it reaches.
fn rest_on_base(engine: &Engine<GraphRecorder>, roots: &[TupleRef]) -> bool {
    let mut ids: HashMap<TupleRef, usize> = HashMap::new();
    // Per tuple: the derivations whose body holds it, once per occurrence.
    let mut uses: Vec<Vec<usize>> = Vec::new();
    // The tuples below `roots`, numbered in the order they are reached;
    // those from `next` on are not looked up yet.
    let mut tuples: Vec<TupleRef> = Vec::new();
    let mut id = |t: &TupleRef, uses: &mut Vec<Vec<usize>>, tuples: &mut Vec<TupleRef>| {
        *ids.entry(t.clone()).or_insert_with(|| {
            uses.push(Vec::new());
            tuples.push(t.clone());
            uses.len() - 1
        })
    };
    let roots: Vec<usize> = roots.iter().map(|t| id(t, &mut uses, &mut tuples)).collect();
    // Per derivation: its head and how many body tuples are not found.
    let (mut heads, mut missing) = (Vec::new(), Vec::new());
    let mut found_next = Vec::new();
    let mut next = 0;
    while let Some(t) = tuples.get(next).cloned() {
        let i = next;
        next += 1;
        let Some(state) = engine.lookup(&t.node, &t.tuple) else {
            continue;
        };
        if state.base {
            found_next.push(i);
        }
        for d in &state.derivations {
            let k = heads.len();
            heads.push(i);
            missing.push(d.body.len());
            if d.body.is_empty() {
                found_next.push(i);
            }
            for b in &d.body {
                let j = id(b, &mut uses, &mut tuples);
                uses[j].push(k);
            }
        }
    }
    let mut found = vec![false; uses.len()];
    while let Some(i) = found_next.pop() {
        if std::mem::replace(&mut found[i], true) {
            continue;
        }
        for &k in &uses[i] {
            missing[k] -= 1;
            if missing[k] == 0 {
                found_next.push(heads[k]);
            }
        }
    }
    roots.iter().all(|&i| found[i])
}

/// The checks after phase C, over what it recorded from vertex `from` on.
/// The roll keeps its result only when no independent episode closed, no
/// re-issued event joined an independent one logged after it (the
/// from-scratch replay has that one as the trigger, and FINDSEED would
/// descend elsewhere), and nothing that read state outside the re-issued
/// events could have read what phase C changed.
pub(crate) fn settled(
    engine: &Engine<GraphRecorder>,
    suffix: &Suffix<'_>,
    mut found: Found,
    from: VertexId,
) -> Result<(), Refusal> {
    let graph = &engine.sink().graph;
    // The rows phase C opened get their origins beside the walk's.
    let opened = vec![PREFIX; graph.row_count() - found.origin.len()];
    let mut origins = Origins {
        walked: std::mem::take(&mut found.origin),
        opened,
    };
    // Net opens minus closes per located tuple, of the tables something
    // that reads state could read ([`Program::reads_table`]; every table
    // when the program has a native, which `watched` lists the tables of):
    // what phase C changed that a firing outside it could have seen.
    let program = engine.program();
    let natives = found
        .watched
        .iter()
        .any(|t| !program.native_triggers(t).is_empty());
    let read: Vec<&Sym> = program
        .schemas
        .iter()
        .map(|s| &s.name)
        .filter(|&table| {
            natives
                || program
                    .rules()
                    .iter()
                    .any(|r| program.reads_state(&r.name) && program.reads_table(&r.name, table))
        })
        .collect();
    // Keyed by content: two episodes of one base tuple may hold two of the
    // log's allocations of it.
    let mut net: Vec<(&NodeId, &Arc<Tuple>, i32)> = Vec::new();
    let mut rows = Vec::new();
    for v in from..graph.len() as VertexId {
        let (row, step) = graph.step(v);
        let view = graph.row(row);
        match step {
            Step::Insert if view.cause == v => {
                origins.set(row, suffix.id_of(view.node, view.tuple))
            }
            Step::Derive { trigger, body, .. } if view.cause == v => {
                let Some(trow) = body_rows(graph, body, trigger, &mut rows) else {
                    continue;
                };
                let t = origins.get(trow);
                origins.set(row, t);
                if view.end.is_some() || t == PREFIX {
                    continue;
                }
                let later = rows.iter().any(|&b| {
                    let o = origins.get(b);
                    suffix.independent(o) && suffix.first[o as usize] > suffix.first[t as usize]
                });
                if later {
                    return Err(Refusal::Order);
                }
            }
            Step::Appear | Step::Disappear => {
                let opens = matches!(step, Step::Appear);
                if !opens && suffix.independent(origins.get(row)) {
                    return Err(Refusal::Closed);
                }
                if read.contains(&&view.tuple.table) {
                    net.push((view.node, view.tuple, if opens { 1 } else { -1 }));
                }
            }
            _ => {}
        }
    }
    net.sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
    let mut changed = ByNode::new();
    for same in net.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
        if same.iter().map(|e| e.2).sum::<i32>() != 0 {
            let (node, tuple, _) = same[0];
            changed
                .entry(node)
                .or_default()
                .entry(&tuple.table)
                .or_default()
                .push(tuple);
        }
    }
    if changed.is_empty() {
        return Ok(());
    }
    // A firing outside the re-issued events that is still live and read
    // state — triggered by an independent tuple, or by the prefix after
    // the fork — must not have read what phase C changed.
    let phase = found.phase;
    for v in phase.start..phase.held {
        let (
            _,
            Step::Derive {
                rule,
                trigger,
                body,
            },
        ) = graph.step(v)
        else {
            continue;
        };
        let Some(trow) = body_rows(graph, body, trigger, &mut rows) else {
            continue;
        };
        let t = origins.get(trow);
        let outside = t == PREFIX || suffix.independent(t);
        if !outside
            || rows.iter().any(|&b| graph.row(b).end.is_some())
            || !program.reads_state(rule)
        {
            continue;
        }
        let node = graph.row(trow).node;
        if changed
            .get(node)
            .is_some_and(|ts| reads_any(program, graph, (rule, node, &rows), ts))
        {
            return Err(Refusal::OutsideRead);
        }
    }
    if !found.watched.is_empty() {
        for row in 0..graph.row_count() as RowId {
            let view = graph.row(row);
            let o = origins.get(row);
            let outside = suffix.independent(o) || (o == PREFIX && view.cause >= phase.start);
            if view.end.is_none()
                && outside
                && changed.contains_key(view.node)
                && found.watched.contains(&view.tuple.table)
            {
                return Err(Refusal::Native);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Patched;
    use crate::log::EventLog;
    use dp_types::{DetRng, Value};

    /// [`Suffix::new`]'s oracle: both suffixes copied, every event's
    /// located tuple kept at its first occurrence, each id a linear search
    /// by content.
    struct Copied {
        keys: Vec<TupleRef>,
        held_ids: Vec<u32>,
        patched_ids: Vec<u32>,
        first: Vec<usize>,
        changed: Vec<bool>,
        affected: Vec<bool>,
        presence: Vec<bool>,
        acted: usize,
    }

    fn copied(
        held: &[BaseEvent],
        patched: &[BaseEvent],
        changes: &[&[TupleChange]],
        prefix: Option<&[BaseEvent]>,
        current: impl Fn(&NodeId, &Tuple) -> bool,
    ) -> Copied {
        let located = |e: &BaseEvent| TupleRef::new(e.node, Arc::clone(&e.tuple));
        let mut keys: Vec<TupleRef> = Vec::new();
        for key in patched.iter().chain(held).map(located) {
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        let n = keys.len();
        let find = |node: &NodeId, tuple: &Tuple| {
            let at = keys
                .iter()
                .position(|k| k.node == *node && *k.tuple == *tuple);
            at.map(|at| at as u32)
        };
        let id = |e: &BaseEvent| find(&e.node, &e.tuple).expect("a suffix event is keyed");
        let patched_ids: Vec<u32> = patched.iter().map(id).collect();
        let held_ids: Vec<u32> = held.iter().map(id).collect();
        let mut first = vec![patched.len(); n];
        for (pos, &id) in patched_ids.iter().enumerate().rev() {
            first[id as usize] = pos;
        }
        let mut changed = vec![false; n];
        for c in changes.iter().copied().flatten() {
            for t in c.before.iter().chain(&c.after) {
                if let Some(id) = find(&c.node, t) {
                    changed[id as usize] = true;
                }
            }
        }
        let independent = |events: &[BaseEvent], ids: &[u32]| -> Vec<BaseEvent> {
            let kept = events
                .iter()
                .zip(ids)
                .filter(|(_, &id)| !changed[id as usize]);
            kept.map(|(e, _)| e.clone()).collect()
        };
        let mut affected = changed.clone();
        if independent(held, &held_ids) != independent(patched, &patched_ids) {
            affected.fill(true);
        }
        let mut presence: Vec<Option<bool>> = vec![None; n];
        match prefix {
            Some(prefix) => {
                for e in prefix {
                    if let Some(id) = find(&e.node, &e.tuple) {
                        presence[id as usize] = Some(e.op == BaseOp::Insert);
                    }
                }
                presence
                    .iter_mut()
                    .for_each(|p| *p = Some(p.unwrap_or(false)));
            }
            None => {
                for (e, &id) in held.iter().zip(&held_ids) {
                    presence[id as usize].get_or_insert(e.op == BaseOp::Delete);
                }
            }
        }
        let presence: Vec<bool> = (0..n)
            .map(|id| presence[id].unwrap_or_else(|| current(&keys[id].node, &keys[id].tuple)))
            .collect();
        let mut present = presence.clone();
        let mut acted = 0;
        for (e, &id) in held.iter().zip(&held_ids) {
            let now = e.op == BaseOp::Insert;
            acted += usize::from(std::mem::replace(&mut present[id as usize], now) != now);
        }
        Copied {
            keys,
            held_ids,
            patched_ids,
            first,
            changed,
            affected,
            presence,
            acted,
        }
    }

    impl Copied {
        fn restore(&self, changed_only: bool) -> Vec<(TupleRef, bool)> {
            let pick = if changed_only {
                &self.changed
            } else {
                &self.affected
            };
            let mut ids: Vec<usize> = (0..self.keys.len()).filter(|&id| pick[id]).collect();
            ids.sort_by_key(|&id| std::cmp::Reverse(self.first[id]));
            ids.into_iter()
                .map(|id| (self.keys[id].clone(), self.presence[id]))
                .collect()
        }
    }

    /// A located tuple out of a small universe, so that tuples recur: each
    /// call allocates it anew, as every logged event does.
    fn draw(rng: &mut DetRng) -> (NodeId, Tuple) {
        let node = NodeId::new(["n0", "n1", "n2"][rng.gen_range_usize(0, 3)]);
        let table = ["a", "b"][rng.gen_range_usize(0, 2)];
        (
            node,
            Tuple::new(table, vec![Value::Int(rng.gen_range_i64(0, 4))]),
        )
    }

    /// Up to three changes: drops and replacements of logged tuples,
    /// replacements of unlogged ones and pure insertions.
    fn changes(rng: &mut DetRng, log: &[BaseEvent]) -> Vec<TupleChange> {
        (0..rng.gen_range_usize(0, 4))
            .map(|_| {
                let e = &log[rng.gen_range_usize(0, log.len())];
                let (node, drawn) = draw(rng);
                match rng.gen_range_usize(0, 4) {
                    0 => TupleChange {
                        node: e.node,
                        before: Some(Tuple::clone(&e.tuple)),
                        after: None,
                    },
                    1 => TupleChange {
                        node: e.node,
                        before: Some(Tuple::clone(&e.tuple)),
                        after: Some(drawn),
                    },
                    2 => TupleChange {
                        node,
                        before: Some(Tuple::new("c", vec![Value::Int(0)])),
                        after: Some(drawn),
                    },
                    _ => TupleChange {
                        node,
                        before: None,
                        after: Some(drawn),
                    },
                }
            })
            .collect()
    }

    /// On random logs, each rolled from an earlier random Δ to a new one,
    /// the keyed suffix equals the copied one: the same tuples in the same
    /// order, every event's id, first positions, presence, acted ops and
    /// both restore orders.
    #[test]
    fn keyed_ids_equal_the_linear_search() {
        let (mut shared, mut rolled_from, mut walked, mut refused_independence) = (0, 0, 0, 0);
        for seed in 0..300 {
            let mut rng = DetRng::seed_from_u64(seed);
            let mut log = EventLog::new();
            let mut due = 0;
            for _ in 0..rng.gen_range_usize(1, 60) {
                due += rng.gen_range_u64(0, 3);
                let (node, tuple) = draw(&mut rng);
                if rng.gen_bool(0.7) {
                    log.insert(due, node, tuple);
                } else {
                    log.delete(due, node, tuple);
                }
            }
            let events = log.events();
            let rolled = changes(&mut rng, &events);
            let delta = changes(&mut rng, &events);
            let (rolled_at, inject_at) =
                (rng.gen_range_u64(0, due + 2), rng.gen_range_u64(0, due + 2));
            let held = Patched::new(&events, &rolled, rolled_at);
            let patched = Patched::new(&events, &delta, inject_at);
            let same = |(a, b): &(Slotted<'_>, Slotted<'_>)| a.1 == b.1;
            let fork = held.events().zip(patched.events()).take_while(same).count();
            let owned = |p: &Patched<'_>, skip| -> Vec<BaseEvent> {
                p.events().skip(skip).map(|(_, e)| e.into_owned()).collect()
            };
            let (held_owned, patched_owned) = (owned(&held, fork), owned(&patched, fork));
            let prefix: Vec<BaseEvent> = owned(&held, 0).into_iter().take(fork).collect();
            let walk = rng.gen_bool(0.5);
            let current = |_: &NodeId, t: &Tuple| t.args[0] == Value::Int(0);
            // Now and then classified by Δ alone: the earlier Δ's rewrites
            // then look independent and differ, and everything is affected.
            let both = [&rolled[..], &delta[..]];
            let changes = if rng.gen_bool(0.2) {
                &both[1..]
            } else {
                &both[..]
            };

            let want = copied(
                &held_owned,
                &patched_owned,
                changes,
                walk.then_some(&prefix[..]),
                current,
            );
            let got = Suffix::new(
                events.len(),
                held.events().skip(fork),
                patched.events().skip(fork),
                changes,
                walk.then(|| held.events().take(fork).map(|(_, e)| e)),
                current,
            );
            let case = format!("seed {seed}");
            assert_eq!(got.keys, want.keys, "{case}");
            assert_eq!(got.patched_ids, want.patched_ids, "{case}");
            assert!(
                got.patched.iter().map(|e| &**e).eq(&patched_owned),
                "{case}"
            );
            for (e, &id) in held_owned.iter().zip(&want.held_ids) {
                assert_eq!(got.find(&e.node, &e.tuple), Some(id), "{case}: {e:?}");
            }
            assert_eq!(got.first, want.first, "{case}");
            assert_eq!(got.changed, want.changed, "{case}");
            assert_eq!(got.affected, want.affected, "{case}");
            assert_eq!(got.presence, want.presence, "{case}");
            assert_eq!(got.acted, want.acted, "{case}");
            for changed_only in [true, false] {
                let order: Vec<(TupleRef, bool)> = got
                    .restore(changed_only)
                    .into_iter()
                    .map(|(t, present)| (t.clone(), present))
                    .collect();
                assert_eq!(order, want.restore(changed_only), "{case}");
            }
            shared += usize::from(want.keys.len() < held_owned.len() + patched_owned.len());
            rolled_from += usize::from(!rolled.is_empty() && !held_owned.is_empty());
            walked += usize::from(walk && fork > 0);
            refused_independence +=
                usize::from(want.affected.iter().all(|&a| a) && !want.changed.iter().all(|&c| c));
        }
        // The draws reach every branch: tuples shared across allocations,
        // a held side with an earlier Δ, the prefix walk, and suffixes whose
        // independent events differ.
        assert!(
            shared > 100 && rolled_from > 50 && walked > 50,
            "{shared} {rolled_from} {walked}"
        );
        assert!(refused_independence > 5, "{refused_independence}");
    }

    /// The founded check on a lattice: 40 layers of two tuples, each
    /// derived from both tuples of the layer below, over a bottom layer
    /// whose two tuples also derive each other. A search that forgets
    /// what it failed on walks each of the 2^40 paths down; counting each
    /// derivation down once answers at once, both while the bottom rests
    /// on its base tuple and after that is deleted, when the lattice
    /// rests only on the bottom's cycle.
    #[test]
    fn a_lattice_on_a_cycle_is_checked_once_per_derivation() {
        use dp_types::{tuple, FieldType::Int, Schema, SchemaRegistry, TableKind};
        let mut reg = SchemaRegistry::new();
        reg.declare(Schema::new("base", TableKind::MutableBase, [("i", Int)]));
        reg.declare(Schema::new("swap", TableKind::ImmutableBase, [("j", Int), ("i", Int)]));
        let edge = [("l", Int), ("j", Int), ("i", Int)];
        reg.declare(Schema::new("e", TableKind::ImmutableBase, edge));
        reg.declare(Schema::new("v", TableKind::Derived, [("l", Int), ("i", Int)]));
        let program = Program::builder(reg)
            .rules_text(
                "r0 v(@N, 0, I) :- base(@N, I).
                 r1 v(@N, 0, I) :- v(@N, 0, J), swap(@N, J, I).
                 r2 v(@N, L1, I) :- v(@N, L, J), e(@N, L, J, I), L1 := L + 1.",
            )
            .unwrap()
            .build()
            .unwrap();
        let n = NodeId::new("n");
        let mut engine = Engine::new(program, GraphRecorder::new());
        engine.schedule_insert(0, n, tuple!("swap", 0, 1)).unwrap();
        engine.schedule_insert(0, n, tuple!("swap", 1, 0)).unwrap();
        for l in 0..40 {
            for (j, i) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                engine.schedule_insert(0, n, tuple!("e", l, j, i)).unwrap();
            }
        }
        engine.schedule_insert(1, n, tuple!("base", 0)).unwrap();
        engine.run().unwrap();
        let top = [TupleRef::new(n, tuple!("v", 40, 0)), TupleRef::new(n, tuple!("v", 40, 1))];
        assert!(engine.contains(&n, &top[0].tuple));
        assert!(rest_on_base(&engine, &top));
        engine.schedule_delete(2, n, tuple!("base", 0)).unwrap();
        engine.run().unwrap();
        assert!(engine.contains(&n, &top[0].tuple), "the cycle holds the lattice up");
        assert!(!rest_on_base(&engine, &top));
    }
}
