//! The reference evaluator: the one oracle the engine is checked against.
//!
//! [`evaluate`] runs a program over a base-event schedule the slow,
//! obvious way and produces the provenance stream and final tables that
//! [`crate::engine::Engine`] must reproduce bit for bit. It is serial and
//! tuple-at-a-time: every appearance fires its rules on the spot, each
//! rule body is joined by a depth-first nested loop over the other atoms
//! in body order, and each table is scanned in full in BTree tuple order.
//! There are no join plans, no indexes or tries, no delta batches or
//! visibility horizons, no counters and no instrumentation.
//!
//! The evaluator shares no firing, join, cascade or queue code with the
//! engine, and no binding or evaluation code either: it binds by name in
//! an [`Env`] and evaluates with [`crate::Expr::eval`], where the engine
//! binds rules compiled to slots. What the two have in common is the
//! language itself — the rule AST and the primitive operators beneath
//! expression evaluation, schema checks, the [`ProvEvent`] stream — and
//! [`NodeView`], because native rules and stateful builtins are written
//! against it. Its storage is its own: per node, a map per table from
//! each live tuple to its [`TupleState`], where the engine keeps rows
//! named by ids.
//!
//! Semantics, stated once here because the engine's optimizations all
//! have to preserve them:
//!
//! * Events are processed in `(due, arrival sequence)` order; each gets
//!   the logical time `max(previous + 1, due)`.
//! * A rule fires when a tuple *appears* (support 0 → positive), once per
//!   body position whose table matches; aggregation rules fire on their
//!   fence (atom 0) only. Rules fire in program order, natives after.
//! * A firing at a later body position skips the trigger tuple itself at
//!   earlier positions of the same table — that body belongs to the
//!   firing at the earlier position.
//! * Derived heads are delivered as events (`link_delay` later when they
//!   change node) and re-checked on delivery: if a body tuple has since
//!   disappeared the derivation is dropped. The same `(rule, body)`
//!   supports a tuple only once. Heads, a native's emissions included,
//!   belong to `Derived` tables and base operations to the others, so
//!   no derived tuple ever equals a base tuple.
//! * A tuple whose support returns to zero disappears, and every
//!   derivation that used it is withdrawn at the same logical time,
//!   recursively.

use std::collections::BTreeMap;
use std::sync::Arc;

use dp_types::{Error, LogicalTime, NodeId, Result, Sym, TableKind, Tuple, TupleRef, Value};

use crate::ast::{BodyAtom, Constraint, Rule};
use crate::engine::{DerivRecord, NodeView, TupleState};
use crate::expr::Env;
use crate::program::{Emitter, Program};
use crate::sink::{BodyRef, ProvEvent, ProvenanceSink};

/// Runaway guard: the same budget [`crate::engine::Engine::max_events`]
/// defaults to.
const MAX_EVENTS: u64 = 50_000_000;

/// The oracle's tables at one node: per table, each live tuple with its
/// bookkeeping, in tuple order.
pub(crate) type NodeTables = BTreeMap<Sym, BTreeMap<Arc<Tuple>, TupleState>>;

/// The final tables of an [`evaluate`] run, by node.
#[derive(Debug)]
pub struct FinalTables {
    nodes: BTreeMap<NodeId, NodeTables>,
}

impl FinalTables {
    /// Every node that ever held a tuple, with a view of its tables, in
    /// node order — what [`crate::Engine::nodes`] yields for the engine.
    pub fn nodes(&self) -> impl Iterator<Item = (&NodeId, NodeView<'_>)> {
        self.nodes
            .iter()
            .map(|(id, tables)| (id, NodeView::of_oracle(id, Some(tables))))
    }
}

/// One scheduled base-table event: the oracle's input, the unit every
/// test generator lowers to, and the unit the shrinker in `dp-sim`
/// removes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduledOp {
    /// Delivery timestamp.
    pub due: u64,
    /// Destination node.
    pub node: NodeId,
    /// The base tuple inserted or deleted: a shared handle, so a schedule
    /// built from a log points at the log's own tuples.
    pub tuple: Arc<Tuple>,
    /// `true` for a deletion, `false` for an insertion.
    pub delete: bool,
}

impl ScheduledOp {
    /// An insertion.
    pub fn insert(due: u64, node: impl Into<NodeId>, tuple: impl Into<Arc<Tuple>>) -> Self {
        ScheduledOp {
            due,
            node: node.into(),
            tuple: tuple.into(),
            delete: false,
        }
    }

    /// A deletion.
    pub fn delete(due: u64, node: impl Into<NodeId>, tuple: impl Into<Arc<Tuple>>) -> Self {
        ScheduledOp {
            due,
            node: node.into(),
            tuple: tuple.into(),
            delete: true,
        }
    }
}

/// A derived head on its way to its node.
struct Delivery {
    node: NodeId,
    tuple: Arc<Tuple>,
    rule: Sym,
    body: Vec<TupleRef>,
    trigger: usize,
}

enum Action {
    Insert(NodeId, Arc<Tuple>),
    Delete(NodeId, Arc<Tuple>),
    Deliver(Delivery),
}

struct Oracle<'a> {
    program: &'a Program,
    sink: &'a mut dyn ProvenanceSink,
    nodes: BTreeMap<NodeId, NodeTables>,
    /// body tuple -> heads with a derivation that used it.
    used_by: BTreeMap<TupleRef, Vec<TupleRef>>,
    queue: BTreeMap<(LogicalTime, u64), Action>,
    seq: u64,
}

/// Evaluates `program` over `schedule`, streaming provenance into `sink`,
/// and returns the final tables of every node.
///
/// Errors are the ones the engine raises for the same input: a schedule
/// entry that fails its schema or targets a derived table, an expression
/// or builtin failure other than arithmetic (which only suppresses the
/// one firing), a malformed head, a native emission that fails its schema
/// or targets a base table, or the runaway budget.
pub fn evaluate(
    program: &Program,
    schedule: &[ScheduledOp],
    sink: &mut dyn ProvenanceSink,
) -> Result<FinalTables> {
    let mut o = Oracle {
        program,
        sink,
        nodes: BTreeMap::new(),
        used_by: BTreeMap::new(),
        queue: BTreeMap::new(),
        seq: 0,
    };
    for op in schedule {
        program.schemas.check(&op.tuple)?;
        if program.schemas.kind(&op.tuple.table)? == TableKind::Derived {
            return Err(Error::Schema {
                table: op.tuple.table,
                message: "cannot insert/delete into a derived table".into(),
            });
        }
        let tuple = Arc::clone(&op.tuple);
        let action = if op.delete {
            Action::Delete(op.node, tuple)
        } else {
            Action::Insert(op.node, tuple)
        };
        o.push(op.due, action);
    }
    let mut clock: LogicalTime = 0;
    let mut processed = 0u64;
    while let Some(((due, _), action)) = o.queue.pop_first() {
        if processed >= MAX_EVENTS {
            return Err(Error::Engine(format!(
                "event limit {MAX_EVENTS} exceeded (runaway program?)"
            )));
        }
        processed += 1;
        clock = clock.wrapping_add(1).max(due);
        match action {
            Action::Insert(node, tuple) => o.insert_base(clock, node, tuple)?,
            Action::Delete(node, tuple) => o.delete_base(clock, node, tuple),
            Action::Deliver(d) => o.deliver(clock, d)?,
        }
    }
    Ok(FinalTables { nodes: o.nodes })
}

impl Oracle<'_> {
    fn push(&mut self, due: LogicalTime, action: Action) {
        self.queue.insert((due, self.seq), action);
        self.seq += 1;
    }

    /// The state of `tuple` at `node`, if it is live.
    fn state(&self, node: &NodeId, tuple: &Tuple) -> Option<&TupleState> {
        self.nodes.get(node)?.get(&tuple.table)?.get(tuple)
    }

    fn state_mut(&mut self, node: &NodeId, tuple: &Tuple) -> Option<&mut TupleState> {
        self.nodes.get_mut(node)?.get_mut(&tuple.table)?.get_mut(tuple)
    }

    /// The state of `tuple` at `node`, added empty if it is not live.
    fn entry(&mut self, node: NodeId, tuple: &Arc<Tuple>) -> &mut TupleState {
        let table = self.nodes.entry(node).or_default().entry(tuple.table).or_default();
        table.entry(Arc::clone(tuple)).or_default()
    }

    /// `r` with the episode it is in now, or `None` if it is not live.
    fn stamped(&self, r: &TupleRef) -> Option<BodyRef> {
        let state = self.state(&r.node, &r.tuple)?;
        Some(BodyRef {
            tref: r.clone(),
            since: state.appeared_at,
        })
    }

    fn insert_base(&mut self, now: LogicalTime, node: NodeId, tuple: Arc<Tuple>) -> Result<()> {
        let entry = self.entry(node, &tuple);
        if entry.base {
            return Ok(());
        }
        let appears = entry.support() == 0;
        entry.base = true;
        if appears {
            entry.appeared_at = now;
        }
        let since = entry.appeared_at;
        self.sink.record(ProvEvent::InsertBase {
            time: now,
            since,
            node,
            tuple: Arc::clone(&tuple),
        });
        if appears {
            self.appear(now, node, tuple)?;
        }
        Ok(())
    }

    fn delete_base(&mut self, now: LogicalTime, node: NodeId, tuple: Arc<Tuple>) {
        let Some(entry) = self.state_mut(&node, &tuple) else {
            return;
        };
        if !entry.base {
            return;
        }
        entry.base = false;
        let (gone, since) = (entry.support() == 0, entry.appeared_at);
        self.sink.record(ProvEvent::DeleteBase {
            time: now,
            since,
            node,
            tuple: Arc::clone(&tuple),
        });
        if gone {
            self.disappear(now, TupleRef::new(node, tuple));
        }
    }

    fn deliver(&mut self, now: LogicalTime, d: Delivery) -> Result<()> {
        // In-flight re-check: a body tuple may have disappeared between
        // the firing and the delivery. The ones that are there are
        // reported under the episode they are in now.
        let Some(body) = d.body.iter().map(|b| self.stamped(b)).collect::<Option<Vec<_>>>()
        else {
            return Ok(());
        };
        let entry = self.entry(d.node, &d.tuple);
        if entry
            .derivations
            .iter()
            .any(|r| r.rule == d.rule && r.body == d.body)
        {
            return Ok(());
        }
        let appears = entry.support() == 0;
        entry.derivations.push(DerivRecord {
            rule: d.rule,
            body: d.body.clone(),
            trigger: d.trigger,
            time: now,
        });
        if appears {
            entry.appeared_at = now;
        }
        let since = entry.appeared_at;
        let head = TupleRef::new(d.node, Arc::clone(&d.tuple));
        for b in &d.body {
            self.used_by
                .entry(b.clone())
                .or_default()
                .push(head.clone());
        }
        self.sink.record(ProvEvent::Derive {
            time: now,
            since,
            node: d.node,
            tuple: Arc::clone(&d.tuple),
            rule: d.rule,
            body,
            trigger: d.trigger,
        });
        if appears {
            self.appear(now, d.node, d.tuple)?;
        }
        Ok(())
    }

    /// `tuple` just went from no support to some: report it and fire.
    fn appear(&mut self, now: LogicalTime, node: NodeId, tuple: Arc<Tuple>) -> Result<()> {
        self.sink.record(ProvEvent::Appear {
            time: now,
            node,
            tuple: Arc::clone(&tuple),
        });
        for (due, d) in self.firings(now, &node, &tuple)? {
            self.push(due, Action::Deliver(d));
        }
        Ok(())
    }

    /// `gone` just lost its last support: remove and report it, then
    /// withdraw every derivation that used it, recursively.
    fn disappear(&mut self, now: LogicalTime, gone: TupleRef) {
        let tables = self
            .nodes
            .get_mut(&gone.node)
            .expect("only a live tuple disappears");
        let since = tables
            .get_mut(&gone.tuple.table)
            .and_then(|t| t.remove(&*gone.tuple))
            .expect("only a live tuple disappears")
            .appeared_at;
        self.sink.record(ProvEvent::Disappear {
            time: now,
            since,
            node: gone.node,
            tuple: Arc::clone(&gone.tuple),
        });
        for head in self.used_by.remove(&gone).unwrap_or_default() {
            let Some(entry) = self.state_mut(&head.node, &head.tuple) else {
                continue;
            };
            let (withdrawn, kept): (Vec<_>, Vec<_>) = std::mem::take(&mut entry.derivations)
                .into_iter()
                .partition(|r| r.body.contains(&gone));
            entry.derivations = kept;
            if withdrawn.is_empty() {
                continue;
            }
            let orphaned = entry.support() == 0;
            let since = entry.appeared_at;
            for r in withdrawn {
                self.sink.record(ProvEvent::Underive {
                    time: now,
                    since,
                    node: head.node,
                    tuple: Arc::clone(&head.tuple),
                    rule: r.rule,
                });
            }
            if orphaned {
                self.disappear(now, head);
            }
        }
    }

    /// Everything the appearance of `tuple` at `node` derives, with the
    /// due time of each delivery, in firing order.
    fn firings(
        &self,
        now: LogicalTime,
        node: &NodeId,
        tuple: &Arc<Tuple>,
    ) -> Result<Vec<(LogicalTime, Delivery)>> {
        let mut out = Vec::new();
        for rule in self.program.rules() {
            for (pos, atom) in rule.body.iter().enumerate() {
                if atom.table != tuple.table {
                    continue;
                }
                if rule.agg.is_none() {
                    self.fire_rule(now, node, tuple, rule, pos, &mut out)?;
                } else if pos == 0 {
                    self.fire_agg_rule(now, node, tuple, rule, &mut out)?;
                }
            }
        }
        for &ni in self.program.native_triggers(&tuple.table) {
            let native = self.program.native_at(ni);
            let mut emitter = Emitter::default();
            native.fire(&self.view(node), tuple, &mut emitter)?;
            for em in emitter.emissions {
                self.program.schemas.check(&em.tuple)?;
                if self.program.schemas.kind(&em.tuple.table)? != TableKind::Derived {
                    return Err(Error::Schema {
                        table: em.tuple.table,
                        message: format!("native {} emits into a non-derived table", native.name()),
                    });
                }
                out.push((
                    now + em.delay,
                    Delivery {
                        node: em.node,
                        tuple: Arc::new(em.tuple),
                        rule: native.name(),
                        body: em.body,
                        trigger: 0,
                    },
                ));
            }
        }
        Ok(out)
    }

    /// What natives and builtins see of `node`: everything, as of now.
    fn view<'v>(&'v self, node: &'v NodeId) -> NodeView<'v> {
        NodeView::of_oracle(node, self.nodes.get(node))
    }

    /// Every complete body match of `rule` with `tuple` fixed at body
    /// position `trigger`: the bindings and the body tuples, in nested-
    /// loop order (body atoms outermost first, tables in tuple order).
    fn matches<'t>(
        &'t self,
        node: &NodeId,
        tuple: &'t Tuple,
        rule: &Rule,
        trigger: usize,
    ) -> Vec<(Env, Vec<&'t Tuple>)> {
        let mut out = Vec::new();
        let Some(tables) = self.nodes.get(node) else {
            return out;
        };
        let mut env = Env::new();
        env.insert(rule.body[trigger].loc, Value::Str(node.0));
        if bind(&rule.body[trigger], tuple, &mut env) {
            let mut body = vec![tuple; rule.body.len()];
            extend(tables, rule, trigger, 0, &env, &mut body, &mut out);
        }
        out
    }

    /// Runs the assignments and checks the constraints of `rule` under a
    /// complete body match. `Ok(false)` drops this match only: a
    /// constraint is false, or arithmetic failed (e.g. a header field out
    /// of range).
    fn admits(&self, node: &NodeId, rule: &Rule, env: &mut Env) -> Result<bool> {
        match rule.run_assigns(env) {
            Ok(()) => {}
            Err(Error::Arith(_)) => return Ok(false),
            Err(e) => return Err(e),
        }
        for c in &rule.constraints {
            let holds = match c {
                Constraint::Expr(e) => match e.eval(env) {
                    Ok(Value::Bool(b)) => b,
                    Ok(other) => {
                        return Err(Error::Engine(format!(
                            "constraint {e} evaluated to non-boolean {other}"
                        )))
                    }
                    Err(Error::Arith(_)) => false,
                    Err(e) => return Err(e),
                },
                Constraint::Builtin { name, args } => {
                    let vals = args
                        .iter()
                        .map(|a| a.eval(env))
                        .collect::<Result<Vec<_>>>()?;
                    self.program.builtin(name)?.eval(&self.view(node), &vals)?
                }
            };
            if !holds {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Checks the finished head and addresses its delivery.
    #[allow(clippy::too_many_arguments)]
    fn send(
        &self,
        now: LogicalTime,
        node: &NodeId,
        rule: &Rule,
        to: NodeId,
        args: Vec<Value>,
        body: Vec<TupleRef>,
        trigger: usize,
    ) -> Result<(LogicalTime, Delivery)> {
        let head = Tuple::new(rule.head.table, args);
        self.program.schemas.check(&head)?;
        let delay = if to == *node { 0 } else { rule.link_delay };
        Ok((
            now + delay,
            Delivery {
                node: to,
                tuple: Arc::new(head),
                rule: rule.name,
                body,
                trigger,
            },
        ))
    }

    fn fire_rule(
        &self,
        now: LogicalTime,
        node: &NodeId,
        tuple: &Arc<Tuple>,
        rule: &Rule,
        trigger: usize,
        out: &mut Vec<(LogicalTime, Delivery)>,
    ) -> Result<()> {
        for (mut env, body) in self.matches(node, tuple, rule, trigger) {
            if !self.admits(node, rule, &mut env)? {
                continue;
            }
            let to = NodeId(*rule.head.loc.eval(&env)?.as_str()?);
            let args = rule
                .head
                .args
                .iter()
                .map(|a| a.eval(&env))
                .collect::<Result<Vec<_>>>()?;
            let body = body
                .into_iter()
                .map(|t| TupleRef::new(*node, t))
                .collect();
            out.push(self.send(now, node, rule, to, args, body, trigger)?);
        }
        Ok(())
    }

    /// An aggregation rule: `tuple` is the fence (atom 0). The matches are
    /// grouped by head location and non-aggregate head arguments, the
    /// aggregate is folded per group in match order, and one head is
    /// derived per group, in group-key order. Its body is the fence plus
    /// every contributing tuple, each once, in first-use order.
    fn fire_agg_rule(
        &self,
        now: LogicalTime,
        node: &NodeId,
        tuple: &Arc<Tuple>,
        rule: &Rule,
        out: &mut Vec<(LogicalTime, Delivery)>,
    ) -> Result<()> {
        let spec = rule.agg.as_ref().expect("caller checked");
        // (head location, non-aggregate head arguments) -> (fold so far,
        // contributing tuples).
        type Group = (Option<i64>, Vec<TupleRef>);
        let mut groups: BTreeMap<(Value, Vec<Value>), Group> = BTreeMap::new();
        for (mut env, body) in self.matches(node, tuple, rule, 0) {
            if !self.admits(node, rule, &mut env)? {
                continue;
            }
            let loc = rule.head.loc.eval(&env)?;
            let mut key = Vec::with_capacity(rule.head.args.len());
            for (i, a) in rule.head.args.iter().enumerate() {
                if i != spec.head_index {
                    key.push(a.eval(&env)?);
                }
            }
            let input = env
                .get(&spec.var)
                .ok_or_else(|| Error::Engine(format!("aggregate variable {} unbound", spec.var)))?
                .as_int()?;
            let (acc, used) = groups
                .entry((loc, key))
                .or_insert_with(|| (None, vec![TupleRef::new(*node, Arc::clone(tuple))]));
            *acc = Some(spec.func.fold(*acc, input));
            for t in &body[1..] {
                let r = TupleRef::new(*node, *t);
                if !used.contains(&r) {
                    used.push(r);
                }
            }
        }
        for ((loc, mut args), (acc, used)) in groups {
            let acc = acc.expect("every group folded at least one match");
            args.insert(spec.head_index, Value::Int(acc));
            let to = NodeId(*loc.as_str()?);
            out.push(self.send(now, node, rule, to, args, used, 0)?);
        }
        Ok(())
    }
}

/// Matches `tuple` against `atom`, extending `env` with the variables it
/// binds. On `false`, `env` may hold bindings of the columns that matched.
fn bind(atom: &BodyAtom, tuple: &Tuple, env: &mut Env) -> bool {
    atom.args.len() == tuple.arity()
        && atom
            .args
            .iter()
            .zip(&tuple.args)
            .all(|(pat, val)| pat.matches(val, env))
}

/// The nested loop: fills body positions `pos..` (skipping `trigger`,
/// which is fixed) with every combination of live tuples that agrees
/// with `env`, pushing each complete match onto `out`.
fn extend<'t>(
    tables: &'t NodeTables,
    rule: &Rule,
    trigger: usize,
    pos: usize,
    env: &Env,
    body: &mut [&'t Tuple],
    out: &mut Vec<(Env, Vec<&'t Tuple>)>,
) {
    if pos == rule.body.len() {
        out.push((env.clone(), body.to_vec()));
        return;
    }
    if pos == trigger {
        return extend(tables, rule, trigger, pos + 1, env, body, out);
    }
    let atom = &rule.body[pos];
    // The body with the trigger tuple at this earlier position too belongs
    // to the firing at this position.
    let own = pos < trigger && atom.table == rule.body[trigger].table;
    for candidate in tables.get(&atom.table).into_iter().flat_map(BTreeMap::keys) {
        let candidate = &**candidate;
        if own && candidate == body[trigger] {
            continue;
        }
        let mut env = env.clone();
        if bind(atom, candidate, &mut env) {
            body[pos] = candidate;
            extend(tables, rule, trigger, pos + 1, &env, body, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::sink::VecSink;
    use dp_types::{tuple, FieldType, Schema, SchemaRegistry};

    /// A body tuple read in the episode that opened at `since`.
    fn at(node: &str, tuple: Tuple, since: LogicalTime) -> BodyRef {
        BodyRef {
            tref: TupleRef::new(node, tuple),
            since,
        }
    }

    /// A base insertion that makes its tuple appear (`since == time`).
    fn ins(time: LogicalTime, node: &str, tuple: Tuple) -> ProvEvent {
        ProvEvent::InsertBase {
            time,
            since: time,
            node: node.into(),
            tuple: Arc::new(tuple),
        }
    }

    fn del((since, time): (LogicalTime, LogicalTime), node: &str, tuple: Tuple) -> ProvEvent {
        ProvEvent::DeleteBase {
            time,
            since,
            node: node.into(),
            tuple: Arc::new(tuple),
        }
    }

    fn app(time: LogicalTime, node: &str, tuple: Tuple) -> ProvEvent {
        ProvEvent::Appear {
            time,
            node: node.into(),
            tuple: Arc::new(tuple),
        }
    }

    fn dis((since, time): (LogicalTime, LogicalTime), node: &str, tuple: Tuple) -> ProvEvent {
        ProvEvent::Disappear {
            time,
            since,
            node: node.into(),
            tuple: Arc::new(tuple),
        }
    }

    fn und(
        (since, time): (LogicalTime, LogicalTime),
        node: &str,
        tuple: Tuple,
        rule: &str,
    ) -> ProvEvent {
        ProvEvent::Underive {
            time,
            since,
            node: node.into(),
            tuple: Arc::new(tuple),
            rule: Sym::new(rule),
        }
    }

    /// A derivation triggered at body position 0, delivered at `time`
    /// into the head episode that opened at `since`.
    fn der(
        (time, since): (LogicalTime, LogicalTime),
        node: &str,
        tuple: Tuple,
        rule: &str,
        body: Vec<BodyRef>,
    ) -> ProvEvent {
        ProvEvent::Derive {
            time,
            since,
            node: node.into(),
            tuple: Arc::new(tuple),
            rule: Sym::new(rule),
            body,
            trigger: 0,
        }
    }

    /// The oracle pinned against a stream worked out by hand, so oracle
    /// and engine cannot drift together: three rules (a cross-node
    /// forward, a constrained local rule, an aggregate) over two nodes,
    /// with one redundant derivation, one deletion that only removes a
    /// support, and one that cascades two levels deep. Every `since` —
    /// the events' and the body entries' — is the time of the `Appear`
    /// line that opened the episode, read off this listing.
    #[test]
    fn hand_written_stream_is_reproduced() {
        let mut reg = SchemaRegistry::new();
        reg.declare(Schema::new(
            "link",
            TableKind::MutableBase,
            [("to", FieldType::Str)],
        ));
        reg.declare(Schema::new(
            "obs",
            TableKind::MutableBase,
            [("x", FieldType::Int), ("tag", FieldType::Int)],
        ));
        reg.declare(Schema::new(
            "fence",
            TableKind::MutableBase,
            [("g", FieldType::Int)],
        ));
        reg.declare(Schema::new(
            "seen",
            TableKind::Derived,
            [("x", FieldType::Int)],
        ));
        reg.declare(Schema::new(
            "big",
            TableKind::Derived,
            [("x", FieldType::Int)],
        ));
        reg.declare(Schema::new(
            "total",
            TableKind::Derived,
            [("n", FieldType::Int)],
        ));
        let program = Program::builder(reg)
            .rules_text(
                "fwd seen(@M, X) :- obs(@N, X, T), link(@N, M).\n\
                 loc big(@N, X) :- seen(@N, X), X > 1.\n\
                 cnt total(@N, agg_count(X)) :- fence(@N, G), seen(@N, X).",
            )
            .unwrap()
            .build()
            .unwrap();
        let schedule = [
            ScheduledOp::insert(0, "a", tuple!("link", "b")),
            ScheduledOp::insert(1, "a", tuple!("obs", 1, 10)),
            ScheduledOp::insert(1, "a", tuple!("obs", 1, 20)),
            ScheduledOp::insert(1, "a", tuple!("obs", 2, 10)),
            ScheduledOp::insert(10, "b", tuple!("fence", 0)),
            ScheduledOp::delete(20, "a", tuple!("obs", 1, 10)),
            ScheduledOp::delete(30, "a", tuple!("obs", 2, 10)),
        ];

        // The link appears at 1 and never goes.
        let link = || at("a", tuple!("link", "b"), 1);
        let want = vec![
            // Each event takes the next tick, or its due time if later.
            ins(1, "a", tuple!("link", "b")),
            app(1, "a", tuple!("link", "b")),
            // The three observations share due 1 and run at 2, 3, 4; each
            // sends `seen` to b, one tick of link delay later.
            ins(2, "a", tuple!("obs", 1, 10)),
            app(2, "a", tuple!("obs", 1, 10)),
            ins(3, "a", tuple!("obs", 1, 20)),
            app(3, "a", tuple!("obs", 1, 20)),
            ins(4, "a", tuple!("obs", 2, 10)),
            app(4, "a", tuple!("obs", 2, 10)),
            // Deliveries due 3, 4, 5 run at 5, 6, 7. seen(1) fails `X > 1`.
            der(
                (5, 5),
                "b",
                tuple!("seen", 1),
                "fwd",
                vec![at("a", tuple!("obs", 1, 10), 2), link()],
            ),
            app(5, "b", tuple!("seen", 1)),
            // Second support for a tuple that is already there, since 5: no
            // APPEAR, no firing.
            der(
                (6, 5),
                "b",
                tuple!("seen", 1),
                "fwd",
                vec![at("a", tuple!("obs", 1, 20), 3), link()],
            ),
            der(
                (7, 7),
                "b",
                tuple!("seen", 2),
                "fwd",
                vec![at("a", tuple!("obs", 2, 10), 4), link()],
            ),
            app(7, "b", tuple!("seen", 2)),
            // Local head: no delay, delivered at the next tick.
            der(
                (8, 8),
                "b",
                tuple!("big", 2),
                "loc",
                vec![at("b", tuple!("seen", 2), 7)],
            ),
            app(8, "b", tuple!("big", 2)),
            // The fence counts both seen tuples; the body is the fence plus
            // every contributor.
            ins(10, "b", tuple!("fence", 0)),
            app(10, "b", tuple!("fence", 0)),
            der(
                (11, 11),
                "b",
                tuple!("total", 2),
                "cnt",
                vec![
                    at("b", tuple!("fence", 0), 10),
                    at("b", tuple!("seen", 1), 5),
                    at("b", tuple!("seen", 2), 7),
                ],
            ),
            app(11, "b", tuple!("total", 2)),
            // obs(1, 10), there since 2, goes; seen(1), there since 5, loses
            // one of its two supports and stays.
            del((2, 20), "a", tuple!("obs", 1, 10)),
            dis((2, 20), "a", tuple!("obs", 1, 10)),
            und((5, 20), "b", tuple!("seen", 1), "fwd"),
            // obs(2, 10), there since 4, goes; seen(2) (since 7) loses its
            // only support; big(2) (since 8) and total(2) (since 11),
            // derived from it in that order, go with it, all at time 30.
            del((4, 30), "a", tuple!("obs", 2, 10)),
            dis((4, 30), "a", tuple!("obs", 2, 10)),
            und((7, 30), "b", tuple!("seen", 2), "fwd"),
            dis((7, 30), "b", tuple!("seen", 2)),
            und((8, 30), "b", tuple!("big", 2), "loc"),
            dis((8, 30), "b", tuple!("big", 2)),
            und((11, 30), "b", tuple!("total", 2), "cnt"),
            dis((11, 30), "b", tuple!("total", 2)),
        ];

        let mut sink = VecSink::default();
        let nodes = evaluate(&program, &schedule, &mut sink).unwrap();
        assert_eq!(sink.events, want);
        let live: Vec<(&str, Tuple, usize)> = nodes
            .nodes()
            .flat_map(|(n, st)| {
                st.all()
                    .map(move |(t, s)| (n.as_str(), t.clone(), s.support()))
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(
            live,
            vec![
                ("a", tuple!("link", "b"), 1),
                ("a", tuple!("obs", 1, 20), 1),
                ("b", tuple!("fence", 0), 1),
                ("b", tuple!("seen", 1), 1),
            ]
        );

        // The engine, held to the same hand-written stream directly.
        let mut eng = Engine::new(program, VecSink::default());
        for op in &schedule {
            eng.schedule(op).unwrap();
        }
        eng.run().unwrap();
        assert_eq!(eng.into_sink().events, want);
    }

    /// A self-join fires once per body position, and the firing at the
    /// later position leaves the body that repeats the trigger tuple at
    /// the earlier one to that position's firing: each body is derived
    /// exactly once, and no duplicate delivery is queued (one would
    /// consume a tick and shift every later timestamp).
    #[test]
    fn trigger_is_excluded_at_earlier_positions() {
        let mut reg = SchemaRegistry::new();
        reg.declare(Schema::new(
            "s",
            TableKind::MutableBase,
            [("k", FieldType::Int), ("a", FieldType::Int)],
        ));
        reg.declare(Schema::new(
            "two",
            TableKind::Derived,
            [("a", FieldType::Int), ("b", FieldType::Int)],
        ));
        let program = Program::builder(reg)
            .rules_text("r two(@N, A, B) :- s(@N, K, A), s(@N, K, B).")
            .unwrap()
            .build()
            .unwrap();
        let schedule = [
            ScheduledOp::insert(0, "n", tuple!("s", 1, 5)),
            ScheduledOp::insert(0, "n", tuple!("s", 1, 7)),
        ];
        let mut sink = VecSink::default();
        let nodes = evaluate(&program, &schedule, &mut sink).unwrap();
        let derived: Vec<(LogicalTime, Tuple, usize, bool)> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                ProvEvent::Derive {
                    time,
                    since,
                    tuple,
                    trigger,
                    ..
                } => Some((*time, (**tuple).clone(), *trigger, since < time)),
                _ => None,
            })
            .collect();
        // s(1,5) runs at 1 and pairs with itself once (position 0 only);
        // s(1,7) runs at 2: as position 0 it meets both tuples, as
        // position 1 only the other one. Deliveries run at 3, 4, 5, 6.
        assert_eq!(
            derived,
            vec![
                (3, tuple!("two", 5, 5), 0, false),
                (4, tuple!("two", 7, 5), 0, false),
                (5, tuple!("two", 7, 7), 0, false),
                (6, tuple!("two", 5, 7), 1, false),
            ]
        );
        let n = NodeId::new("n");
        let (_, view) = nodes.nodes().find(|(id, _)| **id == n).unwrap();
        for (t, st) in view.all() {
            assert!(t.table.as_str() != "two" || st.derivations.len() == 1);
        }
    }
}
