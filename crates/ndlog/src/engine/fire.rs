//! Rule firing: a flush's deltas through the compiled rules.
//!
//! A rule fires over its compiled form ([`crate::compile`]), never over
//! names. The trigger tuple is matched into a [`Frame`] — one
//! `Option<Value>` per slot of the rule and a trail of the slots bound —
//! and the join walks the plan's steps depth first, binding each
//! candidate's new variables and undoing them off the trail when it
//! backtracks. A complete match is stored as the row ids of its body
//! tuples, in body order, in one flat buffer. The matches are then put in
//! nested-loop order — the order of their body-tuple vectors, which is the
//! oracle's enumeration order whatever order the access paths found them
//! in — and each match's frame is rebuilt by re-matching its tuples before
//! the assignments, the constraints and the head run over it. What a
//! derivation's body records is those rows, as `RowRef`s.
//!
//! Re-matching rebuilds exactly the frame the join held when it completed
//! the match. The join bound each variable at its first occurrence along
//! the plan and compared every later occurrence with it, so within a
//! complete match every occurrence of a variable holds one value; binding
//! the trigger's location and then every atom against its row tuple, in
//! any order, binds the same slots to the same values, and no comparison
//! can fail. Starting each match from an empty frame also undoes whatever
//! the previous match's assignments wrote, a re-bound body variable
//! (`X := X + 1`) included.
//!
//! Everything a firing needs beyond its inputs lives in one [`Scratch`]
//! the engine keeps: the frame, the partial match, one probe-key buffer per
//! step, the matches and their order, the per-flush list of live rules and
//! the builtin-argument buffer. None of it is allocated per firing once
//! it has grown to the program's widest rule and largest match set.

use std::cmp::Ordering;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use dp_types::{Error, LogicalTime, NodeId, Result, TableKind, Tuple, Value};

use super::state::{Node, Nodes, RowRef, Table, NIL};
use super::{Action, Body, Delta, Derivation, NodeView, RuleJoinProfile, Stats};
use crate::ast::Rule;
use crate::compile::{Arg, Check, CompiledRule, Slot, Step};
use crate::program::{Emitter, Program};

/// The bindings of one firing: a value per slot and the trail of the
/// slots bound, in binding order. Every firing opens it empty.
#[derive(Default)]
struct Frame {
    vals: Vec<Option<Value>>,
    trail: Vec<Slot>,
}

impl Frame {
    /// An empty frame of at least `slots` slots.
    fn open(&mut self, slots: usize) {
        self.undo(0);
        if self.vals.len() < slots {
            self.vals.resize(slots, None);
        }
    }

    /// Binds `slot` to `value`, or — when it is bound — checks that it
    /// holds `value`.
    fn bind(&mut self, slot: Slot, value: &Value) -> bool {
        match &self.vals[slot] {
            Some(bound) => bound == value,
            None => {
                self.vals[slot] = Some(value.clone());
                self.trail.push(slot);
                true
            }
        }
    }

    /// Writes an assignment's value, bound or not.
    fn assign(&mut self, slot: Slot, value: Value) {
        if self.vals[slot].replace(value).is_none() {
            self.trail.push(slot);
        }
    }

    /// Unbinds every slot bound since the trail was `mark` long.
    fn undo(&mut self, mark: usize) {
        for slot in self.trail.drain(mark..) {
            self.vals[slot] = None;
        }
    }

    /// Matches `tuple` against an atom's arguments, binding the slots it
    /// leaves unbound; on a mismatch nothing stays bound.
    fn match_args(&mut self, args: &[Arg], tuple: &Tuple) -> bool {
        if args.len() != tuple.arity() {
            return false;
        }
        let mark = self.trail.len();
        for (arg, val) in args.iter().zip(&tuple.args) {
            let ok = match arg {
                Arg::Wild => true,
                Arg::Const(c) => c == val,
                Arg::Slot(s) => self.bind(*s, val),
            };
            if !ok {
                self.undo(mark);
                return false;
            }
        }
        true
    }

    /// Matches body atom `trigger` of `rule` against `tuple` at a node
    /// whose name is `loc`: the location first, then the arguments.
    fn match_trigger(
        &mut self,
        rule: &CompiledRule,
        trigger: usize,
        loc: &Value,
        tuple: &Tuple,
    ) -> bool {
        let (loc_slot, args) = &rule.atoms[trigger];
        self.bind(*loc_slot, loc) && self.match_args(args, tuple)
    }

    /// The frame of the complete match `rows` at `node`, rebuilt from
    /// nothing (see the module docs).
    fn rematch(
        &mut self,
        rule: &CompiledRule,
        trigger: usize,
        loc: &Value,
        node: &Node,
        rows: &[u32],
    ) {
        self.undo(0);
        let matched = self.bind(rule.atoms[trigger].0, loc)
            && rule.atoms.iter().zip(&rule.tables).zip(rows).all(|(((_, args), &t), &r)| {
                self.match_args(args, &node.tables[t as usize].rows[r as usize].tuple)
            });
        debug_assert!(matched, "a complete match re-matches its own tuples");
    }
}

/// What rule firing reuses from one firing to the next (see the module
/// docs). Each firing starts by emptying what it uses.
#[derive(Default)]
pub(super) struct Scratch {
    frame: Frame,
    /// The row matched at each atom so far (`NIL` where none is yet).
    partial: Vec<u32>,
    /// One index-probe key per join step, each kept for its allocation.
    keys: Vec<Vec<Value>>,
    /// The complete matches: each the rows of its body tuples in body
    /// order, end to end.
    rows: Vec<u32>,
    /// The matches' indices, in nested-loop order.
    order: Vec<usize>,
    /// The rules a delta group fires: `(rule index, trigger atom)`.
    live: Vec<(usize, usize)>,
    /// A builtin call's evaluated arguments.
    args: Vec<Value>,
}

/// The read-only half of the engine a rule firing needs: the program
/// (compiled rules, schemas, natives) and the frozen nodes.
/// Firing never mutates node state — actions are buffered and queued
/// afterwards — so the context borrows the node map shared while
/// [`FireOut`] borrows what a firing writes alongside it.
pub(super) struct FireCtx<'a> {
    pub(super) program: &'a Program,
    pub(super) nodes: &'a Nodes,
}

/// The half of the engine a rule firing writes: the join-effort counters
/// (run-wide and per rule slot), the flat buffer of scheduled actions, in
/// push order, and the scratch.
pub(super) struct FireOut<'a> {
    pub(super) stats: &'a mut Stats,
    pub(super) profile: &'a mut [RuleJoinProfile],
    pub(super) actions: &'a mut Vec<(LogicalTime, Action)>,
    pub(super) scratch: &'a mut Scratch,
}

impl FireCtx<'_> {
    /// Fires every rule and native triggered by `deltas` — one batch —
    /// appending the scheduled actions to `out.actions` in push order.
    ///
    /// Consecutive same-(node, table) deltas form a group. The group's
    /// live trigger list is resolved once — a rule whose partner table is
    /// empty is dropped for the whole group — and then the group fires
    /// delta-major: for each delta those rules in program order, then the
    /// natives. That is the order tuple-at-a-time firing schedules in.
    pub(super) fn fire_deltas(&self, deltas: &[Delta], out: &mut FireOut<'_>) -> Result<()> {
        let mut start = 0;
        while start < deltas.len() {
            let at = deltas[start].row;
            let mut end = start + 1;
            while end < deltas.len()
                && deltas[end].row.node == at.node
                && deltas[end].row.table == at.table
            {
                end += 1;
            }
            let group = &deltas[start..end];
            let node = &self.nodes.nodes[at.node as usize];
            let live = &mut out.scratch.live;
            live.clear();
            live.extend(
                self.program
                    .rule_triggers_at(at.table)
                    .iter()
                    .copied()
                    .filter(|&(ri, ai)| {
                        let rule = self.program.rule_at(ri);
                        if rule.agg.is_some() {
                            // Aggregates fire on their fence (atom 0) only.
                            return ai == 0;
                        }
                        // Batch-level pruning: within a batch tables only ever
                        // grow (deletions force a flush first, and there is no
                        // in-place replacement), so a body table that is empty at
                        // flush time was empty at every delta's horizon — the join
                        // cannot complete for any delta in the group. Skipping it
                        // here saves one trigger match and one doomed join per
                        // delta. Only join effort counters (probes/scans/
                        // candidates) shrink; a pruned join can never have
                        // produced a match or a derivation.
                        let tables = &self.program.compiled(ri).tables;
                        !tables.iter().enumerate().any(|(bi, &t)| {
                            bi != ai && node.table(t).is_none_or(Table::is_empty)
                        })
                    }),
            );
            let natives = self.program.native_triggers_at(at.table);
            for d in group {
                // By index: a firing borrows the scratch the list lives in.
                for k in 0..out.scratch.live.len() {
                    let (ri, ai) = out.scratch.live[k];
                    if self.program.rule_at(ri).agg.is_some() {
                        self.fire_agg_rule(d, ri, out)?;
                    } else {
                        self.fire_rule(d, ri, ai, out)?;
                    }
                }
                for &ni in natives {
                    self.fire_native(d, ni, out)?;
                }
            }
            start = end;
        }
        Ok(())
    }

    /// Fires native rule `ni` for delta `d`, appending the scheduled
    /// actions to `out.actions`. An emission must fit its schema and, like
    /// a rule head, belong to a `Derived` table: what the head interner
    /// holds never equals a base tuple.
    fn fire_native(&self, d: &Delta, ni: usize, out: &mut FireOut<'_>) -> Result<()> {
        let native = self.program.native_at(ni);
        let mut emitter = Emitter::default();
        native.fire(
            &NodeView::of_engine(self.nodes, self.program, d.row.node, d.at),
            &self.nodes.slot(d.row).tuple,
            &mut emitter,
        )?;
        for em in emitter.emissions {
            let schema = self.program.schemas.require(&em.tuple.table)?;
            schema.check(&em.tuple)?;
            if schema.kind != TableKind::Derived {
                return Err(Error::Schema {
                    table: em.tuple.table,
                    message: format!("native {} emits into a non-derived table", native.name()),
                });
            }
            let table = self
                .program
                .table_index(&em.tuple.table)
                .ok_or(Error::UnknownTable(em.tuple.table))?;
            out.actions.push((
                d.at + em.delay,
                Action::InsertDerived(Derivation {
                    node: em.node,
                    args: em.tuple.args.into_boxed_slice(),
                    table,
                    slot: (self.program.rules().len() + ni) as u32,
                    body: Body::Named(em.body),
                    trigger: 0,
                }),
            ));
        }
        Ok(())
    }

    /// Matches delta `d` at body atom `trigger` of rule `ri` and joins the
    /// rest of the body against the state as of the delta's appearance,
    /// leaving the complete matches in `scratch.rows` and their
    /// nested-loop order in `scratch.order`, and adding the join's
    /// counters to the run's and the rule's own. `None` when the trigger
    /// does not match the atom or the node holds no state — nothing is
    /// counted then.
    fn join<'s>(
        &'s self,
        d: &Delta,
        ri: usize,
        trigger: usize,
        loc: &Value,
        out: &mut FireOut<'_>,
    ) -> Option<&'s Node> {
        let rule = self.program.rule_at(ri);
        let compiled = self.program.compiled(ri);
        let sc = &mut *out.scratch;
        sc.frame.open(compiled.slots);
        sc.rows.clear();
        sc.order.clear();
        let node = &self.nodes.nodes[d.row.node as usize];
        let trigger_tuple = &self.nodes.slot(d.row).tuple;
        if !sc.frame.match_trigger(compiled, trigger, loc, trigger_tuple) {
            return None;
        }
        // Every firing trigger is planned; an aggregation rule's later
        // atoms never fire it.
        let steps = compiled.plans[trigger].as_deref()?;
        sc.partial.clear();
        sc.partial.resize(rule.body.len(), NIL);
        sc.partial[trigger] = d.row.row;
        if sc.keys.len() < steps.len() {
            sc.keys.resize_with(steps.len(), Vec::new);
        }
        // This firing's join effort: one attempt, counted by the join.
        let mut counters = RuleJoinProfile {
            attempts: 1,
            ..RuleJoinProfile::default()
        };
        let join = Join {
            node,
            compiled,
            steps,
            trigger: d.row.row,
            as_of: d.at,
        };
        join.step(
            0,
            &mut sc.frame,
            &mut sc.partial,
            &mut sc.keys,
            &mut sc.rows,
            &mut counters,
        );
        // Index probing discovers matches in plan order; restore the
        // nested-loop enumeration order (lexicographic by body vector — the
        // trigger slot is constant, so this compares the remaining atoms
        // in body order exactly as the oracle's nested loop emits them).
        // No two matches are equal, so an unstable sort is deterministic.
        let width = rule.body.len();
        sc.order.extend(0..sc.rows.len() / width);
        let rows = &sc.rows;
        sc.order.sort_unstable_by(|&a, &b| {
            cmp_matches(
                node,
                &compiled.tables,
                &rows[a * width..(a + 1) * width],
                &rows[b * width..(b + 1) * width],
            )
        });
        out.profile[ri].absorb(&counters);
        out.stats.join_probes += counters.probes;
        out.stats.join_scans += counters.scans;
        out.stats.trie_probes += counters.trie_probes;
        out.stats.trie_scans += counters.trie_scans;
        out.stats.join_candidates += counters.candidates;
        out.stats.join_matches += counters.matches;
        Some(node)
    }

    /// Attempts to fire rule `ri` with delta `d` matched at body position
    /// `trigger`, joining the remaining atoms against the state as of the
    /// delta's appearance, appending the scheduled actions to `out`.
    fn fire_rule(&self, d: &Delta, ri: usize, trigger: usize, out: &mut FireOut<'_>) -> Result<()> {
        let view = NodeView::of_engine(self.nodes, self.program, d.row.node, d.at);
        let loc = Value::Str(view.node.0);
        let Some(node) = self.join(d, ri, trigger, &loc, out) else {
            return Ok(());
        };
        let rule = self.program.rule_at(ri);
        let compiled = self.program.compiled(ri);
        let width = rule.body.len();
        let FireOut {
            actions, scratch, ..
        } = out;
        let Scratch {
            frame,
            rows,
            order,
            args,
            ..
        } = &mut **scratch;
        for &m in order.iter() {
            let matched = &rows[m * width..(m + 1) * width];
            frame.rematch(compiled, trigger, &loc, node, matched);
            if !admits(compiled, rule, frame, args, &view)? {
                continue;
            }
            let head_node = NodeId(*compiled.head_loc.eval(&frame.vals)?.as_str()?);
            let mut head_args = Vec::with_capacity(compiled.head_args.len());
            for a in &compiled.head_args {
                head_args.push(a.eval(&frame.vals)?);
            }
            let head = Tuple::new(rule.head.table, head_args);
            self.program.schemas.check(&head)?;
            let body = matched
                .iter()
                .zip(&compiled.tables)
                .map(|(&row, &table)| RowRef {
                    node: d.row.node,
                    table,
                    row,
                })
                .collect();
            let delay = if head_node == *view.node {
                0
            } else {
                rule.link_delay
            };
            actions.push((
                d.at + delay,
                Action::InsertDerived(Derivation {
                    node: head_node,
                    args: head.args.into_boxed_slice(),
                    table: compiled.head_table,
                    slot: ri as u32,
                    body: Body::Rows(body),
                    trigger: trigger as u32,
                }),
            ));
        }
        Ok(())
    }

    /// Fires aggregation rule `ri`: the fence `d.tuple` appeared at
    /// `d.node`; join the remaining body atoms against the node's state,
    /// group the matches by head location and non-aggregate head
    /// arguments, fold the aggregate per group in match order, and derive
    /// one head tuple per group, in group-key order. The reported body of
    /// each derivation is the fence plus every contributing tuple, each
    /// once, in first-use order.
    fn fire_agg_rule(&self, d: &Delta, ri: usize, out: &mut FireOut<'_>) -> Result<()> {
        let view = NodeView::of_engine(self.nodes, self.program, d.row.node, d.at);
        let loc = Value::Str(view.node.0);
        let Some(node) = self.join(d, ri, 0, &loc, out) else {
            return Ok(());
        };
        let rule = self.program.rule_at(ri);
        let compiled = self.program.compiled(ri);
        // The caller fires this only for an aggregation rule, which the
        // compiler gave an aggregate slot.
        let (Some(spec), Some(agg_slot)) = (rule.agg.as_ref(), compiled.agg) else {
            return Ok(());
        };
        let width = rule.body.len();
        let FireOut {
            actions, scratch, ..
        } = out;
        let Scratch {
            frame,
            rows,
            order,
            args,
            ..
        } = &mut **scratch;
        // (head location, non-aggregate head arguments) -> (fold so far,
        // contributing tuples).
        let mut groups: BTreeMap<(Value, Vec<Value>), (i64, Vec<RowRef>)> = BTreeMap::new();
        for &m in order.iter() {
            let matched = &rows[m * width..(m + 1) * width];
            frame.rematch(compiled, 0, &loc, node, matched);
            if !admits(compiled, rule, frame, args, &view)? {
                continue;
            }
            let head_loc = compiled.head_loc.eval(&frame.vals)?;
            let mut key = Vec::with_capacity(compiled.head_args.len());
            for (i, a) in compiled.head_args.iter().enumerate() {
                if i != spec.head_index {
                    key.push(a.eval(&frame.vals)?);
                }
            }
            let input = frame.vals[agg_slot]
                .as_ref()
                .ok_or_else(|| Error::Engine(format!("aggregate variable {} unbound", spec.var)))?
                .as_int()?;
            let used = match groups.entry((head_loc, key)) {
                Entry::Vacant(slot) => {
                    &mut slot.insert((spec.func.fold(None, input), vec![d.row])).1
                }
                Entry::Occupied(slot) => {
                    let (acc, used) = slot.into_mut();
                    *acc = spec.func.fold(Some(*acc), input);
                    used
                }
            };
            for (&row, &table) in matched.iter().zip(&compiled.tables).skip(1) {
                let r = RowRef {
                    node: d.row.node,
                    table,
                    row,
                };
                if !used.contains(&r) {
                    used.push(r);
                }
            }
        }
        for ((head_loc, mut head_args), (acc, body)) in groups {
            head_args.insert(spec.head_index, Value::Int(acc));
            let head_node = NodeId(*head_loc.as_str()?);
            let head = Tuple::new(rule.head.table, head_args);
            self.program.schemas.check(&head)?;
            let delay = if head_node == *view.node {
                0
            } else {
                rule.link_delay
            };
            actions.push((
                d.at + delay,
                Action::InsertDerived(Derivation {
                    node: head_node,
                    args: head.args.into_boxed_slice(),
                    table: compiled.head_table,
                    slot: ri as u32,
                    body: Body::Rows(body),
                    trigger: 0,
                }),
            ));
        }
        Ok(())
    }
}

/// Runs the assignments and checks the constraints of `rule` over the
/// frame of one complete match. `Ok(false)` drops this match only: a
/// constraint is false, or arithmetic failed (e.g. a header field out of
/// range). `args` is the builtin-argument buffer; `view` is what a
/// builtin sees of the node.
fn admits(
    compiled: &CompiledRule,
    rule: &Rule,
    frame: &mut Frame,
    args: &mut Vec<Value>,
    view: &NodeView<'_>,
) -> Result<bool> {
    for (slot, expr) in &compiled.assigns {
        match expr.eval(&frame.vals) {
            Ok(v) => frame.assign(*slot, v),
            Err(Error::Arith(_)) => return Ok(false),
            Err(e) => return Err(e),
        }
    }
    for (check, source) in compiled.checks.iter().zip(&rule.constraints) {
        let holds = match check {
            Check::Expr(e) => match e.eval(&frame.vals) {
                Ok(Value::Bool(b)) => b,
                Ok(other) => {
                    return Err(Error::Engine(format!(
                        "constraint {source} evaluated to non-boolean {other}"
                    )))
                }
                Err(Error::Arith(_)) => false,
                Err(e) => return Err(e),
            },
            Check::Builtin(builtin, exprs) => {
                args.clear();
                for a in exprs {
                    args.push(a.eval(&frame.vals)?);
                }
                builtin.eval(view, args)?
            }
        };
        if !holds {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Two of one rule's matches at `node` in nested-loop order: body
/// position by body position, each by its tuple's arguments (a position's
/// tuples all belong to one table, `tables[position]`). A table holds one
/// row per tuple, so two matches naming the same tuple at a position name
/// the same row, and a shared position costs an integer compare.
fn cmp_matches(node: &Node, tables: &[u32], a: &[u32], b: &[u32]) -> Ordering {
    for ((&x, &y), &t) in a.iter().zip(b).zip(tables) {
        if x == y {
            continue;
        }
        let rows = &node.tables[t as usize].rows;
        match rows[x as usize].tuple.args.cmp(&rows[y as usize].tuple.args) {
            Ordering::Equal => {}
            unequal => return unequal,
        }
    }
    Ordering::Equal
}

/// What one firing's join reads.
struct Join<'a> {
    node: &'a Node,
    compiled: &'a CompiledRule,
    steps: &'a [Step],
    /// The trigger tuple's row.
    trigger: u32,
    as_of: LogicalTime,
}

impl Join<'_> {
    /// Depth-first join from step `i` of the plan, binding into `frame`
    /// and undoing off its trail instead of cloning bindings per
    /// candidate. Complete matches are appended to `rows` in plan-
    /// enumeration order; the caller re-sorts them. Candidates that
    /// appeared after `as_of` are invisible (see the engine's module docs
    /// on batching). `keys` holds a probe-key buffer for step `i` and each
    /// step after it.
    ///
    /// When the rule mentions the trigger's table at an *earlier* body
    /// position than the trigger, the trigger tuple itself is excluded from
    /// that position's candidates: the identical body is enumerated — and
    /// its derivation recorded — by the firing at the earlier trigger
    /// position, so admitting it here would schedule a duplicate derivation
    /// (silently deduplicated at delivery) and double-count the join's
    /// candidates and matches in [`Stats`] and the per-rule profile.
    fn step(
        &self,
        i: usize,
        frame: &mut Frame,
        partial: &mut [u32],
        keys: &mut [Vec<Value>],
        rows: &mut Vec<u32>,
        counters: &mut RuleJoinProfile,
    ) {
        let (Some(step), [key, keys @ ..]) = (self.steps.get(i), keys) else {
            counters.matches += 1;
            rows.extend_from_slice(partial);
            return;
        };
        let table = self.node.table(self.compiled.tables[step.atom]);
        let args = &self.compiled.atoms[step.atom].1;
        // The candidate loop, monomorphized per access path. Filtering by
        // the trie removes only candidates the `prefix_contains` constraint
        // would reject (or that cannot match the atom at all), and the
        // collected matches are re-sorted into nested-loop enumeration
        // order before acting, so every access path schedules the same
        // event stream.
        macro_rules! join_candidates {
            ($candidates:expr) => {
                for (row, candidate) in table.into_iter().flat_map($candidates) {
                    counters.candidates += 1;
                    if step.skips_trigger && row == self.trigger {
                        continue;
                    }
                    let mark = frame.trail.len();
                    if frame.match_args(args, candidate) {
                        partial[step.atom] = row;
                        self.step(i + 1, frame, partial, keys, rows, counters);
                        partial[step.atom] = NIL;
                        frame.undo(mark);
                    }
                }
            };
        }
        if let Some((slot, ops)) = &step.index {
            key.clear();
            key.extend(ops.iter().map(|op| op.read(&frame.vals).clone()));
            counters.probes += 1;
            let key = &*key;
            join_candidates!(|t: &'_ Table| t.probe(*slot, key, self.as_of));
            return;
        }
        // A scan step carrying prefix probes walks a trie instead, when the
        // bound address is actually an IP (a non-IP value falls back to the
        // scan so the constraint raises the type error the oracle raises).
        // With several constrained columns the most selective trie — fewest
        // candidates for this execution's address, estimated by an O(32)
        // bucket-count walk — is probed. An estimate tie goes to the first
        // candidate, which is the lowest column (`min_by_key` keeps the
        // first, and the planner lists them in column order): a total,
        // value-determined key, so the pick — and the trie-counter split it
        // drives — is stable across platforms. The choice only prunes
        // differently, never changes the re-sorted match set, so any pick is
        // stream-identical; only the counters demand the fixed tie-break.
        let trie_probe = step
            .prefixes
            .iter()
            .filter_map(|(slot, ip)| match ip.read(&frame.vals) {
                Value::Ip(ip) => Some((*slot, *ip)),
                _ => None,
            })
            .min_by_key(|&(slot, ip)| table.map_or(0, |t| t.estimate_prefix(slot, ip)));
        if let Some((slot, ip)) = trie_probe {
            counters.trie_probes += 1;
            join_candidates!(|t: &'_ Table| t.probe_prefix(slot, ip, self.as_of));
        } else {
            counters.scans += 1;
            if !step.prefixes.is_empty() {
                counters.trie_scans += 1;
            }
            join_candidates!(|t: &'_ Table| t.scan(self.as_of));
        }
    }
}
