//! Negative provenance: "why does this tuple NOT exist?"
//!
//! DiffProv builds on Y! [Wu et al., SIGCOMM 2014], which explains
//! *missing* events. This module provides that capability over the NDlog
//! engine: given a goal tuple that is absent, it explains the absence
//! rule by rule — for each rule that could have derived the goal, which
//! body tuple was missing (recursively) or which constraint failed.
//!
//! The explanation is the natural companion to DiffProv: the operator
//! first asks *why not* to understand the failure, then hands DiffProv a
//! reference event to compute the fix.

use std::fmt;

use dp_ndlog::{Constraint, Engine, Env, Pattern, ProvenanceSink, Rule};
use dp_types::{LogicalTime, NodeId, Sym, Tuple, TupleRef, Value};

use crate::graph::ProvGraph;

/// Why a goal tuple does not exist.
#[derive(Clone, Debug)]
pub enum WhyNot {
    /// It does exist — nothing to explain.
    Exists,
    /// A base tuple that was never inserted (or was deleted).
    BaseAbsent {
        /// When it was deleted, if it ever existed.
        deleted_at: Option<LogicalTime>,
    },
    /// A derived tuple with no successful derivation; one entry per rule
    /// that could produce it.
    NoDerivation(Vec<RuleFailure>),
    /// The goal's table is not declared in the program.
    UnknownTable,
    /// Recursion depth exhausted.
    DepthLimit,
}

/// Why one specific rule failed to derive the goal.
#[derive(Clone, Debug)]
pub struct RuleFailure {
    /// The rule.
    pub rule: Sym,
    /// The reason.
    pub reason: FailReason,
}

/// The proximate cause of a rule not firing.
#[derive(Clone, Debug)]
pub enum FailReason {
    /// The head cannot produce the goal values at all (no unification).
    HeadMismatch,
    /// A body atom has no matching tuple under the bindings established
    /// so far.
    MissingBody {
        /// Node searched.
        node: NodeId,
        /// The atom's table.
        table: Sym,
        /// The instantiated pattern (bound values; `None` = unconstrained).
        pattern: Vec<Option<Value>>,
        /// Recursive explanation when the pattern is fully ground.
        nested: Option<Box<WhyNot>>,
    },
    /// All body atoms matched, but a constraint rejected every binding.
    ConstraintFailed {
        /// Display form of the failing constraint.
        constraint: String,
    },
    /// All atoms matched and constraints passed — the tuple is derivable
    /// but absent, which indicates in-flight work or a bug.
    DerivableButAbsent,
}

/// Explains why `goal` is absent from the engine's current state.
///
/// `depth` bounds the recursion through missing subgoals; the provenance
/// `graph` (optional) supplies deletion times for base tuples.
pub fn why_not<S: ProvenanceSink>(
    engine: &Engine<S>,
    graph: Option<&ProvGraph>,
    goal: &TupleRef,
    depth: usize,
) -> WhyNot {
    if engine.contains(&goal.node, &goal.tuple) {
        return WhyNot::Exists;
    }
    if depth == 0 {
        return WhyNot::DepthLimit;
    }
    let program = engine.program().clone();
    let Some(schema) = program.schemas.get(&goal.tuple.table) else {
        return WhyNot::UnknownTable;
    };
    if schema.kind != dp_types::TableKind::Derived {
        let deleted_at = graph.and_then(|g| {
            g.episodes(goal)
                .iter()
                .rev()
                .find_map(|e| e.end)
        });
        return WhyNot::BaseAbsent { deleted_at };
    }
    let mut failures = Vec::new();
    for rule in program.rules() {
        if rule.head.table != goal.tuple.table {
            continue;
        }
        let reason = if rule.agg.is_some() {
            explain_agg_rule(engine, rule, goal)
        } else {
            explain_rule(engine, graph, rule, goal, depth)
        };
        failures.push(RuleFailure {
            rule: rule.name,
            reason,
        });
    }
    WhyNot::NoDerivation(failures)
}

/// Unifies the rule head with the goal, returning the variable bindings —
/// or `None` when the head cannot produce the goal.
fn unify_head(rule: &Rule, goal: &TupleRef) -> Option<Env> {
    let mut env = Env::new();
    // The head location must be the goal's node.
    match &rule.head.loc {
        dp_ndlog::Expr::Var(v) => {
            env.insert(*v, Value::Str(goal.node.0));
        }
        other => {
            if other.eval(&env).ok()? != Value::Str(goal.node.0) {
                return None;
            }
        }
    }
    for (expr, value) in rule.head.args.iter().zip(&goal.tuple.args) {
        match expr {
            dp_ndlog::Expr::Var(v) => match env.get(v) {
                Some(bound) if bound != value => return None,
                Some(_) => {}
                None => {
                    env.insert(*v, value.clone());
                }
            },
            dp_ndlog::Expr::Const(c) => {
                if c != value {
                    return None;
                }
            }
            complex => {
                // Try to invert; on failure, leave the variables free (the
                // body search will enumerate candidates).
                if let Ok(bindings) = complex.invert(value, &env) {
                    for (var, val) in bindings {
                        env.insert(var, val);
                    }
                }
            }
        }
    }
    Some(env)
}

/// Aggregation rules fire on their fence and fold contributors; the useful
/// explanations are "the fence never arrived" and "the contributors present
/// at fence time do not produce this value".
fn explain_agg_rule<S: ProvenanceSink>(
    engine: &Engine<S>,
    rule: &Rule,
    goal: &TupleRef,
) -> FailReason {
    let fence = &rule.body[0];
    let fence_present = engine
        .view(&goal.node)
        .map(|v| v.table(&fence.table).next().is_some())
        .unwrap_or(false);
    if !fence_present {
        return FailReason::MissingBody {
            node: goal.node,
            table: fence.table,
            pattern: fence.args.iter().map(|_| None).collect(),
            nested: None,
        };
    }
    FailReason::ConstraintFailed {
        constraint: format!(
            "aggregate {} over the contributors present at fence time does not \
             produce this tuple",
            rule.agg.as_ref().expect("caller checked").func.name()
        ),
    }
}

fn explain_rule<S: ProvenanceSink>(
    engine: &Engine<S>,
    graph: Option<&ProvGraph>,
    rule: &Rule,
    goal: &TupleRef,
    depth: usize,
) -> FailReason {
    let Some(env) = unify_head(rule, goal) else {
        return FailReason::HeadMismatch;
    };
    // Candidate body nodes: if the body location variable is bound (head
    // at the same location), only that node; otherwise every node.
    let loc_var = &rule.body[0].loc;
    let nodes: Vec<NodeId> = match env.get(loc_var) {
        Some(Value::Str(s)) => vec![NodeId(*s)],
        _ => engine.nodes().map(|(n, _)| *n).collect(),
    };
    let mut best: Option<(usize, FailReason)> = None;
    for node in &nodes {
        let mut env = env.clone();
        env.insert(*loc_var, Value::Str(node.0));
        let mut remaining: Vec<usize> = (0..rule.body.len()).collect();
        match search_body(engine, graph, rule, node, &mut remaining, 0, env, depth) {
            Ok(()) => return FailReason::DerivableButAbsent,
            Err((progress, reason)) => {
                // Prefer the most advanced explanation (most atoms
                // satisfied before failing), then the most informative.
                let score = score_of(progress, &reason);
                if best.as_ref().is_none_or(|(p, r)| score > score_of(*p, r)) {
                    best = Some((progress, reason));
                }
            }
        }
    }
    best.map(|(_, r)| r).unwrap_or(FailReason::HeadMismatch)
}

/// Ranks failure explanations: more satisfied atoms first; among equals, a
/// recursive (nested) cause beats a bare missing pattern.
fn score_of(progress: usize, reason: &FailReason) -> (usize, usize) {
    let informative = match reason {
        // A recursive explanation through another derived tuple is the
        // most useful ("the pktOut is missing because ..."), a missing
        // base tuple the next best, a constraint failure after that.
        FailReason::MissingBody {
            nested: Some(nested),
            ..
        } => match **nested {
            WhyNot::NoDerivation(_) => 3,
            _ => 2,
        },
        FailReason::ConstraintFailed { .. } => 1,
        _ => 0,
    };
    (progress, informative)
}

/// Tuples on `node` matching `atom` under `env`.
fn candidates_for<S: ProvenanceSink>(
    engine: &Engine<S>,
    node: &NodeId,
    rule: &Rule,
    atom_idx: usize,
    env: &Env,
) -> Vec<Tuple> {
    let atom = &rule.body[atom_idx];
    match engine.view(node) {
        Some(view) => view
            .table(&atom.table)
            .filter(|t| {
                let mut env2 = env.clone();
                t.arity() == atom.args.len()
                    && atom
                        .args
                        .iter()
                        .zip(&t.args)
                        .all(|(p, v)| p.matches(v, &mut env2))
            })
            .cloned()
            .collect(),
        None => Vec::new(),
    }
}

/// Goal-directed search for a full body binding. Atoms are expanded most-
/// constrained-first (fewest candidates), which both prunes the search and
/// produces the explanation a human would give ("the host is on oz4, and
/// oz4 has no pktOut towards it" rather than "bb1 has no host tuple").
/// On failure returns how many atoms were satisfied and the blocking
/// reason along the most advanced path.
#[allow(clippy::too_many_arguments)]
fn search_body<S: ProvenanceSink>(
    engine: &Engine<S>,
    graph: Option<&ProvGraph>,
    rule: &Rule,
    node: &NodeId,
    remaining: &mut Vec<usize>,
    satisfied: usize,
    env: Env,
    depth: usize,
) -> Result<(), (usize, FailReason)> {
    if remaining.is_empty() {
        // Assignments + constraints.
        let mut env = env;
        if rule.run_assigns(&mut env).is_err() {
            return Err((
                satisfied,
                FailReason::ConstraintFailed {
                    constraint: "assignment failed".to_string(),
                },
            ));
        }
        for c in &rule.constraints {
            let ok = match c {
                Constraint::Expr(e) => matches!(e.eval(&env), Ok(Value::Bool(true))),
                Constraint::Builtin { name, args } => {
                    let vals: Result<Vec<Value>, _> = args.iter().map(|a| a.eval(&env)).collect();
                    match (vals, engine.view(node)) {
                        (Ok(vals), Some(view)) => engine
                            .program()
                            .builtin(name)
                            .ok()
                            .map(|b| b.eval(&view, &vals).unwrap_or(false))
                            .unwrap_or(false),
                        _ => false,
                    }
                }
            };
            if !ok {
                return Err((
                    satisfied,
                    FailReason::ConstraintFailed {
                        constraint: c.to_string(),
                    },
                ));
            }
        }
        return Ok(());
    }
    // Atom selection shapes the explanation:
    //  1. a missing atom whose pattern is fully ground is reported first —
    //     it admits a recursive explanation;
    //  2. otherwise expand a satisfiable atom, most-constrained first,
    //     base-table facts before derived tuples — binding more variables
    //     may ground a missing atom for rule 1;
    //  3. only when nothing is satisfiable is a non-ground missing atom
    //     reported.
    let schemas = &engine.program().schemas;
    let scored: Vec<(usize, usize, Vec<Tuple>, bool)> = remaining
        .iter()
        .enumerate()
        .map(|(slot, &ai)| {
            let c = candidates_for(engine, node, rule, ai, &env);
            let ground = rule.body[ai].args.iter().all(|p| match p {
                Pattern::Const(_) => true,
                Pattern::Var(v) => env.contains_key(v),
                Pattern::Wildcard => false,
            });
            (slot, ai, c, ground)
        })
        .collect();
    let chosen = scored
        .iter()
        .find(|(_, _, c, ground)| c.is_empty() && *ground)
        .or_else(|| {
            scored
                .iter()
                .filter(|(_, _, c, _)| !c.is_empty())
                .min_by_key(|(_, ai, c, _)| {
                    let derived = matches!(
                        schemas.get(&rule.body[*ai].table).map(|s| s.kind),
                        Some(dp_types::TableKind::Derived)
                    );
                    (c.len(), derived, *ai)
                })
        })
        .or_else(|| scored.first())
        .expect("remaining is nonempty");
    let (slot, chosen_idx, candidates) = (chosen.0, chosen.1, chosen.2.clone());
    let atom = &rule.body[chosen_idx];
    if candidates.is_empty() {
        // Report the instantiated pattern; recurse when fully ground.
        let pattern: Vec<Option<Value>> = atom
            .args
            .iter()
            .map(|p| match p {
                Pattern::Const(c) => Some(c.clone()),
                Pattern::Var(v) => env.get(v).cloned(),
                Pattern::Wildcard => None,
            })
            .collect();
        let nested = if pattern.iter().all(Option::is_some) {
            let sub = TupleRef::new(
                *node,
                Tuple::new(
                    atom.table,
                    pattern.iter().map(|v| v.clone().expect("ground")).collect(),
                ),
            );
            Some(Box::new(why_not(engine, graph, &sub, depth - 1)))
        } else {
            None
        };
        return Err((
            satisfied,
            FailReason::MissingBody {
                node: *node,
                table: atom.table,
                pattern,
                nested,
            },
        ));
    }
    remaining.remove(slot);
    let mut best_err: Option<(usize, FailReason)> = None;
    for t in candidates {
        let mut env2 = env.clone();
        let ok = atom
            .args
            .iter()
            .zip(&t.args)
            .all(|(p, v)| p.matches(v, &mut env2));
        debug_assert!(ok);
        match search_body(engine, graph, rule, node, remaining, satisfied + 1, env2, depth) {
            Ok(()) => {
                remaining.insert(slot, chosen_idx);
                return Ok(());
            }
            Err(e) => {
                if best_err
                    .as_ref()
                    .is_none_or(|(p, r)| score_of(e.0, &e.1) > score_of(*p, r))
                {
                    best_err = Some(e);
                }
            }
        }
    }
    remaining.insert(slot, chosen_idx);
    Err(best_err.expect("at least one candidate failed"))
}

impl WhyNot {
    /// Pretty-prints the explanation as an indented tree.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(0, &mut out);
        out
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        match self {
            WhyNot::Exists => out.push_str(&format!("{pad}EXISTS\n")),
            WhyNot::BaseAbsent { deleted_at } => match deleted_at {
                Some(t) => out.push_str(&format!("{pad}base tuple was DELETED at t={t}\n")),
                None => out.push_str(&format!("{pad}base tuple was never inserted\n")),
            },
            WhyNot::UnknownTable => out.push_str(&format!("{pad}unknown table\n")),
            WhyNot::DepthLimit => out.push_str(&format!("{pad}... (depth limit)\n")),
            WhyNot::NoDerivation(fails) => {
                for f in fails {
                    out.push_str(&format!("{pad}rule {} failed: ", f.rule));
                    match &f.reason {
                        FailReason::HeadMismatch => out.push_str("head cannot match the goal\n"),
                        FailReason::DerivableButAbsent => {
                            out.push_str("derivable but absent (in flight?)\n")
                        }
                        FailReason::ConstraintFailed { constraint } => {
                            out.push_str(&format!("constraint {constraint} rejected all bindings\n"))
                        }
                        FailReason::MissingBody {
                            node,
                            table,
                            pattern,
                            nested,
                        } => {
                            let pat: Vec<String> = pattern
                                .iter()
                                .map(|p| p.as_ref().map_or("_".to_string(), |v| v.to_string()))
                                .collect();
                            out.push_str(&format!(
                                "no {table}({}) at {node}\n",
                                pat.join(",")
                            ));
                            if let Some(n) = nested {
                                n.render_into(depth + 1, out);
                            }
                        }
                    }
                }
            }
        }
    }
}

impl fmt::Display for WhyNot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphRecorder;
    use dp_ndlog::Program;
    use dp_types::{tuple, FieldType, Schema, SchemaRegistry, TableKind};
    use std::sync::Arc;

    fn program() -> Arc<Program> {
        let mut reg = SchemaRegistry::new();
        reg.declare(Schema::new("in", TableKind::ImmutableBase, [("x", FieldType::Int)]));
        reg.declare(Schema::new("cfg", TableKind::MutableBase, [("k", FieldType::Int)]));
        reg.declare(Schema::new("mid", TableKind::Derived, [("y", FieldType::Int)]));
        reg.declare(Schema::new("out", TableKind::Derived, [("y", FieldType::Int)]));
        Program::builder(reg)
            .rules_text(
                "r1 mid(@N, Y) :- in(@N, X), cfg(@N, K), Y := X + K.\n\
                 r2 out(@N, Y) :- mid(@N, Y), Y > 10.",
            )
            .unwrap()
            .build()
            .unwrap()
    }

    fn engine_with(inputs: &[(i64, bool)]) -> Engine<GraphRecorder> {
        // (value, is_cfg)
        let mut eng = Engine::new(program(), GraphRecorder::new());
        let n = NodeId::new("n");
        for &(v, is_cfg) in inputs {
            let t = if is_cfg { tuple!("cfg", v) } else { tuple!("in", v) };
            eng.schedule_insert(0, n, t).unwrap();
        }
        eng.run().unwrap();
        eng
    }

    #[test]
    fn existing_tuple_short_circuits() {
        let eng = engine_with(&[(5, true), (10, false)]);
        let goal = TupleRef::new("n", tuple!("mid", 15));
        assert!(matches!(why_not(&eng, None, &goal, 5), WhyNot::Exists));
    }

    #[test]
    fn missing_base_tuple_is_reported() {
        let eng = engine_with(&[]);
        let goal = TupleRef::new("n", tuple!("in", 1));
        assert!(matches!(
            why_not(&eng, None, &goal, 5),
            WhyNot::BaseAbsent { deleted_at: None }
        ));
    }

    #[test]
    fn deleted_base_tuple_reports_deletion_time() {
        let mut eng = engine_with(&[(5, true)]);
        let n = NodeId::new("n");
        eng.schedule_delete(100, n, tuple!("cfg", 5)).unwrap();
        eng.run().unwrap();
        let graph = eng.sink().graph.clone();
        let goal = TupleRef::new("n", tuple!("cfg", 5));
        match why_not(&eng, Some(&graph), &goal, 5) {
            WhyNot::BaseAbsent { deleted_at: Some(_) } => {}
            other => panic!("expected deletion report, got {other:?}"),
        }
    }

    #[test]
    fn missing_body_recurses_to_the_root_cause() {
        // out(15) missing because mid(15) missing because cfg absent.
        let eng = engine_with(&[(10, false)]);
        let goal = TupleRef::new("n", tuple!("out", 15));
        let explanation = why_not(&eng, None, &goal, 5);
        let rendered = explanation.render();
        assert!(rendered.contains("rule r2 failed"), "{rendered}");
        assert!(rendered.contains("no mid(15)"), "{rendered}");
        assert!(rendered.contains("rule r1 failed"), "{rendered}");
        // The nested explanation bottoms out at the missing cfg; its value
        // is unconstrained (any K could work), so the pattern shows `_`.
        assert!(rendered.contains("no cfg(_)"), "{rendered}");
    }

    #[test]
    fn constraint_failures_are_named() {
        // mid(7) exists but out(7) requires Y > 10.
        let eng = engine_with(&[(2, true), (5, false)]);
        let goal = TupleRef::new("n", tuple!("out", 7));
        let explanation = why_not(&eng, None, &goal, 5);
        let rendered = explanation.render();
        assert!(rendered.contains("constraint (Y > 10)"), "{rendered}");
    }

    #[test]
    fn head_mismatch_is_detected() {
        // No rule derives table "out" with a head that could equal out(7)
        // when the goal's node cannot match — simulate by asking on a node
        // with no state; the body search reports missing inputs instead.
        let eng = engine_with(&[(2, true), (5, false)]);
        let goal = TupleRef::new("elsewhere", tuple!("out", 7));
        let explanation = why_not(&eng, None, &goal, 5);
        assert!(matches!(explanation, WhyNot::NoDerivation(_)));
    }

    #[test]
    fn depth_limit_stops_recursion() {
        let eng = engine_with(&[]);
        let goal = TupleRef::new("n", tuple!("out", 15));
        let explanation = why_not(&eng, None, &goal, 1);
        let rendered = explanation.render();
        assert!(rendered.contains("depth limit") || rendered.contains("no mid"), "{rendered}");
    }
}
