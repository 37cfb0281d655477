//! Rules compiled to slots, once, when the program is built.
//!
//! The engine evaluates a rule without resolving a single name. At
//! [`crate::ProgramBuilder::build`] every rule gets a slot table — each
//! distinct variable once, matched by pointer and then by content, the
//! way [`crate::Env`] finds a name — and, beside its join plans, every
//! part of the rule that names a variable or a builtin is rewritten
//! against it: atom arguments become slots, literals or wildcards;
//! assignments, expression constraints, builtin arguments and the head
//! become [`SlotExpr`]s; a builtin constraint holds the builtin it calls;
//! the aggregate variable, each plan step's key columns and each prefix
//! probe's address become slots or literals. A firing binds into one
//! frame of `Option<Value>`s indexed by slot (`engine/fire.rs`).
//!
//! Evaluation is the oracle's, operator for operator: both go through
//! the primitive operators of [`crate::expr`] (`eval_bin`, `eval_func`),
//! an expression over a variable nothing bound fails with the same
//! "unbound variable" error, and a call evaluates its arguments left to
//! right before its arity is checked. Only the binding differs, and
//! `tests/reference_differential.rs` holds the two evaluators to one
//! stream.

use std::collections::BTreeMap;
use std::sync::Arc;

use dp_types::{Error, Result, Sym, Value};

use crate::ast::{Constraint, Pattern, Rule};
use crate::expr::{eval_bin, eval_func, BinOp, Expr, Func};
use crate::plan::{IpSource, PlanSet};
use crate::program::StatefulBuiltin;

/// A variable's place in its rule's frame.
pub(crate) type Slot = usize;

/// A body-atom argument.
#[derive(Clone)]
pub(crate) enum Arg {
    /// Binds the slot, or must equal the value it holds.
    Slot(Slot),
    /// Must equal the literal.
    Const(Value),
    /// Matches anything, binds nothing.
    Wild,
}

/// A value a join step reads before it runs: a slot the planner binds
/// before the step, or a literal.
#[derive(Clone)]
pub(crate) enum Operand {
    Slot(Slot),
    Const(Value),
}

impl Operand {
    /// The operand's value in `frame`.
    pub(crate) fn read<'a>(&'a self, frame: &'a [Option<Value>]) -> &'a Value {
        match self {
            Operand::Slot(s) => frame[*s]
                .as_ref()
                .expect("the planner binds a step's operands before the step"),
            Operand::Const(v) => v,
        }
    }
}

/// An [`Expr`] with its variables resolved to slots.
#[derive(Clone)]
pub(crate) enum SlotExpr {
    /// A variable: its slot, and its name for the error when unbound.
    Var(Slot, Sym),
    Const(Value),
    Bin(BinOp, Box<SlotExpr>, Box<SlotExpr>),
    Call(Func, Vec<SlotExpr>),
}

impl SlotExpr {
    /// Evaluates the expression over `frame`, as [`Expr::eval`] does over
    /// an environment. A call takes its arguments from a stack buffer;
    /// only one with more than two — which `eval_func` rejects by arity —
    /// collects them into a vector.
    pub(crate) fn eval(&self, frame: &[Option<Value>]) -> Result<Value> {
        match self {
            SlotExpr::Var(slot, name) => frame[*slot]
                .clone()
                .ok_or_else(|| Error::Engine(format!("unbound variable {name}"))),
            SlotExpr::Const(c) => Ok(c.clone()),
            SlotExpr::Bin(op, l, r) => eval_bin(*op, &l.eval(frame)?, &r.eval(frame)?),
            SlotExpr::Call(f, args) => match args.as_slice() {
                [] => eval_func(*f, &[]),
                [a] => eval_func(*f, &[a.eval(frame)?]),
                [a, b] => {
                    let a = a.eval(frame)?;
                    eval_func(*f, &[a, b.eval(frame)?])
                }
                more => {
                    let vals = more
                        .iter()
                        .map(|a| a.eval(frame))
                        .collect::<Result<Vec<_>>>()?;
                    eval_func(*f, &vals)
                }
            },
        }
    }
}

/// A rule constraint, in the rule's constraint order.
#[derive(Clone)]
pub(crate) enum Check {
    /// Must evaluate to `true`.
    Expr(SlotExpr),
    /// The registered builtin, called with the evaluated arguments.
    Builtin(Arc<dyn StatefulBuiltin>, Vec<SlotExpr>),
}

/// One step of a compiled join plan ([`crate::plan::JoinStep`]).
#[derive(Clone)]
pub(crate) struct Step {
    /// The body atom the step joins.
    pub(crate) atom: usize,
    /// For an indexed step: the index slot and the key it is probed with.
    pub(crate) index: Option<(usize, Vec<Operand>)>,
    /// For a scan step: each prefix-probe candidate's trie slot and
    /// address, in plan order.
    pub(crate) prefixes: Vec<(usize, Operand)>,
    /// True when the atom precedes the trigger and reads its table: the
    /// trigger tuple itself is not a candidate here (its body belongs to
    /// the firing at this position).
    pub(crate) skips_trigger: bool,
}

/// A rule resolved to slots (see the module docs).
#[derive(Clone)]
pub(crate) struct CompiledRule {
    /// How many slots a frame needs.
    pub(crate) slots: usize,
    /// Per body atom: the location's slot and the arguments.
    pub(crate) atoms: Vec<(Slot, Vec<Arg>)>,
    /// The assignments, in order.
    pub(crate) assigns: Vec<(Slot, SlotExpr)>,
    /// The constraints, in the rule's order.
    pub(crate) checks: Vec<Check>,
    pub(crate) head_loc: SlotExpr,
    pub(crate) head_args: Vec<SlotExpr>,
    /// The aggregated variable's slot, for an aggregation rule.
    pub(crate) agg: Option<Slot>,
    /// The join plan per trigger atom; `None` where the atom never
    /// triggers the rule (past an aggregation rule's fence).
    pub(crate) plans: Vec<Option<Vec<Step>>>,
}

impl CompiledRule {
    /// The frame a firing at the node named `loc` over the body tuples
    /// `body` (in body order) held when its constraints ran: every atom
    /// matched against its tuple, then the assignments. `None` when the
    /// body does not match the rule or an assignment fails — a recorded
    /// firing always matches.
    pub(crate) fn frame_of(
        &self,
        loc: &Value,
        body: &[&dp_types::Tuple],
    ) -> Option<Vec<Option<Value>>> {
        let mut frame: Vec<Option<Value>> = vec![None; self.slots];
        let bind = |frame: &mut Vec<Option<Value>>, slot: Slot, v: &Value| match &frame[slot] {
            Some(bound) => bound == v,
            None => {
                frame[slot] = Some(v.clone());
                true
            }
        };
        if body.len() != self.atoms.len() {
            return None;
        }
        for ((loc_slot, args), tuple) in self.atoms.iter().zip(body) {
            if !bind(&mut frame, *loc_slot, loc) || args.len() != tuple.arity() {
                return None;
            }
            for (arg, v) in args.iter().zip(&tuple.args) {
                let ok = match arg {
                    Arg::Wild => true,
                    Arg::Const(c) => c == v,
                    Arg::Slot(s) => bind(&mut frame, *s, v),
                };
                if !ok {
                    return None;
                }
            }
        }
        for (slot, expr) in &self.assigns {
            frame[*slot] = Some(expr.eval(&frame).ok()?);
        }
        Some(frame)
    }
}

/// The slot table being built: slot `i` is `names[i]`.
#[derive(Default)]
struct Slots {
    names: Vec<Sym>,
}

impl Slots {
    /// The slot of variable `v`, added on first sight.
    fn of(&mut self, v: &Sym) -> Slot {
        let found = self
            .names
            .iter()
            .position(|n| n.ptr_eq(v))
            .or_else(|| self.names.iter().position(|n| n == v));
        found.unwrap_or_else(|| {
            self.names.push(v.clone());
            self.names.len() - 1
        })
    }

    fn expr(&mut self, e: &Expr) -> SlotExpr {
        match e {
            Expr::Var(v) => SlotExpr::Var(self.of(v), v.clone()),
            Expr::Const(c) => SlotExpr::Const(c.clone()),
            Expr::Bin(op, l, r) => {
                SlotExpr::Bin(*op, Box::new(self.expr(l)), Box::new(self.expr(r)))
            }
            Expr::Call(f, args) => SlotExpr::Call(*f, args.iter().map(|a| self.expr(a)).collect()),
        }
    }

    fn operand(&mut self, p: &Pattern) -> Operand {
        match p {
            Pattern::Const(v) => Operand::Const(v.clone()),
            Pattern::Var(v) => Operand::Slot(self.of(v)),
            Pattern::Wildcard => unreachable!("wildcards are never key columns"),
        }
    }
}

/// Compiles rule `ri` of a program whose plans are `plans` and whose
/// builtins are `builtins`.
pub(crate) fn compile(
    rule: &Rule,
    ri: usize,
    plans: &PlanSet,
    builtins: &BTreeMap<Sym, Arc<dyn StatefulBuiltin>>,
) -> Result<CompiledRule> {
    let mut slots = Slots::default();
    let atoms = rule
        .body
        .iter()
        .map(|atom| {
            let args = atom
                .args
                .iter()
                .map(|p| match p {
                    Pattern::Var(v) => Arg::Slot(slots.of(v)),
                    Pattern::Const(c) => Arg::Const(c.clone()),
                    Pattern::Wildcard => Arg::Wild,
                })
                .collect();
            (slots.of(&atom.loc), args)
        })
        .collect();
    let assigns = rule
        .assigns
        .iter()
        .map(|a| (slots.of(&a.var), slots.expr(&a.expr)))
        .collect();
    let checks = rule
        .constraints
        .iter()
        .map(|c| match c {
            Constraint::Expr(e) => Ok(Check::Expr(slots.expr(e))),
            Constraint::Builtin { name, args } => {
                let builtin = builtins.get(name).ok_or_else(|| {
                    Error::Engine(format!(
                        "rule {} uses unregistered builtin {name}",
                        rule.name
                    ))
                })?;
                let args = args.iter().map(|a| slots.expr(a)).collect();
                Ok(Check::Builtin(Arc::clone(builtin), args))
            }
        })
        .collect::<Result<_>>()?;
    let head_loc = slots.expr(&rule.head.loc);
    let head_args = rule.head.args.iter().map(|a| slots.expr(a)).collect();
    let agg = rule.agg.as_ref().map(|spec| slots.of(&spec.var));
    let plans = (0..rule.body.len())
        .map(|trigger| {
            if rule.agg.is_some() && trigger != 0 {
                return None;
            }
            let steps = plans.plan(ri, trigger).steps.iter().map(|step| {
                let atom = &rule.body[step.atom];
                let index = step
                    .index_slot
                    .filter(|_| !step.key_cols.is_empty())
                    .map(|slot| {
                        let key = step.key_cols.iter().map(|&c| slots.operand(&atom.args[c]));
                        (slot, key.collect())
                    });
                let prefixes = step.prefixes.iter().map(|p| {
                    let ip = match &p.ip {
                        IpSource::Var(v) => Operand::Slot(slots.of(v)),
                        IpSource::Const(v) => Operand::Const(v.clone()),
                    };
                    (p.trie_slot, ip)
                });
                Step {
                    atom: step.atom,
                    index,
                    prefixes: prefixes.collect(),
                    skips_trigger: step.atom < trigger && atom.table == rule.body[trigger].table,
                }
            });
            Some(steps.collect())
        })
        .collect();
    Ok(CompiledRule {
        slots: slots.names.len(),
        atoms,
        assigns,
        checks,
        head_loc,
        head_args,
        agg,
        plans,
    })
}
