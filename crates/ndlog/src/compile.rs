//! Rules compiled to slots and planned, once, when the program is built.
//!
//! The engine evaluates a rule without resolving a single name. At
//! [`crate::ProgramBuilder::build`] every rule gets a slot table — each
//! distinct variable once — and every part of the rule that names a
//! variable or a builtin is rewritten against it: atom arguments become
//! slots, literals or wildcards; assignments, expression constraints,
//! builtin arguments and the head become [`SlotExpr`]s; a builtin
//! constraint holds the builtin it calls; the aggregate variable becomes a
//! slot. A firing binds into one frame of `Option<Value>`s indexed by slot
//! (`engine/fire.rs`).
//!
//! Evaluation is the oracle's, operator for operator: both go through
//! the primitive operators of [`crate::expr`] (`eval_bin`, `eval_func`),
//! an expression over a variable nothing bound fails with the same
//! "unbound variable" error, and a call evaluates its arguments left to
//! right before its arity is checked. Only the binding differs, and
//! `tests/reference_differential.rs` holds the two evaluators to one
//! stream.
//!
//! # Join planning
//!
//! The compiled rule is then planned, for every body atom that can
//! trigger it (an aggregation rule's fence, atom 0, alone), into the
//! [`Step`]s that join its other atoms. The planner tracks the slots
//! bound so far — the trigger's location and arguments, then each joined
//! atom's arguments:
//!
//! * **Atom order** — greedy most-bound-first: the next atom is the one
//!   with the most bound columns, ties broken by body position (keeping
//!   plans deterministic). Joining the most-constrained atom first
//!   shrinks the intermediate result early, the classic bound-becomes-free
//!   heuristic of Datalog sideways information passing.
//! * **Access path** — the atom's literal and bound-slot arguments are the
//!   key of a secondary hash index on its table; [`IndexRegistry`] hands
//!   out the index's slot, and the engine's tables (`engine/state.rs`)
//!   maintain it incrementally. A step with no bound column is a full ordered scan.
//! * **Prefix-trie probe** — a scan is rescued by every
//!   `prefix_contains(Col, Addr)` check whose column is an argument of
//!   the atom and whose address is a literal or a bound slot. Each such
//!   column gets a per-`(table, column)` trie; at run time the engine
//!   probes the most selective one, walking root-to-leaf to the O(32)
//!   tuples whose prefix contains the address instead of the whole table.
//!   Values that are not prefix-like are kept in a side bucket that every
//!   probe returns, so type errors (and `Value::Ip` promotion to `/32`)
//!   surface exactly as on the scan path.
//!
//! Reordering joins does not endanger determinism: the engine sorts the
//! collected matches back into nested-loop enumeration order — the order
//! `crate::reference` produces them in — before acting on them (that
//! order is the lexicographic order of the body-tuple vector, which is
//! independent of the order in which matches were discovered).

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::Arc;

use dp_types::{Error, Result, Sym, Value};

use crate::ast::{Constraint, Pattern, Rule};
use crate::expr::{eval_bin, eval_func, BinOp, Expr, Func};
use crate::program::StatefulBuiltin;

/// The secondary-index column sets of one table, by index slot: shared
/// between the program and every node table that maintains them.
pub type IndexSpecs = Arc<Vec<Vec<usize>>>;

/// The prefix-trie columns of one table, by trie slot.
pub type TrieSpecs = Arc<Vec<usize>>;

/// The index and trie slots the planned steps probe, per table, each
/// list in the order its entries were first asked for.
#[derive(Default)]
pub(crate) struct IndexRegistry {
    pub(crate) index_specs: BTreeMap<Sym, IndexSpecs>,
    pub(crate) trie_specs: BTreeMap<Sym, TrieSpecs>,
}

impl IndexRegistry {
    /// The slot of `table`'s hash index over `cols`, added if new.
    fn index(&mut self, table: &Sym, cols: Vec<usize>) -> usize {
        let specs = self.index_specs.entry(*table).or_default();
        position_or_push(Arc::make_mut(specs), cols)
    }

    /// The slot of `table`'s prefix trie over column `col`, added if new.
    fn trie(&mut self, table: &Sym, col: usize) -> usize {
        let specs = self.trie_specs.entry(*table).or_default();
        position_or_push(Arc::make_mut(specs), col)
    }
}

/// The position of `item` in `list`, pushed at the end if absent.
fn position_or_push<T: PartialEq>(list: &mut Vec<T>, item: T) -> usize {
    list.iter().position(|x| *x == item).unwrap_or_else(|| {
        list.push(item);
        list.len() - 1
    })
}

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
            Operand::Slot(s) => match &frame[*s] {
                Some(v) => v,
                None => panic!("the planner binds a step's operands before the step (slot {s})"),
            },
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

/// One step of a join plan (see the module docs).
#[derive(Clone)]
pub(crate) struct Step {
    /// The body atom the step joins.
    pub(crate) atom: usize,
    /// For an indexed step: the index slot and the key it is probed with,
    /// one operand per key column in column order.
    pub(crate) index: Option<(usize, Vec<Operand>)>,
    /// For a scan step: each prefix-probe candidate's trie slot and
    /// address, in column order.
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
    /// Per body atom: its table's index in the program.
    pub(crate) tables: Vec<u32>,
    /// The head's table index in the program.
    pub(crate) head_table: u32,
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
        position_or_push(&mut self.names, *v)
    }

    fn expr(&mut self, e: &Expr) -> SlotExpr {
        match e {
            Expr::Var(v) => SlotExpr::Var(self.of(v), *v),
            Expr::Const(c) => SlotExpr::Const(c.clone()),
            Expr::Bin(op, l, r) => {
                SlotExpr::Bin(*op, Box::new(self.expr(l)), Box::new(self.expr(r)))
            }
            Expr::Call(f, args) => SlotExpr::Call(*f, args.iter().map(|a| self.expr(a)).collect()),
        }
    }
}

/// Compiles `rule` against the program's `builtins` and table indexes
/// (`table_ids`) and plans its joins, asking `registry` for the index and
/// trie slots the plans probe.
pub(crate) fn compile(
    rule: &Rule,
    registry: &mut IndexRegistry,
    builtins: &BTreeMap<Sym, Arc<dyn StatefulBuiltin>>,
    table_ids: &BTreeMap<Sym, u32>,
) -> Result<CompiledRule> {
    let table_id = |t: &Sym| table_ids.get(t).copied().ok_or(Error::UnknownTable(*t));
    let tables = rule.body.iter().map(|a| table_id(&a.table)).collect::<Result<_>>()?;
    let head_table = table_id(&rule.head.table)?;
    let mut slots = Slots::default();
    let atoms: Vec<_> = rule
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
    let checks: Vec<_> = rule
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
    let slots = slots.names.len();
    let plans = (0..atoms.len())
        .map(|trigger| {
            let planned = rule.agg.is_none() || trigger == 0;
            planned.then(|| plan(rule, &atoms, &checks, slots, trigger, registry))
        })
        .collect();
    Ok(CompiledRule {
        slots,
        atoms,
        assigns,
        checks,
        head_loc,
        head_args,
        agg,
        tables,
        head_table,
        plans,
    })
}

/// The operand an argument is probed with once the slots in `bound` are
/// bound: a literal, or a bound slot. `None` for a free slot or a
/// wildcard.
fn key_operand(arg: &Arg, bound: &[bool]) -> Option<Operand> {
    match arg {
        Arg::Const(v) => Some(Operand::Const(v.clone())),
        Arg::Slot(s) if bound[*s] => Some(Operand::Slot(*s)),
        _ => None,
    }
}

/// Plans the join of `rule`, compiled to `atoms` and `checks` over
/// `slots` slots, when body atom `trigger` triggers it (see the module
/// docs).
fn plan(
    rule: &Rule,
    atoms: &[(Slot, Vec<Arg>)],
    checks: &[Check],
    slots: usize,
    trigger: usize,
    registry: &mut IndexRegistry,
) -> Vec<Step> {
    let mut bound = vec![false; slots];
    let bind = |bound: &mut [bool], atom: usize| {
        for arg in &atoms[atom].1 {
            if let Arg::Slot(s) = arg {
                bound[*s] = true;
            }
        }
    };
    bound[atoms[trigger].0] = true;
    bind(&mut bound, trigger);
    let mut remaining: Vec<usize> = (0..atoms.len()).filter(|&a| a != trigger).collect();
    let mut steps = Vec::with_capacity(remaining.len());
    let bound_cols = |bound: &[bool], atom: usize| {
        let args = atoms[atom].1.iter();
        args.filter(|a| key_operand(a, bound).is_some()).count()
    };
    // Most bound columns first; `min_by_key` keeps the first of a tie,
    // the earliest in the body.
    while let Some(pos) =
        (0..remaining.len()).min_by_key(|&p| Reverse(bound_cols(&bound, remaining[p])))
    {
        let atom = remaining.remove(pos);
        let table = &rule.body[atom].table;
        let (cols, key): (Vec<usize>, Vec<Operand>) = atoms[atom]
            .1
            .iter()
            .enumerate()
            .filter_map(|(col, arg)| Some((col, key_operand(arg, &bound)?)))
            .unzip();
        let (index, prefixes) = if cols.is_empty() {
            let probes = prefix_probes(&atoms[atom].1, checks, &bound).into_iter();
            (None, probes.map(|(col, ip)| (registry.trie(table, col), ip)).collect())
        } else {
            (Some((registry.index(table, cols), key)), Vec::new())
        };
        steps.push(Step {
            atom,
            index,
            prefixes,
            skips_trigger: atom < trigger && *table == rule.body[trigger].table,
        });
        bind(&mut bound, atom);
    }
    steps
}

/// The trie probes that can rescue a scan over `args`: for each column of
/// `args`, the first `prefix_contains(Col, Addr)` check naming it whose
/// address is a literal or a slot in `bound`, as `(column, address)` in
/// column order. Which one the engine probes is a run-time selectivity
/// decision, so all of them are planned.
fn prefix_probes(args: &[Arg], checks: &[Check], bound: &[bool]) -> Vec<(usize, Operand)> {
    let mut out: Vec<(usize, Operand)> = Vec::new();
    for check in checks {
        let Check::Expr(SlotExpr::Call(Func::PrefixContains, call)) = check else {
            continue;
        };
        let [SlotExpr::Var(m, _), ip] = call.as_slice() else {
            continue;
        };
        let Some(col) = args.iter().position(|a| matches!(a, Arg::Slot(s) if s == m)) else {
            continue;
        };
        let ip = match ip {
            SlotExpr::Var(s, _) if bound[*s] => Operand::Slot(*s),
            SlotExpr::Const(v) => Operand::Const(v.clone()),
            _ => continue,
        };
        if out.iter().all(|(c, _)| *c != col) {
            out.push((col, ip));
        }
    }
    out.sort_by_key(|&(col, _)| col);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_rules;
    use crate::program::Program;
    use crate::testsupport::{intgen, nodegen, prefixgen};
    use dp_types::DetRng;

    /// `src`'s rules compiled and planned, with the registry they filled.
    fn planned(src: &str) -> (Vec<CompiledRule>, IndexRegistry) {
        let mut registry = IndexRegistry::default();
        let rules = parse_rules(src).unwrap();
        let mut table_ids = BTreeMap::new();
        for r in &rules {
            for t in r.body.iter().map(|a| a.table).chain([r.head.table]) {
                let next = table_ids.len() as u32;
                table_ids.entry(t).or_insert(next);
            }
        }
        let compiled = rules
            .iter()
            .map(|r| compile(r, &mut registry, &BTreeMap::new(), &table_ids).unwrap())
            .collect();
        (compiled, registry)
    }

    fn steps(rule: &CompiledRule, trigger: usize) -> &[Step] {
        rule.plans[trigger].as_deref().unwrap()
    }

    /// The columns of `table`'s index that `step` probes; empty for a scan.
    fn key_cols(registry: &IndexRegistry, table: &str, step: &Step) -> Vec<usize> {
        step.index.as_ref().map_or_else(Vec::new, |(slot, _)| {
            registry.index_specs[&Sym::new(table)][*slot].clone()
        })
    }

    fn tries(registry: &IndexRegistry, table: &str) -> Option<Vec<usize>> {
        registry.trie_specs.get(&Sym::new(table)).map(|t| t.to_vec())
    }

    /// The slot an atom argument binds.
    fn slot(arg: &Arg) -> Slot {
        match arg {
            Arg::Slot(s) => *s,
            _ => panic!("not a slot"),
        }
    }

    #[test]
    fn trigger_binds_join_columns() {
        // c(@N,X,Y,Z) :- a(@N,X,Y), b(@N,X,Z): triggering on a binds X,
        // so b should be probed through an index on its first column.
        let (rs, reg) = planned("rc c(@N, X, Y, Z) :- a(@N, X, Y), b(@N, X, Z).");
        let plan = steps(&rs[0], 0);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].atom, 1);
        assert_eq!(key_cols(&reg, "b", &plan[0]), vec![0]);
        assert!(plan[0].index.is_some());
        // Triggering on b binds X as well: a probed on column 0.
        let plan = steps(&rs[0], 1);
        assert_eq!(plan[0].atom, 0);
        assert_eq!(key_cols(&reg, "a", &plan[0]), vec![0]);
    }

    #[test]
    fn constants_count_as_bound() {
        let (rs, reg) = planned("rc c(@N, X) :- a(@N, X), b(@N, X, 7).");
        let plan = steps(&rs[0], 0);
        // b is probed on (X, const 7): both columns bound.
        assert_eq!(key_cols(&reg, "b", &plan[0]), vec![0, 1]);
        let (_, key) = plan[0].index.as_ref().unwrap();
        assert!(matches!(key[1], Operand::Const(Value::Int(7))));
    }

    #[test]
    fn most_bound_atom_goes_first() {
        // Triggering on a binds X only. b(@N,X,Y) has 1 bound column;
        // d(@N,X,X) has 2. d must be joined first even though it appears
        // later in the body.
        let (rs, reg) = planned("rc c(@N, X, Y) :- a(@N, X), b(@N, X, Y), d(@N, X, X).");
        let plan = steps(&rs[0], 0);
        assert_eq!(plan[0].atom, 2);
        assert_eq!(key_cols(&reg, "d", &plan[0]), vec![0, 1]);
        assert_eq!(plan[1].atom, 1);
        assert_eq!(key_cols(&reg, "b", &plan[1]), vec![0]);
    }

    #[test]
    fn unbound_step_falls_back_to_scan() {
        // No shared variables: the second atom has no bound columns.
        let (rs, reg) = planned("rc c(@N, X, Y) :- a(@N, X), b(@N, Y).");
        let plan = steps(&rs[0], 0);
        assert!(key_cols(&reg, "b", &plan[0]).is_empty());
        assert!(plan[0].index.is_none());
    }

    #[test]
    fn specs_are_deduped_across_rules() {
        let (_, reg) = planned(
            "r1 c(@N, X, Y) :- a(@N, X), b(@N, X, Y).\n\
             r2 d(@N, X, Y) :- e(@N, X), b(@N, X, Y).",
        );
        assert_eq!(reg.index_specs[&Sym::new("b")].as_slice(), &[vec![0]]);
    }

    #[test]
    fn prefix_constraint_turns_scan_into_trie_probe() {
        // Triggering on p binds Src; f shares no variable, so the step on f
        // is a scan — rescued by the prefix_contains constraint on M.
        let (rs, reg) = planned(
            "fwd o(@S, Src, Pt) :- p(@S, Src), f(@S, M, Pt), prefix_contains(M, Src).",
        );
        let plan = steps(&rs[0], 0);
        assert_eq!(plan.len(), 1);
        assert!(plan[0].index.is_none());
        let [(trie, ip)] = plan[0].prefixes.as_slice() else {
            panic!("exactly one trie probe planned");
        };
        let src = slot(&rs[0].atoms[0].1[0]);
        assert!(matches!(ip, Operand::Slot(s) if *s == src));
        assert_eq!(*trie, 0);
        assert_eq!(tries(&reg, "f"), Some(vec![0]));
        // Triggering on f: the step on p has no applicable constraint (M is
        // not a column of p), so no probe.
        assert!(steps(&rs[0], 1)[0].prefixes.is_empty());
    }

    #[test]
    fn prefix_probe_accepts_literal_addresses() {
        let (rs, _) = planned("rc o(@S, M) :- t(@S), f(@S, M), prefix_contains(M, 4.3.2.1).");
        let (_, ip) = &steps(&rs[0], 0)[0].prefixes[0];
        let addr = Value::Ip(u32::from_be_bytes([4, 3, 2, 1]));
        assert!(matches!(ip, Operand::Const(v) if *v == addr));
    }

    #[test]
    fn prefix_probe_requires_a_bound_address() {
        // X is bound by the same atom the probe would serve, not before it.
        let (rs, reg) = planned("rc o(@S) :- t(@S), f(@S, M, X), prefix_contains(M, X).");
        assert!(steps(&rs[0], 0)[0].prefixes.is_empty());
        assert_eq!(tries(&reg, "f"), None);
    }

    #[test]
    fn hash_index_wins_over_trie_probe() {
        // Src also appears as an equality column of f, so the step gets key
        // columns and the trie is not consulted.
        let (rs, reg) =
            planned("rc o(@S, Src) :- p(@S, Src), f(@S, Src, M), prefix_contains(M, Src).");
        let step = &steps(&rs[0], 0)[0];
        assert_eq!(key_cols(&reg, "f", step), vec![0]);
        assert!(step.prefixes.is_empty());
    }

    #[test]
    fn every_constrained_column_is_planned_as_a_probe() {
        // Two prefix columns on one atom: both become probe candidates (in
        // column order, whatever the constraint order) so the engine can
        // pick the selective one per execution — the campus tables are
        // selective on the *second*.
        let (rs, reg) = planned(
            "fwd o(@S, Src, Dst) :- p(@S, Src, Dst), f(@S, SM, DM), \
             prefix_contains(DM, Dst), prefix_contains(SM, Src).",
        );
        let step = &steps(&rs[0], 0)[0];
        let slots: Vec<usize> = step.prefixes.iter().map(|(t, _)| *t).collect();
        let cols: Vec<usize> = slots.iter().map(|&t| tries(&reg, "f").unwrap()[t]).collect();
        assert_eq!(cols, vec![0, 1]);
        assert_eq!(slots, vec![0, 1]);
        assert_eq!(tries(&reg, "f"), Some(vec![0, 1]));
        let (src, dst) = (slot(&rs[0].atoms[0].1[0]), slot(&rs[0].atoms[0].1[1]));
        assert!(matches!(step.prefixes[0].1, Operand::Slot(s) if s == src));
        assert!(matches!(step.prefixes[1].1, Operand::Slot(s) if s == dst));
    }

    #[test]
    fn agg_rules_plan_only_the_fence_trigger() {
        let (rs, _) = planned("rq q(@N, agg_count(X)) :- f(@N), a(@N, X).");
        assert!(rs[0].plans[0].is_some());
        assert!(rs[0].plans[1].is_none());
    }

    /// True when key operand `op` reads what atom argument `arg` holds.
    fn reads(arg: &Arg, op: &Operand) -> bool {
        match (arg, op) {
            (Arg::Const(a), Operand::Const(b)) => a == b,
            (Arg::Slot(a), Operand::Slot(b)) => a == b,
            _ => false,
        }
    }

    /// Every plan of `program` is sound: each index key operand and trie
    /// address is a literal or a slot bound by the trigger atom or an
    /// earlier step, each index or trie slot names its table's spec with
    /// exactly the columns it reads, every other atom is joined once, and
    /// an aggregation rule is planned for its fence alone.
    fn assert_sound(program: &Program, case: &str) {
        for (ri, rule) in program.rules().iter().enumerate() {
            let compiled = program.compiled(ri);
            for (trigger, plan) in compiled.plans.iter().enumerate() {
                let Some(plan) = plan else {
                    assert!(rule.agg.is_some() && trigger != 0, "{case}: {ri}/{trigger}");
                    continue;
                };
                assert!(rule.agg.is_none() || trigger == 0, "{case}: {ri}/{trigger}");
                let mut bound = vec![false; compiled.slots];
                let mut joined = vec![false; rule.body.len()];
                let mut visit = |bound: &mut Vec<bool>, atom: usize| {
                    assert!(!std::mem::replace(&mut joined[atom], true), "{case}: twice");
                    for arg in &compiled.atoms[atom].1 {
                        if let Arg::Slot(s) = arg {
                            bound[*s] = true;
                        }
                    }
                };
                bound[compiled.atoms[trigger].0] = true;
                visit(&mut bound, trigger);
                let is_bound = |bound: &[bool], op: &Operand| match op {
                    Operand::Slot(s) => bound[*s],
                    Operand::Const(_) => true,
                };
                for step in plan {
                    let table = &rule.body[step.atom].table;
                    let args = &compiled.atoms[step.atom].1;
                    if let Some((slot, key)) = &step.index {
                        assert!(step.prefixes.is_empty(), "{case}: index and trie");
                        let cols = &program.index_specs_for(table).unwrap()[*slot];
                        let want: Vec<usize> = (0..args.len())
                            .filter(|&c| match &args[c] {
                                Arg::Slot(s) => bound[*s],
                                Arg::Const(_) => true,
                                Arg::Wild => false,
                            })
                            .collect();
                        assert_eq!(cols, &want, "{case}: index columns");
                        assert_eq!(cols.len(), key.len(), "{case}: key width");
                        for (&col, op) in cols.iter().zip(key) {
                            assert!(is_bound(&bound, op), "{case}: unbound key");
                            assert!(reads(&args[col], op), "{case}: key reads its column");
                        }
                    }
                    for (slot, ip) in &step.prefixes {
                        assert!(is_bound(&bound, ip), "{case}: unbound address");
                        let col = program.trie_specs_for(table).unwrap()[*slot];
                        let Arg::Slot(m) = args[col] else {
                            panic!("{case}: trie over a non-slot column");
                        };
                        let constrained = compiled.checks.iter().any(|c| match c {
                            Check::Expr(SlotExpr::Call(Func::PrefixContains, a)) => {
                                match a.as_slice() {
                                    [SlotExpr::Var(v, _), SlotExpr::Var(s, _)] => {
                                        *v == m && matches!(ip, Operand::Slot(o) if o == s)
                                    }
                                    [SlotExpr::Var(v, _), SlotExpr::Const(c)] => {
                                        *v == m && matches!(ip, Operand::Const(o) if o == c)
                                    }
                                    _ => false,
                                }
                            }
                            _ => false,
                        });
                        assert!(constrained, "{case}: a check constrains the column by the address");
                    }
                    visit(&mut bound, step.atom);
                }
                assert!(joined.iter().all(|&j| j), "{case}: every atom joined");
            }
        }
    }

    #[test]
    fn plans_read_only_what_is_bound() {
        type Gen = fn(&mut DetRng, u64) -> Option<std::sync::Arc<Program>>;
        let gens: [(&str, Gen); 3] = [
            ("intgen", |rng, _| intgen::arb_program(rng)),
            ("prefixgen", |rng, seed| prefixgen::arb_program(rng, seed % 2 == 0)),
            ("nodegen", |rng, _| nodegen::arb_program(rng)),
        ];
        for (name, generate) in gens {
            let mut checked = 0;
            for seed in 0..300 {
                let mut rng = DetRng::seed_from_u64(seed);
                if let Some(program) = generate(&mut rng, seed) {
                    assert_sound(&program, &format!("{name} seed {seed}"));
                    checked += 1;
                }
            }
            assert!(checked >= 200, "{name}: only {checked} programs built");
        }
    }
}
