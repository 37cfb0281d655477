//! Build-time join planning.
//!
//! For every `(rule, trigger atom)` pair the planner decides, once at
//! [`crate::Program`] build time, how the remaining body atoms are joined
//! when that atom triggers the rule:
//!
//! * **Atom order** — a greedy most-bound-first ordering: starting from the
//!   variables bound by the trigger atom, repeatedly pick the atom with the
//!   most bound columns (ties broken by body position, keeping plans
//!   deterministic). Joining the most-constrained atom first shrinks the
//!   intermediate result early, the classic bound-becomes-free heuristic of
//!   Datalog sideways information passing.
//! * **Access path** — for each planned step, the columns that are bound at
//!   probe time (constants, or variables bound by earlier steps) form the
//!   key of a secondary hash index on that table. The planner registers the
//!   needed `(table, columns)` index specs so [`crate::engine::NodeState`]
//!   can maintain them incrementally; a step with no bound columns falls
//!   back to a full ordered scan.
//! * **Prefix-trie probe** — a scan step can still be rescued when the rule
//!   carries a `prefix_contains(Col, Addr)` constraint whose column belongs
//!   to the step's atom and whose address side is already bound (a constant,
//!   or a variable bound by the trigger or an earlier step). The planner
//!   then records a [`PrefixProbe`] and registers a per-`(table, column)`
//!   trie spec; at run time the engine walks the trie root-to-leaf and
//!   visits only the O(32) tuples whose prefix contains the bound address
//!   instead of the whole table. Values that are not prefix-like are kept
//!   in a side bucket that every probe returns, so type errors (and
//!   `Value::Ip` promotion to `/32`) surface exactly as on the scan path.
//!
//! Reordering joins does not endanger determinism: the engine sorts the
//! collected matches back into nested-loop enumeration order — the order
//! `crate::reference` produces them in — before acting on them (see
//! `crate::engine`: that order is exactly the lexicographic order of the
//! body-tuple vector, which is independent of the order in which matches
//! were discovered).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use dp_types::{Sym, Value};

use crate::ast::{Constraint, Pattern, Rule};
use crate::expr::{Expr, Func};

/// Where the bound address of a [`PrefixProbe`] comes from at run time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IpSource {
    /// A variable guaranteed bound before the step executes.
    Var(Sym),
    /// A literal from the rule text.
    Const(Value),
}

/// A prefix-trie access path attached to an otherwise-unbound join step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrefixProbe {
    /// Argument position of the step's atom holding the prefix.
    pub col: usize,
    /// Position of `col` in the table's registered trie list
    /// ([`TrieSpecs`]); resolved after the registry freezes.
    pub trie_slot: usize,
    /// The address the probed prefixes must contain.
    pub ip: IpSource,
}

/// One step of a join plan: which body atom to join next, and through which
/// access path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinStep {
    /// Index of the body atom this step joins.
    pub atom: usize,
    /// Argument positions bound at probe time (ascending). Constants and
    /// variables bound by the trigger or an earlier step qualify.
    pub key_cols: Vec<usize>,
    /// Position of the `key_cols` index in the table's registered index
    /// list ([`IndexSpecs`]), or `None` when the step is a full scan.
    pub index_slot: Option<usize>,
    /// Trie access paths for a scan step constrained by `prefix_contains`,
    /// one per constrained column, in rule-constraint order. The engine
    /// probes the most selective one at run time. Always empty when
    /// `key_cols` is non-empty (the hash index wins).
    pub prefixes: Vec<PrefixProbe>,
}

/// The join order (and access paths) for one `(rule, trigger atom)` pair.
/// The trigger atom itself is not part of the plan — its tuple is fixed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JoinPlan {
    /// The steps, in execution order.
    pub steps: Vec<JoinStep>,
}

/// The secondary-index column sets required per table, shared between the
/// program (which computed them) and every node table (which maintains
/// them).
pub type IndexSpecs = Arc<Vec<Vec<usize>>>;

/// The prefix-trie columns required per table, slot-ordered like
/// [`IndexSpecs`].
pub type TrieSpecs = Arc<Vec<usize>>;

/// Accumulates index and trie requirements across all rules of a program.
#[derive(Debug, Default)]
pub struct IndexRegistry {
    wanted: BTreeMap<Sym, BTreeSet<Vec<usize>>>,
    trie_wanted: BTreeMap<Sym, BTreeSet<usize>>,
}

impl IndexRegistry {
    /// Registers a `(table, columns)` requirement, returning nothing; slots
    /// are assigned by [`IndexRegistry::freeze`].
    fn want(&mut self, table: &Sym, cols: &[usize]) {
        self.wanted
            .entry(table.clone())
            .or_default()
            .insert(cols.to_vec());
    }

    /// Registers a `(table, prefix column)` trie requirement.
    fn want_trie(&mut self, table: &Sym, col: usize) {
        self.trie_wanted.entry(table.clone()).or_default().insert(col);
    }

    /// Freezes the registry into per-table spec lists (sorted, so slot
    /// numbering is deterministic) and returns lookups for slot resolution.
    #[allow(clippy::type_complexity)]
    fn freeze(self) -> (BTreeMap<Sym, IndexSpecs>, BTreeMap<Sym, TrieSpecs>) {
        let specs = self
            .wanted
            .into_iter()
            .map(|(t, set)| (t, Arc::new(set.into_iter().collect::<Vec<_>>())))
            .collect();
        let tries = self
            .trie_wanted
            .into_iter()
            .map(|(t, set)| (t, Arc::new(set.into_iter().collect::<Vec<_>>())))
            .collect();
        (specs, tries)
    }
}

/// The argument variables bound by matching `atom` against a concrete
/// tuple. The location variable is *not* included: the engine binds it only
/// for the trigger atom (localized rules share one location variable, so
/// for well-formed programs it is already bound).
fn atom_vars(rule: &Rule, atom: usize, into: &mut BTreeSet<Sym>) {
    for p in &rule.body[atom].args {
        if let Pattern::Var(v) = p {
            into.insert(v.clone());
        }
    }
}

/// The argument positions of `atom` that are bound given `bound` variables:
/// constants always, variables iff already bound.
fn bound_cols(rule: &Rule, atom: usize, bound: &BTreeSet<Sym>) -> Vec<usize> {
    rule.body[atom]
        .args
        .iter()
        .enumerate()
        .filter(|(_, p)| match p {
            Pattern::Const(_) => true,
            Pattern::Var(v) => bound.contains(v),
            Pattern::Wildcard => false,
        })
        .map(|(i, _)| i)
        .collect()
}

/// Collects every `prefix_contains(Col, Addr)` constraint that can turn a
/// full scan of `atom` into a trie probe: the first argument must be a
/// variable naming a column of `atom` (necessarily unbound, or the step
/// would have key columns) and the second a literal or a variable in
/// `bound`. Constraints come back in rule order (first wins per column);
/// which one the engine probes is a run-time selectivity decision, so all
/// of them are planned.
fn prefix_probes_for(rule: &Rule, atom: usize, bound: &BTreeSet<Sym>) -> Vec<(usize, IpSource)> {
    let mut out: Vec<(usize, IpSource)> = Vec::new();
    for c in &rule.constraints {
        let Constraint::Expr(Expr::Call(Func::PrefixContains, args)) = c else {
            continue;
        };
        let [Expr::Var(m), ip_expr] = args.as_slice() else {
            continue;
        };
        let Some(col) = rule.body[atom]
            .args
            .iter()
            .position(|p| matches!(p, Pattern::Var(v) if v == m))
        else {
            continue;
        };
        if out.iter().any(|(c, _)| *c == col) {
            continue;
        }
        let ip = match ip_expr {
            Expr::Var(s) if bound.contains(s) => IpSource::Var(s.clone()),
            Expr::Const(v) => IpSource::Const(v.clone()),
            _ => continue,
        };
        out.push((col, ip));
    }
    out
}

/// Plans the join for `rule` when triggered at body atom `trigger`,
/// registering the index and trie specs it needs.
fn plan_one(rule: &Rule, trigger: usize, registry: &mut IndexRegistry) -> JoinPlan {
    let mut bound: BTreeSet<Sym> = BTreeSet::new();
    bound.insert(rule.body[trigger].loc.clone());
    atom_vars(rule, trigger, &mut bound);
    let mut remaining: Vec<usize> = (0..rule.body.len()).filter(|&i| i != trigger).collect();
    let mut steps = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        // Greedy: most bound columns first; ties by body position.
        let (pos, _) = remaining
            .iter()
            .enumerate()
            .map(|(pos, &atom)| (pos, bound_cols(rule, atom, &bound).len()))
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .expect("remaining is non-empty");
        let atom = remaining.remove(pos);
        let key_cols = bound_cols(rule, atom, &bound);
        let mut prefixes = Vec::new();
        if key_cols.is_empty() {
            // No equality binding: try to rescue the scan with a trie.
            for (col, ip) in prefix_probes_for(rule, atom, &bound) {
                registry.want_trie(&rule.body[atom].table, col);
                prefixes.push(PrefixProbe {
                    col,
                    trie_slot: 0, // resolved after freezing the registry
                    ip,
                });
            }
        } else {
            registry.want(&rule.body[atom].table, &key_cols);
        }
        steps.push(JoinStep {
            atom,
            key_cols,
            index_slot: None, // resolved after freezing the registry
            prefixes,
        });
        atom_vars(rule, atom, &mut bound);
    }
    JoinPlan { steps }
}

/// All join plans of a program, plus the index specs they rely on.
#[derive(Clone, Debug, Default)]
pub struct PlanSet {
    /// Indexed plans, keyed by `(rule index, trigger atom index)`.
    plans: BTreeMap<(usize, usize), JoinPlan>,
    /// Per-table index column sets, slot-ordered.
    pub(crate) specs: BTreeMap<Sym, IndexSpecs>,
    /// Per-table prefix-trie columns, slot-ordered.
    pub(crate) tries: BTreeMap<Sym, TrieSpecs>,
}

impl PlanSet {
    /// Plans every `(rule, trigger)` pair of `rules`. For aggregation rules
    /// only the fence (atom 0) can trigger, so only that pair is planned.
    pub fn build(rules: &[Rule]) -> PlanSet {
        let mut registry = IndexRegistry::default();
        let mut plans = BTreeMap::new();
        for (ri, rule) in rules.iter().enumerate() {
            let triggers: Vec<usize> = if rule.agg.is_some() {
                vec![0]
            } else {
                (0..rule.body.len()).collect()
            };
            for t in triggers {
                plans.insert((ri, t), plan_one(rule, t, &mut registry));
            }
        }
        let (specs, tries) = registry.freeze();
        // Resolve each step's index/trie slot against the frozen spec lists.
        for ((ri, _), plan) in plans.iter_mut() {
            for step in &mut plan.steps {
                let table = &rules[*ri].body[step.atom].table;
                if !step.key_cols.is_empty() {
                    step.index_slot = specs[table].iter().position(|c| c == &step.key_cols);
                    debug_assert!(step.index_slot.is_some(), "registered spec must resolve");
                }
                for probe in &mut step.prefixes {
                    probe.trie_slot = tries[table]
                        .iter()
                        .position(|&c| c == probe.col)
                        .expect("registered trie spec must resolve");
                }
            }
        }
        PlanSet {
            plans,
            specs,
            tries,
        }
    }

    /// The indexed plan for `(rule, trigger)`.
    pub fn plan(&self, rule: usize, trigger: usize) -> &JoinPlan {
        &self.plans[&(rule, trigger)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_rules;

    fn rules(src: &str) -> Vec<Rule> {
        parse_rules(src).unwrap()
    }

    #[test]
    fn trigger_binds_join_columns() {
        // c(@N,X,Y,Z) :- a(@N,X,Y), b(@N,X,Z): triggering on a binds X,
        // so b should be probed through an index on its first column.
        let rs = rules("rc c(@N, X, Y, Z) :- a(@N, X, Y), b(@N, X, Z).");
        let set = PlanSet::build(&rs);
        let plan = set.plan(0, 0);
        assert_eq!(plan.steps.len(), 1);
        assert_eq!(plan.steps[0].atom, 1);
        assert_eq!(plan.steps[0].key_cols, vec![0]);
        assert!(plan.steps[0].index_slot.is_some());
        // Triggering on b binds X as well: a probed on column 0.
        let plan = set.plan(0, 1);
        assert_eq!(plan.steps[0].atom, 0);
        assert_eq!(plan.steps[0].key_cols, vec![0]);
    }

    #[test]
    fn constants_count_as_bound() {
        let rs = rules("rc c(@N, X) :- a(@N, X), b(@N, X, 7).");
        let set = PlanSet::build(&rs);
        let plan = set.plan(0, 0);
        // b is probed on (X, const 7): both columns bound.
        assert_eq!(plan.steps[0].key_cols, vec![0, 1]);
    }

    #[test]
    fn most_bound_atom_goes_first() {
        // Triggering on a binds X only. b(@N,X,Y) has 1 bound column;
        // d(@N,X,X) has 2. d must be joined first even though it appears
        // later in the body.
        let rs = rules("rc c(@N, X, Y) :- a(@N, X), b(@N, X, Y), d(@N, X, X).");
        let set = PlanSet::build(&rs);
        let plan = set.plan(0, 0);
        assert_eq!(plan.steps[0].atom, 2);
        assert_eq!(plan.steps[0].key_cols, vec![0, 1]);
        assert_eq!(plan.steps[1].atom, 1);
        assert_eq!(plan.steps[1].key_cols, vec![0]);
    }

    #[test]
    fn unbound_step_falls_back_to_scan() {
        // No shared variables: the second atom has no bound columns.
        let rs = rules("rc c(@N, X, Y) :- a(@N, X), b(@N, Y).");
        let set = PlanSet::build(&rs);
        let plan = set.plan(0, 0);
        assert!(plan.steps[0].key_cols.is_empty());
        assert!(plan.steps[0].index_slot.is_none());
    }

    #[test]
    fn specs_are_deduped_across_rules() {
        let rs = rules(
            "r1 c(@N, X, Y) :- a(@N, X), b(@N, X, Y).\n\
             r2 d(@N, X, Y) :- e(@N, X), b(@N, X, Y).",
        );
        let set = PlanSet::build(&rs);
        let specs = set.specs.get(&Sym::new("b")).unwrap();
        assert_eq!(specs.as_slice(), &[vec![0]]);
    }

    #[test]
    fn prefix_constraint_turns_scan_into_trie_probe() {
        // Triggering on p binds Src; f shares no variable, so the step on f
        // is a scan — rescued by the prefix_contains constraint on M.
        let rs = rules(
            "fwd o(@S, Src, Pt) :- p(@S, Src), f(@S, M, Pt), prefix_contains(M, Src).",
        );
        let set = PlanSet::build(&rs);
        let plan = set.plan(0, 0);
        assert_eq!(plan.steps.len(), 1);
        assert!(plan.steps[0].key_cols.is_empty());
        let [probe] = plan.steps[0].prefixes.as_slice() else {
            panic!("exactly one trie probe planned: {:?}", plan.steps[0].prefixes);
        };
        assert_eq!(probe.col, 0);
        assert_eq!(probe.ip, IpSource::Var(Sym::new("Src")));
        assert_eq!(probe.trie_slot, 0);
        assert_eq!(set.tries.get(&Sym::new("f")).unwrap().as_slice(), &[0]);
        // Triggering on f: the step on p has no applicable constraint (M is
        // not a column of p), so no probe.
        assert!(set.plan(0, 1).steps[0].prefixes.is_empty());
    }

    #[test]
    fn prefix_probe_accepts_literal_addresses() {
        let rs = rules("rc o(@S, M) :- t(@S), f(@S, M), prefix_contains(M, 4.3.2.1).");
        let set = PlanSet::build(&rs);
        let probe = &set.plan(0, 0).steps[0].prefixes[0];
        assert_eq!(
            probe.ip,
            IpSource::Const(Value::Ip(u32::from_be_bytes([4, 3, 2, 1])))
        );
    }

    #[test]
    fn prefix_probe_requires_a_bound_address() {
        // X is bound by the same atom the probe would serve, not before it.
        let rs = rules("rc o(@S) :- t(@S), f(@S, M, X), prefix_contains(M, X).");
        let set = PlanSet::build(&rs);
        assert!(set.plan(0, 0).steps[0].prefixes.is_empty());
        assert!(!set.tries.contains_key(&Sym::new("f")));
    }

    #[test]
    fn hash_index_wins_over_trie_probe() {
        // Src also appears as an equality column of f, so the step gets key
        // columns and the trie is not consulted.
        let rs = rules("rc o(@S, Src) :- p(@S, Src), f(@S, Src, M), prefix_contains(M, Src).");
        let set = PlanSet::build(&rs);
        let step = &set.plan(0, 0).steps[0];
        assert_eq!(step.key_cols, vec![0]);
        assert!(step.prefixes.is_empty());
    }

    #[test]
    fn every_constrained_column_is_planned_as_a_probe() {
        // Two prefix columns on one atom: both become probe candidates (in
        // constraint order) so the engine can pick the selective one per
        // execution — the campus tables are selective on the *second*.
        let rs = rules(
            "fwd o(@S, Src, Dst) :- p(@S, Src, Dst), f(@S, SM, DM), \
             prefix_contains(SM, Src), prefix_contains(DM, Dst).",
        );
        let set = PlanSet::build(&rs);
        let step = &set.plan(0, 0).steps[0];
        let cols: Vec<usize> = step.prefixes.iter().map(|p| p.col).collect();
        let slots: Vec<usize> = step.prefixes.iter().map(|p| p.trie_slot).collect();
        assert_eq!(cols, vec![0, 1]);
        assert_eq!(slots, vec![0, 1]);
        assert_eq!(set.tries.get(&Sym::new("f")).unwrap().as_slice(), &[0, 1]);
    }

    #[test]
    fn agg_rules_plan_only_the_fence_trigger() {
        let rs = rules("rq q(@N, agg_count(X)) :- f(@N), a(@N, X).");
        let set = PlanSet::build(&rs);
        assert!(set.plans.contains_key(&(0, 0)));
        assert!(!set.plans.contains_key(&(0, 1)));
    }
}
