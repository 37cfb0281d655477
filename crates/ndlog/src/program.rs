//! Programs: schemas + rules + native rules + stateful builtins.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use dp_types::{Error, NodeId, Result, SchemaRegistry, Sym, Tuple, TupleRef, Value};

use crate::ast::Rule;
use crate::compile::{compile, CompiledRule};
use crate::engine::NodeView;
use crate::parser::parse_rules;
use crate::plan::{IndexSpecs, JoinPlan, PlanSet, TrieSpecs};

/// A proposed change to a single base tuple — the elements of the paper's
/// `Δ_{B→G}` (Definition 1).
///
/// `before == None` is a pure insertion; `after == None` a pure deletion;
/// both present is a replacement (the common case: "change flow entry
/// `4.3.2.0/24` to `4.3.2.0/23`").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TupleChange {
    /// Node the tuple lives on.
    pub node: NodeId,
    /// The tuple currently in the bad execution, if any.
    pub before: Option<Tuple>,
    /// The tuple that should exist instead, if any.
    pub after: Option<Tuple>,
}

impl fmt::Display for TupleChange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.before, &self.after) {
            (Some(b), Some(a)) => write!(f, "change {b}@{} to {a}", self.node),
            (None, Some(a)) => write!(f, "insert {a}@{}", self.node),
            (Some(b), None) => write!(f, "delete {b}@{}", self.node),
            (None, None) => write!(f, "no-op change @{}", self.node),
        }
    }
}

/// A tuple emitted by a native rule, with its reported dependencies.
#[derive(Clone, Debug)]
pub struct Emission {
    /// Node at which the derived tuple should appear.
    pub node: NodeId,
    /// The derived tuple.
    pub tuple: Tuple,
    /// The body tuples this derivation depends on (reported provenance).
    pub body: Vec<TupleRef>,
    /// Extra scheduling delay in logical ticks (0 = as soon as possible).
    pub delay: u64,
}

/// Collects the emissions of one native-rule firing.
#[derive(Debug, Default)]
pub struct Emitter {
    pub(crate) emissions: Vec<Emission>,
}

impl Emitter {
    /// Emits a derived tuple at `node`, depending on `body`.
    pub fn emit(&mut self, node: NodeId, tuple: Tuple, body: Vec<TupleRef>) {
        self.emissions.push(Emission {
            node,
            tuple,
            body,
            delay: 0,
        });
    }

    /// Like [`Emitter::emit`] with an explicit delivery delay.
    pub fn emit_delayed(&mut self, node: NodeId, tuple: Tuple, body: Vec<TupleRef>, delay: u64) {
        self.emissions.push(Emission {
            node,
            tuple,
            body,
            delay,
        });
    }
}

/// An imperative rule written in Rust.
///
/// Native rules model the paper's *report* capture mode (Section 5): the
/// primary system is arbitrary code — here, the imperative MapReduce job —
/// instrumented to report its data dependencies. Each firing must report
/// the exact body tuples the emission depends on; the engine records them
/// in the provenance stream exactly like a declarative derivation.
pub trait NativeRule: Send + Sync {
    /// The rule name recorded in DERIVE vertices.
    fn name(&self) -> Sym;

    /// The tables whose insertions trigger this rule.
    fn triggers(&self) -> Vec<Sym>;

    /// Reacts to `trigger` appearing at `node`.
    fn fire(&self, view: &NodeView<'_>, trigger: &Tuple, out: &mut Emitter) -> Result<()>;
}

/// A constraint predicate evaluated against a node's current table state.
///
/// The canonical example is OpenFlow priority resolution: `best_match!(S,
/// Dst, Prio)` holds iff `Prio` is the highest priority among the node's
/// flow entries matching `Dst`. Such predicates are non-monotonic and hence
/// cannot be plain datalog; they are deterministic at any given engine
/// state, which is all replay needs.
pub trait StatefulBuiltin: Send + Sync {
    /// The name the parser resolves `name!(...)` against.
    fn name(&self) -> Sym;

    /// Evaluates the predicate for fully evaluated arguments.
    fn eval(&self, view: &NodeView<'_>, args: &[Value]) -> Result<bool>;

    /// DiffProv repair hook (Section 4.5): propose base-tuple changes that
    /// would make the predicate true for `args` at this node. The default
    /// proposes nothing, which makes DiffProv report the constraint as
    /// non-invertible.
    fn repair(&self, view: &NodeView<'_>, args: &[Value]) -> Result<Vec<TupleChange>> {
        let _ = (view, args);
        Ok(Vec::new())
    }
}

/// A complete system model: table schemas, declarative rules, native rules,
/// and stateful builtins.
///
/// Programs are immutable once built and shared between engine instances
/// via `Arc` — replay (Section 5, "query-time based approach") repeatedly
/// constructs fresh engines over the same program.
#[derive(Clone)]
pub struct Program {
    /// Table declarations.
    pub schemas: SchemaRegistry,
    rules: Vec<Rule>,
    natives: Vec<Arc<dyn NativeRule>>,
    builtins: BTreeMap<Sym, Arc<dyn StatefulBuiltin>>,
    /// table -> (rule index, body-atom index) pairs triggered by it.
    rule_triggers: BTreeMap<Sym, Vec<(usize, usize)>>,
    /// table -> native indexes triggered by it.
    native_triggers: BTreeMap<Sym, Vec<usize>>,
    /// Build-time join plans and the index specs they require.
    plans: PlanSet,
    /// Each rule resolved to slots, by rule index (`crate::compile`).
    compiled: Vec<CompiledRule>,
}

// Executions share their program as an `Arc<Program>`, and a caller may
// move one to another thread; `NativeRule` and `StatefulBuiltin` carry
// `Send + Sync` bounds for exactly this. Keep the whole program — plans
// included — thread-shareable, checked at compile time.
const _: () = {
    const fn assert_sync<T: Send + Sync>() {}
    assert_sync::<Program>();
};

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program")
            .field("rules", &self.rules.len())
            .field("natives", &self.natives.len())
            .field("builtins", &self.builtins.len())
            .finish()
    }
}

impl Program {
    /// Starts building a program over the given schemas.
    pub fn builder(schemas: SchemaRegistry) -> ProgramBuilder {
        ProgramBuilder {
            schemas,
            rules: Vec::new(),
            natives: Vec::new(),
            builtins: BTreeMap::new(),
        }
    }

    /// The declarative rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Finds a declarative rule by name.
    pub fn rule(&self, name: &Sym) -> Option<&Rule> {
        self.rules.iter().find(|r| &r.name == name)
    }

    /// Finds a native rule by name.
    pub fn native(&self, name: &Sym) -> Option<&Arc<dyn NativeRule>> {
        self.natives.iter().find(|n| &n.name() == name)
    }

    /// Looks up a stateful builtin.
    pub fn builtin(&self, name: &Sym) -> Result<&Arc<dyn StatefulBuiltin>> {
        self.builtins
            .get(name)
            .ok_or_else(|| Error::Engine(format!("unknown stateful builtin {name}")))
    }

    /// `(rule index, atom index)` pairs whose body references `table`.
    pub fn rule_triggers(&self, table: &Sym) -> &[(usize, usize)] {
        self.rule_triggers.get(table).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Native rules triggered by insertions into `table`.
    pub fn native_triggers(&self, table: &Sym) -> &[usize] {
        self.native_triggers.get(table).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Rule by index (valid indexes come from [`Program::rule_triggers`]).
    pub fn rule_at(&self, idx: usize) -> &Rule {
        &self.rules[idx]
    }

    /// Native rule by index.
    pub fn native_at(&self, idx: usize) -> &Arc<dyn NativeRule> {
        &self.natives[idx]
    }

    /// How many rule slots the engine's per-rule counters need: one per
    /// declarative rule by index, then one per native.
    pub(crate) fn rule_slots(&self) -> usize {
        self.rules.len() + self.natives.len()
    }

    /// The name of the rule (or, past the rules, the native) in `slot`.
    pub(crate) fn slot_name(&self, slot: usize) -> Sym {
        match self.rules.get(slot) {
            Some(rule) => rule.name.clone(),
            None => self.natives[slot - self.rules.len()].name(),
        }
    }

    /// Rule `idx` resolved to slots: what the engine fires.
    pub(crate) fn compiled(&self, idx: usize) -> &CompiledRule {
        &self.compiled[idx]
    }

    /// The planned (index-probing) join order for `(rule, trigger atom)`.
    pub fn join_plan(&self, rule: usize, trigger: usize) -> &JoinPlan {
        self.plans.plan(rule, trigger)
    }

    /// The index key specs registered for `table`, if any rule probes it.
    pub fn index_specs_for(&self, table: &Sym) -> Option<&IndexSpecs> {
        self.plans.specs_for(table)
    }

    /// The prefix-trie columns registered for `table`, if any rule probes
    /// a `prefix_contains` constraint against it.
    pub fn trie_specs_for(&self, table: &Sym) -> Option<&TrieSpecs> {
        self.plans.trie_specs_for(table)
    }

    /// All registered trie specs, by table (diagnostics).
    pub fn all_trie_specs(&self) -> impl Iterator<Item = (&Sym, &TrieSpecs)> {
        self.plans.all_trie_specs().iter()
    }
}

/// Builder for [`Program`].
pub struct ProgramBuilder {
    schemas: SchemaRegistry,
    rules: Vec<Rule>,
    natives: Vec<Arc<dyn NativeRule>>,
    builtins: BTreeMap<Sym, Arc<dyn StatefulBuiltin>>,
}

impl ProgramBuilder {
    /// Adds already-constructed rules.
    pub fn rules(mut self, rules: impl IntoIterator<Item = Rule>) -> Self {
        self.rules.extend(rules);
        self
    }

    /// Parses and adds rules from NDlog text.
    pub fn rules_text(mut self, src: &str) -> Result<Self> {
        self.rules.extend(parse_rules(src)?);
        Ok(self)
    }

    /// Registers a native rule.
    pub fn native(mut self, rule: Arc<dyn NativeRule>) -> Self {
        self.natives.push(rule);
        self
    }

    /// Registers a stateful builtin.
    pub fn builtin(mut self, b: Arc<dyn StatefulBuiltin>) -> Self {
        self.builtins.insert(b.name(), b);
        self
    }

    /// Validates and freezes the program.
    ///
    /// Checks that every rule derives into a `Derived` table, that body
    /// tables are declared with matching arity, and that builtin constraints
    /// are registered; then plans every rule's joins and compiles it to
    /// slots (`crate::compile`), once, for every engine the program runs.
    pub fn build(self) -> Result<Arc<Program>> {
        let plans = PlanSet::build(&self.rules);
        let mut compiled = Vec::with_capacity(self.rules.len());
        let mut rule_triggers: BTreeMap<Sym, Vec<(usize, usize)>> = BTreeMap::new();
        for (ri, rule) in self.rules.iter().enumerate() {
            let head_schema = self.schemas.require(&rule.head.table)?;
            if head_schema.kind != dp_types::TableKind::Derived {
                return Err(Error::Schema {
                    table: rule.head.table.clone(),
                    message: format!("rule {} derives into a non-derived table", rule.name),
                });
            }
            if head_schema.arity() != rule.head.args.len() {
                return Err(Error::Schema {
                    table: rule.head.table.clone(),
                    message: format!(
                        "rule {}: head arity {} != declared {}",
                        rule.name,
                        rule.head.args.len(),
                        head_schema.arity()
                    ),
                });
            }
            for (ai, atom) in rule.body.iter().enumerate() {
                let schema = self.schemas.require(&atom.table)?;
                if schema.arity() != atom.args.len() {
                    return Err(Error::Schema {
                        table: atom.table.clone(),
                        message: format!(
                            "rule {}: atom arity {} != declared {}",
                            rule.name,
                            atom.args.len(),
                            schema.arity()
                        ),
                    });
                }
                rule_triggers.entry(atom.table.clone()).or_default().push((ri, ai));
            }
            // Fails on the first unregistered builtin, in constraint order.
            compiled.push(compile(rule, ri, &plans, &self.builtins)?);
        }
        let mut native_triggers: BTreeMap<Sym, Vec<usize>> = BTreeMap::new();
        for (ni, native) in self.natives.iter().enumerate() {
            for t in native.triggers() {
                self.schemas.require(&t)?;
                native_triggers.entry(t).or_default().push(ni);
            }
        }
        Ok(Arc::new(Program {
            schemas: self.schemas,
            rules: self.rules,
            natives: self.natives,
            builtins: self.builtins,
            rule_triggers,
            native_triggers,
            plans,
            compiled,
        }))
    }
}
