//! Programs: schemas + rules + native rules + stateful builtins.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use dp_types::{Error, NodeId, Result, SchemaRegistry, Sym, Tuple, TupleRef, Value};

use crate::ast::{Constraint, Rule};
use crate::compile::{compile, Check, CompiledRule, IndexRegistry, IndexSpecs, TrieSpecs};
use crate::engine::NodeView;
use crate::parser::parse_rules;

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

    /// Could the presence of `tuple` at the node change `eval(args)`?
    /// UPDATETREE asks this of every recorded firing that called the
    /// predicate with `args`, at a node where a change opened or closed
    /// `tuple`: a `false` keeps the firing as it was. The default, `true`,
    /// is always safe. An override must also answer `true` for a tuple that
    /// could make the predicate *reject* a match of the same trigger, and it
    /// relies on every such rejection leaving a witness among the firings
    /// that were admitted — as priority resolution's winning entry is: a
    /// trigger whose every match was rejected leaves no record to ask.
    fn may_read(&self, args: &[Value], tuple: &Tuple) -> bool {
        let _ = (args, tuple);
        true
    }

    /// Could any tuple of `table` change any call's outcome? A `false`
    /// spares UPDATETREE asking [`StatefulBuiltin::may_read`] tuple by
    /// tuple. The default, `true`, is always safe.
    fn reads_table(&self, table: &Sym) -> bool {
        let _ = table;
        true
    }
}

/// What one recorded firing read of its node beyond its own body
/// ([`Program::reads`]).
pub enum Reads<'p> {
    /// A plain join: its body alone.
    Body,
    /// An aggregation: every tuple of its body tables.
    Tables(&'p Rule),
    /// Stateful builtins, each with the arguments the firing passed it.
    Builtins(Vec<(&'p dyn StatefulBuiltin, Vec<Value>)>),
    /// A native, or a firing that cannot be re-evaluated: anything.
    Anything,
}

impl Reads<'_> {
    /// True unless nothing the firing read could change with `tuple`'s
    /// presence at its node.
    pub fn may_read(&self, tuple: &Tuple) -> bool {
        match self {
            Reads::Body => false,
            Reads::Tables(rule) => rule.body.iter().any(|a| a.table == tuple.table),
            Reads::Builtins(calls) => calls.iter().any(|(b, args)| b.may_read(args, tuple)),
            Reads::Anything => true,
        }
    }

    /// False when no tuple of `table` could change what the firing read:
    /// the filter to apply before [`Reads::may_read`] over many tuples.
    pub fn reads_table(&self, table: &Sym) -> bool {
        match self {
            Reads::Body => false,
            Reads::Tables(rule) => rule.body.iter().any(|a| a.table == *table),
            Reads::Builtins(calls) => calls.iter().any(|(b, _)| b.reads_table(table)),
            Reads::Anything => true,
        }
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
    /// Each declared table's index: its rank in name order. The engine
    /// keeps a node's tables in a vector by this index, and the compiled
    /// rules name their tables by it.
    table_ids: BTreeMap<Sym, u32>,
    /// By table index: the table's name, and whether it is `Derived`.
    table_names: Vec<Sym>,
    derived: Vec<bool>,
    /// By table index: the (rule index, body-atom index) pairs it
    /// triggers.
    rule_triggers: Vec<Vec<(usize, usize)>>,
    /// By table index: the natives it triggers.
    native_triggers: Vec<Vec<usize>>,
    /// By table index: the index and prefix-trie specs the join plans
    /// probe (the plans themselves are in `compiled`).
    index_specs: Vec<IndexSpecs>,
    trie_specs: Vec<TrieSpecs>,
    /// Each rule resolved to slots and planned, by rule index
    /// (`crate::compile`).
    compiled: Vec<CompiledRule>,
}

// Executions share their program as an `Arc<Program>`, and a caller may
// move one to another thread; `NativeRule` and `StatefulBuiltin` carry
// `Send + Sync` bounds for exactly this. Keep the whole program — compiled
// rules included — thread-shareable, checked at compile time.
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

    /// True when rule `rule` (declarative or native) reads its node's
    /// state beyond its body: an aggregation, a rule with a stateful
    /// builtin, or a native. Only such a firing can change without one of
    /// its body tuples changing.
    pub fn reads_state(&self, rule: &Sym) -> bool {
        match self.rule(rule) {
            Some(r) => {
                let builtin = |c: &Constraint| matches!(c, Constraint::Builtin { .. });
                r.agg.is_some() || r.constraints.iter().any(builtin)
            }
            None => true,
        }
    }

    /// False when no tuple of `table` could change what a firing of
    /// `rule` read beyond its body: [`Reads::reads_table`] for every
    /// firing of the rule at once, before any is re-evaluated.
    pub fn reads_table(&self, rule: &Sym, table: &Sym) -> bool {
        let Some(r) = self.rule(rule) else {
            return true;
        };
        if r.agg.is_some() {
            return r.body.iter().any(|a| a.table == *table);
        }
        r.constraints.iter().any(|c| match c {
            Constraint::Builtin { name, .. } => {
                self.builtins.get(name).is_none_or(|b| b.reads_table(table))
            }
            Constraint::Expr(_) => false,
        })
    }

    /// What the recorded firing of `rule` over `body` (its body tuples, in
    /// body order) at `node` read beyond its body: the question UPDATETREE
    /// asks of a firing at a node where a change opened or closed a tuple.
    pub fn reads(&self, rule: &Sym, node: &NodeId, body: &[&Tuple]) -> Reads<'_> {
        let Some(ri) = self.rules.iter().position(|r| &r.name == rule) else {
            return Reads::Anything;
        };
        let (source, compiled) = (&self.rules[ri], &self.compiled[ri]);
        if source.agg.is_some() {
            return Reads::Tables(source);
        }
        let builtins = compiled.checks.iter().filter_map(|c| match c {
            Check::Builtin(b, args) => Some((b, args)),
            Check::Expr(_) => None,
        });
        let mut calls = Vec::new();
        let mut frame = None;
        for (builtin, args) in builtins {
            let frame = match &frame {
                Some(f) => f,
                None => match compiled.frame_of(&Value::Str(node.0), body) {
                    Some(f) => frame.insert(f),
                    None => return Reads::Anything,
                },
            };
            let Ok(values) = args.iter().map(|a| a.eval(frame)).collect::<Result<Vec<_>>>() else {
                return Reads::Anything;
            };
            calls.push((&**builtin, values));
        }
        if calls.is_empty() {
            Reads::Body
        } else {
            Reads::Builtins(calls)
        }
    }

    /// Looks up a stateful builtin.
    pub fn builtin(&self, name: &Sym) -> Result<&Arc<dyn StatefulBuiltin>> {
        self.builtins
            .get(name)
            .ok_or_else(|| Error::Engine(format!("unknown stateful builtin {name}")))
    }

    /// The index of declared table `table`: its rank in name order.
    /// `None` for an undeclared table.
    pub(crate) fn table_index(&self, table: &Sym) -> Option<u32> {
        self.table_ids.get(table).copied()
    }

    /// How many tables are declared: table indexes run below this.
    pub(crate) fn table_count(&self) -> usize {
        self.table_ids.len()
    }

    /// `(rule index, atom index)` pairs whose body references `table`.
    pub fn rule_triggers(&self, table: &Sym) -> &[(usize, usize)] {
        self.table_index(table).map_or(&[], |t| self.rule_triggers_at(t))
    }

    /// [`Program::rule_triggers`] by table index.
    pub(crate) fn rule_triggers_at(&self, table: u32) -> &[(usize, usize)] {
        &self.rule_triggers[table as usize]
    }

    /// Native rules triggered by insertions into `table`.
    pub fn native_triggers(&self, table: &Sym) -> &[usize] {
        self.table_index(table).map_or(&[], |t| self.native_triggers_at(t))
    }

    /// [`Program::native_triggers`] by table index.
    pub(crate) fn native_triggers_at(&self, table: u32) -> &[usize] {
        &self.native_triggers[table as usize]
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
            Some(rule) => rule.name,
            None => self.natives[slot - self.rules.len()].name(),
        }
    }

    /// Rule `idx` resolved to slots: what the engine fires.
    pub(crate) fn compiled(&self, idx: usize) -> &CompiledRule {
        &self.compiled[idx]
    }

    /// The index key specs registered for `table`, if any rule probes it.
    pub fn index_specs_for(&self, table: &Sym) -> Option<&IndexSpecs> {
        let specs = &self.index_specs[self.table_index(table)? as usize];
        (!specs.is_empty()).then_some(specs)
    }

    /// The prefix-trie columns registered for `table`, if any rule probes
    /// a `prefix_contains` constraint against it.
    pub fn trie_specs_for(&self, table: &Sym) -> Option<&TrieSpecs> {
        let specs = &self.trie_specs[self.table_index(table)? as usize];
        (!specs.is_empty()).then_some(specs)
    }

    /// The name of the table at index `table`.
    pub(crate) fn table_name(&self, table: u32) -> Sym {
        self.table_names[table as usize]
    }

    /// True when the table at index `table` is `Derived`: its rows are
    /// heads, which the engine keys by head id.
    pub(crate) fn derived_at(&self, table: u32) -> bool {
        self.derived[table as usize]
    }

    /// The index and trie specs of the table at index `table`, each
    /// empty when no plan probes one.
    pub(crate) fn specs_at(&self, table: u32) -> (&IndexSpecs, &TrieSpecs) {
        (&self.index_specs[table as usize], &self.trie_specs[table as usize])
    }
}

/// `specs` as a vector by table index (`ids` ranks the tables in name
/// order), empty where a table has none.
fn by_index<T: Default>(ids: &BTreeMap<Sym, u32>, mut specs: BTreeMap<Sym, T>) -> Vec<T> {
    ids.keys().map(|t| specs.remove(t).unwrap_or_default()).collect()
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
    /// are registered; then compiles every rule to slots and plans its
    /// joins (`crate::compile`), once, for every engine the program runs.
    pub fn build(self) -> Result<Arc<Program>> {
        let table_ids: BTreeMap<Sym, u32> =
            self.schemas.iter().enumerate().map(|(i, s)| (s.name, i as u32)).collect();
        let tables = table_ids.len();
        let mut registry = IndexRegistry::default();
        let mut compiled = Vec::with_capacity(self.rules.len());
        let mut rule_triggers: Vec<Vec<(usize, usize)>> = vec![Vec::new(); tables];
        for (ri, rule) in self.rules.iter().enumerate() {
            let head_schema = self.schemas.require(&rule.head.table)?;
            if head_schema.kind != dp_types::TableKind::Derived {
                return Err(Error::Schema {
                    table: rule.head.table,
                    message: format!("rule {} derives into a non-derived table", rule.name),
                });
            }
            if head_schema.arity() != rule.head.args.len() {
                return Err(Error::Schema {
                    table: rule.head.table,
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
                        table: atom.table,
                        message: format!(
                            "rule {}: atom arity {} != declared {}",
                            rule.name,
                            atom.args.len(),
                            schema.arity()
                        ),
                    });
                }
                rule_triggers[table_ids[&atom.table] as usize].push((ri, ai));
            }
            // Fails on the first unregistered builtin, in constraint order.
            compiled.push(compile(rule, &mut registry, &self.builtins, &table_ids)?);
        }
        let mut native_triggers: Vec<Vec<usize>> = vec![Vec::new(); tables];
        for (ni, native) in self.natives.iter().enumerate() {
            for t in native.triggers() {
                self.schemas.require(&t)?;
                native_triggers[table_ids[&t] as usize].push(ni);
            }
        }
        let index_specs = by_index(&table_ids, registry.index_specs);
        let trie_specs = by_index(&table_ids, registry.trie_specs);
        let table_names = table_ids.keys().copied().collect();
        let derived = self.schemas.iter().map(|s| s.kind == dp_types::TableKind::Derived).collect();
        Ok(Arc::new(Program {
            schemas: self.schemas,
            rules: self.rules,
            natives: self.natives,
            builtins: self.builtins,
            table_ids,
            table_names,
            derived,
            rule_triggers,
            native_triggers,
            index_specs,
            trie_specs,
            compiled,
        }))
    }
}
