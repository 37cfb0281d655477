//! Taint tracking over the good provenance tree (Sections 4.3–4.4).
//!
//! [`TaintState`] computes, for every tuple occurrence in the good tree
//! `T_G`, a per-field [`Formula`] over the seed's fields. Fields not
//! computed from the seed get constant formulae (their good-run values).
//! The *expected equivalent* of any good tuple in the bad execution is then
//! obtained by evaluating the formulae with the bad seed's values
//! (APPLYTAINT).

use std::collections::BTreeMap;

use dp_ndlog::{Env, Pattern, Program, Rule};
use dp_provenance::{TreeIdx, TupleTree};
use dp_types::{Error, NodeId, Result, Sym, Tuple, TupleRef, Value};

use crate::formula::{substitute, Formula};

/// Where a rule variable was bound from: body atom index and field index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VarSource {
    /// Index of the body atom (== child index in the tuple tree).
    pub atom: usize,
    /// Field index within that atom.
    pub field: usize,
}

/// The fully elaborated environment of one derivation in the good tree.
#[derive(Clone, Debug, Default)]
pub struct DerivationEnv {
    /// Formula per rule variable that is tainted.
    pub var_formulas: BTreeMap<Sym, Formula>,
    /// Concrete good-run value of every rule variable.
    pub good_env: Env,
    /// First binding site of each variable.
    pub var_sources: BTreeMap<Sym, VarSource>,
}

/// Taint state over one good tuple tree.
pub struct TaintState<'a> {
    view: &'a TupleTree,
    program: &'a Program,
    seed_tref: TupleRef,
    bad_seed: Tuple,
    bad_seed_node: NodeId,
    /// When set, occurrences located on the good seed's node are expected
    /// on the bad seed's node instead (cross-node partial-failure
    /// references: "server C serves this record correctly, server A does
    /// not"). Opt-in via [`TaintState::map_seed_nodes`].
    node_mapped: bool,
    memo: BTreeMap<TreeIdx, Vec<Formula>>,
}

impl<'a> TaintState<'a> {
    /// Creates the taint state, verifying the seeds are comparable
    /// (CREATETAINT; failure here is the paper's "seeds of different
    /// types" case).
    pub fn new(
        view: &'a TupleTree,
        program: &'a Program,
        seed_idx: TreeIdx,
        bad_seed_tref: &TupleRef,
    ) -> Result<Self> {
        let seed = view.node(seed_idx);
        let good_seed = &seed.tref.tuple;
        let bad_seed = &bad_seed_tref.tuple;
        if good_seed.table != bad_seed.table || good_seed.arity() != bad_seed.arity() {
            return Err(Error::Engine(format!(
                "seed type mismatch: good seed is {}, bad seed is {}",
                good_seed, bad_seed
            )));
        }
        Ok(TaintState {
            view,
            program,
            seed_tref: seed.tref.clone(),
            bad_seed: Tuple::clone(bad_seed),
            bad_seed_node: bad_seed_tref.node,
            node_mapped: false,
            memo: BTreeMap::new(),
        })
    }

    /// Enables cross-node equivalence: tuples on the good seed's node are
    /// expected on the bad seed's node. Used for partial-failure
    /// references, where the reference is the *same service on another
    /// node* (Section 2.4's most prevalent class).
    pub fn map_seed_nodes(&mut self) {
        self.node_mapped = true;
    }

    /// The node-equivalence map applied to expectations.
    pub fn map_node(&self, node: &NodeId) -> NodeId {
        if self.node_mapped && *node == self.seed_tref.node {
            self.bad_seed_node
        } else {
            *node
        }
    }

    /// The good tree's seed (as a located tuple).
    pub fn seed_tref(&self) -> &TupleRef {
        &self.seed_tref
    }

    /// The bad seed tuple.
    pub fn bad_seed(&self) -> &Tuple {
        &self.bad_seed
    }

    /// True when the occurrence *is* the seed tuple (possibly appearing at
    /// several places in the projected tree).
    pub fn is_seed_like(&self, idx: TreeIdx) -> bool {
        self.view.node(idx).tref == self.seed_tref
    }

    /// The per-field formulae of occurrence `idx` (PROPTAINT, memoized).
    pub fn taints(&mut self, idx: TreeIdx) -> Result<Vec<Formula>> {
        if let Some(f) = self.memo.get(&idx) {
            return Ok(f.clone());
        }
        let occ = self.view.node(idx).clone();
        let formulas = if self.is_seed_like(idx) {
            // CREATETAINT: differing seed fields get identity formulae;
            // equal fields are constants.
            occ.tref
                .tuple
                .args
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    if self.bad_seed.args.get(i) == Some(v) {
                        Formula::constant(v.clone())
                    } else {
                        Formula::seed_field(i)
                    }
                })
                .collect()
        } else {
            match &occ.rule {
                None => {
                    // A base tuple not derived from the seed: constants.
                    occ.tref
                        .tuple
                        .args
                        .iter()
                        .map(|v| Formula::constant(v.clone()))
                        .collect()
                }
                Some(rule_name) => match self.program.rule(rule_name) {
                    Some(rule) if rule.agg.is_none() => {
                        let rule = rule.clone();
                        let denv = self.derivation_env_inner(idx, &rule)?;
                        let mut out = Vec::with_capacity(rule.head.args.len());
                        for head_arg in &rule.head.args {
                            out.push(substitute(head_arg, &denv.var_formulas, &denv.good_env)?);
                        }
                        out
                    }
                    _ => {
                        // A native (imperative) or aggregation rule: its
                        // children are contributors, not body-atom matches,
                        // so it is opaque to symbolic
                        // propagation. If no input field is tainted, the
                        // outputs are plain constants; otherwise DiffProv
                        // cannot invert the computation (Section 4.7).
                        let mut tainted_input = false;
                        for &c in &occ.children {
                            if self.taints(c)?.iter().any(Formula::is_tainted) {
                                tainted_input = true;
                                break;
                            }
                        }
                        if tainted_input {
                            return Err(Error::NonInvertible(format!(
                                "native rule {rule_name} consumed tainted inputs while \
                                 deriving {}; imperative code cannot be inverted",
                                occ.tref
                            )));
                        }
                        occ.tref
                            .tuple
                            .args
                            .iter()
                            .map(|v| Formula::constant(v.clone()))
                            .collect()
                    }
                },
            }
        };
        self.memo.insert(idx, formulas.clone());
        Ok(formulas)
    }

    /// The elaborated derivation environment of a derived occurrence.
    ///
    /// Errors if the occurrence is a base tuple or uses a native rule.
    pub fn derivation_env(&mut self, idx: TreeIdx) -> Result<DerivationEnv> {
        let occ = self.view.node(idx);
        let rule_name = occ
            .rule
            .ok_or_else(|| Error::Engine(format!("{} is a base tuple", occ.tref)))?;
        let rule = self
            .program
            .rule(&rule_name)
            .filter(|r| r.agg.is_none())
            .ok_or_else(|| {
                Error::NonInvertible(format!("rule {rule_name} is native or aggregating"))
            })?
            .clone();
        self.derivation_env_inner(idx, &rule)
    }

    fn derivation_env_inner(&mut self, idx: TreeIdx, rule: &Rule) -> Result<DerivationEnv> {
        let occ = self.view.node(idx).clone();
        if occ.children.len() != rule.body.len() {
            return Err(Error::Engine(format!(
                "derivation of {} via {} has {} children but the rule has {} atoms",
                occ.tref,
                rule.name,
                occ.children.len(),
                rule.body.len()
            )));
        }
        let mut denv = DerivationEnv::default();
        // The body location variable binds to the node the body lived on.
        if let Some(&first_child) = occ.children.first() {
            let body_node = &self.view.node(first_child).tref.node;
            denv.good_env
                .insert(rule.body[0].loc, Value::Str(body_node.0));
        }
        for (j, (&child_idx, atom)) in occ.children.iter().zip(&rule.body).enumerate() {
            let child = self.view.node(child_idx).clone();
            let child_taints = self.taints(child_idx)?;
            for (p, pat) in atom.args.iter().enumerate() {
                if let Pattern::Var(x) = pat {
                    let value = child.tref.tuple.args.get(p).cloned().ok_or_else(|| {
                        Error::Engine(format!("arity mismatch binding {x} in {}", child.tref))
                    })?;
                    if !denv.good_env.contains_key(x) {
                        denv.good_env.insert(*x, value);
                        denv.var_sources.insert(*x, VarSource { atom: j, field: p });
                        let f = &child_taints[p];
                        if f.is_tainted() {
                            denv.var_formulas.insert(*x, f.clone());
                        }
                    }
                }
            }
        }
        for assign in &rule.assigns {
            let formula = substitute(&assign.expr, &denv.var_formulas, &denv.good_env)?;
            let good_value = assign.expr.eval(&denv.good_env)?;
            denv.good_env.insert(assign.var, good_value);
            if formula.is_tainted() {
                denv.var_formulas.insert(assign.var, formula);
            }
        }
        Ok(denv)
    }

    /// The expected equivalent of occurrence `idx` in the bad execution:
    /// formulae applied to the bad seed (APPLYTAINT).
    pub fn expected_tuple(&mut self, idx: TreeIdx) -> Result<Tuple> {
        if self.is_seed_like(idx) {
            return Ok(self.bad_seed.clone());
        }
        let occ = self.view.node(idx).clone();
        let formulas = self.taints(idx)?;
        let mut args = Vec::with_capacity(formulas.len());
        for f in &formulas {
            args.push(f.apply(&self.bad_seed)?);
        }
        Ok(Tuple::new(occ.tref.tuple.table, args))
    }

    /// The node the expected equivalent lives on. Taints never relocate
    /// tuples, so this is the good occurrence's node — except for the seed
    /// itself, which is wherever the bad stimulus entered the system.
    pub fn expected_node(&self, idx: TreeIdx) -> NodeId {
        if self.is_seed_like(idx) {
            self.bad_seed_node
        } else {
            self.map_node(&self.view.node(idx).tref.node)
        }
    }

    /// The expected equivalent as a located tuple.
    pub fn expected_tref(&mut self, idx: TreeIdx) -> Result<TupleRef> {
        Ok(TupleRef {
            node: self.expected_node(idx),
            tuple: self.expected_tuple(idx)?.into(),
        })
    }

    /// The expected equivalents of a derived occurrence's children,
    /// computed through the rule's body patterns.
    ///
    /// This is the *downward* PROPTAINT step of Section 4.5: taints flow
    /// from the parent derivation into sibling children through shared
    /// join variables. A base tuple like `B(x, y, z)` joining the seed on
    /// `x` is expected to carry the **bad** seed's `x` — the paper's
    /// Figure 4, where `B(1,2,3)` must become `B(1,2,4)` even though `B`
    /// itself was never derived from the seed.
    pub fn expected_children(&mut self, idx: TreeIdx) -> Result<Vec<TupleRef>> {
        let occ = self.view.node(idx).clone();
        let rule_name = occ
            .rule
            .ok_or_else(|| Error::Engine(format!("{} is a base tuple", occ.tref)))?;
        let Some(rule) = self
            .program
            .rule(&rule_name)
            .filter(|r| r.agg.is_none())
            .cloned()
        else {
            // Native or aggregation rule: inputs are untainted (enforced
            // by `taints`), so per-child expectations are exact.
            let mut out = Vec::with_capacity(occ.children.len());
            for &c in &occ.children {
                out.push(self.expected_tref(c)?);
            }
            return Ok(out);
        };
        let denv = self.derivation_env_inner(idx, &rule)?;
        let mut out = Vec::with_capacity(occ.children.len());
        for (&child_idx, atom) in occ.children.iter().zip(&rule.body) {
            if self.is_seed_like(child_idx) {
                out.push(TupleRef {
                    node: self.bad_seed_node,
                    tuple: self.bad_seed.clone().into(),
                });
                continue;
            }
            let child = self.view.node(child_idx).clone();
            let mut args = Vec::with_capacity(atom.args.len());
            for (p, pat) in atom.args.iter().enumerate() {
                let good_value = child.tref.tuple.args.get(p).cloned().ok_or_else(|| {
                    Error::Engine(format!("arity mismatch in {}", child.tref))
                })?;
                let v = match pat {
                    Pattern::Const(c) => c.clone(),
                    Pattern::Wildcard => good_value,
                    Pattern::Var(x) => match denv.var_formulas.get(x) {
                        Some(f) => f.apply(&self.bad_seed)?,
                        None => denv
                            .good_env
                            .get(x)
                            .cloned()
                            .unwrap_or(good_value),
                    },
                };
                args.push(v);
            }
            out.push(TupleRef {
                node: self.map_node(&child.tref.node),
                tuple: Tuple::new(child.tref.tuple.table, args).into(),
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_provenance::{extract_tree, tuple_view, GraphRecorder};
    use dp_types::{tuple, FieldType, Schema, SchemaRegistry, TableKind};
    use std::sync::Arc;

    /// Figure 4's program: C(x, y*y, z+1) :- A(x,y), B(x,y,z).
    fn program() -> Arc<Program> {
        let mut reg = SchemaRegistry::new();
        reg.declare(Schema::new(
            "a",
            TableKind::ImmutableBase,
            [("x", FieldType::Int), ("y", FieldType::Int)],
        ));
        reg.declare(Schema::new(
            "b",
            TableKind::MutableBase,
            [("x", FieldType::Int), ("y", FieldType::Int), ("z", FieldType::Int)],
        ));
        reg.declare(Schema::new(
            "c",
            TableKind::Derived,
            [("x", FieldType::Int), ("y2", FieldType::Int), ("z1", FieldType::Int)],
        ));
        dp_ndlog::Program::builder(reg)
            .rules_text(
                "rc c(@N, X, Y2, Z1) :- a(@N, X, Y), b(@N, X, Y, Z), Y2 := Y*Y, Z1 := Z + 1.",
            )
            .unwrap()
            .build()
            .unwrap()
    }

    /// Runs the good side of Figure 4 and returns (program, view).
    fn good_view() -> (Arc<Program>, dp_provenance::TupleTree) {
        let program = program();
        let mut eng = dp_ndlog::Engine::new(Arc::clone(&program), GraphRecorder::new());
        let n = NodeId::new("n1");
        eng.schedule_insert(0, n, tuple!("b", 2, 2, 4)).unwrap();
        eng.schedule_insert(5, n, tuple!("a", 2, 2)).unwrap();
        eng.run().unwrap();
        let now = eng.now();
        let graph = eng.into_sink().finish();
        let tree = extract_tree(&graph, &TupleRef::new(n, tuple!("c", 2, 4, 5)), now).unwrap();
        (program, tuple_view(&tree))
    }

    #[test]
    fn seed_type_mismatch_is_rejected() {
        let (program, view) = good_view();
        let seed = view.seed();
        let bad = TupleRef::new("n1", tuple!("b", 1, 2, 3)); // different table
        assert!(TaintState::new(&view, &program, seed, &bad).is_err());
        let bad_arity = TupleRef::new("n1", tuple!("a", 1)); // wrong arity
        assert!(TaintState::new(&view, &program, seed, &bad_arity).is_err());
    }

    #[test]
    fn seed_taints_follow_field_differences() {
        let (program, view) = good_view();
        let seed = view.seed();
        // Bad seed a(1,2): x differs, y matches.
        let bad = TupleRef::new("n1", tuple!("a", 1, 2));
        let mut taint = TaintState::new(&view, &program, seed, &bad).unwrap();
        let formulas = taint.taints(seed).unwrap();
        assert!(formulas[0].is_tainted());
        assert!(!formulas[1].is_tainted());
    }

    #[test]
    fn head_taints_compose_through_assignments() {
        let (program, view) = good_view();
        let seed = view.seed();
        let bad = TupleRef::new("n1", tuple!("a", 1, 2));
        let mut taint = TaintState::new(&view, &program, seed, &bad).unwrap();
        // Root is c(2,4,5): field 0 = X (tainted), field 1 = Y*Y
        // (untainted, 4), field 2 = Z+1 (untainted, 5).
        let expected = taint.expected_tuple(dp_provenance::TupleTree::ROOT).unwrap();
        assert_eq!(expected, tuple!("c", 1, 4, 5));
    }

    #[test]
    fn expected_children_propagate_joins_downward() {
        let (program, view) = good_view();
        let seed = view.seed();
        let bad = TupleRef::new("n1", tuple!("a", 1, 2));
        let mut taint = TaintState::new(&view, &program, seed, &bad).unwrap();
        let children = taint.expected_children(dp_provenance::TupleTree::ROOT).unwrap();
        // Child a: the (preserved) bad seed. Child b: x joins the tainted
        // seed field, so B(2,2,4) is expected as B(1,2,4) — Figure 4.
        assert_eq!(children[0].tuple, tuple!("a", 1, 2));
        assert_eq!(children[1].tuple, tuple!("b", 1, 2, 4));
    }

    #[test]
    fn derivation_env_records_sources_and_formulas() {
        let (program, view) = good_view();
        let seed = view.seed();
        let bad = TupleRef::new("n1", tuple!("a", 1, 2));
        let mut taint = TaintState::new(&view, &program, seed, &bad).unwrap();
        let denv = taint.derivation_env(dp_provenance::TupleTree::ROOT).unwrap();
        // X was bound from atom 0 (a), field 0, and is tainted.
        let x = Sym::new("X");
        assert_eq!(denv.var_sources.get(&x), Some(&VarSource { atom: 0, field: 0 }));
        assert!(denv.var_formulas.contains_key(&x));
        // Z came from the untainted b tuple.
        let z = Sym::new("Z");
        assert_eq!(denv.var_sources.get(&z), Some(&VarSource { atom: 1, field: 2 }));
        assert!(!denv.var_formulas.contains_key(&z));
        // Good-run values are all recorded.
        assert_eq!(denv.good_env.get(&x), Some(&Value::Int(2)));
        assert_eq!(denv.good_env.get(&z), Some(&Value::Int(4)));
    }

    #[test]
    fn identical_seeds_taint_nothing() {
        let (program, view) = good_view();
        let seed = view.seed();
        let bad = TupleRef::new("n1", tuple!("a", 2, 2)); // identical
        let mut taint = TaintState::new(&view, &program, seed, &bad).unwrap();
        let expected = taint.expected_tuple(dp_provenance::TupleTree::ROOT).unwrap();
        assert_eq!(expected, tuple!("c", 2, 4, 5));
        assert!(taint.taints(seed).unwrap().iter().all(|f| !f.is_tainted()));
    }
}
