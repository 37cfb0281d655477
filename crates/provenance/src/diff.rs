//! Baseline diagnostics: the Y!-style whole-tree query and the naïve
//! "plain tree diff" strawman of Section 2.5.
//!
//! Both baselines exist so the evaluation (Table 1) can compare DiffProv
//! against what an operator gets today: either the full provenance tree of
//! the bad event (hundreds of vertexes), or a vertex-set diff of the good
//! and bad trees — which, due to the butterfly effect the paper describes,
//! is often *larger* than either tree.

use std::collections::BTreeMap;

use dp_types::{NodeId, Sym, Tuple};

use crate::graph::VertexKind;
use crate::tree::ProvTree;

/// The signature under which the plain diff compares vertexes: everything
/// except the timestamp. Masking timestamps is the minimal equivalence the
/// paper concedes to the strawman ("the trees will inevitably differ in
/// some details, such as timestamps") — without it, the diff would contain
/// every vertex of both trees.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct VertexSig {
    /// Vertex kind tag (EXIST, DERIVE, ...).
    pub tag: &'static str,
    /// Rule name for DERIVE/UNDERIVE vertexes.
    pub rule: Option<Sym>,
    /// Node the tuple lives on.
    pub node: NodeId,
    /// The tuple.
    pub tuple: Tuple,
}

fn signature(kind: &VertexKind, node: &NodeId, tuple: &Tuple) -> VertexSig {
    let rule = match kind {
        VertexKind::Derive { rule, .. } | VertexKind::Underive { rule } => Some(*rule),
        _ => None,
    };
    VertexSig {
        tag: kind.tag(),
        rule,
        node: *node,
        tuple: tuple.clone(),
    }
}

fn multiset(tree: &ProvTree) -> BTreeMap<VertexSig, usize> {
    let mut out = BTreeMap::new();
    for n in tree.nodes() {
        *out.entry(signature(&n.kind, &n.node, &n.tuple)).or_insert(0) += 1;
    }
    out
}

/// The result of a plain (naïve) tree diff.
#[derive(Clone, Debug, Default)]
pub struct PlainDiff {
    /// Vertexes (with multiplicity) only in the good tree.
    pub only_good: Vec<VertexSig>,
    /// Vertexes (with multiplicity) only in the bad tree.
    pub only_bad: Vec<VertexSig>,
}

impl PlainDiff {
    /// Total number of differing vertexes — the "Plain tree diff" row of
    /// Table 1.
    pub fn len(&self) -> usize {
        self.only_good.len() + self.only_bad.len()
    }

    /// True when the trees are identical modulo timestamps.
    pub fn is_empty(&self) -> bool {
        self.only_good.is_empty() && self.only_bad.is_empty()
    }
}

/// Computes the multiset symmetric difference of two trees' vertexes,
/// compared by [`VertexSig`] (i.e. ignoring timestamps only).
pub fn plain_tree_diff(good: &ProvTree, bad: &ProvTree) -> PlainDiff {
    let g = multiset(good);
    let b = multiset(bad);
    let mut out = PlainDiff::default();
    for (sig, &gc) in &g {
        let bc = b.get(sig).copied().unwrap_or(0);
        for _ in bc..gc {
            out.only_good.push(sig.clone());
        }
    }
    for (sig, &bc) in &b {
        let gc = g.get(sig).copied().unwrap_or(0);
        for _ in gc..bc {
            out.only_bad.push(sig.clone());
        }
    }
    out
}

/// The Y!-style baseline: a classical provenance query returns the whole
/// tree; its "answer size" is the number of vertexes the operator must
/// inspect. (Y! \[30\] supports negative provenance too; for the positive
/// queries in Table 1 the answer is the full tree.)
pub fn ybang_answer_size(tree: &ProvTree) -> usize {
    tree.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphRecorder;
    use crate::tree::extract_tree;
    use dp_ndlog::{Engine, Program};
    use dp_types::{tuple, FieldType, Schema, SchemaRegistry, TableKind, TupleRef};
    use std::sync::Arc;

    fn program() -> Arc<Program> {
        let mut reg = SchemaRegistry::new();
        reg.declare(Schema::new("in", TableKind::ImmutableBase, [("x", FieldType::Int)]));
        reg.declare(Schema::new("cfg", TableKind::MutableBase, [("k", FieldType::Int)]));
        reg.declare(Schema::new("out", TableKind::Derived, [("x", FieldType::Int)]));
        Program::builder(reg)
            .rules_text("r out(@N, Y) :- in(@N, X), cfg(@N, K), Y := X + K.")
            .unwrap()
            .build()
            .unwrap()
    }

    fn run(cfg: i64, input: i64) -> (ProvTree, i64) {
        let mut eng = Engine::new(program(), GraphRecorder::new());
        let n = dp_types::NodeId::new("n1");
        eng.schedule_insert(0, n, tuple!("cfg", cfg)).unwrap();
        eng.schedule_insert(5, n, tuple!("in", input)).unwrap();
        eng.run().unwrap();
        let now = eng.now();
        let g = eng.into_sink().finish();
        let out_val = input + cfg;
        let tree = extract_tree(&g, &TupleRef::new(n, tuple!("out", out_val)), now).unwrap();
        (tree, out_val)
    }

    #[test]
    fn identical_runs_diff_to_nothing() {
        let (a, _) = run(10, 1);
        let (b, _) = run(10, 1);
        let d = plain_tree_diff(&a, &b);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn config_change_shows_in_diff() {
        let (good, _) = run(10, 1);
        let (bad, _) = run(20, 1);
        let d = plain_tree_diff(&good, &bad);
        // cfg differs (3 vertexes each side) and the derived out differs
        // (EXIST/APPEAR/DERIVE each side): diff = 12, larger than the
        // 3 vertexes actually at fault — the butterfly effect in miniature.
        assert_eq!(d.len(), 12);
        assert!(d.only_good.iter().any(|s| s.tuple == tuple!("cfg", 10)));
        assert!(d.only_bad.iter().any(|s| s.tuple == tuple!("cfg", 20)));
    }

    #[test]
    fn diff_ignores_timestamps() {
        // Same logical content, different times.
        let mut eng = Engine::new(program(), GraphRecorder::new());
        let n = dp_types::NodeId::new("n1");
        eng.schedule_insert(1000, n, tuple!("cfg", 10)).unwrap();
        eng.schedule_insert(2000, n, tuple!("in", 1)).unwrap();
        eng.run().unwrap();
        let now = eng.now();
        let g = eng.into_sink().finish();
        let late = extract_tree(&g, &TupleRef::new(n, tuple!("out", 11)), now).unwrap();
        let (early, _) = run(10, 1);
        assert!(plain_tree_diff(&early, &late).is_empty());
    }

    #[test]
    fn ybang_answer_is_whole_tree() {
        let (tree, _) = run(10, 1);
        assert_eq!(ybang_answer_size(&tree), tree.len());
        assert_eq!(tree.len(), 9); // out(3) + in(3) + cfg(3)
    }
}
