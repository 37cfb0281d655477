//! Provenance *trees*: the projection of the graph rooted at one event.
//!
//! "To find the provenance of a specific event e, we can simply locate e's
//! vertex in the graph and then project out the tree that is rooted at that
//! vertex" (Section 2.1). Because the projection duplicates shared
//! subtrees, tree vertex counts (the numbers reported in Table 1) exceed
//! the number of distinct tuples involved.

use std::sync::Arc;

use dp_types::{LogicalTime, NodeId, Sym, Tuple, TupleRef};

use crate::graph::{ProvGraph, VertexId, VertexKind};

/// Index of a node within a [`ProvTree`].
pub type TreeIdx = usize;

/// One vertex of an extracted provenance tree.
#[derive(Clone, Debug)]
pub struct TreeNode {
    /// The vertex kind (same taxonomy as the graph).
    pub kind: VertexKind,
    /// Node the tuple lives on.
    pub node: NodeId,
    /// The tuple (shared with the source graph's vertices).
    pub tuple: Arc<Tuple>,
    /// Event time / interval start.
    pub time: LogicalTime,
    /// Parent in the tree (`None` for the root).
    pub parent: Option<TreeIdx>,
    /// Children (direct causes).
    pub children: Vec<TreeIdx>,
    /// The graph vertex this tree node was projected from.
    pub origin: VertexId,
}

/// A provenance tree with the queried event at index 0.
#[derive(Clone, Debug)]
pub struct ProvTree {
    nodes: Vec<TreeNode>,
}

impl ProvTree {
    /// The root index (always 0).
    pub const ROOT: TreeIdx = 0;

    /// All nodes; index with [`TreeIdx`].
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// A node by index.
    pub fn node(&self, idx: TreeIdx) -> &TreeNode {
        &self.nodes[idx]
    }

    /// The root node.
    pub fn root(&self) -> &TreeNode {
        &self.nodes[Self::ROOT]
    }

    /// Number of vertexes in the tree — the metric of Table 1.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for a tree with no nodes (never produced by extraction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Leaves of the tree (base events and configuration state).
    pub fn leaves(&self) -> impl Iterator<Item = (TreeIdx, &TreeNode)> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.children.is_empty())
    }

    /// Pretty-prints the tree, one vertex per line, indented by depth.
    /// Intended for operator inspection and debugging.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(Self::ROOT, 0, &mut out);
        out
    }

    fn render_into(&self, idx: TreeIdx, depth: usize, out: &mut String) {
        let n = &self.nodes[idx];
        for _ in 0..depth {
            out.push_str("  ");
        }
        let label = match &n.kind {
            VertexKind::Derive { rule, .. } => format!("DERIVE[{rule}]"),
            VertexKind::Underive { rule } => format!("UNDERIVE[{rule}]"),
            other => other.tag().to_string(),
        };
        out.push_str(&format!("{label} {}@{} t={}\n", n.tuple, n.node, n.time));
        for &c in &n.children {
            self.render_into(c, depth + 1, out);
        }
    }
}

/// Extracts the provenance tree of `root` as of time `at`.
///
/// Returns `None` when the tuple has no episode covering `at`. Extraction
/// is purely a read of the graph; it materializes the tree by walking
/// EXIST → APPEAR → (INSERT | DERIVE) → body EXISTs recursively. Each
/// DERIVE's children are resolved against the episodes that were open at
/// the derivation time, which is what makes extraction *temporal*: asking
/// about a past event walks the past state.
///
/// The episode is found with [`ProvGraph::episode_at`]'s linear scan; a
/// caller that knows when the episode opened uses [`extract_tree_since`].
pub fn extract_tree(graph: &ProvGraph, root: &TupleRef, at: LogicalTime) -> Option<ProvTree> {
    Some(tree_under(graph, graph.episode_at(root, at)?.exist))
}

/// Extracts the provenance tree of the episode of `root` that opened at
/// `since` — the keyed form of [`extract_tree`]: no search, the graph's
/// index leads to the episode. For a live tuple `since` is the
/// `appeared_at` the engine's table holds.
pub fn extract_tree_since(graph: &ProvGraph, root: &TupleRef, since: LogicalTime) -> Option<ProvTree> {
    Some(tree_under(graph, graph.exist_since(root, since)?))
}

/// Like [`extract_tree`], but accepts tuples that have since disappeared:
/// uses the last episode starting at or before `at` (needed when the
/// reference event lies in the past, as in scenario SDN3).
pub fn extract_tree_latest(graph: &ProvGraph, root: &TupleRef, at: LogicalTime) -> Option<ProvTree> {
    Some(tree_under(graph, graph.last_episode_starting_by(root, at)?.exist))
}

/// The projection of `graph` rooted at `vertex`.
fn tree_under(graph: &ProvGraph, vertex: VertexId) -> ProvTree {
    let mut tree = ProvTree { nodes: Vec::new() };
    project(graph, vertex, None, &mut tree);
    tree
}

fn project(graph: &ProvGraph, vertex: VertexId, parent: Option<TreeIdx>, tree: &mut ProvTree) -> TreeIdx {
    let v = graph.vertex(vertex);
    let idx = tree.nodes.len();
    tree.nodes.push(TreeNode {
        kind: v.kind,
        node: *v.node,
        tuple: Arc::clone(v.tuple),
        time: v.time,
        parent,
        children: Vec::with_capacity(v.children.len()),
        origin: vertex,
    });
    // The slice borrows the graph's child arena, not the tree.
    for &c in v.children {
        let child_idx = project(graph, c, Some(idx), tree);
        tree.nodes[idx].children.push(child_idx);
    }
    idx
}

/// A tuple-granularity view of a provenance tree.
///
/// DiffProv's algorithm (Section 4) reasons about *tuples* and the rules
/// connecting them; the EXIST/APPEAR/DERIVE bookkeeping chain is collapsed
/// into one [`TupleNode`] per tuple occurrence.
#[derive(Clone, Debug)]
pub struct TupleTree {
    nodes: Vec<TupleNode>,
}

/// One tuple occurrence in a [`TupleTree`].
#[derive(Clone, Debug)]
pub struct TupleNode {
    /// The located tuple.
    pub tref: TupleRef,
    /// When this occurrence appeared.
    pub appear_time: LogicalTime,
    /// The rule that derived it, or `None` for a base tuple.
    pub rule: Option<Sym>,
    /// For derived tuples, the index (within `children`) of the body tuple
    /// whose appearance triggered the derivation.
    pub trigger: Option<usize>,
    /// Parent occurrence.
    pub parent: Option<TreeIdx>,
    /// Child occurrences (the body tuples of the derivation).
    pub children: Vec<TreeIdx>,
}

impl TupleTree {
    /// The root index (always 0).
    pub const ROOT: TreeIdx = 0;

    /// All nodes.
    pub fn nodes(&self) -> &[TupleNode] {
        &self.nodes
    }

    /// A node by index.
    pub fn node(&self, idx: TreeIdx) -> &TupleNode {
        &self.nodes[idx]
    }

    /// The root node.
    pub fn root(&self) -> &TupleNode {
        &self.nodes[Self::ROOT]
    }

    /// Number of tuple occurrences.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always false for extracted views.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Follows the trigger chain from the root down to the seed leaf —
    /// the paper's FINDSEED (Section 4.2): at every derived tuple, descend
    /// into the child that appeared last (the trigger); stop at a base
    /// tuple (an INSERT leaf).
    pub fn seed(&self) -> TreeIdx {
        let mut idx = Self::ROOT;
        loop {
            let n = &self.nodes[idx];
            match n.trigger {
                Some(t) if !n.children.is_empty() => {
                    idx = n.children[t.min(n.children.len() - 1)];
                }
                _ => return idx,
            }
        }
    }

    /// The chain of indexes from the seed back up to the root, inclusive.
    pub fn trigger_chain(&self) -> Vec<TreeIdx> {
        let mut at = self.seed();
        let mut chain = vec![at];
        while let Some(p) = self.nodes[at].parent {
            chain.push(p);
            at = p;
        }
        chain
    }
}

/// Collapses a [`ProvTree`] into its tuple-granularity view.
pub fn tuple_view(tree: &ProvTree) -> TupleTree {
    let mut out = TupleTree { nodes: Vec::new() };
    collapse(tree, ProvTree::ROOT, None, &mut out);
    out
}

fn collapse(tree: &ProvTree, exist_idx: TreeIdx, parent: Option<TreeIdx>, out: &mut TupleTree) -> TreeIdx {
    // exist_idx points at an EXIST vertex; its child is the APPEAR, whose
    // child is the INSERT or DERIVE.
    let exist = tree.node(exist_idx);
    let appear_idx = exist.children.first().copied();
    let (appear_time, cause_idx) = match appear_idx {
        Some(a) => {
            let appear = tree.node(a);
            (appear.time, appear.children.first().copied())
        }
        None => (exist.time, None),
    };
    let (rule, trigger, body) = match cause_idx.map(|c| tree.node(c)) {
        Some(cause) => match &cause.kind {
            VertexKind::Derive { rule, trigger } => {
                (Some(*rule), Some(*trigger), cause.children.clone())
            }
            _ => (None, None, Vec::new()),
        },
        None => (None, None, Vec::new()),
    };
    let idx = out.nodes.len();
    out.nodes.push(TupleNode {
        tref: TupleRef::new(exist.node, exist.tuple.clone()),
        appear_time,
        rule,
        trigger,
        parent,
        children: Vec::new(),
    });
    for b in body {
        let child = collapse(tree, b, Some(idx), out);
        out.nodes[idx].children.push(child);
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphRecorder;
    use dp_ndlog::{Engine, Program};
    use dp_types::{tuple, FieldType, Schema, SchemaRegistry, TableKind};
    use std::sync::Arc;

    /// A two-hop chain: base -> mid -> top, plus a config dependency.
    fn chain_program() -> Arc<Program> {
        let mut reg = SchemaRegistry::new();
        reg.declare(Schema::new("base", TableKind::ImmutableBase, [("x", FieldType::Int)]));
        reg.declare(Schema::new("cfg", TableKind::MutableBase, [("k", FieldType::Int)]));
        reg.declare(Schema::new("mid", TableKind::Derived, [("x", FieldType::Int)]));
        reg.declare(Schema::new("top", TableKind::Derived, [("x", FieldType::Int)]));
        Program::builder(reg)
            .rules_text(
                "r1 mid(@N, X1) :- base(@N, X), cfg(@N, K), X1 := X + K.\n\
                 r2 top(@N, X2) :- mid(@N, X), X2 := X * 2.",
            )
            .unwrap()
            .build()
            .unwrap()
    }

    fn run_chain() -> (ProvGraph, NodeId, LogicalTime) {
        let mut eng = Engine::new(chain_program(), GraphRecorder::new());
        let n = NodeId::new("n1");
        eng.schedule_insert(0, n, tuple!("cfg", 10)).unwrap();
        eng.schedule_insert(5, n, tuple!("base", 1)).unwrap();
        eng.run().unwrap();
        let now = eng.now();
        (eng.into_sink().finish(), n, now)
    }

    #[test]
    fn extraction_projects_full_chain() {
        let (g, n, now) = run_chain();
        let top = TupleRef::new(n, tuple!("top", 22));
        let tree = extract_tree(&g, &top, now).expect("top exists");
        // top: EXIST+APPEAR+DERIVE, mid: EXIST+APPEAR+DERIVE,
        // base: EXIST+APPEAR+INSERT, cfg: EXIST+APPEAR+INSERT = 12 vertexes.
        assert_eq!(tree.len(), 12);
        assert_eq!(tree.root().tuple, tuple!("top", 22));
        let rendered = tree.render();
        assert!(rendered.contains("DERIVE[r2]"), "{rendered}");
        assert!(rendered.contains("INSERT cfg(10)"), "{rendered}");
    }

    #[test]
    fn extraction_respects_time() {
        let (g, n, _) = run_chain();
        let top = TupleRef::new(n, tuple!("top", 22));
        assert!(extract_tree(&g, &top, 0).is_none());
    }

    #[test]
    fn missing_tuple_yields_none() {
        let (g, n, now) = run_chain();
        let nope = TupleRef::new(n, tuple!("top", 99));
        assert!(extract_tree(&g, &nope, now).is_none());
    }

    #[test]
    fn tuple_view_collapses_chains() {
        let (g, n, now) = run_chain();
        let top = TupleRef::new(n, tuple!("top", 22));
        let tree = extract_tree(&g, &top, now).unwrap();
        let view = tuple_view(&tree);
        assert_eq!(view.len(), 4); // top, mid, base, cfg
        assert_eq!(view.root().tref.tuple, tuple!("top", 22));
        assert_eq!(view.root().rule, Some(dp_types::Sym::new("r2")));
        let mid = view.node(view.root().children[0]);
        assert_eq!(mid.tref.tuple, tuple!("mid", 11));
        assert_eq!(mid.children.len(), 2);
    }

    #[test]
    fn seed_follows_trigger_chain_to_stimulus() {
        // cfg was inserted first, base last; the seed must be base — the
        // external stimulus — not the config tuple.
        let (g, n, now) = run_chain();
        let top = TupleRef::new(n, tuple!("top", 22));
        let tree = extract_tree(&g, &top, now).unwrap();
        let view = tuple_view(&tree);
        let seed = view.node(view.seed());
        assert_eq!(seed.tref.tuple, tuple!("base", 1));
        let chain = view.trigger_chain();
        assert_eq!(chain.len(), 3); // base -> mid -> top
        assert_eq!(view.node(*chain.last().unwrap()).tref.tuple, tuple!("top", 22));
    }

    #[test]
    fn past_reference_extraction_after_deletion() {
        let mut eng = Engine::new(chain_program(), GraphRecorder::new());
        let n = NodeId::new("n1");
        eng.schedule_insert(0, n, tuple!("cfg", 10)).unwrap();
        eng.schedule_insert(5, n, tuple!("base", 1)).unwrap();
        eng.run().unwrap();
        let t_good = eng.now();
        eng.schedule_delete(t_good + 10, n, tuple!("cfg", 10)).unwrap();
        eng.run().unwrap();
        let t_after = eng.now();
        let g = eng.into_sink().finish();
        let top = TupleRef::new(n, tuple!("top", 22));
        // Gone now...
        assert!(extract_tree(&g, &top, t_after).is_none());
        // ...but the temporal graph still answers queries about the past.
        let tree = extract_tree_latest(&g, &top, t_after).expect("past episode");
        assert_eq!(tree.root().tuple, tuple!("top", 22));
        assert_eq!(tree.len(), 12);
    }
}
