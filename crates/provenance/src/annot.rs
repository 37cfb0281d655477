//! Compact annotation-based provenance with on-demand reconstruction.
//!
//! The append-only [`ProvGraph`](crate::graph::ProvGraph) materializes every
//! INSERT/DERIVE/APPEAR/... vertex as it streams past, which makes tree
//! extraction a pure read but costs roughly seven retained vertices per
//! tuple lifetime. Following "Provenance for Large-scale Datalog"
//! (Zhao/Subotić/Scholz), this module keeps only a small per-episode
//! *annotation* — start, end, minimal proof height, and the identity of the
//! winning rule firing — and rebuilds a minimal proof tree lazily at query
//! time by re-running the rule body as a top-down, height-bounded search
//! over the annotated database.
//!
//! # Why the reconstruction is exact
//!
//! The engine records, for every non-redundant derivation, the triggering
//! body slot and the firing horizon `fired_at` (the trigger's appearance
//! clock). Three facts make the search land on the byte-identical tree the
//! graph backend would extract:
//!
//! 1. *Visibility is an episode predicate.* A body tuple participated in
//!    the join iff it has an episode covering `fired_at` (deletions force a
//!    batch flush, so state only grows between a delta's appearance and its
//!    firing), and it survived to the apply step iff it has an episode
//!    covering the head episode's start.
//! 2. *The trigger is pinned.* Engine clocks are unique per queue pop, so
//!    at most one tuple in the whole system has an episode starting exactly
//!    at `fired_at` — the recorded trigger.
//! 3. *Ties break lexicographically.* All matches of one firing are
//!    scheduled adjacently in lexicographic body order and pop with nothing
//!    in between, so the minimal body vector among candidates passing the
//!    filters above is exactly the one whose derivation opened the episode.
//!
//! Rules whose firings cannot be re-run from annotations alone — native
//! rules, aggregations, and rules with stateful builtin constraints — fall
//! back to the paper's "report" capture mode: the annotation stores the
//! body explicitly (still far smaller than the full graph).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use dp_ndlog::{BodyRef, Constraint, Env, Expr, Program, ProvEvent, ProvenanceSink, Rule};
use dp_types::{Error, LogicalTime, NodeId, Sym, Tuple, TupleRef, TupleStore, Value};

use crate::graph::{VertexId, VertexKind};
use crate::tree::{ProvTree, TreeIdx, TreeNode};

/// How an episode came to exist — the compact counterpart of the graph's
/// INSERT/DERIVE cause vertex.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CauseAnn {
    /// Base insertion (or a boundary episode synthesized when recording
    /// started mid-stream).
    Base,
    /// A declarative rule firing, identified by the minimal information
    /// the reconstructor needs: the rule, the triggering body slot, and
    /// the firing horizon. The body is recomputed at query time.
    Fired {
        /// The rule that fired.
        rule: Sym,
        /// Index of the triggering atom in the rule body.
        trigger: usize,
        /// The trigger's appearance clock — the join's `as_of` horizon.
        fired_at: LogicalTime,
    },
    /// A firing whose body cannot be re-derived from annotations (native
    /// rules, aggregations, stateful builtin constraints): the body is
    /// stored explicitly, mirroring the paper's "report" capture mode.
    Reported {
        /// The rule that fired.
        rule: Sym,
        /// Index of the triggering body tuple.
        trigger: usize,
        /// The body tuples, in reported order (as the stream delivered
        /// them; reconstruction reads the located tuples only).
        body: Vec<BodyRef>,
    },
}

/// One annotated tuple lifetime: the compact counterpart of
/// [`Episode`](crate::graph::Episode).
#[derive(Clone, Debug)]
pub struct EpisodeAnn {
    /// Episode start (the APPEAR clock).
    pub start: LogicalTime,
    /// Episode end (exclusive), once the tuple disappeared.
    pub end: Option<LogicalTime>,
    /// Minimal proof-tree height: 0 for base tuples, otherwise one more
    /// than the maximum height of the winning derivation's body episodes.
    pub height: u32,
    /// What opened the episode.
    pub cause: CauseAnn,
}

impl EpisodeAnn {
    /// True if the episode covers time `t`.
    pub fn covers(&self, t: LogicalTime) -> bool {
        self.start <= t && self.end.is_none_or(|e| t < e)
    }
}

/// Size profile of an [`AnnotationStore`] — the numbers the bench legs
/// compare against [`GraphStats`](crate::graph::GraphStats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnnotStats {
    /// Episode annotations retained.
    pub episodes: u64,
    /// Episodes carrying an explicitly reported body.
    pub reported: u64,
    /// Body references inside reported episodes.
    pub reported_body_refs: u64,
    /// Distinct annotated tuples (slot count).
    pub tuples: u64,
}

impl AnnotStats {
    /// Total retained records: one per episode plus one per reported body
    /// reference — the honest memory unit to compare with the graph's
    /// vertex count.
    pub fn total(&self) -> u64 {
        self.episodes + self.reported_body_refs
    }
}

impl fmt::Display for AnnotStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} records ({} episodes over {} tuples, {} reported with {} body refs)",
            self.total(),
            self.episodes,
            self.tuples,
            self.reported,
            self.reported_body_refs
        )
    }
}

/// The compact annotation backend: per-episode annotations keyed by dense
/// tuple slots, plus the per-(node, table) index the reconstructor scans.
#[derive(Clone)]
pub struct AnnotationStore {
    program: Arc<Program>,
    store: TupleStore,
    /// All episodes of each located tuple, in start order (slot-keyed).
    episodes: HashMap<(NodeId, u32), Vec<EpisodeAnn>>,
    /// Every tuple ever seen per (node, table), in tuple order — the scan
    /// index for top-down reconstruction. `BTreeSet` keeps enumeration
    /// deterministic, mirroring the engine's ordered table scans.
    tables: BTreeMap<(NodeId, Sym), BTreeSet<Arc<Tuple>>>,
    /// Nodes seen anywhere in the stream.
    nodes: BTreeSet<NodeId>,
    /// Height + cause staged between an INSERT/DERIVE event and the APPEAR
    /// that immediately follows it in the stream.
    pending: HashMap<(NodeId, u32), (u32, CauseAnn)>,
}

impl AnnotationStore {
    /// An empty store for `program`'s event streams.
    pub fn new(program: Arc<Program>) -> Self {
        AnnotationStore {
            program,
            store: TupleStore::new(),
            episodes: HashMap::new(),
            tables: BTreeMap::new(),
            nodes: BTreeSet::new(),
            pending: HashMap::new(),
        }
    }

    /// The program whose streams this store annotates.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The episodes of a located tuple, in chronological order.
    pub fn episodes(&self, tref: &TupleRef) -> &[EpisodeAnn] {
        self.store
            .slot_of(&tref.tuple)
            .and_then(|slot| self.episodes.get(&(tref.node.clone(), slot)))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The episode of `tref` covering time `t`, if any.
    pub fn episode_at(&self, tref: &TupleRef, t: LogicalTime) -> Option<&EpisodeAnn> {
        self.episodes(tref).iter().rev().find(|e| e.covers(t))
    }

    /// The most recent episode of `tref` that started no later than `t`.
    pub fn last_episode_starting_by(&self, tref: &TupleRef, t: LogicalTime) -> Option<&EpisodeAnn> {
        self.episodes(tref).iter().rev().find(|e| e.start <= t)
    }

    /// Size profile of the store.
    pub fn stats(&self) -> AnnotStats {
        let mut s = AnnotStats {
            tuples: self.store.slot_count() as u64,
            ..AnnotStats::default()
        };
        for eps in self.episodes.values() {
            for ep in eps {
                s.episodes += 1;
                if let CauseAnn::Reported { body, .. } = &ep.cause {
                    s.reported += 1;
                    s.reported_body_refs += body.len() as u64;
                }
            }
        }
        s
    }

    fn key(&mut self, node: &NodeId, tuple: &Arc<Tuple>) -> (NodeId, u32) {
        let slot = self.store.slot(Arc::clone(tuple));
        (node.clone(), slot)
    }

    fn index(&mut self, node: &NodeId, tuple: &Arc<Tuple>) {
        self.nodes.insert(node.clone());
        self.tables
            .entry((node.clone(), tuple.table.clone()))
            .or_default()
            .insert(Arc::clone(tuple));
    }

    fn open_episode(&self, key: &(NodeId, u32)) -> Option<&EpisodeAnn> {
        let ep = self.episodes.get(key)?.last()?;
        if ep.end.is_none() {
            Some(ep)
        } else {
            None
        }
    }

    /// The height of the open episode of `tref`, synthesizing a boundary
    /// episode (open since time 0, height 0) for tuples that predate the
    /// start of recording — the mirror of the graph's
    /// `synthesize_boundary_episode`.
    fn open_height_or_boundary(&mut self, tref: &TupleRef) -> u32 {
        let key = self.key(&tref.node, &tref.tuple);
        if let Some(ep) = self.open_episode(&key) {
            return ep.height;
        }
        self.index(&tref.node, &tref.tuple);
        self.episodes.entry(key).or_default().push(EpisodeAnn {
            start: 0,
            end: None,
            height: 0,
            cause: CauseAnn::Base,
        });
        0
    }

    /// True when `rule` must be captured in report mode: its body cannot
    /// be recomputed from episode annotations alone.
    fn must_report(&self, rule: &Sym) -> bool {
        match self.program.rule(rule) {
            // Not a declarative rule: a native rule reporting its
            // dependencies through the instrumentation hook.
            None => true,
            Some(r) => {
                r.agg.is_some()
                    || r.constraints
                        .iter()
                        .any(|c| matches!(c, Constraint::Builtin { .. }))
            }
        }
    }

    /// Folds one event into the store. Negative events (DELETE/UNDERIVE)
    /// are dropped entirely — they never occur in extracted trees — and
    /// DISAPPEAR only closes the open episode.
    pub fn record_event(&mut self, event: ProvEvent) {
        match event {
            ProvEvent::InsertBase { node, tuple, .. } => {
                let key = self.key(&node, &tuple);
                if self.open_episode(&key).is_some() {
                    // Base re-inserted while alive: extra support, which
                    // extraction never walks.
                    return;
                }
                self.index(&node, &tuple);
                self.pending.insert(key, (0, CauseAnn::Base));
            }
            ProvEvent::Derive {
                node,
                tuple,
                rule,
                fired_at,
                body,
                trigger,
                time,
                since,
            } => {
                if since < time {
                    // Extra support for an episode that is already open.
                    return;
                }
                let mut height = 0u32;
                for b in &body {
                    height = height.max(self.open_height_or_boundary(&b.tref) + 1);
                }
                let cause = if self.must_report(&rule) {
                    CauseAnn::Reported {
                        rule,
                        trigger,
                        body,
                    }
                } else {
                    CauseAnn::Fired {
                        rule,
                        trigger,
                        fired_at,
                    }
                };
                let key = self.key(&node, &tuple);
                self.index(&node, &tuple);
                self.pending.insert(key, (height, cause));
            }
            ProvEvent::Appear { time, node, tuple } => {
                let key = self.key(&node, &tuple);
                self.index(&node, &tuple);
                // An APPEAR without a staged cause means recording started
                // mid-stream; treat it as a base fact, like the graph's
                // synthesized INSERT.
                let (height, cause) = self
                    .pending
                    .remove(&key)
                    .unwrap_or((0, CauseAnn::Base));
                self.episodes.entry(key).or_default().push(EpisodeAnn {
                    start: time,
                    end: None,
                    height,
                    cause,
                });
            }
            ProvEvent::Disappear { time, node, tuple, .. } => {
                let key = self.key(&node, &tuple);
                if let Some(ep) = self.episodes.get_mut(&key).and_then(|v| v.last_mut()) {
                    if ep.end.is_none() {
                        ep.end = Some(time);
                    }
                }
            }
            ProvEvent::DeleteBase { .. } | ProvEvent::Underive { .. } => {}
        }
    }
}

/// Reconstructs the provenance tree of `root` as of time `at`, rebuilding
/// what [`extract_tree`](crate::tree::extract_tree) would have read off a
/// full graph. Returns `None` when the tuple has no episode covering `at`.
///
/// # Panics
///
/// Panics if an annotated derivation cannot be re-derived from the store —
/// that indicates a corrupted or mismatched store (wrong program, spliced
/// streams), not a query error.
pub fn reconstruct_tree(store: &AnnotationStore, root: &TupleRef, at: LogicalTime) -> Option<ProvTree> {
    let episode = store.episode_at(root, at)?;
    let mut tree = ProvTree::empty();
    build_exist(store, root, episode, None, &mut tree);
    Some(tree)
}

/// Like [`reconstruct_tree`], but accepts tuples that have since
/// disappeared: uses the last episode starting at or before `at`.
pub fn reconstruct_tree_latest(
    store: &AnnotationStore,
    root: &TupleRef,
    at: LogicalTime,
) -> Option<ProvTree> {
    let episode = store.last_episode_starting_by(root, at)?;
    let mut tree = ProvTree::empty();
    build_exist(store, root, episode, None, &mut tree);
    Some(tree)
}

fn push_node(
    tree: &mut ProvTree,
    kind: VertexKind,
    tref: &TupleRef,
    time: LogicalTime,
    parent: Option<TreeIdx>,
) -> TreeIdx {
    let idx = tree.nodes_mut().len();
    tree.nodes_mut().push(TreeNode {
        kind,
        node: tref.node.clone(),
        tuple: Arc::clone(&tref.tuple),
        time,
        parent,
        children: Vec::new(),
        // Reconstructed trees have no source graph; the tree index itself
        // serves as the origin, which keeps origins unique per tree.
        origin: idx as VertexId,
    });
    if let Some(p) = parent {
        tree.nodes_mut()[p].children.push(idx);
    }
    idx
}

/// Renders one episode as its EXIST → APPEAR → cause chain, recursing into
/// the body episodes of derivations. `ep.start` plays the role the record
/// time played during graph construction: body children are the episodes
/// covering it.
fn build_exist(
    store: &AnnotationStore,
    tref: &TupleRef,
    ep: &EpisodeAnn,
    parent: Option<TreeIdx>,
    tree: &mut ProvTree,
) -> TreeIdx {
    let exist = push_node(tree, VertexKind::Exist { end: ep.end }, tref, ep.start, parent);
    let appear = push_node(tree, VertexKind::Appear, tref, ep.start, Some(exist));
    match &ep.cause {
        CauseAnn::Base => {
            push_node(tree, VertexKind::Insert, tref, ep.start, Some(appear));
        }
        CauseAnn::Reported { rule, trigger, body } => {
            let derive = push_node(
                tree,
                VertexKind::Derive {
                    rule: rule.clone(),
                    trigger: *trigger,
                },
                tref,
                ep.start,
                Some(appear),
            );
            for b in body {
                let child = body_episode(store, &b.tref, ep.start, tref, rule);
                build_exist(store, &b.tref, child, Some(derive), tree);
            }
        }
        CauseAnn::Fired {
            rule,
            trigger,
            fired_at,
        } => {
            let (firing_node, body) = solve_firing(store, tref, ep, rule, *trigger, *fired_at)
                .unwrap_or_else(|| {
                    panic!(
                        "annotation reconstruction failed: no candidate body for {tref} \
                         via rule {rule} (trigger slot {trigger}, fired_at {fired_at})"
                    )
                });
            let derive = push_node(
                tree,
                VertexKind::Derive {
                    rule: rule.clone(),
                    trigger: *trigger,
                },
                tref,
                ep.start,
                Some(appear),
            );
            for tuple in body {
                let b = TupleRef::new(firing_node.clone(), tuple);
                let child = body_episode(store, &b, ep.start, tref, rule);
                build_exist(store, &b, child, Some(derive), tree);
            }
        }
    }
    exist
}

fn body_episode<'a>(
    store: &'a AnnotationStore,
    b: &TupleRef,
    at: LogicalTime,
    head: &TupleRef,
    rule: &Sym,
) -> &'a EpisodeAnn {
    store.episode_at(b, at).unwrap_or_else(|| {
        panic!("annotation store lost body episode of {b} at {at} (head {head}, rule {rule})")
    })
}

/// Re-runs the recorded firing: finds the body vector the engine joined
/// when it opened `ep`. Returns the firing node and the body tuples in
/// rule-body order, or `None` if no candidate passes every filter.
fn solve_firing(
    store: &AnnotationStore,
    head: &TupleRef,
    ep: &EpisodeAnn,
    rule_name: &Sym,
    trigger: usize,
    fired_at: LogicalTime,
) -> Option<(NodeId, Vec<Arc<Tuple>>)> {
    let rule = store
        .program
        .rule(rule_name)
        .expect("Fired annotations only name declarative rules");
    let env = prebind_from_head(rule, head)?;

    // The trigger is pinned: its episode starts exactly at `fired_at`.
    // Engine clocks are unique per pop, so this identifies one tuple (and
    // with it the firing node); the scan below merely avoids assuming so.
    let trig_atom = &rule.body[trigger];
    let candidate_nodes: Vec<NodeId> = match env.get(&trig_atom.loc) {
        Some(Value::Str(s)) => vec![NodeId(s.clone())],
        _ => store.nodes.iter().cloned().collect(),
    };

    let mut best: Option<(NodeId, Vec<Arc<Tuple>>)> = None;
    for node in candidate_nodes {
        let Some(table) = store.tables.get(&(node.clone(), trig_atom.table.clone())) else {
            continue;
        };
        for tuple in table {
            let t = TupleRef::new(node.clone(), Arc::clone(tuple));
            if !store.episodes(&t).iter().any(|e| e.start == fired_at) {
                continue;
            }
            let mut env = env.clone();
            match env.get(&trig_atom.loc) {
                Some(v) => {
                    if *v != Value::Str(node.0.clone()) {
                        continue;
                    }
                }
                None => {
                    env.insert(trig_atom.loc.clone(), Value::Str(node.0.clone()));
                }
            }
            if tuple.arity() != trig_atom.args.len() {
                continue;
            }
            let mut ok = true;
            for (pat, val) in trig_atom.args.iter().zip(&tuple.args) {
                if !pat.matches(val, &mut env) {
                    ok = false;
                    break;
                }
            }
            if !ok {
                continue;
            }
            let mut body: Vec<Option<Arc<Tuple>>> = vec![None; rule.body.len()];
            body[trigger] = Some(Arc::clone(tuple));
            search_body(
                store, head, ep, rule, trigger, fired_at, &node, env, &mut body, 0, &mut best,
            );
        }
    }
    best
}

/// Binds what the recorded head pins down: the head location variable and
/// any head argument that is a bare, non-assigned variable. This only
/// prunes candidates that would fail the head-equality filter anyway, but
/// it shrinks the search space dramatically (the paper's "guided" top-down
/// search). Returns `None` on contradictory bindings, which cannot happen
/// for a genuinely recorded derivation.
fn prebind_from_head(rule: &Rule, head: &TupleRef) -> Option<Env> {
    let assigned: BTreeSet<&Sym> = rule.assigns.iter().map(|a| &a.var).collect();
    let mut env = Env::new();
    if let Expr::Var(v) = &rule.head.loc {
        if !assigned.contains(v) {
            env.insert(v.clone(), Value::Str(head.node.0.clone()));
        }
    }
    for (expr, val) in rule.head.args.iter().zip(&head.tuple.args) {
        if let Expr::Var(v) = expr {
            if assigned.contains(v) {
                continue;
            }
            match env.get(v) {
                Some(bound) if bound != val => return None,
                Some(_) => {}
                None => {
                    env.insert(v.clone(), val.clone());
                }
            }
        }
    }
    Some(env)
}

/// Depth-first assignment of the remaining body atoms, in body order,
/// keeping the lexicographically least complete body that passes every
/// filter — the engine's own tie-break (matches are scheduled and applied
/// in lexicographic body order).
#[allow(clippy::too_many_arguments)]
fn search_body(
    store: &AnnotationStore,
    head: &TupleRef,
    ep: &EpisodeAnn,
    rule: &Rule,
    trigger: usize,
    fired_at: LogicalTime,
    node: &NodeId,
    env: Env,
    body: &mut Vec<Option<Arc<Tuple>>>,
    atom_idx: usize,
    best: &mut Option<(NodeId, Vec<Arc<Tuple>>)>,
) {
    if atom_idx == rule.body.len() {
        let vec: Vec<Arc<Tuple>> = body
            .iter()
            .map(|s| Arc::clone(s.as_ref().expect("all body slots filled")))
            .collect();
        if let Some((bn, bv)) = best {
            if (&*bn, &*bv) <= (node, &vec) {
                return;
            }
        }
        if candidate_passes(store, head, ep, rule, fired_at, node, &env, &vec) {
            *best = Some((node.clone(), vec));
        }
        return;
    }
    if atom_idx == trigger {
        search_body(
            store, head, ep, rule, trigger, fired_at, node, env, body, atom_idx + 1, best,
        );
        return;
    }
    let atom = &rule.body[atom_idx];
    // Non-trigger atoms of a localized rule join against the firing node's
    // own state; their location variable stays unbound in the engine too.
    let Some(table) = store.tables.get(&(node.clone(), atom.table.clone())) else {
        return;
    };
    let skip_trigger = if atom_idx < trigger && atom.table == rule.body[trigger].table {
        body[trigger].clone()
    } else {
        None
    };
    for candidate in table {
        if skip_trigger.as_deref().is_some_and(|t| **candidate == *t) {
            continue;
        }
        let b = TupleRef::new(node.clone(), Arc::clone(candidate));
        // Visible to the join, still alive at the apply step, and small
        // enough to sit under the recorded minimal height.
        if store.episode_at(&b, fired_at).is_none() {
            continue;
        }
        match store.episode_at(&b, ep.start) {
            Some(e) if e.height < ep.height => {}
            _ => continue,
        }
        if candidate.arity() != atom.args.len() {
            continue;
        }
        let mut env2 = env.clone();
        let mut ok = true;
        for (pat, val) in atom.args.iter().zip(&candidate.args) {
            if !pat.matches(val, &mut env2) {
                ok = false;
                break;
            }
        }
        if !ok {
            continue;
        }
        body[atom_idx] = Some(Arc::clone(candidate));
        search_body(
            store, head, ep, rule, trigger, fired_at, node, env2, body, atom_idx + 1, best,
        );
        body[atom_idx] = None;
    }
}

/// The full filter battery a complete candidate must pass to have been
/// the recorded firing: assignments run, constraints hold, the head comes
/// out identical, the delivery delay fits inside the episode start, and
/// the stored minimal height is exactly reproduced.
#[allow(clippy::too_many_arguments)]
fn candidate_passes(
    store: &AnnotationStore,
    head: &TupleRef,
    ep: &EpisodeAnn,
    rule: &Rule,
    fired_at: LogicalTime,
    node: &NodeId,
    env: &Env,
    body: &[Arc<Tuple>],
) -> bool {
    let mut env = env.clone();
    if let Err(e) = rule.run_assigns(&mut env) {
        // Arithmetic failure suppresses the firing, exactly as in the
        // engine; any other error could not have produced a record.
        debug_assert!(matches!(e, Error::Arith(_)), "non-arith assign error: {e}");
        return false;
    }
    for c in &rule.constraints {
        match c {
            Constraint::Expr(e) => match e.eval(&env) {
                Ok(Value::Bool(true)) => {}
                _ => return false,
            },
            Constraint::Builtin { .. } => {
                unreachable!("builtin-constrained rules are captured in report mode")
            }
        }
    }
    let Ok(head_loc) = rule.head.loc.eval(&env) else {
        return false;
    };
    match head_loc.as_str() {
        Ok(s) if s.as_str() == head.node.as_str() => {}
        _ => return false,
    }
    if rule.head.args.len() != head.tuple.args.len() {
        return false;
    }
    for (expr, want) in rule.head.args.iter().zip(&head.tuple.args) {
        match expr.eval(&env) {
            Ok(got) if got == *want => {}
            _ => return false,
        }
    }
    let delay = if head.node == *node { 0 } else { rule.link_delay };
    if fired_at + delay > ep.start {
        return false;
    }
    let mut height = 0u32;
    for b in body {
        let tref = TupleRef::new(node.clone(), Arc::clone(b));
        match store.episode_at(&tref, ep.start) {
            Some(e) => height = height.max(e.height + 1),
            None => return false,
        }
    }
    height == ep.height
}

impl fmt::Debug for AnnotationStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AnnotationStore({})", self.stats())
    }
}

/// A [`ProvenanceSink`] building an [`AnnotationStore`] — the compact
/// sibling of [`GraphRecorder`](crate::graph::GraphRecorder).
#[derive(Clone)]
pub struct AnnotRecorder {
    /// The store under construction.
    pub store: AnnotationStore,
    tracer: dp_trace::Tracer,
}

impl AnnotRecorder {
    /// A recorder with an empty store for `program`.
    pub fn new(program: Arc<Program>) -> Self {
        AnnotRecorder {
            store: AnnotationStore::new(program),
            tracer: dp_trace::Tracer::default(),
        }
    }

    /// A recorder that times its batched folds into `tracer`, mirroring
    /// `GraphRecorder::with_tracer` (its series carry `backend=annot`; the
    /// live records are annotated tuple slots).
    pub fn with_tracer(program: Arc<Program>, tracer: dp_trace::Tracer) -> Self {
        AnnotRecorder {
            store: AnnotationStore::new(program),
            tracer,
        }
    }

    /// Finishes recording, returning the store.
    pub fn finish(self) -> AnnotationStore {
        self.store
    }
}

impl fmt::Debug for AnnotRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AnnotRecorder({})", self.store.stats())
    }
}

impl ProvenanceSink for AnnotRecorder {
    fn record(&mut self, event: ProvEvent) {
        self.store.record_event(event);
    }

    fn record_batch(&mut self, events: &mut Vec<ProvEvent>) {
        let span = self.tracer.is_enabled().then(|| {
            (
                self.tracer
                    .span("prov.record_batch", dp_trace::Class::Effort, None),
                events.len() as u64,
            )
        });
        for event in events.drain(..) {
            self.store.record_event(event);
        }
        if let Some((span, n)) = span {
            let live = self.store.store.slot_count() as u64;
            span.end_with(None, &[("events", n)], |agg| {
                agg.add("prov.events{backend=annot}", n);
                agg.set_level("prov.live_records{backend=annot}", live);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphRecorder;
    use crate::invariants::tree_well_formedness_violations;
    use crate::tree::{extract_tree, extract_tree_latest};
    use dp_ndlog::Engine;
    use dp_types::{tuple, FieldType, Schema, SchemaRegistry, TableKind};

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

    /// Runs the same schedule through both backends, returning
    /// (graph, store, node, now).
    fn run_both(
        program: Arc<Program>,
        ops: &[(LogicalTime, &str, Tuple, bool)],
    ) -> (crate::graph::ProvGraph, AnnotationStore, LogicalTime) {
        let mut geng = Engine::new(Arc::clone(&program), GraphRecorder::new());
        let mut aeng = Engine::new(Arc::clone(&program), AnnotRecorder::new(Arc::clone(&program)));
        for (t, n, tup, del) in ops {
            let n = NodeId::new(n);
            if *del {
                geng.schedule_delete(*t, n.clone(), tup.clone()).unwrap();
                aeng.schedule_delete(*t, n, tup.clone()).unwrap();
            } else {
                geng.schedule_insert(*t, n.clone(), tup.clone()).unwrap();
                aeng.schedule_insert(*t, n, tup.clone()).unwrap();
            }
        }
        geng.run().unwrap();
        aeng.run().unwrap();
        let now = geng.now();
        assert_eq!(now, aeng.now());
        (geng.into_sink().finish(), aeng.into_sink().finish(), now)
    }

    #[test]
    fn reconstruction_matches_extraction_on_chain() {
        let ops = [
            (0, "n1", tuple!("cfg", 10), false),
            (5, "n1", tuple!("base", 1), false),
        ];
        let (g, store, now) = run_both(chain_program(), &ops);
        let top = TupleRef::new("n1", tuple!("top", 22));
        let want = extract_tree(&g, &top, now).expect("extracted");
        let got = reconstruct_tree(&store, &top, now).expect("reconstructed");
        assert_eq!(want.render(), got.render());
        assert_eq!(tree_well_formedness_violations(&got), Vec::<String>::new());
    }

    #[test]
    fn reconstruction_answers_past_queries_after_deletion() {
        let ops = [
            (0, "n1", tuple!("cfg", 10), false),
            (5, "n1", tuple!("base", 1), false),
            (50, "n1", tuple!("cfg", 10), true),
        ];
        let (g, store, now) = run_both(chain_program(), &ops);
        let top = TupleRef::new("n1", tuple!("top", 22));
        assert!(extract_tree(&g, &top, now).is_none());
        assert!(reconstruct_tree(&store, &top, now).is_none());
        let want = extract_tree_latest(&g, &top, now).expect("past episode");
        let got = reconstruct_tree_latest(&store, &top, now).expect("past episode");
        assert_eq!(want.render(), got.render());
    }

    #[test]
    fn heights_count_derivation_depth() {
        let ops = [
            (0, "n1", tuple!("cfg", 10), false),
            (5, "n1", tuple!("base", 1), false),
        ];
        let (_, store, now) = run_both(chain_program(), &ops);
        let h = |t: Tuple| store.episode_at(&TupleRef::new("n1", t), now).unwrap().height;
        assert_eq!(h(tuple!("base", 1)), 0);
        assert_eq!(h(tuple!("cfg", 10)), 0);
        assert_eq!(h(tuple!("mid", 11)), 1);
        assert_eq!(h(tuple!("top", 22)), 2);
    }

    #[test]
    fn stats_are_much_smaller_than_graph() {
        let ops = [
            (0, "n1", tuple!("cfg", 10), false),
            (5, "n1", tuple!("base", 1), false),
        ];
        let (g, store, _) = run_both(chain_program(), &ops);
        let gs = g.stats().total();
        let st = store.stats();
        assert_eq!(st.episodes, 4);
        assert_eq!(st.reported, 0);
        assert!(st.total() * 2 < gs, "annot {st:?} vs graph {gs}");
    }
}
