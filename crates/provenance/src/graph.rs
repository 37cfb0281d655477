//! The temporal provenance graph (Section 3.2 of the paper).
//!
//! The graph is built incrementally from the engine's event stream: the
//! [`GraphRecorder`] implements [`ProvenanceSink`] and appends vertices as
//! events arrive. It uses the seven vertex types of the DTaP-style graph
//! the paper adopts: INSERT/DELETE, EXIST, DERIVE/UNDERIVE, and
//! APPEAR/DISAPPEAR. The temporal dimension — EXIST intervals and per-event
//! timestamps — is what lets a *past* event serve as the reference
//! (scenario SDN3).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use dp_ndlog::{ProvEvent, ProvenanceSink};
use dp_types::{LogicalTime, NodeId, Sym, Tuple, TupleRef};

/// Index of a vertex within a [`ProvGraph`].
pub type VertexId = usize;

/// The seven vertex types of the temporal provenance graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VertexKind {
    /// Base tuple inserted.
    Insert,
    /// Base tuple deleted.
    Delete,
    /// Tuple existed over an interval (`end == None` means "still exists").
    Exist {
        /// Interval end, exclusive; `None` while the tuple is alive.
        end: Option<LogicalTime>,
    },
    /// Tuple derived via a rule.
    Derive {
        /// The rule that fired.
        rule: Sym,
        /// Index of the triggering body tuple within the derive children.
        trigger: usize,
    },
    /// A derivation was invalidated.
    Underive {
        /// The rule whose derivation was invalidated.
        rule: Sym,
    },
    /// Tuple's support became positive.
    Appear,
    /// Tuple's support returned to zero.
    Disappear,
}

impl VertexKind {
    /// A stable short tag, used by the plain-diff baseline's signatures.
    pub fn tag(&self) -> &'static str {
        match self {
            VertexKind::Insert => "INSERT",
            VertexKind::Delete => "DELETE",
            VertexKind::Exist { .. } => "EXIST",
            VertexKind::Derive { .. } => "DERIVE",
            VertexKind::Underive { .. } => "UNDERIVE",
            VertexKind::Appear => "APPEAR",
            VertexKind::Disappear => "DISAPPEAR",
        }
    }
}

/// One vertex of the provenance graph.
#[derive(Clone, Debug)]
pub struct Vertex {
    /// Vertex type (and type-specific payload).
    pub kind: VertexKind,
    /// The node the tuple lives on.
    pub node: NodeId,
    /// The tuple the vertex describes (shared with the engine's interner,
    /// so a graph holds one allocation per distinct tuple).
    pub tuple: Arc<Tuple>,
    /// Event time (for EXIST: interval start).
    pub time: LogicalTime,
    /// Direct causes of this vertex.
    pub children: Vec<VertexId>,
}

impl fmt::Display for Vertex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            VertexKind::Exist { end } => write!(
                f,
                "EXIST({}, {}, [{}, {}))",
                self.node,
                self.tuple,
                self.time,
                end.map_or("∞".to_string(), |t| t.to_string())
            ),
            VertexKind::Derive { rule, .. } => {
                write!(f, "DERIVE({}, {}, {}, t={})", self.node, self.tuple, rule, self.time)
            }
            VertexKind::Underive { rule } => {
                write!(f, "UNDERIVE({}, {}, {}, t={})", self.node, self.tuple, rule, self.time)
            }
            other => write!(f, "{}({}, {}, t={})", other.tag(), self.node, self.tuple, self.time),
        }
    }
}

/// One contiguous lifetime of a tuple: from an APPEAR to the matching
/// DISAPPEAR (or to "now").
#[derive(Clone, Debug)]
pub struct Episode {
    /// The APPEAR vertex.
    pub appear: VertexId,
    /// The EXIST vertex spanning the episode.
    pub exist: VertexId,
    /// The INSERT or DERIVE vertex that caused the appearance.
    pub cause: VertexId,
    /// Additional supports gained during the episode (redundant DERIVEs and
    /// base re-insertions). Not part of extracted trees, but needed to
    /// answer "was this tuple also derivable another way".
    pub extra_support: Vec<VertexId>,
    /// Episode start.
    pub start: LogicalTime,
    /// Episode end (exclusive), if the tuple disappeared.
    pub end: Option<LogicalTime>,
    /// The DISAPPEAR vertex, once closed.
    pub disappear: Option<VertexId>,
}

impl Episode {
    /// True if the episode covers time `t`.
    pub fn covers(&self, t: LogicalTime) -> bool {
        self.start <= t && self.end.is_none_or(|e| t < e)
    }
}

/// The append-only temporal provenance graph.
#[derive(Clone, Debug, Default)]
pub struct ProvGraph {
    vertices: Vec<Vertex>,
    /// All episodes of each located tuple, in start order.
    episodes: BTreeMap<TupleRef, Vec<Episode>>,
    /// Pending cause vertex between an INSERT/DERIVE event and the APPEAR
    /// that immediately follows it in the stream.
    pending_cause: BTreeMap<TupleRef, VertexId>,
    /// Pending negative cause (DELETE/UNDERIVE) before a DISAPPEAR.
    pending_negative: BTreeMap<TupleRef, VertexId>,
}

impl ProvGraph {
    /// An empty graph.
    pub fn new() -> Self {
        ProvGraph::default()
    }

    /// All vertices, indexable by [`VertexId`].
    pub fn vertices(&self) -> &[Vertex] {
        &self.vertices
    }

    /// A vertex by id.
    pub fn vertex(&self, id: VertexId) -> &Vertex {
        &self.vertices[id]
    }

    /// Total vertex count.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// The episodes of a located tuple, in chronological order.
    pub fn episodes(&self, tref: &TupleRef) -> &[Episode] {
        self.episodes.get(tref).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The episode of `tref` covering time `t`, if any.
    pub fn episode_at(&self, tref: &TupleRef, t: LogicalTime) -> Option<&Episode> {
        self.episodes(tref).iter().rev().find(|e| e.covers(t))
    }

    /// The most recent episode of `tref` that started no later than `t`
    /// (used to locate reference events in the past).
    pub fn last_episode_starting_by(&self, tref: &TupleRef, t: LogicalTime) -> Option<&Episode> {
        self.episodes(tref).iter().rev().find(|e| e.start <= t)
    }

    /// Per-kind vertex counts — a quick profile of what the recorder
    /// captured (useful for sizing and for the CLI).
    pub fn stats(&self) -> GraphStats {
        let mut s = GraphStats::default();
        for v in &self.vertices {
            match v.kind {
                VertexKind::Insert => s.inserts += 1,
                VertexKind::Delete => s.deletes += 1,
                VertexKind::Exist { .. } => s.exists += 1,
                VertexKind::Derive { .. } => s.derives += 1,
                VertexKind::Underive { .. } => s.underives += 1,
                VertexKind::Appear => s.appears += 1,
                VertexKind::Disappear => s.disappears += 1,
            }
        }
        s
    }

    fn push(&mut self, v: Vertex) -> VertexId {
        self.vertices.push(v);
        self.vertices.len() - 1
    }

    /// Creates an INSERT → APPEAR → EXIST chain for a tuple that predates
    /// the start of recording (checkpoint resume). The episode is opened at
    /// time 0 to reflect "existed since before we started watching".
    fn synthesize_boundary_episode(&mut self, tref: &TupleRef, _seen_at: LogicalTime) -> VertexId {
        let insert = self.push(Vertex {
            kind: VertexKind::Insert,
            node: tref.node.clone(),
            tuple: tref.tuple.clone(),
            time: 0,
            children: Vec::new(),
        });
        let appear = self.push(Vertex {
            kind: VertexKind::Appear,
            node: tref.node.clone(),
            tuple: tref.tuple.clone(),
            time: 0,
            children: vec![insert],
        });
        let exist = self.push(Vertex {
            kind: VertexKind::Exist { end: None },
            node: tref.node.clone(),
            tuple: tref.tuple.clone(),
            time: 0,
            children: vec![appear],
        });
        self.episodes.entry(tref.clone()).or_default().push(Episode {
            appear,
            exist,
            cause: insert,
            extra_support: Vec::new(),
            start: 0,
            end: None,
            disappear: None,
        });
        exist
    }

    fn open_exist(&mut self, tref: &TupleRef) -> Option<VertexId> {
        let ep = self.episodes.get(tref)?.last()?;
        if ep.end.is_none() {
            Some(ep.exist)
        } else {
            None
        }
    }

    fn record_event(&mut self, event: ProvEvent) {
        match event {
            ProvEvent::InsertBase { time, node, tuple } => {
                let tref = TupleRef::new(node.clone(), tuple.clone());
                let id = self.push(Vertex {
                    kind: VertexKind::Insert,
                    node,
                    tuple,
                    time,
                    children: Vec::new(),
                });
                if let Some(ep) = self.episodes.get_mut(&tref).and_then(|v| v.last_mut()) {
                    if ep.end.is_none() {
                        // Base re-inserted while alive: extra support.
                        ep.extra_support.push(id);
                        return;
                    }
                }
                self.pending_cause.insert(tref, id);
            }
            ProvEvent::Derive {
                time,
                node,
                tuple,
                rule,
                fired_at: _,
                body,
                trigger,
                redundant,
            } => {
                let tref = TupleRef::new(node.clone(), tuple.clone());
                // Children: the EXIST vertices of the body tuples' episodes
                // open at derivation time. A body tuple without an open
                // episode means recording started mid-stream (checkpoint
                // resume); synthesize a boundary episode for it so the
                // graph remains well-formed.
                let mut children: Vec<VertexId> = Vec::with_capacity(body.len());
                for b in &body {
                    let exist = match self.open_exist(b) {
                        Some(e) => e,
                        None => self.synthesize_boundary_episode(b, time),
                    };
                    children.push(exist);
                }
                let id = self.push(Vertex {
                    kind: VertexKind::Derive { rule, trigger },
                    node,
                    tuple,
                    time,
                    children,
                });
                if redundant {
                    if let Some(ep) = self.episodes.get_mut(&tref).and_then(|v| v.last_mut()) {
                        ep.extra_support.push(id);
                    }
                } else {
                    self.pending_cause.insert(tref, id);
                }
            }
            ProvEvent::Appear { time, node, tuple } => {
                let tref = TupleRef::new(node.clone(), tuple.clone());
                let cause = match self.pending_cause.remove(&tref) {
                    Some(c) => c,
                    // An APPEAR without a recorded cause can only happen if
                    // recording started mid-stream; synthesize an INSERT.
                    None => self.push(Vertex {
                        kind: VertexKind::Insert,
                        node: node.clone(),
                        tuple: tuple.clone(),
                        time,
                        children: Vec::new(),
                    }),
                };
                let appear = self.push(Vertex {
                    kind: VertexKind::Appear,
                    node: node.clone(),
                    tuple: tuple.clone(),
                    time,
                    children: vec![cause],
                });
                let exist = self.push(Vertex {
                    kind: VertexKind::Exist { end: None },
                    node,
                    tuple,
                    time,
                    children: vec![appear],
                });
                self.episodes.entry(tref).or_default().push(Episode {
                    appear,
                    exist,
                    cause,
                    extra_support: Vec::new(),
                    start: time,
                    end: None,
                    disappear: None,
                });
            }
            ProvEvent::DeleteBase { time, node, tuple } => {
                let tref = TupleRef::new(node.clone(), tuple.clone());
                let id = self.push(Vertex {
                    kind: VertexKind::Delete,
                    node,
                    tuple,
                    time,
                    children: Vec::new(),
                });
                self.pending_negative.insert(tref, id);
            }
            ProvEvent::Underive { time, node, tuple, rule } => {
                let tref = TupleRef::new(node.clone(), tuple.clone());
                let id = self.push(Vertex {
                    kind: VertexKind::Underive { rule },
                    node,
                    tuple,
                    time,
                    children: Vec::new(),
                });
                self.pending_negative.insert(tref, id);
            }
            ProvEvent::Disappear { time, node, tuple } => {
                let tref = TupleRef::new(node.clone(), tuple.clone());
                let cause = self.pending_negative.remove(&tref);
                let id = self.push(Vertex {
                    kind: VertexKind::Disappear,
                    node,
                    tuple,
                    time,
                    children: cause.into_iter().collect(),
                });
                if let Some(ep) = self.episodes.get_mut(&tref).and_then(|v| v.last_mut()) {
                    if ep.end.is_none() {
                        ep.end = Some(time);
                        ep.disappear = Some(id);
                        let exist = ep.exist;
                        if let VertexKind::Exist { end } = &mut self.vertices[exist].kind {
                            *end = Some(time);
                        }
                    }
                }
            }
        }
    }
}

/// Per-kind vertex counts of a [`ProvGraph`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// INSERT vertices.
    pub inserts: u64,
    /// DELETE vertices.
    pub deletes: u64,
    /// EXIST vertices.
    pub exists: u64,
    /// DERIVE vertices.
    pub derives: u64,
    /// UNDERIVE vertices.
    pub underives: u64,
    /// APPEAR vertices.
    pub appears: u64,
    /// DISAPPEAR vertices.
    pub disappears: u64,
}

impl GraphStats {
    /// Total vertices.
    pub fn total(&self) -> u64 {
        self.inserts
            + self.deletes
            + self.exists
            + self.derives
            + self.underives
            + self.appears
            + self.disappears
    }
}

impl fmt::Display for GraphStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} vertices (INSERT {}, DELETE {}, EXIST {}, DERIVE {}, UNDERIVE {}, \
             APPEAR {}, DISAPPEAR {})",
            self.total(),
            self.inserts,
            self.deletes,
            self.exists,
            self.derives,
            self.underives,
            self.appears,
            self.disappears
        )
    }
}

/// A [`ProvenanceSink`] building a [`ProvGraph`].
///
/// This is the paper's *provenance recorder* in "infer" mode (Section 5):
/// dependencies are read off the engine's derivation stream directly.
#[derive(Clone, Debug, Default)]
pub struct GraphRecorder {
    /// The graph under construction.
    pub graph: ProvGraph,
    tracer: dp_trace::Tracer,
}

impl GraphRecorder {
    /// A recorder with an empty graph.
    pub fn new() -> Self {
        GraphRecorder {
            graph: ProvGraph::default(),
            tracer: dp_trace::Tracer::default(),
        }
    }

    /// A recorder that times its batched folds into `tracer` (as
    /// `Class::Effort` `prov.record_batch` spans — batch structure is a
    /// property of the engine, not of the program). The events folded and
    /// the graph's size ride each span's close as
    /// `prov.events{backend=graph}` / `prov.live_records{backend=graph}`,
    /// so graph and annotation recording stay comparable on one scrape.
    pub fn with_tracer(tracer: dp_trace::Tracer) -> Self {
        GraphRecorder {
            graph: ProvGraph::default(),
            tracer,
        }
    }

    /// Finishes recording, returning the graph.
    pub fn finish(self) -> ProvGraph {
        self.graph
    }
}

impl ProvenanceSink for GraphRecorder {
    fn record(&mut self, event: ProvEvent) {
        self.graph.record_event(event);
    }

    /// Batched delivery from the engine's delta flush. The batch arrives
    /// in stream order and is folded into the graph one event at a time,
    /// in order — the resulting graph is identical to the one built by
    /// per-event delivery.
    fn record_batch(&mut self, events: &mut Vec<ProvEvent>) {
        let span = self.tracer.is_enabled().then(|| {
            (
                self.tracer
                    .span("prov.record_batch", dp_trace::Class::Effort, None),
                events.len() as u64,
            )
        });
        for event in events.drain(..) {
            self.graph.record_event(event);
        }
        if let Some((span, n)) = span {
            let live = self.graph.len() as u64;
            span.end_with(None, &[("events", n)], |agg| {
                agg.add("prov.events{backend=graph}", n);
                agg.set_level("prov.live_records{backend=graph}", live);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_ndlog::{Engine, Program};
    use dp_types::{tuple, FieldType, Schema, SchemaRegistry, TableKind};
    use std::sync::Arc;

    fn fig4_program() -> Arc<Program> {
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
        Program::builder(reg)
            .rules_text(
                "rc c(@N, X, Y2, Z1) :- a(@N, X, Y), b(@N, X, Y, Z), Y2 := Y * Y, Z1 := Z + 1.",
            )
            .unwrap()
            .build()
            .unwrap()
    }

    fn run_fig4() -> (ProvGraph, NodeId) {
        let mut eng = Engine::new(fig4_program(), GraphRecorder::new());
        let n = NodeId::new("n1");
        eng.schedule_insert(0, n.clone(), tuple!("a", 1, 2)).unwrap();
        eng.schedule_insert(0, n.clone(), tuple!("b", 1, 2, 3)).unwrap();
        eng.run().unwrap();
        (eng.into_sink().finish(), n)
    }

    #[test]
    fn derivation_builds_insert_appear_exist_chain() {
        let (g, n) = run_fig4();
        let c = TupleRef::new(n.clone(), tuple!("c", 1, 4, 4));
        let eps = g.episodes(&c);
        assert_eq!(eps.len(), 1);
        let ep = &eps[0];
        assert!(matches!(g.vertex(ep.exist).kind, VertexKind::Exist { end: None }));
        assert!(matches!(g.vertex(ep.appear).kind, VertexKind::Appear));
        match &g.vertex(ep.cause).kind {
            VertexKind::Derive { rule, trigger } => {
                assert_eq!(rule, &dp_types::Sym::new("rc"));
                assert_eq!(*trigger, 1);
            }
            other => panic!("expected DERIVE, got {other:?}"),
        }
        // The derive's children are the EXIST vertices of a and b.
        let derive = g.vertex(ep.cause);
        assert_eq!(derive.children.len(), 2);
        let tables: Vec<_> = derive
            .children
            .iter()
            .map(|&id| g.vertex(id).tuple.table.as_str().to_string())
            .collect();
        assert_eq!(tables, ["a", "b"]);
    }

    #[test]
    fn deletion_closes_episode_with_interval() {
        let mut eng = Engine::new(fig4_program(), GraphRecorder::new());
        let n = NodeId::new("n1");
        eng.schedule_insert(0, n.clone(), tuple!("a", 1, 2)).unwrap();
        eng.schedule_insert(0, n.clone(), tuple!("b", 1, 2, 3)).unwrap();
        eng.run().unwrap();
        eng.schedule_delete(100, n.clone(), tuple!("b", 1, 2, 3)).unwrap();
        eng.run().unwrap();
        let g = eng.into_sink().finish();
        let b = TupleRef::new(n.clone(), tuple!("b", 1, 2, 3));
        let ep = &g.episodes(&b)[0];
        assert!(ep.end.is_some());
        assert!(matches!(g.vertex(ep.exist).kind, VertexKind::Exist { end: Some(_) }));
        // The derived c also disappeared, via an UNDERIVE.
        let c = TupleRef::new(n, tuple!("c", 1, 4, 4));
        let cep = &g.episodes(&c)[0];
        let dis = cep.disappear.expect("c disappeared");
        let dis_v = g.vertex(dis);
        assert_eq!(dis_v.children.len(), 1);
        assert!(matches!(g.vertex(dis_v.children[0]).kind, VertexKind::Underive { .. }));
    }

    #[test]
    fn episode_at_respects_time() {
        let mut eng = Engine::new(fig4_program(), GraphRecorder::new());
        let n = NodeId::new("n1");
        eng.schedule_insert(0, n.clone(), tuple!("b", 1, 2, 3)).unwrap();
        eng.run().unwrap();
        let t_alive = eng.now();
        eng.schedule_delete(100, n.clone(), tuple!("b", 1, 2, 3)).unwrap();
        eng.run().unwrap();
        let t_dead = eng.now() + 1;
        let g = eng.into_sink().finish();
        let b = TupleRef::new(n, tuple!("b", 1, 2, 3));
        assert!(g.episode_at(&b, t_alive).is_some());
        assert!(g.episode_at(&b, t_dead).is_none());
        assert!(g.last_episode_starting_by(&b, t_dead).is_some());
    }

    #[test]
    fn stats_count_every_vertex_kind() {
        let mut eng = Engine::new(fig4_program(), GraphRecorder::new());
        let n = NodeId::new("n1");
        eng.schedule_insert(0, n.clone(), tuple!("a", 1, 2)).unwrap();
        eng.schedule_insert(0, n.clone(), tuple!("b", 1, 2, 3)).unwrap();
        eng.run().unwrap();
        eng.schedule_delete(100, n.clone(), tuple!("b", 1, 2, 3)).unwrap();
        eng.run().unwrap();
        let g = eng.into_sink().finish();
        let s = g.stats();
        assert_eq!(s.total() as usize, g.len());
        assert_eq!(s.inserts, 2);
        assert_eq!(s.deletes, 1);
        assert_eq!(s.derives, 1);
        assert_eq!(s.underives, 1);
        assert_eq!(s.appears, 3);
        assert_eq!(s.disappears, 2); // b and the cascaded c
        assert!(s.to_string().contains("DERIVE 1"));
    }

    #[test]
    fn reappearance_creates_second_episode() {
        let mut eng = Engine::new(fig4_program(), GraphRecorder::new());
        let n = NodeId::new("n1");
        eng.schedule_insert(0, n.clone(), tuple!("b", 1, 2, 3)).unwrap();
        eng.run().unwrap();
        eng.schedule_delete(10, n.clone(), tuple!("b", 1, 2, 3)).unwrap();
        eng.run().unwrap();
        eng.schedule_insert(20, n.clone(), tuple!("b", 1, 2, 3)).unwrap();
        eng.run().unwrap();
        let g = eng.into_sink().finish();
        let b = TupleRef::new(n, tuple!("b", 1, 2, 3));
        let eps = g.episodes(&b);
        assert_eq!(eps.len(), 2);
        assert!(eps[0].end.is_some());
        assert!(eps[1].end.is_none());
    }
}
