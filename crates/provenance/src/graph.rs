//! The temporal provenance graph (Section 3.2 of the paper).
//!
//! The graph is built incrementally from the engine's event stream: the
//! [`GraphRecorder`] implements [`ProvenanceSink`] and appends vertices as
//! events arrive. It uses the seven vertex types of the DTaP-style graph
//! the paper adopts: INSERT/DELETE, EXIST, DERIVE/UNDERIVE, and
//! APPEAR/DISAPPEAR. The temporal dimension — EXIST intervals and per-event
//! timestamps — is what lets a *past* event serve as the reference
//! (scenario SDN3).
//!
//! # Layout
//!
//! Recording never looks a tuple up by value. Every event names the
//! episode it belongs to by the clock of that episode's APPEAR (`since`,
//! see [`dp_ndlog::sink`]), so the recorder keeps one **row** per episode,
//! in APPEAR order, filed under that clock in a direct map from clock to
//! row kept as pages of consecutive clocks, the pages found by number in
//! an open-addressed table ([`dp_types::IdTable`]): finding an episode is
//! two reads, not a search, and the map grows with the clocks that open
//! rows, however sparse (a MapReduce log puts its fences at dues 500 000,
//! 1 000 000 and 2 000 000). A row owns the episode's located tuple — the
//! one `NodeId`/`Arc<Tuple>` pair its three or more vertices share — and
//! the ids of its cause, APPEAR and DISAPPEAR vertices and of its pending
//! negative cause. Its start is its APPEAR's time and its end its
//! DISAPPEAR's, read from the vertex column, so the map beside the rows
//! holds row ids alone.
//! Vertices are plain columns (kind and rule, row, time, child range) over
//! one child arena, and the extra supports of all episodes are one side
//! list, so a graph of any size is a fixed number of allocations and
//! dropping it frees those and releases the rows' tuples.
//!
//! Every recording starts at an empty engine — a replay from the log's
//! start, possibly rolled forward on the same engine — so every row is
//! opened by the APPEAR right after its cause, and a row's id is its rank
//! in APPEAR order: the opened rows are the ids below the start map's
//! count.
//! A stream that breaks that contract — a `since` that names no opened
//! episode of its located tuple, or an APPEAR not preceded by its cause —
//! panics with the invariant stated, as a graph past 2^32 vertices does;
//! it is never linked into another tuple's history.

use std::fmt;
use std::sync::Arc;

use dp_ndlog::{ProvEvent, ProvenanceSink};
use dp_types::{IdTable, LogicalTime, NodeId, Probe, Sym, Tuple, TupleRef};

/// Index of a vertex within a [`ProvGraph`]. A graph holds fewer than
/// 2^32 vertices; recording past that panics.
pub type VertexId = u32;

/// Index of an episode row: one contiguous lifetime of one located tuple,
/// in APPEAR order.
pub type RowId = u32;

/// One vertex as a walk over the whole recording reads it
/// ([`ProvGraph::step`]): its kind without the rule name cloned, and for
/// a DERIVE its children (the EXIST vertices of its body episodes).
#[derive(Clone, Copy, Debug)]
pub enum Step<'a> {
    /// A base insertion.
    Insert,
    /// A base deletion.
    Delete,
    /// A derivation.
    Derive {
        /// The rule that fired.
        rule: &'a Sym,
        /// Index into `body` of the triggering body tuple.
        trigger: usize,
        /// The EXIST vertices of the body episodes, in body order.
        body: &'a [VertexId],
    },
    /// An episode opens.
    Appear,
    /// An episode closes.
    Disappear,
    /// EXIST or UNDERIVE.
    Other,
}

/// An episode row as a walk reads it ([`ProvGraph::row`]).
#[derive(Clone, Copy, Debug)]
pub struct RowView<'a> {
    /// The node the tuple lives on.
    pub node: &'a NodeId,
    /// The tuple.
    pub tuple: &'a Arc<Tuple>,
    /// The INSERT or DERIVE vertex that opened the episode.
    pub cause: VertexId,
    /// When it closed, if it did.
    pub end: Option<LogicalTime>,
}

/// "No vertex" in a row's optional links.
const NONE: VertexId = VertexId::MAX;

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

/// One vertex of the provenance graph: a view assembled from the graph's
/// columns and the episode row that owns the tuple.
#[derive(Clone, Debug)]
pub struct Vertex<'a> {
    /// Vertex type (and type-specific payload).
    pub kind: VertexKind,
    /// The node the tuple lives on.
    pub node: &'a NodeId,
    /// The tuple the vertex describes: its episode's, shared with the
    /// engine — the interned head for a derived tuple, the log's
    /// allocation for a base tuple — and never copied.
    pub tuple: &'a Arc<Tuple>,
    /// Event time (for EXIST: interval start).
    pub time: LogicalTime,
    /// Direct causes of this vertex.
    pub children: &'a [VertexId],
}

impl fmt::Display for Vertex<'_> {
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

/// The stored form of [`VertexKind`]: `Copy`, with the rule as an index
/// into the graph's rule table and the EXIST interval left to the row.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Insert,
    Delete,
    Exist,
    Derive { rule: u32, trigger: u32 },
    Underive { rule: u32 },
    Appear,
    Disappear,
}

/// One episode of one located tuple.
#[derive(Clone, Debug)]
struct Row {
    node: NodeId,
    tuple: Arc<Tuple>,
    /// The INSERT or DERIVE vertex that caused the appearance.
    cause: VertexId,
    /// The APPEAR vertex, whose time is the episode's start; the EXIST
    /// vertex is the one after it. [`NONE`] while the row waits for the
    /// APPEAR that follows its cause.
    appear: VertexId,
    /// The DISAPPEAR vertex, whose time is the episode's end, or [`NONE`]
    /// while the episode is open.
    disappear: VertexId,
    /// The latest DELETE/UNDERIVE vertex no DISAPPEAR has taken yet, or
    /// [`NONE`].
    negative: VertexId,
}

impl Row {
    fn holds(&self, node: &NodeId, tuple: &Arc<Tuple>) -> bool {
        // `Arc`'s equality is pointer first, content second. A derived
        // tuple is interned, so it stops at the pointer; a base tuple is
        // the log event's own allocation, and one logged in several
        // events — a delete of an insert, a re-insert — reaches the
        // content compare.
        self.tuple == *tuple && self.node == *node
    }
}

/// Clocks per page of [`Starts`]: 4 KiB of row ids.
const PAGE_BITS: u32 = 10;

/// The opened rows by start clock: a direct map from clock to row, kept
/// as pages of `2^PAGE_BITS` consecutive clocks, each made when a row first
/// opens in its range and found by its number in a small [`IdTable`].
///
/// A lookup is a probe of the page table (a few hundred slots on a campus
/// replay, in cache) and one read in the page; a recording opens its rows
/// at increasing clocks, so filling a page is a run of sequential writes,
/// and the episodes a stream names most — those just opened — sit in the
/// pages just written. The clocks of a replay are nearly dense (every
/// engine event takes the next one, and most open a row), so a page is
/// nearly full; a clock far ahead of the rest (a MapReduce fence at due 2
/// 000 000) costs one page, not the range it skips.
#[derive(Clone, Debug, Default)]
struct Starts {
    /// Page number → the page's index in `rows`.
    pages: IdTable<u64>,
    /// The pages end to end: a row id at each clock that opened one,
    /// [`NONE`] elsewhere.
    rows: Vec<RowId>,
    /// Rows filed.
    len: u32,
}

impl Starts {
    /// A clock's place in its page.
    const MASK: u64 = (1 << PAGE_BITS) - 1;

    /// The row that opened at `clock`.
    fn get(&self, clock: LogicalTime) -> Option<RowId> {
        let page = clock >> PAGE_BITS;
        let at = self.pages.find(page, page, |_| true)?;
        let row = self.rows[((at as usize) << PAGE_BITS) + (clock & Self::MASK) as usize];
        (row != NONE).then_some(row)
    }

    /// Files `row` as opened at `clock`, which no row opened at before.
    fn insert(&mut self, clock: LogicalTime, row: RowId) {
        let page = clock >> PAGE_BITS;
        let at = match self.pages.entry(page, page, |_| true, |page, _| page) {
            Probe::Found(at) => at,
            Probe::Vacant(slot) => {
                let at = (self.rows.len() >> PAGE_BITS) as u32;
                self.rows.resize(self.rows.len() + (1 << PAGE_BITS), NONE);
                self.pages.fill(slot, page, at);
                at
            }
        };
        self.rows[((at as usize) << PAGE_BITS) + (clock & Self::MASK) as usize] = row;
        self.len += 1;
    }

    /// Heap bytes the page table and the pages take.
    fn bytes(&self) -> usize {
        self.pages.bytes() + self.rows.capacity() * std::mem::size_of::<RowId>()
    }
}

/// The append-only temporal provenance graph.
#[derive(Clone, Debug, Default)]
pub struct ProvGraph {
    // Vertex columns, indexed by `VertexId`.
    kinds: Vec<Kind>,
    rows_of: Vec<RowId>,
    times: Vec<LogicalTime>,
    /// Where each vertex's children end in `children`; they start where
    /// the previous vertex's end.
    child_ends: Vec<u32>,
    /// The child arena.
    children: Vec<VertexId>,
    /// Rule names, indexed by the `rule` of [`Kind`]; a handful per
    /// program.
    rules: Vec<Sym>,
    /// The episodes, in APPEAR order; past the opened ones, at most the
    /// row whose cause waits for its APPEAR.
    rows: Vec<Row>,
    /// `since → row`: every opened row under its start, the time of its
    /// APPEAR vertex.
    by_start: Starts,
    /// Additional supports as `(row, vertex)`, in arrival order.
    extra_support: Vec<(RowId, VertexId)>,
    /// Scratch for the children of the DERIVE being recorded.
    body: Vec<VertexId>,
}

impl ProvGraph {
    /// An empty graph.
    pub fn new() -> Self {
        ProvGraph::default()
    }

    /// All vertices, in [`VertexId`] order.
    pub fn vertices(&self) -> impl ExactSizeIterator<Item = Vertex<'_>> {
        (0..self.kinds.len()).map(|i| self.vertex(i as VertexId))
    }

    /// A vertex by id.
    pub fn vertex(&self, id: VertexId) -> Vertex<'_> {
        let i = id as usize;
        let row = &self.rows[self.rows_of[i] as usize];
        let rule = |r: u32| self.rules[r as usize];
        let kind = match self.kinds[i] {
            Kind::Insert => VertexKind::Insert,
            Kind::Delete => VertexKind::Delete,
            Kind::Exist => VertexKind::Exist {
                end: self.end_of(row),
            },
            Kind::Derive { rule: r, trigger } => VertexKind::Derive {
                rule: rule(r),
                trigger: trigger as usize,
            },
            Kind::Underive { rule: r } => VertexKind::Underive { rule: rule(r) },
            Kind::Appear => VertexKind::Appear,
            Kind::Disappear => VertexKind::Disappear,
        };
        let from = if i == 0 { 0 } else { self.child_ends[i - 1] };
        Vertex {
            kind,
            node: &row.node,
            tuple: &row.tuple,
            time: self.times[i],
            children: &self.children[from as usize..self.child_ends[i] as usize],
        }
    }

    /// Vertex `id` as a walk over the recording reads it, with the row it
    /// belongs to: the cheap form of [`ProvGraph::vertex`].
    pub fn step(&self, id: VertexId) -> (RowId, Step<'_>) {
        let i = id as usize;
        let step = match self.kinds[i] {
            Kind::Insert => Step::Insert,
            Kind::Delete => Step::Delete,
            Kind::Derive { rule, trigger } => {
                let from = if i == 0 { 0 } else { self.child_ends[i - 1] };
                Step::Derive {
                    rule: &self.rules[rule as usize],
                    trigger: trigger as usize,
                    body: &self.children[from as usize..self.child_ends[i] as usize],
                }
            }
            Kind::Appear => Step::Appear,
            Kind::Disappear => Step::Disappear,
            Kind::Exist | Kind::Underive { .. } => Step::Other,
        };
        (self.rows_of[i], step)
    }

    /// How many rows the graph holds (opened or waiting for their APPEAR).
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Row `r`.
    pub fn row(&self, r: RowId) -> RowView<'_> {
        let row = &self.rows[r as usize];
        RowView {
            node: &row.node,
            tuple: &row.tuple,
            cause: row.cause,
            end: self.end_of(row),
        }
    }

    /// Total vertex count.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Heap bytes the graph holds (its columns, arena, rows and index at
    /// their allocated capacities; the tuples belong to the engine's head
    /// interner or to the log).
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.kinds.capacity() * size_of::<Kind>()
            + self.rows_of.capacity() * size_of::<RowId>()
            + self.times.capacity() * size_of::<LogicalTime>()
            + self.child_ends.capacity() * size_of::<u32>()
            + (self.children.capacity() + self.body.capacity()) * size_of::<VertexId>()
            + self.rules.capacity() * size_of::<Sym>()
            + self.rows.capacity() * size_of::<Row>()
            + self.by_start.bytes()
            + self.extra_support.capacity() * size_of::<(RowId, VertexId)>()
    }

    /// The EXIST vertex of the episode of `tref` that opened at `since`:
    /// the keyed lookup, for callers that hold the tuple's
    /// `appeared_at` (a live tuple's is in the engine's table).
    pub fn exist_since(&self, tref: &TupleRef, since: LogicalTime) -> Option<VertexId> {
        let row = &self.rows[self.row_at(since)? as usize];
        row.holds(&tref.node, &tref.tuple).then_some(row.appear + 1)
    }

    /// The row that opened at `since`: a probe of the start map's page
    /// table and one read in the page.
    fn row_at(&self, since: LogicalTime) -> Option<RowId> {
        self.by_start.get(since)
    }

    /// How many rows are opened: the ids below it.
    fn opened(&self) -> RowId {
        self.by_start.len
    }

    /// When opened row `r` started: its APPEAR's time.
    fn start(&self, r: RowId) -> LogicalTime {
        self.times[self.rows[r as usize].appear as usize]
    }

    /// When `row` ended — its DISAPPEAR's time — if it did.
    fn end_of(&self, row: &Row) -> Option<LogicalTime> {
        (row.disappear != NONE).then(|| self.times[row.disappear as usize])
    }

    /// The opened rows of `tref`, in APPEAR order: a linear scan of every
    /// episode in the graph.
    fn rows_for<'a>(&'a self, tref: &'a TupleRef) -> impl DoubleEndedIterator<Item = RowId> + 'a {
        let opened = 0..self.opened();
        opened.filter(move |&r| self.rows[r as usize].holds(&tref.node, &tref.tuple))
    }

    /// The public view of opened row `r`, given its extra supports.
    fn episode_of(&self, r: RowId, extra_support: Vec<VertexId>) -> Episode {
        let row = &self.rows[r as usize];
        Episode {
            appear: row.appear,
            exist: row.appear + 1,
            cause: row.cause,
            extra_support,
            start: self.start(r),
            end: self.end_of(row),
            disappear: (row.disappear != NONE).then_some(row.disappear),
        }
    }

    fn episode(&self, r: RowId) -> Episode {
        let of_row = self.extra_support.iter().filter(|&&(of, _)| of == r);
        self.episode_of(r, of_row.map(|&(_, v)| v).collect())
    }

    /// Every episode in the graph with its located tuple, in APPEAR
    /// order.
    pub fn all_episodes(&self) -> Vec<(TupleRef, Episode)> {
        let mut extra = vec![Vec::new(); self.opened() as usize];
        for &(r, v) in &self.extra_support {
            extra[r as usize].push(v);
        }
        (0..self.opened())
            .map(|r| {
                let row = &self.rows[r as usize];
                let episode = self.episode_of(r, std::mem::take(&mut extra[r as usize]));
                (TupleRef::new(row.node, Arc::clone(&row.tuple)), episode)
            })
            .collect()
    }

    /// The episodes of a located tuple, in chronological order.
    ///
    /// This and the two lookups below find the tuple by value with a
    /// linear scan over every episode in the graph — they serve tests and
    /// tree extraction for a queried event. Recording and
    /// [`ProvGraph::exist_since`] go by key.
    pub fn episodes(&self, tref: &TupleRef) -> Vec<Episode> {
        self.rows_for(tref).map(|r| self.episode(r)).collect()
    }

    /// The episode of `tref` covering time `t`, if any (linear scan).
    pub fn episode_at(&self, tref: &TupleRef, t: LogicalTime) -> Option<Episode> {
        self.last_episode(tref, |start, end| start <= t && end.is_none_or(|e| t < e))
    }

    /// The most recent episode of `tref` that started no later than `t`
    /// (used to locate reference events in the past; linear scan).
    pub fn last_episode_starting_by(&self, tref: &TupleRef, t: LogicalTime) -> Option<Episode> {
        self.last_episode(tref, |start, _| start <= t)
    }

    /// The last opened row of `tref` whose `(start, end)` is `wanted`.
    fn last_episode(
        &self,
        tref: &TupleRef,
        wanted: impl Fn(LogicalTime, Option<LogicalTime>) -> bool,
    ) -> Option<Episode> {
        let mut rows = self.rows_for(tref).rev();
        let found = rows.find(|&r| wanted(self.start(r), self.end_of(&self.rows[r as usize])));
        found.map(|r| self.episode(r))
    }

    /// Per-kind vertex counts — a quick profile of what the recorder
    /// captured (useful for sizing and for the CLI).
    pub fn stats(&self) -> GraphStats {
        let mut s = GraphStats::default();
        for kind in &self.kinds {
            match kind {
                Kind::Insert => s.inserts += 1,
                Kind::Delete => s.deletes += 1,
                Kind::Exist => s.exists += 1,
                Kind::Derive { .. } => s.derives += 1,
                Kind::Underive { .. } => s.underives += 1,
                Kind::Appear => s.appears += 1,
                Kind::Disappear => s.disappears += 1,
            }
        }
        s
    }

    /// Appends a vertex of `row` whose children are `children`.
    fn push(&mut self, kind: Kind, row: RowId, time: LogicalTime, children: &[VertexId]) -> VertexId {
        let id = match VertexId::try_from(self.kinds.len()) {
            Ok(id) if id != NONE => id,
            _ => panic!("a provenance graph holds fewer than 2^32 vertices"),
        };
        self.kinds.push(kind);
        self.rows_of.push(row);
        self.times.push(time);
        self.children.extend_from_slice(children);
        let Ok(end) = u32::try_from(self.children.len()) else {
            panic!("a provenance graph holds fewer than 2^32 child links");
        };
        self.child_ends.push(end);
        id
    }

    /// Appends a row for `node`/`tuple` that no APPEAR has opened yet.
    fn push_row(&mut self, node: NodeId, tuple: Arc<Tuple>) -> RowId {
        self.rows.push(Row {
            node,
            tuple,
            cause: NONE,
            appear: NONE,
            disappear: NONE,
            negative: NONE,
        });
        (self.rows.len() - 1) as RowId
    }

    /// Opens `row`, the next in APPEAR order, at `time`: its APPEAR and
    /// EXIST vertices and its entry under its start.
    fn open(&mut self, row: RowId, time: LogicalTime) {
        let cause = self.rows[row as usize].cause;
        let appear = self.push(Kind::Appear, row, time, &[cause]);
        self.push(Kind::Exist, row, time, &[appear]);
        self.rows[row as usize].appear = appear;
        self.by_start.insert(time, row);
    }

    fn rule_id(&mut self, rule: Sym) -> u32 {
        let known = self.rules.iter().position(|r| *r == rule);
        known.unwrap_or_else(|| {
            self.rules.push(rule);
            self.rules.len() - 1
        }) as u32
    }

    /// The row of the episode of `node`/`tuple` that opened at `since`.
    fn row_since(&self, since: LogicalTime, node: &NodeId, tuple: &Arc<Tuple>) -> RowId {
        match self.row_at(since) {
            Some(r) if self.rows[r as usize].holds(node, tuple) => r,
            _ => panic!("an event's `since` names an opened episode of its located tuple"),
        }
    }

    /// A positive event (INSERT or DERIVE) of kind `kind` with children
    /// `self.body`: the cause of the APPEAR that follows when it opens its
    /// episode (`since == time`), an extra support of the episode it names
    /// otherwise.
    fn record_support(
        &mut self,
        kind: Kind,
        (time, since): (LogicalTime, LogicalTime),
        node: NodeId,
        tuple: Arc<Tuple>,
    ) {
        let body = std::mem::take(&mut self.body);
        if since == time {
            let row = self.push_row(node, tuple);
            self.rows[row as usize].cause = self.push(kind, row, time, &body);
        } else {
            let row = self.row_since(since, &node, &tuple);
            let id = self.push(kind, row, time, &body);
            self.extra_support.push((row, id));
        }
        self.body = body;
    }

    fn record_event(&mut self, event: ProvEvent) {
        match event {
            ProvEvent::InsertBase { time, since, node, tuple } => {
                self.body.clear();
                self.record_support(Kind::Insert, (time, since), node, tuple);
            }
            ProvEvent::Derive {
                time,
                since,
                node,
                tuple,
                rule,
                body,
                trigger,
            } => {
                // Children: the EXIST vertices of the episodes the body
                // tuples were in at derivation time.
                self.body.clear();
                for b in &body {
                    let row = self.row_since(b.since, &b.tref.node, &b.tref.tuple);
                    let exist = self.rows[row as usize].appear + 1;
                    self.body.push(exist);
                }
                let kind = Kind::Derive {
                    rule: self.rule_id(rule),
                    // Out of range stays out of range.
                    trigger: u32::try_from(trigger).unwrap_or(u32::MAX),
                };
                self.record_support(kind, (time, since), node, tuple);
            }
            ProvEvent::Appear { time, node, tuple } => {
                // The row its cause pushed is the one past the opened ones,
                // and it opens later than all of them.
                let row = self.opened();
                let caused = self.rows.len() == row as usize + 1
                    && self.rows[row as usize].holds(&node, &tuple)
                    && row.checked_sub(1).is_none_or(|latest| self.start(latest) < time);
                assert!(caused, "an APPEAR follows its own cause, later than every earlier APPEAR");
                self.open(row, time);
            }
            ProvEvent::DeleteBase { time, since, node, tuple } => {
                let row = self.row_since(since, &node, &tuple);
                self.rows[row as usize].negative = self.push(Kind::Delete, row, time, &[]);
            }
            ProvEvent::Underive { time, since, node, tuple, rule } => {
                let row = self.row_since(since, &node, &tuple);
                let kind = Kind::Underive {
                    rule: self.rule_id(rule),
                };
                self.rows[row as usize].negative = self.push(kind, row, time, &[]);
            }
            ProvEvent::Disappear { time, since, node, tuple } => {
                let row = self.row_since(since, &node, &tuple);
                let cause = [std::mem::replace(&mut self.rows[row as usize].negative, NONE)];
                let children = if cause[0] == NONE { &[] } else { &cause[..] };
                let id = self.push(Kind::Disappear, row, time, children);
                let r = &mut self.rows[row as usize];
                if r.disappear == NONE {
                    r.disappear = id;
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
    /// `prov.record_batch` spans). The events folded and
    /// the graph's size ride each span's close as
    /// `prov.events` / `prov.live_records`, and with them what the records
    /// cost: `prov.bytes` ([`ProvGraph::bytes`]) and
    /// `prov.bytes_per_record`.
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

    /// Batched delivery from the engine's hand-off. The run arrives in
    /// stream order and is folded into the graph one event at a time, in
    /// order — the resulting graph is identical to the one built by
    /// per-event delivery.
    fn record_batch(&mut self, events: &mut Vec<ProvEvent>) {
        let (span, n) = (self.tracer.span("prov.record_batch"), events.len() as u64);
        for event in events.drain(..) {
            self.graph.record_event(event);
        }
        let graph = &self.graph;
        span.end_with(|agg| {
            let (live, bytes) = (graph.len() as u64, graph.bytes() as u64);
            agg.add("prov.events", n);
            agg.set_level("prov.live_records", live);
            agg.set_level("prov.bytes", bytes);
            agg.set_level("prov.bytes_per_record", bytes / live.max(1));
        });
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
        eng.schedule_insert(0, n, tuple!("a", 1, 2)).unwrap();
        eng.schedule_insert(0, n, tuple!("b", 1, 2, 3)).unwrap();
        eng.run().unwrap();
        (eng.into_sink().finish(), n)
    }

    #[test]
    fn derivation_builds_insert_appear_exist_chain() {
        let (g, n) = run_fig4();
        let c = TupleRef::new(n, tuple!("c", 1, 4, 4));
        let eps = g.episodes(&c);
        assert_eq!(eps.len(), 1);
        let ep = &eps[0];
        assert!(matches!(g.vertex(ep.exist).kind, VertexKind::Exist { end: None }));
        assert!(matches!(g.vertex(ep.appear).kind, VertexKind::Appear));
        match g.vertex(ep.cause).kind {
            VertexKind::Derive { rule, trigger } => {
                assert_eq!(rule, dp_types::Sym::new("rc"));
                assert_eq!(trigger, 1);
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
        eng.schedule_insert(0, n, tuple!("a", 1, 2)).unwrap();
        eng.schedule_insert(0, n, tuple!("b", 1, 2, 3)).unwrap();
        eng.run().unwrap();
        eng.schedule_delete(100, n, tuple!("b", 1, 2, 3)).unwrap();
        eng.run().unwrap();
        let g = eng.into_sink().finish();
        let b = TupleRef::new(n, tuple!("b", 1, 2, 3));
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
        eng.schedule_insert(0, n, tuple!("b", 1, 2, 3)).unwrap();
        eng.run().unwrap();
        let t_alive = eng.now();
        eng.schedule_delete(100, n, tuple!("b", 1, 2, 3)).unwrap();
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
        eng.schedule_insert(0, n, tuple!("a", 1, 2)).unwrap();
        eng.schedule_insert(0, n, tuple!("b", 1, 2, 3)).unwrap();
        eng.run().unwrap();
        eng.schedule_delete(100, n, tuple!("b", 1, 2, 3)).unwrap();
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

    /// A stream whose `since` leads to another tuple's row — spliced,
    /// forged, or resumed under a key the recording already uses — breaks
    /// the contract: recording stops there, before the two histories are
    /// linked.
    #[test]
    #[should_panic(expected = "an event's `since` names an opened episode of its located tuple")]
    fn a_since_naming_another_tuples_row_panics() {
        use dp_ndlog::BodyRef;
        let n = NodeId::new("n1");
        let (a, z, c) = (
            Arc::new(tuple!("a", 1, 2)),
            Arc::new(tuple!("b", 9, 9, 9)),
            Arc::new(tuple!("c", 1, 4, 4)),
        );
        let at = |tuple: &Arc<Tuple>, since| BodyRef {
            tref: TupleRef::new(n, Arc::clone(tuple)),
            since,
        };
        let mut rec = GraphRecorder::new();
        for event in [
            ProvEvent::InsertBase { time: 1, since: 1, node: n, tuple: Arc::clone(&a) },
            ProvEvent::Appear { time: 1, node: n, tuple: Arc::clone(&a) },
            // The second body entry claims the episode that opened at 1:
            // that is a(1, 2)'s.
            ProvEvent::Derive {
                time: 2,
                since: 2,
                node: n,
                tuple: Arc::clone(&c),
                rule: Sym::new("rc"),
                body: vec![at(&a, 1), at(&z, 1)],
                trigger: 0,
            },
        ] {
            rec.record(event);
        }
    }

    /// An APPEAR whose cause the stream never stated — what a recording
    /// started mid-run would see first — breaks the contract too.
    #[test]
    #[should_panic(expected = "an APPEAR follows its own cause")]
    fn an_appear_with_no_cause_panics() {
        let (n, a, b) = (NodeId::new("n1"), Arc::new(tuple!("a", 1, 2)), Arc::new(tuple!("a", 3, 4)));
        let mut rec = GraphRecorder::new();
        for event in [
            ProvEvent::InsertBase { time: 1, since: 1, node: n, tuple: Arc::clone(&a) },
            ProvEvent::Appear { time: 1, node: n, tuple: a },
            ProvEvent::Appear { time: 2, node: n, tuple: b },
        ] {
            rec.record(event);
        }
    }

    /// Base support that comes and goes inside one episode, as a stream
    /// states it (the engine never emits one: heads and base tuples live
    /// in disjoint tables). A reported `m(1)` is open; an INSERT naming
    /// its episode is extra support, not a new APPEAR; a DELETE while the
    /// report holds closes nothing; and the DISAPPEAR's cause is the later
    /// UNDERIVE, not the DELETE left over from before.
    #[test]
    fn base_support_comes_and_goes_inside_one_episode() {
        use dp_ndlog::BodyRef;
        let n = NodeId::new("n");
        let (e, m) = (Arc::new(tuple!("e", 1)), Arc::new(tuple!("m", 1)));
        let mirror = Sym::new("mirror");
        let mut rec = GraphRecorder::new();
        for event in [
            ProvEvent::InsertBase { time: 1, since: 1, node: n, tuple: Arc::clone(&e) },
            ProvEvent::Appear { time: 1, node: n, tuple: Arc::clone(&e) },
            ProvEvent::Derive {
                time: 2,
                since: 2,
                node: n,
                tuple: Arc::clone(&m),
                rule: mirror,
                body: vec![BodyRef { tref: TupleRef::new(n, Arc::clone(&e)), since: 1 }],
                trigger: 0,
            },
            ProvEvent::Appear { time: 2, node: n, tuple: Arc::clone(&m) },
            ProvEvent::InsertBase { time: 10, since: 2, node: n, tuple: Arc::clone(&m) },
            ProvEvent::DeleteBase { time: 20, since: 2, node: n, tuple: Arc::clone(&m) },
            ProvEvent::DeleteBase { time: 30, since: 1, node: n, tuple: Arc::clone(&e) },
            ProvEvent::Disappear { time: 30, since: 1, node: n, tuple: Arc::clone(&e) },
            ProvEvent::Underive {
                time: 30,
                since: 2,
                node: n,
                tuple: Arc::clone(&m),
                rule: mirror,
            },
            ProvEvent::Disappear { time: 30, since: 2, node: n, tuple: Arc::clone(&m) },
        ] {
            rec.record(event);
        }
        let graph = rec.finish();
        let eps = graph.episodes(&TupleRef::new(n, m));
        assert_eq!(eps.len(), 1, "one episode throughout");
        let ep = &eps[0];
        assert_eq!((ep.start, ep.end), (2, Some(30)));
        assert!(matches!(graph.vertex(ep.cause).kind, VertexKind::Derive { .. }));
        let [extra] = ep.extra_support[..] else {
            panic!("one extra support expected: {:?}", ep.extra_support)
        };
        let extra = graph.vertex(extra);
        assert!(matches!(extra.kind, VertexKind::Insert) && extra.time == 10, "{extra}");
        let disappear = graph.vertex(ep.disappear.expect("closed"));
        let [negative] = disappear.children[..] else {
            panic!("one negative cause expected: {:?}", disappear.children)
        };
        let negative = graph.vertex(negative);
        assert!(
            matches!(negative.kind, VertexKind::Underive { .. }) && negative.time == 30,
            "the DISAPPEAR hangs off {negative}"
        );
        assert_eq!(crate::well_formedness_violations(&graph), Vec::<String>::new());
    }

    /// A stream whose APPEARs sit at clocks 1, 2^40 and 2^40 + 5 — a
    /// fence far ahead of the rest, as a MapReduce log's are: `row` and a
    /// tree's children lead to each episode by its clock.
    fn sparse_stream(tail: ProvEvent) -> GraphRecorder {
        use dp_ndlog::BodyRef;
        let (n, far) = (NodeId::new("n"), 1u64 << 40);
        let (e, f, m) = (
            Arc::new(tuple!("e", 1)),
            Arc::new(tuple!("f", 2)),
            Arc::new(tuple!("m", 3)),
        );
        let at = |tuple: &Arc<Tuple>, since| BodyRef {
            tref: TupleRef::new(n, Arc::clone(tuple)),
            since,
        };
        let mut rec = GraphRecorder::new();
        for event in [
            ProvEvent::InsertBase { time: 1, since: 1, node: n, tuple: Arc::clone(&e) },
            ProvEvent::Appear { time: 1, node: n, tuple: Arc::clone(&e) },
            ProvEvent::InsertBase { time: far, since: far, node: n, tuple: Arc::clone(&f) },
            ProvEvent::Appear { time: far, node: n, tuple: Arc::clone(&f) },
            ProvEvent::Derive {
                time: far + 5,
                since: far + 5,
                node: n,
                tuple: Arc::clone(&m),
                rule: Sym::new("rm"),
                body: vec![at(&e, 1), at(&f, far)],
                trigger: 1,
            },
            ProvEvent::Appear { time: far + 5, node: n, tuple: Arc::clone(&m) },
            ProvEvent::DeleteBase { time: far + 9, since: 1, node: n, tuple: Arc::clone(&e) },
            ProvEvent::Disappear { time: far + 9, since: 1, node: n, tuple: Arc::clone(&e) },
            ProvEvent::Underive {
                time: far + 9,
                since: far + 5,
                node: n,
                tuple: Arc::clone(&m),
                rule: Sym::new("rm"),
            },
            ProvEvent::Disappear { time: far + 9, since: far + 5, node: n, tuple: m },
            tail,
        ] {
            rec.record(event);
        }
        rec
    }

    /// The clocks' range reaches neither the answers nor the bytes: each
    /// episode has its start and end, the keyed tree of the head finds
    /// both body episodes, a clock no row opened at leads nowhere, and the
    /// graph stays far below what a map spanning 2^40 clocks would take.
    #[test]
    fn sparse_clocks_cost_their_count() {
        let (n, far) = (NodeId::new("n"), 1u64 << 40);
        let again = ProvEvent::InsertBase {
            time: far + 20,
            since: far + 20,
            node: n,
            tuple: Arc::new(tuple!("e", 1)),
        };
        let mut rec = sparse_stream(again);
        rec.record(ProvEvent::Appear { time: far + 20, node: n, tuple: Arc::new(tuple!("e", 1)) });
        let g = rec.finish();
        let spans = |t: Tuple| -> Vec<(LogicalTime, Option<LogicalTime>)> {
            g.episodes(&TupleRef::new(n, t)).iter().map(|ep| (ep.start, ep.end)).collect()
        };
        assert_eq!(spans(tuple!("e", 1)), [(1, Some(far + 9)), (far + 20, None)]);
        assert_eq!(spans(tuple!("f", 2)), [(far, None)]);
        assert_eq!(spans(tuple!("m", 3)), [(far + 5, Some(far + 9))]);

        let m = TupleRef::new(n, tuple!("m", 3));
        let tree = crate::extract_tree_since(&g, &m, far + 5).expect("m's episode at 2^40 + 5");
        let leaves: Vec<String> = tree
            .nodes()
            .iter()
            .filter(|t| matches!(t.kind, VertexKind::Insert))
            .map(|t| format!("{}@{}", t.tuple, t.time))
            .collect();
        assert_eq!(leaves, ["e(1)@1", format!("f(2)@{far}").as_str()]);
        assert!(crate::extract_tree_since(&g, &m, far + 4).is_none());
        assert!(crate::extract_tree_since(&g, &m, 1 << 50).is_none());
        assert_eq!(g.row_at(far + 20), Some(3));
        assert_eq!(crate::well_formedness_violations(&g), Vec::<String>::new());
        assert!(g.bytes() < 64 * 1024, "{} bytes for four episodes", g.bytes());
    }

    /// A `since` inside a page of clocks the recorder keeps, at a clock no
    /// row opened at, names no episode: recording stops there.
    #[test]
    #[should_panic(expected = "an event's `since` names an opened episode of its located tuple")]
    fn a_since_between_sparse_clocks_panics() {
        let far = 1u64 << 40;
        sparse_stream(ProvEvent::DeleteBase {
            time: far + 30,
            since: far + 1,
            node: NodeId::new("n"),
            tuple: Arc::new(tuple!("f", 2)),
        });
    }

    #[test]
    fn reappearance_creates_second_episode() {
        let mut eng = Engine::new(fig4_program(), GraphRecorder::new());
        let n = NodeId::new("n1");
        eng.schedule_insert(0, n, tuple!("b", 1, 2, 3)).unwrap();
        eng.run().unwrap();
        eng.schedule_delete(10, n, tuple!("b", 1, 2, 3)).unwrap();
        eng.run().unwrap();
        eng.schedule_insert(20, n, tuple!("b", 1, 2, 3)).unwrap();
        eng.run().unwrap();
        let g = eng.into_sink().finish();
        let b = TupleRef::new(n, tuple!("b", 1, 2, 3));
        let eps = g.episodes(&b);
        assert_eq!(eps.len(), 2);
        assert!(eps[0].end.is_some());
        assert!(eps[1].end.is_none());
    }
}
