//! The engine's state: what each node holds.
//!
//! A [`NodeState`] is a node's tables; a [`Table`] keeps its live tuples
//! in deterministic BTree order, each in a [`Slot`] — the public
//! [`TupleState`] bookkeeping plus the tuple's reverse-dependency list —
//! beside the secondary hash indexes and prefix tries the program's join
//! plans registered for the table. [`NodeView`] is the read-only window
//! natives and stateful builtins get. The reference evaluator uses
//! [`NodeState`] as plain storage (no index or trie specs, and it never
//! registers a dependent: it keeps its own lists).
//!
//! Every row of a table carries the table's name, so a table compares its
//! rows by value alone: the tuple map and every access-path bucket are
//! keyed by [`Row`], ordered by `args` and probed with `args` as a slice.
//! Because the name is the first field of `Tuple`'s order and equal
//! within a table, that is the order `Tuple`'s `Ord` gives — every
//! iteration, candidate walk and stream is what it would be under it — and
//! no comparison inside a table starts with a string compare of the name.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use dp_types::{
    LogicalTime, NodeId, Prefix, PrefixTrie, Sym, Tuple, TupleRef, Value, WordBuildHasher,
};

use super::TupleState;
use crate::compile::{IndexSpecs, TrieSpecs};
use crate::program::Program;

/// A row of one table: its tuple, compared by `args` alone (see the
/// module docs), and found by `tuple.args.as_slice()`.
#[derive(Debug)]
struct Row(Arc<Tuple>);

impl PartialEq for Row {
    fn eq(&self, other: &Self) -> bool {
        self.0.args == other.0.args
    }
}

impl Eq for Row {}

impl PartialOrd for Row {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Row {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.args.cmp(&other.0.args)
    }
}

impl Borrow<[Value]> for Row {
    fn borrow(&self) -> &[Value] {
        &self.0.args
    }
}

/// What a table holds per live tuple.
///
/// `dependents` is the tuple's reverse-dependency list: one entry per
/// (derivation, body position) that used this tuple, naming the derived
/// head, in registration order. It lives and dies with the tuple — the
/// `remove` that retires the tuple hands the list to the cascade — so
/// registering a dependent is a lookup in the body tuple's own table, not
/// an insert into an engine-wide map keyed by `(node, tuple)`. Entries are
/// never pruned: a head that has since lost that derivation (or vanished)
/// is simply found unaffected when the cascade gets to it. The list is
/// kept out of [`TupleState`], which is public, shared with the oracle and
/// compared by the differential suites.
#[derive(Debug, Default)]
struct Slot {
    state: TupleState,
    dependents: Vec<TupleRef>,
}

/// One prefix-trie access path of a table (see `crate::compile`).
///
/// The trie holds the tuples whose value at the indexed column is
/// prefix-like under the exact promotion rule of `prefix_contains`
/// (`Value::Prefix` as-is, `Value::Ip` as a `/32` host prefix). Everything
/// else — wrong arity aside — goes into the `other` bucket, which every
/// probe returns alongside the trie walk: the scan path would have fed
/// those tuples to the constraint and surfaced a type error, so the trie
/// path must produce them too for byte-identical behavior.
#[derive(Debug, Default)]
struct TrieIndex {
    trie: PrefixTrie<Row>,
    other: BTreeSet<Row>,
}

impl TrieIndex {
    /// Routes `tuple` to the trie or the `other` bucket. `None` means the
    /// column is out of range — such a tuple can never match the atom the
    /// trie serves, so it is indexed nowhere (like a failed `index_key`).
    fn route(tuple: &Tuple, col: usize) -> Option<std::result::Result<Prefix, ()>> {
        match tuple.args.get(col) {
            Some(Value::Prefix(p)) => Some(Ok(*p)),
            Some(Value::Ip(ip)) => Some(Ok(Prefix::host(*ip))),
            Some(_) => Some(Err(())),
            None => None,
        }
    }

    fn insert(&mut self, tuple: &Arc<Tuple>, col: usize) {
        match Self::route(tuple, col) {
            Some(Ok(p)) => {
                self.trie.insert(p, Row(Arc::clone(tuple)));
            }
            Some(Err(())) => {
                self.other.insert(Row(Arc::clone(tuple)));
            }
            None => {}
        }
    }

    fn remove(&mut self, tuple: &Tuple, col: usize) {
        match Self::route(tuple, col) {
            Some(Ok(p)) => {
                self.trie.remove(p, tuple.args.as_slice());
            }
            Some(Err(())) => {
                self.other.remove(tuple.args.as_slice());
            }
            None => {}
        }
    }
}

/// True when `row` is visible at the `as_of` horizon. `horizon` is the
/// row's table when something in it appeared after `as_of` (only then is
/// the row's own `appeared_at` looked up), `None` when all of it is older.
fn visible(horizon: Option<&Table>, row: &Row, as_of: LogicalTime) -> bool {
    horizon.is_none_or(|t| {
        t.tuples
            .get(row.0.args.as_slice())
            .is_some_and(|s| s.state.appeared_at <= as_of)
    })
}

/// One table of one node: the tuples in deterministic BTree order, plus the
/// secondary hash indexes the program's join plans registered for it.
///
/// `indexes[slot]` maps a key (the values of `specs[slot]`'s columns) to the
/// bucket of live tuples with those values, kept as a `BTreeSet` of rows
/// so index probes still enumerate candidates in tuple order. The
/// `HashMap` layer is hashed by `dp_types::WordHasher` (seedless, a word
/// per step) and only ever probed by key, never iterated, so its iteration
/// order cannot leak into the event stream.
///
/// `tries[slot]` is the prefix trie over column `trie_specs[slot]`,
/// answering `prefix_contains` probes in O(32) instead of a full scan.
#[derive(Debug, Default)]
struct Table {
    specs: IndexSpecs,
    trie_specs: TrieSpecs,
    tuples: BTreeMap<Row, Slot>,
    indexes: Vec<HashMap<Vec<Value>, BTreeSet<Row>, WordBuildHasher>>,
    tries: Vec<TrieIndex>,
    /// Clock of the most recent appearance in this table. Lets `as_of`-
    /// horizon probes (see the module docs on batching) skip the per-
    /// candidate `appeared_at` check entirely whenever nothing in the
    /// table is newer than the horizon — the common case, since only
    /// same-batch insertions into a probed table can be "too new".
    last_appear: LogicalTime,
    /// Scratch for the index key of the tuple being inserted or removed:
    /// buckets are probed with it as a slice, and only a new bucket takes
    /// an owned copy.
    key_buf: Vec<Value>,
}

/// Fills `key` with the values of `cols` in `tuple`; `false` if any
/// column is out of range (such a tuple can never match the atom the
/// index serves).
fn index_key(tuple: &Tuple, cols: &[usize], key: &mut Vec<Value>) -> bool {
    key.clear();
    key.extend(cols.iter().map_while(|&c| tuple.args.get(c).cloned()));
    key.len() == cols.len()
}

impl Table {
    fn with_specs(specs: IndexSpecs, trie_specs: TrieSpecs) -> Self {
        let indexes = specs.iter().map(|_| HashMap::default()).collect();
        let tries = trie_specs.iter().map(|_| TrieIndex::default()).collect();
        Table {
            specs,
            trie_specs,
            tuples: BTreeMap::new(),
            indexes,
            tries,
            last_appear: 0,
            key_buf: Vec::new(),
        }
    }

    /// The state of `tuple`, inserted empty (and indexed) if absent: one
    /// descent of the tuple map either way.
    fn insert(&mut self, tuple: &Arc<Tuple>, now: LogicalTime) -> &mut TupleState {
        match self.tuples.entry(Row(Arc::clone(tuple))) {
            Entry::Occupied(slot) => &mut slot.into_mut().state,
            Entry::Vacant(slot) => {
                self.last_appear = self.last_appear.max(now);
                let key = &mut self.key_buf;
                for (index, cols) in self.indexes.iter_mut().zip(self.specs.iter()) {
                    if !index_key(tuple, cols, key) {
                        continue;
                    }
                    let row = Row(Arc::clone(tuple));
                    match index.get_mut(key.as_slice()) {
                        Some(bucket) => bucket.insert(row),
                        None => index.entry(key.clone()).or_default().insert(row),
                    };
                }
                for (slot, &col) in self.trie_specs.iter().enumerate() {
                    self.tries[slot].insert(tuple, col);
                }
                &mut slot.insert(Slot::default()).state
            }
        }
    }

    /// Retires `tuple`, returning its reverse-dependency list (empty if
    /// the tuple was not there).
    fn remove(&mut self, tuple: &Tuple) -> Vec<TupleRef> {
        let Some(slot) = self.tuples.remove(tuple.args.as_slice()) else {
            return Vec::new();
        };
        let key = &mut self.key_buf;
        for (index, cols) in self.indexes.iter_mut().zip(self.specs.iter()) {
            if !index_key(tuple, cols, key) {
                continue;
            }
            if let Some(bucket) = index.get_mut(key.as_slice()) {
                bucket.remove(tuple.args.as_slice());
                if bucket.is_empty() {
                    index.remove(key.as_slice());
                }
            }
        }
        for (slot, &col) in self.trie_specs.iter().enumerate() {
            self.tries[slot].remove(tuple, col);
        }
        slot.dependents
    }
}

/// The tables of a single node.
#[derive(Debug, Default)]
pub struct NodeState {
    tables: BTreeMap<Sym, Table>,
}

impl NodeState {
    /// Looks up the state of a tuple.
    pub fn get(&self, tuple: &Tuple) -> Option<&TupleState> {
        self.tables
            .get(&tuple.table)
            .and_then(|t| t.tuples.get(tuple.args.as_slice()))
            .map(|slot| &slot.state)
    }

    /// True if the tuple is currently present (support > 0).
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.get(tuple).is_some()
    }

    /// Iterates over the live tuples of one table, in tuple order.
    pub fn table(&self, table: &Sym) -> impl Iterator<Item = (&Tuple, &TupleState)> {
        self.tables
            .get(table)
            .into_iter()
            .flat_map(|t| t.tuples.iter().map(|(row, v)| (&*row.0, &v.state)))
    }

    /// Iterates over all live tuples on the node.
    pub fn all(&self) -> impl Iterator<Item = (&Tuple, &TupleState)> {
        self.tables
            .values()
            .flat_map(|t| t.tuples.iter().map(|(row, v)| (&*row.0, &v.state)))
    }

    /// Total live tuples on the node.
    pub fn len(&self) -> usize {
        self.tables.values().map(|t| t.tuples.len()).sum()
    }

    /// True when the node holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tables.values().all(|t| t.tuples.is_empty())
    }

    /// True when the node holds no live tuples of `table` at all.
    pub(super) fn table_empty(&self, table: &Sym) -> bool {
        self.tables.get(table).is_none_or(|t| t.tuples.is_empty())
    }

    /// Live tuples of `table` that appeared no later than `as_of`, in
    /// tuple order. `LogicalTime::MAX` sees everything.
    pub(super) fn table_arcs(
        &self,
        table: &Sym,
        as_of: LogicalTime,
    ) -> impl Iterator<Item = &Arc<Tuple>> {
        self.tables
            .get(table)
            .into_iter()
            .flat_map(|t| t.tuples.iter())
            .filter(move |(_, s)| s.state.appeared_at <= as_of)
            .map(|(row, _)| &row.0)
    }

    /// Live tuples of `table` whose `specs[slot]` columns equal `key` and
    /// which appeared no later than `as_of`, in tuple order. The index
    /// buckets hold only tuple keys, so the `appeared_at` check needs a
    /// map lookup per candidate — `Table::last_appear` gates it so the
    /// lookup only happens when the table actually holds something newer
    /// than the horizon.
    pub(super) fn probe(
        &self,
        table: &Sym,
        slot: usize,
        key: &[Value],
        as_of: LogicalTime,
    ) -> impl Iterator<Item = &Arc<Tuple>> {
        let table = self.tables.get(table);
        let horizon = table.filter(|t| t.last_appear > as_of);
        table
            .and_then(|t| t.indexes.get(slot))
            .and_then(|ix| ix.get(key))
            .into_iter()
            .flatten()
            .filter(move |row| visible(horizon, row, as_of))
            .map(|row| &row.0)
    }

    /// Upper bound on the candidates [`NodeState::probe_prefix`] yields for
    /// `(table, slot, ip)` — bucket sizes along the trie path plus the
    /// non-prefix-like overflow, ignoring the `as_of` horizon. Used to pick
    /// the most selective trie when a step has several probe candidates.
    pub(super) fn estimate_prefix(&self, table: &Sym, slot: usize, ip: u32) -> usize {
        self.tables
            .get(table)
            .and_then(|t| t.tries.get(slot))
            .map_or(0, |ti| ti.trie.count_matches(ip) + ti.other.len())
    }

    /// Live tuples of `table` that can satisfy a `prefix_contains(_, ip)`
    /// constraint on trie slot `slot`, respecting the `as_of` horizon:
    /// first the trie walk (prefixes containing `ip`, shortest first), then
    /// the non-prefix-like bucket (whose members the constraint will reject
    /// with exactly the error the scan path would have raised). Candidate
    /// order is deterministic; final matches are re-sorted into nested-
    /// loop enumeration order by the caller, like hash-index probes.
    pub(super) fn probe_prefix(
        &self,
        table: &Sym,
        slot: usize,
        ip: u32,
        as_of: LogicalTime,
    ) -> impl Iterator<Item = &Arc<Tuple>> {
        let table = self.tables.get(table);
        let horizon = table.filter(|t| t.last_appear > as_of);
        let trie = table.and_then(|t| t.tries.get(slot));
        trie.into_iter()
            .flat_map(move |ti| ti.trie.matches(ip).chain(ti.other.iter()))
            .filter(move |row| visible(horizon, row, as_of))
            .map(|row| &row.0)
    }

    /// The state of `tuple`, inserted empty if absent. The table is
    /// created on first use with the access paths `program`'s join plans
    /// registered for it — looked up then, not per insert — or with none
    /// (`None`: the oracle's plain storage).
    pub(crate) fn entry(
        &mut self,
        tuple: &Arc<Tuple>,
        program: Option<&Program>,
        now: LogicalTime,
    ) -> &mut TupleState {
        self.tables
            .entry(tuple.table)
            .or_insert_with(|| {
                let specs = program.and_then(|p| p.index_specs_for(&tuple.table));
                let tries = program.and_then(|p| p.trie_specs_for(&tuple.table));
                Table::with_specs(
                    specs.cloned().unwrap_or_default(),
                    tries.cloned().unwrap_or_default(),
                )
            })
            .insert(tuple, now)
    }

    pub(crate) fn get_mut(&mut self, tuple: &Tuple) -> Option<&mut TupleState> {
        self.tables
            .get_mut(&tuple.table)
            .and_then(|t| t.tuples.get_mut(tuple.args.as_slice()))
            .map(|slot| &mut slot.state)
    }

    /// Retires `tuple`, returning its reverse-dependency list for the
    /// cascade (empty if the tuple was not there or nothing used it).
    pub(crate) fn remove(&mut self, tuple: &Tuple) -> Vec<TupleRef> {
        let Some(t) = self.tables.get_mut(&tuple.table) else {
            return Vec::new();
        };
        let dependents = t.remove(tuple);
        if t.tuples.is_empty() {
            self.tables.remove(&tuple.table);
        }
        dependents
    }

    /// Registers `head` as derived from the tuple `body` of this node —
    /// if `body` disappears, `head` is where the cascade looks — and
    /// returns when `body` appeared. `None`, and nothing registered, when
    /// `body` is not live here: re-check, episode and registration are one
    /// lookup.
    pub(super) fn depend(&mut self, body: &Tuple, head: &TupleRef) -> Option<LogicalTime> {
        let slot = self
            .tables
            .get_mut(&body.table)?
            .tuples
            .get_mut(body.args.as_slice())?;
        // Most body tuples have exactly one dependent: the first gets a
        // block of its own size, not `push`'s first step of four.
        if slot.dependents.is_empty() {
            slot.dependents.reserve_exact(1);
        }
        slot.dependents.push(head.clone());
        Some(slot.state.appeared_at)
    }

    /// Takes back the latest [`NodeState::depend`] on `body`. Callers undo
    /// in reverse order of registration, so the entry popped is theirs.
    pub(super) fn undepend(&mut self, body: &Tuple) {
        if let Some(slot) = self
            .tables
            .get_mut(&body.table)
            .and_then(|t| t.tuples.get_mut(body.args.as_slice()))
        {
            slot.dependents.pop();
        }
    }
}

/// A read-only view of one node's tables, handed to native rules and
/// stateful builtins.
///
/// The view carries the `as_of` horizon of the firing it serves: when the
/// engine evaluates a batched delta, tuples that appeared later in the
/// same batch are hidden so natives and builtins observe exactly the
/// state a tuple-at-a-time firing would have shown them.
pub struct NodeView<'a> {
    /// The node being viewed.
    pub node: &'a NodeId,
    state: &'a NodeState,
    as_of: LogicalTime,
}

impl<'a> NodeView<'a> {
    /// A view of `node` hiding whatever appeared after `as_of`. `None`
    /// is a node that holds no tuples (e.g. a trigger delivered to a node
    /// nothing was ever stored on): joins find no candidates and
    /// builtins and natives see empty tables.
    pub(crate) fn new(
        node: &'a NodeId,
        state: Option<&'a NodeState>,
        as_of: LogicalTime,
    ) -> Self {
        static EMPTY: NodeState = NodeState {
            tables: BTreeMap::new(),
        };
        NodeView {
            node,
            state: state.unwrap_or(&EMPTY),
            as_of,
        }
    }

    /// Live tuples of `table` on this node.
    pub fn table(&self, table: &Sym) -> impl Iterator<Item = &'a Tuple> + 'a {
        let as_of = self.as_of;
        self.state
            .table(table)
            .filter(move |(_, s)| s.appeared_at <= as_of)
            .map(|(t, _)| t)
    }

    /// Live tuples of `table` that can satisfy a
    /// `prefix_contains(args[col], ip)` check for at least one of the
    /// given `(col, ip)` pairs, in table (scan) order.
    ///
    /// When the engine maintains a prefix trie on one of the columns this
    /// probes the most selective of them instead of walking the table; the
    /// result is a *superset* of the tuples the caller wants (only one
    /// pair is used for pruning, and non-prefix-like column values are
    /// always included), so callers must re-check every column exactly as
    /// a scan would. With no trie maintained for any of the columns every
    /// live tuple of the table is returned, which is precisely the scan
    /// the caller would otherwise have written.
    /// Either way the caller's filtered result is identical, so stateful
    /// builtins like OpenFlow priority resolution can use this on their
    /// hot path without perturbing replay.
    pub fn prefix_candidates(&self, table: &Sym, probes: &[(usize, u32)]) -> Vec<&'a Tuple> {
        let slot = self.state.tables.get(table).and_then(|t| {
            probes
                .iter()
                .enumerate()
                .filter_map(|(pi, &(col, ip))| {
                    let slot = t.trie_specs.iter().position(|&c| c == col)?;
                    Some((slot, col, ip, pi))
                })
                // Estimate ties break on the column and then the caller's
                // probe order — a total key, so the pick (and the trie
                // counters it drives) is stable across platforms and std
                // implementations.
                .min_by_key(|&(slot, col, ip, pi)| {
                    (self.state.estimate_prefix(table, slot, ip), col, pi)
                })
                .map(|(slot, _, ip, _)| (slot, ip))
        });
        match slot {
            Some((slot, ip)) => {
                let mut out: Vec<&'a Tuple> = self
                    .state
                    .probe_prefix(table, slot, ip, self.as_of)
                    .map(|t| t.as_ref())
                    .collect();
                // One table: its rows' order is their arguments'.
                out.sort_unstable_by(|a, b| a.args.cmp(&b.args));
                out
            }
            None => self.table(table).collect(),
        }
    }

    /// True if `tuple` is currently present on this node.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.get(tuple).is_some()
    }

    /// The state record of `tuple`, if present.
    pub fn get(&self, tuple: &Tuple) -> Option<&'a TupleState> {
        self.state
            .get(tuple)
            .filter(|s| s.appeared_at <= self.as_of)
    }
}
