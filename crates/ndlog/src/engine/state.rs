//! The engine's state: a live tuple is one row.
//!
//! A node's tables sit in a vector by the program's table index (a
//! table's rank in name order, `Program::table_index`), and a table keeps
//! its tuples as rows of one slab: a fixed-size [`Slot`] per row, holding
//! the tuple, its base flag, its appearance time, its head id and the
//! heads of two linked lists — its derivation records and its reverse
//! dependencies. Everywhere else the engine names a tuple by a [`RowRef`]
//! — `(node, table, row)` indices, 12 bytes, `Copy` — so the index
//! buckets, the trie entries, the derivation bodies, the dependents, the
//! pending deltas and a scheduled derivation's body hold ids, not
//! `Arc<Tuple>`s: a tuple's `Arc` is cloned when its row is created, when
//! an event names it, and at the public read boundary, and nowhere else.
//!
//! The lists live in per-table pools: derivation records in one vector,
//! their bodies in another (runs of `RowRef`s, a free list per run
//! length), dependents in a third, each record linked to the next by
//! index and every freed record reused last-freed first. A table is
//! therefore a handful of vectors however many rows it holds, and
//! dropping it frees those vectors, its key's blocks and its index
//! buckets — not a block per derivation, body or dependents list.
//!
//! **A tuple is found once.** A derived head is looked up by value in one
//! place: where it is delivered, the head interner ([`Heads`]) gives it a
//! `u32` head id — one per distinct head for the engine's life, however
//! many nodes and episodes it reaches — and a derived table keys its rows
//! by that id in an open-addressed [`IdTable`], so the row is found
//! without reading a tuple again. A base tuple never goes through the
//! interner: it stays the log's allocation, held as scheduled, and a base
//! table keys its rows by content in a B-tree ordered by `args`. That is
//! `Tuple`'s order within a table, so the row map is also a base table's
//! tuple order; a derived table has none, and the readers an order reaches
//! — [`NodeView::table`], [`NodeView::all`] and through them
//! `Engine::nodes` and every final-table dump — sort a derived table's
//! rows by `args` when they read them. A join scans rows in slab order and
//! puts its matches in nested-loop order itself, and
//! [`NodeView::prefix_candidates`] sorts its trie's candidates: no order an
//! id gives reaches the stream.
//!
//! **A content keeps its row.** A row is never given to another tuple:
//! when a tuple disappears its row stays, dead (out of every index and
//! trie, with no derivations and no dependents), and a re-insertion of the
//! same tuple — by content for a base tuple, by head id for a derived one
//! — brings the same row back. That is what makes a dependent an id.
//! Dependents are never pruned: an entry left by a derivation that has
//! since gone names its head for as long as the body tuple lives, and when
//! the body tuple goes the cascade visits that head — by content, in the
//! oracle, which keeps its lists as tuples. Because a content keeps its
//! row, the stale entry names exactly the tuple the oracle's names:
//! nothing if it is not live, the same tuple in a later episode if it is.
//! A dead row costs its slot and its key's entry; the tuple behind it is
//! the interner's (a head) or the log's (a base tuple) either way, and the
//! churn the workloads run re-issues the tuples it withdrew, so it finds
//! its rows again.
//!
//! [`NodeView`] is the read-only window natives and stateful builtins
//! get, over the engine's tables or over the reference evaluator's own
//! plain maps, and the read surface of [`crate::engine::Engine::nodes`]: it
//! resolves ids back to tuples, and a [`TupleState`] it returns is built
//! for the caller.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasher;
use std::sync::Arc;

use dp_types::{
    IdTable, LogicalTime, NodeId, Prefix, PrefixTrie, Probe, Sym, Tuple, TupleRef, Value,
    WordBuildHasher,
};

use super::{DerivRecord, TupleState};
use crate::compile::{IndexSpecs, TrieSpecs};
use crate::program::Program;
use crate::reference::NodeTables;

/// The null link of the pools' lists.
pub(super) const NIL: u32 = u32::MAX;

/// Where a tuple lives: its node's index in the engine, its table's index
/// in the program, its row in the table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct RowRef {
    pub(super) node: u32,
    pub(super) table: u32,
    pub(super) row: u32,
}

/// The key of a table's row map: the tuple, compared by `args` alone (a
/// table's rows share its name) and found by `args` as a slice.
#[derive(Debug)]
struct ByArgs(Arc<Tuple>);

impl PartialEq for ByArgs {
    fn eq(&self, other: &Self) -> bool {
        self.0.args == other.0.args
    }
}

impl Eq for ByArgs {}

impl PartialOrd for ByArgs {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ByArgs {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.args.cmp(&other.0.args)
    }
}

impl Borrow<[Value]> for ByArgs {
    fn borrow(&self) -> &[Value] {
        &self.0.args
    }
}

/// One row of a table.
#[derive(Debug)]
pub(super) struct Slot {
    pub(super) tuple: Arc<Tuple>,
    /// When the tuple (last) appeared.
    pub(super) appeared_at: LogicalTime,
    /// The first of its derivation records, in recording order.
    derivs: u32,
    /// The last dependent registered; the list runs latest first.
    deps: u32,
    /// A derived table's row: the head id of its tuple ([`NIL`] in a base
    /// table's), the key its table files it under.
    head: u32,
    /// Inserted as a base tuple (counts as support).
    pub(super) base: bool,
    /// Present: support above zero. A dead row is in no index or trie.
    pub(super) live: bool,
}

impl Slot {
    /// A dead row of `tuple`, filed under head id `head` ([`NIL`] for a
    /// base tuple).
    fn dead(tuple: Arc<Tuple>, head: u32) -> Self {
        Slot {
            tuple,
            appeared_at: 0,
            derivs: NIL,
            deps: NIL,
            head,
            base: false,
            live: false,
        }
    }
}

/// A record of a pool, linked to the next by index.
trait Linked {
    fn next(&self) -> u32;
    fn set_next(&mut self, next: u32);
}

/// Fixed-size records in one vector, linked by index; a freed record is
/// the next one handed out.
#[derive(Debug)]
struct Pool<T> {
    items: Vec<T>,
    free: u32,
}

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Pool {
            items: Vec::new(),
            free: NIL,
        }
    }
}

impl<T: Linked> Pool<T> {
    fn alloc(&mut self, item: T) -> u32 {
        if self.free == NIL {
            self.items.push(item);
            (self.items.len() - 1) as u32
        } else {
            let at = self.free;
            self.free = self.items[at as usize].next();
            self.items[at as usize] = item;
            at
        }
    }

    fn release(&mut self, at: u32) {
        self.items[at as usize].set_next(self.free);
        self.free = at;
    }
}

/// One derivation record of a row: the public [`DerivRecord`] with its
/// body a run of the table's body pool.
#[derive(Clone, Copy, Debug)]
struct Deriv {
    rule: Sym,
    time: LogicalTime,
    body: u32,
    len: u32,
    trigger: u32,
    next: u32,
}

impl Linked for Deriv {
    fn next(&self) -> u32 {
        self.next
    }
    fn set_next(&mut self, next: u32) {
        self.next = next;
    }
}

/// One reverse dependency: a head derived from the row holding it.
#[derive(Clone, Copy, Debug)]
struct Dep {
    head: RowRef,
    next: u32,
}

impl Linked for Dep {
    fn next(&self) -> u32 {
        self.next
    }
    fn set_next(&mut self, next: u32) {
        self.next = next;
    }
}

/// Derivation bodies: runs of `RowRef`s in one vector. A freed run goes
/// on the free list of its length (threaded through its first entry's
/// `row`), and the next body of that length takes it.
#[derive(Debug, Default)]
struct Bodies {
    refs: Vec<RowRef>,
    /// By run length: the first free run.
    free: Vec<u32>,
}

impl Bodies {
    fn alloc(&mut self, body: &[RowRef]) -> u32 {
        let len = body.len();
        match self.free.get(len) {
            Some(&start) if start != NIL && len > 0 => {
                let at = start as usize;
                self.free[len] = self.refs[at].row;
                self.refs[at..at + len].copy_from_slice(body);
                start
            }
            _ => {
                let start = self.refs.len() as u32;
                self.refs.extend_from_slice(body);
                start
            }
        }
    }

    fn get(&self, start: u32, len: u32) -> &[RowRef] {
        &self.refs[start as usize..(start + len) as usize]
    }

    fn release(&mut self, start: u32, len: u32) {
        let len = len as usize;
        if len == 0 {
            return;
        }
        if self.free.len() <= len {
            self.free.resize(len + 1, NIL);
        }
        self.refs[start as usize].row = self.free[len];
        self.free[len] = start;
    }
}

/// One prefix-trie access path of a table (see `crate::compile`).
///
/// The trie holds the live rows whose value at the indexed column is
/// prefix-like under the exact promotion rule of `prefix_contains`
/// (`Value::Prefix` as-is, `Value::Ip` as a `/32` host prefix). Everything
/// else — wrong arity aside — goes into the `other` bucket, ascending,
/// which every probe returns alongside the trie walk: the scan path would
/// have fed those tuples to the constraint and surfaced a type error, so
/// the trie path must produce them too for byte-identical behavior.
#[derive(Debug, Default)]
struct TrieIndex {
    trie: PrefixTrie<u32>,
    other: Vec<u32>,
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

    fn insert(&mut self, tuple: &Tuple, row: u32, col: usize) {
        match Self::route(tuple, col) {
            Some(Ok(p)) => {
                self.trie.insert(p, row);
            }
            Some(Err(())) => insert_sorted(&mut self.other, row),
            None => {}
        }
    }

    fn remove(&mut self, tuple: &Tuple, row: u32, col: usize) {
        match Self::route(tuple, col) {
            Some(Ok(p)) => {
                self.trie.remove(p, &row);
            }
            Some(Err(())) => remove_sorted(&mut self.other, row),
            None => {}
        }
    }
}

fn insert_sorted(bucket: &mut Vec<u32>, row: u32) {
    if let Err(at) = bucket.binary_search(&row) {
        bucket.insert(at, row);
    }
}

fn remove_sorted(bucket: &mut Vec<u32>, row: u32) {
    if let Ok(at) = bucket.binary_search(&row) {
        bucket.remove(at);
    }
}

/// Fills `key` with the values of `cols` in `tuple`; `false` if any
/// column is out of range (such a tuple can never match the atom the
/// index serves).
fn index_key(tuple: &Tuple, cols: &[usize], key: &mut Vec<Value>) -> bool {
    key.clear();
    key.extend(cols.iter().map_while(|&c| tuple.args.get(c).cloned()));
    key.len() == cols.len()
}

/// The head interner: every distinct derived tuple the engine has
/// delivered, once, by a `u32` head id given in delivery order, with the
/// hash it is filed under. A head reached at several nodes, or re-derived
/// in a later episode, is one allocation and one id; a derived table's rows
/// are keyed by that id. Base tuples never come here: they stay the log's
/// allocations, and no head can equal one (heads belong to `Derived`
/// tables, base operations to the others).
///
/// The hash is [`WordBuildHasher`]'s, and growing the table re-files ids
/// by the stored hashes, so a tuple is read when it is compared, never to
/// be re-hashed.
#[derive(Debug, Default)]
pub(super) struct Heads {
    heads: Vec<Head>,
    table: IdTable,
}

/// One interned head: its hash beside it, so a probe compares the hash
/// before it reads the tuple.
#[derive(Debug)]
struct Head {
    hash: u64,
    tuple: Arc<Tuple>,
}

impl Heads {
    fn hash(tuple: &Tuple) -> u64 {
        WordBuildHasher::default().hash_one(tuple)
    }

    /// The id of `tuple`, interned now if it is new.
    fn intern(&mut self, tuple: Tuple) -> u32 {
        let hash = Self::hash(&tuple);
        let heads = &self.heads;
        let is = |id: u32| {
            let head = &heads[id as usize];
            head.hash == hash && *head.tuple == tuple
        };
        match self.table.entry(hash, (), is, |(), id| heads[id as usize].hash) {
            Probe::Found(id) => id,
            Probe::Vacant(slot) => {
                let id = self.heads.len() as u32;
                self.heads.push(Head {
                    hash,
                    tuple: Arc::new(tuple),
                });
                self.table.fill(slot, (), id);
                id
            }
        }
    }

    /// The id of `tuple`, if it was ever interned.
    fn find(&self, tuple: &Tuple) -> Option<u32> {
        let hash = Self::hash(tuple);
        self.table.find(hash, (), |id| {
            let head = &self.heads[id as usize];
            head.hash == hash && *head.tuple == *tuple
        })
    }

    /// How many heads are interned.
    pub(super) fn len(&self) -> usize {
        self.heads.len()
    }
}

/// One table of one node: its rows, the key that finds a tuple's row —
/// the content for a base table, the head id for a derived one — the
/// secondary hash indexes and prefix tries the program's join plans
/// registered for it, and the pools its rows' lists live in.
///
/// `indexes[slot]` maps a key (the values of `specs[slot]`'s columns) to
/// the bucket of live rows with those values, ascending. The `HashMap` is
/// hashed by `dp_types::WordHasher` (seedless, a word per step) and only
/// ever probed by key, never iterated, so its iteration order cannot leak
/// into the event stream. `tries[slot]` is the prefix trie over column
/// `trie_specs[slot]`, answering `prefix_contains` probes in O(32)
/// instead of a full scan. Neither order reaches the stream: a join sorts
/// its matches into nested-loop order, and
/// [`NodeView::prefix_candidates`] sorts its candidates by value.
#[derive(Debug)]
pub(super) struct Table {
    specs: IndexSpecs,
    trie_specs: TrieSpecs,
    /// Rows hold derived heads, keyed by `by_head`; otherwise base tuples,
    /// keyed by `by_args`.
    derived: bool,
    /// A base table's rows by content, in tuple order.
    by_args: BTreeMap<ByArgs, u32>,
    /// A derived table's rows by head id (each row's `head`).
    by_head: IdTable,
    pub(super) rows: Vec<Slot>,
    /// How many rows are live.
    live: usize,
    indexes: Vec<HashMap<Vec<Value>, Vec<u32>, WordBuildHasher>>,
    tries: Vec<TrieIndex>,
    derivs: Pool<Deriv>,
    bodies: Bodies,
    deps: Pool<Dep>,
    /// Clock of the most recent appearance in this table. Lets `as_of`-
    /// horizon probes (see the engine's module docs on batching) skip the
    /// per-candidate `appeared_at` check entirely whenever nothing in the
    /// table is newer than the horizon — the common case, since only
    /// same-batch insertions into a probed table can be "too new".
    last_appear: LogicalTime,
    /// Scratch for the index key of the row being indexed or unindexed:
    /// buckets are probed with it as a slice, and only a new bucket takes
    /// an owned copy.
    key_buf: Vec<Value>,
}

impl Table {
    /// An empty table with the access paths `specs` and `trie_specs`,
    /// built when its first row goes live: a table no tuple ever reaches
    /// allocates nothing.
    fn new(specs: &IndexSpecs, trie_specs: &TrieSpecs, derived: bool) -> Self {
        Table {
            specs: Arc::clone(specs),
            trie_specs: Arc::clone(trie_specs),
            derived,
            by_args: BTreeMap::new(),
            by_head: IdTable::new(),
            rows: Vec::new(),
            live: 0,
            indexes: Vec::new(),
            tries: Vec::new(),
            derivs: Pool::default(),
            bodies: Bodies::default(),
            deps: Pool::default(),
            last_appear: 0,
            key_buf: Vec::new(),
        }
    }

    /// True when `row` is visible at the `as_of` horizon (a live row's
    /// own clock is read only when something in the table is newer).
    fn visible(&self, row: u32, as_of: LogicalTime) -> bool {
        self.last_appear <= as_of || self.rows[row as usize].appeared_at <= as_of
    }

    /// Live rows that appeared no later than `as_of`, in row order: what
    /// a join scans, whose matches are put in nested-loop order after.
    pub(super) fn scan(&self, as_of: LogicalTime) -> impl Iterator<Item = (u32, &Tuple)> {
        let rows = self.rows.iter().enumerate();
        rows.filter(move |(_, slot)| slot.live && slot.appeared_at <= as_of)
            .map(|(row, slot)| (row as u32, &*slot.tuple))
    }

    /// [`Table::scan`]'s rows in tuple order, for the readers an order
    /// reaches: a base table walks its row map, a derived table sorts.
    fn in_order(&self, as_of: LogicalTime) -> impl Iterator<Item = (u32, &Tuple)> {
        if !self.derived {
            let keyed = self.by_args.values().map(|&row| (row, &self.rows[row as usize]));
            return Either::Left(
                keyed
                    .filter(move |(_, slot)| slot.live && slot.appeared_at <= as_of)
                    .map(|(row, slot)| (row, &*slot.tuple)),
            );
        }
        let mut rows: Vec<(u32, &Tuple)> = self.scan(as_of).collect();
        // One table: its rows' order is their arguments'.
        rows.sort_unstable_by(|a, b| a.1.args.cmp(&b.1.args));
        Either::Right(rows.into_iter())
    }

    /// Live rows whose `specs[slot]` columns equal `key` and which
    /// appeared no later than `as_of`.
    pub(super) fn probe(
        &self,
        slot: usize,
        key: &[Value],
        as_of: LogicalTime,
    ) -> impl Iterator<Item = (u32, &Tuple)> {
        let bucket = self.indexes.get(slot).and_then(|ix| ix.get(key));
        bucket
            .into_iter()
            .flatten()
            .filter(move |&&row| self.visible(row, as_of))
            .map(|&row| (row, &*self.rows[row as usize].tuple))
    }

    /// Upper bound on the candidates [`Table::probe_prefix`] yields for
    /// `(slot, ip)` — bucket sizes along the trie path plus the
    /// non-prefix-like overflow, ignoring the `as_of` horizon. Used to pick
    /// the most selective trie when a step has several probe candidates.
    pub(super) fn estimate_prefix(&self, slot: usize, ip: u32) -> usize {
        self.tries
            .get(slot)
            .map_or(0, |ti| ti.trie.count_matches(ip) + ti.other.len())
    }

    /// Live rows that can satisfy a `prefix_contains(_, ip)` constraint on
    /// trie slot `slot`, respecting the `as_of` horizon: first the trie
    /// walk (prefixes containing `ip`, shortest first), then the
    /// non-prefix-like bucket (whose members the constraint will reject
    /// with exactly the error the scan path would have raised).
    pub(super) fn probe_prefix(
        &self,
        slot: usize,
        ip: u32,
        as_of: LogicalTime,
    ) -> impl Iterator<Item = (u32, &Tuple)> {
        self.tries
            .get(slot)
            .into_iter()
            .flat_map(move |ti| ti.trie.matches(ip).chain(ti.other.iter()))
            .filter(move |&&row| self.visible(row, as_of))
            .map(|&row| (row, &*self.rows[row as usize].tuple))
    }

    /// True when no row is live.
    pub(super) fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Enters `row`, dead until now, into every index and trie.
    fn make_live(&mut self, row: u32, now: LogicalTime) {
        if self.indexes.len() < self.specs.len() || self.tries.len() < self.trie_specs.len() {
            self.indexes.resize_with(self.specs.len(), HashMap::default);
            self.tries
                .resize_with(self.trie_specs.len(), TrieIndex::default);
        }
        self.last_appear = self.last_appear.max(now);
        self.live += 1;
        let slot = &mut self.rows[row as usize];
        slot.live = true;
        let tuple = &*slot.tuple;
        let key = &mut self.key_buf;
        for (index, cols) in self.indexes.iter_mut().zip(self.specs.iter()) {
            if !index_key(tuple, cols, key) {
                continue;
            }
            match index.get_mut(key.as_slice()) {
                Some(bucket) => insert_sorted(bucket, row),
                None => {
                    index.insert(key.clone(), vec![row]);
                }
            }
        }
        for (trie, &col) in self.tries.iter_mut().zip(self.trie_specs.iter()) {
            trie.insert(tuple, row, col);
        }
    }

    /// Takes live `row` out of every index and trie, leaving it dead, and
    /// returns its dependents list (latest first).
    fn retire(&mut self, row: u32) -> u32 {
        self.live -= 1;
        let slot = &mut self.rows[row as usize];
        slot.live = false;
        let deps = std::mem::replace(&mut slot.deps, NIL);
        let tuple = &*slot.tuple;
        let key = &mut self.key_buf;
        for (index, cols) in self.indexes.iter_mut().zip(self.specs.iter()) {
            if !index_key(tuple, cols, key) {
                continue;
            }
            if let Some(bucket) = index.get_mut(key.as_slice()) {
                remove_sorted(bucket, row);
                if bucket.is_empty() {
                    index.remove(key.as_slice());
                }
            }
        }
        for (trie, &col) in self.tries.iter_mut().zip(self.trie_specs.iter()) {
            trie.remove(tuple, row, col);
        }
        deps
    }
}

/// The tables of a single node, by the program's table index.
#[derive(Debug)]
pub(super) struct Node {
    pub(super) id: NodeId,
    pub(super) tables: Vec<Table>,
}

impl Node {
    /// The table at index `table`, if the node has it yet.
    pub(super) fn table(&self, table: u32) -> Option<&Table> {
        self.tables.get(table as usize)
    }

    /// The node's tables, given with the access paths `program`
    /// registered for each when the node first holds a tuple.
    fn tables_for(&mut self, program: &Program) -> &mut [Table] {
        if self.tables.is_empty() {
            self.tables.extend((0..program.table_count() as u32).map(|t| {
                let (specs, tries) = program.specs_at(t);
                Table::new(specs, tries, program.derived_at(t))
            }));
        }
        &mut self.tables
    }

    /// Live rows across the node's tables.
    fn live(&self) -> usize {
        self.tables.iter().map(|t| t.live).sum()
    }
}

/// Every node's tables, by node index, and the index of each node: given
/// in the order nodes first hold a tuple.
#[derive(Debug, Default)]
pub(super) struct Nodes {
    ids: BTreeMap<NodeId, u32>,
    pub(super) nodes: Vec<Node>,
    /// Every derived head delivered so far, by head id.
    pub(super) heads: Heads,
}

impl Nodes {
    /// The index of node `id`, if it ever held a tuple.
    pub(super) fn index(&self, id: &NodeId) -> Option<u32> {
        self.ids.get(id).copied()
    }

    /// The index of node `id`, given now if it has none.
    pub(super) fn index_or_insert(&mut self, id: NodeId) -> u32 {
        let next = self.nodes.len() as u32;
        let at = *self.ids.entry(id).or_insert(next);
        if at == next {
            self.nodes.push(Node {
                id,
                tables: Vec::new(),
            });
        }
        at
    }

    /// Every node with its index, in node order.
    pub(super) fn in_order(&self) -> impl Iterator<Item = (&NodeId, u32)> {
        self.ids.iter().map(|(id, &at)| (id, at))
    }

    fn table(&self, r: RowRef) -> &Table {
        &self.nodes[r.node as usize].tables[r.table as usize]
    }

    fn table_mut(&mut self, r: RowRef) -> &mut Table {
        &mut self.nodes[r.node as usize].tables[r.table as usize]
    }

    pub(super) fn slot(&self, r: RowRef) -> &Slot {
        &self.table(r).rows[r.row as usize]
    }

    pub(super) fn slot_mut(&mut self, r: RowRef) -> &mut Slot {
        &mut self.table_mut(r).rows[r.row as usize]
    }

    /// The row of `tuple` at node `node`, live or dead; `None` when the
    /// node never held it.
    pub(super) fn find(&self, program: &Program, node: &NodeId, tuple: &Tuple) -> Option<RowRef> {
        self.find_at(program, self.index(node)?, tuple)
    }

    /// [`Nodes::find`] at the node with index `node`: a base tuple by its
    /// content, a derived one by its head id.
    fn find_at(&self, program: &Program, node: u32, tuple: &Tuple) -> Option<RowRef> {
        let table = program.table_index(&tuple.table)?;
        let t = self.nodes[node as usize].table(table)?;
        let row = if t.derived {
            let head = self.heads.find(tuple)?;
            t.by_head.find(u64::from(head), (), |row| t.rows[row as usize].head == head)?
        } else {
            *t.by_args.get(tuple.args.as_slice())?
        };
        Some(RowRef { node, table, row })
    }

    /// The row of base tuple `tuple` in table `table` at node `node`,
    /// added dead if the table never held it: one descent of the row map
    /// either way.
    pub(super) fn row_of(
        &mut self,
        program: &Program,
        node: u32,
        table: u32,
        tuple: &Arc<Tuple>,
    ) -> RowRef {
        let t = &mut self.nodes[node as usize].tables_for(program)[table as usize];
        let row = match t.by_args.entry(ByArgs(Arc::clone(tuple))) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let row = t.rows.len() as u32;
                t.rows.push(Slot::dead(Arc::clone(tuple), NIL));
                *e.insert(row)
            }
        };
        RowRef { node, table, row }
    }

    /// The row of derived head `tuple` in table `table` at node `node`,
    /// added dead if the table never held it. This is the one place a head
    /// is looked up by value: interning gives it its head id, and the
    /// table finds the row by that id.
    pub(super) fn head_row(
        &mut self,
        program: &Program,
        node: u32,
        table: u32,
        tuple: Tuple,
    ) -> RowRef {
        let head = self.heads.intern(tuple);
        let tuple = &self.heads.heads[head as usize].tuple;
        let t = &mut self.nodes[node as usize].tables_for(program)[table as usize];
        let rows = &t.rows;
        let is = |row: u32| rows[row as usize].head == head;
        let key = |(), row: u32| u64::from(rows[row as usize].head);
        let row = match t.by_head.entry(u64::from(head), (), is, key) {
            Probe::Found(row) => row,
            Probe::Vacant(at) => {
                let row = t.rows.len() as u32;
                t.rows.push(Slot::dead(Arc::clone(tuple), head));
                t.by_head.fill(at, (), row);
                row
            }
        };
        RowRef { node, table, row }
    }

    /// Makes dead row `r` live as of `now`: indexed, and appeared now.
    pub(super) fn make_live(&mut self, r: RowRef, now: LogicalTime) {
        self.table_mut(r).make_live(r.row, now);
        self.slot_mut(r).appeared_at = now;
    }

    /// Makes live row `r`, whose support is gone, dead; returns its
    /// dependents list for [`Nodes::next_dependent`], in registration
    /// order.
    pub(super) fn retire(&mut self, r: RowRef) -> u32 {
        let t = self.table_mut(r);
        let mut cur = t.retire(r.row);
        // The list runs latest first: turn it around, in place.
        let mut prev = NIL;
        while cur != NIL {
            let dep = &mut t.deps.items[cur as usize];
            let next = dep.next;
            dep.next = prev;
            prev = cur;
            cur = next;
        }
        prev
    }

    /// The head of dependents entry `at` of retired row `owner`'s list,
    /// and the entry after it; the entry itself is freed.
    pub(super) fn next_dependent(&mut self, owner: RowRef, at: u32) -> (RowRef, u32) {
        let deps = &mut self.table_mut(owner).deps;
        let Dep { head, next } = deps.items[at as usize];
        deps.release(at);
        (head, next)
    }

    /// Registers `head` as derived from live row `body`: if `body`
    /// disappears, `head` is where the cascade looks.
    pub(super) fn depend(&mut self, body: RowRef, head: RowRef) {
        let t = self.table_mut(body);
        let next = t.rows[body.row as usize].deps;
        let at = t.deps.alloc(Dep { head, next });
        t.rows[body.row as usize].deps = at;
    }

    /// True when row `r` already holds a derivation by `rule` from
    /// exactly `body`.
    pub(super) fn has_derivation(&self, r: RowRef, rule: Sym, body: &[RowRef]) -> bool {
        let t = self.table(r);
        let mut cur = t.rows[r.row as usize].derivs;
        while cur != NIL {
            let d = &t.derivs.items[cur as usize];
            if d.rule == rule && t.bodies.get(d.body, d.len) == body {
                return true;
            }
            cur = d.next;
        }
        false
    }

    /// Appends a derivation record to row `r`'s.
    pub(super) fn push_derivation(
        &mut self,
        r: RowRef,
        rule: Sym,
        body: &[RowRef],
        trigger: u32,
        time: LogicalTime,
    ) {
        let t = self.table_mut(r);
        let record = Deriv {
            rule,
            time,
            body: t.bodies.alloc(body),
            len: body.len() as u32,
            trigger,
            next: NIL,
        };
        let at = t.derivs.alloc(record);
        let slot = &t.rows[r.row as usize];
        if slot.derivs == NIL {
            t.rows[r.row as usize].derivs = at;
            return;
        }
        let mut last = slot.derivs;
        while t.derivs.items[last as usize].next != NIL {
            last = t.derivs.items[last as usize].next;
        }
        t.derivs.items[last as usize].next = at;
    }

    /// Removes every derivation of row `r` whose body holds `gone`, in
    /// recording order, calling `withdrawn` with each one's rule.
    pub(super) fn withdraw(&mut self, r: RowRef, gone: RowRef, mut withdrawn: impl FnMut(Sym)) {
        let t = self.table_mut(r);
        let (mut prev, mut cur) = (NIL, t.rows[r.row as usize].derivs);
        while cur != NIL {
            let d = t.derivs.items[cur as usize];
            if t.bodies.get(d.body, d.len).contains(&gone) {
                if prev == NIL {
                    t.rows[r.row as usize].derivs = d.next;
                } else {
                    t.derivs.items[prev as usize].next = d.next;
                }
                t.bodies.release(d.body, d.len);
                t.derivs.release(cur);
                withdrawn(d.rule);
            } else {
                prev = cur;
            }
            cur = d.next;
        }
    }

    /// True when row `r` has at least one derivation.
    pub(super) fn derived(&self, r: RowRef) -> bool {
        self.slot(r).derivs != NIL
    }

    /// Row `r` as the located tuple it holds.
    pub(super) fn tuple_ref(&self, r: RowRef) -> TupleRef {
        TupleRef::new(
            self.nodes[r.node as usize].id,
            Arc::clone(&self.slot(r).tuple),
        )
    }

    /// The public bookkeeping of live row `r`, its bodies resolved to
    /// located tuples.
    pub(super) fn state_of(&self, r: RowRef) -> TupleState {
        let t = self.table(r);
        let slot = &t.rows[r.row as usize];
        let mut derivations = Vec::new();
        let mut cur = slot.derivs;
        while cur != NIL {
            let d = &t.derivs.items[cur as usize];
            derivations.push(DerivRecord {
                rule: d.rule,
                body: t
                    .bodies
                    .get(d.body, d.len)
                    .iter()
                    .map(|&b| self.tuple_ref(b))
                    .collect(),
                trigger: d.trigger as usize,
                time: d.time,
            });
            cur = d.next;
        }
        TupleState {
            base: slot.base,
            derivations,
            appeared_at: slot.appeared_at,
        }
    }
}

/// Two iterators of one item type as one: a [`NodeView`] reads the
/// engine's tables or the oracle's maps.
enum Either<L, R> {
    Left(L),
    Right(R),
}

impl<T, L: Iterator<Item = T>, R: Iterator<Item = T>> Iterator for Either<L, R> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match self {
            Either::Left(l) => l.next(),
            Either::Right(r) => r.next(),
        }
    }
}

/// What a [`NodeView`] reads.
#[derive(Clone, Copy)]
enum Source<'a> {
    /// The engine's node `node`.
    Engine {
        nodes: &'a Nodes,
        program: &'a Program,
        node: u32,
    },
    /// The reference evaluator's tables of the node, if it has any.
    Oracle(Option<&'a NodeTables>),
}

/// A read-only view of one node's tables, handed to native rules and
/// stateful builtins, and what [`crate::engine::Engine::nodes`] and
/// [`crate::reference::FinalTables::nodes`] yield.
///
/// The view carries the `as_of` horizon of the firing it serves: when the
/// engine evaluates a batched delta, tuples that appeared later in the
/// same batch are hidden so natives and builtins observe exactly the
/// state a tuple-at-a-time firing would have shown them.
pub struct NodeView<'a> {
    /// The node being viewed.
    pub node: &'a NodeId,
    source: Source<'a>,
    as_of: LogicalTime,
}

impl<'a> NodeView<'a> {
    /// The engine's node `node` (an index of `nodes`), hiding whatever
    /// appeared after `as_of`.
    pub(super) fn of_engine(
        nodes: &'a Nodes,
        program: &'a Program,
        node: u32,
        as_of: LogicalTime,
    ) -> Self {
        NodeView {
            node: &nodes.nodes[node as usize].id,
            source: Source::Engine {
                nodes,
                program,
                node,
            },
            as_of,
        }
    }

    /// The reference evaluator's `tables` of `node`: all of them. `None`
    /// is a node that holds no tuples (e.g. a trigger delivered to a node
    /// nothing was ever stored on): joins find no candidates and builtins
    /// and natives see empty tables.
    pub(crate) fn of_oracle(node: &'a NodeId, tables: Option<&'a NodeTables>) -> Self {
        NodeView {
            node,
            source: Source::Oracle(tables),
            as_of: LogicalTime::MAX,
        }
    }

    /// The engine's table `table` at this node, if it ever held a row.
    fn engine_table(&self, table: &Sym) -> Option<&'a Table> {
        match self.source {
            Source::Engine {
                nodes,
                program,
                node,
            } => nodes.nodes[node as usize].table(program.table_index(table)?),
            Source::Oracle(_) => None,
        }
    }

    /// Live tuples of `table` on this node, in tuple order.
    pub fn table(&self, table: &Sym) -> impl Iterator<Item = &'a Tuple> + 'a {
        let as_of = self.as_of;
        match self.source {
            Source::Engine { .. } => Either::Left(
                self.engine_table(table)
                    .into_iter()
                    .flat_map(move |t| t.in_order(as_of).map(|(_, tuple)| tuple)),
            ),
            Source::Oracle(tables) => Either::Right(
                tables
                    .and_then(|ts| ts.get(table))
                    .into_iter()
                    .flat_map(|rows| rows.keys().map(|t| &**t)),
            ),
        }
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
        let probe = self.engine_table(table).and_then(|t| {
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
                .min_by_key(|&(slot, col, ip, pi)| (t.estimate_prefix(slot, ip), col, pi))
                .map(|(slot, _, ip, _)| (t, slot, ip))
        });
        match probe {
            Some((t, slot, ip)) => {
                let mut out: Vec<&'a Tuple> = t
                    .probe_prefix(slot, ip, self.as_of)
                    .map(|(_, tuple)| tuple)
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
        match self.source {
            Source::Engine { nodes, .. } => self.engine_row(tuple).is_some_and(|r| {
                let slot = nodes.slot(r);
                slot.live && slot.appeared_at <= self.as_of
            }),
            Source::Oracle(tables) => {
                tables.is_some_and(|ts| ts.get(&tuple.table).is_some_and(|t| t.contains_key(tuple)))
            }
        }
    }

    /// The engine's row of `tuple` at this node, live or dead.
    fn engine_row(&self, tuple: &Tuple) -> Option<RowRef> {
        let Source::Engine {
            nodes,
            program,
            node,
        } = self.source
        else {
            return None;
        };
        nodes.find_at(program, node, tuple)
    }

    /// The state record of `tuple`, if present.
    pub fn get(&self, tuple: &Tuple) -> Option<TupleState> {
        match self.source {
            Source::Engine { nodes, .. } => {
                let r = self.engine_row(tuple)?;
                let slot = nodes.slot(r);
                (slot.live && slot.appeared_at <= self.as_of).then(|| nodes.state_of(r))
            }
            Source::Oracle(tables) => tables?.get(&tuple.table)?.get(tuple).cloned(),
        }
    }

    /// Every live tuple on the node with its state, tables in name order
    /// and each in tuple order.
    pub fn all(&self) -> impl Iterator<Item = (&'a Tuple, TupleState)> + 'a {
        let as_of = self.as_of;
        match self.source {
            Source::Engine { nodes, node, .. } => {
                let tables = nodes.nodes[node as usize].tables.iter().enumerate();
                Either::Left(tables.flat_map(move |(ti, t)| {
                    t.in_order(as_of).map(move |(row, tuple)| {
                        let r = RowRef {
                            node,
                            table: ti as u32,
                            row,
                        };
                        (tuple, nodes.state_of(r))
                    })
                }))
            }
            Source::Oracle(tables) => Either::Right(
                tables
                    .into_iter()
                    .flat_map(|ts| ts.values())
                    .flat_map(|rows| rows.iter().map(|(t, s)| (&**t, s.clone()))),
            ),
        }
    }

    /// How many tuples are live on the node.
    pub fn len(&self) -> usize {
        match self.source {
            Source::Engine { nodes, node, .. } if self.as_of == LogicalTime::MAX => {
                nodes.nodes[node as usize].live()
            }
            Source::Oracle(tables) => tables.map_or(0, |ts| ts.values().map(BTreeMap::len).sum()),
            Source::Engine { nodes, node, .. } => nodes.nodes[node as usize]
                .tables
                .iter()
                .map(|t| t.scan(self.as_of).count())
                .sum(),
        }
    }

    /// True when the node holds no live tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
