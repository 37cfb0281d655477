//! A query's slice of a log, and its closure.
//!
//! The program's slice plan ([`dp_ndlog::slice`]) says which base events
//! a located tuple's provenance can depend on: a key-group table's events
//! for the queried keys, an owned table's for the owners in a set, every
//! other table's always. A [`Cut`] is one such choice — the keys and the
//! owners — and the log it keeps is the whole log's events it holds, in
//! replay order.
//!
//! A table the plan guards is held more narrowly still: at a kept owner,
//! only the tuples whose guarded prefixes contain one of the cut's
//! *addresses* — a flow entry matching neither packet is in neither tree.
//!
//! The owner set starts at the queried tuples' owners and the nodes where
//! the queried keys enter; the addresses at those of the queried tuples
//! and of the keys' base tuples, and at the prefixes of a guarded tuple
//! the cut is asked to hold. That is not yet closed: a kept message can
//! carry a key-group tuple to a node whose owned state was not kept, and
//! there it would find no flow table; a rewrite can give a packet an
//! address no kept entry covers. So the slice is replayed, recording; the
//! nodes outside the set where a key-group tuple has been join it, and so
//! do the addresses such a tuple held and the ones a builtin probed a
//! guarded table with; a builtin that read a guarded table any other way
//! gives the guards up (`replay.slice_refused{why=guard-read}`); and the
//! round repeats. The recording of the round that finds nothing new is
//! the replay's. What is read of it afterwards through
//! [`dp_ndlog::Engine::view`] — MAKEAPPEAR asking a builtin of the bad
//! state — is noted too, and closes the cut once more
//! ([`crate::Replayed::widen`]). Rounds that together would replay more
//! events than the log holds give way to one replay of the whole log
//! ([`crate::Execution::replay_slice`]). A [`Slice`] keeps its cut log:
//! an update whose changes the cut holds patches that log, and a cut that
//! grew is cut again.
//!
//! A cut reads the log through the [`Index`] the log keeps for its program
//! ([`EventLog::index`]), finding its keyed events by key and its guarded
//! events by address: what it reads is the size of what it holds, not of
//! the log. MAKEAPPEAR finds a base tuple by its key the same way
//! ([`crate::Replayed::base_tuples_by_key`]).
//!
//! Why a closed slice replays the whole run's provenance of what it keeps:
//! a derived event is due at its trigger's due plus the link delay, not at
//! a count of the events run before it, so a kept event is due at the same
//! time in both runs; the queue pops in `(due, push sequence)` order, and
//! every event the slice pushes is pushed by a kept event in the same
//! relative order as in the whole run. Kept events therefore pop as a
//! subsequence of the whole run's pops, each seeing the kept part of the
//! same state — which the plan's shares make the whole of what it joins
//! with. Stamps are re-ranked (the clock counts fewer events), never
//! reordered. A guarded tuple left out covers no address a held group
//! tuple has: no checking rule joins it with one, what carrying rules
//! derive from it is left out alike, and a builtin probing with the
//! addresses filters it away, so no join, no `best_match!` call and no
//! tree of a held tuple sees the difference.

use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

use dp_ndlog::{Engine, Fields, Needs, Program, ProvenanceSink, Share, SlicePlan, TupleChange};
use dp_trace::Tracer;
use dp_types::{NodeId, Prefix, Sym, Tuple, Value, WordHasher};

use crate::log::{EventLog, Reader};

/// What a slice keeps: the queried keys, the owner set and the addresses
/// a guarded tuple must cover.
#[derive(Debug)]
pub(crate) struct Cut {
    keys: BTreeSet<Value>,
    owners: BTreeSet<Sym>,
    addrs: BTreeSet<u32>,
    /// False once a builtin read a guarded table other than by probing
    /// its guarded columns: every owned tuple is held at its owners.
    guarded: bool,
}

impl Cut {
    /// The cut that holds each of `tuples`.
    pub(crate) fn of<'t>(
        plan: &SlicePlan,
        tuples: impl IntoIterator<Item = (&'t NodeId, &'t Tuple)>,
    ) -> Cut {
        let mut cut = Cut {
            keys: BTreeSet::new(),
            owners: BTreeSet::new(),
            addrs: BTreeSet::new(),
            guarded: true,
        };
        for (node, tuple) in tuples {
            cut.admit(plan, node, tuple);
        }
        cut
    }

    /// Widens the cut to hold `tuple` at `node`; true if it grew.
    fn admit(&mut self, plan: &SlicePlan, node: &NodeId, tuple: &Tuple) -> bool {
        self.reach(plan, node, tuple) | self.cover(plan, tuple)
    }

    /// Widens the keys and owners to reach `tuple` at `node`; true if they
    /// grew.
    fn reach(&mut self, plan: &SlicePlan, node: &NodeId, tuple: &Tuple) -> bool {
        match plan.needs(node, tuple) {
            Needs::Key(key) => self.keys.insert(key) | self.owners.insert(node.0),
            Needs::Owner(owner) => self.owners.insert(owner),
            Needs::Nothing => false,
        }
    }

    /// Widens the addresses by a key-group tuple's, or by the prefixes of
    /// a guarded tuple the guard does not pass yet; true if they grew.
    fn cover(&mut self, plan: &SlicePlan, tuple: &impl Fields) -> bool {
        let addrs: Vec<u32> = match plan.share(&tuple.table()) {
            Share::Key(_) => {
                (0..tuple.arity()).filter_map(|c| tuple.field(c)?.as_ip().ok()).collect()
            }
            _ if plan.covers(tuple, &self.addrs) => Vec::new(),
            _ => plan
                .guard(&tuple.table())
                .iter()
                .filter_map(|&c| Some(tuple.field(c)?.as_prefix().ok()?.addr()))
                .collect(),
        };
        addrs.into_iter().fold(false, |grew, a| self.addrs.insert(a) | grew)
    }

    /// True if the cut holds the events of `tuple` at `node`.
    pub(crate) fn holds(&self, plan: &SlicePlan, node: &NodeId, tuple: &Tuple) -> bool {
        let reached = match plan.needs(node, tuple) {
            Needs::Key(key) => self.keys.contains(&key),
            Needs::Owner(owner) => self.owners.contains(&owner),
            Needs::Nothing => true,
        };
        reached && (!self.guarded || plan.covers(tuple, &self.addrs))
    }

    /// Widens the cut to hold the events every change rewrites, drops or
    /// adds; true if it grew. Patching a cut log then gives the events of
    /// the patched log that matter to what the cut holds: a `before` side
    /// is held whole, and an `after` side at its owners — where it covers
    /// none of the addresses it can join no held tuple, and its events are
    /// the `before` side's, rewritten, as in the whole patched log.
    pub(crate) fn admit_changes(&mut self, plan: &SlicePlan, delta: &[TupleChange]) -> bool {
        let mut grew = false;
        for c in delta {
            if let Some(t) = &c.before {
                grew |= self.admit(plan, &c.node, t);
            }
            if let Some(t) = &c.after {
                grew |= self.reach(plan, &c.node, t);
            }
        }
        grew
    }

    /// The events of `log` the cut holds, in replay order, read off
    /// `index`, and how many owned events at its owners the guard left
    /// out. The nodes where a queried key enters join the owners first, and
    /// the addresses of its base tuples join the addresses. Counted: the
    /// guarded events it tested (`replay.cut_tested`), and those it filed
    /// for an owner no cut had tested (`replay.index_events`). Only the
    /// events it holds are decoded from a log backed by layers.
    pub(crate) fn log(
        &mut self,
        plan: &SlicePlan,
        index: &Index,
        log: &Reader<'_>,
        tracer: &Tracer,
    ) -> (EventLog, usize) {
        let mut keyed: Vec<u32> = Vec::new();
        for key in &self.keys {
            let of_key = |at: &&u32| {
                let e = log.get(**at as usize);
                matches!(plan.needs(&e.node(), &e), Needs::Key(k) if k == *key)
            };
            let filed = index.keyed.get(hash_of(WordHasher::default(), [key]));
            keyed.extend(filed.iter().filter(of_key));
        }
        for &at in &keyed {
            let e = log.get(at as usize);
            self.owners.insert(e.node().0);
            self.cover(plan, &e);
        }
        let mut held: Vec<u32> = index.always.clone();
        held.extend(keyed);
        let (mut dropped, mut tested) = (0, 0);
        for owner in &self.owners {
            let Ok(i) = index.owned.binary_search_by(|o| o.owner.cmp(owner)) else {
                continue;
            };
            let owned = &index.owned[i];
            held.extend(&owned.events);
            if !self.guarded {
                held.extend(&owned.guarded);
                continue;
            }
            let filed = owned.filed.get_or_init(|| {
                tracer.counter("replay.index_events", owned.guarded.len() as u64);
                Filed::of(plan, &owned.guarded, log)
            });
            held.extend(&filed.open);
            // A prefix of length `l` contains `a` where it starts at `a`'s
            // first `l` bits: one start per address and length present.
            let mut nets: Vec<u32> = (0..=32u32)
                .filter(|l| filed.lens >> l & 1 == 1)
                .map(|l| u32::MAX.checked_shl(32 - l).unwrap_or(0))
                .flat_map(|mask| self.addrs.iter().map(move |a| a & mask))
                .collect();
            nets.sort_unstable();
            nets.dedup();
            let before = held.len();
            for net in nets {
                for &at in filed.by_addr.get(net) {
                    let e = log.get(at as usize);
                    let best = best_prefix(plan.guard(&e.table()), &e);
                    if best.is_some_and(|p| p.addr() == net) {
                        tested += 1;
                        if plan.covers(&e, &self.addrs) {
                            held.push(at);
                        }
                    }
                }
            }
            dropped += filed.by_addr.entries.len() - (held.len() - before);
        }
        tracer.counter("replay.cut_tested", tested);
        held.sort_unstable();
        (log.log_of(held.into_iter().map(|at| at as usize), tracer), dropped)
    }

    /// Widens the cut by what `engine` held and read outside it: the
    /// nodes where it held a key-group tuple and the addresses such a
    /// tuple held, the addresses a builtin probed a guarded table with,
    /// and — when a builtin read a guarded table otherwise — the guards
    /// given up. True if it grew: the slice was not closed.
    pub(crate) fn close<S: ProvenanceSink>(&mut self, plan: &SlicePlan, engine: &Engine<S>) -> bool {
        let mut grew = false;
        for table in plan.key_tables() {
            for (node, tuple) in engine.held(&table) {
                grew |= self.owners.insert(node.0) | self.cover(plan, tuple);
            }
        }
        let reads = engine.guard_reads();
        for &ip in &reads.probes {
            grew |= self.addrs.insert(ip);
        }
        if reads.whole && self.guarded {
            self.guarded = false;
            engine.tracer().counter("replay.slice_refused{why=guard-read}", 1);
            grew = true;
        }
        grew
    }

    /// How many owners the cut holds.
    pub(crate) fn owners(&self) -> usize {
        self.owners.len()
    }
}

/// A log's events by what a slice needs to hold them, and by the key
/// MAKEAPPEAR looks a base tuple up by: what an [`EventLog`] keeps for
/// its program ([`EventLog::index`]). An owner's guarded events are filed
/// by address when a cut first tests them; nothing in the index depends
/// on a query. Positions are indices of the log in replay order.
#[derive(Default)]
pub(crate) struct Index {
    /// Key-group events by the hash of their key.
    keyed: Posting,
    /// Owned events by owner, in owner order.
    owned: Vec<Owned>,
    /// Events every slice holds.
    always: Vec<u32>,
    /// Every event by the hash of its node, table and the table's key
    /// columns (node and table alone for a table without a key).
    by_key: Posting,
}

/// One owner's events in an [`Index`].
struct Owned {
    owner: Sym,
    /// Events of unguarded tables.
    events: Vec<u32>,
    /// Events of guarded tables.
    guarded: Vec<u32>,
    /// `guarded` filed by address, by the first cut that tests them.
    filed: OnceLock<Filed>,
}

/// An owner's guarded events by the address their [`best_prefix`] starts
/// at: a tuple covering a cut's addresses has that prefix contain one.
struct Filed {
    by_addr: Posting,
    /// The lengths of those prefixes, one bit each.
    lens: u64,
    /// The events whose guarded columns hold no prefix: every cut passes
    /// them.
    open: Vec<u32>,
}

impl Filed {
    fn of(plan: &SlicePlan, guarded: &[u32], log: &Reader<'_>) -> Filed {
        let (mut by_addr, mut lens, mut open) = (Vec::new(), 0u64, Vec::new());
        for &at in guarded {
            let e = log.get(at as usize);
            match best_prefix(plan.guard(&e.table()), &e) {
                Some(p) => {
                    by_addr.push((p.addr(), at));
                    lens |= 1 << p.len();
                }
                None => open.push(at),
            }
        }
        let by_addr = Posting::new(by_addr.len(), |i| by_addr[i].0, |i| by_addr[i].1);
        Filed { by_addr, lens, open }
    }
}

/// Positions filed in buckets by a 32-bit key, about eight to a bucket:
/// built by one count and one move, read one bucket at a time. A bucket
/// holds its positions ascending, and those of other keys, which the
/// reader skips by reading the log.
#[derive(Default)]
struct Posting {
    bits: u32,
    /// Where each bucket starts in `entries`, and where the last ends.
    starts: Vec<u32>,
    entries: Vec<u32>,
}

impl Posting {
    /// Files `n` positions, the `i`th, `at(i)`, under `key(i)`; positions
    /// must come ascending.
    fn new(n: usize, key: impl Fn(usize) -> u32, at: impl Fn(usize) -> u32) -> Self {
        let bits = (n / 8).max(1).next_power_of_two().trailing_zeros();
        let mut starts = vec![0; (1 << bits) + 1];
        (0..n).for_each(|i| starts[Self::bucket(bits, key(i)) + 1] += 1);
        for b in 1..starts.len() {
            starts[b] += starts[b - 1];
        }
        let (mut next, mut entries) = (starts.clone(), vec![0; n]);
        for i in 0..n {
            let b = Self::bucket(bits, key(i));
            entries[next[b] as usize] = at(i);
            next[b] += 1;
        }
        Posting { bits, starts, entries }
    }

    fn bucket(bits: u32, key: u32) -> usize {
        (u64::from(key.wrapping_mul(0x9E37_79B9)) >> (32 - bits)) as usize
    }

    /// The positions in `key`'s bucket.
    fn get(&self, key: u32) -> &[u32] {
        let b = Self::bucket(self.bits, key);
        self.starts.get(b..b + 2).map_or(&[], |s| &self.entries[s[0] as usize..s[1] as usize])
    }
}

/// `site`'s hash continued by `values`, cut to 32 bits.
fn hash_of<V: Hash>(mut site: WordHasher, values: impl IntoIterator<Item = V>) -> u32 {
    values.into_iter().for_each(|v| v.hash(&mut site));
    site.finish() as u32
}

/// The hash of a node and a table, which `by_key` continues.
fn site(node: &NodeId, table: &Sym) -> WordHasher {
    let mut h = WordHasher::default();
    (node, table).hash(&mut h);
    h
}

/// The most specific prefix among `tuple`'s guarded columns, if one holds
/// a prefix.
fn best_prefix(guard: &[usize], tuple: &impl Fields) -> Option<Prefix> {
    let prefixes = guard.iter().filter_map(|&c| tuple.field(c)?.as_prefix().ok());
    prefixes.max_by_key(|p| p.len())
}

/// The key columns of `table` under `program`, if it declares any.
fn key_of<'p>(program: &'p Program, table: &Sym) -> &'p [usize] {
    program.schemas.get(table).and_then(|s| s.key.as_deref()).unwrap_or(&[])
}

impl Index {
    /// Reads `log` once, by its events' nodes, tables and fields: each
    /// run of one table's events at one node resolves the table's share,
    /// guard and key once.
    pub(crate) fn of(program: &Program, log: &Reader<'_>) -> Index {
        let plan = program.slice_plan();
        let mut index = Index::default();
        let (mut keyed, mut by_key) = (Vec::new(), Vec::with_capacity(log.len()));
        let (mut slots, mut run, mut slot) = (BTreeMap::new(), None, usize::MAX);
        for (at, e) in log.iter().enumerate() {
            let (node, table) = (e.node(), e.table());
            let (share, guarded, key, at_site) = match run {
                Some((n, t, resolved)) if n == node && t == table => resolved,
                _ => {
                    let key = key_of(program, &table);
                    let guarded = !plan.guard(&table).is_empty();
                    let resolved = (plan.share(&table), guarded, key, site(&node, &table));
                    run = Some((node, table, resolved));
                    resolved
                }
            };
            let at = at as u32;
            by_key.push(hash_of(at_site, key.iter().filter_map(|&c| e.field(c))));
            let owner = match share.needs(&node, &e) {
                Needs::Key(k) => {
                    keyed.push((hash_of(WordHasher::default(), [&k]), at));
                    continue;
                }
                Needs::Nothing => {
                    index.always.push(at);
                    continue;
                }
                Needs::Owner(owner) => owner,
            };
            // Logs come in runs of one owner's events: try the last one first.
            let owned = &mut index.owned;
            if owned.get(slot).is_none_or(|o| o.owner != owner) {
                slot = *slots.entry(owner).or_insert_with(|| {
                    let (events, guarded, filed) = (Vec::new(), Vec::new(), OnceLock::new());
                    owned.push(Owned { owner, events, guarded, filed });
                    owned.len() - 1
                });
            }
            match guarded {
                false => owned[slot].events.push(at),
                true => owned[slot].guarded.push(at),
            }
        }
        index.keyed = Posting::new(keyed.len(), |i| keyed[i].0, |i| keyed[i].1);
        index.by_key = Posting::new(by_key.len(), |i| by_key[i], |i| i as u32);
        index.owned.sort_by_key(|o| o.owner);
        index
    }

    /// The positions of the events of `tuple`'s table at `node` whose key
    /// columns hold `tuple`'s — all of the table's there when it has no
    /// key — ascending.
    pub(crate) fn by_key<'a>(
        &'a self,
        program: &'a Program,
        log: &'a Reader<'_>,
        node: &'a NodeId,
        tuple: &'a Tuple,
    ) -> impl Iterator<Item = usize> + 'a {
        let key = key_of(program, &tuple.table);
        let hash = hash_of(site(node, &tuple.table), key.iter().filter_map(|&c| tuple.args.get(c)));
        self.by_key.get(hash).iter().map(|&at| at as usize).filter(move |&at| {
            let e = log.get(at);
            e.node() == *node
                && e.table() == tuple.table
                && key.iter().all(|&c| e.field(c).as_ref() == tuple.args.get(c))
        })
    }
}

/// The log of a cut of `keys`, `owners` and `addrs` — guarded, unless
/// `guarded` is false — read off the index of `exec`'s log, and how many
/// owned events at its owners the guard left out: scaffolding for the
/// test that holds it to a filter of the whole log.
#[cfg(feature = "testing")]
pub fn cut_log(
    exec: &crate::Execution,
    keys: BTreeSet<Value>,
    owners: BTreeSet<Sym>,
    addrs: BTreeSet<u32>,
    guarded: bool,
) -> (EventLog, usize) {
    let mut cut = Cut { keys, owners, addrs, guarded };
    let index = exec.log.index(&exec.program, &exec.tracer);
    cut.log(exec.program.slice_plan(), &index, &exec.log.reader(), &exec.tracer)
}

/// The slice a [`crate::Replayed`] holds: the cut and the cut's log,
/// unpatched (`None` once the cut has grown past it).
pub(crate) struct Slice {
    pub(crate) cut: Cut,
    pub(crate) log: Option<EventLog>,
}

/// The logs one replay of a slice cut: how many, and the events replayed
/// last, the owners and the owned events the guard left out.
#[derive(Default)]
pub(crate) struct Cuts {
    pub(crate) made: u64,
    pub(crate) events: usize,
    pub(crate) owners: usize,
    pub(crate) dropped: usize,
}
