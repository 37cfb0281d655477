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
//! ([`crate::Replayed::widen`]). Rounds that together would replay more events than the
//! log holds give way to one replay of the whole log
//! ([`crate::Execution::replay_slice`]).
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

use std::collections::BTreeSet;

use dp_ndlog::{Engine, Needs, ProvenanceSink, Share, SlicePlan, TupleChange};
use dp_types::{NodeId, Sym, Tuple, Value};

use crate::exec::Execution;
use crate::log::{BaseEvent, EventLog};

/// What a slice keeps: the queried keys, the owner set and the addresses
/// a guarded tuple must cover.
#[derive(Clone, Debug)]
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
    fn cover(&mut self, plan: &SlicePlan, tuple: &Tuple) -> bool {
        let addrs: Vec<u32> = match plan.share(&tuple.table) {
            Share::Key(_) => tuple.args.iter().filter_map(|v| v.as_ip().ok()).collect(),
            _ if plan.covers(tuple, &self.addrs) => Vec::new(),
            _ => plan
                .guard(&tuple.table)
                .iter()
                .filter_map(|&c| Some(tuple.args.get(c)?.as_prefix().ok()?.addr()))
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
    /// out. The nodes where a queried key enters join the owners first,
    /// and the addresses of its base tuples join the addresses.
    pub(crate) fn log(
        &mut self,
        plan: &SlicePlan,
        index: &Index,
        log: &[BaseEvent],
    ) -> (EventLog, usize) {
        let keyed: Vec<u32> = index
            .keyed
            .iter()
            .filter(|(key, _)| self.keys.contains(key))
            .map(|&(_, at)| at)
            .collect();
        for &at in &keyed {
            let e = &log[at as usize];
            self.owners.insert(e.node.0);
            self.cover(plan, &e.tuple);
        }
        let mut held: Vec<u32> = index.always.clone();
        held.extend(keyed);
        let mut dropped = 0;
        for (owner, events, guarded) in &index.owned {
            if !self.owners.contains(owner) {
                continue;
            }
            held.extend(events);
            if self.guarded {
                let before = held.len();
                let covers = |at: &&u32| plan.covers(&log[**at as usize].tuple, &self.addrs);
                held.extend(guarded.iter().filter(covers));
                dropped += guarded.len() - (held.len() - before);
            } else {
                held.extend(guarded);
            }
        }
        held.sort_unstable();
        let mut out = EventLog::new();
        for at in held {
            out.push(log[at as usize].clone());
        }
        (out, dropped)
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

/// A log's events by what a slice needs to hold them, read once per
/// slice so that each closure round selects instead of re-reading every
/// logged tuple. Positions are log indices, ascending within each list.
#[derive(Default)]
pub(crate) struct Index {
    /// Key-group events with their keys.
    keyed: Vec<(Value, u32)>,
    /// Owned events by owner: those of unguarded tables, and those of
    /// guarded ones.
    owned: Vec<(Sym, Vec<u32>, Vec<u32>)>,
    /// Events every slice holds.
    always: Vec<u32>,
}

impl Index {
    pub(crate) fn of(plan: &SlicePlan, log: &[BaseEvent]) -> Index {
        let mut index = Index::default();
        // Logs come in runs of one owner's events: try the last one first.
        let mut last = 0;
        for (at, e) in log.iter().enumerate() {
            let at = at as u32;
            match plan.needs(&e.node, &e.tuple) {
                Needs::Key(key) => index.keyed.push((key, at)),
                Needs::Owner(owner) => {
                    if index.owned.get(last).is_none_or(|(o, _, _)| *o != owner) {
                        last = match index.owned.iter().position(|(o, _, _)| *o == owner) {
                            Some(i) => i,
                            None => {
                                index.owned.push((owner, Vec::new(), Vec::new()));
                                index.owned.len() - 1
                            }
                        };
                    }
                    let (_, events, guarded) = &mut index.owned[last];
                    if plan.guard(&e.tuple.table).is_empty() {
                        events.push(at);
                    } else {
                        guarded.push(at);
                    }
                }
                Needs::Nothing => index.always.push(at),
            }
        }
        index
    }
}

/// The slice a [`crate::Replayed`] holds: the cut, and the cut log
/// (unpatched) as an execution of its own, which is what the replay and
/// every UPDATETREE of it patch and replay.
pub(crate) struct Slice {
    pub(crate) cut: Cut,
    pub(crate) exec: Execution,
}
