//! A query's slice of a log, and its closure.
//!
//! The program's slice plan ([`dp_ndlog::slice`]) says which base events
//! a located tuple's provenance can depend on: a key-group table's events
//! for the queried keys, an owned table's for the owners in a set, every
//! other table's always. A [`Cut`] is one such choice — the keys and the
//! owners — and the log it keeps is the whole log's events it holds, in
//! replay order.
//!
//! The owner set starts at the queried tuples' owners and the nodes where
//! the queried keys enter. That is not yet closed: a kept message can
//! carry a key-group tuple to a node whose owned state was not kept, and
//! there it would find no flow table. So the slice is replayed, recording,
//! the nodes outside the set where a key-group tuple has been join it, and
//! the round repeats; the recording of the round that finds none is the
//! replay's. Rounds that together would replay more events than the log
//! holds give way to one replay of the whole log
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
//! reordered.

use std::collections::BTreeSet;

use dp_ndlog::{Engine, Needs, ProvenanceSink, SlicePlan, TupleChange};
use dp_types::{NodeId, Sym, Tuple, Value};

use crate::exec::Execution;
use crate::log::{BaseEvent, EventLog};

/// What a slice keeps: the queried keys and the owner set.
#[derive(Clone, Debug, Default)]
pub(crate) struct Cut {
    keys: BTreeSet<Value>,
    owners: BTreeSet<Sym>,
}

impl Cut {
    /// The cut that holds each of `tuples`.
    pub(crate) fn of<'t>(
        plan: &SlicePlan,
        tuples: impl IntoIterator<Item = (&'t NodeId, &'t Tuple)>,
    ) -> Cut {
        let mut cut = Cut::default();
        for (node, tuple) in tuples {
            cut.admit(plan, node, tuple);
        }
        cut
    }

    /// Widens the cut to hold `tuple` at `node`; true if it grew.
    fn admit(&mut self, plan: &SlicePlan, node: &NodeId, tuple: &Tuple) -> bool {
        match plan.needs(node, tuple) {
            Needs::Key(key) => self.keys.insert(key) | self.owners.insert(node.0),
            Needs::Owner(owner) => self.owners.insert(owner),
            Needs::Nothing => false,
        }
    }

    /// True if the cut holds the events of `tuple` at `node`.
    pub(crate) fn holds(&self, plan: &SlicePlan, node: &NodeId, tuple: &Tuple) -> bool {
        match plan.needs(node, tuple) {
            Needs::Key(key) => self.keys.contains(&key),
            Needs::Owner(owner) => self.owners.contains(&owner),
            Needs::Nothing => true,
        }
    }

    /// Widens the cut to hold both sides of every change; true if it grew.
    /// Patching a cut log is then cutting the patched log: every event a
    /// change rewrites, drops or adds is one the cut holds.
    pub(crate) fn admit_changes(&mut self, plan: &SlicePlan, delta: &[TupleChange]) -> bool {
        let mut grew = false;
        for c in delta {
            for t in c.before.iter().chain(&c.after) {
                grew |= self.admit(plan, &c.node, t);
            }
        }
        grew
    }

    /// The events of `log` the cut holds, in replay order, read off
    /// `index`. The nodes where a queried key enters join the owners
    /// first.
    pub(crate) fn log(&mut self, index: &Index, log: &[BaseEvent]) -> EventLog {
        let keyed = index.keyed.iter().filter(|(key, _)| self.keys.contains(key));
        for &(_, at) in keyed.clone() {
            self.owners.insert(log[at as usize].node.0);
        }
        let mut held: Vec<u32> = index.always.clone();
        held.extend(keyed.map(|&(_, at)| at));
        for (owner, events) in &index.owned {
            if self.owners.contains(owner) {
                held.extend(events);
            }
        }
        held.sort_unstable();
        let mut out = EventLog::new();
        for at in held {
            out.push(log[at as usize].clone());
        }
        out
    }

    /// Widens the owners by every node outside them where `engine` has
    /// held a key-group tuple; true if it grew — the slice was not closed.
    pub(crate) fn close<S: ProvenanceSink>(&mut self, plan: &SlicePlan, engine: &Engine<S>) -> bool {
        let mut grew = false;
        for table in plan.key_tables() {
            for node in engine.nodes_that_held(&table) {
                grew |= self.owners.insert(node.0);
            }
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
    /// Owned events, by owner.
    owned: Vec<(Sym, Vec<u32>)>,
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
                    if index.owned.get(last).is_none_or(|(o, _)| *o != owner) {
                        last = match index.owned.iter().position(|(o, _)| *o == owner) {
                            Some(i) => i,
                            None => {
                                index.owned.push((owner, Vec::new()));
                                index.owned.len() - 1
                            }
                        };
                    }
                    index.owned[last].1.push(at);
                }
                Needs::Nothing => index.always.push(at),
            }
        }
        index
    }
}

/// The slice a [`crate::Replayed`] holds: the cut, and the cut log
/// (unpatched) as an execution of its own, which is what the replay and
/// any roll of it read.
pub(crate) struct Slice {
    pub(crate) cut: Cut,
    pub(crate) exec: Execution,
}
