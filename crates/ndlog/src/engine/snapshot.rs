//! Binary serialization for [`EngineSnapshot`] — the payload of durable
//! checkpoint files (Section 4.8's "checkpoints" made actual bytes).
//!
//! The encoding walks the snapshot in its deterministic `BTreeMap` orders,
//! so equal snapshots encode to byte-identical buffers on every platform —
//! which is what lets the recovery proof compare digests rather than
//! structures. The reverse-dependency lists live in the table slots
//! (`state.rs`) but keep their own section after the tables, written by a
//! second walk in the same `(node, table, tuple)` order — the order of the
//! `(node, tuple)`-keyed map the section was first written from — with
//! one entry per tuple whose list is non-empty. Only durable state is
//! written: secondary indexes and tries are *derived* data that [`Engine::restore`] re-derives against the
//! resuming program's plans (`reindex`), so they never touch disk. The one
//! subtlety is `Table::last_appear`: `reindex` rebuilds indexes but keeps
//! that clock, so it must be encoded or a restored engine's `as_of`-horizon
//! fast path could diverge from the uncut run.
//!
//! Decoding interns tuples through a local set so the `Arc<Tuple>` sharing
//! between table keys and derivation bodies survives the round trip;
//! decoded tables carry empty index vectors pending `restore`'s `reindex`.

use std::collections::HashSet;
use std::sync::Arc;

use dp_types::codec::{Dec, Enc};
use dp_types::{NodeId, Result, Tuple, TupleRef};

use super::state::{Slot, Table};
use super::{DerivRecord, EngineSnapshot, NodeState, TupleState};

fn intern(set: &mut HashSet<Arc<Tuple>>, t: Tuple) -> Arc<Tuple> {
    if let Some(a) = set.get(&t) {
        return Arc::clone(a);
    }
    let a = Arc::new(t);
    set.insert(Arc::clone(&a));
    a
}

fn enc_tuple_ref(e: &mut Enc, r: &TupleRef) {
    e.str(r.node.as_str());
    e.tuple(&r.tuple);
}

fn dec_tuple_ref(d: &mut Dec<'_>, tuples: &mut HashSet<Arc<Tuple>>) -> Result<TupleRef> {
    let node = NodeId::new(d.str("tuple-ref node")?);
    let tuple = intern(tuples, d.tuple()?);
    Ok(TupleRef { node, tuple })
}

impl EngineSnapshot {
    /// Appends the snapshot's durable state to `e`.
    pub fn encode_into(&self, e: &mut Enc) {
        e.u64(self.clock);
        e.u64(self.seq);
        e.u32(self.nodes.len() as u32);
        for (node, state) in &self.nodes {
            e.str(node.as_str());
            e.u32(state.tables.len() as u32);
            for (name, table) in &state.tables {
                e.str(name.as_str());
                e.u64(table.last_appear);
                e.u32(table.tuples.len() as u32);
                for (tuple, slot) in &table.tuples {
                    let ts = &slot.state;
                    e.tuple(tuple);
                    e.u8(u8::from(ts.base));
                    e.u64(ts.appeared_at);
                    e.u32(ts.derivations.len() as u32);
                    for d in &ts.derivations {
                        e.str(d.rule.as_str());
                        e.u32(d.trigger as u32);
                        e.u64(d.time);
                        e.u32(d.body.len() as u32);
                        for b in &d.body {
                            enc_tuple_ref(e, b);
                        }
                    }
                }
            }
        }
        let listed = || {
            self.nodes.iter().flat_map(|(node, state)| {
                state
                    .tables
                    .values()
                    .flat_map(|table| &table.tuples)
                    .filter(|(_, slot)| !slot.dependents.is_empty())
                    .map(move |(tuple, slot)| (node, tuple, &slot.dependents))
            })
        };
        e.u32(listed().count() as u32);
        for (node, tuple, deps) in listed() {
            e.str(node.as_str());
            e.tuple(tuple);
            e.u32(deps.len() as u32);
            for dep in deps {
                enc_tuple_ref(e, dep);
            }
        }
    }

    /// The snapshot's durable state as a standalone byte buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        self.encode_into(&mut e);
        e.into_bytes()
    }

    /// Decodes a snapshot previously written by [`EngineSnapshot::encode_into`].
    ///
    /// Secondary indexes and tries come back empty — [`Engine::restore`]
    /// re-derives them for the resuming program, exactly as it does for an
    /// in-memory snapshot taken under a different program.
    ///
    /// [`Engine::restore`]: super::Engine::restore
    pub fn decode_from(d: &mut Dec<'_>) -> Result<Self> {
        let mut tuples: HashSet<Arc<Tuple>> = HashSet::new();
        let clock = d.u64("snapshot clock")?;
        let seq = d.u64("snapshot seq")?;
        let nnodes = d.u32("snapshot node count")?;
        let mut nodes = std::collections::BTreeMap::new();
        for _ in 0..nnodes {
            let node = NodeId::new(d.str("snapshot node name")?);
            let ntables = d.u32("node table count")?;
            let mut state = NodeState::default();
            for _ in 0..ntables {
                let name = d.sym("table name")?;
                let mut table = Table::unindexed(d.u64("table last-appear clock")?);
                let ntuples = d.u32("table tuple count")?;
                for _ in 0..ntuples {
                    let tuple = intern(&mut tuples, d.tuple()?);
                    let base = d.u8("tuple base flag")? != 0;
                    let appeared_at = d.u64("tuple appeared-at clock")?;
                    let nderivs = d.u32("tuple derivation count")?;
                    let mut derivations = Vec::with_capacity(nderivs as usize);
                    for _ in 0..nderivs {
                        let rule = d.sym("derivation rule")?;
                        let trigger = d.u32("derivation trigger")? as usize;
                        let time = d.u64("derivation time")?;
                        let nbody = d.u32("derivation body length")?;
                        let mut body = Vec::with_capacity(nbody as usize);
                        for _ in 0..nbody {
                            body.push(dec_tuple_ref(d, &mut tuples)?);
                        }
                        derivations.push(DerivRecord {
                            rule,
                            body,
                            trigger,
                            time,
                        });
                    }
                    table.tuples.insert(
                        tuple,
                        Slot {
                            state: TupleState {
                                base,
                                derivations,
                                appeared_at,
                            },
                            dependents: Vec::new(),
                        },
                    );
                }
                state.tables.insert(name, table);
            }
            nodes.insert(node, state);
        }
        // The clock a tuple appeared at names its episode in the provenance
        // stream (`ProvEvent`'s `since`), and an engine stamps each
        // appearance with a clock of its own: two live tuples sharing one
        // would let a resumed stream point into the wrong tuple's history.
        let mut stamps: Vec<_> = nodes
            .values()
            .flat_map(|state| state.all().map(|(_, ts)| ts.appeared_at))
            .collect();
        stamps.sort_unstable();
        if let Some(w) = stamps.windows(2).find(|w| w[0] == w[1]) {
            return Err(dp_types::Error::Codec {
                context: "snapshot",
                detail: format!("two live tuples appeared at the same clock, {}", w[0]),
            });
        }
        let ndeps = d.u32("dependents count")?;
        for _ in 0..ndeps {
            let key = dec_tuple_ref(d, &mut tuples)?;
            let nlist = d.u32("dependents list length")?;
            let mut list = Vec::with_capacity(nlist as usize);
            for _ in 0..nlist {
                list.push(dec_tuple_ref(d, &mut tuples)?);
            }
            // A list belongs to a live tuple's slot; an engine never
            // writes one for a tuple that is gone.
            let slot = nodes
                .get_mut(&key.node)
                .and_then(|state| state.tables.get_mut(&key.tuple.table))
                .and_then(|table| table.tuples.get_mut(&key.tuple))
                .ok_or_else(|| dp_types::Error::Codec {
                    context: "snapshot",
                    detail: format!("dependents listed for {key}, which is not live"),
                })?;
            slot.dependents = list;
        }
        Ok(EngineSnapshot { nodes, clock, seq })
    }

    /// Decodes a snapshot from a complete buffer, requiring every byte to
    /// be consumed.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut d = Dec::new(bytes);
        let snap = Self::decode_from(&mut d)?;
        if !d.is_exhausted() {
            return Err(dp_types::Error::Codec {
                context: "snapshot",
                detail: format!("{} trailing byte(s) after the snapshot", d.remaining()),
            });
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_types::{tuple, Error, Sym};
    use std::collections::BTreeMap;

    /// A hand-built two-node snapshot exercising every encoded field:
    /// base and derived tuples, multi-derivation support, dependents.
    fn sample() -> EngineSnapshot {
        let flow = Arc::new(tuple!("flowEntry", "S1", 5));
        let pkt = Arc::new(tuple!("packet", "S1", 7, true));
        let derived = Arc::new(tuple!("reach", "S2"));
        let mut t1 = Table::unindexed(12);
        t1.tuples.insert(
            Arc::clone(&flow),
            Slot {
                state: TupleState {
                    base: true,
                    derivations: vec![],
                    appeared_at: 3,
                },
                dependents: vec![TupleRef::new(NodeId::new("S2"), Arc::clone(&derived))],
            },
        );
        t1.tuples.insert(
            Arc::clone(&pkt),
            Slot {
                state: TupleState {
                    base: false,
                    derivations: vec![
                        DerivRecord {
                            rule: Sym::new("r1"),
                            body: vec![TupleRef::new(NodeId::new("S1"), Arc::clone(&flow))],
                            trigger: 0,
                            time: 12,
                        },
                        DerivRecord {
                            rule: Sym::new("r2"),
                            body: vec![],
                            trigger: 0,
                            time: 9,
                        },
                    ],
                    appeared_at: 9,
                },
                dependents: vec![],
            },
        );
        let mut s1 = NodeState::default();
        s1.tables.insert(Sym::new("flowEntry"), t1);
        let mut t2 = Table::unindexed(14);
        t2.tuples.insert(
            Arc::clone(&derived),
            Slot {
                state: TupleState {
                    base: false,
                    derivations: vec![],
                    appeared_at: 14,
                },
                dependents: vec![],
            },
        );
        let mut s2 = NodeState::default();
        s2.tables.insert(Sym::new("reach"), t2);
        let mut nodes = BTreeMap::new();
        nodes.insert(NodeId::new("S1"), s1);
        nodes.insert(NodeId::new("S2"), s2);
        EngineSnapshot {
            nodes,
            clock: 17,
            seq: 42,
        }
    }

    #[test]
    fn snapshot_roundtrips_byte_identically() {
        let snap = sample();
        let bytes = snap.encode();
        let back = EngineSnapshot::decode(&bytes).unwrap();
        // NodeState/Table don't implement PartialEq, so equality is proven
        // the way the recovery path proves it: re-encode and compare bytes.
        assert_eq!(back.encode(), bytes);
        assert_eq!(back.time(), 17);
    }

    #[test]
    fn decoded_sharing_survives() {
        let snap = sample();
        let back = EngineSnapshot::decode(&snap.encode()).unwrap();
        // The flowEntry tuple appears as a table key and as a derivation
        // body member, the reach tuple as a table key and in flowEntry's
        // dependents list; interning must collapse each pair.
        let table = &back.nodes[&NodeId::new("S1")].tables[&Sym::new("flowEntry")];
        let (flow, slot) = table
            .tuples
            .iter()
            .find(|(t, _)| t.table.as_str() == "flowEntry")
            .unwrap();
        let pkt = table.tuples.values().find(|s| !s.state.derivations.is_empty()).unwrap();
        assert!(Arc::ptr_eq(flow, &pkt.state.derivations[0].body[0].tuple));
        let reach = back.nodes[&NodeId::new("S2")].tables[&Sym::new("reach")]
            .tuples
            .keys()
            .next()
            .unwrap();
        assert!(Arc::ptr_eq(reach, &slot.dependents[0].tuple));
    }

    #[test]
    fn dependents_of_a_tuple_that_is_not_live_are_rejected() {
        // The tables of a snapshot without the flowEntry tuple, followed
        // by the dependents section of one that lists heads for it.
        let flow = tuple!("flowEntry", "S1", 5);
        let table_of = |snap: &mut EngineSnapshot| {
            let s1 = snap.nodes.get_mut(&NodeId::new("S1")).unwrap();
            std::mem::take(s1.tables.get_mut(&Sym::new("flowEntry")).unwrap())
        };
        let put_back = |snap: &mut EngineSnapshot, table: Table| {
            let s1 = snap.nodes.get_mut(&NodeId::new("S1")).unwrap();
            s1.tables.insert(Sym::new("flowEntry"), table);
        };
        let listed = sample().encode();
        let mut unlisted = sample();
        let mut table = table_of(&mut unlisted);
        table.tuples.get_mut(&flow).unwrap().dependents.clear();
        put_back(&mut unlisted, table);
        // An empty dependents section is its four-byte count.
        let section = &listed[unlisted.encode().len() - 4..];
        let mut gone = sample();
        let mut table = table_of(&mut gone);
        table.tuples.remove(&flow);
        put_back(&mut gone, table);
        let gone = gone.encode();
        let stale = [&gone[..gone.len() - 4], section].concat();
        match EngineSnapshot::decode(&stale) {
            Err(Error::Codec { context: "snapshot", detail }) => {
                assert!(detail.contains("not live"), "{detail}")
            }
            other => panic!("stale dependents entry gave {other:?}"),
        }
    }

    #[test]
    fn live_tuples_sharing_an_appearance_clock_are_rejected() {
        // `reach` at S2 restamped with the clock `flowEntry` at S1 appeared
        // at: the tables decode, the key they would forge does not.
        let mut snap = sample();
        let s2 = snap.nodes.get_mut(&NodeId::new("S2")).unwrap();
        let reach = s2.tables.get_mut(&Sym::new("reach")).unwrap();
        reach.tuples.values_mut().next().unwrap().state.appeared_at = 3;
        match EngineSnapshot::decode(&snap.encode()) {
            Err(Error::Codec { context: "snapshot", detail }) => {
                assert!(detail.contains("same clock, 3"), "{detail}")
            }
            other => panic!("a shared appearance clock gave {other:?}"),
        }
    }

    #[test]
    fn truncation_is_typed_never_a_panic() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            match EngineSnapshot::decode(&bytes[..cut]) {
                Err(Error::Codec { .. }) => {}
                other => panic!("truncation at {cut} gave {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert!(matches!(
            EngineSnapshot::decode(&bytes),
            Err(Error::Codec { context: "snapshot", .. })
        ));
    }
    /// The wire format pinned on real engine states: the FNV digests below
    /// were computed at the commit before the reverse-dependency lists
    /// moved into the table slots, so a byte of drift in what a snapshot
    /// writes — or in the order it writes it — fails here.
    ///
    /// The scenario crates link the library build of this crate (the
    /// self-referential dev-dependency), so this module drives that
    /// build's engine — the same source — through its public API.
    mod pinned {
        use std::sync::Arc;

        use dp_ndlog::{Engine, EngineSnapshot, Program, ScheduledOp, VecSink};
        use dp_types::codec::fnv64;
        use dp_types::{tuple, FieldType, Schema, SchemaRegistry, TableKind};

        fn run(eng: &mut Engine<VecSink>, ops: &[ScheduledOp]) {
            for op in ops {
                eng.schedule(op).unwrap();
            }
            eng.run().unwrap();
        }

        /// Runs `before`, pins the snapshot there, resumes from its
        /// decoded bytes with `after`, and holds stream suffix, final
        /// snapshot bytes and their pinned digest to an uninterrupted run.
        fn pin(program: &Arc<Program>, before: &[ScheduledOp], after: &[ScheduledOp], want: [u64; 2]) {
            let mut whole = Engine::new(Arc::clone(program), VecSink::default());
            run(&mut whole, before);
            let cut = whole.sink().events.len();
            run(&mut whole, after);
            assert!(whole.sink().events.len() > cut, "nothing ran after the cut");

            let mut first = Engine::new(Arc::clone(program), VecSink::default());
            run(&mut first, before);
            let bytes = first.snapshot().unwrap().encode();
            let snap = EngineSnapshot::decode(&bytes).unwrap();
            assert_eq!(snap.encode(), bytes, "decode/encode is not the identity");
            let mut resumed = Engine::restore(Arc::clone(program), snap, VecSink::default()).unwrap();
            run(&mut resumed, after);
            assert_eq!(resumed.sink().events, whole.sink().events[cut..]);
            let end = resumed.snapshot().unwrap().encode();
            assert_eq!(end, whole.snapshot().unwrap().encode());
            assert_eq!(
                [fnv64(&bytes), fnv64(&end)],
                want,
                "snapshot bytes drifted: {:#018x?}",
                [fnv64(&bytes), fnv64(&end)]
            );
        }

        /// SDN1, cut at the quiescent boundary before its last packet and
        /// at the end of the log.
        #[test]
        fn sdn1_snapshot_bytes_are_pinned() {
            let exec = dp_sdn::sdn1().bad_exec;
            let ops = exec.log.to_schedule();
            let last = ops.last().unwrap().due;
            let cut = ops.iter().position(|op| op.due == last).unwrap();
            assert!(cut > 0, "no boundary to cut at");
            pin(
                &exec.program,
                &ops[..cut],
                &ops[cut..],
                [0x1b77_64ee_8f8f_9245, 0x082a_c950_34e1_ac20],
            );
        }

        /// A churn schedule whose snapshot holds every shape the
        /// dependents section can take: a head with two live derivations,
        /// a body tuple listing one head twice, a list naming a head that
        /// is gone (its other body tuple was deleted), a tuple that
        /// disappeared and came back with no list, and cross-node entries.
        #[test]
        fn churn_snapshot_bytes_are_pinned() {
            let mut reg = SchemaRegistry::new();
            reg.declare(Schema::new(
                "b",
                TableKind::MutableBase,
                [("x", FieldType::Int), ("y", FieldType::Int)],
            ));
            reg.declare(Schema::new("a", TableKind::MutableBase, [("x", FieldType::Int)]));
            reg.declare(Schema::new("peer", TableKind::MutableBase, [("next", FieldType::Str)]));
            reg.declare(Schema::new("d", TableKind::Derived, [("x", FieldType::Int)]));
            reg.declare(Schema::new("both", TableKind::Derived, [("x", FieldType::Int)]));
            reg.declare(Schema::new("seen", TableKind::Derived, [("x", FieldType::Int)]));
            let program = Program::builder(reg)
                .rules_text(
                    "rd d(@N, X) :- b(@N, X, _).\n\
                     rj both(@N, X) :- d(@N, X), a(@N, X).\n\
                     rs seen(@M, X) :- both(@N, X), peer(@N, M).",
                )
                .unwrap()
                .build()
                .unwrap();
            let ins = |due, node: &str, t| ScheduledOp::insert(due, node, t);
            let del = |due, node: &str, t| ScheduledOp::delete(due, node, t);
            let before = [
                ins(0, "n", tuple!("peer", "m")),
                ins(0, "n", tuple!("peer", "n")),
                // d(1) and d(2) get two derivations each; both(1), both(2)
                // and their `seen` copies on m and n follow.
                ins(1, "n", tuple!("b", 1, 0)),
                ins(1, "n", tuple!("b", 1, 1)),
                ins(1, "n", tuple!("b", 2, 0)),
                ins(1, "n", tuple!("b", 2, 1)),
                ins(1, "n", tuple!("a", 1)),
                ins(1, "n", tuple!("a", 2)),
                ins(1, "m", tuple!("b", 7, 7)),
                // One support of d(1) goes: d(1) stays on the other.
                del(40, "n", tuple!("b", 1, 0)),
                // a(2) goes: both(2) and seen(2) cascade away, while d(2)'s
                // list keeps naming both(2).
                del(50, "n", tuple!("a", 2)),
                // a(2) returns: both(2) is re-derived and d(2) lists it
                // twice.
                ins(60, "n", tuple!("a", 2)),
                // d(7) on m disappears and reappears: no list until a(7) joins it.
                del(70, "m", tuple!("b", 7, 7)),
                ins(80, "m", tuple!("b", 7, 8)),
            ];
            let after = [
                // The surviving support of d(1) goes: a three-level cascade
                // across both nodes.
                del(100, "n", tuple!("b", 1, 1)),
                del(110, "n", tuple!("peer", "m")),
                ins(120, "m", tuple!("a", 7)),
                ins(120, "n", tuple!("b", 1, 5)),
            ];
            pin(
                &program,
                &before,
                &after,
                [0x669d_377a_a5e3_fe97, 0x8f16_aae0_6a96_ad22],
            );
        }
    }
}
