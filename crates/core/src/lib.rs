//! # diffprov-core — differential provenance
//!
//! An implementation of **DiffProv**, the algorithm from *"The Good, the
//! Bad, and the Differences: Better Network Diagnostics with Differential
//! Provenance"* (Chen, Wu, Haeberlen, Zhou, Loo — SIGCOMM 2016).
//!
//! Classical provenance answers "why did this event happen?" with a
//! complete — and therefore large — causal explanation. DiffProv instead
//! takes a *reference event* (a similar event with the correct outcome) and
//! reasons about the **differences** between the two provenance trees: it
//! computes a set of changes to mutable base tuples (configuration state)
//! that would transform the bad tree into one equivalent to the good tree
//! while preserving the bad event's stimulus. In the paper's case studies
//! the output is one or two tuples — the root cause — where classical
//! provenance returns hundreds of vertexes.
//!
//! ## Quick tour
//!
//! ```
//! use std::sync::Arc;
//! use dp_types::{tuple, FieldType, NodeId, Schema, SchemaRegistry, TableKind, TupleRef};
//! use dp_ndlog::Program;
//! use dp_replay::Execution;
//! use diffprov_core::{DiffProv, QueryEvent};
//!
//! // A one-rule system: out(X+K) :- in(X), cfg(K).
//! let mut reg = SchemaRegistry::new();
//! reg.declare(Schema::new("in", TableKind::ImmutableBase, [("x", FieldType::Int)]));
//! reg.declare(Schema::new("cfg", TableKind::MutableBase, [("k", FieldType::Int)]));
//! reg.declare(Schema::new("out", TableKind::Derived, [("y", FieldType::Int)]));
//! let program = Program::builder(reg)
//!     .rules_text("r out(@N, Y) :- in(@N, X), cfg(@N, K), Y := X + K.").unwrap()
//!     .build().unwrap();
//!
//! // Good run: cfg=10 so in(1) derives out(11).
//! let mut good = Execution::new(Arc::clone(&program));
//! good.log.insert(0, "n1", tuple!("cfg", 10));
//! good.log.insert(5, "n1", tuple!("in", 1));
//!
//! // Bad run: cfg was fat-fingered to 20, so in(2) derives out(22)
//! // instead of the expected out(12).
//! let mut bad = Execution::new(Arc::clone(&program));
//! bad.log.insert(0, "n1", tuple!("cfg", 20));
//! bad.log.insert(5, "n1", tuple!("in", 2));
//!
//! let n = NodeId::new("n1");
//! let report = DiffProv::default().diagnose(
//!     &good, &QueryEvent::new(TupleRef::new(n.clone(), tuple!("out", 11)), u64::MAX),
//!     &bad, &QueryEvent::new(TupleRef::new(n.clone(), tuple!("out", 22)), u64::MAX),
//! ).unwrap();
//!
//! assert!(report.succeeded());
//! assert_eq!(report.delta.len(), 1); // the root cause: cfg 20 -> 10
//! assert_eq!(report.delta[0].before, Some(tuple!("cfg", 20)));
//! assert_eq!(report.delta[0].after, Some(tuple!("cfg", 10)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod align;
pub mod formula;
pub mod report;
pub mod scenario;
pub mod taint;

pub use align::{DiffProv, QueryEvent};
pub use formula::{seed_var, seed_var_index, Formula};
pub use report::{Failure, Metrics, Report, Round};
pub use scenario::Scenario;
pub use taint::{DerivationEnv, TaintState, VarSource};

#[cfg(test)]
mod tests {
    use super::*;
    use dp_ndlog::{Program, TupleChange};
    use dp_replay::Execution;
    use dp_types::prefix::{cidr, ip};
    use dp_types::{
        tuple, FieldType, NodeId, Schema, SchemaRegistry, TableKind, Tuple, TupleRef, Value,
    };
    use std::sync::Arc;

    /// A miniature forwarding model on one switch, enough to reproduce the
    /// paper's running example end to end:
    ///
    ///   sent(pid, dst, port) :- pkt(pid, dst), fe(rid, match, port),
    ///                           prefix_contains(match, dst).
    fn mini_sdn_program() -> Arc<Program> {
        let mut reg = SchemaRegistry::new();
        reg.declare(Schema::new(
            "pkt",
            TableKind::ImmutableBase,
            [("pid", FieldType::Int), ("dst", FieldType::Ip)],
        ));
        reg.declare(
            Schema::new(
                "fe",
                TableKind::MutableBase,
                [
                    ("rid", FieldType::Int),
                    ("match", FieldType::Prefix),
                    ("port", FieldType::Int),
                ],
            )
            .with_key([0]),
        );
        reg.declare(Schema::new(
            "sent",
            TableKind::Derived,
            [("pid", FieldType::Int), ("dst", FieldType::Ip), ("port", FieldType::Int)],
        ));
        Program::builder(reg)
            .rules_text(
                "fwd sent(@S, Pid, Dst, Pt) :- pkt(@S, Pid, Dst), fe(@S, Rid, M, Pt), \
                 prefix_contains(M, Dst).",
            )
            .unwrap()
            .build()
            .unwrap()
    }

    fn pkt(pid: i64, dst: &str) -> Tuple {
        Tuple::new("pkt", vec![Value::Int(pid), Value::Ip(ip(dst))])
    }

    fn sent(pid: i64, dst: &str, port: i64) -> Tuple {
        Tuple::new(
            "sent",
            vec![Value::Int(pid), Value::Ip(ip(dst)), Value::Int(port)],
        )
    }

    /// The paper's running example (Sections 1–2): an overly specific flow
    /// entry (4.3.2.0/24 instead of /23) makes packets from 4.3.3.1 miss
    /// the rule. DiffProv must output exactly one change: the widened
    /// entry.
    #[test]
    fn diffprov_widens_overly_specific_flow_entry() {
        let program = mini_sdn_program();
        let mut exec = Execution::new(program);
        let s = NodeId::new("S2");
        exec.log.insert(0, "S2", tuple!("fe", 1, cidr("4.3.2.0/24"), 6));
        // Good packet from 4.3.2.1 matches; bad packet from 4.3.3.1 does
        // not (dst here models the untrusted-subnet field).
        exec.log.insert(10, "S2", pkt(100, "4.3.2.1"));
        exec.log.insert(20, "S2", pkt(200, "4.3.3.1"));

        let good_ev = QueryEvent::new(TupleRef::new(s, sent(100, "4.3.2.1", 6)), u64::MAX);
        // The bad packet produced nothing; the operator queries the packet
        // itself as the bad event (its provenance is just the INSERT).
        let bad_ev = QueryEvent::new(TupleRef::new(s, pkt(200, "4.3.3.1")), u64::MAX);

        let report = DiffProv::default()
            .diagnose(&exec, &good_ev, &exec, &bad_ev)
            .unwrap();
        assert!(report.succeeded(), "{report}");
        assert_eq!(report.delta.len(), 1, "{report}");
        assert_eq!(
            report.delta[0],
            TupleChange {
                node: s,
                before: Some(tuple!("fe", 1, cidr("4.3.2.0/24"), 6)),
                after: Some(tuple!("fe", 1, cidr("4.3.2.0/23"), 6)),
            }
        );
        assert!(report.verified, "{report}");
    }

    /// With a deleted flow entry (rule expiration), DiffProv proposes
    /// re-inserting it — with `before == None` since nothing matches the
    /// key in the bad state.
    #[test]
    fn diffprov_reinserts_expired_entry() {
        let program = mini_sdn_program();
        let mut exec = Execution::new(program);
        let s = NodeId::new("S2");
        exec.log.insert(0, "S2", tuple!("fe", 1, cidr("4.3.2.0/24"), 6));
        exec.log.insert(10, "S2", pkt(100, "4.3.2.1")); // good (past)
        exec.log.delete(15, "S2", tuple!("fe", 1, cidr("4.3.2.0/24"), 6)); // expiry
        exec.log.insert(20, "S2", pkt(200, "4.3.2.9")); // bad: no rule

        // The good event is in the past; query it at its own time.
        let good_ev = QueryEvent::new(TupleRef::new(s, sent(100, "4.3.2.1", 6)), 14);
        let bad_ev = QueryEvent::new(TupleRef::new(s, pkt(200, "4.3.2.9")), u64::MAX);

        let report = DiffProv::default()
            .diagnose(&exec, &good_ev, &exec, &bad_ev)
            .unwrap();
        assert!(report.succeeded(), "{report}");
        assert_eq!(report.delta.len(), 1);
        assert_eq!(report.delta[0].before, None);
        assert_eq!(report.delta[0].after, Some(tuple!("fe", 1, cidr("4.3.2.0/24"), 6)));
        assert!(report.verified);
    }

    /// An unsuitable reference whose seed has a different type must fail
    /// with the seed-type diagnostic (Section 6.3).
    #[test]
    fn diffprov_rejects_seed_type_mismatch() {
        let program = mini_sdn_program();
        let mut exec = Execution::new(program);
        let s = NodeId::new("S2");
        exec.log.insert(0, "S2", tuple!("fe", 1, cidr("4.3.2.0/24"), 6));
        exec.log.insert(10, "S2", pkt(100, "4.3.2.1"));
        exec.log.insert(20, "S2", pkt(200, "4.3.3.1"));

        // "Good" event: the flow entry itself (a configuration tuple).
        let good_ev = QueryEvent::new(
            TupleRef::new(s, tuple!("fe", 1, cidr("4.3.2.0/24"), 6)),
            u64::MAX,
        );
        let bad_ev = QueryEvent::new(TupleRef::new(s, pkt(200, "4.3.3.1")), u64::MAX);
        let report = DiffProv::default()
            .diagnose(&exec, &good_ev, &exec, &bad_ev)
            .unwrap();
        assert!(matches!(report.failure, Some(Failure::SeedTypeMismatch { .. })), "{report}");
    }

    /// If the only aligning change would touch an immutable tuple, DiffProv
    /// must fail and say which tuple (Section 4.7, false negatives).
    #[test]
    fn diffprov_reports_immutable_changes() {
        // Same model, but the flow-entry table is immutable this time.
        let mut reg = SchemaRegistry::new();
        reg.declare(Schema::new(
            "pkt",
            TableKind::ImmutableBase,
            [("pid", FieldType::Int), ("dst", FieldType::Ip)],
        ));
        reg.declare(Schema::new(
            "fe",
            TableKind::ImmutableBase,
            [("rid", FieldType::Int), ("match", FieldType::Prefix), ("port", FieldType::Int)],
        ));
        reg.declare(Schema::new(
            "sent",
            TableKind::Derived,
            [("pid", FieldType::Int), ("dst", FieldType::Ip), ("port", FieldType::Int)],
        ));
        let program = Program::builder(reg)
            .rules_text(
                "fwd sent(@S, Pid, Dst, Pt) :- pkt(@S, Pid, Dst), fe(@S, Rid, M, Pt), \
                 prefix_contains(M, Dst).",
            )
            .unwrap()
            .build()
            .unwrap();
        let mut exec = Execution::new(program);
        let s = NodeId::new("S2");
        exec.log.insert(0, "S2", tuple!("fe", 1, cidr("4.3.2.0/24"), 6));
        exec.log.insert(10, "S2", pkt(100, "4.3.2.1"));
        exec.log.insert(20, "S2", pkt(200, "4.3.3.1"));
        let good_ev = QueryEvent::new(TupleRef::new(s, sent(100, "4.3.2.1", 6)), u64::MAX);
        let bad_ev = QueryEvent::new(TupleRef::new(s, pkt(200, "4.3.3.1")), u64::MAX);
        let report = DiffProv::default()
            .diagnose(&exec, &good_ev, &exec, &bad_ev)
            .unwrap();
        match &report.failure {
            Some(Failure::NonInvertible { attempted }) => {
                // The prefix constraint cannot be repaired because fe is
                // immutable; the attempted change is named.
                assert!(attempted.contains("prefix"), "{attempted}");
            }
            Some(Failure::ImmutableChange { needed, .. }) => {
                assert_eq!(needed.tuple.table.as_str(), "fe");
            }
            other => panic!("expected a failure naming the immutable entry, got {other:?}"),
        }
    }

    /// Taint propagation: a derived field computed from the seed must be
    /// re-computed for the bad seed when checking existence (Figure 4).
    #[test]
    fn diffprov_aligns_through_computed_fields() {
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
        ).with_key([0, 1]));
        reg.declare(Schema::new(
            "c",
            TableKind::Derived,
            [("x", FieldType::Int), ("y2", FieldType::Int), ("z1", FieldType::Int)],
        ));
        let program = Program::builder(reg)
            .rules_text(
                "rc c(@N, X, Y2, Z1) :- a(@N, X, Y), b(@N, X, Y, Z), Y2 := Y*Y, Z1 := Z + 1.",
            )
            .unwrap()
            .build()
            .unwrap();
        // Good: a(2,2), b(2,2,4) -> c(2,4,5). Bad: a(1,2), b(1,2,3) -> c(1,4,4).
        // This is exactly Figure 4: Δ must change b(1,2,3) to b(1,2,4).
        let n = NodeId::new("n1");
        let mut good = Execution::new(Arc::clone(&program));
        good.log.insert(0, "n1", tuple!("b", 2, 2, 4));
        good.log.insert(5, "n1", tuple!("a", 2, 2));
        let mut bad = Execution::new(Arc::clone(&program));
        bad.log.insert(0, "n1", tuple!("b", 1, 2, 3));
        bad.log.insert(5, "n1", tuple!("a", 1, 2));

        let good_ev = QueryEvent::new(TupleRef::new(n, tuple!("c", 2, 4, 5)), u64::MAX);
        let bad_ev = QueryEvent::new(TupleRef::new(n, tuple!("c", 1, 4, 4)), u64::MAX);
        let report = DiffProv::default()
            .diagnose(&good, &good_ev, &bad, &bad_ev)
            .unwrap();
        assert!(report.succeeded(), "{report}");
        assert_eq!(report.delta.len(), 1, "{report}");
        assert_eq!(report.delta[0].before, Some(tuple!("b", 1, 2, 3)));
        assert_eq!(report.delta[0].after, Some(tuple!("b", 1, 2, 4)));
        assert!(report.verified);
    }

    /// When good and bad events are equivalent already, DiffProv returns an
    /// empty change set and verifies.
    #[test]
    fn diffprov_empty_delta_for_equivalent_events() {
        let program = mini_sdn_program();
        let mut exec = Execution::new(program);
        let s = NodeId::new("S2");
        exec.log.insert(0, "S2", tuple!("fe", 1, cidr("4.3.2.0/23"), 6));
        exec.log.insert(10, "S2", pkt(100, "4.3.2.1"));
        exec.log.insert(20, "S2", pkt(200, "4.3.3.1"));
        let good_ev = QueryEvent::new(TupleRef::new(s, sent(100, "4.3.2.1", 6)), u64::MAX);
        let bad_ev = QueryEvent::new(TupleRef::new(s, sent(200, "4.3.3.1", 6)), u64::MAX);
        let report = DiffProv::default()
            .diagnose(&exec, &good_ev, &exec, &bad_ev)
            .unwrap();
        assert!(report.succeeded());
        assert!(report.delta.is_empty(), "{report}");
        assert!(report.verified);
    }
}
