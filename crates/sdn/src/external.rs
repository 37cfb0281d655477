//! The external-specification capture mode (Section 5 of the paper).
//!
//! "Finally, we can treat the primary system as a black box, and use
//! *external specifications* to track dependencies between inputs and
//! outputs" — this is how the paper's prototype captured provenance in the
//! Mininet/Open vSwitch campus experiment: from the packet traces the
//! network produced plus "an external specification of OpenFlow's
//! match-action behavior".
//!
//! Here the black box hands us its observable state and inputs:
//!
//! * [`FlowDump`] — the flow tables dumped from each switch (what
//!   `ovs-ofctl dump-flows` would return), plus the port wiring;
//! * [`PacketObservation`] — the packets captured entering the network.
//!
//! [`from_observations`] converts them into an [`Execution`] over the
//! OpenFlow specification program: the dumps become (switch-local) flow
//! entries and the captures become `pktIn` stimuli. Replaying the
//! execution *derives* what the black-box network must have done — and
//! every derived tuple carries full provenance, queryable and
//! DiffProv-alignable exactly like infer-mode provenance.
//!
//! Because flow entries arrive as dumps rather than controller
//! derivations, this mode uses a program without the controller layer:
//! dumped entries are themselves the mutable configuration.

use std::sync::Arc;

use dp_ndlog::{Program, StatefulBuiltin};
use dp_replay::Execution;
use dp_types::{LogicalTime, NodeId, Prefix, Result, SchemaRegistry, Tuple, Value};

use crate::program::{pkt_in, sdn_schemas, BestMatch};
use crate::topology::Topology;

/// One dumped flow entry of a black-box switch.
#[derive(Clone, Debug)]
pub struct FlowDump {
    /// The switch it was dumped from.
    pub switch: String,
    /// Entry cookie/id.
    pub rid: i64,
    /// Priority.
    pub prio: i64,
    /// Source match.
    pub src_match: Prefix,
    /// Destination match.
    pub dst_match: Prefix,
    /// Output port ([`crate::DROP_PORT`] for drops).
    pub port: i64,
}

/// One packet captured entering the black-box network.
#[derive(Clone, Debug)]
pub struct PacketObservation {
    /// Ingress switch.
    pub ingress: String,
    /// Capture timestamp (logical).
    pub at: LogicalTime,
    /// Packet id (sequence number of the capture).
    pub pid: i64,
    /// Source address.
    pub src: u32,
    /// Destination address.
    pub dst: u32,
    /// Protocol.
    pub proto: i64,
    /// Length in bytes.
    pub len: i64,
}

/// The rules of the OpenFlow *specification* program ([`spec_program`]):
/// the SDN program's match-action rules without the controller layer.
pub const SPEC_RULES: &str = "\
ingress pktAt(@S, Pid, Src, Dst, Pr, Len) :- pktIn(@S, Pid, Src, Dst, Pr, Len).
fwd     pktOut(@S, Pid, Src, Dst, Pr, Len, Pt) :-
            pktAt(@S, Pid, Src, Dst, Pr, Len),
            flowEntry(@S, Rid, Prio, SM, DM, Pt),
            prefix_contains(SM, Src), prefix_contains(DM, Dst),
            best_match!(S, Src, Dst, Prio).
move    pktAt(@N, Pid, Src, Dst, Pr, Len) :-
            pktOut(@S, Pid, Src, Dst, Pr, Len, Pt), link(@S, Pt, N).
dlvr    deliver(@H, Pid, Src, Dst, Pr, Len) :-
            pktOut(@S, Pid, Src, Dst, Pr, Len, Pt), host(@S, Pt, H).
";

/// The schemas of the specification program: the SDN program's, with
/// `flowEntry` redeclared as a **mutable base** table, keyed by cookie
/// (dumped state is the configuration; there is no controller to derive
/// it from).
pub fn spec_schemas() -> SchemaRegistry {
    use dp_types::TableKind::*;
    let mut reg = sdn_schemas();
    reg.declare(
        dp_types::Schema::new(
            "flowEntry",
            MutableBase,
            [
                ("rid", dp_types::FieldType::Int),
                ("prio", dp_types::FieldType::Int),
                ("srcMatch", dp_types::FieldType::Prefix),
                ("dstMatch", dp_types::FieldType::Prefix),
                ("port", dp_types::FieldType::Int),
            ],
        )
        .with_key([0]),
    );
    reg
}

/// The OpenFlow *specification* program for external mode: the same
/// match-action rules over [`spec_schemas`].
pub fn spec_program() -> Result<Arc<Program>> {
    let best_match: Arc<dyn StatefulBuiltin> = Arc::new(BestMatch::new(None));
    Program::builder(spec_schemas())
        .rules_text(SPEC_RULES)?
        .builtin(best_match)
        .build()
}

/// Converts black-box observations into a replayable execution over the
/// specification program.
///
/// `config_at` is the logical time the dumps are considered valid from
/// (before the first capture).
pub fn from_observations(
    topology: &Topology,
    dumps: &[FlowDump],
    captures: &[PacketObservation],
    config_at: LogicalTime,
) -> Result<Execution> {
    let program = spec_program()?;
    let mut exec = Execution::new(program);
    topology.emit(&mut exec.log, config_at);
    for d in dumps {
        exec.log.insert(
            config_at,
            NodeId::new(&d.switch),
            Tuple::new(
                "flowEntry",
                vec![
                    Value::Int(d.rid),
                    Value::Int(d.prio),
                    Value::Prefix(d.src_match),
                    Value::Prefix(d.dst_match),
                    Value::Int(d.port),
                ],
            ),
        );
    }
    for c in captures {
        exec.log.insert(
            c.at.max(config_at + 1),
            NodeId::new(&c.ingress),
            pkt_in(c.pid, c.src, c.dst, c.proto, c.len),
        );
    }
    Ok(exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{deliver_at, DROP_PORT};
    use diffprov_core::{DiffProv, QueryEvent};
    use dp_types::prefix::{cidr, ip};
    use dp_types::TupleRef;

    /// SDN1's network as a black box: dumps + captures instead of the
    /// controller model.
    fn sdn1_observations() -> (Topology, Vec<FlowDump>, Vec<PacketObservation>) {
        let mut topo = Topology::new("ctl");
        topo.switches(&["S1", "S2", "S3", "S4", "S5", "S6"]);
        topo.link("S1", "S2");
        topo.link("S2", "S3");
        topo.link("S2", "S6");
        topo.link("S3", "S4");
        topo.link("S4", "S5");
        topo.link("S5", "S6");
        let p_web1 = topo.host("S6", "web1");
        let p_dpi = topo.host("S6", "dpi");
        let p_web2 = topo.host("S4", "web2");
        let any = cidr("0.0.0.0/0");
        let dump = |switch: &str, rid, prio, sm, dm, port| FlowDump {
            switch: switch.to_string(),
            rid,
            prio,
            src_match: sm,
            dst_match: dm,
            port,
        };
        let dumps = vec![
            dump("S1", 100, 1, any, any, topo.port_towards("S1", "S2")),
            dump("S2", 1, 10, cidr("4.3.2.0/24"), any, topo.port_towards("S2", "S6")),
            dump("S2", 2, 1, any, any, topo.port_towards("S2", "S3")),
            dump("S3", 300, 1, any, any, topo.port_towards("S3", "S4")),
            dump("S4", 400, 1, any, any, p_web2),
            dump("S6", 600, 5, any, any, p_web1),
            dump("S6", 601, 5, any, any, p_dpi),
        ];
        let captures = vec![
            PacketObservation {
                ingress: "S1".into(),
                at: 1_000,
                pid: 1,
                src: ip("4.3.2.1"),
                dst: ip("10.0.0.80"),
                proto: 6,
                len: 512,
            },
            PacketObservation {
                ingress: "S1".into(),
                at: 2_000,
                pid: 2,
                src: ip("4.3.3.1"),
                dst: ip("10.0.0.80"),
                proto: 6,
                len: 512,
            },
        ];
        (topo, dumps, captures)
    }

    #[test]
    fn replaying_the_spec_reconstructs_the_black_box_behaviour() {
        let (topo, dumps, captures) = sdn1_observations();
        let exec = from_observations(&topo, &dumps, &captures, 10).unwrap();
        let r = exec.replay().unwrap();
        let good = deliver_at("web1", 1, ip("4.3.2.1"), ip("10.0.0.80"), 6, 512);
        let bad = deliver_at("web2", 2, ip("4.3.3.1"), ip("10.0.0.80"), 6, 512);
        assert!(r.exists(&good.node, &good.tuple));
        assert!(r.exists(&bad.node, &bad.tuple));
        // Full provenance despite the black box: the good tree reaches the
        // dumped flow entries.
        let tree = r.query(&good).unwrap();
        assert!(tree.len() > 30, "{}", tree.len());
        assert!(tree.render().contains("flowEntry"), "{}", tree.render());
    }

    #[test]
    fn diffprov_works_on_externally_captured_provenance() {
        let (topo, dumps, captures) = sdn1_observations();
        let exec = from_observations(&topo, &dumps, &captures, 10).unwrap();
        let good = QueryEvent::new(
            deliver_at("web1", 1, ip("4.3.2.1"), ip("10.0.0.80"), 6, 512),
            u64::MAX,
        );
        let bad = QueryEvent::new(
            deliver_at("web2", 2, ip("4.3.3.1"), ip("10.0.0.80"), 6, 512),
            u64::MAX,
        );
        let report = DiffProv::default().diagnose(&exec, &good, &exec, &bad).unwrap();
        assert!(report.succeeded(), "{report}");
        assert_eq!(report.delta.len(), 1, "{report}");
        // In external mode the fix lands on the dumped entry itself (there
        // is no controller config behind it).
        let after = report.delta[0].after.as_ref().unwrap();
        assert_eq!(after.table.as_str(), "flowEntry");
        assert_eq!(after.args[2], Value::Prefix(cidr("4.3.2.0/23")));
        assert!(report.verified, "{report}");
    }

    #[test]
    fn drop_entries_blackhole_packets() {
        let (topo, mut dumps, captures) = sdn1_observations();
        // Replace S2's general rule with an ACL drop.
        dumps[2].port = DROP_PORT;
        let exec = from_observations(&topo, &dumps, &captures, 10).unwrap();
        let r = exec.replay().unwrap();
        let bad = deliver_at("web2", 2, ip("4.3.3.1"), ip("10.0.0.80"), 6, 512);
        assert!(!r.exists(&bad.node, &bad.tuple));
        // The drop decision itself is visible in provenance.
        let dropped = TupleRef::new(
            "S2",
            Tuple::new(
                "pktOut",
                vec![
                    Value::Int(2),
                    Value::Ip(ip("4.3.3.1")),
                    Value::Ip(ip("10.0.0.80")),
                    Value::Int(6),
                    Value::Int(512),
                    Value::Int(DROP_PORT),
                ],
            ),
        );
        assert!(r.query(&dropped).is_some());
    }
}
