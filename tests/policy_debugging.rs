//! Front-end integration: a controller program written in the NetCore-style
//! policy language, compiled to flow configuration, run, and then debugged
//! with DiffProv — the full §5 pipeline (front-end → recorder → reasoning).

use std::sync::Arc;

use diffprov::core::{DiffProv, QueryEvent};
use diffprov::netcore::{compile, to_cfg_entries, Action, Policy, Pred};
use diffprov::replay::Execution;
use diffprov::sdn::{deliver_at, pkt_in, sdn_program, Topology};
use diffprov::types::prefix::{cidr, ip};
use diffprov::types::{NodeId, Value};

/// Builds the SDN1 network from *policies*, with the /24-instead-of-/23
/// bug written at the policy level.
fn policy_network(untrusted: diffprov::types::Prefix) -> (Execution, Topology) {
    let mut topo = Topology::new("ctl");
    topo.switches(&["S1", "S2", "S6"]);
    topo.link("S1", "S2");
    topo.link("S2", "S6");
    let p_web1 = topo.host("S6", "web1");
    let p_dpi = topo.host("S6", "dpi");
    let p_web2 = topo.host("S2", "web2");

    // The operator's intent, one policy per switch.
    let s1 = Policy::Filter(Pred::Any, Action::Forward(topo.port_towards("S1", "S2")));
    let s2 = Policy::if_else(
        Pred::SrcIn(untrusted),
        Policy::Filter(Pred::Any, Action::Forward(topo.port_towards("S2", "S6"))),
        Policy::Filter(Pred::Any, Action::Forward(p_web2)),
    );
    let s6 = Policy::Union(vec![
        Policy::Filter(Pred::Any, Action::Forward(p_web1)),
        Policy::Filter(Pred::Any, Action::Forward(p_dpi)),
    ]);

    let program = sdn_program("ctl").expect("program builds");
    let mut exec = Execution::new(Arc::clone(&program));
    topo.emit(&mut exec.log, 10);
    let ctl = NodeId::new("ctl");
    for (sw, rid, policy) in [("S1", 100, &s1), ("S2", 200, &s2), ("S6", 600, &s6)] {
        for t in to_cfg_entries(sw, rid, &compile(policy).expect("compiles")) {
            exec.log.insert(10, ctl, t);
        }
    }
    let dst = ip("10.0.0.80");
    exec.log.insert(1_000, "S1", pkt_in(1, ip("4.3.2.1"), dst, 6, 512));
    exec.log.insert(2_000, "S1", pkt_in(2, ip("4.3.3.1"), dst, 6, 512));
    (exec, topo)
}

#[test]
fn diffprov_debugs_a_policy_written_network() {
    // The bug: the untrusted-subnet predicate says /24 instead of /23.
    let (exec, _) = policy_network(cidr("4.3.2.0/24"));
    let dst = ip("10.0.0.80");
    let good = QueryEvent::new(deliver_at("web1", 1, ip("4.3.2.1"), dst, 6, 512), u64::MAX);
    let bad = QueryEvent::new(deliver_at("web2", 2, ip("4.3.3.1"), dst, 6, 512), u64::MAX);
    let report = DiffProv::default()
        .diagnose(&exec, &good, &exec, &bad)
        .unwrap();
    assert!(report.succeeded(), "{report}");
    assert_eq!(report.delta.len(), 1, "{report}");
    // The fix maps straight back to the policy predicate: widen the
    // compiled entry's source match from /24 to /23.
    let before = report.delta[0].before.as_ref().unwrap();
    let after = report.delta[0].after.as_ref().unwrap();
    assert_eq!(before.args[3], Value::Prefix(cidr("4.3.2.0/24")));
    assert_eq!(after.args[3], Value::Prefix(cidr("4.3.2.0/23")));
    assert!(report.verified);
}

#[test]
fn corrected_policy_needs_no_changes() {
    // With the predicate written correctly, both packets are equivalent
    // deliveries and DiffProv's change set is empty.
    let (exec, _) = policy_network(cidr("4.3.2.0/23"));
    let dst = ip("10.0.0.80");
    let good = QueryEvent::new(deliver_at("web1", 1, ip("4.3.2.1"), dst, 6, 512), u64::MAX);
    let bad = QueryEvent::new(deliver_at("web1", 2, ip("4.3.3.1"), dst, 6, 512), u64::MAX);
    let report = DiffProv::default()
        .diagnose(&exec, &good, &exec, &bad)
        .unwrap();
    assert!(report.succeeded(), "{report}");
    assert!(report.delta.is_empty(), "{report}");
    assert!(report.verified);
}
