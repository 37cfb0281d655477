//! Header rewriting: diagnosing a misdirected load-balancer VIP.
//!
//! This extends the paper's SDN case studies with OpenFlow's set-field
//! actions (header rewriting), which stresses two parts of DiffProv at
//! once: taints must flow through *rewritten* headers (the delivered
//! destination is computed from configuration, not from the stimulus),
//! and the reference event lies in the past, before the configuration was
//! changed — the sudden-failure pattern from the paper's Section 2
//! survey ("a service's status suddenly changed from 'Service OK' to
//! 'Internal Server Error'").
//!
//! Scenario: a load balancer rewrites the VIP `10.0.0.100` to a backend
//! address. During a maintenance window, the rewrite entry is repointed
//! to the wrong backend. Yesterday's request (reference) reached backend
//! `b1`; today's lands on `b2`. DiffProv's answer is the single rewrite
//! entry, restored to the working backend.

use diffprov_core::{QueryEvent, Scenario};
use dp_replay::Execution;
use dp_types::prefix::{cidr, ip};
use dp_types::{LogicalTime, NodeId, Tuple, Value};

use crate::program::{cfg_entry, deliver_at, fixed_sdn_program, pkt_in};
use crate::topology::Topology;

const T_CONFIG: LogicalTime = 10;
const T_GOOD: LogicalTime = 1_000;
const T_REPOINT: LogicalTime = 1_500;
const T_BAD: LogicalTime = 2_000;

/// The virtual IP clients talk to.
pub fn vip() -> u32 {
    ip("10.0.0.100")
}

/// The intended backend.
pub fn backend_good() -> u32 {
    ip("10.0.1.1")
}

/// The wrong backend the entry was repointed to.
pub fn backend_bad() -> u32 {
    ip("10.0.1.2")
}

fn rewrite_entry(rid: i64, new_dst: u32, port: i64) -> Tuple {
    Tuple::new(
        "rewriteEntry",
        vec![
            Value::Int(rid),
            Value::Prefix(cidr("10.0.0.100/32")),
            Value::Ip(new_dst),
            Value::Int(port),
        ],
    )
}

/// Builds the VIP scenario.
pub fn nat_rewrite() -> Scenario {
    let mut topo = Topology::new("ctl");
    topo.switches(&["LB", "S2"]);
    topo.link("LB", "S2");
    let p_b1 = topo.host("S2", "b1");
    let p_b2 = topo.host("S2", "b2");

    let program = fixed_sdn_program();
    let mut exec = Execution::new(program);
    topo.emit(&mut exec.log, T_CONFIG);

    let ctl = NodeId::new("ctl");
    let any = cidr("0.0.0.0/0");
    // S2 routes by (rewritten) destination to the backends.
    exec.log.insert(
        T_CONFIG,
        ctl,
        cfg_entry(10, "S2", 5, any, cidr("10.0.1.1/32"), p_b1),
    );
    exec.log.insert(
        T_CONFIG,
        ctl,
        cfg_entry(11, "S2", 5, any, cidr("10.0.1.2/32"), p_b2),
    );
    // The load balancer rewrites the VIP. Initially towards b1...
    let lb = NodeId::new("LB");
    let to_s2 = topo.port_towards("LB", "S2");
    let original = rewrite_entry(1, backend_good(), to_s2);
    let repointed = rewrite_entry(1, backend_bad(), to_s2);
    exec.log.insert(T_CONFIG, lb, original.clone());
    // Yesterday's request: VIP -> b1.
    let src_good = ip("80.1.1.1");
    exec.log.insert(T_GOOD, "LB", pkt_in(1, src_good, vip(), 6, 512));
    // The maintenance window repoints the entry to the wrong backend.
    exec.log.delete(T_REPOINT, lb, original);
    exec.log.insert(T_REPOINT, lb, repointed);
    // Today's request: VIP -> b2 (wrong).
    let src_bad = ip("80.2.2.2");
    exec.log.insert(T_BAD, "LB", pkt_in(2, src_bad, vip(), 6, 512));

    Scenario {
        name: "VIP",
        description: "load-balancer rewrite entry repointed to the wrong backend during \
                      maintenance; the reference request predates the change",
        good_event: QueryEvent::new(
            deliver_at("b1", 1, src_good, backend_good(), 6, 512),
            u64::MAX,
        ),
        bad_event: QueryEvent::new(
            deliver_at("b2", 2, src_bad, backend_bad(), 6, 512),
            u64::MAX,
        ),
        bad_exec: exec.clone(),
        good_exec: exec,
        expected_changes: 1,
        expected_rounds: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rewriting_redirects_traffic() {
        let s = nat_rewrite();
        let r = s.good_exec.replay().unwrap();
        // Yesterday's request reached b1 with the rewritten destination.
        // (Deleting the original rewrite entry cascades that delivery out
        // of the *current* state — it survives only in the temporal
        // provenance graph, exactly like scenario SDN3.)
        assert!(!r.exists(&s.good_event.tref.node, &s.good_event.tref.tuple));
        assert!(r
            .query_at(&s.good_event.tref, s.good_event.at)
            .is_some());
        // Today's request reached b2 and is still current state.
        assert!(r.exists(&s.bad_event.tref.node, &s.bad_event.tref.tuple));
        // Nothing ever arrived carrying the VIP itself: the header really
        // was rewritten in flight.
        let unrewritten = deliver_at("b1", 1, ip("80.1.1.1"), vip(), 6, 512);
        assert!(r.query_at(&unrewritten, u64::MAX).is_none());
    }

    #[test]
    fn diffprov_restores_the_rewrite_entry() {
        let s = nat_rewrite();
        let report = s.diagnose().unwrap();
        assert!(report.succeeded(), "{report}");
        assert_eq!(report.delta.len(), 1, "{report}");
        let c = &report.delta[0];
        assert_eq!(c.node.as_str(), "LB");
        let before = c.before.as_ref().unwrap();
        let after = c.after.as_ref().unwrap();
        assert_eq!(before.args[2], Value::Ip(backend_bad()));
        assert_eq!(after.args[2], Value::Ip(backend_good()));
        assert!(report.verified, "{report}");
    }

    #[test]
    fn fix_reroutes_todays_request() {
        let s = nat_rewrite();
        let report = s.diagnose().unwrap();
        let fixed = s.bad_exec.replay_with(&report.delta, T_BAD - 1).unwrap();
        let good_path = deliver_at("b1", 2, ip("80.2.2.2"), backend_good(), 6, 512);
        let bad_path = deliver_at("b2", 2, ip("80.2.2.2"), backend_bad(), 6, 512);
        assert!(fixed.exists(&good_path.node, &good_path.tuple));
        assert!(!fixed.exists(&bad_path.node, &bad_path.tuple));
    }
}
