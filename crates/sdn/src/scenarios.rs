//! The four SDN diagnostic scenarios of Section 6.2.
//!
//! Each scenario builds one deterministic execution log (topology wiring,
//! controller configuration including the injected fault, and the probe
//! packets) and names the good/bad events an operator would hand to
//! DiffProv. The constructions follow the paper:
//!
//! * **SDN1** — broken (overly specific) flow entry: the running example of
//!   Figure 1.
//! * **SDN2** — multi-controller inconsistency: a higher-priority rule from
//!   another app overlaps legitimate traffic and diverts it to a scrubber.
//! * **SDN3** — unexpected rule expiration: a multicast rule disappears and
//!   a lower-priority rule hijacks the stream; the reference event is in
//!   the past.
//! * **SDN4** — multiple faulty entries on consecutive hops; DiffProv needs
//!   two rounds.

use diffprov_core::{QueryEvent, Scenario};
use dp_replay::Execution;
use dp_types::prefix::{cidr, ip};
use dp_types::{LogicalTime, NodeId};

use crate::program::{cfg_entry, deliver_at, fixed_sdn_program, pkt_in};
use crate::topology::Topology;

/// Base time for configuration; packets are injected afterwards.
const T_CONFIG: LogicalTime = 10;
/// Injection time of the good probe packet.
const T_GOOD: LogicalTime = 1_000;
/// Injection time of the bad probe packet.
const T_BAD: LogicalTime = 2_000;

/// Protocol/length used for probe packets (HTTP request-sized).
const PROTO_TCP: i64 = 6;
const PROBE_LEN: i64 = 512;

/// SDN1 — *Broken flow entry* (the paper's running example, Figure 1).
///
/// The operator intended `R1` to match the untrusted subnet `4.3.2.0/23`
/// and send it to web server #1 (co-located with the DPI box, which gets a
/// mirror copy), but wrote `4.3.2.0/24`. Requests from `4.3.3.1` therefore
/// fall through to the general rule `R2` and reach web server #2.
pub fn sdn1() -> Scenario {
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

    let program = fixed_sdn_program();
    let mut exec = Execution::new(program);
    topo.emit(&mut exec.log, T_CONFIG);

    let ctl = NodeId::new("ctl");
    let any = cidr("0.0.0.0/0");
    let mut cfg = |rid, sw: &str, prio, sm, dm, port| {
        exec.log
            .push_cfg(T_CONFIG, ctl, cfg_entry(rid, sw, prio, sm, dm, port));
    };
    // S1 forwards everything to S2.
    cfg(100, "S1", 1, any, any, topo.port_towards("S1", "S2"));
    // S2: the buggy specific rule R1 (/24 instead of /23) and the general
    // rule R2.
    cfg(1, "S2", 10, cidr("4.3.2.0/24"), any, topo.port_towards("S2", "S6"));
    cfg(2, "S2", 1, any, any, topo.port_towards("S2", "S3"));
    // Path to web server #2.
    cfg(300, "S3", 1, any, any, topo.port_towards("S3", "S4"));
    cfg(400, "S4", 1, any, any, p_web2);
    // S6 delivers to web server #1 and mirrors to the DPI device.
    cfg(600, "S6", 5, any, any, p_web1);
    cfg(601, "S6", 5, any, any, p_dpi);

    let dst = ip("10.0.0.80");
    let good_src = ip("4.3.2.1");
    let bad_src = ip("4.3.3.1");
    exec.log
        .insert(T_GOOD, "S1", pkt_in(1, good_src, dst, PROTO_TCP, PROBE_LEN));
    exec.log
        .insert(T_BAD, "S1", pkt_in(2, bad_src, dst, PROTO_TCP, PROBE_LEN));

    Scenario {
        name: "SDN1",
        description: "broken flow entry: R1 written as 4.3.2.0/24 instead of /23",
        good_event: QueryEvent::new(
            deliver_at("web1", 1, good_src, dst, PROTO_TCP, PROBE_LEN),
            u64::MAX,
        ),
        bad_event: QueryEvent::new(
            deliver_at("web2", 2, bad_src, dst, PROTO_TCP, PROBE_LEN),
            u64::MAX,
        ),
        bad_exec: exec.clone(),
        good_exec: exec,
        expected_changes: 1,
        expected_rounds: 1,
    }
}

/// SDN2 — *Multi-controller inconsistency*.
///
/// A security app installed a high-priority rule sending `66.0.0.0/7` to a
/// scrubber; the prefix is one bit too wide and swallows legitimate
/// traffic from `67.0.0.0/8` that a lower-priority rule should send to the
/// web server.
pub fn sdn2() -> Scenario {
    let mut topo = Topology::new("ctl");
    topo.switches(&["S0", "S1"]);
    topo.link("S0", "S1");
    let p_web = topo.host("S1", "web");
    let p_scrub = topo.host("S1", "scrubber");

    let program = fixed_sdn_program();
    let mut exec = Execution::new(program);
    topo.emit(&mut exec.log, T_CONFIG);

    let ctl = NodeId::new("ctl");
    let any = cidr("0.0.0.0/0");
    exec.log.push_cfg(
        T_CONFIG,
        ctl,
        cfg_entry(10, "S0", 1, any, any, topo.port_towards("S0", "S1")),
    );
    // The overlapping high-priority scrubber rule (bug: /7, intended /8).
    exec.log.push_cfg(
        T_CONFIG,
        ctl,
        cfg_entry(20, "S1", 10, cidr("66.0.0.0/7"), any, p_scrub),
    );
    // The web rule.
    exec.log
        .push_cfg(T_CONFIG, ctl, cfg_entry(21, "S1", 1, any, any, p_web));

    let dst = ip("10.0.0.80");
    let good_src = ip("68.0.0.5"); // outside 66.0.0.0/7
    let bad_src = ip("67.1.2.3"); // legitimate, but inside the bad /7
    exec.log
        .insert(T_GOOD, "S0", pkt_in(1, good_src, dst, PROTO_TCP, PROBE_LEN));
    exec.log
        .insert(T_BAD, "S0", pkt_in(2, bad_src, dst, PROTO_TCP, PROBE_LEN));

    Scenario {
        name: "SDN2",
        description: "conflicting rules from two controller apps: scrubber rule 66.0.0.0/7 \
                      overlaps legitimate 67.0.0.0/8 traffic",
        good_event: QueryEvent::new(
            deliver_at("web", 1, good_src, dst, PROTO_TCP, PROBE_LEN),
            u64::MAX,
        ),
        bad_event: QueryEvent::new(
            deliver_at("scrubber", 2, bad_src, dst, PROTO_TCP, PROBE_LEN),
            u64::MAX,
        ),
        bad_exec: exec.clone(),
        good_exec: exec,
        expected_changes: 1,
        expected_rounds: 1,
    }
}

/// SDN3 — *Unexpected rule expiration*.
///
/// A multicast rule duplicated a video stream to two receivers; when it
/// expires, a lower-priority unicast rule delivers the stream to the wrong
/// host. The reference event is a packet from the past, before the
/// expiration — exercising temporal provenance.
pub fn sdn3() -> Scenario {
    let mut topo = Topology::new("ctl");
    topo.switches(&["S0", "S1"]);
    topo.link("S0", "S1");
    let p_h1 = topo.host("S1", "h1");
    let p_h2 = topo.host("S1", "h2");
    let p_h3 = topo.host("S1", "h3");

    let program = fixed_sdn_program();
    let mut exec = Execution::new(program);
    topo.emit(&mut exec.log, T_CONFIG);

    let ctl = NodeId::new("ctl");
    let any = cidr("0.0.0.0/0");
    let group = cidr("239.1.1.1/32");
    exec.log.push_cfg(
        T_CONFIG,
        ctl,
        cfg_entry(10, "S0", 1, any, any, topo.port_towards("S0", "S1")),
    );
    // The multicast rule pair (one entry per receiver, same priority).
    let mc1 = cfg_entry(20, "S1", 10, any, group, p_h1);
    let mc2 = cfg_entry(21, "S1", 10, any, group, p_h2);
    exec.log.push_cfg(T_CONFIG, ctl, mc1.clone());
    exec.log.push_cfg(T_CONFIG, ctl, mc2.clone());
    // The low-priority fallback that hijacks the stream after expiry.
    exec.log
        .push_cfg(T_CONFIG, ctl, cfg_entry(22, "S1", 1, any, any, p_h3));

    let src = ip("10.9.9.9");
    let dst = ip("239.1.1.1");
    const PROTO_UDP: i64 = 17;
    exec.log
        .insert(T_GOOD, "S0", pkt_in(1, src, dst, PROTO_UDP, 1316));
    // The multicast rule expires (modeled as deletion of its config).
    let t_expire = T_GOOD + 500;
    exec.log.delete(t_expire, ctl, mc1);
    exec.log.delete(t_expire, ctl, mc2);
    exec.log
        .insert(T_BAD, "S0", pkt_in(2, src, dst, PROTO_UDP, 1316));

    Scenario {
        name: "SDN3",
        description: "multicast rule expired; stream hijacked by a lower-priority rule \
                      (reference event lies in the past)",
        good_event: QueryEvent::new(deliver_at("h1", 1, src, dst, PROTO_UDP, 1316), u64::MAX),
        bad_event: QueryEvent::new(deliver_at("h3", 2, src, dst, PROTO_UDP, 1316), u64::MAX),
        bad_exec: exec.clone(),
        good_exec: exec,
        expected_changes: 1,
        expected_rounds: 1,
    }
}

/// SDN4 — *Multiple faulty entries* on two consecutive hops.
///
/// SDN1's bug, twice: both S2 and S3 carry an overly specific rule, so
/// fixing the first fault alone still misroutes the traffic (to yet
/// another server). DiffProv proceeds in two rounds and finds both faults.
pub fn sdn4() -> Scenario {
    let mut topo = Topology::new("ctl");
    topo.switches(&["S1", "S2", "S3", "S5", "S6", "S7"]);
    topo.link("S1", "S2");
    topo.link("S2", "S3");
    topo.link("S2", "S5");
    topo.link("S3", "S6");
    topo.link("S3", "S7");
    let p_web1 = topo.host("S7", "web1");
    let p_web2 = topo.host("S5", "web2");
    let p_web3 = topo.host("S6", "web3");

    let program = fixed_sdn_program();
    let mut exec = Execution::new(program);
    topo.emit(&mut exec.log, T_CONFIG);

    let ctl = NodeId::new("ctl");
    let any = cidr("0.0.0.0/0");
    let mut cfg = |rid, sw: &str, prio, sm, dm, port| {
        exec.log
            .push_cfg(T_CONFIG, ctl, cfg_entry(rid, sw, prio, sm, dm, port));
    };
    cfg(100, "S1", 1, any, any, topo.port_towards("S1", "S2"));
    // Fault #1 at S2 (specific rule too narrow) + fallback towards web2.
    cfg(1, "S2", 10, cidr("4.3.2.0/24"), any, topo.port_towards("S2", "S3"));
    cfg(2, "S2", 1, any, any, topo.port_towards("S2", "S5"));
    // Fault #2 at S3 (same bug) + fallback towards web3.
    cfg(3, "S3", 10, cidr("4.3.2.0/24"), any, topo.port_towards("S3", "S7"));
    cfg(4, "S3", 1, any, any, topo.port_towards("S3", "S6"));
    cfg(500, "S5", 1, any, any, p_web2);
    cfg(600, "S6", 1, any, any, p_web3);
    cfg(700, "S7", 1, any, any, p_web1);

    let dst = ip("10.0.0.80");
    let good_src = ip("4.3.2.1");
    let bad_src = ip("4.3.3.1");
    exec.log
        .insert(T_GOOD, "S1", pkt_in(1, good_src, dst, PROTO_TCP, PROBE_LEN));
    exec.log
        .insert(T_BAD, "S1", pkt_in(2, bad_src, dst, PROTO_TCP, PROBE_LEN));

    Scenario {
        name: "SDN4",
        description: "two overly specific entries on consecutive hops (S2, S3); \
                      requires two DiffProv rounds",
        good_event: QueryEvent::new(
            deliver_at("web1", 1, good_src, dst, PROTO_TCP, PROBE_LEN),
            u64::MAX,
        ),
        bad_event: QueryEvent::new(
            deliver_at("web2", 2, bad_src, dst, PROTO_TCP, PROBE_LEN),
            u64::MAX,
        ),
        bad_exec: exec.clone(),
        good_exec: exec,
        expected_changes: 2,
        expected_rounds: 2,
    }
}

/// FLAP — *Intermittent failure* (the third failure class of the paper's
/// Section 2.4 survey: "a service was experiencing instability but was not
/// rendered completely useless").
///
/// A route towards the primary server keeps flapping: the entry is
/// installed, withdrawn, re-installed, withdrawn again. Requests during up
/// periods are served correctly; requests during down periods fall through
/// to a backup rule and land on a stale mirror. The reference is a request
/// from the most recent up period — the strategy the survey found most
/// common: "looking back in time for an instance where that same system
/// was still working correctly".
pub fn flapping() -> Scenario {
    let mut topo = Topology::new("ctl");
    topo.switches(&["S0", "S1"]);
    topo.link("S0", "S1");
    let p_primary = topo.host("S1", "primary");
    let p_stale = topo.host("S1", "mirror-stale");

    let program = fixed_sdn_program();
    let mut exec = Execution::new(program);
    topo.emit(&mut exec.log, T_CONFIG);

    let ctl = NodeId::new("ctl");
    let any = cidr("0.0.0.0/0");
    exec.log.push_cfg(
        T_CONFIG,
        ctl,
        cfg_entry(10, "S0", 1, any, any, topo.port_towards("S0", "S1")),
    );
    // The backup rule towards the stale mirror.
    exec.log
        .push_cfg(T_CONFIG, ctl, cfg_entry(21, "S1", 1, any, any, p_stale));
    // The flapping primary route: up, down, up, down.
    let primary = cfg_entry(20, "S1", 10, any, any, p_primary);
    exec.log.push_cfg(T_CONFIG, ctl, primary.clone());
    exec.log.delete(1_000, ctl, primary.clone()); // first withdrawal
    exec.log.insert(1_200, ctl, primary.clone()); // back up
    exec.log.delete(1_800, ctl, primary); // down again (and stays down)

    let src = ip("20.0.0.5");
    let dst = ip("10.0.0.80");
    // The reference request hits the second up period; the faulty one the
    // final down period.
    exec.log.insert(1_500, "S0", pkt_in(1, src, dst, PROTO_TCP, PROBE_LEN));
    exec.log.insert(2_000, "S0", pkt_in(2, src, dst, PROTO_TCP, PROBE_LEN));

    Scenario {
        name: "FLAP",
        description: "intermittently flapping route: requests in down periods land on a \
                      stale mirror; the reference comes from the last up period",
        good_event: QueryEvent::new(
            deliver_at("primary", 1, src, dst, PROTO_TCP, PROBE_LEN),
            u64::MAX,
        ),
        bad_event: QueryEvent::new(
            deliver_at("mirror-stale", 2, src, dst, PROTO_TCP, PROBE_LEN),
            u64::MAX,
        ),
        bad_exec: exec.clone(),
        good_exec: exec,
        expected_changes: 1,
        expected_rounds: 1,
    }
}

/// All four SDN scenarios.
pub fn all_sdn_scenarios() -> Vec<Scenario> {
    vec![sdn1(), sdn2(), sdn3(), sdn4()]
}

/// Extension trait adding a configuration-push helper to the event log.
pub trait CfgLog {
    /// Logs a `cfgEntry` insertion at the controller.
    fn push_cfg(&mut self, at: LogicalTime, ctl: NodeId, entry: dp_types::Tuple);
}

impl CfgLog for dp_replay::EventLog {
    fn push_cfg(&mut self, at: LogicalTime, ctl: NodeId, entry: dp_types::Tuple) {
        self.insert(at, ctl, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_ndlog::TupleChange;
    use dp_types::Value;

    #[test]
    fn sdn1_finds_the_broken_flow_entry() {
        let s = sdn1();
        let report = s.diagnose().unwrap();
        assert!(report.succeeded(), "{report}");
        assert_eq!(report.delta.len(), 1, "{report}");
        assert_eq!(report.rounds.len(), 1, "{report}");
        let TupleChange { node, before, after } = &report.delta[0];
        assert_eq!(node.as_str(), "ctl");
        let before = before.as_ref().expect("replacement");
        let after = after.as_ref().expect("replacement");
        assert_eq!(before.table.as_str(), "cfgEntry");
        assert_eq!(before.args[0], Value::Int(1)); // R1
        assert_eq!(before.args[3], Value::Prefix(cidr("4.3.2.0/24")));
        assert_eq!(after.args[3], Value::Prefix(cidr("4.3.2.0/23")));
        assert!(report.verified, "{report}");
    }

    #[test]
    fn sdn2_narrows_the_overlapping_rule() {
        let s = sdn2();
        let report = s.diagnose().unwrap();
        assert!(report.succeeded(), "{report}");
        assert_eq!(report.delta.len(), 1, "{report}");
        let TupleChange { before, after, .. } = &report.delta[0];
        let before = before.as_ref().unwrap();
        let after = after.as_ref().unwrap();
        assert_eq!(before.args[0], Value::Int(20)); // the scrubber rule
        assert_eq!(before.args[3], Value::Prefix(cidr("66.0.0.0/7")));
        assert_eq!(after.args[3], Value::Prefix(cidr("66.0.0.0/8")));
        assert!(report.verified, "{report}");
    }

    #[test]
    fn sdn3_reinstalls_the_expired_rule() {
        let s = sdn3();
        let report = s.diagnose().unwrap();
        assert!(report.succeeded(), "{report}");
        assert_eq!(report.delta.len(), 1, "{report}");
        let TupleChange { before, after, .. } = &report.delta[0];
        assert!(before.is_none(), "expired rule is gone; the change is an insertion");
        let after = after.as_ref().unwrap();
        assert_eq!(after.args[0], Value::Int(20)); // the h1 multicast entry
        assert!(report.verified, "{report}");
    }

    #[test]
    fn sdn4_needs_two_rounds_for_two_faults() {
        let s = sdn4();
        let report = s.diagnose().unwrap();
        assert!(report.succeeded(), "{report}");
        assert_eq!(report.delta.len(), 2, "{report}");
        assert_eq!(report.rounds.len(), 2, "{report}");
        // One change per round, on R1 then R3, both widened to /23.
        for (round, rid) in report.rounds.iter().zip([1i64, 3i64]) {
            assert_eq!(round.changes.len(), 1);
            let after = round.changes[0].after.as_ref().unwrap();
            assert_eq!(after.args[0], Value::Int(rid));
            assert_eq!(after.args[3], Value::Prefix(cidr("4.3.2.0/23")));
        }
        assert!(report.verified, "{report}");
    }

    #[test]
    fn good_and_bad_packets_actually_diverge() {
        // Sanity: in SDN1, replay shows the good packet at web1 (and the
        // DPI mirror) and the bad packet at web2.
        let s = sdn1();
        let r = s.good_exec.replay().unwrap();
        assert!(r.exists(&NodeId::new("web1"), &s.good_event.tref.tuple));
        assert!(r.exists(&NodeId::new("web2"), &s.bad_event.tref.tuple));
        let dpi_copy = deliver_at("dpi", 1, ip("4.3.2.1"), ip("10.0.0.80"), 6, 512);
        assert!(r.exists(&dpi_copy.node, &dpi_copy.tuple));
        // The bad packet must not reach web1.
        let wrong = deliver_at("web1", 2, ip("4.3.3.1"), ip("10.0.0.80"), 6, 512);
        assert!(!r.exists(&wrong.node, &wrong.tuple));
    }

    #[test]
    fn flapping_route_is_reinstalled_from_a_past_up_period() {
        let s = flapping();
        // Both events have provenance; the reference's is historical (the
        // second withdrawal cascaded its delivery away).
        let r = s.good_exec.replay().unwrap();
        assert!(!r.exists(&s.good_event.tref.node, &s.good_event.tref.tuple));
        assert!(r.query_at(&s.good_event.tref, s.good_event.at).is_some());
        // The flapping entry has two closed episodes in the temporal graph.
        let entry = dp_types::TupleRef::new(
            "ctl",
            cfg_entry(20, "S1", 10, cidr("0.0.0.0/0"), cidr("0.0.0.0/0"), 2),
        );
        assert_eq!(r.graph().episodes(&entry).len(), 2);

        let report = s.diagnose().unwrap();
        assert!(report.succeeded(), "{report}");
        assert_eq!(report.delta.len(), 1, "{report}");
        let c = &report.delta[0];
        assert!(c.before.is_none(), "the route is down: the fix re-installs it");
        assert_eq!(
            c.after.as_ref().unwrap().args[0],
            dp_types::Value::Int(20),
            "{report}"
        );
        assert!(report.verified, "{report}");
    }

    #[test]
    fn scenario_trees_have_realistic_sizes() {
        // Table 1's shape: plain provenance trees have tens to hundreds of
        // vertexes while DiffProv's answer has one or two.
        for s in all_sdn_scenarios() {
            let report = s.diagnose().unwrap();
            assert!(
                report.good_tree_size >= 40,
                "{}: good tree only {} vertexes",
                s.name,
                report.good_tree_size
            );
            assert!(report.answer_size() <= 2, "{}", s.name);
            assert!(
                report.good_tree_size / report.answer_size().max(1) >= 20,
                "{}: not a dramatic reduction",
                s.name
            );
        }
    }
}
