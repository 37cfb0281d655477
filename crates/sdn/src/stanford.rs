//! The complex-network experiment (Section 6.7): a campus backbone in the
//! style of the Stanford network used by ATPG.
//!
//! 2 backbone routers and 14 operational-zone (OZ) routers form a tree;
//! each OZ owns one or two /16 zones, routers carry generated forwarding
//! entries (aggregates plus optional bulk /24s to scale the tables towards
//! the paper's 757k entries) and ACL drop rules. The replicated
//! "Forwarding Error" scenario: OZ router `oz4` (the paper's S2) carries a
//! misconfigured entry that **drops** packets to `172.20.10.32/27` — H2's
//! subnet — while the co-located subnet `172.19.254.0/24` is reachable,
//! providing the reference event. On top of the fault we inject 20
//! additional faulty rules (10 on-path, 10 off-path) and heavy background
//! traffic; provenance keeps DiffProv from being distracted by either.

use std::sync::Arc;

use dp_types::DetRng;

use diffprov_core::QueryEvent;
use dp_replay::{BaseEvent, BaseOp, EventLog, Execution};
use dp_types::prefix::{cidr, ip};
use dp_types::{LogicalTime, NodeId, Prefix, Sym, TupleRef};

use crate::program::{cfg_entry, deliver_at, pkt_in, sdn_program, DROP_PORT};
use diffprov_core::Scenario;
use crate::topology::Topology;

/// Scale and noise knobs for the campus network.
#[derive(Clone, Debug)]
pub struct CampusConfig {
    /// RNG seed for noise generation.
    pub seed: u64,
    /// Bulk /24 forwarding entries generated per router per zone
    /// (specific routes shadowing the aggregates; behaviourally neutral).
    /// The paper's setup has 757k entries total; the default keeps tests
    /// fast while the benches scale it up.
    pub bulk_entries_per_router: usize,
    /// ACL drop rules per backbone router (for external prefixes).
    pub acl_rules: usize,
    /// Extra faulty rules on the H1→H2 path.
    pub faults_on_path: usize,
    /// Extra faulty rules on other routers.
    pub faults_off_path: usize,
    /// Background packets streamed through the network.
    pub background_packets: usize,
    /// Rounds of route/traffic update churn after the initial load: each
    /// round withdraws the bulk shadow routes and the background packets
    /// and re-issues them a beat later. Behaviourally neutral for the
    /// probes (the shadows mirror their aggregates and churn settles
    /// before the probe times), but it cycles every affected episode —
    /// the long-running-network regime where the append-only provenance
    /// graph keeps growing. At most 25 rounds fit before the probe window.
    pub update_churn_rounds: usize,
}

impl Default for CampusConfig {
    fn default() -> Self {
        CampusConfig {
            seed: 7,
            bulk_entries_per_router: 4,
            acl_rules: 20,
            faults_on_path: 10,
            faults_off_path: 10,
            background_packets: 100,
            update_churn_rounds: 0,
        }
    }
}

/// The constructed campus network experiment.
pub struct Campus {
    /// The diagnostic scenario (good/bad events plus execution).
    pub scenario: Scenario,
    /// The topology, for inspection.
    pub topology: Topology,
    /// Total number of configured forwarding/ACL entries.
    pub entry_count: usize,
}

const T_CONFIG: LogicalTime = 10;
const T_TRAFFIC: LogicalTime = 1_000;
const T_GOOD: LogicalTime = 5_000;
const T_BAD: LogicalTime = 6_000;

/// Builds the campus network and its forwarding-error scenario.
pub fn campus(cfg: &CampusConfig) -> Campus {
    let mut rng = DetRng::seed_from_u64(cfg.seed);
    let mut topo = Topology::new("ctl");

    // 2 backbone + 14 OZ routers in a tree. Each router's name is made
    // once here and copied into every entry and packet that names it:
    // making a name is an interner lookup.
    let all_routers: Vec<Sym> = ["bb1", "bb2"]
        .into_iter()
        .map(Sym::new)
        .chain((1..=14).map(|k| Sym::from(format!("oz{k}"))))
        .collect();
    let (backbone, ozs) = all_routers.split_at(2);
    let oz4 = ozs[3];
    for r in &all_routers {
        topo.switch(r.as_str());
    }
    topo.link("bb1", "bb2");
    for (i, n) in ozs.iter().enumerate() {
        topo.link(backbone[i / 7].as_str(), n.as_str());
    }

    // Zone ownership: ozk owns 172.(15+k).0.0/16; oz4 additionally owns
    // 172.20.0.0/16 (H2's zone — co-located with the reference subnet, as
    // in the paper), so oz5 is compensated with 172.30.0.0/16.
    let mut zones: Vec<(Prefix, Sym)> = Vec::new();
    for (i, &n) in ozs.iter().enumerate() {
        let k = i + 1;
        if k == 5 {
            zones.push((cidr("172.30.0.0/16"), n));
        } else {
            zones.push((
                Prefix::new(u32::from_be_bytes([172, (15 + k) as u8, 0, 0]), 16)
                    .expect("static prefix"),
                n,
            ));
        }
    }
    zones.push((cidr("172.20.0.0/16"), oz4));

    // Hosts: one zone host per OZ, plus the scenario hosts at oz4.
    let mut zone_host_port = std::collections::BTreeMap::new();
    for &n in ozs {
        let p = topo.host(n.as_str(), &format!("h-{n}"));
        zone_host_port.insert(n, p);
    }
    let p_h3 = topo.host("oz4", "h3"); // reference host (172.19.254.0/24)
    let _p_h2 = topo.host("oz4", "h2"); // intended destination (172.20.10.32/27)

    let program = sdn_program("ctl").expect("SDN program builds");
    let mut exec = Execution::new(program);
    topo.emit(&mut exec.log, T_CONFIG);

    let ctl = NodeId::new("ctl");
    let any = cidr("0.0.0.0/0");
    let mut rid = 1_000i64;
    let mut entry_count = 0usize;
    // Churned tuples are logged several times over; every event of one
    // shares its allocation.
    let mut churn_entries: Vec<Arc<dp_types::Tuple>> = Vec::new();
    let mut churn_packets: Vec<(NodeId, Arc<dp_types::Tuple>)> = Vec::new();
    let push = |exec: &mut Execution, e: dp_types::Tuple| {
        exec.log.insert(T_CONFIG, ctl, e);
    };

    // Zone routing: every router gets one aggregate entry per zone.
    for &r in &all_routers {
        for &(zone, owner) in &zones {
            let port = if r == owner {
                zone_host_port[&owner]
            } else {
                let hop = topo
                    .next_hop(r.as_str(), owner.as_str())
                    .expect("tree is connected");
                topo.port_towards(r.as_str(), &hop)
            };
            push(&mut exec, cfg_entry(rid, r, 5, any, zone, port));
            rid += 1;
            entry_count += 1;
            // Bulk specific /24 routes within the zone, same next hop:
            // table inflation without behavioural change.
            for j in 0..cfg.bulk_entries_per_router {
                let sub = Prefix::new(zone.addr() | ((j as u32 & 0xff) << 8), 24)
                    .expect("static prefix");
                let e = Arc::new(cfg_entry(rid, r, 6, any, sub, port));
                if cfg.update_churn_rounds > 0 {
                    churn_entries.push(Arc::clone(&e));
                }
                exec.log.insert(T_CONFIG, ctl, e);
                rid += 1;
                entry_count += 1;
            }
        }
    }

    // ACLs at the backbone: drop external destinations.
    for &bb in backbone {
        for a in 0..cfg.acl_rules {
            let pfx = Prefix::new(u32::from_be_bytes([(60 + a) as u8, 0, 0, 0]), 8)
                .expect("static prefix");
            push(&mut exec, cfg_entry(rid, bb, 8, any, pfx, DROP_PORT));
            rid += 1;
            entry_count += 1;
        }
    }

    // The scenario entries at oz4: the reachable reference subnet and THE
    // FAULT — H2's subnet misconfigured to drop (should be the host port).
    let h3_subnet = cidr("172.19.254.0/24");
    let h2_subnet = cidr("172.20.10.32/27");
    push(&mut exec, cfg_entry(1, oz4, 9, any, h3_subnet, p_h3));
    push(&mut exec, cfg_entry(2, oz4, 10, any, h2_subnet, DROP_PORT));
    entry_count += 2;

    // 20 extra faults: wrong-port/drop entries for unused prefixes, so the
    // original fault stays reproducible (as the paper verifies).
    let on_path = [ozs[2], backbone[0], oz4];
    for i in 0..cfg.faults_on_path {
        let r = on_path[i % on_path.len()];
        let pfx = Prefix::new(u32::from_be_bytes([10, 66, i as u8, 0]), 24).expect("static");
        push(&mut exec, cfg_entry(rid, r, 7, any, pfx, DROP_PORT));
        rid += 1;
        entry_count += 1;
    }
    for i in 0..cfg.faults_off_path {
        let r = ozs[7 + (i % 7)]; // oz8..oz14
        let pfx = Prefix::new(u32::from_be_bytes([10, 77, i as u8, 0]), 24).expect("static");
        let bogus_port = 99; // no link: packets to it vanish
        push(&mut exec, cfg_entry(rid, r, 7, any, pfx, bogus_port));
        rid += 1;
        entry_count += 1;
    }

    // The probe packets: H1 sits in oz3's zone (172.18.0.0/16). They are
    // logged in replay order among the traffic (`log_probes_before`).
    let h1 = ip("172.18.7.7");
    let good_dst = ip("172.19.254.9");
    let bad_dst = ip("172.20.10.33");
    let mut probes = vec![
        (T_BAD, pkt_in(2, h1, bad_dst, 6, 512)),
        (T_GOOD, pkt_in(1, h1, good_dst, 6, 512)),
    ];

    // Background traffic between random zones (HTTP-ish and bulk flows).
    for b in 0..cfg.background_packets {
        let szi = rng.gen_range_usize(0, zones.len());
        let dzi = rng.gen_range_usize(0, zones.len());
        let (sz, s_owner) = zones[szi];
        let (dz, _) = &zones[dzi];
        let src = sz.addr() | rng.gen_range_u32(1, 0xffff);
        let dst = dz.addr() | rng.gen_range_u32(1, 0xffff);
        let proto = if rng.gen_bool(0.8) { 6 } else { 17 };
        let len = [64i64, 512, 1500][rng.gen_range_usize(0, 3)];
        let p = Arc::new(pkt_in(500_000 + b as i64, src, dst, proto, len));
        if cfg.update_churn_rounds > 0 {
            churn_packets.push((NodeId(s_owner), Arc::clone(&p)));
        }
        log_probes_before(&mut exec.log, &mut probes, T_TRAFFIC + b as u64);
        exec.log.insert(T_TRAFFIC + b as u64, NodeId(s_owner), p);
    }

    // Update churn: withdraw and re-issue the shadow routes and the
    // background packets in spaced rounds between the traffic window and
    // the probes. Each cycle closes the affected episodes and opens fresh
    // ones without changing what the probes observe.
    if cfg.update_churn_rounds > 0 {
        let t_churn = (T_TRAFFIC + cfg.background_packets as u64 + 50).max(2_000);
        assert!(
            t_churn + cfg.update_churn_rounds as u64 * 100 < T_GOOD,
            "update churn would spill into the probe window"
        );
        for round in 0..cfg.update_churn_rounds {
            let t_del = t_churn + round as u64 * 100;
            let t_re = t_del + 50;
            // A round's withdrawals, then its re-issues: each due's events
            // in the order entries, packets.
            for (t, op) in [(t_del, BaseOp::Delete), (t_re, BaseOp::Insert)] {
                let entries = churn_entries.iter().map(|e| (&ctl, e));
                for (node, tuple) in entries.chain(churn_packets.iter().map(|(n, p)| (n, p))) {
                    exec.log.push(BaseEvent {
                        due: t,
                        node: *node,
                        tuple: Arc::clone(tuple),
                        op,
                    });
                }
            }
        }
    }
    log_probes_before(&mut exec.log, &mut probes, LogicalTime::MAX);
    // Everything above was logged in replay order, so this sorts nothing;
    // it keeps every read of the log a borrow instead of a sorted copy.
    exec.log.normalize();

    let scenario = Scenario {
        name: "Campus",
        description: "campus network forwarding error: oz4 drops packets to H2's subnet \
                      172.20.10.32/27 while the co-located 172.19.254.0/24 is reachable; \
                      20 extra faults and background traffic as noise",
        good_event: QueryEvent::new(deliver_at("h3", 1, h1, good_dst, 6, 512), u64::MAX),
        // The packet is dropped midway; the operator queries it at the
        // last hop where it was observed (oz4, where the ACL ate it).
        bad_event: QueryEvent::new(
            TupleRef::new(
                "oz4",
                dp_types::Tuple::new(
                    "pktAt",
                    pkt_in(2, h1, bad_dst, 6, 512).args.clone(),
                ),
            ),
            u64::MAX,
        ),
        bad_exec: exec.clone(),
        good_exec: exec,
        expected_changes: 2,
        expected_rounds: 1,
    };

    Campus {
        scenario,
        topology: topo,
        entry_count,
    }
}

/// Logs the probes (`(due, pktIn)`, latest first) due before `due` at
/// `oz3`: a probe goes behind everything logged at its own due, as a
/// stable sort by due would place it, so the log stays in replay order.
fn log_probes_before(
    log: &mut EventLog,
    probes: &mut Vec<(LogicalTime, dp_types::Tuple)>,
    due: LogicalTime,
) {
    while probes.last().is_some_and(|&(at, _)| at < due) {
        let (at, probe) = probes.pop().expect("checked above");
        log.insert(at, "oz3", probe);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_types::Value;

    #[test]
    fn campus_reproduces_and_diagnoses_the_forwarding_error() {
        let campus = campus(&CampusConfig {
            background_packets: 40,
            bulk_entries_per_router: 2,
            ..Default::default()
        });
        // The fault reproduces: good probe delivered, bad probe not.
        let r = campus.scenario.good_exec.replay().unwrap();
        assert!(r.exists(
            &NodeId::new("h3"),
            &campus.scenario.good_event.tref.tuple
        ));
        assert!(!r.exists(
            &NodeId::new("h2"),
            &deliver_at("h2", 2, ip("172.18.7.7"), ip("172.20.10.33"), 6, 512).tuple
        ));

        let report = campus.scenario.diagnose().unwrap();
        assert!(report.succeeded(), "{report}");
        // Despite 20 extra faults and background noise, the change set is
        // tiny and contains the misconfigured drop entry (rid 2).
        assert!(report.delta.len() <= 2, "{report}");
        assert!(
            report
                .delta
                .iter()
                .any(|c| c.before.as_ref().map(|b| b.args[0] == Value::Int(2)) == Some(true)),
            "the misconfigured oz4 entry must be named: {report}"
        );
        assert!(report.verified, "{report}");
    }

    /// The generator appends in replay order — probes among traffic due
    /// later, churn rounds' withdrawals before their re-issues — so the
    /// log it hands out is normalized without a sort, and every read of
    /// it borrows.
    #[test]
    fn campus_logs_in_replay_order() {
        for (background_packets, update_churn_rounds) in [(4_500, 0), (60, 3), (2_000, 2)] {
            let campus = campus(&CampusConfig {
                bulk_entries_per_router: 1,
                background_packets,
                update_churn_rounds,
                ..Default::default()
            });
            let log = &campus.scenario.bad_exec.log;
            assert_eq!(log.reorder_effort(), 0, "{background_packets} packets: sorted");
            let events = log.events();
            assert!(events.windows(2).all(|w| w[0].due <= w[1].due));
            let probe = |pid| {
                let pkt = |e: &&dp_replay::BaseEvent| e.tuple.table.as_str() == "pktIn";
                events.iter().position(|e| pkt(&e) && e.tuple.args[0] == Value::Int(pid))
            };
            let last_at = |due| events.iter().rposition(|e| e.due == due);
            assert_eq!(probe(1), last_at(T_GOOD), "the good probe is last at its due");
            assert_eq!(probe(2), last_at(T_BAD));
        }
    }

    #[test]
    fn campus_scales_entry_count() {
        let small = campus(&CampusConfig {
            bulk_entries_per_router: 0,
            background_packets: 0,
            ..Default::default()
        });
        let large = campus(&CampusConfig {
            bulk_entries_per_router: 8,
            background_packets: 0,
            ..Default::default()
        });
        assert!(large.entry_count > small.entry_count * 5);
    }
}
