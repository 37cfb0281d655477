//! Load balancing and DiffProv (Section 4.9, "Non-determinism").
//!
//! The paper notes that replay-based debuggers assume a deterministic
//! network, and that with ECMP-style load balancers "DiffProv would need
//! to reason about the balancing mechanism using the seed". Our model does
//! exactly that: the `fwde` rule picks the output port as
//! `Base + hash(Pid) % N`, a pure function of the stimulus — so replay
//! reproduces the balancing decision, and DiffProv's taint formulae carry
//! the hash forward when computing expected equivalents.
//!
//! Two situations follow, both packaged here:
//!
//! * reference and faulty flow hash to the **same** branch → the fault on
//!   that branch is diagnosed exactly like SDN1;
//! * reference hashes to the **other** branch → aligning would require
//!   the (immutable) packet to take a different hash path, and DiffProv
//!   says so instead of producing a bogus fix.

use diffprov_core::{QueryEvent, Scenario};
use dp_replay::Execution;
use dp_types::prefix::{cidr, ip};
use dp_types::{tuple, LogicalTime, NodeId};

use crate::program::{cfg_entry, deliver_at, pkt_in, sdn_program};
use crate::topology::Topology;

const T_CONFIG: LogicalTime = 10;

/// The two ECMP branches of the test network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Branch {
    /// Packets whose id hashes to 0 go via S2a.
    A,
    /// Packets whose id hashes to 1 go via S2b.
    B,
}

/// Which branch a packet id hashes to in this topology.
pub fn branch_of(pid: i64) -> Branch {
    let h = dp_ndlog::expr::hash_value(&dp_types::Value::Int(pid));
    if h.is_multiple_of(2) {
        Branch::A
    } else {
        Branch::B
    }
}

/// Finds a packet id hashing to the requested branch, starting at `from`.
pub fn pid_on_branch(from: i64, want: Branch) -> i64 {
    (from..from + 1_000)
        .find(|&pid| branch_of(pid) == want)
        .expect("half of all ids hash to each branch")
}

/// Builds the ECMP network: S1 load-balances over S2a/S2b, both of which
/// forward to S3, which delivers to the server. S2b carries SDN1's bug —
/// an overly specific high-priority entry — so that traffic on branch B
/// from the unmatched part of the subnet is misdelivered to a decoy host.
///
/// Returns the execution and the pids of three probe packets: `good_b`
/// (branch B, matched → server), `bad_b` (branch B, unmatched → decoy),
/// and `good_a` (branch A → server).
pub fn ecmp_network() -> (Execution, i64, i64, i64) {
    let mut topo = Topology::new("ctl");
    topo.switches(&["S1", "S2a", "S2b", "S3"]);
    // Port order matters: the ECMP group at S1 uses consecutive ports
    // 1 (→S2a) and 2 (→S2b).
    topo.link("S1", "S2a");
    topo.link("S1", "S2b");
    topo.link("S2a", "S3");
    topo.link("S2b", "S3");
    let p_srv = topo.host("S3", "server");
    let p_decoy = topo.host("S2b", "decoy");

    let program = sdn_program("ctl").expect("SDN program builds");
    let mut exec = Execution::new(program);
    topo.emit(&mut exec.log, T_CONFIG);
    let ctl = NodeId::new("ctl");
    let any = cidr("0.0.0.0/0");
    // S1 balances via the ECMP group (no flow entries there).
    exec.log
        .insert(T_CONFIG, "S1", tuple!("ecmpGroup", 1, 2));
    // S2a is healthy.
    exec.log.insert(
        T_CONFIG,
        ctl,
        cfg_entry(10, "S2a", 1, any, any, topo.port_towards("S2a", "S3")),
    );
    // S2b has the bug: the specific rule (/24 instead of /23) forwards to
    // S3; everything else is "mirrored for inspection" to the decoy.
    exec.log.insert(
        T_CONFIG,
        ctl,
        cfg_entry(20, "S2b", 10, cidr("4.3.2.0/24"), any, topo.port_towards("S2b", "S3")),
    );
    exec.log.insert(
        T_CONFIG,
        ctl,
        cfg_entry(21, "S2b", 1, any, any, p_decoy),
    );
    // S3 delivers.
    exec.log
        .insert(T_CONFIG, ctl, cfg_entry(30, "S3", 1, any, any, p_srv));

    let dst = ip("10.0.0.80");
    let good_b = pid_on_branch(100, Branch::B);
    let bad_b = pid_on_branch(good_b + 1, Branch::B);
    let good_a = pid_on_branch(100, Branch::A);
    exec.log
        .insert(1_000, "S1", pkt_in(good_b, ip("4.3.2.1"), dst, 6, 512));
    exec.log
        .insert(2_000, "S1", pkt_in(bad_b, ip("4.3.3.1"), dst, 6, 512));
    exec.log
        .insert(3_000, "S1", pkt_in(good_a, ip("4.3.2.9"), dst, 6, 512));
    (exec, good_b, bad_b, good_a)
}

/// The diagnosable case: reference and faulty packet share branch B.
pub fn ecmp_same_branch() -> Scenario {
    let (exec, good_b, bad_b, _) = ecmp_network();
    let dst = ip("10.0.0.80");
    Scenario {
        name: "ECMP",
        description: "load-balanced network; branch B carries an overly specific entry; \
                      reference flow hashes to the same branch",
        good_event: QueryEvent::new(
            deliver_at("server", good_b, ip("4.3.2.1"), dst, 6, 512),
            u64::MAX,
        ),
        bad_event: QueryEvent::new(
            deliver_at("decoy", bad_b, ip("4.3.3.1"), dst, 6, 512),
            u64::MAX,
        ),
        bad_exec: exec.clone(),
        good_exec: exec,
        expected_changes: 1,
        expected_rounds: 1,
    }
}

/// The undiagnosable case: the reference hashed to the other branch.
pub fn ecmp_cross_branch() -> Scenario {
    let (exec, _, bad_b, good_a) = ecmp_network();
    let dst = ip("10.0.0.80");
    Scenario {
        name: "ECMP-X",
        description: "reference flow hashes to the healthy branch; aligning would need \
                      the immutable packet to hash differently",
        good_event: QueryEvent::new(
            deliver_at("server", good_a, ip("4.3.2.9"), dst, 6, 512),
            u64::MAX,
        ),
        bad_event: QueryEvent::new(
            deliver_at("decoy", bad_b, ip("4.3.3.1"), dst, 6, 512),
            u64::MAX,
        ),
        bad_exec: exec.clone(),
        good_exec: exec,
        expected_changes: 0,
        expected_rounds: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffprov_core::Failure;
    use dp_types::Value;

    #[test]
    fn hash_balancing_is_deterministic_and_split() {
        let a = (0..1000).filter(|&p| branch_of(p) == Branch::A).count();
        assert!((350..=650).contains(&a), "unbalanced: {a}/1000 on A");
        assert_eq!(branch_of(42), branch_of(42));
    }

    #[test]
    fn probes_take_their_hashed_branches() {
        let (exec, good_b, bad_b, good_a) = ecmp_network();
        let r = exec.replay().unwrap();
        let dst = ip("10.0.0.80");
        // Branch-B matched packet reaches the server; unmatched lands on
        // the decoy; branch-A packet reaches the server via S2a.
        let srv_b = deliver_at("server", good_b, ip("4.3.2.1"), dst, 6, 512);
        let decoy = deliver_at("decoy", bad_b, ip("4.3.3.1"), dst, 6, 512);
        let srv_a = deliver_at("server", good_a, ip("4.3.2.9"), dst, 6, 512);
        assert!(r.exists(&srv_b.node, &srv_b.tuple));
        assert!(r.exists(&decoy.node, &decoy.tuple));
        assert!(r.exists(&srv_a.node, &srv_a.tuple));
    }

    #[test]
    fn same_branch_reference_diagnoses_the_fault() {
        let s = ecmp_same_branch();
        let report = s.diagnose().unwrap();
        assert!(report.succeeded(), "{report}");
        assert_eq!(report.delta.len(), 1, "{report}");
        let after = report.delta[0].after.as_ref().unwrap();
        assert_eq!(after.args[0], Value::Int(20)); // the S2b entry
        assert_eq!(after.args[3], Value::Prefix(cidr("4.3.2.0/23")));
        assert!(report.verified, "{report}");
    }

    #[test]
    fn cross_branch_reference_fails_with_hash_clue() {
        let s = ecmp_cross_branch();
        let report = s.diagnose().unwrap();
        match &report.failure {
            Some(Failure::ImmutableChange { context, .. }) => {
                // The diagnostic names the branch mismatch: the packet
                // would have to enter/hash elsewhere.
                assert!(!context.is_empty());
            }
            Some(Failure::NonInvertible { attempted }) => {
                // Equally acceptable: the hash that picked the branch
                // cannot be inverted to reroute the packet.
                assert!(
                    attempted.contains("hmod") || attempted.contains("hash"),
                    "{attempted}"
                );
            }
            other => panic!("expected an informative failure, got {other:?}"),
        }
    }
}
