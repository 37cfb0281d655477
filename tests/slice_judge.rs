//! The slice's judge over every hand-built diagnosis: Table 1, the
//! extension scenarios, the three campus shapes at seeds 7, 3 and 11, and
//! SDN3 with a second owner of the repaired entry's key.
//! A diagnosis replays only the slices its trees depend on; here each one
//! runs once more over the whole logs, and the two must agree on the
//! change set, the rounds, the failure, `verified`, both seeds, both tree
//! sizes and both trees up to stamp ranks
//! ([`diffprov::core::judge`]). The `dp-sim` battery holds the same
//! judge on every divergent generated seed.

use diffprov::sdn::{campus, cfg_entry, CampusConfig};
use diffprov::types::prefix::cidr;
use diffprov::{mapreduce, sdn, DiffProv, Report, Scenario};

fn judged(s: &Scenario) -> Report {
    let judged = DiffProv::default()
        .judge(&s.good_exec, &s.good_event, &s.bad_exec, &s.bad_event)
        .unwrap_or_else(|e| panic!("{}: {e}", s.name));
    assert!(
        judged.disagreements.is_empty(),
        "{}: the sliced diagnosis is not the whole log's:\n{}",
        s.name,
        judged.disagreements.join("\n")
    );
    judged.report
}

#[test]
fn table1_and_the_extensions_diagnose_their_slices_as_their_logs() {
    let mut scenarios = sdn::all_sdn_scenarios();
    scenarios.extend(mapreduce::all_mr_scenarios());
    scenarios.extend([
        sdn::flapping(),
        sdn::ecmp_same_branch(),
        sdn::ecmp_cross_branch(),
        sdn::nat_rewrite(),
    ]);
    for s in &scenarios {
        judged(s);
    }
}

/// Two owners sharing a key: SDN3's repair inserts `cfgEntry` rule 20 for
/// `S1` at the controller, and the log also configures rule 20 for a
/// switch no packet reaches. The slice holds only its owners' rows of
/// `cfgEntry`, yet the entry the repair replaces must be found as in the
/// whole log: the other switch's, owned outside the cut.
#[test]
fn a_repair_finds_the_entry_it_replaces_outside_the_slice() {
    let mut s = sdn::sdn3();
    let stray = cfg_entry(20, "S9", 10, cidr("0.0.0.0/0"), cidr("10.0.0.0/8"), 1);
    for exec in [&mut s.good_exec, &mut s.bad_exec] {
        exec.log.insert(0, "ctl", stray.clone());
    }
    let report = judged(&s);
    assert!(report.verified, "{report}");
    assert_eq!(report.delta[0].before.as_ref(), Some(&stray), "{report}");
}

/// The diagbench shapes, at test scale: table-heavy, traffic-heavy and
/// churning.
#[test]
fn the_campus_shapes_diagnose_their_slices_as_their_logs() {
    for seed in [7, 3, 11] {
        for (bulk, packets, churn) in [(40, 100, 0), (4, 1_500, 0), (10, 100, 4)] {
            let c = campus(&CampusConfig {
                seed,
                bulk_entries_per_router: bulk,
                background_packets: packets,
                update_churn_rounds: churn,
                ..CampusConfig::default()
            });
            judged(&c.scenario);
        }
    }
}
