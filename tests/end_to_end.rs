//! End-to-end integration tests across the whole workspace: every paper
//! scenario through the public facade, determinism guarantees, and the
//! headline evaluation claims.

use diffprov::provenance::{plain_tree_diff, tuple_view};
use diffprov::{mapreduce, sdn};

/// Every scenario of Table 1 diagnoses successfully, with the expected
/// change-set size and round count, and verifies.
#[test]
fn all_eight_scenarios_diagnose() {
    let mut scenarios = sdn::all_sdn_scenarios();
    scenarios.extend(mapreduce::all_mr_scenarios());
    assert_eq!(scenarios.len(), 8);
    for s in &scenarios {
        let report = s.diagnose().unwrap_or_else(|e| panic!("{}: {e}", s.name));
        assert!(report.succeeded(), "{}: {report}", s.name);
        assert_eq!(
            report.delta.len(),
            s.expected_changes,
            "{}: {report}",
            s.name
        );
        assert_eq!(report.rounds.len(), s.expected_rounds, "{}", s.name);
        assert!(report.verified, "{}: {report}", s.name);
    }
}

/// Diagnosis is deterministic: re-running a scenario yields an identical
/// change set, identical tree sizes, identical seeds.
#[test]
fn diagnosis_is_deterministic() {
    for make in [sdn::sdn1, sdn::sdn3] {
        let a = make().diagnose().unwrap();
        let b = make().diagnose().unwrap();
        assert_eq!(a.delta, b.delta);
        assert_eq!(a.good_tree_size, b.good_tree_size);
        assert_eq!(a.bad_tree_size, b.bad_tree_size);
        assert_eq!(a.good_seed, b.good_seed);
        assert_eq!(a.bad_seed, b.bad_seed);
    }
}

/// Applying DiffProv's change set really fixes the network: replaying the
/// bad execution with Δ applied delivers the misrouted packet to the
/// correct server (and the DPI mirror).
#[test]
fn applying_the_delta_fixes_sdn1() {
    let s = sdn::sdn1();
    let report = s.diagnose().unwrap();
    let fixed = s.bad_exec.replay_with(&report.delta, 0).unwrap();
    // The misrouted packet (pid 2) now arrives at web1 and the DPI box.
    use diffprov::types::prefix::ip;
    let web1 = sdn::deliver_at("web1", 2, ip("4.3.3.1"), ip("10.0.0.80"), 6, 512);
    let dpi = sdn::deliver_at("dpi", 2, ip("4.3.3.1"), ip("10.0.0.80"), 6, 512);
    let web2 = sdn::deliver_at("web2", 2, ip("4.3.3.1"), ip("10.0.0.80"), 6, 512);
    assert!(fixed.exists(&web1.node, &web1.tuple));
    assert!(fixed.exists(&dpi.node, &dpi.tuple));
    assert!(
        !fixed.exists(&web2.node, &web2.tuple),
        "the fixed network must no longer misroute"
    );
}

/// The seeds DiffProv finds are the external stimuli, not configuration:
/// packets for SDN, phase fences for MapReduce.
#[test]
fn seeds_are_the_stimuli() {
    let report = sdn::sdn1().diagnose().unwrap();
    assert_eq!(report.good_seed.unwrap().tuple.table.as_str(), "pktIn");
    assert_eq!(report.bad_seed.unwrap().tuple.table.as_str(), "pktIn");
    let report = mapreduce::mr1_d().diagnose().unwrap();
    assert_eq!(report.good_seed.unwrap().tuple.table.as_str(), "reduceStart");
}

/// The butterfly effect (Section 2.5): the naive diff of SDN1's trees is
/// larger than either tree, even though the root cause is one vertex.
#[test]
fn plain_diff_exhibits_butterfly_effect() {
    let s = sdn::sdn1();
    let r = s.good_exec.replay().unwrap();
    let good = r.query_at(&s.good_event.tref, s.good_event.at).unwrap();
    let bad = r.query_at(&s.bad_event.tref, s.bad_event.at).unwrap();
    let diff = plain_tree_diff(&good, &bad);
    assert!(
        diff.len() > good.len().max(bad.len()),
        "diff {} vs trees {}/{}",
        diff.len(),
        good.len(),
        bad.len()
    );
}

/// Temporal provenance: SDN3's reference event lies before the rule
/// expiry; querying it at "now" still reconstructs the historical tree.
#[test]
fn temporal_reference_from_the_past() {
    let s = sdn::sdn3();
    let r = s.good_exec.replay().unwrap();
    // The good delivery's chain includes the multicast flow entry that has
    // since been deleted.
    let tree = r.query_at(&s.good_event.tref, s.good_event.at).unwrap();
    let view = tuple_view(&tree);
    // The multicast entry is rule id 20 on S1 (the one that expires).
    let fe = view
        .nodes()
        .iter()
        .find(|n| {
            n.tref.tuple.table.as_str() == "flowEntry"
                && n.tref.tuple.args.first() == Some(&diffprov::types::Value::Int(20))
        })
        .unwrap_or_else(|| panic!("expired entry absent from the tree:\n{}", tree.render()));
    // It is part of the historical tree, but gone from the final state.
    assert!(!r.exists(&fe.tref.node, &fe.tref.tuple));
}

/// The provenance graph distinguishes the two packets of a scenario: each
/// query yields its own tree with its own seed.
#[test]
fn queries_are_per_event() {
    let s = sdn::sdn1();
    let r = s.good_exec.replay().unwrap();
    let good = r.query_at(&s.good_event.tref, s.good_event.at).unwrap();
    let bad = r.query_at(&s.bad_event.tref, s.bad_event.at).unwrap();
    let good_seed = tuple_view(&good);
    let bad_seed = tuple_view(&bad);
    assert_ne!(
        good_seed.node(good_seed.seed()).tref,
        bad_seed.node(bad_seed.seed()).tref
    );
}

/// The extension scenarios (beyond the paper's eight) also diagnose
/// cleanly: intermittent flapping, ECMP on a shared branch, and the
/// rewritten-VIP fault.
#[test]
fn extension_scenarios_diagnose() {
    for s in [
        sdn::flapping(),
        sdn::ecmp_same_branch(),
        sdn::nat_rewrite(),
    ] {
        let report = s.diagnose().unwrap_or_else(|e| panic!("{}: {e}", s.name));
        assert!(report.succeeded(), "{}: {report}", s.name);
        assert_eq!(report.delta.len(), s.expected_changes, "{}", s.name);
        assert!(report.verified, "{}", s.name);
    }
}

/// Graph statistics agree with tree sizes: every scenario's recorded graph
/// is larger than any tree projected out of it, and the vertex-kind
/// breakdown sums to the total.
#[test]
fn graph_statistics_are_consistent() {
    let s = sdn::sdn1();
    let r = s.good_exec.replay().unwrap();
    let stats = r.graph().stats();
    assert_eq!(stats.total() as usize, r.graph().len());
    let tree = r.query_at(&s.good_event.tref, s.good_event.at).unwrap();
    assert!(stats.total() as usize >= tree.len());
    assert!(stats.derives > 0 && stats.inserts > 0);
}

/// The eight reports, field by field: Δ as rendered, real rounds, both
/// tree sizes, the verdict. The values were taken at PR 14, before
/// `diagnose` began releasing each recording as soon as it is done with it
/// (the reference execution's after the good tree is out — MR1/MR2 — and
/// the previous one before every UPDATETREE replay), so a tree or a verdict
/// that depended on a recording staying alive would show here.
#[test]
fn reports_are_pinned() {
    let mut scenarios = sdn::all_sdn_scenarios();
    scenarios.extend(mapreduce::all_mr_scenarios());
    /// Name, Δ, rounds, good tree size, bad tree size, verified.
    type Row<'a, D> = (&'a str, D, usize, usize, usize, bool);
    let got: Vec<Row<'_, Vec<String>>> = scenarios
        .iter()
        .map(|s| {
            let r = s.diagnose().unwrap();
            (
                s.name,
                r.delta.iter().map(|c| c.to_string()).collect(),
                r.rounds.len(),
                r.good_tree_size,
                r.bad_tree_size,
                r.verified,
            )
        })
        .collect();
    const REDUCES: &str = "change mrConfig(mapreduce.job.reduces,5)@drv \
                           to mrConfig(mapreduce.job.reduces,4)";
    let want: [Row<'_, &[&str]>; 8] = [
        (
            "SDN1",
            &["change cfgEntry(1,S2,10,4.3.2.0/24,0.0.0.0/0,3)@ctl \
               to cfgEntry(1,S2,10,4.3.2.0/23,0.0.0.0/0,3)"],
            1,
            69,
            90,
            true,
        ),
        (
            "SDN2",
            &["change cfgEntry(20,S1,10,66.0.0.0/7,0.0.0.0/0,3)@ctl \
               to cfgEntry(20,S1,10,66.0.0.0/8,0.0.0.0/0,3)"],
            1,
            48,
            48,
            true,
        ),
        ("SDN3", &["insert cfgEntry(20,S1,10,0.0.0.0/0,239.1.1.1/32,2)@ctl"], 1, 48, 48, true),
        (
            "SDN4",
            &[
                "change cfgEntry(1,S2,10,4.3.2.0/24,0.0.0.0/0,2)@ctl \
                 to cfgEntry(1,S2,10,4.3.2.0/23,0.0.0.0/0,2)",
                "change cfgEntry(3,S3,10,4.3.2.0/24,0.0.0.0/0,3)@ctl \
                 to cfgEntry(3,S3,10,4.3.2.0/23,0.0.0.0/0,3)",
            ],
            2,
            90,
            69,
            true,
        ),
        ("MR1-D", &[REDUCES], 1, 492, 492, true),
        ("MR2-D", &["change mapperParam(1)@drv to mapperParam(0)"], 1, 1419, 954, true),
        ("MR1-I", &[REDUCES], 1, 492, 492, true),
        (
            "MR2-I",
            &["change mapperCode(#bad0bad0bad0bad0)@drv to mapperCode(#600d600d600d600d)"],
            1,
            1419,
            954,
            true,
        ),
    ];
    assert_eq!(got.len(), want.len());
    for ((name, delta, rounds, good, bad, verified), w) in got.iter().zip(want) {
        let delta: Vec<&str> = delta.iter().map(String::as_str).collect();
        assert_eq!((*name, delta.as_slice(), *rounds, *good, *bad, *verified), w);
    }
}
