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

/// MAKEAPPEAR's lookup of the entry a change replaces holds the rows that
/// share the entry's key, not its (node, table): on the campus every
/// `cfgEntry` lives at the controller, yet each lookup holds the one entry
/// it replaces (`diffprov.replaced_tuples`, a size per lookup). A fold of
/// the controller's whole table held 9 902 rows at seed 7.
#[test]
fn the_replaced_entry_is_found_by_its_key() {
    use diffprov::sdn::{campus, CampusConfig};
    use diffprov::trace::Tracer;
    use diffprov::DiffProv;
    for seed in [7, 3, 11] {
        let c = campus(&CampusConfig {
            seed,
            bulk_entries_per_router: 40,
            background_packets: 100,
            ..CampusConfig::default()
        });
        let tracer = Tracer::aggregate_only();
        let dp = DiffProv {
            tracer: tracer.clone(),
            ..DiffProv::default()
        };
        let report = c.scenario.diagnose_with(&dp).unwrap();
        assert!(report.verified, "seed {seed}: {report}");
        let agg = tracer.aggregate();
        let held = &agg.sizes["diffprov.replaced_tuples"];
        assert_eq!((held.count, held.sum, held.max), (1, 1, 1), "seed {seed}: {report}");
    }
}

/// What a diagnosis reads of the whole log: the index the log keeps, built
/// once by its first diagnosis and shared by the good and the bad
/// execution (one log and its clone) — every event read once, and the
/// guarded events of the owners its cuts reach once more
/// (`replay.index_events`) — and nothing on a repeat. No fold of the whole
/// log is left (`replay.whole_log_folds`, one per MAKEAPPEAR lookup until
/// the lookups read the index).
#[test]
fn a_diagnosis_folds_the_whole_log_a_counted_number_of_times() {
    use diffprov::sdn::{campus, CampusConfig};
    use diffprov::trace::Tracer;
    let mut reads = Vec::new();
    for seed in [7, 3, 11] {
        let mut c = campus(&CampusConfig {
            seed,
            bulk_entries_per_router: 40,
            background_packets: 100,
            ..CampusConfig::default()
        });
        let tracer = Tracer::aggregate_only();
        c.scenario.good_exec.tracer = tracer.clone();
        c.scenario.bad_exec.tracer = tracer.clone();
        let logged = c.scenario.bad_exec.log.len() as u64;
        let mut read = Vec::new();
        for _ in 0..2 {
            let report = c.scenario.diagnose().unwrap();
            assert!(report.verified, "seed {seed}: {report}");
            let agg = tracer.aggregate();
            read.push(agg.counter("replay.index_events"));
            assert_eq!(agg.span_count("replay.slice_index"), 1, "seed {seed}: one index");
            assert_eq!(agg.counter("replay.whole_log_folds"), 0, "seed {seed}");
        }
        reads.push((logged <= read[0] && read[0] < 2 * logged, read[1] - read[0]));
    }
    assert_eq!(reads, [(true, 0); 3]);
}

/// The cold diagnosis from a store, timed (EXPERIMENTS.md's row of that
/// name): the campus at `campus_durable`'s inputs (418 bulk entries per
/// router, 400 packets: 101 086 events) and at Section 6.7's scale (3 130
/// per router: 751 966 events) is spilled into a store, then opened and
/// diagnosed from the directory eleven times; the medians and quartiles
/// of open, diagnosis and both are printed. Run it alone, in release:
/// `cargo test --release --test end_to_end -- --ignored --nocapture
/// a_cold_diagnosis_from_the_store_is_timed`.
#[test]
#[ignore = "a timing, not a check: run it alone"]
fn a_cold_diagnosis_from_the_store_is_timed() {
    use diffprov::replay::{DurableStore, Execution};
    use diffprov::sdn::{campus, CampusConfig};
    use diffprov::DiffProv;
    use std::time::Instant;
    for bulk in [418, 3_130] {
        let s = campus(&CampusConfig {
            seed: 7,
            bulk_entries_per_router: bulk,
            background_packets: 400,
            ..CampusConfig::default()
        })
        .scenario;
        let mut store = DurableStore::temp().unwrap();
        s.bad_exec.spill_into(&mut store).unwrap();
        let (mut open, mut diagnose, mut total) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..11 {
            let t0 = Instant::now();
            let opened = DurableStore::open(store.dir()).unwrap();
            let mut exec = Execution::new(std::sync::Arc::clone(&s.bad_exec.program));
            exec.log = opened.load_log();
            let t1 = Instant::now();
            let report = DiffProv::default().diagnose(&exec, &s.good_event, &exec, &s.bad_event);
            assert!(report.unwrap().verified, "bulk {bulk}");
            let t2 = Instant::now();
            open.push((t1 - t0).as_secs_f64() * 1e3);
            diagnose.push((t2 - t1).as_secs_f64() * 1e3);
            total.push((t2 - t0).as_secs_f64() * 1e3);
        }
        let quartiles = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            format!("{:.1} [{:.1}, {:.1}] ms", v[5], v[2], v[8])
        };
        println!(
            "{} events, {} layer bytes: open {}, diagnosis {}, both {}",
            s.bad_exec.log.len(),
            store.layer_bytes(),
            quartiles(&mut open),
            quartiles(&mut diagnose),
            quartiles(&mut total)
        );
    }
}

/// A diagnosis from a store turns into events only what it reads: at 40
/// and 400 bulk entries per router, the campus is spilled into a store,
/// reopened and diagnosed from the reopened log alone. Opening decodes no
/// record — the log it hands out is backed by the layers — the diagnosis
/// decodes at most four times the events its slice holds plus those its
/// key lookups find, and a whole-log reader, the recovery digest, decodes
/// every record once (counter `store.records_decoded`). What `open` reads
/// is in the size of the log, the listed exceptions: it checksums every
/// layer byte (`store.bytes_checked`) and walks every record
/// (`store.records_walked`).
#[test]
fn a_cold_diagnosis_decodes_its_slice() {
    use diffprov::replay::{DurableStore, Execution};
    use diffprov::sdn::{campus, CampusConfig};
    use diffprov::trace::Tracer;
    use diffprov::DiffProv;
    for bulk in [40, 400] {
        let s = campus(&CampusConfig {
            seed: 7,
            bulk_entries_per_router: bulk,
            background_packets: 100,
            ..CampusConfig::default()
        })
        .scenario;
        let mut store = DurableStore::temp().unwrap();
        s.bad_exec.spill_into(&mut store).unwrap();
        let tracer = Tracer::aggregate_only();
        let opened = DurableStore::open(store.dir()).unwrap();
        let mut exec = Execution::new(std::sync::Arc::clone(&s.bad_exec.program));
        exec.log = opened.load_log();
        exec.tracer = tracer.clone();
        let logged = exec.log.len() as u64;
        assert_eq!(logged, s.bad_exec.log.len() as u64, "bulk {bulk}");
        assert_eq!(exec.log.layers().len(), opened.layer_count(), "bulk {bulk}: backed by layers");
        assert_eq!(tracer.aggregate().counter("store.records_decoded"), 0, "bulk {bulk}: open");
        assert_eq!(opened.bytes_checked(), store.layer_bytes(), "bulk {bulk}: bytes checked");
        assert_eq!(opened.records_walked(), logged, "bulk {bulk}: records walked");

        let report = DiffProv::default().diagnose(&exec, &s.good_event, &exec, &s.bad_event);
        let report = report.unwrap();
        assert!(report.verified, "bulk {bulk}: {report}");
        let agg = tracer.aggregate();
        let decoded = agg.counter("store.records_decoded");
        let held = agg.counter("replay.slice_events");
        let found = agg.counter("replay.key_events");
        assert!(held > 0 && held * 20 < logged, "bulk {bulk}: a slice of {held} of {logged}");
        assert!(
            decoded <= 4 * held + found,
            "bulk {bulk}: {decoded} records decoded for a slice of {held} and {found} found by key"
        );

        exec.recovered_stream_digest(&opened).unwrap();
        let whole = tracer.aggregate().counter("store.records_decoded") - decoded;
        assert_eq!(whole, logged, "bulk {bulk}: the recovery digest decodes every record once");
    }
}

/// A diagnosis's reads outside its slice do not grow with the log: on the
/// campus at 40 and at 400 bulk entries per router, a repeat diagnosis of
/// a log reads no index events, and the guarded events its cuts test stay
/// within a few times the events its slice holds (the test reads the
/// entries starting where a prefix containing a packet's address would,
/// and the campus repeats its bulk /24s past 256 per zone).
#[test]
fn a_diagnosis_reads_what_its_slice_holds_at_two_log_sizes() {
    use diffprov::sdn::{campus, CampusConfig};
    use diffprov::trace::Tracer;
    for bulk in [40, 400] {
        let mut s = campus(&CampusConfig {
            seed: 7,
            bulk_entries_per_router: bulk,
            background_packets: 100,
            ..CampusConfig::default()
        })
        .scenario;
        let logged = s.bad_exec.log.len() as u64;
        let mut reads = Vec::new();
        for _ in 0..2 {
            let tracer = Tracer::aggregate_only();
            s.good_exec.tracer = tracer.clone();
            s.bad_exec.tracer = tracer.clone();
            let report = s.diagnose().unwrap();
            assert!(report.verified, "bulk {bulk}: {report}");
            let agg = tracer.aggregate();
            let tested = agg.counter("replay.cut_tested");
            let held = agg.counter("replay.slice_events");
            assert!(tested <= 4 * held, "bulk {bulk}: {tested} tested for a slice of {held}");
            reads.push(agg.counter("replay.index_events"));
        }
        assert!(reads[0] >= logged, "bulk {bulk}: the first diagnosis indexes the log");
        assert_eq!(reads[1], 0, "bulk {bulk}: a repeat reads no index events");
    }
}
