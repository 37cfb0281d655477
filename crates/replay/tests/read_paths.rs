//! The two ways to find an episode in a recorded graph agree.
//!
//! `Replayed::query` / `query_at` resolve a root through the engine's own
//! table: a live tuple's `appeared_at` is the key of its open episode in
//! the graph's index, and only a tuple that is gone (or reappeared after
//! the time asked about) costs a scan. `ProvGraph::episode_at` /
//! `last_episode_starting_by` find the tuple by value with a linear scan
//! over every episode. For every located tuple a replay ever recorded,
//! at every instant its history makes interesting, both must name the same
//! episode — on a campus with three rounds of route and traffic churn
//! (tuples with several episodes, live and gone) and on SDN3, whose
//! reference event lies in the past. A recording UPDATETREE made is held to
//! the same: the churned campus's slice updated to DiffProv's own Δ, and
//! SDN4's after its second round. On every recording, each opened row is
//! found under its own start, so a query of a live tuple always has its
//! key.

use std::collections::BTreeMap;

use diffprov_core::Scenario;
use dp_provenance::Episode;
use dp_replay::{BaseOp, EventLog, Execution, Replayed};
use dp_sdn::{campus, sdn3, sdn4, CampusConfig};
use dp_trace::Tracer;
use dp_types::{LogicalTime, TupleRef};

/// What the cases covered, so a run that exercised nothing fails.
#[derive(Default)]
struct Coverage {
    tuples: usize,
    /// Tuples with two or more episodes.
    recurring: usize,
    /// Tuples that are not live at the end.
    gone: usize,
    /// Queries about a time before a live tuple's latest appearance.
    before_reappearance: usize,
}

/// The EXIST vertex a query's tree is rooted at.
fn root_of(r: &Replayed, tref: &TupleRef, at: Option<LogicalTime>) -> Option<u32> {
    let tree = match at {
        None => r.query(tref),
        Some(at) => r.query_at(tref, at),
    };
    tree.map(|t| t.root().origin)
}

/// Replays `exec` and holds every recorded tuple's queries to the scan.
/// The replay is traced: its `replay.scheduled` counter must report the
/// events it scheduled.
fn check(exec: &Execution, case: &str, cov: &mut Coverage) {
    let mut exec = exec.clone();
    exec.tracer = Tracer::aggregate_only();
    let r = exec.replay().unwrap();
    let scheduled = exec.log.len() as u64;
    let agg = exec.tracer.aggregate();
    assert_eq!(agg.span_count("replay.schedule"), 1, "{case}: replay.schedule");
    assert_eq!(agg.counter("replay.scheduled"), scheduled, "{case}: replay.scheduled");
    check_keyed(&r, case, cov);
}

/// Replays the slice of `s`'s bad execution that both its events depend
/// on (both live in that execution), updates it as DiffProv's own
/// UPDATETREE calls did — to each round's accumulated Δ in turn — and
/// holds the updated recording, a replay of the patched slice, to the
/// scan. Every call must replay the slice it holds, not widen it. Returns
/// how many updates it made.
fn check_updated(s: &Scenario, cov: &mut Coverage) -> usize {
    let report = s.diagnose().unwrap();
    assert!(report.succeeded(), "{}: {report}", s.name);
    let seed = report.bad_seed.expect("a succeeded diagnosis names its seed");
    let mut exec = s.bad_exec.clone();
    exec.tracer = Tracer::aggregate_only();
    let events = exec.log.events();
    let first = events.iter().find(|e| e.node == seed.node && e.tuple == seed.tuple);
    let at = first.map_or(0, |e| e.due).saturating_sub(1);
    drop(events);
    let (good, bad) = (&s.good_event, &s.bad_event);
    let roots = [(&good.tref.node, &*good.tref.tuple), (&bad.tref.node, &*bad.tref.tuple)];
    let mut r = exec.replay_slice(roots, good.at.min(bad.at)).unwrap();
    let mut delta = Vec::new();
    for round in &report.rounds {
        delta.extend(round.changes.iter().cloned());
        r.update_tree(&exec, &delta, at).unwrap();
    }
    let replayed = exec.tracer.aggregate().counter("replay.updated{path=replay}");
    assert_eq!(replayed, report.rounds.len() as u64, "{}: every call replayed", s.name);
    check_keyed(&r, &format!("{} updated", s.name), cov);
    report.rounds.len()
}

/// Holds every tuple `r` recorded to the scan: its queries, and each
/// opened row's key.
fn check_keyed(r: &Replayed, case: &str, cov: &mut Coverage) {
    let (graph, now) = (r.graph(), r.now());
    let mut by_tuple: BTreeMap<TupleRef, Vec<Episode>> = BTreeMap::new();
    for (tref, episode) in graph.all_episodes() {
        let keyed = graph.exist_since(&tref, episode.start);
        assert_eq!(keyed, Some(episode.exist), "{case}: {tref} since {}", episode.start);
        by_tuple.entry(tref).or_default().push(episode);
    }
    for (tref, eps) in &by_tuple {
        let live = r.exists(&tref.node, &tref.tuple);
        cov.tuples += 1;
        cov.recurring += usize::from(eps.len() >= 2);
        cov.gone += usize::from(!live);
        // The scan sees the episodes the grouping does.
        let scanned: Vec<_> = graph.episodes(tref).iter().map(|e| e.exist).collect();
        assert_eq!(scanned, eps.iter().map(|e| e.exist).collect::<Vec<_>>(), "{case}: {tref}");
        assert_eq!(
            root_of(r, tref, None),
            graph.episode_at(tref, now).map(|e| e.exist),
            "{case}: query({tref})"
        );
        assert_eq!(live, eps.last().is_some_and(|e| e.end.is_none()), "{case}: {tref}");
        // Around every boundary of the tuple's history, and now.
        let mut instants = vec![0, now, LogicalTime::MAX];
        for e in eps {
            instants.extend([e.start.saturating_sub(1), e.start, e.start + 1]);
            instants.extend(e.end.into_iter().flat_map(|end| [end - 1, end]));
        }
        for at in instants {
            assert_eq!(
                root_of(r, tref, Some(at)),
                graph.last_episode_starting_by(tref, at).map(|e| e.exist),
                "{case}: query_at({tref}, {at})"
            );
            let latest = eps.last().expect("grouped from episodes");
            cov.before_reappearance +=
                usize::from(live && eps.len() >= 2 && at < latest.start && eps[0].start <= at);
        }
    }
}

#[test]
fn engine_resolved_queries_name_the_rows_the_scan_finds() {
    let mut cov = Coverage::default();
    let churned = campus(&CampusConfig {
        bulk_entries_per_router: 2,
        background_packets: 24,
        update_churn_rounds: 3,
        ..CampusConfig::default()
    });
    let exec = &churned.scenario.bad_exec;
    check(exec, "churn campus", &mut cov);
    // Stopped after the last withdrawal, before what it withdrew is
    // re-issued: the routes and the traffic of that round are gone. The cut
    // replays a log that holds only the events due by then.
    let events = exec.log.events();
    let withdrawn = events.iter().rev().find(|e| e.op == BaseOp::Delete).expect("churn deletes");
    assert!(events.last().is_some_and(|e| e.due > withdrawn.due), "the cut is the log's end");
    let mut cut = exec.clone();
    cut.log = EventLog::new();
    for e in events.iter().take_while(|e| e.due <= withdrawn.due) {
        cut.log.push(e.clone());
    }
    check(&cut, "churn campus, mid-round", &mut cov);
    let s = sdn3();
    check(&s.good_exec, "SDN3 good", &mut cov);
    check(&s.bad_exec, "SDN3 bad", &mut cov);
    // SDN3's reference is historical: gone now, found by the scan.
    let r = s.good_exec.replay().unwrap();
    assert!(!r.exists(&s.good_event.tref.node, &s.good_event.tref.tuple));
    assert!(r.query_at(&s.good_event.tref, s.good_event.at).is_some());

    // DiffProv's own UPDATETREE calls: the churned campus to its Δ, SDN4
    // through both of its rounds.
    assert!(check_updated(&churned.scenario, &mut cov) >= 1);
    assert_eq!(check_updated(&sdn4(), &mut cov), 2, "SDN4 is the two-round scenario");

    assert!(cov.tuples > 1_000, "{} tuples", cov.tuples);
    assert!(cov.recurring > 100, "{} tuples with several episodes", cov.recurring);
    assert!(cov.gone > 100, "{} tuples gone at the end", cov.gone);
    assert!(cov.before_reappearance > 100, "{} early queries", cov.before_reappearance);
}
