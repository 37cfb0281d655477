//! Differential test of `Replayed::roll_forward` against its oracle,
//! `Execution::replay_with`.
//!
//! UPDATETREE no longer replays the patched log from t = 0: it withdraws
//! the held replay's suffix events the change reaches and re-issues their
//! patched events, on the same engine and recorder. What
//! DiffProv reads off the result is the final state (`exists`, node views)
//! and the trees of live tuples, so that is what must not move: for every
//! repro scenario — the eight of Table 1, the extensions, the default
//! campus and a churning one — after each round's Δ the rolled replay
//! holds exactly the `(node, tuple)` set the from-scratch replay holds,
//! and `query()` of every one of them renders the same tree once the
//! ` t=` stamps are stripped (a rolled replay runs at later logical
//! times, and nothing else may differ).
//!
//! Each scenario goes through as DiffProv calls it, the trust rule
//! included, and every call must roll: a from-scratch replay would agree
//! trivially and test nothing.

use std::collections::BTreeSet;

use diffprov_core::Scenario;
use dp_ndlog::TupleChange;
use dp_provenance::tuple_view;
use dp_replay::{apply_changes, Execution, Replayed};
use dp_sdn::{campus, CampusConfig};
use dp_trace::Tracer;
use dp_types::{LogicalTime, TupleRef};

/// A campus shaped like diagbench's `campus_traffic`: the faulty entry
/// sits in the configuration, before all the traffic, so nearly the whole
/// log is suffix, and few packets cross the changed switch.
fn traffic_campus() -> Scenario {
    campus(&CampusConfig {
        bulk_entries_per_router: 2,
        background_packets: 300,
        ..CampusConfig::default()
    })
    .scenario
}

fn scenarios() -> Vec<Scenario> {
    let mut all = dp_sdn::all_sdn_scenarios();
    all.extend(dp_mapreduce::all_mr_scenarios());
    assert_eq!(all.len(), 8, "Table 1 has eight scenarios");
    all.extend([dp_sdn::flapping(), dp_sdn::ecmp_same_branch(), dp_sdn::nat_rewrite()]);
    all.push(campus(&CampusConfig::default()).scenario);
    all.push(
        campus(&CampusConfig {
            update_churn_rounds: 3,
            ..CampusConfig::default()
        })
        .scenario,
    );
    all.push(traffic_campus());
    all
}

/// Where DiffProv injects pure insertions: just before the bad seed's
/// first logged event.
fn inject_at(exec: &Execution, seed: &TupleRef) -> LogicalTime {
    exec.log
        .events()
        .iter()
        .find(|e| e.node == seed.node && e.tuple == *seed.tuple)
        .map_or(0, |e| e.due)
        .saturating_sub(1)
}

/// The accumulated Δ after each round of the scenario's diagnosis — the
/// change sets its UPDATETREE calls see, in order.
fn round_deltas(s: &Scenario) -> (Vec<Vec<TupleChange>>, LogicalTime) {
    let report = s.diagnose().unwrap_or_else(|e| panic!("{}: {e}", s.name));
    assert!(report.succeeded(), "{}: {report}", s.name);
    let mut acc = Vec::new();
    let deltas = report
        .rounds
        .iter()
        .map(|r| {
            acc.extend(r.changes.iter().cloned());
            acc.clone()
        })
        .collect();
    let seed = report.bad_seed.expect("a succeeded diagnosis names its seed");
    (deltas, inject_at(&s.bad_exec, &seed))
}

fn live(r: &Replayed) -> BTreeSet<TupleRef> {
    r.engine
        .nodes()
        .flat_map(|(node, state)| {
            state.all().map(move |(t, _)| TupleRef::new(*node, t.clone()))
        })
        .collect()
}

/// A rendered tree without its timestamps.
fn unstamped(tree: &str) -> String {
    tree.lines()
        .map(|l| l.rsplit_once(" t=").map_or(l, |(head, _)| head))
        .collect::<Vec<_>>()
        .join("\n")
}

/// A live located tuple, its unstamped tree and its FINDSEED seed.
type Tree = (TupleRef, String, TupleRef);

/// Every live located tuple with its unstamped tree and its seed: the
/// trigger descent `diagnose` verifies a repaired tree against. A rendered
/// tree names each derivation's body but not which body was the trigger,
/// so only the seed sees a roll that reorders two appearances.
fn trees(case: &str, r: &Replayed) -> Vec<Tree> {
    live(r)
        .into_iter()
        .map(|root| {
            let t = r.query(&root).unwrap_or_else(|| panic!("{case}: live {root} has no tree"));
            let view = tuple_view(&t);
            let seed = view.node(view.seed()).tref.clone();
            (root, unstamped(&t.render()), seed)
        })
        .collect()
}

/// The located tuples a roll from `exec`'s log patched to `held` to it
/// patched to `delta` re-issues: the patched log's events from the first
/// position where the two part on.
fn reissued(
    exec: &Execution,
    held: &[TupleChange],
    delta: &[TupleChange],
    at: LogicalTime,
) -> Located {
    let (held, patched) = (apply_changes(&exec.log, held, at), apply_changes(&exec.log, delta, at));
    let (h, p) = (held.events(), patched.events());
    let fork = h.iter().zip(p.iter()).take_while(|(a, b)| a == b).count();
    p[fork..].iter().map(|e| TupleRef::new(e.node, e.tuple.clone())).collect()
}

type Located = BTreeSet<TupleRef>;

/// The rolled replay holds the from-scratch replay's live tuples, each with
/// its tree and its seed. One reorder is excused: a seed no roll so far
/// re-issued (`reissued`, accumulated over this replay's rolls) may become
/// one a roll re-issued. A roll runs the prefix to quiescence before it
/// re-issues anything, so a derivation that joined a re-issued event with
/// prefix work still in flight at the fork (a switch's `switchUp` crossing
/// its link after the configuration batch) is triggered by the re-issued
/// event instead.
fn assert_same(case: &str, rolled: &Replayed, scratch: &[Tree], reissued: &Located) {
    let want: Located = scratch.iter().map(|(root, ..)| root.clone()).collect();
    assert_eq!(live(rolled), want, "{case}: live tuples differ");
    let in_flight =
        |want: &TupleRef, got: &TupleRef| !reissued.contains(want) && reissued.contains(got);
    for ((root, got, seed), (_, want, want_seed)) in trees(case, rolled).iter().zip(scratch) {
        assert_eq!(got, want, "{case}: tree of {root}");
        if !in_flight(want_seed, seed) {
            assert_eq!(seed, want_seed, "{case}: seed of {root}");
        }
    }
}

#[test]
fn rolled_replays_equal_from_scratch_replays() {
    let (mut roll_paths, mut calls) = (0, 0);
    for s in scenarios() {
        let (deltas, at) = round_deltas(&s);
        assert_eq!(deltas.len(), s.expected_rounds, "{}", s.name);
        let mut exec = s.bad_exec.clone();
        exec.tracer = Tracer::aggregate_only();
        let scratch: Vec<_> = deltas
            .iter()
            .map(|delta| trees(s.name, &exec.replay_with(delta, at).unwrap()))
            .collect();
        let (mut rolled, mut held) = (exec.replay().unwrap(), &[][..]);
        let mut moved = Located::new();
        for (round, delta) in deltas.iter().enumerate() {
            let case = format!("{} round {}", s.name, round + 1);
            let roll = rolled.roll_forward(&exec, delta, at);
            roll.unwrap_or_else(|e| panic!("{case}: {e}"));
            moved.extend(reissued(&exec, held, delta, at));
            assert_same(&case, &rolled, &scratch[round], &moved);
            held = delta;
        }
        roll_paths += exec.tracer.aggregate().counter("replay.rolled{path=roll}");
        calls += deltas.len() as u64;
    }
    // The trust rule refuses none of these scenarios' rounds.
    assert_eq!(roll_paths, calls, "every call rolled");
}

/// On the traffic-shaped campus DiffProv's own UPDATETREE rolls, and it
/// re-issues only the events the change reaches: the entry and the
/// packets that cross `oz4` toward a prefix either changed entry covers.
#[test]
fn a_traffic_campus_rolls_only_what_the_change_reaches() {
    let s = traffic_campus();
    let mut exec = s.bad_exec.clone();
    exec.tracer = Tracer::aggregate_only();
    let diffprov = diffprov_core::DiffProv {
        tracer: exec.tracer.clone(),
        ..Default::default()
    };
    let report = diffprov.diagnose(&exec, &s.good_event, &exec, &s.bad_event).unwrap();
    assert!(report.succeeded() && report.verified, "{report}");
    let agg = exec.tracer.aggregate();
    assert_eq!(agg.counter("replay.rolled{path=roll}"), 1, "DiffProv's call rolled");
    assert_eq!(agg.counter("replay.rolled{path=scratch}"), 0);
    let fork = agg.counter("replay.fork_events");
    let affected = agg.counter("replay.affected_events");
    assert!(0 < affected && affected < fork, "{affected} affected of {fork} suffix events");
}

/// SDN4 needs two rounds. The second UPDATETREE forks from the state the
/// first left — the log with round 1's Δ applied — so its fork is where
/// round 2's *new* change lands, not where round 1's did.
#[test]
fn sdn4_round_two_forks_from_round_one() {
    let s = dp_sdn::sdn4();
    let (deltas, at) = round_deltas(&s);
    assert_eq!(deltas.len(), 2, "SDN4 is the two-round scenario");
    let mut exec = s.bad_exec.clone();
    exec.tracer = Tracer::aggregate_only();
    let suffix_of = |held: &dp_replay::EventLog, patched: &dp_replay::EventLog| {
        let (h, p) = (held.events(), patched.events());
        h.len() - h.iter().zip(p.iter()).take_while(|(a, b)| a == b).count()
    };
    let round1 = apply_changes(&exec.log, &deltas[0], at);
    let round2 = apply_changes(&exec.log, &deltas[1], at);
    let from_round1 = suffix_of(&round1, &round2);
    let from_original = suffix_of(&exec.log, &round2);
    assert!(
        from_round1 < from_original,
        "fixture: round 2's change must land after round 1's ({from_round1} vs {from_original})"
    );

    let forked = |exec: &Execution| exec.tracer.aggregate().counter("replay.fork_events") as usize;
    let mut rolled = exec.replay().unwrap();
    rolled.roll_forward(&exec, &deltas[0], at).unwrap();
    let after_round1 = forked(&exec);
    assert_eq!(after_round1, suffix_of(&exec.log, &round1));
    rolled.roll_forward(&exec, &deltas[1], at).unwrap();
    assert_eq!(forked(&exec) - after_round1, from_round1);
    let scratch = exec.replay_with(&deltas[1], at).unwrap();
    let mut moved = reissued(&exec, &[], &deltas[0], at);
    moved.extend(reissued(&exec, &deltas[0], &deltas[1], at));
    assert_same("SDN4 round 2", &rolled, &trees("SDN4 scratch", &scratch), &moved);
    assert_eq!(exec.tracer.aggregate().counter("replay.rolled{path=roll}"), 2, "both rounds rolled");
}

/// The roll skips the base-presence walk over the prefix when the engine
/// acted on every op it was given. A log that re-inserts a present tuple
/// before the fork gives the engine a no-op, so this schedule takes the
/// walk — rolled to Δ and back — and must land where from-scratch does.
#[test]
fn a_duplicate_insert_in_the_prefix_keeps_the_presence_walk() {
    let mut s = campus(&CampusConfig::default()).scenario;
    // The campus configures everything at one due, so the duplicate has to
    // arrive second to land before the faulty entry.
    let logged: Vec<_> = s.bad_exec.log.events().iter().cloned().collect();
    let first = logged[0].clone();
    s.bad_exec.log = dp_replay::EventLog::new();
    for (i, e) in logged.into_iter().enumerate() {
        s.bad_exec.log.push(e);
        if i == 0 {
            s.bad_exec.log.push(first.clone());
        }
    }
    let (deltas, at) = round_deltas(&s);
    let mut exec = s.bad_exec.clone();
    exec.tracer = Tracer::aggregate_only();

    let events = exec.log.events();
    let patched = apply_changes(&exec.log, &deltas[0], at);
    let fork = events.iter().zip(patched.events().iter()).take_while(|(a, b)| a == b).count();
    let duplicate = events
        .iter()
        .rposition(|e| e.node == first.node && e.tuple == first.tuple)
        .expect("logged above");
    assert!(
        0 < duplicate && duplicate < fork && 2 * fork >= events.len(),
        "fixture: the duplicate (at {duplicate}) must sit in the rolled prefix (fork {fork} of {})",
        events.len()
    );
    drop(events);
    let held = exec.replay().unwrap();
    let acted = held.engine.stats();
    assert_eq!(
        acted.base_inserts + acted.base_deletes + 1,
        exec.log.len() as u64,
        "fixture: the engine must have ignored exactly the duplicate"
    );

    // Forth to Δ and back to the log as it stands: the second roll starts
    // from the counts the first one moved.
    let targets = [
        (&deltas[0][..], trees("campus+dup Δ", &exec.replay_with(&deltas[0], at).unwrap())),
        (&[][..], trees("campus+dup", &exec.replay().unwrap())),
    ];
    let (mut rolled, mut held) = (exec.replay().unwrap(), &[][..]);
    let mut moved = Located::new();
    for (i, (delta, scratch)) in targets.iter().enumerate() {
        let case = format!("campus+dup roll {}", i + 1);
        let roll = rolled.roll_forward(&exec, delta, at);
        roll.unwrap_or_else(|e| panic!("{case}: {e}"));
        moved.extend(reissued(&exec, held, delta, at));
        assert_same(&case, &rolled, scratch, &moved);
        held = delta;
    }
    assert_eq!(
        exec.tracer.aggregate().counter("replay.rolled{path=roll}"),
        2,
        "every call rolled"
    );
}
