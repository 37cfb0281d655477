//! The provenance stream names its episodes consistently.
//!
//! Every [`ProvEvent`] carries `since`, the clock of the APPEAR that
//! opened the episode it belongs to, and every DERIVE body entry carries
//! the same stamp for the body tuple. A recorder keys its per-episode
//! state by that clock and never searches for a tuple by value, so the
//! stamps have to be right *as a property of the stream alone*: each one
//! must equal the `time` of the latest `Appear` of that located tuple
//! seen so far, from the stream's start. This suite checks exactly that,
//! over every generator of `dp_ndlog::testsupport`, the nine repro
//! scenarios, and one run continued after a quiescent pause. (That the
//! oracle emits the same stamps is `reference_differential.rs`'s
//! business: it compares whole events.)

use std::collections::BTreeMap;
use std::sync::Arc;

use dp_ndlog::testsupport::{intgen, nodegen, prefixgen, run_schedule, schedule_all, ScheduledOp};
use dp_ndlog::{Engine, Program, ProvEvent, VecSink};
use dp_types::{DetRng, LogicalTime, NodeId, Tuple, TupleRef};

/// Holds `events`, a stream from an empty engine on, to the property.
/// Returns how many stamps — events' and body entries' — it checked
/// against an earlier `Appear`.
fn assert_since_names_the_latest_appear(events: &[ProvEvent], case: &str) -> usize {
    let mut checked = 0;
    let mut open: BTreeMap<TupleRef, LogicalTime> = BTreeMap::new();
    let mut last_appear = None;
    let at = |node: &NodeId, tuple: &Arc<Tuple>| TupleRef::new(*node, Arc::clone(tuple));
    for (i, event) in events.iter().enumerate() {
        // The episode an event names must be the one its tuple is in.
        let mut named = |tref: &TupleRef, since: LogicalTime, what: &str| {
            assert_eq!(
                open.get(tref),
                Some(&since),
                "{case}: event {i} ({what}) names the episode of {tref} since {since}"
            );
            checked += 1;
        };
        if let ProvEvent::Derive { body, .. } = event {
            for b in body {
                named(&b.tref, b.since, "body entry");
            }
        }
        match event {
            // A positive event either supports an open episode or is the
            // cause of the APPEAR that follows it.
            ProvEvent::InsertBase { time, since, node, tuple }
            | ProvEvent::Derive { time, since, node, tuple, .. } => {
                let tref = at(node, tuple);
                if since < time {
                    named(&tref, *since, "extra support");
                } else {
                    assert_eq!(since, time, "{case}: event {i} is stamped from the future");
                    match events.get(i + 1) {
                        Some(ProvEvent::Appear { time: t, node, tuple })
                            if t == time && at(node, tuple) == tref => {}
                        next => panic!("{case}: cause {i} of {tref} is followed by {next:?}"),
                    }
                }
            }
            ProvEvent::DeleteBase { since, node, tuple, .. } => {
                named(&at(node, tuple), *since, "DELETE");
            }
            ProvEvent::Underive { since, node, tuple, .. } => {
                named(&at(node, tuple), *since, "UNDERIVE");
            }
            ProvEvent::Disappear { since, node, tuple, .. } => {
                let tref = at(node, tuple);
                named(&tref, *since, "DISAPPEAR");
                // Nothing may name the tuple again until it reappears.
                open.remove(&tref);
            }
            ProvEvent::Appear { time, node, tuple } => {
                // One APPEAR per clock: that is what makes the clock a key.
                assert!(
                    last_appear.is_none_or(|t| t < *time),
                    "{case}: APPEAR {i} at {time} does not follow {last_appear:?}"
                );
                last_appear = Some(*time);
                let reopened = open.insert(at(node, tuple), *time);
                assert_eq!(reopened, None, "{case}: APPEAR {i} of a tuple that is there");
            }
        }
    }
    checked
}

fn check(program: &Arc<Program>, ops: &[ScheduledOp], case: &str) -> usize {
    let got = run_schedule(program, ops);
    assert_since_names_the_latest_appear(&got.events, case)
}

#[test]
fn since_names_the_latest_appear_on_every_generator() {
    let mut checked = 0;
    let mut rng = DetRng::seed_from_u64(0x51CE_0001);
    let mut cases = 0;
    while cases < 64 {
        let Some(program) = intgen::arb_program(&mut rng) else {
            continue;
        };
        cases += 1;
        let sparse = intgen::schedule(&intgen::join_ops(&mut rng));
        checked += check(&program, &sparse, &format!("int sparse {cases}"));
        let dense = intgen::schedule(&intgen::batch_ops(&mut rng));
        checked += check(&program, &dense, &format!("int dense {cases}"));
    }
    let mut rng = DetRng::seed_from_u64(0x51CE_0002);
    let mut cases = 0;
    while cases < 64 {
        // Alternate plain and aggregate-carrying programs, one and two nodes.
        let with_agg = cases % 2 == 1;
        let Some(program) = prefixgen::arb_program(&mut rng, with_agg) else {
            continue;
        };
        cases += 1;
        let ops = prefixgen::arb_ops(&mut rng, 8, 30, 4);
        let ops = if with_agg {
            prefixgen::alternating_schedule(&ops)
        } else {
            prefixgen::single_node_schedule(&ops)
        };
        checked += check(&program, &ops, &format!("prefix {cases}"));
    }
    let mut rng = DetRng::seed_from_u64(0x51CE_0003);
    let mut cases = 0;
    while cases < 32 {
        let Some(program) = nodegen::arb_program(&mut rng) else {
            continue;
        };
        cases += 1;
        let mut ops = nodegen::topology_schedule(&mut rng);
        ops.extend(nodegen::schedule(&nodegen::arb_ops(&mut rng)));
        checked += check(&program, &ops, &format!("multi-node {cases}"));
    }
    // The generators must produce episodes that get named again (extra
    // supports, deletions, cascades, joins), or the suite proves nothing.
    assert!(checked > 5_000, "only {checked} stamps checked");
}

#[test]
fn since_names_the_latest_appear_on_all_repro_scenarios() {
    let mut scenarios = dp_sdn::all_sdn_scenarios();
    scenarios.extend(dp_mapreduce::all_mr_scenarios());
    scenarios.push(dp_sdn::campus(&dp_sdn::CampusConfig::default()).scenario);
    assert_eq!(scenarios.len(), 9, "repro corpus changed size");
    for s in &scenarios {
        for (label, exec) in [("good", &s.good_exec), ("bad", &s.bad_exec)] {
            let case = format!("scenario {} ({label} trace)", s.name);
            let checked = check(&exec.program, &exec.log.to_schedule(), &case);
            assert!(checked > 0, "{case}: nothing to check");
        }
    }
}

/// A run continued after quiescence: the engine runs part of the log to
/// quiescence and is then given the rest. The
/// stream is still one recording from the empty engine on, and its second
/// half names episodes that opened in the first.
#[test]
fn since_holds_in_a_run_continued_after_quiescence() {
    let exec = dp_sdn::campus(&dp_sdn::CampusConfig::default()).scenario.bad_exec;
    let ops = exec.log.to_schedule();
    // Pause between two dues, two thirds in: tables installed, packets on
    // both sides.
    let mut cut = ops.len() * 2 / 3;
    while ops[cut].due == ops[cut - 1].due {
        cut += 1;
    }
    let mut eng = Engine::new(Arc::clone(&exec.program), VecSink::default());
    schedule_all(&mut eng, &ops[..cut]);
    eng.run().unwrap();
    let before = eng.sink().events.len();
    schedule_all(&mut eng, &ops[cut..]);
    eng.run().unwrap();
    let events = &eng.sink().events;
    let appears = events[..before].iter().filter_map(|e| match e {
        ProvEvent::Appear { time, .. } => Some(*time),
        _ => None,
    });
    let old = appears.max().expect("the first half opened episodes");
    let from_before = events[before..].iter().any(|e| match e {
        ProvEvent::Derive { body, .. } => body.iter().any(|b| b.since <= old),
        _ => false,
    });
    assert!(from_before, "no later derivation read a tuple from before the pause");
    let checked = assert_since_names_the_latest_appear(events, "campus, continued");
    assert!(checked > 0);
}
